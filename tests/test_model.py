"""Forward/backward checks for the toy encoder.

The gradient oracle is fd_harness: central finite differences of a
random linear functional of the cached forward's trace.
"""

import ast
import functools
import math
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from slimformer.budget import allocate, transformer_shapes
from slimformer.errors import (BundleFormatError, ExpansionWarning,
                               InputError, RangeError)
from slimformer.budget import solve_budget
from slimformer.factorize import factorize_layer
from slimformer.model import (
    FORWARD_BLOCK,
    GELU_CLIP,
    KEEPS_FREED_MEMORY,
    LN_EPS,
    TOY_CONFIG,
    Adam,
    EncoderModel,
    ForwardTrace,
    ModelConfig,
    _ln_forward,
    gelu,
    gelu_grad,
    gelu_tanh,
    init_model,
    load_config,
    load_model,
    save_config,
    save_model,
    softmax,
    truncated_config_for_budget,
)
from slimformer.pipeline import compress_model, one_shot_compress
from slimformer.prune import keep_largest
from slimformer.tasks import TaskConfig, evaluate, generate_task

from fd_harness import FD_TOL, fd_relative, trace_functional, traced

def small_config():
    return ModelConfig(vocab_size=11, embed_dim=8, num_layers=2, num_heads=2,
                       ffn_dim=12, max_seq_len=6, num_classes=3)


# every matrix slot may be masked; all but the classifier may be factored
WEIGHT_SLOTS = [e.name for e in small_config().shapes() if not e.is_vector]
FACTORABLE_SLOTS = [e.name for e in small_config().shapes()
                    if not e.is_vector and e.group != "classifier"]


def rand_tokens(rng, config, batch=3, length=None):
    length = length or config.max_seq_len
    return rng.integers(0, config.vocab_size, size=(batch, length))


SLOT_KINDS = ("dense", "masked", "factored", "masked-factored")


def slot_kind_model(cfg, kind, seed, rank=4):
    """A model whose every factorable slot is of one kind; the classifier
    is masked for the masked kinds."""
    rng = np.random.default_rng(seed)
    params = dict(init_model(cfg, seed=seed).params)
    masks = {}
    for e in cfg.shapes():
        if e.is_vector or kind == "dense":
            continue
        keys = [e.name]
        if kind.endswith("factored") and e.group != "classifier":
            del params[e.name]
            keys = [f"{e.name}.a", f"{e.name}.b"]
            params[keys[0]] = rng.normal(0.0, 0.2, size=(e.rows, rank))
            params[keys[1]] = rng.normal(0.0, 0.2, size=(e.cols, rank))
        if kind.startswith("masked"):
            for key in keys:
                masks[key] = (rng.random(params[key].shape) > 0.4).astype(float)
    return EncoderModel(cfg, params, masks)


def shares_any(model, other):
    """Whether any param or mask array of model shares memory with one
    of other's."""
    theirs = [*other.params.values(), *other.masks.values()]
    return any(np.shares_memory(mine, arr)
               for mine in (*model.params.values(), *model.masks.values())
               for arr in theirs)


def traced_peak(job):
    """(tracemalloc peak in bytes, result) of job()."""
    tracemalloc.start()
    try:
        out = job()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def forward_peak(model, tokens, with_cache):
    """(tracemalloc peak in bytes, result) of one forward."""
    return traced_peak(lambda: model.forward(tokens, with_cache=with_cache))


def trace_bytes(trace):
    arrays = (trace.embedding_out, *trace.attention, *trace.hidden,
              trace.logits)
    return [(a.shape, a.tobytes()) for a in arrays]


def gelu_edges():
    """Both signs of zero, NaN, subnormals, 1e300 and the largest float,
    and two ulps either side of GELU_CLIP, where tanh's argument stops
    following x, and of 7.19, where the tanh term first rounds to 1."""
    info = np.finfo(np.float64)
    edges = [0.0, np.nan, info.smallest_subnormal,
             info.smallest_normal - info.smallest_subnormal, 1e300, info.max]
    for centre in (GELU_CLIP, 7.19):
        below = above = centre
        edges.append(centre)
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 20.0)
            edges += [below, above]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


def fd_check(model, tokens, keys, seed, samples=20):
    """Worst fd_relative over random unmasked entries of each key."""
    loss, inj = trace_functional(model, tokens, seed)
    _, cache = model.forward(tokens, with_cache=True)
    grads = model.backward(cache, inj)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for key in keys:
        arr = model.params[key]
        mask = model.masks.get(key)
        for _ in range(max(1, samples // len(keys) + 1)):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            while mask is not None and mask[idx] == 0.0:
                # masked entries are pinned at zero, not free coordinates
                idx = tuple(rng.integers(0, s) for s in arr.shape)
            worst = max(worst, fd_relative(model, tokens, key, idx, loss,
                                           grads[key][idx]))
    return worst


class TestConfig:
    def test_toy_defaults(self):
        assert TOY_CONFIG.vocab_size == 64
        assert TOY_CONFIG.embed_dim == 32
        assert TOY_CONFIG.num_layers == 2
        assert TOY_CONFIG.num_heads == 4
        assert TOY_CONFIG.ffn_dim == 64
        assert TOY_CONFIG.max_seq_len == 16
        assert TOY_CONFIG.num_classes == 3
        assert TOY_CONFIG.head_dim == 8

    def test_head_divisibility(self):
        with pytest.raises(RangeError):
            ModelConfig(10, 9, 1, 2, 8, 4, 2)

    def test_positive_fields(self):
        with pytest.raises(RangeError):
            ModelConfig(10, 8, 0, 2, 8, 4, 2)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "m.config"
        save_config(TOY_CONFIG, path)
        assert load_config(path) == TOY_CONFIG

    def test_config_file_malformed(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("vocab_size 64\n")
        with pytest.raises(InputError):
            load_config(path)
        path.write_text("vocab_size=64\n")
        with pytest.raises(InputError):
            load_config(path)  # missing keys

    @pytest.mark.parametrize("line, key", [("num_experts=2", "num_experts"),
                                           ("embed_dim=16", "embed_dim"),
                                           ("embed_dim", "embed_dim")])
    def test_config_file_keys_are_strict(self, tmp_path, line, key):
        """An unknown or repeated key, or a line without '=', is an
        InputError naming the file and the key."""
        path = tmp_path / "m.config"
        save_config(TOY_CONFIG, path)
        path.write_text(path.read_text() + "# note\n\n" + line + "\n")
        with pytest.raises(InputError, match=f"m.config.*{key}"):
            load_config(path)


class TestTruncatedConfig:
    def test_close_to_target(self):
        cfg = truncated_config_for_budget(TOY_CONFIG, 7899)
        count = transformer_shapes(cfg.vocab_size, cfg.embed_dim,
                                   cfg.num_layers, cfg.ffn_dim,
                                   cfg.max_seq_len,
                                   cfg.num_classes).group_total()
        assert abs(count - 7899) <= 60
        assert cfg.num_heads == 1
        assert cfg.embed_dim <= TOY_CONFIG.embed_dim

    @staticmethod
    def argmin_configs(config, counts, targets):
        """Brute force: for each target, the (width, ffn width) whose
        count in counts[width - 1, ffn - 1] is nearest, ties going to the
        narrowest width, then the smallest ffn width (argmin keeps the
        first minimum of the width-major table)."""
        flat = counts.ravel()
        best = []
        for start in range(0, len(targets), 64):
            chunk = np.asarray(targets[start:start + 64])[:, None]
            best.extend(np.argmin(np.abs(flat - chunk), axis=1))
        return [(1 + i // config.ffn_dim, 1 + i % config.ffn_dim)
                for i in best]

    @staticmethod
    def count(config, d, f):
        return replace(config, embed_dim=d, num_heads=1,
                       ffn_dim=f).shapes().group_total()

    def test_matches_brute_force_argmin(self, monkeypatch):
        """Every target from 1 to the toy total, and a sample at width
        256, picks the config a search over every (width, ffn width)
        picks.  The toy table counts every pair from its shape table; the
        wide one is linear in the ffn width between the shape tables at
        1 and ffn_dim, spot-checked at random pairs."""
        toy = TOY_CONFIG
        toy_counts = np.array([[self.count(toy, d, f)
                                for f in range(1, toy.ffn_dim + 1)]
                               for d in range(1, toy.embed_dim + 1)])
        wide = WIDE_CONFIG
        ends = np.array([[self.count(wide, d, f) for f in (1, wide.ffn_dim)]
                         for d in range(1, wide.embed_dim + 1)])
        slope = (ends[:, 1:] - ends[:, :1]) // (wide.ffn_dim - 1)
        wide_counts = ends[:, :1] + slope * np.arange(wide.ffn_dim)
        rng = np.random.default_rng(30)
        for d, f in rng.integers(1, (wide.embed_dim + 1, wide.ffn_dim + 1),
                                 size=(16, 2)):
            assert wide_counts[d - 1, f - 1] == self.count(wide, d, f)
        wide_targets = rng.integers(1, wide.shapes().group_total() + 1,
                                    size=64).tolist()

        # the function rebuilds one shape table per width on every call
        monkeypatch.setattr(ModelConfig, "shapes",
                            functools.cache(ModelConfig.shapes))
        for config, counts, targets in (
                (toy, toy_counts, range(1, toy.shapes().group_total() + 1)),
                (wide, wide_counts, wide_targets)):
            want = self.argmin_configs(config, counts, targets)
            for target, pair in zip(targets, want):
                got = truncated_config_for_budget(config, target)
                assert (got.embed_dim, got.ffn_dim) == pair, target

    def test_valid_model(self):
        cfg = truncated_config_for_budget(TOY_CONFIG, 5000)
        model = init_model(cfg, seed=0)
        trace = model.forward(np.zeros((2, 4), dtype=np.int64))
        assert trace.logits.shape == (2, 3)


class TestForward:
    def test_zero_params_logits_equal_bias(self):
        model = init_model(TOY_CONFIG, seed=0)
        for key in model.params:
            model.params[key] = np.zeros_like(model.params[key])
        model.params["cls.b"] = np.array([1.0, -2.0, 0.5])
        tokens = np.arange(16)[None, :]
        trace = traced(model, tokens)
        assert np.allclose(trace.logits, [1.0, -2.0, 0.5])
        for attn in trace.attention:
            assert np.allclose(attn, 1.0 / 16)

    def test_single_token_attention_is_one(self):
        model = init_model(TOY_CONFIG, seed=1)
        trace = traced(model, np.array([[7]]))
        for attn in trace.attention:
            assert attn.shape == (1, TOY_CONFIG.num_heads, 1, 1)
            assert np.allclose(attn, 1.0)

    def test_attention_rows_stochastic(self):
        rng = np.random.default_rng(4)
        model = init_model(small_config(), seed=2)
        tokens = rand_tokens(rng, small_config(), batch=5)
        trace = traced(model, tokens)
        for attn in trace.attention:
            assert np.all(attn >= 0)
            assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        cfg = small_config()
        model = init_model(cfg, seed=3)
        tokens = rand_tokens(rng, cfg, batch=6)
        perm = rng.permutation(6)
        a = traced(model, tokens)
        b = traced(model, tokens[perm])
        assert np.array_equal(a.logits[perm], b.logits)
        assert np.array_equal(a.hidden[-1][perm], b.hidden[-1])

    def test_golden_trace(self):
        model = init_model(TOY_CONFIG, seed=0)
        trace = traced(model, np.arange(16)[None, :])
        assert np.allclose(
            trace.logits[0],
            [0.08486692498148565, -0.007443270175995401, 0.0941686827101679],
            atol=1e-9,
        )
        assert np.allclose(
            trace.embedding_out[0, 0, :3],
            [0.0463665391409591, -0.0003541676551671, 0.04795574044542879],
            atol=1e-9,
        )
        assert np.allclose(
            trace.hidden[1][0, 5, :3],
            [1.7761381048713156, -0.2548691545473845, -0.7962594967038977],
            atol=1e-9,
        )

    def test_trace_shapes(self):
        cfg = small_config()
        model = init_model(cfg, seed=0)
        tokens = np.zeros((4, 5), dtype=np.int64)
        trace = traced(model, tokens)
        assert trace.embedding_out.shape == (4, 5, 8)
        assert all(a.shape == (4, 2, 5, 5) for a in trace.attention)
        assert all(h.shape == (4, 5, 8) for h in trace.hidden)
        assert trace.logits.shape == (4, 3)
        # the plain forward keeps only the logits
        plain = model.forward(tokens)
        assert plain.embedding_out is plain.attention is plain.hidden is None
        assert plain.logits.shape == (4, 3)

    def test_input_errors(self):
        model = init_model(small_config(), seed=0)
        with pytest.raises(InputError):
            model.forward(np.array([[11]]))  # out of vocabulary
        with pytest.raises(InputError):
            model.forward(np.array([[-1]]))
        with pytest.raises(InputError):
            model.forward(np.zeros((2, 7), dtype=np.int64))  # too long
        with pytest.raises(InputError):
            model.forward(np.array([[0.5, 1.0]]))
        with pytest.raises(InputError):
            model.forward(np.zeros((1, 2, 2), dtype=np.int64))

    def test_empty_batch_is_input_error(self):
        model = init_model(small_config(), seed=0)
        with pytest.raises(InputError, match="no sequences"):
            model.forward(np.zeros((0, 4), dtype=np.int64))

    def test_1d_tokens_promoted(self):
        model = init_model(small_config(), seed=0)
        one = model.forward(np.array([1, 2, 3]))
        two = model.forward(np.array([[1, 2, 3]]))
        assert np.array_equal(one.logits, two.logits)

    def test_cache_off_lowers_peak_memory(self):
        # without with_cache, a chunk's activations die with the chunk
        # instead of being kept for backward; the logits are the same bytes
        tokens = rand_tokens(np.random.default_rng(6), TOY_CONFIG, batch=64)
        for kind in SLOT_KINDS:
            model = slot_kind_model(TOY_CONFIG, kind, seed=0)
            off, trace = forward_peak(model, tokens, with_cache=False)
            on, (cached, _) = forward_peak(model, tokens, with_cache=True)
            assert trace.logits.tobytes() == cached.logits.tobytes(), kind
            assert off < on, kind

    def test_kernels_match_reference_formulas(self):
        """The buffer-reusing kernels give the bytes of the plain
        formulas and leave their input untouched."""
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 3.0, size=(4, 3, 16, 32))
        before = x.copy()
        shifted = np.exp(x - np.max(x, axis=-1, keepdims=True))
        assert np.array_equal(
            softmax(x), shifted / np.sum(shifted, axis=-1, keepdims=True))
        # GELU's plain tanh form and its derivative, x unclipped: the
        # clip changes no byte while |x| <= GELU_CLIP, and beyond it the
        # term is +-1 either way
        c, k = math.sqrt(2.0 / math.pi), 0.044715
        tanh = np.tanh(c * (x + k * x * x * x))
        assert gelu(x).tobytes() == (0.5 * x * (1.0 + tanh)).tobytes()
        t = gelu_tanh(x)
        kept = t.copy()
        assert gelu(x, t).tobytes() == gelu(x).tobytes()
        assert np.array_equal(t, kept)
        slope = (0.5 * (1.0 + tanh)
                 + 0.5 * x * (1.0 - tanh * tanh) * c * (1.0 + 3.0 * k * x * x))
        assert gelu_grad(x, t).tobytes() == slope.tobytes()
        assert np.array_equal(t, kept)
        gamma, beta = rng.normal(size=32), rng.normal(size=32)
        mu = x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
        xhat = (x - mu) * inv_std
        y, (got_xhat, got_inv_std) = _ln_forward(x, gamma, beta)
        assert np.array_equal(y, gamma * xhat + beta)
        assert np.array_equal(got_xhat, xhat)
        assert np.array_equal(got_inv_std, inv_std)
        assert np.array_equal(x, before)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=64))
    def test_gelu_finite_and_saturating(self, patterns):
        """For raw 64-bit patterns and GELU's edges: every finite x gives
        a finite gelu and slope and raises no floating-point error; from
        |x| = 8 on the tanh term is exactly +-1, gelu gives x or -0.0 and
        the slope 1 or 0; NaN gives NaN."""
        x = np.concatenate([
            gelu_edges(),
            np.array(patterns, dtype=np.uint64).view(np.float64)])
        finite = x[np.isfinite(x)]
        with np.errstate(all="raise"):
            t = gelu_tanh(finite)
            y, slope = gelu(finite, t), gelu_grad(finite, t)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(slope))
        high, low = finite >= 8.0, finite <= -8.0
        assert np.all(t[high] == 1.0) and np.all(t[low] == -1.0)
        assert y[high].tobytes() == finite[high].tobytes()
        assert y[low].tobytes() == np.full(low.sum(), -0.0).tobytes()
        assert np.all(slope[high] == 1.0) and np.all(slope[low] == 0.0)
        nan = x[np.isnan(x)]
        with np.errstate(invalid="ignore"):  # signalling NaN patterns
            assert np.all(np.isnan(gelu(nan)))
            assert np.all(np.isnan(gelu_grad(nan, gelu_tanh(nan))))

    @pytest.mark.parametrize("block_rows", [3, 1])
    def test_blocked_forward_is_byte_identical(self, monkeypatch, block_rows):
        """Forcing several chunks on one thread, the last one short,
        changes no byte of the logits for any slot kind."""
        module = sys.modules["slimformer.model"]
        monkeypatch.setattr(module, "WORKERS", 1)
        monkeypatch.setattr(module, "FORWARD_BLOCK", block_rows
                            * TOY_CONFIG.max_seq_len * TOY_CONFIG.ffn_dim)
        tokens = rand_tokens(np.random.default_rng(9), TOY_CONFIG, batch=10)
        for kind in SLOT_KINDS:
            model = slot_kind_model(TOY_CONFIG, kind, seed=2)
            assert model.pooled_rows(TOY_CONFIG.max_seq_len) == block_rows
            blocked = model.forward(tokens)
            whole, _ = model.forward(tokens, with_cache=True)
            assert blocked.logits.tobytes() == whole.logits.tobytes(), kind

    def test_peak_memory_bound(self, monkeypatch):
        """A plain forward on one thread holds its pooled states and
        logits plus one chunk: at batch 256 and 512 (width 256) its
        tracemalloc peak is those bytes plus at most 5 of one
        FORWARD_BLOCK's ffn activations (5 MiB), and doubling the batch
        grows the peak by no more than those bytes.  A full-batch trace
        took 33.4 MB at batch 256."""
        monkeypatch.setattr(sys.modules["slimformer.model"], "WORKERS", 1)
        model, block_activation = peak_model()
        peaks, held = [], []
        for batch in (256, 512):
            peak, kept = plain_forward_peak(model, batch)
            assert peak <= kept + 5 * block_activation, batch
            peaks.append(peak)
            held.append(kept)
        # 1/16 of a block's activation absorbs Python-object noise
        assert peaks[1] - peaks[0] <= held[1] - held[0] + block_activation / 16

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_peak_within_one_block(self, monkeypatch, workers):
        """WORKERS threads, each on a chunk of 1/WORKERS the size, peak
        no higher than one thread on whole blocks, however their chunks
        line up in time, and within test_peak_memory_bound's bound."""
        module = sys.modules["slimformer.model"]
        model, block_activation = peak_model()
        for batch in (256, 512):
            monkeypatch.setattr(module, "WORKERS", 1)
            one, _ = plain_forward_peak(model, batch)
            monkeypatch.setattr(module, "WORKERS", workers)
            pooled, kept = plain_forward_peak(model, batch)
            assert pooled <= kept + 5 * block_activation, batch
            assert pooled <= one + block_activation / 16, batch


@functools.cache
def peak_model():
    """(width-256 model, bytes of one FORWARD_BLOCK of ffn activation)."""
    return init_model(WIDE_CONFIG, seed=0), FORWARD_BLOCK * 8


def plain_forward_peak(model, batch):
    """(tracemalloc peak, bytes of the pooled states and logits) of one
    plain forward."""
    tokens = rand_tokens(np.random.default_rng(7), model.config, batch=batch)
    peak, trace = forward_peak(model, tokens, with_cache=False)
    return peak, trace.logits.nbytes + 8 * batch * model.config.embed_dim


class BlockFailure(Exception):
    pass


class TestPooledForward:
    """The plain forward on WORKERS threads: FORWARD_BLOCK is set to
    `block_rows` sequences, so chunks are block_rows // WORKERS
    sequences (at least 1)."""

    @staticmethod
    def patch(monkeypatch, workers, block_rows):
        module = sys.modules["slimformer.model"]
        monkeypatch.setattr(module, "WORKERS", workers)
        monkeypatch.setattr(module, "FORWARD_BLOCK", block_rows
                            * TOY_CONFIG.max_seq_len * TOY_CONFIG.ffn_dim)

    def test_attention_maps_are_not_kept(self, monkeypatch):
        """In a plain forward layer 0's attention map is dead before
        layer 1's FFN block runs; the cached forward returns every
        layer's map."""
        self.patch(monkeypatch, workers=1, block_rows=8)
        maps, alive_at_ffn = [], []
        attention_block = EncoderModel._attention_block
        ffn_block = EncoderModel._ffn_block

        def attention_spy(model, p, x, lc):
            out = attention_block(model, p, x, lc)
            maps.append(weakref.ref(lc["probs"]))
            return out

        def ffn_spy(model, *args):
            alive_at_ffn.append([ref() is not None for ref in maps])
            return ffn_block(model, *args)

        monkeypatch.setattr(EncoderModel, "_attention_block", attention_spy)
        monkeypatch.setattr(EncoderModel, "_ffn_block", ffn_spy)
        model = init_model(TOY_CONFIG, seed=0)
        tokens = rand_tokens(np.random.default_rng(3), TOY_CONFIG, batch=4)
        model.forward(tokens)
        assert len(alive_at_ffn) == TOY_CONFIG.num_layers == 2
        assert not alive_at_ffn[1][0]
        maps.clear()
        trace = model.forward(tokens, with_cache=True)[0]
        assert len(trace.attention) == len(maps) == 2
        assert all(a is ref() for a, ref in zip(trace.attention, maps))

    @pytest.mark.parametrize("workers, block_rows, batch", [
        (1, 6, 11),   # chunks of 6 and 5
        (2, 6, 11),   # 3, 3, 3, 2
        (3, 6, 11),   # 2 x 5 and 1: more threads than cores
        (3, 1, 2),    # chunks of 1: more workers than chunks
    ])
    def test_byte_identical_for_every_slot_kind(self, monkeypatch, workers,
                                                block_rows, batch):
        """Every chunk lands once in its rows: the logits' bytes equal
        the full-batch cached pass's, also with threads switching as
        often as the interpreter allows."""
        self.patch(monkeypatch, workers, block_rows)
        tokens = rand_tokens(np.random.default_rng(10), TOY_CONFIG,
                             batch=batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind in SLOT_KINDS:
                model = slot_kind_model(TOY_CONFIG, kind, seed=5)
                pooled = model.forward(tokens)
                whole, _ = model.forward(tokens, with_cache=True)
                assert (pooled.logits.tobytes()
                        == whole.logits.tobytes()), kind
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers, block_rows, batch",
                             [(2, 6, 11), (3, 6, 11), (3, 1, 2)])
    def test_threads_end_with_the_call(self, monkeypatch, workers,
                                       block_rows, batch):
        """At most min(WORKERS, chunks) threads run chunks, and none but
        the caller's is alive once forward returns."""
        self.patch(monkeypatch, workers, block_rows)
        step = max(1, block_rows // workers)
        blocks = -(-batch // step)
        runners, alive = set(), []
        encode = EncoderModel._encode

        def spy(model, tokens, cache=None):
            runners.add(threading.get_ident())
            alive.append(threading.active_count())
            return encode(model, tokens, cache)

        monkeypatch.setattr(EncoderModel, "_encode", spy)
        model = init_model(TOY_CONFIG, seed=0)
        tokens = rand_tokens(np.random.default_rng(11), TOY_CONFIG,
                             batch=batch)
        before = threading.active_count()
        model.forward(tokens)
        assert threading.active_count() == before
        assert len(alive) == blocks
        assert max(alive) <= before + min(workers, blocks) - 1
        assert len(runners) <= min(workers, blocks)

    @pytest.mark.parametrize("in_helper", [True, False])
    def test_block_exception_leaves_forward(self, monkeypatch, in_helper):
        """An exception raised in one chunk, in a helper thread or in the
        calling thread, leaves forward as that same exception once every
        thread has stopped."""
        self.patch(monkeypatch, workers=2, block_rows=2)
        caller = threading.get_ident()
        # each thread's first chunk waits until the other has one too
        both = threading.Barrier(2, timeout=10)
        runners = set()
        encode = EncoderModel._encode

        def failing(model, tokens, cache=None):
            me = threading.get_ident()
            if me not in runners:
                runners.add(me)
                both.wait()
            if (me != caller) == in_helper:
                raise BlockFailure("block")
            return encode(model, tokens, cache)

        monkeypatch.setattr(EncoderModel, "_encode", failing)
        model = init_model(TOY_CONFIG, seed=0)
        tokens = rand_tokens(np.random.default_rng(12), TOY_CONFIG, batch=8)
        before = threading.active_count()
        with pytest.raises(BlockFailure):
            model.forward(tokens)
        assert len(runners) == 2
        assert threading.active_count() == before


def recomputed_gelu_grad(x, t=None):
    """GELU's derivative in the plain tanh form, recomputed from x,
    ignoring t."""
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    tanh = np.tanh(c * (x + k * x * x * x))
    return (0.5 * (1.0 + tanh)
            + 0.5 * x * (1.0 - tanh * tanh) * c * (1.0 + 3.0 * k * x * x))


class TestBackward:
    def test_cached_erf_gives_recomputed_gradients(self, monkeypatch):
        """Backward's GELU derivative from the forward's cached tanh term
        gives, bit for bit, the gradients of recomputing the term from
        the FFN pre-activation, for every slot kind."""
        tokens = rand_tokens(np.random.default_rng(12), TOY_CONFIG, batch=5)
        module = sys.modules["slimformer.model"]
        for kind in SLOT_KINDS:
            model = slot_kind_model(TOY_CONFIG, kind, seed=3)
            _, inj = trace_functional(model, tokens, seed=4)
            _, cache = model.forward(tokens, with_cache=True)
            got = model.backward(cache, inj)
            with monkeypatch.context() as patch:
                patch.setattr(module, "gelu_grad", recomputed_gelu_grad)
                want = model.backward(cache, inj)
            assert set(got) == set(want)
            for key in got:
                assert np.array_equal(got[key], want[key]), (kind, key)

    @settings(max_examples=24, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(SLOT_KINDS), st.integers(0, 2 ** 32 - 1))
    def test_gradient_contract_for_every_slot_kind(self, kind, seed):
        """Every factorable slot of one kind, masks placed at random:
        backward matches central differences on every parameter, and
        masked entries get exactly zero gradient and stay exactly zero
        after an Adam step."""
        cfg = small_config()
        model = slot_kind_model(cfg, kind, seed)
        assert {model.slots[name].kind for name in FACTORABLE_SLOTS} == {kind}
        assert bool(model.masks) == kind.startswith("masked")
        tokens = rand_tokens(np.random.default_rng(seed), cfg)
        assert fd_check(model, tokens, sorted(model.params), seed,
                        samples=60) < FD_TOL
        _, inj = trace_functional(model, tokens, seed)
        _, cache = model.forward(tokens, with_cache=True)
        grads = model.backward(cache, inj)
        Adam(lr=1e-2).step(model, grads)
        for key, mask in model.masks.items():
            assert np.all(grads[key][~mask] == 0.0), key
            assert np.all(model.params[key][~mask] == 0.0), key

    def test_zero_injection_zero_grads(self):
        model = init_model(small_config(), seed=1)
        tokens = rand_tokens(np.random.default_rng(0), small_config())
        _, cache = model.forward(tokens, with_cache=True)
        grads = model.backward(cache, ForwardTrace())
        assert set(grads) == set(model.params)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_gradients_embedding_class(self):
        model = init_model(TOY_CONFIG, seed=2)
        tokens = rand_tokens(np.random.default_rng(1), TOY_CONFIG, batch=3)
        assert fd_check(model, tokens, ["tok_embed", "pos_embed"], 10) < FD_TOL

    def test_gradients_attention_projections(self):
        model = init_model(TOY_CONFIG, seed=3)
        tokens = rand_tokens(np.random.default_rng(2), TOY_CONFIG, batch=3)
        keys = [f"enc{i}.attn.{w}" for i in range(2)
                for w in ("wq", "wk", "wv", "wo")]
        assert fd_check(model, tokens, keys, 11, samples=32) < FD_TOL

    def test_gradients_attention_biases(self):
        model = init_model(TOY_CONFIG, seed=4)
        tokens = rand_tokens(np.random.default_rng(3), TOY_CONFIG, batch=3)
        keys = [f"enc{i}.attn.{b}" for i in range(2)
                for b in ("bq", "bk", "bv", "bo")]
        assert fd_check(model, tokens, keys, 12, samples=32) < FD_TOL

    def test_gradients_ffn_class(self):
        model = init_model(TOY_CONFIG, seed=5)
        tokens = rand_tokens(np.random.default_rng(4), TOY_CONFIG, batch=3)
        keys = [f"enc{i}.ffn.{w}" for i in range(2)
                for w in ("w1", "b1", "w2", "b2")]
        assert fd_check(model, tokens, keys, 13, samples=32) < FD_TOL

    def test_gradients_layernorm_class(self):
        model = init_model(TOY_CONFIG, seed=6)
        tokens = rand_tokens(np.random.default_rng(5), TOY_CONFIG, batch=3)
        keys = [f"enc{i}.ln{j}.{v}" for i in range(2) for j in (1, 2)
                for v in ("gamma", "beta")]
        assert fd_check(model, tokens, keys, 14, samples=32) < FD_TOL

    def test_gradients_classifier_class(self):
        model = init_model(TOY_CONFIG, seed=7)
        tokens = rand_tokens(np.random.default_rng(6), TOY_CONFIG, batch=3)
        assert fd_check(model, tokens, ["cls.w", "cls.b"], 15) < FD_TOL

    @pytest.mark.parametrize("slot", WEIGHT_SLOTS)
    def test_masked_gradients_exactly_zero(self, slot):
        cfg = small_config()
        model = init_model(cfg, seed=8)
        rng = np.random.default_rng(7)
        mask = (rng.random(model.params[slot].shape) > 0.5).astype(float)
        model = EncoderModel(cfg, model.params, {slot: mask})
        tokens = rand_tokens(rng, cfg)
        loss_fn, inj = trace_functional(model, tokens, 20)
        _, cache = model.forward(tokens, with_cache=True)
        grads = model.backward(cache, inj)
        assert np.all(grads[slot][mask == 0] == 0.0)
        assert np.any(grads[slot][mask == 1] != 0.0)

    def test_masked_gradcheck_still_passes(self):
        cfg = small_config()
        base = init_model(cfg, seed=9)
        rng = np.random.default_rng(8)
        masks = {}
        for key in ("enc0.attn.wq", "enc1.ffn.w2", "tok_embed"):
            masks[key] = (rng.random(base.params[key].shape) > 0.4).astype(float)
        model = EncoderModel(cfg, base.params, masks)
        tokens = rand_tokens(rng, cfg)
        assert fd_check(model, tokens, list(masks), 21, samples=24) < FD_TOL


class TestFactoredSlots:
    def make_factored(self, cfg, seed, slots):
        """Replace each named slot by its exact full-rank factors."""
        model = init_model(cfg, seed=seed)
        params = dict(model.params)
        for slot in slots:
            w = params.pop(slot)
            with warnings.catch_warnings():
                # full rank stores more than dense; intended here
                warnings.simplefilter("ignore", ExpansionWarning)
                pair = factorize_layer(w, rank=min(w.shape))
            params[f"{slot}.a"] = pair.a
            params[f"{slot}.b"] = pair.b
        return model, EncoderModel(cfg, params)

    def test_factored_forward_matches_dense(self):
        cfg = small_config()
        dense, factored = self.make_factored(
            cfg, 10, ["enc0.ffn.w1", "enc1.attn.wv", "tok_embed", "pos_embed"])
        tokens = rand_tokens(np.random.default_rng(9), cfg, batch=4)
        a = traced(dense, tokens)
        b = traced(factored, tokens)
        assert np.allclose(a.logits, b.logits, atol=1e-9)
        assert np.allclose(a.hidden[-1], b.hidden[-1], atol=1e-9)

    def test_factored_gradcheck(self):
        cfg = small_config()
        _, model = self.make_factored(
            cfg, 11, ["enc0.ffn.w1", "enc0.attn.wq", "tok_embed", "pos_embed"])
        tokens = rand_tokens(np.random.default_rng(10), cfg, batch=3)
        keys = ["enc0.ffn.w1.a", "enc0.ffn.w1.b", "enc0.attn.wq.a",
                "enc0.attn.wq.b", "tok_embed.a", "tok_embed.b",
                "pos_embed.a", "pos_embed.b"]
        assert fd_check(model, tokens, keys, 22, samples=32) < FD_TOL

    @pytest.mark.parametrize("half", ["a", "b"])
    @pytest.mark.parametrize("slot", FACTORABLE_SLOTS)
    def test_factored_masked_grads_zero(self, slot, half):
        cfg = small_config()
        _, model = self.make_factored(cfg, 12, [slot])
        key = f"{slot}.{half}"
        rng = np.random.default_rng(11)
        mask = (rng.random(model.params[key].shape) > 0.5).astype(float)
        model = EncoderModel(cfg, model.params, {key: mask})
        tokens = rand_tokens(rng, cfg)
        loss_fn, inj = trace_functional(model, tokens, 23)
        _, cache = model.forward(tokens, with_cache=True)
        grads = model.backward(cache, inj)
        assert np.all(grads[key][mask == 0] == 0.0)
        assert np.any(grads[key][mask == 1] != 0.0)

    @pytest.mark.parametrize("slot", ["cls.w", "enc0.attn.bq"])
    def test_unfactorable_slot_rejected(self, slot):
        # forward reads the classifier and every vector as one array
        cfg = small_config()
        params = dict(init_model(cfg, seed=0).params)
        del params[slot]
        e = next(e for e in cfg.shapes() if e.name == slot)
        params[f"{slot}.a"] = np.ones((e.rows, 1))
        params[f"{slot}.b"] = np.ones((e.cols, 1))
        with pytest.raises(InputError, match="cannot be factored"):
            EncoderModel(cfg, params)

    def test_retained_count(self):
        cfg = small_config()
        model = init_model(cfg, seed=13)
        total = sum(v.size for v in model.params.values())
        assert model.retained_count() == total
        mask = np.zeros_like(model.params["enc0.ffn.w1"])
        mask[0, 0] = 1.0
        masked = EncoderModel(cfg, model.params, {"enc0.ffn.w1": mask})
        assert masked.retained_count() == total - mask.size + 1


TINY_CONFIG = ModelConfig(vocab_size=5, embed_dim=2, num_layers=1,
                          num_heads=1, ffn_dim=3, max_seq_len=4, num_classes=2)
# to_bundle's entries for slot_kind_model(TINY_CONFIG, kind, seed=50,
# rank=1), as name:group:shape with the group cut to three letters,
# written down when slots were still (kind, keys) tuples
BUNDLE_LAYOUTS = {
    "dense": """
    tok_embed:emb:5x2 pos_embed:emb:4x2 enc0.attn.wq:enc:2x2
    enc0.attn.wk:enc:2x2 enc0.attn.wv:enc:2x2 enc0.attn.wo:enc:2x2
    enc0.attn.bq:enc:1x2 enc0.attn.bk:enc:1x2 enc0.attn.bv:enc:1x2
    enc0.attn.bo:enc:1x2 enc0.ln1.gamma:enc:1x2 enc0.ln1.beta:enc:1x2
    enc0.ffn.w1:enc:2x3 enc0.ffn.b1:enc:1x3 enc0.ffn.w2:enc:3x2
    enc0.ffn.b2:enc:1x2 enc0.ln2.gamma:enc:1x2 enc0.ln2.beta:enc:1x2
    cls.w:cla:2x2 cls.b:cla:1x2
    """,
    "masked": """
    tok_embed:emb:5x2 tok_embed.mask:emb:5x2 pos_embed:emb:4x2
    pos_embed.mask:emb:4x2 enc0.attn.wq:enc:2x2
    enc0.attn.wq.mask:enc:2x2 enc0.attn.wk:enc:2x2
    enc0.attn.wk.mask:enc:2x2 enc0.attn.wv:enc:2x2
    enc0.attn.wv.mask:enc:2x2 enc0.attn.wo:enc:2x2
    enc0.attn.wo.mask:enc:2x2 enc0.attn.bq:enc:1x2 enc0.attn.bk:enc:1x2
    enc0.attn.bv:enc:1x2 enc0.attn.bo:enc:1x2 enc0.ln1.gamma:enc:1x2
    enc0.ln1.beta:enc:1x2 enc0.ffn.w1:enc:2x3 enc0.ffn.w1.mask:enc:2x3
    enc0.ffn.b1:enc:1x3 enc0.ffn.w2:enc:3x2 enc0.ffn.w2.mask:enc:3x2
    enc0.ffn.b2:enc:1x2 enc0.ln2.gamma:enc:1x2 enc0.ln2.beta:enc:1x2
    cls.w:cla:2x2 cls.w.mask:cla:2x2 cls.b:cla:1x2
    """,
    "factored": """
    tok_embed.a:emb:5x1 tok_embed.b:emb:2x1 pos_embed.a:emb:4x1
    pos_embed.b:emb:2x1 enc0.attn.wq.a:enc:2x1 enc0.attn.wq.b:enc:2x1
    enc0.attn.wk.a:enc:2x1 enc0.attn.wk.b:enc:2x1 enc0.attn.wv.a:enc:2x1
    enc0.attn.wv.b:enc:2x1 enc0.attn.wo.a:enc:2x1 enc0.attn.wo.b:enc:2x1
    enc0.attn.bq:enc:1x2 enc0.attn.bk:enc:1x2 enc0.attn.bv:enc:1x2
    enc0.attn.bo:enc:1x2 enc0.ln1.gamma:enc:1x2 enc0.ln1.beta:enc:1x2
    enc0.ffn.w1.a:enc:2x1 enc0.ffn.w1.b:enc:3x1 enc0.ffn.b1:enc:1x3
    enc0.ffn.w2.a:enc:3x1 enc0.ffn.w2.b:enc:2x1 enc0.ffn.b2:enc:1x2
    enc0.ln2.gamma:enc:1x2 enc0.ln2.beta:enc:1x2 cls.w:cla:2x2
    cls.b:cla:1x2
    """,
    "masked-factored": """
    tok_embed.a:emb:5x1 tok_embed.a.mask:emb:5x1 tok_embed.b:emb:2x1
    tok_embed.b.mask:emb:2x1 pos_embed.a:emb:4x1
    pos_embed.a.mask:emb:4x1 pos_embed.b:emb:2x1
    pos_embed.b.mask:emb:2x1 enc0.attn.wq.a:enc:2x1
    enc0.attn.wq.a.mask:enc:2x1 enc0.attn.wq.b:enc:2x1
    enc0.attn.wq.b.mask:enc:2x1 enc0.attn.wk.a:enc:2x1
    enc0.attn.wk.a.mask:enc:2x1 enc0.attn.wk.b:enc:2x1
    enc0.attn.wk.b.mask:enc:2x1 enc0.attn.wv.a:enc:2x1
    enc0.attn.wv.a.mask:enc:2x1 enc0.attn.wv.b:enc:2x1
    enc0.attn.wv.b.mask:enc:2x1 enc0.attn.wo.a:enc:2x1
    enc0.attn.wo.a.mask:enc:2x1 enc0.attn.wo.b:enc:2x1
    enc0.attn.wo.b.mask:enc:2x1 enc0.attn.bq:enc:1x2
    enc0.attn.bk:enc:1x2 enc0.attn.bv:enc:1x2 enc0.attn.bo:enc:1x2
    enc0.ln1.gamma:enc:1x2 enc0.ln1.beta:enc:1x2 enc0.ffn.w1.a:enc:2x1
    enc0.ffn.w1.a.mask:enc:2x1 enc0.ffn.w1.b:enc:3x1
    enc0.ffn.w1.b.mask:enc:3x1 enc0.ffn.b1:enc:1x3 enc0.ffn.w2.a:enc:3x1
    enc0.ffn.w2.a.mask:enc:3x1 enc0.ffn.w2.b:enc:2x1
    enc0.ffn.w2.b.mask:enc:2x1 enc0.ffn.b2:enc:1x2
    enc0.ln2.gamma:enc:1x2 enc0.ln2.beta:enc:1x2 cls.w:cla:2x2
    cls.w.mask:cla:2x2 cls.b:cla:1x2
    """,
}


def array_bytes(arrays):
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in arrays.items()}


class TestBundleRoundTrip:
    @pytest.mark.parametrize("kind", SLOT_KINDS)
    def test_arrays_keep_table_shapes(self, tmp_path, kind):
        """Every params and masks array of a built model has its shape
        table's (rows, cols), vectors as 1 x n rows; factored halves are
        (rows, r) and (cols, r)."""
        cfg = small_config()
        model = slot_kind_model(cfg, kind, seed=21)
        # a vector's mask too
        model = EncoderModel(cfg, model.params,
                             {**model.masks, "cls.b": np.array([[1, 0, 1]])})
        save_model(model, tmp_path / "m")
        plan = solve_budget(cfg.shapes(), 0.4, p_embd=0.55, p_svd=0.45)
        for built in (init_model(cfg, seed=21), compress_model(model, plan)[0],
                      model.copy(),
                      EncoderModel.from_bundle(model.to_bundle(), cfg),
                      load_model(tmp_path / "m")):
            for e in cfg.shapes():
                s = built.slots[e.name]
                shapes = ([(e.rows, s.rank), (e.cols, s.rank)] if s.rank
                          else [(e.rows, e.cols)])
                for key, shape in zip(s.keys, shapes, strict=True):
                    assert built.params[key].shape == shape, key
                    if key in built.masks:
                        assert built.masks[key].shape == shape, key

    @pytest.mark.parametrize("kind", SLOT_KINDS)
    def test_layout_and_round_trip_are_pinned(self, tmp_path, kind):
        """The bundle entries keep their names, groups, order and shapes,
        and a saved model loads with the same bytes and slot records."""
        model = slot_kind_model(TINY_CONFIG, kind, seed=50, rank=1)
        layout = [f"{name}:{group[:3]}:{m.shape[0]}x{m.shape[1]}"
                  for name, group, m in model.to_bundle()]
        assert layout == BUNDLE_LAYOUTS[kind].split()
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back.slots == model.slots
        assert array_bytes(back.params) == array_bytes(model.params)
        assert array_bytes(back.masks) == array_bytes(model.masks)

    def test_to_from_bundle(self):
        cfg = small_config()
        model = init_model(cfg, seed=14)
        mask = np.ones_like(model.params["enc1.ffn.w2"])
        mask[::2] = 0.0
        model = EncoderModel(cfg, model.params, {"enc1.ffn.w2": mask})
        back = EncoderModel.from_bundle(model.to_bundle(), cfg)
        assert set(back.params) == set(model.params)
        for key in model.params:
            assert np.array_equal(back.params[key], model.params[key])
            assert back.params[key].shape == model.params[key].shape
        assert np.array_equal(back.masks["enc1.ffn.w2"], mask)

    def test_save_load_model(self, tmp_path):
        cfg = small_config()
        model = init_model(cfg, seed=15)
        base = tmp_path / "ckpt"
        save_model(model, base)
        back = load_model(base)
        tokens = rand_tokens(np.random.default_rng(12), cfg)
        assert np.array_equal(model.forward(tokens).logits,
                              back.forward(tokens).logits)

    def test_bundle_groups(self):
        model = init_model(TOY_CONFIG, seed=16)
        group_of = {name: group for name, group, _ in model.to_bundle()}
        assert group_of["tok_embed"] == "embedding"
        assert group_of["enc0.attn.wq"] == "encoder"
        assert group_of["cls.w"] == "classifier"

    def test_to_bundle_holds_the_models_arrays(self):
        model = slot_kind_model(small_config(), "masked-factored", seed=18)
        for name, _, m in model.to_bundle():
            key = name.removesuffix(".mask")
            held = model.masks[key] if name.endswith(".mask") else \
                model.params[key]
            assert m.ndim == 2 and np.shares_memory(m, held), name

    def test_vector_mask_round_trips(self, tmp_path):
        """A mask on a vector slot is a 1 x n row, like its vector, and
        is read back as the vector's mask."""
        params = init_model(TOY_CONFIG, seed=19).params
        params["cls.b"] = np.array([[0.5, -1.0, 2.0]])
        model = EncoderModel(TOY_CONFIG, params,
                             {"cls.b": np.array([[1, 0, 1]])})
        save_model(model, tmp_path / "v")
        for back in (EncoderModel.from_bundle(model.to_bundle(), TOY_CONFIG),
                     load_model(tmp_path / "v")):
            assert back.masks.keys() == {"cls.b"}
            assert back.masks["cls.b"].tolist() == [[True, False, True]]
            assert back.params["cls.b"].tolist() == [[0.5, 0.0, 2.0]]
            assert back.params.keys() == model.params.keys()


@functools.cache
def fuzz_source():
    """Saved bundle bytes of a small model with a factored slot and masks."""
    cfg = small_config()
    model = init_model(cfg, seed=17)
    params = dict(model.params)
    w = params.pop("enc0.attn.wq")
    pair = factorize_layer(w, rank=2)
    params["enc0.attn.wq.a"], params["enc0.attn.wq.b"] = pair.a, pair.b
    mask = np.ones_like(params["enc1.ffn.w1"])
    mask[:, ::3] = 0.0
    model = EncoderModel(cfg, params, {"enc1.ffn.w1": mask,
                                       "enc0.attn.wq.b": np.eye(8, 2)})
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, os.path.join(tmp, "m"))
        with open(os.path.join(tmp, "m.bundle"), "rb") as fh:
            return fh.read()


@st.composite
def edited_bundles(draw):
    """The source bundle after random byte edits, insertions, deletions
    and an optional truncation; most edits land in the manifest."""
    data = bytearray(fuzz_source())
    header = data.index(b"\nblob ") + 1
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("set", "insert", "delete")))
        limit = header if draw(st.booleans()) else len(data)
        pos = min(draw(st.integers(0, limit)), len(data))
        byte = draw(st.one_of(st.sampled_from(b" \n.-0123456789abe"),
                              st.integers(0, 255)))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data) and op == "set":
            data[pos] = byte
        elif pos < len(data):
            del data[pos]
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


class TestBundleFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edited_bundles())
    def test_edited_bytes_load_or_raise_format_errors(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "m")
            save_config(small_config(), base + ".config")
            with open(base + ".bundle", "wb") as fh:
                fh.write(data)
            try:
                load_model(base)
            except (BundleFormatError, InputError):
                pass


class TestAdam:
    def test_bad_learning_rate(self):
        with pytest.raises(RangeError):
            Adam(lr=-1e-3)

    def test_zero_learning_rate_is_a_no_op(self):
        cfg = small_config()
        model = init_model(cfg, seed=18)
        before = {k: v.copy() for k, v in model.params.items()}
        opt = Adam(lr=0.0)
        opt.step(model, {k: np.ones_like(v) for k, v in model.params.items()})
        for key in before:
            assert np.array_equal(model.params[key], before[key])

    def test_step_moves_and_mask_freezes(self):
        cfg = small_config()
        model = init_model(cfg, seed=17)
        mask = np.zeros_like(model.params["enc0.attn.wq"])
        mask[0, :] = 1.0
        model = EncoderModel(cfg, model.params, {"enc0.attn.wq": mask})
        before = model.params["enc0.attn.wq"].copy()
        opt = Adam(lr=1e-3)
        for _ in range(3):
            grads = {k: np.ones_like(v) * (model.masks[k] if k in model.masks else 1.0)
                     for k, v in model.params.items()}
            opt.step(model, grads)
        after = model.params["enc0.attn.wq"]
        assert np.all(after[mask == 0] == 0.0)
        assert np.all(after[0, :] != before[0, :])

    def test_init_determinism(self):
        a = init_model(TOY_CONFIG, seed=5)
        b = init_model(TOY_CONFIG, seed=5)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])


def resident_bytes(model):
    return (sum(v.nbytes for v in model.params.values())
            + sum(m.nbytes for m in model.masks.values()))


WIDE_CONFIG = ModelConfig(vocab_size=64, embed_dim=256, num_layers=2,
                          num_heads=4, ffn_dim=1024, max_seq_len=16,
                          num_classes=3)


@functools.cache
def wide_student():
    """The width-256 P=0.4 allocation as a model, without SVD: every
    slot has the kind, rank and mask count the planner chose, random
    values and keep_largest masks."""
    shapes = WIDE_CONFIG.shapes()
    alloc = allocate(shapes, solve_budget(shapes, 0.4, p_embd=0.55,
                                          p_svd=0.45))
    dense = init_model(WIDE_CONFIG, seed=20).params
    rng = np.random.default_rng(20)
    params, masks = {}, {}

    def put(key, shape, ones):
        params[key], mask = keep_largest(rng.normal(0.0, 0.05, shape), ones)
        if mask is not None:
            masks[key] = mask

    for e in alloc.entries:
        if e.kind == "dense":
            params[e.name] = dense[e.name]
        elif e.kind == "masked":
            put(e.name, (e.rows, e.cols), e.ones)
        else:
            put(f"{e.name}.a", (e.rows, e.rank), e.ones_a)
            put(f"{e.name}.b", (e.cols, e.rank), e.ones_b)
    return EncoderModel(WIDE_CONFIG, params, masks)


class TestWeightsHeldOnce:
    """tracemalloc peaks at width 256: loading holds the file once plus
    the model, saving converts one entry at a time, copy() copies each
    array once, and init_model and compress_model hand the model the
    arrays they make instead of having it copy them."""

    def test_load_holds_the_file_and_the_model(self, tmp_path):
        base = tmp_path / "student"
        save_model(wide_student(), base)
        file_bytes = os.path.getsize(f"{base}.bundle")
        peak, model = traced_peak(lambda: load_model(base))
        assert model.masks and model.slots == wide_student().slots
        assert peak <= 1.1 * (file_bytes + resident_bytes(model))

    def test_save_converts_one_entry_at_a_time(self, tmp_path):
        model = wide_student()
        largest = 8 * max(m.size for _, _, m in model.to_bundle())
        peak, _ = traced_peak(lambda: save_model(model, tmp_path / "s"))
        # the largest entry's float64 copy, and a tenth more for the
        # manifest text
        assert peak <= 1.1 * largest

    def test_init_makes_each_array_once(self):
        peak, model = traced_peak(lambda: init_model(WIDE_CONFIG, seed=21))
        # 1.00x; 2.0x when the constructor copied the new arrays
        assert peak <= 1.1 * resident_bytes(model)

    def test_recompression_makes_each_array_once(self):
        """Every factored slot of the P=0.4 student goes through
        svd_product at P=0.3.  Peak 10.0 MB for a 6.5 MB student (1.55x);
        14.1 MB (2.17x) when the constructor copied every array."""
        source = wide_student()
        plan = solve_budget(WIDE_CONFIG.shapes(), 0.3, p_embd=0.55,
                            p_svd=0.45)
        peak, (student, _) = traced_peak(lambda: compress_model(source, plan))
        assert ([s.name for s in student.slots.values() if s.rank]
                == [s.name for s in source.slots.values() if s.rank])
        assert peak <= 1.8 * resident_bytes(student)
        assert not shares_any(student, source)

    @pytest.mark.parametrize("kind", ["teacher", "student"])
    def test_copy_copies_once(self, kind):
        model = (init_model(WIDE_CONFIG, seed=21) if kind == "teacher"
                 else wide_student())
        peak, twin = traced_peak(model.copy)
        assert peak <= 1.1 * resident_bytes(model)
        for key, value in model.params.items():
            assert twin.params[key].tobytes() == value.tobytes()
            assert not np.shares_memory(twin.params[key], value)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt's thresholds are glibc's")
def test_evaluate_reuses_freed_memory():
    """Importing the model fixes glibc's mmap and trim thresholds, so a
    warm evaluate takes its activations from memory the last one freed.
    With glibc's dynamic thresholds a toy evaluate takes ~3,000-4,300
    minor page faults per call."""
    assert KEEPS_FREED_MEMORY
    task = generate_task(TaskConfig(seed=11))
    model = init_model(TOY_CONFIG, seed=11)
    for _ in range(3):
        evaluate(model, task.tokens_val, task.labels_val)
    calls = 20
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        evaluate(model, task.tokens_val, task.labels_val)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 100


class TestMaskContract:
    """Masks live in memory as bool arrays, whatever form they came in:
    bool, float 0/1, or a bundle's float64 entries."""

    @staticmethod
    def variants(model, tmp_path):
        cfg = model.config
        base = tmp_path / "m"
        save_model(model, base)
        return {
            "bool": EncoderModel(cfg, model.params,
                                 {k: m.astype(bool)
                                  for k, m in model.masks.items()}),
            "float": EncoderModel(cfg, model.params,
                                  {k: m.astype(np.float64)
                                   for k, m in model.masks.items()}),
            "bundle": load_model(base),
        }

    @pytest.mark.parametrize("kind", SLOT_KINDS)
    def test_mask_forms_train_alike(self, tmp_path, kind):
        """Equal params and bool masks, then byte-identical forward
        traces, gradients and three Adam steps; masked entries stay
        exactly zero throughout."""
        cfg = small_config()
        source = slot_kind_model(cfg, kind, seed=40)
        models = self.variants(source, tmp_path)
        tokens = rand_tokens(np.random.default_rng(41), cfg, batch=4)
        _, inj = trace_functional(source, tokens, seed=42)
        for name, model in models.items():
            assert model.masks.keys() == source.masks.keys(), name
            for key, mask in model.masks.items():
                assert mask.dtype == np.bool_, (name, key)
                assert mask.tobytes() == source.masks[key].tobytes()
                # the bits of a 1.0 / 0.0 multiply
                assert (model.params[key].tobytes()
                        == (source.params[key]
                            * mask.astype(np.float64)).tobytes())
        optimizers = {name: Adam(lr=1e-2) for name in models}
        for step in range(4):
            seen = {}
            for name, model in models.items():
                trace, cache = model.forward(tokens, with_cache=True)
                grads = model.backward(cache, inj)
                seen[name] = (trace_bytes(trace),
                              {k: g.tobytes() for k, g in grads.items()},
                              {k: p.tobytes()
                               for k, p in model.params.items()})
                for key, mask in model.masks.items():
                    assert np.all(model.params[key][~mask] == 0.0)
                    assert np.all(grads[key][~mask] == 0.0)
                if step < 3:
                    optimizers[name].step(model, grads)
            assert seen["bool"] == seen["float"] == seen["bundle"], step

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, 1.0 + 1e-12])
    def test_non_binary_numeric_mask_rejected(self, value):
        cfg = small_config()
        model = init_model(cfg, seed=43)
        mask = np.ones_like(model.params["enc0.ffn.w1"])
        mask[1, 2] = value
        with pytest.raises(InputError, match="not binary"):
            EncoderModel(cfg, model.params, {"enc0.ffn.w1": mask})

    def test_copy_keeps_bool_masks_unaliased(self):
        model = slot_kind_model(small_config(), "masked", seed=44)
        twin = model.copy()
        for key, mask in model.masks.items():
            assert twin.masks[key].dtype == np.bool_
            assert twin.masks[key] is not mask
            assert np.array_equal(twin.masks[key], mask)

    @pytest.mark.parametrize("kind", SLOT_KINDS)
    def test_compressed_student_shares_nothing(self, kind):
        """The student adopts the arrays compression makes, but a slot
        kept whole comes back from keep_largest as the source's own
        array (or a view of it), so compress_model copies those."""
        cfg = small_config()
        source = slot_kind_model(cfg, kind, seed=46)
        for p_embd, p_svd in ((0.55, 0.45), (1.0, 0.45), (0.55, 1.0)):
            plan = solve_budget(cfg.shapes(), 0.4, p_embd=p_embd, p_svd=p_svd)
            student = one_shot_compress(source, plan)
            assert not shares_any(student, source), (p_embd, p_svd)

    def test_compressed_student_holds_about_half_the_bytes(self):
        """A toy P=0.4 student's params plus masks take at most 0.55 of
        its teacher's bytes (0.51 with bool masks, 0.82 with float64)."""
        teacher = init_model(TOY_CONFIG, seed=45)
        plan = solve_budget(TOY_CONFIG.shapes(), 0.4, p_embd=0.55,
                            p_svd=0.45)
        student = one_shot_compress(teacher, plan)
        assert student.masks
        assert resident_bytes(student) <= 0.55 * resident_bytes(teacher)


SOURCE = Path(__file__).resolve().parents[1] / "src" / "slimformer"
# a key suffix spelled out: a dot that no identifier character precedes
# (so whole names such as "cls.b" do not count), then a suffix word
KEY_SUFFIX = re.compile(r"(?<!\w)\.(a|b|mask|h)\b")


def source_sites(owner, matches):
    """(inside, outside): "file:line" of each node of the package that
    matches, docstrings skipped, split by whether it lies in the
    function owner, given as "module.py:name"."""
    module, name = owner.split(":")
    inside, outside = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs, owned = set(), set()
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if (isinstance(body, list) and body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                docs.add(id(body[0].value))
            if (path.name == module and isinstance(node, ast.FunctionDef)
                    and node.name == name):
                owned.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) not in docs and matches(node):
                site = f"{path.name}:{node.lineno}"
                (inside if id(node) in owned else outside).append(site)
    return inside, outside


def test_key_suffixes_are_written_in_one_function():
    """Outside model.array_name, no string in the package spells out the
    factored halves' ".a"/".b", the mask entries' ".mask" or a ".h"
    cache key; docstrings do not count."""
    inside, outside = source_sites("model.py:array_name", lambda node: (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and KEY_SUFFIX.search(node.value)))
    assert not outside
    assert inside  # the walk does see the naming function's own suffix


def is_fraction_check(node):
    """A comparison 0 < x <= 1, the (0, 1] fraction rule."""
    return (isinstance(node, ast.Compare)
            and [type(op) for op in node.ops] == [ast.Lt, ast.LtE]
            and isinstance(node.left, ast.Constant) and node.left.value == 0
            and isinstance(node.comparators[1], ast.Constant)
            and node.comparators[1].value == 1)


def test_fraction_rule_is_written_in_one_function():
    """Outside errors.check_fraction, no comparison in the package spells
    out the (0, 1] fraction rule 0 < x <= 1."""
    inside, outside = source_sites("errors.py:check_fraction",
                                   is_fraction_check)
    assert not outside
    assert len(inside) == 1


def test_import_loads_no_scipy():
    """The library runs on numpy alone: importing it in a fresh
    interpreter loads no scipy module (scipy.special alone added 24 MB
    to the process's resident set)."""
    code = ("import sys, slimformer\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
