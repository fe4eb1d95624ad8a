"""A small transformer encoder classifier with hand-derived gradients.

The model doubles as distillation teacher and student.  Each weight slot
has a Slot record, built with the model: dense, masked (pruned, zeros
frozen), factored (a low-rank pair) or masked-factored.  Only array_name
writes key suffixes.  Factored slots run as (x @ A) @ B.T in both passes
and are never densified; masked slots still run dense products.  At the 40% plan the student computes 0.52
of the teacher's forward multiply-adds at toy width and 0.46 at width
256 (perfbench/madds.md), yet at toy width its forward is no faster
(8.1 ms against the teacher's 7.4 ms on 256x16 tokens, two CPUs and
one BLAS thread each).

Parameters are plain writable float64 arrays owned by the model, and
masks are bool arrays (prune's mask type), an eighth of a float64
array's bytes: a P=0.4 student holds about half its teacher's bytes.
Their structure (which keys form which slot, shapes, binary masks) is
checked when a model is built; their values (finite entries) are checked
at the file boundary, by tensor.save_bundle and tensor.load_bundle.  A
bundle is the model's own arrays as (name, group, matrix) entries, with
vectors and their masks as 1 x n views; the file stores masks as
float64 ones and zeros, converted by save_bundle and the constructor.

forward exposes a trace at the four supervision points (embedding
output, per-layer attention maps, per-layer hidden states, logits).  It
runs each layer as an attention block and an FFN block; a block's
temporaries die when it returns, and bias adds, residual adds, softmax,
layer norm and GELU work in place in as few buffers as the arithmetic
allows, in the same operation order.  With with_cache=True it also
returns each layer's activations that backward needs.  Otherwise, once
b * n * ffn exceeds FORWARD_BLOCK, it cuts the batch into blocks of
whole sequences, FORWARD_BLOCK / WORKERS entries each (pooled_rows),
and runs them through run_on_workers into preallocated full-batch trace
arrays, byte-identical to one full-batch pass.  It holds the trace plus
at most WORKERS blocks, so its peak beyond the trace is the GELU of one
FORWARD_BLOCK (input, output and one temporary, each rows x n x ffn).
backward accepts upstream gradients injected at any subset of those
points and returns exact gradients for every parameter, with masked
positions receiving exactly zero.

gelu_erf (GELU's erf term, for both forwards and gelu_grad) runs erf on
|x / sqrt 2| and copies x's sign back: no sign branch in SciPy's erf to
mispredict on mixed-sign input, and the same bytes, since erf is odd and
SciPy computes erf(-x) as -erf(x).  7.2 -> 3.8 ns per element on U(-1,1).

run_on_workers runs independent jobs on WORKERS threads, the number of
CPUs the process may run on: the caller and helpers from a pool made
for the call and closed before it returns.  Its two users are the
blocked forward (one job per block) and tasks.evaluate (one unblocked
forward per chunk of pooled_rows sequences), where the threads halve
the wall time on two CPUs.

Importing slimformer changes one thing in the process: under glibc it
calls mallopt once to fix malloc's mmap threshold at 32 MiB and its trim
threshold at 1 GiB, so memory freed by one forward stays in the process
for the next instead of going back to the kernel and faulting in again.
With glibc's default, adaptive thresholds a toy evaluate takes
~3,000-4,300 minor page faults per call and a toy compress-and-distill
run spends 0.7-1.5 s of its ~10 s in the kernel; with the fixed ones,
under 10 faults per call and ~0.2 s.  The process may keep up to the
largest heap it has used so far; nothing is computed differently.
Without glibc (macOS, Windows, musl) nothing changes.
"""

import contextvars
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import erf

from .budget import transformer_shapes
from .errors import InputError, NonFiniteError, RangeError
from .tensor import load_bundle, load_record, save_bundle, save_record

LN_EPS = 1e-5
INIT_STD = 0.05
# a no-cache forward whose b * n * ffn exceeds this many float64 entries
# (1 MiB of FFN activation) runs its layers over blocks of whole
# sequences, all blocks alive at once at most this size
FORWARD_BLOCK = 2 ** 17
# threads run_on_workers runs jobs on: the CPUs this process may use
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

# glibc hands freed blocks back to the kernel: it unmaps those above its
# mmap threshold and trims the heap top above its trim threshold, and the
# next forward faults the same pages back in: 4-6e5 minor page faults
# per toy pipeline.  Fixing both thresholds (fixing either one turns off
# glibc's dynamic adjustment of both) keeps freed memory in the process:
# ~1e3 faults per toy pipeline.  32 MiB is glibc's 64-bit
# maximum mmap threshold, above the largest activation any workload
# makes (8.4 MB for a width-256, batch-256 hidden state).  Per-thread
# workspaces written through out= in every kernel would do the same
# with far more code.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h
MMAP_THRESHOLD = 32 * 2 ** 20
TRIM_THRESHOLD = 2 ** 30


def _keep_freed_memory():
    """Fix glibc's mmap and trim thresholds; True when both calls succeed,
    False without glibc, where nothing is called."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr or no name
        libc = ""
    if not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: a trim threshold fixed alone would also
    # freeze the mmap threshold at its 128 KiB start
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


# whether the thresholds above are in force in this process
KEEPS_FREED_MEMORY = _keep_freed_memory()


def run_on_workers(job, items):
    """[job(item) for item in items], run side by side on WORKERS threads.

    The calling thread and min(WORKERS, len(items)) - 1 helper threads,
    from a pool that lives for this call only, take items in order from
    one shared iterator; numpy releases the interpreter lock inside its
    kernels, so jobs over arrays overlap.  Results come back in item
    order, and every job sees the caller's numpy error state.  Once a
    job raises, no thread takes another item; when every thread has
    stopped, the exception of the earliest item that raised is raised
    here, the one a serial loop would have raised.
    """
    items = list(items)
    results = [None] * len(items)
    raised = {}
    order = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if raised else next(order, None)
            if i is None:
                return
            try:
                results[i] = job(items[i])
            except Exception as exc:
                with lock:
                    raised[i] = exc

    helpers = min(WORKERS, len(items)) - 1
    # the pool starts threads only for submitted tasks: none for 0 helpers
    with ThreadPoolExecutor(max_workers=max(1, helpers)) as pool:
        # each helper runs in a copy of the caller's context, so the
        # caller's np.errstate holds in every thread
        futures = [pool.submit(contextvars.copy_context().run, work)
                   for _ in range(helpers)]
        work()
    for future in futures:
        future.result()
    if raised:
        raise raised[min(raised)]
    return results


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int
    num_layers: int
    num_heads: int
    ffn_dim: int
    max_seq_len: int
    num_classes: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise RangeError(f"{f.name} must be positive")
        if self.embed_dim % self.num_heads != 0:
            raise RangeError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )

    @property
    def head_dim(self):
        return self.embed_dim // self.num_heads

    def shapes(self):
        return transformer_shapes(self.vocab_size, self.embed_dim,
                                  self.num_layers, self.ffn_dim,
                                  self.max_seq_len, self.num_classes)


TOY_CONFIG = ModelConfig(vocab_size=64, embed_dim=32, num_layers=2,
                         num_heads=4, ffn_dim=64, max_seq_len=16,
                         num_classes=3)


def truncated_config_for_budget(config, target_count):
    """Smaller architecture of the same family whose parameter count
    best matches the target; the pure-distillation baseline student.

    It has one attention head: the parameter count does not depend on
    the head count, so every width from 1 up is a candidate.  Ties keep
    the narrowest width and then the smallest ffn width.
    """

    def count(d, f):
        return replace(config, embed_dim=d, num_heads=1,
                       ffn_dim=f).shapes().group_total()

    best = None
    for d in range(1, config.embed_dim + 1):
        # the count is monotone in the ffn width; bisect to the target
        lo, hi = 1, config.ffn_dim
        while lo < hi:
            mid = (lo + hi) // 2
            if count(d, mid) < target_count:
                lo = mid + 1
            else:
                hi = mid
        for f in (lo - 1, lo, lo + 1):
            if not 1 <= f <= config.ffn_dim:
                continue
            gap = abs(count(d, f) - target_count)
            if best is None or gap < best[0]:
                best = (gap, d, f)
    _, d, f = best
    return replace(config, embed_dim=d, num_heads=1, ffn_dim=f)


def save_config(config, path):
    save_record(config, path)


def load_config(path):
    return load_record(path, ModelConfig)


@dataclass(frozen=True)
class ForwardTrace:
    """Activations at the four supervision points, batch-first."""

    embedding_out: np.ndarray          # (b, n, d)
    attention: tuple                   # per layer: (b, heads, n, n)
    hidden: tuple                      # per layer: (b, n, d)
    logits: np.ndarray                 # (b, num_classes)


@dataclass
class GradInjections:
    """Upstream gradients to feed into backward; None means zero."""

    embedding: np.ndarray = None
    attention: tuple = None            # per layer or None entries
    hidden: tuple = None
    logits: np.ndarray = None


def gelu_erf(x):
    """erf(x / sqrt 2), the term gelu and gelu_grad share."""
    e = x / math.sqrt(2.0)
    np.abs(e, out=e)
    erf(e, out=e)
    np.copysign(e, x, out=e)
    return e


def gelu(x, e=None):
    """0.5 * x * (1 + erf(x / sqrt 2)) in one output buffer: erf's own,
    or a new one when e = gelu_erf(x) is given (and kept intact)."""
    if e is None:
        y = gelu_erf(x)
        y += 1.0
    else:
        y = e + 1.0
    y *= 0.5 * x
    return y


def gelu_grad(x, e):
    """d gelu(x) / dx, with e = gelu_erf(x) from the forward pass."""
    cdf = 0.5 * (1.0 + e)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def softmax(x):
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _ln_forward(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    # the variance as x.var computes it, squaring in the output buffer
    y = np.square(xhat)
    var = y.sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv_std)


def _ln_backward(dy, gamma, cache):
    xhat, inv_std = cache
    dgamma = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dbeta = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gamma
    dx = inv_std * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def array_name(base, half=None, mask=False):
    """The one place key suffixes are written: slot `base`'s params key,
    or that of its factored half "a" (m x r) or "b" (n x r); with
    mask=True, the bundle entry name of that key's mask.  A key passed
    as `base` names its own mask."""
    key = base if half is None else f"{base}.{half}"
    return f"{key}.mask" if mask else key


@dataclass(frozen=True)
class Slot:
    """One weight slot as a model holds it."""

    name: str
    group: str
    kind: str         # dense, masked, factored or masked-factored
    keys: tuple       # params keys: (name,), or the factored halves (a, b)
    mask_keys: tuple  # those of keys that carry a mask
    rank: int         # the halves' inner dimension; None unless factored
    shape: tuple      # the weight's natural shape, (size,) for vectors


class EncoderModel:
    """Mutable parameter store plus forward/backward for one config.

    params maps array keys to C-contiguous float64 ndarrays (copies of
    the arrays passed in, so the model never aliases its caller): a
    weight slot is either its name as one key (natural shape; vectors
    are 1-D) or the two keys array_name gives its factored halves.
    masks maps a subset of those keys to bool arrays, True where the
    entry is kept; masked entries are zero and frozen.  The constructor
    takes masks as bool arrays or as numeric arrays of zeros and ones
    (bundle files hold float64 masks) and stores mask == 1.  slots maps
    each slot name, in shape-table order, to its Slot record, built
    here from the shape table, params and masks; neither the records
    nor the sets of keys change afterwards.  Construction raises
    InputError for any params/masks that do not fit that layout.
    """

    def __init__(self, config, params, masks=None):
        self.config = config
        self.params = {k: np.array(v, dtype=np.float64, order="C")
                       for k, v in params.items()}
        masks = masks or {}
        self.slots = {e.name: self._slot(e, masks) for e in config.shapes()}
        claimed = {key for s in self.slots.values() for key in s.keys}
        unclaimed = sorted(set(self.params) - claimed)
        if unclaimed:
            raise InputError(f"parameters {unclaimed} belong to no slot")
        self.masks = {}
        for key, mask in masks.items():
            mask = np.asarray(mask)
            if key not in self.params:
                raise InputError(f"mask for unknown parameter {key!r}")
            if mask.shape != self.params[key].shape:
                raise InputError(f"mask shape mismatch for {key!r}")
            if not np.all((mask == 0) | (mask == 1)):
                raise InputError(f"mask for {key!r} is not binary")
            # a new array, so the model never aliases its caller's mask
            self.masks[key] = mask == 1
            # the same bits as multiplying by 1.0 / 0.0, on the model's
            # own copy
            self.params[key] *= self.masks[key]

    def _slot(self, e, masks):
        """The Slot record of one shape entry, its arrays' shapes checked."""
        ka, kb = array_name(e.name, "a"), array_name(e.name, "b")
        shape = (e.size,) if e.is_vector else (e.rows, e.cols)
        if ka in self.params or kb in self.params:
            if e.name in self.params:
                raise InputError(f"slot {e.name!r} is both dense and factored")
            if ka not in self.params or kb not in self.params:
                raise InputError(f"factored slot {e.name!r} is missing a half")
            # forward runs the factored form for embeddings and encoder
            # matrices only
            if e.is_vector or e.group == "classifier":
                raise InputError(f"slot {e.name!r} cannot be factored")
            sa, sb = self.params[ka].shape, self.params[kb].shape
            if (len(sa) != 2 or len(sb) != 2 or sa[1] != sb[1] or sa[1] < 1
                    or (sa[0], sb[0]) != (e.rows, e.cols)):
                raise InputError(
                    f"factored slot {e.name!r} has halves {sa} and {sb}, "
                    f"expected ({e.rows}, r) and ({e.cols}, r)")
            keys, rank, kind = (ka, kb), sa[1], "factored"
        elif e.name not in self.params:
            raise InputError(f"no parameters for slot {e.name!r}")
        elif self.params[e.name].shape != shape:
            raise InputError(f"slot {e.name!r} has shape "
                             f"{self.params[e.name].shape}, expected {shape}")
        else:
            keys, rank, kind = (e.name,), None, "dense"
        masked = tuple(key for key in keys if key in masks)
        if masked:
            kind = "masked-factored" if rank else "masked"
        return Slot(e.name, e.group, kind, keys, masked, rank, shape)

    def copy(self):
        # the constructor copies every array once
        return EncoderModel(self.config, self.params, self.masks)

    def retained_count(self):
        """Live parameter count: mask ones where masked, sizes elsewhere."""
        return sum(self.retained_by_group().values())

    def retained_by_group(self):
        """Live parameter count per bundle group."""
        counts = dict.fromkeys(("embedding", "encoder", "classifier"), 0)
        for s in self.slots.values():
            for key in s.keys:
                counts[s.group] += (int(self.masks[key].sum())
                                    if key in s.mask_keys
                                    else self.params[key].size)
        return counts

    def effective_weight(self, slot):
        """The slot's weight as one array: A @ B.T for factored slots.

        Densifying here is fine: this is for compression and analysis
        steps, not the compute path.
        """
        return self._rows(slot, slice(None))

    # ---- bundle conversion -------------------------------------------

    def to_bundle(self):
        """(name, group, matrix) entries of the model's own arrays, no
        copies: each key, then its mask under array_name(key, mask=True);
        vectors and their masks are 1 x n views."""
        entries = []
        for s in self.slots.values():
            for key in s.keys:
                entries.append((key, s.group, np.atleast_2d(self.params[key])))
                if key in s.mask_keys:
                    entries.append((array_name(key, mask=True), s.group,
                                    np.atleast_2d(self.masks[key])))
        return entries

    @classmethod
    def from_bundle(cls, entries, config):
        """The model (name, group, matrix) entries hold for config; the
        constructor makes the one writable copy, and each entry, masks
        included, must carry its slot's group.  The shape table grows
        with num_layers, so that is checked against the encoder layers
        the entries name before the table is built: a corrupt config
        raises InputError instead of exhausting memory."""
        layers = len({name.split(".", 1)[0] for name, _, _ in entries
                      if name.startswith("enc")})
        if layers != config.num_layers:
            raise InputError(f"config key 'num_layers' is "
                             f"{config.num_layers}, but the bundle holds "
                             f"{layers} encoder layers")
        vector_slots = {e.name for e in config.shapes() if e.is_vector}
        # an entry named as the mask of another entry's key is that mask
        mask_of = {array_name(name, mask=True): name for name, _, _ in entries}
        params = {}
        masks = {}
        for name, _, arr in entries:
            key = mask_of.get(name, name)
            if key in vector_slots:
                arr = arr.reshape(-1)
            (masks if name in mask_of else params)[key] = arr
        model = cls(config, params, masks)
        group_of = {key: s.group for s in model.slots.values()
                    for key in s.keys}
        for name, group, _ in entries:
            slot_group = group_of[mask_of.get(name, name)]
            if group != slot_group:
                raise InputError(f"entry {name!r} is tagged {group!r}, but "
                                 f"its slot is in group {slot_group!r}")
        return model

    # ---- forward ------------------------------------------------------

    def _check_tokens(self, tokens):
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.ndim != 2:
            raise InputError(f"tokens must be 1-D or 2-D, got {tokens.ndim}-D")
        if not np.issubdtype(tokens.dtype, np.integer):
            raise InputError("tokens must be integers")
        if tokens.shape[0] < 1:
            raise InputError("the batch holds no sequences")
        if tokens.shape[1] < 1 or tokens.shape[1] > self.config.max_seq_len:
            raise InputError(
                f"sequence length {tokens.shape[1]} outside "
                f"[1, {self.config.max_seq_len}]"
            )
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise InputError("token id outside the vocabulary")
        return tokens

    def _rows(self, slot, rows):
        """Rows of the slot's weight: A[rows] @ B.T when factored."""
        s = self.slots[slot]
        if s.rank:
            return self.params[s.keys[0]][rows] @ self.params[s.keys[1]].T
        return self.params[slot][rows]

    def _embed(self, tokens):
        pos = self._rows("pos_embed", slice(tokens.shape[1]))
        return self._rows("tok_embed", tokens) + pos[None, :, :]

    def _split_heads(self, x):
        b, n, d = x.shape
        h = self.config.num_heads
        return x.reshape(b, n, h, d // h).transpose(0, 2, 1, 3)

    def _merge_heads(self, x):
        b, h, n, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)

    def _slot_forward(self, slot, x, cache):
        s = self.slots[slot]
        if s.rank:
            hidden = x @ self.params[s.keys[0]]
            cache[slot] = hidden  # x @ A, under the slot's name
            return hidden @ self.params[s.keys[1]].T
        return x @ self.params[slot]

    def _slot_backward(self, slot, x, dy, cache, grads):
        s = self.slots[slot]
        if s.rank:
            ka, kb = s.keys
            hidden = cache[slot]
            dh = dy @ self.params[kb]
            grads[kb] += _flat(dy).T @ _flat(hidden)
            grads[ka] += _flat(x).T @ _flat(dh)
            return dh @ self.params[ka].T
        grads[slot] += _flat(x).T @ _flat(dy)
        return dy @ self.params[slot].T

    def _attention_block(self, p, x, lc):
        """Self-attention sublayer of layer p: (ln1 output, attention map).

        lc receives what backward needs; every other temporary dies on
        return.
        """
        q = self._slot_forward(f"{p}.attn.wq", x, lc)
        q += self.params[f"{p}.attn.bq"]
        k = self._slot_forward(f"{p}.attn.wk", x, lc)
        k += self.params[f"{p}.attn.bk"]
        v = self._slot_forward(f"{p}.attn.wv", x, lc)
        v += self.params[f"{p}.attn.bv"]
        qh, kh, vh = (self._split_heads(t) for t in (q, k, v))
        scores = qh @ kh.swapaxes(-1, -2)
        scores *= 1.0 / math.sqrt(self.config.head_dim)
        probs = softmax(scores)
        ctx = self._merge_heads(probs @ vh)
        u = self._slot_forward(f"{p}.attn.wo", ctx, lc)
        u += self.params[f"{p}.attn.bo"]
        u += x
        x1, ln1_cache = _ln_forward(u, self.params[f"{p}.ln1.gamma"],
                                    self.params[f"{p}.ln1.beta"])
        lc.update(x_in=x, qh=qh, kh=kh, vh=vh, probs=probs, ctx=ctx,
                  ln1=ln1_cache, x1=x1)
        return x1, probs

    def _ffn_block(self, p, x1, lc, with_cache):
        """Feed-forward sublayer of layer p: its ln2 output.

        With the cache, lc also keeps GELU's erf term for gelu_grad.
        """
        f_pre = self._slot_forward(f"{p}.ffn.w1", x1, lc)
        f_pre += self.params[f"{p}.ffn.b1"]
        if with_cache:
            lc["f_erf"] = gelu_erf(f_pre)
            f_act = gelu(f_pre, lc["f_erf"])
        else:
            f_act = gelu(f_pre)
        g = self._slot_forward(f"{p}.ffn.w2", f_act, lc)
        g += self.params[f"{p}.ffn.b2"]
        g += x1
        x, ln2_cache = _ln_forward(g, self.params[f"{p}.ln2.gamma"],
                                   self.params[f"{p}.ln2.beta"])
        lc.update(f_pre=f_pre, f_act=f_act, ln2=ln2_cache)
        return x

    def _encode(self, tokens, cache, with_cache):
        """Embedding output, attention maps and hidden states of the
        encoder layers over checked tokens."""
        x = self._embed(tokens)
        embedding_out = x
        attention = []
        hidden = []
        for i in range(self.config.num_layers):
            lc = {}
            x1, probs = self._attention_block(f"enc{i}", x, lc)
            if with_cache:
                cache["layers"].append(lc)
            else:
                # the attention block's activations die before the FFN runs
                lc = {}
            x = self._ffn_block(f"enc{i}", x1, lc, with_cache)
            attention.append(probs)
            hidden.append(x)
        return embedding_out, attention, hidden

    def _encode_blocks(self, tokens, step):
        """_encode without a cache over blocks of `step` whole sequences,
        each block's trace written into preallocated full-batch arrays.

        Every operation of a layer works per sequence (the stacked
        matmuls run one product per sequence slice; softmax, layer norm
        and GELU run row by row), so the bytes match one full-batch
        _encode.  The blocks run through run_on_workers; each writes
        disjoint rows, and a block's trace dies when its job returns.
        """
        cfg = self.config
        b, n = tokens.shape
        embedding_out = np.empty((b, n, cfg.embed_dim))
        attention = [np.empty((b, cfg.num_heads, n, n))
                     for _ in range(cfg.num_layers)]
        hidden = [np.empty((b, n, cfg.embed_dim))
                  for _ in range(cfg.num_layers)]
        full = [embedding_out, *attention, *hidden]

        def run_block(start):
            rows = slice(start, start + step)
            emb, att, hid = self._encode(tokens[rows], {}, with_cache=False)
            for dst, src in zip(full, [emb, *att, *hid]):
                dst[rows] = src

        run_on_workers(run_block, range(0, b, step))
        return embedding_out, attention, hidden

    def pooled_rows(self, n):
        """Sequences of length n per block of a pooled no-cache forward:
        WORKERS blocks alive at once stay within one FORWARD_BLOCK, and
        a forward over one block never runs blocked itself."""
        return max(1, FORWARD_BLOCK // (n * self.config.ffn_dim * WORKERS))

    def forward(self, tokens, with_cache=False):
        tokens = self._check_tokens(tokens)
        cache = {"tokens": tokens, "layers": []}
        b, n = tokens.shape
        if with_cache or b <= max(1, FORWARD_BLOCK
                                  // (n * self.config.ffn_dim)):
            embedding_out, attention, hidden = self._encode(tokens, cache,
                                                            with_cache)
        else:
            embedding_out, attention, hidden = self._encode_blocks(
                tokens, self.pooled_rows(n))

        pooled = hidden[-1].mean(axis=1)
        logits = pooled @ self.params["cls.w"]
        logits += self.params["cls.b"]
        if not np.all(np.isfinite(logits)):
            raise NonFiniteError("logits are not finite")
        cache["pooled"] = pooled
        trace = ForwardTrace(embedding_out, tuple(attention),
                             tuple(hidden), logits)
        if with_cache:
            return trace, cache
        return trace

    # ---- backward -----------------------------------------------------

    def backward(self, cache, inj):
        """Exact parameter gradients for the injected upstream gradients."""
        cfg = self.config
        tokens = cache["tokens"]
        b, n = tokens.shape
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        scale = 1.0 / math.sqrt(cfg.head_dim)

        dlogits = inj.logits
        if dlogits is None:
            dlogits = np.zeros((b, cfg.num_classes))
        dpooled = dlogits @ self.params["cls.w"].T
        grads["cls.w"] += cache["pooled"].T @ dlogits
        grads["cls.b"] += dlogits.sum(axis=0)
        dx = np.repeat(dpooled[:, None, :], n, axis=1) / n

        for i in reversed(range(cfg.num_layers)):
            p = f"enc{i}"
            lc = cache["layers"][i]
            if inj.hidden is not None and inj.hidden[i] is not None:
                dx = dx + inj.hidden[i]
            dw, dg2, dbe2 = _ln_backward(dx, self.params[f"{p}.ln2.gamma"],
                                         lc["ln2"])
            grads[f"{p}.ln2.gamma"] += dg2
            grads[f"{p}.ln2.beta"] += dbe2
            dg = dw
            dx1 = dw.copy()
            df_act = self._slot_backward(f"{p}.ffn.w2", lc["f_act"], dg, lc, grads)
            grads[f"{p}.ffn.b2"] += dg.sum(axis=(0, 1))
            df_pre = df_act * gelu_grad(lc["f_pre"], lc["f_erf"])
            dx1 += self._slot_backward(f"{p}.ffn.w1", lc["x1"], df_pre, lc, grads)
            grads[f"{p}.ffn.b1"] += df_pre.sum(axis=(0, 1))
            du, dg1, dbe1 = _ln_backward(dx1, self.params[f"{p}.ln1.gamma"],
                                         lc["ln1"])
            grads[f"{p}.ln1.gamma"] += dg1
            grads[f"{p}.ln1.beta"] += dbe1
            do = du
            dx = du.copy()
            dctx = self._slot_backward(f"{p}.attn.wo", lc["ctx"], do, lc, grads)
            grads[f"{p}.attn.bo"] += do.sum(axis=(0, 1))
            dctx_h = self._split_heads(dctx)
            probs, vh, qh, kh = lc["probs"], lc["vh"], lc["qh"], lc["kh"]
            dprobs = dctx_h @ vh.swapaxes(-1, -2)
            dvh = probs.swapaxes(-1, -2) @ dctx_h
            if inj.attention is not None and inj.attention[i] is not None:
                dprobs = dprobs + inj.attention[i]
            dscores = (dprobs - np.sum(dprobs * probs, axis=-1,
                                       keepdims=True)) * probs
            dscores *= scale
            dqh = dscores @ kh
            dkh = dscores.swapaxes(-1, -2) @ qh
            dq = self._merge_heads(dqh)
            dk = self._merge_heads(dkh)
            dv = self._merge_heads(dvh)
            x_in = lc["x_in"]
            dx += self._slot_backward(f"{p}.attn.wq", x_in, dq, lc, grads)
            dx += self._slot_backward(f"{p}.attn.wk", x_in, dk, lc, grads)
            dx += self._slot_backward(f"{p}.attn.wv", x_in, dv, lc, grads)
            grads[f"{p}.attn.bq"] += dq.sum(axis=(0, 1))
            grads[f"{p}.attn.bk"] += dk.sum(axis=(0, 1))
            grads[f"{p}.attn.bv"] += dv.sum(axis=(0, 1))

        if inj.embedding is not None:
            dx = dx + inj.embedding
        self._embed_backward(tokens, dx, grads)
        for key, mask in self.masks.items():
            grads[key] *= mask
        return grads

    def _embed_backward(self, tokens, dx, grads):
        for slot, rows, d in (("tok_embed", tokens, dx),
                              ("pos_embed", slice(tokens.shape[1]),
                               dx.sum(axis=0))):
            s = self.slots[slot]
            if s.rank:
                ka, kb = s.keys
                np.add.at(grads[ka], rows, d @ self.params[kb])
                grads[kb] += _flat(d).T @ _flat(self.params[ka][rows])
            else:
                np.add.at(grads[slot], rows, d)


def init_model(config, seed=0):
    """Fresh dense model: normal(0, 0.05) matrices, unit norms, zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for e in config.shapes():
        if e.is_vector:
            size = max(e.rows, e.cols)
            if e.name.endswith(".gamma"):
                params[e.name] = np.ones(size)
            else:
                params[e.name] = np.zeros(size)
        else:
            params[e.name] = rng.normal(0.0, INIT_STD, size=(e.rows, e.cols))
    return EncoderModel(config, params)


def save_model(model, path_base):
    """Checkpoint: <base>.bundle (params and masks) + <base>.config."""
    base = str(path_base)
    save_bundle(model.to_bundle(), base + ".bundle")
    save_config(model.config, base + ".config")


def load_model(path_base):
    base = str(path_base)
    config = load_config(base + ".config")
    entries = load_bundle(base + ".bundle")
    try:
        return EncoderModel.from_bundle(entries, config)
    except InputError as exc:
        raise InputError(f"{base}.bundle does not fit {base}.config: "
                         f"{exc}") from exc


class Adam:
    """Adaptive-moment optimizer with bias correction.

    Only the learning rate is set per instance; the moment decay rates
    and the denominator guard are the usual BETA1, BETA2 and EPS.  Masked
    entries keep gradient zero, so their moments never move; the
    explicit re-mask after each step keeps them bit-exact zeros anyway.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr=2e-5):
        if lr < 0:
            raise RangeError(f"learning rate must be non-negative, got {lr}")
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, model, grads):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        for key, g in grads.items():
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(g)
                self.m[key] = m
                self.v[key] = np.zeros_like(g)
            v = self.v[key]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / correction1) / (np.sqrt(v / correction2) + self.EPS)
            model.params[key] -= self.lr * update
            mask = model.masks.get(key)
            if mask is not None:
                model.params[key] *= mask
