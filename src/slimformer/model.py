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
Each weight is made once.  The constructor copies the arrays a caller
passes (load_model and copy() rely on that one copy); init_model and
pipeline.compress_model hand the arrays they have just made to
EncoderModel._adopt, which keeps them without a copy.
Their structure (which keys form which slot, shapes, binary masks) is
checked when a model is built; their values (finite entries) are checked
at the file boundary, by tensor.save_bundle and tensor.load_bundle.  A
bundle is the model's own arrays as (name, group, matrix) entries; the
file stores masks as float64 ones and zeros, converted by save_bundle
and the constructor.

forward(tokens, with_cache=True) exposes a trace at the four
supervision points (embedding output, per-layer attention maps,
per-layer hidden states, logits), read from the layer caches that keep
each layer's activations backward needs.  It runs each layer as an
attention block and an FFN block; a block's temporaries die when it
returns, and bias adds, residual adds, softmax, layer norm and GELU
work in place in as few buffers as the arithmetic allows, in the same
operation order.  GELU is BERT's tanh form, numpy only; the cached
forward keeps its tanh term for gelu_grad.  The plain forward(tokens),
the inference path, keeps only the logits: it runs chunks of
pooled_rows sequences on every CPU, and beyond one FORWARD_BLOCK of
activations it holds embed_dim floats per sequence.
backward takes upstream gradients at any subset of the supervision
points, as a ForwardTrace, and returns exact gradients for every
parameter, with masked positions receiving exactly zero.

run_on_workers runs independent jobs on WORKERS threads, the number of
CPUs the process may run on: the caller and helpers from a pool made
for the call and closed before it returns, or the caller alone when
one thread suffices.  Its one user is the plain forward (one job per
chunk), so evaluate and serving run on every CPU.  On two CPUs with one
BLAS thread, one worker against two: a toy evaluate of 256 sequences
22-29 -> 16 ms; a width-256, batch-256 forward 690-760 -> 390-420 ms
for the teacher and 420-480 -> 210-250 ms for its P=0.4 student.

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

from .budget import transformer_shapes
from .errors import InputError, NonFiniteError, RangeError
from .tensor import load_bundle, load_record, save_bundle, save_record

LN_EPS = 1e-5
INIT_STD = 0.05
# the chunks of a plain forward alive at once hold at most this many
# float64 FFN entries (1 MiB): b * n * ffn summed over WORKERS chunks
FORWARD_BLOCK = 2 ** 17
# GELU in BERT's tanh form: 0.5 x (1 + tanh(GELU_SCALE (x + GELU_CUBIC x^3)))
GELU_SCALE = math.sqrt(2.0 / math.pi)
GELU_CUBIC = 0.044715
# tanh's argument is computed from x clipped to +-GELU_CLIP, so no finite
# x overflows its cube; the term is exactly +-1.0 from |x| ~ 7.19 already
GELU_CLIP = 10.0
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
    from a pool that lives for this call only (none without helpers),
    take items in order from one shared iterator; numpy releases the
    interpreter lock inside its kernels, so jobs over arrays overlap.
    Results come back in item order, and every job sees the caller's
    numpy error state.  Once a job raises, no thread takes another
    item; when every thread has stopped, the exception of the earliest
    item that raised is raised here, the one a serial loop would have
    raised.
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
    if helpers < 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=helpers) as pool:
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
    the head count, so every width from 1 up is a candidate.  At width
    d the count is linear in the ffn width f, with slope num_layers *
    (2 * d + 1) (w1, b1 and w2 of every layer), so the smallest f that
    reaches the target is computed, clipped to [1, ffn_dim], and it and
    its two neighbours are scored.  Ties keep the narrowest width and
    then the smallest ffn width.
    """
    best = None
    for d in range(1, config.embed_dim + 1):
        base = replace(config, embed_dim=d, num_heads=1,
                       ffn_dim=1).shapes().group_total()
        slope = config.num_layers * (2 * d + 1)
        # the smallest f with base + slope * (f - 1) >= target_count
        reach = min(max(1 - (base - target_count) // slope, 1), config.ffn_dim)
        for f in (reach - 1, reach, reach + 1):
            if not 1 <= f <= config.ffn_dim:
                continue
            gap = abs(base + slope * (f - 1) - target_count)
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
    """Arrays at the four supervision points, batch-first: a forward's
    activations, or the upstream gradients backward takes at them.  None
    is a field a plain forward does not fill (it fills only logits), or
    a zero gradient; a given attention or hidden has every layer."""

    embedding_out: np.ndarray = None   # (b, n, d)
    attention: tuple = None            # per layer: (b, heads, n, n)
    hidden: tuple = None               # per layer: (b, n, d)
    logits: np.ndarray = None          # (b, num_classes)


def gelu_tanh(x):
    """tanh(sqrt(2 / pi) * (z + 0.044715 * z ** 3)) for z = x clipped to
    +-GELU_CLIP, the term gelu and gelu_grad share; underflow in the cube
    of a tiny z is not reported."""
    z = np.clip(x, -GELU_CLIP, GELU_CLIP)
    with np.errstate(under="ignore"):
        t = GELU_CUBIC * z
        t *= z
        t *= z
        t += z
        t *= GELU_SCALE
        np.tanh(t, out=t)
    return t


def gelu(x, t=None):
    """0.5 * x * (1 + tanh(...)) in one output buffer: the term's own,
    or a new one when t = gelu_tanh(x) is given (and kept intact)."""
    if t is None:
        y = gelu_tanh(x)
        y += 1.0
    else:
        y = t + 1.0
    with np.errstate(under="ignore"):
        y *= 0.5 * x
    return y


def gelu_grad(x, t):
    """d gelu(x) / dx, with t = gelu_tanh(x) from the forward pass:
    0.5 * (1 + t) + 0.5 * z * (1 - t * t) * GELU_SCALE * (1 + 3 *
    GELU_CUBIC * z * z), z clipped as in gelu_tanh (beyond the clip t is
    exactly +-1 and the second term is zero)."""
    z = np.clip(x, -GELU_CLIP, GELU_CLIP)
    with np.errstate(under="ignore"):
        # z becomes the second term, g the first
        slope = (3.0 * GELU_CUBIC) * z
        slope *= z
        slope += 1.0
        z *= 0.5
        g = np.multiply(t, t)
        np.subtract(1.0, g, out=g)
        z *= g
        z *= GELU_SCALE
        z *= slope
        np.add(t, 1.0, out=g)
        g *= 0.5
        z += g
    return z


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


class EncoderModel:
    """Mutable parameter store plus forward/backward for one config.

    params maps array keys to C-contiguous float64 ndarrays (copies of
    the arrays passed in, so the model never aliases its caller; only
    the library's builders, through _adopt, hand over arrays they have
    just made instead): a weight slot is either its name as one key,
    of the shape table's (rows, cols), or the two keys array_name gives
    its factored halves.
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
        self._hold(config, {k: np.array(v, dtype=np.float64, order="C")
                            for k, v in params.items()}, masks)

    @classmethod
    def _adopt(cls, config, params, masks=None):
        """The model holding params' own arrays, converted only where
        they are not C-contiguous float64: for builders that have just
        made them and keep no other reference, so each weight is built
        once.  Arrays of another model must not be passed."""
        model = cls.__new__(cls)
        model._hold(config, {k: np.asarray(v, dtype=np.float64, order="C")
                             for k, v in params.items()}, masks)
        return model

    def _hold(self, config, params, masks):
        """Check params and masks against config's slots and keep them:
        params as given, masks as new bool arrays."""
        self.config = config
        self.params = params
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
            # own array
            self.params[key] *= self.masks[key]

    def _slot(self, e, masks):
        """The Slot record of one shape entry, its arrays' shapes checked."""
        ka, kb = array_name(e.name, "a"), array_name(e.name, "b")
        shape = (e.rows, e.cols)
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
        return Slot(e.name, e.group, kind, keys, masked, rank)

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
        copies: each key, then its mask under array_name(key, mask=True)."""
        entries = []
        for s in self.slots.values():
            for key in s.keys:
                entries.append((key, s.group, self.params[key]))
                if key in s.mask_keys:
                    entries.append((array_name(key, mask=True), s.group,
                                    self.masks[key]))
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
        # an entry named as the mask of another entry's key is that mask
        mask_of = {array_name(name, mask=True): name for name, _, _ in entries}
        params = {}
        masks = {}
        for name, _, arr in entries:
            key = mask_of.get(name, name)
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
        """Self-attention sublayer of layer p: its ln1 output.

        lc receives what backward needs, the attention map (probs)
        among it; every other temporary dies on return.
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
        return x1

    def _ffn_block(self, p, x1, lc, with_cache):
        """Feed-forward sublayer of layer p: its ln2 output.

        With the cache, lc also keeps GELU's tanh term for gelu_grad.
        """
        f_pre = self._slot_forward(f"{p}.ffn.w1", x1, lc)
        f_pre += self.params[f"{p}.ffn.b1"]
        if with_cache:
            lc["f_tanh"] = gelu_tanh(f_pre)
            f_act = gelu(f_pre, lc["f_tanh"])
        else:
            f_act = gelu(f_pre)
        g = self._slot_forward(f"{p}.ffn.w2", f_act, lc)
        g += self.params[f"{p}.ffn.b2"]
        g += x1
        x, ln2_cache = _ln_forward(g, self.params[f"{p}.ln2.gamma"],
                                   self.params[f"{p}.ln2.beta"])
        lc.update(f_pre=f_pre, f_act=f_act, ln2=ln2_cache)
        return x

    def _encode(self, tokens, cache=None):
        """The last hidden state of the encoder layers over checked
        tokens; with a cache, each layer's activations backward needs
        (its input x_in and attention map probs among them) are appended
        to cache["layers"]."""
        x = self._embed(tokens)
        for i in range(self.config.num_layers):
            lc = {}
            x1 = self._attention_block(f"enc{i}", x, lc)
            if cache is None:
                # the attention block's activations die before the FFN runs
                lc = {}
            else:
                cache["layers"].append(lc)
            x = self._ffn_block(f"enc{i}", x1, lc, cache is not None)
        return x

    def pooled_rows(self, n):
        """Sequences of length n per chunk of a plain forward: WORKERS
        chunks alive at once stay within one FORWARD_BLOCK."""
        return max(1, FORWARD_BLOCK // (n * self.config.ffn_dim * WORKERS))

    def forward(self, tokens, with_cache=False):
        """The trace of the tokens; with with_cache=True, (trace, cache).

        Only the cached forward fills the supervision points.  The plain
        forward keeps only the logits: chunks of pooled_rows sequences
        run through run_on_workers, each writing its rows of the pooled
        last hidden state before its activations die, and the
        classifier runs once over the whole batch, as in the cached
        forward, since BLAS may round a row of a product differently
        beside other rows.  Every layer works per sequence (one matmul
        per sequence slice; softmax, layer norm and GELU row by row), so
        the logits have the cached forward's bytes.  At width 256, batch
        256, length 16 the tracemalloc peak is 4.2 MB; the full-batch
        trace it used to keep took 33.4 MB.  NonFiniteError when a
        logit is not finite.
        """
        tokens = self._check_tokens(tokens)
        if with_cache:
            cache = {"tokens": tokens, "layers": []}
            last = self._encode(tokens, cache)
            pooled = cache["pooled"] = last.mean(axis=1)
        else:
            rows = self.pooled_rows(tokens.shape[1])
            pooled = np.empty((len(tokens), self.config.embed_dim))

            def pool_chunk(start):
                self._encode(tokens[start:start + rows]).mean(
                    axis=1, out=pooled[start:start + rows])

            run_on_workers(pool_chunk, range(0, len(tokens), rows))
        logits = pooled @ self.params["cls.w"]
        logits += self.params["cls.b"]
        if not np.all(np.isfinite(logits)):
            raise NonFiniteError("logits are not finite")
        if not with_cache:
            return ForwardTrace(logits=logits)
        # layer i's input is layer i - 1's hidden state
        layers = cache["layers"]
        return ForwardTrace(layers[0]["x_in"],
                            tuple(lc["probs"] for lc in layers),
                            tuple(lc["x_in"] for lc in layers[1:]) + (last,),
                            logits), cache

    # ---- backward -----------------------------------------------------

    def backward(self, cache, upstream):
        """Exact parameter gradients for the upstream gradients at the
        supervision points, a ForwardTrace whose None fields are zero."""
        cfg = self.config
        tokens = cache["tokens"]
        b, n = tokens.shape
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        scale = 1.0 / math.sqrt(cfg.head_dim)

        dlogits = upstream.logits
        if dlogits is None:
            dlogits = np.zeros((b, cfg.num_classes))
        dpooled = dlogits @ self.params["cls.w"].T
        grads["cls.w"] += cache["pooled"].T @ dlogits
        grads["cls.b"] += dlogits.sum(axis=0)
        dx = np.repeat(dpooled[:, None, :], n, axis=1) / n

        for i in reversed(range(cfg.num_layers)):
            p = f"enc{i}"
            lc = cache["layers"][i]
            if upstream.hidden is not None:
                dx = dx + upstream.hidden[i]
            dw, dg2, dbe2 = _ln_backward(dx, self.params[f"{p}.ln2.gamma"],
                                         lc["ln2"])
            grads[f"{p}.ln2.gamma"] += dg2
            grads[f"{p}.ln2.beta"] += dbe2
            dg = dw
            dx1 = dw.copy()
            df_act = self._slot_backward(f"{p}.ffn.w2", lc["f_act"], dg, lc, grads)
            grads[f"{p}.ffn.b2"] += dg.sum(axis=(0, 1))
            df_pre = df_act * gelu_grad(lc["f_pre"], lc["f_tanh"])
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
            if upstream.attention is not None:
                dprobs = dprobs + upstream.attention[i]
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

        if upstream.embedding_out is not None:
            dx = dx + upstream.embedding_out
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
        shape = (e.rows, e.cols)
        if not e.is_vector:
            params[e.name] = rng.normal(0.0, INIT_STD, size=shape)
        elif e.name.endswith(".gamma"):
            params[e.name] = np.ones(shape)
        else:
            params[e.name] = np.zeros(shape)
    return EncoderModel._adopt(config, params)


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
