"""Synthetic classification tasks and supervised training helpers.

Tasks are sequence-classification problems over synthetic token ids:
the label is the bucket (token id modulo the class count) holding the
majority of the sequence's tokens.  Sampling is stratified: targets
cycle through the classes and sequences are biased toward the target
bucket, so the label histogram stays balanced and the task is learnable
by a small encoder.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, NonFiniteError, RangeError
from .model import Adam, ForwardTrace, softmax


@dataclass(frozen=True)
class TaskConfig:
    seed: int
    vocab_size: int = 64
    seq_len: int = 16
    num_classes: int = 3
    train_count: int = 512
    val_count: int = 256
    bucket_bias: float = 0.35

    def __post_init__(self):
        if self.seed < 0:
            raise RangeError(f"seed must be non-negative, got {self.seed}")
        if self.num_classes < 2 or self.num_classes > self.vocab_size:
            raise RangeError(
                f"num_classes {self.num_classes} outside [2, vocab_size]"
            )
        if not 0.0 <= self.bucket_bias < 1.0:
            raise RangeError(f"bucket_bias {self.bucket_bias} outside [0, 1)")
        for name in ("vocab_size", "seq_len", "train_count", "val_count"):
            if getattr(self, name) < 1:
                raise RangeError(f"{name} must be positive")


@dataclass(frozen=True)
class SyntheticTask:
    config: TaskConfig
    tokens_train: np.ndarray
    labels_train: np.ndarray
    tokens_val: np.ndarray
    labels_val: np.ndarray


def bucket_label(tokens, num_classes):
    """Majority bucket of one sequence; ties resolve to the lowest class."""
    counts = np.bincount(np.asarray(tokens) % num_classes,
                         minlength=num_classes)
    return int(counts.argmax())


def _sample_split(rng, cfg, count):
    """Up to 50 tries per sequence; the last try is kept if none hits.

    Each try draws rng.random then rng.integers twice, in that order and
    with those sizes, and is labelled once by bucket_label.
    """
    buckets = [np.arange(c, cfg.vocab_size, cfg.num_classes)
               for c in range(cfg.num_classes)]
    tokens = np.empty((count, cfg.seq_len), dtype=np.int64)
    labels = np.empty(count, dtype=np.int64)
    for i in range(count):
        target = i % cfg.num_classes
        pool = buckets[target]
        for _ in range(50):
            biased = rng.random(cfg.seq_len) < cfg.bucket_bias
            seq = rng.integers(0, cfg.vocab_size, size=cfg.seq_len)
            seq[biased] = pool[rng.integers(0, len(pool),
                                            size=np.count_nonzero(biased))]
            label = bucket_label(seq, cfg.num_classes)
            if label == target:
                break
        tokens[i] = seq
        labels[i] = label
    return tokens, labels


def generate_task(cfg):
    rng = np.random.default_rng(cfg.seed)
    tokens_train, labels_train = _sample_split(rng, cfg, cfg.train_count)
    tokens_val, labels_val = _sample_split(rng, cfg, cfg.val_count)
    return SyntheticTask(cfg, tokens_train, labels_train,
                         tokens_val, labels_val)


def cross_entropy(logits, labels):
    """Mean CE over the batch plus the gradient w.r.t. the logits."""
    probs = softmax(logits)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def evaluate(model, tokens, labels):
    """Fraction of sequences whose argmax logit matches the label.

    One plain forward over the split: its logits only, computed in
    chunks of model.pooled_rows sequences on every CPU.  InputError
    unless tokens is a non-empty 2-D batch and labels holds one label
    per sequence in one row.
    """
    tokens, labels = np.asarray(tokens), np.asarray(labels)
    if tokens.ndim != 2 or tokens.size == 0:
        raise InputError(f"tokens must be a non-empty 2-D batch, got "
                         f"shape {tokens.shape}")
    if labels.shape != (len(tokens),):
        raise InputError(f"{len(tokens)} sequences need labels of shape "
                         f"({len(tokens)},), got {labels.shape}")
    hits = np.argmax(model.forward(tokens).logits, axis=1) == labels
    return int(hits.sum()) / len(tokens)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_loss: float
    val_accuracy: float


def check_schedule(epochs, batch_size, seed):
    """RangeError unless epochs >= 0, batch_size >= 1 and seed >= 0."""
    if seed < 0:
        raise RangeError(f"seed must be non-negative, got {seed}")
    if epochs < 0:
        raise RangeError(f"epochs must be non-negative, got {epochs}")
    if batch_size < 1:
        raise RangeError(f"batch size must be >= 1, got {batch_size}")


def batch_schedule(rng, n, batch_size, epochs):
    """Each step's (epoch, indices) over n examples: per epoch one
    rng.permutation(n), drawn at its first step, cut in order into
    batches of batch_size.  Every training loop draws its batches here.
    """
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield epoch, order[start:start + batch_size]


def divergence_state(epoch, step, records):
    """A DivergenceError's state: the epoch, the number of steps taken
    before the failure and the last ten records."""
    return {"epoch": epoch, "step": step,
            "recent_records": tuple(records[-10:])}


@contextmanager
def nonfinite_diverges(epoch, step, records):
    """A NonFiniteError in the block leaves it as DivergenceError."""
    try:
        yield
    except NonFiniteError as exc:
        raise DivergenceError(
            f"forward produced non-finite values in epoch {epoch} at step "
            f"{step}", state=divergence_state(epoch, step, records)) from exc


def train_classifier(model, task, epochs, lr=2e-5, batch_size=32, seed=0):
    """Supervised fine-tuning on the task's hard labels, in place.

    Batches come from batch_schedule(default_rng(seed), ...).  Raises
    DivergenceError when a forward produces non-finite values or an
    epoch's mean loss is non-finite or above 10 * ln(num_classes), ten
    times a uniform guess's cross entropy; its state is divergence_state
    (epoch, step, recent_records) over the epoch records.  No rule
    relative to earlier epochs: healthy runs at lr 2e-3 climb over 20x
    above their lowest earlier epoch mean.
    """
    check_schedule(epochs, batch_size, seed)
    opt = Adam(lr=lr)
    history, losses = [], []
    n = len(task.tokens_train)
    per_epoch = -(-n // batch_size)
    ceiling = 10.0 * math.log(model.config.num_classes)
    schedule = batch_schedule(np.random.default_rng(seed), n, batch_size,
                              epochs)
    for step, (epoch, idx) in enumerate(schedule):
        with nonfinite_diverges(epoch, step, history):
            trace, cache = model.forward(task.tokens_train[idx],
                                         with_cache=True)
            loss, dlogits = cross_entropy(trace.logits,
                                          task.labels_train[idx])
            opt.step(model, model.backward(cache,
                                           ForwardTrace(logits=dlogits)))
        # the step's activations die before the next forward or the
        # epoch's evaluate runs
        del trace, cache
        losses.append(loss)
        if len(losses) < per_epoch:
            continue
        mean_loss = float(np.mean(losses))
        losses = []
        if not math.isfinite(mean_loss) or mean_loss > ceiling:
            raise DivergenceError(
                f"epoch {epoch} mean loss {mean_loss:.6g} is non-finite "
                f"or above {ceiling:.6g}, ten times a uniform guess's "
                f"cross entropy",
                state=divergence_state(epoch, step + 1, history))
        with nonfinite_diverges(epoch, step + 1, history):
            acc = evaluate(model, task.tokens_val, task.labels_val)
        history.append(EpochRecord(epoch, mean_loss, acc))
    return history
