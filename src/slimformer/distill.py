"""Knowledge-distillation losses over forward traces.

The student is supervised at four levels: embedding output, per-layer
attention maps, per-layer hidden states (all mean squared error), and
a soft cross entropy between teacher and student logits.  MSE_TERMS
lists the three squared-error terms with the trace field each reads;
distill_injections checks and computes them in one loop over it.  The
combined objective is a weighted sum; zero-weight terms are skipped
entirely.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MappingError, RangeError, ShapeError
from .model import ForwardTrace, softmax

# each mean-squared-error term: (name, as in DistillConfig's
# <name>_weight and the breakdown, ForwardTrace field it compares)
MSE_TERMS = (("embedding", "embedding_out"), ("attention", "attention"),
             ("hidden", "hidden"))


@dataclass(frozen=True)
class DistillConfig:
    embedding_weight: float = 1.0
    attention_weight: float = 1.0
    hidden_weight: float = 1.0
    prediction_weight: float = 1.0

    def __post_init__(self):
        weights = (self.embedding_weight, self.attention_weight,
                   self.hidden_weight, self.prediction_weight)
        if any(w < 0 for w in weights):
            raise RangeError("loss weights must be non-negative")
        if not any(w > 0 for w in weights):
            raise RangeError("at least one distillation weight must be positive")


def mse_loss(student, teacher):
    """Mean of squared elementwise differences."""
    if student.shape != teacher.shape:
        raise ShapeError(f"shape mismatch {student.shape} vs {teacher.shape}")
    d = student - teacher
    return float(np.mean(d * d))


def _log_softmax(x):
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def prediction_loss(teacher_logits, student_logits):
    """Soft cross entropy -softmax(teacher) . log softmax(student).

    1-D inputs are one example; 2-D inputs average over the batch.
    """
    ft, fs = teacher_logits, student_logits
    if ft.shape != fs.shape:
        raise ShapeError(f"logit shape mismatch {ft.shape} vs {fs.shape}")
    if ft.ndim == 1:
        ft, fs = ft[None, :], fs[None, :]
    per_row = -np.sum(softmax(ft) * _log_softmax(fs), axis=-1)
    return float(per_row.mean())


def distill_injections(teacher_trace, student_trace, cfg):
    """Loss, breakdown, and the upstream gradients for backward, as a
    ForwardTrace.

    The teacher trace is a constant; gradients are with respect to the
    student trace only.  MappingError when a positively weighted term
    reads a field either trace lacks (a plain forward keeps only the
    logits), or when the traces cover different layer or batch counts.
    """
    traces = (teacher_trace, student_trace)
    for term, field in MSE_TERMS:
        if getattr(cfg, f"{term}_weight") > 0 and any(
                getattr(t, field) is None for t in traces):
            raise MappingError(f"{term}_weight is positive, but a trace has "
                               f"no {field}: only a cached forward keeps it")
    layers = {len(t.attention) for t in traces if t.attention is not None}
    if len(layers) > 1:
        raise MappingError(f"teacher and student have {sorted(layers)} "
                           f"layers; cannot align")
    if teacher_trace.logits.shape[0] != student_trace.logits.shape[0]:
        raise MappingError("teacher and student traces cover different batches")

    breakdown = {"embedding": 0.0, "attention": 0.0,
                 "hidden": 0.0, "prediction": 0.0}
    upstream = {}
    for term, field in MSE_TERMS:
        w = getattr(cfg, f"{term}_weight")
        if not w > 0:
            continue
        ss, ts = getattr(student_trace, field), getattr(teacher_trace, field)
        whole = field == "embedding_out"  # one array, not one per layer
        grads = []
        for s, t in [(ss, ts)] if whole else zip(ss, ts):
            breakdown[term] += w * mse_loss(s, t)
            grads.append(w * 2.0 * (s - t) / s.size)
        upstream[field] = grads[0] if whole else tuple(grads)

    if cfg.prediction_weight > 0:
        ft, fs = teacher_trace.logits, student_trace.logits
        breakdown["prediction"] = cfg.prediction_weight * prediction_loss(
            ft, fs)
        batch = fs.shape[0]
        upstream["logits"] = (cfg.prediction_weight / batch
                              * (softmax(fs) - softmax(ft)))

    total = sum(breakdown.values())
    return total, breakdown, ForwardTrace(**upstream)


def distill_step(student, teacher, tokens, cfg, opt):
    """One optimizer step on the distillation objective; returns the
    step's (total, per-term breakdown), the first two items of
    distill_injections.

    Masked student entries keep gradient zero and stay exactly zero
    after the update.  The teacher is only read.  The teacher's cached
    forward runs first and its cache is dropped at once, so the step's
    peak is the student's cached forward and backward; both run on the
    calling thread.
    """
    teacher_trace = teacher.forward(tokens, with_cache=True)[0]
    student_trace, cache = student.forward(tokens, with_cache=True)
    total, breakdown, inj = distill_injections(teacher_trace, student_trace, cfg)
    grads = student.backward(cache, inj)
    opt.step(student, grads)
    return total, breakdown
