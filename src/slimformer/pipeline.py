"""The iterative compress-then-distill loop.

Each iteration shrinks the retained-parameter budget by the plan's
delta (geometric schedule, clipped at the overall target), re-compresses
the current student at fractions interpolated toward the plan targets,
and fine-tunes it against the teacher by distillation.  Interpolation
is geometric: at budget s the group fractions are p^tau with
tau = ln(s) / ln(p_overall), so the product trajectory follows the
budget sequence and the final iteration lands exactly on the plan.

Compression always acts on the student's current weights, not on the
original teacher weights.  From the second iteration on, the slots to
factorize are already fine-tuned factor pairs (A, B); each is
re-factorized through its r x r core (svd.svd_product) and never
multiplied out, while a dense slot is decomposed as it is.
"""

import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .budget import CompressionPlan, allocate
from .distill import DistillConfig, distill_step
from .errors import DivergenceError, NonFiniteError, RangeError
from .factorize import factorize_layer
from .model import Adam, EncoderModel, array_name
from .prune import keep_largest
from .tasks import check_schedule, evaluate


@dataclass(frozen=True)
class TrainingRecord:
    step: int
    retained_fraction: float
    loss_total: float
    loss_embedding: float
    loss_attention: float
    loss_hidden: float
    loss_prediction: float
    val_accuracy: float


@dataclass(frozen=True)
class ScheduleState:
    """Snapshot after one compress-and-fine-tune iteration."""

    iteration: int
    budget_fraction: float
    retained_fraction: float
    group_fractions: dict
    notes: tuple


@dataclass(frozen=True)
class PipelineResult:
    student: EncoderModel
    records: tuple
    states: tuple


def budget_sequence(delta, p_overall):
    """Geometric budgets delta^k clipped to the target: the last entry
    is exactly p_overall and appears once."""
    if not 0.0 < delta < 1.0:
        raise RangeError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 < p_overall <= 1.0:
        raise RangeError(f"p_overall must be in (0, 1], got {p_overall}")
    seq = []
    k = 1
    while p_overall < 1.0:
        s = delta ** k
        # the tolerance keeps delta**k == p_overall from producing a
        # near-duplicate event when the power rounds up by one ulp
        if s <= p_overall * (1.0 + 1e-12):
            seq.append(p_overall)
            break
        seq.append(s)
        k += 1
    return seq


def interpolated_plan(plan, budget):
    """Group fractions p^tau, tau = ln(budget)/ln(p_overall)."""
    tau = math.log(budget) / math.log(plan.p_overall)
    return CompressionPlan(
        p_overall=budget,
        p_embd=plan.p_embd ** tau,
        p_svd=plan.p_svd ** tau,
        delta=plan.delta,
    )


def compress_model(model, plan):
    """Apply one allocation to the model's current weights.

    Returns the compressed student and the allocation that shaped it.
    Every array the student stores is one (key, array, ones) unit that
    keeps its `ones` largest entries: a slot to factorize gives the two
    halves of its pair, any other slot its matrix (every entry kept
    when dense).  A slot to factorize is decomposed in the form the model
    holds it: a dense matrix by svd, a factor pair through its core.
    Only a factor pair the allocation leaves dense or masked is
    multiplied out.  Arrays that keep every entry carry no mask (pure
    low-rank factorization, as for embedding matrices).  The model is
    only read, and each student array is made once: the student adopts
    the arrays factorize_layer, keep_largest and a multiplied-out pair
    make, and only an unfactored slot kept whole, which keep_largest
    hands back as the model's own array, is copied.
    """
    alloc = allocate(model.config.shapes(), plan)
    params = {}
    masks = {}
    for e in alloc.entries:
        held = model.slots[e.name]
        if e.kind == "factored":
            w, b = ((model.params[k] for k in held.keys) if held.rank
                    else (model.params[e.name], None))
            pair = factorize_layer(w, e.rank, b=b)
            units = ((array_name(e.name, "a"), pair.a, e.ones_a),
                     (array_name(e.name, "b"), pair.b, e.ones_b))
        else:
            # a view of the model's array unless the slot is held as a pair
            w = model.effective_weight(e.name)
            units = ((e.name, w, e.ones if e.kind == "masked" else w.size),)
        for key, arr, ones in units:
            kept, mask = keep_largest(arr, ones)
            params[key] = kept.copy() if kept is w and not held.rank else kept
            if mask is not None:
                masks[key] = mask
    return EncoderModel._adopt(model.config, params, masks), alloc


def one_shot_compress(teacher, plan):
    """Hybrid compression straight to the plan targets, no fine-tuning."""
    if plan.p_overall == 1.0:
        return teacher.copy()
    student, _ = compress_model(teacher, plan)
    return student


def run_pipeline(teacher, plan, task, epochs_per_iteration=2, lr=2e-5,
                 batch_size=32, seed=0):
    """Iteratively compress and fine-tune a student of the teacher.

    Fine-tuning distils with the default DistillConfig (every term
    weighted 1).  The teacher is only read.  A plan with p_overall = 1
    returns a bit-identical copy of the teacher, sharing no memory with
    it, and no records.  Raises
    DivergenceError (with a state dump) when the fine-tuning loss goes
    non-finite or grows tenfold over its minimum within an iteration.
    RangeError for negative epochs, a batch size below 1 or a negative
    seed.
    """
    check_schedule(epochs_per_iteration, batch_size, seed)
    if plan.p_overall == 1.0:
        return PipelineResult(teacher.copy(), (), ())
    cfg = DistillConfig()
    # the first compress only reads the teacher and builds a new student
    student = teacher
    shapes = teacher.config.shapes()
    total = shapes.group_total()
    rng = np.random.default_rng(seed)
    records = []
    states = []
    step = 0

    for iteration, budget in enumerate(budget_sequence(plan.delta,
                                                       plan.p_overall), 1):
        student, alloc = compress_model(student, interpolated_plan(plan, budget))
        opt = Adam(lr=lr)
        # fine-tuning keeps every mask, so these counts hold all iteration
        live = student.retained_by_group()
        retained = sum(live.values()) / total
        iter_min = math.inf
        for _ in range(epochs_per_iteration):
            order = rng.permutation(len(task.tokens_train))
            for start in range(0, len(order), batch_size):
                idx = order[start:start + batch_size]
                try:
                    loss, terms = distill_step(student, teacher,
                                               task.tokens_train[idx], cfg,
                                               opt)
                    check_divergence(loss, iter_min,
                                     _state_dump(iteration, budget, step,
                                                 records))
                    iter_min = min(iter_min, loss)
                    accuracy = evaluate(student, task.tokens_val,
                                        task.labels_val)
                except NonFiniteError as exc:
                    raise DivergenceError(
                        f"forward produced non-finite values at step {step}",
                        state=_state_dump(iteration, budget, step, records),
                    ) from exc
                records.append(TrainingRecord(
                    step, retained, loss, terms["embedding"],
                    terms["attention"], terms["hidden"], terms["prediction"],
                    accuracy))
                step += 1
        states.append(ScheduleState(
            iteration=iteration,
            budget_fraction=budget,
            retained_fraction=retained,
            group_fractions={g: live[g] / shapes.group_total(g)
                             for g in live},
            notes=alloc.notes,
        ))
    return PipelineResult(student, tuple(records), tuple(states))


def check_divergence(total, iteration_minimum, state):
    """Abort rule: loss non-finite, or tenfold over its iteration minimum."""
    if not math.isfinite(total):
        raise DivergenceError(f"loss became non-finite: {total}", state=state)
    if total > 10.0 * iteration_minimum + 1e-12:
        raise DivergenceError(
            f"loss {total:.6g} grew past 10x its iteration minimum "
            f"{iteration_minimum:.6g}",
            state=state,
        )


def _state_dump(iteration, budget, step, records):
    return {
        "iteration": iteration,
        "budget_fraction": budget,
        "step": step,
        "recent_records": tuple(records[-10:]),
    }


CURVE_COLUMNS = tuple(f.name for f in fields(TrainingRecord))


def record_curve(records):
    """Training records as CSV text, one column per TrainingRecord field
    in field order, each value written as its repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    for r in records:
        writer.writerow([repr(getattr(r, c)) for c in CURVE_COLUMNS])
    return out.getvalue()

