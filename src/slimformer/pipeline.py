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

run_baseline distils the pure-prediction baseline, a small dense
student, through the same fine-tuning loop and batch order.
"""

import csv
import io
import math
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .budget import CompressionPlan, allocate
from .distill import DistillConfig, distill_step
from .errors import DivergenceError, RangeError, check_fraction
from .factorize import factorize_layer
from .model import (Adam, EncoderModel, array_name, init_model,
                    truncated_config_for_budget)
from .prune import keep_largest
from .tasks import (batch_schedule, check_schedule, divergence_state,
                    evaluate, nonfinite_diverges)


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
    check_fraction("p_overall", p_overall)
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

    Each iteration fine-tunes for epochs_per_iteration epochs with the
    default DistillConfig (every term weighted 1) under a new Adam(lr);
    all iterations draw their batches, in turn, from one
    batch_schedule(default_rng(seed), ...).  The teacher is only read.
    A plan with p_overall = 1 returns a bit-identical copy of the
    teacher, sharing no memory with it, and no records.  Raises
    DivergenceError when the fine-tuning loss goes non-finite or grows
    tenfold over its minimum within an iteration; its state is
    divergence_state (epoch, counted over the whole run, step and
    recent_records).  RangeError for negative epochs, a batch size
    below 1 or a negative seed.
    """
    check_schedule(epochs_per_iteration, batch_size, seed)
    if plan.p_overall == 1.0:
        return PipelineResult(teacher.copy(), (), ())
    shapes = teacher.config.shapes()
    total = shapes.group_total()
    budgets = budget_sequence(plan.delta, plan.p_overall)
    n = len(task.tokens_train)
    schedule = batch_schedule(np.random.default_rng(seed), n, batch_size,
                              epochs_per_iteration * len(budgets))
    steps = epochs_per_iteration * -(-n // batch_size)
    records = []
    states = []
    # the first compress only reads the teacher and builds a new student
    student = teacher

    for iteration, budget in enumerate(budgets, 1):
        student, _ = compress_model(student, interpolated_plan(plan, budget))
        # fine-tuning keeps every mask, so these counts hold all iteration
        live = student.retained_by_group()
        _fine_tune(student, teacher, task, DistillConfig(),
                   islice(schedule, steps), lr, records)
        states.append(ScheduleState(
            iteration=iteration,
            budget_fraction=budget,
            retained_fraction=sum(live.values()) / total,
            group_fractions={g: live[g] / shapes.group_total(g)
                             for g in live},
        ))
    return PipelineResult(student, tuple(records), tuple(states))


def run_baseline(teacher, target_count, task, epochs, lr=2e-5,
                 batch_size=32, seed=0):
    """The pure-prediction baseline (TinyBERT-style) the pipeline is
    measured against: init_model(truncated_config_for_budget(
    teacher.config, target_count), seed), distilled on the teacher's
    predictions alone for `epochs` epochs by one run_pipeline
    iteration's loop, on batches of batch_schedule(default_rng(seed +
    100), ...).  Returns a PipelineResult without states; records give
    the student's size over the teacher's.  DivergenceError (state
    epoch, step, recent_records) and RangeError as run_pipeline.
    """
    check_schedule(epochs, batch_size, seed)
    student = init_model(truncated_config_for_budget(teacher.config,
                                                     target_count), seed=seed)
    cfg = DistillConfig(embedding_weight=0.0, attention_weight=0.0,
                        hidden_weight=0.0, prediction_weight=1.0)
    schedule = batch_schedule(np.random.default_rng(seed + 100),
                              len(task.tokens_train), batch_size, epochs)
    records = []
    _fine_tune(student, teacher, task, cfg, schedule, lr, records)
    return PipelineResult(student, tuple(records), ())


def _fine_tune(student, teacher, task, cfg, schedule, lr, records):
    """One distill_step per (epoch, indices) of the schedule under one
    Adam(lr), each appending a TrainingRecord numbered by the records
    before it.  The tenfold rule counts from this call's lowest loss."""
    # fine-tuning keeps every mask, so the count holds for the whole call
    retained = student.retained_count() / teacher.config.shapes().group_total()
    opt = Adam(lr=lr)
    lowest = math.inf
    for epoch, idx in schedule:
        step = len(records)
        with nonfinite_diverges(epoch, step, records):
            loss, terms = distill_step(student, teacher,
                                       task.tokens_train[idx], cfg, opt)
            check_divergence(loss, lowest,
                             divergence_state(epoch, step, records))
            lowest = min(lowest, loss)
            accuracy = evaluate(student, task.tokens_val, task.labels_val)
        records.append(TrainingRecord(
            step, retained, loss, terms["embedding"], terms["attention"],
            terms["hidden"], terms["prediction"], accuracy))


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

