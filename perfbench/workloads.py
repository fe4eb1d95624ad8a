"""The benchmark's three workloads, driven through slimformer's public API.

Every workload is a closed loop: one caller in one process, each
operation starting after the previous one ends.

- toy-distill: the paper's method end to end at the README settings.
  Forward, backward and evaluate dominate, and from the second
  iteration on every SVD input is the rank-deficient product A B^T.
- wide-compress: a random width-256 teacher compressed once.  SVD of
  full-rank dense matrices is nearly all of the time and nothing trains.
- wide-infer: forward-only serving at width 256, the only place where
  factored slots can save compute.  No SVD runs in its set-up.
"""

import math
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from slimformer import (TOY_CONFIG, EncoderModel, ModelConfig, TaskConfig,
                        allocate, generate_task, init_model,
                        load_model, one_shot_compress,
                        record_curve, run_pipeline, save_model, solve_budget,
                        train_classifier)

WIDE_CONFIG = ModelConfig(vocab_size=64, embed_dim=256, num_layers=2,
                          num_heads=4, ffn_dim=1024, max_seq_len=16,
                          num_classes=3)
P_OVERALL, P_EMBD, P_SVD = 0.4, 0.55, 0.45
TOY_DELTA = 0.8
SERVE_BATCH = 256
# single-sequence answers must match the batched ones to this tolerance
SERVE_RTOL = 1e-9
# requests whose batch-1 logits are compared against the batched logits
SERVE_COMPARED = 16
# kept factor entries must match LAPACK's best rank-r pair to this
# tolerance, relative to the pair's norm
FACTOR_RTOL = 1e-6
# units of the per-workload figures printed beside the declared metrics
FIGURE_UNITS = {
    "teacher_train_s": "s", "pipeline_s": "s", "compress_s": "s",
    "save_load_s": "s", "student_val_accuracy": "ratio",
    "compress_rel_error": "ratio", "teacher_infer_seq_per_s": "1/s",
    "student_infer_seq_per_s": "1/s", "student_latency_p50_ms": "ms",
    "student_latency_p99_ms": "ms", "latency_samples": "count", "operations": "count",
}


@dataclass
class Served:
    teacher_batch_s: list = field(default_factory=list)
    student_batch_s: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)
    consistent: bool = True

    def extend(self, other):
        self.teacher_batch_s += other.teacher_batch_s
        self.student_batch_s += other.student_batch_s
        self.latency_s += other.latency_s
        self.consistent = self.consistent and other.consistent


@dataclass
class Outcome:
    """One operation: wall time, named stage times, serving samples."""

    wall_s: float
    stages: dict
    teacher: EncoderModel
    student: EncoderModel
    served: Served = None
    extra: dict = field(default_factory=dict)


def serving_figures(served):
    """Throughput at batch 256 and single-request latency percentiles,
    the percentiles taken over every request of the run."""
    return {
        "teacher_infer_seq_per_s":
            SERVE_BATCH / statistics.median(served.teacher_batch_s),
        "student_infer_seq_per_s":
            SERVE_BATCH / statistics.median(served.student_batch_s),
        "student_latency_p50_ms": 1e3 * percentile(served.latency_s, 50),
        "student_latency_p99_ms": 1e3 * percentile(served.latency_s, 99),
        "latency_samples": len(served.latency_s),
    }


def serve(teacher, student, tokens, cycles, requests, tracer=None):
    """Serve in interleaved cycles: one batched forward of each model,
    then `requests` single-sequence requests to the student.

    Interleaving spreads every metric's samples over the whole serving
    window, so a slow spell of the machine hits them all alike.
    """
    out = Served()
    batch = tokens[:SERVE_BATCH]
    with tracer.phase("serve") if tracer else nullcontext():
        for _ in range(cycles):
            for model, times in ((teacher, out.teacher_batch_s),
                                 (student, out.student_batch_s)):
                t0 = time.perf_counter()
                logits = model.forward(batch).logits
                times.append(time.perf_counter() - t0)
            for i in range(requests):
                row = i % len(batch)
                t0 = time.perf_counter()
                single = student.forward(batch[row:row + 1]).logits
                out.latency_s.append(time.perf_counter() - t0)
                if i < SERVE_COMPARED and not np.allclose(
                        single[0], logits[row], rtol=SERVE_RTOL,
                        atol=SERVE_RTOL):
                    out.consistent = False
    return out


def bit_identical(a, b):
    """Same parameter and mask keys, and the same bytes in every array."""
    return all(
        x.keys() == y.keys() and all(
            x[k].shape == y[k].shape and x[k].tobytes() == y[k].tobytes()
            for k in x)
        for x, y in ((a.params, b.params), (a.masks, b.masks)))


def round_trip(model, workdir):
    base = os.path.join(workdir, "student")
    save_model(model, base)
    return load_model(base)


def common_checks(config, out):
    failures = []
    target = round(P_OVERALL * config.shapes().group_total())
    if out.student.retained_count() != target:
        failures.append(f"retained {out.student.retained_count()} != "
                        f"round(0.4 * total) = {target}")
    if out.served is not None and not out.served.consistent:
        failures.append("batch-1 logits differ from batched logits")
    loaded = out.extra.get("loaded")
    if loaded is not None and not bit_identical(out.student, loaded):
        failures.append("bundle round trip is not bit-identical")
    return failures


class ToyDistill:
    """Teacher training for 20 epochs, then the iterative pipeline."""

    config = TOY_CONFIG

    def setup(self, seed, workdir):
        task = generate_task(TaskConfig(seed=seed))
        teacher = init_model(TOY_CONFIG, seed=seed)
        plan = replace(solve_budget(TOY_CONFIG.shapes(), P_OVERALL,
                                    p_embd=P_EMBD, p_svd=P_SVD),
                       delta=TOY_DELTA)
        return SimpleNamespace(seed=seed, task=task, teacher=teacher,
                               plan=plan, workdir=workdir, curve=None)

    def operate(self, st, tracer=None):
        teacher = st.teacher.copy()
        t0 = time.perf_counter()
        train_classifier(teacher, st.task, epochs=20, lr=2e-3,
                         seed=st.seed + 100)
        t1 = time.perf_counter()
        result = run_pipeline(teacher, st.plan, st.task, lr=1e-3,
                              seed=st.seed + 1)
        t2 = time.perf_counter()
        loaded = round_trip(result.student, st.workdir)
        t3 = time.perf_counter()
        return Outcome(t3 - t0,
                       {"teacher_train_s": t1 - t0, "pipeline_s": t2 - t1,
                        "save_load_s": t3 - t2},
                       teacher, result.student,
                       extra={"loaded": loaded, "records": result.records})

    def check(self, st, out):
        """Checks plus the quality figures; runs outside the timed part.

        The whole record_curve must repeat bit for bit.  The first
        operation of a run is compared with run_pipeline run again from
        the same trained teacher and seed; every later one, which also
        retrains the teacher, is compared with the first.
        """
        failures = common_checks(self.config, out)
        curve = record_curve(out.extra["records"])
        if st.curve is None:
            again = run_pipeline(out.teacher, st.plan, st.task, lr=1e-3,
                                 seed=st.seed + 1)
            st.curve = record_curve(again.records)
        if curve != st.curve:
            failures.append("record_curve differs on a repeat of the seed")
        accuracy = out.extra["records"][-1].val_accuracy
        return failures, {"student_val_accuracy": accuracy}


class WideCompress:
    """One-shot compression of a random width-256 teacher, then a
    save/load round trip of the student."""

    config = WIDE_CONFIG

    def setup(self, seed, workdir):
        return wide_setup(seed, workdir)

    def operate(self, st, tracer=None):
        t0 = time.perf_counter()
        student = one_shot_compress(st.teacher, st.plan)
        t1 = time.perf_counter()
        loaded = round_trip(student, st.workdir)
        t2 = time.perf_counter()
        return Outcome(t2 - t0, {"compress_s": t1 - t0,
                                 "save_load_s": t2 - t1},
                       st.teacher, student, extra={"loaded": loaded})

    def check(self, st, out):
        failures = common_checks(self.config, out)
        out.student.forward(st.tokens)  # raises NonFiniteError on bad logits
        failures += factor_failures(out.teacher, out.student)
        error = compress_rel_error(out.teacher, out.student)
        if not 0.0 < error < 1.0:
            failures.append(f"compress_rel_error {error} outside (0, 1)")
        return failures, {"compress_rel_error": error}


class WideInfer:
    """Serving a dense teacher and a planned student built without SVD."""

    config = WIDE_CONFIG
    cycles, requests = 2, 500

    def setup(self, seed, workdir):
        st = wide_setup(seed, workdir)
        st.student = planned_student(
            st.teacher, allocate(WIDE_CONFIG.shapes(), st.plan), seed)
        return st

    def operate(self, st, tracer=None):
        t0 = time.perf_counter()
        served = serve(st.teacher, st.student, st.tokens, self.cycles,
                       self.requests, tracer)
        return Outcome(time.perf_counter() - t0, {}, st.teacher, st.student,
                       served)

    def check(self, st, out):
        return common_checks(self.config, out), {}


WORKLOADS = {
    "toy-distill": ToyDistill(),
    "wide-compress": WideCompress(),
    "wide-infer": WideInfer(),
}


def wide_setup(seed, workdir):
    """Random wide teacher, the P=0.4 plan and a batch of request tokens."""
    teacher = init_model(WIDE_CONFIG, seed=seed)
    plan = solve_budget(WIDE_CONFIG.shapes(), P_OVERALL, p_embd=P_EMBD,
                        p_svd=P_SVD)
    tokens = np.random.default_rng(seed).integers(
        0, WIDE_CONFIG.vocab_size,
        size=(SERVE_BATCH, WIDE_CONFIG.max_seq_len))
    return SimpleNamespace(teacher=teacher, plan=plan, tokens=tokens,
                           workdir=workdir)


def planned_student(teacher, alloc, seed):
    """A student with the allocation's slot kinds, ranks and mask counts,
    its factors and mask positions drawn from a seeded generator."""
    rng = np.random.default_rng(seed + 1)
    std = 0.05
    params, masks = {}, {}

    def masked(key, shape, ones):
        params[key] = rng.normal(0.0, std, size=shape)
        if ones < params[key].size:
            bits = np.zeros(params[key].size)
            bits[rng.permutation(bits.size)[:ones]] = 1.0
            masks[key] = bits.reshape(shape)

    for e in alloc.entries:
        if e.kind == "dense":
            params[e.name] = teacher.params[e.name].copy()
        elif e.kind == "masked":
            masked(e.name, (e.rows, e.cols), e.ones)
        else:
            masked(f"{e.name}.a", (e.rows, e.rank), e.ones_a)
            masked(f"{e.name}.b", (e.cols, e.rank), e.ones_b)
    return EncoderModel(teacher.config, params, masks)


def factor_failures(teacher, student):
    """Each factored slot's kept factor entries must be those of the best
    rank-r pair of the teacher's weight (Eckart-Young), taken from
    LAPACK's SVD: A = U_r sqrt(S_r) and B = V_r sqrt(S_r), up to one sign
    per singular triple.  A pair built from wrong or inexact triples
    fails, whatever its masks."""
    failures = []
    for e in teacher.config.shapes():
        key_a, key_b = f"{e.name}.a", f"{e.name}.b"
        if key_a not in student.params:
            continue
        u, s, vt = np.linalg.svd(teacher.effective_weight(e.name),
                                 full_matrices=False)
        r = student.params[key_a].shape[1]
        root = np.sqrt(s[:r])
        best = {key_a: u[:, :r] * root, key_b: vt[:r].T * root}
        masks = {k: student.masks.get(k, np.ones_like(v))
                 for k, v in best.items()}
        sign = np.sign(sum(np.sum(student.params[k] * best[k] * masks[k],
                                  axis=0) for k in best))
        for k, v in best.items():
            err = np.linalg.norm(student.params[k] - v * sign * masks[k])
            if not err <= FACTOR_RTOL * np.linalg.norm(v):
                failures.append(f"{k}: kept factor entries lie {err:.3g} "
                                f"from the best rank-{r} pair")
    return failures


def compress_rel_error(teacher, student):
    """Frobenius error of the student's effective encoder weights against
    the teacher's, relative to the teacher's, over all encoder matrices."""
    err = ref = 0.0
    for e in teacher.config.shapes():
        if e.group != "encoder" or e.is_vector:
            continue
        w = teacher.effective_weight(e.name)
        err += float(np.sum((student.effective_weight(e.name) - w) ** 2))
        ref += float(np.sum(w * w))
    return math.sqrt(err / ref)


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values), q))
