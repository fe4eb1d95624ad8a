"""Independent jobs on WORKERS threads: run_on_workers itself, and
evaluate, whose plain forward runs its chunks on it, against a serial
reference; distill_step, which runs both forwards on the calling thread
whatever WORKERS is.

Each test monkeypatches WORKERS to 1, 2 or 3 (more threads than this
machine may have cores) and lets threads switch as often as the
interpreter allows.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import slimformer.pipeline as pipeline
from slimformer.distill import DistillConfig, distill_injections, distill_step
from slimformer.errors import DivergenceError, NonFiniteError
from slimformer.model import TOY_CONFIG, Adam, EncoderModel, run_on_workers
from slimformer.pipeline import run_pipeline
from slimformer.tasks import TaskConfig, evaluate, generate_task
from test_model import SLOT_KINDS, rand_tokens, slot_kind_model
from test_pipeline import toy_plan

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def set_workers(monkeypatch, workers, chunk_rows=None):
    """WORKERS threads; with chunk_rows, FORWARD_BLOCK is set so that
    the plain forward's chunks are chunk_rows // WORKERS sequences (at
    least 1)."""
    module = sys.modules["slimformer.model"]
    monkeypatch.setattr(module, "WORKERS", workers)
    if chunk_rows is not None:
        monkeypatch.setattr(module, "FORWARD_BLOCK", chunk_rows
                            * TOY_CONFIG.max_seq_len * TOY_CONFIG.ffn_dim)


class ItemFailure(Exception):
    pass


@pytest.mark.usefixtures("fast_switching")
class TestRunOnWorkers:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_results_in_item_order(self, monkeypatch, workers):
        set_workers(monkeypatch, workers)

        def job(i):
            # later items finish first when threads overlap
            time.sleep(0.001 * (i % 3 == 0))
            return i * i

        assert run_on_workers(job, range(20)) == [i * i for i in range(20)]
        assert run_on_workers(job, []) == []

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_no_pool_without_helpers(self, monkeypatch, workers):
        """One item, or WORKERS 1, needs no helper thread: the call
        builds no ThreadPoolExecutor and runs the job on the caller."""
        set_workers(monkeypatch, workers)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(sys.modules["slimformer.model"],
                            "ThreadPoolExecutor", no_pool)
        assert run_on_workers(lambda i: (i, threading.get_ident()),
                              [7]) == [(7, threading.get_ident())]
        if workers == 1:
            assert run_on_workers(lambda i: i + 1, range(5)) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_threads_bounded_and_gone(self, monkeypatch, workers, count):
        """At most min(WORKERS, items) threads run jobs, and none but the
        caller's is alive once the call returns."""
        set_workers(monkeypatch, workers)
        runners, alive = set(), []

        def job(i):
            runners.add(threading.get_ident())
            alive.append(threading.active_count())
            time.sleep(0.002)
            return i

        before = threading.active_count()
        run_on_workers(job, range(count))
        assert threading.active_count() == before
        assert len(alive) == count
        assert max(alive) <= before + min(workers, count) - 1
        assert len(runners) <= min(workers, count)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_earliest_failing_item_wins(self, monkeypatch, workers):
        """Item 6 raises first in time, item 3 later: item 3's exception
        leaves the call, as in a serial loop, once every started job
        has ended; every item before the failure ran."""
        set_workers(monkeypatch, workers)
        six_raised = threading.Event()
        started, ended = set(), set()

        def job(i):
            started.add(i)
            try:
                if i == 6:
                    six_raised.set()
                    raise ItemFailure(6)
                if i == 3:
                    # a lone thread never reaches item 6
                    if workers > 1:
                        assert six_raised.wait(timeout=10)
                    raise ItemFailure(3)
                return i
            finally:
                ended.add(i)

        before = threading.active_count()
        with pytest.raises(ItemFailure) as excinfo:
            run_on_workers(job, range(10))
        assert excinfo.value.args == (3,)
        assert threading.active_count() == before
        assert started == ended
        assert set(range(4)) <= started
        if workers == 1:
            assert started == set(range(4))
        else:
            assert set(range(7)) <= started

    @pytest.mark.parametrize("workers", [2, 3])
    def test_helpers_keep_the_callers_errstate(self, monkeypatch, workers):
        """Both threads take an item, and both run under the caller's
        np.errstate, as a serial loop would."""
        set_workers(monkeypatch, workers)
        both = threading.Barrier(2, timeout=10)
        runners = set()

        def job(i):
            runners.add(threading.get_ident())
            both.wait()
            return np.geterr()["divide"]

        with np.errstate(divide="raise"):
            assert run_on_workers(job, range(2)) == ["raise", "raise"]
        assert len(runners) == 2


def serial_evaluate(model, tokens, labels):
    """Hits of one full-batch cached forward over the split."""
    trace, _ = model.forward(tokens, with_cache=True)
    return int((np.argmax(trace.logits, axis=1) == labels).sum()) / len(tokens)


def split_with_errors(model, seed, batch=11):
    """Tokens and labels the model gets right except every third."""
    tokens = rand_tokens(np.random.default_rng(seed), TOY_CONFIG, batch=batch)
    trace, _ = model.forward(tokens, with_cache=True)
    labels = np.argmax(trace.logits, axis=1)
    labels[::3] = (labels[::3] + 1) % TOY_CONFIG.num_classes
    return tokens, labels


@pytest.mark.usefixtures("fast_switching")
class TestPooledEvaluate:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_equals_serial_for_every_slot_kind(self, monkeypatch, workers):
        """Chunks of 6, 3 and 2 of 11 sequences (short last chunk) give
        the full-batch accuracy, and evaluate runs one plain forward."""
        set_workers(monkeypatch, workers, chunk_rows=6)
        rows = 6 // workers
        chunks = []
        encode = EncoderModel._encode

        def spy(model, tokens, cache=None):
            if cache is None:
                chunks.append(len(tokens))
            return encode(model, tokens, cache)

        monkeypatch.setattr(EncoderModel, "_encode", spy)
        for kind in SLOT_KINDS:
            model = slot_kind_model(TOY_CONFIG, kind, seed=6)
            assert model.pooled_rows(TOY_CONFIG.max_seq_len) == rows
            tokens, labels = split_with_errors(model, seed=13)
            expected = serial_evaluate(model, tokens, labels)
            assert expected < 1.0
            chunks.clear()
            assert evaluate(model, tokens, labels) == expected, kind
            assert sorted(chunks) == sorted(
                [rows] * (11 // rows) + [11 % rows] * (11 % rows > 0)), kind

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_threads_bounded_and_gone(self, monkeypatch, workers):
        set_workers(monkeypatch, workers, chunk_rows=6)
        rows = 6 // workers
        chunks = -(-11 // rows)
        runners, alive = set(), []
        encode = EncoderModel._encode

        def spy(model, tokens, cache=None):
            runners.add(threading.get_ident())
            alive.append(threading.active_count())
            return encode(model, tokens, cache)

        model = slot_kind_model(TOY_CONFIG, "dense", seed=7)
        tokens, labels = split_with_errors(model, seed=14)
        monkeypatch.setattr(EncoderModel, "_encode", spy)
        before = threading.active_count()
        evaluate(model, tokens, labels)
        assert threading.active_count() == before
        assert len(alive) == chunks
        assert max(alive) <= before + min(workers, chunks) - 1
        assert len(runners) <= min(workers, chunks)

    @pytest.mark.parametrize("in_helper", [True, False])
    def test_chunk_nonfinite_error_leaves_evaluate(self, monkeypatch,
                                                   in_helper):
        """A NonFiniteError in a helper's chunk or in the caller's chunk
        leaves evaluate as NonFiniteError once both threads stopped."""
        set_workers(monkeypatch, 2, chunk_rows=4)
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
                raise NonFiniteError("logits are not finite")
            return encode(model, tokens, cache)

        model = slot_kind_model(TOY_CONFIG, "dense", seed=8)
        tokens, labels = split_with_errors(model, seed=15, batch=8)
        monkeypatch.setattr(EncoderModel, "_encode", failing)
        before = threading.active_count()
        with pytest.raises(NonFiniteError):
            evaluate(model, tokens, labels)
        assert len(runners) == 2
        assert threading.active_count() == before


def pipeline_state_at_failure(monkeypatch, workers):
    """run_pipeline's DivergenceError state when the last chunk of the
    third evaluate raises NonFiniteError.  The 32 val sequences run in
    chunks of 12 // WORKERS."""
    set_workers(monkeypatch, workers, chunk_rows=12)
    task = generate_task(TaskConfig(seed=0, train_count=64, val_count=32))
    last_val = task.tokens_val[-1]
    calls = []
    evaluate_first = pipeline.evaluate
    encode = EncoderModel._encode

    def counted(*args):
        calls.append(None)
        return evaluate_first(*args)

    def failing(model, tokens, cache=None):
        if len(calls) == 3 and np.shares_memory(tokens, last_val):
            raise NonFiniteError("logits are not finite")
        return encode(model, tokens, cache)

    monkeypatch.setattr(pipeline, "evaluate", counted)
    monkeypatch.setattr(EncoderModel, "_encode", failing)
    teacher = slot_kind_model(TOY_CONFIG, "dense", seed=9)
    with pytest.raises(DivergenceError) as excinfo:
        run_pipeline(teacher, toy_plan(delta=0.7), task,
                     epochs_per_iteration=1, lr=1e-3, seed=4)
    monkeypatch.undo()
    assert isinstance(excinfo.value.__cause__, NonFiniteError)
    return excinfo.value.state


@pytest.mark.usefixtures("fast_switching")
@pytest.mark.parametrize("workers", [2, 3])
def test_pipeline_divergence_state_as_serial(monkeypatch, workers):
    """The failing chunk runs alongside others, and the state dump
    matches the one-thread run's."""
    serial = pipeline_state_at_failure(monkeypatch, 1)
    assert serial["step"] == 2
    assert pipeline_state_at_failure(monkeypatch, workers) == serial


def distill_serially(student, teacher, tokens, cfg, opt):
    """distill_step with the two forwards one after the other."""
    teacher_trace = teacher.forward(tokens, with_cache=True)[0]
    student_trace, cache = student.forward(tokens, with_cache=True)
    total, breakdown, inj = distill_injections(teacher_trace, student_trace,
                                               cfg)
    opt.step(student, student.backward(cache, inj))
    return total, breakdown


class TeacherFailure(Exception):
    pass


class StudentFailure(Exception):
    pass


@pytest.mark.usefixtures("fast_switching")
class TestPooledDistillStep:
    """distill_step reads no WORKERS; the tests still run with it above
    1 so that a step which started helper threads again would fail.
    One count above 1 is enough for that."""

    @pytest.mark.parametrize("workers", [2])
    def test_byte_equal_to_serial(self, monkeypatch, workers):
        """Three steps per student slot kind: the same loss, breakdown
        and parameter bytes as the serial step."""
        set_workers(monkeypatch, workers)
        teacher = slot_kind_model(TOY_CONFIG, "dense", seed=20)
        tokens = rand_tokens(np.random.default_rng(21), TOY_CONFIG, batch=8)
        cfg = DistillConfig()
        for kind in SLOT_KINDS:
            pooled = slot_kind_model(TOY_CONFIG, kind, seed=22)
            serial = pooled.copy()
            opt_pooled, opt_serial = Adam(lr=1e-3), Adam(lr=1e-3)
            for _ in range(3):
                got = distill_step(pooled, teacher, tokens, cfg, opt_pooled)
                want = distill_serially(serial, teacher, tokens, cfg,
                                        opt_serial)
                assert got == want, kind
            for key in serial.params:
                assert (pooled.params[key].tobytes()
                        == serial.params[key].tobytes()), (kind, key)

    @pytest.mark.parametrize("workers", [2])
    def test_threads_bounded_and_gone(self, monkeypatch, workers):
        set_workers(monkeypatch, workers)
        runners = set()
        forward = EncoderModel.forward

        def spy(model, tokens, with_cache=False):
            runners.add(threading.get_ident())
            return forward(model, tokens, with_cache)

        teacher = slot_kind_model(TOY_CONFIG, "dense", seed=23)
        student = slot_kind_model(TOY_CONFIG, "masked-factored", seed=24)
        tokens = rand_tokens(np.random.default_rng(25), TOY_CONFIG, batch=8)
        monkeypatch.setattr(EncoderModel, "forward", spy)
        before = threading.active_count()
        distill_step(student, teacher, tokens, DistillConfig(), Adam(1e-3))
        assert threading.active_count() == before
        assert runners == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_teacher_error_wins(self, monkeypatch, workers):
        """When both forwards would raise, the teacher's runs first and
        its exception leaves distill_step; the student's never runs."""
        set_workers(monkeypatch, workers)
        teacher = slot_kind_model(TOY_CONFIG, "dense", seed=26)
        student = slot_kind_model(TOY_CONFIG, "factored", seed=27)
        student_ran = threading.Event()

        def teacher_forward(tokens, with_cache=False):
            raise TeacherFailure

        def student_forward(tokens, with_cache=False):
            student_ran.set()
            raise StudentFailure

        monkeypatch.setattr(teacher, "forward", teacher_forward)
        monkeypatch.setattr(student, "forward", student_forward)
        tokens = rand_tokens(np.random.default_rng(28), TOY_CONFIG, batch=4)
        before = threading.active_count()
        with pytest.raises(TeacherFailure):
            distill_step(student, teacher, tokens, DistillConfig(),
                         Adam(1e-3))
        assert not student_ran.is_set()
        assert threading.active_count() == before


# Prints one SHA-256 over chunked plain-forward logits, cached forward
# traces, a one-shot student and that student compressed again (so
# through svd_product).  argv[1] is model.WORKERS.
FINGERPRINT = """
import hashlib, sys
from dataclasses import replace
import numpy as np
import slimformer.model as model
from slimformer import (ModelConfig, compress_model, init_model,
                        one_shot_compress, solve_budget)
model.WORKERS = int(sys.argv[1])
cfg = ModelConfig(vocab_size=64, embed_dim=64, num_layers=2, num_heads=4,
                  ffn_dim=256, max_seq_len=16, num_classes=3)
tokens = np.random.default_rng(0).integers(0, 64, size=(64, 16))
assert 64 * 16 * 256 > model.FORWARD_BLOCK  # the plain forward is chunked
teacher = init_model(cfg, seed=0)
plan = solve_budget(cfg.shapes(), 0.4, p_embd=0.55, p_svd=0.45)
student = one_shot_compress(teacher, plan)
again, _ = compress_model(student, replace(plan, p_overall=0.3))
digest = hashlib.sha256()
def add(trace):
    for arr in (trace.embedding_out, *trace.attention, *trace.hidden,
                trace.logits):
        digest.update(arr.tobytes())
digest.update(teacher.forward(tokens).logits.tobytes())
add(teacher.forward(tokens, with_cache=True)[0])
add(student.forward(tokens[:8], with_cache=True)[0])
for m in (student, again):
    for store in (m.params, m.masks):
        for key in sorted(store):
            digest.update(key.encode() + store[key].tobytes())
print(digest.hexdigest())
"""


def test_same_bytes_across_blas_and_worker_threads():
    """One BLAS thread or OpenBLAS's default, one worker or two: the
    chunked plain forward, cached forwards and two rounds of compression
    give the same bytes in every configuration."""
    root = Path(__file__).resolve().parent.parent
    digests = {}
    for blas in ("1", None):
        for workers in (1, 2):
            env = {k: v for k, v in os.environ.items() if k not in (
                "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                "OMP_NUM_THREADS")}
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
            done = subprocess.run(
                [sys.executable, "-c", FINGERPRINT, str(workers)], env=env,
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests[blas, workers] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests
