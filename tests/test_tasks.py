"""Synthetic task generation, the batch schedule and supervised training."""

import ast
import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from slimformer.errors import DivergenceError, InputError, NonFiniteError, \
    RangeError
from slimformer.model import TOY_CONFIG, init_model
from slimformer.pipeline import run_baseline
from slimformer.tasks import (
    TaskConfig,
    batch_schedule,
    bucket_label,
    cross_entropy,
    evaluate,
    generate_task,
    train_classifier,
)
from test_model import SOURCE, source_sites


class TestGeneration:
    def test_same_seed_identical(self):
        a = generate_task(TaskConfig(seed=42))
        b = generate_task(TaskConfig(seed=42))
        assert np.array_equal(a.tokens_train, b.tokens_train)
        assert np.array_equal(a.labels_train, b.labels_train)
        assert np.array_equal(a.tokens_val, b.tokens_val)

    def test_different_seed_differs(self):
        a = generate_task(TaskConfig(seed=1))
        b = generate_task(TaskConfig(seed=2))
        assert not np.array_equal(a.tokens_train, b.tokens_train)

    def test_three_class_balance_within_five_percent(self):
        task = generate_task(TaskConfig(seed=0))
        for labels, count in ((task.labels_train, 512), (task.labels_val, 256)):
            hist = np.bincount(labels, minlength=3) / count
            assert np.all(np.abs(hist - 1.0 / 3) <= 0.05)

    def test_labels_match_rule(self):
        task = generate_task(TaskConfig(seed=7))
        for seq, label in zip(task.tokens_train[:50], task.labels_train[:50]):
            assert bucket_label(seq, 3) == label

    def test_bucket_label_hand_cases(self):
        assert bucket_label([0, 3, 6, 1], 3) == 0
        assert bucket_label([1, 4, 7, 2, 5], 3) == 1
        assert bucket_label([0, 1], 2) == 0  # tie resolves low

    def test_tokens_in_range(self):
        task = generate_task(TaskConfig(seed=3))
        assert task.tokens_train.min() >= 0
        assert task.tokens_train.max() < 64
        assert task.tokens_train.shape == (512, 16)

    @pytest.mark.parametrize("cfg, sha256", [
        (TaskConfig(seed=0),
         "4c9dee4cab66ff6e7b087d9ca29ca62e696afc842c4ecf4624f817dfa2f3a262"),
        (TaskConfig(seed=3),
         "5f4e90abdfe4d2b5068dd4eeef95519dd2dc0264444dc85e776ddf4a981375ba"),
        (TaskConfig(seed=11),
         "03897482383cb18fd930747f4bf02007ba70525c36e67711ea029b05b8f6bfb6"),
        (TaskConfig(seed=5, num_classes=2, train_count=40, val_count=24),
         "3f46eb56822b94dd17a7b4b0e8b131a289ad454a2f047d43ed8eae26842c49ba"),
    ])
    def test_bytes_pinned(self, cfg, sha256):
        """Both splits' tokens and labels, as little-endian int64, hash
        to the bytes every earlier version of the sampler produced."""
        task = generate_task(cfg)
        digest = hashlib.sha256()
        for part in (task.tokens_train, task.labels_train,
                     task.tokens_val, task.labels_val):
            digest.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
        assert digest.hexdigest() == sha256

    def test_config_validation(self):
        with pytest.raises(RangeError):
            TaskConfig(seed=0, num_classes=1)
        with pytest.raises(RangeError):
            TaskConfig(seed=0, bucket_bias=1.0)
        with pytest.raises(RangeError):
            TaskConfig(seed=0, train_count=0)


class TestTraining:
    def test_cross_entropy_uniform(self):
        loss, dlogits = cross_entropy(np.zeros((1, 3)), np.array([0]))
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)
        assert np.allclose(dlogits, [[1 / 3 - 1, 1 / 3, 1 / 3]])

    def test_teacher_reaches_ninety_percent(self):
        task = generate_task(TaskConfig(seed=0))
        model = init_model(TOY_CONFIG, seed=0)
        history = train_classifier(model, task, epochs=20, lr=2e-3, seed=1)
        assert history[-1].val_accuracy >= 0.90

    def test_two_class_majority_teacher(self):
        cfg = TaskConfig(seed=3, num_classes=2, train_count=2000, val_count=400)
        task = generate_task(cfg)
        model = init_model(TOY_CONFIG, seed=0)
        history = train_classifier(model, task, epochs=5, lr=2e-3, seed=1)
        assert history[-1].val_accuracy >= 0.95

    def test_divergence_raises(self):
        """At lr 100 the first epoch's mean loss is 248.8, over 10 x ln 3;
        training used to go on and return a chance-level teacher."""
        task = generate_task(TaskConfig(seed=0, train_count=64, val_count=32))
        model = init_model(TOY_CONFIG, seed=0)
        with pytest.raises(DivergenceError, match="uniform guess") as info:
            train_classifier(model, task, epochs=3, lr=100.0)
        assert info.value.state == {"epoch": 0, "step": 2,
                                    "recent_records": ()}

    def test_non_finite_forward_raises_divergence(self):
        """Training the model, or distilling a baseline from it, fails
        at the first forward with the same state."""
        task = generate_task(TaskConfig(seed=0, train_count=64, val_count=32))
        model = init_model(TOY_CONFIG, seed=0)
        model.params["cls.w"][0, 0] = np.nan
        for train in (lambda: train_classifier(model, task, epochs=1,
                                               lr=2e-3),
                      lambda: run_baseline(model, 7899, task, epochs=1)):
            with pytest.raises(DivergenceError) as info:
                train()
            assert isinstance(info.value.__cause__, NonFiniteError)
            assert info.value.state == {"epoch": 0, "step": 0,
                                        "recent_records": ()}

    def test_baseline_schedule_checked(self):
        task = generate_task(TaskConfig(seed=0, train_count=64, val_count=32))
        model = init_model(TOY_CONFIG, seed=0)
        for epochs, batch_size, seed in ((-1, 32, 0), (1, 0, 0), (1, 32, -1)):
            with pytest.raises(RangeError):
                run_baseline(model, 7899, task, epochs, seed=seed,
                             batch_size=batch_size)

    def test_training_determinism(self):
        task = generate_task(TaskConfig(seed=5, train_count=64, val_count=32))
        runs = []
        for _ in range(2):
            model = init_model(TOY_CONFIG, seed=2)
            train_classifier(model, task, epochs=2, lr=1e-3, seed=3)
            runs.append(model)
        for key in runs[0].params:
            assert np.array_equal(runs[0].params[key], runs[1].params[key])

    def test_evaluate_holds_no_step_activations(self, monkeypatch):
        """When an epoch-end evaluate starts, train_classifier has freed
        its last step's trace and cache: memory allocated since training
        began is Adam's two moments plus at most 64 KiB (a batch-32 toy
        trace and cache take about 3.5 MB)."""
        task = generate_task(TaskConfig(seed=3, train_count=64))
        model = init_model(TOY_CONFIG, seed=3)
        tasks = sys.modules["slimformer.tasks"]
        held = []

        def spy(model, tokens, labels):
            held.append(tracemalloc.get_traced_memory()[0])
            return evaluate(model, tokens, labels)

        monkeypatch.setattr(tasks, "evaluate", spy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_classifier(model, task, epochs=2, lr=2e-3, seed=1)
        finally:
            tracemalloc.stop()
        moments = 2 * sum(v.nbytes for v in model.params.values())
        assert len(held) == 2
        assert max(held) - start <= moments + 2 ** 16

    def test_evaluate_bounds(self):
        task = generate_task(TaskConfig(seed=6, train_count=32, val_count=32))
        model = init_model(TOY_CONFIG, seed=4)
        acc = evaluate(model, task.tokens_val, task.labels_val)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_checks_labels(self):
        """One label per sequence, at least one sequence: a short label
        row no longer broadcasts over the last chunk, an empty split no
        longer divides by zero."""
        task = generate_task(TaskConfig(seed=6, train_count=32))
        model = init_model(TOY_CONFIG, seed=4)
        tokens, labels = task.tokens_val, task.labels_val
        assert len(tokens) == 256
        for bad in (labels[:129], labels[:255], np.append(labels, 0),
                    labels[:, None], labels[0]):
            with pytest.raises(InputError):
                evaluate(model, tokens, bad)
        with pytest.raises(InputError):
            evaluate(model, tokens[:0], labels[:0])
        with pytest.raises(InputError):
            evaluate(model, tokens[0], labels[:1])


class TestSchedule:
    @pytest.mark.parametrize("n, batch_size, epochs, seed, sha256", [
        (512, 32, 2, 0,
         "d2bf7e30e8efdb0bace852a589215af5d16585018fd9472ddd008e29ca766e3c"),
        (64, 11, 3, 5,
         "417a8d216f32c0d4a903905d2c886dce30df6eb954f21c0d6850fec766687344"),
    ])
    def test_draws_pinned(self, n, batch_size, epochs, seed, sha256):
        """Each step's epoch, batch length and indices, as little-endian
        int64, hash to the draws of the per-epoch permute-and-slice loop
        every earlier trainer wrote out inline."""
        digest = hashlib.sha256()
        for epoch, idx in batch_schedule(np.random.default_rng(seed), n,
                                         batch_size, epochs):
            digest.update(np.array([epoch, len(idx), *idx],
                                   dtype="<i8").tobytes())
        assert digest.hexdigest() == sha256

    def test_one_training_loop(self):
        """batch_schedule is the package's only permutation, and the
        acceptance checks import no distill_step or Adam to train with."""
        inside, outside = source_sites("tasks.py:batch_schedule", lambda n: (
            isinstance(n, ast.Attribute) and n.attr == "permutation"))
        assert len(inside) == 1 and not outside
        tree = ast.parse((SOURCE.parents[1] / "tests" / "test_acceptance.py")
                         .read_text(encoding="utf-8"))
        assert not {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names} & {"distill_step", "Adam"}
