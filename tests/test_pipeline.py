"""Iterative compression schedule, accounting, and the training loop."""

import csv
import hashlib
import io
import sys
from dataclasses import replace

import numpy as np
import pytest

from slimformer.budget import solve_budget
from slimformer.errors import DivergenceError, RangeError
from slimformer.factorize import factorize_layer
from slimformer.model import TOY_CONFIG, EncoderModel, init_model, save_model
from slimformer.pipeline import (
    CURVE_COLUMNS,
    TrainingRecord,
    budget_sequence,
    check_divergence,
    compress_model,
    interpolated_plan,
    one_shot_compress,
    record_curve,
    run_baseline,
    run_pipeline,
)
from slimformer.prune import topk_mask
from slimformer.tasks import TaskConfig, generate_task, train_classifier
from test_model import shares_any

TOY_TOTAL = 19747


def toy_plan(delta=0.8):
    plan = solve_budget(TOY_CONFIG.shapes(), 0.4, p_embd=0.55, p_svd=0.45)
    return replace(plan, delta=delta)


def small_task(seed=0, count=64):
    return generate_task(TaskConfig(seed=seed, train_count=count, val_count=32))


class TestBudgetSequence:
    def test_worked_example(self):
        seq = budget_sequence(0.8, 0.4)
        assert seq == pytest.approx([0.8, 0.64, 0.512, 0.4096, 0.4])

    def test_unit_target_is_empty(self):
        assert budget_sequence(0.8, 1.0) == []

    def test_delta_below_target_single_event(self):
        assert budget_sequence(0.3, 0.4) == [0.4]

    def test_exact_hit_no_duplicate(self):
        assert budget_sequence(0.8, 0.64) == pytest.approx([0.8, 0.64])

    def test_validation(self):
        with pytest.raises(RangeError):
            budget_sequence(1.0, 0.4)
        with pytest.raises(RangeError):
            budget_sequence(0.8, 0.0)


class TestInterpolation:
    def test_final_budget_recovers_plan(self):
        plan = toy_plan()
        final = interpolated_plan(plan, plan.p_overall)
        assert final.p_embd == pytest.approx(plan.p_embd, abs=1e-12)
        assert final.p_svd == pytest.approx(plan.p_svd, abs=1e-12)

    def test_fractions_shrink_with_budget(self):
        plan = toy_plan()
        budgets = budget_sequence(plan.delta, plan.p_overall)
        previous = interpolated_plan(plan, budgets[0])
        assert previous.p_embd > plan.p_embd
        for budget in budgets[1:]:
            current = interpolated_plan(plan, budget)
            assert current.p_embd < previous.p_embd
            assert current.p_svd < previous.p_svd
            previous = current

    def test_unit_fraction_stays_unit(self):
        plan = replace(toy_plan(), p_embd=1.0)
        assert interpolated_plan(plan, 0.8).p_embd == 1.0


class TestCompressModel:
    def test_hits_target_exactly(self):
        teacher = init_model(TOY_CONFIG, seed=0)
        student, alloc = compress_model(teacher, toy_plan())
        assert alloc.retained_count == alloc.target_count == 7899
        assert student.retained_count() == 7899

    def test_classifier_untouched(self):
        teacher = init_model(TOY_CONFIG, seed=1)
        student, _ = compress_model(teacher, toy_plan())
        assert np.array_equal(student.params["cls.w"], teacher.params["cls.w"])
        assert np.array_equal(student.params["cls.b"], teacher.params["cls.b"])

    def test_vectors_untouched(self):
        teacher = init_model(TOY_CONFIG, seed=2)
        student, _ = compress_model(teacher, toy_plan())
        for key in ("enc0.ln1.gamma", "enc1.attn.bq", "pos_embed"):
            if key in student.params:
                assert np.array_equal(student.params[key], teacher.params[key])

    def test_embedding_factored_without_masks(self):
        teacher = init_model(TOY_CONFIG, seed=3)
        student, _ = compress_model(teacher, toy_plan())
        assert "tok_embed.a" in student.params
        assert "tok_embed.a" not in student.masks
        assert "tok_embed.b" not in student.masks

    def test_encoder_masks_have_allocated_ones(self):
        teacher = init_model(TOY_CONFIG, seed=4)
        student, alloc = compress_model(teacher, toy_plan())
        entry = next(e for e in alloc.entries if e.name == "enc0.ffn.w1")
        assert entry.kind == "factored"
        mask_a = student.masks["enc0.ffn.w1.a"]
        mask_b = student.masks["enc0.ffn.w1.b"]
        assert int(mask_a.sum()) == entry.ones_a
        assert int(mask_b.sum()) == entry.ones_b


    def test_factored_slots_refactorize_from_their_core(self, monkeypatch):
        """Re-compressing a factored student multiplies no factored slot
        out: no effective_weight call for it, and the only SVD inputs are
        the pairs' r x r cores."""
        student, _ = compress_model(init_model(TOY_CONFIG, seed=8),
                                    interpolated_plan(toy_plan(), 0.8))
        factored = {name for name, s in student.slots.items() if s.rank}
        assert len(factored) == 14
        densified, svd_inputs = [], []
        effective_weight = EncoderModel.effective_weight
        svd = sys.modules["slimformer.svd"].svd

        def weight_spy(model, slot):
            densified.append(slot)
            return effective_weight(model, slot)

        def svd_spy(w):
            svd_inputs.append(w.shape)
            return svd(w)

        monkeypatch.setattr(EncoderModel, "effective_weight", weight_spy)
        for module in ("slimformer.svd", "slimformer.factorize"):
            monkeypatch.setattr(sys.modules[module], "svd", svd_spy)
        again, alloc = compress_model(student, toy_plan())
        assert not factored & set(densified)
        assert sorted(svd_inputs) == sorted(
            (student.params[f"{name}.a"].shape[1],) * 2 for name in factored)
        assert again.retained_count() == alloc.target_count == 7899

    def test_factored_and_densified_students_compress_alike(self):
        """A factor pair and its multiplied-out weight give the same
        student up to rounding."""
        student, _ = compress_model(init_model(TOY_CONFIG, seed=9),
                                    interpolated_plan(toy_plan(), 0.8))
        dense = EncoderModel(TOY_CONFIG, {
            e.name: student.effective_weight(e.name)
            for e in TOY_CONFIG.shapes()})
        via_core, _ = compress_model(student, toy_plan())
        via_dense, _ = compress_model(dense, toy_plan())
        assert set(via_core.params) == set(via_dense.params)
        for e in TOY_CONFIG.shapes():
            w = via_dense.effective_weight(e.name)
            assert (np.linalg.norm(via_core.effective_weight(e.name) - w)
                    <= 1e-9 * np.linalg.norm(w)), e.name
        for key, mask in via_dense.masks.items():
            assert np.array_equal(via_core.masks[key], mask), key


    @pytest.mark.parametrize("held", ["dense", "factored"])
    def test_arrays_are_factorize_then_prune(self, held):
        """Each stored array is exactly the composition: a factored entry
        keeps the ones_a / ones_b largest entries of the halves of
        factorize_layer(slot as held, rank); a masked entry the ones
        largest of the effective weight; a dense entry is the weight."""
        model = init_model(TOY_CONFIG, seed=10)
        if held == "factored":
            model, _ = compress_model(model, interpolated_plan(toy_plan(),
                                                               0.8))
        for plan in (toy_plan(), replace(toy_plan(), p_svd=1.0)):
            student, alloc = compress_model(model, plan)
            want, masks = {}, {}
            for e in alloc.entries:
                if e.kind != "factored":
                    w = model.effective_weight(e.name)
                    want[e.name] = w
                    if e.kind == "masked" and e.ones < w.size:
                        masks[e.name] = topk_mask(w, e.ones)
                        want[e.name] = w * masks[e.name]
                    continue
                held = model.slots[e.name]
                held_as = [model.params[k] for k in held.keys]  # w, or a, b
                pair = factorize_layer(held_as[0], e.rank,
                                       b=held_as[1] if held.rank else None)
                for key, arr, ones in ((f"{e.name}.a", pair.a, e.ones_a),
                                       (f"{e.name}.b", pair.b, e.ones_b)):
                    want[key] = arr
                    if ones < arr.size:
                        masks[key] = topk_mask(arr, ones)
                        want[key] = arr * masks[key]
            assert any(e.kind == "masked" for e in alloc.entries) == (
                plan.p_svd == 1.0)
            for got, expected in ((student.params, want),
                                  (student.masks, masks)):
                assert got.keys() == expected.keys()
                for key, arr in expected.items():
                    assert got[key].tobytes() == arr.tobytes(), key


class TestOneShot:
    def test_unit_plan_is_identity(self):
        teacher = init_model(TOY_CONFIG, seed=5)
        plan = replace(toy_plan(), p_overall=1.0, p_embd=1.0, p_svd=1.0)
        student = one_shot_compress(teacher, plan)
        assert set(student.params) == set(teacher.params)
        for key in teacher.params:
            assert np.array_equal(student.params[key], teacher.params[key])

    def test_matches_pipeline_student_shapes(self):
        teacher = init_model(TOY_CONFIG, seed=6)
        task = small_task()
        plan = toy_plan(delta=0.7)
        result = run_pipeline(teacher, plan, task, epochs_per_iteration=1,
                              seed=1)
        one_shot = one_shot_compress(teacher, plan)
        assert set(one_shot.params) == set(result.student.params)
        for key in one_shot.params:
            assert one_shot.params[key].shape == result.student.params[key].shape
        assert set(one_shot.masks) == set(result.student.masks)
        for key in one_shot.masks:
            assert int(one_shot.masks[key].sum()) == int(
                result.student.masks[key].sum())

    def test_retained_count_matches_target(self):
        teacher = init_model(TOY_CONFIG, seed=7)
        student = one_shot_compress(teacher, toy_plan())
        assert student.retained_count() == 7899


class TestRunPipeline:
    def test_unit_plan_zero_iterations(self):
        teacher = init_model(TOY_CONFIG, seed=8)
        plan = replace(toy_plan(), p_overall=1.0, p_embd=1.0, p_svd=1.0)
        result = run_pipeline(teacher, plan, small_task(), seed=0)
        assert result.records == ()
        assert result.states == ()
        for key in teacher.params:
            assert (result.student.params[key].tobytes()
                    == teacher.params[key].tobytes())
        assert not shares_any(result.student, teacher)

    def test_retained_fraction_non_increasing(self):
        teacher = init_model(TOY_CONFIG, seed=9)
        result = run_pipeline(teacher, toy_plan(delta=0.7), small_task(),
                              epochs_per_iteration=1, seed=2)
        fractions = [s.retained_fraction for s in result.states]
        assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_final_fraction_matches_plan(self):
        teacher = init_model(TOY_CONFIG, seed=10)
        result = run_pipeline(teacher, toy_plan(delta=0.7), small_task(),
                              epochs_per_iteration=1, seed=3)
        assert result.states[-1].retained_fraction == pytest.approx(
            0.4, rel=0.01)
        assert result.student.retained_count() == 7899

    @pytest.mark.parametrize("p_embd, p_svd", [(0.55, 0.45), (1.0, 0.45),
                                               (0.55, 1.0)])
    def test_teacher_never_mutated(self, p_embd, p_svd):
        """The student adopts the arrays compression makes; a slot kept
        whole (vectors, the classifier, and the embeddings or encoder
        matrices at a fraction of 1) must still be its own copy, or
        fine-tuning would write into the teacher."""
        teacher = init_model(TOY_CONFIG, seed=11)
        before = {k: v.copy() for k, v in teacher.params.items()}
        plan = replace(solve_budget(TOY_CONFIG.shapes(), 0.4, p_embd=p_embd,
                                    p_svd=p_svd), delta=0.7)
        result = run_pipeline(teacher, plan, small_task(),
                              epochs_per_iteration=1, seed=4)
        baseline = run_baseline(teacher, result.student.retained_count(),
                                small_task(), epochs=1, seed=4)
        for key in before:
            assert np.array_equal(teacher.params[key], before[key])
        assert not shares_any(result.student, teacher)
        assert not shares_any(baseline.student, teacher)

    def test_determinism(self):
        teacher = init_model(TOY_CONFIG, seed=12)
        task = small_task(seed=3)
        results = [run_pipeline(teacher, toy_plan(delta=0.7), task,
                                epochs_per_iteration=1, seed=7)
                   for _ in range(2)]
        a, b = results
        assert a.records == b.records
        for key in a.student.params:
            assert np.array_equal(a.student.params[key], b.student.params[key])

    def test_records_steps_monotone(self):
        teacher = init_model(TOY_CONFIG, seed=13)
        result = run_pipeline(teacher, toy_plan(delta=0.7), small_task(),
                              epochs_per_iteration=1, seed=5)
        steps = [r.step for r in result.records]
        assert steps == list(range(len(steps)))

    def test_states_carry_records(self):
        teacher = init_model(TOY_CONFIG, seed=14)
        result = run_pipeline(teacher, toy_plan(delta=0.7), small_task(),
                              epochs_per_iteration=1, seed=6)
        assert len(result.states) == 3  # 0.7, 0.49, 0.4
        for state in result.states:
            assert 0.0 < state.group_fractions["encoder"] <= 1.0
            assert state.group_fractions["classifier"] == 1.0

    def test_divergence_on_nonfinite_forward(self):
        teacher = init_model(TOY_CONFIG, seed=15)
        plan, task = toy_plan(delta=0.7), small_task()
        # the absurd learning rate overflows the forward on purpose
        for run in (lambda: run_pipeline(teacher, plan, task, 1, lr=1e90,
                                         seed=8),
                    lambda: run_baseline(teacher, 7899, task, 1, lr=1e90,
                                         seed=8)):
            with np.errstate(all="ignore"), \
                    pytest.raises(DivergenceError) as excinfo:
                run()
            assert excinfo.value.state.keys() == {"epoch", "step",
                                                  "recent_records"}

    def test_divergence_guard_rules(self):
        state = {"step": 3}
        check_divergence(1.0, 0.5, state)  # fine: 2x over minimum
        with pytest.raises(DivergenceError):
            check_divergence(float("nan"), 0.5, state)
        with pytest.raises(DivergenceError) as excinfo:
            check_divergence(5.1, 0.5, state)
        assert excinfo.value.state == state


def test_seed_set_bytes_pinned(tmp_path):
    """Seed set 3/3/103/4 (task, teacher init, teacher training, pipeline
    seeds): a toy teacher trained 20 epochs at lr 2e-3, then run_pipeline
    at P=0.4 (p_embd 0.55, p_svd 0.45, delta 0.8) at lr 1e-3.  The
    curve's and the student bundle's SHA-256s are pinned; they are the
    same with one BLAS thread and with OpenBLAS's default."""
    task = generate_task(TaskConfig(seed=3))
    teacher = init_model(TOY_CONFIG, seed=3)
    train_classifier(teacher, task, epochs=20, lr=2e-3, seed=103)
    result = run_pipeline(teacher, toy_plan(), task, lr=1e-3, seed=4)
    save_model(result.student, tmp_path / "student")
    curve = record_curve(result.records).encode()
    bundle = (tmp_path / "student.bundle").read_bytes()
    assert hashlib.sha256(curve).hexdigest() == (
        "82ace85a79b0ed037c5113a4fdf4dca8a649da0ef438daaef761e643c5969f79")
    assert hashlib.sha256(bundle).hexdigest() == (
        "94412ebf6ee89d4f8997326a4a3919972b10663c74f407915a6218cebcf2d756")


class TestRecordCurve:
    def rows(self, n):
        return [TrainingRecord(i, 0.5, 1.0 - 0.01 * i, 0.1, 0.2, 0.3, 0.4,
                               0.5 + 0.01 * i) for i in range(n)]

    def test_empty_is_header_only(self):
        text = record_curve([])
        assert text == ",".join(CURVE_COLUMNS) + "\n"

    def test_row_count_and_monotone_steps(self):
        text = record_curve(self.rows(7))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(CURVE_COLUMNS)
        assert len(parsed) == 8
        steps = [int(row[0]) for row in parsed[1:]]
        assert steps == sorted(steps)

    def test_values_round_trip(self):
        text = record_curve(self.rows(2))
        parsed = list(csv.reader(io.StringIO(text)))
        assert float(parsed[1][2]) == 1.0
        assert float(parsed[2][7]) == pytest.approx(0.51)

