"""Acceptance gate: eight checks covering exact math, oracle values,
gradient fidelity, and the behavioral claims.

Each test prints one PASS/FAIL line (run with -s to see them all); the
line carries the measured numbers so a failure is diagnosable from the
log alone.
"""

import math
import time
from dataclasses import replace

import numpy as np

from slimformer.analysis import bias_study, gaussian_testbed
from slimformer.budget import (plan_check, plan_from_fractions, solve_budget,
                               transformer_shapes)
from slimformer.distill import (DistillConfig, distill_injections,
                                prediction_loss)
from slimformer.factorize import factor_ratio, rank_for_ratio
from slimformer.model import TOY_CONFIG, init_model
from slimformer.pipeline import one_shot_compress, run_baseline, run_pipeline
from slimformer.svd import svd
from slimformer.tasks import (TaskConfig, evaluate, generate_task,
                              train_classifier)

from fd_harness import FD_TOL, fd_relative, trace_functional, traced

REFERENCE = transformer_shapes(30522, 768, 12, 3072, 512, 3,
                               token_type_count=2, embed_layernorm=True,
                               pooler=True)


def _line(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {num}. {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_svd_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_orth = worst_recon = worst_trunc = 0.0
    random_losses = 0
    for _ in range(200):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 49))
        w = rng.normal(size=(m, n))
        res = svd(w)
        u, s, v = res.u, res.singular_values, res.v
        p = len(s)
        worst_orth = max(
            worst_orth,
            float(np.max(np.abs(u.T @ u - np.eye(p)))),
            float(np.max(np.abs(v.T @ v - np.eye(p)))),
        )
        worst_recon = max(worst_recon, float(np.max(np.abs(
            (u * s) @ v.T - w))))

        r = int(rng.integers(1, p + 1))
        # U_r S_r V_r^T against the norm of the discarded spectrum
        direct = np.linalg.norm(w - (u[:, :r] * s[:r]) @ v[:, :r].T)
        best = float(np.sqrt(np.sum(s[r:] ** 2)))
        worst_trunc = max(worst_trunc, abs(direct - best))
        for _ in range(100):
            a = rng.normal(size=(m, r))
            b = rng.normal(size=(n, r))
            challenger = np.linalg.norm(w - a @ b.T)
            if challenger < best - 1e-10:
                random_losses += 1
    elapsed = time.perf_counter() - started
    ok = (worst_orth < 1e-8 and worst_recon < 1e-8 and worst_trunc < 1e-8
          and random_losses == 0 and elapsed < 30.0)
    _line(1, "svd correctness", ok,
          f"orth {worst_orth:.2e}, recon {worst_recon:.2e}, "
          f"trunc {worst_trunc:.2e}, losses to random {random_losses}, "
          f"{elapsed:.1f}s of 30s")


def test_02_ratio_algebra():
    r = rank_for_ratio(768, 768, 0.5)
    ratio = factor_ratio(768, 768, 192)
    hybrid = factor_ratio(768, 768, 192) / 1.56
    ok = (r == 192 and round(ratio, 4) == 0.5
          and round(hybrid, 4) == 0.3205)
    _line(2, "ratio algebra", ok,
          f"rank {r}, factor ratio {ratio:.4f}, hybrid {hybrid:.4f}")


def test_03_reference_row_consistency():
    # each row: stated overall target and per-group reduction factors
    rows = [(0.4, 1 / 1.43, 0.5, 1 / 1.56),
            (0.2, 1 / 2.05, 0.5, 1 / 3.41),
            (2 / 15, 1 / 5.0, 0.5, 1 / 4.33),
            (0.1, 1 / 5.0, 0.4, 1 / 5.45)]
    ok = True
    details = []
    for target, p_embd, p_svd, p_weight in rows:
        stated = plan_check(REFERENCE,
                            plan_from_fractions(REFERENCE, p_embd, p_svd,
                                                p_weight))
        solved = plan_check(REFERENCE,
                            solve_budget(REFERENCE, target, p_embd, p_svd))
        abs_err = abs(stated.achieved_overall - target)
        rel_err = abs_err / target
        # 5% read as absolute difference in retained fraction; the
        # relative figure is printed alongside for transparency
        row_ok = (stated.feasible and abs_err <= 0.05 and solved.feasible
                  and abs(solved.achieved_overall - target) <= 0.01 * target)
        ok = ok and row_ok
        details.append(f"target {target:.4f} achieved "
                       f"{stated.achieved_overall:.4f} "
                       f"(abs {abs_err:.4f}, rel {rel_err:.1%})")
    _line(3, "reference row consistency", ok, "; ".join(details))


def test_04_gradient_fidelity():
    started = time.perf_counter()
    model = init_model(TOY_CONFIG, seed=4)
    rng = np.random.default_rng(41)
    tokens = rng.integers(0, TOY_CONFIG.vocab_size, size=(4, 12))

    classes = {
        "embedding": lambda k: k.endswith("_embed"),
        "attention weights": lambda k: ".attn.w" in k,
        "attention biases": lambda k: ".attn.b" in k,
        "layer norms": lambda k: ".ln" in k,
        "ffn weights": lambda k: ".ffn.w" in k,
        "ffn biases": lambda k: ".ffn.b" in k,
        "classifier": lambda k: k.startswith("cls."),
    }
    loss, inj = trace_functional(model, tokens, seed=42)
    _, cache = model.forward(tokens, with_cache=True)
    grads = model.backward(cache, inj)

    worst = 0.0
    for name, member in classes.items():
        keys = [k for k in model.params if member(k)]
        assert keys, f"no parameters matched class {name}"
        for _ in range(20):
            key = keys[int(rng.integers(len(keys)))]
            shape = model.params[key].shape
            index = np.unravel_index(int(rng.integers(math.prod(shape))),
                                     shape)
            rel = fd_relative(model, tokens, key, index, loss,
                              grads[key][index])
            worst = max(worst, rel)

    # the same probes through the distillation objective
    teacher = init_model(TOY_CONFIG, seed=5)
    student = init_model(TOY_CONFIG, seed=6)
    cfg = DistillConfig()
    teacher_trace = traced(teacher, tokens)

    def distill_loss(trace):
        return distill_injections(teacher_trace, trace, cfg)[0]

    student_trace, cache = student.forward(tokens, with_cache=True)
    _, _, d_inj = distill_injections(teacher_trace, student_trace, cfg)
    d_grads = student.backward(cache, d_inj)
    keys = list(student.params)
    worst_distill = 0.0
    for _ in range(24):
        key = keys[int(rng.integers(len(keys)))]
        shape = student.params[key].shape
        index = np.unravel_index(int(rng.integers(math.prod(shape))), shape)
        rel = fd_relative(student, tokens, key, index, distill_loss,
                          d_grads[key][index])
        worst_distill = max(worst_distill, rel)

    elapsed = time.perf_counter() - started
    ok = worst < FD_TOL and worst_distill < FD_TOL and elapsed < 60.0
    _line(4, "gradient fidelity", ok,
          f"worst rel {worst:.2e} per class, {worst_distill:.2e} through "
          f"distillation, {elapsed:.1f}s of 60s")


def test_05_distillation_loss_values():
    two = prediction_loss(np.zeros(2), np.zeros(2))
    uniform_err = abs(two - math.log(2.0))

    model = init_model(TOY_CONFIG, seed=7)
    tokens = np.random.default_rng(8).integers(0, 64, size=(3, 10))
    trace = traced(model, tokens)
    breakdown = distill_injections(trace, trace, DistillConfig())[1]
    mse_terms = (breakdown["embedding"], breakdown["attention"],
                 breakdown["hidden"])

    rng = np.random.default_rng(9)
    teacher_logits = rng.normal(size=(4, 5))
    student_logits = rng.normal(size=(4, 5))
    base = prediction_loss(teacher_logits, student_logits)
    shift_err = max(
        abs(prediction_loss(teacher_logits + c, student_logits + d) - base)
        for c in (-7.0, 3.0, 250.0) for d in (-2.0, 11.0))

    ok = (uniform_err <= 1e-9 and all(t == 0.0 for t in mse_terms)
          and shift_err <= 1e-12)
    _line(5, "distillation loss values", ok,
          f"uniform err {uniform_err:.1e}, self mse {mse_terms}, "
          f"shift err {shift_err:.1e}")


def _paired_run(seed):
    """One pipeline student and one matched pure-prediction student."""
    task = generate_task(TaskConfig(seed=seed))
    teacher = init_model(TOY_CONFIG, seed=seed)
    train_classifier(teacher, task, epochs=20, lr=2e-3, seed=seed + 100)
    teacher_acc = evaluate(teacher, task.tokens_val, task.labels_val)

    plan = replace(solve_budget(TOY_CONFIG.shapes(), 0.4,
                                p_embd=0.55, p_svd=0.45), delta=0.8)
    result = run_pipeline(teacher, plan, task, seed=seed + 200)
    # as many steps as the pipeline: its iterations times two epochs
    baseline = run_baseline(teacher, result.student.retained_count(), task,
                            epochs=2 * len(result.states), seed=seed + 300)
    assert len(baseline.records) == len(result.records)

    def first_step(records):
        return next((i for i, r in enumerate(records)
                     if r.val_accuracy >= 0.9 * teacher_acc), len(records))

    return (first_step(result.records), first_step(baseline.records),
            result.records[-1].val_accuracy, baseline.records[-1].val_accuracy)


def test_06_pipeline_beats_pure_prediction_distillation():
    started = time.perf_counter()
    step_wins = final_wins = 0
    rows = []
    for seed in range(5):
        p_step, b_step, p_final, b_final = _paired_run(seed)
        step_wins += int(p_step < b_step)
        final_wins += int(p_final >= b_final)
        rows.append(f"seed {seed}: steps {p_step} vs {b_step}, "
                    f"final {p_final:.3f} vs {b_final:.3f}")
    elapsed = time.perf_counter() - started
    ok = step_wins >= 4 and final_wins >= 4 and elapsed < 600.0
    _line(6, "pipeline beats pure prediction distillation", ok,
          f"step wins {step_wins}/5, final wins {final_wins}/5, "
          f"{elapsed:.0f}s of 600s [" + "; ".join(rows) + "]")


def test_07_hybrid_bias_spread():
    started = time.perf_counter()
    wins = 0
    for w in gaussian_testbed(20, rows=64, cols=64, seed=0):
        _, svd_hist, hybrid_hist = bias_study(w, 0.2, split=(0.4, 0.5))
        wins += int(hybrid_hist.std < svd_hist.std)
    elapsed = time.perf_counter() - started
    ok = wins >= 18 and elapsed < 60.0
    _line(7, "hybrid bias spread", ok,
          f"hybrid narrower in {wins}/20 trials, {elapsed:.1f}s of 60s")


def test_08_pipeline_accounting():
    teacher = init_model(TOY_CONFIG, seed=3)
    task = generate_task(TaskConfig(seed=3))
    plan = replace(solve_budget(TOY_CONFIG.shapes(), 0.4,
                                p_embd=0.55, p_svd=0.45), delta=0.8)
    first = run_pipeline(teacher, plan, task, seed=9)
    second = run_pipeline(teacher, plan, task, seed=9)

    fractions = [s.retained_fraction for s in first.states]
    non_increasing = all(a >= b - 1e-12
                         for a, b in zip(fractions, fractions[1:]))
    final_err = abs(fractions[-1] - 0.4)

    compressed = one_shot_compress(teacher, plan)
    classifier_same = (
        np.array_equal(compressed.params["cls.w"], teacher.params["cls.w"])
        and np.array_equal(compressed.params["cls.b"],
                           teacher.params["cls.b"])
        and all(s.group_fractions["classifier"] == 1.0
                for s in first.states))

    rerun_same = (
        set(first.student.params) == set(second.student.params)
        and all(np.array_equal(first.student.params[k],
                               second.student.params[k])
                for k in first.student.params)
        and first.records == second.records)

    ok = (final_err <= 0.01 * 0.4 and non_increasing and classifier_same
          and rerun_same)
    _line(8, "pipeline accounting", ok,
          f"final fraction {fractions[-1]:.6f} (err {final_err:.2e}), "
          f"non-increasing {non_increasing}, classifier untouched "
          f"{classifier_same}, rerun identical {rerun_same}")
