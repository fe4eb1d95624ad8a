import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from slimformer.budget import (
    CompressionPlan,
    ShapeTable,
    allocate,
    load_plan,
    plan_check,
    plan_from_fractions,
    pruning_fraction,
    save_plan,
    solve_budget,
    transformer_shapes,
)
from slimformer.errors import InfeasibleBudgetError, InputError, RangeError
from slimformer.tensor import GROUPS

TOY = transformer_shapes(64, 32, 2, 64, 16, 3)
REFERENCE = transformer_shapes(30522, 768, 12, 3072, 512, 3,
                               token_type_count=2, embed_layernorm=True,
                               pooler=True)


def test_shape_table_group_totals():
    assert TOY.group_total() == 19747
    assert TOY.group_total("embedding") == 2560
    assert TOY.group_total("encoder") == 17088
    assert TOY.group_total("classifier") == 99


def test_reference_stack_group_totals():
    assert REFERENCE.group_total("embedding") == 23837184
    assert REFERENCE.group_total("encoder") == 85054464
    assert REFERENCE.group_total("classifier") == 592899
    assert REFERENCE.group_total() == 109484547


def test_shape_table_validation():
    with pytest.raises(InputError):
        ShapeTable([("a", "nonsense", 2, 2)])
    with pytest.raises(InputError):
        ShapeTable([("a", "encoder", 2, 2), ("a", "encoder", 3, 3)])
    with pytest.raises(RangeError):
        ShapeTable([("a", "encoder", 0, 2)])


def test_solve_budget_hand_value():
    # groups sized 30 / 60 / 10, P=0.5: p_weight = (50 - 15 - 10) / 60
    shapes = ShapeTable([("e", "embedding", 5, 6), ("w", "encoder", 6, 10),
                         ("c", "classifier", 2, 5)])
    plan = solve_budget(shapes, 0.5, 0.5, 1.0)
    assert abs(pruning_fraction(shapes, plan) - 25.0 / 60.0) < 1e-12


def test_solve_budget_reference_row():
    plan = solve_budget(REFERENCE, 0.4, 1 / 1.43, 0.5)
    stated = 1 / 1.56
    assert abs(pruning_fraction(REFERENCE, plan) - stated) / stated < 0.05


def test_solve_budget_clamps_and_notes():
    # generous budget on a tiny encoder: solved p_weight would exceed 1
    shapes = ShapeTable([("e", "embedding", 8, 8), ("w", "encoder", 8, 8),
                         ("c", "classifier", 2, 2)])
    plan = solve_budget(shapes, 0.99, 0.9, 0.9)
    assert pruning_fraction(shapes, plan) == 1.0
    assert allocate(shapes, plan).notes == (
        "budget exceeds encoder factor storage by 31 params; masks disabled",)
    report = plan_check(shapes, plan)
    encoder = [g for g in report.groups if g.group == "encoder"][0]
    assert encoder.target_fraction == 0.9  # p_svd times the clamped 1
    # no encoder at all: nothing to prune, the unspent budget is a note
    no_encoder = ShapeTable([("e", "embedding", 8, 8),
                             ("c", "classifier", 2, 2)])
    plan = solve_budget(no_encoder, 0.99, 0.9, 0.9)
    report = plan_check(no_encoder, plan)
    assert report.feasible
    assert report.allocation.notes == (
        "no encoder factor storage; 15 params of budget left unused",)


def test_solve_budget_infeasible():
    with pytest.raises(InfeasibleBudgetError) as exc:
        solve_budget(TOY, 0.01, 0.5, 0.5)
    assert exc.value.slack < 0
    with pytest.raises(InfeasibleBudgetError) as direct:
        allocate(TOY, CompressionPlan(0.01, 0.5, 0.5))
    assert direct.value.slack == exc.value.slack
    big_cls = ShapeTable([("w", "encoder", 8, 8), ("c", "classifier", 40, 40)])
    with pytest.raises(InfeasibleBudgetError):
        solve_budget(big_cls, 0.5, 1.0, 0.5)  # classifier alone is 96%


def test_solve_budget_range_errors():
    """The plan's own checks run first, in field order, so a bad delta
    on a table with no encoder is a RangeError, not infeasible."""
    for args, message in [((0.0, 0.5, 0.5), "p_overall must be in (0, 1]"),
                          ((0.4, 1.5, 0.5), "p_embd must be in (0, 1]"),
                          ((0.4, 0.5, -1.0), "p_svd must be in (0, 1]")]:
        with pytest.raises(RangeError, match=re.escape(message)):
            solve_budget(TOY, *args)
    no_encoder = ShapeTable([("c", "classifier", 4, 4)])
    with pytest.raises(RangeError, match="delta"):
        solve_budget(no_encoder, 0.5, 0.5, 0.5, delta=1.0)
    with pytest.raises(InfeasibleBudgetError):
        solve_budget(no_encoder, 0.5, 0.5, 0.5)


def test_solved_plan_allocation_is_exact():
    plan = solve_budget(TOY, 0.4, 0.55, 0.45)
    alloc = allocate(TOY, plan)
    assert alloc.target_count == 7899  # round(0.4 * 19747)
    assert alloc.retained_count == 7899
    report = plan_check(TOY, plan)
    assert report.feasible
    assert report.violations == ()
    assert abs(report.achieved_overall - 0.4) <= 0.01 * 0.4


def test_plan_check_identity_plan():
    plan = CompressionPlan(1.0, 1.0, 1.0)
    report = plan_check(TOY, plan)
    assert report.feasible
    assert report.achieved_overall == 1.0


def test_plan_check_reference_rows_absolute():
    # stated per-group factors of the four published configurations
    rows = [(0.4, 1 / 1.43, 0.5, 1 / 1.56),
            (0.2, 1 / 2.05, 0.5, 1 / 3.41),
            (2 / 15, 1 / 5.0, 0.5, 1 / 4.33),
            (0.1, 1 / 5.0, 0.4, 1 / 5.45)]
    frozen = [0.406663, 0.225531, 0.138667, 0.105977]
    for (target, pe, ps, pw), want in zip(rows, frozen):
        plan = plan_from_fractions(REFERENCE, pe, ps, pw)
        report = plan_check(REFERENCE, plan)
        assert report.feasible
        assert abs(report.achieved_overall - want) < 1e-6
        assert abs(report.achieved_overall - target) < 0.05


def test_classifier_group_always_full():
    plan = solve_budget(TOY, 0.4, 0.55, 0.45)
    report = plan_check(TOY, plan)
    cls = [g for g in report.groups if g.group == "classifier"][0]
    assert cls.retained == cls.original == 99


def test_monotonicity_in_p_embd():
    solved = [pruning_fraction(TOY, solve_budget(TOY, 0.5, pe, 0.5))
              for pe in (0.3, 0.5, 0.7, 0.9)]
    for hi, lo in zip(solved, solved[1:]):
        assert lo < hi


def test_achieved_within_one_percent_on_wide_bundles():
    # bundles whose matrices all have dims >= 32
    rng = np.random.default_rng(11)
    for trial in range(10):
        entries = [("emb", "embedding", int(rng.integers(32, 128)),
                    int(rng.integers(32, 128)))]
        for i in range(int(rng.integers(2, 6))):
            entries.append((f"w{i}", "encoder", int(rng.integers(32, 128)),
                            int(rng.integers(32, 128))))
        entries.append(("cls", "classifier", 32, int(rng.integers(2, 8))))
        shapes = ShapeTable(entries)
        p = float(rng.uniform(0.3, 0.8))
        try:
            plan = solve_budget(shapes, p, float(rng.uniform(0.3, 0.9)),
                                float(rng.uniform(0.3, 0.6)))
        except InfeasibleBudgetError:
            continue
        if allocate(shapes, plan).notes:  # an unspent budget is noted
            continue
        report = plan_check(shapes, plan)
        assert abs(report.achieved_overall - p) <= 0.01 * p


def test_implied_overall_round_trip():
    plan = solve_budget(TOY, 0.4, 0.55, 0.45)
    implied = plan_from_fractions(TOY, plan.p_embd, plan.p_svd,
                                  pruning_fraction(TOY, plan)).p_overall
    assert abs(implied - 0.4) < 1e-12


# exactly 1 skips a stage, so it is drawn on its own as well
unit_fractions = st.one_of(st.just(1.0),
                           st.floats(0.0, 1.0, exclude_min=True))
stated_fractions = st.sampled_from([1 / 1.43, 1 / 1.56, 1 / 2.05, 2 / 15])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(stated_fractions, unit_fractions),
       st.one_of(stated_fractions, unit_fractions),
       st.one_of(stated_fractions, unit_fractions),
       st.one_of(stated_fractions,
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
@example(0.4, 0.55, 0.45, 0.9)
def test_plan_file_round_trip(tmp_path, p_overall, p_embd, p_svd, delta):
    """Every field is written as its f-string text and read back to the
    same float, bit for bit."""
    plan = CompressionPlan(p_overall, p_embd, p_svd, delta=delta)
    path = tmp_path / "plan.txt"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded == plan
    assert ([float(v).hex() for v in astuple(loaded)]
            == [float(v).hex() for v in astuple(plan)])


def test_plan_file_errors(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("p_overall=0.4\nthis line is wrong\n")
    with pytest.raises(InputError):
        load_plan(path)
    path.write_text("p_overall=0.4\np_embd=0.5\n")
    with pytest.raises(InputError):
        load_plan(path)
    path.write_text("p_overall=abc\np_embd=0.5\np_svd=0.5\n")
    with pytest.raises(InputError):
        load_plan(path)
    with pytest.raises(InputError):
        load_plan(tmp_path / "missing.txt")


@pytest.mark.parametrize("text, key", [
    ("p_overall=0.4\np_embd=0.55\np_svd=0.45\np_weight=0.83\n", "p_weight"),
    ("p_overall=0.4\np_embd=0.55\np_svd=0.45\nrank=3\n", "rank"),
    ("p_overall=0.4\np_embd=0.55\np_svd=0.45\np_svd=0.5\n", "p_svd"),
    ("p_overall=0.4\np_embd=0.55\n", "p_svd"),
    ("p_overall=0.4\np_embd=0.55\np_svd=0.45\nseed=x\n", "seed"),
    ("p_overall=0.4\np_embd=0.55\np_svd=0.45\nseed=7\n", "seed"),
    ("p_overall=0.4\np_embd=0.55\np_svd=0.45\ndelta=0.9\nnotes=\n",
     "notes"),
])
def test_plan_file_keys_are_strict(tmp_path, text, key):
    """A retired p_weight, seed or notes line, an unknown, repeated or
    missing key, or a bad value is an InputError naming the file and
    the key."""
    path = tmp_path / "plan.txt"
    path.write_text(text)
    with pytest.raises(InputError, match=f"plan.txt.*'{key}'"):
        load_plan(path)


def test_plan_file_has_no_pruning_fraction(tmp_path):
    path = tmp_path / "plan.txt"
    save_plan(solve_budget(TOY, 0.4, 0.55, 0.45), path)
    keys = [line.split("=")[0] for line in path.read_text().splitlines()]
    assert keys == ["p_overall", "p_embd", "p_svd", "delta"]
    path.write_text("# comment\n\np_overall=0.4\np_embd=0.55\np_svd=0.45\n")
    assert load_plan(path) == CompressionPlan(0.4, 0.55, 0.45)


def test_plan_fraction_validation():
    with pytest.raises(RangeError):
        CompressionPlan(0.4, 0.5, 1.5)
    with pytest.raises(RangeError):
        CompressionPlan(0.4, 0.5, 0.5, delta=1.0)


@st.composite
def shape_tables(draw):
    """1 to 8 entries of any group, each dimension in [1, 40]."""
    return ShapeTable([(f"w{i}", draw(st.sampled_from(GROUPS)),
                        draw(st.integers(1, 40)), draw(st.integers(1, 40)))
                       for i in range(draw(st.integers(1, 8)))])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(shape_tables(), unit_fractions, unit_fractions, unit_fractions)
def test_allocation_lands_on_target_or_notes_why(shapes, p_overall, p_embd,
                                                 p_svd):
    """Any table and plan either raise InfeasibleBudgetError or give
    exact counts: round(P * total) retained, or fewer with a note, and
    every factored pair within its matrix."""
    try:
        alloc = allocate(shapes, CompressionPlan(p_overall, p_embd, p_svd))
    except InfeasibleBudgetError:
        return
    target = math.floor(p_overall * shapes.group_total() + 0.5)
    assert alloc.target_count == target
    assert alloc.retained_count == sum(e.retained for e in alloc.entries)
    assert alloc.retained_count == target or (
        alloc.retained_count < target and alloc.notes)
    assert [(e.name, e.rows, e.cols) for e in alloc.entries] == [
        (e.name, e.rows, e.cols) for e in shapes]
    for e in alloc.entries:
        if e.kind == "factored":
            assert 1 <= e.rank <= min(e.rows, e.cols)
            assert 0 <= e.ones_a <= e.rows * e.rank
            assert 0 <= e.ones_b <= e.cols * e.rank
            assert (e.rows + e.cols) * e.rank <= e.rows * e.cols
        elif e.kind == "masked":
            assert 0 <= e.ones <= e.rows * e.cols
