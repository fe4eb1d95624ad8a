"""The benchmark's view of the library: perfbench/spans.py wraps
functions and methods by name and reads the bundle functions' path
argument by position, so a rename there breaks only a traced run.
These tests import the benchmark's tracer read-only and keep those
names and positions pinned."""

import importlib
import os
from pathlib import Path

import pytest

from slimformer import (CompressionPlan, allocate, model, one_shot_compress,
                        solve_budget, tensor)
from slimformer.model import TOY_CONFIG, init_model, load_model, save_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_tracer_wraps_and_restores_every_name(spans):
    originals = (tensor.save_bundle, tensor.load_bundle,
                 model.EncoderModel.to_bundle)
    with spans.Tracer().installed():
        wrapped = (tensor.save_bundle, tensor.load_bundle,
                   model.EncoderModel.to_bundle)
        assert [w.__wrapped__ for w in wrapped] == list(originals)
    assert (tensor.save_bundle, tensor.load_bundle,
            model.EncoderModel.to_bundle) == originals


def test_traced_round_trip_counts_the_file_bytes(spans, tmp_path):
    tracer = spans.Tracer()
    base = tmp_path / "toy"
    source = init_model(TOY_CONFIG, seed=0)
    with tracer.installed():
        save_model(source, base)
        load_model(base)
    size = os.path.getsize(f"{base}.bundle")
    assert (tracer.counts["tensor.save_bundle.bytes"]
            == tracer.counts["tensor.load_bundle.bytes"] == size)
    for span in ("tensor.save_bundle", "tensor.load_bundle",
                 "model.to_bundle"):
        assert tracer.stats[span].calls == 1, span


def test_madds_counts_the_record_based_model(monkeypatch):
    """madds.model_madds finds factored slots by their ".a" keys: the
    seed-11 trace's figures for the toy teacher and its P=0.4 one-shot
    student."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    madds = importlib.import_module("madds")
    teacher = init_model(TOY_CONFIG, seed=11)
    plan = solve_budget(TOY_CONFIG.shapes(), 0.4, p_embd=0.55, p_svd=0.45)
    student = one_shot_compress(teacher, plan)
    assert student.retained_count() == 7899
    assert madds.model_madds(teacher) == 295_008
    assert madds.model_madds(student) == 153_696


@pytest.mark.parametrize("p_svd", [0.45, 1.0], ids=["hybrid", "prune-only"])
def test_planned_student_follows_the_allocation(monkeypatch, p_svd):
    """workloads.planned_student reads each EntryPlan's kind, rank and
    ones counts: the wide-infer student built from the toy allocation
    retains the target and has the allocation's slot kinds and ranks,
    and madds.table reports the same retained count."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    madds = importlib.import_module("madds")
    alloc = allocate(TOY_CONFIG.shapes(), CompressionPlan(0.4, 0.55, p_svd))
    student = workloads.planned_student(init_model(TOY_CONFIG, seed=11),
                                        alloc, 11)
    assert alloc.retained_count == student.retained_count() == 7899
    for e in alloc.entries:
        slot = student.slots[e.name]
        assert slot.kind.replace("masked-", "") == e.kind, e.name
        assert slot.rank == (e.rank if e.kind == "factored" else None)
    assert "7899 of 19747" in "\n".join(madds.table(TOY_CONFIG, "toy"))
