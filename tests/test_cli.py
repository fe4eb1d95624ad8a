"""End-to-end command-line behavior via main(argv)."""

import csv
import io
import json
import os
import random
import shlex
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from slimformer.budget import (CompressionPlan, load_plan, pruning_fraction,
                               save_plan)
import slimformer
from slimformer import cli
from slimformer.cli import _parser, main
from slimformer.errors import RangeError
from slimformer.model import (TOY_CONFIG, init_model, load_model,
                              save_config, save_model)
from slimformer.tensor import load_bundle, save_bundle


@pytest.fixture()
def teacher_path(tmp_path):
    model = init_model(TOY_CONFIG, seed=0)
    base = tmp_path / "teacher"
    save_model(model, base)
    return str(base) + ".bundle"


def write_plan(tmp_path, **overrides):
    fields = dict(p_overall=0.4, p_embd=0.55, p_svd=0.45, delta=0.7)
    fields.update(overrides)
    path = tmp_path / "plan.txt"
    save_plan(CompressionPlan(**fields), path)
    return str(path)


def _manifest(data):
    """(manifest lines, row of each entry name, blob) of bundle bytes."""
    end = data.index(b"\n", data.index(b"\nblob ") + 1) + 1
    lines = data[:end].decode("ascii").split("\n")
    rows = {line.split()[1]: i for i, line in enumerate(lines)
            if line.startswith("entry ")}
    return lines, rows, data[end:]


def nan_payload(data):
    """A NaN as tok_embed's first value, under a recomputed checksum."""
    lines, rows, blob = _manifest(data)
    fields = lines[rows["tok_embed"]].split()
    blob = np.array([np.nan]).tobytes() + blob[8:]
    nbytes = int(fields[3]) * int(fields[4]) * 8
    fields[6] = f"{zlib.crc32(blob[:nbytes]) & 0xFFFFFFFF:08x}"
    lines[rows["tok_embed"]] = " ".join(fields)
    return "\n".join(lines).encode("ascii") + blob


def aliasing_offset(data):
    """enc0.attn.wk pointed at enc0.attn.wq's bytes and checksum."""
    lines, rows, blob = _manifest(data)
    wq = lines[rows["enc0.attn.wq"]].split()
    wk = lines[rows["enc0.attn.wk"]].split()
    wk[5:] = wq[5:]
    lines[rows["enc0.attn.wk"]] = " ".join(wk)
    return "\n".join(lines).encode("ascii") + blob


def trailing_bytes(data):
    """Bytes appended after the declared blob."""
    return data + b"junk"


def duplicate_name(data):
    """enc0.attn.wk's entry renamed enc0.attn.wq, bytes and checksum
    unchanged."""
    lines, rows, blob = _manifest(data)
    wk = lines[rows["enc0.attn.wk"]].split()
    wk[1] = "enc0.attn.wq"
    lines[rows["enc0.attn.wk"]] = " ".join(wk)
    return "\n".join(lines).encode("ascii") + blob


def retagged(data):
    """tok_embed's entry tagged classifier; checksums cover values only,
    so the file still loads."""
    lines, rows, blob = _manifest(data)
    tok = lines[rows["tok_embed"]].split()
    tok[2] = "classifier"
    lines[rows["tok_embed"]] = " ".join(tok)
    return "\n".join(lines).encode("ascii") + blob


# address-space limit of a CLI run in a child process, so that a
# runaway allocation fails the test instead of the machine
CHILD_AS_LIMIT = 1500 * 2 ** 20


def run_limited(code, args):
    """Run python `code` with args in a child process under
    CHILD_AS_LIMIT and one BLAS thread."""
    prelude = ("import resource\n"
               "resource.setrlimit(resource.RLIMIT_AS, "
               f"({CHILD_AS_LIMIT}, {CHILD_AS_LIMIT}))\n")
    src = os.path.dirname(os.path.dirname(slimformer.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", prelude + code, *args],
                          env=env, capture_output=True, text=True,
                          timeout=300)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """argv of each slimformer command in README.md's Command line sh
    block, continuation lines joined."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("slimformer ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every command the README shows parses, and all but distill (run
    by TestDistill) exit 0 in order against the README's teacher."""
    monkeypatch.chdir(tmp_path)
    save_model(init_model(TOY_CONFIG, seed=0), "teacher")
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "plan", "check", "compress", "distill", "analyze"}
    for argv in commands:
        try:
            _parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {argv}")
        if argv[0] != "distill":
            assert main(argv) == 0, argv
    capsys.readouterr()


class TestPlan:
    def test_manual_fractions(self, tmp_path, teacher_path, capsys):
        out = tmp_path / "plan.txt"
        code = main(["plan", "--bundle", teacher_path, "--target", "0.4",
                     "--p-embd", "0.55", "--p-svd", "0.45",
                     "--out", str(out)])
        assert code == 0
        plan = load_plan(out)
        assert pruning_fraction(TOY_CONFIG.shapes(), plan) == pytest.approx(
            0.831227, abs=1e-6)
        assert "achieved overall" in capsys.readouterr().out

    @pytest.mark.parametrize("fractions", [
        ["--p-embd", "0.55"], ["--p-svd", "0.45"], [],
    ], ids=["only-p-embd", "only-p-svd", "neither"])
    def test_needs_both_fractions(self, tmp_path, teacher_path, capsys,
                                  fractions):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--bundle", teacher_path, "--target", "0.4",
                  *fractions, "--out", str(tmp_path / "p.txt")])
        assert excinfo.value.code == 2
        assert "required" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("flag", ["search", "seed"])
    def test_removed_flags_are_unrecognized(self, tmp_path, teacher_path,
                                            capsys, flag):
        """plan has no fraction sampler: a sampler scores every split
        allocate can reach alike, so plan takes both fractions and its
        flags are unknown arguments."""
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--bundle", teacher_path, "--target", "0.4",
                  "--p-embd", "0.55", "--p-svd", "0.45", f"--{flag}", "4",
                  "--out", str(tmp_path / "p.txt")])
        assert excinfo.value.code == 2
        assert (f"unrecognized arguments: --{flag} 4"
                in capsys.readouterr().err)
        assert not (tmp_path / "p.txt").exists()

    def test_shortfall_is_noted_once_and_not_stored(self, tmp_path,
                                                    teacher_path, capsys):
        """Rank flooring leaves the p_svd=0.3 plan 1,448 params short:
        one note says so, and the plan file keeps no note that a later
        edit could make wrong."""
        out = tmp_path / "plan.txt"
        assert main(["plan", "--bundle", teacher_path, "--target", "0.4",
                     "--p-embd", "0.55", "--p-svd", "0.3",
                     "--out", str(out)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("note:")]
        assert len(notes) == 1 and "1448" in notes[0]
        out.write_text(out.read_text().replace("p_svd=0.3\n",
                                               "p_svd=0.45\n"))
        assert main(["check", "--bundle", teacher_path,
                     "--plan", str(out)]) == 0
        text = capsys.readouterr().out
        assert "note:" not in text
        assert "retained params     7899\n" in text

    def test_infeasible_target(self, tmp_path, teacher_path, capsys):
        code = main(["plan", "--bundle", teacher_path, "--target", "0.004",
                     "--p-embd", "0.55", "--p-svd", "0.45",
                     "--out", str(tmp_path / "p.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_bundle(self, tmp_path, capsys):
        code = main(["plan", "--bundle", str(tmp_path / "no.bundle"),
                     "--target", "0.4", "--p-embd", "0.55",
                     "--p-svd", "0.45", "--out", str(tmp_path / "p.txt")])
        assert code == 4


class TestCompress:
    def test_one_shot(self, tmp_path, teacher_path, capsys):
        plan = write_plan(tmp_path)
        out = tmp_path / "student"
        code = main(["compress", "--bundle", teacher_path, "--plan", plan,
                     "--out", str(out)])
        assert code == 0
        student = load_model(out)
        assert student.retained_count() == 7899
        assert "retained 7899 of 19747" in capsys.readouterr().out

    def test_student_cannot_gain_rank(self, tmp_path, teacher_path, capsys):
        """A factor pair is re-factorized from its own core, so a plan
        asking a student for a higher rank is out of range."""
        student = tmp_path / "student"
        assert main(["compress", "--bundle", teacher_path,
                     "--plan", write_plan(tmp_path),
                     "--out", str(student)]) == 0
        capsys.readouterr()
        again = tmp_path / "again"
        assert main(["compress", "--bundle", f"{student}.bundle",
                     "--plan", write_plan(tmp_path, p_overall=0.3,
                                          p_svd=0.35),
                     "--out", str(again)]) == 0
        capsys.readouterr()
        code = main(["compress", "--bundle", f"{student}.bundle",
                     "--plan", write_plan(tmp_path, p_svd=0.9),
                     "--out", str(tmp_path / "wider")])
        assert code == 2
        assert "above the rank 7 of the factor pair" in capsys.readouterr().err
        assert not (tmp_path / "wider.bundle").exists()

    def test_malformed_plan(self, tmp_path, teacher_path):
        bad = tmp_path / "plan.txt"
        bad.write_text("not a plan\n", encoding="ascii")
        code = main(["compress", "--bundle", teacher_path,
                     "--plan", str(bad), "--out", str(tmp_path / "s")])
        assert code == 4

    @pytest.mark.parametrize("edit", [
        {"junk": np.ones((1, 4))},
        {"enc0.attn.wq.a": np.ones((32, 4)),
         "enc0.attn.wq.b": np.ones((32, 4))},
        {"enc0.attn.wq": np.ones((5, 7))},
        {"enc0.attn.wq.mask": np.full((32, 32), 0.5)},
        {"tok_embed.mask": np.ones((64, 32))},
        {"enc0.attn.bq": np.zeros((32, 1))},
        nan_payload,
        aliasing_offset,
        trailing_bytes,
        duplicate_name,
        retagged,
    ], ids=["unclaimed-key", "dense-and-factored", "wrong-shape",
            "non-binary-mask", "mask-in-another-group", "vector-as-column",
            "nan-payload",
            "aliasing-offset", "trailing-bytes", "duplicate-name",
            "entry-in-another-group"])
    def test_bad_bundle(self, tmp_path, edit, capsys):
        """The teacher's bundle with entries added or replaced (tagged
        encoder), or its saved bytes edited; a file the loader rejects
        also fails check, and compress writes no student."""
        entries = {name: (group, m) for name, group, m
                   in init_model(TOY_CONFIG, seed=0).to_bundle()}
        if isinstance(edit, dict):
            entries.update((name, ("encoder", arr))
                           for name, arr in edit.items())
        path = tmp_path / "bad.bundle"
        save_bundle([(n, g, m) for n, (g, m) in entries.items()], path)
        if callable(edit):
            path.write_bytes(edit(path.read_bytes()))
        save_config(TOY_CONFIG, tmp_path / "bad.config")
        plan = write_plan(tmp_path)
        code = main(["compress", "--bundle", str(path), "--plan", plan,
                     "--out", str(tmp_path / "s")])
        assert code == 4
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("s.*"))
        if callable(edit):
            assert main(["check", "--bundle", str(path), "--plan", plan]) == 4


class TestDistill:
    def test_end_to_end(self, tmp_path, teacher_path, capsys):
        plan = write_plan(tmp_path)
        out = tmp_path / "run"
        code = main(["distill", "--teacher", teacher_path, "--plan", plan,
                     "--task-seed", "1", "--out", str(out),
                     "--epochs", "1", "--teacher-epochs", "1"])
        assert code == 0
        student = load_model(out / "student")
        assert student.retained_count() == 7899
        rows = list(csv.reader(io.StringIO(
            (out / "curve.csv").read_text(encoding="ascii"))))
        assert rows[0][0] == "step"
        assert len(rows) > 1
        text = capsys.readouterr().out
        assert "retained fraction   0.4000" in text
        assert "teacher val accuracy" in text

    def test_divergence_exit_code(self, tmp_path, teacher_path, capsys):
        plan = write_plan(tmp_path)
        with np.errstate(all="ignore"):
            code = main(["distill", "--teacher", teacher_path,
                         "--plan", plan, "--task-seed", "1",
                         "--out", str(tmp_path / "run"),
                         "--epochs", "1", "--lr", "1e90"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_teacher_divergence_exit_code(self, tmp_path, teacher_path,
                                          capsys):
        plan = write_plan(tmp_path)
        code = main(["distill", "--teacher", teacher_path, "--plan", plan,
                     "--task-seed", "1", "--out", str(tmp_path / "run"),
                     "--teacher-epochs", "3", "--teacher-lr", "100"])
        assert code == 3
        assert "uniform guess" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs", [[], ["--teacher-epochs", "0"],
                                        ["--teacher-epochs", "-1"]])
    def test_teacher_lr_needs_teacher_epochs(self, tmp_path, teacher_path,
                                             capsys, epochs):
        """--teacher-lr sets a rate only teacher training reads, so
        without a positive --teacher-epochs it is a usage error."""
        plan = write_plan(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["distill", "--teacher", teacher_path, "--plan", plan,
                  "--task-seed", "1", "--out", str(tmp_path / "run"),
                  "--teacher-lr", "1e-3", *epochs])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--teacher-lr needs a positive --teacher-epochs" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags, lr", [([], 2e-3),
                                           (["--teacher-lr", "5e-4"], 5e-4)])
    def test_teacher_lr_reaches_training(self, tmp_path, teacher_path,
                                         monkeypatch, flags, lr):
        """Teacher training gets --teacher-lr, or 2e-3 without it."""
        seen = []

        def stop(model, task, epochs, lr, **kwargs):
            seen.append(lr)
            raise RangeError("stop before training")

        monkeypatch.setattr(cli, "train_classifier", stop)
        plan = write_plan(tmp_path)
        assert main(["distill", "--teacher", teacher_path, "--plan", plan,
                     "--task-seed", "1", "--out", str(tmp_path / "run"),
                     "--teacher-epochs", "2", *flags]) == 2
        assert seen == [lr]

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"),
        ("--batch-size", "-3"),
        ("--epochs", "-1"),
        ("--teacher-epochs", "-1"),
        ("--seed", "-1"),
        ("--task-seed", "-1"),
    ])
    def test_bad_schedule_is_range_error(self, tmp_path, teacher_path,
                                         capsys, flag, value):
        plan = write_plan(tmp_path)
        code = main(["distill", "--teacher", teacher_path, "--plan", plan,
                     "--task-seed", "1", "--out", str(tmp_path / "run"),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be" in err
        assert not (tmp_path / "run").exists()

    def test_zero_epochs_compresses_only(self, tmp_path, teacher_path,
                                         capsys):
        plan = write_plan(tmp_path)
        out = tmp_path / "run"
        code = main(["distill", "--teacher", teacher_path, "--plan", plan,
                     "--task-seed", "1", "--out", str(out), "--epochs", "0"])
        assert code == 0
        assert load_model(out / "student").retained_count() == 7899
        assert (out / "curve.csv").read_text(encoding="ascii").count("\n") == 1
        assert "final val accuracy" not in capsys.readouterr().out


class TestAnalyzeBias:
    def expected_cells(self, bundle_path):
        return sum(m.size for _, _, m in load_bundle(bundle_path)
                   if min(m.shape) > 1)

    def test_stdout_histogram(self, teacher_path, capsys):
        code = main(["analyze", "bias", "--bundle", teacher_path,
                     "--mode", "hybrid", "--retain", "0.2"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["bin_left", "bin_right", "count"]
        assert rows[-1][0] == "stats"
        counted = sum(int(r[2]) for r in rows[1:-1])
        assert counted == self.expected_cells(teacher_path)

    def test_out_file_and_modes(self, tmp_path, teacher_path, capsys):
        for mode in ("prune", "svd"):
            out = tmp_path / f"{mode}.csv"
            code = main(["analyze", "bias", "--bundle", teacher_path,
                         "--mode", mode, "--retain", "0.2",
                         "--out", str(out)])
            assert code == 0
            assert out.exists()
        capsys.readouterr()

    def test_explicit_prune_fraction(self, teacher_path, capsys):
        code = main(["analyze", "bias", "--bundle", teacher_path,
                     "--mode", "hybrid", "--retain", "0.2",
                     "--prune-fraction", "0.4"])
        assert code == 0
        capsys.readouterr()

    def test_compressed_student_uses_effective_weights(self, tmp_path,
                                                       teacher_path, capsys):
        """A compressed slot is analysed as its effective weight, over
        the teacher's cells, not as factor halves."""
        plan = write_plan(tmp_path)
        student = tmp_path / "student"
        assert main(["compress", "--bundle", teacher_path, "--plan", plan,
                     "--out", str(student)]) == 0
        capsys.readouterr()
        code = main(["analyze", "bias", "--bundle", f"{student}.bundle",
                     "--mode", "prune", "--retain", "0.5"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        counted = sum(int(r[2]) for r in rows[1:-1])
        assert counted == self.expected_cells(teacher_path)
        assert any(s.rank for s in load_model(student).slots.values())

    @pytest.mark.parametrize("mode", ["prune", "svd"])
    def test_prune_fraction_needs_hybrid(self, teacher_path, capsys, mode):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "bias", "--bundle", teacher_path,
                  "--mode", mode, "--retain", "0.2",
                  "--prune-fraction", "0.4"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--prune-fraction needs --mode hybrid" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5"])
    def test_prune_fraction_out_of_range(self, teacher_path, capsys,
                                         fraction):
        code = main(["analyze", "bias", "--bundle", teacher_path,
                     "--mode", "hybrid", "--retain", "0.2",
                     "--prune-fraction", fraction])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_retain_out_of_range(self, teacher_path, capsys):
        code = main(["analyze", "bias", "--bundle", teacher_path,
                     "--mode", "prune", "--retain", "1.5"])
        assert code == 2
        capsys.readouterr()

    def test_bins_above_value_count_is_range_error(self, teacher_path):
        """More bins than pooled values exits 2 naming both counts,
        before the bin edges are built: 1e10 edges would not fit the
        child's 1.5 GB address space."""
        proc = run_limited("import sys\n"
                           "from slimformer.cli import main\n"
                           "sys.exit(main(sys.argv[1:]))\n",
                           ["analyze", "bias", "--bundle", teacher_path,
                            "--mode", "prune", "--retain", "0.2",
                            "--bins", "10000000000"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "10000000000" in proc.stderr
        assert str(self.expected_cells(teacher_path)) in proc.stderr

    def test_bad_mode_is_usage_error(self, teacher_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "bias", "--bundle", teacher_path,
                  "--mode", "fold", "--retain", "0.2"])
        assert excinfo.value.code == 2


class TestCheck:
    def test_feasible(self, tmp_path, teacher_path, capsys):
        plan = write_plan(tmp_path)
        code = main(["check", "--bundle", teacher_path, "--plan", plan])
        assert code == 0
        text = capsys.readouterr().out
        assert "achieved overall" in text
        assert "total params        19747" in text

    def test_infeasible(self, tmp_path, teacher_path, capsys):
        plan = write_plan(tmp_path, p_overall=0.01, p_embd=0.9, p_svd=0.9)
        code = main(["check", "--bundle", teacher_path, "--plan", plan])
        assert code == 2
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_compressed_student_counts_architecture(self, tmp_path,
                                                    teacher_path, capsys):
        """A compressed bundle's factor halves and masks are not
        parameters of the architecture the plan budgets over."""
        plan = write_plan(tmp_path)
        student = tmp_path / "student"
        assert main(["compress", "--bundle", teacher_path, "--plan", plan,
                     "--out", str(student)]) == 0
        capsys.readouterr()
        code = main(["check", "--bundle", f"{student}.bundle",
                     "--plan", plan])
        assert code == 0
        assert "total params        19747" in capsys.readouterr().out
        code = main(["plan", "--bundle", f"{student}.bundle",
                     "--target", "0.4", "--p-embd", "0.55", "--p-svd", "0.45",
                     "--out", str(tmp_path / "again.txt")])
        assert code == 0
        assert "total params        19747" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["p_weight=0.831227", "seed=3",
                                      "notes=", "rank=3", "p_svd=0.5"])
    def test_stray_plan_key_is_format_error(self, tmp_path, teacher_path,
                                            capsys, line):
        """A plan file from before the pruning fraction, the search seed
        or the stored notes left the format, an unknown key or a
        repeated key exits 4 naming the key."""
        plan = write_plan(tmp_path)
        with open(plan, "a", encoding="ascii") as fh:
            fh.write(line + "\n")
        code = main(["check", "--bundle", teacher_path, "--plan", plan])
        assert code == 4
        assert repr(line.split("=")[0]) in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["num_experts=2", "num_heads=4"])
    def test_stray_config_key_is_format_error(self, tmp_path, teacher_path,
                                              capsys, line):
        config = tmp_path / "teacher.config"
        with open(config, "a", encoding="ascii") as fh:
            fh.write(line + "\n")
        code = main(["check", "--bundle", teacher_path,
                     "--plan", write_plan(tmp_path)])
        assert code == 4
        assert repr(line.split("=")[0]) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "compress"])
    def test_huge_num_layers_exits_4(self, tmp_path, teacher_path, command):
        """A config naming far more layers than its bundle holds exits 4
        naming the key, without building its shape table first.  The
        CLI runs in a child process under a 1.5 GB address-space limit,
        so a table that outgrows memory fails the test instead of the
        machine."""
        config = tmp_path / "teacher.config"
        text = config.read_text(encoding="ascii")
        assert "num_layers=2\n" in text
        config.write_text(text.replace("num_layers=2\n",
                                       "num_layers=99999999999\n"),
                          encoding="ascii")
        argv = [command, "--bundle", teacher_path,
                "--plan", write_plan(tmp_path)]
        if command == "compress":
            argv += ["--out", str(tmp_path / "s")]
        proc = run_limited("import sys\n"
                           "from slimformer.cli import main\n"
                           "sys.exit(main(sys.argv[1:]))\n", argv)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "'num_layers'" in proc.stderr

    def test_missing_plan(self, tmp_path, teacher_path):
        code = main(["check", "--bundle", teacher_path,
                     "--plan", str(tmp_path / "no.txt")])
        assert code == 4


# values an edited field takes: huge, negative, zero, not a number,
# infinite, non-numeric and empty, and small ones a field may hold
FUZZ_VALUES = (b"99999999999999999999", b"-7", b"0", b"nan", b"inf",
               b"1e308", b"x", b"", b"1", b"2", b"0.5")


def mutated(name, data, rng):
    """data of file `name` after one random edit: a bit flip, a
    truncation, a duplicated or deleted line, or a field set to one of
    FUZZ_VALUES.  Lines are the bundle's manifest lines (its blob is
    only flipped or truncated) or the text file's key=value lines."""
    op = rng.choice(("flip", "truncate", "duplicate", "delete", "edit",
                     "edit"))
    if op == "flip":
        out = bytearray(data)
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if op == "truncate":
        return data[:rng.randrange(len(data))]
    is_bundle = name.endswith(".bundle")
    end = (data.index(b"\n", data.index(b"\nblob ") + 1) + 1 if is_bundle
           else len(data))
    lines = data[:end].split(b"\n")[:-1]
    i = rng.randrange(len(lines))
    if op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "delete":
        del lines[i]
    else:
        sep = b" " if is_bundle else b"="
        fields = lines[i].split(sep)
        fields[rng.randrange(len(fields))] = rng.choice(FUZZ_VALUES)
        lines[i] = sep.join(fields)
    return b"".join(line + b"\n" for line in lines) + data[end:]


# runs check and compress on each case directory in one process; prints
# one JSON line [case, command, exit code, stderr] per run
FUZZ_CHILD = """
import contextlib, io, json, sys, traceback
from slimformer.cli import _parser, main
for case in sys.argv[1:]:
    files = ["--bundle", f"{case}/teacher.bundle", "--plan", f"{case}/plan.txt"]
    for argv in (["check", *files], ["compress", *files, "--out", f"{case}/s"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc()
        print(json.dumps([case, argv[0], code, err.getvalue()]))
"""


class TestFuzzedFiles:
    CASES = 150

    def test_every_exit_is_0_2_or_4(self, tmp_path, teacher_path):
        """check and compress on the teacher's bundle, its config and a
        plan, one of them edited at random (derandomized), exit 0, 2 or
        4 and print no traceback.  One child process runs every case
        under CHILD_AS_LIMIT."""
        write_plan(tmp_path)
        names = ("teacher.bundle", "teacher.config", "plan.txt")
        rng = random.Random(0)
        cases = []
        for i in range(self.CASES):
            case = tmp_path / f"case{i}"
            case.mkdir()
            edited = names[i % len(names)]
            for name in names:
                if name == edited:
                    (case / name).write_bytes(mutated(
                        name, (tmp_path / name).read_bytes(), rng))
                else:
                    os.link(tmp_path / name, case / name)
            cases.append(str(case))
        proc = run_limited(FUZZ_CHILD, cases)
        assert proc.returncode == 0, proc.stderr
        runs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(runs) == 2 * self.CASES
        bad = [run for run in runs
               if run[2] not in (0, 2, 4) or "Traceback" in run[3]]
        assert not bad, bad[:3]
        codes = {run[2] for run in runs}
        assert codes >= {0, 4}, codes
