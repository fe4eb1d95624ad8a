"""slimformer benchmark entry point.

    python3 perfbench/run.py --workload toy-distill --seed 0 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src, never
from an installed copy.  With --trace 0 the run repeats the workload's
operation until --seconds have passed and reports every end-to-end
metric of BENCHMARK.json; with --trace 1 it runs the operation to warm
up, then untraced and traced, and reports every per-layer metric.
Human-readable lines (machine, per-stage figures, checks) come first;
the last line of standard output is one JSON object.  BLAS runs on one
thread.
"""

import os

# fixed before numpy loads, and the same on every commit measured
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
# set-up repeats until both limits are reached, once before the
# operations and once after them; setup_s is the median of all
SETUP_SECONDS = 0.5
SETUP_MIN_REPEATS = 7
# the traced run times an untraced operation after its warm-up only when
# both would end by then, judged from the warm-up's wall time
TRACE_BUDGET_S = 150.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Put ./src first on the path and import slimformer from there."""
    src = ROOT / "src"
    if not (src / "slimformer" / "__init__.py").is_file():
        sys.exit(f"no slimformer source under {src}; run from the "
                 "repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import slimformer

    if Path(slimformer.__file__).resolve().parent != (src / "slimformer"):
        sys.exit(f"slimformer was imported from {slimformer.__file__}, "
                 f"not from {src}")


def machine_info():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    mem_mb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_mb,
        "cpu": platform.processor() or platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """Digest of src/ so a checkout without git still names its code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed, workdir):
    """Set up for at least SETUP_SECONDS and SETUP_MIN_REPEATS times; the
    last state and every time are returned.  One set-up takes tens of
    milliseconds, so a single one would mostly measure the host."""
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPEATS
           or time.perf_counter() - start < SETUP_SECONDS):
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return state, times


class Ledger:
    """Operations attempted and failed, with the reasons printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.figures = []

    def run(self, workload, state, tracer=None):
        from slimformer.errors import (DivergenceError, NonFiniteError,
                                       SvdConvergenceError)

        self.attempted += 1
        try:
            # only the operation is traced, never its checks
            with tracer.installed() if tracer else nullcontext():
                out = workload.operate(state, tracer)
            failures, figures = workload.check(state, out)
        except (DivergenceError, NonFiniteError, SvdConvergenceError) as exc:
            self.failed += 1
            print(f"operation {self.attempted} failed: "
                  f"{type(exc).__name__}: {exc}")
            return None
        for reason in failures:
            print(f"operation {self.attempted} check failed: {reason}")
        if failures:
            self.failed += 1
        else:
            print(f"operation {self.attempted}: all checks passed, "
                  f"{out.wall_s:.3f} s")
        self.figures.append(figures)
        return out


def end_to_end(outcomes, setup_times, ledger):
    """Every end-to-end metric, and the figures only this workload has."""
    from workloads import Served, serving_figures

    metrics = {
        "setup_s": median(setup_times),
        "wall_s": median([o.wall_s for o in outcomes]),
        "peak_rss_mb": peak_rss_mb(),
    }
    figures = {}
    for name in outcomes[0].stages:
        figures[name] = median([o.stages[name] for o in outcomes])
    for name in ledger.figures[0]:
        figures[name] = median([f[name] for f in ledger.figures])
    if outcomes[0].served is not None:
        served = Served()
        for out in outcomes:
            served.extend(out.served)
        figures.update(serving_figures(served))
    figures["operations"] = len(outcomes)
    return metrics, figures


def traced_run(workload, state, ledger, started):
    """A warm-up operation, an untraced one, then the traced one.

    The first operation of a process runs a few percent slower, so its
    wall time is not the untraced reference.  When the untraced and the
    traced operation together would end past TRACE_BUDGET_S, the
    untraced one is skipped and the warm-up's wall time stands in.
    """
    from spans import Tracer

    warm = ledger.run(workload, state)
    if warm is None:
        sys.exit("traced run: an operation failed")
    untraced = warm
    if time.perf_counter() - started + 2 * warm.wall_s < TRACE_BUDGET_S:
        untraced = ledger.run(workload, state)
    else:
        print("traced run: untraced operation skipped, out of time; "
              "the warm-up's wall time stands in")
    tracer = Tracer()
    traced = ledger.run(workload, state, tracer)
    if untraced is None or traced is None:
        sys.exit("traced run: an operation failed")
    return per_layer(tracer, traced, untraced.wall_s)


def per_layer(tracer, traced, untraced_wall):
    """Every per-layer metric from one traced operation."""
    from madds import model_madds

    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        st = stats.get(name)
        return st.calls if st else 0

    def self_s(name):
        st = stats.get(name)
        return st.self_time if st else 0.0

    m = {}
    for name in ("svd.svd", "factorize.factorize_layer", "prune.topk_mask",
                 "budget.allocate", "pipeline.compress_model",
                 "pipeline.run_pipeline", "model.backward",
                 "model.Adam.step", "distill.distill_step", "tasks.evaluate",
                 "tasks.train_classifier", "model.to_bundle",
                 "tensor.save_bundle", "tensor.load_bundle"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = self_s(name)
    kinds = ("train", "distill", "eval", "serve")
    m["model.forward.calls"] = sum(calls(f"model.forward.{k}") for k in kinds)
    for kind in kinds:
        m[f"model.forward.{kind}.s"] = self_s(f"model.forward.{kind}")
    m["svd.rank_deficient_calls"] = counts["svd.rank_deficient_calls"]
    possible = counts["factorize.possible_triples"]
    m["factorize.kept_triples_ratio"] = (
        counts["factorize.kept_triples"] / possible if possible else 0.0)
    pipeline_total = (stats["pipeline.run_pipeline"].total
                      if "pipeline.run_pipeline" in stats else 0.0)
    m["pipeline.evaluate_share"] = (
        counts["pipeline.evaluate_inclusive_s"] / pipeline_total
        if pipeline_total else 0.0)
    m["tensor.save_bundle.bytes"] = counts["tensor.save_bundle.bytes"]
    m["tensor.load_bundle.bytes"] = counts["tensor.load_bundle.bytes"]
    m["model.forward_madds_per_seq.teacher"] = model_madds(traced.teacher)
    m["model.forward_madds_per_seq.student"] = model_madds(traced.student)
    m["trace.wall_s"] = traced.wall_s
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced.wall_s - untraced_wall
    unaccounted = traced.wall_s - tracer.traced_time()
    m["trace.unaccounted_s"] = unaccounted
    m["trace.unaccounted_share"] = unaccounted / traced.wall_s
    return m


def emit(spec_metrics, values, ledger):
    """Print the declared metrics by name and unit, then the JSON line."""
    missing = [s["name"] for s in spec_metrics if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {}
    for s in spec_metrics:
        value = values[s["name"]]
        print(f"metric {s['name']} = {value:.6g} {s['unit']}")
        result[s["name"]] = {"value": value, "unit": s["unit"]}
    print(json.dumps({"correct": ledger.failed == 0 and ledger.attempted > 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": result}))


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_library()
    from workloads import FIGURE_UNITS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    print("machine " + json.dumps(machine_info()))
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    try:
        state, setup_times = timed_setup(workload, args.seed, workdir)
        ledger = Ledger()
        if args.trace:
            values = traced_run(workload, state, ledger, started)
            emit(spec["per_layer"], values, ledger)
            return
        outcomes = []
        start = time.perf_counter()
        while True:
            out = ledger.run(workload, state)
            if out is not None:
                outcomes.append(out)
            if time.perf_counter() - start >= args.seconds:
                break
        if not outcomes:
            sys.exit("every operation failed")
        # the host's speed drifts over tens of seconds, so set-up is
        # sampled at both ends of the run
        _, later = timed_setup(workload, args.seed, workdir)
        values, figures = end_to_end(outcomes, setup_times + later, ledger)
        for name, value in figures.items():
            print(f"workload-metric {args.workload} {name} = {value:.6g} "
                  f"{FIGURE_UNITS[name]}")
        emit(spec["end_to_end"], values, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
