"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload frames --seed 1 --seconds 25 --trace 0

Runs passes of the workload in one process, closed loop with one client (a
job starts when the previous one returns), in whole cycles over the
workload's input sets until `--seconds` have passed, checks every job's
answer against `references.json`, and prints a JSON result as the last line
of stdout.  A job that raises or answers wrongly makes the result
incorrect.  With `--trace 0` the result holds the end-to-end metrics; with
`--trace 1` each pass runs once untraced and once traced, and the result
holds the per-layer metrics.  `--workload all` runs the four workloads one
after another, each in its own process.

The program is imported from `src/` of the checkout this file sits in and
nowhere else; without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"  # span dumps, plus per-run scratch files removed on exit
WORKLOAD_NAMES = ("frames", "logic", "states", "geometry")
SETUP_PROBES = 15

# Per-layer metrics of the traced run, in BENCHMARK.json order.
TIMED = (
    "core.load_test_space", "core.enumerate_events",
    "metric.sample_frames", "metric.save_sample", "metric.parse_coords",
    "metric.check_sample_invariants", "metric.load_sample",
    "metric.matching_distance", "metric.hausdorff_distance", "metric.rank_bound",
    "metric.orthogonal_pair_indices", "metric.tno_radius",
    "metric.event_cardinality_locally_constant",
    "semiclassical.auto_basis", "semiclassical.extend_basis",
    "semiclassical.extract_semiclassical",
    "logic.is_algebraic", "logic.build_logic", "logic.check_prop04",
    "logic.loads_oa", "logic.roundtrip_logic",
    "states.find_state", "states.infeasibility_certificate",
    "states.dispersion_free_states", "states.is_udf", "states.verify_state",
)
COUNTS = (
    "core.events", "metric.rank_bound.caps", "metric.orthogonal_pairs",
    "metric.distance_evals", "semiclassical.opens", "semiclassical.hits",
    "logic.classes", "logic.sum_entries", "logic.non_algebraic",
    "states.feasible", "states.infeasible", "states.df_states",
)
JOB_COMMANDS = ("sample_frames", "metric_check", "extract", "info", "logic", "oa", "states")


def import_program():
    """Put the checkout's `src/` first on the path and import the library from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import testspaces
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import testspaces from {src}: {exc}") from None
    if not Path(testspaces.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: testspaces was imported from outside {src}")


# -- one pass ------------------------------------------------------------------


def run_pass(jobs, tr) -> list[tuple[str, object, str | None]]:
    """Run the jobs in order; a job that raises is recorded and the pass goes on."""
    outcomes = []
    with tr.span("pass"):
        for job in jobs:
            try:
                with tr.span("job." + job.command):
                    answer = job.run()
            except Exception as exc:  # noqa: BLE001 - every failure is counted, none ends the run
                tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
                outcomes.append((job.name, None, tb[:300]))
            else:
                outcomes.append((job.name, answer, None))
    return outcomes


def check_pass(outcomes, expected: dict[str, str]) -> tuple[int, list[str]]:
    """(failed, messages): jobs that raised or whose answer differs from the reference."""
    from checks import digest

    failed = 0
    messages = []
    for name, answer, error in outcomes:
        if error is not None:
            failed += 1
            messages.append(f"{name}: raised {error}")
        elif digest(answer) != expected.get(name):
            failed += 1
            messages.append(f"{name}: answer {digest(answer)} != reference {expected.get(name)}")
    return failed, messages


# -- a run -----------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, size=None, refs=None):
    """Measure one workload; returns (result, tracer or None, [(input set, untraced s)])."""
    import workloads as wl
    from checks import expected_digests, load_references
    from tracer import NULL, Tracer, pass_profile

    size = size or wl.FULL
    refs = load_references() if refs is None else refs
    tracer = Tracer() if trace else None
    untraced: list[float] = []
    traced: list[float] = []
    visited: list[int] = []
    inputs = wl.make_pool(workload, size)
    attempted = failed = 0
    OUT_DIR.mkdir(exist_ok=True)
    workroot = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR)
    try:
        start = time.perf_counter()
        cycles = 0
        for order in wl.cycle_orders(seed):
            for set_id in order:
                expected = expected_digests(refs, workload, size.key(), set_id)
                for tr, times in ((NULL, untraced),) + (((tracer, traced),) if trace else ()):
                    passdir = tempfile.mkdtemp(prefix="pass-", dir=workroot)
                    jobs = wl.make_jobs(workload, inputs[set_id], tr, passdir, size)
                    if tr is tracer:
                        tracer.pass_id = len(traced)
                    t0 = time.perf_counter()
                    outcomes = run_pass(jobs, tr)
                    times.append(time.perf_counter() - t0)
                    f, messages = check_pass(outcomes, expected)
                    attempted += len(outcomes)
                    failed += f
                    for m in messages:
                        print(f"perfbench: {workload} set {set_id}: {m}", file=sys.stderr)
                    shutil.rmtree(passdir)
                visited.append(set_id)
            cycles += 1
            # Stop at the cycle end nearest to `seconds`, so every set runs equally often.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles / 2 >= seconds:
                break
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    if trace:
        profiles = [pass_profile(tracer, p) for p in range(len(traced))]
        metrics = layer_metrics(profiles)
        metrics["trace.overhead_ratio"] = (
            statistics.median(t / u for t, u in zip(traced, untraced)), "ratio"
        )
        metrics["pass.first_s"] = (untraced[0], "s")
    else:
        metrics = {
            "pass_s": (per_set_median_mean(visited, untraced), "s"),
            "setup_s": (statistics.median(setup_probe_times(workload, seed)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, tracer, list(zip(visited, untraced))


def per_set_median_mean(visited: list[int], times: list[float]) -> float:
    """Mean over the input sets of each set's median pass time.

    Every run visits every set equally often, so this weighs the sets
    equally however fast the machine was and whatever order the seed chose.
    """
    by_set: dict[int, list[float]] = {}
    for set_id, t in zip(visited, times):
        by_set.setdefault(set_id, []).append(t)
    return statistics.fmean(statistics.median(ts) for ts in by_set.values())


def layer_metrics(profiles: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over traced passes of every per-layer metric."""

    def med(fn):
        return statistics.median(fn(p) for p in profiles)

    def ratio(num, den):
        return lambda p: p.get(num, 0.0) / p[den] if p.get(den) else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        out[name + ".s"] = (med(lambda p: p.get(name + ".s", 0.0)), "s")
    out["core.load_test_space.mb_s"] = (
        med(ratio("core.load_test_space.bytes", "core.load_test_space.s")) / 1e6, "MB/s")
    out["metric.save_sample.mb_s"] = (
        med(ratio("metric.save_sample.bytes", "metric.save_sample.s")) / 1e6, "MB/s")
    out["metric.matching_distance.fail"] = (med(lambda p: p.get("metric.matching_distance.fail", 0)), "count")
    out["semiclassical.hit_ratio"] = (med(ratio("semiclassical.hits", "semiclassical.opens")), "ratio")
    for name in COUNTS:
        out[name] = (med(lambda p: p.get(name, 0)), "count")
    for layer in LAYERS:
        out[layer + ".share"] = (med(ratio(layer + ".self_s", "pass.s")), "ratio")
        out[layer + ".cpu_s"] = (med(lambda p: p.get(layer + ".cpu_s", 0.0)), "s")
    for cmd in JOB_COMMANDS:
        out[f"job.{cmd}.s"] = (med(lambda p: p.get(f"job.{cmd}.s", 0.0)), "s")
    return out


# -- set-up time -------------------------------------------------------------------


def setup_probe_times(workload: str, seed: int) -> list[float]:
    """Wall seconds from starting a fresh process until its first pass could begin."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def setup_probe(workload: str) -> None:
    import workloads as wl

    wl.make_pool(workload)
    print(repr(time.monotonic()))


# -- run record ----------------------------------------------------------------------


def _blas_threads() -> str:
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() or "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int,
               passes: list[tuple[int, float]]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one client, one process",
        "passes": len(passes),
        "pass_times_s": [t for _, t in passes],
        "input_sets": [set_id for set_id, _ in passes],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu_model": _cpu_model(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": _git_commit(),
        "uncontrolled": "file cache, CPU frequency and other load on the machine",
    }


# -- entry point -------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; a table of metrics, then one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            print(f"{workload:9s} {name:45s} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    result, tracer, passes = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": run_record(args.workload, args.seed, args.seconds, args.trace, passes)}))
    if tracer is not None:
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(path)
        print(f"perfbench: spans written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
