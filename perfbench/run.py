"""Layered benchmark for bvf.

Runs the workloads in ``perfbench/workloads.py`` against the package source
in ``src/``, checks every output, and prints the end-to-end metrics (or,
with ``--trace 1``, the per-layer metrics) by name and unit. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run
(environment, metrics, check results, decision margins) is written to
``perfbench/out/``, together with the spans of a traced run.

Run from the repository root:

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload large-n-fit --seed 9138 --seconds 30
    python3 perfbench/run.py --workload boot-study --trace 1
    python3 perfbench/run.py --write-reference                # refresh reference.json

The exit code is 0 only when every output check passed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 20220618
CONFIRM_SEED = 9138
SETUP_REPEATS = 5
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = HERE / "out"
BASELINE_BACKEND = "python"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer unit by metric-name suffix
_LAYER_UNITS = (
    ("ns_per_record", "ns"),
    ("ns_per_pair", "ns"),
    ("bytes_computed", "B"),
    ("self_ms_per_call", "ms"),
    ("useful_ratio", "ratio"),
    ("evals_per_fit", "count"),
    ("_s", "s"),
    ("ms_p50", "ms"),
    ("ms_p90", "ms"),
)

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import bvf; print(time.perf_counter() - t)"
)


def layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def import_seconds(repeats: int) -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, cwd=ROOT,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import scipy

    from bvf import _kernels

    return {
        "kernel_backend": _kernels.active_backend,
        "available_backends": list(_kernels.available_backends()),
        "baseline_backend": BASELINE_BACKEND,
        "comparable": _kernels.active_backend == BASELINE_BACKEND,
        "BVF_KERNEL": os.environ.get("BVF_KERNEL"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


# Host-speed probes, using nothing from bvf. The shared host's speed drifts
# by tens of percent, at times 2x, within and between runs. Before each pass
# the benchmark runs the probe that matches where the workload's time goes
# (``Workload.probe``) and scales that pass's times by reference probe time /
# measured probe time. Over five 20 s runs per workload on this host, that
# cut the quartile spread of wall_s from 0.38-0.48 of its median to
# 0.025-0.057. Set-up time (mostly the import) did not track either probe
# and is reported unscaled.
PROBE_REFERENCE_S = {"interp": 0.004, "vector": 0.002}
_PROBE_SMALL = np.linspace(0.01, 1.0, 400)
_PROBE_LARGE = (np.linspace(0.01, 1.0, 20000), np.linspace(0.01, 1.0, 50000))


class _Cell:
    __slots__ = ("index", "weight")

    def __init__(self, index, weight):
        self.index = index
        self.weight = weight


def _interp_probe() -> float:
    """Per-call work: small objects, attribute access, calls, and NumPy
    calls on arrays of study size."""
    t0 = time.perf_counter()
    cells = {}
    acc = 0.0
    for i in range(4000):
        cell = _Cell(i, 2.0)
        cells[i & 63] = cell
        acc = min(max(acc + cell.weight * 1.5, 0.0), 3.0)
    for _ in range(150):
        float(np.exp(_PROBE_SMALL).sum())
        float(np.log1p(_PROBE_SMALL).sum())
    return time.perf_counter() - t0


def _vector_probe() -> float:
    """Vectorised transcendental sums over arrays of large-dataset size."""
    t0 = time.perf_counter()
    for x in _PROBE_LARGE:
        for _ in range(4):
            np.exp(x).sum()
            np.log1p(x).sum()
            np.expm1(x).sum()
    return time.perf_counter() - t0


def host_probe() -> dict:
    return {"interp": _interp_probe(), "vector": _vector_probe()}


def timed_passes(workload, seconds=None, count=None, guard=contextlib.nullcontext):
    """Run passes 0, 1, ... until ``seconds`` have elapsed or ``count``
    passes are done, with a host probe before each; returns the pass
    results and the probe times."""
    results, probes = [], []
    deadline = time.perf_counter() + (seconds or 0.0)
    while (len(results) < count) if count is not None else (time.perf_counter() < deadline):
        probes.append(host_probe())
        results.append(workload.run_pass(len(results), guard))
    return results, probes


def compare_reference(values: dict, expected: dict, rel_tol: float, abs_tol: float) -> list:
    """Discrete values (ints, strings) must match exactly, floats within
    the tolerances."""
    problems = []
    for key in sorted(set(values) | set(expected)):
        if key not in values or key not in expected:
            problems.append(f"reference key {key!r} only in {'run' if key in values else 'reference'}")
            continue
        got, want = values[key], expected[key]
        if isinstance(want, float) and isinstance(got, float):
            ok = abs(got - want) <= max(rel_tol * max(abs(got), abs(want)), abs_tol)
        else:
            ok = got == want
        if not ok:
            problems.append(f"reference {key}: got {got!r}, expected {want!r}")
    return problems


def unit_samples(result, scale=1.0) -> list:
    """Per-unit times (ms) of one pass: the units' own times where the
    benchmark timed them, else the pass time per unit."""
    if result.unit_ms:
        return [ms * scale for ms in result.unit_ms]
    return [result.wall_s * 1e3 * scale / result.units]


def run_workload(name, args, import_s):
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    problems = []

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare(args.seed)
        warm_problems = workload.warm_up()
        setups.append(time.perf_counter() - t0)
    problems += [f"warm-up: {p}" for p in warm_problems]
    setup_s = import_s + statistics.median(setups)

    tracer = None
    if args.trace:
        # a fixed number of passes, so the traced counts repeat exactly
        count = max(1, round(0.5 * args.seconds / workload.nominal_pass_s))
        results, probes = timed_passes(workload, count=count)
        tracer = Tracer()
        with tracer.installed():
            traced, _ = timed_passes(workload, count=count, guard=tracer.suspended)
        measured = results + traced
    else:
        results, probes = timed_passes(workload, seconds=args.seconds)
        measured = results

    attempted = sum(r.units for r in measured)
    failed = sum(r.failed for r in measured)
    for i, r in enumerate(measured):
        problems += [f"pass {i}: {p}" for p in r.problems]

    values, margins, ref_problems = workload.reference()
    problems += [f"reference run: {p}" for p in ref_problems]
    if not args.write_reference:
        reference = json.loads(REFERENCE_FILE.read_text())
        expected = reference["workloads"].get(name)
        if expected is None:
            problems.append(f"no reference values for {name} in {REFERENCE_FILE.name}")
        else:
            problems += compare_reference(
                values, expected["values"], reference["rel_tol"], reference["abs_tol"]
            )

    walls = [r.wall_s for r in results]
    unit_ms = [ms for r in results for ms in unit_samples(r)]
    probe_s = {k: statistics.median(p[k] for p in probes) for k in PROBE_REFERENCE_S}
    if tracer is None:
        ref = PROBE_REFERENCE_S[workload.probe]

        def scale(probe):
            return ref / probe[workload.probe]

        raw = {
            "wall_s": statistics.median(walls),
            "units_per_s": statistics.median((r.units - r.failed) / r.wall_s for r in results),
            "unit_ms_p50": float(np.percentile(unit_ms, 50)),
            "unit_ms_p90": float(np.percentile(unit_ms, 90)),
        }
        scales = [scale(p) for p in probes]
        scaled_ms = [ms for r, f in zip(results, scales) for ms in unit_samples(r, f)]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall_s * f for r, f in zip(results, scales)),
            "units_per_s": statistics.median(
                (r.units - r.failed) / (r.wall_s * f) for r, f in zip(results, scales)
            ),
            "unit_ms_p50": float(np.percentile(scaled_ms, 50)),
            "unit_ms_p90": float(np.percentile(scaled_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END_UNITS)
    else:
        traced_wall = sum(r.wall_s for r in traced)
        metrics = tracer.layer_metrics()
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - sum(walls)
        units = {k: layer_unit(k) for k in metrics}
        raw = {}

    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(results),
        "unit_samples": len(unit_ms),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "correct": not problems and attempted > 0,
        "problems": problems,
        "margins": margins,
        "reference_values": values,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "probe": workload.probe,
        "probe_s": probe_s,
        "unscaled_metrics": raw,
    }, tracer


def print_report(rec, env):
    print(f"[{rec['workload']}] seed={rec['seed']} seconds={rec['seconds']} "
          f"trace={rec['trace']} backend={env['kernel_backend']} "
          f"comparable={'yes' if env['comparable'] else 'NO'}")
    for key, m in rec["metrics"].items():
        unscaled = rec["unscaled_metrics"].get(key)
        note = "" if unscaled is None else f"  (unscaled {unscaled:.6g})"
        print(f"  {key:<48} {m['value']:>16.6g} {m['unit']}{note}")
    if rec["unscaled_metrics"]:
        kind = rec["probe"]
        print(f"  {'host probe ' + kind + ' (median)':<48} {rec['probe_s'][kind] * 1e3:>16.6g} ms "
              f"(each pass scaled by {PROBE_REFERENCE_S[kind] * 1e3:g} ms / its probe)")
    print(f"  {'fail_share':<48} {rec['fail_share']:>16.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} units; "
          f"{rec['passes']} passes, {rec['unit_samples']} unit-time samples)")
    for key, value in rec["margins"].items():
        print(f"  margin {key:<41} {value!r:>16}")
    print(f"  output check: {'pass' if rec['correct'] else 'FAIL'} "
          f"({len(rec['reference_values'])} reference values)")
    for p in rec["problems"][:20]:
        print(f"    {p}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (confirm claims on a second seed, e.g. {CONFIRM_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced replay")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's reference values in {REFERENCE_FILE.name}")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment()
    if not env["comparable"]:
        print(f"warning: kernel backend {env['kernel_backend']!r} differs from the "
              f"baseline {BASELINE_BACKEND!r}; results are not comparable", file=sys.stderr)
    import_s = import_seconds(SETUP_REPEATS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    records = []
    for name in names:
        rec, tracer = run_workload(name, args, import_s)
        rec["environment"] = env
        records.append(rec)
        print_report(rec, env)
        stem = f"{name}-seed{rec['seed']}-trace{rec['trace']}"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(rec, indent=2) + "\n")
        if tracer is not None:
            np.savez_compressed(OUT_DIR / f"{stem}-spans.npz", **tracer.spans())
        if args.write_reference:
            reference = json.loads(REFERENCE_FILE.read_text())
            reference["workloads"][name] = {"values": rec["reference_values"], "margins": rec["margins"]}
            REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"environment": env}))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (SRC / "bvf" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'bvf'} not found; run from a bvf checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    sys.exit(main())
