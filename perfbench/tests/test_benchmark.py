"""Tests of the benchmark's own machinery: tracing, counters and the
command's contract. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bvf import bvf_model, data_model, inference
from tracing import LAYERS, Tracer
from workloads import CAPTION, BootStudy, LargeNFit, SelectStudy, W, G, L

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def small_workloads():
    return [
        BootStudy(replications=1, B=8, n=200),
        SelectStudy(replications=2, n_grid=(50, 150)),
        LargeNFit(sizes=(3000,), per_combo=1),
    ]


def rebound_names():
    for _layer, (attrs, modules, _count, _tag) in LAYERS.items():
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            for module_name in modules:
                yield importlib.import_module(module_name), attr


def traced_pass(workload, seed=7):
    """Prepare ``workload``, then run pass 0 traced; returns the tracer and
    the traced wall time of the pass."""
    workload.prepare(seed)
    tracer = Tracer()
    with tracer.installed():
        result = workload.run_pass(0, tracer.suspended)
    assert not result.problems
    return tracer, result.wall_s


@pytest.fixture(scope="module")
def traced_runs():
    return {w.name: traced_pass(w) for w in small_workloads()}


def test_traced_run_restores_every_rebound_name():
    originals = {(m.__name__, a): getattr(m, a) for m, a in rebound_names()}
    tracer = Tracer()
    with tracer.installed():
        for (module_name, attr), original in originals.items():
            assert getattr(importlib.import_module(module_name), attr) is not original
        workload = LargeNFit(sizes=(3000,), per_combo=1)
        workload.prepare(3)
        workload.run_pass(0, tracer.suspended)
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is original


def test_suspended_lifts_and_restores_wrappers():
    tracer = Tracer()
    with tracer.installed():
        wrapped = inference.fit_mle
        with tracer.suspended():
            assert inference.fit_mle is wrapped.__wrapped__
        assert inference.fit_mle is wrapped


def test_self_times_nonnegative_and_within_traced_wall(traced_runs):
    for name, (tracer, wall) in traced_runs.items():
        self_t = tracer.self_times()
        assert self_t.size > 0, name
        assert np.all(self_t >= 0.0), name
        assert self_t.sum() <= wall, name


def test_kernel_calls_cover_fit_evaluations(traced_runs):
    for name, (tracer, _wall) in traced_runs.items():
        m = tracer.layer_metrics()
        assert m["inference.fit_mle.evals"] > 0, name
        assert m["kernels.lehmann_sums.calls"] >= m["inference.fit_mle.evals"], name


def test_fit_evals_equal_sum_over_returned_fits():
    rng = np.random.default_rng(11)
    datasets = [
        (kind, data_model.from_bivariate(bvf_model.sample(CAPTION[kind], 300, rng)))
        for kind in (W, G, L)
    ]
    tracer = Tracer()
    with tracer.installed():
        fits = [inference.fit_mle(data, kind) for kind, data in datasets]
        fits += [inference.fit_mle(data, other) for (_k, data), other in zip(datasets, (G, L, W))]
    m = tracer.layer_metrics()
    assert m["inference.fit_mle.calls"] == len(fits)
    assert m["inference.fit_mle.evals"] == sum(f.n_evals for f in fits)


def test_layer_counts_reconcile_with_outputs(traced_runs):
    boot = traced_runs["boot-study"][0].layer_metrics()
    assert boot["simulation.study.replicates"] == 1
    assert boot["inference.bootstrap_ci.resamples"] == 8
    # one fit per replicate plus one per resample
    assert boot["inference.fit_mle.calls"] == 1 + 8
    select = traced_runs["select-study"][0].layer_metrics()
    assert select["selection.select_model.calls"] == 3 * 2 * 2
    assert select["inference.fit_mle.calls"] == 3 * select["selection.select_model.calls"]
    excluded = sum(select[f"selection.select_model.excluded.{k}"] for k in ("weibull", "gompertz", "lomax"))
    assert excluded == select["inference.fit_mle.no_mle"]
    large = traced_runs["large-n-fit"][0].layer_metrics()
    assert large["inference.fit_mle.calls"] == large["inference.asymptotic_ci.calls"] == 6
    assert large["bvf_model.sample.calls"] == 0


def test_command_prints_result_line_and_exits_zero():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-study",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_command_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boot-study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert time.perf_counter() - t0 < 180
