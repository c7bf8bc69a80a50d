"""Per-layer tracing by rebinding the package's public functions.

For a traced run, every public function of a layer is replaced, in each
``bvf`` module namespace that defines or calls it, by a thin timing wrapper.
Each call records one span (layer, parent span, start, end) in flat arrays
kept in memory; per-layer counts are taken from the call's arguments or
result at the same boundary. :meth:`Tracer.uninstall` puts every original
object back, so untraced timings run the package uninstrumented.

A layer's self time is its span's duration minus the time covered by its
child spans. Calls are single-threaded and nested, so the covered time is
the sum of the children's durations.
"""

import contextlib
import importlib
import time
from array import array

import numpy as np

from bvf.baselines import BaselineKind
from bvf.errors import SelectionError, SingularMatrixError
from bvf.inference import FitStatus

ROOT = -1

# span tags: what a call ended with
OK, NO_MLE, BOUNDARY, RAISED, SINGULAR = 0, 1, 2, 3, 4


def _fit_tag(result, exc):
    if exc is not None:
        return RAISED
    if result.status is FitStatus.NO_MLE_MONOTONE_PROFILE:
        return NO_MLE
    if result.status is FitStatus.BOUNDARY_ALPHA_ZERO:
        return BOUNDARY
    return OK


def _asymptotic_tag(result, exc):
    if exc is None:
        return OK
    return SINGULAR if isinstance(exc, SingularMatrixError) else RAISED


def _select_tag(result, exc):
    # SelectionError means every candidate had a monotone profile
    if exc is None:
        return OK
    return NO_MLE if isinstance(exc, SelectionError) else RAISED


def _count_kernel(counts, args, result):
    counts["records"] += args[2].size + args[3].size


def _count_fit(counts, args, result):
    counts["evals"] += result.n_evals


def _count_bootstrap(counts, args, result):
    counts["resamples"] += result.B
    counts["failed_resamples"] += result.n_failed


def _count_sample(counts, args, result):
    counts["pairs"] += result.shape[0]


def _count_select(counts, args, result):
    counts["ranked"] += len(result.ranked)
    counts["candidates"] += len(result.ranked) + len(result.excluded)
    for kind, _reason in result.excluded:
        counts["excluded." + kind.value.lower()] += 1


def _count_study(counts, args, result):
    cfg = result.config
    if hasattr(result, "rows"):
        counts["replicates"] += cfg.replications * len(cfg.n_grid)
        counts["failed"] += sum(row.dropped for row in result.rows)
    else:
        counts["replicates"] += cfg.replications
        counts["failed"] += result.failed_replications


# layer -> (function name, namespaces holding it, count hook, tag hook)
LAYERS = {
    "kernels.lehmann_sums": (
        "lehmann_sums", ("bvf._kernels",), _count_kernel, None,
    ),
    "inference.fit_mle": (
        "fit_mle",
        ("bvf.inference", "bvf.selection", "bvf.simulation"),
        _count_fit,
        _fit_tag,
    ),
    "inference.asymptotic_ci": (
        "asymptotic_ci",
        ("bvf.inference", "bvf.simulation"),
        None,
        _asymptotic_tag,
    ),
    "inference.bootstrap_ci": (
        "bootstrap_ci",
        ("bvf.inference", "bvf.simulation"),
        _count_bootstrap,
        None,
    ),
    "bvf_model.sample": (
        "sample",
        ("bvf.bvf_model", "bvf.inference", "bvf.simulation"),
        _count_sample,
        None,
    ),
    "data_model.from_bivariate": (
        "from_bivariate",
        ("bvf.data_model", "bvf.inference", "bvf.simulation"),
        None,
        None,
    ),
    "selection.select_model": (
        "select_model",
        ("bvf.selection", "bvf.simulation"),
        _count_select,
        _select_tag,
    ),
    "simulation.study": (
        ("run_estimation_study", "run_selection_study"),
        ("bvf.simulation",),
        _count_study,
        None,
    ),
}
LAYER_NAMES = tuple(LAYERS)
_LAYER_ID = {name: i for i, name in enumerate(LAYER_NAMES)}

# per-layer counters reported even when the layer is never called
_COUNTER_KEYS = {
    "kernels.lehmann_sums": ("records",),
    "inference.fit_mle": ("evals",),
    "inference.bootstrap_ci": ("resamples", "failed_resamples"),
    "bvf_model.sample": ("pairs",),
    "selection.select_model": (
        "ranked",
        "candidates",
        *("excluded." + k.value.lower() for k in BaselineKind),
    ),
    "simulation.study": ("replicates", "failed"),
}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span recorder that installs itself over the package's public names.

    Use as ``with tracer.installed(): ...``; :meth:`suspended` lifts the
    wrappers temporarily (for output checks that must not count as work).
    """

    def __init__(self):
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.tag = array("b")
        self.counts = {name: _Counts() for name in LAYER_NAMES}
        self._stack = [ROOT]
        self._originals = []  # (module, attribute, original object)

    def _wrap(self, layer_name, fn, count, tag):
        lid = _LAYER_ID[layer_name]
        layers, parents, starts, ends, child, tags = (
            self.layer, self.parent, self.start, self.end, self.child, self.tag,
        )
        stack = self._stack
        counts = self.counts[layer_name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            child.append(0.0)
            ends.append(0.0)
            tags.append(OK)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                ends[i] = t1
                tags[i] = tag(None, exc) if tag is not None else RAISED
                if stack[-1] != ROOT:
                    child[stack[-1]] += t1 - t0
                raise
            t1 = clock()
            stack.pop()
            ends[i] = t1
            if stack[-1] != ROOT:
                child[stack[-1]] += t1 - t0
            if tag is not None:
                tags[i] = tag(result, None)
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for layer_name, (attrs, modules, count, tag) in LAYERS.items():
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                original = getattr(importlib.import_module(modules[0]), attr)
                wrapper = self._wrap(layer_name, original, count, tag)
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    if getattr(module, attr) is not original:
                        raise RuntimeError(
                            f"{module_name}.{attr} is not the object defined "
                            f"in {modules[0]}"
                        )
                    self._originals.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def suspended(self):
        """Lift the wrappers for the duration."""
        saved = [(m, a, getattr(m, a)) for m, a, _ in self._originals]
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        try:
            yield
        finally:
            for module, attr, wrapper in saved:
                setattr(module, attr, wrapper)

    def spans(self) -> dict:
        """The recorded spans as NumPy arrays (for writing out)."""
        return {
            "layer_names": np.array(LAYER_NAMES),
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
        }

    def self_times(self) -> np.ndarray:
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur - np.frombuffer(self.child)

    def layer_metrics(self) -> dict:
        """Per-layer metrics named ``<layer>.<metric>``."""
        layer = np.frombuffer(self.layer, dtype=np.int8)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        tag = np.frombuffer(self.tag, dtype=np.int8)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_t = self.self_times()
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        out = {}

        def of(name):
            return layer == _LAYER_ID[name]

        def ms_pct(mask, q):
            return float(np.percentile(dur[mask], q) * 1e3) if mask.any() else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        for name in LAYER_NAMES:
            mask = of(name)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(self_t[mask].sum())
            # inclusive time of the outermost calls (a layer may nest in itself)
            outer = mask & (parent_layer != _LAYER_ID[name])
            out[f"{name}.total_s"] = float(dur[outer].sum())
            for key in _COUNTER_KEYS.get(name, ()):
                out[f"{name}.{key}"] = self.counts[name][key]

        k = "kernels.lehmann_sums"
        out[f"{k}.ns_per_record"] = ratio(out[f"{k}.self_s"] * 1e9, out[f"{k}.records"])
        out[f"{k}.bytes_computed"] = 8 * out[f"{k}.records"]

        f = "inference.fit_mle"
        fits = of(f)
        out[f"{f}.ms_p50"] = ms_pct(fits, 50)
        out[f"{f}.ms_p90"] = ms_pct(fits, 90)
        out[f"{f}.self_ms_per_call"] = ratio(out[f"{f}.self_s"] * 1e3, out[f"{f}.calls"])
        out[f"{f}.evals_per_fit"] = ratio(out[f"{f}.evals"], out[f"{f}.calls"])
        out[f"{f}.converged"] = int((fits & (tag == OK)).sum())
        out[f"{f}.no_mle"] = int((fits & (tag == NO_MLE)).sum())
        out[f"{f}.boundary"] = int((fits & (tag == BOUNDARY)).sum())
        out[f"{f}.raised"] = int((fits & (tag == RAISED)).sum())
        out[f"{f}.useful_ratio"] = ratio(out[f"{f}.converged"], out[f"{f}.calls"])

        a = "inference.asymptotic_ci"
        out[f"{a}.kernel_calls"] = int(
            (of(k) & (parent_layer == _LAYER_ID[a])).sum()
        )
        out[f"{a}.singular"] = int((of(a) & (tag == SINGULAR)).sum())

        b = "inference.bootstrap_ci"
        out[f"{b}.ms_p50"] = ms_pct(of(b), 50)
        out[f"{b}.useful_ratio"] = ratio(
            out[f"{b}.resamples"] - out[f"{b}.failed_resamples"], out[f"{b}.resamples"]
        )

        s = "bvf_model.sample"
        out[f"{s}.ns_per_pair"] = ratio(out[f"{s}.self_s"] * 1e9, out[f"{s}.pairs"])

        m = "selection.select_model"
        out[f"{m}.ms_p50"] = ms_pct(of(m), 50)
        out[f"{m}.useful_ratio"] = ratio(out[f"{m}.ranked"], out[f"{m}.candidates"])
        del out[f"{m}.ranked"], out[f"{m}.candidates"]

        st = "simulation.study"
        under_study = parent_layer == _LAYER_ID[st]
        # a replicate without an MLE: its own fit (estimation) or every
        # candidate (selection) had a monotone profile
        out[f"{st}.no_mle"] = int(
            (under_study & (of(f) | of(m)) & (tag == NO_MLE)).sum()
        )
        return {k: out[k] for name in LAYER_NAMES for k in out if k.startswith(name + ".")}
