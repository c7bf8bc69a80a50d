"""Fits and selections that must not depend on how the data are presented.

Small generated datasets of every kind, complete and censored, plus the
two flatness-decided no-MLE examples and datasets that end in a boundary
estimate, in no failures or in degenerate rates. For each:

- a permutation of the records, and every record twice, give the same
  outcome code (the two kinds of no MLE included) and the same selection;
- Weibull lambda-hat stays within 1e-10 relative under both;
- Weibull fits of t * c keep lambda-hat and n_evals, and the rates scale
  by c**-lambda-hat, to 1e-13 relative;
- a dataset fitted alone, first or last in a lockstep call of several
  kinds and sizes, and as a row of a bootstrap-sized stack, gets the same
  bits in every field of its fit;
- the single-dataset evaluations (``profile_loglik``,
  ``alphas_given_lambda``, ``log_likelihood`` and ``observed_fisher`` away
  from a fitted lambda) give the bits their dataset gets as the first,
  a middle or the last row of an engine call of several kinds and sizes,
  at a lambda where its survival sum overflows too.

Gompertz and Lomax estimates get no order, duplication or unit bound
here: those wait for the ROADMAP changes that remove the cancellation in
their profile score near the exponential limit and make their fits
independent of the time unit (their lambda has units of 1/time).
"""

import numpy as np
import pytest

from bvf import (
    BaselineKind,
    BvfError,
    BvfParams,
    CompetingRisksData,
    DegenerateDataError,
    SingularMatrixError,
    alphas_given_lambda,
    censoring_threshold,
    from_bivariate,
    log_likelihood,
    observed_fisher,
    profile_loglik,
    sample,
    select_model,
)
from bvf.inference import (
    _BOUNDARY,
    _DEGENERATE,
    _NO_FAILURES,
    _NO_MLE_CLAMP,
    _NO_MLE_FLAT,
    _curvature,
    _Fits,
    _fit_stacks,
    _hazard,
    _loglik_from_sums,
    _Passes,
    _Stack,
    _variances_from_moments,
    _workspace,
)

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX
CAPTION = {
    W: BvfParams(W, 1.34, 1.17, 0.86, 0.91),
    G: BvfParams(G, 1.13, 0.96, 0.79, 1.05),
    L: BvfParams(L, 0.85, 0.57, 0.74, 0.69),
}


def _datasets() -> list:
    out = []
    for kind, params in CAPTION.items():
        for frac in (0.0, 0.3):
            c = censoring_threshold(params, frac) if frac else None
            out += [from_bivariate(sample(params, (12, 40)[s % 2], s), c) for s in range(8)]
    # no ties (m0 = 0): a boundary estimate for every kind
    out.append(from_bivariate(sample(BvfParams(W, 0.0, 1.17, 0.86, 0.91), 30, 1)))
    # the two flatness-decided no-MLE examples: Gompertz on the Weibull
    # caption parent's n=20 seed 103 data in a time unit 1e4 too small, and
    # replicate 290 of criterion 7's 40%-censored Gompertz n=200 cell
    flat = from_bivariate(sample(CAPTION[W], 20, 103))
    out.append(CompetingRisksData(flat.t * 1e4, flat.delta))
    child = np.random.SeedSequence(9305).spawn(500)[290].spawn(2)[0]
    pairs = sample(CAPTION[G], 200, np.random.default_rng(child))
    out.append(from_bivariate(pairs, censoring_threshold(CAPTION[G], 0.4)))
    out.append(CompetingRisksData([1.5] * 12, [3] * 12))
    out.append(CompetingRisksData([5e-324] * 4 + [1e-320] * 2, [1, 2, 0, 1, 2, 1]))
    return out


DATASETS = _datasets()


def _fit(data, kind) -> _Fits:
    (fits,) = _fit_stacks([_workspace(data, kind)])
    return fits


def _chosen(data):
    """The kind select_model chooses, or the class of the error it raises."""
    try:
        return select_model(data).chosen
    except BvfError as exc:
        return type(exc)


@pytest.fixture(scope="module")
def base() -> dict:
    """Per dataset index: its fit of every kind, and its selection."""
    return {
        i: ({kind: _fit(data, kind) for kind in CAPTION}, _chosen(data))
        for i, data in enumerate(DATASETS)
    }


def _variants(data) -> dict:
    perm = np.random.default_rng(data.n).permutation(data.n)
    return {
        "permuted": CompetingRisksData(data.t[perm], data.delta[perm]),
        "doubled": CompetingRisksData(np.repeat(data.t, 2), np.repeat(data.delta, 2)),
    }


def test_the_datasets_take_every_outcome(base):
    codes = {int(fits.code[0]) for by_kind, _ in base.values() for fits in by_kind.values()}
    assert {_BOUNDARY, _NO_MLE_CLAMP, _NO_MLE_FLAT, _NO_FAILURES, _DEGENERATE} <= codes


@pytest.mark.parametrize("variant", ["permuted", "doubled"])
def test_record_order_and_duplication_keep_codes_and_selections(variant, base):
    for i, data in enumerate(DATASETS):
        other = _variants(data)[variant]
        fits, chosen = base[i]
        for kind in CAPTION:
            want, got = fits[kind], _fit(other, kind)
            assert got.code.tolist() == want.code.tolist(), (i, kind)
            if kind is W and want.code[0] <= _BOUNDARY:
                assert abs(got.lam[0] - want.lam[0]) <= 1e-10 * want.lam[0], i
        assert _chosen(other) == chosen, i


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_weibull_fits_do_not_depend_on_the_time_unit(c, base):
    # all but the last dataset, whose subnormal times would underflow
    for i, data in enumerate(DATASETS[:-1]):
        want = base[i][0][W]
        got = _fit(CompetingRisksData(data.t * c, data.delta), W)
        assert got.code.tolist() == want.code.tolist(), i
        assert got.n_evals.tolist() == want.n_evals.tolist(), i
        if want.code[0] <= _BOUNDARY:
            lam = want.lam[0]
            assert got.lam[0] == pytest.approx(lam, rel=1e-13, abs=0), i
            scaled = want.alphas[:, 0] * c**-lam
            assert got.alphas[:, 0] == pytest.approx(scaled, rel=1e-13, abs=0), i


def _stack_of(datasets, kind) -> _Stack:
    return _Stack(
        kind, np.array([d.t for d in datasets]), np.array([d.delta for d in datasets])
    )


def _assert_same_row(got: _Fits, r: int, want: _Fits) -> None:
    for name in _Fits._fields:
        assert getattr(got, name)[..., r].tobytes() == getattr(want, name)[..., 0].tobytes(), name


@pytest.mark.parametrize("kind", [W, G, L])
def test_stack_position_keeps_every_bit(kind, base):
    # the 40-record datasets of every parent, and a bootstrap-sized stack
    # of 100 of them in which each sits once
    same_n = [i for i, d in enumerate(DATASETS) if d.n == 40]
    rng = np.random.default_rng(40)
    pool = [from_bivariate(sample(CAPTION[kind], 40, rng)) for _ in range(100 - len(same_n))]
    big = _fit_stacks([_stack_of([DATASETS[i] for i in same_n] + pool, kind)])[0]
    small = [d for d in DATASETS if d.n == 12][:4]
    others = [_stack_of(small, k) for k in (W, G, L) if k is not kind]
    for j, i in enumerate(same_n):
        alone = base[i][0][kind]
        first = _fit_stacks([_stack_of([DATASETS[i]], kind), *others])[0]
        last = _fit_stacks([*others, _stack_of([DATASETS[i]], kind)])[-1]
        for got, r in ((first, 0), (last, 0), (big, j)):
            _assert_same_row(got, r, alone)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _rates(kind) -> tuple:
    p = CAPTION[kind]
    return p.alpha0, p.alpha1, p.alpha2


def _evaluations(data, kind, lam) -> dict:
    """profile_loglik, alphas_given_lambda, log_likelihood and the
    observed_fisher of a new dataset object over ``data``'s records, at
    ``lam`` and the closed-form rates (the caption rates where those
    fail), each as its bits or its error's class."""
    out = {}
    for name, evaluate in (
        ("profile", lambda: profile_loglik(lam, data, kind)),
        ("alphas", lambda: alphas_given_lambda(lam, data, kind)),
    ):
        try:
            out[name] = _bits(evaluate())
        except BvfError as exc:
            out[name] = type(exc)
    rates = _rates(kind)
    if isinstance(out["alphas"], bytes):
        rates = alphas_given_lambda(lam, data, kind)
    point = BvfParams(kind, *rates, lam)
    out["loglik"] = _bits(log_likelihood(point, data))
    fresh = CompetingRisksData(data.t, data.delta, data.censoring_time)
    try:
        out["fisher"] = _bits(observed_fisher(point, fresh))
    except BvfError as exc:
        out["fisher"] = type(exc)
    return out


def _evaluations_in_call(passes, r, lams, kind) -> dict:
    """What :func:`_evaluations` reads, from row ``r`` of the engine call
    ``passes`` with each row of the call at its lambda of ``lams``."""
    rows = np.arange(lams.size)
    at = slice(r, r + 1)
    lam, m = lams[at], passes.counts[:, at]
    out = {"profile": _bits(passes.profile(rows, lams)[r])}
    _, (a, unc_log1p) = passes.survival(rows, lams)
    if np.isfinite(a[r]) and a[r] > 0.0:
        rates = [m_k / float(a[r]) for m_k in m[:, 0].tolist()]
        out["alphas"] = _bits(rates)
    else:
        out["alphas"], rates = DegenerateDataError, _rates(kind)
    alphas = np.array(rates)[:, None]
    c = _hazard(passes.terms[:, at], lam, unc_log1p[at])
    out["loglik"] = _bits(_loglik_from_sums(m, alphas, a[at], c))
    _, _, a1, a2, _, uq2 = passes.newton(rows, lams)[2][:, at]
    c2 = _curvature(passes.terms[0, at], lam, uq2)
    if np.isnan(_variances_from_moments(m, alphas, a1, a2, c2)).any():
        out["fisher"] = SingularMatrixError
    else:
        # observed_fisher's matrix, in its order of operations
        info = np.diag(np.append(m[:, 0] / alphas[:, 0] ** 2, 0.0))
        info[:3, 3] = info[3, :3] = a1[0]
        info[3, 3] = (alphas[0, 0] + alphas[1, 0] + alphas[2, 0]) * a2[0] - c2[0]
        out["fisher"] = _bits(info)
    return out


# per kind, a record, its mode and a lambda at which its survival term
# overflows: exp(30 log 1e30) (Weibull), expm1(1000) (Gompertz), and
# log1p(1e10 C) at a record censored at C = 1e300, where the hazard sum is
# NaN (Lomax)
_OVERFLOW = {W: (1e30, 1, 30.0), G: (1000.0, 1, 1.0), L: (1e300, 3, 1e10)}


@pytest.mark.parametrize("kind", [W, G, L])
def test_single_dataset_evaluations_keep_their_bits_in_any_call_position(kind):
    big, mode, over = _OVERFLOW[kind]
    rng = np.random.default_rng(30)
    regular, *neighbours = [from_bivariate(sample(CAPTION[kind], 30, rng)) for _ in range(3)]
    t, delta = regular.t.copy(), regular.delta.copy()
    t[4], delta[4] = big, mode
    overflowing = CompetingRisksData(t, delta)
    assert min(regular.m0, regular.m1, regular.m2) > 0
    # stacks of the two other kinds, of other sizes
    others = [
        _stack_of([from_bivariate(sample(CAPTION[k], n, seed)) for seed in (1, 2)], k)
        for k, n in zip([k for k in CAPTION if k is not kind], (12, 50))
    ]
    for data, lam in ((regular, 0.7), (overflowing, over)):
        want = _evaluations(data, kind, lam)
        assert isinstance(want["fisher"], bytes) == (data is regular)
        # the dataset is the call's first row, a middle row, and its last
        for place in range(3):
            rows = neighbours[:]
            rows.insert(place, data)
            own = _stack_of(rows, kind)
            stacks = ([own, *others], [others[0], own, others[1]], [*others, own])[place]
            passes = _Passes(stacks)
            r = passes.slices[stacks.index(own)].start + place
            lams = np.full(passes.terms.shape[1], 0.9)
            lams[r] = lam
            with np.errstate(all="ignore"):
                got = _evaluations_in_call(passes, r, lams, kind)
            assert got == want, (lam, place)
