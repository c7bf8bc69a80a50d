"""Maximum-likelihood estimation for the bivariate family.

The log-likelihood of competing-risks data (ignoring an additive constant) is

    sum_k m_k log alpha_k  +  (alpha0+alpha1+alpha2) * sum_i log S0(t_i)
                           +  sum_{uncensored} log h0(t_i)

which is maximized in two stages: for fixed lambda the alphas have the closed
form alpha_k = -m_k / sum_i log S0(t_i), and substituting them back leaves a
one-dimensional profile p(lambda). A geometric ladder of lambda values decides
whether the profile has an interior maximum and brackets it; a safeguarded
Newton iteration on the profile score p'(lambda), in log lambda and with
closed-form first and second derivatives, then locates it.

One engine fits R equal-length datasets at once, stacked as (R, n) arrays:
:func:`fit_mle` is its one-row case; :func:`bootstrap_ci` refits all its
resamples, and a study chunk fits all its datasets, in one call. Every sum
runs along a row in NumPy, so a row's fit does not depend on the other
rows. Each pass over the records, and the draws, run in row blocks of at
most 16384 records (``_SCAN_RECORDS``). Their temporaries stay in cache
and are reused from block to block, where whole-stack temporaries would be
mapped and faulted in afresh on every pass: a boot-study replicate (n=400,
B=100) took about 1470 minor page faults as one block and 125 in blocks.

Confidence intervals come either from the observed information matrix
(negative Hessian, in closed form) or from a parametric percentile bootstrap
that refits resamples drawn at the MLE. The information is a diagonal rate
block bordered by one lambda row, so its inverse has a closed form too: the
Wald variances need the lambda Schur complement s (-p''(lambda) at the
closed-form rates), and the matrix is positive definite exactly when every
failure count m_k is positive, s > 0 and every entry is finite. No matrix is
factorized, and one stacked pass gives the variances of a whole stack of
fits (:func:`_wald_variances`), as it gives :func:`asymptotic_ci` one.
"""

import collections
import enum
import math
import numbers
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .baselines import BaselineKind, _check_lambda
# sample and from_bivariate are not called here, but stay names of this
# module: perfbench's tracer rebinds them in every namespace that held them
from .bvf_model import (  # noqa: F401
    BvfParams,
    _check_count,
    _child_states,
    _pairs_from_uniforms,
    _pcg64_state,
    _seed_sequence,
    sample,
)
from .data_model import (  # noqa: F401
    CompetingRisksData,
    FailureMode,
    _first_failure,
    from_bivariate,
)
from .errors import (
    BvfError,
    DegenerateDataError,
    DomainError,
    EstimationError,
    ResampleFailureError,
    SingularMatrixError,
    ValidationError,
)

__all__ = [
    "PARAM_NAMES",
    "FitStatus",
    "FitResult",
    "CiMethod",
    "ConfidenceIntervalSet",
    "log_likelihood",
    "alphas_given_lambda",
    "profile_loglik",
    "fit_mle",
    "observed_fisher",
    "asymptotic_ci",
    "bootstrap_ci",
    "percentile_ranks",
]

PARAM_NAMES = ("alpha0", "alpha1", "alpha2", "lambda")


class FitStatus(enum.Enum):
    CONVERGED = "Converged"
    NO_MLE_MONOTONE_PROFILE = "NoMleMonotoneProfile"
    BOUNDARY_ALPHA_ZERO = "BoundaryAlphaZero"


class CiMethod(enum.Enum):
    ASYMPTOTIC = "Asymptotic"
    BOOTSTRAP = "Bootstrap"


_MODES = np.array([[FailureMode.TIE], [FailureMode.RISK1_FIRST], [FailureMode.RISK2_FIRST]])

# every row of a stack; for a one-row stack, a view instead of a gather
_ALL = slice(None)

# Records per block of a stacked pass, and per ladder-scan call below which
# the call's fixed cost dominates. A block's float temporaries take at most
# 128 KB: they stay in cache, and glibc's malloc hands the same memory back
# from block to block. Whole-stack temporaries (0.3-5 MB in a bootstrap
# stack) are mapped afresh on every pass, and each new page costs a minor
# fault of about 2 us. On a 2-core x86-64 host with NumPy 2.4, exp(lam*x)
# summed over 300 x 400 records took 0.9-1.2 ms with 436 faults as one
# block, and 0.26-0.35 ms with none in 40-row blocks.
_SCAN_RECORDS = 1 << 14


def _row_blocks(R: int, n: int) -> list:
    """Slices of consecutive rows of a (R, n) stack, each holding at most
    _SCAN_RECORDS records and never fewer than one row."""
    per = max(1, _SCAN_RECORDS // n)
    return [slice(lo, min(lo + per, R)) for lo in range(0, R, per)]


class _Stack:
    """R equal-length datasets of one kind, stacked as (R, n) arrays: the form
    in which the fitting engine evaluates the profile and its derivatives.

    ``x`` holds the per-record transform: log(t) for Weibull (so t**lam =
    exp(lam*log t)), t itself otherwise; ``unc`` marks uncensored records.
    Methods take rows (an index array, or ``_ALL``) and one lambda per row,
    and reduce along the last axis only, so a row's numbers are the same
    bits whatever else is stacked with it. Callers silence floating-point
    warnings: overflow saturates to inf and the log of 0 is -inf.

    Every pass over the records runs in row blocks of at most
    ``_SCAN_RECORDS`` records (:func:`_row_blocks`), and only per-row sums
    leave a block. Each row is still summed whole, as one contiguous row,
    so the blocks change no bit; they keep the temporaries small enough to stay
    in cache and be reused, where (R, n) temporaries would be mapped and
    page-faulted in afresh on every pass. A one-row stack evaluated at
    several lambdas broadcasts its row instead of gathering copies.
    """

    __slots__ = ("kind", "x", "unc", "counts", "m", "unc_sum")

    @np.errstate(all="ignore")
    def __init__(self, kind: BaselineKind, t: np.ndarray, delta: np.ndarray):
        self.kind = kind
        R, n = t.shape
        self.x = np.empty_like(t) if kind is BaselineKind.WEIBULL else t
        self.unc = delta != FailureMode.CENSORED
        self.counts = np.empty((3, R), dtype=np.int64)
        # sum_unc log h0 is m log(lam) plus lam (Gompertz) or lam - 1
        # (Weibull) times this sum; for Lomax it needs a pass per lambda
        if kind is not BaselineKind.LOMAX:
            self.unc_sum = np.empty(R)
        for blk in _row_blocks(R, n):
            if kind is BaselineKind.WEIBULL:
                np.log(t[blk], out=self.x[blk])
            self.counts[:, blk] = (delta[blk, None, :] == _MODES).sum(axis=-1).T
            if kind is not BaselineKind.LOMAX:
                self.unc_sum[blk] = np.where(self.unc[blk], self.x[blk], 0.0).sum(axis=-1)
        self.m = self.counts.sum(axis=0)

    def _block(self, rows, sel):
        """x and, for Lomax, unc (None otherwise) of ``rows[sel]``. A one-row
        stack gives its own (1, n) arrays, which broadcast against any
        number of lambdas, instead of gathering copies of its row."""
        if self.x.shape[0] == 1:
            return self.x, self.unc
        idx = sel if rows is _ALL else rows[sel]
        return self.x[idx], self.unc[idx] if self.kind is BaselineKind.LOMAX else None

    def _rowwise(self, sums, rows, lam):
        """The per-row sums that ``sums(x, unc, lam)`` returns for a block of
        records, at each of ``rows``: evaluated in the blocks of
        :func:`_row_blocks` (``per`` rows each), and joined into one (k, R)
        array when there is more than one."""
        per = max(1, _SCAN_RECORDS // self.x.shape[-1])
        if lam.size <= per:
            return sums(*self._block(rows, _ALL), lam)
        return np.concatenate(
            [
                sums(*self._block(rows, blk), lam[blk])
                for blk in _row_blocks(lam.size, self.x.shape[-1])
            ],
            axis=1,
        )

    def _survival_sums(self, x, unc, lam):
        """The per-row record sums of :meth:`survival` over one block."""
        z = lam[:, None] * x
        if self.kind is BaselineKind.WEIBULL:
            return (np.exp(z).sum(axis=-1),)
        if self.kind is BaselineKind.GOMPERTZ:
            return (np.expm1(z).sum(axis=-1),)
        s = np.log1p(z)
        return s.sum(axis=-1), np.where(unc, s, 0.0).sum(axis=-1)

    def survival(self, rows, lam):
        """The survival sum a = -sum_all log S0(t_i) and the hazard sum
        c = sum_unc log h0(t_i) at each row, in one transcendental pass."""
        sums = self._rowwise(self._survival_sums, rows, lam)
        c = self.m[rows] * np.log(lam)
        if self.kind is BaselineKind.WEIBULL:
            c += (lam - 1.0) * self.unc_sum[rows]
        elif self.kind is BaselineKind.GOMPERTZ:
            c += lam * self.unc_sum[rows]
        else:
            c -= sums[1]
        return sums[0], c

    def profile(self, rows, lam) -> np.ndarray:
        """p(lambda) = c - m log a at each row; -inf where a vanishes or is
        undefined. A survival sum past double range (Weibull and Gompertz
        only; Lomax sums grow logarithmically) has its log taken as a
        logsumexp over z = lam*x, the -1 terms of Gompertz's expm1 being
        negligible there: keeping the profile finite stops a monotone rise
        being mistaken for an interior maximum."""
        a, c = self.survival(rows, lam)
        m = self.m[rows]
        log_a = np.log(a)
        p = c - m * log_a
        if not np.isfinite(log_a).all():
            if self.kind is not BaselineKind.LOMAX:
                over = np.flatnonzero(a == np.inf)
                e, hi = _shifted_exp(lam[over, None] * self._block(rows, over)[0])
                p[over] = c[over] - m[over] * (hi + np.log(e.sum(axis=-1)))
            p[~((a > 0.0) & (p > -np.inf))] = -np.inf
        return p

    def _slope_sums(self, x, unc, lam):
        """The per-row record sums of :meth:`_slopes` over one block."""
        z = lam[:, None] * x
        if self.kind is BaselineKind.LOMAX:
            q = x / (1.0 + z)
            qq = q * q
            return (
                np.log1p(z).sum(axis=-1),
                q.sum(axis=-1),
                -qq.sum(axis=-1),
                np.where(unc, q, 0.0).sum(axis=-1),
                np.where(unc, qq, 0.0).sum(axis=-1),
            )
        if self.kind is BaselineKind.WEIBULL:
            s = np.exp(z)
            xe = x * s
        else:
            s = np.expm1(z)
            xe = x * (s + 1.0)
        return s.sum(axis=-1), xe.sum(axis=-1), (x * xe).sum(axis=-1)

    def _slopes(self, rows, lam):
        """The survival sum a and its lambda derivatives a' and a'' at each
        row, and for Lomax the uncensored sums of q and q**2 that the hazard
        terms need (None otherwise). Weibull and Gompertz share
        a = sum exp(lam*x) up to a constant, so a' = sum x exp(lam*x) and
        a'' = sum x**2 exp(lam*x); for Lomax, with q = t / (1 + lam*t),
        a' = sum q and a'' = -sum q**2."""
        sums = self._rowwise(self._slope_sums, rows, lam)
        return tuple(sums) if self.kind is BaselineKind.LOMAX else (*sums, None, None)

    def moments(self, rows, lam):
        """a', a'' and c'' at each row (see :meth:`_slopes`); c'' is
        -m / lam**2, plus sum_unc q**2 for Lomax."""
        _, a1, a2, _, uq2 = self._slopes(rows, lam)
        c2 = -self.m[rows] / lam**2
        return a1, a2, c2 if uq2 is None else c2 + uq2

    def newton_terms(self, rows, lam):
        """The survival sum a and the first two derivatives of the profile in
        log lambda, g = lam p' and h = lam p' + lam**2 p'', at each row, from

            p'  = c' - m a'/a
            p'' = c'' - m (a''/a - (a'/a)**2)

        where lam c' is m + lam sum_unc x (Weibull, Gompertz) or
        m - lam sum_unc q (Lomax), and lam**2 c'' is -m, plus
        lam**2 sum_unc q**2 for Lomax.
        """
        a, a1, a2, uq, uq2 = self._slopes(rows, lam)
        m = self.m[rows]
        r1 = a1 / a
        r2 = a2 / a
        if self.kind is not BaselineKind.LOMAX and not np.isfinite(r2).all():
            # survival sums past double range: the ratios from exp(z - max z)
            over = np.flatnonzero(a == np.inf)
            x = self._block(rows, over)[0]
            e, _ = _shifted_exp(lam[over, None] * x)
            se = e.sum(axis=-1)
            xe = x * e
            r1[over] = xe.sum(axis=-1) / se
            r2[over] = (x * xe).sum(axis=-1) / se
        lam2 = lam * lam
        if uq is None:
            g = m + lam * self.unc_sum[rows] - m * (lam * r1)
            h = g - m - m * (lam2 * (r2 - r1 * r1))
        else:
            g = m - lam * uq - m * (lam * r1)
            h = g + lam2 * uq2 - m - m * (lam2 * (r2 - r1 * r1))
        return a, g, h


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(z - max z) along the last axis, and the row maxima."""
    hi = z.max(axis=-1)
    return np.exp(z - hi[:, None]), hi


def _workspace(data: CompetingRisksData, kind: BaselineKind) -> _Stack:
    """The one-row stack of ``data``, built once per (data, kind)."""
    key = ("workspace", kind)
    ws = data._cache.get(key)
    if ws is None:
        ws = _Stack(kind, data.t[None, :], data.delta[None, :])
        data._cache[key] = ws
    return ws


def log_likelihood(p: BvfParams, data: CompetingRisksData) -> float:
    """Log-likelihood of the data at parameters ``p`` (additive constant
    dropped).

    The survival sum runs over all n records, censored included; the hazard
    sum over uncensored records only. Returns ``-inf`` where the likelihood
    vanishes (e.g. a zero alpha against a nonzero count).
    """
    alphas = np.array([[p.alpha0], [p.alpha1], [p.alpha2]])
    return _loglik_rows(_workspace(data, p.kind), _ALL, np.array([p.lam]), alphas)[0]


def _loglik_rows(stack: _Stack, rows, lam: np.ndarray, alphas: np.ndarray) -> list:
    """:func:`log_likelihood` at each of ``rows``, with one lambda and one
    column of ``alphas`` (shape (3, R)) per row. The per-record sums take
    one stacked pass; the rest is scalar arithmetic per row, so every row
    gets the bits its one-row call would."""
    with np.errstate(all="ignore"):
        a, c = stack.survival(rows, lam)
    return [
        _loglik_from_sums(m, alpha, a_r, c_r)
        for m, alpha, a_r, c_r in zip(
            stack.counts[:, rows].T.tolist(), alphas.T.tolist(), a.tolist(), c.tolist()
        )
    ]


def _loglik_from_sums(m: list, alpha: list, a: float, c: float) -> float:
    """The log-likelihood from the counts m_k, the alphas, the survival sum
    a and the hazard sum c, in one fixed float operation order."""
    if not math.isfinite(a):
        return -math.inf
    total = 0.0
    for m_k, alpha_k in zip(m, alpha):
        if m_k:
            if alpha_k <= 0.0:
                return -math.inf
            total += m_k * math.log(alpha_k)
    total += -(alpha[0] + alpha[1] + alpha[2]) * a
    total += c
    return total


def alphas_given_lambda(
    lam: float, data: CompetingRisksData, kind: BaselineKind
) -> tuple[float, float, float]:
    """Closed-form alpha maximizers at fixed lambda:
    alpha_k = -m_k / sum_i log S0(t_i; lambda).

    Each component is >= 0, and equals 0 exactly when its count m_k is 0.
    """
    lam = _check_lambda(lam)
    ws = _workspace(data, kind)
    with np.errstate(all="ignore"):
        a = float(ws.survival(_ALL, np.array([lam]))[0][0])
    if not math.isfinite(a) or a <= 0.0:
        raise DegenerateDataError(f"sum of log S0 vanished or overflowed at lambda={lam!r}")
    m0, m1, m2 = ws.counts[:, 0].tolist()
    return (m0 / a, m1 / a, m2 / a)


def profile_loglik(lam: float, data: CompetingRisksData, kind: BaselineKind) -> float:
    """Profile log-likelihood p(lambda): the log-likelihood with the alphas
    replaced by their closed forms, up to a lambda-free constant.

        p(lambda) = -(m0+m1+m2) * log(-sum_i log S0(t_i))
                    + sum_{uncensored} log h0(t_i)

    The difference log_likelihood(alphas(lambda), lambda) - p(lambda) equals
    sum_k m_k log m_k - (m0+m1+m2) for every lambda.
    """
    lam = _check_lambda(lam)
    ws = _workspace(data, kind)
    if ws.m[0] == 0:
        raise EstimationError("no failures observed")
    with np.errstate(all="ignore"):
        return float(ws.profile(_ALL, np.array([lam]))[0])


class FitOptions:
    """The fitting engine's fixed search range for lambda, ``bracket``. It
    takes no arguments: every fit searches the same range, from the same
    start (see :func:`fit_mle`)."""

    bracket = (1e-8, 1e8)


# The ladder: 1 and its multiples by powers of 4 inside the search range,
# clamped to its ends; 29 rungs, read-only, with the start at rung 14
_RUNGS = np.array([FitOptions.bracket[0], *4.0 ** np.arange(-13, 14), FitOptions.bracket[1]])
_RUNGS.flags.writeable = False
_START = 14

# Newton stops when its step is at most _TOL * lambda, or once its row has
# made _MAX_EVALS profile evaluations, ladder rungs included.
_TOL = 1e-10
_MAX_EVALS = 500

# Relative flatness below which a maximum adjacent to a bracket clamp is not
# distinguishable from a monotone profile's finite limit (float noise there
# would otherwise fabricate an interior MLE).
_FLATNESS_RTOL = 1e-8


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_mle`.

    ``params_hat``/``loglik_max`` are None exactly when no MLE exists
    (status NoMleMonotoneProfile). ``n_evals`` counts the profile
    evaluations the fit needed: ladder rungs, Newton iterates, and the
    flatness check's clamp rung and lambda-hat. Rungs a batched ladder scan
    evaluated past the profile's fall are not counted, so a fit reports the
    same count alone as in any stack.
    """

    kind: BaselineKind
    status: FitStatus
    params_hat: Optional[BvfParams]
    loglik_max: Optional[float]
    n_evals: int

    def to_json_dict(self) -> dict:
        p = self.params_hat
        return {
            "kind": self.kind.value,
            "status": self.status.value,
            "alpha0": None if p is None else p.alpha0,
            "alpha1": None if p is None else p.alpha1,
            "alpha2": None if p is None else p.alpha2,
            "lambda": None if p is None else p.lam,
            "loglik": self.loglik_max,
            "n_evals": self.n_evals,
        }


class _Fits(NamedTuple):
    """Per-row outcome of :func:`_fit_stack`.

    ``outcome[r]`` is a :class:`FitStatus`, or the error :func:`fit_mle`
    raises for that row. ``lam`` and ``alphas`` (shape (3, R)) hold the
    estimates of rows whose outcome is Converged or BoundaryAlphaZero.
    """

    outcome: list
    lam: np.ndarray
    alphas: np.ndarray
    n_evals: np.ndarray


@np.errstate(all="ignore")
def _fit_stack(stack: _Stack) -> _Fits:
    """Fit every row of ``stack``.

    Each row climbs the ladder (``_RUNGS``) from lambda = 1 to a local
    maximum of the profile (every rung is evaluated when the start is -inf).
    A maximum at a clamped end means no MLE. An interior maximum at rung k
    is refined by Newton steps on the score in log lambda inside
    [rung k-1, rung k+1]: each iterate narrows the bracket by the sign of its
    score, and a step that would leave the bracket, or that comes from a
    non-concave point, bisects it in log lambda instead. Newton stops when
    its step or the bracket is at most _TOL * lambda, when its next iterate
    is its previous one, or once its row has made _MAX_EVALS evaluations;
    lambda-hat is its last iterate. A maximum next to a clamp then faces the
    flatness check (``_FLATNESS_RTOL``). Rungs cost one transcendental pass
    per record; only Newton iterates take the derivative sums. A row's
    ``n_evals`` counts the rungs a one-rung scan would evaluate, whatever
    the chunk size, and no stopping rule looks at another row, so each row
    gets the bits and the count of its one-row fit.
    """
    R = stack.m.size
    rungs, start = _RUNGS, _START
    last = rungs.size - 1
    # column k+1 holds p(rung k), NaN until evaluated; the two -inf end
    # columns stand for the missing neighbours of the clamps
    vals = np.full((R, rungs.size + 2), np.nan)
    vals[:, 0] = vals[:, -1] = -np.inf
    n_evals = np.zeros(R, dtype=np.int64)
    outcome: list = [None] * R

    def evaluate(rows, idx):
        new = np.isnan(vals[rows, idx + 1])
        rows, idx = rows[new], idx[new]
        if rows.size:
            vals[rows, idx + 1] = stack.profile(rows, rungs[idx])
            np.add.at(n_evals, rows, 1)

    for r in np.flatnonzero(stack.m == 0).tolist():
        outcome[r] = EstimationError("no failures observed")
    act = np.flatnonzero(stack.m > 0)
    cur = np.full(R, start)
    # the climb always looks at the start and both its neighbours
    around = np.arange(max(start - 1, 0), min(start + 1, last) + 1)
    evaluate(np.repeat(act, around.size), np.tile(around, act.size))
    dead = act[vals[act, start + 1] == -np.inf]
    if dead.size:
        evaluate(np.repeat(dead, rungs.size), np.tile(np.arange(rungs.size), dead.size))
        cur[dead] = vals[dead, 1:-1].argmax(axis=1)
        hopeless = dead[vals[dead, cur[dead] + 1] == -np.inf]
        for r in hopeless.tolist():
            outcome[r] = EstimationError(
                "profile log-likelihood is -inf over the entire bracket"
            )
        act = np.setdiff1d(act, hopeless)

    # First step: to the better neighbour (left, unless right beats it too).
    # Every later step of the climbing rule keeps that direction while the
    # profile rises, so the rest of the climb is a scan. It evaluates k rungs
    # ahead per call, k doubling from a size at which the chunk's records
    # cost about what the call itself does. Rungs of the last chunk past the
    # first fall are forgotten and not counted; they are all new to the
    # chunk, since the scan moves away from every evaluated rung.
    c = cur[act]
    p_left, p_cur, p_right = vals[act, c], vals[act, c + 1], vals[act, c + 2]
    go_left = p_left > p_cur
    go_right = p_right > np.where(go_left, p_left, p_cur)
    step = np.where(go_right, 1, np.where(go_left, -1, 0))
    cur[act] = c + step
    scan, step = act[step != 0], step[step != 0]
    k = min(rungs.size, max(1, _SCAN_RECORDS // max(1, scan.size * stack.x.shape[-1])))
    while scan.size:
        c = cur[scan]
        path = c[:, None] + step[:, None] * np.arange(k + 1)
        ahead = path[:, 1:]
        inside = (ahead >= 0) & (ahead <= last)
        row_of = np.broadcast_to(scan[:, None], ahead.shape)
        evaluate(row_of[inside], ahead[inside])
        p = vals[scan[:, None], np.clip(path + 1, 0, last + 2)]
        falls = p[:, 1:] <= p[:, :-1]
        stops = falls.any(axis=1)
        fall = np.where(stops, falls.argmax(axis=1), k)
        vain = inside & (np.arange(k) > fall[:, None])
        vals[row_of[vain], ahead[vain] + 1] = np.nan
        np.subtract.at(n_evals, row_of[vain], 1)
        cur[scan] = c + step * fall
        scan, step = scan[~stops], step[~stops]
        k *= 2

    c = cur[act]
    edge = (c == 0) | (c == last)
    for r in act[edge].tolist():
        outcome[r] = FitStatus.NO_MLE_MONOTONE_PROFILE
    inner = act[~edge]

    # Newton: each active row has its iterate lambda and its bracket [lo, hi].
    # Both lambda and the next iterate lie in the bracket, so a bracket
    # narrower than _TOL * lambda stops Newton too.
    lam_hat = np.full(R, np.nan)
    a_hat = np.full(R, np.nan)
    act = inner
    c = cur[act]
    lam, lo, hi = rungs[c], rungs[c - 1], rungs[c + 1]
    prev = np.full(act.size, np.nan)
    while act.size:
        rows = act if act.size < R else _ALL
        a, g, h = stack.newton_terms(rows, lam)
        np.add.at(n_evals, rows, 1)
        lo = np.where(g > 0.0, lam, lo)
        hi = np.where(g < 0.0, lam, hi)
        # from a non-concave point (h >= 0) the step points away from the
        # root, past the bracket end lambda has just become, so it bisects
        nxt = lam * np.exp(g / -h)
        nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, np.sqrt(lo * hi))
        # a step back to the previous iterate starts a two-cycle: at the
        # rounding floor each step can land on the other end of the bracket
        go = (np.abs(nxt - lam) > _TOL * lam) & (nxt != prev) & (n_evals[act] < _MAX_EVALS)
        if not go.all():
            stop = ~go
            done = act[stop]
            lam_hat[done], a_hat[done] = lam[stop], a[stop]
            act, nxt, lo, hi, lam = act[go], nxt[go], lo[go], hi[go], lam[go]
        prev, lam = lam, nxt

    # flatness guard: a "maximum" close to a clamp that barely beats the
    # clamp value is a monotone profile seen through float noise
    c = cur[inner]
    near_lo = rungs[c] / rungs[0] <= 64.0
    near = near_lo | (rungs[last] / rungs[c] <= 64.0)
    if near.any():
        rows = inner[near]
        clamp = np.where(near_lo[near], 0, last)
        evaluate(rows, clamp)
        p_hat = stack.profile(rows, lam_hat[rows])
        np.add.at(n_evals, rows, 1)
        gap = p_hat - vals[rows, clamp + 1]
        for r in rows[gap < _FLATNESS_RTOL * (1.0 + np.abs(p_hat))].tolist():
            outcome[r] = FitStatus.NO_MLE_MONOTONE_PROFILE

    alphas = stack.counts / a_hat
    finite = (np.isfinite(a_hat) & np.isfinite(alphas).all(axis=0))[inner]
    full = stack.counts[:, inner].all(axis=0)
    for r, ok, interior in zip(inner.tolist(), finite.tolist(), full.tolist()):
        if outcome[r] is not None:
            continue
        if not ok:
            outcome[r] = DegenerateDataError(
                f"sum of log S0 vanished or overflowed at lambda={float(lam_hat[r])!r}"
            )
        elif interior:
            outcome[r] = FitStatus.CONVERGED
        else:
            outcome[r] = FitStatus.BOUNDARY_ALPHA_ZERO
    return _Fits(outcome, lam_hat, alphas, n_evals)


def fit_mle(data: CompetingRisksData, kind: BaselineKind) -> FitResult:
    """Maximum-likelihood fit of the four parameters for one baseline kind.

    Strategy: evaluate the profile on a fixed geometric ladder of lambda
    values, 1 times powers of 4 clamped to the search range [1e-8, 1e8]
    (29 rungs), and climb from lambda = 1 to a local maximum. A maximum at
    a clamped end of the range means the profile is monotone there and no
    MLE exists (status NoMleMonotoneProfile); so does a maximum next to a
    clamp that beats the clamp value by float noise only. An interior
    maximum brackets the root of the profile score p'(lambda), which a
    safeguarded Newton iteration in log lambda, with closed-form
    derivatives, locates; Newton stops when its step is at most 1e-10
    relative, or once the fit has made 500 profile evaluations. The alphas
    then follow in closed form. Any failure mode absent from the data pins its alpha to 0
    (status BoundaryAlphaZero).

    This is the one-row case of the engine that :func:`bootstrap_ci` and
    the selection study run on whole stacks of datasets, so a stacked
    row's estimate is bit for bit the fit of that dataset alone.

    Raises
    ------
    EstimationError
        If the data contain no failures at all, or the profile is -inf over
        the entire search range.
    DegenerateDataError
        If the closed-form alphas at lambda-hat are not finite.
    """
    stack = _workspace(data, kind)
    fits = _fit_stack(stack)
    return _fit_result(kind, fits, 0, _fitted_logliks(stack, fits)[0])


def _estimated(fits: _Fits) -> np.ndarray:
    """Per row of ``fits``, whether it has estimates: its outcome is
    Converged or BoundaryAlphaZero."""
    return np.array(
        [o is FitStatus.CONVERGED or o is FitStatus.BOUNDARY_ALPHA_ZERO for o in fits.outcome],
        dtype=bool,
    )


def _fitted_logliks(stack: _Stack, fits: _Fits) -> list:
    """Each row's maximized log-likelihood, :func:`log_likelihood` at its
    estimates, in one stacked pass; None for a row without estimates."""
    out: list = [None] * len(fits.outcome)
    rows = np.flatnonzero(_estimated(fits))
    logliks = _loglik_rows(stack, rows, fits.lam[rows], fits.alphas[:, rows])
    for r, loglik in zip(rows.tolist(), logliks):
        out[r] = loglik
    return out


def _fit_result(kind: BaselineKind, fits: _Fits, r: int, loglik) -> FitResult:
    """Row ``r`` of ``fits`` as :func:`fit_mle` reports it, with ``loglik``
    its maximized log-likelihood (unused for a row without an MLE). Raises
    the row's error if its fit ended in one."""
    outcome = fits.outcome[r]
    if isinstance(outcome, BvfError):
        raise outcome
    if outcome is FitStatus.NO_MLE_MONOTONE_PROFILE:
        params_hat = loglik = None
    else:
        alpha0, alpha1, alpha2 = fits.alphas[:, r].tolist()
        params_hat = BvfParams(kind, alpha0, alpha1, alpha2, float(fits.lam[r]))
    return FitResult(
        kind=kind,
        status=outcome,
        params_hat=params_hat,
        loglik_max=loglik,
        n_evals=int(fits.n_evals[r]),
    )


def observed_fisher(p_hat: BvfParams, data: CompetingRisksData) -> np.ndarray:
    """Observed information: negative Hessian of the log-likelihood at
    ``p_hat`` in the parameter order (alpha0, alpha1, alpha2, lambda), in
    closed form.

    With a(lambda) = -sum_all log S0(t_i) and c(lambda) = sum_unc log h0(t_i),

        I_kk      = m_k / alpha_k**2        (k = 0, 1, 2; rate pairs give 0)
        I_k,lam   = a'(lambda)
        I_lam,lam = (alpha0 + alpha1 + alpha2) * a''(lambda) - c''(lambda)

    The lambda Schur complement of this matrix,
    s = I_lam,lam - a'(lambda)**2 * sum_k alpha_k**2 / m_k, is -p''(lambda),
    the curvature of the profile, at the closed-form rates. The matrix is
    positive definite exactly when every m_k > 0, s > 0 and every entry is
    finite; its inverse then has the closed-form diagonal that
    :func:`asymptotic_ci` reports (see :func:`_wald_variances`, which tests
    this rule for both).

    Raises
    ------
    DomainError
        If any component of ``p_hat`` is on the boundary (zero).
    SingularMatrixError
        If the resulting matrix has non-finite entries or is not positive
        definite.
    """
    theta = np.array([p_hat.alpha0, p_hat.alpha1, p_hat.alpha2, p_hat.lam])
    if np.any(theta <= 0.0):
        raise DomainError("observed_fisher requires an interior estimate (all > 0)")
    ws = _workspace(data, p_hat.kind)
    lam, alphas = theta[3:], theta[:3, None]
    if np.isnan(_wald_variances(ws, _ALL, lam, alphas)).any():
        raise SingularMatrixError("observed information matrix is not positive definite")
    with np.errstate(all="ignore"):
        d1_a, d2_a, d2_c = ws.moments(_ALL, lam)
    info = np.diag(np.append(ws.counts[:, 0] / theta[:3] ** 2, 0.0))
    info[:3, 3] = info[3, :3] = d1_a[0]
    info[3, 3] = (theta[0] + theta[1] + theta[2]) * d2_a[0] - d2_c[0]
    return info


def _wald_variances(stack: _Stack, rows, lam: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The Wald variances, the diagonal of the inverse observed information,
    at each of ``rows`` of ``stack``, with one lambda and one column of
    ``alphas`` (shape (3, R)) per row: an (R, 4) array in ``PARAM_NAMES``
    order, NaN throughout a row whose information is not positive definite.

    The information (:func:`observed_fisher`) is I = [[D, b], [b^T, c]] with
    D = diag(m_k / alpha_k**2), b_k = a'(lambda) and
    c = (alpha0 + alpha1 + alpha2) a''(lambda) - c''(lambda). With the
    lambda Schur complement s = c - a'**2 sum_k alpha_k**2 / m_k,

        var(lambda)  = 1 / s
        var(alpha_k) = alpha_k**2 / m_k + (a' alpha_k**2 / m_k)**2 / s

    and I is positive definite exactly when every m_k > 0, s > 0 and every
    entry is finite; a row whose s is so small that a variance overflows is
    singular too. One stacked pass over the records takes a', a'' and c''
    (:meth:`_Stack.moments`); the rest is elementwise, so each row gets the
    bits of its one-row call.
    """
    m = stack.counts[:, rows]
    with np.errstate(all="ignore"):
        a1, a2, c2 = stack.moments(rows, lam)
        inv_d = alphas**2 / m
        c = (alphas[0] + alphas[1] + alphas[2]) * a2 - c2
        s = c - a1 * a1 * inv_d.sum(axis=0)
        var = np.empty((lam.size, 4))
        var[:, :3] = (inv_d + (a1 * inv_d) ** 2 / s).T
        var[:, 3] = 1.0 / s
        ok = (m > 0).all(axis=0) & np.isfinite(m / alphas**2).all(axis=0)
    ok &= np.isfinite(a1) & np.isfinite(c) & (s > 0.0) & np.isfinite(var).all(axis=1)
    var[~ok] = np.nan
    return var


@dataclass(frozen=True)
class ConfidenceIntervalSet:
    """Per-parameter confidence intervals with their provenance.

    ``intervals`` maps parameter name -> (lower, upper); lower bounds may be
    negative for asymptotic intervals (deliberately not truncated). For a
    bootstrap, ``seed`` is the integer seed that reproduces the intervals,
    or None when the seed was not an integer; ``failure_reasons`` counts the
    failed resamples by reason (a fit status value or an error class name),
    and the counts sum to ``n_failed``.
    """

    level: float
    method: CiMethod
    intervals: dict[str, tuple[float, float]]
    variances: Optional[dict[str, float]] = None
    B: Optional[int] = None
    seed: Optional[int] = None
    n_failed: Optional[int] = None
    failure_reasons: Optional[dict[str, int]] = None

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method.value,
            "level": self.level,
            "intervals": {k: [lo, hi] for k, (lo, hi) in self.intervals.items()},
        }
        if self.variances is not None:
            out["variances"] = dict(self.variances)
        if self.method is CiMethod.BOOTSTRAP:
            out["B"] = self.B
            out["seed"] = self.seed
            out["n_failed"] = self.n_failed
            out["failure_reasons"] = dict(self.failure_reasons or {})
        return out


def _require_converged(fit: FitResult, what: str) -> BvfParams:
    if fit.status is not FitStatus.CONVERGED or fit.params_hat is None:
        raise EstimationError(
            f"{what} requires a converged fit, got status {fit.status.value}"
        )
    return fit.params_hat


def _check_level(level) -> float:
    """A confidence level as a float: a real number (bool excluded) strictly
    between 0 and 1."""
    if isinstance(level, bool) or not isinstance(level, numbers.Real):
        raise ValidationError(f"level must be a number, got {level!r}")
    level = float(level)
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level!r}")
    return level


def asymptotic_ci(
    fit: FitResult, data: CompetingRisksData, level: float = 0.95
) -> ConfidenceIntervalSet:
    """Wald intervals theta_j +/- z * sqrt([I^-1]_jj) from the observed
    information, whose inverse diagonal has a closed form (see
    :func:`observed_fisher`). Lower limits may be negative; they are
    reported as-is. This is the one-row case of the variances a study
    computes for a whole stack of fits.

    Raises
    ------
    SingularMatrixError
        If the information is not positive definite.
    """
    level = _check_level(level)
    p_hat = _require_converged(fit, "asymptotic_ci")
    theta = [p_hat.alpha0, p_hat.alpha1, p_hat.alpha2, p_hat.lam]
    variances = _wald_variances(
        _workspace(data, p_hat.kind), _ALL, np.array(theta[3:]), np.array(theta[:3])[:, None]
    )[0]
    if np.isnan(variances).any():
        raise SingularMatrixError("observed information matrix is not positive definite")
    return ConfidenceIntervalSet(
        level=level,
        method=CiMethod.ASYMPTOTIC,
        intervals=_wald_intervals(theta, variances, level),
        variances=dict(zip(PARAM_NAMES, variances.tolist())),
    )


def _wald_intervals(theta: list, variances: np.ndarray, level: float) -> dict:
    """theta_j +/- z * sqrt(variance_j) per parameter name, z being the
    standard normal quantile of (1 + level) / 2."""
    z = statistics.NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = (z * np.sqrt(variances)).tolist()
    return {name: (theta[j] - half[j], theta[j] + half[j]) for j, name in enumerate(PARAM_NAMES)}


def percentile_ranks(b_effective: int, level: float) -> tuple[int, int]:
    """1-based order-statistic ranks (ceil(B*a/2), ceil(B*(1-a/2))) with
    a = 1 - level, clamped to [1, B]."""
    if b_effective < 1:
        raise DomainError("need at least one bootstrap estimate")
    level = _check_level(level)
    alpha = 1.0 - level
    lo = math.ceil(b_effective * alpha / 2.0)
    hi = math.ceil(b_effective * (1.0 - alpha / 2.0))
    lo = min(max(lo, 1), b_effective)
    hi = min(max(hi, 1), b_effective)
    return lo, hi


Seed = Union[int, None, np.random.SeedSequence]

# NumPy counts a SeedSequence's spawned children in a uint32
_MAX_CHILDREN = 2**32 - 1


def bootstrap_ci(
    fit: FitResult,
    data: CompetingRisksData,
    B: int = 500,
    level: float = 0.95,
    seed: Seed = None,
) -> ConfidenceIntervalSet:
    """Parametric percentile bootstrap.

    Draws B datasets of size n from the fitted model (reusing the original
    censoring time, if any), refits each, and takes component-wise order
    statistics at the :func:`percentile_ranks` positions. Resample b draws
    its uniforms from the b-th of the next B ``SeedSequence`` children of
    ``seed``, the ones its ``spawn`` would make next, exactly as ``sample``
    seeded with that child would; a SeedSequence ``seed`` advances by B
    children, so successive calls on one draw successive resamples. All B
    are seeded in one hash pass (no child objects are built), transformed
    and refitted as one (B, n) stack, and each refit is bit for bit what
    :func:`fit_mle` gives on that resample.

    A resample fails when its data are invalid or its refit ends without an
    estimate (no failures, no MLE, a degenerate likelihood); failures are
    dropped, counted in ``n_failed`` and by reason in ``failure_reasons``.
    More than 5% of them is an error that lists the reasons.

    ``seed`` must be None, an integer >= 0 or a SeedSequence, and ``B`` an
    integer; anything else is a ValidationError. Only an integer seed is
    echoed in the result: a SeedSequence, spawned or not, is reported as
    None, since its root entropy alone need not reproduce the intervals. B >= 100 is recommended for
    real use; smaller values are accepted (the rank arithmetic stays
    well-defined down to B = 1).
    """
    B = _check_count("B", B)
    if B < 1:
        raise DomainError(f"B must be >= 1, got {B}")
    level = _check_level(level)
    p_hat = _require_converged(fit, "bootstrap_ci")
    parent = _seed_sequence(seed)
    first = parent.n_children_spawned
    if first + B > _MAX_CHILDREN:
        # past it NumPy's spawn, whose counter is a uint32, exhausts memory
        raise ValidationError(
            f"seed has n_children_spawned = {first}; B = {B} more children would "
            f"pass NumPy's limit of 2**32 - 1"
        )
    if parent is seed:
        # the caller's sequence moves past the B children drawn from
        seed.spawn(B)
    keys = (first + np.arange(B, dtype=np.uint64))[:, None]
    intervals, reasons = _bootstrap_intervals(
        p_hat, data.n, data.censoring_time, level, _child_states(parent, keys)
    )
    return ConfidenceIntervalSet(
        level=level,
        method=CiMethod.BOOTSTRAP,
        intervals=intervals,
        B=B,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
        n_failed=sum(reasons.values()),
        failure_reasons=reasons,
    )


def _bootstrap_intervals(
    p_hat: BvfParams, n: int, censoring_time, level: float, states: np.ndarray
) -> tuple[dict, dict]:
    """:func:`bootstrap_ci`'s percentile intervals and failure counts by
    reason, from one resample of ``n`` records, censored at
    ``censoring_time`` (None for none), per row of ``states`` (seed words
    from :func:`_child_states`); more than 5% failed resamples is a
    ResampleFailureError."""
    B = len(states)
    estimates, failures = _bootstrap_refits(p_hat, n, censoring_time, states)
    reasons = dict(collections.Counter(r for r in failures if r is not None))
    n_failed = sum(reasons.values())
    if n_failed > 0.05 * B:
        listed = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        raise ResampleFailureError(
            f"{n_failed} of {B} bootstrap resamples failed to produce an "
            f"estimate ({listed})"
        )
    ok = np.array([r is None for r in failures])
    usable = np.sort(estimates[ok], axis=0)
    lo_rank, hi_rank = percentile_ranks(B - n_failed, level)
    intervals = {
        name: (float(usable[lo_rank - 1, j]), float(usable[hi_rank - 1, j]))
        for j, name in enumerate(PARAM_NAMES)
    }
    return intervals, reasons


def _draw_stack(p: BvfParams, n: int, states: np.ndarray, censoring_time):
    """The records ``from_bivariate(sample(p, n, seed), C)`` gives for each
    child SeedSequence, whose PCG64 seed words are a row of ``states`` (from
    :func:`_child_states`). Returns the indices ``rows`` of the valid ones,
    their records ``t`` and ``delta`` as one stack (the drawn stack itself
    when every row is valid), and, per row of ``states``, None or the name
    of the error ``from_bivariate`` would raise. The rows are drawn and
    transformed in blocks of :func:`_row_blocks` that hold at most
    ``_SCAN_RECORDS`` uniforms (3n per row), so no temporary of the inverse
    transform outgrows a block of the engine's. One PCG64, local to the
    call, is set to each row's state in turn and fills the row's slice of
    one reused buffer, from the same stream ``random((3, n))`` draws."""
    R = len(states)
    t = np.empty((R, n))
    delta = np.empty((R, n), dtype=np.int8)
    failures: list = [None] * R
    if censoring_time is not None and not 0.0 < censoring_time < math.inf:
        # from_bivariate rejects such a censoring time whatever the draws
        return np.arange(0), t[:0], delta[:0], [DomainError.__name__] * R
    blocks = _row_blocks(R, 3 * n)
    v = np.empty((blocks[0].stop, 3, n))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for blk in blocks:
        u = v[: blk.stop - blk.start]
        for words, out in zip(states[blk].tolist(), u):
            bit_generator.state = _pcg64_state(words)
            rng.random(out=out)
        x, y = _pairs_from_uniforms(p, u)
        t[blk], delta[blk] = _first_failure(x, y, censoring_time)
        # the errors from_bivariate and CompetingRisksData raise for such a row
        coords_ok = (x > 0.0).all(axis=-1) & (y > 0.0).all(axis=-1)
        times_ok = np.isfinite(t[blk]).all(axis=-1)
        for r in np.flatnonzero(~coords_ok).tolist():
            failures[blk.start + r] = DomainError.__name__
        for r in np.flatnonzero(coords_ok & ~times_ok).tolist():
            failures[blk.start + r] = ValidationError.__name__
    rows = np.flatnonzero([f is None for f in failures])
    if rows.size < R:
        t, delta = t[rows], delta[rows]
    return rows, t, delta, failures


def _reason(outcome) -> str:
    """A fit outcome without estimates as a failure reason: its FitStatus
    value, or the class name of its error."""
    return outcome.value if isinstance(outcome, FitStatus) else type(outcome).__name__


def _bootstrap_refits(
    p_hat: BvfParams, n: int, censoring_time, states: np.ndarray
) -> tuple[np.ndarray, list]:
    """Draw and refit one resample per row of ``states``, as
    ``fit_mle(from_bivariate(sample(p_hat, n, seed), censoring_time))``
    would with the child SeedSequence whose seed words the row holds, in one
    stacked pass. Returns the (B, 4) estimates in ``PARAM_NAMES`` order and,
    per resample, None or the reason it failed."""
    rows, t, delta, failures = _draw_stack(p_hat, n, states, censoring_time)
    estimates = np.full((len(states), 4), np.nan)
    fits = _fit_stack(_Stack(p_hat.kind, t, delta))
    got = _estimated(fits)
    estimates[rows[got], :3] = fits.alphas[:, got].T
    estimates[rows[got], 3] = fits.lam[got]
    for j in np.flatnonzero(~got).tolist():
        failures[rows[j]] = _reason(fits.outcome[j])
    return estimates, failures
