"""Maximum-likelihood estimation for the bivariate family.

The log-likelihood of competing-risks data (ignoring an additive constant) is

    sum_k m_k log alpha_k  +  (alpha0+alpha1+alpha2) * sum_i log S0(t_i)
                           +  sum_{uncensored} log h0(t_i)

which is maximized in two stages: for fixed lambda the alphas have the closed
form alpha_k = -m_k / sum_i log S0(t_i), and substituting them back leaves a
one-dimensional profile p(lambda). A safeguarded Newton iteration on the
profile score p'(lambda), with closed-form first and second derivatives,
locates its maximum. Where it starts, and whether a maximum exists, follows
from the profile's shape, which differs by kind.

- A Weibull profile is strictly concave in lambda, rising from -inf at 0:
  Newton runs in lambda from lambda = 1 over the whole search range. It
  has no MLE where it still rises at the upper end.
- A Gompertz profile is concave too, and tends as lambda -> 0 to a finite
  limit p0 = -m log sum t with slope s1 = sum_unc t - m sum t**2 / (2 sum t),
  from three lambda-free sums. Where s1 <= 0 it never rises above p0, so
  no MLE exists, decided before any evaluation.
- Every other Gompertz fit and every Lomax fit climbs a geometric ladder of
  lambda values from 1 to a local maximum, which brackets Newton in log
  lambda. There is no MLE where the ladder's highest point is a clamp of
  the search range; or where, for Lomax, whose profile tends to p0 with
  slope -s1, the maximum lies next to the lower clamp on a stretch where
  the profile stays at or below p0 up to the next rung: up to lambda its
  chord slope (p - p0) / lambda is at most -s1 + lambda sum_unc t**2 / 2,
  the most its one convex term bends it up; or where the Lomax maximum
  Newton finds is no higher than p0. Nothing is decided next to the upper clamp: no
  kind's profile has a finite limit as lambda -> inf, where Weibull and
  Gompertz profiles fall linearly in lambda or rise like m log lambda, and
  a Lomax profile falls like -m log log lambda.

One engine fits a list of stacks at once, each holding R equal-length
datasets of one kind as (R, n) arrays, where the stacks may differ in kind
and in n: :func:`fit_mle` is its one-row case; :func:`bootstrap_ci` refits
all its resamples, a study chunk fits all its datasets, and a selection
fits every candidate kind at every sample size, in one call. The rows of
all the stacks run in lockstep under one ladder and one Newton control;
only the sums over the records run per stack, and the formulas that turn
them into the profile and its derivatives, one set for all three kinds,
run once per pass. Each kind has one record kernel: a profile pass takes
its survival sums, and a Newton pass the same sums continued to their
lambda derivatives, so the two passes agree on the survival sums by
construction. A fit's first pass takes the derivative sums too at the
start rung, lambda = 1, where that costs no other row's work: in a Weibull
row, whose Newton starts there, and in a Gompertz or Lomax row of at least
``_SCAN_RECORDS`` records, each of whose rungs is a block of its own. A
row whose Newton starts at lambda = 1 then steps from those sums: the
start rung is Newton's first iterate, and the fit sums lambda = 1 once.
Every sum runs along a row in NumPy, so a row's fit does not depend on the
other rows. The ladder's climb (Gompertz and Lomax rows;
a Weibull stack never scans), after its first step, scans ahead in
chunks of rungs, the first of about two blocks of 16384 records
(``_SCAN_RECORDS``) per stack with scanning rows, about what a pass's
fixed cost is worth, so a selection call scans its ladder in one pass.

Every pass over the records runs in an engine call (:class:`_Passes`),
the one-row evaluations of a single dataset included. Passes, and the
draws, run in row blocks of at most ``_SCAN_RECORDS`` records. A stack
holds its records and writes nothing after it is built; the engine call
owns two scratch buffers of one block, into which each of its passes
writes its temporaries, so a pass allocates no per-record array, the
memory it touches stays in cache from block to block and from pass to
pass, and calls from several threads share no buffer.

The records are Type-I censored: every censored record of a dataset sits
at its one censoring time C, which is the dataset's largest time, as
:class:`CompetingRisksData` and the bootstrap's draws guarantee. So a
Lomax sum over the uncensored records, which a pass takes at each lambda,
is the plain sum less m3 copies of its term at C, and a stack keeps no
per-record censoring state, only m3 and C per row (a call without a
censored Lomax row skips the correction); Weibull and Gompertz
need one uncensored sum, taken once at build, as are the lambda-free
constants of the limit p0 (see :class:`_Stack`).

Confidence intervals come either from the observed information matrix
(negative Hessian, in closed form) or from a parametric percentile bootstrap
that refits resamples drawn at the MLE. The information is a diagonal rate
block bordered by one lambda row, so its inverse has a closed form too: the
Wald variances need the lambda Schur complement s (-p''(lambda) at the
closed-form rates), and the matrix is positive definite exactly when every
failure count m_k is positive, s > 0 and every entry is finite. No matrix is
factorized. The sums the variances need at lambda-hat, a', a'' and c'', are
those of the fit's last Newton pass, which was evaluated there, as are the
survival and hazard sums of the maximized log-likelihood: the engine keeps
them per row (:class:`_Fits`), so a fit reports its log-likelihood, and a
study the variances of a whole stack of fits, without another pass over the
records. :func:`fit_mle` leaves them in the dataset's cache, where
:func:`asymptotic_ci` and :func:`observed_fisher` find them at the same
lambda; at any other lambda they take one pass.
"""

import collections
import enum
import itertools
import math
import numbers
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .baselines import BaselineKind, _check_kind, _check_lambda
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
    _CENSORED,
    CompetingRisksData,
    FailureMode,
    _first_failure,
    from_bivariate,
)
from .errors import (
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


# int8 as delta is, so counting the modes casts no record
_MODES = np.array(
    [[FailureMode.TIE], [FailureMode.RISK1_FIRST], [FailureMode.RISK2_FIRST]], dtype=np.int8
)

# every row of a stack; for a one-row stack, a view instead of a gather
_ALL = slice(None)

# the rows of a one-row call on a dataset's stack (:func:`_workspace`)
_ONE = np.zeros(1, np.intp)
_ONE.flags.writeable = False
# no rows at all
_NONE = _ONE[:0]
# the smallest normal double: a Weibull a below it has lost precision
_TINY = np.finfo(float).tiny

# Records per block of a stacked pass; a ladder scan's first chunk holds
# about two blocks per stack with scanning rows (:meth:`_Passes.scan_chunk`),
# which are Gompertz and Lomax rows: a Weibull row takes no ladder.
#
# A pass's temporaries live in its engine call's two scratch buffers of one
# block each (128 KB apiece, or one row when a row is longer), which stay in
# cache from block to block. Whole-stack temporaries (0.3-5 MB in a
# bootstrap stack) would be mapped afresh on every pass, and each new page
# costs a minor fault of about 2 us: on a 2-core x86-64 host with NumPy
# 2.4, exp(lam*x) summed over 300 x 400 records took 0.9-1.2 ms with 436
# faults as one block, and 0.26-0.35 ms with none in 40-row blocks.
#
# A scan chunk costs a pass whose fixed part grows with the stacks it runs:
# in a selection call of 9 stacks (3 kinds x n 50/150/300, 10 rows each) a
# profile pass took about 175 us before its records, which took 5.6 ns
# each, and the scan's bookkeeping about 230 us per chunk, together the
# time of about 70,000 records (same host). Its first chunk, of 9 x 2
# blocks, scans 20 or more rungs ahead, past the 13 that a scan from the
# start can take, so the call scans in one pass, where one block for the
# whole call took 3.3 passes on average and one block per stack 1.44. A
# one-stack call, whose pass costs less, scans 2 blocks first: in 100-row
# bootstrap stacks of 400 records (Weibull and Lomax) that made its
# profile passes take about 11% longer than one block, and 8 blocks 20%
# (measured while Weibull rows still scanned).
_SCAN_RECORDS = 1 << 14


def _row_blocks(R: int, n: int) -> list:
    """Slices of consecutive rows of a (R, n) stack, each holding at most
    _SCAN_RECORDS records and never fewer than one row."""
    per = max(1, _SCAN_RECORDS // n)
    return [slice(lo, min(lo + per, R)) for lo in range(0, R, per)]


def _block_size(n: int) -> int:
    """The records in a full block of :func:`_row_blocks` of n-record rows."""
    return max(1, _SCAN_RECORDS // n) * n


def _tally(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The failure counts m_k of each row of a (R, n) stack of modes, shape
    (3, R), and their sums m, counted in row blocks: the parts of a
    :class:`_Stack` that do not depend on its kind."""
    R, n = delta.shape
    counts = np.empty((3, R), dtype=np.int64)
    for blk in _row_blocks(R, n):
        # an int32 count of booleans costs a third of an int64 one; a row
        # holds fewer than 2**31 records
        counts[:, blk] = (delta[blk, None, :] == _MODES).sum(axis=-1, dtype=np.int32).T
    return counts, counts.sum(axis=0)


class _Stack:
    """R equal-length datasets of one kind, stacked as (R, n) arrays: the form
    in which the fitting engine evaluates the profile and its derivatives.
    A stack holds its records and writes nothing after ``__init__``, so one
    stack may be in any number of engine calls at once, from several
    threads too.

    ``x`` holds the per-record transform: log(t) for Weibull (so t**lam =
    exp(lam*log t)), t itself otherwise. Its record sums take rows (an
    index array, or ``_ALL``) and one lambda per row, and reduce along the
    last axis only, so a row's numbers are the same bits whatever else is
    stacked with it. Callers silence floating-point warnings: overflow
    saturates to inf and the log of 0 is -inf. A pass over the records
    writes per-row sums only (:meth:`_rowwise`); formulas common to every
    kind, fed each row's constants ``terms``, do the rest (:func:`_profile`,
    :func:`_score`), once per pass over every stack of an engine call.

    Each kind has one record kernel, :meth:`_sums`. It always writes the
    survival sums, which is all a profile pass asks; a Newton pass lets it
    go on from the terms it holds to the lambda derivatives. So the
    survival sums of a Newton pass, which a fit keeps for its
    log-likelihood, are a profile pass's bits by construction. Rows whose
    survival sum is past double range have one fix-up, :meth:`_shifted`,
    which both the profile and the score read.

    Every pass over the records runs in row blocks of at most
    ``_SCAN_RECORDS`` records (:func:`_row_blocks`), and only per-row sums
    leave a block. Each row is still summed whole, as one contiguous row,
    so the blocks change no bit. A pass writes its temporaries, in the
    order of the plain formulas, into the two scratch buffers ``z`` and
    ``u`` of one block that its engine call owns (:class:`_Passes`), so it
    allocates no per-record array and what it touches stays in cache; only
    its per-row sums leave it, so no result aliases the scratch. A one-row
    stack evaluated at several lambdas broadcasts its row instead of
    gathering copies.

    Weibull and Gompertz need one sum over uncensored records, sum_unc x,
    which the build takes over x times the records' 0/1 uncensored weights
    (v*1 is v and v*0 a zero, so it is the sum of the selected terms).
    Lomax needs three at each lambda, of log1p(lam*x), q and q**2, and
    keeps no per-record censoring state for them: its records must be
    Type-I censored, the m3 = n - m censored records of a row all at one
    time C, the row's largest (:class:`CompetingRisksData` and
    :func:`_draw_stack` guarantee it; other records get wrong uncensored
    sums), so their terms are m3 copies of the term at x_C, the row's
    largest x. Its kernel writes the plain sums, and its engine call
    subtracts the m3 terms at C, once per pass over all its rows
    (:meth:`_Passes._sums`), from the rows' ``terms``. A complete row, and
    a row of another kind, has m3 = C = 0, so the correction subtracts an
    exact 0.0 and the row keeps its plain sums' bits; a call with no
    censored Lomax row skips it. The closed form
    rounds each uncensored sum on the scale of its plain sum, the censored
    share included, so a censored Lomax fit loses a little accuracy, more
    the more records are censored. The one term that can be infinite is
    log1p(lam*C) once lam*C overflows: there the survival sum a is inf and
    the hazard sum c NaN (inf - inf), and every reader of c (the profile,
    the log-likelihood, the closed-form alphas) returns -inf or raises
    where a is inf, whatever c is.

    ``limit`` holds three lambda-free constants per row, taken at build
    with sum_unc x from sum t and sum t**2. The first is the floor that a
    fit's maximum must beat: a Lomax profile's limit p0 = -m log sum t as
    lambda -> 0, and -inf for the other kinds, whose maximum always lies
    above their limit (see :func:`_fit_stacks`). Then slope0 and bend, the
    bound slope0 + lam bend on the chord slope of a Gompertz or Lomax
    profile from p0 (:meth:`_Passes.limit_slope`). A Weibull profile falls
    to -inf at the limit: its slope0 is +inf.
    """

    __slots__ = ("kind", "x", "counts", "m", "terms", "limit")

    @np.errstate(all="ignore")
    def __init__(self, kind: BaselineKind, t: np.ndarray, delta: np.ndarray, tally=None):
        """The stack of kind ``kind`` over the records ``t`` and ``delta``
        (Type-I censored for Lomax; see above). ``tally`` is their
        :func:`_tally`, which stacks of several kinds over one record set
        share, taken here when not given."""
        self.kind = kind
        R, n = t.shape
        weibull = kind is BaselineKind.WEIBULL
        lomax = kind is BaselineKind.LOMAX
        self.x = np.empty_like(t) if weibull else t
        self.counts, self.m = _tally(delta) if tally is None else tally
        # per row m, s (1 for Weibull, else 0), sum_unc x (-0.0 for Lomax,
        # whose hazard sum needs a pass per lambda; see _hazard), and the
        # m3 and C that a pass takes out of a Lomax row's plain sums
        # (_Passes._sums; 0 and 0 in every other row)
        self.terms = np.zeros((5, R))
        m, s, unc_sum, m3, at_c = self.terms
        m[:] = self.m
        s[:] = weibull
        censored = bool((self.m < n).any())
        if lomax:
            unc_sum[:] = -0.0
            np.subtract(n, self.m, out=m3)
        # per row the floor, slope0 and bend (see above)
        self.limit = np.array([[-np.inf], [np.inf], [0.0]]).repeat(R, axis=1)
        total, squares = np.zeros((2, R))
        for blk in _row_blocks(R, n):
            if weibull:
                np.log(t[blk], out=self.x[blk])
            x = self.x[blk]
            if lomax and censored:
                # a complete row keeps C = 0, so that its correction
                # subtracts an exact 0.0 (never 0 * inf)
                at_c[blk] = np.where(m3[blk] > 0, x.max(axis=-1), 0.0)
            if not weibull:
                total[blk], squares[blk] = x.sum(axis=-1), np.multiply(x, x).sum(axis=-1)
            if not lomax:
                if censored:
                    w = np.not_equal(delta[blk], _CENSORED, out=np.empty(x.shape))
                    x = np.multiply(x, w, out=w)
                # a complete Gompertz row's sum is its sum t
                unc_sum[blk] = x.sum(axis=-1) if weibull or censored else total[blk]
        if not weibull:
            # s1 = sum_unc t - m sum t**2 / (2 sum t), where a Lomax row's
            # sum_unc t**k is sum t**k - m3 C**k
            s1 = (total - m3 * at_c if lomax else unc_sum) - m * squares / (2.0 * total)
            self.limit[1] = -s1 if lomax else s1
        if lomax:
            self.limit[0] = -m * np.log(total)
            self.limit[2] = (squares - m3 * at_c * at_c) / 2.0

    def _block(self, rows, sel):
        """x of ``rows[sel]``. A one-row stack gives its own (1, n) array,
        which broadcasts against any number of lambdas, instead of
        gathering copies of its row."""
        if self.x.shape[0] == 1:
            return self.x
        return self.x[sel if rows is _ALL else rows[sel]]

    def _rowwise(self, rows, lam, out, z, u) -> None:
        """Write into ``out``, one column per lambda, the per-row sums that
        :meth:`_sums` writes for a block of records, at each of ``rows``, in
        the blocks of :func:`_row_blocks`; ``z`` and ``u`` are the scratch
        buffers, (block, n) views, that the blocks reuse."""
        if lam.size <= len(z):
            self._sums(self._block(rows, _ALL), lam, out, z[: lam.size], u[: lam.size])
            return
        for blk in _row_blocks(lam.size, self.x.shape[-1]):
            k = blk.stop - blk.start
            self._sums(self._block(rows, blk), lam[blk], out[:, blk], z[:k], u[:k])

    def _sums(self, x, lam, out, z, u) -> None:
        """Write into ``out`` a block's record sums in one transcendental
        pass. Its first two rows get the survival sums: a, and for Lomax
        a again, for sum_unc log1p(lam*x). A 6-row ``out`` (a Newton pass)
        goes on from the terms the survival stage left in ``z`` (exp(lam*x)
        for Weibull, expm1(lam*x) for Gompertz, lam*x for Lomax) to a' and
        a'', and, for Lomax, to the sums of q and q**2. Weibull and Gompertz
        share a = sum exp(lam*x) up to a constant, so a' = sum x exp(lam*x)
        and a'' = sum x**2 exp(lam*x); for Lomax, with q = t / (1 + lam*t),
        a' = sum q and a'' = -sum q**2. A Newton pass's survival sums are
        thus a survival pass's bits by construction. The Lomax rows for the
        uncensored sums of log1p, q and q**2 get the plain sums, from which
        the engine call takes the censored terms (:meth:`_Passes._sums`)."""
        np.multiply(lam[:, None], x, out=z)
        if self.kind is BaselineKind.LOMAX:
            out[1] = np.log1p(z, out=u).sum(axis=-1, out=out[0])
            if len(out) == 2:
                return
            z += 1.0
            q = np.divide(x, z, out=z)
            out[4] = q.sum(axis=-1, out=out[2])
            np.multiply(q, q, out=q).sum(axis=-1, out=out[5])
            np.negative(out[5], out=out[3])
            return
        gompertz = self.kind is BaselineKind.GOMPERTZ
        s = np.expm1(z, out=z) if gompertz else np.exp(z, out=z)
        s.sum(axis=-1, out=out[0])
        if len(out) == 2:
            return
        if gompertz:
            s += 1.0
        xe = np.multiply(x, s, out=u)
        xe.sum(axis=-1, out=out[2])
        np.multiply(x, xe, out=xe).sum(axis=-1, out=out[3])

    def _shifted(self, rows, lam, sums) -> tuple:
        """The sums of the rows whose ``sums`` (a, or a, a' and a'', one
        column per row of ``rows``, as ``lam``) are not all finite, or,
        for Weibull, whose a is below the smallest normal double (0 or
        subnormal, with its digits lost), from e = exp(z - max z),
        z = lam*x: their positions among ``rows``, the row maxima, sum e,
        sum x e and sum x**2 e (log a is then max + log sum e, a'/a and
        a''/a the ratios to sum e; the -1 terms of Gompertz's expm1 are
        negligible where its sums overflow, but not where a is 0, with
        every z near 0). No Lomax row is among them: its sums grow
        logarithmically, so its a is inf only where a term is."""
        weibull = self.kind is BaselineKind.WEIBULL
        bad = ~np.isfinite(sums).all(axis=0) | weibull & (sums[0] < _TINY)
        over = _NONE if self.kind is BaselineKind.LOMAX else np.flatnonzero(bad)
        # a one-row stack gives its row whatever ``over`` holds
        x = self._block(rows, over)[: over.size]
        z = lam[over, None] * x
        hi = z.max(axis=-1)
        e = np.exp(z - hi[:, None])
        xe = x * e
        return over, hi, e.sum(axis=-1), xe.sum(axis=-1), (x * xe).sum(axis=-1)


# The per-row sums of a pass start as these columns: a Newton pass's 6 (a,
# sum_unc log1p(lam*x), a', a'', and the sums of q and q**2 over uncensored
# records), of which a survival pass writes the first 2. The Lomax-only
# sums hold what the other kinds leave there, 0.0, 0.0 and -0.0, with which
# the common formulas give each kind its own bits (x - 0.0 and x + -0.0
# are x). A row of a fit's first pass that takes no derivative sums keeps
# a' = a'' = 0.0, on which the score, unread there, stays finite.
_SLOPE_SUMS = np.array([[np.nan], [0.0], [0.0], [0.0], [0.0], [-0.0]])
_SURVIVAL_SUMS = _SLOPE_SUMS[:2]


def _hazard(terms, lam, unc_log1p):
    """The hazard sum c = sum_unc log h0(t_i) at each row, for every kind

        c = m log(lam) + (lam - s) unc_sum - unc_log1p

    with m, s (1 for Weibull, else 0) and unc_sum = sum_unc x (-0.0 for
    Lomax) the rows' ``terms`` (:class:`_Stack`) and unc_log1p =
    sum_unc log1p(lam*x) (Lomax; 0.0 otherwise): lam - 0.0 is lam and
    lam * -0.0 is -0.0, so each kind gets the bits of its own formula."""
    m, s, unc_sum = terms[:3]
    return m * np.log(lam) + (lam - s) * unc_sum - unc_log1p


def _profile(runs, terms, sums, lam) -> np.ndarray:
    """p(lambda) = c - m log a (c from :func:`_hazard`) at each row of a
    pass at ``lam``, from the rows' ``terms`` and the pass's (2, R)
    survival ``sums`` (:meth:`_Stack._sums`); -inf wherever it is not
    finite. Where a is past double range, or a Weibull a underflowed to 0,
    the row's stack takes log a as a logsumexp (:meth:`_Stack._shifted`,
    ``runs`` as :meth:`_Passes._runs` gives them): keeping the profile
    finite stops a monotone rise being mistaken for an interior maximum."""
    a, unc_log1p = sums
    m = terms[0]
    c = _hazard(terms, lam, unc_log1p)
    log_a = np.log(a)
    p = c - m * log_a
    # a sum is finite only if every term is (an overflow merely costs time)
    if not math.isfinite(log_a.sum()):
        for at, stack, own, _ in runs:
            over, hi, se, _, _ = stack._shifted(own, lam[at], a[None, at])
            p[at][over] = c[at][over] - m[at][over] * (hi + np.log(se))
        # an a of 0 left, or a hazard sum past double range, leaves p +inf
        # or NaN
        p[~np.isfinite(p)] = -np.inf
    return p


def _score(runs, terms, sums, lam) -> tuple:
    """g = lam p' and h = lam p' + lam**2 p'' at each row of a pass, from
    the rows' ``terms`` and the pass's (6, R) Newton ``sums``
    (:meth:`_Stack._sums`), with p' = c' - m r1 and
    p'' = c'' - m (r2 - r1**2), r1 = a'/a, r2 = a''/a,
    lam c' = m + lam (unc_sum - uq) and lam**2 c'' = lam**2 uq2 - m (uq and
    uq2 the Lomax sums of q and q**2, as in :func:`_hazard`):

        g = m + lam (unc_sum - uq) - m (lam r1)
        h = g + lam**2 uq2 - m - m (lam**2 (r2 - r1**2))

    Where a, a' or a'' is past double range, or a Weibull a is subnormal
    or 0, the row's stack takes r1 and r2 from shifted exponentials
    (:meth:`_Stack._shifted`, ``runs`` as in :func:`_profile`)."""
    a, _, a1, a2, uq, uq2 = sums
    m, _, unc_sum = terms[:3]
    r1 = a1 / a
    r2 = a2 / a
    # finite and accurate unless a sum left double range or a is subnormal
    if not (math.isfinite(r2.sum()) and a.min() >= _TINY):
        for at, stack, own, _ in runs:
            over, _, se, sxe, sxxe = stack._shifted(own, lam[at], sums[[0, 2, 3]][:, at])
            r1[at][over] = sxe / se
            r2[at][over] = sxxe / se
    lam2 = lam * lam
    g = m + lam * (unc_sum - uq) - m * (lam * r1)
    h = g + lam2 * uq2 - m - m * (lam2 * (r2 - r1 * r1))
    return g, h


def _curvature(m, lam, uq2):
    """c'' = (0 - m) / lam**2 + uq2 at each row (0 - m, unlike -m, is +0.0
    where m is 0)."""
    return (0.0 - m) / lam**2 + uq2


def _workspace(data: CompetingRisksData, kind: BaselineKind) -> _Stack:
    """The one-row stack of ``data``, whose records are built once per
    (data, kind): the one place a (data, kind) pair enters, so a kind that
    is not a BaselineKind is a DomainError here. The dataset caches the
    stack, which holds no scratch: each engine call on it owns its own
    (:class:`_Passes`), so calls on one dataset from several threads write
    to no shared buffer."""
    _check_kind(kind)
    key = ("workspace", kind)
    ws = data._cache.get(key)
    if ws is None:
        # the dataset has counted its failure modes already
        counts = np.array([[data.m0], [data.m1], [data.m2]])
        tally = (counts, counts.sum(axis=0))
        ws = data._cache[key] = _Stack(kind, data.t[None, :], data.delta[None, :], tally)
    return ws


def log_likelihood(p: BvfParams, data: CompetingRisksData) -> float:
    """Log-likelihood of the data at parameters ``p`` (additive constant
    dropped).

    The survival sum runs over all n records, censored included; the hazard
    sum over uncensored records only. Returns ``-inf`` where the likelihood
    vanishes (e.g. a zero alpha against a nonzero count).
    """
    ws = _workspace(data, p.kind)
    lam = np.array([p.lam])
    alphas = np.array([[p.alpha0], [p.alpha1], [p.alpha2]])
    with np.errstate(all="ignore"):
        _, terms, (a, unc_log1p) = _Passes([ws]).survival(_ONE, lam)
        c = _hazard(terms, lam, unc_log1p)
    return _loglik_from_sums(ws.counts, alphas, a, c)[0]


def _loglik_from_sums(m: np.ndarray, alphas: np.ndarray, a: np.ndarray, c: np.ndarray) -> list:
    """The log-likelihood of each column of the counts m_k and the
    ``alphas`` (both shape (3, R)) with its survival sum a and hazard sum c,
    in one fixed float operation order per row."""
    return [
        _loglik_row(m_r, alpha, a_r, c_r)
        for m_r, alpha, a_r, c_r in zip(m.T.tolist(), alphas.T.tolist(), a.tolist(), c.tolist())
    ]


def _loglik_row(m: list, alpha: list, a: float, c: float) -> float:
    """One row of :func:`_loglik_from_sums`."""
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
        a = float(_Passes([ws]).survival(_ONE, np.array([lam]))[2][0, 0])
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
        return float(_Passes([ws]).profile(_ONE, np.array([lam]))[0])


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


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_mle`.

    ``params_hat``/``loglik_max`` are None exactly when no MLE exists
    (status NoMleMonotoneProfile). ``n_evals`` counts the fit's passes over
    its records, each one profile evaluation: ladder rungs and Newton
    iterates. The start rung, lambda = 1, is Newton's first iterate,
    counted once, where Newton starts there and the first pass took its
    derivative sums: in every Weibull fit, whose evaluations are its Newton
    iterates (and every rung where the profile is -inf at the start), and
    in a Gompertz or Lomax fit of at least 16384 records (see
    :func:`fit_mle`). A Gompertz fit decided by its limit slope makes none.
    Rungs a batched ladder scan evaluated past the profile's fall are not
    counted, so a fit reports the same count alone as in any stack.
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


# A row's outcome is one int8 code; the codes up to _BOUNDARY have
# estimates. _NO_MLE_CLAMP: the ladder's maximum is at a clamp, or a
# Weibull profile still rises at the upper end; _NO_MLE_LIMIT: the profile
# never rises above its limit p0 at lambda -> 0 (a Gompertz slope there
# that is not positive, or a Lomax maximum next to the lower clamp on a
# stretch that stays at or below p0; :meth:`_Passes.limit_slope`), or a
# Lomax maximum is no higher than p0. The last two are draw codes
# (:func:`_draw_stack`).
(_CONVERGED, _BOUNDARY, _NO_MLE_CLAMP, _NO_MLE_LIMIT, _NO_FAILURES, _NO_FINITE_PROFILE,
 _DEGENERATE, _DRAW_DOMAIN, _DRAW_INVALID) = range(9)

# Per code, its FitStatus, or its error's class and message; _REASONS
# names each as reports do
_OUTCOMES = (
    FitStatus.CONVERGED,
    FitStatus.BOUNDARY_ALPHA_ZERO,
    FitStatus.NO_MLE_MONOTONE_PROFILE,
    FitStatus.NO_MLE_MONOTONE_PROFILE,
    (EstimationError, "no failures observed"),
    (EstimationError, "profile log-likelihood is -inf over the entire bracket"),
    (DegenerateDataError, "sum of log S0 vanished or overflowed at lambda={!r}"),
    (DomainError, "all coordinates must be strictly positive"),
    (ValidationError, "all observation times must be positive finite"),
)
_REASONS = tuple(o.value if isinstance(o, FitStatus) else o[0].__name__ for o in _OUTCOMES)


def _status(code: int, fits: "_Fits", r: int) -> FitStatus:
    """The FitStatus of ``code``, row ``r``'s code in ``fits``, or else
    the row's error raised."""
    outcome = _OUTCOMES[code]
    if isinstance(outcome, FitStatus):
        return outcome
    error, message = outcome
    raise error(message.format(float(fits.lam[r])))


class _Fits(NamedTuple):
    """Per-row outcome of one stack of :func:`_fit_stacks`.

    ``code`` holds each row's outcome code (``_OUTCOMES``); ``lam`` and
    ``alphas`` (shape (3, R)) hold the estimates of rows with
    ``code <= _BOUNDARY`` (and ``lam`` the last iterate of any other row
    that reached Newton, NaN otherwise). ``a``, ``c``, ``a1``, ``a2`` and
    ``c2`` hold, per row that reached Newton (NaN otherwise), the survival
    and hazard sums a and c and the derivatives a', a'' and c'' at its
    lambda-hat, from the sums of its last Newton pass, which was evaluated
    there (c and c'' once per engine call). A Newton pass is the survival pass
    continued (:meth:`_Stack._sums`), so these are the bits that a survival
    or Newton pass of a new engine call gives at ``lam``.
    """

    code: np.ndarray
    lam: np.ndarray
    alphas: np.ndarray
    n_evals: np.ndarray
    a: np.ndarray
    c: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    c2: np.ndarray


# The engine's one observation point, for tests: None, or a list to which
# each engine call (:class:`_Passes`) appends itself as it is made; an
# observed call logs each of its passes in its ``log``. An unobserved pass
# pays one ``is None`` test for it, and allocates nothing.
_observed = None


class _Passes:
    """One engine call: the record passes over the rows of its stacks laid
    end to end, where row r of the call is a row of the stack whose offset
    range holds it. ``terms`` (see :class:`_Stack`), ``counts`` and
    ``slices`` (each stack's rows of the call) are per call row; a call of
    one stack reads that stack's own arrays.

    The call owns the only scratch its passes write: two flat buffers as
    large as the largest block among its stacks, of which each stack gets
    its (block, n) views once, here. Passes run one at a time and no result
    aliases the scratch, so the stacks share the buffers; the stacks
    themselves are only read, so a stack may be in several calls at once.

    Every pass's rows are in ascending order, so each stack's rows are one
    contiguous run of them, which np.searchsorted on the stack offsets
    finds, and which a call of one stack takes whole (:meth:`_runs`, the
    one place that splits rows among stacks). Every pass takes one dispatch
    (:meth:`_sums`): it asks each stack's one kernel (:meth:`_Stack._sums`)
    for the survival sums of its rows, 2 per row, and for the derivative
    sums too, 6 per row, at every row (a Newton pass), at none (a survival
    or profile pass) or, in a fit's first pass, at some (:meth:`start`).
    Each stack writes the record sums of its run into the pass's one array
    of per-row sums; the censored terms leave the Lomax rows' uncensored
    sums, and the formulas then run, once over all the pass's rows, and
    only rows whose survival sum is past double range go back to their
    stack (:meth:`_Stack._shifted`).

    ``log`` is None, or, in a call made while ``_observed`` is a list, one
    entry per pass in the order they ran: a copy of its lambdas, one per
    row of the pass (Newton's are views of state it overwrites), and per
    stack whose run it summed, noted as the run is summed, the stack, the
    rows of the run and how many of them took the derivative sums.
    """

    def __init__(self, stacks: list):
        self.stacks = stacks
        ns = [stack.x.shape[-1] for stack in stacks]
        s, u = (np.empty(max(map(_block_size, ns))) for _ in range(2))
        self.views = [
            (s[: _block_size(n)].reshape(-1, n), u[: _block_size(n)].reshape(-1, n)) for n in ns
        ]
        self.bounds = list(itertools.accumulate((stack.m.size for stack in stacks), initial=0))
        self.offsets = np.array(self.bounds)
        self.slices = [slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])]
        if len(stacks) == 1:
            self.terms, self.counts, self.limit = stacks[0].terms, stacks[0].counts, stacks[0].limit
        else:
            self.terms = np.concatenate([stack.terms for stack in stacks], axis=1)
            self.counts = np.concatenate([stack.counts for stack in stacks], axis=1)
            self.limit = np.concatenate([stack.limit for stack in stacks], axis=1)
        # only a censored Lomax row has m3 > 0 (see _Stack)
        self.censored = np.count_nonzero(self.terms[3]) > 0
        self.log = None if _observed is None else []
        if self.log is not None:
            _observed.append(self)

    def scan_chunk(self, rows: np.ndarray) -> int:
        """The rungs ahead that a ladder scan of ``rows`` (distinct rows)
        evaluates in its first pass: at least one, and as many as two
        blocks of records (2 x ``_SCAN_RECORDS``) per stack with rows among
        them (:meth:`_runs`) allow."""
        runs = self._runs(rows)
        records = sum(own.size * stack.x.shape[-1] for _, stack, own, _ in runs)
        return max(1, 2 * _SCAN_RECORDS * len(runs) // max(1, records))

    def _runs(self, rows: np.ndarray, distinct=False) -> list:
        """Per stack with rows in the pass, in order: the pass positions of
        its run, the stack, its own indices of the run's rows (``_ALL``
        when ``rows`` are ``distinct`` and the run holds every row of the
        stack), and its scratch views."""
        if len(self.stacks) == 1:
            whole = distinct and rows.size == self.terms.shape[1]
            return [(_ALL, self.stacks[0], _ALL if whole else rows, self.views[0])]
        cuts = np.searchsorted(rows, self.offsets).tolist()
        runs = []
        for stack, views, off, lo, hi in zip(self.stacks, self.views, self.bounds, cuts, cuts[1:]):
            if hi > lo:
                if distinct and hi - lo == stack.m.size:
                    own = _ALL
                else:
                    own = rows[lo:hi] - off if off else rows[lo:hi]
                runs.append((slice(lo, hi), stack, own, views))
        return runs

    def _sums(self, rows: np.ndarray, lam: np.ndarray, deriv, distinct=False) -> tuple:
        """The runs of ``rows`` (:meth:`_runs`), the rows' ``terms`` and the
        per-row sums that :meth:`_Stack._sums` writes at them, one column
        per row: the survival sums, a (2, R) array, where ``deriv`` is
        False, and a (6, R) array from ``_SLOPE_SUMS`` otherwise, with the
        derivative sums at every row where it is True, or at the rows where
        an array of one bool per row holds (the others keep the preset's).
        Each row's uncensored Lomax sums then lose its m3 terms at C (see
        :class:`_Stack`):

            sum_unc log1p(lam*x) = sum log1p(lam*x) - m3 log1p(lam*C)
            sum_unc q = sum q - m3 q_C,  sum_unc q**2 = sum q**2 - m3 q_C**2

        with q_C = C / (1 + lam*C), the bits of the kernel's terms at C.
        Every other row has m3 = C = 0 at a finite lambda, so it would lose
        an exact 0.0 and keep its bits (x - 0.0 is x, -0.0 included): a call
        without a censored Lomax row skips the correction. An observed call
        logs the pass (:meth:`_logged`)."""
        # as many distinct rows as the call has are all of them, in order
        terms = self.terms if distinct and rows.size == self.terms.shape[1] else self.terms[:, rows]
        runs = self._runs(rows, distinct)
        sums = (_SURVIVAL_SUMS if deriv is False else _SLOPE_SUMS).repeat(rows.size, axis=1)
        for at, stack, own, views in runs if self.log is None else self._logged(runs, lam, deriv):
            if isinstance(deriv, bool):
                stack._rowwise(own, lam[at], sums[:, at], *views)
                continue
            # the run in stretches of rows that all take, or all skip, the
            # derivative sums: one, unless its rows are blocks alone
            d = deriv[at]
            took = np.count_nonzero(d)
            if took == 0 or took == d.size:
                stack._rowwise(own, lam[at], sums[: 6 if took else 2, at], *views)
                continue
            cuts = (np.flatnonzero(d[1:] != d[:-1]) + 1).tolist()
            for lo, hi in itertools.pairwise([0, *cuts, d.size]):
                out = sums[: 6 if d[lo] else 2, at][:, lo:hi]
                stack._rowwise(own[lo:hi], lam[at][lo:hi], out, *views)
        if self.censored:
            m3, at_c = terms[3:]
            z = lam * at_c
            sums[1] -= m3 * np.log1p(z)
            if deriv is not False:
                q = at_c / (z + 1.0)
                sums[4] -= m3 * q
                sums[5] -= m3 * (q * q)
        return runs, terms, sums

    def _logged(self, runs, lam, deriv):
        """``runs``, in order, for :meth:`_sums` to sum, after a new entry
        of ``log`` for the pass (see :class:`_Passes`), to which each run's
        stack, its rows and those of them taking the derivative sums
        (``deriv`` as in :meth:`_sums`) are added as the run is taken."""
        summed = []
        self.log.append((lam.copy(), summed))
        for run in runs:
            at, stack = run[:2]
            size = lam[at].size
            took = np.count_nonzero(deriv[at]) if isinstance(deriv, np.ndarray) else deriv * size
            summed.append((stack, size, int(took)))
            yield run

    def survival(self, rows: np.ndarray, lam: np.ndarray) -> tuple:
        """The runs of ``rows``, their terms and the (2, R) survival sums at
        them (:meth:`_sums`): a, and sum_unc log1p(lam*x) for Lomax rows."""
        return self._sums(rows, lam, False)

    def profile(self, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """p(lambda) (:func:`_profile`) at each of ``rows``."""
        return _profile(*self._sums(rows, lam, False), lam)

    def start(self, rows: np.ndarray, lam: np.ndarray, deriv: np.ndarray) -> tuple:
        """A fit's first pass: p(lambda) (:func:`_profile`) at each of
        ``rows``, and g, h and the (6, R) sums of :meth:`newton` there, of
        which those at the rows where ``deriv`` holds, which are distinct,
        are a Newton pass's bits (None where it holds at no row). Where it
        holds at every row, the rows are distinct, and the pass is a Newton
        pass."""
        took = int(np.count_nonzero(deriv))
        every = took == rows.size
        # one bool where every row, or none, takes the derivative sums
        mode = True if every else deriv if took else False
        runs, terms, sums = self._sums(rows, lam, mode, distinct=every)
        p = _profile(runs, terms, sums[:2], lam)
        return p, (*_score(runs, terms, sums, lam), sums) if took else None

    def limit_slope(self, rows: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """An upper bound, at each of ``rows``, on the slope (p(mu) - p0) / mu
        of the chord from the profile's exponential limit p0 to any
        0 < mu <= lam: slope0 + lam bend, from the rows' lambda-free
        constants (:class:`_Stack`). As lambda -> 0 a Gompertz or Lomax
        profile tends to p0 = -m log sum t, with slope
        s1 = sum_unc t - m sum t**2 / (2 sum t) for Gompertz and -s1 for
        Lomax (a(lambda) to second order). A Gompertz profile is
        lambda sum_unc t - m log(a(lambda) / lambda), where a / lambda sums
        the integrals of e**(lambda s) over [0, t], so its log is convex in
        lambda: the profile is concave, and its bound is its slope s1
        (bend 0). A Lomax profile is -sum_unc log1p(lambda t), whose second
        derivative is at most sum_unc t**2, less m log(a(lambda) / lambda),
        a sum of integrals of 1 / (1 + lambda s), so concave in the same
        way: its bound is -s1 + lam sum_unc t**2 / 2. A Weibull profile
        falls to -inf at 0, through its m log lambda term, so its slope0
        is +inf."""
        _, slope0, bend = self.limit
        return slope0[rows] + lam * bend[rows]

    def newton(self, rows: np.ndarray, lam: np.ndarray) -> tuple:
        """g and h (:func:`_score`) at each of ``rows``, which are distinct,
        and the (6, R) sums they come from: the survival sums, then a',
        a'' and the Lomax sums of q and q**2."""
        runs, terms, sums = self._sums(rows, lam, True, distinct=True)
        return (*_score(runs, terms, sums, lam), sums)


@np.errstate(all="ignore")
def _fit_stacks(stacks: list) -> list:
    """Fit every row of every stack of ``stacks``, which may differ in kind
    and in record count; returns each stack's :class:`_Fits`.

    The rows of all the stacks run in lockstep under one ladder and one
    Newton control, as rows of one call (:class:`_Passes`); only the record
    sums run per stack. What each row needs follows from the shape of its
    kind's profile.

    A Weibull profile is strictly concave. With x = log t it is
    p(lambda) = m log lambda + (lambda - 1) sum_unc x - m log sum e**(lambda x),
    so p'' = -m / lambda**2 - m Var_w(x) < 0, where Var_w is the variance
    of x under weights proportional to e**(lambda x). As lambda -> 0, p' ->
    +inf, and as lambda -> inf, p' -> sum_unc x - m max x <= 0, with
    equality only where every uncensored x equals the largest. So the
    profile has one maximum, or rises for ever, and needs no ladder: a
    Weibull row takes the start rung, lambda = 1, in the first pass, with
    the derivative sums, as Newton's first iterate (and every rung when the
    start is -inf, as below), then Newton from there with the whole search
    range as its bracket. A lambda-hat within 2 _TOL of the
    upper end, where a bisection onto that end stops, means no MLE.

    A Gompertz profile is concave too: it is
    lambda sum_unc t - m log(a(lambda) / lambda), where a / lambda sums the
    integrals of e**(lambda s) over [0, t], whose log is convex in lambda.
    As lambda -> 0 it tends to p0 = -m log sum t with slope
    s1 = sum_unc t - m sum t**2 / (2 sum t) (:meth:`_Passes.limit_slope`),
    and a concave profile lies below that tangent, p <= p0 + s1 lambda. So a
    Gompertz row with s1 <= 0 never rises above its limit and has no MLE,
    decided before any pass. Every other row climbs the ladder
    (``_RUNGS``) from lambda = 1 to a local maximum of the profile (every
    rung is evaluated when the start is -inf). A maximum at a clamped end
    means no MLE. So does a Lomax maximum at rung k within 64x of the
    lower clamp where the profile stays at or below p0 up to rung k+1, the
    end of Newton's bracket: where the bound on its chord slope there
    (:meth:`_Passes.limit_slope`) is not positive. Such a row takes no
    Newton pass. (A climbing Gompertz row has s1 > 0, which is its bound,
    so it is never decided so; no kind's profile has a finite limit at the
    upper end.) Any other interior maximum at rung k is refined by Newton
    inside [rung k-1, rung k+1]. A Lomax profile is not concave, so a
    Lomax maximum that Newton finds no higher than p0 is not the supremum
    either, and means no MLE; its profile there comes from the kept sums,
    with no pass. A concave Gompertz profile with s1 > 0 rises above p0
    before it falls, so its maximum is above p0 and needs no such test.

    Newton steps on the score g = lambda p': each iterate narrows the
    bracket by the sign of its score, and a step that would leave the
    bracket, or that comes from a non-concave point or a curvature that is
    not finite, bisects it in log lambda instead. A Gompertz or Lomax row
    steps in log lambda, a Weibull row in lambda: its
    g = m + lambda (sum_unc x - m xbar_w), where xbar_w, the mean of x
    under the weights above, moves only from the mean of x to its maximum.
    So away from the root g is nearly linear in lambda, where a step in
    lambda lands next to the root, and one in log lambda overshoots it from
    below and walks back about one e-fold per pass from above. Newton stops
    when its step or the bracket is at most _TOL * lambda, when its next
    iterate is its previous one, or once its row has made _MAX_EVALS
    evaluations; lambda-hat is its last iterate.
    After its first step a row's climb scans ahead in chunks of rungs, one
    profile pass each: the first chunk holds about 2 x ``_SCAN_RECORDS``
    records per stack with scanning rows (:meth:`_Passes.scan_chunk`), and
    each later one twice the rungs, so a selection call scans in one pass.
    Rungs cost one transcendental pass per record; only Newton iterates
    take the derivative sums, and the sums of a row's last iterate, at
    lambda-hat, are kept, read from the pass's sums when the row stops
    (see :class:`_Fits`), for the log-likelihood and the Wald variances
    there. The start rung is an iterate too where the first pass takes its
    derivative sums (:meth:`_Passes.start`) and Newton starts there: in
    every Weibull row, and in a Gompertz or Lomax row of at least
    ``_SCAN_RECORDS`` records, a block of its own at each rung, so the
    sums cost no other row's work and are thrown away only where its
    ladder leaves the start. Such a row steps from them without a pass of
    its own, so a call in which every row that reaches Newton does (every
    all-Weibull call) takes one pass fewer. A row's ``n_evals`` counts its passes
    over its records, the start rung once, and the rungs a one-rung scan
    would evaluate, whatever the chunk size, and no stopping rule looks at
    another row, so each row gets the bits and the count of its one-row
    fit, whatever stacks it is fitted with.
    """
    passes = _Passes(stacks)
    m = passes.terms[0]
    counts = passes.counts
    R = m.size
    rungs, start = _RUNGS, _START
    last = rungs.size - 1
    # column k+1 holds p(rung k), NaN until evaluated; the two -inf end
    # columns stand for the missing neighbours of the clamps
    vals = np.full((R, rungs.size + 2), np.nan)
    vals[:, 0] = vals[:, -1] = -np.inf
    n_evals = np.zeros(R, dtype=np.int64)
    # Converged, until a row's other outcome overwrites it
    code = np.zeros(R, dtype=np.int8)

    def evaluate(rows, idx):
        new = np.isnan(vals[rows, idx + 1])
        rows, idx = rows[new], idx[new]
        if rows.size:
            vals[rows, idx + 1] = passes.profile(rows, rungs[idx])
            np.add.at(n_evals, rows, 1)

    # a row takes the derivative sums at the start rung in its first pass,
    # as Newton's first iterate, where that costs no other row's work: a
    # Weibull row, whose Newton starts there, and a Gompertz or Lomax row of
    # at least _SCAN_RECORDS records, each of whose rungs is a block alone
    early = np.empty(R, dtype=bool)
    for stack, at in zip(stacks, passes.slices):
        # a Gompertz profile is concave, so one whose limit slope s1 is not
        # positive never rises above its limit
        if stack.kind is BaselineKind.GOMPERTZ:
            code[at][stack.limit[1] <= 0.0] = _NO_MLE_LIMIT
        early[at] = stack.kind is BaselineKind.WEIBULL or stack.x.shape[-1] >= _SCAN_RECORDS
    code[m == 0] = _NO_FAILURES
    # s is 1 in Weibull rows only (see _Stack)
    weibull = passes.terms[1] == 1.0
    act = np.flatnonzero(code == _CONVERGED)
    cur = np.full(R, start)
    # the climb looks at the start and both its neighbours; a Weibull row
    # only at the start
    around = np.arange(max(start - 1, 0), min(start + 1, last) + 1)
    rows, idx = np.repeat(act, around.size), np.tile(around, act.size)
    keep = (idx == start) | ~weibull[rows]
    rows, idx = rows[keep], idx[keep]
    first = None
    if rows.size:
        deriv = (idx == start) & early[rows]
        vals[rows, idx + 1], first = passes.start(rows, rungs[idx], deriv)
        np.add.at(n_evals, rows, 1)
    if first is not None:
        # per call row, its column of the first pass where it took the
        # derivative sums, or -1
        column = np.full(R, -1)
        column[rows[deriv]] = np.flatnonzero(deriv)
    dead = act[vals[act, start + 1] == -np.inf]
    if dead.size:
        evaluate(np.repeat(dead, rungs.size), np.tile(np.arange(rungs.size), dead.size))
        cur[dead] = vals[dead, 1:-1].argmax(axis=1)
        hopeless = dead[vals[dead, cur[dead] + 1] == -np.inf]
        code[hopeless] = _NO_FINITE_PROFILE
        act = np.setdiff1d(act, hopeless)
    climb = act[~weibull[act]]

    # First step: to the better neighbour (left, unless right beats it too).
    # Every later step of the climbing rule keeps that direction while the
    # profile rises, so the rest of the climb is a scan. It evaluates k rungs
    # ahead per pass, k doubling from a size at which the chunk's records
    # cost about what the pass and its bookkeeping do (_Passes.scan_chunk).
    # Rungs of the last chunk past the first fall are not counted; they are
    # all new to the chunk, since the scan moves away from every evaluated
    # rung.
    if climb.size:
        c = cur[climb]
        p_left, p_cur, p_right = vals[climb, c], vals[climb, c + 1], vals[climb, c + 2]
        go_left = p_left > p_cur
        go_right = p_right > np.where(go_left, p_left, p_cur)
        step = np.where(go_right, 1, np.where(go_left, -1, 0))
        cur[climb] = c + step
        scan, step = climb[step != 0], step[step != 0]
        k = min(rungs.size, passes.scan_chunk(scan))
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
            np.subtract.at(n_evals, row_of[vain], 1)
            cur[scan] = c + step * fall
            scan, step = scan[~stops], step[~stops]
            k *= 2

        c = cur[climb]
        code[climb[(c == 0) | (c == last)]] = _NO_MLE_CLAMP
        # a maximum within 64x of the lower clamp is the profile's limit
        # there where the profile stays at or below that limit up to the
        # next rung (_Passes.limit_slope)
        near = climb[(c > 0) & (rungs[c] / rungs[0] <= 64.0)]
        if near.size:
            code[near[passes.limit_slope(near, rungs[cur[near] + 1]) <= 0.0]] = _NO_MLE_LIMIT
        inner = act[code[act] == _CONVERGED]
    else:
        inner = act

    # Newton: each active row has its iterate lambda and its bracket [lo, hi],
    # the rungs either side of its ladder maximum, or for a Weibull row the
    # whole range. Both lambda and the next iterate lie in the bracket, so a
    # bracket narrower than _TOL * lambda stops Newton too.
    lam_hat = np.full(R, np.nan)
    # the sums of each row's last Newton pass (see _Passes.newton)
    kept = np.full((6, R), np.nan)
    act, c, whole = inner, cur[inner], weibull[inner]
    # per active row: lambda, lo, hi and the previous iterate, compacted by
    # one index when rows stop (np.count_nonzero and compress cost a third
    # to a half of .all() and of boolean indexing at this size)
    ends = rungs[np.where(whole, 0, c - 1)], rungs[np.where(whole, last, c + 1)]
    state = np.stack([rungs[c], *ends, np.full(act.size, np.nan)])
    lam, lo, hi, prev = state
    # g, h and the sums of Newton's first iterate: a row that took the
    # derivative sums at the start rung and starts there steps from them,
    # and the other rows take a pass
    iterate = None
    if first is not None:
        at = column[act]
        ready = (at >= 0) & (c == start)
        if ready.any():
            g, h, sums = first
            g, h, sums = iterate = g.take(at), h.take(at), sums.take(at, axis=1)
            need = np.flatnonzero(~ready)
            if need.size:
                rows = act[need]
                g[need], h[need], sums[:, need] = passes.newton(rows, lam[need])
                n_evals[rows] += 1
    while act.size:
        if iterate is None:
            iterate = passes.newton(act, lam)
            evals = n_evals[act] + 1
            n_evals[act] = evals
        else:
            evals = n_evals[act]
        g, h, sums = iterate
        iterate = None
        np.copyto(lo, lam, where=g > 0.0)
        np.copyto(hi, lam, where=g < 0.0)
        # a Weibull row steps in lambda, the others in log lambda. From a
        # non-concave point (h >= 0) the step points away from the root, past
        # the bracket end lambda has just become, so it bisects, as from a
        # curvature past double range, whose step would be 0, or from a
        # Weibull step of -1 or less
        step = g / -h
        nxt = lam * np.where(weibull[act], 1.0 + step, np.exp(step))
        inside = (lo <= nxt) & (nxt <= hi) & np.isfinite(h)
        if np.count_nonzero(inside) < act.size:
            out = ~inside
            nxt[out] = np.sqrt(lo[out] * hi[out])
        # a step back to the previous iterate starts a two-cycle: at the
        # rounding floor each step can land on the other end of the bracket
        go = (np.abs(nxt - lam) > _TOL * lam) & (nxt != prev) & (evals < _MAX_EVALS)
        prev[:] = lam
        lam[:] = nxt
        if np.count_nonzero(go) < act.size:
            done = ~go
            rows = act[done]
            lam_hat[rows] = prev[done]
            kept[:, rows] = sums.compress(done, axis=1)
            state, act = state.compress(go, axis=1), act[go]
            lam, lo, hi, prev = state

    a_hat, unc_log1p, a1, a2, _, uq2 = kept
    alphas = counts / a_hat
    code[inner[~counts[:, inner].all(axis=0)]] = _BOUNDARY
    code[inner[~(np.isfinite(a_hat) & np.isfinite(alphas).all(axis=0))[inner]]] = _DEGENERATE
    c = _hazard(passes.terms, lam_hat, unc_log1p)
    # a Weibull profile still rising at the upper end has no maximum: a
    # bisection onto the end stops once its step, half the bracket, is at
    # most _TOL * lambda, so up to 2 _TOL * lambda-hat below it
    code[weibull & (lam_hat * (1.0 + 2.0 * _TOL) >= rungs[last])] = _NO_MLE_CLAMP
    # a maximum no higher than its row's floor, a Lomax row's limit p0, is
    # not the supremum (see _Stack)
    code[(code <= _BOUNDARY) & (c - m * np.log(a_hat) <= passes.limit[0])] = _NO_MLE_LIMIT

    c2 = _curvature(m, lam_hat, uq2)
    return [
        _Fits(
            code[at], lam_hat[at], alphas[:, at], n_evals[at],
            a_hat[at], c[at], a1[at], a2[at], c2[at],
        )
        for at in passes.slices
    ]


def fit_mle(data: CompetingRisksData, kind: BaselineKind) -> FitResult:
    """Maximum-likelihood fit of the four parameters for one baseline kind.

    Strategy: the profile's shape decides where Newton starts, and whether
    a maximum exists. A Weibull profile is strictly concave in lambda and
    rises from -inf at 0, so it has one maximum, or rises for ever: Newton
    runs in lambda from lambda = 1, whose evaluation is its first iterate,
    over the whole search range [1e-8, 1e8], and a lambda-hat at its upper
    end means no MLE (status NoMleMonotoneProfile). As lambda -> 0 a Gompertz or Lomax
    profile tends to p0 = -m log sum t, with slope
    s1 = sum_unc t - m sum t**2 / (2 sum t) for Gompertz and -s1 for Lomax.
    A Gompertz profile is concave, so where s1 <= 0 it never rises above
    p0 and no MLE exists, decided without an evaluation. Every other fit
    evaluates the profile on a fixed geometric ladder of lambda values, 1
    times powers of 4 clamped to the search range (29 rungs), and climbs
    from lambda = 1 to a local maximum. A maximum at a clamped end of the
    range means the profile is monotone there and no MLE exists. So does a
    Lomax maximum within 64x of the lower clamp where the profile stays at
    or below p0 up to the next rung: up to lambda its chord slope
    (p - p0) / lambda is at most -s1 + lambda sum_unc t**2 / 2, and the
    maximum is decided where that bound is not positive. So does a Lomax
    maximum that Newton finds no higher than p0. Nothing is decided next
    to the upper clamp by a limit: as lambda -> inf no kind's profile has
    a finite one (Weibull and Gompertz profiles fall linearly in lambda or
    rise like m log lambda, a Lomax profile falls like -m log log lambda).
    Any other interior maximum brackets the root of the profile score
    p'(lambda), which a safeguarded Newton iteration in log lambda (in
    lambda for Weibull), with closed-form derivatives, locates; Newton
    stops when its step is at most 1e-10 relative, or once the fit has
    made 500 profile evaluations. A fit of at least 16384 records whose
    ladder peaks at lambda = 1 takes Newton's first iterate in the ladder's
    first pass, as a Weibull fit always does, so it evaluates lambda = 1
    once. The alphas then follow in closed form.
    Any failure mode absent from the data pins its alpha to 0 (status
    BoundaryAlphaZero).

    This is the one-row case of the engine that :func:`bootstrap_ci` and
    the selection study run on whole stacks of datasets, so a stacked
    row's estimate is bit for bit the fit of that dataset alone.

    Newton's last pass is evaluated at lambda-hat itself, so its sums give
    ``loglik_max`` without another pass over the records. The fit also
    leaves that pass's a', a'' and c'' in the dataset's cache, under its
    kind, for :func:`asymptotic_ci` and :func:`observed_fisher` at the same
    lambda: a fit then an interval on one dataset object makes ``n_evals``
    passes over the records, plus the rungs its ladder scan evaluated past
    the profile's fall, and the interval adds none. A scan pass evaluates
    several rungs at once, so a Gompertz or Lomax fit takes fewer passes
    over the records than evaluations whenever its ladder scans.

    Raises
    ------
    EstimationError
        If the data contain no failures at all, or the profile is -inf over
        the entire search range.
    DegenerateDataError
        If the closed-form alphas at lambda-hat are not finite.
    """
    stack = _workspace(data, kind)
    (fits,) = _fit_stacks([stack])
    data._cache[("moments", kind)] = (float(fits.lam[0]), fits.a1, fits.a2, fits.c2)
    return _fit_result(kind, fits, 0, float(_fitted_logliks(stack, fits)[0]))


def _fitted_logliks(stack: _Stack, fits: _Fits) -> np.ndarray:
    """Each row's maximized log-likelihood, :func:`log_likelihood` at its
    estimates, or -inf for a row without estimates, as a float64 array. It
    takes no pass over the records: the survival and hazard sums at
    lambda-hat are those of the row's last Newton pass (:class:`_Fits`)."""
    out = np.full(fits.code.size, -np.inf)
    rows = np.flatnonzero(fits.code <= _BOUNDARY)
    out[rows] = _loglik_from_sums(
        stack.counts[:, rows], fits.alphas[:, rows], fits.a[rows], fits.c[rows]
    )
    return out


def _fit_result(kind: BaselineKind, fits: _Fits, r: int, loglik) -> FitResult:
    """Row ``r`` of ``fits`` as :func:`fit_mle` reports it, with ``loglik``
    its maximized log-likelihood (unused for a row without an MLE). Raises
    the row's error if its fit ended in one (:func:`_status`)."""
    status = _status(int(fits.code[r]), fits, r)
    if status is FitStatus.NO_MLE_MONOTONE_PROFILE:
        params_hat = loglik = None
    else:
        alpha0, alpha1, alpha2 = fits.alphas[:, r].tolist()
        params_hat = BvfParams(kind, alpha0, alpha1, alpha2, float(fits.lam[r]))
    return FitResult(
        kind=kind,
        status=status,
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
    :func:`asymptotic_ci` reports (see :func:`_variances_from_moments`).
    Both test this rule with that function, and take a', a'' and c'' from
    :func:`_moments_at`: at the lambda-hat of :func:`fit_mle` on the same
    dataset object they take no pass over the records, elsewhere one.

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
    ws, (d1_a, d2_a, d2_c) = _moments_at(data, p_hat)
    if np.isnan(_variances_from_moments(ws.counts, theta[:3, None], d1_a, d2_a, d2_c)).any():
        raise SingularMatrixError("observed information matrix is not positive definite")
    info = np.diag(np.append(ws.counts[:, 0] / theta[:3] ** 2, 0.0))
    info[:3, 3] = info[3, :3] = d1_a[0]
    info[3, 3] = (theta[0] + theta[1] + theta[2]) * d2_a[0] - d2_c[0]
    return info


def _moments_at(data: CompetingRisksData, p_hat: BvfParams) -> tuple[_Stack, tuple]:
    """The workspace of ``data`` for ``p_hat``'s kind, and a', a'' and c''
    at ``p_hat.lam`` (shape (1,) each). When ``p_hat.lam`` is the
    lambda-hat that :func:`fit_mle` last found on this dataset object for
    this kind, they are the sums its last Newton pass kept there;
    otherwise they take one Newton pass at ``p_hat.lam``, which gives the
    same bits there."""
    ws = _workspace(data, p_hat.kind)
    memo = data._cache.get(("moments", p_hat.kind))
    # lambda is a positive float, for which == compares bits
    if memo is not None and memo[0] == p_hat.lam:
        return ws, memo[1:]
    lam = np.array([p_hat.lam])
    with np.errstate(all="ignore"):
        _, _, a1, a2, _, uq2 = _Passes([ws]).newton(_ONE, lam)[2]
        return ws, (a1, a2, _curvature(ws.terms[0], lam, uq2))


def _variances_from_moments(m, alphas, a1, a2, c2) -> np.ndarray:
    """The Wald variances, the diagonal of the inverse observed information,
    of R fits, from the failure counts ``m`` and the ``alphas`` (both shape
    (3, R)) and from a', a'' and c'' at each fit's lambda
    (:func:`_moments_at`): an (R, 4) array in ``PARAM_NAMES`` order, NaN
    throughout a row whose information is not positive definite.

    The information (:func:`observed_fisher`) is I = [[D, b], [b^T, c]] with
    D = diag(m_k / alpha_k**2), b_k = a'(lambda) and
    c = (alpha0 + alpha1 + alpha2) a''(lambda) - c''(lambda). With the
    lambda Schur complement s = c - a'**2 sum_k alpha_k**2 / m_k,

        var(lambda)  = 1 / s
        var(alpha_k) = alpha_k**2 / m_k + (a' alpha_k**2 / m_k)**2 / s

    and I is positive definite exactly when every m_k > 0, s > 0 and every
    entry is finite; a row whose s is so small that a variance overflows is
    singular too. All of it is elementwise, so each row gets the bits of
    its one-row call.
    """
    with np.errstate(all="ignore"):
        inv_d = alphas**2 / m
        c = (alphas[0] + alphas[1] + alphas[2]) * a2 - c2
        s = c - a1 * a1 * inv_d.sum(axis=0)
        var = np.empty((a1.size, 4))
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


def _check_bootstrap(B, level) -> tuple[int, float]:
    """A bootstrap's resample count B, an integer >= 1, and its confidence
    level, checked in that order."""
    B = _check_count("B", B)
    if B < 1:
        raise DomainError(f"B must be >= 1, got {B}")
    return B, _check_level(level)


def asymptotic_ci(
    fit: FitResult, data: CompetingRisksData, level: float = 0.95
) -> ConfidenceIntervalSet:
    """Wald intervals theta_j +/- z * sqrt([I^-1]_jj) from the observed
    information, whose inverse diagonal has a closed form (see
    :func:`observed_fisher`). Lower limits may be negative; they are
    reported as-is. This is the one-row case of the variances a study
    computes for a whole stack of fits. After :func:`fit_mle` on the same
    dataset object, it takes no pass over the records: a', a'' and c'' at
    lambda-hat are the sums the fit's last Newton pass kept there
    (:func:`_moments_at`); ``fit`` from another dataset object, or a
    dataset not fitted yet, takes one Newton pass there, with the same
    bits.

    Raises
    ------
    SingularMatrixError
        If the information is not positive definite.
    """
    level = _check_level(level)
    p_hat = _require_converged(fit, "asymptotic_ci")
    theta = [p_hat.alpha0, p_hat.alpha1, p_hat.alpha2, p_hat.lam]
    ws, moments = _moments_at(data, p_hat)
    variances = _variances_from_moments(ws.counts, np.array(theta[:3])[:, None], *moments)[0]
    if np.isnan(variances).any():
        raise SingularMatrixError("observed information matrix is not positive definite")
    ends = _wald_intervals(np.array(theta), variances, level)
    return ConfidenceIntervalSet(
        level=level,
        method=CiMethod.ASYMPTOTIC,
        intervals=dict(zip(PARAM_NAMES, map(tuple, ends.tolist()))),
        variances=dict(zip(PARAM_NAMES, variances.tolist())),
    )


def _wald_intervals(theta: np.ndarray, variances: np.ndarray, level: float) -> np.ndarray:
    """theta +/- z * sqrt(variances), elementwise over arrays of one shape
    (a fit's 4 parameters in ``PARAM_NAMES`` order, or (k, 4) for k fits),
    z being the standard normal quantile of (1 + level) / 2: the lower and
    upper ends along a new last axis of length 2."""
    z = statistics.NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * np.sqrt(variances)
    return np.stack((theta - half, theta + half), axis=-1)


def percentile_ranks(b_effective: int, level: float) -> tuple[int, int]:
    """1-based order-statistic ranks (ceil(B*a/2), ceil(B*(1-a/2))) with
    a = 1 - level, clamped to [1, B]. The count must be an integer (bool
    excluded): anything else is a ValidationError."""
    b_effective = _check_count("b_effective", b_effective)
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
    integer; anything else is a ValidationError. The arguments are checked
    in this order: B, level, seed, the seed's room for B more children, and
    last that ``fit`` converged, so a bad seed is a ValidationError whatever
    the fit; a refused call never advances a SeedSequence seed. Only an
    integer seed is echoed in the result: a SeedSequence, spawned or not, is
    reported as None, since its root entropy alone need not reproduce the
    intervals.
    B >= 100 is recommended for real use; smaller values are accepted (the
    rank arithmetic stays well-defined down to B = 1).
    """
    B, level = _check_bootstrap(B, level)
    parent = _seed_sequence(seed)
    first = parent.n_children_spawned
    if first + B > _MAX_CHILDREN:
        # past it NumPy's spawn, whose counter is a uint32, exhausts memory
        raise ValidationError(
            f"seed has n_children_spawned = {first}; B = {B} more children would "
            f"pass NumPy's limit of 2**32 - 1"
        )
    p_hat = _require_converged(fit, "bootstrap_ci")
    if parent is seed:
        # the caller's sequence moves past the B children drawn from
        seed.spawn(B)
    keys = (first + np.arange(B, dtype=np.uint64))[:, None]
    ends, reasons = _bootstrap_intervals(
        p_hat, data.n, data.censoring_time, level, _child_states(parent, keys)
    )
    return ConfidenceIntervalSet(
        level=level,
        method=CiMethod.BOOTSTRAP,
        intervals=dict(zip(PARAM_NAMES, map(tuple, ends.tolist()))),
        B=B,
        seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
        n_failed=sum(reasons.values()),
        failure_reasons=reasons,
    )


def _bootstrap_intervals(
    p_hat: BvfParams, n: int, censoring_time, level: float, states: np.ndarray
) -> tuple[np.ndarray, dict]:
    """:func:`bootstrap_ci`'s percentile intervals, a (4, 2) array of lower
    and upper ends in ``PARAM_NAMES`` order, and failure counts by reason,
    from one resample of ``n`` records, censored at ``censoring_time``
    (None for none), per row of ``states`` (seed words from
    :func:`_child_states`); more than 5% failed resamples is a
    ResampleFailureError."""
    B = len(states)
    estimates, code = _bootstrap_refits(p_hat, n, censoring_time, states)
    # counted in row order, so the reasons keep their first occurrence's
    failed = code[code > _BOUNDARY].tolist()
    reasons = dict(collections.Counter(_REASONS[c] for c in failed))
    n_failed = len(failed)
    if n_failed > 0.05 * B:
        listed = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        raise ResampleFailureError(
            f"{n_failed} of {B} bootstrap resamples failed to produce an "
            f"estimate ({listed})"
        )
    usable = np.sort(estimates[code <= _BOUNDARY], axis=0)
    lo_rank, hi_rank = percentile_ranks(B - n_failed, level)
    return usable[[lo_rank - 1, hi_rank - 1]].T, reasons


def _draw_stack(p: BvfParams, n: int, states: np.ndarray, censoring_time):
    """The records ``from_bivariate(sample(p, n, seed), C)`` gives for each
    child SeedSequence, whose PCG64 seed words are a row of ``states`` (from
    :func:`_child_states`). Returns the indices ``rows`` of the valid ones,
    their records ``t`` and ``delta`` as one stack (the drawn stack itself
    when every row is valid), and per row of ``states`` the draw code of
    the error ``from_bivariate`` would raise, else 0, for its fit's code
    to replace. The rows are drawn and
    transformed in blocks of :func:`_row_blocks` that hold at most
    ``_SCAN_RECORDS`` uniforms (3n per row), so no temporary of the inverse
    transform outgrows a block of the engine's. One PCG64, local to the
    call, is set to each row's state in turn and fills the row's slice of
    one reused buffer, from the same stream ``random((3, n))`` draws."""
    R = len(states)
    t = np.empty((R, n))
    delta = np.empty((R, n), dtype=np.int8)
    code = np.zeros(R, dtype=np.int8)
    if censoring_time is not None and not 0.0 < censoring_time < math.inf:
        # from_bivariate rejects such a censoring time whatever the draws
        code[:] = _DRAW_DOMAIN
        return np.arange(0), t[:0], delta[:0], code
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
        # a NaN minimum fails the test too, so a block passes it only when
        # every row is valid; otherwise the errors from_bivariate and
        # CompetingRisksData raise are found row by row
        if x.min() > 0.0 and y.min() > 0.0 and np.isfinite(t[blk]).all():
            continue
        own = code[blk]
        own[~np.isfinite(t[blk]).all(axis=-1)] = _DRAW_INVALID
        own[~((x > 0.0).all(axis=-1) & (y > 0.0).all(axis=-1))] = _DRAW_DOMAIN
    if not code.any():
        return np.arange(R), t, delta, code
    rows = np.flatnonzero(code == 0)
    return rows, t[rows], delta[rows], code


def _bootstrap_refits(
    p_hat: BvfParams, n: int, censoring_time, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw and refit one resample per row of ``states``, as
    ``fit_mle(from_bivariate(sample(p_hat, n, seed), censoring_time))``
    would with the child SeedSequence whose seed words the row holds, in one
    stacked pass. Returns the (B, 4) estimates in ``PARAM_NAMES`` order and
    each resample's draw or refit code."""
    rows, t, delta, code = _draw_stack(p_hat, n, states, censoring_time)
    estimates = np.full((len(states), 4), np.nan)
    (fits,) = _fit_stacks([_Stack(p_hat.kind, t, delta)])
    code[rows] = fits.code
    got = fits.code <= _BOUNDARY
    estimates[rows[got], :3] = fits.alphas[:, got].T
    estimates[rows[got], 3] = fits.lam[got]
    return estimates, code
