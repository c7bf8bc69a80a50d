"""The fitting engine's passes and outcomes, for tests.

:func:`run_pass` runs a survival, profile, Newton or moments pass at some
rows of a stack in an engine call over that stack alone
(``inference._Passes([stack])``), the only path by which the engine runs
a pass. :func:`row_outcome` decodes a row of engine fits as ``fit_mle``
reports it, and :func:`one_row_fit_mle` gives ``fit_mle``'s outcome on a
row's records alone, so :func:`same_outcome` can compare the two.
"""

import numpy as np

from bvf import BvfError, CompetingRisksData, FitStatus, ValidationError, fit_mle, inference


def row_outcome(fits, r):
    """Row ``r`` of engine fits as fit_mle reports it: the FitStatus its
    code decodes to, or the error it raises."""
    try:
        return inference._status(int(fits.code[r]), fits, r)
    except BvfError as exc:
        return exc


def fit_mle_outcome(data, kind):
    """fit_mle's status on ``data``, or the error it raises."""
    try:
        return fit_mle(data, kind).status
    except BvfError as exc:
        return exc


def one_row_fit_mle(kind, t, delta):
    """fit_mle's outcome on the records ``t`` and ``delta`` alone. Records
    that CompetingRisksData rejects (an infinite time) take the rest of
    fit_mle's path: one engine call on their one-row stack, decoded by
    _fit_result."""
    try:
        data = CompetingRisksData(t, delta)
    except ValidationError:
        (fits,) = inference._fit_stacks([inference._Stack(kind, t[None], delta[None])])
        try:
            return inference._fit_result(kind, fits, 0, None).status
        except BvfError as exc:
            return exc
    return fit_mle_outcome(data, kind)


def same_outcome(got, want) -> bool:
    """The same FitStatus, or errors of one class with one message."""
    if isinstance(want, FitStatus):
        return got is want
    return type(got) is type(want) and str(got) == str(want)


def run_pass(stack, name, rows, lam, passes=None):
    """The pass ``name``, one of those below, at ``rows`` of ``stack``
    (indices in any order, or ``inference._ALL``) and one lambda per row,
    in ``passes``, an engine call over that stack alone (a new one when
    not given). An engine call takes its rows in ascending order, so rows
    out of order are sorted for the call and its results put back in the
    order given; results of rows in order are the call's own arrays.

    - survival: the survival sum a and the hazard sum c;
    - profile: p(lambda);
    - newton_terms: a, g and h (rows distinct);
    - moments: a', a'' and c'' (rows distinct), from a Newton pass.
    """
    passes = passes or inference._Passes([stack])
    if rows is inference._ALL:
        rows = np.arange(stack.m.size)
    back = inference._ALL
    if (np.diff(rows) < 0).any():
        order = np.argsort(rows, kind="stable")
        back = np.argsort(order)
        rows, lam = rows[order], lam[order]
    if name == "profile":
        return passes.profile(rows, lam)[back]
    terms = passes.terms[:, rows]
    if name == "survival":
        _, (a, unc_log1p) = passes.survival(rows, lam)
        got = a, inference._hazard(terms, lam, unc_log1p)
    elif name == "newton_terms":
        g, h, sums = passes.newton(rows, lam)
        got = sums[0], g, h
    else:
        _, _, a1, a2, _, uq2 = passes.newton(rows, lam)[2]
        got = a1, a2, inference._curvature(terms[0], lam, uq2)
    return tuple(v[back] for v in got)
