"""The fitting engine's passes, its pass log and its outcomes, for tests.

:func:`run_pass` runs a survival, profile, Newton or moments pass at some
rows of an engine call (``inference._Passes``), the only path by which the
engine runs a pass, and is the one place in the tests that unpacks a
pass's per-row sums. :func:`observe` sets the engine's one observation
point, ``inference._observed``, so that every engine call made from then on
is recorded with its pass log, and :func:`logged_passes` and
:func:`record_evals` read the passes of recorded calls. :func:`row_outcome`
decodes a row of engine fits as ``fit_mle`` reports it, and
:func:`one_row_fit_mle` gives ``fit_mle``'s outcome on a row's records
alone, so :func:`same_outcome` can compare the two.
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


def observe(monkeypatch) -> list:
    """The list to which every engine call made from here on, until
    ``monkeypatch`` undoes it, appends itself: each has its ``stacks`` and
    its ``log`` of passes, one (lambdas, summed) entry per pass, where
    ``summed`` holds a (stack, rows, derivative rows) triple per stack whose
    run the pass summed (see ``inference._Passes``)."""
    calls = []
    monkeypatch.setattr(inference, "_observed", calls)
    return calls


def pass_name(entry) -> str:
    """The kind of a logged pass: "survival" (of which a profile pass is
    one) where no row took the derivative sums, "newton" where every row
    did, and "start" for a fit's first pass, where some rows took them (as
    Newton's first iterate) and others did not."""
    lam, summed = entry
    took = sum(deriv for _, _, deriv in summed)
    return "survival" if took == 0 else "newton" if took == lam.size else "start"


def logged_passes(calls) -> list:
    """Every pass of the engine calls ``calls``, in order: its
    :func:`pass_name` and its lambdas."""
    return [(pass_name(entry), entry[0].tolist()) for call in calls for entry in call.log]


def record_evals(calls) -> int:
    """The records that the passes of the engine calls ``calls`` summed:
    per pass and per stack whose run it summed, the run's rows times the
    stack's record count."""
    return sum(
        rows * stack.x.shape[-1]
        for call in calls
        for _, summed in call.log
        for stack, rows, _ in summed
    )


def run_pass(engine, name, rows, lam):
    """The pass ``name``, one of those below, at ``rows`` of ``engine`` and
    one lambda per row. ``engine`` is an engine call, or a stack, which
    then runs in a new call over that stack alone. ``rows`` are the call's
    rows, in any order, or ``inference._ALL`` for all of them. An engine
    call takes its rows in ascending order, so rows out of order are
    sorted for the call and its results put back in the order given;
    results of rows in order are the call's own arrays.

    - survival: the survival sum a and the hazard sum c;
    - profile: p(lambda);
    - newton_terms: a, g and h (rows distinct);
    - moments: a', a'' and c'' (rows distinct), from a Newton pass.

    A Newton pass's (6, R) sums are a, sum_unc log1p(lam*x), a', a'', and
    the uncensored Lomax sums of q and q**2.
    """
    passes = engine if isinstance(engine, inference._Passes) else inference._Passes([engine])
    if rows is inference._ALL:
        rows = np.arange(passes.terms.shape[1])
    back = inference._ALL
    if (np.diff(rows) < 0).any():
        order = np.argsort(rows, kind="stable")
        back = np.argsort(order)
        rows, lam = rows[order], lam[order]
    if name == "profile":
        return passes.profile(rows, lam)[back]
    if name == "survival":
        _, terms, (a, unc_log1p) = passes.survival(rows, lam)
        got = a, inference._hazard(terms, lam, unc_log1p)
    elif name == "newton_terms":
        g, h, sums = passes.newton(rows, lam)
        got = sums[0], g, h
    else:
        _, _, a1, a2, _, uq2 = passes.newton(rows, lam)[2]
        got = a1, a2, inference._curvature(passes.terms[0, rows], lam, uq2)
    return tuple(v[back] for v in got)
