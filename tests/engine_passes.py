"""One record pass of the fitting engine over a single stack, for tests.

:func:`run_pass` runs a survival, profile, Newton or moments pass at some
rows of a stack in an engine call over that stack alone
(``inference._Passes([stack])``), the only path by which the engine runs
a pass.
"""

import numpy as np

from bvf import inference


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
