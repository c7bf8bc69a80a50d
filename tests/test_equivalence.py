"""Every output of the equivalence suite against its committed reference.

The outputs and the script that regenerates the reference are in
``tests/equivalence.py``. Counts, statuses, reasons, messages and key order
must match exactly, and floats to 1e-13 relative; a second check asks every
float for its exact bits, so a change of one ulp anywhere shows too.
"""

import json
import math

import pytest

from equivalence import REFERENCE, outputs

RTOL = 1e-13


@pytest.fixture(scope="module")
def got():
    return outputs()


@pytest.fixture(scope="module")
def want():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _differences(got, want, close, path="", out=None) -> list:
    """The paths at which ``got`` differs from ``want``; floats are compared
    with ``close``, everything else exactly, dict keys in order."""
    out = [] if out is None else out
    if isinstance(want, float) and isinstance(got, float):
        if not (got == want or (math.isnan(got) and math.isnan(want)) or close(got, want)):
            out.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want):
        out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        if list(got) != list(want):
            out.append(f"{path}: keys {list(got)} != {list(want)}")
        else:
            for key in want:
                _differences(got[key], want[key], close, f"{path}/{key}", out)
    elif isinstance(want, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _differences(g, w, close, f"{path}[{i}]", out)
    elif got != want:
        out.append(f"{path}: {got!r} != {want!r}")
    return out


def _relative(got: float, want: float) -> bool:
    # an infinity is close to nothing but itself, which == has compared
    finite = math.isfinite(got) and math.isfinite(want)
    return finite and abs(got - want) <= RTOL * max(abs(got), abs(want))


def test_studies_do_not_depend_on_the_worker_count(got):
    pairs = [(key, key[: -1] + "2") for key in got if key.endswith("/workers1")]
    assert len(pairs) == 17
    for one, two in pairs:
        assert got[one] == got[two], one


def test_outputs_match_the_reference(got, want):
    # a JSON round trip makes tuples lists and keeps float bits
    assert _differences(json.loads(json.dumps(got)), want, _relative) == []


def test_outputs_keep_their_bits(got, want):
    assert _differences(json.loads(json.dumps(got)), want, lambda g, w: False) == []
