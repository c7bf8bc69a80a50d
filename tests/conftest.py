"""Shared pytest plumbing.

test_acceptance.py records one line per acceptance criterion through the
``criterion`` context manager; the collected lines are replayed as a block
in the terminal summary so every criterion's verdict is visible at a glance.
Hypothesis runs derandomized and without its example database.
"""

from contextlib import contextmanager

import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so a verdict repeats
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

ACCEPTANCE_LINES = []


@contextmanager
def criterion(num, name):
    info = {"detail": ""}
    try:
        yield info
    except pytest.skip.Exception:
        ACCEPTANCE_LINES.append(
            f"criterion {num:2d} {name}: SKIP ({info['detail']})"
        )
        raise
    except BaseException as exc:
        detail = info["detail"] or f"{type(exc).__name__}: {exc}"
        ACCEPTANCE_LINES.append(f"criterion {num:2d} {name}: FAIL ({detail})")
        raise
    ACCEPTANCE_LINES.append(f"criterion {num:2d} {name}: PASS ({info['detail']})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
