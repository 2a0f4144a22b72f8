"""Shared fixtures and the acceptance-criteria reporting hooks.

Two resolutions are supported, selected by ALPHACHEEGER_TEST_MODE:

* ``acceptance`` (default): 10_000 segments per arc, oracle comparisons at
  relative 1e-6, whole-suite wall clock budget 5 minutes.
* ``ci``: 100 segments, oracle comparisons relaxed to 1e-3, budget 60 s.

Criterion tests record one PASS/FAIL line each through the ``criterion``
fixture; the lines are printed as a terminal summary section so a single
``pytest -v`` run shows the verdict per criterion at a glance.
"""

import math
import os
import time

import pytest
from hypothesis import settings

from alphacheeger import (
    CurveKind,
    PathSpec,
    curve_from_source,
)

MODE_PARAMS = {
    "acceptance": {
        "segments": 10_000,
        "oracle_rtol": 1e-6,
        "wall_budget": 300.0,
        "max_examples": 60,
    },
    "ci": {
        "segments": 100,
        "oracle_rtol": 1e-3,
        "wall_budget": 60.0,
        "max_examples": 25,
    },
}

MODE = os.environ.get("ALPHACHEEGER_TEST_MODE", "acceptance")
if MODE not in MODE_PARAMS:
    raise RuntimeError(
        f"ALPHACHEEGER_TEST_MODE={MODE!r} is not one of {sorted(MODE_PARAMS)}")
PARAMS = MODE_PARAMS[MODE]

for name, params in MODE_PARAMS.items():
    settings.register_profile(name, max_examples=params["max_examples"],
                              deadline=None, derandomize=True)
settings.load_profile(MODE)


def pytest_configure(config):
    config._criterion_lines = []
    config._suite_t0 = time.monotonic()


def pytest_collection_modifyitems(config, items):
    # The wall-clock criterion has to observe the rest of the suite, so it
    # always runs last regardless of collection order.
    tail = [it for it in items if "criterion_10" in it.name]
    head = [it for it in items if "criterion_10" not in it.name]
    items[:] = head + tail


def pytest_terminal_summary(terminalreporter):
    lines = getattr(terminalreporter.config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mode():
    return MODE


@pytest.fixture(scope="session")
def segments():
    return PARAMS["segments"]


@pytest.fixture(scope="session")
def oracle_rtol():
    return PARAMS["oracle_rtol"]


@pytest.fixture(scope="session")
def wall_budget():
    return PARAMS["wall_budget"]


@pytest.fixture
def criterion(request):
    """Record one acceptance line; a failed check also fails the test."""

    def record(number: int, passed: bool, detail: str):
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number}: {verdict} ({detail})"
        request.config._criterion_lines.append((number, line))
        assert passed, line

    return record


# ---------------------------------------------------------------------------
# Shared spines.  Built once per session; construction itself is cheap but
# reusing them keeps the curved-geometry tests mutually comparable.

@pytest.fixture(scope="session")
def straight_spine():
    return curve_from_source(PathSpec((("line", 16.0),)))


@pytest.fixture(scope="session")
def u_spine():
    # line 6, half-turn of radius 1.6 (kappa = 0.625), line 4;
    # total length 10 + 1.6 pi = 15.0265...
    return curve_from_source(
        PathSpec((("line", 6.0), ("arc", 1.6, math.pi), ("line", 4.0))))


@pytest.fixture(scope="session")
def hook_spine():
    # Two tight hooks (kappa = 1/1.05) around a straight middle: long enough
    # for the capped-substrip window yet too curled for any placement.
    return curve_from_source(
        PathSpec((("arc", 1.05, 1.71), ("line", 10.64), ("arc", 1.05, 1.71))))


@pytest.fixture(scope="session")
def gentle_spine():
    # Same piece lengths as hook_spine but bent at kappa = 1/8, so the
    # capped substrip fits again.
    ang = 1.05 * 1.71 / 8.0
    return curve_from_source(
        PathSpec((("arc", 8.0, ang), ("line", 10.64), ("arc", 8.0, ang))))


@pytest.fixture(scope="session")
def ring20():
    # Circular annulus spine of length exactly 20.
    return curve_from_source(PathSpec((("arc", 20.0 / (2.0 * math.pi), 2.0 * math.pi),),
                                      CurveKind.ANNULUS))
