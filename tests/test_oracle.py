"""Numerical verification layer: golden section, family minimizers, MC area."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphacheeger import (
    NonUnimodalError,
    UnconvergedSearchError,
    SolutionKind,
    build_cut_corner_rectangle,
    build_topped_substrip,
    classify_rectangle,
    corner_radius,
    golden_section_min,
    h_alpha_strip_limit,
    m_of_alpha,
    measure,
    monte_carlo_area,
    oracle_rectangle,
    oracle_strip,
    ratio,
    scale_shape,
    stadium_area,
    stadium_perimeter,
)
from alphacheeger import geometry, oracle
from alphacheeger.oracle import MAX_ORACLE_LENGTH
from reference_kernels import min_cut_corner_ratio, min_stadium_ratio, regular_polygon


def test_golden_section_parabola():
    x_star, f_star = golden_section_min(lambda x: (x - 1.0) ** 2, 0.0, 3.0, 1e-10)
    assert x_star == pytest.approx(1.0, abs=1e-9)
    assert f_star == pytest.approx(0.0, abs=1e-16)


def test_golden_section_handles_boundary_minima():
    x_star, _ = golden_section_min(lambda x: x, 2.0, 5.0, 1e-10)
    assert x_star == pytest.approx(2.0, abs=1e-9)


def test_golden_section_rejects_non_unimodal_input():
    with pytest.raises(NonUnimodalError) as err:
        golden_section_min(lambda x: math.sin(3.0 * x), 0.0, 2.0 * math.pi, 1e-8)
    assert err.value.x_rise < err.value.x_fall


def test_golden_section_refuses_to_stop_unconverged():
    # 200 golden steps shrink [0, 1e60] to about 1e18, far above tol
    with pytest.raises(UnconvergedSearchError) as err:
        golden_section_min(lambda x: (x - 1.0) ** 2, 0.0, 1e60, 1e-9)
    message = str(err.value)
    assert "1e-09" in message and "200 iterations" in message
    assert err.value.lo == 0.0 and err.value.hi > 1e-9
    assert isinstance(err.value, ValueError)


def test_golden_section_argument_validation():
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x * x, 2.0, 1.0, 1e-8)
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x * x, 0.0, 1.0, 0.0)


def test_reference_minimizer_cut_corner():
    # frozen from a 30-digit golden-section run, tolerance 1e-12
    t_star, h_star = min_cut_corner_ratio(4.0, 1.2)
    assert t_star == pytest.approx(0.840419857438767, abs=1e-9)
    assert h_star == pytest.approx(1.99294478113263, rel=1e-12)
    assert t_star == pytest.approx(corner_radius(4.0, 1.2), abs=1e-10)


def test_reference_minimizer_stadium():
    m_star, h_star = min_stadium_ratio(1.5)
    assert m_star == pytest.approx(math.pi / 2, abs=1e-8)
    assert h_star == pytest.approx(h_alpha_strip_limit(1.5), rel=1e-12)


def test_ratio_of_a_disk_matches_the_ball_formula():
    disk = regular_polygon(4096)
    disk_formula = 2 * math.pi / math.pi ** (1 / 1.5)  # 2 pi r / (pi r^2)^(1/a)
    assert ratio(disk, 1.5) == pytest.approx(disk_formula, rel=1e-6)


def test_ratio_of_the_optimal_stadium_matches_the_strip_limit():
    shape = build_topped_substrip(m_of_alpha(1.5), 4096)
    assert ratio(shape, 1.5) == pytest.approx(h_alpha_strip_limit(1.5), rel=1e-6)


@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=1.05, max_value=1.95))
def test_ratio_scaling_law(t, a):
    shape = regular_polygon(256)
    scaled = ratio(scale_shape(shape, t), a)
    assert scaled == pytest.approx(t ** (1.0 - 2.0 / a) * ratio(shape, a), rel=1e-10)


def search_family(build, a, lo, hi):
    """Golden search of ratio(build(x), a), the oracle's family search."""
    return golden_section_min(lambda x: ratio(build(x), a), lo, hi, 1e-9)


def test_solve_ratio_problem_cut_corner_family(segments, oracle_rtol):
    t_star, h_star = search_family(
        lambda t: build_cut_corner_rectangle(4.0, t, segments), 1.2, 1e-9, 1.0)
    assert h_star == pytest.approx(classify_rectangle(4.0, 1.2).solution.h_alpha,
                                   rel=oracle_rtol)
    assert t_star == pytest.approx(corner_radius(4.0, 1.2), abs=100 * oracle_rtol)


def test_oracle_rectangle_short_cell(segments, oracle_rtol):
    sol = oracle_rectangle(2.0, 1.9, segments)
    assert sol.kind is SolutionKind.CUT_CORNERS
    assert sol.unique
    assert sol.h_alpha == pytest.approx(classify_rectangle(2.0, 1.9).solution.h_alpha,
                                        rel=oracle_rtol)


def test_oracle_rectangle_long_cell(segments, oracle_rtol):
    sol = oracle_rectangle(10.0, 1.5, segments)
    assert sol.kind is SolutionKind.TOPPED_SUBSTRIP
    assert not sol.unique
    # the ratio is flat near its minimum, so the located length is only
    # sqrt-accurate in the polygonal error (measured: 1.3e-3 at 100
    # segments, 5e-6 at 10_000)
    assert sol.stadium_length == pytest.approx(m_of_alpha(1.5),
                                               abs=0.3 * math.sqrt(oracle_rtol))
    assert sol.h_alpha == pytest.approx(h_alpha_strip_limit(1.5), rel=oracle_rtol)


@pytest.mark.parametrize("length", [2.0, 5.0, 50.0])
def test_oracle_rectangle_builds_without_the_full_dedupe_scan(monkeypatch, length):
    # the rectangle builders test only their arc joins; the O(n) scan is the
    # fallback for sub-tolerance arc spacing, which the search never reaches
    scans = []
    full_scan = geometry._dedupe
    monkeypatch.setattr(geometry, "_dedupe",
                        lambda *args: scans.append(args) or full_scan(*args))
    oracle_rectangle(length, 1.5)
    assert scans == []


@pytest.mark.parametrize("length", [2.0, 5.0, 50.0])
def test_oracle_rectangle_reads_its_winners_from_the_template_sums(monkeypatch,
                                                                   length):
    # the full-resolution winners are measured from the arc-template sums,
    # like the search: no loop is built and none is shoelace-measured
    def refuse(*args, **kwargs):
        raise AssertionError("oracle_rectangle built or measured a loop")

    monkeypatch.setattr(geometry, "_arc_loop", refuse)
    monkeypatch.setattr(geometry, "measure", refuse)
    monkeypatch.setattr(oracle, "measure", refuse)
    sol = oracle_rectangle(length, 1.5)
    assert sol.h_alpha == pytest.approx(classify_rectangle(length, 1.5).solution.h_alpha,
                                        rel=1e-6)


def test_oracle_families_tie_at_the_case_boundary(segments, oracle_rtol):
    length = m_of_alpha(1.5) + 2.0
    _, h_cut = search_family(
        lambda t: build_cut_corner_rectangle(length, t, segments), 1.5, 1e-9, 1.0)
    _, h_top = search_family(
        lambda m: build_topped_substrip(m, segments), 1.5, 0.0, length - 2.0)
    assert h_cut == pytest.approx(h_top, rel=10 * oracle_rtol)


def test_oracle_strip_straight_spine_agrees_with_rectangle(straight_spine,
                                                           segments, oracle_rtol):
    strip_sol = oracle_strip(straight_spine, 1.4, segments)
    rect_sol = oracle_rectangle(16.0, 1.4, segments)
    assert strip_sol.kind is rect_sol.kind
    assert strip_sol.h_alpha == pytest.approx(rect_sol.h_alpha, rel=oracle_rtol)


def test_oracle_annulus_both_regimes(ring20, segments, oracle_rtol):
    family = oracle_strip(ring20, 1.9, segments)
    assert family.kind is SolutionKind.TOPPED_SUBSTRIP
    h_family = (stadium_perimeter(m_of_alpha(1.9))
                / stadium_area(m_of_alpha(1.9)) ** (1.0 / 1.9))
    assert family.h_alpha == pytest.approx(h_family, rel=oracle_rtol)

    whole = oracle_strip(ring20, 1.05, segments)
    assert whole.kind is SolutionKind.WHOLE_DOMAIN
    assert whole.h_alpha == pytest.approx(40.0 / 40.0 ** (1.0 / 1.05),
                                          rel=oracle_rtol)


def test_monte_carlo_is_deterministic_and_tight():
    disk = regular_polygon(512)
    est1 = monte_carlo_area(disk, 20_000, seed=7)
    est2 = monte_carlo_area(disk, 20_000, seed=7)
    assert est1 == est2  # bit-identical for a fixed seed
    est3 = monte_carlo_area(disk, 20_000, seed=8)
    assert est3 != est1
    area, _ = measure(disk)
    estimate, stderr = est1
    assert abs(estimate - area) <= 4.0 * stderr


def test_monte_carlo_unit_square_is_exact():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    from alphacheeger import PolyShape
    estimate, stderr = monte_carlo_area(PolyShape(square), 5000, seed=3)
    assert estimate == pytest.approx(1.0, abs=1e-12)
    assert stderr == 0.0


def test_monte_carlo_stadium_within_four_sigma():
    shape = build_topped_substrip(math.pi, 512)
    estimate, stderr = monte_carlo_area(shape, 50_000, seed=11)
    assert abs(estimate - 3.0 * math.pi) <= 4.0 * stderr


def test_monte_carlo_requires_enough_samples():
    with pytest.raises(ValueError):
        monte_carlo_area(regular_polygon(16), 999, seed=0)


def test_oracle_rectangle_refuses_lengths_its_search_cannot_resolve():
    with pytest.raises(ValueError, match=r"L=1e\+308 is beyond"):
        oracle_rectangle(1e308, 1.5, 100)
    with pytest.raises(ValueError, match="L=inf is beyond"):
        oracle_rectangle(math.inf, 1.5, 100)
    # at the limit the stadium search still converges to the strip optimum
    sol = oracle_rectangle(MAX_ORACLE_LENGTH, 1.5, 100)
    assert sol.kind is SolutionKind.TOPPED_SUBSTRIP
    assert sol.h_alpha == pytest.approx(h_alpha_strip_limit(1.5), rel=1e-3)


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alphacheeger"


def _package_imports(module: str) -> dict[str, set[str]]:
    """Package module -> names that ``module`` imports from it, anywhere in
    its source; "" is the package itself and "*" the whole module."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "alphacheeger":
                    found.setdefault(alias.name[len("alphacheeger."):], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name.split(".")[0] != "alphacheeger":
                    continue
                name = name[len("alphacheeger."):]
            for alias in node.names:
                if name:
                    found.setdefault(name, set()).add(alias.name)
                else:  # from . import module
                    found.setdefault(alias.name, set()).add("*")
    return found


def test_oracle_shares_no_code_with_the_closed_forms():
    assert _package_imports("geometry") == {}
    oracle = _package_imports("oracle")
    assert "" not in oracle and "classifier" not in oracle
    assert oracle["analytic"] <= {"CheegerSolution", "SolutionKind", "_alpha_value"}
    assert "oracle" not in _package_imports("classifier")
