"""Closed-form layer: frozen reference values and algebraic invariants."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from alphacheeger import (
    CaseError,
    CheegerSolution,
    Ordering,
    SolutionKind,
    alpha_bar,
    annulus_substrip_wins,
    classify_rectangle,
    corner_radius,
    cut_corner_area,
    cut_corner_perimeter,
    diameter_bound,
    free_boundary_radius,
    h_alpha_strip_limit,
    m_of_alpha,
    scale_constant,
    stadium_area,
    stadium_perimeter,
)
from alphacheeger.analytic import Rectangle

# Reference minimizers frozen from golden-section search over the exact
# perimeter/area expressions at 30 decimal digits (tolerance 1e-12).
GOLDEN_CORNER = {  # (L, alpha) -> (t*, ratio at t*)
    (2.0, 1.9): (0.959886514771317, 3.43873020136086),
    (3.0, 1.5): (0.937742496703473, 2.77924585883608),
    (5.0, 1.2): (0.896572834622473, 1.94127513669885),
}
GOLDEN_STADIUM = {  # alpha -> (m*, ratio at m*)
    1.2: (6.28318530717988, 1.89904195192638),
    1.5: (1.57079632679475, 2.76790522296604),
    1.8: (0.392699081698776, 3.30597161928142),
}

alphas = st.floats(min_value=1.01, max_value=1.99)
lengths = st.floats(min_value=2.0, max_value=80.0)


def test_corner_radius_matches_golden_reference():
    for (length, a), (t_star, h_star) in GOLDEN_CORNER.items():
        assert corner_radius(length, a) == pytest.approx(t_star, abs=1e-8)
        assert classify_rectangle(length, a).solution.h_alpha == pytest.approx(
            h_star, rel=1e-10)


def test_stadium_length_matches_golden_reference():
    for a, (m_star, h_star) in GOLDEN_STADIUM.items():
        assert m_of_alpha(a) == pytest.approx(m_star, abs=1e-8)
        assert h_alpha_strip_limit(a) == pytest.approx(h_star, rel=1e-10)


def test_m_of_alpha_special_values():
    assert m_of_alpha(1.5) == pytest.approx(math.pi / 2, rel=1e-14)
    assert m_of_alpha(1.2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert m_of_alpha(1.8) == pytest.approx(math.pi / 8, rel=1e-14)
    assert m_of_alpha(1.25) == pytest.approx(1.5 * math.pi, rel=1e-14)
    # the alpha = 2 limit is evaluable through the float path
    assert m_of_alpha(2.0) == 0.0


def test_alpha_domain_checks():
    with pytest.raises(ValueError):
        m_of_alpha(1.0)
    with pytest.raises(ValueError):
        m_of_alpha(2.5)
    with pytest.raises(ValueError):
        h_alpha_strip_limit(2.0)
    with pytest.raises(ValueError):
        classify_rectangle(10.0, 0.5)
    for fn in (m_of_alpha, h_alpha_strip_limit, lambda a: classify_rectangle(3.0, a)):
        with pytest.raises(ValueError, match="alpha=nan outside domain"):
            fn(math.nan)


def test_alpha_bar_endpoints():
    assert alpha_bar(2.0) == 2.0
    assert alpha_bar(math.inf) == 1.0
    assert alpha_bar(5.0) == pytest.approx(1.34365922576479, rel=1e-12)
    with pytest.raises(ValueError):
        alpha_bar(1.9)


@given(alphas)
def test_round_trip_alpha_bar_of_boundary_length(a):
    assert alpha_bar(m_of_alpha(a) + 2.0) == pytest.approx(a, abs=1e-12)


@given(alphas)
def test_round_trip_radius_one_at_boundary_length(a):
    assert corner_radius(m_of_alpha(a) + 2.0, a) == pytest.approx(1.0, abs=1e-10)


@given(st.floats(min_value=2.001, max_value=1e6))
def test_round_trip_boundary_length_of_alpha_bar(length):
    assert m_of_alpha(alpha_bar(length)) + 2.0 == pytest.approx(length, rel=1e-9)


@given(alphas, lengths, lengths)
def test_h_monotone_in_length(a, l1, l2):
    l1, l2 = min(l1, l2), max(l1, l2)
    h1, h2 = (classify_rectangle(x, a).solution.h_alpha for x in (l1, l2))
    boundary = m_of_alpha(a) + 2.0
    assert h1 >= h2 - 1e-12 * h1
    if l2 <= boundary * (1.0 - 1e-9) and l2 - l1 > 1e-6:
        assert h1 > h2  # strictly decreasing while the corners are cut
    if l1 >= boundary:
        assert h1 == pytest.approx(h2, rel=1e-12)  # flat in the family regime


@given(lengths, alphas, alphas)
def test_h_monotone_and_strict_in_alpha(length, a1, a2):
    a1, a2 = min(a1, a2), max(a1, a2)
    assume(a2 - a1 > 1e-9)
    # every minimizer here has area > 1, so the inequality is strict
    assert (classify_rectangle(length, a2).solution.h_alpha
            > classify_rectangle(length, a1).solution.h_alpha)


@given(alphas)
def test_branch_values_agree_at_the_case_boundary(a):
    length = m_of_alpha(a) + 2.0
    h_cut = (cut_corner_perimeter(length, 1.0)
             / cut_corner_area(length, 1.0) ** (1.0 / a))
    h_family = (stadium_perimeter(m_of_alpha(a))
                / stadium_area(m_of_alpha(a)) ** (1.0 / a))
    assert h_cut == pytest.approx(h_family, rel=1e-10)
    assert classify_rectangle(length, a).solution.h_alpha == pytest.approx(
        h_family, rel=1e-10)


def disk_ratio(r, a):
    """P(B_r) / |B_r|^(1/alpha) of the planar disk of radius r."""
    return 2 * math.pi * r / (math.pi * r * r) ** (1 / a)


@given(alphas, st.floats(min_value=0.1, max_value=10.0))
def test_scale_constant_matches_ball_rescaling(a, t):
    # h(t Omega) = t^(1 - 2/alpha) h(Omega), checked on disks where both
    # sides have closed forms
    h = disk_ratio(1.0, a)
    rescaled = scale_constant(h, t, a)
    assert disk_ratio(t, a) == pytest.approx(rescaled, rel=1e-10)
    assert rescaled == h * t ** (1.0 - 2.0 / a)  # the planar law, bit for bit


@given(alphas)
def test_diameter_bound_dominates_the_family_solution(a):
    d_bar = diameter_bound(a)
    assert d_bar >= 2.0
    assert m_of_alpha(a) + 2.0 <= d_bar * (1.0 + 1e-12)
    # the defining inequality, evaluated at the bound itself
    h = h_alpha_strip_limit(a)
    assert (2.0 * (m_of_alpha(a) + 2.0)) ** (1.0 - 1.0 / a) <= h * (1.0 + 1e-12)


@given(alphas)
def test_free_boundary_radius_is_one_for_the_optimal_stadium(a):
    h = h_alpha_strip_limit(a)
    r = free_boundary_radius(h, stadium_area(m_of_alpha(a)), a)
    assert r == pytest.approx(1.0, abs=1e-10)


@given(alphas, st.floats(min_value=0.02, max_value=0.98))
def test_free_boundary_radius_matches_corner_radius(a, frac):
    # interior minimizers satisfy r = (alpha/h) area^(1 - 1/alpha)
    boundary = m_of_alpha(a) + 2.0
    assume(boundary > 2.05)
    length = 2.0 + frac * (boundary - 2.0 - 0.02)
    r = corner_radius(length, a)
    h = classify_rectangle(length, a).solution.h_alpha
    relation = free_boundary_radius(h, cut_corner_area(length, r), a)
    assert relation == pytest.approx(r, rel=1e-10)


def test_corner_radius_refuses_long_rectangles():
    with pytest.raises(CaseError):
        corner_radius(10.0, 1.9)
    with pytest.raises(CaseError):
        corner_radius(math.inf, 1.5)


def test_corner_radius_classical_limit():
    # alpha -> 1 recovers the classical formula (L+2-sqrt((L-2)^2+2 pi L))/(4-pi)
    length = 5.0
    classical = (length + 2.0
                 - math.sqrt((length - 2.0) ** 2 + 2 * math.pi * length)) / (4 - math.pi)
    assert corner_radius(length, 1.0 + 1e-9) == pytest.approx(classical, abs=1e-6)


def test_annulus_comparison_sentinels():
    assert annulus_substrip_wins(20.0, 2.0) is Ordering.SUBSTRIP_BETTER
    # for each fixed length the whole annulus wins once alpha is close
    # enough to 1 (the threshold scales like pi / (2 L))
    for spine_length in (20.0, 200.0, 2000.0):
        assert annulus_substrip_wins(spine_length, 1.000001) is Ordering.ANNULUS_BETTER
    # frozen from bisection of the closed-form difference at spine length 20
    assert annulus_substrip_wins(20.0, 1.23849914454155) is Ordering.TIE
    with pytest.raises(ValueError):
        annulus_substrip_wins(-1.0, 1.5)


def test_annulus_comparison_crossover_in_length():
    a = 1.5
    lo, hi = 7.0, 500.0
    assert annulus_substrip_wins(lo, a) is Ordering.ANNULUS_BETTER
    assert annulus_substrip_wins(hi, a) is Ordering.SUBSTRIP_BETTER
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if annulus_substrip_wins(mid, a, eps_tie=0.0) is Ordering.ANNULUS_BETTER:
            lo = mid
        else:
            hi = mid
    assert annulus_substrip_wins(0.5 * (lo + hi), a) is Ordering.TIE


def test_rectangle_normalization():
    rect = Rectangle.from_sides(3.0, 10.0)
    assert rect.length == pytest.approx(20.0 / 3.0, rel=1e-15)
    assert rect.scale_to_user == pytest.approx(1.5, rel=1e-15)
    assert Rectangle.from_sides(10.0, 3.0) == rect
    with pytest.raises(ValueError):
        Rectangle.from_sides(0.0, 4.0)
    with pytest.raises(ValueError):
        Rectangle(1.5)
    # non-finite sides, and a side ratio whose normalized length overflows
    for sides in ((math.inf, 2.0), (2.0, math.nan), (1e-300, 1e300)):
        with pytest.raises(ValueError):
            Rectangle.from_sides(*sides)
    assert Rectangle.from_sides(1e308, 1e308).length == 2.0
    assert Rectangle.from_sides(1.0, 1e300).length == 2e300


def test_solution_record_validation():
    with pytest.raises(ValueError):
        CheegerSolution(kind=SolutionKind.CUT_CORNERS, h_alpha=1.0, area=1.0,
                        perimeter=1.0, unique=True, radius=1.5)
    with pytest.raises(ValueError):
        CheegerSolution(kind=SolutionKind.TOPPED_SUBSTRIP, h_alpha=1.0,
                        area=1.0, perimeter=1.0, unique=True,
                        stadium_length=2.0, placements=(0.0, 3.0))
    CheegerSolution(kind=SolutionKind.TOPPED_SUBSTRIP, h_alpha=1.0,
                    area=1.0, perimeter=1.0, unique=False,
                    stadium_length=2.0, placements=(0.0, 3.0))
