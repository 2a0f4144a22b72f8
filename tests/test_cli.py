"""Command-line interface: reports, sweeps, verification, figures, errors."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from xml.etree import ElementTree as ET

from alphacheeger import classifier, classify_rectangle, cli, m_of_alpha
from alphacheeger.strips import FitResult


@pytest.fixture
def run(capsys):
    """Invoke the CLI in process and capture (exit code, stdout, stderr)."""
    def invoke(*argv):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture
def curve_file(tmp_path):
    def write(name, spec):
        path = tmp_path / name
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)
    return write


def g12(x):
    return format(float(x), ".12g")


def test_rect_reports_the_closed_form_classification(run):
    code, out, err = run("rect", "--length", "3", "--alpha", "1.5")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "domain: rectangle L = 3 (normalized, half-width 1)"
    assert "alpha: 1.5" in lines
    assert "case: unique_cut_corners (i)" in lines
    assert "h_alpha: 2.77924585884" in lines
    assert "shape: cut-corner set, radius = 0.937742496703" in lines
    assert "unique: yes" in lines
    assert "placements: single placement" in lines


def test_rect_sides_are_normalized_then_rescaled(run):
    code, out, _ = run("rect", "--sides", "3", "10", "--alpha", "1.5")
    assert code == 0
    lines = out.splitlines()
    # 3 x 10 normalizes to L = 20/3 at half-width 1, scale factor 3/2
    assert lines[0] == "domain: rectangle L = 6.66666666667 (normalized, half-width 1)"
    assert "sides: 3 x 10 (scale factor 1.5)" in lines
    assert "case: topped_family (iii)" in lines
    assert "h_alpha: 2.41798793102" in lines
    # the stadium length scales by 3/2: M = pi/2 * 1.5
    assert f"shape: capped substrip, length M = {g12(0.75 * math.pi)}" in lines
    # unscaled family value for comparison: the normalized cell reports a
    # different number, so the scaling really happened
    unscaled = classify_rectangle(20.0 / 3.0, 1.5).solution.h_alpha
    assert g12(unscaled) != "2.41798793102"


def test_rect_infinite_sentinel_prints_unbounded_family(run):
    code, out, _ = run("rect", "--length", "inf", "--alpha", "1.5")
    assert code == 0
    assert "case: topped_family (iii)" in out
    assert "placements: center abscissa in [-inf, inf]" in out


def test_rect_infinite_refuses_verify_and_svg(run, tmp_path):
    code, _, err = run("rect", "--length", "inf", "--alpha", "1.5", "--verify")
    assert code == 2
    assert "error:" in err
    code, _, err = run("rect", "--length", "inf", "--alpha", "1.5",
                       "--svg", tmp_path / "x.svg")
    assert code == 2
    assert not (tmp_path / "x.svg").exists()


def test_rect_verify_gap_and_exit_codes(run):
    code, out, _ = run("rect", "--length", "3", "--alpha", "1.5",
                       "--verify", "--segments", "2000")
    assert code == 0
    assert "verify: PASS (tolerance 1e-06)" in out
    gap = float(next(l for l in out.splitlines()
                     if l.startswith("gap_rel:")).split()[1])
    assert 0.0 <= gap < 1e-6

    code, out, _ = run("rect", "--length", "3", "--alpha", "1.5", "--verify",
                       "--segments", "400", "--verify-tol", "1e-14")
    assert code == 3
    assert "verify: FAIL (tolerance 1e-14)" in out


def test_rect_monte_carlo_line_is_deterministic(run):
    argv = ("rect", "--length", "3", "--alpha", "1.5",
            "--mc-samples", "2000", "--mc-seed", "7")
    code, first, _ = run(*argv)
    assert code == 0
    code, second, _ = run(*argv)
    assert first == second
    line = next(l for l in first.splitlines() if l.startswith("monte_carlo:"))
    assert line.endswith("(n=2000, seed=7)")
    # "monte_carlo: area = X +- Y (...)"
    parts = line.split()
    estimate, sigma = float(parts[3]), float(parts[5])
    exact = classify_rectangle(3.0, 1.5).solution.area
    assert abs(estimate - exact) < 5.0 * sigma + 1e-4


def test_rect_svg_is_wellformed_and_labeled(run, tmp_path):
    target = tmp_path / "rect.svg"
    code, out, _ = run("rect", "--length", "3", "--alpha", "1.5", "--svg", target)
    assert code == 0
    assert f"svg: wrote {target}" in out
    root = ET.parse(target).getroot()
    assert root.tag.endswith("svg")
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    assert "domain-0" in ids
    assert any(i.startswith("cut-corners-r-") for i in ids)


def test_straight_spine_strip_reproduces_the_rectangle_block(run, curve_file):
    path = curve_file("seg20.json", {"primitive": "segment", "length": 20})
    code, strip_out, _ = run("strip", path, "--alpha", "1.3")
    assert code == 0
    code, rect_out, _ = run("rect", "--length", "20", "--alpha", "1.3")
    assert code == 0
    # identical classification block, byte for byte, from the case line on
    strip_block = strip_out[strip_out.index("case:"):strip_out.index("evidence:")]
    rect_block = rect_out[rect_out.index("case:"):]
    assert strip_block.rstrip("\n") == rect_block.rstrip("\n")


def test_annulus_strip_report_carries_the_decision_evidence(run, curve_file):
    path = curve_file("ring.json", {"primitive": "circle", "radius": 2.3})
    code, out, _ = run("strip", path, "--alpha", "1.9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("domain: annulus spine, length 14.4513262065")
    assert "case: annulus_family" in lines
    assert "  ordering: substrip_better" in lines
    assert "  decided_by: ratio_comparison" in lines
    assert "  fit_any_feasible: true" in lines
    assert any(l.startswith("placements: start anchor s0 in [0, 14.45")
               for l in lines)


def test_curved_strip_svg_spreads_family_placements(run, curve_file, tmp_path):
    path = curve_file("u.json", {
        "primitive": "path",
        "pieces": [["line", 6], ["arc", 1.6, math.pi], ["line", 4]],
    })
    target = tmp_path / "u.svg"
    code, out, _ = run("strip", path, "--alpha", "1.5",
                       "--segments", "500", "--svg", target)
    assert code == 0
    root = ET.parse(target).getroot()
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    assert "domain-0" in ids
    substrips = {i for i in ids if i.startswith("substrip-at-")}
    assert len(substrips) == 3  # both interval ends plus the midpoint


def test_strip_rejects_broken_inputs(run, curve_file, tmp_path):
    code, _, err = run("strip", tmp_path / "missing.json", "--alpha", "1.5")
    assert code == 2
    assert "error:" in err

    bad = curve_file("bad.json", {
        "primitive": "path", "pieces": [["line", 14], ["arc", 0.8, 1.0]],
    })
    code, _, err = run("strip", bad, "--alpha", "1.5")
    assert code == 2
    assert "curvature bound violated" in err


def test_sweep_csv_matches_the_closed_forms(run):
    code, out, _ = run("sweep", "--alphas", "1.2,1.5", "--lengths", "2:4:1",
                       "--csv", "-")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert len(rows) == 1 + 6
    for length_s, alpha_s, case, h_s, rm_s, area_s, perim_s, uniq, oh, gap in rows[1:]:
        c = classify_rectangle(float(length_s), float(alpha_s))
        assert case == c.case_tag.value
        assert h_s == g12(c.solution.h_alpha)
        expected_rm = (c.solution.radius if c.solution.radius is not None
                       else c.solution.stadium_length)
        assert rm_s == g12(expected_rm)
        assert area_s == g12(c.solution.area)
        assert perim_s == g12(c.solution.perimeter)
        assert uniq == ("true" if c.solution.unique else "false")
        assert oh == "" and gap == ""  # no --verify, oracle columns stay empty


def test_sweep_csv_file_target(run, tmp_path):
    target = tmp_path / "grid.csv"
    code, out, _ = run("sweep", "--alphas", "1.5", "--lengths", "2,3",
                       "--csv", target)
    assert code == 0
    assert out == f"csv: wrote 2 rows to {target}\n"
    rows = target.read_text(encoding="utf-8").splitlines()
    assert rows[0] == ",".join(cli.CSV_COLUMNS)
    assert len(rows) == 3


def test_sweep_single_cell_agrees_with_rect_report(run):
    code, table, _ = run("sweep", "--alphas", "1.5", "--lengths", "3")
    assert code == 0
    code, rect_out, _ = run("rect", "--length", "3", "--alpha", "1.5")
    h_rect = next(l for l in rect_out.splitlines()
                  if l.startswith("h_alpha:")).split()[1]
    assert h_rect in table.splitlines()[1]


def test_sweep_rejects_bad_grids(run):
    code, _, err = run("sweep", "--alphas", "2.5", "--lengths", "3", "--csv", "-")
    assert code == 2 and "admissible band" in err
    code, _, err = run("sweep", "--alphas", "1.5", "--lengths", "5:2:1")
    assert code == 2 and "error:" in err
    code, _, err = run("sweep", "--alphas", "1.5", "--lengths", "1.5,3")
    assert code == 2 and ">= 2" in err


def test_parse_value_list_forms():
    grid = cli.parse_value_list("1.05:1.95:0.05")
    assert len(grid) == 19
    assert grid[0] == 1.05
    assert grid[-1] == 1.95  # inclusive stop despite float stepping
    assert cli.parse_value_list(" 2, 3.5 ,8 ") == (2.0, 3.5, 8.0)
    with pytest.raises(ValueError, match="start:stop:step"):
        cli.parse_value_list("1:2")
    with pytest.raises(ValueError, match="step > 0"):
        cli.parse_value_list("1:2:0")


def test_segments_option_sets_the_resolution(run):
    code, out, err = run("rect", "--length", "3", "--alpha", "1.5", "--segments", "3")
    assert code == 2
    assert out == ""
    assert err == "error: --segments must be >= 4, got 3\n"

    gaps = {}
    for n in ("200", "3200"):
        code, out, _ = run("rect", "--length", "3", "--alpha", "1.5", "--segments", n,
                           "--verify", "--verify-tol", "1e-2")
        assert code == 0
        gaps[n] = float(next(l for l in out.splitlines()
                             if l.startswith("gap_rel:")).split()[1])
    # second-order polygon convergence: 16x the segments, ~256x the accuracy
    assert gaps["200"] > 50.0 * gaps["3200"]


def test_alpha_validation_exits_with_usage_code(run, curve_file):
    code, _, err = run("rect", "--length", "3", "--alpha", "2.5")
    assert code == 2
    assert "outside domain" in err
    u_path = curve_file("u.json", {
        "primitive": "path",
        "pieces": [["line", 6], ["arc", 1.6, math.pi], ["line", 4]],
    })
    ring = curve_file("ring.json", {"primitive": "circle", "radius": 6})
    for argv in (("rect", "--length", "3"), ("strip", u_path), ("strip", ring)):
        code, out, err = run(*argv, "--alpha", "nan")
        assert code == 2
        assert out == ""
        assert err == "error: alpha=nan outside domain (1.0, 2.0)\n"


def test_rect_rejects_overflowing_sides(run):
    code, out, err = run("rect", "--sides", "1e-300", "1e300", "--alpha", "1.5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "1e-300 x 1e+300" in err and "overflows" in err
    code, out, err = run("rect", "--sides", "1", "inf", "--alpha", "1.5")
    assert code == 2
    assert "positive and finite" in err
    # sides whose rescaled solution area overflows or underflows
    for sides, named in ((("1e308", "1e308"), "1e+308 x 1e+308"),
                         (("1e-200", "1e-200"), "1e-200 x 1e-200")):
        code, out, err = run("rect", "--sides", *sides, "--alpha", "1.5")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert named in err and "outside the finite normal floats" in err


def test_rect_verify_names_a_length_beyond_the_oracle(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow would raise here
        code, out, err = run("rect", "--length", "1e308", "--alpha", "1.5",
                             "--verify")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: normalized length L=1e+308 is beyond")


def test_rect_svg_refuses_an_overflowing_figure(run, tmp_path):
    target = tmp_path / "x.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow would raise here
        code, out, err = run("rect", "--length", "1e308", "--alpha", "1.5",
                             "--svg", target)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "must be finite" in err
    assert not target.exists()


_NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?)(?![\w.])")
_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0,
                             5e-324, 1e-200, 1e200, 1e308])


def _fuzz(lo, hi, typical):
    """repr() of a float: anywhere in [lo, hi], in a typical range, or extreme."""
    return st.one_of(st.floats(lo, hi), st.floats(*typical), _EXTREMES).map(repr)


@settings(max_examples=100)
@given(length=_fuzz(2.0, 1e308, (2.0, 60.0)),
       sides=st.none() | st.tuples(_fuzz(1e-300, 1e300, (0.1, 100.0)),
                                   _fuzz(1e-300, 1e300, (0.1, 100.0))),
       alpha=_fuzz(1.0, 2.0, (1.05, 1.95)), verify=st.booleans())
def test_rect_argv_fuzz_exits_cleanly(length, sides, alpha, verify):
    argv = ["rect", f"--alpha={alpha}"]
    argv += [f"--length={length}"] if sides is None else ["--sides", *sides]
    if verify:
        argv += ["--verify", "--segments", "64"]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing a malformed argv
            code = exc.code
    assert code in (0, 2, 3)
    assert not caught
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 0:
        for line in out.getvalue().splitlines():
            # the infinite strip echoes its own length and placement ends
            if sides is None and math.isinf(float(length)) and line.startswith(
                    ("domain:", "placements:")):
                continue
            for token in _NUMBER.findall(line):
                assert math.isfinite(float(token)), line


@pytest.mark.parametrize("spec, message", [
    ({"primitive": "segment", "length": 1e308}, "length must be finite with magnitude"),
    ({"primitive": "circle", "radius": 1e200}, "radius must be finite with magnitude"),
    ({"primitive": "arc", "radius": 8, "angle": 1e200}, "angle must be finite with magnitude"),
    ({"primitive": "segment", "length": 0}, "length must be > 0, got 0.0"),
    ({"primitive": "segment", "length": -20}, "length must be > 0, got -20.0"),
    ({"primitive": "circle", "radius": -5}, "radius must be > 0, got -5.0"),
    ({"primitive": "circle", "radius": 0}, "radius must be > 0, got 0.0"),
    ({"primitive": "arc", "radius": -8, "angle": 1.2}, "radius must be > 0, got -8.0"),
])
def test_strip_names_an_out_of_range_curve_field(run, curve_file, spec, message):
    path = curve_file("bad.json", spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow would raise here
        code, out, err = run("strip", path, "--alpha", "1.5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: curve {message}")


@pytest.mark.parametrize("tails", [False, True], ids=["alone", "with_lines"])
@pytest.mark.parametrize("angle", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, math.pi])
def test_strip_refuses_every_unit_curvature_arc(run, curve_file, angle, tails):
    # on an arc of radius 1 the offset t = +1 collapses onto the centre, so
    # Psi is not injective; whether the collapsed offset crosses itself is
    # rounding, so the rule is checked before the boundary crossing
    pieces = [["arc", 1.0, angle]]
    if tails:
        pieces = [["line", 8.0], *pieces, ["line", 8.0]]
    path = curve_file("unit.json", {"primitive": "path", "pieces": pieces})
    code, out, err = run("strip", path, "--alpha", "1.5")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: unit curvature: offset t=+1 collapses to a point at s = ")
    assert err.endswith(", so Psi is not injective (arcs of radius 1 are refused)\n")


def test_sampled_ellipse_passes_verify(run, curve_file):
    th = 2.0 * math.pi * np.arange(8192) / 8192
    path = curve_file("ellipse.json", {
        "samples": np.column_stack([7.0 * np.cos(th), 5.0 * np.sin(th)]).tolist(),
        "kind": "annulus"})
    code, out, _ = run("strip", path, "--alpha", "1.5", "--verify")
    assert code == 0
    gap = next(ln for ln in out.splitlines() if ln.startswith("gap_rel:"))
    assert float(gap.split(":")[1]) < 1e-7


@pytest.mark.parametrize("alpha, target", [("1.05", "350.094384"), ("1.5", "42.411501")])
def test_strip_refuses_an_unbounded_spine_shorter_than_its_window(run, curve_file,
                                                                  alpha, target):
    path = curve_file("short.json", {"primitive": "path", "kind": "infinite", "pieces": [
        ["line", 8.0], ["arc", 3.4, 2.8], ["line", 8.0]]})
    code, out, err = run("strip", path, "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert err == (f"error: infinite spine of length 25.520000 is shorter than "
                   f"its truncation window {target}\n")


def test_infinite_straight_strip_checks_its_window(run, curve_file, tmp_path):
    # M(1.02) = 76.97 does not fit on the 64-long provisional segment, only on
    # the window the strip is classified on
    path = curve_file("line.json", {"primitive": "segment", "kind": "infinite"})
    svg = tmp_path / "line.svg"
    code, out, err = run("strip", path, "--alpha", "1.02", "--verify",
                         "--mc-samples", "4000", "--svg", svg)
    assert (code, err) == (0, "")
    assert "verify: PASS (tolerance 1e-06)" in out.splitlines()
    assert svg.exists()


def test_infinite_straight_path_is_stretched_to_its_window(run, curve_file):
    # a path of line pieces is straight: like a segment it is rebuilt on the
    # 42.41-long window instead of being refused as too short for it
    path = curve_file("line20.json", {"primitive": "path", "kind": "infinite",
                                      "pieces": [["line", 20.0]]})
    code, out, err = run("strip", path, "--alpha", "1.5", "--verify")
    assert (code, err) == (0, "")
    assert "verify: PASS (tolerance 1e-06)" in out.splitlines()


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.6, 0.8)])
def test_infinite_straight_sample_list_is_stretched_to_its_window(run, curve_file,
                                                                 direction):
    # 201 collinear samples 20 long: straight, so rebuilt on the 42.41-long
    # window like the segment, whose report it repeats after the domain line
    s = np.linspace(0.0, 20.0, 201)
    samples = [[float(x), float(y)] for x, y in zip(direction[0] * s, direction[1] * s)]
    path = curve_file("samples20.json", {"samples": samples, "kind": "infinite"})
    segment = curve_file("segment20.json", {"primitive": "segment", "length": 20.0,
                                            "kind": "infinite"})
    code, out, err = run("strip", path, "--alpha", "1.5", "--verify")
    assert (code, err) == (0, "")
    assert "verify: PASS (tolerance 1e-06)" in out.splitlines()
    _, expected, _ = run("strip", segment, "--alpha", "1.5", "--verify")
    assert out.splitlines()[1:] == expected.splitlines()[1:]


def test_strip_verifies_the_classified_window(run, curve_file, monkeypatch):
    seen = []
    original = cli.oracle_strip
    monkeypatch.setattr(cli, "oracle_strip",
                        lambda curve, *a, **k: seen.append(curve) or original(curve, *a, **k))
    path = curve_file("bent.json", {"primitive": "path", "kind": "semi_infinite", "pieces": [
        ["line", 30.0], ["arc", 3.0, 1.5], ["line", 60.0]]})
    code, out, _ = run("strip", path, "--alpha", "1.5", "--verify")
    assert code == 0
    target = next(ln for ln in out.splitlines() if ln.startswith("  truncation_target:"))
    assert [g12(c.length) for c in seen] == [target.split(": ")[1]]
    assert seen[0].length < 94.5


@pytest.mark.parametrize("radius", [5e7, 1e8])
def test_large_circle_is_closed_and_verifies(run, curve_file, radius):
    # the closure gap of its samples is rounding that grows with the length
    path = curve_file("circle.json", {"primitive": "circle", "radius": radius})
    code, out, err = run("strip", path, "--alpha", "1.5", "--verify")
    assert (code, err) == (0, "")
    assert "case: annulus_family" in out.splitlines()
    assert "verify: PASS (tolerance 1e-06)" in out.splitlines()


def test_short_annulus_missing_closure_is_refused(run, curve_file):
    half = ["arc", 1.5, math.pi]
    path = curve_file("open.json", {"primitive": "path", "kind": "annulus",
                                    "pieces": [["line", 10.0], half,
                                               ["line", 10.0 - 1e-7], half]})
    code, out, err = run("strip", path, "--alpha", "1.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: annulus spine not closed: position gap 1.000e-07")


def test_long_straight_spine_verifies(run, curve_file):
    # the oracle measures its substrip next to the origin, not near gamma(s0)
    path = curve_file("long.json", {"primitive": "segment", "length": 1e10})
    code, out, _ = run("strip", path, "--alpha", "1.5", "--verify")
    assert code == 0
    gap = next(ln for ln in out.splitlines() if ln.startswith("gap_rel:"))
    assert float(gap.split(":")[1]) < 1e-6


def test_far_straight_spine_verifies(run, curve_file):
    # about s = 5e10 arclength itself is quantized at 7.6e-6, so the oracle
    # anchors its substrip at the start of the widest feasible run
    path = curve_file("far.json", {"primitive": "segment", "length": 1e11})
    code, out, err = run("strip", path, "--alpha", "1.5", "--verify")
    assert (code, err) == (0, "")
    assert "verify: PASS (tolerance 1e-06)" in out.splitlines()


def test_cli_never_imports_scipy():
    # numpy is the one runtime dependency: scipy and mpmath would add to
    # start-up time and memory, so no code path may import them, the
    # sampled-curve spline included
    code = ("import sys; import alphacheeger.cli; "
            "from alphacheeger.curves import parse_curve; "
            "parse_curve({'samples': [[0, 0], [1, 0], [2, 1], [3, 3]]}); "
            "assert 'scipy' not in sys.modules, 'scipy imported'; "
            "assert 'mpmath' not in sys.modules, 'mpmath imported'")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_strip_validates_each_curve_once(run, curve_file, monkeypatch):
    from alphacheeger.curves import StripCurve
    calls = []
    original = StripCurve.validate
    monkeypatch.setattr(StripCurve, "validate",
                        lambda self: calls.append(self) or original(self))
    for spec in ({"primitive": "circle", "radius": 3.1},
                 {"primitive": "path",
                  "pieces": [["line", 6], ["arc", 1.6, math.pi], ["line", 4]]}):
        calls.clear()
        code, _, _ = run("strip", curve_file("c.json", spec), "--alpha", "1.5")
        assert code == 0
        assert len(calls) == 1


_CURVE_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0,
                                   5e-324, 1e-200, 1e200, 1e308])
# mostly plausible sizes, so that many specs reach the fit scan and oracle
_CURVE_NUMBERS = st.one_of(st.floats(2.0, 30.0), st.floats(0.5, 30.0),
                           _CURVE_EXTREMES, st.floats(-1e3, 1e3))
_CURVE_KINDS = st.sampled_from(["finite", "finite", "semi_infinite", "infinite",
                                "annulus", "bogus", None])
_PIECES = st.lists(st.one_of(
    st.tuples(st.just("line"), _CURVE_NUMBERS),
    st.tuples(st.just("arc"), _CURVE_NUMBERS, st.floats(-3.0, 3.0) | _CURVE_NUMBERS),
    st.tuples(st.sampled_from(["arc", "spiral"]), _CURVE_NUMBERS)), max_size=4)
_SAMPLES = st.one_of(
    st.lists(st.tuples(_CURVE_NUMBERS, _CURVE_NUMBERS), max_size=10),
    st.lists(st.tuples(st.floats(0.5, 30.0), st.floats(0.5, 30.0)), min_size=1,
             max_size=3).map(lambda pts: pts * 3))  # duplicated points
_VALID_KINDS = st.sampled_from(["finite", "semi_infinite", "infinite"])
_PLAUSIBLE_CURVES = st.one_of(
    st.fixed_dictionaries({"primitive": st.just("circle"),
                           "radius": st.floats(2.3, 12.0)}),
    st.fixed_dictionaries({"primitive": st.just("segment"),
                           "length": st.floats(14.2, 60.0), "kind": _VALID_KINDS}),
    st.fixed_dictionaries({"primitive": st.just("path"), "kind": _VALID_KINDS,
                           "pieces": st.tuples(
                               st.tuples(st.just("line"), st.floats(7.5, 10.0)),
                               st.tuples(st.just("arc"), st.floats(1.05, 5.0),
                                         st.floats(-3.2, 3.2)),
                               st.tuples(st.just("line"), st.floats(7.5, 10.0)),
                           ).map(list)}))
_FUZZED_CURVES = st.one_of(
    st.fixed_dictionaries({"primitive": st.just("segment"), "length": _CURVE_NUMBERS,
                           "kind": _CURVE_KINDS}),
    st.fixed_dictionaries({"primitive": st.just("circle"), "radius": _CURVE_NUMBERS}),
    st.fixed_dictionaries({"primitive": st.just("arc"), "radius": _CURVE_NUMBERS,
                           "angle": st.floats(-3.0, 3.0) | _CURVE_NUMBERS}),
    st.fixed_dictionaries({"primitive": st.just("path"), "pieces": _PIECES,
                           "kind": _CURVE_KINDS}),
    st.fixed_dictionaries({"samples": _SAMPLES, "kind": _CURVE_KINDS}))


# ends 0.71 apart: the strip overlaps itself through its end at s = 0
OVERLAP_SPINE = {"primitive": "path", "pieces": [
    ["arc", 2.68, -2.18], ["arc", 2.47, -1.67], ["line", 5.61], ["arc", 1.28, -2.54],
    ["line", 4.89]]}


@pytest.mark.parametrize("alpha", ["1.07", "1.0704", "1.072"])
def test_strip_overlapping_through_an_end_is_refused(run, curve_file, alpha):
    path = curve_file("overlap.json", OVERLAP_SPINE)
    code, out, err = run("strip", path, "--alpha", alpha, "--verify")
    assert code == 2 and out == ""
    assert err == ("error: strip boundary self-intersects: offset t=-1 segment 2045 "
                   "crosses the end segment at s = 0\n")


def test_empty_case_ii_fit_exits_with_one_line(run, curve_file, monkeypatch):
    spine = {"primitive": "path", "pieces": [["line", 10], ["arc", 3, math.pi],
                                             ["line", 10]]}
    assert 20 + 3 * math.pi > m_of_alpha(1.5) + math.pi  # case (ii)
    monkeypatch.setattr(classifier, "fit_topped_substrip", lambda curve, m: FitResult(
        np.zeros(0), np.zeros(0, dtype=bool), 1.0))
    code, out, err = run("strip", curve_file("u.json", spine), "--alpha", "1.5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: no feasible substrip placement found")


def test_parser_is_built_once_and_reused_after_an_argv_error(run, capsys):
    argv = ["rect", "--length", "5", "--alpha", "1.5"]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    fresh = subprocess.run([sys.executable, "-m", "alphacheeger.cli", *argv],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(["rect", "--length", "5"])  # --alpha missing
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()
    assert run(*argv) == (0, fresh, "")


@settings(max_examples=60)
@example(spec=OVERLAP_SPINE, alpha="1.072", extra=())
@given(spec=_PLAUSIBLE_CURVES | _FUZZED_CURVES,
       alpha=st.one_of(st.floats(1.05, 1.95), st.floats(0.9, 2.1),
                       st.just(math.nan)).map(repr),
       extra=st.sampled_from([(), ("--verify", "--segments", "64"),
                              ("--mc-samples", "1000", "--mc-seed", "3")]))
def test_strip_fuzz_exits_cleanly(tmp_path_factory, spec, alpha, extra):
    path = tmp_path_factory.mktemp("fuzz") / "curve.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(["strip", str(path), f"--alpha={alpha}", *extra])
        except SystemExit as exc:  # argparse refusing a malformed argv
            code = exc.code
    assert code in (0, 2, 3)
    assert not caught
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 0:
        for line in out.getvalue().splitlines():
            # the infinite straight strip reports its own length and the
            # unbounded placement interval
            if spec.get("kind") == "infinite" and line.startswith(
                    ("placements:", "  length:", "  placement_interval_length:")):
                continue
            for token in _NUMBER.findall(line):
                assert math.isfinite(float(token)), line
