"""Command-line front end over the classifier and the polygonal oracle.

Subcommands:
  rect    one rectangle, given as normalized length (half-width 1) or as raw
          side lengths via --sides
  strip   a spine curve file: open strip or generalized annulus
  sweep   a rectangle (length, alpha) grid, as an aligned table or CSV
  verify  oracle cross-check of the rectangle closed forms over a fixed grid

Exit codes: 0 success, 2 argument or validation error, 3 verification gap
above tolerance.  All numbers print with 12 significant digits and output is
a pure function of the arguments and input files (plus the Monte Carlo seed
where requested).  The polygonal resolution is --segments (at least 4,
default DEFAULT_SEGMENTS); on strip it sets the oracle, Monte Carlo and SVG
polygons only, since the strip classifiers build none.  On unbounded spines
--verify, --mc-samples and --svg act on the classified window
(classifier.spine_window), reported in the evidence as truncation_target.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys
from dataclasses import dataclass

from .analytic import (CaseError, CheegerSolution, Rectangle, SolutionKind,
                       scale_constant)
from .classifier import (StripClassification, classify_annulus,
                         classify_open_strip, classify_rectangle, spine_window)
from .curves import CurveKind, CurveValidationError, StripCurve, load_curve
from .geometry import (DEFAULT_SEGMENTS, PolyShape, build_cut_corner_rectangle,
                       build_topped_substrip, scale_shape, translate_shape)
from .oracle import (NonUnimodalError, monte_carlo_area, oracle_rectangle,
                     oracle_strip)
from .render import rectangle_outline, write_figure
from .strips import (build_cut_corner_strip, build_strip_polygon,
                     build_topped_substrip_on_curve)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

DEFAULT_VERIFY_RTOL = 1e-6

# Fixed resolutions for rendering; figures do not need measurement accuracy.
SVG_ARC_SEGMENTS = 256

# Containment tests cost samples x edges, so Monte Carlo shapes are built at
# a capped resolution; the polygon bias is far below the sampling noise.
MC_MAX_SEGMENTS = 2048

CSV_COLUMNS = ("L", "alpha", "case", "h_alpha", "radius_or_M", "area",
               "perimeter", "unique", "oracle_h", "gap")

VERIFY_GRID_ALPHAS = tuple(round(1.05 + 0.05 * k, 12) for k in range(19))
VERIFY_GRID_LENGTHS = (2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 50.0)


def _g(x: float) -> str:
    return format(float(x), ".12g")


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


@dataclass(frozen=True)
class SweepSpec:
    """A validated rectangle sweep grid."""

    alphas: tuple[float, ...]
    lengths: tuple[float, ...]
    verify: bool = False

    def __post_init__(self) -> None:
        if not self.alphas or not self.lengths:
            raise ValueError("sweep needs at least one alpha and one length")
        for a in self.alphas:
            if not (1.0 < a < 2.0):
                raise ValueError(f"alpha {a} outside the admissible band (1, 2)")
        for length in self.lengths:
            if not (length >= 2.0) or not math.isfinite(length):
                raise ValueError(f"sweep length must be a finite real >= 2, "
                                 f"got {length}")


def parse_value_list(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive stop) or a comma list of reals."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range spec must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise ValueError(f"range spec needs step > 0 and stop >= start, got {text!r}")
        out = []
        k = 0
        while True:
            value = start + k * step
            if value > stop + 1e-9 * step:
                break
            out.append(round(value, 12))
            k += 1
        return tuple(out)
    return tuple(float(p) for p in text.split(",") if p.strip())


# ---------------------------------------------------------------------------
# Report formatting.  The classification block is shared by rect and strip so
# a straight-spine strip reproduces the rectangle report byte for byte.

def _scaled(sol: CheegerSolution, scale: float,
            alpha: float) -> dict[str, object]:
    """Solution numbers mapped from the normalized frame to the user frame.

    A finite nonzero number that maps to a non-finite one, or below the
    smallest normal float, is refused: the user frame cannot hold it.
    """
    def checked(name: str, u: float, v: float) -> float:
        if (u != 0.0 and math.isfinite(u)
                and not sys.float_info.min <= abs(v) < math.inf):
            raise ValueError(f"the {name} {_g(u)} maps to {_g(v)} at scale "
                             f"factor {_g(scale)}, outside the finite normal "
                             f"floats")
        return v

    def length(name: str, x: float | None) -> float | None:
        return None if x is None else checked(name, x, x * scale)

    placements = sol.placements
    return {
        "h_alpha": checked("h_alpha", sol.h_alpha,
                           scale_constant(sol.h_alpha, scale, alpha)),
        "area": checked("area", sol.area, sol.area * scale * scale),
        "perimeter": length("perimeter", sol.perimeter),
        "radius": length("radius", sol.radius),
        "stadium_length": length("length M", sol.stadium_length),
        "placements": (None if placements is None
                       else (length("placement", placements[0]),
                             length("placement", placements[1]))),
    }


def solution_lines(sol: CheegerSolution, anchor_label: str, alpha: float,
                   scale: float = 1.0) -> list[str]:
    values = _scaled(sol, scale, alpha)
    lines = [f"h_alpha: {_g(values['h_alpha'])}"]
    if sol.kind is SolutionKind.CUT_CORNERS:
        lines.append(f"shape: cut-corner set, radius = {_g(values['radius'])}")
    elif sol.kind is SolutionKind.TOPPED_SUBSTRIP:
        lines.append(f"shape: capped substrip, length M = {_g(values['stadium_length'])}")
    else:
        lines.append("shape: whole domain")
    lines.append(f"area: {_g(values['area'])}")
    lines.append(f"perimeter: {_g(values['perimeter'])}")
    lines.append(f"unique: {_yes_no(sol.unique)}")
    if sol.kind is SolutionKind.WHOLE_DOMAIN:
        lines.append("placements: the whole domain")
    elif values["placements"] is None:
        lines.append("placements: single placement")
    else:
        lo, hi = values["placements"]
        lines.append(f"placements: {anchor_label} in [{_g(lo)}, {_g(hi)}]")
    return lines


def _anchor_label(cls: StripClassification) -> str:
    # Rectangle evidence carries "case_boundary"; fit-based strip and annulus
    # evidence carries "case_boundary_low"/"spine_length" instead.
    if "case_boundary" in cls.evidence:
        return "center abscissa"
    return "start anchor s0"


def classification_lines(cls: StripClassification, alpha: float,
                         scale: float = 1.0) -> list[str]:
    case = cls.evidence.get("case")
    suffix = f" ({case})" if case else ""
    lines = [f"case: {cls.case_tag.value}{suffix}"]
    lines += solution_lines(cls.solution, _anchor_label(cls), alpha, scale)
    if cls.alternate is not None:
        lines.append("tie alternate:")
        lines += ["  " + ln for ln in solution_lines(cls.alternate,
                                                     _anchor_label(cls),
                                                     alpha, scale)]
    return lines


def _evidence_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _g(value)
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_evidence_value(v) for v in value)
        return f"[{inner}]"
    return str(value)


def evidence_lines(cls: StripClassification) -> list[str]:
    lines = ["evidence:"]
    for key, value in cls.evidence.items():
        lines.append(f"  {key}: {_evidence_value(value)}")
    return lines


def _verify_lines(h: float, oracle_h: float, args,
                 scale: float = 1.0) -> tuple[list[str], int]:
    """The oracle block of rect and strip, in the user frame, and its exit code."""
    gap_rel = abs(oracle_h / h - 1.0)
    ok = gap_rel <= args.verify_tol
    lines = [f"oracle_h: {_g(scale_constant(oracle_h, scale, args.alpha))}",
             f"gap_abs: {_g(scale_constant(abs(oracle_h - h), scale, args.alpha))}",
             f"gap_rel: {_g(gap_rel)}",
             f"verify: {'PASS' if ok else 'FAIL'} "
             f"(tolerance {_g(args.verify_tol)})"]
    return lines, EXIT_OK if ok else EXIT_VERIFY


def _representative_anchors(lo: float, hi: float) -> list[float]:
    anchors = [lo, 0.5 * (lo + hi), hi]
    out: list[float] = []
    for s in anchors:
        if not any(abs(s - seen) <= 1e-12 for seen in out):
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# rect

def _resolve_rectangle_args(args) -> tuple[float, float]:
    """(normalized length, scale factor back to the user frame)."""
    if args.sides is not None:
        rect = Rectangle.from_sides(*args.sides)
        return rect.length, rect.scale_to_user
    return args.length, 1.0


def _rect_shape(length: float, sol: CheegerSolution, segments: int,
                center: float = 0.0) -> PolyShape:
    """The solution's shape; a capped substrip is centered at ``center``."""
    if sol.kind is SolutionKind.CUT_CORNERS:
        return build_cut_corner_rectangle(length, sol.radius, segments)
    return translate_shape(build_topped_substrip(sol.stadium_length, segments),
                           center, 0.0)


def _rect_svg(path: str, length: float, scale: float,
              cls: StripClassification) -> None:
    if math.isinf(length):
        raise ValueError("cannot render an infinite rectangle; "
                         "pass a finite length")
    sol = cls.solution
    if sol.kind is SolutionKind.CUT_CORNERS:
        solutions = [(_rect_shape(length, sol, SVG_ARC_SEGMENTS),
                      f"cut-corners-r-{_g(sol.radius)}")]
    else:
        solutions = [(_rect_shape(length, sol, SVG_ARC_SEGMENTS, c),
                      f"substrip-at-{_g(c)}")
                     for c in _representative_anchors(*sol.placements)]
    outline = rectangle_outline(length)
    if scale != 1.0:
        outline = outline * scale
        solutions = [(scale_shape(s, scale), lbl) for s, lbl in solutions]
    write_figure(path, [outline], solutions,
                 f"rectangle L={_g(length)}, {cls.case_tag.value}")


def _mc_lines(shape: PolyShape, samples: int, seed: int,
              scale: float) -> list[str]:
    estimate, sigma = monte_carlo_area(shape, samples, seed)
    estimate *= scale * scale
    sigma *= scale * scale
    return [f"monte_carlo: area = {_g(estimate)} +- {_g(sigma)} "
            f"(n={samples}, seed={seed})"]


def cmd_rect(args) -> int:
    length, scale = _resolve_rectangle_args(args)
    cls = classify_rectangle(length, args.alpha)

    lines = [f"domain: rectangle L = {_g(length)} (normalized, half-width 1)"]
    if scale != 1.0:
        a_side, b_side = args.sides
        lines.append(f"sides: {_g(a_side)} x {_g(b_side)} "
                     f"(scale factor {_g(scale)})")
    lines.append(f"alpha: {_g(args.alpha)}")
    try:
        lines += classification_lines(cls, args.alpha, scale)
    except ValueError as exc:
        raise ValueError(f"rectangle {_g(args.sides[0])} x "
                         f"{_g(args.sides[1])}: {exc}") from None

    if args.mc_samples:
        shape = _rect_shape(length, cls.solution,
                            min(args.segments, MC_MAX_SEGMENTS))
        lines += _mc_lines(shape, args.mc_samples, args.mc_seed, scale)

    code = EXIT_OK
    if args.verify:
        if math.isinf(length):
            raise ValueError("cannot verify the infinite rectangle against "
                             "the polygonal oracle; pass a finite length")
        oracle = oracle_rectangle(length, args.alpha, segments=args.segments)
        gap, code = _verify_lines(cls.solution.h_alpha, oracle.h_alpha, args, scale)
        lines += gap

    if args.svg:
        _rect_svg(args.svg, length, scale, cls)
        lines.append(f"svg: wrote {args.svg}")

    print("\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# strip

def _strip_anchor_interval(cls: StripClassification,
                           curve: StripCurve) -> tuple[float, float]:
    """Placement interval as start anchors s0 on the drawable spine window."""
    lo, hi = cls.solution.placements
    m = cls.solution.stadium_length
    if "case_boundary" in cls.evidence:
        # delegated rectangle frame: center abscissa -> start anchor
        shift = (curve.length - m) / 2.0
        lo, hi = lo + shift, hi + shift
    lo = max(lo, 1.0) if math.isinf(cls.solution.placements[0]) else lo
    hi = min(hi, curve.length - m - 1.0) if math.isinf(cls.solution.placements[1]) else hi
    return lo, hi


def _strip_shape(curve: StripCurve, cls: StripClassification, segments: int,
                 s0: float | None = None) -> PolyShape:
    """The solution's shape on the spine window; a capped substrip starts at
    anchor ``s0``, by default the middle of its placement interval."""
    sol = cls.solution
    if sol.kind is SolutionKind.CUT_CORNERS:
        return build_cut_corner_strip(curve, sol.radius, segments)
    if sol.kind is SolutionKind.TOPPED_SUBSTRIP:
        if s0 is None:
            lo, hi = _strip_anchor_interval(cls, curve)
            s0 = 0.5 * (lo + hi)
        return build_topped_substrip_on_curve(curve, s0, sol.stadium_length,
                                              segments)
    return build_strip_polygon(curve)


def _strip_svg(path: str, curve: StripCurve, cls: StripClassification) -> None:
    domain = build_strip_polygon(curve)
    loops = [domain.vertices, *domain.holes]
    sol = cls.solution
    if sol.kind is SolutionKind.CUT_CORNERS:
        solutions = [(_strip_shape(curve, cls, SVG_ARC_SEGMENTS),
                      f"cut-corners-r-{_g(sol.radius)}")]
    elif sol.kind is SolutionKind.TOPPED_SUBSTRIP:
        lo, hi = _strip_anchor_interval(cls, curve)
        if (curve.kind is CurveKind.ANNULUS
                and hi - lo >= curve.length * (1.0 - 1e-12)):
            # anchors 0 and L coincide on a closed spine; spread thirds instead
            anchors = [lo + (hi - lo) * f for f in (0.0, 1.0 / 3.0, 2.0 / 3.0)]
        else:
            anchors = _representative_anchors(lo, hi)
        solutions = [(_strip_shape(curve, cls, SVG_ARC_SEGMENTS, s0),
                      f"substrip-at-{_g(s0)}") for s0 in anchors]
    else:
        solutions = [(domain, "whole-domain")]
    if cls.alternate is not None and cls.alternate.kind is SolutionKind.WHOLE_DOMAIN:
        solutions.append((domain, "whole-domain-tie"))

    write_figure(path, loops, solutions,
                 f"{curve.kind.value} spine, {cls.case_tag.value}")


def cmd_strip(args) -> int:
    curve = load_curve(args.curve)
    lines = [f"domain: {curve.kind.value} spine, length {_g(curve.length)} "
             f"(file {args.curve})",
             f"alpha: {_g(args.alpha)}"]

    if curve.kind is CurveKind.ANNULUS:
        cls = classify_annulus(curve, args.alpha)
    else:
        cls = classify_open_strip(curve, args.alpha)
    lines += classification_lines(cls, args.alpha)
    lines += evidence_lines(cls)

    # Monte Carlo, oracle and figure act on the window that was classified; the
    # report alone needs none (a straight infinite spine is classified exactly)
    if args.mc_samples or args.verify or args.svg:
        curve = spine_window(curve, args.alpha)

    if args.mc_samples:
        shape = _strip_shape(curve, cls, min(args.segments, MC_MAX_SEGMENTS))
        lines += _mc_lines(shape, args.mc_samples, args.mc_seed, 1.0)

    code = EXIT_OK
    if args.verify:
        oracle = oracle_strip(curve, args.alpha, segments=args.segments)
        gap, code = _verify_lines(cls.solution.h_alpha, oracle.h_alpha, args)
        lines += gap

    if args.svg:
        _strip_svg(args.svg, curve, cls)
        lines.append(f"svg: wrote {args.svg}")

    print("\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# sweep

def _sweep_rows(spec: SweepSpec, segments: int) -> tuple[list[list[str]], float]:
    rows: list[list[str]] = []
    worst_gap = 0.0
    for length in sorted(spec.lengths):
        for alpha in sorted(spec.alphas):
            cls = classify_rectangle(length, alpha)
            sol = cls.solution
            radius_or_m = (sol.radius if sol.kind is SolutionKind.CUT_CORNERS
                           else sol.stadium_length)
            oracle_h = gap = ""
            if spec.verify:
                oracle = oracle_rectangle(length, alpha, segments=segments)
                rel = abs(oracle.h_alpha / sol.h_alpha - 1.0)
                worst_gap = max(worst_gap, rel)
                oracle_h = _g(oracle.h_alpha)
                gap = _g(rel)
            rows.append([_g(length), _g(alpha), cls.case_tag.value,
                         _g(sol.h_alpha), _g(radius_or_m), _g(sol.area),
                         _g(sol.perimeter), "true" if sol.unique else "false",
                         oracle_h, gap])
    return rows, worst_gap


def cmd_sweep(args) -> int:
    spec = SweepSpec(alphas=parse_value_list(args.alphas),
                     lengths=parse_value_list(args.lengths),
                     verify=args.verify)
    rows, worst_gap = _sweep_rows(spec, args.segments)

    if args.csv:
        to_file = args.csv != "-"
        with (open(args.csv, "w", newline="", encoding="utf-8") if to_file
              else contextlib.nullcontext(sys.stdout)) as fh:
            csv.writer(fh, lineterminator="\n").writerows([CSV_COLUMNS, *rows])
        if to_file:
            print(f"csv: wrote {len(rows)} rows to {args.csv}")
    else:
        widths = [max(len(CSV_COLUMNS[i]), max(len(r[i]) for r in rows))
                  for i in range(len(CSV_COLUMNS))]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(CSV_COLUMNS))
        print(header.rstrip())
        for row in rows:
            print("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip())

    if spec.verify:
        ok = worst_gap <= args.verify_tol
        print(f"max_gap_rel: {_g(worst_gap)}")
        print(f"verify: {'PASS' if ok else 'FAIL'} (tolerance {_g(args.verify_tol)})")
        if not ok:
            return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    worst_gap = 0.0
    mismatches: list[str] = []
    for length in VERIFY_GRID_LENGTHS:
        row_worst = 0.0
        for alpha in VERIFY_GRID_ALPHAS:
            cls = classify_rectangle(length, alpha)
            oracle = oracle_rectangle(length, alpha, segments=args.segments)
            rel = abs(oracle.h_alpha / cls.solution.h_alpha - 1.0)
            row_worst = max(row_worst, rel)
            if oracle.kind is not cls.solution.kind:
                mismatches.append(f"L={_g(length)} alpha={_g(alpha)}: "
                                  f"oracle {oracle.kind.value} vs "
                                  f"classifier {cls.solution.kind.value}")
        worst_gap = max(worst_gap, row_worst)
        print(f"L={_g(length)}: max_gap_rel {_g(row_worst)} over "
              f"{len(VERIFY_GRID_ALPHAS)} alphas")
    for line in mismatches:
        print(f"family mismatch: {line}")
    ok = worst_gap <= args.verify_tol and not mismatches
    print(f"max_gap_rel: {_g(worst_gap)}")
    print(f"verify: {'PASS' if ok else 'FAIL'} (tolerance {_g(args.verify_tol)}, "
          f"segments {args.segments})")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphacheeger",
        description="Generalized Cheeger constants and sets of rectangles, "
                    "strips and generalized annuli.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, verify_help: str) -> None:
        p.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS,
                       help=f"polygon edges per arc, >= 4 (default {DEFAULT_SEGMENTS})")
        p.add_argument("--verify", action="store_true", help=verify_help)
        p.add_argument("--verify-tol", type=float, default=DEFAULT_VERIFY_RTOL,
                       help="relative tolerance for --verify "
                            f"(default {DEFAULT_VERIFY_RTOL:g})")

    rect = sub.add_parser("rect", help="classify one rectangle")
    size = rect.add_mutually_exclusive_group(required=True)
    size.add_argument("--length", type=float,
                      help="normalized length L >= 2 (half-width 1); "
                           "'inf' for the infinite strip")
    size.add_argument("--sides", nargs=2, type=float, metavar=("A", "B"),
                      help="raw side lengths, normalized internally")
    rect.add_argument("--alpha", type=float, required=True)
    add_common(rect, "cross-check against the polygonal oracle")
    rect.add_argument("--svg", metavar="PATH", help="write an SVG figure")
    rect.add_argument("--mc-samples", type=int, default=0,
                      help="Monte Carlo area check with this many samples")
    rect.add_argument("--mc-seed", type=int, default=0)
    rect.set_defaults(func=cmd_rect)

    strip = sub.add_parser("strip", help="classify a spine curve file")
    strip.add_argument("curve", help="JSON curve file (see README)")
    strip.add_argument("--alpha", type=float, required=True)
    add_common(strip, "cross-check against the polygonal oracle")
    strip.add_argument("--svg", metavar="PATH", help="write an SVG figure")
    strip.add_argument("--mc-samples", type=int, default=0)
    strip.add_argument("--mc-seed", type=int, default=0)
    strip.set_defaults(func=cmd_strip)

    sweep = sub.add_parser("sweep", help="rectangle grid sweep")
    sweep.add_argument("--alphas", required=True,
                       help="comma list or start:stop:step")
    sweep.add_argument("--lengths", required=True,
                       help="comma list or start:stop:step")
    sweep.add_argument("--csv", metavar="PATH",
                       help="write CSV here instead of a table ('-' = stdout)")
    add_common(sweep, "add oracle columns and check gaps")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify",
                            help="oracle cross-check over the fixed grid")
    verify.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS)
    verify.add_argument("--verify-tol", type=float, default=DEFAULT_VERIFY_RTOL)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.segments < 4:
            raise ValueError(f"--segments must be >= 4, got {args.segments}")
        return args.func(args)
    except CurveValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, CaseError, NonUnimodalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
