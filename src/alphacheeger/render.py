"""Deterministic SVG 1.1 emitter for domains and their Cheeger sets.

The drawing model is deliberately small: a figure is the domain outline
(stroked, unfilled) plus one translucent filled path per reported solution
placement.  Coordinates are emitted with fixed precision so identical inputs
produce identical bytes; the y axis is flipped once globally because SVG
grows downward.
"""

from __future__ import annotations

import math
from xml.etree import ElementTree as ET

import numpy as np

from .geometry import PolyShape

DOMAIN_STYLE = "fill:none;stroke:#333333;stroke-width:0.04"
SOLUTION_FILLS = ("#4c72b0", "#dd8452", "#55a868", "#c44e52")
SOLUTION_OPACITY = "0.45"
MARGIN_FRACTION = 0.06


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _loop_to_path(loop: np.ndarray) -> str:
    pts = np.asarray(loop, dtype=float)
    head = f"M {_fmt(pts[0, 0])} {_fmt(-pts[0, 1])}"
    body = " ".join(f"L {_fmt(x)} {_fmt(-y)}" for x, y in pts[1:])
    return f"{head} {body} Z"


def shape_path_data(shape: PolyShape) -> str:
    """SVG path data for a PolyShape, holes as extra subpaths (evenodd)."""
    parts = [_loop_to_path(shape.vertices)]
    parts.extend(_loop_to_path(hole) for hole in shape.holes)
    return " ".join(parts)


def _bounds(loops: list[np.ndarray]) -> tuple[float, float, float, float]:
    stacked = np.vstack([np.asarray(lp, dtype=float) for lp in loops])
    # Python floats overflow to inf silently, where numpy scalars would warn;
    # render_figure then refuses the non-finite view box.
    x_lo, y_lo = map(float, stacked.min(axis=0))
    x_hi, y_hi = map(float, stacked.max(axis=0))
    return x_lo, y_lo, x_hi, y_hi


def render_figure(domain_loops: list[np.ndarray],
                  solutions: list[tuple[PolyShape, str]],
                  title: str) -> str:
    """Serialize domain outline plus labeled solution shapes to SVG text.

    ``domain_loops`` are ordered vertex arrays (closed implicitly); each
    solution is (shape, label) and becomes its own filled path with the
    label attached both as a path id and a <title> child for hover text.
    Shapes too large for a finite view box and height raise ValueError.
    """
    all_loops = list(domain_loops)
    for shape, _ in solutions:
        all_loops.append(shape.vertices)
        all_loops.extend(shape.holes)
    x_lo, y_lo, x_hi, y_hi = _bounds(all_loops)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = MARGIN_FRACTION * span
    view = (x_lo - pad, -(y_hi + pad), (x_hi - x_lo) + 2 * pad,
            (y_hi - y_lo) + 2 * pad)
    height = 720.0 * view[3] / view[2]
    if not all(map(math.isfinite, (*view, height))):
        raise ValueError(f"cannot draw {title!r}: view box {view} and "
                         f"height {height} must be finite")

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "version": "1.1",
        "viewBox": " ".join(_fmt(v) for v in view),
        "width": "720",
        "height": _fmt(height),
    })
    title_el = ET.SubElement(svg, "title")
    title_el.text = title

    for i, (shape, label) in enumerate(solutions):
        path = ET.SubElement(svg, "path", {
            "id": label,
            "d": shape_path_data(shape),
            "fill-rule": "evenodd",
            "fill": SOLUTION_FILLS[i % len(SOLUTION_FILLS)],
            "fill-opacity": SOLUTION_OPACITY,
            "stroke": "none",
        })
        hover = ET.SubElement(path, "title")
        hover.text = label

    for i, loop in enumerate(domain_loops):
        ET.SubElement(svg, "path", {
            "id": f"domain-{i}",
            "d": _loop_to_path(loop),
            "style": DOMAIN_STYLE,
        })

    ET.indent(svg)
    return ET.tostring(svg, encoding="unicode", xml_declaration=True) + "\n"


def write_figure(path: str, domain_loops: list[np.ndarray],
                 solutions: list[tuple[PolyShape, str]], title: str) -> None:
    text = render_figure(domain_loops, solutions, title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def rectangle_outline(length: float) -> np.ndarray:
    """Corner loop of R_L = (-L/2, L/2) x (-1, 1)."""
    if math.isinf(length):
        raise ValueError("cannot outline an infinite rectangle")
    hx = length / 2.0
    return np.array([[-hx, -1.0], [hx, -1.0], [hx, 1.0], [-hx, 1.0]])
