"""Per-layer spans and work counters, installed by wrapping package functions.

Nothing here edits the package.  ``install`` replaces each wrapped function
in every ``alphacheeger`` namespace that binds it (``from ... import``
copies the binding into the importing module, so patching only the
defining module would miss those calls) and wraps ``StripCurve.validate``
on the class; ``uninstall`` puts the originals back.  A name the package
no longer defines is reported absent.

Each call records a span (name, start, end, parent, task id) in memory.  A
layer's self time is its spans' durations minus the time covered by their
direct children.  Counters come from the arguments and return values seen
at the wrapper, so they are deterministic for a given task list.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

ANALYTIC_FUNCTIONS = (
    "alpha_bar", "annulus_substrip_wins", "ball_ratio", "corner_radius",
    "cut_corner_area", "cut_corner_perimeter", "diameter_bound",
    "free_boundary_radius", "h_alpha_rectangle", "h_alpha_strip_limit",
    "m_of_alpha", "scale_constant", "stadium_area", "stadium_perimeter",
    "unit_ball_volume",
)


def _loop_edges(shape) -> int:
    return len(shape.vertices) + sum(len(h) for h in shape.holes)


def _segment_count(path, closed: bool) -> int:
    n = len(path)
    return n if closed else max(n - 1, 0)


def _pairs(args, kwargs) -> int:
    path_a = args[0] if args else kwargs["path_a"]
    path_b = args[1] if len(args) > 1 else kwargs.get("path_b")
    closed_a = args[2] if len(args) > 2 else kwargs.get("closed_a", False)
    closed_b = args[3] if len(args) > 3 else kwargs.get("closed_b", False)
    n_a = _segment_count(path_a, closed_a)
    n_b = n_a if path_b is None else _segment_count(path_b, closed_b)
    return n_a * n_b


def _point_edges(args, kwargs) -> int:
    shape = args[0] if args else kwargs["shape"]
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    return len(pts) * _loop_edges(shape)


def _fit_counts(result) -> dict[str, int]:
    anchors = len(result.candidates)
    return {"anchors": anchors, "feasible": int(result.feasible.sum()),
            "probe_points": anchors * 2 * int(result.cap_points)}


def _mc_samples(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["samples"])


# (metric prefix, defining module, attribute, counters from (args, kwargs),
#  counters from the return value).  Several attributes may share a prefix.
TARGETS = (
    ("cli.main", "cli", "main", None, None),
    ("classifier.classify_rectangle", "classifier", "classify_rectangle", None, None),
    ("classifier.classify_open_strip", "classifier", "classify_open_strip", None, None),
    ("classifier.classify_annulus", "classifier", "classify_annulus", None, None),
    *(("analytic", "analytic", fn, None, None) for fn in ANALYTIC_FUNCTIONS),
    ("oracle.oracle_rectangle", "oracle", "oracle_rectangle", None, None),
    ("oracle.oracle_strip", "oracle", "oracle_strip", None, None),
    ("oracle.golden_section_min", "oracle", "golden_section_min", None, None),
    ("oracle.monte_carlo_area", "oracle", "monte_carlo_area",
     lambda a, k: {"samples": _mc_samples(a, k)}, None),
    ("strips.fit_topped_substrip", "strips", "fit_topped_substrip", None, _fit_counts),
    ("strips.build_cut_corner_strip", "strips", "build_cut_corner_strip", None, None),
    ("strips.build_topped_substrip_on_curve", "strips",
     "build_topped_substrip_on_curve", None, None),
    ("strips.build_strip_polygon", "strips", "build_strip_polygon", None, None),
    ("curves.load_curve", "curves", "load_curve", None, None),
    ("curves.densify", "curves", "densify", None, None),
    ("geometry.build", "geometry", "build_cut_corner_rectangle", None,
     lambda r: {"vertices": _loop_edges(r)}),
    ("geometry.build", "geometry", "build_topped_substrip", None,
     lambda r: {"vertices": _loop_edges(r)}),
    ("geometry.measure", "geometry", "measure",
     lambda a, k: {"vertices": _loop_edges(a[0] if a else k["shape"])}, None),
    ("geometry.first_segment_intersection", "geometry", "first_segment_intersection",
     lambda a, k: {"pairs": _pairs(a, k)}, None),
    ("geometry.contains_points", "geometry", "contains_points",
     lambda a, k: {"point_edges": _point_edges(a, k)}, None),
)
VALIDATE_PREFIX = "curves.validate"

# The counters each prefix reports besides calls and self_s, in report order.
COUNTERS = defaultdict(tuple, {
    "oracle.golden_section_min": ("evals",),
    "oracle.monte_carlo_area": ("samples",),
    "strips.fit_topped_substrip": ("anchors", "feasible", "probe_points"),
    "curves.validate": ("distinct",),
    "geometry.build": ("vertices",),
    "geometry.measure": ("vertices",),
    "geometry.first_segment_intersection": ("pairs",),
    "geometry.contains_points": ("point_edges",),
})


def prefixes() -> list[str]:
    """Metric prefixes in layer order, each listed once."""
    out = [t[0] for t in TARGETS]
    out.insert(out.index("curves.densify"), VALIDATE_PREFIX)
    return list(dict.fromkeys(out))


class Tracer:
    """In-memory span and counter sink for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []      # [prefix, start, end, parent, task]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self.patched: dict[str, list[str]] = {}
        self.task = -1
        self._stack: list[int] = []
        self._validated: dict[int, object] = {}
        self._bindings: list[tuple] | None = None  # (owner, name, original, wrapped)

    # -- recording ---------------------------------------------------------

    def begin_task(self, task: int) -> None:
        self.task = task
        self._validated = {}

    def _call(self, prefix, fn, arg_counts, result_counts, args, kwargs):
        counts = self.counts[prefix]
        counts["calls"] += 1
        if arg_counts is not None:
            for key, value in arg_counts(args, kwargs).items():
                counts[key] += value
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [prefix, time.perf_counter(), 0.0, parent, self.task]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if result_counts is not None:
            for key, value in result_counts(result).items():
                counts[key] += value
        return result

    def wrap(self, prefix, fn, arg_counts=None, result_counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(prefix, fn, arg_counts, result_counts, args, kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def _find_bindings(self) -> None:
        """Wrap every target once and note each (namespace, name) binding it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "alphacheeger" or name.startswith("alphacheeger.")}
        for prefix, module, attr, arg_counts, result_counts in TARGETS:
            home = modules.get(f"alphacheeger.{module}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            if prefix == "oracle.golden_section_min":
                wrapped = self._wrap_golden(original)
            else:
                wrapped = self.wrap(prefix, original, arg_counts, result_counts)
            bound = []
            for name, mod in modules.items():
                for key, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, key, original, wrapped))
                        bound.append(f"{name}.{key}")
            self.patched[f"{module}.{attr}"] = sorted(bound)
        self._bind_validate(modules.get("alphacheeger.curves"))

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = []
            self._find_bindings()
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def _wrap_golden(self, original):
        # evals: every call of the objective handed to golden_section_min
        counts = self.counts["oracle.golden_section_min"]

        @functools.wraps(original)
        def traced(f, *args, **kwargs):
            def objective(x):
                counts["evals"] += 1
                return f(x)
            return self._call("oracle.golden_section_min", original, None, None,
                              (objective, *args), kwargs)
        return traced

    def _bind_validate(self, curves) -> None:
        cls = getattr(curves, "StripCurve", None)
        original = getattr(cls, "validate", None)
        if original is None:
            self.absent.append("curves.StripCurve.validate")
            return
        tracer = self

        def distinct(args, kwargs):
            curve = args[0]
            if id(curve) in tracer._validated:
                return {"distinct": 0}
            # hold the curve for the task so its id cannot be reused
            tracer._validated[id(curve)] = curve
            return {"distinct": 1}

        wrapped = self.wrap(VALIDATE_PREFIX, original, distinct)
        self._bindings.append((cls, "validate", original, wrapped))
        self.patched["curves.StripCurve.validate"] = ["alphacheeger.curves.StripCurve.validate"]

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for prefix, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (prefix, start, end, _, _) in enumerate(self.spans):
            out[prefix] += (end - start) - child[i]
        return out

    def is_absent(self, prefix: str) -> bool:
        if prefix == VALIDATE_PREFIX:
            return "curves.StripCurve.validate" in self.absent
        targets = [f"{m}.{a}" for p, m, a, _, _ in TARGETS if p == prefix]
        return all(t in self.absent for t in targets)

    def counters(self) -> dict[str, int]:
        """Deterministic counts, flattened as '<prefix>.<counter>'."""
        out = {}
        for prefix in prefixes():
            for key in ("calls", *COUNTERS[prefix]):
                out[f"{prefix}.{key}"] = int(self.counts[prefix][key])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"],
                       "spans": self.spans}, fh, separators=(",", ":"))
