"""Seeded task generators for the three benchmark workloads.

A task is the argv of one ``alphacheeger`` command plus the curve file it
reads, if any.  The program only ever sees argv and the generated files.

Each workload is a cycle of slots.  A slot fixes the command shape and the
case it is meant to reach, and draws its parameters from a narrow stratum
of the ranges the benchmark covers, so every cycle has the same mix of
cases and costs.  A run executes whole cycles; the seed moves parameters
inside their strata, never the mix.  The case a slot aims at is computed
here from the paper's closed-form case boundaries, written out
independently of the package.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

MIN_SPINE_LENGTH = 4.5 * math.pi
ELLIPSE_POINTS = 8192
MC_SAMPLES = 4000


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    slot: str
    verify: bool
    curve: dict | None = None  # the curve file's JSON, for strip tasks


def m_of_alpha(a: float) -> float:
    """Optimal stadium length M(alpha) = (pi/2)(2 - alpha)/(alpha - 1)."""
    return 0.5 * math.pi * (2.0 - a) / (a - 1.0)


def alpha_of_m(m: float) -> float:
    """Inverse of m_of_alpha."""
    return (m + math.pi) / (m + 0.5 * math.pi)


def _alpha_text(a: float) -> str:
    return f"{a:.6f}"


def _path_length(pieces: list) -> float:
    return sum(p[1] if p[0] == "line" else p[1] * abs(p[2]) for p in pieces)


# ---------------------------------------------------------------------------
# Spine slots.  Each returns (curve spec, alpha) for one stratum.

def _circle_family(rng: random.Random, r_lo: float, r_hi: float):
    return ({"primitive": "circle", "radius": round(rng.uniform(r_lo, r_hi), 6)},
            rng.uniform(1.4, 1.9))


def _circle_whole(rng: random.Random, r_lo: float, r_hi: float):
    # M = 0.6-0.8 L: the fit scan finds placements and the ratio comparison
    # picks the whole annulus (2L)^(1-1/alpha) over the substrip family
    radius = round(rng.uniform(r_lo, r_hi), 6)
    length = 2.0 * math.pi * radius
    alpha = alpha_of_m(length * rng.uniform(0.6, 0.8))
    m = m_of_alpha(alpha)
    h_family = (2.0 * m + 2.0 * math.pi) / (2.0 * m + math.pi) ** (1.0 / alpha)
    if not h_family > (2.0 * length) ** (1.0 - 1.0 / alpha):
        raise AssertionError(f"circle R={radius} alpha={alpha}: whole annulus does not win")
    return {"primitive": "circle", "radius": radius}, alpha


def _ellipse_family(rng: random.Random):
    a = rng.uniform(6.0, 7.0)
    b = a * rng.uniform(0.75, 0.9)
    th = [2.0 * math.pi * k / ELLIPSE_POINTS for k in range(ELLIPSE_POINTS)]
    samples = [[round(a * math.cos(t), 12), round(b * math.sin(t), 12)] for t in th]
    return {"samples": samples, "kind": "annulus"}, rng.uniform(1.4, 1.9)


def _u_case_ii(rng: random.Random):
    pieces = [["line", round(rng.uniform(5.0, 7.0), 6)],
              ["arc", round(rng.uniform(1.5, 2.0), 6), math.pi],
              ["line", round(rng.uniform(4.0, 6.0), 6)]]
    return {"primitive": "path", "pieces": pieces}, rng.uniform(1.3, 1.9)


def _case_i(rng: random.Random, pieces: list):
    # L < M + 2: M drawn a safe distance beyond L - 2
    length = _path_length(pieces)
    return ({"primitive": "path", "pieces": pieces},
            alpha_of_m(length - 2.0 + rng.uniform(1.0, 6.0)))


def _s_case_i(rng: random.Random):
    r = round(rng.uniform(3.0, 5.0), 6)
    ang = round(rng.uniform(0.8, 1.2), 6)
    pieces = [["arc", r, ang], ["line", round(rng.uniform(6.0, 9.0), 6)], ["arc", r, -ang]]
    if _path_length(pieces) < MIN_SPINE_LENGTH + 0.5:
        pieces[1][1] = round(pieces[1][1] + MIN_SPINE_LENGTH + 0.5
                             - _path_length(pieces), 6)
    return _case_i(rng, pieces)


def _hook_pieces(rng: random.Random, r_lo: float, r_hi: float):
    # two hooks bent the same way around a straight middle, as in the
    # package's own hook/gentle fixtures (arc length 1.05 * 1.71 each)
    r = round(rng.uniform(r_lo, r_hi), 6)
    ang = round(1.05 * 1.71 / r, 6)
    return [["arc", r, ang], ["line", round(rng.uniform(10.7, 11.5), 6)], ["arc", r, ang]]


def _case_iii(rng: random.Random, pieces: list, lo: float, hi: float):
    # M + 2 <= L <= M + pi: L - M = 2 + u (pi - 2) with u in [lo, hi]
    length = _path_length(pieces)
    m = length - 2.0 - rng.uniform(lo, hi) * (math.pi - 2.0)
    return {"primitive": "path", "pieces": pieces}, alpha_of_m(m)


def _hook_case_iii(rng: random.Random):
    # tight hooks leave the caps no placement when L - M < 2.45: cut corners
    return _case_iii(rng, _hook_pieces(rng, 1.05, 1.12), 0.08, 0.35)


def _gentle_case_iii(rng: random.Random):
    # the same spine bent at radius 6-8 admits the caps: a substrip family
    return _case_iii(rng, _hook_pieces(rng, 6.0, 8.0), 0.45, 0.8)


def _straight_finite(rng: random.Random):
    return ({"primitive": "segment", "length": round(rng.uniform(15.0, 40.0), 6)},
            rng.uniform(1.05, 1.95))


def _straight_infinite(rng: random.Random):
    return {"primitive": "segment", "kind": "infinite"}, rng.uniform(1.05, 1.95)


STRIP_CLASSIFY_SLOTS = (
    ("circle_family_small", lambda r: _circle_family(r, 3.0, 3.5)),
    ("circle_whole", lambda r: _circle_whole(r, 6.0, 7.0)),
    ("circle_family_large", lambda r: _circle_family(r, 8.0, 10.0)),
    ("ellipse_samples", _ellipse_family),
    ("u_case_ii", _u_case_ii),
    ("s_case_i", _s_case_i),
    ("hook_case_iii", _hook_case_iii),
    ("gentle_case_iii", _gentle_case_iii),
    ("straight_finite", _straight_finite),
    ("straight_infinite", _straight_infinite),
)

STRIP_VERIFY_SLOTS = (
    ("circle_family_small", lambda r: _circle_family(r, 3.0, 3.5)),
    ("circle_whole", lambda r: _circle_whole(r, 6.0, 7.0)),
    ("u_case_ii", _u_case_ii),
    ("s_case_i", _s_case_i),
    ("hook_case_iii", _hook_case_iii),
    ("gentle_case_iii", _gentle_case_iii),
    ("straight_finite", _straight_finite),
    ("straight_infinite", _straight_infinite),
)


# ---------------------------------------------------------------------------
# Workloads.

RECT_SLOTS = 8


def _rect_task(rng: random.Random, slot: int) -> Task:
    # log-uniform L on [2, 50], stratified over the slots
    lo = math.log(2.0) + (math.log(50.0) - math.log(2.0)) * slot / RECT_SLOTS
    hi = math.log(2.0) + (math.log(50.0) - math.log(2.0)) * (slot + 1) / RECT_SLOTS
    length = math.exp(rng.uniform(lo, hi))
    alpha = _alpha_text(rng.uniform(1.05, 1.95))
    if slot % 4 == 3:
        # raw sides: short side s, long side L s / 2, exercises the rescale path
        short = rng.uniform(0.5, 4.0)
        size = ["--sides", f"{short:.6f}", f"{length * short / 2.0:.6f}"]
        name = "rect_sides"
    else:
        size = ["--length", f"{length:.6f}"]
        name = "rect_length"
    return Task(("rect", *size, "--alpha", alpha, "--verify"), name, True)


class Workload:
    """The task cycles of one workload under one seed."""

    def __init__(self, name: str, seed: int, input_dir: str):
        self.name = name
        self.input_dir = input_dir
        # own stream per workload: strip_verify does not replay strip_classify
        self.rng = random.Random(f"{name}:{seed}")

    def cycle(self, index: int) -> list[Task]:
        if self.name == "rect_verify":
            return [_rect_task(self.rng, k) for k in range(RECT_SLOTS)]
        verify = self.name == "strip_verify"
        slots = STRIP_VERIFY_SLOTS if verify else STRIP_CLASSIFY_SLOTS
        tasks = []
        for k, (slot, make) in enumerate(slots):
            spec, alpha = make(self.rng)
            path = os.path.join(self.input_dir, f"c{index:03d}_{k:02d}_{slot}.json")
            argv = ["strip", path, "--alpha", _alpha_text(alpha)]
            if verify:
                argv += ["--verify", "--mc-samples", str(MC_SAMPLES),
                         "--mc-seed", str(self.rng.randrange(1 << 31))]
            tasks.append(Task(tuple(argv), slot, verify, spec))
        return tasks

    def tasks(self, cycles: int) -> list[Task]:
        return [t for i in range(cycles) for t in self.cycle(i)]


def write_inputs(tasks: list[Task]) -> None:
    """Write the curve file each strip task reads."""
    for task in tasks:
        if task.curve is not None:
            with open(task.argv[1], "w", encoding="utf-8") as fh:
                json.dump(task.curve, fh)


WORKLOADS = ("rect_verify", "strip_classify", "strip_verify")

# Seconds one cycle takes on the reference machine (2 cores, Python 3.11,
# numpy 2.4); --seconds / NOMINAL_CYCLE_S whole cycles make one run.
NOMINAL_CYCLE_S = {"rect_verify": 0.95, "strip_classify": 15.0, "strip_verify": 28.0}


def cycles_for(name: str, seconds: float) -> int:
    return max(1, int(round(seconds / NOMINAL_CYCLE_S[name])))
