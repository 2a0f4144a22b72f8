"""alphacheeger benchmark: seeded CLI workloads, output checks, per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rect_verify --seed 1 --seconds 30 --trace 0

One client drives ``alphacheeger.cli.main(argv)`` in process, closed loop:
the next task starts when the previous one returns, so at most the process's
own threads run (numpy may use up to ``nproc``).  ``--seconds`` sets the
amount of work: the whole task cycles (see workloads.py) that take about
that long on the reference machine.  Fixed work per seed keeps two runs of
one seed comparable task for task.

``--trace 0`` prints the end-to-end metrics of the untraced run.  ``--trace
1`` runs the same tasks untraced and then traced, and prints the per-layer
metrics; the spans are written to ``.perfbench_out/``.  ``--self-check``
runs ``--trace 1`` twice in fresh processes and compares work counters and
stdout digests, which must match exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 on a completed run, 1 on a
failed self-check, 2 when the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 3
H_RTOL = 1e-10
TAIL_BEYOND = 10

# Unset for the run: the first silently changes every default resolution,
# the second is read by the test suite only and is cleared to keep runs
# comparable with it unset.
PINNED_UNSET = ("ALPHACHEEGER_SEGMENTS", "ALPHACHEEGER_TEST_MODE")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s",
                    "task_tail_s": "s", "peak_rss_mb": "MB"}

# The sampled 7 x 5 ellipse annulus whose --verify gap sits just above the
# default 1e-6 tolerance.  Traced strip_verify runs execute it once, outside
# the timed tasks, and report its exit code and gap.
KNOWN_GAP_CASE = ("ellipse_7x5_8192pts", 7.0, 5.0, "1.500000")


# ---------------------------------------------------------------------------
# Environment.

def git_sha(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable (no .git or packed ref)"


def environment(root: str) -> dict:
    import mpmath
    import numpy
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "unset_for_run": list(PINNED_UNSET),
    }


# ---------------------------------------------------------------------------
# Running and checking one task.

def run_task(argv) -> tuple[object, str, str]:
    """(exit code or exception text, stdout, stderr) of one cli.main call."""
    cli = sys.modules["alphacheeger.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a task that raises is a failed task, not a crash
            code = "exception: " + traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue()


_NONFINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf)\b", re.IGNORECASE)
# The infinite straight strip is a translate family over the whole line:
# its length and placement interval print as inf by design.
_INF_SENTINEL_KEYS = ("placements:", "length:", "placement_interval_length:")


def _float_after(line: str) -> float:
    return float(line.split(":", 1)[1].split()[0])


def check_output(verify: bool, code, stdout: str) -> list[str]:
    """Program-independent checks of one task's output; [] when it passes."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code!r}")
    lines = stdout.splitlines()
    infinite_domain = bool(lines) and "infinite spine" in lines[0]
    for line in lines:
        for match in _NONFINITE.finditer(line):
            sentinel = (match.group(1).lower() == "inf" and infinite_domain
                        and line.strip().startswith(_INF_SENTINEL_KEYS))
            if not sentinel:
                problems.append(f"non-finite number in {line.strip()!r}")
    alpha = next((_float_after(ln) for ln in lines if ln.startswith("alpha: ")), None)
    blocks = []
    for line in lines:
        text = line.strip()
        if text.startswith("h_alpha:"):
            blocks.append({"h": _float_after(text)})
        elif blocks and text.startswith(("area:", "perimeter:")) and \
                text.split(":")[0] not in blocks[-1]:
            blocks[-1][text.split(":")[0]] = _float_after(text)
    if alpha is None or not blocks:
        problems.append("missing alpha or h_alpha line")
    for block in blocks:
        if "area" not in block or "perimeter" not in block:
            problems.append("h_alpha block without area and perimeter")
            continue
        expect = block["perimeter"] / block["area"] ** (1.0 / alpha)
        if not abs(block["h"] - expect) <= H_RTOL * abs(expect):
            problems.append(f"h_alpha {block['h']!r} != perimeter / area^(1/alpha) "
                            f"= {expect!r}")
    if not any(ln.startswith("case: ") for ln in lines):
        problems.append("missing case line")
    if verify and not any(ln.startswith("verify: PASS") for ln in lines):
        problems.append("no 'verify: PASS' line")
    return problems


def case_tag(stdout: str) -> str:
    """Case tag of one report, e.g. 'iii_cut', 'annulus_whole', 'rect_i'."""
    lines = stdout.splitlines()
    case_line = next((ln for ln in lines if ln.startswith("case: ")), None)
    if case_line is None:
        return "unknown"
    words = case_line.split()
    tag = words[1]
    branch = words[2].strip("()") if len(words) > 2 else ""
    if lines[0].startswith("domain: rectangle"):
        return f"rect_{branch}"
    if any(ln.startswith("  case_boundary:") for ln in lines):
        return "rect_delegation"
    if branch == "iii":
        return "iii_cut" if tag == "unique_cut_corners" else "iii_family"
    return branch or tag


class Pass:
    """Latencies, check results and stdout digest of a sequence of tasks."""

    def __init__(self):
        self.latencies: list[float] = []
        self.records: list[dict] = []
        self.digest = hashlib.sha256()

    def run(self, task) -> None:
        t0 = time.perf_counter()
        code, out, err = run_task(task.argv)
        self.latencies.append(time.perf_counter() - t0)
        self.digest.update(out.encode("utf-8"))
        self.records.append({"slot": task.slot, "argv": list(task.argv),
                             "latency_s": self.latencies[-1], "case": case_tag(out),
                             "problems": check_output(task.verify, code, out),
                             "stderr": err.strip()[-500:]})

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    @property
    def task_s(self) -> float:
        return sum(self.latencies)

    def by_case(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r["case"]] = counts.get(r["case"], 0) + 1
        return dict(sorted(counts.items()))


def timed_pass(tasks) -> tuple[Pass, float]:
    """The closed loop: (pass, wall seconds from first start to last end)."""
    run = Pass()
    start = time.perf_counter()
    for task in tasks:
        run.run(task)
    return run, time.perf_counter() - start


def paired_passes(tasks, tracer: tracing.Tracer) -> tuple[Pass, Pass]:
    """Each task untraced and traced back to back, alternating which goes
    first, so that the machine's speed drifts cancel out of the overhead."""
    untraced, traced = Pass(), Pass()
    for index, task in enumerate(tasks):
        for on in ((False, True) if index % 2 == 0 else (True, False)):
            if on:
                tracer.begin_task(index)
                tracer.install()
                traced.run(task)
                tracer.uninstall()
            else:
                untraced.run(task)
    return untraced, traced


# ---------------------------------------------------------------------------
# Set-up: fresh-process import, input generation, warm-up.

def fresh_import(root: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, "-c", "import alphacheeger.cli"], env=env,
                   cwd=root, check=True, timeout=120)


def warmup_tasks(workload: str, input_dir: str) -> list:
    """A few cheap tasks touching the same code paths as the timed ones."""
    source = workloads.Workload(workload, -1, input_dir)
    first = source.cycle(0)
    if workload == "rect_verify":
        return first
    return [t for t in first if t.slot == "straight_infinite"]


def setup(workload: str, seed: int, cycles: int, root: str) -> tuple[float, list, int]:
    """(seconds, timed task list, failed warm-up tasks)."""
    t0 = time.perf_counter()
    fresh_import(root)
    input_dir = os.path.join(OUT_DIR, f"inputs-{workload}-{seed}")
    warm_dir = os.path.join(OUT_DIR, f"inputs-{workload}-warmup")
    os.makedirs(input_dir, exist_ok=True)
    os.makedirs(warm_dir, exist_ok=True)
    tasks = workloads.Workload(workload, seed, input_dir).tasks(cycles)
    workloads.write_inputs(tasks)
    warm = warmup_tasks(workload, warm_dir)
    workloads.write_inputs(warm)
    warm_failed = timed_pass(warm)[0].failed
    return time.perf_counter() - t0, tasks, warm_failed


def known_gap_probe() -> dict:
    name, a, b, alpha = KNOWN_GAP_CASE
    th = [2.0 * math.pi * k / workloads.ELLIPSE_POINTS
          for k in range(workloads.ELLIPSE_POINTS)]
    path = os.path.join(OUT_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"samples": [[a * math.cos(t), b * math.sin(t)] for t in th],
                   "kind": "annulus"}, fh)
    code, out, _ = run_task(["strip", path, "--alpha", alpha, "--verify"])
    gap = next((ln.split(":", 1)[1].strip() for ln in out.splitlines()
                if ln.startswith("gap_rel:")), None)
    return {"case": name, "alpha": alpha, "exit_code": code, "gap_rel": gap}


# ---------------------------------------------------------------------------
# Metrics.

def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setups: list[float], run: Pass, wall_s: float) -> tuple[dict, dict]:
    latency_tail, pct = tail(run.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": (len(run.records) - run.failed) / wall_s,
        "task_p50_s": statistics.median(run.latencies),
        "task_tail_s": latency_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"tail_percentile": pct, "samples": len(run.latencies),
            "fail_frac": run.failed / len(run.records)}
    return values, info


def per_layer(tracer: tracing.Tracer, overhead_s: float) -> dict:
    self_s = tracer.self_times()
    counters = tracer.counters()
    out = {}
    for prefix in tracing.prefixes():
        absent = tracer.is_absent(prefix)
        for key in ("calls", *tracing.COUNTERS[prefix]):
            name = f"{prefix}.{key}"
            out[name] = (None if absent else counters[name], "count")
            if key == "feasible":
                anchors = counters[f"{prefix}.anchors"]
                out[f"{prefix}.feasible_ratio"] = (
                    None if absent else (counters[name] / anchors if anchors else 0.0),
                    "ratio")
        out[f"{prefix}.self_s"] = (None if absent else self_s.get(prefix, 0.0), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# ---------------------------------------------------------------------------
# Entry points.

def bench(args, root: str) -> int:
    import alphacheeger.cli  # noqa: F401  (cli.main is looked up per task)

    cycles = workloads.cycles_for(args.workload, args.seconds)
    setups, warm_failed = [], 0
    for _ in range(SETUP_REPEATS):
        seconds, tasks, failed = setup(args.workload, args.seed, cycles, root)
        setups.append(seconds)
        warm_failed += failed
    probe = known_gap_probe() if args.trace and args.workload == "strip_verify" else None

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "environment": environment(root),
        "setup_samples_s": setups, "warmup_failed": warm_failed,
        "known_gap_probe": probe,
        "waits": "none: one synchronous client, no layer queues or waits",
    }
    if args.trace:
        tracer = tracing.Tracer()
        untraced, result_pass = paired_passes(tasks, tracer)
        wall_s = untraced.task_s
        overhead = result_pass.task_s - untraced.task_s
        metrics = per_layer(tracer, overhead)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write_spans(spans_path)
        report.update({"traced_task_s": result_pass.task_s,
                       "traced_stdout_sha256": result_pass.digest.hexdigest(),
                       "counters": tracer.counters(), "absent": tracer.absent,
                       "patched": tracer.patched, "per_layer": metrics,
                       "spans_file": spans_path, "span_count": len(tracer.spans)})
    else:
        untraced, wall_s = timed_pass(tasks)
        result_pass = untraced
    values, info = end_to_end(setups, untraced, wall_s)
    if not args.trace:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    correct = (warm_failed == 0 and untraced.failed == 0 and result_pass.failed == 0
               and result_pass.digest.hexdigest() == untraced.digest.hexdigest())
    report.update({"end_to_end": values, **info, "untraced_wall_s": wall_s,
                   "stdout_sha256": untraced.digest.hexdigest(),
                   "by_case": untraced.by_case(), "tasks": untraced.records})

    report_path = os.path.join(
        OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} cycles={cycles} "
          f"tasks={len(tasks)} trace={args.trace} report={report_path}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    for tag, count in report["by_case"].items():
        print(f"tasks.by_case.{tag}: {count}")
    print(f"stdout_sha256: {report['stdout_sha256']}")
    print(f"fail_frac: {info['fail_frac']:.6g} ({untraced.failed} of "
          f"{len(untraced.records)})")
    print(f"task_tail_s: p{info['tail_percentile']:.4g} of {info['samples']} samples")
    for name, value in values.items():
        print(f"  {name}: {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"waits: {report['waits']}")
    if probe is not None:
        print(f"known_gap_probe: {json.dumps(probe)}")
    for r in untraced.records:
        for p in r["problems"]:
            print(f"task problem ({r['slot']}): {p}")
    if args.trace:
        for name in tracer.absent:
            print(f"absent: {name}")
        for name, (value, unit) in metrics.items():
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name}: {shown} {unit}")

    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(result_pass.records),
        "failed": result_pass.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def self_check(args, root: str) -> int:
    """Two fresh --trace 1 runs of one seed: counters and digests must match."""
    seen = []
    for _ in range(2):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL,
                       timeout=900)
        path = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace1.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        seen.append((report["counters"], report["stdout_sha256"],
                     report["traced_stdout_sha256"]))
    (c1, d1, t1), (c2, d2, t2) = seen
    diffs = [k for k in c1 if c1[k] != c2.get(k)]
    ok = not diffs and d1 == d2 == t1 == t2
    print(f"self-check {args.workload} seed={args.seed}: "
          f"{'PASS' if ok else 'FAIL'} ({len(c1)} counters, digest {d1})")
    for k in diffs:
        print(f"  counter {k}: {c1[k]} vs {c2.get(k)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run --trace 1 twice and compare counters and digests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "alphacheeger", "cli.py")):
        print("perfbench: no src/alphacheeger package in the current directory; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    for var in PINNED_UNSET:
        os.environ.pop(var, None)
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_check:
        return self_check(args, root)
    return bench(args, root)


if __name__ == "__main__":
    sys.exit(main())
