"""The demo scripts run end to end through the CLI and write their artifacts."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *argv],
                          env=env, capture_output=True, text=True)


def test_curved_domains_gallery_writes_its_figures(tmp_path):
    done = run_script("curved_domains_gallery.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name in ("rectangle_cut_corners.svg", "u_strip_family.svg", "hook_blocked.svg",
                 "gentle_admitted.svg", "ring_tie.svg"):
        assert (tmp_path / name).is_file(), name


def test_rectangle_phase_sweep_writes_its_csv(tmp_path):
    target = tmp_path / "x.csv"
    done = run_script("rectangle_phase_sweep.py", "--csv", str(target))
    assert done.returncode == 0, done.stderr
    assert target.read_text(encoding="utf-8").startswith("L,alpha,case,")
