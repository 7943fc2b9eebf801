"""Smoke tests of the scripts: each runs in a fresh interpreter on a small
input and must exit 0. They catch a script left behind by a moved name."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_calibrate_scenarios():
    out = run_script("calibrate_scenarios.py", "2", "Circle")
    assert out.startswith("Circle") and "ref 0.839" in out


def test_seabirds_case_study():
    out = run_script("seabirds_case_study.py", "--m", "100", "--b1", "20", "--b2", "5")
    assert "hellinger correlation" in out and "p-value (100 null replicates)" in out


def test_run_simulations(tmp_path):
    out = run_script("run_simulations.py", "table1", "--out", str(tmp_path))
    assert out.split()[:2] == ["table1", "ok"]
    doc = json.loads((tmp_path / "table1_desk_seed7.json").read_text())
    assert doc["suite"] == "table1" and doc["all_pass"]
