"""Smoke tests of the scripts: each runs in a fresh interpreter on a small
input and must exit 0. They catch a script left behind by a moved name."""

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


def test_seabirds_case_study():
    out = run_script("seabirds_case_study.py", "--m", "100", "--b1", "20", "--b2", "5")
    assert "hellinger correlation" in out and "p-value (100 null replicates)" in out
