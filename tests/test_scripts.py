"""The study scripts run end to end at small sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_replication_convergence_script():
    proc = _run("replication_convergence.py", "--paths", "50", "--steps", "40",
                "--levels", "2")
    assert proc.returncode == 0, proc.stderr
    # the summary closes the output as one JSON list
    summary = json.loads(proc.stdout[proc.stdout.index("\n[") + 1:])
    assert [row["n_steps"] for row in summary] == [20, 40]


def test_hedge_study_script():
    proc = _run("hedge_study.py", "--paths", "100", "--steps", "50")
    assert proc.returncode == 0, proc.stderr
    assert "E[L^H_T]" in proc.stdout
