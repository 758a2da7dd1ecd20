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


def test_bench_pairs_lists_the_counts_that_changed():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    metrics = [{"name": "psi.points", "unit": "count"}, {"name": "table.nodes", "unit": "count"},
               {"name": "psi.s", "unit": "s"}]
    same = {"psi.points": 10, "table.nodes": 7, "psi.s": 0.5}
    medians = {"parent": same, "change": dict(same, **{"psi.s": 0.4})}
    assert bench_pairs.counts_changed(medians, metrics) == []
    medians["change"]["table.nodes"] = 8
    assert bench_pairs.counts_changed(medians, metrics) == ["table.nodes"]
