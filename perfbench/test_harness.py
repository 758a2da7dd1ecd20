"""Tests of the benchmark's own machinery: checks and their negative
controls, the layer wrappers and the refusal to run without sources."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import levyrep
import tracing
from tracing import MissingTarget, Tracer
from workloads import Checks

HERE = Path(__file__).resolve().parent


def test_checks_record_rejected_output_and_accepted_control():
    ck = Checks()
    ck.near("good", 1.0, 1.0 + 1e-9)
    ck.near("bad", 1.0, 1.1)
    ck.expect("blind", lambda v: True, 1.0, 2.0)
    ck.within_se("mc", 0.51, 0.5, 0.01, 0.9)
    assert ck.passed == 2
    assert [f.split(":")[0] for f in ck.failures] == ["bad", "blind"]


def test_wrappers_restore_originals_and_count():
    model = levyrep.MertonModel(sigma=0.2)
    originals = {(o, n): vars(o).get(n) for o, n, _, _ in tracing.targets()}
    tr = Tracer()
    tr.section = "test"
    with tr.installed():
        assert "psi" in vars(levyrep.MertonModel)
        model.psi(1.0 + 0j)
    assert "psi" not in vars(levyrep.MertonModel)
    assert {(o, n): vars(o).get(n) for o, n, _, _ in tracing.targets()} == originals
    assert tr.counts["psi.calls"] == 1
    assert tr.self_s["test", "models"] > 0.0


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.delattr(levyrep.hedging, "hedge_components_batch")
    with pytest.raises(MissingTarget, match="hedge_components_batch"):
        with Tracer().installed():
            pass
    # the targets wrapped before the missing one are restored
    assert not hasattr(levyrep.fourier.make_multi_table, "__wrapped__")


def test_self_times_add_up_to_root_span():
    tr = Tracer()
    tr.section = "s"

    def inner():
        return sum(range(10_000))

    def outer():
        return tr.span("child", inner)[0] + 1

    _, total = tr.span("root", outer)
    assert sum(tr.self_s.values()) == pytest.approx(total, rel=1e-9)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
