"""Command-line front end: dispatch, artifacts, exit codes."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import __version__
from levyrep.cli import config_hash, main

MERTON_CFG = {
    "model": {"kind": "merton", "x0": 0.0, "mu": -0.1, "sigma": 0.2,
              "params": {"gamma": 1.0, "m": -0.1, "delta": 0.3}},
    "market": {"r": 0.02, "T": 1.0, "K": 1.0},
    "payoff": {"kind": "digital", "strike_level": -0.02, "alpha": 1.0},
    "grid": {"alpha": 1.0},
    "T": 1.0,
}

VG_CFG = {
    "model": {"kind": "vg", "x0": 0.0, "mu": -0.05, "sigma": 0.0,
              "params": {"C": 1.0, "G": 5.0, "M": 5.0}},
    "market": {"r": 0.0, "T": 1.0, "K": 1.0},
    "payoff": {"kind": "digital", "strike_level": 0.0, "alpha": 1.0},
    "T": 1.0,
}


def _write(tmp_path: Path, cfg: dict, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_check_passes_on_merton(tmp_path, capsys):
    rc = main(["check", "--config", _write(tmp_path, MERTON_CFG)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Assumption 1: PASS" in out
    assert "Assumption 3: PASS" in out


def test_check_vg_fails_decay_with_pointer(tmp_path, capsys):
    rc = main(["check", "--config", _write(tmp_path, VG_CFG)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "Assumption 3: FAIL (decay)" in out
    assert "malliavin" in out  # pointer to the differentiability route


def test_malliavin_json_artifact(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["malliavin", "--config", _write(tmp_path, VG_CFG),
               "--out", str(out_dir), "--format", "json"])
    assert rc == 0
    data = json.loads((out_dir / "malliavin.json").read_text())
    assert data["version"] == __version__
    assert data["config_hash"] == config_hash(VG_CFG)
    assert data["differentiable"] is True
    assert len(data["truncated_integrals"]) == 6


def test_density_csv_versioned_header(tmp_path):
    out_dir = tmp_path / "out"
    cfg = dict(MERTON_CFG, density={"n_y": 11, "y_lo": -1.0, "y_hi": 1.0})
    rc = main(["density", "--config", _write(tmp_path, cfg), "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "density.csv").read_text().splitlines()
    assert lines[0] == f"# levyrep {__version__} config={config_hash(cfg)}"
    assert lines[1] == "y,p"
    assert len(lines) == 13  # header + columns + 11 rows


def test_hedge_csv_shape(tmp_path):
    out_dir = tmp_path / "out"
    cfg = dict(MERTON_CFG, hedge={"n_t": 3, "n_s": 5})
    rc = main(["hedge", "--config", _write(tmp_path, cfg), "--out", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "hedge.csv").read_text().splitlines()
    assert lines[1] == "t,S,xi,kappa,nu_integral,err_estimate"
    assert len(lines) == 2 + 3 * 5


def test_represent_emits_surface(tmp_path):
    out_dir = tmp_path / "out"
    cfg = dict(MERTON_CFG, represent={"n_t": 2, "n_x": 3})
    rc = main(["represent", "--config", _write(tmp_path, cfg),
               "--out", str(out_dir), "--format", "json"])
    assert rc == 0
    data = json.loads((out_dir / "represent.json").read_text())
    assert len(data["rows"]) == 6
    assert data["columns"][:3] == ["t", "x", "u"]


def test_verify_replication_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_path = _write(tmp_path, MERTON_CFG)
    args = ["verify-replication", "--config", cfg_path, "--paths", "100",
            "--steps", "50", "--seed", "9", "--format", "json"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    a = json.loads((out_a / "replication.json").read_text())
    b = json.loads((out_b / "replication.json").read_text())
    assert a == b
    assert a["n_paths"] == 100 and a["n_steps"] == 50


def test_verify_fs_runs(tmp_path):
    out_dir = tmp_path / "out"
    rc = main(["verify-fs", "--config", _write(tmp_path, MERTON_CFG),
               "--paths", "100", "--steps", "50", "--format", "json",
               "--out", str(out_dir)])
    data = json.loads((out_dir / "fs_study.json").read_text())
    assert rc in (0, 1)  # statistical outcome at tiny sample size
    assert {"h0", "mean_l", "se_l", "mean_bracket"} <= set(data)


def test_missing_config_is_structured_error(tmp_path, capsys):
    rc = main(["check", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "ParameterError" in capsys.readouterr().err


def test_bad_model_kind_is_structured_error(tmp_path, capsys):
    cfg = dict(MERTON_CFG, model={"kind": "stable"})
    rc = main(["check", "--config", _write(tmp_path, cfg)])
    assert rc == 2
    assert "ParameterError" in capsys.readouterr().err


def test_misspelt_grid_key_is_structured_error(tmp_path, capsys):
    cfg = dict(MERTON_CFG, grid={"alpah": 1.0})
    rc = main(["check", "--config", _write(tmp_path, cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ParameterError" in err and "alpah" in err


@pytest.mark.parametrize("model", [
    {"params": {"gama": 1.0, "m": -0.1, "delta": 0.3}},
    {"sigma": "abc"},
    {"sigma": float("nan")},
    {"mu": float("inf")},
    {"params": {"gamma": float("nan"), "m": -0.1, "delta": 0.3}},
    {"sigam": 0.2},
], ids=["misspelt", "string", "nan-sigma", "inf-mu", "nan-gamma", "misspelt-key"])
def test_bad_model_config_is_structured_error(tmp_path, capsys, model):
    cfg = dict(MERTON_CFG, model=MERTON_CFG["model"] | model)
    rc = main(["check", "--config", _write(tmp_path, cfg)])
    assert rc == 2
    assert "ParameterError" in capsys.readouterr().err


def test_nonpositive_tol_rejected(tmp_path, capsys):
    rc = main(["check", "--config", _write(tmp_path, MERTON_CFG), "--tol", "0"])
    assert rc == 2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_config_hash_stable_under_key_order(seed):
    import random
    cfg = {"b": 1, "a": {"y": [1, 2], "x": seed}, "c": "s"}
    items = list(cfg.items())
    random.Random(seed).shuffle(items)
    assert config_hash(dict(items)) == config_hash(cfg)
