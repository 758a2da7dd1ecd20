"""Command-line front end: dispatch, artifacts, exit codes."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import (
    LevyRepError,
    QuadratureGrid,
    __version__,
    build_integrands,
    errors,
    model_from_dict,
    payoff_from_dict,
)
from levyrep.cli import config_hash, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("check", "represent", "density", "hedge", "verify-replication", "verify-fs",
            "malliavin")

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


@pytest.mark.parametrize("block, change, message", [
    ("payoff", {"strike_level": "abc"}, "strike_level must be a number"),
    ("payoff", {"strike_level": float("nan")}, "strike_level must be finite"),
    ("payoff", {"alfa": 1.0}, r"\['alfa'\]; known: \['alpha', 'kind', 'strike_level'\]"),
    ("payoff", {"kind": "polynomial", "coeffs": ["a"]}, "coeffs must be a number"),
    ("market", {"r": float("nan")}, "r must be finite"),
    ("market", {"K": float("nan")}, "K must be finite"),
    ("market", {"T": float("inf")}, "market.T must be finite"),
    ("market", {"Kk": 1.0}, r"unknown market keys \['Kk'\]"),
    ("sim", {"eps_jump": "abc"}, "eps_jump must be a number"),
], ids=["string-strike", "nan-strike", "misspelt-alpha", "string-coeff", "nan-r", "nan-K",
        "inf-T", "misspelt-K", "string-eps"])
def test_bad_payoff_market_sim_config_is_structured_error(tmp_path, capsys, block, change,
                                                           message):
    cfg = dict(MERTON_CFG, sim={"scheme": "exact"})
    cfg[block] = change if "kind" in change else cfg[block] | change
    if block == "market" and "T" in change:
        del cfg["T"]
    command = "verify-replication" if block == "sim" else "check"
    rc = main([command, "--config", _write(tmp_path, cfg), "--paths", "10", "--steps", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ParameterError" in err and re.search(message, err)


@pytest.mark.parametrize("block, change, message", [
    ("density", {"n_y": "abc"}, "n_y must be a number"),
    ("density", {"n_y": 0}, "n_y must be an integer >= 1"),
    ("density", {"y_hi": float("inf")}, "y_hi must be finite"),
    ("density", {"t": "soon"}, "t must be a number"),
    ("density", {"t": -1.0}, "t must satisfy 0 <= t < T"),
    ("density", {"measure": "MMM"}, "measure must be 'physical' or 'mmm'"),
    ("density", {"ny": 3}, r"unknown density keys \['ny'\]"),
    ("hedge", {"n_t": 0}, "n_t must be an integer >= 1"),
    ("hedge", {"n_s": 1.5}, "n_s must be an integer >= 1"),
    ("hedge", {"ns": 3}, r"unknown hedge keys \['ns'\]"),
    ("hedge", 5, "hedge block must be a JSON object"),
    ("represent", {"n_t": 2.7}, "n_t must be an integer >= 1"),
    ("represent", {"n_x": -1}, "n_x must be an integer >= 1"),
    ("represent", {"x_lo": float("nan")}, "x_lo must be finite"),
    ("represent", {"theta_jumps": 0.2}, "theta_jumps must be a list"),
    ("represent", {"theta_jumps": [0.1, "up"]}, "theta_jumps must be a number"),
    ("represent", {"nt": 2}, r"unknown represent keys \['nt'\]"),
], ids=["string-n_y", "zero-n_y", "inf-y_hi", "string-t", "negative-t", "measure-case",
        "misspelt-n_y", "zero-n_t", "fractional-n_s", "misspelt-n_s", "scalar-block",
        "fractional-n_t", "negative-n_x", "nan-x_lo", "scalar-jumps", "string-jump",
        "misspelt-n_t"])
def test_bad_represent_density_hedge_config_is_structured_error(tmp_path, capsys, block,
                                                                 change, message):
    cfg = dict(MERTON_CFG, **{block: change})
    rc = main([block, "--config", _write(tmp_path, cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ParameterError" in err and re.search(message, err)


def test_represent_density_hedge_accept_every_known_key(tmp_path):
    cfg = dict(MERTON_CFG,
               represent={"n_t": 2, "n_x": 3, "x_lo": -0.5, "x_hi": 0.5,
                          "theta_jumps": [-0.1, 0.1, 0.3]},
               density={"t": 0.1, "n_y": 4, "y_lo": -1.0, "y_hi": 1.0, "measure": "mmm"},
               hedge={"n_t": 2, "n_s": 3})
    out = tmp_path / "out"
    common = ["--config", _write(tmp_path, cfg), "--out", str(out), "--format", "json"]
    for command in ("represent", "density", "hedge"):
        assert main([command, *common]) == 0
    rep = json.loads((out / "represent.json").read_text())
    assert len(rep["rows"]) == 6 and rep["rows"][-1][1] == 0.5
    assert rep["columns"] == ["t", "x", "u", "theta_y-0.1", "theta_y0.1", "theta_y0.3"]
    dens = json.loads((out / "density.json").read_text())
    assert [row[0] for row in dens["rows"]] == pytest.approx([-1.0, -1 / 3, 1 / 3, 1.0])
    # the measure key is honoured: the physical density differs
    cfg["density"] = cfg["density"] | {"measure": "physical"}
    assert main(["density", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "p"),
                 "--format", "json"]) == 0
    phys = json.loads((tmp_path / "p" / "density.json").read_text())
    assert phys["rows"] != dens["rows"]
    assert len(json.loads((out / "hedge.json").read_text())["rows"]) == 6


def test_missing_strike_level_is_structured_error(tmp_path, capsys):
    cfg = dict(MERTON_CFG, payoff={"kind": "digital", "alpha": 1.0})
    rc = main(["check", "--config", _write(tmp_path, cfg)])
    assert rc == 2
    assert "needs ['strike_level']" in capsys.readouterr().err


def test_one_horizon_for_every_subcommand(tmp_path, capsys):
    """A config whose only horizon is market.T = 2 replicates, prices
    densities and hedges to T = 2."""
    cfg = {k: v for k, v in MERTON_CFG.items() if k != "T"}
    cfg["market"] = cfg["market"] | {"T": 2.0}
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    common = ["--config", path, "--out", str(out), "--format", "json"]
    assert main(["verify-replication", *common, "--paths", "20", "--steps", "8"]) in (0, 1)
    rep = json.loads((out / "replication.json").read_text())
    two = build_integrands(model_from_dict(cfg["model"]),
                           payoff_from_dict(cfg["payoff"]), QuadratureGrid(alpha=1.0), 2.0)
    assert rep["mean_analytic"] == two.mean
    assert main(["check", "--config", path]) == 0
    both = dict(cfg, T=1.0)
    assert main(["hedge", "--config", _write(tmp_path, both, "both.json")]) == 2
    assert "market.T and T disagree" in capsys.readouterr().err


def test_nonpositive_tol_rejected(tmp_path, capsys):
    rc = main(["check", "--config", _write(tmp_path, MERTON_CFG), "--tol", "0"])
    assert rc == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_rejected(tmp_path, capsys, tol):
    # a NaN tol made verify-replication fail on every run, an infinite one pass
    rc = main(["verify-replication", "--config", _write(tmp_path, MERTON_CFG),
               "--paths", "50", "--steps", "10", "--tol", tol])
    assert rc == 2
    assert "--tol must be positive and finite" in capsys.readouterr().err


def test_negative_seed_is_structured_error(tmp_path, capsys):
    rc = main(["verify-replication", "--config", _write(tmp_path, MERTON_CFG),
               "--paths", "50", "--steps", "10", "--seed", "-1"])
    assert rc == 2
    assert "ParameterError" in capsys.readouterr().err


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_config_hash_stable_under_key_order(seed):
    import random
    cfg = {"b": 1, "a": {"y": [1, 2], "x": seed}, "c": "s"}
    items = list(cfg.items())
    random.Random(seed).shuffle(items)
    assert config_hash(dict(items)) == config_hash(cfg)


def _run_shipped(tmp_path, name, command):
    return main([command, "--config", str(CONFIGS / f"{name}_digital.json"),
                 "--out", str(tmp_path), "--paths", "40", "--steps", "10"])


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", ["merton", "nig"])
def test_every_subcommand_runs_on_the_shipped_config(tmp_path, capsys, name, command):
    assert _run_shipped(tmp_path, name, command) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_on_vg_ends_cleanly(tmp_path, capsys, command):
    """VG fails the decay condition: a subcommand runs, ``check`` reports
    the failed assumption with exit 1, or it exits 2 with one structured
    error line and no traceback."""
    rc = _run_shipped(tmp_path, "vg", command)
    err = capsys.readouterr().err
    if rc == 2:
        match = re.fullmatch(r"error: (\w+): [^\n]+\n", err)
        assert match, err
        assert issubclass(getattr(errors, match.group(1)), LevyRepError)
    else:
        assert rc == 0 or (command, rc) == ("check", 1), (rc, err)
        assert "Traceback" not in err
