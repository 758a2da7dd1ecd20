"""Batch command-line front end.

Subcommands: check, represent, density, hedge, verify-replication,
verify-fs, malliavin.  All inputs come from a JSON config file; outputs are
CSV or JSON files stamped with the tool version and a hash of the config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import check_keys, config_count, config_number
from .errors import LevyRepError, ParameterError
from .fourier import density_batch, grid_from_dict
from .hedging import fs_path_study, hedge_grid, orthogonality_check
from .malliavin import malliavin_classify
from .mmm import MarketSpec, build_mmm, check_assumption3, density_star
from .models import check_assumption1, model_from_dict
from .payoffs import (
    PayoffDecomposition,
    check_assumption2,
    payoff_from_dict,
)
from .representation import build_integrands, replicate_batch
from .simulate import simulate


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ParameterError(f"config file not found: {path}")
    with open(p) as fh:
        return json.load(fh)


def _out_path(args, default_name: str) -> Path:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / default_name


def _header(chash: str) -> str:
    return f"# levyrep {__version__} config={chash}"


def _emit(args, chash: str, name: str, rows=None, columns=None, payload=None):
    """Write CSV rows or a JSON payload, versioned with the config hash."""
    if args.format == "json" or rows is None:
        data = {"tool": "levyrep", "version": __version__, "config_hash": chash}
        data.update(payload if payload is not None else {"rows": rows, "columns": columns})
        path = _out_path(args, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, default=float)
            fh.write("\n")
    else:
        path = _out_path(args, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write(_header(chash) + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
    print(f"wrote {path}")
    return path


def _build_common(config: dict):
    model = model_from_dict(config["model"])
    grid = grid_from_dict(config.get("grid", {}))
    return model, grid


def _horizon(config: dict) -> float:
    """The one horizon T of every subcommand: ``market.T`` or the top-level
    ``T`` (1 if neither is given).  Both given and different, non-numeric,
    non-finite or non-positive raise ParameterError."""
    given = {name: config_number(name, value, "config") for name, value in
             (("market.T", config.get("market", {}).get("T")), ("T", config.get("T")))
             if value is not None}
    if len(set(given.values())) > 1:
        raise ParameterError(f"market.T and T disagree: {given}")
    T = next(iter(given.values()), 1.0)
    if T <= 0:
        raise ParameterError(f"horizon T must be positive, got {T!r}")
    return T


def _market_from(config: dict, model) -> MarketSpec:
    mkt = _block(config, "market", ["K", "T", "r"])
    return MarketSpec(
        r=config_number("r", mkt.get("r", 0.0), "market"),
        T=_horizon(config),
        K=config_number("K", mkt.get("K", 1.0), "market"),
        model=model,
    )


def _block(config: dict, name: str, known) -> dict:
    """The config's ``name`` block ({} if absent); unknown keys raise
    ParameterError."""
    spec = config.get(name, {})
    check_keys(name, spec, known)
    return spec


def _sim_from(config: dict):
    """(scheme, eps_jump) from the config's ``sim`` block."""
    sim = _block(config, "sim", ["eps_jump", "scheme"])
    eps_jump = config_number("eps_jump", sim.get("eps_jump", 1e-3), "sim")
    return sim.get("scheme", "exact"), eps_jump


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args, config: dict) -> int:
    model, grid = _build_common(config)
    T = _horizon(config)
    verdicts = {}
    a1 = check_assumption1(model, grid.alpha, 0.0, T)
    verdicts["assumption1"] = {"ok": bool(a1), "detail": a1.detail}
    print(f"Assumption 1: {'PASS' if a1 else 'FAIL'} ({a1.detail})")
    if "payoff" in config:
        payoff = payoff_from_dict(config["payoff"])
        if isinstance(payoff, PayoffDecomposition):
            checks = [check_assumption2(p) for _, p in payoff.parts]
            ok = all(bool(c) for c in checks)
            detail = "; ".join(c.detail for c in checks)
        else:
            chk = check_assumption2(payoff)
            ok, detail = bool(chk), chk.detail
        verdicts["assumption2"] = {"ok": ok, "detail": detail}
        print(f"Assumption 2: {'PASS' if ok else 'FAIL'} ({detail})")
    if "market" in config:
        market = _market_from(config, model)
        a3 = check_assumption3(market, alpha=grid.alpha)
        verdicts["assumption3"] = {
            "ok": bool(a3), "detail": a3.detail,
            "c2": a3.c2, "mu_hat": a3.mu_hat,
        }
        status = "PASS" if a3 else f"FAIL ({'decay' if a3.mu_hat_ok and a3.c2_finite else 'load'})"
        print(f"Assumption 3: {status} ({a3.detail})")
        if not a3:
            print("hint: hedging under the minimal martingale measure is "
                  "unavailable; the differentiability route may still apply "
                  "(see the malliavin subcommand)")
    chash = config_hash(config)
    if args.out:
        _emit(args, chash, "check", payload={"verdicts": verdicts})
    return 0 if all(v["ok"] for v in verdicts.values()) else 1


def _cmd_represent(args, config: dict) -> int:
    model, grid = _build_common(config)
    T = _horizon(config)
    payoff = payoff_from_dict(config["payoff"])
    ints = build_integrands(model, payoff, grid, T)
    rep = _block(config, "represent", ["n_t", "n_x", "theta_jumps", "x_hi", "x_lo"])
    n_t = config_count("n_t", rep.get("n_t", 20), "represent")
    n_x = config_count("n_x", rep.get("n_x", 41), "represent")
    x_lo = config_number("x_lo", rep.get("x_lo", model.x0 - 2.0), "represent")
    x_hi = config_number("x_hi", rep.get("x_hi", model.x0 + 2.0), "represent")
    jumps = rep.get("theta_jumps", (-0.2, 0.2))
    if not isinstance(jumps, (list, tuple)):
        raise ParameterError(f"represent theta_jumps must be a list of numbers, got {jumps!r}")
    jump_ys = [config_number("theta_jumps", y, "represent") for y in jumps]
    ts = np.linspace(0.0, 0.9 * T, n_t)
    xs = np.linspace(x_lo, x_hi, n_x)
    rows = []
    for t in ts:
        for x in xs:
            row = [float(t), float(x), ints.u(t, float(x))]
            row += [ints.theta(t, float(x), y) for y in jump_ys]
            rows.append(tuple(row))
    cols = ["t", "x", "u"] + [f"theta_y{y:g}" for y in jump_ys]
    _emit(args, config_hash(config), "represent", rows=rows, columns=cols,
          payload={"mean": ints.mean, "rows": rows, "columns": cols})
    return 0


def _cmd_density(args, config: dict) -> int:
    model, grid = _build_common(config)
    dn = _block(config, "density", ["measure", "n_y", "t", "y_hi", "y_lo"])
    T = _horizon(config)
    t = config_number("t", dn.get("t", 0.0), "density")
    if not 0.0 <= t < T:
        raise ParameterError(f"density t must satisfy 0 <= t < T = {T:g}, got {t:g}")
    n_y = config_count("n_y", dn.get("n_y", 201), "density")
    y_lo = config_number("y_lo", dn.get("y_lo", -3.0), "density")
    y_hi = config_number("y_hi", dn.get("y_hi", 3.0), "density")
    measure = dn.get("measure", "physical")
    if measure not in ("physical", "mmm"):
        raise ParameterError(f"density measure must be 'physical' or 'mmm', got {measure!r}")
    ys = np.linspace(y_lo, y_hi, n_y)
    if measure == "mmm":
        market = _market_from(config, model)
        transform = build_mmm(market)
        ps = density_star(transform, grid, t, ys)
    else:
        ps = density_batch(model, grid, t, T, ys)
    rows = [(float(y), float(p)) for y, p in zip(ys, ps)]
    _emit(args, config_hash(config), "density", rows=rows, columns=["y", "p"],
          payload={"rows": rows, "columns": ["y", "p"]})
    return 0


def _cmd_hedge(args, config: dict) -> int:
    model, grid = _build_common(config)
    market = _market_from(config, model)
    transform = build_mmm(market)
    hg = _block(config, "hedge", ["n_s", "n_t"])
    n_t = config_count("n_t", hg.get("n_t", 50), "hedge")
    n_s = config_count("n_s", hg.get("n_s", 101), "hedge")
    rows = hedge_grid(market, transform, grid, n_t=n_t, n_s=n_s)
    cols = ["t", "S", "xi", "kappa", "nu_integral", "err_estimate"]
    _emit(args, config_hash(config), "hedge", rows=rows, columns=cols,
          payload={"rows": rows, "columns": cols})
    return 0


def _cmd_verify_replication(args, config: dict) -> int:
    model, grid = _build_common(config)
    T = _horizon(config)
    payoff = payoff_from_dict(config["payoff"])
    scheme, eps = _sim_from(config)
    batch = simulate(model, T, args.steps, args.paths, seed=args.seed,
                     scheme=scheme, eps_jump=eps)
    nu_eps = eps if scheme == "marks" else None
    ints = build_integrands(model, payoff, grid, T, nu_eps=nu_eps)
    report = replicate_batch(ints, batch)
    payload = {k: report[k] for k in
               ("n_paths", "n_steps", "mse", "mean_claim", "mean_replication", "se")}
    payload["mean_analytic"] = ints.mean
    _emit(args, config_hash(config), "replication", payload=payload)
    ok = abs(report["mean_replication"] - ints.mean) <= max(
        args.tol, 3.0 * report["se"]
    )
    return 0 if ok else 1


def _cmd_verify_fs(args, config: dict) -> int:
    model, grid = _build_common(config)
    market = _market_from(config, model)
    transform = build_mmm(market)
    scheme, eps = _sim_from(config)
    batch = simulate(model, market.T, args.steps, args.paths, seed=args.seed,
                     scheme=scheme, eps_jump=eps)
    study = fs_path_study(market, transform, grid, batch)
    control = orthogonality_check(market, transform, grid, batch, xi_scale=1.1)
    payload = {
        "n_paths": study["n_paths"],
        "n_steps": study["n_steps"],
        "h0": study["h0"],
        "mean_l": study["mean_l"],
        "se_l": study["se_l"],
        "mean_bracket": study["mean_bracket"],
        "se_bracket": study["se_bracket"],
        "identity_mse": study["identity_mse"],
        "control_xi_1.1_z": control["z"],
    }
    _emit(args, config_hash(config), "fs_study", payload=payload)
    z_l = abs(study["mean_l"]) / study["se_l"] if study["se_l"] > 0 else 0.0
    z_b = abs(study["mean_bracket"]) / study["se_bracket"] if study["se_bracket"] > 0 else 0.0
    return 0 if (z_l <= 3.0 and z_b <= 3.0) else 1


def _cmd_malliavin(args, config: dict) -> int:
    model, _ = _build_common(config)
    verdict = malliavin_classify(model)
    print("Differentiable" if verdict else "NotDifferentiable", "-", verdict.reason)
    for eps, val in verdict.truncated_integrals.items():
        print(f"  int_{{{eps:g}<|x|<1}} |x| nu(dx) = {val:.6g}")
    payload = {
        "differentiable": verdict.differentiable,
        "reason": verdict.reason,
        "caveat": verdict.caveat,
        "truncated_integrals": {f"{k:g}": v for k, v in verdict.truncated_integrals.items()},
        "convergent": verdict.convergent,
        "ratio": verdict.ratio if math.isfinite(verdict.ratio) else None,
    }
    if args.out:
        _emit(args, config_hash(config), "malliavin", payload=payload)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "represent": _cmd_represent,
    "density": _cmd_density,
    "hedge": _cmd_hedge,
    "verify-replication": _cmd_verify_replication,
    "verify-fs": _cmd_verify_fs,
    "malliavin": _cmd_malliavin,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyrep",
        description="martingale representation and hedging toolkit for "
        "square-integrable exponential Levy models",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--paths", type=int, default=10_000)
    parser.add_argument("--steps", type=int, default=250)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 < args.tol < math.inf:
        print("error: --tol must be positive and finite", file=sys.stderr)
        return 2
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except LevyRepError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
