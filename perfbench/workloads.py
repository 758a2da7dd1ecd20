"""Workloads of the benchmark: seeded inputs, timed calls into levyrep and
output checks against ``reference``.

A workload is a closed loop with one caller: each call starts when the
previous one returns.  It repeats a round of jobs for the length of the run.
Inputs come from ``numpy.random.SeedSequence([seed, stream, round])``: every
round draws new paths, strikes, times and query points, so no call repeats
an earlier one.  Checks run outside the timed calls; each check also runs on
a perturbed output that it must reject.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import levyrep

T = 1.0
Z_MAX = 5.0          # Monte Carlo checks: |estimate - target| <= Z_MAX standard errors
VALUE_TOL = 1e-6     # pointwise values against their reference
QUERY_T_MAX = 0.98   # pointwise and grid times stay in t <= 0.98 T
DENSITY_POINTS = 6001
DENSITY_RANGE = 9.0
GRID_SHAPE = (50, 101)
STRIKE_SHIFT = -1.0  # negative controls: claims and capital at a strike one unit lower


# ---------------------------------------------------------------------------
# markets


@dataclass
class Market:
    """One config's program objects and, after ``attach_reference``, its
    independent reference."""

    name: str
    cfg: dict
    model: object
    grid: object
    payoff: object
    market: object
    transform: object
    integrands: object
    c: float            # payoff strike level of the representation claim
    eps: float | None   # marks-scheme truncation (None: exact scheme)
    ref: object = None
    star_ref: object = None


def load_market(root: Path, name: str, timings: dict) -> Market:
    """Build a market from ``configs/<name>_digital.json``."""
    cfg = json.loads((root / "configs" / f"{name}_digital.json").read_text())
    model = levyrep.model_from_dict(cfg["model"])
    grid = levyrep.grid_from_dict(cfg.get("grid", {}))
    payoff = levyrep.payoff_from_dict(cfg["payoff"])
    m = cfg["market"]
    market = levyrep.MarketSpec(r=float(m["r"]), T=float(m["T"]), K=float(m["K"]), model=model)
    t0 = time.perf_counter()
    transform = levyrep.build_mmm(market)
    timings["mmm.build_s"] = timings.get("mmm.build_s", 0.0) + time.perf_counter() - t0
    sim = cfg.get("sim", {})
    eps = float(sim["eps_jump"]) if sim.get("scheme") == "marks" else None
    integrands = levyrep.build_integrands(model, payoff, grid, T, nu_eps=eps)
    return Market(name, cfg, model, grid, payoff, market, transform, integrands,
                  float(cfg["payoff"]["strike_level"]), eps)


def attach_reference(mk: Market):
    """Reference laws from the config's parameters alone."""
    import reference as R  # noqa: N812 - kept out of set-up: it loads scipy.stats

    p = mk.cfg["model"]
    if p["kind"] == "merton":
        mk.ref = R.Merton(p["x0"], p["mu"], p["sigma"], **p["params"])
        mk.star_ref = R.StarMerton(mk.ref)
    else:
        mk.ref = R.NIG(p["x0"], p["mu"], **p["params"])
        mk.star_ref = R.StarNIG(mk.ref)


def digital_ref(ref, tau, x, c) -> float:
    return float(np.atleast_1d(ref.digital(tau, x, c))[0])


def xi_ref(mk: Market, K, t, x):
    return float(mk.star_ref.lrm_xi(mk.market.r, T, K, t, x))


def market_at(mk: Market, K: float):
    return levyrep.MarketSpec(r=mk.market.r, T=T, K=K, model=mk.model)


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Accept/reject record; every check also sees a perturbed output."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, name, accept, good, bad):
        """``accept(good)`` must hold and ``accept(bad)`` must not."""
        if not accept(good):
            self.failures.append(f"{name}: output {good!r} rejected")
        elif accept(bad):
            self.failures.append(f"{name}: negative control {bad!r} accepted")
        else:
            self.passed += 1

    def near(self, name, value, ref):
        scale = VALUE_TOL * max(1.0, abs(ref))
        self.expect(name, lambda v: abs(v - ref) <= scale, value, value + 10.0 * scale)

    def within_se(self, name, estimate, target, se, bad):
        self.expect(name, lambda v: abs(v - target) <= Z_MAX * se, estimate, bad)


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One timed operation family: ``prepare`` draws inputs (untimed),
    ``run`` times the calls through ``bench.call`` and checks the outputs.
    Calls are passed as thunks, so levyrep names resolve when the call is
    made and the traced run sees its wrappers."""

    def prepare(self, bench, rng):
        raise NotImplementedError

    def run(self, bench, inputs):
        raise NotImplementedError


def _seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


class PathsJob(Job):
    """``replicate_batch`` and/or ``fs_path_study`` on one simulated batch."""

    def __init__(self, market, n_paths, n_steps, ops=("replicate", "fs")):
        self.market, self.n_paths, self.n_steps, self.ops = market, n_paths, n_steps, ops

    def prepare(self, bench, rng):
        mk = bench.markets[self.market]
        scheme = "marks" if mk.eps is not None else "exact"
        return levyrep.simulate(mk.model, T, self.n_steps, self.n_paths, seed=_seed(rng),
                                scheme=scheme, eps_jump=mk.eps or 1e-3)

    def run(self, bench, batch):
        mk = bench.markets[self.market]
        work = batch.n_paths * batch.n_steps
        if "replicate" in self.ops:
            rep = bench.call("replicate", work,
                             lambda: levyrep.replicate_batch(mk.integrands, batch))
            if rep is not None:
                self.check_replication(bench, mk, batch, rep)
        if "fs" in self.ops:
            fs = bench.call("fs", work, lambda: levyrep.hedging.fs_path_study(
                mk.market, mk.transform, mk.grid, batch))
            if fs is not None:
                self.check_fs(bench, mk, batch, fs)

    @staticmethod
    def check_replication(bench, mk, batch, rep):
        ck, x0, n = bench.checks, mk.model.x0, rep["n_paths"]
        p = digital_ref(mk.ref, T, x0, mk.c)
        p_low = digital_ref(mk.ref, T, x0, mk.c + STRIKE_SHIFT)
        ck.near(f"{mk.name}.claim_mean_analytic", mk.integrands.mean, p)
        low_claim = float(np.mean(batch.x[:, -1] >= mk.c + STRIKE_SHIFT))
        ck.within_se(f"{mk.name}.claim_mean", rep["mean_claim"], p,
                     math.sqrt(p * (1.0 - p) / n), low_claim)
        wrong_capital = rep["mean_replication"] - mk.integrands.mean + p_low
        ck.within_se(f"{mk.name}.replication_mean", rep["mean_replication"], p,
                     rep["se"], wrong_capital)
        const_mse = float(np.mean((rep["claim"] - mk.integrands.mean) ** 2))
        ck.expect(f"{mk.name}.replication_mse", lambda v: v < 0.5 * p * (1.0 - p),
                  rep["mse"], const_mse)

    @staticmethod
    def check_fs(bench, mk, batch, fs):
        ck = bench.checks
        disc = math.exp(-mk.market.r * T)
        c_mkt = mk.market.strike_level()
        ck.near(f"{mk.name}.fs_h0", fs["h0"],
                disc * digital_ref(mk.star_ref, T, mk.model.x0, c_mkt))
        h0_low = disc * digital_ref(mk.star_ref, T, mk.model.x0, c_mkt + STRIKE_SHIFT)
        ck.within_se(f"{mk.name}.fs_mean_L", fs["mean_l"], 0.0, fs["se_l"],
                     fs["mean_l"] + fs["h0"] - h0_low)
        # the unhedged position (xi = 0) on a 10x coarser copy of the batch
        # must fail orthogonality
        bad = levyrep.hedging.fs_path_study(mk.market, mk.transform, mk.grid,
                                            batch.coarsen(10), xi_scale=0.0)
        ck.expect(f"{mk.name}.fs_bracket", lambda ms: abs(ms[0]) <= Z_MAX * ms[1],
                  (fs["mean_bracket"], fs["se_bracket"]),
                  (bad["mean_bracket"], bad["se_bracket"]))


class SimulateJob(Job):
    """``simulate(..., scheme="marks")`` on the NIG market."""

    def __init__(self, n_paths, n_steps):
        self.n_paths, self.n_steps = n_paths, n_steps

    def prepare(self, bench, rng):
        return _seed(rng)

    def run(self, bench, seed):
        mk = bench.markets["nig"]
        batch = bench.call("simulate", lambda b: b.jump_size.size, lambda: levyrep.simulate(
            mk.model, T, self.n_steps, self.n_paths, seed=seed, scheme="marks",
            eps_jump=mk.eps))
        if batch is None:
            return
        ck, n = bench.checks, batch.n_paths
        mean, var, k4 = mk.ref.terminal_cumulants(T)
        x_T = batch.x[:, -1]
        ck.within_se("nig.terminal_mean", float(np.mean(x_T)), mean, math.sqrt(var / n),
                     float(np.mean(x_T)) + 0.2)
        se_var = math.sqrt((k4 + 2.0 * var * var) / n)
        ck.within_se("nig.terminal_var", float(np.var(x_T, ddof=1)), var, se_var,
                     float(np.var(1.2 * x_T, ddof=1)))
        lam = T * bench.jump_rate * n
        # a truncation level mis-set 5% high drops ~5% of the jumps
        dropped = int(np.count_nonzero(np.abs(batch.jump_size) >= 1.05 * mk.eps))
        ck.within_se("nig.jump_count", batch.jump_size.size, lam, math.sqrt(lam), dropped)


class QueriesJob(Job):
    """Pointwise calls, ``per_kind`` of each kind, with times stratified over
    [0, 0.98 T] and the kinds interleaved at random."""

    KINDS = (("merton", "F"), ("merton", "u"), ("merton", "theta"), ("merton", "xi"),
             ("nig", "F"), ("nig", "theta"), ("nig", "xi"))

    def __init__(self, per_kind):
        self.per_kind = per_kind
        # every value is checked, except for the slower hedge-ratio references
        self.checked = {"xi": max(2, per_kind // 5)}

    def prepare(self, bench, rng):
        n = self.per_kind
        calls = []
        for name, kind in self.KINDS:
            ts = QUERY_T_MAX * T * (np.arange(n) + rng.uniform(size=n)) / n
            xs = rng.uniform(-0.5, 0.5, n)
            ys = rng.uniform(-0.5, 0.5, n)
            ks = np.exp(rng.uniform(-0.2, 0.2, n))
            for t, x, y, K in zip(ts, xs, ys, ks):
                calls.append((name, kind, float(t), float(x), float(y), float(K)))
        return [calls[i] for i in rng.permutation(len(calls))]

    @staticmethod
    def _call(bench, name, kind, t, x, y, K):
        mk = bench.markets[name]
        if kind == "F":
            return bench.call("query", 1, lambda: levyrep.conditional_value(
                mk.model, mk.payoff, mk.grid, t, x, T))
        if kind == "u":
            return bench.call("query", 1, lambda: mk.integrands.u(t, x))
        if kind == "theta":
            return bench.call("query", 1, lambda: mk.integrands.theta(t, x, y))
        mkt = market_at(mk, K)
        return bench.call("query", 1, lambda: levyrep.lrm_xi(
            mkt, mk.transform, mk.grid, t, x, math.exp(x)))

    def run(self, bench, calls):
        outs = [(call, self._call(bench, *call)) for call in calls]
        checked = {}
        for (name, kind, t, x, y, K), v in outs:
            n = checked.get((name, kind), 0)
            if v is None or n >= self.checked.get(kind, len(outs)):
                continue
            checked[(name, kind)] = n + 1
            mk = bench.markets[name]
            tau = T - t
            if kind == "F":
                ref = digital_ref(mk.ref, tau, x, mk.c)
            elif kind == "u":
                ref = mk.model.sigma * float(mk.ref.digital_dx(tau, x, mk.c))
            elif kind == "theta":
                ref = digital_ref(mk.ref, tau, x + y, mk.c) - digital_ref(mk.ref, tau, x, mk.c)
            else:
                ref = xi_ref(mk, K, t, x)
            bench.checks.near(f"{name}.query_{kind}", v, ref)


class GridsJob(Job):
    """``hedge_grid`` 50 x 101 on the named markets, ``per_market`` seeded
    strikes each."""

    SAMPLED = 2  # grid points checked against the reference per grid

    def __init__(self, names, per_market):
        self.names, self.per_market = names, per_market

    def prepare(self, bench, rng):
        return [(name, float(np.exp(rng.uniform(-0.2, 0.2))),
                 rng.choice(GRID_SHAPE[0] * GRID_SHAPE[1], self.SAMPLED, replace=False))
                for _ in range(self.per_market) for name in self.names]

    def run(self, bench, grids):
        for name, K, sample in grids:
            mk = bench.markets[name]
            mkt = market_at(mk, K)
            rows = bench.call("hedge_grid", GRID_SHAPE[0] * GRID_SHAPE[1],
                              lambda: levyrep.hedge_grid(mkt, mk.transform, mk.grid, *GRID_SHAPE))
            if rows is None:
                continue
            bench.checks.expect(f"{name}.grid_size", lambda r: len(r) == 5050, rows, rows[1:])
            for i in sample:
                t, s, xi = rows[i][:3]
                x = math.log(s) - mk.market.r * t
                bench.checks.near(f"{name}.grid_xi", xi, xi_ref(mk, K, t, x))


class DensityJob(Job):
    """``density_batch`` at 6,001 points on [-9, 9] for the named models, from
    a seeded start time t in [0, 0.004 T], a window in which each model keeps
    one node count, so that every call does the same work."""

    SAMPLED = 40

    def __init__(self, names):
        self.names = names

    def prepare(self, bench, rng):
        return [(name, float(rng.uniform(0.0, 0.004 * T)),
                 rng.choice(DENSITY_POINTS, self.SAMPLED, replace=False))
                for name in self.names]

    def run(self, bench, jobs):
        ys = np.linspace(-DENSITY_RANGE, DENSITY_RANGE, DENSITY_POINTS)
        for name, t, sample in jobs:
            mk = bench.markets[name]
            d = bench.call("density", DENSITY_POINTS,
                           lambda: levyrep.density_batch(mk.model, mk.grid, t, T, ys))
            if d is None:
                continue
            bench.checks.near(f"{name}.density_mass", float(np.trapezoid(d, ys)), 1.0)
            ref = mk.ref.density(T - t, ys[sample])
            for v, r in zip(d[sample], ref):
                bench.checks.near(f"{name}.density", float(v), float(r))


# ---------------------------------------------------------------------------
# workloads
#
# A round holds every operation, so each run reports every end-to-end metric;
# the operations a workload exists for take most of its time, the others run
# at the smallest size that still takes about a second per round.  Why each
# workload exists is stated in BENCHMARK.json and README.md.

WORKLOADS = {
    "merton-paths": lambda: [
        PathsJob("merton", 150, 250), PathsJob("merton", 150, 250),
        PathsJob("merton", 150, 250), SimulateJob(2000, 10), QueriesJob(20),
        GridsJob(("merton",), 4), DensityJob(("merton",))],
    # NIG replication on 200 x 5 rather than fewer paths over more steps: with
    # fewer points per step the table size follows the most extreme state, and
    # the time of one call varied by 20-30% between seeds
    "nig-marks": lambda: [
        SimulateJob(3000, 10), PathsJob("nig", 200, 5, ("replicate",)),
        PathsJob("nig", 200, 5, ("replicate",)), PathsJob("merton", 150, 250, ("fs",)),
        QueriesJob(20), GridsJob(("nig",), 2), DensityJob(("nig",))],
    "queries": lambda: [
        QueriesJob(60), GridsJob(("merton", "nig"), 2), DensityJob(("merton", "nig")),
        PathsJob("merton", 150, 250), SimulateJob(2000, 10)],
}
