"""Path simulation with explicit jump bookkeeping.

Two scheme families:

* ``exact`` — distributionally exact increments: compound Poisson with drift
  for finite-activity models, gamma-difference and inverse-Gaussian
  subordination for the infinite-activity parametric families.
* ``marks`` — jumps of size |y| >= eps_jump as a compound Poisson process with
  marks drawn by inverse-CDF tables, small jumps compensated in the drift and
  optionally replaced by an independent Gaussian with matched variance.

Replaying the stochastic integrals of a representation needs the Brownian
increments and the individual jump marks, so both are recorded per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import config_count, config_number
from .errors import ParameterError, SchemeError
from .fourier import small_jump_moments
from .models import (
    BrownianModel,
    CustomModel,
    LevyModel,
    MertonModel,
    NIGModel,
    VGModel,
    nu_tail_cutoff,
)


@dataclass
class PathBatch:
    """Simulated paths on a uniform grid with jump marks.

    ``x`` holds the state at the grid times; ``dW`` and ``dB`` are the
    Brownian and small-jump-Gaussian increments per step (already scaled by
    sqrt(dt) but not by volatility).  Jumps are stored flat, sorted by time
    (so also by step, and in time order within each path), with exact ties
    in time kept in draw order: ``jump_path``, ``jump_step``, ``jump_time``,
    ``jump_size``.  ``steps()`` walks the grid
    with each step's jumps as slices of that layout; ``select(p)`` is the
    one-path batch of path p.
    """

    model: LevyModel
    T: float
    times: np.ndarray
    x: np.ndarray
    dW: np.ndarray
    dB: np.ndarray
    jump_path: np.ndarray
    jump_step: np.ndarray
    jump_time: np.ndarray
    jump_size: np.ndarray
    scheme: str
    seed: int
    eps_jump: float | None = None
    small_sigma: float = 0.0
    gauss_correction: bool = False

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def nu_eps(self) -> float | None:
        """The truncation level of the jump measure behind the paths:
        ``eps_jump`` on the marks scheme, None (the full measure) otherwise."""
        return self.eps_jump if self.scheme == "marks" else None

    def steps(self):
        """Yield (k, t_k, x_k, jump_path, jump_size) for every step k: the
        grid time and states at the start of the step and the jumps inside
        it, in time order."""
        if np.any(np.diff(self.jump_step) < 0):
            raise SchemeError("jumps are not sorted by step")
        bounds = np.searchsorted(self.jump_step, np.arange(self.n_steps + 1))
        for k in range(self.n_steps):
            jumps = slice(bounds[k], bounds[k + 1])
            yield (k, self.times[k], self.x[:, k],
                   self.jump_path[jumps], self.jump_size[jumps])

    def select(self, p: int) -> "PathBatch":
        """The batch of path p alone; its jumps belong to path 0."""
        sel = self.jump_path == p
        return replace(
            self,
            x=self.x[p : p + 1],
            dW=self.dW[p : p + 1],
            dB=self.dB[p : p + 1],
            jump_path=np.zeros(int(sel.sum()), dtype=int),
            jump_step=self.jump_step[sel],
            jump_time=self.jump_time[sel],
            jump_size=self.jump_size[sel],
        )

    def coarsen(self, factor: int) -> "PathBatch":
        """Subsample to every ``factor``-th grid time, summing the Gaussian
        increments and re-binning the jumps; the driving noise is unchanged,
        so coarse and fine batches share the same paths."""
        if self.n_steps % factor:
            raise ParameterError("coarsening factor must divide n_steps")
        k = self.n_steps // factor
        return replace(
            self,
            times=self.times[::factor],
            x=self.x[:, ::factor],
            dW=self.dW.reshape(self.n_paths, k, factor).sum(axis=2),
            dB=self.dB.reshape(self.n_paths, k, factor).sum(axis=2),
            jump_step=self.jump_step // factor,
        )


def _packed_order(jt, T):
    """One in-place uint64 sort of the keys (fixed-point jt/T in the high
    bits, draw index in the low b bits).  Returns the draw order it gives and
    the sorted keys with the index bits cleared (the kept time prefixes);
    draws whose times share a prefix come out in index order."""
    b = (jt.size - 1).bit_length()
    mask = np.uint64((1 << b) - 1)
    key = (jt * (2.0**63 / T)).astype(np.uint64)
    key &= ~mask
    key |= np.arange(jt.size, dtype=np.uint64)
    key.sort()
    order = (key & mask).view(np.intp)
    key &= ~mask
    return order, key


def _time_order(jt, T):
    """``np.argsort(jt, kind="stable")`` for times in [0, T]: the packed-key
    sort, then the runs of equal prefixes re-ordered by (jt, index).  A
    prefix only grows with jt, so one stable sort by jt over all those
    positions leaves every run in place, and each run is in index order."""
    order, prefix = _packed_order(jt, T)
    tie = np.flatnonzero(prefix[1:] == prefix[:-1])
    if tie.size:
        pos = np.union1d(tie, tie + 1)
        idx = order[pos]
        order[pos] = idx[np.argsort(jt[idx], kind="stable")]
    return order


def _compound_poisson(rng, rate, n_paths, T, sampler):
    """Draw jump counts, times and sizes for a homogeneous compound Poisson
    process observed on [0, T] for each path, sorted by time."""
    counts = rng.poisson(rate * T, n_paths)
    total = int(counts.sum())
    jp = np.repeat(np.arange(n_paths), counts)
    jt = rng.uniform(0.0, T, total)
    jsize = sampler(total)
    order = _time_order(jt, T)
    return jp[order], jt[order], jsize[order]


def _accumulate(x0, drift_dt, sigma, dW, small_sigma, dB, n_steps, jp, jstep, jsize):
    """Assemble paths from drift, Gaussian increments and binned jumps."""
    n_paths = dW.shape[0]
    inc = drift_dt + sigma * dW + small_sigma * dB
    if jsize.size:
        np.add.at(inc.reshape(-1, copy=False), jp * n_steps + jstep, jsize)
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = x0
    np.cumsum(inc, axis=1, out=x[:, 1:])
    x[:, 1:] += x0
    return x


# ---------------------------------------------------------------------------
# mark tables for the truncated compound Poisson scheme

MARK_KNOTS = 4000  # geometric knots of a mark table's CDF per side


@dataclass(frozen=True)
class MarkTable:
    """Inverse-CDF sampler and truncated moments for jumps |y| >= eps.

    ``slopes[j]`` is the slope of knot interval j as ``np.interp`` computes
    it (0 past the last knot) and ``u_next[j]`` its right end (inf past the
    last knot).  ``guide[g]`` is a knot index at or below every u in bucket
    g = floor(u * (guide.size - 1)) of [0, 1]: indexed search (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, III.2.4)."""

    eps: float
    rate: float           # nu(|y| >= eps)
    mean: float           # int_{|y| >= eps} y nu(dy)
    small_var: float      # int_{|y| < eps} y^2 nu(dy)
    u_grid: np.ndarray
    y_grid: np.ndarray
    slopes: np.ndarray
    u_next: np.ndarray
    guide: np.ndarray

    def inverse_cdf(self, u):
        """``np.interp(u, u_grid, y_grid)`` bit for bit, for a 1-D array of
        u >= u_grid[0] = 0: the guide gives each u its knot interval, and
        the draws for which it falls short take a binary search.  Blocks of
        2**15 draws keep the temporaries in cache."""
        y = np.empty_like(u)
        for start in range(0, u.size, 1 << 15):
            b = u[start : start + (1 << 15)]
            j = self.guide[(b * (self.guide.size - 1)).astype(np.intp)]
            short = np.flatnonzero(self.u_next[j] <= b)
            j[short] = np.searchsorted(self.u_grid, b[short], side="right") - 1
            y[start : start + b.size] = self.slopes[j] * (b - self.u_grid[j]) + self.y_grid[j]
        return y

    def sample(self, rng, n):
        return self.inverse_cdf(rng.uniform(0.0, 1.0, n))


@lru_cache(maxsize=32)
def build_mark_table(model: LevyModel, eps: float) -> MarkTable:
    """Tabulate the normalized CDF of nu restricted to |y| >= eps.  Cached
    per (model, eps); the table's arrays are read-only."""
    if isinstance(model, BrownianModel):
        raise SchemeError("mark scheme needs a jump component")
    if not 0 < eps < math.inf:
        raise ParameterError(f"eps_jump must be positive and finite, got {eps!r}")

    pieces = []
    rate = 0.0
    mean = 0.0
    for sgn in (-1.0, 1.0):
        ys = sgn * np.geomspace(eps, nu_tail_cutoff(model, sgn, eps), MARK_KNOTS)
        dens = model.levy_density(ys)
        if not np.any(dens > 0):
            continue
        if sgn < 0:
            ys = ys[::-1]
            dens = dens[::-1]
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(ys))])
        rate += cdf[-1]
        mean += float(np.trapezoid(ys * dens, ys))
        pieces.append((ys, cdf))

    if rate <= 0:
        raise SchemeError(f"no jump mass beyond eps={eps:g}")

    # stitch the signed pieces into one monotone CDF over y
    offset = 0.0
    y_all, u_all = [], []
    for ys, cdf in pieces:
        y_all.append(ys)
        u_all.append((cdf + offset) / rate)
        offset += cdf[-1]
    y_grid = np.concatenate(y_all)
    u_grid = np.concatenate(u_all)
    u_grid, idx = np.unique(u_grid, return_index=True)
    y_grid = y_grid[idx]

    small_var = small_jump_moments(model, eps, 2)[0]
    slopes = np.append(np.diff(y_grid) / np.diff(u_grid), 0.0)
    u_next = np.append(u_grid[1:], np.inf)
    n_buckets = 16 * u_grid.size
    # knots with bucket < g lie below every u of bucket g, as the bucket map
    # is monotone; u_grid[0] = 0 covers the buckets before the first of them
    bucket = (u_grid * n_buckets).astype(np.intp)
    guide = np.searchsorted(bucket, np.arange(n_buckets + 1)) - 1
    np.maximum(guide, 0, out=guide)
    arrays = (u_grid, y_grid, slopes, u_next, guide)
    for a in arrays:
        a.flags.writeable = False
    return MarkTable(eps, float(rate), float(mean), float(small_var), *arrays)


# ---------------------------------------------------------------------------
# schemes


def _simulate_merton_exact(model: MertonModel, T, n_steps, n_paths, rng, seed):
    dt = T / n_steps
    dW = rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt)
    jp, jt, jsize = _compound_poisson(
        rng, model.gamma, n_paths, T,
        lambda n: rng.normal(model.m, model.delta, n),
    )
    jstep = np.minimum((jt / dt).astype(int), n_steps - 1)
    drift = (model.mu - model.gamma * model.m) * dt  # compensated jump mean
    x = _accumulate(model.x0, drift, model.sigma, dW, 0.0,
                    np.zeros_like(dW), n_steps, jp, jstep, jsize)
    return PathBatch(model, T, np.linspace(0.0, T, n_steps + 1), x, dW,
                     np.zeros_like(dW), jp, jstep, jt, jsize, "exact", seed)


def _simulate_brownian(model: BrownianModel, T, n_steps, n_paths, rng, seed):
    dt = T / n_steps
    dW = rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt)
    empty = np.array([], dtype=int)
    x = _accumulate(model.x0, model.mu * dt, model.sigma, dW, 0.0,
                    np.zeros_like(dW), n_steps, empty, empty, np.array([]))
    return PathBatch(model, T, np.linspace(0.0, T, n_steps + 1), x, dW,
                     np.zeros_like(dW), empty, empty, np.array([]), np.array([]),
                     "exact", seed)


def _simulate_vg_exact(model: VGModel, T, n_steps, n_paths, rng, seed):
    """Gamma-difference construction: the jump part is G_p - G_n with
    Gamma(C dt, 1/M) and Gamma(C dt, 1/G) increments, compensated by its
    mean C (1/M - 1/G) dt."""
    dt = T / n_steps
    shape = model.C * dt
    gp = rng.gamma(shape, 1.0 / model.M, (n_paths, n_steps))
    gn = rng.gamma(shape, 1.0 / model.G, (n_paths, n_steps))
    comp = model.C * (1.0 / model.M - 1.0 / model.G) * dt
    inc = model.mu * dt + gp - gn - comp
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = model.x0
    np.cumsum(inc, axis=1, out=x[:, 1:])
    x[:, 1:] += model.x0
    zeros = np.zeros((n_paths, n_steps))
    empty = np.array([], dtype=int)
    return PathBatch(model, T, np.linspace(0.0, T, n_steps + 1), x, zeros,
                     zeros.copy(), empty, empty, np.array([]), np.array([]),
                     "exact", seed)


def _simulate_nig_exact(model: NIGModel, T, n_steps, n_paths, rng, seed):
    """Inverse-Gaussian subordination: I ~ IG(mean = delta dt / gamma0,
    shape = (delta dt)^2), increment b I + sqrt(I) Z, compensated by its mean
    delta b dt / gamma0."""
    dt = T / n_steps
    gamma0 = math.sqrt(model.a**2 - model.b**2)
    mean_i = model.delta * dt / gamma0
    ig = rng.wald(mean_i, (model.delta * dt) ** 2, (n_paths, n_steps))
    z = rng.standard_normal((n_paths, n_steps))
    inc = model.mu * dt + model.b * ig + np.sqrt(ig) * z - model.b * mean_i
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = model.x0
    np.cumsum(inc, axis=1, out=x[:, 1:])
    x[:, 1:] += model.x0
    zeros = np.zeros((n_paths, n_steps))
    empty = np.array([], dtype=int)
    return PathBatch(model, T, np.linspace(0.0, T, n_steps + 1), x, zeros,
                     zeros.copy(), empty, empty, np.array([]), np.array([]),
                     "exact", seed)


def _simulate_marks(model, T, n_steps, n_paths, rng, seed, eps, gauss_correction):
    table = build_mark_table(model, eps)
    dt = T / n_steps
    dW = rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt)
    jp, jt, jsize = _compound_poisson(rng, table.rate, n_paths, T,
                                      lambda n: table.sample(rng, n))
    jstep = np.minimum((jt / dt).astype(int), n_steps - 1)
    small_sigma = math.sqrt(table.small_var) if gauss_correction else 0.0
    dB = rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt) if gauss_correction \
        else np.zeros_like(dW)
    # retained jumps are compensated by their own mean; the omitted small
    # jumps are mean-zero after compensation
    drift = (model.mu - table.mean) * dt
    x = _accumulate(model.x0, drift, model.sigma, dW, small_sigma, dB,
                    n_steps, jp, jstep, jsize)
    return PathBatch(model, T, np.linspace(0.0, T, n_steps + 1), x, dW, dB,
                     jp, jstep, jt, jsize, "marks", seed, eps_jump=eps,
                     small_sigma=small_sigma, gauss_correction=gauss_correction)


def simulate(
    model: LevyModel,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int = 0,
    scheme: str = "exact",
    eps_jump: float = 1e-3,
    gauss_correction: bool | None = None,
) -> PathBatch:
    """Simulate ``n_paths`` paths of X on a uniform grid over [0, T].

    ``gauss_correction`` defaults to on for infinite-activity models (their
    small jumps carry variance that a bare truncation would drop) and off for
    finite-activity ones.
    """
    T = config_number("T", T, "simulate")
    if T <= 0:
        raise ParameterError(f"simulate T must be positive, got {T!r}")
    n_steps = config_count("n_steps", n_steps, "simulate")
    n_paths = config_count("n_paths", n_paths, "simulate")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"simulate seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if scheme == "exact":
        if isinstance(model, MertonModel):
            return _simulate_merton_exact(model, T, n_steps, n_paths, rng, seed)
        if isinstance(model, BrownianModel):
            return _simulate_brownian(model, T, n_steps, n_paths, rng, seed)
        if isinstance(model, VGModel):
            return _simulate_vg_exact(model, T, n_steps, n_paths, rng, seed)
        if isinstance(model, NIGModel):
            return _simulate_nig_exact(model, T, n_steps, n_paths, rng, seed)
        if isinstance(model, CustomModel):
            raise SchemeError("custom models have no exact scheme; use scheme='marks'")
        raise SchemeError(f"no exact scheme for {type(model).__name__}")
    if scheme == "marks":
        if gauss_correction is None:
            gauss_correction = not model.has_finite_variation_jumps
        return _simulate_marks(model, T, n_steps, n_paths, rng, seed, eps_jump,
                               gauss_correction)
    raise SchemeError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# distributional targets


def moments_from_psi(model: LevyModel, t: float):
    """Mean, variance, skewness and excess kurtosis of X_t - x0 implied by
    the characteristic exponent's cumulants."""
    _, m2, m3, m4 = model.nu_moments()
    k1 = model.mu * t
    k2 = (model.sigma**2 + m2) * t
    k3 = m3 * t
    k4 = m4 * t
    return k1, k2, k3 / k2**1.5 if k2 > 0 else 0.0, k4 / k2**2 if k2 > 0 else 0.0
