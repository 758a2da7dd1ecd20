"""Minimal martingale measure machinery for S_t = e^{rt + X_t}.

The measure change is driven by two constants of the base triplet,

    C2    = int (e^x - 1)^2 nu(dx),
    mu_hat = mu + sigma^2/2 + int (e^x - 1 - x) nu(dx),

which combine into the load lambda = mu_hat / (sigma^2 + C2).  Under the new
measure the Brownian motion gains drift lambda*sigma and the Levy measure is
tilted by the factor 1 - lambda (e^x - 1); the discounted price is then a
martingale, equivalently psi*(-i) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionError,
    DomainError,
    InconclusiveError,
    ParameterError,
)
from .fourier import QuadratureGrid, density as _density, truncated_nu_nodes
from .models import (
    BrownianModel,
    LevyModel,
    check_decay_condition,
    check_exponential_moment,
)
from .simulate import PathBatch

MARTINGALE_TOL = 1e-8


@dataclass(frozen=True)
class MarketSpec:
    """Market data: rate r, horizon T, strike K, and the log-price driver."""

    r: float
    T: float
    K: float
    model: LevyModel

    def __post_init__(self):
        if self.r < 0:
            raise ParameterError("interest rate must be nonnegative")
        if self.T <= 0:
            raise ParameterError("horizon must be positive")
        if self.K <= 0:
            raise ParameterError("strike must be positive")

    def strike_level(self) -> float:
        """log K - rT: the digital option on S_T is a digital on X_T at this
        level."""
        return math.log(self.K) - self.r * self.T


@dataclass(frozen=True)
class StarModel(LevyModel):
    """The base triplet viewed under the minimal martingale measure.

    Exposes the same interface as the physical models, so the contour engine
    and simulator run unchanged on star data.  ``load`` is
    mu_hat / (sigma^2 + C2); the Levy density is tilted by
    1 - load (e^x - 1) and the drift is the unique constant making the
    discounted price a martingale.
    """

    base: LevyModel = None
    load: float = 0.0
    m1e: float = 0.0  # int x (e^x - 1) nu(dx) of the base measure

    kind = "star"

    def __post_init__(self):
        super().__post_init__()
        if self.base is None:
            raise ParameterError("StarModel needs a base model")

    def star_density_factor(self, x):
        # clipped exp: beyond the clip the base density is identically zero
        ex = np.exp(np.minimum(np.asarray(x, dtype=float), 700.0))
        return 1.0 - self.load * (ex - 1.0)

    def levy_density(self, x):
        return self.star_density_factor(x) * self.base.levy_density(x)

    def jump_exponent(self, w):
        w = np.asarray(w, dtype=complex)
        lo, hi = self.exp_moment_strip()
        im = np.imag(w)
        if np.any(-im <= lo) or np.any(-im >= hi):
            raise DomainError("star jump exponent outside moment strip")
        j = self.base.jump_exponent
        cross = j(w - 1j) - j(w) - j(-1j) - 1j * w * self.m1e
        return j(w) - self.load * cross

    def exp_moment_strip(self):
        lo, hi = self.base.exp_moment_strip()
        if self.load == 0.0:
            return lo, hi
        # the tilt adds one unit of exponential weight on the right tail
        return lo, hi - 1.0

    def nu_mean(self):
        return self.base.nu_mean() - self.load * self.m1e

    def nu_second_moment(self):
        # int x^2 nu* = int x^2 nu - load int x^2 (e^x - 1) nu, where
        # int x^2 e^{ux} nu = g''(u) for g(u) = int (e^{ux} - 1 - ux) nu
        h = 1e-4
        g = self.base.exp_jump_cumulant
        m2 = self.base.nu_second_moment()
        d2_at_1 = (g(1.0 + h) - 2.0 * g(1.0) + g(1.0 - h)) / h**2
        return float(m2 - self.load * (d2_at_1 - m2))

    @property
    def is_finite_activity(self):
        return self.base.is_finite_activity

    @property
    def has_finite_variation_jumps(self):
        return self.base.has_finite_variation_jumps


@dataclass(frozen=True)
class MmmTransform:
    """All derived measure-change data for a market."""

    market: MarketSpec
    c2: float
    mu_hat: float
    load: float          # mu_hat / (sigma^2 + C2)
    girsanov_w: float    # Brownian drift shift  mu_hat sigma / (sigma^2 + C2)
    mu_star: float
    star: StarModel

    def star_density_factor(self, x):
        return self.star.star_density_factor(x)

    def psi_star(self, z):
        return self.star.psi(z)


def build_mmm(market: MarketSpec) -> MmmTransform:
    """Construct the measure change; raises AssumptionError when the load
    constants violate 0 >= mu_hat > -sigma^2 - C2 or C2 diverges."""
    model = market.model
    sigma = model.sigma
    if isinstance(model, BrownianModel):
        c2 = 0.0
        mu_hat = model.mu + 0.5 * sigma**2
        m1e = 0.0
    else:
        lo, hi = model.exp_moment_strip()
        if hi <= 2.0:
            raise AssumptionError(
                f"C2 = int (e^x-1)^2 nu diverges: moment strip upper end {hi:g} <= 2"
            )
        c2 = model.c2()
        mu_hat = model.mu + 0.5 * sigma**2 + model.exp_jump_cumulant(1.0)
        m1e = model.nu_mean_exp()
    denom = sigma**2 + c2
    if denom <= 0:
        raise AssumptionError("sigma^2 + C2 = 0: the asset carries no risk")
    if mu_hat > 0 or mu_hat <= -denom:
        raise AssumptionError(
            f"need 0 >= mu_hat > -(sigma^2 + C2); got mu_hat = {mu_hat:.6g}, "
            f"-(sigma^2 + C2) = {-denom:.6g}"
        )
    load = mu_hat / denom
    mu_star = model.mu - sigma**2 * load - load * m1e
    star = StarModel(x0=model.x0, mu=mu_star, sigma=sigma, base=model,
                     load=load, m1e=m1e)
    resid = abs(complex(star.psi(np.array(-1j))))
    if resid > MARTINGALE_TOL:
        raise AssumptionError(
            f"martingale identity psi*(-i) = 0 fails: residual {resid:.3g}"
        )
    return MmmTransform(market, c2, mu_hat, load, load * sigma, mu_star, star)


def psi_star(transform: MmmTransform, z) -> complex:
    out = transform.star.psi(np.asarray(z, dtype=complex))
    return complex(out) if out.ndim == 0 else out


def density_star(transform: MmmTransform, grid: QuadratureGrid, t: float, y):
    """p*_t(y): density of X_T - X_t under the minimal martingale measure."""
    return _density(transform.star, grid, t, transform.market.T, y)


def mmm_log_density(transform: MmmTransform, batch: PathBatch,
                    path_index: int | None = None):
    """log(dP~/dP) along simulated physical-measure paths.

    The Brownian part contributes -g W_T - g^2 T / 2 with g = girsanov_w; the
    jump part contributes the sum of log factors over realized marks minus
    the time compensator T int (factor - 1) nu(dy), restricted to
    |y| >= eps_jump when the batch truncates its jumps.
    """
    T = batch.T
    g = transform.girsanov_w
    w_T = batch.dW.sum(axis=1)
    out = -g * w_T - 0.5 * g * g * T
    model = transform.market.model
    if not isinstance(model, BrownianModel):
        factors = transform.star_density_factor(batch.jump_size)
        if np.any(factors <= 0.0):
            bad = batch.jump_size[factors <= 0.0][0]
            raise DomainError(
                f"measure change degenerates: density factor <= 0 at jump {bad:g}"
            )
        logs = np.zeros(batch.n_paths)
        np.add.at(logs, batch.jump_path, np.log(factors))
        if batch.scheme == "marks":
            ys, wts = truncated_nu_nodes(model, batch.eps_jump)
            comp = float((transform.star_density_factor(ys) - 1.0) @ wts)
        else:
            # int (factor - 1) nu = -load int (e^x - 1) nu
            comp = -transform.load * (
                model.exp_jump_cumulant(1.0) + model.nu_mean()
            )
        out += logs - T * comp
    if path_index is not None:
        return float(out[path_index])
    return out


@dataclass
class Assumption3Check:
    ok: bool
    c2_finite: bool
    mu_hat_ok: bool
    decay_ok: bool
    c2: float | None
    mu_hat: float | None
    detail: str

    def __bool__(self):
        return self.ok


def check_assumption3(market: MarketSpec, alpha: float = 1.0,
                      t: float = 0.0) -> Assumption3Check:
    """Three-part diagnostic: C2 < infinity, the drift inequality, and the
    contour-decay test applied to the star data."""
    model = market.model
    if isinstance(model, BrownianModel):
        mu_hat = model.mu + 0.5 * model.sigma**2
        ok2 = 0.0 >= mu_hat > -model.sigma**2
        return Assumption3Check(ok2, True, ok2, True, 0.0, mu_hat,
                                "no jumps; decay automatic" if ok2 else
                                f"drift inequality fails: mu_hat = {mu_hat:g}")
    mc = check_exponential_moment(model, 2.0)
    if not mc.ok:
        return Assumption3Check(False, False, False, False, None, None,
                                f"C2 diverges: {mc.detail}")
    c2 = model.c2()
    mu_hat = model.mu + 0.5 * model.sigma**2 + model.exp_jump_cumulant(1.0)
    denom = model.sigma**2 + c2
    ok2 = (0.0 >= mu_hat > -denom) and denom > 0
    if not ok2:
        return Assumption3Check(
            False, True, False, False, c2, mu_hat,
            f"need 0 >= mu_hat > {-denom:.6g}; got {mu_hat:.6g}")
    transform = build_mmm(market)
    try:
        # the hedging-side decay must hold uniformly up to maturity, so the
        # test window extends to tbar = 0.98 T
        dc = check_decay_condition(
            transform.star, alpha, t, market.T, tbar_hi=0.98 * market.T
        )
        ok3 = bool(dc.ok)
        detail = dc.detail
    except DomainError as exc:
        ok3, detail = False, f"decay check domain error: {exc}"
    except InconclusiveError as exc:
        ok3, detail = False, f"decay test inconclusive: {exc}"
    return Assumption3Check(ok3, True, True, ok3, c2, mu_hat,
                            detail if ok3 else f"decay test fails: {detail}")
