"""Locally risk-minimizing hedge ratios for digital options and path studies
of the associated orthogonal decomposition.

For the claim H = 1_{S_T >= K} with S_t = e^{rt + X_t}, the hedge ratio is

    xi_t = e^{-rT} / (S^_{t-} (sigma^2 + C2))
           * ( kappa_t sigma^2 + int Psi*_t(K, y) (e^y - 1) nu(dy) ),

with S^ the discounted price, kappa_t = p*_t(log K - rT - X_t) and
Psi*_t(K, y) = F*(t, X_{t-} + y) - F*(t, X_{t-}), all star quantities taken
under the minimal martingale measure.  The nu-integral collapses to a single
contour quadrature through the multiplier J(w - i) - J(w) - J(-i) built from
the physical jump exponent J, which handles the small-jump singularity in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .fourier import (
    QuadratureGrid,
    _contour,
    _full,
    _make_mult_nu_plain,
    _mult_dx,
    make_mult_nu_truncated,
    truncated_nu_nodes,
)
# perfbench/tracing.py wraps make_multi_table in this module by name, so the
# name stays importable here although every table is built by _contour
from .fourier import make_multi_table  # noqa: F401
from .mmm import MarketSpec, MmmTransform
from .models import BrownianModel
from .payoffs import digital_payoff
from .simulate import PathBatch


@dataclass
class HedgeState:
    """Snapshot of the hedge along a path."""

    t: float
    x_t: float
    s_hat: float
    xi: float
    eta: float
    l_fs: float
    v_hat: float


@dataclass
class HedgeComponents:
    kappa: float
    nu_integral: float
    xi: float
    err_estimate: float


def _hedge_multipliers(market: MarketSpec, eps: float | None, with_comp: bool):
    """Contour multipliers for (F*, kappa, nu-integral, Psi*-compensator)
    under the star measure, up to the last one that exists (the compensator
    only ``with_comp``); closed-form jump exponents when the full Levy measure
    is used, truncated quadrature when the path scheme drops |y| < eps."""
    model = market.model
    mults = [None, _mult_dx]
    if isinstance(model, BrownianModel):
        return mults

    if eps is None:
        j = model.jump_exponent
        j_mi = j(np.array(-1j))

        def mult_exp(zs):
            w = 1j * zs
            return j(w - 1j) - j(w) - j_mi

        mults.append(mult_exp)
        if with_comp and model.has_finite_variation_jumps:
            mults.append(_make_mult_nu_plain(model))
        return mults

    mults.append(make_mult_nu_truncated(model, eps, weight=lambda y: np.exp(y) - 1.0))
    if with_comp:
        mults.append(make_mult_nu_truncated(model, eps))
    return mults


def _exp_jump_mean(market: MarketSpec, eps: float | None) -> float:
    """int (e^y - 1) nu(dy), truncated to |y| >= eps when requested."""
    model = market.model
    if isinstance(model, BrownianModel):
        return 0.0
    if eps is None:
        return model.exp_jump_cumulant(1.0) + model.nu_mean()
    ys, wts = truncated_nu_nodes(model, eps)
    return float((np.exp(ys) - 1.0) @ wts)


def hedge_components_batch(
    market: MarketSpec,
    transform: MmmTransform,
    grid: QuadratureGrid,
    t: float,
    xs,
    eps: float | None = None,
    with_psi_compensator: bool = False,
):
    """kappa, nu-integral and xi*S^ for a batch of states at one time.

    Returns (F_star, kappa, nu_integral, psi_comp, err): arrays of xs's
    shape, floats for a scalar state, zeros for the terms the model lacks;
    xi follows as e^{-rT} (kappa sigma^2 + nu_integral) / (s_hat (sigma^2 + C2)).
    """
    if not t < market.T:
        raise DomainError("hedge components need t < T")
    payoff = digital_payoff(market.strike_level(), alpha=grid.alpha)
    mults = _hedge_multipliers(market, eps, with_psi_compensator)
    vals, err = _contour(transform.star, payoff, grid, t, xs, market.T, mults)
    return (*vals, *[_full(xs, 0.0)] * (4 - len(vals)), err)


def _lrm_ratio(market: MarketSpec, transform: MmmTransform, s_hat, kappa, nu_int):
    """xi = e^{-rT} (kappa sigma^2 + nu_integral) / (S^ (sigma^2 + C2))."""
    sigma = market.model.sigma
    return (
        math.exp(-market.r * market.T) / (s_hat * (sigma**2 + transform.c2))
        * (kappa * sigma**2 + nu_int)
    )


def lrm_xi(
    market: MarketSpec,
    transform: MmmTransform,
    grid: QuadratureGrid,
    t: float,
    x_t: float,
    s_hat_minus: float,
) -> float:
    """Units of the risky asset held by the locally risk-minimizing strategy."""
    if s_hat_minus <= 0:
        raise ParameterError("discounted price must be positive")
    _, kappa, nu_int, _, _ = hedge_components_batch(market, transform, grid, t, x_t)
    return float(_lrm_ratio(market, transform, s_hat_minus, kappa, nu_int))


def hedge_components(market, transform, grid, t, x_t) -> HedgeComponents:
    _, kappa, nu_int, _, err = hedge_components_batch(market, transform, grid, t, x_t)
    xi = _lrm_ratio(market, transform, math.exp(x_t), kappa, nu_int)
    return HedgeComponents(kappa, nu_int, float(xi), err)


def hedge_grid(
    market: MarketSpec,
    transform: MmmTransform,
    grid: QuadratureGrid,
    n_t: int = 50,
    n_s: int = 101,
    s_lo: float | None = None,
    s_hi: float | None = None,
):
    """Hedge-ratio term structure on a (t, S) grid, log-spaced in S around K.

    Returns a list of rows (t, S, xi, kappa, nu_integral, err_estimate).
    """
    if s_lo is None:
        s_lo = 0.5 * market.K
    if s_hi is None:
        s_hi = 2.0 * market.K
    ts = np.linspace(0.0, 0.98 * market.T, n_t)
    ss = np.geomspace(s_lo, s_hi, n_s)
    rows = []
    for t in ts:
        xs = np.log(ss) - market.r * t  # X_t with S_t = e^{rt + X_t}
        _, kappa, nu_int, _, err = hedge_components_batch(
            market, transform, grid, t, xs
        )
        xi = _lrm_ratio(market, transform, np.exp(xs), kappa, nu_int)
        for s, k_, n_, x_ in zip(ss, kappa, nu_int, xi):
            rows.append((float(t), float(s), float(x_), float(k_), float(n_), err))
    return rows


# ---------------------------------------------------------------------------
# path studies


def fs_path_study(
    market: MarketSpec,
    transform: MmmTransform,
    grid: QuadratureGrid,
    batch: PathBatch,
    xi_scale: float = 1.0,
) -> dict:
    """Accumulate the hedge's gains, the orthogonal remainder L^H and the
    empirical bracket [L^H, M^] along every path of a physical-measure batch.

    ``xi_scale`` perturbs the hedge ratio (1.0 = the optimal strategy); the
    bracket statistic is the negative-control lever.
    """
    model = market.model
    if batch.scheme == "marks":
        eps = batch.eps_jump
    else:
        eps = None
        if not (isinstance(model, BrownianModel) or model.is_finite_activity):
            raise DomainError(
                "exact infinite-activity paths carry no jump marks; "
                "use scheme='marks' for decomposition studies"
            )
    sigma = model.sigma
    disc = math.exp(-market.r * market.T)
    m1_exp = _exp_jump_mean(market, eps)
    n_paths, n_steps, dt = batch.n_paths, batch.n_steps, batch.dt

    gains = np.zeros(n_paths)
    l_fs = np.zeros(n_paths)
    bracket = np.zeros(n_paths)
    h0 = np.zeros(n_paths)

    for k, t, xk, jp, jy in batch.steps():
        s_hat = np.exp(xk)
        pts = np.concatenate([xk, xk[jp] + jy])
        F_all, kappa, nu_int, psi_comp, _ = hedge_components_batch(
            market, transform, grid, t, pts, eps=eps, with_psi_compensator=True
        )
        F = F_all[:n_paths]
        kappa = kappa[:n_paths]
        nu_int = nu_int[:n_paths]
        psi_comp = psi_comp[:n_paths]
        if k == 0:
            h0 = disc * F.copy()  # per-path H^_0 = e^{-rT} F*(0, X_0)
        xi = xi_scale * _lrm_ratio(market, transform, s_hat, kappa, nu_int)

        # hedge gains against the discounted price
        s_next = np.exp(batch.x[:, k + 1])
        gains += xi * (s_next - s_hat)

        # L^H: diffusion part plus compensated jump part
        a = disc * kappa - xi * s_hat
        if sigma > 0:
            l_fs += a * sigma * batch.dW[:, k]
            # continuous part of the covariation with M^
            bracket += a * sigma * s_hat * sigma * dt
        comp = disc * psi_comp - xi * s_hat * m1_exp
        l_fs -= comp * dt
        psi_star_j = F_all[n_paths:] - F[jp]
        dl = disc * psi_star_j - xi[jp] * s_hat[jp] * (np.exp(jy) - 1.0)
        np.add.at(l_fs, jp, dl)
        # jump part of the covariation with dM^ = S^_{-}(e^y - 1)
        np.add.at(bracket, jp, dl * s_hat[jp] * (np.exp(jy) - 1.0))

    x_T = batch.x[:, -1]
    claim = disc * (x_T >= market.strike_level()).astype(float)
    identity_err = claim - (h0 + gains + l_fs)
    n = n_paths
    return {
        "n_paths": n,
        "n_steps": n_steps,
        "xi_scale": xi_scale,
        "h0": float(np.mean(h0)),
        "claim_mean": float(np.mean(claim)),
        "l_fs": l_fs,
        "gains": gains,
        "bracket": bracket,
        "identity_err": identity_err,
        "mean_l": float(np.mean(l_fs)),
        "se_l": float(np.std(l_fs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        "mean_bracket": float(np.mean(bracket)),
        "se_bracket": float(np.std(bracket, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        "identity_mse": float(np.mean(identity_err**2)),
    }


def fs_decomposition_on_path(
    market: MarketSpec,
    transform: MmmTransform,
    grid: QuadratureGrid,
    batch: PathBatch,
    path_index: int = 0,
) -> dict:
    """Decomposition report for a single path: terminal identity error,
    running orthogonal remainder and final risk-free position eta."""
    single = batch.select(path_index)
    report = fs_path_study(market, transform, grid, single)
    v_hat_T = report["h0"] + report["gains"][0] + report["l_fs"][0]
    x_last = single.x[0, -1]
    t_last = single.times[-2]
    xi_last = lrm_xi(market, transform, grid, t_last, single.x[0, -2],
                     math.exp(single.x[0, -2]))
    report["state"] = HedgeState(
        t=float(single.times[-1]),
        x_t=float(x_last),
        s_hat=float(math.exp(x_last)),
        xi=xi_last,
        eta=float(v_hat_T - xi_last * math.exp(x_last)),
        l_fs=float(report["l_fs"][0]),
        v_hat=float(v_hat_T),
    )
    return report


def orthogonality_check(
    market: MarketSpec,
    transform: MmmTransform,
    grid: QuadratureGrid,
    batch: PathBatch,
    xi_scale: float = 1.0,
) -> dict:
    """Mean and standard error of the empirical covariation [L^H, M^]_T."""
    report = fs_path_study(market, transform, grid, batch, xi_scale=xi_scale)
    mean, se = report["mean_bracket"], report["se_bracket"]
    return {
        "mean": mean,
        "se": se,
        "z": mean / se if se > 0 else 0.0,
        "n_paths": report["n_paths"],
        "xi_scale": xi_scale,
    }
