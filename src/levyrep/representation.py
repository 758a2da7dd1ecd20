"""Martingale-representation integrands and Monte Carlo replication.

For a claim f(X_T) the representation reads

    f(X_T) = E[f(X_T)] + int_0^T u(s, X_s) dW_s
                       + int_0^T int theta(s, X_{s-}, y) N~(ds, dy)

with u(s, x) = sigma dF/dx(s, x) and theta(s, x, y) = F(s, x+y) - F(s, x),
F being the conditional value function.  Payoffs with a one-sided damped
transform go through the contour engine; polynomials go through the
closed-form conditional expectation built from the increment cumulants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, SchemeError
from .fourier import (
    QuadratureGrid,
    _contour,
    _full,
    _make_mult_nu_plain,
    _mult_dx,
    make_mult_nu_truncated,
)
# perfbench/tracing.py wraps make_multi_table in this module by name, so the
# name stays importable here although every table is built by _contour
from .fourier import make_multi_table  # noqa: F401
from .models import BrownianModel, LevyModel
from .payoffs import DampedPayoff, PayoffDecomposition
from .simulate import PathBatch, _jump_cumulants

# integrands are evaluated only for s <= T - NEAR_MATURITY_FRACTION * T; the
# contour degenerates in the final sliver and the last interval is covered by
# the claim's direct evaluation
NEAR_MATURITY_FRACTION = 1e-4

MAX_POLY_DEGREE = 4


def _raw_moments_from_cumulants(k1, k2, k3, k4):
    m1 = k1
    m2 = k2 + k1**2
    m3 = k3 + 3.0 * k2 * k1 + k1**3
    m4 = k4 + 3.0 * k2**2 + 4.0 * k3 * k1 + 6.0 * k2 * k1**2 + k1**4
    return 1.0, m1, m2, m3, m4


def _poly_value_coeffs(model: LevyModel, coeffs, tau: float):
    """Coefficients of x -> E[p(x + Y_tau)] for a polynomial p."""
    if len(coeffs) - 1 > MAX_POLY_DEGREE:
        raise ParameterError(f"polynomial payoffs capped at degree {MAX_POLY_DEGREE}")
    m2j, m3j, m4j = _jump_cumulants(model)
    mom = _raw_moments_from_cumulants(
        model.mu * tau, (model.sigma**2 + m2j) * tau, m3j * tau, m4j * tau
    )
    out = np.zeros(len(coeffs))
    for n, a in enumerate(coeffs):
        for k in range(n + 1):
            out[k] += a * math.comb(n, k) * mom[n - k]
    return out


class _Part:
    """One signed payoff part with batchable F / dF/dx / nu-compensator."""

    def __init__(self, sign, payoff, model, grid, T, nu_eps):
        self.sign = sign
        self.payoff = payoff
        self.model = model
        self.grid = grid
        self.T = T
        self.nu_eps = nu_eps
        self.kind = payoff.kind
        self._has_jumps = not isinstance(model, BrownianModel)
        self._mults = [None, _mult_dx]
        if self._has_jumps and self.kind not in ("constant", "polynomial"):
            if nu_eps is not None:
                self._mults.append(make_mult_nu_truncated(model, nu_eps))
            else:
                self._mults.append(_make_mult_nu_plain(model))

    def evaluate(self, s, xs, n=3):
        """The first n of (F, dF_dx, nu_comp) at the points xs, zeros where
        the part has no such term."""
        if self.kind == "polynomial":
            xs = np.asarray(xs, dtype=float)
            coeffs = _poly_value_coeffs(self.model, self.payoff.params, self.T - s)
            pv = np.polynomial.polynomial.polyval
            F = pv(xs, coeffs)
            dF = pv(xs, np.polynomial.polynomial.polyder(coeffs))
            vals = [F, dF, self._poly_nu_comp(xs, coeffs)][:n]
        else:
            vals, _ = _contour(self.model, self.payoff, self.grid, s, xs, self.T,
                               self._mults[:n])
        return (*vals, *[_full(xs, 0.0)] * (n - len(vals)))

    def _poly_nu_comp(self, xs, coeffs):
        """int (p_tau(x+y) - p_tau(x)) nu(dy) for the polynomial value
        function p_tau: expand in powers of y against nu-moments."""
        if not self._has_jumps:
            return np.zeros_like(xs)
        m1 = self.model.nu_mean()
        m2j, m3j, m4j = _jump_cumulants(self.model)
        numoms = [0.0, m1, m2j, m3j, m4j]
        deg = len(coeffs) - 1
        out = np.zeros_like(xs)
        dcoeffs = coeffs
        for j in range(1, deg + 1):
            dcoeffs = np.polynomial.polynomial.polyder(dcoeffs)
            out += (
                np.polynomial.polynomial.polyval(xs, dcoeffs)
                / math.factorial(j)
                * numoms[j]
            )
        return out


@dataclass(frozen=True)
class RepresentationIntegrands:
    """Callable integrands of the martingale representation."""

    model: LevyModel
    grid: QuadratureGrid
    T: float
    parts: tuple
    mean: float

    def u(self, s: float, x: float) -> float:
        """Diffusion integrand sigma * dF/dx(s, x)."""
        if self.model.sigma == 0.0:
            return 0.0
        dF = sum(part.sign * part.evaluate(s, x, n=2)[1] for part in self.parts)
        return float(self.model.sigma * dF)

    def theta(self, s: float, x: float, y: float) -> float:
        """Jump integrand F(s, x + y) - F(s, x), from one table per part at
        [x, x + y]."""
        if y == 0.0:
            return 0.0
        total = 0.0
        for part in self.parts:
            (F,) = part.evaluate(s, np.array([x, x + y]), n=1)
            total += part.sign * (F[1] - F[0])
        return float(total)

    def value(self, s: float, x: float) -> float:
        """F(s, x) summed over payoff parts."""
        F = sum(part.sign * part.evaluate(s, x, n=1)[0] for part in self.parts)
        return float(F)

    def claim(self, x_T):
        x_T = np.asarray(x_T, dtype=float)
        out = np.zeros_like(x_T)
        for part in self.parts:
            out = out + part.sign * part.payoff.f(x_T)
        return out


def build_integrands(
    model: LevyModel,
    payoff,
    grid: QuadratureGrid,
    T: float,
    nu_eps: float | None = None,
) -> RepresentationIntegrands:
    """Assemble u, theta and the claim mean.

    ``nu_eps`` switches the jump compensator from the full Levy measure to
    its |y| >= nu_eps truncation; replication of a marks-scheme path batch
    must use the batch's own truncation level.
    """
    if isinstance(payoff, PayoffDecomposition):
        raw_parts = payoff.parts
    elif isinstance(payoff, DampedPayoff):
        raw_parts = ((1, payoff),)
    else:
        raise ParameterError("payoff must be a DampedPayoff or PayoffDecomposition")
    parts = tuple(_Part(s, p, model, grid, T, nu_eps) for s, p in raw_parts)
    integrands = RepresentationIntegrands(model, grid, T, parts, 0.0)
    return replace(integrands, mean=integrands.value(0.0, model.x0))


def _check_path_compat(integrands: RepresentationIntegrands, batch: PathBatch):
    dt = batch.dt
    if dt <= NEAR_MATURITY_FRACTION * integrands.T:
        raise SchemeError(
            f"step size {dt:g} reaches inside the near-maturity window "
            f"{NEAR_MATURITY_FRACTION * integrands.T:g}"
        )
    model = integrands.model
    if (
        batch.scheme == "exact"
        and not isinstance(model, BrownianModel)
        and not model.is_finite_activity
    ):
        raise SchemeError(
            "exact infinite-activity paths carry no jump marks; "
            "simulate with scheme='marks' for replication"
        )
    for part in integrands.parts:
        if part.kind in ("constant", "polynomial"):
            continue
        want = batch.eps_jump if batch.scheme == "marks" else None
        if part.nu_eps != want:
            raise SchemeError(
                f"integrands built with nu_eps={part.nu_eps} but path batch "
                f"requires nu_eps={want}; rebuild with build_integrands(..., "
                f"nu_eps={want})"
            )


def replicate_batch(integrands: RepresentationIntegrands, batch: PathBatch) -> dict:
    """Replay the representation along every path of the batch.

    Returns a report dict with per-path replication values, the claim values,
    the mean-squared replication error and Monte Carlo standard errors.
    """
    _check_path_compat(integrands, batch)
    model = integrands.model
    n_paths, n_steps, dt = batch.n_paths, batch.n_steps, batch.dt
    R = np.full(n_paths, integrands.mean)
    for k, s, xk, jp, jy in batch.steps():
        # one table per step prices both the grid states and the post-jump
        # states
        pts = np.concatenate([xk, xk[jp] + jy])
        for part in integrands.parts:
            F_all, dF_all, comp = part.evaluate(s, pts)
            if model.sigma != 0.0:
                R += part.sign * model.sigma * dF_all[:n_paths] * batch.dW[:, k]
            R -= part.sign * comp[:n_paths] * dt
            np.add.at(R, jp, part.sign * (F_all[n_paths:] - F_all[:n_paths][jp]))
    claim = integrands.claim(batch.x[:, -1])
    err = claim - R
    mse = float(np.mean(err**2))
    return {
        "n_paths": n_paths,
        "n_steps": n_steps,
        "mse": mse,
        "mean_claim": float(np.mean(claim)),
        "mean_replication": float(np.mean(R)),
        "se": float(np.std(R, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0,
        "replication": R,
        "claim": claim,
    }


def replicate_on_path(integrands: RepresentationIntegrands, batch: PathBatch,
                      path_index: int = 0) -> float:
    """Terminal replication value for a single path of the batch."""
    return float(replicate_batch(integrands, batch.select(path_index))["replication"][0])
