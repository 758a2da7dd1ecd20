"""Payoff catalog: terminal functions f with their damped Fourier transforms
ghat(x, z) = int e^{izy} f(x + y) dy = e^{-izx} ghat(0, z), signed
decompositions, and checks that f e^{-alpha x} is L^1 with finite variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .errors import DomainError, ParameterError, QuadratureError
from .models import LevyModel

SQRT_PI_OVER_2 = math.sqrt(math.pi) / 2.0  # Gamma(3/2)


@dataclass(frozen=True)
class DampedPayoff:
    """A payoff f together with its damped transform ghat(0, z).

    ``alpha_interval`` is the open interval of admissible damping exponents
    (Im z for which the transform integral converges); ``osc_center`` is the
    payoff's discontinuity/kink location, which sets the oscillation
    frequency |x - osc_center| of the contour integrand.
    """

    kind: str
    f: Callable[[np.ndarray], np.ndarray]
    transform0: Callable[[np.ndarray], np.ndarray] | None
    alpha_interval: tuple[float, float]
    alpha: float
    osc_center: float = 0.0
    params: tuple = ()

    def transform(self, x, z):
        """ghat(x, z) via the translation identity."""
        z = np.asarray(z, dtype=complex)
        self._check_domain(z)
        return np.exp(-1j * z * x) * self.transform0(z)

    def _check_domain(self, z):
        lo, hi = self.alpha_interval
        im = np.imag(np.asarray(z, dtype=complex))
        if np.any(im <= lo) or np.any(im >= hi):
            raise DomainError(
                f"{self.kind} transform needs Im(z) in ({lo:g}, {hi:g})"
            )

    def transform_contour(self, zs):
        """ghat(0, -i z_v) for contour values z_v = iv - alpha; the argument
        passed to transform0 is -i z_v = v + i alpha."""
        return self.transform(0.0, -1j * np.asarray(zs, dtype=complex))


def digital_payoff(c: float, alpha: float = 1.0) -> DampedPayoff:
    """Indicator payoff 1_{x >= c}; ghat(x, z) = -(1/(iz)) e^{iz(c - x)}."""

    def f(x):
        return (np.asarray(x, dtype=float) >= c).astype(float)

    def transform0(z):
        z = np.asarray(z, dtype=complex)
        return -np.exp(1j * z * c) / (1j * z)

    return DampedPayoff(
        kind="digital", f=f, transform0=transform0,
        alpha_interval=(0.0, math.inf), alpha=alpha, osc_center=c, params=(c,),
    )


def exp_indicator_payoff(alpha: float = 2.5) -> DampedPayoff:
    """f(x) = e^x 1_{x > 0}; ghat(0, z) = -1/(iz + 1), Im z > 1."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, np.exp(x), 0.0)

    def transform0(z):
        z = np.asarray(z, dtype=complex)
        return -1.0 / (1j * z + 1.0)

    return DampedPayoff(
        kind="exp_indicator", f=f, transform0=transform0,
        alpha_interval=(1.0, math.inf), alpha=alpha, osc_center=0.0,
    )


def sqrt_plus_payoff(alpha: float = 1.0) -> DampedPayoff:
    """f_+(x) = sqrt(max(x, 0)); ghat_+(0, z) = Gamma(3/2) (-iz)^{-3/2}."""

    def f(x):
        return np.sqrt(np.maximum(np.asarray(x, dtype=float), 0.0))

    def transform0(z):
        z = np.asarray(z, dtype=complex)
        return SQRT_PI_OVER_2 * (-1j * z) ** -1.5

    return DampedPayoff(
        kind="sqrt_plus", f=f, transform0=transform0,
        alpha_interval=(0.0, math.inf), alpha=alpha, osc_center=0.0,
    )


def sqrt_minus_payoff(alpha: float = -1.0) -> DampedPayoff:
    """f_-(x) = sqrt(max(-x, 0)); reflected damping, Im z < 0."""

    def f(x):
        return np.sqrt(np.maximum(-np.asarray(x, dtype=float), 0.0))

    def transform0(z):
        z = np.asarray(z, dtype=complex)
        return SQRT_PI_OVER_2 * (1j * z) ** -1.5

    return DampedPayoff(
        kind="sqrt_minus", f=f, transform0=transform0,
        alpha_interval=(-math.inf, 0.0), alpha=alpha, osc_center=0.0,
    )


def polynomial_payoff(coeffs: Sequence[float]) -> DampedPayoff:
    """Polynomial payoff; no damped L^1 transform on both tails, so it is
    routed to the conditional-expectation representation instead of the
    Fourier path."""
    coeffs = tuple(float(c) for c in coeffs)

    def f(x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

    return DampedPayoff(
        kind="polynomial", f=f, transform0=None,
        alpha_interval=(0.0, 0.0), alpha=0.0, params=coeffs,
    )


def constant_payoff(value: float) -> DampedPayoff:
    """Constant claim; trivial representation (no transform needed)."""
    return DampedPayoff(
        kind="constant",
        f=lambda x: np.full_like(np.asarray(x, dtype=float), value),
        transform0=None, alpha_interval=(0.0, 0.0), alpha=0.0, params=(value,),
    )


@dataclass(frozen=True)
class PayoffDecomposition:
    """Signed parts whose pointwise sum is the target payoff."""

    parts: tuple[tuple[int, DampedPayoff], ...]

    def f(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for sign, part in self.parts:
            out = out + sign * part.f(x)
        return out


def sqrt_abs_decomposition() -> PayoffDecomposition:
    """sqrt(|x|) = sqrt(max(x,0)) + sqrt(max(-x,0))."""
    return PayoffDecomposition(parts=((1, sqrt_plus_payoff()), (1, sqrt_minus_payoff())))


def sqrt_parts_transform(part: str, x: float, z: complex) -> complex:
    """ghat_+-(x, z) by damped numeric quadrature.

    The endpoint singularity at y = -x is removed by the substitution
    y = -x + u^2.  The closed-form Gamma expression in the payoff catalog is
    the fast path; this op is the independent quadrature route.
    """
    z = complex(z)
    if part == "+":
        if z.imag <= 0.0:
            raise DomainError("sqrt_plus transform needs Im(z) > 0")
        s = 1j * z
    elif part == "-":
        if z.imag >= 0.0:
            raise DomainError("sqrt_minus transform needs Im(z) < 0")
        s = -1j * z
    else:
        raise ParameterError("part must be '+' or '-'")

    # int_{-x}^inf e^{izy} sqrt(x+y) dy = e^{-izx} int_0^inf e^{izt} sqrt(t) dt
    # -> substitute t = u^2:  2 int_0^inf u^2 e^{s u^2} du with Re(s) < 0.
    decay = -s.real
    cut = math.sqrt(80.0 / decay)

    def g(u):
        return 2.0 * u * u * np.exp(s * u * u)

    val, err = integrate.quad(g, 0.0, cut, complex_func=True, limit=400)
    if abs(err) > 1e-7 * (1.0 + abs(val)):
        raise QuadratureError(f"sqrt transform quadrature error {err:g}")
    return complex(np.exp(-1j * z * x) * val)


def derivative_transform(part: str, x: float, z: complex) -> complex:
    """ghat_{D+-}(x, z) = -iz ghat_{+-}(x, z)."""
    return -1j * complex(z) * sqrt_parts_transform(part, x, z)


@dataclass
class Assumption2Check:
    ok: bool
    detail: str
    l1_norm: float | None = None
    total_variation: float | None = None

    def __bool__(self):
        return self.ok


def check_assumption2(payoff: DampedPayoff, model: LevyModel | None = None) -> Assumption2Check:
    """Is f(x) e^{-alpha x} an L^1 function of finite variation (and f(X_T)
    square integrable)?  Analytic verdicts for cataloged kinds, numeric
    estimates otherwise."""
    alpha = payoff.alpha
    if payoff.kind == "digital":
        return Assumption2Check(True, "indicator: automatically satisfied for any alpha > 0")
    if payoff.kind == "constant":
        value = payoff.params[0]
        if value == 0.0:
            return Assumption2Check(True, "zero function")
        return Assumption2Check(alpha > 0, "constant: L1 and finite variation after damping")
    if payoff.kind == "exp_indicator":
        ok = alpha > 1.0
        return Assumption2Check(ok, f"e^x indicator: needs alpha > 1 (alpha={alpha:g})")
    if payoff.kind == "sqrt_plus":
        ok = alpha > 0.0
        return Assumption2Check(ok, "sqrt(x+) part: satisfied with positive damping")
    if payoff.kind == "sqrt_minus":
        ok = alpha < 0.0
        return Assumption2Check(ok, "sqrt((-x)+) part: satisfied with reflected damping")
    if payoff.kind == "sqrt_abs":
        return Assumption2Check(
            False, "sqrt|x| is not damped-L1 for any single alpha; decompose into +- parts"
        )
    if payoff.kind == "polynomial":
        return Assumption2Check(
            False, "polynomial: no damped L1 transform on both tails; "
            "routed to the conditional-expectation representation"
        )
    # numeric route for custom payoffs
    xs = np.linspace(-60.0, 60.0, 20001)
    vals = payoff.f(xs) * np.exp(-alpha * xs)
    l1 = float(np.trapezoid(np.abs(vals), xs))
    tv = float(np.sum(np.abs(np.diff(vals))))
    edge = max(abs(vals[0]), abs(vals[-1]))
    ok = np.isfinite(l1) and np.isfinite(tv) and edge < 1e-10
    return Assumption2Check(ok, f"numeric estimate (L1={l1:.4g}, TV={tv:.4g})", l1, tv)


def raw_sqrt_abs_payoff() -> DampedPayoff:
    """Undecomposed sqrt(|x|); fails the damped-L1 check for every alpha."""
    return DampedPayoff(
        kind="sqrt_abs",
        f=lambda x: np.sqrt(np.abs(np.asarray(x, dtype=float))),
        transform0=None, alpha_interval=(0.0, 0.0), alpha=1.0,
    )


def payoff_from_dict(spec: dict):
    """Build a payoff (or decomposition) from a JSON-style dict."""
    kind = spec.get("kind")
    if kind == "digital":
        return digital_payoff(float(spec["strike_level"]), float(spec.get("alpha", 1.0)))
    if kind == "exp_indicator":
        return exp_indicator_payoff(float(spec.get("alpha", 2.5)))
    if kind == "sqrt_abs":
        return sqrt_abs_decomposition()
    if kind == "polynomial":
        return polynomial_payoff(spec["coeffs"])
    if kind == "constant":
        return constant_payoff(float(spec["value"]))
    raise ParameterError(f"unknown payoff kind {kind!r}")
