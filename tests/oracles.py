"""Independent quadrature oracles that the tests compare the package's closed
forms against: the jump exponent, the square-root payoff transforms and the
large-argument form of K1."""

import math

import numpy as np
from scipy import integrate

from levyrep.errors import DomainError, ParameterError, QuadratureError
from levyrep.models import SMALL_JUMP_SPLIT


def jump_exponent_quadrature(model, w: complex, split: float = SMALL_JUMP_SPLIT):
    """Brute-force quadrature of int (e^{iwx} - 1 - iwx) nu(dx); the
    independent oracle for the closed-form jump exponents."""
    w = complex(w)
    total = 0.0 + 0.0j
    growth = abs(w.imag)
    for sgn in (1.0, -1.0):
        # finite cutoff where density * e^{|Im w| |x|} is negligible
        cut = 2.0
        while cut < 1e4:
            d = float(model.levy_density(np.array(sgn * cut)))
            if d <= 0.0 or math.log(d) + growth * cut < -45.0:
                break
            cut *= 2.0

        def f(x, sgn=sgn):
            x = sgn * x
            d = float(model.levy_density(np.array(x)))
            return (np.exp(1j * w * x) - 1.0 - 1j * w * x) * d

        val, _ = integrate.quad(f, split, cut, complex_func=True, limit=400)
        total += val
    # small-|x| Taylor part
    for sgn in (1.0, -1.0):
        for k, coef in ((2, (1j * w) ** 2 / 2.0), (3, (1j * w) ** 3 / 6.0), (4, (1j * w) ** 4 / 24.0)):
            mom, _ = integrate.quad(
                lambda u, k=k: u**k * float(model.levy_density(np.array(sgn * u))),
                0.0,
                split,
            )
            total += coef * sgn**k * mom
    return total


def sqrt_parts_transform(part: str, x: float, z: complex) -> complex:
    """ghat_+-(x, z) by damped numeric quadrature.

    The endpoint singularity at y = -x is removed by the substitution
    y = -x + u^2.  The closed-form Gamma expression in the payoff catalog is
    the fast path; this is the independent quadrature route.
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


def k1_asymptotic(x):
    """Leading asymptotic e^{-x} sqrt(pi/(2x)); the validation target of K1
    at large arguments."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x) * np.sqrt(np.pi / (2.0 * x))
