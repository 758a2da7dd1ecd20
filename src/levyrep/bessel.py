"""Modified Bessel function of the second kind, order 1.

Implemented in-repo so its accuracy is testable: ascending series below the
crossover, a cosh-integral evaluated by trapezoidal rule above it.
"""

from __future__ import annotations

import numpy as np

# Crossover between the ascending series and the integral representation.
SERIES_CUTOFF = 2.0

_EULER_GAMMA = 0.5772156649015329


def _k1_series(x: np.ndarray) -> np.ndarray:
    """Ascending series: K1(x) = ln(x/2) I1(x) + 1/x - (x/4) * sum_k
    [psi(k+1)+psi(k+2)] (x^2/4)^k / (k! (k+1)!)."""
    x = np.asarray(x, dtype=float)
    q = x * x / 4.0
    # I1 via its own series, accumulated alongside the harmonic-number sum.
    i1 = np.zeros_like(x)
    s = np.zeros_like(x)
    term_i1 = x / 2.0           # (x/2) (x^2/4)^k / (k! (k+1)!)
    term_s = np.ones_like(x)    # (x^2/4)^k / (k! (k+1)!)
    psi1 = -_EULER_GAMMA        # psi(k+1)
    psi2 = 1.0 - _EULER_GAMMA   # psi(k+2)
    for k in range(30):
        i1 = i1 + term_i1
        s = s + (psi1 + psi2) * term_s
        psi1 += 1.0 / (k + 1)
        psi2 += 1.0 / (k + 2)
        fac = q / ((k + 1) * (k + 2))
        term_i1 = term_i1 * fac
        term_s = term_s * fac
        if np.all(np.abs(term_s) < 1e-18):
            break
    with np.errstate(divide="ignore"):
        out = np.log(x / 2.0) * i1 + 1.0 / x - (x / 4.0) * s
    return out


def k1(x):
    """K1 for positive real arguments; scalar or array."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0):
        raise ValueError("k1 requires strictly positive arguments")
    out = np.empty_like(arr)
    small = arr <= SERIES_CUTOFF
    if np.any(small):
        out[small] = _k1_series(arr[small])
    if np.any(~small):
        out[~small] = k1e(arr[~small]) * np.exp(-arr[~small])
    return float(out[0]) if scalar else out


def k1e(x):
    """Scaled function e^x K1(x); avoids underflow for large arguments."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0):
        raise ValueError("k1e requires strictly positive arguments")
    out = np.empty_like(arr)
    small = arr <= SERIES_CUTOFF
    if np.any(small):
        out[small] = _k1_series(arr[small]) * np.exp(arr[small])
    if np.any(~small):
        # K1(x) = int_0^infty exp(-x cosh t) cosh t dt, scaled by e^x; the
        # integrand decays double-exponentially, so the trapezoid converges
        # spectrally.  Truncation where x cosh t exceeds x + 60.
        xs = arr[~small]
        xmin = float(np.min(xs))
        t_max = np.arccosh(1.0 + 60.0 / xmin)
        t = np.linspace(0.0, t_max, 240)
        h = t[1] - t[0]
        ch = np.cosh(t)
        vals = np.exp(-np.multiply.outer(xs, ch - 1.0)) * ch
        w = np.full(t.size, h)
        w[0] = w[-1] = h / 2.0
        out[~small] = vals @ w
    return float(out[0]) if scalar else out
