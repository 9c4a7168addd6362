"""Scalar special functions behind the closed-form volumes.

The Lobachevsky function

    L(x) = -integral_0^x ln|2 sin t| dt

is odd and pi-periodic; every 3-D closed form in this package is a finite
combination of its values.  The Clausen function Cl2 is its 2x rescaling,
Cl2(x) = 2 L(x/2) = Im Li2(e^{ix}).

Evaluation: range-reduce, then sum the power series

    Cl2(t) = t - t ln t + sum_{m>=1} zeta(2m) / (m (2m+1)) (t/2pi)^{2m} t

for t in [0, pi] (geometric ratio <= 1/4, so ~25 terms reach full double
precision).  A quadrature-based evaluation of the defining integral is kept
as an independent verification path.
"""

from __future__ import annotations

import math

from . import quadrature
from .errors import DomainError, number
from .quadrature import Tolerance

__all__ = [
    "lobachevsky",
    "lobachevsky_via_integral",
    "clausen2",
]

_TWO_PI = 2.0 * math.pi


def _zeta_even(m: int) -> float:
    """zeta(2m) to double precision."""
    exact = {
        1: math.pi ** 2 / 6.0,
        2: math.pi ** 4 / 90.0,
        3: math.pi ** 6 / 945.0,
        4: math.pi ** 8 / 9450.0,
        5: math.pi ** 10 / 93555.0,
    }
    if m in exact:
        return exact[m]
    # tail beyond j=40 is < 40^(1-2m)/(2m-1) < 1e-19 for m >= 6
    return 1.0 + math.fsum(j ** (-2.0 * m) for j in range(2, 41))


# coefficients zeta(2m) / (m (2m+1) (2pi)^(2m)); 40 terms cover t <= pi
_CL2_COEF = tuple(
    _zeta_even(m) / (m * (2 * m + 1) * _TWO_PI ** (2 * m)) for m in range(1, 41)
)


def _series(acc: float, t: float, coef) -> float:
    """acc + sum_m coef[m-1] t^(2m+1), stopped after the first term below
    1e-17 |acc|."""
    t2 = t * t
    p = t
    for c in coef:
        p *= t2
        term = c * p
        acc += term
        if abs(term) < 1e-17 * abs(acc):
            break
    return acc


def _cl2_core(t: float) -> float:
    """Cl2 on [0, pi] by the log-plus-power-series expansion."""
    return _series(t * (1.0 - math.log(t)), t, _CL2_COEF) if t else 0.0


# coefficients -(16^m - 4^m) c_m of the complement series, c_m as above
_COMPLEMENT_COEF = tuple((4.0 ** m - 16.0 ** m) * c for m, c in enumerate(_CL2_COEF, 1))
_LN2 = math.log(2.0)


def _lobachevsky_complement(t: float) -> float:
    """L(pi/2 - t) for t in [0, pi/4], from t itself.

    L(pi/2 - t) = L(t) - L(2t)/2 = int_0^t ln(2 cos v) dv.  The log terms of
    the two series cancel exactly, which leaves

        t ln 2 - sum_{m>=1} (16^m - 4^m) c_m t^(2m+1):

    no term cancels, and at t = pi/4 the terms fall by about 4x each.  L at
    the rounded pi/2 - t would lose ulp(pi/2) / (t ln 2) relative, and
    L(t) - L(2t)/2 up to a few 1e-15 near t = 0.01.
    """
    return _series(t * _LN2, t, _COMPLEMENT_COEF)


def _reduce(name: str, x: float, period: float) -> tuple[float, float]:
    """(sign, |r|) of r = remainder(x, period), in [-period/2, period/2];
    DomainError for an argument that is not a finite number."""
    x = number("x", x)
    if not math.isfinite(x):
        raise DomainError(f"{name} requires a finite argument, got {x!r}")
    r = math.remainder(x, period)
    return (-1.0, -r) if r < 0.0 else (1.0, r)


def clausen2(x: float) -> float:
    """Clausen function Cl2(x) = Im Li2(e^{ix}); odd, 2pi-periodic."""
    sign, r = _reduce("clausen2", x, _TWO_PI)
    return sign * _cl2_core(r)


def lobachevsky(x: float) -> float:
    """Lobachevsky function L(x); odd, pi-periodic, max at pi/6."""
    sign, r = _reduce("lobachevsky", x, math.pi)
    return sign * 0.5 * _cl2_core(2.0 * r)


def lobachevsky_via_integral(x: float) -> float:
    """L(x) by adaptive quadrature of the defining integral.

    Independent of the series path; used to cross-check it.  The integrand
    has log singularities at multiples of pi, so the argument is reduced to
    [-pi/2, pi/2] first.  A node that rounds to 0 (on [0, r] for a subnormal
    r) reads 2 sin t as the least subnormal: an integrable log singularity.
    """
    sign, r = _reduce("lobachevsky_via_integral", x, math.pi)
    if r == 0.0:
        return 0.0

    def integrand(t: float) -> float:
        return -math.log(abs(2.0 * math.sin(t)) or 5e-324)

    tol = Tolerance(rel=1e-13)
    return quadrature.scaled(sign, lambda: quadrature.integrate_1d(integrand, 0.0, r, tol).value)
