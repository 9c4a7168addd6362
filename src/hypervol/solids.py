"""Closed-form and single-integral volumes of the classical solids.

Each closed form has a matching one-dimensional quadrature counterpart
(``*_by_quadrature``) derived from a meridian or radial profile, so the two
routes can be cross-checked against each other and against the Monte-Carlo
oracle.

Every solid but the ball is stated at curvature 1: ``shapes.compute_volume``
extends them to a curvature constant k by v_k(params) = k^3 v_1(params / k),
lengths scaled by 1/k and areas by 1/k^2.  ``sphere_volume`` keeps its own
k, for callers that want the ball at general curvature directly.

A volume beyond the float range (about 1.8e308) raises DomainError by either
route; each closed form's docstring states where that happens.
"""

from __future__ import annotations

import math

from . import quadrature
from .errors import SINH2_MAX, angle, in_float_range, nonnegative, positive
from .quadrature import DEFAULT_TOL, Tolerance

__all__ = [
    "equidistant_body",
    "equidistant_body_by_quadrature",
    "paraspherical_sector",
    "sphere_volume",
    "sphere_volume_by_quadrature",
    "barrel",
    "barrel_by_quadrature",
    "barrel_wedge",
    "circular_cone",
    "asymptotic_cone",
]

@in_float_range
def equidistant_body(p: float, q: float) -> float:
    """Body of one-sided perpendicular segments of length q over a base of area p.

    Closed form p sinh(2q) / 4 + p q / 2.  DomainError beyond the float
    range: at p = 1, for q above about 355.24.
    """
    p = nonnegative("base area p", p)
    q = nonnegative("height q", q)
    return 0.25 * p * math.sinh(2.0 * q) + 0.5 * p * q


@in_float_range
def equidistant_body_by_quadrature(p, q, tol: Tolerance = DEFAULT_TOL) -> float:
    """Same body via the profile integral p * int_0^q cosh^2 t dt; DomainError
    where the closed form raises it."""
    p = nonnegative("base area p", p)
    q = nonnegative("height q", q)
    return quadrature.scaled(p, lambda: quadrature.integrate_1d(
        lambda t: math.cosh(t) ** 2, 0.0, q, tol).value)


@in_float_range
def paraspherical_sector(p: float) -> float:
    """Sector of parallel half-lines over a horospherical base of area p: p / 2.

    DomainError when p / 2 lies beyond the float range.
    """
    p = nonnegative("base area p", p)
    return 0.5 * p


@in_float_range
def sphere_volume(x: float, k: float = 1.0) -> float:
    """Ball of hyperbolic radius x: pi k^3 sinh(2x/k) - 2 pi k^2 x.

    Below 2x/k = 0.1 the difference sinh u - u, u = 2x/k, is summed as its
    Taylor series u^3/3! + u^5/5! + ..., which does not cancel.  DomainError
    beyond the float range: at k = 1, for x above about 354.67.
    """
    x = nonnegative("radius x", x)
    k = positive("k", k)
    u = 2.0 * x / k
    if u < 0.1:
        series = math.fsum(u ** j / math.factorial(j) for j in (3, 5, 7, 9, 11))
        return math.pi * k ** 3 * series
    return math.pi * k ** 3 * math.sinh(u) - 2.0 * math.pi * k ** 2 * x


@in_float_range
def sphere_volume_by_quadrature(x, tol: Tolerance = DEFAULT_TOL) -> float:
    """Same ball (at curvature 1) via the radial shell integral
    4 pi int_0^x sinh^2 r dr; DomainError where the closed form raises it."""
    x = nonnegative("radius x", x)
    return quadrature.scaled(4.0 * math.pi, lambda: quadrature.integrate_1d(
        lambda r: math.sinh(r) ** 2, 0.0, x, tol).value)


@in_float_range
def barrel(p: float, q: float) -> float:
    """Tube of radius q around a segment of length p: pi p sinh^2 q.

    The body is the union of perpendicular disks along the segment (the
    spherical caps beyond the segment ends are not part of it).  DomainError
    beyond the float range: at p = 1, for q above about 355.01.
    """
    p = nonnegative("segment length p", p)
    q = nonnegative("tube radius q", q)
    return math.pi * p * math.sinh(q) ** 2


@in_float_range
def barrel_by_quadrature(p, q, tol: Tolerance = DEFAULT_TOL) -> float:
    """Same tube via shells: p * 2 pi int_0^q sinh t cosh t dt; DomainError
    where the closed form raises it."""
    p = nonnegative("segment length p", p)
    q = nonnegative("tube radius q", q)
    return quadrature.scaled(2.0 * math.pi * p, lambda: quadrature.integrate_1d(
        lambda t: math.sinh(t) * math.cosh(t), 0.0, q, tol).value)


@in_float_range
def barrel_wedge(p: float, T: float) -> float:
    """Wedge cut from a tube by two meridian half-planes: p T / 2.

    p is the length of the outer circular arc, T the meridian cross-section
    area.  Pure product formula; no attempt is made to derive p and T from
    the tube parameters.  DomainError when p T / 2 lies beyond the float range.
    """
    p = nonnegative("arc length p", p)
    T = nonnegative("meridian area T", T)
    return 0.5 * p * T


@in_float_range
def circular_cone(b: float, beta: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Cone over a circle of radius b with half-angle beta at the apex.

    Profile integral:

        v = pi int_0^b sinh^2 y / (cosh y sqrt(cosh^2 y / cos^2 beta - 1)) dy

    with cosh^2 y / cos^2 beta - 1 evaluated as (sinh^2 y + sin^2 beta) /
    cos^2 beta, which does not cancel as y and beta go to 0.  DomainError
    for b above 355.5845, where sinh^2 y leaves the float range, and where
    the value does (its denominator underflows to 0 for b, beta < 1e-154).
    """
    b = nonnegative("base radius b", b, SINH2_MAX)
    beta = angle("half-angle beta", beta, 0.5 * math.pi)
    sb2, cb2 = math.sin(beta) ** 2, math.cos(beta) ** 2

    def f(y: float) -> float:
        sh2 = math.sinh(y) ** 2
        return sh2 / (math.cosh(y) * math.sqrt((sh2 + sb2) / cb2))

    return quadrature.scaled(math.pi, lambda: quadrature.integrate_1d(f, 0.0, b, tol).value)


@in_float_range
def asymptotic_cone(b: float) -> float:
    """Cone over a circle of radius b whose apex is an ideal point: pi ln cosh b.

    Where cosh b overflows (b above about 710.48), ln cosh b = b - ln 2 to
    rounding, so the value stays finite; DomainError only when it lies
    beyond the float range, that is when pi b exceeds about 1.8e308.
    """
    b = nonnegative("base radius b", b)
    try:
        log_cosh = math.log(math.cosh(b))
    except OverflowError:
        log_cosh = b - math.log(2.0)
    return math.pi * log_cosh
