"""Closed-form and single-integral volumes of the classical solids.

Each closed form has a matching one-dimensional quadrature counterpart
(``*_by_quadrature``) derived from a meridian or radial profile, so the two
routes can be cross-checked against each other and against the Monte-Carlo
oracle.

Lengths scale with the curvature constant k; three-dimensional volumes obey
v_k(params) = k^3 * v_1(params / k) for the length parameters.

A closed form whose value lies beyond the float range (about 1.8e308)
raises DomainError; each docstring states where that happens.
"""

from __future__ import annotations

import math
import sys

from . import quadrature
from .errors import DomainError
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

# largest argument whose sinh^2 stays inside the float range (355.5845)
_SINH2_MAX = math.asinh(math.sqrt(sys.float_info.max))


def _check_nonneg(name: str, v: float) -> float:
    v = float(v)
    if not (math.isfinite(v) and v >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {v!r}")
    return v


def _check_k(k: float) -> float:
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"curvature constant k must be positive, got {k!r}")
    return k


def _in_range(name: str, volume) -> float:
    """``volume()``, or DomainError when its value lies beyond the float range."""
    try:
        v = volume()
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"{name} volume exceeds the float range")
    return v


def equidistant_body(p: float, q: float, k: float = 1.0) -> float:
    """Body of one-sided perpendicular segments of length q over a base of area p.

    Closed form p k sinh(2q/k) / 4 + p q / 2.  DomainError beyond the float
    range: at p = k = 1, for q above about 355.24.
    """
    p = _check_nonneg("base area p", p)
    q = _check_nonneg("height q", q)
    k = _check_k(k)
    return _in_range("equidistant body",
                     lambda: 0.25 * p * k * math.sinh(2.0 * q / k) + 0.5 * p * q)


def equidistant_body_by_quadrature(p, q, k=1.0, tol: Tolerance = DEFAULT_TOL) -> float:
    """Same body via the profile integral p * int_0^q cosh^2(t/k) dt."""
    p = _check_nonneg("base area p", p)
    q = _check_nonneg("height q", q)
    k = _check_k(k)
    res = quadrature.integrate_1d(lambda t: math.cosh(t / k) ** 2, 0.0, q, tol)
    return p * res.value


def paraspherical_sector(p: float, k: float = 1.0) -> float:
    """Sector of parallel half-lines over a horospherical base of area p: p k / 2.

    DomainError when p k / 2 lies beyond the float range.
    """
    p = _check_nonneg("base area p", p)
    k = _check_k(k)
    return _in_range("sector", lambda: 0.5 * p * k)


def sphere_volume(x: float, k: float = 1.0) -> float:
    """Ball of hyperbolic radius x: pi k^3 sinh(2x/k) - 2 pi k^2 x.

    DomainError beyond the float range: at k = 1, for x above about 354.67.
    """
    x = _check_nonneg("radius x", x)
    k = _check_k(k)
    return _in_range(
        "ball", lambda: math.pi * k ** 3 * math.sinh(2.0 * x / k) - 2.0 * math.pi * k ** 2 * x)


def sphere_volume_by_quadrature(x, k=1.0, tol: Tolerance = DEFAULT_TOL) -> float:
    """Same ball via the radial shell integral 4 pi k^2 int_0^x sinh^2(r/k) dr."""
    x = _check_nonneg("radius x", x)
    k = _check_k(k)
    res = quadrature.integrate_1d(lambda r: math.sinh(r / k) ** 2, 0.0, x, tol)
    return 4.0 * math.pi * k ** 2 * res.value


def barrel(p: float, q: float, k: float = 1.0) -> float:
    """Tube of radius q around a segment of length p: pi k^2 p sinh^2(q/k).

    The body is the union of perpendicular disks along the segment (the
    spherical caps beyond the segment ends are not part of it).  DomainError
    beyond the float range: at p = k = 1, for q above about 355.01.
    """
    p = _check_nonneg("segment length p", p)
    q = _check_nonneg("tube radius q", q)
    k = _check_k(k)
    return _in_range("barrel", lambda: math.pi * k ** 2 * p * math.sinh(q / k) ** 2)


def barrel_by_quadrature(p, q, k=1.0, tol: Tolerance = DEFAULT_TOL) -> float:
    """Same tube via shells: p * 2 pi k int_0^q sinh(t/k) cosh(t/k) dt."""
    p = _check_nonneg("segment length p", p)
    q = _check_nonneg("tube radius q", q)
    k = _check_k(k)
    res = quadrature.integrate_1d(
        lambda t: math.sinh(t / k) * math.cosh(t / k), 0.0, q, tol
    )
    return 2.0 * math.pi * k * p * res.value


def barrel_wedge(p: float, T: float) -> float:
    """Wedge cut from a tube by two meridian half-planes: p T / 2.

    p is the length of the outer circular arc, T the meridian cross-section
    area.  Pure product formula; no attempt is made to derive p and T from
    the tube parameters.  DomainError when p T / 2 lies beyond the float range.
    """
    p = _check_nonneg("arc length p", p)
    T = _check_nonneg("meridian area T", T)
    return _in_range("barrel wedge", lambda: 0.5 * p * T)


def circular_cone(b: float, beta: float, tol: Tolerance = DEFAULT_TOL, k: float = 1.0) -> float:
    """Cone over a circle of radius b with half-angle beta at the apex.

    Profile integral (curvature 1):

        v = pi int_0^b sinh^2 y / (cosh y sqrt(cosh^2 y / cos^2 beta - 1)) dy

    General k is handled by the scaling identity v_k(b, beta) = k^3 v_1(b/k, beta).
    DomainError for b/k above 355.5845, where sinh^2 y leaves the float range.
    """
    b = _check_nonneg("base radius b", b)
    beta = float(beta)
    if not (0.0 < beta < 0.5 * math.pi):
        raise DomainError(f"half-angle beta must lie in (0, pi/2), got {beta!r}")
    k = _check_k(k)
    b1 = b / k
    if b1 > _SINH2_MAX:
        raise DomainError(
            f"cone radius b/k = {b1!r} exceeds {_SINH2_MAX:.4f}, where sinh^2 leaves the float range"
        )
    cos2 = math.cos(beta) ** 2

    def f(y: float) -> float:
        ch = math.cosh(y)
        return math.sinh(y) ** 2 / (ch * math.sqrt(ch * ch / cos2 - 1.0))

    res = quadrature.integrate_1d(f, 0.0, b1, tol)
    return k ** 3 * math.pi * res.value


def asymptotic_cone(b: float, k: float = 1.0) -> float:
    """Cone over a circle of radius b whose apex is an ideal point: pi ln cosh b.

    Stated at curvature 1; general k by v_k(b) = k^3 v_1(b/k).  Where cosh b/k
    overflows (b/k above about 710.48), ln cosh b/k = b/k - ln 2 to rounding,
    so the value stays finite; DomainError only when it lies beyond the float
    range, that is when pi k^2 b exceeds about 1.8e308.
    """
    b = _check_nonneg("base radius b", b)
    k = _check_k(k)
    try:
        log_cosh = math.log(math.cosh(b / k))
    except OverflowError:
        log_cosh = b / k - math.log(2.0)
    return _in_range("asymptotic cone", lambda: k ** 3 * math.pi * log_cosh)
