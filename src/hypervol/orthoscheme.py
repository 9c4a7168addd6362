"""Orthoscheme volumes: edge-parameterized integral, dihedral-angle closed
form, conversions between the two parameterizations, ideal-vertex limits,
the 2-D area analogue and the n-dimensional nested integral.

An orthoscheme here is the simplex built from three mutually orthogonal
edge steps a, b, c: a runs from the origin, b is perpendicular to a, and c
is perpendicular to the plane of a and b.  The three non-right dihedral
angles sit at the edge a (angle alpha), at the edge c (angle gamma) and at
the diagonal opposite the middle edge b (angle beta, at the segment of
length z with cosh z = cosh a cosh b cosh c).  The auxiliary angle delta
links the two parameterizations:

    tan delta = tanh a tan alpha = tanh c tan gamma
              = sqrt(cos^2 beta - sin^2 alpha sin^2 gamma) / (cos alpha cos gamma)

All operations fix the curvature constant to 1; general curvature follows
from v_k(a, b, c) = k^3 v_1(a/k, b/k, c/k).

A remark on the asymptotic formulas: numerically, the one-ideal-vertex
volume ``volume_one_ideal(b, c)`` coincides with ``bolyai_asymptotic_1(alpha, c)``
at b = asinh(tanh c / tan alpha), and with ``bolyai_asymptotic_2(alpha, b)``
at the same relation tan alpha = tanh c / sinh b (observed to machine
precision on sampled parameters); the identification is recorded here for
reference but not relied upon by any computation.
"""

from __future__ import annotations

import math
import random
import sys
from typing import NamedTuple

from . import quadrature
from .errors import (SINH2_MAX, SINH_MAX, DomainError, NotRealizableError,
                     UnsupportedDimensionError, angle, in_float_range, number, positive,
                     sequence)
from .quadrature import DEFAULT_TOL, Tolerance
from .specfun import _lobachevsky_complement, lobachevsky

__all__ = [
    "OrthoschemeAngles",
    "edges_to_angles",
    "angles_to_edges",
    "volume_edges",
    "volume_angles",
    "bolyai_integral_1",
    "bolyai_asymptotic_1",
    "bolyai_asymptotic_2",
    "volume_one_ideal",
    "volume_two_ideal",
    "volume_two_ideal_closed",
    "volume_ideal_tetrahedron_b",
    "area_right_triangle",
    "right_triangle_angles",
    "volume_ndim",
    "sample_valid_angles",
]

_HALF_PI = 0.5 * math.pi
_ASINH_1 = math.asinh(1.0)


def _atanh_bound(u: float) -> float:
    """atanh(u), or DomainError when u >= 1 (an edge so long that tanh of it
    rounds to 1)."""
    if u >= 1.0:
        raise DomainError(
            f"bound atanh(u) with u = {u!r} >= 1: an edge is too long for tanh to stay below 1"
        )
    return math.atanh(u)


def _perp_angle(t: float, s: float) -> float:
    """atan(tanh t / sinh s), the angle opposite leg t of the right triangle
    with legs s and t."""
    return math.atan(math.tanh(t) / math.sinh(s))


class _AngleFields(NamedTuple):
    alpha: float
    beta: float
    gamma: float
    delta: float


class OrthoschemeAngles(_AngleFields):
    """Non-right dihedral angles alpha, beta, gamma and the delta derived
    from them.

    alpha and gamma sit at the edges a and c; beta sits at the diagonal
    opposite the middle edge.  Realizability requires cos^2 beta > sin^2
    alpha sin^2 gamma and delta < min(alpha, gamma, pi/2 - beta).
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, gamma: float):
        return _angle_record(alpha, beta, gamma)

    def __reduce__(self):
        # copies and pickles keep delta as it is, not derived anew
        return _angle_record, tuple(self)

    @classmethod
    def _make(cls, iterable):
        """The record of three angles, as the constructor builds it."""
        return cls(*sequence("orthoscheme angles", iterable, (3,)))

    def _replace(self, **angles):
        """This record with some of alpha, beta and gamma replaced, and delta
        derived anew; DomainError for any other field, delta among them."""
        new = [angles.pop(name, v) for name, v in zip(("alpha", "beta", "gamma"), self)]
        if angles:
            raise DomainError(f"only alpha, beta and gamma can be replaced (delta is "
                              f"derived), got {sorted(angles)}")
        return _angle_record(*new)


def _angle_record(alpha, beta, gamma, delta: float | None = None) -> OrthoschemeAngles:
    """The record of alpha, beta, gamma, each checked to lie in (0, pi/2), and
    delta, derived from them unless given (``edges_to_angles`` gives the one
    it computes from the edges); NotRealizableError unless delta < min(alpha,
    gamma, pi/2 - beta)."""
    a = angle("alpha", alpha, _HALF_PI)
    b = angle("beta", beta, _HALF_PI)
    g = angle("gamma", gamma, _HALF_PI)
    d = _delta(a, b, g) if delta is None else delta
    if d >= a or d >= g or d >= _HALF_PI - b:
        raise NotRealizableError("delta must be dominated: "
                                 "delta < min(alpha, gamma, pi/2 - beta)")
    # tuple.__new__ fills the four fields; OrthoschemeAngles.__new__ takes three angles
    return tuple.__new__(OrthoschemeAngles, (a, b, g, d))


def _as_edges(edges, limits: tuple[float, float, float]) -> tuple[float, float, float]:
    """Edge lengths (a, b, c) of an orthoscheme (a perp b, c perp plane(a, b)),
    each checked to be positive and at most its limit, the route's float-range
    threshold for that edge."""
    return tuple(positive(f"edge {name}", v, limit) for name, v, limit
                 in zip("abc", sequence("orthoscheme edges", edges, (3,)), limits))


def _as_angles(angles: OrthoschemeAngles | tuple) -> OrthoschemeAngles:
    """angles as given when an OrthoschemeAngles, else built from
    (alpha, beta, gamma)."""
    return angles if isinstance(angles, OrthoschemeAngles) else OrthoschemeAngles._make(angles)


def _delta(alpha: float, beta: float, gamma: float) -> float:
    """Auxiliary angle: tan delta = sqrt(cos^2 beta - sin^2 alpha sin^2 gamma)
    / (cos alpha cos gamma), for angles already checked to be floats in
    (0, pi/2); NotRealizableError where the root is not real."""
    rad = math.cos(beta) ** 2 - (math.sin(alpha) * math.sin(gamma)) ** 2
    if rad <= 0.0:
        raise NotRealizableError(
            "cos^2 beta must exceed sin^2 alpha sin^2 gamma for a real delta"
        )
    return math.atan(math.sqrt(rad) / (math.cos(alpha) * math.cos(gamma)))


def _diagonal(a: float, b: float, c: float) -> float:
    """Long diagonal z = 2 asinh sqrt(S/2), S = cosh z - 1 = u+v+w+uv+vw+wu+uvw, u = cosh a - 1."""
    u, v, w = (2.0 * math.sinh(0.5 * x) ** 2 for x in (a, b, c))
    return 2.0 * math.asinh(math.sqrt(0.5 * (u + v + w + u * v + v * w + w * u + u * v * w)))


@in_float_range
def edges_to_angles(edges) -> OrthoschemeAngles:
    """Dihedral angles of the orthoscheme with edges (a, b, c).

    alpha = atan(tanh c / sinh b), gamma = atan(tanh a / sinh b),
    tan delta = tanh a tanh c / sinh b, and tan beta = tanh z / tan delta
    with z the long diagonal, whose ``_diagonal`` form has no term that
    cancels for short edges or tanh z -> 1.  DomainError for an edge above
    710.4759, where sinh leaves the float range, and where tan delta
    underflows to 0.
    """
    a, b, c = _as_edges(edges, (SINH_MAX,) * 3)
    tan_d = math.tanh(a) * math.tanh(c) / math.sinh(b)
    beta = math.atan(math.tanh(_diagonal(a, b, c)) / tan_d)
    return _angle_record(_perp_angle(c, b), beta, _perp_angle(a, b), math.atan(tan_d))


def angles_to_edges(angles: OrthoschemeAngles | tuple) -> tuple[float, float, float]:
    """Edge lengths (a, b, c) from the dihedral angles, inverting edges_to_angles.

    a = atanh(tan delta / tan alpha), c = atanh(tan delta / tan gamma),
    z = atanh(tan delta tan beta) (equivalently the half-log-sine forms),
    then b from cosh z = cosh a cosh b cosh c.  Raises NotRealizableError
    when no positive b exists for the angle triple.
    """
    angles = _as_angles(angles)
    td = math.tan(angles.delta)
    ra = td / math.tan(angles.alpha)
    rc = td / math.tan(angles.gamma)
    rz = td * math.tan(angles.beta)
    if ra >= 1.0 or rc >= 1.0 or rz >= 1.0:
        raise NotRealizableError("delta-domination violated; edges not realizable")
    a = math.atanh(ra)
    c = math.atanh(rc)
    # sinh^2 b = cosh^2 z / (cosh a cosh c)^2 - 1, in stable form
    cosh_z2 = 1.0 / ((1.0 - rz) * (1.0 + rz))
    s2 = cosh_z2 * (1.0 - ra * ra) * (1.0 - rc * rc) - 1.0
    if s2 <= 0.0:
        raise NotRealizableError(
            "angle triple admits no positive middle edge (cosh z < cosh a cosh c)"
        )
    b = math.asinh(math.sqrt(s2))
    return a, b, c


def _edge_integral(r: float, b: float, c: float, tol: Tolerance) -> float:
    """1/4 int_0^b T R dl, the volume of the orthoscheme with middle edge b:
    T = tanh l / h, h = hypot(r cosh l, sinh l), r = tanh b / sinh a (0 for
    an ideal first vertex), and R = ln((sinh b + t sinh l) / (sinh b - t
    sinh l)), t = tanh c (1 for c = inf, an ideal last vertex).

    R is log-singular at the distance
    d = asinh(sinh b / (sinh c cosh c (cosh b + hypot(sinh b, t)))) beyond
    l = b: d = 0 for c = inf, about 2 exp(-2c) tanh b for large c.  So the
    integral is taken by parts, with W = atan h, an antiderivative of T,
    R(0) = 0, R(b) = 2c and the anchor x = b + min(d, b):

        int_0^b T R dl = int_0^b (W(x) - W(l)) R'(l) dl - 2c (W(x) - W(b)),
        R' = 2 t sinh b cosh l / ((sinh b - t sinh l) (sinh b + t sinh l)).

    W(x) - W(l) vanishes at R's pole, or the pole lies more than b beyond
    b, so the integrand is bounded and analytic on [0, b].  The boundary
    term enters it as a constant, so one integrate_1d call takes the whole
    volume.  With g = h / cosh = hypot(r, tanh) and delta = x - l, taken as
    min(d, b) + (b - l),

        sin(W(x) - W(l)) = (tanh x + tanh l) sinh delta / (cosh x cosh l)
                           / (g(x) / cosh l + g(l) / cosh x),
        cos(W(x) - W(l)) = (1 / (cosh x cosh l) + g(x) g(l)) / (1 + r^2).

    Every cosh l / cosh x and sinh delta cosh l / cosh x comes from
    exponentials of -x, -l and -delta alone, sinh b - t sinh l from
    2 cosh((b + l)/2) sinh((b - l)/2) + (1 - t) sinh l, halved, and the
    angle from its ratio to its sine, so that no factor overflows or
    cancels from b = 1e-300 to 710.4759.
    """
    t = math.tanh(c)
    em = math.exp(-2.0 * c)
    half_one_minus_t = em / (1.0 + em)  # (1 - t) / 2
    sb = math.sinh(b)
    # d, capped at b; 1 / (sinh c cosh c) = 4 exp(-2c) / (1 - exp(-4c)), finite for any c > 0
    d = min(b, math.asinh(sb / (math.cosh(b) + math.hypot(sb, t))
                          * 4.0 * em / -math.expm1(-4.0 * c)))
    x = b + d
    m = math.hypot(1.0, r)
    tx, ex = math.tanh(x), 1.0 + math.exp(-2.0 * x)
    gx = math.hypot(r, tx)
    # cos(W(x) - W(y)) = cos_x / cosh y + sin_x g(y)
    cos_x, sin_x = 2.0 * math.exp(-x) / ex / m / m, gx / m / m
    exp, expm1, tanh, hypot, atan2 = math.exp, math.expm1, math.tanh, math.hypot, math.atan2
    sinh, cosh = math.sinh, math.cosh

    def dw_cosh(y: float, delta: float) -> float:
        """(W(x) - W(y)) cosh y for x - y = delta."""
        e1, ty, ed = exp(-y), tanh(y), expm1(-delta)
        ey, gy = 1.0 + e1 * e1, hypot(r, ty)
        # sin(W(x) - W(y)) cosh y / (tanh x + tanh y)
        q = -0.5 * ed * (2.0 + ed) * ey / (gx * ex + gy * (1.0 + ed) * ey)
        sech_y = 2.0 * e1 / ey
        sin, cos = (tx + ty) * q * sech_y, cos_x * sech_y + sin_x * gy
        return (atan2(sin, cos) / sin if sin else 1.0 / cos) * q * (tx + ty)

    # -2c (W(x) - W(b)) / b, which vanishes with d (c = inf)
    boundary = -2.0 * c * dw_cosh(b, d) / cosh(b) / b if d else 0.0

    def f(y: float) -> float:
        u = b - y
        sy = sinh(y)
        den = cosh(0.5 * (b + y)) * sinh(0.5 * u) + half_one_minus_t * sy
        return t * dw_cosh(y, d + u) / den / (1.0 + t * sy / sb) + boundary

    return quadrature.scaled(0.25, lambda: quadrature.integrate_1d(f, 0.0, b, tol).value)


@in_float_range
def volume_edges(edges, tol: Tolerance = DEFAULT_TOL) -> float:
    """Orthoscheme volume from the edge lengths alone (curvature 1).

    v = 1/4 int_0^b  tanh(l) sinh(a) / sqrt(tanh^2 b cosh^2 l + sinh^2 a sinh^2 l)
                     * ln((sinh b + tanh c sinh l)/(sinh b - tanh c sinh l)) dl

    integrated by parts (``_edge_integral``), which leaves the integrand
    bounded even where the log's singularity lies just beyond l = b (large
    c): 45 evaluations at edges (1, 1, 1) and at (1, 1, 19).  When a > c it
    integrates the mirror (c, b, a), the same orthoscheme read from its other
    end: a first edge of about 11-18 makes r tiny, and T turns from l/r to 1
    within l ~ r of 0, a scale the panels miss (1.1e-9 off at (11, 3, 0.5),
    3.3e-16 through the mirror).  DomainError for b above 710.4759, or a and
    c both above it, where sinh leaves the float range, and where the value
    does (at b = 5e-324, sinh b - tanh c sinh l underflows to 0).
    """
    a, b, c = _as_edges(edges, (math.inf, SINH_MAX, math.inf))
    if a > c:
        a, c = c, a
    # tanh b / sinh a leaves the float range only for a subnormal a, where the volume underflows
    return _edge_integral(min(math.tanh(b) / math.sinh(a), sys.float_info.max), b, c, tol)


def volume_angles(angles: OrthoschemeAngles | tuple) -> float:
    """Orthoscheme volume as the Lobachevsky-function combination

    1/4 [ L(a+d) - L(a-d) - L(pi/2 - b + d) + L(pi/2 - b - d)
          + L(g+d) - L(g-d) + 2 L(pi/2 - d) ].
    """
    a, b, g, d = _as_angles(angles)
    return 0.25 * (
        lobachevsky(a + d) - lobachevsky(a - d)
        - lobachevsky(_HALF_PI - b + d) + lobachevsky(_HALF_PI - b - d)
        + lobachevsky(g + d) - lobachevsky(g - d)
        + 2.0 * lobachevsky(_HALF_PI - d)
    )


@in_float_range
def bolyai_integral_1(edges, tol: Tolerance = DEFAULT_TOL) -> float:
    """Orthoscheme volume by the classical single integral along the edge c.

    v = tan(g_p) / (2 tan(b_p)) *
        int_0^c  t sinh t / ((cosh^2 t / cos^2 alpha - 1)
                             sqrt(cosh^2 t / cos^2 g_p - 1)) dt

    with alpha the dihedral angle at a, b_p = atan(tanh b / sinh a) and
    g_p = atan(tanh c / sinh z) the planar angles at the origin vertex
    (z the diagonal with cosh z = cosh a cosh b).  Each cosh^2 t / cos^2 x - 1
    is evaluated as (sinh^2 t + sin^2 x) / cos^2 x, which does not cancel
    when cos^2 x rounds to 1.  DomainError for a or b above 710.4759 and for
    c above 355.5845, where sinh and sinh^2 leave the float range, and where
    the value does (its denominator underflows to 0 at a = 1, c = 0.6 for b
    above about 240; at a = b = 1 for c below about 1e-110).
    """
    a, b, c = _as_edges(edges, (SINH_MAX, SINH_MAX, SINH2_MAX))
    alpha = _perp_angle(c, b)
    beta_p = _perp_angle(b, a)
    gamma_p = _perp_angle(c, math.acosh(math.cosh(a) * math.cosh(b)))
    sa2, ca2 = math.sin(alpha) ** 2, math.cos(alpha) ** 2
    sg2, cg2 = math.sin(gamma_p) ** 2, math.cos(gamma_p) ** 2

    def f(t: float) -> float:
        sh = math.sinh(t)
        sh2 = sh ** 2
        return t * sh / ((sh2 + sa2) / ca2 * math.sqrt((sh2 + sg2) / cg2))

    return quadrature.scaled(0.5 * math.tan(gamma_p) / math.tan(beta_p),
                             lambda: quadrature.integrate_1d(f, 0.0, c, tol).value)


@in_float_range
def volume_one_ideal(b: float, c: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Volume of the orthoscheme whose first edge runs to an ideal point.

    v = 1/4 int_0^b ln((sinh b + tanh c sinh l)/(sinh b - tanh c sinh l)) / cosh l dl,

    the a = inf limit of ``volume_edges``, integrated by parts the same way
    (``_edge_integral``): 15 evaluations at (b, c) = (1, 1).  DomainError
    for b above 710.4759, where sinh b leaves the float range.
    """
    return _edge_integral(0.0, positive("edge b", b, SINH_MAX), positive("edge c", c), tol)


@in_float_range
def volume_two_ideal(b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Volume of the orthoscheme with two ideal vertices.

    v = 1/4 int_0^b ln((sinh b + sinh l)/(sinh b - sinh l)) / cosh l dl;
    the integrand has an integrable log singularity at l = b, which the
    integration by parts of ``_edge_integral`` removes: 15 evaluations up
    to b = 2, 225 at b = 30 and 435 at b = 710, within 4e-15 relative of
    the closed form.  The second route to ``volume_two_ideal_closed``.
    DomainError for b above 710.4759, where sinh b leaves the float range.
    """
    return _edge_integral(0.0, positive("edge b", b, SINH_MAX), math.inf, tol)


@in_float_range
def volume_two_ideal_closed(b: float) -> float:
    """Volume of the orthoscheme with two ideal vertices by its Lobachevsky
    closed form, the delta -> alpha limit of ``volume_angles`` (Kellerhals 1989):

    v = 1/2 L(Pi(b)),  Pi(b) = 2 atan(exp(-b)) the angle of parallelism.

    L near pi/2 cancels, so below b = asinh 1 (Pi above pi/4) the complement
    t = pi/2 - Pi = atan(sinh b) enters L(pi/2 - t) through its cancellation-free
    series; above it Pi comes from exp(-b), never from pi/2 - atan(sinh b).
    Within 1e-15 relative of mpmath from b = 1e-300 to 710.4759; DomainError
    above, where sinh b leaves the float range.
    """
    b = positive("edge b", b, SINH_MAX)
    if b < _ASINH_1:
        return 0.5 * _lobachevsky_complement(math.atan(math.sinh(b)))
    return 0.5 * lobachevsky(2.0 * math.atan(math.exp(-b)))


@in_float_range
def volume_ideal_tetrahedron_b(b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Tetrahedron with four ideal vertices built by reflecting the two-ideal
    orthoscheme twice: exactly 4x the two-ideal value."""
    return quadrature.scaled(4.0, lambda: volume_two_ideal(b, tol))


@in_float_range
def bolyai_asymptotic_1(alpha: float, c: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Ideal-apex orthoscheme volume, angle form:

    v = sin(2 alpha)/4 * int_0^c t / (cosh^2 t - cos^2 alpha) dt

    The denominator is evaluated as sinh^2 t + sin^2 alpha, which does not
    cancel as t and alpha go to 0.  DomainError for c above 355.5845, where
    cosh^2 leaves the float range, and where the value does (its denominator
    underflows to 0 for alpha below about 1e-154, near t = 0).
    """
    alpha = angle("alpha", alpha, _HALF_PI)
    c = positive("edge c", c, SINH2_MAX)
    sa2 = math.sin(alpha) ** 2

    def f(t: float) -> float:
        return t / (math.sinh(t) ** 2 + sa2)

    return quadrature.scaled(0.25 * math.sin(2.0 * alpha),
                             lambda: quadrature.integrate_1d(f, 0.0, c, tol).value)


def bolyai_asymptotic_2(alpha_max: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Ideal-apex orthoscheme volume, second form (upper limit is an angle):

    v = 1/2 int_0^alpha_max ln(cos p / sqrt(cos^2 p - tanh^2 b)) dp,
    requiring cos(alpha_max) > tanh b so the integrand stays real.
    """
    alpha_max = number("alpha_max", alpha_max)
    if not (0.0 <= alpha_max < _HALF_PI):
        raise DomainError(f"alpha_max must lie in [0, pi/2), got {alpha_max!r}")
    b = positive("edge b", b)
    tb2 = math.tanh(b) ** 2
    if math.cos(alpha_max) ** 2 <= tb2:
        raise DomainError("requires cos(alpha_max) > tanh(b)")

    def f(p: float) -> float:
        c2 = math.cos(p) ** 2
        return 0.5 * math.log(c2 / (c2 - tb2))

    return quadrature.scaled(0.5, lambda: quadrature.integrate_1d(f, 0.0, alpha_max, tol).value)


def right_triangle_angles(a: float, b: float) -> tuple[float, float]:
    """Non-right angles of the right triangle with legs a (first) and b.

    Returns (alpha, beta): beta = atan(tanh b / sinh a) at the origin end of
    leg a, alpha = atan(tanh a / sinh b) at the far vertex.
    """
    a = positive("leg a", a, SINH_MAX)
    b = positive("leg b", b, SINH_MAX)
    return _perp_angle(a, b), _perp_angle(b, a)


def area_right_triangle(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Area of the right triangle with legs a, b by the nested integral

    int_0^a int_0^{phi(x)} cosh y dy dx,  tanh phi(x) = (tanh b / sinh a) sinh x,

    which is ``volume_ndim((b, a), tol)``: its inner level is taken in closed
    form, and the outer one runs along the longer leg.  Equals the angle
    defect pi/2 - alpha - beta of the same triangle.  DomainError for a leg
    above 710.4759, where sinh leaves the float range, and for both legs
    above 19.0615 (see volume_ndim).
    """
    a = positive("leg a", a, SINH_MAX)
    b = positive("leg b", b, SINH_MAX)
    return volume_ndim((b, a), tol)


def _cosh_power_integral(m: int):
    """The function u -> int_0^{atanh u} cosh^m y dy, by the reduction formula.

    With c = cosh(atanh u) = 1/sqrt((1-u)(1+u)) and s = sinh(atanh u) = u c:
    I_0 = atanh u, I_1 = s, I_m = c^(m-1) s / m + (m-1)/m I_(m-2).  The steps
    (j - 1, j, (j-1)/j) from I_0 or I_1 up to I_m depend on m alone, so they
    are laid out once, here.  The function raises DomainError when u >= 1.
    """
    odd = m % 2
    steps = tuple((j - 1, j, (j - 1) / j) for j in range(2 + odd, m + 1, 2))
    sqrt, atanh = math.sqrt, math.atanh

    def integral(u: float) -> float:
        if u >= 1.0:
            _atanh_bound(u)  # raises
        c = 1.0 / sqrt((1.0 - u) * (1.0 + u))
        s = u * c
        val = s if odd else atanh(u)
        for p, j, q in steps:
            val = c ** p * s / j + q * val
        return val

    return integral


def _edge_length(a1: float, an: float):
    """The function (x, y) -> cosh x w_1(x), y = a_1 - x, where

    w_1(x) = a_n - asinh(q), q = p tanh x / tanh a_1 and p = sinh a_n, is the
    length of the x_n range of ``volume_ndim`` that reaches x_1 = x.  It is
    taken as asinh((p - q)(p + q) / (p sqrt(1 + q^2) + q sqrt(1 + p^2))), with
    p - q = p sinh y / (sinh a_1 cosh x), which does not cancel as x -> a_1
    when y is exact; numerator and denominator are divided by 2p, so that
    neither overflows up to a_n = 710.4759.
    """
    p, t1, sh1 = math.sinh(an), math.tanh(a1), math.sinh(a1)
    h = 0.5 * p
    hh = math.hypot(0.5, h)
    sinh, cosh, tanh, asinh, hypot = math.sinh, math.cosh, math.tanh, math.asinh, math.hypot

    def cosh_w(x: float, y: float) -> float:
        cx = cosh(x)
        r = tanh(x) / t1  # q / p
        return cx * asinh(sinh(y) / (sh1 * cx) * (1.0 + r) * h / (hypot(0.5, h * r) + r * hh))

    return cosh_w


# a GK15 panel on [0, a] has its first node at 0.00427 a, so the first panel of a 1-D
# integral does not see a turn of its integrand below a / _UNSEEN
_UNSEEN = 234.0
# 7-point Gauss-Legendre rule on [-1, 1], as (1 + z, 1 - z, weight) at each node z
_GL7 = tuple((1.0 + z, 1.0 - z, w) for z, w in (
    (-0.9491079123427585, 0.1294849661688697), (-0.7415311855993945, 0.27970539148927664),
    (-0.4058451513773972, 0.3818300505051189), (0.0, 0.4179591836734694),
    (0.4058451513773972, 0.3818300505051189), (0.7415311855993945, 0.27970539148927664),
    (0.9491079123427585, 0.1294849661688697)))


def _log_map(a: float, m: float, p: float):
    """(top, x, dx): x(u) maps u in [0, top] onto [0, a], and dx(x) = dx/du.

    Where a / s = m p > _UNSEEN, so that the first GK15 panel on [0, a]
    would not see a turn at x = s, the map is x = s expm1(u), u in
    [0, log1p(m p)], written through top = log(p) + log(m + 1 / p) as
    a (exp(u - top) - exp(-top)) / -expm1(-top), so that no factor
    overflows for a large p; dx/du = x + s.  Elsewhere x is u itself.  So a
    function that turns near x = s is resolved on [0, a] in steps that grow
    with x.
    """
    if m * p <= _UNSEEN:
        return a, lambda u: u, lambda x: 1.0
    top = math.log(p) + math.log(m + 1.0 / p)
    c = a / -math.expm1(-top)
    s = c * math.exp(-top)
    exp = math.exp
    return top, lambda u: min(a, c * exp(u - top) - s), lambda x: x + s


def _edge_area(a1: float, an: float):
    """The function (sigma, y) -> H = int_sigma^{a_1} cosh x w_1(x) dx,
    y = a_1 - sigma, with w_1 of ``_edge_length``.

    By parts, H = D - sinh sigma w_1(sigma) with
    D = asin(sech sigma / kappa) - asin(sech a_1 / kappa),
    kappa^2 = 1 + (tanh a_1 / sinh a_n)^2.  D is taken by its tangent,
    k' sinh(a_1 + sigma) sinh y / ((U_s + U_a)(U_s U_a + k'^2)), with
    k = tanh a_1 / g, k' = sinh a_n / g, g = hypot(sinh a_n, tanh a_1), and
    U = hypot(k cosh, k' sinh) at sigma and a_1, whose factors are divided
    before they are multiplied: so D neither cancels as y -> 0 nor leaves
    the float range for a subnormal edge.  The two terms of H still cancel,
    by about 2 sigma / y for a short sigma and coth(y / 2) for a long one,
    so where y < min(sigma, 2) / 4 H is a 7-point Gauss-Legendre sum
    instead.
    """
    cosh_w = _edge_length(a1, an)
    sinh, cosh, tanh, atan, hypot = math.sinh, math.cosh, math.tanh, math.atan, math.hypot
    t1, p = tanh(a1), sinh(an)
    g = hypot(p, t1)
    k, kp = t1 / g, p / g
    kp2, ua = kp * kp, hypot(k * cosh(a1), kp * sinh(a1))

    def area(sig: float, y: float) -> float:
        if y < 0.25 * min(sig, 2.0):
            h = 0.5 * y
            total = 0.0
            for zp, zm, w in _GL7:
                total += w * cosh_w(sig + h * zp, h * zm)
            return h * total
        us = hypot(k * cosh(sig), kp * sinh(sig))
        d = atan(kp * (sinh(a1 + sig) / (us + ua)) * (sinh(y) / (us * ua + kp2)))
        return d - tanh(sig) * cosh_w(sig, y)

    return area


def _second_edge_level(a1: float, a2: float, an: float):
    """The outer level of ``volume_ndim`` for n >= 3: (top, level), where
    level(v) = (sinh x_2 / sinh a_2, cosh^2 x_2 H(sigma) dx_2/dv) for v in
    [0, top], x_2 = x(v) of ``_log_map`` over [0, a_2], and x_1 = sigma
    where x_1's bound reaches x_2, sinh sigma = tanh x_2 sinh a_1 / tanh a_2,
    so that the x_1 level is H of ``_edge_area``.  a_1 - sigma is taken
    from sinh a_1 - sinh sigma = sinh a_1 sinh(a_2 - x_2) /
    (sinh a_2 cosh x_2), which does not cancel as x_2 -> a_2.

    H turns where sigma does: at sigma = 1, near x_2 = tanh a_2 / sinh a_1,
    which a long a_1 moves toward 0 (1e-8 at a_1 = 18, where the first
    panel missed it by 5e-8 of the volume), and at w_1's knee sigma = s,
    s = tanh a_1 / sinh a_n.  So x_2 runs through ``_log_map`` with its s
    at c = min(1, s) tanh a_2 / sinh a_1 where c lies below a_2 / _UNSEEN.
    """
    area = _edge_area(a1, an)
    sinh, cosh, tanh, asinh = math.sinh, math.cosh, math.tanh, math.asinh
    sh1, sh2, t1, t2, p = sinh(a1), sinh(a2), tanh(a1), tanh(a2), sinh(an)
    # a_2 / c = m p for c = min(1, s) tanh a_2 / sinh a_1, with s < 1 where tanh a_1 < p
    m = a2 / t2 * sh1
    top, x2, dx = _log_map(a2, m / t1, p) if t1 < p else _log_map(a2, m, 1.0)

    def level(v):
        x = x2(v)
        sig = asinh(tanh(x) / t2 * sh1)
        cx = cosh(x)
        y = 2.0 * asinh(sinh(a2 - x) / sh2 * sh1 / cx / (2.0 * cosh(0.5 * (a1 + sig))))
        return sinh(x) / sh2, cx * cx * dx(x) * area(sig, y)

    return top, level


def volume_ndim(edges, tol: Tolerance = Tolerance(rel=1e-9)) -> float:
    """n-volume of the n-dimensional orthoscheme with edges a_1 .. a_n by
    nested quadrature.

    The build path visits the edges in the order a_n, a_1, a_2, ...; for
    n = 3 the edges (a_1, a_2, a_3) = (b, c, a) match the 3-D path (a, b, c),
    and for n = 2 the edges (b, a) are the right triangle with legs a, b.

    The volume is the integral of prod_i cosh^i(x_i) over x_n in [0, a_n]
    and x_k in [0, phi_k], tanh(phi_k) = (tanh a_k / sinh a_{k-1}) sinh x_{k-1}
    (x_0 read as x_n).  The innermost level x_{n-1} has a closed form: with
    u = (tanh a_{n-1} / sinh a_{n-2}) sinh x_{n-2}, int_0^{atanh u}
    cosh^{n-1} y dy follows from the reduction formula int cosh^m =
    cosh^{m-1} sinh / m + (m-1)/m int cosh^{m-2}.  For n = 2 that leaves one
    1-D integral, over x_n.  For n >= 3 the outer x_n has density cosh^0 = 1
    and enters only phi_1, so by Fubini its level is a length, and the x_1
    level that it leaves is a closed form too: x_2 runs over [0, a_2],
    outermost, with weight cosh^2 x_2 int_sigma^{a_1} cosh x_1 w_1(x_1) dx_1,
    w_1(x_1) = a_n - asinh(sinh a_n tanh x_1 / tanh a_1) and x_1 = sigma
    where phi_2 reaches x_2 (``_edge_length``, ``_edge_area``, by parts, and
    ``_second_edge_level``, which substitutes x_2 = c expm1(u) where a long
    a_1 or a long a_n puts the turns of that weight below the first node of
    the first panel).  At n = 3 x_2 is the last variable, so that weight is
    the whole integrand; then x_3 .. x_{n-2} follow, so one level is
    integrated numerically for n = 2, 3 and 4, and two for n = 5.

    When the path's last edge a_{n-1} is longer than its first a_n, the
    reversed path (a_{n-2}, .., a_1, a_n, a_{n-1}) is integrated: the same
    orthoscheme built from its other end.  So the longer end edge is a_n,
    whose tanh is never taken; read as a bound's tanh a, an edge of about 12
    or more loses 1 - tanh a in floats (at rel 1e-10 the triangle with legs
    (0.2, 17) is 1.4e-9 off read from its short leg, 1.9e-16 through the
    mirror).

    Supported for 2 <= n <= 5; for n = 3 this reproduces volume_edges.

    DomainError for an edge above 710.4759, where sinh leaves the float
    range; for a middle edge a_1 .. a_{n-2}, or both end edges, above
    19.0615 (curvature 1), where tanh a rounds to 1 and the bounds atanh(u),
    u = tanh a_{k+1} sinh x_k / sinh a_k, blow up at the end of their range;
    and whenever rounding makes such a u reach 1.
    """
    a = tuple(positive("edge", v, SINH_MAX) for v in sequence("edges", edges))
    n = len(a)
    if n < 2:
        raise DomainError("an orthoscheme needs at least 2 edges")
    if n > 5:
        raise UnsupportedDimensionError(f"volume_ndim supports 2 <= n <= 5, got {n}")
    if a[-2] > a[-1]:  # the same orthoscheme read from the other end of its path
        a = (*a[-3::-1], a[-1], a[-2])
    if any(math.tanh(v) == 1.0 for v in a[:-1]):
        raise DomainError(f"edges {a[:-1]} include one whose tanh rounds to 1 (above 19.0615)")
    sinh, cosh = math.sinh, math.cosh
    integral = _cosh_power_integral(n - 1)
    if n == 2:
        r = math.tanh(a[0]) / sinh(a[1])
        return quadrature.integrate_region(lambda: lambda x: integral(r * sinh(x)),
                                           [(0.0, a[1])], tol).value
    # the outer level gives r = sinh x_2 / sinh a_2, a ratio that stays finite for a
    # subnormal a_2 and at most 1; the bound of x_3 is atanh(tanh a_3 r), and the
    # closed-form level's argument is u = t r at n = 4
    top, level = _second_edge_level(a[0], a[1], a[-1])
    if n == 3:
        return quadrature.integrate_region(lambda: lambda v: level(v)[1], [(0.0, top)],
                                           tol).value
    t = math.tanh(a[n - 2])
    if n == 4:
        def outer(v):
            r, w = level(v)
            return w * integral(t * r)

        return quadrature.integrate_region(lambda: outer, [(0.0, top)], tol).value
    t3, sh3 = math.tanh(a[2]), sinh(a[2])

    def integrand(v):
        w = level(v)[1]
        return lambda y: integral(t * (sinh(y) / sh3)) * cosh(y) ** 3 * w

    bounds = [(0.0, top), (0.0, lambda v: _atanh_bound(t3 * level(v)[0]))]
    return quadrature.integrate_region(integrand, bounds, tol).value


def sample_valid_angles(count: int, seed: int = 20121023) -> list[OrthoschemeAngles]:
    """Draw realizable dihedral-angle triples for cross-validation runs.

    alpha, beta, gamma are uniform in (0.2, 1.2); a draw is kept when delta
    is real, below min(alpha, gamma, pi/2 - beta) by at least 0.05, and the
    edge recovery succeeds.  Deterministic for a fixed seed.
    """
    count, seed = number("count", count, int), number("seed", seed, int)
    rng = random.Random(seed)
    out: list[OrthoschemeAngles] = []
    while len(out) < count:
        al = rng.uniform(0.2, 1.2)
        be = rng.uniform(0.2, 1.2)
        ga = rng.uniform(0.2, 1.2)
        try:
            ang = OrthoschemeAngles(al, be, ga)
            if ang.delta >= min(al, ga, _HALF_PI - be) - 0.05:
                continue
            angles_to_edges(ang)
        except NotRealizableError:
            continue
        out.append(ang)
    return out
