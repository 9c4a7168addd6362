"""Coordinate systems on hyperbolic n-space and their volume densities.

Five charts are implemented, each with the volume density that turns a
coordinate-domain integral into hyperbolic volume:

  paracycle   horosphere-based coordinates, density e^{-(n-1) xi_n / k}
  halfspace   upper half-space, integrand k / x_n^n
  orthogonal  successive orthogonal projections, density
              prod_{i=1}^{n-1} cosh^i(x_i / k)
  spherical   hyperbolic polar coordinates, density
              k^{n-1} sinh^{n-1}(r/k) sin^{n-2}(phi_{n-1}) ... sin(phi_2)
  klein       projective ball of radius k, density
              (1 - sum (X_i/k)^2)^{-(n+1)/2}

A point is a plain tuple of its n coordinates; a spherical point is ordered
(phi_1 .. phi_{n-1}, r), with phi_1 azimuthal in [0, 2pi) and phi_2 ..
phi_{n-1} polar in [0, pi].  ``density`` evaluates a chart's density at a
point, and ``transform`` maps a point between any two charts but halfspace.
The transforms meet in one hub, the hyperboloid model: each chart has a
closed-form map into and one out of u, the spatial part of the hyperboloid
point (sqrt(1 + |u|^2), u) (Ratcliffe, *Foundations of Hyperbolic
Manifolds*), so a transform is two maps and the four charts need eight of
them.  Points and distances are at curvature 1; ``density`` and
``coordinate_volume`` take the curvature constant k, which scales all
lengths (k -> infinity recovers Euclidean behaviour).

Each chart also has the exact integral of its density along one coordinate
between two limits, curried in the other coordinates, which it takes once per
integral, and ``coordinate_volume`` takes its innermost level from it.  The
paracycle and half-space x_n and the orthogonal cosh^p integrate as sums of
exponentials with positive weights, and so does the Klein density, which
x = sqrt(K) tanh(rho) turns into cosh^{n-1}(rho).  The exponential and Fourier
sums of sinh^{n-1}(r/k) and sin^i(phi) cancel where the integrand is small,
next to r = 0 and phi = 0 or pi, so there these take their Taylor series.
"""

from __future__ import annotations

import functools
import math
from math import isfinite
from typing import Callable, NamedTuple, Sequence

from . import quadrature
from .errors import (DomainError, UnsupportedDimensionError, in_float_range, nonnegative,
                     number, positive, sequence)
from .quadrature import DEFAULT_TOL, IntegralResult, bound_value

__all__ = [
    "transform",
    "density",
    "paracycle_brick_volume",
    "klein_distance",
    "coordinate_volume",
    "COORDINATE_SYSTEMS",
]

MIN_DIM = 2
MAX_DIM = 8


def _check_dim(n: int) -> int:
    n = number("dimension n", n, int)
    if not (MIN_DIM <= n <= MAX_DIM):
        raise UnsupportedDimensionError(f"dimension {n} outside supported range {MIN_DIM}..{MAX_DIM}")
    return n


def _coords(p) -> tuple[float, ...]:
    c = tuple(number("coordinate", v) for v in sequence("coordinates", p))
    if not all(math.isfinite(v) for v in c):
        raise DomainError(f"coordinates must be finite, got {c!r}")
    return c


def _point(system: str, p) -> tuple[float, ...]:
    """The coordinates of a point of chart ``system``; DomainError unless
    there are 2..8 of them, all finite, and a spherical point has r >= 0,
    phi_1 in [0, 2pi) and its polar angles in [0, pi].  The Klein ball and the
    half-space x_n > 0 are checked where their formulas need it."""
    c = _coords(p)
    _check_dim(len(c))
    if system == "spherical":
        nonnegative("radius r", c[-1])
        if not 0.0 <= c[0] < math.tau:
            raise DomainError(f"azimuthal angle {c[0]!r} outside [0, 2pi)")
        for a in c[1:-1]:
            if not 0.0 <= a <= math.pi:
                raise DomainError(f"polar angle {a!r} outside [0, pi]")
    return c


_OUTSIDE_BALL = "point lies on or outside the projective ball"


def _ball_gap(X) -> float:
    """1 - |X|^2, or DomainError for a point on or outside the projective ball."""
    s = math.fsum([x ** 2 for x in X])
    if s >= 1.0:
        raise DomainError(_OUTSIDE_BALL)
    return 1.0 - s


# ---------------------------------------------------------------------------
# densities, (c, k) -> the density at the point c, and their exact integrals along one
# slot, curried: (c, free, last, k, lo, hi) -> at(x, lo, hi), the integral over c[free]
# in [lo, hi], lo < hi, with c[last] = x.  The first stage does the work on the other
# slots and on number limits (None where they vary); at does the rest, each float
# operation in the order of one call doing all.  c[free] and c[last] are not read and
# may be overwritten.  c and k are unchecked but for the half-space and the ball.
# ---------------------------------------------------------------------------

_PI_LO = 1.2246467991473532e-16  # pi - math.pi
# sinh^p and sin^p take their Taylor series where both limits lie within _SMALL of
# 0 (sin^p of pi too): their exponential and Fourier sums lose at most a factor
# coth^7(0.75) = 24 beyond it, and 16 terms reach 1e-17 within it at p <= 7
_SMALL = 0.75


def _height(h):
    if h <= 0.0:
        raise DomainError(f"half-space coordinate x_n must be positive, got {h!r}")
    return h


def _product(rest, reads, factor, c, last, k, lo, hi):
    """at for rest(c, k) * factor(lo, hi): the other slots' density, at c[last] = x
    if it reads that slot, else once, times the free slot's factor, once for numbers."""
    d = None if reads else rest(c, k)
    f = None if lo is None or hi is None else factor(lo, hi)

    def at(x, lo, hi):
        if d is None:
            c[last] = x
        return (rest(c, k) if d is None else d) * (factor(lo, hi) if f is None else f)

    return at


def _density_paracycle(c, k):
    return math.exp(-(len(c) - 1) * c[-1] / k)


def _integral_paracycle(c, free, last, k, lo, hi):
    n, q = len(c), -(len(c) - 1) / k
    if free < n - 1:
        return _product(_density_paracycle, last == n - 1, lambda lo, hi: hi - lo, c, last, k,
                        lo, hi)
    return _product(lambda c, k: 1.0, False, lambda lo, hi: math.exp(q * lo)
                    * math.expm1(q * (hi - lo)) / q, c, last, k, lo, hi)


def _density_halfspace(c, k):
    return k / _height(c[-1]) ** len(c)


def _integral_halfspace(c, free, last, k, lo, hi):
    # k (lo^(1-n) - hi^(1-n)) / (n - 1), with hi / lo = 1 + w / lo
    n = len(c)
    if free < n - 1:
        return _product(_density_halfspace, last == n - 1, lambda lo, hi: hi - lo, c, last, k,
                        lo, hi)
    return _product(lambda c, k: 1.0, False, lambda lo, hi: k / (n - 1) * _height(lo) ** (1 - n)
                    * -math.expm1((1 - n) * math.log1p((hi - lo) / lo)), c, last, k, lo, hi)


def _density_orthogonal(c, k):
    # prod_{i < n-1} cosh^{i+1}(c_i / k); slot n - 1 has no factor
    return math.prod([math.cosh(v / k) ** (i + 1) for i, v in enumerate(c[:-1])])


def _integral_orthogonal(c, free, last, k, lo, hi):
    # the other slots' factors in slot order from 1.0: before last once, x's and after it per call
    n, cosh, sinh = len(c), math.cosh, math.sinh
    pre = math.prod([cosh(c[i] / k) ** (i + 1) for i in range(last) if i != free], start=1.0)
    post = [cosh(c[i] / k) ** (i + 1) for i in range(last + 1, n - 1) if i != free]
    p, width, k2 = last + 1 if last < n - 1 else 0, free == n - 1, 2 * k
    pairs, w0 = _pairs(free + 1, 1)
    F = None if width or lo is None or hi is None else _fourier(
        free + 1, 1, cosh, sinh, (lo + hi) / k2, (hi - lo) / k2)

    def at(x, lo, hi):
        d = pre * cosh(x / k) ** p if p else pre
        for v in post:
            d *= v
        if width:
            return (hi - lo) * d
        if F is not None:
            return k * d * F
        s, h = (lo + hi) / k2, (hi - lo) / k2
        total = w0 * h  # _fourier's sum, its pairs looked up once
        for q, coef in pairs:
            total += coef * cosh(q * s) * sinh(q * h) / q
        return k * d * total

    return at


def _density_spherical(c, k):
    # k^{n-1} sinh^{n-1}(r/k) sin(phi_2) .. sin^{n-2}(phi_{n-1}); the azimuth phi_1
    # (slot 0) has no factor, r (slot n - 1) is the second, polar slot i the (i+2)-th
    n = len(c)
    return math.prod([k ** (n - 1), math.sinh(c[-1] / k) ** (n - 1),
                      *(math.sin(v) ** i for i, v in enumerate(c[1:-1], 1))])


def _integral_spherical(c, free, last, k, lo, hi):
    n = len(c)
    if free == n - 1:  # r: k^{n-1} times the polar factors, and k from dr = k d(r/k)
        return _product(lambda c, k: k ** n * math.prod([math.sin(v) ** i for i, v in enumerate(
            c[1:-1], 1)]), last > 0, lambda lo, hi: _sine_power(n - 1, 1, lo / k, (hi - lo) / k),
            c, last, k, lo, hi)
    if free:
        c[free] = math.pi / 2  # sin(pi/2) = 1: the density of the other slots
    return _product(_density_spherical, last > 0, lambda lo, hi: _sine_power(
        free, -1, lo, hi - lo) if free else hi - lo, c, last, k, lo, hi)


def _density_klein(c, k):
    return _ball_gap([v / k for v in c]) ** (-(len(c) + 1) / 2.0)


def _squares(v):
    """a^2, 2ab and b^2 of Dekker's split of v into halves a + b: v^2, summed exactly."""
    a = 134217729.0 * v
    a -= a - v
    b = v - a
    return [a * a, 2.0 * a * b, b ** 2]


def _integral_klein(c, free, last, k, lo, hi):
    # the density is k^{n+1} (K - x^2)^{-(n+1)/2}, K = k^2 - sum of the other x_i^2,
    # and x = sqrt(K) tanh(rho) makes it k^{n+1} K^{-n/2} cosh^{n-1}(rho) in rho.  K and
    # the gaps K - x^2 at the limits are sums of exact squares (the other slots' in slot
    # order, less k's, then lo's or hi's), to keep their relative accuracy near the sphere
    n = len(c)
    pre = [t for i in range(last) if i != free for t in _squares(c[i])]
    post = [t for i in range(last + 1, n) if i != free for t in _squares(c[i])]
    post += [-t for t in _squares(k)]
    lo_sq, hi_sq = [None if v is None else _squares(v) for v in (lo, hi)]
    pairs, w0 = _pairs(n - 1, 1)

    def at(x, lo, hi):
        terms = [*pre, *_squares(x), *post]
        K = -math.fsum(terms)
        ga = -math.fsum(terms + (lo_sq or _squares(lo)))
        gb = -math.fsum(terms + (hi_sq or _squares(hi)))
        if ga <= 0.0 or gb <= 0.0:
            raise DomainError(_OUTSIDE_BALL)
        rk = math.sqrt(K)
        # e^rho = (sqrt(K) + x) / sqrt(K - x^2), sqrt(K) + x through K - x^2 where that cancels;
        # h is half the rho width: e^{2 width} - 1 = 2 w sqrt(K)(sqrt(K) + hi)(sqrt(K) - lo) / ga gb
        h = 0.25 * math.log1p(2.0 * (hi - lo) * rk * (rk + hi if hi >= 0.0 else gb / (rk - hi))
                              * (rk - lo if lo <= 0.0 else ga / (rk + lo)) / (ga * gb))
        s = math.log((rk + lo if lo >= 0.0 else ga / (rk - lo)) / math.sqrt(ga)) + h
        total = w0 * h  # _fourier's sum, its pairs looked up once
        for q, coef in pairs:
            total += coef * math.cosh(q * s) * math.sinh(q * h) / q
        return k * (k * k / K) ** (n / 2) * total

    return at


def _fourier(p, sign, centre, half, s, h):
    """The integral over [s - h, s + h] of ((e^t + sign e^-t) / 2)^p, expanded into
    exponentials e^{qt}, q = p - 2j, of weight 2^-p C(p, j) sign^j, each integrated
    as e^{qs} 2 sinh(qh) / q (2h for q = 0); the terms of q and -q are summed
    together, so centre is cosh or sinh as sign^p is 1 or -1, and half is sinh.  With
    sign -1, half sin and centre cos (p even) or sin (p odd) the same sum is
    (-1)^{p // 2} times the integral of sin^p.  For cosh^p every term is positive."""
    pairs, total = _pairs(p, sign)
    total *= h
    for q, coef in pairs:
        total += coef * centre(q * s) * half(q * h) / q
    return total


@functools.cache
def _pairs(p, sign):
    """[(q, 2^{2-p} C(p, j) sign^j) for q = p - 2j > 0], and the weight of h (q = 0)."""
    return ([(p - 2 * j, 4 * math.comb(p, j) * sign ** j / 2 ** p) for j in range((p + 1) // 2)],
            0.0 if p % 2 else 2 * math.comb(p, p // 2) * sign ** (p // 2) / 2 ** p)


def _sine_power(p, sign, a, w):
    """The integral of sinh^p (sign 1) or sin^p (sign -1) over [a, a + w]: the
    Taylor series next to 0 and, for sin^p, to pi, where the sums of _fourier
    cancel to the size of the integrand; _fourier elsewhere."""
    if sign < 0 and 2 * a + w > math.pi:  # sin(pi - x) = sin x
        a = math.pi - a + _PI_LO - w
    if max(-a, a + w) <= _SMALL:
        return _near_zero(p, sign, a, w)
    if sign > 0:
        return _fourier(p, -1, (math.cosh, math.sinh)[p % 2], math.sinh, a + w / 2, w / 2)
    return (-1) ** (p // 2) * _fourier(p, -1, (math.cos, math.sin)[p % 2], math.sin, a + w / 2,
                                       w / 2)


def _near_zero(p, sign, a, w):
    """The integral over [a, a + w], |a|, |a + w| <= _SMALL, of the Taylor series
    sum_m c_m t^m of sinh^p (sign 1) or sin^p (sign -1), term by term:
    (b^q - a^q) / q = w D_q / q, with D_q = sum_{i<q} a^i b^{q-1-i} summed as
    D_{q+1} = b D_q + a^q, whose terms have one sign where a and b do."""
    b = a + w
    d = aq = 1.0
    total = 0.0
    for coef in _taylor(p, sign):
        total += coef * d
        aq *= a
        d = b * d + aq
    return total * w


@functools.cache
def _taylor(p, sign):
    """The coefficients of D_1 .. D_{p+32} in _near_zero: sinh^p t = sum_m c_m t^m
    with c_m = 2^{-p} sum_j (-1)^j C(p, j) (p - 2j)^m / m!, which is 0 for m < p
    and odd m - p, and the t^m term of sin^p is (-1)^{(m-p)/2} c_m; the
    integral of t^{q-1} is (b - a) D_q / q.  Each is rounded once."""
    return [sign ** ((q - 1 - p) // 2) * sum((-1) ** j * math.comb(p, j) * (p - 2 * j) ** (q - 1)
                                             for j in range(p + 1)) / (2 ** p * math.factorial(q))
            for q in range(1, p + 33)]


# ---------------------------------------------------------------------------
# maps into and out of the hyperboloid at curvature 1, x_0 = hypot(1, u)
# ---------------------------------------------------------------------------

def _walk(n: int) -> tuple[int, ...]:
    """Orthogonal axes from the last projection back to the first: the point
    leaves the origin along axis n-1, then moves perpendicularly along axes
    0, 1, .., n-2 in turn."""
    return (*range(n - 2, -1, -1), n - 1)


def _orthogonal_to_u(x):
    """u_i = sinh(x_i) times cosh(x_j) over the axes j walked before i."""
    u, c = [0.0] * len(x), 1.0
    for i in _walk(len(x)):
        u[i] = math.sinh(x[i]) * c
        c *= math.cosh(x[i])
    return u


def _orthogonal_from_u(u):
    """The triangular asinh solve of _orthogonal_to_u; the cosh product over
    the axes walked before i is hypot(1, their u_j)."""
    x, walked = [0.0] * len(u), []
    for i in _walk(len(u)):
        x[i] = math.asinh(u[i] / math.hypot(1.0, *walked))
        walked.append(u[i])
    return x


def _paracycle_to_u(xi):
    """u_i = xi_i e^{-xi_n} for i < n and e^{-xi_n} = x_0 - u_n, so
    u_n = (sum_{i<n} u_i^2 - expm1(-2 xi_n)) / (2 e^{-xi_n})."""
    e = math.exp(-xi[-1])
    u = [v * e for v in xi[:-1]]
    u.append((math.fsum(v * v for v in u) - math.expm1(-2.0 * xi[-1])) / (2.0 * e))
    return u


def _paracycle_from_u(u):
    """Inverse of _paracycle_to_u.  x_0 - u_n cancels for u_n > 0, where
    e^{xi_n} = 1/(x_0 - u_n) is (x_0 + u_n) / (1 + sum_{i<n} u_i^2) instead."""
    *v, w = u
    x0 = math.hypot(1.0, *u)
    if w < 0.0:
        e = x0 - w
        return [*(a / e for a in v), -math.log(e)]
    h = math.hypot(1.0, *v)
    f = (x0 + w) / h / h
    return [*(a * f for a in v), math.log(f)]


def _spherical_to_u(p):
    """sinh(r) times the unit vector of the angles: u_i = |u| cos(phi_i)
    prod_{j>i} sin(phi_j) for 1 < i < n, and (u_1, u_n) = |u| (cos phi_1,
    sin phi_1) prod_{j>1} sin(phi_j)."""
    n = len(p)
    u, s = [0.0] * n, math.sinh(p[-1])
    for i in range(n - 2, 0, -1):
        u[i] = s * math.cos(p[i])
        s *= math.sin(p[i])
    u[0], u[n - 1] = s * math.cos(p[0]), s * math.sin(p[0])
    return u


def _spherical_from_u(u):
    n = len(u)
    a = math.atan2(u[n - 1], u[0]) % math.tau  # may round up to 2pi, the azimuth 0
    polar = [math.atan2(math.hypot(*u[:i], u[n - 1]), u[i]) for i in range(1, n - 1)]
    return [a if a < math.tau else 0.0, *polar, math.asinh(math.hypot(*u))]


def _klein_to_u(X):
    g = math.sqrt(_ball_gap(X))
    return [x / g for x in X]


def _klein_from_u(u):
    x0 = math.hypot(1.0, *u)
    return [v / x0 for v in u]


class _Chart(NamedTuple):
    density: Callable
    integral: Callable
    to_u: Callable | None
    from_u: Callable | None


_CHARTS = {
    "paracycle": _Chart(_density_paracycle, _integral_paracycle, _paracycle_to_u,
                        _paracycle_from_u),
    "halfspace": _Chart(_density_halfspace, _integral_halfspace, None, None),
    "orthogonal": _Chart(_density_orthogonal, _integral_orthogonal, _orthogonal_to_u,
                         _orthogonal_from_u),
    "spherical": _Chart(_density_spherical, _integral_spherical, _spherical_to_u,
                        _spherical_from_u),
    "klein": _Chart(_density_klein, _integral_klein, _klein_to_u, _klein_from_u),
}
COORDINATE_SYSTEMS = tuple(_CHARTS)


def _chart(system: str) -> _Chart:
    if system not in COORDINATE_SYSTEMS:
        raise DomainError(f"unknown coordinate system {system!r}")
    return _CHARTS[system]


@in_float_range
def transform(p, source: str, target: str) -> tuple[float, ...]:
    """The point p of chart ``source`` in the coordinates of chart ``target``,
    at curvature 1.

    Each of paracycle, orthogonal, spherical and klein maps into and out of
    the hyperboloid in closed form (see the module docstring), and a
    transform is one map in and one out; source == target returns p checked.
    DomainError for an unknown chart, for halfspace, and for a point outside
    its chart: fewer than 2 or more than 8 coordinates, a non-finite one, a
    spherical angle out of range or r < 0, a Klein point not inside the ball.
    """
    into, out = _chart(source).to_u, _chart(target).from_u
    if into is None or out is None:
        raise DomainError("the halfspace chart has no point transform")
    c = _point(source, p)
    u = into(c)
    return c if source == target else tuple(out(u))


@in_float_range
def density(system: str, p, *, k: float = 1.0) -> float:
    """Volume density of chart ``system`` at its point p (the table of the
    module docstring).  DomainError for an unknown chart, a point outside the
    chart (see transform), and a half-space point with x_n <= 0."""
    chart = _chart(system)
    k = positive("k", k)
    return chart.density(_point(system, p), k)


# ---------------------------------------------------------------------------
# elementary relations
# ---------------------------------------------------------------------------

@in_float_range
def paracycle_brick_volume(sides: Sequence[float], k: float = 1.0) -> float:
    """Volume of a sector of parallel segments over a horospherical brick.

    ``sides`` = (a_1 .. a_n): a_1 .. a_{n-1} span the base brick on the
    horosphere, a_n is the segment length.  Closed form
    k/(n-1) * prod a_i * (1 - e^{-(n-1) a_n / k}); a_n = inf is accepted.
    """
    k = positive("k", k)
    a = sequence("brick sides", sides)
    n = _check_dim(len(a))
    base = math.prod(positive("brick side", v) for v in a[:-1])
    last = number("segment length a_n", a[-1])
    if not last > 0.0:
        raise DomainError(f"segment length a_n must be positive (inf allowed), got {last!r}")
    return k / (n - 1) * base * -math.expm1(-(n - 1) * last / k)


@in_float_range
def klein_distance(p, q) -> float:
    """Hyperbolic distance between two points of the unit projective ball.

    sinh d = sqrt((|D|^2 (1 - |P|^2) + (P.D)^2) / ((1 - |P|^2)(1 - |Q|^2)))
    with D = Q - P.  No term subtracts, so nearby points keep their relative
    accuracy, which cosh d = (1 - P.Q) / sqrt((1 - |P|^2)(1 - |Q|^2)) loses.
    """
    P, Q = _coords(p), _coords(q)
    if len(P) != len(Q):
        raise DomainError("points must have the same dimension")
    gp, gq = _ball_gap(P), _ball_gap(Q)
    D = [b - a for a, b in zip(P, Q)]
    pd = math.fsum(a * d for a, d in zip(P, D))
    return math.asinh(math.sqrt((math.fsum(d * d for d in D) * gp + pd * pd) / (gp * gq)))


# ---------------------------------------------------------------------------
# coordinate-domain volume integration
# ---------------------------------------------------------------------------

@in_float_range
def coordinate_volume(
    system: str,
    bounds: Sequence[tuple],
    n: int,
    k: float = 1.0,
) -> IntegralResult:
    """Integrate the chart's density over a coordinate-domain region.

    ``bounds`` lists one (axis, lo, hi) triple per coordinate, outermost
    integration level first.  ``axis`` is the 0-based coordinate slot
    (for the spherical chart slots 0..n-2 are phi_1..phi_{n-1} and slot
    n-1 is r); lo and hi may be numbers or callables of the outer
    integration variables, in listed order.  DomainError for an entry that
    is not such a triple and for axes that are not a permutation of 0..n-1.

    The innermost level is the chart's exact integral of its density along
    its slot (the chart integrals above), so ``integrate_region`` runs
    quadrature on the outer n - 1 levels only, and the evaluation count is
    theirs.  That integral is curried as ``integrate_region``'s integrand is:
    its work on the fixed slots and number limits runs once per innermost
    integral, at its first evaluation over a nonempty interval.  A number
    limit is checked and converted once per call, a callable one at each
    evaluation.  DomainError there for a bound that gives no number (a bool
    is none) and for limits that are not finite or have lo > hi.
    """
    k = positive("k", k)
    n = _check_dim(n)
    integral = _chart(system).integral
    bounds = sequence("bounds", bounds)
    if len(bounds) != n:
        raise DomainError(f"expected {n} bounds entries, got {len(bounds)}")
    try:
        rows = [(axis, (lo, hi)) for axis, lo, hi in bounds]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bounds must be (axis, lo, hi) triples, got {bounds!r}") from exc
    axes = [number("axis", axis, int) for axis, _ in rows]
    if sorted(axes) != list(range(n)):
        raise DomainError(f"axes {axes} must be a permutation of 0..{n - 1}")
    *spec, inner = [pair for _, pair in rows]
    lo_at, hi_at = inner
    # a number limit is checked and converted once, a callable one at each point
    lo_num, hi_num = [None if callable(b) else number("integration bound", b) for b in inner]
    *outer_axes, free = axes
    last = outer_axes[-1]

    def integrand(*fixed):
        # the outer variables scattered into their slots, but the last, which f passes
        c = [0.0] * n
        for ax, v in zip(outer_axes, fixed):
            c[ax] = v
        at = None

        def f(x):
            nonlocal at
            lo = lo_num if lo_num is not None else bound_value(n, lo_at, (*fixed, x))
            hi = hi_num if hi_num is not None else bound_value(n, hi_at, (*fixed, x))
            if not (lo <= hi and isfinite(hi - lo)):
                raise DomainError(f"innermost limits must be finite with lo <= hi, got {lo!r} "
                                  f"and {hi!r}")
            if lo == hi:
                return 0.0
            if at is None:
                at = integral(c, free, last, k, lo_num, hi_num)
            return at(x, lo, hi)

        return f

    return quadrature.integrate_region(integrand, spec, DEFAULT_TOL)
