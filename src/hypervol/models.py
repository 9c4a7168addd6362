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
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from . import quadrature
from .errors import (DomainError, UnsupportedDimensionError, in_float_range, nonnegative,
                     number, positive, sequence)
from .quadrature import DEFAULT_TOL, IntegralResult

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
# density factories: (c, free, k) -> f, where f(x) is the density at the n =
# len(c) coordinates c with c[free] replaced by x.  Work that depends on the
# other coordinates alone runs once, in the factory: the paracycle and
# half-space densities depend on x_n alone, so a fixed x_n is evaluated (and
# checked) there.  c and k are unchecked but for the half-space and the ball,
# whose formulas give a wrong finite value outside.
# ---------------------------------------------------------------------------

def _product(factors):
    """x -> the product of ``factors`` taken left to right from 1.0, the one
    callable among them, the free coordinate's factor, evaluated at x (the
    constant product when there is none).  A free factor that nothing else
    multiplies is returned as it is: 1.0 * g(x) is g(x)."""
    before = 1.0
    for at, g in enumerate(factors):
        if callable(g):
            break
        before *= g
    else:
        return lambda x: before
    after = factors[at + 1:]
    if not after:
        return g if at == 0 else lambda x: before * g(x)

    def f(x):
        d = before * g(x)
        for v in after:
            d *= v
        return d

    return f


def _density_paracycle(c, free, k):
    m = -(len(c) - 1)

    def f(x):
        return math.exp(m * x / k)

    return f if free == len(c) - 1 else _product([f(c[-1])])


def _density_halfspace(c, free, k):
    n = len(c)

    def f(h):
        if h <= 0.0:
            raise DomainError(f"half-space coordinate x_n must be positive, got {h!r}")
        return k / h ** n

    return f if free == n - 1 else _product([f(c[-1])])


def _density_orthogonal(c, free, k):
    # prod_{i < n-1} cosh^{i+1}(c_i / k); slot n - 1 has no factor
    p = free + 1
    return _product([(lambda x: math.cosh(x / k) ** p) if i == free
                     else math.cosh(c[i] / k) ** (i + 1) for i in range(len(c) - 1)])


def _density_spherical(c, free, k):
    # k^{n-1} sinh^{n-1}(r/k) sin(phi_2) .. sin^{n-2}(phi_{n-1}); the azimuth phi_1
    # (slot 0) has no factor, r (slot n - 1) is the second, polar slot i the (i+2)-th
    n = len(c)
    r = ((lambda x: math.sinh(x / k) ** (n - 1)) if free == n - 1
         else math.sinh(c[n - 1] / k) ** (n - 1))
    return _product([k ** (n - 1), r] + [(lambda x: math.sin(x) ** free) if i == free
                                         else math.sin(c[i]) ** i for i in range(1, n - 1)])


def _density_klein(c, free, k):
    # fsum is exact, so the squares of the other coordinates are computed once
    # and the free one's is put in their place
    e = -(len(c) + 1) / 2.0
    squares = [(v / k) ** 2 for v in c]
    fsum = math.fsum

    def f(x):
        squares[free] = (x / k) ** 2
        s = fsum(squares)
        if s >= 1.0:
            raise DomainError(_OUTSIDE_BALL)
        return (1.0 - s) ** e

    return f


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
    to_u: Callable | None
    from_u: Callable | None


_CHARTS = {
    "paracycle": _Chart(_density_paracycle, _paracycle_to_u, _paracycle_from_u),
    "halfspace": _Chart(_density_halfspace, None, None),
    "orthogonal": _Chart(_density_orthogonal, _orthogonal_to_u, _orthogonal_from_u),
    "spherical": _Chart(_density_spherical, _spherical_to_u, _spherical_from_u),
    "klein": _Chart(_density_klein, _klein_to_u, _klein_from_u),
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
    factory = _chart(system).density
    k = positive("k", k)
    c = _point(system, p)
    return factory(c, len(c) - 1, k)(c[-1])


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
    """
    k = positive("k", k)
    n = _check_dim(n)
    factory = _chart(system).density
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
    spec = [pair for _, pair in rows]
    *outer_axes, free = axes

    def integrand(*outer):
        # the outer variables scattered into their slots; the innermost one's is free
        c = [0.0] * n
        for ax, v in zip(outer_axes, outer):
            c[ax] = v
        return factory(c, free, k)

    return quadrature.integrate_region(integrand, spec, DEFAULT_TOL)
