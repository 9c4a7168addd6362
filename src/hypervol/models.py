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

Point transforms between the charts are exact closed forms; the chain
orthogonal -> spherical -> klein is the workhorse for placing polyhedra in
the ball model.  The curvature constant k scales all lengths; k -> infinity
recovers Euclidean behaviour.

Angle conventions for the spherical chart: phi_1 is azimuthal in [0, 2pi),
phi_2 .. phi_{n-1} are polar in [0, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import quadrature
from .errors import (SINH_MAX, DomainError, UnsupportedDimensionError, in_float_range,
                     nonnegative, number, positive, sequence)
from .quadrature import DEFAULT_TOL, IntegralResult, Tolerance

__all__ = [
    "PointParacycle",
    "PointOrthogonal",
    "PointSpherical",
    "PointKlein",
    "density_paracycle",
    "density_halfspace",
    "density_orthogonal",
    "density_spherical",
    "density_klein",
    "paracycle_brick_volume",
    "chord_arc",
    "paracycle_to_orthogonal",
    "orthogonal_to_paracycle",
    "orthogonal_to_spherical",
    "spherical_to_orthogonal",
    "spherical_to_klein",
    "klein_to_spherical",
    "orthogonal_to_klein",
    "klein_to_orthogonal",
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
    c = tuple(number("coordinate", v)
              for v in sequence("coordinates", p.coords if hasattr(p, "coords") else p))
    if not all(math.isfinite(v) for v in c):
        raise DomainError(f"coordinates must be finite, got {c!r}")
    return c


def _point(p) -> tuple[tuple[float, ...], int]:
    """(coordinates of p, their number n); DomainError unless n is in 2..8."""
    c = _coords(p)
    return c, _check_dim(len(c))


@dataclass(frozen=True)
class _CoordinatePoint:
    """A chart point given by n finite coordinates, 2 <= n <= 8.

    Subclasses are dataclasses with init=False, so they keep this validating
    __init__ and stay frozen.
    """

    coords: tuple[float, ...]

    def __init__(self, coords: Sequence[float]):
        object.__setattr__(self, "coords", _coords(coords))
        _check_dim(len(self.coords))

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, init=False)
class PointParacycle(_CoordinatePoint):
    """Point in paracycle coordinates (xi_1 .. xi_n; xi_n is the distance
    to the base horosphere)."""


@dataclass(frozen=True, init=False)
class PointOrthogonal(_CoordinatePoint):
    """Point in orthogonal coordinates (successive projection distances)."""


@dataclass(frozen=True)
class PointSpherical:
    """Point in hyperbolic polar coordinates (r, phi_1 .. phi_{n-1})."""

    r: float
    angles: tuple[float, ...]

    def __init__(self, r: float, angles: Sequence[float]):
        r = nonnegative("radius r", r)
        ang = tuple(number("angle", a) for a in sequence("angles", angles))
        n = len(ang) + 1
        _check_dim(n)
        if ang and not (0.0 <= ang[0] < 2.0 * math.pi):
            raise DomainError(f"azimuthal angle {ang[0]!r} outside [0, 2pi)")
        for a in ang[1:]:
            if not (0.0 <= a <= math.pi):
                raise DomainError(f"polar angle {a!r} outside [0, pi]")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "angles", ang)

    @property
    def n(self) -> int:
        return len(self.angles) + 1


@dataclass(frozen=True, init=False)
class PointKlein(_CoordinatePoint):
    """Point in Cartesian coordinates of the projective (Klein) ball."""


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _density_paracycle(c, n, k):
    return math.exp(-(n - 1) * c[n - 1] / k)


def _density_halfspace_xn(xn, n, k):
    if xn <= 0.0:
        raise DomainError(f"half-space coordinate x_n must be positive, got {xn!r}")
    return k / xn ** n


def _density_orthogonal(c, n, k):
    d = 1.0
    for i in range(n - 1):
        d *= math.cosh(c[i] / k) ** (i + 1)
    return d


def _density_spherical(r, angles, n, k):
    d = k ** (n - 1) * math.sinh(r / k) ** (n - 1)
    for i in range(1, n - 1):
        d *= math.sin(angles[i]) ** i
    return d


def _density_klein(c, n, k):
    s = math.fsum((x / k) ** 2 for x in c)
    if s >= 1.0:
        raise DomainError("point lies on or outside the projective ball")
    return (1.0 - s) ** (-(n + 1) / 2.0)


# the density of each chart at a full coordinate tuple c of n entries
_DENSITIES = {
    "paracycle": _density_paracycle,
    "halfspace": lambda c, n, k: _density_halfspace_xn(c[n - 1], n, k),
    "orthogonal": _density_orthogonal,
    "spherical": lambda c, n, k: _density_spherical(c[n - 1], c[: n - 1], n, k),
    "klein": _density_klein,
}
COORDINATE_SYSTEMS = tuple(_DENSITIES)


@in_float_range
def density_paracycle(p, *, k: float = 1.0) -> float:
    """Volume density e^{-(n-1) xi_n / k} at a paracycle-coordinate point."""
    c, n = _point(p)
    return _density_paracycle(c, n, positive("k", k))


@in_float_range
def density_halfspace(p, *, k: float = 1.0) -> float:
    """Half-space integrand k / x_n^n at a half-space point."""
    c, n = _point(p)
    return _density_halfspace_xn(c[n - 1], n, positive("k", k))


@in_float_range
def density_orthogonal(p, *, k: float = 1.0) -> float:
    """Volume density prod_{i=1}^{n-1} cosh^i(x_i / k) in orthogonal coordinates."""
    c, n = _point(p)
    return _density_orthogonal(c, n, positive("k", k))


@in_float_range
def density_spherical(p, *, k: float = 1.0) -> float:
    """Volume density in hyperbolic polar coordinates, at a PointSpherical or
    at the tuple (phi_1 .. phi_{n-1}, r)."""
    if isinstance(p, PointSpherical):
        r, angles, n = p.r, p.angles, p.n
    else:
        c, n = _point(p)
        r, angles = c[n - 1], c[: n - 1]
    return _density_spherical(r, angles, n, positive("k", k))


@in_float_range
def density_klein(p, *, k: float = 1.0) -> float:
    """Projective-ball density (1 - sum (X_i/k)^2)^{-(n+1)/2}."""
    c, n = _point(p)
    return _density_klein(c, n, positive("k", k))


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
def chord_arc(d: float, k: float = 1.0) -> tuple[float, float]:
    """Half-arc s and sagitta-style offset z for a paracycle chord of half-length d.

    s = k sinh(d/k) is the paracycle arc length matching chord 2d; z =
    k ln cosh(d/k) is the distance between the halving points.  s >= d >= z.
    DomainError for d/k above 710.4759, and where s leaves the float range.
    """
    k = positive("k", k)
    d = nonnegative("chord half-length d", d, k * SINH_MAX)
    return k * math.sinh(d / k), k * math.log(math.cosh(d / k))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@in_float_range
def paracycle_to_orthogonal(p, k: float = 1.0) -> PointOrthogonal:
    """Solve the triangular coordinate relations, from the last axis down."""
    k = positive("k", k)
    xi = _coords(p)
    n = len(xi)
    _check_dim(n)
    scale = math.exp(-xi[n - 1] / k)
    x = [0.0] * n
    prodc = 1.0  # prod of cosh(x_j/k) for already-solved j > i
    for i in range(n - 2, -1, -1):
        x[i] = k * math.asinh(xi[i] * scale / (k * prodc))
        prodc *= math.cosh(x[i] / k)
    x[n - 1] = xi[n - 1] + k * math.fsum(
        math.log(math.cosh(x[j] / k)) for j in range(n - 1)
    )
    return PointOrthogonal(x)


@in_float_range
def orthogonal_to_paracycle(p, k: float = 1.0) -> PointParacycle:
    k = positive("k", k)
    xs = _coords(p)
    n = len(xs)
    _check_dim(n)
    xi_n = xs[n - 1] - k * math.fsum(
        math.log(math.cosh(xs[j] / k)) for j in range(n - 1)
    )
    scale = math.exp(xi_n / k)
    xi = [0.0] * n
    prodc = 1.0
    for i in range(n - 2, -1, -1):
        xi[i] = scale * k * math.sinh(xs[i] / k) * prodc
        prodc *= math.cosh(xs[i] / k)
    xi[n - 1] = xi_n
    return PointParacycle(xi)


def _euclidean_surrogate(xs, n, k):
    """Vector u with |u| = sinh(r/k) whose direction carries the angles."""
    u = [0.0] * n
    for i in range(n - 1):
        prod = 1.0
        for j in range(i + 1, n - 1):
            prod *= math.cosh(xs[j] / k)
        u[i] = math.sinh(xs[i] / k) * prod
    prod = 1.0
    for j in range(n - 1):
        prod *= math.cosh(xs[j] / k)
    u[n - 1] = math.sinh(xs[n - 1] / k) * prod
    return u


def _polar_angles(u) -> tuple[float, ...]:
    """Spherical angles (phi_1 azimuthal, phi_2.. polar) of a vector.

    Convention: component i (1-based, i <= n-1) = |u| (prod_{j>i} sin phi_j)
    cos phi_i, component n = |u| prod_{j=1}^{n-1} sin phi_j.
    """
    n = len(u)
    ang = [0.0] * (n - 1)
    for i in range(n - 1, 1, -1):  # polar angles phi_{n-1} .. phi_2
        rest = math.sqrt(math.fsum(u[j] ** 2 for j in range(i - 1)) + u[n - 1] ** 2)
        ang[i - 1] = math.atan2(rest, u[i - 1])
    a = math.atan2(u[n - 1], u[0])
    if a < 0.0:
        a += 2.0 * math.pi
    ang[0] = a
    return tuple(ang)


def _vector_from_angles(norm: float, angles) -> list[float]:
    n = len(angles) + 1
    u = [0.0] * n
    sin_prod = 1.0
    for i in range(n - 1, 1, -1):
        u[i - 1] = norm * sin_prod * math.cos(angles[i - 1])
        sin_prod *= math.sin(angles[i - 1])
    u[0] = norm * sin_prod * math.cos(angles[0])
    u[n - 1] = norm * sin_prod * math.sin(angles[0])
    return u


@in_float_range
def orthogonal_to_spherical(p, k: float = 1.0) -> PointSpherical:
    """Polar coordinates of an orthogonal-coordinate point.

    The radius satisfies cosh(r/k) = prod_i cosh(x_i/k)."""
    k = positive("k", k)
    xs = _coords(p)
    n = len(xs)
    _check_dim(n)
    u = _euclidean_surrogate(xs, n, k)
    norm = math.sqrt(math.fsum(v * v for v in u))
    r = k * math.asinh(norm)
    return PointSpherical(r, _polar_angles(u))


@in_float_range
def spherical_to_orthogonal(p: PointSpherical, k: float = 1.0) -> PointOrthogonal:
    k = positive("k", k)
    if not isinstance(p, PointSpherical):
        raise DomainError("spherical_to_orthogonal expects a PointSpherical")
    n = p.n
    u = _vector_from_angles(math.sinh(p.r / k), p.angles)
    xs = [0.0] * n
    # u_i = sinh(x_i/k) * prod_{j>i} cosh(x_j/k): triangular, solved downward
    prodc = 1.0
    for i in range(n - 2, -1, -1):
        xs[i] = k * math.asinh(u[i] / prodc)
        prodc *= math.cosh(xs[i] / k)
    xs[n - 1] = k * math.asinh(u[n - 1] / prodc)
    return PointOrthogonal(xs)


def spherical_to_klein(p: PointSpherical, k: float = 1.0) -> PointKlein:
    """Radial map R = k tanh(r/k); angles are shared between the charts."""
    k = positive("k", k)
    if not isinstance(p, PointSpherical):
        raise DomainError("spherical_to_klein expects a PointSpherical")
    R = k * math.tanh(p.r / k)
    return PointKlein(_vector_from_angles(R, p.angles))


def klein_to_spherical(p, k: float = 1.0) -> PointSpherical:
    k = positive("k", k)
    X = _coords(p)
    _check_dim(len(X))
    R = math.sqrt(math.fsum(v * v for v in X))
    if R >= k:
        raise DomainError("point lies on or outside the projective ball")
    r = k * math.atanh(R / k)
    return PointSpherical(r, _polar_angles(X) if R > 0.0 else (0.0,) * (len(X) - 1))


def orthogonal_to_klein(p, k: float = 1.0) -> PointKlein:
    """Composition orthogonal -> spherical -> klein."""
    return spherical_to_klein(orthogonal_to_spherical(p, k), k)


def klein_to_orthogonal(p, k: float = 1.0) -> PointOrthogonal:
    return spherical_to_orthogonal(klein_to_spherical(p, k), k)


@in_float_range
def klein_distance(p, q, k: float = 1.0) -> float:
    """Hyperbolic distance between two points of the projective ball.

    cosh(d/k) = (1 - <P,Q>/k^2) / sqrt((1 - |P|^2/k^2)(1 - |Q|^2/k^2)).
    """
    k = positive("k", k)
    P, Q = _coords(p), _coords(q)
    if len(P) != len(Q):
        raise DomainError("points must have the same dimension")
    p2 = math.fsum((v / k) ** 2 for v in P)
    q2 = math.fsum((v / k) ** 2 for v in Q)
    if p2 >= 1.0 or q2 >= 1.0:
        raise DomainError("point lies on or outside the projective ball")
    dot = math.fsum(a * b for a, b in zip(P, Q)) / (k * k)
    arg = (1.0 - dot) / math.sqrt((1.0 - p2) * (1.0 - q2))
    return k * math.acosh(max(1.0, arg))


# ---------------------------------------------------------------------------
# coordinate-domain volume integration
# ---------------------------------------------------------------------------

@in_float_range
def coordinate_volume(
    system: str,
    bounds: Sequence[tuple],
    n: int,
    k: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> IntegralResult:
    """Integrate the chart's density over a coordinate-domain region.

    ``bounds`` lists one (axis, lo, hi) triple per coordinate, outermost
    integration level first.  ``axis`` is the 0-based coordinate slot
    (for the spherical chart slots 0..n-2 are phi_1..phi_{n-1} and slot
    n-1 is r); lo and hi may be numbers or callables of the outer
    integration variables, in listed order.
    """
    k = positive("k", k)
    n = _check_dim(n)
    if system not in COORDINATE_SYSTEMS:
        raise DomainError(f"unknown coordinate system {system!r}")
    if len(bounds) != n:
        raise DomainError(f"expected {n} bounds entries, got {len(bounds)}")
    axes = [int(b[0]) for b in bounds]
    if sorted(axes) != list(range(n)):
        raise DomainError(f"axes {axes} must be a permutation of 0..{n - 1}")
    spec = [(b[1], b[2]) for b in bounds]
    dens = _DENSITIES[system]
    coords = [0.0] * n

    def integrand(*vals):
        for ax, v in zip(axes, vals):
            coords[ax] = v
        return dens(coords, n, k)

    return quadrature.integrate_region(integrand, spec, tol)
