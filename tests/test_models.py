"""Coordinate chart tests: densities, transforms, distances, volumes."""

import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from hypervol import models, quadrature, solids
from hypervol.errors import DomainError, UnsupportedDimensionError
from hypervol.models import (
    coordinate_volume,
    density,
    klein_distance,
    paracycle_brick_volume,
    transform,
)
from hypervol.quadrature import DEFAULT_TOL, integrate_region

SPHERE_1 = 5.11093270570828898  # pi sinh 2 - 2 pi (mpmath)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_paracycle_values():
    assert density("paracycle", (0.3, 0.4, 0.0)) == 1.0
    assert density("paracycle", (0.0, 0.0, 1.0), k=1.0) == pytest.approx(math.exp(-2))
    assert abs(density("paracycle", (0.0, 0.0, 1.0), k=1e6) - 1.0) <= 1e-5


def test_density_halfspace_values():
    assert density("halfspace", (0.0, 0.0, 1.0), k=2.0) == 2.0
    assert density("halfspace", (0.0, 0.0, 2.0)) == pytest.approx(1 / 8)
    assert density("halfspace", (0.0, 2.0)) == pytest.approx(1 / 4)
    with pytest.raises(DomainError):
        density("halfspace", 2.0)  # a bare x_n is not a point
    with pytest.raises(DomainError):
        density("halfspace", (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        density("halfspace", (0.0, 0.0, -1.0))


def test_halfspace_consistent_with_paracycle():
    # x_n = e^{xi_n / k} maps one density to the other via dxi_n/dx_n = k/x_n
    k, xi_n = 1.3, 0.7
    xn = math.exp(xi_n / k)
    assert density("paracycle", (0.0, 0.0, xi_n), k=k) * k / xn == pytest.approx(
        density("halfspace", (0.0, 0.0, xn), k=k), rel=1e-12
    )


def test_density_orthogonal_values():
    assert density("orthogonal", (0.0, 0.0, 0.0)) == 1.0
    assert density("orthogonal", (0.0, 1.0, 0.7)) == pytest.approx(math.cosh(1.0) ** 2)
    assert density("orthogonal", (0.4, 0.9)) == pytest.approx(math.cosh(0.4))


def test_density_spherical_values():
    # a spherical point is (phi_1 .. phi_{n-1}, r)
    assert density("spherical", (0.0, 0.0, 0.0)) == 0.0
    assert density("spherical", (0.3, math.pi / 2, 1.0)) == pytest.approx(math.sinh(1.0) ** 2)


def test_density_klein_values():
    assert density("klein", (0.0, 0.0, 0.0)) == 1.0
    s = math.sqrt(0.5 / 3)
    assert density("klein", (s, s, s)) == pytest.approx(0.5 ** -2, rel=1e-12)
    s2 = math.sqrt(0.75 / 2)
    assert density("klein", (s2, s2)) == pytest.approx(0.25 ** -1.5, rel=1e-12)
    with pytest.raises(DomainError):
        density("klein", (1.0, 0.0, 0.0))


def test_densities_euclidean_limit():
    k = 1e6
    pts = {
        "paracycle": density("paracycle", (0.2, 0.3, 0.4), k=k),
        "orthogonal": density("orthogonal", (0.2, 0.3, 0.4), k=k),
        "klein": density("klein", (0.2, 0.3, 0.4), k=k),
    }
    for name, val in pts.items():
        assert abs(val - 1.0) <= 1e-6, name


# ---------------------------------------------------------------------------
# brick volume and chord/arc
# ---------------------------------------------------------------------------

def test_paracycle_brick_volume():
    inf = float("inf")
    assert paracycle_brick_volume((1.0, 1.0, inf), k=1.0) == pytest.approx(0.5)
    assert paracycle_brick_volume((1.0, 1.0, inf), k=1.0) == pytest.approx(
        solids.paraspherical_sector(1.0)
    )
    # a_n -> infinity with unit base: k / (n - 1)
    assert paracycle_brick_volume((1.0, 1.0, 1.0, inf), k=1.5) == pytest.approx(1.5 / 3)
    # k = n - 1 with unit base: natural unit volume
    assert paracycle_brick_volume((1.0, 1.0, inf), k=2.0) == pytest.approx(1.0)
    # monotone in each side
    v0 = paracycle_brick_volume((1.0, 1.0, 1.0))
    assert paracycle_brick_volume((1.2, 1.0, 1.0)) > v0
    assert paracycle_brick_volume((1.0, 1.2, 1.0)) > v0
    assert paracycle_brick_volume((1.0, 1.0, 1.2)) > v0


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def rnd_coords(rng, n, scale=1.5):
    return tuple(rng.uniform(-scale, scale) for _ in range(n))


def test_paracycle_orthogonal_round_trip():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(25):
            xi = rnd_coords(rng, n)
            x = transform(xi, "paracycle", "orthogonal")
            back = transform(x, "orthogonal", "paracycle")
            for u, v in zip(xi, back):
                assert abs(u - v) < 1e-12 * max(1.0, abs(u))


def test_paracycle_axis_points_fixed():
    x = transform((0.0, 0.0, 0.8), "paracycle", "orthogonal")
    assert x == pytest.approx((0.0, 0.0, 0.8))
    assert transform(x, "orthogonal", "paracycle") == pytest.approx((0.0, 0.0, 0.8))


def test_orthogonal_spherical_round_trip_and_radius():
    rng = random.Random(12)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            xs = rnd_coords(rng, n)
            s = transform(xs, "orthogonal", "spherical")
            prod = 1.0
            for v in xs:
                prod *= math.cosh(v)
            assert math.cosh(s[-1]) == pytest.approx(prod, rel=1e-12)
            back = transform(s, "spherical", "orthogonal")
            for u, v in zip(xs, back):
                assert abs(u - v) < 1e-10


def test_spherical_sine_relation_3d():
    # sinh(x_2) = sinh(r) cos(phi_2) for n = 3
    rng = random.Random(13)
    for _ in range(20):
        xs = rnd_coords(rng, 3)
        phi_1, phi_2, r = transform(xs, "orthogonal", "spherical")
        assert abs(math.sinh(xs[1]) - math.sinh(r) * math.cos(phi_2)) < 1e-12


def test_single_axis_point():
    assert transform((0.9, 0.0, 0.0), "orthogonal", "spherical")[-1] == pytest.approx(
        0.9, rel=1e-14)
    kp = transform((0.9, 0.0, 0.0), "orthogonal", "klein")
    assert kp[0] == pytest.approx(math.tanh(0.9), rel=1e-13)
    assert abs(kp[1]) < 1e-15 and abs(kp[2]) < 1e-15


def test_spherical_klein_radial_map():
    p = (0.4, 1.1, 1.0)
    q = transform(p, "spherical", "klein")
    assert math.hypot(*q) == pytest.approx(math.tanh(1.0), rel=1e-13)
    back = transform(q, "klein", "spherical")
    assert back[-1] == pytest.approx(1.0, rel=1e-12)
    assert back[:-1] == pytest.approx(p[:-1], abs=1e-12)
    # r -> infinity approaches the unit sphere
    far = transform((0.4, 1.1, 20.0), "spherical", "klein")
    assert math.hypot(*far) == pytest.approx(1.0, rel=1e-12)


def test_azimuth_stays_below_two_pi():
    # atan2 gives -1e-300 here, and -1e-300 + 2pi rounds to 2pi, outside [0, 2pi)
    s = transform((0.5, -1e-300), "klein", "spherical")
    assert s[0] == 0.0
    assert transform(s, "spherical", "klein") == pytest.approx((0.5, 0.0), rel=1e-15)


def test_orthogonal_klein_round_trip_and_origin():
    rng = random.Random(14)
    assert transform((0.0, 0.0, 0.0), "orthogonal", "klein") == (0.0, 0.0, 0.0)
    for n in (2, 3, 4):
        for _ in range(20):
            xs = rnd_coords(rng, n)
            kp = transform(xs, "orthogonal", "klein")
            back = transform(kp, "klein", "orthogonal")
            for u, v in zip(xs, back):
                assert abs(u - v) < 1e-10


def test_pythagoras_distance_of_image():
    a, b = 1.0, 1.0
    img = transform((a, b, 0.0), "orthogonal", "klein")
    d = klein_distance((0.0, 0.0, 0.0), img)
    assert d == pytest.approx(math.acosh(math.cosh(a) * math.cosh(b)), abs=1e-10)


def test_distance_invariance_between_paths():
    rng = random.Random(15)
    for _ in range(10):
        xs1, xs2 = rnd_coords(rng, 3, 1.0), rnd_coords(rng, 3, 1.0)
        d1 = klein_distance(transform(xs1, "orthogonal", "klein"),
                            transform(xs2, "orthogonal", "klein"))
        # second path through the paracycle chart
        via1, via2 = (transform(transform(x, "orthogonal", "paracycle"), "paracycle",
                                "orthogonal") for x in (xs1, xs2))
        d2 = klein_distance(transform(via1, "orthogonal", "klein"),
                            transform(via2, "orthogonal", "klein"))
        assert abs(d1 - d2) < 1e-10


def test_klein_distance_metric_properties():
    rng = random.Random(16)
    assert klein_distance((0.1, 0.2, 0.0), (0.1, 0.2, 0.0)) == 0.0
    assert klein_distance((0.0, 0.0, 0.0), (0.5, 0.0, 0.0)) == pytest.approx(
        math.atanh(0.5), rel=1e-13
    )
    for _ in range(20):
        pts = [tuple(rng.uniform(-0.5, 0.5) for _ in range(3)) for _ in range(3)]
        dab = klein_distance(pts[0], pts[1])
        dba = klein_distance(pts[1], pts[0])
        assert dab == pytest.approx(dba, rel=1e-14)
        assert dab + klein_distance(pts[1], pts[2]) >= klein_distance(pts[0], pts[2]) - 1e-12
    with pytest.raises(DomainError):
        klein_distance((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# 40-digit references
# ---------------------------------------------------------------------------

def _mp_klein_distance(P, Q):
    P, Q = [mp.mpf(v) for v in P], [mp.mpf(v) for v in Q]
    dot, p2, q2 = (mp.fsum(a * b for a, b in zip(x, y)) for x, y in ((P, Q), (P, P), (Q, Q)))
    return mp.acosh((1 - dot) / mp.sqrt((1 - p2) * (1 - q2)))


def test_klein_distance_of_nearby_points_matches_mpmath():
    # pairs 1e-12 to 1 apart; through cosh d, d is 0.0 at 1e-9 apart and
    # 4.4e-5 relative off at 1e-6
    rng = random.Random(21)
    worst = 0.0
    with mp.workdps(60):
        for _ in range(400):
            n = rng.randint(2, 5)
            P = [rng.uniform(-0.5, 0.5) for _ in range(n)]
            step = 10.0 ** rng.uniform(-12, 0) / n
            Q = [v + rng.uniform(-step, step) for v in P]
            if P == Q or sum(v * v for v in Q) >= 0.95:
                continue
            ref = _mp_klein_distance(P, Q)
            worst = max(worst, float(abs(klein_distance(P, Q) - ref) / ref))
    assert worst <= 1e-14


def _mp_surrogate_to_orthogonal(u):
    """Orthogonal coordinates from the vector u = sinh(r) (direction), by the
    triangular system u_i = sinh(x_i) prod_{i<j<n} cosh(x_j), u_n =
    sinh(x_n) prod_{j<n} cosh(x_j)."""
    n = len(u)
    x, prodc = [mp.mpf(0)] * n, mp.mpf(1)
    for i in range(n - 2, -1, -1):
        x[i] = mp.asinh(u[i] / prodc)
        prodc *= mp.cosh(x[i])
    x[n - 1] = mp.asinh(u[n - 1] / prodc)
    return x


def _mp_orthogonal_to_surrogate(x):
    n = len(x)
    c = [mp.cosh(v) for v in x]
    u = [mp.sinh(x[i]) * mp.fprod(c[i + 1:n - 1]) for i in range(n - 1)]
    return u + [mp.sinh(x[n - 1]) * mp.fprod(c[:n - 1])]


def _mp_angles_to_vector(norm, phi):
    n = len(phi) + 1
    u, s = [mp.mpf(0)] * n, norm
    for i in range(n - 2, 0, -1):
        u[i] = s * mp.cos(phi[i])
        s *= mp.sin(phi[i])
    u[0], u[n - 1] = s * mp.cos(phi[0]), s * mp.sin(phi[0])
    return u


def _mp_vector_to_angles(u):
    n = len(u)
    a = mp.atan2(u[n - 1], u[0])
    polar = [mp.atan2(mp.sqrt(mp.fsum(v * v for v in u[:i]) + u[n - 1] ** 2), u[i])
             for i in range(1, n - 1)]
    return [a + 2 * mp.pi if a < 0 else a, *polar]


def _mp_to_orthogonal(p, source):
    """The pairwise closed forms of each chart to orthogonal coordinates."""
    p = [mp.mpf(v) for v in p]
    n = len(p)
    if source == "orthogonal":
        return p
    if source == "paracycle":
        scale = mp.exp(-p[n - 1])
        x, prodc = [mp.mpf(0)] * n, mp.mpf(1)
        for i in range(n - 2, -1, -1):
            x[i] = mp.asinh(p[i] * scale / prodc)
            prodc *= mp.cosh(x[i])
        x[n - 1] = p[n - 1] + mp.fsum(mp.log(mp.cosh(v)) for v in x[:n - 1])
        return x
    if source == "spherical":
        return _mp_surrogate_to_orthogonal(_mp_angles_to_vector(mp.sinh(p[-1]), p[:-1]))
    R = mp.sqrt(mp.fsum(v * v for v in p))  # klein: r = atanh R along X
    return _mp_surrogate_to_orthogonal([mp.sinh(mp.atanh(R)) * v / R for v in p])


def _mp_from_orthogonal(x, target):
    n = len(x)
    if target == "paracycle":
        xi_n = x[n - 1] - mp.fsum(mp.log(mp.cosh(v)) for v in x[:n - 1])
        return [mp.exp(xi_n) * v for v in _mp_orthogonal_to_surrogate(x)[:-1]] + [xi_n]
    if target == "orthogonal":
        return x
    u = _mp_orthogonal_to_surrogate(x)
    norm = mp.sqrt(mp.fsum(v * v for v in u))
    if target == "spherical":
        return [*_mp_vector_to_angles(u), mp.asinh(norm)]
    return [mp.tanh(mp.asinh(norm)) * v / norm for v in u]  # klein: R = tanh r


def _sample_point(rng, chart, n):
    """|x_i| <= 3, r <= 3 and |X|^2 < 0.9, no coordinate 0."""
    if chart == "spherical":
        return (rng.uniform(0.0, 2 * math.pi), *(rng.uniform(0.0, math.pi) for _ in range(n - 2)),
                rng.uniform(0.0, 3.0))
    if chart == "klein":
        X = [rng.gauss(0.0, 1.0) for _ in range(n)]
        scale = math.sqrt(0.9) * rng.random() ** (1.0 / n) / math.hypot(*X)
        return tuple(v * scale for v in X)
    return tuple(rng.uniform(-3.0, 3.0) for _ in range(n))


TRANSFORM_CHARTS = ("paracycle", "orthogonal", "spherical", "klein")


@pytest.mark.parametrize("source, target", [
    (s, t) for s in TRANSFORM_CHARTS for t in TRANSFORM_CHARTS if s != t])
def test_transform_matches_mpmath(source, target):
    # orthogonal -> klein through polar angles (atan2, then cos and sin) is 5.9e-12
    # relative off at n = 5
    rng = random.Random(TRANSFORM_CHARTS.index(source))
    with mp.workdps(40):
        for n in (2, 3, 4, 5):
            for _ in range(24):
                p = _sample_point(rng, source, n)
                got = transform(p, source, target)
                ref = _mp_from_orthogonal(_mp_to_orthogonal(p, source), target)
                for g, r in zip(got, ref):
                    assert abs(g - r) <= 4e-15 * max(1.0, abs(r)), (p, got)
                    if {source, target} == {"orthogonal", "klein"}:
                        assert abs(g - r) <= 1e-14 * abs(r), (p, got)


# ---------------------------------------------------------------------------
# change of variables (numeric Jacobians)
# ---------------------------------------------------------------------------

def _num_jacobian(fn, x, h=2e-6):
    n = len(x)
    cols = []
    for j in range(n):
        xp = list(x)
        xm = list(x)
        xp[j] += h
        xm[j] -= h
        fp, fm = fn(xp), fn(xm)
        cols.append([(a - b) / (2 * h) for a, b in zip(fp, fm)])
    # determinant of the 3x3 Jacobian (columns = partials)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_orthogonal_to_spherical_jacobian_matches_densities():
    rng = random.Random(17)

    def T(x):
        return transform(x, "orthogonal", "spherical")

    for _ in range(100):
        xs = tuple(rng.uniform(0.2, 1.2) for _ in range(3))
        det = abs(_num_jacobian(T, xs))
        lhs = density("orthogonal", xs, k=1.0)
        rhs = density("spherical", T(xs), k=1.0) * det
        assert rhs == pytest.approx(lhs, rel=1e-8)


def test_spherical_to_klein_jacobian_matches_densities():
    rng = random.Random(18)

    def T(v):
        return transform(v, "spherical", "klein")

    for _ in range(100):
        v = (rng.uniform(0.2, 2.8), rng.uniform(0.3, 2.8), rng.uniform(0.2, 1.5))
        det = abs(_num_jacobian(T, v))
        lhs = density("spherical", v, k=1.0)
        rhs = density("klein", T(v), k=1.0) * det
        assert rhs == pytest.approx(lhs, rel=1e-8)


@pytest.mark.parametrize("target", ["orthogonal", "spherical", "klein"])
def test_paracycle_jacobian_matches_densities(target):
    rng = random.Random(19)

    def T(v):
        return transform(v, "paracycle", target)

    for _ in range(50):
        xi = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8))
        det = abs(_num_jacobian(T, xi))
        lhs = density("paracycle", xi)
        rhs = density(target, T(xi)) * det
        assert rhs == pytest.approx(lhs, rel=1e-8)


# ---------------------------------------------------------------------------
# coordinate-domain volumes
# ---------------------------------------------------------------------------

def test_coordinate_volume_spherical_ball():
    res = coordinate_volume(
        "spherical",
        [(0, 0.0, 2 * math.pi), (1, 0.0, math.pi), (2, 0.0, 1.0)],
        n=3,
    )
    assert res.value == pytest.approx(SPHERE_1, abs=1e-8)
    assert res.value == pytest.approx(solids.sphere_volume(1.0), abs=1e-8)


def test_coordinate_volume_paracycle_brick():
    res = coordinate_volume(
        "paracycle",
        [(0, 0.0, 0.8), (1, 0.0, 1.1), (2, 0.0, 0.9)],
        n=3,
        k=1.3,
    )
    assert res.value == pytest.approx(
        paracycle_brick_volume((0.8, 1.1, 0.9), k=1.3), rel=1e-9
    )


def test_coordinate_volume_orthogonal_triangle_defect():
    a, b = 1.0, 0.8
    ratio = math.tanh(b) / math.sinh(a)
    res = coordinate_volume(
        "orthogonal",
        [(1, 0.0, a), (0, 0.0, lambda x: math.atanh(ratio * math.sinh(x)))],
        n=2,
    )
    alpha = math.atan(math.tanh(a) / math.sinh(b))
    beta = math.atan(math.tanh(b) / math.sinh(a))
    assert res.value == pytest.approx(math.pi / 2 - alpha - beta, abs=1e-8)


def test_coordinate_volume_halfspace_box():
    res = coordinate_volume(
        "halfspace",
        [(0, 0.0, 1.0), (1, 0.0, 1.0), (2, 1.0, 2.0)],
        n=3,
        k=2.0,
    )
    assert res.value == pytest.approx(2.0 * (0.5 - 0.125), rel=1e-10)


def test_coordinate_volume_klein_box():
    res = coordinate_volume(
        "klein",
        [(0, -0.3, 0.3), (1, -0.3, 0.3), (2, -0.2, 0.4)],
        n=3,
    )
    assert res.value > 0.6 * 0.6 * 0.6  # density >= 1 everywhere
    assert res.error_estimate < 1e-8


def test_coordinate_volume_n5_spherical_box_within_the_budget():
    # four quadrature levels that each take three panels: with every inner level at a
    # tenth of its parent's tolerance (down to 1e-13) this box ran out of the 10^6
    # evaluations; the exact value is the product of its one-slot integrals
    k = mp.mpf(1.25)
    with mp.workdps(30):
        exact = 2 * mp.pi * k ** 4 * mp.quad(lambda r: mp.sinh(r / k) ** 4, [0, 1.2])
        for p in (1, 2, 3):
            exact *= mp.quad(lambda x: mp.sin(x) ** p, [0.2, 2.9])
    bounds = [(1, 0.2, 2.9), (2, 0.2, 2.9), (3, 0.2, 2.9), (4, 0.0, 1.2), (0, 0.0, 2 * math.pi)]
    res = coordinate_volume("spherical", bounds, 5, 1.25)
    assert res.value == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def test_coordinate_volume_klein_box_next_to_the_sphere():
    # |X|^2 reaches 0.9998 at the far corner, where the density is 2.5e7 times its
    # value at 0; the value is the one the tenth-per-level cascade gave
    bounds = [(0, 0.0, 0.7), (1, 0.0, 0.7), (2, 0.0, 0.1407)]
    res = coordinate_volume("klein", bounds, 3)
    assert res.value == pytest.approx(0.3630073436773341, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("outermost", [True, False])
def test_coordinate_volume_halfspace_box_from_near_the_boundary(outermost):
    # the density x_3^-3 grows 10^9-fold from x_3 = 1 down to 1e-3, in an outer level
    side = [(0, 0.0, 0.5), (1, 0.0, 0.5)]
    xn = (2, 1e-3, 1.0)
    bounds = [xn, *side] if outermost else [side[0], xn, side[1]]
    exact = float(Fraction(1, 4) * (Fraction(1e-3) ** -2 - 1) / 2)
    res = coordinate_volume("halfspace", bounds, 3)
    assert res.value == pytest.approx(exact, rel=1e-15, abs=0.0)


def _scatter_reference(system, bounds, n, k):
    """coordinate_volume as the plain nested integral of a density that
    scatters the level-order variables into their slots."""
    coords = [0.0] * n
    free = bounds[-1][0]

    def integrand(*outer):
        for (ax, _, _), v in zip(bounds, outer):
            coords[ax] = v

        def f(x):
            coords[free] = x
            return density(system, coords, k=k)

        return f

    return integrate_region(integrand, [(lo, hi) for _, lo, hi in bounds], DEFAULT_TOL)


_SCATTER_K = 1.3


def _atanh_bound(r):
    # the orthogonal chart's edge bound k atanh(r sinh(x / k)) in the last outer variable
    return lambda *outer: _SCATTER_K * math.atanh(r * math.sinh(outer[-1] / _SCATTER_K))


# the range of each slot per chart, for the boxes with each slot innermost
_SLOT_RANGES = {
    "paracycle": [(0.0, 1.1), (-0.3, 0.8), (0.0, 1.4)],
    "halfspace": [(0.0, 1.0), (-0.5, 0.6), (0.3, 1.5)],
    "orthogonal": [(0.0, 1.1), (-0.2, 0.7), (0.0, 1.2)],
    "spherical": [(0.0, 2 * math.pi), (0.1, 3.0), (0.0, 1.3)],
    "klein": [(-0.4, 0.4), (-0.4, 0.3), (-0.3, 0.4)],
}


def _innermost(system, free):
    """A box of chart ``system`` integrated over slot ``free`` innermost, the
    other two in slot order outside it; the innermost upper limit varies
    with the outermost variable, so that the outer levels refine."""
    r = _SLOT_RANGES[system]
    bounds = [(ax, *r[ax]) for ax in range(3) if ax != free]
    lo, hi = r[free]
    return bounds + [(free, lo, lambda x, y: lo + (hi - lo) / (1.0 + 4.0 * x * x))]


@pytest.mark.parametrize("system, bounds", [
    ("orthogonal", [
        (2, 0.0, 0.6),
        (0, 0.0, _atanh_bound(math.tanh(0.9 / _SCATTER_K) / math.sinh(0.6 / _SCATTER_K))),
        (1, 0.0, _atanh_bound(math.tanh(0.7 / _SCATTER_K) / math.sinh(0.9 / _SCATTER_K)))]),
    ("klein", [(0, -0.4, 0.4), (1, -0.4, lambda x0: 0.3 + x0 / 2), (2, -0.3, 0.4)]),
    # every chart with each slot innermost: the free factor of a product density
    # at the start, in the middle or at the end of the product, or in none of it
    *((system, _innermost(system, free)) for system in _SLOT_RANGES for free in range(3)),
], ids=["orthogonal-permuted", "klein-identity",
        *(f"{system}-slot{free}-innermost" for system in _SLOT_RANGES for free in range(3))])
def test_coordinate_volume_matches_a_scatter_integrand(system, bounds):
    # the closed-form innermost level against plain nested quadrature of density()
    res = coordinate_volume(system, bounds, 3, _SCATTER_K)
    ref = _scatter_reference(system, bounds, 3, _SCATTER_K)
    assert abs(res.value - ref.value) <= 1e-12 * abs(ref.value)


# ---------------------------------------------------------------------------
# the innermost level in closed form
# ---------------------------------------------------------------------------

def _mp_density(system, c, k):
    c, k = [mp.mpf(v) for v in c], mp.mpf(k)
    n = len(c)
    if system == "paracycle":
        return mp.exp(-(n - 1) * c[-1] / k)
    if system == "halfspace":
        return k / c[-1] ** n
    if system == "orthogonal":
        return mp.fprod(mp.cosh(v / k) ** (i + 1) for i, v in enumerate(c[:-1]))
    if system == "spherical":
        return (k ** (n - 1) * mp.sinh(c[-1] / k) ** (n - 1)
                * mp.fprod(mp.sin(v) ** i for i, v in enumerate(c[1:-1], 1)))
    return (1 - mp.fsum((v / k) ** 2 for v in c)) ** (-mp.mpf(n + 1) / 2)


def _innermost_cases(system, n, free, k, rng):
    """(c, lo, hi) for slot ``free``: intervals from 0, of width 1e-3 and 1e-3 of
    their distance from 0, radii and angles <= 1e-3, polar intervals ending at pi,
    half-space heights from 1e-3 to 1e3 and Klein intervals within 1e-3 of the sphere."""
    pi = math.pi
    c = [rng.uniform(-1.5, 1.5) * k for _ in range(n)]
    if system == "halfspace":
        c[-1] = rng.uniform(0.3, 2.0)
    if system == "spherical":
        c = [rng.uniform(0.0, 2 * pi), *(rng.uniform(0.2, 2.9) for _ in range(n - 2)),
             rng.uniform(0.1, 2.0) * k]
    if system == "klein":
        # the others at |X/k|^2 = S, leaving the free slot the room R
        cases = []
        for S, lo, hi in ((0.2, -0.3, 0.5), (0.5, 0.9, 0.999), (0.3, -0.999, -0.998001),
                          (0.1, 0.0, 1e-3), (0.4, 0.5, 0.5005), (0.6, -0.999, 0.998),
                          (1 - 2e-3, -0.5, 0.9)):
            u = [rng.gauss(0.0, 1.0) for _ in range(n - 1)]
            u = [v * math.sqrt(S) * k / math.hypot(*u) for v in u]
            R = math.sqrt(1 - S) * k
            cases.append((u[:free] + [0.0] + u[free:], lo * R, hi * R))
        return cases
    if system == "spherical" and 0 < free < n - 1:
        spans = [(0.0, 1e-3), (1e-3, 2e-3), (0.3, 0.3003), (0.7, 0.8), (2.0, pi),
                 (pi - 1e-3, pi), (0.0, pi)]
    elif system == "spherical" and free == n - 1:
        spans = [(0.0, 1e-3 * k), (1e-3 * k, 1.001e-3 * k), (0.6 * k, 0.6006 * k),
                 (0.7 * k, 0.8 * k), (0.0, 2.0 * k)]
    elif system == "halfspace" and free == n - 1:
        spans = [(1e-3, 2e-3), (1e-3, 1.001e-3), (1.0, 1.001), (1e3, 1.001e3), (1e-3, 1e3)]
    elif (system in ("paracycle", "halfspace") and free < n - 1
          or system == "orthogonal" and free == n - 1 or system == "spherical" and free == 0):
        spans = [(0.0, 0.5 * k)]  # the slot has no factor
    else:
        spans = [(0.0, 1e-3 * k), (0.3 * k, 0.3003 * k), (-0.4 * k, 1.1 * k), (1.2 * k, 2.5 * k)]
    return [(c, lo, hi) for lo, hi in spans]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("system", models.COORDINATE_SYSTEMS)
def test_innermost_integral_matches_mpmath(system, n):
    # each chart's exact integral along one slot, against 40-digit quadrature of its density
    rng = random.Random(n)
    integral = models._chart(system).integral
    with mp.workdps(40):
        for free in range(n):
            k = (1.0, 1.3)[free % 2]
            last = (free + 1) % n  # the slot of the last outer variable
            for c, lo, hi in _innermost_cases(system, n, free, k, rng):
                # the Klein density with the other coordinates summed once, for speed
                gap = 1 - mp.fsum((mp.mpf(v) / k) ** 2 for v in c[:free] + c[free + 1:])

                def f(x):
                    if system == "klein":
                        return (gap - (x / k) ** 2) ** (-mp.mpf(n + 1) / 2)
                    return _mp_density(system, c[:free] + [x] + c[free + 1:], k)

                ref = mp.quad(f, [mp.mpf(lo), mp.mpf(hi)])
                got = integral(list(c), free, last, k, lo, hi)(c[last], lo, hi)
                assert abs(got - ref) <= 1e-13 * abs(ref), (free, k, c, lo, hi, got)


def _nested_quad_boxes():
    """The five chart boxes of the nested-quad benchmark, at fixed sizes."""
    k = 1.25
    r0, r1 = math.tanh(0.9 / k) / math.sinh(0.6 / k), math.tanh(0.7 / k) / math.sinh(0.9 / k)
    return {
        "paracycle": ([(0, 0.0, 0.4), (1, 0.0, 1.1), (2, 0.0, 1.6)], k),
        "halfspace": ([(0, 0.0, 0.9), (1, 0.0, 1.4), (2, 0.5, 1.8)], k),
        "orthogonal": ([(2, 0.0, 0.6), (0, 0.0, lambda xn: k * math.atanh(r0 * math.sinh(xn / k))),
                        (1, 0.0, lambda xn, x1: k * math.atanh(r1 * math.sinh(x1 / k)))], k),
        "spherical": ([(0, 0.0, 2 * math.pi), (1, 0.0, math.pi), (2, 0.0, 1.7)], k),
        "klein": ([(0, -0.3, 0.5), (1, -0.55, 0.2), (2, -0.1, 0.45)], k),
    }


@pytest.mark.parametrize("system, evaluations", [
    ("paracycle", 225), ("halfspace", 225), ("orthogonal", 765), ("spherical", 225),
    ("klein", 1605)])
def test_coordinate_volume_evaluations_on_the_benchmark_boxes(system, evaluations):
    # only the outer two levels run quadrature: 15 x 15 evaluations where each
    # finishes in one panel; with the innermost level in quadrature too these took
    # 3,375 (paracycle, spherical), 16,875, 13,275 and 37,905, and with the inner
    # level at a tenth of the outer tolerance orthogonal took 885 and klein 2,025
    bounds, k = _nested_quad_boxes()[system]
    assert coordinate_volume(system, bounds, 3, k).evaluations == evaluations


@pytest.mark.parametrize("n", [2, 4])
def test_coordinate_volume_of_a_paracycle_brick_with_each_slot_innermost(n):
    sides = (0.8, 1.1, 0.6, 0.9)[-n:]
    ref = paracycle_brick_volume(sides, k=1.3)
    for free in range(n):
        axes = [ax for ax in range(n) if ax != free] + [free]
        res = coordinate_volume("paracycle", [(ax, 0.0, sides[ax]) for ax in axes], n, 1.3)
        assert abs(res.value - ref) <= 1e-13 * ref


def test_coordinate_volume_validation():
    with pytest.raises(DomainError):
        coordinate_volume("nope", [(0, 0, 1)], n=2)
    with pytest.raises(DomainError):
        coordinate_volume("klein", [(0, 0, 1)], n=2)
    with pytest.raises(DomainError):
        coordinate_volume("klein", [(0, 0, 1), (0, 0, 1)], n=2)


def _float_message(v):
    """The message of float(v)'s TypeError or ValueError, as this Python words it."""
    try:
        float(v)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"float({v!r}) is a number")


@pytest.mark.parametrize("lo, hi, message", [
    (lambda x2, x0: "x", 0.4,
     "a bound of integration variable 3 gave no number: " + _float_message("x")),
    (0.0, lambda x2, x0: None,
     "a bound of integration variable 3 gave no number: " + _float_message(None)),
    (0.0, lambda x2, x0: math.exp(1000.0),
     "a bound of integration variable 3 gave no number: math range error"),
    (0.0, lambda x2, x0: math.inf, "innermost limits must be finite with lo <= hi, got 0.0 and inf"),
    (0.5, 0.2, "innermost limits must be finite with lo <= hi, got 0.5 and 0.2"),
], ids=["callable-gives-a-string", "callable-gives-none", "callable-overflows",
        "callable-gives-inf", "constant-lo-above-hi"])
def test_coordinate_volume_innermost_limit_errors(lo, hi, message):
    # the innermost limits are resolved at each evaluation of the outer levels
    with pytest.raises(DomainError) as exc:
        coordinate_volume("orthogonal", [(2, 0.0, 0.6), (0, 0.0, 0.5), (1, lo, hi)], 3)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [True, False])
def test_coordinate_volume_refuses_a_callable_bound_that_gives_a_bool(value):
    # float() would take the bool for 1 or 0: at the innermost level, which the chart
    # integral takes, and at an outer one, which integrate_region runs
    for bounds, i in (([(0, 0, 1), (1, 0, 1), (2, 0, lambda *a: value)], 3),
                      ([(0, 0, 1), (1, 0, lambda x: value), (2, 0, 1)], 2)):
        with pytest.raises(DomainError) as exc:
            coordinate_volume("paracycle", bounds, 3)
        assert str(exc.value) == f"a bound of integration variable {i} gave {value}, not a number"


# ---------------------------------------------------------------------------
# the curried chart integrals against their one-call and list-building bodies
# ---------------------------------------------------------------------------
# The chart integrals as they read when each call did the whole work, verbatim but
# for their names: the references that the curried kernels of models must repeat
# float operation for float operation.  After them _density_orthogonal,
# _integral_orthogonal, _integral_klein and _squares as they read when each node
# built its lists, verbatim: the fsum terms in the same order.

_OUTSIDE_BALL = "point lies on or outside the projective ball"
_fourier = models._fourier
_sine_power = models._sine_power
_height = models._height
_density_paracycle = models._density_paracycle
_density_halfspace = models._density_halfspace
_density_spherical = models._density_spherical


def _one_call_paracycle(c, free, lo, hi, k):
    if free < len(c) - 1:
        return (hi - lo) * _density_paracycle(c, k)
    q = -(len(c) - 1) / k
    return math.exp(q * lo) * math.expm1(q * (hi - lo)) / q


def _one_call_halfspace(c, free, lo, hi, k):
    # k (lo^(1-n) - hi^(1-n)) / (n - 1), with hi / lo = 1 + w / lo
    n = len(c)
    if free < n - 1:
        return (hi - lo) * _density_halfspace(c, k)
    return k / (n - 1) * _height(lo) ** (1 - n) * -math.expm1((1 - n) * math.log1p((hi - lo) / lo))


def _one_call_orthogonal(c, free, lo, hi, k):
    # the density of the other slots, their factors multiplied in slot order
    n = len(c)
    d = 1.0
    for i in range(n - 1):
        if i != free:
            d *= math.cosh(c[i] / k) ** (i + 1)
    if free == n - 1:
        return (hi - lo) * d
    return k * d * _fourier(free + 1, 1, math.cosh, math.sinh, (lo + hi) / (2 * k),
                            (hi - lo) / (2 * k))


def _one_call_spherical(c, free, lo, hi, k):
    n = len(c)
    if free == 0:
        return (hi - lo) * _density_spherical(c, k)
    if free < n - 1:
        c[free] = math.pi / 2  # sin(pi/2) = 1: the density of the other slots
        return _density_spherical(c, k) * _sine_power(free, -1, lo, hi - lo)
    # r: k^{n-1} times the polar factors, and k from dr = k d(r/k)
    return (k ** n * math.prod([math.sin(v) ** i for i, v in enumerate(c[1:-1], 1)])
            * _sine_power(n - 1, 1, lo / k, (hi - lo) / k))


def _one_call_klein(c, free, lo, hi, k):
    # the density is k^{n+1} (K - x^2)^{-(n+1)/2}, K = k^2 - sum of the other x_i^2,
    # and x = sqrt(K) tanh(rho) makes it k^{n+1} K^{-n/2} cosh^{n-1}(rho) in rho.  K and
    # the gaps K - x^2 at the limits are sums of exact squares, so that they keep their
    # relative accuracy near the sphere.  One pass splits the other slots, k, lo and hi,
    # each v into halves a + b (Dekker), v^2 = a^2 + 2ab + b^2 exactly: the other
    # slots' terms less k's sum to -K, and with lo's or hi's after them to -(K - x^2)
    n = len(c)
    terms = []
    for i, v in enumerate((*c, k, lo, hi)):
        if i != free:
            a = 134217729.0 * v
            a -= a - v
            b = v - a
            terms += (-a * a, -2.0 * a * b, -b ** 2) if i == n else (a * a, 2.0 * a * b, b ** 2)
    K, ga = -math.fsum(terms[:-6]), -math.fsum(terms[:-3])
    del terms[-6:-3]  # lo's
    gb = -math.fsum(terms)
    if ga <= 0.0 or gb <= 0.0:
        raise DomainError(_OUTSIDE_BALL)
    rk = math.sqrt(K)

    def plus(x, g):
        # sqrt(K) + x, through the gap g = K - x^2 where that cancels
        return rk + x if x >= 0.0 else g / (rk - x)

    # e^rho = (sqrt(K) + x) / sqrt(K - x^2); h is half the rho width, from
    # e^{2 width} - 1 = 2 w sqrt(K) (sqrt(K) + hi) (sqrt(K) - lo) / (K - lo^2)(K - hi^2)
    h = 0.25 * math.log1p(2.0 * (hi - lo) * rk * plus(hi, gb) * plus(-lo, ga) / (ga * gb))
    s = math.log(plus(lo, ga) / math.sqrt(ga)) + h
    return k * (k * k / K) ** (n / 2) * _fourier(n - 1, 1, math.cosh, math.sinh, s, h)


_ONE_CALL = {"paracycle": _one_call_paracycle, "halfspace": _one_call_halfspace,
             "orthogonal": _one_call_orthogonal, "spherical": _one_call_spherical,
             "klein": _one_call_klein}


def _density_orthogonal(c, k):
    # prod_{i < n-1} cosh^{i+1}(c_i / k); slot n - 1 has no factor
    return math.prod([math.cosh(v / k) ** (i + 1) for i, v in enumerate(c[:-1])])


def _integral_orthogonal(c, free, lo, hi, k):
    if free == len(c) - 1:
        return (hi - lo) * _density_orthogonal(c, k)
    c[free] = 0.0  # cosh 0 = 1: the density of the other slots
    return k * _density_orthogonal(c, k) * _fourier(free + 1, 1, math.cosh, math.sinh,
                                                    (lo + hi) / (2 * k), (hi - lo) / (2 * k))


def _integral_klein(c, free, lo, hi, k):
    # the density is k^{n+1} (K - x^2)^{-(n+1)/2}, K = k^2 - sum of the other x_i^2,
    # and x = sqrt(K) tanh(rho) makes it k^{n+1} K^{-n/2} cosh^{n-1}(rho) in rho.  K and
    # the gaps K - x^2 at the limits are sums of exact squares, so that they keep their
    # relative accuracy near the sphere
    n = len(c)
    rest = _squares(c[:free] + c[free + 1:]) + [-s for s in _squares([k])]  # sums to -K
    K, ga, gb = [-math.fsum(rest + _squares(x)) for x in ((), (lo,), (hi,))]
    if ga <= 0.0 or gb <= 0.0:
        raise DomainError(_OUTSIDE_BALL)
    rk = math.sqrt(K)

    def plus(x, g):
        # sqrt(K) + x, through the gap g = K - x^2 where that cancels
        return rk + x if x >= 0.0 else g / (rk - x)

    # e^rho = (sqrt(K) + x) / sqrt(K - x^2); h is half the rho width, from
    # e^{2 width} - 1 = 2 w sqrt(K) (sqrt(K) + hi) (sqrt(K) - lo) / (K - lo^2)(K - hi^2)
    h = 0.25 * math.log1p(2.0 * (hi - lo) * rk * plus(hi, gb) * plus(-lo, ga) / (ga * gb))
    s = math.log(plus(lo, ga) / math.sqrt(ga)) + h
    return k * (k * k / K) ** (n / 2) * _fourier(n - 1, 1, math.cosh, math.sinh, s, h)


def _squares(values):
    """Three floats a value whose sum is the sum of their squares, exactly:
    Dekker's split of v into halves a + b, v^2 = a^2 + 2ab + b^2."""
    out = []
    for v in values:
        c = 134217729.0 * v
        a = c - (c - v)
        out += (a * a, 2.0 * a * (v - a), (v - a) ** 2)
    return out


def _curried(system, last, numbers):
    """The chart's curried integral as a one-call kernel (c, free, lo, hi, k).  Its
    first stage sees c with NaN in slot ``last``, which it must not read, and lo and
    hi as numbers or as None, as ``numbers`` (lo's, hi's) says; the function it
    returns is called at x = c[last] / 2 first, and what it returns at c[last] is
    the outcome."""
    integral = models._chart(system).integral

    def kernel(c, free, lo, hi, k):
        x, c[last] = c[last], math.nan
        at = integral(c, free, last, k, lo if numbers[0] else None, hi if numbers[1] else None)
        with contextlib.suppress(DomainError, ArithmeticError):
            at(0.5 * x, lo, hi)
        return at(x, lo, hi)

    return kernel


def _outcome(kernel, c, free, lo, hi, k):
    # the kernel's value, or the type and message of its error; c is copied, as the
    # kernels overwrite it
    try:
        return kernel(list(c), free, lo, hi, k)
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)


def _kernel_cases(system, n, free, k, rng):
    """(c, lo, hi) for slot ``free``: the intervals of _innermost_cases (Klein ones
    within 1e-3 of the sphere among them) and intervals with negative lower limits;
    for Klein also intervals that cross the sphere and a point whose other slots leave
    the ball, for the orthogonal chart a point whose other slot's cosh overflows."""
    cases = _innermost_cases(system, n, free, k, rng)
    if system == "klein":
        c = cases[0][0]
        R = math.sqrt(k * k - math.fsum([v * v for v in c]))
        cases += [(c, -0.5 * R, 1.001 * R), (c, -R, 0.5 * R), (c, -1.2 * R, -0.3 * R),
                  ([3.0 * v for v in c], -0.1 * R, 0.1 * R)]
        return cases
    c = cases[0][0]
    c[free] = rng.uniform(-1.0, 1.0)  # not read
    cases = [(c, lo, hi) for _, lo, hi in cases]
    cases += [(c, -2.5 * k, -1.2 * k), (c, -0.7 * k, 0.2 * k), (c, -1e-3 * k, 1e-3 * k)]
    other = next((i for i in range(n - 1) if i != free), None)
    if other is not None:
        big = list(c)
        big[other] = 800.0 * k
        cases.append((big, 0.0, 0.5 * k))
    return cases


def _compare_kernels(system, n, ref):
    """Compare the curried kernel, at every last slot and with the limits as numbers
    and as None, with the reference on every _kernel_cases case at k in {0.7, 1,
    1.3, 2.5}; the outcomes."""
    rng = random.Random(10 * n + len(system))
    outcomes = []
    for free in range(n):
        for k in (0.7, 1.0, 1.3, 2.5):
            for c, lo, hi in _kernel_cases(system, n, free, k, rng):
                want = _outcome(ref, c, free, lo, hi, k)
                for last in (s for s in range(n) if s != free):
                    for numbers in itertools.product((True, False), repeat=2):
                        got = _outcome(_curried(system, last, numbers), c, free, lo, hi, k)
                        assert got == want, (free, last, numbers, k, c, lo, hi)
                outcomes.append(want)
    return outcomes


# the errors of _kernel_cases, their messages up to the first comma
_KERNEL_ERRORS = {"orthogonal": {(OverflowError, "math range error")},
                  "klein": {(DomainError, _OUTSIDE_BALL)},
                  "halfspace": {(DomainError, "half-space coordinate x_n must be positive")}}


def _errors(outcomes):
    return {(o[0], o[1].split(",")[0]) for o in outcomes if isinstance(o, tuple)}


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("system", models.COORDINATE_SYSTEMS)
def test_curried_integrals_repeat_their_one_call_bodies_bit_for_bit(system, n):
    outcomes = _compare_kernels(system, n, _ONE_CALL[system])
    # both values and, where the chart has them, errors were compared
    assert sum(isinstance(o, float) for o in outcomes) >= 4 * 4 * n
    assert _errors(outcomes) == _KERNEL_ERRORS.get(system, set())


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("system", ["orthogonal", "klein"])
def test_orthogonal_and_klein_kernels_repeat_their_list_bodies_bit_for_bit(system, n):
    ref = {"orthogonal": _integral_orthogonal, "klein": _integral_klein}[system]
    outcomes = _compare_kernels(system, n, ref)
    # both values and errors were compared
    assert sum(isinstance(o, float) for o in outcomes) >= 5 * 4 * n
    assert _errors(outcomes) == _KERNEL_ERRORS[system]


@pytest.mark.parametrize("system", models.COORDINATE_SYSTEMS)
def test_the_fixed_slot_work_runs_once_per_innermost_integral(system, monkeypatch):
    # the chart integral's first stage runs once per innermost 1-D integral, and
    # those integrals make all the evaluations
    bounds, k = _nested_quad_boxes()[system]
    chart = models._chart(system)
    stage_one, innermost, integrate_1d_ = [], [], quadrature.integrate_1d

    def integral(c, *args):
        stage_one.append(c)  # kept, so that no two calls' c share an id
        return chart.integral(c, *args)

    def integrate_1d(f, *args):
        res = integrate_1d_(f, *args)
        if f.__qualname__ == "coordinate_volume.<locals>.integrand.<locals>.f":
            innermost.append(res.evaluations)
        return res

    monkeypatch.setitem(models._CHARTS, system, chart._replace(integral=integral))
    monkeypatch.setattr(quadrature, "integrate_1d", integrate_1d)
    res = coordinate_volume(system, bounds, 3, k)
    assert len({id(c) for c in stage_one}) == len(stage_one) == len(innermost) >= 15
    assert sum(innermost) == res.evaluations


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_point_validation():
    for chart in TRANSFORM_CHARTS:
        with pytest.raises(UnsupportedDimensionError):
            transform((1.0,), chart, "klein")
        with pytest.raises(UnsupportedDimensionError):
            density(chart, tuple(0.1 for _ in range(9)))
    with pytest.raises(DomainError):
        transform((float("nan"), 0.0), "paracycle", "orthogonal")
    for bad in ((0.0, 0.0, -1.0),                # r < 0
                (0.0, 4.0, 1.0),                 # polar angle above pi
                (0.0, -0.1, 1.0),                # polar angle below 0
                (2 * math.pi, 1.0, 1.0),         # azimuth outside [0, 2pi)
                (-0.1, 1.0, 1.0)):
        with pytest.raises(DomainError):
            transform(bad, "spherical", "klein")
        with pytest.raises(DomainError):
            density("spherical", bad)
    with pytest.raises(DomainError):
        transform((0.8, 0.8, 0.0), "klein", "spherical")
    with pytest.raises(DomainError):
        transform((0.8, 0.8, 0.0), "klein", "klein")
    for source, target in (("nope", "klein"), ("klein", None), ("halfspace", "klein"),
                           ("orthogonal", "halfspace")):
        with pytest.raises(DomainError):
            transform((0.1, 0.2), source, target)
    with pytest.raises(DomainError):
        density("nope", (0.1, 0.2))
    with pytest.raises(DomainError):
        density("klein", (0.1, 0.2), k=0.0)
