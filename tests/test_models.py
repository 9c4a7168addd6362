"""Coordinate chart tests: densities, transforms, distances, volumes."""

import math
import random

import pytest

from hypervol import models, solids
from hypervol.errors import DomainError, UnsupportedDimensionError
from hypervol.models import (
    PointKlein,
    PointOrthogonal,
    PointParacycle,
    PointSpherical,
    chord_arc,
    coordinate_volume,
    density_halfspace,
    density_klein,
    density_orthogonal,
    density_paracycle,
    density_spherical,
    klein_distance,
    klein_to_orthogonal,
    klein_to_spherical,
    orthogonal_to_klein,
    orthogonal_to_paracycle,
    orthogonal_to_spherical,
    paracycle_brick_volume,
    paracycle_to_orthogonal,
    spherical_to_klein,
    spherical_to_orthogonal,
)
from hypervol.quadrature import Tolerance

SPHERE_1 = 5.11093270570828898  # pi sinh 2 - 2 pi (mpmath)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_paracycle_values():
    assert density_paracycle((0.3, 0.4, 0.0)) == 1.0
    assert density_paracycle((0.0, 0.0, 1.0), k=1.0) == pytest.approx(math.exp(-2))
    assert abs(density_paracycle((0.0, 0.0, 1.0), k=1e6) - 1.0) <= 1e-5


def test_density_halfspace_values():
    assert density_halfspace((0.0, 0.0, 1.0), k=2.0) == 2.0
    assert density_halfspace((0.0, 0.0, 2.0)) == pytest.approx(1 / 8)
    assert density_halfspace((0.0, 2.0)) == pytest.approx(1 / 4)
    with pytest.raises(DomainError):
        density_halfspace(2.0)  # a bare x_n is not a point
    with pytest.raises(DomainError):
        density_halfspace((0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        density_halfspace((0.0, 0.0, -1.0))


def test_halfspace_consistent_with_paracycle():
    # x_n = e^{xi_n / k} maps one density to the other via dxi_n/dx_n = k/x_n
    k, xi_n = 1.3, 0.7
    xn = math.exp(xi_n / k)
    assert density_paracycle((0.0, 0.0, xi_n), k=k) * k / xn == pytest.approx(
        density_halfspace((0.0, 0.0, xn), k=k), rel=1e-12
    )


def test_density_orthogonal_values():
    assert density_orthogonal((0.0, 0.0, 0.0)) == 1.0
    assert density_orthogonal((0.0, 1.0, 0.7)) == pytest.approx(math.cosh(1.0) ** 2)
    assert density_orthogonal((0.4, 0.9)) == pytest.approx(math.cosh(0.4))


def test_density_spherical_values():
    assert density_spherical(PointSpherical(0.0, (0.0, 0.0))) == 0.0
    p = PointSpherical(1.0, (0.3, math.pi / 2))
    assert density_spherical(p) == pytest.approx(math.sinh(1.0) ** 2)


def test_density_klein_values():
    assert density_klein((0.0, 0.0, 0.0)) == 1.0
    s = math.sqrt(0.5 / 3)
    assert density_klein((s, s, s)) == pytest.approx(0.5 ** -2, rel=1e-12)
    s2 = math.sqrt(0.75 / 2)
    assert density_klein((s2, s2)) == pytest.approx(0.25 ** -1.5, rel=1e-12)
    with pytest.raises(DomainError):
        density_klein((1.0, 0.0, 0.0))


def test_densities_euclidean_limit():
    k = 1e6
    pts = {
        "paracycle": density_paracycle((0.2, 0.3, 0.4), k=k),
        "orthogonal": density_orthogonal((0.2, 0.3, 0.4), k=k),
        "klein": density_klein((0.2, 0.3, 0.4), k=k),
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
        solids.paraspherical_sector(1.0, 1.0)
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


def test_chord_arc():
    assert chord_arc(0.0) == (0.0, 0.0)
    s, z = chord_arc(1.0)
    assert s == pytest.approx(math.sinh(1.0), rel=1e-14)
    assert z == pytest.approx(math.log(math.cosh(1.0)), rel=1e-14)
    # s >= d >= z, equality only at 0
    for d in (0.1, 0.5, 2.0, 5.0):
        s, z = chord_arc(d)
        assert s > d > z
    # Euclidean limit
    s, z = chord_arc(1.0, k=1e8)
    assert s == pytest.approx(1.0, rel=1e-10)
    assert z == pytest.approx(0.0, abs=1e-7)


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
            k = rng.choice([1.0, 0.7, 2.5])
            x = paracycle_to_orthogonal(PointParacycle(xi), k)
            back = orthogonal_to_paracycle(x, k)
            for u, v in zip(xi, back.coords):
                assert abs(u - v) < 1e-12 * max(1.0, abs(u))


def test_paracycle_axis_points_fixed():
    p = PointParacycle((0.0, 0.0, 0.8))
    x = paracycle_to_orthogonal(p, 1.0)
    assert x.coords == pytest.approx((0.0, 0.0, 0.8))
    assert orthogonal_to_paracycle(x, 1.0).coords == pytest.approx((0.0, 0.0, 0.8))


def test_orthogonal_spherical_round_trip_and_radius():
    rng = random.Random(12)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            xs = rnd_coords(rng, n)
            k = rng.choice([1.0, 1.7])
            s = orthogonal_to_spherical(PointOrthogonal(xs), k)
            prod = 1.0
            for v in xs:
                prod *= math.cosh(v / k)
            assert math.cosh(s.r / k) == pytest.approx(prod, rel=1e-12)
            back = spherical_to_orthogonal(s, k)
            for u, v in zip(xs, back.coords):
                assert abs(u - v) < 1e-10


def test_spherical_sine_relation_3d():
    # sinh(x_2/k) = sinh(r/k) cos(phi_2) for n = 3
    rng = random.Random(13)
    for _ in range(20):
        xs = rnd_coords(rng, 3)
        s = orthogonal_to_spherical(PointOrthogonal(xs), 1.0)
        lhs = math.sinh(xs[1])
        rhs = math.sinh(s.r) * math.cos(s.angles[1])
        assert abs(lhs - rhs) < 1e-12


def test_single_axis_point():
    s = orthogonal_to_spherical(PointOrthogonal((0.9, 0.0, 0.0)), 1.0)
    assert s.r == pytest.approx(0.9, rel=1e-14)
    kp = orthogonal_to_klein((0.9, 0.0, 0.0), 1.0)
    assert kp.coords[0] == pytest.approx(math.tanh(0.9), rel=1e-13)
    assert abs(kp.coords[1]) < 1e-15 and abs(kp.coords[2]) < 1e-15


def test_spherical_klein_radial_map():
    p = PointSpherical(1.0, (0.4, 1.1))
    q = spherical_to_klein(p, 1.0)
    R = math.sqrt(sum(v * v for v in q.coords))
    assert R == pytest.approx(math.tanh(1.0), rel=1e-13)
    back = klein_to_spherical(q, 1.0)
    assert back.r == pytest.approx(1.0, rel=1e-12)
    assert back.angles == pytest.approx(p.angles, abs=1e-12)
    # r -> infinity approaches the unit sphere of radius k
    far = spherical_to_klein(PointSpherical(40.0, (0.4, 1.1)), 2.0)
    assert math.sqrt(sum(v * v for v in far.coords)) == pytest.approx(2.0, rel=1e-12)


def test_orthogonal_klein_round_trip_and_origin():
    rng = random.Random(14)
    assert orthogonal_to_klein((0.0, 0.0, 0.0)).coords == pytest.approx((0, 0, 0))
    for n in (2, 3, 4):
        for _ in range(20):
            xs = rnd_coords(rng, n)
            kp = orthogonal_to_klein(PointOrthogonal(xs), 1.0)
            back = klein_to_orthogonal(kp, 1.0)
            for u, v in zip(xs, back.coords):
                assert abs(u - v) < 1e-10


def test_pythagoras_distance_of_image():
    a, b = 1.0, 1.0
    img = orthogonal_to_klein((a, b, 0.0), 1.0)
    d = klein_distance((0.0, 0.0, 0.0), img, 1.0)
    assert d == pytest.approx(math.acosh(math.cosh(a) * math.cosh(b)), abs=1e-10)


def test_distance_invariance_between_paths():
    rng = random.Random(15)
    for _ in range(10):
        xs1, xs2 = rnd_coords(rng, 3, 1.0), rnd_coords(rng, 3, 1.0)
        k = rng.choice([1.0, 2.0])
        d1 = klein_distance(
            orthogonal_to_klein(xs1, k), orthogonal_to_klein(xs2, k), k
        )
        # second path through the paracycle chart
        via1 = paracycle_to_orthogonal(orthogonal_to_paracycle(PointOrthogonal(xs1), k), k)
        via2 = paracycle_to_orthogonal(orthogonal_to_paracycle(PointOrthogonal(xs2), k), k)
        d2 = klein_distance(
            orthogonal_to_klein(via1, k), orthogonal_to_klein(via2, k), k
        )
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
        s = orthogonal_to_spherical(PointOrthogonal(tuple(x)), 1.0)
        return (s.angles[0], s.angles[1], s.r)

    for _ in range(100):
        xs = tuple(rng.uniform(0.2, 1.2) for _ in range(3))
        det = abs(_num_jacobian(T, xs))
        lhs = density_orthogonal(xs, k=1.0)
        s = orthogonal_to_spherical(PointOrthogonal(xs), 1.0)
        rhs = density_spherical(s, k=1.0) * det
        assert rhs == pytest.approx(lhs, rel=1e-8)


def test_spherical_to_klein_jacobian_matches_densities():
    rng = random.Random(18)

    def T(v):
        return spherical_to_klein(PointSpherical(v[2], (v[0], v[1])), 1.0).coords

    for _ in range(100):
        v = (rng.uniform(0.2, 2.8), rng.uniform(0.3, 2.8), rng.uniform(0.2, 1.5))
        det = abs(_num_jacobian(T, v))
        lhs = density_spherical(PointSpherical(v[2], (v[0], v[1])), k=1.0)
        kp = spherical_to_klein(PointSpherical(v[2], (v[0], v[1])), 1.0)
        rhs = density_klein(kp, k=1.0) * det
        assert rhs == pytest.approx(lhs, rel=1e-8)


# ---------------------------------------------------------------------------
# coordinate-domain volumes
# ---------------------------------------------------------------------------

def test_coordinate_volume_spherical_ball():
    res = coordinate_volume(
        "spherical",
        [(0, 0.0, 2 * math.pi), (1, 0.0, math.pi), (2, 0.0, 1.0)],
        n=3,
        tol=Tolerance(rel=1e-11, abs=1e-13),
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
        tol=Tolerance(rel=1e-11, abs=1e-14),
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


def test_coordinate_volume_validation():
    with pytest.raises(DomainError):
        coordinate_volume("nope", [(0, 0, 1)], n=2)
    with pytest.raises(DomainError):
        coordinate_volume("klein", [(0, 0, 1)], n=2)
    with pytest.raises(DomainError):
        coordinate_volume("klein", [(0, 0, 1), (0, 0, 1)], n=2)


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_point_validation():
    with pytest.raises(UnsupportedDimensionError):
        PointOrthogonal((1.0,))
    with pytest.raises(UnsupportedDimensionError):
        PointOrthogonal(tuple(0.1 for _ in range(9)))
    with pytest.raises(DomainError):
        PointParacycle((float("nan"), 0.0))
    with pytest.raises(DomainError):
        PointSpherical(-1.0, (0.0, 0.0))
    with pytest.raises(DomainError):
        PointSpherical(1.0, (0.0, 4.0))
    with pytest.raises(DomainError):
        models.klein_to_spherical(PointKlein((0.8, 0.8, 0.0)), 1.0)
