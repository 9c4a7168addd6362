"""Tests for the classical solid volumes.

Frozen references come from 30-digit evaluation of the closed forms
(mpmath), computed independently before the implementation.
"""

import math

import mpmath
import pytest

from hypervol.errors import DomainError
from hypervol.shapes import compute_volume
from hypervol.quadrature import Tolerance
from hypervol.solids import (
    asymptotic_cone,
    barrel,
    barrel_by_quadrature,
    barrel_wedge,
    circular_cone,
    equidistant_body,
    equidistant_body_by_quadrature,
    paraspherical_sector,
    sphere_volume,
    sphere_volume_by_quadrature,
)

EQUIDISTANT_111 = 1.40671510196175469  # sinh(2)/4 + 1/2
SPHERE_11 = 5.11093270570828898       # pi sinh 2 - 2 pi
BARREL_111 = 4.33884684544285927      # pi sinh^2 1
ASYM_CONE_1 = 1.36276267031355765     # pi ln cosh 1

TIGHT = Tolerance(rel=1e-12)


def test_zero_parameters_give_zero():
    assert equidistant_body(1.0, 0.0) == 0.0
    assert paraspherical_sector(0.0) == 0.0
    assert sphere_volume(0.0) == 0.0
    assert barrel(1.0, 0.0) == 0.0
    assert barrel_wedge(2.0, 0.0) == 0.0
    assert asymptotic_cone(0.0) == 0.0


def test_frozen_values():
    assert equidistant_body(1.0, 1.0) == pytest.approx(EQUIDISTANT_111, rel=1e-14)
    assert sphere_volume(1.0) == pytest.approx(SPHERE_11, rel=1e-14)
    assert barrel(1.0, 1.0) == pytest.approx(BARREL_111, rel=1e-14)
    assert asymptotic_cone(1.0) == pytest.approx(ASYM_CONE_1, rel=1e-14)
    assert paraspherical_sector(6.0) == pytest.approx(3.0, rel=1e-15)
    assert barrel_wedge(2.0, 3.0) == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.5, 2.0])
def test_sphere_closed_vs_quadrature(x):
    assert abs(sphere_volume(x) - sphere_volume_by_quadrature(x, tol=TIGHT)) <= 1e-8


@pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 1.5, 2.0])
def test_equidistant_closed_vs_quadrature(q):
    a = equidistant_body(1.3, q)
    b = equidistant_body_by_quadrature(1.3, q, tol=TIGHT)
    assert abs(a - b) <= 1e-8


@pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 1.5, 2.0])
def test_barrel_closed_vs_quadrature(q):
    a = barrel(0.8, q)
    b = barrel_by_quadrature(0.8, q, tol=TIGHT)
    assert abs(a - b) <= 1e-8


def test_euclidean_limits():
    x = 0.01
    assert sphere_volume(x) == pytest.approx(4.0 / 3.0 * math.pi * x ** 3, rel=1e-4)
    q = 0.01
    assert equidistant_body(1.0, q) == pytest.approx(q, rel=1e-3)
    assert barrel(1.0, q) == pytest.approx(math.pi * q * q, rel=1e-3)
    b = 0.01
    assert asymptotic_cone(b) == pytest.approx(math.pi * b * b / 2.0, rel=1e-3)
    beta = math.pi / 4
    assert circular_cone(b, beta) == pytest.approx(
        math.pi * b ** 3 / (3.0 * math.tan(beta)), rel=1e-3
    )


def test_monotonicity():
    xs = [0.2, 0.5, 1.0, 1.8]
    vols = [sphere_volume(x) for x in xs]
    assert all(a < b for a, b in zip(vols, vols[1:]))
    vols = [barrel(p, 0.7) for p in xs]
    assert all(a < b for a, b in zip(vols, vols[1:]))
    vols = [barrel(0.7, q) for q in xs]
    assert all(a < b for a, b in zip(vols, vols[1:]))
    vols = [equidistant_body(1.0, q) for q in xs]
    assert all(a < b for a, b in zip(vols, vols[1:]))
    vols = [circular_cone(b, 0.7) for b in xs]
    assert all(a < b for a, b in zip(vols, vols[1:]))


# the closed forms at curvature k, written out with k in place
GENERAL_K = {
    "sphere": lambda x, k: math.pi * k ** 3 * math.sinh(2 * x / k) - 2 * math.pi * k ** 2 * x,
    "barrel": lambda x, k: math.pi * k ** 2 * 0.8 * math.sinh(x / k) ** 2,
    "equidistant": lambda x, k: 1.1 * k * math.sinh(2 * x / k) / 4 + 1.1 * x / 2,
    "sector": lambda x, k: x * k / 2,
    "asymptotic-cone": lambda x, k: math.pi * k ** 3 * math.log(math.cosh(x / k)),
}
PARAMS = {
    "sphere": lambda x: {"x": x},
    "barrel": lambda x: {"p": 0.8, "q": x},
    "equidistant": lambda x: {"p": 1.1, "q": x},
    "sector": lambda x: {"p": x},
    "asymptotic-cone": lambda x: {"b": x},
}


@pytest.mark.parametrize("shape", GENERAL_K)
def test_curvature_through_the_table(shape):
    # the solids are stated at k = 1; compute_volume scales them to k
    for x in (0.3, 0.9, 1.7):
        for k in (0.5, 2.0, 3.7):
            v, _, _ = compute_volume(shape, PARAMS[shape](x), k)
            assert v == pytest.approx(GENERAL_K[shape](x, k), rel=1e-12, abs=0.0)


def test_cone_degenerations():
    assert circular_cone(0.0, 0.5) == 0.0
    # half-angle approaching pi/2: the cone collapses onto its axis
    assert circular_cone(1.0, math.pi / 2 - 1e-4) < 1e-3
    with pytest.raises(DomainError):
        circular_cone(1.0, math.pi / 2)
    with pytest.raises(DomainError):
        circular_cone(1.0, 0.0)


def test_invalid_parameters():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            sphere_volume(bad)
        with pytest.raises(DomainError):
            barrel(bad, 1.0)
        with pytest.raises(DomainError):
            equidistant_body(1.0, bad)
    with pytest.raises(DomainError):
        sphere_volume(1.0, k=0.0)
    with pytest.raises(DomainError):
        barrel_wedge(-1.0, 1.0)


@pytest.mark.parametrize("b, beta", [(1e-3, 1e-6), (1e-8, 1e-8)])
def test_cone_profile_does_not_cancel_at_small_angles(b, beta):
    # cosh^2 y / cos^2 beta - 1 cancelled here (5.4e-10 relative at the first
    # input, ZeroDivisionError at the last); (sinh^2 y + sin^2 beta) / cos^2 beta
    # does not
    with mpmath.workdps(30):
        sb2 = mpmath.sin(mpmath.mpf(beta)) ** 2
        ref = mpmath.pi * mpmath.quad(
            lambda y: mpmath.sinh(y) ** 2 * mpmath.cos(mpmath.mpf(beta))
            / (mpmath.cosh(y) * mpmath.sqrt(mpmath.sinh(y) ** 2 + sb2)), [0, beta, b])
    assert circular_cone(b, beta) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_cone_underflowing_profile_raises_domain_error():
    # the reproduction of a ZeroDivisionError traceback: the volume, about
    # 1e-460, underflows to 0
    assert circular_cone(1e-160, 1e-20) == 0.0
    with pytest.raises(DomainError, match="exceeds the float range"):
        circular_cone(1e-160, 1e-300)


def test_tiny_ball_volume_is_positive():
    # pi k^3 sinh(2x/k) - 2 pi k^2 x cancelled to a negative value at tiny x
    assert sphere_volume(1.3262116840585138e-248, 3.0) == 0.0  # underflows from 1e-743
    for x in (1e-100, 1e-3, 0.02, 0.0499):
        with mpmath.workdps(400):  # enough digits for the cancellation at 1e-100
            ref = mpmath.pi * (mpmath.sinh(2 * mpmath.mpf(x)) - 2 * mpmath.mpf(x))
        assert sphere_volume(x) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def test_quadrature_twins_refuse_values_beyond_the_float_range():
    for twin in (lambda: sphere_volume_by_quadrature(1e300),
                 lambda: sphere_volume_by_quadrature(355.3),
                 lambda: barrel_by_quadrature(0.3, 1e300),
                 lambda: equidistant_body_by_quadrature(0.01, 1e300)):
        with pytest.raises(DomainError, match="exceeds the float range"):
            twin()
