"""Orthoscheme volume and conversion tests.

The frozen edge-integral values were produced before the build with an
independent adaptive quadrature (scipy QUADPACK at 1e-13 tolerances).
"""

import copy
import math
import pickle
import random

import mpmath
import numpy as np
import pytest

from hypervol import quadrature, shapes
from hypervol.errors import SINH_MAX, DomainError, NotRealizableError, UnsupportedDimensionError
from hypervol.orthoscheme import (
    _cosh_power_integral,
    _edge_area,
    OrthoschemeAngles,
    angles_to_edges,
    area_right_triangle,
    bolyai_asymptotic_1,
    bolyai_asymptotic_2,
    bolyai_integral_1,
    edges_to_angles,
    right_triangle_angles,
    sample_valid_angles,
    volume_angles,
    volume_edges,
    volume_ideal_tetrahedron_b,
    volume_ndim,
    volume_one_ideal,
    volume_two_ideal,
    volume_two_ideal_closed,
)
from hypervol.quadrature import Tolerance
from hypervol.tetrahedra import (
    derevnin_mednykh,
    lambert_cube,
    milnor_ideal,
    mohanty_octahedron,
    murakami_yano,
)

VOL_111 = 0.098404718929145    # scipy oracle, edges (1,1,1)
VOL_051015 = 0.070924545174    # scipy oracle, edges (0.5, 1.0, 1.5)
TWO_IDEAL_1 = 0.2412135558     # scipy oracle
REGULAR_IDEAL_MAX = 1.0149416064096536  # 3 L(pi/3)


def test_edge_type_diagonals():
    # edges are plain (a, b, c) tuples; the long diagonal, cosh z = cosh a
    # cosh b cosh c, carries beta: tan beta tan delta = tanh z
    ang = edges_to_angles((1.0, 1.0, 1.0))
    z = math.acosh(math.cosh(1.0) ** 3)
    assert math.tan(ang.beta) * math.tan(ang.delta) == pytest.approx(math.tanh(z), rel=1e-14)
    for route in (edges_to_angles, volume_edges, bolyai_integral_1):
        for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0)):
            with pytest.raises(DomainError):
                route(bad)


def test_volume_edges_frozen_values():
    assert volume_edges((1.0, 1.0, 1.0)) == pytest.approx(VOL_111, abs=1e-9)
    assert volume_edges((0.5, 1.0, 1.5)) == pytest.approx(VOL_051015, abs=1e-9)


def test_edges_to_angles_relations():
    a, b, c = 1.0, 1.0, 1.0
    ang = edges_to_angles((a, b, c))
    # defining relations of delta
    assert math.tan(ang.delta) == pytest.approx(
        math.tanh(a) * math.tan(ang.alpha), abs=1e-12
    )
    assert math.tan(ang.delta) == pytest.approx(
        math.tanh(c) * math.tan(ang.gamma), abs=1e-12
    )
    # symmetric edges give alpha = gamma
    assert ang.alpha == pytest.approx(ang.gamma, abs=1e-14)
    # all in (0, pi/2)
    for v in (ang.alpha, ang.beta, ang.gamma, ang.delta):
        assert 0.0 < v < math.pi / 2


def test_angles_to_edges_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        e = (rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5))
        ang = edges_to_angles(e)
        back = angles_to_edges(ang)
        assert all(abs(x - y) < 1e-10 for x, y in zip(back, e))
        # delta from angles alone agrees with the conversion delta
        assert OrthoschemeAngles(ang.alpha, ang.beta, ang.gamma).delta == pytest.approx(
            ang.delta, abs=1e-10
        )


def test_edges_to_angles_limits():
    # growing middle edge sends alpha, gamma, delta to 0
    ang = edges_to_angles((1.0, 6.0, 1.0))
    assert ang.alpha < 4e-3 and ang.gamma < 4e-3 and ang.delta < 4e-3


def test_delta_approaches_alpha_for_long_first_edge():
    # tan delta = tanh a tan alpha -> tan alpha as a grows, and the inverse
    # map a = atanh(tan delta / tan alpha) diverges logarithmically
    d1 = edges_to_angles((1.0, 0.9, 0.7))
    d2 = edges_to_angles((4.0, 0.9, 0.7))
    assert d2.alpha == pytest.approx(d1.alpha, abs=1e-14)  # alpha has no a-dependence
    assert d2.alpha - d2.delta < d1.alpha - d1.delta
    assert angles_to_edges(d2)[0] == pytest.approx(4.0, abs=1e-9)


def test_not_realizable_angle_triples():
    with pytest.raises(NotRealizableError, match="real delta"):
        OrthoschemeAngles(0.3, 1.5, 0.3)
    # domination violations are rejected at construction: delta = 0.98 > alpha
    with pytest.raises(NotRealizableError, match="dominated"):
        OrthoschemeAngles(0.3, 0.4, 0.9)


def test_delta_is_derived_not_supplied():
    # a fourth angle was once taken as delta unchecked, and gave a wrong volume
    for fn in (volume_angles, angles_to_edges):
        with pytest.raises(DomainError, match="takes 3 values, got 4"):
            fn((0.54, 1.1, 0.71, 0.1))
    with pytest.raises(TypeError):
        OrthoschemeAngles(0.54, 1.1, 0.71, 0.1)
    assert volume_angles((0.54, 1.1, 0.71)) == pytest.approx(0.06119, abs=1e-5)
    # a copy keeps the delta that edges_to_angles computed from the edges
    ang = edges_to_angles((1.0, 0.8, 0.6))
    assert copy.copy(ang) == ang and pickle.loads(pickle.dumps(ang)) == ang


def test_replace_and_make_check_like_the_constructor():
    # both once built records unchecked: a replaced delta of 0.1 gave 0.015155991228848392
    ang = OrthoschemeAngles(0.54, 1.1, 0.71)
    with pytest.raises(DomainError, match="delta is derived"):
        ang._replace(delta=0.1)
    with pytest.raises(DomainError, match="takes 3 values, got 4"):
        OrthoschemeAngles._make((0.54, 1.1, 0.71, 0.1))
    assert OrthoschemeAngles._make([0.54, 1.1, 0.71]) == ang
    assert volume_angles(ang._replace(beta=1.1)) == volume_angles(ang) == 0.0611946252401175
    # a replaced angle derives delta anew and is checked
    assert ang._replace(alpha=0.5) == OrthoschemeAngles(0.5, 1.1, 0.71)
    with pytest.raises(NotRealizableError, match="dominated"):
        OrthoschemeAngles(0.3, 0.4, 0.5)._replace(gamma=0.9)
    with pytest.raises(DomainError):
        ang._replace(beta=2.0)


def test_flagship_angles_vs_edges():
    for ang in sample_valid_angles(5, seed=7):
        e = angles_to_edges(ang)
        va = volume_angles(ang)
        ve = volume_edges(e)
        assert abs(va - ve) <= 1e-6 * max(1.0, va)


def test_volume_angles_symmetry_and_degenerate_limit():
    ang = edges_to_angles((0.8, 1.1, 1.4))
    swapped = OrthoschemeAngles(ang.gamma, ang.beta, ang.alpha)
    assert volume_angles(ang) == pytest.approx(volume_angles(swapped), abs=1e-14)
    # shrinking orthoschemes have vanishing volume
    tiny = edges_to_angles((1e-3, 1e-3, 1e-3))
    assert volume_angles(tiny) < 1e-8


def test_bolyai_first_integral_agrees():
    for e in [(1.0, 1.0, 1.0), (0.5, 1.0, 1.5), (1.5, 0.5, 1.0), (0.7, 0.9, 1.3)]:
        assert abs(bolyai_integral_1(e) - volume_edges(e)) <= 1e-6


def test_bolyai_first_integral_euclidean_limit():
    eps = 0.01
    v = bolyai_integral_1((eps, eps, eps))
    assert v == pytest.approx(eps ** 3 / 6.0, rel=1e-3)


def test_euclidean_limit_edge_integral():
    eps = 0.01
    v = volume_edges((eps, 2 * eps, 3 * eps))
    assert v / (eps ** 3 * 6.0 / 6.0) == pytest.approx(1.0, abs=1e-3)


def test_monotonicity_in_each_edge():
    base = (0.8, 0.9, 1.0)
    v0 = volume_edges(base)
    for i in range(3):
        bumped = list(base)
        bumped[i] += 0.2
        assert volume_edges(tuple(bumped)) > v0


def test_one_ideal_limits():
    # c -> 0 gives a flat (empty) orthoscheme
    assert volume_one_ideal(1.0, 1e-8) < 1e-7
    # a -> infinity limit of the general integral
    assert abs(volume_edges((20.0, 1.0, 1.0)) - volume_one_ideal(1.0, 1.0)) < 1e-5
    # c -> infinity approaches the two-ideal body
    assert abs(volume_one_ideal(1.0, 30.0) - volume_two_ideal(1.0)) < 1e-5


def test_two_ideal_frozen_and_bounds():
    v = volume_two_ideal(1.0)
    assert v == pytest.approx(TWO_IDEAL_1, abs=1e-9)
    assert volume_one_ideal(1.0, 1.0) < v
    assert volume_ideal_tetrahedron_b(1.0) == pytest.approx(4.0 * v, abs=1e-12)
    assert volume_ideal_tetrahedron_b(1.0) <= REGULAR_IDEAL_MAX
    assert volume_ideal_tetrahedron_b(3.0) <= REGULAR_IDEAL_MAX


def test_asymptotic_formula_c_to_zero():
    assert bolyai_asymptotic_1(0.7, 1e-8) < 1e-7


def test_asymptotic_formula_continuity_in_alpha():
    vals = [bolyai_asymptotic_1(al, 1.0) for al in
            [0.3, 0.6, 0.9, 1.2, 1.5, math.pi / 2 - 1e-3]]
    for a, b in zip(vals, vals[1:]):
        assert math.isfinite(a) and math.isfinite(b)
    # prefactor sin(2 alpha) drives the value to 0 at the right endpoint
    assert vals[-1] < 0.01


def test_asymptotic_formula_2_domain_and_limits():
    assert bolyai_asymptotic_2(0.0, 1.0) == 0.0
    assert bolyai_asymptotic_2(0.5, 1e-8) < 1e-8
    with pytest.raises(DomainError):
        bolyai_asymptotic_2(1.2, 1.0)  # cos(1.2) < tanh(1.0)


def test_recorded_asymptotic_correspondence():
    # Observed identification (documented, not part of any contract):
    # one-ideal volume(b, c) equals both asymptotic forms at
    # alpha = atan(tanh c / sinh b).
    b, c = 0.8, 1.3
    al = math.atan(math.tanh(c) / math.sinh(b))
    v = volume_one_ideal(b, c)
    assert bolyai_asymptotic_1(al, c) == pytest.approx(v, abs=1e-9)
    assert bolyai_asymptotic_2(al, b) == pytest.approx(v, abs=1e-9)


def test_area_right_triangle_matches_defect():
    rng = random.Random(55)
    for _ in range(10):
        a, b = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        alpha, beta = right_triangle_angles(a, b)
        defect = math.pi / 2 - alpha - beta
        assert area_right_triangle(a, b) == pytest.approx(defect, abs=1e-8)


def test_area_right_triangle_limits():
    assert area_right_triangle(0.01, 0.01) == pytest.approx(5e-5, rel=1e-3)
    big = area_right_triangle(8.0, 8.0)
    assert big < math.pi / 2
    assert math.pi / 2 - big < 0.01


def _mp_defect(a, b):
    """pi/2 - alpha - beta of the right triangle with legs a, b, at 40 digits."""
    with mpmath.workdps(40):
        am, bm = mpmath.mpf(a), mpmath.mpf(b)
        return float(mpmath.pi / 2 - mpmath.atan(mpmath.tanh(am) / mpmath.sinh(bm))
                     - mpmath.atan(mpmath.tanh(bm) / mpmath.sinh(am)))


@pytest.mark.parametrize("a, b", [(0.2, 17.0), (1.0, 25.0), (2.0, 700.0)])
def test_area_right_triangle_with_a_long_leg_matches_the_defect(a, b):
    # the long leg b entered the bound as tanh b, whose 1 - tanh b is lost in floats:
    # (0.2, 17) ran out of evaluations and (1, 25) was refused.  The outer level now
    # runs along the longer leg, whose tanh is never taken
    v = area_right_triangle(a, b, Tolerance(rel=1e-10))
    assert v == pytest.approx(_mp_defect(a, b), rel=1e-14, abs=0.0)


def test_ndim_triangle_with_a_long_first_built_edge_matches_the_defect():
    # edges (17, 0.2) are the triangle with legs (0.2, 17); read from the short leg it
    # returned 1.4e-9 off while asked for 1e-10
    v = volume_ndim((17.0, 0.2), Tolerance(rel=1e-10))
    assert v == pytest.approx(_mp_defect(0.2, 17.0), rel=1e-14, abs=0.0)


@pytest.mark.xfail(strict=True, reason="both legs are long, so the bound's ratio carries "
                   "the shorter leg's tanh, whose 1 - tanh is lost in floats: 3.7e-8 off")
def test_area_right_triangle_with_both_legs_long_matches_the_defect():
    v = area_right_triangle(18.0, 18.0, Tolerance(rel=1e-10))
    assert v == pytest.approx(_mp_defect(18.0, 18.0), rel=1e-13, abs=0.0)


def test_lemma_angle():
    # the angle atan(tanh t / sinh s) opposite leg t of the right triangle with legs t, s
    assert right_triangle_angles(1.0, 1.0) == pytest.approx((0.575006182578411853,) * 2,
                                                            abs=1e-14)
    assert right_triangle_angles(50.0, 1.0)[0] == pytest.approx(
        math.atan(1.0 / math.sinh(1.0)), rel=1e-10
    )
    with pytest.raises(DomainError):
        right_triangle_angles(1.0, 0.0)


def test_ndim_matches_3d_edge_integral():
    # subscript order (a1, a2, a3) = (b, c, a) for path edges (a, b, c)
    for (a, b, c) in [(1.0, 1.0, 1.0), (0.5, 1.0, 1.5)]:
        v3 = volume_ndim((b, c, a))
        assert v3 == pytest.approx(volume_edges((a, b, c)), rel=1e-13, abs=0.0)


def test_ndim_matches_2d_area():
    # edges (b, a) are the right triangle with legs a, b, whose area is its angle defect
    for (a, b) in [(1.0, 1.0), (0.7, 1.4)]:
        alpha, beta = right_triangle_angles(a, b)
        assert volume_ndim((b, a)) == pytest.approx(math.pi / 2 - alpha - beta, abs=1e-8)


def test_ndim_with_a_long_last_edge_matches_volume_edges():
    # the path (0.5, 0.5, 15) ends in its long edge, which entered a bound as tanh 15 and
    # exhausted the evaluation budget; it is now the outer variable
    v = volume_ndim((0.5, 15.0, 0.5), Tolerance(rel=1e-10))
    assert v == pytest.approx(volume_edges((0.5, 0.5, 15.0)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("edges", [(12.0, 0.5, 0.5), (10.0, 0.5, 0.5)])
def test_ndim_with_a_long_first_edge_matches_mpmath(edges):
    # a long first edge a_1 sent the x_1 bound atanh(rho sinh x_n) through its blow-up
    # at the end of the x_n range, and the evaluation budget ran out; the x_n level is
    # now a length in closed form, and the x_1 level the closed form H of _edge_area
    b, c, a = edges
    v = volume_ndim(edges, Tolerance(rel=1e-10))
    assert v == pytest.approx(_mp_volume_edges(a, b, c), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("edges", [(6.0, 12.0, 18.0), (6.0, 12.0, 12.0), (12.0, 12.0, 12.0),
                                   (18.0, 0.05, 12.0)])
def test_ndim_at_n3_with_long_edges_matches_mpmath(edges):
    # with x_1 outermost, the x_2 bound atanh(tanh a_2 sinh x_1 / sinh a_1) lost
    # 1 - tanh a_2 for a long a_2, and the volume came out up to 3.4e-11 off; x_2 now
    # runs outermost, so that bound is not taken.  A long a_1 moves the turns of H
    # toward x_2 = 0, into _log_map.  Where both end edges are long, the 40-digit
    # reference is confirmed at 30 digits
    a1, a2, a3 = edges
    ref = _mp_volume_edges(a3, a1, a2)
    if min(a2, a3) > 11.0:
        assert _mp_volume_edges(a3, a1, a2, dps=30) == pytest.approx(ref, rel=1e-15, abs=0.0)
    v = volume_ndim(edges, Tolerance(rel=1e-10))
    assert v == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("edges", [(3.0, 2.0, 1.0, 0.5), (2.0, 2.0, 2.0, 2.0),
                                   (1.0, 0.8, 0.6, 0.7, 0.9)])
def test_ndim_returns_where_the_outer_blow_up_exhausted_the_budget(edges):
    # each of these exhausted the 10^6-evaluation budget at rel 1e-10, or took most of it
    v = volume_ndim(edges, Tolerance(rel=1e-10))
    assert math.isfinite(v) and v > 0.0


def _mp_ndim4(edges):
    """volume_ndim at n = 4 in 50-digit mpmath, for a path whose a_3 <= a_4 and whose
    a_1 is not long: x_2 outermost over [0, a_2]; the x_1 level
    int_sigma^{a_1} cosh x w_1(x) dx, sinh sigma = tanh x_2 sinh a_1 / tanh a_2, as
    asin(sech sigma / kappa) - asin(sech a_1 / kappa) - sinh sigma w_1(sigma), whose
    terms cancel by up to e^(2 a_2) toward x_2 = a_2; x_3 in closed form."""
    with mpmath.workdps(50):
        a1, a2, a3, a4 = map(mpmath.mpf, edges)
        p, t1 = mpmath.sinh(a4), mpmath.tanh(a1)
        kappa = mpmath.sqrt(1 + (t1 / p) ** 2)

        def f(x):
            sig = mpmath.asinh(mpmath.tanh(x) * mpmath.sinh(a1) / mpmath.tanh(a2))
            w1 = a4 - mpmath.asinh(p * mpmath.tanh(sig) / t1)
            h = (mpmath.asin(mpmath.sech(sig) / kappa) - mpmath.asin(mpmath.sech(a1) / kappa)
                 - mpmath.sinh(sig) * w1)
            u = mpmath.tanh(a3) * mpmath.sinh(x) / mpmath.sinh(a2)
            s = u / mpmath.sqrt(1 - u * u)
            return mpmath.cosh(x) ** 2 * (s + s ** 3 / 3) * h

        return float(mpmath.quad(f, [0, a2 / 8, a2 / 2, a2]))


@pytest.mark.parametrize("edges", [(1.0, 19.0, 1.0, 1.0), (0.5, 18.0, 0.5, 0.5)])
def test_ndim_with_a_long_middle_edge_at_n4_matches_mpmath(edges):
    # with x_1 outermost, x_2's bound atanh(tanh a_2 sinh x_1 / sinh a_1) blew up at the
    # end of the x_1 range and the evaluation budget ran out; x_2 is now the outer
    # variable and the x_1 level a closed form
    v = volume_ndim(edges, Tolerance(rel=1e-10))
    assert v == pytest.approx(_mp_ndim4(edges), rel=1e-13, abs=0.0)


def test_ndim_with_a_long_first_edge_at_n4_matches_its_40_digit_value():
    # a long a_1 packs the x_1 level's range into x_2 < 1e-8, where the first panel of
    # a plain x_2 variable missed 5e-8 of the volume; x_2 runs through a log map there
    v = volume_ndim((18.0, 0.05, 0.05, 0.05), Tolerance(rel=1e-10))
    assert v == pytest.approx(6.327350283662115e-13, rel=1e-13, abs=0.0)


def test_ndim_at_n4_with_subnormal_scale_edges():
    # the closed-form x_1 level divides before it multiplies two factors of size a_1,
    # whose product would underflow; multiplied first, the level returns -7.7e-303 here
    assert volume_ndim((1e-300, 0.5, 0.5, 0.5)) == pytest.approx(4.403878183826133e-303,
                                                                 rel=1e-13, abs=0.0)
    assert volume_ndim((1e-300, 0.3, 1e-300, 5e-324)) == 0.0


@pytest.mark.parametrize("a1", [1e-3, 0.5, 3.0, 18.0])
@pytest.mark.parametrize("an", [1e-3, 1.0, 19.0])
def test_edge_area_matches_mpmath(a1, an):
    # H(sigma) = int_sigma^{a_1} cosh x w_1(x) dx, by parts in closed form where
    # y = a_1 - sigma >= min(sigma, 2) / 4 and by a Gauss-Legendre sum below
    area = _edge_area(a1, an)
    with mpmath.workdps(30):
        p, t1 = mpmath.sinh(an), mpmath.tanh(a1)
        for f in (0.0, 0.3, 0.79, 0.81, 0.97, 0.999):
            sig = a1 * f
            ref = mpmath.quad(lambda x: mpmath.cosh(x) * (an - mpmath.asinh(p * mpmath.tanh(x) / t1)),
                              [sig, a1])
            assert area(sig, a1 - sig) == pytest.approx(float(ref), rel=2e-14, abs=0.0), f


def test_ndim_euclidean_limits():
    eps = 0.01
    v = volume_ndim((eps, eps, eps))
    assert v == pytest.approx(eps ** 3 / 6.0, rel=1e-3)
    v4 = volume_ndim((eps, eps, eps, eps), Tolerance(rel=1e-7))
    assert v4 == pytest.approx(eps ** 4 / 24.0, rel=1e-3)


def test_ndim_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        volume_ndim((0.5, 0.5, 0.5, 0.5, 0.5, 0.5))
    with pytest.raises(DomainError, match="at least 2 edges"):
        volume_ndim((1.0,))


def test_curvature_scaling_against_coordinate_volume():
    # v_k(a, b, c) = k^3 v_1(a/k, b/k, c/k), checked against the k-generic
    # orthogonal-chart triple integral with the same bounds construction
    from hypervol.models import coordinate_volume

    a, b, c, k = 1.0, 0.8, 1.2, 1.7
    r1 = math.tanh(b / k) / math.sinh(a / k)
    r2 = math.tanh(c / k) / math.sinh(b / k)
    res = coordinate_volume(
        "orthogonal",
        [
            (2, 0.0, a),
            (0, 0.0, lambda x3: k * math.atanh(r1 * math.sinh(x3 / k))),
            (1, 0.0, lambda x3, x1: k * math.atanh(r2 * math.sinh(x1 / k))),
        ],
        n=3,
        k=k,
    )
    scaled = k ** 3 * volume_edges((a / k, b / k, c / k))
    assert res.value == pytest.approx(scaled, rel=1e-8)


def test_sampler_is_deterministic_and_valid():
    s1 = sample_valid_angles(8, seed=99)
    s2 = sample_valid_angles(8, seed=99)
    assert [(a.alpha, a.beta, a.gamma) for a in s1] == [
        (a.alpha, a.beta, a.gamma) for a in s2
    ]
    for ang in s1:
        assert ang.delta < min(ang.alpha, ang.gamma, math.pi / 2 - ang.beta)
        angles_to_edges(ang)  # must not raise


def _tensor_gauss_legendre(edges, m=24, panels=1):
    """n-orthoscheme volume by an m-point Gauss-Legendre rule on every level
    (bounds and density as in volume_ndim, no closed-form level, and no
    choice of path end), the outer one on each of ``panels`` equal parts of
    [0, a_n]; the outer level is a Python loop so each step holds m^(n-1)
    points."""
    t, w = np.polynomial.legendre.leggauss(m)
    t, w = (t + 1.0) / 2.0, w / 2.0
    n = len(edges)
    ratios = [math.tanh(edges[0]) / math.sinh(edges[-1])]
    ratios += [math.tanh(edges[i + 1]) / math.sinh(edges[i]) for i in range(n - 2)]
    h = edges[-1] / panels
    total = 0.0
    for x_out, w_out in zip((np.arange(panels)[:, None] + t).ravel() * h, np.tile(w, panels) * h):
        x, weight = np.array(x_out), np.array(w_out)
        for i in range(n - 1):
            top = np.arctanh(ratios[i] * np.sinh(x))[..., None]
            x = top * t
            weight = weight[..., None] * top * w * np.cosh(x) ** (i + 1)
        total += weight.sum()
    return float(total)


@pytest.mark.parametrize("edges", [
    (0.6, 0.5, 0.4), (1.0, 0.7, 1.2), (0.3, 1.1, 0.8),
    (0.4, 0.4, 0.4, 0.4), (0.5, 0.3, 0.45, 0.35), (0.7, 0.6, 0.5, 0.8),
    (0.3, 0.3, 0.3, 0.3, 0.3), (0.35, 0.25, 0.4, 0.3, 0.2),
])
def test_ndim_matches_tensor_gauss_legendre(edges):
    v = volume_ndim(edges, Tolerance(rel=1e-13))
    assert v == pytest.approx(_tensor_gauss_legendre(edges), rel=1e-12)


def test_ndim_with_a_long_last_edge_at_n4_matches_tensor_gauss_legendre():
    # the path (0.5, 0.5, 0.5, 12) ends in its long edge, whose bound blew up into the
    # closed-form innermost level and exhausted the evaluation budget.  The reference
    # runs the reversed path, whose outer level is split into panels: one 80-point
    # panel over [0, 12] scatters by 1e-13 with m
    rev = (0.5, 0.5, 0.5, 12.0)
    refs = [_tensor_gauss_legendre(rev, m, panels) for m, panels in ((24, 24), (30, 12))]
    assert refs[0] == pytest.approx(refs[1], rel=1e-14, abs=0.0)
    v = volume_ndim((0.5, 0.5, 12.0, 0.5), Tolerance(rel=1e-10))
    assert v == pytest.approx(refs[1], rel=1e-13, abs=0.0)


def test_ndim_euclidean_limit_n5():
    eps = 0.01
    v5 = volume_ndim((eps,) * 5, Tolerance(rel=1e-7))
    assert v5 == pytest.approx(eps ** 5 / 120.0, rel=1e-3)


def _flat_ndim(edges):
    """volume_ndim as the nested integral of a flat integrand of all its
    variables, which multiplies prod_i cosh^i(x_i) in the order of i at every
    evaluation."""
    n = len(edges)
    ratios = [math.tanh(edges[0]) / math.sinh(edges[-1])]
    ratios += [math.tanh(edges[i + 1]) / math.sinh(edges[i]) for i in range(n - 2)]

    def flat(*vals):
        d = _cosh_power_integral(n - 1)(ratios[n - 2] * math.sinh(vals[-1]))
        for i in range(1, n - 1):
            d *= math.cosh(vals[i]) ** i
        return d

    bounds = [(0.0, edges[-1])]
    bounds += [(0.0, lambda *v, r=r: math.atanh(r * math.sinh(v[-1]))) for r in ratios[:-1]]
    res = quadrature.integrate_region(lambda *outer: lambda x: flat(*outer, x), bounds,
                                      Tolerance(rel=1e-9))
    return res.value


@pytest.mark.parametrize("edges", [
    (0.6, 0.5), (0.6, 0.5, 0.4), (0.4, 0.5, 0.3, 0.4), (0.3, 0.3, 0.3, 0.3, 0.3),
    (4.0, 0.5, 0.4),  # the bound argument reaches tanh 4 = 1 - 6.7e-4
])
def test_ndim_matches_its_flat_integrand(edges):
    # volume_ndim integrates the reversed path (e_{n-2}, .., e_1, e_n, e_{n-1}) when the
    # path's last edge e_{n-1} is longer than its first e_n.  For n >= 3 it takes the
    # x_n and x_1 levels in closed form and runs x_2 outermost, so it is no longer the
    # flat integral's bits
    path = (*edges[-3::-1], edges[-1], edges[-2]) if edges[-2] > edges[-1] else edges
    assert volume_ndim(edges) == pytest.approx(_flat_ndim(path), rel=1e-13, abs=0.0)


def _coxeter_edges(p):
    """volume_ndim's edges (e_2, .., e_n, e_1) of the n-orthoscheme whose dihedral
    angles along its path are pi / p_i.  The facet Gram matrix G is tridiagonal,
    G_ii = 1 and G_{i,i+1} = -cos(pi / p_i), with one negative eigenvalue; with
    H = G^-1, cosh e_i = |H_{i-1,i}| / sqrt(H_{i-1,i-1} H_ii)."""
    n = len(p)
    G = np.eye(n + 1)
    for i, q in enumerate(p):
        G[i, i + 1] = G[i + 1, i] = -math.cos(math.pi / q)
    assert (np.linalg.eigvalsh(G) < 0).sum() == 1
    H = np.linalg.inv(G)
    e = [math.acosh(abs(H[i - 1, i]) / math.sqrt(H[i - 1, i - 1] * H[i, i]))
         for i in range(1, n + 1)]
    return e[1:] + e[:1]


@pytest.mark.parametrize("p, exact", [
    ((5, 3, 3, 3), math.pi ** 2 / 10800), ((5, 3, 3, 4), 17 * math.pi ** 2 / 21600),
    ((5, 3, 3, 5), 13 * math.pi ** 2 / 5400)],
    ids=["5333", "5334", "5335"])
def test_ndim_coxeter_orthoschemes_match_their_exact_volumes(p, exact):
    # by Gauss-Bonnet a compact Coxeter 4-simplex has a rational multiple of pi^2
    v = volume_ndim(_coxeter_edges(p), Tolerance(rel=1e-10))
    assert v == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n, lo, hi, reverse", [
    (3, 0.4, 1.2, lambda e: (e[0], e[2], e[1])),
    (4, 0.3, 0.5, lambda e: (e[1], e[0], e[3], e[2])),
], ids=["n3", "n4"])
def test_ndim_path_reversal(n, lo, hi, reverse):
    # the same orthoscheme built from the other end of its path, which takes a
    # different numerical path through the nested integral.  volume_ndim itself
    # integrates the order whose path starts with the longer end edge, so both orders
    # run through _flat_ndim, the same nested integral without that choice
    rng = random.Random(n)
    for _ in range(12):
        edges = tuple(rng.uniform(lo, hi) for _ in range(n))
        assert volume_ndim(reverse(edges)) == volume_ndim(edges)
        assert _flat_ndim(reverse(edges)) == pytest.approx(_flat_ndim(edges), rel=1e-13, abs=0.0)


def _loop_cosh_power_integral(m, u):
    """The reduction formula as a loop over its steps at every call: the
    reference for the steps that _cosh_power_integral(m) lays out once."""
    c = 1.0 / math.sqrt((1.0 - u) * (1.0 + u))
    s = u * c
    val, j = (s, 3) if m % 2 else (math.atanh(u), 2)
    while j <= m:
        val = c ** (j - 1) * s / j + (j - 1) / j * val
        j += 2
    return val


@pytest.mark.parametrize("m", range(6))
def test_cosh_power_integral_matches_mpmath(m):
    mpmath.mp.dps = 30
    integral = _cosh_power_integral(m)
    for u in (1e-8, 0.3, 0.9, 0.999999):
        ref = mpmath.quad(lambda y: mpmath.cosh(y) ** m, [0, mpmath.atanh(u)])
        assert integral(u) == pytest.approx(float(ref), rel=1e-14, abs=0.0)
    for u in (5e-324, 1e-300, 1e-8, 0.3, 0.5, 0.9, 0.999999, 1.0 - 2.0 ** -53):
        assert integral(u) == _loop_cosh_power_integral(m, u), u
    with pytest.raises(DomainError):
        integral(1.0)


@pytest.mark.parametrize("edges", [
    (20.0, 0.5, 0.5), (20.0, 25.0), (25.0, 0.5, 0.5, 0.5), (0.5, 20.0, 0.5, 0.5),
])
def test_ndim_saturated_edge_raises_domain_error(edges):
    # a middle edge, or both end edges, whose tanh rounds to 1: a bound argument reaches
    # 1 (math.atanh's ValueError before), or the bound's blow-up at the end of its range
    # is not resolved (a silent 2e-22 for the 25-edge, minutes of quadrature for the
    # middle 20-edge).  One long end edge is the outer variable, read from that end
    with pytest.raises(DomainError):
        volume_ndim(edges)


def test_bolyai_integral_1_where_cos_alpha_rounds_to_1():
    # alpha = atan(tanh c / sinh b) is about 1e-9: cos^2 alpha == 1 and the
    # old form cosh^2 t / cos^2 alpha - 1 divided by zero near t = 0
    e = (0.5, 20.0, 0.5)
    assert bolyai_integral_1(e) == pytest.approx(volume_edges(e), abs=1e-14)


@pytest.mark.parametrize("call", [
    lambda: volume_one_ideal(800.0, 1.0),
    lambda: volume_two_ideal(800.0),
    lambda: volume_ideal_tetrahedron_b(800.0),
    lambda: volume_edges((800.0, 1.0, 900.0)),
    lambda: bolyai_integral_1((1.0, 1.0, 400.0)),
    lambda: bolyai_integral_1((1.0, 300.0, 0.6)),
    lambda: bolyai_asymptotic_1(0.5, 400.0),
    lambda: area_right_triangle(800.0, 800.0),
    lambda: edges_to_angles((800.0, 1.0, 1.0)),
    lambda: volume_ndim((0.5, 0.5, 800.0)),
])
def test_beyond_float_range_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_volume_edges_with_a_first_edge_beyond_float_range_is_its_mirror():
    # volume_edges integrates the mirror (c, b, a) when a > c, so only the shorter end
    # edge meets sinh's float range
    assert volume_edges((800.0, 1.0, 1.0)) == volume_edges((1.0, 1.0, 800.0))


@pytest.mark.parametrize("shape, params", [
    ("orthoscheme-edges", {"a": 1.0, "b": 360.0, "c": 0.6}),
    ("orthoscheme-two-ideal", {"b": 360.0}),
    ("orthoscheme-one-ideal", {"b": 360.0, "c": 1.0}),
    ("ideal-tetra-b", {"b": 360.0}),
    ("orthoscheme-edges", {"a": 1.0, "b": 1.0, "c": 1e-300}),
])
def test_log_ratio_routes_stay_positive(shape, params):
    # the log argument (sinh b + t sinh l) / (sinh b - t sinh l) used to round
    # below 1 at thousands of nodes, which gave volumes near -1e-19
    value, _, _ = shapes.compute_volume(shape, params)
    assert value > 0.0


def _mp_log_ratio(b, c, lam):
    t = mpmath.tanh(c)
    return mpmath.log1p(2 * t * mpmath.sinh(lam) / (mpmath.sinh(b) - t * mpmath.sinh(lam)))


@pytest.mark.parametrize("route, integrand", [
    (lambda: volume_edges((1.0, 15.0, 0.6)),
     lambda l: mpmath.tanh(l) / mpmath.sqrt((mpmath.tanh(15) / mpmath.sinh(1) * mpmath.cosh(l)) ** 2
                                            + mpmath.sinh(l) ** 2) * _mp_log_ratio(15, 0.6, l)),
    (lambda: volume_one_ideal(15.0, 1.0),
     lambda l: _mp_log_ratio(15, 1, l) / mpmath.cosh(l)),
])
def test_log_ratio_routes_accurate_for_long_middle_edge(route, integrand):
    # at b = 15 the log argument is within about 1e-6 of 1, where ln(num/den)
    # lost about 1e-12 relative
    with mpmath.workdps(30):
        ref = mpmath.quad(integrand, mpmath.linspace(0, 15, 16)) / 4
    assert route() == pytest.approx(float(ref), rel=1e-13, abs=0.0)


INF = math.inf


def _mp_volume_edges(a, b, c, dps=40):
    """The edge integral 1/4 int_0^b T R dl at dps digits (a = inf gives r = 0,
    c = inf gives t = 1).  It runs in l = b s, so that the integral is not
    tiny next to mpmath's absolute eps, with breakpoints at every unit of l
    and at r 4^j, j = -1 .. 3, where T = tanh l / hypot(r cosh l, sinh l)
    turns from l / r to 1 (r = tanh b / sinh a, tiny for a long first edge)."""
    with mpmath.workdps(dps):
        am, bm, cm = (mpmath.mpf(v) for v in (a, b, c))
        r = 0 if a == INF else mpmath.tanh(bm) / mpmath.sinh(am)
        one_minus_t = 2 / (mpmath.exp(2 * cm) + 1)

        def integrand(s):
            l = bm * s
            sl = mpmath.sinh(l)
            den = 2 * mpmath.cosh((bm + l) / 2) * mpmath.sinh(bm * (1 - s) / 2) + one_minus_t * sl
            T = mpmath.tanh(l) / mpmath.sqrt((r * mpmath.cosh(l)) ** 2 + sl ** 2)
            return T * mpmath.log1p(2 * (1 - one_minus_t) * sl / den)

        splits = [r * 4 ** j / bm for j in range(-1, 4) if 0 < r * 4 ** j < bm / 2]
        points = sorted([*mpmath.linspace(0, 1, 1 + math.ceil(b)), *splits])
        return float(bm * mpmath.quad(integrand, points) / 4)


@pytest.mark.parametrize("a, b, c, rel", [
    *((a, b, c, 5e-14) for a, b, c in [
        (INF, 0.05, INF), (INF, 0.5, INF), (INF, 2.0, INF), (INF, 5.0, INF),
        (INF, 4.260539645051726, 7.052860893623935), (INF, 0.9762385017356596, 10.732089875942735),
        (1e-8, 1.0, 1.0), (1.0, 1e-8, 1.0), (1.0, 1.0, 1e-8), (1e-8, 1e-8, 1e-8),
        (1e-3, 1e-3, 1e-3), (0.5, 5.0, 7.0), (2.0, 15.0, 1.0), (5.0, 0.2, 3.0),
        (INF, 1e-8, 1e-8), (INF, 1e-3, 1e-8), (INF, 1.0, 1e-8), (INF, 20.0, 3.0),
        (1.0, 1e-300, 1.0), (INF, 1e-300, 1.0)]),
    *((a, b, c, 2e-14) for a, b, c in [
        (1.0, 1.0, 19.0), (1.0, 1.0, 30.0), (0.3, 0.3, 12.0), (1.0, 30.0, 30.0)]),
])
def test_ideal_apex_routes_match_mpmath(a, b, c, rel):
    # a = inf is the ideal first vertex of volume_one_ideal and volume_two_ideal (c = inf
    # too).  c = inf: the log singularity at l = b cost the plain GK15 route about 2e-13;
    # large c puts it just beyond l = b, where a substitution anchored at l = b rather
    # than at the singular point was off by 7.7e-10 and 1.9e-12, and halving toward it
    # left volume_edges 1.0e-13 to 2.1e-13 off at the last four edge sets
    ref = _mp_volume_edges(a, b, c)
    if a < INF:
        v = volume_edges((a, b, c))
    else:
        v = volume_two_ideal(b) if c == INF else volume_one_ideal(b, c)
    assert v == pytest.approx(ref, rel=rel, abs=0.0)


@pytest.mark.parametrize("edges", [(11.0, 3.0, 0.5), (12.0, 0.5, 0.5), (15.0, 0.5, 0.5)])
def test_volume_edges_with_a_long_first_edge_matches_mpmath(edges):
    # a first edge of about 11-18 left the integral 1.1e-9, 7.2e-10 and 2.7e-12 off:
    # r is tiny and the panels missed the scale l ~ r.  volume_edges integrates the
    # mirror (c, b, a), the same orthoscheme, whose first edge is short
    assert volume_edges(edges) == pytest.approx(_mp_volume_edges(*edges), rel=1e-15, abs=0.0)


@pytest.mark.xfail(strict=True, reason="both end edges lie in the 11-18 band, so the mirror "
                   "has a long first edge too: the panels miss the scale l ~ r near 0, "
                   "4.4e-10 off")
def test_volume_edges_with_both_end_edges_long_matches_mpmath():
    edges = (12.0, 1.0, 14.0)
    assert volume_edges(edges) == pytest.approx(_mp_volume_edges(*edges), rel=1e-13, abs=0.0)


def _mp_lob(x):
    return mpmath.clsin(2, 2 * x) / 2


@pytest.mark.xfail(strict=True, reason="the Lobachevsky terms are of order delta and cancel "
                   "to a volume of order delta^3: 7.6e-8 off at a volume of 1.8e-9")
def test_volume_angles_on_a_small_orthoscheme_matches_mpmath():
    # the edges are about 1.5e-3, 2.2e-3 and 3.1e-3; volume_edges and bolyai_integral_1
    # at angles_to_edges of these angles are 4.0e-11 off
    angles = (0.9523280858329219, 1.0862960938896389, 0.6085201856818294)
    with mpmath.workdps(40):
        a, b, g = map(mpmath.mpf, angles)
        d = mpmath.atan(mpmath.sqrt(mpmath.cos(b) ** 2 - (mpmath.sin(a) * mpmath.sin(g)) ** 2)
                        / (mpmath.cos(a) * mpmath.cos(g)))
        ref = (_mp_lob(a + d) - _mp_lob(a - d) - _mp_lob(mpmath.pi / 2 - b + d)
               + _mp_lob(mpmath.pi / 2 - b - d) + _mp_lob(g + d) - _mp_lob(g - d)
               + 2 * _mp_lob(mpmath.pi / 2 - d)) / 4
    assert volume_angles(angles) == pytest.approx(float(ref), rel=1e-12, abs=0.0)


ASINH_1 = math.asinh(1.0)


@pytest.mark.parametrize("b", [
    1e-300, 1e-20, 1e-8, 1e-3, 0.5, math.nextafter(ASINH_1, 0.0), ASINH_1,
    math.nextafter(ASINH_1, 1.0), 2.0, 30.0, 360.0, 700.0, SINH_MAX])
def test_two_ideal_closed_form_against_mpmath(b):
    # L near pi/2 cancelled: the direct form was 1.2e-8 off at b = 1e-8, and the
    # complement L(t) - L(2t)/2 6.5e-15 at 1e-20.  Pi(b) = pi/2 - t with t about b
    # needs -log10(b) more digits than the 30 kept
    with mpmath.workdps(30 + max(0, int(-math.log10(b)))):
        ref = _mp_lob(2 * mpmath.atan(mpmath.exp(-mpmath.mpf(b)))) / 2
    assert volume_two_ideal_closed(b) == pytest.approx(float(ref), rel=1e-15, abs=0.0)
    # the edge integral, its second route, over the same range
    assert volume_two_ideal(b) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def test_two_ideal_closed_form_matches_the_quadrature_route():
    rng = random.Random(22)
    for b in (rng.uniform(0.05, 30.0) for _ in range(30)):
        assert volume_two_ideal(b) == pytest.approx(volume_two_ideal_closed(b), rel=1e-13, abs=0.0)


def test_ideal_tetrahedron_closed_form_is_milnor():
    # milnor_ideal(2 Pi, pi/2 - Pi, pi/2 - Pi) cancels like exp(-b) (2.3e-5 off at
    # b = 30) and near Pi = pi/2 (1.2e-14 at b = 0.01), so the draws stay in [0.05, 5]
    rng = random.Random(23)
    for b in (rng.uniform(0.05, 5.0) for _ in range(30)):
        pi_b = 2.0 * math.atan(math.exp(-b))
        ref = milnor_ideal(2.0 * pi_b, 0.5 * math.pi - pi_b, 0.5 * math.pi - pi_b)
        assert 4.0 * volume_two_ideal_closed(b) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("b", [710.0, SINH_MAX])
def test_two_ideal_quadrature_route_at_the_float_range_limit(b):
    # 2 sinh l and 2 cosh((b + l)/2) in the log ratio overflowed from b = 709.78,
    # which refused both routes with "integrand returned a non-finite value"
    v = volume_two_ideal_closed(b)
    assert volume_two_ideal(b) == pytest.approx(v, rel=1e-13, abs=0.0)
    assert volume_ideal_tetrahedron_b(b) == pytest.approx(4.0 * v, rel=1e-13, abs=0.0)


def test_float_range_refusal_prints_its_limit_in_full():
    # the limit printed with four decimals read "b = 710.4759 exceeds 710.4759"
    with pytest.raises(DomainError) as exc:
        volume_two_ideal(710.4759)
    assert f"edge b = 710.4759 exceeds {SINH_MAX!r}," in str(exc.value)


def _mp_edge_angles(a, b, c):
    """(alpha, beta, gamma, delta) of the orthoscheme with edges (a, b, c), in mpmath."""
    td = mpmath.tanh(a) * mpmath.tanh(c) / mpmath.sinh(b)
    z = mpmath.acosh(mpmath.cosh(a) * mpmath.cosh(b) * mpmath.cosh(c))
    return (mpmath.atan(mpmath.tanh(c) / mpmath.sinh(b)), mpmath.atan(mpmath.tanh(z) / td),
            mpmath.atan(mpmath.tanh(a) / mpmath.sinh(b)), mpmath.atan(td))


def _mp_long_edge_volume(shape, b, a=1.0, c=1.0):
    """The Lobachevsky closed form of each quadrature shape, with Pi(b) = atan(1 / sinh b)."""
    b, a, c = mpmath.mpf(b), mpmath.mpf(a), mpmath.mpf(c)
    pi_b = mpmath.atan(1 / mpmath.sinh(b))
    if shape == "orthoscheme-two-ideal":
        return _mp_lob(pi_b) / 2
    if shape == "ideal-tetra-b":
        return 2 * _mp_lob(pi_b)
    if shape == "orthoscheme-one-ideal":
        al = mpmath.atan(mpmath.tanh(c) / mpmath.sinh(b))
        return (_mp_lob(pi_b + al) - _mp_lob(pi_b - al) + 2 * _mp_lob(mpmath.pi / 2 - al)) / 4
    al, be, ga, d = _mp_edge_angles(a, b, c)
    h = mpmath.pi / 2
    return (_mp_lob(al + d) - _mp_lob(al - d) - _mp_lob(h - be + d) + _mp_lob(h - be - d)
            + _mp_lob(ga + d) - _mp_lob(ga - d) + 2 * _mp_lob(h - d)) / 4


@pytest.mark.parametrize("b", [20.0, 30.0, 100.0, 360.0, SINH_MAX])
@pytest.mark.parametrize("shape, params", [
    ("orthoscheme-one-ideal", {"c": 1.0}), ("ideal-tetra-b", {}),
    ("orthoscheme-two-ideal", {}), ("orthoscheme-edges", {"a": 1.0, "c": 0.6})])
def test_long_edge_volumes_are_relative_to_mpmath(shape, params, b):
    # an absolute floor of 1e-14 once stopped these integrals: 2.0e-3 off at b = 100
    # against a reported error of 1e-14.  The closed forms cancel like exp(-b), so
    # mpmath runs at 30 + b/2 digits.  A closed-form record (error estimate 0) is
    # held to 1e-15, and its shape's quadrature route to the bound it was given
    v, method, err = shapes.compute_volume(shape, {"b": b, **params})
    with mpmath.workdps(int(30 + b / 2)):
        ref = float(_mp_long_edge_volume(shape, b, **params))
    if method in shapes.EXACT_METHODS:
        assert v == pytest.approx(ref, rel=1e-15, abs=0.0)
        tol = Tolerance(rel=1e-10)
        v = shapes.SHAPES[shape].routes["quadrature"](b, tol=tol)
        err = tol.rel * abs(v)
    assert v == pytest.approx(ref, rel=1e-10, abs=0.0)
    assert abs(v - ref) <= err


@pytest.mark.parametrize("a, b", [(1e-3, 705.0), (1.0, 710.4)])
def test_edge_integral_where_its_denominator_overflows(a, b):
    # hypot(tanh b / sinh a * cosh l, sinh l) overflowed to inf near l = b, which
    # dropped the end of the integrand: 2.1e-3 off at (1e-3, 705), 1.8e-3 at (1, 710.4)
    with mpmath.workdps(int(30 + b / 2)):
        ref = float(_mp_long_edge_volume("orthoscheme-edges", b, a=a, c=0.6))
    assert volume_edges((a, b, 0.6)) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("e", [1e-4, 1e-6, 1e-7, 1e-8])
def test_edges_to_angles_short_edges_against_mpmath(e):
    # tanh z from acosh(cosh a cosh b cosh c) cancelled: beta was 2.5e-9 off at 1e-4,
    # 4.4e-3 at 1e-7, and rounded to 0 (refused) at 1e-8
    ang = edges_to_angles((e, e, e))
    with mpmath.workdps(40):
        ref = _mp_edge_angles(*(mpmath.mpf(e),) * 3)
    assert ang == pytest.approx([float(r) for r in ref], rel=1e-15, abs=0.0)


def _evaluations(monkeypatch, route, *args) -> int:
    """Integrand evaluations of one route call, counted at quadrature.integrate_1d."""
    evals = []
    integrate_1d = quadrature.integrate_1d

    def counting(*a, **kw):
        res = integrate_1d(*a, **kw)
        evals.append(res.evaluations)
        return res

    monkeypatch.setattr(quadrature, "integrate_1d", counting)
    route(*args)
    return sum(evals)


def test_singular_end_routes_do_not_bisect_toward_the_singularity(monkeypatch):
    # halving toward the log singularity took 1,005 evaluations on each; the edge
    # integral removes it by parts, and derevnin_mednykh subtracts its singularities
    # in closed form and takes one panel
    assert _evaluations(monkeypatch, volume_edges, (1.0, 1.0, 19.0)) <= 100
    assert _evaluations(monkeypatch, volume_one_ideal, 1.0, 1.0) <= 45
    assert _evaluations(monkeypatch, volume_two_ideal, 1.0) <= 45
    assert _evaluations(monkeypatch, derevnin_mednykh, (math.pi / 3,) * 6) <= 15


@pytest.mark.parametrize("call", [
    lambda: derevnin_mednykh((1.1,) * 5),
    lambda: volume_edges((1, 1)),
    lambda: volume_ndim(5),
    lambda: volume_angles((0.5, 1.0, 0.6, 0.3, 0.1)),
    lambda: murakami_yano(None),
])
def test_wrong_length_or_non_sequence_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("route, args, floats", [
    (volume_edges, ("1", "1", "1"), (1.0, 1.0, 1.0)),
    (volume_angles, ("0.5", "1.0", "0.6"), (0.5, 1.0, 0.6)),
    (volume_angles, ("0.54", "1.1", "0.71"), (0.54, 1.1, 0.71)),
    (derevnin_mednykh, ("1.1",) * 6, (1.1,) * 6),
    (volume_edges, ("abc", 1, 1), None),
    (murakami_yano, ("x",) * 6, None),
    (volume_ndim, ("a", 1), None),
    (volume_angles, (None, 1.0, 0.6), None),
    (lambda a: bolyai_asymptotic_1(*a), ("0.7", "1"), (0.7, 1.0)),
    (lambda a: bolyai_asymptotic_2(*a), ("x", 1.0), None),
    (lambda a: right_triangle_angles(*a), ("1", "x"), None),
    (lambda a: milnor_ideal(*a), ("x", 1.0, 1.0), None),
    (lambda a: lambert_cube(*a), ("0.3", "0.6", "0.9", "1"), (0.3, 0.6, 0.9, 1.0)),
    (lambda a: mohanty_octahedron(*a), ("x", 1.3, 1.4), None),
])
def test_parameters_convert_once_or_raise_domain_error(route, args, floats):
    # the parameter dataclasses store the converted float, so a numeric
    # string behaves as its float (a volume, or a DomainError where the float
    # is not realizable) and anything else raises DomainError
    try:
        expected = DomainError if floats is None else route(floats)
    except DomainError:
        expected = DomainError
    if expected is DomainError:
        with pytest.raises(DomainError):
            route(args)
    else:
        assert route(args) == expected


@pytest.mark.parametrize("alpha, c", [(1e-6, 0.5), (1e-4, 1.0), (0.01, 0.01)])
def test_bolyai_asymptotic_1_does_not_cancel_at_small_angles(alpha, c):
    # cosh^2 t - cos^2 alpha cancelled here (no convergence at the first input,
    # 2.2e-10 relative at the second); sinh^2 t + sin^2 alpha does not
    with mpmath.workdps(30):
        sa2 = mpmath.sin(mpmath.mpf(alpha)) ** 2
        ref = mpmath.sin(2 * mpmath.mpf(alpha)) / 4 * mpmath.quad(
            lambda t: t / (mpmath.sinh(t) ** 2 + sa2), [0, alpha, c])
    assert bolyai_asymptotic_1(alpha, c) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_bolyai_asymptotic_1_underflowing_denominator_raises_domain_error():
    # once a ZeroDivisionError traceback from `vol bolyai-asym-1 --alpha 1e-300 --c 2.7`
    with pytest.raises(DomainError, match="exceeds the float range"):
        bolyai_asymptotic_1(1e-300, 2.7)
