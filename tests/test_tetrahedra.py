"""Tetrahedron, Lambert-cube and octahedron volume tests.

Frozen references from mpmath (Clausen-based Lobachevsky values at 30
digits); the orthoscheme dihedral data reuses the independently frozen
edge-integral value.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from hypervol import quadrature
from hypervol.errors import DomainError, NotRealizableError
from hypervol.orthoscheme import volume_edges
from hypervol.specfun import lobachevsky, lobachevsky_via_integral
from hypervol.tetrahedra import (
    derevnin_mednykh,
    dm_coefficients,
    lambert_cube,
    milnor_ideal,
    mohanty_octahedron,
    murakami_yano,
    sample_near_ideal,
)

REGULAR_IDEAL = 1.01494160640965363   # 3 L(pi/3)
REGULAR_OCTA = 3.66386237670887606    # 8 L(pi/4)
LAMBERT_EXAMPLE = -0.054535337335067574  # combination at (pi/4 x3, theta=0.6)
P3 = math.pi / 3


def ideal_symmetric(A, B, C):
    return (A, B, C, A, B, C)


# ---------------------------------------------------------------------------
# Milnor
# ---------------------------------------------------------------------------

def test_milnor_regular_value():
    v = milnor_ideal(P3, P3, P3)
    assert v == pytest.approx(REGULAR_IDEAL, abs=1e-12)


def test_milnor_permutation_invariance():
    trip = (0.5, 1.0, math.pi - 1.5)
    ref = milnor_ideal(*trip)
    assert milnor_ideal(trip[1], trip[2], trip[0]) == pytest.approx(ref, abs=1e-14)
    assert milnor_ideal(trip[2], trip[0], trip[1]) == pytest.approx(ref, abs=1e-14)


def test_milnor_degenerate_limit():
    eps = 1e-7
    B = 1.1
    assert abs(milnor_ideal(eps, B, math.pi - B - eps)) < 1e-5


def test_milnor_regular_is_maximal():
    best = milnor_ideal(P3, P3, P3)
    for i in range(1, 50):
        A = 0.05 + (math.pi - 0.1) * i / 50.0
        for B in (0.4, 0.8, 1.2):
            C = math.pi - A - B
            if C <= 0.01:
                continue
            assert milnor_ideal(A, B, C) <= best + 1e-12


def test_milnor_validation():
    with pytest.raises(DomainError):
        milnor_ideal(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        milnor_ideal(-0.1, 1.7, math.pi - 1.6)


# ---------------------------------------------------------------------------
# root data
# ---------------------------------------------------------------------------

def test_dm_coefficients_regular_ideal():
    z1, z2 = dm_coefficients(ideal_symmetric(P3, P3, P3))
    assert z1 == pytest.approx(0.0, abs=1e-12)
    assert z2 == pytest.approx(P3, abs=1e-12)


def log_argument(t, z):
    """(numerator, denominator) of the volume integrand's log argument at z."""
    A, B, C, D, E, F = t
    num = math.prod(math.cos((s + z) / 2) for s in (A + B + C, A + E + F, B + D + F, C + D + E))
    den = math.prod(math.sin((s + z) / 2) for s in (A + B + D + E, A + C + D + F, B + C + E + F, 0))
    return num, den


def test_dm_root_residuals_on_realizable_samples():
    for t in sample_near_ideal(10, seed=31):
        z1, z2 = dm_coefficients(t)
        for z in (z1, z2):
            num, den = log_argument(t, z)
            assert abs(num - den) <= 1e-8 * max(1.0, abs(num), abs(den))
        assert z1 < z2


def test_dm_rejects_degenerate_small_angles():
    with pytest.raises(NotRealizableError):
        dm_coefficients((0.1,) * 6)


def test_dm_rejects_imaginary_k4():
    # stretched angles break k1^2 + k2^2 >= k3^2
    with pytest.raises(NotRealizableError):
        dm_coefficients((1.3, 1.6, 1.2, 1.35, 1.45, 1.0))


@pytest.mark.parametrize("t, message", [
    ((1.3, 1.6, 1.2, 1.35, 1.45, 1.0), "k1^2 + k2^2 < k3^2: no real root interval"),
    ((0.1,) * 6, "the angles at a vertex form no spherical triangle"),
    ((2.0, 2.1, 1.0, 1.7, 2.0, 1.1),
     "a Gram cofactor is negative: the faces bound no tetrahedron"),
])
def test_dm_refusal_type_and_message(t, message):
    # one input per reachable refusal of the Gram criterion, with its exact type and text
    with pytest.raises(NotRealizableError) as exc:
        dm_coefficients(t)
    assert exc.type is NotRealizableError and str(exc.value) == message


# faces (i, j) meeting at the edges of A..F
EDGE_FACES = ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3))


def hull_has_angles(angles):
    """Whether the angles are those of a tetrahedron of H^3, by construction:
    face normals n_i in R^{3,1} with <n_i, n_j> = -cos(angle at faces i, j)
    come from the eigendecomposition of that Gram matrix, vertex v_i is the
    null vector of the three other normals, and the hull of the vertices must
    have the given dihedral angles."""
    G = np.eye(4)
    for (i, j), x in zip(EDGE_FACES, angles):
        G[i, j] = G[j, i] = -math.cos(x)
    lam, Q = np.linalg.eigh(G)
    if (lam < 0).sum() != 1:
        return False
    J = np.sign(lam)  # the form diag(-1, 1, 1, 1): eigh sorts ascending
    N = Q * np.sqrt(np.abs(lam))  # rows n_i, so that N J N^T = G
    V = np.empty((4, 4))
    for i in range(4):
        v = np.linalg.svd(np.delete(N, i, 0) * J)[2][-1]
        q = v @ (J * v)
        if q >= 0.0:
            return False  # no point of H^3
        V[i] = np.sign(v[0]) * v / math.sqrt(-q)  # all on the upper sheet
    # outward normals m_i: the vertex off face i lies on its inner side
    M = -np.sign(np.einsum("ij,ij->i", N * J, V))[:, None] * N
    hull = [math.acos(np.clip(-(M[i] * J) @ M[j], -1.0, 1.0)) for i, j in EDGE_FACES]
    return max(abs(h - x) for h, x in zip(hull, angles)) <= 1e-9


def test_dm_coefficients_accepts_exactly_the_tetrahedra():
    rng = random.Random(1)
    accepted, disagree = [], []
    for _ in range(5000):
        t = tuple(rng.uniform(0.3, 2.5) for _ in range(6))
        try:
            dm_coefficients(t)
            ok = True
        except NotRealizableError:
            ok = False
        if ok != hull_has_angles(t):
            disagree.append(t)
        if ok:
            accepted.append(t)
    assert disagree == []
    assert len(accepted) >= 30
    # obtuse tetrahedra far from ideal, which no other test samples
    for t in accepted:
        assert derevnin_mednykh(t) == pytest.approx(murakami_yano(t), rel=0.0, abs=1e-12)


def test_dm_ideal_vertex_tolerance():
    # A + B + C = pi rounded to floats makes all four vertices ideal; 1e-6
    # less makes them hyperideal, which the formulas do not cover
    rng = random.Random(5)
    for _ in range(200):
        A = rng.uniform(0.05, math.pi - 0.1)
        B = rng.uniform(0.05, math.pi - A - 0.05)
        C = math.pi - A - B
        dm_coefficients((A, B, C) * 2)
        with pytest.raises(NotRealizableError):
            dm_coefficients((A, B, C - 1e-6) * 2)


# ---------------------------------------------------------------------------
# volume formulas
# ---------------------------------------------------------------------------

def test_dm_and_my_match_milnor_on_ideal_symmetric():
    # z1 = 0 is a log singularity of the DM integrand in the ideal limit
    for A, B in [(P3, P3), (0.9, 1.1), (1.0, 1.0), (0.5, 1.2), (0.3, 0.4), (1.4, 1.5)]:
        trip = (A, B, math.pi - A - B)
        ref = milnor_ideal(*trip)
        t = ideal_symmetric(*trip)
        assert derevnin_mednykh(t) == pytest.approx(ref, rel=0.0, abs=1e-12)
        assert murakami_yano(t) == pytest.approx(ref, abs=1e-5)


# near ideal: the DM integrand's log singularity at z = 0 sits 3e-7 below z1,
# and a substitution anchored at z1 rather than at 0 was off by 3.1e-10 here
NEAR_IDEAL = (0.7879642968848837, 0.8535761523852081, 1.523952507713889,
              0.812501313887479, 0.816879177043767, 1.5784328619831411)


def test_dm_equals_my_on_realizable_samples():
    for pert in [*sample_near_ideal(10, seed=77), NEAR_IDEAL]:
        dm = derevnin_mednykh(pert)
        my = murakami_yano(pert)
        assert abs(dm - my) <= 1e-12
        assert dm > 0.0


def _mp_derevnin_mednykh(t):
    """-1/4 int_{z1}^{z2} log(prod cos / prod sin) dz at 40 digits, with the roots
    z1, z2 of the formula computed in mpmath (a z1 below 0 read as 0)."""
    with mpmath.workdps(40):
        A, B, C, D, E, F = map(mpmath.mpf, t)
        cos, sin = mpmath.cos, mpmath.sin
        S = A + B + C + D + E + F
        pairs = (A + D, B + E, C + F, D + E + F, D + B + C, A + E + C, A + B + F)
        k1 = -(cos(S) + sum(cos(x) for x in pairs))
        k2 = sin(S) + sum(sin(x) for x in pairs)
        k3 = 2 * (sin(A) * sin(D) + sin(B) * sin(E) + sin(C) * sin(F))
        center, half = mpmath.atan2(k2, k1), mpmath.atan(mpmath.sqrt(k1**2 + k2**2 - k3**2) / k3)

        def f(z):
            num = mpmath.fprod(cos((s + z) / 2) for s in (A + B + C, A + E + F, B + D + F,
                                                          C + D + E))
            den = mpmath.fprod(sin((s + z) / 2) for s in (A + B + D + E, A + C + D + F,
                                                          B + C + E + F, 0))
            return mpmath.log(abs(num / den))

        return float(-mpmath.quad(f, [max(center - half, 0), center + half]) / 4)


def _near_ideal_compact(count, seed):
    """Compact tetrahedra near the ideal limit: an ideal triple (A, B, C) twice,
    each angle raised by a uniform amount in (0.02, 0.12), kept when compact."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = rng.uniform(0.3, 1.5)
        B = rng.uniform(0.3, math.pi - A - 0.3)
        t = tuple(x + rng.uniform(0.02, 0.12) for x in (A, B, math.pi - A - B) * 2)
        try:
            dm_coefficients(t)
        except NotRealizableError:
            continue
        out.append(t)
    return out


def _with_ideal_vertices(count, seed, ideal):
    """Tetrahedra whose vertex (A, B, C), and with ideal = 2 also (C, D, E), is ideal."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = rng.uniform(0.3, 1.5)
        B = rng.uniform(0.3, math.pi - A - 0.3)
        C = math.pi - A - B
        D, E, F = (rng.uniform(0.3, 2.0) for _ in range(3))
        if ideal == 2:
            D = rng.uniform(0.3, math.pi - C - 0.3)
            E = math.pi - C - D
        t = (A, B, C, D, E, F)
        try:
            dm_coefficients(t)
        except NotRealizableError:
            continue
        out.append(t)
    return out


def _evaluations(route, t) -> int:
    """Integrand evaluations of route(t), counted at quadrature.integrate_1d."""
    evals = []
    integrate_1d = quadrature.integrate_1d

    def counting(*args, **kwargs):
        res = integrate_1d(*args, **kwargs)
        evals.append(res.evaluations)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "integrate_1d", counting)
        route(t)
    return sum(evals)


@pytest.mark.parametrize("t", [*_near_ideal_compact(6, 2024), *sample_near_ideal(2, 3)])
def test_dm_against_mpmath(t):
    assert derevnin_mednykh(t) == pytest.approx(_mp_derevnin_mednykh(t), rel=1e-12, abs=0.0)


# nearly flat tetrahedra (root interval 0.006 to 0.016 wide, volume 2e-6 to 1e-4),
# where the integrand cancels: held to an absolute bound
FLAT = [(1.5425, 0.2837, 1.3823, 1.3181, 1.7889, 1.5999),
        (1.548, 1.5112, 0.9695, 1.4232, 0.7528, 1.5659),
        (2.1509, 2.2124, 2.7809, 0.2164, 0.1746, 0.8774)]


@pytest.mark.parametrize("t", FLAT)
def test_dm_against_mpmath_on_flat_tetrahedra(t):
    assert derevnin_mednykh(t) == pytest.approx(_mp_derevnin_mednykh(t), rel=0.0, abs=1e-14)


def test_dm_matches_milnor_on_ideal_tetrahedra():
    # A, B, C >= 0.2 uniform on the simplex A + B + C = pi, as hypervol's benchmark
    # draws them; with an angle below 0.2 the rounding of z1 (up to 4e-14 above its
    # exact 0) puts both integral routes up to 9e-12 off
    rng = random.Random(11)
    for _ in range(50):
        u, v = sorted((rng.random(), rng.random()))
        A, B = 0.2 + (math.pi - 0.6) * u, 0.2 + (math.pi - 0.6) * (v - u)
        C = math.pi - A - B
        ref = milnor_ideal(A, B, C)
        assert derevnin_mednykh((A, B, C) * 2) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ideal", [1, 2])
def test_dm_matches_my_with_ideal_vertices(ideal):
    # the singularity of the ideal vertex's cosine meets z1 = 0
    for t in _with_ideal_vertices(20, 17 + ideal, ideal):
        assert derevnin_mednykh(t) == pytest.approx(murakami_yano(t), rel=0.0, abs=1e-12)


def test_dm_takes_one_panel():
    # subdivision toward the log singularities took 82 evaluations on compact draws
    # near the ideal limit and 287 in it
    cases = [*sample_near_ideal(20, seed=5), *_near_ideal_compact(20, 6),
             *((A, B, math.pi - A - B) * 2 for A, B in [(P3, P3), (0.3, 0.4), (1.4, 1.5)]),
             *_with_ideal_vertices(5, 7, 1), *_with_ideal_vertices(5, 8, 2), *FLAT]
    assert max(_evaluations(derevnin_mednykh, t) for t in cases) <= 15


def test_dm_integrand_is_finite_on_a_zero():
    # a node exactly on a factor's zero reads sin(x) / x there as its limit 1: at the
    # regular ideal tetrahedron the lower limit h = 0 is the zero of sin(h)
    seen = []
    integrate_1d = quadrature.integrate_1d

    def probing(f, lo, hi, *args):
        seen.append((lo, f(lo), f(lo + 1e-9)))
        return integrate_1d(f, lo, hi, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "integrate_1d", probing)
        derevnin_mednykh((P3,) * 6)
    [(lo, on_zero, beside)] = seen
    assert lo == 0.0
    assert on_zero == pytest.approx(beside, rel=1e-8, abs=0.0)


def test_formulas_reproduce_orthoscheme_volume():
    # dihedral angles of the edge-orthoscheme (1,1,1): alpha at both slant
    # edges, beta at the long diagonal, right angles elsewhere
    al = math.atan(math.tanh(1.0) / math.sinh(1.0))
    z = math.acosh(math.cosh(1.0) ** 3)
    be = math.atan(math.tanh(z) * math.sinh(1.0) / math.tanh(1.0) ** 2)
    R = math.pi / 2
    t = (al, R, be, al, R, R)
    ref = volume_edges((1.0, 1.0, 1.0))
    assert derevnin_mednykh(t) == pytest.approx(ref, abs=1e-9)
    assert murakami_yano(t) == pytest.approx(ref, abs=1e-9)


def test_opposite_pair_swap_invariance():
    al = math.atan(math.tanh(1.0) / math.sinh(1.0))
    z = math.acosh(math.cosh(1.0) ** 3)
    be = math.atan(math.tanh(z) * math.sinh(1.0) / math.tanh(1.0) ** 2)
    R = math.pi / 2
    t = (al, R, be, al, R, R)
    swapped = (al, R, R, al, R, be)
    assert murakami_yano(t) == pytest.approx(murakami_yano(swapped), abs=1e-10)
    assert derevnin_mednykh(t) == pytest.approx(derevnin_mednykh(swapped), abs=1e-9)


# ---------------------------------------------------------------------------
# Lambert cube
# ---------------------------------------------------------------------------

def test_lambert_cube_two_lobachevsky_paths():
    w = math.pi / 4
    theta = 0.6
    assert lambert_cube(w, w, w, theta) == pytest.approx(LAMBERT_EXAMPLE, abs=1e-12)

    def via_integral(ws, th):
        L = lobachevsky_via_integral
        return 0.25 * (
            sum(L(wi + th) - L(wi - th) for wi in ws)
            - L(2 * th) + 2 * L(math.pi / 2 - th)
        )

    assert via_integral((w, w, w), theta) == pytest.approx(
        lambert_cube(w, w, w, theta), abs=1e-10
    )


def test_lambert_cube_symmetry_and_boundary():
    v = lambert_cube(0.3, 0.6, 0.9, 1.0)
    assert lambert_cube(0.9, 0.3, 0.6, 1.0) == pytest.approx(v, abs=1e-14)
    assert abs(lambert_cube(0.3, 0.6, 0.9, math.pi / 2)) < 1e-14


def test_lambert_cube_positive_in_geometric_range():
    # for a geometric cube tan(theta) >= 1; the combination is positive there
    assert lambert_cube(math.pi / 4, math.pi / 4, math.pi / 4, 1.0) > 0.0


def test_lambert_cube_validation():
    with pytest.raises(DomainError):
        lambert_cube(0.3, 0.6, 0.9, 0.0)
    with pytest.raises(DomainError):
        lambert_cube(0.3, 0.6, 0.9, 2.0)
    with pytest.raises(DomainError):
        lambert_cube(1.6, 0.6, 0.9, 0.5)


# ---------------------------------------------------------------------------
# Mohanty octahedron
# ---------------------------------------------------------------------------

def test_octahedron_regular_value_two_paths():
    v = mohanty_octahedron(math.pi / 2, math.pi / 2, math.pi / 2)
    assert v == pytest.approx(REGULAR_OCTA, abs=1e-12)
    assert v == pytest.approx(8.0 * lobachevsky(math.pi / 4), abs=1e-13)
    assert v == pytest.approx(8.0 * lobachevsky_via_integral(math.pi / 4), abs=1e-9)


def test_octahedron_swap_invariance():
    v1 = mohanty_octahedron(0.9, 1.3, 2.1)
    v2 = mohanty_octahedron(1.3, 0.9, 2.1)
    assert v1 == pytest.approx(v2, abs=1e-13)


def test_octahedron_degenerate_continuity():
    assert abs(mohanty_octahedron(math.pi - 1e-6, 1e-6, 1e-6)) < 1e-4


def test_octahedron_validation():
    with pytest.raises(DomainError):
        mohanty_octahedron(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mohanty_octahedron(1.0, math.pi, 1.0)
