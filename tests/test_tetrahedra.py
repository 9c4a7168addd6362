"""Tetrahedron, Lambert-cube and octahedron volume tests.

Frozen references from mpmath (Clausen-based Lobachevsky values at 30
digits); the orthoscheme dihedral data reuses the independently frozen
edge-integral value.
"""

import math
import random

import numpy as np
import pytest

from hypervol.errors import DomainError, NotRealizableError
from hypervol.orthoscheme import volume_edges
from hypervol.specfun import lobachevsky, lobachevsky_via_integral
from hypervol.tetrahedra import (
    _log_argument,
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


def test_dm_root_residuals_on_realizable_samples():
    for t in sample_near_ideal(10, seed=31):
        z1, z2 = dm_coefficients(t)
        for z in (z1, z2):
            num, den = _log_argument(t)(z)
            assert abs(num - den) <= 1e-8 * max(1.0, abs(num), abs(den))
        assert z1 < z2


def test_dm_rejects_degenerate_small_angles():
    with pytest.raises(NotRealizableError):
        dm_coefficients((0.1,) * 6)


def test_dm_rejects_imaginary_k4():
    # stretched angles break k1^2 + k2^2 >= k3^2
    with pytest.raises(NotRealizableError):
        dm_coefficients((1.3, 1.6, 1.2, 1.35, 1.45, 1.0))


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
