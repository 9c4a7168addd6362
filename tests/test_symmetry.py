"""Symmetry identities: a route at an input and at the input's image under an
exact symmetry of the solid takes a different numerical path to the same
volume, so a disagreement shows that one of the paths is wrong, with no
second formula and no reference value.

Each test runs one deterministic grid and asserts at 1e-13 relative or the
route's own tolerance, whichever is looser.  An input that fails is a strict
xfail on that input, with its cause.  The mirror (a, b, c) <-> (c, b, a) of
``volume_edges`` is not here: the route integrates the mirror itself when
a > c.  ``volume_ndim``'s path reversal is in test_orthoscheme.py.
"""

import itertools
import math

import pytest

from hypervol.orthoscheme import bolyai_integral_1
from hypervol.quadrature import DEFAULT_TOL, Tolerance
from hypervol.tetrahedra import derevnin_mednykh, milnor_ideal, murakami_yano, sample_near_ideal

REL = 1e-13
TIGHT = Tolerance(rel=REL)

# the faces (i, j) that meet at the edges of the dihedral angles A..F, so that
# (A, D), (B, E) and (C, F) are the opposite pairs
FACE_PAIRS = ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3))


def permuted(t, sigma):
    """The dihedral angles t with the faces renumbered by sigma: the angle at
    face pair (i, j) moves to (sigma i, sigma j)."""
    out = [0.0] * 6
    for v, (i, j) in zip(t, FACE_PAIRS):
        out[FACE_PAIRS.index(tuple(sorted((sigma[i], sigma[j]))))] = v
    return tuple(out)


def assert_invariant(values, rel):
    assert values == pytest.approx([values[0]] * len(values), rel=rel, abs=0.0)


def test_permuted_moves_each_angle_with_its_faces():
    # the transposition of faces 0 and 3 swaps A = (0,1) with E = (1,3) and B = (0,2)
    # with D = (2,3), and keeps the pair C = (1,2) and F = (0,3)
    assert permuted((1, 2, 3, 4, 5, 6), (3, 1, 2, 0)) == (5, 4, 3, 2, 1, 6)
    images = {permuted((1, 2, 3, 4, 5, 6), s) for s in itertools.permutations(range(4))}
    assert len(images) == 24 and all(sorted(t) == [1, 2, 3, 4, 5, 6] for t in images)


FLAT_REASON = ("a flat tetrahedron of volume 2.0e-6: under the face permutations "
               "derevnin_mednykh spreads by 5.3e-12 and murakami_yano by 7.8e-10, which "
               "is about 1e-17 and 1.6e-15 absolute; rounding in the route, cause not "
               "pinned down")
TETRAHEDRA = [
    *(pytest.param(t, id=f"near-ideal-{i}") for i, t in enumerate(sample_near_ideal(40, 3))),
    pytest.param((math.pi / 3,) * 6, id="regular-ideal"),
    pytest.param((1.0664993100418816, 1.1883434990835442, 0.9269472528999848,
                  1.0756645687472814, 1.1792317723915802, 0.9710248857545193), id="compact"),
    # A + B + C = pi: vertex 0 is ideal
    pytest.param((0.9893084523104052, 1.1152542354336856, 1.037029965845702,
                  1.7877337424748292, 1.54005699204667, 0.7894942003133171), id="one-ideal"),
    pytest.param((1.5425, 0.2837, 1.3823, 1.3181, 1.7889, 1.5999), id="flat",
                 marks=pytest.mark.xfail(strict=True, reason=FLAT_REASON)),
]


@pytest.mark.parametrize("route", [lambda t: derevnin_mednykh(t, TIGHT), murakami_yano],
                         ids=["derevnin_mednykh", "murakami_yano"])
@pytest.mark.parametrize("t", TETRAHEDRA)
def test_tetrahedron_routes_are_invariant_under_face_permutations(route, t):
    assert_invariant([route(permuted(t, s)) for s in itertools.permutations(range(4))], REL)


THIN_REASON = ("an ideal tetrahedron with an angle A = 1e-6 has a volume of about 1.4e-5: "
               "L(C) = -L(A + B) nearly cancels L(B), and the order of the three additions "
               "moves the sum by about 1.5e-17, 1e-12 relative")
MILNOR_GRID = (1e-6, 1e-3, 0.3, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("A, B", [
    pytest.param(A, B, marks=pytest.mark.xfail(strict=True, reason=THIN_REASON))
    if A == 1e-6 and B > 0.1 else (A, B)
    for A, B in itertools.combinations_with_replacement(MILNOR_GRID, 2) if A + B < math.pi])
def test_milnor_ideal_is_invariant_under_angle_permutations(A, B):
    angles = (A, B, math.pi - A - B)
    assert_invariant([milnor_ideal(*p) for p in itertools.permutations(angles)], REL)


EDGE_GRID = (1e-3, 0.05, 0.3, 1.0, 3.0, 8.0)


@pytest.mark.parametrize("b", EDGE_GRID)
def test_bolyai_integral_1_is_invariant_under_the_mirror(b):
    # the route integrates along the last edge, so (a, b, c) and (c, b, a) take different
    # integrals; they differ by up to 2.6e-13, at (0.3, 0.001, 8), at any tolerance
    rel = max(REL, DEFAULT_TOL.rel)
    for a, c in itertools.combinations(EDGE_GRID, 2):
        assert bolyai_integral_1((a, b, c)) == pytest.approx(bolyai_integral_1((c, b, a)),
                                                             rel=rel, abs=0.0), (a, b, c)
