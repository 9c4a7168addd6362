"""The shape table: every shape reaches its volume by two routes, and they agree.

A shape's routes are the table routes of ``Shape.routes``, the first of which
is its evaluator, plus its Monte-Carlo region where it has one."""

import math
import random

import pytest

from hypervol import orthoscheme, tetrahedra
from hypervol.quadrature import Tolerance
from hypervol.shapes import SHAPES

# shape -> why it has fewer than two routes; only ever shrinks
EXEMPT = {
    "barrel-wedge": "its only form is the product p T / 2",
    "sector": "a half-space chart route needs an infinite height, and integrate_1d takes "
              "finite limits",
    "asymptotic-cone": "until it has the quadrature twin pi * int_0^b tanh",
    "ndim-orthoscheme": "until a route can apply to a single case, such as volume_edges at "
                        "n = 3 (ROADMAP items 1 and 6)",
    "lambert-cube": "until ROADMAP item 2 determines theta",
    "mohanty": "until ROADMAP item 2 or item 16 gives it a route",
}


def _route_count(shape: str) -> int:
    entry = SHAPES[shape]
    return len(entry.routes) + (entry.mc_region is not None)


def test_every_shape_has_two_routes():
    short = [shape for shape in SHAPES if _route_count(shape) < 2 and shape not in EXEMPT]
    assert not short, f"{short} have one route; give each a second or exempt it with a reason"


def test_exempt_shapes_still_have_fewer_than_two_routes():
    for shape in EXEMPT:
        assert _route_count(shape) < 2, f"{shape} has two routes now; take it off EXEMPT"


UNIT = (0.2, 2.0)


def _box(*ranges):
    """One draw with each parameter uniform on its range."""
    return lambda rng: tuple(rng.uniform(lo, hi) for lo, hi in ranges)


def _angles(rng):
    # from edges in [0.2, 2]^3: on small orthoschemes the Lobachevsky terms of
    # volume_angles cancel (test_volume_angles_on_a_small_orthoscheme_matches_mpmath)
    return tuple(orthoscheme.edges_to_angles(_box(UNIT, UNIT, UNIT)(rng)))[:3]


def _ideal_angles(rng):
    # A + B + C = pi, every angle at least 0.2
    A = rng.uniform(0.2, math.pi - 0.4)
    B = rng.uniform(0.2, math.pi - 0.2 - A)
    return A, B, math.pi - A - B


def _bolyai_asym_2(rng):
    # the edges route's c = atanh(tan amax sinh b) is finite while cos amax > tanh b
    b = rng.uniform(0.1, 1.5)
    return rng.uniform(0.01, 0.999 * math.acos(math.tanh(b))), b


def _draws(one, seed: int = 2) -> list[tuple]:
    rng = random.Random(seed)
    return [one(rng) for _ in range(30)]


# shape -> (its route names in table order, 30 parameter draws at curvature 1)
AGREEMENT = {
    "sphere": (("closed", "quadrature"), _draws(_box(UNIT))),
    "barrel": (("closed", "quadrature"), _draws(_box(UNIT, UNIT))),
    "equidistant": (("closed", "quadrature"), _draws(_box(UNIT, UNIT))),
    "orthoscheme-angles": (("angles", "edges", "bolyai1"), _draws(_angles)),
    "orthoscheme-one-ideal": (("edges", "bolyai-asym"), _draws(_box(UNIT, UNIT))),
    "orthoscheme-two-ideal": (("lobachevsky", "quadrature"), _draws(_box((0.05, 30.0)))),
    "ideal-tetra-b": (("lobachevsky", "quadrature"), _draws(_box((0.05, 30.0)))),
    "bolyai-1": (("bolyai1", "edges"), _draws(_box(UNIT, UNIT, UNIT))),
    "bolyai-asym-1": (("bolyai-asym", "edges"), _draws(_box((0.1, 1.4), UNIT))),
    "bolyai-asym-2": (("bolyai-asym2", "edges"), _draws(_bolyai_asym_2)),
    "milnor": (("lobachevsky", "murakami-yano"), _draws(_ideal_angles)),
    "derevnin-mednykh": (("derevnin-mednykh", "murakami-yano"),
                         tetrahedra.sample_near_ideal(30, 3)),
    "murakami-yano": (("murakami-yano", "derevnin-mednykh"), tetrahedra.sample_near_ideal(30, 3)),
    # the angle defect cancels at tiny legs (area about ab/2), so the legs stay in [0.2, 2]
    "triangle-2d": (("nested", "defect"), _draws(_box(UNIT, UNIT))),
}
# the largest relative difference from the first route, where it is not 1e-12
REL = {"triangle-2d": 1e-13}


def test_agreement_covers_every_shape_with_two_table_routes():
    assert set(AGREEMENT) == {shape for shape, entry in SHAPES.items() if len(entry.routes) > 1}


@pytest.mark.parametrize("shape", AGREEMENT)
def test_table_routes_agree(shape):
    names, draws = AGREEMENT[shape]
    routes = SHAPES[shape].routes
    assert tuple(routes) == names
    tol = Tolerance(rel=1e-10)
    for values in draws:
        first, *others = (route(*values, tol=tol) for route in routes.values())
        for name, v in zip(names[1:], others):
            assert v == pytest.approx(first, rel=REL.get(shape, 1e-12), abs=0.0), (name, values)
