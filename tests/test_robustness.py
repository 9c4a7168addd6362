"""Robustness of the whole public surface: every public function returns a
finite value or raises a HypervolError, whatever it is given, and no argv
lets an exception escape ``cli.main``."""

import inspect
import json
import math
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypervol import (cli, errors, mc_oracle, models, orthoscheme, quadrature, shapes, solids,
                      specfun, tetrahedra)
from hypervol.errors import DomainError, HypervolError
from hypervol.shapes import SHAPES

# numbers at the edges of every domain, a non-number and numeric strings
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.3, 1.2, 2.7, math.pi, math.inf, -math.inf, math.nan,
           1e300, -1e300, 1e-300, -1e-300, None, "x", "1.5", "0.7"]
NUMBERS = st.sampled_from(SPECIAL) | st.floats(-4.0, 4.0)
SEQUENCES = st.lists(NUMBERS, max_size=7).map(tuple) | NUMBERS

# arguments that take a sequence of numbers, by module
SEQUENCE_ARGS = {"edges", "angles", "t", "sides", "vertices", "half_widths", "lo", "hi"}
MODEL_SEQUENCE_ARGS = SEQUENCE_ARGS | {"p", "q", "coords"}
# drawn from a small pool, because their cost grows with the value, not its validity:
# a sample count (one pass per sample), a sampler's case count, a dimension, or a
# nested integral's bounds
SMALL = st.sampled_from([None, "x", "3", math.nan, math.inf, -1, 0, 1e-300, 2, 3, 5, 9, 2.5])
COSTLY_ARGS = {"samples", "n", "count"}
# the nested n-orthoscheme integral takes up to 37 ms at n = 4 with edges up to 3, as
# (3, 3, 3, 3), but seconds at n = 5 or on a middle edge near 19, so its edges stop at
# n = 4 and 3
NDIM_EDGES = st.lists(st.sampled_from([v for v in SPECIAL if v != math.pi])
                      | st.floats(0.01, 3.0), max_size=4).map(tuple)
# the result record holds whatever it is given
SKIP = {"MCEstimate"}
# functions whose value is a volume or area, which must also be >= 0
VOLUMES = {"volume_edges", "volume_angles", "bolyai_integral_1", "bolyai_asymptotic_1",
           "bolyai_asymptotic_2", "volume_one_ideal", "volume_two_ideal",
           "volume_two_ideal_closed", "volume_ideal_tetrahedron_b", "area_right_triangle",
           "volume_ndim", "milnor_ideal", "derevnin_mednykh", "murakami_yano",
           "mohanty_octahedron", "paracycle_brick_volume", *solids.__all__}


def public_functions():
    for module in (solids, models, mc_oracle, specfun, orthoscheme, tetrahedra):
        for name in module.__all__:
            fn = getattr(module, name)
            if callable(fn) and name not in SKIP:
                yield pytest.param(module, fn, id=f"{module.__name__.split('.')[-1]}.{name}")


def check_finite(value):
    """Every float reachable from ``value`` is finite.  Floats, tuples (named
    ones included), lists and a region's box are walked; any other value
    that is not a str, an int, a bool or None fails, so that no returned
    number goes unchecked."""
    if isinstance(value, float):
        assert math.isfinite(value), value
    elif isinstance(value, (tuple, list)):
        for v in value:
            check_finite(v)
    elif isinstance(value, mc_oracle.Region):
        # its membership test is code, not a number
        assert callable(value.contains), value
        check_finite((value.lo, value.hi, value.name))
    else:
        assert value is None or isinstance(value, (str, int)), f"cannot walk {value!r}"


def chart_point(system, n, k):
    """A strategy for points of chart ``system`` with n coordinates at curvature k:
    spherical angles in range, the half-space x_n positive, Klein points with
    |X/k| <= 0.8."""
    coord = st.floats(-2.0, 2.0)
    if system == "spherical":
        return st.tuples(st.floats(0.0, 6.28), *[st.floats(0.0, math.pi)] * (n - 2),
                         st.floats(0.0, 3.0))
    if system == "halfspace":
        return st.tuples(*[coord] * (n - 1), st.floats(0.1, 3.0))
    if system == "klein":
        return st.tuples(*[st.floats(-0.4 * k, 0.4 * k)] * n)
    return st.tuples(*[coord] * n)


CHART_MAPS = (models.transform, models.density)


@st.composite
def chart_call(draw, fn):
    """Keyword arguments of ``models.transform`` or ``models.density`` that its
    checks accept: 2..4 coordinates of a valid point, charts that take it, and
    for ``density`` a curvature k (``transform`` works at curvature 1)."""
    charts = [c for c in models.COORDINATE_SYSTEMS if fn is models.density or c != "halfspace"]
    k = 1.0
    if fn is models.density:
        k = draw(st.sampled_from([1.0, 0.5, 2.7]) | st.floats(0.3, 4.0))
    system = draw(st.sampled_from(charts))
    p = draw(st.integers(2, 4).flatmap(lambda n: chart_point(system, n, k)))
    if fn is models.density:
        return {"system": system, "p": p, "k": k}
    return {"p": p, "source": system, "target": draw(st.sampled_from(charts))}


def arguments(module, fn):
    """A strategy for the keyword arguments of ``fn``, tolerance left at its default."""
    seq = MODEL_SEQUENCE_ARGS if module is models else SEQUENCE_ARGS
    args = {}
    for name in inspect.signature(fn).parameters:
        if name == "tol":
            continue
        if name == "region":
            args[name] = st.just(mc_oracle.region_ball(0.5))
        elif name in ("system", "source", "target"):
            args[name] = st.sampled_from([*models.COORDINATE_SYSTEMS, "x", None])
        elif name == "bounds":
            args[name] = st.just([(0, 0.0, 0.1), (1, 0.0, 0.1)])
        elif fn is orthoscheme.volume_ndim and name == "edges":
            args[name] = NDIM_EDGES
        elif name in COSTLY_ARGS:
            args[name] = SMALL
        else:
            args[name] = SEQUENCES if name in seq else NUMBERS
    return st.fixed_dictionaries(args)


@pytest.mark.parametrize("module, fn", public_functions())
def test_public_functions_return_finite_or_raise_hypervol_error(module, fn):
    returned = []

    def check(kwargs):
        try:
            value = fn(**kwargs)
        except HypervolError:
            returned.append(False)
            return
        returned.append(True)
        check_finite(value)
        if fn.__name__ in VOLUMES:
            assert value >= 0.0, value

    # arbitrary arguments stop at an argument check of the chart maps almost
    # always, so valid calls join them there and the maps and kernels run too
    sweeps = [arguments(module, fn)]
    if fn in CHART_MAPS:
        sweeps.append(chart_call(fn))
    for strategy in sweeps:
        settings(max_examples=20, derandomize=True, deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))(given(strategy)(check))()
    if fn in CHART_MAPS:
        assert 2 * sum(returned) >= len(returned), returned


@pytest.mark.parametrize("call", [
    'solids.sphere_volume(None)',
    'solids.barrel(1, "x")',
    'solids.circular_cone(1, None)',
    'solids.sphere_volume_by_quadrature(1e300)',
    'solids.barrel_by_quadrature(0.3, 1e300)',
    'solids.equidistant_body_by_quadrature(0.01, 1e300)',
    'models.density("klein", (0.1, 0.1), k="x")',
    'models.transform((0.1, None), "spherical", "klein")',
    'models.coordinate_volume("klein", [(0, 0, 0.1), (1, 0, 0.1)], "x")',
    'models.paracycle_brick_volume((math.nan, 1, 1))',
    'models.paracycle_brick_volume((1.1, math.inf, 1.3))',
    'mc_oracle.region_ball("1")',
    'shapes.mc_estimate("sphere", {"x": 1}, math.nan, 10_000, 0)',
    'shapes.mc_estimate("sphere", {"x": 1e300}, 5.5e102, 10_000, 0)',
    'mc_oracle.region_cone(1, "x")',
    'mc_oracle.orthoscheme_vertices("1", 1, 1)',
    'mc_oracle.estimate(mc_oracle.region_ball(1), "x", 0)',
    'mc_oracle.estimate(mc_oracle.region_ball(1), 100_000, None)',
    'specfun.lobachevsky("x")',
    'specfun.clausen2("1.5")',
    'quadrature.Tolerance(rel="x")',
])
def test_known_leaks_raise_hypervol_error_or_convert(call):
    # each of these once leaked TypeError, ValueError or OverflowError, or
    # returned a non-finite value; a numeric string converts like its float
    try:
        value = eval(call)
    except HypervolError:
        return
    check_finite(value)


@pytest.mark.parametrize("call", [
    'quadrature.integrate_1d(math.cos, "a", 1.0)',
    'quadrature.integrate_1d(math.cos, 0.0, None)',
    'quadrature.integrate_region(lambda: math.cos, [(0.0,)])',
    'quadrature.integrate_region(lambda: math.cos, 0.5)',
    'quadrature.integrate_region(lambda x: math.cos, [(0.0, 1.0), (0.0, lambda x: "q")])',
    'quadrature.integrate_region(lambda: math.cos, [(0.0, "x")])',
    'models.coordinate_volume("klein", [(0, -0.3), (1, -0.3, 0.3), (2, -0.3, 0.3)], 3)',
    'models.coordinate_volume("klein", [("x", -0.3, 0.3), (1, -0.3, 0.3), (2, -0.3, 0.3)], 3)',
    'models.coordinate_volume("klein", [(0, -0.3, 0.3), (1, -0.3, 0.3), '
    '(2, -0.3, lambda x0, x1: "q")], 3)',
    'models.coordinate_volume("klein", 0.3, 3)',
    # a bare float where a Tolerance belongs
    'quadrature.integrate_1d(math.cos, 0.0, 1.0, 1e-8)',
    'quadrature.integrate_region(lambda x: math.cos, [(0.0, 1.0)] * 2, 1e-8)',
    'orthoscheme.volume_ndim((0.5,) * 3, 1e-8)',
    'orthoscheme.volume_ndim((0.5,) * 2, 1e-8)',
])
def test_malformed_quadrature_input_raises_domain_error(call):
    # each of these leaked TypeError, ValueError, IndexError or AttributeError
    with pytest.raises(DomainError):
        eval(call)


@pytest.mark.parametrize("call", [
    'orthoscheme.edges_to_angles((1.0, 0.8, 0.6))',
    'orthoscheme.sample_valid_angles(2, 1)',
    'models.coordinate_volume("klein", [(0, 0, 0.1), (1, 0, 0.1)], 2, 1.0)',
    'mc_oracle.region_ball(0.5)',
    'shapes.mc_estimate("sphere", {"x": 0.5}, 1.0, 10_000, 0)',
])
def test_check_finite_walks_every_kind_of_returned_record(call):
    # the sweep's arbitrary arguments seldom reach a valid call of these, so each
    # record type is walked here once; a value of no known kind fails the walk
    check_finite(eval(call))
    with pytest.raises(AssertionError, match="cannot walk"):
        check_finite([eval(call), object()])


def test_samplers_refuse_a_seed_that_is_not_an_integer():
    # random.Random(None) would seed from OS entropy, against the determinism
    # both promise; int() would truncate 0.3 to seed 0 and 2.5 to count 2, and
    # read True as 1
    for sample in (orthoscheme.sample_valid_angles, tetrahedra.sample_near_ideal):
        for seed in (None, [1], "x", 0.3, True):
            with pytest.raises(DomainError):
                sample(2, seed)
        with pytest.raises(DomainError):
            sample(2.5, 1)
    assert len(orthoscheme.sample_valid_angles(2.0, 1.0)) == 2


def test_positive_converts_its_argument_once():
    # positive once converted through number twice, itself and in nonnegative
    class Counted:
        calls = 0

        def __float__(self):
            Counted.calls += 1
            return 0.5

    for check in (errors.positive, errors.nonnegative):
        Counted.calls = 0
        assert check("x", Counted()) == 0.5 and Counted.calls == 1
    with pytest.raises(DomainError, match="x = 2.0 exceeds 1.0"):
        errors.positive("x", 2.0, 1.0)
    with pytest.raises(DomainError, match="x must be finite and positive, got 0.0"):
        errors.positive("x", 0.0)


def test_numeric_strings_convert_like_their_floats():
    assert quadrature.Tolerance(rel="1e-8").rel == 1e-8
    assert specfun.clausen2("1.5") == specfun.clausen2(1.5)
    assert mc_oracle.region_ball("1").hi == mc_oracle.region_ball(1.0).hi


def cli_argvs(count, seed):
    """Seeded ``vol`` argvs over every table shape, with values from SPECIAL."""
    rng = random.Random(seed)
    numbers = [repr(v) for v in SPECIAL if isinstance(v, float)] + ["x", "1.5", "0.7", "1e-20"]
    out = []
    for i in range(count):
        shape = list(SHAPES)[i % len(SHAPES)]
        argv = ["vol", shape]
        for name, kind in SHAPES[shape].params.items():
            if kind == "N":
                # edges stop at 5: longer ones hit the nested integral's long-edge
                # stall, which hangs rather than fails
                edges = [rng.choice(["0.3", "1", "2.5", "5", "0", "-1", "nan", "x"])
                         for _ in range(rng.randint(1, 6))]
                argv.append(f"--{name}=" + ",".join(edges))
            else:
                argv.append(f"--{name}={rng.choice(numbers)}")
        if rng.random() < 0.5:
            argv.append(f"--k={rng.choice(numbers)}")
        if rng.random() < 0.2:
            argv += ["--degrees"]
        out.append(argv)
    return out


# the extreme-value grid: the least subnormal, a subnormal, tiny and ordinary values, an
# edge whose tanh rounds to 1, and values near the float-range thresholds of sinh^2 and sinh
GRID = (5e-324, 1e-310, 1e-200, 1e-17, 0.3, 1.0, 19.0, 355.0, 700.0)
ANGLES = (5e-324, 1e-200, 1e-17, 0.3, 1.0, 0.5 * math.pi - 1e-12)
# route -> (function of the grid values, argument tuples)
GRID_ROUTES = {
    "volume_edges": (lambda *e: orthoscheme.volume_edges(e), product(GRID, repeat=3)),
    "bolyai_integral_1": (lambda *e: orthoscheme.bolyai_integral_1(e), product(GRID, repeat=3)),
    "edges_to_angles": (lambda *e: orthoscheme.edges_to_angles(e), product(GRID, repeat=3)),
    "volume_one_ideal": (orthoscheme.volume_one_ideal, product(GRID, repeat=2)),
    "volume_two_ideal": (orthoscheme.volume_two_ideal, product(GRID)),
    "volume_two_ideal_closed": (orthoscheme.volume_two_ideal_closed, product(GRID)),
    "volume_ideal_tetrahedron_b": (orthoscheme.volume_ideal_tetrahedron_b, product(GRID)),
    "right_triangle_angles": (orthoscheme.right_triangle_angles, product(GRID, repeat=2)),
    "bolyai_asymptotic_1": (orthoscheme.bolyai_asymptotic_1, product(ANGLES, GRID)),
    "bolyai_asymptotic_2": (orthoscheme.bolyai_asymptotic_2, product((0.0, *ANGLES), GRID)),
    "volume_angles": (lambda *t: orthoscheme.volume_angles(t), product(ANGLES, repeat=3)),
    "angles_to_edges": (lambda *t: orthoscheme.angles_to_edges(t), product(ANGLES, repeat=3)),
    "volume_ndim": (lambda *e: orthoscheme.volume_ndim(e), product(GRID, repeat=3)),
    # n = 4 on the values that reach its closed-form x_1 level's subnormal and overflow ends
    "volume_ndim n=4": (lambda *e: orthoscheme.volume_ndim(e),
                        product((5e-324, 1e-300, 1e-17, 0.3, 1.0, 700.0), repeat=4)),
    "area_right_triangle": (orthoscheme.area_right_triangle, product(GRID, repeat=2)),
    "circular_cone": (solids.circular_cone, product(GRID, ANGLES)),
    "sphere_volume_by_quadrature": (solids.sphere_volume_by_quadrature, product(GRID)),
    "barrel_by_quadrature": (solids.barrel_by_quadrature, product(GRID, repeat=2)),
    "equidistant_body_by_quadrature": (solids.equidistant_body_by_quadrature,
                                       product(GRID, repeat=2)),
    **{name: (getattr(specfun, name), product(sorted({*GRID, *ANGLES, -5e-324, -1e-310})))
       for name in specfun.__all__},
}


@pytest.mark.parametrize("name, fn, grid", [
    pytest.param(name, fn, tuple(grid), id=name) for name, (fn, grid) in GRID_ROUTES.items()])
def test_extreme_value_grid_returns_finite_or_raises_hypervol_error(name, fn, grid):
    # the sweep above seldom builds a valid argument tuple (none of its draws for
    # volume_edges), so every combination of the grid's values runs here
    failures = []
    for args in grid:
        try:
            value = fn(*args)
            check_finite(value)
            assert name.split()[0] not in VOLUMES or value >= 0.0, value
        except HypervolError:
            pass
        except Exception as exc:  # a leaked exception or a failed check
            failures.append((args, repr(exc)))
    assert not failures, f"{len(failures)} failures, the first: {failures[:3]}"


def test_cli_never_lets_an_exception_escape(capsys):
    for argv in cli_argvs(220, seed=5):
        code = cli.main(argv)
        out, _ = capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            assert math.isfinite(float(out.split('"volume": ')[1].split(",")[0])), argv


def test_cli_convert_never_lets_an_exception_escape(capsys):
    argvs = [["convert", "edges-to-angles", *(f"--{n}={v!r}" for n, v in zip("abc", e))]
             for e in product(GRID, repeat=3)]
    argvs += [["convert", "angles-to-edges",
               *(f"--{n}={v!r}" for n, v in zip(("alpha", "beta", "gamma"), t))]
              for t in product(ANGLES, repeat=3)]
    failures = []
    for argv in argvs:
        try:
            code = cli.main(argv)
            out, _ = capsys.readouterr()
            assert code in (0, 2, 3), code
            if code == 0:
                check_finite(tuple(json.loads(out).values()))
        except Exception as exc:  # a traceback or a failed check
            failures.append((argv, repr(exc)))
    assert not failures, f"{len(failures)} of {len(argvs)} failed, the first: {failures[:3]}"


# angles hold a long orthoscheme only through differences of order exp(-2z), z the long
# diagonal, so the round trip loses digits as a + b + c grows (0.6 relative at a sum of
# 13 in 20,000 uniform draws on [0, 8]^3); a short middle edge b, recovered from
# sinh^2 b = cosh^2 z / (cosh a cosh c)^2 - 1, loses some too (3.3e-7 at b = 1e-3)
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.tuples(*[st.floats(1e-3, 1.3)] * 3))
def test_edges_angles_round_trip(edges):
    try:
        back = orthoscheme.angles_to_edges(orthoscheme.edges_to_angles(edges))
    except HypervolError:
        return  # a direction refuses the input
    for e, b in zip(edges, back):
        assert b == pytest.approx(e, rel=1e-6), (edges, back)


@pytest.mark.xfail(strict=True, reason="the Lambert-cube combination is negative for some "
                   "theta in (0, pi/2]; theta is free, so no geometric check applies")
def test_lambert_cube_negative_volume(capsys):
    code = cli.main(["vol", "lambert-cube", "--w0", "0.168", "--w1", "1.243", "--w2", "0.354",
                     "--theta", "0.0498"])
    out, _ = capsys.readouterr()
    assert code != 0 or float(out.split('"volume": ')[1].split(",")[0]) >= 0.0


@pytest.mark.xfail(strict=True, reason="rounding leaves the octahedron's Lobachevsky sum "
                   "slightly negative when an angle tends to 0")
def test_mohanty_octahedron_negative_volume():
    assert tetrahedra.mohanty_octahedron(1e-300, 1.6068545592186658, 2.6002367924276046) >= 0.0
