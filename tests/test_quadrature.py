"""Adaptive quadrature engine tests."""

import math
import random

import mpmath
import pytest

from hypervol import quadrature
from hypervol.errors import ConvergenceError, DomainError
from hypervol.orthoscheme import OrthoschemeAngles
from hypervol.quadrature import (
    IntegralResult,
    Tolerance,
    integrate_1d,
    integrate_region,
)


def test_polynomial():
    res = integrate_1d(lambda x: x, 0.0, 1.0)
    assert res.value == pytest.approx(0.5, abs=1e-13)
    assert res.error_estimate <= max(1e-14, 1e-10 * abs(res.value))
    assert res.evaluations >= 15


def test_gk15_rule_is_exact_on_polynomials_to_a_few_ulp():
    # the 15-point Kronrod rule is exact through degree 22; truncated constants
    # put every moment about 3e-15 low (21 ulp at j = 22, 27 at j = 0)
    for j in range(23):
        value = quadrature._gk15(lambda x: x ** j, 0.0, 1.0)[0]
        assert abs(value - 1.0 / (j + 1)) <= 8 * math.ulp(1.0 / (j + 1)), j


def _loop_gk15(f, a, b):
    """The GK15 panel as a loop over the node pairs with per-node lists: the
    reference for the straight-line _gk15, which must repeat its every float
    operation in the same order."""
    xgk, wgk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    if not math.isfinite(fc):
        raise DomainError(f"integrand returned {fc!r} at x={c!r}")
    resk = wgk[7] * fc
    resabs = wgk[7] * abs(fc)
    fv = []
    sums = []
    for x, w in zip(xgk[:7], wgk[:7]):
        x = h * x
        f1 = f(c - x)
        f2 = f(c + x)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            bad = c - x if not math.isfinite(f1) else c + x
            raise DomainError(f"integrand returned a non-finite value at x={bad!r}")
        fv.append((w, f1, f2))
        s = f1 + f2
        sums.append(s)
        resk += w * s
        resabs += w * (abs(f1) + abs(f2))
    resg = wg[3] * fc + wg[0] * sums[1] + wg[1] * sums[3] + wg[2] * sums[5]
    reskh = 0.5 * resk
    resasc = wgk[7] * abs(fc - reskh)
    for w, f1, f2 in fv:
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    resasc *= abs(h)
    resabs *= abs(h)
    value = resk * h
    if not (math.isfinite(value) and math.isfinite(resabs)):
        raise DomainError(f"the integral over [{a!r}, {b!r}] leaves the float range")
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-300:
        err = max(err, 2.0 * quadrature._EPS * resabs)
    return value, err, resabs


@pytest.mark.parametrize("f, a, b", [
    *[(lambda x, j=j: x ** j, 0.0, 1.0) for j in (0, 1, 2, 7, 15, 22)],
    (lambda x: 3.0 * x ** 3 - x + 0.25, -1.0, 2.0),
    (math.cos, 0.0, 1.0),
    (math.cos, -3.0, 11.0),
    (lambda x: math.sin(5.0 * x), -1.0, 2.0),  # changes sign
    (lambda x: x - 0.3, 0.0, 0.6),  # sums to about 0
    (lambda x: -0.0, 0.0, 1.0),
    (lambda x: 0.0, -1.0, 1.0),
    (lambda x: 5e-324 * (1 + round(4 * x)), 0.0, 1.0),  # subnormal values
    (lambda x: 1e-310 * math.cos(x), 0.0, 2.0),
    (math.exp, -745.0, -700.0),
    (lambda x: 1e300 * (1.5 + math.sin(x)), 0.0, 3.0),  # near 1e300
    (lambda x: 1e300 * x, 0.0, 100.0),
    (math.cosh, 0.0, 1e-300),
])
def test_gk15_repeats_the_loop_panel_bit_for_bit(f, a, b):
    new, ref = quadrature._gk15(f, a, b), _loop_gk15(f, a, b)
    assert new == ref
    assert [math.copysign(1.0, v) for v in new] == [math.copysign(1.0, v) for v in ref]


def test_gk15_constants_match_the_rule_to_double_precision():
    wgk, xgk = quadrature._WGK, quadrature._XGK
    assert abs(math.fsum([*wgk[:7], *wgk[:7], wgk[7]]) - 2.0) <= 2.0 * math.ulp(2.0)
    # the Gauss nodes (odd Kronrod indices) are the roots of P7
    with mpmath.workdps(30):
        for x in xgk[1::2]:
            assert abs(mpmath.legendre(7, x)) <= 1e-14, x
        # moments of the Kronrod rule against exact ones
        for j in range(0, 23, 2):
            rule = wgk[7] * (1 if j == 0 else 0) + 2 * mpmath.fsum(
                mpmath.mpf(w) * mpmath.mpf(x) ** j for w, x in zip(wgk[:7], xgk[:7]))
            assert abs(rule - mpmath.mpf(2) / (j + 1)) <= 1e-15, j


def test_log_endpoint_singularity():
    res = integrate_1d(math.log, 0.0, 1.0)
    assert res.value == pytest.approx(-1.0, abs=1e-11)


def test_lobachevsky_defining_integral_over_full_period():
    res = integrate_1d(lambda t: -math.log(abs(2.0 * math.sin(t))), 0.0, math.pi)
    assert abs(res.value) < 1e-10


def test_singularity_robustness():
    res = integrate_1d(lambda x: math.log(1.0 / x), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    res = integrate_1d(lambda x: x ** -0.5, 0.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_a_panel_beyond_the_float_range_raises_domain_error():
    # every value is finite, but the panel's sums overflow: this returned
    # IntegralResult(inf, inf, 15)
    with pytest.raises(DomainError, match="float range"):
        integrate_1d(lambda x: 1.7e308, 0.0, 1.0)


def test_linearity():
    rng = random.Random(7)
    coef_f = [rng.uniform(-1, 1) for _ in range(5)]
    coef_g = [rng.uniform(-1, 1) for _ in range(5)]
    f = lambda x: sum(c * x ** i for i, c in enumerate(coef_f))
    g = lambda x: sum(c * x ** i for i, c in enumerate(coef_g))
    a, b = rng.uniform(2, 3), rng.uniform(-2, -1)
    combined = integrate_1d(lambda x: a * f(x) + b * g(x), 0.0, 2.0).value
    parts = a * integrate_1d(f, 0.0, 2.0).value + b * integrate_1d(g, 0.0, 2.0).value
    assert combined == pytest.approx(parts, abs=1e-11)


def test_interval_additivity():
    f = lambda x: math.exp(-x) * math.sin(3 * x)
    whole = integrate_1d(f, 0.0, 2.0).value
    split = integrate_1d(f, 0.0, 0.7).value + integrate_1d(f, 0.7, 2.0).value
    assert whole == pytest.approx(split, abs=1e-12)


def test_empty_and_reversed_interval():
    assert integrate_1d(math.sin, 1.0, 1.0) == IntegralResult(0.0, 0.0, 0)
    with pytest.raises(DomainError):
        integrate_1d(math.sin, 1.0, 0.0)


def test_determinism():
    f = lambda x: x ** -0.5
    r1 = integrate_1d(f, 0.0, 1.0)
    r2 = integrate_1d(f, 0.0, 1.0)
    assert r1 == r2


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(ConvergenceError) as exc:
        integrate_1d(lambda x: x ** -0.5, 0.0, 1.0, Tolerance(rel=1e-13),
                     max_evals=100)
    best = exc.value.best
    assert best is not None
    assert math.isfinite(best.value)
    assert best.evaluations <= 100


def test_nan_integrand_rejected():
    with pytest.raises(DomainError):
        integrate_1d(lambda x: math.sqrt(x - 0.5) if x >= 0.5 else float("nan"),
                     0.0, 1.0)


@pytest.mark.parametrize("bad, named", [
    ((0.5,), "integrand returned nan at x=0.5"),  # the centre, node 0
    ((0.9324322116798845,), "x=0.9324322116798845"),  # node 6, c + h x_2
    # nodes 5 and 12 (c - h x_2, c + h x_5): the earlier in evaluation order
    ((0.06756778832011545, 0.7029225756886985), "x=0.06756778832011545"),
])
def test_gk15_reports_the_first_non_finite_node(bad, named):
    f = lambda x: math.nan if x in bad else 1.0
    with pytest.raises(DomainError, match=named.replace(".", r"\.") + "$"):
        quadrature._gk15(f, 0.0, 1.0)


def test_tolerance_validation():
    with pytest.raises(DomainError):
        Tolerance(rel=1e-15)
    with pytest.raises(DomainError):
        Tolerance(rel=0.5)


def test_nested_triangle():
    res = integrate_region(lambda x: lambda y: 1.0, [(0.0, 1.0), (0.0, lambda x: x)])
    assert res.value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("value", [True, False])
def test_region_refuses_a_callable_bound_that_gives_a_bool(value):
    # float() takes a bool for 1 or 0, as a constant bound a bool is refused already
    with pytest.raises(DomainError) as exc:
        integrate_region(lambda x: lambda y: 1.0, [(0.0, 1.0), (0.0, lambda x: value)])
    assert str(exc.value) == f"a bound of integration variable 2 gave {value}, not a number"
    with pytest.raises(DomainError, match="integration bound must be a number"):
        integrate_region(lambda x: lambda y: 1.0, [(0.0, 1.0), (0.0, value)])


def test_nested_right_triangle_area_matches_defect():
    a, b = 1.0, 1.0
    ratio = math.tanh(b) / math.sinh(a)
    res = integrate_region(
        lambda x: lambda y: math.cosh(y),
        [(0.0, a), (0.0, lambda x: math.atanh(ratio * math.sinh(x)))],
    )
    alpha = math.atan(math.tanh(a) / math.sinh(b))
    beta = math.atan(math.tanh(b) / math.sinh(a))
    assert res.value == pytest.approx(math.pi / 2 - alpha - beta, abs=1e-9)


def test_nested_three_levels_matches_edge_integral():
    from hypervol.orthoscheme import volume_edges

    a, b, c = 1.0, 1.0, 1.0
    r1 = math.tanh(b) / math.sinh(a)
    r2 = math.tanh(c) / math.sinh(b)
    res = integrate_region(
        lambda x, y: lambda z: math.cosh(z) ** 2 * math.cosh(y),
        [
            (0.0, a),
            (0.0, lambda x: math.atanh(r1 * math.sinh(x))),
            (0.0, lambda x, y: math.atanh(r2 * math.sinh(y))),
        ],
        Tolerance(rel=1e-9),
    )
    assert res.value == pytest.approx(volume_edges((a, b, c)), abs=1e-8)


def test_region_with_general_lower_limits():
    # integral of 1 over the annulus-like box [0,1] x [x, 2]
    res = integrate_region(lambda x: lambda y: 1.0, [(0.0, 1.0), (lambda x: x, 2.0)])
    assert res.value == pytest.approx(1.5, abs=1e-12)


def test_nested_budget_is_shared_across_levels(monkeypatch):
    # one GK15 panel per level: 15^3 = 3,375 evaluations, all of which a
    # budget handed whole to every 1-D call let through at a budget of 100
    f = lambda x, y: lambda z: x * y + z
    box = [(0.0, 1.0)] * 3
    assert integrate_region(f, box).evaluations == 3375
    monkeypatch.setattr(quadrature, "_BUDGET", 100)
    with pytest.raises(ConvergenceError, match="budget 100 exhausted") as exc:
        integrate_region(f, box)
    best = exc.value.best
    assert math.isfinite(best.value)
    assert best.evaluations <= 100
    # the outer level never finished a panel, so its estimate carries no information
    assert best.error_estimate == math.inf


def test_nested_budget_reports_the_outer_estimate(monkeypatch):
    # the outer level refines toward x = 0.3; the integral is 2 (sqrt(0.3) + sqrt(0.7))
    exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    f = lambda x: lambda y: abs(x - 0.3) ** -0.5
    monkeypatch.setattr(quadrature, "_BUDGET", 5000)
    with pytest.raises(ConvergenceError) as exc:
        integrate_region(f, [(0.0, 1.0), (0.0, 1.0)])
    best = exc.value.best
    assert 15 <= best.evaluations <= 5000
    assert 0.0 < best.error_estimate < math.inf
    assert abs(best.value - exact) <= best.error_estimate


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_region_evaluations_are_the_integrand_calls(levels, monkeypatch):
    # innermost evaluations are counted per 1-D call, from its result or, when
    # it runs out of budget, from the best estimate it raises with
    calls = []

    def f(*outer):
        def inner(x):
            calls.append((*outer, x))
            return math.sqrt(abs(x - 0.3)) + math.fsum(outer)

        return inner

    box = [(0.0, 1.0)] + [(0.0, lambda *outer: 1.0 + outer[-1])] * (levels - 1)
    res = integrate_region(f, box)
    assert res.evaluations == len(calls) > 15 ** levels
    calls.clear()
    budget = res.evaluations // 2
    monkeypatch.setattr(quadrature, "_BUDGET", budget)
    with pytest.raises(ConvergenceError, match=f"budget {budget} exhausted") as exc:
        integrate_region(f, box)
    assert exc.value.best.evaluations == len(calls) <= budget


def test_one_panel_return_equals_the_heap_path():
    # what the refinement loop's finish() makes of a single panel
    def heap_path(f, lo, hi):
        val, err, _ = quadrature._gk15(f, lo, hi)
        return IntegralResult(math.fsum([val]), math.fsum([err]), 15)

    for f, lo, hi in ((lambda x: 1.0 + x * x, 0.0, 2.0), (math.cos, -1.0, 0.5),
                      (lambda x: -x, 0.0, 1.0)):
        res = integrate_1d(f, lo, hi)
        ref = heap_path(f, lo, hi)
        assert res == ref and res.evaluations == 15
        assert [math.copysign(1.0, v) for v in res] == [math.copysign(1.0, v) for v in ref]
    # fsum turns -0.0 into 0.0, and so does the one-panel return
    res = integrate_1d(lambda x: -0.0, 0.0, 1.0)
    assert res == IntegralResult(0.0, 0.0, 15)
    assert math.copysign(1.0, res.value) == 1.0


def test_integrate_1d_budget_below_one_panel_raises():
    with pytest.raises(ConvergenceError) as exc:
        integrate_1d(lambda x: x, 0.0, 1.0, max_evals=14)
    assert exc.value.best == IntegralResult(0.0, math.inf, 0)


def test_every_level_runs_at_the_callers_tolerance(monkeypatch):
    # the caller's Tolerance object reaches every 1-D call: 1 + 15 + 15^2 of them
    seen = []
    integrate = quadrature.integrate_1d
    monkeypatch.setattr(quadrature, "integrate_1d",
                        lambda f, lo, hi, tol, max_evals: seen.append(tol)
                        or integrate(f, lo, hi, tol, max_evals))
    tol = Tolerance(rel=1e-8)
    f = lambda x, y: lambda z: x * y + z
    assert integrate_region(f, [(0.0, 1.0)] * 3, tol).evaluations == 3375
    assert len(seen) == 1 + 15 + 15 ** 2
    assert all(t is tol for t in seen)


def test_scaled_multiplies_the_value_and_the_best_estimate_of_a_failure():
    def fail(best=IntegralResult(8.0, 0.5, 45)):
        raise ConvergenceError("budget exhausted", best=best)

    assert quadrature.scaled(-0.25, lambda: 8.0) == -2.0
    with pytest.raises(ConvergenceError, match="budget exhausted") as exc:
        quadrature.scaled(-0.25, fail)
    assert exc.value.best == IntegralResult(-2.0, 0.125, 45)
    # scalings nest
    with pytest.raises(ConvergenceError) as exc:
        quadrature.scaled(4.0, lambda: quadrature.scaled(-0.25, fail))
    assert exc.value.best == IntegralResult(-8.0, 0.5, 45)


def test_records_are_immutable_and_print_their_fields():
    tol, res = Tolerance(rel="1e-8"), IntegralResult(1.5, 0.25, 45)
    ang = OrthoschemeAngles(0.54, 1.1, 0.71)
    assert repr(tol) == "Tolerance(rel=1e-08)"
    assert repr(res) == "IntegralResult(value=1.5, error_estimate=0.25, evaluations=45)"
    assert repr(ang) == ("OrthoschemeAngles(alpha=0.54, beta=1.1, gamma=0.71, "
                         "delta=0.4393113996974949)")
    for record, field in ((tol, "rel"), (res, "value"), (ang, "delta")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0
