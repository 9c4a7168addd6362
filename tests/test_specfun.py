"""Lobachevsky / Clausen function tests.

Frozen reference values were computed ahead of the implementation with
mpmath (clsin, 30 significant digits) and adaptive quadrature of the
defining integral.
"""

import math
import random

import pytest

from hypervol.errors import DomainError
from hypervol.specfun import (
    clausen2,
    lobachevsky,
    lobachevsky_via_integral,
)

# mpmath references
LOB_PI_6 = 0.507470803204826813  # global maximum
LOB_0_7 = 0.483716006841389491
CATALAN = 0.915965594177219015


def test_lobachevsky_trivial_zeros():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi)) < 1e-14
    assert abs(lobachevsky(-math.pi)) < 1e-14
    assert abs(lobachevsky(math.pi / 2)) < 1e-14


def test_lobachevsky_maximum():
    assert lobachevsky(math.pi / 6) == pytest.approx(LOB_PI_6, abs=1e-13)


def test_lobachevsky_spot_value():
    assert lobachevsky(0.7) == pytest.approx(LOB_0_7, abs=1e-13)


def test_oddness_exact_relation():
    x = 0.7
    assert lobachevsky(-x) == -lobachevsky(x)


def test_oddness_and_periodicity_sampled():
    rng = random.Random(101)
    for _ in range(100):
        x = rng.uniform(-2 * math.pi, 2 * math.pi)
        assert abs(lobachevsky(-x) + lobachevsky(x)) < 1e-12
        assert abs(lobachevsky(x + math.pi) - lobachevsky(x)) < 1e-12


def test_duplication_identity():
    # L(2x) = 2 L(x) + 2 L(x + pi/2)
    rng = random.Random(202)
    for _ in range(100):
        x = rng.uniform(0.0, math.pi / 2)
        lhs = lobachevsky(2 * x)
        rhs = 2 * lobachevsky(x) + 2 * lobachevsky(x + math.pi / 2)
        assert abs(lhs - rhs) < 1e-11


def test_series_vs_defining_integral():
    rng = random.Random(303)
    for _ in range(20):
        x = rng.uniform(1e-3, math.pi - 1e-3)
        assert abs(lobachevsky(x) - lobachevsky_via_integral(x)) < 1e-10


def test_clausen_trivial():
    assert clausen2(0.0) == 0.0
    assert abs(clausen2(math.pi)) < 1e-14


def test_clausen_catalan():
    assert clausen2(math.pi / 2) == pytest.approx(CATALAN, abs=1e-13)


def test_clausen_lobachevsky_bridge():
    rng = random.Random(404)
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0)
        assert abs(clausen2(x) - 2.0 * lobachevsky(x / 2.0)) < 1e-12


def test_clausen2_zero_catalan_and_periodic():
    assert clausen2(0.0) == 0.0
    assert clausen2(math.pi / 2) == pytest.approx(CATALAN, abs=1e-13)
    assert clausen2(2 * math.pi + math.pi / 2) == pytest.approx(
        clausen2(math.pi / 2), abs=1e-12
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_arguments_rejected(bad):
    with pytest.raises(DomainError):
        lobachevsky(bad)
    with pytest.raises(DomainError):
        clausen2(bad)
