"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import math
import random
import time

from hypervol import mc_oracle as mc
from hypervol import solids
from hypervol.orthoscheme import (
    angles_to_edges,
    area_right_triangle,
    bolyai_integral_1,
    right_triangle_angles,
    sample_valid_angles,
    volume_angles,
    volume_edges,
    volume_ndim,
    volume_one_ideal,
    volume_two_ideal,
)
from hypervol.quadrature import Tolerance
from hypervol.specfun import lobachevsky, lobachevsky_via_integral
from hypervol.tetrahedra import (
    derevnin_mednykh,
    milnor_ideal,
    mohanty_octahedron,
    murakami_yano,
    sample_near_ideal,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_flagship_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    triples = sample_valid_angles(20, seed=20121023)
    assert len(triples) >= 20
    for ang in triples:
        e = angles_to_edges(ang)
        va = volume_angles(ang)
        ve = volume_edges(e)
        worst = max(worst, abs(va - ve) / max(1.0, va))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _report(1, "orthoscheme angle/edge cross-validation",
            ok, f"worst rel delta {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_bolyai_first_integral_grid():
    worst = 0.0
    for a in (0.5, 1.0, 1.5):
        for b in (0.5, 1.0, 1.5):
            for c in (0.5, 1.0, 1.5):
                worst = max(
                    worst, abs(bolyai_integral_1((a, b, c)) - volume_edges((a, b, c)))
                )
    _report(2, "Bolyai integral vs edge integral on 27-point grid",
            worst <= 1e-6, f"worst |delta| {worst:.2e}")


def test_criterion_03_euclidean_limit():
    eps = 1e-2
    v = volume_edges((eps, 2 * eps, 3 * eps))
    ratio = v / (eps ** 3 * (1 * 2 * 3) / 6.0)
    ok = abs(ratio - 1.0) <= 1e-3
    _report(3, "Euclidean limit of the edge integral", ok, f"ratio - 1 = {ratio - 1:.2e}")


def test_criterion_04_planar_defect():
    rng = random.Random(48)
    worst = 0.0
    for _ in range(10):
        a, b = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        alpha, beta = right_triangle_angles(a, b)
        defect = math.pi / 2 - alpha - beta
        worst = max(worst, abs(area_right_triangle(a, b) - defect))
    _report(4, "planar area equals angle defect", worst <= 1e-8,
            f"worst |delta| {worst:.2e}")


def test_criterion_05_solids_closed_vs_quadrature():
    tight = Tolerance(rel=1e-12)
    worst = 0.0
    for x in (0.25, 0.5, 1.0, 1.5, 2.0):
        worst = max(worst, abs(
            solids.sphere_volume(x) - solids.sphere_volume_by_quadrature(x, tol=tight)
        ))
        worst = max(worst, abs(
            solids.equidistant_body(1.0, x)
            - solids.equidistant_body_by_quadrature(1.0, x, tol=tight)
        ))
        worst = max(worst, abs(
            solids.barrel(1.0, x) - solids.barrel_by_quadrature(1.0, x, tol=tight)
        ))
    _report(5, "solids closed forms vs quadrature", worst <= 1e-8,
            f"worst |delta| {worst:.2e}")


def test_criterion_06_monte_carlo_oracle():
    t0 = time.perf_counter()
    n = 1_000_000
    cases = [
        ("ball", mc.region_ball(1.0), solids.sphere_volume(1.0)),
        ("barrel", mc.region_barrel(1.0, 1.0), solids.barrel(1.0, 1.0)),
        ("cone", mc.region_cone(1.0, math.pi / 4),
         solids.circular_cone(1.0, math.pi / 4)),
        ("orthoscheme",
         mc.region_simplex(mc.orthoscheme_vertices(1.0, 1.0, 1.0)),
         volume_edges((1.0, 1.0, 1.0))),
    ]
    details = []
    ok = True
    for name, region, ref in cases:
        est = mc.estimate(region, n, seed=42)
        z = (est.mean - ref) / est.stderr
        ok = ok and abs(est.mean - ref) <= 4.0 * est.stderr
        ok = ok and est.stderr <= 0.015 * ref
        details.append(f"{name} z={z:+.2f} se/ref={est.stderr / ref:.3%}")
    # determinism under a fixed seed
    again = mc.estimate(cases[0][1], n, seed=42)
    first = mc.estimate(cases[0][1], n, seed=42)
    ok = ok and again.mean == first.mean
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 60.0
    _report(6, "Monte-Carlo oracle agreement", ok,
            "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_07_tetrahedron_formulas():
    worst_pair = 0.0
    for t in sample_near_ideal(10, seed=31415):
        worst_pair = max(worst_pair, abs(derevnin_mednykh(t) - murakami_yano(t)))
    worst_milnor = 0.0
    for trip in [(math.pi / 3,) * 3, (0.9, 1.1, math.pi - 2.0)]:
        ref = milnor_ideal(*trip)
        sym = trip + trip
        worst_milnor = max(worst_milnor, abs(derevnin_mednykh(sym) - ref))
        worst_milnor = max(worst_milnor, abs(murakami_yano(sym) - ref))
    regular = murakami_yano((math.pi / 3,) * 6)
    ok = (worst_pair <= 1e-6 and worst_milnor <= 1e-5
          and abs(regular - 1.0149416) <= 1e-5)
    _report(7, "tetrahedron integral vs closed form vs ideal",
            ok, f"max |DM-MY| {worst_pair:.2e}, max vs ideal {worst_milnor:.2e}")


def test_criterion_08_octahedron_dual_lobachevsky_paths():
    v = mohanty_octahedron(math.pi / 2, math.pi / 2, math.pi / 2)
    series = 8.0 * lobachevsky(math.pi / 4)
    quad = 8.0 * lobachevsky_via_integral(math.pi / 4)
    ok = abs(v - series) <= 1e-9 and abs(v - quad) <= 1e-9
    _report(8, "regular ideal octahedron by two Lobachevsky paths", ok,
            f"|v-series| {abs(v - series):.1e}, |v-quadrature| {abs(v - quad):.1e}")


def test_criterion_09_asymptotic_chain():
    worst1 = worst2 = 0.0
    for b in (0.5, 1.0):
        for c in (0.5, 1.0):
            worst1 = max(worst1, abs(volume_edges((20.0, b, c)) - volume_one_ideal(b, c)))
        worst2 = max(worst2, abs(volume_one_ideal(b, 30.0) - volume_two_ideal(b)))
    ok = worst1 <= 1e-5 and worst2 <= 1e-5
    _report(9, "ideal-vertex asymptotic chain", ok,
            f"one-ideal {worst1:.2e}, two-ideal {worst2:.2e}")


def test_criterion_10_dimension_coherence():
    worst = 0.0
    for (a, b, c) in [(1.0, 1.0, 1.0), (0.5, 1.0, 1.5)]:
        worst = max(worst, abs(volume_ndim((b, c, a)) - volume_edges((a, b, c))))
    for (a, b) in [(1.0, 1.0), (0.7, 1.4)]:
        alpha, beta = right_triangle_angles(a, b)
        worst = max(worst, abs(volume_ndim((b, a)) - (math.pi / 2 - alpha - beta)))
    _report(10, "n-dimensional integral coherence", worst <= 1e-8,
            f"worst |delta| {worst:.2e}")


def test_criterion_11_special_function_identities():
    rng = random.Random(2718)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2 * math.pi, 2 * math.pi)
        worst = max(worst, abs(lobachevsky(-x) + lobachevsky(x)))
        worst = max(worst, abs(lobachevsky(x + math.pi) - lobachevsky(x)))
        y = abs(x) / 4.0  # in [0, pi/2]
        worst = max(
            worst,
            abs(lobachevsky(2 * y) - 2 * lobachevsky(y) - 2 * lobachevsky(y + math.pi / 2)),
        )
    from hypervol.specfun import clausen2

    catalan_err = abs(clausen2(math.pi / 2) - 0.9159655941)
    ok = worst <= 1e-11 and catalan_err <= 1e-10
    _report(11, "Lobachevsky identities and Catalan value", ok,
            f"worst identity {worst:.2e}, catalan err {catalan_err:.1e}")
