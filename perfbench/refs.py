"""Independent reference values for the benchmark's correctness checks.

Each shape is checked against a second route: the library's own twin where
one exists (a ``*_by_quadrature`` solid, the angle form of an edge
integral, the Clausen form of a root-interval integral), otherwise a closed
form written here, an mpmath evaluation of the defining integral, or a
Gauss-Legendre rule in numpy: for the Lobachevsky function (with its log
singularity split off) and, as a tensor rule, for the smooth nested
integrals.  References are computed outside the timed region
and with tracing paused.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

from hypervol import models, orthoscheme, solids, tetrahedra

HALF_PI = 0.5 * math.pi


def lobachevsky_gl(x: float, m: int = 24) -> float:
    """L(x) = -int_0^x ln|2 sin t| dt with the log singularity split off.

    After reduction to r in [0, pi/2], ln(2 sin t) = ln 2 + ln t + ln(sin t / t);
    the first two integrate in closed form and the last is analytic on
    [0, pi/2] (nearest singularity at pi), so Gauss-Legendre converges fast.
    """
    r = math.remainder(x, math.pi)
    sign = -1.0 if r < 0.0 else 1.0
    r = abs(r)
    if r == 0.0:
        return 0.0
    t, w = _gauss_legendre(m)
    u = r * t
    smooth = r * float(np.dot(w, np.log(np.sin(u) / u)))
    return -sign * (r * math.log(2.0) + r * math.log(r) - r + smooth)


def _mp_quad(f, lo, hi):
    with mpmath.workdps(20):
        return float(mpmath.re(mpmath.quad(f, [lo, hi])))


def _two_ideal(b):
    sb = mpmath.sinh(b)
    return 0.25 * _mp_quad(
        lambda l: mpmath.log((sb + mpmath.sinh(l)) / (sb - mpmath.sinh(l))) / mpmath.cosh(l),
        0, b)


def _cone(b, beta):
    c2 = mpmath.cos(beta) ** 2
    return math.pi * _mp_quad(
        lambda y: mpmath.sinh(y) ** 2
        / (mpmath.cosh(y) * mpmath.sqrt(mpmath.cosh(y) ** 2 / c2 - 1)), 0, b)


def _lambert(w0, w1, w2, th):
    L = lobachevsky_gl
    v = math.fsum(L(w + th) - L(w - th) for w in (w0, w1, w2))
    return 0.25 * (v - L(2 * th) + 2 * L(HALF_PI - th))


def _mohanty(A, B, E):
    L, pi = lobachevsky_gl, math.pi
    return 2.0 * (L((pi + A + B + E) / 2) + L((pi - A - B + E) / 2)
                  + L((pi + A - B - E) / 2) + L((pi - A + B - E) / 2))


def shape_reference(shape: str, p: dict) -> float:
    """Volume at curvature 1 of ``shape`` with curvature-1 parameters ``p``."""
    if shape == "sphere":
        return solids.sphere_volume_by_quadrature(p["x"])
    if shape == "barrel":
        return solids.barrel_by_quadrature(p["p"], p["q"])
    if shape == "barrel-wedge":
        return 0.5 * p["p"] * p["T"]
    if shape == "equidistant":
        return solids.equidistant_body_by_quadrature(p["p"], p["q"])
    if shape == "sector":
        # horospherical brick of area p with infinite parallel segments
        return models.paracycle_brick_volume((p["p"], 1.0, math.inf))
    if shape == "cone":
        return _cone(p["b"], p["beta"])
    if shape == "asymptotic-cone":
        return math.pi * _mp_quad(mpmath.tanh, 0, p["b"])
    if shape in ("orthoscheme-edges", "bolyai-1"):
        e = (p["a"], p["b"], p["c"])
        if shape == "bolyai-1":
            return orthoscheme.volume_edges(e)
        return orthoscheme.volume_angles(orthoscheme.edges_to_angles(e))
    if shape == "orthoscheme-angles":
        ang = orthoscheme.OrthoschemeAngles(p["alpha"], p["beta"], p["gamma"])
        return orthoscheme.volume_edges(orthoscheme.angles_to_edges(ang))
    if shape == "orthoscheme-one-ideal":
        alpha = math.atan(math.tanh(p["c"]) / math.sinh(p["b"]))
        return orthoscheme.bolyai_asymptotic_1(alpha, p["c"])
    if shape == "bolyai-asym-1":
        b = math.asinh(math.tanh(p["c"]) / math.tan(p["alpha"]))
        return orthoscheme.volume_one_ideal(b, p["c"])
    if shape == "bolyai-asym-2":
        c = math.atanh(math.tan(p["amax"]) * math.sinh(p["b"]))
        return orthoscheme.volume_one_ideal(p["b"], c)
    if shape == "orthoscheme-two-ideal":
        return _two_ideal(p["b"])
    if shape == "ideal-tetra-b":
        return 4.0 * _two_ideal(p["b"])
    if shape == "milnor":
        return tetrahedra.murakami_yano((p["A"], p["B"], p["C"]) * 2)
    if shape == "derevnin-mednykh":
        return tetrahedra.murakami_yano(tuple(p[x] for x in "ABCDEF"))
    if shape == "murakami-yano":
        return tetrahedra.derevnin_mednykh(tuple(p[x] for x in "ABCDEF"))
    if shape == "lambert-cube":
        return _lambert(p["w0"], p["w1"], p["w2"], p["theta"])
    if shape == "mohanty":
        return _mohanty(p["A"], p["B"], p["E"])
    if shape == "triangle-2d":
        a, b = p["a"], p["b"]
        return HALF_PI - math.atan(math.tanh(a) / math.sinh(b)) - math.atan(
            math.tanh(b) / math.sinh(a))
    if shape == "ndim-orthoscheme":
        e = p["edges"]
        if len(e) == 3:
            return orthoscheme.volume_edges((e[2], e[0], e[1]))
        return orthoscheme_gl(e)
    raise ValueError(f"no reference for shape {shape!r}")


@lru_cache(maxsize=None)
def _gauss_legendre(m):
    t, w = np.polynomial.legendre.leggauss(m)
    return (t + 1.0) / 2.0, w / 2.0


def orthoscheme_gl(edges, m=28) -> float:
    """n-orthoscheme volume (curvature 1) by a tensor Gauss-Legendre rule.

    Same region and density as ``volume_ndim``: x_n on [0, a_n] outermost,
    then x_1 .. x_{n-1} with tanh(phi_{i+1}) = (tanh a_{i+1} / sinh a_i) sinh x_i,
    density prod cosh^i(x_i).  All bounds are smooth, so the rule converges
    geometrically.
    """
    n = len(edges)
    t, w = _gauss_legendre(m)
    ratios = [math.tanh(edges[0]) / math.sinh(edges[n - 1])]
    ratios += [math.tanh(edges[i + 1]) / math.sinh(edges[i]) for i in range(n - 2)]
    x = edges[n - 1] * t
    weight = edges[n - 1] * w
    for i in range(n - 1):
        hi = np.arctanh(ratios[i] * np.sinh(x))[..., None]
        x = hi * t
        weight = weight[..., None] * hi * w * np.cosh(x) ** (i + 1)
    return float(weight.sum())


def klein_box_gl(lo, hi, k, m=40) -> float:
    """Klein-chart volume of an axis box inside the ball, tensor Gauss-Legendre."""
    t, w = _gauss_legendre(m)
    axes = [(l + (h - l) * t) / k for l, h in zip(lo, hi)]
    wts = [(h - l) * w for l, h in zip(lo, hi)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    W = np.einsum("i,j,l->ijl", *wts)
    return float((W * (1.0 - X * X - Y * Y - Z * Z) ** -2.0).sum())


def chart_reference(system: str, p: dict) -> float:
    k = p["k"]
    if system == "paracycle":
        return models.paracycle_brick_volume(p["sides"], k)
    if system == "halfspace":
        (w1, w2), (h1, h2) = p["base"], p["height"]
        return w1 * w2 * k * (h1 ** -2 - h2 ** -2) / 2.0
    if system == "orthogonal":
        e = [v / k for v in p["edges"]]
        return k ** 3 * orthoscheme.volume_edges((e[2], e[0], e[1]))
    if system == "spherical":
        return solids.sphere_volume(p["x"], k)
    if system == "klein":
        return klein_box_gl(p["lo"], p["hi"], k)
    raise ValueError(f"unknown chart {system!r}")
