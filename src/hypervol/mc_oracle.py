"""Monte-Carlo volume oracle in the projective ball model.

Points are sampled uniformly in a Euclidean axis-aligned box, weighted by
the ball-model density (1 - |X/k|^2)^{-(n+1)/2} inside the region and by 0
outside.  Because geodesics and hyperplanes of the model are Euclidean
lines and planes, membership predicates for the classical solids reduce to
elementary Euclidean tests in closed form.  The foot of the perpendicular
from P to a coordinate subspace through the origin is P with its other
coordinates set to zero, which gives the barrel's distance to its axis and
the slab's distance to its base plane by one formula (``_cosh2_to_span``).

Randomness comes from a counter-based Philox stream, the substream spawned
from (seed, 0), so an estimate is a pure function of (seed, samples).
Every region is radially truncated at the module constant ``_CAP`` =
1 - 1e-9, in units of k; the truncation is the only concession made to
bodies that conceptually touch the ideal boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import models
from .errors import (SINH2_MAX, DomainError, angle, in_float_range, number, positive,
                     sequence)

__all__ = [
    "Region",
    "MCEstimate",
    "estimate",
    "orthoscheme_vertices",
    "region_simplex",
    "region_ball",
    "region_barrel",
    "region_cone",
    "region_slab",
    "slab_base_area",
]

_CAP = 1.0 - 1e-9
_CHUNK = 1 << 17


@dataclass(frozen=True)
class Region:
    """Sampling region: vectorized membership plus a bounding box.

    ``contains`` maps an (N, dim) array of ball-model points to a boolean
    mask; it is only ever called on points with |X/k| <= _CAP.  The box
    need not lie inside the ball (its corners may poke out); points outside
    the ball are simply non-members.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    contains: Callable[[np.ndarray], np.ndarray]
    k: float = 1.0
    name: str = ""

    @property
    def dim(self) -> int:
        return len(self.lo)

    def __post_init__(self):
        for name, v in (("lo", tuple(number("box corner", v) for v in sequence("lo", self.lo))),
                        ("hi", tuple(number("box corner", v) for v in sequence("hi", self.hi))),
                        ("k", positive("k", self.k))):
            object.__setattr__(self, name, v)
        models._check_dim(self.dim)
        if len(self.hi) != self.dim:
            raise DomainError("box corners lo and hi must have the same number of coordinates")
        if not all(-math.inf < l < h < math.inf for l, h in zip(self.lo, self.hi)):
            raise DomainError("bounding box must be finite with positive extent on every axis")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def estimate(region: Region, samples: int, seed: int) -> MCEstimate:
    """Unbiased Monte-Carlo estimate of the region's hyperbolic volume.

    Deterministic for fixed (seed, samples); the density uses the curvature
    the region was built with.  DomainError for a negative seed.
    """
    seed = number("seed", seed, int)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    samples = number("samples", samples, int)
    if samples < 10_000:
        raise DomainError(f"at least 10^4 samples required, got {samples}")
    k = region.k
    n = region.dim
    lo = np.asarray(region.lo, float)
    hi = np.asarray(region.hi, float)
    box_vol = float(np.prod(hi - lo))
    cap2 = _CAP ** 2
    expo = -(n + 1) / 2.0

    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    s1 = 0.0
    s2 = 0.0
    left = samples
    while left > 0:
        m = min(left, _CHUNK)
        left -= m
        pts = lo + rng.random((m, n)) * (hi - lo)
        r2 = np.einsum("ij,ij->i", pts, pts) / (k * k)
        cand = r2 <= cap2
        if cand.any():
            member = np.zeros(m, dtype=bool)
            member[cand] = np.asarray(region.contains(pts[cand]), dtype=bool)
            w = np.where(member, (1.0 - r2) ** expo * box_vol, 0.0)
        else:
            w = np.zeros(m)
        s1 += float(w.sum())
        s2 += float((w * w).sum())
    mean = s1 / samples
    var = max(0.0, s2 / samples - mean * mean)
    if samples > 1:
        var *= samples / (samples - 1)
    return MCEstimate(mean, math.sqrt(var / samples), samples, seed)


# ---------------------------------------------------------------------------
# region builders
# ---------------------------------------------------------------------------

def orthoscheme_vertices(a: float, b: float, c: float, k: float = 1.0):
    """Ball-model vertices of the orthoscheme with edge path (a, b, c).

    In orthogonal coordinates the vertices are (0,0,0), (0,0,a), (b,0,a),
    (b,c,a); consecutive distances are a, b, c and the diagonals satisfy
    the hyperbolic Pythagorean products.  Returns four coordinate tuples.
    """
    a, b, c = (positive(f"edge {name}", v) for name, v in (("a", a), ("b", b), ("c", c)))
    pts = [(0.0, 0.0, 0.0), (0.0, 0.0, a), (b, 0.0, a), (b, c, a)]
    return [models.transform(p, "orthogonal", "klein", k) for p in pts]


def region_simplex(vertices: Sequence, k: float = 1.0) -> Region:
    """Geodesic simplex spanned by dim+1 ball-model vertices.

    Geodesic convexity makes it the Euclidean simplex of the same vertices,
    so membership is a barycentric-coordinate test (boundary inclusive).
    DomainError when |det M| of the edge vectors M is at most 1e-12 times the
    product of their lengths, a test that does not depend on the size.
    """
    V = [models._coords(v) for v in sequence("vertices", vertices)]
    m, n = len(V), len(V[0]) if V else 0
    if m != n + 1 or any(len(v) != n for v in V):
        raise DomainError(f"a simplex needs n + 1 vertices of n coordinates, got {V!r}")
    V = np.array(V)
    M = (V[1:] - V[0]).T
    if abs(np.linalg.det(M)) <= 1e-12 * np.prod(np.linalg.norm(M, axis=0)):
        raise DomainError("degenerate simplex (affinely dependent vertices)")
    Minv = np.linalg.inv(M)
    v0 = V[0]

    def contains(P: np.ndarray) -> np.ndarray:
        lam = (P - v0) @ Minv.T
        return (lam >= -1e-12).all(axis=1) & (lam.sum(axis=1) <= 1.0 + 1e-12)

    return Region(
        lo=tuple(V.min(axis=0)),
        hi=tuple(V.max(axis=0)),
        contains=contains,
        k=k,
        name="simplex",
    )


def region_ball(x: float, k: float = 1.0) -> Region:
    """Ball of hyperbolic radius x about the origin (Euclidean radius k tanh(x/k))."""
    x, k = positive("radius x", x), positive("k", k)
    R = k * math.tanh(x / k)

    def contains(P: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", P, P) <= R * R

    return Region(lo=(-R,) * 3, hi=(R,) * 3, contains=contains, k=k, name="ball")


def _cosh2_to_span(P: np.ndarray, j: int, k: float) -> np.ndarray:
    """cosh^2(d/k) from points P to the span of the first j axes.

    The foot of the perpendicular is P with coordinates j.. set to zero, so
    cosh^2(d/k) = (1 - sum_{i<j} (P_i/k)^2) / (1 - |P/k|^2).  Callers pass
    points with |P/k| <= _CAP < 1, which keeps the denominator positive.
    """
    X = P / k
    near = np.einsum("ij,ij->i", X[:, :j], X[:, :j])
    return (1.0 - near) / (1.0 - np.einsum("ij,ij->i", X, X))


def region_barrel(p: float, q: float, k: float = 1.0) -> Region:
    """Tube of radius q around the axis segment from the origin to length p.

    The perpendicular from P to the X1 axis has its foot at (X1, 0, 0), so
    membership is 0 <= X1 <= k tanh(p/k), which keeps the foot on the segment
    and excludes the spherical end caps (the region then matches the
    closed-form tube volume), and cosh^2 of the distance to the axis at most
    cosh^2(q/k).
    """
    k = positive("k", k)
    p, q = positive("p", p), positive("q", q, k * SINH2_MAX)
    L = k * math.tanh(p / k)
    cq2 = math.cosh(q / k) ** 2

    def contains(P: np.ndarray) -> np.ndarray:
        return (P[:, 0] >= 0.0) & (P[:, 0] <= L) & (_cosh2_to_span(P, 1, k) <= cq2)

    tq = k * math.tanh(q / k)
    hi0 = k * math.tanh((p + q) / k)
    return Region(
        lo=(-tq, -tq, -tq),
        hi=(hi0, tq, tq),
        contains=contains,
        k=k,
        name="barrel",
    )


def region_cone(b: float, beta: float, k: float = 1.0) -> Region:
    """Solid cone: apex at the origin (so the aperture test is the Euclidean
    angle), base plane perpendicular to the axis at height h with
    sinh(h/k) = tanh(b/k) / tan(beta)."""
    b, k = positive("base radius b", b), positive("k", k)
    beta = angle("half-angle beta", beta, 0.5 * math.pi)
    h = k * math.asinh(math.tanh(b / k) / math.tan(beta))
    axis_hi = k * math.tanh(h / k)
    tb = math.tan(beta)

    def contains(P: np.ndarray) -> np.ndarray:
        perp = np.sqrt(P[:, 1] ** 2 + P[:, 2] ** 2)
        return (P[:, 0] >= 0.0) & (P[:, 0] <= axis_hi) & (perp <= P[:, 0] * tb)

    r_max = axis_hi * tb
    return Region(
        lo=(0.0, -r_max, -r_max),
        hi=(axis_hi, r_max, r_max),
        contains=contains,
        k=k,
        name="cone",
    )


@in_float_range
def slab_base_area(w1: float, w2: float, k: float = 1.0) -> float:
    """Area of the slab base: the orthogonal-coordinate box |x1| <= w1,
    |x2| <= w2 in a plane, with area 4 k w2 sinh(w1/k)."""
    w1, w2, k = positive("w1", w1), positive("w2", w2), positive("k", k)
    return 4.0 * k * w2 * math.sinh(w1 / k)


def region_slab(half_widths: tuple[float, float], q: float, k: float = 1.0) -> Region:
    """One-sided equidistant body over a planar base box.

    The base is the orthogonal-coordinate box |x1| <= w1, |x2| <= w2 in the
    plane X3 = 0.  In units of k, a point (X1, X2) of that plane has
    orthogonal coordinates x2 = atanh X2, x1 = atanh(X1 / sqrt(1 - X2^2)),
    and atanh is increasing, so the box is |X2| <= tanh(w2/k),
    |X1| <= tanh(w1/k) sqrt(1 - X2^2).  Membership requires X3 >= 0, the
    perpendicular foot (X1, X2, 0) inside the base, and cosh^2 of the
    distance to the plane at most cosh^2(q/k).
    """
    w1, w2 = sequence("half_widths", half_widths, (2,))
    w1, w2, k = positive("w1", w1), positive("w2", w2), positive("k", k)
    q = positive("q", q, k * SINH2_MAX)
    t1 = math.tanh(w1 / k)
    t2 = math.tanh(w2 / k)
    cq2 = math.cosh(q / k) ** 2

    def contains(P: np.ndarray) -> np.ndarray:
        X1, X2 = P[:, 0] / k, P[:, 1] / k
        in_base = (np.abs(X2) <= t2) & (np.abs(X1) <= t1 * np.sqrt(1.0 - X2 * X2))
        return (P[:, 2] >= 0.0) & in_base & (_cosh2_to_span(P, 2, k) <= cq2)

    b1 = k * t1
    b2 = k * t2
    return Region(
        lo=(-b1, -b2, 0.0),
        hi=(b1, b2, k * math.tanh(q / k)),
        contains=contains,
        k=k,
        name="slab",
    )
