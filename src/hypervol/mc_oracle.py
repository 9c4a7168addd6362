"""Monte-Carlo volume oracle in the projective ball model.

Points are sampled uniformly in a Euclidean axis-aligned box, weighted by
the ball-model density (1 - |X|^2)^{-(n+1)/2} inside the region and by 0
outside.  Because geodesics and hyperplanes of the model are Euclidean
lines and planes, membership predicates for the classical solids reduce to
elementary Euclidean tests in closed form.  The foot of the perpendicular
from P to a coordinate subspace through the origin is P with its other
coordinates set to zero, which gives the barrel's distance to its axis and
the slab's distance to its base plane by one formula (``_cosh2_to_span``).

Randomness comes from a counter-based Philox stream, the substream spawned
from (seed, 0), so an estimate is a pure function of (seed, samples)
whatever the number of CPUs.  The stream is cut into chunks of ``_CHUNK``
samples; chunk j starts at sample j * _CHUNK, which a fresh generator
reaches by advancing its counter, so chunks can be drawn in any order.
Each call starts one worker per CPU the process may use (numpy releases
the GIL in the Philox fill and in its ufunc loops), at most one per chunk;
the calling thread is worker 0.  Of W workers, worker w runs chunks w,
w + W, w + 2W, ... in buffers of its own and stores each chunk's
(sum w, sum w^2) in that chunk's slot.  The caller adds the pairs in chunk
order, which is the order of a serial loop over the stream, so the sums
are the same bit for bit on any number of CPUs; and memory does not grow
with ``samples``.  A chunk that raises stops every worker before its next
chunk, and the caller re-raises the exception of the lowest such chunk.
Every region is built at curvature 1 (``shapes.mc_estimate`` scales an
estimate to curvature k as ``compute_volume`` scales a volume) and is
radially truncated at the module constant ``_CAP`` = 1 - 1e-9; the
truncation is the only concession made to bodies that conceptually touch
the ideal boundary.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import models
from .errors import SINH2_MAX, DomainError, angle, number, positive, sequence

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
]

_CAP = 1.0 - 1e-9
_CHUNK = 1 << 15  # a multiple of 4, so every chunk starts on a Philox counter step


@dataclass(frozen=True)
class Region:
    """Sampling region at curvature 1: vectorized membership plus a bounding box.

    ``contains`` maps an (N, dim) array of ball-model points to a boolean
    mask; it is only ever called on points with |X| <= _CAP.  The box
    need not lie inside the ball (its corners may poke out); points outside
    the ball are simply non-members.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    contains: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    @property
    def dim(self) -> int:
        return len(self.lo)

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, tuple(
                number("box corner", v) for v in sequence(name, getattr(self, name))))
        models._check_dim(self.dim)
        if len(self.hi) != self.dim:
            raise DomainError("box corners lo and hi must have the same number of coordinates")
        if not all(-math.inf < l < h < math.inf for l, h in zip(self.lo, self.hi)):
            raise DomainError("bounding box must be finite with positive extent on every axis")


class MCEstimate(NamedTuple):
    mean: float
    stderr: float
    samples: int
    seed: int


def estimate(region: Region, samples: int, seed: int) -> MCEstimate:
    """Unbiased Monte-Carlo estimate of the region's hyperbolic volume at
    curvature 1.  Deterministic for fixed (seed, samples), whatever the
    number of CPUs; DomainError for a negative seed or a ``contains`` that
    does not return one boolean per point.
    """
    seed = number("seed", seed, int)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    samples = number("samples", samples, int)
    if samples < 10_000:
        raise DomainError(f"at least 10^4 samples required, got {samples}")
    n = region.dim
    lo = np.asarray(region.lo, float)
    span = np.asarray(region.hi, float) - lo
    box_vol = float(np.prod(span))
    cap2 = _CAP ** 2
    expo = -(n + 1) / 2.0
    stream = np.random.SeedSequence(entropy=seed, spawn_key=(0,))

    def chunk(j: int, buf: tuple) -> tuple[float, float]:
        """(sum w, sum w^2) over samples j*_CHUNK onwards, in the worker's buffers."""
        start = j * _CHUNK
        m = min(_CHUNK, samples - start)
        pts, r2, w, cand = (b[:m] for b in buf)
        bits = np.random.Philox(stream)
        bits.advance(start * n // 4)  # four doubles per Philox counter step
        np.random.Generator(bits).random(out=pts)
        for i in range(n):  # by column: broadcasting over rows of n is slower
            col = pts[:, i]
            col *= span[i]
            col += lo[i]
        np.einsum("ij,ij->i", pts, pts, out=r2)
        idx = np.flatnonzero(r2 <= cap2)
        w.fill(0.0)
        if idx.size:
            # when every point is a candidate, the points need no copy
            cands = pts if idx.size == m else pts.take(idx, axis=0, out=cand[:idx.size])
            mask = np.asarray(region.contains(cands))
            if mask.dtype != bool or mask.shape != idx.shape:
                raise DomainError(
                    f"region membership must return {idx.size} booleans, one per point, "
                    f"got dtype {mask.dtype} and shape {mask.shape}")
            hit = idx.compress(mask)
            w[hit] = (1.0 - r2.take(hit)) ** expo * box_vol
        return float(w.sum()), float((w * w).sum())

    chunks = -(-samples // _CHUNK)
    workers = min(len(os.sched_getaffinity(0)), chunks)
    sums: list = [None] * chunks  # chunk j's (sum w, sum w^2), or the exception it raised
    failed = threading.Event()

    def work(first: int) -> None:
        """Chunks first, first + workers, ... in buffers of this worker's own;
        stops before its next chunk once any worker's chunk has raised."""
        # the buffers are reused from chunk to chunk: fresh arrays of this size
        # are mapped and unmapped by malloc each time, and the page faults cost
        # about a quarter of the run
        size = min(_CHUNK, samples)
        buf = (np.empty((size, n)), np.empty(size), np.empty(size), np.empty((size, n)))
        for j in range(first, chunks, workers):
            if failed.is_set():
                return
            try:
                sums[j] = chunk(j, buf)
            except BaseException as exc:  # re-raised by the caller, lowest chunk first
                sums[j] = exc
                failed.set()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    for r in sums:
        if isinstance(r, BaseException):
            raise r
    s1 = s2 = 0.0
    for a, b in sums:
        s1 += a
        s2 += b
    mean = s1 / samples
    var = max(0.0, s2 / samples - mean * mean) * (samples / (samples - 1))
    return MCEstimate(mean, math.sqrt(var / samples), samples, seed)


# ---------------------------------------------------------------------------
# region builders
# ---------------------------------------------------------------------------

def orthoscheme_vertices(a: float, b: float, c: float):
    """Ball-model vertices of the orthoscheme with edge path (a, b, c) at curvature 1.

    In orthogonal coordinates the vertices are (0,0,0), (0,0,a), (b,0,a),
    (b,c,a); consecutive distances are a, b, c and the diagonals satisfy
    the hyperbolic Pythagorean products.  Returns four coordinate tuples.
    """
    a, b, c = (positive(f"edge {name}", v) for name, v in (("a", a), ("b", b), ("c", c)))
    pts = [(0.0, 0.0, 0.0), (0.0, 0.0, a), (b, 0.0, a), (b, c, a)]
    return [models.transform(p, "orthogonal", "klein") for p in pts]


def region_simplex(vertices: Sequence) -> Region:
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
        # column by column: a reduction along the short axis costs 2.5x as much
        lam = ((P - v0) @ Minv.T).T
        inside = lam[0] >= -1e-12
        total = lam[0]
        for col in lam[1:]:
            inside &= col >= -1e-12
            total = total + col
        return inside & (total <= 1.0 + 1e-12)

    return Region(
        lo=tuple(V.min(axis=0)),
        hi=tuple(V.max(axis=0)),
        contains=contains,
        name="simplex",
    )


def region_ball(x: float) -> Region:
    """Ball of hyperbolic radius x about the origin (Euclidean radius tanh x)."""
    R = math.tanh(positive("radius x", x))

    def contains(P: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", P, P) <= R * R

    return Region(lo=(-R,) * 3, hi=(R,) * 3, contains=contains, name="ball")


def _cosh2_to_span(P: np.ndarray, j: int) -> np.ndarray:
    """cosh^2 d from points P to the span of the first j axes.

    The foot of the perpendicular is P with coordinates j.. set to zero, so
    cosh^2 d = (1 - sum_{i<j} P_i^2) / (1 - |P|^2).  Callers pass points
    with |P| <= _CAP < 1, which keeps the denominator positive.
    """
    near = np.einsum("ij,ij->i", P[:, :j], P[:, :j])
    return (1.0 - near) / (1.0 - np.einsum("ij,ij->i", P, P))


def region_barrel(p: float, q: float) -> Region:
    """Tube of radius q around the axis segment from the origin to length p.

    The perpendicular from P to the X1 axis has its foot at (X1, 0, 0), so
    membership is 0 <= X1 <= tanh p, which keeps the foot on the segment
    and excludes the spherical end caps (the region then matches the
    closed-form tube volume), and cosh^2 of the distance to the axis at most
    cosh^2 q.
    """
    p, q = positive("p", p), positive("q", q, SINH2_MAX)
    L = math.tanh(p)
    cq2 = math.cosh(q) ** 2

    def contains(P: np.ndarray) -> np.ndarray:
        return (P[:, 0] >= 0.0) & (P[:, 0] <= L) & (_cosh2_to_span(P, 1) <= cq2)

    tq = math.tanh(q)
    return Region(
        lo=(-tq, -tq, -tq),
        hi=(math.tanh(p + q), tq, tq),
        contains=contains,
        name="barrel",
    )


def region_cone(b: float, beta: float) -> Region:
    """Solid cone: apex at the origin (so the aperture test is the Euclidean
    angle), base plane perpendicular to the axis at height h with
    sinh h = tanh b / tan(beta)."""
    b = positive("base radius b", b)
    beta = angle("half-angle beta", beta, 0.5 * math.pi)
    axis_hi = math.tanh(math.asinh(math.tanh(b) / math.tan(beta)))
    tb = math.tan(beta)

    def contains(P: np.ndarray) -> np.ndarray:
        perp = np.sqrt(P[:, 1] ** 2 + P[:, 2] ** 2)
        return (P[:, 0] >= 0.0) & (P[:, 0] <= axis_hi) & (perp <= P[:, 0] * tb)

    r_max = axis_hi * tb
    return Region(
        lo=(0.0, -r_max, -r_max),
        hi=(axis_hi, r_max, r_max),
        contains=contains,
        name="cone",
    )


def region_slab(half_widths: tuple[float, float], q: float) -> Region:
    """One-sided equidistant body over a planar base box.

    The base is the orthogonal-coordinate box |x1| <= w1, |x2| <= w2 in the
    plane X3 = 0, of area 4 w2 sinh w1.  A point (X1, X2) of that plane has
    orthogonal coordinates x2 = atanh X2, x1 = atanh(X1 / sqrt(1 - X2^2)),
    and atanh is increasing, so the box is |X2| <= tanh w2,
    |X1| <= tanh(w1) sqrt(1 - X2^2).  Membership requires X3 >= 0, the
    perpendicular foot (X1, X2, 0) inside the base, and cosh^2 of the
    distance to the plane at most cosh^2 q.
    """
    w1, w2 = sequence("half_widths", half_widths, (2,))
    t1, t2 = math.tanh(positive("w1", w1)), math.tanh(positive("w2", w2))
    q = positive("q", q, SINH2_MAX)
    cq2 = math.cosh(q) ** 2

    def contains(P: np.ndarray) -> np.ndarray:
        X1, X2 = P[:, 0], P[:, 1]
        in_base = (np.abs(X2) <= t2) & (np.abs(X1) <= t1 * np.sqrt(1.0 - X2 * X2))
        return (P[:, 2] >= 0.0) & in_base & (_cosh2_to_span(P, 2) <= cq2)

    return Region(
        lo=(-t1, -t2, 0.0),
        hi=(t1, t2, math.tanh(q)),
        contains=contains,
        name="slab",
    )
