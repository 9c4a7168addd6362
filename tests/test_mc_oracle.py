"""Monte-Carlo oracle tests (light sample counts; the full 10^6-sample
agreement runs live in the acceptance suite)."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hypervol import mc_oracle as mc
from hypervol import models, solids
from hypervol.errors import DomainError
from hypervol.models import coordinate_volume, klein_distance
from hypervol.orthoscheme import volume_edges, volume_ideal_tetrahedron_b
from hypervol.shapes import mc_estimate


def test_determinism_bit_identical():
    r = mc.region_ball(1.0)
    e1 = mc.estimate(r, 100_000, seed=7)
    e2 = mc.estimate(r, 100_000, seed=7)
    assert e1.mean == e2.mean and e1.stderr == e2.stderr
    e3 = mc.estimate(r, 100_000, seed=8)
    assert e3.mean != e1.mean


def _serial_estimate(region, samples, seed):
    """The one-stream serial loop: chunks of _CHUNK drawn in turn from one
    Philox generator, sums accumulated in chunk order."""
    n, lo, hi = region.dim, np.array(region.lo), np.array(region.hi)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    s1 = s2 = 0.0
    for start in range(0, samples, mc._CHUNK):
        pts = lo + rng.random((min(mc._CHUNK, samples - start), n)) * (hi - lo)
        r2 = np.einsum("ij,ij->i", pts, pts)
        member = np.zeros(len(pts), bool)
        member[r2 <= mc._CAP ** 2] = region.contains(pts[r2 <= mc._CAP ** 2])
        w = np.where(member, (1.0 - r2) ** (-(n + 1) / 2.0) * float(np.prod(hi - lo)), 0.0)
        s1 += float(w.sum())
        s2 += float((w * w).sum())
    mean = s1 / samples
    var = max(0.0, s2 / samples - mean * mean) * (samples / (samples - 1))
    return mean, math.sqrt(var / samples)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(count)))


def test_chunk_is_whole_philox_steps():
    # Philox gives four doubles per counter step; a chunk of a multiple of 4
    # samples ends on a step, so the next chunk can start at its own offset
    assert mc._CHUNK % 4 == 0 and 100_003 % mc._CHUNK != 0


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("region", [
    mc.region_ball(1.0),
    mc.region_barrel(1.0, 0.5),
    mc.region_simplex(mc.orthoscheme_vertices(1.0, 0.8, 0.6)),
], ids=["ball", "barrel", "simplex"])
def test_estimate_is_the_serial_loop_at_any_cpu_count(region, cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    seen = {}  # thread -> membership calls

    def contains(P):
        seen[threading.get_ident()] = seen.get(threading.get_ident(), 0) + 1
        return region.contains(P)

    e = mc.estimate(mc.Region(region.lo, region.hi, contains), 100_003, seed=3)
    # four chunks: of W = min(cpus, 4) workers, worker w runs chunks w, w + W,
    # ...; the calling thread is worker 0 (chunks 0 and 3 at three CPUs), and
    # each other worker is a thread of its own
    assert threading.get_ident() in seen and (len(seen) > 1) == (cpus > 1)
    assert seen[threading.get_ident()] == len(range(0, 4, cpus))
    assert (e.mean, e.stderr) == _serial_estimate(region, 100_003, 3)


def test_more_threads_than_cores_with_frequent_switches(monkeypatch):
    # eight workers on the machine's cores, switching threads every
    # microsecond: a buffer or result slot shared between two workers would
    # change the sums
    _cpus(monkeypatch, 8)
    region = mc.region_slab((0.6, 0.4), 0.7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        e = mc.estimate(region, 300_007, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert (e.mean, e.stderr) == _serial_estimate(region, 300_007, 5)


def test_worker_exception_reaches_the_caller(monkeypatch):
    # membership fails on the worker threads only; the estimate runs on a
    # thread of its own so that a hang fails the join below
    _cpus(monkeypatch, 2)
    boom = RuntimeError("membership failed")
    caught = []

    def contains(P):
        if threading.current_thread() is not caller:
            raise boom
        return np.ones(len(P), bool)

    def call():
        try:
            mc.estimate(mc.Region((-0.1,) * 3, (0.1,) * 3, contains), 100_000, seed=1)
        except RuntimeError as exc:
            caught.append(exc)

    before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(caught) == 1 and caught[0] is boom
    assert threading.active_count() == before
    assert mc.estimate(mc.region_ball(1.0), 100_000, seed=1).mean > 0.0


def test_caller_exception_stops_the_other_worker(monkeypatch):
    # membership fails on the calling thread only, in chunk 0 of ten: the
    # other worker finishes the chunk it is in, then stops before its next
    _cpus(monkeypatch, 2)
    boom = RuntimeError("membership failed")
    caught = []
    failed = threading.Event()
    after = []

    def contains(P):
        if threading.current_thread() is caller:
            failed.set()
            raise boom
        if failed.is_set():
            after.append(len(P))
        return np.ones(len(P), bool)

    def call():
        try:
            mc.estimate(mc.Region((-0.1,) * 3, (0.1,) * 3, contains), 300_000, seed=1)
        except RuntimeError as exc:
            caught.append(exc)

    before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(caught) == 1 and caught[0] is boom
    assert len(after) <= 1
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("contains", [
    lambda P: np.ones(len(P)),                 # floats, not booleans
    lambda P: np.ones(len(P) - 1, bool),       # one short
    lambda P: np.ones((len(P), 1), bool),      # a column
    lambda P: True,                            # a scalar
], ids=["float", "short", "column", "scalar"])
def test_malformed_membership_is_a_domain_error(contains, cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    with pytest.raises(DomainError, match="one per point"):
        mc.estimate(mc.Region((-0.1,) * 3, (0.1,) * 3, contains), 100_000, seed=1)


def test_memory_does_not_grow_with_samples():
    region = mc.region_ball(1.0)
    peaks = []
    for samples in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            mc.estimate(region, samples, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_empty_region():
    r = mc.Region((-0.1,) * 3, (0.1,) * 3, lambda P: np.zeros(len(P), bool))
    e = mc.estimate(r, 10_000, seed=1)
    assert e.mean == 0.0 and e.stderr == 0.0


def test_stderr_scaling():
    r = mc.region_ball(1.0)
    e1 = mc.estimate(r, 100_000, seed=3)
    e2 = mc.estimate(r, 200_000, seed=3)
    ratio = e2.stderr / e1.stderr
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


def test_ball_agreement_small():
    r = mc.region_ball(1.0)
    e = mc.estimate(r, 100_000, seed=12)
    assert abs(e.mean - solids.sphere_volume(1.0)) <= 4.0 * e.stderr


def test_box_region_matches_coordinate_volume():
    lo, hi = (-0.4, -0.3, -0.2), (0.5, 0.4, 0.3)
    r = mc.Region(lo, hi, lambda P: np.ones(len(P), bool))
    e = mc.estimate(r, 200_000, seed=9)
    ref = coordinate_volume(
        "klein", [(0, lo[0], hi[0]), (1, lo[1], hi[1]), (2, lo[2], hi[2])], n=3
    ).value
    assert abs(e.mean - ref) <= 4.0 * e.stderr


def test_orthoscheme_vertices_distances():
    a, b, c = 0.8, 1.1, 0.6
    V = mc.orthoscheme_vertices(a, b, c)
    O = (0.0, 0.0, 0.0)
    assert V[0] == pytest.approx(O, abs=1e-15)
    assert klein_distance(V[0], V[1]) == pytest.approx(a, abs=1e-10)
    assert klein_distance(V[1], V[2]) == pytest.approx(b, abs=1e-10)
    assert klein_distance(V[2], V[3]) == pytest.approx(c, abs=1e-10)
    assert klein_distance(V[0], V[2]) == pytest.approx(
        math.acosh(math.cosh(a) * math.cosh(b)), abs=1e-10
    )
    assert klein_distance(V[0], V[3]) == pytest.approx(
        math.acosh(math.cosh(a) * math.cosh(b) * math.cosh(c)), abs=1e-10
    )


def test_simplex_membership_basics():
    V = mc.orthoscheme_vertices(1.0, 1.0, 1.0)
    r = mc.region_simplex(V)
    pts = np.array(
        [
            V[0],                                         # vertex: inside
            np.mean(V, axis=0),                           # centroid: inside
            (0.9, 0.9, 0.9),                              # far corner: outside
        ]
    )
    got = r.contains(pts)
    assert got.tolist() == [True, True, False]


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_simplex_membership_is_the_barycentric_reduction(dim):
    # the column-by-column test against the row reductions it replaced, on points
    # drawn from the box and from the simplex itself
    rng = np.random.default_rng(dim)
    V = rng.uniform(-0.5, 0.5, (dim + 1, dim))
    r = mc.region_simplex(V)
    M = (V[1:] - V[0]).T
    P = np.concatenate([rng.uniform(r.lo, r.hi, (20_000, dim)),
                        V[0] + rng.dirichlet(np.ones(dim + 1), 2_000)[:, 1:] @ M.T])
    lam = (P - V[0]) @ np.linalg.inv(M).T
    ref = (lam >= -1e-12).all(axis=1) & (lam.sum(axis=1) <= 1.0 + 1e-12)
    assert np.array_equal(r.contains(P), ref)
    assert 0 < ref.sum() < len(P)


def test_simplex_degenerate_rejected():
    V = [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.2, 0.0, 0.0), (0.3, 0.0, 0.0)]
    with pytest.raises(DomainError):
        mc.region_simplex(V)


@pytest.mark.parametrize("edges, k", [
    ((1.0, 1.0, 1.0), 1.0),
    ((0.5, 1.0, 1.5), 1.0),
    # tiny simplices: the degeneracy test is scale-free, |det| shrinking like
    # edge^3 as does the product of the edge-vector lengths it is compared with
    ((1e-5,) * 3, 1.0),
    ((1e-6,) * 3, 1.0),
    ((1e-5,) * 3, 2.0),
])
def test_orthoscheme_simplex_agreement_small(edges, k):
    e = mc_estimate("orthoscheme-edges", dict(zip("abc", edges)), k, 200_000, 21)
    ref = k ** 3 * volume_edges(tuple(x / k for x in edges))
    assert abs(e.mean - ref) <= 4.0 * e.stderr


def test_barrel_region_agreement_small():
    r = mc.region_barrel(1.0, 1.0)
    e = mc.estimate(r, 200_000, seed=4)
    assert abs(e.mean - solids.barrel(1.0, 1.0)) <= 4.0 * e.stderr


def test_cone_region_agreement_small():
    r = mc.region_cone(1.0, math.pi / 4)
    e = mc.estimate(r, 200_000, seed=4)
    assert abs(e.mean - solids.circular_cone(1.0, math.pi / 4)) <= 4.0 * e.stderr


def test_slab_region_agreement_small():
    w1, w2, q = 0.6, 0.4, 0.7
    area = 4.0 * w2 * math.sinh(w1)
    r = mc.region_slab((w1, w2), q)
    e = mc.estimate(r, 200_000, seed=15)
    assert abs(e.mean - solids.equidistant_body(area, q)) <= 4.0 * e.stderr


def test_ideal_tetrahedron_truncated_oracle(monkeypatch):
    # four ideal vertices: two boundary chords, orthogonal, at common
    # perpendicular distance b; volume equals the b-parameterized integral
    b = 1.0
    u = math.tanh(b / 2)
    w = math.sqrt(1 - u * u)
    V = [(-u, w, 0.0), (-u, -w, 0.0), (u, 0.0, w), (u, 0.0, -w)]
    ref = volume_ideal_tetrahedron_b(b)
    region = mc.region_simplex(V)
    monkeypatch.setattr(mc, "_CAP", 1 - 1e-6)
    e6 = mc.estimate(region, 1_000_000, seed=5)
    assert abs(e6.mean - ref) <= 4.0 * e6.stderr
    # truncation control: coarser cap moves the estimate by less than stderr
    monkeypatch.setattr(mc, "_CAP", 1 - 1e-5)
    e5 = mc.estimate(region, 1_000_000, seed=5)
    assert abs(e6.mean - e5.mean) <= e6.stderr


@pytest.mark.parametrize("cap", [0.5, 0.9])
def test_radial_cap_truncates_to_a_ball(cap, monkeypatch):
    # a region that accepts the whole box [-1, 1]^3 keeps only the points
    # within the cap: the ball of Euclidean radius cap, hyperbolic radius
    # atanh(cap).  Without the cap the weights are heavy-tailed (2.4e6 +- 1.8e6
    # at the default cap), so the error bar is bounded as well as the miss.
    whole = mc.Region((-1.0,) * 3, (1.0,) * 3, lambda P: np.ones(len(P), bool))
    monkeypatch.setattr(mc, "_CAP", cap)
    e = mc.estimate(whole, 200_000, seed=11)
    ref = solids.sphere_volume(math.atanh(cap))
    assert abs(e.mean - ref) <= 4.0 * e.stderr and e.stderr <= 0.02 * ref


def test_estimate_validation():
    r = mc.region_ball(1.0)
    with pytest.raises(DomainError):
        mc.estimate(r, 9_999, seed=1)
    with pytest.raises(DomainError):
        mc.estimate(r, 10_000.9, seed=1)
    with pytest.raises(DomainError):
        mc.Region(lo=(-0.1,) * 3, hi=(0.1,) * 2, contains=lambda P: np.ones(len(P), bool))
    with pytest.raises(DomainError):
        mc.region_ball(-1.0)
    with pytest.raises(DomainError):
        mc.region_cone(1.0, 2.0)


def test_region_curvature_respected():
    # ball with k=2: volume scales like k^3 at fixed hyperbolic radius ratio
    e = mc_estimate("sphere", {"x": 1.0}, 2.0, 200_000, 19)
    assert abs(e.mean - solids.sphere_volume(1.0, k=2.0)) <= 4.0 * e.stderr
    with pytest.raises(DomainError):
        mc_estimate("sphere", {"x": 1.0}, math.nan, 10_000, 0)


def test_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError):
        mc.estimate(mc.region_ball(1.0), 10_000, seed=-1)


_MARGIN = 1e-4  # reference verdicts this close to an edge are skipped


def _seeded_points(region, count, seed):
    """Points in the region's box widened by a fifth on each side, inside the cap."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(region.lo), np.array(region.hi)
    pad = 0.2 * (hi - lo)
    P = lo - pad + rng.random((4 * count, region.dim)) * (hi - lo + 2.0 * pad)
    P = P[np.einsum("ij,ij->i", P, P) <= mc._CAP ** 2]
    assert len(P) >= count
    return P[:count]


def _axis_foot(X):
    """(t, d): the nearest point (tanh t, 0, 0), |t| <= 3, of the X1 axis and
    its klein_distance d, by grids of step 0.1, 0.01 and 0.001, each around
    the minimum of the one before (the distance is convex along a geodesic).
    A foot beyond 3 lies outside every segment tested here."""

    def dist(t):
        return klein_distance(X, (math.tanh(t), 0.0, 0.0))

    t, half = 0.0, 3.0
    for step in (0.1, 0.01, 0.001):
        grid = [t - half + i * step for i in range(int(round(2 * half / step)) + 1)]
        t = min(grid, key=dist)
        half = step
    return t, dist(t)


@pytest.mark.parametrize("p, q, seed", [(0.8, 0.45, 1), (0.5, 0.3, 2), (1.4, 0.8, 3)])
def test_barrel_membership_matches_scalar_distances(p, q, seed):
    r = mc.region_barrel(p, q)
    P = _seeded_points(r, 700, seed)
    got = r.contains(P)
    checked = members = 0
    for X, g in zip(P, got):
        t, d = _axis_foot(tuple(X))
        if min(abs(d - q), abs(t), abs(t - p)) < _MARGIN:
            continue
        want = 0.0 <= t <= p and d <= q
        assert bool(g) == want, (tuple(X), t, d)
        checked += 1
        members += want
    assert checked >= 0.95 * len(P)
    assert 0.05 * checked <= members <= 0.95 * checked


@pytest.mark.parametrize("w1, w2, q, seed", [
    (0.6, 0.5, 0.7, 4), (0.3, 0.375, 0.2, 5), (1.2, 0.75, 1.1, 6),
])
def test_slab_membership_matches_scalar_charts(w1, w2, q, seed):
    r = mc.region_slab((w1, w2), q)
    P = _seeded_points(r, 700, seed)
    got = r.contains(P)
    checked = members = 0
    for X, g in zip(P, got):
        x1, x2 = models.transform((X[0], X[1]), "klein", "orthogonal")
        d = klein_distance(tuple(X), (X[0], X[1], 0.0))
        if min(abs(d - q), abs(abs(x1) - w1), abs(abs(x2) - w2)) < _MARGIN:
            continue
        want = X[2] >= 0.0 and abs(x1) <= w1 and abs(x2) <= w2 and d <= q
        assert bool(g) == want, (tuple(X), x1, x2, d)
        checked += 1
        members += want
    assert checked >= 0.95 * len(P)
    assert 0.05 * checked <= members <= 0.95 * checked
