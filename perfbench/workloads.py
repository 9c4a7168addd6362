"""The four benchmark workloads: seeded inputs, timed rounds and checks.

A workload runs in rounds.  Round ``i`` of seed ``s`` is a pure function of
(workload, s, i), so a traced pass can replay exactly the rounds an
untraced pass ran.  Only the calls into hypervol are timed; input
generation, output parsing and the correctness checks run outside the
timed region (and with tracing paused).

Parameters are drawn from continuous ranges (stated at curvature 1 and
rescaled by the job's k), so no input repeats.  Job shares are fixed per
round; ``mix()`` reports them.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import refs
import tracer
from clock import Clock

LHS_BLOCK = 8           # rounds per Latin-hypercube block
REL_TOL = 1e-8          # allowed relative disagreement with the reference
ABS_TOL = 1e-12         # ... plus this much absolute, times k**dim
KS = (0.5, 1.0, 2.0)    # curvature constants used by batch-1d and cli-cold


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _lhs(*key, i: int, dims: int) -> list[float]:
    """Point of round ``i`` in [0, 1)^dims, stratified across rounds.

    Rounds come in blocks of LHS_BLOCK; within a block each coordinate takes
    each of LHS_BLOCK equal strata exactly once (a Latin hypercube), jittered
    uniformly inside the stratum.  A run's cost mix then does not hinge on a
    few lucky draws, and no value repeats."""
    block, j = divmod(i, LHS_BLOCK)
    r = _rng(*key, "lhs", block)
    strata = []
    for _ in range(dims):
        perm = list(range(LHS_BLOCK))
        r.shuffle(perm)
        strata.append(perm[j])
    jitter = _rng(*key, "jitter", i)
    return [(s + jitter.random()) / LHS_BLOCK for s in strata]


def _spread(r, m: int) -> list[float]:
    """m values in [0, 1), one in each m-th of the range, in random order.

    Jobs of one kind in a round share the range this way, so the round's
    total cost varies little from round to round."""
    perm = list(range(m))
    r.shuffle(perm)
    return [(p + r.random()) / m for p in perm]


def _u(u, lo, hi):
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# parameter generators, at curvature 1; kinds follow hypervol.cli.SHAPES
# ---------------------------------------------------------------------------

def _orthoscheme_angles(r):
    """Dihedral angles of the orthoscheme with edges in [0.2, 2], by the
    textbook relations (computed here, not by hypervol)."""
    a, b, c = (r.uniform(0.2, 2.0) for _ in range(3))
    sb = math.sinh(b)
    tan_d = math.tanh(a) * math.tanh(c) / sb
    z = math.acosh(math.cosh(a) * math.cosh(b) * math.cosh(c))
    return {"alpha": math.atan(math.tanh(c) / sb),
            "beta": math.atan(math.tanh(z) / tan_d),
            "gamma": math.atan(math.tanh(a) / sb)}


def _ideal_triple(r):
    """A, B, C >= 0.2 with A + B + C = pi, uniform on that simplex."""
    u, v = sorted((r.random(), r.random()))
    s = math.pi - 0.6
    A, B = 0.2 + s * u, 0.2 + s * (v - u)
    return A, B, math.pi - A - B


def _gram_realizable(t) -> bool:
    """Compact hyperbolic tetrahedron test on the Gram matrix (numpy only).

    Faces 1..4 with A = (1,2), B = (1,3), C = (2,3), D = (3,4), E = (2,4),
    F = (1,4): every vertex link is spherical and the Gram matrix has
    exactly one negative eigenvalue."""
    import numpy as np
    A, B, C, D, E, F = t
    G = np.eye(4)
    for (i, j), ang in (((0, 1), A), ((0, 2), B), ((1, 2), C), ((2, 3), D),
                        ((1, 3), E), ((0, 3), F)):
        G[i, j] = G[j, i] = -math.cos(ang)
    if (np.linalg.eigvalsh(G) < 0).sum() != 1:
        return False
    return all(np.linalg.eigvalsh(np.delete(np.delete(G, v, 0), v, 1)).min() > 0
               for v in range(4))


def _finite_tetra(r):
    """Six dihedral angles of a compact tetrahedron near an ideal one."""
    while True:  # rejection uses only the Gram test above, never hypervol
        A, B, C = _ideal_triple(r)
        t = tuple(x + r.uniform(0.02, 0.12) for x in (A, B, C, A, B, C))
        if max(t) < math.pi and _gram_realizable(t):
            return dict(zip("ABCDEF", t))


def _bolyai_asym_2(r):
    b = r.uniform(0.2, 1.5)
    return {"amax": r.uniform(0.05, 0.95 * math.acos(math.tanh(b))), "b": b}


# kind -> (shape, jobs per batch-1d round, method label, generator)
BATCH_KINDS = {
    "sphere": ("sphere", 10, "closed-form", lambda r: {"x": r.uniform(0.1, 3.0)}),
    "barrel": ("barrel", 10, "closed-form",
               lambda r: {"p": r.uniform(0.1, 3.0), "q": r.uniform(0.1, 2.0)}),
    "barrel-wedge": ("barrel-wedge", 10, "closed-form",
                     lambda r: {"p": r.uniform(0.1, 3.0), "T": r.uniform(0.1, 3.0)}),
    "equidistant": ("equidistant", 10, "closed-form",
                    lambda r: {"p": r.uniform(0.1, 3.0), "q": r.uniform(0.1, 2.0)}),
    "sector": ("sector", 10, "closed-form", lambda r: {"p": r.uniform(0.1, 3.0)}),
    "asymptotic-cone": ("asymptotic-cone", 10, "closed-form",
                        lambda r: {"b": r.uniform(0.1, 3.0)}),
    "orthoscheme-angles": ("orthoscheme-angles", 10, "lobachevsky-series",
                           _orthoscheme_angles),
    "milnor": ("milnor", 10, "lobachevsky-series",
               lambda r: dict(zip("ABC", _ideal_triple(r)))),
    "lambert-cube": ("lambert-cube", 10, "lobachevsky-series",
                     lambda r: {"w0": r.uniform(0.1, 1.47), "w1": r.uniform(0.1, 1.47),
                                "w2": r.uniform(0.1, 1.47),
                                "theta": r.uniform(math.pi / 4, 1.5)}),
    "mohanty": ("mohanty", 10, "lobachevsky-series",
                lambda r: {x: r.uniform(0.3, 2.8) for x in "ABE"}),
    "murakami-yano": ("murakami-yano", 10, "clausen-series", _finite_tetra),
    "cone": ("cone", 8, "quadrature",
             lambda r: {"b": r.uniform(0.1, 2.0), "beta": r.uniform(0.1, 1.4)}),
    "orthoscheme-edges": ("orthoscheme-edges", 8, "quadrature",
                          lambda r: {x: r.uniform(0.2, 2.0) for x in "abc"}),
    "orthoscheme-one-ideal": ("orthoscheme-one-ideal", 8, "quadrature",
                              lambda r: {x: r.uniform(0.2, 2.0) for x in "bc"}),
    "bolyai-1": ("bolyai-1", 8, "quadrature",
                 lambda r: {x: r.uniform(0.2, 2.0) for x in "abc"}),
    "bolyai-asym-1": ("bolyai-asym-1", 8, "quadrature",
                      lambda r: {"alpha": r.uniform(0.1, 1.4), "c": r.uniform(0.2, 2.0)}),
    "bolyai-asym-2": ("bolyai-asym-2", 8, "quadrature", _bolyai_asym_2),
    "derevnin-mednykh": ("derevnin-mednykh", 12, "quadrature", _finite_tetra),
    "orthoscheme-two-ideal": ("orthoscheme-two-ideal", 10, "quadrature (singular)",
                              lambda r: {"b": r.uniform(0.2, 2.0)}),
    "ideal-tetra-b": ("ideal-tetra-b", 10, "quadrature (singular)",
                      lambda r: {"b": r.uniform(0.2, 2.0)}),
    "derevnin-mednykh-ideal": ("derevnin-mednykh", 10, "quadrature (singular)",
                               lambda r: dict(zip("ABCDEF", _ideal_triple(r) * 2))),
}

# shapes whose parameters the cold CLI op draws (cheap closed forms and series)
COLD_KINDS = ("sphere", "barrel", "barrel-wedge", "equidistant", "sector",
              "asymptotic-cone", "orthoscheme-angles", "milnor", "lambert-cube",
              "mohanty", "murakami-yano")

MC_SAMPLES = 1_000_000
MC_KS = (0.75, 1.0, 1.5)
# shape -> parameter ranges at curvature 1, one stratified coordinate each
MC_SHAPES = {
    "sphere": {"x": (0.2, 1.5)},
    "barrel": {"p": (0.5, 1.0), "q": (0.3, 0.6)},  # keeps its cost within about 2x
    "cone": {"b": (0.2, 1.2), "beta": (0.3, 1.2)},
    "equidistant": {"p": (0.2, 1.5), "q": (0.2, 0.8)},
    "orthoscheme-edges": {"a": (0.2, 1.2), "b": (0.2, 1.2), "c": (0.2, 1.2)},
}

NESTED_KS = (0.8, 1.0, 1.25)
N4_EDGES = (0.3, 0.5)      # n = 4 cost grows about 10x from 0.5 to 1.0
N3_EDGES = (0.4, 1.2)
TRIANGLE_LEGS = (0.2, 2.0)
NESTED_SHARES = {"ndim-orthoscheme n=4": 2, "ndim-orthoscheme n=3": 4, "triangle-2d": 8}
CHARTS = ("paracycle", "halfspace", "orthogonal", "spherical", "klein")

# parameter kinds as in hypervol.cli.SHAPES; every other parameter is an angle
_LENGTHS = {"x", "p", "q", "a", "b", "c"}
_AREAS = {"equidistant": "p", "sector": "p", "barrel-wedge": "T"}


def _scale(shape, params, k):
    """Curvature-1 parameters to the parameters of a body at curvature k."""
    out = {}
    for name, v in params.items():
        if name == "edges":
            out[name] = [x * k for x in v]
        elif _AREAS.get(shape) == name:
            out[name] = v * k * k
        elif name in _LENGTHS:
            out[name] = v * k
        else:
            out[name] = v
    return out


def _dim(shape, params):
    if shape == "ndim-orthoscheme":
        return len(params["edges"])
    return 2 if shape == "triangle-2d" else 3


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Everything a run measures and checks.

    Timed ops are kept as (start, end, jobs, command id); ``finish``
    converts them to reference-speed seconds (see Clock) once the run's
    calibration samples are all in.  Ops sharing a command id add up to one
    single-command latency sample."""

    ops: list = field(default_factory=list)
    units: int = 0            # jobs completed in the timed region
    unit_s: float = 0.0       # their reference-speed seconds ...
    unit_raw_s: float = 0.0   # ... and wall seconds
    cmd_s: list = field(default_factory=list)   # single-command latencies
    cmd_raw_s: list = field(default_factory=list)
    sums: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    max_rel_err: float = 0.0
    outputs: list = field(default_factory=list)  # raw outputs, for trace comparison
    records: int = 0          # records the CLI wrote
    child_rss_kb: int = 0

    def timed(self, span, units=1, cmd=None):
        """Record a timed op: ``span`` is (start, end); ``cmd`` a command id."""
        self.ops.append((span[0], span[1], units, cmd))

    def finish(self, clock):
        cmds = {}
        for t0, t1, units, cmd in self.ops:
            raw = t1 - t0
            norm = raw * clock.factor(0.5 * (t0 + t1))
            self.units += units
            if units:
                self.unit_s += norm
                self.unit_raw_s += raw
            if cmd is not None:
                c = cmds.setdefault(cmd, [0.0, 0.0])
                c[0] += norm
                c[1] += raw
        self.cmd_s = [c[0] for c in cmds.values()]
        self.cmd_raw_s = [c[1] for c in cmds.values()]
        return self

    def add(self, key, v):
        self.sums[key] = self.sums.get(key, 0.0) + v

    def fail(self, what, detail, ops=1):
        self.failed += ops
        self.failures.append(f"{what}: {detail}")

    def compare(self, what, value, reference, scale=1.0) -> bool:
        """Check ``value`` against ``reference()``, counting a failure on mismatch."""
        try:
            ref = reference()
        except Exception as exc:
            self.fail(what, f"reference failed: {type(exc).__name__}: {exc}")
            return False
        err = abs(value - ref)
        if ref != 0.0:
            self.max_rel_err = max(self.max_rel_err, err / abs(ref))
        if not (math.isfinite(value) and err <= REL_TOL * abs(ref) + ABS_TOL * scale):
            self.fail(what, f"value {value!r} reference {ref!r}")
            return False
        return True


class Context:
    """Shared state of one benchmark process."""

    def __init__(self, root: Path, seed: int, out_dir: Path, env: dict, clock: str):
        self.root, self.seed, self.out_dir, self.env = root, seed, out_dir, env
        self.clock = Clock(clock, env)
        self.tracer = None
        self.child_raw = tracer.empty_raw()   # spans and counters of traced children
        import hypervol
        import hypervol.cli
        self.hv = hypervol
        self.cli = hypervol.cli

    @contextmanager
    def untraced(self):
        tr = self.tracer
        on = tr is not None and tr.enabled
        if on:
            tr.enabled = False
        try:
            yield
        finally:
            if on:
                tr.enabled = True

    def job(self, label):
        if self.tracer is not None:
            self.tracer.begin_job(label)

    def timed(self, fn, *args):
        """fn(*args) after a calibration sample: (result, (start, end))."""
        self.clock.sample()
        t0 = time.perf_counter()
        res = fn(*args)
        return res, (t0, time.perf_counter())

    def call_cli(self, argv, label):
        """hypervol.cli.main in-process: (exit code, stdout, stderr, (start, end))."""
        out, err = io.StringIO(), io.StringIO()
        self.job(label)
        with redirect_stdout(out), redirect_stderr(err):
            code, span = self.timed(self.cli.main, argv)
        return code, out.getvalue(), err.getvalue(), span


def _records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _argv_params(params):
    out = []
    for name, v in params.items():
        out += [f"--{name}", ",".join(map(repr, v)) if isinstance(v, list) else repr(v)]
    return out


def _job_params(job):
    return {n: v for n, v in job.items() if n not in ("shape", "k")}


def _check_batch(tally, jobs, code, out, err):
    """Match batch records to jobs in order and compare each with its reference."""
    recs = _records(out)
    tally.records += len(recs)
    pos = 0
    for job in jobs:
        shape, k, params = job["shape"], job["k"], _job_params(job)
        rec = recs[pos] if pos < len(recs) else None
        if rec is None or rec["shape"] != shape or rec["params"] != params:
            tally.fail(f"batch {shape}", f"no record for {json.dumps(job)} "
                       f"(exit {code}; {err.strip()[:200]})")
            continue
        pos += 1
        p1 = _scale(shape, params, 1.0 / k)
        d = _dim(shape, params)
        tally.compare(f"batch {json.dumps(job)}", rec["volume"],
                      lambda: k ** d * refs.shape_reference(shape, p1), k ** d)
    if code != 0 and pos == len(jobs):
        tally.fail("batch", f"exit {code} with every record present")


def _run_batch(ctx, tally, jobs, path, cmd):
    """One in-process `hypervol batch` over ``jobs``, timed, then checked."""
    path.write_text(json.dumps(jobs))
    tally.attempted += len(jobs)
    try:
        code, out, err, span = ctx.call_cli(["batch", str(path)], "batch")
    except Exception as exc:  # a leaked exception fails every job of the call
        tally.fail("batch", f"{type(exc).__name__}: {exc} on {json.dumps(jobs)}", len(jobs))
        return
    tally.timed(span, len(jobs), cmd)
    tally.outputs.append(out)
    with ctx.untraced():
        _check_batch(tally, jobs, code, out, err)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Batch1D:
    """One `hypervol batch` of every 3-D shape but ndim, then crosscheck fine."""

    name = "batch-1d"
    clock = "py"

    def __init__(self, ctx):
        self.ctx = ctx

    def jobs(self, i):
        r = _rng(self.name, self.ctx.seed, i)
        jobs = []
        for shape, count, _, gen in BATCH_KINDS.values():
            for _ in range(count):
                k = r.choice(KS)
                jobs.append({"shape": shape, **_scale(shape, gen(r), k), "k": k})
        r.shuffle(jobs)
        return jobs, r.randrange(1 << 31)

    def warm_up(self):
        ctx = self.ctx
        jobs = [{"shape": s, **_scale(s, g(_rng("warm", n)), 1.0), "k": 1.0}
                for n, (s, _, _, g) in BATCH_KINDS.items()]
        path = ctx.out_dir / "warm-batch.json"
        path.write_text(json.dumps(jobs))
        ctx.call_cli(["batch", str(path)], "batch")
        ctx.call_cli(["crosscheck", "all", "--grid", "coarse"], "crosscheck")

    def round(self, i, tally):
        ctx = self.ctx
        jobs, cc_seed = self.jobs(i)
        _run_batch(ctx, tally, jobs, ctx.out_dir / "batch.json", cmd=None)

        argv = ["crosscheck", "all", "--grid", "fine", "--seed", str(cc_seed)]
        try:
            code, out, err, span = ctx.call_cli(argv, "crosscheck")
        except Exception as exc:
            tally.attempted += 1
            tally.fail(" ".join(argv), f"{type(exc).__name__}: {exc}")
            return
        rows = _records(out)
        tally.records += len(rows)
        tally.attempted += max(len(rows), 1)
        tally.timed(span, 0, cmd=i)
        tally.add("crosscheck_rows", len(rows))
        tally.outputs.append(out)
        for row in rows:
            if not row["pass"]:
                tally.fail(" ".join(argv), json.dumps(row))
        if code != 0 and all(row["pass"] for row in rows):
            tally.fail(" ".join(argv), f"exit {code}: {err.strip()[:200]}")


class NestedQuad:
    """ndim-orthoscheme (n = 3, 4) and triangle-2d batches plus chart integrals."""

    name = "nested-quad"
    clock = "py"

    def __init__(self, ctx):
        self.ctx = ctx

    def jobs(self, i):
        r = _rng(self.name, self.ctx.seed, i)
        jobs = []

        def add(shape, params):
            k = r.choice(NESTED_KS)
            jobs.append({"shape": shape, **_scale(shape, params, k), "k": k})

        # the costly edges are spread over their range within each round
        for n, lim in ((4, N4_EDGES), (3, N3_EDGES)):
            m = NESTED_SHARES[f"ndim-orthoscheme n={n}"]
            cols = [_spread(r, m) for _ in range(n)]
            for j in range(m):
                add("ndim-orthoscheme", {"edges": [_u(c[j], *lim) for c in cols]})
        for _ in range(NESTED_SHARES["triangle-2d"]):
            add("triangle-2d", {"a": r.uniform(*TRIANGLE_LEGS),
                                "b": r.uniform(*TRIANGLE_LEGS)})
        r.shuffle(jobs)
        return jobs, self.charts(r, iter(_lhs(self.name, self.ctx.seed, i=i, dims=6)))

    @staticmethod
    def charts(r, u):
        """One coordinate-chart integral per chart, as (system, bounds, params);
        the Klein box, the costly one, is stratified across rounds by ``u``."""
        k = r.choice(NESTED_KS)
        out = []
        sides = [k * r.uniform(0.2, 1.5) for _ in range(3)]
        out.append(("paracycle", [(i, 0.0, s) for i, s in enumerate(sides)],
                    {"k": k, "sides": sides}))
        w = [k * r.uniform(0.2, 1.5) for _ in range(2)]
        h1 = r.uniform(0.3, 1.0)
        h = (h1, h1 + r.uniform(0.2, 1.5))
        out.append(("halfspace", [(0, 0.0, w[0]), (1, 0.0, w[1]), (2, h[0], h[1])],
                    {"k": k, "base": w, "height": h}))
        e = [k * r.uniform(0.3, 1.2) for _ in range(3)]
        r0 = math.tanh(e[0] / k) / math.sinh(e[2] / k)
        r1 = math.tanh(e[1] / k) / math.sinh(e[0] / k)
        out.append(("orthogonal", [
            (2, 0.0, e[2]),
            (0, 0.0, lambda xn: k * math.atanh(r0 * math.sinh(xn / k))),
            (1, 0.0, lambda xn, x1: k * math.atanh(r1 * math.sinh(x1 / k))),
        ], {"k": k, "edges": e}))
        x = k * r.uniform(0.2, 2.0)
        out.append(("spherical", [(0, 0.0, 2 * math.pi), (1, 0.0, math.pi), (2, 0.0, x)],
                    {"k": k, "x": x}))
        lo = [-k * _u(next(u), 0.05, 0.45) for _ in range(3)]
        hi = [k * _u(next(u), 0.05, 0.45) for _ in range(3)]
        out.append(("klein", [(i, lo[i], hi[i]) for i in range(3)],
                    {"k": k, "lo": lo, "hi": hi}))
        return out

    def warm_up(self):
        ctx = self.ctx
        jobs = [{"shape": "triangle-2d", "a": 0.5, "b": 0.7, "k": 1.0},
                {"shape": "ndim-orthoscheme", "edges": [0.4, 0.4, 0.4], "k": 1.0}]
        path = ctx.out_dir / "warm-nested.json"
        path.write_text(json.dumps(jobs))
        ctx.call_cli(["batch", str(path)], "batch")
        ctx.hv.models.coordinate_volume("paracycle", [(0, 0, 1), (1, 0, 1), (2, 0, 1)], 3)

    def round(self, i, tally):
        ctx = self.ctx
        jobs, charts = self.jobs(i)
        _run_batch(ctx, tally, jobs, ctx.out_dir / "nested.json", cmd=i)
        for system, bounds, params in charts:
            tally.attempted += 1
            what = f"coordinate_volume {system} {json.dumps(params)}"
            ctx.job(f"chart-{system}")
            try:
                res, span = ctx.timed(ctx.hv.models.coordinate_volume,
                                      system, bounds, 3, params["k"])
            except Exception as exc:
                tally.fail(what, f"{type(exc).__name__}: {exc}")
                continue
            tally.timed(span)
            tally.outputs.append(repr(res))
            with ctx.untraced():
                tally.compare(what, res.value,
                              lambda: refs.chart_reference(system, params),
                              params["k"] ** 3)


class MCOracle:
    """`hypervol mc` on each of the five Monte-Carlo shapes, one call each per round."""

    name = "mc-oracle"
    clock = "np"

    def __init__(self, ctx):
        self.ctx = ctx

    def argvs(self, i, samples=MC_SAMPLES):
        r = _rng(self.name, self.ctx.seed, i)
        u = iter(_lhs(self.name, self.ctx.seed, i=i, dims=10))
        out = []
        for shape, ranges in MC_SHAPES.items():
            k = r.choice(MC_KS)
            params = _scale(shape, {n: _u(next(u), *lim) for n, lim in ranges.items()}, k)
            out.append((shape, ["mc", shape, *_argv_params(params), "--k", repr(k),
                                "--samples", str(samples),
                                "--seed", str(r.randrange(1 << 31))]))
        return out

    def warm_up(self):
        for shape, argv in self.argvs(-1, samples=10_000):
            self.ctx.call_cli(argv, f"mc-{shape}")

    def round(self, i, tally):
        """Five `mc` calls.  The four calls other than barrel add up to one
        command-latency sample: barrel's golden-section cost swings about 5x
        with (p, q), which would make a median of a few rounds follow the
        draws rather than the program."""
        for shape, argv in self.argvs(i):
            tally.attempted += 1
            what = " ".join(argv)
            try:
                code, out, err, span = self.ctx.call_cli(argv, f"mc-{shape}")
            except Exception as exc:
                tally.fail(what, f"{type(exc).__name__}: {exc}")
                continue
            tally.timed(span, cmd=None if shape == "barrel" else i)
            tally.add("mc_samples", MC_SAMPLES)
            tally.outputs.append(out)
            recs = _records(out)
            tally.records += len(recs)
            if code != 0 or len(recs) != 1 or not abs(recs[0]["z_score"]) <= 4.0:
                tally.fail(what, f"exit {code}: {out.strip()} {err.strip()[:200]}")


class CliCold:
    """A fresh interpreter per op: `python -m hypervol.cli vol <shape> ...`."""

    name = "cli-cold"
    clock = "cold"

    def __init__(self, ctx):
        self.ctx = ctx

    def op(self, i):
        r = _rng(self.name, self.ctx.seed, i)
        shape, _, _, gen = BATCH_KINDS[COLD_KINDS[i % len(COLD_KINDS)]]
        k = r.choice(KS)
        params = _scale(shape, gen(r), k)
        return shape, params, k, ["vol", shape, *_argv_params(params), "--k", repr(k)]

    def spawn(self, argv, trace_out=None):
        """Run one cold op: (exit code, stdout, stderr, max RSS in kB)."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "hypervol.cli", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cold_child.py")),
                   str(trace_out), *argv]
        proc = subprocess.Popen(cmd, cwd=self.ctx.root, env=self.ctx.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            # outputs are a few hundred bytes, so reading the pipes in turn is safe
            out, err = proc.stdout.read(), proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss

    def warm_up(self):
        self.spawn(self.op(0)[3])

    def round(self, i, tally):
        ctx = self.ctx
        shape, params, k, argv = self.op(i)
        tally.attempted += 1
        what = "hypervol " + " ".join(argv)
        trace_out = ctx.out_dir / "cold-trace.json" if ctx.tracer is not None else None
        (code, out, err, rss_kb), span = ctx.timed(self.spawn, argv, trace_out)
        if trace_out is not None and trace_out.exists():
            tracer.merge(ctx.child_raw, json.loads(trace_out.read_text()))
            trace_out.unlink()
        tally.child_rss_kb = max(tally.child_rss_kb, rss_kb)
        tally.timed(span, cmd=i)
        tally.outputs.append(out)
        try:
            recs = _records(out)
        except ValueError:
            recs = []
        tally.records += len(recs)
        if code != 0 or len(recs) != 1:
            tally.fail(what, f"exit {code}: {err.strip()[-300:]}")
            return
        p1 = _scale(shape, params, 1.0 / k)
        with ctx.untraced():
            tally.compare(what, recs[0]["volume"],
                          lambda: k ** 3 * refs.shape_reference(shape, p1), k ** 3)


WORKLOADS = {w.name: w for w in (Batch1D, NestedQuad, MCOracle, CliCold)}


def mix(name) -> dict:
    """The generator's fixed mix and ranges for one workload, for the record."""
    if name == "batch-1d":
        total = sum(c for _, c, _, _ in BATCH_KINDS.values())
        shares = {}
        for _, c, method, _ in BATCH_KINDS.values():
            shares[method] = round(shares.get(method, 0) + c / total, 6)
        return {"jobs_per_batch": total, "k": KS, "method_shares": shares,
                "crosscheck": "all --grid fine, seed drawn per round",
                "repeated_inputs": 0.0}
    if name == "nested-quad":
        return {"batch_jobs": NESTED_SHARES, "charts_per_round": CHARTS,
                "n4_edges": N4_EDGES, "n3_edges": N3_EDGES,
                "triangle_legs": TRIANGLE_LEGS, "k": NESTED_KS, "repeated_inputs": 0.0}
    if name == "mc-oracle":
        return {"shapes": MC_SHAPES, "samples_per_job": MC_SAMPLES, "k": MC_KS,
                "repeated_inputs": 0.0}
    return {"shapes": COLD_KINDS, "k": KS, "repeated_inputs": 0.0}
