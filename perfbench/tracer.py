"""Spans and counters for the traced benchmark run.

The tracer wraps module attributes of the hypervol package from outside:
the program itself is not edited.  Every wrapper calls the original
function with the original arguments (integrands are wrapped only to time
them), so traced outputs equal untraced outputs bit for bit.

Spans carry (index, name, start ns, end ns, parent index, job id).  They
stay in memory and are written by ``write_spans`` when the run ends.
Hot scalar functions (Lobachevsky, Clausen, integrand callbacks, region
membership) are counted and timed, not spanned.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import statistics
import time
from collections import defaultdict

_now = time.perf_counter_ns

Q1 = "quadrature.integrate_1d"

# public volume functions, timed as spans (metric `<module>.<fn>.s`)
VOLUME_FUNCTIONS = {
    "orthoscheme": (
        "volume_edges", "volume_angles", "bolyai_integral_1", "volume_one_ideal",
        "volume_two_ideal", "volume_ideal_tetrahedron_b", "bolyai_asymptotic_1",
        "bolyai_asymptotic_2", "area_right_triangle", "volume_ndim",
    ),
    "tetrahedra": (
        "milnor_ideal", "derevnin_mednykh", "murakami_yano", "lambert_cube",
        "mohanty_octahedron",
    ),
    "solids": (
        "equidistant_body", "equidistant_body_by_quadrature", "paraspherical_sector",
        "sphere_volume", "sphere_volume_by_quadrature", "barrel", "barrel_by_quadrature",
        "barrel_wedge", "circular_cone", "asymptotic_cone",
    ),
}
METHODS = ("closed-form", "quadrature", "lobachevsky-series", "clausen-series",
           "nested-quadrature")
REGIONS = ("ball", "barrel", "cone", "slab", "simplex")
# job labels whose 1-D quadrature calls are reported separately
QUAD_LABELS = (
    "cone", "orthoscheme-edges", "orthoscheme-one-ideal", "orthoscheme-two-ideal",
    "ideal-tetra-b", "bolyai-1", "bolyai-asym-1", "bolyai-asym-2", "derevnin-mednykh",
    "ndim-orthoscheme", "triangle-2d", "crosscheck", "chart-paracycle",
    "chart-halfspace", "chart-orthogonal", "chart-spherical", "chart-klein",
)


class Tracer:
    """Collects spans and counters while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job_labels = ["-"]
        self.job = 0
        self.agg = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total ns, self ns]
        self.count = defaultdict(int)
        self.samples = defaultdict(list)  # name -> durations in ns
        self._stack: list[list] = []
        self._next = 0
        self._undo: list[tuple] = []

    # -- jobs and spans ----------------------------------------------------

    def begin_job(self, label: str) -> int:
        self.job_labels.append(label)
        self.job = len(self.job_labels) - 1
        return self.job

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        # frame: idx, name, t0, child-span ns, integrand-callback ns, parent, job
        fr = [self._next, name, 0, 0, 0, parent, self.job]
        self._next += 1
        self._stack.append(fr)
        fr[2] = _now()
        return fr

    def _exit(self, fr: list) -> int:
        t1 = _now()
        self._stack.pop()
        name = fr[1]
        dur = t1 - fr[2]
        a = self.agg[name]
        a[0] += 1
        a[1] += dur
        if name == Q1:
            # self time excludes integrand callbacks (which hold any nested calls)
            a[2] += dur - fr[4]
            self.count["quadrature.integrand_ns"] += fr[4] - fr[3]
        else:
            a[2] += dur - fr[3]
        if self._stack:
            self._stack[-1][3] += dur
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append((fr[0], nid, fr[2], t1, fr[5], fr[6]))
        return dur

    # -- installing wrappers -----------------------------------------------

    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, functools.wraps(getattr(module, attr))(wrapper))

    def uninstall(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)
        self.enabled = False

    def _span(self, module, attr, name):
        fn = getattr(module, attr)

        def wrapper(*a, **kw):
            if not self.enabled:
                return fn(*a, **kw)
            fr = self._enter(name)
            try:
                return fn(*a, **kw)
            finally:
                self._exit(fr)

        self._patch(module, attr, wrapper)

    def _counter(self, module, attr, name):
        fn = getattr(module, attr)
        agg = self.agg[name]

        def wrapper(x):
            if not self.enabled:
                return fn(x)
            t0 = _now()
            v = fn(x)
            agg[1] += _now() - t0
            agg[0] += 1
            return v

        self._patch(module, attr, wrapper)

    def install(self):
        """Wrap the layers of hypervol and start recording."""
        from hypervol import (cli, mc_oracle, models, orthoscheme, quadrature, solids,
                              tetrahedra)
        from hypervol.errors import ConvergenceError

        self._span(cli, "main", "cli.main")
        self._span(quadrature, "integrate_region", "quadrature.integrate_region")
        self._span(models, "coordinate_volume", "models.coordinate_volume")
        modules = {"orthoscheme": orthoscheme, "tetrahedra": tetrahedra, "solids": solids}
        for modname, fns in VOLUME_FUNCTIONS.items():
            for fn in fns:
                self._span(modules[modname], fn, f"{modname}.{fn}")
        # names bound by `from .specfun import ...` are wrapped where they are used
        self._counter(orthoscheme, "lobachevsky", "specfun.lobachevsky")
        self._counter(tetrahedra, "lobachevsky", "specfun.lobachevsky")
        self._counter(tetrahedra, "clausen2", "specfun.clausen2")
        self._counter(tetrahedra, "dm_coefficients", "tetrahedra.dm_coefficients")

        compute_volume = cli.compute_volume

        def traced_compute_volume(shape, *a, **kw):
            if not self.enabled:
                return compute_volume(shape, *a, **kw)
            outer = self.job
            self.begin_job(shape)
            fr = self._enter("cli.compute_volume")
            try:
                res = compute_volume(shape, *a, **kw)
            finally:
                dur = self._exit(fr)
                self.job = outer
            self.samples[f"cli.compute_volume.{res[1]}"].append(dur)
            return res

        self._patch(cli, "compute_volume", traced_compute_volume)

        integrate_1d = quadrature.integrate_1d

        def traced_integrate_1d(f, lo, hi, *a, **kw):
            if not self.enabled:
                return integrate_1d(f, lo, hi, *a, **kw)
            label = self.job_labels[self.job]
            fr = self._enter(Q1)

            def timed(x):
                t0 = _now()
                v = f(x)
                fr[4] += _now() - t0
                return v

            res = None
            try:
                res = integrate_1d(timed, lo, hi, *a, **kw)
            except ConvergenceError as exc:
                self.count["quadrature.convergence_errors"] += 1
                res = exc.best
                raise
            finally:
                self._exit(fr)
                evals = res.evaluations if res is not None else 0
                self.count["quadrature.evals"] += evals
                self.count[f"quadrature.calls@{label}"] += 1
                self.count[f"quadrature.evals@{label}"] += evals
            return res

        self._patch(quadrature, "integrate_1d", traced_integrate_1d)

        estimate = mc_oracle.estimate

        def traced_estimate(region, samples, *a, **kw):
            if not self.enabled:
                return estimate(region, samples, *a, **kw)
            fr = self._enter("mc_oracle.estimate")
            try:
                return estimate(region, samples, *a, **kw)
            finally:
                dur = self._exit(fr)
                self.count["mc_oracle.samples"] += int(samples)
                self.count[f"mc_oracle.samples@{region.name}"] += int(samples)
                self.count[f"mc_oracle.estimate_ns@{region.name}"] += dur

        self._patch(mc_oracle, "estimate", traced_estimate)

        for builder in ("region_ball", "region_barrel", "region_cone", "region_slab",
                        "region_simplex"):
            self._patch(mc_oracle, builder, self._region_builder(getattr(mc_oracle, builder)))
        self.enabled = True

    def _region_builder(self, build):
        import numpy as np

        def traced_build(*a, **kw):
            region = build(*a, **kw)
            contains = region.contains

            def timed(P):
                if not self.enabled:
                    return contains(P)
                t0 = _now()
                mask = contains(P)
                self.count["mc_oracle.contains_ns"] += _now() - t0
                self.count["mc_oracle.candidates"] += len(P)
                self.count["mc_oracle.hits"] += int(np.count_nonzero(mask))
                return mask

            return dataclasses.replace(region, contains=timed)

        return traced_build

    # -- results -----------------------------------------------------------

    def raw(self) -> dict:
        """JSON-ready aggregates, mergeable across processes by ``merge``."""
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "count": dict(self.count),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": [(i, self.names[n], t0, t1, p, self.job_labels[j], j)
                      for i, n, t0, t1, p, j in self.spans],
        }


def merge(into: dict, raw: dict) -> dict:
    for k, v in raw["agg"].items():
        a = into["agg"].setdefault(k, [0, 0, 0])
        for i in range(3):
            a[i] += v[i]
    for k, v in raw["count"].items():
        into["count"][k] = into["count"].get(k, 0) + v
    for k, v in raw["samples"].items():
        into["samples"].setdefault(k, []).extend(v)
    into["spans"].extend(raw["spans"])
    return into


def empty_raw() -> dict:
    return {"agg": {}, "count": {}, "samples": {}, "spans": []}


def tail_rank(values):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Falls back to the median when fewer than 21 samples exist."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0.0
    if n < 21:
        return statistics.median(v), 50.0
    return v[n - 11], 100.0 * (n - 10) / n


def layer_metrics(raw: dict, records: int, imports: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics, keyed by the names listed in BENCHMARK.json."""
    agg, cnt = raw["agg"], raw["count"]

    def total_s(name):
        return agg.get(name, [0, 0, 0])[1] / 1e9

    def calls(name):
        return agg.get(name, [0, 0, 0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    overhead = agg.get("cli.main", [0, 0, 0])[2] / 1e9
    m["cli.overhead_s"] = overhead
    m["cli.overhead_us_per_job"] = ratio(overhead * 1e6, records)
    for method in METHODS:
        d = raw["samples"].get(f"cli.compute_volume.{method}", [])
        m[f"cli.compute_volume.{method}.p50_us"] = statistics.median(d) / 1e3 if d else 0.0
        m[f"cli.compute_volume.{method}.tail_us"] = tail_rank(d)[0] / 1e3
    m.update(imports)

    q_calls = calls(Q1)
    evals = cnt.get("quadrature.evals", 0)
    q_self = agg.get(Q1, [0, 0, 0])[2]
    m["quadrature.integrate_1d.calls"] = q_calls
    m["quadrature.integrate_1d.evals"] = evals
    m["quadrature.integrate_1d.evals_per_call"] = ratio(evals, q_calls)
    m["quadrature.integrate_1d.self_s"] = q_self / 1e9
    m["quadrature.ns_per_eval"] = ratio(q_self, evals)
    m["quadrature.integrand_s"] = cnt.get("quadrature.integrand_ns", 0) / 1e9
    m["quadrature.convergence_errors"] = cnt.get("quadrature.convergence_errors", 0)
    m["quadrature.integrate_region.calls"] = calls("quadrature.integrate_region")
    m["quadrature.integrate_region.s"] = total_s("quadrature.integrate_region")
    for label in QUAD_LABELS:
        m[f"quadrature.evals_per_call.{label}"] = ratio(
            cnt.get(f"quadrature.evals@{label}", 0), cnt.get(f"quadrature.calls@{label}", 0))

    for fn in ("lobachevsky", "clausen2"):
        c, ns, _ = agg.get(f"specfun.{fn}", [0, 0, 0])
        m[f"specfun.{fn}.calls"] = c
        m[f"specfun.{fn}.ns_per_call"] = ratio(ns, c)

    for modname, fns in VOLUME_FUNCTIONS.items():
        for fn in fns:
            m[f"{modname}.{fn}.s"] = total_s(f"{modname}.{fn}")
    m["tetrahedra.dm_coefficients.calls"] = calls("tetrahedra.dm_coefficients")
    m["models.coordinate_volume.calls"] = calls("models.coordinate_volume")
    m["models.coordinate_volume.s"] = total_s("models.coordinate_volume")

    est_ns = agg.get("mc_oracle.estimate", [0, 0, 0])[1]
    samples = cnt.get("mc_oracle.samples", 0)
    contains_ns = cnt.get("mc_oracle.contains_ns", 0)
    cand = cnt.get("mc_oracle.candidates", 0)
    m["mc_oracle.estimate.s"] = est_ns / 1e9
    m["mc_oracle.ns_per_sample"] = ratio(est_ns, samples)
    for region in REGIONS:
        m[f"mc_oracle.{region}.ns_per_sample"] = ratio(
            cnt.get(f"mc_oracle.estimate_ns@{region}", 0),
            cnt.get(f"mc_oracle.samples@{region}", 0))
    m["mc_oracle.contains_s"] = contains_ns / 1e9
    m["mc_oracle.contains.ns_per_candidate"] = ratio(contains_ns, cand)
    m["mc_oracle.loop_s"] = (est_ns - contains_ns) / 1e9 if samples else 0.0
    m["mc_oracle.candidate_fraction"] = ratio(cand, samples)
    m["mc_oracle.hit_fraction"] = ratio(cnt.get("mc_oracle.hits", 0), samples)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def write_spans(path, spans):
    """Write spans as gzip-compressed tab-separated text, one span per line,
    in end order (a traced nested-quad run holds a few hundred thousand)."""
    with gzip.open(path, "wt") as fh:
        fh.write("idx\tname\tstart_ns\tend_ns\tparent\tjob_label\tjob\n")
        for s in spans:
            fh.write("\t".join(str(x) for x in s) + "\n")
