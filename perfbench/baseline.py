"""Re-measure the hand-made baseline figures listed in ROADMAP.md.

Usage (from the repository root; takes about a minute):

    python3 perfbench/baseline.py [--out .bench_out/baseline.json]

Each figure is the median of a few repeats in this process or in fresh
interpreters, one at a time, with BLAS pools pinned to one thread.  Counts
(quadrature evaluations, 1-D calls) come from the tracer's wrappers in a
separate pass, so they do not slow the timed pass.  Times are raw wall
times: this is a one-off record, not a gated benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run  # sets nothing at import; provides paths and the child environment


def _median_time(fn, reps):
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def _wall(argv, reps=5):
    def go():
        subprocess.run([sys.executable, *argv], cwd=run.ROOT, env=run.child_env(),
                       capture_output=True, check=True, timeout=120)
    return _median_time(go, reps)


def _counts(fn):
    """(integrate_1d calls, evaluations) made by fn()."""
    import tracer
    tr = tracer.Tracer()
    tr.install()
    try:
        fn()
    finally:
        tr.uninstall()
    return tr.agg[tracer.Q1][0], tr.count["quadrature.evals"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(run.OUT / "baseline.json"))
    args = ap.parse_args()
    import os
    os.environ.update({v: "1" for v in run.THREAD_VARS})
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    from hypervol import mc_oracle as mc, orthoscheme as O, specfun, tetrahedra as T
    import workloads

    env = run.environment()
    res = {"environment": env}

    # end to end, in fresh interpreters
    jobs = []
    batch = workloads.Batch1D(workloads.Context(run.ROOT, 0, run.OUT, run.child_env(), "py"))
    for i in range(5):
        jobs += batch.jobs(i)[0]
    path = run.OUT / "baseline-jobs.json"
    path.write_text(json.dumps(jobs))
    res["batch_1000_wall_s"] = _wall(["-m", "hypervol.cli", "batch", str(path)], 3)
    res["startup_wall_s"] = _wall(["-c", "import hypervol.cli"])
    res["crosscheck_fine_wall_s"] = _wall(
        ["-m", "hypervol.cli", "crosscheck", "all", "--grid", "fine"], 3)
    res["vol_sphere_wall_s"] = _wall(["-m", "hypervol.cli", "vol", "sphere", "--x", "1"])
    res.update(run.import_probe(reps=5))

    # Monte Carlo, 10^6 samples per region, in this process
    regions = {
        "ball": mc.region_ball(1.0),
        "barrel": mc.region_barrel(1.0, 1.0),
        "cone": mc.region_cone(1.0, 0.6),
        "simplex": mc.region_simplex(mc.orthoscheme_vertices(1.0, 1.0, 1.0)),
        "slab": mc.region_slab((0.5, 0.5), 0.5),
    }
    for name, region in regions.items():
        res[f"mc_1e6_{name}_s"] = _median_time(lambda: mc.estimate(region, 10**6, 1), 3)

    # quadrature routes: time (median of repeats) and evaluation counts
    regular_ideal = (math.pi / 3,) * 6
    finite = (1.2,) * 6
    routes = {
        "volume_edges_111": lambda: O.volume_edges((1.0, 1.0, 1.0)),
        "bolyai_integral_1_111": lambda: O.bolyai_integral_1((1.0, 1.0, 1.0)),
        "volume_two_ideal_1": lambda: O.volume_two_ideal(1.0),
        "derevnin_mednykh_regular_ideal": lambda: T.derevnin_mednykh(regular_ideal),
        "derevnin_mednykh_finite_1.2": lambda: T.derevnin_mednykh(finite),
        "murakami_yano_finite_1.2": lambda: T.murakami_yano(finite),
    }
    for name, fn in routes.items():
        res[f"{name}_ms"] = _median_time(fn, 20) * 1e3
        res[f"{name}_evals"] = _counts(fn)[1]
    for edges in ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)):
        n = len(edges)
        res[f"volume_ndim_n{n}_s"] = _median_time(lambda: O.volume_ndim(edges), 1 if n == 4 else 3)
        res[f"volume_ndim_n{n}_calls"] = _counts(lambda: O.volume_ndim(edges))[0]
    xs = [0.05 + 0.01 * i for i in range(300)]
    res["lobachevsky_ns_per_call"] = _median_time(
        lambda: [specfun.lobachevsky(x) for x in xs], 50) / len(xs) * 1e9

    for k, v in res.items():
        print(k, v if isinstance(v, dict) else f"{v:.6g}")
    Path(args.out).write_text(json.dumps(res, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
