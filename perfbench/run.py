"""hypervol benchmark: one seeded workload, timed, checked, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: batch-1d, nested-quad, mc-oracle, cli-cold (see perfbench/README.md).
The program is imported from ./src; nothing is installed.  Every load comes
from this one process (a closed loop with one caller); the cli-cold and
set-up child processes run one at a time, and BLAS pools are pinned to one
thread.

--trace 0 measures the end-to-end metrics.  ``setup_s`` is the median of
eight set-ups, seven in fresh interpreters and one in this process:
``import hypervol.cli`` plus the workload's warm-up.  The loop then runs
rounds until S seconds have passed; only calls into hypervol are timed, and
every output is checked against an independent route outside the timed
region.  Times are reported at reference speed (perfbench/clock.py).

--trace 1 runs rounds untraced for 0.4 S, then replays the same rounds with
the layers wrapped (perfbench/tracer.py), checks that the outputs are equal
bit for bit, and reports the per-layer metrics.  Spans are written to
.bench_out/spans-<workload>-<seed>.tsv.gz.

Human-readable lines (environment, mix, every metric with its unit,
failures with their inputs) come first; the last line of stdout is
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
with the metric names of BENCHMARK.json.  Exit status is 0 when a result was
printed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
UNTRACED_SHARE = 0.4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                    else "")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "os.cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "machine": platform.machine()}


def setup_once(name: str, seed: int):
    """Import the program and warm the workload up.

    Returns the workload and the set-up wall time in seconds; importing the
    benchmark's own modules is not counted."""
    t0 = time.perf_counter()
    import hypervol.cli  # noqa: F401  (the program's own import cost)
    t_import = time.perf_counter() - t0
    import workloads
    cls = workloads.WORKLOADS[name]
    wl = cls(workloads.Context(ROOT, seed, OUT, child_env(), cls.clock))
    t1 = time.perf_counter()
    wl.warm_up()
    return wl, t_import + time.perf_counter() - t1


def setup_samples(args, clock) -> list[tuple]:
    """Set-ups of SETUP_REPEATS fresh interpreters, run one after another,
    each after a "cold" clock sample: (start, end, set-up seconds)."""
    out = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
             args.workload, "--seed", str(args.seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"set-up child failed: {p.stderr.strip()[-500:]}")
        out.append((t0, time.perf_counter(), float(p.stdout.split()[-1])))
    return out


def import_probe(reps: int = 3) -> dict:
    """Interpreter start and import costs from `-X importtime` in children."""
    def run(*argv):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=60)
        return p, time.perf_counter() - t0

    interp, hv, npy = [], [], []
    for _ in range(reps):
        interp.append(run("-c", "pass")[1] * 1e3)
        p, _ = run("-X", "importtime", "-c", "import hypervol.cli")
        cum = {}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cum[parts[2].strip()] = int(parts[1])
                except ValueError:
                    pass
        hv.append(cum.get("hypervol.cli", 0) / 1e3)  # includes the package
        npy.append(cum.get("numpy", 0) / 1e3)
    return {"import.interpreter_ms": statistics.median(interp),
            "import.hypervol_ms": statistics.median(hv),
            "import.numpy_ms": statistics.median(npy)}


def run_rounds(wl, tally, seconds=None, rounds=None) -> int:
    """Run rounds 0, 1, ... for ``seconds`` of wall time or a fixed count."""
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while (i < rounds) if rounds is not None else (i == 0 or time.perf_counter() < deadline):
        wl.round(i, tally)
        i += 1
    return i


def end_to_end(wl, tally, setup) -> tuple[dict, list[str]]:
    """The end-to-end metrics of BENCHMARK.json plus the workload's own lines."""
    import tracer
    name = wl.name
    tail, pct = tracer.tail_rank(tally.cmd_s)
    if name == "cli-cold":
        rss = tally.child_rss_kb / 1024.0
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_tail = tracer.tail_rank(tally.cmd_raw_s)[0]
    m = {"setup_s": statistics.median(setup),
         "jobs_per_s": tally.units / tally.unit_s if tally.unit_s else 0.0,
         "cmd_p50_ms": statistics.median(tally.cmd_s) * 1e3 if tally.cmd_s else 0.0,
         "cmd_tail_ms": tail * 1e3,
         "peak_rss_mb": rss}
    n = len(tally.cmd_s)
    raw = {"jobs_per_s": tally.units / tally.unit_raw_s if tally.unit_raw_s else 0.0,
           "cmd_p50_ms": statistics.median(tally.cmd_raw_s) * 1e3 if n else 0.0,
           "cmd_tail_ms": raw_tail * 1e3}

    def both(key, fmt=".3f"):
        return f"{m[key]:{fmt}} (raw wall {raw[key]:{fmt}})"

    lines = [f"times below are reference-speed (clock {wl.clock}, mean factor "
             f"{tally.unit_s / tally.unit_raw_s if tally.unit_raw_s else 0:.3f}); "
             "raw wall values in parentheses",
             f"setup_s {m['setup_s']:.4f} s (median of {len(setup)}: "
             + ", ".join(f"{s:.4f}" for s in setup) + ")"]
    s = tally.sums
    if name == "batch-1d":
        lines.append(f"batch_jobs_per_s {both('jobs_per_s', '.1f')} 1/s ({tally.units} jobs)")
        lines.append(f"crosscheck_rows_per_s {s['crosscheck_rows'] / sum(tally.cmd_s):.1f} "
                     f"(raw wall {s['crosscheck_rows'] / sum(tally.cmd_raw_s):.1f}) 1/s "
                     f"({int(s['crosscheck_rows'])} rows in {n} calls)")
    elif name == "nested-quad":
        lines.append(f"nested_jobs_per_s {both('jobs_per_s')} 1/s ({tally.units} jobs)")
    elif name == "mc-oracle":
        lines.append(f"mc_msamples_per_s {s['mc_samples'] / tally.unit_s / 1e6:.3f} "
                     f"(raw wall {s['mc_samples'] / tally.unit_raw_s / 1e6:.3f}) "
                     f"Msamples/s ({tally.units} runs)")
    else:
        lines.append(f"cold_start_p50_ms {both('cmd_p50_ms', '.2f')} ms (n={n})")
        lines.append(f"cold_start_tail_ms {both('cmd_tail_ms', '.2f')} ms "
                     f"(p{pct:.1f}, n={n})")
    lines.append(f"cmd_p50_ms {both('cmd_p50_ms')} ms, cmd_tail_ms {both('cmd_tail_ms')} ms "
                 f"(p{pct:.1f} of n={n} single-command latencies)")
    lines.append(f"failed_ratio {tally.failed / max(tally.attempted, 1):.6g} "
                 f"({tally.failed}/{tally.attempted})")
    if name in ("batch-1d", "nested-quad", "cli-cold"):
        lines.append(f"max_rel_err {tally.max_rel_err:.3e} (against independent routes)")
    lines.append(f"peak_rss_mb {rss:.1f} MB")
    return m, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "hypervol" / "cli.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy is imported
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_only:
        print(f"{setup_once(args.workload, args.seed)[1]:.6f}")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_clock = Clock("cold", child_env())
    setup = [] if args.trace else setup_samples(args, setup_clock)
    t0 = time.perf_counter()
    wl, own_setup = setup_once(args.workload, args.seed)
    if not args.trace:
        setup.append((t0, time.perf_counter(), own_setup))
        setup = [s * setup_clock.factor(0.5 * (t0 + t1)) for t0, t1, s in setup]
    ctx = wl.ctx

    import hypervol
    import tracer
    import workloads
    if not Path(hypervol.__file__).resolve().is_relative_to(SRC):
        print(f"error: hypervol imported from {hypervol.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment()))
    print("mix " + json.dumps(workloads.mix(args.workload)))

    tally = workloads.Tally()
    if not args.trace:
        rounds = run_rounds(wl, tally, seconds=args.seconds)
        tally.finish(ctx.clock)
        metrics, lines = end_to_end(wl, tally, setup)
        wanted = spec["end_to_end"]
        correct = tally.failed == 0
    else:
        imports = import_probe()
        rounds = run_rounds(wl, tally, seconds=UNTRACED_SHARE * args.seconds)
        traced = workloads.Tally()
        ctx.tracer = tracer.Tracer()
        ctx.tracer.install()
        try:
            run_rounds(wl, traced, rounds=rounds)
        finally:
            ctx.tracer.uninstall()
        tally.finish(ctx.clock)
        traced.finish(ctx.clock)
        same = traced.outputs == tally.outputs
        raw = tracer.merge(ctx.tracer.raw(), ctx.child_raw)
        ratio = traced.unit_s / tally.unit_s if tally.unit_s else 0.0
        metrics = tracer.layer_metrics(raw, traced.records, imports, ratio)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write_spans(spans_path, raw["spans"])
        lines = [f"traced outputs equal untraced outputs bit for bit: {same} "
                 f"({len(tally.outputs)} outputs)",
                 f"spans written: {len(raw['spans'])} to {spans_path.relative_to(ROOT)}"]
        lines += [f"{k} {v:.6g}" for k, v in metrics.items()]
        wanted = spec["per_layer"]
        correct = tally.failed == 0 and traced.failed == 0 and same
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.failures += traced.failures

    print(f"rounds {rounds}")
    for line in lines:
        print(line)
    for f in tally.failures:
        print("FAIL " + f)
    names = {w["name"] for w in wanted}
    if names != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                          for w in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
