"""Command-line interface.

Grammar:

    hypervol vol SHAPE [shape params] [--k F] [--reltol F] [--degrees]
                       [--format json|csv] [--out PATH]
    hypervol convert {edges-to-angles | angles-to-edges} [params] [...]
    hypervol crosscheck {orthoscheme | tetrahedra | solids | all}
                       [--grid coarse|fine] [--seed N] [...]
    hypervol mc SHAPE [shape params] --samples N --seed N [...]
    hypervol batch JOBS.json [...]

Angles are radians unless --degrees is given.  Output is one JSON object
per line, or RFC-4180 CSV with --format csv.  Exit codes: 0 success,
1 failed check (crosscheck threshold or |z| > 4 in mc), 2 invalid
parameters, 3 not realizable, 4 quadrature convergence failure, 5 I/O
failure.

Shapes, their parameters and their volume routes come from the table in
``hypervol.shapes``; every volume is computed at curvature 1 with the
length/area parameters rescaled, then multiplied by k**dim.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from contextlib import nullcontext
from typing import Sequence

from . import mc_oracle, orthoscheme, tetrahedra
from .errors import ConvergenceError, DomainError, NotRealizableError
from .quadrature import Tolerance
from .shapes import MC_SHAPES, SHAPES, collect_params, compute_volume, parse_job

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NOT_REALIZABLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IO = 5


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and message label of a DomainError or ConvergenceError."""
    if isinstance(exc, NotRealizableError):
        return EXIT_NOT_REALIZABLE, "not realizable"
    if isinstance(exc, ConvergenceError):
        return EXIT_NO_CONVERGENCE, "no convergence"
    return EXIT_INVALID, "invalid parameters"


# ---------------------------------------------------------------------------
# record output
# ---------------------------------------------------------------------------

def _write(args, rows: list[dict]) -> None:
    """Write records as JSON lines or CSV to stdout or ``args.out``; the CSV header
    is the union of the record keys in first-seen order (missing cells stay empty)."""
    try:
        with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as out:
            if args.format == "json":
                for r in rows:
                    out.write(json.dumps(r) + "\n")
            elif rows:
                fields = list(dict.fromkeys(k for r in rows for k in r))
                w = csv.DictWriter(out, fieldnames=fields)
                w.writeheader()
                w.writerows(
                    {k: json.dumps(v) if isinstance(v, (dict, list, tuple)) else v
                     for k, v in r.items()}
                    for r in rows
                )
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        raise


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=float, default=1.0, help="curvature constant (default 1)")
    common.add_argument("--reltol", type=float, default=1e-10,
                        help="relative tolerance for quadrature-backed shapes")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write records to this file")
    common.add_argument("--degrees", action="store_true",
                        help="interpret angle parameters as degrees")

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("shape", choices=sorted(SHAPES))
    kinds = {name: kind for s in SHAPES.values() for name, kind in s.params.items()}
    for name, kind in kinds.items():
        if kind == "N":
            shape.add_argument(f"--{name}", type=str, default=None,
                               help="comma-separated edge list for ndim-orthoscheme")
        else:
            shape.add_argument(f"--{name}", type=float, default=None)

    ap = argparse.ArgumentParser(prog="hypervol", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("vol", parents=[shape, common], help="volume of one shape")

    pc = sub.add_parser("convert", parents=[common], help="orthoscheme parameter conversion")
    pc.add_argument("direction", choices=("edges-to-angles", "angles-to-edges"))
    for flag in ("a", "b", "c", "alpha", "beta", "gamma", "delta"):
        pc.add_argument(f"--{flag}", type=float, default=None)

    px = sub.add_parser("crosscheck", parents=[common], help="cross-validation grids")
    px.add_argument("suite", choices=("orthoscheme", "tetrahedra", "solids", "all"))
    px.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    px.add_argument("--seed", type=int, default=20121023)

    pm = sub.add_parser("mc", parents=[shape, common], help="Monte-Carlo check of one shape")
    pm.add_argument("--samples", type=int, default=1_000_000)
    pm.add_argument("--seed", type=int, default=0)

    pb = sub.add_parser("batch", parents=[common],
                        help="run an array of job objects from a JSON file")
    pb.add_argument("jobs", help="path to jobs.json")
    return ap


def _volume_record(shape: str, params: dict, k: float, reltol: float) -> dict:
    v, method, err = compute_volume(shape, params, k, reltol)
    return {"shape": shape, "params": params, "k": k,
            "volume": v, "method": method, "error_estimate": err}


def _mc_fields(shape: str, params: dict, k: float, analytic: float, samples, seed) -> dict:
    """Monte-Carlo estimate of the shape's volume and its z-score against ``analytic``."""
    est = mc_oracle.estimate(SHAPES[shape].mc_region(*params.values(), k=k), samples, seed)
    z = (est.mean - analytic) / est.stderr if est.stderr > 0 else 0.0
    return {"mc_mean": est.mean, "mc_stderr": est.stderr, "z_score": z,
            "samples": est.samples, "seed": est.seed}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_vol(args) -> int:
    params = collect_params(args.shape, vars(args), args.degrees)
    _write(args, [_volume_record(args.shape, params, args.k, args.reltol)])
    return EXIT_OK


def _cmd_convert(args) -> int:
    to_angles = args.direction == "edges-to-angles"
    for f in ("a", "b", "c") if to_angles else ("alpha", "beta", "gamma"):
        if getattr(args, f) is None:
            raise DomainError(f"{args.direction} requires --{f}")
    if to_angles:
        e = orthoscheme.OrthoschemeEdges(args.a / args.k, args.b / args.k, args.c / args.k)
        ang = orthoscheme.edges_to_angles(e)
    else:
        conv = math.radians if args.degrees else float
        ang = orthoscheme.OrthoschemeAngles(
            conv(args.alpha), conv(args.beta), conv(args.gamma),
            conv(args.delta) if args.delta is not None else None,
        )
        e = orthoscheme.angles_to_edges(ang)
    z = math.atanh(math.tan(ang.delta) * math.tan(ang.beta))
    rec = {"a": e.a * args.k, "b": e.b * args.k, "c": e.c * args.k, "z": z * args.k,
           "alpha": ang.alpha, "beta": ang.beta, "gamma": ang.gamma, "delta": ang.delta}
    _write(args, [rec])
    return EXIT_OK


def _cmd_mc(args) -> int:
    if args.shape not in MC_SHAPES:
        raise DomainError(
            f"shape {args.shape!r} has no Monte-Carlo region; choose from {MC_SHAPES}"
        )
    params = collect_params(args.shape, vars(args), args.degrees)
    analytic, _, _ = compute_volume(args.shape, params, args.k, args.reltol)
    rec = {"shape": args.shape, "params": params, "k": args.k,
           "analytic": analytic,
           **_mc_fields(args.shape, params, args.k, analytic, args.samples, args.seed)}
    _write(args, [rec])
    return EXIT_OK if abs(rec["z_score"]) <= 4.0 else EXIT_CHECK_FAILED


def _row(suite: str, case: int, inputs: dict, values: dict, threshold: float) -> dict:
    """One crosscheck record; max_delta is the largest difference between the routes."""
    delta = max(values.values()) - min(values.values())
    return {"suite": suite, "case": case, "inputs": inputs, "values": values,
            "max_delta": delta, "threshold": threshold, "pass": delta <= threshold}


def _crosscheck_orthoscheme(rows, grid: str, seed: int, reltol: float):
    count = 20 if grid == "coarse" else 40
    tol = Tolerance(rel=min(reltol, 1e-10), abs=1e-14)
    for i, ang in enumerate(orthoscheme.sample_valid_angles(count, seed=seed)):
        e = orthoscheme.angles_to_edges(ang)
        va = orthoscheme.volume_angles(ang)
        ve = orthoscheme.volume_edges(e, tol)
        vb = orthoscheme.bolyai_integral_1(e, tol)
        rows.append(_row(
            "orthoscheme", i, {"alpha": ang.alpha, "beta": ang.beta, "gamma": ang.gamma},
            {"angles": va, "edges": ve, "bolyai1": vb}, 1e-6 * max(1.0, va)))


def _crosscheck_tetrahedra(rows, grid: str, seed: int, reltol: float):
    count = 10 if grid == "coarse" else 25
    tol = Tolerance(rel=min(reltol, 1e-10), abs=1e-14)
    for case, t in enumerate(tetrahedra.sample_near_ideal(count, seed)):
        values = {"derevnin-mednykh": tetrahedra.derevnin_mednykh(t, tol),
                  "murakami-yano": tetrahedra.murakami_yano(t)}
        rows.append(_row("tetrahedra", case, dict(zip("ABCDEF", t.as_tuple())), values, 1e-6))


# closed forms with a quadrature twin, and their inputs at one grid point:
# the sphere grid runs over the radius, the others over q at p = 1
_SOLID_GRIDS = (
    ("sphere", lambda x: {"x": x}),
    ("equidistant", lambda q: {"p": 1.0, "q": q}),
    ("barrel", lambda q: {"p": 1.0, "q": q}),
)


def _crosscheck_solids(rows, grid: str, seed: int, reltol: float):
    pts = [0.25, 0.5, 1.0, 1.5, 2.0] if grid == "coarse" else [0.2 * i for i in range(1, 13)]
    tol = Tolerance(rel=1e-12, abs=1e-15)
    for case, ((shape, inputs), x) in enumerate(itertools.product(_SOLID_GRIDS, pts)):
        p = inputs(x)
        entry = SHAPES[shape]
        values = {"closed": entry.evaluate(*p.values(), tol=tol),
                  "quadrature": entry.twin(*p.values(), tol=tol)}
        rows.append(_row("solids", case, {"shape": shape, **p}, values, 1e-8))


_SUITES = {
    "orthoscheme": _crosscheck_orthoscheme,
    "tetrahedra": _crosscheck_tetrahedra,
    "solids": _crosscheck_solids,
}


def _cmd_crosscheck(args) -> int:
    rows: list[dict] = []
    for name, suite in _SUITES.items():
        if args.suite in ("all", name):
            suite(rows, args.grid, args.seed, args.reltol)
    _write(args, rows)
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_CHECK_FAILED


def _cmd_batch(args) -> int:
    try:
        with open(args.jobs) as fh:
            jobs = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read jobs file: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in jobs file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not isinstance(jobs, list):
        print("error: jobs file must hold a JSON array", file=sys.stderr)
        return EXIT_INVALID

    # validate every job before any output
    prepared = []
    for i, job in enumerate(jobs):
        if not isinstance(job, dict) or "shape" not in job:
            print(f"error: job {i} is not an object with a 'shape'", file=sys.stderr)
            return EXIT_INVALID
        try:
            prepared.append(parse_job(job))
        except DomainError as exc:
            print(f"error: job {i}: {exc}", file=sys.stderr)
            return EXIT_INVALID

    rows: list[dict] = []
    code = EXIT_OK
    for shape, params, k, reltol, mc in prepared:
        try:
            rec = _volume_record(shape, params, k, reltol)
            if mc:
                rec.update(_mc_fields(shape, params, k, rec["volume"], *mc))
                if abs(rec["z_score"]) > 4.0 and code == EXIT_OK:
                    code = EXIT_CHECK_FAILED
            rows.append(rec)
        except (DomainError, ConvergenceError) as exc:
            print(f"error: {shape}: {exc}", file=sys.stderr)
            code = code or _failure(exc)[0]
    _write(args, rows)
    return code


_COMMANDS = {
    "vol": _cmd_vol,
    "convert": _cmd_convert,
    "crosscheck": _cmd_crosscheck,
    "mc": _cmd_mc,
    "batch": _cmd_batch,
}


def main(argv: Sequence[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, ConvergenceError) as exc:
        code, label = _failure(exc)
        print(f"error: {label}: {exc}", file=sys.stderr)
        return code
    except OSError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
