"""Command-line interface.

Grammar:

    hypervol vol SHAPE [shape params] [--k F] [--reltol F] [--degrees]
                       [--format json|csv] [--out PATH]
    hypervol convert {edges-to-angles --a F --b F --c F |
                      angles-to-edges --alpha F --beta F --gamma F [--degrees]} [--k F] [...]
    hypervol crosscheck {orthoscheme | tetrahedra | solids | all}
                       [--grid coarse|fine] [--seed N] [--reltol F] [...]
    hypervol mc SHAPE [shape params] [--samples N] [--seed N] [--k F] [--reltol F]
                      [--degrees] [...]
    hypervol batch JOBS.json [...]

Every command takes --format and --out ([...]) and no flag it does not read.
Angles are radians unless --degrees is given.  Output is one JSON object
per line, or RFC-4180 CSV with --format csv.  Exit codes: 0 success,
1 failed check (crosscheck threshold or |z| > 4 in mc), 2 invalid
parameters, 3 not realizable, 4 quadrature convergence failure, 5 I/O
failure.  On a convergence failure stderr also gives the best estimate
of the volume that the unconverged integral reached, at curvature k and on
the scale of the volume the command would print, with its error estimate
and the evaluation count.

Shapes, their parameters and their volume routes, the crosscheck columns
among them, come from the table in ``hypervol.shapes``; every volume and
Monte-Carlo estimate is computed at curvature 1 with the length/area
parameters rescaled, then multiplied by k**dim.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from functools import cache
from typing import Sequence

import hypervol

from .errors import ConvergenceError, DomainError, NotRealizableError, positive
from .quadrature import DEFAULT_TOL, Tolerance
from .shapes import (MC_DEFAULTS, MC_SHAPES, SHAPES, collect_params, compute_volume, mc_estimate,
                     parse_job)

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


def _report(prefix: str, exc: Exception) -> None:
    """Print a failure to stderr, and a ConvergenceError's best estimate after it."""
    print(f"error: {prefix}: {exc}", file=sys.stderr)
    if isinstance(exc, ConvergenceError):
        best = exc.best
        print(f"best estimate: {best.value!r} (error estimate {best.error_estimate!r}, "
              f"{best.evaluations} evaluations)", file=sys.stderr)


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

@cache  # one parser per process: in-process callers run main() many times
def _build_parser() -> argparse.ArgumentParser:
    def option(*args, **kw):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*args, **kw)
        return p

    output = option("--format", choices=("json", "csv"), default="json")
    output.add_argument("--out", default=None, help="write records to this file")
    k = option("--k", type=float, default=1.0, help="curvature constant (default 1)")
    reltol = option("--reltol", type=float, default=DEFAULT_TOL.rel,
                    help="relative tolerance for quadrature-backed shapes")
    degrees = option("--degrees", action="store_true", help="interpret angle parameters as degrees")

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
    sub.add_parser("vol", parents=[shape, k, reltol, degrees, output], help="volume of one shape")

    pc = sub.add_parser("convert", help="orthoscheme parameter conversion")
    directions = pc.add_subparsers(dest="direction", required=True)
    for name, flags, parents in (("edges-to-angles", "a b c", [k, output]),
                                 ("angles-to-edges", "alpha beta gamma", [k, degrees, output])):
        # no abbreviations: --a must not stand for --alpha
        pd = directions.add_parser(name, parents=parents, allow_abbrev=False)
        for flag in flags.split():
            pd.add_argument(f"--{flag}", type=float, required=True)

    px = sub.add_parser("crosscheck", parents=[reltol, output], help="cross-validation grids")
    px.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    px.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    px.add_argument("--seed", type=int, default=20121023)

    pm = sub.add_parser("mc", parents=[shape, k, reltol, degrees, output],
                        help="Monte-Carlo check of one shape")
    for name, default in MC_DEFAULTS.items():
        pm.add_argument(f"--{name}", type=int, default=default)

    pb = sub.add_parser("batch", parents=[output],
                        help="run an array of job objects from a JSON file")
    pb.add_argument("jobs", help="path to jobs.json")
    return ap


def _volume_record(shape: str, params: dict, k: float, reltol: float) -> dict:
    v, method, err = compute_volume(shape, params, k, reltol)
    return {"shape": shape, "params": params, "k": k,
            "volume": v, "method": method, "error_estimate": err}


def _mc_fields(shape: str, params: dict, k: float, analytic: float, samples, seed) -> dict:
    """Monte-Carlo estimate of the shape's volume and its z-score against ``analytic``."""
    est = mc_estimate(shape, params, k, samples, seed)
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
    k = positive("k", args.k)
    if args.direction == "edges-to-angles":
        a, b, c = args.a / k, args.b / k, args.c / k
        ang = hypervol.orthoscheme.edges_to_angles((a, b, c))
        z = hypervol.orthoscheme._diagonal(a, b, c)
    else:
        conv = math.radians if args.degrees else float
        ang = hypervol.orthoscheme.OrthoschemeAngles(conv(args.alpha), conv(args.beta),
                                                     conv(args.gamma))
        a, b, c = hypervol.orthoscheme.angles_to_edges(ang)
        z = math.atanh(math.tan(ang.delta) * math.tan(ang.beta))
    rec = {"a": a * k, "b": b * k, "c": c * k, "z": z * k,
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


# crosscheck suites: (shape, record inputs) cases of a grid and seed, the routes' rel
# tolerance (--reltol below it), and the pass threshold on max_delta given the first value
_SUITES = {
    "orthoscheme": (
        lambda grid, seed: [
            ("orthoscheme-angles", {"alpha": a.alpha, "beta": a.beta, "gamma": a.gamma})
            for a in hypervol.orthoscheme.sample_valid_angles(20 if grid == "coarse" else 40,
                                                              seed=seed)],
        1e-10, lambda v: 1e-6 * max(1.0, v)),
    "tetrahedra": (
        lambda grid, seed: [
            ("derevnin-mednykh", dict(zip("ABCDEF", t)))
            for t in hypervol.tetrahedra.sample_near_ideal(10 if grid == "coarse" else 25, seed)],
        1e-10, lambda v: 1e-6),
    # closed forms with a quadrature route: the sphere over its radius, the others over q at p = 1
    "solids": (
        lambda grid, seed: [
            (s, {"shape": s, **({"x": x} if s == "sphere" else {"p": 1.0, "q": x})})
            for s in ("sphere", "equidistant", "barrel")
            for x in ([0.25, 0.5, 1.0, 1.5, 2.0] if grid == "coarse"
                      else [0.2 * i for i in range(1, 13)])],
        1e-12, lambda v: 1e-8),
}


def _cmd_crosscheck(args) -> int:
    """Every route of each case's shape; max_delta is the spread of their values."""
    rows: list[dict] = []
    for suite, (cases, cap, threshold) in _SUITES.items():
        if args.suite not in ("all", suite):
            continue
        tol = Tolerance(rel=min(args.reltol, cap))
        for case, (shape, inputs) in enumerate(cases(args.grid, args.seed)):
            entry = SHAPES[shape]
            values = {name: route(*(inputs[p] for p in entry.params), tol=tol)
                      for name, route in entry.routes.items()}
            delta = max(values.values()) - min(values.values())
            limit = threshold(next(iter(values.values())))
            rows.append({"suite": suite, "case": case, "inputs": inputs, "values": values,
                         "max_delta": delta, "threshold": limit, "pass": delta <= limit})
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
            _report(shape, exc)
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
        _report(label, exc)
        return code
    except OSError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
