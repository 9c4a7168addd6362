"""Compare the records of two hypervol source trees, command by command.

    python tools/record_check.py OLD_SRC NEW_SRC

Each SRC is a directory holding the ``hypervol`` package (the ``src`` of a
checkout).  Every command of a fixed argv list runs as ``python -m
hypervol.cli`` in a fresh interpreter against each tree, and the script
reports every command whose stdout, stderr or exit code differs.  The list covers
``vol`` on every table shape at k = 1 and 1.3 (the singular-end routes and
``derevnin-mednykh`` at a few more parameter sets), both ``convert``
directions, ``crosscheck`` on every suite, grid and seed of three, ``mc``
on the Monte-Carlo shapes, a fixed 200-job batch, the CLI error paths and
reproductions of defects found earlier, among them ``vol triangle-2d --a
0.2 --b 17`` and ``vol ndim-orthoscheme --edges 0.5,15,0.5``, whose long
end edge is built last.
Output goes to JSON and CSV where a command writes records.  Job files go
to a temporary directory, which is also the working directory of every
command.  Two commands run at a time, each for at most 120 s; a command
that runs longer on either tree counts as differing, with exit code
"timeout".  After the differences, a summary
gives for every numeric field of the differing JSON records, grouped by
the record's shape (or crosscheck suite), the largest relative change.

A second pass reruns every command of the new tree that draws Monte-Carlo
samples (``mc`` and the batches with ``mc`` jobs) in a child pinned to one
CPU, and reports each whose output or exit code differs from its run on
all CPUs: an estimate must not depend on the core count.

A third pass calls the library directly, in one fresh interpreter per
tree, and compares the ``repr`` of each result: ``coordinate_volume`` on
every chart at three boxes (the orthogonal chart with callable bounds and
permuted axes among them) and on the orthogonal and spherical charts at a
fourth, so that every slot of their product densities is innermost in one
box; ``coordinate_volume`` at n = 2 and n = 5 on every chart with each slot
innermost, a Klein box next to the sphere, a half-space box with x_n
from 1e-3 and at n = 5 the spherical box [(1, 0.2, 2.9), (2, 0.2, 2.9),
(3, 0.2, 2.9), (4, 0, 1.2), (0, 0, 2 pi)], whose four quadrature levels
take three panels each (``slot_boxes``), where a ConvergenceError prints
with its best estimate; ``coordinate_volume`` at n = 4 on the orthogonal,
spherical and Klein charts with the last outer slot before, between and
after the other fixed slots, so that the products and fsum terms that the
chart integral keeps before and after that slot are compared
(``last_slot_boxes``); ``volume_ndim`` at
n = 2..5, ``area_right_triangle`` at two tolerances, ``volume_ndim`` at
rel 1e-10 on paths whose last edge is long, (17, 0.2), (0.5, 15, 0.5)
and (0.5, 0.5, 12, 0.5), on paths that exhausted the evaluation budget
while the x_n level was integrated numerically, (12, 0.5, 0.5),
(10, 0.5, 0.5), (3, 2, 1, 0.5), (2, 2, 2, 2) and (1, 0.8, 0.6, 0.7, 0.9),
at the Coxeter orthoscheme [5,3,3,5], and at n = 4 on (1, 19, 1, 1) and
(0.5, 18, 0.5, 0.5), whose long middle edge exhausted the budget while x_1
ran outermost, (18, 0.5, 0.5, 0.5), a long first edge, (0.5, 0.5, 0.5, 700)
and (1e-300, 0.5, 0.5, 0.5), at n = 3 on (6, 12, 18), (12, 12, 12) and
(18, 0.05, 12), long edges on which the x_1-outer level was up to 3.4e-11
off, and (1e-300, 0.5, 0.5), and ``area_right_triangle`` at legs (0.2, 17),
(1, 25) and (18, 18), where a ConvergenceError prints with its best
estimate and a DomainError with its message, ``volume_edges`` at
edge sets with a long last edge or short edges and at the sets with a long
first edge (11, 3, 0.5), (12, 0.5, 0.5), (15, 0.5, 0.5) and (12, 1, 14),
where the first edge's small scale l ~ tanh b / sinh a is hard to resolve,
and at (800, 1, 1), a first edge past sinh's float range, ``volume_angles``
at a small orthoscheme whose Lobachevsky terms cancel to a volume of 1.8e-9,
``volume_one_ideal`` and ``volume_two_ideal`` from b = 1e-300
to the float-range limit, the DomainError messages of ``integrate_1d`` on
integrands that are NaN at a GK15 panel's centre, at one node pair and at
two, and whose finite values sum past the float range, which no CLI command
reaches, and ``mc_oracle.estimate`` on the five region
builders at 10^5 samples (four chunks) with ``os.sched_getaffinity``
patched to report 1, 2 and 3 CPUs, so that the strides of uneven worker
counts are compared whatever the host's core count, every route of every
table shape at the shape's ``VOL_PARAMS`` point, at curvature 1 and rel
1e-10, so that drift shows in any route, not only in the evaluator that
``vol`` runs, and last the draws of the two crosscheck samplers,
``sample_valid_angles(40, seed)`` and ``sample_near_ideal(25, seed)`` at
seeds 20121023, 7 and 123, the fine grid's cases, one draw a line, so that
a moved draw shows itself and not only through the crosscheck rows built
from it.  No CLI command
reaches the chart integrals or most of these edge sets.  Three failure paths
of the nested quadrature are compared too: the message and best estimate of
the ConvergenceError of ``coordinate_volume`` on the n = 5 half-space box
[(4, 1e-3, 1), (0, 0, 0.5), (1, 0, 0.5), (2, 0, 0.5), (3, 0, 0.5)], whose
outer x_n exhausts the budget, and the
DomainError messages of a Klein box that leaves the ball and of a
half-space box whose outermost x_n does not stay positive, and those of
``coordinate_volume``'s innermost limits: "a bound of integration
variable n gave no number" for a callable bound that returns a string or
None or overflows, "innermost limits must be finite with lo <= hi" for one
that returns inf and for a constant pair with lo > hi, and the Klein
box [(0, 0, 0.5), (1, 0, 0.5), (2, -0.3, 0.9)], whose innermost segment
crosses the sphere where its outer slots stay inside, and the DomainError
of a callable bound that gives a bool, which float() would take for 1 or 0:
``coordinate_volume``'s innermost bound and an outer one giving True, and
an ``integrate_region`` bound giving False.  Library lines
are paired by their label, the text before the result that ends them,
through ``difflib.SequenceMatcher``: a line whose label only one tree
prints is reported as inserted or removed, apart from the changed lines,
and shifts no other pair.  After the differences it prints the largest
relative change of a library value that returned on both trees; a line
that reports an error on either tree is left out.

Exit status: 0 when every command agrees, every pinned rerun matches and
every library result agrees, 1 otherwise, 2 when the new tree's shape
table has a shape the list does not cover.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest.mock import patch

SIX = dict.fromkeys("ABCDEF", 1.1)
# one parameter set per table shape, at curvature 1
VOL_PARAMS = {
    "sphere": {"x": 1.0},
    "barrel": {"p": 1.0, "q": 0.7},
    "barrel-wedge": {"p": 1.2, "T": 0.8},
    "cone": {"b": 1.0, "beta": 0.7},
    "equidistant": {"p": 0.9, "q": 0.6},
    "sector": {"p": 1.5},
    "asymptotic-cone": {"b": 1.1},
    "orthoscheme-edges": {"a": 1.0, "b": 0.8, "c": 0.6},
    "orthoscheme-angles": {"alpha": 0.54, "beta": 1.1, "gamma": 0.71},
    "orthoscheme-one-ideal": {"b": 1.0, "c": 0.8},
    "orthoscheme-two-ideal": {"b": 1.0},
    "ideal-tetra-b": {"b": 1.0},
    "bolyai-1": {"a": 1.0, "b": 0.8, "c": 0.6},
    "bolyai-asym-1": {"alpha": 0.7, "c": 1.0},
    "bolyai-asym-2": {"amax": 0.5, "b": 0.5},
    "ndim-orthoscheme": {"edges": "0.6,0.5,0.4"},
    "milnor": {"A": 1.0, "B": 1.0, "C": math.pi - 2.0},
    "derevnin-mednykh": SIX,
    "murakami-yano": SIX,
    "lambert-cube": {"w0": 0.3, "w1": 0.6, "w2": 0.9, "theta": 1.0},
    "mohanty": {"A": 1.2, "B": 1.3, "E": 1.4},
    "triangle-2d": {"a": 1.0, "b": 0.8},
}
# more parameter sets for the routes that integrate from a singular end
EXTRA_VOL = [
    ("derevnin-mednykh", dict.fromkeys("ABCDEF", math.pi / 3)),  # regular ideal
    ("derevnin-mednykh", dict(zip("ABCDEF", (1.0664993100418816, 1.1883434990835442,
                                             0.9269472528999848, 1.0756645687472814,
                                             1.1792317723915802, 0.9710248857545193)))),
    # one ideal vertex (A + B + C = pi), and a flat tetrahedron of volume 2e-6
    ("derevnin-mednykh", dict(zip("ABCDEF", (0.9893084523104052, 1.1152542354336856,
                                             1.037029965845702, 1.7877337424748292,
                                             1.54005699204667, 0.7894942003133171)))),
    ("derevnin-mednykh", dict(zip("ABCDEF", (1.5425, 0.2837, 1.3823, 1.3181, 1.7889, 1.5999)))),
    *(("orthoscheme-two-ideal", {"b": b}) for b in (0.05, 3.0, 10.0, 30.0, 100.0, 360.0)),
]
MC_PARAMS = {
    "sphere": {"x": 1.0},
    "barrel": {"p": 1.0, "q": 0.5},
    "cone": {"b": 1.0, "beta": 0.7},
    "equidistant": {"p": 0.9, "q": 0.6},
    "orthoscheme-edges": {"a": 1.0, "b": 0.8, "c": 0.6},
}
# dihedral angles of no tetrahedron (CLI exit 3)
NOT_A_TETRAHEDRON = {"A": 2.152887623070091, "B": 1.3431230654853088, "C": 2.353904387848959,
                     "D": 1.386255981158629, "E": 1.2023068518788278, "F": 2.0239650757776553}
MALFORMED_JOBS = [
    {"shape": "sphere", "x": 1, "k": "abc"},
    {"shape": "sphere", "x": "one"},
    {"shape": "sphere", "x": 1, "reltol": None},
    {"shape": "sphere", "x": 1, "mc": 5},
    {"shape": "sphere", "x": 1, "mc": {"samples": "many"}},
    {"shape": "sphere", "x": [1]},
    {"shape": ["sphere"], "x": 1},
    {"shape": "ndim-orthoscheme", "edges": 5},
    {"shape": "sphere", "x": 1, "mc": False},
    # JSON booleans, an empty edge item, and keys the job does not read
    {"shape": "sphere", "x": True, "k": True},
    {"shape": "sphere", "x": 1, "mc": {"samples": 10000, "seed": True}},
    {"shape": "ndim-orthoscheme", "edges": "0.5,,0.4"},
    {"shape": "sphere", "x": 1, "kk": 2},
    {"shape": "orthoscheme-angles", "alpha": 30, "beta": 60, "gamma": 40, "degress": True},
    {"shape": "sphere", "x": 1, "mc": {"samples": 10000, "sede": 3}},
]
FORMATS = (["--format", "json"], ["--format", "csv"])
MC_BATCHES = ("batch200", "mc-defaults")  # job files with mc jobs
WORKERS = 2
# the value of an IntegralResult repr, or a float that ends the line
VALUE = re.compile(r"value=([^,]+),| (-?[0-9.]+(?:e[-+][0-9]+)?)$")
# the result that ends a library line: a float, or a repr such as IntegralResult(...)
RESULT = re.compile(r" (-?[0-9.]+(?:e[-+][0-9]+)?|\w+\(.*\))$")
TIMEOUT_S = 120


def flags(params: dict) -> list[str]:
    return [a for name, v in params.items() for a in (f"--{name}", str(v))]


def batch_jobs() -> list[dict]:
    """200 jobs: every table shape at ten curvatures 0.5 .. 1.85 and two
    tolerances, with a 20,000-sample Monte-Carlo check on every fifth job of
    a Monte-Carlo shape."""
    names = list(VOL_PARAMS)
    jobs = []
    for i in range(200):
        shape = names[i % len(names)]
        job = {"shape": shape, **VOL_PARAMS[shape], "k": 0.5 + 0.15 * (i // len(names)),
               "reltol": 1e-10 if i % 2 else 1e-8}
        if shape in MC_PARAMS and i % 5 == 0:
            job.update(MC_PARAMS[shape], mc={"samples": 20_000, "seed": i})
        jobs.append(job)
    return jobs


def write_job_files(tmp: Path) -> dict[str, str]:
    """Job files by name, written to ``tmp``; returns name -> path."""
    files = {
        "batch200": batch_jobs(),
        "blocked": [{"shape": "sphere", "x": 1.0}, {"shape": "sphere"}],
        "out-of-range": [{"shape": "sphere", "x": 1.0}, {"shape": "sphere", "x": 1.0, "k": 0}],
        "no-tetrahedron": [{"shape": "murakami-yano", **NOT_A_TETRAHEDRON},
                           {"shape": "murakami-yano", **SIX}],
        "sphere": [{"shape": "sphere", "x": 1.0}],
        "mc-defaults": [{"shape": "sphere", "x": 0.5, "mc": {}}],
        "not-an-array": {"shape": "sphere", "x": 1.0},
        **{f"malformed-{i}": [{"shape": "sphere", "x": 1.0}, bad]
           for i, bad in enumerate(MALFORMED_JOBS)},
    }
    paths = {}
    for name, jobs in files.items():
        paths[name] = str(tmp / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(jobs))
    paths["invalid-json"] = str(tmp / "invalid-json.json")
    Path(paths["invalid-json"]).write_text("[{")
    paths["missing"] = str(tmp / "missing" / "jobs.json")
    return paths


def argv_list(jobs: dict[str, str]) -> list[list[str]]:
    out = []
    for shape, params in [*VOL_PARAMS.items(), *EXTRA_VOL]:
        for k in ("1", "1.3"):
            out += [["vol", shape, *flags(params), "--k", k, *f] for f in FORMATS]
    for f in FORMATS:
        out.append(["convert", "edges-to-angles", "--a", "1", "--b", "0.8", "--c", "0.6", *f])
        out.append(["convert", "angles-to-edges", "--alpha", "0.54", "--beta", "1.1",
                    "--gamma", "0.71", *f])
    for suite in ("orthoscheme", "tetrahedra", "solids", "all"):
        for grid in ("coarse", "fine"):
            for seed in ([], ["--seed", "7"], ["--seed", "123"]):
                out += [["crosscheck", suite, "--grid", grid, *seed, *f] for f in FORMATS]
    out += [["crosscheck", "all", "--reltol", "1e-12", *f] for f in FORMATS]
    for shape, params in MC_PARAMS.items():
        out.append(["mc", shape, *flags(params), "--samples", "100000", "--seed", "11"])
    out += [["batch", jobs["batch200"], *f] for f in FORMATS]
    # error paths
    out += [
        ["vol", "sphere", "--x", "-1"],
        ["vol", "sphere"],
        ["vol", "sphere", "--x", "1", "--b", "2"],
        ["vol", "sphere", "--x", "800"],
        ["vol", "barrel", "--p", "1", "--q", "800"],
        ["vol", "equidistant", "--p", "1", "--q", "800"],
        ["vol", "cone", "--b", "800", "--beta", "0.7"],
        ["vol", "orthoscheme-one-ideal", "--b", "800", "--c", "1"],
        ["vol", "triangle-2d", "--a", "800", "--b", "800"],
        ["vol", "sphere", "--x", "1", "--k", "1e200"],
        ["vol", "ndim-orthoscheme", "--edges", "20,0.5,0.5"],
        # an empty edge item, once dropped (the 2-D orthoscheme 0.5, 0.4 ran)
        ["vol", "ndim-orthoscheme", "--edges", "0.5,,0.4"],
        ["vol", "ndim-orthoscheme", "--edges", "0.5,0.4,"],
        ["vol", "murakami-yano", *flags(NOT_A_TETRAHEDRON)],
        ["vol", "derevnin-mednykh", *flags(NOT_A_TETRAHEDRON)],
        ["mc", "sphere", "--x", "1", "--samples", "10000", "--seed", "-1"],
        ["mc", "milnor", "--A", "1.0", "--B", "1.0", "--C", "1.14", "--samples", "10000"],
        ["convert", "angles-to-edges", "--alpha", "0.3", "--beta", "1.5", "--gamma", "0.3"],
        ["convert", "edges-to-angles", "--a", "1"],
        ["convert", "edges-to-angles", "--a", "1", "--b", "1", "--c", "1", "--k", "0"],
        ["convert", "angles-to-edges", "--alpha", "0.54", "--beta", "1.1", "--gamma", "0.71",
         "--k", "-1"],
        # an edge the edge check refuses, and one past the float range of cosh
        ["convert", "edges-to-angles", "--a", "0", "--b", "1", "--c", "1"],
        ["convert", "edges-to-angles", "--a", "800", "--b", "1", "--c", "1"],
        ["crosscheck", "nowhere"],
        ["batch", jobs["blocked"]],
        ["batch", jobs["out-of-range"]],
        ["batch", jobs["no-tetrahedron"]],
        ["batch", jobs["not-an-array"]],
        ["batch", jobs["invalid-json"]],
        ["batch", jobs["missing"]],
        *(["batch", jobs[f"malformed-{i}"]] for i in range(len(MALFORMED_JOBS))),
        # integrands that cancelled to a zero denominator, a negative Lambert cube, NaN k
        ["vol", "bolyai-asym-1", "--alpha", "1e-300", "--c", "2.7"],
        ["vol", "cone", "--b", "1e-160", "--beta", "1e-20"],
        ["vol", "cone", "--b", "1e-160", "--beta", "1e-300"],
        # integrands dividing by a quantity that underflowed to 0 (a ZeroDivisionError
        # traceback in the route, or in convert, before these routes were decorated)
        ["vol", "orthoscheme-edges", "--a", "19", "--b", "5e-324", "--c", "1"],
        ["vol", "bolyai-1", "--a", "1e-200", "--b", "1e-200", "--c", "1e-200"],
        ["convert", "edges-to-angles", "--a", "5e-324", "--b", "5e-324", "--c", "5e-324"],
        # long diagonals, where atanh(tan delta tan beta) cancelled (3.4% and 41% off)
        ["convert", "edges-to-angles", "--a", "6", "--b", "6", "--c", "6"],
        ["convert", "edges-to-angles", "--a", "15", "--b", "2", "--c", "15"],
        ["vol", "lambert-cube", "--w0", "0.168", "--w1", "1.243", "--w2", "0.354",
         "--theta", "0.0498"],
        ["vol", "sphere", "--x", "1", "--k", "nan"],
        # long edges, where an absolute floor of 1e-14 stopped the integrals (about 1e-3
        # relative error), and short ones, where tanh z cancelled (beta 4.4e-3 off at
        # 1e-7, refused at 1e-8)
        ["vol", "ideal-tetra-b", "--b", "360"],
        # the closed form's two ends (the complement series, the subnormal Pi(b)), and
        # the quadrature route near its limit, where 2 sinh l overflowed (exit 2): at the
        # limit 710.4758600739439 itself and just past it
        ["vol", "orthoscheme-two-ideal", "--b", "1e-300"],
        ["vol", "orthoscheme-two-ideal", "--b", "710"],
        ["vol", "ideal-tetra-b", "--b", "710.4758600739439"],
        ["vol", "ideal-tetra-b", "--b", "710.4759"],
        ["vol", "orthoscheme-one-ideal", "--b", "100", "--c", "1"],
        ["vol", "orthoscheme-edges", "--a", "1", "--b", "360", "--c", "0.6"],
        # a long first edge, where the edge integral was 1.1e-9 off with exit 0
        ["vol", "orthoscheme-edges", "--a", "11", "--b", "3", "--c", "0.5"],
        # a first edge past sinh's float range, whose mirror (c, b, a) is in range (refused
        # before), and both end edges past it (refused)
        ["vol", "orthoscheme-edges", "--a", "800", "--b", "1", "--c", "1"],
        ["vol", "orthoscheme-edges", "--a", "800", "--b", "1", "--c", "900"],
        ["convert", "edges-to-angles", "--a", "1e-7", "--b", "1e-7", "--c", "1e-7"],
        ["convert", "edges-to-angles", "--a", "1e-8", "--b", "1e-8", "--c", "1e-8"],
        # a long first edge whose nested integral ran past any per-call budget (exit 4,
        # now exit 0), and the same integral at k = 2, whose volume is 2^3 times as large
        ["vol", "ndim-orthoscheme", "--edges", "12,0.5,0.5"],
        ["vol", "ndim-orthoscheme", "--edges", "24,1,1", "--k", "2"],
        # a long end edge built last, which ran out of evaluations while it entered a
        # bound as tanh; the integral now runs along it
        ["vol", "triangle-2d", "--a", "0.2", "--b", "17"],
        ["vol", "ndim-orthoscheme", "--edges", "0.5,15,0.5"],
        # a small orthoscheme that an absolute determinant test called degenerate (now exit 0)
        ["mc", "orthoscheme-edges", "--a", "1e-5", "--b", "1e-5", "--c", "1e-5"],
        # orthoscheme vertices placed in the ball at k != 1
        ["mc", "orthoscheme-edges", "--a", "1.0", "--b", "0.8", "--c", "0.6", "--k", "1.3"],
        # an area parameter, which rescales by 1/k^2, and a length at k = 2
        ["mc", "equidistant", "--p", "0.9", "--q", "0.6", "--k", "0.7", "--samples", "100000",
         "--seed", "11"],
        ["mc", "sphere", "--x", "1.0", "--k", "2.0", "--samples", "100000", "--seed", "11"],
        # an empty mc object, which runs the default 10^6 samples at seed 0
        ["batch", jobs["mc-defaults"]],
        ["convert", "edges-to-angles", "--a", "1", "--b", "1", "--c", "1", "--k", "nan"],
        # flags a command does not read
        ["batch", jobs["sphere"], "--k", "2", "--reltol", "1e-3", "--degrees"],
        ["crosscheck", "solids", "--k", "2"],
        ["crosscheck", "solids", "--degrees"],
        ["convert", "edges-to-angles", "--a", "1", "--b", "1", "--c", "1", "--reltol", "1e-3"],
        ["convert", "angles-to-edges", "--alpha", "0.54", "--beta", "1.1", "--gamma", "0.71",
         "--delta", "0.43"],
    ]
    return out


def numeric_fields(record, prefix="") -> dict[str, float]:
    """The numbers of a JSON record by dotted path (nested objects flattened)."""
    out = {}
    for key, v in record.items():
        if isinstance(v, dict):
            out.update(numeric_fields(v, f"{prefix}{key}."))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[prefix + key] = float(v)
    return out


def record_changes(out_o: str, out_n: str, changes: dict) -> None:
    """Fold the numeric field changes of two JSON-lines outputs into
    ``changes``: (group, field) -> (largest relative change, old, new)."""
    lines_o, lines_n = out_o.splitlines(), out_n.splitlines()
    if len(lines_o) != len(lines_n):
        return
    for lo, ln in zip(lines_o, lines_n):
        try:
            ro, rn = json.loads(lo), json.loads(ln)
        except ValueError:
            return  # CSV: the JSON run of the same command covers it
        if not (isinstance(ro, dict) and isinstance(rn, dict)):
            return
        group = ro.get("shape") or ro.get("suite") or "?"
        fo, fn = numeric_fields(ro), numeric_fields(rn)
        for field in fo.keys() & fn.keys():
            o, n = fo[field], fn[field]
            if o == n:
                continue
            rel = abs(n - o) / abs(o) if o else math.inf
            if rel > changes.get((group, field), (-1.0,))[0]:
                changes[group, field] = (rel, o, n)


def orthogonal_box(e: tuple, k: float) -> list:
    """The orthogonal-chart bounds of the orthoscheme with edges e at
    curvature k, integrated over slot 2, then 0, then 1."""
    r0 = math.tanh(e[0] / k) / math.sinh(e[2] / k)
    r1 = math.tanh(e[1] / k) / math.sinh(e[0] / k)
    return [(2, 0.0, e[2]),
            (0, 0.0, lambda x2: k * math.atanh(r0 * math.sinh(x2 / k))),
            (1, 0.0, lambda x2, x0: k * math.atanh(r1 * math.sinh(x0 / k)))]


def slot_boxes(n: int):
    """(system, bounds) of a box at dimension n for every chart with each slot
    innermost, the other slots outside it in slot order; at n = 2 the innermost
    upper limit is a function of the outer variable, so that the outer level
    refines.  Then a Klein box whose far corner is 2e-3 from the sphere in |X|^2
    and a half-space box whose x_n starts at 1e-3; at n = 5 also a spherical box
    whose four quadrature levels take three panels each."""
    # narrow enough that at n = 5 a tree whose innermost level runs quadrature too
    # mostly finishes each of its five levels in one panel, within the budget
    ranges = {"paracycle": [(0.0, 0.6)] * (n - 1) + [(-0.2, 0.5)],
              "halfspace": [(0.0, 0.6)] * (n - 1) + [(0.8, 1.2)],
              "orthogonal": [(-0.3, 0.5)] * n,
              "spherical": [(0.0, 2 * math.pi)] + [(0.6, 1.4)] * (n - 2) + [(0.0, 0.6)],
              "klein": [(-0.2, 0.25)] * n}
    for system, r in ranges.items():
        for free in range(n):
            lo, hi = r[free]
            if n == 2:
                hi = lambda x, lo=lo, hi=hi: lo + (hi - lo) / (1.0 + x * x)
            yield system, [(ax, *r[ax]) for ax in range(n) if ax != free] + [(free, lo, hi)]
    yield "klein", [(0, 0.6, 0.7), *((ax, 0.0, 0.01) for ax in range(1, n - 1)), (n - 1, 0.7, 0.712)]
    yield "halfspace", [*((ax, 0.0, 0.5) for ax in range(n - 1)), (n - 1, 1e-3, 2e-3)]
    if n == 5:
        yield "spherical", [(1, 0.2, 2.9), (2, 0.2, 2.9), (3, 0.2, 2.9), (4, 0.0, 1.2),
                            (0, 0.0, 2 * math.pi)]


def last_slot_boxes():
    """(system, bounds) of n = 4 boxes of the orthogonal, spherical and Klein
    charts, the last outer slot before, between and after the other fixed
    slots: slot 1 innermost at each of last slots 0, 2 and 3, and for the
    orthogonal chart also slot 3 (no factor) innermost at last slots 0, 1, 2."""
    # (system, slot ranges, innermost slots)
    charts = (("orthogonal", [(-0.3, 0.5)] * 4, (1, 3)),
              ("spherical", [(0.0, 2 * math.pi), (0.6, 1.4), (0.6, 1.4), (0.0, 0.6)], (1,)),
              ("klein", [(-0.2, 0.25)] * 4, (1,)))
    for system, r, frees in charts:
        for free in frees:
            for last in (ax for ax in range(4) if ax != free):
                axes = [ax for ax in range(4) if ax not in (free, last)] + [last, free]
                yield system, [(ax, *r[ax]) for ax in axes]


def print_library_results() -> None:
    """Print the repr of every library result of the third pass, one a line."""
    from hypervol import mc_oracle as mc
    from hypervol.errors import SINH_MAX, ConvergenceError, DomainError
    from hypervol.models import coordinate_volume
    from hypervol.orthoscheme import (area_right_triangle, sample_valid_angles, volume_angles,
                                      volume_edges, volume_ndim, volume_one_ideal,
                                      volume_two_ideal)
    from hypervol.quadrature import Tolerance, integrate_1d, integrate_region
    from hypervol.shapes import SHAPES, collect_params
    from hypervol.tetrahedra import sample_near_ideal

    boxes = {
        "paracycle": [([(0, 0.0, 0.8), (1, 0.0, 1.1), (2, 0.0, 0.9)], 1.0),
                      ([(2, 0.0, 0.5), (0, 0.0, 1.3), (1, 0.0, 0.4)], 1.25),
                      ([(0, -0.4, 0.3), (1, 0.0, 1.0), (2, -0.2, 1.5)], 0.8)],
        "halfspace": [([(0, 0.0, 1.0), (1, 0.0, 1.0), (2, 1.0, 2.0)], 1.0),
                      ([(2, 0.4, 1.7), (0, 0.0, 0.6), (1, 0.0, 1.2)], 1.25),
                      ([(0, 0.0, 0.3), (1, 0.0, 0.9), (2, 0.3, lambda x0, x1: 0.5 + x0)], 0.8)],
        "orthogonal": [([(0, 0.0, 0.5), (1, 0.0, 0.7), (2, 0.0, 0.3)], 1.0),
                       (orthogonal_box((0.9, 0.7, 0.6), 1.0), 1.0),
                       (orthogonal_box((0.5, 1.1, 0.8), 1.25), 1.25),
                       # slot 0 innermost: the free factor first in the product
                       ([(1, 0.0, 0.6), (2, 0.0, 0.5), (0, 0.0, lambda x1, x2: 0.4 + x1)], 1.1)],
        "spherical": [([(0, 0.0, 2 * math.pi), (1, 0.0, math.pi), (2, 0.0, 1.0)], 1.0),
                      ([(2, 0.0, 1.4), (1, 0.2, 2.0), (0, 0.0, 3.0)], 1.25),
                      ([(0, 0.0, 1.0), (1, 0.0, math.pi), (2, 0.0, lambda p0, p1: 0.5 + p1 / 4)],
                       0.8),
                      # the polar angle innermost: the free factor last in the product
                      ([(2, 0.0, 1.2), (0, 0.0, 5.0), (1, 0.3, lambda r, p0: 2.0 + r / 2)], 0.9)],
        "klein": [([(0, -0.3, 0.3), (1, -0.3, 0.3), (2, -0.2, 0.4)], 1.0),
                  ([(1, -0.5, 0.1), (2, -0.1, 0.4), (0, -0.2, 0.3)], 1.25),
                  ([(0, -0.1, 0.3), (1, 0.0, lambda x0: 0.2 + x0), (2, -0.3, 0.2)], 0.8)],
    }
    for system, cases in boxes.items():
        for bounds, k in cases:
            print(system, k, repr(coordinate_volume(system, bounds, 3, k)))
    for n in (2, 5):
        for system, bounds in slot_boxes(n):
            axes = [ax for ax, _, _ in bounds]
            try:
                print(system, n, axes, repr(coordinate_volume(system, bounds, n, 1.25)))
            except ConvergenceError as exc:
                print(system, n, axes, "ConvergenceError", exc, repr(exc.best))
    for system, bounds in last_slot_boxes():
        axes = [ax for ax, _, _ in bounds]
        print(system, 4, axes, repr(coordinate_volume(system, bounds, 4, 1.25)))
    for edges in ((0.6, 0.5), (0.6, 0.5, 0.4), (0.4, 0.5, 0.3, 0.4), (0.3, 0.3, 0.3, 0.3, 0.3)):
        print("volume_ndim", edges, repr(volume_ndim(edges)))
    for tol in (Tolerance(rel=1e-6), Tolerance()):
        print("area_right_triangle", tol, repr(area_right_triangle(1.0, 0.8, tol)))
    # a long end edge built last (the integral runs along it), both triangle legs long,
    # paths that exhausted the evaluation budget while x_1's bound blew up at the end of
    # the x_n range (a long first edge among them), and the Coxeter orthoscheme [5,3,3,5]
    # of volume 13 pi^2 / 5400; at n = 4, long middle edges, whose x_2 bound blew up at
    # the end of the x_1 range, a long first edge, which packs the closed-form x_1
    # level's range into x_2 < 1e-8, a long last edge, and a first edge of 1e-300; at
    # n = 3, long edges and a first edge of 1e-300
    long_end = [(volume_ndim, (edges,)) for edges in (
        (17.0, 0.2), (0.5, 15.0, 0.5), (0.5, 0.5, 12.0, 0.5),
        (12.0, 0.5, 0.5), (10.0, 0.5, 0.5), (3.0, 2.0, 1.0, 0.5), (2.0, 2.0, 2.0, 2.0),
        (1.0, 0.8, 0.6, 0.7, 0.9),
        (1.0612750619050368, 1.0612750619050364, 1.6169216675118945, 1.616921667511897),
        (1.0, 19.0, 1.0, 1.0), (0.5, 18.0, 0.5, 0.5), (18.0, 0.5, 0.5, 0.5),
        (0.5, 0.5, 0.5, 700.0), (1e-300, 0.5, 0.5, 0.5),
        (6.0, 12.0, 18.0), (12.0, 12.0, 12.0), (18.0, 0.05, 12.0), (1e-300, 0.5, 0.5))]
    long_end += [(area_right_triangle, legs) for legs in ((0.2, 17.0), (1.0, 25.0), (18.0, 18.0))]
    for route, args in long_end:
        try:
            print(route.__name__, *args, repr(route(*args, tol=Tolerance(rel=1e-10))))
        except ConvergenceError as exc:
            print(route.__name__, *args, "ConvergenceError", exc, repr(exc.best))
        except DomainError as exc:
            print(route.__name__, *args, "DomainError", exc)
    # the log singularity just beyond the end of the edge integral (large c), and short edges
    for edges in ((1.0, 1.0, 19.0), (1.0, 1.0, 30.0), (0.3, 0.3, 12.0), (1.0, 30.0, 30.0),
                  (1e-8, 1.0, 1.0), (1.0, 1e-8, 1.0), (1.0, 1.0, 1e-8), (1e-8, 1e-8, 1e-8),
                  (1e-3, 1e-3, 1e-3),
                  # a long first edge, and both end edges long
                  (11.0, 3.0, 0.5), (12.0, 0.5, 0.5), (15.0, 0.5, 0.5), (12.0, 1.0, 14.0)):
        print("volume_edges", edges, repr(volume_edges(edges)))
    # a first edge past sinh's float range, whose mirror (1, 1, 800) is in range
    try:
        print("volume_edges", (800.0, 1.0, 1.0), repr(volume_edges((800.0, 1.0, 1.0))))
    except DomainError as exc:
        print("volume_edges DomainError", exc)
    # a small orthoscheme, where the Lobachevsky terms cancel to a volume of 1.8e-9
    print("volume_angles", repr(volume_angles((0.9523280858329219, 1.0862960938896389,
                                               0.6085201856818294))))
    # a GK15 panel's messages: NaN at the centre, at one node of a pair, at nodes of two
    # pairs (the earlier in evaluation order is named), and finite values whose sum overflows
    for bad in ((0.5,), (0.9324322116798845,), (0.06756778832011545, 0.7029225756886985)):
        try:
            integrate_1d(lambda x: math.nan if x in bad else 1.0, 0.0, 1.0)
        except DomainError as exc:
            print("integrate_1d DomainError", bad, exc)
    try:
        integrate_1d(lambda x: 1e308, 0.0, 4.0)
    except DomainError as exc:
        print("integrate_1d DomainError", exc)
    for b in (1e-300, 1.0, 360.0, 710.0, SINH_MAX):
        print("volume_one_ideal", b, repr(volume_one_ideal(b, 1.0)))
        print("volume_two_ideal", b, repr(volume_two_ideal(b)))
    # failure paths: the budget of a nested integral runs out (an n = 5 half-space box whose
    # outer x_n spans three decades of x_n^-5, each node paying 15^3 inner evaluations),
    # and a box leaves the ball
    try:
        print("halfspace 5", repr(coordinate_volume(
            "halfspace", [(4, 1e-3, 1.0), (0, 0.0, 0.5), (1, 0.0, 0.5), (2, 0.0, 0.5),
                          (3, 0.0, 0.5)], 5)))
    except ConvergenceError as exc:
        print("halfspace 5 ConvergenceError", exc, repr(exc.best))
    try:
        print("klein", repr(coordinate_volume("klein", [(0, -0.5, 0.9), (1, -0.5, 0.5),
                                                        (2, -0.3, 0.3)], 3)))
    except DomainError as exc:
        print("klein DomainError", exc)
    # a half-space box whose outermost x_n leaves the half-space
    try:
        print("halfspace", repr(coordinate_volume("halfspace", [(2, -0.5, 1.0), (0, 0.0, 1.0),
                                                                (1, 0.0, 1.0)], 3)))
    except DomainError as exc:
        print("halfspace DomainError", exc)
    # the innermost limits, resolved at each evaluation: a callable bound that gives a
    # string, None or an overflow, or inf, a constant pair with lo > hi, and a Klein box
    # whose innermost segment crosses the sphere where its outer slots stay inside
    for name, lo, hi in (("string", lambda x2, x0: "x", 0.4), ("none", 0.0, lambda x2, x0: None),
                         ("overflow", 0.0, lambda x2, x0: math.exp(1000.0)),
                         ("inf", 0.0, lambda x2, x0: math.inf), ("lo-above-hi", 0.5, 0.2)):
        try:
            print("orthogonal innermost", name, repr(coordinate_volume(
                "orthogonal", [(2, 0.0, 0.6), (0, 0.0, 0.5), (1, lo, hi)], 3)))
        except DomainError as exc:
            print("orthogonal innermost", name, "DomainError", exc)
    try:
        print("klein crossing", repr(coordinate_volume("klein", [(0, 0.0, 0.5), (1, 0.0, 0.5),
                                                                 (2, -0.3, 0.9)], 3)))
    except DomainError as exc:
        print("klein crossing DomainError", exc)
    # a callable bound that gives a bool: coordinate_volume's innermost bound and an outer
    # one, and a bound of integrate_region
    for name, route in (
            ("innermost", lambda: coordinate_volume("paracycle", [(0, 0, 1), (1, 0, 1),
                                                                  (2, 0, lambda *a: True)], 3)),
            ("outer", lambda: coordinate_volume("paracycle", [(0, 0, 1), (1, 0, lambda x: True),
                                                              (2, 0, 1)], 3)),
            ("integrate_region", lambda: integrate_region(lambda x: (lambda y: 1.0),
                                                          [(0, 1), (0, lambda x: False)]))):
        try:
            print("bool bound", name, repr(route()))
        except DomainError as exc:
            print("bool bound", name, "DomainError", exc)
    regions = (mc.region_simplex(mc.orthoscheme_vertices(1.0, 0.8, 0.6)), mc.region_ball(1.0),
               mc.region_barrel(1.0, 0.5), mc.region_cone(1.0, 0.7),
               mc.region_slab((0.6, 0.4), 0.7))
    for cpus in (1, 2, 3):
        with patch.object(mc.os, "sched_getaffinity", lambda pid: set(range(cpus))):
            for region in regions:
                print("mc_oracle.estimate", region.name, cpus,
                      repr(mc.estimate(region, 100_000, 11)))
    # every route of every table shape, not only the evaluator that vol runs
    for shape, params in VOL_PARAMS.items():
        values = collect_params(shape, params, False).values()
        for name, route in SHAPES[shape].routes.items():
            print("route", shape, name, repr(route(*values, tol=Tolerance())))
    # the crosscheck suites' cases: each sampler's fine-grid draws at the three seeds of the
    # crosscheck commands (a coarse grid takes the first draws of the same stream)
    for seed in (20121023, 7, 123):
        for i, ang in enumerate(sample_valid_angles(40, seed)):
            print("sample_valid_angles", seed, i, repr(ang))
        for i, t in enumerate(sample_near_ideal(25, seed)):
            print("sample_near_ideal", seed, i, *t)


def line_label(line: str) -> str:
    """A library result line without its result: the float or the repr that ends it."""
    m = RESULT.search(line)
    return line[:m.start()] if m else line


def pair_lines(old: list[str], new: list[str]) -> tuple[list, list[str], list[str]]:
    """(changed, removed, inserted): the (old, new) pairs of differing lines with
    the same label, and the lines of either pass whose label the other lacks.
    Lines are aligned by label (``difflib.SequenceMatcher``), so a line inserted
    or removed anywhere moves no other line's pairing."""
    changed, removed, inserted = [], [], []
    matcher = difflib.SequenceMatcher(None, [line_label(o) for o in old],
                                      [line_label(n) for n in new], autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            changed += [(o, n) for o, n in zip(old[i1:i2], new[j1:j2]) if o != n]
        else:
            removed += old[i1:i2]
            inserted += new[j1:j2]
    return changed, removed, inserted


def line_value(line: str | None) -> float | None:
    """The value of a library result line: its IntegralResult's, or the float that ends it."""
    m = VALUE.search(line or "")
    return float(m[1] or m[2]) if m else None


def uses_mc(argv: list[str]) -> bool:
    return argv[0] == "mc" or argv[0] == "batch" and Path(argv[1]).stem in MC_BATCHES


def one_cpu() -> None:
    """Pin the calling process (a child, before exec) to its lowest CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def python(path: str, args: list[str], cwd: str,
           pin: bool = False) -> tuple[int | str, str, str]:
    """(exit code, stdout, stderr) of ``python args`` on PYTHONPATH ``path``,
    on one CPU if ``pin``; ("timeout", "", "") past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": path}
    try:
        p = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                           capture_output=True, text=True, timeout=TIMEOUT_S,
                           preexec_fn=one_cpu if pin else None)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return p.returncode, p.stdout, p.stderr


def run(src: str, argv: list[str], cwd: str,
        pin: bool = False) -> tuple[int | str, str, str]:
    """The result of one hypervol command (see ``python``)."""
    return python(src, ["-m", "hypervol.cli", *argv], cwd, pin)


def library_results(src: str, cwd: str) -> tuple[int | str, str, str]:
    """The result of print_library_results() against ``src`` (see ``python``)."""
    path = os.pathsep.join((src, str(Path(__file__).resolve().parent)))
    return python(path, ["-c", "import record_check; record_check.print_library_results()"], cwd)


def table_shapes(src: str, cwd: str) -> set[str]:
    code = "import json; from hypervol.shapes import SHAPES; print(json.dumps(list(SHAPES)))"
    p = subprocess.run([sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                       capture_output=True, text=True, check=True)
    return set(json.loads(p.stdout))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="src directory of the reference tree")
    ap.add_argument("new", help="src directory of the tree under test")
    args = ap.parse_args(argv)
    old, new = (str(Path(p).resolve()) for p in (args.old, args.new))

    with tempfile.TemporaryDirectory() as tmp:
        missing = table_shapes(new, tmp) - set(VOL_PARAMS)
        if missing:
            print(f"shapes without parameters in VOL_PARAMS: {sorted(missing)}")
            return 2
        argvs = argv_list(write_job_files(Path(tmp)))
        mc_argvs = [a for a in argvs if uses_mc(a)]
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(lambda a: (run(old, a, tmp), run(new, a, tmp)), argvs))
            pinned = list(pool.map(lambda a: run(new, a, tmp, pin=True), mc_argvs))
            lib_o, lib_n = pool.map(lambda src: library_results(src, tmp), (old, new))
        differ = 0
        changes: dict = {}
        for a, (res_o, res_n) in zip(argvs, results):
            if res_o == res_n and res_o[0] != "timeout":
                continue
            differ += 1
            (code_o, out_o, err_o), (code_n, out_n, err_n) = res_o, res_n
            record_changes(out_o, out_n, changes)
            print(f"DIFF exit {code_o} -> {code_n}: hypervol {' '.join(a).replace(tmp, '$TMP')}")
            for stream, old_text, new_text in (("stdout", out_o, out_n),
                                               ("stderr", err_o, err_n)):
                diff = difflib.unified_diff(old_text.splitlines(), new_text.splitlines(),
                                            f"old {stream}", f"new {stream}", lineterm="", n=0)
                for line in list(diff)[:12]:
                    print(f"    {line[:200]}")
        unpinned = {tuple(a): res[1] for a, res in zip(argvs, results)}
        pin_differ = 0
        for a, res in zip(mc_argvs, pinned):
            if res == unpinned[tuple(a)] and res[0] != "timeout":
                continue
            pin_differ += 1
            print(f"DIFF on one CPU, exit {unpinned[tuple(a)][0]} -> {res[0]}: "
                  f"hypervol {' '.join(a).replace(tmp, '$TMP')}")
    (lib_code_o, lib_out_o, lib_err_o), (lib_code_n, lib_out_n, lib_err_n) = lib_o, lib_n
    lib_diffs, removed, inserted = pair_lines(lib_out_o.splitlines(), lib_out_n.splitlines())
    for o, n in lib_diffs:
        print(f"DIFF library result: {o} -> {n}")
    for line in removed:
        print(f"DIFF library result removed: {line}")
    for line in inserted:
        print(f"DIFF library result inserted: {line}")
    lib_failed = bool(lib_code_o or lib_code_n)
    if lib_failed:
        print(f"DIFF library pass exit {lib_code_o} -> {lib_code_n}")
        for line in (lib_err_o + lib_err_n).splitlines()[-12:]:
            print(f"    {line[:200]}")
    lib_changes = []
    for o_line, n_line in lib_diffs:
        o, n = line_value(o_line), line_value(n_line)
        # a failure's best estimate, or a number ending its message, is no returned value
        if o and n is not None and "Error" not in f"{o_line}{n_line}":
            lib_changes.append((abs(n - o) / abs(o), n_line))
    if lib_changes:
        rel, line = max(lib_changes)
        print(f"largest relative change of a differing library value: {rel:.3g}  ({line[:160]})")
    if changes:
        print("largest relative change per numeric field of the differing JSON records:")
        for (group, field), (rel, o, n) in sorted(changes.items()):
            print(f"    {group:24s} {field:32s} {rel:.3g}  ({o!r} -> {n!r})")
    print(f"{len(argvs)} commands, {differ} differ")
    print(f"{len(mc_argvs)} Monte-Carlo commands rerun on one CPU, {pin_differ} differ")
    print(f"{len(lib_out_n.splitlines())} library results, {len(lib_diffs)} differ, "
          f"{len(inserted)} inserted, {len(removed)} removed"
          + (", and the pass failed" if lib_failed else ""))
    return 1 if differ or pin_differ or lib_diffs or removed or inserted or lib_failed else 0


if __name__ == "__main__":
    sys.exit(main())
