"""Command-line interface tests (driving main() in-process)."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import hypervol
from hypervol import orthoscheme, quadrature, solids, tetrahedra
from hypervol.cli import (
    EXIT_INVALID,
    EXIT_NO_CONVERGENCE,
    EXIT_NOT_REALIZABLE,
    EXIT_OK,
    main,
)
from hypervol.errors import ConvergenceError, DomainError
from hypervol.quadrature import Tolerance
from hypervol.shapes import MC_SHAPES, SHAPES, compute_volume, parse_job

SPHERE_11 = 5.11093270570828898
REGULAR_IDEAL = 1.01494160640965363


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


def test_vol_sphere(capsys):
    code, recs = run(capsys, "vol", "sphere", "--x", "1")
    assert code == EXIT_OK
    assert recs[0]["volume"] == pytest.approx(SPHERE_11, rel=1e-12)
    assert recs[0]["method"] == "closed-form"
    assert recs[0]["shape"] == "sphere"


def test_vol_milnor(capsys):
    third = repr(math.pi / 3)
    code, recs = run(capsys, "vol", "milnor", "--A", third, "--B", third, "--C", third)
    assert code == EXIT_OK
    assert recs[0]["volume"] == pytest.approx(REGULAR_IDEAL, abs=1e-10)


def test_vol_invalid_param_exit_2(capsys):
    assert main(["vol", "sphere", "--x", "-1"]) == EXIT_INVALID
    capsys.readouterr()
    assert main(["vol", "sphere"]) == EXIT_INVALID  # missing parameter
    capsys.readouterr()
    assert main(["vol", "sphere", "--x", "1", "--b", "2"]) == EXIT_INVALID  # stray
    capsys.readouterr()


def test_vol_degrees(capsys):
    code, recs = run(capsys, "vol", "milnor", "--A", "60", "--B", "60", "--C", "60",
                     "--degrees")
    assert code == EXIT_OK
    assert recs[0]["volume"] == pytest.approx(REGULAR_IDEAL, abs=1e-9)


def test_k_scaling(capsys):
    _, r1 = run(capsys, "vol", "sphere", "--x", "2", "--k", "2")
    _, r2 = run(capsys, "vol", "sphere", "--x", "1", "--k", "1")
    assert r1[0]["volume"] == pytest.approx(8.0 * r2[0]["volume"], rel=1e-10)
    _, t1 = run(capsys, "vol", "triangle-2d", "--a", "2", "--b", "2", "--k", "2")
    _, t2 = run(capsys, "vol", "triangle-2d", "--a", "1", "--b", "1", "--k", "1")
    assert t1[0]["volume"] == pytest.approx(4.0 * t2[0]["volume"], rel=1e-8)


def test_vol_ndim(capsys):
    code, recs = run(capsys, "vol", "ndim-orthoscheme", "--edges", "1.0,1.0,1.0")
    assert code == EXIT_OK
    assert recs[0]["volume"] == pytest.approx(0.098404718929, abs=1e-7)


def test_vol_ndim_with_a_long_middle_edge(capsys):
    # exited 4 when x_1 ran outermost: x_2's bound blew up and the budget ran out
    code, recs = run(capsys, "vol", "ndim-orthoscheme", "--edges", "1,19,1,1")
    assert code == EXIT_OK
    assert recs[0]["volume"] == pytest.approx(6.786925261114261e-10, rel=1e-12)


def test_convert_round_trip(capsys):
    code, recs = run(capsys, "convert", "edges-to-angles",
                     "--a", "1", "--b", "1", "--c", "1")
    assert code == EXIT_OK
    rec = recs[0]
    assert rec["z"] == pytest.approx(math.acosh(math.cosh(1.0) ** 3), abs=1e-10)
    code2, recs2 = run(
        capsys, "convert", "angles-to-edges",
        "--alpha", repr(rec["alpha"]), "--beta", repr(rec["beta"]),
        "--gamma", repr(rec["gamma"]),
    )
    assert code2 == EXIT_OK
    for key in ("a", "b", "c"):
        assert recs2[0][key] == pytest.approx(1.0, abs=1e-9)


def test_convert_symmetric_edges(capsys):
    _, recs = run(capsys, "convert", "edges-to-angles", "--a", "0.8", "--b", "1.1",
                  "--c", "0.8")
    assert recs[0]["alpha"] == pytest.approx(recs[0]["gamma"], abs=1e-14)


@pytest.mark.parametrize("edges, k", [((3, 3, 3), 1), ((6, 6, 6), 1), ((15, 2, 15), 1),
                                      ((0.5, 8, 0.5), 1), ((1e-3, 1e-3, 1e-3), 1),
                                      ((30, 4, 30), 2), ((12, 16, 4), 2)])
def test_convert_edges_to_angles_diagonal_against_mpmath(capsys, edges, k):
    # z was atanh(tan delta tan beta), which cancels as tanh z -> 1: 9.2e-12 relative
    # at (3, 3, 3), 3.4% at (6, 6, 6), 41% at (15, 2, 15) and 3.3e-7 at (0.5, 8, 0.5)
    code, recs = run(capsys, "convert", "edges-to-angles",
                     *(f"--{n}={v!r}" for n, v in zip("abc", edges)), "--k", str(k))
    assert code == EXIT_OK
    with mpmath.workdps(50):
        ref = k * mpmath.acosh(mpmath.fprod(mpmath.cosh(mpmath.mpf(e) / k) for e in edges))
    assert recs[0]["z"] == pytest.approx(float(ref), rel=1e-15, abs=0.0)


def test_convert_not_realizable_exit_3(capsys):
    assert main(["convert", "angles-to-edges", "--alpha", "0.3", "--beta", "1.5",
                 "--gamma", "0.3"]) == EXIT_NOT_REALIZABLE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["convert", "edges-to-angles", "--a", "1", "--b", "1", "--c", "1", "--k", "0"],
    ["convert", "angles-to-edges", "--alpha", "0.54", "--beta", "1.1", "--gamma", "0.71",
     "--k", "-1"],
    ["convert", "angles-to-edges", "--alpha", "0.54", "--beta", "1.1", "--gamma", "0.71",
     "--k", "inf"],
])
def test_convert_refuses_non_positive_k(capsys, argv):
    # k = 0 divided by zero (a traceback, exit 1); k = -1 printed negative edges
    assert main(argv) == EXIT_INVALID
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: invalid parameters")


def test_mc_sphere_and_determinism(capsys):
    code, recs = run(capsys, "mc", "sphere", "--x", "1", "--samples", "100000",
                     "--seed", "42")
    assert code == EXIT_OK
    assert abs(recs[0]["z_score"]) <= 4.0
    _, recs2 = run(capsys, "mc", "sphere", "--x", "1", "--samples", "100000",
                   "--seed", "42")
    assert recs2[0]["mc_mean"] == recs[0]["mc_mean"]


def test_mc_unsupported_shape_exit_2(capsys):
    assert main(["mc", "milnor", "--A", "1.0", "--B", "1.0", "--C", "1.14",
                 "--samples", "10000"]) == EXIT_INVALID
    capsys.readouterr()


def test_csv_output(capsys):
    code = main(["vol", "sphere", "--x", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["volume"]) == pytest.approx(SPHERE_11, rel=1e-10)
    assert json.loads(rows[0]["params"]) == {"x": 1.0}


def test_out_file(tmp_path, capsys):
    path = tmp_path / "rec.json"
    code = main(["vol", "sphere", "--x", "1", "--out", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads(path.read_text().strip())
    assert rec["volume"] == pytest.approx(SPHERE_11, rel=1e-12)


def test_crosscheck_solids(capsys):
    code, recs = run(capsys, "crosscheck", "solids", "--grid", "coarse")
    assert code == EXIT_OK
    assert len(recs) == 15
    assert all(r["pass"] for r in recs)


def test_crosscheck_orthoscheme(capsys):
    code, recs = run(capsys, "crosscheck", "orthoscheme", "--grid", "coarse")
    assert code == EXIT_OK
    assert len(recs) >= 20
    assert all(r["pass"] for r in recs)


def test_crosscheck_tetrahedra_rows_are_the_two_routes(capsys):
    code, recs = run(capsys, "crosscheck", "tetrahedra", "--grid", "coarse")
    assert code == EXIT_OK
    tol = Tolerance(rel=1e-10)
    cases = tetrahedra.sample_near_ideal(10, 20121023)
    assert len(recs) == len(cases)
    for rec, t in zip(recs, cases):
        assert rec["pass"]
        assert rec["inputs"] == dict(zip("ABCDEF", t))
        assert rec["values"] == {"derevnin-mednykh": tetrahedra.derevnin_mednykh(t, tol),
                                 "murakami-yano": tetrahedra.murakami_yano(t)}


def test_crosscheck_reads_the_routes_of_the_table(capsys, monkeypatch):
    # a new route is a table entry: the solids rows of the sphere gain its column
    sphere = SHAPES["sphere"]
    extra = sphere._replace(routes={**sphere.routes, "doubled-half": lambda x, tol:
                                    2.0 * solids.sphere_volume(x) / 2.0})
    monkeypatch.setitem(SHAPES, "sphere", extra)
    code, recs = run(capsys, "crosscheck", "solids", "--grid", "coarse")
    assert code == EXIT_OK
    for rec in recs:
        columns = ["closed", "quadrature"]
        if rec["inputs"]["shape"] == "sphere":
            columns.append("doubled-half")
            assert rec["values"]["doubled-half"] == rec["values"]["closed"]
        assert list(rec["values"]) == columns


@pytest.mark.parametrize("reltol, rels", [("1e-13", (1e-13, 1e-13, 1e-13)),
                                          ("1e-8", (1e-10, 1e-10, 1e-12))])
def test_crosscheck_runs_every_suite_at_reltol_below_its_cap(capsys, monkeypatch, reltol,
                                                             rels):
    # the solids suite once ran at 1e-12 whatever --reltol asked for
    seen = {}
    for shape in ("orthoscheme-angles", "derevnin-mednykh", "sphere"):
        entry = SHAPES[shape]
        first = next(iter(entry.routes.values()))

        def spy(*args, tol, shape=shape, first=first):
            seen.setdefault(shape, set()).add(tol.rel)
            return first(*args, tol=tol)

        monkeypatch.setitem(SHAPES, shape, entry._replace(routes={**entry.routes, "spy": spy}))
    code, _ = run(capsys, "crosscheck", "all", "--grid", "coarse", "--reltol", reltol)
    assert code == EXIT_OK
    assert seen == {"orthoscheme-angles": {rels[0]}, "derevnin-mednykh": {rels[1]},
                    "sphere": {rels[2]}}


def test_batch(tmp_path, capsys):
    jobs = [
        {"shape": "sphere", "x": 1.0},
        {"shape": "milnor", "A": math.pi / 3, "B": math.pi / 3, "C": math.pi / 3},
        {"shape": "sphere", "x": 0.5, "k": 2.0,
         "mc": {"samples": 50000, "seed": 3}},
    ]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, recs = run(capsys, "batch", str(path))
    assert code == EXIT_OK
    assert len(recs) == 3
    assert recs[0]["volume"] == pytest.approx(SPHERE_11, rel=1e-10)
    assert "mc_mean" in recs[2]


def test_batch_validation_blocks_all_output(tmp_path, capsys):
    jobs = [{"shape": "sphere", "x": 1.0}, {"shape": "sphere"}]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code = main(["batch", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_INVALID
    assert out.strip() == ""


def test_batch_missing_file(capsys):
    assert main(["batch", "/nonexistent/jobs.json"]) == 5
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the shape table, end to end
# ---------------------------------------------------------------------------

K = 1.3
PI_MINUS_2 = math.pi - 2.0
SIX = dict.fromkeys("ABCDEF", 1.1)

# shape: (CLI parameters, method label, dimension, library volume at curvature 1
# of the parameters rescaled by K: lengths / K, areas / K^2, angles unchanged)
VOL_CASES = {
    "sphere": ({"x": 1.0}, "closed-form", 3, lambda: solids.sphere_volume(1.0 / K)),
    "barrel": ({"p": 1.0, "q": 0.7}, "closed-form", 3,
               lambda: solids.barrel(1.0 / K, 0.7 / K)),
    "barrel-wedge": ({"p": 1.2, "T": 0.8}, "closed-form", 3,
                     lambda: solids.barrel_wedge(1.2 / K, 0.8 / K**2)),
    "cone": ({"b": 1.0, "beta": 0.7}, "quadrature", 3,
             lambda: solids.circular_cone(1.0 / K, 0.7)),
    "equidistant": ({"p": 0.9, "q": 0.6}, "closed-form", 3,
                    lambda: solids.equidistant_body(0.9 / K**2, 0.6 / K)),
    "sector": ({"p": 1.5}, "closed-form", 3, lambda: solids.paraspherical_sector(1.5 / K**2)),
    "asymptotic-cone": ({"b": 1.1}, "closed-form", 3, lambda: solids.asymptotic_cone(1.1 / K)),
    "orthoscheme-edges": ({"a": 1.0, "b": 0.8, "c": 0.6}, "quadrature", 3,
                          lambda: orthoscheme.volume_edges((1.0 / K, 0.8 / K, 0.6 / K))),
    "orthoscheme-angles": ({"alpha": 0.54, "beta": 1.1, "gamma": 0.71}, "lobachevsky-series", 3,
                           lambda: orthoscheme.volume_angles((0.54, 1.1, 0.71))),
    "orthoscheme-one-ideal": ({"b": 1.0, "c": 0.8}, "quadrature", 3,
                              lambda: orthoscheme.volume_one_ideal(1.0 / K, 0.8 / K)),
    "orthoscheme-two-ideal": ({"b": 1.0}, "lobachevsky-series", 3,
                              lambda: orthoscheme.volume_two_ideal_closed(1.0 / K)),
    "ideal-tetra-b": ({"b": 1.0}, "lobachevsky-series", 3,
                      lambda: 4.0 * orthoscheme.volume_two_ideal_closed(1.0 / K)),
    "bolyai-1": ({"a": 1.0, "b": 0.8, "c": 0.6}, "quadrature", 3,
                 lambda: orthoscheme.bolyai_integral_1((1.0 / K, 0.8 / K, 0.6 / K))),
    "bolyai-asym-1": ({"alpha": 0.7, "c": 1.0}, "quadrature", 3,
                      lambda: orthoscheme.bolyai_asymptotic_1(0.7, 1.0 / K)),
    "bolyai-asym-2": ({"amax": 0.5, "b": 1.0}, "quadrature", 3,
                      lambda: orthoscheme.bolyai_asymptotic_2(0.5, 1.0 / K)),
    "ndim-orthoscheme": ({"edges": "0.6,0.5,0.4"}, "nested-quadrature", 3,
                         lambda: orthoscheme.volume_ndim((0.6 / K, 0.5 / K, 0.4 / K))),
    "milnor": ({"A": 1.0, "B": 1.0, "C": PI_MINUS_2}, "lobachevsky-series", 3,
               lambda: tetrahedra.milnor_ideal(1.0, 1.0, PI_MINUS_2)),
    "derevnin-mednykh": (SIX, "quadrature", 3,
                         lambda: tetrahedra.derevnin_mednykh(tuple(SIX.values()))),
    "murakami-yano": (SIX, "clausen-series", 3,
                      lambda: tetrahedra.murakami_yano(tuple(SIX.values()))),
    "lambert-cube": ({"w0": 0.3, "w1": 0.6, "w2": 0.9, "theta": 1.0}, "lobachevsky-series", 3,
                     lambda: tetrahedra.lambert_cube(0.3, 0.6, 0.9, 1.0)),
    "mohanty": ({"A": 1.2, "B": 1.3, "E": 1.4}, "lobachevsky-series", 3,
                lambda: tetrahedra.mohanty_octahedron(1.2, 1.3, 1.4)),
    "triangle-2d": ({"a": 1.0, "b": 0.8}, "nested-quadrature", 2,
                    lambda: orthoscheme.area_right_triangle(1.0 / K, 0.8 / K)),
}

# parameters of the shapes with a Monte-Carlo region
MC_CASES = {
    "sphere": {"x": 1.0},
    "barrel": {"p": 1.0, "q": 0.5},
    "cone": {"b": 1.0, "beta": 0.7},
    "equidistant": {"p": 0.9, "q": 0.6},
    "orthoscheme-edges": {"a": 1.0, "b": 0.8, "c": 0.6},
}


def flags(params):
    return [a for name, v in params.items() for a in (f"--{name}", str(v))]


def run_batch(tmp_path, capsys, jobs, *extra):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code = main(["batch", str(path), *extra])
    out, err = capsys.readouterr()
    return code, out, err


def test_cases_cover_the_table():
    assert set(VOL_CASES) == set(SHAPES)
    assert set(MC_CASES) == set(MC_SHAPES)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_vol_every_shape_is_the_library_value_times_k_dim(shape, capsys):
    params, method, dim, direct = VOL_CASES[shape]
    code, recs = run(capsys, "vol", shape, *flags(params), "--k", str(K))
    assert code == EXIT_OK
    assert recs[0]["method"] == method
    assert recs[0]["volume"] == pytest.approx(direct() * K**dim, rel=1e-12)


@pytest.mark.parametrize("k", [1.0, K])
@pytest.mark.parametrize("shape", sorted(MC_SHAPES))
def test_mc_every_region_agrees_and_repeats(shape, k, capsys):
    argv = ["mc", shape, *flags(MC_CASES[shape]), "--k", str(k), "--samples", "10000",
            "--seed", "5"]
    code, recs = run(capsys, *argv)
    assert code == EXIT_OK
    assert abs(recs[0]["z_score"]) <= 4.0
    _, again = run(capsys, *argv)
    assert again[0]["mc_mean"] == recs[0]["mc_mean"]


def test_readme_shape_table_lists_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and "--" in cells[2]:
            for name in re.findall(r"`([\w-]+)`", cells[1]):
                documented[name] = set(re.findall(r"--(\w+)", cells[2]))
    assert documented == {name: set(s.params) for name, s in SHAPES.items()}


# ---------------------------------------------------------------------------
# regressions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    {"shape": "sphere", "x": 1, "k": "abc"},
    {"shape": "sphere", "x": "one"},
    {"shape": "sphere", "x": 1, "reltol": None},
    {"shape": "sphere", "x": 1, "mc": 5},
    {"shape": "sphere", "x": 1, "mc": {"samples": "many"}},
    {"shape": "sphere", "x": [1]},
    {"shape": ["sphere"], "x": 1},
    {"shape": "ndim-orthoscheme", "edges": 5},
    {"shape": "milnor", "A": 60, "B": 60, "C": 60, "degrees": "false"},
    # JSON booleans are not numbers
    {"shape": "sphere", "x": True, "k": True},
    {"shape": "sphere", "x": 1, "mc": {"samples": 10000, "seed": True}},
    # an empty edge-list item is not skipped
    {"shape": "ndim-orthoscheme", "edges": "0.5,,0.4"},
    {"shape": "ndim-orthoscheme", "edges": "0.5,0.4,"},
    # keys the job does not read
    {"shape": "sphere", "x": 1, "kk": 2},
    {"shape": "milnor", "A": 60, "B": 60, "C": 60, "degress": True},
    {"shape": "sphere", "x": 1, "mc": {"samples": 10000, "sede": 3}},
])
def test_batch_malformed_field_exit_2_before_output(tmp_path, capsys, bad):
    code, out, err = run_batch(tmp_path, capsys, [{"shape": "sphere", "x": 1.0}, bad])
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: job 1: ")


def test_parse_job_mc_field():
    # an empty object runs the defaults; a falsy non-object is refused, not ignored
    job = {"shape": "sphere", "x": 0.5}
    assert parse_job(job)[-1] is None
    assert parse_job({**job, "mc": {}})[-1] == (10 ** 6, 0)
    for bad in (False, 0, "", []):
        with pytest.raises(DomainError, match="mc must be an object"):
            parse_job({**job, "mc": bad})


def test_parse_job_degrees_is_a_json_boolean():
    # only true converts the angles; a string, a number or null is refused, not
    # read for its truthiness
    job = {"shape": "milnor", "A": 60, "B": 60, "C": 60}
    assert parse_job({**job, "degrees": True})[1]["A"] == math.radians(60)
    assert parse_job({**job, "degrees": False})[1]["A"] == parse_job(job)[1]["A"] == 60.0
    for bad in ("false", "true", 1, 0, None, [True]):
        with pytest.raises(DomainError, match="degrees must be true or false"):
            parse_job({**job, "degrees": bad})


def test_batch_out_of_range_value_stays_a_job_error(tmp_path, capsys):
    jobs = [{"shape": "sphere", "x": 1.0}, {"shape": "sphere", "x": 1.0, "k": 0}]
    code, out, err = run_batch(tmp_path, capsys, jobs)
    assert code == EXIT_INVALID
    assert len(out.splitlines()) == 1
    assert err.startswith("error: sphere: ")


# six dihedral angles of no tetrahedron whose vertex-link angle sums all exceed
# pi: no spherical triangle has angles A, B, C, since B + pi < A + C
NOT_A_TETRAHEDRON = {"A": 2.152887623070091, "B": 1.3431230654853088, "C": 2.353904387848959,
                     "D": 1.386255981158629, "E": 1.2023068518788278, "F": 2.0239650757776553}


@pytest.mark.parametrize("shape", ["murakami-yano", "derevnin-mednykh"])
def test_vol_angles_of_no_tetrahedron_exit_3(capsys, shape):
    assert main(["vol", shape, *flags(NOT_A_TETRAHEDRON)]) == EXIT_NOT_REALIZABLE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: not realizable: ")


def test_batch_angles_of_no_tetrahedron_stay_a_job_error(tmp_path, capsys):
    jobs = [{"shape": "murakami-yano", **NOT_A_TETRAHEDRON}, {"shape": "murakami-yano", **SIX}]
    code, out, err = run_batch(tmp_path, capsys, jobs)
    assert code == EXIT_NOT_REALIZABLE
    assert [json.loads(line)["params"] for line in out.splitlines()] == [SIX]
    assert err.startswith("error: murakami-yano: ")


def test_batch_csv_header_is_the_union_of_record_keys(tmp_path, capsys):
    jobs = [{"shape": "sphere", "x": 1.0},
            {"shape": "sphere", "x": 1.0, "mc": {"samples": 10000, "seed": 1}}]
    code, out, _ = run_batch(tmp_path, capsys, jobs, "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["shape", "params", "k", "volume", "method", "error_estimate",
                             "mc_mean", "mc_stderr", "z_score", "samples", "seed"]
    assert rows[0]["mc_mean"] == ""
    assert float(rows[1]["mc_mean"]) == pytest.approx(SPHERE_11, rel=0.05)


@pytest.mark.parametrize("argv", [
    ["sphere", "--x", "800"],
    ["barrel", "--p", "1", "--q", "800"],
    ["equidistant", "--p", "1", "--q", "800"],
])
def test_closed_form_beyond_float_range_exit_2(capsys, argv):
    assert main(["vol", *argv]) == EXIT_INVALID
    assert "exceeds the float range" in capsys.readouterr().err


def test_asymptotic_cone_stays_finite_where_cosh_overflows(capsys):
    code, recs = run(capsys, "vol", "asymptotic-cone", "--b", "800")
    assert code == EXIT_OK
    assert recs[0]["volume"] == pytest.approx(math.pi * (800.0 - math.log(2.0)), rel=1e-14)


@pytest.mark.parametrize("argv", [
    ["vol", "cone", "--b", "800", "--beta", "0.7"],
    ["vol", "orthoscheme-one-ideal", "--b", "800", "--c", "1"],
    ["vol", "triangle-2d", "--a", "800", "--b", "800"],
    ["vol", "sphere", "--x", "1", "--k", "1e200"],
    ["vol", "ndim-orthoscheme", "--edges", "20,0.5,0.5"],
    ["mc", "sphere", "--x", "1", "--samples", "10000", "--seed", "-1"],
    # an empty edge item, which was dropped: 0.5,,0.4 ran as the 2-D orthoscheme
    ["vol", "ndim-orthoscheme", "--edges", "0.5,,0.4"],
    ["vol", "ndim-orthoscheme", "--edges", "0.5,0.4,"],
])
def test_leaked_python_errors_exit_2(capsys, argv):
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["batch", "{jobs}", "--k", "2"],
    ["batch", "{jobs}", "--reltol", "1e-3"],
    ["batch", "{jobs}", "--degrees"],
    ["crosscheck", "solids", "--k", "2"],
    ["crosscheck", "solids", "--degrees"],
    ["convert", "edges-to-angles", "--a", "1", "--b", "1", "--c", "1", "--reltol", "1e-3"],
    ["convert", "angles-to-edges", "--alpha", "0.54", "--beta", "1.1", "--gamma", "0.71",
     "--delta", "0.43"],
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([{"shape": "sphere", "x": 1.0}]))
    assert main([a.format(jobs=jobs) for a in argv]) == EXIT_INVALID
    assert capsys.readouterr().out == ""


def test_ndim_integrates_at_the_requested_tolerance(capsys, monkeypatch):
    seen = []
    route = orthoscheme.volume_ndim

    def spy(edges, tol):
        seen.append(tol)
        return route(edges, tol)

    monkeypatch.setattr(orthoscheme, "volume_ndim", spy)
    code, recs = run(capsys, "vol", "ndim-orthoscheme", "--edges", "0.6,0.5,0.4",
                     "--reltol", "1e-12")
    assert code == EXIT_OK
    assert [t.rel for t in seen] == [1e-12]
    v = recs[0]["volume"]
    assert recs[0]["error_estimate"] == 1e-12 * abs(v)
    reference = orthoscheme.volume_edges((0.4, 0.6, 0.5), Tolerance(rel=1e-14))
    assert v == pytest.approx(reference, abs=recs[0]["error_estimate"])


@pytest.mark.parametrize("command", ["vol", "batch"])
def test_convergence_failure_reports_best_estimate(tmp_path, capsys, monkeypatch, command):
    # the 5-edge path takes about 1,600 evaluations, so a budget of 500 runs out
    budget = 500
    monkeypatch.setattr(quadrature, "_BUDGET", budget)
    with pytest.raises(ConvergenceError) as exc:
        orthoscheme.volume_ndim((1.0, 0.8, 0.6, 0.7, 0.9), Tolerance(rel=1e-10))
    best = exc.value.best
    if command == "vol":
        argv = ["vol", "ndim-orthoscheme", "--edges", "1,0.8,0.6,0.7,0.9"]
    else:
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"shape": "ndim-orthoscheme",
                                     "edges": [1, 0.8, 0.6, 0.7, 0.9]}]))
        argv = ["batch", str(jobs)]
    assert main(argv) == EXIT_NO_CONVERGENCE
    out = capsys.readouterr()
    assert out.out == ""
    first, second = out.err.splitlines()
    assert first.startswith("error: ") and f"evaluation budget {budget} exhausted" in first
    assert second == (f"best estimate: {best.value!r} (error estimate "
                      f"{best.error_estimate!r}, {best.evaluations} evaluations)")
    assert math.isfinite(best.value) and best.evaluations <= budget


def best_estimate(err: str) -> tuple[float, float, int]:
    """(value, error estimate, evaluations) of the best-estimate line on stderr."""
    m = re.fullmatch(r"best estimate: (\S+) \(error estimate (\S+), (\d+) evaluations\)",
                     err.splitlines()[-1])
    assert m, err
    return float(m[1]), float(m[2]), int(m[3])


def test_convergence_failure_best_estimate_is_a_volume(capsys, monkeypatch):
    # at (b, c) = (5, 10) one panel of the one-ideal edge integral cannot meet the
    # tolerance (75 evaluations do), yet it already holds the volume to a few digits;
    # the raw integral is 4 times the volume
    volume = orthoscheme.volume_one_ideal(5.0, 10.0)
    integrate_1d = quadrature.integrate_1d
    monkeypatch.setattr(quadrature, "integrate_1d",
                        lambda f, lo, hi, tol=quadrature.DEFAULT_TOL, max_evals=15:
                        integrate_1d(f, lo, hi, tol, min(max_evals, 15)))
    assert main(["vol", "orthoscheme-one-ideal", "--b", "5", "--c", "10"]) \
        == EXIT_NO_CONVERGENCE
    value, error, evals = best_estimate(capsys.readouterr().err)
    assert evals == 15
    assert value == pytest.approx(volume, rel=1e-3)
    assert 0.0 < error < 0.01


def test_convergence_failure_best_estimate_scales_with_k(capsys, monkeypatch):
    # (2, 1.6, 1.2, 1.4, 1.8) at k = 2 runs the integral of (1, 0.8, 0.6, 0.7, 0.9) at
    # k = 1, times 2^5; it takes about 1,600 evaluations
    monkeypatch.setattr(quadrature, "_BUDGET", 500)
    bests = []
    for edges, k in (("1,0.8,0.6,0.7,0.9", "1"), ("2,1.6,1.2,1.4,1.8", "2")):
        assert main(["vol", "ndim-orthoscheme", "--edges", edges, "--k", k]) \
            == EXIT_NO_CONVERGENCE
        bests.append(best_estimate(capsys.readouterr().err))
    (v1, e1, n1), (v2, e2, n2) = bests
    assert v1 > 0.0 and (v2, e2, n2) == (32.0 * v1, 32.0 * e1, n1)


# one parameter set of each shape with a 1-D quadrature route
QUADRATURE_PARAMS = {
    "sphere": {"x": 1.0},
    "barrel": {"p": 1.0, "q": 0.7},
    "equidistant": {"p": 0.9, "q": 0.6},
    "cone": {"b": 1.0, "beta": 0.7},
    "orthoscheme-edges": {"a": 1.0, "b": 0.8, "c": 0.6},
    "orthoscheme-angles": {"alpha": 0.54, "beta": 1.1, "gamma": 0.71},
    "orthoscheme-one-ideal": {"b": 1.0, "c": 0.8},
    "orthoscheme-two-ideal": {"b": 1.0},
    "ideal-tetra-b": {"b": 1.0},
    "bolyai-1": {"a": 1.0, "b": 0.8, "c": 0.6},
    "bolyai-asym-1": {"alpha": 0.7, "c": 1.0},
    "bolyai-asym-2": {"amax": 0.5, "b": 0.5},
    "derevnin-mednykh": dict.fromkeys("ABCDEF", 1.1),
}


@pytest.mark.parametrize("shape", QUADRATURE_PARAMS)
def test_every_route_fails_with_its_value_as_best_estimate(monkeypatch, shape):
    # every integral converges and then fails with its own result, so each route's
    # best estimate must be exactly the value it returns on success, at any k
    entry, params, k = SHAPES[shape], QUADRATURE_PARAMS[shape], 1.3
    values = tuple(params[name] for name in entry.params)
    tol = Tolerance()
    routes = entry.routes
    expected = {name: route(*values, tol=tol) for name, route in routes.items()}
    volume = compute_volume(shape, params, k)[0]
    integrate_1d = quadrature.integrate_1d

    def converge_then_fail(*args, **kwargs):
        raise ConvergenceError("stub", best=integrate_1d(*args, **kwargs))

    monkeypatch.setattr(quadrature, "integrate_1d", converge_then_fail)
    failed = []
    for name, route in routes.items():
        try:
            got = route(*values, tol=tol)  # a closed form integrates nothing
        except ConvergenceError as exc:
            failed.append(name)
            got = exc.best.value
        assert got == expected[name], name
    assert failed
    if next(iter(routes)) in failed:  # the evaluator
        with pytest.raises(ConvergenceError) as exc:
            compute_volume(shape, params, k)
        assert exc.value.best.value == volume


# the submodules that load on first access, and the modules only the oracle loads
LAZY = ("cli", "mc_oracle", "models", "orthoscheme", "shapes", "solids", "specfun", "tetrahedra")
ORACLE = {"numpy", "hypervol.mc_oracle", "hypervol.models"}


def fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this hypervol."""
    src = str(Path(hypervol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


def cold_main(argv: list[str]) -> tuple[set[str], list[dict]]:
    """The modules that one ``main(argv)`` in a fresh interpreter adds to those
    the bare interpreter holds, and its records."""
    out = fresh("import json, sys\n"
                "bare = set(sys.modules)\n"
                "from hypervol.cli import main\n"
                f"main({argv!r})\n"
                "print(json.dumps(sorted(set(sys.modules) - bare)))\n").splitlines()
    return set(json.loads(out[-1])), [json.loads(line) for line in out[:-1]]


@pytest.mark.parametrize("argv", [
    ["vol", "orthoscheme-angles", "--alpha", "0.54", "--beta", "1.1", "--gamma", "0.71"],
    ["vol", "ndim-orthoscheme", "--edges", "0.6,0.5,0.4"],
    ["vol", "milnor", "--A", "1", "--B", "1", "--C", repr(math.pi - 2.0)],
])
def test_cold_vol_loads_neither_numpy_nor_the_oracle(argv):
    loaded, recs = cold_main(argv)
    assert not loaded & ORACLE
    assert len(recs) == 1


@pytest.mark.parametrize("argv, unused", [
    (["vol", "sphere", "--x", "1"], ("orthoscheme", "tetrahedra", "specfun")),
    (["vol", "milnor", "--A", "1", "--B", "1", "--C", repr(math.pi - 2.0)],
     ("solids", "orthoscheme")),
    (["vol", "orthoscheme-angles", "--alpha", "0.54", "--beta", "1.1", "--gamma", "0.71"],
     ("solids", "tetrahedra")),
    (["vol", "murakami-yano", *(a for n in "ABCDEF" for a in (f"--{n}", "1.1"))],
     ("solids", "orthoscheme")),
    (["convert", "edges-to-angles", "--a", "1", "--b", "0.8", "--c", "0.6"],
     ("solids", "tetrahedra")),
    (["crosscheck", "orthoscheme"], ("solids", "tetrahedra")),
], ids=["vol-sphere", "vol-milnor", "vol-orthoscheme-angles", "vol-murakami-yano", "convert",
        "crosscheck"])
def test_cold_commands_load_only_the_modules_they_run(argv, unused):
    loaded, recs = cold_main(argv)
    assert recs
    assert not loaded & {"dataclasses", "inspect", *ORACLE}
    assert not loaded & {f"hypervol.{m}" for m in unused}


def test_cold_mc_loads_the_oracle_and_matches_in_process(capsys):
    argv = ["mc", "sphere", "--x", "1", "--samples", "10000", "--seed", "3"]
    loaded, recs = cold_main(argv)
    assert ORACLE <= loaded
    assert run(capsys, *argv) == (EXIT_OK, recs)


NAMES = ", ".join(LAZY)


@pytest.mark.parametrize("code", [
    f"from hypervol import {NAMES}",
    f"import {', '.join('hypervol.' + m for m in LAZY)}\n"
    f"{NAMES} = {', '.join('hypervol.' + m for m in LAZY)}",
    f"import hypervol\n{NAMES} = {', '.join('hypervol.' + m for m in LAZY)}",
], ids=["from-import", "import-submodule", "attribute"])
def test_lazy_submodules_load_on_every_kind_of_access(code):
    check = "".join(f"assert {m} is sys.modules['hypervol.{m}']\n" for m in LAZY)
    check = f"\nimport sys\n{check}assert 'numpy' in sys.modules\nprint('ok')\n"
    assert fresh(code + check).split() == ["ok"]


def test_package_import_loads_no_lazy_submodule():
    out = fresh("import json, sys\n"
                "bare = set(sys.modules)\n"
                "import hypervol\n"
                "print(json.dumps(sorted(set(sys.modules) - bare)))\n")
    loaded = set(json.loads(out))
    assert {"hypervol", "hypervol.errors", "hypervol.quadrature"} <= loaded
    assert not loaded & {"dataclasses", "inspect", *(f"hypervol.{m}" for m in LAZY)}


def test_package_attributes():
    out = fresh("import hypervol\n"
                "try:\n    hypervol.nope\nexcept AttributeError as exc:\n    print(exc)\n"
                "from hypervol import *\n"
                "names = dir()\n"
                "print(all(n in names for n in hypervol.__all__))\n")
    assert out.splitlines() == ["module 'hypervol' has no attribute 'nope'", "True"]
