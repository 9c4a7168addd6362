"""The shape table: every shape the ``hypervol`` CLI and batch jobs accept.

One ``Shape`` entry per name holds the shape's parameters with their kinds
(L = length, scales 1/k; A = area, 1/k^2; R = angle; N = list of lengths),
its dimension, the method label of its evaluator, its named volume routes
and, where it exists, the Monte-Carlo region builder.  The first route is
the shape's evaluator, which ``compute_volume`` calls; the others are
independent routes to the same volume, and ``crosscheck`` compares them
all.  Both the routes and the region builders work at curvature 1;
``compute_volume`` and ``mc_estimate`` rescale the parameters by kind and
scale the result by k**dim.

Routes and builders look their library modules up through the package
when called, as ``hypervol.solids.sphere_volume(x)``, not when this module
is imported.  So a command imports only the modules of the shape it runs
(``mc_oracle``, and with it numpy, only for a Monte-Carlo region), and
wrappers installed on those module attributes see every call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

import hypervol

from .errors import ConvergenceError, DomainError, in_float_range, number, positive, sequence
from .quadrature import DEFAULT_TOL, Tolerance

if TYPE_CHECKING:
    from . import mc_oracle

__all__ = ["Shape", "SHAPES", "MC_SHAPES", "compute_volume", "mc_estimate", "collect_params",
           "parse_job"]

# methods whose value carries no truncation error: their error estimate is 0
EXACT_METHODS = ("closed-form", "lobachevsky-series", "clausen-series")
# the Monte-Carlo settings of a run that names none: the CLI's mc flags and a job's mc keys
MC_DEFAULTS = {"samples": 10 ** 6, "seed": 0}


class Shape(NamedTuple):
    """One shape of the table.

    ``params`` maps names to kinds in call and record order; ``dim`` is None
    when the dimension is the number of edges.  ``routes`` maps route names,
    in record order, to callables that take the parameter values
    positionally, ``route(*values, tol=tol)``, and return the volume at
    curvature 1; the first route is the shape's evaluator, and ``crosscheck``
    compares them all.  ``mc_region(*values)`` builds the Monte-Carlo region
    at curvature 1.
    """

    params: dict[str, str]
    dim: int | None
    method: str
    routes: dict[str, Callable[..., float]]
    mc_region: Callable[..., mc_oracle.Region] | None = None


_SIX = dict.fromkeys("ABCDEF", "R")

SHAPES: dict[str, Shape] = {
    "sphere": Shape({"x": "L"}, 3, "closed-form", {
        "closed": lambda x, tol: hypervol.solids.sphere_volume(x),
        "quadrature": lambda x, tol: hypervol.solids.sphere_volume_by_quadrature(x, tol=tol)},
        mc_region=lambda x: hypervol.mc_oracle.region_ball(x)),
    "barrel": Shape({"p": "L", "q": "L"}, 3, "closed-form", {
        "closed": lambda p, q, tol: hypervol.solids.barrel(p, q),
        "quadrature": lambda p, q, tol: hypervol.solids.barrel_by_quadrature(p, q, tol=tol)},
        mc_region=lambda p, q: hypervol.mc_oracle.region_barrel(p, q)),
    "barrel-wedge": Shape({"p": "L", "T": "A"}, 3, "closed-form", {
        "closed": lambda p, T, tol: hypervol.solids.barrel_wedge(p, T)}),
    "cone": Shape({"b": "L", "beta": "R"}, 3, "quadrature", {
        "quadrature": lambda b, beta, tol: hypervol.solids.circular_cone(b, beta, tol)},
        mc_region=lambda b, beta: hypervol.mc_oracle.region_cone(b, beta)),
    "equidistant": Shape({"p": "A", "q": "L"}, 3, "closed-form", {
        "closed": lambda p, q, tol: hypervol.solids.equidistant_body(p, q),
        "quadrature": lambda p, q, tol:
            hypervol.solids.equidistant_body_by_quadrature(p, q, tol=tol)},
        # base box of area p = 4 w2 sinh w1: w2 fixed at 0.5, w1 from p
        mc_region=lambda p, q: hypervol.mc_oracle.region_slab((math.asinh(p / 2), 0.5), q)),
    "sector": Shape({"p": "A"}, 3, "closed-form", {
        "closed": lambda p, tol: hypervol.solids.paraspherical_sector(p)}),
    "asymptotic-cone": Shape({"b": "L"}, 3, "closed-form", {
        "closed": lambda b, tol: hypervol.solids.asymptotic_cone(b)}),
    "orthoscheme-edges": Shape({"a": "L", "b": "L", "c": "L"}, 3, "quadrature", {
        "edges": lambda *e, tol: hypervol.orthoscheme.volume_edges(e, tol)},
        mc_region=lambda a, b, c: hypervol.mc_oracle.region_simplex(
            hypervol.mc_oracle.orthoscheme_vertices(a, b, c))),
    "orthoscheme-angles": Shape({"alpha": "R", "beta": "R", "gamma": "R"}, 3,
                                "lobachevsky-series", {
        "angles": lambda *a, tol: hypervol.orthoscheme.volume_angles(a),
        "edges": lambda *a, tol: hypervol.orthoscheme.volume_edges(
            hypervol.orthoscheme.angles_to_edges(a), tol),
        "bolyai1": lambda *a, tol: hypervol.orthoscheme.bolyai_integral_1(
            hypervol.orthoscheme.angles_to_edges(a), tol)}),
    "orthoscheme-one-ideal": Shape({"b": "L", "c": "L"}, 3, "quadrature", {
        "edges": lambda b, c, tol: hypervol.orthoscheme.volume_one_ideal(b, c, tol),
        # alpha is the angle at the ideal vertex: tan alpha = tanh c / sinh b
        "bolyai-asym": lambda b, c, tol: hypervol.orthoscheme.bolyai_asymptotic_1(
            math.atan(math.tanh(c) / math.sinh(b)), c, tol)}),
    "orthoscheme-two-ideal": Shape({"b": "L"}, 3, "lobachevsky-series", {
        "lobachevsky": lambda b, tol: hypervol.orthoscheme.volume_two_ideal_closed(b),
        "quadrature": lambda b, tol: hypervol.orthoscheme.volume_two_ideal(b, tol)}),
    # four two-ideal orthoschemes: the reflections of one in two of its faces
    "ideal-tetra-b": Shape({"b": "L"}, 3, "lobachevsky-series", {
        "lobachevsky": lambda b, tol: 4.0 * hypervol.orthoscheme.volume_two_ideal_closed(b),
        "quadrature": lambda b, tol: hypervol.orthoscheme.volume_ideal_tetrahedron_b(b, tol)}),
    "bolyai-1": Shape({"a": "L", "b": "L", "c": "L"}, 3, "quadrature", {
        "bolyai1": lambda *e, tol: hypervol.orthoscheme.bolyai_integral_1(e, tol),
        "edges": lambda *e, tol: hypervol.orthoscheme.volume_edges(e, tol)}),
    "bolyai-asym-1": Shape({"alpha": "R", "c": "L"}, 3, "quadrature", {
        "bolyai-asym": lambda alpha, c, tol:
            hypervol.orthoscheme.bolyai_asymptotic_1(alpha, c, tol),
        "edges": lambda alpha, c, tol: hypervol.orthoscheme.volume_one_ideal(
            math.asinh(math.tanh(c) / math.tan(alpha)), c, tol)}),
    "bolyai-asym-2": Shape({"amax": "R", "b": "L"}, 3, "quadrature", {
        "bolyai-asym2": lambda amax, b, tol:
            hypervol.orthoscheme.bolyai_asymptotic_2(amax, b, tol),
        "edges": lambda amax, b, tol: hypervol.orthoscheme.volume_one_ideal(
            b, math.atanh(math.tan(amax) * math.sinh(b)), tol)}),
    "ndim-orthoscheme": Shape({"edges": "N"}, None, "nested-quadrature", {
        "nested": lambda edges, tol: hypervol.orthoscheme.volume_ndim(edges, tol)}),
    "milnor": Shape({"A": "R", "B": "R", "C": "R"}, 3, "lobachevsky-series", {
        "lobachevsky": lambda A, B, C, tol: hypervol.tetrahedra.milnor_ideal(A, B, C),
        # opposite edges of an ideal tetrahedron have equal dihedral angles
        "murakami-yano": lambda *a, tol: hypervol.tetrahedra.murakami_yano(a * 2)}),
    "derevnin-mednykh": Shape(_SIX, 3, "quadrature", {
        "derevnin-mednykh": lambda *t, tol: hypervol.tetrahedra.derevnin_mednykh(t, tol),
        "murakami-yano": lambda *t, tol: hypervol.tetrahedra.murakami_yano(t)}),
    "murakami-yano": Shape(_SIX, 3, "clausen-series", {
        "murakami-yano": lambda *t, tol: hypervol.tetrahedra.murakami_yano(t),
        "derevnin-mednykh": lambda *t, tol: hypervol.tetrahedra.derevnin_mednykh(t, tol)}),
    "lambert-cube": Shape({"w0": "R", "w1": "R", "w2": "R", "theta": "R"}, 3,
                          "lobachevsky-series", {
        "lobachevsky": lambda *w, tol: hypervol.tetrahedra.lambert_cube(*w)}),
    "mohanty": Shape({"A": "R", "B": "R", "E": "R"}, 3, "lobachevsky-series", {
        "lobachevsky": lambda A, B, E, tol: hypervol.tetrahedra.mohanty_octahedron(A, B, E)}),
    "triangle-2d": Shape({"a": "L", "b": "L"}, 2, "nested-quadrature", {
        "nested": lambda a, b, tol: hypervol.orthoscheme.area_right_triangle(a, b, tol),
        "defect": lambda a, b, tol:
            math.pi / 2 - sum(hypervol.orthoscheme.right_triangle_angles(a, b))}),
}

MC_SHAPES = tuple(name for name, s in SHAPES.items() if s.mc_region is not None)
PARAM_NAMES = frozenset(name for s in SHAPES.values() for name in s.params)

_SCALE = {
    "L": lambda v, k: v / k,
    "A": lambda v, k: v / (k * k),
    "R": lambda v, k: v,
    "N": lambda v, k: tuple(x / k for x in v),
}


def _lookup(shape) -> Shape:
    if not isinstance(shape, str) or shape not in SHAPES:
        raise DomainError(f"unknown shape {shape!r}")
    return SHAPES[shape]


def _at_curvature_1(entry: Shape, params: dict, k) -> tuple[tuple, float]:
    """(the parameter values rescaled by kind to curvature 1, k**dim), by
    v_k(params) = k^dim v_1(params / k)."""
    k = positive("k", k)
    p1 = tuple(_SCALE[kind](params[name], k) for name, kind in entry.params.items())
    return p1, k ** (len(params["edges"]) if entry.dim is None else entry.dim)


@in_float_range
def compute_volume(shape: str, params: dict, k: float = 1.0, reltol: float = DEFAULT_TOL.rel):
    """Volume of ``shape`` at curvature k. Returns (value, method, error estimate).

    The shape's first route, its evaluator, runs at curvature 1 on the
    parameters rescaled by kind, and
    value and error are multiplied by k**dim, as is the best estimate that a
    ConvergenceError carries (which each route has already multiplied by its
    own factor, ``quadrature.scaled``).  The error estimate is 0 for
    ``EXACT_METHODS`` and the requested bound reltol * |v| otherwise.
    DomainError when a scaled parameter, k**dim or the scaled volume lies
    beyond the float range (about 1.8e308; for dim 3, k above about 5.6e102).
    """
    entry = _lookup(shape)
    p1, scale = _at_curvature_1(entry, params, k)
    tol = Tolerance(rel=reltol)
    try:
        v1 = next(iter(entry.routes.values()))(*p1, tol=tol)
    except ConvergenceError as exc:
        exc.rescale(scale)
        raise
    err1 = 0.0 if entry.method in EXACT_METHODS else tol.rel * abs(v1)
    return v1 * scale, entry.method, err1 * scale


@in_float_range
def mc_estimate(shape: str, params: dict, k: float, samples: int,
                seed: int) -> mc_oracle.MCEstimate:
    """Monte-Carlo estimate of the volume of ``shape`` at curvature k: the
    region is built at curvature 1 from the rescaled parameters, and mean and
    stderr are multiplied by k**dim, as ``compute_volume`` does.  DomainError
    for a shape without a region, where k**dim or the scaled estimate leaves
    the float range, and as the region builder and ``mc_oracle.estimate``
    raise it."""
    entry = _lookup(shape)
    if entry.mc_region is None:
        raise DomainError(f"shape {shape!r} has no Monte-Carlo region")
    p1, scale = _at_curvature_1(entry, params, k)
    est = hypervol.mc_oracle.estimate(entry.mc_region(*p1), samples, seed)
    return est._replace(mean=est.mean * scale, stderr=est.stderr * scale)


def collect_params(shape: str, src: dict, degrees: bool) -> dict:
    """The parameters of ``shape`` read from ``src`` (CLI flags or a batch job),
    angles converted from degrees when ``degrees`` is set.  DomainError for an
    unknown shape, a missing or malformed parameter, or one of another shape."""
    entry = _lookup(shape)
    params = {}
    for name, kind in entry.params.items():
        v = src.get(name)
        if v is None:
            raise DomainError(f"shape {shape!r} requires parameter --{name}")
        if kind == "N":
            items = v.split(",") if isinstance(v, str) else sequence("edge list", v)
            v = tuple(number("edge", t) for t in items)
            if len(v) < 2:
                raise DomainError("ndim-orthoscheme needs at least 2 edges")
        else:
            v = number(f"parameter {name!r}", v)
            if kind == "R" and degrees:
                v = math.radians(v)
        params[name] = v
    extras = sorted(k for k, v in src.items()
                    if v is not None and k in PARAM_NAMES and k not in params)
    if extras:
        raise DomainError(f"parameters {extras} do not apply to shape {shape!r}")
    return params


# the keys of a batch job besides the shape's parameters
_JOB_KEYS = frozenset(("shape", "k", "reltol", "degrees", "mc"))


def parse_job(job: dict) -> tuple:
    """(shape, params, k, reltol, (mc samples, mc seed) or None) of one batch job;
    DomainError for any missing or malformed field, and for a key the job
    does not read: one other than shape, the shape's parameters, k, reltol,
    degrees and mc, or an mc key other than samples and seed."""
    shape = job["shape"]
    degrees = job.get("degrees", False)
    if not isinstance(degrees, bool):
        raise DomainError(f"degrees must be true or false, got {degrees!r}")
    params = collect_params(shape, job, degrees)
    unread = [key for key in job if key not in _JOB_KEYS and key not in params]
    if unread:
        raise DomainError(f"job keys {unread} are not read for shape {shape!r}")
    mc = job.get("mc")
    if mc is not None and shape not in MC_SHAPES:
        raise DomainError(f"shape {shape!r} has no Monte-Carlo region")
    k = number("k", job.get("k", 1.0))
    reltol = number("reltol", job.get("reltol", DEFAULT_TOL.rel))
    if mc is not None:
        if not isinstance(mc, dict):
            raise DomainError(f"mc must be an object, got {mc!r}")
        unread = [key for key in mc if key not in MC_DEFAULTS]
        if unread:
            raise DomainError(f"mc keys {unread} are not read (only samples and seed are)")
        mc = tuple(number(f"mc {key}", mc.get(key, default), int)
                   for key, default in MC_DEFAULTS.items())
    return shape, params, k, reltol, mc
