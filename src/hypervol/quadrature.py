"""Adaptive one-dimensional and nested multi-dimensional quadrature.

The 1-D core is a globally adaptive Gauss-Kronrod 15(7) scheme: the worst
interval (by error estimate) is bisected until the summed error estimate
meets the tolerance or the evaluation budget runs out.  The tolerance is
relative; only an integral that cancels to about 0 stops at the roundoff
floor ``_FLOOR`` * int |f| instead (QUADPACK's epsabs = 0).  An integral that
its first panel resolves returns at once, with the value and error
estimate the refinement loop would sum from that one panel.  Kronrod
nodes are interior, so an integrable endpoint singularity (log or
algebraic) never meets a node, and the per-interval error model is the
QUADPACK one, which keeps refinement honest next to it.  Plain
subdivision reaches such an end only by halving toward it: for a log
singularity at the default tolerance, 33 halvings and 1,005 evaluations.
So a route that knows where its singularity sits removes it analytically
(integration by parts, or a closed-form part) before it integrates.

Nested integration (``integrate_region``) composes 1-D calls over one
(lo, hi) pair per variable, where either limit may be a function of the
outer variables; each inner level runs at a tenth of the tolerance of the
level above it.  All levels draw on one evaluation budget, ``_BUDGET``
evaluations, which is also the default budget of one 1-D integral.  The
integrand is curried: called with the outer variables, it returns the 1-D
function of the innermost one, so that work which depends on the outer
variables alone runs once per inner integral, not once per evaluation.
The innermost level's evaluations are counted per 1-D call: from the
call's result, or from the best estimate it raises with.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Sequence

from .errors import ConvergenceError, DomainError, number

__all__ = [
    "Tolerance",
    "IntegralResult",
    "integrate_1d",
    "integrate_region",
    "scaled",
]

_EPS = 2.220446049250313e-16
# roundoff floor of an error estimate per unit of int |f|, a panel's or an integral's
_FLOOR = 2.5 * _EPS
_BUDGET = 1_000_000

# Gauss-Kronrod 15(7) abscissae and weights on [-1, 1]: the 33-digit QUADPACK dqk15 values.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# (abscissa, Kronrod weight) of the seven node pairs c -/+ h x
_NODES = tuple(zip(_XGK[:7], _WGK[:7]))


class _ToleranceFields(NamedTuple):
    rel: float


class Tolerance(_ToleranceFields):
    """Requested accuracy: stop when error <= rel * |value| (or at the roundoff floor)."""

    __slots__ = ()

    def __new__(cls, rel: float = 1e-10):
        rel = number("rel tolerance", rel)
        if not (1e-14 <= rel <= 1e-2):
            raise DomainError(f"rel tolerance {rel} outside [1e-14, 1e-2]")
        return super().__new__(cls, rel)

    def tighter(self) -> "Tolerance":
        """A tenth of this tolerance, for one nesting level further in (floored at 1e-14)."""
        return Tolerance(rel=max(self.rel / 10.0, 1e-14))


DEFAULT_TOL = Tolerance()


class IntegralResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


# the estimate of an integral before its first panel is finished
_UNKNOWN = IntegralResult(0.0, math.inf, 0)


def _gk15(f, a, b):
    """One Gauss-Kronrod 15(7) panel on [a, b].

    Returns (kronrod value, error estimate, resabs).  Raises DomainError if
    the integrand produces a non-finite value, or the panel's value or
    resabs leaves the float range.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)

    fc = f(c)
    if not math.isfinite(fc):
        raise DomainError(f"integrand returned {fc!r} at x={c!r}")
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    fv = []  # (Kronrod weight, f(c - x), f(c + x)) per node pair
    sums = []
    for x, w in _NODES:
        x = h * x
        f1 = f(c - x)
        f2 = f(c + x)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            bad = c - x if not math.isfinite(f1) else c + x
            raise DomainError(f"integrand returned a non-finite value at x={bad!r}")
        fv.append((w, f1, f2))
        s = f1 + f2
        sums.append(s)
        resk += w * s
        resabs += w * (abs(f1) + abs(f2))
    # the odd node pairs carry the embedded Gauss rule
    resg = _WG[3] * fc + _WG[0] * sums[1] + _WG[1] * sums[3] + _WG[2] * sums[5]

    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for w, f1, f2 in fv:
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    resasc *= abs(h)
    resabs *= abs(h)

    value = resk * h
    if not (math.isfinite(value) and math.isfinite(resabs)):
        raise DomainError(f"the integral over [{a!r}, {b!r}] leaves the float range")
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-300:
        # roundoff floor: ~1 ulp of the panel's absolute mass (resabs is
        # additive under splitting, so the floor sum stays bounded)
        err = max(err, 2.0 * _EPS * resabs)
    return value, err, resabs


def integrate_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
    max_evals: int = _BUDGET,
) -> IntegralResult:
    """Integrate f on [lo, hi] to the requested tolerance.

    Deterministic for fixed inputs.  Non-finite integrand values raise
    DomainError; exceeding the evaluation budget raises ConvergenceError
    with the best estimate attached.  So does a ConvergenceError of the
    integrand itself (a nested integral out of its budget), with this
    integral's own estimate: the sum over its finished panels, or 0 with an
    infinite error estimate before the first panel is finished.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if lo > hi:
        raise DomainError(f"lo={lo} exceeds hi={hi}")
    if lo == hi:
        return IntegralResult(0.0, 0.0, 0)

    if max_evals < 15:
        raise ConvergenceError(f"evaluation budget {max_evals} exhausted", best=_UNKNOWN)
    try:
        val, err, resabs = _gk15(f, lo, hi)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), best=_UNKNOWN) from exc
    if err <= max(tol.rel * abs(val), _FLOOR * resabs):
        # finish() of this one panel: math.fsum([val]) is val + 0.0 (-0.0 becomes 0.0)
        return IntegralResult(val + 0.0, err, 15)
    evals = 15
    # heap entries: (-err, sequence number, a, b, value, err, resabs)
    seq = 0
    heap = [(-err, seq, lo, hi, val, err, resabs)]
    stalled: list[tuple[float, float]] = []  # (value, err) of unimprovable panels
    total_val = val
    total_err = err
    mass = resabs  # the integral of |f|, summed over the panels

    def finish():
        vals = [entry[4] for entry in heap] + [sv for sv, _ in stalled]
        errs = [entry[5] for entry in heap] + [se for _, se in stalled]
        return IntegralResult(math.fsum(vals), math.fsum(errs), evals)

    while True:
        if total_err <= max(tol.rel * abs(total_val), _FLOOR * mass):
            return finish()
        if not heap:
            # every remaining panel is roundoff-limited
            res = finish()
            if res.error_estimate <= max(tol.rel * abs(res.value), _FLOOR * mass):
                return res
            raise ConvergenceError(
                "quadrature stalled at roundoff before reaching tolerance", best=res
            )
        if evals + 30 > max_evals:
            raise ConvergenceError(
                f"evaluation budget {max_evals} exhausted", best=finish()
            )
        _, _, a, b, v_old, e_old, r_old = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b or e_old <= _FLOOR * r_old:
            # panel at floating-point resolution or at the roundoff floor
            stalled.append((v_old, e_old))
            continue
        try:
            v1, e1, r1 = _gk15(f, a, m)
            v2, e2, r2 = _gk15(f, m, b)
        except ConvergenceError as exc:
            stalled.append((v_old, e_old))
            raise ConvergenceError(str(exc), best=finish()) from exc
        evals += 30
        total_val += (v1 + v2) - v_old
        total_err += (e1 + e2) - e_old
        mass += (r1 + r2) - r_old
        seq += 1
        heapq.heappush(heap, (-e1, seq, a, m, v1, e1, r1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, m, b, v2, e2, r2))


def integrate_region(
    integrand: Callable[..., Callable[[float], float]],
    bounds: Sequence[tuple],
    tol: Tolerance = DEFAULT_TOL,
) -> IntegralResult:
    """Nested integral over a region described by per-level (lo, hi) bounds.

    ``bounds`` lists one (lo, hi) pair per variable, outermost first; lo and
    hi may be numbers or callables of the already-fixed outer variables (in
    listed order).  The integrand is curried: ``integrand(*outer)``, with the
    outer variables in the same order, returns the function of the innermost
    variable that one innermost 1-D integral integrates, and is called once
    per such integral (with no arguments for a single variable).  Each inner
    level runs at a tenth of the tolerance of its parent.

    ``_BUDGET`` bounds the evaluations of all levels together: every 1-D call
    gets the budget that remains.  The count is that of the calls of the
    innermost functions, but for the unfinished panel of an innermost
    integral whose function raises ConvergenceError itself.  When it runs out,
    ConvergenceError carries in ``best`` the outermost level's estimate so
    far (0 with an infinite error estimate if that level has not finished a
    panel) and the evaluations made.
    """
    if len(bounds) < 1:
        raise DomainError("at least one integration variable required")
    budget, evals = _BUDGET, 0
    tols = [tol]
    for _ in bounds[1:]:
        tols.append(tols[-1].tighter())

    last = len(bounds) - 1

    def level(i, fixed):
        nonlocal evals
        lo, hi = bounds[i]
        lo_v = float(lo(*fixed)) if callable(lo) else float(lo)
        hi_v = float(hi(*fixed)) if callable(hi) else float(hi)
        if i < last:
            return integrate_1d(lambda x: level(i + 1, fixed + (x,)).value,
                                lo_v, hi_v, tols[i], budget - evals)
        try:
            res = integrate_1d(integrand(*fixed), lo_v, hi_v, tols[i], budget - evals)
        except ConvergenceError as exc:
            evals += exc.best.evaluations
            raise
        evals += res.evaluations
        return res

    try:
        res = level(0, ())
    except ConvergenceError as exc:
        # every 1-D call ran on what remained, so a budget message names the whole budget
        msg = f"evaluation budget {budget} exhausted" if evals + 30 > budget else str(exc)
        best = IntegralResult(exc.best.value, exc.best.error_estimate, evals)
        raise ConvergenceError(msg, best=best) from exc
    return IntegralResult(res.value, res.error_estimate, evals)


def scaled(factor: float, route: Callable[[], float]) -> float:
    """factor * route(), for a route that returns a quadrature value or a
    volume built on one.  A ConvergenceError that route() raises leaves with
    its best estimate multiplied by factor too, so that the estimate a
    failure reports is on the scale of the value a success returns."""
    try:
        return factor * route()
    except ConvergenceError as exc:
        exc.rescale(factor)
        raise
