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
(integration by parts, or a closed-form part) before it integrates.  The
panel is straight-line code over its seven node pairs, because most inner
integrals of nested quadrature finish in one panel, where the interpreter's
work per node outweighs the integrand's; its sums run left to right in the
order of a loop over the pairs, so its bits are that loop's.  It checks its
values for finiteness once, through the sum of w |f|, which is non-finite
whenever one of them is, and still names the first non-finite node.

Nested integration (``integrate_region``) composes 1-D calls over one
(lo, hi) pair per variable, where either limit may be a function of the
outer variables; every level runs at the caller's tolerance (inner values
that each meet it move an integral of one sign by at most as much).  All
levels draw on one evaluation budget, ``_BUDGET`` evaluations, which is
also the default budget of one 1-D integral.  The
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
# the same constants by name, for the straight-line panel
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_W0, _W1, _W2, _W3, _W4, _W5, _W6, _W7 = _WGK
_G0, _G1, _G2, _G3 = _WG


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


DEFAULT_TOL = Tolerance()


class IntegralResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


# the estimate of an integral before its first panel is finished
_UNKNOWN = IntegralResult(0.0, math.inf, 0)


def _first_non_finite(c, h, values):
    """DomainError at the first non-finite of a panel's 15 values, if any, in
    evaluation order: the centre c, then c -/+ h x_j from the outermost pair in."""
    if not math.isfinite(values[0]):
        raise DomainError(f"integrand returned {values[0]!r} at x={c!r}")
    for i, v in enumerate(values[1:]):
        if not math.isfinite(v):
            x = h * _XGK[i // 2]
            raise DomainError("integrand returned a non-finite value at "
                              f"x={(c + x if i % 2 else c - x)!r}")


def _gk15(f, a, b):
    """One Gauss-Kronrod 15(7) panel on [a, b].

    Returns (kronrod value, error estimate, resabs).  Raises DomainError if
    the integrand produces a non-finite value, or the panel's value or
    resabs leaves the float range.  The centre is evaluated first, then the
    node pairs c -/+ h x_j from the outermost in; the values are checked once,
    through resabs, and only a failed check walks them in that order, so the
    first non-finite node is the one reported.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)

    fc = f(c)
    x = h * _X0
    f01, f02 = f(c - x), f(c + x)
    s0 = f01 + f02
    x = h * _X1
    f11, f12 = f(c - x), f(c + x)
    s1 = f11 + f12
    x = h * _X2
    f21, f22 = f(c - x), f(c + x)
    s2 = f21 + f22
    x = h * _X3
    f31, f32 = f(c - x), f(c + x)
    s3 = f31 + f32
    x = h * _X4
    f41, f42 = f(c - x), f(c + x)
    s4 = f41 + f42
    x = h * _X5
    f51, f52 = f(c - x), f(c + x)
    s5 = f51 + f52
    x = h * _X6
    f61, f62 = f(c - x), f(c + x)
    s6 = f61 + f62

    # sums from the centre outward, left to right
    resk = (_W7 * fc + _W0 * s0 + _W1 * s1 + _W2 * s2 + _W3 * s3 + _W4 * s4 + _W5 * s5
            + _W6 * s6)
    resabs = (_W7 * abs(fc) + _W0 * (abs(f01) + abs(f02)) + _W1 * (abs(f11) + abs(f12))
              + _W2 * (abs(f21) + abs(f22)) + _W3 * (abs(f31) + abs(f32))
              + _W4 * (abs(f41) + abs(f42)) + _W5 * (abs(f51) + abs(f52))
              + _W6 * (abs(f61) + abs(f62)))
    # the odd node pairs carry the embedded Gauss rule
    resg = _G3 * fc + _G0 * s1 + _G1 * s3 + _G2 * s5

    reskh = 0.5 * resk
    resasc = (_W7 * abs(fc - reskh) + _W0 * (abs(f01 - reskh) + abs(f02 - reskh))
              + _W1 * (abs(f11 - reskh) + abs(f12 - reskh))
              + _W2 * (abs(f21 - reskh) + abs(f22 - reskh))
              + _W3 * (abs(f31 - reskh) + abs(f32 - reskh))
              + _W4 * (abs(f41 - reskh) + abs(f42 - reskh))
              + _W5 * (abs(f51 - reskh) + abs(f52 - reskh))
              + _W6 * (abs(f61 - reskh) + abs(f62 - reskh)))
    resasc *= abs(h)
    resabs *= abs(h)

    value = resk * h
    if not (math.isfinite(value) and math.isfinite(resabs)):
        _first_non_finite(c, h, (fc, f01, f02, f11, f12, f21, f22, f31, f32, f41, f42,
                                 f51, f52, f61, f62))
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
    DomainError, as do limits that are not finite numbers and a tol that is
    not a Tolerance; exceeding the evaluation budget raises ConvergenceError
    with the best estimate attached.  So does a ConvergenceError of the
    integrand itself (a nested integral out of its budget), with this
    integral's own estimate: the sum over its finished panels, or 0 with an
    infinite error estimate before the first panel is finished.
    """
    try:
        rel = tol.rel
    except AttributeError:
        raise DomainError(f"tol must be a Tolerance, got {tol!r}") from None
    try:
        finite = math.isfinite(lo) and math.isfinite(hi)
    except (TypeError, OverflowError):
        raise DomainError(f"integration limits must be numbers, got {lo!r} and {hi!r}") from None
    if not finite:
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
    if err <= rel * abs(val) or err <= _FLOOR * resabs:
        # finish() of this one panel: math.fsum([val]) is val + 0.0 (-0.0 becomes
        # 0.0); tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple.__new__(IntegralResult, (val + 0.0, err, 15))
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
        if total_err <= max(rel * abs(total_val), _FLOOR * mass):
            return finish()
        if not heap:
            # every remaining panel is roundoff-limited
            res = finish()
            if res.error_estimate <= max(rel * abs(res.value), _FLOOR * mass):
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


def bound_value(i: int, bound: Callable[..., float], args: tuple) -> float:
    """float(bound(*args)), the value of a callable bound of integration variable i
    (1-based) at the outer variables args.  DomainError where the bound raises
    TypeError, ValueError or OverflowError, where float() refuses its value, and
    where the value is a bool, which float() would take for 0 or 1."""
    try:
        v = bound(*args)
        if v is True or v is False:
            raise DomainError(f"a bound of integration variable {i} gave {v!r}, not a number")
        return float(v)
    except DomainError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"a bound of integration variable {i} gave no number: {exc}") from exc


def integrate_region(
    integrand: Callable[..., Callable[[float], float]],
    bounds: Sequence[tuple],
    tol: Tolerance = DEFAULT_TOL,
) -> IntegralResult:
    """Nested integral over a region described by per-level (lo, hi) bounds.

    ``bounds`` lists one (lo, hi) pair per variable, outermost first; lo and
    hi may be numbers or callables of the already-fixed outer variables (in
    listed order); DomainError for an entry that is not such a pair, a bound
    that is or returns no number (a bool is none), and a tol that is not a
    Tolerance.  The integrand is curried: ``integrand(*outer)``, with the
    outer variables in the same order, returns the function of the innermost
    variable that one innermost 1-D integral integrates, and is called once
    per such integral (with no arguments for a single variable).  Every
    level runs at ``tol``.

    ``_BUDGET`` bounds the evaluations of all levels together: every 1-D call
    gets the budget that remains.  The count is that of the calls of the
    innermost functions, but for the unfinished panel of an innermost
    integral whose function raises ConvergenceError itself.  When it runs out,
    ConvergenceError carries in ``best`` the outermost level's estimate so
    far (0 with an infinite error estimate if that level has not finished a
    panel) and the evaluations made.
    """
    try:
        pairs = [(lo, hi) for lo, hi in bounds]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bounds must be (lo, hi) pairs, got {bounds!r}") from exc
    if not pairs:
        raise DomainError("at least one integration variable required")
    # each level's bounds resolved once per call: a number converted, a callable flagged
    levels = [(lo if callable(lo) else number("integration bound", lo), callable(lo),
               hi if callable(hi) else number("integration bound", hi), callable(hi))
              for lo, hi in pairs]
    budget, evals = _BUDGET, 0
    last = len(levels) - 1

    def level(i, fixed):
        nonlocal evals
        lo, lo_fn, hi, hi_fn = levels[i]
        if lo_fn:
            lo = bound_value(i + 1, lo, fixed)
        if hi_fn:
            hi = bound_value(i + 1, hi, fixed)
        if i < last:
            return integrate_1d(lambda x: level(i + 1, fixed + (x,)).value,
                                lo, hi, tol, budget - evals)
        try:
            res = integrate_1d(integrand(*fixed), lo, hi, tol, budget - evals)
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
