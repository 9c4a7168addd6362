"""Exception types shared across the package, and the argument checks that
raise one: every public function converts its numbers through ``number``
(or a check built on it), so a non-number, NaN, an infinity or a value out
of range is a DomainError that names the argument."""

import functools
import math
import sys

# float-range thresholds for a ``limit``: the largest arguments whose sinh and
# cosh (710.4759), and whose squares (355.5845), stay inside the float range
SINH_MAX = math.asinh(sys.float_info.max)
SINH2_MAX = math.asinh(math.sqrt(sys.float_info.max))


class HypervolError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HypervolError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotRealizableError(DomainError):
    """The requested parameters do not correspond to a realizable body."""


class UnsupportedDimensionError(DomainError):
    """Dimension outside the supported range (2..8, or op-specific)."""


class ConvergenceError(HypervolError, RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget.

    Carries the best estimate obtained so far in ``best``.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best

    def rescale(self, factor: float) -> None:
        """Multiply ``best`` by factor (its error estimate by |factor|): the
        route that raised returns factor times the integral that failed."""
        b = self.best
        self.best = b._replace(value=factor * b.value,
                               error_estimate=abs(factor) * b.error_estimate)


def in_float_range(fn):
    """``fn``, raising DomainError where its value leaves the float range: an
    OverflowError or ZeroDivisionError of its arithmetic (a division by an
    underflowed 0 among them), or a non-finite float, alone or in a tuple.
    The package's one rule for these failures: no route checks them itself."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
            values = value if isinstance(value, tuple) else (value,)
            finite = all(not isinstance(v, float) or math.isfinite(v) for v in values)
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            call = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
            raise DomainError(f"the value of {fn.__name__}({call}) exceeds the float range")
        return value

    return guarded


def number(name: str, v, cast=float):
    """``cast(v)``, or a DomainError naming ``name`` when v is not a number
    (a bool, as JSON's true and false, is none), or, with ``cast=int``, a
    number that ``int`` would truncate (2.5, 0.3)."""
    if v is True or v is False:  # isinstance(v, bool), as bool has no subclasses, but faster
        raise DomainError(f"{name} must be a number, got {v!r}")
    try:
        out = cast(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a number, got {v!r}") from exc
    if cast is int and not isinstance(v, str) and out != v:
        raise DomainError(f"{name} must be an integer, got {v!r}")
    return out


def sequence(name: str, values, counts: tuple[int, ...] | None = None) -> tuple:
    """``tuple(values)``, or a DomainError naming ``name`` when values is not
    iterable or, given ``counts``, holds a number of items not among them."""
    try:
        t = tuple(values)
    except TypeError as exc:
        raise DomainError(f"{name} must be a sequence of numbers, got {values!r}") from exc
    if counts is not None and len(t) not in counts:
        want = " or ".join(map(str, counts))
        raise DomainError(f"{name} takes {want} values, got {len(t)}: {values!r}")
    return t


def positive(name: str, v, limit: float = math.inf) -> float:
    """``number(name, v)``, or DomainError unless 0 < v <= limit (limit: the
    float-range threshold of a route, where one has one)."""
    v = number(name, v)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {v!r}")
    return _at_most(name, v, limit)


def nonnegative(name: str, v, limit: float = math.inf) -> float:
    """``number(name, v)``, or DomainError unless 0 <= v <= limit."""
    v = number(name, v)
    if not (math.isfinite(v) and v >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {v!r}")
    return _at_most(name, v, limit)


def _at_most(name: str, v: float, limit: float) -> float:
    if v > limit:
        raise DomainError(
            f"{name} = {v!r} exceeds {limit!r}, beyond which the route leaves the float range"
        )
    return v


def angle(name: str, v, hi: float) -> float:
    """``number(name, v)``, or DomainError unless v lies in the open interval (0, hi)."""
    v = number(name, v)
    if not (0.0 < v < hi):
        bound = {math.pi: "pi", 0.5 * math.pi: "pi/2"}.get(hi, repr(hi))
        raise DomainError(f"{name} must lie in (0, {bound}), got {v!r}")
    return v
