"""Exception types shared across the package, and the number and sequence
checks that raise one."""


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

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def number(name: str, v, cast=float):
    """``cast(v)``, or a DomainError naming ``name`` when v is not a number."""
    try:
        return cast(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a number, got {v!r}") from exc


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
