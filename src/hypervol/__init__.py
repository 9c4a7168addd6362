"""hypervol: hyperbolic volume computation and cross-validation toolkit.

Submodules:

  specfun      Lobachevsky and Clausen functions
  quadrature   adaptive 1-D and nested quadrature
  models       coordinate charts, densities, transforms, distances
  solids       classical closed-form bodies and their quadrature twins
  orthoscheme  orthoscheme volumes in edge and angle parameters
  tetrahedra   ideal/general tetrahedra, Lambert cube, ideal octahedron
  mc_oracle    seeded Monte-Carlo volume oracle in the projective ball
  shapes       the shape table and ``compute_volume``, its dispatcher
  cli          the ``hypervol`` command-line interface

Only ``errors`` and ``quadrature`` load with the package.  Every other
submodule loads on first access (``hypervol.solids``, ``from hypervol
import solids`` or a plain import of the submodule), and the shape table
reaches the library modules through the package when it calls them.  So a
cold ``hypervol vol`` compiles and runs only the modules of its shape:
numpy, which only the Monte-Carlo oracle needs, stays out of the
closed-form, series and quadrature paths, and so does ``dataclasses``,
which only ``mc_oracle`` uses.
"""

import importlib

from . import quadrature
from .errors import (
    ConvergenceError,
    DomainError,
    HypervolError,
    NotRealizableError,
    UnsupportedDimensionError,
)
from .quadrature import IntegralResult, Tolerance

__version__ = "0.1.0"

_LAZY = ("cli", "mc_oracle", "models", "orthoscheme", "shapes", "solids", "specfun", "tetrahedra")


def __getattr__(name):
    # import_module, not ``from . import``: the latter looks the name up on this
    # package again and so re-enters __getattr__ without end
    if name in _LAZY:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "models",
    "mc_oracle",
    "orthoscheme",
    "quadrature",
    "shapes",
    "solids",
    "specfun",
    "tetrahedra",
    "Tolerance",
    "IntegralResult",
    "HypervolError",
    "DomainError",
    "NotRealizableError",
    "UnsupportedDimensionError",
    "ConvergenceError",
]
