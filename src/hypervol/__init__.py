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

``mc_oracle`` and ``models`` load on first access (``hypervol.mc_oracle``,
``from hypervol import models`` or a plain import of the submodule), so
numpy, which only the Monte-Carlo oracle needs, stays out of the closed-form,
series and quadrature paths and out of a cold ``hypervol vol``.
"""

import importlib

from . import orthoscheme, quadrature, shapes, solids, specfun, tetrahedra
from .errors import (
    ConvergenceError,
    DomainError,
    HypervolError,
    NotRealizableError,
    UnsupportedDimensionError,
)
from .quadrature import IntegralResult, Tolerance

__version__ = "0.1.0"

_LAZY = ("mc_oracle", "models")


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
