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
"""

from . import models, mc_oracle, orthoscheme, quadrature, shapes, solids, specfun, tetrahedra
from .errors import (
    ConvergenceError,
    DomainError,
    HypervolError,
    NotRealizableError,
    UnsupportedDimensionError,
)
from .quadrature import IntegralResult, Tolerance

__version__ = "0.1.0"

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
