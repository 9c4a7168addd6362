"""Volume formulas for tetrahedra and related polyhedra with dihedral-angle
parameters: ideal tetrahedra, the general tetrahedron by an integral and by
a Clausen-function closed form, the Lambert cube and the ideal symmetric
octahedron.

The general tetrahedron has dihedral angles A..F, with A, B, C at one vertex
and (A, D), (B, E), (C, F) at opposite edges; numbering the faces 0..3, they
sit at A = (0,1), B = (0,2), C = (1,2), D = (2,3), E = (1,3), F = (0,3).  Such
angles belong to a compact tetrahedron exactly when the Gram matrix G
(G_ii = 1, G_ij = -cos) has det G < 0 and every cofactor c_ij > 0 (Ushijima
2006).  A vertex with c_ii = 0 is ideal; c_ii >= -1e-12 is accepted as such.
The six angles are passed as one plain sequence (A, B, C, D, E, F), and
`dm_coefficients` returns the root interval as the pair (z1, z2).
All formulas are stated at curvature 1.
"""

from __future__ import annotations

import math
import random

from . import quadrature
from .errors import DomainError, NotRealizableError, angle, number, sequence
from .quadrature import DEFAULT_TOL, Tolerance
from .specfun import clausen2, lobachevsky

__all__ = [
    "milnor_ideal",
    "dm_coefficients",
    "derevnin_mednykh",
    "murakami_yano",
    "sample_near_ideal",
    "lambert_cube",
    "mohanty_octahedron",
]


def _dihedrals(t) -> tuple[float, ...]:
    """The six dihedral angles (A, B, C, D, E, F), opposite pairs (A,D), (B,E),
    (C,F), each checked to lie in (0, pi)."""
    return tuple(angle(f"dihedral angle {name}", v, math.pi)
                 for name, v in zip("ABCDEF", sequence("dihedral angles", t, (6,))))


def milnor_ideal(A: float, B: float, C: float) -> float:
    """Ideal tetrahedron volume L(A) + L(B) + L(C), requiring A + B + C = pi."""
    A, B, C = angle("A", A, math.pi), angle("B", B, math.pi), angle("C", C, math.pi)
    if abs(A + B + C - math.pi) > 1e-9:
        raise DomainError("ideal tetrahedron angles must satisfy A + B + C = pi")
    return lobachevsky(A) + lobachevsky(B) + lobachevsky(C)


def _mean_log(a: float, b: float) -> float:
    """The mean of ln|x| over [a, b], a < b: (F(b) - F(a)) / (b - a) with
    F(x) = x ln|x| - x.  Where 0 lies outside [a, b] that difference cancels,
    so for 0 < a < b the mean is taken as ln b - 1 + (a / w) ln(1 + w / a),
    w = b - a, and for b <= 0 on the mirror image [-b, -a]."""
    if b <= 0.0:
        a, b = -b, -a
    w = b - a
    if a <= 0.0:
        return (b * math.log(b) - (a * math.log(-a) if a else 0.0)) / w - 1.0
    return math.log(b) - 1.0 + a / w * math.log1p(w / a)


def dm_coefficients(t) -> tuple[float, float]:
    """Roots (z1, z2) of the tetrahedron volume integral, where the
    integrand's log argument equals 1.

    With S = A + ... + F, k1 = -(cos S + cos(A+D) + ...), k2 = sin S +
    sin(A+D) + ..., k3 = 2 (sin A sin D + sin B sin E + sin C sin F) and
    k4 = sqrt(k1^2 + k2^2 - k3^2): z1,2 = atan2(k2, k1) -/+ atan(k4 / k3).
    NotRealizableError unless the Gram criterion holds for faces 0..3 at
    A = (0,1), B = (0,2), C = (1,2), D = (2,3), E = (1,3), F = (0,3) and
    G_ii = 1, G_ij = -cos: k4^2 = k1^2 + k2^2 - k3^2 = -4 det G > 0 and
    the ten cofactors c_ij > 0, save that an ideal vertex (c_ii = 0, angle sum
    pi) is accepted down to c_ii = -1e-12, far above rounding at a sum of pi.
    """
    A, B, C, D, E, F = _dihedrals(t)
    sums = (A + B + C + D + E + F, A + D, B + E, C + F,
            D + E + F, D + B + C, A + E + C, A + B + F)
    k1 = -sum(map(math.cos, sums))
    k2 = sum(map(math.sin, sums))
    k3 = 2.0 * (
        math.sin(A) * math.sin(D) + math.sin(B) * math.sin(E) + math.sin(C) * math.sin(F)
    )
    k4sq = k1 * k1 + k2 * k2 - k3 * k3
    if k4sq < 0.0:
        raise NotRealizableError("k1^2 + k2^2 < k3^2: no real root interval")
    a, b, c, d, e, f = map(math.cos, (A, B, C, D, E, F))
    # c_ii for the vertices opposite faces 0..3, where (C,D,E), (B,D,F), (A,E,F), (A,B,C) meet
    if min(1.0 - c * c - d * d - e * e - 2.0 * c * d * e,
           1.0 - b * b - d * d - f * f - 2.0 * b * d * f,
           1.0 - a * a - e * e - f * f - 2.0 * a * e * f,
           1.0 - a * a - b * b - c * c - 2.0 * a * b * c) < -1e-12:
        raise NotRealizableError("the angles at a vertex form no spherical triangle")
    # c_ij, i < j: c01, c23, c02, c13, c03, c12; given det G < 0 none can vanish
    ad, be, cf = a * d, b * e, c * f
    if min(a * (1.0 - d * d) + b * c + e * f + d * (be + cf),
           d * (1.0 - a * a) + b * f + c * e + a * (be + cf),
           b * (1.0 - e * e) + a * c + d * f + e * (ad + cf),
           e * (1.0 - b * b) + a * f + c * d + b * (ad + cf),
           f * (1.0 - c * c) + a * e + b * d + c * (ad + be),
           c * (1.0 - f * f) + a * b + d * e + f * (ad + be)) <= 0.0:
        raise NotRealizableError("a Gram cofactor is negative: the faces bound no tetrahedron")
    k4 = math.sqrt(k4sq)
    half = math.atan(k4 / k3)  # k3 > 0 for angles in (0, pi)
    center = math.atan2(k2, k1)
    z1, z2 = center - half, center + half
    if not z1 < z2:
        raise NotRealizableError("degenerate root interval (z1 >= z2)")
    return z1, z2


def derevnin_mednykh(t, tol: Tolerance = DEFAULT_TOL) -> float:
    """Tetrahedron volume by the root-interval integral

    -1/4 int_{z1}^{z2} log( prod cos / prod sin ) dz
      = -1/2 int_{h1}^{h2} log |cos(p + h) ... sin(w + h) ... sin(h)| dh,

    in h = z/2, where p, q, r, s are the half angle sums of the vertices and
    w, x, y those of the opposite edge pairs.  Each of the eight factors
    vanishes on a pi-lattice, cos(p + h) at pi/2 - p + k pi and sin(w + h)
    at -w + k pi, and each zero is a log singularity of the integrand: for
    a compact tetrahedron the nearest ones lie just outside [h1, h2], and
    at an ideal vertex one meets h1 = 0.  The interval is shorter than
    pi/2, so with c the zero of a factor nearest its midpoint, the factor
    is +/-sin(h - c) and

        log |sin(h - c)| = log |h - c| + log |sin(h - c) / (h - c)|,

    whose second term is analytic at least pi/4 beyond both ends.  The log
    terms integrate in closed form (`_mean_log`), and one Gauss-Kronrod
    panel of integrate_1d resolves the rest, the log of one product of the
    eight ratios.  The closed-form part enters the integrand as a constant,
    so the tolerance and a ConvergenceError's best estimate refer to the
    whole volume.  A z1 below 0 comes only from rounding at an ideal
    vertex, whose exact root is 0, and is read as 0.
    """
    t = sequence("dihedral angles", t)
    z1, z2 = dm_coefficients(t)
    A, B, C, D, E, F = map(float, t)
    h1, h2 = 0.5 * max(z1, 0.0), 0.5 * z2
    mid, pi = 0.5 * (h1 + h2), math.pi

    def nearest(c: float) -> float:
        return c + pi * round((mid - c) / pi)

    c1, c2, c3, c4 = (nearest(0.5 * (pi - s)) for s in (A + B + C, A + E + F, B + D + F,
                                                        C + D + E))
    d1, d2, d3, d4 = (nearest(-0.5 * s) for s in (A + B + D + E, A + C + D + F,
                                                  B + C + E + F, 0.0))
    # the integral of the eight terms log|h - c| over [h1, h2], divided by its length
    mean = (math.fsum(_mean_log(h1 - c, h2 - c) for c in (c1, c2, c3, c4))
            - math.fsum(_mean_log(h1 - d, h2 - d) for d in (d1, d2, d3, d4)))
    sin, log = math.sin, math.log

    def f(h: float) -> float:
        # a node exactly on a zero reads it as 1e-300, where sin(x) / x is its
        # limit 1; each ratio is taken alone, so no product passes through a tiny x
        x1, x2, x3, x4 = (h - c1) or 1e-300, (h - c2) or 1e-300, (h - c3) or 1e-300, \
            (h - c4) or 1e-300
        y1, y2, y3, y4 = (h - d1) or 1e-300, (h - d2) or 1e-300, (h - d3) or 1e-300, \
            (h - d4) or 1e-300
        return mean + log((sin(x1) / x1) * (sin(x2) / x2) * (sin(x3) / x3) * (sin(x4) / x4)
                          * (y1 / sin(y1)) * (y2 / sin(y2)) * (y3 / sin(y3)) * (y4 / sin(y4)))

    return quadrature.scaled(-0.5, lambda: quadrature.integrate_1d(f, h1, h2, tol).value)


def murakami_yano(t) -> float:
    """Tetrahedron volume as a closed Clausen-function combination.

    With the same roots z1, z2 as the integral form and real arguments
    throughout, Im Li2(e^{ix}) = Cl2(x) and the volume is

    1/4 sum_{z in {z1, -z2}} sign * [ Cl2(z) + Cl2(A+B+D+E+z) + Cl2(A+C+D+F+z)
        + Cl2(B+C+E+F+z) - Cl2(pi+A+B+C+z) - Cl2(pi+A+E+F+z)
        - Cl2(pi+B+D+F+z) - Cl2(pi+C+D+E+z) ].
    """
    t = sequence("dihedral angles", t)
    z1, z2 = dm_coefficients(t)
    A, B, C, D, E, F = map(float, t)

    def im_u(z: float) -> float:
        pos = (z, A + B + D + E + z, A + C + D + F + z, B + C + E + F + z)
        neg = (
            math.pi + A + B + C + z,
            math.pi + A + E + F + z,
            math.pi + B + D + F + z,
            math.pi + C + D + E + z,
        )
        return 0.5 * (
            math.fsum(clausen2(x) for x in pos) - math.fsum(clausen2(x) for x in neg)
        )

    return 0.5 * (im_u(z1) - im_u(z2))


def sample_near_ideal(count: int, seed: int) -> list[tuple[float, ...]]:
    """Draw compact tetrahedra near ideal ones, deterministic for a fixed seed:
    A, B uniform in (0.7, 1.2), C = pi - A - B, each of (A, B, C, A, B, C)
    moved by a uniform amount in (-0.05, 0.05), kept when `dm_coefficients`
    accepts it."""
    count, seed = number("count", count, int), number("seed", seed, int)
    rng = random.Random(seed)
    out: list[tuple[float, ...]] = []
    while len(out) < count:
        A = rng.uniform(0.7, 1.2)
        B = rng.uniform(0.7, 1.2)
        C = math.pi - A - B
        t = tuple(v + rng.uniform(-0.05, 0.05) for v in (A, B, C, A, B, C))
        try:
            dm_coefficients(t)
        except NotRealizableError:
            continue
        out.append(t)
    return out


def lambert_cube(w0: float, w1: float, w2: float, theta: float) -> float:
    """Lambert cube volume for essential angles w0, w1, w2 and auxiliary theta:

    1/4 { sum_i (L(w_i + theta) - L(w_i - theta)) - L(2 theta) + 2 L(pi/2 - theta) }.

    theta must be supplied: its defining expression involves an edge length
    of the cube, so the angles alone do not determine it here.  For a
    geometric cube tan(theta) >= 1; the combination is returned for any
    theta in (0, pi/2] (and is 0 at theta = pi/2).
    """
    ws = tuple(angle(f"essential angle {name}", w, 0.5 * math.pi)
               for name, w in (("w0", w0), ("w1", w1), ("w2", w2)))
    theta = number("theta", theta)
    if not (0.0 < theta <= math.pi / 2.0):
        raise DomainError(f"theta must lie in (0, pi/2], got {theta!r}")
    return 0.25 * (
        math.fsum(lobachevsky(w + theta) - lobachevsky(w - theta) for w in ws)
        - lobachevsky(2.0 * theta)
        + 2.0 * lobachevsky(math.pi / 2.0 - theta)
    )


def mohanty_octahedron(A: float, B: float, E: float) -> float:
    """Ideal symmetric octahedron volume (C = pi - A, D = pi - B, F = pi - E):

    2 [ L((pi+A+B+E)/2) + L((pi-A-B+E)/2) + L((pi+A-B-E)/2) + L((pi-A+B-E)/2) ].
    """
    A, B, E = (angle(f"angle {name}", v, math.pi) for name, v in (("A", A), ("B", B), ("E", E)))
    return 2.0 * (
        lobachevsky((math.pi + A + B + E) / 2.0)
        + lobachevsky((math.pi - A - B + E) / 2.0)
        + lobachevsky((math.pi + A - B - E) / 2.0)
        + lobachevsky((math.pi - A + B - E) / 2.0)
    )
