"""Evaluation counts as a ratchet.

Each entry is a route's mean number of integrand evaluations per call on a
fixed seeded draw of inputs at rel 1e-10, counted as 15 per Gauss-Kronrod
panel through a wrapper of ``quadrature._gk15``.  Counts are deterministic,
unlike wall time, so a panel regression (a threshold, a map or a rule that
changed) shows on any machine.  A count above 1.05 times its entry fails;
so does one below 0.8 times its entry, so that the table follows each gain:
lower the entry then, and say so in CHANGES.md.
"""

import random

import pytest

from hypervol import quadrature
from hypervol.orthoscheme import volume_edges, volume_ndim
from hypervol.quadrature import Tolerance

TOL = Tolerance(rel=1e-10)
SEED = 1
DRAWS = 200

# (route, edges per call, edge range, mean evaluations per call), each edge uniform in
# its range: volume_ndim on nested-quad's n = 4 and n = 3 ranges and two wider n = 4
# ranges, and at n = 2 on triangle-2d's legs; volume_edges on batch-1d's range
COSTS = [
    (volume_ndim, 4, (0.3, 0.5), 15.0),
    (volume_ndim, 4, (0.5, 1.0), 48.45),
    (volume_ndim, 4, (1.0, 2.0), 163.05),
    (volume_ndim, 3, (0.4, 1.2), 35.55),
    (volume_ndim, 2, (0.2, 2.0), 62.1),
    (volume_edges, 3, (0.2, 2.0), 31.8),
]


@pytest.mark.parametrize("route, n, edge_range, entry", COSTS,
                         ids=[f"{r.__name__}-n{n}-{lo}-{hi}" for r, n, (lo, hi), _ in COSTS])
def test_evaluations_per_call(monkeypatch, route, n, edge_range, entry):
    rng = random.Random(SEED)
    draws = [tuple(rng.uniform(*edge_range) for _ in range(n)) for _ in range(DRAWS)]
    gk15, panels = quadrature._gk15, 0

    def counted(f, a, b):
        nonlocal panels
        panels += 1
        return gk15(f, a, b)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    for edges in draws:
        route(edges, tol=TOL)
    mean = 15 * panels / DRAWS
    assert mean <= 1.05 * entry, f"evaluations per call rose from {entry} to {mean}"
    assert mean >= 0.8 * entry, f"evaluations per call fell from {entry} to {mean}: " \
                                "lower the entry"
