"""The stratum of a type as its full edge-relation system, for tests.

``moduli.stratum`` decides emptiness and dimension on the cycle space
alone.  This module builds the ambient system from the type itself:
coordinates are the edge lengths in sorted edge-id order, then one
position block per vertex in sorted vertex-id order, and each edge
(e, u, v) with slope s gives the ``dim`` equalities p_v - p_u - l_e * s = 0.
The stratum is where they hold with every length > 0.  The sampler walks
the kernel of those equalities from a strict feasible point, so the affine
hull of its samples is the stratum's affine hull.
"""

from __future__ import annotations

from fractions import Fraction

from tropmoduli.exact_linalg import rank
from tropmoduli.moduli import stratum
from tropmoduli.tropcurve import _place

from reference_linalg import feasible_point, kernel_rational


def ambient_system(t):
    """(edge order, vertex order, ambient dimension, equality rows with rhs 0)."""
    edge_order = tuple(sorted(e for e, _, _ in t.graph.edges))
    vertex_order = tuple(sorted(t.graph.vertex_ids()))
    ambient = len(edge_order) + t.dim * len(vertex_order)
    vpos = {v: len(edge_order) + i * t.dim for i, v in enumerate(vertex_order)}
    epos = {e: i for i, e in enumerate(edge_order)}
    rows = []
    for eid, u, v in sorted(t.graph.edges):
        s = t.slopes[eid]
        for c in range(t.dim):
            row = [0] * ambient
            row[epos[eid]] -= s[c]
            row[vpos[v] + c] += 1
            row[vpos[u] + c] -= 1
            rows.append(tuple(row))
    return edge_order, vertex_order, ambient, tuple(rows)


def strict_point(t):
    """A point of the ambient system with every length > 0, or None."""
    edge_order, _, n, rows = ambient_system(t)
    nlen = len(edge_order)
    lengths = [(tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(nlen)]
    return feasible_point([(r, 0) for r in rows], lengths, n, strict=range(nlen))


def sample_stratum(t, n: int, rng) -> list:
    """n exact rational points of the stratum (strictly positive lengths).

    The first samples walk along each kernel direction of the equality
    system from a strict point, so the affine hull of the output equals the
    stratum's affine hull; the rest are random kernel combinations.
    """
    x0 = strict_point(t)
    if x0 is None:
        return []
    edge_order, _, ambient, rows = ambient_system(t)
    kernel = kernel_rational(rows, ambient)

    nlen = len(edge_order)

    def step_limit(direction):
        # largest lam with x0 + lam*direction keeping lengths positive, halved
        lam = Fraction(1)
        for i in range(nlen):
            d = direction[i]
            if d < 0:
                lam = min(lam, -x0[i] / d / 2)
        return lam

    samples = [tuple(x0)]
    for k in kernel:
        lam = step_limit(k)
        if lam > 0:
            samples.append(tuple(x + lam * d for x, d in zip(x0, k)))
        if len(samples) >= n:
            return samples[:n]
    while len(samples) < n:
        direction = [Fraction(0)] * ambient
        for k in kernel:
            c = Fraction(rng.randint(-5, 5))
            direction = [d + c * x for d, x in zip(direction, k)]
        lam = step_limit(direction)
        if lam > 0 or all(d == 0 for d in direction):
            samples.append(tuple(x + lam * d for x, d in zip(x0, direction)))
    return samples[:n]


def assert_stratum_systems_agree(t):
    """The cycle-space answers of ``stratum(t)`` match the ambient system.

    The ambient answer is ``strict_point`` and ambient dimension - rank.  The
    cycle-space lengths, carried along the stratum's forest, must give a
    point of the ambient system.
    """
    desc = stratum(t)
    edge_order, vertex_order, ambient, rows = ambient_system(t)
    assert desc.edge_order == edge_order
    full = strict_point(t)
    assert desc.is_empty() == (full is None)
    if full is None:
        assert desc.dim() is None
        return
    assert desc.dim() == ambient - rank(rows)
    lengths = desc._lengths()
    pos = _place(desc.forest, (Fraction(0),) * t.dim, dict(zip(edge_order, lengths)), t.slopes)
    point = lengths + tuple(x for v in vertex_order for x in pos[v])
    for row in rows:
        assert sum(a * x for a, x in zip(row, point)) == 0
    assert all(x > 0 for x in lengths)
