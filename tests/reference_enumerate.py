"""Reference enumeration code for differential tests.

``reference_enumerate_types`` is ``moduli.enumerate_types`` as it was
before tree classes skipped the stratum check: it builds and checks the
stratum of every isomorphism class, it rebuilds every candidate type
through the validating ``WeightedGraph`` and ``CombinatorialType``
constructors before labelling it, and it labels each multigraph by the
brute-force search in ``reference_canonical``.  Its output must be
identical.  Its slope search, ``reference_balanced_types``, is
``moduli._balanced_types`` as it was before the sign cut and the single
pass over tree multigraphs: per coordinate, the tree flow
(``reference_tree_flow``, ``moduli._tree_flow`` as it was before it
solved every coordinate at once) and the walk of the box of cycle
coefficients, keeping every solution.

``reference_integer_box_solutions`` is the slope search as it was before
it walked the box of fundamental-cycle coefficients: it bounds each
coefficient by two exact LP relaxations, so it is complete for any
independent kernel.  On fundamental cycles its output must be identical.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product

from tropmoduli.exact_linalg import lp_maximize
from tropmoduli.moduli import (
    _compositions,
    _integer_box_solutions,
    _spanning_forest,
    canonical_form,
    stratum,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph

from reference_canonical import _least_automorphisms


def reference_enumerate_types(g, n, degree, max_edges, dim=None, checked=None):
    """enumerate_types with a stratum check for every class; the canonical
    type of each checked class is appended to ``checked`` when given."""
    degree = tuple(tuple(int(x) for x in s) for s in degree)
    dim = len(degree[0]) if dim is None else dim
    ext = tuple((0,) * dim for _ in range(n)) + degree
    L = len(ext)
    bound = [sum(abs(s[c]) for s in ext) for c in range(dim)]
    checked = [] if checked is None else checked

    found = {}
    max_nv = 2 * g - 2 + L
    for nv in range(1, min(max_nv, max_edges + 1) + 1 if max_nv >= 1 else 0):
        vids = [f"v{i}" for i in range(nv)]
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        for ne in range(max(nv - 1, 0), min(max_edges, nv - 1 + g) + 1):
            wsum = g - (ne - nv + 1)
            if wsum < 0:
                continue
            for emulti in combinations_with_replacement(pairs, ne):
                ends = [0] * nv
                for i, j in emulti:
                    ends[i] += 1
                    ends[j] += 1
                if any(a < b for a, b in zip(ends, ends[1:])):
                    continue
                autos = _least_automorphisms(emulti, ends)
                if autos is None:
                    continue
                edges = tuple((f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(emulti))
                non_loops = [(e, u, v) for e, u, v in edges if u != v]
                forest, cycles = _spanning_forest(vids, non_loops)
                if sum(1 for _, parent, _, _ in forest if parent is None) > 1:
                    continue
                kernel = [tuple(coef.get(e, 0) for e, _, _ in non_loops) for coef in cycles]
                for weights in _compositions(wsum, nv):
                    deficit = [max(0, 3 - 2 * w - k) for w, k in zip(weights, ends)]
                    if sum(deficit) > L:
                        continue
                    weight_autos = [p for p in autos
                                    if all(weights[p[v]] == weights[v] for v in range(nv))]
                    vertices = tuple(zip(vids, weights))
                    for assign in product(range(nv), repeat=L):
                        if any(assign.count(v) < deficit[v] for v in range(nv)):
                            continue
                        if any(tuple(p[a] for a in assign) < assign for p in weight_autos):
                            continue
                        legs = tuple((f"l{i}", vids[a]) for i, a in enumerate(assign))
                        graph = WeightedGraph(vertices, edges, legs)
                        for t in reference_balanced_types(graph, forest, kernel, ext, dim, bound):
                            t = CombinatorialType(graph, dict(t.slopes), dim)
                            cf = canonical_form(t)
                            if cf.string not in found:
                                checked.append(cf.type)
                                empty = stratum(cf.type).is_empty()
                                found[cf.string] = None if empty else cf.type
    return [found[k] for k in sorted(found) if found[k] is not None]


def reference_balanced_types(graph, forest, kernel, ext, dim, bound):
    """Slope assignments making ``graph`` balanced with the given leg slopes.

    Per coordinate, the tree flow of minus the leg slopes at each vertex is
    one integer solution of the balancing equations; adding the cycles of
    ``kernel`` gives the rest.  Loops get slope zero.
    """
    non_loops = [e for e, u, v in graph.edges if u != v]
    loops = [e for e, u, v in graph.edges if u == v]
    per_coord = []
    for c in range(dim):
        b = {v: 0 for v in graph.vertex_ids()}
        for i, (_, v) in enumerate(graph.legs):
            b[v] -= ext[i][c]
        flow = reference_tree_flow(forest, b)
        if flow is None:
            return
        sols = _integer_box_solutions(
            tuple(flow.get(e, 0) for e in non_loops), kernel, bound[c])
        if not sols:
            return
        per_coord.append(sols)

    leg_slopes = {f"l{i}": ext[i] for i in range(len(ext))}
    for combo in product(*per_coord):
        slopes = dict(leg_slopes)
        for k, e in enumerate(non_loops):
            slopes[e] = tuple(combo[c][k] for c in range(dim))
        for e in loops:
            slopes[e] = (0,) * dim
        yield CombinatorialType._trusted(graph, slopes, dim)


def reference_tree_flow(forest, b):
    """Integer x with (out-flow - in-flow)(v) = b[v] at every vertex, or None.

    One coordinate: each forest edge carries the sum of ``b`` over the
    subtree below it, signed by its orientation.  There is no solution at
    all when ``b`` does not sum to zero over some component.
    """
    below = dict(b)
    x = {}
    for v, parent, e, sign in reversed(forest):
        if parent is None:
            if below[v]:
                return None
        else:
            x[e] = -sign * below[v]
            below[parent] += below[v]
    return x


def reference_integer_box_solutions(particular, kernel, bound):
    """All integer vectors particular + sum(c_i * kernel_i) within |x_e| <= bound, sorted.

    The kernel vectors must be independent; every lattice basis of the same
    lattice gives the same points.  Bounds for each coefficient come from
    exact LP relaxations, so the recursion is complete; kernel ranks here
    are the first Betti number of the graph, which is tiny.
    """
    ne = len(particular)
    sols = []

    def recurse(level, base):
        if level == len(kernel):
            if all(abs(x) <= bound for x in base):
                sols.append(tuple(base))
            return
        # optimize c_level over the LP relaxation of the remaining freedom
        nfree = len(kernel) - level
        ineqs = []
        for e in range(ne):
            coef = tuple(kernel[level + j][e] for j in range(nfree))
            ineqs.append((coef, -bound - base[e]))                      # base + K c >= -B
            ineqs.append((tuple(-x for x in coef), base[e] - bound))    # -(base + K c) >= -B
        lo_obj = tuple(-1 if j == 0 else 0 for j in range(nfree))
        hi_obj = tuple(1 if j == 0 else 0 for j in range(nfree))
        status_hi, _, val_hi = lp_maximize(hi_obj, [], ineqs, [False] * nfree)
        status_lo, _, val_lo = lp_maximize(lo_obj, [], ineqs, [False] * nfree)
        if status_hi != 'optimal' or status_lo != 'optimal':
            return  # infeasible box (or unbounded, impossible for independent kernels)
        for c in range(math.ceil(-val_lo), math.floor(val_hi) + 1):
            recurse(level + 1, [b + c * k for b, k in zip(base, kernel[level])])

    recurse(0, list(particular))
    return sorted(sols)
