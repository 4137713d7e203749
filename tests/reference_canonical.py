"""The product-of-permutations canonical labelling, kept as a test reference.

``reference_canonical_form`` refines vertex colours on (weight, leg
positions, incident slopes, neighbour colours) until the partition is
stable, then serializes the type under every vertex ordering that keeps
the colour classes in order and returns the least serialization, breaking
ties by the first ordering in product-of-permutations order.  Its cost is
the product of the class sizes' factorials, so it is only for small types.
``moduli.canonical_form`` must return the same key, string, maps and type.

``_end_permutations`` and ``_least_automorphisms`` are the brute-force
labelling search that ``enumerate_types`` used before it read its
multigraphs off ``moduli._multigraphs``: every permutation that keeps the
edge-end counts is tried, to pick each multigraph's least labelling with
non-increasing counts and its automorphisms.  ``reference_enumerate_types``
still labels its multigraphs this way.  ``reference_automorphisms`` lists
every automorphism of a labelled multigraph; ``_least_automorphisms`` must
return the same list on a least labelling, and ``_multigraphs`` the same
group on its own labelling.
"""

from __future__ import annotations

from itertools import permutations, product

from tropmoduli.moduli import CanonicalForm
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph


def _end_permutations(ends):
    """Vertex permutations keeping the edge-end counts ``ends``: products of
    permutations within the classes of equal counts."""
    classes = {}
    for v, k in enumerate(ends):
        classes.setdefault(k, []).append(v)
    groups = list(classes.values())
    for images in product(*(permutations(cl) for cl in groups)):
        p = [0] * len(ends)
        for cl, image in zip(groups, images):
            for v, w in zip(cl, image):
                p[v] = w
        yield tuple(p)


def _least_automorphisms(emulti, ends):
    """The permutations keeping ``ends`` (the number of edge ends at each
    vertex) that map the sorted edge multiset ``emulti`` to itself, or None
    when one of them maps it to a smaller one.

    With ``ends`` non-increasing, the labellings of one unlabelled
    multigraph that keep ``ends`` sorted are one orbit of those
    permutations, so exactly one of them is the least and gets a list.
    """
    edges = list(emulti)
    autos = []
    for p in _end_permutations(ends):
        image = sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in emulti)
        if image < edges:
            return None
        if image == edges:
            autos.append(p)
    return autos


def reference_refine_colors(t: CombinatorialType):
    g = t.graph
    ends = {e: (u, v) for e, u, v in g.edges}
    legs_at = {}
    for pos, (lid, v) in enumerate(g.legs):
        legs_at.setdefault(v, []).append(pos)
    color = {}
    for v, w in g.vertices:
        out_slopes = sorted(
            t.slope_of_item(item) for item in g.star_items(v) if item[0] == "edge")
        color[v] = (w, tuple(legs_at.get(v, ())), tuple(out_slopes))
    while True:
        ranks = {c: i for i, c in enumerate(sorted(set(color.values())))}
        neigh = {}
        for v, _ in g.vertices:
            sig = []
            for item in g.star_items(v):
                if item[0] != "edge":
                    continue
                _, eid, forward = item
                a, b = ends[eid]
                other = b if forward else a
                sig.append((t.slope_of_item(item), ranks[color[other]]))
            neigh[v] = (ranks[color[v]], tuple(sorted(sig)))
        if len(set(neigh.values())) == len(set(color.values())):
            stable = all(
                (color[a] == color[b]) == (neigh[a] == neigh[b])
                for a, _ in g.vertices for b, _ in g.vertices
            )
            if stable:
                return color
        color = neigh


def _edge_record(t, order, eid, u, v):
    iu, iv = order[u], order[v]
    s = t.slopes[eid]
    if iu == iv:
        return (iu, iv, min(s, tuple(-x for x in s)))
    if iu < iv:
        return (iu, iv, s)
    return (iv, iu, tuple(-x for x in s))


def reference_serialize(t: CombinatorialType, order: dict):
    g = t.graph
    vlines = tuple(w for _, w in sorted(((order[v], w) for v, w in g.vertices)))
    llines = tuple((order[v], t.slopes[lid]) for lid, v in g.legs)
    erecs = sorted(_edge_record(t, order, eid, u, v) for eid, u, v in g.edges)
    return (t.dim, vlines, llines, tuple(erecs))


def reference_canonical_form(t: CombinatorialType) -> CanonicalForm:
    color = reference_refine_colors(t)
    classes = {}
    for v in sorted(color):
        classes.setdefault(color[v], []).append(v)
    class_list = [classes[c] for c in sorted(classes)]
    best = best_order = None
    for perm_combo in product(*[permutations(cl) for cl in class_list]):
        order = {}
        for group in perm_combo:
            for v in group:
                order[v] = len(order)
        key = reference_serialize(t, order)
        if best is None or key < best:
            best, best_order = key, order

    vmap = {v: f"v{best_order[v]}" for v in best_order}
    erecs = sorted((_edge_record(t, best_order, eid, u, v), eid) for eid, u, v in t.graph.edges)
    emap = {eid: f"e{i}" for i, (_, eid) in enumerate(erecs)}
    new_vertices = tuple(sorted(((vmap[v], w) for v, w in t.graph.vertices),
                                key=lambda x: int(x[0][1:])))
    new_edges = tuple((emap[eid], f"v{iu}", f"v{iv}") for (iu, iv, _), eid in erecs)
    new_legs = tuple((f"l{i}", vmap[v]) for i, (lid, v) in enumerate(t.graph.legs))
    new_slopes = {f"l{i}": t.slopes[lid] for i, (lid, _) in enumerate(t.graph.legs)}
    for rec, eid in erecs:
        new_slopes[emap[eid]] = rec[2]
    canon = CombinatorialType(WeightedGraph(new_vertices, new_edges, new_legs), new_slopes, t.dim)
    return CanonicalForm(key=best, string=repr(best), vertex_map=vmap, edge_map=emap, type=canon)


def reference_automorphisms(emulti, ends) -> list:
    """Permutations p of the vertices mapping the sorted edge multiset to itself.

    ``ends[v]`` is the number of edge ends at v.  Only permutations keeping
    it can qualify, so the search runs over products of permutations within
    its classes.
    """
    return [p for p in _end_permutations(ends)
            if sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in emulti) == list(emulti)]
