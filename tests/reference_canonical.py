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

``searched_canonical_form`` is the labelling that ran the canonical search
on every type and built names with f-strings, and ``forest_contraction``
the forest-walk contraction of an edge subset.  They are kept verbatim, on
the public constructors, as the references of ``canonical_form``'s
discrete-colour path and of ``wall_graph``'s one-edge contraction: the
forms must agree field by field, in the iteration order of every map.
"""

from __future__ import annotations

from itertools import permutations, product

from tropmoduli.exact_linalg import _forest, _too_long
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


def _searched_refine_colors(t: CombinatorialType, star):
    """Stable vertex colours, from (weight, leg positions, outgoing slopes).

    ``star[v]`` lists (outgoing slope, neighbour) for each edge end at v; a
    round appends the sorted (slope, neighbour colour) pairs to the rank of
    each colour.  A round refines the one before it, so the partition is
    stable as soon as it keeps the number of classes.
    """
    legs_at = {}
    for pos, (_, v) in enumerate(t.graph.legs):
        legs_at.setdefault(v, []).append(pos)
    color = {v: (w, tuple(legs_at.get(v, ())), tuple(sorted(s for s, _ in star[v])))
             for v, w in t.graph.vertices}
    while True:
        distinct = set(color.values())
        if len(distinct) == len(color):
            return color  # discrete
        ranks = {c: i for i, c in enumerate(sorted(distinct))}
        neigh = {v: (ranks[color[v]], tuple(sorted((s, ranks[color[o]]) for s, o in star[v])))
                 for v in color}
        if len(set(neigh.values())) == len(ranks):
            return color
        color = neigh


def _searched_edge_record(iu, iv, s):
    """An edge between iu and iv with slope s along it, stored from the smaller end."""
    if iu < iv:
        return (iu, iv, s)
    neg = tuple(-x for x in s)
    return (iv, iu, neg) if iv < iu else (iu, iv, min(s, neg))


def _searched_orbit(x, gens):
    seen, stack = {x}, [x]
    while stack:
        y = stack.pop()
        for g in gens:
            if g[y] not in seen:
                seen.add(g[y])
                stack.append(g[y])
    return seen


def _searched_search(t: CombinatorialType):
    """The canonical-labelling search: (vertex ids, best ordering, automorphisms).

    Vertices, sorted by id, are numbered 0..n-1.  Orderings place the colour
    classes in colour order and are visited depth first, the vertices of a
    class in id order, as the product of permutations within classes lists
    them.  A leaf's key is its sorted edge records; weights and leg records
    agree at every leaf, since they are part of the colour and a vertex with
    legs is alone in its class.  Equal keys make the map between the two
    leaves an automorphism, so each leaf is compared with the first leaf and
    the best one.  A candidate is skipped when an automorphism found so far
    that fixes the current prefix maps an already tried candidate onto it,
    and a new automorphism sends the search back to the level where its two
    leaves part (McKay-Piperno).  Every skipped leaf is the image of an
    earlier leaf with the same key, so the best ordering (as a tuple of
    vertex numbers by position) is the first least one of the product, and
    the automorphisms found (as tuples of images) generate the group.
    """
    vs = sorted(t.graph.vertex_ids())
    index = {v: i for i, v in enumerate(vs)}
    star = {v: [] for v in vs}
    edges = []
    for eid, u, v in t.graph.edges:
        s = t.slopes[eid]
        star[u].append((s, v))
        star[v].append((tuple(-x for x in s), u))
        edges.append((index[u], index[v], s))
    color = _searched_refine_colors(t, star)
    classes = {}
    for v in vs:
        classes.setdefault(color[v], []).append(index[v])
    n = len(vs)
    if len(classes) == n:
        return vs, tuple(classes[c][0] for c in sorted(classes)), []
    cells = [classes[c] for c in sorted(classes) for _ in classes[c]]  # candidates by position
    seq, gens = [], []
    first = best = None  # (key, ordering)

    def visit(depth):
        """Search below the prefix ``seq``; returns the level to resume at."""
        nonlocal first, best
        if depth == n:
            pos = {x: i for i, x in enumerate(seq)}
            key = sorted(_searched_edge_record(pos[a], pos[b], s) for a, b, s in edges)
            if first is None:
                first = best = (key, tuple(seq))
                return n
            for ref_key, ref in (first, best):
                if key == ref_key:
                    gen = list(range(n))
                    for a, b in zip(ref, seq):
                        gen[a] = b
                    gens.append(tuple(gen))
                    return next(i for i, (a, b) in enumerate(zip(ref, seq)) if a != b)
            if key < best[0]:
                best = (key, tuple(seq))
            return n
        tried, fixing, known = set(), [], 0
        for x in cells[depth]:
            if x in seq:
                continue
            fixing += [g for g in gens[known:] if all(g[v] == v for v in seq)]
            known = len(gens)
            if not tried.isdisjoint(_searched_orbit(x, fixing)):
                continue
            tried.add(x)
            seq.append(x)
            back = visit(depth + 1)
            seq.pop()
            if back < depth:
                return back
        return depth

    visit(0)
    return vs, best[1], gens
def searched_canonical_form(t: CombinatorialType) -> CanonicalForm:
    """Deterministic canonical representative of the isomorphism class.

    Minimizes the serialized form over all vertex orderings compatible with
    the refinement coloring; legs keep their positions, vertices become
    v0..vk and edges e0..em in serialization order.
    """
    vs, best, _ = _searched_search(t)
    order = {vs[x]: i for i, x in enumerate(best)}
    g = t.graph
    erecs = sorted((_searched_edge_record(order[u], order[v], t.slopes[eid]), eid)
                   for eid, u, v in g.edges)
    key = (t.dim,
           tuple(w for _, w in sorted((order[v], w) for v, w in g.vertices)),
           tuple((order[v], t.slopes[lid]) for lid, v in g.legs),
           tuple(rec for rec, _ in erecs))
    vmap = {v: f"v{i}" for v, i in order.items()}
    emap = {eid: f"e{i}" for i, (_, eid) in enumerate(erecs)}
    new_vertices = tuple((f"v{i}", w) for i, w in enumerate(key[1]))
    new_edges = tuple((emap[eid], f"v{iu}", f"v{iv}") for (iu, iv, _), eid in erecs)
    new_legs = tuple((f"l{i}", vmap[v]) for i, (_, v) in enumerate(g.legs))
    new_slopes = {f"l{i}": t.slopes[lid] for i, (lid, _) in enumerate(g.legs)}
    for rec, eid in erecs:
        new_slopes[emap[eid]] = rec[2]
    canon = CombinatorialType(WeightedGraph(new_vertices, new_edges, new_legs), new_slopes, t.dim)
    try:
        canon._canonical = repr(key)
    except ValueError:  # a slope past the integer digit limit, built by adding input slopes
        raise _too_long() from None
    return CanonicalForm(key=key, string=canon._canonical, vertex_map=vmap, edge_map=emap,
                         type=canon)


def _forest_pieces(g: WeightedGraph, edges):
    """Each vertex's piece when the edge ids ``edges`` of ``g`` are contracted
    (a tree of their forest, named by its root, its least vertex id) and each
    piece's genus weight: the sum of its vertices' weights plus its b_1."""
    contracted = [(e, u, v) for e, u, v in g.edges if e in edges]
    weight = dict(g.vertices)
    name, weights = {}, {}
    for v, parent, _, _ in _forest(sorted(weight), contracted):
        name[v] = v if parent is None else name[parent]
        weights[name[v]] = weights.get(name[v], 1) + weight[v] - 1
    for _, u, _ in contracted:
        weights[name[u]] += 1  # b_1 = |E| - |V| + 1 of the piece
    return name, weights


def forest_contraction(t: CombinatorialType, edges) -> CombinatorialType:
    """Weighted contraction of an edge subset, regardless of slopes.

    This is the closure-limit operation (lengths of the contracted edges go
    to zero and their endpoints merge); contracting a loop deletes it and
    adds one to the weight of its vertex.  Genus is preserved.
    """
    edges = set(edges)
    g = t.graph
    known = {e for e, _, _ in g.edges}
    if not edges <= known:
        raise KeyError(f"unknown edges {sorted(edges - known)}")
    name, weights = _forest_pieces(g, edges)
    new_edges, new_slopes = [], {}
    for e, u, v in g.edges:
        if e in edges:
            continue
        new_edges.append((e, name[u], name[v]))
        new_slopes[e] = t.slopes[e]
    new_legs = tuple((lid, name[v]) for lid, v in g.legs)
    for lid, _ in g.legs:
        new_slopes[lid] = t.slopes[lid]
    graph = WeightedGraph(tuple(sorted(weights.items())), tuple(sorted(new_edges)), new_legs)
    return CombinatorialType(graph, new_slopes, t.dim)
