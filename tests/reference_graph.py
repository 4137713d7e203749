"""Reference graph walks for differential tests.

These are the traversals that ``WeightedGraph.is_connected`` (a depth-first
search), ``contract_any_slope`` (a union-find), ``realize`` (its own
breadth-first search), ``connected_through_walls`` (a ``deque`` BFS) and
``_spanning_forest`` (a BFS building its path dicts as it goes) used before
they all moved onto the one walk ``exact_linalg._forest``.  Results must be
identical; ``realize`` must also raise the same exception, message and
witness cycle on an input with a single defect.

``reference_wall_graph`` is ``wall_graph`` as it was before it took its
incidences from one-edge contractions alone: it contracts each non-loop
edge of each node, keeps the weightless almost 3-valent results, and
rebuilds every new wall's resolutions to find the nodes that meet it.

``reference_resolutions`` is ``moduli._resolutions`` as it was before each
edge end and leg read its new vertex from one map of the star items: a
positional ``assign`` dict over the sorted star items, found again by
``items.index`` for every edge end.  Keys, ids, edge order and slopes must
be identical.


``reference_check_balanced`` is ``check_balanced`` as it was before it
summed each edge's slope into its two ends in one pass: it walked the star
items of every vertex, reading every edge once per vertex.  The report,
failure order and deficit tuples included, must be identical.

``reference_stabilize_type`` is ``stabilize_type`` as it was before one
dict held each edge's ends, slope and chain: it kept three edge dicts, a
``legs_at`` map and an edge-end scan of its own.  Every field of the
result, dict order included, must be identical, and so must the
exception class and message.
"""

from __future__ import annotations

from collections import Counter, deque

from tropmoduli.errors import (
    CycleInconsistency,
    Disconnected,
    MixedInvariants,
    NotAlmost3Valent,
    SeedNotInGraph,
    UnbalancedType,
    Unstabilizable,
)
from tropmoduli.exact_linalg import vec
from tropmoduli.moduli import (
    WallClassification,
    WallGraph,
    canonical_form,
    classify,
)
from tropmoduli.tropcurve import (
    BalanceReport,
    CombinatorialType,
    ParameterizedTropicalCurve,
    StabilizationResult,
    TropicalCurve,
    WeightedGraph,
    check_balanced,
    extended_degree,
    genus,
    is_stable,
)

from reference_linalg import vec_add, vec_scale, vec_sub


def is_connected(g: WeightedGraph) -> bool:
    ids = g.vertex_ids()
    adj = {v: set() for v in ids}
    for _, u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    stack = [ids[0]]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adj[x])
    return len(seen) == len(ids)


def spanning_forest(vertices, edges):
    adj = {v: [] for v in vertices}
    for eid, u, v in edges:
        adj[u].append((eid, v, 1))
        adj[v].append((eid, u, -1))
    forest, path, tree_edges = [], {}, set()
    for root in vertices:
        if root in path:
            continue
        path[root] = {}
        forest.append((root, None, None, 0))
        queue = [root]
        for u in queue:
            for eid, w, sign in adj[u]:
                if w not in path:
                    path[w] = {**path[u], eid: sign}
                    forest.append((w, u, eid, sign))
                    tree_edges.add(eid)
                    queue.append(w)
    cycles = []
    for eid, u, v in edges:
        if eid in tree_edges:
            continue
        coef = {eid: 1}
        for f, sign in path[v].items():
            coef[f] = coef.get(f, 0) - sign
        for f, sign in path[u].items():
            coef[f] = coef.get(f, 0) + sign
        cycles.append(coef)
    return tuple(forest), cycles


def contract_any_slope(t: CombinatorialType, edges) -> CombinatorialType:
    edges = set(edges)
    g = t.graph
    known = {e for e, _, _ in g.edges}
    if not edges <= known:
        raise KeyError(f"unknown edges {sorted(edges - known)}")
    parent = {v: v for v in g.vertex_ids()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, u, v in g.edges:
        if e in edges and u != v:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    comp = {}
    for v in g.vertex_ids():
        comp.setdefault(find(v), []).append(v)
    name = {r: min(vs) for r, vs in comp.items()}

    weights = {}
    for r, vs in comp.items():
        w = sum(dict(g.vertices)[v] for v in vs)
        internal = sum(1 for e, u, v in g.edges
                       if e in edges and find(u) == r and find(v) == r)
        w += internal - (len(vs) - 1)
        weights[name[r]] = w

    new_edges, new_slopes = [], {}
    for e, u, v in g.edges:
        if e in edges:
            continue
        new_edges.append((e, name[find(u)], name[find(v)]))
        new_slopes[e] = t.slopes[e]
    new_legs = tuple((lid, name[find(v)]) for lid, v in g.legs)
    for lid, _ in g.legs:
        new_slopes[lid] = t.slopes[lid]
    graph = WeightedGraph(tuple(sorted(weights.items())), tuple(sorted(new_edges)), new_legs)
    return CombinatorialType(graph, new_slopes, t.dim)


def reference_check_balanced(t: CombinatorialType) -> BalanceReport:
    failures = []
    for v, _ in t.graph.vertices:
        total = [0] * t.dim
        for item in t.graph.star_items(v):
            for c, x in enumerate(t.slope_of_item(item)):
                total[c] += x
        if any(total):
            failures.append((v, tuple(total)))
    return BalanceReport(tuple(failures))


def realize(t: CombinatorialType, lengths: dict, root_position,
            root=None) -> ParameterizedTropicalCurve:
    report = check_balanced(t)
    if not report.ok:
        raise UnbalancedType(f"unbalanced at {[v for v, _ in report.failures]}")
    curve = TropicalCurve(t.graph, dict(lengths))
    ids = sorted(t.graph.vertex_ids())
    ends = {e: (u, v) for e, u, v in t.graph.edges}
    if root is None:
        root = ids[0]
    positions = {root: vec(root_position)}
    tree_path = {root: ()}
    queue = [root]
    non_tree = []
    visited_edges = set()
    while queue:
        u = queue.pop(0)
        for item in sorted(t.graph.star_items(u)):
            if item[0] != "edge":
                continue
            _, eid, forward = item
            if eid in visited_edges:
                continue
            a, b = ends[eid]
            other = b if u == a and forward else a
            if a == b:
                visited_edges.add(eid)
                if not all(x == 0 for x in t.slopes[eid]):
                    raise CycleInconsistency(
                        f"loop {eid!r} has nonzero slope", cycle=(eid,))
                continue
            if other in positions:
                non_tree.append(eid)
                visited_edges.add(eid)
                continue
            visited_edges.add(eid)
            step = vec_scale(curve.lengths[eid], vec(t.slope_of_item(item)))
            positions[other] = vec_add(positions[u], step)
            tree_path[other] = tree_path[u] + (eid,)
            queue.append(other)
    if len(positions) != len(ids):
        raise Disconnected("type graph is not connected")
    for eid in non_tree:
        a, b = ends[eid]
        expect = vec_scale(curve.lengths[eid], vec(t.slopes[eid]))
        if vec_sub(positions[b], positions[a]) != expect:
            cycle = tree_path[a] + (eid,) + tuple(reversed(tree_path[b]))
            raise CycleInconsistency(
                f"edge {eid!r} closes a cycle with nonzero slope sum", cycle=cycle)
    return ParameterizedTropicalCurve(curve, positions, dict(t.slopes), t.dim)


def connected_through_walls(wg, t1: CombinatorialType, t2: CombinatorialType):
    # nodes that canonical_form returned carry their string (labelling all
    # nodes on every query would make this reference the slowest test)
    node_key = {canonical_form(t).string if t._canonical is None else t._canonical: nid
                for nid, t in wg.nodes}
    k1 = canonical_form(t1).string
    k2 = canonical_form(t2).string
    if k1 not in node_key or k2 not in node_key:
        raise SeedNotInGraph("queried type is not a node of the wall graph")
    start, goal = node_key[k1], node_key[k2]
    if start == goal:
        return True, (start,)
    walls_at = {}
    for wid, _, res in wg.walls:
        for nid in res:
            walls_at.setdefault(nid, []).append((wid, res))
    prev = {start: None}
    queue = deque([start])
    while queue:
        nid = queue.popleft()
        for wid, res in walls_at.get(nid, ()):
            for other in res:
                if other not in prev:
                    prev[other] = (nid, wid)
                    if other == goal:
                        path = [other]
                        cur = other
                        while prev[cur] is not None:
                            pn, pw = prev[cur]
                            path.extend([pw, pn])
                            cur = pn
                        return True, tuple(reversed(path))
                    queue.append(other)
    return False, None


def reference_wall_graph(types) -> WallGraph:
    if not types:
        return WallGraph((), ())
    invariants = set()
    for t in types:
        if classify(t).classification != WallClassification.WEIGHTLESS_3VALENT:
            raise MixedInvariants("wall graph nodes must be weightless and 3-valent")
        invariants.add((genus(t.graph), t.dim, extended_degree(t)))
    if len(invariants) > 1:
        raise MixedInvariants(f"mixed invariants: {sorted(invariants)}")

    canon_nodes = {}
    for t in types:
        cf = canonical_form(t)
        canon_nodes.setdefault(cf.string, cf.type)
    node_key = {k: f"n{i}" for i, k in enumerate(sorted(canon_nodes))}

    walls = {}
    for k in node_key:
        t = canon_nodes[k]
        for e, u, v in t.graph.edges:
            if u == v:
                continue
            w = contract_any_slope(t, {e})
            cls = classify(w)
            if cls.classification != WallClassification.WEIGHTLESS_ALMOST_3VALENT:
                continue
            cf = canonical_form(w)
            if cf.string in walls:
                continue
            keys = reference_resolutions(cf.type, classify(cf.type).four_valent_vertex)
            incident = sorted({node_key[k] for k in keys if k in node_key})
            walls[cf.string] = (cf.type, tuple(incident))
    wall_list = tuple(
        (f"w{i}", walls[k][0], walls[k][1]) for i, k in enumerate(sorted(walls)))
    nodes = tuple((nid, canon_nodes[k]) for k, nid in node_key.items())
    return WallGraph(nodes=nodes, walls=wall_list)


def _fresh_id(base: str, taken) -> str:
    cand = base
    while cand in taken:
        cand += "'"
    return cand


def reference_resolutions(t: CombinatorialType, v: str) -> dict:
    """resolve_4valent's resolutions keyed by their canonical strings."""
    cls = classify(t)
    if cls.classification != WallClassification.WEIGHTLESS_ALMOST_3VALENT:
        raise NotAlmost3Valent(
            f"type is {cls.classification.value} with 4-valent vertex {cls.four_valent_vertex!r}")
    if cls.four_valent_vertex != v:
        raise NotAlmost3Valent(f"vertex {v!r} is not the 4-valent vertex {cls.four_valent_vertex!r}")
    bal = check_balanced(t)
    if not bal.ok:  # every resolution would be unbalanced where t is
        raise UnbalancedType(f"unbalanced at {[x for x, _ in bal.failures]}")
    g = t.graph
    items = sorted(g.star_items(v))
    assert len(items) == 4
    taken_v = set(g.vertex_ids())
    va = _fresh_id(f"{v}a", taken_v)
    vb = _fresh_id(f"{v}b", taken_v | {va})
    new_edge = _fresh_id("eres", {e for e, _, _ in g.edges} | {l for l, _ in g.legs})

    out = {}
    for first in ((0, 1), (0, 2), (0, 3)):
        side_a = set(first)
        assign = {i: (va if i in side_a else vb) for i in range(4)}
        vertices = tuple(sorted([(x, w) for x, w in g.vertices if x != v] +
                                [(va, 0), (vb, 0)]))
        edges = []
        slopes = {}
        for e, a, b in g.edges:
            if a != v and b != v:
                edges.append((e, a, b))
                slopes[e] = t.slopes[e]
                continue
            fwd = items.index(("edge", e, True)) if ("edge", e, True) in items else None
            rev = items.index(("edge", e, False)) if ("edge", e, False) in items else None
            na = assign[fwd] if a == v and fwd is not None else a
            nb = assign[rev] if b == v and rev is not None else b
            edges.append((e, na, nb))
            slopes[e] = t.slopes[e]
        legs = []
        for lid, x in g.legs:
            if x == v:
                pos = items.index(("leg", lid))
                legs.append((lid, assign[pos]))
            else:
                legs.append((lid, x))
            slopes[lid] = t.slopes[lid]
        total_a = tuple(
            sum(t.slope_of_item(items[i])[c] for i in side_a) for c in range(t.dim))
        slopes[new_edge] = tuple(-x for x in total_a)  # slope along va -> vb
        edges.append((new_edge, va, vb))
        res = CombinatorialType._trusted(
            WeightedGraph._trusted(vertices, tuple(sorted(edges)), tuple(legs)), slopes, t.dim)
        assert check_balanced(res).ok
        assert classify(res).classification == WallClassification.WEIGHTLESS_3VALENT
        out.setdefault(canonical_form(res).string, res)
    assert 1 <= len(out) <= 3
    return out


def reference_stabilize_type(t: CombinatorialType, counts=None) -> StabilizationResult:
    """``counts``, a ``Counter``, records each pruned and each smoothed
    vertex, and each weight-0 leg-free vertex skipped because its two
    edge-ends are one loop."""
    counts = Counter() if counts is None else counts
    weights = {v: w for v, w in t.graph.vertices}
    ends = {e: (u, v) for e, u, v in t.graph.edges}
    slopes = {e: t.slopes[e] for e in ends}
    leg_slopes = {l: t.slopes[l] for l, _ in t.graph.legs}
    legs_at = {}
    for lid, v in t.graph.legs:
        legs_at.setdefault(v, []).append(lid)
    chains = {e: (e,) for e in ends}

    def incident(v):
        out = []
        for e, (a, b) in ends.items():
            if a == v:
                out.append((e, True))
            if b == v:
                out.append((e, False))
        return out

    while True:
        acted = False
        for v in sorted(weights):
            if weights[v] != 0 or v in legs_at:
                continue
            inc = incident(v)
            if len(inc) == 1:
                e, forward = inc[0]
                if all(x == 0 for x in slopes[e]):
                    del ends[e], slopes[e], chains[e]
                    del weights[v]
                    counts["pruned"] += 1
                    acted = True
                    break
            elif len(inc) == 2:
                (e1, f1), (e2, f2) = inc
                if e1 == e2:
                    counts["loop skipped"] += 1
                    continue  # a loop; smoothing does not apply
                s1 = slopes[e1] if f1 else tuple(-x for x in slopes[e1])
                s2 = slopes[e2] if f2 else tuple(-x for x in slopes[e2])
                if any(x + y != 0 for x, y in zip(s1, s2)):
                    continue
                a = ends[e1][1] if f1 else ends[e1][0]
                b = ends[e2][1] if f2 else ends[e2][0]
                new_id = min(e1, e2)
                chain = chains[e1] + chains[e2]
                for e in (e1, e2):
                    del ends[e], slopes[e], chains[e]
                ends[new_id] = (a, b)
                slopes[new_id] = s2  # slope along a -> b through the old vertex
                chains[new_id] = chain
                del weights[v]
                counts["smoothed"] += 1
                acted = True
                break
        if not acted:
            break

    graph = WeightedGraph._trusted(tuple(sorted(weights.items())),
                                   tuple(sorted((e, u, v) for e, (u, v) in ends.items())),
                                   t.graph.legs)
    if not is_stable(graph):
        bad = [v for v, w in graph.vertices if graph.valence(v) + 2 * w < 3]
        raise Unstabilizable(f"no stable model: vertices {bad} cannot be removed")
    all_slopes = dict(slopes)
    all_slopes.update(leg_slopes)
    return StabilizationResult(graph=graph, slopes=all_slopes,
                               edge_chains=dict(chains), kept_vertices=tuple(sorted(weights)))
