"""Abstract and parameterized tropical curves.

A tropical curve is a connected weighted multigraph with positive edge
lengths and an ordered list of legs (half-edges of infinite length).  A
combinatorial type adds an integer slope vector per oriented edge and leg;
a parameterized curve adds vertex positions satisfying the edge relation
position(v) - position(u) = length(e) * slope(u -> v) exactly.

Edge and leg ids share one namespace, the keys of the slopes, so no id
names both an edge and a leg.  Slopes are stored once per edge, along the
stored (u, v) orientation; the reverse orientation is the negation.  Legs
are always oriented away from their vertex.  Loops contribute both
orientations to the star of their vertex, so they never affect balancing.
The constructors validate; the unchecked ``_trusted`` builds are only for
``moduli.canonical_form``, ``contract_any_slope``, ``_contract_edge``,
``_resolutions``, ``_leg_graphs``, ``_balanced_types``, ``_multigraphs``,
``stabilize_type`` and ``family._face_lift``, which build from valid parts.
Graphs, curves and reports are plain slotted records (see ``records``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import CycleInconsistency, Disconnected, UnbalancedType, Unstabilizable
from .exact_linalg import _forest, frac, ivec, vec
from .records import FrozenRecord, Record


class WeightedGraph(FrozenRecord):
    """Weighted multigraph with ordered legs.

    vertices: ((id, weight), ...); edges: ((id, u, v), ...) with loops
    allowed; legs: ((id, vertex), ...) where the tuple order is the leg
    order and is significant.
    """

    __slots__ = ("vertices", "edges", "legs")
    def __init__(self, vertices: tuple, edges: tuple, legs: tuple):
        self.vertices, self.edges, self.legs = vertices, edges, legs
        self.__post_init__()

    def __post_init__(self):
        """The checks that ``__init__`` runs and ``_trusted`` skips."""
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        if not ids:
            raise ValueError("a graph needs at least one vertex")
        vset = set(ids)
        eids = [e for e, _, _ in self.edges]
        if len(set(eids)) != len(eids):
            raise ValueError("duplicate edge ids")
        for e, u, v in self.edges:
            if u not in vset or v not in vset:
                raise ValueError(f"edge {e!r} has unknown endpoint")
        lids = [l for l, _ in self.legs]
        if len(set(lids)) != len(lids):
            raise ValueError("duplicate leg ids")
        shared = sorted(set(eids) & set(lids))
        if shared:
            raise ValueError(f"id {shared[0]!r} names both an edge and a leg")
        for l, v in self.legs:
            if v not in vset:
                raise ValueError(f"leg {l!r} attached to unknown vertex")

    @classmethod
    def _trusted(cls, vertices, edges, legs):
        """A graph from parts already known to be valid, without the checks."""
        g = object.__new__(cls)
        g.vertices, g.edges, g.legs = vertices, edges, legs
        return g

    def vertex_ids(self):
        return [v for v, _ in self.vertices]

    def star_items(self, v):
        """Oriented edge-ends and legs with tail v, as hashable items.

        Edge items are ("edge", id, forward) where forward means the stored
        orientation starts at v; a loop yields both items.
        """
        items = []
        for eid, a, b in self.edges:
            if a == v:
                items.append(("edge", eid, True))
            if b == v:
                items.append(("edge", eid, False))
        for lid, a in self.legs:
            if a == v:
                items.append(("leg", lid))
        return items

    def valence(self, v) -> int:
        return len(self.star_items(v))

    def is_connected(self) -> bool:
        forest = _forest(self.vertex_ids(), self.edges)
        return all(parent is not None for _, parent, _, _ in forest[1:])


class CombinatorialType:
    """Weighted leg-ordered graph with a slope vector per edge and leg."""

    _canonical = None  # canonical string, set only on types moduli.canonical_form returns

    def __init__(self, graph: WeightedGraph, slopes: dict, dim: int):
        self.graph = graph
        self.dim = dim
        self.slopes = {}
        for eid, _, _ in graph.edges:
            if eid not in slopes:
                raise ValueError(f"missing slope for edge {eid!r}")
        for lid, _ in graph.legs:
            if lid not in slopes:
                raise ValueError(f"missing slope for leg {lid!r}")
        for key, s in slopes.items():
            s = ivec(s)
            if len(s) != dim:
                raise ValueError(f"slope for {key!r} has wrong dimension")
            self.slopes[key] = s

    @classmethod
    def _trusted(cls, graph: WeightedGraph, slopes: dict, dim: int):
        """A type from a valid graph and complete integer slopes, without the checks."""
        t = object.__new__(cls)
        t.graph, t.slopes, t.dim = graph, slopes, dim
        return t

    def __eq__(self, other):
        return isinstance(other, CombinatorialType) and \
            self.graph == other.graph and self.dim == other.dim and self.slopes == other.slopes

    def __repr__(self):
        return f"CombinatorialType({len(self.graph.vertices)}v/{len(self.graph.edges)}e/{len(self.graph.legs)}l, dim={self.dim})"

    def slope_of_item(self, item):
        """Slope oriented away from the item's tail vertex."""
        if item[0] == "leg":
            return self.slopes[item[1]]
        _, eid, forward = item
        s = self.slopes[eid]
        return s if forward else tuple(-x for x in s)


class TropicalCurve(Record):
    __slots__ = ("graph", "lengths")
    def __init__(self, graph: WeightedGraph, lengths: dict):
        self.graph = graph
        self.lengths = dict(lengths)  # edge id -> positive Fraction, in a copy of the argument
        for eid, _, _ in self.graph.edges:
            if eid not in self.lengths:
                raise ValueError(f"missing length for edge {eid!r}")
            self.lengths[eid] = frac(self.lengths[eid])
            if self.lengths[eid] <= 0:
                raise ValueError(f"length of {eid!r} must be positive")


class ParameterizedTropicalCurve:
    """Tropical curve plus vertex positions realizing the slopes exactly."""

    def __init__(self, curve: TropicalCurve, positions: dict, slopes: dict, dim: int):
        self.curve = curve
        self.dim = dim
        self.type = CombinatorialType(curve.graph, slopes, dim)
        self.positions = {v: vec(p) for v, p in positions.items()}
        for v in curve.graph.vertex_ids():
            if v not in self.positions:
                raise ValueError(f"missing position for vertex {v!r}")
            if len(self.positions[v]) != dim:
                raise ValueError(f"position of {v!r} has wrong dimension")

    @property
    def graph(self):
        return self.curve.graph

    def edge_relation_violations(self):
        """Edges where position(v) - position(u) != length * slope(u->v)."""
        bad = []
        for eid, u, v in self.graph.edges:
            length = self.curve.lengths[eid]
            if any(q - p != length * s for p, q, s in
                   zip(self.positions[u], self.positions[v], self.type.slopes[eid])):
                bad.append(eid)
        return bad

    def is_valid(self) -> bool:
        return not self.edge_relation_violations() and check_balanced(self.type).ok


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def genus(g: WeightedGraph) -> int:
    """|E| - |V| + 1 + total weight, for connected graphs."""
    if not g.is_connected():
        raise Disconnected("genus requires a connected graph")
    return len(g.edges) - len(g.vertices) + 1 + sum(w for _, w in g.vertices)


def is_stable(g: WeightedGraph) -> bool:
    """Every vertex satisfies |Star(v)| + 2 weight(v) >= 3 (a loop counts twice)."""
    return all(g.valence(v) + 2 * w >= 3 for v, w in g.vertices)


class BalanceReport(Record):
    __slots__ = ("failures",)  # ((vertex id, deficit vector), ...)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_balanced(t: CombinatorialType) -> BalanceReport:
    """Whether the outgoing slopes at each vertex sum to zero, summed edge by edge."""
    total = dict.fromkeys(t.graph.vertex_ids(), (0,) * t.dim)
    for e, u, v in t.graph.edges:
        total[u] = tuple(map(add, total[u], t.slopes[e]))
        total[v] = tuple(map(sub, total[v], t.slopes[e]))
    for lid, v in t.graph.legs:
        total[v] = tuple(map(add, total[v], t.slopes[lid]))
    return BalanceReport(tuple([(v, s) for v, s in total.items() if any(s)]))


def _require_balanced(t: CombinatorialType):
    """Raise UnbalancedType naming the vertices where t is not balanced."""
    failures = check_balanced(t).failures
    if failures:
        raise UnbalancedType(f"unbalanced at {[v for v, _ in failures]}")


def extended_degree(t: CombinatorialType) -> tuple:
    """Leg slopes in leg order."""
    return tuple(t.slopes[lid] for lid, _ in t.graph.legs)


def _place(forest, origin, lengths, slopes) -> dict:
    """Positions along a ``_forest``: each root at ``origin``, each other
    vertex one edge relation away from its parent."""
    pos = {}
    for v, parent, e, sign in forest:
        if parent is None:
            pos[v] = origin
        else:
            step = sign * lengths[e]
            pos[v] = tuple(p + step * s for p, s in zip(pos[parent], slopes[e]))
    return pos


def realize(t: CombinatorialType, lengths: dict, root_position,
            root=None) -> ParameterizedTropicalCurve:
    """Propagate positions from the root along a spanning tree.

    Fails with ValueError when ``root_position`` is not in R^dim, then with
    Disconnected when the tree misses a vertex, and otherwise with
    CycleInconsistency at the least edge id of ``edge_relation_violations``:
    a non-tree edge that closes inconsistently or a loop with nonzero slope.
    The witness cycle is attached to the exception.
    """
    _require_balanced(t)
    curve = TropicalCurve(t.graph, lengths)
    if root is None:
        root = min(t.graph.vertex_ids())
    origin = vec(root_position)
    if len(origin) != t.dim:
        raise ValueError(f"position of root {root!r} has {len(origin)} coordinates, not {t.dim}")
    edges = sorted(t.graph.edges)
    forest = _forest((root, *t.graph.vertex_ids()), edges)
    if any(parent is None for _, parent, _, _ in forest[1:]):
        raise Disconnected("type graph is not connected")
    p = ParameterizedTropicalCurve(curve, _place(forest, origin, curve.lengths, t.slopes),
                                   dict(t.slopes), t.dim)
    bad = p.edge_relation_violations()
    if not bad:
        return p
    eid, a, b = next(e for e in edges if e[0] in bad)  # edges are sorted by id
    if a == b:
        raise CycleInconsistency(f"loop {eid!r} has nonzero slope", cycle=(eid,))
    path = {}  # tree edges from the root down to each vertex
    for v, parent, e, _ in forest:
        path[v] = () if parent is None else path[parent] + (e,)
    raise CycleInconsistency(f"edge {eid!r} closes a cycle with nonzero slope sum",
                             cycle=path[a] + (eid,) + path[b][::-1])


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------

class StabilizationResult(Record):
    __slots__ = ("graph", "slopes",
                 "edge_chains",  # surviving edge id -> tuple of original edge ids
                 "kept_vertices")


def stabilize_type(t: CombinatorialType) -> StabilizationResult:
    """Prune and smooth a type until stable, tracking edge provenance.

    Rules (applied deterministically, smallest vertex id first):
      - prune a weight-0 leg-free vertex of valence 1 whose edge has slope 0;
      - smooth a weight-0 leg-free vertex with exactly two edge-ends on two
        distinct edges whose outgoing slopes cancel, concatenating them.
    Vertices carrying legs are never smoothed (legs are marked points).
    One dict maps each edge id to (u, v, slope along u -> v, chain of
    original edge ids); a vertex's edge-ends are read off it in dict order,
    the end at u before the end at v.  A smoothed pair becomes one edge,
    named by the lesser id, last in the dict.  Each step removes one vertex
    and keeps a neighbour (its edges are not loops), so the result is never
    empty: the constructor refuses a graph with no vertex.  Raises
    Unstabilizable if it is still unstable.
    """
    weights = dict(t.graph.vertices)
    edges = {e: (u, v, t.slopes[e], (e,)) for e, u, v in t.graph.edges}
    marked = {v for _, v in t.graph.legs}
    while True:
        for x in sorted(weights):
            if weights[x] != 0 or x in marked:
                continue
            ends = [(e, at_u) for e, (u, v, _, _) in edges.items()
                    for at_u, end in ((True, u), (False, v)) if end == x]
            if len(ends) == 1:
                (e, _), = ends
                if not any(edges[e][2]):
                    del edges[e], weights[x]
                    break
            elif len(ends) == 2 and ends[0][0] != ends[1][0]:  # not a loop
                (e1, f1), (e2, f2) = ends
                (u1, v1, s1, c1), (u2, v2, s2, c2) = edges[e1], edges[e2]
                out = s2 if f2 else tuple(-y for y in s2)  # along e2 away from x
                if any((y if f1 else -y) + z for y, z in zip(s1, out)):
                    continue
                del edges[e1], edges[e2], weights[x]
                edges[min(e1, e2)] = (v1 if f1 else u1, v2 if f2 else u2, out, c1 + c2)
                break
        else:
            break

    graph = WeightedGraph._trusted(tuple(sorted(weights.items())),
                                   tuple(sorted((e, u, v) for e, (u, v, _, _) in edges.items())),
                                   t.graph.legs)
    if not is_stable(graph):
        bad = [v for v, w in graph.vertices if graph.valence(v) + 2 * w < 3]
        raise Unstabilizable(f"no stable model: vertices {bad} cannot be removed")
    slopes = {e: s for e, (_, _, s, _) in edges.items()}
    slopes.update((l, t.slopes[l]) for l, _ in t.graph.legs)
    return StabilizationResult(graph=graph, slopes=slopes,
                               edge_chains={e: c for e, (*_, c) in edges.items()},
                               kept_vertices=tuple(sorted(weights)))


def stabilize(p: ParameterizedTropicalCurve) -> ParameterizedTropicalCurve:
    """Stabilization of a parameterized curve; positions are restricted,
    merged edges get the sum of the lengths of their chain."""
    res = stabilize_type(p.type)
    lengths = {e: sum((p.curve.lengths[o] for o in chain), Fraction(0))
               for e, chain in res.edge_chains.items()}
    positions = {v: p.positions[v] for v in res.kept_vertices}
    curve = TropicalCurve(res.graph, lengths)
    return ParameterizedTropicalCurve(curve, positions, res.slopes, p.dim)
