"""Strata of the moduli space of parameterized tropical curves.

A combinatorial type cuts out a stratum inside R^{|E|} x (R^dim)^{|V|}: one
length coordinate per edge, one position block per vertex, the edge
relations as equalities and strict positivity of the lengths.  This module
decides nonemptiness and dimension exactly on the cycle space alone: the
stratum is a translation of R^dim per component times the positive lengths
closing every fundamental cycle, so tree types need no LP.  It also
enumerates types with fixed invariants, classifies walls (weightless almost
3-valent types), resolves 4-valent vertices, and assembles the node/wall
incidence graph used for wall-crossing arguments.

Enumeration visits each unlabelled connected multigraph once, as the
labelling the canonical search leaves in place (``_multigraphs``), and
shares ``exact_linalg._spanning_forest`` with the stratum systems: flow
along the tree solves the balancing equations in integers and the
fundamental cycles span the rest (no Smith normal form).  One pass up the
tree gives the flow in every coordinate at once, a tree's one slope vector.
A cycle's coefficient is the slope of its own non-tree edge, so the slopes
within the bound come from a box of coefficients, walked without an LP,
less those that make a cycle's terms one-signed (an empty stratum, by
Stiemke).  One leg assignment per orbit of the multigraph's automorphisms
is tried, built once per (g, nv, ne, L) by ``_leg_graphs``, and only
classes with a cycle get a stratum check: tree classes are nonempty.

Isomorphisms of types fix every leg (the leg order is part of the data).
The canonical form is the least serialization over the vertex orderings
that respect the stable refinement colouring on (weight, leg positions,
incident slopes, neighbour colours): a sort when the root colours are
distinct, else one search, pruned by the automorphisms it meets (they
generate ``automorphisms``), or an order the caller gives.  The key comes
first, so ``wall_graph`` keys each contraction once and builds each wall once.
Stratum systems, canonical forms, isomorphisms, wall classes and the wall
graph are plain slotted records (see ``records``).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import add, gt, neg, sub

from .errors import (
    MixedInvariants,
    NonzeroSlopeContraction,
    NotAlmost3Valent,
    SeedNotInGraph,
)
from .exact_linalg import (
    _dot,
    _forest,
    _positive_solution,
    _spanning_forest,
    _too_long,
    ivec,
    rank,
)
from .records import FrozenRecord, Record
from .tropcurve import (
    CombinatorialType,
    WeightedGraph,
    _require_balanced,
    check_balanced,
    extended_degree,
    genus,
)


# ---------------------------------------------------------------------------
# stratum systems
# ---------------------------------------------------------------------------

class StratumDescriptor(Record):
    """The stratum M_Theta of a balanced type, on its cycle space.

    A point of M_Theta is one length l_e > 0 per edge and one position in
    R^dim per vertex, every edge relation holding.  Positions are one free
    point per connected component, moved along ``forest`` (Mikhalkin's
    parameterization), so the stratum is R^(dim * #components) times the
    lengths l > 0 with sum_{e in C} l_e * s_e = 0 for every fundamental
    cycle C.  ``cycle_rows`` are those conditions over the lengths in
    ``edge_order`` (sorted edge ids; b_1 * dim rows, zero rows left out),
    so a type without them (every tree type) is nonempty without an LP,
    and dim = dim * #components + |E| - rank.
    """

    __slots__ = ("type", "edge_order",
                 "cycle_rows",  # rows over the edge lengths (rhs 0)
                 "forest")  # (vertex, parent, edge, +1/-1 along the edge); roots have no parent

    def _lengths(self):
        """Edge lengths, all >= 1, solving the cycle rows; None if none exist
        (by homogeneity, lengths > 0 exist iff lengths >= 1 do)."""
        n = len(self.edge_order)
        if not self.cycle_rows:
            return (Fraction(1),) * n
        return _positive_solution(self.cycle_rows, n)

    def is_empty(self) -> bool:
        return self._lengths() is None

    def dim(self) -> int | None:
        if self.is_empty():
            return None
        roots = sum(1 for _, parent, _, _ in self.forest if parent is None)
        free = self.type.dim * roots + len(self.edge_order)
        return free - rank(self.cycle_rows)


def stratum(t: CombinatorialType) -> StratumDescriptor:
    """The cycle-space system of the stratum of a balanced type."""
    _require_balanced(t)
    edge_order = tuple(sorted(e for e, _, _ in t.graph.edges))
    epos = {e: i for i, e in enumerate(edge_order)}
    # each fundamental cycle closes up: sum_{e in C} coef_e * l_e * s_e = 0
    forest, cycles = _spanning_forest(sorted(t.graph.vertex_ids()), sorted(t.graph.edges))
    cycle_rows = []
    for coef in cycles:
        for c in range(t.dim):
            row = [0] * len(edge_order)
            for f, k in coef.items():
                row[epos[f]] += k * t.slopes[f][c]
            if any(row):
                cycle_rows.append(tuple(row))
    return StratumDescriptor(type=t, edge_order=edge_order, cycle_rows=tuple(cycle_rows),
                             forest=forest)


def _tree_flow(forest, b):
    """Integer x with (out-flow - in-flow)(v) = b[v] at every vertex, or None.

    ``b[v]`` is a vector, and x is solved in all its coordinates at once.
    Only forest edges carry flow: each one carries the sum of ``b`` over
    the subtree below it, signed by its orientation.  There is no solution
    at all when ``b`` does not sum to zero over some component.
    """
    below = dict(b)
    x = {}
    for v, parent, e, sign in reversed(forest):
        if parent is None:
            if any(below[v]):
                return None
        else:
            x[e] = tuple(map(neg, below[v])) if sign > 0 else below[v]
            below[parent] = tuple(map(add, below[parent], below[v]))
    return x


def dim_stratum(t: CombinatorialType) -> int | None:
    """Dimension of the stratum, or None when it is empty."""
    return stratum(t).dim()


# ---------------------------------------------------------------------------
# canonical labeling and isomorphisms
# ---------------------------------------------------------------------------

def _root_colors(t: CombinatorialType) -> dict:
    """Each vertex's root colour: (weight, leg positions, sorted outgoing slopes)."""
    g, slopes = t.graph, t.slopes
    out = {v: [] for v, _ in g.vertices}
    for eid, u, v in g.edges:
        out[u].append(slopes[eid])
        out[v].append(tuple(map(neg, slopes[eid])))
    legs = dict.fromkeys(out, ())
    for pos, (_, v) in enumerate(g.legs):
        legs[v] += (pos,)
    return {v: (w, legs[v], tuple(sorted(out[v]))) for v, w in g.vertices}


def _refine_colors(t: CombinatorialType, star):
    """Stable vertex colours, from the root colours.

    ``star[v]`` lists (outgoing slope, neighbour) for each edge end at v; a
    round appends the sorted (slope, neighbour colour) pairs to the rank of
    each colour.  A round refines the one before it, so the partition is
    stable as soon as it keeps the number of classes.
    """
    color = _root_colors(t)
    while True:
        ranks = {c: i for i, c in enumerate(sorted(set(color.values())))}
        neigh = {v: (ranks[color[v]], tuple(sorted((s, ranks[color[o]]) for s, o in star[v])))
                 for v in color}
        if len(set(neigh.values())) == len(ranks):
            return color
        color = neigh


def _edge_record(iu, iv, s):
    """An edge between iu and iv with slope s along it, stored from the smaller end."""
    if iu < iv:
        return (iu, iv, s)
    back = tuple(map(neg, s))
    return (iv, iu, back) if iv < iu else (iu, iv, min(s, back))


def _orbit(x, gens):
    seen, stack = {x}, [x]
    while stack:
        y = stack.pop()
        for g in gens:
            if g[y] not in seen:
                seen.add(g[y])
                stack.append(g[y])
    return seen


def _group(gens, n):
    """The sorted group of permutations of 0..n-1 that ``gens`` generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for g in gens:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return tuple(sorted(group))


def _search(t: CombinatorialType):
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
    color = _refine_colors(t, star)
    classes = {}
    for v in vs:
        classes.setdefault(color[v], []).append(index[v])
    n = len(vs)
    cells = [classes[c] for c in sorted(classes) for _ in classes[c]]  # candidates by position
    seq, gens = [], []
    first = best = None  # (key, ordering)

    def visit(depth):
        """Search below the prefix ``seq``; returns the level to resume at."""
        nonlocal first, best
        if depth == n:
            pos = {x: i for i, x in enumerate(seq)}
            key = sorted(_edge_record(pos[a], pos[b], s) for a, b, s in edges)
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
            if not tried.isdisjoint(_orbit(x, fixing)):
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


class CanonicalForm(FrozenRecord):
    """A type's canonical representative, its string and key, and the maps
    of the type's vertex and edge ids onto v0..vk and e0..em.  Each map is
    built in canonical order (v0 first), so iterating it lists the
    original ids in canonical order."""

    __slots__ = ("key", "string",
                 "vertex_map", "edge_map",  # original id -> canonical id
                 "type")

    def __hash__(self):
        return hash(self.string)


def _keyed(t: CombinatorialType, order=None):
    """``canonical_form``'s key step: (vertex order, key, edge records with their ids).
    A given ``order`` is taken as found; distinct root colours are sorted as ``_search`` would."""
    if order is None:
        by_color = {c: v for v, c in _root_colors(t).items()}
        if len(by_color) == len(t.graph.vertices):
            order = [by_color[c] for c in sorted(by_color)]
        else:
            vs, best, _ = _search(t)
            order = [vs[x] for x in best]
    g, slopes = t.graph, t.slopes
    rank, weight = {v: i for i, v in enumerate(order)}, dict(g.vertices)
    erecs = sorted([(_edge_record(rank[u], rank[v], slopes[eid]), eid) for eid, u, v in g.edges])
    return order, (t.dim, tuple([weight[v] for v in order]),
                   tuple([(rank[v], slopes[lid]) for lid, v in g.legs]),
                   tuple([rec for rec, _ in erecs])), erecs


@lru_cache(maxsize=None)
def _names(prefix: str, n: int) -> tuple:
    return tuple([f"{prefix}{i}" for i in range(n)])


def canonical_form(t: CombinatorialType, keyed=None) -> CanonicalForm:
    """Deterministic canonical representative of the isomorphism class.

    Minimizes the serialized form over all vertex orderings compatible with
    the refinement coloring; legs keep their positions, vertices become
    v0..vk and edges e0..em in serialization order: the order of ``keyed``,
    t's ``_keyed`` triple when the caller holds it, else of ``_keyed(t)``.
    """
    order, key, erecs = keyed or _keyed(t)
    _, weights, leg_recs, edge_recs = key
    vnames, enames = _names("v", len(order)), _names("e", len(erecs))
    lnames = _names("l", len(leg_recs))
    new_slopes = dict(zip(lnames + enames, [s for _, s in leg_recs] + [s for _, _, s in edge_recs]))
    canon = CombinatorialType._trusted(WeightedGraph._trusted(
        tuple(zip(vnames, weights)),
        tuple([(e, vnames[iu], vnames[iv]) for e, (iu, iv, _) in zip(enames, edge_recs)]),
        tuple([(lid, vnames[i]) for lid, (i, _) in zip(lnames, leg_recs)])), new_slopes, t.dim)
    try:
        canon._canonical = repr(key)
    except ValueError:  # a slope past the integer digit limit, built by adding input slopes
        raise _too_long() from None
    return CanonicalForm(key, canon._canonical, dict(zip(order, vnames)),
                         dict(zip([eid for _, eid in erecs], enames)), canon)


def canonical_string(t: CombinatorialType) -> str:
    """The canonical string of t's class, read off the marker of a canonical type."""
    return canonical_form(t).string if t._canonical is None else t._canonical


class TypeIso(FrozenRecord):
    """Isomorphism of combinatorial types: vertex and edge bijections.

    Legs are fixed pointwise (the leg order is part of the data).
    """

    __slots__ = ("vertex_map", "edge_map")  # each sorted (old, new) pairs

    @staticmethod
    def make(vmap: dict, emap: dict) -> "TypeIso":
        return TypeIso(tuple(sorted(vmap.items())), tuple(sorted(emap.items())))

    def vdict(self):
        return dict(self.vertex_map)

    def edict(self):
        return dict(self.edge_map)

    def compose(self, other: "TypeIso") -> "TypeIso":
        """self after other (apply other first)."""
        ov, oe = other.vdict(), other.edict()
        sv, se = self.vdict(), self.edict()
        return TypeIso.make({k: sv[v] for k, v in ov.items()},
                            {k: se[e] for k, e in oe.items()})

    def invert(self) -> "TypeIso":
        return TypeIso.make({v: k for k, v in self.vertex_map},
                            {e: k for k, e in self.edge_map})


def automorphisms(t: CombinatorialType) -> list:
    """All isomorphisms t -> t fixing the legs pointwise.

    The vertex maps are the group generated by the automorphisms the
    canonical search finds.  Each extends by every edge bijection that
    keeps ends and slopes: parallel edges of one slope, and loops at one
    vertex of one slope up to sign, are interchangeable.
    """
    vs, _, gens = _search(t)
    parallel = {}  # (u, v, slope from u) with u <= v -> edges
    for e, u, v in t.graph.edges:
        parallel.setdefault(_edge_record(u, v, t.slopes[e]), []).append(e)
    isos = []
    for h in _group(gens, len(vs)):
        vmap = {v: vs[h[i]] for i, v in enumerate(vs)}
        parts = [(src, parallel[_edge_record(vmap[u], vmap[v], s)])
                 for (u, v, s), src in parallel.items()]
        for images in product(*(permutations(tgt) for _, tgt in parts)):
            emap = {e: f for (src, _), image in zip(parts, images) for e, f in zip(src, image)}
            isos.append(TypeIso.make(vmap, emap))
    return sorted(isos, key=lambda i: (i.vertex_map, i.edge_map))


# ---------------------------------------------------------------------------
# wall classification
# ---------------------------------------------------------------------------

class WallClassification(str, Enum):
    WEIGHTLESS_3VALENT = "weightless_3valent"
    WEIGHTLESS_ALMOST_3VALENT = "weightless_almost_3valent"
    OTHER = "other"


class WallClass(FrozenRecord):
    __slots__ = ("classification", "four_valent_vertex")
    def __init__(self, classification: WallClassification, four_valent_vertex: str | None = None):
        self.classification, self.four_valent_vertex = classification, four_valent_vertex


def classify(t: CombinatorialType) -> WallClass:
    """Weightless 3-valent / weightless almost 3-valent / other."""
    g = t.graph
    if any(w != 0 for _, w in g.vertices):
        return WallClass(WallClassification.OTHER)
    valences = dict.fromkeys(g.vertex_ids(), 0)
    for _, u, v in g.edges:
        valences[u] += 1  # a loop counts at both ends
        valences[v] += 1
    for _, v in g.legs:
        valences[v] += 1
    four = [v for v, val in valences.items() if val == 4]
    three = [v for v, val in valences.items() if val == 3]
    if len(three) == len(valences):
        return WallClass(WallClassification.WEIGHTLESS_3VALENT)
    if len(four) == 1 and len(three) == len(valences) - 1:
        return WallClass(WallClassification.WEIGHTLESS_ALMOST_3VALENT, four[0])
    return WallClass(WallClassification.OTHER)


# ---------------------------------------------------------------------------
# contraction, adjacency, resolution
# ---------------------------------------------------------------------------

def _contracted_pieces(g: WeightedGraph, edges):
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


def contract_any_slope(t: CombinatorialType, edges) -> CombinatorialType:
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
    name, weights = _contracted_pieces(g, edges)
    new_edges, new_slopes = [], {}
    for e, u, v in g.edges:
        if e in edges:
            continue
        new_edges.append((e, name[u], name[v]))
        new_slopes[e] = t.slopes[e]
    new_legs = tuple((lid, name[v]) for lid, v in g.legs)
    for lid, _ in g.legs:
        new_slopes[lid] = t.slopes[lid]
    graph = WeightedGraph._trusted(tuple(sorted(weights.items())), tuple(sorted(new_edges)),
                                   new_legs)
    return CombinatorialType._trusted(graph, new_slopes, t.dim)


def _contract_edge(t: CombinatorialType, e, u, v) -> CombinatorialType:
    """``contract_any_slope(t, {e})`` for a non-loop edge e = (u, v), up to tuple order."""
    (u, v), g, slopes = sorted((u, v)), t.graph, dict(t.slopes)
    del slopes[e]
    weight, name = dict(g.vertices), {v: u}
    weight[u] += weight.pop(v)
    return CombinatorialType._trusted(WeightedGraph._trusted(
        tuple(weight.items()),
        tuple([(f, name.get(a, a), name.get(b, b)) for f, a, b in g.edges if f != e]),
        tuple([(lid, name.get(x, x)) for lid, x in g.legs])), slopes, t.dim)


def contract(t: CombinatorialType, edges) -> CombinatorialType:
    """Weighted contraction of zero-slope edges (the datum contraction).

    Nonzero-slope edges are refused here; the closure-limit variant that
    merges endpoint positions is contract_any_slope.
    """
    for e in edges:
        if any(x != 0 for x in t.slopes[e]):
            raise NonzeroSlopeContraction(f"edge {e!r} has nonzero slope")
    return contract_any_slope(t, edges)


def is_adjacent(sub: CombinatorialType, super_: CombinatorialType) -> bool:
    """Whether some edge subset of ``super_`` contracts onto ``sub`` up to iso.

    Uses the closure-limit contraction (any slopes); the empty subset makes
    every type adjacent to itself.
    """
    if len(sub.graph.edges) > len(super_.graph.edges):
        return False
    want = canonical_form(sub).key
    need = len(super_.graph.edges) - len(sub.graph.edges)
    eids = sorted(e for e, _, _ in super_.graph.edges)
    for subset in combinations(eids, need):
        if canonical_form(contract_any_slope(super_, subset)).key == want:
            return True
    return False


def _fresh_id(base: str, taken) -> str:
    cand = base
    while cand in taken:
        cand += "'"
    return cand


def resolve_4valent(t: CombinatorialType, v: str) -> list:
    """The <= 3 weightless 3-valent resolutions of a 4-valent vertex.

    Splits the four star items at ``v`` into the three pairings, joins the
    halves by a new edge whose slope is forced by balancing, and
    deduplicates up to isomorphism.
    """
    out = _resolutions(t, v)
    return [out[k] for k in sorted(out)]


def _resolutions(t: CombinatorialType, v: str) -> dict:
    """resolve_4valent's resolutions keyed by their canonical strings; per
    pairing, each star item at ``v`` maps to its new end, ``va`` or ``vb``."""
    cls = classify(t)
    if cls.classification != WallClassification.WEIGHTLESS_ALMOST_3VALENT:
        raise NotAlmost3Valent(
            f"type is {cls.classification.value} with 4-valent vertex {cls.four_valent_vertex!r}")
    if cls.four_valent_vertex != v:
        raise NotAlmost3Valent(f"vertex {v!r} is not the 4-valent vertex {cls.four_valent_vertex!r}")
    _require_balanced(t)  # every resolution would be unbalanced where t is
    g = t.graph
    items = sorted(g.star_items(v))
    assert len(items) == 4
    taken_v = set(g.vertex_ids())
    va = _fresh_id(f"{v}a", taken_v)
    vb = _fresh_id(f"{v}b", taken_v | {va})
    new_edge = _fresh_id("eres", {e for e, _, _ in g.edges} | {l for l, _ in g.legs})
    vertices = tuple(sorted([(x, w) for x, w in g.vertices if x != v] + [(va, 0), (vb, 0)]))
    kept = {x: t.slopes[x] for x in [e for e, _, _ in g.edges] + [l for l, _ in g.legs]}

    out = {}
    for first in ((0, 1), (0, 2), (0, 3)):
        end = {item: va if i in first else vb for i, item in enumerate(items)}  # item -> new end
        edges = [(e, end.get(("edge", e, True), a), end.get(("edge", e, False), b))
                 for e, a, b in g.edges]
        legs = tuple((lid, end.get(("leg", lid), x)) for lid, x in g.legs)
        total_a = [sum(t.slope_of_item(items[i])[c] for i in first) for c in range(t.dim)]
        slopes = {**kept, new_edge: tuple(-x for x in total_a)}  # slope along va -> vb
        edges.append((new_edge, va, vb))
        res = CombinatorialType._trusted(
            WeightedGraph._trusted(vertices, tuple(sorted(edges)), legs), slopes, t.dim)
        assert check_balanced(res).ok
        assert classify(res).classification == WallClassification.WEIGHTLESS_3VALENT
        out.setdefault(canonical_form(res).string, res)
    assert 1 <= len(out) <= 3
    return out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple:
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple([(first,) + rest for first in range(total + 1)
                  for rest in _compositions(total - first, parts - 1)])


def _integer_box_solutions(particular, kernel, bound):
    """All integer vectors particular + sum(c_i * kernel_i) within |x_e| <= bound, sorted.

    ``kernel`` must be the fundamental cycles of the spanning forest that
    ``particular`` flows along (``_spanning_forest`` and ``_tree_flow``):
    cycle i is 1 on its own non-tree edge, which no other cycle and no tree
    flow touches.  So c_i is that edge's value, and every solution has its
    coefficients in the box [-bound, bound]^b_1, which is walked directly.
    """
    cols = [tuple(k[e] for k in kernel) for e in range(len(particular))]
    sols = []
    for coefs in product(range(-bound, bound + 1), repeat=len(kernel)):
        x = tuple(p + _dot(coefs, col) for p, col in zip(particular, cols))
        if all(abs(v) <= bound for v in x):
            sols.append(x)
    return sorted(sols)


@lru_cache(maxsize=None)
def _multigraphs(nv: int, ne: int) -> tuple:
    """The connected multigraphs with nv vertices and ne edges, one labelling
    per isomorphism class: (edges, ends, forest, kernel, automorphisms) each.

    The labelling kept is the one the canonical search leaves in place.
    Relabelled by the search's ordering, a multigraph has runs of ids as
    colour classes, so the identity is its first ordering and a least one;
    the keys are the edge multisets, so no other labelling of the class is
    kept.  Colour classes ascend by degree, so labellings whose edge-end
    counts ``ends`` decrease are skipped before the search.  ``forest`` is
    a BFS spanning tree of the non-loop edges, ``kernel`` their fundamental
    cycles in edge order and ``automorphisms`` the group that keeps the
    edge multiset.
    """
    vids = [f"v{i}" for i in range(nv)]
    pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    plain = tuple((i, 0) for i in range(nv))  # integer ids: "v10" sorts before "v2"
    table = []
    for emulti in combinations_with_replacement(pairs, ne):
        ends = [0] * nv
        for i, j in emulti:
            ends[i] += 1
            ends[j] += 1
        if any(a > b for a, b in zip(ends, ends[1:])):
            continue
        edges = tuple((f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(emulti))
        non_loops = [(e, u, v) for e, u, v in edges if u != v]
        forest, cycles = _spanning_forest(vids, non_loops)
        if sum(1 for _, parent, _, _ in forest if parent is None) > 1:
            continue  # disconnected
        graph = WeightedGraph._trusted(plain, tuple((k, *p) for k, p in enumerate(emulti)), ())
        _, order, gens = _search(CombinatorialType._trusted(graph, dict.fromkeys(range(ne), ()), 0))
        if order == tuple(range(nv)):
            kernel = tuple(tuple(coef.get(e, 0) for e, _, _ in non_loops) for coef in cycles)
            table.append((edges, tuple(ends), forest, kernel, _group(gens, nv)))
    return tuple(table)


def enumerate_types(g: int, n: int, degree, max_edges: int, dim: int | None = None):
    """All stable balanced types with the given invariants, up to isomorphism.

    Extended degree is n zero legs followed by ``degree`` (nonzero slopes);
    only types with nonempty stratum are returned, in canonical order.
    Edge slopes are bounded coordinatewise by the total absolute leg degree
    (any type with a nonempty stratum obeys the bound: positions provide a
    potential per coordinate, so every edge slope is a flow value across a
    potential cut and is at most the total source strength).

    Work is done at the level it depends on.  Per unlabelled connected
    multigraph, taken once from ``_multigraphs`` and cached per vertex and
    edge count: a BFS spanning tree, whose fundamental cycles span the
    integer solutions of the homogeneous balancing equations, and the
    vertex permutations preserving the edge multiset.  Per (g, nv, ne, L),
    cached by ``_leg_graphs``: per weighting, the stability deficits
    max(0, 3 - 2w - ends) and the automorphisms keeping the weights; a leg
    assignment is kept when its legs cover every deficit (exactly stability)
    and it is the least of its orbit under those (the others give isomorphic
    types), with its vertex order by (weight, leg positions) when strict.
    Per degree, the tree flow solves the balancing equations, slope vectors
    making a fundamental cycle's terms one-signed are dropped (empty strata),
    and each candidate left goes through its canonical form keyed by that
    order.  Emptiness is checked once per class with a cycle.
    """
    degree = tuple(map(ivec, degree))
    if dim is None:
        if not degree:
            raise ValueError("dim is required when the degree is empty")
        dim = len(degree[0])
    for s in degree:
        if len(s) != dim:
            raise ValueError("degree slopes of mixed dimension")
        if all(x == 0 for x in s):
            raise ValueError("degree must consist of nonzero slopes")
    ext = tuple((0,) * dim for _ in range(n)) + degree
    L = len(ext)
    bound = [sum(abs(s[c]) for s in ext) for c in range(dim)]

    found = {}
    max_nv = 2 * g - 2 + L
    for nv in range(1, min(max_nv, max_edges + 1) + 1 if max_nv >= 1 else 0):
        # ne <= nv - 1 + g keeps the weight left for the vertices, g - b_1, nonnegative
        for ne in range(max(nv - 1, 0), min(max_edges, nv - 1 + g) + 1):
            for graph, forest, kernel, order in _leg_graphs(g, nv, ne, L):
                for t in _balanced_types(graph, forest, kernel, ext, dim, bound):
                    cf = canonical_form(t, _keyed(t, order))
                    if cf.string not in found:  # None records an empty stratum
                        empty = ne > nv - 1 and stratum(cf.type).is_empty()
                        found[cf.string] = None if empty else cf.type
    return [found[k] for k in sorted(found) if found[k] is not None]


@lru_cache(maxsize=None)
def _leg_graphs(g: int, nv: int, ne: int, L: int) -> tuple:
    """``enumerate_types``' stable leg graphs, one per orbit: (graph, forest, kernel, order).
    ``order`` sorts the vertices by (weight, leg positions), None on a tie; those
    pairs begin the root colours, so distinct ones sort them whatever the slopes."""
    vids, out, orders = _names("v", nv), [], {}
    ends_at = [[(lid, v) for v in vids] for lid in _names("l", L)]  # shared (leg, vertex) pairs
    for edges, ends, forest, kernel, autos in _multigraphs(nv, ne):
        for weights in _compositions(g - (ne - nv + 1), nv):
            deficit = [max(0, 3 - 2 * w - k) for w, k in zip(weights, ends)]
            if sum(deficit) > L:
                continue
            needy = [v for v in range(nv) if deficit[v]]
            need = [deficit[v] for v in needy]
            weight_autos = [p for p in autos[1:]  # autos[0] is the identity
                            if all(weights[p[v]] == weights[v] for v in range(nv))]
            vertices = tuple(zip(vids, weights))
            for assign in product(range(nv), repeat=L):
                if any(map(gt, need, map(assign.count, needy))):
                    continue  # unstable
                if any(tuple(map(p.__getitem__, assign)) < assign for p in weight_autos):
                    continue  # not the least of its orbit
                legs = tuple(map(list.__getitem__, ends_at, assign))
                by_pair = {(w, tuple([i for i, a in enumerate(assign) if a == v])): vids[v]
                           for v, w in enumerate(weights)}
                order = tuple([by_pair[c] for c in sorted(by_pair)]) if len(by_pair) == nv else None
                order = orders.setdefault(order, order)  # one tuple per distinct order
                out.append((WeightedGraph._trusted(vertices, edges, legs), forest, kernel, order))
    return tuple(out)


def _balanced_types(graph: WeightedGraph, forest, kernel, ext, dim, bound):
    """Slope assignments making ``graph`` balanced with the given leg slopes,
    except those whose strata a fundamental cycle shows empty.

    ``forest`` is a spanning tree of the non-loop edges and ``kernel`` their
    fundamental cycles (as vectors in edge order), computed once per
    multigraph.  One pass up the forest gives the tree flow of minus the
    leg slopes at each vertex, in every coordinate at once: a tree's one
    solution.  With cycles, per coordinate, adding them to the flow gives
    the rest; a solution is dropped when its terms k_e * x_e along a cycle
    k are of one sign and not all zero, since then
    sum_e k_e * l_e * x_e = 0 has no solution with every l_e > 0 (Stiemke).
    Loops get slope zero.
    """
    zero = (0,) * dim
    b = dict.fromkeys(graph.vertex_ids(), zero)  # minus the leg slopes at each vertex
    slopes = {}
    for (lid, v), s in zip(graph.legs, ext):
        b[v] = tuple(map(sub, b[v], s))
        slopes[lid] = s
    flow = _tree_flow(forest, b)
    if flow is None:
        return
    # nonzero loop slopes force empty strata
    slopes.update(dict.fromkeys((e for e, u, v in graph.edges if u == v), zero))
    if not kernel:  # a tree edge carries the leg slopes on one side, within the bound
        slopes.update(flow)
        yield CombinatorialType._trusted(graph, slopes, dim)
        return

    non_loops = [e for e, u, v in graph.edges if u != v]
    particular = [flow.get(e, zero) for e in non_loops]
    per_coord = []
    for c in range(dim):
        sols = [x for x in _integer_box_solutions(tuple([p[c] for p in particular]), kernel, bound[c])
                if all(len({k * y > 0 for k, y in zip(row, x) if k and y}) != 1 for row in kernel)]
        if not sols:
            return
        per_coord.append(sols)

    for combo in product(*per_coord):
        cycle_slopes = dict(slopes)
        for k, e in enumerate(non_loops):
            cycle_slopes[e] = tuple(combo[c][k] for c in range(dim))
        yield CombinatorialType._trusted(graph, cycle_slopes, dim)


# ---------------------------------------------------------------------------
# wall graph
# ---------------------------------------------------------------------------

class WallGraph(Record):
    __slots__ = ("nodes",  # (node id, CombinatorialType)
                 "walls")  # (wall id, CombinatorialType, tuple of incident node ids)

    def node_ids(self):
        return [nid for nid, _ in self.nodes]


def wall_graph(types) -> WallGraph:
    """Node/wall incidence graph of weightless 3-valent types.

    A node meets a wall when contracting one of its non-loop edges gives
    that wall; the walls are the weightless almost 3-valent types met this
    way, and a wall's incidences are exactly its resolutions in the node set.
    """
    if not types:
        return WallGraph((), ())
    invariants = set()
    for t in types:
        if classify(t).classification != WallClassification.WEIGHTLESS_3VALENT:
            raise MixedInvariants("wall graph nodes must be weightless and 3-valent")
        invariants.add((genus(t.graph), t.dim, extended_degree(t)))
    if len(invariants) > 1:
        raise MixedInvariants(f"mixed invariants: {sorted(invariants)}")

    canon_nodes = {}  # a type canonical_form returned is canonical and knows its string
    for t in types:
        if t._canonical is None:
            t = canonical_form(t).type
        canon_nodes.setdefault(t._canonical, t)
    node_key = {k: f"n{i}" for i, k in enumerate(sorted(canon_nodes))}

    # contracting a non-loop edge between two weightless 3-valent vertices
    # leaves one weightless 4-valent vertex, and balancing there forces the
    # slope of the edge: the node is the resolution of that pairing
    walls = {}  # key -> (wall, incident node ids); a wall is built once, for a new key
    for k, nid in node_key.items():
        t = canon_nodes[k]
        for e, u, v in t.graph.edges:
            if u != v:
                w = _contract_edge(t, e, u, v)
                if (keyed := _keyed(w))[1] not in walls:
                    walls[keyed[1]] = (canonical_form(w, keyed).type, set())
                walls[keyed[1]][1].add(nid)
    ordered = sorted(walls.values(), key=lambda wall: wall[0]._canonical)
    wall_list = tuple((f"w{i}", w, tuple(sorted(res))) for i, (w, res) in enumerate(ordered))
    nodes = tuple((nid, canon_nodes[k]) for k, nid in node_key.items())
    return WallGraph(nodes=nodes, walls=wall_list)


def connected_through_walls(wg: WallGraph, t1: CombinatorialType, t2: CombinatorialType):
    """(connected, path) where the path alternates node, wall, node ids."""
    node_key = {canonical_string(t): nid for nid, t in wg.nodes}
    k1 = canonical_string(t1)
    k2 = canonical_string(t2)
    if k1 not in node_key or k2 not in node_key:
        raise SeedNotInGraph("queried type is not a node of the wall graph")
    start, goal = node_key[k1], node_key[k2]
    # a wall joins every two of its resolutions; in stored order, the walk's
    # tree is the breadth-first tree from start
    edges = [(wid, a, b) for wid, _, res in wg.walls for a, b in combinations(res, 2)]
    up = {v: (parent, wid) for v, parent, wid, _ in _forest((start, *wg.node_ids()), edges)}
    path = [goal]
    while up[path[-1]][0] is not None:
        parent, wid = up[path[-1]]
        path += [wid, parent]
    if path[-1] != start:
        return False, None
    return True, tuple(reversed(path))
