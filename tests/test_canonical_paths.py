"""``canonical_form``'s two paths and ``wall_graph``'s one-edge contraction
against the labelling and the contraction they replaced.

``canonical_form`` sorts the vertices by their root colours when those are
distinct and runs ``_search`` only otherwise; ``searched_canonical_form``
(``reference_canonical``) runs the search on every type.  They must give
the same form field by field: key, string, both maps in iteration order,
the type's graph tuples, its slope dict in insertion order, and the same
refusal past the integer digit limit.  The inputs reach both paths, and
the count on each is pinned: the acceptance universe and relabelled copies
of it, the cells of tropical M_{g,n} (dim 0, where types with automorphisms
reach the search), small types whose loops carry nonzero slopes, and
vertex-transitive types that only the search orders.
``wall_graph`` contracts one edge directly; ``forest_contraction`` is the
forest walk it replaced.

``enumerate_types`` keys each candidate with the vertex order by
(weight, leg positions) that its leg graph carries, when no two vertices
tie on that pair, and ``_keyed`` takes that order as found.  Every
candidate must get the same form with that order as without it, the output
must not depend on whether the leg graphs were cached, and no type may
carry an order of its own.
"""

import random

import pytest

from tropmoduli import moduli
from tropmoduli.errors import InputError
from tropmoduli.moduli import WallClassification, canonical_form, classify, enumerate_types
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph

from helpers import ENUM_INSTANCES, SIX_LEGS, relabelled
from reference_canonical import forest_contraction, searched_canonical_form

# (g, n, max_edges, types): all cells of tropical M_{g,n}, enumerated in dim 0
DIM_ZERO = [(0, 4, 1, 4), (0, 5, 2, 26), (0, 6, 3, 236), (1, 1, 1, 2), (1, 2, 2, 5), (2, 0, 3, 7)]
# more cells, counted only and kept out of the path counts: M_{0,7} is OEIS
# A000311 (as are M_{0,4..6}); M_3, M_{1,3} and M_{2,1} are regression values
CELL_COUNTS = [(0, 7, 4, 2752), (3, 0, 6, 42), (1, 3, 3, 23), (2, 1, 4, 16)]


# (g, n, degree, max_edges, dim): the acceptance universe, the cells of
# tropical M_{g,n}, six legs with three edges and degrees of genus 1 and 2
MARKED = [case[1:] for case in ENUM_INSTANCES] + \
    [(g, n, (), max_edges, 0) for g, n, max_edges, _ in DIM_ZERO] + \
    [(0, 0, SIX_LEGS, 3, None), (2, 0, ((1, 0), (0, 1), (-1, -1)), 5, None),
     (1, 0, ((1, 0), (0, 1), (-1, -1)), 3, None), (2, 0, ((1,), (-1,)), 5, None)]


def assert_same_form(t):
    assert_forms_equal(canonical_form(t), searched_canonical_form(t))


def assert_forms_equal(got, want):
    assert got.key == want.key
    assert got.string == want.string
    assert list(got.vertex_map.items()) == list(want.vertex_map.items())
    assert list(got.edge_map.items()) == list(want.edge_map.items())
    mine, theirs = got.type.graph, want.type.graph
    assert (mine.vertices, mine.edges, mine.legs) == (theirs.vertices, theirs.edges, theirs.legs)
    assert list(got.type.slopes.items()) == list(want.type.slopes.items())
    assert (got.type.dim, got.type._canonical) == (want.type.dim, want.string)


def paths_taken(monkeypatch, inputs):
    """Check every input; (inputs sorted by colour, inputs that reached ``_search``)."""
    reached = []
    original = moduli._search
    monkeypatch.setattr(moduli, "_search", lambda t: reached.append(t) or original(t))
    for t in inputs:
        assert_same_form(t)
    monkeypatch.undo()
    searched = len({id(t) for t in reached})
    return len(inputs) - searched, searched


def nodes_of(types):
    return [t for t in types
            if classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]


def contractions(types):
    """(type, edge, ends) for every non-loop edge of every type."""
    return [(t, e, u, v) for t in types for e, u, v in t.graph.edges if u != v]


def universe():
    out = []
    for _, g, n, degree, max_edges, dim in ENUM_INSTANCES:
        types = enumerate_types(g, n, degree, max_edges, dim=dim)
        out += types + [moduli._contract_edge(*c) for c in contractions(nodes_of(types))]
    return out


def dim_zero_types():
    return [t for g, n, max_edges, _ in DIM_ZERO
            for t in enumerate_types(g, n, (), max_edges, dim=0)]


def zero_slope(nv, pairs, weight=0):
    vertices = tuple((f"v{i}", weight) for i in range(nv))
    edges = tuple((f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(pairs))
    return CombinatorialType(WeightedGraph(vertices, edges, ()),
                             {e: (0, 0) for e, _, _ in edges}, 2)


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def symmetric_types():
    """C8 of weight-1 vertices, K3,3, the cube Q3, the prism C4 x K2 and the
    Petersen graph, with zero slopes: one colour class each."""
    return [zero_slope(8, cycle(8), weight=1),
            zero_slope(6, [(i, j) for i in range(3) for j in range(3, 6)]),
            zero_slope(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b]),
            zero_slope(8, cycle(4) + [(4 + i, 4 + j) for i, j in cycle(4)]
                       + [(i, i + 4) for i in range(4)]),
            zero_slope(10, cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)])]


def looped_types(rng, count):
    """Small types with loops of nonzero slope, whose strata are empty, so that
    no enumeration builds them: both ends of a loop enter its vertex's colour."""
    out = []
    for _ in range(count):
        vids = [f"v{i}" for i in range(rng.randint(2, 4))]
        pairs = [(v, v) for v in vids] + [(rng.choice(vids), rng.choice(vids)) for _ in vids]
        slopes = {f"e{k}": rng.choice(((1, 0), (0, 1), (-1, 2), (2, -1), (1, 1)))
                  for k in range(len(pairs))}
        legs = tuple((f"l{k}", rng.choice(vids)) for k in range(rng.randint(0, 1)))
        slopes.update({lid: (1, 1) for lid, _ in legs})
        graph = WeightedGraph(tuple((v, 0) for v in vids),
                              tuple((f"e{k}", u, v) for k, (u, v) in enumerate(pairs)), legs)
        out.append(CombinatorialType(graph, slopes, 2))
    return out


def test_the_acceptance_universe_is_sorted_by_colour(monkeypatch):
    # its types and walls, the contractions that wall_graph keys, and relabelled copies
    rng = random.Random("canonical paths")
    types = universe()
    assert paths_taken(monkeypatch, types + [relabelled(t, rng) for t in types]) == (158, 0)


def test_types_with_sloped_loops_take_both_paths(monkeypatch):
    rng = random.Random("loops")
    types = looped_types(rng, 150)
    assert paths_taken(monkeypatch, types + [relabelled(t, rng) for t in types]) == (294, 6)


@pytest.mark.parametrize("g, n, max_edges, count", DIM_ZERO + CELL_COUNTS)
def test_dimension_zero_enumerates_the_cells_of_tropical_moduli(g, n, max_edges, count):
    assert len(enumerate_types(g, n, (), max_edges, dim=0)) == count


def test_dimension_zero_types_take_both_paths(monkeypatch):
    # the dumbbell, the theta graph and two weight-1 vertices on an edge (M_2)
    # have an automorphism swapping their two vertices, so they reach the search
    rng = random.Random("dim 0")
    types = dim_zero_types()
    assert paths_taken(monkeypatch, types + [relabelled(t, rng) for t in types]) == (554, 6)


def test_symmetric_types_take_the_search(monkeypatch):
    rng = random.Random("symmetric")
    types = symmetric_types()
    inputs = types + [relabelled(t, rng) for t in types[:-1]]  # the Petersen graph once
    assert paths_taken(monkeypatch, inputs) == (0, 9)


@pytest.mark.parametrize("t", [
    CombinatorialType(WeightedGraph((("a", 0),), (), (("l0", "a"), ("l1", "a"))),
                      {"l0": (10 ** 4300,), "l1": (-10 ** 4300,)}, 1),
    CombinatorialType(zero_slope(3, cycle(3)).graph,
                      {"e0": (10 ** 4300,), "e1": (10 ** 4300,), "e2": (10 ** 4300,)}, 1),
], ids=["discrete", "search"])
def test_both_paths_refuse_a_key_past_the_digit_limit(t):
    message = ("^a rational with more than 4300 digits \\(the integer digit limit\\) "
               "cannot be written$")
    for labelling in (canonical_form, searched_canonical_form):
        with pytest.raises(InputError, match=message):
            labelling(t)


@pytest.mark.parametrize("source", ["universe", "dim 0"])
def test_one_edge_contraction_is_the_forest_contraction(source):
    rng = random.Random(source)
    # every type, not only wall_graph's weightless nodes, so weights are added too
    types = universe() if source == "universe" else dim_zero_types()
    types += [relabelled(t, rng) for t in types]
    checked = 0
    for t, e, u, v in contractions(types):
        got, want = moduli._contract_edge(t, e, u, v), forest_contraction(t, {e})
        mine, theirs = got.graph, want.graph
        assert (tuple(sorted(mine.vertices)), tuple(sorted(mine.edges)), mine.legs) == \
            (theirs.vertices, theirs.edges, theirs.legs)
        assert (got.slopes, got.dim) == (want.slopes, want.dim)
        assert canonical_form(got) == searched_canonical_form(want)
        checked += 1
    assert checked == {"universe": 162, "dim 0": 1206}[source]


def test_the_given_order_is_the_order_canonical_form_finds(monkeypatch):
    seen = []  # the candidates enumerate_types keys, each with the order it gives
    original = moduli._keyed
    monkeypatch.setattr(moduli, "_keyed",
                        lambda t, order=None: seen.append((t, order)) or original(t, order))
    for g, n, degree, max_edges, dim in MARKED:
        enumerate_types(g, n, degree, max_edges, dim=dim)
    monkeypatch.undo()
    for t, order in seen:
        assert_forms_equal(canonical_form(t, moduli._keyed(t, order)), canonical_form(t))
    ordered = sum(order is not None for _, order in seen)
    assert ordered >= 831 and len(seen) - ordered >= 127  # of 958


@pytest.mark.parametrize("g, n, degree, max_edges, dim", MARKED)
def test_enumeration_is_the_same_from_cold_and_warm_leg_graphs(g, n, degree, max_edges, dim):
    moduli._leg_graphs.cache_clear()
    cold = enumerate_types(g, n, degree, max_edges, dim=dim)
    assert moduli._leg_graphs.cache_info().currsize
    warm = enumerate_types(g, n, degree, max_edges, dim=dim)
    assert warm == cold
    assert [t._canonical for t in warm] == [t._canonical for t in cold]
    wg = moduli.wall_graph(nodes_of(warm))
    assert wg == moduli.wall_graph(nodes_of(cold))
    assert not hasattr(CombinatorialType, "_order")
