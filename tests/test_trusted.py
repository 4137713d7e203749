"""The unchecked construction path, the canonical marker and the work they save.

``WeightedGraph._trusted`` and ``CombinatorialType._trusted`` skip the
constructors' checks; every graph and type built through them must equal
the one the validating constructors build from the same parts.  A type
that ``canonical_form`` returned records its canonical string in
``_canonical``, which ``wall_graph`` and ``canonical_string`` read instead
of labelling the type again; no other type carries one.
"""

import hashlib
import random
import sys

import pytest

from tropmoduli import documents as docs
from tropmoduli import exact_linalg, moduli
from tropmoduli.family import induced_alpha
from tropmoduli.moduli import (
    StratumDescriptor,
    WallClassification,
    canonical_form,
    classify,
    contract_any_slope,
    enumerate_types,
    resolve_4valent,
    wall_graph,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph, stabilize_type

from helpers import (
    BRUTE_FORCE_CASES,
    SIX_LEGS,
    cross_type,
    ray_wall_family,
    relabelled,
    segment_family,
    two_ray_resolution_family,
)


def nodes_of(types):
    return [t for t in types
            if classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]


def walls_of(types):
    return [t for t in types
            if classify(t).classification == WallClassification.WEIGHTLESS_ALMOST_3VALENT]


@pytest.fixture
def trusted_builds(monkeypatch):
    """Rebuild every trusted graph and type through the public constructors
    as it is made; returns the set of functions that made them."""
    callers = set()
    graph_trusted = WeightedGraph._trusted.__func__
    type_trusted = CombinatorialType._trusted.__func__

    def graph(cls, vertices, edges, legs):
        callers.add(sys._getframe(1).f_code.co_name)
        g = graph_trusted(cls, vertices, edges, legs)
        assert g == WeightedGraph(vertices, edges, legs)
        return g

    def ctype(cls, graph, slopes, dim):
        callers.add(sys._getframe(1).f_code.co_name)
        assert all(type(s) is tuple and all(type(x) is int for x in s) for s in slopes.values())
        t = type_trusted(cls, graph, slopes, dim)
        public = WeightedGraph(graph.vertices, graph.edges, graph.legs)
        assert t == CombinatorialType(public, dict(slopes), dim)
        return t

    monkeypatch.setattr(WeightedGraph, "_trusted", classmethod(graph))
    monkeypatch.setattr(CombinatorialType, "_trusted", classmethod(ctype))
    return callers


@pytest.mark.parametrize("g, n, degree, dim", BRUTE_FORCE_CASES)
def test_trusted_builds_equal_public_builds(trusted_builds, g, n, degree, dim):
    rng = random.Random(f"trusted/{g}/{n}/{degree}")
    moduli._leg_graphs.cache_clear()  # so the leg graphs are built under the fixture
    types = enumerate_types(g, n, degree, 2, dim=dim)
    wall_graph(nodes_of(types))
    for t in types:
        r = relabelled(t, rng)
        canonical_form(r)
        eids = [e for e, _, _ in r.graph.edges]
        for k in range(len(eids) + 1):
            for subset in (eids[:k], eids[k:]):
                contract_any_slope(r, subset)
        stabilize_type(t)
    for w in walls_of(types):
        r = relabelled(w, rng)
        resolve_4valent(r, classify(r).four_valent_vertex)
    assert {"canonical_form", "contract_any_slope", "_leg_graphs", "_balanced_types",
            "stabilize_type"} <= trusted_builds
    assert ("_resolutions" in trusted_builds) == bool(walls_of(types))
    # every contraction of at least one edge is a fold of _contract_edge
    assert ("_contract_edge" in trusted_builds) == any(t.graph.edges for t in types)


def test_trusted_builds_cover_stabilization(trusted_builds):
    # a leg-free 2-valent vertex between opposite slopes is smoothed away
    g = WeightedGraph((("a", 0), ("m", 0), ("b", 0)), (("e1", "a", "m"), ("e2", "m", "b")),
                      tuple((f"l{i}", v) for i, v in enumerate("aabb")))
    slopes = {"e1": (1, 0), "e2": (1, 0), "l0": (-1, 1), "l1": (0, -1),
              "l2": (1, 1), "l3": (0, -1)}
    res = stabilize_type(CombinatorialType(g, slopes, 2))
    assert res.graph == WeightedGraph((("a", 0), ("b", 0)), (("e1", "a", "b"),), g.legs)
    assert trusted_builds == {"stabilize_type"}


def test_trusted_builds_cover_face_lifts(trusted_builds):
    for f in (segment_family(), ray_wall_family((1, 2, 3)), two_ray_resolution_family()):
        induced_alpha(f)
    # the families' contraction checks contract through contract_any_slope
    assert trusted_builds == {"stabilize_type", "_face_lift", "canonical_form",
                              "contract_any_slope", "_contract_edge"}


def assert_marker_is_canonical(t):
    cf = canonical_form(t)
    assert t._canonical == cf.string
    assert cf.type == t


@pytest.mark.parametrize("g, n, degree, dim", BRUTE_FORCE_CASES)
def test_canonical_marker_is_the_canonical_string(g, n, degree, dim):
    types = enumerate_types(g, n, degree, 2, dim=dim)
    wg = wall_graph(nodes_of(types))
    for t in types + [t for _, t in wg.nodes] + [t for _, t, _ in wg.walls]:
        assert_marker_is_canonical(t)
    for w in walls_of(types):
        for r in resolve_4valent(w, classify(w).four_valent_vertex):
            assert r._canonical is None  # resolutions keep the wall's ids
            assert_marker_is_canonical(canonical_form(r).type)


def test_decoded_and_public_types_carry_no_marker():
    types = enumerate_types(0, 0, ((1, 0), (0, 1), (-1, 0), (0, -1)), 2)
    assert all(t._canonical is not None for t in types)
    assert all(t._canonical is None for t in docs.types_from_doc(docs.types_to_doc(types)))
    assert all(docs.type_from_doc(docs.type_to_doc(t))[0]._canonical is None for t in types)
    assert all(CombinatorialType(t.graph, t.slopes, t.dim)._canonical is None for t in types)
    wg = docs.wallgraph_from_doc(docs.wallgraph_to_doc(wall_graph(nodes_of(types))))
    assert all(t._canonical is None for _, t in wg.nodes)
    assert cross_type()._canonical is None


def test_writing_enumerated_types_labels_nothing(monkeypatch):
    types = enumerate_types(0, 0, ((1, 0), (0, 1), (-1, 0), (0, -1)), 2)
    want = docs.types_to_doc(types)
    labelled = []
    original = moduli.canonical_form
    monkeypatch.setattr(moduli, "canonical_form", lambda t, *key: labelled.append(t) or original(t, *key))
    assert docs.types_to_doc(types) == want
    assert labelled == []


@pytest.mark.parametrize("g, n, degree, dim", BRUTE_FORCE_CASES)
def test_wall_graph_of_relabelled_nodes_equals_that_of_canonical_nodes(
        monkeypatch, g, n, degree, dim):
    rng = random.Random(f"shuffled/{g}/{n}/{degree}")
    nodes = nodes_of(enumerate_types(g, n, degree, 2, dim=dim))
    shuffled = [relabelled(t, rng) for t in nodes]
    rng.shuffle(shuffled)
    labelled = []
    original = moduli.canonical_form
    monkeypatch.setattr(moduli, "canonical_form", lambda t, *key: labelled.append(t) or original(t, *key))
    assert wall_graph(shuffled) == wall_graph(nodes)
    assert sum(any(t is s for s in shuffled) for t in labelled) == len(shuffled)  # each once
    assert not any(t is node for t in labelled for node in nodes)


# (g, n, degree, max_edges): types, canonical_form calls in enumerate_types,
# stratum checks, LP calls, 3-valent nodes, edge contractions in wall_graph,
# _keyed calls in wall_graph, canonical_form calls in wall_graph, walls
WORK = [
    ((0, 0, SIX_LEGS, 2), (131, 131, 0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, SIX_LEGS, 3), (236, 236, 0, 0, 105, 315, 315, 105, 105)),
    ((1, 0, ((1, 0), (0, 1), (-1, -1)), 3), (16, 23, 8, 0, 3, 6, 6, 4, 4)),
]


@pytest.mark.parametrize("case, counts", WORK)
def test_enumeration_and_wall_graph_work_counts(monkeypatch, case, counts):
    labelled, built, contracted, keyed, checked, validated, lps = [], [], [], [], [], [], []
    original, is_empty = moduli.canonical_form, StratumDescriptor.is_empty
    contract_edge, keying = moduli._contract_edge, moduli._keyed
    lp_maximize = exact_linalg.lp_maximize
    init, post_init = CombinatorialType.__init__, WeightedGraph.__post_init__

    def counting_is_empty(self):
        checked.append(self)
        return is_empty(self)

    def counting_init(self, *args):
        validated.append(self)
        init(self, *args)

    def counting_post_init(self):
        validated.append(self)
        post_init(self)

    def labelling(t, *key):
        labelled.append(t)
        built.append(original(t, *key))
        return built[-1]

    monkeypatch.setattr(moduli, "canonical_form", labelling)
    monkeypatch.setattr(moduli, "_contract_edge",
                        lambda *args: contracted.append(args) or contract_edge(*args))
    monkeypatch.setattr(moduli, "_keyed", lambda *args: keyed.append(args) or keying(*args))
    monkeypatch.setattr(StratumDescriptor, "is_empty", counting_is_empty)
    monkeypatch.setattr(exact_linalg, "lp_maximize",
                        lambda *args: lps.append(args) or lp_maximize(*args))
    monkeypatch.setattr(CombinatorialType, "__init__", counting_init)
    monkeypatch.setattr(WeightedGraph, "__post_init__", counting_post_init)
    types = enumerate_types(*case)
    in_enumerate, keyed_in_enumerate = len(labelled), len(keyed)
    nodes = nodes_of(types)
    wg = wall_graph(nodes)
    in_wall_graph = labelled[in_enumerate:]
    assert (len(types), in_enumerate, len(checked), len(lps), len(nodes), len(contracted),
            len(keyed) - keyed_in_enumerate, len(in_wall_graph), len(wg.walls)) == counts
    assert all(len(d.type.graph.edges) > len(d.type.graph.vertices) - 1
               for d in checked)  # no tree class
    assert len(lps) == sum(bool(d.cycle_rows) for d in checked)  # one LP per check with cycle rows
    assert not any(t is node for t in in_wall_graph for node in nodes)  # no node relabelled
    assert len(contracted) == sum(u != v for t in nodes for _, u, v in t.graph.edges)
    # one canonical type built per wall, and each wall is the type built for it
    assert sorted(id(cf.type) for cf in built[in_enumerate:]) == \
        sorted(id(w) for _, w, _ in wg.walls)
    assert validated == []


def test_genus_two_enumeration_work(monkeypatch):
    # the sign cut leaves 319 of the 27,271 candidates the slope walk finds,
    # and every class that reaches a stratum check is decided without an LP
    labelled, lps = [], []
    original, lp_maximize = moduli.canonical_form, exact_linalg.lp_maximize
    monkeypatch.setattr(moduli, "canonical_form", lambda t, *key: labelled.append(t) or original(t, *key))
    monkeypatch.setattr(exact_linalg, "lp_maximize",
                        lambda *args: lps.append(args) or lp_maximize(*args))
    types = enumerate_types(2, 0, ((1, 0), (0, 1), (-1, -1)), 5)
    strings = "\n".join(t._canonical for t in types)
    assert (len(types), len(labelled), len(lps)) == (257, 319, 0)
    assert hashlib.sha256(strings.encode()).hexdigest() == \
        "7fab597a163ca8730b239cb879bb95d34bad588d93f98eb7dde052d815a1f346"
