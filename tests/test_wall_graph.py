"""The wall graph from one-edge contractions against the resolution round trip.

``wall_graph`` lets a node meet a wall exactly when contracting one of its
non-loop edges gives that wall.  ``reference_graph.reference_wall_graph``
finds the walls the same way but takes each wall's incidences from its
rebuilt resolutions.  On enumerated degrees (genus 0 with 4-6 legs, a
3-dimensional degree, genus 1 with loops and parallel edges, contracted
legs) both must give the same nodes, walls and incidences.
``moduli._resolutions`` must also build exactly what
``reference_graph.reference_resolutions``, the positional loop it
replaced, builds on each wall those degrees give.
"""

import random

import pytest

from reference_graph import reference_resolutions, reference_wall_graph
from tropmoduli import documents as docs
from tropmoduli import moduli
from tropmoduli.moduli import (
    WallClassification,
    _resolutions,
    canonical_form,
    classify,
    contract_any_slope,
    enumerate_types,
    wall_graph,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph

# (genus, contracted legs, degree, max edges, dim)
CASES = {
    "g0-4legs": (0, 0, ((1, 0), (0, 1), (-1, 0), (0, -1)), 1, 2),
    "g0-5legs": (0, 0, ((1, 0), (1, 0), (0, 1), (-2, 0), (0, -1)), 2, 2),
    "g0-6legs": (0, 0, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)), 3, 2),
    "g0-3dim": (0, 0, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, -1)), 2, 3),
    "g1-3legs": (1, 0, ((2, 0), (-1, 1), (-1, -1)), 3, 2),
    "g0-1contracted": (0, 1, ((1, 0), (0, 1), (-1, 0), (0, -1)), 2, 2),
    "g1-2contracted": (1, 2, (), 2, 2),
}


def _nodes(g, n, degree, max_edges, dim):
    return [t for t in enumerate_types(g, n, degree, max_edges, dim=dim)
            if classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]


def _relabelled(t, rng):
    """The same type under fresh ids, shuffled tuples and random edge
    orientations; legs keep their order."""
    g = t.graph
    names = [f"x{k}" for k in range(len(g.vertices))]
    rng.shuffle(names)
    vname = dict(zip(g.vertex_ids(), names))
    vertices = [(vname[v], w) for v, w in g.vertices]
    rng.shuffle(vertices)
    edges, slopes = [], {}
    for k, (e, u, v) in enumerate(g.edges):
        eid, s = f"f{rng.randrange(100)}_{k}", t.slopes[e]
        if rng.random() < 0.5:
            u, v, s = v, u, tuple(-x for x in s)
        edges.append((eid, vname[u], vname[v]))
        slopes[eid] = s
    rng.shuffle(edges)
    legs = tuple((f"m{k}", vname[v]) for k, (_, v) in enumerate(g.legs))
    slopes.update({f"m{k}": t.slopes[lid] for k, (lid, _) in enumerate(g.legs)})
    return CombinatorialType(WeightedGraph(tuple(vertices), tuple(edges), legs), slopes, t.dim)


def _node_keys(wg):
    return {canonical_form(t).string: nid for nid, t in wg.nodes}


@pytest.mark.parametrize("case", list(CASES))
def test_wall_graph_matches_resolution_reference(case):
    nodes = _nodes(*CASES[case])
    got, want = wall_graph(nodes), reference_wall_graph(nodes)
    assert _node_keys(got) == _node_keys(want)
    assert got.nodes == want.nodes
    assert got.walls == want.walls
    assert got.walls and any(len(res) > 1 for _, _, res in got.walls)


@pytest.mark.parametrize("case", ["g1-3legs", "g1-2contracted"])
def test_genus_one_cases_have_loops_and_parallel_edges(case):
    edges = [t.graph.edges for t in _nodes(*CASES[case])]
    assert any(u == v for es in edges for _, u, v in es)
    assert any(len({(u, v) for _, u, v in es}) < len(es)
               for es in edges if all(u != v for _, u, v in es))


@pytest.mark.parametrize("case", ["g0-5legs", "g1-3legs", "g1-2contracted"])
def test_wall_graph_of_relabelled_shuffled_inputs(case):
    rng = random.Random(case)
    nodes = _nodes(*CASES[case])
    inputs = [_relabelled(t, rng) for t in nodes + rng.sample(nodes, len(nodes) // 2)]
    rng.shuffle(inputs)
    assert any(canonical_form(t).type != t for t in inputs)
    assert wall_graph(inputs) == wall_graph(nodes)


@pytest.mark.parametrize("case", list(CASES))
def test_every_wall_is_weightless_almost_3valent(case):
    for _, w, _ in wall_graph(_nodes(*CASES[case])).walls:
        assert classify(w).classification == WallClassification.WEIGHTLESS_ALMOST_3VALENT


def test_wall_graph_classifies_only_its_inputs_and_rebuilds_no_resolution(monkeypatch):
    nodes = _nodes(*CASES["g1-3legs"])
    classified = []
    original = moduli.classify

    def counting(t):
        classified.append(t)
        return original(t)

    def refuse(*args):
        raise AssertionError("wall_graph rebuilt a resolution")

    monkeypatch.setattr(moduli, "classify", counting)
    monkeypatch.setattr(moduli, "_resolutions", refuse)
    wg = wall_graph(nodes)
    assert wg.walls
    assert classified == nodes


def test_resolutions_match_the_positional_reference():
    """Every weightless almost 3-valent one-edge contraction of every node of
    every case, and a relabelled copy of each (loops at the 4-valent vertex
    included): the same canonical keys in the same order, the same
    documents (ids and edge order) and the same slope dicts."""
    rng = random.Random("resolutions")
    walls = []
    for case in CASES.values():
        for t in _nodes(*case):
            for e, u, v in t.graph.edges:
                w = contract_any_slope(t, {e}) if u != v else None
                if w and classify(w).classification == WallClassification.WEIGHTLESS_ALMOST_3VALENT:
                    walls += [w, _relabelled(w, rng)]
    looped = 0
    for w in walls:
        v = classify(w).four_valent_vertex
        got, want = _resolutions(w, v), reference_resolutions(w, v)
        assert list(got) == list(want)
        for key, res in got.items():
            assert docs.type_to_doc(res) == docs.type_to_doc(want[key])
            assert list(res.slopes.items()) == list(want[key].slopes.items())
        looped += any(a == b == v for _, a, b in w.graph.edges)
    assert len(walls) == 840 and looped == 16
