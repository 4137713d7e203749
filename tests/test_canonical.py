"""The canonical-labelling search against the product-of-permutations reference.

``moduli.canonical_form`` prunes its search by the automorphisms it finds;
``reference_canonical_form`` tries every ordering that respects the colour
classes.  They must agree on key, string, vertex map, edge map and type.
The multigraph table that enumeration reads, which the same search
labels, is checked against brute-force relabellings.
"""

import ast
import json
import random
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest

from tropmoduli import documents as docs
from tropmoduli import moduli
from tropmoduli.cli import main
from tropmoduli.moduli import (
    automorphisms,
    canonical_form,
    enumerate_types,
    wall_graph,
    WallClassification,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph

from helpers import BRUTE_FORCE_CASES, relabelled
from oracles import brute_force_isomorphisms, is_type_isomorphism
from reference_canonical import (
    reference_automorphisms,
    reference_canonical_form,
    reference_serialize,
)

def assert_matches_reference(t):
    got, want = canonical_form(t), reference_canonical_form(t)
    assert got.key == want.key
    assert got.string == want.string
    assert got.vertex_map == want.vertex_map
    assert got.edge_map == want.edge_map
    assert got.type == want.type


def canonicalised_inputs(monkeypatch, g, n, degree, dim):
    """Every type that enumerate_types and wall_graph canonicalise on a case."""
    seen = []
    original = moduli.canonical_form

    def recording(t, *key):
        seen.append(t)
        return original(t, *key)

    monkeypatch.setattr(moduli, "canonical_form", recording)
    types = enumerate_types(g, n, degree, 2, dim=dim)
    nodes = [t for t in types
             if moduli.classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]
    wg = wall_graph(nodes)
    monkeypatch.undo()
    return seen + types + [t for _, t in wg.nodes] + [t for _, t, _ in wg.walls]


@pytest.mark.parametrize("g, n, degree, dim", BRUTE_FORCE_CASES)
def test_canonical_form_matches_reference_on_enumerated_types(monkeypatch, g, n, degree, dim):
    rng = random.Random(f"{g}/{n}/{degree}")
    inputs = canonicalised_inputs(monkeypatch, g, n, degree, dim)
    assert inputs
    for t in inputs:
        assert_matches_reference(t)
        assert_matches_reference(relabelled(t, rng))


def random_type(rng, nv):
    """A small type with many symmetric vertices: few weights, slopes and legs."""
    vids = [f"v{i}" for i in range(nv)]
    vertices = tuple((v, rng.choice((0, 0, 1))) for v in vids)
    edges, slopes = [], {}
    for k in range(rng.randint(0, 7)):
        u, v = rng.choice(vids), rng.choice(vids)
        edges.append((f"e{k}", u, v))
        slopes[f"e{k}"] = rng.choice(((0, 0), (1, 0), (-1, 0), (1, 1)))
    legs = tuple((f"l{k}", rng.choice(vids)) for k in range(rng.choice((0, 0, 1, 2))))
    for lid, _ in legs:
        slopes[lid] = rng.choice(((1, 0), (0, 1)))
    return CombinatorialType(WeightedGraph(vertices, tuple(edges), legs), slopes, 2)


def symmetric_types():
    def zero_slope_graph(nv, pairs, weight=0):
        vertices = tuple((f"v{i}", weight) for i in range(nv))
        edges = tuple((f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(pairs))
        return CombinatorialType(WeightedGraph(vertices, edges, ()),
                                 {e: (0, 0) for e, _, _ in edges}, 2)

    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    cycle6 = [(i, (i + 1) % 6) for i in range(6)]
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    directed6 = zero_slope_graph(6, cycle6)
    directed6 = CombinatorialType(directed6.graph,
                                  {e: (1, 0) for e, _, _ in directed6.graph.edges}, 2)
    return [zero_slope_graph(4, k4), zero_slope_graph(6, cycle6), zero_slope_graph(6, k33),
            zero_slope_graph(6, prism), directed6,
            zero_slope_graph(6, [(0, k) for k in range(1, 6)], weight=1),
            zero_slope_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0), (0, 0)])]


def test_canonical_form_matches_reference_on_symmetric_types():
    rng = random.Random(7)
    for t in symmetric_types():
        assert_matches_reference(t)
        for _ in range(3):
            assert_matches_reference(relabelled(t, rng))
    for _ in range(300):
        t = random_type(rng, rng.randint(1, 6))
        assert_matches_reference(t)
        assert_matches_reference(relabelled(t, rng))


def permutation_type(rng, nv, k):
    """Edges v -> p_j(v) of slope (j, 0) for k random permutations p_j.

    Every vertex has the same star and its neighbours the same colour, so
    refinement leaves one class and the search meets every symmetry."""
    vids = [f"v{i}" for i in range(nv)]
    edges, slopes = [], {}
    for j in range(1, k + 1):
        image = rng.sample(vids, nv)
        for v, w in zip(vids, image):
            edges.append((f"e{len(edges)}", v, w))
            slopes[edges[-1][0]] = (j, 0)
    return CombinatorialType(WeightedGraph(tuple((v, 0) for v in vids), tuple(edges), ()),
                             slopes, 2)


def test_search_where_refinement_splits_nothing():
    rng = random.Random(11)
    for _ in range(80):
        t = permutation_type(rng, rng.randint(3, 6), rng.randint(1, 2))
        assert_matches_reference(t)
        assert_matches_reference(relabelled(t, rng))
        vs = sorted(t.graph.vertex_ids())
        plain = reference_serialize(t, {v: i for i, v in enumerate(vs)})
        want = {tuple(zip(vs, image)) for image in permutations(vs)
                if reference_serialize(t, {v: vs.index(w) for v, w in zip(vs, image)}) == plain}
        assert {iso.vertex_map for iso in automorphisms(t)} == want


def star(leaves, names=None):
    """A weightless centre joined by zero-slope edges to weight-1 leaves."""
    names = names or [f"x{i}" for i in range(leaves)]
    graph = WeightedGraph((("c", 0),) + tuple((x, 1) for x in names),
                          tuple((f"e{i}", "c", x) for i, x in enumerate(names)), ())
    return CombinatorialType(graph, {f"e{i}": (0, 0) for i in range(leaves)}, 2)


def test_automorphism_counts_of_stars_match_brute_force():
    for leaves in range(1, 6):
        t = star(leaves)
        autos = automorphisms(t)
        assert len(autos) == len(brute_force_isomorphisms(t, t))
        assert all(is_type_isomorphism(t, t, iso) for iso in autos)


def test_automorphisms_match_brute_force_on_small_types():
    rng = random.Random(3)
    for _ in range(150):
        t = random_type(rng, rng.randint(1, 4))
        if len(t.graph.edges) > 5:
            continue
        want = sorted((tuple(sorted(v.items())), tuple(sorted(e.items())))
                      for v, e in brute_force_isomorphisms(t, t))
        assert [(iso.vertex_map, iso.edge_map) for iso in automorphisms(t)] == want


def test_classify_nine_leaf_star(tmp_path, capsys):
    strings = []
    rng = random.Random(9)
    for k in range(3):
        names = [f"x{i}" for i in range(9)]
        if k:
            rng.shuffle(names)
        t = star(9, names)
        path = tmp_path / f"star{k}.json"
        path.write_text(json.dumps(docs.type_to_doc(t)))
        code = main(["classify", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        strings.append(json.loads(out)["payload"]["canonical"])
    assert strings[0] == strings[1] == strings[2]


def _all_relabellings(emulti, nv):
    return {tuple(sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in emulti))
            for p in permutations(range(nv))}


def _connected(emulti, nv):
    reached = {0}
    for _ in range(nv):
        reached |= {j for i, j in emulti if i in reached} | {i for i, j in emulti if j in reached}
    return len(reached) == nv


def test_one_labelling_per_connected_multigraph():
    for nv in range(1, 5):
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        for ne in range(6):
            table = moduli._multigraphs(nv, ne)
            assert type(table) is tuple
            want = {min(_all_relabellings(emulti, nv))
                    for emulti in combinations_with_replacement(pairs, ne)
                    if _connected(emulti, nv)}
            got = []
            for entry in table:
                assert type(entry) is tuple and all(type(x) is tuple for x in entry)
                edges, ends, _, _, autos = entry
                emulti = tuple((int(u[1:]), int(v[1:])) for _, u, v in edges)
                got.append(min(_all_relabellings(emulti, nv)))
                assert list(ends) == sorted(ends)
                assert list(autos) == sorted(reference_automorphisms(emulti, ends))
            assert sorted(got) == sorted(want), (nv, ne)


def test_enumeration_is_the_same_from_a_cold_multigraph_table():
    degree = ((1, 0), (0, 1), (-1, -1))
    moduli._multigraphs.cache_clear()
    moduli._leg_graphs.cache_clear()  # else cached leg graphs would skip the table
    cold = enumerate_types(1, 1, degree, 3)
    assert moduli._multigraphs.cache_info().currsize
    assert enumerate_types(1, 1, degree, 3) == cold


def test_only_automorphisms_calls_permutations():
    """One vertex-labelling search: ``_search``.  ``automorphisms`` permutes
    only parallel edges; no other code in the package tries permutations."""
    callers = set()
    for path in Path(moduli.__file__).parent.rglob("*.py"):
        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "permutations":
                    callers.add((path.name, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert callers == {("moduli.py", "automorphisms")}
