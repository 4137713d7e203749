"""The one spanning-forest walk against the traversals it replaced.

``tests/reference_graph.py`` keeps the old depth-first ``is_connected``,
union-find ``contract_any_slope``, breadth-first ``realize``, ``deque``
``connected_through_walls`` and path-building ``_spanning_forest``.  On
seeded random multigraphs (1-6 vertices, loops, parallel edges, several
components) and on the wall graphs of enumerated degrees, ``src`` must give
the same results, and ``realize`` the same exception, message and witness
cycle on an input with a single defect.  ``check_balanced``, one pass over
the edges and legs, must give the report of the old scan of every vertex's
star, on seeded types in dims 0-3 with loops, parallel edges and legs.
"""

import random
from fractions import Fraction

import pytest

import reference_graph as reference
from tropmoduli.errors import CycleInconsistency, Disconnected
from tropmoduli.exact_linalg import _forest
from tropmoduli.moduli import (
    WallClassification,
    WallGraph,
    _spanning_forest,
    classify,
    connected_through_walls,
    contract_any_slope,
    enumerate_types,
    wall_graph,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph, _place, check_balanced, realize


def _random_graph(rng, dim=2):
    """Vertices, edges and edge slopes with ids whose stored order is random."""
    nv = rng.randint(1, 6)
    vids = [f"v{i}" for i in range(nv)]
    rng.shuffle(vids)
    vertices = tuple((v, rng.randint(0, 2)) for v in vids)
    eids = [f"e{k}" for k in range(rng.randint(0, 8))]
    rng.shuffle(eids)
    edges = []
    for e in eids:
        u = rng.choice(vids)
        v = u if rng.random() < 0.15 else rng.choice(vids)  # loops and parallels
        edges.append((e, u, v))
    slopes = {e: tuple(rng.randint(-2, 2) for _ in range(dim)) for e in eids}
    return vertices, tuple(edges), slopes


def _balanced(vertices, edges, slopes, dim=2):
    """The type with one leg per vertex that balances it."""
    total = {v: [0] * dim for v, _ in vertices}
    for e, u, v in edges:
        for c in range(dim):
            total[u][c] += slopes[e][c]
            total[v][c] -= slopes[e][c]
    legs = tuple((f"l{i}", v) for i, (v, _) in enumerate(vertices))
    leg_slopes = {f"l{i}": tuple(-x for x in total[v]) for i, (v, _) in enumerate(vertices)}
    t = CombinatorialType(WeightedGraph(vertices, edges, legs), {**slopes, **leg_slopes}, dim)
    assert check_balanced(t).ok
    return t


def test_is_connected_and_contraction_match_reference():
    rng = random.Random(91)
    disconnected = contracted_pieces = 0
    for _ in range(600):
        vertices, edges, slopes = _random_graph(rng)
        t = _balanced(vertices, edges, slopes)
        assert t.graph.is_connected() == reference.is_connected(t.graph)
        disconnected += not t.graph.is_connected()
        eids = [e for e, _, _ in edges]
        for subset in ([], eids, rng.sample(eids, rng.randint(0, len(eids)))):
            got = contract_any_slope(t, subset)
            assert got == reference.contract_any_slope(t, subset)
            contracted_pieces += len(got.graph.vertices) < len(vertices)
    assert disconnected > 100 and contracted_pieces > 300


def test_spanning_forest_matches_reference():
    rng = random.Random(92)
    for _ in range(600):
        vertices, edges, _ = _random_graph(rng)
        vids = [v for v, _ in vertices]
        for vs, es in ((sorted(vids), sorted(edges)), (vids, list(edges))):
            assert _spanning_forest(vs, es) == reference.spanning_forest(vs, es)


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_check_balanced_matches_reference(dim):
    rng = random.Random(f"balance/{dim}")
    seen = dict.fromkeys(["loop", "parallel", "leg", "unbalanced", "balanced"], 0)
    for _ in range(150):
        vertices, edges, slopes = _random_graph(rng, dim)
        vids = [v for v, _ in vertices]
        legs = tuple((f"l{k}", rng.choice(vids)) for k in range(rng.randint(0, 4)))
        leg_slopes = {lid: tuple(rng.randint(-2, 2) for _ in range(dim)) for lid, _ in legs}
        t = CombinatorialType(WeightedGraph(vertices, edges, legs), {**slopes, **leg_slopes}, dim)
        for case in (t, _balanced(vertices, edges, slopes, dim)):
            report = check_balanced(case)
            assert report == reference.reference_check_balanced(case)
            ends = [frozenset((u, v)) for _, u, v in case.graph.edges]
            seen["loop"] += any(len(p) == 1 for p in ends)
            seen["parallel"] += len(set(ends)) < len(ends)
            seen["leg"] += bool(case.graph.legs)
            seen["unbalanced"] += len(report.failures)
            seen["balanced"] += report.ok
    if dim:
        assert min(seen.values()) >= 100, seen
    else:  # every slope is the empty vector
        assert seen["unbalanced"] == 0 and seen["balanced"] == 300


def _realizable(rng, dim=2):
    """A balanced type with lengths that close every cycle: vertex positions
    6 * r_v with integer r_v, lengths in {1, 2, 3}, slope 6 (r_v - r_u) / l_e,
    zero slope on loops."""
    vertices, edges, _ = _random_graph(rng, dim)
    r = {v: tuple(rng.randint(-1, 1) for _ in range(dim)) for v, _ in vertices}
    lengths = {e: rng.randint(1, 3) for e, _, _ in edges}
    slopes = {e: tuple(6 * (a - b) // lengths[e] for a, b in zip(r[v], r[u]))
              for e, u, v in edges}
    return _balanced(vertices, edges, slopes, dim), lengths


def _failures(t, lengths, root):
    """Edges whose relation fails when positions are placed along the walk."""
    edges = sorted(t.graph.edges)
    forest = _forest((root, *t.graph.vertex_ids()), edges)
    pos = _place(forest, (Fraction(0),) * t.dim, lengths, t.slopes)
    return forest, [e for e, u, v in edges
                    if tuple(b - a for a, b in zip(pos[u], pos[v]))
                    != tuple(lengths[e] * s for s in t.slopes[e])]


def _outcome(fn, *args):
    try:
        p = fn(*args)
    except (CycleInconsistency, Disconnected) as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)
    return p.positions, p.curve.lengths


def test_realize_matches_reference_on_single_defects():
    rng = random.Random(93)
    kinds = {"none": 0, "disconnected": 0, "loop": 0, "edge": 0, "several": 0}
    for _ in range(1500):
        t, lengths = _realizable(rng)
        g = t.graph
        defect = rng.choice(["none", "loop", "edge", "edge"])
        if defect == "loop":
            v = rng.choice(g.vertex_ids())
            slope = (rng.randint(1, 2), rng.randint(-1, 1))
            g = WeightedGraph(g.vertices, g.edges + (("z", v, v),), g.legs)
            t = CombinatorialType(g, {**t.slopes, "z": slope}, t.dim)
            lengths["z"] = 1
        elif defect == "edge" and g.edges:
            lengths[rng.choice(g.edges)[0]] += 1
        root = rng.choice([None, *g.vertex_ids()])
        args = (t, lengths, (1, Fraction(-1, 2)), root)
        got, want = _outcome(realize, *args), _outcome(reference.realize, *args)
        forest, failing = _failures(t, lengths, root or min(g.vertex_ids()))
        components = sum(1 for _, parent, _, _ in forest if parent is None)
        if components + len(failing) == 1:
            kind = "none"
        elif components == 2 and not failing:
            kind = "disconnected"
        elif components == 1 and len(failing) == 1:
            kind = "loop" if failing[0] == "z" else "edge"
        else:
            kind = "several"
        kinds[kind] += 1
        if kind == "several":
            assert got[0] in (CycleInconsistency, Disconnected)
            assert want[0] in (CycleInconsistency, Disconnected)
        else:
            assert got == want
    assert min(kinds.values()) > 50, kinds


def _theta(slopes, lengths):
    """Vertices a, b, c; tree edges e1 = a->b and e2 = a->c, non-tree edges
    e3 = a->b (met at a) and d = b->c (met later, at b)."""
    edges = (("d", "b", "c"), ("e1", "a", "b"), ("e2", "a", "c"), ("e3", "a", "b"))
    vertices = (("a", 0), ("b", 0), ("c", 0))
    return _balanced(vertices, edges, slopes), lengths


def test_realize_precedence_disconnected_then_least_failing_edge():
    # two failing non-tree edges: the least id fails, not the first one met
    t, lengths = _theta({"d": (1, 0), "e1": (1, 0), "e2": (1, 0), "e3": (1, 0)},
                        {"d": 1, "e1": 1, "e2": 1, "e3": 2})
    with pytest.raises(CycleInconsistency) as exc:
        realize(t, lengths, (0, 0))
    assert str(exc.value) == "edge 'd' closes a cycle with nonzero slope sum"
    assert exc.value.cycle == ("e1", "d", "e2")
    with pytest.raises(CycleInconsistency, match="edge 'e3'"):
        reference.realize(t, lengths, (0, 0))

    # a nonzero loop with a larger id than a failing edge
    g = WeightedGraph(t.graph.vertices, t.graph.edges + (("z", "a", "a"),), t.graph.legs)
    looped = CombinatorialType(g, {**t.slopes, "z": (0, 1)}, 2)
    with pytest.raises(CycleInconsistency, match="edge 'd'"):
        realize(looped, {**lengths, "z": 1}, (0, 0))
    with pytest.raises(CycleInconsistency, match="loop 'z'"):
        reference.realize(looped, {**lengths, "z": 1}, (0, 0))

    # the same loop beside a vertex the walk cannot reach
    g = WeightedGraph(g.vertices + (("y", 0),), g.edges, g.legs + (("ly", "y"),))
    apart = CombinatorialType(g, {**looped.slopes, "ly": (0, 0)}, 2)
    with pytest.raises(Disconnected):
        realize(apart, {**lengths, "z": 1, "e3": 1}, (0, 0))
    with pytest.raises(CycleInconsistency, match="loop 'z'"):
        reference.realize(apart, {**lengths, "z": 1, "e3": 1}, (0, 0))


def _nodes(degree):
    return [t for t in enumerate_types(0, 0, degree, len(degree) - 3)
            if classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]


@pytest.mark.parametrize("degree", [
    ((1, 0), (1, 0), (0, 1), (-2, 0), (0, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)),
], ids=["five-legs", "six-legs"])
def test_connected_through_walls_matches_reference(degree):
    rng = random.Random(94)
    nodes = _nodes(degree)
    graphs = [wall_graph(nodes), wall_graph(nodes[::3])]
    # walls listing random resolutions in random order, some graphs disconnected
    wg = graphs[0]
    ids = wg.node_ids()
    for _ in range(3):
        walls = tuple((f"w{i}", None, tuple(rng.sample(ids, rng.randint(1, 3))))
                      for i in range(rng.randint(0, len(ids))))
        graphs.append(WallGraph(nodes=wg.nodes, walls=walls))
    unconnected = 0
    for g in graphs:
        members = [t for _, t in g.nodes]
        for t1 in members:
            for t2 in rng.sample(members, min(len(members), 6)):
                got = connected_through_walls(g, t1, t2)
                assert got == reference.connected_through_walls(g, t1, t2)
                unconnected += not got[0]
    assert unconnected > 0


def test_complex_connectivity_matches_reference():
    """Unions of segments and points, faces in random order and inclusions
    dropped at random: the connectivity violation names the same face."""
    import reference_polyhedral
    from helpers import segment_complex
    from tropmoduli.polyhedral import PolyhedralComplex, validate_complex
    rng = random.Random(95)
    subjects = set()
    for _ in range(200):
        faces, incs = [], []
        for k in range(rng.randint(1, 4)):
            seg = segment_complex(ids=tuple(f"{x}{rng.randint(0, 99):02d}{k}" for x in "VWE"))
            faces += seg.faces.values()
            incs += [inc for inc in seg.inclusions.values() if rng.random() < 0.8]
        rng.shuffle(faces)
        rng.shuffle(incs)
        c = PolyhedralComplex(faces, incs)
        got = validate_complex(c)
        assert str(got) == str(reference_polyhedral.validate_complex(c))
        subjects |= {v.subject for v in got.violations if v.axiom == "connectivity"}
    assert len(subjects) > 50
