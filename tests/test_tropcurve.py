import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from tropmoduli.errors import CycleInconsistency, Disconnected, Unstabilizable
from tropmoduli.tropcurve import (
    CombinatorialType,
    ParameterizedTropicalCurve,
    TropicalCurve,
    WeightedGraph,
    check_balanced,
    extended_degree,
    genus,
    is_stable,
    realize,
    stabilize,
    stabilize_type,
)
from tropmoduli.moduli import enumerate_types

from helpers import CROSS_DEGREE, cross_type, decorated_family, resolution_type
from reference_graph import reference_stabilize_type


def tripod(dim=2):
    g = WeightedGraph(
        vertices=(("v", 0),),
        edges=(),
        legs=(("l1", "v"), ("l2", "v"), ("l3", "v")),
    )
    return CombinatorialType(g, {"l1": (1, 0), "l2": (0, 1), "l3": (-1, -1)}, dim)


def two_vertex_type():
    # edge slope (1,0); legs (0,1),(-1,-1) at u and (1,1),(0,-1) at v
    g = WeightedGraph(
        vertices=(("u", 0), ("v", 0)),
        edges=(("e", "u", "v"),),
        legs=(("l1", "u"), ("l2", "u"), ("l3", "v"), ("l4", "v")),
    )
    return CombinatorialType(
        g,
        {"e": (1, 0), "l1": (0, 1), "l2": (-1, -1), "l3": (1, 1), "l4": (0, -1)},
        2,
    )


def test_genus():
    g = WeightedGraph(vertices=(("v", 0),), edges=(), legs=())
    assert genus(g) == 0
    loop = WeightedGraph(vertices=(("v", 0),), edges=(("e", "v", "v"),), legs=())
    assert genus(loop) == 1
    banana = WeightedGraph(
        vertices=(("u", 1), ("v", 0)),
        edges=(("e1", "u", "v"), ("e2", "u", "v")),
        legs=(),
    )
    assert genus(banana) == 2
    disc = WeightedGraph(vertices=(("u", 0), ("v", 0)), edges=(), legs=())
    with pytest.raises(Disconnected):
        genus(disc)


def test_is_stable():
    g3 = WeightedGraph(vertices=(("v", 0),), edges=(),
                       legs=(("l1", "v"), ("l2", "v"), ("l3", "v")))
    assert is_stable(g3)
    g1 = WeightedGraph(vertices=(("v", 1),), edges=(), legs=(("l1", "v"),))
    assert is_stable(g1)
    loop = WeightedGraph(vertices=(("v", 0),), edges=(("e", "v", "v"),), legs=())
    assert not is_stable(loop)


def test_check_balanced():
    assert check_balanced(tripod()).ok
    g = WeightedGraph(vertices=(("v", 0),), edges=(), legs=(("l1", "v"), ("l2", "v")))
    t = CombinatorialType(g, {"l1": (1, 0), "l2": (0, 1)}, 2)
    rep = check_balanced(t)
    assert not rep.ok
    assert rep.failures == (("v", (1, 1)),)
    assert check_balanced(two_vertex_type()).ok


def test_tropical_curve_leaves_the_callers_lengths_alone():
    g = two_vertex_type().graph
    lengths = {"e": "3/2"}
    curve = TropicalCurve(g, lengths)
    assert lengths == {"e": "3/2"} and type(lengths["e"]) is str
    assert curve.lengths == {"e": Fraction(3, 2)} and type(curve.lengths["e"]) is Fraction


def test_realize_tripod():
    p = realize(tripod(), {}, (0, 0))
    assert p.positions == {"v": (Fraction(0), Fraction(0))}
    assert p.is_valid()


def test_realize_two_vertex():
    p = realize(two_vertex_type(), {"e": 3}, (0, 0))
    assert p.positions["u"] == (Fraction(0), Fraction(0))
    assert p.positions["v"] == (Fraction(3), Fraction(0))
    assert p.is_valid()


def test_realize_refuses_a_root_position_of_the_wrong_length():
    """A short root position used to fail as a cycle inconsistency even on a
    tree, and a long one with zip's error; both are one ValueError that
    names the root."""
    for t, root in ((two_vertex_type(), None), (two_vertex_type(), "v"), (tripod(), "v")):
        for position in ((0,), (0, 0, 0), ()):
            with pytest.raises(ValueError, match=rf"^position of root '{root or 'u'}' has "
                               rf"{len(position)} coordinates, not 2$"):
                realize(t, {"e": 3}, position, root)


def test_realize_cycle_inconsistency():
    # theta-like cycle with equal slopes on parallel edges and lengths 1, 2
    g = WeightedGraph(
        vertices=(("u", 0), ("v", 0)),
        edges=(("e1", "u", "v"), ("e2", "u", "v")),
        legs=(("l1", "u"), ("l2", "v")),
    )
    t = CombinatorialType(
        g, {"e1": (1, 0), "e2": (1, 0), "l1": (-2, 0), "l2": (2, 0)}, 2)
    assert check_balanced(t).ok
    with pytest.raises(CycleInconsistency) as exc:
        realize(t, {"e1": 1, "e2": 2}, (0, 0))
    assert "e2" in exc.value.cycle or "e1" in exc.value.cycle
    # equal lengths close the cycle consistently
    p = realize(t, {"e1": 2, "e2": 2}, (0, 0))
    assert p.is_valid()


def test_realize_loop_nonzero_slope():
    g = WeightedGraph(vertices=(("v", 0),), edges=(("e", "v", "v"),),
                      legs=(("l1", "v"),))
    t = CombinatorialType(g, {"e": (1, 0), "l1": (0, 0)}, 2)
    with pytest.raises(CycleInconsistency):
        realize(t, {"e": 1}, (0, 0))


def test_type_of_round_trip():
    t = two_vertex_type()
    p = realize(t, {"e": 3}, (0, 0))
    assert p.type == t
    p2 = realize(t, {"e": 7}, (0, 0))
    assert p2.type == t  # lengths forgotten
    # re-realizing with the same data reproduces identical positions
    p3 = realize(p.type, {"e": 3}, (0, 0))
    assert p3.positions == p.positions


def degree_of(t):
    """(extended degree, reduced degree): the leg slopes, and the nonzero ones."""
    ext = extended_degree(t)
    return ext, tuple(s for s in ext if any(x != 0 for x in s))


def test_extended_degree():
    t = two_vertex_type()
    assert extended_degree(t) == ((0, 1), (-1, -1), (1, 1), (0, -1))
    extended, reduced = degree_of(t)
    assert extended == reduced
    g = WeightedGraph(vertices=(("v", 0),), edges=(),
                      legs=(("l0", "v"), ("l1", "v"), ("l2", "v"), ("l3", "v")))
    t2 = CombinatorialType(g, {"l0": (0, 0), "l1": (1, 0), "l2": (0, 1), "l3": (-1, -1)}, 2)
    extended, reduced = degree_of(t2)
    assert len(extended) == 4 and len(reduced) == 3


@pytest.mark.parametrize("vertices, edges, legs", [
    ((("a", 0), ("b", 0)), (("x", "a", "b"),), (("x", "a"),)),
    ((("a", 0),), (("x", "a", "a"), ("y", "a", "a")), (("z", "a"), ("y", "a"), ("x", "a"))),
])
def test_an_id_naming_an_edge_and_a_leg_is_refused(vertices, edges, legs):
    """Edge and leg ids share the slopes' namespace; the least shared id is named."""
    with pytest.raises(ValueError, match="id 'x' names both an edge and a leg"):
        WeightedGraph(vertices, edges, legs)


def test_a_graph_without_a_vertex_is_refused():
    """``stabilize_type`` relies on this: it never empties a graph that has
    a vertex."""
    with pytest.raises(ValueError, match="^a graph needs at least one vertex$"):
        WeightedGraph((), (), ())


_PATH = WeightedGraph(vertices=(("u", 0), ("v", 0)), edges=(("e", "u", "v"),), legs=(("l", "u"),))
_PATH_SLOPES = {"e": (1, 0), "l": (0, 1)}


@pytest.mark.parametrize("build, message", [
    (lambda: CombinatorialType(_PATH, {"l": (0, 1)}, 2), "missing slope for edge 'e'"),
    (lambda: CombinatorialType(_PATH, {"e": (1, 0)}, 2), "missing slope for leg 'l'"),
    (lambda: CombinatorialType(_PATH, {"e": (1, 0), "l": (1,)}, 2),
     "slope for 'l' has wrong dimension"),
    (lambda: CombinatorialType(_PATH, {"e": (1, 0), "l": (0, "1/2")}, 2),
     "expected integer entry, got '1/2'"),
    (lambda: TropicalCurve(_PATH, {}), "missing length for edge 'e'"),
    (lambda: TropicalCurve(_PATH, {"e": 0}), "length of 'e' must be positive"),
    (lambda: ParameterizedTropicalCurve(TropicalCurve(_PATH, {"e": 1}), {"u": (0, 0)},
                                        _PATH_SLOPES, 2), "missing position for vertex 'v'"),
    (lambda: ParameterizedTropicalCurve(TropicalCurve(_PATH, {"e": 1}),
                                        {"u": (0, 0), "v": (1,)}, _PATH_SLOPES, 2),
     "position of 'v' has wrong dimension"),
], ids=["type-edge-slope", "type-leg-slope", "type-slope-length", "type-slope-entry",
        "curve-length",
        "curve-nonpositive-length", "parameterized-position", "parameterized-position-length"])
def test_constructors_refuse_missing_and_misshapen_fields(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_a_type_repr_gives_its_sizes():
    assert repr(two_vertex_type()) == "CombinatorialType(2v/1e/4l, dim=2)"


def test_stabilize_fixed_point():
    p = realize(tripod(), {}, (0, 0))
    q = stabilize(p)
    assert q.graph == p.graph and q.positions == p.positions


def test_stabilize_smooths_path():
    # path u - v - w, v weight 0 without legs, slopes (1,0) along the path
    g = WeightedGraph(
        vertices=(("u", 1), ("v", 0), ("w", 1)),
        edges=(("e1", "u", "v"), ("e2", "v", "w")),
        legs=(),
    )
    t = CombinatorialType(g, {"e1": (1, 0), "e2": (1, 0)}, 2)
    # balancing fails at u and w, but smoothing is type-local; build by hand
    curve = TropicalCurve(g, {"e1": 1, "e2": 2})
    p = ParameterizedTropicalCurve(
        curve,
        {"u": (0, 0), "v": (1, 0), "w": (3, 0)},
        dict(t.slopes),
        2,
    )
    q = stabilize(p)
    assert len(q.graph.edges) == 1
    (eid, a, b) = q.graph.edges[0]
    assert {a, b} == {"u", "w"}
    assert q.curve.lengths[eid] == 3
    # the merged edge relation still holds
    assert q.edge_relation_violations() == []
    assert genus(q.graph) == genus(g)


def test_stabilize_prunes_tail():
    # stable core: weight-1 vertex with a leg; tail hangs off on a zero-slope edge
    g = WeightedGraph(
        vertices=(("core", 1), ("tail", 0)),
        edges=(("e", "core", "tail"),),
        legs=(("l1", "core"),),
    )
    t = CombinatorialType(g, {"e": (0, 0), "l1": (0, 0)}, 2)
    curve = TropicalCurve(g, {"e": 5})
    p = ParameterizedTropicalCurve(curve, {"core": (0, 0), "tail": (0, 0)}, dict(t.slopes), 2)
    q = stabilize(p)
    assert [v for v, _ in q.graph.vertices] == ["core"]
    assert q.graph.edges == ()
    assert is_stable(q.graph)
    assert genus(q.graph) == 1


def test_stabilize_unstabilizable():
    g = WeightedGraph(vertices=(("v", 0),), edges=(("e", "v", "v"),), legs=())
    t = CombinatorialType(g, {"e": (0, 0)}, 2)
    curve = TropicalCurve(g, {"e": 1})
    p = ParameterizedTropicalCurve(curve, {"v": (0, 0)}, dict(t.slopes), 2)
    with pytest.raises(Unstabilizable):
        stabilize(p)


@pytest.mark.parametrize("case, message", [
    ("slopes-do-not-cancel", "no stable model: vertices ['m'] cannot be removed"),
])
def test_stabilize_type_refusals(case, message):
    """A weight-0 vertex between two edges whose slopes do not cancel stays
    and is unstable.  Stabilization never empties a graph: every step
    removes one vertex and keeps a neighbour, and the constructor refuses a
    graph with no vertex."""
    g = WeightedGraph(vertices=(("a", 1), ("m", 0), ("b", 1)),
                      edges=(("e1", "a", "m"), ("e2", "m", "b")), legs=())
    t = CombinatorialType(g, {"e1": (1, 0), "e2": (0, 1)}, 2)
    with pytest.raises(Unstabilizable, match=f"^{re.escape(message)}$"):
        stabilize_type(t)


def test_stabilize_type_chain():
    # two smoothings in a row collapse a 3-edge path
    g = WeightedGraph(
        vertices=(("a", 1), ("m1", 0), ("m2", 0), ("b", 1)),
        edges=(("e1", "a", "m1"), ("e2", "m1", "m2"), ("e3", "m2", "b")),
        legs=(),
    )
    t = CombinatorialType(g, {"e1": (2, 1), "e2": (2, 1), "e3": (2, 1)}, 2)
    res = stabilize_type(t)
    assert len(res.graph.edges) == 1
    chain = list(res.edge_chains.values())[0]
    assert sorted(chain) == ["e1", "e2", "e3"]


def _random_type(rng):
    """A type with loops, parallel edges, legs, weights and zero slopes,
    with some edges subdivided into chains of weight-0 vertices (either way
    round) and slope-0 tails hung on, under shuffled ids."""
    dim = rng.randint(1, 2)
    pool = [(0,) * dim] + [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(2)]
    weights = [0 if rng.random() < 0.6 else rng.randint(1, 2) for _ in range(rng.randint(1, 4))]
    edges = [[rng.randrange(i), i, rng.choice(pool)] for i in range(1, len(weights))]
    for _ in range(rng.randint(0, 3)):  # a loop, a parallel edge or any edge
        u, v, kind = rng.randrange(len(weights)), rng.randrange(len(weights)), rng.randrange(3)
        if kind == 0:
            v = u
        elif kind == 1 and edges:
            u, v = rng.choice(edges)[:2]
        edges.append([u, v, rng.choice(pool)])
    for _ in range(rng.randint(0, 3)):  # subdivide an edge
        if edges:
            e, n = rng.choice(edges), len(weights)
            weights.append(0)
            edges.append([n, e[1], e[2]] if rng.random() < 0.5 else
                         [e[1], n, tuple(-x for x in e[2])])
            e[1] = n
    for _ in range(rng.randint(0, 3)):  # a slope-0 tail
        at, n = rng.randrange(len(weights)), len(weights)
        weights.append(0)
        edges.append([at, n, (0,) * dim] if rng.random() < 0.5 else [n, at, (0,) * dim])
    legs = [(rng.randrange(len(weights)), rng.choice(pool)) for _ in range(rng.randint(0, 3))]
    vid = [f"v{k}" for k in rng.sample(range(100), len(weights))]
    eid = [f"e{k}" for k in rng.sample(range(100), len(edges) + len(legs))]
    graph = WeightedGraph(tuple(zip(vid, weights)),
                          tuple((e, vid[u], vid[v]) for e, (u, v, _) in zip(eid, edges)),
                          tuple((l, vid[v]) for l, (v, _) in zip(eid[len(edges):], legs)))
    return CombinatorialType(graph, dict(zip(eid, [s for *_, s in edges] + [s for _, s in legs])),
                             dim)


def _stabilized(stabilize, t, *counts):
    """Every field of the result, dict order included, or the exception."""
    try:
        r = stabilize(t, *counts)
    except Exception as exc:
        return type(exc), str(exc)
    return r.graph, list(r.slopes.items()), list(r.edge_chains.items()), r.kept_vertices


def test_stabilize_type_matches_the_three_map_reference():
    """One edge dict gives what three edge dicts, ``legs_at`` and a private
    edge-end scan gave: on seeded types with loops, parallel edges, legs,
    weights, zero slopes, chains and tails, on the fiber types of
    ``helpers.decorated_family`` and on ``enumerate_types`` output, the
    same result in the same dict order, or the same exception."""
    rng = random.Random("stabilize")
    stable = [resolution_type(1), resolution_type(2), cross_type(),
              *enumerate_types(0, 0, CROSS_DEGREE, 2),
              *enumerate_types(1, 0, ((1, 2), (2, 1), (-3, -3)), 3)]
    types = [_random_type(rng) for _ in range(3000)] + stable
    for i in range(2 * len(stable)):
        f = decorated_family(stable[i % len(stable)], rng, axes=1 + i % 3, quadrant=i % 4 == 3)
        types += [data.type for data in f.face_data.values()]
    counts = Counter()
    for t in types:
        got = _stabilized(stabilize_type, t)
        assert got == _stabilized(reference_stabilize_type, t, counts), t
        if got[0] is Unstabilizable:
            counts["unstabilizable"] += 1
        else:
            counts["chain of 3"] += any(len(chain) >= 3 for _, chain in got[2])
    assert counts["pruned"] >= 1000 and counts["smoothed"] >= 1000, counts
    assert counts["chain of 3"] >= 100 and counts["loop skipped"] >= 20, counts
    assert counts["unstabilizable"] >= 500, counts
