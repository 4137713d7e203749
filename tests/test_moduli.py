import random
from fractions import Fraction
from itertools import permutations

import pytest

from tropmoduli.errors import (
    MixedInvariants,
    NonzeroSlopeContraction,
    NotAlmost3Valent,
    SeedNotInGraph,
    UnbalancedType,
)
from tropmoduli.exact_linalg import integer_kernel, integer_solve
from tropmoduli.moduli import (
    TypeIso,
    _balanced_types,
    _integer_box_solutions,
    _multigraphs,
    _spanning_forest,
    _tree_flow,
    WallClassification,
    automorphisms,
    canonical_form,
    canonical_string,
    classify,
    connected_through_walls,
    contract,
    contract_any_slope,
    dim_stratum,
    enumerate_types,
    is_adjacent,
    resolve_4valent,
    stratum,
    wall_graph,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph, check_balanced, genus, is_stable

from helpers import BRUTE_FORCE_CASES, SIX_LEGS
from oracles import affine_hull_dim, brute_force_isomorphisms, brute_force_types, \
    is_type_isomorphism
from reference_canonical import reference_automorphisms
from reference_enumerate import (
    reference_balanced_types,
    reference_enumerate_types,
    reference_integer_box_solutions,
)
from reference_stratum import ambient_system, assert_stratum_systems_agree, sample_stratum


def tripod():
    g = WeightedGraph((("v", 0),), (), (("l0", "v"), ("l1", "v"), ("l2", "v")))
    return CombinatorialType(g, {"l0": (1, 0), "l1": (0, 1), "l2": (-1, -1)}, 2)


def cross():
    g = WeightedGraph((("v", 0),), (),
                      (("l0", "v"), ("l1", "v"), ("l2", "v"), ("l3", "v")))
    return CombinatorialType(
        g, {"l0": (1, 0), "l1": (0, 1), "l2": (-1, 0), "l3": (0, -1)}, 2)


def two_vertex():
    g = WeightedGraph(
        (("u", 0), ("v", 0)),
        (("e", "u", "v"),),
        (("l0", "u"), ("l1", "u"), ("l2", "v"), ("l3", "v")),
    )
    return CombinatorialType(
        g, {"e": (1, 0), "l0": (0, 1), "l1": (-1, -1), "l2": (1, 1), "l3": (0, -1)}, 2)


def theta():
    g = WeightedGraph(
        (("u", 0), ("v", 0)),
        (("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")),
        (),
    )
    return CombinatorialType(
        g, {"e1": (0, 0), "e2": (0, 0), "e3": (0, 0)}, 2)


def loop_vertex():
    g = WeightedGraph((("v", 0),), (("e", "v", "v"),),
                      (("l0", "v"), ("l1", "v"), ("l2", "v")))
    return CombinatorialType(
        g, {"e": (0, 0), "l0": (1, 0), "l1": (0, 1), "l2": (-1, -1)}, 2)


def nonzero_loop():
    g = WeightedGraph((("v", 0),), (("e", "v", "v"),),
                      (("l0", "v"), ("l1", "v"), ("l2", "v")))
    return CombinatorialType(
        g, {"e": (1, 0), "l0": (1, 0), "l1": (0, 1), "l2": (-1, -1)}, 2)


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------

def test_stratum_tripod():
    d = stratum(tripod())
    _, _, ambient, equalities = ambient_system(tripod())
    assert ambient == 2
    assert equalities == ()
    assert d.cycle_rows == ()
    assert d.dim() == 2


def test_stratum_two_vertex():
    d = stratum(two_vertex())
    _, _, ambient, equalities = ambient_system(two_vertex())
    assert ambient == 5
    assert len(equalities) == 2
    assert d.cycle_rows == ()
    assert d.dim() == 3


def test_stratum_inconsistent_cycle_empty():
    # parallel edges with opposite slopes: no positive lengths close the cycle
    g = WeightedGraph(
        (("u", 0), ("v", 0)),
        (("e1", "u", "v"), ("e2", "u", "v")),
        (("l0", "u"), ("l1", "v")),
    )
    t = CombinatorialType(
        g, {"e1": (1, 0), "e2": (-1, 0), "l0": (0, 0), "l1": (0, 0)}, 2)
    assert check_balanced(t).ok
    assert dim_stratum(t) is None
    # same-direction parallel slopes stay feasible (lengths must agree)
    t2 = CombinatorialType(
        g, {"e1": (1, 0), "e2": (1, 0), "l0": (-2, 0), "l1": (2, 0)}, 2)
    assert check_balanced(t2).ok
    assert dim_stratum(t2) is not None


def test_stratum_nonzero_slope_loop_empty():
    t = nonzero_loop()
    assert check_balanced(t).ok
    assert stratum(t).is_empty()
    assert dim_stratum(t) is None


def test_stratum_cycle_space_agrees_with_full_system():
    g = WeightedGraph(
        (("u", 0), ("v", 0)),
        (("e1", "u", "v"), ("e2", "u", "v")),
        (("l0", "u"), ("l1", "v")),
    )
    inconsistent = CombinatorialType(
        g, {"e1": (1, 0), "e2": (-1, 0), "l0": (0, 0), "l1": (0, 0)}, 2)
    parallel = CombinatorialType(
        g, {"e1": (1, 0), "e2": (1, 0), "l0": (-2, 0), "l1": (2, 0)}, 2)
    for t in (tripod(), cross(), two_vertex(), theta(), loop_vertex(),
              inconsistent, parallel, nonzero_loop()):
        assert_stratum_systems_agree(t)


def test_stratum_unbalanced_raises():
    g = WeightedGraph((("v", 0),), (), (("l0", "v"),))
    t = CombinatorialType(g, {"l0": (1, 0)}, 2)
    with pytest.raises(UnbalancedType):
        stratum(t)


def test_dim_stratum_examples():
    assert dim_stratum(cross()) == 2
    assert dim_stratum(loop_vertex()) == 3


def test_sample_stratum_matches_dim():
    rng = random.Random(5)
    for t in (tripod(), two_vertex(), cross(), loop_vertex()):
        d = dim_stratum(t)
        samples = sample_stratum(t, 50, rng)
        assert len(samples) == 50
        edge_order, _, _, equalities = ambient_system(t)
        nlen = len(edge_order)
        for s in samples:
            for row in equalities:
                assert sum(Fraction(a) * x for a, x in zip(row, s)) == 0
            assert all(x > 0 for x in s[:nlen])
        assert affine_hull_dim(samples) == d


# ---------------------------------------------------------------------------
# canonical forms and automorphisms
# ---------------------------------------------------------------------------

def test_canonical_invariant_under_relabeling():
    t = two_vertex()
    g2 = WeightedGraph(
        (("b", 0), ("a", 0)),
        (("z", "b", "a"),),
        (("l0", "b"), ("l1", "b"), ("l2", "a"), ("l3", "a")),
    )
    t2 = CombinatorialType(
        g2, {"z": (1, 0), "l0": (0, 1), "l1": (-1, -1), "l2": (1, 1), "l3": (0, -1)}, 2)
    assert canonical_string(t) == canonical_string(t2)
    # reversing the stored edge orientation (and negating the slope) too
    g3 = WeightedGraph(
        (("u", 0), ("v", 0)),
        (("e", "v", "u"),),
        (("l0", "u"), ("l1", "u"), ("l2", "v"), ("l3", "v")),
    )
    t3 = CombinatorialType(
        g3, {"e": (-1, 0), "l0": (0, 1), "l1": (-1, -1), "l2": (1, 1), "l3": (0, -1)}, 2)
    assert canonical_string(t) == canonical_string(t3)
    # changing a slope changes the class
    t4 = CombinatorialType(
        g2, {"z": (1, 0), "l0": (0, 1), "l1": (-1, -1), "l2": (0, -1), "l3": (1, 1)}, 2)
    assert canonical_string(t) != canonical_string(t4)


def test_automorphisms_tripod_trivial():
    autos = automorphisms(tripod())
    assert len(autos) == 1


def test_automorphisms_theta():
    autos = automorphisms(theta())
    assert len(autos) == 12
    for iso in autos:
        assert is_type_isomorphism(theta(), theta(), iso)
    # matches brute force
    assert len(brute_force_isomorphisms(theta(), theta())) == 12


def test_automorphisms_parallel_edges_distinct_weights():
    g = WeightedGraph(
        (("u", 1), ("v", 0)),
        (("e1", "u", "v"), ("e2", "u", "v")),
        (),
    )
    t = CombinatorialType(g, {"e1": (1, 0), "e2": (1, 0)}, 2)
    autos = automorphisms(t)
    assert len(autos) == 2
    assert len(brute_force_isomorphisms(t, t)) == 2


def test_automorphism_group_properties():
    for t in (theta(), cross(), two_vertex()):
        autos = automorphisms(t)
        keyset = {(iso.vertex_map, iso.edge_map) for iso in autos}
        ident = TypeIso.make(
            {v: v for v in t.graph.vertex_ids()},
            {e: e for e, _, _ in t.graph.edges})
        assert (ident.vertex_map, ident.edge_map) in keyset
        for a in autos:
            assert (a.invert().vertex_map, a.invert().edge_map) in keyset
            for b in autos:
                comp = a.compose(b)
                assert (comp.vertex_map, comp.edge_map) in keyset


# ---------------------------------------------------------------------------
# classification / contraction / adjacency
# ---------------------------------------------------------------------------

def test_classify():
    assert classify(tripod()).classification == WallClassification.WEIGHTLESS_3VALENT
    c = classify(cross())
    assert c.classification == WallClassification.WEIGHTLESS_ALMOST_3VALENT
    assert c.four_valent_vertex == "v"
    g = WeightedGraph((("v", 1),), (), (("l0", "v"),))
    t = CombinatorialType(g, {"l0": (0, 0)}, 2)
    assert classify(t).classification == WallClassification.OTHER


def test_contract_zero_slope_loop():
    g = WeightedGraph((("v", 0),), (("e", "v", "v"),), (("l0", "v"),))
    t = CombinatorialType(g, {"e": (0, 0), "l0": (0, 0)}, 2)
    out = contract(t, {"e"})
    assert out.graph.vertices == (("v", 1),)
    assert out.graph.edges == ()
    assert genus(out.graph) == genus(t.graph)


def test_contract_empty_set_identity():
    t = two_vertex()
    assert contract(t, set()) == t


def test_contract_nonzero_slope_refused():
    with pytest.raises(NonzeroSlopeContraction):
        contract(two_vertex(), {"e"})
    # the closure-limit variant accepts it
    out = contract_any_slope(two_vertex(), {"e"})
    assert len(out.graph.vertices) == 1
    assert genus(out.graph) == 0


def test_contract_any_slope_refuses_an_unknown_edge():
    with pytest.raises(KeyError, match=r"unknown edges \['f', 'g'\]"):
        contract_any_slope(two_vertex(), {"e", "g", "f"})


def test_contract_preserves_genus_banana():
    g = WeightedGraph(
        (("u", 0), ("v", 0)),
        (("e1", "u", "v"), ("e2", "u", "v")),
        (("l0", "u"),),
    )
    t = CombinatorialType(g, {"e1": (0, 0), "e2": (0, 0), "l0": (0, 0)}, 2)
    out = contract(t, {"e1"})
    # the second parallel edge became a loop; genus is preserved
    assert genus(out.graph) == genus(t.graph) == 1
    out2 = contract(t, {"e1", "e2"})
    assert out2.graph.vertices == (("u", 1),)


def test_is_adjacent():
    wall = cross()
    for res in resolve_4valent(wall, "v"):
        assert is_adjacent(wall, res)
    assert is_adjacent(two_vertex(), two_vertex())
    assert not is_adjacent(tripod(), two_vertex())


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------

def test_resolve_cross():
    res = resolve_4valent(cross(), "v")
    assert len(res) == 3
    new_slopes = set()
    for r in res:
        assert check_balanced(r).ok
        assert is_stable(r.graph)
        assert classify(r).classification == WallClassification.WEIGHTLESS_3VALENT
        assert len(r.graph.edges) == 1
        (eid, _, _) = r.graph.edges[0]
        s = r.slopes[eid]
        new_slopes.add(min(s, tuple(-x for x in s)))
        # round trip: contracting the new edge recovers the wall
        back = contract_any_slope(r, {eid})
        assert canonical_string(back) == canonical_string(cross())
    assert new_slopes == {(-1, -1), (0, 0), (-1, 1)}


def test_resolve_dedup_parallel_edges():
    # star slopes at the wall vertex: (1,0),(1,0),(-1,0),(-1,0) carried by
    # two interchangeable edges to each neighbor; two pairings collapse
    g = WeightedGraph(
        (("a", 0), ("b", 0), ("v", 0)),
        (("e1", "v", "a"), ("e2", "v", "a"), ("e3", "v", "b"), ("e4", "v", "b")),
        (("l0", "a"), ("l1", "b")),
    )
    t = CombinatorialType(
        g,
        {"e1": (1, 0), "e2": (1, 0), "e3": (-1, 0), "e4": (-1, 0),
         "l0": (2, 0), "l1": (-2, 0)},
        2,
    )
    assert check_balanced(t).ok
    res = resolve_4valent(t, "v")
    assert len(res) == 2


def test_resolve_legs_never_dedup():
    # isomorphisms fix legs, so distinct leg pairings are distinct types
    g = WeightedGraph((("v", 0),), (),
                      (("l0", "v"), ("l1", "v"), ("l2", "v"), ("l3", "v")))
    t = CombinatorialType(
        g, {"l0": (1, 0), "l1": (1, 0), "l2": (-1, 0), "l3": (-1, 0)}, 2)
    res = resolve_4valent(t, "v")
    assert len(res) == 3


def test_resolve_requires_wall():
    with pytest.raises(NotAlmost3Valent):
        resolve_4valent(tripod(), "v")


def test_resolve_with_loop_at_wall_vertex():
    # contracted loop adjacent to the 4-valent vertex
    g = WeightedGraph((("v", 0),), (("e", "v", "v"),),
                      (("l0", "v"), ("l1", "v")))
    t = CombinatorialType(g, {"e": (0, 0), "l0": (1, 0), "l1": (-1, 0)}, 2)
    assert classify(t).classification == WallClassification.WEIGHTLESS_ALMOST_3VALENT
    res = resolve_4valent(t, "v")
    for r in res:
        assert classify(r).classification == WallClassification.WEIGHTLESS_3VALENT
        assert genus(r.graph) == 1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_tripod_degree():
    degree = ((1, 0), (0, 1), (-1, -1))
    out0 = enumerate_types(0, 0, degree, 0)
    assert len(out0) == 1
    assert canonical_string(out0[0]) == canonical_string(tripod())
    out1 = enumerate_types(0, 0, degree, 1)
    assert len(out1) == 1


def test_enumerate_cross_degree():
    degree = ((1, 0), (0, 1), (-1, 0), (0, -1))
    out = enumerate_types(0, 0, degree, 1)
    # the 4-valent type plus its three resolutions
    assert len(out) == 4
    strings = {canonical_string(t) for t in out}
    assert canonical_string(cross()) in strings
    for r in resolve_4valent(cross(), "v"):
        assert canonical_string(r) in strings


@pytest.mark.parametrize("degree, message", [
    ((), "dim is required when the degree is empty"),
    (((1, 0), (-1,)), "degree slopes of mixed dimension"),
    (((1, 0), (0, 0), (-1, 0)), "degree must consist of nonzero slopes"),
], ids=["empty-without-dim", "mixed-dimension", "zero-slope"])
def test_enumerate_refuses_a_malformed_degree(degree, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_types(0, 0, degree, 1)


@pytest.mark.parametrize("degree, error, message", [
    # int() truncated these to (1, 0) and (-1, 0), a degree that sums to zero
    (((1.9, 0), (-1.2, 0), (0, 1), (0, -1)), TypeError, "^cannot interpret 1.9 as a rational number$"),
    ((("1/2", 0), ("-1/2", 0), (0, 1), (0, -1)), ValueError, "^expected integer entry, got '1/2'$"),
    # an integral float is refused too, as in CombinatorialType's slopes
    (((2.0, 0), (-2, 0), (0, 1), (0, -1)), TypeError, "^cannot interpret 2.0 as a rational number$"),
], ids=["float", "fraction-string", "integral-float"])
def test_enumerate_refuses_a_non_integral_degree_entry(degree, error, message):
    with pytest.raises(error, match=message):
        enumerate_types(0, 0, degree, 1)


def test_enumerate_deterministic():
    degree = ((1, 0), (0, 1), (-1, 0), (0, -1))
    a = [canonical_string(t) for t in enumerate_types(0, 0, degree, 1)]
    b = [canonical_string(t) for t in enumerate_types(0, 0, degree, 1)]
    assert a == b == sorted(a)


def test_enumerate_genus_one():
    # one contracted leg, no degree: weight-1 vertex or zero-slope loop
    out = enumerate_types(1, 1, (), 1, dim=2)
    assert len(out) == 2
    by_edges = {len(t.graph.edges) for t in out}
    assert by_edges == {0, 1}
    for t in out:
        assert genus(t.graph) == 1
        assert is_stable(t.graph)
        assert dim_stratum(t) is not None


def has_cycle(t):
    return len(t.graph.edges) > len(t.graph.vertices) - 1


def test_enumerate_checks_each_stratum_once(monkeypatch):
    import tropmoduli.moduli
    checked = []

    def counting(t):
        checked.append(t)
        return stratum(t)

    # two parallel edges of slopes (1, 2) and (2, 1) close no cycle with
    # positive lengths, though each coordinate's row has terms of both signs
    degree = ((3, 3), (-3, -3))
    every = []  # the reference checks the stratum of every class, trees included
    reference_enumerate_types(1, 0, degree, 2, checked=every)
    monkeypatch.setattr(tropmoduli.moduli, "stratum", counting)
    out = enumerate_types(1, 0, degree, 2)
    strings = [canonical_string(t) for t in checked]
    assert all(has_cycle(t) for t in checked)  # no tree class
    assert len(strings) == len(set(strings))
    cyclic = {canonical_string(t) for t in out if has_cycle(t)}
    assert cyclic < set(strings)  # some classes with a cycle have empty strata
    assert any(not has_cycle(t) for t in every)
    every_cyclic = {canonical_string(t) for t in every if has_cycle(t)}
    assert set(strings) <= every_cyclic
    assert every_cyclic - set(strings)  # the sign cut drops some classes before their check
    assert not (every_cyclic - set(strings)) & cyclic  # the sign cut drops only empty classes


def test_sign_cut_keeps_the_output_and_drops_candidates(monkeypatch):
    import reference_enumerate
    import tropmoduli.moduli
    # genus 1 in the plane: loops, parallel edges and two-edge cycles
    case = (1, 0, ((1, 2), (2, 1), (-3, -3)), 3)
    labelled, reference_labelled = [], []
    monkeypatch.setattr(tropmoduli.moduli, "canonical_form",
                        lambda t, *key: labelled.append(t) or canonical_form(t, *key))
    monkeypatch.setattr(reference_enumerate, "canonical_form",
                        lambda t: reference_labelled.append(t) or canonical_form(t))
    assert enumerate_types(*case) == reference_enumerate_types(*case)
    assert len(labelled) < len(reference_labelled)


def test_balanced_types_returns_early_when_the_legs_do_not_balance():
    ext = ((1, 0), (0, 1), (1, 1))  # sums to (2, 2)
    legs = (("l0", "v0"), ("l1", "v1"), ("l2", "v0"))
    with_cycle = set()
    for ne in (1, 2, 3):  # the tree, then parallel edges or loops added to it
        for edges, _, forest, kernel, _ in _multigraphs(2, ne):
            graph = WeightedGraph._trusted((("v0", 0), ("v1", 0)), edges, legs)
            args = (graph, forest, kernel, ext, 2, [3, 3])
            assert list(_balanced_types(*args)) == list(reference_balanced_types(*args)) == []
            with_cycle.add(bool(kernel))
    assert with_cycle == {False, True}
    for g in (0, 1):
        assert enumerate_types(g, 0, ext, 3) == reference_enumerate_types(g, 0, ext, 3) == []


@pytest.mark.parametrize("g, n, degree, dim", BRUTE_FORCE_CASES)
def test_enumerate_matches_the_check_every_class_reference(g, n, degree, dim):
    assert enumerate_types(g, n, degree, 2, dim=dim) == \
        reference_enumerate_types(g, n, degree, 2, dim=dim)


# genus 2 gives loops, parallel edges and up to five vertices
@pytest.mark.parametrize("g, n, degree, max_edges", [
    (1, 0, ((1, 0), (0, 1), (-1, -1)), 3),
    (2, 0, ((1,), (-1,)), 4),
    (2, 1, ((1,), (-1,)), 4),
    (0, 0, SIX_LEGS, 3),
])
def test_enumerate_matches_the_reference_beyond_two_edges(g, n, degree, max_edges):
    assert enumerate_types(g, n, degree, max_edges) == \
        reference_enumerate_types(g, n, degree, max_edges)


def test_enumerate_closed_under_operations():
    degree = ((1, 0), (0, 1), (-1, 0), (0, -1))
    out = enumerate_types(0, 0, degree, 1)
    strings = {canonical_string(t) for t in out}
    for t in out:
        cls = classify(t)
        if cls.classification == WallClassification.WEIGHTLESS_ALMOST_3VALENT:
            for r in resolve_4valent(t, cls.four_valent_vertex):
                if len(r.graph.edges) <= 1 and dim_stratum(r) is not None:
                    assert canonical_string(r) in strings
        for e, _, _ in t.graph.edges:
            back = contract_any_slope(t, {e})
            if is_stable(back.graph) and dim_stratum(back) is not None:
                assert canonical_string(back) in strings


def test_global_balancing_of_enumerated_types():
    degree = ((1, 0), (0, 1), (-1, 0), (0, -1))
    for t in enumerate_types(0, 0, degree, 1):
        total = [0, 0]
        for lid, _ in t.graph.legs:
            s = t.slopes[lid]
            total[0] += s[0]
            total[1] += s[1]
        assert total == [0, 0]


@pytest.mark.parametrize("g, n, degree, dim", BRUTE_FORCE_CASES)
def test_enumerate_complete_against_brute_force(g, n, degree, dim):
    got = enumerate_types(g, n, degree, 2, dim=dim)
    want = brute_force_types(g, n, degree, 2, dim)
    matched = []
    for t in got:
        hits = [i for i, w in enumerate(want) if brute_force_isomorphisms(t, w)]
        assert len(hits) == 1
        matched.append(hits[0])
    assert sorted(matched) == list(range(len(want)))


def test_multigraph_automorphisms_match_all_permutations():
    rng = random.Random(5)
    for _ in range(200):
        nv = rng.randint(1, 5)
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        emulti = tuple(sorted(rng.choice(pairs) for _ in range(rng.randint(0, 5))))
        ends = [0] * nv
        for i, j in emulti:
            ends[i] += 1
            ends[j] += 1
        want = [p for p in permutations(range(nv))
                if sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in emulti) == list(emulti)]
        assert sorted(reference_automorphisms(emulti, ends)) == want


def test_tree_flow_and_cycles_match_smith_normal_form():
    rng = random.Random(11)
    for _ in range(150):
        nv = rng.randint(1, 5)
        vertices = [f"v{i}" for i in range(nv)]
        pairs = [(rng.randrange(i), i) for i in range(1, nv)]  # a spanning tree
        pairs += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 4))]
        if pairs:
            pairs.append(rng.choice(pairs))  # a parallel edge (or a second loop)
        rng.shuffle(pairs)
        edges = [(f"e{k}", vertices[i], vertices[j]) if rng.random() < 0.5
                 else (f"e{k}", vertices[j], vertices[i]) for k, (i, j) in enumerate(pairs)]
        forest, cycles = _spanning_forest(vertices, edges)
        a = [tuple((u == v) - (w == v) for _, u, w in edges) for v in vertices]
        ne = len(edges)
        kernel = [tuple(coef.get(e, 0) for e, _, _ in edges) for coef in cycles]
        for k in kernel:
            assert all(sum(r * x for r, x in zip(row, k)) == 0 for row in a)
        if ne:
            reference = integer_kernel(a, ne)
            assert len(kernel) == len(reference)
            # each basis is an integer combination of the other
            for basis, other in ((kernel, reference), (reference, kernel)):
                columns = [tuple(v[e] for v in other) for e in range(ne)]
                for v in basis:
                    assert integer_solve(columns, v) is not None
        for _ in range(4):
            b = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(nv)]  # two coordinates
            if rng.random() < 0.7:
                b[0] = tuple(y - sum(col) for y, col in zip(b[0], zip(*b)))
            flow = _tree_flow(forest, dict(zip(vertices, b)))
            reference = [integer_solve(a, col) if ne else (None if any(col) else ())
                         for col in zip(*b)]
            assert (flow is None) == (None in reference)
            if flow is not None:
                for c, col in enumerate(zip(*b)):
                    x = [flow.get(e, (0, 0))[c] for e, _, _ in edges]
                    assert tuple(sum(r * xi for r, xi in zip(row, x)) for row in a) == col


def test_box_walk_matches_lp_bounded_search():
    # random multigraphs with loops and parallel edges, connected or not
    rng = random.Random(17)
    walked = 0
    while walked < 100:
        nv = rng.randint(1, 5)
        vertices = [f"v{i}" for i in range(nv)]
        pairs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 5))]
        if pairs:
            pairs.append(rng.choice(pairs))  # a parallel edge (or a second loop)
        edges = [(f"e{k}", vertices[i], vertices[j]) for k, (i, j) in enumerate(pairs)]
        forest, cycles = _spanning_forest(vertices, edges)
        if len(cycles) > 2:
            continue  # keeps the reference quick: it makes two LPs per node of its tree
        walked += 1
        kernel = [tuple(coef.get(e, 0) for e, _, _ in edges) for coef in cycles]
        root, b = {}, {}
        for v, parent, _, _ in forest:  # b sums to zero over each component
            root[v] = v if parent is None else root[parent]
            b[v] = 0 if parent is None else rng.randint(-3, 3)
            b[root[v]] -= b[v]
        flow = _tree_flow(forest, {v: (y,) for v, y in b.items()})
        particular = tuple(flow.get(e, (0,))[0] for e, _, _ in edges)
        for bound in range(5):
            assert _integer_box_solutions(particular, kernel, bound) == \
                reference_integer_box_solutions(particular, kernel, bound), (edges, b, bound)


# ---------------------------------------------------------------------------
# wall graph
# ---------------------------------------------------------------------------

def test_wall_graph_single_wall():
    nodes = resolve_4valent(cross(), "v")
    wg = wall_graph(nodes)
    assert len(wg.nodes) == 3
    assert len(wg.walls) == 1
    wid, wtype, incident = wg.walls[0]
    assert canonical_string(wtype) == canonical_string(cross())
    assert len(incident) == 3
    ok, path = connected_through_walls(wg, nodes[0], nodes[1])
    assert ok and len(path) == 3
    ok, path = connected_through_walls(wg, nodes[2], nodes[2])
    node_key = {canonical_form(t).string: nid for nid, t in wg.nodes}
    assert ok and path == (node_key[canonical_form(nodes[2]).string],)


def test_wall_graph_mixed_invariants():
    other = CombinatorialType(
        WeightedGraph((("v", 0),), (), (("l0", "v"), ("l1", "v"), ("l2", "v"))),
        {"l0": (2, 0), "l1": (0, 1), "l2": (-2, -1)}, 2)
    with pytest.raises(MixedInvariants):
        wall_graph([tripod(), other])


def test_wall_graph_refuses_a_node_that_is_not_3_valent():
    with pytest.raises(MixedInvariants, match="^wall graph nodes must be weightless and 3-valent$"):
        wall_graph([tripod(), cross()])


def test_wall_graph_unknown_node():
    wg = wall_graph(resolve_4valent(cross(), "v"))
    node = wg.nodes[0][1]
    # two unknown types, and one unknown type in either place
    for pair in ((tripod(), tripod()), (node, tripod()), (tripod(), node)):
        with pytest.raises(SeedNotInGraph, match="^queried type is not a node of the wall graph$"):
            connected_through_walls(wg, *pair)
    assert connected_through_walls(wg, node, node) == (True, (wg.nodes[0][0],))


def test_wall_graph_five_legs_connected():
    # a bigger universe: 15 maximal strata joined by 10 walls, all of which
    # have their full resolution set among the nodes
    degree = ((1, 0), (1, 0), (0, 1), (-2, 0), (0, -1))
    types = enumerate_types(0, 0, degree, 2)
    nodes = [t for t in types
             if classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]
    wg = wall_graph(nodes)
    assert len(wg.nodes) == 15
    assert len(wg.walls) == 10
    for _, _, incident in wg.walls:
        assert len(incident) == 3
    node_ids = set(wg.node_ids())
    for i in range(1, len(nodes)):
        ok, path = connected_through_walls(wg, nodes[0], nodes[i])
        assert ok
        assert len(path) % 2 == 1 and len(path) >= 3
        for j, step in enumerate(path):  # path alternates node, wall, node
            assert (step in node_ids) == (j % 2 == 0)


def test_is_adjacent_two_step_contraction():
    degree = ((1, 0), (1, 0), (0, 1), (-2, 0), (0, -1))
    types = enumerate_types(0, 0, degree, 2)
    two_edge = [t for t in types if len(t.graph.edges) == 2]
    assert two_edge
    t = two_edge[0]
    eids = [e for e, _, _ in t.graph.edges]
    collapsed = contract_any_slope(t, eids)  # 5-valent single vertex
    assert is_adjacent(collapsed, t)
    assert not is_adjacent(tripod(), t)  # different leg data entirely


def test_enumerate_empty_result():
    # two opposite legs: every vertex would be 2-valent, nothing is stable
    assert enumerate_types(0, 0, ((1, 0), (-1, 0)), 2) == []
