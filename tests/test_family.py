import json
import random
import re
from fractions import Fraction

import pytest

from tropmoduli import cli, family
from tropmoduli.documents import family_to_doc
from tropmoduli.errors import InvalidFamily, PointNotInComplex, SeedNotInGraph, Unstabilizable
from tropmoduli.family import (
    AffineFn,
    FaceCurveData,
    FamilyDatum,
    WallVerdictKind,
    fiber,
    image_strata,
    induced_alpha,
    locate,
    propagate_closure,
    validate_family,
    wall_verdict,
)
from tropmoduli.moduli import canonical_string, enumerate_types, resolve_4valent, wall_graph
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph, stabilize, stabilize_type

from helpers import (
    CROSS_DEGREE,
    const_positionN,
    cross_type,
    decorated_family,
    point_complex,
    point_family,
    ray_wall_family,
    resolution_type,
    two_ray_resolution_family,
)
from test_family_identities import _mutate


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_point_family_valid():
    report = validate_family(point_family())
    assert report.ok, str(report)


def test_ray_wall_family_valid():
    for partners in ((1,), (1, 2), (1, 2, 3)):
        report = validate_family(ray_wall_family(partners))
        assert report.ok, str(report)


def test_ray_wall_family_invalid_offset():
    report = validate_family(ray_wall_family((1,), edge_offset=-1))
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "1" in axioms            # negative length at the vertex of the ray
    assert "zero-locus" in axioms   # contracted edge does not vanish at the wall


def test_two_ray_family_valid():
    report = validate_family(two_ray_resolution_family())
    assert report.ok, str(report)


def test_validate_catches_position_mismatch():
    f = ray_wall_family((1,))
    f.face_data["O"].positions["v"] = const_positionN((1, 0), 0)
    report = validate_family(f)
    assert any(v.axiom == "3" for v in report.violations)


def test_validate_catches_bad_slope_under_contraction():
    f = two_ray_resolution_family()
    t = resolution_type(2)  # different pairing over one ray
    f.face_data["R1"] = FaceCurveData(
        type=t,
        lengths={"e": AffineFn((0,), Fraction(1))},
        positions={
            "va": const_positionN((0, 0), 1),
            "vb": const_positionN(t.slopes["e"], 1),
        },
    )
    report = validate_family(f)
    assert not report.ok


def test_preimage_classes_must_be_connected():
    """Merging the ends of a surviving edge leaves their preimage class with
    no contracted edge inside: a disconnected preimage."""
    from tropmoduli.family import Contraction
    f = two_ray_resolution_family()
    f.contractions[("O", "R0")] = Contraction(vertex_map={"va": "va", "vb": "va"},
                                              edge_map={"e": "e"})
    found = [(v.axiom, v.subject, v.message) for v in validate_family(f).violations]
    assert ("contraction", "O->R0", "preimage of 'va' is not connected") in found
    assert validate_family(ray_wall_family((1, 2))).ok  # {va, vb} joined by contracted e


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def test_fiber_point_base():
    f = point_family()
    p = fiber(f, "P0", ())
    assert p.graph.legs == f.face_data["P0"].type.graph.legs
    assert p.positions["v"] == (Fraction(0), Fraction(0))


def test_fiber_on_ray_and_at_wall():
    f = ray_wall_family((1,))
    p = fiber(f, "R0", (2,))
    assert p.curve.lengths["e"] == 2
    assert p.positions["vb"] == (-2, -2)
    # t = 0 resolves to the wall face and yields the 4-valent curve
    q = fiber(f, "R0", (0,))
    assert len(q.graph.vertex_ids()) == 1
    assert canonical_string(q.type) == canonical_string(cross_type())


def test_fiber_matches_direct_evaluation():
    f = ray_wall_family((1, 2, 3))
    rng = random.Random(2)
    for i in range(3):
        data = f.face_data[f"R{i}"]
        for _ in range(20):
            t = Fraction(rng.randint(1, 40), rng.randint(1, 7))
            p = fiber(f, f"R{i}", (t,))
            for e, _, _ in data.type.graph.edges:
                assert p.curve.lengths[e] == data.lengths[e]((t,))
            for u in data.type.graph.vertex_ids():
                assert p.positions[u] == data.positions[u]((t,))


def test_locate_errors():
    f = ray_wall_family((1,))
    with pytest.raises(PointNotInComplex):
        locate(f.base, "R0", (-1,))
    with pytest.raises(PointNotInComplex):
        locate(f.base, "R0", (1, 2))


def test_fiber_validates_as_curve():
    f = ray_wall_family((1, 2))
    for q in ((1,), (Fraction(5, 2),)):
        p = fiber(f, "R1", q)
        assert p.is_valid()
        stab = stabilize(p)
        assert canonical_string(stab.type) == canonical_string(resolution_type(2))


# ---------------------------------------------------------------------------
# induced map
# ---------------------------------------------------------------------------

def test_alpha_point_base_constant():
    alpha = induced_alpha(point_family())
    lift = alpha.lifts["P0"]
    assert lift.rank() == 0
    assert lift.linear == ((), ())  # two position coordinates, zero columns


def test_alpha_ray_lift():
    alpha = induced_alpha(ray_wall_family((1,)))
    lift = alpha.lifts["R0"]
    # coordinates: one length + two vertex position blocks
    assert len(lift.linear) == 1 + 2 * 2
    assert lift.rank() == 1
    assert alpha.lifts["O"].canonical == canonical_string(cross_type())
    assert lift.canonical == canonical_string(resolution_type(1))


def test_alpha_stabilizes_tail():
    # tripod with an unstable zero-slope tail over a point base
    g = WeightedGraph(
        (("v", 0), ("tail", 0)),
        (("e", "v", "tail"),),
        (("l0", "v"), ("l1", "v"), ("l2", "v")),
    )
    t = CombinatorialType(
        g, {"e": (0, 0), "l0": (1, 0), "l1": (0, 1), "l2": (-1, -1)}, 2)
    base = point_complex()
    f = FamilyDatum(
        base=base, dim=2, extended_degree=((1, 0), (0, 1), (-1, -1)),
        face_data={"P0": FaceCurveData(
            type=t,
            lengths={"e": AffineFn((), Fraction(4))},
            positions={"v": const_positionN((0, 0), 0),
                       "tail": const_positionN((0, 0), 0)},
        )},
        contractions={},
    )
    assert validate_family(f).ok
    alpha = induced_alpha(f)
    lift = alpha.lifts["P0"]
    assert len(lift.type.graph.vertex_ids()) == 1
    assert lift.type.graph.edges == ()
    assert len(lift.linear) == 2  # tail pruned: position block only


def test_alpha_requires_valid_family():
    with pytest.raises(InvalidFamily):
        induced_alpha(ray_wall_family((1,), edge_offset=-1))


def test_a_type_without_a_stable_model_validates_but_does_not_lift(tmp_path, capsys):
    """One weight-0 vertex with two legs of slopes (1, 0) and (-1, 0) over a
    point: every axiom holds, so ``validate_family`` accepts the family, but
    the vertex carries legs and is 2-valent, so it has no stable model and
    ``induced_alpha`` raises Unstabilizable.  The CLI's ``validate-family``
    exits 0 on its document and ``alpha`` exits 2."""
    g = WeightedGraph((("v", 0),), (), (("l0", "v"), ("l1", "v")))
    t = CombinatorialType(g, {"l0": (1, 0), "l1": (-1, 0)}, 2)
    f = FamilyDatum(base=point_complex(), dim=2, extended_degree=((1, 0), (-1, 0)),
                    face_data={"P0": FaceCurveData(
                        type=t, lengths={}, positions={"v": const_positionN((0, 0), 0)})},
                    contractions={})
    message = "no stable model: vertices ['v'] cannot be removed"
    assert validate_family(f).ok
    with pytest.raises(Unstabilizable, match=f"^{re.escape(message)}$"):
        induced_alpha(f)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_doc(f)), encoding="utf-8")
    assert cli.main(["validate-family", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert cli.main(["alpha", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["payload"]) == (
        "error", {"error": "Unstabilizable", "message": message})


# ---------------------------------------------------------------------------
# wall verdicts
# ---------------------------------------------------------------------------

def test_wall_verdict_harmonic():
    v = wall_verdict(induced_alpha(two_ray_resolution_family(((1, 0), (-1, 0)))), "O")
    assert v.verdict == WallVerdictKind.HARMONIC
    assert v.certificate == (1, 1)


def test_wall_verdict_quasi_harmonic():
    v = wall_verdict(induced_alpha(two_ray_resolution_family(((1, 0), (-2, 0)))), "O")
    assert v.verdict == WallVerdictKind.QUASI_HARMONIC
    a1, a2 = v.certificate
    assert a1 > 0 and a2 > 0
    assert a1 * 1 + a2 * (-2) == 0  # substitute into the only nonzero coordinate


def test_wall_verdict_not_quasi_harmonic_inconclusive():
    v = wall_verdict(induced_alpha(two_ray_resolution_family(((1, 0), (0, 1)))), "O")
    assert v.verdict == WallVerdictKind.INCONCLUSIVE
    assert "quasi-harmonic" in v.detail


def test_wall_verdict_locally_combinatorially_surjective():
    v = wall_verdict(induced_alpha(ray_wall_family((1, 2, 3))), "O")
    assert v.verdict == WallVerdictKind.LOCALLY_COMBINATORIALLY_SURJECTIVE
    assert len(v.witnesses) == 3


def test_wall_verdict_uncovered_resolutions():
    v = wall_verdict(induced_alpha(ray_wall_family((1,))), "O")
    assert v.verdict == WallVerdictKind.INCONCLUSIVE
    assert len(v.uncovered) == 2
    assert set(v.witnesses.values()) == {"R0"}


def test_wall_verdict_outside_the_dichotomy_is_inconclusive():
    """The ray-wall family with weight 1 on the wall's vertex and on the
    resolution's va: the cofacet's type differs from the face's, and the
    face's type is not weightless almost 3-valent."""
    f = ray_wall_family((1,))
    for fid, heavy in (("O", "v"), ("R0", "va")):
        t = f.face_data[fid].type
        vertices = tuple((x, int(x == heavy)) for x, _ in t.graph.vertices)
        f.face_data[fid].type = CombinatorialType(
            WeightedGraph(vertices, t.graph.edges, t.graph.legs), t.slopes, t.dim)
    v = wall_verdict(induced_alpha(f), "O")
    assert (v.verdict, v.detail) == (
        WallVerdictKind.INCONCLUSIVE,
        "cofacet types differ but the face type is other; the dichotomy does not apply")


def test_validated_contractions_between_one_stabilized_type_are_isomorphisms():
    """``wall_verdict`` reads each cofacet lift through
    ``_stabilized_contraction`` without checking the maps.  On seeded
    families whose fibers subdivide a stable type and carry tails (see
    ``helpers.decorated_family``), and on their single mutations that
    validation accepts, every inclusion between faces of one stabilized type
    gives maps that are bijections onto the kept vertices and the chains;
    each super chain's surviving edges map onto exactly its sub chain, and
    the lift read through the maps restricts to the face lift.  Every face
    type stabilizes to the type it decorates."""
    rng = random.Random("decorated")
    types = [resolution_type(1), resolution_type(2), cross_type(),
             point_family().face_data["P0"].type,
             *enumerate_types(0, 0, CROSS_DEGREE, 2),
             *enumerate_types(1, 0, ((1, 2), (2, 1), (-3, -3)), 3)]
    counts = {"families": 0, "mutants": 0, "inclusions": 0, "in a chain": 0, "pruned": 0}
    for i in range(4 * len(types)):
        t = types[i % len(types)]
        f = decorated_family(t, rng, axes=1 + i % 3, quadrant=i % 4 == 3)
        assert validate_family(f).ok, i
        for data in f.face_data.values():
            stab = stabilize_type(data.type)
            assert canonical_string(CombinatorialType(stab.graph, stab.slopes, t.dim)) == \
                canonical_string(t)
        mutants = [m for m in (_mutate(f, rng, kind) for kind in
                               ("length",) * 3 + ("position", "inclusion", "slope"))
                   if validate_family(m).ok]
        counts["families"] += 1
        counts["mutants"] += len(mutants)
        for g in [f, *mutants]:
            alpha = induced_alpha(g)
            for (sub, sup), inc in sorted(g.base.inclusions.items()):
                low, high = alpha.lifts[sub], alpha.lifts[sup]
                if low.canonical != high.canonical:
                    continue
                phi = g.contractions[(sub, sup)]
                vmap, emap = family._stabilized_contraction(g, sub, sup, low.stab, high.stab)
                assert sorted(vmap) == sorted(low.stab.kept_vertices)
                assert sorted(vmap.values()) == sorted(high.stab.kept_vertices)
                assert sorted(emap) == sorted(low.stab.edge_chains)
                assert sorted(emap.values()) == sorted(high.stab.edge_chains)
                for e, chain in emap.items():
                    images = [phi.edge_map[x] for x in high.stab.edge_chains[chain]
                              if x in phi.edge_map]
                    assert sorted(images) == sorted(low.stab.edge_chains[e])
                rows, num, den = family._lift_rows(
                    g, sup, [high.stab.edge_chains[emap[e]] for e in low.canon_edge_map],
                    [vmap[u] for u in low.canon_vertex_map])
                assert inc.pull_back(rows, num, den) == (low.linear, low.num, low.den)
                chains = high.stab.edge_chains.values()
                kept = {x for chain in chains for x in chain}
                counts["inclusions"] += 1
                counts["in a chain"] += any(len(chain) > 1 and not set(chain) <= set(phi.edge_map)
                                            for chain in chains)
                counts["pruned"] += any(e not in kept and e not in phi.edge_map
                                        for e, _, _ in g.face_data[sup].type.graph.edges)
            for w in g.base.faces:
                if g.base.cofacet_inclusions(w):
                    wall_verdict(alpha, w)
    assert counts["families"] == 4 * len(types) and counts["mutants"] >= 20, counts
    assert counts["in a chain"] >= 50 and counts["pruned"] >= 50, counts


# ---------------------------------------------------------------------------
# image strata
# ---------------------------------------------------------------------------

def test_image_strata_point_base():
    strata = image_strata(induced_alpha(point_family()))
    assert len(strata) == 1
    s = strata[0]
    assert s.image_dim == 0
    assert s.stratum_dim == 2
    assert not s.full_dimensional


def test_image_strata_ray_family():
    strata = image_strata(induced_alpha(ray_wall_family((1, 2))))
    by_canon = {s.canonical: s for s in strata}
    wall = by_canon[canonical_string(cross_type())]
    assert wall.image_dim == 0
    res = by_canon[canonical_string(resolution_type(1))]
    assert res.image_dim == 1
    assert not res.full_dimensional  # stratum dim is 3 (length + position)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_single_wall():
    nodes = resolve_4valent(cross_type(), "v")
    wg = wall_graph(nodes)
    nid = wg.nodes[0][0]
    res = propagate_closure(wg, {nid})
    assert res.closure == tuple(sorted(wg.node_ids()))
    assert len(res.trace) == 1
    assert propagate_closure(wg, set()).closure == ()


def test_propagate_monotone_idempotent():
    nodes = resolve_4valent(cross_type(), "v")
    wg = wall_graph(nodes)
    ids = wg.node_ids()
    small = propagate_closure(wg, {ids[0]}).closure
    big = propagate_closure(wg, {ids[0], ids[1]}).closure
    assert set(small) <= set(big)
    again = propagate_closure(wg, set(small)).closure
    assert again == small
    # order independence
    assert propagate_closure(wg, [ids[1], ids[0]]).closure == big


def test_propagate_unknown_seed():
    wg = wall_graph(resolve_4valent(cross_type(), "v"))
    with pytest.raises(SeedNotInGraph):
        propagate_closure(wg, {"n99"})


def test_offsets_are_integers_once_from_the_document_on(monkeypatch):
    """Reading a family document, validating its base and the family and
    lifting it pass no non-integer row to ``_over_common`` and build few
    Fractions: offsets are read into integers once, in the document walk.
    Before they were stored that way, these two documents cost 165
    non-integer rows and 405 Fractions."""
    from tropmoduli import exact_linalg, family, polyhedral
    from tropmoduli.documents import family_from_doc, family_to_doc
    from tropmoduli.polyhedral import validate_complex

    from helpers import path_family, quadrant_family

    path = path_family([(1, 0), (1, 1), (0, 1)], [Fraction(3, 2), Fraction(2, 3), 2])
    docs = [family_to_doc(path), family_to_doc(quadrant_family())]
    counts = {"rows": 0, "fractions": 0}
    over_common, new = exact_linalg._over_common, Fraction.__new__

    def counted_over_common(row, *den):
        counts["rows"] += not all(type(x) is int for x in row)
        return over_common(row, *den)

    def counted_new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return new(cls, *args, **kwargs)
    for module in (exact_linalg, family, polyhedral):
        monkeypatch.setattr(module, "_over_common", counted_over_common)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for doc in docs:
        f = family_from_doc(doc)
        assert validate_complex(f.base).ok and validate_family(f).ok
        induced_alpha(f)
    monkeypatch.undo()
    assert counts["rows"] == 0
    assert counts["fractions"] <= 40, counts  # 19: chart offsets and vertices
