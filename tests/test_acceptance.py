"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
All comparisons are exact; the only tolerances are the stated runtime
budgets.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from tropmoduli import documents as docs
from tropmoduli.cli import main
from tropmoduli.family import (
    WallVerdictKind,
    fiber,
    induced_alpha,
    propagate_closure,
    validate_family,
    wall_verdict,
)
from tropmoduli.moduli import (
    WallClassification,
    canonical_string,
    classify,
    contract_any_slope,
    dim_stratum,
    enumerate_types,
    resolve_4valent,
    wall_graph,
)
from tropmoduli.polyhedral import (
    Harmonicity,
    PIAMap,
    build_skeleton,
    harmonicity_at,
    star,
    validate_complex,
)
from tropmoduli.tropcurve import check_balanced, is_stable

from helpers import (
    ENUM_INSTANCES,
    fan_complex,
    point_family,
    random_pair_data,
    ray_wall_family,
    triangle_pair_data,
    two_ray_resolution_family,
)
from oracles import affine_hull_dim, fm_positive_combination_exists
from reference_stratum import ambient_system, assert_stratum_systems_agree, sample_stratum


# ---------------------------------------------------------------------------
# criterion 1: skeleton soundness
# ---------------------------------------------------------------------------

def test_criterion_1_skeleton_soundness():
    start = time.monotonic()
    rng = random.Random(20240)
    built = 0
    while built < 100:
        d = random_pair_data(rng, max_components=5, max_strata=12)
        if d is None:
            continue
        sk = build_skeleton(d)
        report = validate_complex(sk)
        assert report.ok, f"violations for {d}:\n{report}"
        built += 1
    sk = build_skeleton(triangle_pair_data())
    assert len(sk.faces) == 7
    assert validate_complex(sk).ok
    top = sk.face("Sall")
    by_dim = {}
    for pf in top.chart.proper_faces():
        by_dim[pf.dim] = by_dim.get(pf.dim, 0) + 1
    assert by_dim == {0: 3, 1: 3}  # 2-simplex face lattice below the top cell
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (budget 5s)"
    print(f"\nACCEPTANCE 1 PASS: 100 random skeletons valid, triangle has 7 faces "
          f"({elapsed:.2f}s < 5s)")


# ---------------------------------------------------------------------------
# criterion 2: harmonicity trichotomy vs Fourier-Motzkin
# ---------------------------------------------------------------------------

def test_criterion_2_harmonicity_grid():
    start = time.monotonic()
    values = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    fans = {k: fan_complex(k) for k in (1, 2, 3, 4)}
    checked = 0
    for k in (1, 2, 3, 4):
        c = fans[k]
        zero_map = (tuple(() for _ in range(2)), (Fraction(0), Fraction(0)))
        for combo in combinations_with_replacement(values, k):
            per_face = {"O": zero_map}
            for i, d in enumerate(combo):
                per_face[f"R{i}"] = (((d[0],), (d[1],)), (Fraction(0), Fraction(0)))
            m = PIAMap(source=c, target_dim=2, per_face=per_face)
            res = harmonicity_at(m, "O")
            total = (sum(d[0] for d in combo), sum(d[1] for d in combo))
            assert (res.verdict == Harmonicity.HARMONIC) == (total == (0, 0)), combo
            quasi_expected = fm_positive_combination_exists(list(combo), [], 2)
            quasi_got = res.verdict in (Harmonicity.HARMONIC,
                                        Harmonicity.QUASI_HARMONIC_ONLY)
            assert quasi_got == quasi_expected, combo
            if res.verdict == Harmonicity.QUASI_HARMONIC_ONLY:
                cert = res.certificate
                assert all(a > 0 for a in cert)
                comb = (sum(a * d[0] for a, d in zip(cert, combo)),
                        sum(a * d[1] for a, d in zip(cert, combo)))
                assert comb == (0, 0), combo
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s (budget 60s)"
    print(f"\nACCEPTANCE 2 PASS: {checked} star configurations agree with the "
          f"Fourier-Motzkin oracle ({elapsed:.2f}s < 60s)")


# ---------------------------------------------------------------------------
# criteria 3/4/7 share the enumerated universe
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def enumerated_universe():
    start = time.monotonic()
    out = []
    for label, g, n, degree, max_edges, dim in ENUM_INSTANCES:
        types = enumerate_types(g, n, degree, max_edges, dim=dim)
        out.append((label, types))
    return {"elapsed": time.monotonic() - start, "instances": out}


def test_criterion_3_wall_resolution_structure(enumerated_universe):
    start = time.monotonic()
    walls_checked = 0
    for label, types in enumerated_universe["instances"]:
        assert types, f"instance {label} enumerated nothing"
        for t in types:
            cls = classify(t)
            if cls.classification != WallClassification.WEIGHTLESS_ALMOST_3VALENT:
                continue
            walls_checked += 1
            res = resolve_4valent(t, cls.four_valent_vertex)
            assert 1 <= len(res) <= 3, label
            wall_dim = dim_stratum(t)
            for r in res:
                assert check_balanced(r).ok
                assert is_stable(r.graph)
                assert classify(r).classification == WallClassification.WEIGHTLESS_3VALENT
                new_edges = set(e for e, _, _ in r.graph.edges) - \
                    set(e for e, _, _ in t.graph.edges)
                assert len(new_edges) == 1
                back = contract_any_slope(r, new_edges)
                assert canonical_string(back) == canonical_string(t)
                rdim = dim_stratum(r)
                if wall_dim is not None and rdim is not None:
                    assert rdim == wall_dim + 1, (label, canonical_string(t))
    assert walls_checked > 0
    elapsed = enumerated_universe["elapsed"] + (time.monotonic() - start)
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s (budget 60s)"
    print(f"\nACCEPTANCE 3 PASS: {walls_checked} walls resolved, round trips and "
          f"codimension checks exact ({elapsed:.2f}s < 60s)")


def test_criterion_4_stratum_dimension_oracle(enumerated_universe):
    rng = random.Random(20244)
    types_checked = 0
    for label, types in enumerated_universe["instances"]:
        for t in types:
            if len(t.graph.edges) > 6:
                continue
            d = dim_stratum(t)
            assert d is not None  # enumeration keeps nonempty strata only
            samples = sample_stratum(t, 50, rng)
            assert len(samples) == 50
            edge_order, _, _, equalities = ambient_system(t)
            nlen = len(edge_order)
            for s in samples:
                for row in equalities:
                    assert sum(Fraction(a) * x for a, x in zip(row, s)) == 0
                assert all(x > 0 for x in s[:nlen])
            assert affine_hull_dim(samples) == d, (label, canonical_string(t))
            types_checked += 1
    print(f"\nACCEPTANCE 4 PASS: dimension oracle agrees on {types_checked} strata, "
          f"zero mismatches")


def test_stratum_cycle_space_agrees_on_universe(enumerated_universe):
    for label, types in enumerated_universe["instances"]:
        for t in types:
            assert_stratum_systems_agree(t)


# ---------------------------------------------------------------------------
# criterion 5: family validator and fibers
# ---------------------------------------------------------------------------

def test_criterion_5_family_validator():
    assert validate_family(point_family()).ok
    ray = ray_wall_family((1,))
    assert validate_family(ray).ok
    three = ray_wall_family((1, 2, 3))
    assert validate_family(three).ok
    bad = ray_wall_family((1,), edge_offset=-1)
    report = validate_family(bad)
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "1" in axioms and "zero-locus" in axioms

    rng = random.Random(20245)
    fibers_checked = 0
    for fam in (point_family(), ray, three, two_ray_resolution_family()):
        for fid in sorted(fam.base.faces):
            data = fam.face_data[fid]
            rank = fam.base.face(fid).rank
            for _ in range(20):
                if rank == 0:
                    q = ()
                else:
                    q = tuple(Fraction(rng.randint(1, 60), rng.randint(1, 9))
                              for _ in range(rank))
                p = fiber(fam, fid, q)
                for e, _, _ in data.type.graph.edges:
                    assert p.curve.lengths[e] == data.lengths[e](q)
                for u in data.type.graph.vertex_ids():
                    assert p.positions[u] == data.positions[u](q)
                assert p.is_valid()
                fibers_checked += 1
    print(f"\nACCEPTANCE 5 PASS: hand-built families validate/invalidate as specified, "
          f"{fibers_checked} fibers match direct evaluation")


# ---------------------------------------------------------------------------
# criterion 6: Theorem-style wall verdicts with re-verified certificates
# ---------------------------------------------------------------------------

def test_criterion_6_wall_verdicts():
    two = two_ray_resolution_family(((1, 0), (-1, 0)))
    v = wall_verdict(induced_alpha(two), "O")
    assert v.verdict == WallVerdictKind.HARMONIC
    assert v.certificate == (1, 1)
    # re-verify by substitution: the star derivatives of the lift sum to zero
    alpha = induced_alpha(two)
    sd = star(two.base, "O")
    total = None
    for (cofacet, e), coef in zip(sd.directions, v.certificate):
        lift = alpha.lifts[cofacet]
        d = tuple(sum(row[j] * e[j] for j in range(len(e))) for row in lift.linear)
        total = d if total is None else tuple(a + coef * b for a, b in zip(total, d))
    assert all(x == 0 for x in total)

    three = ray_wall_family((1, 2, 3))
    v3 = wall_verdict(induced_alpha(three), "O")
    assert v3.verdict == WallVerdictKind.LOCALLY_COMBINATORIALLY_SURJECTIVE
    # witnesses re-verify: each resolution is attained by its witnessing ray
    alpha3 = induced_alpha(three)
    assert len(v3.witnesses) == 3
    for canon, face in v3.witnesses.items():
        assert alpha3.lifts[face].canonical == canon

    one = ray_wall_family((1,))
    v1 = wall_verdict(induced_alpha(one), "O")
    assert v1.verdict == WallVerdictKind.INCONCLUSIVE
    assert len(v1.uncovered) == 2
    attained = {alpha.lifts[f].canonical for alpha, f in ()} or \
        {induced_alpha(one).lifts["R0"].canonical}
    assert not (set(v1.uncovered) & attained)
    print("\nACCEPTANCE 6 PASS: two-ray harmonic, three-ray locally combinatorially "
          "surjective, one-ray inconclusive with 2 uncovered; certificates re-verified")


# ---------------------------------------------------------------------------
# criterion 7: closure propagation on wall graphs
# ---------------------------------------------------------------------------

def test_criterion_7_propagation(enumerated_universe):
    rng = random.Random(20247)
    graphs = 0
    for label, types in enumerated_universe["instances"]:
        nodes = [t for t in types
                 if classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]
        if not nodes:
            continue
        wg = wall_graph(nodes)
        if not wg.walls:
            continue
        graphs += 1
        for wid, _, incident in wg.walls:
            for seed in incident:
                closure = set(propagate_closure(wg, {seed}).closure)
                assert set(incident) <= closure, (label, wid)
        ids = wg.node_ids()
        for _ in range(100):
            seeds = {nid for nid in ids if rng.random() < 0.4}
            res = propagate_closure(wg, seeds)
            closure = set(res.closure)
            assert seeds <= closure
            assert set(propagate_closure(wg, closure).closure) == closure  # idempotent
            bigger = seeds | {nid for nid in ids if rng.random() < 0.3}
            assert closure <= set(propagate_closure(wg, bigger).closure)  # monotone
            shuffled = sorted(seeds, reverse=True)
            assert set(propagate_closure(wg, shuffled).closure) == closure
    assert graphs > 0
    print(f"\nACCEPTANCE 7 PASS: propagation saturates every wall from any single "
          f"resolution on {graphs} wall graphs; monotone and idempotent on random seeds")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical CLI output
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path, capsys):
    argv = ["enumerate", "--genus", "0", "--degree",
            "[[1,0],[0,1],[-1,0],[0,-1]]", "--max-edges", "2", "--seed", "0"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2

    types_payload = json.loads(out1)["payload"]
    # wall-graph nodes are the weightless 3-valent types from the enumeration
    kept = []
    for td in types_payload["types"]:
        t, _, _ = docs.type_from_doc(td["type"])
        if classify(t).classification == WallClassification.WEIGHTLESS_3VALENT:
            kept.append(td)
    tpath = tmp_path / "types.json"
    tpath.write_text(json.dumps({"schema": types_payload["schema"], "types": kept}))
    argv2 = ["wallgraph", str(tpath), "--seed", "0"]
    assert main(argv2) == 0
    wg1 = capsys.readouterr().out
    assert main(argv2) == 0
    wg2 = capsys.readouterr().out
    assert wg1 == wg2
    print("\nACCEPTANCE 8 PASS: enumerate and wallgraph reports are byte-identical "
          "across runs")
