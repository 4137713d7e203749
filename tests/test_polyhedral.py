import itertools
import random
from fractions import Fraction
from functools import cached_property

import pytest

import reference_linalg
import reference_polyhedral as reference

from tropmoduli.errors import (
    DimMismatch,
    InconsistentStrata,
    NoCofacets,
    TropModuliError,
    UnknownFace,
)
from tropmoduli.exact_linalg import (
    _span_basis,
    integer_solve,
    lp_maximize,
    rank,
    smith_normal_form,
    vec,
)
from tropmoduli.polyhedral import (
    Face,
    FaceInclusion,
    Harmonicity,
    PIAMap,
    Polyhedron,
    PolyhedralComplex,
    SemistablePairData,
    Stratum,
    build_skeleton,
    harmonicity_at,
    star,
    validate_complex,
)

from helpers import (
    fan_complex,
    fan_map,
    point_complex,
    quadrant_complex,
    ray_pair_data,
    random_pair_data,
    segment_complex,
    segment_pair_data,
    template_pair_data,
    triangle_pair_data,
)


# ---------------------------------------------------------------------------
# polyhedra
# ---------------------------------------------------------------------------

def test_segment_vrep_and_faces():
    p = Polyhedron(1, [((1,), 0), ((-1,), -1)])
    verts, rays, lines = p.vrep()
    assert set(verts) == {(0,), (1,)}
    assert rays == () and lines == ()
    assert p.dim() == 1
    faces = p.proper_faces()
    assert sorted(f.dim for f in faces) == [0, 0]


def test_quadrant_vrep():
    p = Polyhedron(2, [((1, 0), 0), ((0, 1), 0)])
    verts, rays, lines = p.vrep()
    assert set(verts) == {(0, 0)}
    assert set(rays) == {(1, 0), (0, 1)}
    assert [f.dim for f in sorted(p.proper_faces(), key=lambda f: f.dim)] == [0, 1, 1]


def test_simplex_times_orthant():
    # z1, z2 >= 0, z1 + z2 <= 1, w >= 0
    p = Polyhedron(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -1), ((0, 0, 1), 0)])
    verts, rays, lines = p.vrep()
    assert set(verts) == {(0, 0, 0), (1, 0, 0), (0, 1, 0)}
    assert set(rays) == {(0, 0, 1)}
    assert p.dim() == 3
    assert p.has_interior()


def test_empty_and_degenerate():
    empty = Polyhedron(1, [((1,), 1), ((-1,), 0)])
    assert empty.is_empty()
    assert empty.vrep() == ((), (), ())
    thin = Polyhedron(2, [((1, 0), 0), ((-1, 0), 0)])
    assert not thin.is_empty()
    assert not thin.has_interior()


def test_a_constraint_of_the_wrong_length_is_refused():
    with pytest.raises(DimMismatch, match="^constraint normal has wrong length$"):
        Polyhedron(2, [((1, 0), 0)], [((1,), 0)])


def test_a_polyhedron_repr_gives_its_sizes():
    assert repr(Polyhedron(2, [((1, 0), 0)], [((0, 1), 0)])) == \
        "Polyhedron(dim=2, ineqs=1, eqs=1)"


def test_halfplane_lineality():
    p = Polyhedron(2, [((0, 1), 0)])
    verts, rays, lines = p.vrep()
    assert len(lines) == 1 and lines[0] in ((1, 0), (-1, 0))
    assert len(verts) == 1 and len(rays) == 1
    faces = p.proper_faces()
    assert len(faces) == 1 and faces[0].dim == 1


# ---------------------------------------------------------------------------
# complexes and validation
# ---------------------------------------------------------------------------

def test_point_complex_valid():
    assert validate_complex(point_complex()).ok


def test_segment_complex_valid():
    assert validate_complex(segment_complex()).ok


def test_nonsaturated_inclusion_flagged():
    # the whole line embeds in a halfplane boundary with linear part x2
    line = Polyhedron(1)
    half = Polyhedron(2, [((0, 1), 0)])
    for scale, expect_ok in ((1, True), (2, False)):
        c = PolyhedralComplex(
            [Face("L", 1, line), Face("H", 2, half)],
            [FaceInclusion("L", "H", ((scale,), (0,)), (Fraction(0), Fraction(0)))],
        )
        report = validate_complex(c)
        assert report.ok == expect_ok
        if not expect_ok:
            assert any(v.axiom == "5" for v in report.violations)


def test_missing_vertex_cover_flagged():
    seg = Polyhedron(1, [((1,), 0), ((-1,), -1)])
    c = PolyhedralComplex(
        [Face("V0", 0, Polyhedron(0)), Face("E", 1, seg)],
        [FaceInclusion("V0", "E", ((),), (Fraction(0),))],
    )
    report = validate_complex(c)
    assert not report.ok
    assert any(v.axiom == "3" for v in report.violations)


def test_disconnected_flagged():
    c = PolyhedralComplex(
        [Face("A", 0, Polyhedron(0)), Face("B", 0, Polyhedron(0))], []
    )
    report = validate_complex(c)
    assert any(v.axiom == "connectivity" for v in report.violations)


def test_quadrant_complex_valid():
    assert validate_complex(quadrant_complex()).ok


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------

def test_star_segment_vertex():
    c = segment_complex()
    sd = star(c, "V0")
    assert sd.directions == (("E", (1,)),)
    sd1 = star(c, "V1")
    assert sd1.directions == (("E", (-1,)),)


def test_star_fan_origin():
    c = fan_complex(3)
    sd = star(c, "O")
    assert len(sd.directions) == 3
    assert all(e == (1,) for _, e in sd.directions)
    # pushed through the embedding map, the directions are the ray slopes
    m = fan_map(c, [(1, 0), (0, 1), (-1, -1)])
    pushed = []
    for cofacet, e in sd.directions:
        lin, _ = m.per_face[cofacet]
        pushed.append(tuple(row[0] * e[0] for row in lin))
    assert pushed == [(1, 0), (0, 1), (-1, -1)]


def test_star_quadrant_edge():
    c = quadrant_complex()
    sd = star(c, "X")
    assert sd.directions == (("Q", (0, 1)),)
    sd_origin = star(c, "O")
    assert sorted(sd_origin.directions) == [("X", (1,)), ("Y", (1,))]


def test_star_unknown_face():
    with pytest.raises(UnknownFace):
        star(segment_complex(), "nope")


def test_star_refuses_a_face_without_interior():
    """A rank-1 face whose chart is one point, below a quadrant."""
    point = Polyhedron(1, [((1,), 0), ((-1,), 0)])
    quad = Polyhedron(2, [((1, 0), 0), ((0, 1), 0)])
    c = PolyhedralComplex([Face("X", 1, point), Face("Q", 2, quad)],
                          [FaceInclusion("X", "Q", ((1,), (0,)), (0, 0))])
    with pytest.raises(TropModuliError, match="^face 'X' has no interior point$"):
        star(c, "X")


def test_an_empty_chart_has_dimension_minus_one():
    assert Polyhedron(1, [((1,), 1), ((-1,), 0)]).dim() == -1


def test_a_map_has_no_face_it_does_not_store():
    m = fan_map(fan_complex(2), [(1, 0), (0, 1)])
    with pytest.raises(UnknownFace, match="^no map stored for face 'R2'$"):
        m.face_map("R2")


# ---------------------------------------------------------------------------
# piecewise integral affine maps and harmonicity
# ---------------------------------------------------------------------------

def test_lin_of_image():
    """The image span of a face map is ``_span_basis`` of its columns."""
    image = lambda m, w: _span_basis(tuple(zip(*m.face_map(w)[0])))
    c = segment_complex()
    # constant map on the segment
    const = PIAMap(c, 1, {
        "V0": (((),), (Fraction(0),)),
        "V1": (((),), (Fraction(0),)),
        "E": (((0,),), (Fraction(0),)),
    })
    assert len(image(const, "E")) == 0
    ident = PIAMap(c, 1, {
        "V0": (((),), (Fraction(0),)),
        "V1": (((),), (Fraction(1),)),
        "E": (((1,),), (Fraction(0),)),
    })
    assert len(image(ident, "E")) == 1
    q = quadrant_complex()
    m = PIAMap(q, 2, {
        "O": (((), ()), (Fraction(0), Fraction(0))),
        "X": (((1,), (0,)), (Fraction(0), Fraction(0))),
        "Y": (((1,), (0,)), (Fraction(0), Fraction(0))),
        "Q": (((1, 1), (0, 0)), (Fraction(0), Fraction(0))),
    })
    sub = image(m, "Q")
    assert sub == ((1, 0),)
    assert rank([*sub, (1, 0)]) == len(sub)


def test_harmonicity_trichotomy_examples():
    c3 = fan_complex(3)
    res = harmonicity_at(fan_map(c3, [(1, 0), (0, 1), (-1, -1)]), "O")
    assert res.verdict == Harmonicity.HARMONIC

    res = harmonicity_at(fan_map(c3, [(1, 0), (0, 1), (-1, -2)]), "O")
    assert res.verdict == Harmonicity.QUASI_HARMONIC_ONLY
    total = [0, 0]
    for coef, d in zip(res.certificate, [(1, 0), (0, 1), (-1, -2)]):
        assert coef > 0
        total[0] += coef * d[0]
        total[1] += coef * d[1]
    assert total == [0, 0]

    c2 = fan_complex(2)
    res = harmonicity_at(fan_map(c2, [(1, 0), (0, 1)]), "O")
    assert res.verdict == Harmonicity.NOT_QUASI_HARMONIC
    assert res.certificate is None


def test_harmonic_implies_quasi_feasible():
    # all-ones certificate reported for the harmonic case
    c = fan_complex(4)
    res = harmonicity_at(fan_map(c, [(1, 0), (0, 1), (-1, 0), (0, -1)]), "O")
    assert res.verdict == Harmonicity.HARMONIC
    assert res.certificate == (1, 1, 1, 1)


def test_harmonicity_no_cofacets():
    with pytest.raises(NoCofacets):
        harmonicity_at(PIAMap(point_complex(), 1, {"P0": (((),), (Fraction(0),))}), "P0")


# ---------------------------------------------------------------------------
# skeletons
# ---------------------------------------------------------------------------

def test_skeleton_segment():
    sk = build_skeleton(segment_pair_data())
    assert len(sk.faces) == 3
    assert validate_complex(sk).ok
    seg = sk.face("S01")
    assert seg.rank == 1
    verts, rays, lines = seg.chart.vrep()
    assert set(verts) == {(Fraction(0),), (Fraction(1),)}
    assert sk.maximal_faces == ("S01",)


def test_skeleton_ray():
    sk = build_skeleton(ray_pair_data())
    assert len(sk.faces) == 2
    assert validate_complex(sk).ok
    ray = sk.face("S")
    verts, rays, _ = ray.chart.vrep()
    assert set(verts) == {(Fraction(0),)} and set(rays) == {(1,)}


def test_skeleton_triangle():
    sk = build_skeleton(triangle_pair_data())
    assert len(sk.faces) == 7
    report = validate_complex(sk)
    assert report.ok, str(report)
    top = sk.face("Sall")
    assert top.rank == 2
    assert len(top.chart.proper_faces()) == 6  # 3 edges + 3 vertices
    assert sorted(sk.subface_ids("Sall")) == ["S01", "S02", "S12", "T0", "T1", "T2"]
    # the three edge faces have lattice length 1 charts
    for sid in ("S01", "S02", "S12"):
        verts, _, _ = sk.face(sid).chart.vrep()
        assert set(verts) == {(Fraction(0),), (Fraction(1),)}


def test_skeleton_inconsistent_lengths():
    d = SemistablePairData(
        vertical_components=("D0", "D1", "D2"),
        horizontal_components=(),
        strata=(
            Stratum("Sall", ("D0", "D1", "D2"), (), Fraction(1)),
            Stratum("S01", ("D0", "D1"), (), Fraction(2)),
        ),
        order=(("Sall", "S01"),),
    )
    with pytest.raises(InconsistentStrata):
        build_skeleton(d)


@pytest.mark.parametrize("vertical, horizontal, stratum, message", [
    (("D0", "D0"), (), Stratum("S", ("D0",), (), Fraction(1)), "component ids are not distinct"),
    (("D0",), (), Stratum("S", (), (), Fraction(1)), "stratum 'S' has empty vertical support"),
    (("D0",), ("H0",), Stratum("S", ("D0",), ("H1",), Fraction(1)),
     "stratum 'S' references unknown horizontal component"),
], ids=["repeated-component", "no-vertical", "unknown-horizontal"])
def test_skeleton_refuses_inconsistent_components(vertical, horizontal, stratum, message):
    d = SemistablePairData(vertical, horizontal, (stratum,), ())
    with pytest.raises(InconsistentStrata, match=f"^{message}$"):
        build_skeleton(d)


def test_skeleton_order_must_shrink_support():
    d = SemistablePairData(
        vertical_components=("D0", "D1"),
        horizontal_components=(),
        strata=(
            Stratum("A", ("D0",), (), Fraction(1)),
            Stratum("B", ("D0", "D1"), (), Fraction(1)),
        ),
        order=(("A", "B"),),
    )
    with pytest.raises(InconsistentStrata):
        build_skeleton(d)


def test_skeleton_vertex_lengths_free():
    # a = 0 strata may carry any length; gluing ignores it
    d = SemistablePairData(
        vertical_components=("D0", "D1"),
        horizontal_components=(),
        strata=(
            Stratum("S01", ("D0", "D1"), (), Fraction(3)),
            Stratum("T0", ("D0",), (), Fraction(99)),
            Stratum("T1", ("D1",), (), Fraction(1, 7)),
        ),
        order=(("S01", "T0"), ("S01", "T1")),
    )
    sk = build_skeleton(d)
    assert validate_complex(sk).ok


def test_skeleton_random_pairs_validate():
    rng = random.Random(11)
    built = 0
    while built < 12:
        d = random_pair_data(rng)
        if d is None:
            continue
        sk = build_skeleton(d)
        report = validate_complex(sk)
        assert report.ok, f"{d}\n{report}"
        built += 1


def test_star_counts_on_skeleton():
    sk = build_skeleton(triangle_pair_data())
    # each vertex face sits below two edges
    sd = star(sk, "T0")
    assert len(sd.directions) == 2
    for _, e in sd.directions:
        assert e == (1,)
    # each edge face has the triangle as unique cofacet
    sd = star(sk, "S01")
    assert len(sd.directions) == 1


# ---------------------------------------------------------------------------
# differential: integer incidences against the subset-scan reference
# ---------------------------------------------------------------------------

def _random_polyhedron(rng):
    """D <= 3, up to 5 inequalities, up to 1 equality; zero normals,
    duplicate and opposite rows make empty, lower-dimensional, unbounded
    and lineality cases common."""
    D = rng.randint(0, 3)

    def row():
        normal = (0,) * D if rng.random() < 0.08 else tuple(rng.randint(-2, 2) for _ in range(D))
        return normal, Fraction(rng.randint(-3, 2), rng.choice((1, 1, 2, 3)))

    ineqs = [row() for _ in range(rng.randint(0, 5))]
    if ineqs and rng.random() < 0.15:
        ineqs.append(rng.choice(ineqs))
    if ineqs and rng.random() < 0.15:
        n, o = rng.choice(ineqs)
        ineqs.append((tuple(-c for c in n), -o))
    rng.shuffle(ineqs)
    eqs = [row()] if rng.random() < 0.25 else []
    return Polyhedron(D, ineqs[:5], eqs)


def test_polyhedron_queries_match_subset_scan_reference():
    rng = random.Random(5)
    seen = dict.fromkeys(("zero normal", "duplicate", "empty", "lower-dimensional",
                          "unbounded", "lineality"), 0)
    for _ in range(1200):
        p = _random_polyhedron(rng)
        vrep = reference.vrep(p)
        assert p.vrep() == vrep, p
        assert [(f.vert_ids, f.ray_ids, f.dim) for f in p.proper_faces()] == \
            reference.proper_faces(p), p
        assert p.is_empty() == reference.is_empty(p), p
        assert p.has_interior() == reference.has_interior(p), p
        seen["zero normal"] += any(not any(n) for n, _ in p.ineqs + p.eqs)
        seen["duplicate"] += len(set(p.ineqs)) < len(p.ineqs)
        seen["empty"] += p.is_empty()
        seen["lower-dimensional"] += not p.is_empty() and not p.has_interior()
        seen["unbounded"] += bool(vrep[1])
        seen["lineality"] += bool(vrep[2])
    assert all(count >= 20 for count in seen.values()), seen


def _cross_polytope(d):
    """{x : ±x_1 ± ... ± x_d <= 1}: 2^d rows, 2d vertices."""
    return Polyhedron(d, [(tuple(-s for s in signs), -1)
                          for signs in itertools.product((1, -1), repeat=d)])


def _cube_with_redundant_rows(d, extra):
    """[0, 1]^d and ``extra`` redundant rows: sums of coordinate pairs >= 0
    (tight along a face), >= -1 (never tight) and doubled copies of x_i >= 0."""
    rows = [(tuple(int(j == i) * s for j in range(d)), -int(s < 0))
            for i in range(d) for s in (1, -1)]
    pairs = list(itertools.combinations(range(d), 2))
    for k in range(extra):
        i, j = pairs[k % len(pairs)]
        normal = tuple(int(c in (i, j)) for c in range(d))
        rows.append([(normal, 0), (normal, -1), (tuple(2 * int(c == i) for c in range(d)), 0)][k % 3])
    return Polyhedron(d, rows)


def test_polyhedron_queries_match_subset_scan_reference_on_larger_shapes():
    """The single scan of the cone over P agrees with the subset-scan
    reference on cross-polytopes, cubes with redundant rows, charts with
    lines, inconsistent equalities and rank-0 charts; the face lattice is
    compared where the reference's scan of every row subset stays small.
    The 4-dim cross-polytope, too slow for the reference, has the vertices
    ±e_i and 8, 24, 32 and 16 faces of dimension 0, 1, 2 and 3."""
    shapes = [
        _cross_polytope(3),
        _cube_with_redundant_rows(3, 4), _cube_with_redundant_rows(4, 3),
        # lines: a square times R, and a slab along (1, -1, 0) over a half-space
        Polyhedron(3, [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1)]),
        Polyhedron(3, [((1, 1, 0), 0), ((-1, -1, 0), -1), ((0, 0, 1), 0)]),
        Polyhedron(2, [((1, 1), 0)], [((1, -1), Fraction(1, 2))]),
        # inconsistent equalities, and 0 = 1
        Polyhedron(2, [((1, 0), 0)], [((1, 1), 1), ((2, 2), 3)]),
        Polyhedron(3, [((0, 0, 1), 0)], [((0, 0, 0), 1)]),
        # rank 0: the point, 0 >= -1, 0 >= 1, 0 = 0 and 0 = 2
        Polyhedron(0), Polyhedron(0, [((), -1)]), Polyhedron(0, [((), 1)]),
        Polyhedron(0, [], [((), 0)]), Polyhedron(0, [((), -1)], [((), 2)]),
    ]
    for p in shapes:
        assert p.vrep() == reference.vrep(p), p
        assert p.is_empty() == reference.is_empty(p), p
        assert p.has_interior() == reference.has_interior(p), p
        if len(p.ineqs) <= 10:
            assert [(f.vert_ids, f.ray_ids, f.dim) for f in p.proper_faces()] == \
                reference.proper_faces(p), p
    assert [p.is_empty() for p in shapes[6:]] == [True, True, False, False, True, False, True]
    cross = _cross_polytope(4)
    units = [tuple(s * int(j == i) for j in range(4)) for i in range(4) for s in (1, -1)]
    assert cross.vrep() == (tuple(sorted(units)), (), ())
    faces = cross.proper_faces()
    assert [sum(f.dim == k for f in faces) for k in range(4)] == [8, 24, 32, 16]


def test_kept_face_dims_are_the_ranks_of_their_masks_and_serve_star(monkeypatch):
    """Every dimension ``proper_faces`` keeps in ``_dims`` (its faces' tight
    masks, each ray's mask and the mask of all rows) is D minus the rank of
    the equalities and the mask's rows; after ``validate_complex`` on a
    skeleton with rays, ``star`` ranks no mask."""
    rng = random.Random(11)
    for _ in range(600):
        p = _random_polyhedron(rng)
        p.proper_faces()
        for mask, dim in p._dims.items():
            rows = [n for j, (n, _) in enumerate(p.ineqs) if mask >> j & 1]
            assert dim == p.ambient_dim - rank([n for n, _ in p.eqs] + rows), (p, mask)
    import tropmoduli.polyhedral as polyhedral

    for pair in (ray_pair_data(), template_pair_data(random.Random(3), *COMPLEX_TEMPLATES[-1])):
        sk = build_skeleton(pair)
        assert validate_complex(sk).ok
        assert any(f.chart.vrep()[1] for f in sk.faces.values())
        calls = []
        monkeypatch.setattr(polyhedral, "rank", lambda rows: calls.append(rows) or rank(rows))
        assert sum(len(star(sk, w).directions) for w in sk.faces) > 0
        monkeypatch.undo()
        assert calls == []


def test_polyhedron_queries_solve_no_lp(monkeypatch):
    import tropmoduli.exact_linalg
    calls = []
    monkeypatch.setattr(tropmoduli.exact_linalg, "lp_maximize",
                        lambda *args: calls.append(args) or lp_maximize(*args))
    sk = build_skeleton(triangle_pair_data())
    assert validate_complex(sk).ok
    assert sum(len(star(sk, w).directions) for w in sk.faces) > 0
    p = Polyhedron(2, [((1, 0), 0), ((-1, 0), -1)], [((1, 1), Fraction(1, 2))])
    assert (p.is_empty(), p.has_interior(), p.dim()) == (False, False, 1)
    assert p.feasible_point() is not None and p.interior_point() is None
    assert calls == []


def test_polyhedron_points_match_the_lp_reference():
    """``feasible_point`` is the first vertex and ``interior_point`` the
    centroid of the vertices plus the sum of the rays; both exist exactly
    when the reference LP finds a point, and lie in the polyhedron (the
    interior one strictly)."""
    rng = random.Random(5)
    for _ in range(1200):
        p = _random_polyhedron(rng)
        point, inner = p.feasible_point(), p.interior_point()
        assert (point is None) == (reference.feasible_point(p) is None), p
        assert (inner is None) == (reference.interior_point(p) is None), p
        assert point is None or p.contains(point), p
        assert inner is None or p.contains(inner, strict=True), p


def _contains_strictly(p, x):
    """The ``Fraction`` reference of ``contains(x, strict=True)``."""
    return reference._contains((), p.eqs, x) and \
        all(reference_linalg.vec_dot(vec(n), x) > o for n, o in p.ineqs)


def test_integer_containment_matches_the_fraction_reference():
    """``contains`` on integer rows agrees with the ``Fraction`` reference,
    strict and not, at every vertex, at each vertex moved by a ray and by
    half a ray, and at seeded rational points of the 1,200 random
    polyhedra."""
    rng, points = random.Random(5), random.Random(6)
    outcomes = set()
    for _ in range(1200):
        p = _random_polyhedron(rng)
        verts, rays, _ = p.vrep()
        xs = list(verts) + [tuple(x + t * r for x, r in zip(v, ray))
                            for v in verts for ray in rays for t in (1, Fraction(1, 2))]
        xs += [tuple(points.randint(-3, 3) if points.random() < 0.3 else
                     Fraction(points.randint(-6, 6), points.randint(1, 3))
                     for _ in range(p.ambient_dim)) for _ in range(4)]
        for x in xs:
            got = (p.contains(x), p.contains(x, strict=True))
            assert got == (reference._contains(p.ineqs, p.eqs, vec(x)),
                           _contains_strictly(p, vec(x))), (p, x)
            outcomes.add(got)
        with pytest.raises(DimMismatch):
            p.contains((0,) * (p.ambient_dim + 1))
    assert outcomes == {(False, False), (True, False), (True, True)}
    assert integer_solve(((2, 0), (0, 1)), (4, 3)) == (2, 3)
    assert integer_solve(((2, 0), (0, 1)), (4, Fraction(3, 2))) is None
    assert integer_solve(((1,),), (Fraction(1, 2),)) is None


COMPLEX_TEMPLATES = [
    (5, 1, (((0, 1, 2), (0,)), ((2, 3), ()), ((3, 4), (0,)))),
    (6, 2, (((0, 1, 2), (0,)), ((2, 3, 4), (1,)), ((4, 5), (0,)))),
    (6, 2, (((0, 1, 2, 3), (0,)), ((3, 4, 5), (1,)))),
    (3, 0, (((0, 1, 2), ()),)),
    (2, 2, (((0,), (0, 1)), ((0, 1), ()))),
]


def _mutations(c, rng):
    """Copies of ``c`` with one inclusion dropped, an offset perturbed, a
    linear part rewritten, a chart row removed and a chart row added."""
    faces = list(c.faces.values())
    incs = list(c.inclusions.values())
    i = rng.randrange(len(incs))
    inc = incs[i]
    yield faces, incs[:i] + incs[i + 1:]
    offset = list(inc.offset)
    offset[rng.randrange(len(offset))] += Fraction(1, 2)
    yield faces, incs[:i] + [FaceInclusion(inc.sub, inc.super, inc.linear, tuple(offset))] + incs[i + 1:]
    wide = [x for x in incs if x.linear and x.linear[0]]
    j = incs.index(rng.choice(wide))
    lin = [list(row) for row in incs[j].linear]
    r = rng.randrange(len(lin))
    lin[r] = [x * rng.choice((-1, 2)) for x in lin[r]]
    rng.shuffle(lin)
    yield faces, incs[:j] + [FaceInclusion(incs[j].sub, incs[j].super, tuple(map(tuple, lin)),
                                           incs[j].offset)] + incs[j + 1:]
    charted = [f for f in faces if f.chart.ineqs]
    f = rng.choice(charted)
    k = rng.randrange(len(f.chart.ineqs))
    chart = Polyhedron(f.rank, f.chart.ineqs[:k] + f.chart.ineqs[k + 1:], f.chart.eqs)
    yield [Face(g.id, g.rank, chart) if g is f else g for g in faces], incs
    f = rng.choice(faces)
    extra = (tuple(rng.randint(-1, 1) for _ in range(f.rank)), Fraction(rng.randint(-2, 1)))
    chart = Polyhedron(f.rank, f.chart.ineqs + (extra,), f.chart.eqs)
    yield [Face(g.id, g.rank, chart) if g is f else g for g in faces], incs


def test_validate_complex_matches_reference_on_templates_and_mutations():
    rng = random.Random(27)
    checked, axioms = 0, set()
    skeletons = [build_skeleton(template_pair_data(rng, nv, nh, maximal))
                 for nv, nh, maximal in COMPLEX_TEMPLATES]
    while len(skeletons) < len(COMPLEX_TEMPLATES) + 4:
        d = random_pair_data(rng)
        sk = build_skeleton(d) if d is not None else None
        if sk is not None and any(inc.linear[0] for inc in sk.inclusions.values()):
            skeletons.append(sk)  # has an inclusion of positive rank to rewrite
    for sk in skeletons:
        assert validate_complex(sk).ok
        complexes = [sk] + [PolyhedralComplex(faces, incs) for faces, incs in _mutations(sk, rng)]
        for c in complexes:
            got = validate_complex(c)
            assert str(got) == str(reference.validate_complex(c))
            checked += 1
            axioms |= {v.axiom for v in got.violations}
    assert checked == 6 * len(skeletons)
    assert axioms == {"2", "3", "4", "5", "order"}, axioms


def test_star_directions_match_reference_inverse_on_templates():
    """Each star direction is, up to its orientation, column r - 1 of the
    inverse of the Smith form's u, as the reference inverse gives it."""
    rng = random.Random(31)
    checked = 0
    for nv, nh, maximal in COMPLEX_TEMPLATES:
        sk = build_skeleton(template_pair_data(rng, nv, nh, maximal))
        for w in sk.faces:
            directions = dict(star(sk, w).directions)
            for inc in sk.cofacet_inclusions(w):
                r = sk.faces[inc.super].rank
                if r == 1:
                    e = (1,)
                else:
                    inv = reference_linalg.unimodular_inverse(smith_normal_form(inc.linear)[0])
                    e = tuple(inv[i][r - 1] for i in range(r))
                assert directions[inc.super] in (e, tuple(-x for x in e)), (w, inc.super)
                checked += 1
    assert checked > 100, checked


def test_star_matches_lp_reference_on_templates_and_grid_fans():
    """Directions, orientation included, equal those of the star that finds
    the supporting facet at the image of an LP interior point."""
    rng = random.Random(33)
    complexes = [build_skeleton(template_pair_data(rng, nv, nh, maximal))
                 for nv, nh, maximal in COMPLEX_TEMPLATES]
    complexes += [fan_complex(k) for k in (1, 2, 3, 4)]  # the criterion-2 grid
    checked = 0
    for c in complexes:
        for w in c.faces:
            if c.cofacet_inclusions(w):
                assert star(c, w) == reference.star(c, w), w
                checked += 1
    assert checked > 100, checked


def test_two_shared_vertices_resolving_differently_flagged():
    # O1 and O2 land on the same vertex of W1 but on opposite ends of W2
    seg = Polyhedron(1, [((1,), 0), ((-1,), -1)])
    point = Polyhedron(0)
    c = PolyhedralComplex(
        [Face("O1", 0, point), Face("O2", 0, point), Face("W1", 1, seg), Face("W2", 1, seg)],
        [FaceInclusion("O1", "W1", ((),), (Fraction(0),)),
         FaceInclusion("O2", "W1", ((),), (Fraction(0),)),
         FaceInclusion("O1", "W2", ((),), (Fraction(0),)),
         FaceInclusion("O2", "W2", ((),), (Fraction(1),))],
    )
    report = validate_complex(c)
    assert [v.subject for v in report.violations if v.axiom == "4"] == ["W1 & W2"]
    assert str(report) == str(reference.validate_complex(c))


def test_inclusions_onto_two_super_charts_are_each_flagged():
    # F maps onto the whole of E and onto the whole of G, which differs from E
    c = PolyhedralComplex(
        [Face("F", 1, Polyhedron(1, [((1,), 0), ((-1,), -2)])),
         Face("E", 1, Polyhedron(1, [((1,), 0), ((-1,), -2)])),
         Face("G", 1, Polyhedron(1, [((1,), 1), ((-1,), -3)]))],
        [FaceInclusion("F", "E", ((1,),), (Fraction(0),)),
         FaceInclusion("F", "G", ((1,),), (Fraction(1),))],
    )
    report = validate_complex(c)
    assert [v.subject for v in report.violations if v.axiom == "3"][:2] == ["F->E", "F->G"]
    assert str(report) == str(reference.validate_complex(c))


def _order_and_shape_case(name):
    """A complex that reaches one chart-shape or order branch of
    ``validate_complex``: a chart in R^1 on a face of rank 2, an inclusion
    of a face into itself, two segments included into each other, and a
    square whose inclusion into the orthant of R^3 folds it onto a line."""
    seg = Polyhedron(1, [((1,), 0), ((-1,), -1)])
    if name == "rank":
        return PolyhedralComplex([Face("A", 2, seg)], [])
    if name == "reflexive":
        c = segment_complex()
        return PolyhedralComplex(list(c.faces.values()), [
            *c.inclusions.values(), FaceInclusion("E", "E", ((1,),), (0,))])
    if name == "antisymmetric":
        return PolyhedralComplex([Face("A", 1, seg), Face("B", 1, seg)], [
            FaceInclusion("A", "B", ((1,),), (0,)), FaceInclusion("B", "A", ((1,),), (0,))])
    square = Polyhedron(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])
    orthant = Polyhedron(3, [(n, 0) for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    return PolyhedralComplex([Face("S", 2, square), Face("C", 3, orthant)], [
        FaceInclusion("S", "C", ((1, 1), (1, 1), (0, 0)), (0, 0, 0))])


@pytest.mark.parametrize("name, entry", [
    ("rank", ("2", "A", "chart lives in R^1 but rank is 2")),
    ("reflexive", ("order", "E->E", "reflexive inclusion stored explicitly")),
    ("antisymmetric", ("order", "A->B", "inclusion relation is not antisymmetric")),
    ("not-injective", ("5", "S->C", "inclusion linear part is not injective")),
])
def test_order_and_shape_branches_match_the_reference(name, entry):
    c = _order_and_shape_case(name)
    report = validate_complex(c)
    assert str(report) == str(reference.validate_complex(c))
    assert entry in [(v.axiom, v.subject, v.message) for v in report.violations]


# ---------------------------------------------------------------------------
# equal charts: one object per complex, and verdicts that sharing never moves
# ---------------------------------------------------------------------------

def _cli_skeleton(tmp_path, monkeypatch):
    """The skeleton the benchmark's seed-1 cli batch writes for scenario 0,
    read back with ``complex_from_doc``."""
    import importlib.util
    import json
    import sys
    from pathlib import Path

    from tropmoduli import cli
    from tropmoduli.documents import complex_from_doc

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    workloads.cli_prepare(1, "tiny", tmp_path)  # scenario 0 is the same at every size
    out = tmp_path / "complex.json"
    assert cli.main(["skeleton", str(tmp_path / "s0" / "pair.json"), "-o", str(out)]) == 0
    return complex_from_doc(json.loads(out.read_text(encoding="utf-8"))["payload"])


def _incidence_passes(monkeypatch):
    """A counter of first computations of the cached ``_incidences``, from
    now on."""
    passes = []
    orig = vars(Polyhedron)["_incidences"].func

    def counted(self):
        passes.append(self)
        return orig(self)
    counted = cached_property(counted)
    counted.__set_name__(Polyhedron, "_incidences")
    monkeypatch.setattr(Polyhedron, "_incidences", counted)
    return passes


def test_star_reads_the_face_chart_and_no_cofacet_chart(monkeypatch):
    """Over seeded fans and books, ``star`` runs one incidence pass, on the
    face's own chart: each cofacet chart is read through its rows alone.
    The directions still match the reference."""
    from test_harmonicity_reference import book_map
    rng = random.Random(32)
    for i in range(40):
        k, dim = rng.randint(2, 6), rng.randint(2, 3)
        if i % 2:
            c, w = fan_complex(k), "O"
        else:
            a = tuple(rng.randint(-2, 2) for _ in range(dim))
            c, w = book_map(rng, a, [a] * k).source, "W"
        passes = _incidence_passes(monkeypatch)
        got = star(c, w).directions
        assert len(passes) == 1 and passes[0] is c.faces[w].chart, (i, passes)
        monkeypatch.undo()
        assert got == reference.star(c, w).directions, i


def _assert_shared(c):
    """Equal charts are one object; returns the number of distinct charts."""
    charts = {}
    for f in c.faces.values():
        assert charts.setdefault(f.chart, f.chart) is f.chart, f.id
    return len(charts)


def test_equal_charts_are_shared_and_read_once(tmp_path, monkeypatch):
    c = _cli_skeleton(tmp_path, monkeypatch)
    monkeypatch.undo()
    assert (len(c.faces), _assert_shared(c)) == (32, 12)
    sk = build_skeleton(template_pair_data(random.Random(5), *COMPLEX_TEMPLATES[1]))
    distinct = _assert_shared(sk)
    assert distinct < len(sk.faces)
    seg = lambda: Polyhedron(1, [((1,), 0), ((-1,), -1)])
    by_hand = PolyhedralComplex(  # a circle of two segments
        [Face("O", 0, Polyhedron(0)), Face("P", 0, Polyhedron(0)), Face("A", 1, seg(), "a"),
         Face("B", 1, seg())],
        [FaceInclusion(v, e, ((),), (t,)) for v, e, t in
         (("O", "A", 0), ("P", "A", 1), ("O", "B", 1), ("P", "B", 0))])
    assert _assert_shared(by_hand) == 2 and by_hand.faces["B"].chart is by_hand.faces["A"].chart
    assert by_hand.faces["B"] == Face("B", 1, seg()) and by_hand.faces["A"].label == "a"
    assert seg() == seg() and hash(seg()) == hash(seg()) and seg() != Polyhedron(1)
    for complex_, charts in ((c, 12), (sk, distinct), (by_hand, 2)):
        passes = _incidence_passes(monkeypatch)
        assert validate_complex(complex_).ok
        assert len(passes) == charts
        monkeypatch.undo()


def _unshared(c):
    """A copy of ``c`` in which every face has a chart object of its own."""
    copy = PolyhedralComplex(c.faces.values(), c.inclusions.values(), c.maximal_faces)
    copy.faces = {fid: Face(f.id, f.rank, Polyhedron(f.rank, f.chart.ineqs, f.chart.eqs), f.label)
                  for fid, f in c.faces.items()}
    return copy


def _star_or_error(c, w):
    try:
        return star(c, w)
    except Exception as exc:  # the two copies must fail alike too
        return type(exc).__name__, str(exc)


def _adversarial_complexes():
    """Inclusions whose charts (and linear parts) equal those of a valid
    inclusion, but whose image is another face or no face at all."""
    seg = lambda: Polyhedron(1, [((1,), 0), ((-1,), -1)])
    square = lambda: Polyhedron(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])
    point = Polyhedron(0)
    # equal charts, different maps: Q lands on the far end of E1 but inside E2
    yield PolyhedralComplex(
        [Face("P", 0, point), Face("Q", 0, point), Face("E1", 1, seg()), Face("E2", 1, seg())],
        [FaceInclusion("P", "E1", ((),), (0,)), FaceInclusion("Q", "E1", ((),), (1,)),
         FaceInclusion("P", "E2", ((),), (0,)),
         FaceInclusion("Q", "E2", ((),), (Fraction(1, 2),))])
    edges = [Face(f"L{i}", 1, seg()) for i in range(4)]
    corners = [Face(f"V{i}", 0, point) for i in range(4)]
    for offset, linear in (((0, Fraction(1, 2)), ((1,), (0,))),  # equal linear, other offset
                           ((0, 0), ((1,), (1,)))):  # the diagonal: equal charts, no face
        sides = [((1,), (0,)), ((0,), (1,)), ((1,), (0,)), ((0,), (1,))]
        starts = [(0, 0), (0, 0), (0, 1), (1, 0)]
        incs = [FaceInclusion(f"L{i}", "F", lin, off) for i, (lin, off) in enumerate(zip(sides, starts))]
        incs[3:] = [FaceInclusion("L3", "F", linear, offset)]
        ends = {0: ((0, 0), (1, 0)), 1: ((0, 0), (0, 1)), 2: ((0, 1), (1, 1)), 3: ((1, 0), (1, 1))}
        corner = {(0, 0): "V0", (1, 0): "V1", (0, 1): "V2", (1, 1): "V3"}
        for i, pts in ends.items():
            for t, p in enumerate(pts):
                incs.append(FaceInclusion(corner[p], f"L{i}", ((),), (t,)))
                incs.append(FaceInclusion(corner[p], "F", ((),) * 2, p))
        incs = list({(i.sub, i.super): i for i in incs}.values())
        yield PolyhedralComplex([*corners, *edges, Face("F", 2, square())], incs)
    # A maps onto the whole of W1, which is no face; axiom 4 must skip the pair
    # (A, P), whose images in W2 do not meet
    yield PolyhedralComplex(
        [Face("P", 0, point), Face("A", 1, seg()), Face("W1", 1, seg()), Face("W2", 2, square())],
        [FaceInclusion("A", "W1", ((1,),), (0,)), FaceInclusion("P", "W1", ((),), (0,)),
         FaceInclusion("A", "W2", ((1,), (0,)), (0, 0)),
         FaceInclusion("P", "W2", ((), ()), (0, 1))])


def test_sharing_never_changes_a_verdict():
    """validate_complex and star agree on a complex with shared charts, on a
    copy with a chart object per face, and with the reference validation,
    over the skeleton templates, their mutations and adversarial cases."""
    rng = random.Random(41)
    cases = []
    for nv, nh, maximal in COMPLEX_TEMPLATES:
        sk = build_skeleton(template_pair_data(rng, nv, nh, maximal))
        cases += [sk] + [PolyhedralComplex(faces, incs) for faces, incs in _mutations(sk, rng)]
    adversarial = list(_adversarial_complexes())
    flagged = 0
    for c in cases + adversarial:
        got = str(validate_complex(c))
        assert got == str(validate_complex(_unshared(c))) == str(reference.validate_complex(c))
        flagged += c in adversarial and ("AXIOM(5)" in got or "AXIOM(4)" not in got)
        copy = _unshared(c)
        for w in c.faces:
            if c.cofacet_inclusions(w):
                assert _star_or_error(c, w) == _star_or_error(copy, w), w
    assert flagged == len(adversarial) == 4


def test_star_refuses_an_image_that_is_no_face():
    """The segment [0, 1/2] mapped onto half the bottom edge of the unit
    square: ``validate_complex`` flags the inclusion, and ``star`` raises
    instead of orienting by the bottom edge's inequality."""
    square = Polyhedron(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])
    c = PolyhedralComplex(
        [Face("a", 1, Polyhedron(1, [((1,), 0), ((-1,), Fraction(-1, 2))])), Face("b", 2, square)],
        [FaceInclusion("a", "b", ((1,), (0,)), (0, 0))])
    assert ("5", "a->b") in {(v.axiom, v.subject) for v in validate_complex(c).violations}
    with pytest.raises(TropModuliError,
                       match="image of 'a' is not a facet of 'b'; validate the complex first"):
        star(c, "a")


def _line_into_half_plane(offset):
    """The line R mapped into the half-plane {y >= 0} by x -> (x, 0) + offset."""
    return PolyhedralComplex(
        [Face("a", 1, Polyhedron(1)), Face("b", 2, Polyhedron(2, [((0, 1), 0)]))],
        [FaceInclusion("a", "b", ((1,), (0,)), offset)])


def _half_planes_on_a_quarter_space(shear):
    """{t >= 0} in R^2 mapped onto the face c = 0 of {b >= 0, c >= 0} in R^3
    by (s, t) -> (s + shear * t, t, 0), a second copy onto b = 0 by
    (s, t) -> (s, 0, t), and the line R onto their common edge and into both
    half-planes as t = 0."""
    half = Polyhedron(2, [((0, 1), 0)])
    faces = [Face("L", 1, Polyhedron(1)), Face("T", 2, half), Face("U", 2, half),
             Face("Q", 3, Polyhedron(3, [((0, 1, 0), 0), ((0, 0, 1), 0)]))]
    incs = [FaceInclusion("T", "Q", ((1, shear), (0, 1), (0, 0)), (0, 0, 0)),
            FaceInclusion("U", "Q", ((1, 0), (0, 0), (0, 1)), (0, 0, 0)),
            FaceInclusion("L", "T", ((1,), (0,)), (0, 0)),
            FaceInclusion("L", "U", ((1,), (0,)), (0, 0)),
            FaceInclusion("L", "Q", ((1,), (0,), (0,)), (0, 0, 0))]
    return PolyhedralComplex(faces, incs)


def test_images_are_matched_modulo_the_lines_of_the_super_chart():
    """An inclusion that moves a chart along the super chart's lines, by its
    offset or by a shear, still maps it onto a face: ``validate_complex``
    (and the reference) accept it and ``star`` orients it."""
    for offset in ((0, 0), (3, 0), (Fraction(1, 2), 0), (-7, 0)):
        c = _line_into_half_plane(offset)
        assert validate_complex(c).ok and reference.validate_complex(c).ok, offset
        assert star(c, "a").directions == reference.star(c, "a").directions == (("b", (0, 1)),)
    for shear in (0, 1, -2):
        c = _half_planes_on_a_quarter_space(shear)
        assert validate_complex(c).ok and reference.validate_complex(c).ok, shear
        for w, expect in (("T", (("Q", (0, 0, 1)),)), ("U", (("Q", (0, 1, 0)),)),
                          ("L", (("T", (0, 1)), ("U", (0, 1))))):
            assert star(c, w).directions == reference.star(c, w).directions == expect, (shear, w)
    # off the lines the image is still no face
    c = _line_into_half_plane((0, 1))
    assert str(validate_complex(c)) == str(reference.validate_complex(c))
    assert ("5", "a->b") in {(v.axiom, v.subject) for v in validate_complex(c).violations}
