"""``validate_family`` against the point-sampling reference.

The library decides each affine identity of a family once, on integer
coefficients, and the zero locus of a length by its signs on the chart's
generators; ``reference_family`` evaluates both sides at every generating
point of a chart and searches for roots from an LP interior point.  On the
test families, on the benchmark's family shapes, on lengths placed around
the zero-locus rule and on seeded single mutations of them, both must give
the same violations in the same order.  A family read from a document
shares one type object among faces with equal type documents, and its
type-only checks, stabilization and canonical form run once per type.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from tropmoduli import exact_linalg, family
from tropmoduli.documents import family_from_doc, family_to_doc, lift_to_doc, type_to_doc
from tropmoduli.errors import InputError
from tropmoduli.family import (
    AffineFn,
    AffineMapN,
    Contraction,
    FaceCurveData,
    FamilyDatum,
    induced_alpha,
    validate_family,
)
from tropmoduli.polyhedral import (
    Face,
    FaceInclusion,
    PolyhedralComplex,
    Polyhedron,
    validate_complex,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph

import reference_family
import reference_polyhedral
from helpers import (
    CROSS_DEGREE,
    const_positionN,
    cross_type,
    half_plane_family,
    path_family,
    point_family,
    quadrant_family,
    ray_wall_family,
    resolution_type,
    segment_family,
    two_ray_resolution_family,
)


def _entries(report):
    return [(v.axiom, v.subject, v.message) for v in report.violations]


def _benchmark_path_family(seed, segments=6):
    """Derivatives equal, doubled or unrelated at the inner vertices in turn,
    and rational segment lengths, as in the benchmark's path documents."""
    rng = random.Random(f"path/{seed}")
    step = lambda: (rng.randint(-3, 3), rng.randint(1, 3))
    derivs = [step()]
    for i in range(segments - 1):
        prev = derivs[-1]
        derivs.append((prev, tuple(2 * x for x in prev), step())[i % 3])
    lengths = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(segments)]
    return path_family(derivs, lengths)


FAMILIES = {
    "point": point_family,
    "ray-wall-1": lambda: ray_wall_family((1,)),
    "ray-wall-12": lambda: ray_wall_family((1, 2)),
    "ray-wall-123": lambda: ray_wall_family((1, 2, 3)),
    "ray-wall-bad": lambda: ray_wall_family((1, 2), edge_offset=-1),
    "two-ray": two_ray_resolution_family,
    "segment": segment_family,
    "path-0": lambda: _benchmark_path_family(0),
    "path-1": lambda: _benchmark_path_family(1),
    "quadrant": quadrant_family,
    "half-plane": half_plane_family,  # a chart with a line
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_validate_family_matches_point_sampling_reference(name):
    f = FAMILIES[name]()
    found = _entries(validate_family(f))
    assert found == _entries(reference_family.validate_family(f))
    assert bool(found) == (name == "ray-wall-bad")


def _segment_from_a_third():
    """The resolution type over the segment [1/3, 2] and its end points,
    with edge length 1 and constant positions: the chart's first vertex is
    not the origin."""
    t = resolution_type(1)
    s = t.slopes["e"]
    base = PolyhedralComplex(
        [Face("V0", 0, Polyhedron(0)), Face("V1", 0, Polyhedron(0)),
         Face("E", 1, Polyhedron(1, [((1,), Fraction(1, 3)), ((-1,), -2)]))],
        [FaceInclusion("V0", "E", ((),), (Fraction(1, 3),)), FaceInclusion("V1", "E", ((),), (2,))])
    data = lambda rank: FaceCurveData(
        type=t, lengths={"e": AffineFn((0,) * rank, 1)},
        positions={"va": const_positionN((0, 0), rank), "vb": const_positionN(s, rank)})
    return FamilyDatum(base=base, dim=2, extended_degree=CROSS_DEGREE,
                       face_data={"V0": data(0), "V1": data(0), "E": data(1)},
                       contractions={(v, "E"): Contraction(vertex_map={"va": "va", "vb": "vb"},
                                                           edge_map={"e": "e"})
                                     for v in ("V0", "V1")})


def test_edge_relation_failures_are_named_at_a_vertex_along_a_ray_and_along_a_line():
    """On the half-plane {y >= 0} (vertex (0, 0), ray (0, 1), one line), a
    wrong offset of vb fails at the vertex, a wrong y coefficient only along
    the ray and a wrong x coefficient only along the line.  On [1/3, 2], vb
    moved by x - 1/3 fails only at the second vertex.  Each failure is named
    at the reference's first failing generating point."""
    line = half_plane_family().base.face("H").chart.vrep()[2][0]
    cases = {
        "vertex": (half_plane_family, "H",
                   lambda lin, off: (lin, (off[0] + 1, off[1])), ("0", "0")),
        "ray": (half_plane_family, "H",
                lambda lin, off: (((1, lin[0][1] + 1), lin[1]), off), ("0", "1")),
        "line": (half_plane_family, "H",
                 lambda lin, off: (((2, lin[0][1]), lin[1]), off), tuple(map(str, line))),
        "second vertex": (_segment_from_a_third, "E",
                          lambda lin, off: (((1,), lin[1]), (off[0] - Fraction(1, 3), off[1])),
                          ("2",)),
    }
    for name, (build, fid, change, at) in cases.items():
        f = build()
        vb = f.face_data[fid].positions["vb"]
        f.face_data[fid].positions["vb"] = AffineMapN(*change(vb.linear, vb.offset))
        found = _entries(validate_family(f))
        assert found == _entries(reference_family.validate_family(f)), name
        assert ("1", fid, f"edge relation fails for 'e' at {at}") in found, (name, found)
    assert not validate_family(_segment_from_a_third()).violations


def _delta(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _mutate(f, rng, kind):
    """A copy of ``f`` with one coefficient changed: a length offset or linear
    entry, a position entry, an inclusion offset, or an edge slope."""
    m = copy.deepcopy(f)
    with_edges = sorted(fid for fid, d in m.face_data.items() if d.lengths)
    if kind == "length":
        data = m.face_data[rng.choice(with_edges)]
        e = rng.choice(sorted(data.lengths))
        fn = data.lengths[e]
        if fn.linear and rng.random() < 0.5:
            j = rng.randrange(len(fn.linear))
            linear = list(fn.linear)
            linear[j] += rng.choice((-1, 1))
            data.lengths[e] = AffineFn(tuple(linear), fn.offset)
        else:
            data.lengths[e] = AffineFn(fn.linear, fn.offset + _delta(rng))
    elif kind == "position":
        data = m.face_data[rng.choice(sorted(m.face_data))]
        u = rng.choice(sorted(data.positions))
        mp = data.positions[u]
        linear, offset = [list(r) for r in mp.linear], list(mp.offset)
        c = rng.randrange(len(offset))
        if linear[c] and rng.random() < 0.5:
            linear[c][rng.randrange(len(linear[c]))] += rng.choice((-1, 1))
        else:
            offset[c] += _delta(rng)
        data.positions[u] = AffineMapN(tuple(map(tuple, linear)), tuple(offset))
    elif kind == "inclusion":
        key = rng.choice(sorted(m.base.inclusions))
        inc = m.base.inclusions[key]
        offset = list(inc.offset)
        offset[rng.randrange(len(offset))] += _delta(rng)
        m.base.inclusions[key] = FaceInclusion(inc.sub, inc.super, inc.linear, tuple(offset))
    else:
        data = m.face_data[rng.choice(with_edges)]
        t = data.type
        e = rng.choice(sorted(eid for eid, _, _ in t.graph.edges))
        slopes = dict(t.slopes)
        c = rng.randrange(t.dim)
        slopes[e] = tuple(x + (1 if i == c else 0) for i, x in enumerate(slopes[e]))
        data.type = CombinatorialType(t.graph, slopes, t.dim)
    return m


@pytest.mark.parametrize("kind", ["length", "position", "inclusion", "slope"])
def test_single_mutations_match_point_sampling_reference(kind):
    rng = random.Random(f"mutate/{kind}")
    names = [n for n in sorted(FAMILIES) if n not in ("point", "ray-wall-bad")]
    axioms = set()
    for i in range(40):
        m = _mutate(FAMILIES[names[i % len(names)]](), rng, kind)
        found = _entries(validate_family(m))
        assert found == _entries(reference_family.validate_family(m)), (kind, i)
        # read back, the faces whose type documents are equal share one type
        assert _entries(validate_family(family_from_doc(family_to_doc(m)))) == found
        if kind == "inclusion":
            assert _entries(validate_complex(m.base)) == \
                _entries(reference_polyhedral.validate_complex(m.base))
        axioms |= {a for a, _, _ in found}
    # the mutations reach the checks they aim at
    assert {"length": {"1", "2"}, "position": {"1", "3"}, "inclusion": {"base"},
            "slope": {"1", "contraction"}}[kind] <= axioms, axioms


def _weighted_cross(weights, edges, legs):
    """A type with the cross's leg slopes, zero-slope edges and ``weights``."""
    graph = WeightedGraph(tuple(weights.items()), tuple(edges), tuple(legs))
    return CombinatorialType(graph, {**{e: (0, 0) for e, _, _ in edges},
                                     **cross_type().slopes}, 2)


def _contraction_case(name):
    """A valid family with one weighted-contraction check failing:
    ``disconnected`` merges the ends of the two-ray family's surviving edge,
    ``weight`` gives the ray-wall family's wall vertex weight 1, and
    ``across`` contracts the path a-b-c over its ray with a, c onto x and b
    onto y, so both edges cross classes and the class {a, c} is joined
    only through b."""
    if name == "disconnected":
        f = two_ray_resolution_family()
        f.contractions[("O", "R0")] = Contraction(vertex_map={"va": "va", "vb": "va"},
                                                  edge_map={"e": "e"})
        return f
    f = ray_wall_family((1,))
    legs = [(lid, "v") for lid in ("l0", "l1", "l2", "l3")]
    if name == "weight":
        f.face_data["O"].type = _weighted_cross({"v": 1}, (), legs)
        return f
    f.face_data["O"] = FaceCurveData(
        type=_weighted_cross({"x": 0, "y": 0}, (), [(lid, "x") for lid, _ in legs]),
        lengths={}, positions={v: const_positionN((0, 0), 0) for v in ("x", "y")})
    f.face_data["R0"] = FaceCurveData(
        type=_weighted_cross({"a": 0, "b": 0, "c": 0}, (("e1", "a", "b"), ("e2", "b", "c")),
                             [("l0", "a"), ("l1", "c"), ("l2", "a"), ("l3", "c")]),
        lengths={e: AffineFn((1,), 0) for e in ("e1", "e2")},
        positions={v: const_positionN((0, 0), 1) for v in ("a", "b", "c")})
    f.contractions[("O", "R0")] = Contraction(vertex_map={"a": "x", "b": "y", "c": "x"},
                                              edge_map={})
    return f


@pytest.mark.parametrize("name, messages", [
    ("disconnected", ["preimage of 'va' is not connected"]),
    ("weight", ["weight of 'v' is not the contracted genus"]),
    ("across", ["contracted edge 'e1' has endpoints in different classes",
                "contracted edge 'e2' has endpoints in different classes",
                "preimage of 'x' is not connected"]),
])
def test_weighted_contraction_faults_match_point_sampling_reference(name, messages):
    f = _contraction_case(name)
    found = _entries(validate_family(f))
    assert found == _entries(reference_family.validate_family(f))
    assert [m for _, _, m in found
            if m.startswith(("preimage", "weight", "contracted edge"))] == messages


def _contraction_branch_case(name):
    """The two-ray family with one contraction or its type changed: a vertex
    map that misses vb, an edge map onto no sub-face edge, the contraction
    dropped, the edge over R0 stored reversed (with and without its slope
    negated), and the vertex O's edge made a loop onto which R0's edge maps
    with the opposite slope."""
    f = two_ray_resolution_family()
    key = ("O", "R0")
    if name == "not-total":
        f.contractions[key] = Contraction(vertex_map={"va": "va"}, edge_map={"e": "e"})
    elif name == "not-bijective":
        f.contractions[key] = Contraction(vertex_map={"va": "va", "vb": "vb"},
                                          edge_map={"e": "x"})
    elif name == "no-contraction":
        del f.contractions[key]
    elif name.startswith("reversed"):
        t = f.face_data["R0"].type
        s = t.slopes["e"] if name == "reversed-unnegated" else tuple(-x for x in t.slopes["e"])
        graph = WeightedGraph(t.graph.vertices, (("e", "vb", "va"),), t.graph.legs)
        f.face_data["R0"].type = CombinatorialType(graph, {**t.slopes, "e": s}, 2)
    else:  # loop
        t = cross_type()
        s = f.face_data["R0"].type.slopes["e"]
        graph = WeightedGraph(t.graph.vertices, (("e", "v", "v"),), t.graph.legs)
        f.face_data["O"] = FaceCurveData(
            type=CombinatorialType(graph, {**t.slopes, "e": tuple(-x for x in s)}, 2),
            lengths={"e": AffineFn((), Fraction(1))},
            positions={"v": const_positionN((0, 0), 0)})
        for i in (0, 1):
            f.contractions[("O", f"R{i}")] = Contraction(vertex_map={"va": "v", "vb": "v"},
                                                         edge_map={"e": "e"})
    return f


@pytest.mark.parametrize("name, message", [
    ("not-total", "vertex map is not total onto known vertices"),
    ("not-bijective", "edge map is not a bijection onto the sub-face edges"),
    ("no-contraction", "inclusion without contraction"),
    ("reversed", None),
    ("reversed-unnegated", "slope of 'e' changes under contraction"),
    ("loop", None),
])
def test_contraction_branches_match_point_sampling_reference(name, message):
    """Each branch of the contraction checks, against the reference: an edge
    mapped onto its image reversed keeps the curve when its slope is negated
    (the family is valid), and one mapped onto a loop may have either sign."""
    f = _contraction_branch_case(name)
    found = _entries(validate_family(f))
    assert found == _entries(reference_family.validate_family(f))
    messages = [m for _, _, m in found]
    if name == "reversed":
        assert found == []
    elif message is None:
        assert found and not any(m.startswith("slope of") for m in messages), found
    else:
        assert message in messages, found


# ---------------------------------------------------------------------------
# the zero-locus rule
# ---------------------------------------------------------------------------

_VANISHES = "length of 'e' vanishes on the interior"


def _with_length(f, fid, linear, offset):
    f.face_data[fid].lengths["e"] = AffineFn(linear, Fraction(offset))
    return f


def _line_family(linear, offset):
    """The resolution type over one face whose chart is the whole line, with
    edge length linear * x + offset; the positions satisfy the edge relation,
    so only the length can be at fault."""
    t = resolution_type(1)
    s = t.slopes["e"]
    data = FaceCurveData(type=t, lengths={"e": AffineFn((linear,), Fraction(offset))},
                         positions={"va": const_positionN((0, 0), 1),
                                    "vb": AffineMapN(tuple((c * linear,) for c in s),
                                                     tuple(c * Fraction(offset) for c in s))})
    return FamilyDatum(base=PolyhedralComplex([Face("L", 1, Polyhedron(1))], []), dim=2,
                       extended_degree=CROSS_DEGREE, face_data={"L": data}, contractions={})


def _segment(linear, offset, fid="E1"):
    return lambda: _with_length(path_family([(1, 0)], [2]), fid, linear, offset)


# name -> (family, face, whether the length of 'e' vanishes on its interior)
ZERO_LOCUS = {
    # on E1 = [0, 2]
    "segment x-1": (_segment((1,), -1), "E1", True),
    "segment x-1/2": (_segment((1,), Fraction(-1, 2)), "E1", True),
    "segment x-5": (_segment((1,), -5), "E1", False),
    "segment x-2": (_segment((1,), -2), "E1", False),  # 0 only at an end point
    "segment 0": (_segment((0,), 0), "E1", True),
    # on R0 = [0, oo); 5 - t vanishes beyond the vertex moved along the ray
    "ray t-1": (lambda: ray_wall_family((1,), -1), "R0", True),
    "ray 5-t": (lambda: _with_length(ray_wall_family((1,)), "R0", (-1,), 5), "R0", True),
    "ray -5-t": (lambda: _with_length(ray_wall_family((1,)), "R0", (-1,), -5), "R0", False),
    "ray 5+t": (lambda: _with_length(ray_wall_family((1,)), "R0", (1,), 5), "R0", False),
    # on the whole line
    "line x": (lambda: _line_family(1, 0), "L", True),
    "line 0": (lambda: _line_family(0, 0), "L", True),
    "line 3": (lambda: _line_family(0, 3), "L", False),
    # on the rank-0 face P0, where a length is a constant
    "point -5": (_segment((), -5, "P0"), "P0", False),
    "point 0": (_segment((), 0, "P0"), "P0", True),
}


@pytest.mark.parametrize("name", sorted(ZERO_LOCUS))
def test_zero_locus_rule_matches_the_root_search(name):
    build, fid, vanishes = ZERO_LOCUS[name]
    f = build()
    found = _entries(validate_family(f))
    assert (("1", fid, _VANISHES) in found) == vanishes, found
    assert found == _entries(reference_family.validate_family(f))


def test_validate_family_solves_no_lp(monkeypatch):
    families = [FAMILIES[name]() for name in sorted(FAMILIES)]
    families += [build() for build, _, _ in ZERO_LOCUS.values()]

    def refuse(*args):
        raise AssertionError("validate_family solved an LP")

    monkeypatch.setattr(exact_linalg, "lp_maximize", refuse)
    assert sum(len(validate_family(f).violations) for f in families) > 0


# ---------------------------------------------------------------------------
# one type object per distinct type document, lifted once
# ---------------------------------------------------------------------------

def test_equal_type_documents_share_one_type():
    for name in sorted(FAMILIES):
        doc = family_to_doc(FAMILIES[name]())
        types = [data.type for _, data in sorted(family_from_doc(doc).face_data.items())]
        distinct = {repr(face["type"]) for face in doc["faces"]}
        assert len({id(t) for t in types}) == len(distinct), name
        for face, t in zip(doc["faces"], types):
            assert type_to_doc(t) == face["type"], name


def test_type_documents_with_positions_are_checked_per_face():
    doc = family_to_doc(_benchmark_path_family(1))
    for face in doc["faces"]:
        face["type"]["positions"] = {"va": ["0", "0"], "vb": ["-1", "-1"]}
    assert family_to_doc(family_from_doc(doc)) == family_to_doc(_benchmark_path_family(1))
    doc["faces"][3]["type"]["positions"]["zz"] = ["0", "0"]
    with pytest.raises(InputError) as exc:
        family_from_doc(doc)
    assert exc.value.pointer == "/faces/3/type/positions/zz"


def test_a_shared_type_is_checked_stabilized_and_labelled_once(monkeypatch):
    """13 faces read from one type document: one balancing check, one
    stabilization and one canonical form, and the lifts of a family whose
    faces carry equal but distinct type objects."""
    f = family_from_doc(family_to_doc(_benchmark_path_family(1)))
    unshared = copy.deepcopy(f)
    for data in unshared.face_data.values():
        data.type = copy.deepcopy(data.type)
    calls = {}
    for name in ("check_balanced", "stabilize_type", "canonical_form"):
        def counted(*args, _name=name, _fn=getattr(family, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(family, name, counted)
    alpha = induced_alpha(f)
    assert len(alpha.lifts) == 13
    assert calls == {"check_balanced": 1, "stabilize_type": 1, "canonical_form": 1}
    assert [lift_to_doc(lift) for _, lift in sorted(alpha.lifts.items())] == \
        [lift_to_doc(lift) for _, lift in sorted(induced_alpha(unshared).lifts.items())]
    assert calls == {"check_balanced": 14, "stabilize_type": 14, "canonical_form": 14}


@pytest.mark.parametrize("name, faces, keys, types", [
    ("path-1", 13, 1, 1),
    ("ray-wall-112", 4, 2, 3),
])
def test_alpha_checks_each_contraction_ranks_each_lift_and_writes_each_type_once(
        monkeypatch, tmp_path, name, faces, keys, types):
    """Per ``alpha`` call: one contraction check per distinct (sub type, super
    type, vertex map, edge map), not one per inclusion; no AffineFn or
    AffineMapN built inside validate_family; one rank per lift; and one type
    document per canonical type object."""
    from tropmoduli import cli, documents

    built = _benchmark_path_family(1) if name == "path-1" else ray_wall_family((1, 1, 2))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_doc(built)), encoding="utf-8")
    calls = {"_contraction_faults": 0, "rank": 0, "type_to_doc": 0, "affine": 0}
    seen = {}

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    for module, attr in ((family, "_contraction_faults"), (family, "rank"),
                         (documents, "type_to_doc")):
        counted(module, attr)
    inside = []
    original_validate, original_alpha = family.validate_family, family.induced_alpha

    def validate(f):
        seen["family"] = f
        inside.append(True)
        try:
            return original_validate(f)
        finally:
            inside.pop()

    def alpha(f):
        seen["alpha"] = original_alpha(f)
        return seen["alpha"]

    monkeypatch.setattr(family, "validate_family", validate)
    monkeypatch.setattr(cli, "induced_alpha", alpha)
    for cls in (AffineFn, AffineMapN):
        def init(self, *args, _init=cls.__init__, **kwargs):
            calls["affine"] += bool(inside)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)

    assert cli.main(["alpha", str(path), "-o", str(tmp_path / "out.json")]) == 0
    f, lifts = seen["family"], seen["alpha"].lifts
    distinct = {(id(f.face_data[sub].type), id(f.face_data[sup].type),
                 tuple(phi.vertex_map.items()), tuple(phi.edge_map.items()))
                for (sub, sup), phi in f.contractions.items()}
    assert (len(lifts), len(f.contractions) > keys, len(distinct)) == (faces, True, keys)
    assert len({id(lift.type) for lift in lifts.values()}) == types
    assert calls == {"_contraction_faults": keys, "rank": faces, "type_to_doc": types,
                     "affine": 0}
