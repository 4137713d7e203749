"""JSON document schemas (versioned "tropmoduli/1").

All rationals are serialized as "p/q" strings (plain "p" for integers);
no floats appear in any document.  Parsers report schema violations with
JSON-pointer-style paths.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimMismatch, InputError, UnknownFace
from .exact_linalg import frac
from .family import (
    AffineFn,
    AffineMapN,
    Contraction,
    FaceCurveData,
    FamilyDatum,
    FaceLift,
    ImageStratum,
    WallVerdict,
)
from .moduli import WallGraph, canonical_form
from .polyhedral import (
    Face,
    FaceInclusion,
    Polyhedron,
    PolyhedralComplex,
    SemistablePairData,
    Stratum,
    ValidationReport,
)
from .tropcurve import CombinatorialType, ParameterizedTropicalCurve, WeightedGraph

SCHEMA = "tropmoduli/1"


def rat_str(x) -> str:
    return str(frac(x))


def parse_rat(value, pointer: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputError(f"expected a rational 'p/q' string, got {value!r}", pointer)
    try:
        return frac(value if isinstance(value, str) else int(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}: {exc}", pointer) from None


def _expect(doc, key, kind, pointer, default=None, required=True):
    if not isinstance(doc, dict):
        raise InputError("expected a JSON object", pointer)
    if key not in doc:
        if required:
            raise InputError(f"missing key {key!r}", pointer)
        return default
    value = doc[key]
    if kind is not None and not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise InputError(f"key {key!r} has wrong type", f"{pointer}/{key}")
    return value


def _int_list(values, pointer):
    if not isinstance(values, list):
        raise InputError("expected a list of integers", pointer)
    out = []
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, int):
            raise InputError("expected an integer", f"{pointer}/{i}")
        out.append(x)
    return tuple(out)


def _str_list(values, pointer):
    for i, x in enumerate(values):
        if not isinstance(x, str):
            raise InputError("expected a string", f"{pointer}/{i}")
    return tuple(values)


def _str_map(values, pointer):
    for k, x in values.items():
        if not isinstance(x, str):
            raise InputError("expected a string", f"{pointer}/{k}")
    return dict(values)


def check_schema(doc, pointer=""):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object", pointer)
    if doc.get("schema") != SCHEMA:
        raise InputError(f'expected "schema": "{SCHEMA}"', f"{pointer}/schema")


# ---------------------------------------------------------------------------
# polyhedral complexes
# ---------------------------------------------------------------------------

def _chart_to_doc(p: Polyhedron):
    return {
        "ineqs": [list(n) + [rat_str(o)] for n, o in p.ineqs],
        "eqs": [list(n) + [rat_str(o)] for n, o in p.eqs],
    }


def _chart_from_doc(doc, dim, pointer):
    rows = {"ineqs": [], "eqs": []}
    for key in ("ineqs", "eqs"):
        for i, row in enumerate(_expect(doc, key, list, pointer, default=[], required=False) or []):
            if not isinstance(row, list) or len(row) != dim + 1:
                raise InputError(f"constraint row needs {dim} normal entries and an offset",
                                 f"{pointer}/{key}/{i}")
            normal = _int_list(row[:-1], f"{pointer}/{key}/{i}")
            offset = parse_rat(row[-1], f"{pointer}/{key}/{i}/{dim}")
            rows[key].append((normal, offset))
    return Polyhedron(dim, rows["ineqs"], rows["eqs"])


def complex_to_doc(c: PolyhedralComplex) -> dict:
    return {
        "schema": SCHEMA,
        "faces": [
            {"id": f.id, "rank": f.rank, "chart": _chart_to_doc(f.chart),
             **({"label": f.label} if f.label else {})}
            for f in (c.faces[fid] for fid in sorted(c.faces))
        ],
        "inclusions": [
            {"sub": inc.sub, "super": inc.super,
             "linear": [list(row) for row in inc.linear],
             "offset": [rat_str(x) for x in inc.offset]}
            for inc in (c.inclusions[k] for k in sorted(c.inclusions))
        ],
        "maximal": sorted(c.maximal_faces),
    }


def complex_from_doc(doc, pointer="") -> PolyhedralComplex:
    check_schema(doc, pointer)
    faces = []
    for i, fd in enumerate(_expect(doc, "faces", list, pointer)):
        p = f"{pointer}/faces/{i}"
        fid = _expect(fd, "id", str, p)
        rank = _expect(fd, "rank", int, p)
        if rank < 0:
            raise InputError("rank must be nonnegative", f"{p}/rank")
        chart = _chart_from_doc(_expect(fd, "chart", dict, p), rank, f"{p}/chart")
        faces.append(Face(id=fid, rank=rank, chart=chart,
                          label=_expect(fd, "label", str, p, default="", required=False)))
    incs = []
    for i, idoc in enumerate(_expect(doc, "inclusions", list, pointer, default=[], required=False) or []):
        p = f"{pointer}/inclusions/{i}"
        linear = tuple(_int_list(row, f"{p}/linear/{j}")
                       for j, row in enumerate(_expect(idoc, "linear", list, p)))
        offset = tuple(parse_rat(x, f"{p}/offset/{j}")
                       for j, x in enumerate(_expect(idoc, "offset", list, p)))
        incs.append(FaceInclusion(sub=_expect(idoc, "sub", str, p),
                                  super=_expect(idoc, "super", str, p),
                                  linear=linear, offset=offset))
    maximal = _expect(doc, "maximal", list, pointer, required=False)
    if maximal is not None:
        declared = {f.id for f in faces}
        for i, fid in enumerate(maximal):
            if not isinstance(fid, str) or fid not in declared:
                raise InputError("expected the id of a declared face", f"{pointer}/maximal/{i}")
    try:
        return PolyhedralComplex(faces, incs, maximal_faces=maximal)
    except (ValueError, KeyError, UnknownFace, DimMismatch) as exc:
        raise InputError(str(exc), pointer) from None


# ---------------------------------------------------------------------------
# semistable pair data
# ---------------------------------------------------------------------------

def pair_to_doc(d: SemistablePairData) -> dict:
    return {
        "schema": SCHEMA,
        "vertical": list(d.vertical_components),
        "horizontal": list(d.horizontal_components),
        "strata": [
            {"id": s.id, "vertical": list(s.verticals),
             "horizontal": list(s.horizontals), "length": rat_str(s.length)}
            for s in d.strata
        ],
        "order": [list(p) for p in d.order],
    }


def pair_from_doc(doc, pointer="") -> SemistablePairData:
    check_schema(doc, pointer)
    strata = []
    for i, sd in enumerate(_expect(doc, "strata", list, pointer)):
        p = f"{pointer}/strata/{i}"
        strata.append(Stratum(
            id=_expect(sd, "id", str, p),
            verticals=_str_list(_expect(sd, "vertical", list, p), f"{p}/vertical"),
            horizontals=_str_list(_expect(sd, "horizontal", list, p, default=[], required=False)
                                  or [], f"{p}/horizontal"),
            length=parse_rat(_expect(sd, "length", None, p), f"{p}/length"),
        ))
    order = []
    for i, pair in enumerate(_expect(doc, "order", list, pointer, default=[], required=False) or []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError("order entries are [below, above] pairs", f"{pointer}/order/{i}")
        order.append(_str_list(pair, f"{pointer}/order/{i}"))
    return SemistablePairData(
        vertical_components=_str_list(_expect(doc, "vertical", list, pointer),
                                      f"{pointer}/vertical"),
        horizontal_components=_str_list(
            _expect(doc, "horizontal", list, pointer, default=[], required=False) or [],
            f"{pointer}/horizontal"),
        strata=tuple(strata),
        order=tuple(order),
    )


# ---------------------------------------------------------------------------
# curves and types
# ---------------------------------------------------------------------------

def type_to_doc(t: CombinatorialType, lengths=None, positions=None) -> dict:
    doc = {
        "schema": SCHEMA,
        "dim": t.dim,
        "vertices": [{"id": v, "weight": w} for v, w in t.graph.vertices],
        "edges": [
            {"id": e, "u": u, "v": v, "slope": list(t.slopes[e]),
             **({"length": rat_str(lengths[e])} if lengths else {})}
            for e, u, v in t.graph.edges
        ],
        "legs": [{"id": l, "v": v, "slope": list(t.slopes[l])} for l, v in t.graph.legs],
    }
    if positions:
        doc["positions"] = {v: [rat_str(x) for x in pos] for v, pos in sorted(positions.items())}
    return doc


def curve_to_doc(p: ParameterizedTropicalCurve) -> dict:
    return type_to_doc(p.type, lengths=p.curve.lengths, positions=p.positions)


def type_from_doc(doc, pointer=""):
    """Returns (CombinatorialType, lengths or None, positions or None)."""
    check_schema(doc, pointer)
    dim = _expect(doc, "dim", int, pointer)
    if dim < 0:
        raise InputError("dim must be nonnegative", f"{pointer}/dim")
    vertices = []
    for i, vd in enumerate(_expect(doc, "vertices", list, pointer)):
        p = f"{pointer}/vertices/{i}"
        w = _expect(vd, "weight", int, p, default=0, required=False)
        if w < 0:
            raise InputError("weights are nonnegative", f"{p}/weight")
        vertices.append((_expect(vd, "id", str, p), w))
    edges, legs, slopes = [], [], {}
    lengths = {}
    has_lengths = False
    for i, ed in enumerate(_expect(doc, "edges", list, pointer, default=[], required=False) or []):
        p = f"{pointer}/edges/{i}"
        eid = _expect(ed, "id", str, p)
        edges.append((eid, _expect(ed, "u", str, p), _expect(ed, "v", str, p)))
        slope = _int_list(_expect(ed, "slope", list, p), f"{p}/slope")
        if len(slope) != dim:
            raise InputError(f"slope needs {dim} entries", f"{p}/slope")
        slopes[eid] = slope
        if "length" in ed:
            has_lengths = True
            lengths[eid] = parse_rat(ed["length"], f"{p}/length")
            if lengths[eid] <= 0:
                raise InputError("edge lengths must be positive", f"{p}/length")
    for i, ld in enumerate(_expect(doc, "legs", list, pointer, default=[], required=False) or []):
        p = f"{pointer}/legs/{i}"
        lid = _expect(ld, "id", str, p)
        legs.append((lid, _expect(ld, "v", str, p)))
        slope = _int_list(_expect(ld, "slope", list, p), f"{p}/slope")
        if len(slope) != dim:
            raise InputError(f"slope needs {dim} entries", f"{p}/slope")
        slopes[lid] = slope
    try:
        graph = WeightedGraph(tuple(vertices), tuple(edges), tuple(legs))
        t = CombinatorialType(graph, slopes, dim)
    except ValueError as exc:
        raise InputError(str(exc), pointer) from None
    positions = None
    if "positions" in doc:
        positions = {}
        for v, pos in _expect(doc, "positions", dict, pointer).items():
            if v not in graph.vertex_ids():
                raise InputError(f"position for unknown vertex {v!r}", f"{pointer}/positions/{v}")
            if not isinstance(pos, list) or len(pos) != dim:
                raise InputError(f"position needs {dim} entries", f"{pointer}/positions/{v}")
            positions[v] = tuple(parse_rat(x, f"{pointer}/positions/{v}/{j}")
                                 for j, x in enumerate(pos))
    return t, (lengths if has_lengths else None), positions


def types_to_doc(types) -> dict:
    return {
        "schema": SCHEMA,
        "types": [
            {"canonical": canonical_form(t).string, "type": type_to_doc(t)}
            for t in types
        ],
    }


def types_from_doc(doc, pointer=""):
    check_schema(doc, pointer)
    out = []
    for i, td in enumerate(_expect(doc, "types", list, pointer)):
        t, _, _ = type_from_doc(_expect(td, "type", dict, f"{pointer}/types/{i}"),
                                f"{pointer}/types/{i}/type")
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def family_to_doc(f: FamilyDatum) -> dict:
    faces = []
    for fid in sorted(f.face_data):
        data = f.face_data[fid]
        faces.append({
            "face": fid,
            "type": type_to_doc(data.type),
            "lengths": {
                e: {"linear": list(fn.linear), "offset": rat_str(fn.offset)}
                for e, fn in sorted(data.lengths.items())
            },
            "positions": {
                v: {"linear": [list(r) for r in mp.linear],
                    "offset": [rat_str(x) for x in mp.offset]}
                for v, mp in sorted(data.positions.items())
            },
        })
    return {
        "schema": SCHEMA,
        "dim": f.dim,
        "extended_degree": [list(s) for s in f.extended_degree],
        "base": complex_to_doc(f.base),
        "faces": faces,
        "contractions": [
            {"sub": sub, "super": sup,
             "vertex_map": dict(sorted(c.vertex_map.items())),
             "edge_map": dict(sorted(c.edge_map.items()))}
            for (sub, sup), c in sorted(f.contractions.items())
        ],
    }


def family_from_doc(doc, pointer="") -> FamilyDatum:
    check_schema(doc, pointer)
    dim = _expect(doc, "dim", int, pointer)
    if dim < 0:
        raise InputError("dim must be nonnegative", f"{pointer}/dim")
    ext = tuple(_int_list(s, f"{pointer}/extended_degree/{i}")
                for i, s in enumerate(_expect(doc, "extended_degree", list, pointer)))
    base = complex_from_doc(_expect(doc, "base", dict, pointer), f"{pointer}/base")
    face_data = {}
    for i, fd in enumerate(_expect(doc, "faces", list, pointer)):
        p = f"{pointer}/faces/{i}"
        fid = _expect(fd, "face", str, p)
        if fid in face_data:
            raise InputError(f"repeated face {fid!r}", f"{p}/face")
        if fid not in base.faces:
            raise InputError(f"face {fid!r} is not in the base", f"{p}/face")
        t, _, _ = type_from_doc(_expect(fd, "type", dict, p), f"{p}/type")
        edge_ids = {e for e, _, _ in t.graph.edges}
        lengths = {}
        for e, fn in _expect(fd, "lengths", dict, p, default={}, required=False).items():
            pp = f"{p}/lengths/{e}"
            if e not in edge_ids:
                raise InputError(f"length for unknown edge {e!r}", pp)
            lengths[e] = AffineFn(
                linear=_int_list(_expect(fn, "linear", list, pp), f"{pp}/linear"),
                offset=parse_rat(_expect(fn, "offset", None, pp), f"{pp}/offset"),
            )
        positions = {}
        for v, mp in _expect(fd, "positions", dict, p, default={}, required=False).items():
            pp = f"{p}/positions/{v}"
            if v not in t.graph.vertex_ids():
                raise InputError(f"position for unknown vertex {v!r}", pp)
            linear = tuple(_int_list(r, f"{pp}/linear/{j}")
                           for j, r in enumerate(_expect(mp, "linear", list, pp)))
            offset = tuple(parse_rat(x, f"{pp}/offset/{j}")
                           for j, x in enumerate(_expect(mp, "offset", list, pp)))
            for key, part in (("linear", linear), ("offset", offset)):
                if len(part) != dim:
                    raise InputError(f"{key} needs {dim} entries", f"{pp}/{key}")
            positions[v] = AffineMapN(linear=linear, offset=offset)
        face_data[fid] = FaceCurveData(type=t, lengths=lengths, positions=positions)
    contractions = {}
    for i, cd in enumerate(_expect(doc, "contractions", list, pointer, default=[], required=False) or []):
        p = f"{pointer}/contractions/{i}"
        key = (_expect(cd, "sub", str, p), _expect(cd, "super", str, p))
        if key in contractions:
            raise InputError(f"repeated contraction {key[0]!r} -> {key[1]!r}", p)
        if key not in base.inclusions:
            raise InputError(f"{key[0]!r} -> {key[1]!r} is not an inclusion of the base", p)
        contractions[key] = Contraction(
            vertex_map=_str_map(_expect(cd, "vertex_map", dict, p), f"{p}/vertex_map"),
            edge_map=_str_map(_expect(cd, "edge_map", dict, p, default={}, required=False)
                              or {}, f"{p}/edge_map"),
        )
    return FamilyDatum(base=base, dim=dim, extended_degree=ext,
                       face_data=face_data, contractions=contractions)


# ---------------------------------------------------------------------------
# wall graphs, verdicts, reports
# ---------------------------------------------------------------------------

def wallgraph_to_doc(wg: WallGraph) -> dict:
    return {
        "schema": SCHEMA,
        "nodes": [
            {"id": nid, "canonical": canonical_form(t).string, "type": type_to_doc(t)}
            for nid, t in wg.nodes
        ],
        "walls": [
            {"id": wid, "canonical": canonical_form(t).string, "type": type_to_doc(t),
             "resolutions": list(res)}
            for wid, t, res in wg.walls
        ],
    }


def wallgraph_from_doc(doc, pointer="") -> WallGraph:
    check_schema(doc, pointer)
    nodes = []
    for i, nd in enumerate(_expect(doc, "nodes", list, pointer)):
        p = f"{pointer}/nodes/{i}"
        t, _, _ = type_from_doc(_expect(nd, "type", dict, p), f"{p}/type")
        nodes.append((_expect(nd, "id", str, p), t))
    node_ids = {nid for nid, _ in nodes}
    walls = []
    for i, wd in enumerate(_expect(doc, "walls", list, pointer, default=[], required=False) or []):
        p = f"{pointer}/walls/{i}"
        t, _, _ = type_from_doc(_expect(wd, "type", dict, p), f"{p}/type")
        res = _str_list(_expect(wd, "resolutions", list, p), f"{p}/resolutions")
        for j, nid in enumerate(res):
            if nid not in node_ids:
                raise InputError(f"resolution {nid!r} is not a node id", f"{p}/resolutions/{j}")
        walls.append((_expect(wd, "id", str, p), t, res))
    node_key = {canonical_form(t).string: nid for nid, t in nodes}
    return WallGraph(nodes=tuple(nodes), walls=tuple(walls), node_key=node_key)


def verdict_to_doc(v: WallVerdict) -> dict:
    doc = {"face": v.face, "verdict": v.verdict.value}
    if v.certificate is not None:
        doc["certificate"] = list(v.certificate)
    if v.witnesses:
        doc["witnesses"] = dict(sorted(v.witnesses.items()))
    if v.uncovered:
        doc["uncovered"] = list(v.uncovered)
    if v.detail:
        doc["detail"] = v.detail
    return doc


def report_to_doc(report: ValidationReport) -> dict:
    return {
        "violations": [
            {"axiom": v.axiom, "subject": v.subject, "message": v.message}
            for v in report.violations
        ],
    }


def lift_to_doc(lift: FaceLift) -> dict:
    return {
        "face": lift.face,
        "canonical": lift.canonical,
        "type": type_to_doc(lift.type),
        "lift": {
            "linear": [list(r) for r in lift.linear],
            "offset": [rat_str(x) for x in lift.offset],
        },
        "image_dim": lift.rank(),
    }


def image_stratum_to_doc(s: ImageStratum) -> dict:
    return {
        "canonical": s.canonical,
        "image_dim": s.image_dim,
        "stratum_dim": s.stratum_dim,
        "full_dimensional": s.full_dimensional,
    }
