"""The hand-written document parsers, kept as a test reference.

Each ``*_from_doc`` checks a document's shape key by key with ``_expect``
and the list helpers, interleaved with its cross-reference checks, and
builds the library object.  ``tropmoduli.documents`` declares the same
shapes once in ``SCHEMAS``; on a document with one fault both must build
equal objects or raise ``InputError`` at the same pointer.
"""

from __future__ import annotations

from fractions import Fraction

from tropmoduli.documents import SCHEMA
from tropmoduli.errors import DimMismatch, InputError, UnknownFace
from tropmoduli.exact_linalg import frac
from tropmoduli.family import AffineFn, AffineMapN, Contraction, FaceCurveData, FamilyDatum
from tropmoduli.moduli import WallGraph
from tropmoduli.polyhedral import (Face, FaceInclusion, Polyhedron, PolyhedralComplex,
                                   SemistablePairData, Stratum)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph


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


def types_from_doc(doc, pointer=""):
    check_schema(doc, pointer)
    out = []
    for i, td in enumerate(_expect(doc, "types", list, pointer)):
        t, _, _ = type_from_doc(_expect(td, "type", dict, f"{pointer}/types/{i}"),
                                f"{pointer}/types/{i}/type")
        out.append(t)
    return out


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
    return WallGraph(nodes=tuple(nodes), walls=tuple(walls))
