"""JSON document schemas (versioned "tropmoduli/1").

All rationals are serialized as "p/q" strings (plain "p" for integers);
no floats appear in any document.

``SCHEMAS`` is the one place where a document's shape is declared: per
kind, a tree of nodes ``(value, pointer) -> converted value`` built once
at import.  One walk of it checks a document and converts it to tuples of
ints and Fractions (offsets: integer numerators over one denominator); an
input error names the first bad JSON pointer.
Each ``*_from_doc(doc)`` then only resolves cross-references (ids, maximal
faces, wall resolutions, base faces and inclusions) and builds the object;
``family_from_doc`` builds one type per distinct face type document.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DimMismatch, InputError, UnknownFace
from .exact_linalg import _rat_str as rat_str, frac
from .family import (AffineFn, AffineMapN, Contraction, FaceCurveData, FaceLift, FamilyDatum,
                     ImageStratum, WallVerdict)
# canonical_form is not called here; perfbench/test_smoke.py checks that its tracer rebinds it here
from .moduli import WallGraph, canonical_form, canonical_string  # noqa: F401
from .polyhedral import (Face, FaceInclusion, Polyhedron, PolyhedralComplex, SemistablePairData,
                         Stratum, ValidationReport)
from .tropcurve import CombinatorialType, ParameterizedTropicalCurve, WeightedGraph

SCHEMA = "tropmoduli/1"


# Fraction(str) scales a decimal by 10**exponent: an exponent past the
# integer digit limit would take minutes to build
_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?[eE]"
                       r"([-+]?\d+(?:_\d+)*)\s*")


def _ratio(value, pointer: str):
    """A JSON int or rational string as (numerator, denominator), accepting
    what ``frac`` accepts, but refusing a decimal exponent past the integer
    digit limit (looked for only in a string holding an "e" or "E").  An int
    or a "p/q" string of ASCII digits builds no Fraction."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputError(f"expected a rational 'p/q' string, got {value!r}", pointer)
    try:
        if isinstance(value, int):
            return value, 1
        num, slash, den = value.partition("/")
        if value.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
            p, q = int(num), int(den) if slash else 1
            if q:
                return p, q
        if "e" in value or "E" in value:
            exponent = _EXPONENT.fullmatch(value)
            limit = sys.get_int_max_str_digits()  # 0: no limit
            if exponent and 0 < limit < abs(int(exponent[1])):
                raise ValueError(f"exponent exceeds {limit} in magnitude")
        x = frac(value)
        return x.numerator, x.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}: {exc}", pointer) from None


def parse_rat(value, pointer: str) -> Fraction:
    """``_ratio`` as a Fraction."""
    return Fraction(*_ratio(value, pointer))


def _over(node):
    """A node of ``_ratio`` pairs as (integer numerators, one denominator)."""
    def over(value, pointer):
        pairs = node(value, pointer)
        den = lcm(*(q for _, q in pairs))
        return tuple(p * (den // q) for p, q in pairs), den
    return over


def check_schema(doc, pointer=""):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object", pointer)
    if doc.get("schema") != SCHEMA:
        raise InputError(f'expected "schema": "{SCHEMA}"', f"{pointer}/schema")
    return doc


# ---------------------------------------------------------------------------
# objects from documents: one walk of SCHEMAS, then the cross-references
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _scalar(kind, message):
    """A JSON value of one Python type (JSON true/false are not integers)."""
    def scalar(value, pointer):
        if type(value) is not kind:
            raise InputError(message, pointer)
        return value
    scalar.kind = kind  # lists and objects pass a value of this type without a call
    return scalar


def _list(item, size=None, message="expected a list", late=False):
    """A JSON list as a tuple of item nodes; with a size, of exactly that many
    entries, the length checked first (with ``late``, after the entries)."""
    kind = getattr(item, "kind", None)
    early = size is not None and not late

    def items(value, pointer):
        if not isinstance(value, list) or early and len(value) != size:
            raise InputError(message if early else "expected a list", pointer)
        for x in value:
            if type(x) is not kind:
                value = tuple([item(x, f"{pointer}/{i}") for i, x in enumerate(value)])
                break
        else:
            value = tuple(value)
        if late and len(value) != size:
            raise InputError(message, pointer)
        return value
    return items


def _id_map(item):
    def ids(value, pointer):
        if not isinstance(value, dict):
            raise InputError("expected a JSON object", pointer)
        return {k: item(x, f"{pointer}/{k}") for k, x in value.items()}
    return ids


def _object(*fields, schema=False):
    """A JSON object with (key, node) required and (key, node, default)
    optional fields, checked in declared order after the schema key (when
    ``schema`` is set), as the tuple of their values.  A node given as
    (earlier key, make) is make(that key's value), cached per value: a dim
    or rank fixes the vector lengths inside the field."""
    index = {f[0]: i for i, f in enumerate(fields)}
    spec = []
    for key, node, *default in fields:
        given = None
        if isinstance(node, tuple):
            given, node = index[node[0]], lru_cache(maxsize=64)(node[1])
        spec.append((key, "/" + key, node, getattr(node, "kind", None), given,
                     default[0] if default else _REQUIRED))

    def obj(value, pointer):
        if schema:
            check_schema(value, pointer)
        elif not isinstance(value, dict):
            raise InputError("expected a JSON object", pointer)
        out = []
        for key, suffix, node, kind, given, default in spec:
            v = value.get(key, _REQUIRED)
            if v is _REQUIRED:
                if default is _REQUIRED:
                    raise InputError(f"missing key {key!r}", pointer)
                v = default
            elif type(v) is not kind:
                v = (node if given is None else node(out[given]))(v, pointer + suffix)
            out.append(v)
        return tuple(out)
    return obj


def _natural(message):
    def natural(value, pointer):
        if type(value) is not int or value < 0:
            raise InputError(message if type(value) is int else "expected an integer", pointer)
        return value
    return natural


def _positive(value, pointer):
    if (value := parse_rat(value, pointer)) <= 0:
        raise InputError("edge lengths must be positive", pointer)
    return value


_string, _integer = _scalar(str, "expected a string"), _scalar(int, "expected an integer")
_STRINGS, _INTS = _list(_string), _list(_integer)


def _chart(rank):
    def row(value, pointer):  # [normal..., offset], its length checked first
        if not isinstance(value, list) or len(value) != rank + 1:
            raise InputError(f"constraint row needs {rank} normal entries and an offset", pointer)
        return _INTS(value[:-1], pointer), parse_rat(value[-1], f"{pointer}/{rank}")
    return _object(("ineqs", _list(row), ()), ("eqs", _list(row), ()))


_COMPLEX = _object(
    ("faces", _list(_object(
        ("id", _string), ("rank", _natural("rank must be nonnegative")),
        ("chart", ("rank", _chart)), ("label", _string, "")))),
    ("inclusions", _list(_object(
        ("sub", _string), ("super", _string), ("linear", _list(_INTS)),
        ("offset", _over(_list(_ratio))))), ()),
    ("maximal", _STRINGS, None),
    schema=True)
_TYPE = _object(
    ("dim", _natural("dim must be nonnegative")),
    ("vertices", _list(_object(
        ("id", _string), ("weight", _natural("weights are nonnegative"), 0)))),
    ("edges", ("dim", lambda dim: _list(_object(
        ("id", _string), ("u", _string), ("v", _string),
        ("slope", _list(_integer, dim, f"slope needs {dim} entries", late=True)),
        ("length", _positive, None)))), ()),
    ("legs", ("dim", lambda dim: _list(_object(
        ("id", _string), ("v", _string),
        ("slope", _list(_integer, dim, f"slope needs {dim} entries", late=True))))), ()),
    ("positions", ("dim", lambda dim: _id_map(
        _list(parse_rat, dim, f"position needs {dim} entries"))), None),
    schema=True)
SCHEMAS = {
    "complex": _COMPLEX,
    "pair": _object(
        ("vertical", _STRINGS), ("horizontal", _STRINGS, ()),
        ("strata", _list(_object(
            ("id", _string), ("vertical", _STRINGS), ("horizontal", _STRINGS, ()),
            ("length", parse_rat)))),
        ("order", _list(_list(_string, 2, "order entries are [below, above] pairs")), ()),
        schema=True),
    "type": _TYPE,
    "types": _object(("types", _list(_object(("type", _TYPE)))), schema=True),
    "family": _object(
        ("dim", _natural("dim must be nonnegative")),
        ("extended_degree", _list(_INTS)),
        ("base", _COMPLEX),
        ("faces", ("dim", lambda dim: _list(_object(
            ("face", _string), ("type", _TYPE),
            ("lengths", _id_map(_object(("linear", _INTS), ("offset", _ratio))), {}),
            ("positions", _id_map(_object(
                ("linear", _list(_INTS, dim, f"linear needs {dim} entries", late=True)),
                ("offset", _over(_list(_ratio, dim, f"offset needs {dim} entries", late=True))))),
             {}))))),
        ("contractions", _list(_object(
            ("sub", _string), ("super", _string),
            ("vertex_map", _id_map(_string)), ("edge_map", _id_map(_string), {}))), ()),
        schema=True),
    "wallgraph": _object(
        ("nodes", _list(_object(("id", _string), ("type", _TYPE)))),
        ("walls", _list(_object(("id", _string), ("type", _TYPE), ("resolutions", _STRINGS))),
         ()),
        schema=True),
    "seeds": _object(("seeds", _STRINGS)),
}


def _check_known(keys, known, what, pointer):
    for k in keys:
        if k not in known:
            raise InputError(f"{what} {k!r}", f"{pointer}/{k}")


def _complex(checked, pointer) -> PolyhedralComplex:
    faces, inclusions, maximal = checked
    declared = {f[0] for f in faces}
    for i, fid in enumerate(maximal or ()):
        if fid not in declared:
            raise InputError("expected the id of a declared face", f"{pointer}/maximal/{i}")
    try:
        return PolyhedralComplex([Face(fid, rank, Polyhedron(rank, ineqs, eqs), label)
                                  for fid, rank, (ineqs, eqs), label in faces],
                                 [FaceInclusion(sub, sup, linear, *offset)
                                  for sub, sup, linear, offset in inclusions], maximal)
    except (ValueError, KeyError, UnknownFace, DimMismatch) as exc:
        raise InputError(str(exc), pointer) from None


def complex_from_doc(doc) -> PolyhedralComplex:
    return _complex(SCHEMAS["complex"](doc, ""), "")


def pair_from_doc(doc) -> SemistablePairData:
    vertical, horizontal, strata, order = SCHEMAS["pair"](doc, "")
    return SemistablePairData(vertical, horizontal, tuple(Stratum(*s) for s in strata), order)


def _type(checked, pointer):
    dim, vertices, edges, legs, positions = checked
    slopes = {e[0]: e[3] for e in edges}
    slopes.update({lid: slope for lid, _, slope in legs})
    try:
        graph = WeightedGraph(vertices, tuple([e[:3] for e in edges]),
                              tuple([l[:2] for l in legs]))
        t = CombinatorialType(graph, slopes, dim)
    except ValueError as exc:
        raise InputError(str(exc), pointer) from None
    if positions is not None:
        _check_known(positions, set(graph.vertex_ids()), "position for unknown vertex",
                     f"{pointer}/positions")
    return t, {e[0]: e[4] for e in edges if e[4] is not None} or None, positions


def type_from_doc(doc):
    """Returns (CombinatorialType, lengths or None, positions or None)."""
    return _type(SCHEMAS["type"](doc, ""), "")


def types_from_doc(doc):
    (types,) = SCHEMAS["types"](doc, "")
    return [_type(t, f"/types/{i}/type")[0] for i, (t,) in enumerate(types)]


def family_from_doc(doc) -> FamilyDatum:
    dim, ext, base, faces, contractions = SCHEMAS["family"](doc, "")
    base = _complex(base, "/base")
    face_data, types = {}, {}
    for i, (fid, t, lengths, positions) in enumerate(faces):
        p = f"/faces/{i}"
        if fid in face_data:
            raise InputError(f"repeated face {fid!r}", f"{p}/face")
        if fid not in base.faces:
            raise InputError(f"face {fid!r} is not in the base", f"{p}/face")
        key = t[:4]  # equal checked types share one object; positions are checked per face
        if t[4] is not None or key not in types:
            types[key] = _type(t, f"{p}/type")[0]
        t = types[key]
        _check_known(lengths, {e for e, _, _ in t.graph.edges}, "length for unknown edge",
                     f"{p}/lengths")
        _check_known(positions, set(t.graph.vertex_ids()), "position for unknown vertex",
                     f"{p}/positions")
        face_data[fid] = FaceCurveData(
            t, {e: AffineFn(lin, *off) for e, (lin, off) in lengths.items()},
            {v: AffineMapN(lin, *off) for v, (lin, off) in positions.items()})
    contracted = {}
    for i, (sub, sup, vertex_map, edge_map) in enumerate(contractions):
        p = f"/contractions/{i}"
        if (sub, sup) in contracted:
            raise InputError(f"repeated contraction {sub!r} -> {sup!r}", p)
        if (sub, sup) not in base.inclusions:
            raise InputError(f"{sub!r} -> {sup!r} is not an inclusion of the base", p)
        contracted[(sub, sup)] = Contraction(vertex_map, dict(edge_map))
    return FamilyDatum(base, dim, ext, face_data, contracted)


def wallgraph_from_doc(doc) -> WallGraph:
    nodes, walls = SCHEMAS["wallgraph"](doc, "")
    nodes = tuple((nid, _type(t, f"/nodes/{i}/type")[0])
                  for i, (nid, t) in enumerate(nodes))
    node_ids = {nid for nid, _ in nodes}
    built = []
    for i, (wid, t, res) in enumerate(walls):
        p = f"/walls/{i}"
        built.append((wid, _type(t, f"{p}/type")[0], res))
        for j, nid in enumerate(res):
            if nid not in node_ids:
                raise InputError(f"resolution {nid!r} is not a node id", f"{p}/resolutions/{j}")
    return WallGraph(nodes, tuple(built))


# ---------------------------------------------------------------------------
# documents from objects
# ---------------------------------------------------------------------------

def _affine_to_doc(linear, num, den):
    return {"linear": [list(r) for r in linear], "offset": [rat_str(n, den) for n in num]}


def _chart_to_doc(p: Polyhedron):
    return {key: [list(n) + [rat_str(o)] for n, o in rows]
            for key, rows in (("ineqs", p.ineqs), ("eqs", p.eqs))}


def complex_to_doc(c: PolyhedralComplex) -> dict:
    return {
        "schema": SCHEMA,
        "faces": [{"id": f.id, "rank": f.rank, "chart": _chart_to_doc(f.chart),
                   **({"label": f.label} if f.label else {})} for _, f in sorted(c.faces.items())],
        "inclusions": [{"sub": i.sub, "super": i.super, **_affine_to_doc(i.linear, i.num, i.den)}
                       for _, i in sorted(c.inclusions.items())],
        "maximal": sorted(c.maximal_faces),
    }


def pair_to_doc(d: SemistablePairData) -> dict:
    return {
        "schema": SCHEMA,
        "vertical": list(d.vertical_components),
        "horizontal": list(d.horizontal_components),
        "strata": [{"id": s.id, "vertical": list(s.verticals), "horizontal": list(s.horizontals),
                    "length": rat_str(s.length)} for s in d.strata],
        "order": [list(p) for p in d.order],
    }


def type_to_doc(t: CombinatorialType, lengths=None, positions=None) -> dict:
    doc = {
        "schema": SCHEMA,
        "dim": t.dim,
        "vertices": [{"id": v, "weight": w} for v, w in t.graph.vertices],
        "edges": [{"id": e, "u": u, "v": v, "slope": list(t.slopes[e]),
                   **({"length": rat_str(lengths[e])} if lengths else {})}
                  for e, u, v in t.graph.edges],
        "legs": [{"id": l, "v": v, "slope": list(t.slopes[l])} for l, v in t.graph.legs],
    }
    if positions:
        doc["positions"] = {v: [rat_str(x) for x in pos] for v, pos in sorted(positions.items())}
    return doc


def curve_to_doc(p: ParameterizedTropicalCurve) -> dict:
    return type_to_doc(p.type, lengths=p.curve.lengths, positions=p.positions)


def _typed_to_doc(t: CombinatorialType, **fields) -> dict:
    return {**fields, "canonical": canonical_string(t), "type": type_to_doc(t)}


def types_to_doc(types) -> dict:
    return {"schema": SCHEMA, "types": [_typed_to_doc(t) for t in types]}


def family_to_doc(f: FamilyDatum) -> dict:
    return {
        "schema": SCHEMA,
        "dim": f.dim,
        "extended_degree": [list(s) for s in f.extended_degree],
        "base": complex_to_doc(f.base),
        "faces": [{"face": fid, "type": type_to_doc(data.type),
                   "lengths": {e: {"linear": list(fn.linear), "offset": rat_str(fn.num, fn.den)}
                               for e, fn in sorted(data.lengths.items())},
                   "positions": {v: _affine_to_doc(mp.linear, mp.num, mp.den)
                                 for v, mp in sorted(data.positions.items())}}
                  for fid, data in sorted(f.face_data.items())],
        "contractions": [{"sub": sub, "super": sup,
                          "vertex_map": dict(sorted(c.vertex_map.items())),
                          "edge_map": dict(sorted(c.edge_map.items()))}
                         for (sub, sup), c in sorted(f.contractions.items())],
    }


def wallgraph_to_doc(wg: WallGraph) -> dict:
    return {
        "schema": SCHEMA,
        "nodes": [_typed_to_doc(t, id=nid) for nid, t in wg.nodes],
        "walls": [_typed_to_doc(t, id=wid, resolutions=list(res)) for wid, t, res in wg.walls],
    }


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
    return {"violations": [{"axiom": v.axiom, "subject": v.subject, "message": v.message}
                           for v in report.violations]}


def lift_to_doc(lift: FaceLift, type_docs=None) -> dict:
    """Lifts given one ``type_docs`` (id -> document) share each type's document."""
    type_docs = {} if type_docs is None else type_docs
    if id(lift.type) not in type_docs:
        type_docs[id(lift.type)] = type_to_doc(lift.type)
    return {"face": lift.face, "canonical": lift.canonical, "type": type_docs[id(lift.type)],
            "lift": _affine_to_doc(lift.linear, lift.num, lift.den), "image_dim": lift.rank()}


def image_stratum_to_doc(s: ImageStratum) -> dict:
    return {"canonical": s.canonical, "image_dim": s.image_dim, "stratum_dim": s.stratum_dim,
            "full_dimensional": s.full_dimensional}
