"""A fuzzer for the CLI contract.

Every file-reading verb runs on a valid document with one or two nodes
deleted, given another JSON type, or duplicated, or with an edge or leg id
renamed to another edge or leg id of its type, and ``enumerate`` runs on
malformed flags.  Each run must end with exit 0, 1 or 2 and a report
with exactly the five report keys whose status matches the exit code; no
exception may escape ``cli.main``.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tropmoduli import documents as docs
from tropmoduli.cli import main
from tropmoduli.errors import InputError
from tropmoduli.family import AffineFn
from tropmoduli.moduli import resolve_4valent, wall_graph
from tropmoduli.polyhedral import build_skeleton

from helpers import (
    RETYPED,
    cross_type,
    id_paths,
    json_paths,
    mutated,
    path_family,
    ray_wall_family,
    resolution_type,
    triangle_pair_data,
)

_REPORT_KEYS = {"schema", "verb", "status", "payload", "summary"}
_STATUS = {0: "ok", 1: "violations", 2: "error"}

_FAMILY = docs.family_to_doc(path_family([(1, 2), (2, 4)], [Fraction(3, 2), 2]))
_WALLGRAPH = docs.wallgraph_to_doc(wall_graph(resolve_4valent(cross_type(), "v")))
_RESOLVED = resolution_type(2)
_CURVE = docs.type_to_doc(_RESOLVED, lengths={"e": Fraction(2)}, positions={
    "va": (0, 0), "vb": tuple(2 * x for x in _RESOLVED.slopes["e"])})

# verb, input document, flags after the input path
SEEDS = [
    ("validate-complex", docs.complex_to_doc(build_skeleton(triangle_pair_data())), []),
    ("skeleton", docs.pair_to_doc(triangle_pair_data()), []),
    ("validate-curve", _CURVE, []),
    ("classify", docs.type_to_doc(cross_type()), []),
    ("resolve", docs.type_to_doc(cross_type()), []),
    ("wallgraph", docs.types_to_doc(resolve_4valent(cross_type(), "v")), []),
    ("validate-family", _FAMILY, []),
    ("fiber", _FAMILY, ["--face", "E2", "--point", '["1/2"]']),
    ("alpha", _FAMILY, []),
    ("verdicts", _FAMILY, []),
    ("propagate", _WALLGRAPH, ["--seeds", _WALLGRAPH["nodes"][0]["id"]]),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _run(workdir, argv):
    out = workdir / "report.json"
    code = main(argv + ["-o", str(out)])
    report = json.loads(out.read_text())
    assert code in _STATUS, (argv, code)
    assert set(report) == _REPORT_KEYS, (argv, report)
    assert report["status"] == _STATUS[code], (argv, report)
    return code


@pytest.mark.parametrize("verb, doc, flags", SEEDS, ids=[verb for verb, _, _ in SEEDS])
def test_seed_documents_are_valid(workdir, verb, doc, flags):
    path = workdir / "seed.json"
    path.write_text(json.dumps(doc))
    assert _run(workdir, [verb, str(path)] + flags) == 0


@st.composite
def _mutated_input(draw):
    verb, doc, flags = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 2))):
        paths, ids = list(json_paths(doc)), id_paths(doc)
        kind = draw(st.sampled_from((["delete", "duplicate"] if len(paths) > 1 else []) +
                                    ["retype"] + (["rename"] if ids else [])))
        if kind == "rename":
            doc = mutated(doc, kind, draw(st.sampled_from(ids)), draw(st.integers(0, 9)))
        else:
            path = draw(st.sampled_from(paths if kind == "retype" else paths[1:]))
            doc = mutated(doc, kind, path, draw(st.sampled_from(RETYPED)))
    return verb, doc, flags


_FUZZ = settings(max_examples=300, derandomize=True, deadline=5000, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(_mutated_input())
def test_file_reading_verbs_keep_the_contract_on_mutated_documents(workdir, case):
    verb, doc, flags = case
    path = workdir / "input.json"
    path.write_text(json.dumps(doc))
    _run(workdir, [verb, str(path)] + flags)


_DEGREES = st.one_of(
    st.sampled_from(["[[1,0],[0,1],[-1,-1]]", "[]", "[[1,0],[0,1,2]]", "[[0,0],[1,1]]",
                     "[[1,true],[0,1]]", "[1,2]", "{}", "null", "[[\"1/2\",0]]", "[[", "x"]),
    st.lists(st.lists(st.integers(-2, 2), min_size=0, max_size=3), max_size=4).map(json.dumps))


@_FUZZ
@given(_DEGREES, st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 2),
       st.one_of(st.none(), st.integers(-1, 3)))
def test_enumerate_keeps_the_contract_on_malformed_flags(workdir, degree, genus, contracted,
                                                         max_edges, dim):
    argv = ["enumerate", "--degree", degree, "--genus", str(genus),
            "--contracted", str(contracted), "--max-edges", str(max_edges)]
    _run(workdir, argv + ([] if dim is None else ["--dim", str(dim)]))


_HUGE_INT = "9" * 5000  # past CPython's 4,300-digit limit on int parsing


@pytest.mark.parametrize("where, detail", [("document", "4300"), ("degree", "4300"),
                                           ("point", "4300"), ("encoding", "utf-8")])
def test_json_that_python_cannot_load_is_an_input_error(workdir, where, detail):
    family, bad = workdir / "family.json", workdir / "bad.json"
    family.write_text(json.dumps(_FAMILY))
    bad.write_text(f'{{"schema": "{docs.SCHEMA}", "dim": {_HUGE_INT}}}')
    if where == "encoding":
        bad.write_bytes(b'{"schema": "\xff"}')
    argv = {"document": ["classify", str(bad)],
            "encoding": ["classify", str(bad)],
            "degree": ["enumerate", "--degree", f"[[{_HUGE_INT}, 0]]", "--genus", "0",
                       "--max-edges", "1"],
            "point": ["fiber", str(family), "--face", "E2", "--point", f"[{_HUGE_INT}]"]}[where]
    assert _run(workdir, argv) == 2
    report = json.loads((workdir / "report.json").read_text())
    assert report["schema"] == docs.SCHEMA and report["verb"] == argv[0]
    assert set(report["payload"]) == {"pointer", "message"}
    assert "is not valid JSON" in report["payload"]["message"]
    assert detail in report["payload"]["message"]


def _json_message(text):
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is valid JSON")


# source, case, input bytes (a UTF-8 argument for the flags), json's own message
_UNLOADABLE = [
    (source, case, data, message)
    for source in ("file", "--degree", "--point")
    for case, data, message in (
        ("huge-int", f"[[{_HUGE_INT}, 0]]".encode(), _json_message(f"[[{_HUGE_INT}, 0]]")),
        ("trailing", b"[[1, 0]] ]", "Extra data: line 1 column 10 (char 9)"),
        ("trailing-crlf", b"[[1, 0]]\r\n]", "Extra data: line 2 column 1 (char 9)"),
        ("utf-8", b"[[1, 0]]\xff",
         "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"))
    if source == "file" or case not in ("utf-8", "trailing-crlf")]


@pytest.mark.parametrize("source, case, data, message", _UNLOADABLE,
                         ids=[f"{source}-{case}" for source, case, _, _ in _UNLOADABLE])
def test_unloadable_json_reports_json_s_own_message_at_the_root(workdir, source, case, data,
                                                                message):
    """An input file, --degree and --point fail alike: exit 2, pointer "" and
    "<what> is not valid JSON: <json's message>", the file read as text (so
    a CRLF counts as one character)."""
    family, bad = workdir / "family.json", workdir / "bad.json"
    family.write_text(json.dumps(_FAMILY))
    bad.write_bytes(data)
    if source == "file":
        argv = ["classify", str(bad)]
    elif source == "--degree":
        argv = ["enumerate", "--degree", data.decode(), "--genus", "0", "--max-edges", "1"]
    else:
        argv = ["fiber", str(family), "--face", "E2", "--point", data.decode()]
    assert _run(workdir, argv) == 2
    what = str(bad) if source == "file" else source
    error = f"{what} is not valid JSON: {message}"
    want = {"schema": docs.SCHEMA, "verb": argv[0], "status": "error",
            "payload": {"pointer": "", "message": error}, "summary": f"input error: {error}"}
    assert (workdir / "report.json").read_bytes() == \
        (json.dumps(want, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("where", ["document", "point"])
def test_rational_with_a_huge_exponent_is_an_input_error(workdir, where):
    """Fraction("1e10000000") would build 10**10000000; the exponent is
    refused at its pointer instead."""
    path = workdir / "input.json"
    if where == "document":
        curve = json.loads(json.dumps(_CURVE))
        curve["edges"][0]["length"] = "1e10000000"
        path.write_text(json.dumps(curve))
        argv, pointer = ["validate-curve", str(path)], "/edges/0/length"
    else:
        path.write_text(json.dumps(_FAMILY))
        argv = ["fiber", str(path), "--face", "E2", "--point", '["1e10000000"]']
        pointer = "/point/0"
    assert _run(workdir, argv) == 2
    payload = json.loads((workdir / "report.json").read_text())["payload"]
    assert payload["pointer"] == pointer
    assert "bad rational" in payload["message"] and "exponent" in payload["message"]


@pytest.mark.parametrize("text", ["1e10000000", "1E+10_000_000", "-.5e-4301", "2.e4301"])
def test_parse_rat_refuses_exponents_past_the_digit_limit(text):
    with pytest.raises(InputError, match="bad rational .* exponent exceeds 4300"):
        docs.parse_rat(text, "/x")


@pytest.mark.parametrize("text, value", [("1e4300", Fraction(10) ** 4300),
                                         ("-1_0e-4_300", -Fraction(1, 10 ** 4299)),
                                         ("1.5e3", Fraction(1500))])
def test_parse_rat_keeps_exponents_within_the_digit_limit(text, value):
    assert docs.parse_rat(text, "/x") == value


# a point coordinate past the digit limit once printed: outside E2 it is
# named in the PointNotInComplex message, inside E2 it reaches the report
_DIGIT_LIMIT_POINTS = [('["1e4300"]', 2, "input"), ('["-1e4300"]', 2, "input"),
                       (f'["1/{"3" * 4300}"]', 2, "input"),
                       ('["1e4299"]', 2, "PointNotInComplex"), ('["1e-4299"]', 0, None)]


@pytest.mark.parametrize("point, code, error", _DIGIT_LIMIT_POINTS,
                         ids=["1e4300", "-1e4300", "1/3...3", "1e4299", "1e-4299"])
def test_fiber_point_past_the_digit_limit_is_an_input_error(workdir, point, code, error):
    path = workdir / "family.json"
    path.write_text(json.dumps(_FAMILY))
    assert _run(workdir, ["fiber", str(path), "--face", "E2", "--point", point]) == code
    payload = json.loads((workdir / "report.json").read_text())["payload"]
    if error == "input":
        assert payload == {"pointer": "", "message": "a rational with more than 4300 digits "
                                                     "(the integer digit limit) cannot be written"}
    elif error:
        assert payload["error"] == error


def test_family_message_past_the_digit_limit_is_an_input_error(workdir):
    """A ray from 10**4300 whose edge relation fails: the violation would
    name the ray's vertex, which has 4,301 digits."""
    doc = docs.family_to_doc(path_family([(1, 2)], [Fraction(2)]))
    base = doc["base"]
    base["faces"] = [f for f in base["faces"] if f["id"] != "P1"]
    base["inclusions"] = [{**i, "offset": ["1e4300"]} for i in base["inclusions"]
                          if i["sub"] == "P0"]
    base["maximal"] = ["E1"]
    ray = next(f for f in base["faces"] if f["id"] == "E1")
    ray["chart"]["ineqs"] = [[1, "1e4300"]]
    doc["faces"] = [{**f, "lengths": {"e": {**f["lengths"]["e"], "offset": "5"}}}
                    for f in doc["faces"] if f["face"] != "P1"]
    doc["contractions"] = [c for c in doc["contractions"] if c["sub"] == "P0"]
    path = workdir / "family.json"
    path.write_text(json.dumps(doc))
    assert _run(workdir, ["validate-family", str(path)]) == 2
    payload = json.loads((workdir / "report.json").read_text())["payload"]
    assert "4300 digits" in payload["message"]
    ray["chart"]["ineqs"], base["inclusions"][0]["offset"] = [[1, "7"]], ["7"]
    path.write_text(json.dumps(doc))
    assert _run(workdir, ["validate-family", str(path)]) == 1


def test_negative_length_at_a_vertex_past_the_digit_limit_is_an_input_error(workdir):
    """A ray from 10**4300 with length -10·t: the violation names the ray's
    vertex, which has 4,301 digits; from 7 it names ('7',)."""
    doc = docs.family_to_doc(path_family([(1, 2)], [Fraction(2)]))
    base = doc["base"]
    base["faces"] = [f for f in base["faces"] if f["id"] != "P1"]
    base["inclusions"] = [{**i, "offset": ["1e4300"]} for i in base["inclusions"]
                          if i["sub"] == "P0"]
    base["maximal"] = ["E1"]
    ray = next(f for f in base["faces"] if f["id"] == "E1")
    ray["chart"]["ineqs"] = [[1, "1e4300"]]
    doc["faces"] = [f for f in doc["faces"] if f["face"] != "P1"]
    next(f for f in doc["faces"] if f["face"] == "E1")["lengths"]["e"] = \
        {"linear": [-10], "offset": "0"}
    doc["contractions"] = [c for c in doc["contractions"] if c["sub"] == "P0"]
    path = workdir / "family.json"
    path.write_text(json.dumps(doc))
    assert _run(workdir, ["validate-family", str(path)]) == 2
    payload = json.loads((workdir / "report.json").read_text())["payload"]
    assert payload == {"pointer": "", "message": "a rational with more than 4300 digits "
                                                 "(the integer digit limit) cannot be written"}
    ray["chart"]["ineqs"], base["inclusions"][0]["offset"] = [[1, "7"]], ["7"]
    path.write_text(json.dumps(doc))
    assert _run(workdir, ["validate-family", str(path)]) == 1
    violations = json.loads((workdir / "report.json").read_text())["payload"]["violations"]
    assert "length of 'e' is negative at vertex ('7',)" in [v["message"] for v in violations]


@pytest.mark.parametrize("point, payload", [
    ('["1e4299"]', {"pointer": "", "message": "a rational with more than 4300 digits "
                                              "(the integer digit limit) cannot be written"}),
    ('["1/2"]', {"error": "InvalidFamily",
                 "message": "length of 'e' is -5 at an interior point of 'R0'"})],
    ids=["1e4299", "1/2"])
def test_fiber_length_past_the_digit_limit_is_an_input_error(workdir, point, payload):
    """The length -10·t on a ray, at t = 10**4299, is -10**4300, which has
    4,301 digits; at t = 1/2 the fiber is refused and names the value -5."""
    f = ray_wall_family((1,))
    f.face_data["R0"].lengths["e"] = AffineFn((-10,), Fraction(0))
    path = workdir / "family.json"
    path.write_text(json.dumps(docs.family_to_doc(f)))
    assert _run(workdir, ["fiber", str(path), "--face", "R0", "--point", point]) == 2
    assert json.loads((workdir / "report.json").read_text())["payload"] == payload


def test_verdicts_on_a_face_without_cofacets_is_an_error(workdir):
    """The ray R0 of the ray-wall family has no cofacet: ``wall_verdict``
    raises NoCofacets, which the CLI reports with exit 2."""
    path = workdir / "family.json"
    path.write_text(json.dumps(docs.family_to_doc(ray_wall_family((1,)))))
    assert _run(workdir, ["verdicts", str(path), "--face", "O", "--face", "R0"]) == 2
    assert json.loads((workdir / "report.json").read_text())["payload"] == {
        "error": "NoCofacets", "message": "face 'R0' has no codimension-one cofacets"}


def test_fiber_on_cyclic_inclusions_is_an_input_error(workdir):
    """Faces A and B, both the segment [0, 1], include into each other.  A
    boundary point of A is looked up only in sub-faces of smaller rank, so
    it is not covered, rather than recursing around the cycle."""
    segment = {"ineqs": [[1, "0"], [-1, "-1"]], "eqs": []}
    curve = {"schema": docs.SCHEMA, "dim": 1, "vertices": [{"id": "v", "weight": 0}],
             "edges": [], "legs": [{"id": "l0", "v": "v", "slope": [1]},
                                   {"id": "l1", "v": "v", "slope": [-1]}]}
    doc = {"schema": docs.SCHEMA, "dim": 1, "extended_degree": [[1], [-1]],
           "base": {"schema": docs.SCHEMA, "maximal": ["A", "B"],
                    "faces": [{"id": f, "rank": 1, "chart": segment} for f in "AB"],
                    "inclusions": [{"sub": a, "super": b, "linear": [[1]], "offset": ["0"]}
                                   for a, b in ("AB", "BA")]},
           "faces": [{"face": f, "type": curve, "lengths": {},
                      "positions": {"v": {"linear": [[0]], "offset": ["0"]}}} for f in "AB"],
           "contractions": [{"sub": a, "super": b, "vertex_map": {"v": "v"}, "edge_map": {}}
                            for a, b in ("AB", "BA")]}
    path = workdir / "family.json"
    path.write_text(json.dumps(doc))
    assert _run(workdir, ["fiber", str(path), "--face", "A", "--point", '["0"]']) == 2
    payload = json.loads((workdir / "report.json").read_text())["payload"]
    assert payload == {"error": "PointNotInComplex",
                       "message": "boundary point ('0',) of 'A' is not covered by a sub-face"}


_COORDINATES = st.one_of(
    st.fractions().map(str), st.integers(-5, 5),
    st.sampled_from(["1e4300", "-1e4300", "1e-4300", "1e4299", "1e10000000", "1.5e3", "+1/2",
                     " 1", "1/0", "x", "9" * 4301, "1/" + "3" * 4300, "1/" + "0" * 5000]),
    st.none(), st.booleans(), st.floats(allow_nan=False), st.lists(st.integers(), max_size=2))
_POINTS = st.one_of(
    st.lists(_COORDINATES, max_size=3).map(json.dumps),
    st.sampled_from(["[", "", "{}", "null", '"1/2"', "[NaN]", "[1e400]", f"[{_HUGE_INT}]",
                     '["1/2",]']))


@_FUZZ
@given(st.sampled_from(["E1", "E2", "P0", "nope"]), _POINTS)
def test_fiber_keeps_the_contract_on_malformed_points(workdir, face, point):
    path = workdir / "family.json"
    path.write_text(json.dumps(_FAMILY))
    _run(workdir, ["fiber", str(path), "--face", face, "--point", point])


def _type_doc(vertices, edges, legs, dim=1):
    """A type document from (id, u, v, slope) edges and (id, vertex, slope) legs."""
    return {"schema": docs.SCHEMA, "dim": dim,
            "vertices": [{"id": v, "weight": 0} for v in vertices],
            "edges": [{"id": e, "u": u, "v": v, "slope": s} for e, u, v, s in edges],
            "legs": [{"id": l, "v": v, "slope": s} for l, v, s in legs]}


# balanced: at a, edge x (+1) and legs y (+1), x (-2); at b, edge x (-1) and leg z (+1)
_SHARED_ID = _type_doc(["a", "b"], [("x", "a", "b", [1])],
                       [("y", "a", [1]), ("x", "a", [-2]), ("z", "b", [1])])


@pytest.mark.parametrize("verb", ["validate-curve", "classify", "resolve", "in-family"])
def test_an_id_naming_an_edge_and_a_leg_is_an_input_error(workdir, verb):
    """Slopes are keyed by edge and leg ids alike, so a shared id would give
    the edge the leg's slope; the document is refused at its type."""
    doc, pointer = _SHARED_ID, ""
    if verb == "in-family":
        doc = json.loads(json.dumps(_FAMILY))
        legs = doc["faces"][0]["type"]["legs"]
        legs[0]["id"] = doc["faces"][0]["type"]["edges"][0]["id"]
        verb, pointer = "validate-family", "/faces/0/type"
    path = workdir / "shared.json"
    path.write_text(json.dumps(doc))
    assert _run(workdir, [verb, str(path)]) == 2
    payload = json.loads((workdir / "report.json").read_text())["payload"]
    assert payload["pointer"] == pointer
    assert payload["message"].endswith("names both an edge and a leg")


def test_resolve_picks_its_new_edge_id_fresh_against_leg_ids(workdir):
    cross = docs.type_to_doc(cross_type())
    cross["legs"][0]["id"] = "eres"
    path = workdir / "cross.json"
    path.write_text(json.dumps(cross))
    assert _run(workdir, ["resolve", str(path)]) == 0
    types = json.loads((workdir / "report.json").read_text())["payload"]["types"]
    assert len(types) == 3
    for t in types:
        assert [e["id"] for e in t["type"]["edges"]] == ["eres'"]
        assert [l["id"] for l in t["type"]["legs"]] == ["eres", "l1", "l2", "l3"]


def _saved_report(workdir):
    return json.loads((workdir / "report.json").read_text())


@pytest.mark.parametrize("first, second, summary", [
    (SEEDS[1], ("validate-complex", []), "complex with 7 faces is valid"),
    (SEEDS[5], ("propagate", ["--seeds", "n0"]), "closure has 3 nodes"),
], ids=["skeleton-then-validate-complex", "wallgraph-then-propagate"])
def test_a_saved_report_stands_in_for_its_payload(workdir, first, second, summary):
    """Verbs chain: a report saved with ``-o`` reads as its payload document,
    and the next verb writes the report that the bare payload gives."""
    verb, doc, flags = first
    path, saved = workdir / "first.json", workdir / "saved.json"
    path.write_text(json.dumps(doc))
    assert main([verb, str(path), *flags, "-o", str(saved)]) == 0
    verb, flags = second
    assert _run(workdir, [verb, str(saved), *flags]) == 0
    chained = _saved_report(workdir)
    assert (chained["status"], chained["summary"]) == ("ok", summary)
    path.write_text(json.dumps(json.loads(saved.read_text())["payload"]))
    assert _run(workdir, [verb, str(path), *flags]) == 0
    assert _saved_report(workdir) == chained


@pytest.mark.parametrize("case", ["unreadable-input", "resolve-without-4-valent-vertex",
                                  "propagate-without-seeds"])
def test_refusals_outside_the_document_schemas(workdir, case):
    """An input path that cannot be read, ``resolve`` with no 4-valent vertex
    to pick and ``propagate`` with no seeds are input errors at pointer ""."""
    path = workdir / "input.json"
    if case == "unreadable-input":
        path = workdir / "missing.json"
        argv = ["classify", str(path)]
        message = f"cannot read {path}: [Errno 2] No such file or directory: {str(path)!r}"
    elif case == "resolve-without-4-valent-vertex":
        path.write_text(json.dumps(docs.type_to_doc(resolution_type(2))))
        argv, message = ["resolve", str(path)], "type has no 4-valent vertex; pass --vertex explicitly"
    else:
        path.write_text(json.dumps(_WALLGRAPH))
        argv, message = ["propagate", str(path)], "pass --seeds or --seeds-file"
    assert _run(workdir, argv) == 2
    report = _saved_report(workdir)
    assert report["status"] == "error"
    assert report["payload"] == {"pointer": "", "message": message}
    assert report["summary"] == f"input error: {message}"


_NINES = int("9" * 4300)  # the longest integer within the digit limit; twice it is not


def _digit_limit_input(case):
    if case == "validate-curve":  # the slope sum at the one vertex
        return _type_doc(["v"], [], [("l0", "v", [_NINES]), ("l1", "v", [_NINES])])
    if case == "resolve":  # the slope of the resolution's new edge, in its canonical string
        return _type_doc(["v"], [], [(f"l{i}", "v", [sx * _NINES, sy]) for i, (sx, sy)
                                     in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)])], dim=2)
    return {"schema": docs.SCHEMA, "vertical": ["A", "B", "C"], "horizontal": [],
            "strata": [{"id": "s", "vertical": ["A", "B", "C"], "horizontal": [],
                        "length": "1e4300"},
                       {"id": "t", "vertical": ["A", "B"], "horizontal": [], "length": "1"}],
            "order": [["s", "t"]]}  # the lengths, in the length-mismatch message


@pytest.mark.parametrize("verb", ["validate-curve", "resolve", "skeleton"])
def test_numbers_built_past_the_digit_limit_are_input_errors(workdir, verb):
    path = workdir / "input.json"
    path.write_text(json.dumps(_digit_limit_input(verb)))
    assert _run(workdir, [verb, str(path)]) == 2
    payload = json.loads((workdir / "report.json").read_text())["payload"]
    assert payload == {"pointer": "", "message": "a rational with more than 4300 digits "
                                                 "(the integer digit limit) cannot be written"}
