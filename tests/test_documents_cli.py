import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropmoduli import cli, documents as docs, moduli
from tropmoduli.cli import main
from tropmoduli.errors import InputError
from tropmoduli.family import propagate_closure, validate_family
from tropmoduli.moduli import canonical_string, resolve_4valent, wall_graph
from tropmoduli.polyhedral import validate_complex

from helpers import (
    cross_type,
    path_family,
    point_family,
    quadrant_complex,
    ray_pair_data,
    ray_wall_family,
    resolution_type,
    segment_family,
    segment_pair_data,
    template_pair_data,
    triangle_pair_data,
    two_ray_resolution_family,
)


# ---------------------------------------------------------------------------
# document round trips
# ---------------------------------------------------------------------------

def test_complex_doc_round_trip():
    from tropmoduli.polyhedral import build_skeleton
    sk = build_skeleton(triangle_pair_data())
    doc = docs.complex_to_doc(sk)
    back = docs.complex_from_doc(json.loads(json.dumps(doc)))
    assert sorted(back.faces) == sorted(sk.faces)
    assert sorted(back.inclusions) == sorted(sk.inclusions)
    assert validate_complex(back).ok
    assert docs.complex_to_doc(back) == doc


def test_pair_doc_round_trip():
    d = segment_pair_data()
    doc = docs.pair_to_doc(d)
    back = docs.pair_from_doc(json.loads(json.dumps(doc)))
    assert back == d


def test_type_doc_round_trip():
    t = resolution_type(2)
    doc = docs.type_to_doc(t, lengths={"e": Fraction(3, 2)},
                           positions={"va": (0, 0), "vb": (1, 2)})
    t2, lengths, positions = docs.type_from_doc(json.loads(json.dumps(doc)))
    assert canonical_string(t2) == canonical_string(t)
    assert lengths == {"e": Fraction(3, 2)}
    assert positions == {"va": (0, 0), "vb": (1, 2)}


def test_family_doc_round_trip():
    f = ray_wall_family((1, 2))
    doc = docs.family_to_doc(f)
    back = docs.family_from_doc(json.loads(json.dumps(doc)))
    assert back.dim == f.dim
    assert back.extended_degree == f.extended_degree
    assert sorted(back.face_data) == sorted(f.face_data)
    assert docs.family_to_doc(back) == doc


def test_wallgraph_doc_round_trip():
    wg = wall_graph(resolve_4valent(cross_type(), "v"))
    doc = docs.wallgraph_to_doc(wg)
    back = docs.wallgraph_from_doc(json.loads(json.dumps(doc)))
    assert back.node_ids() == wg.node_ids()
    assert [w[0] for w in back.walls] == [w[0] for w in wg.walls]
    assert propagate_closure(back, {back.node_ids()[0]}).closure == \
        tuple(sorted(back.node_ids()))


def test_schema_errors_carry_pointers():
    with pytest.raises(InputError) as exc:
        docs.complex_from_doc({"schema": "nope"})
    assert exc.value.pointer == "/schema"
    with pytest.raises(InputError) as exc:
        docs.complex_from_doc({"schema": docs.SCHEMA, "faces": [{"id": "A"}]})
    assert exc.value.pointer.startswith("/faces/0")
    with pytest.raises(InputError) as exc:
        docs.type_from_doc({"schema": docs.SCHEMA, "dim": 2,
                            "vertices": [{"id": "v"}],
                            "edges": [{"id": "e", "u": "v", "v": "v", "slope": [1]}],
                            "legs": []})
    assert exc.value.pointer == "/edges/0/slope"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _reports_are_what_json_dumps_writes(monkeypatch):
    """Every JSON report the tests of this module make the CLI write is, byte
    for byte, what json.dumps(report, sort_keys=True, indent=2) writes."""
    emit = cli._emit

    def checked(report, fmt, output):
        if fmt == "json":
            out = []
            cli._encode(report, out, "\n")
            assert "".join(out) == json.dumps(report, sort_keys=True, indent=2)
        emit(report, fmt, output)
    monkeypatch.setattr(cli, "_emit", checked)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_skeleton_and_validate(tmp_path, capsys):
    pair = _write(tmp_path, "pair.json", docs.pair_to_doc(triangle_pair_data()))
    code, out = _run(capsys, ["skeleton", pair])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert len(report["payload"]["faces"]) == 7
    cpath = _write(tmp_path, "complex.json", report["payload"])
    code, out = _run(capsys, ["validate-complex", cpath])
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_cli_validate_complex_violations(tmp_path, capsys):
    doc = {
        "schema": docs.SCHEMA,
        "faces": [
            {"id": "V0", "rank": 0, "chart": {"ineqs": [], "eqs": []}},
            {"id": "E", "rank": 1, "chart": {"ineqs": [[1, "0"], [-1, "-1"]], "eqs": []}},
        ],
        "inclusions": [
            {"sub": "V0", "super": "E", "linear": [[]], "offset": ["0"]},
        ],
    }
    path = _write(tmp_path, "c.json", doc)
    code, out = _run(capsys, ["validate-complex", path])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "violations"
    assert any(v["axiom"] == "3" for v in report["payload"]["violations"])
    code, out = _run(capsys, ["validate-complex", "--format", "text", path])
    assert code == 1
    assert "AXIOM(3)" in out


def test_cli_validate_curve(tmp_path, capsys):
    tri = {
        "schema": docs.SCHEMA, "dim": 2,
        "vertices": [{"id": "v", "weight": 0}],
        "edges": [],
        "legs": [{"id": "l0", "v": "v", "slope": [1, 0]},
                 {"id": "l1", "v": "v", "slope": [0, 1]},
                 {"id": "l2", "v": "v", "slope": [-1, -1]}],
    }
    path = _write(tmp_path, "tripod.json", tri)
    code, out = _run(capsys, ["validate-curve", path])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["balanced"] and payload["stable"] and payload["genus"] == 0
    tri["legs"][2]["slope"] = [5, 5]
    path2 = _write(tmp_path, "bad.json", tri)
    code, out = _run(capsys, ["validate-curve", path2])
    assert code == 1
    # a realized resolution is valid; dropping a vertex's position is a violation
    doc = _resolution_doc()
    code, out = _run(capsys, ["validate-curve", _write(tmp_path, "placed.json", doc)])
    assert code == 0
    del doc["positions"]["va"]
    code, out = _run(capsys, ["validate-curve", _write(tmp_path, "unplaced.json", doc)])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "violations"
    assert [(v["axiom"], v["subject"]) for v in report["payload"]["violations"]] == \
        [("positions", "va")]


def _curve_report(status, summary, violations, **payload):
    """A validate-curve report as ``_emit`` writes it: json.dumps's bytes."""
    payload["violations"] = [{"axiom": a, "subject": s, "message": m} for a, s, m in violations]
    report = {"schema": docs.SCHEMA, "verb": "validate-curve", "status": status,
              "payload": payload, "summary": summary}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_cli_validate_curve_reports_every_violation_kind(tmp_path, capsys):
    """Unbalanced, disconnected, an edge without a length and a vertex without
    a position in one document; a failed edge relation in a placed one.  The
    JSON bytes, the text lines and the exit codes are pinned."""
    legs = lambda ends: [{"id": f"l{i}", "v": x, "slope": s} for i, (x, s) in enumerate(ends)]
    broken = {
        "schema": docs.SCHEMA, "dim": 2,
        "vertices": [{"id": x} for x in "abcd"],
        "edges": [{"id": "e1", "u": "a", "v": "b", "slope": [1, 0], "length": "2"},
                  {"id": "e2", "u": "c", "v": "d", "slope": [0, 1]},
                  {"id": "e3", "u": "c", "v": "d", "slope": [1, 0]}],
        "legs": legs([("a", [-1, 0]), ("b", [1, 1]), ("c", [-1, -1]), ("d", [0, 1])]),
        "positions": {"a": ["0", "0"], "b": ["2", "0"]},
    }
    placed = {
        "schema": docs.SCHEMA, "dim": 2,
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [{"id": "e", "u": "a", "v": "b", "slope": [1, 2], "length": "3/2"}],
        "legs": legs([("a", [-1, 0]), ("a", [0, -2]), ("b", [1, 0]), ("b", [0, 2])]),
        "positions": {"a": ["0", "0"], "b": ["3/2", "2"]},  # length * slope is (3/2, 3)
    }
    cases = [
        (broken, "5 violations", [
            ("balance", "b", "slope sum [0, 1] is nonzero"),
            ("balance", "d", "slope sum [-1, 0] is nonzero"),
            ("connected", "graph", "graph is not connected"),
            ("lengths", "e2,e3", "edges without length"),
            ("positions", "c,d", "vertices without position")],
         {"balanced": False, "stable": False, "genus": None}),
        (placed, "1 violations", [
            ("edge-relation", "e", "positions do not match length * slope")],
         {"balanced": True, "stable": True, "genus": 0}),
    ]
    for i, (doc, summary, violations, fields) in enumerate(cases):
        path = _write(tmp_path, f"curve{i}.json", doc)
        assert _run(capsys, ["validate-curve", path]) == \
            (1, _curve_report("violations", summary, violations, **fields))
        text = ["status: violations", summary] + \
            [f"AXIOM({a}) violated at {s}: {m}" for a, s, m in violations]
        assert _run(capsys, ["validate-curve", path, "--format", "text"]) == \
            (1, "\n".join(text) + "\n")


def test_cli_enumerate_deterministic(capsys):
    argv = ["enumerate", "--genus", "0", "--degree",
            "[[1,0],[0,1],[-1,0],[0,-1]]", "--max-edges", "1"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    payload = json.loads(out1)["payload"]
    assert len(payload["types"]) == 4


def test_cli_enumerate_in_dimension_zero(capsys):
    # dim 0 with an empty degree is accepted: the five cells of tropical M_{1,2}
    code, out = _run(capsys, ["enumerate", "--genus", "1", "--contracted", "2", "--degree", "[]",
                              "--dim", "0", "--max-edges", "2"])
    assert code == 0
    assert len(json.loads(out)["payload"]["types"]) == 5


def test_cli_writes_marked_types_without_relabelling(tmp_path, capsys, monkeypatch):
    enum_argv = ["enumerate", "--genus", "0", "--degree", "[[1,0],[0,1],[-1,-1]]",
                 "--contracted", "1", "--max-edges", "2"]
    tpath = _write(tmp_path, "types.json", docs.types_to_doc(resolve_4valent(cross_type(), "v")))
    runs = [enum_argv, ["wallgraph", tpath]]
    labelled = []
    original = moduli.canonical_form
    monkeypatch.setattr(moduli, "canonical_form", lambda t, *key: labelled.append(t) or original(t, *key))
    reports = [_run(capsys, argv) for argv in runs]
    assert [code for code, _ in reports] == [0, 0]
    assert not [t for t in labelled if t._canonical is not None]

    def relabelling_typed_to_doc(t, **fields):
        return {**fields, "canonical": original(t).string, "type": docs.type_to_doc(t)}

    monkeypatch.setattr(docs, "_typed_to_doc", relabelling_typed_to_doc)
    assert [_run(capsys, argv) for argv in runs] == reports


@pytest.mark.parametrize("flags, pointer", [
    (["--genus", "-1"], "/genus"),
    (["--contracted", "-1"], "/contracted"),
    (["--max-edges", "-1"], "/max_edges"),
    (["--degree", "[[1,0],[0,1],[-1]]"], "/degree/2"),
    (["--degree", "[[1,0],[0,0],[-1,0]]"], "/degree/1"),
    (["--degree", "[[1,0],[0,1.5],[-1,-1]]"], "/degree/1"),
    (["--degree", "[]"], "/dim"),
], ids=["negative-genus", "negative-contracted", "negative-max-edges",
        "mixed-dimension", "zero-slope", "non-integer", "empty-without-dim"])
def test_cli_enumerate_rejects_bad_input(capsys, flags, pointer):
    argv = ["enumerate", "--genus", "0", "--degree", "[[1,0],[0,1],[-1,-1]]",
            "--max-edges", "1"] + flags  # argparse keeps the last value
    code, out = _run(capsys, argv)
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["pointer"] == pointer


def test_cli_classify_and_resolve(tmp_path, capsys):
    cross_doc = docs.type_to_doc(cross_type())
    path = _write(tmp_path, "cross.json", cross_doc)
    code, out = _run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["payload"]["classification"] == "weightless_almost_3valent"
    code, out = _run(capsys, ["resolve", path])
    assert code == 0
    types = json.loads(out)["payload"]["types"]
    assert len(types) == 3
    code, out = _run(capsys, ["resolve", path, "--vertex", "v"])
    assert code == 0


def test_cli_resolve_names_the_vertex_that_was_passed(tmp_path, capsys):
    path = _write(tmp_path, "cross.json", docs.type_to_doc(cross_type()))
    code, out = _run(capsys, ["resolve", path, "--vertex", "zzz"])
    assert code == 2
    assert json.loads(out)["payload"] == {
        "error": "NotAlmost3Valent", "message": "vertex 'zzz' is not the 4-valent vertex 'v'"}
    path = _write(tmp_path, "resolved.json", docs.type_to_doc(resolution_type(1)))
    code, out = _run(capsys, ["resolve", path, "--vertex", "va"])
    assert code == 2
    assert json.loads(out)["payload"] == {
        "error": "NotAlmost3Valent",
        "message": "type is weightless_3valent with 4-valent vertex None"}


def test_cli_wallgraph_and_propagate(tmp_path, capsys):
    nodes = resolve_4valent(cross_type(), "v")
    tpath = _write(tmp_path, "types.json", docs.types_to_doc(nodes))
    code, out = _run(capsys, ["wallgraph", tpath])
    assert code == 0
    wg_doc = json.loads(out)["payload"]
    assert len(wg_doc["nodes"]) == 3 and len(wg_doc["walls"]) == 1
    wpath = _write(tmp_path, "wg.json",
                   {k: wg_doc[k] for k in ("schema", "nodes", "walls")})
    code, out = _run(capsys, ["propagate", wpath, "--seeds", wg_doc["nodes"][0]["id"]])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["closure"] == [n["id"] for n in wg_doc["nodes"]]
    code, out = _run(capsys, ["propagate", wpath, "--seeds", "n99"])
    assert code == 2


def test_cli_wallgraph_deterministic(tmp_path, capsys):
    nodes = resolve_4valent(cross_type(), "v")
    tpath = _write(tmp_path, "types.json", docs.types_to_doc(nodes))
    _, out1 = _run(capsys, ["wallgraph", tpath, "--seed", "0"])
    _, out2 = _run(capsys, ["wallgraph", tpath, "--seed", "0"])
    assert out1 == out2


def test_cli_family_verbs(tmp_path, capsys):
    fam = ray_wall_family((1, 2, 3))
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(fam))
    code, out = _run(capsys, ["validate-family", fpath])
    assert code == 0
    code, out = _run(capsys, ["fiber", fpath, "--face", "R0", "--point", '["2"]'])
    assert code == 0
    curve = json.loads(out)["payload"]
    assert curve["edges"][0]["length"] == "2"
    code, out = _run(capsys, ["alpha", fpath])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["faces"]) == 4
    assert len(payload["image_strata"]) == 4  # wall + three distinct resolutions
    code, out = _run(capsys, ["verdicts", fpath, "--face", "O"])
    assert code == 0
    verdicts = json.loads(out)["payload"]["verdicts"]
    assert verdicts[0]["verdict"] == "locally_combinatorially_surjective"


def test_cli_family_invalid_exit_code(tmp_path, capsys):
    fam = ray_wall_family((1,), edge_offset=-1)
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(fam))
    code, out = _run(capsys, ["validate-family", fpath])
    assert code == 1
    assert json.loads(out)["status"] == "violations"


_DEEP = "[" * 10_000 + "]" * 10_000  # past the interpreter's recursion limit in json


@pytest.mark.parametrize("where", ["file", "point", "degree"])
def test_cli_json_nested_too_deep_is_an_input_error(tmp_path, where):
    """A fresh interpreter reports nesting that json cannot decode as an
    input error at pointer "", exit 2, and writes nothing to stderr."""
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP)
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(segment_family()))
    argv = {"file": ["validate-complex", str(deep)],
            "point": ["fiber", fpath, "--face", "E", "--point", _DEEP],
            "degree": ["enumerate", "--genus", "0", "--max-edges", "1", "--degree", _DEEP]}[where]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "tropmoduli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (2, "")
    payload = json.loads(done.stdout)["payload"]
    assert payload["pointer"] == ""
    assert "is not valid JSON: maximum recursion depth exceeded" in payload["message"]


def test_cli_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fiber"])  # missing required inputs
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-verb"])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = _run(capsys, ["validate-complex", str(bad)])
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_cli_output_file(tmp_path, capsys):
    fam = point_family()
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(fam))
    outpath = tmp_path / "report.json"
    code, _ = _run(capsys, ["validate-family", fpath, "--output", str(outpath)])
    assert code == 0
    report = json.loads(outpath.read_text())
    assert report["status"] == "ok"


def test_cli_text_format(tmp_path, capsys):
    fam = two_ray_resolution_family()
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(fam))
    code, out = _run(capsys, ["validate-family", fpath, "--format", "text"])
    assert code == 0
    assert out.startswith("status: ok")


@pytest.mark.parametrize("resolution", ["nX", ["n0"]], ids=["unknown-node", "list"])
def test_cli_propagate_rejects_bad_resolution(tmp_path, capsys, resolution):
    wg_doc = docs.wallgraph_to_doc(wall_graph(resolve_4valent(cross_type(), "v")))
    wg_doc["walls"][0]["resolutions"][1] = resolution
    wpath = _write(tmp_path, "wg.json", wg_doc)
    code, out = _run(capsys, ["propagate", wpath, "--seeds", wg_doc["nodes"][0]["id"]])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["pointer"] == "/walls/0/resolutions/1"


@pytest.mark.parametrize("where, pointer", [
    (lambda doc: doc["strata"][0]["vertical"], "/strata/0/vertical/0"),
    (lambda doc: doc["strata"][0]["horizontal"], "/strata/0/horizontal/0"),
    (lambda doc: doc["vertical"], "/vertical/0"),
    (lambda doc: doc["horizontal"], "/horizontal/0"),
], ids=["stratum-vertical", "stratum-horizontal", "vertical", "horizontal"])
def test_cli_skeleton_rejects_non_string_component(tmp_path, capsys, where, pointer):
    doc = docs.pair_to_doc(ray_pair_data())
    names = where(doc)
    names[0] = [names[0]]
    code, out = _run(capsys, ["skeleton", _write(tmp_path, "pair.json", doc)])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["pointer"] == pointer


def test_cli_ignores_threads_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TROPMODULI_THREADS", "abc")
    pair = _write(tmp_path, "pair.json", docs.pair_to_doc(triangle_pair_data()))
    code, out = _run(capsys, ["skeleton", pair])
    assert code == 0
    assert json.loads(out)["status"] == "ok"


@pytest.mark.parametrize("verb, doc, pointer", [
    ("skeleton", {"schema": docs.SCHEMA, "strata": [5], "vertical": []}, "/strata/0"),
    ("validate-complex", {"schema": docs.SCHEMA, "faces": [], "inclusions": [4]},
     "/inclusions/0"),
    ("classify", {"schema": docs.SCHEMA, "dim": 2, "vertices": ["idle"]}, "/vertices/0"),
], ids=["stratum", "inclusion", "vertex"])
def test_cli_rejects_entries_that_are_not_objects(tmp_path, capsys, verb, doc, pointer):
    code, out = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["pointer"] == pointer


def _lone_vertex(dim):
    return {"schema": docs.SCHEMA, "dim": dim, "vertices": [{"id": "v", "weight": 1}]}


def _family_doc(edit):
    doc = docs.family_to_doc(ray_wall_family((1, 2)))
    edit(doc)
    return doc


@pytest.mark.parametrize("verb, doc, pointer", [
    ("classify", _lone_vertex(-1), "/dim"),
    ("validate-curve", _lone_vertex(-1), "/dim"),
    ("wallgraph", {"schema": docs.SCHEMA, "types": [{"type": _lone_vertex(-1)}]},
     "/types/0/type/dim"),
    ("validate-family", _family_doc(lambda doc: doc.update(dim=-1)), "/dim"),
    ("validate-family", _family_doc(lambda doc: doc["faces"][0]["type"].update(dim=-1)),
     "/faces/0/type/dim"),
], ids=["classify", "validate-curve", "wallgraph", "family", "family-face-type"])
def test_cli_rejects_negative_dim(tmp_path, capsys, verb, doc, pointer):
    code, out = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["pointer"] == pointer


def test_cli_validates_a_family_once(tmp_path, capsys, monkeypatch):
    import tropmoduli.family
    calls = []

    def counting(f):
        calls.append(f)
        return validate_family(f)

    monkeypatch.setattr(tropmoduli.family, "validate_family", counting)
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(segment_family()))
    code, out = _run(capsys, ["verdicts", fpath])
    assert code == 0
    assert [v["face"] for v in json.loads(out)["payload"]["verdicts"]] == ["V0", "V1"]
    assert len(calls) == 1
    calls.clear()
    code, _ = _run(capsys, ["alpha", fpath])
    assert code == 0
    assert len(calls) == 1
    calls.clear()
    # no face has a cofacet: nothing to validate
    ppath = _write(tmp_path, "point.json", docs.family_to_doc(point_family()))
    code, out = _run(capsys, ["verdicts", ppath])
    assert code == 0
    assert json.loads(out)["summary"] == "no faces"
    assert calls == []


@pytest.mark.parametrize("face, error", [("X", "UnknownFace"), ("O", "InvalidFamily")])
def test_cli_verdicts_reports_unknown_face_before_invalid_family(tmp_path, capsys,
                                                                 face, error):
    fam = ray_wall_family((1,), edge_offset=-1)
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(fam))
    code, out = _run(capsys, ["verdicts", fpath, "--face", face])
    assert code == 2
    message = "unknown face 'X'" if face == "X" else str(validate_family(fam))
    assert json.loads(out) == {
        "schema": docs.SCHEMA, "verb": "verdicts", "status": "error",
        "payload": {"error": error, "message": message},
        "summary": f"{error}: {message}",
    }


def test_cli_propagate_rejects_seeds_file_that_is_not_an_object(tmp_path, capsys):
    wg_doc = docs.wallgraph_to_doc(wall_graph(resolve_4valent(cross_type(), "v")))
    wpath = _write(tmp_path, "wg.json", wg_doc)
    for seeds, pointer in [([1, 2], ""), ({"seeds": [[1]]}, "/seeds/0"),
                           ({"seeds": ["x", {"a": 1}]}, "/seeds/1")]:
        code, out = _run(capsys, ["propagate", wpath, "--seeds-file",
                                  _write(tmp_path, "seeds.json", seeds)])
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "error"
        assert report["payload"]["pointer"] == pointer


@pytest.mark.parametrize("edit, pointer", [
    (lambda doc: doc.update(maximal="S01"), "/maximal"),
    (lambda doc: doc.update(maximal=[1]), "/maximal/0"),
    (lambda doc: doc.update(maximal=["S01", "nope"]), "/maximal/1"),
    (lambda doc: doc["faces"][2].update(label=5), "/faces/2/label"),
], ids=["maximal-string", "maximal-integer", "maximal-unknown", "label-integer"])
def test_cli_validate_complex_rejects_bad_maximal_and_label(tmp_path, capsys, edit, pointer):
    from tropmoduli.polyhedral import build_skeleton
    doc = docs.complex_to_doc(build_skeleton(segment_pair_data()))
    edit(doc)
    code, out = _run(capsys, ["validate-complex", _write(tmp_path, "c.json", doc)])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["pointer"] == pointer


def _relabelled(doc, rng):
    """The same complex with faces and inclusions reordered and every face
    id renamed consistently."""
    out = copy.deepcopy(doc)
    names = [f"F{i}" for i in range(len(out["faces"]))]
    rng.shuffle(names)
    rename = {f["id"]: name for f, name in zip(out["faces"], names)}
    for f in out["faces"]:
        f["id"] = rename[f["id"]]
    for inc in out["inclusions"]:
        inc["sub"], inc["super"] = rename[inc["sub"]], rename[inc["super"]]
    out["maximal"] = [rename[fid] for fid in out["maximal"]]
    rng.shuffle(out["faces"])
    rng.shuffle(out["inclusions"])
    return out


def test_validate_complex_report_ignores_face_order_and_names(tmp_path, capsys):
    from tropmoduli.polyhedral import build_skeleton
    rng = random.Random(23)
    valid = [docs.complex_to_doc(build_skeleton(triangle_pair_data())),
             docs.complex_to_doc(quadrant_complex()),
             docs.complex_to_doc(build_skeleton(template_pair_data(
                 rng, 5, 1, (((0, 1, 2), (0,)), ((2, 3), ()), ((3, 4), (0,))))))]
    invalid = []
    for doc in valid:
        dropped = copy.deepcopy(doc)
        del dropped["inclusions"][rng.randrange(len(dropped["inclusions"]))]
        shifted = copy.deepcopy(doc)
        shifted["inclusions"][-1]["offset"][0] = "1/3"
        invalid += [dropped, shifted]
    for doc in valid + invalid:
        code, out = _run(capsys, ["validate-complex", _write(tmp_path, "c.json", doc)])
        assert code == (0 if doc in valid else 1)
        for _ in range(3):
            code2, out2 = _run(capsys, ["validate-complex",
                                        _write(tmp_path, "c2.json", _relabelled(doc, rng))])
            assert code2 == code
            assert json.loads(out2)["status"] == json.loads(out)["status"]
            if doc in valid:
                assert out2 == out


def _with_positions(doc, positions):
    doc = copy.deepcopy(doc)
    doc["positions"] = positions
    return doc


_CROSS_DOC = docs.type_to_doc(cross_type())
_CONST = {"linear": [[0], [0]], "offset": ["0", "0"]}


def _resolution_doc(length=1):
    """A resolution with edge length ``length`` and a position for every
    vertex that satisfies the edge relation."""
    t = resolution_type(1)
    vb = tuple(Fraction(length) * s for s in t.slopes["e"])
    return docs.type_to_doc(t, lengths={"e": Fraction(length)},
                            positions={"va": (0, 0), "vb": vb})


@pytest.mark.parametrize("verb, doc, pointer", [
    ("validate-family",
     _family_doc(lambda doc: doc["faces"][1]["positions"]["va"].update(offset=["0"])),
     "/faces/1/positions/va/offset"),
    ("validate-family",
     _family_doc(lambda doc: doc["faces"][1]["positions"]["vb"].update(linear=[[1]])),
     "/faces/1/positions/vb/linear"),
    ("validate-family",
     _family_doc(lambda doc: doc["faces"][1]["positions"].update(zz=_CONST)),
     "/faces/1/positions/zz"),
    ("validate-curve", _with_positions(_CROSS_DOC, {"v": ["0", "0"], "ghost": ["1", "1"]}),
     "/positions/ghost"),
    ("wallgraph",
     {"schema": docs.SCHEMA,
      "types": [{"type": _with_positions(_CROSS_DOC, {"ghost": ["1", "1"]})}]},
     "/types/0/type/positions/ghost"),
    ("validate-curve", _resolution_doc(0), "/edges/0/length"),
    ("validate-curve", _resolution_doc(-1), "/edges/0/length"),
], ids=["short-offset", "short-linear", "family-ghost", "curve-ghost", "nested-ghost",
        "curve-zero-length", "curve-negative-length"])
def test_cli_rejects_bad_positions(tmp_path, capsys, verb, doc, pointer):
    code, out = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["payload"]["pointer"] == pointer


_REPORT_KEYS = {"schema", "verb", "status", "payload", "summary"}


def _type_in_z3(face):
    face["type"]["dim"] = 3
    for item in face["type"]["edges"] + face["type"]["legs"]:
        item["slope"].append(0)


def _dim_3_type_without_length(doc):
    """Face R0 gets a type in Z^3 and loses its edge length."""
    _type_in_z3(doc["faces"][1])
    del doc["faces"][1]["lengths"]["e"]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["faces"][1]["lengths"].pop("e"), "missing affine data for ['e']"),
    (lambda doc: doc["faces"][1]["positions"].pop("va"), "missing affine data for ['va']"),
    (lambda doc: doc["faces"][1]["lengths"].update(e={"linear": [], "offset": "1"}),
     "length of 'e' has linear part of wrong arity"),
    (lambda doc: doc["faces"][1]["positions"]["va"].update(linear=[[1, 2], [0, 0]]),
     "position of 'va' has affine data of wrong shape"),
    (_dim_3_type_without_length, "type lives in Z^3, family in Z^2"),
], ids=["no-length", "no-position", "short-length", "wide-position", "wrong-dim-no-length"])
def test_cli_family_with_malformed_face_data_reports_axiom_1(tmp_path, capsys, edit, message):
    fpath = _write(tmp_path, "family.json", _family_doc(edit))
    code, out = _run(capsys, ["validate-family", fpath])
    assert code == 1
    report = json.loads(out)
    assert set(report) == _REPORT_KEYS and report["status"] == "violations"
    assert report["payload"]["violations"] == [{"axiom": "1", "subject": "R0", "message": message}]
    for verb in ("alpha", "verdicts"):
        code, out = _run(capsys, [verb, fpath])
        assert code == 2
        report = json.loads(out)
        assert set(report) == _REPORT_KEYS and report["status"] == "error"
        assert report["payload"] == {"error": "InvalidFamily",
                                     "message": f"AXIOM(1) violated at R0: {message}"}


@pytest.mark.parametrize("edit, pointer", [
    (lambda doc: doc["faces"].append(copy.deepcopy(doc["faces"][1])), "/faces/3/face"),
    (lambda doc: doc["contractions"].append(copy.deepcopy(doc["contractions"][0])),
     "/contractions/2"),
    (lambda doc: doc["faces"][1]["lengths"].update(zz={"linear": [0], "offset": "1"}),
     "/faces/1/lengths/zz"),
], ids=["repeated-face", "repeated-contraction", "unknown-edge-length"])
def test_cli_rejects_repeated_or_unknown_family_entries(tmp_path, capsys, edit, pointer):
    fpath = _write(tmp_path, "family.json", _family_doc(edit))
    for verb in ("validate-family", "alpha", "verdicts"):
        code, out = _run(capsys, [verb, fpath])
        assert code == 2
        report = json.loads(out)
        assert set(report) == _REPORT_KEYS and report["status"] == "error"
        assert report["payload"]["pointer"] == pointer


def _reversed_names(ids, prefix):
    """New names for ``ids`` that sort in the opposite order."""
    old = sorted(set(ids))
    return {x: f"{prefix}{len(old) - 1 - i:02d}" for i, x in enumerate(old)}


def _rename_type_doc(doc, vmap, emap):
    for vd in doc["vertices"]:
        vd["id"] = vmap[vd["id"]]
    for ed in doc.get("edges", []):
        ed["id"], ed["u"], ed["v"] = emap[ed["id"]], vmap[ed["u"]], vmap[ed["v"]]
    for ld in doc.get("legs", []):
        ld["v"] = vmap[ld["v"]]


def _renamed(doc):
    """The same type or family document with every vertex and edge id renamed
    consistently, so that the ids sort in reverse; returns it with the
    vertex renaming."""
    doc = copy.deepcopy(doc)
    types = [fd["type"] for fd in doc["faces"]] if "faces" in doc else [doc]
    vmap = _reversed_names([vd["id"] for td in types for vd in td["vertices"]], "x")
    emap = _reversed_names([ed["id"] for td in types for ed in td.get("edges", [])], "f")
    for td in types:
        _rename_type_doc(td, vmap, emap)
    for fd in doc.get("faces", []):
        fd["lengths"] = {emap[e]: fn for e, fn in fd["lengths"].items()}
        fd["positions"] = {vmap[v]: mp for v, mp in fd["positions"].items()}
    for cd in doc.get("contractions", []):
        cd["vertex_map"] = {vmap[a]: vmap[b] for a, b in cd["vertex_map"].items()}
        cd["edge_map"] = {emap[a]: emap[b] for a, b in cd["edge_map"].items()}
    return doc, vmap


def test_classify_ignores_vertex_and_edge_names(tmp_path, capsys):
    from tropmoduli.moduli import enumerate_types
    types = [cross_type(), resolution_type(1), resolution_type(3)]
    types += enumerate_types(0, 0, ((1, 0), (1, 0), (0, 1), (-2, 0), (0, -1)), 2)
    types += enumerate_types(1, 1, ((1, 0), (0, 1), (-1, -1)), 3)
    assert any(u == v for t in types for _, u, v in t.graph.edges)  # loops
    for t in types:
        doc = docs.type_to_doc(t)
        renamed, vmap = _renamed(doc)
        assert renamed != doc
        code, out = _run(capsys, ["classify", _write(tmp_path, "t.json", doc)])
        code2, out2 = _run(capsys, ["classify", _write(tmp_path, "t2.json", renamed)])
        assert code == code2 == 0
        want, got = json.loads(out)["payload"], json.loads(out2)["payload"]
        assert got["canonical"] == want["canonical"]
        assert got["classification"] == want["classification"]
        assert got["four_valent_vertex"] == vmap.get(want["four_valent_vertex"])


def _reverify(fpath, verdict):
    """The certificate's combination of the star derivatives of the lifts lies
    in the span of the face's own image."""
    from tropmoduli.exact_linalg import rank
    from tropmoduli.family import induced_alpha
    from tropmoduli.polyhedral import star
    with open(fpath) as fh:
        f = docs.family_from_doc(json.load(fh))
    alpha = induced_alpha(f)
    image = [tuple(col) for col in zip(*alpha.lifts[verdict["face"]].linear)]
    total = None
    for (cofacet, e), coef in zip(star(f.base, verdict["face"]).directions,
                                  verdict["certificate"]):
        assert coef > 0
        d = tuple(sum(a * x for a, x in zip(row, e)) for row in alpha.lifts[cofacet].linear)
        total = tuple(coef * x for x in d) if total is None else \
            tuple(a + coef * x for a, x in zip(total, d))
    assert rank(image + [total]) == rank(image)


def test_alpha_and_verdicts_ignore_vertex_and_edge_names(tmp_path, capsys):
    families = [ray_wall_family((1,)), ray_wall_family((1, 2, 3)), segment_family(),
                two_ray_resolution_family(((1, 0), (-1, 0))),
                two_ray_resolution_family(((1, 0), (-2, 0)))]
    kinds = set()
    for fam in families:
        doc = docs.family_to_doc(fam)
        renamed, _ = _renamed(doc)
        assert renamed != doc
        paths = [_write(tmp_path, "f.json", doc), _write(tmp_path, "f2.json", renamed)]
        alphas = []
        for path in paths:
            code, out = _run(capsys, ["alpha", path])
            assert code == 0
            payload = json.loads(out)["payload"]
            alphas.append(([(s["face"], s["canonical"], s["image_dim"]) for s in payload["faces"]],
                           payload["image_strata"]))
        assert alphas[0] == alphas[1]
        verdicts = []
        for path in paths:
            code, out = _run(capsys, ["verdicts", path])
            assert code == 0
            verdicts.append(json.loads(out)["payload"]["verdicts"])
            for v in verdicts[-1]:
                if "certificate" in v:
                    _reverify(path, v)
        assert verdicts[0] == verdicts[1]
        kinds |= {v["verdict"] for v in verdicts[0]}
    assert len(kinds) == 4, kinds


def test_cli_fiber_refuses_a_point_whose_curve_is_invalid(tmp_path, capsys):
    fpath = _write(tmp_path, "family.json", docs.family_to_doc(ray_wall_family((1, 2), -1)))
    code, out = _run(capsys, ["fiber", fpath, "--face", "R0", "--point", '["2"]'])
    assert code == 2
    report = json.loads(out)
    assert set(report) == _REPORT_KEYS and report["status"] == "error"
    assert report["payload"]["error"] == "InvalidFamily"
    code, out = _run(capsys, ["fiber", fpath, "--face", "R0", "--point", '["1/2"]'])
    assert code == 2 and "length of 'e'" in json.loads(out)["payload"]["message"]
    valid = _write(tmp_path, "valid.json", docs.family_to_doc(ray_wall_family((1, 2))))
    code, out = _run(capsys, ["fiber", valid, "--face", "R0", "--point", '["2"]'])
    assert code == 0
    curve = _write(tmp_path, "curve.json", json.loads(out)["payload"])
    assert _run(capsys, ["validate-curve", curve])[0] == 0


def _unknown_face(doc):
    doc["faces"].append({**copy.deepcopy(doc["faces"][1]), "face": "ZZ"})


def _contraction_off_the_base(doc):
    doc["contractions"].append({"sub": "R0", "super": "R1", "vertex_map": {"va": "va", "vb": "vb"},
                                "edge_map": {"e": "e"}})


@pytest.mark.parametrize("edit, pointer", [
    (_unknown_face, "/faces/3/face"),
    (_contraction_off_the_base, "/contractions/2"),
], ids=["unknown-face", "contraction-not-an-inclusion"])
def test_cli_rejects_family_entries_the_base_lacks(tmp_path, capsys, edit, pointer):
    fpath = _write(tmp_path, "family.json", _family_doc(edit))
    for verb in ("validate-family", "alpha"):
        code, out = _run(capsys, [verb, fpath])
        assert code == 2
        report = json.loads(out)
        assert set(report) == _REPORT_KEYS and report["status"] == "error"
        assert report["payload"]["pointer"] == pointer


@pytest.mark.parametrize("edit", [
    lambda inc: inc.update(sub="ZZ"),
    lambda inc: inc.update(offset=["0", "0"]),
], ids=["undeclared-face", "wrong-shape"])
def test_cli_rejects_bad_complex_inclusions_at_the_complex(tmp_path, capsys, edit):
    from helpers import segment_complex
    cdoc = docs.complex_to_doc(segment_complex())
    edit(cdoc["inclusions"][0])
    fdoc = _family_doc(lambda doc: None)
    edit(fdoc["base"]["inclusions"][0])
    for verb, doc, pointer in (("validate-complex", cdoc, ""), ("validate-family", fdoc, "/base")):
        code, out = _run(capsys, [verb, _write(tmp_path, "doc.json", doc)])
        assert code == 2
        report = json.loads(out)
        assert set(report) == _REPORT_KEYS and report["status"] == "error"
        assert report["payload"]["pointer"] == pointer


def _e2(doc):
    return next(fd for fd in doc["faces"] if fd["face"] == "E2")


@pytest.mark.parametrize("edit, message, violation", [
    (lambda doc: _e2(doc).update(lengths={}),
     "face 'E2' has no affine data for ['e']", ("1", "missing affine data for ['e']")),
    (lambda doc: doc["faces"].remove(_e2(doc)),
     "face 'E2' has no curve data", ("coverage", "face without curve data")),
    (lambda doc: _e2(doc).update(lengths={"e": {"linear": [], "offset": "1"}}),
     "face 'E2': length of 'e' has linear part of wrong arity",
     ("1", "length of 'e' has linear part of wrong arity")),
    (lambda doc: _e2(doc).update(lengths={"e": {"linear": [], "offset": "5"}}),
     "face 'E2': length of 'e' has linear part of wrong arity",
     ("1", "length of 'e' has linear part of wrong arity")),
    (lambda doc: _type_in_z3(_e2(doc)), "face 'E2': type lives in Z^3, family in Z^2",
     ("1", "type lives in Z^3, family in Z^2")),
], ids=["no-length", "no-curve-data", "short-length", "short-length-offset-5", "wrong-dim"])
def test_cli_fiber_on_a_face_without_affine_data_is_an_invalid_family(tmp_path, capsys, edit,
                                                                      message, violation):
    doc = docs.family_to_doc(path_family([(1, 2), (2, 4)], [Fraction(3, 2), 2]))
    edit(doc)
    fpath = _write(tmp_path, "family.json", doc)
    code, out = _run(capsys, ["fiber", fpath, "--face", "E2", "--point", '["1/2"]'])
    assert code == 2
    report = json.loads(out)
    assert set(report) == _REPORT_KEYS and report["status"] == "error"
    assert report["payload"] == {"error": "InvalidFamily", "message": message}
    code, out = _run(capsys, ["validate-family", fpath])
    assert code == 1
    axiom, text = violation
    assert json.loads(out)["payload"]["violations"] == [
        {"axiom": axiom, "subject": "E2", "message": text}]


def test_cli_resolve_refuses_an_unbalanced_cross(tmp_path, capsys):
    doc = docs.type_to_doc(cross_type())
    doc["legs"][0]["slope"] = [x + 1 for x in doc["legs"][0]["slope"]]
    tpath = _write(tmp_path, "cross.json", doc)
    code, out = _run(capsys, ["resolve", tpath])
    assert code == 2
    report = json.loads(out)
    assert set(report) == _REPORT_KEYS and report["status"] == "error"
    assert report["payload"]["error"] == "UnbalancedType"
    code, out = _run(capsys, ["classify", tpath])
    assert code == 0
    assert json.loads(out)["payload"]["classification"] == "weightless_almost_3valent"


def _set_inclusion_row(doc):
    doc["base"]["inclusions"][0]["linear"][0] = True


@pytest.mark.parametrize("edit, pointer", [
    (lambda doc: doc["extended_degree"].__setitem__(0, 5), "/extended_degree/0"),
    (lambda doc: doc["faces"][1]["positions"]["vb"]["linear"].__setitem__(0, None),
     "/faces/1/positions/vb/linear/0"),
    (_set_inclusion_row, "/base/inclusions/0/linear/0"),
], ids=["degree-int", "position-row-null", "inclusion-row-bool"])
def test_cli_rejects_a_scalar_where_an_integer_vector_belongs(tmp_path, capsys, edit, pointer):
    fpath = _write(tmp_path, "family.json", _family_doc(edit))
    for verb in ("validate-family", "alpha"):
        code, out = _run(capsys, [verb, fpath])
        assert code == 2
        report = json.loads(out)
        assert set(report) == _REPORT_KEYS and report["status"] == "error"
        assert report["payload"]["pointer"] == pointer


@pytest.mark.parametrize("family, key, value", [
    (lambda: ray_wall_family((1, 2)), "vertex_map", ["v"]),
    (two_ray_resolution_family, "edge_map", ["e"]),
    (two_ray_resolution_family, "edge_map", 7),
], ids=["vertex-map-list", "edge-map-list", "edge-map-int"])
def test_cli_rejects_a_contraction_map_value_that_is_not_a_string(tmp_path, capsys,
                                                                   family, key, value):
    doc = docs.family_to_doc(family())
    m = doc["contractions"][0][key]
    first = sorted(m)[0]
    m[first] = value
    fpath = _write(tmp_path, "family.json", doc)
    for verb in ("validate-family", "alpha", "verdicts"):
        code, out = _run(capsys, [verb, fpath])
        assert code == 2
        report = json.loads(out)
        assert set(report) == _REPORT_KEYS and report["status"] == "error"
        assert report["payload"]["pointer"] == f"/contractions/0/{key}/{first}"


def test_cli_skeleton_rejects_a_non_string_order_entry(tmp_path, capsys):
    doc = docs.pair_to_doc(segment_pair_data())
    doc["order"][0][1] = [doc["order"][0][1]]
    code, out = _run(capsys, ["skeleton", _write(tmp_path, "pair.json", doc)])
    assert code == 2
    report = json.loads(out)
    assert set(report) == _REPORT_KEYS and report["status"] == "error"
    assert report["payload"]["pointer"] == "/order/0/1"

