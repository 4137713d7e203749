"""The declared document shapes against the hand-written parsers.

``documents.SCHEMAS`` declares each document kind's shape once and checks
it in one walk; ``reference_documents`` checks the same shapes key by key.
On a seeded sample of the documents with one fault (a node deleted, given
another JSON type, or duplicated) both must build equal objects or raise
``InputError`` at the same JSON pointer.
"""

import json
import random
from fractions import Fraction

import pytest

from tropmoduli import documents as docs
from tropmoduli.errors import InputError
from tropmoduli.moduli import resolve_4valent, wall_graph
from tropmoduli.polyhedral import build_skeleton

import reference_documents as ref
from helpers import (
    RETYPED,
    cross_type,
    json_paths,
    mutated,
    path_family,
    quadrant_complex,
    quadrant_family,
    ray_pair_data,
    ray_wall_family,
    resolution_type,
    triangle_pair_data,
)


def _seed_documents():
    curve = docs.type_to_doc(resolution_type(2), lengths={"e": Fraction(3, 2)},
                             positions={"va": (0, 0), "vb": (1, 2)})
    return [
        ("complex", docs.complex_to_doc(build_skeleton(triangle_pair_data()))),
        ("complex", docs.complex_to_doc(quadrant_complex())),
        ("pair", docs.pair_to_doc(triangle_pair_data())),
        ("pair", docs.pair_to_doc(ray_pair_data())),
        ("type", curve),
        ("type", docs.type_to_doc(cross_type())),
        ("types", docs.types_to_doc(resolve_4valent(cross_type(), "v"))),
        ("family", docs.family_to_doc(ray_wall_family((1, 2)))),
        ("family", docs.family_to_doc(quadrant_family())),
        ("family", docs.family_to_doc(path_family([(1, 2), (2, 4)], [Fraction(3, 2), 2]))),
        ("wallgraph", docs.wallgraph_to_doc(wall_graph(resolve_4valent(cross_type(), "v")))),
    ]


def _mutations(doc):
    """Every single fault: each node deleted, duplicated or retyped."""
    for path in json_paths(doc):
        if path:
            yield "delete", path, None
            yield "duplicate", path, None
        for value in RETYPED:
            yield "retype", path, value


def _serialized(kind, built):
    if kind == "type":
        return docs.type_to_doc(*built)
    if kind == "types":
        return docs.types_to_doc(built)
    return getattr(docs, f"{kind}_to_doc")(built)


def _outcome(parse, kind, doc):
    try:
        built = parse(doc)
    except InputError as exc:
        return "error", exc.pointer
    return "ok", json.dumps(_serialized(kind, built), sort_keys=True)


def test_every_document_kind_is_declared_once():
    assert set(docs.SCHEMAS) == {"complex", "pair", "type", "types", "family", "wallgraph",
                                 "seeds"}
    seeds = {"seeds": ["n0", "n1"]}
    assert docs.SCHEMAS["seeds"](seeds, "") == (("n0", "n1"),)
    for doc, pointer in [([1], ""), ({}, ""), ({"seeds": "n0"}, "/seeds"),
                         ({"seeds": ["n0", 1]}, "/seeds/1")]:
        with pytest.raises(InputError) as exc:
            docs.SCHEMAS["seeds"](doc, "")
        assert exc.value.pointer == pointer


@pytest.mark.parametrize("kind, doc", _seed_documents(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_seed_documents_round_trip_like_the_reference(kind, doc):
    want = _outcome(getattr(ref, f"{kind}_from_doc"), kind, doc)
    assert want[0] == "ok"
    assert _outcome(getattr(docs, f"{kind}_from_doc"), kind, doc) == want
    assert json.loads(want[1]) == doc


def test_single_faults_give_the_reference_objects_or_pointers():
    rng = random.Random(12)
    seen = {"ok": 0, "error": 0}
    for kind, doc in _seed_documents():
        new, old = getattr(docs, f"{kind}_from_doc"), getattr(ref, f"{kind}_from_doc")
        cases = list(_mutations(doc))
        for mutation in rng.sample(cases, min(len(cases), 220)):
            bad = mutated(doc, *mutation)
            want = _outcome(old, kind, bad)
            assert _outcome(new, kind, bad) == want, (kind, mutation)
            seen[want[0]] += 1
    assert min(seen.values()) > 200, seen


@pytest.mark.parametrize("edit", [
    lambda face: face["chart"]["ineqs"][0].append(face["chart"]["ineqs"][0][-1]),
    lambda face: face["chart"]["ineqs"].__setitem__(0, [[1]]),
    lambda face: face.update(rank=2),
], ids=["duplicated-offset", "nested-list", "rank"])
def test_chart_rows_are_checked_for_length_before_entries(edit):
    doc = docs.complex_to_doc(quadrant_complex())
    i = next(i for i, f in enumerate(doc["faces"]) if f["rank"] == 1 and f["chart"]["ineqs"])
    edit(doc["faces"][i])
    for parse in (docs.complex_from_doc, ref.complex_from_doc):
        with pytest.raises(InputError) as exc:
            parse(doc)
        assert exc.value.pointer == f"/faces/{i}/chart/ineqs/0"
        assert "constraint row needs" in str(exc.value)
