"""The CLI boundary against the standard library it replaces: the report
encoder against ``json.dumps(sort_keys=True, indent=2)``, ``frac``'s
integer fast path against ``Fraction(str)``, and the per-verb parsers,
built once per process, against a fresh parse."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropmoduli import cli
from tropmoduli.exact_linalg import frac
from tropmoduli.moduli import WallClassification

from helpers import path_family


def _encoded(value):
    out = []
    cli._encode(value, out, "\n")
    return "".join(out)


_STRINGS = st.one_of(
    st.text(max_size=8),
    st.text(st.characters(blacklist_categories=()), max_size=4),  # lone surrogates too
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "😀", "a\"b\\c\n\t"]))


class _Count(int):
    """An int subclass, written as ``int.__repr__`` writes it."""


_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 80, 10 ** 80), st.integers().map(_Count),
                    st.sampled_from(WallClassification), _STRINGS)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.one_of(_STRINGS,
                                                         st.sampled_from(WallClassification)),
                                               children, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, derandomize=True, database=None)
@given(_TREES)
def test_encoder_writes_what_json_dumps_writes(tree):
    assert _encoded(tree) == json.dumps(tree, sort_keys=True, indent=2)


class _CountingDict(dict):
    """A dict that counts how often its keys are iterated."""
    iterations = 0

    def __iter__(self):
        _CountingDict.iterations += 1
        return super().__iter__()


def test_encoder_writes_a_dict_met_again_at_the_same_indent_as_json_dumps_does():
    """One dict object twice at one indent and once at another, next to an
    empty dict shared the same way: the bytes of ``json.dumps``, with the
    shared dict's keys read once per indent."""
    shared = _CountingDict({"b": [1, {"c": None}], "a": "x\u00e9", "d": {}})
    empty = {}
    report = {"one": shared, "two": shared, "deeper": {"three": shared, "e": empty},
              "e": empty, "list": [empty, 0]}
    _CountingDict.iterations = 0
    encoded = _encoded(report)
    assert _CountingDict.iterations == 2
    assert encoded == json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1: "x"}, {"a": 1, 2: "b"}, {None: 1},
                                   Fraction(1, 2), {"a": {1, 2}}, ["a", 1, 1.5],
                                   {"a": "b", "c": 0.5}, ["a", {"b": 2}, {3: "c"}],
                                   {"a": [1, True, {"b": (0, 0.0)}]}],
                         ids=["float", "nested-float", "int-key", "mixed-keys", "none-key",
                              "fraction", "set", "list-float", "dict-float", "nested-int-key",
                              "tuple-float"])
def test_encoder_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        _encoded(value)


def test_encoder_and_json_dumps_both_refuse_an_int_past_the_digit_limit():
    for encode in (_encoded, lambda x: json.dumps(x, sort_keys=True, indent=2)):
        with pytest.raises(ValueError, match="4300"):
            encode([10 ** 4300])


def _outcome(parse, text):
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


_RATIONAL_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True),
    st.text("0123456789-+/ ._eE\n١٣²", max_size=10),
    st.sampled_from(["+1", " 1", "1 ", "1_0", "007/3", "-0", "1/0", "0/00", "-0/7", "١٢/٣",
                     "1.5", "1e3", "+1/2", "--1", "-", "/", "1/", "/2", "1/-2", "1//2", "²",
                     "1\n", "", "1/2/3", "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000,
                     "9" * 5000 + "/7", "1/" + "0" * 5000, "9" * 4300, "1/" + "7" * 4300]))


@settings(max_examples=500, derandomize=True, database=None)
@given(_RATIONAL_TEXT)
def test_frac_reads_strings_as_fraction_does(text):
    assert _outcome(frac, text) == _outcome(Fraction, text)


def test_cached_parsers_carry_nothing_between_calls():
    face_default = cli._verb_parser("verdicts").get_default("face")
    assert cli._parse_args(["verdicts", "f.json", "--face", "A"]).face == ["A"]
    assert cli._parse_args(["verdicts", "f.json", "--face", "A", "--face", "B"]).face \
        == ["A", "B"]
    assert cli._parse_args(["verdicts", "f.json"]).face == []
    assert cli._parse_args(["classify", "x.json", "--format", "text", "--seed", "3"]).format \
        == "text"
    args = cli._parse_args(["classify", "x.json"])
    assert (args.format, args.seed, args.output) == ("json", 0, None)
    with pytest.raises(SystemExit):  # a usage error leaves the parser as it was
        cli._parse_args(["classify", "x.json", "--format", "xml"])
    assert cli._parse_args(["classify", "y.json"]).input == "y.json"
    assert cli._verb_parser("verdicts") is cli._verb_parser("verdicts")
    assert cli._verb_parser("verdicts").get_default("face") is face_default == []


def test_verdicts_leave_the_face_default_alone(tmp_path):
    path, out = tmp_path / "family.json", tmp_path / "report.json"
    path.write_text(json.dumps(cli.docs.family_to_doc(
        path_family([(1, 2), (2, 4)], [Fraction(3, 2), 2]))))
    face_default = cli._verb_parser("verdicts").get_default("face")
    faces = []
    for flags in (["--face", "P1"], [], ["--face", "P2", "--face", "P0"], []):
        assert cli.main(["verdicts", str(path), "-o", str(out)] + flags) == 0
        faces.append([v["face"] for v in json.loads(out.read_text())["payload"]["verdicts"]])
    assert faces == [["P1"], ["P0", "P1", "P2"], ["P2", "P0"], ["P0", "P1", "P2"]]
    assert face_default == [] and cli._verb_parser("verdicts").get_default("face") is face_default


def test_each_verb_parser_is_built_once():
    cli._verb_parser.cache_clear()
    first = cli._parse_args(["classify", "x.json"])
    assert vars(cli._parse_args(["classify", "x.json"])) == vars(first)
    cli._parse_args(["alpha", "x.json"])
    info = cli._verb_parser.cache_info()
    assert (info.misses, info.hits) == (2, 1)
