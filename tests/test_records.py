"""Value semantics of the library's records.

Records compare equal when they are of the same class with equal fields.
The immutable ones hash by their fields (``CanonicalForm`` by its string);
the mutable ones are unhashable.
"""

import sys
from fractions import Fraction

import pytest

import tropmoduli  # noqa: F401  (loads every module)

FROZEN = {
    "polyhedral": ["_PFace", "Face", "FaceInclusion", "Violation", "StarData", "PIAMap",
                   "HarmonicityResult", "Stratum", "SemistablePairData"],
    "tropcurve": ["WeightedGraph"],
    "moduli": ["CanonicalForm", "TypeIso", "WallClass"],
    "family": ["AffineFn", "AffineMapN", "ImageStratum"],
}
MUTABLE = {
    "polyhedral": ["ValidationReport"],
    "tropcurve": ["TropicalCurve", "BalanceReport", "StabilizationResult"],
    "moduli": ["StratumDescriptor", "WallGraph"],
    "family": ["FaceCurveData", "Contraction", "FamilyDatum", "FaceLift", "InducedMap",
               "WallVerdict", "PropagationResult"],
}


def _classes(table):
    return [getattr(sys.modules[f"tropmoduli.{mod}"], name)
            for mod, names in table.items() for name in names]


RECORDS = [(cls, True) for cls in _classes(FROZEN)] + [(cls, False) for cls in _classes(MUTABLE)]

# fields for the records whose constructor checks or converts them; any
# others take any values
VALID = {
    "WeightedGraph": lambda: ((("v", 0),), (("e", "v", "v"),), (("l", "v"),)),
    "TropicalCurve": lambda: (
        tropmoduli.WeightedGraph((("v", 0),), (("e", "v", "v"),), ()), {"e": 1}),
    # an offset is stored as integer numerators over one denominator
    "FaceInclusion": lambda: ("a", "b", ((1,), (0,)), (Fraction(1, 2), 3)),
    "AffineFn": lambda: ((1, 2), Fraction(3, 4)),
    "AffineMapN": lambda: (((1,), (2,)), (Fraction(1, 3), 0)),
    "FaceLift": lambda: ("f", None, "c", ((1,),), (Fraction(1, 2),), None, {}, {}),
}


def _fields(cls):
    """Fresh field values, equal on every call but not the same objects."""
    if cls.__name__ in VALID:
        return VALID[cls.__name__]()
    return tuple((cls.__name__, name) for name in cls.__slots__)


def test_every_record_is_listed():
    from tropmoduli.records import Record

    found = {cls for mod in list(sys.modules.values())
             if mod is not None and mod.__name__.startswith("tropmoduli.")
             for cls in vars(mod).values()
             if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == mod.__name__
             and cls.__slots__}
    assert found == {cls for cls, _ in RECORDS}
    assert len(RECORDS) == 29


@pytest.mark.parametrize("cls, frozen", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_semantics(cls, frozen):
    a, b = cls(*_fields(cls)), cls(*_fields(cls))
    assert a == b and not a != b
    assert a is not b

    class Twin(cls):
        __slots__ = ()

    twin = Twin(*_fields(cls))
    assert a != twin and twin != a
    assert a != _fields(cls)
    if cls.__name__ not in VALID:
        for i in range(len(cls.__slots__)):
            changed = list(_fields(cls))
            changed[i] = "other"
            assert a != cls(*changed)
    if frozen:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


OWN_INIT = ["Face", "FaceInclusion", "ValidationReport", "WeightedGraph", "TropicalCurve",
            "WallClass", "AffineFn", "AffineMapN", "FaceLift", "WallVerdict"]
COMPILED = [cls for cls, _ in RECORDS if cls.__name__ not in OWN_INIT]


def test_only_records_that_convert_check_or_default_a_field_write_a_constructor():
    """The other records' constructors are compiled from their slots, so
    their code comes from no source file."""
    written = {cls.__name__ for cls, _ in RECORDS
               if cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__}
    assert written == set(OWN_INIT)
    assert len(COMPILED) == 19


@pytest.mark.parametrize("cls", COMPILED, ids=[cls.__name__ for cls in COMPILED])
def test_compiled_constructor_takes_the_slots_in_order(cls):
    import inspect

    params = inspect.signature(cls).parameters
    assert list(params) == list(cls.__slots__)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params.values())
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__

    values = {name: (cls.__name__, name) for name in cls.__slots__}
    record = cls(**values)
    assert all(getattr(record, name) is value for name, value in values.items())
    assert record == cls(*values.values())
    missing = cls.__slots__[-1]
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) missing 1 "
                                        rf"required positional argument: '{missing}'$"):
        cls(*list(values.values())[:-1])
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) got an "
                                        r"unexpected keyword argument 'other'$"):
        cls(**values, other=0)

    class Twin(cls):
        __slots__ = ()

    assert Twin.__init__ is cls.__init__
    twin = Twin(**values)
    assert all(getattr(twin, name) is value for name, value in values.items())


def test_canonical_form_hashes_by_its_string():
    from tropmoduli.moduli import CanonicalForm

    a = CanonicalForm(("k",), "s", {}, {}, None)
    assert hash(a) == hash("s")
    assert a == CanonicalForm(("k",), "s", {}, {}, None)
    assert a != CanonicalForm(("j",), "s", {}, {}, None)


def test_offsets_keep_their_values_equality_and_hashing():
    """Offsets given as rationals or as integers over a denominator are
    stored once in lowest terms, and read back as the same Fractions."""
    from tropmoduli.family import AffineFn, AffineMapN
    from tropmoduli.polyhedral import FaceInclusion

    a = FaceInclusion("a", "b", [[1], [0]], (Fraction(1, 2), 3))
    b = FaceInclusion("a", "b", ((1,), (0,)), (3, 18), 6)
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.den) == ((1, 6), 2) and a.offset == (Fraction(1, 2), 3)
    assert all(type(x) is Fraction for x in a.offset)
    assert a != FaceInclusion("a", "b", ((1,), (0,)), (Fraction(1, 2), 4))
    f = AffineFn((1,), "-4/6")
    assert f == AffineFn((1,), -2, 3) and f.offset == Fraction(-2, 3)
    assert (f.num, f.den) == (-2, 3)
    m = AffineMapN(((1,),), (0,), 5)
    assert (m.num, m.den) == ((0,), 1) and m.offset == (0,)


def test_a_face_lift_keeps_its_rank_outside_its_fields():
    """A lift whose rank is computed and kept equals, and prints as, one
    whose rank was never asked for."""
    from tropmoduli.family import FaceLift

    make = lambda: FaceLift("f", None, "c", ((1, 2), (2, 4)), (Fraction(1, 2), 0), None, {}, {})
    a, b = make(), make()
    assert a.rank() == 1 and a.rank() == 1
    assert a == b and b == a and repr(a) == repr(b)
