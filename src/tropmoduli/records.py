"""Records: plain classes that name their fields in ``__slots__``.  A record class
with fields and no ``__init__`` of its own gets one that takes them in slot order and
stores each (``_store_each``; ``dataclasses`` would lengthen every cold start), named
``<Class>.__init__`` through the function's ``__qualname__`` (``CodeType.replace``
takes no ``co_qualname`` before Python 3.11).  Records
of one class with equal fields are equal.  A ``FrozenRecord`` is never assigned to after
construction and hashes by its fields; any other record is unhashable."""

from fractions import Fraction
from functools import cache
from types import FunctionType

from .errors import DimMismatch
from .exact_linalg import _affine_over, _over_common


@cache
def _store_each(n):
    """Code of ``__init__(self, f0, ...)`` storing each ``fi`` in ``self.fi``, compiled once
    per field count as ``namedtuple`` compiles its ``__new__``; classes rename the names."""
    exec(f"def __init__(self, {', '.join(f'f{i}' for i in range(n))}):"
         + "".join(f"\n self.f{i} = f{i}" for i in range(n)), namespace := {})
    return namespace["__init__"].__code__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if (fields := cls.__dict__.get("__slots__")) and "__init__" not in cls.__dict__:
            code = _store_each(len(fields)).replace(co_varnames=("self", *fields), co_names=fields)
            cls.__init__ = FunctionType(code, {"__name__": cls.__module__})
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(tuple(getattr(self, k) for k in self.__slots__))


class Offset:
    """A record whose offset, given as rationals or as integers over ``den``,
    is stored once as lowest-terms integers ``num`` over one ``den``
    (``exact_linalg._over_common``); ``offset`` builds its Fractions."""
    __slots__ = ()

    @property
    def offset(self):
        return tuple(Fraction(n, self.den) for n in self.num)


def _affine_at(linear, num, den: int, x) -> tuple:
    """Integer ``linear`` · x + num/den by ``_affine_over``, as Fractions."""
    xnum, xden = _over_common(tuple(x))
    if any(len(row) != len(xnum) for row in linear):
        raise DimMismatch(f"matrix has {len(linear[0])} columns, vector has {len(xnum)}")
    out, out_den = _affine_over(linear, num, den, xnum, xden)
    return tuple(Fraction(n, out_den) for n in out)
