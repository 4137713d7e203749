"""Records: plain classes that name their fields in ``__slots__`` and set them
in their own ``__init__``.  Records of one class with equal fields are equal.
A ``FrozenRecord`` is never assigned to after construction and hashes by its
fields; any other record is unhashable."""

from fractions import Fraction

from .errors import DimMismatch
from .exact_linalg import _affine_over, _over_common


class Record:
    __slots__ = ()

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
