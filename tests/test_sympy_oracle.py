"""sympy as a second exact oracle for the linear algebra kernels: rank,
Smith normal form, integer kernels and fraction-free echelon forms over the
integers, spans (``_span_basis`` of rows scaled to integers), rational
kernels (of ``reference_linalg``) and solvability over the rationals (the
integer preimages of ``family.locate``)."""

import random
from fractions import Fraction
from math import lcm

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ, ZZ  # noqa: E402
from sympy.polys.matrices import DM  # noqa: E402
from sympy.polys.matrices.normalforms import invariant_factors  # noqa: E402

from tropmoduli.exact_linalg import (  # noqa: E402
    _span_basis,
    integer_kernel,
    mat_mul,
    rank,
    smith_normal_form,
)
from tropmoduli.polyhedral import _int_echelon  # noqa: E402

import reference_family  # noqa: E402
import reference_linalg  # noqa: E402
from helpers import locate_outcome, locate_points  # noqa: E402


def _matrices(count=300, seed=7, rational=False):
    """Seeded integer matrices up to 5 x 6, some with zero, repeated or
    dependent rows; with ``rational``, entries are Fractions over mixed
    denominators."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rational:
            m = [[Fraction(x, rng.choice((1, 2, 3, 5))) for x in r] for r in m]
        if rows > 1 and i % 5 == 1:
            m[rng.randrange(rows)] = [0] * cols
        if rows > 1 and i % 5 == 2:
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
        if i % 7 == 3:
            a, b = rng.randrange(rows), rng.randrange(rows)
            m[rng.randrange(rows)] = [2 * x - y for x, y in zip(m[a], m[b])]
        out.append(m)
    return out


MATRICES = _matrices()
RATIONAL = _matrices(seed=8, rational=True)


def _dm(m):
    return DM([list(r) for r in m], ZZ)


def _qq(m):
    return DM([[QQ(x.numerator, x.denominator) for x in r] for r in m], QQ)


def _fractions(dm):
    return [tuple(Fraction(int(x.numerator), int(x.denominator)) for x in r) for r in dm.to_list()]


def test_matrices_cover_degenerate_cases():
    kinds = {"zero row": 0, "repeated row": 0, "rank deficient": 0}
    for m in MATRICES:
        kinds["zero row"] += any(not any(r) for r in m)
        kinds["repeated row"] += len({tuple(r) for r in m}) < len(m)
        kinds["rank deficient"] += _dm(m).rank() < min(len(m), len(m[0]))
    assert min(kinds.values()) >= 20, kinds


def test_rank_matches_sympy():
    for m in MATRICES:
        assert rank(m) == _dm(m).rank(), m


def test_smith_normal_form_matches_sympy():
    for m in MATRICES:
        u, s, v = smith_normal_form(m)
        assert [list(r) for r in mat_mul(mat_mul(u, m), v)] == [list(r) for r in s], m
        assert abs(_dm(u).det()) == 1 and abs(_dm(v).det()) == 1, m
        assert all(s[i][j] == 0 for i in range(len(s)) for j in range(len(s[0])) if i != j)
        diagonal = [s[i][i] for i in range(min(len(m), len(m[0])))]
        assert diagonal == [abs(d) for d in invariant_factors(_dm(m))], m


def test_integer_kernel_matches_sympy():
    for m in MATRICES:
        basis = integer_kernel(m, len(m[0]))
        nullspace = _dm(m).convert_to(QQ).nullspace()
        assert len(basis) == nullspace.shape[0], m
        if not basis:
            continue
        k = _dm(basis)
        assert not any(any(r) for r in (_dm(m) * k.transpose()).to_list()), m
        # the same rational span, and every integer point of it is an integer
        # combination of the basis: its invariant factors are all 1
        assert k.convert_to(QQ).vstack(nullspace).rank() == len(basis), m
        assert list(invariant_factors(k)) == [1] * len(basis), m


def test_int_echelon_matches_sympy():
    for m in MATRICES:
        full = _dm(m).rank()
        for ncols in {len(m[0]), len(m[0]) - 1} - {0}:  # later columns are carried
            red, pivots = _int_echelon(m, ncols)
            _, sympy_pivots = DM([r[:ncols] for r in m], QQ).rref()
            assert tuple(pivots) == sympy_pivots, m
            # row operations keep the row space of the whole rows
            assert _dm(red).rank() == full == _dm(m).vstack(_dm(red)).rank(), m
            for r, c in enumerate(pivots):
                assert red[r][c] != 0
                assert all(red[i][c] == 0 for i in range(len(red)) if i != r), m
            assert all(not any(row[:ncols]) for row in red[len(pivots):]), m


def test_rational_matrices_cover_degenerate_cases():
    kinds = {"zero row": 0, "rank deficient": 0, "fractional": 0}
    for m in RATIONAL:
        kinds["zero row"] += any(not any(r) for r in m)
        kinds["rank deficient"] += _qq(m).rank() < min(len(m), len(m[0]))
        kinds["fractional"] += any(x.denominator > 1 for r in m for x in r)
    assert min(kinds.values()) >= 20, kinds


def _sympy_solve(a, b):
    """One solution of a y = b read off sympy's rref (free coordinates 0),
    or None when the rref has a pivot in the constant column."""
    ncols = len(a[0])
    red, pivots = _qq([list(row) + [bi] for row, bi in zip(a, b)]).rref()
    if ncols in pivots:
        return None
    y = [Fraction(0)] * ncols
    for row, c in zip(_fractions(red), pivots):
        y[c] = row[ncols]
    return tuple(y)


def test_rational_span_kernel_and_solvability_match_sympy():
    for m in RATIONAL:
        red, pivots = _qq(m).rref()
        # _span_basis of the rows scaled to integers: positive multiples of the RREF rows
        rows = [tuple(int(x * lcm(*(y.denominator for y in r))) for x in r) for r in m]
        basis = _span_basis(rows)
        assert len(basis) == len(pivots), m
        for row, want, c in zip(basis, _fractions(red), pivots):
            assert row[c] > 0 and tuple(Fraction(x, row[c]) for x in row) == want, m
        assert reference_linalg.kernel_rational(m, len(m[0])) == \
            _fractions(_qq(m).nullspace()), m
    # solvability: locate's integer preimages against sympy's, face and coordinates
    inconsistent = []

    def solve(a, b):
        y = _sympy_solve(a, b)
        inconsistent.append(y is None)
        return y

    for name, base, fid, x in locate_points():
        assert locate_outcome(base, fid, x) == reference_family.locate(base, fid, x, solve), \
            (name, fid, x)
    assert sum(inconsistent) >= 20, sum(inconsistent)
