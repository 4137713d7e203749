import ast
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest

from tropmoduli.errors import DependentGenerators, DimMismatch, ZeroVector
import tropmoduli
from tropmoduli.exact_linalg import (
    _affine_over,
    _over_common,
    _positive_solution,
    _span_basis,
    det,
    frac,
    integer_kernel,
    integer_solve,
    is_saturated,
    lp_maximize,
    mat_mul,
    mat_rows,
    primitive_vector,
    rank,
    smith_normal_form,
    strict_positive_combination,
    vec,
)

from tropmoduli.family import AffineFn, AffineMapN
from tropmoduli.polyhedral import FaceInclusion

import reference_family
import reference_linalg as reference
from helpers import locate_outcome, locate_points, quadrant_complex
from reference_linalg import feasible_point
from oracles import fm_positive_combination_exists, reference_lp_maximize


def snf_checks(m):
    u, s, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, mat_rows(m)), v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    for i in range(len(s)):
        for j in range(len(s[0]) if s else 0):
            if i != j:
                assert s[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return u, s, v


def test_snf_examples():
    _, s, _ = snf_checks([[2, 0], [0, 3]])
    assert [s[0][0], s[1][1]] == [1, 6]
    _, s, _ = snf_checks([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert s == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    _, s, _ = snf_checks([[0]])
    assert s == ((0,),)


def test_snf_random_matrices():
    rng = random.Random(0)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf_checks(m)


def test_smith_form_matches_the_two_structure_reference():
    """One working row per row of s and u gives the ``(u, s, v)`` that
    stating each row operation on s and on u gave, on seeded matrices from
    0x0 to 6x6 with entries up to 20 in absolute value, zero rows and
    columns, rows that combine others, and diagonals whose entries do not
    divide each other.  The divisibility step runs and negates row t+1; in
    the reference its re-clear loop never meets a zero pivot and never
    leaves row t negative, the two branches the library no longer has."""
    rng = random.Random("smith")
    counts = Counter()
    for rows, cols in product(range(7), repeat=2):
        for _ in range(60):
            bound = rng.choice((1, 2, 5, 20))
            m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            for _ in range(rng.randint(0, 2)):
                kind = rng.randrange(3)
                if kind == 0 and rows:  # a zero row
                    m[rng.randrange(rows)] = [0] * cols
                elif kind == 1 and cols:  # a zero column
                    j = rng.randrange(cols)
                    for row in m:
                        row[j] = 0
                elif rows > 1:  # a row plus a multiple of another, or of itself
                    a, b, c = rng.randrange(rows), rng.randrange(rows), rng.randint(-3, 3)
                    m[a] = [x + c * y for x, y in zip(m[a], m[b])]
            if rows and cols and rng.random() < 0.3:
                m = [[rng.randint(1, 12) if i == j else 0 for j in range(cols)]
                     for i in range(rows)]
            assert smith_normal_form(m) == reference.smith_normal_form(m, counts), m
    assert counts["divisibility step"] >= 500 and counts["row t+1 negated"] >= 300, counts
    assert counts["zero pivot"] == counts["row t negated"] == 0, counts


def test_is_saturated():
    assert is_saturated([(1, 0)], 2) is True
    assert is_saturated([(2, 0)], 2) is False
    assert is_saturated([(1, 1), (0, 1)], 2) is True
    assert is_saturated([], 3) is True
    with pytest.raises(DependentGenerators):
        is_saturated([(1, 2), (2, 4)], 2)


def test_primitive_vector():
    assert primitive_vector((4, 6)) == (2, 3)
    assert primitive_vector((0, -5)) == (0, -1)
    assert primitive_vector((7,)) == (1,)
    with pytest.raises(ZeroVector):
        primitive_vector((0, 0))


def test_primitive_vector_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if all(x == 0 for x in v):
            continue
        p = primitive_vector(v)
        assert primitive_vector(p) == p
        g = 0
        for x in p:
            g = __import__("math").gcd(g, abs(x))
        assert g == 1


def _in_span(v, vectors) -> bool:
    """Membership by rank against the independent rows of ``_span_basis``."""
    basis = _span_basis(vectors)
    return rank([*basis, v]) == len(basis)


def test_span_membership():
    assert _in_span((1, 1), [(1, 1)]) is True
    assert _in_span((1, 0), []) is False
    assert _in_span((0, 0), []) is True
    assert _in_span((2, 4, 6), [(1, 2, 3)]) is True
    assert _in_span((2, 4, 7), [(1, 2, 3)]) is False
    assert _in_span((2, 4, 7), [(1, 2, 3), (-2, -4, -6), (0, 0, 0)]) is False
    assert _span_basis([(0, -2, 4), (0, 3, -6)]) == ((0, 2, -4),)  # pivot made positive
    with pytest.raises(DimMismatch):
        strict_positive_combination([(1, 0, 0)], [(1, 1)])


def test_solve_and_kernel():
    a = [vec([1, 2]), vec([2, 4])]
    assert rank(a) == 1
    # locate solves the preimage of a boundary point on integers: (0, 3/2)
    # has none through X -> Q (0 = 3/2) and y = 3/2 through Y -> Q
    q = quadrant_complex()
    assert locate_outcome(q, "Q", (0, Fraction(3, 2))) == ("Y", (Fraction(3, 2),))
    assert locate_outcome(q, "Q", (0, 0)) == ("O", ())
    assert locate_outcome(q, "Q", (Fraction(1, 3), 2)) == ("Q", (Fraction(1, 3), 2))
    assert locate_outcome(q, "Q", (-1, 0)) == "outside"


def test_integer_solve_and_kernel():
    a = [(2, 0), (0, 3)]
    assert integer_solve(a, (4, 9)) == (2, 3)
    assert integer_solve(a, (1, 0)) is None  # 2x = 1 has no integer solution
    assert integer_solve([], ()) is None  # no rows
    k = integer_kernel([(1, 1, 1)], 3)
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0


def test_lp_basic():
    # maximize x + y st x <= 2, y <= 3, x,y >= 0
    status, x, value = lp_maximize(
        (1, 1),
        [],
        [((-1, 0), -2), ((0, -1), -3)],
        [True, True],
    )
    assert status == 'optimal'
    assert value == 5
    # unbounded
    status, _, _ = lp_maximize((1,), [], [], [True])
    assert status == 'unbounded'
    # infeasible
    status, _, _ = lp_maximize((0,), [((1,), 1)], [((-1,), 0)], [True])
    assert status == 'infeasible'


def test_lp_all_rows_redundant():
    # phase 1 drops the only row (0 = 0), leaving phase 2 with no rows
    assert lp_maximize((1,), [((0,), 0)], [], [True]) == ('unbounded', None, None)
    assert lp_maximize((-1,), [((0,), 0)], [], [True]) == ('optimal', (0,), 0)


def _random_rational(rng, fractional):
    if fractional and rng.random() < 0.3:
        return Fraction(rng.randint(-6, 6), rng.choice((2, 3, 4, 6)))
    return rng.randint(-3, 3)


def _random_lp(rng):
    n = rng.randint(1, 5)
    fractional = rng.random() < 0.5
    degenerate = rng.random() < 0.4  # every rhs zero

    def row():
        return tuple(_random_rational(rng, fractional) for _ in range(n))

    def rhs():
        return 0 if degenerate else _random_rational(rng, fractional)

    eqs = [(row(), rhs()) for _ in range(rng.randint(0, 3))]
    ineqs = [(row(), rhs()) for _ in range(rng.randint(0, 4))]
    extra = rng.random()
    if eqs and extra < 0.3:  # a redundant multiple of an equality
        coef, r = rng.choice(eqs)
        k = rng.choice((1, 2, Fraction(-1, 2)))
        eqs.append((tuple(k * x for x in coef), k * r))
    elif extra < 0.45:
        eqs.append(((0,) * n, 0))
    return row(), eqs, ineqs, [rng.random() < 0.6 for _ in range(n)]


def test_lp_matches_reference_simplex():
    rng = random.Random(11)
    seen = set()
    for _ in range(800):
        lp = _random_lp(rng)
        got = lp_maximize(*lp)
        assert got == reference_lp_maximize(*lp), lp
        if got[0] == 'optimal':
            assert all(type(x) is Fraction for x in got[1]) and type(got[2]) is Fraction
        seen.add(got[0])
    assert seen == {'optimal', 'infeasible', 'unbounded'}


def test_feasible_point_strict():
    # 0 <= x <= 1/2 has interior
    pt = feasible_point([], [((1,), 0), ((-1,), Fraction(-1, 2))], 1, strict=(0, 1))
    assert pt is not None
    assert 0 < pt[0] < Fraction(1, 2)
    # x >= 0 and x <= 0 has no interior
    assert feasible_point([], [((1,), 0), ((-1,), 0)], 1, strict=(0, 1)) is None
    # but it is (weakly) feasible
    assert feasible_point([], [((1,), 0), ((-1,), 0)], 1) == (Fraction(0),)


def verify_certificate(coeffs, vectors, basis):
    assert coeffs is not None
    assert all(isinstance(c, int) and c > 0 for c in coeffs)
    total = tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(len(vectors[0])))
    assert rank([*basis, total]) == len(basis)


def test_strict_positive_combination_examples():
    got = strict_positive_combination([(1, 0), (-1, 0)], ())
    verify_certificate(got, [(1, 0), (-1, 0)], ())
    assert strict_positive_combination([(1, 0), (0, 1)], ()) is None
    line = ((1, 0),)
    got = strict_positive_combination([(1, 1), (1, -2)], line)
    verify_certificate(got, [(1, 1), (1, -2)], line)


def test_no_vectors_combine_to_the_empty_certificate():
    assert strict_positive_combination([], ((1, 0),)) == []


@pytest.mark.parametrize("m, d", [(((1, 2), (2, 4)), 0), (((0, 0), (0, 1)), 0),
                                  (((0, 1), (1, 0)), -1), (((2, 1), (1, "1/2")), 0)])
def test_det_with_a_row_swap_or_a_column_without_pivot(m, d):
    """Elimination stops at the first column without a pivot below the
    diagonal; a row swap on the way flips the sign."""
    assert det(m) == d


@pytest.mark.parametrize("call, error, message", [
    (lambda: frac(0.5), TypeError, "cannot interpret 0.5 as a rational number"),
    (lambda: mat_mul(((1, 2),), ((1, 2),)), DimMismatch, "cannot multiply 1x2 by 1x2"),
    (lambda: det(((1, 2),)), DimMismatch, "determinant of a non-square matrix"),
    (lambda: is_saturated([(1, 0)], 3), DimMismatch, "generator has length 2, ambient is 3"),
    (lambda: integer_solve([(1, 0)], (1, 2)), DimMismatch, "matrix has 1 rows, vector has 2"),
], ids=["frac-float", "mat-mul-shapes", "det-non-square", "saturated-length", "solve-length"])
def test_misshapen_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_strict_positive_combination_vs_fm_dim1_exhaustive():
    values = [-2, -1, 0, 1, 2]
    for k in (1, 2, 3):
        for combo in product(values, repeat=k):
            vectors = [(c,) for c in combo]
            got = strict_positive_combination(vectors, ())
            expect = fm_positive_combination_exists(vectors, [], 1)
            assert (got is not None) == expect, combo
            if got is not None:
                verify_certificate(got, vectors, ())


def test_strict_positive_combination_vs_fm_random():
    """Against the Fourier-Motzkin oracle, and against the ``Fraction``
    reference on the reduced row echelon basis: the integer basis rows are
    positive multiples of it, so the certificates are the same."""
    rng = random.Random(7)
    for _ in range(150):
        dim = rng.randint(1, 3)
        k = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(k)]
        nb = rng.randint(0, dim - 1)
        basis_candidates = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(nb)]
        basis = _span_basis(basis_candidates)
        got = strict_positive_combination(vectors, basis)
        expect = fm_positive_combination_exists(vectors, list(basis), dim)
        assert (got is not None) == expect, (vectors, basis)
        if got is not None:
            verify_certificate(got, vectors, basis)
        target = reference.Subspace.from_spanning(basis_candidates, dim)
        assert got == reference.strict_positive_combination(vectors, target), (vectors, basis)


# ---------------------------------------------------------------------------
# the fraction-free row reduction against the Fraction RREF reference
# ---------------------------------------------------------------------------

def _rational_systems(count=1500, seed=11):
    """Seeded systems up to 5 x 5 with mixed denominators (every fourth one
    all-int), some with zero, repeated, dependent or single rows, and some
    with no rows or no columns."""
    rng = random.Random(seed)

    def entry(integral):
        if integral:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))

    out = []
    for i in range(count):
        nrows = 1 if i % 9 == 4 else rng.randint(0, 5)
        ncols = 0 if i % 31 == 7 else rng.randint(1, 5)
        integral = i % 4 == 0
        m = [tuple(entry(integral) for _ in range(ncols)) for _ in range(nrows)]
        if nrows > 1 and i % 5 == 1:
            m[rng.randrange(nrows)] = (0,) * ncols
        if nrows > 1 and i % 5 == 2:
            m[rng.randrange(nrows)] = m[rng.randrange(nrows)]
        if nrows > 1 and i % 7 == 3:
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            m[rng.randrange(nrows)] = tuple(2 * x - Fraction(y, 3) for x, y in zip(m[a], m[b]))
        x = tuple(entry(integral) for _ in range(ncols))
        consistent = tuple(sum((c * y for c, y in zip(row, x)), Fraction(0)) for row in m)
        out.append((m, ncols, consistent, tuple(entry(integral) for _ in range(nrows))))
    return out


SYSTEMS = _rational_systems()


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def test_rational_systems_cover_degenerate_cases():
    kinds = {"no rows": 0, "no columns": 0, "single row": 0, "zero row": 0,
             "repeated row": 0, "rank deficient": 0, "inconsistent": 0}
    for m, ncols, _, b in SYSTEMS:
        kinds["no rows"] += not m
        kinds["no columns"] += bool(m) and ncols == 0
        kinds["single row"] += len(m) == 1
        kinds["zero row"] += any(not any(r) for r in m) and ncols > 0
        kinds["repeated row"] += len(set(m)) < len(m)
        kinds["rank deficient"] += bool(m) and reference.rank(m) < min(len(m), ncols)
        kinds["inconsistent"] += reference.solve_linear(m, b) is None
    assert min(kinds.values()) >= 20, kinds


def test_row_reduction_matches_fraction_reference():
    for m, ncols, consistent, b in SYSTEMS:
        assert rank(m) == reference.rank(m), m
        basis = _span_basis(_integer_rows(m))
        assert all(type(x) is int for row in basis for x in row)
        assert _positive_multiples(basis, reference.spanning_basis(m)), m
    # the integer preimages of locate against the Fraction solve_linear
    kinds = {"outside": 0, "interior": 0, "boundary": 0, "no preimage": 0}

    def solve(a, b):
        x = reference.solve_linear(a, b)
        kinds["no preimage"] += x is None
        return x

    for name, base, fid, x in locate_points():
        got = locate_outcome(base, fid, x)
        assert got == reference_family.locate(base, fid, x, solve), (name, fid, x)
        if got == "outside":
            kinds["outside"] += 1
        else:
            assert _all_fractions([got[1]]), got
            kinds["interior" if got[0] == fid else "boundary"] += 1
    assert min(kinds.values()) >= 20, kinds


def _integer_rows(m):
    """Each row times the lcm of its denominators: the same span over the integers."""
    return [tuple(int(Fraction(x) * lcm(*(Fraction(y).denominator for y in row))) for x in row)
            for row in m]


def _positive_multiples(rows, rref_rows) -> bool:
    """Whether each row is a positive multiple of the matching reduced row
    echelon row (whose pivot entry is 1)."""
    if len(rows) != len(rref_rows):
        return False
    for row, ref in zip(rows, rref_rows):
        scale = row[next(i for i, x in enumerate(ref) if x)]
        if scale <= 0 or row != tuple(scale * x for x in ref):
            return False
    return True


def test_span_membership_matches_fraction_reference():
    for m, ncols, consistent, b in SYSTEMS:
        if not m or not ncols:
            continue
        basis = reference.spanning_basis(m)
        cols = [tuple(v[i] for v in basis) for i in range(ncols)]
        for v in (m[0], tuple(b[:1] * ncols), tuple(x - y for x, y in zip(m[-1], m[0]))):
            expect = reference.solve_linear(cols, v) is not None if basis else not any(v)
            assert _in_span(_integer_rows([v])[0], _integer_rows(m)) == expect, (m, v)


def _rational(rng):
    """An int, or a Fraction over one of several denominators."""
    if rng.random() < 0.3:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 7, 9)))


def test_affine_maps_match_fraction_reference():
    """Integer numerators over one denominator give exactly the Fractions of
    the reference, on 1,000 seeded shapes including empty rows and columns:
    ``FaceInclusion.apply`` and calls of ``AffineMapN`` and of one
    ``AffineFn`` per row, on the draws with an integer linear part, and
    ``_affine_over`` as the composite offset."""
    rng = random.Random(11)
    shapes = set()
    for _ in range(1000):
        rows, mid, cols = (rng.randint(0, 4) for _ in range(3))
        shapes.add((rows == 0, mid == 0, cols == 0))
        entry = (lambda: rng.randint(-4, 4)) if rng.random() < 0.8 else (lambda: _rational(rng))
        outer = tuple(tuple(entry() for _ in range(mid)) for _ in range(rows))
        inner = tuple(tuple(rng.randint(-4, 4) for _ in range(cols)) for _ in range(mid))
        outer_off = tuple(_rational(rng) for _ in range(rows))
        inner_off = tuple(_rational(rng) for _ in range(mid))
        x = tuple(_rational(rng) for _ in range(mid))
        if all(type(a) is int for row in outer for a in row):  # an integral map
            expect = reference.affine_apply(outer, outer_off, x)
            for got in (FaceInclusion("a", "b", outer, outer_off).apply(x),
                        AffineMapN(outer, outer_off)(x),
                        tuple(AffineFn(row, o)(x) for row, o in zip(outer, outer_off))):
                assert got == expect and all(type(v) is Fraction for v in got)
            num, den = _affine_over(outer, *_over_common(outer_off), *_over_common(inner_off))
            off = reference.affine_compose(outer, outer_off, inner, inner_off)[1]
            assert tuple(Fraction(n, den) for n in num) == off
            assert (num, den) == _over_common(off)
    assert len(shapes) == 8
    with pytest.raises(DimMismatch):
        FaceInclusion("a", "b", ((1, 2),), (0,)).apply((Fraction(1, 2),))


def test_positive_solution_matches_the_slack_lp_of_feasible_point():
    """``_positive_solution`` returns the point that the general feasibility
    LP gave on the slacks x_i - 1 >= 0, so certificates and stratum lengths
    do not change with the LP's shape."""
    rng = random.Random(11)
    outcomes = set()
    for _ in range(200):
        n, free = rng.randint(1, 4), rng.randint(0, 2)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n + free))
                for _ in range(rng.randint(1, 3))]
        slack = feasible_point([(r, -sum(r[:n])) for r in rows], [], n + free,
                               nonneg=[True] * n + [False] * free)
        expect = None if slack is None else tuple(1 + x for x in slack[:n]) + slack[n:]
        got = _positive_solution(rows, n)
        assert got == expect, rows
        if got is not None:
            assert all(x >= 1 for x in got[:n])
            assert all(sum(a * x for a, x in zip(r, got)) == 0 for r in rows)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def _lp_callers(tree):
    """Names of the functions (``<module>`` at top level) that call
    ``lp_maximize``, by name or as an attribute, once per call."""
    callers = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = ["<module>"]

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "lp_maximize":
                callers.append(self.stack[-1])
            self.generic_visit(node)

    Visitor().visit(tree)
    return callers


def test_only_positive_solution_solves_an_lp():
    """The library asks an LP two questions, stratum emptiness and
    quasi-harmonicity, and both go through ``_positive_solution``."""
    callers = []
    for path in sorted(Path(tropmoduli.__file__).parent.glob("*.py")):
        callers += [(path.name, name) for name in _lp_callers(ast.parse(path.read_text()))]
    assert callers == [("exact_linalg.py", "_positive_solution")]
