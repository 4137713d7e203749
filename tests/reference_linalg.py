"""Reference rational linear algebra for differential tests.

This is the ``Fraction`` reduced row echelon form that ``rank``,
``solve_linear``, ``kernel_rational`` and ``Subspace.from_spanning`` used
before they moved onto the fraction-free ``_int_echelon``, the full
``unimodular_inverse`` that ``star`` read one column of, and the
``Fraction`` ``affine_apply`` and ``affine_compose`` that summed products
of Fractions before they moved onto integer numerators over one common
denominator, with the ``Fraction`` dot product ``vec_dot`` and
matrix-vector product ``mat_vec`` and the ``Fraction`` vector sums
``vec_add``, ``vec_sub`` and ``vec_scale`` that the library no longer
uses.  Both must give identical answers.  ``kernel_rational`` and
``solve_linear`` have no library counterpart any more:
``reference_stratum`` samples along the first, the sympy oracle checks
it, and ``solve_linear`` is the reference for ``family.locate``'s integer
preimages.  It also keeps
``feasible_point``, the general LP feasibility query (with its common
slack ``t <= 1`` for strict inequalities) that the library used before
its only LP question became ``_positive_solution``; the reference
polyhedra, stratum sampler and family validator find their points with
it.  It is kept apart from ``oracles.py``, which the benchmark loads for
its output checks.

``Subspace``, ``span_membership`` and ``strict_positive_combination`` are
the ``Fraction`` path that ``harmonicity_at`` took before it moved onto
integer rows: a subspace is the basis of reduced row echelon rows that
``spanning_basis`` returns (the old ``Subspace.from_spanning`` gave the
same rows), membership is a rank test, and every LP entry goes through
``frac``.  The LP itself is the library's ``_positive_solution``, so the
two paths must return the same certificates.

``smith_normal_form`` is the Smith form as it was before each row
operation became one list operation on a working row that holds s and u.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction

from tropmoduli.errors import DependentGenerators, DimMismatch
from tropmoduli.exact_linalg import (
    _over_common,
    _positive_solution,
    frac,
    lp_maximize,
    primitive_vector,
    vec,
)
from tropmoduli.records import FrozenRecord


def _rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_rref(rows)[1])


def solve_linear(a, b):
    """One rational solution of ``a x = b`` (free variables 0), or None."""
    if not a:
        return None if any(x != 0 for x in b) else ()
    ncols = len(a[0])
    red, pivots = _rref([tuple(row) + (bi,) for row, bi in zip(a, b, strict=True)])
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:  # pivot in the constant column: 0 = 1
            return None
        x[c] = red[r][ncols]
    return tuple(x)


def kernel_rational(a, ncols: int) -> list:
    """One kernel vector per free column: 1 there, 0 in the other free columns."""
    if not a:
        return [tuple(Fraction(1 if i == j else 0) for j in range(ncols)) for i in range(ncols)]
    red, pivots = _rref(a)
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][fcol]
        basis.append(tuple(v))
    return basis


def spanning_basis(vectors) -> tuple:
    """The nonzero rows of the reduced row echelon form of ``vectors``."""
    red, pivots = _rref(vectors) if vectors else ([], [])
    return tuple(red[i] for i in range(len(pivots)))


def unimodular_inverse(u):
    """Exact integer inverse of a unimodular matrix, column by column."""
    n = len(u)
    cols = [solve_linear(u, tuple(int(i == j) for i in range(n))) for j in range(n)]
    assert all(col is not None for col in cols)
    return tuple(tuple(int(cols[j][i]) for j in range(n)) for i in range(n))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def mat_vec(a, x):
    if a and len(a[0]) != len(x):
        raise DimMismatch(f"matrix has {len(a[0])} columns, vector has {len(x)}")
    return tuple(sum((row[k] * x[k] for k in range(len(x))), Fraction(0)) for row in a)


def affine_apply(linear, offset, x):
    """linear · x + offset, summed in Fractions."""
    return tuple(sum((Fraction(a) * Fraction(xi) for a, xi in zip(row, x, strict=True)),
                     Fraction(0)) + Fraction(o)
                 for row, o in zip(linear, offset, strict=True))


def affine_compose(outer_lin, outer_off, inner_lin, inner_off):
    """The affine map x -> outer(inner(x)) as a (linear, offset) pair."""
    cols = len(inner_lin[0]) if inner_lin else 0
    lin = tuple(tuple(sum(row[k] * inner_lin[k][j] for k in range(len(inner_lin)))
                      for j in range(cols))
                for row in outer_lin)
    return lin, affine_apply(outer_lin, outer_off, inner_off)


def feasible_point(eqs: Sequence, ineqs: Sequence, dim: int,
                   strict: Sequence[int] = (), nonneg: Sequence[bool] | None = None):
    """A rational point satisfying the system, or None.

    ``eqs``/``ineqs`` are (coefficient vector, rhs) pairs meaning coef·x = rhs
    resp. coef·x >= rhs over free variables (unless ``nonneg`` is given).
    Inequalities listed in ``strict`` must hold strictly; strictness is
    decided exactly by maximizing a common slack bounded by 1.
    """
    if nonneg is None:
        nonneg = [False] * dim
    strict = set(strict)
    # variables: x_0..x_{dim-1}, t
    eqs2 = [(tuple(c) + (0,), r) for c, r in eqs]
    ineqs2 = []
    for k, (c, r) in enumerate(ineqs):
        tcoef = -1 if k in strict else 0
        ineqs2.append((tuple(c) + (tcoef,), r))
    ineqs2.append(((0,) * dim + (-1,), -1))  # t <= 1
    obj = (0,) * dim + (1,)
    status, x, value = lp_maximize(obj, eqs2, ineqs2, list(nonneg) + [True])
    if status != 'optimal':
        return None
    if strict and value <= 0:
        return None
    return tuple(x[:dim])


class Subspace(FrozenRecord):
    """A rational linear subspace given by an independent basis."""

    __slots__ = ("ambient_dim", "basis")
    def __init__(self, ambient_dim: int, basis: tuple):
        self.ambient_dim, self.basis = ambient_dim, basis
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise DimMismatch("basis vector has wrong length")
        if self.basis and rank(self.basis) != len(self.basis):
            raise DependentGenerators("subspace basis is dependent")

    @staticmethod
    def from_spanning(vectors: Sequence, ambient_dim: int) -> "Subspace":
        """The subspace spanned, with the nonzero rows of the reduced row
        echelon form as its basis."""
        return Subspace(ambient_dim, spanning_basis(vectors))

    @property
    def dim(self) -> int:
        return len(self.basis)


def span_membership(v, s: Subspace) -> bool:
    """Whether ``v`` lies in the rational span of ``s.basis``."""
    if len(v) != s.ambient_dim:
        raise DimMismatch(f"vector has length {len(v)}, subspace ambient is {s.ambient_dim}")
    return rank([*s.basis, v]) == len(s.basis)  # the basis is independent


def strict_positive_combination(vectors: Sequence, target: Subspace):
    """Positive integers a_i with sum(a_i * v_i) in ``target``, if any exist.

    The unknowns are the a_i, each >= 1 (``_positive_solution``), and free
    coefficients b_j on the basis of ``target``.  The returned certificate
    is integer-scaled with the common denominator cleared.  Returns None
    when no positive combination exists.
    """
    k = len(vectors)
    for v in vectors:
        if len(v) != target.ambient_dim:
            raise DimMismatch("vector/target dimension mismatch")
    if k == 0:
        return []
    # one row per coordinate: sum_i a_i v_i - sum_j b_j basis_j = 0
    rows = [tuple(frac(v[c]) for v in vectors) + tuple(-frac(b[c]) for b in target.basis)
            for c in range(target.ambient_dim)]
    point = _positive_solution(rows, k)
    if point is None:
        return None
    ints = list(primitive_vector(_over_common(point[:k])[0]))
    assert all(x > 0 for x in ints)
    combo = (Fraction(0),) * target.ambient_dim
    for ai, v in zip(ints, vectors):
        combo = vec_add(combo, vec_scale(ai, vec(v)))
    assert span_membership(combo, target)
    return ints


def smith_normal_form(m, counts=None):
    """``exact_linalg.smith_normal_form`` as it was before row r of s and
    row r of u became one working row: every row operation is stated twice,
    on s and on u.  It must return identical ``(u, s, v)``.  ``counts``, a
    ``Counter``, records the branches of the divisibility step
    the differential test needs: the step itself, a zero pivot in its
    re-clear loop, and the negation of row t or of row t+1 after it."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = [[int(x) for x in row] for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    counts = Counter() if counts is None else counts

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # minimal-absolute-value nonzero pivot in the remaining block
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best != (t, t):
                if best[0] != t:
                    swap_rows(t, best[0])
                if best[1] != t:
                    swap_cols(t, best[1])
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    add_row(t, i, -(s[i][t] // s[t][t]))
                    if s[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    add_col(t, j, -(s[t][j] // s[t][t]))
                    if s[t][j] != 0:
                        dirty = True
            if not dirty:
                break
        if s[t][t] < 0:
            negate_row(t)

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for t in range(n - 1):
            a, b = s[t][t], s[t + 1][t + 1]
            if a != 0 and b % a != 0:
                counts["divisibility step"] += 1
                add_col(t + 1, t, 1)  # puts b into column t below the pivot
                # re-clear the 2x2 block at (t, t+1)
                while s[t + 1][t] != 0:
                    if s[t][t] != 0:
                        q = s[t + 1][t] // s[t][t]
                        add_row(t, t + 1, -q)
                    else:
                        counts["zero pivot"] += 1
                    if s[t + 1][t] != 0:
                        swap_rows(t, t + 1)
                if s[t][t + 1] != 0:
                    add_col(t, t + 1, -(s[t][t + 1] // s[t][t]))
                if s[t][t] < 0:
                    counts["row t negated"] += 1
                    negate_row(t)
                if s[t + 1][t + 1] < 0:
                    counts["row t+1 negated"] += 1
                    negate_row(t + 1)
                changed = True
    return tuple(map(tuple, u)), tuple(map(tuple, s)), tuple(map(tuple, v))
