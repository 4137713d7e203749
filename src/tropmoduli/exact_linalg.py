"""Exact rational linear algebra, integer lattice operations and LP feasibility.

Everything in here works over ``fractions.Fraction`` (for rational data) or
plain Python integers (for lattice data).  There is deliberately no floating
point anywhere: the geometric predicates built on top of this module are
equality predicates, and a tolerance would make them meaningless.  The one
LP kernel (``_simplex_standard``, behind ``lp_maximize``) is a two-phase
simplex on an integer tableau with one common denominator; it returns exact
Fractions.  The library asks it one question, ``_positive_solution``: has
rows·x = 0 a solution with x_i >= 1 on given coordinates?  The one row
reduction (``_int_echelon``, behind ``rank`` and ``_span_basis``, and
called directly by the chart incidences, star directions and
``family.locate``'s preimages) is fraction-free Gauss-Jordan elimination
on rows scaled to integers; its callers divide by the pivots only where
they return Fractions.  ``_affine_over`` likewise sums affine maps as
integer numerators over one common denominator (``_over_common``).  Only
``det`` and the Smith normal form keep eliminations of their own.  Every
integer dot product is ``_dot``.  The one multigraph traversal, ``_forest``,
is a breadth-first spanning forest; its fundamental cycles are a lattice
basis of the integer kernel of the incidence matrix.

Vectors are plain tuples, matrices are tuples of row tuples.  All functions
are pure; values are never mutated after construction.  A linear span is
given by independent integer rows, as ``_span_basis`` returns them.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DependentGenerators, DimMismatch, InputError, ZeroVector

Vec = tuple  # tuple of Fraction (or int coercible)
IVec = tuple  # tuple of int
Mat = tuple  # tuple of row tuples


# ---------------------------------------------------------------------------
# vector / matrix helpers
# ---------------------------------------------------------------------------

def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.  A string goes
    to ``Fraction(str)``, so the strings accepted and the errors raised are
    that constructor's (``documents._ratio`` reads ASCII "p/q" without it)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _too_long() -> InputError:
    """The error for a number past the integer digit limit, which cannot be
    printed: an InputError naming the limit, since only input can carry or
    build such a value."""
    return InputError(f"a rational with more than {sys.get_int_max_str_digits()} digits "
                      "(the integer digit limit) cannot be written")


def _rat_str(x, den: int = 1) -> str:
    """The "p/q" string of x, or of the integer x over ``den`` (plain "p"
    for an integer), in lowest terms; see ``_too_long``."""
    try:
        if type(x) is not int:
            return str(frac(x))
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"
    except ValueError:
        raise _too_long() from None


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def ivec(entries: Iterable) -> IVec:
    out = []
    for x in entries:
        if type(x) is not int:  # bools and rationals are checked and converted
            f = frac(x)
            if f.denominator != 1:
                raise ValueError(f"expected integer entry, got {x!r}")
            x = int(f)
        out.append(x)
    return tuple(out)


def mat_rows(m: Sequence[Sequence]) -> Mat:
    return tuple(tuple(row) for row in m)


def _dot(row, v):
    """Integer dot product over the first len(v) entries of ``row``."""
    return sum(map(mul, row, v))


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise DimMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0]) if b else 0}")
    cols = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in cols) for row in a)


def det(a: Mat) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination (small matrices)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimMismatch("determinant of a non-square matrix")
    m = [[frac(x) for x in row] for row in a]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


# ---------------------------------------------------------------------------
# fraction-free elimination: rank and spans
# ---------------------------------------------------------------------------

def _over_common(row, den: int = 1):
    """A rational row, or an integer row over ``den`` > 1, as (integer
    numerators, the lcm of the entries' denominators): lowest terms, so
    equal rows give equal pairs.  An all-int row over 1 is returned as it is."""
    if den != 1:
        g = gcd(den, *row)
        return tuple(x // g for x in row), den // g
    if all(type(x) is int for x in row):
        return row, 1
    row = [frac(x) for x in row]
    den = lcm(1, *(x.denominator for x in row))
    return tuple(_scaled(x, den) for x in row), den


def _int_echelon(rows, ncols):
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Pivots are taken in the first ``ncols`` columns (later columns, such as
    right-hand sides, are carried along).  Returns (rows, pivot columns):
    pivot row r is zero in every pivot column but its own, and rows past the
    pivots are zero in the first ``ncols`` columns.  Each eliminated row is
    divided by the gcd of its entries, which keeps the entries small.
    Pivot row r is its pivot entry times row r of the reduced row echelon
    form, whose pivot columns are the same.
    """
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Vec]) -> int:
    if not rows:
        return 0
    return len(_int_echelon([_over_common(r)[0] for r in rows], len(rows[0]))[1])


def _span_basis(vectors: Sequence[IVec]) -> tuple:
    """Independent integer rows spanning the integer ``vectors``: the pivot
    rows of ``_int_echelon``, each negated where its pivot is negative, so
    row r is a positive multiple of row r of the reduced row echelon form."""
    red, pivots = _int_echelon(vectors, len(vectors[0]) if vectors else 0)
    return tuple(tuple(-x for x in row) if row[c] < 0 else tuple(row)
                 for row, c in zip(red, pivots))


# ---------------------------------------------------------------------------
# integer lattice operations
# ---------------------------------------------------------------------------

def primitive_vector(v: IVec) -> IVec:
    """Divide an integer vector by the gcd of its entries.

    The result has content 1 and the same direction.
    """
    if all(x == 0 for x in v):
        raise ZeroVector("primitive_vector of the zero vector")
    g = gcd(*v)
    return tuple(x // g for x in v)


def smith_normal_form(m: Sequence[Sequence[int]]):
    """Smith normal form ``u·m·v = s`` with unimodular ``u``, ``v``.

    ``s`` is diagonal with nonnegative entries satisfying d1 | d2 | ...
    Pivots are chosen with minimal absolute value to keep intermediate
    entries small; inputs here are tiny so no modular tricks are needed.
    Row r of the working matrix is row r of s followed by row r of u, so a
    row operation is one list operation (Cohen, *A Course in Computational
    Algebraic Number Theory*, §2.4); a column operation acts on the s part
    of every row and on v.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    w = [[int(x) for x in row] + [int(i == j) for j in range(rows)] for i, row in enumerate(m)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, q):  # row dst += q * row src
        w[dst] = [x + q * y for x, y in zip(w[dst], w[src])]

    def add_col(src, dst, q):  # column dst += q * column src
        for row in (*w, *v):
            row[dst] += q * row[src]

    n = min(rows, cols)
    for t in range(n):
        while True:
            best = None  # the first nonzero entry of least absolute value in the block
            for i in range(t, rows):
                for j in range(t, cols):
                    if w[i][j] != 0 and (best is None or abs(w[i][j]) < best[0]):
                        best = (abs(w[i][j]), i, j)
            if best is None:
                break
            _, i, j = best
            w[t], w[i] = w[i], w[t]
            if j != t:
                for row in (*w, *v):
                    row[t], row[j] = row[j], row[t]
            dirty = False
            for i in range(t + 1, rows):
                if w[i][t] != 0:
                    add_row(t, i, -(w[i][t] // w[t][t]))
                    dirty |= w[i][t] != 0
            for j in range(t + 1, cols):
                if w[t][j] != 0:
                    add_col(t, j, -(w[t][j] // w[t][t]))
                    dirty |= w[t][j] != 0
            if not dirty:
                break
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for t in range(n - 1):
            a, b = w[t][t], w[t + 1][t + 1]
            if a != 0 and b % a != 0:
                # Both pivots are positive: the main loop left the diagonal
                # nonnegative, and b % a != 0 makes b nonzero.  Column t takes
                # b > 0 below a, and Euclid's remainders by a positive divisor
                # are nonnegative, so the pivot w[t][t] stays positive.
                add_col(t + 1, t, 1)
                while w[t + 1][t] != 0:
                    add_row(t, t + 1, -(w[t + 1][t] // w[t][t]))
                    if w[t + 1][t] != 0:
                        w[t], w[t + 1] = w[t + 1], w[t]
                if w[t][t + 1] != 0:
                    add_col(t, t + 1, -(w[t][t + 1] // w[t][t]))
                if w[t + 1][t + 1] < 0:
                    w[t + 1] = [-x for x in w[t + 1]]
                changed = True
    return tuple(tuple(row[cols:]) for row in w), tuple(tuple(row[:cols]) for row in w), mat_rows(v)


def is_saturated(sub_basis: Sequence[IVec], ambient_dim: int) -> bool:
    """Whether the sublattice spanned equals its rational span ∩ Z^ambient_dim.

    Decided on the Smith form's diagonal (the elementary divisors): the
    sublattice is saturated iff they are all 1.  Raises DependentGenerators
    on dependent input.
    """
    if not sub_basis:
        return True
    for b in sub_basis:
        if len(b) != ambient_dim:
            raise DimMismatch(f"generator has length {len(b)}, ambient is {ambient_dim}")
    _, s, _ = smith_normal_form([tuple(b) for b in sub_basis])
    divisors = [s[i][i] for i in range(min(len(s), ambient_dim)) if s[i][i] != 0]
    if len(divisors) < len(sub_basis):
        raise DependentGenerators("generators are linearly dependent")
    return all(d == 1 for d in divisors)


def integer_solve(a: Sequence[IVec], b: IVec) -> IVec | None:
    """One integer solution of ``a x = b`` or None (via Smith normal form)."""
    if not a:
        return None
    rows, cols = len(a), len(a[0])
    if len(b) != rows:
        raise DimMismatch(f"matrix has {rows} rows, vector has {len(b)}")  # u in u·b
    u, s, v = smith_normal_form(a)
    y = [0] * cols
    for i, row in enumerate(u):
        ub = _dot(row, b)
        d = s[i][i] if i < cols else 0
        if (ub % d if d else ub) != 0:
            return None
        if d:
            y[i] = ub // d
    return tuple(_dot(row, y) for row in v)


def integer_kernel(a: Sequence[IVec], ncols: int) -> list:
    """Integer basis of the kernel of the row system ``a`` (columns of v)."""
    if not a:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    _, s, v = smith_normal_form(a)
    r = sum(1 for i in range(min(len(s), len(s[0]))) if s[i][i] != 0)
    return [tuple(v[i][j] for i in range(ncols)) for j in range(r, ncols)]


def _affine_over(linear: Mat, num: IVec, den: int, x: IVec, xden: int):
    """linear · x/xden + num/den for an integer matrix ``linear``, as
    ``_over_common`` gives it: all in integers."""
    return _over_common(tuple(xden * n + den * _dot(row, x)
                              for row, n in zip(linear, num, strict=True)), den * xden)


# ---------------------------------------------------------------------------
# spanning forests: the integer kernel of an incidence matrix
# ---------------------------------------------------------------------------

def _forest(vertices, edges):
    """Breadth-first spanning forest of a multigraph.

    ``edges`` are (id, u, v) triples, loops allowed, with both ends among
    ``vertices``.  Returns (vertex, parent, edge, sign) in BFS order: a root
    with parent None for each vertex, in ``vertices`` order, that no earlier
    tree reached, and the neighbours of each vertex in ``edges`` order; sign
    is +1 when the edge is stored parent -> vertex.  The graph is connected
    iff only the first entry is a root.
    """
    adj = {v: [] for v in vertices}
    for eid, u, v in edges:
        adj[u].append((eid, v, 1))
        adj[v].append((eid, u, -1))
    forest, seen = [], set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        forest.append((root, None, None, 0))
        queue = [root]
        for u in queue:
            for eid, w, sign in adj[u]:
                if w not in seen:
                    seen.add(w)
                    forest.append((w, u, eid, sign))
                    queue.append(w)
    return tuple(forest)


def _spanning_forest(vertices, edges):
    """``_forest`` and the fundamental cycles of the multigraph.

    ``cycles`` has one {edge: coefficient} per non-tree edge: the edge
    itself, then back to its tail along the forest, so every vertex has as
    much coefficient flowing in as out.  The incidence matrix of a graph is
    totally unimodular, so these cycles are a lattice basis of its integer
    kernel.
    """
    forest = _forest(vertices, edges)
    # path[v] = {tree edge: sign} from the root of v's tree down to v
    path = {}
    for v, parent, eid, sign in forest:
        path[v] = {} if parent is None else {**path[parent], eid: sign}
    tree_edges = {eid for _, _, eid, _ in forest}
    cycles = []
    for eid, u, v in edges:
        if eid in tree_edges:
            continue
        coef = {eid: 1}
        for f, sign in path[v].items():
            coef[f] = coef.get(f, 0) - sign
        for f, sign in path[u].items():
            coef[f] = coef.get(f, 0) + sign
        cycles.append(coef)
    return forest, cycles


# ---------------------------------------------------------------------------
# exact LP: fraction-free two-phase simplex with Bland's rule
# ---------------------------------------------------------------------------

def _scaled(x, den: int) -> int:
    """den * x for an int or Fraction x whose denominator divides den."""
    return x.numerator * (den // x.denominator)


def _simplex_standard(obj: list, a: list, b: list):
    """Maximize obj·x subject to a x = b, x >= 0.  Assumes b >= 0.

    Dense two-phase simplex with Bland's rule (smallest entering column,
    ratio ties to the smallest basic column), so it always terminates.
    Phase 1 adds one artificial column per row, maximizes minus their sum,
    then pivots basic artificials out where a nonzero entry allows and drops
    the rows it cannot (they read 0 = 0).

    The tableau is fraction-free: integer rows over one common positive
    denominator ``den``.  A pivot multiplies through by the pivot entry and
    then divides the tableau and ``den`` by the gcd of all of them, so the
    entries stay the smallest integers over the least common denominator.
    The reduced costs are one more row, updated by every pivot instead of
    recomputed, and kept up to a positive factor of its own (only its signs
    matter; its last entry is zero exactly when the objective value is).
    Ratios are compared by cross-multiplication.

    Returns ('optimal', x, value) with exact Fractions, or
    ('infeasible', None, None) / ('unbounded', None, None).
    """
    m, n = len(a), len(obj)
    den = lcm(1, *(x.denominator for row in a for x in row), *(x.denominator for x in b))
    tab = [[_scaled(x, den) for x in a[i]] + [den if j == i else 0 for j in range(m)]
           + [_scaled(b[i], den)] for i in range(m)]
    basis = [n + i for i in range(m)]

    def reduced_costs(cost):
        # den * (c_j - c_B · column_j), and minus c_B · rhs in the last entry
        row = [den * c for c in cost] + [0]
        for i, trow in enumerate(tab):
            cb = cost[basis[i]]
            if cb:
                row = [x - cb * y for x, y in zip(row, trow)]
        return row

    def pivot(r, k):
        nonlocal den, z
        prow = tab[r]
        p = prow[k]
        for i, row in enumerate(tab):
            if i != r:
                f = row[k]
                tab[i] = [p * x - f * y for x, y in zip(row, prow)] if f else \
                    [p * x for x in row]
        f = z[k]
        z = [p * x - f * y for x, y in zip(z, prow)]
        tab[r] = [den * y for y in prow]
        den *= p
        if p < 0:
            den = -den
            z = [-x for x in z]
            for i, row in enumerate(tab):
                tab[i] = [-x for x in row]
        g = den
        for row in tab:
            g = gcd(g, *row)
            if g == 1:
                break
        if g > 1:
            den //= g
            for i, row in enumerate(tab):
                tab[i] = [x // g for x in row]
        g = gcd(*z)
        if g > 1:
            z = [x // g for x in z]
        basis[r] = k

    def run():
        while True:
            enter = next((j for j in range(len(z) - 1) if z[j] > 0), None)
            if enter is None:
                return 'optimal'
            best = None
            for i, row in enumerate(tab):
                if row[enter] > 0:
                    if best is None:
                        best = i
                        continue
                    lhs = row[-1] * tab[best][enter]
                    rhs = tab[best][-1] * row[enter]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                        best = i
            if best is None:
                return 'unbounded'
            pivot(best, enter)

    # phase 1: maximize -(sum of artificial variables)
    z = reduced_costs([0] * n + [-1] * m)
    if run() != 'optimal' or z[-1] != 0:
        return 'infeasible', None, None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            swap = next((j for j in range(n) if tab[i][j] != 0), None)
            if swap is not None:
                pivot(i, swap)
    # drop artificial columns; rows with a basic artificial are 0 = 0
    keep_rows = [i for i in range(m) if basis[i] < n]
    tab[:] = [tab[i][:n] + [tab[i][-1]] for i in keep_rows]
    basis[:] = [basis[i] for i in keep_rows]

    cd = lcm(1, *(c.denominator for c in obj))
    z = reduced_costs([_scaled(c, cd) for c in obj])
    if run() == 'unbounded':
        return 'unbounded', None, None
    x = [Fraction(0)] * n
    for i, row in enumerate(tab):
        x[basis[i]] = Fraction(row[-1], den)
    value = sum((obj[j] * x[j] for j in range(n)), Fraction(0))
    return 'optimal', tuple(x), value


def _rational(x):
    """An int stays an int (the kernel scales it exactly); anything else
    goes through ``frac``."""
    return x if type(x) is int else frac(x)


def lp_maximize(objective: Vec, eqs: Sequence, ineqs: Sequence, nonneg: Sequence[bool]):
    """Maximize objective·x st eq rows (coef, rhs): coef·x = rhs and
    ineq rows: coef·x >= rhs, with x_i >= 0 where nonneg[i] else free.

    Returns (status, x, value) with exact Fractions.
    """
    nvars = len(objective)
    # column layout: one column per nonneg var, two (p, m) per free var,
    # then one surplus column per inequality.
    colmap = []  # (var index, sign)
    for i in range(nvars):
        colmap.append((i, 1))
        if not nonneg[i]:
            colmap.append((i, -1))
    nsurplus = len(ineqs)

    rows, rhs = [], []
    for coef, r in eqs:
        row = [_rational(coef[i]) * sgn for i, sgn in colmap] + [0] * nsurplus
        rows.append(row)
        rhs.append(_rational(r))
    for k, (coef, r) in enumerate(ineqs):
        row = [_rational(coef[i]) * sgn for i, sgn in colmap] + [0] * nsurplus
        row[len(colmap) + k] = -1  # coef·x - s = rhs, s >= 0
        rows.append(row)
        rhs.append(_rational(r))
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    obj = [_rational(objective[i]) * sgn for i, sgn in colmap] + [0] * nsurplus
    status, xcols, value = _simplex_standard(obj, rows, rhs)
    if status != 'optimal':
        return status, None, None
    x = [Fraction(0)] * nvars
    for (i, sgn), xv in zip(colmap, xcols[:len(colmap)]):
        x[i] += sgn * xv
    return 'optimal', tuple(x), value


def _positive_solution(rows: Sequence, n: int):
    """A solution of rows·x = 0 with x_i >= 1 for i < n and the other
    entries free, or None.  By homogeneity one exists iff one with x_i > 0
    does.  With x_i = 1 + s_i it is rows·s = -(sum of the first n columns)
    with s_i >= 0, which ``lp_maximize`` decides with a zero objective."""
    width = len(rows[0]) if rows else n
    eqs = [(row, -sum(row[:n])) for row in rows]
    status, s, _ = lp_maximize((0,) * width, eqs, [], [True] * n + [False] * (width - n))
    if status != 'optimal':
        return None
    return tuple(1 + x for x in s[:n]) + s[n:]


def strict_positive_combination(vectors: Sequence[IVec], basis: Sequence[IVec]):
    """Positive integers a_i with sum(a_i * v_i) in the span of ``basis``, if any exist.

    ``vectors`` and the independent ``basis`` rows are integer vectors of
    one length.  The unknowns are the a_i, each >= 1
    (``_positive_solution``), and free coefficients b_j on the basis rows.
    The returned certificate is integer-scaled with the common denominator
    cleared.  Returns None when no positive combination exists.
    """
    k = len(vectors)
    if k == 0:
        return []
    dim = len(vectors[0])
    if any(len(v) != dim for v in (*vectors, *basis)):
        raise DimMismatch("vector/target dimension mismatch")
    # one row per coordinate: sum_i a_i v_i - sum_j b_j basis_j = 0
    rows = [tuple(v[c] for v in vectors) + tuple(-b[c] for b in basis) for c in range(dim)]
    point = _positive_solution(rows, k)
    if point is None:
        return None
    den = lcm(*(x.denominator for x in point[:k]))
    ints = list(primitive_vector(tuple(_scaled(x, den) for x in point[:k])))
    assert all(x > 0 for x in ints)
    combo = tuple(_dot(ints, row) for row in rows)  # row c begins with every v_i[c]
    assert rank([*basis, combo]) == len(basis)
    return ints
