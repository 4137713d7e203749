"""Independent oracles used by the test suite.

These deliberately avoid the library's own solution paths: feasibility is
decided by Fourier-Motzkin elimination instead of simplex, and brute-force
enumeration replaces backtracking wherever it is affordable.  The Fraction
simplex at the end is the reference the integer LP kernel is compared with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from tropmoduli.moduli import TypeIso
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph


def fm_feasible(ineqs, dim):
    """Fourier-Motzkin feasibility over the rationals.

    ``ineqs`` is a list of (coefficients, rhs) meaning coef·x >= rhs.
    Equalities must be passed as two opposite inequalities.
    """
    cons = [([Fraction(c) for c in coef], Fraction(rhs)) for coef, rhs in ineqs]
    for var in range(dim):
        lower, upper, rest = [], [], []
        for coef, rhs in cons:
            c = coef[var]
            if c > 0:
                # x_var >= (rhs - other)/c
                lower.append(([x / c for x in coef], rhs / c))
            elif c < 0:
                upper.append(([x / c for x in coef], rhs / c))
            else:
                rest.append((coef, rhs))
        new = rest
        for lc, lr in lower:
            for uc, ur in upper:
                # lower bound <= upper bound
                coef = [l - u for l, u in zip(lc, uc)]
                coef[var] = Fraction(0)
                new.append((coef, lr - ur))
        cons = new
    return all(rhs <= 0 for coef, rhs in cons)


def fm_positive_combination_exists(vectors, target_basis, dim):
    """Whether positive a_i exist with sum a_i v_i in span(target_basis).

    Encoded with variables (a_1..a_k, b_1..b_m), a_i >= 1, and the span
    condition as equalities; decided purely by Fourier-Motzkin.
    """
    k, m = len(vectors), len(target_basis)
    if k == 0:
        return True
    nvars = k + m
    ineqs = []
    for i in range(k):
        coef = [Fraction(0)] * nvars
        coef[i] = Fraction(1)
        ineqs.append((coef, Fraction(1)))
    for c in range(dim):
        coef = [Fraction(vectors[i][c]) for i in range(k)]
        coef += [-Fraction(target_basis[j][c]) for j in range(m)]
        ineqs.append((list(coef), Fraction(0)))
        ineqs.append(([-x for x in coef], Fraction(0)))
    return fm_feasible(ineqs, nvars)


def brute_force_isomorphisms(t1, t2):
    """All (vertex_map, edge_map) isomorphisms t1 -> t2 by raw enumeration.

    Checks weights, leg attachments (legs are fixed pointwise), and oriented
    slopes.  Exponential; only for tiny types.
    """
    vs1 = [v for v, _ in t1.graph.vertices]
    vs2 = [v for v, _ in t2.graph.vertices]
    es1 = [e for e, _, _ in t1.graph.edges]
    es2 = [e for e, _, _ in t2.graph.edges]
    if len(vs1) != len(vs2) or len(es1) != len(es2):
        return []
    w1 = dict(t1.graph.vertices)
    w2 = dict(t2.graph.vertices)
    ends1 = {e: (u, v) for e, u, v in t1.graph.edges}
    ends2 = {e: (u, v) for e, u, v in t2.graph.edges}
    out = []
    for vperm in permutations(vs2):
        vmap = dict(zip(vs1, vperm))
        if any(w1[v] != w2[vmap[v]] for v in vs1):
            continue
        legs_ok = True
        for (l1, a1), (l2, a2) in zip(t1.graph.legs, t2.graph.legs):
            if l1 != l2 or vmap[a1] != a2 or t1.slopes[l1] != t2.slopes[l2]:
                legs_ok = False
                break
        if not legs_ok:
            continue
        for eperm in permutations(es2):
            emap = dict(zip(es1, eperm))
            ok = True
            for e in es1:
                u, v = ends1[e]
                u2, v2 = ends2[emap[e]]
                s1 = t1.slopes[e]
                s2 = t2.slopes[emap[e]]
                if (vmap[u], vmap[v]) == (u2, v2) and s1 == s2:
                    continue
                if (vmap[u], vmap[v]) == (v2, u2) and s1 == tuple(-x for x in s2):
                    continue
                ok = False
                break
            if ok:
                out.append((vmap, emap))
    return out


def is_type_isomorphism(t1: CombinatorialType, t2: CombinatorialType, iso: TypeIso) -> bool:
    vmap, emap = iso.vdict(), iso.edict()
    g1, g2 = t1.graph, t2.graph
    if sorted(vmap) != sorted(g1.vertex_ids()) or sorted(vmap.values()) != sorted(g2.vertex_ids()):
        return False
    if sorted(emap) != sorted(e for e, _, _ in g1.edges) or \
            sorted(emap.values()) != sorted(e for e, _, _ in g2.edges):
        return False
    w2 = dict(g2.vertices)
    for v, w in g1.vertices:
        if w2[vmap[v]] != w:
            return False
    if len(g1.legs) != len(g2.legs):
        return False
    for (l1, v1), (l2, v2) in zip(g1.legs, g2.legs):
        if vmap[v1] != v2 or t1.slopes[l1] != t2.slopes[l2]:
            return False
    ends2 = {e: (u, v) for e, u, v in g2.edges}
    for e, u, v in g1.edges:
        u2, v2 = ends2[emap[e]]
        s1, s2 = t1.slopes[e], t2.slopes[emap[e]]
        if (vmap[u], vmap[v]) == (u2, v2) and s1 == s2:
            continue
        if (vmap[u], vmap[v]) == (v2, u2) and s1 == tuple(-x for x in s2):
            continue
        return False
    return True


def _fm_stratum_nonempty(vertices, edges, slopes, dim):
    """Whether lengths l_e >= 1 and positions exist with p_v - p_u = l_e * s_e.

    Lengths >= 1 instead of > 0 by homogeneity; decided by Fourier-Motzkin.
    """
    ne = len(edges)
    nvars = ne + len(vertices) * dim
    pos = {v: ne + i * dim for i, v in enumerate(vertices)}
    ineqs = []
    for k in range(ne):
        coef = [0] * nvars
        coef[k] = 1
        ineqs.append((coef, 1))
    for k, (e, u, v) in enumerate(edges):
        for c in range(dim):
            coef = [0] * nvars
            coef[pos[v] + c] += 1
            coef[pos[u] + c] -= 1
            coef[k] -= slopes[e][c]
            ineqs.append((coef, 0))
            ineqs.append(([-x for x in coef], 0))
    return fm_feasible(ineqs, nvars)


def brute_force_types(g, n, degree, max_edges, dim):
    """Stable balanced types with nonempty strata, one per isomorphism class.

    Raw enumeration: every connected multigraph with at most ``max_edges``
    edges, every vertex weighting of genus ``g``, every assignment of the
    legs (n zero slopes, then ``degree``) to vertices, and every slope vector
    with coordinate c of each edge, loops included, at most the total
    absolute leg degree in coordinate c.  Stability and balancing are
    checked vertex by vertex, nonemptiness by Fourier-Motzkin, isomorphism
    by brute_force_isomorphisms.  Exponential; only for tiny instances.
    """
    ext = [(0,) * dim] * n + [tuple(s) for s in degree]
    legs_n = len(ext)
    box = [range(-b, b + 1) for b in
           (sum(abs(s[c]) for s in ext) for c in range(dim))]
    classes = []  # (type, nonempty)
    for nv in range(1, max_edges + 2):
        vids = [f"v{i}" for i in range(nv)]
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        for ne in range(max_edges + 1):
            for ends in combinations_with_replacement(pairs, ne):
                reach = {0}
                for _ in range(nv):
                    reach |= {j for i, j in ends if i in reach} | {i for i, j in ends if j in reach}
                if len(reach) < nv:
                    continue
                edges = tuple((f"e{k}", vids[i], vids[j]) for k, (i, j) in enumerate(ends))
                for weights in product(range(g + 1), repeat=nv):
                    if ne - nv + 1 + sum(weights) != g:
                        continue
                    for assign in product(range(nv), repeat=legs_n):
                        valence = [2 * w for w in weights]
                        for i, j in ends:
                            valence[i] += 1
                            valence[j] += 1
                        for a in assign:
                            valence[a] += 1
                        if min(valence) < 3:
                            continue
                        legs = tuple((f"l{i}", vids[a]) for i, a in enumerate(assign))
                        graph = WeightedGraph(tuple(zip(vids, weights)), edges, legs)
                        for flat in product(*(box * ne)):
                            edge_slopes = [flat[k * dim:(k + 1) * dim] for k in range(ne)]
                            total = [[0] * dim for _ in range(nv)]
                            for a, s in zip(assign, ext):
                                for c in range(dim):
                                    total[a][c] += s[c]
                            for (i, j), s in zip(ends, edge_slopes):
                                for c in range(dim):
                                    total[i][c] += s[c]
                                    total[j][c] -= s[c]
                            if any(any(row) for row in total):
                                continue
                            slopes = {f"l{i}": s for i, s in enumerate(ext)}
                            slopes.update((e, s) for (e, _, _), s in zip(edges, edge_slopes))
                            t = CombinatorialType(graph, slopes, dim)
                            if any(brute_force_isomorphisms(t, other) for other, _ in classes):
                                continue
                            classes.append(
                                (t, _fm_stratum_nonempty(vids, edges, slopes, dim)))
    return [t for t, nonempty in classes if nonempty]


def affine_hull_dim(points):
    """Dimension of the affine hull of rational points, by row reduction."""
    if not points:
        return -1
    base = points[0]
    rows = [[Fraction(x) - Fraction(y) for x, y in zip(p, base)] for p in points[1:]]
    dim = 0
    cols = len(base)
    pivot_rows = []
    for c in range(cols):
        piv = None
        for r in rows:
            if r[c] != 0 and id(r) not in pivot_rows:
                piv = r
                break
        if piv is None:
            continue
        pivot_rows.append(id(piv))
        dim += 1
        for r in rows:
            if r is not piv and r[c] != 0:
                f = r[c] / piv[c]
                for j in range(cols):
                    r[j] -= f * piv[j]
    return dim


# ---------------------------------------------------------------------------
# reference LP: the Fraction-tableau simplex the library's integer kernel
# replaced.  Same column layout, Bland's rule and artificial handling, so
# both must return identical (status, x, value).
# ---------------------------------------------------------------------------

def _reference_simplex_standard(obj, a, b):
    """Maximize obj·x subject to a x = b, x >= 0.  Assumes b >= 0.

    Classic two-phase dense simplex over Fractions with Bland's rule, so it
    always terminates; reduced costs are recomputed at every iteration.
    Returns ('optimal', x, value), ('infeasible', ...) or ('unbounded', ...).
    """
    m, n = len(a), len(obj)
    if m == 0:
        if any(c > 0 for c in obj):
            return 'unbounded', None, None
        return 'optimal', (Fraction(0),) * n, Fraction(0)
    # phase 1: minimize the sum of artificial variables
    tab = [list(a[i]) + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * n + [Fraction(-1)] * m  # maximize -(sum of artificials)

    def run(costrow):
        while True:
            # reduced costs: c_j - c_B · column_j (one per cost column, so a
            # tableau left without rows after phase 1 still works)
            zrow = []
            for j in range(len(costrow)):
                red = costrow[j] - sum(costrow[basis[i]] * tab[i][j] for i in range(m))
                zrow.append(red)
            enter = next((j for j, rc in enumerate(zrow) if rc > 0), None)
            if enter is None:
                return 'optimal'
            ratios = [(tab[i][-1] / tab[i][enter], basis[i], i)
                      for i in range(m) if tab[i][enter] > 0]
            if not ratios:
                return 'unbounded'
            best = min(ratios, key=lambda t: (t[0], t[1]))
            piv = best[2]
            pv = tab[piv][enter]
            tab[piv] = [x / pv for x in tab[piv]]
            for i in range(m):
                if i != piv and tab[i][enter] != 0:
                    f = tab[i][enter]
                    tab[i] = [x - f * y for x, y in zip(tab[i], tab[piv])]
            basis[piv] = enter

    status = run(cost)
    phase1_value = sum(cost[basis[i]] * tab[i][-1] for i in range(m))
    if status != 'optimal' or phase1_value != 0:
        return 'infeasible', None, None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            swap = next((j for j in range(n) if tab[i][j] != 0), None)
            if swap is not None:
                pv = tab[i][swap]
                tab[i] = [x / pv for x in tab[i]]
                for k in range(m):
                    if k != i and tab[k][swap] != 0:
                        f = tab[k][swap]
                        tab[k] = [x - f * y for x, y in zip(tab[k], tab[i])]
                basis[i] = swap
    # drop artificial columns; rows with a basic artificial are 0 = 0
    keep_rows = [i for i in range(m) if basis[i] < n]
    tab2 = [tab[i][:n] + [tab[i][-1]] for i in keep_rows]
    basis2 = [basis[i] for i in keep_rows]
    tab.clear()
    tab.extend(tab2)
    basis.clear()
    basis.extend(basis2)
    m = len(tab)

    cost2 = list(obj)
    status = run(cost2)
    if status == 'unbounded':
        return 'unbounded', None, None
    x = [Fraction(0)] * n
    for i in range(m):
        x[basis[i]] = tab[i][-1]
    value = sum(obj[j] * x[j] for j in range(n))
    return 'optimal', tuple(x), value


def reference_lp_maximize(objective, eqs, ineqs, nonneg):
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
        row = [Fraction(coef[i]) * sgn for i, sgn in colmap] + [Fraction(0)] * nsurplus
        rows.append(row)
        rhs.append(Fraction(r))
    for k, (coef, r) in enumerate(ineqs):
        row = [Fraction(coef[i]) * sgn for i, sgn in colmap] + [Fraction(0)] * nsurplus
        row[len(colmap) + k] = Fraction(-1)  # coef·x - s = rhs, s >= 0
        rows.append(row)
        rhs.append(Fraction(r))
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    obj = [Fraction(objective[i]) * sgn for i, sgn in colmap] + [Fraction(0)] * nsurplus
    status, xcols, value = _reference_simplex_standard(obj, rows, rhs)
    if status != 'optimal':
        return status, None, None
    x = [Fraction(0)] * nvars
    for (i, sgn), xv in zip(colmap, xcols[:len(colmap)]):
        x[i] += sgn * xv
    return 'optimal', tuple(x), value
