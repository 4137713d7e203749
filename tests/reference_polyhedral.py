"""Reference polyhedra, complex validation and stars for differential tests.

This is the subset-scan code the incidence-based ``Polyhedron`` queries and
``validate_complex`` replaced: emptiness, interiors and the points
``feasible_point`` and ``interior_point`` by LP, vertices and
rays from every C(m, D) constraint subset, faces from every one of the 2^m
subsets, and every relation between faces found by scanning all faces and
inclusions.  ``star`` finds the facet a face embeds into at the image of an
LP interior point, where the library reads it off the incidences.
``build_skeleton`` closes the order by a repeat-until-stable loop and writes
each chart and inclusion out coordinate by coordinate, where the library
walks each up-set once and reads both off one chart-coordinate map.  Both
must give identical answers.  It is kept apart from
``oracles.py``, which the benchmark loads for its output checks.  Its rank,
solving, kernels and affine maps come from the ``Fraction`` reference in
``reference_linalg``, not from the integer kernels under test.

``reference_harmonicity_at`` is the ``Fraction`` path that
``harmonicity_at`` took before it moved onto integer rows: derivatives
summed by ``mat_vec``, the image span as a ``Subspace`` of reduced row
echelon rows (``lin_of_image``), and membership and positive combinations
over ``Fraction``s.  It reads the library's ``star``, which this path
does not change and which ``star`` below checks.  Verdicts, certificates
and derivatives must be equal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from tropmoduli.errors import DependentGenerators, NoCofacets, TropModuliError
from tropmoduli.exact_linalg import (
    frac,
    integer_kernel,
    is_saturated,
    ivec,
    mat_rows,
    primitive_vector,
    smith_normal_form,
    vec,
)
from tropmoduli.errors import InconsistentStrata
from tropmoduli import polyhedral as library
from tropmoduli.polyhedral import (
    Face,
    FaceInclusion,
    Harmonicity,
    HarmonicityResult,
    Polyhedron,
    PolyhedralComplex,
    StarData,
    ValidationReport,
)

from reference_linalg import (
    Subspace,
    affine_apply,
    affine_compose,
    feasible_point as lp_point,
    kernel_rational,
    mat_vec,
    rank,
    solve_linear,
    span_membership,
    strict_positive_combination,
    vec_add,
    vec_dot,
    vec_sub,
)


def mat_columns(a, width=None) -> list:
    """Columns of ``a`` as vectors; ``width`` disambiguates empty matrices."""
    if not a:
        return [() for _ in range(width or 0)] if width else []
    return [tuple(row[j] for row in a) for j in range(len(a[0]))]


# ---------------------------------------------------------------------------
# reference polyhedra: emptiness and interior by LP, vertices and rays from
# every C(m, D) constraint subset, faces from every one of the 2^m subsets.
# Each function takes a Polyhedron but reads only its constraints.
# ---------------------------------------------------------------------------

def feasible_point(p):
    """A point of p found by LP, or None."""
    return lp_point(p.eqs, p.ineqs, p.ambient_dim)


def interior_point(p):
    """A point with every inequality strict (and every equality 0 = 0) found
    by LP, or None."""
    if not all(all(c == 0 for c in n) and o == 0 for n, o in p.eqs):
        return None
    return lp_point((), p.ineqs, p.ambient_dim, strict=range(len(p.ineqs)))


def is_empty(p):
    return feasible_point(p) is None


def has_interior(p):
    return interior_point(p) is not None


def _contains(ineqs, eqs, x):
    return all(vec_dot(vec(n), x) == o for n, o in eqs) and \
        all(vec_dot(vec(n), x) >= o for n, o in ineqs)


def _rational_to_primitive(v):
    denom = 1
    for x in v:
        f = frac(x)
        denom = denom * f.denominator // gcd(denom, f.denominator)
    return primitive_vector(tuple(int(frac(x) * denom) for x in v))


def _vrep(D, ineqs, eqs):
    if lp_point(eqs, ineqs, D) is None:
        return (), (), ()
    normals = [n for n, _ in ineqs] + [n for n, _ in eqs]
    nontrivial = [n for n in normals if any(c != 0 for c in n)]
    lines = tuple(primitive_vector(l) for l in integer_kernel(nontrivial, D)) \
        if nontrivial else tuple(tuple(1 if i == j else 0 for j in range(D)) for i in range(D))
    if lines:
        # slice along the lineality space and recurse on a pointed polyhedron
        verts, rays, _ = _vrep(D, ineqs, eqs + tuple((l, Fraction(0)) for l in lines))
        return verts, rays, lines
    if D == 0:
        return ((),), (), ()

    eq_rows = [vec(n) for n, _ in eqs]
    eq_rhs = [o for _, o in eqs]
    req = rank(eq_rows) if eq_rows else 0

    verts = set()
    need = D - req
    if need >= 0:
        for subset in combinations(range(len(ineqs)), need):
            rows = list(eq_rows) + [vec(ineqs[i][0]) for i in subset]
            rhs = list(eq_rhs) + [ineqs[i][1] for i in subset]
            if rank(rows) != D:
                continue
            x = solve_linear(rows, tuple(rhs))
            if x is not None and _contains(ineqs, eqs, x):
                verts.add(x)

    rays = set()
    need_r = D - 1 - req
    if need_r >= 0:
        for subset in combinations(range(len(ineqs)), need_r):
            rows = list(eq_rows) + [vec(ineqs[i][0]) for i in subset]
            ker = kernel_rational([r for r in rows if any(c != 0 for c in r)], D)
            if len(ker) != 1:
                continue
            d = _rational_to_primitive(ker[0])
            for cand in (d, tuple(-c for c in d)):
                if all(vec_dot(vec(n), vec(cand)) >= 0 for n, _ in ineqs) and \
                        all(vec_dot(vec(n), vec(cand)) == 0 for n, _ in eqs):
                    rays.add(cand)
                    break
    return tuple(sorted(verts)), tuple(sorted(rays)), ()


def vrep(p):
    """(vertices, rays, lines) exactly as ``Polyhedron.vrep`` documents them."""
    return _vrep(p.ambient_dim, p.ineqs, p.eqs)


def _generator_dim(verts, rays, lines):
    if not verts:
        return -1
    rows = [vec_sub(vec(v), vec(verts[0])) for v in verts[1:]]
    rows += [vec(r) for r in rays] + [vec(l) for l in lines]
    return rank(rows) if rows else 0


def proper_faces(p, generators=None):
    """Proper nonempty faces as (vertex ids, ray ids, dim), in the order of
    ``Polyhedron.proper_faces``: one face per tight set of every nonempty
    subset of the inequalities."""
    verts, rays, lines = generators or vrep(p)
    found = {}
    whole = (frozenset(range(len(verts))), frozenset(range(len(rays))))
    for size in range(1, len(p.ineqs) + 1):
        for subset in combinations(range(len(p.ineqs)), size):
            tv = frozenset(i for i, v in enumerate(verts)
                           if all(vec_dot(vec(p.ineqs[j][0]), v) == p.ineqs[j][1] for j in subset))
            if not tv:
                continue
            tr = frozenset(i for i, r in enumerate(rays)
                           if all(vec_dot(vec(p.ineqs[j][0]), vec(r)) == 0 for j in subset))
            key = (tv, tr)
            if key != whole and key not in found:
                found[key] = (tv, tr, _generator_dim([verts[i] for i in tv],
                                                     [rays[i] for i in tr], lines))
    return sorted(found.values(), key=lambda f: (f[2], sorted(f[0]), sorted(f[1])))


# ---------------------------------------------------------------------------
# reference validate_complex: the same axioms and report order as the
# library's, with every chart query answered by the reference polyhedra
# above and every relation found by scanning all faces and inclusions.
# ---------------------------------------------------------------------------

def _span_equal(lines_a, lines_b) -> bool:
    ra = rank([vec(l) for l in lines_a]) if lines_a else 0
    rb = rank([vec(l) for l in lines_b]) if lines_b else 0
    if ra != rb:
        return False
    rab = rank([vec(l) for l in tuple(lines_a) + tuple(lines_b)]) if (lines_a or lines_b) else 0
    return rab == ra


def _triples_equal(a, b) -> bool:
    """Whether the generators a = (vertices, rays, lines) give the polyhedron
    that b does, modulo the lines of b: every vertex of a is a vertex of b
    plus a combination of b's lines, every ray of a a positive multiple of a
    ray of b plus one, each generator of b is met, and the lines span the
    same space.  Each test solves one system with ``solve_linear``."""
    def modulo(v, w, ray):
        cols = ([w] if ray else []) + list(b[2])
        sol = solve_linear(tuple(zip(*cols)), vec(v) if ray else vec_sub(vec(v), vec(w)))
        return sol is not None and (not ray or sol[0] > 0)

    def meets(gens, targets, ray):
        found = [next((w for w in targets if modulo(v, w, ray)), None) for v in gens]
        return None not in found and set(found) == set(targets)

    return _span_equal(a[2], b[2]) and meets(a[0], b[0], False) and meets(a[1], b[1], True)


def validate_complex(c):
    report = ValidationReport()
    vreps, faces = {}, {}

    def vrep_of(fid):
        if fid not in vreps:
            vreps[fid] = vrep(c.faces[fid].chart)
        return vreps[fid]

    def faces_of(fid):
        if fid not in faces:
            faces[fid] = proper_faces(c.faces[fid].chart, vrep_of(fid))
        return faces[fid]

    def subface_ids(fid):
        return sorted(s for s, t in c.inclusions if t == fid)

    for f in c.faces.values():
        if f.chart.ambient_dim != f.rank:
            report.add("2", f.id, f"chart lives in R^{f.chart.ambient_dim} but rank is {f.rank}")
            continue
        if is_empty(f.chart):
            report.add("2", f.id, "chart is empty")
        elif f.rank > 0 and not has_interior(f.chart):
            report.add("2", f.id, "chart has empty interior (degenerate)")

    # order sanity
    for (a, b) in c.inclusions:
        if a == b:
            report.add("order", f"{a}->{b}", "reflexive inclusion stored explicitly")
        elif (b, a) in c.inclusions:
            report.add("order", f"{a}->{b}", "inclusion relation is not antisymmetric")
        if c.faces[a].rank >= c.faces[b].rank:
            report.add("order", f"{a}->{b}", "sub-face rank must be smaller than super-face rank")
    for (a, b), inc_ab in c.inclusions.items():
        for (b2, d), inc_bd in c.inclusions.items():
            if b2 != b or a == d:
                continue
            if (a, d) not in c.inclusions:
                report.add("order", f"{a}->{d}", f"missing composite of {a}->{b} and {b}->{d}")
                continue
            lin, off = affine_compose(inc_bd.linear, vec(inc_bd.offset),
                                      inc_ab.linear, vec(inc_ab.offset))
            stored = c.inclusions[(a, d)]
            if mat_rows(stored.linear) != mat_rows(lin) or vec(stored.offset) != off:
                report.add("order", f"{a}->{d}", "stored inclusion differs from the composite")

    # axiom 5 + image faces
    image_face = {}  # (sub, super) -> (vertex ids, ray ids, dim) or None
    for (a, b), inc in c.inclusions.items():
        cols = [ivec(col) for col in zip(*inc.linear)] if inc.linear and inc.linear[0] else []
        if c.faces[a].rank > 0:
            try:
                if not is_saturated(cols, c.faces[b].rank):
                    report.add("5", f"{a}->{b}", "lattice image is not saturated")
                    continue
            except DependentGenerators:
                report.add("5", f"{a}->{b}", "inclusion linear part is not injective")
                continue
        verts, rays, lines = vrep_of(a)
        img = (frozenset(affine_apply(inc.linear, inc.offset, v) for v in verts),
               frozenset(_rational_to_primitive(mat_vec(inc.linear, vec(r))) for r in rays),
               tuple(_rational_to_primitive(mat_vec(inc.linear, vec(l))) for l in lines))
        sverts, srays, slines = vrep_of(b)
        if _triples_equal(img, (frozenset(sverts), frozenset(srays), slines)):
            report.add("3", f"{a}->{b}", "image equals the whole super chart")
            continue
        match = None
        for pf in faces_of(b):
            members = (frozenset(sverts[i] for i in pf[0]),
                       frozenset(srays[i] for i in pf[1]), slines)
            if _triples_equal(img, members):
                match = pf
                break
        if match is None:
            report.add("5", f"{a}->{b}", "image of sub chart is not a face of the super chart")
        image_face[(a, b)] = match

    # axiom 3: every proper face of a chart is covered exactly once
    resolver = {}
    for fid, f in c.faces.items():
        if f.chart.ambient_dim != f.rank or is_empty(f.chart):
            continue
        by_face = {}
        for sub in subface_ids(fid):
            pf = image_face.get((sub, fid))
            if pf is not None:
                by_face.setdefault(pf[:2], []).append(sub)
        for pf in faces_of(fid):
            owners = by_face.get(pf[:2], [])
            if len(owners) == 1:
                resolver[(fid, pf[:2])] = owners[0]
            elif not owners:
                report.add("3", fid, f"chart face of dim {pf[2]} is not the image of any sub-face")
            else:
                report.add("3", fid, f"chart face of dim {pf[2]} is covered by {sorted(owners)}")

    # axiom 4: shared sub-face intersections agree across faces
    face_ids = sorted(c.faces)
    for i, w1 in enumerate(face_ids):
        for w2 in face_ids[i + 1:]:
            common = sorted(set(subface_ids(w1)) & set(subface_ids(w2)))
            for v1, v2 in combinations(common, 2):
                res = []
                for w in (w1, w2):
                    pf1 = image_face.get((v1, w))
                    pf2 = image_face.get((v2, w))
                    if pf1 is None or pf2 is None:
                        res.append("skip")
                        continue
                    tv = pf1[0] & pf2[0]
                    tr = pf1[1] & pf2[1]
                    if not tv:
                        res.append(None)
                        continue
                    res.append(resolver.get((w, (tv, tr)), "unknown"))
                if "skip" in res:
                    continue
                if res[0] != res[1]:
                    report.add("4", f"{w1} & {w2}",
                               f"intersection of sub-faces {v1},{v2} resolves to "
                               f"{res[0]} in one chart and {res[1]} in the other")

    # connectivity
    if len(c.faces) > 1:
        seen = set()
        stack = [next(iter(c.faces))]
        adj = {}
        for (a, b) in c.inclusions:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj.get(x, ()))
        if len(seen) != len(c.faces):
            report.add("connectivity", sorted(set(c.faces) - seen)[0], "complex is not connected")
    return report


# ---------------------------------------------------------------------------
# reference star: the facet supporting the embedded face is the one tight at
# the image of an LP point of the face chart and zero on the inclusion's
# columns.  It keeps no cache, so it never answers from the library's.
# ---------------------------------------------------------------------------

def star(c, w):
    face = c.face(w)
    dirs = []
    for inc in c.cofacet_inclusions(w):
        r = c.faces[inc.super].rank
        if face.rank == 0:
            e = (1,)
        else:
            # column r - 1 of u^-1 for the Smith form u·linear·v = s
            u, _, _ = smith_normal_form(inc.linear)
            e = tuple(int(x) for x in solve_linear(u, tuple(int(i == r - 1) for i in range(r))))
        p = feasible_point(face.chart) if face.rank == 0 else interior_point(face.chart)
        if p is None:
            raise TropModuliError(f"face {w!r} has no interior point")
        q = inc.apply(p)
        super_chart = c.faces[inc.super].chart
        cols = mat_columns(inc.linear, width=len(inc.linear[0]) if inc.linear else 0)
        oriented = None
        for n, o in super_chart.ineqs:
            if vec_dot(vec(n), q) != o:
                continue
            if any(vec_dot(vec(n), vec(col)) != 0 for col in cols):
                continue
            d = vec_dot(vec(n), vec(e))
            if d > 0:
                oriented = e
                break
            if d < 0:
                oriented = tuple(-x for x in e)
                break
        if oriented is None:
            raise TropModuliError(
                f"image of {w!r} is not a facet of {inc.super!r}; validate the complex first")
        dirs.append((inc.super, oriented))
    return StarData(face=w, directions=tuple(dirs))


def lin_of_image(m, w) -> Subspace:
    """Span of the linear part of the face map (charts are full-dimensional)."""
    m.source.face(w)
    lin, _ = m.face_map(w)
    cols = mat_columns(lin, width=m.source.face(w).rank)
    return Subspace.from_spanning([vec(col) for col in cols], m.target_dim)


def reference_harmonicity_at(m, w) -> HarmonicityResult:
    """Trichotomy at a face: harmonic / quasi-harmonic only / not quasi-harmonic.

    Computes the derivative of the map along each star direction and tests
    whether the plain sum (resp. some positive integer combination) lies in
    the span of the image of the face.
    """
    sd = library.star(m.source, w)
    if not sd.directions:
        raise NoCofacets(f"face {w!r} has no codimension-one cofacets")
    derivs = []
    for cofacet, e in sd.directions:
        lin, _ = m.face_map(cofacet)
        derivs.append(mat_vec(lin, vec(e)))
    target = lin_of_image(m, w)
    total = vec((0,) * m.target_dim)
    for d in derivs:
        total = vec_add(total, d)
    if span_membership(total, target):
        return HarmonicityResult(Harmonicity.HARMONIC, (1,) * len(derivs), tuple(derivs), sd)
    cert = strict_positive_combination(derivs, target)
    if cert is not None:
        return HarmonicityResult(Harmonicity.QUASI_HARMONIC_ONLY, tuple(cert), tuple(derivs), sd)
    return HarmonicityResult(Harmonicity.NOT_QUASI_HARMONIC, None, tuple(derivs), sd)


# ---------------------------------------------------------------------------
# reference skeletons: the order closure by a repeat-until-stable loop, each
# chart and each inclusion written out coordinate by coordinate, and the
# maximal faces found by scanning the closure.  The consistency checks walk
# the up-sets as sets, so on inconsistent data only the exception type is
# comparable (the message can name another stratum under another hash seed).
# ---------------------------------------------------------------------------

def _closure_order(d):
    """Reflexive-transitive closure of the given order pairs."""
    below = {s.id: {s.id} for s in d.strata}  # sid -> set of T with sid <= T
    for a, b in d.order:
        if a not in below or b not in below:
            raise InconsistentStrata(f"order pair ({a!r}, {b!r}) references unknown stratum")
        below[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in below:
            extra = set()
            for b in below[a]:
                extra |= below[b]
            if not extra <= below[a]:
                below[a] |= extra
                changed = True
    return below


def _check_pair_data(d):
    seen = set()
    comp = set(d.vertical_components) | set(d.horizontal_components)
    if len(comp) != len(d.vertical_components) + len(d.horizontal_components):
        raise InconsistentStrata("component ids are not distinct")
    for s in d.strata:
        if s.id in seen:
            raise InconsistentStrata(f"duplicate stratum id {s.id!r}")
        seen.add(s.id)
        if not s.verticals:
            raise InconsistentStrata(f"stratum {s.id!r} has empty vertical support")
        if not set(s.verticals) <= set(d.vertical_components):
            raise InconsistentStrata(f"stratum {s.id!r} references unknown vertical component")
        if not set(s.horizontals) <= set(d.horizontal_components):
            raise InconsistentStrata(f"stratum {s.id!r} references unknown horizontal component")
        if len(set(s.verticals)) != len(s.verticals) or len(set(s.horizontals)) != len(s.horizontals):
            raise InconsistentStrata(f"stratum {s.id!r} repeats a component")
        if s.length <= 0:
            raise InconsistentStrata(f"stratum {s.id!r} has nonpositive length")
    below = _closure_order(d)
    strata = {s.id: s for s in d.strata}
    for a, ups in below.items():
        sa = strata[a]
        supports = {}
        for b in ups:
            sb = strata[b]
            if a != b and b in below and a in below[b]:
                raise InconsistentStrata(f"order cycle through {a!r} and {b!r}")
            if not set(sb.verticals) <= set(sa.verticals) or \
                    not set(sb.horizontals) <= set(sa.horizontals):
                raise InconsistentStrata(f"{a!r} <= {b!r} but supports do not shrink")
            if a != b and set(sb.verticals) == set(sa.verticals) and \
                    set(sb.horizontals) == set(sa.horizontals):
                raise InconsistentStrata(f"comparable strata {a!r}, {b!r} share the same support")
            key = (frozenset(sb.verticals), frozenset(sb.horizontals))
            if key in supports and supports[key] != b:
                raise InconsistentStrata(
                    f"strata {supports[key]!r} and {b!r} above {a!r} share a support")
            supports[key] = b
            if a != b and len(sb.verticals) >= 2 and sb.length != sa.length:
                raise InconsistentStrata(
                    f"comparable strata {a!r}, {b!r} share a vertical pair "
                    f"but have lengths {sa.length} != {sb.length}")
    return below


def _stratum_chart(s):
    """Chart of Delta(a, length) x R^b_{>=0} in the dropped-first-vertical coordinates."""
    a = len(s.verticals) - 1
    b = len(s.horizontals)
    dim = a + b
    ineqs = []
    for i in range(a):
        ineqs.append((tuple(1 if j == i else 0 for j in range(dim)), Fraction(0)))
    if a > 0:
        ineqs.append((tuple(-1 if j < a else 0 for j in range(dim)), -s.length))
    for k in range(b):
        ineqs.append((tuple(1 if j == a + k else 0 for j in range(dim)), Fraction(0)))
    return Polyhedron(dim, ineqs)


def _skeleton_inclusion(sub, sup):
    """Affine embed of the chart of ``sub`` into the chart of ``sup`` (sup <= sub)."""
    sup_verts = sorted(sup.verticals)
    sup_horiz = sorted(sup.horizontals)
    sub_verts = sorted(sub.verticals)
    sub_horiz = sorted(sub.horizontals)
    sub_dim = (len(sub_verts) - 1) + len(sub_horiz)
    sub_cols = {v: i for i, v in enumerate(sub_verts[1:])}
    for k, h in enumerate(sub_horiz):
        sub_cols[h] = (len(sub_verts) - 1) + k

    def full_coord(v):
        """(linear row over sub chart coords, offset) of the y_v coordinate."""
        row = [0] * sub_dim
        if v not in sub.verticals:
            return row, Fraction(0)
        if v == sub_verts[0]:
            for w in sub_verts[1:]:
                row[sub_cols[w]] = -1
            return row, sup.length
        row[sub_cols[v]] = 1
        return row, Fraction(0)

    rows, offs = [], []
    for v in sup_verts[1:]:
        row, off = full_coord(v)
        rows.append(tuple(row))
        offs.append(off)
    for h in sup_horiz:
        row = [0] * sub_dim
        if h in sub.horizontals:
            row[sub_cols[h]] = 1
        rows.append(tuple(row))
        offs.append(Fraction(0))
    return tuple(rows), tuple(offs)


def build_skeleton(d):
    below = _check_pair_data(d)
    strata = {s.id: s for s in d.strata}
    faces = []
    for sid in sorted(strata):
        s = strata[sid]
        chart = _stratum_chart(s)
        faces.append(Face(id=sid, rank=chart.ambient_dim, chart=chart,
                          label=f"V={','.join(sorted(s.verticals))}"))
    inclusions = []
    for a in sorted(below):
        for b in sorted(below[a]):
            if a == b:
                continue
            lin, off = _skeleton_inclusion(strata[b], strata[a])
            inclusions.append(FaceInclusion(sub=b, super=a, linear=lin, offset=off))
    minimal = [sid for sid in sorted(strata)
               if all(sid not in below[o] or o == sid for o in below)]
    return PolyhedralComplex(faces, inclusions, maximal_faces=minimal)
