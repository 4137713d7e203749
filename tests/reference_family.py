"""Reference family validation for differential tests.

This is ``validate_family`` as it was before it decided each affine
identity once, on the maps' integer coefficients: it evaluates both sides
of every edge relation at every generating point of the face chart, and
both sides of every length and position restriction at every generating
point of the sub-face chart.  It decides the zero locus by search, not by
the library's sign rule: it finds an interior point of the chart by LP
(``reference_polyhedral.interior_point``) and looks for a root of the length
there, on the open segment from it to each vertex, and on the open
half-line from it along each ray and along plus and minus each line.
Reports must be identical, entry for entry and in order.  The affine maps
are evaluated and composed in Fractions by ``reference_linalg``, and
preimage classes are walked by ``reference_graph``, not by the kernels
under test.  ``locate`` is the library's point location with the
preimage of a boundary point solved by a given rational solver
(``reference_linalg.solve_linear``, or sympy's) instead of on integers.
"""

from __future__ import annotations

from fractions import Fraction

from tropmoduli.family import AffineFn, AffineMapN, FamilyDatum
from tropmoduli.polyhedral import ValidationReport, validate_complex
from tropmoduli.tropcurve import check_balanced, extended_degree

from reference_graph import spanning_forest
from reference_linalg import affine_apply, affine_compose
from reference_polyhedral import feasible_point, interior_point


def locate(base, fid, x, solve):
    """``family.locate`` with the preimage solved by ``solve(a, b)`` (one
    rational solution of a y = b with free coordinates 0, or None) and
    containment tested in Fractions: (face id, coordinates), or "outside"
    or "uncovered" where the library raises PointNotInComplex."""
    def inside(chart, y, strict=False):
        side = lambda n, o: sum((a * c for a, c in zip(n, y, strict=True)), Fraction(0)) - o
        return all(side(n, o) == 0 for n, o in chart.eqs) and \
            all(side(n, o) > 0 if strict else side(n, o) >= 0 for n, o in chart.ineqs)

    face = base.face(fid)
    if not inside(face.chart, x):
        return "outside"
    if face.rank == 0 or inside(face.chart, x, strict=True):
        return fid, x
    for sub in sorted(s for s, t in base.inclusions if t == fid):
        if base.face(sub).rank >= face.rank:
            continue
        inc = base.inclusions[(sub, fid)]
        y = solve(inc.linear, tuple(a - b for a, b in zip(x, inc.offset)))
        if y is not None and inside(base.face(sub).chart, y):
            return locate(base, sub, y, solve)
    return "uncovered"


def _length(fn, x):
    return affine_apply((fn.linear,), (fn.offset,), x)[0]


def _position(mp, x):
    return affine_apply(mp.linear, mp.offset, x)


def _restrict_length(fn, inc):
    lin, off = affine_compose((fn.linear,), (fn.offset,), inc.linear, inc.offset)
    return AffineFn(lin[0], off[0])


def _restrict_position(mp, inc):
    lin, off = affine_compose(mp.linear, mp.offset, inc.linear, inc.offset)
    return AffineMapN(lin, off)


def _generating_points(chart):
    """Vertices, then the first vertex moved along each ray and along plus
    and minus each line.

    These affinely span a full-dimensional chart, so affine identities that
    hold on them hold on the whole face.
    """
    verts, rays, lines = chart.vrep()
    pts = [tuple(map(Fraction, v)) for v in verts]
    for r in rays:
        pts.append(tuple(x + y for x, y in zip(pts[0], r)))
    for l in lines:
        pts.append(tuple(x + y for x, y in zip(pts[0], l)))
        pts.append(tuple(x - y for x, y in zip(pts[0], l)))
    return pts


def _strictly_inside(chart, x):
    return all(sum(a * y for a, y in zip(n, x)) > o for n, o in chart.ineqs)


def _vanishes_inside(fn, chart, inner):
    """Whether the length fn has a zero in the interior of the chart.

    ``inner`` is an interior point.  Each candidate root lies at inner, on
    the open segment from inner to a vertex, or on the open half-line from
    inner along a ray or along plus or minus a line; a candidate counts
    only if fn is 0 there and every inequality holds strictly.  Since the
    chart is conv(vertices) + cone(rays) + span(lines), a length that is
    nonzero at inner and has an interior zero takes the other sign at a
    vertex or grows the other way along a ray or a line, so the search is
    complete.
    """
    a = _length(fn, inner)
    if a == 0:
        return True
    verts, rays, lines = chart.vrep()
    # (direction from inner, bound on the step: 1 for a segment, None for a half-line)
    paths = [(tuple(Fraction(w_i) - x for w_i, x in zip(w, inner)), 1) for w in verts]
    paths += [(r, None) for r in rays]
    paths += [(tuple(s * y for y in l), None) for l in lines for s in (1, -1)]
    for d, bound in paths:
        rate = _length(fn, tuple(x + y for x, y in zip(inner, d))) - a
        if rate == 0:
            continue
        step = -a / rate
        if step <= 0 or (bound is not None and step >= bound):
            continue
        root = tuple(x + step * y for x, y in zip(inner, d))
        if _length(fn, root) == 0 and _strictly_inside(chart, root):
            return True
    return False


def validate_family(f: FamilyDatum) -> ValidationReport:
    """Definition-style family validation, one report entry per violation;
    every affine identity is checked at every generating point."""
    report = ValidationReport()
    base_report = validate_complex(f.base)
    for v in base_report.violations:
        report.add("base", v.subject, str(v))
    if not base_report.ok:
        return report

    for fid in sorted(f.base.faces):
        if fid not in f.face_data:
            report.add("coverage", fid, "face without curve data")
    for key in sorted(f.base.inclusions):
        if key not in f.contractions:
            report.add("coverage", f"{key[0]}->{key[1]}", "inclusion without contraction")
    if not base_report.ok or any(v.axiom == "coverage" for v in report.violations):
        return report

    # per-face fiber conditions; inclusion checks skip faces with malformed data
    malformed = set()
    for fid in sorted(f.base.faces):
        data = f.face_data[fid]
        face = f.base.face(fid)
        t = data.type
        if t.dim != f.dim:
            report.add("1", fid, f"type lives in Z^{t.dim}, family in Z^{f.dim}")
            malformed.add(fid)
            continue
        if extended_degree(t) != f.extended_degree:
            report.add("degree", fid, "extended degree differs from the family degree")
        bal = check_balanced(t)
        if not bal.ok:
            report.add("1", fid, f"type unbalanced at {[v for v, _ in bal.failures]}")
        missing = [e for e, _, _ in t.graph.edges if e not in data.lengths]
        missing += [v for v in t.graph.vertex_ids() if v not in data.positions]
        if missing:
            report.add("1", fid, f"missing affine data for {missing}")
            malformed.add(fid)
            continue
        shape_bad = False
        for e, fn in data.lengths.items():
            if len(fn.linear) != face.rank:
                report.add("1", fid, f"length of {e!r} has linear part of wrong arity")
                shape_bad = True
        for u, mp in data.positions.items():
            if len(mp.linear) != f.dim or any(len(r) != face.rank for r in mp.linear) \
                    or len(mp.offset) != f.dim:
                report.add("1", fid, f"position of {u!r} has affine data of wrong shape")
                shape_bad = True
        if shape_bad:
            malformed.add(fid)
            continue

        pts = _generating_points(face.chart)
        verts, rays, lines = face.chart.vrep()
        inner = interior_point(face.chart) if face.rank > 0 else feasible_point(face.chart)
        for e, u, v in t.graph.edges:
            fn = data.lengths[e]
            # nonnegative on the face: vertex values and recession signs
            for w in verts:
                if _length(fn, w) < 0:
                    report.add("1", fid,
                               f"length of {e!r} is negative at vertex {tuple(map(str, w))}")
                    break
            for r in rays:
                if sum(a * x for a, x in zip(fn.linear, r)) < 0:
                    report.add("1", fid, f"length of {e!r} decreases along a ray")
                    break
            for l in lines:
                if sum(a * x for a, x in zip(fn.linear, l)) != 0:
                    report.add("1", fid, f"length of {e!r} is unbounded below along a line")
                    break
            if inner is not None and _vanishes_inside(fn, face.chart, inner):
                report.add("1", fid, f"length of {e!r} vanishes on the interior")
            # edge relation as an identity, checked on the generating set
            slope = t.slopes[e]
            for x in pts:
                lhs = tuple(b - a for a, b in zip(_position(data.positions[u], x),
                                                  _position(data.positions[v], x)))
                if lhs != tuple(_length(fn, x) * s for s in slope):
                    report.add("1", fid,
                               f"edge relation fails for {e!r} at {tuple(map(str, x))}")
                    break

    # inclusion conditions (2), (3) and the zero-locus iff
    for (sub, sup), inc in sorted(f.base.inclusions.items()):
        if sub in malformed or sup in malformed:
            continue
        phi = f.contractions[(sub, sup)]
        tsub = f.face_data[sub].type
        tsup = f.face_data[sup].type
        subject = f"{sub}->{sup}"
        gsub, gsup = tsub.graph, tsup.graph
        vm = phi.vertex_map
        if sorted(vm) != sorted(gsup.vertex_ids()) or \
                not set(vm.values()) <= set(gsub.vertex_ids()):
            report.add("contraction", subject, "vertex map is not total onto known vertices")
            continue
        surviving = set(phi.edge_map)
        sup_edges = {e for e, _, _ in gsup.edges}
        sub_edges = {e for e, _, _ in gsub.edges}
        if not surviving <= sup_edges or \
                sorted(phi.edge_map.values()) != sorted(sub_edges):
            report.add("contraction", subject, "edge map is not a bijection onto the sub-face edges")
            continue
        if len(gsub.legs) != len(gsup.legs):
            report.add("contraction", subject, "leg counts differ")
            continue
        for (l_sup, v_sup), (l_sub, v_sub) in zip(gsup.legs, gsub.legs):
            if vm[v_sup] != v_sub:
                report.add("contraction", subject,
                           f"leg {l_sup!r} does not map to the matching leg vertex")
        ends_sub = {e: (u, v) for e, u, v in gsub.edges}
        for e, u, v in gsup.edges:
            if e not in phi.edge_map:
                if vm[u] != vm[v]:
                    report.add("contraction", subject,
                               f"contracted edge {e!r} has endpoints in different classes")
                continue
            eu, ev = ends_sub[phi.edge_map[e]]
            s_sup = tsup.slopes[e]
            s_sub = tsub.slopes[phi.edge_map[e]]
            if (vm[u], vm[v]) == (eu, ev):
                ok = s_sup == s_sub
            elif (vm[u], vm[v]) == (ev, eu):
                ok = s_sup == tuple(-x for x in s_sub)
            else:
                report.add("contraction", subject,
                           f"edge {e!r} does not map onto its image's endpoints")
                continue
            if not ok and eu == ev:
                ok = s_sup in (s_sub, tuple(-x for x in s_sub))
            if not ok:
                report.add("contraction", subject, f"slope of {e!r} changes under contraction")
        # weighted contraction: preimage classes connected, weights add up
        classes = {}
        for u in gsup.vertex_ids():
            classes.setdefault(vm[u], set()).add(u)
        wsup = dict(gsup.vertices)
        wsub = dict(gsub.vertices)
        for x, cls in sorted(classes.items()):
            internal = [(e, u, v) for e, u, v in gsup.edges
                        if e not in phi.edge_map and u in cls and v in cls]
            forest, _ = spanning_forest(sorted(cls), internal)
            if any(parent is None for _, parent, _, _ in forest[1:]):
                report.add("contraction", subject, f"preimage of {x!r} is not connected")
                continue
            b1 = len(internal) - (len(cls) - 1)
            if wsub[x] != sum(wsup[u] for u in cls) + b1:
                report.add("contraction", subject,
                           f"weight of {x!r} is not the contracted genus")

        sub_pts = _generating_points(f.base.face(sub).chart)
        lens_sub = f.face_data[sub].lengths
        lens_sup = f.face_data[sup].lengths
        pos_sub = f.face_data[sub].positions
        pos_sup = f.face_data[sup].positions
        for e, u, v in gsup.edges:
            restricted = _restrict_length(lens_sup[e], inc)
            if e in phi.edge_map:
                target = lens_sub[phi.edge_map[e]]
                if any(_length(restricted, x) != _length(target, x) for x in sub_pts):
                    report.add("2", subject, f"length of {e!r} disagrees on the sub-face")
                if restricted.is_zero():
                    report.add("zero-locus", subject,
                               f"surviving edge {e!r} has identically vanishing length")
            else:
                if not restricted.is_zero():
                    report.add("zero-locus", subject,
                               f"contracted edge {e!r} has nonvanishing length on the sub-face")
        for u in gsup.vertex_ids():
            restricted = _restrict_position(pos_sup[u], inc)
            target = pos_sub[vm[u]]
            if any(_position(restricted, x) != _position(target, x) for x in sub_pts):
                report.add("3", subject, f"position of {u!r} disagrees on the sub-face")
    return report
