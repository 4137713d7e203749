"""Families of parameterized tropical curves over a polyhedral complex.

A family assigns to every face of the base complex a combinatorial type,
an affine length function per edge and an affine position map per vertex,
together with weighted contractions along face inclusions.  Validation
checks the fiber condition per face, the length/position compatibilities
along inclusions, and the zero-locus condition (an edge is contracted
exactly when its length vanishes identically on the sub-face).  On a
full-dimensional chart each is an identity of affine maps, decided once on
their integer coefficients (a restriction is the inclusion's ``pull_back``
of the super-face's (linear, num, den)); the sign and zeros of a length
are read off the chart's vertices, rays and lines.  No LP is solved, and a
failing edge relation is named from its integer residual at the chart's
vertex keys.  A contraction's type-only checks run once per distinct (sub
type, super type, vertex map, edge map), their messages repeated under each
inclusion's own subject.

The induced moduli map assigns to each face the affine lift of the
stabilized fiber into the stratum coordinates of its canonical type.
``induced_alpha`` is the one place that validates a family and lifts its
faces; wall verdicts and image strata take the map it returns, in which a
contraction between faces of one stabilized type is an isomorphism of the
stabilized types.  Type-only work (degree and balancing checks,
stabilization, canonical form) runs once per type object, which faces read
from one type document share, and a lift ranks its rows once.  Wall
verdicts implement the harmonic / quasi-harmonic / locally combinatorially
surjective trichotomy at a face (each harmonicity outcome gives its verdict
through one table), and closure propagation saturates a seed set of maximal
strata through walls.  The family, its face data, the lifts and the
verdicts are plain slotted records (see ``records``).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import InvalidFamily, PointNotInComplex, SeedNotInGraph
from .exact_linalg import _dot, _int_echelon, _over_common, _rat_str, mat_rows, rank, vec
from .moduli import (
    WallClassification,
    WallGraph,
    canonical_form,
    classify,
    contract_any_slope,
    dim_stratum,
    stratum,
    _resolutions,
)
from .polyhedral import (
    Harmonicity,
    PIAMap,
    PolyhedralComplex,
    ValidationReport,
    harmonicity_at,
    validate_complex,
)
from .records import FrozenRecord, Offset, Record, _affine_at
from .tropcurve import (
    CombinatorialType,
    ParameterizedTropicalCurve,
    TropicalCurve,
    check_balanced,
    extended_degree,
    stabilize_type,
)


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

class AffineFn(FrozenRecord):
    """Integral affine function on a face chart: x -> linear . x + offset,
    the offset stored as for ``records.Offset``, with one numerator."""

    __slots__ = ("linear", "num", "den")
    def __init__(self, linear: tuple, offset, den: int = 1):
        self.linear = tuple(linear)  # integer row over the chart coordinates
        (self.num,), self.den = _over_common((offset,), den)

    @property
    def offset(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __call__(self, x):
        return _affine_at((self.linear,), (self.num,), self.den, x)[0]

    def is_zero(self) -> bool:
        return self.num == 0 and all(a == 0 for a in self.linear)


class AffineMapN(Offset, FrozenRecord):
    """Integral affine map from a face chart to N_R."""

    __slots__ = ("linear", "num", "den")
    def __init__(self, linear: tuple, offset: tuple, den: int = 1):
        self.linear = mat_rows(linear)  # dim rows, each an integer row over chart coordinates
        self.num, self.den = _over_common(tuple(offset), den)  # dim numerators

    def __call__(self, x):
        return _affine_at(self.linear, self.num, self.den, x)


class FaceCurveData(Record):
    __slots__ = ("type",
                 "lengths",  # edge id -> AffineFn
                 "positions")  # vertex id -> AffineMapN


class Contraction(Record):
    """Weighted contraction from the super-face graph onto the sub-face graph.

    ``vertex_map`` is total; ``edge_map`` lists the surviving edges only.
    """

    __slots__ = ("vertex_map", "edge_map")


class FamilyDatum(Record):
    __slots__ = ("base", "dim", "extended_degree",
                 "face_data",  # face id -> FaceCurveData
                 "contractions")  # (sub id, super id) -> Contraction


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _affine_faults(f: FamilyDatum, fid: str):
    """Face fid's curve data (None if it has none), the edges and vertices it
    lacks affine data for, and axiom-1 messages for a type in another lattice
    or affine data of the wrong shape; validate_family reports them all and
    fiber refuses a face with any."""
    data = f.face_data.get(fid)
    if data is None:
        return None, [], []
    graph, rank = data.type.graph, f.base.face(fid).rank
    if data.type.dim != f.dim:
        return data, [], [f"type lives in Z^{data.type.dim}, family in Z^{f.dim}"]
    missing = [e for e, _, _ in graph.edges if e not in data.lengths]
    missing += [v for v in graph.vertex_ids() if v not in data.positions]
    if missing:
        return data, missing, []
    misshapen = [f"length of {e!r} has linear part of wrong arity"
                 for e, fn in data.lengths.items() if len(fn.linear) != rank]
    misshapen += [f"position of {u!r} has affine data of wrong shape"
                  for u, mp in data.positions.items()
                  if len(mp.linear) != f.dim or any(len(r) != rank for r in mp.linear)
                  or len(mp.num) != f.dim]
    return data, [], misshapen


def _contraction_faults(tsub: CombinatorialType, tsup: CombinatorialType, phi: Contraction):
    """The messages of a contraction's type-only checks, in report order, and
    whether the inclusion's restrictions are checked (not when the vertex
    map, the edge map or the leg count is malformed).  The pieces and their
    weights are the vertices of ``contract_any_slope`` of the edges inside
    the classes, each piece named by the least vertex id merged into it."""
    gsub, gsup = tsub.graph, tsup.graph
    vm = phi.vertex_map
    if sorted(vm) != sorted(gsup.vertex_ids()) or \
            not set(vm.values()) <= set(gsub.vertex_ids()):
        return ["vertex map is not total onto known vertices"], False
    if not set(phi.edge_map) <= {e for e, _, _ in gsup.edges} or \
            sorted(phi.edge_map.values()) != sorted({e for e, _, _ in gsub.edges}):
        return ["edge map is not a bijection onto the sub-face edges"], False
    if len(gsub.legs) != len(gsup.legs):
        return ["leg counts differ"], False
    out = [f"leg {l_sup!r} does not map to the matching leg vertex"
           for (l_sup, v_sup), (_, v_sub) in zip(gsup.legs, gsub.legs) if vm[v_sup] != v_sub]
    ends_sub = {e: (u, v) for e, u, v in gsub.edges}
    for e, u, v in gsup.edges:
        if e not in phi.edge_map:
            if vm[u] != vm[v]:
                out.append(f"contracted edge {e!r} has endpoints in different classes")
            continue
        # the image's slope along each orientation whose ends match (both on a loop)
        eu, ev = ends_sub[phi.edge_map[e]]
        s_sub = tsub.slopes[phi.edge_map[e]]
        allowed = [s for ends, s in (((eu, ev), s_sub), ((ev, eu), tuple(-x for x in s_sub)))
                   if ends == (vm[u], vm[v])]
        if not allowed:
            out.append(f"edge {e!r} does not map onto its image's endpoints")
        elif tsup.slopes[e] not in allowed:
            out.append(f"slope of {e!r} changes under contraction")
    # weighted contraction of the edges inside the classes: each preimage
    # class is one piece, whose genus weight is its image's weight
    contracted = contract_any_slope(tsup, {e for e, u, v in gsup.edges
                                           if e not in phi.edge_map and vm[u] == vm[v]})
    pieces = {}  # image vertex -> the weights of the pieces over it
    for u, w in contracted.graph.vertices:
        pieces.setdefault(vm[u], []).append(w)
    wsub = dict(gsub.vertices)
    for x, weights in sorted(pieces.items()):
        if len(weights) > 1:
            out.append(f"preimage of {x!r} is not connected")
        elif wsub[x] != weights[0]:
            out.append(f"weight of {x!r} is not the contracted genus")
    return out, True


def validate_family(f: FamilyDatum) -> ValidationReport:
    """Definition-style family validation, one report entry per violation.

    Lengths are checked on the generators of each chart (Minkowski-Weyl:
    P = conv(vertices) + cone(rays) + span(lines)) and no LP is solved.  A
    length is negative somewhere on its face exactly when it is negative at
    a vertex, decreases along a ray or is not constant along a line.  The
    zero-locus rule: a length has a zero in the interior of a
    full-dimensional chart exactly when it is constant there and equal to
    0, or it takes both strict signs among its values, which are its value
    at each vertex, linear·r for each ray r and ±linear·l for each line l
    (the interior is convex and dense in the chart).
    """
    report = ValidationReport()
    base_report = validate_complex(f.base)
    for v in base_report.violations:
        report.add("base", v.subject, str(v))
    if not base_report.ok:
        return report

    faults = {fid: _affine_faults(f, fid) for fid in sorted(f.base.faces)}
    for fid, (data, _, _) in faults.items():
        if data is None:
            report.add("coverage", fid, "face without curve data")
    for key in sorted(f.base.inclusions):
        if key not in f.contractions:
            report.add("coverage", f"{key[0]}->{key[1]}", "inclusion without contraction")
    if report.violations:
        return report

    # per-face fiber conditions, type-only ones once per type; malformed faces skip inclusions
    malformed, checked = set(), {}
    for fid, (data, missing, misshapen) in faults.items():
        face = f.base.face(fid)
        t = data.type
        if t.dim == f.dim:
            if id(t) not in checked:
                checked[id(t)] = extended_degree(t), check_balanced(t)
            degree, bal = checked[id(t)]
            if degree != f.extended_degree:
                report.add("degree", fid, "extended degree differs from the family degree")
            if not bal.ok:
                report.add("1", fid, f"type unbalanced at {[v for v, _ in bal.failures]}")
        if missing:
            report.add("1", fid, f"missing affine data for {missing}")
        for message in misshapen:
            report.add("1", fid, message)
        if missing or misshapen:
            malformed.add(fid)
            continue

        (_, rays, lines), _, _, keys = face.chart._incidences
        point = lambda num, den: tuple(_rat_str(x, den) for x in num)  # a vertex key's string
        for e, u, v in t.graph.edges:
            fn = data.lengths[e]
            # den·fn.den times the value at each vertex num/den: the same sign
            values = [fn.den * _dot(fn.linear, num) + fn.num * den for num, den in keys]
            ray_rates = [_dot(fn.linear, r) for r in rays]
            line_rates = [_dot(fn.linear, l) for l in lines]
            neg = next((k for k, y in zip(keys, values) if y < 0), None)
            if neg is not None:
                report.add("1", fid, f"length of {e!r} is negative at vertex {point(*neg)}")
            if any(y < 0 for y in ray_rates):
                report.add("1", fid, f"length of {e!r} decreases along a ray")
            if any(line_rates):
                report.add("1", fid, f"length of {e!r} is unbounded below along a line")
            values += ray_rates + line_rates + [-y for y in line_rates]
            if fn.is_zero() or (any(y < 0 for y in values) and any(y > 0 for y in values)):
                report.add("1", fid, f"length of {e!r} vanishes on the interior")
            # the edge relation: den·(P_v - P_u - l_e·slope) as integer rows
            # (linear part, offset), which holds iff every row is zero
            pu, pv = data.positions[u], data.positions[v]
            den = lcm(pu.den, pv.den, fn.den)
            res = [(tuple(den * (b - a - c * k) for a, b, k in zip(ru, rv, fn.linear)),
                    ov * (den // pv.den) - ou * (den // pu.den) - c * fn.num * (den // fn.den))
                   for ru, rv, ou, ov, c in zip(pu.linear, pv.linear, pu.num, pv.num, t.slopes[e])]
            if any(o or any(r) for r, o in res):
                # the first vertex where it fails, else vertex 0 moved along
                # the first ray or line where the residual changes
                at = next((k for k in keys if any(_dot(r, k[0]) + o * k[1] for r, o in res)), None)
                if at is None:
                    g = next(g for g in rays + lines if any(_dot(r, g) for r, _ in res))
                    at = (tuple(x + keys[0][1] * y for x, y in zip(keys[0][0], g)), keys[0][1])
                report.add("1", fid, f"edge relation fails for {e!r} at {point(*at)}")

    # inclusion conditions (2), (3) and the zero-locus iff, the type-only
    # ones once per (sub type, super type, vertex map, edge map)
    contracted = {}
    for (sub, sup), inc in sorted(f.base.inclusions.items()):
        if sub in malformed or sup in malformed:
            continue
        phi = f.contractions[(sub, sup)]
        dsub, dsup = f.face_data[sub], f.face_data[sup]
        subject = f"{sub}->{sup}"
        key = (id(dsub.type), id(dsup.type), tuple(phi.vertex_map.items()),
               tuple(phi.edge_map.items()))
        if key not in contracted:
            contracted[key] = _contraction_faults(dsub.type, dsup.type, phi)
        messages, restricts = contracted[key]
        for message in messages:
            report.add("contraction", subject, message)
        if not restricts:
            continue
        # restrictions agree on the full-dimensional sub chart iff their integers do
        for e, _, _ in dsup.type.graph.edges:
            fn = dsup.lengths[e]
            (row,), (num,), den = inc.pull_back((fn.linear,), (fn.num,), fn.den)
            zero = num == 0 and not any(row)
            if e in phi.edge_map:
                target = dsub.lengths[phi.edge_map[e]]
                if (row, num, den) != (target.linear, target.num, target.den):
                    report.add("2", subject, f"length of {e!r} disagrees on the sub-face")
                if zero:
                    report.add("zero-locus", subject,
                               f"surviving edge {e!r} has identically vanishing length")
            elif not zero:
                report.add("zero-locus", subject,
                           f"contracted edge {e!r} has nonvanishing length on the sub-face")
        for u in dsup.type.graph.vertex_ids():
            mp, target = dsup.positions[u], dsub.positions[phi.vertex_map[u]]
            if inc.pull_back(mp.linear, mp.num, mp.den) != (target.linear, target.num, target.den):
                report.add("3", subject, f"position of {u!r} disagrees on the sub-face")
    return report


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def locate(base: PolyhedralComplex, fid: str, coords):
    """Resolve a point given in some face's chart to the face whose interior
    holds it; returns (face id, chart coordinates).  The preimage y of a
    boundary point x = x_num/den under a sub-face inclusion is solved on the
    integer rows [den·inc.den·linear | x_num·inc.den - inc.num·den]."""
    face = base.face(fid)
    x = vec(coords)
    if len(x) != face.rank:
        raise PointNotInComplex(f"point has {len(x)} coordinates, face rank is {face.rank}")
    if not face.chart.contains(x):
        raise PointNotInComplex(f"point {tuple(map(_rat_str, x))} is outside face {fid!r}")
    if face.rank == 0 or face.chart.contains(x, strict=True):
        return fid, x
    num, den = _over_common(x)
    for sub in base.subface_ids(fid):
        n = base.face(sub).rank
        if n >= face.rank:  # inclusions may form a cycle
            continue
        inc = base.inclusions[(sub, fid)]
        red, pivots = _int_echelon([(*(den * inc.den * a for a in row), xn * inc.den - o * den)
                                    for row, xn, o in zip(inc.linear, num, inc.num)], n)
        if any(row[n] for row in red[len(pivots):]):  # 0 = c != 0: no preimage
            continue
        ratio = {c: Fraction(row[n], row[c]) for row, c in zip(red, pivots)}
        y = [ratio.get(j, Fraction(0)) for j in range(n)]  # free coordinates 0
        if base.face(sub).chart.contains(y):
            return locate(base, sub, y)
    raise PointNotInComplex(
        f"boundary point {tuple(map(_rat_str, x))} of {fid!r} is not covered by a sub-face")


def fiber(f: FamilyDatum, fid: str, coords) -> ParameterizedTropicalCurve:
    """The parameterized tropical curve over a rational point of the base."""
    where, x = locate(f.base, fid, coords)
    data, missing, misshapen = _affine_faults(f, where)
    if data is None:
        raise InvalidFamily(f"face {where!r} has no curve data")
    if missing:
        raise InvalidFamily(f"face {where!r} has no affine data for {missing}")
    if misshapen:
        raise InvalidFamily(f"face {where!r}: {misshapen[0]}")
    lengths = {}
    for e, _, _ in data.type.graph.edges:
        val = data.lengths[e](x)
        if val <= 0:
            raise InvalidFamily(
                f"length of {e!r} is {_rat_str(val)} at an interior point of {where!r}")
        lengths[e] = val
    positions = {u: data.positions[u](x) for u in data.type.graph.vertex_ids()}
    curve = TropicalCurve(data.type.graph, lengths)
    p = ParameterizedTropicalCurve(curve, positions, dict(data.type.slopes), f.dim)
    if not p.is_valid():
        raise InvalidFamily(f"the fiber at a point of {where!r} is not a valid curve")
    return p


# ---------------------------------------------------------------------------
# the induced map to moduli
# ---------------------------------------------------------------------------

class _RankOnce:
    """The rank of ``linear``, kept in a slot that is no field, filled on first use."""
    __slots__ = ("_rank",)
    def rank(self) -> int:
        if not hasattr(self, "_rank"):
            self._rank = rank(self.linear)
        return self._rank


class FaceLift(_RankOnce, Offset, Record):
    __slots__ = ("face", "type",  # canonical representative of the stabilized fiber type
                 "canonical", "linear",  # stratum-coordinate rows over the chart
                 "num", "den",  # their offsets, in lowest terms as _lift_rows gives them
                 "stab",  # the stabilized fiber type over the face
                 "canon_vertex_map", "canon_edge_map")  # stabilized ids -> canonical ids


class InducedMap(Record):
    __slots__ = ("family",
                 "lifts")  # face id -> FaceLift


def _lift_rows(f: FamilyDatum, fid: str, chains, vertices):
    """Stratum-coordinate rows over the chart of face ``fid``, and their
    offsets as (numerators, denominator).

    One row per edge chain, the sum of the chain's length functions, then
    ``dim`` position rows per vertex; both lists come in canonical order.
    """
    data = f.face_data[fid]
    fns = [[data.lengths[gamma] for gamma in chain] for chain in chains]
    maps = [data.positions[u] for u in vertices]
    den = lcm(*(fn.den for chain in fns for fn in chain), *(mp.den for mp in maps))
    rows = [tuple(map(sum, zip(*(fn.linear for fn in chain)))) for chain in fns]  # chains: nonempty
    offs = [sum(fn.num * (den // fn.den) for fn in chain) for chain in fns]
    for mp in maps:
        rows += map(tuple, mp.linear)
        offs += (n * (den // mp.den) for n in mp.num)
    return tuple(rows), *_over_common(tuple(offs), den)


def _face_lift(f: FamilyDatum, fid: str, typed: dict) -> FaceLift:
    """Face fid's lift; ``typed`` maps id(type) -> (stabilization, canonical form)."""
    t = f.face_data[fid].type
    if id(t) not in typed:  # a type validated in Z^f.dim stabilizes to valid parts
        stab = stabilize_type(t)
        typed[id(t)] = stab, canonical_form(
            CombinatorialType._trusted(stab.graph, stab.slopes, f.dim))
    stab, cf = typed[id(t)]
    chains = [stab.edge_chains[e] for e in cf.edge_map]  # the maps are in canonical order
    linear, num, den = _lift_rows(f, fid, chains, cf.vertex_map)
    return FaceLift(fid, cf.type, cf.string, linear, num, den, stab,
                    dict(cf.vertex_map), dict(cf.edge_map))


def induced_alpha(f: FamilyDatum) -> InducedMap:
    """Validate a family and lift every face into stratum coordinates.

    The family layer's only validation: InvalidFamily on any violation,
    Unstabilizable for a face type with no stable model (not a violation).
    ``wall_verdict`` and ``image_strata`` take the returned map as is.

    Stabilization is constant over a face interior (pruned and smoothed
    pieces are determined by the type and the identically-vanishing
    lengths), so the lift rows are sums of length functions along the
    smoothing chains followed by the surviving position rows.
    """
    report = validate_family(f)
    if not report.ok:
        raise InvalidFamily(str(report))
    typed = {}
    return InducedMap(family=f, lifts={fid: _face_lift(f, fid, typed)
                                       for fid in sorted(f.base.faces)})


# ---------------------------------------------------------------------------
# wall verdicts
# ---------------------------------------------------------------------------

class WallVerdictKind(str, Enum):
    HARMONIC = "harmonic"
    QUASI_HARMONIC = "quasi_harmonic"
    LOCALLY_COMBINATORIALLY_SURJECTIVE = "locally_combinatorially_surjective"
    INCONCLUSIVE = "inconclusive"


class WallVerdict(Record):
    __slots__ = ("face", "verdict", "certificate", "witnesses", "uncovered", "detail")
    def __init__(self, face: str, verdict: WallVerdictKind, certificate: tuple | None = None,
                 witnesses: dict | None = None, uncovered: tuple = (), detail: str = ""):
        self.face, self.verdict, self.detail = face, verdict, detail
        self.certificate = certificate  # LP coefficients for (quasi-)harmonic
        # resolution canonical -> cofacet face
        self.witnesses = {} if witnesses is None else witnesses
        self.uncovered = uncovered  # canonical strings of unattained strata


# the verdict and detail of each harmonicity outcome (the certificate is the outcome's)
_WALL_VERDICT_OF = {
    Harmonicity.HARMONIC: (WallVerdictKind.HARMONIC, ""),
    Harmonicity.QUASI_HARMONIC_ONLY: (WallVerdictKind.QUASI_HARMONIC, ""),
    Harmonicity.NOT_QUASI_HARMONIC: (
        WallVerdictKind.INCONCLUSIVE,
        "not quasi-harmonic: no positive combination of the star derivatives lies in the "
        "image span"),
}


def _stabilized_contraction(f: FamilyDatum, sub: str, sup: str, stab_sub, stab_super):
    """Map the stabilized sub-face's vertices and edges back to the
    stabilized super-face's, the direction in which the lift is rewritten.

    Called when both faces carry one canonical stabilized type, on a family
    that ``induced_alpha`` accepted.  The stabilized sub type is then the
    stabilized super type with the chains that lose every edge contracted,
    a stable type with fewer edges unless no chain does; so each chain keeps
    a surviving edge, the images of its surviving edges are exactly one sub
    chain, and the maps are an isomorphism of the stabilized types.
    """
    phi = f.contractions[(sub, sup)]
    sub_chain_of = {gamma: e for e, chain in stab_sub.edge_chains.items() for gamma in chain}
    emap = {sub_chain_of[phi.edge_map[next(g for g in chain if g in phi.edge_map)]]: e
            for e, chain in stab_super.edge_chains.items()}
    return {phi.vertex_map[u]: u for u in stab_super.kept_vertices}, emap


def wall_verdict(alpha: InducedMap, w: str) -> WallVerdict:
    """Trichotomy of the induced map at a face of the base.

    ``alpha`` is the validated map from ``induced_alpha``; the family is
    not validated again.  When every cofacet carries the same stabilized
    type as the face, each cofacet lift is read through its contraction,
    which validation makes an isomorphism of the stabilized types, and the
    lifted map is tested for (quasi-)harmonicity; otherwise, if the face's
    type is a weightless almost 3-valent wall, local combinatorial
    surjectivity is decided against the wall's resolutions.  Situations
    outside the theorem's hypotheses are reported as inconclusive.
    """
    f = alpha.family
    cofacet_incs = f.base.cofacet_inclusions(w)
    lift_w = alpha.lifts[w]
    cofacets = [inc.super for inc in cofacet_incs]
    same_type = all(alpha.lifts[c].canonical == lift_w.canonical for c in cofacets)

    if same_type:
        per_face = {w: (lift_w.linear, lift_w.offset)}
        for inc in cofacet_incs:
            sup = inc.super
            stab_sup = alpha.lifts[sup].stab
            vmap, emap = _stabilized_contraction(f, w, sup, lift_w.stab, stab_sup)
            # restricted to w these rows are w's lift: a chain's sum by axiom
            # (2) and the zero-locus rule, the positions by axiom (3)
            rows, num, den = _lift_rows(
                f, sup, [stab_sup.edge_chains[emap[e]] for e in lift_w.canon_edge_map],
                [vmap[u] for u in lift_w.canon_vertex_map])
            per_face[sup] = (rows, tuple(Fraction(n, den) for n in num))
        local = PIAMap(source=f.base, target_dim=len(lift_w.linear), per_face=per_face)
        res = harmonicity_at(local, w)
        kind, detail = _WALL_VERDICT_OF[res.verdict]
        return WallVerdict(face=w, verdict=kind, certificate=res.certificate, detail=detail)

    wall_type = lift_w.type
    cls = classify(wall_type)
    if cls.classification != WallClassification.WEIGHTLESS_ALMOST_3VALENT:
        return WallVerdict(
            face=w, verdict=WallVerdictKind.INCONCLUSIVE,
            detail=f"cofacet types differ but the face type is "
                   f"{cls.classification.value}; the dichotomy does not apply")
    resolutions = _resolutions(wall_type, cls.four_valent_vertex)
    required = [k for k in sorted(resolutions) if not stratum(resolutions[k]).is_empty()]
    attained = {}
    for inc in cofacet_incs:
        attained.setdefault(alpha.lifts[inc.super].canonical, inc.super)
    witnesses = {}
    uncovered = []
    for key in required:
        if key in attained:
            witnesses[key] = attained[key]
        else:
            uncovered.append(key)
    if not uncovered:
        return WallVerdict(face=w,
                           verdict=WallVerdictKind.LOCALLY_COMBINATORIALLY_SURJECTIVE,
                           witnesses=witnesses)
    return WallVerdict(face=w, verdict=WallVerdictKind.INCONCLUSIVE,
                       witnesses=witnesses, uncovered=tuple(sorted(uncovered)),
                       detail=f"{len(uncovered)} adjacent strata are not attained")


# ---------------------------------------------------------------------------
# image strata and closure propagation
# ---------------------------------------------------------------------------

class ImageStratum(FrozenRecord):
    __slots__ = ("canonical", "type", "image_dim", "stratum_dim", "full_dimensional")


def image_strata(alpha: InducedMap) -> list:
    """Group the faces of a validated map by stabilized target type; report
    image ranks per type.

    ``stratum_dim`` is None for an empty stratum; ``full_dimensional`` records whether the
    best image piece reaches the stratum dimension (the hypothesis of the closure criterion).
    """
    by_type = {}
    for fid in sorted(alpha.lifts):
        lift = alpha.lifts[fid]
        cur = by_type.get(lift.canonical)
        r = lift.rank()
        if cur is None or r > cur[1]:
            by_type[lift.canonical] = (lift.type, r)
    out = []
    for key in sorted(by_type):
        t, r = by_type[key]
        d = dim_stratum(t)
        out.append(ImageStratum(canonical=key, type=t, image_dim=r, stratum_dim=d,
                                full_dimensional=(d is not None and r == d)))
    return out


class PropagationResult(Record):
    __slots__ = ("closure",  # sorted node ids
                 "trace")  # (wall id, tuple of added node ids) in application order


def propagate_closure(wg: WallGraph, seeds) -> PropagationResult:
    """Saturate a set of full-dimensional strata through wall incidences.

    Rule: once any node incident to a wall lies in the set, every node
    incident to that wall joins it; iterated to a fixpoint.  Monotone,
    idempotent and independent of the seed iteration order.
    """
    node_ids = set(wg.node_ids())
    current = set()
    for s in seeds:
        if s not in node_ids:
            raise SeedNotInGraph(f"seed {s!r} is not a node of the wall graph")
        current.add(s)
    trace = []
    changed = True
    while changed:
        changed = False
        for wid, _, incident in wg.walls:
            inc = set(incident)
            if inc & current and not inc <= current:
                added = tuple(sorted(inc - current))
                current |= inc
                trace.append((wid, added))
                changed = True
    return PropagationResult(closure=tuple(sorted(current)), trace=tuple(trace))
