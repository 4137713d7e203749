"""Polyhedral complexes with integral structures.

A complex is stored abstractly: each face carries its own chart (a
full-dimensional rational polyhedron in R^rank) and gluing is carried
entirely by integral affine inclusion maps between charts.  Skeletons of
strictly semistable pairs have no canonical global embedding, so no global
ambient space is ever assumed.

The module also provides piecewise integral affine maps on complexes, the
star of a face (primitive normal directions into codimension-one cofacets),
the harmonic / quasi-harmonic / not-quasi-harmonic trichotomy at a face,
and the skeleton constructor for combinatorial semistable pair data.
Polyhedron queries, validation and stars read the charts' integer rows
and incidences; only the quasi-harmonicity test of ``harmonicity_at`` solves
an LP.  ``harmonicity_at`` works on integer rows throughout: derivatives,
the image span and the LP's coefficients are integers.  Faces,
inclusions, stars, maps, verdicts and pair data are plain slotted records
(see ``records``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import (
    DependentGenerators,
    DimMismatch,
    InconsistentStrata,
    NoCofacets,
    TropModuliError,
    UnknownFace,
)
from .exact_linalg import (
    _affine_over,
    _dot,
    _forest,
    _int_echelon,
    _over_common,
    _rat_str,
    _span_basis,
    frac,
    integer_kernel,
    is_saturated,
    ivec,
    mat_mul,
    mat_rows,
    primitive_vector,
    rank,
    smith_normal_form,
    strict_positive_combination,
)
from .records import FrozenRecord, Offset, Record, _affine_at


# ---------------------------------------------------------------------------
# polyhedra (H-representation, exact V-representation on demand)
# ---------------------------------------------------------------------------

class Polyhedron:
    """Intersection of half-spaces <n,x> >= o with integral normals.

    Equalities are stored separately.  Polyhedra with equal constraints are
    equal, and a complex keeps one of them (see ``PolyhedralComplex``).  Each
    constraint <n, x> ? p/q is kept once as the integer row (q·n, p), which
    every query reads.  One incidence pass, the cached attribute
    ``_incidences``, scans the cone {(x, t) : q·n·x >= p·t, t >= 0} over P
    once for the V-representation (vertices, rays and lineality generators)
    and records which inequalities are tight at each vertex and each ray,
    with each vertex keyed by its lowest-terms (numerators, denominator);
    the face lattice and the vertex and ray indexes (by tight mask) are
    cached attributes read off it; point queries read the rows through
    ``_tight_mask``.  No query solves an LP: ``dim``, ``is_empty``,
    ``has_interior``, ``proper_faces``, ``feasible_point`` and
    ``interior_point`` read P = conv(vertices) + cone(rays) + span(lines).
    """

    def __init__(self, ambient_dim: int, ineqs=(), eqs=()):
        self.ambient_dim = ambient_dim
        self.ineqs = tuple((ivec(n), frac(o)) for n, o in ineqs)
        self.eqs = tuple((ivec(n), frac(o)) for n, o in eqs)
        for n, _ in self.ineqs + self.eqs:
            if len(n) != ambient_dim:
                raise DimMismatch("constraint normal has wrong length")
        self._rows, self._eq_rows = (tuple((*[o.denominator * c for c in n], o.numerator)
                                           for n, o in cs) for cs in (self.ineqs, self.eqs))
        self._key = (ambient_dim, self.ineqs, self.eqs)
        self._hash = hash((ambient_dim, self._rows, self._eq_rows))  # equal keys, equal rows
        self._dims = {}  # tight mask -> _face_dim

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polyhedron(dim={self.ambient_dim}, ineqs={len(self.ineqs)}, eqs={len(self.eqs)})"

    # -- point queries ------------------------------------------------------

    def contains(self, x, strict: bool = False) -> bool:
        """Inside when ``_tight_mask`` is not None; strictly when it is 0."""
        num, den = _over_common(tuple(x))
        if len(num) != self.ambient_dim:
            raise DimMismatch("point has wrong dimension")
        mask = self._tight_mask(num, den)
        return mask is not None and not (strict and mask)

    def feasible_point(self):
        """The first vertex, or None when the polyhedron is empty."""
        verts = self.vrep()[0]
        return verts[0] if verts else None

    def is_empty(self) -> bool:
        """No vertex once the lineality space is sliced off."""
        return not self.vrep()[0]

    def interior_point(self):
        """The centroid of the vertices plus the sum of the rays when
        ``has_interior``, else None.

        Every inequality is then slack at some vertex or along some ray, so
        it holds strictly at that point.
        """
        if not self.has_interior():
            return None
        verts, rays, _ = self.vrep()
        return tuple(sum(c) / len(verts) + sum(r[i] for r in rays)
                     for i, c in enumerate(zip(*verts)))

    def has_interior(self) -> bool:
        """Whether some point satisfies every inequality strictly, decided
        without an LP.

        A nonempty polyhedron has a point where every inequality that is not
        tight on all of it holds strictly, so an interior point exists iff
        every equality is 0 = 0 and no inequality is tight at every vertex
        and every ray (this covers 0·x >= 0 and lower dimension).
        """
        verts, rays, _ = self.vrep()
        return bool(verts) and self._tight_on(range(len(verts)), range(len(rays))) == 0 and \
            all(o == 0 and not any(n) for n, o in self.eqs)

    # -- V-representation, incidences and the face lattice -------------------

    def vrep(self):
        """(vertices, rays, lines): P = conv(vertices) + cone(rays) + span(lines).

        Rays and lines are primitive integer vectors; vertices are rational.
        Empty polyhedron yields ((), (), ()).
        """
        return self._incidences[0]

    @cached_property
    def _incidences(self):
        """(vrep, vertex masks, ray masks, vertex keys).

        Bit j of a vertex's mask is set when inequality j is tight there, and
        of a ray's mask when the ray lies on the hyperplane of inequality j.
        The lineality space is the integer kernel of all normals.  After
        slicing it off, one scan reads the cone {(x, t) : q·n·x >= p·t, t >= 0}
        over P (Minkowski-Weyl by homogenization).  Each subsystem of its rows
        (q·n, p) and the row t = 0, taken with the equalities and lines, is
        eliminated fraction-free on the x columns, t's column carried along.
        One whose kernel is a line with t != 0 (rank D) gives a vertex, keyed
        in lowest terms with a positive denominator; one that holds the row
        t = 0 and whose kernel is a line (rank D - 1) gives a ray, and every
        extreme ray comes from one.  P has rays only when it has a vertex.
        """
        D, rows, tight_mask = self.ambient_dim, self._rows, self._tight_mask
        nontrivial = [n for n, _ in self.ineqs + self.eqs if any(n)]
        lines = () if rank(nontrivial) == D else \
            tuple(primitive_vector(l) for l in integer_kernel(nontrivial, D))
        # a row (a, b) reads a·x = b·t; a pivot in column D is 0 = c != 0
        base, pivots = _int_echelon([*self._eq_rows, *(l + (0,) for l in lines)], D + 1)
        base, cone = base[:len(pivots)], (*rows, (0,) * D + (1,))  # the last row is t = 0

        verts, rays = {}, {}  # vertex key -> tight mask or None; primitive ray -> tight mask
        for subset in combinations(range(len(cone)), D - len(pivots)) if D not in pivots else ():
            red, piv = _int_echelon(base + [cone[i] for i in subset], D)
            ray = len(rows) in subset  # t = 0
            if len(piv) != D - ray:
                continue  # the kernel is not one line
            den = math.lcm(*(red[r][c] for r, c in enumerate(piv)))
            if not ray:  # t != 0: the vertex red[c][D] / red[c][c]
                num = [red[c][D] * den // red[c][c] for c in range(D)]
                g = math.gcd(den, *num)
                key = (tuple(x // g for x in num), den // g)
                if key not in verts:
                    verts[key] = tight_mask(*key)
                continue
            free = next(c for c in range(D) if c not in piv)
            d = [0] * D
            d[free] = den
            for r, c in enumerate(piv):
                d[c] = -red[r][free] * den // red[r][c]
            d = primitive_vector(tuple(d))
            for cand in (d, tuple(-x for x in d)):
                mask = tight_mask(cand, 0)
                if mask is not None:
                    rays[cand] = mask
                    break
        verts = sorted((tuple(Fraction(x, den) for x in num), (num, den), mask)
                       for (num, den), mask in verts.items() if mask is not None)
        rays = sorted(rays.items()) if verts else []

        vrep = (tuple(v for v, _, _ in verts), tuple(r for r, _ in rays), lines) if verts \
            else ((), (), ())
        return (vrep, tuple(m for _, _, m in verts), tuple(m for _, m in rays),
                tuple(key for _, key, _ in verts))

    def _tight_mask(self, point, scale):
        """Tight inequalities at point/scale (a direction when scale is 0), or
        None outside the polyhedron (its recession cone)."""
        if any(_dot(row, point) != row[-1] * scale for row in self._eq_rows):
            return None
        mask = 0
        for j, row in enumerate(self._rows):
            s = _dot(row, point) - row[-1] * scale
            if s < 0:
                return None
            if s == 0:
                mask |= 1 << j
        return mask

    @cached_property
    def _vertex_id(self):
        """Vertex tight mask -> vertex id.  A point of the polyhedron with a
        vertex's mask is that vertex modulo the lineality space."""
        return {m: i for i, m in enumerate(self._incidences[1])}

    @cached_property
    def _ray_id(self):
        """Ray tight mask -> ray id.  A direction of the recession cone with a
        ray's mask is a positive multiple of that ray modulo the lines."""
        return {m: i for i, m in enumerate(self._incidences[2])}

    def _tight_on(self, vert_ids, ray_ids) -> int:
        """Mask of the inequalities tight at every given vertex and ray."""
        _, vmasks, rmasks, _ = self._incidences
        mask = (1 << len(self.ineqs)) - 1
        for i in vert_ids:
            mask &= vmasks[i]
        for i in ray_ids:
            mask &= rmasks[i]
        return mask

    def _face_dim(self, tight: int) -> int:
        """D - rank(equalities + inequalities in the mask ``tight``), kept per mask."""
        if tight not in self._dims:
            rows = [n for j, (n, _) in enumerate(self.ineqs) if tight >> j & 1]
            self._dims[tight] = self.ambient_dim - rank([n for n, _ in self.eqs] + rows)
        return self._dims[tight]

    def dim(self) -> int:
        """Dimension of the polyhedron, -1 if empty."""
        verts, rays, _ = self.vrep()
        if not verts:
            return -1
        return self._face_dim(self._tight_on(range(len(verts)), range(len(rays))))

    @cached_property
    def _faces(self):
        """The face lattice: ``proper_faces`` by (vertex ids, ray ids)."""
        return {(f.vert_ids, f.ray_ids): f for f in self.proper_faces()}

    def proper_faces(self):
        """All proper nonempty faces, as _PFace records ordered by (dim, vertex
        ids, ray ids): the intersections of the per-inequality incidence sets
        (tight vertices, tight rays) that keep a vertex, minus P itself.  A
        face's dimension is the lineality dimension plus its height in this
        graded lattice, kept in ``_dims`` by tight mask.  Computed on each
        call; ``_faces`` keeps them."""
        (verts, rays, lines), vmasks, rmasks, _ = self._incidences
        gens = set()
        for j in range(len(self.ineqs)):
            tv = sum(1 << i for i, m in enumerate(vmasks) if m >> j & 1)
            if tv:
                gens.add((tv, sum(1 << i for i, m in enumerate(rmasks) if m >> j & 1)))
        found, frontier = set(gens), list(gens)
        while frontier:
            new = []
            for tv, tr in frontier:
                for gv, gr in gens:
                    key = (tv & gv, tr & gr)
                    if key[0] and key not in found:
                        found.add(key)
                        new.append(key)
            frontier = new
        found.discard(((1 << len(verts)) - 1, (1 << len(rays)) - 1))
        height = {}  # each facet of a face is the face's intersection with a generator
        for tv, tr in sorted(found, key=lambda k: k[0].bit_count() + k[1].bit_count()):
            height[(tv, tr)] = max((height[(tv & gv, tr & gr)] + 1 for gv, gr in gens
                                    if tv & gv and (tv & gv, tr & gr) != (tv, tr)), default=0)
        faces = []
        for (tv, tr), h in height.items():
            vert_ids = frozenset(i for i in range(len(verts)) if tv >> i & 1)
            ray_ids = frozenset(i for i in range(len(rays)) if tr >> i & 1)
            self._dims[self._tight_on(vert_ids, ray_ids)] = len(lines) + h
            faces.append(_PFace(vert_ids=vert_ids, ray_ids=ray_ids, dim=len(lines) + h))
        # a ray's own mask leaves one dimension more than the lines, all rows the lines
        self._dims.update({m: len(lines) + 1 for m in rmasks})
        if verts:
            self._dims[(1 << len(self.ineqs)) - 1] = len(lines)
        return tuple(sorted(faces, key=lambda f: (f.dim, sorted(f.vert_ids), sorted(f.ray_ids))))


class _PFace(FrozenRecord):
    """A face of a polyhedron, identified by its tight vertices and rays."""

    __slots__ = ("vert_ids", "ray_ids", "dim")


# ---------------------------------------------------------------------------
# faces, inclusions, complexes
# ---------------------------------------------------------------------------

class Face(FrozenRecord):
    """A face of a complex: an abstract cell with a chart in R^rank."""

    __slots__ = ("id", "rank", "chart", "label")
    def __init__(self, id: str, rank: int, chart: Polyhedron, label: str = ""):
        self.id, self.rank, self.chart, self.label = id, rank, chart, label


class FaceInclusion(Offset, FrozenRecord):
    """Integral affine embedding of a sub-face chart into a super-face chart."""

    __slots__ = ("sub", "super", "linear", "num", "den")
    def __init__(self, sub: str, super: str, linear: tuple, offset: tuple, den: int = 1):
        self.sub, self.super = sub, super
        self.linear = mat_rows(linear)  # super_rank x sub_rank integer matrix
        self.num, self.den = _over_common(tuple(offset), den)  # super_rank numerators

    def apply(self, x):
        return _affine_at(self.linear, self.num, self.den, x)

    def pull_back(self, linear, num, den: int):
        """The affine map x -> linear·x + num/den on the super chart, composed
        with this inclusion: (linear·self.linear, numerators, denominator),
        the offset in lowest terms, so equal maps give equal triples."""
        return mat_mul(linear, self.linear), *_affine_over(linear, num, den, self.num, self.den)


class PolyhedralComplex:
    """Finite face set glued along integral affine inclusions.

    Instances are treated as immutable once built; all queries are read-only.
    Faces with equal charts share the first such chart, so chart geometry
    (``Polyhedron``'s cached attributes) is computed once per distinct chart;
    ``star`` keeps its directions, not its stars, in ``_directions``.
    Each face's sub- and super-face ids are indexed once, in inclusion order.
    """

    def __init__(self, faces: Sequence[Face], inclusions: Sequence[FaceInclusion],
                 maximal_faces: Sequence[str] | None = None):
        self.faces = {}
        charts = {}  # chart -> the first equal chart
        for f in faces:
            if f.id in self.faces:
                raise ValueError(f"duplicate face id {f.id!r}")
            chart = charts.setdefault(f.chart, f.chart)
            self.faces[f.id] = f if chart is f.chart else Face(f.id, f.rank, chart, f.label)
        self.inclusions = {}
        self._subs = {fid: [] for fid in self.faces}  # face id -> sub-face ids
        self._supers = {fid: [] for fid in self.faces}  # face id -> super-face ids
        for inc in inclusions:
            if inc.sub not in self.faces or inc.super not in self.faces:
                raise UnknownFace(f"inclusion {inc.sub!r} -> {inc.super!r} references unknown face")
            key = (inc.sub, inc.super)
            if key in self.inclusions:
                raise ValueError(f"duplicate inclusion {key}")
            sub_rank = self.faces[inc.sub].rank
            super_rank = self.faces[inc.super].rank
            if len(inc.linear) != super_rank or any(len(r) != sub_rank for r in inc.linear) \
                    or len(inc.num) != super_rank:
                raise DimMismatch(f"inclusion {key} has affine data of wrong shape")
            self.inclusions[key] = inc
            self._subs[inc.super].append(inc.sub)
            self._supers[inc.sub].append(inc.super)
        if maximal_faces is None:
            maximal_faces = [fid for fid, sups in self._supers.items() if not sups]
        self.maximal_faces = tuple(maximal_faces)
        self._directions = {}  # see star

    def face(self, fid: str) -> Face:
        try:
            return self.faces[fid]
        except KeyError:
            raise UnknownFace(f"unknown face {fid!r}") from None

    def subface_ids(self, fid: str):
        self.face(fid)
        return sorted(self._subs[fid])

    def cofacet_inclusions(self, fid: str):
        """Inclusions of ``fid`` into faces of rank exactly one higher."""
        r = self.face(fid).rank
        return [self.inclusions[(fid, t)] for t in sorted(self._supers[fid])
                if self.faces[t].rank == r + 1]


# ---------------------------------------------------------------------------
# validation (Definition-style axioms as report entries)
# ---------------------------------------------------------------------------

class Violation(FrozenRecord):
    __slots__ = ("axiom", "subject", "message")

    def __str__(self):
        return f"AXIOM({self.axiom}) violated at {self.subject}: {self.message}"


class ValidationReport(Record):
    __slots__ = ("violations",)
    def __init__(self, violations: list | None = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom, subject, message):
        self.violations.append(Violation(axiom, str(subject), message))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def _mapped(sub_chart: Polyhedron, inc: FaceInclusion):
    """The images through ``inc`` of ``sub_chart``'s vertices, as (numerators,
    denominator), rays and lines (primitive: one mapped to 0 raises)."""
    (_, rays, lines), _, _, keys = sub_chart._incidences
    image = lambda vs: [primitive_vector(tuple(_dot(row, v) for row in inc.linear)) for v in vs]
    return [_affine_over(inc.linear, inc.num, inc.den, *k) for k in keys], image(rays), image(lines)


def _image(sub_chart: Polyhedron, chart: Polyhedron, inc: FaceInclusion):
    """The image of ``sub_chart`` through ``inc`` as (vertex ids, ray ids) of
    ``chart``, matched by tight masks (so modulo the chart's lines; None for
    a generator that is not one of the chart's), and the image's lines."""
    points, rays, lines = _mapped(sub_chart, inc)
    return (frozenset(chart._vertex_id.get(chart._tight_mask(*p)) for p in points),
            frozenset(chart._ray_id.get(chart._tight_mask(r, 0)) for r in rays)), lines


def validate_complex(c: PolyhedralComplex) -> ValidationReport:
    """Check the gluing axioms of an abstract polyhedral complex.

    Axioms checked, one report entry per violation:
      (2) each chart is a nonempty full-dimensional polyhedron in R^rank;
      (5) every inclusion is injective onto a saturated sublattice and its
          image is a proper face of the super chart;
      (3) every proper face of every chart is the image of exactly one
          sub-face (combinatorial disjoint-interior cover);
      (4) chart-level intersections of shared sub-faces agree across faces;
      plus partial-order sanity (antisymmetry, composition closure) and
      connectivity.

    Chart queries read the charts' cached incidences and solve no LP.  Only
    related pairs are visited, through the complex's sub- and super-face
    index; violations come out in a fixed order (faces and inclusions in
    stored order, face pairs in sorted order).  Saturation and images
    (``_image``, matched modulo the super chart's lines) are decided once
    per call and key (``faults``, ``images``), and the meet of two sub-faces
    once per face that holds both (``meets``, by sub-face pair), for axiom 4.
    """
    report = ValidationReport()
    for f in c.faces.values():
        if f.chart.ambient_dim != f.rank:
            report.add("2", f.id, f"chart lives in R^{f.chart.ambient_dim} but rank is {f.rank}")
            continue
        if f.chart.is_empty():
            report.add("2", f.id, "chart is empty")
        elif f.rank > 0 and not f.chart.has_interior():
            report.add("2", f.id, "chart has empty interior (degenerate)")

    # order sanity
    for (a, b) in c.inclusions:
        if a == b:
            report.add("order", f"{a}->{b}", "reflexive inclusion stored explicitly")
        elif (b, a) in c.inclusions:
            report.add("order", f"{a}->{b}", "inclusion relation is not antisymmetric")
        if c.faces[a].rank >= c.faces[b].rank:
            report.add("order", f"{a}->{b}", "sub-face rank must be smaller than super-face rank")
    composites = {}  # (outer map, inner map) -> (linear, num, den) of the composite
    for (a, b), inc_ab in c.inclusions.items():
        for d in c._supers[b]:
            if a == d:
                continue
            if (a, d) not in c.inclusions:
                report.add("order", f"{a}->{d}", f"missing composite of {a}->{b} and {b}->{d}")
                continue
            inc_bd, inc_ad = c.inclusions[(b, d)], c.inclusions[(a, d)]
            key = (inc_bd.linear, inc_bd.num, inc_bd.den, inc_ab.linear, inc_ab.num, inc_ab.den)
            if key not in composites:
                composites[key] = inc_ab.pull_back(inc_bd.linear, inc_bd.num, inc_bd.den)
            if (inc_ad.linear, inc_ad.num, inc_ad.den) != composites[key]:
                report.add("order", f"{a}->{d}", "stored inclusion differs from the composite")

    # axiom 5 + image faces, as (vertex ids, ray ids) of the super chart
    image_face = {}  # (sub, super) -> (vertex ids, ray ids) of a proper face, or None
    faults = {}  # linear part -> axiom-5 message, or None when saturated
    images = {}  # (sub chart, super chart, linear, num, den) -> face key, or None
    for (a, b), inc in c.inclusions.items():
        fault = faults.get(inc.linear, ...)
        if fault is ...:
            try:
                fault = None if is_saturated([ivec(col) for col in zip(*inc.linear)],
                                             len(inc.linear)) else "lattice image is not saturated"
            except DependentGenerators:
                fault = "inclusion linear part is not injective"
            faults[inc.linear] = fault
        if fault:
            report.add("5", f"{a}->{b}", fault)
            continue
        sub_chart, chart = c.faces[a].chart, c.faces[b].chart
        (_, rays, lines), _, _, keys = chart._incidences
        whole = (frozenset(range(len(keys))), frozenset(range(len(rays))))
        memo = (sub_chart, chart, inc.linear, inc.num, inc.den)
        key = images.get(memo, ...)
        if key is ...:
            key, img_lines = _image(sub_chart, chart, inc)
            # a face, and the image lines span the chart's lineality space
            key = images[memo] = key if (key == whole or key in chart._faces) and (
                not (img_lines or lines)
                or rank(img_lines) == rank(lines) == rank([*img_lines, *lines])) else None
        image_face[(a, b)] = key
        if key == whole:
            report.add("3", f"{a}->{b}", "image equals the whole super chart")
            image_face[(a, b)] = None
        elif key is None:
            report.add("5", f"{a}->{b}", "image of sub chart is not a face of the super chart")

    # axiom 3: every proper face of a chart is covered exactly once
    resolver = {}  # (face id, PFace key) -> sub id
    for fid, f in c.faces.items():
        if f.chart.ambient_dim != f.rank or f.chart.is_empty():
            continue
        by_face = {}
        for sub in c.subface_ids(fid):
            key = image_face.get((sub, fid))
            if key is not None:
                by_face.setdefault(key, []).append(sub)
        for key, pf in f.chart._faces.items():
            owners = by_face.get(key, [])
            if len(owners) == 1:
                resolver[(fid, key)] = owners[0]
            elif not owners:
                report.add("3", fid, f"chart face of dim {pf.dim} is not the image of any sub-face")
            else:
                report.add("3", fid, f"chart face of dim {pf.dim} is covered by {sorted(owners)}")

    # axiom 4: shared sub-face intersections agree across faces.  In a face w,
    # the meet of two sub-faces with image faces is its owner, "unknown", or
    # None when their images share no vertex; every two faces holding both
    # sub-faces must agree on it.
    meets = {}  # (v1, v2) -> [(w, meet in w's chart)] in face id order
    for w in sorted(c._subs):
        imaged = [(v, image_face[(v, w)]) for v in sorted(c._subs[w])
                  if image_face.get((v, w)) is not None]
        for (v1, (vs1, rs1)), (v2, (vs2, rs2)) in combinations(imaged, 2):
            shared = (vs1 & vs2, rs1 & rs2)
            meet = resolver.get((w, shared), "unknown") if shared[0] else None
            meets.setdefault((v1, v2), []).append((w, meet))
    clashes = [(w1, w2, v1, v2, m1, m2) for (v1, v2), held in meets.items()
               for (w1, m1), (w2, m2) in combinations(held, 2) if m1 != m2]
    for w1, w2, v1, v2, m1, m2 in sorted(clashes, key=lambda clash: clash[:4]):
        report.add("4", f"{w1} & {w2}", f"intersection of sub-faces {v1},{v2} "
                   f"resolves to {m1} in one chart and {m2} in the other")

    # connectivity
    forest = _forest(list(c.faces), [(key, *key) for key in c.inclusions])
    roots = [i for i, (_, parent, _, _) in enumerate(forest) if parent is None]
    if len(roots) > 1:  # name the least face outside the first face's tree
        report.add("connectivity", min(fid for fid, _, _, _ in forest[roots[1]:]),
                   "complex is not connected")
    return report


# ---------------------------------------------------------------------------
# Star(W) and harmonicity
# ---------------------------------------------------------------------------

class StarData(FrozenRecord):
    """Primitive directions into the codimension-one cofacets of a face."""

    __slots__ = ("face",
                 "directions")  # ((cofacet id, primitive vector in N_cofacet), ...)


def star(c: PolyhedralComplex, w: str) -> StarData:
    """Star of a face: one primitive generator of N_cofacet / N_face per cofacet.

    The generator is oriented into the cofacet chart, i.e. the cofacet lies
    on the nonnegative side of the facet supporting the embedded face: the
    first stored inequality of the cofacet chart that is tight on the image
    and not zero on the generator (``_direction`` reads the cofacet chart's
    rows alone), so no LP is solved; the complex keeps the directions.
    Assumes the complex is valid: an image vertex or ray not the cofacet chart's raises.
    """
    face = c.face(w)
    dirs = []
    for inc in c.cofacet_inclusions(w):
        if face.chart.is_empty() if face.rank == 0 else not face.chart.has_interior():
            raise TropModuliError(f"face {w!r} has no interior point")
        key = (face.chart, c.faces[inc.super].chart, inc.linear, inc.num, inc.den)
        e = c._directions.get(key, ...)
        if e is ...:
            e = c._directions[key] = _direction(*key[:2], inc)
        if e is None:
            raise TropModuliError(
                f"image of {w!r} is not a facet of {inc.super!r}; validate the complex first")
        dirs.append((inc.super, e))
    return StarData(face=w, directions=tuple(dirs))


def _direction(sub_chart: Polyhedron, chart: Polyhedron, inc: FaceInclusion):
    """The generator of N_chart / N_sub_chart that ``star`` takes, oriented
    into ``chart``, or None when the image of ``sub_chart`` is no facet: column
    r - 1 of u^-1 for the Smith form u·linear·v = s, the one solution of
    u·e = (0, ..., 0, 1), which is integral because u is unimodular.  Each
    image vertex must be a vertex of ``chart`` (a ``_tight_mask`` of the lineality
    dimension) and each image ray a ray (one more); their masks AND to its tight set."""
    r = len(inc.linear)
    e = (1,)
    if r > 1:
        u, _, _ = smith_normal_form(inc.linear)
        red, _ = _int_echelon([row + (int(i == r - 1),) for i, row in enumerate(u)], r)
        e = tuple(row[r] // row[i] for i, row in enumerate(red))
        assert all(row[r] % row[i] == 0 for i, row in enumerate(red)), "u is not unimodular"
    points, rays, _ = _mapped(sub_chart, inc)
    tight = full = (1 << len(chart.ineqs)) - 1
    for i, m in enumerate(chart._tight_mask(*p) for p in [*points, *((v, 0) for v in rays)]):
        if m is None or chart._face_dim(m) != chart._face_dim(full) + (i >= len(points)):
            return None
        tight &= m
    for j, (n, _) in enumerate(chart.ineqs):
        d = _dot(n, e) if tight >> j & 1 else 0
        if d:
            return e if d > 0 else tuple(-x for x in e)
    return None


class PIAMap(FrozenRecord):
    """Piecewise integral affine map: one affine map per face chart."""

    __slots__ = ("source", "target_dim",
                 "per_face")  # face id -> (linear rows, offset)

    def face_map(self, fid: str):
        if fid not in self.per_face:
            raise UnknownFace(f"no map stored for face {fid!r}")
        return self.per_face[fid]


class Harmonicity(str, Enum):
    HARMONIC = "harmonic"
    QUASI_HARMONIC_ONLY = "quasi_harmonic_only"
    NOT_QUASI_HARMONIC = "not_quasi_harmonic"


class HarmonicityResult(FrozenRecord):
    __slots__ = ("verdict",  # Harmonicity
                 "certificate",  # positive integers, one per star direction, or None
                 "derivatives",  # images of the star directions
                 "star")


def harmonicity_at(m: PIAMap, w: str) -> HarmonicityResult:
    """Trichotomy at a face: harmonic / quasi-harmonic only / not quasi-harmonic.

    Computes the derivative of the map along each star direction and tests
    whether the plain sum (resp. some positive integer combination) lies in
    the span of the image of the face: ``_span_basis`` of the face map's
    columns (charts are full-dimensional).
    """
    sd = star(m.source, w)
    if not sd.directions:
        raise NoCofacets(f"face {w!r} has no codimension-one cofacets")
    derivs = []
    for cofacet, e in sd.directions:
        lin, _ = m.face_map(cofacet)
        if any(len(row) != len(e) for row in lin):
            raise DimMismatch(f"map on {cofacet!r} has a row of width other than {len(e)}")
        derivs.append(tuple(_dot(row, e) for row in lin))
    basis = _span_basis(tuple(zip(*m.face_map(w)[0])))
    if any(len(v) != m.target_dim for v in (*derivs, *basis)):
        raise DimMismatch(f"a derivative or image row has length other than {m.target_dim}")
    total = tuple(map(sum, zip(*derivs)))
    if rank([*basis, total]) == len(basis):
        return HarmonicityResult(Harmonicity.HARMONIC, (1,) * len(derivs), tuple(derivs), sd)
    cert = strict_positive_combination(derivs, basis)
    if cert is not None:
        return HarmonicityResult(Harmonicity.QUASI_HARMONIC_ONLY, tuple(cert), tuple(derivs), sd)
    return HarmonicityResult(Harmonicity.NOT_QUASI_HARMONIC, None, tuple(derivs), sd)


# ---------------------------------------------------------------------------
# strictly semistable pairs and their skeletons
# ---------------------------------------------------------------------------

class Stratum(FrozenRecord):
    __slots__ = ("id",
                 "verticals",  # component ids, |verticals| = a + 1 >= 1
                 "horizontals", "length")  # length: Fraction


class SemistablePairData(FrozenRecord):
    """Combinatorial shadow of a strictly semistable pair.

    ``order`` lists pairs (S, T) meaning S <= T in the closure order on
    strata (S is the deeper stratum, so its polyhedron is the bigger one).
    """

    __slots__ = ("vertical_components", "horizontal_components", "strata", "order")


def _check_pair_data(d: SemistablePairData):
    """The strata by id and each stratum's up-set (the T with S <= T in the
    reflexive-transitive closure of the order pairs), once the data is
    consistent.  Each up-set comes from one depth-first walk over the order
    pairs and is checked in sorted order, so the first inconsistency found
    does not depend on hash order."""
    comp = set(d.vertical_components) | set(d.horizontal_components)
    if len(comp) != len(d.vertical_components) + len(d.horizontal_components):
        raise InconsistentStrata("component ids are not distinct")
    strata = {}
    for s in d.strata:
        if s.id in strata:
            raise InconsistentStrata(f"duplicate stratum id {s.id!r}")
        strata[s.id] = s
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
    above = {sid: [] for sid in strata}
    for a, b in d.order:
        if a not in strata or b not in strata:
            raise InconsistentStrata(f"order pair ({a!r}, {b!r}) references unknown stratum")
        above[a].append(b)
    ups = {}
    for sid in strata:
        up, stack = {sid}, [sid]
        while stack:
            for b in above[stack.pop()]:
                if b not in up:
                    up.add(b)
                    stack.append(b)
        ups[sid] = up
    support = {sid: (frozenset(s.verticals), frozenset(s.horizontals))
               for sid, s in strata.items()}
    for a, up in ups.items():
        sa, (va, ha) = strata[a], support[a]
        supports = {}
        for b in sorted(up):
            sb, key = strata[b], support[b]
            if a != b and a in ups[b]:
                raise InconsistentStrata(f"order cycle through {a!r} and {b!r}")
            if not key[0] <= va or not key[1] <= ha:
                raise InconsistentStrata(
                    f"{a!r} <= {b!r} but supports do not shrink")
            if a != b and key == support[a]:
                raise InconsistentStrata(
                    f"comparable strata {a!r}, {b!r} share the same support")
            if key in supports and supports[key] != b:
                raise InconsistentStrata(
                    f"strata {supports[key]!r} and {b!r} above {a!r} share a support")
            supports[key] = b
            if a != b and len(sb.verticals) >= 2 and sb.length != sa.length:
                raise InconsistentStrata(
                    f"comparable strata {a!r}, {b!r} share a vertical pair "
                    f"but have lengths {_rat_str(sa.length)} != {_rat_str(sb.length)}")
    return strata, ups


def _chart_coords(s: Stratum):
    """(dropped vertical, chart coordinates, rows) of a stratum: the first
    sorted vertical is dropped, the coordinates are the other sorted verticals
    and then the sorted horizontals, and ``rows`` maps each coordinate to its
    unit row and the dropped vertical to minus the other verticals' sum."""
    verts = sorted(s.verticals)
    coords = verts[1:] + sorted(s.horizontals)
    rows = {x: tuple(int(y == x) for y in coords) for x in coords}
    rows[verts[0]] = tuple(-int(i < len(verts) - 1) for i in range(len(coords)))
    return verts[0], coords, rows


def build_skeleton(d: SemistablePairData) -> PolyhedralComplex:
    """Skeleton complex of semistable pair data: one face per stratum.

    The chart of a stratum with a+1 verticals, b horizontals and length nu
    is the simplex-times-orthant {z >= 0, sum z <= nu} x R^b_{>=0} in the
    coordinates obtained by dropping the first (sorted) vertical; for
    comparable strata the shallower chart embeds as the face where the
    missing coordinates vanish, each deeper coordinate read by its row in
    the shallower chart.  Each stratum's coordinates and rows are derived
    once; the complex shares equal charts.
    """
    strata, ups = _check_pair_data(d)
    derived = {sid: _chart_coords(s) for sid, s in strata.items()}
    faces = []
    for sid in sorted(strata):
        s = strata[sid]
        a = len(s.verticals) - 1
        dropped, coords, rows = derived[sid]
        simplex = [(rows[dropped], -s.length)] if a > 0 else []
        chart = Polyhedron(len(coords), [(rows[x], 0) for x in coords[:a]] + simplex
                           + [(rows[x], 0) for x in coords[a:]])
        faces.append(Face(sid, len(coords), chart, f"V={','.join(sorted(s.verticals))}"))
    inclusions = []
    for a in sorted(ups):
        sup_coords, sup = derived[a][1], strata[a]
        for b in sorted(ups[a]):
            if a != b:
                dropped, coords, rows = derived[b]
                zero = (0,) * len(coords)
                inclusions.append(FaceInclusion(
                    b, a, tuple(rows.get(x, zero) for x in sup_coords),
                    tuple(sup.length.numerator if x == dropped else 0 for x in sup_coords),
                    sup.length.denominator))
    return PolyhedralComplex(faces, inclusions)  # maximal faces: the minimal strata
