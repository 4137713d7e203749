"""Shared builders for the test suite."""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from math import lcm

from tropmoduli.errors import PointNotInComplex
from tropmoduli.family import (
    AffineFn,
    AffineMapN,
    Contraction,
    FaceCurveData,
    FamilyDatum,
    locate,
)
from tropmoduli.moduli import stratum
from tropmoduli.polyhedral import (
    Face,
    FaceInclusion,
    PIAMap,
    Polyhedron,
    PolyhedralComplex,
    SemistablePairData,
    Stratum,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph, extended_degree


def point_complex(fid="P0"):
    return PolyhedralComplex([Face(id=fid, rank=0, chart=Polyhedron(0))], [])


def segment_complex(length=1, ids=("V0", "V1", "E")):
    v0, v1, e = ids
    seg = Polyhedron(1, [((1,), 0), ((-1,), -Fraction(length))])
    pt = Polyhedron(0)
    faces = [Face(v0, 0, pt), Face(v1, 0, pt), Face(e, 1, seg)]
    incs = [
        FaceInclusion(sub=v0, super=e, linear=((),), offset=(Fraction(0),)),
        FaceInclusion(sub=v1, super=e, linear=((),), offset=(Fraction(length),)),
    ]
    return PolyhedralComplex(faces, incs)


def fan_complex(k, origin="O"):
    """k abstract rays glued at a common vertex."""
    ray = lambda: Polyhedron(1, [((1,), 0)])
    faces = [Face(origin, 0, Polyhedron(0))]
    incs = []
    for i in range(k):
        rid = f"R{i}"
        faces.append(Face(rid, 1, ray()))
        incs.append(FaceInclusion(sub=origin, super=rid, linear=((),), offset=(Fraction(0),)))
    return PolyhedralComplex(faces, incs)


def fan_map(c, directions):
    """PIAMap on a fan: ray i maps with derivative directions[i], origin to 0."""
    dim = len(directions[0]) if directions else 2
    per_face = {"O": (tuple(() for _ in range(dim)), (Fraction(0),) * dim)}
    for i, d in enumerate(directions):
        per_face[f"R{i}"] = (tuple((x,) for x in d), (Fraction(0),) * dim)
    return PIAMap(source=c, target_dim=dim, per_face=per_face)


def quadrant_complex():
    pt = Polyhedron(0)
    ray = Polyhedron(1, [((1,), 0)])
    quad = Polyhedron(2, [((1, 0), 0), ((0, 1), 0)])
    faces = [Face("O", 0, pt), Face("X", 1, ray), Face("Y", 1, ray), Face("Q", 2, quad)]
    incs = [
        FaceInclusion("O", "X", ((),), (Fraction(0),)),
        FaceInclusion("O", "Y", ((),), (Fraction(0),)),
        FaceInclusion("O", "Q", ((), ()), (Fraction(0), Fraction(0))),
        FaceInclusion("X", "Q", ((1,), (0,)), (Fraction(0), Fraction(0))),
        FaceInclusion("Y", "Q", ((0,), (1,)), (Fraction(0), Fraction(0))),
    ]
    return PolyhedralComplex(faces, incs)


def segment_pair_data(length=1):
    return SemistablePairData(
        vertical_components=("D0", "D1"),
        horizontal_components=(),
        strata=(
            Stratum("S01", ("D0", "D1"), (), Fraction(length)),
            Stratum("T0", ("D0",), (), Fraction(length)),
            Stratum("T1", ("D1",), (), Fraction(length)),
        ),
        order=(("S01", "T0"), ("S01", "T1")),
    )


def ray_pair_data():
    return SemistablePairData(
        vertical_components=("D0",),
        horizontal_components=("H0",),
        strata=(
            Stratum("S", ("D0",), ("H0",), Fraction(1)),
            Stratum("T", ("D0",), (), Fraction(1)),
        ),
        order=(("S", "T"),),
    )


def triangle_pair_data(length=1):
    l = Fraction(length)
    return SemistablePairData(
        vertical_components=("D0", "D1", "D2"),
        horizontal_components=(),
        strata=(
            Stratum("Sall", ("D0", "D1", "D2"), (), l),
            Stratum("S01", ("D0", "D1"), (), l),
            Stratum("S02", ("D0", "D2"), (), l),
            Stratum("S12", ("D1", "D2"), (), l),
            Stratum("T0", ("D0",), (), l),
            Stratum("T1", ("D1",), (), l),
            Stratum("T2", ("D2",), (), l),
        ),
        order=(
            ("Sall", "S01"), ("Sall", "S02"), ("Sall", "S12"),
            ("S01", "T0"), ("S01", "T1"),
            ("S02", "T0"), ("S02", "T2"),
            ("S12", "T1"), ("S12", "T2"),
        ),
    )


def random_pair_data(rng: random.Random, max_components=5, max_strata=12):
    """A random valid SemistablePairData built from a simplicial-complex model.

    Maximal supports are random subsets of verticals with horizontal
    decorations; strata are all sub-supports, merged globally by support,
    so the exactly-one-cover condition holds by construction.  Lengths are
    unified along the comparability classes forced by shared vertical pairs.
    """
    nv = rng.randint(1, max(1, max_components - 1))
    nh = rng.randint(0, max_components - nv)
    verticals = tuple(f"D{i}" for i in range(nv))
    horizontals = tuple(f"H{i}" for i in range(nh))
    supports = set()
    used_verticals = set()
    for _ in range(rng.randint(1, 3)):
        vs = set(rng.sample(verticals, rng.randint(1, nv)))
        if used_verticals and not vs & used_verticals:
            vs.add(rng.choice(sorted(used_verticals)))  # keep the skeleton connected
        used_verticals |= vs
        hs = frozenset(h for h in horizontals if rng.random() < 0.4)
        supports.add((frozenset(vs), hs))
    return supported_pair_data(rng, verticals, horizontals, supports, max_strata)


def template_pair_data(rng: random.Random, nv: int, nh: int, maximal):
    """Pair data on the maximal supports ``maximal``, given as index sets.

    ``maximal`` lists (vertical indices, horizontal indices) pairs, as in the
    complex templates of the benchmark; the seed relabels the components and
    draws the lengths, so every pair of one template has the same face
    lattice.
    """
    verticals = [f"D{i}" for i in range(nv)]
    horizontals = [f"H{i}" for i in range(nh)]
    rng.shuffle(verticals)
    rng.shuffle(horizontals)
    supports = {(frozenset(verticals[i] for i in vs), frozenset(horizontals[i] for i in hs))
                for vs, hs in maximal}
    return supported_pair_data(rng, tuple(sorted(verticals)), tuple(sorted(horizontals)),
                               supports)


def supported_pair_data(rng: random.Random, verticals, horizontals, supports, max_strata=None):
    """Pair data whose strata are all sub-supports of ``supports``.

    Supports are merged globally, so the exactly-one-cover condition holds
    by construction.  Lengths are drawn once per comparability class forced
    by shared vertical pairs.  None when there are more than ``max_strata``
    strata.
    """
    # close under sub-supports (nonempty vertical part)
    closed = set()
    for vs, hs in supports:
        vlist = sorted(vs)
        hlist = sorted(hs)
        for vmask in range(1, 2 ** len(vlist)):
            sub_v = frozenset(v for i, v in enumerate(vlist) if vmask >> i & 1)
            for hmask in range(2 ** len(hlist)):
                sub_h = frozenset(h for i, h in enumerate(hlist) if hmask >> i & 1)
                closed.add((sub_v, sub_h))
    closed = sorted(closed, key=lambda s: (sorted(s[0]), sorted(s[1])))
    if max_strata is not None and len(closed) > max_strata:
        return None
    ids = {}
    for i, sup in enumerate(closed):
        ids[sup] = f"S{i}"
    order = []
    for a in closed:
        for b in closed:
            if a != b and b[0] <= a[0] and b[1] <= a[1]:
                order.append((ids[a], ids[b]))
    # unify lengths along comparable pairs sharing >= 2 verticals
    parent = {sup: sup for sup in closed}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for a in closed:
        for b in closed:
            if a != b and b[0] <= a[0] and b[1] <= a[1] and len(b[0]) >= 2:
                union(a, b)
    lengths = {}
    strata = []
    for sup in closed:
        root = find(sup)
        if root not in lengths:
            lengths[root] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        strata.append(Stratum(ids[sup], tuple(sorted(sup[0])), tuple(sorted(sup[1])),
                              lengths[root]))
    return SemistablePairData(verticals, horizontals, tuple(strata), tuple(order))


# ---------------------------------------------------------------------------
# family fixtures: the 4-valent cross wall and its resolutions
# ---------------------------------------------------------------------------

CROSS_DEGREE = ((1, 0), (0, 1), (-1, 0), (0, -1))


def cross_type():
    g = WeightedGraph((("v", 0),), (),
                      (("l0", "v"), ("l1", "v"), ("l2", "v"), ("l3", "v")))
    return CombinatorialType(
        g, {"l0": (1, 0), "l1": (0, 1), "l2": (-1, 0), "l3": (0, -1)}, 2)


def resolution_type(partner: int):
    """Resolution of the cross pairing leg 0 with leg ``partner`` (1, 2 or 3)."""
    slopes = dict(zip(("l0", "l1", "l2", "l3"), CROSS_DEGREE))
    side_a = {"l0", f"l{partner}"}
    legs = tuple((l, "va" if l in side_a else "vb") for l in ("l0", "l1", "l2", "l3"))
    total_a = tuple(sum(slopes[l][c] for l in sorted(side_a)) for c in range(2))
    slopes["e"] = tuple(-x for x in total_a)
    g = WeightedGraph((("va", 0), ("vb", 0)), (("e", "va", "vb"),), legs)
    return CombinatorialType(g, slopes, 2)


def const_positionN(values, rank):
    return AffineMapN(tuple((0,) * rank for _ in values), tuple(Fraction(v) for v in values))


def point_family():
    base = point_complex()
    g = WeightedGraph((("v", 0),), (), (("l0", "v"), ("l1", "v"), ("l2", "v")))
    t = CombinatorialType(g, {"l0": (1, 0), "l1": (0, 1), "l2": (-1, -1)}, 2)
    data = FaceCurveData(type=t, lengths={}, positions={"v": const_positionN((0, 0), 0)})
    return FamilyDatum(base=base, dim=2,
                       extended_degree=((1, 0), (0, 1), (-1, -1)),
                       face_data={"P0": data}, contractions={})


def ray_wall_family(partners=(1,), edge_offset=0):
    """Cross wall over the fan vertex; resolution ``partners[i]`` over ray i.

    The new edge has length t + edge_offset on each ray (offset 0 is the
    valid family; offset -1 reproduces the invalid variant).
    """
    base = fan_complex(len(partners))
    face_data = {
        "O": FaceCurveData(type=cross_type(), lengths={},
                           positions={"v": const_positionN((0, 0), 0)})
    }
    contractions = {}
    for i, partner in enumerate(partners):
        t = resolution_type(partner)
        s = t.slopes["e"]
        face_data[f"R{i}"] = FaceCurveData(
            type=t,
            lengths={"e": AffineFn((1,), Fraction(edge_offset))},
            positions={
                "va": const_positionN((0, 0), 1),
                "vb": AffineMapN(((s[0],), (s[1],)), (Fraction(0), Fraction(0))),
            },
        )
        contractions[("O", f"R{i}")] = Contraction(
            vertex_map={"va": "v", "vb": "v"}, edge_map={})
    return FamilyDatum(base=base, dim=2, extended_degree=CROSS_DEGREE,
                       face_data=face_data, contractions=contractions)


def two_ray_resolution_family(derivatives=((1, 0), (-1, 0))):
    """The same resolution type over both rays and the vertex, with constant
    edge length 1 and vertex position derivative ``derivatives[i]`` on ray i."""
    base = fan_complex(len(derivatives))
    t = resolution_type(1)
    s = t.slopes["e"]  # h(vb) = h(va) + 1 * s
    face_data = {
        "O": FaceCurveData(
            type=t,
            lengths={"e": AffineFn((), Fraction(1))},
            positions={"va": const_positionN((0, 0), 0),
                       "vb": const_positionN(s, 0)},
        )
    }
    contractions = {}
    for i, d in enumerate(derivatives):
        face_data[f"R{i}"] = FaceCurveData(
            type=t,
            lengths={"e": AffineFn((0,), Fraction(1))},
            positions={
                "va": AffineMapN(((d[0],), (d[1],)), (Fraction(0), Fraction(0))),
                "vb": AffineMapN(((d[0],), (d[1],)), (Fraction(s[0]), Fraction(s[1]))),
            },
        )
        contractions[("O", f"R{i}")] = Contraction(
            vertex_map={"va": "va", "vb": "vb"}, edge_map={"e": "e"})
    return FamilyDatum(base=base, dim=2, extended_degree=CROSS_DEGREE,
                       face_data=face_data, contractions=contractions)


def segment_family(derivative=(1, 0)):
    """The resolution type over a segment and both its end points, with
    constant edge length 1 and vertex positions moving by ``derivative``
    along the segment; both end points have a cofacet."""
    base = segment_complex()
    t = resolution_type(1)
    s = t.slopes["e"]
    d = derivative
    face_data = {
        "E": FaceCurveData(
            type=t,
            lengths={"e": AffineFn((0,), Fraction(1))},
            positions={"va": AffineMapN(((d[0],), (d[1],)), (Fraction(0), Fraction(0))),
                       "vb": AffineMapN(((d[0],), (d[1],)), (Fraction(s[0]), Fraction(s[1])))},
        )
    }
    contractions = {}
    for vid, at in (("V0", 0), ("V1", 1)):
        face_data[vid] = FaceCurveData(
            type=t,
            lengths={"e": AffineFn((), Fraction(1))},
            positions={"va": const_positionN((at * d[0], at * d[1]), 0),
                       "vb": const_positionN((at * d[0] + s[0], at * d[1] + s[1]), 0)},
        )
        contractions[(vid, "E")] = Contraction(
            vertex_map={"va": "va", "vb": "vb"}, edge_map={"e": "e"})
    return FamilyDatum(base=base, dim=2, extended_degree=CROSS_DEGREE,
                       face_data=face_data, contractions=contractions)


def path_family(derivatives, seg_lengths):
    """The resolution type over a path P0-E1-P1-...-Em-Pm of segments.

    Segment E_i has length ``seg_lengths[i-1]`` and the curve moves with
    derivative ``derivatives[i-1]`` along it; the edge length is constant 1.
    This is the shape of the benchmark's path family documents.
    """
    t = resolution_type(1)
    s = t.slopes["e"]
    pos = [(Fraction(0), Fraction(0))]
    for d, ln in zip(derivatives, seg_lengths):
        pos.append(tuple(p + ln * x for p, x in zip(pos[-1], d)))
    faces, incs, face_data, contractions = [], [], {}, {}
    for i, p in enumerate(pos):
        faces.append(Face(f"P{i}", 0, Polyhedron(0)))
        face_data[f"P{i}"] = FaceCurveData(
            type=t, lengths={"e": AffineFn((), Fraction(1))},
            positions={"va": const_positionN(p, 0),
                       "vb": const_positionN(tuple(x + y for x, y in zip(p, s)), 0)})
    for i, (d, ln) in enumerate(zip(derivatives, seg_lengths), start=1):
        eid, start = f"E{i}", pos[i - 1]
        faces.append(Face(eid, 1, Polyhedron(1, [((1,), 0), ((-1,), -Fraction(ln))])))
        lin = ((d[0],), (d[1],))
        face_data[eid] = FaceCurveData(
            type=t, lengths={"e": AffineFn((0,), Fraction(1))},
            positions={"va": AffineMapN(lin, start),
                       "vb": AffineMapN(lin, tuple(x + y for x, y in zip(start, s)))})
        for pid, off in ((f"P{i - 1}", Fraction(0)), (f"P{i}", Fraction(ln))):
            incs.append(FaceInclusion(sub=pid, super=eid, linear=((),), offset=(off,)))
            contractions[(pid, eid)] = Contraction(vertex_map={"va": "va", "vb": "vb"},
                                                   edge_map={"e": "e"})
    return FamilyDatum(base=PolyhedralComplex(faces, incs), dim=2, extended_degree=CROSS_DEGREE,
                       face_data=face_data, contractions=contractions)


def quadrant_family(length=((1, 2), Fraction(1, 2)), derivatives=((1, 0), (2, -1)),
                    start=(Fraction(1, 3), 0)):
    """The resolution type over ``quadrant_complex``: on Q the edge length is
    ``length[0]`` . (x, y) + ``length[1]`` and vertex va sits at
    x * derivatives[0] + y * derivatives[1] + start; the rays and the origin
    carry the restrictions."""
    t = resolution_type(1)
    s = t.slopes["e"]
    (a, b), c = length
    dx, dy = derivatives
    charts = {"Q": ((a, b), (dx, dy)), "X": ((a,), (dx,)), "Y": ((b,), (dy,)), "O": ((), ())}
    face_data = {}
    for fid, (lin, cols) in charts.items():
        va = tuple(tuple(col[k] for col in cols) for k in range(2))
        vb = tuple(tuple(x + s[k] * y for x, y in zip(va[k], lin)) for k in range(2))
        face_data[fid] = FaceCurveData(
            type=t, lengths={"e": AffineFn(lin, Fraction(c))},
            positions={"va": AffineMapN(va, tuple(Fraction(x) for x in start)),
                       "vb": AffineMapN(vb, tuple(Fraction(x) + c * y
                                                  for x, y in zip(start, s)))})
    base = quadrant_complex()
    contractions = {key: Contraction(vertex_map={"va": "va", "vb": "vb"}, edge_map={"e": "e"})
                    for key in base.inclusions}
    return FamilyDatum(base=base, dim=2, extended_degree=CROSS_DEGREE,
                       face_data=face_data, contractions=contractions)


def half_plane_family():
    """The resolution type over the half-plane H = {y >= 0}, whose chart has
    the line (1, 0), and over its boundary line L, included by x -> (x, 0).

    On H the edge length is y + 1, va sits at (x, 0) and vb at
    va + (y + 1) * slope, so the positions move along the line, along the
    ray (0, 1) and with the vertex; L carries the restrictions."""
    t = resolution_type(1)
    s = t.slopes["e"]
    base = PolyhedralComplex(
        [Face("L", 1, Polyhedron(1)), Face("H", 2, Polyhedron(2, [((0, 1), 0)]))],
        [FaceInclusion("L", "H", ((1,), (0,)), (0, 0))])
    face_data = {
        "H": FaceCurveData(
            type=t, lengths={"e": AffineFn((0, 1), 1)},
            positions={"va": AffineMapN(((1, 0), (0, 0)), (0, 0)),
                       "vb": AffineMapN(((1, s[0]), (0, s[1])), s)}),
        "L": FaceCurveData(
            type=t, lengths={"e": AffineFn((0,), 1)},
            positions={"va": AffineMapN(((1,), (0,)), (0, 0)),
                       "vb": AffineMapN(((1,), (0,)), s)}),
    }
    contractions = {("L", "H"): Contraction(vertex_map={"va": "va", "vb": "vb"},
                                            edge_map={"e": "e"})}
    return FamilyDatum(base=base, dim=2, extended_degree=CROSS_DEGREE,
                       face_data=face_data, contractions=contractions)


def decorated_family(t, rng, axes=2, quadrant=False):
    """A valid family over a fan with ``axes`` rays, or over
    ``quadrant_complex``, whose every fiber type stabilizes to the stable
    type ``t``.

    Over the vertex O the fiber is ``t`` with some edges subdivided by
    weight-0 2-valent vertices and some slope-0 leaf edges (tails, also on
    tails) attached, all of constant length.  Each chart coordinate (a ray,
    or X and Y of the quadrant) adds pieces of its own: subdivisions of O's
    edges and tails anywhere, each of length b times that coordinate, so they
    vanish on the faces without it and the contractions onto those faces
    contract them.  A split edge keeps its id on the piece that stays; the
    sum of its pieces is its length over O times 1 + mu·(sum of the
    coordinates), so every cycle still closes, and positions are laid out
    from one vertex moving along a random direction per coordinate.  Each
    face names its vertices and edges afresh, in a shuffled order.
    """
    s = stratum(t)
    c = s._lengths()
    scale = 6 * lcm(*(x.denominator for x in c))
    const = {e: int(x * scale) for e, x in zip(s.edge_order, c)}  # a length over O
    tag = {v: None for v, _ in t.graph.vertices}  # vertex or edge -> its coordinate, None on O
    weight = dict(t.graph.vertices)
    ends = {e: [u, v] for e, u, v in t.graph.edges}
    tag.update((e, None) for e in ends)
    slopes, parent, rate, cut = dict(t.slopes), {}, {}, {}  # cut[(e, j)]: rate split off e

    def grow(j):
        k = len(weight)
        n, g = f"n{k}", f"g{k}"
        split = sorted(e for e in ends if tag[e] is None and const[e] > 1)
        if split and rng.random() < 0.6:  # subdivide: g takes one end of e
            e = rng.choice(split)
            side = rng.randrange(2)
            ends[g] = [ends[e][0], n] if side == 0 else [n, ends[e][1]]
            ends[e][side] = n
            slopes[g] = slopes[e]
            if j is None:
                const[g] = rng.randint(1, const[e] - 1)
                const[e] -= const[g]
            else:
                rate[g] = rng.randint(1, 2)
                cut[(e, j)] = cut.get((e, j), 0) + rate[g]
            parent[n] = ends[g][side]
        else:  # a tail at any vertex, either way round
            at = rng.choice(sorted(weight))
            ends[g] = [at, n] if rng.random() < 0.5 else [n, at]
            slopes[g] = (0,) * t.dim
            if j is None:
                const[g] = rng.randint(1, 3)
            else:
                rate[g] = rng.randint(1, 2)
            parent[n] = at
        weight[n], tag[n], tag[g] = 0, j, j

    coords = {"O": ()}
    if quadrant:
        coords.update(X=("x",), Y=("y",), Q=("x", "y"))
        base = quadrant_complex()
    else:
        coords.update((f"R{i}", (i,)) for i in range(axes))
        base = fan_complex(axes)
    for _ in range(rng.randint(0, 3)):
        grow(None)
    axis_tags = sorted({j for js in coords.values() for j in js}, key=str)
    for j in axis_tags:
        for _ in range(rng.randint(1, 3)):
            grow(j)
    mu = max(cut.values(), default=1) + rng.randint(0, 1)
    move = {j: tuple(rng.randint(-2, 2) for _ in range(t.dim)) for j in axis_tags}
    start = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(t.dim))

    def root(v, js):  # the vertex v is contracted onto where only js remain
        while tag[v] is not None and tag[v] not in js:
            v = parent[v]
        return v

    def face(fid):
        """Face fid's vertex and edge ids, their fresh names and its curve data."""
        js = coords[fid]
        kept = [v for v in sorted(weight) if tag[v] is None or tag[v] in js]
        edges = {e: tuple(root(x, js) for x in ends[e]) for e in sorted(ends)
                 if tag[e] is None or tag[e] in js}
        names = [f"p{k}" for k in range(len(kept))] + [f"q{k}" for k in range(len(edges))]
        rng.shuffle(names)
        name = dict(zip(kept + list(edges), names))
        lengths = {e: AffineFn(tuple(mu * const[e] - cut.get((e, j), 0) for j in js),
                               const[e]) if tag[e] is None else
                   AffineFn(tuple(rate[e] if j == tag[e] else 0 for j in js), 0)
                   for e in edges}
        first = t.graph.vertices[0][0]
        pos = {first: ([[move[j][i] for j in js] for i in range(t.dim)], list(start))}
        todo = [first]
        while todo:  # lay the positions out along the edges
            u = todo.pop()
            for e, (a, b) in edges.items():
                for x, y, sign in ((a, b, 1), (b, a, -1)):
                    if x == u and y not in pos:
                        fn, lin, off = lengths[e], *pos[u]
                        pos[y] = ([[r + sign * k * slopes[e][i] for r, k in zip(lin[i], fn.linear)]
                                   for i in range(t.dim)],
                                  [o + sign * fn.offset * slopes[e][i] for i, o in enumerate(off)])
                        todo.append(y)
        graph = WeightedGraph(tuple((name[v], weight[v]) for v in kept),
                              tuple((name[e], name[a], name[b]) for e, (a, b) in edges.items()),
                              tuple((l, name[v]) for l, v in t.graph.legs))
        curve = CombinatorialType(graph, {**{name[e]: slopes[e] for e in edges},
                                          **{l: slopes[l] for l, _ in t.graph.legs}}, t.dim)
        return kept, edges, name, FaceCurveData(
            type=curve, lengths={name[e]: fn for e, fn in lengths.items()},
            positions={name[v]: AffineMapN(tuple(map(tuple, pos[v][0])), tuple(pos[v][1]))
                       for v in kept})

    faces = {fid: face(fid) for fid in coords}
    contractions = {}
    for sub, sup in base.inclusions:
        js, (kept, edges, name, _), low = coords[sub], faces[sup], faces[sub][2]
        contractions[(sub, sup)] = Contraction(
            vertex_map={name[v]: low[root(v, js)] for v in kept},
            edge_map={name[e]: low[e] for e in edges if tag[e] is None or tag[e] in js})
    return FamilyDatum(base=base, dim=t.dim, extended_degree=extended_degree(t),
                       face_data={fid: data for fid, (_, _, _, data) in faces.items()},
                       contractions=contractions)


def locate_points(seed=31, per_face=40):
    """Seeded (name, base, face id, point) cases for ``family.locate`` on the
    bases of the quadrant, segment, path, ray-wall and half-plane families.

    Each point is a chart vertex or a point between two vertices (some past
    them), moved along each ray and line by a random multiple (some
    negative), and sometimes one coordinate is redrawn, so points land on
    the boundary, in the interior and outside the face."""
    rng = random.Random(seed)
    ratios = (0, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(7, 3), -1)
    bases = {"quadrant": quadrant_complex(), "segment": segment_complex(Fraction(5, 2)),
             "path": path_family([(1, 0), (2, 1), (0, 1)], [1, Fraction(2, 3), 3]).base,
             "ray-wall": fan_complex(3), "half-plane": half_plane_family().base}
    out = []
    for name, base in bases.items():
        for fid in sorted(base.faces):
            verts, rays, lines = base.face(fid).chart.vrep()
            for _ in range(per_face):
                a, b, lam = rng.choice(verts), rng.choice(verts), rng.choice(ratios)
                x = [p + lam * (q - p) for p, q in zip(a, b)]
                for g in rays + lines:
                    c = rng.choice(ratios)
                    x = [p + c * y for p, y in zip(x, g)]
                if x and rng.random() < 0.2:
                    x[rng.randrange(len(x))] = rng.choice(ratios)
                out.append((name, base, fid, tuple(Fraction(p) for p in x)))
    return out


def locate_outcome(base, fid, x):
    """``family.locate``'s answer in the form of ``reference_family.locate``."""
    try:
        return locate(base, fid, x)
    except PointNotInComplex as exc:
        return "outside" if "is outside face" in str(exc) else "uncovered"


# ---------------------------------------------------------------------------
# faulty JSON documents
# ---------------------------------------------------------------------------

# values put in place of a node: every JSON type, a bad rational, nested lists
RETYPED = [None, True, False, 0, 7, -1, "1/0", "x", [], {}, [[1]], [[]], [0, [1]]]


def json_paths(doc, prefix=()):
    """The path (a tuple of keys and indices) of every node of a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) \
        else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def id_paths(doc):
    """The paths of the edge and leg ids of every type document in ``doc``."""
    return [p for p in json_paths(doc)
            if len(p) >= 3 and p[-1] == "id" and p[-3] in ("edges", "legs")]


def mutated(doc, kind, path, value=None):
    """``doc`` with the node at ``path`` deleted, duplicated (a list entry
    next to itself, an object entry under a new key), retyped to ``value``
    or, for an edge or leg id (see ``id_paths``), renamed to another edge or
    leg id of its type document, the one at index ``value`` modulo their
    number."""
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key + 1, copy.deepcopy(parent[key]))
    elif kind == "duplicate":
        parent[key + "2"] = copy.deepcopy(parent[key])
    elif kind == "rename":
        type_doc = doc
        for k in path[:-3]:
            type_doc = type_doc[k]
        old = parent[key]
        others = [x["id"] for part in ("edges", "legs") if isinstance(type_doc.get(part), list)
                  for x in type_doc[part] if isinstance(x, dict) and x.get("id", old) != old]
        if others:
            parent[key] = others[value % len(others)]
    else:
        parent[key] = copy.deepcopy(value)
    return doc


# ---------------------------------------------------------------------------
# enumeration cases and relabelled types
# ---------------------------------------------------------------------------

# the cases of test_enumerate_complete_against_brute_force, 3-vertex ones included
# (15 of the 26 types of the 5-leg case have 3 vertices)
BRUTE_FORCE_CASES = [
    (0, 0, ((1, 0), (0, 1), (-1, 0), (0, -1)), 2),
    (0, 0, ((1, 0), (1, 0), (-1, 0), (-1, 0)), 2),
    (0, 0, ((1,), (1,), (-1,), (-1,)), 1),
    (0, 1, ((1, 0), (0, 1), (-1, -1)), 2),
    (1, 0, ((1, 0), (-1, 0)), 2),
    (1, 0, ((2, 0), (-1, 1), (-1, -1)), 2),
    (1, 1, ((1, 0), (0, 1), (-1, -1)), 2),
    (1, 2, (), 2),
    (0, 0, ((1, 0), (0, 1), (-1, -1), (1, 0), (-1, 0)), 2),
    (0, 1, ((1, 0), (0, 1), (-1, 0), (0, -1)), 2),
    (0, 1, ((1,), (1,), (-1,), (-1,)), 1),
]

SIX_LEGS = ((1, 0), (0, 1), (-1, -1), (1, 0), (0, 1), (-1, -1))

# (label, g, n, degree, max_edges, dim): the universe that acceptance criteria 3, 4
# and 7 enumerate, and that the canonical-labelling guard relabels
ENUM_INSTANCES = (
    ("g0 cross", 0, 0, ((1, 0), (0, 1), (-1, 0), (0, -1)), 2, None),
    ("g0 five legs", 0, 0, ((1, 0), (1, 0), (0, 1), (-2, 0), (0, -1)), 2, None),
    ("g1 two contracted", 1, 2, (), 2, 2),
    ("g1 degree two", 1, 0, ((3, 0), (-3, 0)), 2, None),
)


def relabelled(t, rng):
    """The same type under fresh vertex and edge ids, shuffled tuples and
    random edge orientations; legs keep their order."""
    g = t.graph
    names = [f"{rng.choice('abcxyz')}{k}" for k in range(len(g.vertices))]
    rng.shuffle(names)
    vname = dict(zip(g.vertex_ids(), names))
    vertices = [(vname[v], w) for v, w in g.vertices]
    rng.shuffle(vertices)
    edges, slopes = [], {}
    for k, (e, u, v) in enumerate(g.edges):
        eid = f"f{rng.randrange(1000)}_{k}"
        s = t.slopes[e]
        if rng.random() < 0.5:
            edges.append((eid, vname[u], vname[v]))
            slopes[eid] = s
        else:
            edges.append((eid, vname[v], vname[u]))
            slopes[eid] = tuple(-x for x in s)
    rng.shuffle(edges)
    legs = tuple((f"m{k}", vname[v]) for k, (lid, v) in enumerate(g.legs))
    for k, (lid, _) in enumerate(g.legs):
        slopes[f"m{k}"] = t.slopes[lid]
    return CombinatorialType(WeightedGraph(tuple(vertices), tuple(edges), legs), slopes, t.dim)
