"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every workload turns a seed into a fixed batch of ops.  An op is a
zero-argument callable that makes one top-level library call (or one CLI
invocation) on inputs built before timing starts; its output is checked
afterwards by code that does not route through the function under test.

Inputs are rebuilt for every repetition of a batch, because the library
caches derived data (stars, V-representations) on complex and polyhedron
instances: a repeated batch must do the same work as the first.

Work per batch is kept steady across seeds on purpose, so that figures
from different seeds compare: enumeration degrees are random lattice
symmetries and leg orders of fixed pools, complexes are seeded relabelings
of fixed support templates, cli scenarios are fixed base data under a
seeded lattice symmetry, and stars are drawn many at a time from a fixed
mix of shapes.  A seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

from tropmoduli import cli, family, moduli, polyhedral
from tropmoduli import documents as docs
from tropmoduli.family import AffineFn, AffineMapN, Contraction, FaceCurveData, FamilyDatum
from tropmoduli.moduli import WallClassification
from tropmoduli.polyhedral import (
    Face,
    FaceInclusion,
    Harmonicity,
    PIAMap,
    Polyhedron,
    PolyhedralComplex,
    SemistablePairData,
    Stratum,
)
from tropmoduli.tropcurve import CombinatorialType, WeightedGraph

# The timed calls go through module attributes (moduli.enumerate_types, ...)
# so that the traced run, which rebinds those attributes, sees them.

ROOT = Path(__file__).resolve().parent.parent


def load_oracles():
    """The test suite's independent oracles, imported read-only by path."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("tropmoduli_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Op:
    kind: str                       # shape class of the input, e.g. "g0-5leg"
    describe: str                   # the input, for failure reports
    run: Callable[[], object]       # the timed call
    check: Callable[[object], list]  # output -> list of problems
    digest: Callable[[object], str]  # output -> canonical text


@dataclass
class Workload:
    name: str
    op_definition: str
    make_batch: Callable            # (seed, size, workdir) -> list[Op]
    work_counts: Callable           # (list of outputs) -> dict of exact counts
    traffic: Callable               # (work counts, list of ops) -> dict of shares
    prepare: Callable = None        # (seed, size, workdir) -> None, writes input documents


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _primitive(v) -> bool:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g == 1


def random_degree(rng: random.Random, legs: int) -> tuple:
    """A balanced plane degree of ``legs`` primitive vectors, all but the last
    with entries in [-1, 1] (the last is minus the sum of the others)."""
    while True:
        vs = [(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(legs - 1)]
        vs.append((-sum(v[0] for v in vs), -sum(v[1] for v in vs)))
        if all(any(v) and _primitive(v) for v in vs):
            return tuple(vs)


def lattice_symmetry(rng: random.Random, dim: int):
    """A random signed coordinate permutation of Z^dim, as a function on vectors."""
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return lambda v: tuple(signs[c] * v[perm[c]] for c in range(dim))


def symmetric_variant(rng: random.Random, degree) -> tuple:
    """``degree`` under a random signed coordinate permutation and leg order.

    These symmetries preserve the coordinatewise slope bounds of the
    enumeration, so the variant costs the same as the original."""
    g = lattice_symmetry(rng, len(degree[0]))
    out = [g(v) for v in degree]
    rng.shuffle(out)
    return tuple(out)


def _type_text(t: CombinatorialType) -> str:
    return repr((t.dim, t.graph.vertices, t.graph.edges, t.graph.legs,
                 sorted(t.slopes.items())))


def _vertex_sums(t: CombinatorialType) -> dict:
    """Outgoing slope sum per vertex, recomputed from the raw graph data."""
    sums = {v: [0] * t.dim for v, _ in t.graph.vertices}
    for e, u, v in t.graph.edges:
        s = t.slopes[e]
        for c in range(t.dim):
            sums[u][c] += s[c]
            sums[v][c] -= s[c]
    for lid, v in t.graph.legs:
        for c in range(t.dim):
            sums[v][c] += t.slopes[lid][c]
    return sums


def _valences(t: CombinatorialType) -> dict:
    val = {v: 0 for v, _ in t.graph.vertices}
    for _, u, v in t.graph.edges:
        val[u] += 1
        val[v] += 1
    for _, v in t.graph.legs:
        val[v] += 1
    return val


def type_genus(t: CombinatorialType) -> int:
    return len(t.graph.edges) - len(t.graph.vertices) + 1 + sum(w for _, w in t.graph.vertices)


def digest_texts(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _shares(counter: dict, total: int) -> dict:
    return {k: {"count": v, "base": total, "share": (v / total if total else 0.0)}
            for k, v in sorted(counter.items())}


# ---------------------------------------------------------------------------
# enumerate: enumerate_types, then wall_graph, then propagate_closure
# ---------------------------------------------------------------------------

SIX_LEGS = ((1, 0), (0, 1), (-1, -1), (1, 0), (0, 1), (-1, -1))


def degree_pool(kind: str, count: int, legs: int) -> list:
    """A fixed pool of random balanced degrees (the same for every seed)."""
    rng = random.Random(f"pool/{kind}")
    return [random_degree(rng, legs) for _ in range(count)]


def _enum_plan(size: str):
    """(kind, genus, contracted legs, base degrees, variants per base, max edges, dim).

    Every base degree is used in each batch; the seed draws its symmetric
    variants and the propagation seed sets."""
    if size == "tiny":
        return [
            ("g0-4leg", 0, 0, degree_pool("g0-4leg", 5, 4), 2, 1, None),
            ("g1-2contracted", 1, 2, [()], 1, 1, 2),
        ]
    return [
        ("g0-4leg", 0, 0, degree_pool("g0-4leg", 10, 4), 2, 2, None),
        ("g0-3leg-1contracted", 0, 1, degree_pool("g0-3leg", 3, 3), 2, 2, None),
        ("g1-2contracted", 1, 2, [()], 8, 2, 2),
        ("g1-1contracted-2leg", 1, 1, [((1, 0), (-1, 0))], 2, 2, None),
        ("g0-5leg", 0, 0, degree_pool("g0-5leg", 3, 5), 1, 2, None),
        ("g0-6leg", 0, 0, [SIX_LEGS], 1, 2, None),
    ]


@dataclass
class EnumOut:
    types: list
    nodes: list
    wg: object
    seed_sets: list
    closures: list


def _enum_run(inst, op_seed):
    g, n, degree, max_edges, dim = inst

    def run():
        types = moduli.enumerate_types(g, n, degree, max_edges, dim=dim)
        nodes = [t for t in types
                 if moduli.classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]
        wg = moduli.wall_graph(nodes)
        ids = wg.node_ids()
        rng = random.Random(op_seed)
        seed_sets = [sorted(rng.sample(ids, min(len(ids), k))) for k in (1, 2, 3)]
        closures = [family.propagate_closure(wg, s) for s in seed_sets]
        return EnumOut(types, nodes, wg, seed_sets, closures)
    return run


def _enum_check(inst, oracles):
    g, n, degree, max_edges, dim = inst
    ext = tuple((0,) * (dim or len(degree[0])) for _ in range(n)) + tuple(degree)

    def check(out: EnumOut):
        problems = []
        for i, t in enumerate(out.types):
            if any(any(s) for s in _vertex_sums(t).values()):
                problems.append(f"type {i} is unbalanced")
            if tuple(t.slopes[l] for l, _ in t.graph.legs) != ext:
                problems.append(f"type {i} has the wrong extended degree")
            if type_genus(t) != g:
                problems.append(f"type {i} has genus {type_genus(t)}")
            if len(t.graph.edges) > max_edges:
                problems.append(f"type {i} has too many edges")
            val = _valences(t)
            if any(val[v] + 2 * w < 3 for v, w in t.graph.vertices):
                problems.append(f"type {i} is unstable")
        # pairwise non-isomorphic, by brute force over vertex and edge bijections
        buckets = {}
        for t in out.types:
            buckets.setdefault((len(t.graph.vertices), len(t.graph.edges)), []).append(t)
        for group in buckets.values():
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    if oracles.brute_force_isomorphisms(group[a], group[b]):
                        problems.append("two enumerated types are isomorphic")
        node_ids = set(out.wg.node_ids())
        if len(node_ids) != len(out.nodes):
            problems.append("wall graph node count differs from the 3-valent types")
        for nid, t in out.wg.nodes:
            val = _valences(t)
            if any(w for _, w in t.graph.vertices) or any(x != 3 for x in val.values()):
                problems.append(f"node {nid} is not weightless 3-valent")
        nodes_by_id = dict(out.wg.nodes)
        for wid, wt, incident in out.wg.walls:
            if not set(incident) <= node_ids:
                problems.append(f"wall {wid} names a resolution outside the node set")
                continue
            val = sorted(_valences(wt).values())
            if any(w for _, w in wt.graph.vertices) or val.count(4) != 1 or \
                    any(x not in (3, 4) for x in val):
                problems.append(f"wall {wid} is not weightless almost 3-valent")
            if any(any(s) for s in _vertex_sums(wt).values()):
                problems.append(f"wall {wid} is unbalanced")
            for nid in incident:
                if len(nodes_by_id[nid].graph.edges) != len(wt.graph.edges) + 1:
                    problems.append(f"wall {wid} resolution {nid} has the wrong edge count")
        for seeds, res in zip(out.seed_sets, out.closures):
            closure = set(res.closure)
            if not set(seeds) <= closure or not closure <= node_ids:
                problems.append("closure does not contain its seeds")
            for wid, _, incident in out.wg.walls:
                if set(incident) & closure and not set(incident) <= closure:
                    problems.append(f"closure is not saturated at wall {wid}")
        return problems
    return check


def _enum_digest(out: EnumOut) -> str:
    return repr(([_type_text(t) for t in out.types],
                 [(nid, _type_text(t)) for nid, t in out.wg.nodes],
                 [(wid, _type_text(t), res) for wid, t, res in out.wg.walls],
                 out.seed_sets,
                 [(r.closure, r.trace) for r in out.closures]))


def enumerate_batch(seed: int, size: str, workdir=None):
    rng = random.Random(f"enumerate/{seed}")
    oracles = load_oracles()
    ops = []
    for kind, g, n, bases, variants, max_edges, dim in _enum_plan(size):
        for base in bases:
            for _ in range(variants):
                degree = symmetric_variant(rng, base) if base else ()
                inst = (g, n, degree, max_edges, dim)
                op_seed = rng.getrandbits(32)
                ops.append(Op(
                    kind=kind,
                    describe=f"enumerate_types({g}, {n}, {[list(v) for v in degree]}, "
                             f"{max_edges}, dim={dim}); propagate seed {op_seed}",
                    run=_enum_run(inst, op_seed),
                    check=_enum_check(inst, oracles),
                    digest=_enum_digest,
                ))
    return ops


def enumerate_counts(outs) -> dict:
    done = [o for o in outs if o is not None]
    return {
        "types": sum(len(o.types) for o in done),
        "genus0_types": sum(1 for o in done for t in o.types if type_genus(t) == 0),
        "nodes": sum(len(o.nodes) for o in done),
        "walls": sum(len(o.wg.walls) for o in done),
        "wall_incidences": sum(len(r) for o in done for _, _, r in o.wg.walls),
        "closure_nodes": sum(len(r.closure) for o in done for r in o.closures),
    }


def enumerate_traffic(counts, ops) -> dict:
    return {"genus0_share_of_types": _shares({"genus0": counts["genus0_types"]},
                                             counts["types"])}


# ---------------------------------------------------------------------------
# harmonic: harmonicity_at on seeded stars
# ---------------------------------------------------------------------------

def _rand_vec(rng, dim):
    while True:
        v = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(v):
            return v


def _star_derivatives(rng, k, dim, kind, a=None):
    """k derivative vectors; ``balanced`` sums to zero (mod a), ``positive``
    has a positive integer relation (mod a), ``random`` is unconstrained."""
    ds = [_rand_vec(rng, dim) for _ in range(k)]
    if kind == "random":
        return ds
    coef = [1] * k
    if kind == "positive":  # unequal coefficients, so the plain sum is not the relation
        coef[0] = rng.randint(2, 3)
        coef[1:k - 1] = [rng.randint(1, 3) for _ in range(k - 2)]
    last = [-sum(coef[i] * ds[i][c] for i in range(k - 1)) for c in range(dim)]
    if a is not None:
        shift = rng.randint(-2, 2)
        last = [x + shift * y for x, y in zip(last, a)]
    ds[-1] = tuple(last)
    return ds


def _unimodular2(rng):
    """A random 2x2 unimodular matrix and its inverse (products of shears)."""
    x, y = rng.randint(-2, 2), rng.randint(-2, 2)
    g = ((1 + x * y, x), (y, 1))                 # [[1,x],[0,1]] @ [[1,0],[y,1]]
    ginv = ((1, -x), (-y, 1 + x * y))
    if rng.random() < 0.5:                       # reflect the second basis vector
        g = ((g[0][0], -g[0][1]), (g[1][0], -g[1][1]))
        ginv = (ginv[0], (-ginv[1][0], -ginv[1][1]))
    return g, ginv


@dataclass
class StarInput:
    complex_: PolyhedralComplex
    piamap: PIAMap
    face: str
    dim: int
    derivs: dict        # cofacet id -> derivative chosen by the generator
    wall_span: tuple    # basis of the image of the wall face (empty for a vertex)


def _fan_input(rng, k, dim, kind) -> StarInput:
    ds = _star_derivatives(rng, k, dim, kind)
    faces = [Face("O", 0, Polyhedron(0))]
    incs = []
    zero = (Fraction(0),) * dim
    per_face = {"O": (tuple(() for _ in range(dim)), zero)}
    derivs = {}
    for i, d in enumerate(ds):
        rid = f"R{i}"
        faces.append(Face(rid, 1, Polyhedron(1, [((1,), 0)])))
        incs.append(FaceInclusion(sub="O", super=rid, linear=((),), offset=(Fraction(0),)))
        per_face[rid] = (tuple((x,) for x in d), zero)
        derivs[rid] = d
    c = PolyhedralComplex(faces, incs)
    return StarInput(c, PIAMap(source=c, target_dim=dim, per_face=per_face), "O", dim, derivs, ())


def _book_input(rng, k, dim, kind) -> StarInput:
    """k half-planes glued along a line W, each in its own unimodular chart."""
    a = _rand_vec(rng, dim)
    ds = _star_derivatives(rng, k, dim, kind, a=a)
    faces = [Face("W", 1, Polyhedron(1))]
    incs = []
    zero = (Fraction(0),) * dim
    per_face = {"W": (tuple((x,) for x in a), zero)}
    derivs = {}
    for i, d in enumerate(ds):
        qid = f"Q{i}"
        g, ginv = _unimodular2(rng)
        normal = ginv[1]                        # the chart is {y : ginv[1] . y >= 0}
        faces.append(Face(qid, 2, Polyhedron(2, [(normal, 0)])))
        incs.append(FaceInclusion(sub="W", super=qid, linear=((g[0][0],), (g[1][0],)),
                                  offset=(Fraction(0), Fraction(0))))
        # map [a | d] in the basis g, i.e. [a | d] @ ginv
        lin = tuple((a[c] * ginv[0][0] + d[c] * ginv[1][0],
                     a[c] * ginv[0][1] + d[c] * ginv[1][1]) for c in range(dim))
        per_face[qid] = (lin, zero)
        derivs[qid] = d
    c = PolyhedralComplex(faces, incs)
    return StarInput(c, PIAMap(source=c, target_dim=dim, per_face=per_face), "W", dim, derivs, (a,))


def _in_span(v, basis) -> bool:
    """Whether integer vector v lies in the rational span of at most one vector."""
    if not basis:
        return not any(v)
    (a,) = basis
    return all(v[i] * a[j] == v[j] * a[i] for i in range(len(v)) for j in range(len(v)))


def _positive_relation_exists(oracles, vectors, span, dim) -> bool:
    """Whether positive a_i exist with sum a_i v_i in span(span), decided by
    Fourier-Motzkin on the dual system (Stiemke's lemma): no such a_i exist
    iff some y orthogonal to the span has y.v_i >= 0 for all i and
    sum y.v_i >= 1.  The dual has dim variables, where the primal oracle has
    one per vector and grows doubly exponentially beyond four of them."""
    ineqs = [(list(v), 0) for v in vectors]
    ineqs.append(([sum(v[c] for v in vectors) for c in range(dim)], 1))
    for a in span:
        ineqs.append((list(a), 0))
        ineqs.append(([-x for x in a], 0))
    return not oracles.fm_feasible(ineqs, dim)


def _harmonic_check(inp: StarInput, oracles):
    def check(res):
        problems = []
        cofacets = [cid for cid, _ in res.star.directions]
        if sorted(cofacets) != sorted(inp.derivs):
            return [f"star has cofacets {cofacets}"]
        mine = [inp.derivs[cid] for cid in cofacets]
        for cid, got, want in zip(cofacets, res.derivatives, mine):
            diff = tuple(int(x) - y for x, y in zip(got, want))
            if not _in_span(diff, inp.wall_span):
                problems.append(f"derivative into {cid} is {got}, expected {want} mod the wall")
        total = tuple(sum(d[c] for d in mine) for c in range(inp.dim))
        harmonic = _in_span(total, inp.wall_span)
        quasi = _positive_relation_exists(oracles, mine, inp.wall_span, inp.dim)
        if len(mine) + len(inp.wall_span) <= 4 and quasi != \
                oracles.fm_positive_combination_exists(mine, list(inp.wall_span), inp.dim):
            problems.append("primal and dual Fourier-Motzkin oracles disagree")
        expected = Harmonicity.HARMONIC if harmonic else \
            Harmonicity.QUASI_HARMONIC_ONLY if quasi else Harmonicity.NOT_QUASI_HARMONIC
        if res.verdict != expected:
            problems.append(f"verdict {res.verdict.value}, oracle says {expected.value}")
        if res.verdict == Harmonicity.HARMONIC and tuple(res.certificate) != (1,) * len(mine):
            problems.append("harmonic certificate is not all ones")
        if res.certificate is not None:
            cert = tuple(res.certificate)
            combo = tuple(sum(x * d[c] for x, d in zip(cert, mine)) for c in range(inp.dim))
            if len(cert) != len(mine) or any(x <= 0 for x in cert) or \
                    not _in_span(combo, inp.wall_span):
                problems.append(f"certificate {cert} does not re-verify")
        elif res.verdict != Harmonicity.NOT_QUASI_HARMONIC:
            problems.append("missing certificate")
        return problems
    return check


def _harmonic_digest(res) -> str:
    return repr((res.verdict.value, res.certificate,
                 tuple(tuple(str(x) for x in d) for d in res.derivatives),
                 res.star.directions))


def _harmonic_plan(size: str):
    """(kind, count, input maker) rows; kind = shape/derivative class."""
    rows = []
    if size == "tiny":
        for kind in ("balanced", "positive", "random"):
            rows.append((f"fan-k3-z2-{kind}", 3,
                         lambda rng, kind=kind: _fan_input(rng, 3, 2, kind)))
            rows.append((f"book-k2-z3-{kind}", 1,
                         lambda rng, kind=kind: _book_input(rng, 2, 3, kind)))
        return rows
    for dim in (2, 3):
        for kind in ("balanced", "positive", "random"):
            for k in (2, 3, 4, 5, 6):
                rows.append((f"fan-k{k}-z{dim}-{kind}", 16,
                             lambda rng, k=k, dim=dim, kind=kind: _fan_input(rng, k, dim, kind)))
            for k in (2, 3, 4):
                rows.append((f"book-k{k}-z{dim}-{kind}", 8,
                             lambda rng, k=k, dim=dim, kind=kind: _book_input(rng, k, dim, kind)))
    return rows


def harmonic_batch(seed: int, size: str, workdir=None):
    rng = random.Random(f"harmonic/{seed}")
    oracles = load_oracles()
    ops = []
    for kind, count, build in _harmonic_plan(size):
        for _ in range(count):
            inp = build(rng)
            ops.append(Op(
                kind=kind,
                describe=f"harmonicity_at at {inp.face}: derivatives "
                         f"{ {c: list(d) for c, d in inp.derivs.items()} }, wall span "
                         f"{[list(a) for a in inp.wall_span]}",
                run=lambda inp=inp: polyhedral.harmonicity_at(inp.piamap, inp.face),
                check=_harmonic_check(inp, oracles),
                digest=_harmonic_digest,
            ))
    return ops


def harmonic_counts(outs) -> dict:
    done = [o for o in outs if o is not None]
    verdicts = {}
    for res in done:
        verdicts[res.verdict.value] = verdicts.get(res.verdict.value, 0) + 1
    return {
        "stars": len(done),
        "star_directions": sum(len(res.star.directions) for res in done),
        "certificate_total": sum(sum(res.certificate) for res in done if res.certificate),
        **{f"verdict_{k}": v for k, v in sorted(verdicts.items())},
    }


def harmonic_traffic(counts, ops) -> dict:
    verdicts = {k[len("verdict_"):]: v for k, v in counts.items() if k.startswith("verdict_")}
    positive_rank = sum(1 for op in ops if op.kind.startswith("book"))
    return {
        "verdict_mix": _shares(verdicts, counts["stars"]),
        "positive_rank_wall_faces": _shares({"book": positive_rank}, len(ops)),
    }


# ---------------------------------------------------------------------------
# complex: build_skeleton, validate_complex, star at every face with cofacets
# ---------------------------------------------------------------------------

# (kind, count, verticals, horizontals, maximal supports as index sets of
# verticals and horizontals).  Acceptance criterion 1 stays within 5
# components and 12 strata; these have 6 to 8 components and 17 to 37 strata.
COMPLEX_PLAN = [
    ("v5h1-3max", 18, 5, 1, (((0, 1, 2), (0,)), ((2, 3), ()), ((3, 4), (0,)))),
    ("v6h2-3max", 11, 6, 2, (((0, 1, 2), (0,)), ((2, 3, 4), (1,)), ((4, 5), (0,)))),
    ("v6h2-2max-4v", 2, 6, 2, (((0, 1, 2, 3), (0,)), ((3, 4, 5), (1,)))),
]
COMPLEX_PLAN_TINY = [("v5h1-3max", 11, *COMPLEX_PLAN[0][2:])]


def template_pair(rng: random.Random, nv: int, nh: int, maximal) -> SemistablePairData:
    """Pair data whose strata are all sub-supports of the given maximal supports.

    The seed relabels the components and draws the lengths, so every pair
    of one template has the same face lattice.  Supports are merged
    globally, so every chart face is covered once; lengths agree along
    comparable strata that share two verticals.
    """
    verticals = [f"D{i}" for i in range(nv)]
    horizontals = [f"H{i}" for i in range(nh)]
    rng.shuffle(verticals)
    rng.shuffle(horizontals)
    supports = [(frozenset(verticals[i] for i in vs), frozenset(horizontals[i] for i in hs))
                for vs, hs in maximal]
    closed = set()
    for vs, hs in supports:
        vl, hl = sorted(vs), sorted(hs)
        for vm in range(1, 2 ** len(vl)):
            sub_v = frozenset(v for i, v in enumerate(vl) if vm >> i & 1)
            for hm in range(2 ** len(hl)):
                closed.add((sub_v, frozenset(h for i, h in enumerate(hl) if hm >> i & 1)))
    closed = sorted(closed, key=lambda s: (sorted(s[0]), sorted(s[1])))
    ids = {s: f"S{i}" for i, s in enumerate(closed)}
    order = [(ids[a], ids[b]) for a in closed for b in closed
             if a != b and b[0] <= a[0] and b[1] <= a[1]]
    parent = {s: s for s in closed}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in closed:
        for b in closed:
            if a != b and b[0] <= a[0] and b[1] <= a[1] and len(b[0]) >= 2:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    lengths, strata = {}, []
    for s in closed:
        root = find(s)
        if root not in lengths:
            lengths[root] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        strata.append(Stratum(ids[s], tuple(sorted(s[0])), tuple(sorted(s[1])), lengths[root]))
    return SemistablePairData(tuple(sorted(verticals)), tuple(sorted(horizontals)),
                              tuple(strata), tuple(order))


@dataclass
class ComplexOut:
    complex_: PolyhedralComplex
    report: object
    stars: list


def _complex_run(pair):
    def run():
        sk = polyhedral.build_skeleton(pair)
        report = polyhedral.validate_complex(sk)
        stars = [polyhedral.star(sk, fid) for fid in sorted(sk.faces) if sk.cofacet_inclusions(fid)]
        return ComplexOut(sk, report, stars)
    return run


def _complex_check(pair: SemistablePairData):
    strata = {s.id: s for s in pair.strata}
    rank = {sid: len(s.verticals) - 1 + len(s.horizontals) for sid, s in strata.items()}
    cofacets = {sid: [] for sid in strata}
    for deeper, shallower in pair.order:
        if rank[deeper] == rank[shallower] + 1:
            cofacets[shallower].append(deeper)

    def check(out: ComplexOut):
        problems = []
        if not out.report.ok:
            problems.append(f"skeleton does not validate: {out.report}")
        if sorted(out.complex_.faces) != sorted(strata):
            problems.append("skeleton faces differ from the strata")
        for sid, f in out.complex_.faces.items():
            if f.rank != rank.get(sid):
                problems.append(f"face {sid} has rank {f.rank}")
        expected = [sid for sid in sorted(strata) if cofacets[sid]]
        if [sd.face for sd in out.stars] != expected:
            problems.append("stars computed at the wrong faces")
        for sd in out.stars:
            if sorted(c for c, _ in sd.directions) != sorted(cofacets[sd.face]):
                problems.append(f"star of {sd.face} has the wrong cofacets")
            for c, e in sd.directions:
                if len(e) != rank[c] or not _primitive(e):
                    problems.append(f"star direction of {sd.face} into {c} is {e}")
        return problems
    return check


def _complex_digest(out: ComplexOut) -> str:
    c = out.complex_
    return repr((sorted((fid, f.rank, f.chart.ineqs) for fid, f in c.faces.items()),
                 sorted((k, inc.linear, inc.offset) for k, inc in c.inclusions.items()),
                 [(v.axiom, v.subject, v.message) for v in out.report.violations],
                 [(sd.face, sd.directions) for sd in out.stars]))


def complex_batch(seed: int, size: str, workdir=None):
    rng = random.Random(f"complex/{seed}")
    ops = []
    for kind, count, nv, nh, maximal in (COMPLEX_PLAN_TINY if size == "tiny" else COMPLEX_PLAN):
        for _ in range(count):
            pair = template_pair(rng, nv, nh, maximal)
            ops.append(Op(
                kind=kind,
                describe="build_skeleton + validate_complex + star on pair "
                         + json.dumps(docs.pair_to_doc(pair), sort_keys=True),
                run=_complex_run(pair),
                check=_complex_check(pair),
                digest=_complex_digest,
            ))
    return ops


def complex_counts(outs) -> dict:
    done = [o for o in outs if o is not None]
    return {
        "pairs": len(done),
        "faces": sum(len(o.complex_.faces) for o in done),
        "inclusions": sum(len(o.complex_.inclusions) for o in done),
        "stars": sum(len(o.stars) for o in done),
        "star_directions": sum(len(sd.directions) for o in done for sd in o.stars),
        "violations": sum(len(o.report.violations) for o in done),
    }


def complex_traffic(counts, ops) -> dict:
    return {"faces_with_cofacets": _shares({"with_cofacets": counts["stars"]}, counts["faces"])}


# ---------------------------------------------------------------------------
# cli: every verb through tropmoduli.cli.main, on documents written here
# ---------------------------------------------------------------------------

def random_cross_degree(rng: random.Random) -> tuple:
    """Four primitive plane slopes summing to zero with no two summing to zero."""
    while True:
        deg = random_degree(rng, 4)
        if all(any(deg[i][c] + deg[j][c] for c in range(2))
               for i in range(4) for j in range(i + 1, 4)):
            return deg


def _const_map(values, rank):
    return AffineMapN(tuple((0,) * rank for _ in values), tuple(Fraction(v) for v in values))


def cross_type(degree) -> CombinatorialType:
    g = WeightedGraph((("v", 0),), (), tuple((f"l{i}", "v") for i in range(4)))
    return CombinatorialType(g, {f"l{i}": s for i, s in enumerate(degree)}, 2)


def resolution_type(degree, partner: int) -> CombinatorialType:
    """The resolution of the cross pairing leg 0 with leg ``partner``."""
    side_a = {0, partner}
    legs = tuple((f"l{i}", "va" if i in side_a else "vb") for i in range(4))
    slopes = {f"l{i}": s for i, s in enumerate(degree)}
    slopes["e"] = tuple(-sum(degree[i][c] for i in side_a) for c in range(2))
    g = WeightedGraph((("va", 0), ("vb", 0)), (("e", "va", "vb"),), legs)
    return CombinatorialType(g, slopes, 2)


def ray_wall_family(degree, partners, edge_offset=0) -> FamilyDatum:
    """The cross wall over a fan vertex, resolution ``partners[i]`` over ray i.

    The new edge has length t + edge_offset on each ray; offset 0 gives a
    valid family and a negative offset an invalid one."""
    faces = [Face("O", 0, Polyhedron(0))]
    incs = []
    face_data = {"O": FaceCurveData(type=cross_type(degree), lengths={},
                                    positions={"v": _const_map((0, 0), 0)})}
    contractions = {}
    for i, partner in enumerate(partners):
        rid = f"R{i}"
        faces.append(Face(rid, 1, Polyhedron(1, [((1,), 0)])))
        incs.append(FaceInclusion(sub="O", super=rid, linear=((),), offset=(Fraction(0),)))
        t = resolution_type(degree, partner)
        s = t.slopes["e"]
        face_data[rid] = FaceCurveData(
            type=t,
            lengths={"e": AffineFn((1,), Fraction(edge_offset))},
            positions={"va": _const_map((0, 0), 1),
                       "vb": AffineMapN(((s[0],), (s[1],)), (Fraction(0), Fraction(0)))})
        contractions[("O", rid)] = Contraction(vertex_map={"va": "v", "vb": "v"}, edge_map={})
    return FamilyDatum(base=PolyhedralComplex(faces, incs), dim=2,
                       extended_degree=tuple(degree), face_data=face_data,
                       contractions=contractions)


def path_derivatives(rng: random.Random, segments: int) -> list:
    """Derivatives along consecutive segments: at the inner vertices they are
    equal (harmonic), positively parallel (quasi-harmonic) or unrelated, in turn."""
    derivs = [_rand_vec(rng, 2)]
    for i in range(segments - 1):
        prev = derivs[-1]
        derivs.append((prev, tuple(2 * x for x in prev), _rand_vec(rng, 2))[i % 3])
    return derivs


def path_family(degree, derivs, seg_len) -> FamilyDatum:
    """A constant-type family over a path of segments P0-E1-P1-...-Em-Pm: the
    resolved type moves with derivative derivs[i] along segment E_(i+1)."""
    segments = len(derivs)
    t = resolution_type(degree, 1)
    s = t.slopes["e"]
    pos = [(Fraction(0), Fraction(0))]
    for d, ln in zip(derivs, seg_len):
        pos.append(tuple(p + ln * x for p, x in zip(pos[-1], d)))
    faces, incs, face_data, contractions = [], [], {}, {}
    for i in range(segments + 1):
        pid = f"P{i}"
        faces.append(Face(pid, 0, Polyhedron(0)))
        face_data[pid] = FaceCurveData(
            type=t, lengths={"e": AffineFn((), Fraction(1))},
            positions={"va": _const_map(pos[i], 0),
                       "vb": _const_map(tuple(p + x for p, x in zip(pos[i], s)), 0)})
    for i in range(1, segments + 1):
        eid, d, ln = f"E{i}", derivs[i - 1], seg_len[i - 1]
        faces.append(Face(eid, 1, Polyhedron(1, [((1,), 0), ((-1,), -ln)])))
        start = pos[i - 1]
        face_data[eid] = FaceCurveData(
            type=t, lengths={"e": AffineFn((0,), Fraction(1))},
            positions={"va": AffineMapN(((d[0],), (d[1],)), start),
                       "vb": AffineMapN(((d[0],), (d[1],)),
                                        tuple(p + x for p, x in zip(start, s)))})
        for pid, off in ((f"P{i - 1}", Fraction(0)), (f"P{i}", ln)):
            incs.append(FaceInclusion(sub=pid, super=eid, linear=((),), offset=(off,)))
            contractions[(pid, eid)] = Contraction(vertex_map={"va": "va", "vb": "vb"},
                                                   edge_map={"e": "e"})
    return FamilyDatum(base=PolyhedralComplex(faces, incs), dim=2,
                       extended_degree=tuple(degree), face_data=face_data,
                       contractions=contractions)


def _curve_doc(degree) -> dict:
    """A realized resolution: edge length 2, va at the origin."""
    t = resolution_type(degree, 2)
    s = t.slopes["e"]
    return docs.type_to_doc(t, lengths={"e": Fraction(2)},
                            positions={"va": (0, 0), "vb": (2 * s[0], 2 * s[1])})


def _write(path: Path, doc):
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def _cli_scenarios(size: str) -> int:
    return 1 if size == "tiny" else 4


def cli_prepare(seed: int, size: str, workdir: Path):
    """Write every input document of the cli batch into ``workdir``.

    Scenario k starts from fixed base data (the same for every seed); the
    seed relabels the pair's components, picks a lattice symmetry applied
    to every plane vector of the families, and draws the enumeration degree,
    the propagation seeds and the fiber point, so the work stays the same."""
    rng = random.Random(f"cli/{seed}")
    segments = 6 if size != "tiny" else 3
    plan = []
    for k in range(_cli_scenarios(size)):
        d = workdir / f"s{k}"
        d.mkdir(parents=True, exist_ok=True)
        base = random.Random(f"pool/cli/{k}")
        g = lattice_symmetry(rng, 2)
        degree = tuple(g(v) for v in random_cross_degree(base))
        derivs = [g(v) for v in path_derivatives(base, segments)]
        seg_len = [Fraction(base.randint(1, 4), base.randint(1, 3)) for _ in range(segments)]
        partners = tuple(sorted(base.sample((1, 2, 3), (3, 1, 2)[k % 3])))

        _write(d / "pair.json", docs.pair_to_doc(template_pair(rng, *COMPLEX_PLAN[1][2:])))
        _write(d / "curve.json", _curve_doc(degree))
        _write(d / "cross.json", docs.type_to_doc(cross_type(degree)))
        enum_degree = symmetric_variant(rng, degree_pool("g0-4leg", 10, 4)[k])
        types = moduli.enumerate_types(0, 0, enum_degree, 2)
        nodes = [t for t in types
                 if moduli.classify(t).classification == WallClassification.WEIGHTLESS_3VALENT]
        _write(d / "nodes.json", docs.types_to_doc(nodes))
        seeds = ",".join(f"n{i}" for i in sorted(rng.sample(range(len(nodes)),
                                                            min(2, len(nodes)))))
        _write(d / "ray.json", docs.family_to_doc(ray_wall_family(degree, partners)))
        _write(d / "bad.json", docs.family_to_doc(ray_wall_family(degree, partners, -1)))
        _write(d / "path.json", docs.family_to_doc(path_family(degree, derivs, seg_len)))
        point = f'["{seg_len[1] * Fraction(rng.randint(1, 6), 7)}"]'
        plan.append((d, enum_degree, seeds, point))
    (workdir / "plan.json").write_text(json.dumps(
        [[str(d), deg, seeds, point] for d, deg, seeds, point in plan]), encoding="utf-8")


def _cli_op(argv, expected: int, out_path: Path):
    def run():
        code = cli.main(argv)
        return code, out_path.read_bytes()

    def check(out):
        code, data = out
        problems = []
        if code != expected:
            problems.append(f"exit code {code}, expected {expected}")
        try:
            report = json.loads(data)
        except json.JSONDecodeError:
            return problems + ["report is not JSON"]
        if report.get("schema") != docs.SCHEMA or report.get("verb") != argv[0]:
            problems.append("report has the wrong schema or verb")
        status = {0: "ok", 1: "violations"}.get(expected)
        if report.get("status") != status:
            problems.append(f"report status {report.get('status')!r}, expected {status!r}")
        return problems

    def digest(out):
        code, data = out
        return f"{code}:{hashlib.sha256(data).hexdigest()}"
    return run, check, digest


def cli_batch(seed: int, size: str, workdir: Path):
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    ops = []
    for d, enum_degree, seeds, point in plan:
        d = Path(d)
        o = d / "out"
        # a fresh out/ per repetition, so that every report read back and
        # every document passed downstream was written by this repetition
        shutil.rmtree(o, ignore_errors=True)
        o.mkdir()
        steps = [
            (["skeleton", str(d / "pair.json"), "-o", str(o / "complex.json")], 0),
            (["validate-complex", str(o / "complex.json"), "-o", str(o / "vc.json")], 0),
            (["validate-curve", str(d / "curve.json"), "-o", str(o / "vcurve.json")], 0),
            (["classify", str(d / "cross.json"), "-o", str(o / "classify.json")], 0),
            (["resolve", str(d / "cross.json"), "-o", str(o / "resolve.json")], 0),
            (["enumerate", "--genus", "0", "--degree", json.dumps(enum_degree),
              "--max-edges", "2", "-o", str(o / "types.json")], 0),
            (["wallgraph", str(d / "nodes.json"), "-o", str(o / "wg.json")], 0),
            (["propagate", str(o / "wg.json"), "--seeds", seeds, "-o", str(o / "prop.json")], 0),
            (["validate-family", str(d / "ray.json"), "-o", str(o / "vf.json")], 0),
            (["validate-family", str(d / "bad.json"), "-o", str(o / "vfbad.json")], 1),
            (["fiber", str(d / "path.json"), "--face", "E2", "--point", point,
              "-o", str(o / "fiber.json")], 0),
            (["alpha", str(d / "ray.json"), "-o", str(o / "alpha.json")], 0),
            (["alpha", str(d / "path.json"), "-o", str(o / "alphapath.json")], 0),
            (["verdicts", str(d / "ray.json"), "-o", str(o / "verdicts.json")], 0),
            (["verdicts", str(d / "path.json"), "-o", str(o / "verdictspath.json")], 0),
        ]
        for argv, expected in steps:
            run, check, digest = _cli_op(argv, expected, Path(argv[-1]))
            describe = "tropmoduli " + " ".join(argv).replace(f"{workdir}{os.sep}", "")
            ops.append(Op(kind=argv[0], describe=describe,
                          run=run, check=check, digest=digest))
    return ops


def cli_counts(outs) -> dict:
    done = [o for o in outs if o is not None]
    codes = {}
    for code, _ in done:
        codes[f"exit_{code}"] = codes.get(f"exit_{code}", 0) + 1
    return {"invocations": len(done), "bytes_out": sum(len(data) for _, data in done),
            **dict(sorted(codes.items()))}


def cli_traffic(counts, ops) -> dict:
    verbs = {}
    for op in ops:
        verbs[op.kind] = verbs.get(op.kind, 0) + 1
    return {"per_verb_ops": _shares(verbs, len(ops))}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "enumerate": Workload(
        name="enumerate",
        op_definition="one enumerate_types call on a seeded degree, then wall_graph on its "
                      "weightless 3-valent types and propagate_closure from 3 seeded seed sets",
        make_batch=enumerate_batch, work_counts=enumerate_counts, traffic=enumerate_traffic),
    "harmonic": Workload(
        name="harmonic",
        op_definition="one harmonicity_at call on a fresh seeded star (a fan vertex, or a "
                      "line with half-planes in random unimodular charts)",
        make_batch=harmonic_batch, work_counts=harmonic_counts, traffic=harmonic_traffic),
    "complex": Workload(
        name="complex",
        op_definition="one seeded semistable pair: build_skeleton, validate_complex, then "
                      "star at every face with cofacets",
        make_batch=complex_batch, work_counts=complex_counts, traffic=complex_traffic),
    "cli": Workload(
        name="cli",
        op_definition="one tropmoduli.cli.main(argv) invocation writing its report with -o",
        make_batch=cli_batch, work_counts=cli_counts, traffic=cli_traffic,
        prepare=cli_prepare),
}
