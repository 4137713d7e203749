"""``validate_family`` against the point-sampling reference.

The library decides each affine identity of a family once, on integer
coefficients; ``reference_family`` evaluates both sides at every generating
point of a chart.  On the test families, on the benchmark's family shapes
and on seeded single mutations of them, both must give the same violations
in the same order.
"""

import copy
import random
from fractions import Fraction

import pytest

from tropmoduli.family import AffineFn, AffineMapN, validate_family
from tropmoduli.polyhedral import FaceInclusion, validate_complex
from tropmoduli.tropcurve import CombinatorialType

import reference_family
import reference_polyhedral
from helpers import (
    path_family,
    point_family,
    quadrant_family,
    ray_wall_family,
    segment_family,
    two_ray_resolution_family,
)


def _entries(report):
    return [(v.axiom, v.subject, v.message) for v in report.violations]


def _benchmark_path_family(seed, segments=6):
    """Derivatives equal, doubled or unrelated at the inner vertices in turn,
    and rational segment lengths, as in the benchmark's path documents."""
    rng = random.Random(f"path/{seed}")
    step = lambda: (rng.randint(-3, 3), rng.randint(1, 3))
    derivs = [step()]
    for i in range(segments - 1):
        prev = derivs[-1]
        derivs.append((prev, tuple(2 * x for x in prev), step())[i % 3])
    lengths = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(segments)]
    return path_family(derivs, lengths)


FAMILIES = {
    "point": point_family,
    "ray-wall-1": lambda: ray_wall_family((1,)),
    "ray-wall-12": lambda: ray_wall_family((1, 2)),
    "ray-wall-123": lambda: ray_wall_family((1, 2, 3)),
    "ray-wall-bad": lambda: ray_wall_family((1, 2), edge_offset=-1),
    "two-ray": two_ray_resolution_family,
    "segment": segment_family,
    "path-0": lambda: _benchmark_path_family(0),
    "path-1": lambda: _benchmark_path_family(1),
    "quadrant": quadrant_family,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_validate_family_matches_point_sampling_reference(name):
    f = FAMILIES[name]()
    found = _entries(validate_family(f))
    assert found == _entries(reference_family.validate_family(f))
    assert bool(found) == (name == "ray-wall-bad")


def _delta(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _mutate(f, rng, kind):
    """A copy of ``f`` with one coefficient changed: a length offset or linear
    entry, a position entry, an inclusion offset, or an edge slope."""
    m = copy.deepcopy(f)
    with_edges = sorted(fid for fid, d in m.face_data.items() if d.lengths)
    if kind == "length":
        data = m.face_data[rng.choice(with_edges)]
        e = rng.choice(sorted(data.lengths))
        fn = data.lengths[e]
        if fn.linear and rng.random() < 0.5:
            j = rng.randrange(len(fn.linear))
            linear = list(fn.linear)
            linear[j] += rng.choice((-1, 1))
            data.lengths[e] = AffineFn(tuple(linear), fn.offset)
        else:
            data.lengths[e] = AffineFn(fn.linear, fn.offset + _delta(rng))
    elif kind == "position":
        data = m.face_data[rng.choice(sorted(m.face_data))]
        u = rng.choice(sorted(data.positions))
        mp = data.positions[u]
        linear, offset = [list(r) for r in mp.linear], list(mp.offset)
        c = rng.randrange(len(offset))
        if linear[c] and rng.random() < 0.5:
            linear[c][rng.randrange(len(linear[c]))] += rng.choice((-1, 1))
        else:
            offset[c] += _delta(rng)
        data.positions[u] = AffineMapN(tuple(map(tuple, linear)), tuple(offset))
    elif kind == "inclusion":
        key = rng.choice(sorted(m.base.inclusions))
        inc = m.base.inclusions[key]
        offset = list(inc.offset)
        offset[rng.randrange(len(offset))] += _delta(rng)
        m.base.inclusions[key] = FaceInclusion(inc.sub, inc.super, inc.linear, tuple(offset))
    else:
        data = m.face_data[rng.choice(with_edges)]
        t = data.type
        e = rng.choice(sorted(eid for eid, _, _ in t.graph.edges))
        slopes = dict(t.slopes)
        c = rng.randrange(t.dim)
        slopes[e] = tuple(x + (1 if i == c else 0) for i, x in enumerate(slopes[e]))
        data.type = CombinatorialType(t.graph, slopes, t.dim)
    return m


@pytest.mark.parametrize("kind", ["length", "position", "inclusion", "slope"])
def test_single_mutations_match_point_sampling_reference(kind):
    rng = random.Random(f"mutate/{kind}")
    names = [n for n in sorted(FAMILIES) if n not in ("point", "ray-wall-bad")]
    axioms = set()
    for i in range(40):
        m = _mutate(FAMILIES[names[i % len(names)]](), rng, kind)
        found = _entries(validate_family(m))
        assert found == _entries(reference_family.validate_family(m)), (kind, i)
        if kind == "inclusion":
            assert _entries(validate_complex(m.base)) == \
                _entries(reference_polyhedral.validate_complex(m.base))
        axioms |= {a for a, _, _ in found}
    # the mutations reach the checks they aim at
    assert {"length": {"1", "2"}, "position": {"1", "3"}, "inclusion": {"base"},
            "slope": {"1", "contraction"}}[kind] <= axioms, axioms
