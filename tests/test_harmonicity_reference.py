"""``harmonicity_at`` on integer rows against ``reference_harmonicity_at``,
the ``Fraction`` path it replaced.

Both must give the same verdict, certificate and derivatives on the
criterion-2 grid, on seeded fans and books, and at every face that the
``verdicts`` verb decides for the verdict fixtures.  The integer path is
pinned too: it calls none of the ``Fraction`` helpers, hands the LP only
ints, and raises ``DimMismatch`` on misshapen maps.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import tropmoduli.family
from tropmoduli import documents as docs
from tropmoduli import exact_linalg, polyhedral
from tropmoduli.cli import main
from tropmoduli.errors import DimMismatch
from tropmoduli.polyhedral import (
    Face,
    FaceInclusion,
    Harmonicity,
    PIAMap,
    Polyhedron,
    PolyhedralComplex,
    harmonicity_at,
    star,
)

from helpers import (
    fan_complex,
    fan_map,
    path_family,
    quadrant_family,
    ray_wall_family,
    segment_family,
    two_ray_resolution_family,
)
from reference_polyhedral import reference_harmonicity_at


def _same(m, w):
    got, want = harmonicity_at(m, w), reference_harmonicity_at(m, w)
    assert (got.verdict, got.certificate, got.derivatives) == \
        (want.verdict, want.certificate, want.derivatives), (w, got, want)
    assert all(type(x) is int for d in got.derivatives for x in d)
    return got.verdict


def test_criterion_2_grid_matches_the_reference():
    values = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    seen = Counter()
    for k in (1, 2, 3, 4):
        c = fan_complex(k)
        for combo in combinations_with_replacement(values, k):
            seen[_same(fan_map(c, list(combo)), "O")] += 1
    assert len(seen) == 3, seen


def _derivatives(rng, k, dim, kind, a):
    """k integer derivatives: ``balanced`` sum to a multiple of ``a``,
    ``positive`` have a relation with coefficients 1 to 3 modulo ``a``, and
    ``random`` are unconstrained."""
    ds = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(k)]
    if kind == "random":
        return ds
    coef = [1 if kind == "balanced" else rng.randint(1, 3) for _ in range(k - 1)]
    shift = rng.randint(-2, 2)
    ds[-1] = tuple(shift * a[c] - sum(x * d[c] for x, d in zip(coef, ds)) for c in range(dim))
    return ds


def _unimodular(rng):
    """A 2x2 integer matrix of determinant ±1 and its inverse."""
    x, y = rng.randint(-2, 2), rng.randint(-2, 2)
    g, ginv = ((1 + x * y, x), (y, 1)), ((1, -x), (-y, 1 + x * y))
    if rng.random() < 0.5:  # reflect the second basis vector
        g, ginv = ((g[0][0], -g[0][1]), (g[1][0], -g[1][1])), (ginv[0], tuple(-v for v in ginv[1]))
    return g, ginv


def book_map(rng, a, derivatives, wall_rows=None):
    """Half-planes Q_i glued along a line W, each in its own unimodular
    chart: the map sends W's direction to ``a`` and Q_i's second chart
    basis vector to derivatives[i]."""
    dim = len(a)
    zero = (Fraction(0),) * dim
    faces, incs = [Face("W", 1, Polyhedron(1))], []
    per_face = {"W": (wall_rows or tuple((x,) for x in a), zero)}
    for i, d in enumerate(derivatives):
        g, ginv = _unimodular(rng)
        faces.append(Face(f"Q{i}", 2, Polyhedron(2, [(ginv[1], 0)])))
        incs.append(FaceInclusion(sub="W", super=f"Q{i}", linear=((g[0][0],), (g[1][0],)),
                                  offset=(Fraction(0), Fraction(0))))
        per_face[f"Q{i}"] = (tuple((a[c] * ginv[0][0] + d[c] * ginv[1][0],
                                    a[c] * ginv[0][1] + d[c] * ginv[1][1]) for c in range(dim)),
                             zero)
    return PIAMap(PolyhedralComplex(faces, incs), dim, per_face)


@pytest.mark.parametrize("shape", ["fan", "book"])
def test_seeded_stars_match_the_reference(shape):
    rng = random.Random(24)
    seen = Counter()
    for i in range(240):
        k, dim, kind = rng.randint(2, 6), rng.randint(2, 3), ("balanced", "positive", "random")[i % 3]
        a = tuple(rng.randint(-2, 2) for _ in range(dim)) if shape == "book" else (0,) * dim
        ds = _derivatives(rng, k, dim, kind, a)
        if shape == "fan":
            seen[_same(fan_map(fan_complex(k), ds), "O")] += 1
        else:
            seen[_same(book_map(rng, a, ds), "W")] += 1
    assert len(seen) == 3, seen


VERDICT_FAMILIES = {
    "ray_wall_1": ray_wall_family((1,)),
    "ray_wall_12": ray_wall_family((1, 2)),
    "ray_wall_123": ray_wall_family((1, 2, 3)),
    "segment": segment_family(),
    "two_ray_balanced": two_ray_resolution_family(((1, 0), (-1, 0))),
    "two_ray_positive": two_ray_resolution_family(((1, 0), (-2, 0))),
    "two_ray_none": two_ray_resolution_family(((1, 0), (0, 1))),
    "path": path_family([(1, 2), (2, 4)], [Fraction(3, 2), 2]),
    "quadrant": quadrant_family(),
}


def test_verdicts_fixtures_match_the_reference(tmp_path, monkeypatch):
    """Every ``harmonicity_at`` call the ``verdicts`` verb makes on the
    fixture families is checked against the reference."""
    seen = Counter()

    def both(m, w):
        seen[_same(m, w)] += 1
        return harmonicity_at(m, w)

    monkeypatch.setattr(tropmoduli.family, "harmonicity_at", both)
    out = tmp_path / "report.json"
    for name, fam in VERDICT_FAMILIES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(docs.family_to_doc(fam)))
        assert main(["verdicts", str(path), "-o", str(out)]) == 0, name
    assert len(seen) == 3, seen


def test_harmonicity_runs_on_integer_rows(monkeypatch):
    """No ``frac``, ``vec`` or ``vec_add`` call, and only int
    coefficients reach ``lp_maximize``.  ``star`` reads the inclusion
    offsets and is cached per complex, so it runs once before the patch."""
    c = fan_complex(3)
    maps = [fan_map(c, ds) for ds in ([(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, -2)],
                                      [(1, 0), (0, 1), (1, 1)])]
    books = [book_map(random.Random(1), (1, 0, 2), [(0, 1, 0), (1, -2, 2)]),
             book_map(random.Random(2), (1, 0, 2), [(0, 1, 0), (1, 1, 2)])]
    star(c, "O")
    for m in books:
        star(m.source, "W")

    def forbidden(*args):
        raise AssertionError("a Fraction helper ran on the harmonicity path")

    for module in (exact_linalg, polyhedral):
        for name in ("frac", "vec", "vec_add"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    entries = []
    lp_maximize = exact_linalg.lp_maximize

    def recording(objective, eqs, ineqs, nonneg):
        entries.extend(objective)
        for coef, rhs in (*eqs, *ineqs):
            entries.extend((*coef, rhs))
        return lp_maximize(objective, eqs, ineqs, nonneg)

    monkeypatch.setattr(exact_linalg, "lp_maximize", recording)
    verdicts = [harmonicity_at(m, "O").verdict for m in maps] + \
        [harmonicity_at(m, "W").verdict for m in books]
    assert verdicts == [Harmonicity.HARMONIC, Harmonicity.QUASI_HARMONIC_ONLY,
                        Harmonicity.NOT_QUASI_HARMONIC, Harmonicity.QUASI_HARMONIC_ONLY,
                        Harmonicity.NOT_QUASI_HARMONIC]
    assert entries and all(type(x) is int for x in entries)


def test_misshapen_maps_raise_dim_mismatch():
    c = fan_complex(2)
    zero = (Fraction(0), Fraction(0))
    base = {"O": (((), ()), zero), "R1": (((1,), (0,)), zero)}
    # a cofacet row wider than the star direction
    wide = PIAMap(c, 2, {**base, "R0": (((1, 0), (0, 0)), zero)})
    # a derivative of length 3 into a target of dimension 2
    long = PIAMap(c, 2, {**base, "R0": (((1,), (0,), (0,)), (Fraction(0),) * 3)})
    # an image row of length 3: the wall's map has three rows
    wall = book_map(random.Random(3), (1, 0), [(0, 1), (0, -1)], wall_rows=((1,), (0,), (0,)))
    for m, w in ((wide, "O"), (long, "O"), (wall, "W")):
        with pytest.raises(DimMismatch):
            harmonicity_at(m, w)
