"""Cross-module properties tying families, lifts and fibers together."""

import json
import random
from fractions import Fraction

from tropmoduli import documents as docs
from tropmoduli.cli import main
from tropmoduli.exact_linalg import vec
from tropmoduli.family import induced_alpha, fiber, wall_verdict
from tropmoduli.moduli import canonical_string, enumerate_types, stratum
from tropmoduli.polyhedral import build_skeleton, star
from tropmoduli.tropcurve import stabilize

from reference_linalg import affine_apply
from helpers import (
    random_pair_data,
    ray_wall_family,
    two_ray_resolution_family,
    point_family,
)


def test_fiber_stabilization_matches_recorded_type():
    # the stabilized fiber type over any rational interior point equals the
    # face's recorded lift type
    rng = random.Random(9)
    for fam in (point_family(), ray_wall_family((1, 2, 3)), two_ray_resolution_family()):
        alpha = induced_alpha(fam)
        for fid in sorted(fam.base.faces):
            rank = fam.base.face(fid).rank
            for _ in range(5):
                q = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3))
                          for _ in range(rank))
                p = fiber(fam, fid, q)
                assert p.is_valid()
                stab = stabilize(p)
                assert canonical_string(stab.type) == alpha.lifts[fid].canonical


def test_alpha_restriction_same_type_exact():
    # identity contractions: the lift on the vertex is the restriction of the
    # lift on each ray, exactly
    fam = two_ray_resolution_family(((1, 0), (-1, 0)))
    alpha = induced_alpha(fam)
    lo = alpha.lifts["O"]
    for ray in ("R0", "R1"):
        inc = fam.base.inclusions[("O", ray)]
        lr = alpha.lifts[ray]
        assert lr.canonical == lo.canonical
        for x in [(), ]:  # the vertex chart is a point
            q = inc.apply(x)
            left = affine_apply(lo.linear, vec(lo.offset), vec(x))
            right = affine_apply(lr.linear, vec(lr.offset), q)
            assert left == right


def test_alpha_restriction_through_contraction():
    # at a wall the ray lift restricts to the wall lift through the
    # contraction: contracted lengths vanish, positions agree
    fam = ray_wall_family((1,))
    alpha = induced_alpha(fam)
    lo = alpha.lifts["O"]          # cross: no edges, one position block
    lr = alpha.lifts["R0"]         # resolution: one length + two position blocks
    inc = fam.base.inclusions[("O", "R0")]
    at_zero = affine_apply(lr.linear, vec(lr.offset), inc.apply(()))
    # coordinate layout: lengths first, then position blocks
    assert at_zero[0] == 0                      # the new edge has length 0 at the wall
    wall_positions = affine_apply(lo.linear, vec(lo.offset), vec(()))
    assert set(at_zero[1:3]) | set(at_zero[3:5]) == {wall_positions[0], wall_positions[1]} \
        or tuple(at_zero[1:3]) == tuple(at_zero[3:5]) == tuple(wall_positions)


def test_star_directions_are_primitive():
    from math import gcd
    rng = random.Random(13)
    built = 0
    while built < 5:
        d = random_pair_data(rng)
        if d is None:
            continue
        sk = build_skeleton(d)
        for fid in sorted(sk.faces):
            sd = star(sk, fid)
            assert len(sd.directions) == len(sk.cofacet_inclusions(fid))
            for _, e in sd.directions:
                g = 0
                for x in e:
                    g = gcd(g, abs(x))
                assert g == 1
        built += 1


def test_enumerated_slopes_obey_degree_bound():
    degree = ((1, 0), (1, 0), (0, 1), (-2, 0), (0, -1))
    bound = [sum(abs(s[c]) for s in degree) for c in range(2)]
    for t in enumerate_types(0, 0, degree, 2):
        for e, _, _ in t.graph.edges:
            s = t.slopes[e]
            assert all(abs(s[c]) <= bound[c] for c in range(2))
        assert not stratum(t).is_empty()


def test_cli_verdicts_payload_equals_library(tmp_path, capsys):
    fam = ray_wall_family((1, 2, 3))
    fpath = tmp_path / "family.json"
    fpath.write_text(json.dumps(docs.family_to_doc(fam)))
    assert main(["verdicts", str(fpath), "--face", "O"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    expected = docs.verdict_to_doc(wall_verdict(induced_alpha(fam), "O"))
    assert payload["verdicts"] == [expected]
