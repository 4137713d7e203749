"""``build_skeleton`` against the reference in ``reference_polyhedral``.

On valid pair data both must give the same complex document; on data made
inconsistent in one way they must raise the same exception type (the
reference walks sets, so its message may name another stratum).
"""

import random
from fractions import Fraction

from tropmoduli import documents as docs
from tropmoduli.polyhedral import SemistablePairData, Stratum, build_skeleton

import reference_polyhedral
from helpers import random_pair_data, ray_pair_data, segment_pair_data, triangle_pair_data


def _outcome(build, d):
    try:
        return docs.complex_to_doc(build(d))
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def _broken(d, rng):
    """``d`` made inconsistent in one of seven ways (some may stay valid)."""
    strata, order = list(d.strata), list(d.order)
    s = rng.choice(strata)
    kind = rng.randrange(7)
    if kind == 0 and order:  # a cycle
        a, b = rng.choice(order)
        order.append((b, a))
    elif kind == 1:  # an unknown stratum
        order.append((s.id, "nowhere"))
    elif kind == 2:  # a new length, which comparable strata sharing a vertical pair refuse
        strata[strata.index(s)] = Stratum(s.id, s.verticals, s.horizontals, s.length + 1)
    elif kind == 3:
        strata[strata.index(s)] = Stratum(s.id, s.verticals, s.horizontals, Fraction(0))
    elif kind == 4:
        strata.append(s)
    elif kind == 5:  # a support that no longer shrinks, or is shared
        strata[strata.index(s)] = Stratum(s.id, s.verticals[:1], (), s.length)
    else:  # two strata in reverse
        a, b = rng.sample(strata, 2) if len(strata) > 1 else (s, s)
        order.append((b.id, a.id))
    return SemistablePairData(d.vertical_components, d.horizontal_components, tuple(strata),
                              tuple(order))


def test_fixed_pairs_match_the_reference():
    for d in (triangle_pair_data(), triangle_pair_data(3), segment_pair_data(),
              segment_pair_data(Fraction(5, 2)), ray_pair_data()):
        assert _outcome(build_skeleton, d) == _outcome(reference_polyhedral.build_skeleton, d)


def test_random_pairs_match_the_reference():
    rng = random.Random(7)
    valid = invalid = 0
    while valid < 300:
        d = random_pair_data(rng)
        if d is None:
            continue
        got = _outcome(build_skeleton, d)
        assert isinstance(got, dict) and got == _outcome(reference_polyhedral.build_skeleton, d)
        valid += 1
        bad = _broken(d, rng)
        got = _outcome(build_skeleton, bad)
        assert got == _outcome(reference_polyhedral.build_skeleton, bad), (bad, got)
        invalid += not isinstance(got, dict)
    assert invalid > 150
