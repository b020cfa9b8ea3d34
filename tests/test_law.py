"""The sorted law of a system's bounded value (gen, or the test-minus-train
gap). ``verify._pushforward`` keys each value by Python's ``round(v, 12)``,
computed on arrays and confirmed in Python only near a half; ``quantile``
and ``abs_quantile`` read one cumulative sum each from the system's default
view. Both must equal the dict-and-loop references exactly: Python's
``round``, and ``oracles.quantile``/``oracles.abs_quantile`` on the
system's ``FiniteDistribution``. They are checked on the fixtures, the
random pools and the benchmark's job shapes of ``test_orbits``, the
north-star problem at several n, loss ranges far above the unit range, and
levels q that put a cumulative mass exactly at q - 1e-12.
"""
import math

import numpy as np
import pytest

import oracles
from genbounds import load_problem
from genbounds.engine import view_of
from genbounds.verify import _round12, abs_quantile, exact_gen_distribution, quantile
from test_orbits import DELTAS, _north_star, pools  # noqa: F401 (a fixture)

LEVELS = (0.0, 0.05, 0.5, 0.7, 0.9, 0.95, 1.0) + tuple(1.0 - d for d in DELTAS)


def _assert_python_round(values):
    """The array keys of every distinct value are Python's ``round(v, 12)``,
    bit for bit (so a zero key keeps its sign)."""
    distinct = np.unique(values)
    want = np.array([round(v, 12) for v in distinct.tolist()])
    assert _round12(distinct).tobytes() == want.tobytes()
    return distinct, want


def _same(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _boundary_levels(masses, limit):
    """Levels q at which q - 1e-12 equals a cumulative mass of ``masses``
    (summed in order, as the oracle sums them), with the levels one ulp
    either side; at most ``limit`` cumulative masses, evenly spaced."""
    cum = np.cumsum(masses)
    levels = []
    for c in cum[np.linspace(0, len(cum) - 1, min(limit, len(cum))).astype(int)].tolist():
        near = c + 1e-12
        for q in (near, math.nextafter(near, 0.0), math.nextafter(near, 2.0)):
            if q - 1e-12 == c:
                levels += [math.nextafter(q, 0.0), q, math.nextafter(q, 2.0)]
                break
    return levels


def _abs_masses(dist):
    """The masses of the distinct |values| of ``dist``, ascending, each
    summed in the order of the values."""
    groups = {}
    for o, m in zip(dist.outcomes, dist.mass):
        groups[abs(o)] = groups.get(abs(o), 0.0) + float(m)
    return [groups[k] for k in sorted(groups)]


def _assert_quantiles_match(sys, limit, levels=LEVELS):
    """``quantile`` and ``abs_quantile`` equal the oracles at ``levels`` and
    at boundary levels; returns the number of boundary levels checked."""
    dist = exact_gen_distribution(sys)  # the gap's law in the subset setting
    plain = list(levels) + _boundary_levels(dist.mass, limit)
    absolute = list(levels) + _boundary_levels(_abs_masses(dist), limit)
    for q in plain:
        assert _same(quantile(sys, q), oracles.quantile(dist, q)), q
    for q in absolute:
        assert _same(abs_quantile(sys, q), oracles.abs_quantile(dist, q)), q
    return len(plain) + len(absolute) - 2 * len(levels)


def test_keys_are_pythons_round_on_the_pools(pools):
    for setting in ("standard", "subset"):
        for sys in pools[setting]:
            _assert_python_round(view_of(sys).values)


def test_keys_are_pythons_round_at_n_80():
    # 179 of the 641,133 distinct values have a float product v * 1e12 on an
    # integer plus one half, where np.round and Python's round disagree
    sys = load_problem(_north_star(80))[1]
    distinct, want = _assert_python_round(sys.rows.gen)
    differs = np.round(distinct, 12) != want
    assert distinct.size == 641_133 and np.count_nonzero(differs) == 179
    assert np.all(np.abs(distinct[differs] * 1e12) % 1.0 == 0.5)


@pytest.mark.parametrize("high, far_from_half", [(1_000.0, False), (100_000.0, True)])
def test_keys_are_pythons_round_over_a_wide_loss_range(high, far_from_half):
    # The products v * 1e12 reach about 6e14 and 6e16, where their ulp is
    # above 1e-3, so the window reaches further from a half. Below 2^52 the
    # plain rint errs only on a product at an exact half; at 6e16 (an ulp of
    # 8) it also errs far from any half, where a window of fixed width fails.
    doc = _north_star(8)
    rng = np.random.default_rng(3)
    doc["loss"] = {"hypotheses": list(range(8)), "range": [0.0, high],
                   "matrix": rng.uniform(0.0, high, size=(8, 4)).tolist()}
    doc["learner"] = {"kind": "erm"}
    distinct, want = _assert_python_round(load_problem(doc)[1].rows.gen)
    scaled = np.abs(distinct * 1e12)
    off_half = np.abs(scaled % 1.0 - 0.5)
    assert np.any((off_half > 1e-3) & (off_half <= np.spacing(scaled)))
    plain = np.rint(distinct * 1e12) / 1e12
    assert np.any((plain != want) & (off_half > 1e-3)) == far_from_half


def test_quantiles_equal_the_oracles_on_the_pools(pools):
    boundary, pairs = 0, 0
    for setting in ("standard", "subset"):
        for sys in pools[setting]:
            boundary += _assert_quantiles_match(sys, limit=40)
            outcomes = set(exact_gen_distribution(sys).outcomes)
            pairs += any(-o in outcomes for o in outcomes if o != 0.0)
    assert boundary > 0 and pairs > 0  # exact boundaries and laws with +-x pairs


@pytest.mark.parametrize("n, limit", [(10, 30), (20, 10), (40, 3)])
def test_quantiles_equal_the_oracles_on_the_north_star(n, limit):
    sys = load_problem(_north_star(n))[1]
    assert _assert_quantiles_match(sys, limit, tuple(1.0 - d for d in DELTAS)) > 0
