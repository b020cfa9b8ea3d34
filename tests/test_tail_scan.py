"""The auto-gamma tail scan: screened from one sort of the density table and
confirmed by exact evaluation, it must return the very BoundResult of the
full exact scan in ``oracles.tail_scan``."""
import math

import numpy as np
import pytest
from oracles import tail_scan

from genbounds import LossTable, assemble_standard, gibbs_kernel, load_fixture
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds.engine import GAMMA_STEP, _tail_bound_from_table, view_of
from genbounds.measures import DensityTable
from genbounds.prob import FiniteDistribution
from genbounds.verify import random_standard_system, random_subset_system

DELTAS = (0.5, 0.3, 0.1, 0.05, 0.01)
TAIL_BOUND = {"standard": bstd.sd_tail_bound, "subset": bsub.cond_tail_bound}


@pytest.fixture(scope="module")
def pool():
    """The three fixtures and 50 random systems of each setting."""
    rng = np.random.default_rng(505)
    systems = [load_fixture(name)[1] for name in ("inst_a", "inst_b", "inst_c")]
    for _ in range(50):
        systems += [random_standard_system(rng), random_subset_system(rng)]
    return systems


_MEMO: dict = {}


@pytest.fixture()
def exact_tails(monkeypatch):
    """Memoise ``DensityTable.tail_probability`` (a pure function of the
    table and gamma), so the full scan costs one pass per candidate rather
    than one per candidate and delta; both scans see the same values."""
    exact = DensityTable.tail_probability

    def tail_probability(tbl, gamma):
        key = (id(tbl), gamma)
        if key not in _MEMO:
            _MEMO[key] = (tbl, exact(tbl, gamma))  # the table stays alive with its key
        return _MEMO[key][1]

    monkeypatch.setattr(DensityTable, "tail_probability", tail_probability)


def _outcome(fn, *args):
    """A BoundResult, or the ValueError it raised (a delta so small that
    2 / (delta - tail) overflows)."""
    try:
        return fn(*args)
    except ValueError as err:
        return repr(err)


def _candidate_tails(tbl) -> list:
    """The exact tail mass at every scan candidate, ascending, without repeats."""
    return sorted({tbl.tail_probability(g) for v in tbl.distinct_values().tolist()
                   for g in (v, v + GAMMA_STEP)})


def _assert_same_scan(sys, deltas):
    view = view_of(sys)
    for delta in deltas:
        got = _outcome(TAIL_BOUND[sys.setting], sys, delta)
        want = _outcome(tail_scan, view.table, view.rate, delta, view.params())
        assert got == want, (sys.setting, delta)
        if isinstance(got, str) or not got.feasible:
            continue
        gamma = got.params["gamma"]
        assert got.params["tail_prob"] == view.table.tail_probability(gamma)


def test_matches_the_full_scan_on_the_pool(pool, exact_tails):
    for sys in pool:
        _assert_same_scan(sys, DELTAS)


def test_matches_the_full_scan_at_every_step_mass(pool, exact_tails):
    """delta at each exact tail mass of a candidate and at its two
    neighbouring floats, where rounding could move a candidate across
    delta. Tables with more than 40 distinct tail masses use a sample of
    12 of them, to keep the quadratic full scan short."""
    rng = np.random.default_rng(7)
    for sys in pool:
        tails = _candidate_tails(view_of(sys).table)
        if len(tails) > 40:
            tails = [tails[i] for i in np.sort(rng.choice(len(tails), 12, replace=False))]
        deltas = {d for t in tails
                  for d in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0))}
        _assert_same_scan(sys, sorted(d for d in deltas if 0.0 < d < 1.0))


def _table(log_p, iota) -> DensityTable:
    return DensityTable(np.asarray(log_p, dtype=float), np.asarray(iota, dtype=float),
                        lambda: ())


HAND_MADE = {
    # values closer together than GAMMA_STEP: v + GAMMA_STEP passes the next values
    "close values": _table(np.log([0.2, 0.1, 0.15, 0.05, 0.3, 0.2]),
                           [0.4, 0.4 + 2e-10, 0.4 + 7e-10, 0.4 + 1.3e-9, 1.1, 1.1 + 5e-10]),
    # atoms of zero mass, at the top and in between
    "zero mass": _table([math.log(0.5), -math.inf, math.log(0.3), -math.inf, math.log(0.2)],
                        [0.1, 0.9, 0.5, 2.0, 0.5 + 1e-12]),
    # ties: several atoms share each value
    "ties": _table(np.log([0.25, 0.25, 0.1, 0.1, 0.3]), [0.2, 0.2, 1.5, 1.5, 0.2]),
}


@pytest.mark.parametrize("name", list(HAND_MADE))
def test_hand_made_tables(name):
    tbl = HAND_MADE[name]
    deltas = {d for t in _candidate_tails(tbl) for d in (t, math.nextafter(t, 0.0),
                                                          math.nextafter(t, 1.0))}
    for delta in sorted(d for d in deltas | set(DELTAS) if 0.0 < d < 1.0):
        for rate in (0.5, 2.0):
            got = _outcome(_tail_bound_from_table, tbl, rate, delta, "auto", {"n": 1})
            assert got == _outcome(tail_scan, tbl, rate, delta, {"n": 1}), (delta, rate)


def test_no_gamma_meets_delta():
    """Every candidate has a negative radicand, so no gamma is feasible."""
    tbl = _table(np.log([0.6, 0.4]), [-40.0, -30.0])
    got = _tail_bound_from_table(tbl, 1.0, 0.1, "auto", {})
    assert got == tail_scan(tbl, 1.0, 0.1, {})
    assert not got.feasible
    assert got.reason == "no gamma meets the tail level delta"
    assert got.params["gamma"] == "auto"


def test_screened_tails_match_exact_tails(pool, exact_tails):
    for sys in pool:
        tbl = view_of(sys).table
        values = tbl.distinct_values()
        gammas = np.concatenate([values, values + GAMMA_STEP, [values[0] - 1.0]])
        screened = tbl.tail_probabilities(gammas)
        exact = np.array([tbl.tail_probability(g) for g in gammas.tolist()])
        np.testing.assert_allclose(screened, exact, rtol=1e-12, atol=0.0)


def test_few_exact_evaluations_on_a_large_gibbs_table(monkeypatch):
    """One auto-gamma call on a 24,576-atom Gibbs table evaluates a handful
    of tails exactly instead of two per distinct value."""
    rng = np.random.default_rng(11)
    losses = rng.integers(0, 2 ** 16 + 1, size=(6, 4)) / 2 ** 16
    loss = LossTable(tuple(range(6)), tuple(range(4)), losses, 0.0, 1.0)
    pz = FiniteDistribution.from_probs(loss.instances, np.full(4, 0.25))
    sys = assemble_standard(pz, 6, gibbs_kernel(loss, 6, 2.0), loss)
    tbl = view_of(sys).table
    assert tbl.iota.size == 24_576
    calls = []
    exact = DensityTable.tail_probability
    monkeypatch.setattr(DensityTable, "tail_probability",
                        lambda self, g: calls.append(g) or exact(self, g))
    res = bstd.sd_tail_bound(sys, 0.1)
    assert res.feasible
    assert 1 <= len(calls) <= 5 < 2 * len(tbl.distinct_values())
