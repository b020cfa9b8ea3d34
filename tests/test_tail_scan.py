"""The auto-gamma tail bound: one tail read at every attained density value
must return the very BoundResult of ``oracles.tail_scan_strict``, which
evaluates each of them as an explicit gamma, and must never lose to the
earlier rule of ``oracles.tail_scan`` (non-strict tails, values and values
plus 1e-9)."""
import math

import numpy as np
import pytest
from oracles import tail_scan, tail_scan_strict

from genbounds import LossTable, assemble_standard, gibbs_kernel, load_fixture
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds.engine import _tail_bound_from_table, view_of
from genbounds.measures import DensityTable
from genbounds.prob import FiniteDistribution, logsumexp
from genbounds.verify import coverage, random_standard_system, random_subset_system

DELTAS = (0.5, 0.3, 0.1, 0.05, 0.01)
TAIL_BOUND = {"standard": bstd.sd_tail_bound, "subset": bsub.cond_tail_bound}
TAIL_ID = {"standard": "sd_tail", "subset": "cond_tail"}


@pytest.fixture(scope="module")
def pool():
    """The three fixtures and 50 random systems of each setting."""
    rng = np.random.default_rng(505)
    systems = [load_fixture(name)[1] for name in ("inst_a", "inst_b", "inst_c")]
    for _ in range(50):
        systems += [random_standard_system(rng), random_subset_system(rng)]
    return systems


def _step_masses(tbl) -> list:
    """Every delta in (0, 1) at a candidate's exact tail mass or at one of its
    two neighbouring floats, where rounding could move it across delta."""
    tails = set(tbl.tail_probability(tbl.distinct_values()).tolist())
    deltas = {d for t in tails for d in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0))}
    return sorted(d for d in deltas if 0.0 < d < 1.0)


def _assert_strict_scan(sys, deltas):
    view = view_of(sys)
    for delta in deltas:
        got = TAIL_BOUND[sys.setting](sys, delta)
        assert got == tail_scan_strict(view.table, view.rate, delta, view.params()), (
            sys.setting, delta)
        if got.feasible:
            assert got.params["tail_prob"] == view.table.tail_probability(
                got.params["gamma"])


def test_matches_the_full_scan_on_the_pool(pool):
    for sys in pool:
        _assert_strict_scan(sys, DELTAS)


def test_matches_the_full_scan_at_every_step_mass(pool):
    """Tables with more than 120 such levels use a sample of 36 of them."""
    rng = np.random.default_rng(7)
    for sys in pool:
        deltas = _step_masses(view_of(sys).table)
        if len(deltas) > 120:
            deltas = [deltas[i] for i in np.sort(rng.choice(len(deltas), 36, replace=False))]
        _assert_strict_scan(sys, deltas)


def test_never_worse_than_the_earlier_rule(pool):
    """On the pool at the standard levels: epsilon no larger, no feasible
    row lost, and the exact violation probability within delta."""
    for sys in pool:
        view = view_of(sys)
        for delta in DELTAS:
            new = TAIL_BOUND[sys.setting](sys, delta)
            old = tail_scan(view.table, view.rate, delta, view.params())
            assert new.feasible or not old.feasible, (sys.setting, delta)
            assert new.epsilon <= old.epsilon, (sys.setting, delta)
            viol = coverage(sys, TAIL_ID[sys.setting], delta).exact_violation_prob
            assert viol <= delta, (sys.setting, delta)


def _table(log_p, iota) -> DensityTable:
    return DensityTable(np.asarray(log_p, dtype=float), np.asarray(iota, dtype=float),
                        lambda: ())


HAND_MADE = {
    # values closer together than the earlier rule's 1e-9 step
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
    for delta in sorted(set(_step_masses(tbl)) | set(DELTAS)):
        for rate in (0.5, 2.0):
            got = _tail_bound_from_table(tbl, rate, delta, "auto", {"n": 1})
            assert got == tail_scan_strict(tbl, rate, delta, {"n": 1}), (delta, rate)


def test_no_gamma_meets_delta():
    """The one candidate whose tail is below delta has a negative radicand,
    so no gamma is feasible, and the reason names the radicand."""
    tbl = _table(np.log([0.6, 0.4]), [-40.0, -30.0])
    got = _tail_bound_from_table(tbl, 1.0, 0.1, "auto", {})
    assert got == tail_scan_strict(tbl, 1.0, 0.1, {})
    assert not got.feasible
    assert got.reason == "negative radicand"
    assert got.params["gamma"] == "auto"


def test_no_tail_below_delta_names_the_tail_level():
    """The largest value's strict tail is 0, so only a level of 0 (which
    the bounds refuse before the scan) leaves no tail below it."""
    tbl = _table(np.log([0.5, 0.5]), [1.0, 2.0])
    got = _tail_bound_from_table(tbl, 1.0, 0.0, "auto", {})
    assert got == tail_scan_strict(tbl, 1.0, 0.0, {})
    assert got.reason == "no gamma meets the tail level delta"


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_an_unusable_rate_names_the_radicand(rate):
    """Tails below delta exist, but every radicand is infinite or NaN."""
    tbl = _table(np.log([0.6, 0.4]), [0.0, 1.0])
    got = _tail_bound_from_table(tbl, rate, 0.1, "auto", {})
    assert got == tail_scan_strict(tbl, rate, 0.1, {})
    assert got.reason == "radicand is NaN or overflows"


def test_strict_tails_match_a_masked_sum(pool):
    """P[iota > gamma] from the one sort agrees with the masked sum to
    1e-12, and a float gamma reads the entry an array of gammas does."""
    for sys in pool:
        tbl = view_of(sys).table
        values = tbl.distinct_values()
        gammas = np.concatenate([values, (values[1:] + values[:-1]) / 2,
                                 [values[0] - 1.0]])
        tails = tbl.tail_probability(gammas)
        for g, tail in zip(gammas.tolist(), tails.tolist()):
            mask = tbl.iota > g
            exact = math.exp(logsumexp(tbl.log_p[mask])) if mask.any() else 0.0
            assert tail == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert tbl.tail_probability(g) == tail


def test_few_exact_evaluations_on_a_large_gibbs_table(monkeypatch):
    """One auto-gamma call on a 32,736-atom Gibbs table (C(33, 3) types of
    the 4^30 z-vectors, times 6 hypotheses) reads the tails once, for every
    distinct value together."""
    rng = np.random.default_rng(11)
    losses = rng.integers(0, 2 ** 16 + 1, size=(6, 4)) / 2 ** 16
    loss = LossTable(tuple(range(6)), tuple(range(4)), losses, 0.0, 1.0)
    pz = FiniteDistribution.from_probs(loss.instances, np.full(4, 0.25))
    sys = assemble_standard(pz, 30, gibbs_kernel(loss, 30, 2.0), loss)
    tbl = view_of(sys).table
    assert tbl.iota.size == 32_736
    calls = []
    exact = DensityTable.tail_probability
    monkeypatch.setattr(DensityTable, "tail_probability",
                        lambda self, g: calls.append(g) or exact(self, g))
    res = bstd.sd_tail_bound(sys, 0.1)
    assert res.feasible
    assert len(calls) == 1 and calls[0] is tbl.distinct_values()


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_an_explicit_gamma_without_a_finite_radicand_is_infeasible(gamma):
    got = _tail_bound_from_table(HAND_MADE["ties"], 1.0, 0.1, gamma, {})
    assert not got.feasible and got.reason == "radicand is NaN or overflows"
