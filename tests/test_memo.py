"""Each delta-independent term is computed once per view: the central moment
and the posterior-KL norm per order t, the Renyi divergence and the
conditional alpha-MI per order alpha, the subset joint and the |value|
arrays of ``coverage``. A warm view must give exactly what a fresh one
gives, an auxiliary view keeps its terms to itself, and levels delta so
small that c / delta overflows give a bound or an infeasible result."""
import math
import pickle
import warnings
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest

import oracles
from genbounds import FiniteDistribution, Kernel, cli, engine, load_fixture
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds import verify
from genbounds.engine import view_of
from genbounds.measures import T_INF, normalize_order
from genbounds.models import expected_gen_hat, expected_gen_subset
from genbounds.verify import BOUNDS, random_standard_system, random_subset_system

DELTAS = (0.5, 0.3, 0.1, 0.05, 0.01)
# t and alpha never matter to the same bound, so pairing them covers both grids
ORDERS = ((1, 1.5), (2, 2.0), (3, 3.0), ("inf", 2.0))
FIXTURES = {"standard": ("inst_a", "inst_c"), "subset": ("inst_b",)}


def _fresh(name):
    """A fixture system no other test has warmed."""
    return load_fixture(name)[1]


def _counter(monkeypatch, owner, name, key):
    """Counts of ``key(*args)`` over the calls of ``owner.name`` from now on."""
    counts = Counter()
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: counts.update([key(*a)]) or fn(*a))
    return counts


def _report_and_coverage(sys, deltas=(0.3, 0.1, 0.05)):
    cli._report_rows(sys, {"deltas": list(deltas)})
    for delta in deltas:
        for bound_id in verify.coverage_ids(sys.setting):
            verify.coverage(sys, bound_id, delta)


@pytest.mark.parametrize("name", ["inst_a", "inst_b", "inst_c"])
def test_one_central_moment_per_order(monkeypatch, name):
    counts = _counter(monkeypatch, engine, "central_moment",
                      key=lambda tbl, t: (id(tbl), normalize_order(t)))
    sys = _fresh(name)
    _report_and_coverage(sys)
    for t in (1, 2.0, 3, "inf"):
        for delta in DELTAS:
            verify.coverage(sys, "sd_moment" if sys.setting == "standard"
                            else "cond_sd_moment", delta, {"t": t})
    if sys.setting == "standard":
        bstd.chain_report(sys, 0.1)
    assert counts and set(counts.values()) == {1}
    assert {t for _, t in counts} == {1.0, 2.0, 3.0, T_INF}


@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_one_renyi_divergence_per_order(monkeypatch, setting):
    # both settings' views inherit the one Renyi formula from the base view
    counts = _counter(monkeypatch, engine, "_renyi", key=lambda arrays, alpha: alpha)
    sys = _fresh(FIXTURES[setting][0])
    bound = bstd.sd_renyi_bound if setting == "standard" else bsub.cond_sd_renyi_pair_bound
    for delta in DELTAS:
        bound(sys, delta, 2.0)  # its own conjugate
    assert counts == {2.0: 1}
    for delta in DELTAS:
        bound(sys, delta, 3.0)  # conjugate 1.5
        bound(sys, delta, 1.5)
    assert counts == {2.0: 1, 3.0: 1, 1.5: 1}


def test_one_conditional_alpha_mi_per_order(monkeypatch):
    counts = _counter(monkeypatch, engine, "_alpha_mi", key=lambda *a: a[-1])
    sys = _fresh("inst_b")
    for alpha in (1.5, 2.0, 3.0):
        for delta in DELTAS:
            bsub.cond_alpha_mi_bound(sys, delta, alpha)
            verify.coverage(sys, "cond_alpha_mi", delta, {"alpha": alpha})
    assert counts == {1.5: 1, 2.0: 1, 3.0: 1}


def test_one_subset_joint_per_view():
    sys = _fresh("inst_b")
    joint = sys.rows.joint  # stored once at assembly, read by every later user
    view_of(sys).table
    for delta in DELTAS:
        for bound_id in verify.coverage_ids("subset"):
            verify.coverage(sys, bound_id, delta)
    expected_gen_subset(sys), expected_gen_hat(sys)
    assert view_of(sys).joint is sys.joint is joint  # the record's rows, not a copy


def _results(sys, order):
    """Every registry result and coverage report of ``sys`` at ``order``,
    over every delta, keyed by (bound id, delta)."""
    t, alpha = order
    out = {}
    for bound_id, entry in BOUNDS.items():
        if entry.setting != sys.setting:
            continue
        for delta in DELTAS:
            res = entry.evaluate(sys, delta, t, alpha, "auto")
            cov = (verify.coverage(sys, bound_id, delta, {"t": t, "alpha": alpha})
                   if entry.covers else None)
            out[bound_id, delta] = (res, cov)
    return out


def _assert_equal(warm, fresh):
    assert warm.keys() == fresh.keys()
    for key, (res, cov) in warm.items():
        other, other_cov = fresh[key]
        if isinstance(res, np.ndarray):
            np.testing.assert_array_equal(res, other)  # NaN marks infeasible
        else:
            assert res == other, key
        assert cov == other_cov, key


@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_a_warm_view_gives_what_a_fresh_one_gives(setting):
    rng = np.random.default_rng(515)
    draw = random_standard_system if setting == "standard" else random_subset_system
    systems = [_fresh(name) for name in FIXTURES[setting]]
    systems += [draw(rng) for _ in range(25)]
    for sys in systems:
        # the warm system sees every order before it is compared; each fresh
        # copy computes its terms for the first time at the order compared
        warm = {order: _results(sys, order) for order in ORDERS}
        for order in reversed(ORDERS):
            _assert_equal(warm[order], _results(pickle.loads(pickle.dumps(sys)), order))


def test_an_auxiliary_view_memoises_nothing_into_the_default_view():
    sys = _fresh("inst_a")
    q_w = FiniteDistribution.from_probs(sys.w_labels, np.full(len(sys.w_labels),
                                                              1.0 / len(sys.w_labels)))
    assert not np.allclose(q_w.mass, oracles.system_arrays(sys)["pw"])

    def aux(s):
        return (bstd.sd_moment_bound(s, 0.1, 3, q_w=q_w),
                bstd.pacb_moment_bound(s, 0.1, 3, q_w=q_w),
                bstd.sd_renyi_bound(s, 0.1, 3.0, q_w=q_w))

    expected = aux(pickle.loads(pickle.dumps(sys)))  # no default view exists yet
    default = (bstd.sd_moment_bound(sys, 0.1, 3), bstd.pacb_moment_bound(sys, 0.1, 3),
               bstd.sd_renyi_bound(sys, 0.1, 3.0))
    memo = dict(view_of(sys)._memo)
    assert aux(sys) == expected != default
    assert view_of(sys)._memo == memo


def test_an_auxiliary_conditional_memoises_nothing_into_the_default_view():
    sys = _fresh("inst_b")
    # a conditional that differs from P_{W|Z-tilde} but charges every hypothesis
    q = Kernel({zt: FiniteDistribution.from_probs(sys.w_labels, 0.5 * row + 0.25)
                for zt, row in zip(sys.rows.grids[0].vectors(),
                                   oracles.system_arrays(sys)["pw_given"])})
    c = bsub.delta_constant(lambda z1, z2: float(z1 != z2), sys.pz, sys.loss)

    def aux(s):
        return (bsub.cond_sd_moment_bound(s, 0.1, 3, q_kernel=q),
                bsub.cond_pacb_moment_bound(s, 0.1, 3, q_kernel=q),
                bsub.cond_sd_renyi_pair_bound(s, 0.1, 3.0, q_kernel=q),
                bsub.cond_alpha_mi_bound(s, 0.1, 3.0, c=c))

    expected = aux(pickle.loads(pickle.dumps(sys)))
    default = (bsub.cond_sd_moment_bound(sys, 0.1, 3), bsub.cond_pacb_moment_bound(sys, 0.1, 3),
               bsub.cond_sd_renyi_pair_bound(sys, 0.1, 3.0),
               bsub.cond_alpha_mi_bound(sys, 0.1, 3.0))
    memo = dict(view_of(sys)._memo)
    assert aux(sys) == expected
    assert all(a != d for a, d in zip(expected, default))
    assert view_of(sys)._memo == memo


def test_fractional_order_kl_norm_of_rounded_negative_kls():
    # conditional posterior KLs of these draws round to about -1e-16; at a
    # fractional t their power was NaN and the bound raised
    rng = np.random.default_rng(11)
    for _ in range(40):
        sys = random_subset_system(rng)
        view = view_of(sys)
        res = bsub.cond_pacb_moment_bound(sys, 0.1, 1.5)
        assert res.feasible and math.isfinite(res.epsilon)
        norm = float(np.sum(view.mass * np.abs(view.kls) ** 1.5)) ** (1 / 1.5)
        assert view._memo["kl_norm", 1.5] == norm


def _decimal_norm(x, mass, t):
    """(sum mass |x|^t)^(1/t) in 50-digit decimals, over |x| relative to its
    maximum so that no power leaves the decimal exponent range; the masses
    at each distinct |x| are added first."""
    by_value = {}
    for v, m in zip(np.abs(x).tolist(), mass.tolist()):
        by_value[v] = by_value.get(v, 0) + Decimal(m)
    top = Decimal(max(by_value))
    if top == 0:
        return top
    total = sum(m * (t * (Decimal(v) / top).ln()).exp() for v, m in by_value.items() if v)
    return top * (total.ln() / t).exp()


@pytest.mark.parametrize("t", [1e3, 1e5, 1e308])
def test_large_order_moment_bounds_equal_a_decimal_reference(t):
    # at t = 1e5 the linear KL sum underflowed to 0 on inst_b and overflowed
    # on inst_a; at t = 1e308 t log|iota - mean| overflowed
    rng = np.random.default_rng(12)
    systems = [_fresh("inst_a"), _fresh("inst_b")]
    for _ in range(10):
        systems += [random_standard_system(rng), random_subset_system(rng)]
    delta = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sys in systems:
            view = view_of(sys)
            pacb = (bstd.pacb_moment_bound if sys.setting == "standard"
                    else bsub.cond_pacb_moment_bound)(sys, delta, t)
            sd = (bstd.sd_moment_bound if sys.setting == "standard"
                  else bsub.cond_sd_moment_bound)(sys, delta, t)
            table, pos = view.table, view.mass > 0
            with localcontext() as ctx:
                ctx.prec = 50
                tt, log_2_delta = Decimal(t), (2 / Decimal(delta)).ln()
                inflate = (log_2_delta / tt).exp()
                kl = _decimal_norm(view.kls[pos], view.mass[pos], tt)
                dev = _decimal_norm(table.iota - table.mean, np.exp(table.log_p), tt)
                rate = Decimal(view.rate)
                want_pacb = float((rate * (kl * inflate + log_2_delta)).sqrt())
                want_sd = float((rate * (Decimal(table.mean) + dev * inflate
                                         + log_2_delta)).sqrt())
            assert pacb.feasible and sd.feasible
            assert abs(pacb.epsilon - want_pacb) <= 1e-12 * want_pacb
            assert abs(sd.epsilon - want_sd) <= 1e-12 * want_sd


def test_a_nan_radicand_is_infeasible_with_a_reason(inst_a):
    view = view_of(inst_a)
    for term, reason in ((math.nan, "radicand is NaN or overflows"),
                         (math.inf, "radicand is NaN or overflows"),
                         (-1.0, "negative radicand")):
        res = view.sqrt_bound(term, "single-draw", "data-independent", {})
        assert not res.feasible and res.epsilon == math.inf and res.reason == reason


def _check_result(res):
    if isinstance(res, np.ndarray):
        return
    assert (res.feasible and math.isfinite(res.epsilon)) or (not res.feasible and res.reason)


@pytest.mark.parametrize("delta", [1e-310, 5e-324])
@pytest.mark.parametrize("name", ["inst_a", "inst_b", "inst_c"])
def test_a_tiny_delta_gives_a_bound_or_a_reason(name, delta):
    sys = _fresh(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound_id, entry in BOUNDS.items():
            if entry.setting != sys.setting:
                continue
            for t, alpha in ORDERS + ((1.5, 1.5),):
                _check_result(entry.evaluate(sys, delta, t, alpha, "auto"))
                if entry.covers:
                    verify.coverage(sys, bound_id, delta, {"t": t, "alpha": alpha})
        if sys.setting == "standard":
            (zvec,), w = sys.rows.labels[0], sys.w_labels[int(np.argmax(sys.joint[0]))]
            _check_result(bstd.pacb_bound(sys, zvec, delta))
            _check_result(bstd.sd_density_bound(sys, w, zvec, delta))
            bstd.chain_report(sys, delta)
        else:
            (zt, s), w = sys.rows.labels[0], sys.w_labels[int(np.argmax(sys.cond[0]))]
            _check_result(bsub.cond_pacb_bound(sys, zt, s, delta))
            _check_result(bsub.cond_sd_density_bound(sys, w, zt, s, delta))
            _check_result(bsub.cond_alpha_mi_bound(sys, delta, math.inf))


def test_a_tiny_delta_takes_the_penalty_in_logs(inst_a):
    view = view_of(inst_a)
    log_2_over_delta = math.log(2.0) - math.log(5e-324)
    res = bstd.sd_leakage_bound(inst_a, 5e-324)
    assert res.epsilon ** 2 == pytest.approx(
        view.rate * (view.leakage + 2.0 * log_2_over_delta), rel=1e-12)
    # (delta/2)^(1/3) underflows to 0 but the inflated moment is finite
    res = bstd.sd_moment_bound(inst_a, 5e-324, 3)
    moment = view.moment(3.0) * math.exp(log_2_over_delta / 3.0)
    assert res.epsilon ** 2 == pytest.approx(
        view.rate * (view.table.mean + moment + log_2_over_delta), rel=1e-12)
    # at t = 1 the inflated moment exceeds the largest float
    assert not bstd.sd_moment_bound(inst_a, 5e-324, 1).feasible
