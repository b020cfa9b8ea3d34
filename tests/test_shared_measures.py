"""Both settings compute each information quantity by one formula over a
(context..., data, w) grid. Against the per-setting formulas it replaced
(``oracles``), every subset array and value is equal bit for bit, and so
are the standard posterior KLs, leakage, table masses and every exact
coverage; the standard density, Renyi divergences and alpha-MI agree to
1e-12. The standard density, now log P(w | z) - log P_W(w), is within
2e-15 of its exact value, and the pointwise bounds of both settings take
one support rule."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import oracles
from genbounds import FiniteDistribution, load_fixture, load_problem
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds import engine
from genbounds.engine import view_of
from genbounds import DensityTable, alpha_mi, cond_alpha_mi
from genbounds.verify import (coverage, coverage_ids, random_standard_system,
                              random_subset_system)

DELTAS = (0.3, 0.1, 0.05)
ALPHAS = (0.5, 1.5, 2.0, 3.0)
ORDERS = ({}, {"t": 1, "alpha": 3.0}, {"t": "inf", "alpha": 1.5})


def _close(got, want, rel=1e-12):
    """Agreement to ``rel``, relative to |want| floored at 1."""
    return abs(got - want) <= rel * max(1.0, abs(want))


@pytest.fixture(scope="module")
def pools():
    rng = np.random.default_rng(2)
    standard = [load_fixture("inst_a")[1], load_fixture("inst_c")[1]]
    subset = [load_fixture("inst_b")[1]]
    for _ in range(40):
        standard.append(random_standard_system(rng))
        subset.append(random_subset_system(rng))
    return {"standard": standard, "subset": subset}


def _random_marginal(sys, rng):
    masses = rng.dirichlet(np.ones(len(sys.w_labels)))
    return FiniteDistribution.from_probs(sys.w_labels, masses)


def test_subset_measures_equal_their_references(pools):
    for sys in pools["subset"]:
        view = view_of(sys)
        ref = oracles.density_arrays(sys)
        for got, want in zip(view.table.arrays, ref):
            assert np.array_equal(got, want)
        sup = ref[0] > -math.inf
        assert np.array_equal(view.table.log_p, ref[0][sup])
        assert np.array_equal(view.table.iota, ref[2][sup])
        assert np.array_equal(view.kls, oracles.posterior_kls(sys, ref[2]))
        assert view.leakage == oracles.leakage_from_rows(sys)
        for alpha in ALPHAS:
            assert view.renyi(alpha) == oracles.renyi_from_arrays("subset", ref, alpha)
            if alpha > 1:
                assert (cond_alpha_mi(sys, alpha)
                        == oracles.alpha_mi_from_iota(sys, ref[2], alpha))


def test_standard_measures_match_their_references(pools):
    rng = np.random.default_rng(11)
    for sys in pools["standard"]:
        for q_w in (None, _random_marginal(sys, rng)):
            view = view_of(sys, q_w)
            ref = oracles.density_arrays(sys, q_w)
            log_joint, log_base, iota = view.table.arrays
            assert np.array_equal(log_joint, ref[0]) and np.array_equal(log_base, ref[1])
            sup = ref[0] > -math.inf
            assert np.array_equal(view.table.log_p, ref[0][sup])
            assert np.array_equal(iota[~sup], ref[2][~sup])  # every z-vector has mass
            assert all(map(_close, view.table.iota, ref[2][sup]))
            assert np.array_equal(view.kls, oracles.posterior_kls(sys, ref[2], q_w))
            for alpha in ALPHAS:
                assert _close(view.renyi(alpha),
                              oracles.renyi_from_arrays("standard", ref, alpha))
        assert view_of(sys).leakage == oracles.leakage_from_rows(sys)
        iota = oracles.density_arrays(sys)[2]
        for alpha in ALPHAS[1:]:
            assert _close(alpha_mi(sys, alpha), oracles.alpha_mi_from_iota(sys, iota, alpha))


def _reference_view(sys):
    """A default view of ``sys`` whose density table, posterior KLs, leakage
    and Renyi divergences come from the per-setting references."""
    view = engine._VIEWS[sys.setting](sys)
    arrays = oracles.density_arrays(sys)
    sup = arrays[0] > -math.inf
    view.table = DensityTable(arrays[0][sup], arrays[2][sup], lambda: (), arrays)
    view.kls = oracles.posterior_kls(sys, arrays[2])
    view.leakage = oracles.leakage_from_rows(sys)
    view._renyi = lambda log_arrays, alpha: oracles.renyi_from_arrays(sys.setting,
                                                                     log_arrays, alpha)
    return view


@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_every_exact_coverage_equals_its_reference(monkeypatch, pools, setting):
    def table(sys):
        return [coverage(sys, bound_id, delta, params).exact_violation_prob
                for bound_id in coverage_ids(setting) for delta in DELTAS
                for params in ORDERS]

    for sys in pools[setting]:
        got = table(sys)
        with monkeypatch.context() as m:
            m.setitem(engine._DEFAULT_VIEWS, sys, _reference_view(sys))
            assert got == table(sys)


def test_standard_density_is_within_2e_15_of_its_exact_value(pools):
    with localcontext() as ctx:
        ctx.prec = 50
        for sys in pools["standard"]:
            iota = view_of(sys).iota
            for zi, wi in zip(*np.nonzero(sys.joint > 0)):
                exact = (Decimal(float(sys.cond[zi, wi])).ln()
                         - Decimal(float(sys.pw_mass[wi])).ln())
                error = abs(Decimal(float(iota[zi, wi])) - exact)
                assert error <= Decimal(2e-15) * max(1, abs(exact)), (zi, wi)


def _zero_mass_system(setting, learner):
    """Instances {0, 1, 2} with P_Z = (1/2, 1/2, 0) and n = 1."""
    return load_problem({
        "setting": setting, "instances": [0, 1, 2], "pz": [0.5, 0.5, 0.0], "n": 1,
        "loss": {"hypotheses": [0, 1, 2], "range": [0, 1],
                 "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
        "learner": learner})[1]


# per setting: the PAC-Bayes and density bounds, a zero-mass data point and
# its grid index, and a data point with an unknown label
POINTWISE = {
    "standard": (bstd.pacb_bound, bstd.sd_density_bound, ((2,),), ((3,),),
                 lambda sys: (sys.z_grid.code((2,)),)),
    "subset": (bsub.cond_pacb_bound, bsub.cond_sd_density_bound, ((2, 0), (0,)),
               ((3, 0), (0,)),
               lambda sys: (sys.zt_grid.code((2, 0)), sys.s_grid.code((0,)))),
}


@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_pointwise_bounds_take_one_support_rule(setting):
    pacb, density, data, unknown, index = POINTWISE[setting]
    sys = _zero_mass_system(setting, {"kind": "gibbs", "beta": 1.0})
    view, at = view_of(sys), index(sys)
    assert view.mass[at] == 0.0
    res = pacb(sys, *data, 0.1)
    assert res.feasible
    assert res.epsilon == math.sqrt(view.rate * view.info(view.kls[at], 0.1))
    for wi, w in enumerate(sys.w_labels):  # P(w | data) > 0 for a Gibbs learner
        res = density(sys, w, *data, 0.1)
        assert res.feasible
        assert res.epsilon == math.sqrt(view.rate * view.info(view.iota[at + (wi,)], 0.1))
    with pytest.raises(KeyError, match="not an outcome"):
        density(sys, "nope", *data, 0.1)
    with pytest.raises(KeyError, match="not an outcome"):
        pacb(sys, *unknown, 0.1)
    erm = _zero_mass_system(setting, {"kind": "erm"})  # picks w = 2 at z = 2
    with pytest.raises(KeyError, match="outside the density's support"):
        density(erm, 0, *data, 0.1)


def test_a_zero_mass_posterior_off_the_marginal_has_an_infinite_kl():
    sys = _zero_mass_system("standard", {"kind": "erm"})  # only z = 2 picks w = 2
    view, at = view_of(sys), sys.z_grid.code((2,))
    assert sys.pw_mass[2] == 0.0 and view.kls[at] == math.inf
    assert not bstd.pacb_bound(sys, (2,), 0.1).feasible
    # the moment bound weighs the positive-mass posteriors only
    kls = view.kls[view.mass > 0]
    norm = math.sqrt(0.5 * kls[0] ** 2 + 0.5 * kls[1] ** 2)
    res = bstd.pacb_moment_bound(sys, 0.1, 2)
    assert res.feasible and _close(res.epsilon, math.sqrt(
        view.rate * (norm / math.sqrt(0.05) + math.log(20.0))))
