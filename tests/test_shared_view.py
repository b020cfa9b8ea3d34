"""One view per system: the bounds, coverage and checks of a system read one
default view, kept with the system and freed with it by reference counting;
auxiliary measures and range constants get views of their own. The view's
grid arrays are those its one density table was cut from, and that table's
one sort of iota gives both its tails and its distinct values."""
import gc
import math
import pickle
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from genbounds import (FiniteDistribution, Kernel, LossTable, SubsetSystem, alpha_mi, cli,
                       cond_alpha_mi, cond_maximal_leakage, cond_mutual_information,
                       cond_renyi_divergence, gibbs_kernel, load_fixture, max_information,
                       maximal_leakage, measures, mutual_information, system_renyi)
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds import verify
from genbounds.engine import view_of
from genbounds.measures import DensityTable, central_moment
from genbounds.verify import random_standard_system, random_subset_system

SETTINGS = {"standard": "inst_a", "subset": "inst_b"}


def _report(sys):
    cli._report_rows(sys, {"deltas": [0.3, 0.1]})


def _coverage(sys):
    for bound_id in verify.coverage_ids(sys.setting):
        verify.coverage(sys, bound_id, 0.1)


def _exp_inequality(sys):
    if sys.setting == "standard":
        verify.check_exp_inequality_standard(sys)
    else:
        verify.check_exp_inequality_subset(sys)


def _orderings(sys):
    if sys.setting == "standard":
        bstd.chain_report(sys, 0.1)
    else:
        bsub.leakage_ordering_check(sys)
    view_of(sys).table.outcomes  # the labels are built from the grids


def _counted(monkeypatch, module, name):
    """The argument tuples of every call of ``module.name`` from now on."""
    builds = []
    build = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: builds.append(a) or build(*a))
    return builds


@pytest.mark.parametrize("use", [_report, _coverage, _exp_inequality, _orderings])
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_a_used_system_is_freed_by_reference_counting(setting, use):
    gc.collect()
    gc.disable()
    try:
        sys = load_fixture(SETTINGS[setting])[1]
        use(sys)
        assert view_of(sys) is view_of(sys)
        ref = weakref.ref(sys)
        del sys
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_a_system_with_a_view_still_pickles(setting):
    sys = load_fixture(SETTINGS[setting])[1]
    _report(sys)
    copy = pickle.loads(pickle.dumps(sys))
    assert view_of(copy) is not view_of(sys)
    assert view_of(copy).table.mean == view_of(sys).table.mean


def _measures(sys):
    """Every information measure of the setting, with default inputs."""
    if sys.setting == "standard":
        return (mutual_information(sys), system_renyi(sys, 2.0), system_renyi(sys, 1.0),
                alpha_mi(sys, 2.0), alpha_mi(sys, 1.0), maximal_leakage(sys),
                max_information(sys))
    return (cond_mutual_information(sys), cond_renyi_divergence(sys, 2.0),
            cond_renyi_divergence(sys, 1.0), cond_alpha_mi(sys, 2.0),
            cond_maximal_leakage(sys))


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_bounds_coverage_and_checks_build_one_density(monkeypatch, setting):
    name = "information_density" if setting == "standard" else "conditional_density"
    # a build through either module's name is counted
    builds = [_counted(monkeypatch, module, name)
              for module in (measures, bstd if setting == "standard" else bsub)]
    sys = load_fixture(SETTINGS[setting])[1]
    for use in (_report, _coverage, _exp_inequality, _orderings, _measures):
        use(sys)
    assert sum(map(len, builds)) == 1
    # the view's grid arrays are those its one table was cut from
    view = view_of(sys)
    tbl = view.table
    assert view._log_arrays is tbl.arrays
    assert view.iota is tbl.arrays[2] and view.log_base is tbl.arrays[1]
    assert not any(arr.flags.writeable for arr in tbl.arrays)
    sup = tbl.arrays[0] > -math.inf
    assert np.array_equal(tbl.log_p, tbl.arrays[0][sup])
    assert np.array_equal(tbl.iota, view.iota[sup])


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_the_tail_scan_sorts_iota_once(monkeypatch, setting):
    """One sort of iota and one tail read serve every delta."""
    sys = load_fixture(SETTINGS[setting])[1]
    calls = Counter()
    for name in ("argsort", "sort", "unique"):
        fn = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _fn=fn, _name=name, **kw:
                            calls.update([_name]) or _fn(*a, **kw))
    exact = DensityTable.tail_probability
    monkeypatch.setattr(DensityTable, "tail_probability", lambda self, g:
                        calls.update(["tail_probability"]) or exact(self, g))
    tail = bstd.sd_tail_bound if setting == "standard" else bsub.cond_tail_bound
    for delta in (0.5, 0.3, 0.1, 0.05):
        tail(sys, delta)
    view_of(sys).table.distinct_values()
    assert calls == {"argsort": 1, "tail_probability": 1}


@pytest.fixture(scope="module")
def tables():
    """Density tables of the fixtures and of random systems of both settings."""
    rng = np.random.default_rng(2718)
    systems = [load_fixture(name)[1] for name in ("inst_a", "inst_b", "inst_c")]
    systems += [random_standard_system(rng) for _ in range(40)]
    systems += [random_subset_system(rng) for _ in range(40)]
    return [view_of(s).table for s in systems]


def test_distinct_values_are_those_of_np_unique(tables):
    for tbl in tables:
        got, expected = tbl.distinct_values(), np.unique(tbl.iota)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5, 2.0, 3.0, math.inf])
def test_central_moment_matches_the_out_of_place_formula(tables, t):
    for tbl in tables:
        got = central_moment(tbl, t)
        assert got.hex() == oracles.central_moment_out_of_place(tbl, t).hex()
    constant = load_fixture("inst_c")[1]  # W independent of Z: iota is 0 everywhere
    tbl = view_of(constant).table
    assert np.all(tbl.iota == tbl.mean)
    assert central_moment(tbl, t) == oracles.central_moment_out_of_place(tbl, t) == 0.0


def test_an_auxiliary_marginal_gets_its_own_view(monkeypatch):
    builds = _counted(monkeypatch, bstd, "information_density")
    sys = load_fixture("inst_a")[1]
    default = bstd.sd_tail_bound(sys, 0.1)
    shared = view_of(sys)
    p_w = FiniteDistribution(sys.w_labels, sys.rows.log_masses[2][0])
    aux = bstd.sd_tail_bound(sys, 0.1, q_w=p_w)  # equal to the default marginal
    assert len(builds) == 2
    assert view_of(sys) is shared and shared.q_w is None
    assert aux.epsilon == pytest.approx(default.epsilon, abs=1e-12)
    assert bstd.sd_tail_bound(sys, 0.1) == default
    assert len(builds) == 2


def _conditional_kernel(sys):
    """A kernel over the supersamples equal to P_{W|Z-tilde}."""
    return Kernel({zt: FiniteDistribution.from_probs(sys.w_labels, row)
                   for zt, row in zip(sys.rows.grids[0].vectors(),
                                      oracles.system_arrays(sys)["pw_given"])})


def test_an_auxiliary_conditional_gets_its_own_view(monkeypatch):
    builds = _counted(monkeypatch, bsub, "conditional_density")
    sys = load_fixture("inst_b")[1]
    q = _conditional_kernel(sys)
    for bound in (lambda **kw: bsub.cond_tail_bound(sys, 0.1, **kw),
                  lambda **kw: bsub.cond_sd_moment_bound(sys, 0.1, 2, **kw),
                  lambda **kw: bsub.cond_pacb_moment_bound(sys, 0.1, 2, **kw),
                  lambda **kw: bsub.cond_sd_renyi_pair_bound(sys, 0.1, 3.0, **kw)):
        default = bound()
        assert bound(q_kernel=q).epsilon == pytest.approx(default.epsilon, abs=1e-12)
        assert view_of(sys).q_kernel is None
        assert bound() == default
    # the default view builds its table once; each call with q_kernel builds
    # its own, and the table is the only source of the grid arrays that the
    # posterior KLs and the Renyi pair read
    assert len(builds) == 5


def test_a_range_constant_gets_its_own_view(monkeypatch):
    builds = _counted(monkeypatch, bsub, "conditional_density")
    sys = load_fixture("inst_b")[1]
    # 0/1 loss: Delta(z1, z2) = [z1 != z2] dominates, and E[Delta^2] = 1/2
    c = bsub.delta_constant(lambda z1, z2: float(z1 != z2), sys.pz, sys.loss)
    default = bsub.cond_sd_moment_bound(sys, 0.1, 2)
    halved = bsub.cond_sd_moment_bound(sys, 0.1, 2, c=c)
    assert halved.epsilon ** 2 == pytest.approx(default.epsilon ** 2 / 2, abs=1e-12)
    assert view_of(sys).variance == 1.0
    assert bsub.cond_sd_moment_bound(sys, 0.1, 2) == default
    assert len(builds) == 2


def test_an_auxiliary_conditional_is_checked_on_the_joint_support_only():
    # instance 2 has no mass: the supersamples that hold it have none either,
    # and there the auxiliary conditional need not charge the posterior
    loss = LossTable((0, 1), (0, 1, 2), np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
                     0.0, 1.0)
    pz = FiniteDistribution.from_probs((0, 1, 2), (0.5, 0.5, 0.0))
    sys = SubsetSystem(pz, 1, gibbs_kernel(loss, 1, 2.0), loss)
    arrays = oracles.system_arrays(sys)
    rows = {zt: (FiniteDistribution.from_probs(sys.w_labels, row) if mass > 0
                 else FiniteDistribution.point_mass(sys.w_labels, 0))
            for zt, row, mass in zip(sys.rows.grids[0].vectors(), arrays["pw_given"],
                                     arrays["p_zt"])}
    q = Kernel(rows)
    assert np.all(sys.cond > 0)
    assert cond_mutual_information(sys, q) == pytest.approx(
        cond_mutual_information(sys), abs=1e-12)
    assert cond_renyi_divergence(sys, 2.0, q) == pytest.approx(
        cond_renyi_divergence(sys, 2.0), abs=1e-12)
    assert bsub.cond_pacb_moment_bound(sys, 0.1, 2, q_kernel=q).epsilon == pytest.approx(
        bsub.cond_pacb_moment_bound(sys, 0.1, 2).epsilon, abs=1e-12)
