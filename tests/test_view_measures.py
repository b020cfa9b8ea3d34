"""A system's information measures are terms of its view, and label-level
distributions take the grids' density rule and Renyi formula.

Each of the nine system measures equals, bit for bit, the formula it had
when it rebuilt its own density table, on the fixtures and random systems
of both settings, with and without an auxiliary measure, at orders on both
sides of 1 and within the near-one dispatch. ``density`` and ``kl`` equal
their per-atom loops bit for bit; ``renyi_divergence`` agrees with its loop
to 1e-13 relative, refuses a P-atom that Q does not charge above order 1 by
name, and below 1 lets such atoms add nothing."""
import math

import numpy as np
import pytest

import oracles
from genbounds import (FiniteDistribution, Kernel, alpha_mi, cond_alpha_mi,
                       cond_maximal_leakage, cond_mutual_information, cond_renyi_divergence,
                       conditional_density, density, information_density, kl, load_fixture,
                       max_information, maximal_leakage, mutual_information, renyi_divergence,
                       system_renyi)
from genbounds.measures import ONE_SEGMENT, _alpha_mi, _leakage, _renyi
from genbounds.models import _per_vector
from genbounds.prob import AbsoluteContinuityViolation
from genbounds.verify import random_standard_system, random_subset_system

ALPHAS = (0.5, 1.5, 2.0, 3.0, 1.0 + 1e-7)


@pytest.fixture(scope="module")
def pools():
    rng = np.random.default_rng(15)
    standard = [load_fixture("inst_a")[1], load_fixture("inst_c")[1]]
    subset = [load_fixture("inst_b")[1]]
    for _ in range(40):
        standard.append(random_standard_system(rng))
        subset.append(random_subset_system(rng))
    # the subset formulas are per-vector ones: each system's per-vector
    # system (test_orbits compares the orbit systems with their twins)
    return {"standard": standard, "subset": [_per_vector(sys) for sys in subset]}


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def _renyi_formula(tbl, alpha):
    """The system Renyi divergence as it was: the mean near 1, else the grid formula."""
    return tbl.mean if abs(alpha - 1.0) <= 1e-6 else _renyi(tbl.arrays, alpha)


def test_standard_measures_equal_their_own_table_formulas(pools):
    rng = np.random.default_rng(16)
    for sys in pools["standard"]:
        q_w = FiniteDistribution.from_probs(sys.w_labels,
                                            rng.dirichlet(np.ones(len(sys.w_labels))))
        tbl = information_density(sys)
        arrays = oracles.system_arrays(sys)
        assert maximal_leakage(sys) == _leakage(arrays["pzn"], arrays["cond"], ONE_SEGMENT)
        assert max_information(sys) == float(tbl.iota.max())
        for aux in (None, q_w):
            aux_tbl = information_density(sys, aux)
            assert mutual_information(sys, aux) == aux_tbl.mean
            for alpha in ALPHAS:
                assert system_renyi(sys, alpha, aux) == _renyi_formula(aux_tbl, alpha)
        for alpha in ALPHAS:
            want = (tbl.mean if abs(alpha - 1.0) <= 1e-6 else _alpha_mi(
                np.zeros(1), _log(arrays["pzn"]), _log(arrays["pw"]), tbl.arrays[2],
                ONE_SEGMENT, alpha))
            assert alpha_mi(sys, alpha) == want


def test_subset_measures_equal_their_own_table_formulas(pools):
    rng = np.random.default_rng(17)
    for sys in pools["subset"]:
        q = Kernel({zt: FiniteDistribution.from_probs(
            sys.w_labels, rng.dirichlet(np.ones(len(sys.w_labels))))
            for zt in oracles.zvectors(sys.pz.outcomes, 2 * sys.n)})
        tbl = conditional_density(sys)
        arrays = oracles.system_arrays(sys)
        n_zt, n_s = len(arrays["p_zt"]), len(arrays["p_s"])
        mass = (arrays["p_zt"][:, None] * arrays["p_s"][None, :]).reshape(-1)
        rows = arrays["cond"].reshape(len(mass), -1)
        starts = np.arange(n_zt) * n_s  # each supersample's first row
        assert cond_maximal_leakage(sys) == _leakage(mass, rows, starts)
        for aux in (None, q):
            aux_tbl = conditional_density(sys, aux)
            assert cond_mutual_information(sys, aux) == aux_tbl.mean
            for alpha in ALPHAS:
                assert cond_renyi_divergence(sys, alpha, aux) == _renyi_formula(aux_tbl, alpha)
        for alpha in ALPHAS:
            if alpha <= 1:
                with pytest.raises(ValueError, match="alpha must exceed 1"):
                    cond_alpha_mi(sys, alpha)
                continue
            assert cond_alpha_mi(sys, alpha) == (tbl.mean if alpha - 1.0 <= 1e-6 else _alpha_mi(
                _log(arrays["p_zt"]), np.tile(_log(arrays["p_s"]), n_zt),
                _log(arrays["pw_given"]), tbl.arrays[2], starts, alpha))


def _distribution_pairs(rng, count=300):
    """Random (P, Q) pairs: P on 1-8 labels with some zero masses, Q on a
    shuffled subset of them plus two labels of its own, with zeros too."""
    pairs = []
    for _ in range(count):
        k = int(rng.integers(1, 9))
        p_mass = rng.dirichlet(np.full(k, rng.choice([0.3, 1.0, 5.0])))
        p_mass[rng.random(k) < 0.2] = 0.0
        p_mass[0] += p_mass.sum() == 0.0
        q_labels = [o for o in range(k) if rng.random() > 0.15] + [k, k + 1]
        q_mass = rng.dirichlet(np.ones(len(q_labels)))
        q_mass[rng.random(len(q_labels)) < 0.15] = 0.0
        q_mass[-1] += q_mass.sum() == 0.0
        rng.shuffle(q_labels)
        pairs.append((FiniteDistribution.from_probs(range(k), p_mass / p_mass.sum()),
                      FiniteDistribution.from_probs(q_labels, q_mass / q_mass.sum())))
    return pairs


def _charges_p(p, q):
    return all(o in q._index and q.log_mass_of(o) > -math.inf for o in p.support)


def test_density_and_kl_equal_their_loops_bit_for_bit():
    pairs = _distribution_pairs(np.random.default_rng(18))
    refused = 0
    for p, q in pairs:
        try:
            outcomes, log_p, iota = oracles.density_loop(p, q)
        except AbsoluteContinuityViolation as exc:
            refused += 1
            with pytest.raises(AbsoluteContinuityViolation) as got:
                density(p, q)
            assert str(got.value) == str(exc)
            continue
        tbl = density(p, q)
        assert tbl.outcomes == outcomes
        assert np.array_equal(tbl.log_p, log_p) and np.array_equal(tbl.iota, iota)
        assert kl(p, q) == float(np.sum(np.exp(log_p) * iota))
        # the table keeps the arrays it was cut from, over P's outcomes
        arr_p, arr_q, arr_iota = tbl.arrays
        assert np.array_equal(arr_p, p.log_mass)
        sup = arr_p > -math.inf
        assert np.array_equal(arr_iota[sup], iota) and np.all(arr_iota[~sup] == -math.inf)
        assert not any(a.flags.writeable for a in tbl.arrays)
    assert 0 < refused < len(pairs)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.5, 2.0, 3.0, 10.0])
def test_renyi_divergence_agrees_with_its_loop(alpha):
    pairs = _distribution_pairs(np.random.default_rng(19))
    uncharged = 0
    for p, q in pairs:
        if not _charges_p(p, q):
            uncharged += 1
            if alpha > 1:
                with pytest.raises(AbsoluteContinuityViolation) as exc:
                    renyi_divergence(p, q, alpha)
                with pytest.raises(AbsoluteContinuityViolation) as ref:
                    oracles.renyi_divergence_loop(p, q, alpha)
                assert str(exc.value) == str(ref.value)
                continue
        want = oracles.renyi_divergence_loop(p, q, alpha)
        got = renyi_divergence(p, q, alpha)
        assert got == want or abs(got - want) <= 1e-13 * abs(want), (p.outcomes, alpha)
    assert uncharged > 20


def test_renyi_divergence_below_one_skips_what_q_does_not_charge():
    p = FiniteDistribution.from_probs(("a", "b", "c"), (0.5, 0.25, 0.25))
    q = FiniteDistribution.from_probs(("b", "a", "d"), (0.5, 0.0, 0.5))
    # only "b" is charged by both: log(0.25^0.5 0.5^0.5) / (0.5 - 1)
    assert renyi_divergence(p, q, 0.5) == pytest.approx(-2.0 * math.log(math.sqrt(0.125)),
                                                        rel=1e-15)
    with pytest.raises(AbsoluteContinuityViolation, match="P-atom 'a' has zero Q-mass"):
        renyi_divergence(p, q, 2.0)
    with pytest.raises(AbsoluteContinuityViolation, match="P-atom 'a' has zero Q-mass"):
        kl(p, q)
