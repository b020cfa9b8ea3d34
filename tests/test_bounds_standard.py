import math

import numpy as np
import pytest

from genbounds import (
    FiniteDistribution,
    Kernel,
    LossTable,
    T_INF,
    assemble_standard,
    avg_mi_bound,
    chain_report,
    central_moment,
    expected_gen,
    information_density,
    maximal_leakage,
    mutual_information,
    pacb_bound,
    pacb_moment_bound,
    sd_density_bound,
    sd_leakage_bound,
    sd_moment_bound,
    sd_renyi_bound,
    sd_tail_bound,
    system_renyi,
    tail_relaxations,
    zero_one_loss,
)
from genbounds.verify import (
    STANDARD_COVERAGE_IDS,
    abs_quantile,
    coverage,
    random_standard_system,
)

LN2 = math.log(2)
I_A = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)


def scaled_sigma_system():
    """INST-A losses with sigma declared at twice the default."""
    loss = LossTable((0, 1), (0, 1), 1.0 - np.eye(2), 0.0, 1.0, sigma=1.0)
    from genbounds import erm_kernel
    return assemble_standard(FiniteDistribution.bernoulli(0.5), 2,
                             erm_kernel(loss, 2), loss)


def negative_density_system():
    """An atom with iota < -ln 2, forcing an infeasible single-draw bound."""
    loss = zero_one_loss([0, 1])
    rows = {
        (0,): FiniteDistribution.from_probs([0, 1], [0.99, 0.01]),
        (1,): FiniteDistribution.from_probs([0, 1], [0.01, 0.99]),
    }
    return assemble_standard(FiniteDistribution.bernoulli(0.5), 1,
                             Kernel(rows), loss)


class TestAvgMiBound:
    def test_independent_learner_gives_zero(self, inst_c):
        assert avg_mi_bound(inst_c).epsilon == pytest.approx(0.0, abs=1e-12)

    def test_inst_a_value_and_soundness(self, inst_a):
        res = avg_mi_bound(inst_a)
        assert res.epsilon == pytest.approx(math.sqrt(0.25 * I_A), abs=1e-9)
        assert abs(expected_gen(inst_a)) <= res.epsilon

    def test_sigma_scaling_law(self, inst_a):
        doubled = scaled_sigma_system()
        assert avg_mi_bound(doubled).epsilon == pytest.approx(
            2 * avg_mi_bound(inst_a).epsilon, abs=1e-12)

    def test_sound_on_random_instances(self, rng):
        for _ in range(20):
            sys = random_standard_system(rng)
            assert abs(expected_gen(sys)) <= avg_mi_bound(sys).epsilon + 1e-12


class TestPacbBound:
    def test_zero_kl_reduces_to_confidence_term(self, inst_c):
        res = pacb_bound(inst_c, (0, 0), math.exp(-1))
        assert res.epsilon == pytest.approx(0.5, abs=1e-12)

    def test_inst_a_value(self, inst_a):
        res = pacb_bound(inst_a, (0, 0), 0.1)
        expect = math.sqrt(0.25 * (math.log(4 / 3) + math.log(10)))
        assert res.epsilon == pytest.approx(expect, abs=1e-12)

    def test_delta_near_one_leaves_kl_only(self, inst_a):
        res = pacb_bound(inst_a, (1, 1), 1 - 1e-12)
        assert res.epsilon == pytest.approx(math.sqrt(0.25 * math.log(4)),
                                            abs=1e-6)

    def test_delta_out_of_range(self, inst_a):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                pacb_bound(inst_a, (0, 0), bad)


class TestPacbMomentBound:
    def test_zero_kl_any_order(self, inst_c):
        for t in (1, 2, T_INF):
            res = pacb_moment_bound(inst_c, 0.2, t)
            assert res.epsilon == pytest.approx(
                math.sqrt(0.25 * math.log(10)), abs=1e-12)

    def test_t_one_uses_mutual_information(self, inst_a):
        res = pacb_moment_bound(inst_a, 0.1, 1)
        expect = math.sqrt(0.25 * (I_A / 0.05 + math.log(20)))
        assert res.epsilon == pytest.approx(expect, abs=1e-9)

    def test_large_t_approaches_sup(self, inst_a):
        finite = pacb_moment_bound(inst_a, 0.1, 1e3).epsilon
        sup = pacb_moment_bound(inst_a, 0.1, T_INF).epsilon
        assert abs(finite - sup) < 1e-3

    def test_nonincreasing_in_delta(self, inst_a):
        eps = [pacb_moment_bound(inst_a, d, 2).epsilon
               for d in (0.05, 0.1, 0.3, 0.6)]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))


class TestSdDensityBound:
    def test_zero_density_reduces_to_confidence_term(self, inst_c):
        res = sd_density_bound(inst_c, 0, (0, 1), math.exp(-1))
        assert res.epsilon == pytest.approx(0.5, abs=1e-12)

    def test_inst_a_worst_atom(self, inst_a):
        res = sd_density_bound(inst_a, 1, (1, 1), 0.1)
        expect = math.sqrt(0.25 * (math.log(4) + math.log(10)))
        assert res.epsilon == pytest.approx(expect, abs=1e-12)

    def test_negative_radicand_flags_infeasible(self):
        sys = negative_density_system()
        # iota(w=1 | z=0) = ln(0.02) < -ln 2
        res = sd_density_bound(sys, 1, (0,), 0.5)
        assert not res.feasible
        assert res.reason == "negative radicand"


class TestSdMomentBound:
    def test_independent_learner(self, inst_c):
        res = sd_moment_bound(inst_c, 0.2, 2)
        assert res.epsilon == pytest.approx(math.sqrt(0.25 * math.log(10)),
                                            abs=1e-12)

    def test_inst_a_t_two_composition(self, inst_a):
        tbl = information_density(inst_a)
        m2 = central_moment(tbl, 2)
        expect = math.sqrt(0.25 * (I_A + m2 / math.sqrt(0.05) + math.log(20)))
        assert sd_moment_bound(inst_a, 0.1, 2).epsilon == pytest.approx(
            expect, abs=1e-9)

    def test_inst_a_sup_moment(self, inst_a):
        tbl = information_density(inst_a)
        minf = central_moment(tbl, T_INF)
        expect = math.sqrt(0.25 * (I_A + minf + math.log(20)))
        assert sd_moment_bound(inst_a, 0.1, T_INF).epsilon == pytest.approx(
            expect, abs=1e-9)

    def test_nonincreasing_in_delta(self, inst_a):
        eps = [sd_moment_bound(inst_a, d, 2).epsilon
               for d in (0.05, 0.1, 0.3, 0.6)]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))


class TestSdLeakageBound:
    def test_independent_learner(self, inst_c):
        res = sd_leakage_bound(inst_c, 0.2)
        assert res.epsilon == pytest.approx(
            math.sqrt(0.25 * 2 * math.log(10)), abs=1e-12)

    def test_inst_a_value(self, inst_a):
        res = sd_leakage_bound(inst_a, 0.1)
        expect = math.sqrt(0.25 * (LN2 + 2 * math.log(20)))
        assert res.epsilon == pytest.approx(expect, abs=1e-12)


class TestSdRenyiBound:
    def test_alpha_two_is_symmetric_pair(self, inst_a):
        d2 = system_renyi(inst_a, 2.0)
        expect = math.sqrt(0.25 * (d2 + 2 * math.log(20)))
        assert sd_renyi_bound(inst_a, 0.1, 2.0).epsilon == pytest.approx(
            expect, abs=1e-12)

    def test_independent_learner(self, inst_c):
        res = sd_renyi_bound(inst_c, 0.2, 3.0)
        assert res.epsilon == pytest.approx(
            math.sqrt(0.25 * 2 * math.log(10)), abs=1e-12)

    def test_invalid_alpha(self, inst_a):
        with pytest.raises(ValueError):
            sd_renyi_bound(inst_a, 0.1, 1.0)


class TestSdTailBound:
    def test_independent_learner_fixed_gamma(self, inst_c):
        res = sd_tail_bound(inst_c, 0.2, gamma=0.7)
        assert res.epsilon == pytest.approx(
            math.sqrt(0.25 * (0.7 + math.log(10))), abs=1e-12)

    def test_independent_learner_auto_picks_smallest_positive(self, inst_c):
        res = sd_tail_bound(inst_c, 0.2)
        assert res.feasible
        # density is identically 0, its one attained value, where the strict tail is 0
        assert res.params["gamma"] == 0.0
        assert res.params["tail_prob"] == 0.0

    def test_inst_a_auto_candidates(self, inst_a):
        res = sd_tail_bound(inst_a, 0.3)
        assert res.feasible
        # the candidate just above ln(4/3) has exact tail 1/4 < 0.3
        mid = sd_tail_bound(inst_a, 0.3, gamma=math.log(4 / 3) + 1e-9)
        assert mid.params["tail_prob"] == pytest.approx(0.25, abs=1e-12)
        assert res.epsilon <= mid.epsilon + 1e-12

    def test_gamma_below_support_infeasible(self, inst_a):
        res = sd_tail_bound(inst_a, 0.3, gamma=0.0)
        assert not res.feasible

    def test_auto_always_feasible_above_support(self, rng):
        for _ in range(10):
            sys = random_standard_system(rng)
            assert sd_tail_bound(sys, 0.05).feasible


class TestTailRelaxations:
    def test_moment_gap_identity_inst_c(self, inst_c):
        eps_m, _ = tail_relaxations(inst_c, 0.2, 2)
        direct = sd_moment_bound(inst_c, 0.2, 2)
        assert eps_m.epsilon ** 2 - direct.epsilon ** 2 == pytest.approx(
            0.25 * LN2, abs=1e-12)

    def test_gap_identities_inst_a(self, inst_a):
        for t in (1, 2, 5.5, T_INF):
            eps_m, eps_l = tail_relaxations(inst_a, 0.1, t)
            assert eps_m.epsilon ** 2 - sd_moment_bound(inst_a, 0.1, t).epsilon ** 2 \
                == pytest.approx(0.25 * LN2, abs=1e-12)
            assert eps_l.epsilon ** 2 - sd_leakage_bound(inst_a, 0.1).epsilon ** 2 \
                == pytest.approx(0.25 * LN2, abs=1e-12)


class TestChainReport:
    def test_inst_a_ordering(self, inst_a):
        rep = chain_report(inst_a, 0.1)
        assert rep["maximal_leakage"] == pytest.approx(LN2, abs=1e-12)
        assert rep["max_information"] == pytest.approx(math.log(4), abs=1e-12)
        assert (rep["maximal_leakage"] <= rep["max_information"]
                <= rep["mi_plus_max_deviation"] + 1e-12)

    def test_independent_learner_all_zero(self, inst_c):
        rep = chain_report(inst_c, 0.1)
        assert rep["maximal_leakage"] == pytest.approx(0.0, abs=1e-12)
        assert rep["max_information"] == pytest.approx(0.0, abs=1e-12)
        assert rep["mi_plus_max_deviation"] == pytest.approx(0.0, abs=1e-12)

    def test_chain_on_random_instances(self, rng):
        for _ in range(10):
            sys = random_standard_system(rng)
            rep = chain_report(sys, 0.1)
            assert rep["maximal_leakage"] <= rep["max_information"] + 1e-10
            assert rep["max_information"] <= rep["mi_plus_max_deviation"] + 1e-10


class TestCoverage:
    @pytest.mark.parametrize("delta", [0.3, 0.1, 0.05])
    def test_all_bounds_cover_canonical(self, inst_a, inst_c, delta):
        for sys in (inst_a, inst_c):
            for bound_id in STANDARD_COVERAGE_IDS:
                rep = coverage(sys, bound_id, delta)
                assert rep.holds, (bound_id, delta, rep.exact_violation_prob)

    def test_infeasible_atoms_count_as_violations(self):
        sys = negative_density_system()
        rep = coverage(sys, "sd_density", 0.5)
        assert rep.exact_violation_prob > 0.0
        assert rep.holds

    def test_data_independent_bounds_cover_quantile(self, inst_a, rng):
        systems = [inst_a] + [random_standard_system(rng) for _ in range(8)]
        for sys in systems:
            for delta in (0.3, 0.1):
                q = abs_quantile(sys, 1 - delta)
                for res in (sd_moment_bound(sys, delta, 2),
                            sd_leakage_bound(sys, delta),
                            sd_renyi_bound(sys, delta, 2.0),
                            sd_tail_bound(sys, delta)):
                    assert res.epsilon >= q - 1e-12

    def test_coverage_on_random_instances(self, rng):
        for _ in range(6):
            sys = random_standard_system(rng)
            for bound_id in STANDARD_COVERAGE_IDS:
                for delta in (0.3, 0.1, 0.05):
                    assert coverage(sys, bound_id, delta).holds
