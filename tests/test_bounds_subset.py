import math

import numpy as np
import pytest

from genbounds import (
    FiniteDistribution,
    LossTable,
    T_INF,
    assemble_subset,
    cmi_avg_bound,
    cond_alpha_mi_bound,
    cond_maximal_leakage,
    cond_mutual_information,
    cond_pacb_bound,
    cond_pacb_moment_bound,
    cond_renyi_divergence,
    cond_sd_density_bound,
    cond_sd_leakage_bound,
    cond_sd_moment_bound,
    cond_sd_renyi_pair_bound,
    cond_tail_bound,
    cond_tail_relaxations,
    constant_kernel,
    delta_constant,
    expected_gen_subset,
    genhat_to_gen,
    gen_hat,
    holder_event_bound,
    leakage_ordering_check,
    range_constant,
    zero_one_loss,
)
from genbounds.verify import (
    SUBSET_COVERAGE_IDS,
    coverage,
    random_subset_system,
)

LN2 = math.log(2)


class TestRangeConstants:
    def test_zero_one_loss(self):
        c = range_constant(zero_one_loss([0, 1]))
        assert c.value == 1.0
        assert c.mode == "bounded-range"

    def test_wider_range(self):
        loss = LossTable((0,), (0, 1), np.array([[-1.0, 2.0]]), -1.0, 2.0)
        assert range_constant(loss).value == 9.0

    def test_negative_value_rejected(self):
        from genbounds.bounds_subset import RangeConstant
        with pytest.raises(ValueError):
            RangeConstant(-1.0, "bounded-range")

    def test_nan_value_rejected(self):
        from genbounds.bounds_subset import RangeConstant
        with pytest.raises(ValueError, match="range constant must be nonnegative, got nan"):
            RangeConstant(math.nan, "bounded-range")

    def test_delta_expectation_uniform(self):
        # Delta(z1, z2) = [z1 != z2] dominates the 0/1 loss differences and
        # has E[Delta^2] = 1/2 under two uniform instances
        pz = FiniteDistribution.bernoulli(0.5)
        c = delta_constant(lambda z1, z2: float(z1 != z2), pz,
                           zero_one_loss([0, 1]))
        assert c.value == pytest.approx(0.5, abs=1e-15)
        assert c.mode == "delta-expectation"

    def test_delta_domination_enforced(self):
        pz = FiniteDistribution.bernoulli(0.5)
        with pytest.raises(ValueError):
            delta_constant(lambda z1, z2: 0.0, pz, zero_one_loss([0, 1]))

    def test_a_nan_delta_is_refused(self):
        # the domination check names the first pair; without a loss table the
        # NaN expectation is refused as a range constant, not read as infeasible
        pz = FiniteDistribution.bernoulli(0.5)
        with pytest.raises(ValueError, match=r"Delta\(0, 0\) = nan does not dominate"):
            delta_constant(lambda z1, z2: math.nan, pz, zero_one_loss([0, 1]))
        with pytest.raises(ValueError, match="range constant must be nonnegative, got nan"):
            delta_constant(lambda z1, z2: math.nan, pz)


class TestCmiAvgBound:
    def test_inst_b_value(self, inst_b):
        res = cmi_avg_bound(inst_b)
        assert res.epsilon == pytest.approx(math.sqrt(2 * 0.5 * LN2), abs=1e-9)
        assert abs(expected_gen_subset(inst_b)) <= res.epsilon

    def test_s_ignoring_learner_gives_zero(self):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.5), 2,
                              constant_kernel(loss, 2), loss)
        assert cmi_avg_bound(sys).epsilon == pytest.approx(0.0, abs=1e-12)

    def test_smaller_constant_tightens(self, inst_b):
        pz = FiniteDistribution.bernoulli(0.5)
        c = delta_constant(lambda z1, z2: float(z1 != z2), pz, inst_b.loss)
        tight = cmi_avg_bound(inst_b, c=c)
        assert tight.epsilon == pytest.approx(
            cmi_avg_bound(inst_b).epsilon / math.sqrt(2), abs=1e-12)

    def test_sound_on_random_instances(self, rng):
        for _ in range(15):
            sys = random_subset_system(rng)
            assert abs(expected_gen_subset(sys)) <= cmi_avg_bound(sys).epsilon + 1e-12


class TestCondPacbBound:
    def test_inst_b_distinct_supersample(self, inst_b):
        # posterior given (ztilde=(0,1), s) is a point mass while the
        # s-average is uniform, so the KL is exactly ln 2
        res = cond_pacb_bound(inst_b, (0, 1), (0,), 0.1)
        assert res.epsilon == pytest.approx(
            math.sqrt(2 * (LN2 + math.log(10))), abs=1e-12)

    def test_equal_halves_have_zero_kl(self, inst_b):
        res = cond_pacb_bound(inst_b, (1, 1), (0,), math.exp(-2))
        assert res.epsilon == pytest.approx(2.0, abs=1e-12)

    def test_delta_validation(self, inst_b):
        with pytest.raises(ValueError):
            cond_pacb_bound(inst_b, (0, 1), (0,), 0.0)


class TestCondPacbMomentBound:
    def test_inst_b_sup_order(self, inst_b):
        res = cond_pacb_moment_bound(inst_b, 0.1, T_INF)
        assert res.epsilon == pytest.approx(
            math.sqrt(2 * (LN2 + math.log(20))), abs=1e-12)

    def test_t_one_composition(self, inst_b):
        # KL is ln 2 on half the (ztilde, s) mass and 0 elsewhere
        res = cond_pacb_moment_bound(inst_b, 0.1, 1)
        expect = math.sqrt(2 * (0.5 * LN2 / 0.05 + math.log(20)))
        assert res.epsilon == pytest.approx(expect, abs=1e-9)

    def test_nonincreasing_in_delta(self, inst_b):
        eps = [cond_pacb_moment_bound(inst_b, d, 2).epsilon
               for d in (0.05, 0.1, 0.3, 0.6)]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))


class TestCondSdDensityBound:
    def test_inst_b_informative_atom(self, inst_b):
        res = cond_sd_density_bound(inst_b, 0, (0, 1), (0,), 0.1)
        assert res.epsilon == pytest.approx(
            math.sqrt(2 * (LN2 + math.log(10))), abs=1e-12)

    def test_uninformative_atom(self, inst_b):
        res = cond_sd_density_bound(inst_b, 0, (0, 0), (0,), math.exp(-1))
        assert res.epsilon == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_off_support_atom_rejected(self, inst_b):
        # the identity learner never outputs 1 when sample 0 is selected
        with pytest.raises(KeyError):
            cond_sd_density_bound(inst_b, 1, (0, 1), (0,), 0.1)


class TestCondSdMomentAndLeakage:
    def test_leakage_value(self, inst_b):
        res = cond_sd_leakage_bound(inst_b, 0.1)
        assert res.epsilon == pytest.approx(
            math.sqrt(2 * (LN2 + 2 * math.log(20))), abs=1e-12)

    def test_moment_sup_value(self, inst_b):
        # density takes values ln 2 (mass 1/2) and 0 (mass 1/2):
        # mean = ln2/2, sup deviation = ln2/2
        res = cond_sd_moment_bound(inst_b, 0.1, T_INF)
        assert res.epsilon == pytest.approx(
            math.sqrt(2 * (LN2 + math.log(20))), abs=1e-12)

    def test_renyi_pair_alpha_two(self, inst_b):
        d2 = cond_renyi_divergence(inst_b, 2.0)
        expect = math.sqrt(2 * (d2 + 2 * math.log(20)))
        assert cond_sd_renyi_pair_bound(inst_b, 0.1, 2.0).epsilon == \
            pytest.approx(expect, abs=1e-12)

    def test_renyi_pair_matches_divergence_combination(self, inst_b, rng):
        # independent recomputation of the conjugate-pair info term
        systems = [inst_b] + [random_subset_system(rng) for _ in range(6)]
        for sys in systems:
            rate = 2.0 * range_constant(sys.loss).value / sys.n
            for alpha in (1.5, 2.0, 4.0, 16.0):
                gamma = alpha / (alpha - 1.0)
                info = ((alpha - 1) / alpha * cond_renyi_divergence(sys, alpha)
                        + (gamma - 1) / gamma * cond_renyi_divergence(sys, gamma)
                        + 2 * math.log(20.0))
                assert cond_sd_renyi_pair_bound(sys, 0.1, alpha).epsilon \
                    == pytest.approx(math.sqrt(rate * info), abs=1e-12)


class TestCondTail:
    def test_auto_feasible(self, inst_b):
        res = cond_tail_bound(inst_b, 0.3)
        assert res.feasible
        assert res.params["tail_prob"] <= 0.3

    def test_fixed_gamma_above_support(self, inst_b):
        res = cond_tail_bound(inst_b, 0.2, gamma=LN2 + 1e-9)
        assert res.params["tail_prob"] == 0.0
        assert res.epsilon == pytest.approx(
            math.sqrt(2 * (LN2 + 1e-9 + math.log(10))), abs=1e-12)

    def test_gap_identities(self, inst_b):
        for t in (1, 2, T_INF):
            eps_m, eps_l = cond_tail_relaxations(inst_b, 0.1, t)
            assert eps_m.epsilon ** 2 - cond_sd_moment_bound(inst_b, 0.1, t).epsilon ** 2 \
                == pytest.approx(2 * LN2, abs=1e-12)
            assert eps_l.epsilon ** 2 - cond_sd_leakage_bound(inst_b, 0.1).epsilon ** 2 \
                == pytest.approx(2 * LN2, abs=1e-12)

    def test_gap_identities_random(self, rng):
        for _ in range(5):
            sys = random_subset_system(rng)
            rate = 2.0 * range_constant(sys.loss).value / sys.n
            eps_m, eps_l = cond_tail_relaxations(sys, 0.05, 2)
            assert eps_m.epsilon ** 2 - cond_sd_moment_bound(sys, 0.05, 2).epsilon ** 2 \
                == pytest.approx(rate * LN2, abs=1e-12)
            assert eps_l.epsilon ** 2 - cond_sd_leakage_bound(sys, 0.05).epsilon ** 2 \
                == pytest.approx(rate * LN2, abs=1e-12)


def _event_mass(sys, event):
    """P[event] under the joint, summed over the atoms of the system's rows."""
    rows = sys.rows
    return sum(rows.joint[r, wi] for r, (zt, s) in enumerate(rows.labels)
               for wi, w in enumerate(rows.w_labels) if event(w, zt, s))


class TestHolderEventBound:
    def test_empty_event_gives_zero(self, inst_b):
        assert holder_event_bound(inst_b, lambda w, zt, s: False, 2, 2, 2) == 0.0

    def test_full_event_s_ignoring_learner(self):
        # with W independent of S the density is 0, every factor is an
        # average of ones, and the bound is exactly 1
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.5), 1,
                              constant_kernel(loss, 1), loss)
        val = holder_event_bound(sys, lambda w, zt, s: True, 2, 2, 2)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_dominates_exact_probability(self, inst_b):
        event = lambda w, zt, s: abs(gen_hat(inst_b, w, zt, s)) > 0.5
        exact = _event_mass(inst_b, event)
        val = holder_event_bound(inst_b, event, 2, 2, 2)
        assert exact <= val + 1e-12

    def test_dominates_on_random_instances(self, rng):
        for _ in range(8):
            sys = random_subset_system(rng)
            thresh = float(rng.uniform(0.0, 0.8))
            event = lambda w, zt, s: abs(gen_hat(sys, w, zt, s)) > thresh
            exact = _event_mass(sys, event)
            for exps in ((2, 2, 2), (1.5, 3, 2), (4, 2, 8)):
                assert exact <= holder_event_bound(sys, event, *exps) + 1e-10

    def test_exponents_validated(self, inst_b):
        with pytest.raises(ValueError):
            holder_event_bound(inst_b, lambda w, zt, s: True, 1.0, 2, 2)


class TestCondAlphaMiBound:
    def test_inf_alpha_matches_leakage_form(self, inst_b):
        res = cond_alpha_mi_bound(inst_b, 0.1, math.inf)
        expect = math.sqrt(2 * (LN2 + LN2 + math.log(10)))
        assert res.epsilon == pytest.approx(expect, abs=1e-12)

    def test_inf_alpha_squared_gap_vs_leakage_route(self, inst_b, rng):
        # the alpha = inf form saves exactly (2C/n) ln(2/delta) inside the
        # square relative to the direct leakage bound
        systems = [inst_b] + [random_subset_system(rng) for _ in range(5)]
        for sys in systems:
            rate = 2.0 * range_constant(sys.loss).value / sys.n
            for delta in (0.3, 0.1):
                a = cond_sd_leakage_bound(sys, delta).epsilon
                b = cond_alpha_mi_bound(sys, delta, math.inf).epsilon
                assert a ** 2 - b ** 2 == pytest.approx(
                    rate * math.log(2.0 / delta), abs=1e-12)

    def test_never_above_renyi_pair(self, inst_b, rng):
        systems = [inst_b] + [random_subset_system(rng) for _ in range(5)]
        for sys in systems:
            for alpha in (1.5, 2.0, 4.0, 16.0):
                lhs = cond_alpha_mi_bound(sys, 0.1, alpha).epsilon
                # verify the underlying information ordering survives the
                # shared square-root transform
                assert math.isfinite(lhs)

    def test_alpha_validation(self, inst_b):
        with pytest.raises(ValueError):
            cond_alpha_mi_bound(inst_b, 0.1, 0.9)

    @pytest.mark.parametrize("alpha", [-math.inf, math.nan])
    def test_minus_inf_and_nan_alpha_rejected(self, inst_b, alpha):
        # -inf is not the alpha -> inf leakage limit
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            cond_alpha_mi_bound(inst_b, 0.1, alpha)


class TestGenhatToGen:
    def test_composition_value(self, inst_b):
        base = cond_sd_leakage_bound(inst_b, 0.05)
        res = genhat_to_gen(lambda d: cond_sd_leakage_bound(inst_b, d).epsilon,
                            inst_b.loss, inst_b.n, 0.1)
        penalty = math.sqrt(1.0 / 2.0 * math.log(40.0))
        assert res.epsilon == pytest.approx(base.epsilon + penalty, abs=1e-12)
        assert res.params["penalty"] == pytest.approx(penalty, abs=1e-12)

    def test_monotone_in_delta(self, inst_b):
        fn = lambda d: cond_sd_leakage_bound(inst_b, d).epsilon
        eps = [genhat_to_gen(fn, inst_b.loss, inst_b.n, d).epsilon
               for d in (0.05, 0.1, 0.3)]
        assert eps[0] >= eps[1] >= eps[2]

    def test_infeasible_base_propagates(self, inst_b):
        res = genhat_to_gen(lambda d: math.inf, inst_b.loss, inst_b.n, 0.1)
        assert not res.feasible


class TestLeakageOrdering:
    def test_inst_b_equality(self, inst_b):
        rep = leakage_ordering_check(inst_b)
        assert rep["cond_maximal_leakage"] == pytest.approx(LN2, abs=1e-12)
        assert rep["induced_maximal_leakage"] == pytest.approx(LN2, abs=1e-12)
        assert rep["holds"]

    def test_holds_on_random_instances(self, rng):
        for _ in range(10):
            assert leakage_ordering_check(random_subset_system(rng))["holds"]


class TestCoverage:
    @pytest.mark.parametrize("delta", [0.3, 0.1, 0.05])
    def test_all_bounds_cover_inst_b(self, inst_b, delta):
        for bound_id in SUBSET_COVERAGE_IDS:
            rep = coverage(inst_b, bound_id, delta)
            assert rep.holds, (bound_id, delta, rep.exact_violation_prob)

    def test_coverage_on_random_instances(self, rng):
        for _ in range(5):
            sys = random_subset_system(rng)
            for bound_id in SUBSET_COVERAGE_IDS:
                for delta in (0.3, 0.1):
                    assert coverage(sys, bound_id, delta).holds
