import math

import numpy as np
import pytest

import oracles
from genbounds import (
    AbsoluteContinuityViolation,
    FiniteDistribution,
    T_INF,
    alpha_mi,
    assemble_standard,
    assemble_subset,
    central_moment,
    cond_alpha_mi,
    cond_maximal_leakage,
    cond_mutual_information,
    cond_renyi_divergence,
    conditional_density,
    constant_kernel,
    density,
    gibbs_kernel,
    information_density,
    kl,
    max_information,
    maximal_leakage,
    mutual_information,
    renyi_divergence,
    system_renyi,
    zero_one_loss,
)

LN2 = math.log(2)
# INST-A density takes the value ln(4/3) with mass 3/4 and ln 4 with mass 1/4
I_A = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
M2_A = math.sqrt(0.75 * (math.log(4 / 3) - I_A) ** 2
                 + 0.25 * (math.log(4) - I_A) ** 2)
MINF_A = math.log(4) - I_A


def _learner_rows(sys):
    """The learner's row at every z-vector (a type grid keeps one per type),
    in the form the oracles take."""
    return {zv: {w: sys.learner[zv].mass_of(w) for w in sys.w_labels}
            for zv in oracles.zvectors(sys.pz.outcomes, sys.n)}


def random_gibbs_standard(rng, n_max=3):
    n = int(rng.integers(1, n_max + 1))
    n_z = int(rng.integers(2, 4))
    n_w = int(rng.integers(2, 5))
    from genbounds import LossTable
    loss = LossTable(tuple(range(n_w)), tuple(range(n_z)),
                     rng.uniform(size=(n_w, n_z)), 0.0, 1.0)
    pz = FiniteDistribution.from_probs(loss.instances, rng.dirichlet(np.ones(n_z)))
    return assemble_standard(pz, n, gibbs_kernel(loss, n, rng.uniform(0, 8)), loss)


def random_gibbs_subset(rng):
    n = int(rng.integers(1, 3))
    n_z = int(rng.integers(2, 4))
    n_w = int(rng.integers(2, 4))
    from genbounds import LossTable
    loss = LossTable(tuple(range(n_w)), tuple(range(n_z)),
                     rng.uniform(size=(n_w, n_z)), 0.0, 1.0)
    pz = FiniteDistribution.from_probs(loss.instances, rng.dirichlet(np.ones(n_z)))
    return assemble_subset(pz, n, gibbs_kernel(loss, n, rng.uniform(0, 8)), loss)


class TestDensity:
    def test_identical_measures_give_zero(self):
        p = FiniteDistribution.from_probs([0, 1, 2], [0.2, 0.3, 0.5])
        tbl = density(p, p)
        assert tbl.iota == pytest.approx(np.zeros(3), abs=1e-15)

    def test_inst_a_atom(self, inst_a):
        tbl = information_density(inst_a)
        pos = tbl.outcomes.index((0, (0, 0)))
        assert tbl.iota[pos] == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_absolute_continuity_violation(self):
        p = FiniteDistribution.from_probs([0, 1], [0.5, 0.5])
        q = FiniteDistribution.from_probs([0, 1], [1.0, 0.0])
        with pytest.raises(AbsoluteContinuityViolation):
            density(p, q)

    def test_mean_nonnegative_against_marginal_product(self, rng):
        for _ in range(15):
            sys = random_gibbs_standard(rng)
            assert information_density(sys).mean >= -1e-12


class TestConditionalDensity:
    def test_s_ignoring_learner_gives_zero(self):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.4), 2,
                              constant_kernel(loss, 2), loss)
        tbl = conditional_density(sys)
        assert tbl.iota == pytest.approx(np.zeros(len(tbl.iota)), abs=1e-15)

    def test_inst_b_distinct_supersample_atoms(self, inst_b):
        tbl = conditional_density(inst_b)
        # distinct entries: the consistent hypothesis has density ln 2
        pos = tbl.outcomes.index((0, (0, 1), (0,)))
        assert tbl.iota[pos] == pytest.approx(LN2, abs=1e-12)

    def test_inst_b_equal_supersample_atoms(self, inst_b):
        tbl = conditional_density(inst_b)
        for (w, zt, s), iota in zip(tbl.outcomes, tbl.iota):
            if zt[0] == zt[1]:
                assert iota == pytest.approx(0.0, abs=1e-15)

    def test_oracle_agreement(self, rng):
        for _ in range(5):
            sys = random_gibbs_subset(rng)
            pz = {z: sys.pz.mass_of(z) for z in sys.pz.outcomes}
            matrix = {w: {z: sys.loss.loss(w, z) for z in sys.loss.instances}
                      for w in sys.loss.hypotheses}
            # reconstruct the same Gibbs weights independently
            learner = _learner_rows(sys)
            expect = oracles.cond_mutual_information(pz, sys.n, learner.__getitem__)
            assert cond_mutual_information(sys) == pytest.approx(expect, abs=1e-10)


class TestKl:
    def test_identical_is_zero(self):
        p = FiniteDistribution.bernoulli(0.3)
        assert kl(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_two_term_value(self):
        p = FiniteDistribution.bernoulli(0.5)
        q = FiniteDistribution.bernoulli(0.25)
        expect = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert kl(p, q) == pytest.approx(expect, abs=1e-12)

    def test_posterior_average_equals_mutual_information(self, inst_a):
        arrays = oracles.system_arrays(inst_a)
        pw = FiniteDistribution.from_probs(inst_a.w_labels, arrays["pw"])
        total = 0.0
        for mass, zvec in zip(arrays["pzn"], arrays["vectors"]):
            total += mass * kl(inst_a.posterior(zvec), pw)
        assert total == pytest.approx(mutual_information(inst_a), abs=1e-12)
        assert total == pytest.approx(I_A, abs=1e-9)


class TestRenyiDivergence:
    def test_identical_is_zero_for_any_order(self):
        p = FiniteDistribution.bernoulli(0.3)
        for alpha in (0.5, 2.0, 7.0):
            assert renyi_divergence(p, p, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_order_two_value(self):
        p = FiniteDistribution.bernoulli(0.5)
        q = FiniteDistribution.bernoulli(0.25)
        assert renyi_divergence(p, q, 2.0) == pytest.approx(math.log(4 / 3),
                                                            abs=1e-12)

    def test_limit_alpha_to_one(self):
        p = FiniteDistribution.bernoulli(0.5)
        q = FiniteDistribution.bernoulli(0.25)
        target = kl(p, q)
        for alpha in (1 + 1e-5, 1 - 1e-5):
            assert abs(renyi_divergence(p, q, alpha) - target) < 1e-5

    def test_monotone_in_alpha(self, rng):
        for _ in range(15):
            k = int(rng.integers(2, 5))
            p = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
            q = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
            values = [renyi_divergence(p, q, a) for a in (0.3, 0.7, 1.5, 2, 4, 16)]
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_invalid_alpha(self):
        p = FiniteDistribution.bernoulli(0.5)
        with pytest.raises(ValueError):
            renyi_divergence(p, p, 0.0)

    def test_oracle_agreement(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 5))
            p = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
            q = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
            pd = {o: p.mass_of(o) for o in p.outcomes}
            qd = {o: q.mass_of(o) for o in q.outcomes}
            for alpha in (0.5, 2.0, 3.5):
                assert renyi_divergence(p, q, alpha) == pytest.approx(
                    oracles.renyi(pd, qd, alpha), abs=1e-10)


class TestMutualInformation:
    def test_constant_learner_zero(self, inst_c):
        assert mutual_information(inst_c) == pytest.approx(0.0, abs=1e-15)

    def test_inst_a_value(self, inst_a):
        assert mutual_information(inst_a) == pytest.approx(I_A, abs=1e-9)

    def test_entropy_cap(self, rng):
        for _ in range(10):
            sys = random_gibbs_standard(rng)
            assert mutual_information(sys) <= math.log(len(sys.w_labels)) + 1e-12

    def test_oracle_agreement(self, rng):
        for _ in range(8):
            sys = random_gibbs_standard(rng, n_max=2)
            pz = {z: sys.pz.mass_of(z) for z in sys.pz.outcomes}
            learner = _learner_rows(sys)
            assert mutual_information(sys) == pytest.approx(
                oracles.mutual_information(pz, sys.n, learner.__getitem__),
                abs=1e-10)


class TestAlphaMi:
    def test_constant_learner_zero(self, inst_c):
        assert alpha_mi(inst_c, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_inst_a_order_two_against_oracle(self, inst_a):
        expect = oracles.alpha_mi({0: 0.5, 1: 0.5}, 2,
                                  oracles.erm_learner_01([0, 1]), 2.0)
        assert alpha_mi(inst_a, 2.0) == pytest.approx(expect, abs=1e-12)

    def test_large_alpha_approaches_leakage(self, inst_a, rng):
        assert abs(alpha_mi(inst_a, 1e4) - maximal_leakage(inst_a)) < 1e-4
        for _ in range(5):
            sys = random_gibbs_standard(rng)
            assert abs(alpha_mi(sys, 1e4) - maximal_leakage(sys)) < 1e-3

    def test_invalid_alpha(self, inst_a):
        with pytest.raises(ValueError):
            alpha_mi(inst_a, -1.0)


class TestMaximalLeakage:
    def test_constant_learner_zero(self, inst_c):
        assert maximal_leakage(inst_c) == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_surjective_binary_map(self):
        loss = zero_one_loss([0, 1])
        from genbounds import identity_kernel
        sys = assemble_standard(FiniteDistribution.bernoulli(0.5), 1,
                                identity_kernel(loss), loss)
        assert maximal_leakage(sys) == pytest.approx(LN2, abs=1e-12)

    def test_inst_a_value(self, inst_a):
        assert maximal_leakage(inst_a) == pytest.approx(LN2, abs=1e-12)

    def test_oracle_agreement(self, rng):
        for _ in range(8):
            sys = random_gibbs_standard(rng, n_max=2)
            pz = {z: sys.pz.mass_of(z) for z in sys.pz.outcomes}
            learner = _learner_rows(sys)
            assert maximal_leakage(sys) == pytest.approx(
                oracles.maximal_leakage(pz, sys.n, learner.__getitem__),
                abs=1e-10)


class TestMaxInformation:
    def test_constant_learner_zero(self, inst_c):
        assert max_information(inst_c) == pytest.approx(0.0, abs=1e-15)

    def test_inst_a_value(self, inst_a):
        assert max_information(inst_a) == pytest.approx(math.log(4), abs=1e-12)

    def test_at_least_mutual_information(self, rng):
        for _ in range(10):
            sys = random_gibbs_standard(rng)
            assert max_information(sys) >= mutual_information(sys) - 1e-12


class TestCentralMoment:
    def test_constant_density_gives_zero(self, inst_c):
        tbl = information_density(inst_c)
        for t in (1, 2, 5.5, T_INF):
            assert central_moment(tbl, t) == pytest.approx(0.0, abs=1e-15)

    def test_inst_a_second_moment(self, inst_a):
        assert central_moment(information_density(inst_a), 2) == pytest.approx(
            M2_A, abs=1e-12)

    def test_inst_a_sup_moment(self, inst_a):
        assert central_moment(information_density(inst_a), T_INF) == pytest.approx(
            MINF_A, abs=1e-12)

    def test_inf_spellings_equivalent(self, inst_a):
        tbl = information_density(inst_a)
        assert central_moment(tbl, "inf") == central_moment(tbl, math.inf)

    def test_oracle_agreement(self, inst_a):
        table = oracles.information_density_table(
            {0: 0.5, 1: 0.5}, 2, oracles.erm_learner_01([0, 1]))
        tbl = information_density(inst_a)
        for t, lib_t in ((1, 1), (2, 2), (3.7, 3.7), (math.inf, T_INF)):
            assert central_moment(tbl, lib_t) == pytest.approx(
                oracles.central_moment(table, t), abs=1e-12)


class TestCondRenyi:
    def test_s_ignoring_learner_zero(self):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.5), 1,
                              constant_kernel(loss, 1), loss)
        assert cond_renyi_divergence(sys, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_limit_alpha_to_one(self, inst_b):
        target = cond_mutual_information(inst_b)
        for alpha in (1 + 1e-4, 1 - 1e-4):
            assert abs(cond_renyi_divergence(inst_b, alpha) - target) < 1e-4

    def test_inst_b_order_two_against_oracle(self, inst_b):
        expect = oracles.cond_renyi({0: 0.5, 1: 0.5}, 1,
                                    oracles.identity_learner([0, 1]), 2.0)
        assert cond_renyi_divergence(inst_b, 2.0) == pytest.approx(expect,
                                                                   abs=1e-12)


class TestCondAlphaMi:
    def test_s_ignoring_learner_zero(self):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.5), 1,
                              constant_kernel(loss, 1), loss)
        assert cond_alpha_mi(sys, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_large_alpha_approaches_cond_leakage(self, inst_b, rng):
        assert abs(cond_alpha_mi(inst_b, 1e4) - cond_maximal_leakage(inst_b)) < 1e-3
        for _ in range(5):
            sys = random_gibbs_subset(rng)
            assert abs(cond_alpha_mi(sys, 1e4) - cond_maximal_leakage(sys)) < 1e-3

    def test_bounded_by_cond_renyi(self, inst_b, rng):
        systems = [inst_b] + [random_gibbs_subset(rng) for _ in range(5)]
        for sys in systems:
            for alpha in (1.5, 2.0, 4.0, 16.0):
                assert cond_alpha_mi(sys, alpha) <= (
                    cond_renyi_divergence(sys, alpha) + 1e-10)

    def test_oracle_agreement(self, inst_b):
        expect = oracles.cond_alpha_mi({0: 0.5, 1: 0.5}, 1,
                                       oracles.identity_learner([0, 1]), 2.0)
        assert cond_alpha_mi(inst_b, 2.0) == pytest.approx(expect, abs=1e-12)

    def test_invalid_alpha(self, inst_b):
        with pytest.raises(ValueError):
            cond_alpha_mi(inst_b, 1.0)


class TestCondMutualInformation:
    def test_s_ignoring_learner_zero(self):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.5), 2,
                              constant_kernel(loss, 2), loss)
        assert cond_mutual_information(sys) == pytest.approx(0.0, abs=1e-15)

    def test_inst_b_value(self, inst_b):
        assert cond_mutual_information(inst_b) == pytest.approx(0.5 * LN2,
                                                                abs=1e-12)

    def test_selector_entropy_cap(self, rng):
        for _ in range(8):
            sys = random_gibbs_subset(rng)
            assert cond_mutual_information(sys) <= sys.n * LN2 + 1e-12


class TestCondMaximalLeakage:
    def test_s_ignoring_learner_zero(self):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.5), 1,
                              constant_kernel(loss, 1), loss)
        assert cond_maximal_leakage(sys) == pytest.approx(0.0, abs=1e-15)

    def test_inst_b_value(self, inst_b):
        assert cond_maximal_leakage(inst_b) == pytest.approx(LN2, abs=1e-12)

    def test_selector_cap(self, rng):
        for _ in range(8):
            sys = random_gibbs_subset(rng)
            assert cond_maximal_leakage(sys) <= sys.n * LN2 + 1e-12

    def test_oracle_agreement(self, rng):
        for _ in range(5):
            sys = random_gibbs_subset(rng)
            pz = {z: sys.pz.mass_of(z) for z in sys.pz.outcomes}
            learner = _learner_rows(sys)
            assert cond_maximal_leakage(sys) == pytest.approx(
                oracles.cond_maximal_leakage(pz, sys.n, learner.__getitem__),
                abs=1e-10)


class TestAuxiliaryMarginals:
    def test_auxiliary_marginal_changes_mean(self, inst_a):
        q = FiniteDistribution.from_probs(inst_a.w_labels, [0.5, 0.5])
        relent = mutual_information(inst_a, q_w=q)
        assert relent >= mutual_information(inst_a) - 1e-12
        assert relent != pytest.approx(mutual_information(inst_a))

    def test_auxiliary_without_support_rejected(self, inst_a):
        q = FiniteDistribution.from_probs(inst_a.w_labels, [1.0, 0.0])
        with pytest.raises(AbsoluteContinuityViolation):
            mutual_information(inst_a, q_w=q)

    def test_system_renyi_matches_flat_divergence(self, inst_a):
        from genbounds import product, iid_power
        pzn = iid_power(inst_a.pz, inst_a.n)
        pw = FiniteDistribution.from_probs(inst_a.w_labels, oracles.system_arrays(inst_a)["pw"])
        flat = product(pw, pzn)
        joint = oracles.product_twin(inst_a).joint_table()  # over every z-vector
        for alpha in (0.5, 2.0, 4.0):
            assert system_renyi(inst_a, alpha) == pytest.approx(
                renyi_divergence(joint, flat, alpha), abs=1e-12)


def test_leakage_max_info_deviation_chain(rng, inst_a):
    systems = [inst_a] + [random_gibbs_standard(rng) for _ in range(15)]
    for sys in systems:
        tbl = information_density(sys)
        leak = maximal_leakage(sys)
        imax = max_information(sys)
        assert leak <= imax + 1e-10
        assert imax <= tbl.mean + central_moment(tbl, T_INF) + 1e-10


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("alpha", NON_FINITE)
def test_a_non_finite_order_is_refused(inst_a, inst_b, alpha):
    p = FiniteDistribution.from_probs(("a", "b"), [0.25, 0.75])
    for measure in (lambda: alpha_mi(inst_a, alpha), lambda: system_renyi(inst_a, alpha),
                    lambda: cond_alpha_mi(inst_b, alpha),
                    lambda: cond_renyi_divergence(inst_b, alpha),
                    lambda: renyi_divergence(p, p, alpha)):
        with pytest.raises(ValueError, match="alpha"):
            measure()


@pytest.mark.parametrize("value", NON_FINITE)
def test_a_non_finite_holder_exponent_is_refused(inst_b, value):
    from genbounds.bounds_subset import holder_event_bound

    for name, exponents in (("alpha", (value, 2.0, 2.0)), ("alpha_prime", (2.0, value, 2.0)),
                            ("tilde_alpha", (2.0, 2.0, value))):
        with pytest.raises(ValueError, match=f"^{name} must exceed 1 and be finite"):
            holder_event_bound(inst_b, lambda w, zt, s: True, *exponents)

