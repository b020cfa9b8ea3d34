import dataclasses
import gc
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from genbounds import cli, verify
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds.engine import BoundResult, view_of
from genbounds.models import _per_vector, expected_gen
from genbounds import (
    FiniteDistribution,
    assemble_standard,
    constant_kernel,
    zero_one_loss,
)
from genbounds.verify import (
    CoverageReport,
    _pushforward,
    abs_quantile,
    check_exp_inequality_standard,
    check_exp_inequality_subset,
    coverage,
    exact_gen_distribution,
    exact_gen_hat_distribution,
    gaussian_mi_validation,
    hoeffding_tail,
    quantile,
    random_standard_system,
    random_subset_system,
    run_verification_suite,
    strong_converse_check,
)
from test_orbits import _bench_problem


class TestExpInequality:
    def test_holds_on_canonical_systems(self, inst_a, inst_b, inst_c):
        assert check_exp_inequality_standard(inst_a) <= 1.0 + 1e-9
        assert check_exp_inequality_standard(inst_c) <= 1.0 + 1e-9
        assert check_exp_inequality_subset(inst_b) <= 1.0 + 1e-9

    def test_lambda_zero_equals_base_support_mass(self, inst_a, inst_c):
        # at lambda = 0 the expectation is the product-measure mass of the
        # joint support: 1 for a full-support learner, below 1 otherwise
        assert check_exp_inequality_standard(
            inst_c, lambda_grid=[0.0]) == pytest.approx(1.0, abs=1e-12)
        # the deterministic learner drops the (w=1, z=(0,0)) style atoms
        assert check_exp_inequality_standard(
            inst_a, lambda_grid=[0.0]) == pytest.approx(0.625, abs=1e-12)
        from genbounds import assemble_subset
        loss = zero_one_loss([0, 1])
        full = assemble_subset(FiniteDistribution.bernoulli(0.5), 1,
                               constant_kernel(loss, 1), loss)
        assert check_exp_inequality_subset(
            full, lambda_grid=[0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_understated_sigma_detected(self, inst_a):
        worst = check_exp_inequality_standard(inst_a, sigma=inst_a.sigma / 4)
        assert worst > 1.0 + 1e-9

    def test_understated_range_constant_detected(self, inst_b):
        worst = check_exp_inequality_subset(inst_b, c=1.0 / 16.0)
        assert worst > 1.0 + 1e-9

    @pytest.mark.parametrize("kwargs, name", [
        ({"lambda_grid": []}, "lambda_grid"), ({"lambda_grid": [math.nan]}, "lambda_grid"),
        ({"lambda_grid": [0.0, math.inf]}, "lambda_grid"),
        ({"lambda_grid": [[0.0, 1.0]]}, "lambda_grid"),
        ({"sigma": math.nan}, "sigma"), ({"sigma": 0.0}, "sigma"),
        ({"sigma": -1.0}, "sigma"), ({"sigma": math.inf}, "sigma")])
    def test_standard_check_refuses_malformed_input(self, inst_a, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            check_exp_inequality_standard(inst_a, **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"lambda_grid": []}, "lambda_grid"), ({"lambda_grid": [1.0, math.nan]}, "lambda_grid"),
        ({"c": math.nan}, "c"), ({"c": 0.0}, "c"), ({"c": -0.5}, "c"),
        ({"c": math.inf}, "c")])
    def test_subset_check_refuses_malformed_input(self, inst_b, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            check_exp_inequality_subset(inst_b, **kwargs)

    @pytest.mark.parametrize("sigma, name", [
        (1e-200, "sigma ** 2"), (1e200, "sigma ** 2"), (1e155, "sigma ** 2"),
        (1e-155, "n / sigma ** 2"), (1e-100, "n / sigma ** 2")])
    def test_standard_check_refuses_an_extreme_scale(self, inst_a, sigma, name):
        """sigma^2 underflows to 0 or overflows; or the default lambda^2
        would overflow and read as "holds"."""
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must"):
            check_exp_inequality_standard(inst_a, sigma=sigma)

    @pytest.mark.parametrize("c", [1e-320, 1e-300, 1e-200])
    def test_subset_check_refuses_an_extreme_scale(self, inst_b, c):
        with pytest.raises(ValueError, match=r"^n / c must"):
            check_exp_inequality_subset(inst_b, c=c)

    def test_extreme_scales_in_range_keep_their_values(self, inst_a, inst_b):
        """Only the default grid's scale is bounded: an explicit grid at a tiny
        variance, and huge finite scales, give the loop's values."""
        grid = [0.0, 1.0, -2.0]
        assert check_exp_inequality_subset(inst_b, grid, c=1e-300) == \
            oracles.exp_inequality_loop(view_of(inst_b), 1e-300, grid)
        assert check_exp_inequality_standard(inst_a, sigma=1e154) == \
            oracles.exp_inequality_loop(view_of(inst_a), 1e154 ** 2, None)
        assert check_exp_inequality_subset(inst_b, c=1e300) == \
            oracles.exp_inequality_loop(view_of(inst_b), 1e300, None)

    def test_an_explicit_grid_that_overflows_lambda_squared_is_refused(self, inst_a, inst_b):
        """lambda^2 variance / (2n) past the largest float would read "holds"."""
        with pytest.raises(ValueError, match=r"^lambda_grid must"):
            check_exp_inequality_standard(inst_a, [1e160], sigma=1e-100)
        with pytest.raises(ValueError, match=r"^lambda_grid must"):
            check_exp_inequality_subset(inst_b, [0.0, -1e160], c=1e-200)

    def test_a_value_past_the_largest_float_reads_inf(self, inst_a, inst_b):
        assert check_exp_inequality_standard(inst_a, [1e100], sigma=1e-100) == math.inf
        assert check_exp_inequality_subset(inst_b, [0.0, 1e100], c=1e-200) == math.inf
        # a finite row before the overflowing one does not hide it
        assert check_exp_inequality_standard(inst_a, [0.0, 1e100], sigma=1e-100) == math.inf

    def test_the_blocked_check_holds_one_copy_of_a_block(self):
        """Beyond the per-lambda loop's peak, a pass holds one block of terms
        and the one block-sized temporary of ``logsumexp``: not the three
        copies of building the terms and reducing them out of place."""
        # the per-vector system: 3^6 supersamples times 2^3 selectors times 4
        sys = _per_vector(_bench_problem(np.random.default_rng(0), "gibbs", "subset", 3, 4, 3))
        view = view_of(sys)
        support = int(np.count_nonzero(view.iota > -math.inf))
        assert support == 23328
        # all 9 default lambdas in one block at this support
        assert verify._EXP_BLOCK >= len(verify.DEFAULT_LAMBDA_SCALES) * support

        def peak(run):
            run()  # the view's memo is filled before tracing
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loop = peak(lambda: oracles.exp_inequality_loop(view, view.variance, None))
        blocked = peak(lambda: check_exp_inequality_subset(sys))
        block_bytes = len(verify.DEFAULT_LAMBDA_SCALES) * support * 8
        assert blocked <= loop + 2 * block_bytes, (blocked, loop, block_bytes)

    def test_holds_on_random_instances(self, rng):
        for _ in range(15):
            assert check_exp_inequality_standard(
                random_standard_system(rng)) <= 1.0 + 1e-9
            assert check_exp_inequality_subset(
                random_subset_system(rng)) <= 1.0 + 1e-9


class TestPushforwards:
    def test_symmetric_system_has_zero_mean(self, inst_c):
        dist = exact_gen_distribution(inst_c)
        mean = sum(float(o) * m for o, m in zip(dist.outcomes, dist.mass))
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_inst_a_mean_matches_expected_gen(self, inst_a):
        dist = exact_gen_distribution(inst_a)
        mean = sum(float(o) * m for o, m in zip(dist.outcomes, dist.mass))
        assert mean == pytest.approx(0.25, abs=1e-12)

    def test_inst_b_gap_support(self, inst_b):
        dist = exact_gen_hat_distribution(inst_b)
        assert set(dist.outcomes) <= {-1.0, 0.0, 1.0}
        assert abs(sum(dist.mass) - 1.0) < 1e-12

    def test_quantiles(self, inst_c):
        # the law of gen is {-0.5: 1/4, 0: 1/2, 0.5: 1/4}, that of |gen| {0: 1/2, 0.5: 1/2}
        assert quantile(inst_c, 0.25) == -0.5
        assert quantile(inst_c, 0.5) == 0.0
        assert quantile(inst_c, 0.9) == 0.5
        assert abs_quantile(inst_c, 0.5) == 0.0
        assert abs_quantile(inst_c, 0.75) == 0.5

    def test_a_nan_level_is_refused_and_a_level_past_one_saturates(self, inst_c, inst_b):
        for sys in (inst_c, inst_b):
            for read in (quantile, abs_quantile):
                with pytest.raises(ValueError, match="^q must"):
                    read(sys, math.nan)
                assert read(sys, math.nextafter(1.0, 2.0)) == read(sys, 1.0)

    @staticmethod
    def _assert_matches_loop(values, masses):
        keys, sums = _pushforward(values, masses)
        labels, log_mass = oracles.pushforward(values, masses)
        assert keys.tobytes() == np.array(labels).tobytes()
        assert np.log(sums).tobytes() == log_mass.tobytes()

    def test_matches_the_loop_reference_bitwise(self, inst_a, inst_b, inst_c):
        rng = np.random.default_rng(7)
        for sys in [inst_a, inst_c] + [random_standard_system(rng) for _ in range(25)]:
            self._assert_matches_loop(sys.rows.gen, sys.joint)
        for sys in [inst_b] + [random_subset_system(rng) for _ in range(25)]:
            self._assert_matches_loop(sys.rows.values, sys.joint)

    def test_rounded_groups_keep_the_first_atom_key(self):
        # -1e-17 and 1e-17 both round to a zero, whose sign the first atom sets;
        # 0.1 + 0.2 and 0.3 share a key; zero masses are dropped
        values = np.array([0.3, -1e-17, 0.0, 1e-17, 0.1 + 0.2, 2.0, -0.0])
        masses = np.array([0.1, 0.2, 0.05, 0.15, 0.3, 0.0, 0.2])
        self._assert_matches_loop(values, masses)
        self._assert_matches_loop(values[::-1].copy(), masses[::-1].copy())


class TestCoverageReport:
    def test_inconsistent_holds_flag_rejected(self):
        with pytest.raises(ValueError):
            CoverageReport("sd_moment", 0.1, 0.5, True)

    def test_example_values(self, inst_a):
        rep = coverage(inst_a, "sd_tail", 0.3)
        assert rep.bound_id == "sd_tail"
        assert 0.0 <= rep.exact_violation_prob <= 0.3 + 1e-12
        assert rep.holds

    def test_unknown_bound_id(self, inst_a, inst_b):
        with pytest.raises(KeyError):
            coverage(inst_a, "no-such-bound", 0.1)
        with pytest.raises(KeyError):
            coverage(inst_b, "no-such-bound", 0.1)

    def test_unknown_parameters_are_refused_by_name(self, inst_a, inst_b):
        with pytest.raises(ValueError, match="'aplha'"):
            coverage(inst_a, "sd_renyi", 0.1, {"aplha": 3.0})
        with pytest.raises(ValueError, match=r"\['tee', 'beta'\]"):
            coverage(inst_b, "cond_sd_moment", 0.1, {"alpha": 3.0, "tee": 2, "beta": 1})

    @pytest.mark.parametrize("bound_id, params, message", [
        ("sd_moment", {"t": math.nan}, "moment order must be positive"),
        ("pacb_moment", {"t": "nan"}, "moment order must be positive"),
        ("sd_tail", {"gamma": math.nan}, "gamma must"),
        ("cond_sd_moment", {"t": math.nan}, "moment order must be positive"),
        ("cond_tail", {"gamma": math.nan}, "gamma must"),
    ])
    def test_a_nan_order_or_gamma_is_refused_not_read_as_a_violation(
            self, inst_a, inst_b, bound_id, params, message):
        sys = inst_a if verify.BOUNDS[bound_id].setting == "standard" else inst_b
        with pytest.raises(ValueError, match=f"^{message}"):
            coverage(sys, bound_id, 0.1, params)


class TestStrongConverse:
    def test_identical_distributions_gamma_zero(self):
        p = FiniteDistribution.from_probs([0, 1, 2], [0.2, 0.3, 0.5])
        rep = strong_converse_check(p, p, [0, 2], 0.0)
        # density is identically 0, tail empty: P[E] <= Q[E] with equality
        assert rep["density_tail"] == 0.0
        assert rep["p_event"] == pytest.approx(rep["rhs"], abs=1e-15)
        assert rep["holds"]

    def test_skewed_pair(self):
        p = FiniteDistribution.bernoulli(0.75)
        q = FiniteDistribution.bernoulli(0.5)
        rep = strong_converse_check(p, q, [1], 0.2)
        # log(dP/dQ) at outcome 1 is log(3/2) > 0.2, so the tail carries it
        assert rep["density_tail"] == pytest.approx(0.75, abs=1e-15)
        assert rep["holds"]

    def test_callable_event_and_random_instances(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 6))
            p = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
            q = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
            gamma = float(rng.normal(0.0, 1.0))
            keep = set(int(i) for i in rng.integers(0, k, size=2))
            assert strong_converse_check(p, q, keep.__contains__, gamma)["holds"]

    def test_absolute_continuity_enforced(self):
        p = FiniteDistribution.bernoulli(0.5)
        q = FiniteDistribution.from_probs([0, 1], [1.0, 0.0])
        from genbounds.prob import AbsoluteContinuityViolation
        with pytest.raises(AbsoluteContinuityViolation):
            strong_converse_check(p, q, [1], 0.0)

    def test_a_nan_gamma_is_refused_by_name(self):
        p = FiniteDistribution.bernoulli(0.5)
        with pytest.raises(ValueError, match="^gamma must"):
            strong_converse_check(p, p, [1], math.nan)

    @pytest.mark.parametrize("gamma", [1e308, math.inf])
    def test_an_overflowing_e_gamma_weights_the_q_event(self, gamma):
        p = FiniteDistribution.from_probs([0, 1, 2], [0.2, 0.3, 0.5])
        q = FiniteDistribution.from_probs([0, 1, 2], [0.5, 0.5, 0.0])
        charged = strong_converse_check(p, p, [1], gamma)  # Q[E] > 0: e^gamma Q[E] = +inf
        assert charged["rhs"] == math.inf and charged["holds"]
        rep = strong_converse_check(q, q, [2], gamma)  # Q[E] = 0: the term is 0
        assert rep["q_event"] == 0 and rep["rhs"] == rep["density_tail"] == 0.0
        assert rep["holds"]

    def test_a_finite_e_gamma_keeps_the_formula(self, rng):
        p = FiniteDistribution.from_probs(range(4), rng.dirichlet(np.ones(4)))
        q = FiniteDistribution.from_probs(range(4), rng.dirichlet(np.ones(4)))
        for gamma in (-3.0, 0.0, 0.7, 700.0):
            rep = strong_converse_check(p, q, [0, 3], gamma)
            assert rep["rhs"] == rep["density_tail"] + math.exp(gamma) * rep["q_event"]


class TestHoeffdingTail:
    def test_reference_value(self):
        assert hoeffding_tail(0.5, 2, 0.5) == pytest.approx(2 * math.exp(-1),
                                                            abs=1e-15)

    def test_argument_validation(self):
        for bad in ((0.0, 2, 0.5), (0.5, 0, 0.5), (0.5, 2, -0.1)):
            with pytest.raises(ValueError):
                hoeffding_tail(*bad)

    @pytest.mark.parametrize("bad, name", [((math.nan, 2, 0.5), "sigma"),
                                           ((math.inf, 2, 0.5), "sigma"),
                                           ((0.5, 2, math.nan), "eps"),
                                           ((0.5, 2.5, 0.5), "n"),
                                           ((0.5, math.nan, 0.5), "n"),
                                           ((0.5, 10 ** 400, 0.1), "n"),  # was an OverflowError
                                           ((0.5, -10 ** 400, 0.1), "n"),
                                           ((0.5, True, 0.1), "n")])  # was read as 1
    def test_a_nan_or_fractional_argument_is_refused_by_name(self, bad, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            hoeffding_tail(*bad)

    def test_an_integral_float_n_is_an_integer(self):
        assert hoeffding_tail(0.5, 2.0, 0.5) == hoeffding_tail(0.5, 2, 0.5)
        n = int(np.finfo(float).max)  # the largest n in the float range is taken
        assert hoeffding_tail(1.0, n, 1e-153) == pytest.approx(2.0 * math.exp(-n * 1e-306 / 2.0),
                                                               rel=1e-12)

    @pytest.mark.parametrize("args, want", [((1e200, 2, 0.5), 2.0), ((0.5, 2, 1e200), 0.0),
                                            ((1e-200, 2, 0.5), 0.0), ((1e-200, 2, 0.0), 2.0),
                                            ((1e-300, 3, 1e300), 0.0)])
    def test_squares_past_the_float_range(self, args, want):
        assert hoeffding_tail(*args) == want

    def test_ordinary_inputs_follow_the_formula(self, rng):
        for sigma, n, eps in zip(rng.uniform(0.01, 10, 50), rng.integers(1, 100, 50),
                                 rng.uniform(0, 5, 50)):
            assert hoeffding_tail(sigma, n, eps) == pytest.approx(
                2.0 * math.exp(-int(n) * eps ** 2 / (2.0 * sigma ** 2)), rel=1e-12, abs=1e-300)

    def test_dominates_exact_empirical_tail(self):
        # fixed hypothesis, iid 0/1 losses: the bound must dominate the
        # exact binomial deviation probability
        loss = zero_one_loss([0, 1])
        pz = FiniteDistribution.bernoulli(0.5)
        for n in (1, 2, 3):
            sys = assemble_standard(pz, n, constant_kernel(loss, n), loss)
            dist = exact_gen_distribution(sys)
            for eps in (0.2, 0.4, 0.6):
                exact = sum(m for o, m in zip(dist.outcomes, dist.mass)
                            if abs(float(o)) > eps)
                assert exact <= hoeffding_tail(0.5, n, eps) + 1e-12


class TestGaussianValidation:
    def test_closed_form(self):
        rep = gaussian_mi_validation(4, 1.0, 1.0, samples=10)
        assert rep["closed_form"] == pytest.approx(0.5 * math.log(1.25),
                                                   abs=1e-15)

    def test_mc_within_three_se(self):
        rep = gaussian_mi_validation(2, 0.5, 1.0, samples=100_000, seed=7)
        assert rep["within_3se"]
        assert rep["std_error"] < 0.05

    def test_vanishing_prior_gives_vanishing_mi(self):
        rep = gaussian_mi_validation(1, 1.0, 1e-12, samples=10)
        assert rep["closed_form"] == pytest.approx(0.0, abs=1e-9)

    def test_variance_validation(self):
        with pytest.raises(ValueError):
            gaussian_mi_validation(1, 0.0, 1.0)

    @pytest.mark.parametrize("args, kwargs, name", [
        ((0, 1.0, 1.0), {}, "n"),  # was a ZeroDivisionError
        ((-1, 1.0, 1.0), {}, "n"),  # was "math domain error"
        ((1.5, 1.0, 1.0), {}, "n"),
        ((2, 1.0, 1.0), {"samples": 1}, "samples"),  # was a NaN std_error
        ((2, 1.0, 1.0), {"samples": 0}, "samples"),
        ((2, math.nan, 1.0), {}, "noise_var"),
        ((2, 1.0, math.nan), {}, "prior_var"),
        ((2, math.inf, 1.0), {}, "noise_var"),
        ((10 ** 400, 1.0, 1.0), {}, "n"),  # was an OverflowError
        ((2, 1.0, 1.0), {"samples": 10 ** 400}, "samples"),
        ((True, 1.0, 1.0), {"samples": 10}, "n"),  # was read as 1
        ((2, 1.0, 1.0), {"samples": True}, "samples"),
    ])
    def test_malformed_input_is_refused_by_name(self, args, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            gaussian_mi_validation(*args, **kwargs)

    def test_two_samples_give_a_finite_standard_error(self):
        assert math.isfinite(gaussian_mi_validation(2, 1.0, 1.0, samples=2)["std_error"])


class TestSuiteRunner:
    def test_small_suite_passes(self):
        rep = run_verification_suite(seed=3, n_instances=4)
        assert rep["passed"], rep["failures"]
        assert rep["checks"] > 100
        assert rep["seed"] == 3

    def test_injected_fault_detected(self):
        rep = run_verification_suite(seed=3, n_instances=2, sigma_scale=0.25)
        assert not rep["passed"]
        assert any("exp-inequality" in f for f in rep["failures"])

    @pytest.mark.parametrize("options, name", [
        ({"sigma_scale": math.nan}, "sigma_scale"), ({"sigma_scale": -1.0}, "sigma_scale"),
        ({"sigma_scale": 0.0}, "sigma_scale"), ({"sigma_scale": math.inf}, "sigma_scale"),
        ({"n_instances": 0}, "n_instances"), ({"n_instances": -1}, "n_instances"),
        ({"sigma_scale": 1e-200}, "sigma_scale"), ({"sigma_scale": 1e200}, "sigma_scale"),
        ({"sigma_scale": 1e-100}, "sigma_scale"),
        ({"n_instances": math.nan}, "n_instances"), ({"n_instances": 2.5}, "n_instances"),
        ({"n_instances": True}, "n_instances"),
    ])
    def test_refuses_an_out_of_range_option(self, options, name):
        with pytest.raises(ValueError, match=name):
            run_verification_suite(**options)

    def test_a_check_value_past_the_largest_float_is_a_failure(self, capsys):
        rep = run_verification_suite(seed=0, n_instances=1, sigma_scale=1e-30)
        names = ["standard[0]", "standard[1]", "standard[2]", "subset[0]", "subset[1]"]
        assert rep["failures"] == [f"exp-inequality {n}: worst=inf" for n in names]
        assert not rep["passed"]
        assert rep["checks"] == run_verification_suite(seed=0, n_instances=1)["checks"]

    @pytest.mark.parametrize("seed,sigma_scale", [(0, 1.0), (0, 0.5), (3, 1.0), (3, 0.5)])
    def test_equals_the_recorded_suite(self, seed, sigma_scale):
        """The dicts the suite returned when it held every system until the
        end (50 instances each); seed 3 with the fault fails a subset system
        drawn after most standard ones, so the order of the list shows."""
        expected = json.loads((Path(__file__).parent / "suite_expected.json").read_text())
        rep = run_verification_suite(seed=seed, n_instances=50, sigma_scale=sigma_scale)
        assert rep == expected[f"{seed}_{sigma_scale}"]

    def test_lets_each_system_go(self, monkeypatch):
        drawn = []

        def draw(make):
            def tracked(rng):
                assert all(ref() is None for ref in drawn), "an earlier system is alive"
                sys = make(rng)
                drawn.append(weakref.ref(sys))
                return sys
            return tracked

        for name in ("random_standard_system", "random_subset_system"):
            monkeypatch.setattr(verify, name, draw(getattr(verify, name)))
        gc.collect()
        gc.disable()
        try:
            assert run_verification_suite(seed=1, n_instances=3)["passed"]
        finally:
            gc.enable()
        assert len(drawn) == 6


class TestSuiteReportsEachFailure:
    """The suite's ordering, gap-identity, coverage and average-bound failure
    branches, each reached by replacing a name that the suite or the
    registry looks up at call time: every failure is listed with its system
    (and delta), the suite fails with its check count unchanged, and
    ``verify`` prints each as a FAIL line and exits 1."""

    STANDARD = ("standard[0]", "standard[1]", "standard[2]")
    SUBSET = ("subset[0]", "subset[1]")
    DELTAS = (0.3, 0.1, 0.05)

    @pytest.fixture(scope="class")
    def clean(self):
        rep = run_verification_suite(seed=0, n_instances=1)
        assert rep["passed"] and not rep["failures"]
        return rep

    @staticmethod
    def _systems():
        """The systems of the seed-0, one-instance suite, standard ones first,
        in the order of their names."""
        from genbounds import load_fixture

        rng = np.random.default_rng(0)
        drawn = random_standard_system(rng), random_subset_system(rng)
        inst_a, inst_c, inst_b = (load_fixture(n)[1] for n in ("inst_a", "inst_c", "inst_b"))
        return [inst_a, inst_c, drawn[0], inst_b, drawn[1]]

    def _orderings(self, monkeypatch):
        monkeypatch.setattr(bstd, "chain_report", lambda sys, delta: {"holds": False})
        monkeypatch.setattr(bsub, "leakage_ordering_check", lambda sys: {"holds": False})
        return ([f"chain violated on {n}" for n in self.STANDARD]
                + [f"leakage ordering violated on {n}" for n in self.SUBSET])

    def _gap_identity(self, monkeypatch):
        moment = bstd.sd_moment_bound

        def sd_moment_bound(sys, delta, t, q_w=None, relaxed=False):
            res = moment(sys, delta, t, q_w, relaxed)
            return dataclasses.replace(res, epsilon=res.epsilon + 1e-3) if relaxed else res

        monkeypatch.setattr(bstd, "sd_moment_bound", sd_moment_bound)
        return [f"gap identity violated on {n} delta={d}"
                for n in self.STANDARD for d in self.DELTAS]

    def _coverage(self, monkeypatch):
        monkeypatch.setattr(bstd, "sd_leakage_bound", lambda sys, delta, relaxed=False:
                            BoundResult(0.0, "single-draw", "data-independent"))
        expected = []
        for name, sys in zip(self.STANDARD, self._systems()):
            # mass of the atoms whose |gen| an epsilon of 0 does not bound
            viol = sum(float(m) for v, m in zip(sys.rows.gen.ravel(), sys.joint.ravel())
                       if not abs(v) <= verify.COVERAGE_TOL)
            expected += [f"coverage {bound_id} {name} delta={d}: viol={viol:.6g}"
                         for d in self.DELTAS if viol > d + verify.COVERAGE_TOL
                         for bound_id in ("sd_leakage", "tail_relax_leakage")]
        return expected

    def _average(self, monkeypatch):
        # each average bound's epsilon scaled by 1e-6: every system's |E[gen]|
        # exceeds it but inst_c's (standard[1]), where both are 0
        def scaled(bound):
            def evaluate(sys, *args):
                res = bound(sys, *args)
                return dataclasses.replace(res, epsilon=res.epsilon * 1e-6)
            return evaluate

        expected = []
        for name, sys in zip(self.STANDARD + self.SUBSET, self._systems()):
            eps = 1e-6 * (bstd.avg_mi_bound(sys) if sys.setting == "standard"
                          else bsub.cmi_avg_bound(sys)).epsilon
            bound_id, gen = "avg" if sys.setting == "standard" else "cmi", abs(expected_gen(sys))
            if gen > eps + verify.COVERAGE_TOL:
                expected.append(f"average {bound_id} {name}: |E[gen]|={gen:.6g} > eps={eps:.6g}")
        monkeypatch.setattr(bstd, "avg_mi_bound", scaled(bstd.avg_mi_bound))
        monkeypatch.setattr(bsub, "cmi_avg_bound", scaled(bsub.cmi_avg_bound))
        return expected

    @pytest.mark.parametrize("inject", ["_orderings", "_gap_identity", "_coverage", "_average"])
    def test_lists_each_failure(self, monkeypatch, capsys, tmp_path, clean, inject):
        expected = getattr(self, inject)(monkeypatch)
        assert expected
        rep = run_verification_suite(seed=0, n_instances=1)
        assert rep["failures"] == expected
        assert not rep["passed"] and rep["checks"] == clean["checks"]
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"instances": 1}))
        capsys.readouterr()
        assert cli.main(["verify", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out.splitlines() == (
            [f"FAIL {f}" for f in expected]
            + [f"{clean['checks']} checks, {len(expected)} failures (seed 0)"])
