import math

import numpy as np
import pytest

from genbounds import (
    FiniteDistribution,
    InvalidDistributionError,
    JointTable,
    Kernel,
    ess_sup,
    iid_power,
    information_density,
    marginalize,
    product,
)
from genbounds.prob import BudgetExceededError, check_budget, load_distribution


def masses(dist):
    return {o: dist.mass_of(o) for o in dist.outcomes}


class TestFiniteDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistributionError):
            FiniteDistribution.from_probs([0, 1], [0.6, 0.6])

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidDistributionError):
            FiniteDistribution.from_probs([0, 1], [1.5, -0.5])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidDistributionError):
            FiniteDistribution.from_probs(["a", "a"], [0.5, 0.5])

    def test_support_excludes_zero_mass(self):
        d = FiniteDistribution.from_probs([0, 1, 2], [0.5, 0.5, 0.0])
        assert d.support == (0, 1)

    def test_loader_decimal_strings_and_renormalization(self):
        d = load_distribution({"outcomes": [0, 1], "probs": ["0.25", "0.75"]})
        assert d.mass_of(1) == pytest.approx(0.75, abs=1e-15)
        # sums off by < 1e-9 are renormalized ...
        d2 = load_distribution({"outcomes": [0, 1],
                                "probs": [0.5, 0.5 + 4e-10]})
        assert abs(sum(d2.mass) - 1.0) < 1e-12
        # ... larger deviations are an error
        with pytest.raises(InvalidDistributionError):
            load_distribution({"outcomes": [0, 1], "probs": [0.5, 0.51]})


class TestProduct:
    def test_product_of_uniforms_is_uniform(self):
        j = product(FiniteDistribution.bernoulli(0.5),
                    FiniteDistribution.bernoulli(0.5))
        assert all(abs(m - 0.25) < 1e-15 for m in j.mass)

    def test_point_mass_factor_relabels(self):
        q = FiniteDistribution.from_probs(["x", "y"], [0.3, 0.7])
        j = product(FiniteDistribution.point_mass(["a", "b"], "a"), q)
        assert j.mass_of(("a", "x")) == pytest.approx(0.3, abs=1e-15)
        assert j.mass_of(("b", "y")) == 0.0

    def test_bernoulli_product_masses(self):
        # direct multiplication: (3/4, 1/4) x (1/2, 1/2)
        j = product(FiniteDistribution.bernoulli(0.25),
                    FiniteDistribution.bernoulli(0.5))
        expect = {(0, 0): 3 / 8, (0, 1): 3 / 8, (1, 0): 1 / 8, (1, 1): 1 / 8}
        for pair, m in expect.items():
            assert j.mass_of(pair) == pytest.approx(m, abs=1e-15)

    def test_marginals_equal_inputs(self):
        p = FiniteDistribution.from_probs([0, 1, 2], [0.2, 0.3, 0.5])
        q = FiniteDistribution.bernoulli(0.4)
        j = product(p, q)
        assert masses(marginalize(j, [0])) == pytest.approx(masses(p), abs=1e-15)
        assert masses(marginalize(j, [1])) == pytest.approx(masses(q), abs=1e-15)


class TestIidPower:
    def test_uniform_power(self):
        d = iid_power(FiniteDistribution.bernoulli(0.5), 2)
        assert len(d) == 4
        assert all(abs(m - 0.25) < 1e-15 for m in d.mass)

    def test_n_one_is_identity_up_to_tupling(self):
        p = FiniteDistribution.from_probs([0, 1], [0.3, 0.7])
        d = iid_power(p, 1)
        assert d.mass_of((1,)) == pytest.approx(0.7, abs=1e-15)

    def test_product_masses(self):
        d = iid_power(FiniteDistribution.bernoulli(0.25), 2)
        assert d.mass_of((0, 0)) == pytest.approx(9 / 16, abs=1e-15)
        assert d.mass_of((0, 1)) == pytest.approx(3 / 16, abs=1e-15)
        assert d.mass_of((1, 1)) == pytest.approx(1 / 16, abs=1e-15)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            iid_power(FiniteDistribution.bernoulli(0.5), 0)


class TestMarginalize:
    def test_empty_keep_rejected(self):
        j = product(FiniteDistribution.bernoulli(0.5),
                    FiniteDistribution.bernoulli(0.5))
        with pytest.raises(ValueError):
            marginalize(j, [])

    def test_keep_all_coordinates_is_identity(self):
        j = product(FiniteDistribution.bernoulli(0.3),
                    FiniteDistribution.bernoulli(0.6))
        m = marginalize(j, [0, 1])
        assert masses(m) == pytest.approx(masses(j), abs=1e-15)

    def test_inst_a_hypothesis_marginal(self, inst_a):
        pw = marginalize(inst_a.joint_table(), [0])
        assert pw.mass_of(0) == pytest.approx(0.75, abs=1e-12)
        assert pw.mass_of(1) == pytest.approx(0.25, abs=1e-12)


class TestEssSup:
    def test_zero_mass_outcome_excluded(self):
        d = FiniteDistribution.from_probs([0, 1, 2], [0.5, 0.5, 0.0])
        assert ess_sup([1.0, 2.0, 3.0], d) == 2.0

    def test_constant_values(self):
        d = FiniteDistribution.bernoulli(0.5)
        assert ess_sup({0: 7.0, 1: 7.0}, d) == 7.0

    def test_sentinel_extremes_at_zero_mass_never_selected(self, rng):
        for _ in range(25):
            k = int(rng.integers(3, 7))
            probs = rng.dirichlet(np.ones(k))
            dead = int(rng.integers(0, k))
            probs[dead] = 0.0
            probs /= probs.sum()
            vals = rng.normal(size=k)
            vals[dead] = 1e9  # sentinel planted at the zero-mass label
            d = FiniteDistribution.from_probs(range(k), probs)
            expect = max(v for i, v in enumerate(vals) if probs[i] > 0)
            assert ess_sup(list(vals), d) == expect

    def test_inst_a_density_ess_sup(self, inst_a):
        tbl = information_density(inst_a)
        d = FiniteDistribution(tbl.outcomes, tbl.log_p)
        assert ess_sup(list(tbl.iota), d) == pytest.approx(math.log(4), abs=1e-12)


class TestJointTable:
    def test_mixed_arity_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointTable([(0, 1), (0, 1, 2)], [math.log(0.5)] * 2)

    def test_exp_sum_is_one(self, inst_a):
        j = inst_a.joint_table()
        assert abs(sum(j.mass) - 1.0) < 1e-12


class TestKernel:
    def test_rows_must_share_output_labels(self):
        with pytest.raises(InvalidDistributionError):
            Kernel({0: FiniteDistribution.bernoulli(0.5),
                    1: FiniteDistribution.from_probs(["a", "b"], [0.5, 0.5])})


def test_log_sum_exp_permutation_invariance(rng):
    for _ in range(20):
        k = int(rng.integers(2, 30))
        probs = rng.dirichlet(np.ones(k))
        labels = list(range(k))
        d1 = FiniteDistribution.from_probs(labels, probs)
        perm = rng.permutation(k)
        d2 = FiniteDistribution.from_probs([labels[i] for i in perm],
                                           probs[perm])
        assert abs(sum(d1.mass) - sum(d2.mass)) < 1e-12
        for o in labels:
            assert abs(d1.mass_of(o) - d2.mass_of(o)) < 1e-12


def test_budget_guard():
    check_budget(5_000_000)
    with pytest.raises(BudgetExceededError):
        check_budget(5_000_001)


class TestNonFiniteInput:
    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [math.inf, 0.0],
                                       [0.5, math.nan]])
    def test_from_probs_refuses(self, probs):
        with pytest.raises(InvalidDistributionError):
            FiniteDistribution.from_probs([0, 1], probs)

    def test_log_masses_refuse_nan_and_plus_inf(self):
        for lm in ([math.nan, 0.0], [math.inf, -math.inf]):
            with pytest.raises(InvalidDistributionError):
                FiniteDistribution([0, 1], lm)

    def test_loader_refuses_nan(self):
        with pytest.raises(InvalidDistributionError):
            FiniteDistribution.from_json({"outcomes": [0, 1], "probs": [math.nan, 1.0]})


def test_iid_power_checks_budget_before_enumerating():
    with pytest.raises(BudgetExceededError):
        iid_power(FiniteDistribution.bernoulli(0.5), 40)


def _logsumexp_cases(rng):
    """Arrays with ties, -inf entries, all -inf slices and +inf / NaN."""
    for _ in range(300):
        shape = tuple(int(k) for k in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        a = rng.normal(0.0, 30.0, size=shape)
        a = np.round(a, int(rng.integers(0, 3)))  # rounding makes ties common
        a[rng.uniform(size=shape) < 0.3] = -math.inf
        yield a
    yield np.full((3, 2), -math.inf)
    yield np.array([0.0, math.inf, 1.0])
    yield np.array([[0.0, math.nan], [1.0, 2.0]])
    yield np.array([-745.0, -745.0, -1e300])


def test_logsumexp_matches_scipy_bitwise(rng):
    special = pytest.importorskip("scipy.special")
    from genbounds.prob import logsumexp
    with np.errstate(all="ignore"):
        for a in _logsumexp_cases(rng):
            for axis in [None] + list(range(a.ndim)):
                ours = np.asarray(logsumexp(a, axis=axis))
                theirs = np.asarray(special.logsumexp(a, axis=axis))
                assert ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes(), (a, axis)


def test_logsumexp_of_nothing_is_minus_inf():
    from genbounds.prob import logsumexp
    assert logsumexp(np.array([])) == -math.inf
    assert logsumexp(np.full(4, -math.inf)) == -math.inf


def test_import_without_scipy(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    import genbounds
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import genbounds\n"
            "from genbounds.cli import main\n"
            "assert 'scipy' not in {m.split('.')[0] for m in sys.modules if sys.modules[m]}\n"
            "rep = genbounds.run_verification_suite(seed=1, n_instances=1)\n"
            "assert rep['passed'], rep\n")
    env = {"PYTHONPATH": str(Path(genbounds.__file__).resolve().parents[1]),
           "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
