import dataclasses
import math

import numpy as np
import pytest

import oracles
from genbounds import (
    FiniteDistribution,
    LossTable,
    assemble_standard,
    assemble_subset,
    constant_kernel,
    erm_kernel,
    expected_gen,
    expected_gen_hat,
    expected_gen_subset,
    gen,
    gen_hat,
    gibbs_kernel,
    identity_kernel,
    load_problem,
    zero_one_loss,
)
from genbounds import Kernel, StandardSystem, SubsetSystem, load_fixture, models
from genbounds.prob import BudgetExceededError, ProductGrid, TypeGrid, logsumexp
from genbounds.verify import random_standard_system, random_subset_system
from test_orbits import BENCH_SHAPES, _bench_problem


class TestLossTable:
    def test_values_must_lie_in_range(self):
        with pytest.raises(ValueError):
            LossTable((0,), (0, 1), np.array([[0.0, 1.5]]), 0.0, 1.0)

    def test_default_sigma_is_half_range(self):
        loss = zero_one_loss([0, 1])
        assert loss.sigma == 0.5

    def test_sigma_below_half_range_rejected(self):
        with pytest.raises(ValueError):
            LossTable((0,), (0, 1), np.array([[0.0, 1.0]]), 0.0, 1.0, sigma=0.25)

    @pytest.mark.parametrize("matrix, a, b", [
        ([[math.nan, 1.0]], 0.0, 1.0),
        ([[0.0, math.inf]], 0.0, math.inf),
        ([[0.0, 1.0]], -math.inf, 1.0),
    ])
    def test_non_finite_values_or_range_rejected(self, matrix, a, b):
        with pytest.raises(ValueError):
            LossTable((0,), (0, 1), np.array(matrix), a, b)

    def test_non_finite_sigma_rejected(self):
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError):
                LossTable((0,), (0, 1), np.array([[0.0, 1.0]]), 0.0, 1.0, sigma=sigma)

    def test_population_and_empirical_loss(self):
        loss = zero_one_loss([0, 1])
        pz = FiniteDistribution.from_probs([0, 1], [0.25, 0.75])
        assert loss.population_losses(pz) == pytest.approx([0.75, 0.25])
        grid = ProductGrid((0, 1), 2)
        assert loss.totals(grid)[grid.code((0, 1))] / 2 == pytest.approx([0.5, 0.5])


def _never(*args, **kwargs):
    raise AssertionError("a grid was built")


class TestLearnerKernels:
    @pytest.mark.parametrize("make", [
        lambda loss: gibbs_kernel(loss, 200, 1.0),
        lambda loss: erm_kernel(loss, 200),
        lambda loss: constant_kernel(loss, 200),
    ])
    def test_budget_checked_before_enumerating(self, make, monkeypatch):
        # C(205, 5) = 2.9e9 types of 6^200 vectors, times 2 hypotheses
        loss = LossTable((0, 1), tuple(range(6)), np.zeros((2, 6)), 0.0, 1.0)
        monkeypatch.setattr(TypeGrid, "__init__", _never)
        with pytest.raises(BudgetExceededError):
            make(loss)

    def test_type_learners_have_one_row_per_type(self):
        loss = LossTable((0, 1), tuple(range(4)), np.zeros((2, 4)), 0.0, 1.0)
        for kernel in (gibbs_kernel(loss, 40, 1.0), erm_kernel(loss, 40),
                       constant_kernel(loss, 40)):
            assert isinstance(kernel.grid, TypeGrid)
            assert len(kernel.rows) == math.comb(43, 3) == 12_341

    def test_gibbs_beta_zero_is_uniform(self):
        k = gibbs_kernel(zero_one_loss([0, 1, 2]), 2, 0.0)
        for zvec in k.input_labels:
            assert all(abs(m - 1 / 3) < 1e-15 for m in k[zvec].mass)

    def test_gibbs_large_beta_approaches_tied_argmin(self):
        loss = zero_one_loss([0, 1])
        k = gibbs_kernel(loss, 2, 500.0)
        # unique minimizer: all mass there
        assert k[(0, 0)].mass_of(0) == pytest.approx(1.0, abs=1e-12)
        # two-way tie: uniform split
        assert k[(0, 1)].mass_of(0) == pytest.approx(0.5, abs=1e-12)

    def test_gibbs_rows_normalized(self, rng):
        values = rng.uniform(size=(3, 2))
        loss = LossTable((0, 1, 2), (0, 1), values, 0.0, 1.0)
        k = gibbs_kernel(loss, 2, 3.0)
        for zvec in k.input_labels:
            assert abs(sum(k[zvec].mass) - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e6])
    def test_gibbs_rows_keep_at_any_loss_scale(self, rng, scale):
        # losses scaled by c and beta by 1/c: the same rows; and beta kept,
        # logits of order 1e4-1e8 still give rows of mass 1
        values = rng.uniform(size=(5, 3))
        loss = LossTable(tuple(range(5)), (0, 1, 2), values, 0.0, 1.0)
        scaled = LossTable(tuple(range(5)), (0, 1, 2), values * scale, 0.0, scale)
        for n in (1, 4, 8):
            base = np.exp(gibbs_kernel(loss, n, 3.0).log_mass)
            rows = np.exp(gibbs_kernel(scaled, n, 3.0 / scale).log_mass)
            np.testing.assert_allclose(rows, base, rtol=1e-12, atol=0)
            sharp = gibbs_kernel(scaled, n, 3.0)
            assert np.all(np.abs(np.exp(sharp.log_mass).sum(axis=1) - 1.0) < 1e-12)

    @pytest.mark.parametrize("beta", [1e308, -1e308])
    def test_gibbs_rows_whose_best_logit_overflows_reach_the_limit(self, beta):
        # beta * total overflows on every hypothesis of some rows (type (0, 1, 2)
        # ties all three): those rows take the ERM (beta > 0) or anti-ERM
        # (beta < 0) limit, uniform over ties, with no warning
        loss = zero_one_loss([0, 1, 2])
        sign = 1.0 if beta > 0 else -1.0
        limit = erm_kernel(LossTable(loss.hypotheses, loss.instances, sign * loss.values,
                                     min(0.0, sign), max(0.0, sign)), 3, "uniform-over-argmin")
        k = gibbs_kernel(loss, 3, beta)
        assert np.array_equal(np.exp(k.log_mass), np.exp(limit.log_mass))
        assert k[(0, 1, 2)].mass == pytest.approx((1 / 3,) * 3, abs=1e-15)

    def test_gibbs_rows_that_do_not_overflow_keep_their_bits(self, rng):
        # only rows whose best logit overflows leave the shift-by-largest-logit form
        values = rng.uniform(size=(4, 3))
        loss = LossTable(tuple(range(4)), (0, 1, 2), values, 0.0, 1.0)
        for n, beta in ((3, 2.0), (4, -7.5), (2, 1e300), (2, -1e300)):
            k = gibbs_kernel(loss, n, beta)
            logits = -beta * loss.totals(k.grid)
            logits -= logits.max(axis=1, keepdims=True)
            assert np.array_equal(k.log_mass, logits - logsumexp(logits, axis=1)[:, None])

    def test_erm_tie_rules(self):
        loss = zero_one_loss([0, 1])
        lowest = erm_kernel(loss, 2, tie="lowest-index")
        assert lowest[(0, 1)].mass_of(0) == 1.0
        split = erm_kernel(loss, 2, tie="uniform-over-argmin")
        assert split[(0, 1)].mass_of(0) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ValueError):
            erm_kernel(loss, 2, tie="coin-flip")

    def test_erm_unique_minimizer(self):
        loss = zero_one_loss([0, 1])
        k = erm_kernel(loss, 2)
        assert k[(1, 1)].mass_of(1) == 1.0

    def test_identity_kernel_requires_matching_labels(self):
        loss = LossTable(("a",), (0, 1), np.array([[0.0, 1.0]]), 0.0, 1.0)
        with pytest.raises(ValueError):
            identity_kernel(loss)


class TestStandardAssembly:
    def test_inst_a_hypothesis_marginal(self, inst_a):
        assert np.exp(inst_a.rows.log_masses[2][0]) == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_constant_learner_joint_is_product(self, inst_c):
        outer = inst_c.rows.mass[:, None] * np.exp(inst_c.rows.log_masses[2][0])[None, :]
        assert inst_c.joint == pytest.approx(outer, abs=1e-15)

    def test_atom_count(self, inst_a):
        # one atom per (type, w): the types (2, 0), (1, 1), (0, 2) of the 2-vectors
        assert inst_a.joint.size == 2 * 3
        twin = oracles.product_twin(inst_a)
        assert twin.joint.size == 2 * 2 ** 2
        codes = oracles.type_codes(inst_a, twin)
        assert codes.tolist() == [0, 1, 1, 2]
        for c in range(3):
            assert inst_a.joint[c] == pytest.approx(twin.joint[codes == c].sum(axis=0),
                                                    abs=1e-15)

    def test_marginals_reproduce_inputs(self, rng):
        pz = FiniteDistribution.from_probs([0, 1], rng.dirichlet([1, 1]))
        loss = zero_one_loss([0, 1])
        sys = assemble_standard(pz, 2, gibbs_kernel(loss, 2, 1.5), loss)
        from genbounds import iid_power
        pzn = iid_power(pz, 2)
        codes = [sys.rows.row(v) for v in pzn.outcomes]
        assert sys.joint.sum(axis=1) == pytest.approx(
            np.bincount(codes, weights=pzn.mass), abs=1e-15)
        assert abs(np.exp(sys.rows.log_masses[2]).sum() - 1.0) < 1e-12

    def test_budget_refusal_before_enumeration(self, monkeypatch):
        cases = []  # 4^12 vectors of a label-form kernel, C(205, 5) types of 6^200
        for n_z, n in ((4, 12), (6, 200)):
            loss = LossTable((0, 1), tuple(range(n_z)), np.zeros((2, n_z)), 0.0, 1.0)
            kernel = (Kernel({(0,) * n: FiniteDistribution.uniform((0, 1))}) if n_z == 4
                      else constant_kernel(loss, 1))
            cases.append((FiniteDistribution.uniform(range(n_z)), n, kernel, loss))
        monkeypatch.setattr(TypeGrid, "__init__", _never)
        monkeypatch.setattr(ProductGrid, "__init__", _never)
        for pz, n, kernel, loss in cases:
            with pytest.raises(BudgetExceededError):
                assemble_standard(pz, n, kernel, loss)


class TestSubsetAssembly:
    def test_inst_b_posterior_given_distinct_supersample(self, inst_b):
        rows = inst_b.rows
        context = np.searchsorted(rows.starts, rows.row((0, 1), (0,)), side="right") - 1
        assert np.exp(rows.log_masses[2][context]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_s_ignoring_learner_posterior_constant_in_s(self):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.5), 2,
                              constant_kernel(loss, 2), loss)
        rows = sys.rows
        context = np.searchsorted(rows.starts, np.arange(len(rows.mass)), side="right") - 1
        for r, (zt, s) in enumerate(rows.labels):
            assert context[r] == np.searchsorted(rows.starts, rows.row(zt, s), side="right") - 1
            pw_given = np.exp(rows.log_masses[2][context[r]])
            assert sys.cond[r] == pytest.approx(pw_given, abs=1e-15)

    def test_atom_count(self, inst_b):
        # on orbits, one atom per (ordered label pair, w): (selected, unselected)
        # is (0, 0), (0, 1), (1, 0) or (1, 1); per vector, one per (z-tilde, s, w)
        assert inst_b.joint.size == 2 ** 2 * 2
        assert models._per_vector(inst_b).joint.size == 2 * 2 ** 2 * 2

    def test_selector_convention(self, inst_b):
        assert inst_b.select((0, 1), (0,)) == (0,)
        assert inst_b.select((0, 1), (1,)) == (1,)


class TestGenEvaluation:
    def test_inst_c_expected_gen_zero(self, inst_c):
        assert expected_gen(inst_c) == pytest.approx(0.0, abs=1e-12)

    def test_inst_a_expected_gen(self, inst_a):
        assert expected_gen(inst_a) == pytest.approx(0.25, abs=1e-12)

    def test_inst_a_atom_value(self, inst_a):
        assert gen(inst_a, 0, (0, 0)) == pytest.approx(0.5, abs=1e-15)


class TestGenHat:
    def test_equal_halves_give_zero(self, inst_b):
        for s in inst_b.rows.grids[1].vectors():
            for w in inst_b.w_labels:
                assert gen_hat(inst_b, w, (1, 1), s) == 0.0

    def test_inst_b_atom_value(self, inst_b):
        assert gen_hat(inst_b, 0, (0, 1), (0,)) == pytest.approx(1.0)

    def test_antisymmetry_under_selector_flip(self, inst_b, rng):
        loss = zero_one_loss([0, 1])
        sys = assemble_subset(FiniteDistribution.bernoulli(0.3), 2,
                              gibbs_kernel(loss, 2, 2.0), loss)
        for zt, s in sys.rows.labels:
            sbar = tuple(1 - b for b in s)
            for w in sys.w_labels:
                assert gen_hat(sys, w, zt, s) == pytest.approx(
                    -gen_hat(sys, w, zt, sbar), abs=1e-15)

    def test_selector_mean_is_zero_pointwise(self, inst_b):
        # E_S[gen_hat(w, zt, S)] = 0 for every fixed (w, zt)
        rows = inst_b.rows
        avg = np.add.reduceat(rows.values * np.exp(rows.log_masses[1])[:, None], rows.starts)
        assert avg == pytest.approx(np.zeros_like(avg), abs=1e-12)

    def test_expected_gen_matches_expected_gen_hat(self, inst_b, rng):
        assert expected_gen_subset(inst_b) == pytest.approx(
            expected_gen_hat(inst_b), abs=1e-12)
        for _ in range(10):
            from genbounds import random_subset_system
            sys = random_subset_system(rng)
            assert expected_gen_subset(sys) == pytest.approx(
                expected_gen_hat(sys), abs=1e-12)

    def test_inst_b_expected_gen_is_half(self, inst_b):
        # learned hypothesis always fits its single training sample exactly,
        # so gen = population loss = 1/2 at every atom
        assert expected_gen_subset(inst_b) == pytest.approx(0.5, abs=1e-12)


class TestOneShell:
    """Both systems share ``models._System``, whose one stored layout is the
    row record; E[gen] and E[gen_hat] sum either record's flat rows."""

    @pytest.fixture(scope="class")
    def systems(self):
        rng = np.random.default_rng(200)
        out = [load_fixture(name)[1] for name in ("inst_a", "inst_b", "inst_c")]
        for _ in range(20):
            out += [random_standard_system(rng), random_subset_system(rng)]
        return out + [_bench_problem(rng, *shape) for shape in BENCH_SHAPES]

    def test_each_setting_subclasses_the_shell_with_its_own_post_init(self):
        for cls in (StandardSystem, SubsetSystem):
            assert cls.__mro__[1] is models._System and "__post_init__" in vars(cls)
            assert cls.__reduce__ is models._System.__reduce__
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
            assert [f.name for f in dataclasses.fields(cls)] == [
                "pz", "n", "learner", "loss", "rows"]

    def test_the_assemblers_are_the_classes(self):
        assert assemble_standard is StandardSystem and assemble_subset is SubsetSystem
        assert expected_gen_subset is expected_gen

    def test_expected_gen_sums_the_record_in_row_order(self, systems):
        for sys in systems:
            rows = sys.rows
            for arr in (rows.joint, rows.gen, rows.values):
                assert arr.flags.c_contiguous and arr.base is None
            assert expected_gen(sys) == float(np.sum(rows.joint.ravel() * rows.gen.ravel()))
            assert expected_gen_hat(sys) == float(
                np.sum(rows.joint.ravel() * rows.values.ravel()))
        assert sum(sys.setting == "subset" for sys in systems) == 22


class TestProblemFiles:
    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            load_problem({"setting": "online", "instances": [0, 1], "n": 1,
                          "loss": {"hypotheses": [0], "matrix": [[0, 0]],
                                   "range": [0, 1]},
                          "learner": {"kind": "constant"}})

    def test_custom_kernel_learner(self):
        doc = {
            "setting": "standard",
            "instances": [0, 1],
            "n": 1,
            "loss": {"hypotheses": [0, 1], "matrix": [[0, 1], [1, 0]],
                     "range": [0, 1]},
            "learner": {"kind": "custom-kernel", "rows": {
                "0": {"outcomes": [0, 1], "probs": [0.9, 0.1]},
                "1": {"outcomes": [0, 1], "probs": [0.2, 0.8]},
            }},
        }
        setting, sys = load_problem(doc)
        assert setting == "standard"
        assert sys.cond[sys.rows.row((1,))][1] == pytest.approx(0.8)

    @pytest.mark.parametrize("field, edit", [
        ("n", lambda doc: doc.update(n=1.7)),
        ("n", lambda doc: doc.update(n=True)),
        ("beta", lambda doc: doc.update(learner={"kind": "gibbs", "beta": True})),
        ("sigma", lambda doc: doc["loss"].update(sigma=True)),
        ("range", lambda doc: doc["loss"].update(range=[False, 1])),
        ("pz", lambda doc: doc.update(pz=[True, False])),
        ("matrix", lambda doc: doc["loss"].update(matrix=[[True, False], [False, True]])),
        ("weights", lambda doc: doc.update(learner={"kind": "constant",
                                                    "weights": [True, False]})),
        ("probs", lambda doc: doc.update(n=1, learner={"kind": "custom-kernel", "rows": {
            "0": {"outcomes": [0, 1], "probs": [0.5, 0.5]},
            "1": {"outcomes": [0, 1], "probs": [True, False]}}})),
    ])
    def test_a_bool_or_fractional_number_is_refused_naming_its_field(self, field, edit):
        doc = {"setting": "standard", "instances": [0, 1], "n": 2,
               "loss": {"hypotheses": [0, 1], "matrix": [[0, 1], [1, 0]], "range": [0, 1]},
               "learner": {"kind": "erm"}}
        edit(doc)
        with pytest.raises(ValueError, match=f"field {field!r}"):
            load_problem(doc)

    def test_oracle_agreement_on_fixture_joint(self, inst_a):
        joint = oracles.standard_joint({0: 0.5, 1: 0.5}, 2,
                                       oracles.erm_learner_01([0, 1]))
        want = np.zeros_like(inst_a.joint)  # each type's mass is its vectors' total
        for (w, zvec), p in joint.items():
            want[inst_a.rows.atom(w, zvec)] += p
        assert inst_a.joint == pytest.approx(want, abs=1e-15)
