"""Verify's per-system array work, done once.

The exponential check reduces each block of lambda rows with one
``logsumexp`` along the support and must equal, bit for bit, one
``logsumexp`` per lambda (``oracles.exp_inequality_loop``), at every sigma
scale of a suite and on explicit grids, whatever the block size.
``prob.logsumexp`` through the ndarray reductions equals its wrapper form
(``oracles.logsumexp_wrappers``) on every edge case. A built-in learner's
``TypeGrid`` is one shared, read-only object per (labels, n), whose
multiplicities are computed only when read. The call counts here are
deterministic guards of that work, not timings.
"""
import math
import pickle
from collections import Counter

import numpy as np
import pytest

import oracles
from genbounds import models, verify
from genbounds import bounds_subset as bsub
from genbounds.engine import view_of
from genbounds.models import LossTable, erm_kernel, gibbs_kernel
from genbounds.prob import ProductGrid, TypeGrid, logsumexp
from test_orbits import _results, _subset_star
from test_orbits import pools  # noqa: F401  (fixtures, 40 random per setting, bench shapes)

SCALES = (1.0, 0.5, 0.25)
GRIDS = (None, [0.0], [0.0, 3.0, -7.5, 40.0], np.linspace(-60.0, 60.0, 25).tolist())


def _outcome(compute):
    """A value, or "overflow" where ``math.exp`` overflowed."""
    try:
        return compute()
    except OverflowError:
        return "overflow"


def _both(sys, scale, grid):
    """The blocked check and its one-logsumexp-per-lambda reference, at the
    sigma scale of a suite."""
    view = view_of(sys)
    if sys.setting == "standard":
        sigma = sys.sigma * scale
        return (_outcome(lambda: verify.check_exp_inequality_standard(sys, grid, sigma)),
                _outcome(lambda: oracles.exp_inequality_loop(view, sigma ** 2, grid)))
    c = bsub.range_constant(sys.loss).value * scale ** 2
    return (_outcome(lambda: verify.check_exp_inequality_subset(sys, grid, c)),
            _outcome(lambda: oracles.exp_inequality_loop(view, c, grid)))


@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_the_blocked_check_equals_the_loop(pools, setting):  # noqa: F811
    for sys in pools[setting]:
        for scale in SCALES:
            for grid in GRIDS:
                got, expected = _both(sys, scale, grid)
                assert got == expected, (scale, grid)


@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_a_support_split_across_blocks_equals_the_loop(monkeypatch, pools,  # noqa: F811
                                                       setting):
    """One logsumexp per block of lambda rows: 9 default lambdas in blocks
    of 1, 2 and 4 rows, and all in one block at the default size."""
    sys = max(pools[setting], key=lambda s: s.joint.size)
    support = int(np.count_nonzero(view_of(sys).iota > -math.inf))
    calls = []
    monkeypatch.setattr(verify, "logsumexp",
                        lambda a, axis=None: calls.append(a.shape) or logsumexp(a, axis))
    for rows, blocks in ((None, 1), (1, 9), (2, 5), (4, 3)):
        if rows is not None:
            monkeypatch.setattr(verify, "_EXP_BLOCK", rows * support + rows - 1)
        calls.clear()
        for scale in SCALES:
            got, expected = _both(sys, scale, None)
            assert got == expected, (rows, scale)
        assert len(calls) == blocks * len(SCALES)
        assert all(shape[1] == support for shape in calls)


_EDGES = [
    np.array([[0.0, 1.0, 2.0], [-math.inf] * 3, [math.inf, 0.0, 1.0],
              [math.nan, 0.0, 1.0], [math.inf, -math.inf, 0.0], [-math.inf, math.inf, math.inf],
              [5.0, 5.0, 5.0]]),
    np.random.default_rng(7).normal(size=(4, 5)) * 50.0,
    np.array([-math.inf, -math.inf]),
    np.array([1.0, math.inf]),
    np.array([1.0, math.nan, 2.0]),
    np.array([]),
    np.zeros((3, 0)),
    np.zeros((0, 3)),
    np.float64(3.0),
    -math.inf,
    [0.5, 0.25],
]


@pytest.mark.parametrize("a, axis", [
    (a, axis) for a in _EDGES for axis in (None, 0, -1) + (1,) * (np.ndim(a) == 2)])
def test_logsumexp_equals_the_wrapper_form(a, axis):
    got, expected = logsumexp(a, axis), oracles.logsumexp_wrappers(a, axis)
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


# -- one TypeGrid per (labels, n) --------------------------------------------


def _loss(instances, n_w=3):
    values = np.random.default_rng(len(instances)).uniform(size=(n_w, len(instances)))
    return LossTable(tuple(range(n_w)), tuple(instances), values, 0.0, 1.0)


def test_learners_over_the_same_labels_and_length_share_one_grid():
    grid = models._learner_grid(_loss((0, 1, 2)), 3)
    assert models._learner_grid(_loss((0, 1, 2), n_w=5), 3) is grid
    assert gibbs_kernel(_loss((0, 1, 2)), 3, 1.5).grid is grid
    assert erm_kernel(_loss((0, 1, 2)), 3).grid is grid
    assert models._learner_grid(_loss((0, 1, 2)), 2) is not grid


def test_labels_in_another_order_or_spelling_get_their_own_grid():
    grid = models._learner_grid(_loss((0, 1, 2)), 3)
    other = models._learner_grid(_loss((2, 0, 1)), 3)
    assert other is not grid and other.labels == (2, 0, 1)
    ints, floats = models._type_grid((1, 2), 2), models._type_grid((1.0, 2.0), 2)
    assert ints is not floats
    assert [type(lab) for lab in floats.vector(0)] == [float, float]


def test_a_shared_grid_is_read_only():
    grid = models._learner_grid(_loss((0, 1, 2)), 3)
    for arr in (grid.counts, grid.log_multiplicity, grid._before):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


SHAPES = [((0, 1), 1), ((0, 1, 2), 3), (("a", "b", "c", "d"), 5)]


@pytest.mark.parametrize("labels, n", SHAPES)
def test_a_shared_grid_reads_as_a_fresh_one(labels, n):
    shared, fresh = models._type_grid(labels, n), TypeGrid(labels, n)
    for name in ("counts", "log_multiplicity", "_before"):
        assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes()
    assert shared.vectors() == fresh.vectors()
    for grid in (ProductGrid(labels, n), ProductGrid(labels[::-1], n), fresh,
                 TypeGrid(labels[::-1], n), ProductGrid(labels, n + 1)):
        assert np.array_equal(shared.codes_on(grid), fresh.codes_on(grid))
    per_label = np.random.default_rng(7).normal(size=(len(labels), 3))
    assert shared.sums(per_label).tobytes() == fresh.sums(per_label).tobytes()


@pytest.mark.parametrize("labels, n", SHAPES)
def test_a_lazy_log_multiplicity_is_the_eager_product_of_binomials(labels, n):
    grid = TypeGrid(labels, n)
    assert grid._log_multiplicity is None
    eager = [math.log(math.prod(math.comb(sum(c[:d + 1]), c[d]) for d in range(1, len(c))))
             for c in grid.counts.tolist()]
    assert grid.log_multiplicity.tobytes() == np.array(eager).tobytes()
    assert grid.log_multiplicity is grid.log_multiplicity  # computed once
    with pytest.raises(AttributeError):
        grid.log_multiplicity = np.zeros(grid.size)
    copy = pickle.loads(pickle.dumps(grid))  # pickled by its inputs
    assert copy._log_multiplicity is None
    assert copy.log_multiplicity.tobytes() == grid.log_multiplicity.tobytes()


def test_an_orbit_system_leaves_its_pair_grids_multiplicities_uncomputed():
    models._orbit_grid.cache_clear()
    for n in (1, 2, 5):
        sys = models.load_problem(_subset_star(n, n_z=3, n_w=2))[1]
        _results(sys)  # every bound of the registry
        orbits = sys.rows.orbits
        assert orbits.pairs._log_multiplicity is None
        assert orbits.contexts._log_multiplicity is not None  # the context masses read it


def test_a_suite_builds_one_type_grid_per_labels_and_length(monkeypatch):
    models._shared_type_grid.cache_clear()
    built = Counter()
    init = TypeGrid.__init__

    def counting(self, labels, n):
        built[(tuple(labels), n)] += 1
        init(self, labels, n)

    monkeypatch.setattr(TypeGrid, "__init__", counting)
    assert verify.run_verification_suite(0, 10)["passed"]
    assert len(built) > 1 and set(built.values()) == {1}, built
