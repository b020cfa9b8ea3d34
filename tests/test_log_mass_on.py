"""``Kernel.log_mass_on``, the one way any grid reads a learner: on the
kernel's own grid, on product and type grids over its labels in another
order, and on grids it does not define, which it refuses by naming the
first vector. The identity learner sits on a ``TypeGrid`` of length 1:
its standard systems equal their per-vector twins bit for bit, and its
subset systems, on the orbit grid, agree with them to 1e-12 at every
(z-tilde, s), through a per-vector system equal to the twin bit for bit."""
import re

import numpy as np
import pytest

import oracles
from test_array_core import _assert_orbits_match, _record
from genbounds import (FiniteDistribution, InvalidDistributionError, Kernel, LossTable,
                       StandardSystem, SubsetSystem, conditional_density, gibbs_kernel,
                       identity_kernel, load_fixture)
from genbounds.models import _per_vector
from genbounds.prob import ProductGrid, TypeGrid

LABELS = ("a", "b", "c")


@pytest.fixture
def kernel():
    values = np.random.default_rng(3).uniform(size=(2, 3))
    return gibbs_kernel(LossTable((0, 1), LABELS, values, 0.0, 1.0), 3, 1.5)


def _bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_own_grid_reads_every_row(kernel):
    _bitwise(kernel.log_mass_on(kernel.grid), kernel.log_mass)


@pytest.mark.parametrize("grid_kind", [ProductGrid, TypeGrid])
def test_another_label_order_reads_each_vectors_type(kernel, grid_kind):
    grid = grid_kind(("c", "a", "b"), 3)
    want = np.array([kernel.log_mass[kernel.grid.code(v)] for v in grid.vectors()])
    _bitwise(kernel.log_mass_on(grid), want)


@pytest.mark.parametrize("grid, named", [
    (ProductGrid(LABELS, 2), ("a", "a")),  # another length
    (TypeGrid(LABELS, 4), ("a", "a", "a", "a")),
    (ProductGrid(("a", "d"), 3), ("a", "a", "d")),  # a label the kernel lacks
    (TypeGrid(("a", "d"), 3), ("a", "a", "d")),
])
def test_undefined_vectors_are_refused_by_name(kernel, grid, named):
    with pytest.raises(ValueError, match=re.escape(f"kernel undefined on vector {named!r}")):
        kernel.log_mass_on(grid)


def test_label_form_kernel_on_a_product_grid():
    rows = {v: FiniteDistribution.bernoulli(0.1 * (i + 1))
            for i, v in enumerate(ProductGrid(("x", "y"), 2).vectors())}
    grid = ProductGrid(("y", "x"), 2)
    _bitwise(Kernel(rows).log_mass_on(grid),
             np.array([rows[v].log_mass for v in grid.vectors()]))
    del rows[("y", "x")]
    with pytest.raises(ValueError, match=re.escape("kernel undefined on vector ('y', 'x')")):
        Kernel(rows).log_mass_on(grid)


def test_row_sum_refusal_prints_a_plain_float():
    with pytest.raises(InvalidDistributionError) as exc:
        Kernel.on_grid(np.log([[0.25, 0.25]]), (0, 1), TypeGrid(("a",), 1))
    assert "masses sum to 0.5, not 1" in str(exc.value)


def _identity_systems():
    values = np.random.default_rng(5).uniform(size=(3, 3))
    loss = LossTable(LABELS, LABELS, values, 0.0, 1.0)
    systems = [load_fixture("inst_b")[1]]
    for order in (LABELS, LABELS[::-1]):  # P_Z in and against the learner's label order
        pz = FiniteDistribution.from_probs(order, (0.5, 0.3, 0.2))
        systems += [kind(pz, 1, identity_kernel(loss), loss)
                    for kind in (StandardSystem, SubsetSystem)]
    return systems


@pytest.mark.parametrize("sys", _identity_systems(), ids=lambda s: s.setting)
def test_identity_systems_equal_their_product_twins(sys):
    assert isinstance(sys.learner.grid, TypeGrid) and sys.learner.grid.n == 1
    twin = oracles.product_twin(sys)
    assert twin.learner.grid is None
    if sys.setting == "subset":  # on orbits; its per-vector system is a label-form one
        assert sys.rows.orbits is not None
        _assert_orbits_match(sys, twin, _record(twin))
        sys = _per_vector(sys)
        assert sys.learner.grid is None and sys.rows.orbits is None
    arrays = [(name, getattr(sys.rows, name), getattr(twin.rows, name))
              for name in ("starts", "mass", "joint", "cond", "values", "gen")]
    arrays += [("log_masses", *pair) for pair in zip(sys.rows.log_masses,
                                                     twin.rows.log_masses, strict=True)]
    for name, got, want in arrays:
        _bitwise(got, want)


def test_an_auxiliary_conditional_is_read_through_the_one_gather():
    sys = load_fixture("inst_b")[1]
    ztildes = sys.rows.grids[0].vectors()
    rows = {zt: FiniteDistribution.from_probs(sys.w_labels, row)
            for zt, row in zip(ztildes, oracles.system_arrays(sys)["pw_given"])}
    missing = ztildes[-1]
    del rows[missing]
    with pytest.raises(ValueError, match=re.escape(f"kernel undefined on vector {missing!r}")):
        conditional_density(sys, Kernel(rows))
    # a hypothesis the auxiliary conditional has no column for is refused alike
    other = {zt: FiniteDistribution.point_mass(("x",), "x") for zt in ztildes}
    with pytest.raises(ValueError):
        conditional_density(sys, Kernel(other))
