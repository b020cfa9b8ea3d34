"""The array-native kernels and system assembly against the loop reference
of ``oracles`` on seeded random shapes in both settings, each type of a
type-grid learner compared at every vector of it: bit for bit wherever the
arithmetic is that of the reference (product grids, and the rows and gen of
dyadic losses), to 1e-12 where a type sums in another order."""
import itertools
import math

import numpy as np
import pytest

import oracles
from genbounds import (FiniteDistribution, Kernel, LossTable, StandardSystem,
                       SubsetSystem, constant_kernel, erm_kernel, gibbs_kernel,
                       identity_kernel)
from genbounds.prob import TypeGrid

# (setting, learner, |Z|, |W|, n, seed). Odd seeds list P_Z's outcomes in
# reverse instance order; seeds divisible by 3 give instance 0 zero mass.
CASES = [
    ("standard", "gibbs", 3, 4, 3, 0),
    ("standard", "gibbs-beta0", 2, 3, 4, 1),
    ("standard", "gibbs", 2, 9, 8, 2),  # n = 8: np.mean's pairwise branch
    ("standard", "erm", 3, 5, 3, 3),
    ("standard", "erm-uniform", 3, 5, 4, 4),
    ("standard", "erm-uniform", 2, 4, 8, 5),
    ("standard", "constant", 3, 4, 2, 6),
    ("standard", "constant-weighted", 2, 3, 3, 7),
    ("standard", "identity", 3, 3, 1, 8),
    ("standard", "custom", 3, 2, 2, 9),
    ("subset", "gibbs", 3, 3, 2, 10),
    ("subset", "gibbs-beta0", 2, 2, 3, 11),
    ("subset", "erm", 2, 4, 3, 12),
    ("subset", "erm-uniform", 3, 3, 2, 13),
    ("subset", "constant", 2, 3, 2, 14),
    ("subset", "constant-weighted", 3, 2, 1, 15),
    ("subset", "identity", 3, 3, 1, 16),
    ("subset", "custom", 2, 3, 2, 17),
]


def _learner(kind, loss, n, rng):
    """The library kernel and the reference rows keyed by z-vectors."""
    values = loss.values
    if kind.startswith("gibbs"):
        beta = 0.0 if kind == "gibbs-beta0" else float(rng.uniform(0.5, 20.0))
        return gibbs_kernel(loss, n, beta), oracles.loop_kernel_rows(values, n, "gibbs", beta)
    if kind.startswith("erm"):
        tie = "uniform-over-argmin" if kind == "erm-uniform" else "lowest-index"
        return erm_kernel(loss, n, tie), oracles.loop_kernel_rows(values, n, "erm", tie=tie)
    if kind.startswith("constant"):
        weights = None if kind == "constant" else list(rng.dirichlet(np.ones(values.shape[0])))
        return (constant_kernel(loss, n, weights),
                oracles.loop_kernel_rows(values, n, "constant", weights=weights))
    if kind == "identity":
        return identity_kernel(loss), oracles.loop_kernel_rows(values, 1, "identity")
    rows = {zvec: FiniteDistribution.from_probs(loss.hypotheses,
                                                rng.dirichlet(np.ones(values.shape[0])))
            for zvec in oracles.zvectors(loss.instances, n)}
    return Kernel(rows), {zvec: d.log_mass for zvec, d in rows.items()}


def _problem(kind, n_z, n_w, n, seed):
    rng = np.random.default_rng(seed)
    if kind.startswith("erm"):
        values = rng.integers(0, 3, size=(n_w, n_z)) / 2.0
        values[-1] = values[0]  # tied hypotheses
    else:
        values = rng.uniform(size=(n_w, n_z))
    loss = LossTable(tuple(range(n_w)), tuple(range(n_z)), values, 0.0, 1.0)
    probs = rng.dirichlet(np.ones(n_z))
    if seed % 3 == 0 and n_z > 1:
        probs[0] = 0.0
        probs /= probs.sum()
    order = loss.instances[::-1] if seed % 2 else loss.instances
    pz = FiniteDistribution.from_probs(order, probs)
    kernel, rows = _learner(kind, loss, n, rng)
    return pz, loss, kernel, rows


def _assert_bitwise(got, want, name):
    assert got.shape == want.shape, name
    assert got.flags.c_contiguous, name
    assert got.tobytes() == want.tobytes(), name


def _assert_close(got, want, name, exact):
    """Bit for bit where the arithmetic is unchanged, else to 1e-12 (a type
    sums its losses and masses in another order than each of its vectors)."""
    if exact:
        _assert_bitwise(got, want, name)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300, err_msg=name)


SUMMED = {"pzn_mass", "joint"}  # a type's mass is its vectors' total


@pytest.mark.parametrize("setting, kind, n_z, n_w, n, seed", CASES)
def test_assembly_matches_loop_reference(setting, kind, n_z, n_w, n, seed):
    pz, loss, kernel, rows = _problem(kind, n_z, n_w, n, seed)
    on_types = isinstance(kernel.grid, TypeGrid)
    rows_exact = kind != "gibbs"  # rows that do not depend on summed losses
    row_of = kernel.grid.code if kernel.grid is not None else list(rows).index
    for v, row in rows.items():
        _assert_close(kernel.log_mass[row_of(v)], row, "kernel log masses",
                      rows_exact or not on_types)
    if setting == "standard":
        sys = StandardSystem(pz, n, kernel, loss)
        want = oracles.loop_standard_arrays(pz.outcomes, pz.log_mass, n, rows,
                                            loss.values, loss.instances)
        # the z axis of the reference is in product order over P_Z's outcomes:
        # every vector reads its type's row and gen, and sums into its mass
        vecs = itertools.product(pz.outcomes, repeat=n)
        z_codes = np.array([sys.z_grid.code(v) for v in vecs])
        for name, array in want.items():
            got = getattr(sys, name)
            assert got.flags.c_contiguous, name
            if name in SUMMED:
                array = np.array([array[z_codes == c].sum(axis=0)
                                  for c in range(sys.z_grid.size)])
            elif name == "cond":
                got = got[z_codes]
            elif name == "gen_table":
                got = np.ascontiguousarray(got[:, z_codes])
            exact = not on_types or kind == "identity" or (  # one vector per type
                name == "cond" and rows_exact) or (
                name == "gen_table" and kind.startswith("erm"))  # dyadic losses
            _assert_close(got, array, name, exact)
    else:
        sys = SubsetSystem(pz, n, kernel, loss)
        want = oracles.loop_subset_arrays(pz.outcomes, pz.log_mass, n, rows,
                                          loss.values, loss.instances)
        for name, array in want.items():
            exact = rows_exact or name not in ("cond", "pw_given")
            _assert_close(getattr(sys, name), array, name, exact)
    assert on_types == (kind != "custom")  # only custom kernels are label-form


def test_kernel_labels_are_built_on_demand():
    loss = LossTable((0, 1), ("a", "b", "c"), np.zeros((2, 3)), 0.0, 1.0)
    kernel = gibbs_kernel(loss, 4, 1.0)
    assert len(kernel.rows) == math.comb(4 + 2, 2)  # the types of 3^4 vectors
    # types in the product order of their sorted representatives
    assert kernel.input_labels[4] == ("a", "a", "b", "c")
    assert list(kernel.input_labels) == sorted(kernel.input_labels)
    assert kernel.grid.code(("a", "a", "b", "c")) == kernel.grid.code(("c", "a", "b", "a")) == 4
    assert ("a", "a", "b", "c") in kernel and ("a", "d") not in kernel
    assert kernel[("c", "c", "c", "c")].mass_of(1) == pytest.approx(0.5, abs=1e-15)
