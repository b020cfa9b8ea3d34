"""One grid layout for both settings: flat (row, w) arrays whose rows are
split into contexts by ``starts``, each context's first row.

On a hand-made ragged grid (contexts of 1, 3 and 5 rows, one row of zero
mass), every segment reduction equals its reference on the zero-mass
padded (context, 5, w) array: the sum and the maximum, the segment
``logsumexp``, the alpha-MI and the leakage. The subset view reads the
system's row record, the one layout it stores, without a copy (per vector,
|S| rows per supersample; on the orbit grid, its ragged contexts), and the
Holder bound, now two nested means over the view's contexts, matches the
form it had on the (z-tilde, s, w) grid to 1e-12."""
import itertools
import math

import numpy as np
import pytest

import oracles
from genbounds import bounds_subset as bsub
from genbounds import load_fixture
from genbounds.engine import view_of
from genbounds.measures import _alpha_mi, _leakage
from genbounds.models import _per_vector
from genbounds.prob import logsumexp
from genbounds.verify import random_subset_system

SIZES = (1, 3, 5)
STARTS = np.array([0, 1, 4])
WIDTH = 4
ZERO_ROW = 2  # the second row of the 3-row context has no mass


def _close(got, want, rel=1e-12):
    return np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


def _pad(rows, fill):
    """The (context, 5, ...) array of the ragged ``rows``, ``fill`` beyond
    each context's rows."""
    out = np.full((len(SIZES), max(SIZES)) + rows.shape[1:], fill, dtype=float)
    for c, (start, size) in enumerate(zip(STARTS, SIZES)):
        out[c, :size] = rows[start:start + size]
    return out


@pytest.fixture(scope="module")
def grid():
    """A ragged grid: context masses, each row's mass given its context, the
    posterior rows (some zero), Q(w | context) and the density iota."""
    rng = np.random.default_rng(16)
    ctx = rng.dirichlet(np.ones(len(SIZES)))
    data = np.concatenate([rng.dirichlet(np.ones(size)) for size in SIZES])
    data[ZERO_ROW] = 0.0
    data[1:4] /= data[1:4].sum()
    cond = rng.dirichlet(np.ones(WIDTH), size=len(data))
    cond[5, 1] = cond[7, 3] = 0.0  # hypotheses a posterior does not charge
    cond /= cond.sum(axis=1, keepdims=True)
    cond[ZERO_ROW] = np.eye(WIDTH)[0]  # a peak that only the zero-mass row has
    q = np.add.reduceat(data[:, None] * cond, STARTS)
    with np.errstate(divide="ignore"):
        log_cond = np.log(cond)
        log_q_rows = np.log(np.repeat(q, SIZES, axis=0))
        iota = np.where(log_cond > -math.inf, log_cond - log_q_rows, -math.inf)
    mass = np.repeat(ctx, SIZES) * data
    return ctx, data, cond, q, iota, mass


def test_segment_sum_and_maximum_equal_the_padded_reductions(grid):
    _, _, cond, _, iota, _ = grid
    assert _close(np.add.reduceat(cond, STARTS), _pad(cond, 0.0).sum(axis=1))
    assert np.array_equal(np.maximum.reduceat(iota, STARTS),
                          _pad(iota, -math.inf).max(axis=1))


def test_segment_logsumexp_equals_the_padded_logsumexp(grid):
    ctx, data, _, _, iota, _ = grid
    with np.errstate(divide="ignore"):
        terms = np.log(data)[:, None] + 2.0 * iota
    got = logsumexp(terms, starts=STARTS)
    want = logsumexp(_pad(terms, -math.inf), axis=1)
    assert np.array_equal(got == -math.inf, want == -math.inf)
    assert _close(got[want > -math.inf], want[want > -math.inf])
    ties = np.zeros((9, 1))  # every term maximal: log(m) exactly
    assert np.array_equal(logsumexp(ties, starts=STARTS)[:, 0], np.log(SIZES))
    empty = np.full((9, 1), -math.inf)
    assert np.all(logsumexp(empty, starts=STARTS) == -math.inf)


def test_segment_logsumexp_is_exact_at_its_edges():
    """Ragged contexts of 1 and of 9 or more rows, column by column: m tied
    maximal terms give log(m) exactly (their value added), an all -inf
    context -inf, a +inf term +inf and a NaN term NaN."""
    widths = np.array([1, 9, 12, 1, 10])
    starts = np.append(0, np.cumsum(widths)[:-1])
    ties = np.array([1, 9, 5, 1, 3])  # the maximal terms of each context
    a = np.full((widths.sum(), 5), -math.inf)
    a[:, 0] = 0.0  # every term maximal
    for start, width, m in zip(starts, widths, ties):
        a[start:start + m, 1] = 2.5  # m ties, the rest -inf
    a[:, 3] = a[:, 4] = np.random.default_rng(7).normal(size=widths.sum())
    a[starts + widths // 2, 3] = math.inf
    a[starts + widths - 1, 4] = math.nan
    got = logsumexp(a, starts=starts)  # column 2 stays all -inf
    assert got.shape == (len(widths), 5)
    assert np.array_equal(got[:, 0], np.log(widths))
    assert np.array_equal(got[:, 1], np.log(ties) + 2.5)
    assert np.all(got[:, 2] == -math.inf)
    assert np.all(got[:, 3] == math.inf)
    assert np.all(np.isnan(got[:, 4]))


def test_alpha_mi_equals_the_padded_formula(grid):
    ctx, data, _, q, iota, _ = grid
    with np.errstate(divide="ignore"):
        log_ctx, log_data, log_q = np.log(ctx), np.log(data), np.log(q)
    log_data_pad, iota_pad = _pad(log_data, -math.inf), _pad(iota, 0.0)
    for alpha in (0.5, 1.5, 2.0, 7.0):
        # the (context, data, w) formula, padded rows of zero mass
        inner = logsumexp(log_data_pad[..., None] + alpha * iota_pad, axis=1) / alpha
        mid = logsumexp(log_q + inner, axis=-1)
        want = float(logsumexp(log_ctx + alpha * mid) / (alpha - 1.0))
        assert _close(_alpha_mi(log_ctx, log_data, log_q, iota, STARTS, alpha), want)


def test_leakage_equals_the_padded_leakage(grid):
    _, _, cond, _, _, mass = grid
    mass_pad = _pad(mass, 0.0)
    peaks = np.max(_pad(cond, 0.0), axis=1, where=(mass_pad > 0)[..., None], initial=0.0)
    assert _leakage(mass, cond, STARTS) == float(math.log(np.max(peaks.sum(axis=-1))))
    # the zero-mass row's peak at w = 0 is not seen
    assert _leakage(mass, cond, STARTS) < _leakage(np.ones(9), cond, STARTS)


@pytest.fixture(scope="module")
def subsets():
    rng = np.random.default_rng(21)
    return [load_fixture("inst_b")[1]] + [random_subset_system(rng) for _ in range(40)]


def test_the_subset_view_reads_the_system_arrays_as_rows(subsets):
    for orbits in subsets:
        # an orbit system reads its ragged contexts from its orbit grid
        assert view_of(orbits).starts is (orbits.rows.starts if orbits.rows.orbits is None
                                          else orbits.rows.orbits.starts)
        sys = _per_vector(orbits)  # the per-vector layout
        view, width = view_of(sys), len(sys.w_labels)
        n_zt, n_s = (grid.size for grid in sys.rows.grids)
        for name in ("values", "gen", "cond", "joint"):
            array = getattr(view, name)
            assert array is getattr(sys.rows, name), name  # the record's, not a copy
            assert array.shape == (n_zt * n_s, width)
        p_zt, p_s = (oracles.system_arrays(sys)[name] for name in ("p_zt", "p_s"))
        assert np.array_equal(view.mass, (p_zt[:, None] * p_s[None, :]).ravel())
        assert np.array_equal(view.starts, np.arange(n_zt) * n_s)


def _events(sys, rng):
    """Predicates over (w, z-tilde, s): everything, nothing, the first
    hypothesis, a selector bit, and a seeded random set of atoms."""
    atoms = list(itertools.product(sys.w_labels, *(grid.vectors() for grid in sys.rows.grids)))
    chosen = {atoms[i] for i in rng.choice(len(atoms), len(atoms) // 3 + 1, replace=False)}
    return (lambda w, zt, s: True, lambda w, zt, s: False,
            lambda w, zt, s: w == sys.w_labels[0], lambda w, zt, s: s[0] == 1,
            lambda w, zt, s: (w, zt, s) in chosen)


def test_holder_bound_matches_its_grid_form(subsets):
    rng = np.random.default_rng(22)
    for sys in subsets:
        for event in _events(sys, rng):
            for exponents in ((2.0, 2.0, 2.0), (1.5, 3.0, 2.5), (4.0, 1.2, 3.0)):
                got = bsub.holder_event_bound(sys, event, *exponents)
                want = oracles.holder_event_bound_3d(sys, event, *exponents)
                assert abs(got - want) <= 1e-12 * abs(want), (exponents, got, want)
