"""Each system lays out its flat rows once (``sys.rows``, a ``models.Rows``)
and every reader takes them from there: the default view, each auxiliary
view (``q_w``, ``q_kernel``, ``c``) and the density table read the same
arrays, by identity, and a subset system's log masses are computed once.
The row log mass, each context's log mass repeated over its rows plus each
row's log mass given its context, is bit for bit the log mass the density
tables formed from the system arrays directly. Only the record numbers the
rows: ``row`` and ``atom`` turn labels into a row and a (row, w) index, and
``labels`` gives each row's labels back, in row order. ``expected_gen``
reads the rows of either setting; ``pw`` reads the system arrays."""
import gc
import itertools
import pickle
from collections import Counter

import numpy as np
import pytest

from genbounds import (FiniteDistribution, Kernel, cmi_avg_bound, cond_alpha_mi,
                       cond_mutual_information, conditional_density, holder_event_bound,
                       information_density, load_fixture, measures, models)
from genbounds.bounds_subset import RangeConstant
from genbounds.prob import TypeGrid
from genbounds.engine import view_of
from genbounds.verify import coverage, random_standard_system, random_subset_system

ROW_FIELDS = ("starts", "mass", "joint", "cond", "values", "gen", "log_masses")


@pytest.fixture(scope="module")
def systems():
    rng = np.random.default_rng(170)
    out = [load_fixture(name)[1] for name in ("inst_a", "inst_b", "inst_c")]
    for _ in range(10):
        out += [random_standard_system(rng), random_subset_system(rng)]
    return out


def _aux(sys, rng):
    """(density function, an auxiliary measure for it, the auxiliary views)."""
    if sys.setting == "standard":
        q_w = FiniteDistribution.from_probs(sys.w_labels,
                                            rng.dirichlet(np.ones(len(sys.w_labels))))
        return information_density, q_w, [view_of(sys, q_w)]
    q = Kernel({zt: FiniteDistribution.from_probs(
        sys.w_labels, rng.dirichlet(np.ones(len(sys.w_labels)))) for zt in sys.zt_grid.vectors()})
    c = RangeConstant(2.0, "bounded-range")
    return conditional_density, q, [view_of(sys, c), view_of(sys, None, q), view_of(sys, c, q)]


def test_a_system_lays_out_its_rows_once(systems):
    for sys in systems:
        assert sys.rows is sys.rows


def test_every_view_reads_the_system_rows(systems):
    rng = np.random.default_rng(171)
    for sys in systems:
        views = [view_of(sys)] + _aux(sys, rng)[2]
        for view in views:
            for name in ROW_FIELDS:
                assert getattr(view, name) is getattr(sys.rows, name), (sys.setting, name)


def test_the_density_table_reads_the_system_rows(monkeypatch, systems):
    rng = np.random.default_rng(172)
    seen = []
    logs = measures._logs
    monkeypatch.setattr(measures, "_logs", lambda *masses: seen.append(masses) or logs(*masses))
    for sys in systems:
        density, aux, _ = _aux(sys, rng)
        for q in (None, aux):
            seen.clear()
            density(sys, q)
            assert len(seen) == 1
            assert seen[0][0] is sys.rows.joint and seen[0][1] is sys.rows.cond


def test_the_subset_log_masses_are_computed_once_per_system(monkeypatch):
    calls = Counter()
    logs = models._logs
    monkeypatch.setattr(models, "_logs", lambda *m: calls.update(["logs"]) or logs(*m))
    rng = np.random.default_rng(173)
    for sys in (load_fixture("inst_b")[1], random_subset_system(rng)):
        calls.clear()
        q = _aux(sys, rng)[1]
        cond_mutual_information(sys)
        cond_mutual_information(sys, q)
        cond_alpha_mi(sys, 2.0)
        cmi_avg_bound(sys, RangeConstant(2.0, "bounded-range"))
        coverage(sys, "cond_sd_moment", 0.1)
        conditional_density(sys)
        holder_event_bound(sys, lambda w, zt, s: True, 2.0, 2.0, 2.0)
        assert calls == {"logs": 1}


def test_the_row_log_mass_is_the_log_mass_of_the_system_arrays(systems):
    for sys in systems:
        log_ctx, log_data, _ = sys.rows.log_masses
        row = np.repeat(log_ctx, np.diff(sys.rows.starts, append=len(log_data))) + log_data
        with np.errstate(divide="ignore"):
            if sys.setting == "standard":
                want = 0.0 + np.log(sys.pzn_mass)
            else:
                want = (np.log(sys.p_ztilde)[:, None] + np.log(sys.p_s)[None, :]).reshape(-1)
        assert row.tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_the_rows_are_read_only_views_that_hold_no_system(systems):
    for sys in systems:
        rows = sys.rows
        for arr in (rows.starts, rows.mass, rows.joint, rows.cond, rows.values, rows.gen,
                    *rows.log_masses):
            assert not arr.flags.writeable
        assert not any(ref is sys for ref in gc.get_referents(rows))
        if sys.setting == "subset":  # reshapes, not copies
            for name, arr in (("joint", rows.joint), ("cond", rows.cond),
                              ("genhat", rows.values), ("gen_sel", rows.gen)):
                assert arr.base is getattr(sys, name), name
        else:
            assert rows.joint is sys.joint and rows.cond is sys.cond
            assert rows.values is rows.gen and rows.gen.base is sys.gen_table


def test_an_unpickled_system_lays_out_rows_of_its_own_arrays(systems):
    for sys in systems:
        view_of(sys).table  # the rows exist before the copy
        copy = pickle.loads(pickle.dumps(sys))
        assert "rows" not in vars(copy)
        if sys.setting == "subset":
            assert copy.rows.joint.base is copy.joint and copy.rows.gen.base is copy.gen_sel
        else:
            assert copy.rows.joint is copy.joint
        assert np.array_equal(copy.rows.mass, sys.rows.mass)


def test_expected_gen_reads_the_rows_and_pw_builds_none(systems):
    for sys in systems:
        copy = pickle.loads(pickle.dumps(sys))  # no rows yet
        if copy.setting == "standard":
            assert copy.pw.outcomes == copy.w_labels and "rows" not in vars(copy)
        assert models.expected_gen(copy) == models.expected_gen(sys)
        assert "rows" in vars(copy)


def test_each_row_is_the_row_of_its_labels(systems):
    for sys in systems:
        rows = sys.rows
        labels = rows.labels
        assert len(labels) == len(rows.mass)
        assert [rows.row(*data) for data in labels] == list(range(len(labels)))
        for data in labels[:5]:
            assert [rows.atom(w, *data) for w in sys.w_labels] == [
                (rows.row(*data), wi) for wi in range(len(sys.w_labels))]


def test_every_vector_finds_its_type_row():
    loss = models.zero_one_loss(("a", "b", "c"))
    pz = FiniteDistribution.uniform(loss.instances)
    sys = models.assemble_standard(pz, 3, models.gibbs_kernel(loss, 3, 1.5), loss)
    assert isinstance(sys.z_grid, TypeGrid)
    labels, order = sys.rows.labels, loss.instances.index
    seen = set()
    for vec in itertools.product(loss.instances, repeat=3):  # all 27 vectors
        row = sys.rows.row(vec)
        assert labels[row] == (tuple(sorted(vec, key=order)),)
        seen.add(row)
    assert seen == set(range(len(labels)))  # 10 types


def test_the_table_outcomes_are_the_atoms_in_row_order(systems):
    rng = np.random.default_rng(174)
    for sys in systems:
        density, aux, _ = _aux(sys, rng)
        for q in (None, aux):
            table = density(sys, q)
            axes = [g.vectors() for g in sys.rows.grids] + [sys.w_labels]
            keep = (table.arrays[0] > -np.inf).ravel()
            want = tuple((labels[-1],) + labels[:-1] for labels, k
                         in zip(itertools.product(*axes), keep) if k)
            assert table.outcomes == want


def test_the_holder_event_is_read_once_per_atom_in_row_order(systems):
    for sys in systems:
        if sys.setting != "subset":
            continue
        calls = []
        holder_event_bound(sys, lambda *atom: calls.append(atom) or len(calls) % 2, 2.0, 3.0, 1.5)
        assert calls == [(w, zt, s) for zt in sys.zt_grid.vectors()
                         for s in sys.s_grid.vectors() for w in sys.w_labels]
