"""Each system stores one layout, its flat rows (``sys.rows``, a
``models.Rows``), built once at assembly, and every reader takes them from
there: the default view, each auxiliary view (``q_w``, ``q_kernel``, ``c``)
and the density table read the same arrays, by identity, and a subset
system's log masses are computed once. The row log mass, each context's log
mass repeated over its rows plus each row's log mass given its context, is
bit for bit the log mass of the per-vector arrays that ``oracles`` rebuilds
from the inputs. Only the record numbers the rows: ``row`` and ``atom`` turn
labels into a row and a (row, w) index, and ``labels`` gives each row's
labels back, in row order. ``expected_gen`` reads the rows of either
setting, and an unpickled system builds a record of its own."""
import gc
import itertools
import pickle
from collections import Counter

import numpy as np
import pytest

import oracles
from genbounds import (FiniteDistribution, Kernel, cmi_avg_bound, cond_alpha_mi,
                       cond_mutual_information, conditional_density, holder_event_bound,
                       information_density, load_fixture, load_problem, measures, models)
from genbounds.bounds_subset import RangeConstant
from genbounds.models import _per_vector
from genbounds.prob import TypeGrid
from genbounds.engine import view_of
from genbounds.verify import (BOUNDS, coverage, random_standard_system,
                              random_subset_system)

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
        sys.w_labels, rng.dirichlet(np.ones(len(sys.w_labels))))
        for zt in sys.rows.grids[0].vectors()})
    c = RangeConstant(2.0, "bounded-range")
    return conditional_density, q, [view_of(sys, c), view_of(sys, None, q), view_of(sys, c, q)]


def test_a_system_lays_out_its_rows_once(systems):
    for sys in systems:
        assert sys.rows is sys.rows


def test_every_view_reads_the_system_rows(systems):
    """... or, with an auxiliary conditional of z-tilde, the rows of the
    per-vector system, which the view keeps alive."""
    rng = np.random.default_rng(171)
    for sys in systems:
        views = [view_of(sys)] + _aux(sys, rng)[2]
        for view in views:
            rows = view.sys.rows
            assert view.sys is sys or (getattr(view, "q_kernel", None) is not None
                                       and sys.rows.orbits is not None
                                       and rows.orbits is None and view._vectors is view.sys)
            for name in ROW_FIELDS:
                assert getattr(view, name) is getattr(rows, name), (sys.setting, name)


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
            joint, cond = seen[0]
            if q is not None and sys.rows.orbits is not None:  # read on a per-vector system
                vectors = _per_vector(sys).rows
                assert np.array_equal(joint, vectors.joint) and np.array_equal(cond, vectors.cond)
            else:
                assert joint is sys.rows.joint and cond is sys.rows.cond


def test_the_subset_log_masses_are_computed_once_per_system(monkeypatch):
    calls = Counter()
    logs = models._logs
    monkeypatch.setattr(models, "_logs", lambda *m: calls.update(["logs"]) or logs(*m))
    rng = np.random.default_rng(173)
    made, on_orbits = (lambda: load_fixture("inst_b")[1], lambda: random_subset_system(rng),
                       lambda: _per_vector(random_subset_system(rng))), []
    for make in made:
        sys = make()
        q = _aux(sys, rng)[1]
        calls.clear()
        sys = pickle.loads(pickle.dumps(sys))  # the record and its log masses are built here
        cond_mutual_information(sys)
        cond_alpha_mi(sys, 2.0)
        cmi_avg_bound(sys, RangeConstant(2.0, "bounded-range"))
        coverage(sys, "cond_sd_moment", 0.1)
        conditional_density(sys)
        assert calls == {"logs": 1}
        # an auxiliary conditional and a Holder event are read per vector: an
        # orbit system builds its per-vector system's record once per call
        cond_mutual_information(sys, q)
        holder_event_bound(sys, lambda w, zt, s: True, 2.0, 2.0, 2.0)
        assert calls == {"logs": 1 if sys.rows.orbits is None else 3}
        on_orbits.append(sys.rows.orbits is not None)
    assert on_orbits == [True, True, False]  # a label-form learner's system is per vector


def test_the_row_log_mass_is_the_log_mass_of_the_system_arrays(systems):
    """Per vector, bit for bit (an orbit system through its per-vector
    system, whose orbits ``test_orbits`` compares with their twins)."""
    for sys in map(_per_vector, systems):
        log_ctx, log_data, _ = sys.rows.log_masses
        row = np.repeat(log_ctx, np.diff(sys.rows.starts, append=len(log_data))) + log_data
        arrays = oracles.system_arrays(sys)
        with np.errstate(divide="ignore"):
            if sys.setting == "standard":
                want = 0.0 + np.log(arrays["pzn"])
            else:
                want = (np.log(arrays["p_zt"])[:, None]
                        + np.log(arrays["p_s"])[None, :]).reshape(-1)
        assert row.tobytes() == want.tobytes()  # bit for bit, signed zeros included


# (learner, setting, |Z|, |W|, n) of the benchmark's report and coverage problems
BENCH_SHAPES = (("gibbs", "standard", 2, 4, 8), ("gibbs", "standard", 4, 4, 5),
                ("gibbs", "standard", 3, 4, 7), ("gibbs", "standard", 4, 6, 6),
                ("erm", "standard", 4, 8, 7), ("erm", "standard", 3, 12, 8),
                ("gibbs", "subset", 2, 4, 4))


def _bench_system(rng, learner, setting, n_z, n_w, n):
    """A problem of a benchmark shape: Gibbs on a 2^-16 loss grid with a
    uniform P_Z, or ERM on a 5-point grid with a random P_Z."""
    doc = {"setting": setting, "instances": list(range(n_z)), "n": n}
    if learner == "erm":
        matrix = rng.integers(0, 5, size=(n_w, n_z)) / 4.0
        doc.update(learner={"kind": "erm"}, pz=rng.dirichlet(np.full(n_z, 2.0)).tolist())
    else:
        matrix = rng.integers(0, 2 ** 16 + 1, size=(n_w, n_z)) / 2 ** 16
        doc["learner"] = {"kind": "gibbs", "beta": float(rng.uniform(0.5, 4.0))}
    doc["loss"] = {"hypotheses": list(range(n_w)), "matrix": matrix.tolist(), "range": [0, 1]}
    return load_problem(doc)[1]


def _one_hypothesis_systems(rng):
    """|W| = 1 systems with a context of at least 8 rows in each layout:
    standard constant-learner systems on the types of 5 labels at n = 4 and
    5 (70 and 126 rows, whose masses a pairwise sum adds to another last
    bit), a per-vector subset system over a custom kernel at n = 3 (8
    selectors a supersample) and an orbit system at |Z| = 2, n = 8 (up to
    9 orbits a context)."""
    one = {"hypotheses": [0], "range": [0, 1]}
    standard = [load_problem({
        "setting": "standard", "instances": list(range(5)), "n": n,
        "pz": [0.05, 0.15, 0.2, 0.25, 0.35], "loss": dict(one, matrix=[[0.5] * 5]),
        "learner": {"kind": "constant"}})[1] for n in (4, 5)]
    rows = {",".join(map(str, v)): {"outcomes": [0], "probs": [1]}
            for v in itertools.product((0, 1), repeat=3)}
    per_vector = load_problem({
        "setting": "subset", "instances": [0, 1], "n": 3, "pz": [0.3, 0.7],
        "loss": dict(one, matrix=[[0.25, 0.5]]),
        "learner": {"kind": "custom-kernel", "rows": rows}})[1]
    return standard + [per_vector, _bench_system(rng, "gibbs", "subset", 2, 1, 8)]


def _log_q_by_setting(sys):
    """log Q(w | context) by each setting's own formula, from the record,
    each context's rows added in row order: the standard weighted
    posteriors (one context), the per-vector subset mean of each context's
    posteriors, and on the orbit grid each context's posteriors weighted
    by their split weights."""
    rows = sys.rows
    q = np.zeros((len(rows.starts), len(rows.w_labels)))
    if sys.setting == "standard":
        for r in range(len(rows.mass)):
            q[0] += rows.mass[r] * rows.cond[r]
    elif rows.orbits is not None:
        for r, context in enumerate(rows.orbits.context):
            q[context] += rows.orbits.split[r] * rows.cond[r]
    else:
        width = len(rows.mass) // len(rows.starts)
        q = rows.cond[::width].copy()
        for s in range(1, width):
            q += rows.cond[s::width]
        q /= width
    with np.errstate(divide="ignore"):
        return np.log(q)


def test_log_q_is_one_row_per_context_in_both_settings(systems):
    rng = np.random.default_rng(174)
    bench = [_bench_system(rng, *shape) for shape in BENCH_SHAPES]
    one = _one_hypothesis_systems(rng)
    assert [sys.rows.orbits is not None for sys in one] == [False, False, False, True]
    for sys in one:  # a context of at least 8 rows, where numpy's pairwise sum would start
        assert np.diff(sys.rows.starts, append=len(sys.rows.mass)).max() >= 8
    for sys in [*systems, *bench, *one]:
        rows = sys.rows
        log_q = rows.log_masses[2]
        assert log_q.shape == (len(rows.starts), len(rows.w_labels)), sys.setting
        assert log_q.tobytes() == _log_q_by_setting(sys).tobytes(), sys.setting


def test_the_rows_are_read_only_and_hold_no_system(systems):
    for sys in systems:
        rows = sys.rows
        for arr in (rows.starts, rows.mass, rows.joint, rows.cond, rows.values, rows.gen,
                    *rows.log_masses):
            assert not arr.flags.writeable
        assert not any(ref is sys for ref in gc.get_referents(rows))
        # the record is the one stored layout: C-contiguous (row, w) arrays of
        # their own, which the system's ``cond`` and ``joint`` return as they are
        assert set(vars(sys)) == {"pz", "n", "learner", "loss", "rows"}
        assert rows.joint is sys.joint and rows.cond is sys.cond
        for arr in (rows.joint, rows.cond, rows.values, rows.gen):
            assert arr.flags.c_contiguous and arr.base is None
        assert (rows.values is rows.gen) == (sys.setting == "standard")


def test_an_unpickled_system_lays_out_rows_of_its_own_arrays(systems):
    for sys in systems:
        view_of(sys).table  # the rows exist before the copy
        copy = pickle.loads(pickle.dumps(sys))
        assert copy.rows is not sys.rows and copy.rows.joint is copy.joint
        for name in ROW_FIELDS[:-1]:
            got, want = getattr(copy.rows, name), getattr(sys.rows, name)
            assert got.tobytes() == want.tobytes(), name
            assert name == "starts" or not np.shares_memory(got, want), name


def _reachable_arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through the fields (slots and
    instance dicts) of package objects and through tuples, lists and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (tuple, list)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif type(obj).__module__.startswith("genbounds."):
        names = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
        children = [getattr(obj, name) for name in names if hasattr(obj, name)]
        children += list(getattr(obj, "__dict__", {}).values())
    else:
        return
    for child in children:
        yield from _reachable_arrays(child, seen)


def _bound_results(sys):
    """Every registry result of ``sys`` over a delta, t and alpha grid; a
    per-posterior or per-atom epsilon array as bytes (NaN where infeasible)."""
    results = [BOUNDS[k].evaluate(sys, delta, t, alpha, "auto")
               for k, entry in BOUNDS.items() if entry.setting == sys.setting
               for delta in (0.3, 0.05) for t, alpha in ((2, 2.0), ("inf", 1.5))]
    return [r.tobytes() if isinstance(r, np.ndarray) else r for r in results]


def test_a_round_tripped_system_keeps_every_array_read_only_and_every_bound(systems):
    custom = models.load_problem({
        "setting": "standard", "instances": [0, 1], "n": 1,
        "loss": {"hypotheses": [0, 1], "matrix": [[0, 1], [1, 0]], "range": [0, 1]},
        "learner": {"kind": "custom-kernel", "rows": {
            "0": {"outcomes": [0, 1], "probs": [0.9, 0.1]},
            "1": {"outcomes": [0, 1], "probs": [0.2, 0.8]}}}})[1]
    for sys in systems + [custom]:
        copy = pickle.loads(pickle.dumps(sys))
        arrays = list(_reachable_arrays(copy))
        # the record's arrays, P_Z's, the loss values and the learner's log masses
        assert len(arrays) >= 11
        assert not [a for a in arrays if a.flags.writeable]
        for name in ("pz", "learner", "loss"):
            assert type(getattr(copy, name)) is type(getattr(sys, name))
        assert _bound_results(copy) == _bound_results(sys)


def test_expected_gen_reads_the_rows_of_an_unpickled_copy(systems):
    for sys in systems:
        copy = pickle.loads(pickle.dumps(sys))  # a record of its own
        assert models.expected_gen(copy) == models.expected_gen(sys)
        assert models.expected_gen_hat(copy) == models.expected_gen_hat(sys)


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
    assert isinstance(sys.rows.grids[0], TypeGrid)
    labels, order = sys.rows.labels, loss.instances.index
    seen = set()
    for vec in itertools.product(loss.instances, repeat=3):  # all 27 vectors
        row = sys.rows.row(vec)
        assert labels[row] == (tuple(sorted(vec, key=order)),)
        seen.add(row)
    assert seen == set(range(len(labels)))  # 10 types


def test_the_table_outcomes_are_the_atoms_in_row_order(systems):
    """... the rows' labels: per vector the product of the data grids, on
    the orbit grid one representative per orbit, and with an auxiliary
    conditional those of the per-vector system."""
    rng = np.random.default_rng(174)
    for sys in systems:
        density, aux, _ = _aux(sys, rng)
        for q in (None, aux):
            table = density(sys, q)
            labels = (sys if q is None else _per_vector(sys)).rows.labels
            keep = (table.arrays[0] > -np.inf).ravel()
            want = tuple((w, *data) for (data, w), k
                         in zip(itertools.product(labels, sys.w_labels), keep) if k)
            assert table.outcomes == want


def test_the_holder_event_is_read_once_per_atom_in_row_order(systems):
    for sys in systems:
        if sys.setting != "subset":
            continue
        calls = []
        holder_event_bound(sys, lambda *atom: calls.append(atom) or len(calls) % 2, 2.0, 3.0, 1.5)
        assert calls == [(w, zt, s) for zt, s in itertools.product(
            *(g.vectors() for g in sys.rows.grids)) for w in sys.w_labels]  # per vector
