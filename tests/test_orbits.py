"""Type-grid systems against their per-vector twins.

Gibbs, ERM and constant learners see a training set only through its type,
so a standard system keeps one atom per (type, hypothesis), weighted by the
type's multinomial coefficient. ``oracles.product_twin`` rebuilds each such
system with its learner as a label-form kernel over every z-vector, one
atom per vector, which is the enumeration the type grid replaces. Every
bound, coverage, exponential-inequality value, pushforward and information
measure of the two agrees to 1e-12 (the sums run in another order), on the
fixtures, 40 random systems per setting and the benchmark's job shapes. A
subset system keeps its product grids and is equal to its twin bit for bit.
Per-vector arrays are compared at every vector through ``z_grid.code``.
"""
import csv
import io
import json
import math

import numpy as np
import pytest

import oracles
from genbounds import load_fixture, load_problem
from genbounds.cli import main
from genbounds.engine import view_of
from genbounds import T_INF, alpha_mi, central_moment
from genbounds.prob import TypeGrid
from genbounds.verify import (BOUNDS, abs_quantile, check_exp_inequality_standard,
                              check_exp_inequality_subset, coverage, coverage_ids,
                              exact_gen_distribution, exact_gen_hat_distribution,
                              random_standard_system, random_subset_system)

DELTAS = (0.3, 0.1, 0.05)
TS = (1, 2, T_INF)
ALPHAS = (1.5, 2.0)
ORDERS = [{"t": t, "alpha": a} for t in TS for a in ALPHAS]
# (learner, setting, |Z|, |W|, n) of the benchmark's report and coverage jobs
BENCH_SHAPES = [("gibbs", "standard", 2, 4, 8), ("gibbs", "standard", 4, 4, 5),
                ("gibbs", "standard", 3, 4, 7), ("gibbs", "standard", 4, 6, 6),
                ("erm", "standard", 4, 8, 7), ("erm", "standard", 3, 12, 8),
                ("gibbs", "subset", 2, 4, 4)]


def _bench_problem(rng, learner, setting, n_z, n_w, n):
    """A problem as the benchmark draws one: Gibbs losses on a 2^-16 grid
    with a uniform P_Z, ERM losses on a 5-point grid with a Dirichlet P_Z."""
    doc = {"setting": setting, "instances": list(range(n_z)), "n": n}
    if learner == "erm":
        matrix = rng.integers(0, 5, size=(n_w, n_z)) / 4.0
        doc["learner"] = {"kind": "erm"}
        doc["pz"] = [float(p) for p in rng.dirichlet(np.full(n_z, 2.0))]
    else:
        matrix = rng.integers(0, 2 ** 16 + 1, size=(n_w, n_z)) / 2 ** 16
        doc["learner"] = {"kind": "gibbs", "beta": float(rng.uniform(0.5, 4.0))}
    doc["loss"] = {"hypotheses": list(range(n_w)), "matrix": matrix.tolist(),
                   "range": [0.0, 1.0]}
    return load_problem(doc)[1]


@pytest.fixture(scope="module")
def pools():
    rng = np.random.default_rng(7)
    standard = [load_fixture("inst_a")[1], load_fixture("inst_c")[1]]
    subset = [load_fixture("inst_b")[1]]
    for _ in range(40):
        standard.append(random_standard_system(rng))
        subset.append(random_subset_system(rng))
    for shape in BENCH_SHAPES:
        (standard if shape[1] == "standard" else subset).append(_bench_problem(rng, *shape))
    return {"standard": standard, "subset": subset}


@pytest.fixture(scope="module")
def twins(pools):
    """(system, its per-vector twin, the type code of each twin vector) per
    standard system."""
    pairs = [(sys, oracles.product_twin(sys)) for sys in pools["standard"]]
    return [(sys, twin, oracles.type_codes(sys, twin)) for sys, twin in pairs]


def _close(got, want, rel=1e-12):
    """Agreement to ``rel``, relative to |want| floored at 1; equal infinities
    and NaNs agree."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        near = np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want))
    return bool(np.all(same | near))


def _results(sys):
    """Every registry result of ``sys`` over the delta, t and alpha grid."""
    return [BOUNDS[k].evaluate(sys, delta, o["t"], o["alpha"], "auto")
            for k, b in BOUNDS.items() if b.setting == sys.setting
            for delta in DELTAS for o in ORDERS]


def _coverages(sys):
    return [coverage(sys, k, delta, o).exact_violation_prob
            for k in coverage_ids(sys.setting) for delta in DELTAS for o in ORDERS]


def test_standard_type_learners_are_on_type_grids(pools):
    for sys in pools["standard"]:
        assert isinstance(sys.z_grid, TypeGrid)
        assert sys.z_grid is sys.learner.grid
        assert sys.joint.shape == (math.comb(sys.n + len(sys.pz) - 1, len(sys.pz) - 1),
                                   len(sys.w_labels))


def test_every_bound_agrees_with_the_per_vector_twin(twins):
    for sys, twin, codes in twins:
        for got, want in zip(_results(sys), _results(twin)):
            if isinstance(want, np.ndarray):  # one epsilon per posterior or atom
                assert _close(got[codes], want)
            else:
                assert got.feasible == want.feasible and got.params.keys() == want.params.keys()
                assert _close(got.epsilon, want.epsilon)
        assert _close(_coverages(sys), _coverages(twin), rel=1e-12)


def test_exp_inequality_and_pushforward_agree_with_the_twin(twins):
    for sys, twin, _ in twins:
        for scale in (1.0, 0.5):
            assert _close(check_exp_inequality_standard(sys, sigma=sys.sigma * scale),
                          check_exp_inequality_standard(twin, sigma=sys.sigma * scale))
        got, want = exact_gen_distribution(sys), exact_gen_distribution(twin)
        assert _close(got.outcomes, want.outcomes) and _close(got.mass, want.mass)
        for delta in DELTAS:
            assert _close(abs_quantile(sys, 1.0 - delta), abs_quantile(twin, 1.0 - delta))


def test_information_measures_agree_with_the_twin(twins):
    for sys, twin, codes in twins:
        view, twin_view = view_of(sys), view_of(twin)
        assert _close(view.table.mean, twin_view.table.mean)
        for t in (1, 2, 3, T_INF):
            assert _close(central_moment(view.table, t), central_moment(twin_view.table, t))
        assert _close(view.kls[codes], twin_view.kls)
        assert _close(view.iota[codes], twin_view.iota)
        assert _close(view.leakage, twin_view.leakage)
        for alpha in (0.5,) + ALPHAS:
            assert _close(view.renyi(alpha), twin_view.renyi(alpha))
            assert _close(alpha_mi(sys, alpha), alpha_mi(twin, alpha))
        # each type's mass is its vectors' total
        assert _close(sys.joint, [twin.joint[codes == c].sum(axis=0)
                                  for c in range(sys.z_grid.size)])


def test_subset_systems_equal_their_twins(pools):
    for sys in pools["subset"]:
        twin = oracles.product_twin(sys)
        for name in ("p_ztilde", "cond", "pw_given", "genhat", "gen_sel"):
            assert np.array_equal(getattr(sys, name), getattr(twin, name))
        for got, want in zip(_results(sys), _results(twin)):
            assert (np.array_equal(got, want, equal_nan=True)
                    if isinstance(want, np.ndarray) else got == want)
        assert _coverages(sys) == _coverages(twin)
        assert check_exp_inequality_subset(sys) == check_exp_inequality_subset(twin)
        got, want = exact_gen_hat_distribution(sys), exact_gen_hat_distribution(twin)
        assert got.outcomes == want.outcomes
        assert np.array_equal(got.log_mass, want.log_mass)


def _north_star(n):
    rng = np.random.default_rng(40)
    return {"setting": "standard", "instances": [0, 1, 2, 3], "n": n,
            "loss": {"hypotheses": list(range(8)), "range": [0, 1],
                     "matrix": (rng.integers(0, 2 ** 16 + 1, size=(8, 4)) / 2 ** 16).tolist()},
            "learner": {"kind": "gibbs", "beta": 2.0}}


def _single_draw_rows_hold(path):
    checked = 0
    for row in csv.DictReader(io.StringIO(path.read_text())):
        if (row["feasible"] == "True" and row["flavor"] == "single-draw"
                and row["scope"] == "data-independent"):
            assert float(row["quantile"]) <= float(row["epsilon"]) + 1e-12, row
            checked += 1
    return checked


def test_north_star_report_and_sweep_at_n_40(tmp_path):
    """|Z| = 4, |W| = 8, n = 40: 4^40 * 8 (about 10^25) atoms per vector, but
    C(43, 3) * 8 = 98,728 per type."""
    assert load_problem(_north_star(40))[1].joint.size == 98_728
    cfg, out = tmp_path / "report.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps({"problem": _north_star(40), "deltas": list(DELTAS)}))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert _single_draw_rows_hold(out) > 0
    cfg.write_text(json.dumps({"problem": _north_star(40), "deltas": [0.1],
                               "axis": "n", "values": [10, 20, 40]}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert _single_draw_rows_hold(out) > 0
    assert ({row["axis_value"] for row in csv.DictReader(io.StringIO(out.read_text()))}
            == {"10", "20", "40"})


def test_north_star_report_at_n_80(tmp_path):
    """n = 80: C(83, 3) * 8 = 735,048 orbit atoms."""
    assert load_problem(_north_star(80))[1].joint.size == 735_048
    cfg, out = tmp_path / "report.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps({"problem": _north_star(80), "deltas": list(DELTAS)}))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert _single_draw_rows_hold(out) > 0
