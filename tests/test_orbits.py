"""Type-grid systems against their per-vector twins.

Gibbs, ERM and constant learners see a training set only through its type,
so a standard system keeps one atom per (type, hypothesis), weighted by the
type's multinomial coefficient. ``oracles.product_twin`` rebuilds each such
system with its learner as a label-form kernel over every z-vector, one
atom per vector, which is the enumeration the type grid replaces. Every
bound, coverage, exponential-inequality value, pushforward and information
measure of the two agrees to 1e-12 (the sums run in another order), on the
fixtures, 40 random systems per setting and the benchmark's job shapes.
Per-vector arrays are compared at every vector through ``rows.row``.

A subset system of such a learner (the identity learner too) is on the
orbit grid at every n: one row per type of its n (selected, unselected)
label pairs. It agrees with its twin to 1e-12 in every bound, coverage,
exponential check, gap law, information measure and lookup, at every
(z-tilde, s) of the twin. Every other subset system (custom learners), and
the per-vector system of an orbit system, is equal to its twin bit for bit.
"""
import csv
import io
import itertools
import json
import math
import re
import time

import numpy as np
import pytest

import oracles
from genbounds import load_fixture, load_problem, models
from genbounds.bounds_subset import leakage_ordering_check
from genbounds.cli import main
from genbounds.engine import view_of
from genbounds import T_INF, alpha_mi, central_moment, cond_alpha_mi
from genbounds.models import _per_vector, expected_gen, expected_gen_hat
from genbounds.prob import BudgetExceededError, TypeGrid
from genbounds.verify import (BOUNDS, abs_quantile, check_exp_inequality_standard,
                              check_exp_inequality_subset, coverage, coverage_ids,
                              exact_gen_distribution, exact_gen_hat_distribution, quantile,
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
        (grid,) = sys.rows.grids
        assert isinstance(grid, TypeGrid) and grid is sys.learner.grid
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
                                  for c in range(len(sys.joint))])


def test_subset_systems_equal_their_twins(pools):
    """Per vector, bit for bit: each system, or an orbit system's per-vector system."""
    for sys in map(_per_vector, pools["subset"]):
        assert sys.rows.orbits is None
        twin = oracles.product_twin(sys)
        for name in ("mass", "joint", "cond", "values", "gen"):
            assert np.array_equal(getattr(sys.rows, name), getattr(twin.rows, name))
        for got, want in zip(sys.rows.log_masses, twin.rows.log_masses, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(_results(sys), _results(twin)):
            assert (np.array_equal(got, want, equal_nan=True)
                    if isinstance(want, np.ndarray) else got == want)
        assert _coverages(sys) == _coverages(twin)
        assert check_exp_inequality_subset(sys) == check_exp_inequality_subset(twin)
        got, want = exact_gen_hat_distribution(sys), exact_gen_hat_distribution(twin)
        assert got.outcomes == want.outcomes
        assert np.array_equal(got.log_mass, want.log_mass)


def test_orbit_systems_agree_with_their_twins(pools):
    orbits = [sys for sys in pools["subset"] if sys.rows.orbits is not None]
    assert len(orbits) == len(pools["subset"])  # every system of the pool, at every n
    assert sum(sys.n == 1 for sys in orbits) >= 7  # inst_b and six random draws at n = 1
    for sys in orbits:
        twin = oracles.product_twin(sys)
        codes = oracles.type_codes(sys, twin)  # the orbit of every (z-tilde, s)
        assert len(sys.rows.mass) < len(twin.rows.mass)
        assert np.array_equal(np.unique(codes), np.arange(len(sys.rows.mass)))
        for name in ("cond", "values", "gen"):
            assert _close(getattr(sys.rows, name)[codes], getattr(twin.rows, name))
        for got, want in zip(_results(sys), _results(twin)):
            if isinstance(want, np.ndarray):  # one epsilon per posterior or atom
                assert _close(got[codes], want)
            else:
                assert got.feasible == want.feasible and got.params.keys() == want.params.keys()
                assert _close(got.epsilon, want.epsilon)
        assert _close(_coverages(sys), _coverages(twin))
        c = view_of(sys).variance
        for scale in (1.0, 0.25):
            assert _close(check_exp_inequality_subset(sys, c=c * scale),
                          check_exp_inequality_subset(twin, c=c * scale))
        got, want = exact_gen_hat_distribution(sys), exact_gen_hat_distribution(twin)
        assert _close(got.outcomes, want.outcomes) and _close(got.mass, want.mass)
        for delta in DELTAS:
            for q in (quantile, abs_quantile):
                assert _close(q(sys, 1.0 - delta), q(twin, 1.0 - delta))
        view, twin_view = view_of(sys), view_of(twin)
        assert _close(view.table.mean, twin_view.table.mean)  # CMI
        for t in (1, 2, 3, T_INF):
            assert _close(central_moment(view.table, t), central_moment(twin_view.table, t))
        assert _close(view.kls[codes], twin_view.kls)
        assert _close(view.iota[codes], twin_view.iota)
        assert _close(view.leakage, twin_view.leakage)
        for alpha in (0.5,) + ALPHAS:
            assert _close(view.renyi(alpha), twin_view.renyi(alpha))
        for alpha in ALPHAS:
            assert _close(cond_alpha_mi(sys, alpha), cond_alpha_mi(twin, alpha))
        got, want = leakage_ordering_check(sys), leakage_ordering_check(twin)
        assert got["holds"] == want["holds"]
        assert _close(got["induced_maximal_leakage"], want["induced_maximal_leakage"])
        assert _close(expected_gen(sys), expected_gen(twin))
        assert _close(expected_gen_hat(sys), expected_gen_hat(twin))


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


def test_north_star_report_at_a_large_loss_scale(tmp_path):
    """Losses and range scaled by 4,000 at beta = 2: Gibbs logits of order
    1e4-1e5, whose rows were refused as not summing to 1."""
    problem = _north_star(10)
    problem["loss"] = dict(problem["loss"], range=[0, 4000],
                           matrix=[[4000 * v for v in row] for row in problem["loss"]["matrix"]])
    cfg, out = tmp_path / "report.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps({"problem": problem, "deltas": list(DELTAS)}))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert _single_draw_rows_hold(out) > 0


def test_north_star_report_at_n_80(tmp_path):
    """n = 80: C(83, 3) * 8 = 735,048 orbit atoms."""
    assert load_problem(_north_star(80))[1].joint.size == 735_048
    cfg, out = tmp_path / "report.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps({"problem": _north_star(80), "deltas": list(DELTAS)}))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert _single_draw_rows_hold(out) > 0


def _subset_star(n, n_z=2, n_w=4):
    """A subset Gibbs problem with beta = 2 and losses on a 2^-16 grid."""
    rng = np.random.default_rng(23)
    return {"setting": "subset", "instances": list(range(n_z)), "n": n,
            "loss": {"hypotheses": list(range(n_w)), "range": [0, 1],
                     "matrix": (rng.integers(0, 2 ** 16 + 1, size=(n_w, n_z)) / 2 ** 16).tolist()},
            "learner": {"kind": "gibbs", "beta": 2.0}}


def test_subset_north_star_report_at_n_20(tmp_path):
    """|Z| = 2, n = 20: 2^40 supersamples times 2^20 selectors per
    hypothesis, but C(23, 3) = 1,771 orbits."""
    assert load_problem(_subset_star(20))[1].joint.size == 1_771 * 4
    cfg, out = tmp_path / "report.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps({"problem": _subset_star(20), "deltas": list(DELTAS)}))
    start = time.perf_counter()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    assert _single_draw_rows_hold(out) > 0


def test_subset_report_at_three_labels_and_n_8_is_within_the_budget(tmp_path):
    """|Z| = 3, n = 8: about 1.1e10 (z-tilde, s) pairs, but C(16, 8) = 12,870 orbits."""
    assert load_problem(_subset_star(8, n_z=3))[1].joint.size == 12_870 * 4
    cfg, out = tmp_path / "report.json", tmp_path / "report.csv"
    cfg.write_text(json.dumps({"problem": _subset_star(8, n_z=3), "deltas": list(DELTAS)}))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert _single_draw_rows_hold(out) > 0


def _never(*args, **kwargs):
    raise AssertionError("a grid was built")


def test_a_subset_problem_over_the_budget_in_orbits_is_refused_before_any_grid(
        monkeypatch, tmp_path):
    """|Z| = 3, n = 30, |W| = 2: C(38, 8) * 2 = 97,806,984 orbit atoms."""
    problem = _subset_star(30, n_z=3, n_w=2)
    cfg = tmp_path / "report.json"
    cfg.write_text(json.dumps({"problem": problem}))
    monkeypatch.setattr(TypeGrid, "__init__", _never)
    assert main(["report", "--config", str(cfg)]) == 3
    with pytest.raises(BudgetExceededError, match="97806984 joint atoms"):
        load_problem(problem)


def test_a_subset_problem_within_the_budget_in_orbits_is_not_refused():
    """|Z| = 2, n = 20: 2^60 * 4 atoms per vector, 1,771 * 4 in orbits."""
    sys = load_problem(_subset_star(20))[1]
    assert sys.rows.orbits is not None and len(sys.rows.mass) == 1_771
    with pytest.raises(BudgetExceededError):  # its per-vector system is refused
        _per_vector(sys)


def _learner_doc(kind, n):
    """A learner of ``kind`` with hypotheses (0, 1) on length-n vectors over (0, 1)."""
    if kind == "gibbs":
        return {"kind": kind, "beta": 1.5}
    if kind != "custom-kernel":
        return {"kind": kind}
    row = {"outcomes": [0, 1], "probs": [0.25, 0.75]}
    return {"kind": kind,
            "rows": {",".join(map(str, v)): row for v in itertools.product((0, 1), repeat=n)}}


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("gibbs", "erm", "constant",
                                                             "custom-kernel")
                                     for n in (1, 2, 3)] + [("identity", 1)])
def test_the_subset_budget_pre_check_counts_the_atoms_the_system_builds(monkeypatch, kind, n):
    """``load_problem`` sizes a subset system before its learner is built,
    by the rule that places the system on orbits or per vector."""
    seen = []
    monkeypatch.setattr(models, "check_budget", lambda count: seen.append(count))
    parse = models._parse_learner
    monkeypatch.setattr(models, "_parse_learner", lambda *a: seen.append("learner") or parse(*a))
    sys = load_problem({"setting": "subset", "instances": [0, 1], "n": n,
                        "loss": {"hypotheses": [0, 1], "matrix": [[0, 1], [1, 0]],
                                 "range": [0, 1]},
                        "learner": _learner_doc(kind, n)})[1]
    assert seen.index("learner") == 1 and seen[0] == sys.cond.size
    assert (sys.rows.orbits is not None) == (kind != "custom-kernel")


@pytest.mark.parametrize("ztilde, s, unknown", [
    ((0, 1, 9, 0), (0, 1), (0, 1, 9, 0)), ((0, 1, 1, 0), (0, 2), (0, 2)),
    ((0, 1, 1), (0, 1), (0, 1, 1)), ((0, 1, 1, 0), (0,), (0,))])
def test_an_unknown_label_of_an_orbit_system_is_a_key_error_naming_it(ztilde, s, unknown):
    sys = load_problem(_subset_star(2))[1]
    assert sys.rows.orbits is not None
    with pytest.raises(KeyError, match=re.escape(f"{unknown!r} is not an outcome")):
        sys.rows.row(ztilde, s)
    # the orbit of a pair sequence, whichever half each pair is written in
    assert sys.rows.row((0, 1, 1, 0), (0, 1)) == sys.rows.row((0, 0, 1, 1), (0, 0))
