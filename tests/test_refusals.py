"""Refusals and paths that no other test reaches: each test names the check
it exercises by its message (or its result), so it fails if the check goes."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from genbounds import (BoundResult, FiniteDistribution, JointTable, Kernel, LossTable,
                       StandardSystem, cli, ess_sup, gibbs_kernel, kl, load_problem,
                       marginalize, models, renyi_divergence, zero_one_loss)
from genbounds.measures import DensityTable, _renyi, density, normalize_order
from genbounds.prob import InvalidDistributionError, ProductGrid, TypeGrid
from test_cli import STANDARD_PROBLEM, SUBSET_PROBLEM, write_config


def test_a_config_without_a_problem_exits_2_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"deltas": [0.1]})
    assert cli.main(["report", "--config", cfg]) == 2
    assert "config lacks a 'problem' entry" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", [math.inf, math.nan])
def test_a_feasible_result_needs_a_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="feasible bound must have finite epsilon"):
        BoundResult(epsilon, "average", "data-independent")
    assert not BoundResult(epsilon, "average", "data-independent", feasible=False).feasible


@pytest.mark.parametrize("t", [0, -1, -0.5, "0", math.nan, "nan"])
def test_a_moment_order_must_be_positive(t):
    with pytest.raises(ValueError, match="moment order must be positive"):
        normalize_order(t)


@pytest.mark.parametrize("field, value", [("instances", []), ("n", -1), ("n", 0),
                                          ("instances", 5), ("learner", 5),
                                          ("loss.range", [0])])
def test_a_problem_without_instances_or_with_n_below_one_is_refused_by_name(
        monkeypatch, field, value):
    def never(*args):
        raise AssertionError("the learner is built before the refusal")

    monkeypatch.setattr(models, "_parse_learner", never)
    *parents, key = field.split(".")  # a field of the loss is set in a copy of it
    doc = target = dict(STANDARD_PROBLEM)
    for parent in parents:
        target[parent] = target = dict(target[parent])
    target[key] = value
    with pytest.raises(ValueError, match=f"^field {key!r}"):
        load_problem(doc)


def test_a_density_table_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="log_p and iota shape mismatch"):
        DensityTable(np.zeros(2), np.zeros(3), lambda: ())


def test_renyi_divergence_near_one_is_the_kl():
    p = FiniteDistribution.from_probs(("a", "b", "c"), (0.5, 0.3, 0.2))
    q = FiniteDistribution.from_probs(("a", "b", "c"), (0.2, 0.2, 0.6))
    for alpha in (1.0, 1.0 + 1e-7, 1.0 - 1e-7):
        assert renyi_divergence(p, q, alpha) == kl(p, q)
    # the closed form there is not the KL bit for bit: the dispatch is what holds it
    assert _renyi(density(p, q).arrays, 1.0 + 1e-7) != kl(p, q)


def test_a_loss_matrix_must_match_its_labels():
    with pytest.raises(ValueError, match="loss matrix shape mismatch"):
        LossTable((0, 1), (0, 1), np.zeros((2, 3)), 0.0, 1.0)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
def test_gibbs_refuses_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite"):
        gibbs_kernel(zero_one_loss([0, 1]), 2, beta)


def test_a_system_refuses_learner_labels_other_than_the_loss_hypotheses():
    loss = zero_one_loss([0, 1])
    other = gibbs_kernel(LossTable(("a", "b"), (0, 1), 1.0 - np.eye(2), 0.0, 1.0), 2, 1.0)
    with pytest.raises(ValueError, match="learner output labels do not match loss hypotheses"):
        StandardSystem(FiniteDistribution.uniform((0, 1)), 2, other, loss)


def test_custom_kernel_rows_must_be_a_mapping():
    doc = dict(STANDARD_PROBLEM, n=1, learner={"kind": "custom-kernel", "rows": [[0.5, 0.5]]})
    with pytest.raises(ValueError, match="custom-kernel rows must map"):
        load_problem(doc)


GOOD_ROW = {"outcomes": [0, 1], "probs": [0.5, 0.5]}


@pytest.mark.parametrize("row, message", [
    ([0.5, 0.5], "expected an object, got [0.5, 0.5]"),
    ({"probs": [0.5, 0.5]}, "no 'outcomes' entry"),
    ({"outcomes": [0, 1]}, "no 'probs' entry"),
    ({"outcomes": [0, 1], "probs": 0.5}, "field 'probs': expected a list, got 0.5"),
    ({"outcomes": 5, "probs": [0.5, 0.5]}, "field 'outcomes': expected a list, got 5"),
    ({"outcomes": [0, 1], "probs": [0.5, 0.6]}, "probabilities sum to 1.1"),
])
def test_a_malformed_custom_kernel_row_exits_2_naming_rows_and_its_key(
        tmp_path, capsys, row, message):
    """The subset problem at |Z| = 2, n = 1 over a custom kernel, whose
    system is per vector; row "1" is malformed."""
    learner = {"kind": "custom-kernel", "rows": {"0": GOOD_ROW, "1": row}}
    cfg = write_config(tmp_path, "cfg.json", {"problem": dict(SUBSET_PROBLEM, learner=learner)})
    assert cli.main(["report", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"field 'rows', row '1': {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("grid", [ProductGrid, TypeGrid])
def test_a_grid_refuses_a_negative_length(grid):
    with pytest.raises(ValueError, match="vector length must be nonnegative"):
        grid((0, 1), -1)


@pytest.mark.parametrize("vec", [(0,), (0, 1, 1), [0, 1]])
def test_a_product_grid_code_refuses_a_vector_of_the_wrong_form(vec):
    with pytest.raises(KeyError):
        ProductGrid((0, 1), 2).code(vec)


def test_a_type_grid_needs_a_label():
    with pytest.raises(ValueError, match="a type grid needs at least one label"):
        TypeGrid((), 2)


def test_a_kernel_refuses_no_rows():
    with pytest.raises(InvalidDistributionError, match="empty kernel"):
        Kernel({})
    with pytest.raises(InvalidDistributionError, match="empty kernel"):
        Kernel.on_grid(np.zeros((0, 2)), (0, 1), ProductGrid((), 1))


def test_a_kernel_on_a_grid_refuses_a_non_finite_mass():
    log_mass = np.array([[0.0, -math.inf], [math.inf, 0.0]])
    with pytest.raises(InvalidDistributionError, match="probability masses must be finite"):
        Kernel.on_grid(log_mass, (0, 1), TypeGrid((0, 1), 1))


def test_a_kernel_iterates_over_its_input_labels():
    k = gibbs_kernel(zero_one_loss([0, 1]), 2, 1.0)
    assert list(k) == list(k.input_labels) == [(0, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("keep", [(2,), (-1,), (0, 5)])
def test_marginalize_refuses_a_coordinate_out_of_range(keep):
    j = JointTable([(0, "a"), (1, "b")], np.log([0.5, 0.5]))
    with pytest.raises(ValueError, match="coordinate out of range for arity 2"):
        marginalize(j, keep)


def test_ess_sup_refuses_values_of_the_wrong_length():
    with pytest.raises(ValueError, match="values and outcomes length mismatch"):
        ess_sup([1.0], FiniteDistribution.uniform((0, 1)))


def test_ess_sup_refuses_an_empty_support():
    # no FiniteDistribution has an empty support; ess_sup reads only these fields
    dist = SimpleNamespace(outcomes=(0, 1), log_mass=np.full(2, -math.inf))
    with pytest.raises(ValueError, match="distribution has empty support"):
        ess_sup([1.0, 2.0], dist)


def _with(doc, path, value):
    """A copy of ``doc`` with the entry at the dotted ``path`` set to ``value``."""
    *parents, key = path.split(".")
    doc = target = dict(doc)
    for parent in parents:
        target[parent] = target = dict(target[parent])
    target[key] = value
    return doc


GIBBS_PROBLEM = dict(STANDARD_PROBLEM, learner={"kind": "gibbs", "beta": 1.5})


@pytest.mark.parametrize("command, config, field", [
    ("report", {"problem": _with(STANDARD_PROBLEM, "n", "2")}, "n"),
    ("report", {"problem": _with(GIBBS_PROBLEM, "learner.beta", "1.5")}, "beta"),
    ("report", {"problem": _with(STANDARD_PROBLEM, "loss.range", ["0", 1])}, "range"),
    ("report", {"problem": _with(STANDARD_PROBLEM, "loss.sigma", "1")}, "sigma"),
    ("report", {"problem": _with(STANDARD_PROBLEM, "loss.matrix", [["0", 1], [1, 0]])},
     "matrix"),
    ("report", {"problem": _with(STANDARD_PROBLEM, "pz", ["one half", "0.5"])}, "pz"),
    ("report", {"problem": STANDARD_PROBLEM, "deltas": ["0.1"]}, "deltas"),
    ("report", {"problem": STANDARD_PROBLEM, "alpha": "2"}, "alpha"),
    ("report", {"problem": STANDARD_PROBLEM, "t": "2"}, "t"),
    ("sweep", {"problem": STANDARD_PROBLEM, "axis": "delta", "values": ["0.1"]}, "values"),
    ("sweep", {"problem": GIBBS_PROBLEM, "axis": "n", "values": ["2"]}, "values"),
    ("verify", {"instances": "1"}, "instances"),
    ("verify", {"sigma_scale": "0.5"}, "sigma_scale"),
])
def test_a_string_where_a_number_is_read_exits_2_naming_the_field(
        tmp_path, capsys, command, config, field):
    cfg = write_config(tmp_path, "cfg.json", config)
    assert cli.main([command, "--config", cfg]) == 2
    assert f"field {field!r}: " in capsys.readouterr().err


@pytest.mark.parametrize("path, value, field", [
    ("loss", 5, "loss"),
    ("loss.hypotheses", 5, "hypotheses"),
    ("learner", {"kind": "constant", "weights": 1.0}, "weights"),
    ("learner", {"kind": "constant", "weights": [0.2, 0.3, 0.5]}, "weights"),
    ("pz", [0.2, 0.3, 0.5], "pz"),
])
@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_a_malformed_problem_field_exits_2_naming_it(tmp_path, capsys, setting, path, value,
                                                     field):
    """A loss or list of the wrong type, or a ``pz`` or ``weights`` list of
    another length than its labels, is refused by name, not by the error
    that reading it as a loss or a distribution would raise."""
    problem = _with(dict(STANDARD_PROBLEM, setting=setting), path, value)
    cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
    assert cli.main(["report", "--config", cfg]) == 2
    assert f"field {field!r}: expected " in capsys.readouterr().err


@pytest.mark.parametrize("path, value, field", [
    ("loss.hypotheses", [0, 0], "hypotheses"), ("loss.hypotheses", [[0], [0]], "hypotheses"),
    ("instances", [0, 0], "instances")])
@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_duplicate_loss_labels_exit_2_naming_the_field(tmp_path, capsys, setting, path, value,
                                                       field):
    """A repeated label would name two rows or columns, of which an atom
    lookup finds only the first; a JSON list label is compared as the
    lookup compares it."""
    problem = _with(dict(STANDARD_PROBLEM, setting=setting), path, value)
    cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
    assert cli.main(["report", "--config", cfg]) == 2
    assert f"field {field!r}: duplicate labels" in capsys.readouterr().err


def test_distinct_list_hypotheses_still_report(tmp_path):
    problem = _with(STANDARD_PROBLEM, "loss.hypotheses", [[0], [1]])
    cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
    assert cli.main(["report", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("hypotheses, instances, field", [
    ((0, 0), (0, 1), "hypotheses"), ((0, 1), ("a", "a"), "instances"),
    (([0], [0]), (0, 1), "hypotheses")])
def test_a_loss_table_refuses_duplicate_labels_by_field(hypotheses, instances, field):
    with pytest.raises(ValueError, match=f"^field {field!r}: duplicate labels"):
        LossTable(hypotheses, instances, np.zeros((2, 2)), 0.0, 1.0)


@pytest.mark.parametrize("weights, total", [([0.5, 0.6], "1.1"), ([0.25, 0.25], "0.5")])
@pytest.mark.parametrize("setting", ["standard", "subset"])
def test_constant_weights_off_one_exit_2_naming_the_field(tmp_path, capsys, setting, weights,
                                                          total):
    problem = dict(STANDARD_PROBLEM, setting=setting,
                   learner={"kind": "constant", "weights": weights})
    cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
    assert cli.main(["report", "--config", cfg]) == 2
    assert f"field 'weights': masses sum to {total}, not 1" in capsys.readouterr().err


def test_constant_weights_within_tolerance_are_taken_as_given():
    weights = [0.5, 0.5 + 1e-13]  # off 1 by less than the mass tolerance: not renormalised
    _, sys = load_problem(dict(STANDARD_PROBLEM,
                               learner={"kind": "constant", "weights": weights}))
    assert (sys.learner.log_mass == np.log(weights)).all()


def test_pz_off_one_exits_2_naming_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"problem": _with(STANDARD_PROBLEM, "pz",
                                                               [0.5, 0.6])})
    assert cli.main(["report", "--config", cfg]) == 2
    assert "field 'pz': probabilities sum to 1.1" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"problem": STANDARD_PROBLEM, "t": "inf"},
    {"problem": STANDARD_PROBLEM, "alpha": "inf", "bounds": ["sd_moment"]},
    {"problem": _with(STANDARD_PROBLEM, "pz", ["0.25", "0.75"])},
    {"problem": STANDARD_PROBLEM, "axis": "t", "values": ["inf", 2]},
])
def test_inf_orders_and_decimal_probabilities_stay_strings_that_are_read(tmp_path, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    command = "sweep" if "axis" in config else "report"
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0


def test_library_numbers_are_not_strings():
    from genbounds.engine import _check_delta, _check_gamma
    from genbounds.prob import load_distribution
    from genbounds.verify import hoeffding_tail

    for args, name in (((0.5, "2", 0.5), "n"), (("0.5", 2, 0.5), "sigma"),
                       ((0.5, 2, "0.5"), "eps")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            hoeffding_tail(*args)
    with pytest.raises(ValueError, match="delta must be a number"):
        _check_delta("0.1")
    with pytest.raises(ValueError, match="gamma must be a number or 'auto'"):
        _check_gamma("0.5")
    with pytest.raises(ValueError, match="moment order must be positive"):
        normalize_order("2")
    assert normalize_order("inf") is normalize_order(math.inf)
    with pytest.raises(InvalidDistributionError, match="probability 'x' is not a decimal"):
        load_distribution({"outcomes": [0, 1], "probs": ["x", "0.5"]})
    assert load_distribution({"outcomes": [0, 1], "probs": ["0.5", 0.5]}).mass_of(0) == 0.5
