"""The BOUNDS registry drives the CLI panel and exact coverage: one entry
is all a new bound needs."""
import json

import pytest

from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds import cli, load_fixture, verify
from genbounds.verify import BOUNDS, Bound, coverage

from test_cli import STANDARD_PROBLEM, SUBSET_PROBLEM, read_csv, write_config


def test_default_panels_and_coverage_ids_follow_the_registry():
    assert cli.DEFAULT_STANDARD_BOUNDS == (
        "avg", "pacb_moment", "sd_moment", "sd_leakage", "sd_renyi", "sd_tail",
        "tail_relax_moment", "tail_relax_leakage")
    assert cli.DEFAULT_SUBSET_BOUNDS == (
        "cmi", "cond_pacb_moment", "cond_sd_moment", "cond_sd_leakage",
        "cond_sd_renyi", "cond_tail", "cond_tail_relax_moment",
        "cond_tail_relax_leakage", "cond_alpha_mi", "genhat_to_gen")
    assert verify.STANDARD_COVERAGE_IDS == (
        "pacb", "pacb_moment", "sd_density", "sd_moment", "sd_leakage",
        "sd_renyi", "sd_tail", "tail_relax_moment", "tail_relax_leakage")
    assert verify.SUBSET_COVERAGE_IDS == (
        "cond_pacb", "cond_pacb_moment", "cond_sd_density", "cond_sd_moment",
        "cond_sd_leakage", "cond_sd_renyi", "cond_tail",
        "cond_tail_relax_moment", "cond_tail_relax_leakage", "cond_alpha_mi",
        "genhat_to_gen")


def test_one_entry_adds_a_bound_everywhere(monkeypatch, tmp_path, inst_a):
    calls = []

    def toy(sys, delta, t, alpha, gamma):
        calls.append(delta)
        return bstd.sd_leakage_bound(sys, delta)

    monkeypatch.setitem(BOUNDS, "toy", Bound("standard", toy, "atom"))
    cfg = write_config(tmp_path, "cfg.json",
                       {"problem": STANDARD_PROBLEM, "deltas": [0.1]})
    out = tmp_path / "report.csv"
    assert cli.main(["report", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["bound_id"] for r in rows][-1] == "toy"
    toy_row, leakage_row = rows[-1], rows[3]
    assert toy_row["epsilon"] == leakage_row["epsilon"]

    rep = coverage(inst_a, "toy", 0.1)
    assert rep.exact_violation_prob == coverage(inst_a, "sd_leakage", 0.1).exact_violation_prob
    assert calls == [0.1, 0.1]
    assert "toy" in verify.coverage_ids("standard")


@pytest.mark.parametrize("problem, bound_id", [
    (STANDARD_PROBLEM, "pacb"),
    (STANDARD_PROBLEM, "sd_density"),
    (SUBSET_PROBLEM, "cond_pacb"),
    (SUBSET_PROBLEM, "cond_sd_density"),
    (STANDARD_PROBLEM, "cmi"),
    (SUBSET_PROBLEM, "sd_moment"),
])
def test_report_refuses_data_dependent_and_cross_setting_ids(tmp_path, capsys,
                                                             problem, bound_id):
    cfg = write_config(tmp_path, "cfg.json", {"problem": problem, "bounds": [bound_id]})
    assert cli.main(["report", "--config", cfg]) == 2
    assert bound_id in capsys.readouterr().err


def test_coverage_refuses_average_and_cross_setting_ids(inst_a, inst_b):
    for sys, bound_id in ((inst_a, "avg"), (inst_a, "cond_sd_moment"),
                          (inst_b, "cmi"), (inst_b, "sd_moment")):
        with pytest.raises(KeyError):
            coverage(sys, bound_id, 0.1)


@pytest.mark.parametrize("module, name, leakage, moment", [
    (bstd, "information_density", "tail_relax_leakage", "tail_relax_moment"),
    (bsub, "conditional_density", "cond_tail_relax_leakage", "cond_tail_relax_moment"),
])
def test_leakage_relaxation_builds_no_density_table(monkeypatch, module, name,
                                                    leakage, moment):
    # a fresh system: a session fixture may already keep a table built by
    # an earlier test, which would hide the build checked here
    sys = load_fixture("inst_a" if module is bstd else "inst_b")[1]
    expected = BOUNDS[leakage].evaluate(sys, 0.1, 2, 2.0, "auto")

    def refuse(*args, **kwargs):
        raise AssertionError("density table built")

    monkeypatch.setattr(module, name, refuse)
    assert BOUNDS[leakage].evaluate(sys, 0.1, 2, 2.0, "auto") == expected
    with pytest.raises(AssertionError, match="density table built"):
        BOUNDS[moment].evaluate(sys, 0.1, 2, 2.0, "auto")
