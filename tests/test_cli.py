import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from genbounds import cli, load_distribution, load_fixture, load_problem
from genbounds.cli import main
from genbounds.measures import T_INF


STANDARD_PROBLEM = {
    "setting": "standard",
    "instances": [0, 1],
    "n": 2,
    "loss": {"hypotheses": [0, 1], "matrix": [[0, 1], [1, 0]],
             "range": [0, 1]},
    "learner": {"kind": "erm", "tie": "lowest-index"},
}

SUBSET_PROBLEM = {
    "setting": "subset",
    "instances": [0, 1],
    "n": 1,
    "loss": {"hypotheses": [0, 1], "matrix": [[0, 1], [1, 0]],
             "range": [0, 1]},
    "learner": {"kind": "identity"},
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestReport:
    def test_standard_csv(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "deltas": [0.1, 0.3]})
        out = tmp_path / "report.csv"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 16  # 8 default bounds x 2 deltas
        assert all(r["schema_version"] == "1" for r in rows)
        avg = [r for r in rows if r["bound_id"] == "avg"]
        assert float(avg[0]["epsilon"]) == pytest.approx(0.37494504417941316,
                                                         abs=1e-9)
        assert avg[0]["flavor"] == "average"
        # every feasible bound must dominate the exact quantile it targets
        for r in rows:
            if r["feasible"] == "True" and r["scope"] == "data-independent" \
                    and r["flavor"] == "single-draw":
                assert float(r["epsilon"]) >= float(r["quantile"]) - 1e-12

    def test_subset_json(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": SUBSET_PROBLEM, "deltas": [0.1],
                            "alpha": 4.0})
        out = tmp_path / "report.json"
        assert main(["report", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 10
        ids = {r["bound_id"] for r in rows}
        assert "cmi" in ids and "genhat_to_gen" in ids

    def test_inf_values_serialized_as_strings(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "deltas": [0.1],
                            "t": "inf", "bounds": ["sd_moment"]})
        out = tmp_path / "report.csv"
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0]["t"] == "inf"

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM,
                            "deltas": [0.3, 0.1, 0.05]})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["report", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["report", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "missing.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["report", "--config", str(path)]) == 2

    def test_empty_bound_selection(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "bounds": []})
        assert main(["report", "--config", cfg]) == 2

    def test_unknown_bound_id(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "bounds": ["nope"]})
        assert main(["report", "--config", cfg]) == 2

    def test_bad_delta(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "deltas": [1.5]})
        assert main(["report", "--config", cfg]) == 2

    def test_budget_exceeded(self, tmp_path):
        # C(205, 5) = 2.9e9 types of the 6^200 z-vectors, times 2 hypotheses
        problem = {
            "setting": "standard",
            "instances": [0, 1, 2, 3, 4, 5],
            "n": 200,
            "loss": {"hypotheses": [0, 1],
                     "matrix": [[0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]],
                     "range": [0, 1]},
            "learner": {"kind": "constant"},
        }
        cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
        assert main(["report", "--config", cfg]) == 3

    @pytest.mark.parametrize("command", ["report", "sweep"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_an_unwritable_out_exits_2(self, tmp_path, capsys, command, where):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "bounds": ["avg"],
                            "axis": "delta", "values": [0.1]})
        out = str(tmp_path / "no" / "such" / "x.csv" if where != "directory" else tmp_path)
        assert main([command, "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write output {out!r}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unknown_subcommand(self):
        assert main(["frobnicate", "--config", "x"]) == 2

    @pytest.mark.parametrize("setting, n", [("standard", 2), ("standard", 40),
                                            ("subset", 2)])
    def test_identity_learner_needs_n_one(self, tmp_path, capsys, setting, n):
        problem = dict(SUBSET_PROBLEM, setting=setting, n=n)
        cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
        assert main(["report", "--config", cfg]) == 2
        assert f"n = {n}" in capsys.readouterr().err

    def test_identity_subset_budget_refusal_comes_first(self, tmp_path):
        # 2^80 supersamples times 2^40 selectors, sized before any learner
        problem = dict(SUBSET_PROBLEM, n=40)
        cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
        assert main(["report", "--config", cfg]) == 3


class TestVerify:
    def test_passing_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"instances": 3})
        assert main(["verify", "--config", cfg, "--seed", "5"]) == 0
        captured = capsys.readouterr()
        assert "0 failures" in captured.out
        assert "seed 5" in captured.out

    def test_injected_fault_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json",
                           {"instances": 2, "sigma_scale": 0.25})
        assert main(["verify", "--config", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("config, field", [
        ({"sigma_scale": float("nan")}, "sigma_scale"),
        ({"sigma_scale": -1.0}, "sigma_scale"),
        ({"sigma_scale": 0.0}, "sigma_scale"),
        ({"sigma_scale": float("inf")}, "sigma_scale"),
        ({"instances": 0}, "instances"),
        ({"instances": -1}, "instances"),
        ({"sigma_scale": 1e-200}, "sigma_scale"),
        ({"sigma_scale": 1e200}, "sigma_scale"),
    ])
    def test_refuses_an_out_of_range_field(self, tmp_path, capsys, config, field):
        cfg = write_config(tmp_path, "cfg.json", dict({"instances": 2}, **config))
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and field in captured.err
        assert "checks" not in captured.out


class TestSweep:
    def test_delta_axis(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM,
                            "bounds": ["sd_leakage"],
                            "axis": "delta", "values": [0.3, 0.1, 0.05]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        eps = [float(r["epsilon"]) for r in rows]
        assert len(eps) == 3
        assert eps[0] <= eps[1] <= eps[2]  # smaller delta, larger epsilon
        assert all(r["axis"] == "delta" for r in rows)

    def test_delta_axis_computes_the_pushforward_once(self, tmp_path, monkeypatch):
        # so do the t and alpha axes, which keep one system too
        calls = []
        pushforward = cli.vfy._pushforward

        def counted(values, masses):
            calls.append(values.shape)
            return pushforward(values, masses)

        monkeypatch.setattr(cli.vfy, "_pushforward", counted)
        for axis, values in (("delta", [0.3, 0.1, 0.05]), ("t", [1, 2, "inf"]),
                             ("alpha", [1.5, 2.0, 4.0])):
            calls.clear()
            cfg = write_config(tmp_path, "cfg.json",
                               {"problem": STANDARD_PROBLEM, "axis": axis,
                                "values": values})
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
            assert len(calls) == 1, axis

    def test_t_axis_with_inf(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "deltas": [0.1],
                            "bounds": ["sd_moment"],
                            "axis": "t", "values": [1, 2, "inf"]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["axis_value"] for r in rows] == ["1", "2", "inf"]

    def test_alpha_axis_on_subset(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": SUBSET_PROBLEM, "deltas": [0.1],
                            "bounds": ["cond_alpha_mi"],
                            "axis": "alpha", "values": [1.5, 2.0, 4.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        # subset sweeps carry the tightness-comparison columns
        for r in rows:
            assert float(r["cmi_w_selector"]) == pytest.approx(0.5 * 0.6931471805599453, abs=1e-9)
            assert float(r["mi_w_supersample"]) >= -1e-12

    def test_beta_axis_rebuilds_problem(self, tmp_path):
        problem = dict(STANDARD_PROBLEM, learner={"kind": "gibbs", "beta": 1.0})
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": problem, "deltas": [0.1],
                            "bounds": ["avg"],
                            "axis": "beta", "values": [0.0, 2.0, 8.0]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        eps = [float(r["epsilon"]) for r in rows]
        # beta = 0 is data-independent: zero mutual information
        assert eps[0] == pytest.approx(0.0, abs=1e-12)
        assert eps[1] <= eps[2] + 1e-12

    def test_beta_axis_requires_gibbs(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM,
                            "axis": "beta", "values": [0.0, 1.0]})
        assert main(["sweep", "--config", cfg]) == 2

    def test_beta_axis_refuses_a_learner_that_is_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": dict(STANDARD_PROBLEM, learner=[1]),
                            "axis": "beta", "values": [0.0, 1.0]})
        assert main(["sweep", "--config", cfg]) == 2
        assert "requires a gibbs learner" in capsys.readouterr().err

    def test_n_axis_takes_an_integral_float(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM, "bounds": ["avg"],
                            "axis": "n", "values": [1, 2.0]})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert [(r["n"], r["axis_value"]) for r in read_csv(out)] == [("1", "1"),
                                                                       ("2", "2.0")]

    def test_unknown_axis(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": STANDARD_PROBLEM,
                            "axis": "zeta", "values": [1]})
        assert main(["sweep", "--config", cfg]) == 2


class TestIllTypedConfig:
    """A run-level or problem field of the wrong type or form (a fractional
    count, or a bool where a number belongs) exits 2 with an error naming
    the field, never 0 with the bool read as 1.0 or 0.0, nor 1 (verification
    failure) with a traceback."""

    @pytest.mark.parametrize("command, config, field", [
        ("report", {"problem": STANDARD_PROBLEM, "deltas": 0.1}, "deltas"),
        ("report", {"problem": STANDARD_PROBLEM, "deltas": [[0.1]]}, "deltas"),
        ("report", {"problem": STANDARD_PROBLEM, "alpha": [2]}, "alpha"),
        ("report", {"problem": STANDARD_PROBLEM, "t": [2]}, "t"),
        ("report", {"problem": STANDARD_PROBLEM, "t": None}, "t"),
        ("report", {"problem": STANDARD_PROBLEM, "bounds": 5}, "bounds"),
        ("verify", {"deltas": 0.1}, "deltas"),
        ("verify", {"instances": [3]}, "instances"),
        ("verify", {"instances": float("inf")}, "instances"),
        ("verify", {"sigma_scale": [1]}, "sigma_scale"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "n", "values": 5}, "values"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "n", "values": [[1]]}, "values"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "n", "values": [float("inf")]},
         "values"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "delta", "values": [[1]]},
         "values"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "alpha", "values": [None]},
         "values"),
        ("sweep", {"problem": dict(STANDARD_PROBLEM, learner={"kind": "gibbs", "beta": 1.0}),
                   "axis": "beta", "values": [[1]]}, "values"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "t", "values": [[1]]}, "t"),
        ("verify", {"instances": 2.5}, "instances"),
        ("verify", {"instances": True}, "instances"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "n", "values": [1, 1.7]}, "values"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "n", "values": [True]}, "values"),
        ("report", {"problem": STANDARD_PROBLEM, "t": True}, "t"),
        ("report", {"problem": STANDARD_PROBLEM, "alpha": False}, "alpha"),
        ("report", {"problem": STANDARD_PROBLEM, "deltas": [True]}, "deltas"),
        ("verify", {"sigma_scale": True}, "sigma_scale"),
        ("verify", {"deltas": [False]}, "deltas"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "delta", "values": [True]},
         "values"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "t", "values": [True]}, "t"),
        ("sweep", {"problem": STANDARD_PROBLEM, "axis": "alpha", "values": [True]},
         "values"),
        ("sweep", {"problem": dict(STANDARD_PROBLEM, learner={"kind": "gibbs", "beta": 1.0}),
                   "axis": "beta", "values": [True]}, "values"),
        ("report", {"problem": dict(STANDARD_PROBLEM, n=1.7)}, "n"),
        ("report", {"problem": dict(STANDARD_PROBLEM, n=True)}, "n"),
        ("report", {"problem": dict(STANDARD_PROBLEM, pz=[True, False])}, "pz"),
        ("report", {"problem": dict(STANDARD_PROBLEM,
                                    learner={"kind": "gibbs", "beta": True})}, "beta"),
        ("report", {"problem": dict(STANDARD_PROBLEM, loss=dict(
            STANDARD_PROBLEM["loss"], matrix=[[True, False], [False, True]]))}, "matrix"),
        ("report", {"problem": dict(STANDARD_PROBLEM, learner={
            "kind": "constant", "weights": [True, False]})}, "weights"),
        ("report", {"problem": dict(STANDARD_PROBLEM, n=1, learner={
            "kind": "custom-kernel", "rows": {
                "0": {"outcomes": [0, 1], "probs": [0.5, 0.5]},
                "1": {"outcomes": [0, 1], "probs": [True, False]}}})}, "probs"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, config, field):
        cfg = write_config(tmp_path, "cfg.json", config)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(field) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "verify", "sweep"])
    def test_a_config_that_is_not_an_object(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "cfg.json", [{"instances": 3}])
        assert main([command, "--config", cfg]) == 2
        assert "is not a JSON object" in capsys.readouterr().err


class TestProblemIsAnObjectOrAPath:
    """A ``problem`` that is neither an object nor a path exits 2 naming it,
    even with a valid problem on stdin: ``open`` would take an int or a bool
    for a file descriptor (0, false: stdin; 1, true: stdout, closed after)."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("problem")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))
            if p))
        gibbs = json.dumps(dict(STANDARD_PROBLEM, learner={"kind": "gibbs", "beta": 1.0}))
        out = {}
        for value in (0, 1, True, False, 2.5, None, [1]):
            for name, extra in (("report", {}), ("sweep", {"axis": "delta", "values": [0.1]}),
                                ("sweep", {"axis": "beta", "values": [1.0]})):
                cfg = write_config(d, "cfg.json", {"problem": value, "deltas": [0.1], **extra})
                run = subprocess.run([sys.executable, "-m", "genbounds.cli", name, "--config",
                                      cfg], input=gibbs, capture_output=True, text=True,
                                     env=env)
                out[json.dumps(value), name, extra.get("axis")] = run
        return out

    def test_exits_2_naming_problem(self, runs):
        assert len(runs) == 21
        for key, run in runs.items():
            assert (run.returncode, run.stdout) == (2, ""), key
            assert run.stderr.startswith("error: ") and "'problem'" in run.stderr, key
            assert "Traceback" not in run.stderr, key

    def test_the_loaders_refuse_a_file_descriptor(self):
        with pytest.raises(ValueError, match="'problem'"):
            load_problem(0)
        with pytest.raises(ValueError, match="'distribution'"):
            load_distribution(0)


class TestNonFiniteConfig:
    @pytest.mark.parametrize("problem", [
        dict(STANDARD_PROBLEM, loss={"hypotheses": [0, 1],
                                     "matrix": [[float("nan"), 1], [1, 0]],
                                     "range": [0, 1]}),
        dict(STANDARD_PROBLEM, pz=[float("nan"), 1.0]),
    ], ids=["nan-loss", "nan-pz"])
    def test_report_exits_2_without_traceback(self, tmp_path, capsys, problem):
        cfg = write_config(tmp_path, "cfg.json", {"problem": problem})
        assert main(["report", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid problem definition")
        assert "Traceback" not in err


class TestInfiniteAlpha:
    def _sweep(self, tmp_path, **extra):
        cfg = write_config(tmp_path, "cfg.json",
                           dict({"problem": SUBSET_PROBLEM, "deltas": [0.1],
                                 "axis": "alpha", "values": [2.0, "inf"]}, **extra))
        return main(["sweep", "--config", cfg, "--out", str(tmp_path / "out.csv")])

    def test_renyi_pair_refuses_infinite_alpha(self, tmp_path, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._sweep(tmp_path) == 2
        assert capsys.readouterr().err == "error: alpha must be finite and exceed 1\n"

    def test_alpha_mi_bound_takes_infinite_alpha(self, tmp_path):
        assert self._sweep(tmp_path, bounds=["cond_alpha_mi"]) == 0
        rows = read_csv(tmp_path / "out.csv")
        assert [r["alpha"] for r in rows] == ["2.0", "inf"]


class TestNoSpuriousWarnings:
    # hypothesis 2 is never an empirical risk minimizer: zero marginal mass
    PROBLEM = {"setting": "standard", "instances": [0, 1, 2], "n": 2,
               "learner": {"kind": "erm"},
               "loss": {"hypotheses": [0, 1, 2], "range": [0, 1],
                        "matrix": [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [1.0, 1.0, 1.0]]}}
    EPSILONS = {  # the report before posterior KLs skipped off-support atoms,
        # with sd_tail from the exact strict-tail rule
        "avg": "0.39890919025976734", "pacb_moment": "1.244535539333425",
        "sd_moment": "1.1284424004696783", "sd_leakage": "1.2927308041185457",
        "sd_renyi": "1.2927308041185457", "sd_tail": "1.0117243402011862",
        "tail_relax_moment": "1.2027755594115455",
        "tail_relax_leakage": "1.3581015157406195"}

    def test_erm_report_with_an_unused_hypothesis(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json",
                           {"problem": self.PROBLEM, "deltas": [0.1]})
        out = tmp_path / "report.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        got = {r["bound_id"]: float(r["epsilon"]) for r in read_csv(out)}
        assert got == pytest.approx({k: float(v) for k, v in self.EPSILONS.items()},
                                    rel=1e-12, abs=0.0)


class TestOneParser:
    """main parses with the one parser built at import. In one process, in
    either order, each call prints and exits as the same call in a fresh
    interpreter, and none of them builds a parser."""

    @pytest.fixture(scope="class")
    def calls(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("calls")
        report = write_config(d, "report.json",
                              {"problem": STANDARD_PROBLEM, "deltas": [0.3, 0.1]})
        sweep = write_config(d, "sweep.json",
                             {"problem": SUBSET_PROBLEM, "deltas": [0.1],
                              "bounds": ["cond_alpha_mi"], "axis": "alpha",
                              "values": [1.5, "inf"]})
        verify = write_config(d, "verify.json", {"instances": 1})
        bad = write_config(d, "bad.json", {"problem": STANDARD_PROBLEM, "bounds": []})
        return {
            "report csv": ["report", "--config", report],
            "report json": ["report", "--config", report, "--format", "json"],
            "sweep": ["sweep", "--config", sweep],
            "verify": ["verify", "--config", verify, "--seed", "3"],
            "unknown option": ["report", "--config", report, "--frobnicate"],
            "no subcommand": [],
            "help": ["--help"],
            "report help": ["report", "--help"],
            "config error": ["report", "--config", bad],
        }

    @pytest.fixture(scope="class")
    def fresh(self, calls):
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))
            if p))
        runs = {name: subprocess.run([sys.executable, "-m", "genbounds.cli", *argv],
                                     capture_output=True, text=True, env=env)
                for name, argv in calls.items()}
        return {name: (run.stdout, run.stderr, run.returncode) for name, run in runs.items()}

    def test_calls_in_either_order_match_a_fresh_process(self, calls, fresh, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        names = list(calls)
        for order in (names, names[::-1]):
            for name in order:
                code = main(list(calls[name]))
                captured = capsys.readouterr()
                assert (captured.out, captured.err, code) == fresh[name], name
        assert built == []
        codes = {name: result[2] for name, result in fresh.items()}
        assert codes == {"report csv": 0, "report json": 0, "sweep": 0, "verify": 0,
                         "unknown option": 2, "no subcommand": 2, "help": 0,
                         "report help": 0, "config error": 2}

    def test_emit_writes_the_bytes_of_a_dict_writer(self, capsys):
        rows = cli._report_rows(load_fixture("inst_a")[1], {"deltas": [0.3, 0.1]})
        edges = [dict(rows[0], epsilon=None, quantile=math.inf, t=T_INF,
                      gamma=-math.inf, flavor='say "hi", twice', scope="a,b"),
                 dict(rows[1], sigma="", C="'quoted'", bound_id="line\nbreak")]
        for columns, table in ((cli.REPORT_COLUMNS, rows + edges),
                               (cli.REPORT_COLUMNS + ("axis_value",),
                                [dict(r, axis_value=v) for r, v in
                                 zip(edges, (math.inf, -math.inf))])):
            cli._emit(table, columns, "csv", None)
            reference = io.StringIO()
            writer = csv.DictWriter(reference, fieldnames=list(columns), lineterminator="\n")
            writer.writeheader()
            for row in table:
                writer.writerow({k: cli._fmt(row.get(k)) for k in columns})
            assert capsys.readouterr().out == reference.getvalue()
