"""Property-based fuzz of the CLI: any small config, well-formed or not,
ends in exit code 0, 2 or 3, never in a traceback."""
import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genbounds import cli


def _probs(draw, k):
    counts = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    return [c / sum(counts) for c in counts]


@st.composite
def learners(draw, instances, hypotheses, n):
    kind = draw(st.sampled_from(["gibbs", "erm", "constant", "custom-kernel"]
                                + (["identity"] if instances == hypotheses else [])))
    doc = {"kind": kind}
    if kind == "gibbs":
        doc["beta"] = draw(st.floats(0.0, 10.0))
    elif kind == "erm":
        doc["tie"] = draw(st.sampled_from(["lowest-index", "uniform-over-argmin"]))
    elif kind == "constant" and draw(st.booleans()):
        doc["weights"] = _probs(draw, len(hypotheses))
    elif kind == "custom-kernel":
        doc["rows"] = {
            ",".join(str(z) for z in zvec): {"outcomes": hypotheses,
                                             "probs": _probs(draw, len(hypotheses))}
            for zvec in itertools.product(instances, repeat=n)}
    return doc


# run-level fields of the wrong type or form, one per draw
RUN_FIELD_DEFECTS = [("deltas", 0.1), ("deltas", [[0.1]]), ("deltas", "0.1"),
                     ("deltas", None), ("alpha", [2]), ("alpha", None), ("alpha", "two"),
                     ("t", [2]), ("t", None), ("t", {}), ("t", -1), ("bounds", 5),
                     ("bounds", None), ("bounds", "avg"), ("bounds", [[1]]),
                     ("t", True), ("alpha", True), ("deltas", [True])]


def _mutate(draw, config):
    """At most one defect, so that most configs get past the first check."""
    problem = config["problem"]
    loss, learner = problem["loss"], problem["learner"]
    mutation = draw(st.sampled_from([
        "none", "none", "none", "none", "nan loss", "inf loss", "over budget", "n zero",
        "bad tie", "nan beta", "bad weights", "nan pz", "short pz", "bad deltas",
        "wrong shape", "unknown kind", "unknown setting", "reversed range",
        "key extra token", "key unknown label", "key dropped", "rows not a map",
        "row outcomes", "comma label", "colliding labels", "string n",
        "ill-typed run field", "bool or fractional n", "bool number"]))
    if mutation == "nan loss":
        loss["matrix"][0][0] = math.nan
    elif mutation == "inf loss":
        loss["matrix"][-1][-1] = math.inf
    elif mutation == "over budget":  # C(205, 5) = 2.9e9 types of 6^200 z-vectors
        problem.pop("pz", None)
        problem["instances"], problem["n"] = list(range(6)), 200
        loss["matrix"] = [[row[0]] * 6 for row in loss["matrix"]]
        if learner["kind"] in ("custom-kernel", "identity"):
            problem["learner"] = {"kind": "erm"}
    elif mutation == "n zero":
        problem["n"] = draw(st.sampled_from([0, -1]))
    elif mutation == "bad tie":
        problem["learner"] = {"kind": "erm", "tie": "coin-flip"}
    elif mutation == "nan beta":
        problem["learner"] = {"kind": "gibbs",
                              "beta": draw(st.sampled_from([math.nan, math.inf]))}
    elif mutation == "bad weights":
        problem["learner"] = {"kind": "constant",
                              "weights": draw(st.sampled_from([[math.nan], [-1.0, 2.0],
                                                               [0.5]]))}
    elif mutation == "nan pz":
        problem["pz"] = [math.nan] * len(problem["instances"])
    elif mutation == "short pz":
        problem["pz"] = [1.0] * (len(problem["instances"]) + 1)
    elif mutation == "bad deltas":
        config["deltas"] = draw(st.sampled_from([[], [0.0], [1.5], [math.nan]]))
    elif mutation == "wrong shape":
        loss["matrix"].append([0.0])
    elif mutation == "unknown kind":
        learner["kind"] = "perceptron"
    elif mutation == "unknown setting":
        problem["setting"] = "online"
    elif mutation == "reversed range":
        loss["range"] = [1, 0]
    elif mutation == "string n":
        problem["n"] = "two"
    elif mutation == "bool or fractional n":
        problem["n"] = draw(st.sampled_from([True, 1.7]))
    elif mutation == "bool number":
        target = draw(st.sampled_from(["beta", "sigma", "range", "pz", "matrix",
                                       "weights", "probs"]))
        one_hot = [True] + [False] * (len(loss["hypotheses"]) - 1)
        if target == "beta":
            problem["learner"] = {"kind": "gibbs", "beta": True}
        elif target == "pz":
            problem["pz"] = [True] + [False] * (len(problem["instances"]) - 1)
        elif target == "matrix":
            loss["matrix"][0][0] = True
        elif target == "weights":
            problem["learner"] = {"kind": "constant", "weights": one_hot}
        elif target == "probs":
            problem["learner"] = {"kind": "custom-kernel", "rows": {
                ",".join(str(z) for z in zvec): {"outcomes": loss["hypotheses"],
                                                 "probs": one_hot}
                for zvec in itertools.product(problem["instances"], repeat=problem["n"])}}
        else:
            loss[target] = True if target == "sigma" else [False, True]
    elif mutation == "ill-typed run field":
        key, value = draw(st.sampled_from(RUN_FIELD_DEFECTS))
        config[key] = value
    elif learner["kind"] == "custom-kernel" and mutation.startswith("key"):
        key = draw(st.sampled_from(sorted(learner["rows"])))
        row = learner["rows"].pop(key)
        if mutation == "key extra token":
            learner["rows"][key + ",0"] = row
        elif mutation == "key unknown label":
            learner["rows"][key + "x"] = row
    elif learner["kind"] == "custom-kernel" and mutation == "rows not a map":
        learner["rows"] = list(learner["rows"].values())
    elif learner["kind"] == "custom-kernel" and mutation == "row outcomes":
        for row in learner["rows"].values():
            row["outcomes"] = row["outcomes"][::-1] + ["extra"]
    elif learner["kind"] == "custom-kernel" and mutation == "comma label":
        problem["instances"][0] = "a,b"
    elif learner["kind"] == "custom-kernel" and mutation == "colliding labels":
        problem["instances"] = [str(problem["instances"][0])] + problem["instances"]
        loss["matrix"] = [[0.0] + row for row in loss["matrix"]]


@st.composite
def configs(draw):
    setting = draw(st.sampled_from(["standard", "subset"]))
    n = draw(st.integers(1, 3 if setting == "standard" else 2))
    instances = list(range(draw(st.integers(1, 3))))
    hypotheses = list(range(draw(st.integers(1, 3))))
    matrix = [[draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for _ in instances]
              for _ in hypotheses]
    problem = {
        "setting": setting, "instances": instances, "n": n,
        "loss": {"hypotheses": hypotheses, "matrix": matrix, "range": [0, 1]},
        "learner": draw(learners(instances, hypotheses, n)),
    }
    if draw(st.booleans()):
        problem["pz"] = _probs(draw, len(instances))
    config = {"problem": problem}
    _mutate(draw, config)
    return config


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_report_exits_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["report", "--config", path])
    assert code in (0, 2, 3)


def _custom_kernel_problem(instances):
    return {"problem": {
        "setting": "standard", "instances": instances, "n": 1,
        "loss": {"hypotheses": [0, 1], "matrix": [[0.0] * len(instances)] * 2,
                 "range": [0, 1]},
        "learner": {"kind": "custom-kernel", "rows": {
            str(z): {"outcomes": [0, 1], "probs": [0.5, 0.5]} for z in instances}},
    }}


@pytest.mark.parametrize("instances, named", [
    (["a,b", "a", "b"], "'a,b'"),  # a comma splits the key
    ([1, "1"], "'1'"),  # both written "1"
    ([[0, 1], 2], "(0, 1)"),  # a tuple label's text has a comma
])
def test_custom_kernel_refuses_inexpressible_labels(tmp_path, capsys, instances, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_custom_kernel_problem(instances)))
    assert cli.main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "custom-kernel key" in err
    assert "kernel undefined" not in err
