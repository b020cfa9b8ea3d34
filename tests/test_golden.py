"""Golden outputs: ``report`` and ``sweep`` on the shipped fixtures must stay
byte-identical, and exact coverage probabilities must agree to 1e-12.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import json
import sys
from pathlib import Path

import pytest

from genbounds import load_fixture
from genbounds.cli import main
from genbounds.models import fixture_path
from genbounds.verify import STANDARD_COVERAGE_IDS, SUBSET_COVERAGE_IDS, coverage

GOLDEN = Path(__file__).parent / "golden"
DELTAS = [0.3, 0.1, 0.05]
COVERAGE_TOL = 1e-12


def _fixture_doc(name, **learner):
    doc = json.loads(fixture_path(name).read_text())
    if learner:
        doc["learner"] = learner
    return doc


def _cases():
    """(golden file name, subcommand, format, config) for every golden output."""
    cases = []
    for name in ("inst_a", "inst_b", "inst_c"):
        config = {"problem": _fixture_doc(name), "deltas": DELTAS}
        for fmt in ("csv", "json"):
            cases.append((f"report_{name}.{fmt}", "report", fmt, config))
    gibbs = {"kind": "gibbs", "beta": 1.5}
    for name in ("inst_a", "inst_b"):
        sweeps = {
            "delta": {"problem": _fixture_doc(name), "values": DELTAS},
            "t": {"problem": _fixture_doc(name), "deltas": [0.1],
                  "values": [1, 2, "inf"]},
            "alpha": {"problem": _fixture_doc(name), "deltas": [0.1],
                      "values": [1.5, 2.0, 4.0]},
            "beta": {"problem": _fixture_doc(name, **gibbs), "deltas": [0.1],
                     "values": [0.0, 2.0, 8.0]},
            "n": {"problem": _fixture_doc(name, **gibbs), "deltas": [0.1],
                  "values": [1, 2]},
        }
        for axis, config in sweeps.items():
            cases.append((f"sweep_{name}_{axis}.csv", "sweep", "csv",
                          dict(config, axis=axis)))
    return cases


def _run(tmp_dir, command, fmt, config):
    cfg = Path(tmp_dir) / "cfg.json"
    out = Path(tmp_dir) / "out"
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg), "--out", str(out), "--format", fmt])
    assert code == 0
    return out.read_bytes()


def _coverage_table():
    table = {}
    for name in ("inst_a", "inst_b", "inst_c"):
        setting, system = load_fixture(name)
        ids = STANDARD_COVERAGE_IDS if setting == "standard" else SUBSET_COVERAGE_IDS
        table[name] = {f"{bound_id}@{delta}":
                       coverage(system, bound_id, delta).exact_violation_prob
                       for bound_id in ids for delta in DELTAS}
    return table


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c[0])
def test_output_byte_identical(case, tmp_path):
    filename, command, fmt, config = case
    assert _run(tmp_path, command, fmt, config) == (GOLDEN / filename).read_bytes()


def test_fixture_coverage_probabilities():
    expected = json.loads((GOLDEN / "coverage.json").read_text())
    got = _coverage_table()
    assert got.keys() == expected.keys()
    for name, table in expected.items():
        assert got[name].keys() == table.keys()
        for key, viol in table.items():
            assert abs(got[name][key] - viol) <= COVERAGE_TOL, (name, key)


def record():
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for filename, command, fmt, config in _cases():
            (GOLDEN / filename).write_bytes(_run(tmp, command, fmt, config))
    (GOLDEN / "coverage.json").write_text(
        json.dumps(_coverage_table(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
