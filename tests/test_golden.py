"""Golden outputs: ``report`` and ``sweep`` on the shipped fixtures must stay
byte-identical, and exact coverage probabilities must agree to 1e-12.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py

which prints every cell it changes: file, row key, column, old -> new, and
the relative change of a numeric cell.
"""
import csv
import io
import json
import math
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


KEY_COLUMNS = ("fixture", "bound_id", "delta", "axis_value")


def _cells(filename, data):
    """{(row key, column): text} of a golden output's bytes; a row is keyed
    by its fixture, bound id, delta and axis value, where it has them."""
    if not data:
        return {}
    if filename.endswith(".csv"):
        rows = list(csv.DictReader(io.StringIO(data.decode())))
    else:
        doc = json.loads(data)
        rows = doc if isinstance(doc, list) else [dict(table, fixture=name)
                                                  for name, table in doc.items()]
    cells = {}
    for row in rows:
        key = ", ".join(f"{c}={row[c]}" for c in KEY_COLUMNS if c in row)
        cells.update({(key, column): str(value) for column, value in row.items()})
    return cells


def _relative_change(old, new):
    """`` (relative change r)`` between two numeric cells, else ''."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return ""
    if a == b or not (math.isfinite(a) and math.isfinite(b)):
        return ""
    return f" (relative change {(b - a) / abs(a) if a else math.inf:.3g})"


def record():
    """Re-record every golden output, printing each changed cell."""
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {filename: _run(tmp, command, fmt, config)
                   for filename, command, fmt, config in _cases()}
    outputs["coverage.json"] = (json.dumps(_coverage_table(), indent=2, sort_keys=True)
                                + "\n").encode()
    for filename, data in outputs.items():
        path = GOLDEN / filename
        old = path.read_bytes() if path.exists() else b""
        if old == data:
            continue
        before, after = _cells(filename, old), _cells(filename, data)
        for key, column in sorted(before.keys() | after.keys()):
            old_cell, new_cell = before.get((key, column)), after.get((key, column))
            if old_cell != new_cell:
                print(f"{filename} [{key}] {column}: {old_cell} -> {new_cell}"
                      f"{_relative_change(old_cell, new_cell)}")
        path.write_bytes(data)


if __name__ == "__main__":
    sys.exit(record())
