"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Runs every workload at its tiny size, traced and untraced, and checks that
every metric of BENCHMARK.json is printed with its unit; checks that the
output checks fail perturbed outputs; and checks that the benchmark refuses
to run without the program.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402
from genbounds import verify as vfy  # noqa: E402
from genbounds.verify import CoverageReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"# {metric['name']} ") and
                   line.endswith(f" {metric['unit']}") for line in lines)
    assert any(line.startswith("# failed_frac 0.0 share") for line in lines)
    if trace:
        line = next(l for l in lines if l.startswith("# accounting:"))
        assert float(line.split(">=")[1].split()[0]) > 0.9


def _report_output(tmp_path):
    job = jobs.make_jobs("report-gibbs", 0, tiny=True)[0]
    jobs.write_configs([job], tmp_path)
    out = jobs.execute(job)
    assert jobs.check(job, out) == []
    return job, out


def _edit(text, bound_id, column, value):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if row["bound_id"] == bound_id and row["delta"] == "0.1":
            row[column] = value(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("bound_id,target", [("sd_leakage", "quantile"),
                                             ("sd_moment", "quantile"),
                                             ("avg", "abs_expected_gen")])
def test_reference_free_check_fails_perturbed_epsilon(tmp_path, bound_id, target):
    job, out = _report_output(tmp_path)
    out.text = _edit(out.text, bound_id, "epsilon",
                     lambda row: repr(float(row[target]) * 0.5 - 1e-9))
    assert jobs.check(job, out)


def test_reference_comparison(tmp_path):
    job, out = _report_output(tmp_path)
    reference = {"name": job.name, "output": jobs.summarize(job, out)}
    assert jobs.check(job, out, reference) == []

    bumped = jobs.Outcome(text=_edit(out.text, "sd_leakage", "epsilon",
                                     lambda row: repr(float(row["epsilon"]) + 1e-9)))
    assert jobs.check(job, bumped, reference)

    # An exact-tail epsilon may improve on the reference, not worsen.
    lower = jobs.Outcome(text=_edit(out.text, "sd_tail", "epsilon",
                                    lambda row: repr(float(row["epsilon"]) - 1e-6)))
    assert jobs.check(job, lower, reference) == []
    higher = jobs.Outcome(text=_edit(out.text, "sd_tail", "epsilon",
                                     lambda row: repr(float(row["epsilon"]) + 1e-6)))
    assert jobs.check(job, higher, reference)

    # Columns the reference lacks are ignored; schema_version is skipped.
    extra = jobs.Outcome(text=_edit(out.text, "avg", "schema_version",
                                    lambda row: "2"))
    assert jobs.check(job, extra, reference) == []


def test_coverage_and_suite_checks():
    cov = jobs.make_jobs("verify", 0, tiny=True)[1]
    ids = jobs.coverage_ids(cov.config["setting"])
    good = [CoverageReport(b, d, 0.0, True) for d in jobs.DELTAS for b in ids]
    assert jobs.check(cov, jobs.Outcome(reports=good)) == []
    bad = good[:-1] + [CoverageReport(ids[-1], 0.05, 0.5, False)]
    assert jobs.check(cov, jobs.Outcome(reports=bad))

    suite = jobs.make_jobs("verify", 0, tiny=True)[0]
    ok = f"172 checks, 0 failures (seed {suite.seed})\n"
    assert jobs.check(suite, jobs.Outcome(text=ok)) == []
    failed = f"FAIL x\n172 checks, 1 failures (seed {suite.seed})\n"
    assert jobs.check(suite, jobs.Outcome(code=1, text=failed))
    assert jobs.check(suite, jobs.Outcome(text=failed))
    assert jobs.check(suite, jobs.Outcome(text=ok),
                      {"name": suite.name, "output": 173})
    assert jobs.check(suite, jobs.Outcome(error="ValueError: boom"))


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_suite_shape_replay_matches_library(seed):
    rng = np.random.default_rng(seed)
    built = []
    for _ in range(4):
        for setting, make in (("standard", vfy.random_standard_system),
                              ("subset", vfy.random_subset_system)):
            system = make(rng)
            built.append((setting, system.n, len(system.pz), len(system.w_labels)))
    assert jobs.suite_shapes(seed, 4) == built


def test_references_cover_shipped_seeds():
    for workload in WORKLOADS:
        seeds = json.loads((HERE / "reference" / f"{workload}.json").read_text())["seeds"]
        assert len(seeds) >= 10
        for seed, recorded in seeds.items():
            names = [j.name for j in jobs.make_jobs(workload, int(seed))]
            assert [r["name"] for r in recorded] == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
