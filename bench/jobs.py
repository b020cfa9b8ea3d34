"""Workloads: job generation from a seed, job execution through genbounds'
public surface, and the output checks that decide whether a job failed.

Every job is one call into the library: ``genbounds.cli.main`` for
``report`` and ``verify`` jobs, and ``genbounds.load_problem`` followed by
``genbounds.verify.coverage`` for coverage jobs. The library sees only the
generated configs.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import genbounds
from genbounds import cli
from genbounds import verify as vfy

DELTAS = (0.3, 0.1, 0.05)
TOL = 1e-12
# Bounds whose epsilon a better gamma search may lower (exact tail bounds).
TAIL_BOUNDS = {"sd_tail", "cond_tail"}

# Job specs per workload: (kind, learner, setting, |Z|, |W|, n) for report
# and coverage jobs, ("suite", instances) for verify suites. Atoms are |Z|^n |W| (standard)
# and |Z|^(2n) 2^n |W| (subset).
WORKLOADS = {
    "report-gibbs": [("report", "gibbs", "standard", 2, 4, 8),
                     ("report", "gibbs", "standard", 4, 4, 5),
                     ("report", "gibbs", "standard", 3, 4, 7),
                     ("report", "gibbs", "standard", 4, 6, 6)],
    "report-erm": [("report", "erm", "standard", 4, 8, 7),
                   ("report", "erm", "standard", 3, 12, 8)],
    "verify": [("suite", 10),
               ("coverage", "gibbs", "standard", 4, 4, 5),
               ("suite", 10),
               ("suite", 10),
               ("coverage", "gibbs", "subset", 2, 4, 4),
               ("suite", 10)],
}
TINY = {
    "report-gibbs": [("report", "gibbs", "standard", 2, 2, 3)],
    "report-erm": [("report", "erm", "standard", 2, 3, 4)],
    "verify": [("suite", 1),
               ("coverage", "gibbs", "standard", 2, 2, 3),
               ("coverage", "gibbs", "subset", 2, 2, 2)],
}


@dataclass
class Job:
    """One unit of work: a config for the library and how to check it."""

    name: str
    kind: str  # report | suite | coverage
    config: dict
    seed: int = 0
    path: Path | None = None


@dataclass
class Outcome:
    """What a job returned: an exit code and its output, or the exception."""

    code: int = 0
    text: str = ""
    reports: list = field(default_factory=list)
    error: str = ""


def _problem(rng: np.random.Generator, learner: str, setting: str,
             n_z: int, n_w: int, n: int) -> dict:
    doc = {"setting": setting, "instances": list(range(n_z)), "n": n}
    if learner == "erm":
        # A 5-point loss grid: many ties, so few distinct density values.
        matrix = rng.integers(0, 5, size=(n_w, n_z)) / 4.0
        doc["learner"] = {"kind": "erm"}
        doc["pz"] = [float(p) for p in rng.dirichlet(np.full(n_z, 2.0))]
    else:
        # Losses are multiples of 2^-16 and P_Z is uniform, so a z-vector's
        # loss total and mass are exact whatever the order of its terms.
        # Each count class then has one density value per hypothesis, and
        # the number of distinct values, which sets the cost of the
        # auto-gamma tail scan, depends on the shape rather than on rounding.
        matrix = rng.integers(0, 2 ** 16 + 1, size=(n_w, n_z)) / 2 ** 16
        doc["learner"] = {"kind": "gibbs", "beta": float(rng.uniform(0.5, 4.0))}
    doc["loss"] = {"hypotheses": list(range(n_w)), "matrix": matrix.tolist(),
                   "range": [0.0, 1.0]}
    return doc


def suite_shapes(seed: int, instances: int) -> list[tuple]:
    """(setting, n, |Z|, |W|) of the random instances ``genbounds verify
    --seed seed`` draws, found by replaying its generator's draws
    (``verify.random_standard_system`` / ``random_subset_system``) without
    building the systems. ``test_bench`` checks the replay against them."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(instances):
        for setting in ("standard", "subset"):
            n = int(rng.integers(1, 4))
            n_z = int(rng.integers(2, 4))
            n_w = int(rng.integers(2, 5))
            rng.uniform(0.0, 1.0, size=(n_w, n_z))
            rng.dirichlet(np.ones(n_z))
            rng.uniform(0.0, 8.0)
            shapes.append((setting, n, n_z, n_w))
    return shapes


def _suite_size_class(shapes: list[tuple]) -> tuple[int, int]:
    """(large, medium) subset-instance counts of a suite. Large ones
    (n = 3, |Z| = 3: 12k-23k atoms) take 1-3 s each, medium ones
    (n = 3, |Z| = 2 or n = 2, |Z| = 3: 0.5k-2k atoms) 50-130 ms, the
    rest a few ms."""
    large = medium = 0
    for setting, n, n_z, _ in shapes:
        if setting != "subset":
            continue
        if n == 3 and n_z == 3:
            large += 1
        elif (n, n_z) in ((3, 2), (2, 3)):
            medium += 1
    return large, medium


def _pick_suite_seed(rng: np.random.Generator, instances: int) -> int:
    """A suite seed of the workload's size class: no large subset instance
    and three medium ones per ten instances. Suite cost is dominated by
    the few large instances it happens to draw; fixing the class keeps one
    pass's cost about the same from workload seed to workload seed."""
    want = (0, 3 * instances // 10)
    while True:
        seed = int(rng.integers(0, 2 ** 31 - 1))
        if _suite_size_class(suite_shapes(seed, instances)) == want:
            return seed


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The fixed job list of ``workload`` for workload seed ``seed``."""
    rng = np.random.default_rng([zlib.crc32(workload.encode()), seed % 2 ** 63])
    jobs = []
    for spec in (TINY if tiny else WORKLOADS)[workload]:
        if spec[0] == "suite":
            instances = spec[1]
            job_seed = _pick_suite_seed(rng, instances)
            jobs.append(Job(f"verify:{instances}x:seed{job_seed}", "suite",
                            {"instances": instances}, seed=job_seed))
            continue
        kind, learner, setting, n_z, n_w, n = spec
        problem = _problem(rng, learner, setting, n_z, n_w, n)
        name = f"{kind}:{learner}:{setting}:{n_z}x{n_w}:n{n}"
        config = ({"problem": problem, "deltas": list(DELTAS)}
                  if kind == "report" else problem)
        jobs.append(Job(name, kind, config))
    return jobs


def write_configs(jobs: list[Job], directory: Path) -> None:
    for i, job in enumerate(jobs):
        if job.kind != "coverage":
            job.path = directory / f"job{i}.json"
            job.path.write_text(json.dumps(job.config))


def coverage_ids(setting: str) -> tuple:
    return (vfy.STANDARD_COVERAGE_IDS if setting == "standard"
            else vfy.SUBSET_COVERAGE_IDS)


def execute(job: Job) -> Outcome:
    """Run one job through the library; exceptions propagate."""
    if job.kind == "coverage":
        _, system = genbounds.load_problem(job.config)
        reports = [vfy.coverage(system, bound_id, delta)
                   for delta in DELTAS
                   for bound_id in coverage_ids(job.config["setting"])]
        return Outcome(reports=reports)
    if job.kind == "report":
        argv = ["report", "--config", str(job.path)]
    else:
        argv = ["verify", "--config", str(job.path), "--seed", str(job.seed)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return Outcome(code=code, text=buf.getvalue())


# -- checks ----------------------------------------------------------------

_SUITE_LINE = re.compile(r"^(\d+) checks, (\d+) failures \(seed (-?\d+)\)$")


def summarize(job: Job, out: Outcome):
    """The part of a job's output that references record and compare."""
    if job.kind == "coverage":
        return [[r.bound_id, r.delta, r.exact_violation_prob] for r in out.reports]
    if job.kind == "report":
        rows = list(csv.reader(io.StringIO(out.text)))
        return {"columns": rows[0], "rows": rows[1:]} if rows else {}
    match = _SUITE_LINE.match(out.text.strip().splitlines()[-1]) if out.text.strip() else None
    return int(match.group(1)) if match else None


def check(job: Job, out: Outcome, reference=None) -> list[str]:
    """Problems with a job's output: reference-free checks first, then a
    comparison with the recorded reference when one is given."""
    if out.error:
        return [out.error]
    if out.code != 0:
        return [f"exit code {out.code}"]
    if job.kind == "report":
        problems = check_report_rows(list(csv.DictReader(io.StringIO(out.text))))
    elif job.kind == "coverage":
        problems = [f"coverage {r.bound_id} delta={r.delta} fails: "
                    f"violation {r.exact_violation_prob!r}"
                    for r in out.reports if not r.holds]
        if len(out.reports) != len(DELTAS) * len(coverage_ids(job.config["setting"])):
            problems.append("missing coverage reports")
    else:
        problems = _check_suite(job, out.text)
    if reference is not None and not problems:
        problems = compare(job, summarize(job, out), reference)
    return problems


def check_report_rows(rows: list[dict]) -> list[str]:
    """The library's own promise on every report row: a feasible average
    bound dominates |E[gen]|, and a feasible data-independent single-draw
    bound dominates the exact (1 - delta)-quantile of |gen|."""
    if not rows:
        return ["empty report"]
    problems = []
    for row in rows:
        if row["feasible"] != "True":
            continue
        eps = float(row["epsilon"])
        if row["flavor"] == "average":
            target = float(row["abs_expected_gen"])
        elif row["flavor"] == "single-draw" and row["scope"] == "data-independent":
            target = float(row["quantile"])
        else:
            continue
        if not target <= eps + TOL:
            problems.append(f"{row['bound_id']} delta={row['delta']}: "
                            f"epsilon {eps!r} below {target!r}")
    return problems


def _check_suite(job: Job, text: str) -> list[str]:
    lines = text.strip().splitlines()
    match = _SUITE_LINE.match(lines[-1]) if lines else None
    if not match:
        return ["verify printed no summary line"]
    checks, failures, seed = (int(g) for g in match.groups())
    problems = []
    if failures or len(lines) != 1:
        problems.append(f"{failures} invariant failures")
    if seed != job.seed:
        problems.append(f"verify reported seed {seed}, not {job.seed}")
    if checks < 1:
        problems.append("verify ran no checks")
    return problems


def _same(new: str, ref: str) -> bool:
    try:
        a, b = float(new), float(ref)
    except ValueError:
        return new == ref
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return new == ref or a == b
    return abs(a - b) <= TOL * max(1.0, abs(b))


def compare(job: Job, summary, reference: dict) -> list[str]:
    """Compare a job's output with its recorded reference.

    Report rows match on (bound_id, delta); only the reference's columns are
    compared, and ``schema_version`` is skipped, so columns added later do
    not fail a job. Numeric cells agree to 1e-12 (relative above 1). An
    exact-tail bound may improve: its epsilon may be lower than recorded,
    with any gamma. A verify suite must run at least the recorded number of
    checks; coverage violation probabilities agree to 1e-12 except for the
    exact-tail bounds, whose coverage is checked reference-free.
    """
    if reference.get("name") != job.name:
        return [f"reference is for {reference.get('name')!r}, not {job.name!r}"]
    expected = reference["output"]
    if job.kind == "suite":
        if summary is None or summary < expected:
            return [f"verify ran {summary} checks, reference {expected}"]
        return []
    if job.kind == "coverage":
        got = {(b, d): v for b, d, v in summary}
        problems = []
        for bound_id, delta, viol in expected:
            new = got.get((bound_id, delta))
            if new is None:
                problems.append(f"coverage {bound_id} delta={delta} missing")
            elif bound_id not in TAIL_BOUNDS and not _same(repr(new), repr(viol)):
                problems.append(f"coverage {bound_id} delta={delta}: "
                                f"violation {new!r}, reference {viol!r}")
        return problems
    columns = summary.get("columns", [])
    rows = {(r[columns.index("bound_id")], r[columns.index("delta")]): dict(zip(columns, r))
            for r in summary.get("rows", [])} if "bound_id" in columns else {}
    ref_cols = expected["columns"]
    problems = []
    for ref_row in expected["rows"]:
        ref = dict(zip(ref_cols, ref_row))
        key = (ref["bound_id"], ref["delta"])
        new = rows.get(key)
        if new is None:
            problems.append(f"row {key} missing")
            continue
        skip = {"schema_version"}
        if ref["bound_id"] in TAIL_BOUNDS:
            skip |= {"gamma", "feasible"}
            if float(new["epsilon"]) < float(ref["epsilon"]) - TOL:
                skip.add("epsilon")
        for col in ref_cols:
            if col in skip:
                continue
            if col not in new or not _same(new[col], ref[col]):
                problems.append(f"row {key} column {col}: "
                                f"{new.get(col)!r}, reference {ref[col]!r}")
    return problems
