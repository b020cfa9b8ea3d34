"""Record the benchmark's reference outputs and workload-property sheet.

    python3 bench/record.py

For every workload and every shipped seed it runs the job list once,
requires every reference-free check to pass, and writes
``bench/reference/<workload>.json`` (what ``run.py`` compares against)
and ``bench/properties.json`` (atoms, distinct density values and setting
mix per job). Run it only when the program's outputs are meant to change.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SHIPPED_SEEDS = range(10)


def _distinct(system) -> tuple[int, int, str]:
    """(atoms, distinct density values, setting) of one system."""
    import numpy as np
    from genbounds import StandardSystem, conditional_density, information_density

    if isinstance(system, StandardSystem):
        return system.cond.size, len(np.unique(information_density(system).iota)), "standard"
    return system.cond.size, len(np.unique(conditional_density(system).iota)), "subset"


def job_systems(job) -> list:
    """The systems a job builds, rebuilt outside the timed path."""
    import numpy as np
    from genbounds import load_fixture, load_problem
    from genbounds import verify as vfy

    if job.kind == "suite":
        rng = np.random.default_rng(job.seed)
        systems = [load_fixture(name)[1] for name in ("inst_a", "inst_c", "inst_b")]
        for _ in range(job.config["instances"]):
            systems += [vfy.random_standard_system(rng), vfy.random_subset_system(rng)]
        return systems
    problem = job.config["problem"] if job.kind == "report" else job.config
    return [load_problem(problem)[1]]


def main() -> int:
    from run import THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import jobs as jobs_mod

    (HERE / "reference").mkdir(exist_ok=True)
    sheet = {}
    for workload in jobs_mod.WORKLOADS:
        seeds = {}
        per_job: dict[int, list] = {}
        for seed in SHIPPED_SEEDS:
            jobs = jobs_mod.make_jobs(workload, seed)
            recorded = []
            with tempfile.TemporaryDirectory() as tmp:
                jobs_mod.write_configs(jobs, Path(tmp))
                for i, job in enumerate(jobs):
                    out = jobs_mod.execute(job)
                    problems = jobs_mod.check(job, out)
                    if problems:
                        raise SystemExit(f"{workload} seed {seed} {job.name}: {problems}")
                    recorded.append({"name": job.name,
                                     "output": jobs_mod.summarize(job, out)})
                    stats = [_distinct(s) for s in job_systems(job)]
                    per_job.setdefault(i, []).append({
                        "name": job.name,
                        "atoms": sum(a for a, _, _ in stats),
                        "distinct_density_values": sum(v for _, v, _ in stats),
                        "standard_systems": sum(s == "standard" for _, _, s in stats),
                        "subset_systems": sum(s == "subset" for _, _, s in stats)})
            seeds[str(seed)] = recorded
            print(f"{workload} seed {seed}: {len(jobs)} jobs recorded", flush=True)
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                           for k, v in seeds.items())
        (HERE / "reference" / f"{workload}.json").write_text(
            f'{{"workload": "{workload}", "seeds": {{\n{lines}\n}}}}\n')
        sheet[workload] = {"jobs_per_pass": len(per_job),
                           "seeds": list(SHIPPED_SEEDS),
                           "jobs": [_summarize_job(rows) for rows in per_job.values()]}
    (HERE / "properties.json").write_text(json.dumps(sheet, indent=1) + "\n")
    return 0


def _summarize_job(rows: list[dict]) -> dict:
    """Median, min and max of each property of one job slot over the seeds."""
    name = rows[0]["name"]
    out = {"job": name.rsplit(":", 1)[0] if name.startswith("verify:") else name}
    for key in ("atoms", "distinct_density_values", "standard_systems",
                "subset_systems"):
        values = [r[key] for r in rows]
        out[key] = {"median": statistics.median(values), "min": min(values),
                    "max": max(values)}
    return out


if __name__ == "__main__":
    sys.exit(main())
