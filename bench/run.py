"""genbounds benchmark runner.

    python3 bench/run.py --workload report-gibbs --seed 0 --seconds 35 --trace 0

Closed loop, one client, one process: the workload's fixed job list (made
from ``--seed``) runs job after job, pass after pass, for about
``--seconds`` (a pass starts only if it would end mostly before then);
every job's output is checked. With ``--trace 0`` it prints
the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``); with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is one JSON object;
lines before it, starting with ``#``, carry the machine, sample counts,
``failed_frac`` and the trace's per-job accounting. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference"
SETUP_SAMPLES = 9
# BLAS/OpenMP pools pinned to one thread: one client on a shared machine.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "models.kernel_s": "s", "models.kernel_rows": "count",
    "prob.dists_built": "count", "prob.dist_s": "s",
    "models.assemble_s": "s", "models.atoms": "count",
    "models.rss_growth_mb": "MB", "models.bytes_per_atom": "B/atom",
    "measures.density_s": "s", "measures.density_builds": "count",
    "measures.density_builds_per_system": "count/system",
    "measures.tail_evals": "count", "measures.tail_eval_s": "s",
    "bounds_standard.tail_s": "s", "bounds_subset.tail_s": "s",
    "bounds_standard.self_s": "s", "bounds_standard.calls": "count",
    "bounds_subset.self_s": "s", "bounds_subset.calls": "count",
    "verify.coverage_s": "s", "verify.coverage_calls": "count",
    "verify.exp_ineq_s": "s", "verify.pushforward_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_env": THREAD_ENV}


def measure_setup(samples: int) -> list[float]:
    """Wall times of fresh interpreters running ``import genbounds``; one
    unrecorded run first compiles and caches the bytecode."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import genbounds"], cwd=ROOT,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return times


def load_reference(workload: str, seed: int, tiny: bool):
    path = REFERENCE / f"{workload}.json"
    if tiny or not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def run_pass(jobs_mod, jobs, references, failures, tracer=None) -> float:
    """One pass over the job list; returns the summed job wall time."""
    total = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(i)
        start = time.perf_counter()
        try:
            out = jobs_mod.execute(job)
        except Exception as exc:  # a raising job is a failed job
            out = jobs_mod.Outcome(error=f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        total += elapsed
        if tracer is not None:
            tracer.job_wall[i] = elapsed
        problems = jobs_mod.check(job, out, references[i] if references else None)
        if problems:
            failures.append((job.name, problems[:3]))
    return total


def layer_metrics(tracer, wall: float) -> dict:
    inc, calls, counters = tracer.inclusive, tracer.calls, tracer.counters
    layer_self = tracer.layer_self()
    atoms, growth = tracer.largest_system
    systems = calls["models.assemble"]
    return {
        "models.kernel_s": inc["models.kernel"],
        "models.kernel_rows": counters["models.kernel_rows"],
        "prob.dists_built": calls["prob.dist"],
        "prob.dist_s": inc["prob.dist"],
        "models.assemble_s": inc["models.assemble"],
        "models.atoms": counters["models.atoms"],
        "models.rss_growth_mb": growth / 2 ** 20,
        "models.bytes_per_atom": growth / atoms if atoms else 0.0,
        "measures.density_s": inc["measures.density"],
        "measures.density_builds": calls["measures.density"],
        "measures.density_builds_per_system":
            calls["measures.density"] / systems if systems else 0.0,
        "measures.tail_evals": calls["measures.tail_eval"],
        "measures.tail_eval_s": inc["measures.tail_eval"],
        "bounds_standard.tail_s": inc["bounds_standard.tail"],
        "bounds_subset.tail_s": inc["bounds_subset.tail"],
        "bounds_standard.self_s": layer_self.get("bounds_standard", 0.0),
        "bounds_standard.calls": calls["bounds_standard.bound"],
        "bounds_subset.self_s": layer_self.get("bounds_subset", 0.0),
        "bounds_subset.calls": calls["bounds_subset.bound"],
        "verify.coverage_s": inc["verify.coverage"],
        "verify.coverage_calls": calls["verify.coverage"],
        "verify.exp_ineq_s": inc["verify.exp_ineq"],
        "verify.pushforward_s": inc["verify.pushforward"],
        "cli.self_s": tracer.self_time["cli.main"],
        "wall_s": wall,
    }


def accounting(tracer) -> tuple[float, dict]:
    """Smallest share of a job's wall time that the layers' self times
    cover, over the jobs of the pass, and the pass's self time per layer."""
    worst = 1.0
    for job, wall in tracer.job_wall.items():
        covered = sum(tracer.job_self[job].values())
        worst = min(worst, covered / wall if wall > 0 else 1.0)
    return worst, tracer.layer_self()


def write_trace(path: Path, tracer, jobs) -> None:
    with open(path, "w") as fh:
        for span_id, name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "job": jobs[job].name}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report-gibbs", "report-erm", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest problems of each job kind (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "genbounds" / "__init__.py").is_file():
        print(f"error: no genbounds package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import jobs as jobs_mod
    import tracing

    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    jobs = jobs_mod.make_jobs(args.workload, args.seed, args.tiny)
    references = load_reference(args.workload, args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    failures: list = []
    untraced: list[float] = []
    traced: list[dict] = []
    tracer = tracing.Tracer()
    try:
        jobs_mod.write_configs(jobs, workdir)
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            if args.trace:
                # Traced first, so the first traced pass runs in a fresh
                # process and its RSS growth is not hidden by memory that
                # earlier passes freed and the allocator kept.
                tracer.reset()
                hooks = tracing.Instrumentation(tracer)
                try:
                    wall = run_pass(jobs_mod, jobs, references, failures, tracer)
                finally:
                    hooks.remove()
                traced.append(layer_metrics(tracer, wall)
                              | {"_accounting": accounting(tracer)})
            untraced.append(run_pass(jobs_mod, jobs, references, failures))
            # Stop unless another round would end mostly before the deadline.
            now = time.perf_counter()
            if now + (now - started) / 2 >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(untraced) + len(traced)
    attempted = len(jobs) * passes
    info = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
            "job_names": [j.name for j in jobs], "reference": references is not None,
            "machine": machine()}
    print("# " + json.dumps(info))
    print(f"# failed_frac {len(failures) / attempted!r} share "
          f"({len(failures)} of {attempted} jobs)")
    for name, problems in failures[:10]:
        print(f"# FAILED {name}: {'; '.join(problems)}")

    if args.trace:
        metrics = {name: statistics.median(p[name] for p in traced)
                   for name in LAYER_UNITS if name != "trace.overhead_s"}
        for name in ("models.rss_growth_mb", "models.bytes_per_atom"):
            metrics[name] = traced[0][name]
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(untraced))
        units = LAYER_UNITS
        worst = min(p["_accounting"][0] for p in traced)
        print(f"# per-layer values: median of {len(traced)} traced passes "
              f"(RSS growth: first traced pass); pass wall time "
              f"{statistics.median(p['wall_s'] for p in traced):.4f} s traced, "
              f"{statistics.median(untraced):.4f} s untraced over "
              f"{len(untraced)} passes")
        print(f"# accounting: layer self times cover >= {worst:.4f} "
              f"of every traced job's wall time")
        print("# layer self time (last pass): " + json.dumps(
            {k: round(v, 4) for k, v in traced[-1]["_accounting"][1].items()}))
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                    tracer, jobs)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"# setup_s: median of {len(setup)} fresh interpreters; "
              f"wall_s: median of {len(untraced)} passes; "
              f"peak_rss_mb: 1 sample (ru_maxrss)")
    for name in units:
        print(f"# {name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
