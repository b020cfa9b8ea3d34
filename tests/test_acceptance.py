"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single pass/fail line
so the suite output doubles as a sign-off report.
"""
import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from genbounds import (
    T_INF,
    alpha_mi,
    avg_mi_bound,
    central_moment,
    cmi_avg_bound,
    cond_alpha_mi,
    cond_maximal_leakage,
    cond_renyi_divergence,
    cond_sd_leakage_bound,
    cond_sd_moment_bound,
    cond_tail_relaxations,
    expected_gen,
    expected_gen_subset,
    information_density,
    kl,
    leakage_ordering_check,
    max_information,
    maximal_leakage,
    renyi_divergence,
    sd_leakage_bound,
    sd_moment_bound,
    tail_relaxations,
)
from genbounds.prob import FiniteDistribution
from genbounds.verify import (
    STANDARD_COVERAGE_IDS,
    SUBSET_COVERAGE_IDS,
    check_exp_inequality_standard,
    check_exp_inequality_subset,
    coverage,
    gaussian_mi_validation,
    hoeffding_tail,
    random_standard_system,
    random_subset_system,
    strong_converse_check,
)

DELTAS = (0.3, 0.1, 0.05)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def random_pools():
    rng = np.random.default_rng(987654321)
    standard = [random_standard_system(rng) for _ in range(20)]
    subset = [random_subset_system(rng) for _ in range(20)]
    return standard, subset


def test_criterion_1_exponential_inequalities(inst_a, inst_b, inst_c):
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = max(check_exp_inequality_standard(inst_a),
                check_exp_inequality_standard(inst_c),
                check_exp_inequality_subset(inst_b))
    for _ in range(100):
        worst = max(worst,
                    check_exp_inequality_standard(random_standard_system(rng)),
                    check_exp_inequality_subset(random_subset_system(rng)))
    elapsed = time.monotonic() - start
    report("1 exponential inequalities (200 random instances)",
           worst <= 1.0 + 1e-9 and elapsed < 60.0)


def test_criterion_2_average_bound_soundness(inst_a, inst_b, inst_c,
                                             random_pools):
    standard, subset = random_pools
    ok = True
    for sys in [inst_a, inst_c] + standard:
        ok &= abs(expected_gen(sys)) <= avg_mi_bound(sys).epsilon + 1e-12
    for sys in [inst_b] + subset:
        ok &= abs(expected_gen_subset(sys)) <= cmi_avg_bound(sys).epsilon + 1e-12
    ok &= abs(avg_mi_bound(inst_a).epsilon - 0.37494504417941316) <= 1e-9
    ok &= abs(expected_gen(inst_a) - 0.25) <= 1e-9
    report("2 average-bound soundness + reference values", ok)


def test_criterion_3_exact_coverage(inst_a, inst_b, inst_c, random_pools):
    standard, subset = random_pools
    ok = True
    for sys in [inst_a, inst_c] + standard[:10]:
        for bound_id in STANDARD_COVERAGE_IDS:
            for delta in DELTAS:
                rep = coverage(sys, bound_id, delta)
                ok &= rep.exact_violation_prob <= delta + 1e-12
    for sys in [inst_b] + subset[:10]:
        for bound_id in SUBSET_COVERAGE_IDS:
            for delta in DELTAS:
                rep = coverage(sys, bound_id, delta)
                ok &= rep.exact_violation_prob <= delta + 1e-12
    report("3 exact coverage of every probabilistic bound", ok)


def test_criterion_4_gap_identities(inst_a, inst_b, random_pools):
    standard, subset = random_pools
    ok = True
    for sys in [inst_a] + standard[:8]:
        rate = 2.0 * sys.sigma ** 2 / sys.n
        for delta in DELTAS:
            for t in (1, 2, T_INF):
                eps_m, eps_l = tail_relaxations(sys, delta, t)
                ok &= abs(eps_m.epsilon ** 2
                          - sd_moment_bound(sys, delta, t).epsilon ** 2
                          - rate * math.log(2)) <= 1e-12
                ok &= abs(eps_l.epsilon ** 2
                          - sd_leakage_bound(sys, delta).epsilon ** 2
                          - rate * math.log(2)) <= 1e-12
    for sys in [inst_b] + subset[:8]:
        rate = 2.0 * (sys.loss.b - sys.loss.a) ** 2 / sys.n
        for delta in DELTAS:
            for t in (1, 2, T_INF):
                eps_m, eps_l = cond_tail_relaxations(sys, delta, t)
                ok &= abs(eps_m.epsilon ** 2
                          - cond_sd_moment_bound(sys, delta, t).epsilon ** 2
                          - rate * math.log(2)) <= 1e-12
                ok &= abs(eps_l.epsilon ** 2
                          - cond_sd_leakage_bound(sys, delta).epsilon ** 2
                          - rate * math.log(2)) <= 1e-12
    report("4 relaxation gap identities", ok)


def test_criterion_5_inequality_chains(inst_a, inst_b, inst_c, random_pools):
    standard, subset = random_pools
    ok = True
    for sys in [inst_a, inst_c] + standard:
        tbl = information_density(sys)
        leak, imax = maximal_leakage(sys), max_information(sys)
        ok &= leak <= imax + 1e-10
        ok &= imax <= tbl.mean + central_moment(tbl, T_INF) + 1e-10
    for sys in [inst_b] + subset:
        ok &= leakage_ordering_check(sys)["holds"]
    rep = leakage_ordering_check(inst_b)
    ok &= abs(rep["cond_maximal_leakage"] - math.log(2)) <= 1e-12
    ok &= abs(rep["induced_maximal_leakage"] - math.log(2)) <= 1e-12
    report("5 inequality chains + selector/induced leakage ordering", ok)


def test_criterion_6_limits(inst_a, inst_b, random_pools):
    standard, subset = random_pools
    ok = True
    # order -> 1: Renyi divergence approaches KL. The deviation at
    # alpha = 1 +- h is ~ h Var[log(p/q)] / 2, so pairs with a bounded
    # log-ratio make the 1e-5 tolerance meaningful rather than vacuous.
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        raw_p = rng.dirichlet(np.ones(k))
        raw_q = rng.dirichlet(np.ones(k))
        p = FiniteDistribution.from_probs(range(k), 0.5 * raw_p + 0.5 * raw_q)
        q = FiniteDistribution.from_probs(range(k), 0.25 * raw_p + 0.75 * raw_q)
        kl_val = kl(p, q)
        ok &= kl_val > 0.0
        for alpha in (1 - 1e-5, 1 + 1e-5):
            ok &= abs(renyi_divergence(p, q, alpha) - kl_val) <= 1e-5
    # order -> inf: alpha-MI approaches maximal leakage
    for sys in [inst_a] + standard[:5]:
        ok &= abs(alpha_mi(sys, 1e4) - maximal_leakage(sys)) <= 1e-3
    for sys in [inst_b] + subset[:5]:
        ok &= abs(cond_alpha_mi(sys, 1e4) - cond_maximal_leakage(sys)) <= 1e-3
        for alpha in (1.5, 2.0, 4.0, 16.0):
            ok &= cond_alpha_mi(sys, alpha) <= \
                cond_renyi_divergence(sys, alpha) + 1e-10
    report("6 order limits of the divergence family", ok)


def test_criterion_7_gaussian_validation():
    start = time.monotonic()
    rep = gaussian_mi_validation(2, 0.5, 1.0, samples=100_000, seed=0)
    elapsed = time.monotonic() - start
    report("7 Gaussian Monte Carlo validation",
           rep["within_3se"] and elapsed < 10.0)


def test_criterion_8_classical_helpers(rng):
    ok = abs(hoeffding_tail(0.5, 2, 0.5) - 2.0 * math.exp(-1)) == 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        p = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
        q = FiniteDistribution.from_probs(range(k), rng.dirichlet(np.ones(k)))
        event = set(int(i) for i in rng.integers(0, k, size=2))
        gamma = float(rng.normal(0.0, 1.5))
        ok &= strong_converse_check(p, q, event, gamma)["holds"]
    report("8 strong converse and Hoeffding helpers", ok)


def test_criterion_9_cli_determinism(tmp_path):
    problem = {
        "setting": "standard",
        "instances": [0, 1],
        "n": 2,
        "loss": {"hypotheses": [0, 1], "matrix": [[0, 1], [1, 0]],
                 "range": [0, 1]},
        "learner": {"kind": "gibbs", "beta": 2.0},
    }
    report_cfg = tmp_path / "report.json"
    report_cfg.write_text(json.dumps({"problem": problem,
                                      "deltas": [0.3, 0.1, 0.05]}))
    verify_cfg = tmp_path / "verify.json"
    verify_cfg.write_text(json.dumps({"instances": 5}))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "genbounds.cli", *args],
        capture_output=True, text=True)
    r1 = run("report", "--config", str(report_cfg), "--out", str(out1))
    r2 = run("report", "--config", str(report_cfg), "--out", str(out2))
    rv = run("verify", "--config", str(verify_cfg))
    ok = (r1.returncode == 0 and r2.returncode == 0 and rv.returncode == 0
          and out1.read_bytes() == out2.read_bytes()
          and len(list(csv.DictReader(out1.read_text().splitlines()))) == 24)
    report("9 CLI determinism and verify exit status", ok)
