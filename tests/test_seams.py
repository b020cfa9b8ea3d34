"""The entry points that the benchmark's tracer (``bench/tracing.py``) wraps
from outside the package exist where it looks them up and lie on the call
path: a refactor that moves one fails here, not only in a traced benchmark
run. Each wrapper is installed as the tracer installs it."""
import inspect
import itertools
import json
from collections import Counter

import pytest

from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds import cli, load_fixture, measures, models, prob, verify
from genbounds.measures import DensityTable
from genbounds.models import StandardSystem, SubsetSystem
from genbounds.prob import FiniteDistribution
from genbounds.verify import BOUNDS
from test_cli import STANDARD_PROBLEM, SUBSET_PROBLEM


def _wrap(monkeypatch, owner, attr, calls, original=None):
    """Replace ``owner.attr`` by a wrapper that counts its calls in ``calls``."""
    original = original or getattr(owner, attr)

    def traced(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, traced)


def test_every_wrapped_function_exists():
    for module, names in (
            (cli, ["main"]),
            (models, ["load_problem", "gibbs_kernel", "erm_kernel", "constant_kernel",
                      "identity_kernel"]),
            (prob, ["iid_power"]),
            (measures, ["information_density", "conditional_density"]),
            (verify, ["coverage", "check_exp_inequality_standard",
                      "check_exp_inequality_subset", "exact_gen_distribution",
                      "exact_gen_hat_distribution", "quantile", "abs_quantile",
                      "run_verification_suite"])):
        for name in names:
            assert inspect.isfunction(getattr(module, name)), (module.__name__, name)
    # the views call the density functions by the names the tracer patches there
    assert bstd.information_density is measures.information_density
    assert bsub.conditional_density is measures.conditional_density


@pytest.mark.parametrize("owner, attr, build", [
    (FiniteDistribution, "__init__", lambda: load_fixture("inst_a")),
    (StandardSystem, "__post_init__", lambda: load_fixture("inst_a")),
    (SubsetSystem, "__post_init__", lambda: load_fixture("inst_b")),
    (DensityTable, "tail_probability",
     lambda: bstd.sd_tail_bound(load_fixture("inst_a")[1], 0.1)),
    (DensityTable, "tail_probability",
     lambda: bsub.cond_tail_bound(load_fixture("inst_b")[1], 0.1)),
])
def test_class_entry_points_are_wrapped_through_the_class_dict(monkeypatch, owner,
                                                                attr, build):
    calls = Counter()
    _wrap(monkeypatch, owner, attr, calls, original=vars(owner)[attr])
    build()
    assert calls[attr] >= 1


def test_systems_have_atoms_when_assembled(monkeypatch):
    atoms = []
    for owner in (StandardSystem, SubsetSystem):
        post_init = vars(owner)["__post_init__"]
        monkeypatch.setattr(owner, "__post_init__",
                            lambda s, _f=post_init: _f(s) or atoms.append(s.cond.size))
    std, sub = load_fixture("inst_a")[1], load_fixture("inst_b")[1]
    assert atoms == [std.cond.size, sub.cond.size]


@pytest.mark.parametrize("module, bound, fixture", [
    (bstd, bstd.sd_tail_bound, "inst_a"),
    (bsub, bsub.cond_tail_bound, "inst_b"),
])
def test_the_tail_scan_is_looked_up_in_the_bound_module(monkeypatch, module, bound,
                                                        fixture):
    assert bstd._tail_bound_from_table is bsub._tail_bound_from_table
    calls = Counter()
    _wrap(monkeypatch, module, "_tail_bound_from_table", calls)
    bound(load_fixture(fixture)[1], 0.1)
    assert calls == {"_tail_bound_from_table": 1}


def test_every_kernel_kind_gives_its_row_count():
    loss = load_fixture("inst_a")[1].loss  # two instances
    # a type learner has one row per type of the 2^3 vectors: the distinct codes
    types = len({models.gibbs_kernel(loss, 3, 1.0).grid.code(v)
                 for v in itertools.product(loss.instances, repeat=3)})
    for kernel, rows in ((models.gibbs_kernel(loss, 3, 1.0), types),
                         (models.erm_kernel(loss, 3), types),
                         (models.constant_kernel(loss, 3), types),
                         (models.identity_kernel(loss), 2)):
        assert len(kernel.rows) == rows
    assert types == 4


@pytest.mark.parametrize("bound_id", [k for k, b in BOUNDS.items() if not b.data_dependent])
def test_a_panel_entry_calls_a_public_function_of_its_bound_module(monkeypatch,
                                                                   bound_id):
    # the entry looks the function up when called, so a patched one is seen
    entry = BOUNDS[bound_id]
    module = bstd if entry.setting == "standard" else bsub
    calls = Counter()
    for name, fn in list(vars(module).items()):
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not name.startswith("_")):
            _wrap(monkeypatch, module, name, calls)
    sys = load_fixture("inst_a" if entry.setting == "standard" else "inst_b")[1]
    entry.evaluate(sys, 0.1, 2, 2.0, "auto")
    assert sum(calls.values()) >= 1


@pytest.mark.parametrize("problem", [STANDARD_PROBLEM, SUBSET_PROBLEM])
def test_a_report_reads_its_quantiles_through_the_wrapped_functions(monkeypatch, tmp_path,
                                                                    problem):
    # the tracer's verify.pushforward layer wraps abs_quantile, inside which
    # the first call builds the law that the other two read
    calls = Counter()
    for attr in ("_pushforward", "abs_quantile"):
        _wrap(monkeypatch, verify, attr, calls)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": problem, "deltas": [0.3, 0.1, 0.05]}))
    assert cli.main(["report", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
    assert calls == {"_pushforward": 1, "abs_quantile": 3}
