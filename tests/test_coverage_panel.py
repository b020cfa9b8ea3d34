"""The verification suite checks each system's coverage panel in one pass:
every coverage id is evaluated once per delta, each violation probability
is exactly the one ``coverage`` reports, and the gap identity reads the
panel's own results instead of evaluating its pair again."""
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from genbounds import FiniteDistribution, LossTable, StandardSystem, SubsetSystem, verify
from genbounds.engine import BoundResult, view_of
from genbounds.models import gibbs_kernel
from genbounds.verify import BOUNDS, COVERAGE_TOL, coverage, coverage_ids, run_verification_suite

DELTAS = (0.3, 0.1, 0.05)
INSTANCES = 10  # random systems per setting, after the three fixtures


def _suite_panels(monkeypatch, seed: int, n_instances: int = INSTANCES) -> list:
    """(system, its calls) for each system of a suite run, in order: the
    suite's ``_violations`` is patched to record (system, covers, results,
    violations) per call. The systems are held, so no two share an ``id``."""
    calls, violations = [], verify._violations

    def recorded(view, covers, results):
        out = violations(view, covers, results)
        calls.append((view.sys, covers, list(results), out))
        return out

    monkeypatch.setattr(verify, "_violations", recorded)
    run_verification_suite(seed=seed, n_instances=n_instances, deltas=DELTAS)
    monkeypatch.setattr(verify, "_violations", violations)  # coverage() records nothing
    return [(group[0][0], group) for group in
            (list(g) for _, g in itertools.groupby(calls, key=lambda c: id(c[0])))]


def _assert_panel_is_coverage(sys, group) -> None:
    """Each call of ``group`` is one coverage id of ``sys``, in registry
    order, and each of its violations is ``==`` that of ``coverage``."""
    ids = coverage_ids(sys.setting)
    assert [covers for _, covers, _, _ in group] == [BOUNDS[k].covers for k in ids]
    for bound_id, (_, _, results, viols) in zip(ids, group):
        assert len(results) == len(viols) == len(DELTAS)
        for delta, result, viol in zip(DELTAS, results, viols):
            assert viol == coverage(sys, bound_id, delta).exact_violation_prob, (
                bound_id, delta)
            if isinstance(result, BoundResult) and not result.feasible:
                assert viol == 1.0


@pytest.mark.parametrize("seed", [0, 1])
def test_the_suite_violations_equal_coverage(monkeypatch, seed):
    panels = _suite_panels(monkeypatch, seed)
    settings = Counter(sys.setting for sys, _ in panels)
    assert settings == {"standard": 2 + INSTANCES, "subset": 1 + INSTANCES}
    for sys, group in panels:
        _assert_panel_is_coverage(sys, group)


def _on_an_atom(sys) -> tuple[float, float]:
    """The second largest |value| of the positive-mass atoms (so some mass
    lies above it), and the mass of the atoms at that |value|."""
    view = view_of(sys)
    values, joint = np.abs(view.values).ravel(), view.joint.ravel()
    charged = values[joint > 0.0]
    eps = float(np.sort(np.unique(charged))[-2])
    return eps, float(joint[values == eps].sum())


def test_an_epsilon_on_an_atom_and_an_infeasible_bound(monkeypatch):
    """sd_leakage replaced in the registry, which the suite and ``coverage``
    both read: infeasible at delta 0.3 (violation exactly 1.0), on the
    |value| of an atom at 0.1 (the atom is covered), and 2 tolerances below
    it at 0.05 (the atom is not)."""
    def evaluate(sys, delta, t, alpha, gamma):
        eps, _ = _on_an_atom(sys)
        if delta == 0.3:
            return BoundResult(math.inf, "single-draw", "data-independent", feasible=False,
                               reason="injected")
        return BoundResult(eps if delta == 0.1 else eps - 2 * COVERAGE_TOL, "single-draw",
                           "data-independent")

    monkeypatch.setitem(BOUNDS, "sd_leakage", BOUNDS["sd_leakage"]._replace(evaluate=evaluate))
    panels = _suite_panels(monkeypatch, 0, n_instances=2)
    assert len(panels) == 3 + 2 * 2
    leakage = coverage_ids("standard").index("sd_leakage")
    for sys, group in panels:
        _assert_panel_is_coverage(sys, group)
        if sys.setting != "standard":
            continue
        infeasible, on, below = group[leakage][3]
        _, mass = _on_an_atom(sys)
        assert infeasible == 1.0 and on < below == pytest.approx(on + mass, abs=1e-15)


def _overflowing_system(cls):
    """A Gibbs system whose loss range is so wide that sigma^2 and the
    range constant overflow: every data-independent bound is infeasible."""
    loss = LossTable((0, 1, 2), (0, 1), np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.25]]),
                     0.0, 1e160)
    pz = FiniteDistribution.from_probs(loss.instances, [0.4, 0.6])
    return cls(pz, 2, gibbs_kernel(loss, 2, 1.5), loss)


@pytest.mark.parametrize("cls", [StandardSystem, SubsetSystem])
def test_an_infeasible_panel_violates_with_probability_one(cls):
    sys = _overflowing_system(cls)
    viols, _ = verify._coverage_panel(sys, DELTAS, ())
    for bound_id, by_delta in viols.items():
        for delta, viol in zip(DELTAS, by_delta):
            assert viol == coverage(sys, bound_id, delta).exact_violation_prob
            if not BOUNDS[bound_id].data_dependent:
                result = BOUNDS[bound_id].evaluate(sys, delta, 2, 2.0, "auto")
                assert not result.feasible and viol == 1.0, (bound_id, delta)


@pytest.mark.parametrize("deltas", [DELTAS, (0.2,)])
def test_each_suite_system_evaluates_each_bound_once_per_delta(monkeypatch, deltas):
    """The gap identity reads the panel's results: each system evaluates
    exactly len(coverage ids) x len(deltas) registry entries."""
    calls = []

    def counted(bound_id, evaluate):
        def tracked(sys, delta, t, alpha, gamma):
            calls.append((sys, bound_id, delta))  # held: ids stay distinct
            return evaluate(sys, delta, t, alpha, gamma)
        return tracked

    for bound_id, entry in BOUNDS.items():
        monkeypatch.setitem(BOUNDS, bound_id, entry._replace(
            evaluate=counted(bound_id, entry.evaluate)))
    run_verification_suite(seed=2, n_instances=3, deltas=deltas)
    systems = 0
    for _, group in itertools.groupby(calls, key=lambda c: id(c[0])):
        group = list(group)
        systems += 1
        ids = coverage_ids(group[0][0].setting)
        assert len(group) == len(ids) * len(deltas)
        assert Counter((k, d) for _, k, d in group) == {
            (k, d): 1 for k in ids for d in deltas}
    assert systems == 3 + 2 * 3
