"""Ground-truth engine: exact gen/gap distributions, exact coverage of every
probabilistic bound, exponential-inequality checks, a strong-converse check,
the Hoeffding tail helper, and a Gaussian closed-form validation of the
information-density machinery.

Everything except the Gaussian Monte Carlo run is computed by exact
summation over the finite joint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import bounds_standard as bstd
from . import bounds_subset as bsub
from .engine import BoundResult, _View, view_of
from .measures import density
from .models import (
    LossTable,
    StandardSystem,
    SubsetSystem,
    assemble_standard,
    assemble_subset,
    gibbs_kernel,
    load_fixture,
)
from .prob import NEG_INF, FiniteDistribution, logsumexp

COVERAGE_TOL = 1e-12
EXP_INEQ_TOL = 1e-9

DEFAULT_LAMBDA_SCALES = (0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0)


@dataclass(frozen=True)
class CoverageReport:
    """Exact failure probability of a probabilistic bound at level delta."""

    bound_id: str
    delta: float
    exact_violation_prob: float
    holds: bool

    def __post_init__(self):
        expected = self.exact_violation_prob <= self.delta + COVERAGE_TOL
        if self.holds != expected:
            raise ValueError("holds flag inconsistent with violation probability")


# -- exponential inequalities ----------------------------------------------


def _exp_inequality(view: _View, variance: float,
                    lambda_grid: Sequence[float] | None) -> float:
    """max over lambda of E_base[exp(lambda value - lambda^2 variance/(2n))]
    over the density's support, i.e. E[exp(lambda value - ... - iota)]."""
    n = view.sys.n
    if lambda_grid is None:
        grid = np.asarray(DEFAULT_LAMBDA_SCALES) * (n / variance)
    else:
        grid = np.asarray(lambda_grid, dtype=float)
    sup = view.iota > NEG_INF
    base, values = view.log_base[sup], view.values[sup]
    worst = -math.inf
    for lam in grid:
        terms = base + lam * values - lam ** 2 * variance / (2.0 * n)
        worst = max(worst, float(math.exp(logsumexp(terms))))
    return worst


def check_exp_inequality_standard(sys: StandardSystem,
                                  lambda_grid: Sequence[float] | None = None,
                                  sigma: float | None = None) -> float:
    """max over lambda of E[exp(lambda gen - lambda^2 sigma^2/(2n) - iota)].

    Must be <= 1 for every lambda; returns the worst grid value. Passing an
    understated sigma exposes the inequality's sensitivity to the
    sub-Gaussian assumption.
    """
    sigma = sys.sigma if sigma is None else float(sigma)
    return _exp_inequality(view_of(sys), sigma ** 2, lambda_grid)


def check_exp_inequality_subset(sys: SubsetSystem,
                                lambda_grid: Sequence[float] | None = None,
                                c: float | None = None) -> float:
    """Subset analog with the test-minus-train gap and the range constant."""
    view = view_of(sys)
    return _exp_inequality(view, view.variance if c is None else float(c), lambda_grid)


# -- exact pushforward distributions ---------------------------------------


def _pushforward(values: np.ndarray, masses: np.ndarray) -> FiniteDistribution:
    """The distribution of ``values`` rounded to 12 places under ``masses``.
    Only the distinct values are rounded in Python; each rounded value keeps
    the key its first atom gives it and sums its masses in atom order."""
    masses = masses.ravel()
    keep = masses > 0.0
    distinct, first, inverse = np.unique(values.ravel()[keep], return_index=True,
                                         return_inverse=True)
    keys = [round(v, 12) for v in distinct.tolist()]
    group: dict[float, int] = {}
    for i in np.argsort(first).tolist():
        group.setdefault(keys[i], len(group))
    sums = np.bincount(np.array([group[k] for k in keys], dtype=np.intp)[inverse],
                       weights=masses[keep], minlength=len(group))
    labels = sorted(group)
    return FiniteDistribution(labels, np.log(sums[[group[k] for k in labels]]))


def exact_gen_distribution(sys: StandardSystem) -> FiniteDistribution:
    """Exact pushforward of the joint through the generalization error."""
    return _pushforward(sys.gen_table.T, sys.joint)


def exact_gen_hat_distribution(sys: SubsetSystem) -> FiniteDistribution:
    """Exact pushforward of the joint through the test-minus-train gap."""
    return _pushforward(sys.genhat, sys.joint)


def _first_reaching(pairs: Iterable[tuple[float, float]], q: float) -> float:
    """The first value, in ascending order, at which the cumulative mass reaches q."""
    acc = 0.0
    for v, m in pairs:
        acc += m
        if acc >= q - 1e-12:
            return v
    return v


def quantile(dist: FiniteDistribution, q: float) -> float:
    """Smallest value v with P[X <= v] >= q (values sorted ascending)."""
    return _first_reaching(sorted((float(o), m) for o, m in zip(dist.outcomes, dist.mass)), q)


def abs_quantile(dist: FiniteDistribution, q: float) -> float:
    """Quantile of |X| for a pushforward distribution."""
    groups: dict[float, float] = {}
    for o, m in zip(dist.outcomes, dist.mass):
        key = round(abs(float(o)), 12)
        groups[key] = groups.get(key, 0.0) + float(m)
    return _first_reaching(sorted(groups.items()), q)


# -- the bound registry and exact coverage -----------------------------------


class Bound(NamedTuple):
    """A registry entry.

    ``evaluate(sys, delta, t, alpha, gamma)`` returns a BoundResult, or for
    a data-dependent bound its epsilon at every posterior or atom (NaN
    where infeasible). ``covers`` names what ``coverage`` compares epsilon
    with: "posterior" the posterior mean of the bounded value, "atom" the
    bounded value at each joint atom, "gen" the ordinary generalization
    error at each joint atom, and None marks an average bound, which has no
    coverage.
    """

    setting: str  # standard | subset
    evaluate: Callable[..., Any]
    covers: str | None
    data_dependent: bool = False


def _pointwise(terms: str) -> Callable[..., np.ndarray]:
    def evaluate(sys, delta, t, alpha, gamma):
        view = view_of(sys)
        return view.epsilons(view.info(getattr(view, terms), delta))
    return evaluate


# Ordered: the report panel and the coverage ids follow this order.
BOUNDS: dict[str, Bound] = {
    "avg": Bound("standard", lambda s, d, t, a, g: bstd.avg_mi_bound(s), None),
    "pacb": Bound("standard", _pointwise("kls"), "posterior", True),
    "pacb_moment": Bound(
        "standard", lambda s, d, t, a, g: bstd.pacb_moment_bound(s, d, t), "posterior"),
    "sd_density": Bound("standard", _pointwise("iota"), "atom", True),
    "sd_moment": Bound(
        "standard", lambda s, d, t, a, g: bstd.sd_moment_bound(s, d, t), "atom"),
    "sd_leakage": Bound(
        "standard", lambda s, d, t, a, g: bstd.sd_leakage_bound(s, d), "atom"),
    "sd_renyi": Bound(
        "standard", lambda s, d, t, a, g: bstd.sd_renyi_bound(s, d, a), "atom"),
    "sd_tail": Bound(
        "standard", lambda s, d, t, a, g: bstd.sd_tail_bound(s, d, g), "atom"),
    "tail_relax_moment": Bound(
        "standard", lambda s, d, t, a, g: bstd.sd_moment_bound(s, d, t, relaxed=True),
        "atom"),
    "tail_relax_leakage": Bound(
        "standard", lambda s, d, t, a, g: bstd.sd_leakage_bound(s, d, relaxed=True),
        "atom"),
    "cmi": Bound("subset", lambda s, d, t, a, g: bsub.cmi_avg_bound(s), None),
    "cond_pacb": Bound("subset", _pointwise("kls"), "posterior", True),
    "cond_pacb_moment": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_pacb_moment_bound(s, d, t), "posterior"),
    "cond_sd_density": Bound("subset", _pointwise("iota"), "atom", True),
    "cond_sd_moment": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_sd_moment_bound(s, d, t), "atom"),
    "cond_sd_leakage": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_sd_leakage_bound(s, d), "atom"),
    "cond_sd_renyi": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_sd_renyi_pair_bound(s, d, a), "atom"),
    "cond_tail": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_tail_bound(s, d, g), "atom"),
    "cond_tail_relax_moment": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_sd_moment_bound(s, d, t, relaxed=True),
        "atom"),
    "cond_tail_relax_leakage": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_sd_leakage_bound(s, d, relaxed=True),
        "atom"),
    "cond_alpha_mi": Bound(
        "subset", lambda s, d, t, a, g: bsub.cond_alpha_mi_bound(s, d, a), "atom"),
    "genhat_to_gen": Bound("subset", lambda s, d, t, a, g: bsub.genhat_to_gen(
        lambda half: bsub.cond_sd_moment_bound(s, half, t).epsilon, s.loss, s.n, d),
        "gen"),
}


def panel_ids(setting: str) -> tuple:
    """The data-independent bounds of ``setting``, in registry order."""
    return tuple(k for k, b in BOUNDS.items()
                 if b.setting == setting and not b.data_dependent)


def coverage_ids(setting: str) -> tuple:
    """The bounds of ``setting`` that ``coverage`` evaluates, in registry order."""
    return tuple(k for k, b in BOUNDS.items()
                 if b.setting == setting and b.covers is not None)


STANDARD_COVERAGE_IDS = coverage_ids("standard")
SUBSET_COVERAGE_IDS = coverage_ids("subset")


def coverage(sys: StandardSystem | SubsetSystem, bound_id: str, delta: float,
             params: Mapping[str, Any] | None = None) -> CoverageReport:
    """Exact probability that the named bound fails at level delta.

    Infeasible outcomes of data-dependent bounds count as violations; a
    data-independent bound that is infeasible outright has violation
    probability 1.
    """
    entry = BOUNDS.get(bound_id)
    if entry is None or entry.setting != sys.setting or entry.covers is None:
        raise KeyError(f"unknown bound id {bound_id!r} for a {sys.setting} system")
    params = dict(params or {})
    eps = entry.evaluate(sys, delta, params.get("t", 2), params.get("alpha", 2.0),
                         params.get("gamma", "auto"))
    viol = _violation(view_of(sys), entry.covers, eps)
    return CoverageReport(bound_id, delta, viol, viol <= delta + COVERAGE_TOL)


def _violation(view: _View, covers: str, eps: BoundResult | np.ndarray) -> float:
    """Exact mass of the posteriors or atoms where epsilon (a constant, or
    one per posterior or atom) fails to bound the absolute value."""
    if isinstance(eps, BoundResult):
        if not eps.feasible:
            return 1.0
        eps = eps.epsilon
    abs_values = view.memoised(("abs", covers), lambda: np.abs(
        np.sum(view.cond * view.values, axis=-1) if covers == "posterior"
        else view.gen if covers == "gen" else view.values))
    mass = view.mass if covers == "posterior" else view.joint
    return float(np.sum(mass[~(abs_values <= eps + COVERAGE_TOL)]))


# -- classical helpers ------------------------------------------------------


def strong_converse_check(p: FiniteDistribution, q: FiniteDistribution,
                          event: Iterable[Any] | Callable[[Any], bool],
                          gamma: float) -> dict:
    """P[E] <= P[log(dP/dQ) > gamma] + e^gamma Q[E], evaluated exactly."""
    member = event if callable(event) else set(event).__contains__
    p_event = sum(math.exp(lm) for o, lm in zip(p.outcomes, p.log_mass)
                  if lm > NEG_INF and member(o))
    q_event = sum(math.exp(lm) for o, lm in zip(q.outcomes, q.log_mass)
                  if lm > NEG_INF and member(o))
    tbl = density(p, q)
    tail = sum((math.exp(lp) for lp, i in zip(tbl.log_p, tbl.iota) if i > gamma), 0.0)
    rhs = tail + math.exp(gamma) * q_event
    return {"p_event": p_event, "density_tail": tail, "q_event": q_event,
            "rhs": rhs, "holds": p_event <= rhs + COVERAGE_TOL}


def hoeffding_tail(sigma: float, n: int, eps: float) -> float:
    """Two-sided Hoeffding tail 2 exp(-n eps^2 / (2 sigma^2))."""
    if sigma <= 0 or n < 1 or eps < 0:
        raise ValueError("require sigma > 0, n >= 1, eps >= 0")
    return 2.0 * math.exp(-n * eps ** 2 / (2.0 * sigma ** 2))


def gaussian_mi_validation(n: int, noise_var: float, prior_var: float,
                           samples: int = 100_000, seed: int = 0) -> dict:
    """Monte Carlo check of the density machinery against a Gaussian closed
    form: W = mean of n iid N(0, prior_var) draws plus N(0, noise_var) noise,
    for which I(W; Z) = (1/2) log(1 + prior_var / (n noise_var))."""
    if noise_var <= 0 or prior_var <= 0:
        raise ValueError("variances must be positive")
    closed = 0.5 * math.log(1.0 + prior_var / (n * noise_var))
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, math.sqrt(prior_var), size=(samples, n))
    w = z.mean(axis=1) + rng.normal(0.0, math.sqrt(noise_var), size=samples)
    marg_var = prior_var / n + noise_var
    # iota = log N(w; mean(z), noise_var) - log N(w; 0, marg_var)
    iota = (-0.5 * math.log(noise_var) - (w - z.mean(axis=1)) ** 2 / (2 * noise_var)
            + 0.5 * math.log(marg_var) + w ** 2 / (2 * marg_var))
    estimate = float(iota.mean())
    std_error = float(iota.std(ddof=1) / math.sqrt(samples))
    return {
        "closed_form": closed,
        "mc_estimate": estimate,
        "std_error": std_error,
        "within_3se": abs(estimate - closed) <= 3.0 * std_error,
    }


# -- randomized instances ---------------------------------------------------


def _random_loss_and_learner(rng: np.random.Generator, n: int):
    n_z = int(rng.integers(2, 4))
    n_w = int(rng.integers(2, 5))
    values = rng.uniform(0.0, 1.0, size=(n_w, n_z))
    loss = LossTable(tuple(range(n_w)), tuple(range(n_z)), values, 0.0, 1.0)
    pz = FiniteDistribution.from_probs(loss.instances,
                                       rng.dirichlet(np.ones(n_z)))
    beta = float(rng.uniform(0.0, 8.0))
    return pz, loss, gibbs_kernel(loss, n, beta)


def random_standard_system(rng: np.random.Generator) -> StandardSystem:
    """A small Gibbs-learner instance: |Z| in {2,3}, |W| in {2,3,4}, n in {1,2,3}."""
    n = int(rng.integers(1, 4))
    pz, loss, learner = _random_loss_and_learner(rng, n)
    return assemble_standard(pz, n, learner, loss)


def random_subset_system(rng: np.random.Generator) -> SubsetSystem:
    """Subset analog of random_standard_system."""
    n = int(rng.integers(1, 4))
    pz, loss, learner = _random_loss_and_learner(rng, n)
    return assemble_subset(pz, n, learner, loss)


# -- suite runner -----------------------------------------------------------


def run_verification_suite(seed: int = 0, n_instances: int = 50,
                           deltas: Sequence[float] = (0.3, 0.1, 0.05),
                           sigma_scale: float = 1.0) -> dict:
    """Run the exponential-inequality, coverage, chain, ordering, and
    gap-identity suites; returns pass/fail with a failure list.

    ``sigma_scale`` rescales the sub-Gaussian parameter in the exponential
    checks (values below 1 inject a deliberate fault).
    """
    # per setting: exponential check, ordering check, (relaxed, direct) moment bounds
    suites = {
        "standard": (
            lambda sys: check_exp_inequality_standard(sys, sigma=sys.sigma * sigma_scale),
            ("chain", lambda sys: bstd.chain_report(sys, 0.5)["holds"]),  # any delta
            ("tail_relax_moment", "sd_moment")),
        "subset": (
            lambda sys: check_exp_inequality_subset(
                sys, c=bsub.range_constant(sys.loss).value * sigma_scale ** 2),
            ("leakage ordering", lambda sys: bsub.leakage_ordering_check(sys)["holds"]),
            ("cond_tail_relax_moment", "cond_sd_moment")),
    }

    def systems():
        """Each system with its index in its setting, drawn only when needed."""
        for name, i in (("inst_a", 0), ("inst_c", 1), ("inst_b", 0)):
            yield load_fixture(name)[1], i
        rng = np.random.default_rng(seed)
        for i in range(n_instances):
            yield random_standard_system(rng), i + 2
            yield random_subset_system(rng), i + 1

    # Each system is checked when drawn, then let go; standard failures list first.
    failures: dict[str, list[str]] = {"standard": [], "subset": []}
    checks = 0
    for sys, i in systems():
        exp_check, (order_name, order_holds), pair = suites[sys.setting]
        name, found = f"{sys.setting}[{i}]", failures[sys.setting]
        checks += 2
        worst = exp_check(sys)
        if worst > 1.0 + EXP_INEQ_TOL:
            found.append(f"exp-inequality {name}: worst={worst:.6g}")
        if not order_holds(sys):
            found.append(f"{order_name} violated on {name}")
        rate, ids = view_of(sys).rate, coverage_ids(sys.setting)
        for delta in deltas:
            relaxed, direct = (BOUNDS[k].evaluate(sys, delta, 2, 2.0, "auto")
                               for k in pair)
            checks += 1
            if abs(relaxed.epsilon ** 2 - direct.epsilon ** 2
                   - rate * math.log(2.0)) > 1e-12:
                found.append(f"gap identity violated on {name} delta={delta}")
            for bound_id in ids:
                checks += 1
                rep = coverage(sys, bound_id, delta)
                if not rep.holds:
                    found.append(f"coverage {bound_id} {name} delta={delta}: "
                                 f"viol={rep.exact_violation_prob:.6g}")
        del sys  # before the next one is drawn
    listed = failures["standard"] + failures["subset"]
    return {"passed": not listed, "checks": checks, "failures": listed,
            "seed": seed}

