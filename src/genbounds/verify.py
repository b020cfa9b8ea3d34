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
from .engine import BoundResult, _View, _square, view_of
from .measures import density
from .models import (
    LossTable,
    StandardSystem,
    SubsetSystem,
    _integral,
    _number,
    expected_gen,
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
        if self.holds != (self.exact_violation_prob <= self.delta + COVERAGE_TOL):
            raise ValueError("holds flag inconsistent with violation probability")


# -- exponential inequalities ----------------------------------------------


_EXP_BLOCK = 1 << 18  # (lambda, support) terms reduced per logsumexp pass
_SCALE_MAX = 1e150  # below it every default lambda^2 is a finite float


def _exp_inequality(view: _View, name: str, variance: float,
                    lambda_grid: Sequence[float] | None) -> float:
    """max over lambda of E_base[exp(lambda value - lambda^2 variance/(2n))]
    over the density's support, i.e. E[exp(lambda value - ... - iota)].

    The variance, called ``name`` in errors, must be finite and positive,
    and the scale n / variance of the default grid at most ``_SCALE_MAX``;
    an explicit grid's lambda^2 variance / (2n) must be finite. Beyond them
    lambda^2 overflows and the check would read "holds". A row whose value
    exceeds the largest float reads inf: violated.

    The (lambda, support) terms of a block of lambda rows (at most
    ``_EXP_BLOCK`` terms, and at least one row) are reduced by one
    ``logsumexp`` along the support, and each row's value is read in lambda
    order: the same values, bit for bit, as one ``logsumexp`` per lambda.
    The terms are built in place and ``logsumexp`` copies them once, so a
    block holds two arrays of at most ``_EXP_BLOCK`` floats.
    """
    n, variance = view.sys.n, _positive(name, variance)
    if lambda_grid is None:
        scale = n / variance
        if not scale <= _SCALE_MAX:
            raise ValueError(f"n / {name} must be at most {_SCALE_MAX:g}, got {scale!r}")
        grid = np.asarray(DEFAULT_LAMBDA_SCALES) * scale
    else:
        grid = np.asarray(lambda_grid, dtype=float)
        if grid.ndim != 1 or not grid.size or not np.isfinite(grid).all():
            raise ValueError("lambda_grid must be a non-empty sequence of finite "
                             f"numbers, got {lambda_grid!r}")
        with np.errstate(over="ignore"):  # the largest penalty, formed as in the loop
            if not np.isfinite(np.abs(grid).max() ** 2 * variance / (2.0 * n)):
                raise ValueError(f"lambda_grid must keep lambda^2 {name} / (2n) finite, "
                                 f"got {lambda_grid!r}")
    sup = view.iota > NEG_INF
    base, values = view.log_base[sup], view.values[sup]
    rows = max(1, _EXP_BLOCK // base.size)
    worst = -math.inf
    for start in range(0, grid.size, rows):
        lams = grid[start:start + rows]
        penalty = np.array([lam ** 2 * variance / (2.0 * n) for lam in lams])
        terms = lams[:, None] * values
        terms += base
        terms -= penalty[:, None]
        for total in logsumexp(terms, axis=1).tolist():
            try:
                worst = max(worst, math.exp(total))
            except OverflowError:  # beyond the largest float
                return math.inf
    return worst


def _positive(name: str, value: float) -> float:
    """``value``, if a finite and positive number; else a ValueError naming ``name``."""
    if isinstance(value, str) or not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def check_exp_inequality_standard(sys: StandardSystem,
                                  lambda_grid: Sequence[float] | None = None,
                                  sigma: float | None = None) -> float:
    """max over lambda of E[exp(lambda gen - lambda^2 sigma^2/(2n) - iota)].

    Must be <= 1 for every lambda; returns the worst grid value. Passing an
    understated sigma exposes the inequality's sensitivity to the
    sub-Gaussian assumption. The grid must be non-empty and finite, and
    sigma finite and positive, with a finite, positive float square.
    """
    sigma = _positive("sigma", sys.sigma if sigma is None else float(sigma))
    # an overflowing square is refused as an infinite variance
    return _exp_inequality(view_of(sys), "sigma ** 2", _square(sigma), lambda_grid)


def check_exp_inequality_subset(sys: SubsetSystem,
                                lambda_grid: Sequence[float] | None = None,
                                c: float | None = None) -> float:
    """Subset analog with the test-minus-train gap and the range constant
    (c, finite and positive)."""
    view = view_of(sys)
    return _exp_inequality(view, "c", view.variance if c is None else float(c), lambda_grid)


# -- exact pushforward distributions ---------------------------------------


def _round12(x: np.ndarray) -> np.ndarray:
    """Python's ``round(v, 12)`` of each v in ``x``. ``np.rint(v * 1e12) /
    1e12`` divides an exact integer by 1e12, which rounds correctly, so only
    the rint can differ: Python rounds each v whose float product v * 1e12
    (off by at most half an ulp) lies within an ulp of a half, which takes
    in every product too large for an exact integer."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * 1e12
        unsure = ~(np.abs(np.abs(scaled) % 1.0 - 0.5) > np.spacing(np.abs(scaled)))
    keys = np.rint(scaled) / 1e12
    keys[unsure] = [round(v, 12) for v in x[unsure].tolist()]
    return keys


def _pushforward(values: np.ndarray, masses: np.ndarray) -> tuple:
    """The law of ``values`` rounded to 12 places under ``masses``: the
    ascending keys, each with its atoms' positive masses summed in atom
    order. A zero key keeps the sign its first atom gives it."""
    keep = masses.ravel() > 0.0
    distinct, first, inverse = np.unique(values.ravel()[keep], return_index=True,
                                         return_inverse=True)
    keys = _round12(distinct)  # ascending: rounding is monotone
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    labels, zero = keys[new], keys == 0.0
    if zero.any():
        labels[labels == 0.0] = keys[zero][np.argmin(first[zero])]
    return labels, np.bincount((np.cumsum(new) - 1)[inverse], weights=masses.ravel()[keep])


def _law(sys) -> tuple:
    """The ``_pushforward`` of the value ``sys`` bounds, kept in its default view."""
    view = view_of(sys)
    return view.memoised(("law",), lambda: _pushforward(view.values, view.joint))


def exact_gen_distribution(sys: StandardSystem | SubsetSystem) -> FiniteDistribution:
    """Exact pushforward of the joint through the value ``sys`` bounds: the
    generalization error, or the test-minus-train gap of a subset system."""
    keys, masses = _law(sys)
    return FiniteDistribution(keys.tolist(), np.log(masses))


exact_gen_hat_distribution = exact_gen_distribution  # the subset setting's name


def _quantile(sys, q: float, absolute: bool) -> float:
    """The first key (or |key|) of the law of ``sys``, ascending, whose
    cumulative mass reaches q - 1e-12, else the last. The masses are those
    of ``exact_gen_distribution``; the |key| side sums those of -x and x first."""
    if math.isnan(q):
        raise ValueError(f"q must be a number, got {q!r}")

    def cumulative():
        keys, masses = _law(sys)
        masses = np.exp(np.log(masses))
        if absolute:
            keys, inverse = np.unique(np.abs(keys), return_inverse=True)
            masses = np.bincount(inverse, weights=masses)
        return keys, np.cumsum(masses)

    keys, cum = view_of(sys).memoised(("cumulative", absolute), cumulative)
    return float(keys[min(int(np.searchsorted(cum, q - 1e-12)), len(keys) - 1)])


def quantile(sys: StandardSystem | SubsetSystem, q: float) -> float:
    """Smallest v with P[X <= v] >= q, X the value ``sys`` bounds."""
    return _quantile(sys, q, False)


def abs_quantile(sys: StandardSystem | SubsetSystem, q: float) -> float:
    """Smallest v with P[|X| <= v] >= q, X the value ``sys`` bounds."""
    return _quantile(sys, q, True)


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
    probability 1. ``params`` may set ``t``, ``alpha`` and ``gamma``
    (default 2, 2.0 and "auto"); any other key is refused by name.
    """
    entry = BOUNDS.get(bound_id)
    if entry is None or entry.setting != sys.setting or entry.covers is None:
        raise KeyError(f"unknown bound id {bound_id!r} for a {sys.setting} system")
    params = dict(params or {})
    unknown = [k for k in params if k not in ("t", "alpha", "gamma")]
    if unknown:
        raise ValueError(f"unknown coverage parameters {unknown!r}: "
                         "expected 't', 'alpha' or 'gamma'")
    eps = entry.evaluate(sys, delta, params.get("t", 2), params.get("alpha", 2.0),
                         params.get("gamma", "auto"))
    (viol,) = _violations(view_of(sys), entry.covers, [eps])
    return CoverageReport(bound_id, delta, viol, viol <= delta + COVERAGE_TOL)


def _violations(view: _View, covers: str,
                results: Sequence[BoundResult | np.ndarray]) -> list[float]:
    """For each of ``results``, the exact mass of the posteriors or atoms
    where its epsilon (a constant, or one per posterior or atom) fails to
    bound the absolute value; an infeasible result fails everywhere (1.0).
    Every result is compared with the one memoised |value| array."""
    abs_values = view.memoised(("abs", covers), lambda: np.abs(
        (view.cond * view.values).sum(axis=-1) if covers == "posterior"
        else view.gen if covers == "gen" else view.values))
    mass = view.mass if covers == "posterior" else view.joint

    def violation(eps: BoundResult | np.ndarray) -> float:
        if isinstance(eps, BoundResult):
            if not eps.feasible:
                return 1.0
            eps = eps.epsilon
        return float(mass[~(abs_values <= eps + COVERAGE_TOL)].sum())

    return [violation(eps) for eps in results]


# -- classical helpers ------------------------------------------------------


def strong_converse_check(p: FiniteDistribution, q: FiniteDistribution,
                          event: Iterable[Any] | Callable[[Any], bool],
                          gamma: float) -> dict:
    """P[E] <= P[log(dP/dQ) > gamma] + e^gamma Q[E], evaluated exactly; where
    e^gamma overflows, e^gamma Q[E] is +inf, or 0 where Q[E] = 0."""
    if math.isnan(gamma):
        raise ValueError(f"gamma must be a number, got {gamma!r}")
    member = event if callable(event) else set(event).__contains__
    p_event, q_event = (sum(math.exp(lm) for o, lm in zip(d.outcomes, d.log_mass)
                            if lm > NEG_INF and member(o)) for d in (p, q))
    tail = density(p, q).tail_probability(gamma)
    try:
        rhs = tail + (math.exp(gamma) * q_event if q_event > 0 else 0.0)
    except OverflowError:
        rhs = math.inf
    return {"p_event": p_event, "density_tail": tail, "q_event": q_event,
            "rhs": rhs, "holds": p_event <= rhs + COVERAGE_TOL}


_INT_MAX = int(np.finfo(float).max)


def _count(name: str, value: Any, least: int) -> int:
    """``value`` as an int, read as ``models._number`` reads an integer (a
    bool is refused), if at least ``least``; else a ValueError naming ``name``."""
    if isinstance(value, int) and abs(value) > _INT_MAX:  # float(value) overflows
        raise ValueError(f"{name} must be an integer within the float range")
    try:
        count = _number(name, value, _integral)
        if count >= least:
            return count
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def hoeffding_tail(sigma: float, n: int, eps: float) -> float:
    """Two-sided Hoeffding tail 2 exp(-n eps^2 / (2 sigma^2)); sigma must be
    finite and positive, n an integer >= 1 and eps >= 0."""
    sigma, n = _positive("sigma", sigma), _count("n", n, 1)
    if isinstance(eps, str) or not eps >= 0:  # NaN too
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    ratio = eps / sigma  # squaring the ratio, not eps and sigma, stays in the float range
    return 2.0 * math.exp(-n * ratio * ratio / 2.0)


def gaussian_mi_validation(n: int, noise_var: float, prior_var: float,
                           samples: int = 100_000, seed: int = 0) -> dict:
    """Monte Carlo check of the density machinery against a Gaussian closed
    form: W = mean of n iid N(0, prior_var) draws plus N(0, noise_var) noise,
    for which I(W; Z) = (1/2) log(1 + prior_var / (n noise_var)). n must be
    an integer >= 1, the variances finite and positive, and samples an
    integer >= 2 (the standard error needs two)."""
    n, samples = _count("n", n, 1), _count("samples", samples, 2)
    _positive("noise_var", noise_var)
    _positive("prior_var", prior_var)
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


def _random_system(rng: np.random.Generator, cls: type):
    """A random ``cls`` system, drawn in the order n, |Z|, |W|, losses, P_Z, beta."""
    n = int(rng.integers(1, 4))
    n_z = int(rng.integers(2, 4))
    n_w = int(rng.integers(2, 5))
    values = rng.uniform(0.0, 1.0, size=(n_w, n_z))
    loss = LossTable(tuple(range(n_w)), tuple(range(n_z)), values, 0.0, 1.0)
    pz = FiniteDistribution.from_probs(loss.instances,
                                       rng.dirichlet(np.ones(n_z)))
    beta = float(rng.uniform(0.0, 8.0))
    return cls(pz, n, gibbs_kernel(loss, n, beta), loss)


def random_standard_system(rng: np.random.Generator) -> StandardSystem:
    """A small Gibbs-learner instance: |Z| in {2,3}, |W| in {2,3,4}, n in {1,2,3}."""
    return _random_system(rng, StandardSystem)


def random_subset_system(rng: np.random.Generator) -> SubsetSystem:
    """Subset analog of random_standard_system."""
    return _random_system(rng, SubsetSystem)


# -- suite runner -----------------------------------------------------------


def _coverage_panel(sys, deltas: Sequence[float], keep: Sequence[str]) -> tuple:
    """Every coverage id of ``sys`` evaluated once at each delta (default
    parameters): the exact violation probabilities by id, one per delta, and
    the results of the ids in ``keep``, which the gap identity reads."""
    view, viols, kept = view_of(sys), {}, {}
    for bound_id in coverage_ids(sys.setting):
        entry = BOUNDS[bound_id]
        results = [entry.evaluate(sys, delta, 2, 2.0, "auto") for delta in deltas]
        viols[bound_id] = _violations(view, entry.covers, results)
        if bound_id in keep:
            kept[bound_id] = results
    return viols, [kept[k] for k in keep]


def run_verification_suite(seed: int = 0, n_instances: int = 50,
                           deltas: Sequence[float] = (0.3, 0.1, 0.05),
                           sigma_scale: float = 1.0) -> dict:
    """Run the exponential-inequality, average-bound, coverage, chain,
    ordering, and gap-identity suites; returns pass/fail with a failure list.

    ``sigma_scale`` (finite, > 0) rescales the sub-Gaussian parameter in the
    exponential checks (values below 1 inject a deliberate fault).
    """
    _positive("sigma_scale", sigma_scale)
    n_instances = _number("n_instances", n_instances, _integral)
    if n_instances < 1:
        raise ValueError(f"n_instances must be at least 1, got {n_instances!r}")
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
        try:
            worst = exp_check(sys)
        except ValueError as exc:
            raise ValueError(f"sigma_scale {sigma_scale!r} is out of range on {name}: "
                             f"{exc}") from exc
        if worst > 1.0 + EXP_INEQ_TOL:
            found.append(f"exp-inequality {name}: worst={worst:.6g}")
        if not order_holds(sys):
            found.append(f"{order_name} violated on {name}")
        gen = abs(expected_gen(sys))
        for bound_id, entry in BOUNDS.items():  # each average bound, where feasible
            if entry.setting == sys.setting and entry.covers is None:
                checks += 1
                res = entry.evaluate(sys, None, 2, 2.0, "auto")
                if res.feasible and not gen <= res.epsilon + COVERAGE_TOL:
                    found.append(f"average {bound_id} {name}: |E[gen]|={gen:.6g} "
                                 f"> eps={res.epsilon:.6g}")
        viols, (relaxed, direct) = _coverage_panel(sys, deltas, pair)
        rate = view_of(sys).rate
        for j, delta in enumerate(deltas):
            checks += 1
            if abs(relaxed[j].epsilon ** 2 - direct[j].epsilon ** 2
                   - rate * math.log(2.0)) > 1e-12:
                found.append(f"gap identity violated on {name} delta={delta}")
            for bound_id, by_delta in viols.items():
                checks += 1
                if not by_delta[j] <= delta + COVERAGE_TOL:
                    found.append(f"coverage {bound_id} {name} delta={delta}: "
                                 f"viol={by_delta[j]:.6g}")
        del sys  # before the next one is drawn
    listed = failures["standard"] + failures["subset"]
    return {"passed": not listed, "checks": checks, "failures": listed,
            "seed": seed}

