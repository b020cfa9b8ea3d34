"""The bound engine shared by both settings.

Every bound of the paper comes from one exponential inequality. The
standard and random-subset settings differ only in the density
(information density, or conditional information density), the value
bounded (gen, or the test-minus-train gap) and the rate (2 sigma^2 / n, or
2C / n). A setting supplies these through a view; each bound formula is a
method of the view, written once.

A system's default view is one object, built on first use and kept while
the system lives, so its bounds, coverage and checks read one set of
density arrays and compute each delta-independent term once; a view with an
auxiliary measure or range constant is built per call and never kept.

Every bound evaluates to sqrt(rate * (information term)). Infeasibility (a
negative, NaN or overflowing radicand, or a tail level delta that cannot be
met) is a first-class result carried on the flag, never an exception.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .measures import T_INF, DensityTable, _near_one, central_moment, normalize_order

GAMMA_STEP = 1e-9  # offset placing tail candidates just above each attained value


@dataclass(frozen=True)
class BoundResult:
    """A single evaluated bound: epsilon, flavor, scope, parameters."""

    epsilon: float
    flavor: str  # average | pac-bayes | single-draw
    scope: str  # data-dependent | data-independent
    params: Mapping[str, Any] = field(default_factory=dict)
    feasible: bool = True
    reason: str = ""

    def __post_init__(self):
        if self.feasible and not math.isfinite(self.epsilon):
            raise ValueError("feasible bound must have finite epsilon")


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def _lookup(find: Callable[[Any], int], label: Any) -> int:
    """``find(label)``: a vector's code on its grid, or a hypothesis's
    index; an unknown label raises a KeyError naming it."""
    try:
        return find(label)
    except (KeyError, ValueError, TypeError):
        raise KeyError(f"{label!r} is not an outcome of the system") from None


def _log_ratio(c: float, d: float) -> float:
    """log(c / d), taken as log(c) - log(d) only where c / d overflows (a
    tiny d), so that every representable quotient keeps its rounding."""
    ratio = c / d
    return math.log(ratio) if ratio < math.inf else math.log(c) - math.log(d)


def _moment_term(norm: float, delta: float, t: Any) -> float:
    """An L_t norm inflated by Markov's inequality at level delta/2 (none for
    t = inf); an inflation (delta/2)^(-1/t) that overflows is taken in logs."""
    if t is T_INF or norm == 0.0:
        return norm
    scale = (delta / 2.0) ** (1.0 / t)
    if scale > 0.0:
        return norm / scale
    try:
        return math.exp(math.log(norm) + _log_ratio(2.0, delta) / t)
    except OverflowError:
        return math.inf


_VIEWS: dict = {}  # setting -> its view class
_DEFAULT_VIEWS = weakref.WeakKeyDictionary()  # system -> its default view


def view_of(sys, *aux) -> "_View":
    """The default view of ``sys`` when every auxiliary input in ``aux`` is
    None, else a fresh view over them. A view refers to its system weakly,
    so the system and its default view are freed by reference counting."""
    make = _VIEWS[sys.setting]
    if any(a is not None for a in aux):
        return make(sys, *aux)
    view = _DEFAULT_VIEWS.get(sys)
    if view is None:
        view = _DEFAULT_VIEWS[sys] = make(sys)
    return view


class _View:
    """One setting's inputs to the bound formulas, which are its methods.

    ``variance`` is sigma^2 or C and ``rate`` is 2 variance / n. A setting
    supplies, each computed on first use where it costs a pass over the
    atoms: ``table`` (the density over the joint support), ``_log_arrays``
    (the log joint, the log base measure and the density ``iota`` on the
    atom grid, -inf off the support), ``kls`` (the posterior relative
    entropies, one per posterior, weighted by ``mass``), ``leakage``,
    ``_renyi`` (the Renyi divergence from ``_log_arrays``), ``values`` (the
    value bounded at each atom), ``gen`` (the generalization error at each
    atom), ``joint`` and ``cond`` (the posterior rows, hypotheses on the
    last axis).

    Each delta-independent term is computed once, into the view's own memo
    (``memoised``) keyed by (quantity, order): the central moment of iota and
    the posterior-KL L_t norm per normalized t, the Renyi divergence and the
    conditional alpha-MI per alpha, and the |value| arrays of ``coverage``
    per ``covers`` kind.
    """

    def __init_subclass__(cls):
        _VIEWS[cls.setting] = cls

    def __init__(self, sys, variance: float, params: Mapping[str, Any]):
        self._sys = weakref.ref(sys)
        self.variance = variance
        self.rate = 2.0 * variance / sys.n
        self._params = dict(params)
        self._memo: dict = {}

    sys = property(lambda self: self._sys())
    log_base = property(lambda self: self._log_arrays[1])
    iota = property(lambda self: self._log_arrays[2])

    def params(self, **extra) -> dict:
        return {**self._params, **extra}

    def memoised(self, key: tuple, compute: Callable[[], Any]) -> Any:
        """The term named by ``key``, computed by ``compute`` on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def moment(self, t: Any) -> float:
        """The t-th central moment of the density (t normalized)."""
        return self.memoised(("moment", t), lambda: central_moment(self.table, t))

    def sqrt_bound(self, info_term: float, flavor: str, scope: str,
                   params: Mapping[str, Any]) -> BoundResult:
        radicand = self.rate * info_term
        if 0.0 <= radicand < math.inf:
            return BoundResult(math.sqrt(radicand), flavor, scope, params)
        reason = "negative radicand" if radicand < 0.0 else "radicand is NaN or overflows"
        return BoundResult(math.inf, flavor, scope, params, feasible=False, reason=reason)

    def epsilons(self, info: np.ndarray) -> np.ndarray:
        """Data-dependent epsilons from per-posterior or per-atom information
        terms; NaN marks a negative radicand."""
        with np.errstate(invalid="ignore"):
            return np.sqrt(self.rate * info)

    def info(self, terms, delta: float):
        """Information terms of the data-dependent bounds: ``kls`` (one per
        posterior) or ``iota`` (one per atom), or an entry of either, + log(1/delta)."""
        return terms + _log_ratio(1.0, _check_delta(delta))

    def pointwise(self, term: float, flavor: str, delta: float,
                  atom: tuple) -> BoundResult:
        """A data-dependent bound from one entry of ``kls`` or ``iota``."""
        info = float(self.info(term, delta))
        if info == -math.inf:
            raise KeyError(f"atom {atom!r} not in the joint support")
        return self.sqrt_bound(info, flavor, "data-dependent", self.params(delta=delta))

    def avg(self) -> BoundResult:
        return self.sqrt_bound(self.table.mean, "average", "data-independent",
                               self.params())

    def pacb_moment(self, delta: float, t: Any) -> BoundResult:
        delta = _check_delta(delta)
        t = normalize_order(t)
        norm = self.memoised(("kl_norm", t), lambda: self._kl_norm(t))
        return self.sqrt_bound(_moment_term(norm, delta, t) + _log_ratio(2.0, delta),
                               "pac-bayes", "data-independent",
                               self.params(delta=delta, t=t))

    def _kl_norm(self, t: Any) -> float:
        """L_t norm of the posterior KL; |KL| guards a rounded -1e-16 at fractional t."""
        kls, mass = self.kls, self.mass
        if t is T_INF:
            return float(kls[mass > 0].max())
        return float(np.sum(mass * np.abs(kls) ** t)) ** (1.0 / t)

    def sd_moment(self, delta: float, t: Any, relaxed: bool = False) -> BoundResult:
        """Single-draw bound from central moments of the density; ``relaxed``
        rederives it through the tail route, at ln 2 more inside the square."""
        delta = _check_delta(delta)
        t = normalize_order(t)
        info = (self.table.mean + _moment_term(self.moment(t), delta, t)
                + _log_ratio(4.0 if relaxed else 2.0, delta))
        params = self.params(delta=delta, t=t)
        if relaxed:
            params["route"] = "tail-moment"
        return self.sqrt_bound(info, "single-draw", "data-independent", params)

    def sd_leakage(self, delta: float, relaxed: bool = False) -> BoundResult:
        """Single-draw bound from the maximal leakage; ``relaxed`` as above."""
        delta = _check_delta(delta)
        info = (self.leakage + (math.log(2.0) if relaxed else 0.0)
                + 2.0 * _log_ratio(2.0, delta))
        params = self.params(delta=delta)
        if relaxed:
            params["route"] = "tail-leakage"
        return self.sqrt_bound(info, "single-draw", "data-independent", params)

    def renyi(self, alpha: float) -> float:
        """Renyi divergence of order alpha of the joint against the base."""
        return self.table.mean if _near_one(alpha) else self.memoised(
            ("renyi", alpha), lambda: self._renyi(self._log_arrays, alpha))

    def tail_relaxations(self, delta: float, t: Any) -> tuple[BoundResult, BoundResult]:
        return (self.sd_moment(delta, t, relaxed=True),
                self.sd_leakage(delta, relaxed=True))

    def sd_renyi(self, delta: float, alpha: float) -> BoundResult:
        """Single-draw bound from the conjugate pair of Renyi divergences."""
        delta = _check_delta(delta)
        if not (math.isfinite(alpha) and alpha > 1):
            raise ValueError("alpha must be finite and exceed 1")
        gamma = alpha / (alpha - 1.0)
        info = ((alpha - 1.0) / alpha * self.renyi(alpha)
                + (gamma - 1.0) / gamma * self.renyi(gamma)
                + 2.0 * _log_ratio(2.0, delta))
        return self.sqrt_bound(info, "single-draw", "data-independent",
                               self.params(delta=delta, alpha=alpha, gamma=gamma))


def _tail_bound_from_table(tbl: DensityTable, rate: float, delta: float,
                           gamma: Any, extra_params: Mapping[str, Any]) -> BoundResult:
    """Shared tail-bound core: epsilon^2 = rate * (gamma + log(2/(delta - P[iota >= gamma]))).

    Auto mode scans the step edges of the exact tail function: each attained
    density value and a point just above it (where the tail drops to the
    strict-inequality mass). Every candidate is screened from the table's
    sorted tails (one O(N log N) sort per table, then O(V) per delta); only
    those whose rounding could cross delta (tail within 1e-9 delta of it) or
    rank first (radicand within about 1e-9 of the least) are evaluated
    exactly, in scan order, keeping the first strict minimum as a full scan does.
    """
    def infeasible(params, reason: str) -> BoundResult:
        return BoundResult(math.inf, "single-draw", "data-independent", params,
                           feasible=False, reason=reason)

    def evaluate(g: float) -> BoundResult:
        tail = tbl.tail_probability(g)
        params = dict(extra_params, delta=delta, gamma=g, tail_prob=tail)
        if tail >= delta:
            return infeasible(params, "tail mass at or above delta")
        radicand = rate * (g + _log_ratio(2.0, delta - tail))
        if radicand < 0.0:
            return infeasible(params, "negative radicand")
        return BoundResult(math.sqrt(radicand), "single-draw",
                           "data-independent", params)

    if gamma != "auto":
        return evaluate(float(gamma))
    values = tbl.distinct_values()
    cands = np.column_stack((values, values + GAMMA_STEP)).ravel()
    tails = tbl.tail_probabilities(cands)
    near = np.abs(tails - delta) <= 1e-9 * delta
    with np.errstate(all="ignore"):
        ratio = 2.0 / (delta - tails)  # as in _log_ratio where it overflows
        log_term = np.where(np.isinf(ratio), math.log(2.0) - np.log(delta - tails),
                            np.log(ratio))
        radicand = rate * (cands + log_term)
        slack = 1e-9 * rate * (np.abs(cands) + log_term + tails / (delta - tails))
        low, high = radicand - slack, radicand + slack
    below = ~near & (tails < delta)
    least = np.min(high[below & (low >= 0.0)], initial=math.inf)
    confirm = near | (below & (high >= 0.0) & ~(low > least))  # NaN: not ruled out
    best = None
    for g in cands[confirm].tolist():
        cand = evaluate(g)
        if cand.feasible and (best is None or cand.epsilon < best.epsilon):
            best = cand
    if best is None:
        return infeasible(dict(extra_params, delta=delta, gamma="auto"),
                          "no gamma meets the tail level delta")
    return best
