"""The bound engine shared by both settings.

Every bound of the paper comes from one exponential inequality. The
standard and random-subset settings differ only in the density
(information density, or conditional information density), the value
bounded (gen, or the test-minus-train gap) and the rate (2 sigma^2 / n, or
2C / n). A setting supplies these through a view; each bound formula is a
method of the view, written once.

A system's default view is one object, built on first use and kept while
the system lives, so its bounds, coverage, checks and information measures
(``mutual_information`` and the rest, each a term of the view) read one set
of density arrays and compute each delta-independent term once; a view with
an auxiliary measure or range constant is built per call and never kept.

Every bound evaluates to sqrt(rate * (information term)). Infeasibility (a
negative, NaN or overflowing radicand, or a tail level delta that cannot be
met) is a first-class result carried on the flag, never an exception.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from .measures import (T_INF, DensityTable, _alpha_mi, _leakage, _log_norm, _near_one,
                       _posterior_kls, _renyi, central_moment, normalize_order)


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
    if isinstance(delta, str):
        raise ValueError(f"delta must be a number, got {delta!r}")
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def _check_gamma(gamma: Any) -> Any:
    """A tail bound's gamma, "auto" or a number; NaN is refused by name."""
    if gamma != "auto" and (isinstance(gamma, str) or math.isnan(float(gamma))):
        raise ValueError(f"gamma must be a number or 'auto', got {gamma!r}")
    return gamma


def _log_ratio(c: float, d: float) -> float:
    """log(c / d), taken as log(c) - log(d) only where c / d overflows (a
    tiny d), so that every representable quotient keeps its rounding."""
    ratio = c / d
    return math.log(ratio) if ratio < math.inf else math.log(c) - math.log(d)


def _square(x: float) -> float:
    """x ** 2 as a float, read as inf where the square overflows (a sigma,
    range or Delta past the square root of the largest float)."""
    try:
        return float(x) ** 2
    except OverflowError:
        return math.inf


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


def _sqrt_result(radicand: float, flavor: str, scope: str,
                 params: Mapping[str, Any]) -> BoundResult:
    """epsilon = sqrt(radicand), or an infeasible result naming why there is none."""
    if 0.0 <= radicand < math.inf:
        return BoundResult(math.sqrt(radicand), flavor, scope, params)
    reason = "negative radicand" if radicand < 0.0 else "radicand is NaN or overflows"
    return BoundResult(math.inf, flavor, scope, params, feasible=False, reason=reason)


_VIEWS: dict = {}  # setting -> its view class
_DEFAULT_VIEWS = weakref.WeakKeyDictionary()  # system -> its default view


def view_of(sys, *aux) -> "_View":
    """The default view of ``sys`` when every auxiliary input in ``aux`` is
    None, else a fresh view over them. A view refers to its system weakly,
    so the system and its default view are freed by reference counting."""
    make = _VIEWS[sys.setting]
    for a in aux:
        if a is not None:
            return make(sys, *aux)
    view = _DEFAULT_VIEWS.get(sys)
    if view is None:
        view = _DEFAULT_VIEWS[sys] = make(sys)
    return view


class _View:
    """One setting's inputs to the bound formulas, which are its methods.

    ``variance`` is sigma^2 or C and ``rate`` is 2 variance / n. The view
    takes its grid from the system's flat rows (``models.Rows``): ``starts``,
    ``mass``, ``joint``, ``cond``, ``values``, ``gen`` and ``log_masses``.
    A setting supplies ``table``, the density table, computed on first use,
    whose ``arrays`` the view reads as ``_log_arrays``: the log joint, the
    log base measure and the density ``iota``. From these the view computes
    ``kls`` (one posterior relative entropy per row), ``leakage``, the Renyi
    divergences and the alpha-MI, by the formulas of ``measures``.

    Each delta-independent term is computed once, into the view's own memo
    (``memoised``) keyed by (quantity, order): the central moment of iota and
    the posterior-KL L_t norm per normalized t, the Renyi divergence and the
    alpha-MI per alpha, and the |value| arrays of ``coverage``
    per ``covers`` kind; and the law of the bounded value, sorted, with the
    cumulative masses of ``verify.quantile`` and ``verify.abs_quantile``.
    The verification suite evaluates each (bound, delta) of a system once,
    compares all of a bound's results with that one |value| array, and
    hands the same results to its gap identity.
    The table keeps its own per-table terms: its mean, its one sort of iota,
    and the tail masses at its distinct values that the auto-gamma tail
    bound reads at every delta.
    """

    def __init_subclass__(cls):
        _VIEWS[cls.setting] = cls

    def __init__(self, sys, variance: float, params: Mapping[str, Any]):
        self._sys = weakref.ref(sys)
        self.variance = variance
        self.rate = 2.0 * variance / sys.n
        self._params = dict(params)
        self._memo: dict = {}
        r = sys.rows
        self.starts, self.mass, self.joint, self.cond = r.starts, r.mass, r.joint, r.cond
        self.values, self.gen, self.log_masses = r.values, r.gen, r.log_masses

    sys = property(lambda self: self._sys())
    _log_arrays = property(lambda self: self.table.arrays)
    log_base = property(lambda self: self._log_arrays[1])
    iota = property(lambda self: self._log_arrays[2])
    kls = cached_property(lambda self: _posterior_kls(self.cond, self.iota))
    leakage = cached_property(lambda self: _leakage(self.mass, self.cond, self.starts))

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
        return _sqrt_result(self.rate * info_term, flavor, scope, params)

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
            raise KeyError(f"atom {atom!r} is outside the density's support: "
                           "P(w | data) or its base conditional is 0")
        return self.sqrt_bound(info, flavor, "data-dependent", self.params(delta=delta))

    def avg(self) -> BoundResult:
        return self.sqrt_bound(self.table.mean, "average", "data-independent",
                               self.params())

    def pacb_moment(self, delta: float, t: Any) -> BoundResult:
        delta = _check_delta(delta)
        t = normalize_order(t)

        def kl_norm() -> float:  # of the positive-mass posteriors; |KL| guards a -1e-16
            pos = self.mass > 0
            return _log_norm(np.abs(self.kls[pos]), np.log(self.mass[pos]), t)

        norm = self.memoised(("kl_norm", t), kl_norm)
        return self.sqrt_bound(_moment_term(norm, delta, t) + _log_ratio(2.0, delta),
                               "pac-bayes", "data-independent",
                               self.params(delta=delta, t=t))

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
            ("renyi", alpha), lambda: _renyi(self._log_arrays, alpha))

    def alpha_mi(self, alpha: float) -> float:
        """alpha-mutual information of the system (over its own P(w | context));
        near alpha = 1 the mutual information."""
        return self.table.mean if _near_one(alpha) else self.memoised(
            ("alpha_mi", alpha), lambda: _alpha_mi(*self.log_masses, self.iota, self.starts,
                                                   alpha))

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


# -- a system's information quantities: terms of its view --------------------


def mutual_information(sys, q_w=None) -> float:
    """I(W; Z), or with an auxiliary Q_W the relative entropy against Q_W x P_Z."""
    return view_of(sys, q_w).table.mean


def system_renyi(sys, alpha: float, q_w=None) -> float:
    """Renyi divergence of the joint against the (auxiliary) product."""
    return view_of(sys, q_w).renyi(alpha)


def alpha_mi(sys, alpha: float) -> float:
    """alpha-mutual information I_alpha(Z; W); near alpha = 1 it is I(W; Z)."""
    return view_of(sys).alpha_mi(alpha)


def maximal_leakage(sys) -> float:
    """Maximal leakage, conditional on the supersample in the subset setting."""
    return view_of(sys).leakage


cond_maximal_leakage = maximal_leakage


def max_information(sys) -> float:
    """Essential supremum of the information density under the joint."""
    return float(view_of(sys).table.iota.max())


def cond_mutual_information(sys, q_kernel=None) -> float:
    """I(W; S | Z-tilde) as the mean conditional information density."""
    return view_of(sys, None, q_kernel).table.mean


def cond_renyi_divergence(sys, alpha: float, q_kernel=None) -> float:
    """Conditional Renyi divergence of order alpha against P_Ztilde P_{W|Ztilde} P_S."""
    return view_of(sys, None, q_kernel).renyi(alpha)


def cond_alpha_mi(sys, alpha: float) -> float:
    """Conditional alpha-mutual information I_alpha(W; S | Z-tilde), alpha > 1;
    within 1e-6 of 1 it is I(W; S | Z-tilde)."""
    if not alpha > 1:
        raise ValueError("alpha must exceed 1")
    return view_of(sys).alpha_mi(alpha)


def _tail_bound_from_table(tbl: DensityTable, rate: float, delta: float,
                           gamma: Any, extra_params: Mapping[str, Any]) -> BoundResult:
    """Shared tail-bound core: epsilon^2 = rate * (gamma + log(2/(delta - P[iota > gamma]))).

    For the value v bounded (gen, or the test-minus-train gap), the joint P
    and its base measure P x Q (P_W P_Z^n, or P_{W|Ztilde} P_Ztilde P_S),
    under which v has the sub-Gaussian tail 2 e^(-eps^2 / rate), dP = e^iota d(P x Q):

        P[|v| > eps] <= P[iota > gamma] + e^gamma (P x Q)[|v| > eps, iota <= gamma]
                     <= P[iota > gamma] + 2 e^gamma e^(-eps^2 / rate) = delta at epsilon.

    The strict tail is constant between attained density values while gamma
    grows, so auto mode's exact optimum is at an attained value: the table
    reads the tail at each once (one sort), and each delta then costs one
    O(V) pass over the radicands; the first least epsilon is evaluated as an
    explicit gamma is. Where none is feasible, the reason is the tail level
    if no tail is below delta, else the radicand's fault there, as an
    explicit gamma names it: negative, or NaN or overflowing.
    """
    def infeasible(params, reason: str) -> BoundResult:
        return BoundResult(math.inf, "single-draw", "data-independent", params,
                           feasible=False, reason=reason)

    def evaluate(g: float, tail: float) -> BoundResult:
        params = dict(extra_params, delta=delta, gamma=g, tail_prob=tail)
        if tail >= delta:
            return infeasible(params, "tail mass at or above delta")
        return _sqrt_result(rate * (g + _log_ratio(2.0, delta - tail)), "single-draw",
                            "data-independent", params)

    if gamma != "auto":
        return evaluate(float(gamma), tbl.tail_probability(float(gamma)))
    values, tails = tbl.distinct_values(), tbl.distinct_tails()
    with np.errstate(all="ignore"):
        ratio = 2.0 / (delta - tails)  # as in _log_ratio where it overflows
        log_term = np.where(np.isinf(ratio), math.log(2.0) - np.log(delta - tails),
                            np.log(ratio))
        radicand = rate * (values + log_term)
    below = tails < delta
    usable = below & (radicand >= 0.0) & (radicand < math.inf)
    if not usable.any():  # no tail below delta, or no radicand of one is usable
        return infeasible(dict(extra_params, delta=delta, gamma="auto"),
                          "no gamma meets the tail level delta" if not below.any() else
                          "negative radicand" if np.all(radicand[below] < 0.0) else
                          "radicand is NaN or overflows")
    radicand[~usable] = math.inf
    best = int(np.argmin(np.sqrt(radicand)))  # the first least epsilon
    return evaluate(float(values[best]), float(tails[best]))
