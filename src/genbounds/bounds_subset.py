"""Generalization-error bounds in the random-subset setting.

These mirror the standard-setting bounds with the conditional information
density in place of the unconditional one and the range constant
C = (b - a)^2 (or an expected squared dominating difference, for unbounded
losses) in place of sigma^2. Most results bound the test-minus-train gap;
``genhat_to_gen`` converts such a bound into one on the ordinary
generalization error at the price of a delta-dependent penalty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .engine import (BoundResult, _View, _check_delta, _check_gamma, _log_ratio, _square,
                     _tail_bound_from_table, cond_alpha_mi, view_of)
from .measures import (ONE_SEGMENT, _leakage, _nested_mean, _posterior_kls, _support_ratio,
                       conditional_density)
from .models import LossTable, SubsetSystem, _data_grid, _logs, _per_vector
from .prob import NEG_INF, FiniteDistribution, power_log_mass


@dataclass(frozen=True)
class RangeConstant:
    """The squared-range constant of the concentration step."""

    value: float
    mode: str  # bounded-range | delta-expectation

    def __post_init__(self):
        if not self.value >= 0:  # NaN too
            raise ValueError(f"range constant must be nonnegative, got {self.value!r}")


def range_constant(loss: LossTable) -> RangeConstant:
    """(b - a)^2 for a loss bounded on [a, b]; inf where the square overflows."""
    return RangeConstant(_square(loss.b - loss.a), "bounded-range")


def delta_constant(delta_fn: Callable[[Any, Any], float], pz: FiniteDistribution,
                   loss: LossTable | None = None) -> RangeConstant:
    """E[Delta(Z1, Z2)^2] for a dominating difference function Delta.

    Delta must satisfy Delta(z1, z2) >= |l(w, z1) - l(w, z2)| for every
    hypothesis; when a loss table is supplied this is verified exhaustively.
    """
    if loss is not None:
        for z1 in pz.outcomes:
            for z2 in pz.outcomes:
                gap = max(abs(loss.loss(w, z1) - loss.loss(w, z2))
                          for w in loss.hypotheses)
                value = delta_fn(z1, z2)
                if not value >= gap - 1e-12:  # NaN too
                    raise ValueError(f"Delta({z1!r}, {z2!r}) = {value!r} does not "
                                     "dominate the loss differences")
    value = sum(pz.mass_of(z1) * pz.mass_of(z2) * _square(delta_fn(z1, z2))
                for z1 in pz.outcomes for z2 in pz.outcomes
                if pz.mass_of(z1) * pz.mass_of(z2) > 0)  # so 0 * inf adds 0, not NaN
    return RangeConstant(float(value), "delta-expectation")


class _SubsetView(_View):
    """The random-subset setting, with range constant ``c`` (default
    (b - a)^2) and optionally an auxiliary conditional ``q_kernel``, a
    function of z-tilde: its view is over the per-vector system, which it
    keeps alive, since a view holds its system weakly."""

    setting = "subset"

    def __init__(self, sys: SubsetSystem, c: RangeConstant | None = None,
                 q_kernel=None):
        if q_kernel is not None:
            sys = self._vectors = _per_vector(sys)
        const = (c or range_constant(sys.loss)).value
        super().__init__(sys, const, {"C": const, "n": sys.n})
        self.q_kernel = q_kernel

    table = cached_property(lambda self: conditional_density(self.sys, self.q_kernel))

    @cached_property
    def mi_w_supersample(self) -> float:
        """I(W; Z-tilde), the supersample information set against the CMI:
        sum p(zt) KL(P_{W|zt} || P_W) on the one-context (zt, w) grid, p(zt)
        the sum of its rows' masses."""
        p_zt = np.add.reduceat(self.mass, self.starts)
        log_pw_given = self.log_masses[2]
        pw_given = np.exp(log_pw_given)
        p_w = np.add.reduceat(p_zt[:, None] * pw_given, ONE_SEGMENT)
        kls = _posterior_kls(pw_given, _support_ratio(log_pw_given.copy(), *_logs(p_w)))
        return float(np.multiply(p_zt, kls, out=np.zeros_like(kls), where=p_zt > 0).sum())


def cmi_avg_bound(sys: SubsetSystem, c: RangeConstant | None = None) -> BoundResult:
    """|E[gen(W, Z(S))]| <= sqrt(2 C/n * I(W; S | Z-tilde))."""
    return view_of(sys, c).avg()


def cond_pacb_bound(sys: SubsetSystem, ztilde: tuple, s: tuple, delta: float,
                    c: RangeConstant | None = None, q_kernel=None) -> BoundResult:
    """Conditional PAC-Bayesian bound at one (supersample, selector) atom."""
    view, delta = view_of(sys, c, q_kernel), _check_delta(delta)
    return view.pointwise(view.kls[view.sys.rows.row(ztilde, s)], "pac-bayes", delta,
                          (ztilde, s))


def cond_pacb_moment_bound(sys: SubsetSystem, delta: float, t: Any,
                           c: RangeConstant | None = None,
                           q_kernel=None) -> BoundResult:
    """Data-independent conditional PAC-Bayesian bound from KL moments."""
    return view_of(sys, c, q_kernel).pacb_moment(delta, t)


def cond_sd_density_bound(sys: SubsetSystem, w: Any, ztilde: tuple, s: tuple,
                          delta: float, c: RangeConstant | None = None,
                          q_kernel=None) -> BoundResult:
    """Conditional single-draw bound at one (w, z-tilde, s) atom."""
    view, delta = view_of(sys, c, q_kernel), _check_delta(delta)
    term = view.iota[view.sys.rows.atom(w, ztilde, s)]
    return view.pointwise(term, "single-draw", delta, (w, ztilde, s))


def cond_sd_moment_bound(sys: SubsetSystem, delta: float, t: Any,
                         c: RangeConstant | None = None,
                         q_kernel=None, relaxed: bool = False) -> BoundResult:
    """Conditional single-draw bound from central moments of the density;
    ``relaxed`` rederives it through the conditional tail."""
    return view_of(sys, c, q_kernel).sd_moment(delta, t, relaxed)


def cond_sd_leakage_bound(sys: SubsetSystem, delta: float,
                          c: RangeConstant | None = None,
                          relaxed: bool = False) -> BoundResult:
    """Conditional single-draw bound from the conditional maximal leakage;
    ``relaxed`` rederives it through the conditional tail."""
    return view_of(sys, c).sd_leakage(delta, relaxed)


def cond_sd_renyi_pair_bound(sys: SubsetSystem, delta: float, alpha: float,
                             c: RangeConstant | None = None,
                             q_kernel=None) -> BoundResult:
    """Conditional single-draw bound from the conjugate Renyi pair."""
    return view_of(sys, c, q_kernel).sd_renyi(delta, alpha)


def cond_tail_bound(sys: SubsetSystem, delta: float, gamma: Any = "auto",
                    c: RangeConstant | None = None, q_kernel=None) -> BoundResult:
    """Conditional single-draw bound from the exact density tail."""
    delta, gamma = _check_delta(delta), _check_gamma(gamma)
    view = view_of(sys, c, q_kernel)
    return _tail_bound_from_table(view.table, view.rate, delta, gamma, view.params())


def cond_tail_relaxations(sys: SubsetSystem, delta: float, t: Any,
                          c: RangeConstant | None = None,
                          q_kernel=None) -> tuple[BoundResult, BoundResult]:
    """Moment and leakage bounds rederived through the conditional tail;
    each exceeds its direct counterpart by exactly (2 C/n) ln 2 inside the
    square."""
    return view_of(sys, c, q_kernel).tail_relaxations(delta, t)


def holder_event_bound(sys: SubsetSystem, event: Callable[[Any, tuple, tuple], bool],
                       alpha: float, alpha_prime: float,
                       tilde_alpha: float) -> float:
    """Exact evaluation of the two-factor Holder bound on P[E].

    ``event`` is a predicate over (w, z-tilde, s) atoms, read at every atom
    of the per-vector system. The three exponents must exceed 1 and be
    finite; their conjugates are derived internally.
    """
    for name, val in (("alpha", alpha), ("alpha_prime", alpha_prime),
                      ("tilde_alpha", tilde_alpha)):
        if not 1 < val < math.inf:
            raise ValueError(f"{name} must exceed 1 and be finite, got {val!r}")
    gamma = alpha / (alpha - 1.0)
    gamma_prime = alpha_prime / (alpha_prime - 1.0)
    tilde_gamma = tilde_alpha / (tilde_alpha - 1.0)
    sys = _per_vector(sys)
    view = view_of(sys)
    contexts = (*view.log_masses, view.starts)
    ind = np.array([[event(w, *data) for w in sys.rows.w_labels]
                    for data in sys.rows.labels], dtype=bool)
    # event factor: E_Zt^{1/tg}[ E_{W|Zt}^{tg/g'}[ P_S^{g'/g}[E_{w,zt}] ] ]
    log_factor_event = _nested_mean(np.where(ind, 0.0, NEG_INF), *contexts,
                                    gamma_prime / gamma, tilde_gamma / gamma_prime) / tilde_gamma
    # density factor: E_Zt^{1/ta}[ E_{W|Zt}^{ta/a'}[ E_S^{a'/a}[e^{a iota}] ] ]
    log_factor_dens = _nested_mean(alpha * view.iota, *contexts,
                                   alpha_prime / alpha, tilde_alpha / alpha_prime) / tilde_alpha
    return float(math.exp(log_factor_event + log_factor_dens))


def cond_alpha_mi_bound(sys: SubsetSystem, delta: float, alpha: float,
                        c: RangeConstant | None = None) -> BoundResult:
    """Conditional single-draw bound from the conditional alpha-mutual
    information; alpha = inf uses the conditional maximal leakage limit."""
    delta = _check_delta(delta)
    view = view_of(sys, c)
    if alpha == math.inf:
        info = view.leakage + math.log(2.0) + _log_ratio(1.0, delta)
    else:
        info = (cond_alpha_mi(sys, alpha) + math.log(2.0)
                + alpha / (alpha - 1.0) * _log_ratio(1.0, delta))
    return view.sqrt_bound(info, "single-draw", "data-independent",
                           view.params(delta=delta, alpha=alpha))


def genhat_to_gen(eps_fn: Callable[[float], float], loss: LossTable, n: int,
                  delta: float) -> BoundResult:
    """Convert a bound on the test-minus-train gap into one on the ordinary
    generalization error via the delta-dependent penalty term; a penalty
    that overflows makes the bound infeasible."""
    delta = _check_delta(delta)
    penalty = math.sqrt(range_constant(loss).value / (2.0 * n) * _log_ratio(4.0, delta))
    # the gap bound's level delta/2 rounds to 0 at the least subnormal delta
    base = float(eps_fn(delta / 2.0)) if delta / 2.0 > 0.0 else math.inf
    reason = ("penalty overflows" if penalty == math.inf else
              "underlying gap bound infeasible" if not math.isfinite(base) else "")
    if reason:
        return BoundResult(math.inf, "single-draw", "data-independent",
                           {"delta": delta, "n": n}, feasible=False, reason=reason)
    return BoundResult(base + penalty, "single-draw", "data-independent",
                       {"delta": delta, "n": n, "penalty": penalty})


def leakage_ordering_check(sys: SubsetSystem) -> dict:
    """Conditional leakage vs that of the induced standard system, unassembled."""
    cond_leak = view_of(sys).leakage
    grid = _data_grid(sys.learner, sys.pz.outcomes, sys.n)
    std_leak = _leakage(np.exp(power_log_mass(sys.pz.log_mass, grid)),
                        np.exp(sys.learner.log_mass_on(grid)), ONE_SEGMENT)
    return {
        "cond_maximal_leakage": cond_leak,
        "induced_maximal_leakage": std_leak,
        "holds": cond_leak <= std_leak + 1e-12,
    }
