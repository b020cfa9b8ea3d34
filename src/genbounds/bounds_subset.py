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

from .engine import (BoundResult, _View, _check_delta, _log_ratio, _lookup,
                     _tail_bound_from_table, cond_alpha_mi, view_of)
from .measures import _leakage, conditional_density
from .models import LossTable, SubsetSystem, _data_grid
from .prob import NEG_INF, FiniteDistribution, logsumexp, power_log_mass


@dataclass(frozen=True)
class RangeConstant:
    """The squared-range constant of the concentration step."""

    value: float
    mode: str  # bounded-range | delta-expectation

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("range constant must be nonnegative")


def range_constant(loss: LossTable) -> RangeConstant:
    """(b - a)^2 for a loss bounded on [a, b]."""
    return RangeConstant((loss.b - loss.a) ** 2, "bounded-range")


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
                if delta_fn(z1, z2) < gap - 1e-12:
                    raise ValueError(
                        f"Delta({z1!r}, {z2!r}) does not dominate the loss differences")
    value = sum(pz.mass_of(z1) * pz.mass_of(z2) * delta_fn(z1, z2) ** 2
                for z1 in pz.outcomes for z2 in pz.outcomes)
    return RangeConstant(float(value), "delta-expectation")


class _SubsetView(_View):
    """The random-subset setting, with range constant ``c`` (default
    (b - a)^2) and optionally an auxiliary conditional ``q_kernel``."""

    setting = "subset"

    def __init__(self, sys: SubsetSystem, c: RangeConstant | None = None,
                 q_kernel=None):
        const = (c or range_constant(sys.loss)).value
        super().__init__(sys, const, {"C": const, "n": sys.n})
        self.q_kernel = q_kernel
        self.values, self.gen, self.cond = sys.genhat, sys.gen_sel, sys.cond
        self.joint, self.mass = sys.joint, sys.p_ztilde[:, None] * sys.p_s[None, :]

    table = cached_property(lambda self: conditional_density(self.sys, self.q_kernel))


def cmi_avg_bound(sys: SubsetSystem, c: RangeConstant | None = None) -> BoundResult:
    """|E[gen(W, Z(S))]| <= sqrt(2 C/n * I(W; S | Z-tilde))."""
    return view_of(sys, c).avg()


def cond_pacb_bound(sys: SubsetSystem, ztilde: tuple, s: tuple, delta: float,
                    c: RangeConstant | None = None, q_kernel=None) -> BoundResult:
    """Conditional PAC-Bayesian bound at one (supersample, selector) atom."""
    view, delta = view_of(sys, c, q_kernel), _check_delta(delta)
    term = view.kls[_lookup(sys.zt_grid.code, ztilde), _lookup(sys.s_grid.code, s)]
    return view.pointwise(term, "pac-bayes", delta, (ztilde, s))


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
    term = view.iota[_lookup(sys.zt_grid.code, ztilde), _lookup(sys.s_grid.code, s),
                     _lookup(sys.w_labels.index, w)]
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
    delta = _check_delta(delta)
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

    ``event`` is a predicate over (w, z-tilde, s) atoms. The three exponents
    must exceed 1; their conjugates are derived internally.
    """
    for name, val in (("alpha", alpha), ("alpha_prime", alpha_prime),
                      ("tilde_alpha", tilde_alpha)):
        if val <= 1:
            raise ValueError(f"{name} must exceed 1")
    gamma = alpha / (alpha - 1.0)
    gamma_prime = alpha_prime / (alpha_prime - 1.0)
    tilde_gamma = tilde_alpha / (tilde_alpha - 1.0)
    iota = view_of(sys).iota
    with np.errstate(divide="ignore"):
        log_pzt = np.log(sys.p_ztilde)
        log_ps = np.log(sys.p_s)
        log_wg = np.log(sys.pw_given)
    ind = np.array([[[event(w, zt, s) for w in sys.w_labels]
                     for s in sys.s_vecs]
                    for zt in sys.ztildes], dtype=bool)
    # event factor: E_Zt^{1/tg}[ E_{W|Zt}^{tg/g'}[ P_S^{g'/g}[E_{w,zt}] ] ]
    log_ind = np.where(ind, 0.0, NEG_INF)
    log_p_event = logsumexp(log_ps[None, :, None] + log_ind, axis=1)
    mid_e = logsumexp(log_wg + (gamma_prime / gamma) * log_p_event, axis=1)
    log_factor_event = logsumexp(log_pzt + (tilde_gamma / gamma_prime) * mid_e) / tilde_gamma
    # density factor: E_Zt^{1/ta}[ E_{W|Zt}^{ta/a'}[ E_S^{a'/a}[e^{a iota}] ] ]
    inner_d = logsumexp(log_ps[None, :, None] + alpha * iota, axis=1)
    mid_d = logsumexp(log_wg + (alpha_prime / alpha) * inner_d, axis=1)
    log_factor_dens = logsumexp(log_pzt + (tilde_alpha / alpha_prime) * mid_d) / tilde_alpha
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
    generalization error via the delta-dependent penalty term."""
    delta = _check_delta(delta)
    penalty = math.sqrt((loss.b - loss.a) ** 2 / (2.0 * n) * _log_ratio(4.0, delta))
    # the gap bound's level delta/2 rounds to 0 at the least subnormal delta
    base = float(eps_fn(delta / 2.0)) if delta / 2.0 > 0.0 else math.inf
    if not math.isfinite(base):
        return BoundResult(math.inf, "single-draw", "data-independent",
                           {"delta": delta, "n": n}, feasible=False,
                           reason="underlying gap bound infeasible")
    return BoundResult(base + penalty, "single-draw", "data-independent",
                       {"delta": delta, "n": n, "penalty": penalty})


def leakage_ordering_check(sys: SubsetSystem) -> dict:
    """Conditional leakage vs that of the induced standard system, unassembled."""
    cond_leak = view_of(sys).leakage
    grid = _data_grid(sys.learner, sys.pz.outcomes, sys.n)
    std_leak = _leakage(np.exp(power_log_mass(sys.pz.log_mass, grid)),
                        np.exp(sys.learner.log_mass_on(grid)))
    return {
        "cond_maximal_leakage": cond_leak,
        "induced_maximal_leakage": std_leak,
        "holds": cond_leak <= std_leak + 1e-12,
    }
