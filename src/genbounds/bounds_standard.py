"""Generalization-error bounds in the standard setting: average,
PAC-Bayesian, and single-draw flavors.

Each bound is the shared formula of ``engine`` over the standard view: the
information density of (W, Z), the generalization error, posteriors over
z-vectors, and the rate 2 sigma^2 / n.
"""
from __future__ import annotations

from functools import cached_property
from typing import Any

from .engine import (BoundResult, _View, _check_delta, _log_ratio, _lookup,
                     _tail_bound_from_table, max_information, view_of)
from .measures import T_INF, information_density
from .models import StandardSystem
from .prob import FiniteDistribution


class _StandardView(_View):
    """The standard setting, optionally against an auxiliary marginal Q_W."""

    setting = "standard"

    def __init__(self, sys: StandardSystem, q_w: FiniteDistribution | None = None):
        super().__init__(sys, sys.sigma ** 2, {"sigma": sys.sigma, "n": sys.n})
        self.q_w = q_w
        self.values = self.gen = sys.gen_table.T
        self.mass, self.joint, self.cond = sys.pzn_mass, sys.joint, sys.cond

    table = cached_property(lambda self: information_density(self.sys, self.q_w))


def avg_mi_bound(sys: StandardSystem,
                 q_w: FiniteDistribution | None = None) -> BoundResult:
    """|E[gen]| <= sqrt(2 sigma^2/n * I(W;Z))."""
    return view_of(sys, q_w).avg()


def pacb_bound(sys: StandardSystem, zvec: tuple, delta: float,
               q_w: FiniteDistribution | None = None) -> BoundResult:
    """Data-dependent PAC-Bayesian bound at one training set."""
    view, delta = view_of(sys, q_w), _check_delta(delta)
    return view.pointwise(view.kls[_lookup(sys.z_grid.code, zvec)], "pac-bayes", delta,
                          (zvec,))


def pacb_moment_bound(sys: StandardSystem, delta: float, t: Any,
                      q_w: FiniteDistribution | None = None) -> BoundResult:
    """Data-independent PAC-Bayesian bound from moments of the posterior KL."""
    return view_of(sys, q_w).pacb_moment(delta, t)


def sd_density_bound(sys: StandardSystem, w: Any, zvec: tuple, delta: float,
                     q_w: FiniteDistribution | None = None) -> BoundResult:
    """Single-draw bound at one (hypothesis, training set) atom."""
    view, delta = view_of(sys, q_w), _check_delta(delta)
    term = view.iota[_lookup(sys.z_grid.code, zvec), _lookup(sys.w_labels.index, w)]
    return view.pointwise(term, "single-draw", delta, (w, zvec))


def sd_moment_bound(sys: StandardSystem, delta: float, t: Any,
                    q_w: FiniteDistribution | None = None,
                    relaxed: bool = False) -> BoundResult:
    """Single-draw bound from central moments of the information density;
    ``relaxed`` rederives it through the tail route."""
    return view_of(sys, q_w).sd_moment(delta, t, relaxed)


def sd_leakage_bound(sys: StandardSystem, delta: float,
                     relaxed: bool = False) -> BoundResult:
    """Single-draw bound from the maximal leakage; ``relaxed`` rederives it
    through the tail route."""
    return view_of(sys).sd_leakage(delta, relaxed)


def sd_renyi_bound(sys: StandardSystem, delta: float, alpha: float,
                   q_w: FiniteDistribution | None = None) -> BoundResult:
    """Single-draw bound from the conjugate pair of Renyi divergences."""
    return view_of(sys, q_w).sd_renyi(delta, alpha)


def sd_tail_bound(sys: StandardSystem, delta: float, gamma: Any = "auto",
                  q_w: FiniteDistribution | None = None) -> BoundResult:
    """Single-draw bound from the exact tail of the information density."""
    delta = _check_delta(delta)
    view = view_of(sys, q_w)
    return _tail_bound_from_table(view.table, view.rate, delta, gamma, view.params())


def tail_relaxations(sys: StandardSystem, delta: float, t: Any,
                     q_w: FiniteDistribution | None = None) -> tuple[BoundResult, BoundResult]:
    """Moment and leakage bounds rederived through the tail route.

    Each exceeds its direct counterpart by exactly (2 sigma^2/n) ln 2 inside
    the square.
    """
    return view_of(sys, q_w).tail_relaxations(delta, t)


def chain_report(sys: StandardSystem, delta: float) -> dict:
    """The leakage <= max-information <= I + M_inf chain (``holds``, to
    1e-9), plus the regime test for when the leakage bound is the tighter
    single-draw choice."""
    delta = _check_delta(delta)
    view = view_of(sys)
    leakage, i_max = view.leakage, max_information(sys)
    mi_plus_dev = view.table.mean + view.moment(T_INF)
    return {
        "maximal_leakage": leakage,
        "max_information": i_max,
        "mi_plus_max_deviation": mi_plus_dev,
        "holds": leakage <= i_max + 1e-9 and i_max <= mi_plus_dev + 1e-9,
        "leakage_preferable": leakage <= i_max + _log_ratio(2.0, delta),
    }
