"""Information quantities on finite systems: densities, divergences,
alpha-families, leakages, and central moments of the information density.

All quantities are in nats. Orders within 1e-6 of 1 dispatch to the
KL/mutual-information limit, where the closed forms are numerically 0/0.
Moment order t = infinity is a distinguished sentinel (``T_INF``), not a
float smuggled through arithmetic.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .models import StandardSystem, SubsetSystem
from .prob import (NEG_INF, AbsoluteContinuityViolation, FiniteDistribution, ProductGrid,
                   logsumexp)

ALPHA_ONE_TOL = 1e-6


class MomentOrder(enum.Enum):
    INF = "inf"


T_INF = MomentOrder.INF


def normalize_order(t: Any) -> float | MomentOrder:
    """Accept a positive real, math.inf, or the string 'inf' for t."""
    if t is T_INF or t == "inf" or (isinstance(t, float) and math.isinf(t)):
        return T_INF
    t = float(t)
    if t <= 0:
        raise ValueError("moment order must be positive")
    return t


def _near_one(alpha: float) -> bool:
    """Whether the positive order alpha takes the KL/mutual-information limit."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return abs(alpha - 1.0) <= ALPHA_ONE_TOL


@dataclass(frozen=True)
class DensityTable:
    """Log-ratio values over the support of a reference joint.

    ``log_p`` are the natural-log masses of the reference measure at the
    support atoms; ``iota`` the log ratio against the base measure there.
    ``build_outcomes`` makes the atoms' labels, ``outcomes``, on first
    access.
    """

    log_p: np.ndarray
    iota: np.ndarray
    build_outcomes: Callable[[], tuple] = field(repr=False)

    def __post_init__(self):
        for arr in (self.log_p, self.iota):
            arr.flags.writeable = False
        if self.log_p.shape != self.iota.shape:
            raise ValueError("log_p and iota shape mismatch")

    outcomes = cached_property(lambda self: self.build_outcomes())

    @cached_property
    def mean(self) -> float:
        """E_P[iota] (the mutual/conditional mutual information when the
        base measure is the matching product)."""
        return float(np.sum(np.exp(self.log_p) * self.iota))

    def tail_probability(self, gamma: float) -> float:
        """P[iota >= gamma] under the reference measure."""
        mask = self.iota >= gamma
        if not np.any(mask):
            return 0.0
        return float(math.exp(logsumexp(self.log_p[mask])))

    @cached_property
    def _sorted_tails(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted iota, and the log mass from each position on (-inf at the end)."""
        order = np.argsort(self.iota, kind="stable")
        log_tails = np.logaddexp.accumulate(self.log_p[order][::-1])[::-1]
        return self.iota[order], np.append(log_tails, NEG_INF)

    def tail_probabilities(self, gammas: np.ndarray) -> np.ndarray:
        """P[iota >= gamma] at every gamma, to rounding; see ``tail_probability``."""
        values, log_tails = self._sorted_tails
        return np.exp(log_tails[np.searchsorted(values, gammas, side="left")])

    _distinct_values = cached_property(lambda self: np.unique(self.iota))

    def distinct_values(self) -> np.ndarray:
        return self._distinct_values


# -- densities --------------------------------------------------------------


def density(p: FiniteDistribution, q: FiniteDistribution) -> DensityTable:
    """Pointwise log(P/Q) on the support of P; P must be absolutely
    continuous with respect to Q."""
    outcomes, log_p, iota = [], [], []
    for o, lm in zip(p.outcomes, p.log_mass):
        if lm == NEG_INF:
            continue
        if o not in q._index or q.log_mass_of(o) == NEG_INF:
            raise AbsoluteContinuityViolation(f"P-atom {o!r} has zero Q-mass")
        outcomes.append(o)
        log_p.append(lm)
        iota.append(lm - q.log_mass_of(o))
    return DensityTable(np.asarray(log_p), np.asarray(iota), lambda: tuple(outcomes))


def _standard_log_arrays(sys: StandardSystem,
                         q_w: FiniteDistribution | None = None):
    """(log_joint, log_base, iota) over the (zvec, w) grid; iota is -inf off
    the joint support."""
    with np.errstate(divide="ignore"):
        log_joint = np.log(sys.joint)
        log_pzn = np.log(sys.pzn_mass)
        if q_w is None:
            log_w = np.log(sys.pw_mass)
        else:
            log_w = np.array([q_w.log_mass_of(w) for w in sys.w_labels])
    log_base = log_pzn[:, None] + log_w[None, :]
    sup = log_joint > NEG_INF
    if np.any(sup & (log_base == NEG_INF)):
        raise AbsoluteContinuityViolation(
            "joint atom outside the support of the base measure")
    iota = np.full_like(log_joint, NEG_INF)
    iota[sup] = log_joint[sup] - log_base[sup]
    return log_joint, log_base, iota


def _density_table(grids: Sequence[ProductGrid], w_labels: tuple,
                   log_joint: np.ndarray, iota: np.ndarray) -> DensityTable:
    """The density over the joint support of a (data grids..., w) grid. The
    outcomes, built on first access, are (w, data labels...) in grid order;
    they are made from the grids, so the table holds no system."""
    sup = log_joint > NEG_INF

    def outcomes() -> tuple:
        axes = [g.vectors() for g in grids] + [w_labels]
        return tuple((labels[-1],) + labels[:-1]
                     for labels, keep in zip(itertools.product(*axes), sup.ravel())
                     if keep)

    return DensityTable(log_joint[sup], iota[sup], outcomes)


def information_density(sys: StandardSystem,
                        q_w: FiniteDistribution | None = None) -> DensityTable:
    """Information density of (W, Z) under the system joint, optionally
    against an auxiliary hypothesis marginal Q_W."""
    log_joint, _, iota = _standard_log_arrays(sys, q_w)
    return _density_table((sys.z_grid,), sys.w_labels, log_joint, iota)


def _subset_log_arrays(sys: SubsetSystem, q_kernel=None):
    """(log_joint, log_base, iota) over the (ztilde, s, w) grid for the
    conditional information density, whose base measure is
    P_Ztilde P_S P_{W|Ztilde} (or the auxiliary conditional). The base must
    charge every atom of the joint support; iota is -inf where P(w | z(s))
    or the base conditional is 0."""
    with np.errstate(divide="ignore"):
        log_joint = np.log(sys.joint)
        log_cond = np.log(sys.cond)
        if q_kernel is None:
            log_w_given = np.log(sys.pw_given)
        else:
            log_w_given = _kernel_log_mass(q_kernel, sys.zt_grid, sys.w_labels)
        log_base = (np.log(sys.p_ztilde)[:, None, None] + np.log(sys.p_s)[None, :, None]
                    + log_w_given[:, None, :])
    base = np.broadcast_to(log_w_given[:, None, :], log_cond.shape)
    if np.any((log_joint > NEG_INF) & (base == NEG_INF)):
        raise AbsoluteContinuityViolation(
            "conditional joint atom outside the auxiliary conditional support")
    # log(P(w,zt,s) / (P(w|zt) P(zt) P(s))) reduces to log(P(w|z(s)) / P(w|zt))
    sup = (log_cond > NEG_INF) & (base > NEG_INF)
    iota = np.full_like(log_cond, NEG_INF)
    iota[sup] = log_cond[sup] - base[sup]
    return log_joint, log_base, iota


def _kernel_log_mass(kernel, grid, w_labels: tuple) -> np.ndarray:
    """Log masses of ``kernel`` at every vector of ``grid`` (rows, in code
    order) and every hypothesis label (columns)."""
    rows = kernel.rows_on(grid)
    undefined = np.flatnonzero(rows < 0)
    if undefined.size:
        raise KeyError(grid.vector(undefined[0]))
    column = {w: i for i, w in enumerate(kernel.output_outcomes)}
    return kernel.log_mass[rows][:, [column[w] for w in w_labels]]


def conditional_density(sys: SubsetSystem, q_kernel=None) -> DensityTable:
    """Conditional information density of (W, S) given the supersample."""
    log_joint, _, iota = _subset_log_arrays(sys, q_kernel)
    return _density_table((sys.zt_grid, sys.s_grid), sys.w_labels, log_joint, iota)


# -- divergences ------------------------------------------------------------


def kl(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Relative entropy D(P || Q) in nats; 0*log(0/q) is 0."""
    tbl = density(p, q)
    return tbl.mean


def renyi_divergence(p: FiniteDistribution, q: FiniteDistribution,
                     alpha: float) -> float:
    """Renyi divergence of order alpha; dispatches to KL near alpha = 1."""
    if _near_one(alpha):
        return kl(p, q)
    terms = []
    for o, lm in zip(p.outcomes, p.log_mass):
        if lm == NEG_INF:
            continue
        lq = q.log_mass_of(o) if o in q._index else NEG_INF
        if lq == NEG_INF:
            if alpha > 1:
                raise AbsoluteContinuityViolation(f"P-atom {o!r} has zero Q-mass")
            continue
        terms.append(alpha * lm + (1.0 - alpha) * lq)
    return float(logsumexp(np.asarray(terms)) / (alpha - 1.0))


# -- standard-setting quantities -------------------------------------------


def mutual_information(sys: StandardSystem,
                       q_w: FiniteDistribution | None = None) -> float:
    """I(W; Z) = E[information density]; with an auxiliary Q_W it is the
    relative entropy against Q_W x P_Z instead."""
    return information_density(sys, q_w).mean


def system_renyi(sys: StandardSystem, alpha: float,
                 q_w: FiniteDistribution | None = None) -> float:
    """Renyi divergence of the joint against the (auxiliary) product."""
    if _near_one(alpha):
        return mutual_information(sys, q_w)
    return _joint_renyi(_standard_log_arrays(sys, q_w), alpha)


def _joint_renyi(log_arrays, alpha: float) -> float:
    """Renyi divergence of order alpha from the arrays of ``_standard_log_arrays``."""
    log_joint, log_base, _ = log_arrays
    sup = log_joint > NEG_INF
    terms = alpha * log_joint[sup] + (1.0 - alpha) * log_base[sup]
    return float(logsumexp(terms) / (alpha - 1.0))


def alpha_mi(sys: StandardSystem, alpha: float) -> float:
    """alpha-mutual information I_alpha(Z; W); near alpha = 1 this is I(W; Z)."""
    if _near_one(alpha):
        return mutual_information(sys)
    log_joint, _, iota = _standard_log_arrays(sys)
    with np.errstate(divide="ignore"):
        log_pzn = np.log(sys.pzn_mass)
        log_pw = np.log(sys.pw_mass)
    # inner(w) = (1/alpha) log E_{P_Z}[exp(alpha * iota)]
    inner = logsumexp(log_pzn[:, None] + alpha * iota, axis=0) / alpha
    outer = logsumexp(log_pw + inner)
    return float(alpha / (alpha - 1.0) * outer)


def maximal_leakage(sys: StandardSystem) -> float:
    """log sum_w max_{z in supp} P(w | z-vector)."""
    return _leakage(sys.pzn_mass, sys.cond)


def _leakage(pzn_mass: np.ndarray, cond: np.ndarray) -> float:
    """Maximal leakage from the z-vector masses and the posterior rows."""
    return float(math.log(np.sum(cond[pzn_mass > 0].max(axis=0))))


def max_information(sys: StandardSystem) -> float:
    """Essential supremum of the information density under the joint."""
    return float(information_density(sys).iota.max())


def central_moment(tbl: DensityTable, t: Any) -> float:
    """t-th root of the t-th absolute central moment of iota; T_INF gives the
    essential supremum of the deviation."""
    t = normalize_order(t)
    dev = np.abs(tbl.iota - tbl.mean)
    if t is T_INF:
        return float(dev.max())
    # accumulate in log space so atoms with tiny mass cannot underflow
    with np.errstate(divide="ignore"):
        log_dev = np.where(dev > 0, np.log(np.where(dev > 0, dev, 1.0)), NEG_INF)
    terms = tbl.log_p + t * log_dev
    if np.all(terms == NEG_INF):
        return 0.0
    return float(math.exp(logsumexp(terms) / t))


# -- random-subset quantities ----------------------------------------------


def cond_mutual_information(sys: SubsetSystem, q_kernel=None) -> float:
    """I(W; S | Z-tilde) as the mean conditional information density."""
    return conditional_density(sys, q_kernel).mean


def cond_renyi_divergence(sys: SubsetSystem, alpha: float, q_kernel=None) -> float:
    """Conditional Renyi divergence of order alpha, with the outer
    expectation under P_Ztilde P_{W|Ztilde} P_S."""
    if _near_one(alpha):
        return cond_mutual_information(sys, q_kernel)
    return _cond_renyi(_subset_log_arrays(sys, q_kernel), alpha)


def _cond_renyi(log_arrays, alpha: float) -> float:
    """Conditional Renyi divergence of order alpha from the arrays of
    ``_subset_log_arrays``."""
    _, log_base, iota = log_arrays
    return float(logsumexp(log_base + alpha * iota) / (alpha - 1.0))


def cond_alpha_mi(sys: SubsetSystem, alpha: float) -> float:
    """Conditional alpha-mutual information I_alpha(W; S | Z-tilde)."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return _cond_alpha_mi(sys, _subset_log_arrays(sys)[2], alpha)


def _cond_alpha_mi(sys: SubsetSystem, iota: np.ndarray, alpha: float) -> float:
    """Conditional alpha-mutual information from the density of ``_subset_log_arrays``."""
    with np.errstate(divide="ignore"):
        log_pzt = np.log(sys.p_ztilde)
        log_ps = np.log(sys.p_s)
        log_wg = np.log(sys.pw_given)
    # innermost: log E_{P_S}^{1/alpha}[exp(alpha iota)], per (ztilde, w)
    inner = logsumexp(log_ps[None, :, None] + alpha * iota, axis=1) / alpha
    mid = logsumexp(log_wg + inner, axis=1)  # log E_{P_{W|zt}}[...]
    outer = logsumexp(log_pzt + alpha * mid)
    return float(outer / (alpha - 1.0))


def cond_maximal_leakage(sys: SubsetSystem) -> float:
    """log max_{ztilde in supp} sum_w max_s P(w | ztilde, s)."""
    mask = sys.p_ztilde > 0
    per_zt = sys.cond[mask].max(axis=1).sum(axis=1)
    return float(math.log(per_zt.max()))


# -- posterior relative entropies (inputs to the PAC-Bayesian bounds) -------


def posterior_kls_standard(sys: StandardSystem,
                           q_w: FiniteDistribution | None = None) -> np.ndarray:
    """KL(P_{W|z} || P_W) (or against Q_W) for every z-vector, in z order."""
    with np.errstate(divide="ignore"):
        if q_w is None:
            log_w = np.log(sys.pw_mass)
        else:
            log_w = np.array([q_w.log_mass_of(w) for w in sys.w_labels])
        log_cond = np.log(sys.cond)
    sup = log_cond > NEG_INF
    if np.any(sup & (log_w[None, :] == NEG_INF) & (sys.pzn_mass > 0)[:, None]):
        raise AbsoluteContinuityViolation("posterior atom with zero marginal mass")
    ratio = np.subtract(log_cond, log_w[None, :], out=np.zeros_like(log_cond), where=sup)
    return np.sum(np.where(sup, sys.cond * ratio, 0.0), axis=1)


def _subset_kls(cond: np.ndarray, iota: np.ndarray) -> np.ndarray:
    """KL(P_{W|ztilde,s} || P_{W|ztilde}), shape (|Ztilde|, |S|), from the
    posterior rows and the conditional density of ``_subset_log_arrays``."""
    terms = np.zeros_like(iota)
    sup = iota > NEG_INF
    terms[sup] = cond[sup] * iota[sup]
    return np.sum(terms, axis=2)
