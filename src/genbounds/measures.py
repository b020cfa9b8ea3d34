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
                   TypeGrid, logsumexp)

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
    access; ``arrays`` is the (log joint, log base, iota) grid the table was
    cut from, iota -inf where P(w | data) or the base conditional is 0
    (empty for ``density(p, q)``). The table sorts iota once, on first
    need; its distinct values and the strict tail mass above each are then
    cut from that sort once and kept, read-only, for every delta.
    """

    log_p: np.ndarray
    iota: np.ndarray
    build_outcomes: Callable[[], tuple] = field(repr=False)
    arrays: tuple = field(default=(), repr=False)

    def __post_init__(self):
        for arr in (self.log_p, self.iota, *self.arrays):
            arr.flags.writeable = False
        if self.log_p.shape != self.iota.shape:
            raise ValueError("log_p and iota shape mismatch")

    outcomes = cached_property(lambda self: self.build_outcomes())

    @cached_property
    def mean(self) -> float:
        """E_P[iota] (the mutual/conditional mutual information when the
        base measure is the matching product)."""
        return float(np.sum(np.exp(self.log_p) * self.iota))

    @cached_property
    def _sorted_tails(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted iota, and the log mass from each position on (-inf at the end)."""
        order = np.argsort(self.iota, kind="stable")
        log_tails = np.logaddexp.accumulate(self.log_p[order][::-1])[::-1]
        return self.iota[order], np.append(log_tails, NEG_INF)

    def tail_probability(self, gamma):
        """P[iota > gamma] under the reference measure, at a float gamma or
        at each entry of an array of them, read from the one sort of iota."""
        values, log_tails = self._sorted_tails
        tails = np.exp(log_tails[np.searchsorted(values, gamma, side="right")])
        return tails if np.ndim(gamma) else float(tails)

    @cached_property
    def _distinct_values(self) -> np.ndarray:  # cut from the one sort of iota
        values = self._sorted_tails[0]
        return values[np.append(True, values[1:] != values[:-1])]

    def distinct_values(self) -> np.ndarray:
        return self._distinct_values

    @cached_property
    def _distinct_tails(self) -> np.ndarray:
        tails = self.tail_probability(self._distinct_values)
        tails.flags.writeable = False
        return tails

    def distinct_tails(self) -> np.ndarray:
        """P[iota > v] at each of ``distinct_values()``, read once per table."""
        return self._distinct_tails


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


def _density(grids: Sequence[ProductGrid | TypeGrid], w_labels: tuple, joint: np.ndarray,
             log_mass: np.ndarray, cond: np.ndarray, log_q: np.ndarray) -> DensityTable:
    """The density of ``joint`` on a (context..., data, w) grid, for both
    settings: iota = log P(w | data) - log Q(w | context) where both are
    positive, else -inf, from the posterior rows ``cond`` and the base
    conditional ``log_q`` (broadcast over data). The base measure, log mass
    + log Q, must charge the joint's support. The table keeps the (log joint,
    log base, iota) grid; its outcomes, built on first access, are (w, data
    labels...) in grid order (a type's representative on a ``TypeGrid``),
    made from the grids, so it holds no system."""
    with np.errstate(divide="ignore"):
        log_joint = np.log(joint)
        iota = np.log(cond)
    log_q = np.broadcast_to(log_q, iota.shape)
    if np.any((log_joint > NEG_INF) & (log_q == NEG_INF)):
        raise AbsoluteContinuityViolation(
            "joint atom outside the support of the base measure")
    sup = (iota > NEG_INF) & (log_q > NEG_INF)
    np.subtract(iota, log_q, out=iota, where=sup)
    iota[~sup] = NEG_INF
    log_base = log_mass[..., None] + log_q
    joint_sup = log_joint > NEG_INF

    def outcomes() -> tuple:
        axes = [g.vectors() for g in grids] + [w_labels]
        return tuple((labels[-1],) + labels[:-1]
                     for labels, keep in zip(itertools.product(*axes), joint_sup.ravel())
                     if keep)

    return DensityTable(log_joint[joint_sup], iota[joint_sup], outcomes,
                        (log_joint, log_base, iota))


def information_density(sys: StandardSystem,
                        q_w: FiniteDistribution | None = None) -> DensityTable:
    """Information density of (W, Z) under the system joint, optionally
    against an auxiliary hypothesis marginal Q_W, over the (zvec, w) grid."""
    with np.errstate(divide="ignore"):
        log_q = (np.log(sys.pw_mass) if q_w is None
                 else np.array([q_w.log_mass_of(w) for w in sys.w_labels]))
        log_mass = np.log(sys.pzn_mass)
    return _density((sys.z_grid,), sys.w_labels, sys.joint, log_mass, sys.cond, log_q)


def conditional_density(sys: SubsetSystem, q_kernel=None) -> DensityTable:
    """Conditional information density of (W, S) given the supersample, over
    the (ztilde, s, w) grid, against P_{W|Ztilde} (or the auxiliary
    conditional): log(P(w,zt,s) / (P(w|zt) P(zt) P(s))) = log(P(w|z(s)) / P(w|zt))."""
    with np.errstate(divide="ignore"):
        log_q = (np.log(sys.pw_given) if q_kernel is None  # columns in w_labels order
                 else q_kernel.log_mass_on(sys.zt_grid)[
                     :, [q_kernel.output_outcomes.index(w) for w in sys.w_labels]])
        log_mass = np.log(sys.p_ztilde)[:, None] + np.log(sys.p_s)[None, :]
    return _density((sys.zt_grid, sys.s_grid), sys.w_labels, sys.joint, log_mass,
                    sys.cond, log_q[:, None, :])


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


# -- one formula per quantity, over a (context..., data, w) grid -----------
#
# The standard grid is (z-vector, w), with no context; the subset grid is
# (z-tilde, s, w). iota is a density table's grid iota, ``cond`` the
# posterior rows P(w | data) and ``mass`` the mass of each (context, data).


def _posterior_kls(cond: np.ndarray, iota: np.ndarray) -> np.ndarray:
    """KL(P(. | data) || Q(. | context)) at every (context..., data):
    sum_w cond iota over the support, +inf where the posterior charges a
    hypothesis that Q does not (possible only at data of zero mass)."""
    sup = iota > NEG_INF
    kls = np.multiply(cond, iota, out=np.zeros_like(iota), where=sup).sum(axis=-1)
    kls[np.any((cond > 0) & ~sup, axis=-1)] = math.inf
    return kls


def _renyi(log_arrays, alpha: float) -> float:
    """Renyi divergence of order alpha of the joint against the base measure,
    from the ``arrays`` of a density table: log E_base[e^(alpha iota)] / (alpha - 1)."""
    _, log_base, iota = log_arrays
    return float(logsumexp(log_base + alpha * iota) / (alpha - 1.0))


def _alpha_mi(log_ctx: np.ndarray, log_data: np.ndarray, log_q: np.ndarray,
              iota: np.ndarray, alpha: float) -> float:
    """alpha-mutual information from the grid iota over (context, data, w),
    the context's and the data's log masses and log Q(w | context):
    log E_ctx[E_{Q(w|ctx)}[E_data[e^(alpha iota)]^(1/alpha)]^alpha] / (alpha - 1)."""
    inner = logsumexp(log_data[:, None] + alpha * iota, axis=-2) / alpha
    mid = logsumexp(log_q + inner, axis=-1)  # log E_{Q(w|ctx)}[...], per context
    return float(logsumexp(log_ctx + alpha * mid) / (alpha - 1.0))


def _leakage(mass: np.ndarray, cond: np.ndarray) -> float:
    """Maximal leakage, log max over contexts of sum_w max over the
    positive-mass data of P(w | data)."""
    peaks = np.max(cond, axis=-2, where=(mass > 0)[..., None], initial=0.0)
    return float(math.log(np.max(peaks.sum(axis=-1))))


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
    return _renyi(information_density(sys, q_w).arrays, alpha)


def alpha_mi(sys: StandardSystem, alpha: float) -> float:
    """alpha-mutual information I_alpha(Z; W), the conditional formula with a
    one-point context; near alpha = 1 this is I(W; Z)."""
    if _near_one(alpha):
        return mutual_information(sys)
    with np.errstate(divide="ignore"):
        return _alpha_mi(np.zeros(1), np.log(sys.pzn_mass), np.log(sys.pw_mass),
                         information_density(sys).arrays[2][None], alpha)


def maximal_leakage(sys: StandardSystem) -> float:
    """log sum_w max_{z in supp} P(w | z-vector)."""
    return _leakage(sys.pzn_mass, sys.cond)


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
    # in log space, in the deviation buffer (log 0 = -inf): tiny masses cannot underflow
    with np.errstate(divide="ignore"):
        terms = np.log(dev, out=dev)
    terms *= t
    terms += tbl.log_p
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
    return _renyi(conditional_density(sys, q_kernel).arrays, alpha)


def cond_alpha_mi(sys: SubsetSystem, alpha: float) -> float:
    """Conditional alpha-mutual information I_alpha(W; S | Z-tilde)."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return _cond_alpha_mi(sys, conditional_density(sys).arrays[2], alpha)


def _cond_alpha_mi(sys: SubsetSystem, iota: np.ndarray, alpha: float) -> float:
    """Conditional alpha-mutual information from the grid iota of a
    conditional density table."""
    with np.errstate(divide="ignore"):
        return _alpha_mi(np.log(sys.p_ztilde), np.log(sys.p_s), np.log(sys.pw_given),
                         iota, alpha)


def cond_maximal_leakage(sys: SubsetSystem) -> float:
    """log max_{ztilde in supp} sum_w max_s P(w | ztilde, s)."""
    return _leakage(sys.p_ztilde[:, None] * sys.p_s[None, :], sys.cond)
