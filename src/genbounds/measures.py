"""Information quantities on finite distributions and system grids: density
tables, divergences, the alpha-family and leakage formulas, and central
moments of the information density. A system's quantities are its view's
terms (``engine``); label-level ``density``, ``kl`` and ``renyi_divergence``
take the grids' support rule and Renyi formula. All quantities are in nats.
Orders within 1e-6 of 1 dispatch to the KL/mutual-information limit, where
the closed forms are numerically 0/0; a non-finite order is refused. Moment
order t = infinity is a distinguished sentinel (``T_INF``), not a float
smuggled through arithmetic. A system's grid is its flat rows
(``models.Rows``), split into contexts by ``starts``; per-context
reductions are segment reductions.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .models import (ONE_SEGMENT, StandardSystem, SubsetSystem, _logs,  # noqa: F401 (re-exported)
                     _per_vector)
from .prob import NEG_INF, AbsoluteContinuityViolation, FiniteDistribution, logsumexp

ALPHA_ONE_TOL = 1e-6


class MomentOrder(enum.Enum):
    INF = "inf"


T_INF = MomentOrder.INF


def normalize_order(t: Any) -> float | MomentOrder:
    """Accept a positive real, math.inf, or the string 'inf' (the only
    string) for t."""
    if t is T_INF or t == "inf" or (isinstance(t, float) and math.isinf(t)):
        return T_INF
    if isinstance(t, str):
        raise ValueError(f"moment order must be positive, a number or 'inf', got {t!r}")
    t = float(t)
    if not t > 0:  # NaN too
        raise ValueError(f"moment order must be positive, got {t!r}")
    return t


def _near_one(alpha: float) -> bool:
    """Whether the order alpha, which must be finite and positive, takes the
    KL/mutual-information limit."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    return abs(alpha - 1.0) <= ALPHA_ONE_TOL


@dataclass(frozen=True)
class DensityTable:
    """Log-ratio values over the support of a reference joint.

    ``log_p`` are the natural-log masses of the reference measure at the
    support atoms; ``iota`` the log ratio against the base measure there.
    ``build_outcomes`` makes the atoms' labels, ``outcomes``, on first
    access; ``arrays`` is the (log joint, log base, iota) grid the table was
    cut from, iota -inf where P(w | data) or the base conditional is 0; for
    ``density(p, q)`` it is (log P, log Q, iota) over P's outcomes, by the
    same rule. The table sorts iota once, on first
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


def _support_ratio(log_num: np.ndarray, log_den: np.ndarray) -> np.ndarray:
    """The density rule of every table: log_num - log_den where both are
    finite, else -inf, written into ``log_num``."""
    sup = (log_num > NEG_INF) & (log_den > NEG_INF)
    np.subtract(log_num, log_den, out=log_num, where=sup)
    log_num[~sup] = NEG_INF
    return log_num


def _aligned(p: FiniteDistribution, q: FiniteDistribution) -> tuple:
    """(log P, log Q, iota) over P's outcomes: log Q is -inf where Q has no
    mass (or no such outcome), and iota follows the density rule."""
    log_q = np.append(q.log_mass, NEG_INF)[[q._index.get(o, -1) for o in p.outcomes]]
    return p.log_mass, log_q, _support_ratio(p.log_mass.copy(), log_q)


def density(p: FiniteDistribution, q: FiniteDistribution) -> DensityTable:
    """Pointwise log(P/Q) on the support of P; P must be absolutely
    continuous with respect to Q."""
    arrays = log_p, log_q, iota = _aligned(p, q)
    sup = log_p > NEG_INF
    uncharged = sup & (log_q == NEG_INF)
    if uncharged.any():
        raise AbsoluteContinuityViolation(
            f"P-atom {p.outcomes[int(np.argmax(uncharged))]!r} has zero Q-mass")
    return DensityTable(log_p[sup], iota[sup],
                        lambda: tuple(itertools.compress(p.outcomes, sup)), arrays)


def _density(sys: StandardSystem | SubsetSystem, log_q: np.ndarray | None) -> DensityTable:
    """The density of the joint on ``sys.rows``, for both settings: iota =
    log P(w | row) - log Q(w | context) by the density rule, ``log_q`` a
    (context, w) array (None: the system's own P(w | context)). The base measure,
    the row's log mass + log Q, must charge the joint's support. The table
    keeps the (log joint, log base, iota) rows; its outcomes, (w, data
    labels...) in row order, are built on first access from the rows, so
    the table holds no system."""
    rows = sys.rows
    log_ctx, log_data, own_q = rows.log_masses
    log_joint, iota = _logs(rows.joint, rows.cond)
    # each context's log Q on each of its rows, then the log base measure in place
    counts = np.diff(rows.starts, append=len(iota))
    log_base = np.repeat(own_q if log_q is None else log_q, counts, axis=0)
    if np.any((log_joint > NEG_INF) & (log_base == NEG_INF)):
        raise AbsoluteContinuityViolation(
            "joint atom outside the support of the base measure")
    _support_ratio(iota, log_base)
    log_base += (np.repeat(log_ctx, counts) + log_data)[:, None]
    joint_sup = log_joint > NEG_INF

    def outcomes() -> tuple:
        atoms = itertools.product(rows.labels, rows.w_labels)
        return tuple((w, *data) for (data, w), keep in zip(atoms, joint_sup.ravel()) if keep)

    return DensityTable(log_joint[joint_sup], iota[joint_sup], outcomes,
                        (log_joint, log_base, iota))


def information_density(sys: StandardSystem,
                        q_w: FiniteDistribution | None = None) -> DensityTable:
    """Information density of (W, Z) under the system joint, optionally
    against an auxiliary hypothesis marginal Q_W, over the (zvec, w) grid."""
    return _density(sys, None if q_w is None else
                    np.array([[q_w.log_mass_of(w) for w in sys.w_labels]]))


def conditional_density(sys: SubsetSystem, q_kernel=None) -> DensityTable:
    """Conditional information density of (W, S) given the supersample, over
    the flat ((ztilde, s), w) grid, against P_{W|Ztilde} (or the auxiliary
    conditional, read on the per-vector system): log(P(w,zt,s) / (P(w|zt) P(zt)
    P(s))) = log(P(w|z(s)) / P(w|zt))."""
    if q_kernel is None:
        return _density(sys, None)
    sys = _per_vector(sys)
    return _density(sys, q_kernel.log_mass_on(sys.rows.grids[0])[
        :, [q_kernel.output_outcomes.index(w) for w in sys.w_labels]])  # in w_labels order


# -- divergences ------------------------------------------------------------


def kl(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Relative entropy D(P || Q) in nats; 0*log(0/q) is 0."""
    return density(p, q).mean


def renyi_divergence(p: FiniteDistribution, q: FiniteDistribution,
                     alpha: float) -> float:
    """Renyi divergence of order alpha, by the grid formula; dispatches to KL
    near alpha = 1. Above 1, P must be absolutely continuous with respect
    to Q; below it, the P-atoms that Q does not charge add nothing."""
    if _near_one(alpha):
        return kl(p, q)
    return _renyi(density(p, q).arrays if alpha > 1 else _aligned(p, q), alpha)


# -- one formula per quantity, over a flat (row, w) grid ---------------------


def _posterior_kls(cond: np.ndarray, iota: np.ndarray) -> np.ndarray:
    """KL(P(. | row) || Q(. | context)) at every row of the posteriors
    ``cond``: sum_w cond iota over the support, +inf where the posterior
    charges a hypothesis that Q does not (possible only at rows of zero mass)."""
    sup = iota > NEG_INF
    kls = np.multiply(cond, iota, out=np.zeros_like(iota), where=sup).sum(axis=-1)
    kls[np.any((cond > 0) & ~sup, axis=-1)] = math.inf
    return kls


def _renyi(log_arrays, alpha: float) -> float:
    """Renyi divergence of order alpha of the joint against the base measure,
    from the ``arrays`` of a density table: log E_base[e^(alpha iota)] / (alpha - 1)."""
    _, log_base, iota = log_arrays
    return float(logsumexp(log_base + alpha * iota) / (alpha - 1.0))


def _nested_mean(x: np.ndarray, log_ctx: np.ndarray, log_data: np.ndarray,
                 log_q: np.ndarray, starts: np.ndarray, r1: float, r2: float) -> float:
    """log E_ctx[E_{Q(w|ctx)}[E_{row|ctx}[e^x]^r1]^r2] of the (row, w) array
    ``x`` (E_{row|ctx} one ``logsumexp`` at ``starts``), from the log masses of
    each context and of each row given it, and log Q(w | context), a (context, w) array."""
    inner = logsumexp(log_data[:, None] + x, starts=starts)
    return float(logsumexp(log_ctx + r2 * logsumexp(log_q + r1 * inner, axis=-1)))


def _alpha_mi(log_ctx: np.ndarray, log_data: np.ndarray, log_q: np.ndarray,
              iota: np.ndarray, starts: np.ndarray, alpha: float) -> float:
    """alpha-mutual information from the grid iota: the nested mean of
    e^(alpha iota) at exponents (1/alpha, alpha), over alpha - 1."""
    return _nested_mean(alpha * iota, log_ctx, log_data, log_q, starts,
                        1.0 / alpha, alpha) / (alpha - 1.0)


def _leakage(mass: np.ndarray, cond: np.ndarray, starts: np.ndarray) -> float:
    """Maximal leakage, log max over contexts of sum_w max over the
    context's positive-mass rows of P(w | row)."""
    peaks = np.maximum.reduceat(np.where((mass > 0)[:, None], cond, 0.0), starts)
    return float(math.log(np.max(peaks.sum(axis=-1))))


def central_moment(tbl: DensityTable, t: Any) -> float:
    """t-th root of the t-th absolute central moment of iota; T_INF gives the
    essential supremum of the deviation."""
    return _log_norm(np.abs(tbl.iota - tbl.mean), tbl.log_p, normalize_order(t))


def _log_norm(abs_x: np.ndarray, log_p: np.ndarray, t: float | MomentOrder) -> float:
    """(sum p |x|^t)^(1/t) from |x| and the finite log p, summed in log space in
    the buffer ``abs_x`` (log 0 = -inf), so no term underflows or overflows;
    where t log|x| overflows, |x| is first taken relative to its maximum.
    T_INF gives the maximum of |x|."""
    if t is T_INF:
        return float(abs_x.max())
    with np.errstate(divide="ignore"):
        terms = np.log(abs_x, out=abs_x)
    top = float(terms.max())
    if top == NEG_INF:
        return 0.0
    shift = 0.0 if math.isfinite(t * top) else top
    terms -= shift
    with np.errstate(over="ignore"):  # a term far below the largest goes to -inf
        terms *= t
    terms += log_p
    return float(math.exp(logsumexp(terms) / t + shift))
