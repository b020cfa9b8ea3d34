"""Exact probability machinery on finite outcome spaces.

Distributions carry natural-log masses; every reduction over masses goes
through a max-shifted log-sum-exp so results are permutation invariant up
to ~1e-12. All objects are immutable after construction.
"""
from __future__ import annotations

import itertools
import json
import math
from decimal import Decimal
from typing import Any, Mapping, Sequence

import numpy as np

MASS_ATOL = 1e-12
LOADER_NORMALIZE_ATOL = 1e-9

# Systems with more joint atoms than this are refused (exact enumeration only).
ENUMERATION_BUDGET = 5_000_000

NEG_INF = float("-inf")


class InvalidDistributionError(ValueError):
    """Masses are negative, non-normalized, or structurally malformed."""


class AbsoluteContinuityViolation(ValueError):
    """Some atom of the numerator measure has zero mass under the base measure."""


class BudgetExceededError(RuntimeError):
    """The requested system exceeds the exact-enumeration atom budget."""


def logsumexp(a: Any, axis: int | None = None) -> Any:
    """log(sum(exp(a))) along ``axis`` (all axes by default).

    Every maximal term is taken out of the sum, whose m copies contribute
    log(m) exactly: log1p(s / m) + log(m) + max, as scipy.special.logsumexp
    computes it. An all -inf (or empty) reduction gives -inf.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.size == 0:
        return NEG_INF
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(top, NEG_INF, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        edge = ~np.isfinite(out)  # infinite or NaN maximum: sum directly
        if edge.any():
            out = np.where(edge, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)), out)
    return np.squeeze(out, axis=axis)[()]


def _to_log_mass(probs: Sequence[Any]) -> np.ndarray:
    p = np.asarray([float(x) for x in probs], dtype=float)
    if np.any(p < 0.0):
        raise InvalidDistributionError("negative probability mass")
    with np.errstate(divide="ignore"):
        return np.log(p)


class FiniteDistribution:
    """A labeled finite probability distribution with log-space masses."""

    __slots__ = ("outcomes", "log_mass", "_index")

    def __init__(self, outcomes: Sequence[Any], log_mass: Sequence[float]):
        self.outcomes = tuple(outcomes)
        lm = np.asarray(log_mass, dtype=float)
        if lm.shape != (len(self.outcomes),):
            raise InvalidDistributionError("outcomes and log_mass length mismatch")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise InvalidDistributionError("duplicate outcome labels")
        if not np.all(lm < math.inf):
            raise InvalidDistributionError("probability masses must be finite")
        total = math.exp(logsumexp(lm)) if lm.size else 0.0
        if abs(total - 1.0) > MASS_ATOL:
            raise InvalidDistributionError(f"masses sum to {total!r}, not 1")
        lm.flags.writeable = False
        self.log_mass = lm
        self._index = {o: i for i, o in enumerate(self.outcomes)}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_probs(cls, outcomes: Sequence[Any], probs: Sequence[Any]) -> "FiniteDistribution":
        return cls(outcomes, _to_log_mass(probs))

    @classmethod
    def uniform(cls, outcomes: Sequence[Any]) -> "FiniteDistribution":
        n = len(outcomes)
        return cls(outcomes, np.full(n, -math.log(n)))

    @classmethod
    def point_mass(cls, outcomes: Sequence[Any], at: Any) -> "FiniteDistribution":
        lm = np.full(len(outcomes), NEG_INF)
        lm[list(outcomes).index(at)] = 0.0
        return cls(outcomes, lm)

    @classmethod
    def bernoulli(cls, p: float) -> "FiniteDistribution":
        return cls.from_probs((0, 1), (1.0 - p, p))

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "FiniteDistribution":
        """Load from ``{"outcomes": [...], "probs": [...]}``.

        Probabilities may be floats or decimal strings. Sums deviating from 1
        by less than 1e-9 are renormalized; larger deviations are an error.
        """
        outcomes = [_canonical_label(o) for o in doc["outcomes"]]
        probs = [float(Decimal(x)) if isinstance(x, str) else float(x) for x in doc["probs"]]
        total = sum(probs)
        if abs(total - 1.0) >= LOADER_NORMALIZE_ATOL:
            raise InvalidDistributionError(f"probabilities sum to {total!r}")
        probs = [p / total for p in probs]
        return cls.from_probs(outcomes, probs)

    # -- accessors ----------------------------------------------------------

    @property
    def mass(self) -> np.ndarray:
        return np.exp(self.log_mass)

    def mass_of(self, label: Any) -> float:
        return float(math.exp(self.log_mass[self._index[label]]))

    def log_mass_of(self, label: Any) -> float:
        return float(self.log_mass[self._index[label]])

    @property
    def support(self) -> tuple:
        return tuple(o for o, lm in zip(self.outcomes, self.log_mass) if lm > NEG_INF)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __repr__(self) -> str:
        return f"FiniteDistribution({len(self)} outcomes)"


class JointTable(FiniteDistribution):
    """A FiniteDistribution whose outcomes are fixed-arity tuples."""

    __slots__ = ()

    def __init__(self, outcomes: Sequence[tuple], log_mass: Sequence[float]):
        outcomes = tuple(outcomes)
        if outcomes:
            arities = {len(o) for o in outcomes}
            if len(arities) != 1:
                raise InvalidDistributionError("mixed tuple arities in joint table")
        super().__init__(outcomes, log_mass)

    @property
    def arity(self) -> int:
        return len(self.outcomes[0]) if self.outcomes else 0


class ProductGrid:
    """The n-fold product of a label tuple. Its vectors are numbered by
    base-k codes (k labels, the first coordinate most significant), which is
    ``itertools.product`` order; label tuples are built only on request."""

    __slots__ = ("labels", "n", "size", "_position")

    def __init__(self, labels: Sequence[Any], n: int):
        if n < 0:
            raise ValueError("vector length must be nonnegative")
        self.labels = tuple(labels)
        self.n = n
        self.size = len(self.labels) ** n
        self._position = {lab: i for i, lab in enumerate(self.labels)}

    def code(self, vec: Any) -> int:
        """The code of a vector; KeyError if it is not a vector of the grid."""
        if not isinstance(vec, tuple) or len(vec) != self.n:
            raise KeyError(vec)
        code = 0
        for lab in vec:
            code = code * len(self.labels) + self._position[lab]
        return code

    def vector(self, code: int) -> tuple:
        return tuple(self.labels[d] for d in self.digits(np.array([code]))[0])

    def vectors(self) -> tuple:
        return tuple(itertools.product(self.labels, repeat=self.n))

    def digits(self, codes: np.ndarray) -> np.ndarray:
        """The label indices of each code's vector, shape (len(codes), n)."""
        k = len(self.labels)
        powers = k ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        return (np.asarray(codes, dtype=np.int64)[:, None] // powers) % k

    def fold(self, per_label: np.ndarray, combine, start: Any) -> np.ndarray:
        """``combine`` applied over each vector's labels, left to right from
        ``start``, as one array over codes; ``per_label[d]`` stands for label
        d and may be an array, whose shape the result keeps per code."""
        per_label = np.asarray(per_label)
        acc = np.full((1,) + per_label.shape[1:], start, dtype=per_label.dtype)
        for _ in range(self.n):
            acc = combine(acc[:, None], per_label[None, :]).reshape(
                (-1,) + per_label.shape[1:])
        return acc


class Kernel:
    """A conditional distribution: input label -> distribution over the
    output labels, stored as one ``(rows, outputs)`` array of log masses.

    The inputs are either the vectors of a ``ProductGrid`` (the kernel
    builders of ``models``), whose row r is the vector of code r, or an
    explicit label tuple (a mapping of rows, converted once). Rows are built
    as ``FiniteDistribution`` objects only when indexed.
    """

    __slots__ = ("log_mass", "output_outcomes", "grid", "_labels", "_row")

    def __init__(self, rows: Mapping[Any, FiniteDistribution]):
        rows = dict(rows)
        if not rows:
            raise InvalidDistributionError("empty kernel")
        outputs = {d.outcomes for d in rows.values()}
        if len(outputs) != 1:
            raise InvalidDistributionError("kernel rows disagree on output labels")
        self._set(np.array([d.log_mass for d in rows.values()]), next(iter(outputs)),
                  None, tuple(rows))

    @classmethod
    def on_grid(cls, log_mass: np.ndarray, output_outcomes: Sequence[Any],
                grid: ProductGrid) -> "Kernel":
        """A kernel whose row r is the distribution at the vector of code r;
        every row must be finite and sum to 1 within 1e-12."""
        if grid.size == 0:
            raise InvalidDistributionError("empty kernel")
        if not np.all(log_mass < math.inf):
            raise InvalidDistributionError("probability masses must be finite")
        totals = np.exp(logsumexp(log_mass, axis=1))
        bad = np.flatnonzero(np.abs(totals - 1.0) > MASS_ATOL)
        if bad.size:
            raise InvalidDistributionError(
                f"row {grid.vector(int(bad[0]))!r}: masses sum to {totals[bad[0]]!r}, not 1")
        kernel = object.__new__(cls)
        kernel._set(log_mass, tuple(output_outcomes), grid, None)
        return kernel

    def _set(self, log_mass, output_outcomes, grid, labels) -> None:
        log_mass.flags.writeable = False
        self.log_mass = log_mass
        self.output_outcomes = output_outcomes
        self.grid = grid
        self._labels = labels
        self._row = None if labels is None else {lab: i for i, lab in enumerate(labels)}

    def _row_of(self, label: Any) -> int:
        return self._row[label] if self.grid is None else self.grid.code(label)

    def __getitem__(self, label: Any) -> FiniteDistribution:
        return FiniteDistribution(self.output_outcomes, self.log_mass[self._row_of(label)])

    def __contains__(self, label: Any) -> bool:
        try:
            self._row_of(label)
        except KeyError:
            return False
        return True

    def __len__(self) -> int:
        return self.log_mass.shape[0]

    def __iter__(self):
        return iter(self.input_labels)

    @property
    def rows(self) -> "Kernel":
        """The rows by input label: the kernel itself, whose length is the
        row count."""
        return self

    @property
    def input_labels(self) -> tuple:
        return self._labels if self.grid is None else self.grid.vectors()

    def rows_on(self, grid: ProductGrid) -> np.ndarray:
        """The row of every vector of ``grid``, in code order; -1 where the
        kernel is undefined."""
        if self.grid is None:
            return np.array([self._row.get(v, -1) for v in grid.vectors()], dtype=np.int64)
        if self.grid.n != grid.n:
            return np.full(grid.size, -1, dtype=np.int64)
        pos = np.array([self.grid._position.get(z, -1) for z in grid.labels], dtype=np.int64)
        k = len(self.grid.labels)
        rows = grid.fold(pos, lambda acc, p: acc * k + p, 0)
        rows[grid.fold(pos < 0, np.logical_or, False)] = -1
        return rows

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "Kernel":
        """Load from ``{"rows": {label: {"outcomes": [...], "probs": [...]}}}``."""
        return cls({
            _canonical_label(k): FiniteDistribution.from_json(v)
            for k, v in doc["rows"].items()
        })


def _canonical_label(label: Any) -> Any:
    if isinstance(label, list):
        return tuple(_canonical_label(x) for x in label)
    return label


# -- operations -------------------------------------------------------------


def product(p: FiniteDistribution, q: FiniteDistribution) -> JointTable:
    """Independent product measure with pair-labeled outcomes."""
    outcomes = [(x, y) for x in p.outcomes for y in q.outcomes]
    lm = (p.log_mass[:, None] + q.log_mass[None, :]).ravel()
    return JointTable(outcomes, lm)


def iid_power(p: FiniteDistribution, n: int) -> FiniteDistribution:
    """Distribution of n iid draws, over length-n label tuples."""
    if n < 1:
        raise ValueError("iid_power requires n >= 1")
    check_budget(len(p) ** n)
    grid = ProductGrid(p.outcomes, n)
    return FiniteDistribution(grid.vectors(), power_log_mass(p.log_mass, grid))


def power_log_mass(log_mass: np.ndarray, grid: ProductGrid) -> np.ndarray:
    """Log masses of iid draws over the vectors of ``grid``, in code order:
    each vector's label log masses summed left to right."""
    return grid.fold(np.asarray(log_mass, dtype=float), np.add, 0.0)


def marginalize(j: JointTable, keep: Sequence[int]) -> FiniteDistribution:
    """Sum out all coordinates not in ``keep`` (log-sum-exp aggregation).

    A single kept coordinate yields bare labels; several yield tuples.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("empty keep-set")
    if any(k < 0 or k >= j.arity for k in keep):
        raise ValueError(f"coordinate out of range for arity {j.arity}")
    groups: dict[Any, list[float]] = {}
    for outcome, lm in zip(j.outcomes, j.log_mass):
        key = outcome[keep[0]] if len(keep) == 1 else tuple(outcome[k] for k in keep)
        groups.setdefault(key, []).append(lm)
    labels = list(groups)
    agg = np.array([logsumexp(np.asarray(groups[k])) for k in labels])
    return FiniteDistribution(labels, agg)


def ess_sup(values: Mapping[Any, float] | Sequence[float], dist: FiniteDistribution) -> float:
    """Essential supremum: max of ``values`` over positive-mass outcomes."""
    if isinstance(values, Mapping):
        vals = [values[o] for o in dist.outcomes]
    else:
        vals = list(values)
        if len(vals) != len(dist.outcomes):
            raise ValueError("values and outcomes length mismatch")
    support_vals = [v for v, lm in zip(vals, dist.log_mass) if lm > NEG_INF]
    if not support_vals:
        raise ValueError("distribution has empty support")
    return max(support_vals)


def check_budget(n_atoms: int) -> None:
    if n_atoms > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{n_atoms} joint atoms exceed the enumeration budget of {ENUMERATION_BUDGET}"
        )


def load_distribution(path_or_doc: Any) -> FiniteDistribution:
    if isinstance(path_or_doc, Mapping):
        return FiniteDistribution.from_json(path_or_doc)
    with open(path_or_doc) as fh:
        return FiniteDistribution.from_json(json.load(fh))
