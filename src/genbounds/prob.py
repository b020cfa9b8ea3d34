"""Exact probability machinery on finite outcome spaces.

Distributions carry natural-log masses; every reduction over masses goes
through a max-shifted log-sum-exp so results are permutation invariant up
to ~1e-12. All objects are immutable after construction.
"""
from __future__ import annotations

import itertools
import json
import math
import os
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


def logsumexp(a: Any, axis: int | None = None, starts: Any = None) -> Any:
    """log(sum(exp(a))) along ``axis`` (all axes by default), or over the rows
    of each context of a flat (row, w) array, the contexts starting at ``starts``.

    Every maximal term is taken out of the sum, whose m copies contribute
    log(m) exactly: log1p(s / m) + log(m) + max, as scipy.special.logsumexp
    computes it. An all -inf (or empty) reduction gives -inf. Each reduction
    is one ``ufunc.reduce`` along ``axis``, or one ``ufunc.reduceat`` at
    ``starts``, which sum in different orders.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.size == 0:
        return NEG_INF
    if starts is None:
        reduce = lambda f, x, **kw: f.reduce(x, axis=axis, keepdims=True, **kw)
    else:
        reduce = lambda f, x, **kw: f.reduceat(x, starts, **kw)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = reduce(np.maximum, a)
        wide = a_max if starts is None else np.repeat(  # each term's maximum
            a_max, np.diff(starts, append=len(a)), axis=0)
        top = a == wide
        m = reduce(np.add, top, dtype=float)
        s = np.where(top, NEG_INF, a)  # one float copy of a, then reused in place
        s -= wide
        s = reduce(np.add, np.exp(s, out=s))
        out = np.log1p(s / m) + np.log(m) + a_max
        edge = ~np.isfinite(out)  # infinite or NaN maximum: sum directly
        if edge.any():
            out = np.where(edge, np.log(reduce(np.add, np.exp(a))), out)
    return out if starts is not None else out.squeeze(axis=axis)[()]


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

    def __reduce__(self) -> tuple:  # rebuilt on unpickling, so its array is read-only
        return type(self), (self.outcomes, self.log_mass)

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
        probs = [_probability(x) for x in doc["probs"]]
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
    ``itertools.product`` order; label tuples are built only on request.
    Every code is one vector: its log multiplicity is 0."""

    __slots__ = ("labels", "n", "size", "_position")

    def __init__(self, labels: Sequence[Any], n: int):
        if n < 0:
            raise ValueError("vector length must be nonnegative")
        self.labels = tuple(labels)
        self.n = n
        self.size = self.count(len(self.labels), n)
        self._position = {lab: i for i, lab in enumerate(self.labels)}

    @staticmethod
    def count(k: int, n: int) -> int:
        """The number of codes over k labels, without building the grid."""
        return k ** n

    log_multiplicity = property(lambda self: np.zeros(self.size))

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

    @property
    def counts(self) -> np.ndarray:
        """How often each label occurs in each vector, shape (size, k): sums
        of 0s and 1s, exact in floats."""
        return self.sums(np.eye(len(self.labels))).astype(np.int64)

    def sums(self, per_label: np.ndarray) -> np.ndarray:
        """The sum of ``per_label`` over each vector's labels, left to right
        from 0, as one array over codes; ``per_label[d]`` stands for label d
        and may be an array, whose shape the result keeps per code."""
        per_label = np.asarray(per_label, dtype=float)
        acc = np.zeros((1,) + per_label.shape[1:])
        for _ in range(self.n):
            acc = (acc[:, None] + per_label[None, :]).reshape((-1,) + per_label.shape[1:])
        return acc


_comb = np.frompyfunc(math.comb, 2, 1)  # elementwise, to Python ints


class TypeGrid:
    """The types of the length-n vectors over a label tuple (the method of
    types): code c stands for every vector in which label d occurs
    ``counts[c, d]`` times, and its log multiplicity is the log of their
    number, a multinomial coefficient computed as a Python int and logged
    once, on first read. Codes follow the ``ProductGrid`` order of each
    type's sorted representative (the first label's count descending, then
    the next...), and ``vector``/``vectors`` give that representative. Its
    arrays are read-only, so one grid can serve every kernel over the same
    labels and n."""

    __slots__ = ("labels", "n", "size", "counts", "_log_multiplicity", "_position",
                 "_before")

    def __init__(self, labels: Sequence[Any], n: int):
        if n < 0:
            raise ValueError("vector length must be nonnegative")
        self.labels = tuple(labels)
        k = len(self.labels)
        if not k:
            raise ValueError("a type grid needs at least one label")
        self.n = n
        self.size = self.count(k, n)
        check_budget(self.size)
        self._position = {lab: i for i, lab in enumerate(self.labels)}
        # stars and bars: a type is where its k - 1 bars stand among n + k - 1
        # places, and the combinations of places run in reverse code order
        bars = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(n + k - 1), k - 1)), np.int64,
            count=self.size * (k - 1)).reshape(self.size, k - 1)[::-1]
        edges = np.empty((self.size, k + 1), dtype=np.int64)
        edges[:, 0], edges[:, 1:k], edges[:, k] = -1, bars, n + k - 1
        self.counts = edges[:, 1:] - edges[:, :-1] - 1
        self._log_multiplicity = None
        # _before[d, r]: the types that share a type's counts before label d
        # and count d more often, where it leaves r after d: C(r + k - d - 2, k - d - 1)
        self._before = np.array([[math.comb(r + k - d - 2, k - d - 1) for r in range(n + 1)]
                                 for d in range(k - 1)], dtype=np.int64)
        for arr in (self.counts, self._before):
            arr.flags.writeable = False

    @property
    def log_multiplicity(self) -> np.ndarray:
        """The log of each type's number of vectors, read-only: the
        multinomial coefficient as a product of binomials, in Python ints,
        computed on first read (an orbit grid never reads its pair grid's)."""
        if self._log_multiplicity is None:
            mult, total = np.ones(self.size, dtype=object), np.cumsum(self.counts, axis=1)
            for d in range(1, len(self.labels)):
                mult = mult * _comb(total[:, d], self.counts[:, d])
            self._log_multiplicity = np.fromiter(map(math.log, mult), float, self.size)
            self._log_multiplicity.flags.writeable = False
        return self._log_multiplicity

    def __reduce__(self) -> tuple:  # rebuilt on unpickling, so its arrays are read-only
        return type(self), (self.labels, self.n)

    @staticmethod
    def count(k: int, n: int) -> int:
        """The number of types of length-n vectors over k labels,
        C(n + k - 1, k - 1), without building the grid."""
        return math.comb(n + k - 1, k - 1) if k else int(n == 0)

    def _codes(self, counts: np.ndarray) -> np.ndarray:
        """The code of each row of ``counts`` (label counts summing to n):
        the number of types before it."""
        rest = self.n - np.cumsum(counts[:, :-1], axis=1)
        codes = np.zeros(len(counts), dtype=np.int64)
        for d in range(len(self.labels) - 1):
            codes += self._before[d, rest[:, d]]
        return codes

    def code(self, vec: Any) -> int:
        """The code of a vector's type; KeyError if it is not a vector of the grid."""
        if not isinstance(vec, tuple) or len(vec) != self.n:
            raise KeyError(vec)
        positions = np.array([self._position[lab] for lab in vec], dtype=np.int64)
        return int(self._codes(np.bincount(positions, minlength=len(self.labels))[None])[0])

    def vector(self, code: int) -> tuple:
        return tuple(lab for lab, c in zip(self.labels, self.counts[code].tolist())
                     for _ in range(c))

    def vectors(self) -> tuple:
        return tuple(self.vector(c) for c in range(self.size))

    def codes_on(self, grid: "ProductGrid | TypeGrid") -> np.ndarray:
        """The code of the type of every vector of ``grid``, in its code
        order; -1 where a vector has another length or a label not here."""
        if grid.n != self.n:
            return np.full(grid.size, -1, dtype=np.int64)
        k, theirs = len(self.labels), grid.counts
        counts = np.zeros((grid.size, k + 1), dtype=np.int64)  # column k: labels not here
        for j, lab in enumerate(grid.labels):
            counts[:, self._position.get(lab, k)] += theirs[:, j]
        codes = self._codes(counts[:, :k])
        codes[counts[:, k] > 0] = -1
        return codes

    def sums(self, per_label: np.ndarray) -> np.ndarray:
        """The sum of ``per_label`` over each type's labels: count times
        value per label, added elementwise in label order from 0 (a label
        that does not occur adds 0)."""
        per_label = np.asarray(per_label, dtype=float)
        acc = np.zeros((self.size,) + per_label.shape[1:])
        shape = (-1,) + (1,) * (per_label.ndim - 1)
        with np.errstate(invalid="ignore"):  # 0 * -inf, not added
            for d in range(len(self.labels)):
                counts = self.counts[:, d].reshape(shape)
                np.add(acc, counts * per_label[d], out=acc, where=counts > 0)
        return acc


class OrbitGrid:
    """The orbits of the random-subset setting at length n over the labels
    of ``z_grid``, a ``TypeGrid``: a (supersample, selector) pair is the n
    (selected, unselected) label pairs, and an orbit is their type M, a code
    of ``pairs``, the ``TypeGrid`` over the k^2 ordered label pairs. Its
    context is the type N of the unordered pairs, a code of ``contexts``
    (N_aa = M_aa, N_ab = M_ab + M_ba), the orbit of the supersample.

    Rows are the pair types sorted by context, each context's in code
    order; ``starts`` is each context's first row (all that a record reads
    of these unequal widths) and ``context`` each row's context. ``split``
    is a row's mass given its context, prod_{a<b} C(N_ab, M_ab) 2^-N_ab,
    correctly rounded from exact integers, and ``halves`` the ``z_grid``
    codes of its selected and unselected halves, M's row and column sums.
    Its arrays are read-only: one grid serves every system over the same labels and n."""

    __slots__ = ("n", "pairs", "contexts", "starts", "context", "split", "halves", "_order",
                 "_rank", "_upper")

    def __init__(self, z_grid: TypeGrid):
        labels, n, k = z_grid.labels, z_grid.n, len(z_grid.labels)
        self.n = n
        self.pairs = TypeGrid([(a, b) for a in labels for b in labels], n)
        size = self.pairs.size
        self._upper = np.triu_indices(k)
        a, b = self._upper
        self.contexts = TypeGrid([(labels[i], labels[j]) for i, j in zip(a, b)], n)
        m = self.pairs.counts.reshape(-1, k, k)
        unordered = m[:, a, b] + np.where(a == b, 0, m[:, b, a])
        context = self.contexts._codes(unordered)
        self._order = np.argsort(context, kind="stable")  # the pair-type code of each row
        self._rank = np.empty(size, dtype=np.int64)
        self._rank[self._order] = np.arange(size)
        self.context = context[self._order]
        self.starts = np.searchsorted(self.context, np.arange(self.contexts.size))
        m, unordered, off = m[self._order], unordered[self._order], a != b
        ways = np.ones(size, dtype=object)  # prod C(N_ab, M_ab), as Python ints
        for i, j, col in zip(a[off], b[off], np.flatnonzero(off)):
            ways = ways * _comb(unordered[:, col], m[:, i, j])
        flips = unordered[:, off].sum(axis=1).tolist()  # the pairs a selector can swap
        self.split = np.fromiter((w / (1 << f) for w, f in zip(ways, flips)), float, size)
        self.halves = (z_grid._codes(m.sum(axis=2)), z_grid._codes(m.sum(axis=1)))
        for arr in (self.starts, self.context, self.split, *self.halves, self._order,
                    self._rank, *self._upper):
            arr.flags.writeable = False

    def context_log_mass(self, log_mass: np.ndarray) -> np.ndarray:
        """The log mass of each context under iid draws of the labels'
        ``log_mass``: log multinomial(N) + sum N_aa 2 log P(a) + sum_{a<b}
        N_ab log(2 P(a) P(b)), the supersamples of the context."""
        a, b = self._upper
        return power_log_mass(log_mass[a] + log_mass[b] + np.where(a == b, 0.0, math.log(2.0)),
                              self.contexts)

    def row(self, ztilde: tuple, s: tuple) -> int:
        """The row of a supersample and a selector, labels of the grid: the
        orbit of their (selected, unselected) pairs z-tilde[i + s_i n],
        z-tilde[i + (1 - s_i) n]."""
        n = self.n
        return int(self._rank[self.pairs.code(tuple(
            (ztilde[i + b * n], ztilde[i + (1 - b) * n]) for i, b in enumerate(s)))])

    def vectors(self) -> tuple:
        """One (supersample, selector) per row, in row order: z-tilde = the
        selected labels of the type's sorted representative, then the
        unselected ones, and s = 0^n."""
        zero = (0,) * self.n
        return tuple((tuple(a for a, _ in pairs) + tuple(b for _, b in pairs), zero)
                     for pairs in map(self.pairs.vector, self._order.tolist()))


class Kernel:
    """A conditional distribution: input label -> distribution over the
    output labels, stored as one ``(rows, outputs)`` array of log masses.

    The inputs are either the types of a ``TypeGrid`` (the kernel builders
    of ``models``), whose row is shared by every vector of the type, or an
    explicit label tuple (a mapping of rows, converted once). Row r is the
    code r, and rows are built as ``FiniteDistribution`` objects only when
    indexed. Any grid reads the kernel through ``log_mass_on``.
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
                grid: TypeGrid) -> "Kernel":
        """A kernel whose row r is the distribution at the type of code r;
        every row must be finite and sum to 1 within 1e-12."""
        if grid.size == 0:
            raise InvalidDistributionError("empty kernel")
        if not np.all(log_mass < math.inf):
            raise InvalidDistributionError("probability masses must be finite")
        totals = np.exp(logsumexp(log_mass, axis=1))
        bad = np.flatnonzero(np.abs(totals - 1.0) > MASS_ATOL)
        if bad.size:
            row = int(bad[0])
            raise InvalidDistributionError(
                f"row {grid.vector(row)!r}: masses sum to {float(totals[row])!r}, not 1")
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

    def __reduce__(self) -> tuple:  # rebuilt on unpickling, so its array is read-only
        if self.grid is None:
            return type(self), ({lab: self[lab] for lab in self._labels},)
        return self.on_grid, (self.log_mass, self.output_outcomes, self.grid)

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

    def log_mass_on(self, grid: ProductGrid | TypeGrid) -> np.ndarray:
        """The log masses at every code of ``grid``, shape (grid.size,
        outputs); a label-form kernel reads each code's vector (a type's
        representative on a ``TypeGrid``). A ValueError names the first
        vector where the kernel is undefined."""
        if grid is self.grid:
            rows = np.arange(grid.size)
        elif self.grid is None:
            rows = np.array([self._row.get(v, -1) for v in grid.vectors()], dtype=np.int64)
        else:
            rows = self.grid.codes_on(grid)
        undefined = np.flatnonzero(rows < 0)
        if undefined.size:
            raise ValueError(f"kernel undefined on vector {grid.vector(int(undefined[0]))!r}")
        return self.log_mass[rows]


def _probability(x: Any) -> float:
    """A probability as JSON gives it: a number, or a decimal string such
    as "0.25"; any other string is refused by name."""
    if not isinstance(x, str):
        return float(x)
    try:
        return float(Decimal(x))
    except ArithmeticError:  # decimal.InvalidOperation
        raise InvalidDistributionError(f"probability {x!r} is not a decimal number") from None


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


def power_log_mass(log_mass: np.ndarray, grid: ProductGrid | TypeGrid) -> np.ndarray:
    """Log masses of iid draws over the codes of ``grid``: each vector's
    label log masses summed, plus the code's log multiplicity (0 for a
    vector, the log count of its vectors for a type)."""
    return grid.sums(log_mass) + grid.log_multiplicity


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


def read_json(path_or_doc: Any, name: str) -> Any:
    """A mapping as it is, or the JSON document at a ``str`` or
    ``os.PathLike`` path; anything else, such as an int that ``open`` would
    take for a file descriptor, is a ValueError naming ``name``."""
    if isinstance(path_or_doc, Mapping):
        return path_or_doc
    if not isinstance(path_or_doc, (str, os.PathLike)):
        raise ValueError(f"field {name!r}: expected an object or a path, got {path_or_doc!r}")
    with open(path_or_doc) as fh:
        return json.load(fh)


def load_distribution(path_or_doc: Any) -> FiniteDistribution:
    return FiniteDistribution.from_json(read_json(path_or_doc, "distribution"))
