"""Fully enumerable learning problems: losses, learners, and the joint
distributions they induce in the standard and random-subset settings.

Everything is exact: systems precompute the complete joint table over
(hypothesis, data) atoms, subject to the enumeration budget.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .prob import (
    NEG_INF,
    FiniteDistribution,
    InvalidDistributionError,
    JointTable,
    Kernel,
    OrbitGrid,
    ProductGrid,
    TypeGrid,
    _probability,
    check_budget,
    logsumexp,
    power_log_mass,
    read_json,
)

@dataclass(frozen=True)
class LossTable:
    """Loss values per (hypothesis, instance) with declared range [a, b].

    ``sigma`` is the sub-Gaussian parameter of the loss under any instance
    distribution; a loss bounded on [a, b] is (b-a)/2-sub-Gaussian, which is
    the default. Larger values are permitted, smaller ones rejected.
    """

    hypotheses: tuple
    instances: tuple
    values: np.ndarray  # shape (|W|, |Z|)
    a: float
    b: float
    sigma: float = None  # type: ignore[assignment]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        object.__setattr__(self, "instances", tuple(self.instances))
        for key in ("hypotheses", "instances"):  # a label must name one row or column
            labels = getattr(self, key)
            try:
                distinct = len(set(labels)) == len(labels)
            except TypeError:  # an unhashable label (a JSON list): compared as index() finds it
                distinct = all(labels.index(x) == i for i, x in enumerate(labels))
            if not distinct:
                raise ValueError(f"field {key!r}: duplicate labels in {list(labels)!r}")
        if vals.shape != (len(self.hypotheses), len(self.instances)):
            raise ValueError("loss matrix shape mismatch")
        if not (np.all(np.isfinite(vals)) and math.isfinite(self.a)
                and math.isfinite(self.b)):
            raise ValueError("loss values and range must be finite")
        if self.a > self.b:
            raise ValueError("empty loss range")
        if np.any(vals < self.a - 1e-15) or np.any(vals > self.b + 1e-15):
            raise ValueError("loss value outside declared range")
        default_sigma = (self.b - self.a) / 2.0
        if self.sigma is None:
            object.__setattr__(self, "sigma", default_sigma)
        elif not default_sigma - 1e-15 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and at least (b-a)/2, "
                             "the sub-Gaussian parameter of this range")

    def __reduce__(self) -> tuple:  # rebuilt on unpickling, so its array is read-only
        return type(self), (self.hypotheses, self.instances, self.values, self.a, self.b,
                            self.sigma)

    def loss(self, w: Any, z: Any) -> float:
        return float(self.values[self.hypotheses.index(w), self.instances.index(z)])

    def population_losses(self, pz: FiniteDistribution) -> np.ndarray:
        """The population loss of every hypothesis under ``pz``: one pass
        over Z, in the order of its outcomes."""
        total = 0.0
        for z, lm in zip(pz.outcomes, pz.log_mass):
            total = total + math.exp(lm) * self.values[:, self.instances.index(z)]
        return total

    def totals(self, grid: ProductGrid | TypeGrid) -> np.ndarray:
        """The total loss of every hypothesis on every code of ``grid``,
        shape (|grid|, |W|), summed as ``grid.sums`` sums."""
        cols = [self.instances.index(z) for z in grid.labels]
        return grid.sums(self.values.T[cols])


def zero_one_loss(labels: Sequence[Any]) -> LossTable:
    """The 0/1 loss on W = Z = labels."""
    labels = tuple(labels)
    vals = 1.0 - np.eye(len(labels))
    return LossTable(labels, labels, vals, 0.0, 1.0)


# -- learner kernels --------------------------------------------------------


def _learner_grid(loss: LossTable, n: int) -> TypeGrid:
    """The grid of a built-in learner's rows, the budget checked before it
    is built: every built-in learner sees its data only through the counts
    of each instance, so it has one row per type (at n = 1, per instance)."""
    check_budget(TypeGrid.count(len(loss.instances), n) * len(loss.hypotheses))
    return _type_grid(loss.instances, n)


def _type_grid(labels: Sequence[Any], n: int) -> TypeGrid:
    """The shared, read-only ``TypeGrid`` over ``labels`` at length n. The
    key holds the labels' repr too, so labels that compare equal but print
    differently (1 and 1.0) get grids of their own."""
    labels = tuple(labels)
    return _shared_type_grid(labels, repr(labels), n)


@lru_cache(maxsize=32)  # a verify suite draws about ten (labels, n) pairs
def _shared_type_grid(labels: tuple, spelled: str, n: int) -> TypeGrid:
    return TypeGrid(labels, n)


def gibbs_kernel(loss: LossTable, n: int, beta: float) -> Kernel:
    """P(w | z-vector) proportional to exp(-beta * n * empirical loss).

    beta = 0 gives the uniform learner; beta -> inf approaches ERM with a
    uniform split over tied minimizers. A row whose best logit overflows is
    taken relative to its best total, so it reaches that limit (or, below 0,
    the anti-ERM one).
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    grid = _learner_grid(loss, n)
    totals = loss.totals(grid)
    with np.errstate(over="ignore"):
        logits = -beta * totals
        top = logits.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            over = ~np.isfinite(top[:, 0])  # the rows whose best logit overflows
            best = (totals.min if beta > 0 else totals.max)(axis=1, keepdims=True)
            logits[over] = -beta * (totals[over] - best[over])
            top[over] = 0.0  # their best logit is now 0
    logits -= top  # each row's largest logit is 0
    return Kernel.on_grid(logits - logsumexp(logits, axis=1)[:, None],
                          loss.hypotheses, grid)


def erm_kernel(loss: LossTable, n: int, tie: str = "lowest-index") -> Kernel:
    """Empirical risk minimization with an explicit tie rule."""
    if tie not in ("lowest-index", "uniform-over-argmin"):
        raise ValueError(f"unknown tie rule {tie!r}")
    grid = _learner_grid(loss, n)
    totals = loss.totals(grid)
    argmin = totals <= totals.min(axis=1, keepdims=True) + 1e-12
    if tie == "lowest-index":
        argmin = np.arange(argmin.shape[1]) == argmin.argmax(axis=1)[:, None]
        share = np.zeros((len(totals), 1))
    else:
        log_share = np.array([0.0] + [-math.log(k) for k in range(1, argmin.shape[1] + 1)])
        share = log_share[argmin.sum(axis=1)][:, None]
    return Kernel.on_grid(np.where(argmin, share, NEG_INF), loss.hypotheses, grid)


def constant_kernel(loss: LossTable, n: int,
                    weights: Sequence[float] | None = None) -> Kernel:
    """A learner that ignores the data entirely (uniform over W by default)."""
    if weights is None:
        row = FiniteDistribution.uniform(loss.hypotheses)
    else:  # taken as given, not renormalised
        row = _named("weights", FiniteDistribution.from_probs, loss.hypotheses, weights)
    grid = _learner_grid(loss, n)
    return Kernel.on_grid(np.broadcast_to(row.log_mass, (grid.size, len(row))),
                          loss.hypotheses, grid)


def identity_kernel(loss: LossTable) -> Kernel:
    """The n=1 learner that outputs its single training sample (W = Z)."""
    if loss.hypotheses != loss.instances:
        raise ValueError("identity learner needs matching hypothesis/instance labels")
    eye = np.eye(len(loss.instances), dtype=bool)  # type d is the vector (d,)
    return Kernel.on_grid(np.where(eye, 0.0, NEG_INF), loss.hypotheses,
                          _learner_grid(loss, 1))


# -- assembled systems ------------------------------------------------------

ONE_SEGMENT = np.zeros(1, dtype=np.intp)  # the starts of a one-context grid
ONE_SEGMENT.flags.writeable = False


def _logs(*masses) -> tuple:
    """The natural log of each array of ``masses``, log 0 = -inf."""
    with np.errstate(divide="ignore"):
        return tuple(np.log(m) for m in masses)


def _lookup(find: Callable[[Any], int], label: Any) -> int:
    """``find(label)``, a code or an index; an unknown label is a KeyError naming it."""
    try:
        return find(label)
    except (KeyError, ValueError, TypeError):
        raise KeyError(f"{label!r} is not an outcome of the system") from None


@dataclass(frozen=True)
class Rows:
    """A system's grid as flat rows, the one layout that the system stores
    and that its views, density tables and measures read: ``joint``,
    ``cond`` (the posteriors), ``values`` (the value bounded) and ``gen`` are
    C-contiguous (row, w) arrays and ``mass`` is per row; ``starts`` is each
    context's first row, and ``log_masses`` are each context's log mass,
    each row's log mass given its context, and the (context, w) log P(w |
    context). ``grids`` are the data axes, whose codes check the labels;
    in product order they number the rows, unless ``orbits``, an
    ``OrbitGrid``, numbers them by orbit. ``w_labels`` number the w axis;
    only ``row``, ``atom`` and ``labels`` read the numbering. Contexts are
    contiguous, non-empty and of any width; every array is read-only."""

    grids: tuple
    w_labels: tuple
    starts: np.ndarray
    mass: np.ndarray
    joint: np.ndarray
    cond: np.ndarray
    values: np.ndarray
    gen: np.ndarray
    log_masses: tuple
    orbits: OrbitGrid | None = None

    def __post_init__(self):
        for arr in (self.starts, self.mass, self.joint, self.cond, self.values, self.gen,
                    *self.log_masses):
            arr.flags.writeable = False

    def row(self, *data) -> int:
        """The row of the data labels, one per grid: a z-vector, or a
        supersample and a selector. An unknown label raises a KeyError naming it."""
        row = 0
        for grid, label in zip(self.grids, data, strict=True):
            row = row * grid.size + _lookup(grid.code, label)
        return row if self.orbits is None else self.orbits.row(*data)

    def atom(self, w: Any, *data) -> tuple[int, int]:
        """The (row, w) index of hypothesis ``w`` at the data labels."""
        return self.row(*data), _lookup(self.w_labels.index, w)

    @cached_property
    def labels(self) -> tuple:
        """Each row's data labels, in row order (a type's sorted
        representative, or an orbit's, with s = 0^n)."""
        if self.orbits is not None:
            return self.orbits.vectors()
        return tuple(itertools.product(*(grid.vectors() for grid in self.grids)))


@dataclass(frozen=True, eq=False)  # views are keyed weakly by identity
class _System:
    """The shell of both settings: the inputs, and the row record that
    ``_store`` builds from each setting's arrays, the one layout it stores.
    ``w_labels``, ``cond`` and ``joint`` read the record. A system pickles as
    its inputs: an unpickled copy builds a read-only record of its own."""

    pz: FiniteDistribution
    n: int
    learner: Kernel
    loss: LossTable
    rows: Rows = field(init=False)

    w_labels = property(lambda self: self.rows.w_labels)
    cond = property(lambda self: self.rows.cond)
    joint = property(lambda self: self.rows.joint)

    def __reduce__(self) -> tuple:
        return type(self), (self.pz, self.n, self.learner, self.loss)

    def _store(self, grids: tuple, starts: np.ndarray, ctx_mass: np.ndarray,
               row_mass: np.ndarray, cond: np.ndarray, z_grid, halves: tuple | None = None,
               orbits: OrbitGrid | None = None) -> None:
        """Store the record of the contexts that start at ``starts``: a row's
        mass is its context's ``ctx_mass`` times its ``row_mass`` (in place),
        the joint that times ``cond``, Q(w | context) the row-mass-weighted
        sum of the context's posteriors, added in row order by ``np.add.at``
        (``np.add.reduceat`` adds pairwise). A row trains on its ``z_grid``
        code, tested on the population, or on ``halves[0]``, tested on
        ``halves[1]``; gen and values (population and test minus training
        loss) are made after the joint, for a lower peak RSS."""
        context = np.bincount(starts[1:], minlength=len(row_mass)).cumsum()  # each row's context
        joint = row_mass[:, None] * cond  # the weighted posteriors, then the joint in place
        q = np.zeros((len(starts), joint.shape[1]))
        np.add.at(q, context, joint)  # row by row, in row order
        log_masses = _logs(ctx_mass, row_mass, q)
        scale = ctx_mass[context]
        joint *= scale[:, None]
        row_mass *= scale  # row_mass becomes the mass
        emp = self.loss.totals(z_grid) / self.n
        train = emp if halves is None else emp[halves[0]]
        gen = self.loss.population_losses(self.pz) - train
        object.__setattr__(self, "rows", Rows(
            grids, tuple(self.learner.output_outcomes), starts, row_mass, joint, cond,
            gen if halves is None else emp[halves[1]] - train, gen, log_masses, orbits))


@dataclass(frozen=True, eq=False)
class StandardSystem(_System):
    """The standard setting: iid data, learner kernel, derived joint and marginal.

    Its record has one context, of mass 1, whose rows are the codes of the
    data grid ``rows.grids[0]``, of the learner's grid kind: ``mass`` is
    P(z-vector), ``cond`` P(w | z-vector), ``values`` and ``gen`` the
    generalization error at each atom, and log Q, one row, is log P(w).
    For a learner on a ``TypeGrid`` a row is a type class, every vector of
    which has the same posterior, gen and density; its mass is the whole class's.
    """

    setting = "standard"

    def __post_init__(self):
        _check_system(self)
        grid = _data_grid(self.learner, self.pz.outcomes, self.n)
        self._store((grid,), ONE_SEGMENT, np.ones(1),
                    np.exp(power_log_mass(self.pz.log_mass, grid)),
                    np.exp(self.learner.log_mass_on(grid)), grid)

    @property
    def sigma(self) -> float:
        return self.loss.sigma

    def joint_table(self) -> JointTable:
        """The joint over (w, z-vector) atoms, one per row of the record."""
        outcomes = [(w, zvec) for (zvec,) in self.rows.labels for w in self.w_labels]
        return JointTable(outcomes, *_logs(self.joint.ravel()))

    def posterior(self, zvec: tuple) -> FiniteDistribution:
        return self.learner[zvec]


def _check_system(sys) -> None:
    """Checks common to both settings, the budget before any enumeration."""
    if sys.n < 1:
        raise ValueError("n must be >= 1")
    w_labels = tuple(sys.learner.output_outcomes)
    if w_labels != sys.loss.hypotheses:
        raise ValueError("learner output labels do not match loss hypotheses")
    k, n_w = len(sys.pz), len(w_labels)
    grid = ProductGrid if sys.learner.grid is None else type(sys.learner.grid)
    check_budget(grid.count(k, sys.n) * n_w if sys.setting == "standard"
                 else _subset_atoms(k, sys.n, n_w, sys.learner.grid is not None))


def _subset_atoms(k: int, n: int, n_w: int, on_types: bool) -> int:
    """The atom count of a subset system over k instances and n_w
    hypotheses: on the orbit grid, where its learner is ``on_types`` (the
    built-in ones), one per (type of the n label pairs, w),
    C(n + k^2 - 1, k^2 - 1) n_w, else one per (z-tilde, s, w), k^(2n) 2^n n_w."""
    return (TypeGrid.count(k * k, n) if on_types else k ** (2 * n) * 2 ** n) * n_w


def _data_grid(learner: Kernel, labels: Sequence[Any], n: int) -> ProductGrid | TypeGrid:
    """The grid of a standard system's data axis: of the learner's kind, and
    the learner's own grid where that is over the same labels and length."""
    grid = learner.grid
    if grid is None:
        return ProductGrid(labels, n)
    return grid if grid.labels == tuple(labels) and grid.n == n else _type_grid(labels, n)


assemble_standard = StandardSystem


@dataclass(frozen=True, eq=False)
class SubsetSystem(_System):
    """The random-subset setting: a 2n supersample, a Bernoulli(1/2) selector,
    and a learner acting on the selected half.

    Its record's data axes ``rows.grids`` are the z-tilde grid and the s
    grid. ``cond`` is P(w | z(s)), ``values`` the test-minus-train gap,
    ``gen`` the ordinary generalization error on the selected half, and a
    context's log Q is log P(w | z-tilde), S marginalized out.

    Per vector, a context is a supersample of |S| rows, row zt_code * |S| +
    s_code, each of mass 2^-n given it: the layout of a label-form
    (``custom-kernel``) learner. A learner on a type grid (Gibbs, ERM,
    constant, identity) sees (z-tilde, s) only through its (selected,
    unselected) label pairs, so its system is on the orbit grid
    ``rows.orbits`` (``prob.OrbitGrid``): a row is a type M of those pairs
    and a context a type N of the unordered pairs, of mass multinomial(N)
    prod P(a)^(2 N_aa) prod_{a<b} (2 P(a) P(b))^N_ab; a row's mass given
    its context is its split weight, and its posterior the learner's row at
    its selected type. ``_per_vector`` gives its per-vector system.
    """

    setting = "subset"

    def __post_init__(self):
        _check_system(self)
        labels, n = self.pz.outcomes, self.n
        grids = (ProductGrid(labels, 2 * n), ProductGrid((0, 1), n))
        if self.learner.grid is not None:
            orbits = _orbit_grid(labels, repr(labels), n)
            z_grid, halves = _data_grid(self.learner, labels, n), orbits.halves
            starts, ctx_mass = orbits.starts, np.exp(orbits.context_log_mass(self.pz.log_mass))
            row_mass = orbits.split.copy()
        else:
            orbits, z_grid, halves = None, ProductGrid(labels, n), _halves(*grids)
            starts = np.arange(grids[0].size) * grids[1].size
            ctx_mass = np.exp(power_log_mass(self.pz.log_mass, grids[0]))
            row_mass = np.full(grids[0].size * grids[1].size, 0.5 ** n)
        self._store(grids, starts, ctx_mass, row_mass,
                    np.exp(self.learner.log_mass_on(z_grid)[halves[0]]), z_grid, halves, orbits)

    def select(self, ztilde: tuple, s: tuple) -> tuple:
        """Training vector z(s): the ith sample is ztilde[i + s_i * n]."""
        return tuple(ztilde[i + s[i] * self.n] for i in range(self.n))


def _halves(zt_grid: ProductGrid, s_grid: ProductGrid) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the selected and the unselected half at every row, row
    zt_code * |S| + s_code, on the grid of length-n vectors: the ith
    sample of z(s) is ztilde[i + s_i n]."""
    n, k, width = s_grid.n, len(zt_grid.labels), s_grid.size
    zt = zt_grid.digits(np.arange(zt_grid.size))
    s = s_grid.digits(np.arange(width))
    ctx = np.repeat(np.arange(zt_grid.size), width)
    sel = unsel = np.zeros(len(ctx), dtype=np.int64)
    for i in range(n):
        s_i = np.tile(s[:, i], zt_grid.size)
        sel = sel * k + zt[ctx, i + n * s_i]
        unsel = unsel * k + zt[ctx, i + n * (1 - s_i)]
    return sel, unsel


@lru_cache(maxsize=32)  # a verify suite draws at most six (labels, n) pairs
def _orbit_grid(labels: tuple, spelled: str, n: int) -> OrbitGrid:
    """The shared, read-only ``OrbitGrid`` over ``labels`` at length n,
    keyed by the labels' repr too, as ``_type_grid`` is."""
    return OrbitGrid(_type_grid(labels, n))


def _per_vector(sys: SubsetSystem) -> SubsetSystem:
    """``sys`` on the per-vector grid: itself, or an orbit system rebuilt
    with its learner read at every z-vector, one row per (z-tilde, s), within
    the per-vector budget. Inputs that need not be constant on an orbit (a
    Holder event, an auxiliary conditional of z-tilde) are read on it."""
    if sys.rows.orbits is None:
        return sys
    check_budget(_subset_atoms(len(sys.pz), sys.n, len(sys.w_labels), False))
    grid, outputs = ProductGrid(sys.pz.outcomes, sys.n), sys.learner.output_outcomes
    return SubsetSystem(sys.pz, sys.n, Kernel({
        v: FiniteDistribution(outputs, row)
        for v, row in zip(grid.vectors(), sys.learner.log_mass_on(grid))}), sys.loss)


assemble_subset = SubsetSystem


# -- generalization error evaluation ---------------------------------------


def gen(sys: StandardSystem, w: Any, zvec: tuple) -> float:
    """Population loss minus empirical loss at one (hypothesis, data) atom."""
    return float(sys.rows.gen[sys.rows.atom(w, zvec)])


def expected_gen(sys: StandardSystem | SubsetSystem) -> float:
    """E[gen] under the full joint, E[gen(W, Z(S))] in the subset setting,
    summed over the flat (row, w) grid."""
    rows = sys.rows
    return float(np.sum(rows.joint * rows.gen))


def gen_hat(sys: SubsetSystem, w: Any, ztilde: tuple, s: tuple) -> float:
    """Mean loss on the unselected half minus mean loss on the selected half."""
    return float(sys.rows.values[sys.rows.atom(w, ztilde, s)])


expected_gen_subset = expected_gen


def expected_gen_hat(sys: SubsetSystem) -> float:
    """E[the test-minus-train gap] under the full joint, summed as ``expected_gen``."""
    rows = sys.rows
    return float(np.sum(rows.joint * rows.values))


# -- problem files ----------------------------------------------------------

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _real(value: Any) -> float:
    """A number as a float; a string is not a number."""
    if isinstance(value, str):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integral(value: Any) -> int:
    """An integral number as an int; a fractional value is refused."""
    if not _real(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _number(key: str, value: Any, convert: Callable[[Any], Any] = _real) -> Any:
    """``convert(value)`` for the number ``value`` of the field ``key``; a
    bool, or a value of the wrong type or form (a string, unless ``convert``
    reads one), is a ValueError naming it."""
    try:
        if isinstance(value, bool):
            raise TypeError(f"{value!r} is not a number")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _named(key: str, build: Callable[..., FiniteDistribution], *args) -> FiniteDistribution:
    """``build(*args)``, the distribution given by the field ``key``; a
    refusal of its masses is re-raised naming the field."""
    try:
        return build(*args)
    except InvalidDistributionError as exc:
        raise InvalidDistributionError(f"field {key!r}: {exc}") from None


def _field(key: str, value: Any, kind: type, length: int | None = None) -> Any:
    """``value`` if it is a ``kind`` (a list may be a tuple) of ``length``
    items; anything else is a ValueError naming the field ``key``."""
    if not isinstance(value, (list, tuple) if kind is list else kind) or (
            length not in (None, len(value))):
        shape = "an object" if kind is Mapping else f"a list of {length}" if length else "a list"
        raise ValueError(f"field {key!r}: expected {shape}, got {value!r}")
    return value


def _parse_loss(doc: Mapping[str, Any], instances: Sequence[Any]) -> LossTable:
    a, b = (_number("range", x) for x in _field("range", doc["range"], list, 2))
    matrix = np.asarray(doc["matrix"], dtype=object)
    return LossTable(
        hypotheses=tuple(_field("hypotheses", doc["hypotheses"], list)),
        instances=tuple(instances),
        values=np.array([_number("matrix", x) for x in matrix.ravel()]).reshape(matrix.shape),
        a=a,
        b=b,
        sigma=_number("sigma", doc["sigma"]) if "sigma" in doc else None,
    )


def _parse_learner(doc: Mapping[str, Any], loss: LossTable, n: int) -> Kernel:
    kind = doc["kind"]
    if kind == "gibbs":
        return gibbs_kernel(loss, n, _number("beta", doc["beta"]))
    if kind == "erm":
        return erm_kernel(loss, n, doc.get("tie", "lowest-index"))
    if kind == "constant":
        weights = doc.get("weights")
        return constant_kernel(loss, n, weights if weights is None else [
            _number("weights", w) for w in _field("weights", weights, list, len(loss.hypotheses))])
    if kind == "identity":
        if n != 1:
            raise ValueError(f"the identity learner needs n = 1, not n = {n}")
        return identity_kernel(loss)
    if kind == "custom-kernel":
        return _custom_kernel(doc["rows"], loss.instances)
    raise ValueError(f"unknown learner kind {kind!r}")


def _custom_kernel(rows: Any, instances: Sequence[Any]) -> Kernel:
    """A kernel from rows keyed by z-vectors written as their labels' text
    joined by ','; instance labels that this syntax cannot express are
    refused."""
    if not isinstance(rows, Mapping):
        raise ValueError("custom-kernel rows must map z-vector keys to distributions")
    by_text = {}
    for lab in instances:
        text = str(lab)
        if "," in text:
            raise ValueError(f"instance label {lab!r} cannot be written in a "
                             f"custom-kernel key: its text {text!r} contains ','")
        if text in by_text:
            raise ValueError(f"instance labels {by_text[text]!r} and {lab!r} are both "
                             f"written {text!r} in custom-kernel keys")
        by_text[text] = lab

    def zvec(key: str) -> tuple:
        tokens = key.split(",")
        unknown = [tok for tok in tokens if tok not in by_text]
        if unknown:
            raise ValueError(f"unknown instance label {unknown[0]!r}")
        return tuple(by_text[tok] for tok in tokens)

    def row(key: str, doc: Any) -> FiniteDistribution:  # a probability may be a decimal string
        """The row at ``key``; a malformed one is refused naming ``rows`` and the key."""
        try:
            if not isinstance(doc, Mapping):
                raise ValueError(f"expected an object, got {doc!r}")
            for entry in ("outcomes", "probs"):
                if entry not in doc:
                    raise ValueError(f"no {entry!r} entry")
                _field(entry, doc[entry], list)
            probs = [_number("probs", p, _probability) for p in doc["probs"]]
            return FiniteDistribution.from_json(dict(doc, probs=probs))
        except ValueError as exc:
            raise type(exc)(f"field 'rows', row {key!r}: {exc}") from None

    return Kernel({zvec(key): row(key, doc) for key, doc in rows.items()})


def load_problem(path_or_doc: Any) -> tuple[str, StandardSystem | SubsetSystem]:
    """Load a problem definition, an object or a path; returns (setting, system)."""
    doc = read_json(path_or_doc, "problem")
    setting = doc["setting"]
    if setting not in ("standard", "subset"):
        raise ValueError(f"unknown setting {setting!r}")
    instances = [tuple(o) if isinstance(o, list) else o
                 for o in _field("instances", doc["instances"], list)]
    if not instances:
        raise ValueError("field 'instances': no instance is listed")
    # before P_Z, so that the loss table names a repeated instance label
    loss = _parse_loss(_field("loss", doc["loss"], Mapping), instances)
    if "pz" in doc:  # a probability may be a decimal string
        probs = [_number("pz", p, _probability)
                 for p in _field("pz", doc["pz"], list, len(instances))]
        pz = _named("pz", FiniteDistribution.from_json, {"outcomes": instances, "probs": probs})
    else:
        pz = FiniteDistribution.uniform(instances)
    n = _number("n", doc["n"], _integral)
    if n < 1:
        raise ValueError(f"field 'n': {n} is not at least 1")
    if setting == "subset":  # the joint is larger than the learner's grid: size it first
        learner = doc.get("learner")
        kind = learner.get("kind") if isinstance(learner, Mapping) else None
        check_budget(_subset_atoms(len(instances), n, len(loss.hypotheses),
                                   kind != "custom-kernel"))
    system = StandardSystem if setting == "standard" else SubsetSystem
    learner = _parse_learner(_field("learner", doc["learner"], Mapping), loss, n)
    return setting, system(pz, n, learner, loss)


def fixture_path(name: str) -> Path:
    return _FIXTURE_DIR / f"{name}.json"


def load_fixture(name: str) -> tuple[str, StandardSystem | SubsetSystem]:
    """Load one of the shipped canonical instances: inst_a, inst_b, inst_c."""
    return load_problem(fixture_path(name))
