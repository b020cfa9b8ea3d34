"""Fully enumerable learning problems: losses, learners, and the joint
distributions they induce in the standard and random-subset settings.

Everything is exact: systems precompute the complete joint table over
(hypothesis, data) atoms, subject to the enumeration budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .prob import (
    NEG_INF,
    FiniteDistribution,
    JointTable,
    Kernel,
    ProductGrid,
    TypeGrid,
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

    def loss(self, w: Any, z: Any) -> float:
        return float(self.values[self.hypotheses.index(w), self.instances.index(z)])

    def population_losses(self, pz: FiniteDistribution) -> np.ndarray:
        """The population loss of every hypothesis under ``pz``: one pass
        over Z, in the order of its outcomes."""
        total = 0.0
        for z, lm in zip(pz.outcomes, pz.log_mass):
            total = total + math.exp(lm) * self.values[:, self.instances.index(z)]
        return total

    def population_loss(self, w: Any, pz: FiniteDistribution) -> float:
        return float(self.population_losses(pz)[self.hypotheses.index(w)])

    def totals(self, grid: ProductGrid | TypeGrid) -> np.ndarray:
        """The total loss of every hypothesis on every code of ``grid``,
        shape (|grid|, |W|), summed as ``grid.sums`` sums."""
        cols = [self.instances.index(z) for z in grid.labels]
        return grid.sums(self.values.T[cols])

    def empirical_loss(self, w: Any, zvec: Sequence[Any]) -> float:
        wi = self.hypotheses.index(w)
        return float(np.mean([self.values[wi, self.instances.index(z)] for z in zvec]))


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
    uniform split over tied minimizers.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    grid = _learner_grid(loss, n)
    logits = -beta * loss.totals(grid)
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
    else:
        row = FiniteDistribution.from_probs(loss.hypotheses, weights)
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


def _set_derived(system, **fields) -> None:
    """Set the derived fields of a frozen system; arrays become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(system, name, value)


@dataclass(frozen=True, eq=False)
class StandardSystem:
    """The standard setting: iid data, learner kernel, derived joint and marginal.

    Arrays: ``pzn_mass`` over z-vectors, ``cond[z, w]`` = P(w | z-vector),
    ``joint[z, w]``, ``pw_mass`` over W, ``gen[w, z]`` the generalization
    error at each atom. The z axis is in code order of ``z_grid``, the grid
    kind of the learner: for a learner on a ``TypeGrid`` an atom is a type
    class, every vector of which has the same row, gen and density, and
    ``pzn_mass`` is the mass of the whole class.
    """

    setting = "standard"
    pz: FiniteDistribution
    n: int
    learner: Kernel
    loss: LossTable
    z_grid: ProductGrid | TypeGrid = field(init=False)
    w_labels: tuple = field(init=False)
    pzn_mass: np.ndarray = field(init=False)
    cond: np.ndarray = field(init=False)
    joint: np.ndarray = field(init=False)
    pw_mass: np.ndarray = field(init=False)
    gen_table: np.ndarray = field(init=False)

    def __post_init__(self):
        w_labels = _check_system(self)
        grid = _data_grid(self.learner, self.pz.outcomes, self.n)
        pzn_mass = np.exp(power_log_mass(self.pz.log_mass, grid))
        cond = np.exp(self.learner.log_mass_on(grid))
        joint = pzn_mass[:, None] * cond
        pop = self.loss.population_losses(self.pz)
        emp = self.loss.totals(grid) / self.n
        _set_derived(self, z_grid=grid, w_labels=w_labels, pzn_mass=pzn_mass,
                     cond=cond, joint=joint, pw_mass=joint.sum(axis=0),
                     gen_table=np.ascontiguousarray((pop - emp).T))

    @cached_property
    def zvecs(self) -> tuple:
        """The z-vector labels, in code order: on a ``TypeGrid``, one sorted
        representative per type."""
        return self.z_grid.vectors()

    @property
    def sigma(self) -> float:
        return self.loss.sigma

    @property
    def pw(self) -> FiniteDistribution:
        with np.errstate(divide="ignore"):
            return FiniteDistribution(self.w_labels, np.log(self.pw_mass))

    def joint_table(self) -> JointTable:
        """The joint over (w, z-vector) atoms, one per code of ``z_grid``."""
        outcomes = [(w, zvec) for zvec in self.zvecs for w in self.w_labels]
        with np.errstate(divide="ignore"):
            lm = np.log(self.joint.ravel())
        return JointTable(outcomes, lm)

    def posterior(self, zvec: tuple) -> FiniteDistribution:
        return self.learner[zvec]


def _check_system(sys) -> tuple:
    """Checks common to both settings, the budget before any enumeration;
    returns the hypothesis labels."""
    if sys.n < 1:
        raise ValueError("n must be >= 1")
    w_labels = tuple(sys.learner.output_outcomes)
    if w_labels != sys.loss.hypotheses:
        raise ValueError("learner output labels do not match loss hypotheses")
    k, n_w = len(sys.pz), len(w_labels)
    check_budget(_grid_kind(sys.learner).count(k, sys.n) * n_w if sys.setting == "standard"
                 else _subset_atoms(k, sys.n, n_w))
    return w_labels


def _subset_atoms(k: int, n: int, n_w: int) -> int:
    """The atom count of a subset system's (z-tilde, s, w) joint over k
    instances and n_w hypotheses, whatever the learner."""
    return k ** (2 * n) * 2 ** n * n_w


def _grid_kind(learner: Kernel) -> type:
    """The grid class of a learner's rows: a label-form kernel's are vectors."""
    return ProductGrid if learner.grid is None else type(learner.grid)


def _data_grid(learner: Kernel, labels: Sequence[Any], n: int) -> ProductGrid | TypeGrid:
    """The grid of a standard system's data axis: of the learner's kind, and
    the learner's own grid where that is over the same labels and length."""
    grid = learner.grid
    if grid is None:
        return ProductGrid(labels, n)
    return grid if grid.labels == tuple(labels) and grid.n == n else _type_grid(labels, n)


def assemble_standard(pz: FiniteDistribution, n: int, learner: Kernel,
                      loss: LossTable) -> StandardSystem:
    return StandardSystem(pz, n, learner, loss)


@dataclass(frozen=True, eq=False)
class SubsetSystem:
    """The random-subset setting: a 2n supersample, a Bernoulli(1/2) selector,
    and a learner acting on the selected half.

    Arrays: ``p_ztilde`` over 2n-tuples, ``cond[zt, s, w]`` = P(w | z(s)),
    ``pw_given[zt, w]`` = P(w | z-tilde) by marginalizing out S,
    ``genhat[zt, s, w]`` the test-minus-train gap, ``gen_sel[zt, s, w]`` the
    ordinary generalization error on the selected half. The zt and s axes
    are in code order of ``zt_grid`` and ``s_grid``.
    """

    setting = "subset"
    pz: FiniteDistribution
    n: int
    learner: Kernel
    loss: LossTable
    zt_grid: ProductGrid = field(init=False)
    s_grid: ProductGrid = field(init=False)
    w_labels: tuple = field(init=False)
    p_ztilde: np.ndarray = field(init=False)
    p_s: np.ndarray = field(init=False)
    cond: np.ndarray = field(init=False)
    joint: np.ndarray = field(init=False)
    pw_given: np.ndarray = field(init=False)
    genhat: np.ndarray = field(init=False)
    gen_sel: np.ndarray = field(init=False)

    def __post_init__(self):
        w_labels = _check_system(self)
        n = self.n
        z_grid = ProductGrid(self.pz.outcomes, n)
        zt_grid = ProductGrid(self.pz.outcomes, 2 * n)
        s_grid = ProductGrid((0, 1), n)
        sel, unsel = _halves(zt_grid, s_grid)
        cond = np.exp(self.learner.log_mass_on(z_grid)[sel])
        p_ztilde = np.exp(power_log_mass(self.pz.log_mass, zt_grid))
        p_s = np.full(s_grid.size, 0.5 ** n)
        pop = self.loss.population_losses(self.pz)
        emp = self.loss.totals(z_grid) / n
        train, test = emp[sel], emp[unsel]
        _set_derived(self, zt_grid=zt_grid, s_grid=s_grid, w_labels=w_labels,
                     p_ztilde=p_ztilde, p_s=p_s, cond=cond,
                     joint=p_ztilde[:, None, None] * p_s[None, :, None] * cond,
                     pw_given=cond.mean(axis=1),  # P_S is uniform
                     genhat=test - train, gen_sel=pop - train)

    @cached_property
    def ztildes(self) -> tuple:
        """The supersample labels, in code order."""
        return self.zt_grid.vectors()

    @cached_property
    def s_vecs(self) -> tuple:
        """The selector labels, in code order."""
        return self.s_grid.vectors()

    def select(self, ztilde: tuple, s: tuple) -> tuple:
        """Training vector z(s): the ith sample is ztilde[i + s_i * n]."""
        return tuple(ztilde[i + s[i] * self.n] for i in range(self.n))

    def induced_standard(self) -> StandardSystem:
        """The standard system over Z(S): by exchangeability Z(S) ~ P_Z^n,
        and W given Z(S) follows the same learner kernel."""
        return StandardSystem(self.pz, self.n, self.learner, self.loss)


def _halves(zt_grid: ProductGrid, s_grid: ProductGrid) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the selected and the unselected half of every (z-tilde, s)
    pair, shape (|Zt|, |S|), on the grid of length-n vectors: the ith
    sample of z(s) is ztilde[i + s_i n]."""
    n, k = s_grid.n, len(zt_grid.labels)
    zt = zt_grid.digits(np.arange(zt_grid.size))
    s = s_grid.digits(np.arange(s_grid.size))
    sel = unsel = np.zeros((zt_grid.size, s_grid.size), dtype=np.int64)
    for i in range(n):
        sel = sel * k + zt[:, i + n * s[:, i]]
        unsel = unsel * k + zt[:, i + n * (1 - s[:, i])]
    return sel, unsel


def assemble_subset(pz: FiniteDistribution, n: int, learner: Kernel,
                    loss: LossTable) -> SubsetSystem:
    return SubsetSystem(pz, n, learner, loss)


# -- generalization error evaluation ---------------------------------------


def gen(sys: StandardSystem, w: Any, zvec: tuple) -> float:
    """Population loss minus empirical loss at one (hypothesis, data) atom."""
    return float(sys.gen_table[sys.w_labels.index(w), sys.z_grid.code(zvec)])


def expected_gen(sys: StandardSystem) -> float:
    return float(np.sum(sys.joint.T * sys.gen_table))


def gen_hat(sys: SubsetSystem, w: Any, ztilde: tuple, s: tuple) -> float:
    """Mean loss on the unselected half minus mean loss on the selected half."""
    return float(sys.genhat[sys.zt_grid.code(ztilde), sys.s_grid.code(s),
                            sys.w_labels.index(w)])


def expected_gen_subset(sys: SubsetSystem) -> float:
    """E[gen(W, Z(S))] under the full joint."""
    return float(np.sum(sys.joint * sys.gen_sel))


def expected_gen_hat(sys: SubsetSystem) -> float:
    return float(np.sum(sys.joint * sys.genhat))


# -- problem files ----------------------------------------------------------

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _integral(value: Any) -> int:
    """An integral number as an int; a fractional value is refused."""
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _number(key: str, value: Any, convert: Callable[[Any], Any] = float) -> Any:
    """``convert(value)`` for the number ``value`` of the field ``key``; a
    bool, or a value of the wrong type or form, is a ValueError naming it."""
    try:
        if isinstance(value, bool):
            raise TypeError(f"{value!r} is not a number")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _parse_loss(doc: Mapping[str, Any], instances: Sequence[Any]) -> LossTable:
    a, b = (_number("range", x) for x in doc["range"])
    matrix = np.asarray(doc["matrix"], dtype=object)
    return LossTable(
        hypotheses=tuple(doc["hypotheses"]),
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
        return constant_kernel(loss, n, weights if weights is None
                               else [_number("weights", w) for w in weights])
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

    def row(doc: Mapping[str, Any]) -> FiniteDistribution:  # a probability may be a decimal string
        probs = [_number("probs", p, lambda p: p) for p in doc["probs"]]
        return FiniteDistribution.from_json(dict(doc, probs=probs))

    return Kernel({zvec(key): row(doc) for key, doc in rows.items()})


def load_problem(path_or_doc: Any) -> tuple[str, StandardSystem | SubsetSystem]:
    """Load a problem definition, an object or a path; returns (setting, system)."""
    doc = read_json(path_or_doc, "problem")
    setting = doc["setting"]
    if setting not in ("standard", "subset"):
        raise ValueError(f"unknown setting {setting!r}")
    instances = [tuple(o) if isinstance(o, list) else o for o in doc["instances"]]
    if "pz" in doc:  # a probability may be a decimal string
        probs = [_number("pz", p, lambda p: p) for p in doc["pz"]]
        pz = FiniteDistribution.from_json({"outcomes": instances, "probs": probs})
    else:
        pz = FiniteDistribution.uniform(instances)
    n = _number("n", doc["n"], _integral)
    loss = _parse_loss(doc["loss"], instances)
    if setting == "subset":  # the joint is larger than the learner's grid: size it first
        check_budget(_subset_atoms(len(instances), n, len(loss.hypotheses)))
    assemble = assemble_standard if setting == "standard" else assemble_subset
    return setting, assemble(pz, n, _parse_learner(doc["learner"], loss, n), loss)


def fixture_path(name: str) -> Path:
    return _FIXTURE_DIR / f"{name}.json"


def load_fixture(name: str) -> tuple[str, StandardSystem | SubsetSystem]:
    """Load one of the shipped canonical instances: inst_a, inst_b, inst_c."""
    return load_problem(fixture_path(name))
