"""Fully enumerable learning problems: losses, learners, and the joint
distributions they induce in the standard and random-subset settings.

Everything is exact: systems precompute the complete joint table over
(hypothesis, data) atoms, subject to the enumeration budget.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .prob import (
    NEG_INF,
    FiniteDistribution,
    InvalidDistributionError,
    JointTable,
    Kernel,
    check_budget,
    iid_power,
    logsumexp,
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

    def population_loss(self, w: Any, pz: FiniteDistribution) -> float:
        wi = self.hypotheses.index(w)
        return float(sum(pz.mass_of(z) * self.values[wi, self.instances.index(z)]
                         for z in pz.outcomes))

    def empirical_loss(self, w: Any, zvec: Sequence[Any]) -> float:
        wi = self.hypotheses.index(w)
        return float(np.mean([self.values[wi, self.instances.index(z)] for z in zvec]))


def zero_one_loss(labels: Sequence[Any]) -> LossTable:
    """The 0/1 loss on W = Z = labels."""
    labels = tuple(labels)
    vals = 1.0 - np.eye(len(labels))
    return LossTable(labels, labels, vals, 0.0, 1.0)


# -- learner kernels --------------------------------------------------------


def _zvecs(loss: LossTable, n: int) -> list[tuple]:
    check_budget(len(loss.instances) ** n * len(loss.hypotheses))
    return list(itertools.product(loss.instances, repeat=n))


def gibbs_kernel(loss: LossTable, n: int, beta: float) -> Kernel:
    """P(w | z-vector) proportional to exp(-beta * n * empirical loss).

    beta = 0 gives the uniform learner; beta -> inf approaches ERM with a
    uniform split over tied minimizers.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    rows = {}
    for zvec in _zvecs(loss, n):
        zi = [loss.instances.index(z) for z in zvec]
        totals = loss.values[:, zi].sum(axis=1)
        logits = -beta * totals
        rows[zvec] = FiniteDistribution(loss.hypotheses, logits - logsumexp(logits))
    return Kernel(rows)


def erm_kernel(loss: LossTable, n: int, tie: str = "lowest-index") -> Kernel:
    """Empirical risk minimization with an explicit tie rule."""
    if tie not in ("lowest-index", "uniform-over-argmin"):
        raise ValueError(f"unknown tie rule {tie!r}")
    rows = {}
    for zvec in _zvecs(loss, n):
        zi = [loss.instances.index(z) for z in zvec]
        totals = loss.values[:, zi].sum(axis=1)
        argmins = np.flatnonzero(totals <= totals.min() + 1e-12)
        lm = np.full(len(loss.hypotheses), NEG_INF)
        if tie == "lowest-index":
            lm[argmins[0]] = 0.0
        else:
            lm[argmins] = -math.log(len(argmins))
        rows[zvec] = FiniteDistribution(loss.hypotheses, lm)
    return Kernel(rows)


def constant_kernel(loss: LossTable, n: int,
                    weights: Sequence[float] | None = None) -> Kernel:
    """A learner that ignores the data entirely (uniform over W by default)."""
    if weights is None:
        row = FiniteDistribution.uniform(loss.hypotheses)
    else:
        row = FiniteDistribution.from_probs(loss.hypotheses, weights)
    return Kernel({zvec: row for zvec in _zvecs(loss, n)})


def identity_kernel(loss: LossTable) -> Kernel:
    """The n=1 learner that outputs its single training sample (W = Z)."""
    if loss.hypotheses != loss.instances:
        raise ValueError("identity learner needs matching hypothesis/instance labels")
    return Kernel({
        (z,): FiniteDistribution.point_mass(loss.hypotheses, z)
        for z in loss.instances
    })


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
    error at each atom.
    """

    setting = "standard"
    pz: FiniteDistribution
    n: int
    learner: Kernel
    loss: LossTable
    zvecs: tuple = field(init=False)
    w_labels: tuple = field(init=False)
    pzn_mass: np.ndarray = field(init=False)
    cond: np.ndarray = field(init=False)
    joint: np.ndarray = field(init=False)
    pw_mass: np.ndarray = field(init=False)
    gen_table: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        w_labels = self.learner.output_outcomes
        if tuple(w_labels) != self.loss.hypotheses:
            raise ValueError("learner output labels do not match loss hypotheses")
        check_budget(len(self.pz) ** self.n * len(w_labels))
        pzn = iid_power(self.pz, self.n)
        zvecs = pzn.outcomes
        for zvec in zvecs:
            if zvec not in self.learner:
                raise ValueError(f"learner undefined on z-vector {zvec!r}")
        pzn_mass = pzn.mass
        cond = np.array([self.learner[zvec].mass for zvec in zvecs])
        joint = pzn_mass[:, None] * cond
        pw = joint.sum(axis=0)
        pop = np.array([self.loss.population_loss(w, self.pz) for w in w_labels])
        emp = np.array([[self.loss.empirical_loss(w, zvec) for zvec in zvecs]
                        for w in w_labels])
        _set_derived(self, zvecs=zvecs, w_labels=tuple(w_labels), pzn_mass=pzn_mass,
                     cond=cond, joint=joint, pw_mass=pw, gen_table=pop[:, None] - emp)

    @property
    def sigma(self) -> float:
        return self.loss.sigma

    @property
    def pw(self) -> FiniteDistribution:
        with np.errstate(divide="ignore"):
            return FiniteDistribution(self.w_labels, np.log(self.pw_mass))

    def joint_table(self) -> JointTable:
        outcomes = [(w, zvec) for zi, zvec in enumerate(self.zvecs)
                    for w in self.w_labels]
        with np.errstate(divide="ignore"):
            lm = np.log(self.joint.ravel())
        return JointTable(outcomes, lm)

    def posterior(self, zvec: tuple) -> FiniteDistribution:
        return self.learner[zvec]


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
    ordinary generalization error on the selected half.
    """

    setting = "subset"
    pz: FiniteDistribution
    n: int
    learner: Kernel
    loss: LossTable
    ztildes: tuple = field(init=False)
    s_vecs: tuple = field(init=False)
    w_labels: tuple = field(init=False)
    p_ztilde: np.ndarray = field(init=False)
    p_s: np.ndarray = field(init=False)
    cond: np.ndarray = field(init=False)
    pw_given: np.ndarray = field(init=False)
    genhat: np.ndarray = field(init=False)
    gen_sel: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        w_labels = self.learner.output_outcomes
        if tuple(w_labels) != self.loss.hypotheses:
            raise ValueError("learner output labels do not match loss hypotheses")
        check_budget(len(self.pz) ** (2 * self.n) * 2 ** self.n * len(w_labels))
        p2n = iid_power(self.pz, 2 * self.n)
        ztildes = p2n.outcomes
        s_vecs = tuple(itertools.product((0, 1), repeat=self.n))
        p_ztilde = p2n.mass
        p_s = np.full(len(s_vecs), 0.5 ** self.n)
        li = {z: i for i, z in enumerate(self.loss.instances)}
        cond = np.empty((len(ztildes), len(s_vecs), len(w_labels)))
        genhat = np.empty_like(cond)
        gen_sel = np.empty_like(cond)
        pop = np.array([self.loss.population_loss(w, self.pz) for w in w_labels])
        for zi, zt in enumerate(ztildes):
            for si, s in enumerate(s_vecs):
                sel = self.select(zt, s)
                unsel = self.select(zt, tuple(1 - b for b in s))
                if sel not in self.learner:
                    raise ValueError(f"learner undefined on selected vector {sel!r}")
                cond[zi, si, :] = self.learner[sel].mass
                sel_i = [li[z] for z in sel]
                unsel_i = [li[z] for z in unsel]
                train = self.loss.values[:, sel_i].mean(axis=1)
                test = self.loss.values[:, unsel_i].mean(axis=1)
                genhat[zi, si, :] = test - train
                gen_sel[zi, si, :] = pop - train
        _set_derived(self, ztildes=ztildes, s_vecs=s_vecs, w_labels=tuple(w_labels),
                     p_ztilde=p_ztilde, p_s=p_s, cond=cond,
                     pw_given=cond.mean(axis=1),  # P_S is uniform
                     genhat=genhat, gen_sel=gen_sel)

    def select(self, ztilde: tuple, s: tuple) -> tuple:
        """Training vector z(s): the ith sample is ztilde[i + s_i * n]."""
        return tuple(ztilde[i + s[i] * self.n] for i in range(self.n))

    @property
    def joint(self) -> np.ndarray:
        """Joint masses over (z-tilde, s, w)."""
        return self.p_ztilde[:, None, None] * self.p_s[None, :, None] * self.cond

    def induced_standard(self) -> StandardSystem:
        """The standard system over Z(S): by exchangeability Z(S) ~ P_Z^n,
        and W given Z(S) follows the same learner kernel."""
        return StandardSystem(self.pz, self.n, self.learner, self.loss)


def assemble_subset(pz: FiniteDistribution, n: int, learner: Kernel,
                    loss: LossTable) -> SubsetSystem:
    return SubsetSystem(pz, n, learner, loss)


# -- generalization error evaluation ---------------------------------------


def gen(sys: StandardSystem, w: Any, zvec: tuple) -> float:
    """Population loss minus empirical loss at one (hypothesis, data) atom."""
    wi = sys.w_labels.index(w)
    zi = sys.zvecs.index(zvec)
    return float(sys.gen_table[wi, zi])


def expected_gen(sys: StandardSystem) -> float:
    return float(np.sum(sys.joint.T * sys.gen_table))


def gen_hat(sys: SubsetSystem, w: Any, ztilde: tuple, s: tuple) -> float:
    """Mean loss on the unselected half minus mean loss on the selected half."""
    return float(sys.genhat[sys.ztildes.index(ztilde),
                            sys.s_vecs.index(s),
                            sys.w_labels.index(w)])


def expected_gen_subset(sys: SubsetSystem) -> float:
    """E[gen(W, Z(S))] under the full joint."""
    return float(np.sum(sys.joint * sys.gen_sel))


def expected_gen_hat(sys: SubsetSystem) -> float:
    return float(np.sum(sys.joint * sys.genhat))


# -- problem files ----------------------------------------------------------

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _parse_loss(doc: Mapping[str, Any], instances: Sequence[Any]) -> LossTable:
    a, b = (float(x) for x in doc["range"])
    return LossTable(
        hypotheses=tuple(doc["hypotheses"]),
        instances=tuple(instances),
        values=np.asarray(doc["matrix"], dtype=float),
        a=a,
        b=b,
        sigma=float(doc["sigma"]) if "sigma" in doc else None,
    )


def _parse_learner(doc: Mapping[str, Any], loss: LossTable, n: int) -> Kernel:
    kind = doc["kind"]
    if kind == "gibbs":
        return gibbs_kernel(loss, n, float(doc["beta"]))
    if kind == "erm":
        return erm_kernel(loss, n, doc.get("tie", "lowest-index"))
    if kind == "constant":
        return constant_kernel(loss, n, doc.get("weights"))
    if kind == "identity":
        return identity_kernel(loss)
    if kind == "custom-kernel":
        rows = {}
        for key, row in doc["rows"].items():
            zvec = tuple(_coerce(tok, loss.instances) for tok in key.split(","))
            rows[zvec] = FiniteDistribution.from_json(row)
        return Kernel(rows)
    raise ValueError(f"unknown learner kind {kind!r}")


def _coerce(token: str, labels: Sequence[Any]) -> Any:
    for lab in labels:
        if str(lab) == token:
            return lab
    raise ValueError(f"unknown instance label {token!r}")


def load_problem(path_or_doc: Any) -> tuple[str, StandardSystem | SubsetSystem]:
    """Load a problem definition file; returns (setting, system)."""
    if isinstance(path_or_doc, Mapping):
        doc = path_or_doc
    else:
        with open(path_or_doc) as fh:
            doc = json.load(fh)
    setting = doc["setting"]
    if setting not in ("standard", "subset"):
        raise ValueError(f"unknown setting {setting!r}")
    instances = [tuple(o) if isinstance(o, list) else o for o in doc["instances"]]
    if "pz" in doc:
        pz = FiniteDistribution.from_json({"outcomes": instances, "probs": doc["pz"]})
    else:
        pz = FiniteDistribution.uniform(instances)
    n = int(doc["n"])
    loss = _parse_loss(doc["loss"], instances)
    if setting == "subset":
        # every enumerator checks its own grid, but a subset joint outgrows
        # its learner's: size it before building the learner
        check_budget(len(instances) ** (2 * n) * 2 ** n * len(loss.hypotheses))
    learner_n = n  # subset learners act on the selected half, also length n
    learner = _parse_learner(doc["learner"], loss, learner_n)
    if setting == "standard":
        return setting, assemble_standard(pz, n, learner, loss)
    return setting, assemble_subset(pz, n, learner, loss)


def fixture_path(name: str) -> Path:
    return _FIXTURE_DIR / f"{name}.json"


def load_fixture(name: str) -> tuple[str, StandardSystem | SubsetSystem]:
    """Load one of the shipped canonical instances: inst_a, inst_b, inst_c."""
    return load_problem(fixture_path(name))
