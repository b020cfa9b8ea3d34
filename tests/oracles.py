"""Independent brute-force oracles used to cross-check the library.

Deliberately written with plain dict/loop arithmetic (no numpy, no shared
code with the package) so that agreement between the two implementations is
meaningful evidence of correctness. Only suitable for desk-scale instances.

The exceptions are the loop reference at the end, which builds the system
arrays atom by atom with the same per-row numpy operations the array core
must reproduce; ``system_arrays``, which rebuilds a system's per-vector
arrays from its inputs by label loops in the same arithmetic, so that no
reference reads a derived array of the system it checks; the 50-digit
Gibbs rows, the two auto-gamma tail scans, the out-of-place central
moment, and the per-setting information measures
(density, posterior KLs, Renyi divergence, alpha-MI, leakage, the Holder
bound on the (z-tilde, s, w) grid) that the package's shared formulas
replaced, and ``product_twin``, which rebuilds a system with every z-vector
an atom of its own through the package's label-form kernel. The strict scan
evaluates every attained density value through the package's own
explicit-gamma path and is compared with auto mode bit for bit; the earlier
non-strict scan computes its own tails and is the baseline the exact rule
must never lose to. The dict-and-loop quantiles (``quantile``,
``abs_quantile``) read a ``FiniteDistribution`` of the package: they are the
reference of the array quantiles of ``verify``. The exponential check as one
``logsumexp`` per lambda, with ``logsumexp`` written with the numpy
reduction wrappers, is the reference of the blocked check, bit for bit. The
label-level density and Renyi loops are the per-atom references of
``measures.density`` (bit for bit) and ``measures.renyi_divergence``.
"""
from __future__ import annotations

import itertools
import math
import weakref

import numpy as np


def zvectors(z_labels, n):
    return list(itertools.product(z_labels, repeat=n))


def standard_joint(pz, n, learner):
    """Joint masses {(w, zvec): p} for iid data and a learner map
    zvec -> {w: prob}."""
    joint = {}
    for zvec in zvectors(list(pz), n):
        p_z = 1.0
        for z in zvec:
            p_z *= pz[z]
        for w, p_w_given in learner(zvec).items():
            joint[(w, zvec)] = p_z * p_w_given
    return joint


def standard_marginal_w(joint):
    pw = {}
    for (w, _), p in joint.items():
        pw[w] = pw.get(w, 0.0) + p
    return pw


def information_density_table(pz, n, learner):
    """{(w, zvec): (mass, iota)} over the support of the joint."""
    joint = standard_joint(pz, n, learner)
    pw = standard_marginal_w(joint)
    table = {}
    for zvec in zvectors(list(pz), n):
        p_z = 1.0
        for z in zvec:
            p_z *= pz[z]
        if p_z == 0.0:
            continue
        for w, p_w_given in learner(zvec).items():
            if p_w_given > 0.0:
                table[(w, zvec)] = (p_z * p_w_given,
                                    math.log(p_w_given / pw[w]))
    return table


def mutual_information(pz, n, learner):
    return sum(p * i for p, i in information_density_table(pz, n, learner).values())


def maximal_leakage(pz, n, learner):
    total = 0.0
    vecs = [v for v in zvectors(list(pz), n)
            if math.prod(pz[z] for z in v) > 0.0]
    w_labels = list(learner(vecs[0]))
    for w in w_labels:
        total += max(learner(v).get(w, 0.0) for v in vecs)
    return math.log(total)


def max_information(pz, n, learner):
    return max(i for _, i in information_density_table(pz, n, learner).values())


def central_moment(table, t):
    mean = sum(p * i for p, i in table.values())
    if t == math.inf:
        return max(abs(i - mean) for _, i in table.values())
    return sum(p * abs(i - mean) ** t for p, i in table.values()) ** (1.0 / t)


def alpha_mi(pz, n, learner, alpha):
    """Direct plain-float evaluation of the alpha-mutual information."""
    joint = standard_joint(pz, n, learner)
    pw = standard_marginal_w(joint)
    vecs = zvectors(list(pz), n)
    outer = 0.0
    for w, p_w in pw.items():
        if p_w == 0.0:
            continue
        inner = 0.0
        for zvec in vecs:
            p_z = math.prod(pz[z] for z in zvec)
            cond = learner(zvec).get(w, 0.0)
            if p_z > 0.0 and cond > 0.0:
                inner += p_z * (cond / p_w) ** alpha
        outer += p_w * inner ** (1.0 / alpha)
    return alpha / (alpha - 1.0) * math.log(outer)


def renyi(p, q, alpha):
    """Plain-float Renyi divergence between outcome->prob dicts."""
    acc = 0.0
    for o, mass in p.items():
        if mass > 0.0:
            acc += mass ** alpha * q[o] ** (1.0 - alpha)
    return math.log(acc) / (alpha - 1.0)


# -- subset setting ---------------------------------------------------------


def subset_tables(pz, n, learner):
    """Per-atom records for the random-subset setting.

    Returns (atoms, pw_given) where atoms is a list of
    (ztilde, s, w, mass, cond, pwg) over positive-mass (ztilde, s) pairs and
    pw_given maps (ztilde, w) -> P(w | ztilde).
    """
    z_labels = list(pz)
    ztildes = zvectors(z_labels, 2 * n)
    svecs = zvectors([0, 1], n)
    p_s = 0.5 ** n

    def select(zt, s):
        return tuple(zt[i + s[i] * n] for i in range(n))

    pw_given = {}
    for zt in ztildes:
        for s in svecs:
            for w, c in learner(select(zt, s)).items():
                pw_given[(zt, w)] = pw_given.get((zt, w), 0.0) + p_s * c
    atoms = []
    for zt in ztildes:
        p_zt = math.prod(pz[z] for z in zt)
        if p_zt == 0.0:
            continue
        for s in svecs:
            for w, c in learner(select(zt, s)).items():
                atoms.append((zt, s, w, p_zt * p_s * c, c, pw_given[(zt, w)]))
    return atoms, pw_given


def cond_density_table(pz, n, learner):
    """{(w, ztilde, s): (mass, iota)} over the support."""
    atoms, _ = subset_tables(pz, n, learner)
    return {(w, zt, s): (mass, math.log(c / pwg))
            for zt, s, w, mass, c, pwg in atoms if c > 0.0}


def cond_mutual_information(pz, n, learner):
    return sum(p * i for p, i in cond_density_table(pz, n, learner).values())


def cond_maximal_leakage(pz, n, learner):
    z_labels = list(pz)
    svecs = zvectors([0, 1], n)

    def select(zt, s):
        return tuple(zt[i + s[i] * n] for i in range(n))

    best = 0.0
    for zt in zvectors(z_labels, 2 * n):
        if math.prod(pz[z] for z in zt) == 0.0:
            continue
        w_labels = list(learner(select(zt, svecs[0])))
        total = sum(max(learner(select(zt, s)).get(w, 0.0) for s in svecs)
                    for w in w_labels)
        best = max(best, total)
    return math.log(best)


def cond_renyi(pz, n, learner, alpha):
    """Plain-float conditional Renyi divergence of order alpha."""
    acc = 0.0
    p_s = 0.5 ** n
    atoms, _ = subset_tables(pz, n, learner)
    for zt, s, w, mass, c, pwg in atoms:
        p_zt = mass / (p_s * c) if c > 0.0 else None
        if c > 0.0:
            acc += p_zt * p_s * pwg * (c / pwg) ** alpha
    return math.log(acc) / (alpha - 1.0)


def cond_alpha_mi(pz, n, learner, alpha):
    """Plain-float conditional alpha-mutual information."""
    z_labels = list(pz)
    svecs = zvectors([0, 1], n)
    p_s = 0.5 ** n

    def select(zt, s):
        return tuple(zt[i + s[i] * n] for i in range(n))

    outer = 0.0
    for zt in zvectors(z_labels, 2 * n):
        p_zt = math.prod(pz[z] for z in zt)
        if p_zt == 0.0:
            continue
        w_labels = list(learner(select(zt, svecs[0])))
        pwg = {w: sum(p_s * learner(select(zt, s)).get(w, 0.0) for s in svecs)
               for w in w_labels}
        mid = 0.0
        for w in w_labels:
            if pwg[w] == 0.0:
                continue
            inner = sum(p_s * (learner(select(zt, s)).get(w, 0.0) / pwg[w]) ** alpha
                        for s in svecs)
            mid += pwg[w] * inner ** (1.0 / alpha)
        outer += p_zt * mid ** alpha
    return math.log(outer) / (alpha - 1.0)


# -- learners over plain dicts ---------------------------------------------


def erm_learner_01(labels):
    """Lowest-index-tie ERM with 0/1 loss on matching W = Z = labels."""
    def learner(zvec):
        losses = [sum(1.0 for z in zvec if z != w) for w in labels]
        best = min(range(len(labels)), key=lambda i: (losses[i], i))
        return {w: (1.0 if i == best else 0.0) for i, w in enumerate(labels)}
    return learner


def uniform_learner(labels):
    p = 1.0 / len(labels)
    return lambda zvec: {w: p for w in labels}


def identity_learner(labels):
    return lambda zvec: {w: (1.0 if w == zvec[0] else 0.0) for w in labels}


def gibbs_learner(loss_matrix, w_labels, z_labels, beta):
    """loss_matrix[w][z] with plain-float Gibbs weights."""
    def learner(zvec):
        weights = {}
        for w in w_labels:
            total = sum(loss_matrix[w][z] for z in zvec)
            weights[w] = math.exp(-beta * total)
        norm = sum(weights.values())
        return {w: v / norm for w, v in weights.items()}
    return learner


# -- loop reference of the array core --------------------------------------
# Row by row, in the arithmetic the array core must match bit for bit: each
# kernel row and each half's mean from its own gather, iid log masses and
# population losses as Python sums, empirical losses as np.mean of a list.


def _logsumexp_row(a):
    a_max = np.max(a)
    top = a == a_max
    m = float(np.sum(top))
    s = np.sum(np.exp(np.where(top, -math.inf, a) - a_max))
    return np.log1p(s / m) + np.log(m) + a_max


def loop_kernel_rows(values, n, kind, beta=0.0, tie="lowest-index", weights=None):
    """{z-vector of instance indices: log-mass row} for a kernel builder."""
    n_w, n_z = values.shape
    rows = {}
    for zvec in itertools.product(range(n_z), repeat=n):
        totals = values[:, list(zvec)].sum(axis=1)
        if kind == "gibbs":
            logits = -beta * totals
            rows[zvec] = logits - _logsumexp_row(logits)
            continue
        lm = np.full(n_w, -math.inf)
        if kind == "erm":
            argmins = np.flatnonzero(totals <= totals.min() + 1e-12)
            if tie == "lowest-index":
                lm[argmins[0]] = 0.0
            else:
                lm[argmins] = -math.log(len(argmins))
        elif kind == "constant" and weights is None:
            lm = np.full(n_w, -math.log(n_w))
        elif kind == "constant":
            lm = np.log(np.asarray([float(x) for x in weights]))
        else:  # identity
            lm[zvec[0]] = 0.0
        rows[zvec] = lm
    return rows


def decimal_gibbs_rows(values, n, beta):
    """{z-vector of instance indices: log-mass row} of the Gibbs learner,
    each entry -beta * total - log sum_v exp(-beta * total_v) taken in
    50-digit decimals from the exact float losses and beta, then rounded."""
    from decimal import Decimal, localcontext

    n_w, n_z = values.shape
    rows = {}
    with localcontext() as ctx:
        ctx.prec = 50
        b = Decimal(float(beta))
        for zvec in itertools.product(range(n_z), repeat=n):
            logits = [-b * sum(Decimal(float(values[w, z])) for z in zvec)
                      for w in range(n_w)]
            top = max(logits)
            log_total = top + sum((lg - top).exp() for lg in logits).ln()
            rows[zvec] = np.array([float(lg - log_total) for lg in logits])
    return rows


def loop_standard_arrays(pz_labels, pz_log_mass, n, rows, values, instances):
    """The standard system's record arrays, row (z-vector) by row, and log
    P(w); ``rows`` maps z-vectors of labels to log-mass rows over the hypotheses."""
    zvecs = list(itertools.product(pz_labels, repeat=n))
    lm_of = dict(zip(pz_labels, pz_log_mass))
    col = {z: instances.index(z) for z in pz_labels}
    mass = np.exp(np.array([sum(float(lm_of[z]) for z in v) for v in zvecs]))
    cond = np.array([np.exp(rows[v]) for v in zvecs])
    joint = mass[:, None] * cond
    pop = np.array([sum(math.exp(lm_of[z]) * values[w, col[z]] for z in pz_labels)
                    for w in range(values.shape[0])])
    emp = np.array([[float(np.mean([values[w, col[z]] for z in v]))
                     for w in range(values.shape[0])] for v in zvecs])
    with np.errstate(divide="ignore"):
        log_q = np.log(joint.sum(axis=0))
    return {"mass": mass, "cond": cond, "joint": joint, "gen": pop[None, :] - emp,
            "log_q": log_q}


def loop_subset_arrays(pz_labels, pz_log_mass, n, rows, values, instances):
    """The random-subset system's record arrays, one (z-tilde, s) row at a
    time in row order, and the log masses of each context, of each row given
    its context, and of P(w | z-tilde)."""
    ztildes = list(itertools.product(pz_labels, repeat=2 * n))
    svecs = list(itertools.product((0, 1), repeat=n))
    lm_of = dict(zip(pz_labels, pz_log_mass))
    col = {z: instances.index(z) for z in pz_labels}
    pop = np.array([sum(math.exp(lm_of[z]) * values[w, col[z]] for z in pz_labels)
                    for w in range(values.shape[0])])
    shape = (len(ztildes) * len(svecs), values.shape[0])
    cond, genhat, gen_sel = np.empty(shape), np.empty(shape), np.empty(shape)
    for zi, zt in enumerate(ztildes):
        for si, s in enumerate(svecs):
            row = zi * len(svecs) + si
            sel = [zt[i + s[i] * n] for i in range(n)]
            unsel = [zt[i + (1 - s[i]) * n] for i in range(n)]
            cond[row] = np.exp(rows[tuple(sel)])
            train = values[:, [col[z] for z in sel]].mean(axis=1)
            test = values[:, [col[z] for z in unsel]].mean(axis=1)
            genhat[row] = test - train
            gen_sel[row] = pop - train
    p_zt = np.exp(np.array([sum(float(lm_of[z]) for z in v) for v in ztildes]))
    p_s = np.full(len(svecs), 0.5 ** n)
    mass = (p_zt[:, None] * p_s[None, :]).ravel()
    pw_given = cond.reshape(len(ztildes), len(svecs), -1).mean(axis=1)
    with np.errstate(divide="ignore"):
        logs = {"log_ctx": np.log(p_zt), "log_data": np.log(np.tile(p_s, len(ztildes))),
                "log_q": np.log(pw_given)}
    return {"mass": mass, "cond": cond, "joint": mass[:, None] * cond, "values": genhat,
            "gen": gen_sel, **logs}


def pushforward(values, masses):
    """The loop reference of ``verify._pushforward``: (sorted labels, log
    masses), each atom of positive mass adding its mass, in atom order, to
    its value rounded to 12 places."""
    groups = {}
    for v, m in zip(values.ravel(), masses.ravel()):
        if m <= 0.0:
            continue
        key = round(float(v), 12)
        groups[key] = groups.get(key, 0.0) + float(m)
    labels = sorted(groups)
    with np.errstate(divide="ignore"):
        return labels, np.log(np.array([groups[k] for k in labels]))


def _first_reaching(pairs, q):
    """The first value, in ascending order, at which the cumulative mass reaches q."""
    acc = 0.0
    for v, m in pairs:
        acc += m
        if acc >= q - 1e-12:
            return v
    return v


def quantile(dist, q):
    """Smallest value v with P[X <= v] >= q (values sorted ascending)."""
    return _first_reaching(sorted((float(o), m) for o, m in zip(dist.outcomes, dist.mass)), q)


def abs_quantile(dist, q):
    """Quantile of |X| for a pushforward distribution."""
    groups = {}
    for o, m in zip(dist.outcomes, dist.mass):
        key = round(abs(float(o)), 12)
        groups[key] = groups.get(key, 0.0) + float(m)
    return _first_reaching(sorted(groups.items()), q)


def _no_gamma(extra_params, delta, candidates):
    """The infeasible auto-gamma result: the tail level if every candidate
    misses it, else the radicand's fault at those that meet it, "negative
    radicand" if that is every one's reason."""
    from genbounds.engine import BoundResult

    faults = {c.reason for c in candidates} - {"tail mass at or above delta"}
    reason = ("no gamma meets the tail level delta" if not faults else
              "negative radicand" if faults == {"negative radicand"} else
              "radicand is NaN or overflows")
    return BoundResult(math.inf, "single-draw", "data-independent",
                       dict(extra_params, delta=delta, gamma="auto"), feasible=False,
                       reason=reason)


def _first_least(candidates):
    """The first feasible candidate of least epsilon, or None."""
    best = None
    for cand in candidates:
        if cand.feasible and (best is None or cand.epsilon < best.epsilon):
            best = cand
    return best


def tail_scan_strict(tbl, rate, delta, extra_params):
    """The exact auto-gamma tail rule: every attained density value
    evaluated as an explicit gamma (strict tail P[iota > gamma]), the first
    strict minimum of epsilon kept."""
    from genbounds.engine import _tail_bound_from_table

    candidates = [_tail_bound_from_table(tbl, rate, delta, v, extra_params)
                  for v in tbl.distinct_values().tolist()]
    return _first_least(candidates) or _no_gamma(extra_params, delta, candidates)


_AT_LEAST: dict = {}  # (id(table), gamma) -> (table, P[iota >= gamma])


def tail_scan(tbl, rate, delta, extra_params, step=1e-9):
    """The earlier auto-gamma rule: every attained density value and the
    value plus ``step``, each with the non-strict tail P[iota >= gamma] as
    a masked logsumexp (memoised across calls), the first strict minimum of
    epsilon kept."""
    from genbounds.engine import BoundResult
    from genbounds.prob import logsumexp

    def evaluate(g):
        key = (id(tbl), g)
        if key not in _AT_LEAST:  # the table stays alive with its key
            mask = tbl.iota >= g
            _AT_LEAST[key] = (tbl, math.exp(logsumexp(tbl.log_p[mask])) if mask.any() else 0.0)
        tail = _AT_LEAST[key][1]
        params = dict(extra_params, delta=delta, gamma=g, tail_prob=tail)
        if tail >= delta:
            return BoundResult(math.inf, "single-draw", "data-independent", params,
                               feasible=False, reason="tail mass at or above delta")
        ratio = 2.0 / (delta - tail)  # overflows for a subnormal delta - tail
        log_ratio = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(delta - tail)
        radicand = rate * (g + log_ratio)
        if radicand < 0.0:
            return BoundResult(math.inf, "single-draw", "data-independent", params,
                               feasible=False, reason="negative radicand")
        return BoundResult(math.sqrt(radicand), "single-draw", "data-independent", params)

    best = _first_least(evaluate(g) for v in tbl.distinct_values().tolist()
                        for g in (v, v + step))
    return best or _no_gamma(extra_params, delta)


def central_moment_out_of_place(tbl, t):
    """The reference of ``measures.central_moment`` at a float t (or inf):
    the same log-space reduction through the package's ``logsumexp``, with
    each intermediate in an array of its own and each zero deviation masked
    to -inf before the log is taken."""
    from genbounds.prob import logsumexp

    dev = np.abs(tbl.iota - tbl.mean)
    if t == math.inf:
        return float(dev.max())
    with np.errstate(divide="ignore"):
        log_dev = np.where(dev > 0, np.log(np.where(dev > 0, dev, 1.0)), -math.inf)
    terms = tbl.log_p + t * log_dev
    if np.all(terms == -math.inf):
        return 0.0
    return float(math.exp(logsumexp(terms) / t))


# -- the per-setting information measures the shared formulas replaced -------


def _ordered_sum(terms):
    """A left-to-right float sum from 0, as the array core's grid sums add."""
    acc = 0.0
    for term in terms:
        acc += term
    return acc


def system_arrays(sys):
    """The per-setting arrays of ``sys``, rebuilt from its inputs ``pz``,
    ``n``, ``learner`` and ``loss`` (and ``select``) by label loops, in the
    arithmetic of the array core: each log mass a left-to-right sum, each
    posterior the learner's row at a data vector, P(w | z-tilde) the
    selector's rows added in order and divided by |S|.

    Standard: ``vectors`` (the data vector of each row, a type's sorted
    representative for a learner on a type grid), ``pzn`` p(z-vector) (of
    the whole type), ``cond[z, w]`` P(w | z-vector), ``joint[z, w]`` and
    ``pw`` P(w). Subset: ``p_zt`` p(z-tilde), ``p_s`` p(s), ``cond[zt, s, w]``
    P(w | z(s)), ``joint[zt, s, w]`` and ``pw_given[zt, w]`` P(w | z-tilde),
    over ``zvectors`` of the 2n supersamples and the n selectors. The arrays
    are read-only and rebuilt once per system."""
    if sys not in _ARRAYS:
        arrays = _rebuilt_arrays(sys)
        for arr in arrays.values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        _ARRAYS[sys] = arrays
    return dict(_ARRAYS[sys])


_ARRAYS = weakref.WeakKeyDictionary()  # system -> its rebuilt arrays


def _rebuilt_arrays(sys):
    labels, n = sys.pz.outcomes, sys.n
    lm_of = dict(zip(labels, sys.pz.log_mass.tolist()))
    rows = {}

    def posterior(zvec):
        if zvec not in rows:
            rows[zvec] = np.exp(sys.learner[zvec].log_mass)
        return rows[zvec]

    if sys.setting == "subset":
        svecs = zvectors((0, 1), n)
        ztildes = zvectors(labels, 2 * n)
        p_zt = np.exp(np.array([_ordered_sum(lm_of[z] for z in zt) for zt in ztildes]))
        p_s = np.full(len(svecs), 0.5 ** n)
        cond = np.array([[posterior(sys.select(zt, s)) for s in svecs] for zt in ztildes])
        pw_given = np.array([_ordered_sum(per_s) / len(svecs) for per_s in cond])
        joint = p_zt[:, None, None] * p_s[None, :, None] * cond
        return {"p_zt": p_zt, "p_s": p_s, "cond": cond, "joint": joint, "pw_given": pw_given}
    grid = sys.learner.grid
    vectors = zvectors(labels, n) if grid is None else list(grid.vectors())
    log_pzn = []
    for v in vectors:
        if grid is None:  # a vector: its labels' log masses
            log_pzn.append(_ordered_sum(lm_of[z] for z in v) + 0.0)
            continue
        counts = [v.count(lab) for lab in grid.labels]  # a type: counts times log
        ways = math.factorial(n)                         # masses, + log multinomial
        for c in counts:
            ways //= math.factorial(c)
        log_pzn.append(_ordered_sum(c * lm_of[lab] for lab, c in zip(grid.labels, counts) if c)
                       + math.log(ways))
    pzn = np.exp(np.array(log_pzn))
    cond = np.array([posterior(v) for v in vectors])
    joint = pzn[:, None] * cond
    return {"vectors": vectors, "pzn": pzn, "cond": cond, "joint": joint,
            "pw": joint.sum(axis=0)}


def density_arrays(sys, q_w=None):
    """(log joint, log base, iota) of a system's density grid, each setting
    by its own formula: the standard iota in joint form, log(P_Z^n P(w|z)) -
    (log P_Z^n + log Q_W), -inf off the joint support; the subset iota
    log P(w|z(s)) - log P(w|zt) where both are positive."""
    a = system_arrays(sys)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_joint = np.log(a["joint"])
        if sys.setting == "standard":
            log_w = (np.log(a["pw"]) if q_w is None
                     else np.array([q_w.log_mass_of(w) for w in sys.loss.hypotheses]))
            log_base = np.log(a["pzn"])[:, None] + log_w[None, :]
            sup = log_joint > -math.inf
            diff = log_joint - log_base
        else:
            log_cond, log_w_given = np.log(a["cond"]), np.log(a["pw_given"])
            log_base = (np.log(a["p_zt"])[:, None, None] + np.log(a["p_s"])[None, :, None]
                        + log_w_given[:, None, :])
            base = np.broadcast_to(log_w_given[:, None, :], log_cond.shape)
            sup = (log_cond > -math.inf) & (base > -math.inf)
            diff = log_cond - base
    iota = np.full_like(log_joint, -math.inf)
    iota[sup] = diff[sup]
    return log_joint, log_base, iota


def posterior_kls(sys, iota, q_w=None):
    """Posterior KLs: the standard ones in ratio form, sum_w P(w|z) (log
    P(w|z) - log Q_W(w)); the subset ones as sum_w P(w|z(s)) iota."""
    a = system_arrays(sys)
    cond = a["cond"]
    if sys.setting == "subset":
        terms = np.zeros_like(iota)
        sup = iota > -math.inf
        terms[sup] = cond[sup] * iota[sup]
        return np.sum(terms, axis=2)
    with np.errstate(divide="ignore"):
        log_w = (np.log(a["pw"]) if q_w is None
                 else np.array([q_w.log_mass_of(w) for w in sys.loss.hypotheses]))
        log_cond = np.log(cond)
    sup = log_cond > -math.inf
    ratio = np.subtract(log_cond, log_w[None, :], out=np.zeros_like(log_cond), where=sup)
    return np.sum(np.where(sup, cond * ratio, 0.0), axis=1)


def renyi_from_arrays(setting, arrays, alpha):
    """Renyi divergence of order alpha: the standard one as
    alpha log P + (1 - alpha) log base over the joint support, the subset
    one as log E_base[e^(alpha iota)]."""
    from genbounds.prob import logsumexp

    log_joint, log_base, iota = arrays
    if setting == "subset":
        return float(logsumexp(log_base + alpha * iota) / (alpha - 1.0))
    sup = log_joint > -math.inf
    terms = alpha * log_joint[sup] + (1.0 - alpha) * log_base[sup]
    return float(logsumexp(terms) / (alpha - 1.0))


def alpha_mi_from_iota(sys, iota, alpha):
    """alpha-MI of each setting by its own formula: the standard
    alpha/(alpha-1) log E_W[E_Z^(1/alpha)[e^(alpha iota)]], the subset one
    with the supersample as the outer expectation."""
    from genbounds.prob import logsumexp

    a = system_arrays(sys)
    with np.errstate(divide="ignore"):
        if sys.setting == "standard":
            log_pzn, log_pw = np.log(a["pzn"]), np.log(a["pw"])
            inner = logsumexp(log_pzn[:, None] + alpha * iota, axis=0) / alpha
            return float(alpha / (alpha - 1.0) * logsumexp(log_pw + inner))
        log_pzt, log_ps, log_wg = np.log(a["p_zt"]), np.log(a["p_s"]), np.log(a["pw_given"])
    inner = logsumexp(log_ps[None, :, None] + alpha * iota, axis=1) / alpha
    mid = logsumexp(log_wg + inner, axis=1)
    return float(logsumexp(log_pzt + alpha * mid) / (alpha - 1.0))


def leakage_from_rows(sys):
    """Maximal leakage from the posterior rows of the positive-mass data,
    ``cond[pzn > 0]`` (of the positive-mass supersamples in the subset setting)."""
    a = system_arrays(sys)
    if sys.setting == "standard":
        return float(math.log(np.sum(a["cond"][a["pzn"] > 0].max(axis=0))))
    per_zt = a["cond"][a["p_zt"] > 0].max(axis=1).sum(axis=1)
    return float(math.log(per_zt.max()))


def holder_event_bound_3d(sys, event, alpha, alpha_prime, tilde_alpha):
    """``bounds_subset.holder_event_bound`` as it was written on the (z-tilde,
    s, w) grid, with its nested reductions along axis 1, over the reference
    density of ``density_arrays``."""
    from genbounds.prob import logsumexp

    gamma = alpha / (alpha - 1.0)
    gamma_prime = alpha_prime / (alpha_prime - 1.0)
    tilde_gamma = tilde_alpha / (tilde_alpha - 1.0)
    iota = density_arrays(sys)[2]
    a = system_arrays(sys)
    with np.errstate(divide="ignore"):
        log_pzt = np.log(a["p_zt"])
        log_ps = np.log(a["p_s"])
        log_wg = np.log(a["pw_given"])
    ind = np.array([[[event(w, zt, s) for w in sys.loss.hypotheses]
                     for s in zvectors((0, 1), sys.n)]
                    for zt in zvectors(sys.pz.outcomes, 2 * sys.n)], dtype=bool)
    log_ind = np.where(ind, 0.0, -math.inf)
    log_p_event = logsumexp(log_ps[None, :, None] + log_ind, axis=1)
    mid_e = logsumexp(log_wg + (gamma_prime / gamma) * log_p_event, axis=1)
    log_factor_event = logsumexp(log_pzt + (tilde_gamma / gamma_prime) * mid_e) / tilde_gamma
    inner_d = logsumexp(log_ps[None, :, None] + alpha * iota, axis=1)
    mid_d = logsumexp(log_wg + (alpha_prime / alpha) * inner_d, axis=1)
    log_factor_dens = logsumexp(log_pzt + (tilde_alpha / alpha_prime) * mid_d) / tilde_alpha
    return float(math.exp(log_factor_event + log_factor_dens))


# -- the per-vector enumeration that type grids replace ---------------------


def product_twin(sys):
    """``sys`` rebuilt with its learner as a label-form kernel over every
    z-vector, so that each vector is an atom of its own (a ``ProductGrid``
    system, whatever grid the learner of ``sys`` uses)."""
    from genbounds import Kernel

    rows = {v: sys.learner[v] for v in zvectors(sys.pz.outcomes, sys.n)}
    return type(sys)(sys.pz, sys.n, Kernel(rows), sys.loss)


def type_codes(sys, twin):
    """The row of ``sys`` at each row's labels of ``twin`` (a z-vector, or a
    supersample and a selector), in its row order, one ``Rows.row`` call per row."""
    return np.array([sys.rows.row(*data) for data in twin.rows.labels], dtype=np.int64)


# -- the exponential check as one logsumexp per lambda ----------------------


def logsumexp_wrappers(a, axis=None):
    """``prob.logsumexp`` as it was written with the ``np.max``, ``np.sum``
    and ``np.squeeze`` wrappers, the reference of its ndarray-method form."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(top, -math.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        edge = ~np.isfinite(out)  # infinite or NaN maximum: sum directly
        if edge.any():
            out = np.where(edge, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)), out)
    return np.squeeze(out, axis=axis)[()]


def exp_inequality_loop(view, variance, lambda_grid):
    """``verify._exp_inequality`` as one ``logsumexp`` per lambda, the
    reference of its blocked form: max over the grid of
    E_base[exp(lambda value - lambda^2 variance/(2n))] over the support."""
    from genbounds.verify import DEFAULT_LAMBDA_SCALES

    n = view.sys.n
    grid = (np.asarray(DEFAULT_LAMBDA_SCALES) * (n / variance) if lambda_grid is None
            else np.asarray(lambda_grid, dtype=float))
    sup = view.iota > -math.inf
    base, values = view.log_base[sup], view.values[sup]
    worst = -math.inf
    for lam in grid:
        terms = base + lam * values - lam ** 2 * variance / (2.0 * n)
        worst = max(worst, float(math.exp(logsumexp_wrappers(terms))))
    return worst


# -- the label-level loops that the aligned arrays replaced -------------------


def density_loop(p, q):
    """``measures.density`` as the per-atom loop it replaced: (outcomes,
    log P, log P - log Q) over the support of P, refusing the first P-atom
    that Q does not charge by name."""
    from genbounds.prob import AbsoluteContinuityViolation

    outcomes, log_p, iota = [], [], []
    for o, lm in zip(p.outcomes, p.log_mass):
        if lm == -math.inf:
            continue
        if o not in q._index or q.log_mass_of(o) == -math.inf:
            raise AbsoluteContinuityViolation(f"P-atom {o!r} has zero Q-mass")
        outcomes.append(o)
        log_p.append(lm)
        iota.append(lm - q.log_mass_of(o))
    return tuple(outcomes), np.asarray(log_p), np.asarray(iota)


def renyi_divergence_loop(p, q, alpha):
    """``measures.renyi_divergence`` away from alpha = 1 as the per-atom loop
    it replaced: log sum P^alpha Q^(1 - alpha) / (alpha - 1) over the
    P-atoms that Q charges; above 1 every P-atom must be charged."""
    from genbounds.prob import AbsoluteContinuityViolation, logsumexp

    terms = []
    for o, lm in zip(p.outcomes, p.log_mass):
        if lm == -math.inf:
            continue
        lq = q.log_mass_of(o) if o in q._index else -math.inf
        if lq == -math.inf:
            if alpha > 1:
                raise AbsoluteContinuityViolation(f"P-atom {o!r} has zero Q-mass")
            continue
        terms.append(alpha * lm + (1.0 - alpha) * lq)
    return float(logsumexp(np.asarray(terms)) / (alpha - 1.0))
