"""Independent brute-force oracles used to cross-check the library.

Deliberately written with plain dict/loop arithmetic (no numpy, no shared
code with the package) so that agreement between the two implementations is
meaningful evidence of correctness. Only suitable for desk-scale instances.

The exceptions are the loop reference at the end, which builds the system
arrays atom by atom with the same per-row numpy operations the array core
must reproduce, and the full auto-gamma tail scan, which evaluates every
candidate exactly through the package's own tail function; both are
compared with the package bit for bit.
"""
from __future__ import annotations

import itertools
import math

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


def loop_standard_arrays(pz_labels, pz_log_mass, n, rows, values, instances):
    """The standard system's arrays; ``rows`` maps z-vectors of labels to
    log-mass rows over the hypotheses."""
    zvecs = list(itertools.product(pz_labels, repeat=n))
    lm_of = dict(zip(pz_labels, pz_log_mass))
    col = {z: instances.index(z) for z in pz_labels}
    pzn = np.exp(np.array([sum(float(lm_of[z]) for z in v) for v in zvecs]))
    cond = np.array([np.exp(rows[v]) for v in zvecs])
    joint = pzn[:, None] * cond
    pop = np.array([sum(math.exp(lm_of[z]) * values[w, col[z]] for z in pz_labels)
                    for w in range(values.shape[0])])
    emp = np.array([[float(np.mean([values[w, col[z]] for z in v])) for v in zvecs]
                    for w in range(values.shape[0])])
    return {"pzn_mass": pzn, "cond": cond, "joint": joint, "pw_mass": joint.sum(axis=0),
            "gen_table": pop[:, None] - emp}


def loop_subset_arrays(pz_labels, pz_log_mass, n, rows, values, instances):
    """The random-subset system's arrays, by a double loop over (z-tilde, s)."""
    ztildes = list(itertools.product(pz_labels, repeat=2 * n))
    svecs = list(itertools.product((0, 1), repeat=n))
    lm_of = dict(zip(pz_labels, pz_log_mass))
    col = {z: instances.index(z) for z in pz_labels}
    pop = np.array([sum(math.exp(lm_of[z]) * values[w, col[z]] for z in pz_labels)
                    for w in range(values.shape[0])])
    shape = (len(ztildes), len(svecs), values.shape[0])
    cond, genhat, gen_sel = np.empty(shape), np.empty(shape), np.empty(shape)
    for zi, zt in enumerate(ztildes):
        for si, s in enumerate(svecs):
            sel = [zt[i + s[i] * n] for i in range(n)]
            unsel = [zt[i + (1 - s[i]) * n] for i in range(n)]
            cond[zi, si] = np.exp(rows[tuple(sel)])
            train = values[:, [col[z] for z in sel]].mean(axis=1)
            test = values[:, [col[z] for z in unsel]].mean(axis=1)
            genhat[zi, si] = test - train
            gen_sel[zi, si] = pop - train
    p_zt = np.exp(np.array([sum(float(lm_of[z]) for z in v) for v in ztildes]))
    return {"p_ztilde": p_zt, "p_s": np.full(len(svecs), 0.5 ** n), "cond": cond,
            "pw_given": cond.mean(axis=1), "genhat": genhat, "gen_sel": gen_sel}


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


def tail_scan(tbl, rate, delta, extra_params, step=1e-9):
    """The full auto-gamma tail scan: every attained density value and the
    value plus ``step``, each evaluated exactly, the first strict minimum of
    epsilon kept; the reference of the screened scan in ``engine``."""
    from genbounds.engine import BoundResult

    def evaluate(g):
        tail = tbl.tail_probability(g)
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

    best = None
    for v in tbl.distinct_values():
        for g in (float(v), float(v) + step):
            cand = evaluate(g)
            if cand.feasible and (best is None or cand.epsilon < best.epsilon):
                best = cand
    if best is None:
        return BoundResult(math.inf, "single-draw", "data-independent",
                           dict(extra_params, delta=delta, gamma="auto"), feasible=False,
                           reason="no gamma meets the tail level delta")
    return best
