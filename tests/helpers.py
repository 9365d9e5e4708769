"""Shared generators and independent brute-force oracles for the tests.

Everything here deliberately avoids the library's own fast paths: meets
via transitive closure, joins via set intersections, operators as explicit
matrices built from basis vectors, block averages and sup norms as
per-row bincounts and gathers, sufficiency by exhaustive indicator
checking or by plain loops over blocks, the theorem suites with their
operators rebuilt every round.  Tests compare the library against these.
"""

from __future__ import annotations

import itertools

import numpy as np

from condexp import (
    CondExpOperator,
    MeasureFamily,
    Partition,
    SuiteReport,
    WeightedInnerProduct,
    check_sufficient,
    check_sufficient_for_f,
    contains_null_field,
    direct_meet_operator,
    meet,
    null_set,
    sandwich_product,
)
from condexp.sufficiency import TRAJECTORY_TOL


# ---------------------------------------------------------------------------
# random instances

def random_partition(rng, n: int, max_blocks: int | None = None) -> Partition:
    k = int(rng.integers(1, (max_blocks or n) + 1))
    assignment = rng.integers(0, k, size=n)
    blocks: dict[int, list[int]] = {}
    for i, b in enumerate(assignment):
        blocks.setdefault(int(b), []).append(i)
    return Partition(blocks.values())


def canonical_labels(labels) -> np.ndarray:
    """Relabel blocks 0, 1, ... in order of their least outcome, via np.unique."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.ravel()]


def partition_of_labels(labels) -> Partition:
    """Build a partition through the public block-list constructor."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.unique(labels, return_counts=True)[1])[:-1]
    return Partition(np.split(order, ends))


def random_positive_measure(rng, n: int) -> np.ndarray:
    w = rng.uniform(0.05, 1.0, n)
    return w / w.sum()


def random_measure_with_nulls(rng, n: int, n_nulls: int) -> np.ndarray:
    w = random_positive_measure(rng, n)
    dead = rng.choice(n, size=n_nulls, replace=False)
    w[dead] = 0.0
    return w / w.sum()


def dyadic_measure_rows(rng, m: int, n: int, denom_pow: int = 8) -> np.ndarray:
    """Rows of exact dyadic rationals k / 2**denom_pow summing exactly to 1."""
    total = 2 ** denom_pow
    rows = []
    for _ in range(m):
        cuts = np.sort(rng.integers(0, total + 1, size=n - 1))
        parts = np.diff(np.concatenate(([0], cuts, [total])))
        rows.append(parts / total)
    return np.array(rows)


def shared_conditional_family(rng, n: int, m: int, k: int):
    """A family whose within-block conditionals are measure-independent.

    Returns (family, base_partition).  Every refinement of the base
    partition is then sufficient for the family, which is how the tests
    manufacture sufficient pairs and chains with interesting meets.
    """
    base = random_partition(rng, n, max_blocks=k)
    weights = np.zeros((m, n))
    conditionals = []
    for block in base.blocks:
        q = rng.uniform(0.1, 1.0, len(block))
        conditionals.append(q / q.sum())
    for gamma in range(m):
        block_mass = rng.uniform(0.1, 1.0, base.k)
        block_mass /= block_mass.sum()
        for j, block in enumerate(base.blocks):
            weights[gamma, list(block)] = block_mass[j] * conditionals[j]
        weights[gamma] /= weights[gamma].sum()
    return MeasureFamily(weights), base


def shared_family_with_gaps(rng, n: int, m: int, k: int):
    """Like ``shared_conditional_family``, with gaps: about a fifth of the
    outcomes are null under every measure and about a quarter of the
    (measure, base block) pairs have zero mass.  Returns (family, base_partition)."""
    base = random_partition(rng, n, max_blocks=k)
    lab = base.block_of
    while True:
        q = rng.uniform(0.1, 1.0, n)
        q[rng.random(n) < 0.2] = 0.0
        block_mass = rng.uniform(0.1, 1.0, (m, base.k))
        block_mass[rng.random((m, base.k)) < 0.25] = 0.0
        total = np.bincount(lab, weights=q, minlength=base.k)[lab]
        cond = np.divide(q, total, out=np.zeros(n), where=total > 0)
        weights = block_mass[:, lab] * cond
        sums = weights.sum(axis=1, keepdims=True)
        if np.all(sums > 0):
            return MeasureFamily(weights / sums), base


def random_refinement(rng, p: Partition) -> Partition:
    blocks = []
    for block in p.blocks:
        idx = list(block)
        pieces = int(rng.integers(1, len(idx) + 1))
        assignment = rng.integers(0, pieces, size=len(idx))
        groups: dict[int, list[int]] = {}
        for i, a in zip(idx, assignment):
            groups.setdefault(int(a), []).append(i)
        blocks.extend(groups.values())
    return Partition(blocks)


def coarsen_within(rng, fine: Partition, base: Partition) -> Partition:
    """Merge some blocks of ``fine`` that lie in a common ``base`` block."""
    groups: dict[tuple[int, int], list[int]] = {}
    coarse_of = base.block_of
    for j, block in enumerate(fine.blocks):
        anchor = int(coarse_of[block[0]])
        bucket = int(rng.integers(0, 2))
        groups.setdefault((anchor, bucket), []).extend(block)
    return Partition(groups.values())


# ---------------------------------------------------------------------------
# independent oracles

def meet_oracle(p1: Partition, p2: Partition) -> Partition:
    """Connected components by boolean transitive closure, no union-find."""
    n = p1.n
    adj = np.eye(n, dtype=bool)
    for p in (p1, p2):
        for block in p.blocks:
            idx = list(block)
            adj[np.ix_(idx, idx)] = True
    closure = adj
    for _ in range(n):
        nxt = closure | (closure @ closure)
        if np.array_equal(nxt, closure):
            break
        closure = nxt
    seen = set()
    blocks = []
    for i in range(n):
        if i not in seen:
            comp = sorted(np.flatnonzero(closure[i]).tolist())
            seen.update(comp)
            blocks.append(comp)
    return Partition(blocks)


def join_oracle(p1: Partition, p2: Partition) -> Partition:
    blocks = []
    for a in p1.blocks:
        for b in p2.blocks:
            common = sorted(set(a) & set(b))
            if common:
                blocks.append(common)
    return Partition(blocks)


def sigma_sets(p: Partition) -> frozenset[frozenset[int]]:
    """All measurable sets of the field generated by a partition."""
    sets = {frozenset()}
    for block in p.blocks:
        sets = {s | extra for s in sets for extra in (frozenset(), frozenset(block))}
    return frozenset(sets)


def sigma_closure(generators, n: int) -> frozenset[frozenset[int]]:
    """Close a collection of index sets under complement and union."""
    omega = frozenset(range(n))
    sets = {frozenset(), omega}
    sets.update(frozenset(g) for g in generators)
    changed = True
    while changed:
        changed = False
        for s in list(sets):
            comp = omega - s
            if comp not in sets:
                sets.add(comp)
                changed = True
        for s in list(sets):
            for t in list(sets):
                u = s | t
                if u not in sets:
                    sets.add(u)
                    changed = True
    return frozenset(sets)


def operator_matrix(op) -> np.ndarray:
    """Materialize any linear operator by applying it to basis vectors."""
    cols = [op.apply(e) for e in np.eye(op.n)]
    return np.column_stack(cols)


def matrix_power_limit(t1, t2) -> np.ndarray:
    """Infinite-power limit of the explicit iteration matrix.

    Builds the sandwich t1.t2.t1 as an explicit matrix, symmetrizes it in
    the weighted metric (requires a strictly positive measure), and powers
    its eigenvalues to the limit: 1 stays, everything below drops to 0.
    Naive repeated squaring is useless here because the unit eigenvalue
    rounds to 1 + eps and explodes; the spectral form takes the limit
    exactly.
    """
    w = t1.measure
    assert np.all(w > 0), "spectral oracle needs a strictly positive measure"
    m = operator_matrix(t1) @ operator_matrix(t2) @ operator_matrix(t1)
    root = np.sqrt(w)
    sym = root[:, None] * m / root[None, :]
    sym = (sym + sym.T) / 2
    vals, vecs = np.linalg.eigh(sym)
    keep = vecs[:, vals > 1 - 1e-8]
    proj_sym = keep @ keep.T
    return (proj_sym / root[:, None]) * root[None, :]


def sufficient_bruteforce(family: MeasureFamily, p: Partition,
                          atol: float = 1e-10) -> bool:
    """For-every-indicator sufficiency decision, written independently."""
    w = family.weights
    for target in range(family.n):
        f = np.zeros(family.n)
        f[target] = 1.0
        for block in p.blocks:
            idx = list(block)
            values = []
            for gamma in range(family.m):
                mass = w[gamma, idx].sum()
                if mass > 0:
                    values.append(float(np.dot(w[gamma, idx], f[idx])) / mass)
            if values and max(values) - min(values) > atol:
                return False
    return True


# ---------------------------------------------------------------------------
# sufficiency as plain loops over blocks (the library computes it as tables)

def check_sufficient_by_blocks(family: MeasureFamily, p: Partition, atol: float = 1e-10):
    """The distributional criterion, one block and one measure at a time.

    Returns ``(witness, conditionals)``: the witness as a tuple
    ``(gamma, gamma_prime, block_index, description, violation)`` or None,
    and, when sufficient, each block's shared profile (None where no
    measure charges the block).
    """
    w = family.weights
    conditionals = []
    for b_idx, block in enumerate(p.blocks):
        idx = list(block)
        sub = w[:, idx]
        mass = sub.sum(axis=1)
        charged = np.flatnonzero(mass > 0)
        if charged.size == 0:
            conditionals.append(None)
            continue
        ref = int(charged[0])
        cond_ref = sub[ref] / mass[ref]
        for gamma in charged[1:]:
            dev = np.abs(sub[gamma] / mass[gamma] - cond_ref)
            worst = int(np.argmax(dev))
            if dev[worst] > atol:
                description = (f"indicator of outcome {idx[worst]} conditioned on "
                               f"block {b_idx} {tuple(block)}")
                return (ref, int(gamma), b_idx, description, float(dev[worst])), None
        conditionals.append(cond_ref)
    return None, tuple(conditionals)


def check_sufficient_for_f_by_blocks(family: MeasureFamily, p: Partition, f, atol: float):
    """The per-function check, one block at a time, against the absolute
    tolerance ``atol``.  Returns ``(witness, g)`` as above."""
    v = np.asarray(f, dtype=float)
    w = family.weights
    g = np.zeros(p.n)
    for b_idx, block in enumerate(p.blocks):
        idx = list(block)
        sub = w[:, idx]
        mass = sub.sum(axis=1)
        charged = np.flatnonzero(mass > 0)
        if charged.size == 0:
            continue
        means = sub[charged] @ v[idx] / mass[charged]
        spread = np.abs(means - means[0])
        worst = int(np.argmax(spread))
        if spread[worst] > atol:
            description = f"conditional means of f on block {b_idx} {tuple(block)}"
            return (int(charged[0]), int(charged[worst]), b_idx, description,
                    float(spread[worst])), None
        g[idx] = means[0]
    return None, g


# ---------------------------------------------------------------------------
# the block-average and sup kernels written out separately (the library runs
# one table for one measure and for m of them, and one sup kernel)

def _eagerly_normalized(p: Partition, weights: np.ndarray) -> np.ndarray:
    """Each row's weights divided by their block's mass, 0 on zero-mass blocks."""
    mass = np.stack([np.bincount(p.block_of, weights=r, minlength=p.k)
                     for r in np.atleast_2d(weights)])
    mass_at = mass[:, p.block_of].reshape(weights.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(mass_at > 0, weights / mass_at, 0.0)


def block_average_by_row(p: Partition, w, x) -> np.ndarray:
    """One measure's block average: one bincount over eagerly normalized weights, then a gather."""
    normalized = _eagerly_normalized(p, np.asarray(w, dtype=float))
    return np.bincount(p.block_of, weights=normalized * x, minlength=p.k)[p.block_of]


def block_averages_stacked(p: Partition, weights, X) -> np.ndarray:
    """Row gamma is measure gamma's block average of row gamma of the m x n
    stack ``X``, from one bincount over stacked labels (block b of measure
    gamma is bin gamma * k + b) and a gather from the m x k sums."""
    weights = np.asarray(weights, dtype=float)
    m, k = weights.shape[0], p.k
    labels = (p.block_of + k * np.arange(m)[:, None]).ravel()
    sums = np.bincount(labels, weights=(_eagerly_normalized(p, weights) * X).ravel(),
                       minlength=m * k)
    return sums.reshape(m, k)[:, p.block_of]


def norminf_by_gather(w, x) -> float:
    """The sup of |x| over the outcomes ``w`` charges, from a gather of them."""
    charged = np.flatnonzero(np.asarray(w) > 0)
    if not charged.size:
        return 0.0
    return float(np.max(np.abs(np.asarray(x, dtype=float)[charged])))


# ---------------------------------------------------------------------------
# iterate and the ledger over kept vectors (the library streams them)

def iterate_keeping_trajectory(ops, x, applications: int, schedule=None):
    """The alternating loop that keeps every iterate: the streaming ``iterate``'s reference.

    Runs exactly ``applications`` steps of ``schedule`` (cycling through
    ``ops`` when None), keeps the whole trajectory, and only then derives
    the per-iterate squared norms, squared steps and sup residuals against
    the direct meet projection through the public norm methods.  Returns
    (trajectory, norms2, diffs2, residuals, limit).
    """
    ip = ops[0].ip
    limit = direct_meet_operator(ops).apply(x)
    order = itertools.cycle(range(len(ops))) if schedule is None else schedule
    trajectory = []
    prev = x
    for idx in itertools.islice(order, applications):
        prev = ops[idx].apply(prev)
        trajectory.append(prev)
    norms2 = np.array([ip.norm2_sq(vec) for vec in trajectory])
    diffs2 = np.array([ip.norm2_sq(trajectory[k + 1] - trajectory[k])
                       for k in range(len(trajectory) - 1)])
    residuals = np.array([ip.distinf(vec, limit) for vec in trajectory])
    return trajectory, norms2, diffs2, residuals, limit


def ledger_keeping_powers(t1, t2, x, n_terms: int):
    """The power-difference ledger over a kept list of all n_terms + 3 powers.

    Returns (terms, partial_sum, weighted_sum, bound, weighted_target).
    """
    product = sandwich_product(t1, t2)
    ip = product.ip
    powers = [np.asarray(x, dtype=float)]
    for _ in range(n_terms + 2):
        powers.append(product.apply(powers[-1]))
    terms = np.array([ip.norm2_sq(powers[k] - powers[k + 2])
                      for k in range(1, n_terms + 1)])
    weights = np.arange(1, n_terms + 1, dtype=float)
    q = direct_meet_operator([t1, t2])
    return (terms, float(terms.sum()), float(np.dot(weights, terms)), ip.norm2_sq(x),
            ip.norm2_sq(powers[1]) - ip.norm2_sq(q.apply(x)))


# ---------------------------------------------------------------------------
# the theorem suites with operators rebuilt every round (the library runs
# them on block tables built once per suite)

def intersection_suite_rebuilding_operators(family: MeasureFamily, p1: Partition,
                                            p2: Partition, f=None,
                                            max_rounds: int = 10_000) -> SuiteReport:
    """The pairwise intersection suite as a plain loop: every round re-runs
    ``check_sufficient_for_f`` for the shared version and builds one
    ``CondExpOperator`` and one ``WeightedInnerProduct`` per measure."""
    name = "intersection sufficiency"
    for label, p in (("p1", p1), ("p2", p2)):
        cert = check_sufficient(family, p)
        if not cert.sufficient:
            return SuiteReport(name, hypothesis_met=False, passed=False, details={
                "failed_precondition": f"{label} is not sufficient",
                "witness": cert.witness.description,
            })
    nulls = null_set(family)
    if not (contains_null_field(p1, nulls) or contains_null_field(p2, nulls)):
        return SuiteReport(name, hypothesis_met=False, passed=False, details={
            "failed_precondition": "neither partition contains the family's null field",
            "null_indices": sorted(nulls),
        })
    ground = meet(p1, p2)
    meet_cert = check_sufficient(family, ground)
    v = np.arange(1.0, family.n + 1.0) if f is None else np.asarray(f, dtype=float)
    ips = [WeightedInnerProduct(family.row(g)) for g in range(family.m)]
    charged = family.weights.any(axis=0)
    tol = TRAJECTORY_TOL * float(np.max(np.abs(v), where=charged, initial=0.0))
    settle = 1e-14 * float(np.max(np.abs(v), initial=0.0))
    shared, per_gamma, divergence, rounds = v, [v] * family.m, 0.0, 0
    for rounds in range(1, max_rounds + 1):
        p = p1 if rounds % 2 == 1 else p2
        cert = check_sufficient_for_f(family, p, shared)
        if not cert.sufficient:
            return SuiteReport(name, hypothesis_met=False, passed=False, details={
                "failed_precondition":
                    f"trajectories split at round {rounds}: sufficiency violated",
            })
        nxt = cert.g
        for gamma in range(family.m):
            per_gamma[gamma] = CondExpOperator(p, family.row(gamma)).apply(per_gamma[gamma])
            divergence = max(divergence, ips[gamma].distinf(per_gamma[gamma], nxt))
        step = max(ip.distinf(nxt, shared) for ip in ips)
        shared = nxt
        if rounds >= 2 and step <= settle:
            break
    direct = check_sufficient_for_f(family, ground, v)
    limit_gap = (max(ip.distinf(shared, direct.g) for ip in ips)
                 if direct.sufficient else float("inf"))
    measurable = all(
        ip.distinf(shared, CondExpOperator(ground, family.row(g)).apply(shared)) <= tol
        for g, ip in enumerate(ips))
    return SuiteReport(
        name, hypothesis_met=True,
        passed=meet_cert.sufficient and divergence <= tol and limit_gap <= tol and measurable,
        details={"meet_sufficient": meet_cert.sufficient, "trajectory_divergence": divergence,
                 "limit_gap": limit_gap, "limit_meet_measurable": measurable,
                 "rounds": rounds},
        conclusion=ground, g=shared)


def countable_suite_rebuilding_operators(family: MeasureFamily, parts, f=None,
                                         max_rounds: int = 10_000) -> SuiteReport:
    """The countable fold over ``intersection_suite_rebuilding_operators``,
    re-checking the final running meet."""
    name = "countable intersection sufficiency"
    first = check_sufficient(family, parts[0])
    if not first.sufficient:
        return SuiteReport(name, hypothesis_met=False, passed=False, details={
            "failed_precondition": "partition 0 is not sufficient",
            "witness": first.witness.description,
        })
    v = np.arange(1.0, family.n + 1.0) if f is None else np.asarray(f, dtype=float)
    running, steps = parts[0], []
    for p in parts[1:]:
        step = intersection_suite_rebuilding_operators(family, running, p, f=v,
                                                       max_rounds=max_rounds)
        steps.append(step)
        if not step.hypothesis_met:
            return SuiteReport(name, hypothesis_met=False, passed=False,
                               details={"failed_at_step": len(steps) - 1},
                               steps=tuple(steps))
        running = step.conclusion
    final_cert = check_sufficient(family, running)
    g = steps[-1].g if steps else check_sufficient_for_f(family, running, v).g
    return SuiteReport(
        name, hypothesis_met=True,
        passed=final_cert.sufficient and all(s.passed for s in steps),
        details={"final_meet_sufficient": final_cert.sufficient,
                 "pairwise_steps": len(steps)},
        conclusion=running, g=g, steps=tuple(steps))
