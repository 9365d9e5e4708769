"""Shared generators and independent brute-force oracles for the tests.

Everything here deliberately avoids the library's own fast paths: meets
via transitive closure, joins via set intersections, operators as explicit
matrices built from basis vectors, sufficiency by exhaustive indicator
checking or by plain loops over blocks.  Tests compare the library
against these.
"""

from __future__ import annotations

import numpy as np

from condexp import MeasureFamily, Partition


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
