"""Seeded input generators for the three workloads.

Each generator draws from ``numpy.random.default_rng(seed)`` only, so the
same seed gives the same inputs.  Alongside the inputs it stores the
expected outputs, computed by ``oracles`` without ``condexp``; the worker
compares against them after each operation.
"""

from __future__ import annotations

import json
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

# Distinct input sets per run; operations cycle through them.  A
# paper-replay batch costs less and varies more, so its pool covers a
# whole run.
POOL = {"iterate-cli": 6, "lattice-large": 6, "paper-replay": 72}

# iterate-cli: two categorical features whose categories form a chain.
ITER_N = 20_000
ITER_CATEGORIES = 5
ITER_NULLS = 5

# lattice-large: three measures sharing within-block conditionals.
LATTICE_N = 100_000
LATTICE_BLOCK = 50          # mean size of a base block
LATTICE_M = 3
LATTICE_NULL_SHARE = 0.01   # outcomes null under every measure
LATTICE_UNCHARGED_SHARE = 0.05  # (measure, block) pairs with zero mass

# paper-replay: counts per batch.
REPLAY_PROPERTY_OPS = 4
REPLAY_ITERATE_RUNS = 2
REPLAY_LEDGER_TERMS = 100
REPLAY_CONVEX_TERMS = 300   # sandwich powers in the convex-sum sequence
REPLAY_FAMILIES = 9
REPLAY_SUITES = 8           # cycling pair, pair, chain, triple; 2 or 3 measures
REPLAY_SUITE_BLOCKS = 6
REPLAY_SUITE_BLOCK_SIZE = 4
REPLAY_RADII = 36
REPLAY_EXPRESSIONS = 40

PARTITION_NAMES = ("A", "B")


def write_inputs(workload: str, seed: int, work: Path) -> None:
    """Generate the workload's inputs and expectations into ``work``, one
    ``inst-<k>.pkl`` per pool index, so a worker holds only the instance
    it is running."""
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    for k in range(POOL[workload]):
        with open(work / f"inst-{k}.pkl", "wb") as fh:
            pickle.dump(WORKLOADS[workload](rng, work, k), fh, protocol=pickle.HIGHEST_PROTOCOL)


def block_lists(labels) -> list[list[int]]:
    return [blk.tolist() for blk in oracles.blocks_of_labels(labels)]


# ---------------------------------------------------------------------------
# iterate-cli

def chain_space(rng, n: int = ITER_N, categories: int = ITER_CATEGORIES,
                nulls: int = ITER_NULLS):
    """Samples with category a and b in {a, a + 1}, a few of zero weight.

    The start vector follows a plus noise, so it has a large component
    along the slowest-contracting direction of the chain and every space
    needs about the same number of applications.
    """
    a = rng.integers(0, categories, n)
    b = a + rng.integers(0, 2, n)
    w = rng.uniform(0.5, 1.5, n)
    w[rng.choice(n, nulls, replace=False)] = 0.0
    w /= w.sum()
    x = a / categories + rng.uniform(-0.5, 0.5, n)
    return a, b, w, x


def iterate_limit(a, b, w, x) -> np.ndarray:
    """Projection of x onto the meet of the completed category partitions."""
    alive = w > 0
    labels = oracles.meet_labels(a, b, alive=alive)
    return oracles.block_means(labels, w, x)


def iterate_cli(rng, work: Path, k: int, n: int = ITER_N) -> dict:
    a, b, w, x = chain_space(rng, n)
    space = {
        "labels": [f"s{i}" for i in range(a.size)],
        "measures": [w.tolist()],
        "partitions": {name: block_lists(lab) for name, lab in zip(PARTITION_NAMES, (a, b))},
    }
    space_path, x_path = work / f"space-{k}.json", work / f"x-{k}.txt"
    space_path.write_text(json.dumps(space))
    x_path.write_text(" ".join(repr(float(v)) for v in x) + "\n")
    return {
        "argv": ["iterate", "--space", str(space_path), "--partitions",
                 ",".join(PARTITION_NAMES), "--x-file", str(x_path),
                 "--report", str(work / f"report-{k}.csv")],
        "report": str(work / f"report-{k}.csv"),
        "weights": w,
        "limit": iterate_limit(a, b, w, x),
    }


# ---------------------------------------------------------------------------
# lattice-large

def shared_family(rng, base, m: int, null_share: float, uncharged_share: float,
                  low: float = 0.1):
    """Weights of m measures that share their conditionals on every base block.

    Outcome and block weights are drawn uniform in [low, 1).  A share of
    outcomes gets zero weight under every measure, and a share of
    (measure, block) pairs gets zero mass; a block charged by no measure
    then stays uncharged.
    """
    n, k = base.size, int(base.max()) + 1
    q = rng.uniform(low, 1.0, n)
    q[rng.random(n) < null_share] = 0.0
    block_mass = rng.uniform(low, 1.0, (m, k))
    block_mass[rng.random((m, k)) < uncharged_share] = 0.0
    q_total = np.bincount(base, weights=q, minlength=k)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(q_total[base] > 0, q / q_total[base], 0.0)
    weights = block_mass[:, base] * cond[None, :]
    return weights / weights.sum(axis=1, keepdims=True)


def interval_refinement(base, u, pieces):
    """Split base block j into ``pieces[j]`` intervals of the shared coordinate u."""
    return oracles.canonical(base * 4 + np.floor(u * pieces[base]).astype(np.int64))


def perturbed_outcome(rng, weights, meet) -> tuple[int, int]:
    """An (outcome, measure) pair whose weight change breaks sufficiency of the meet:
    the outcome's block holds another outcome the measure charges, and a
    second measure charges the block too."""
    k = int(meet.max()) + 1
    positive = np.stack([np.bincount(meet, weights=(row > 0), minlength=k)
                         for row in weights])
    charging = (positive > 0).sum(axis=0)
    for _ in range(10_000):
        gamma = int(rng.integers(0, weights.shape[0]))
        i = int(rng.integers(0, meet.size))
        blk = meet[i]
        if weights[gamma, i] > 0 and positive[gamma, blk] >= 2 and charging[blk] >= 2:
            return i, gamma
    raise RuntimeError("no perturbable block")


def lattice_large(rng, work: Path, k: int, n: int = LATTICE_N) -> dict:
    base = oracles.canonical(rng.integers(0, n // LATTICE_BLOCK, n))
    weights = shared_family(rng, base, LATTICE_M, LATTICE_NULL_SHARE,
                            LATTICE_UNCHARGED_SHARE)
    kb = int(base.max()) + 1
    u = rng.random(n)
    p1 = interval_refinement(base, u, rng.integers(1, 5, kb))
    p2 = interval_refinement(base, u, rng.integers(1, 5, kb))
    meet = oracles.meet_labels(p1, p2)
    null = ~weights.any(axis=0)
    f = rng.uniform(-1.0, 1.0, n)
    i, gamma = perturbed_outcome(rng, weights, meet)
    perturbed = weights.copy()
    perturbed[gamma, i] *= 1.5
    perturbed[gamma] /= perturbed[gamma].sum()
    return {
        "p1_blocks": oracles.blocks_of_labels(p1),
        "p2_blocks": oracles.blocks_of_labels(p2),
        "weights": weights, "f": f, "perturbed": perturbed,
        "meet": meet,
        "join": oracles.join_labels(p1, p2),
        "null": np.flatnonzero(null),
        "completion": oracles.completion_labels(meet, null),
        "meet_refines_p1": oracles.refines(meet, p1),
        "g": oracles.shared_block_means(meet, weights, f),
        "applied": oracles.block_means(meet, weights[0], f),
        "perturbed_block": int(meet[i]),
    }


# ---------------------------------------------------------------------------
# paper-replay

def random_labels(rng, n: int, max_blocks: int | None = None) -> np.ndarray:
    k = int(rng.integers(1, (max_blocks or n) + 1))
    return oracles.canonical(rng.integers(0, k, n))


def positive_measure(rng, n: int) -> np.ndarray:
    w = rng.uniform(0.05, 1.0, n)
    return w / w.sum()


def dyadic_rows(rng, m: int, n: int, denom_pow: int = 8) -> np.ndarray:
    """Rows of exact dyadic rationals summing exactly to 1 (zeros allowed)."""
    total = 2 ** denom_pow
    rows = []
    for _ in range(m):
        cuts = np.sort(rng.integers(0, total + 1, n - 1))
        rows.append(np.diff(np.concatenate(([0], cuts, [total]))) / total)
    return np.array(rows)


def shared_conditional(rng, n: int, m: int, k: int):
    """Positive weights sharing within-block conditionals over random base labels."""
    base = random_labels(rng, n, max_blocks=k)
    weights = shared_family(rng, base, m, 0.0, 0.0)
    return weights, base


def refinement(rng, base) -> np.ndarray:
    pieces = rng.integers(1, np.bincount(base) + 1)[base]
    return oracles.canonical(base * base.size + rng.integers(0, pieces))


def coarsen_within(rng, fine, base) -> np.ndarray:
    """Merge blocks of ``fine`` lying in one base block into at most two groups."""
    bucket = rng.integers(0, 2, int(fine.max()) + 1)[fine]
    return oracles.canonical(base * 2 + bucket)


def zigzag_parts(rng, blocks: int = REPLAY_SUITE_BLOCKS, size: int = REPLAY_SUITE_BLOCK_SIZE):
    """Base blocks of equal size on shuffled outcomes, and three refinements.

    Within a base block at positions 0..size-1, ``pairs`` joins 0-1, 2-3, ...;
    ``offset`` joins 1-2, 3-4, ... on even base blocks (so with ``pairs`` it
    links the block into one chain) and repeats ``pairs`` on odd ones (so
    the meet keeps the pairs there); ``crossed`` joins 0 with size-1, 1
    with size-2, ....  The chains make the suites' alternating replay take
    a similar number of rounds on every instance.
    """
    n = blocks * size
    outcome = rng.permutation(n)
    base, pos = np.empty(n, np.int64), np.empty(n, np.int64)
    base[outcome], pos[outcome] = np.arange(n) // size, np.arange(n) % size
    pairs = base * size + pos // 2
    offset = base * size + np.where(base % 2 == 1, pos // 2, (pos + 1) // 2)
    crossed = base * size + np.minimum(pos, size - 1 - pos)
    return [oracles.canonical(v) for v in (base, pairs, offset, crossed)]


def random_expression(rng, depth: int, max_atoms: int = 8):
    atoms_left = [max_atoms]

    def atom():
        atoms_left[0] -= 1
        return ("a", int(rng.integers(1, 3)),
                Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4))),
                1 if rng.integers(0, 2) else -1)

    def build(budget):
        if budget == 0 or atoms_left[0] <= 1:
            return atom()
        kind = int(rng.integers(0, 3))
        if kind == 2:
            return ("c", build(budget - 1))
        return ("ui"[kind], build(budget - 1), build(budget - 1))

    return build(depth)


def replay_iterate(rng) -> dict:
    n = int(rng.integers(2, 33))
    w = positive_measure(rng, n)
    l1, l2 = random_labels(rng, n), random_labels(rng, n)
    x = rng.uniform(-1.0, 1.0, n)
    meet = oracles.meet_labels(l1, l2)
    powers = oracles.sandwich_powers(l1, l2, w, x, REPLAY_CONVEX_TERMS)
    terms = np.array([oracles.weighted_norm2_sq(w, powers[j] - powers[j + 2])
                      for j in range(1, REPLAY_LEDGER_TERMS + 1)])
    return {
        "w": w, "x": x, "b1": block_lists(l1), "b2": block_lists(l2),
        "limit": oracles.block_means(meet, w, x),
        "ledger_terms": terms,
        "bound": oracles.weighted_norm2_sq(w, x),
        "norms": np.array([oracles.weighted_norm2_sq(w, p) for p in powers[1:]]),
    }


def replay_family(rng, j: int) -> dict:
    n, m = int(rng.integers(2, 13)), int(rng.integers(2, 4))
    if j % 3 == 0:
        weights, base = shared_conditional(rng, n, m, max(1, n // 2))
        labels = refinement(rng, base)
    else:
        weights, labels = dyadic_rows(rng, m, n), random_labels(rng, n)
    return {"weights": weights, "blocks": block_lists(labels),
            "sufficient": oracles.sufficient_bruteforce(weights, labels)}


def replay_suite(rng, j: int) -> dict:
    base, pairs, offset, crossed = zigzag_parts(rng)
    weights = shared_family(rng, base, 2 + (j // 4) % 2, 0.0, 0.0, low=0.5)
    kind = ("intersection", "intersection", "chain", "countable")[j % 4]
    if kind == "chain":
        parts = [pairs]
        for _ in range(3):
            parts.append(coarsen_within(rng, parts[-1], base))
    else:
        parts = [pairs, offset] if kind == "intersection" else [pairs, offset, crossed]
    meet = oracles.meet_labels(*parts)
    return {"kind": kind, "weights": weights, "blocks": [block_lists(p) for p in parts],
            "meet": meet,
            "g": oracles.shared_block_means(meet, weights, np.arange(1.0, base.size + 1.0))}


def paper_replay(rng, work: Path, k: int) -> dict:
    props = []
    for _ in range(REPLAY_PROPERTY_OPS):
        n = int(rng.integers(2, 65))
        props.append({"blocks": block_lists(random_labels(rng, n)),
                      "w": positive_measure(rng, n),
                      "seed": int(rng.integers(0, 2 ** 31))})
    values = rng.choice(np.arange(1, 4 * REPLAY_RADII * 4 + 1), REPLAY_RADII,
                        replace=False)
    radii = [Fraction(int(v), 4) for v in values]
    exprs = [random_expression(rng, depth=int(rng.integers(0, 7)))
             for _ in range(REPLAY_EXPRESSIONS)]
    return {
        "props": props,
        "iterate": [replay_iterate(rng) for _ in range(REPLAY_ITERATE_RUNS)],
        "families": [replay_family(rng, j) for j in range(REPLAY_FAMILIES)],
        "suites": [replay_suite(rng, j) for j in range(REPLAY_SUITES)],
        "radii": [str(r) for r in radii],
        "g_f": rng.uniform(-3.0, 3.0, 4 * REPLAY_RADII),
        "truncation": oracles.truncation_layout(radii),
        "expressions": [(oracles.format_expression(e), e) for e in exprs],
    }


WORKLOADS = {"iterate-cli": iterate_cli, "lattice-large": lattice_large,
             "paper-replay": paper_replay}
