"""Independent reference computations for checking benchmark outputs.

Nothing here imports ``condexp``: partitions are plain label arrays,
conditional expectations are weighted block means, meets are connected
components, sufficiency is decided by brute force over indicators, and
set expressions are nested tuples evaluated by direct recursion.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def canonical(labels) -> np.ndarray:
    """Relabel blocks 0, 1, ... in order of their first outcome.

    This is the numbering a partition gets when its blocks are sorted by
    least element, so two partitions are equal iff their canonical labels
    are equal.
    """
    labels = np.asarray(labels)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return rank[inverse.ravel()]


def labels_of_blocks(blocks, n: int) -> np.ndarray:
    """Label array of a partition given as blocks (index sequences)."""
    out = np.full(n, -1, dtype=np.int64)
    for j, block in enumerate(blocks):
        out[np.asarray(block, dtype=np.int64)] = j
    if np.any(out < 0):
        raise ValueError("blocks do not cover every outcome")
    return canonical(out)


def blocks_of_labels(labels) -> list[np.ndarray]:
    """Blocks (ascending index arrays) of a label array, one per label value."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, cuts)


def meet_labels(*labelings, alive=None) -> np.ndarray:
    """Canonical labels of the finest partition coarser than every labeling.

    Outcomes are linked when they share a block in any labeling; the
    blocks are the connected components of that graph, found on the graph
    whose vertices are the blocks of all labelings.  Outcomes outside
    ``alive`` are split off as singletons and link nothing.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    first = np.asarray(labelings[0])
    n = first.shape[0]
    alive = np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    offsets, rows, cols, total = [], [], [], 0
    for lab in labelings:
        lab = np.asarray(lab, dtype=np.int64)
        offsets.append(total)
        total += int(lab.max()) + 1
    for off, lab in zip(offsets[1:], labelings[1:]):
        rows.append(first[alive] + offsets[0])
        cols.append(np.asarray(lab)[alive] + off)
    if rows:
        r, c = np.concatenate(rows), np.concatenate(cols)
    else:
        r = c = np.zeros(0, dtype=np.int64)
    graph = coo_matrix((np.ones(r.size), (r, c)), shape=(total, total))
    _, comp = connected_components(graph, directed=False)
    labels = comp[first].astype(np.int64)
    return canonical(np.where(alive, labels, comp.max() + 1 + np.arange(n)))


def join_labels(l1, l2) -> np.ndarray:
    """Canonical labels of the common refinement: one block per label pair."""
    pairs = np.stack([np.asarray(l1), np.asarray(l2)], axis=1)
    _, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return canonical(inverse.ravel())


def completion_labels(labels, null) -> np.ndarray:
    """Null outcomes split off into singletons, the rest keep their block."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    return canonical(np.where(null, labels.max() + 1 + np.arange(n), labels))


def refines(fine, coarse) -> bool:
    """True iff every block of ``fine`` lies inside one block of ``coarse``."""
    fine = np.asarray(fine)
    pairs = np.unique(np.stack([fine, np.asarray(coarse)], axis=1), axis=0)
    return pairs.shape[0] == np.unique(fine).size


def block_means(labels, w, x) -> np.ndarray:
    """Weighted mean of ``x`` over each outcome's block; zero-mass blocks give 0."""
    labels = np.asarray(labels)
    mass = np.bincount(labels, weights=w)
    total = np.bincount(labels, weights=np.asarray(w) * np.asarray(x))
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(mass > 0, total / mass, 0.0)
    return means[labels]


def shared_block_means(labels, weights, x) -> np.ndarray:
    """Conditional mean of ``x`` per block under the first measure charging it.

    For a sufficient partition every charging measure gives the same
    value; blocks charged by none give 0.
    """
    labels = np.asarray(labels)
    out = np.zeros(labels.shape[0])
    done = np.zeros(int(labels.max()) + 1, dtype=bool)
    for row in np.atleast_2d(weights):
        mass = np.bincount(labels, weights=row, minlength=done.size)
        charged = (mass > 0) & ~done
        means = block_means(labels, row, x)
        take = charged[labels]
        out[take] = means[take]
        done |= charged
    return out


def sufficient_bruteforce(weights, labels, atol: float = 1e-10) -> bool:
    """Sufficiency by the definition: every indicator has one conditional mean
    per block shared by all measures charging that block."""
    weights = np.atleast_2d(weights)
    n = weights.shape[1]
    for block in blocks_of_labels(labels):
        for target in range(n):
            values = []
            for row in weights:
                mass = float(row[block].sum())
                if mass > 0:
                    values.append(float(row[target]) / mass if target in block else 0.0)
            if values and max(values) - min(values) > atol:
                return False
    return True


def projection_matrix(labels, w) -> np.ndarray:
    """Explicit matrix of the weighted block-average projection."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    same = labels[:, None] == labels[None, :]
    mass = np.bincount(labels, weights=w)[labels]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(same & (mass[:, None] > 0), np.asarray(w)[None, :] / mass[:, None], 0.0)


def sandwich_powers(l1, l2, w, x, count: int) -> np.ndarray:
    """Rows T^0 x, ..., T^count x for T = P1 P2 P1 as explicit matrices."""
    p1, p2 = projection_matrix(l1, w), projection_matrix(l2, w)
    t = p1 @ p2 @ p1
    out = [np.asarray(x, dtype=float)]
    for _ in range(count):
        out.append(t @ out[-1])
    return np.array(out)


def weighted_norm2_sq(w, v) -> float:
    return float(np.dot(w, np.asarray(v) ** 2))


# ---------------------------------------------------------------------------
# reflection orbits and set expressions
#
# An expression is a nested tuple: ("a", family, radius, sign),
# ("u", left, right), ("i", left, right) or ("c", inner); radius is a
# Fraction and sign is +1 or -1.  A point is (radius, s1, s2).

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def contains(expr, point) -> bool:
    radius, s1, s2 = point
    head = expr[0]
    if head == "a":
        _, family, r, sign = expr
        return radius == r and (s1 if family == 1 else s2) == sign
    if head == "u":
        return contains(expr[1], point) or contains(expr[2], point)
    if head == "i":
        return contains(expr[1], point) and contains(expr[2], point)
    return not contains(expr[1], point)


def format_expression(expr) -> str:
    head = expr[0]
    if head == "a":
        _, family, radius, sign = expr
        return f"(a {family} {radius} {'+' if sign == 1 else '-'})"
    return "(" + head + " " + " ".join(format_expression(e) for e in expr[1:]) + ")"


def truncation_layout(radii) -> dict:
    """The finite space over ``radii``: points, measures and generator blocks.

    Radii are taken in increasing order with four outcomes each, in sign
    order ++, +-, -+, --; measure k puts 1/4 on orbit k; family 1 pairs
    outcomes sharing the first sign, family 2 those sharing the second.
    """
    order = sorted(Fraction(r) for r in radii)
    points = [(r, s1, s2) for r in order for s1, s2 in SIGNS]
    n = len(points)
    orbit = np.repeat(np.arange(len(order)), 4)
    first = np.array([s1 for _, s1, _ in points])
    second = np.array([s2 for _, _, s2 in points])
    weights = np.zeros((len(order), n))
    weights[orbit, np.arange(n)] = 0.25
    return {
        "points": points,
        "weights": weights,
        "p1": canonical(orbit * 2 + (first < 0)),
        "p2": canonical(orbit * 2 + (second < 0)),
        "diagonal": frozenset(i for i, (_, s1, s2) in enumerate(points) if s1 == s2),
    }
