"""Finite probability spaces, measure families, and the partition lattice.

A sub-sigma-field of a finite space is stored as the partition that
generates it (the two are in bijection), so field intersection and
union become the lattice meet and join of partitions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np

ROW_SUM_TOL = 1e-12


class StructuralError(ValueError):
    """An input violates a structural contract (sizes, coverage, signs)."""


def as_vector(values, n: int) -> np.ndarray:
    """Validate a length-``n`` real vector and return it as a float array."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape[0] != n:
        raise StructuralError(f"expected a length-{n} vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise StructuralError(f"vector entry {bad} is not finite")
    return x


def _fields_equal(a, b) -> bool:
    """Dataclass equality that compares array fields by value.

    The generated ``__eq__`` compares fields with ``==``, which for an
    ndarray field yields an array whose truth value is ambiguous.
    """
    if type(a) is not type(b):
        return NotImplemented

    def same(u, v) -> bool:
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            return type(u) is type(v) and np.array_equal(u, v)
        return u == v

    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)


@dataclass(frozen=True)
class OutcomeSpace:
    """A finite sample space given by distinct outcome labels."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        object.__setattr__(self, "labels", tuple(str(s) for s in labels))
        if self.n < 1:
            raise StructuralError("an outcome space needs at least one outcome")
        if len(set(self.labels)) != self.n:
            raise StructuralError("outcome labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @classmethod
    def indexed(cls, n: int) -> "OutcomeSpace":
        _count(n, "n")
        return cls(str(i) for i in range(n))


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """A finite family of probability measures: one weight row per measure.

    Rows must be nonnegative and sum to 1 within ``ROW_SUM_TOL``; inputs
    outside that tolerance are rejected rather than renormalized.  The family
    validates and holds its own read-only, C-ordered copy of the weights.
    """

    weights: np.ndarray

    def __init__(self, weights):
        w = np.array(weights, dtype=float, order="C", ndmin=2)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise StructuralError(f"weights must form an m x n grid, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise StructuralError("weights must be finite")
        if np.any(w < 0):
            row, col = np.argwhere(w < 0)[0]
            raise StructuralError(f"weights[{row}][{col}] is negative")
        sums = w.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > ROW_SUM_TOL):
            row = int(np.argmax(off))
            raise StructuralError(
                f"measure row {row} sums to {float(sums[row])!r}, not 1 within {ROW_SUM_TOL}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    def row(self, gamma: int) -> np.ndarray:
        return self.weights[gamma]

    @cached_property
    def _charged(self) -> np.ndarray:
        """Where some measure of the family puts positive weight."""
        return self.weights.any(axis=0)

    @classmethod
    def uniform(cls, n: int) -> "MeasureFamily":
        _count(n, "n")
        return cls(np.full((1, n), 1.0 / n))

    @classmethod
    def single(cls, weights) -> "MeasureFamily":
        return cls(np.asarray(weights, dtype=float)[None, :])


def _index_array(values, what: str, *ids) -> np.ndarray:
    """Outcome indices as a 1-d numeric array, not yet range-checked or cast.

    Integral numbers only: booleans, strings, fractions and inf are refused
    rather than truncated; only a float array can hold the last two, and a 1-d
    integer array is returned as is.  A refusal names ``what.format(*ids)``.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return values
    v = values if isinstance(values, np.ndarray) else list(values)
    a = np.asarray(v)
    if (a.ndim != 1 or a.dtype.kind not in "iuf"
            or a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.round(a)))
            or isinstance(v, list) and not {bool, np.bool_}.isdisjoint(map(type, v))):
        raise StructuralError(f"{what.format(*ids)} holds an outcome index that is not an integer")
    return a


def _count(value, name: str, least: int = 1) -> None:
    """The rule for counts and caps: an integer >= ``least``; bools refused."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise StructuralError(f"{name} must be an integer >= {least}, got {value!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _tolerance(value, name: str = "tol") -> None:
    """The rule for tolerances: a finite positive real; bools refused."""
    if not (_is_real(value) and value > 0):
        raise StructuralError(f"{name} must be finite and positive, got {value!r}")


def _finite(value, name: str) -> float:
    """The rule for scalar reals: finite; bools refused.  Returns a float."""
    if not _is_real(value):
        raise StructuralError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def _canonical(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Non-negative labels renumbered 0, 1, ... by first appearance, and their count."""
    n = labels.size
    if labels.max() >= 2 * n:   # sparse codes (a join's label pairs): compress first
        labels = np.unique(labels, return_inverse=True)[1]
    first = np.full(int(labels.max()) + 1, n)
    np.minimum.at(first, labels, np.arange(n))
    used = np.flatnonzero(first < n)
    rank = np.empty(first.size, dtype=np.intp)
    rank[used[np.argsort(first[used])]] = np.arange(used.size)
    return rank[labels], used.size


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint non-empty index blocks covering ``0..n-1``.

    Stored as one read-only label array: ``block_of[i]`` is the block of
    outcome ``i``, with blocks numbered in order of their least outcome.
    That numbering is canonical, so two partitions are equal iff their
    label arrays are.  ``blocks`` is derived from it.
    """

    block_of: np.ndarray
    k: int

    def __init__(self, blocks: Iterable[Iterable[int]]):
        """Concatenates the blocks once and numbers them by their k least elements."""
        parts = []
        for j, b in enumerate(blocks):
            a = _index_array(b, "block {}", j)
            if not a.size:
                raise StructuralError("blocks must be non-empty")
            parts.append(a)
        if not parts:
            raise StructuralError("a partition needs at least one block")
        flat = np.concatenate(parts)
        n = flat.size
        if flat.min() < 0:
            raise StructuralError(f"negative outcome index {int(flat.min())}")
        # an index at or past n leaves some index below n uncovered
        inside = (flat if flat.max() < n else flat[flat < n]).astype(np.intp, copy=False)
        counts = np.bincount(inside, minlength=n)
        if np.any(counts > 1):
            raise StructuralError(f"blocks overlap at index {int(np.argmax(counts > 1))}")
        if inside.size < n:
            raise StructuralError(f"blocks do not cover index {int(np.argmin(counts))}")
        sizes = np.fromiter(map(len, parts), np.intp, len(parts))
        order = np.argsort(np.minimum.reduceat(inside, np.cumsum(sizes) - sizes))
        labels = np.empty(n, dtype=np.intp)
        labels[inside] = np.repeat(np.argsort(order), sizes)    # each block's rank
        self._adopt(labels, len(parts))

    def _adopt(self, block_of: np.ndarray, k: int) -> None:
        block_of.setflags(write=False)
        object.__setattr__(self, "block_of", block_of)
        object.__setattr__(self, "k", k)

    @classmethod
    def _from_labels(cls, labels: np.ndarray) -> "Partition":
        """The partition whose blocks are the level sets of ``labels``."""
        p = cls.__new__(cls)
        p._adopt(*_canonical(labels))
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.block_of, other.block_of)

    def __hash__(self) -> int:
        return hash(self.block_of.tobytes())

    @property
    def n(self) -> int:
        return self.block_of.size

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Sorted index tuples, ordered by least element."""
        # labels fit the narrowest unsigned dtype; up to 16 bits a stable sort is a radix sort
        narrow = self.block_of.astype(np.min_scalar_type(self.k - 1))
        members = np.argsort(narrow, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.block_of)).tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of ``other``."""
        _check_same_space(self, other)
        # the block of `other` that each own block lands in, if it lands in one
        coarse = np.empty(self.k, dtype=np.intp)
        coarse[self.block_of] = other.block_of
        return np.array_equal(coarse[self.block_of], other.block_of)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        _count(n, "n")
        return cls._from_labels(np.arange(n))

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        _count(n, "n")
        return cls._from_labels(np.zeros(n, dtype=np.intp))


def _check_same_space(p1: Partition, p2: Partition) -> None:
    if p1.n != p2.n:
        raise StructuralError(f"partition sizes differ: {p1.n} vs {p2.n}")


def meet(p1: Partition, p2: Partition) -> Partition:
    """Finest partition coarser than both: the intersection of the fields.

    Its blocks are the connected components of the graph on the k1 + k2
    blocks of both partitions with one edge per outcome.  Each round hooks
    roots onto smaller roots, then pointer-jumps the trees to stars
    (Shiloach-Vishkin 1982), so even a chain of blocks takes few rounds.
    """
    _check_same_space(p1, p2)
    u, v = p1.block_of, p2.block_of + p1.k
    parent = np.arange(p1.k + p2.k)
    while u.size:
        ru, rv = parent[u], parent[v]
        cross = ru != rv        # edges inside one tree stay inside it
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
    return Partition._from_labels(parent[p1.block_of])


def join(p1: Partition, p2: Partition) -> Partition:
    """Common refinement: all non-empty pairwise block intersections."""
    _check_same_space(p1, p2)
    return Partition._from_labels(p1.block_of * p2.k + p2.block_of)


def null_set(family: MeasureFamily) -> frozenset[int]:
    """Outcome indices carrying zero weight under every measure of the family."""
    return frozenset(np.flatnonzero(~family._charged).tolist())


def completion(p: Partition, nulls: Iterable[int]) -> Partition:
    """Partition generating the field of ``p`` together with all null sets.

    Null outcomes are split into their own singleton blocks (never
    deleted, so vectors stay index-aligned); the rest keep their block.
    """
    dead = _index_array(nulls, "the null set")
    if dead.size and (dead.min() < 0 or dead.max() >= p.n):
        raise StructuralError("null indices must lie in the partition's index range")
    dead = dead.astype(np.intp)
    labels = p.block_of.copy()
    labels[dead] = p.k + dead
    return Partition._from_labels(labels)


def is_measurable(x, p: Partition, tol: float = 0.0) -> bool:
    """True iff ``x`` is constant on every block of ``p``.

    The default is exact equality; pass a tolerance for vectors produced
    by floating-point arithmetic.
    """
    v = as_vector(x, p.n)
    top, bottom = np.full(p.k, -np.inf), np.full(p.k, np.inf)
    np.maximum.at(top, p.block_of, v)
    np.minimum.at(bottom, p.block_of, v)
    return bool(np.all(top - bottom <= tol))
