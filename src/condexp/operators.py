"""Conditional expectation operators as measure-weighted block projections.

The central object is :class:`CondExpOperator`: averaging over the blocks
of a partition under a fixed weighting measure.  On the weighted L2 space
it is a self-adjoint idempotent contraction, and products of two such
operators drive the alternating iteration whose limit is the conditional
expectation given the intersection field.  Everything here is matrix-free:
an application costs two linear passes: block sums, then one ``take`` gather.

``iterate`` pays that O(n) cost once: it runs the limit and the first
application on the n outcomes, builds the cells (the blocks of the join
of the partitions), and runs every later application on one value per
cell under the cell masses, at O(cells + sum of the block counts) each.
When the join is the finest partition the cells are the outcomes, and the
run uses the operators' own tables and is bit for bit the n-space run;
otherwise its sums are taken over cells and differ in the last digits.

One private table, ``_BlockAverages``, averages one weight row or an
m x n stack: ``CondExpOperator`` is its one-row view and the sufficiency
block table its m-row view, so their rows agree bit for bit by
construction.  One kernel, ``_masked_sup``, takes every sup over the
outcomes a measure charges, as one masked reduce over a vector or stack.

Conventions: a block of total weight zero maps to output value 0, which
keeps the operator linear and self-adjoint as written; all norms ignore
coordinates of measure zero, so statements hold almost everywhere in the
only sense a finite space has.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .rng import portable_rng
from .space import (
    MeasureFamily,
    Partition,
    StructuralError,
    _count,
    _fields_equal,
    _tolerance,
    as_vector,
    completion,
    join,
    meet,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


def _masked_sup(seen: np.ndarray, X: np.ndarray) -> float:
    """The sup of |X| over every entry ``seen`` marks (0 if none), as a float."""
    return float(np.maximum.reduce(np.abs(X), axis=None, where=seen, initial=0.0))


class _BlockAverages:
    """Weighted block averages over one partition, for every row of ``weights``.

    ``weights`` is one validated weight row or an m x n stack.  Block b of
    row gamma is flat bin gamma * k + b, so one bincount over the flat
    labels sums every row over every block, and one gather from the flat
    sums spreads them back.  ``mass`` holds the block masses (shape k, or
    m x k); the per-block normalized weights are built on first use, so a
    table that never averages pays for the masses only.  Vectors handed
    to the methods are already validated float arrays.
    """

    def __init__(self, partition: Partition, weights: np.ndarray):
        self.partition, self.weights = partition, weights
        block_of, k = partition.block_of, partition.k
        # shaped like the weights, so a gather through them needs no reshape;
        # blocks are non-empty, so every flat bin occurs and needs no minlength
        self._labels = (block_of if weights.ndim == 1 else
                        block_of + k * np.arange(weights.shape[0])[:, None])
        self._flat = self._labels.ravel()
        self.mass = self._sums(weights)

    def _sums(self, X: np.ndarray) -> np.ndarray:
        """The block sums of every row of ``X``, in one pass (shaped like ``mass``)."""
        return np.bincount(self._flat, weights=X.ravel()).reshape(
            self.weights.shape[:-1] + (self.partition.k,))

    @cached_property
    def normalized(self) -> np.ndarray:
        # each weight divided by its block's mass into the gathered masses, so a
        # zero-mass block keeps its 0: a singleton block of positive mass then has
        # weight exactly 1, so the finest partition's operator is the identity, bit for bit
        mass_at = self.mass.ravel().take(self._labels)
        return np.divide(self.weights, mass_at, out=mass_at, where=mass_at > 0)

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """Row gamma's block average of row gamma of ``X`` (``X`` shaped like the
        weights): the flat ``_sums`` of ``normalized * X``, gathered back."""
        return np.bincount(self._flat, weights=(self.normalized * X).ravel()).take(self._labels)


class WeightedInnerProduct:
    """Inner product and norms weighted by one probability measure.

    The measure must pass the ``MeasureFamily`` row rule: finite,
    nonnegative and summing to 1.  The sup norm runs over outcomes of
    positive weight only; null coordinates are invisible to every norm here.
    """

    def __init__(self, measure):
        w = np.asarray(measure, dtype=float)
        if w.ndim != 1:
            raise StructuralError("measure must be a single weight row")
        self.measure = MeasureFamily.single(w).weights[0]
        self._seen = self.measure > 0
        self.n = w.shape[0]

    def inner(self, x, y) -> float:
        x, y = as_vector(x, self.n), as_vector(y, self.n)
        return float(np.dot(self.measure, x * y))

    def norm1(self, x) -> float:
        return float(np.dot(self.measure, np.abs(as_vector(x, self.n))))

    def norm2_sq(self, x) -> float:
        return self._norm2_sq(as_vector(x, self.n))

    def norm2(self, x) -> float:
        return float(np.sqrt(self.norm2_sq(x)))

    def norminf(self, x) -> float:
        return self._norminf(as_vector(x, self.n))

    def distinf(self, x, y) -> float:
        """Sup distance over positive-measure coordinates."""
        return self.norminf(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    # Unchecked kernels for float vectors already validated to length n.
    def _norm2_sq(self, x: np.ndarray) -> float:
        return float(np.dot(self.measure, x * x))

    def _norminf(self, x: np.ndarray) -> float:
        return _masked_sup(self._seen, x)


class CondExpOperator(_BlockAverages):
    """Weighted block-average projection for one partition and one measure.

    Applying the operator replaces each coordinate by the measure-weighted
    mean of its block; blocks of zero total weight map to 0.  The output
    is always exactly constant on blocks.  The measure is checked once,
    where the operator is built, by the ``MeasureFamily`` row rule.
    """

    def __init__(self, partition: Partition, measure):
        ip = WeightedInnerProduct(measure)
        if ip.n != partition.n:
            raise StructuralError(
                f"measure length {ip.measure.shape} does not match partition size {partition.n}"
            )
        super().__init__(partition, ip.measure)
        self.measure, self.n, self.ip = ip.measure, partition.n, ip

    def apply(self, x) -> np.ndarray:
        return self._apply(as_vector(x, self.n))

    __call__ = apply

    def same_measure_as(self, other: "CondExpOperator") -> bool:
        return self.n == other.n and np.array_equal(self.measure, other.measure)


def _sharing_one_measure(ops) -> list:
    """The operators as a non-empty list, checked to share one weighting measure."""
    ops = list(ops)
    if not ops:
        raise StructuralError("need at least one operator")
    if not all(ops[0].same_measure_as(op) for op in ops[1:]):
        raise StructuralError("operators must share one weighting measure")
    return ops


class OperatorProduct:
    """A fixed composition of operators, applied first-to-last.

    ``OperatorProduct((a, b, a))`` maps x to a(b(a(x))).  The product is
    self-adjoint whenever the factor sequence is palindromic, as the
    ledger's ``sandwich_product`` is by construction.
    """

    def __init__(self, factors: Sequence[CondExpOperator]):
        self.factors = tuple(_sharing_one_measure(factors))
        first = self.factors[0]
        self.n = first.n
        self.measure = first.measure
        self.ip = first.ip

    def apply(self, x) -> np.ndarray:
        return self._apply(as_vector(x, self.n))

    __call__ = apply

    def _apply(self, y: np.ndarray) -> np.ndarray:
        for op in self.factors:
            y = op._apply(y)
        return y


def sandwich_product(outer: CondExpOperator, inner: CondExpOperator) -> OperatorProduct:
    """The palindromic composition outer . inner . outer."""
    return OperatorProduct((outer, inner, outer))


def direct_meet_operator(ops: Sequence[CondExpOperator]) -> CondExpOperator:
    """Projection onto the intersection of the operators' completed fields.

    Null outcomes of the shared measure are split off before taking the
    lattice meet, because the alternating limit only sees the completed
    fields.  This is the independent target that iterate limits are
    certified against.
    """
    ops = _sharing_one_measure(ops)
    base = ops[0]
    nulls = np.flatnonzero(~base.ip._seen)
    target = reduce(meet, (completion(op.partition, nulls) for op in ops))
    return CondExpOperator(target, base.measure)


@dataclass(frozen=True)
class PropertyReport:
    """Largest observed violation of each projection property."""

    trials: int
    self_adjoint: float
    idempotent: float
    contraction_l1: float
    contraction_l2: float
    contraction_linf: float
    orthogonality: float

    def max_violation(self) -> float:
        return max(self.self_adjoint, self.idempotent, self.contraction_l1,
                   self.contraction_l2, self.contraction_linf, self.orthogonality)

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_violation() <= tol


def verify_projection_properties(op: CondExpOperator, trials: int,
                                 seed: int = 0) -> PropertyReport:
    """Probe the projection axioms on random vectors with entries in [-1, 1].

    Checks symmetry of the weighted inner product under the operator,
    idempotence, contraction in the 1-, 2- and sup-norms, and
    orthogonality of range and residual.  Violations are reported, never
    raised.  It draws its own finite vectors, so it runs the unchecked kernels.
    """
    _count(trials, "trials")
    rng = portable_rng(seed)
    ip, w = op.ip, op.measure
    worst = dict.fromkeys(
        ("self_adjoint", "idempotent", "contraction_l1", "contraction_l2",
         "contraction_linf", "orthogonality"), 0.0)
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, op.n)
        y = rng.uniform(-1.0, 1.0, op.n)
        tx, ty = op._apply(x), op._apply(y)
        worst["self_adjoint"] = max(worst["self_adjoint"],
                                    abs(float(np.dot(w, tx * y)) - float(np.dot(w, x * ty))))
        worst["idempotent"] = max(worst["idempotent"],
                                  float(np.max(np.abs(op._apply(tx) - tx))))
        worst["contraction_l1"] = max(worst["contraction_l1"], float(np.dot(w, np.abs(tx)))
                                      - float(np.dot(w, np.abs(x))))
        worst["contraction_l2"] = max(worst["contraction_l2"], math.sqrt(ip._norm2_sq(tx))
                                      - math.sqrt(ip._norm2_sq(x)))
        worst["contraction_linf"] = max(worst["contraction_linf"],
                                        ip._norminf(tx) - ip._norminf(x))
        worst["orthogonality"] = max(worst["orthogonality"],
                                     abs(float(np.dot(w, (x - tx) * ty))))
    return PropertyReport(trials=trials, **worst)


@dataclass(frozen=True)
class IterationReport:
    """Per-iterate scalars and the certification record of one alternating run.

    Entry k of ``norms2`` and ``residuals`` belongs to the iterate after
    k + 1 applications: its squared weighted norm and its weighted sup
    distance to ``limit``.  ``diffs2[k]`` is the squared weighted norm of
    the step between iterates k + 1 and k + 2.  ``limit`` is not the final
    iterate: it is the independently computed projection onto the
    intersection of the completed fields, and ``residual`` is the sup
    distance between ``final`` and it.  ``stop_reason`` says why the run
    ended: ``"tolerance met"`` (``converged``), ``"schedule exhausted"``
    or ``"iteration cap"``.
    """

    final: np.ndarray
    norms2: np.ndarray
    diffs2: np.ndarray
    residuals: np.ndarray
    limit: np.ndarray
    iterations_used: int
    converged: bool
    residual: float
    stop_reason: str

    __eq__ = _fields_equal


def iterate(ops: Sequence[CondExpOperator], x, schedule="alternating",
            tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> IterationReport:
    """Run the projection iteration S_k = T_k ... T_1 x and certify its limit.

    ``schedule`` is either ``"alternating"`` (cycle through ``ops``
    endlessly) or an explicit sequence of indices into ``ops``.  The run
    stops on tolerance once the last step, the distance to the certified
    limit and the move of every operator on the iterate are all within
    ``tol`` in the weighted sup norm (a small step under one operator
    alone proves nothing); otherwise when an explicit schedule is
    exhausted, or after ``max_iter`` applications.  Non-convergence is
    reported, not raised.  Only per-iterate scalars are kept, so memory
    does not grow with the number of applications.

    The first application runs on the n outcomes.  Every later iterate is
    constant on the cells of the join of the partitions, and so is the
    limit on the outcomes the measure charges, so the rest of the run
    averages one value per cell under the cell masses; ``final`` is
    spread back to the outcomes once.  When the join is the finest
    partition the cells are the outcomes, and the run alternates on the
    operators' own tables, the measure and ``limit`` themselves.
    """
    ops = _sharing_one_measure(ops)
    _tolerance(tol)
    _count(max_iter, "max_iter")
    base = ops[0]
    x = as_vector(x, base.n)

    if isinstance(schedule, str) and schedule == "alternating":
        indices = itertools.cycle(range(len(ops)))
    else:
        indices = list(schedule)
        for i in indices:
            _count(i, "a schedule entry", least=0)
        if indices and max(indices) >= len(ops):
            raise StructuralError(
                f"schedule entries must be indices into the {len(ops)} operators")
        indices = iter(indices)

    ip = base.ip
    limit = direct_meet_operator(ops)._apply(x)
    first = next(indices, None)
    if first is None:
        return IterationReport(
            final=x, norms2=np.empty(0), diffs2=np.empty(0), residuals=np.empty(0),
            limit=limit, iterations_used=0, converged=False,
            residual=ip._norminf(x - limit), stop_reason="schedule exhausted")
    cur = ops[first]._apply(x)

    # Cells: the blocks of the join.  On a finest join they are the outcomes
    # in order, and a slice stands for both maps between outcomes and cells.
    cells = reduce(join, (op.partition for op in ops))
    if cells.k == base.n:
        cell_of = least = slice(None)
        mass, seen, tables, cell_limit = base.measure, ip._seen, ops, limit
    else:
        # cells are numbered by least outcome, so the running maximum of the
        # labels steps up by one exactly at each cell's least outcome
        cell_of = cells.block_of
        least = np.flatnonzero(np.diff(np.maximum.accumulate(cell_of), prepend=-1))
        mass = np.bincount(cell_of, weights=base.measure)
        seen = mass > 0
        tables = [_BlockAverages(Partition._from_labels(op.partition.block_of[least]), mass)
                  for op in ops]
        # the limit is constant on the charged outcomes of a cell; the value
        # of a zero-mass cell is never read, since every sup runs over ``seen``
        cell_limit = np.zeros(mass.size)
        cell_limit[cell_of[ip._seen]] = limit[ip._seen]

    norms2 = [ip._norm2_sq(cur)]
    diffs2: list[float] = []
    residuals = [ip._norminf(cur - limit)]
    step = ip._norminf(cur - x)
    cur = cur[least]
    while True:
        # A small step alone is not enough: an operator that happens to fix
        # the current iterate (the identity, say) would freeze the run before
        # the others act.  Stop only once the iterate is certified and every
        # operator is done moving it.
        if (step <= tol and residuals[-1] <= tol
                and all(_masked_sup(seen, t._apply(cur) - cur) <= tol for t in tables)):
            stop_reason = "tolerance met"
            break
        if len(norms2) >= max_iter:
            stop_reason = "iteration cap"
            break
        idx = next(indices, None)
        if idx is None:
            stop_reason = "schedule exhausted"
            break
        prev, cur = cur, tables[idx]._apply(cur)
        d = cur - prev
        diffs2.append(float(np.dot(mass, d * d)))
        norms2.append(float(np.dot(mass, cur * cur)))
        residuals.append(_masked_sup(seen, cur - cell_limit))
        step = _masked_sup(seen, d)

    return IterationReport(
        final=cur[cell_of],
        norms2=np.array(norms2),
        diffs2=np.array(diffs2),
        residuals=np.array(residuals),
        limit=limit,
        iterations_used=len(norms2),
        converged=stop_reason == "tolerance met",
        residual=residuals[-1],
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class SumBoundReport:
    """Partial sums of squared power differences for a palindromic product.

    ``terms[k]`` is the squared weighted distance between the (k+1)-st and
    (k+3)-rd powers applied to x.  For a self-adjoint contraction the plain
    partial sum never exceeds the squared norm of x, and the index-weighted
    sum telescopes toward the gap between the first power and the limit
    projection.
    """

    terms: np.ndarray
    partial_sum: float
    weighted_sum: float
    bound: float
    weighted_target: float

    @property
    def weighted_residual(self) -> float:
        return abs(self.weighted_sum - self.weighted_target)


def power_difference_ledger(t1: CondExpOperator, t2: CondExpOperator, x,
                            n_terms: int) -> SumBoundReport:
    """Sum the squared differences of powers of the sandwich t1.t2.t1.

    Computes sum over n = 1..n_terms of the squared weighted norm of
    (T^n - T^{n+2}) x for T = t1.t2.t1, together with the n-weighted sum,
    the bound given by the squared norm of x, and the weighted sum's
    telescoping target: squared norm of T x minus squared norm of the
    intersection projection of x.
    """
    _count(n_terms, "n_terms")
    product = sandwich_product(t1, t2)
    ip = product.ip
    x = as_vector(x, product.n)
    # a window of three consecutive powers T^k x, T^(k+1) x, T^(k+2) x
    a = product._apply(x)
    b = product._apply(a)
    first_norm2 = ip._norm2_sq(a)
    terms = np.empty(n_terms)
    for k in range(n_terms):
        c = product._apply(b)
        terms[k] = ip._norm2_sq(a - c)
        a, b = b, c
    weights = np.arange(1, n_terms + 1, dtype=float)
    q = direct_meet_operator([t1, t2])
    return SumBoundReport(
        terms=terms,
        partial_sum=float(terms.sum()),
        weighted_sum=float(np.dot(weights, terms)),
        bound=ip.norm2_sq(x),
        weighted_target=first_norm2 - ip._norm2_sq(q._apply(x)),
    )


MAX_DYADIC_LEVEL = 20


def dyadic_average_trajectory(op, x, n_max: int) -> list[np.ndarray]:
    """Dyadic running averages of even powers of ``op`` applied to ``x``.

    Returns, for each level n = 0..n_max, the average of T^2 x, T^4 x, ...
    up to the 2^n-th even power; computed with one running power so level
    n costs no recomputation over level n-1.  Levels are capped at
    ``MAX_DYADIC_LEVEL`` since level n needs 2^(n+1) applications.
    """
    _count(n_max, "n_max", least=0)
    if n_max > MAX_DYADIC_LEVEL:
        raise StructuralError(
            f"n_max = {n_max} exceeds the level cap {MAX_DYADIC_LEVEL}"
        )
    x = as_vector(x, op.n)
    averages = []
    running = x
    total = np.zeros_like(x)
    count = 0
    for level in range(n_max + 1):
        while count < 2 ** level:
            running = op._apply(op._apply(running))
            total = total + running
            count += 1
        averages.append(total / count)
    return averages
