"""Conditional expectation operators as measure-weighted block projections.

The central object is :class:`CondExpOperator`: averaging over the blocks
of a partition under a fixed weighting measure.  On the weighted L2 space
it is a self-adjoint idempotent contraction, and products of two such
operators drive the alternating iteration whose limit is the conditional
expectation given the intersection field.  Everything here is matrix-free:
an application costs two linear passes (block sums, then scatter).

Conventions: a block of total weight zero maps to output value 0, which
keeps the operator linear and self-adjoint as written; all norms ignore
coordinates of measure zero, so statements hold almost everywhere in the
only sense a finite space has.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import portable_rng
from .space import (
    MeasureFamily,
    Partition,
    StructuralError,
    _fields_equal,
    as_vector,
    completion,
    meet,
    null_set,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


class WeightedInnerProduct:
    """Inner product and norms weighted by one probability measure.

    The sup norm runs over outcomes of positive weight only; null
    coordinates are invisible to every norm here.
    """

    def __init__(self, measure):
        w = np.asarray(measure, dtype=float)
        if w.ndim != 1:
            raise StructuralError("measure must be a single weight row")
        self.measure = w
        self.charged = np.flatnonzero(w > 0)
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
        if not self.charged.size:
            return 0.0
        return float(np.max(np.abs(x[self.charged])))


class CondExpOperator:
    """Weighted block-average projection for one partition and one measure.

    Applying the operator replaces each coordinate by the measure-weighted
    mean of its block; blocks of zero total weight map to 0.  The output
    is always exactly constant on blocks.
    """

    def __init__(self, partition: Partition, measure):
        w = np.asarray(measure, dtype=float)
        if w.ndim != 1 or w.shape[0] != partition.n:
            raise StructuralError(
                f"measure length {w.shape} does not match partition size {partition.n}"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise StructuralError("measure weights must be finite and nonnegative")
        self.partition = partition
        self.measure = w
        self.n = partition.n
        self.ip = WeightedInnerProduct(w)
        self._block_of = partition.block_of
        self._block_mass = np.bincount(self._block_of, weights=w, minlength=partition.k)
        # Weights normalized per block ahead of time: a singleton block of
        # positive mass then has weight exactly 1, so the operator of the
        # finest partition is the exact identity, bit for bit.
        mass_at = self._block_mass[self._block_of]
        with np.errstate(invalid="ignore", divide="ignore"):
            self._normalized = np.where(mass_at > 0, w / mass_at, 0.0)

    def apply(self, x) -> np.ndarray:
        return self._apply(as_vector(x, self.n))

    __call__ = apply

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """The block average of a float vector already validated for this operator."""
        means = np.bincount(self._block_of, weights=self._normalized * x,
                            minlength=self.partition.k)
        return means[self._block_of]

    def same_measure_as(self, other: "CondExpOperator") -> bool:
        return self.n == other.n and np.array_equal(self.measure, other.measure)


class OperatorProduct:
    """A fixed composition of operators, applied first-to-last.

    ``OperatorProduct((a, b, a))`` maps x to a(b(a(x))).  The product is
    self-adjoint whenever the factor sequence is palindromic, which is the
    only case the summability ledger accepts.
    """

    def __init__(self, factors: Sequence[CondExpOperator]):
        factors = tuple(factors)
        if not factors:
            raise StructuralError("a product needs at least one factor")
        first = factors[0]
        for op in factors[1:]:
            if not first.same_measure_as(op):
                raise StructuralError("all factors must share one weighting measure")
        self.factors = factors
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

    @property
    def is_palindromic(self) -> bool:
        k = len(self.factors)
        return all(self.factors[i].partition == self.factors[k - 1 - i].partition
                   for i in range(k // 2))


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
    ops = list(ops)
    if not ops:
        raise StructuralError("need at least one operator")
    base = ops[0]
    for op in ops[1:]:
        if not base.same_measure_as(op):
            raise StructuralError("operators must share one weighting measure")
    nulls = null_set(MeasureFamily.single(base.measure))
    completed = [completion(op.partition, nulls) for op in ops]
    target = completed[0]
    for p in completed[1:]:
        target = meet(target, p)
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
    raised.
    """
    if trials < 1:
        raise StructuralError("trials must be >= 1")
    rng = portable_rng(seed)
    ip = op.ip
    worst = dict.fromkeys(
        ("self_adjoint", "idempotent", "contraction_l1", "contraction_l2",
         "contraction_linf", "orthogonality"), 0.0)
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, op.n)
        y = rng.uniform(-1.0, 1.0, op.n)
        tx, ty = op.apply(x), op.apply(y)
        worst["self_adjoint"] = max(worst["self_adjoint"],
                                    abs(ip.inner(tx, y) - ip.inner(x, ty)))
        worst["idempotent"] = max(worst["idempotent"],
                                  float(np.max(np.abs(op.apply(tx) - tx))))
        worst["contraction_l1"] = max(worst["contraction_l1"],
                                      ip.norm1(tx) - ip.norm1(x))
        worst["contraction_l2"] = max(worst["contraction_l2"],
                                      ip.norm2(tx) - ip.norm2(x))
        worst["contraction_linf"] = max(worst["contraction_linf"],
                                        ip.norminf(tx) - ip.norminf(x))
        worst["orthogonality"] = max(worst["orthogonality"],
                                     abs(ip.inner(x - tx, ty)))
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
    """
    ops = list(ops)
    if not ops:
        raise StructuralError("need at least one operator")
    if tol <= 0:
        raise StructuralError("tol must be positive")
    if max_iter < 1:
        raise StructuralError("max_iter must be >= 1")
    base = ops[0]
    for op in ops[1:]:
        if not base.same_measure_as(op):
            raise StructuralError("operators must share one weighting measure")
    x = as_vector(x, base.n)

    if isinstance(schedule, str) and schedule == "alternating":
        indices = itertools.cycle(range(len(ops)))
    else:
        indices = list(schedule)
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                   and 0 <= i < len(ops) for i in indices):
            raise StructuralError(
                f"schedule entries must be indices into the {len(ops)} operators")

    ip = base.ip
    limit = direct_meet_operator(ops)._apply(x)

    norms2: list[float] = []
    diffs2: list[float] = []
    residuals: list[float] = []
    prev = x
    stop_reason = "schedule exhausted"
    for idx in indices:
        cur = ops[idx]._apply(prev)
        d = cur - prev
        if norms2:
            diffs2.append(ip._norm2_sq(d))
        norms2.append(ip._norm2_sq(cur))
        residuals.append(ip._norminf(cur - limit))
        prev = cur
        # A small step alone is not enough: an operator that happens to fix
        # the current iterate (the identity, say) would freeze the run before
        # the others act.  Stop only once the iterate is certified and every
        # operator is done moving it.
        if (ip._norminf(d) <= tol and residuals[-1] <= tol
                and all(ip._norminf(op._apply(cur) - cur) <= tol for op in ops)):
            stop_reason = "tolerance met"
            break
        if len(norms2) >= max_iter:
            stop_reason = "iteration cap"
            break

    return IterationReport(
        final=prev,
        norms2=np.array(norms2),
        diffs2=np.array(diffs2),
        residuals=np.array(residuals),
        limit=limit,
        iterations_used=len(norms2),
        converged=stop_reason == "tolerance met",
        residual=residuals[-1] if residuals else ip._norminf(x - limit),
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
    def bound_margin(self) -> float:
        return self.bound - self.partial_sum

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
    if n_terms < 1:
        raise StructuralError("n_terms must be >= 1")
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
    if n_max < 0:
        raise StructuralError("n_max must be >= 0")
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
            running = op.apply(op.apply(running))
            total = total + running
            count += 1
        averages.append(total / count)
    return averages
