"""Checks on real sequences: convexity, the weighted-second-difference
telescoping identity, and the dyadic-average sup bound.

These operate on finite prefixes with a declared limit, so every check
reports a truncation-aware residual instead of pretending the infinite
statement can be tested verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import StructuralError, _finite, _tolerance, as_vector

CONVEXITY_TOL = 1e-12


def _as_sequence(values, min_len: int = 1) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise StructuralError("a sequence must be one-dimensional")
    if a.shape[0] < min_len:
        raise StructuralError(f"need at least {min_len} terms, got {a.shape[0]}")
    return as_vector(a, a.shape[0])


def second_difference(values) -> np.ndarray:
    """a[n+2] - 2 a[n+1] + a[n] for every window; length drops by two."""
    a = _as_sequence(values, min_len=3)
    return a[2:] - 2.0 * a[1:-1] + a[:-2]


def first_convexity_violation(values, tol: float = 0.0) -> int | None:
    """Index of the first second difference below ``-tol``, or None."""
    d2 = second_difference(values)
    bad = np.flatnonzero(d2 < -tol)
    return int(bad[0]) if bad.size else None


def is_convex(values, tol: float = 0.0) -> bool:
    """True iff every second difference is >= -tol."""
    return first_convexity_violation(values, tol) is None


@dataclass(frozen=True)
class IdentityReport:
    """Partial sums of n * (second difference) against a_1 - limit.

    ``allowance`` is the documented truncation bound N * |a_N - limit|;
    the check passes when residuals trend downward and the final residual
    fits under tol * max(1, |a_1|) plus the allowance.
    """

    partial_sums: np.ndarray
    residuals: np.ndarray
    final_residual: float
    allowance: float
    tolerance_term: float
    residual_decreasing: bool
    passed: bool


def convex_sum_identity(values, limit: float, tol: float = 1e-9) -> IdentityReport:
    """Verify that the n-weighted second differences sum to a_1 - limit.

    ``limit`` must be finite and ``tol`` finite and positive.  The input
    prefix must be convex (within ``CONVEXITY_TOL``); the first
    violating index is named otherwise.  Residuals are measured against
    a_1 - limit for every truncation length, so the report shows whether
    the partial sums are actually closing in on the target.
    """
    a = _as_sequence(values, min_len=3)
    limit = _finite(limit, "limit")
    _tolerance(tol)
    d2 = second_difference(a)
    bad = np.flatnonzero(d2 < -CONVEXITY_TOL)
    if bad.size:
        i = int(bad[0])
        raise StructuralError(f"sequence is not convex: second difference at index {i} "
                              f"is {float(d2[i])!r}")
    weighted = np.arange(1, d2.shape[0] + 1, dtype=float) * d2
    partial = np.cumsum(weighted)
    target = a[0] - limit
    residuals = np.abs(partial - target)
    scale = max(1.0, float(abs(a[0])))
    decreasing = bool(np.all(np.diff(residuals) <= 1e-12 * scale))
    allowance = float(abs(a[-1] - limit)) * a.shape[0]
    tolerance_term = tol * scale
    final = float(residuals[-1])
    return IdentityReport(
        partial_sums=partial,
        residuals=residuals,
        final_residual=final,
        allowance=allowance,
        tolerance_term=tolerance_term,
        residual_decreasing=decreasing,
        passed=decreasing and final <= tolerance_term + allowance,
    )


@dataclass(frozen=True)
class BoundReport:
    """Sup bound of a sequence by three times the sup of its dyadic averages."""

    sup_deviation: float
    averages_sup: float
    bound: float
    slack: float
    averages: np.ndarray
    c: float
    passed: bool


def dyadic_bound_check(values, a0: float, c: float | None = None) -> BoundReport:
    """Check sup |a_n - a0| <= 3 sup |b_m - a0| + |c| on the given prefix.

    ``b_m`` is the average of the first 2^m terms; ``a0`` and ``c`` must be
    finite, and ``c`` must dominate the square root of the weighted
    successive-difference sum over the prefix, checked before anything else.
    ``c`` defaults to that square root, the smallest value the check accepts.
    An average, deviation or bound that overflows is refused: inf checks nothing.
    """
    a = _as_sequence(values, min_len=1)
    a0 = _finite(a0, "a0")
    n = a.shape[0]
    with np.errstate(over="ignore"):    # an overflowed sum is inf, which no c dominates
        diffs = a[:-1] - a[1:]
        weighted_sq = float(np.dot(np.arange(1, n, dtype=float), diffs * diffs))
    c = _finite(math.sqrt(weighted_sq) if c is None else c, "c")
    if not c * c >= weighted_sq - 1e-12 * max(1.0, weighted_sq):
        raise StructuralError(
            f"c^2 = {c * c!r} is below the prefix sum {weighted_sq!r} "
            "of n * (a_n - a_(n+1))^2"
        )
    levels = int(np.floor(np.log2(n)))
    with np.errstate(over="ignore", invalid="ignore"):    # inf or nan, refused below
        # terms scaled by 2^-m: the mean's bits, barring underflow, and no overflowing sum
        averages = np.array([float(np.sum(a[: 2 ** m] * 2.0 ** -m)) for m in range(levels + 1)])
        sup_dev = _finite(float(np.max(np.abs(a - a0))), "sup |a_n - a0|")
        avg_sup = float(np.max(np.abs(averages - a0)))
    bound = _finite(3.0 * avg_sup + abs(c), "the bound 3 sup |b_m - a0| + |c|")
    return BoundReport(
        sup_deviation=sup_dev,
        averages_sup=avg_sup,
        bound=bound,
        slack=bound - sup_dev,
        averages=averages,
        c=c,
        passed=sup_dev <= bound,
    )
