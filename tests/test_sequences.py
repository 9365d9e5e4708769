"""Second differences, convexity, and the two sequence checks."""

import numpy as np
import pytest

from condexp import (
    CondExpOperator,
    StructuralError,
    convex_sum_identity,
    direct_meet_operator,
    dyadic_bound_check,
    first_convexity_violation,
    is_convex,
    sandwich_product,
    second_difference,
)
from condexp.rng import portable_rng
from condexp.space import Partition

from helpers import random_partition, random_positive_measure


def norm_power_sequence(t1, t2, x, n_terms):
    """a_n = squared weighted norm of the n-th sandwich power applied to x."""
    product = sandwich_product(t1, t2)
    out = []
    y = np.asarray(x, dtype=float)
    for _ in range(n_terms):
        y = product.apply(y)
        out.append(product.ip.norm2_sq(y))
    return np.array(out)


# ---------------------------------------------------------------------------
# second differences and convexity

def test_second_difference_affine_is_zero():
    a = np.arange(1.0, 11.0)
    assert np.array_equal(second_difference(a), np.zeros(8))


def test_second_difference_reciprocals():
    got = second_difference([1.0, 1 / 2, 1 / 3, 1 / 4])
    assert np.allclose(got, [1 / 3, 1 / 12], atol=1e-15)


def test_second_difference_squares_constant_two():
    a = np.arange(1.0, 9.0) ** 2
    assert np.allclose(second_difference(a), 2.0, atol=1e-12)


def test_second_difference_needs_three_terms():
    with pytest.raises(StructuralError):
        second_difference([1.0, 2.0])


def test_second_difference_linearity():
    rng = portable_rng(21)
    for _ in range(20):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        alpha, beta = rng.normal(size=2)
        lhs = second_difference(alpha * a + beta * b)
        rhs = alpha * second_difference(a) + beta * second_difference(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_is_convex_examples():
    n = np.arange(1.0, 50.0)
    assert is_convex(1.0 / n)
    assert not is_convex(-(n ** 2))
    assert first_convexity_violation(-(n ** 2)) == 0


def test_operator_norm_sequences_are_convex():
    rng = portable_rng(22)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        a = norm_power_sequence(t1, t2, rng.uniform(-1, 1, n), 40)
        assert is_convex(a, tol=1e-12)


# ---------------------------------------------------------------------------
# convex-sum identity

def test_convex_sum_identity_reciprocals():
    n = np.arange(1.0, 10_001.0)
    report = convex_sum_identity(1.0 / n, limit=0.0, tol=1e-9)
    assert report.final_residual <= 2e-3
    assert report.residual_decreasing
    assert report.passed
    # partial sums close on a_1 - limit = 1 from below
    assert np.all(np.diff(report.partial_sums) >= -1e-15)
    assert report.partial_sums[-1] <= 1.0 + 1e-12


def test_convex_sum_identity_constant_sequence():
    report = convex_sum_identity(np.full(64, 3.5), limit=3.5)
    assert report.final_residual == 0.0
    assert report.passed


def test_convex_sum_identity_rejects_nonconvex():
    with pytest.raises(StructuralError, match="index 0"):
        convex_sum_identity([0.0, 1.0, 0.0], limit=0.0)


def test_nonconvex_message_prints_a_plain_float():
    with pytest.raises(StructuralError) as exc:
        convex_sum_identity([1, 0, 1, 0, 1], 0.0)
    assert str(exc.value) == "sequence is not convex: second difference at index 1 is -2.0"


def test_convex_sum_identity_operator_norm_sequence():
    t1 = CondExpOperator(Partition([[0, 1], [2, 3]]), np.full(4, 0.25))
    t2 = CondExpOperator(Partition([[0, 2], [1, 3]]), np.full(4, 0.25))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    a = norm_power_sequence(t1, t2, x, 60)
    q = direct_meet_operator([t1, t2])
    limit = q.ip.norm2_sq(q.apply(x))
    report = convex_sum_identity(a, limit=limit, tol=1e-9)
    assert report.passed
    assert report.final_residual <= 1e-9

    rng = portable_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        a = norm_power_sequence(t1, t2, x, 3000)
        q = direct_meet_operator([t1, t2])
        limit = q.ip.norm2_sq(q.apply(x))
        report = convex_sum_identity(a, limit=limit, tol=1e-9)
        assert report.final_residual <= 1e-9


# ---------------------------------------------------------------------------
# dyadic-average sup bound

def test_dyadic_bound_constant_sequence():
    report = dyadic_bound_check(np.full(32, 2.0), a0=2.0, c=0.0)
    assert report.sup_deviation == 0.0
    assert report.passed


def test_dyadic_bound_reciprocals():
    n = np.arange(1.0, 1001.0)
    a = 1.0 / n
    diffs = a[:-1] - a[1:]
    c = float(np.sqrt(np.dot(np.arange(1, 1000, dtype=float), diffs ** 2)))
    report = dyadic_bound_check(a, a0=0.0, c=c)
    assert report.passed
    assert report.slack >= 0.0


def test_dyadic_bound_default_c_is_the_smallest_accepted():
    a = 1.0 / np.arange(1.0, 301.0)
    diffs = a[:-1] - a[1:]
    c = float(np.sqrt(np.dot(np.arange(1, 300, dtype=float), diffs * diffs)))
    default, given = dyadic_bound_check(a, a0=0.0), dyadic_bound_check(a, a0=0.0, c=c)
    assert (default.c, default.slack, default.passed) == (given.c, given.slack, given.passed)
    # a prefix whose weighted sum overflows has no finite c, and says so without warnings
    huge = np.array([1e200, -1e200, 1e200])
    with pytest.raises(StructuralError, match="c must be a finite real, got inf"):
        dyadic_bound_check(huge, a0=0.0)
    with pytest.raises(StructuralError, match="below the prefix sum inf"):
        dyadic_bound_check(huge, a0=0.0, c=1e100)


def test_dyadic_bound_refuses_an_overflowing_average_deviation_or_bound():
    # c = 0 is finite here, but the average, the deviation or 3 * sup would be
    # inf, and a bound of inf checks nothing
    cases = [([1.5e308, 1.5e308], 0.0, "the bound"),
             ([1e308, 1e308], -1e308, r"sup \|a_n - a0\|"),
             ([7e307] * 4, 0.0, "the bound")]
    for values, a0, name in cases:
        with pytest.raises(StructuralError, match=f"{name}.* must be a finite real, got inf"):
            dyadic_bound_check(values, a0=a0)
    assert dyadic_bound_check([4e307] * 4, a0=0.0).passed


def test_dyadic_averages_of_huge_terms_do_not_overflow():
    # the running sum of [5e307] * 4 overflows, but every average is 5e307
    report = dyadic_bound_check([5e307] * 4, a0=0.0)
    assert report.passed and report.bound == 1.5e308
    assert report.averages.tolist() == [5e307] * 3
    # on ordinary terms the scaled sums are the means, bit for bit
    a = portable_rng(33).uniform(-1.0, 1.0, 1000)
    averages = dyadic_bound_check(a, a0=0.0).averages
    assert averages.tolist() == [float(np.mean(a[: 2 ** m])) for m in range(10)]


def test_dyadic_bound_rejects_small_c():
    n = np.arange(1.0, 101.0)
    with pytest.raises(StructuralError, match="below the prefix sum"):
        dyadic_bound_check(1.0 / n, a0=0.0, c=0.0)


def test_dyadic_bound_operator_trajectory():
    rng = portable_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        a = norm_power_sequence(t1, t2, x, 500)
        q = direct_meet_operator([t1, t2])
        limit = q.ip.norm2_sq(q.apply(x))
        diffs = a[:-1] - a[1:]
        c = float(np.sqrt(np.dot(np.arange(1, a.shape[0], dtype=float), diffs ** 2)))
        report = dyadic_bound_check(a, a0=limit, c=c)
        assert report.passed


def test_scalar_arguments_must_be_finite_and_tolerances_positive():
    a = 1.0 / np.arange(1, 33)
    for bad in (np.nan, np.inf, -np.inf, True, "0", None):
        with pytest.raises(StructuralError, match="limit must be a finite real"):
            convex_sum_identity(a, limit=bad)
        with pytest.raises(StructuralError, match="a0 must be a finite real"):
            dyadic_bound_check(a, a0=bad, c=10.0)
        if bad is not None:     # c=None asks for the default c
            with pytest.raises(StructuralError, match="c must be a finite real"):
                dyadic_bound_check(a, a0=0.0, c=bad)
    for bad in (0.0, -1e-9, np.nan, np.inf, True, "1e-9", None):
        with pytest.raises(StructuralError, match="tol must be finite and positive"):
            convex_sum_identity(a, limit=0.0, tol=bad)
    assert convex_sum_identity(a, limit=np.float32(0), tol=np.float64(1e-9)).final_residual \
        == convex_sum_identity(a, limit=0, tol=1e-9).final_residual
