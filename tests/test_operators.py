"""Projection operators, alternating iterates, and their certifications."""

import tracemalloc

import numpy as np
import pytest

from condexp import (
    CondExpOperator,
    MeasureFamily,
    OperatorProduct,
    Partition,
    StructuralError,
    WeightedInnerProduct,
    completion,
    countable_intersection_suite,
    direct_meet_operator,
    dyadic_average_trajectory,
    is_measurable,
    iterate,
    intersection_sufficiency_suite,
    join,
    meet,
    power_difference_ledger,
    sandwich_product,
    verify_projection_properties,
)
from condexp import operators
from condexp.rng import portable_rng
from condexp.sufficiency import _BlockTable

from helpers import (
    block_average_by_row,
    block_averages_stacked,
    iterate_keeping_trajectory,
    ledger_keeping_powers,
    matrix_power_limit,
    norminf_by_gather,
    operator_matrix,
    partition_of_labels,
    random_measure_with_nulls,
    random_partition,
    random_positive_measure,
    random_refinement,
    shared_family_with_gaps,
)

UNIFORM4 = np.full(4, 0.25)
P_ROWS = Partition([[0, 1], [2, 3]])
P_COLS = Partition([[0, 2], [1, 3]])


def random_operator(rng, n: int) -> CondExpOperator:
    return CondExpOperator(random_partition(rng, n), random_positive_measure(rng, n))


# ---------------------------------------------------------------------------
# application

def test_apply_uniform_block_average():
    T = CondExpOperator(P_ROWS, UNIFORM4)
    assert np.array_equal(T.apply([1, 2, 3, 4]), [1.5, 1.5, 3.5, 3.5])


def test_apply_null_block_convention():
    T = CondExpOperator(P_ROWS, [0.5, 0.5, 0.0, 0.0])
    got = T.apply([1, 2, 3, 4])
    # independent recomputation with the zero rule
    expected = np.zeros(4)
    for block in P_ROWS.blocks:
        idx = list(block)
        mass = sum([0.5, 0.5, 0.0, 0.0][i] for i in idx)
        if mass > 0:
            avg = sum([0.5, 0.5, 0.0, 0.0][i] * [1, 2, 3, 4][i] for i in idx) / mass
            expected[idx] = avg
    assert np.array_equal(got, expected)
    assert np.array_equal(got, [1.5, 1.5, 0.0, 0.0])


def test_apply_singletons_is_exact_identity():
    rng = portable_rng(3)
    for n in (1, 2, 7):
        T = CondExpOperator(Partition.singletons(n), random_positive_measure(rng, n))
        x = rng.normal(size=n)
        assert np.array_equal(T.apply(x), x)


@pytest.mark.parametrize("measure", [
    [1, 1, 1, 1],                          # sums to 4
    [0, 0, 0, 0],                          # sums to 0
    [0.25, 0.25, 0.25, 0.25 + 3e-12],      # off by more than ROW_SUM_TOL
    [0.5, 0.5, -0.25, 0.25],               # negative weight
    [0.25, 0.25, 0.25, np.nan],
])
def test_measure_that_is_not_a_probability_is_rejected_on_entry(measure):
    # the MeasureFamily row rule, applied where the operator is built
    # rather than by iterate or the ledger later on
    with pytest.raises(StructuralError):
        CondExpOperator(P_ROWS, measure)
    with pytest.raises(StructuralError):
        WeightedInnerProduct(measure)


def test_measure_rejections_name_the_row_rule():
    with pytest.raises(StructuralError, match="sums to"):
        CondExpOperator(P_ROWS, [1, 1, 1, 1])
    with pytest.raises(StructuralError, match="negative"):
        WeightedInnerProduct([-1, 2])
    with pytest.raises(StructuralError, match="does not match partition size"):
        CondExpOperator(P_ROWS, [0.5, 0.5])
    with pytest.raises(StructuralError, match="single weight row"):
        WeightedInnerProduct([[0.5, 0.5]])
    # within ROW_SUM_TOL is accepted, as MeasureFamily accepts it
    w = [0.25, 0.25, 0.25, 0.25 + 5e-13]
    MeasureFamily.single(w)
    T = CondExpOperator(P_ROWS, w)
    assert np.allclose(T.apply([1, 2, 3, 4]), [1.5, 1.5, 3.5, 3.5], rtol=0, atol=1e-12)


def test_operators_sharing_a_measure_is_checked_by_every_consumer():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, [0.4, 0.1, 0.1, 0.4])
    for build in (OperatorProduct, direct_meet_operator,
                  lambda ops: iterate(ops, [1, 2, 3, 4])):
        with pytest.raises(StructuralError, match="share one weighting measure"):
            build([t1, t2])
        with pytest.raises(StructuralError, match="at least one operator"):
            build([])


def test_apply_size_mismatch():
    T = CondExpOperator(P_ROWS, UNIFORM4)
    with pytest.raises(StructuralError):
        T.apply([1, 2, 3])


def test_output_is_partition_measurable():
    rng = portable_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        T = random_operator(rng, n)
        assert is_measurable(T.apply(rng.normal(size=n)), T.partition)


def test_defining_averaging_property_per_block():
    # weighted partial sums of Tx and x agree on every block
    rng = portable_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 24))
        w = random_positive_measure(rng, n)
        T = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        tx = T.apply(x)
        for block in T.partition.blocks:
            idx = list(block)
            assert abs(np.dot(w[idx], tx[idx]) - np.dot(w[idx], x[idx])) <= 1e-12


def test_tower_property():
    rng = portable_rng(6)
    for nulls in (False, True):
        for _ in range(25):
            n = int(rng.integers(3, 24))
            w = random_positive_measure(rng, n)
            if nulls:
                w[rng.integers(0, n)] = 0.0
                w = w / w.sum()
            fine = random_partition(rng, n)
            coarse = meet(fine, random_partition(rng, n))
            x = rng.uniform(-1, 1, n)
            t_fine = CondExpOperator(fine, w)
            t_coarse = CondExpOperator(coarse, w)
            lhs = t_coarse.apply(t_fine.apply(x))
            rhs = t_coarse.apply(x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# projection axioms

def test_projection_properties_random_operators():
    rng = portable_rng(10)
    for seed in range(25):
        n = int(rng.integers(2, 33))
        T = random_operator(rng, n)
        report = verify_projection_properties(T, trials=20, seed=seed)
        assert report.max_violation() <= 1e-12


def test_projection_properties_identity_exact():
    T = CondExpOperator(Partition.singletons(5), [0.1, 0.2, 0.3, 0.15, 0.25])
    report = verify_projection_properties(T, trials=50, seed=1)
    assert report.max_violation() == 0.0


def test_orthogonality_direct():
    rng = portable_rng(11)
    T = CondExpOperator(P_ROWS, UNIFORM4)
    ip = WeightedInnerProduct(UNIFORM4)
    for _ in range(50):
        x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        assert abs(ip.inner(x - T.apply(x), T.apply(y))) <= 1e-12


def test_trials_must_be_positive():
    T = CondExpOperator(P_ROWS, UNIFORM4)
    with pytest.raises(StructuralError):
        verify_projection_properties(T, trials=0)


def test_weighted_norms_ignore_null_coordinates():
    ip = WeightedInnerProduct([0.5, 0.5, 0.0])
    assert ip.norminf([1.0, -2.0, 99.0]) == 2.0
    assert ip.norm1([1.0, -2.0, 99.0]) == 1.5
    # Cauchy-Schwarz on random pairs
    rng = portable_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        ip = WeightedInnerProduct(random_positive_measure(rng, n))
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert abs(ip.inner(x, y)) <= ip.norm2(x) * ip.norm2(y) + 1e-12


# ---------------------------------------------------------------------------
# iterate and its certification

def test_iterate_crossing_pair_reaches_global_mean():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    report = iterate([t1, t2], [1, 2, 3, 4])
    assert report.converged and report.stop_reason == "tolerance met"
    assert np.allclose(report.limit, 2.5, atol=1e-12)
    assert report.residual <= 1e-10


def test_iterate_repeated_operator_stops_fast():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    report = iterate([t1, t1], [1, 2, 3, 4])
    assert report.converged
    assert report.iterations_used == 2
    assert np.array_equal(report.final, t1.apply([1, 2, 3, 4]))


def test_iterate_detects_fixed_point_in_one_application():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    x = np.full(4, 3.25)  # measurable for the meet, hence for both
    report = iterate([t1, t2], x)
    assert report.converged
    assert report.iterations_used == 1
    assert np.array_equal(report.final, x)


def test_iterate_rejects_mismatched_measures():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, [0.4, 0.1, 0.1, 0.4])
    with pytest.raises(StructuralError):
        iterate([t1, t2], [1, 2, 3, 4])


def test_iterate_custom_schedule_and_non_convergence_report():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    report = iterate([t1, t2], [1, 2, 3, 4], schedule=[0])
    assert not report.converged          # schedule exhausted before the meet
    assert report.iterations_used == 1 and report.stop_reason == "schedule exhausted"
    report = iterate([t1, t2], [1, 2, 3, 4], schedule=[0, 1, 0, 1])
    assert report.converged


def test_iterate_does_not_stall_when_first_operator_is_identity():
    # the identity fixes anything, so a one-step plateau must not end the
    # run before the other operator has moved the iterate
    w = np.array([0.36, 0.64])
    t1 = CondExpOperator(Partition.singletons(2), w)
    t2 = CondExpOperator(Partition.trivial(2), w)
    x = np.array([1.0, -1.0])
    report = iterate([t1, t2], x)
    assert report.converged
    assert np.allclose(report.final, float(np.dot(w, x)), atol=1e-12)


def test_iterate_does_not_stop_while_an_operator_still_moves_the_iterate():
    # after the identity the step is 0 and the iterate is 0.9 tol from the
    # limit (the mean, 0), yet averaging {0, 1} moves outcome 0 by 1.47 tol
    tol = 1e-3
    w = np.array([0.1, 0.45, 0.45])
    x = np.array([0.9, -0.9, 0.7]) * tol
    ops = [CondExpOperator(p, w) for p in (Partition.singletons(3),
                                          Partition([[0, 1], [2]]), Partition([[0], [1, 2]]))]
    report = iterate(ops, x, tol=tol)
    assert report.converged and report.iterations_used > 1
    assert all(op.ip.distinf(op.apply(report.final), report.final) <= tol for op in ops)
    assert_matches_the_kept_trajectory(report, ops, x)


def test_iterate_validates_tol_and_max_iter():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    # tol = inf would certify any iterate, tol = nan none; a cap of 2.5 ran 3
    for tol in (0.0, -1e-3, np.inf, np.nan, True, "1e-3", None):
        with pytest.raises(StructuralError, match="tol must be finite and positive"):
            iterate([t1, t2], [1, 2, 3, 4], tol=tol)
    for max_iter in (0, -1, 2.5, 3.0, True, np.inf, "3", None):
        with pytest.raises(StructuralError, match="max_iter must be an integer >= 1"):
            iterate([t1, t2], [1, 2, 3, 4], max_iter=max_iter)
    with pytest.raises(StructuralError):
        iterate([], [1, 2, 3, 4])
    assert iterate([t1, t2], [1, 2, 3, 4], tol=np.float64(1e-3), max_iter=np.int64(2)) == \
        iterate([t1, t2], [1, 2, 3, 4], tol=1e-3, max_iter=2)


def test_ledger_requires_at_least_one_term():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    with pytest.raises(StructuralError):
        power_difference_ledger(t1, t2, [1, 2, 3, 4], n_terms=0)


def test_every_count_refuses_what_is_not_a_count():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    fam, x = MeasureFamily.single(UNIFORM4), [1, 2, 3, 4]
    counts = [  # (name, call taking the count, the largest refused integer)
        ("max_iter", lambda c: iterate([t1, t2], x, max_iter=c), 0),
        ("max_rounds", lambda c: intersection_sufficiency_suite(
            fam, P_ROWS, P_COLS, max_rounds=c), 0),
        ("max_rounds", lambda c: countable_intersection_suite(
            fam, [P_ROWS, P_COLS], max_rounds=c), 0),
        ("n_terms", lambda c: power_difference_ledger(t1, t2, x, c), 0),
        ("trials", lambda c: verify_projection_properties(t1, c), 0),
        ("n_max", lambda c: dyadic_average_trajectory(t1, x, c), -1),
    ]
    for name, call, below in counts:
        for bad in (below, True, 2.5, "3", None):
            with pytest.raises(StructuralError, match=f"{name} must be an integer >= {below + 1}"):
                call(bad)
        call(below + 1)
        call(np.int64(below + 1))
    assert verify_projection_properties(t1, np.int8(2)).trials == 2


def test_iterate_max_iter_reports_not_converged():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    report = iterate([t1, t2], [1, 2, 3, 4], max_iter=1)
    assert not report.converged
    assert report.iterations_used == 1 and report.stop_reason == "iteration cap"


def test_iterate_telescoping_identity_and_monotone_norms():
    rng = portable_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 33))
        w = random_positive_measure(rng, n)
        ops = [CondExpOperator(random_partition(rng, n), w) for _ in range(2)]
        x = rng.uniform(-1, 1, n)
        report = iterate(ops, x)
        scale = 5e-12 * max(1.0, report.norms2[0])
        for k in range(len(report.diffs2)):
            assert abs(report.diffs2[k]
                       - (report.norms2[k] - report.norms2[k + 1])) <= scale
        assert np.all(np.diff(report.norms2) <= 1e-14)


def test_iterate_limit_matches_meet_operator_randomly():
    rng = portable_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 65))
        w = random_positive_measure(rng, n)
        ops = [CondExpOperator(random_partition(rng, n), w) for _ in range(2)]
        x = rng.uniform(-1, 1, n)
        report = iterate(ops, x, tol=1e-12, max_iter=50_000)
        assert report.residual <= 1e-9


def test_iterate_limit_matches_matrix_power_oracle():
    rng = portable_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        oracle = matrix_power_limit(t1, t2) @ x
        report = iterate([t1, t2], x, tol=1e-12, max_iter=50_000)
        assert np.max(np.abs(oracle - report.limit)) <= 1e-9
        assert np.max(np.abs(oracle - report.final)) <= 1e-9


# ---------------------------------------------------------------------------
# the direct meet operator

def test_direct_meet_operator_examples():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    q = direct_meet_operator([t1, t2])
    assert q.partition == Partition.trivial(4)
    assert direct_meet_operator([t1, t1]).partition == P_ROWS


def test_direct_meet_with_singletons_gives_completion():
    w = np.array([0.5, 0.5, 0.0, 0.0])
    t1 = CondExpOperator(P_ROWS, w)
    fine = CondExpOperator(Partition.singletons(4), w)
    q = direct_meet_operator([t1, fine])
    assert q.partition == completion(P_ROWS, {2, 3})


def test_direct_meet_certifies_against_raw_meet_gap():
    # completion matters: a null outcome can glue blocks together in the raw
    # meet that the limit of the iteration never mixes
    w = np.array([0.5, 0.0, 0.5])
    t1 = CondExpOperator(Partition([[0, 1], [2]]), w)
    t2 = CondExpOperator(Partition([[0], [1, 2]]), w)
    x = np.array([1.0, 5.0, 3.0])
    report = iterate([t1, t2], x)
    assert report.converged
    # raw meet is trivial, its projection is the global mean: not the limit
    raw = CondExpOperator(meet(t1.partition, t2.partition), w)
    assert np.max(np.abs(report.limit[[0, 2]] - x[[0, 2]])) == 0.0
    assert abs(raw.apply(x)[0] - 2.0) <= 1e-15


# ---------------------------------------------------------------------------
# power-difference ledger

def test_ledger_partial_sum_bounded():
    rng = portable_rng(16)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        report = power_difference_ledger(t1, t2, x, n_terms=60)
        assert report.partial_sum <= report.bound + 1e-10
        assert np.all(report.terms >= -1e-15)


def test_ledger_fixed_subspace_gives_zero_terms():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    x = np.full(4, 1.5)
    report = power_difference_ledger(t1, t2, x, n_terms=10)
    assert np.all(report.terms == 0.0)


def test_ledger_weighted_sum_telescopes_to_target():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    report = power_difference_ledger(t1, t2, [1, 2, 3, 4], n_terms=50)
    assert report.weighted_residual <= 1e-9
    rng = portable_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        report = power_difference_ledger(t1, t2, x, n_terms=3000)
        assert report.weighted_residual <= 1e-9


# ---------------------------------------------------------------------------
# dyadic averages of even powers

def test_dyadic_averages_fixed_vector():
    T = CondExpOperator(P_ROWS, UNIFORM4)
    x = np.array([2.0, 2.0, -1.0, -1.0])
    for b in dyadic_average_trajectory(T, x, 4):
        assert np.array_equal(b, x)


def test_dyadic_averages_match_iterate_limit():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    product = sandwich_product(t1, t2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    averages = dyadic_average_trajectory(product, x, 6)
    assert np.max(np.abs(averages[-1] - 2.5)) <= 1e-12


def test_dyadic_averages_approach_even_power_limit_monotonically():
    # eigendecomposition oracle on small spaces: both the averages and the
    # even powers converge to the same projection, and their gap shrinks
    rng = portable_rng(18)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        product = sandwich_product(t1, t2)
        x = rng.uniform(-1, 1, n)

        m = operator_matrix(product)
        root = np.sqrt(w)
        sym = root[:, None] * m / root[None, :]
        eigvals = np.linalg.eigvalsh((sym + sym.T) / 2)
        assert np.all(eigvals >= -1e-12) and np.all(eigvals <= 1 + 1e-12)

        n_max = 7
        averages = dyadic_average_trajectory(product, x, n_max)
        even = x.copy()
        gaps = []
        for level in range(n_max + 1):
            while len(gaps) < level + 1:
                target = np.linalg.matrix_power(m, 2 * 2 ** level) @ x
                gaps.append(np.max(np.abs(averages[level] - target)))
        tail = gaps[2:]
        assert all(tail[i + 1] <= tail[i] + 1e-12 for i in range(len(tail) - 1))
        assert tail[-1] <= 1e-6 or tail[-1] <= tail[0]


def test_dyadic_averages_validate_once_and_match_the_checked_loop(monkeypatch):
    rng = portable_rng(21)
    n = 9
    w = random_measure_with_nulls(rng, n, 2)
    t1 = CondExpOperator(random_partition(rng, n), w)
    t2 = CondExpOperator(random_partition(rng, n), w)
    x = rng.uniform(-1, 1, n)
    for op in (t1, sandwich_product(t1, t2)):
        # the same running sum through the validating public apply
        expected, running, total = [], x, np.zeros(n)
        for count in range(1, 2 ** 5 + 1):
            running = op.apply(op.apply(running))
            total = total + running
            if count & (count - 1) == 0:
                expected.append(total / count)
        calls = []
        real = operators.as_vector
        monkeypatch.setattr(operators, "as_vector", lambda *a: calls.append(1) or real(*a))
        averages = dyadic_average_trajectory(op, x, 5)
        monkeypatch.setattr(operators, "as_vector", real)
        assert len(calls) == 1
        assert len(averages) == len(expected) == 6
        assert all(np.array_equal(a, b) for a, b in zip(averages, expected))


def test_dyadic_level_cap():
    T = CondExpOperator(P_ROWS, UNIFORM4)
    with pytest.raises(StructuralError):
        dyadic_average_trajectory(T, [1, 2, 3, 4], 21)


def test_product_requires_shared_measure():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, [0.4, 0.1, 0.1, 0.4])
    with pytest.raises(StructuralError):
        sandwich_product(t1, t2)


# ---------------------------------------------------------------------------
# streaming iterate: the kept scalars against the loop that kept every iterate

def finest_join_pair(rng, n: int) -> list[Partition]:
    """A random partition and one that numbers the outcomes within each of its
    blocks: no two outcomes share both labels, so their join is the finest."""
    p = random_partition(rng, n)
    rank = np.empty(n, dtype=np.intp)
    for block in p.blocks:
        rank[list(block)] = rng.permutation(len(block))
    return [p, partition_of_labels(rank)]


def assert_matches_the_kept_trajectory(report, ops, x, schedule="alternating",
                                       exact=False):
    """``report`` against the loop that keeps every iterate, run for the
    report's own number of applications: bit for bit when ``exact``, else
    norms and steps within 1e-12 x norms2[0] and residuals and ``final``
    within 1e-12 x max|x|."""
    x = np.asarray(x, dtype=float)
    trajectory, norms2, diffs2, residuals, limit = iterate_keeping_trajectory(
        ops, x, report.iterations_used, None if schedule == "alternating" else schedule)
    assert len(trajectory) == report.iterations_used
    assert type(report.residual) is float
    for got in (report.norms2, report.diffs2, report.residuals, report.final):
        assert got.dtype == np.float64
    assert np.array_equal(report.limit, limit)
    final = trajectory[-1] if trajectory else x
    if exact:
        assert np.array_equal(report.norms2, norms2)
        assert np.array_equal(report.diffs2, diffs2)
        assert np.array_equal(report.residuals, residuals)
        assert np.array_equal(report.final, final)
    else:
        scale2 = 1e-12 * (norms2[0] if trajectory else 0.0)
        scale = 1e-12 * float(np.max(np.abs(x)))
        assert (report.norms2.shape, report.diffs2.shape, report.residuals.shape) == \
            (norms2.shape, diffs2.shape, residuals.shape)
        assert np.all(np.abs(report.norms2 - norms2) <= scale2)
        assert np.all(np.abs(report.diffs2 - diffs2) <= scale2)
        assert np.all(np.abs(report.residuals - residuals) <= scale)
        assert np.all(np.abs(report.final - final) <= scale)
    assert report.residual == (report.residuals[-1] if trajectory else
                               ops[0].ip.distinf(x, limit))


def test_iterate_matches_the_kept_trajectory_bit_for_bit_when_the_join_is_finest():
    # the cells are then the outcomes in their own order, so every cell
    # table is the operator's own table and the run is the n-space run
    rng = portable_rng(18)
    for trial in range(40):
        n = int(rng.integers(2, 65))
        w = random_measure_with_nulls(rng, n, int(rng.integers(0, n // 2 + 1)))
        parts = finest_join_pair(rng, n) + [random_partition(rng, n)
                                           for _ in range(int(rng.integers(0, 2)))]
        assert join(parts[0], parts[1]) == Partition.singletons(n)
        ops = [CondExpOperator(p, w) for p in parts]
        x = rng.uniform(-1, 1, n)
        schedule = ("alternating" if trial % 3 else
                    rng.integers(0, len(ops), int(rng.integers(0, 40))).tolist())
        report = iterate(ops, x, schedule=schedule, tol=float(10.0 ** -rng.integers(4, 13)),
                         max_iter=int(rng.integers(1, 400)))
        assert_matches_the_kept_trajectory(report, ops, x, schedule, exact=True)


def test_iterate_scalars_match_the_kept_trajectory_within_rounding():
    rng = portable_rng(19)
    for trial in range(60):
        n = int(rng.integers(2, 65))
        w = random_measure_with_nulls(rng, n, int(rng.integers(0, n // 2 + 1)))
        ops = [CondExpOperator(random_partition(rng, n), w)
               for _ in range(int(rng.integers(1, 4)))]
        x = rng.uniform(-1, 1, n)
        schedule = ("alternating" if trial % 3 else
                    rng.integers(0, len(ops), int(rng.integers(0, 40))).tolist())
        report = iterate(ops, x, schedule=schedule, tol=float(10.0 ** -rng.integers(4, 13)),
                         max_iter=int(rng.integers(1, 400)))
        assert_matches_the_kept_trajectory(report, ops, x, schedule)


def iterate_edge_cases():
    """(name, ops, x, schedule) for the shapes a cell table must get right."""
    rng = portable_rng(23)
    n = 12
    w = random_positive_measure(rng, n)
    x = rng.uniform(-1, 1, n) * 10.0
    p, q, r = (random_partition(rng, n, max_blocks=4) for _ in range(3))
    # outcomes 0..3 are null and form cell {0, 1, 2, 3} of the join of p4, q4
    w_nulls = w.copy()
    w_nulls[:4] = 0.0
    w_nulls /= w_nulls.sum()
    p4 = partition_of_labels(np.r_[0, 0, 0, 0, np.arange(n - 4) // 3 + 1])
    q4 = partition_of_labels(np.r_[0, 0, 0, 0, (np.arange(n - 4) + 1) // 3 + 1])
    ops = lambda parts, weights=w: [CondExpOperator(s, weights) for s in parts]
    return [
        ("single operator", ops([p]), x, "alternating"),
        ("trivial and singletons", ops([Partition.trivial(n), Partition.singletons(n)]),
         x, "alternating"),
        ("trivial against a partition", ops([p, Partition.trivial(n)]), x, "alternating"),
        ("singletons against a partition", ops([Partition.singletons(n), p]), x,
         "alternating"),
        ("a cell of null outcomes", ops([p4, q4], w_nulls), x, "alternating"),
        ("three operators", ops([p, q, r]), x, "alternating"),
        ("schedule with repeats", ops([p, q, r]), x, [0, 0, 1, 1, 1, 2, 0, 2, 2, 1]),
        ("schedule of one operator", ops([p, q]), x, [1, 1, 1]),
        ("repeated operator", ops([p, p, q]), x, [0, 1, 2, 1, 0, 2]),
    ]


@pytest.mark.parametrize("name, ops, x, schedule", iterate_edge_cases(),
                         ids=[case[0] for case in iterate_edge_cases()])
def test_iterate_edge_cases_match_the_kept_trajectory(name, ops, x, schedule):
    for tol, max_iter in ((1e-10, 10_000), (1e-4, 3), (1e-12, 1)):
        report = iterate(ops, x, schedule=schedule, tol=tol, max_iter=max_iter)
        assert_matches_the_kept_trajectory(report, ops, x, schedule)
        if report.converged:
            assert report.residual <= tol


def test_iterate_applies_operators_on_the_outcomes_at_most_twice(monkeypatch):
    # the limit and the first application; every later one runs on cells
    n = 400
    w = np.full(n, 1.0 / n)
    ops = [CondExpOperator(partition_of_labels(np.arange(n) // 2 // 5), w),
           CondExpOperator(partition_of_labels((np.arange(n) + 1) // 2 // 5), w)]
    calls = []
    original = CondExpOperator._apply
    monkeypatch.setattr(CondExpOperator, "_apply",
                        lambda self, y: calls.append(1) or original(self, y))
    report = iterate(ops, np.linspace(-1.0, 1.0, n), max_iter=500)
    assert report.iterations_used > 100
    assert len(calls) <= 2


def test_iterate_memory_does_not_grow_with_applications():
    # a chain of 2-blocks against the shifted chain: the meet is trivial but
    # mixing takes ~n^2 applications, so the run hits the cap
    n = 50_000
    w = np.full(n, 1.0 / n)
    ops = [CondExpOperator(partition_of_labels(np.arange(n) // 2), w),
           CondExpOperator(partition_of_labels((np.arange(n) + 1) // 2), w)]
    x = np.linspace(-1.0, 1.0, n)
    tracemalloc.start()
    try:
        report = iterate(ops, x, max_iter=320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations_used >= 300 and report.stop_reason == "iteration cap"
    assert peak < 32 * n * 8      # keeping every iterate would take >= 300 * n * 8


def test_iterate_stops_only_once_certified():
    # a slowly contracting pair: here a step <= tol still leaves the
    # iterate more than ten times tol from the limit
    n = 40
    w = np.full(n, 1.0 / n)
    ops = [CondExpOperator(partition_of_labels(np.arange(n) // 2), w),
           CondExpOperator(partition_of_labels((np.arange(n) + 1) // 2), w)]
    x = np.linspace(-1.0, 1.0, n)
    report = iterate(ops, x, tol=1e-10, max_iter=200_000)
    assert report.converged and report.stop_reason == "tolerance met"
    assert report.residual <= 1e-10 and report.residuals[-1] == report.residual
    steps = np.sqrt(report.diffs2)
    assert steps[-1] <= 1e-10


def test_iterate_empty_schedule_reports_the_start_vector():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    x = [1, 2, 3, 4]
    report = iterate([t1, t2], x, schedule=[])
    assert report.stop_reason == "schedule exhausted" and report.iterations_used == 0
    assert np.array_equal(report.final, x) and report.residual == 1.5
    assert report.norms2.size == report.diffs2.size == report.residuals.size == 0


def test_iterate_rejects_bad_schedules():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    for schedule in ([0, 2], [-1], [0.0], [True], "cyclic"):
        with pytest.raises(StructuralError):
            iterate([t1, t2], [1, 2, 3, 4], schedule=schedule)
    assert iterate([t1, t2], [1, 2, 3, 4], schedule=np.array([0, 1, 0])).iterations_used == 3


def test_iteration_reports_compare_by_value():
    t1 = CondExpOperator(P_ROWS, UNIFORM4)
    t2 = CondExpOperator(P_COLS, UNIFORM4)
    a = iterate([t1, t2], [1, 2, 3, 4])
    assert a == iterate([t1, t2], [1, 2, 3, 4])
    assert a != iterate([t1, t2], [1, 2, 3, 5])
    assert a != iterate([t1, t2], [1, 2, 3, 4], max_iter=1)


def test_ledger_matches_the_kept_powers_bit_for_bit():
    rng = portable_rng(20)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        w = random_measure_with_nulls(rng, n, int(rng.integers(0, n // 2 + 1)))
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        n_terms = int(rng.integers(1, 80))
        report = power_difference_ledger(t1, t2, x, n_terms)
        terms, partial, weighted, bound, target = ledger_keeping_powers(t1, t2, x, n_terms)
        assert np.array_equal(report.terms, terms)
        assert (report.partial_sum, report.weighted_sum, report.bound,
                report.weighted_target) == (partial, weighted, bound, target)


# ---------------------------------------------------------------------------
# one block-average table for one measure and for m: an independent judge

def test_block_average_table_equals_the_separate_kernels_bit_for_bit():
    rng = portable_rng(45)
    seen = set()
    for case in range(160):
        n, m = int(rng.integers(1, 17)), 1 + case % 4
        fam, base = shared_family_with_gaps(rng, n, m, k=max(1, n // 3))
        p = (Partition.singletons(n) if case % 5 == 0 else
             Partition.trivial(n) if case % 5 == 1 else
             random_partition(rng, n) if case % 5 == 2 else random_refinement(rng, base))
        X = rng.uniform(-1, 1, (m, n)) * 10.0 ** rng.uniform(-3, 6)
        y = rng.uniform(-1, 1, n)
        table = _BlockTable(fam, p)
        stacked = table._apply(X)
        assert np.array_equal(stacked, block_averages_stacked(p, fam.weights, X))
        assert np.array_equal(table.distinf_each(X, y),
                              [norminf_by_gather(w, x - y) for w, x in zip(fam.weights, X)])
        assert np.array_equal(table.distinf_each(X[0], y),
                              [norminf_by_gather(w, X[0] - y) for w in fam.weights])
        for gamma, (w, x) in enumerate(zip(fam.weights, X)):
            op = CondExpOperator(p, w)
            applied = op.apply(x)
            assert np.array_equal(applied, block_average_by_row(p, w, x))
            assert np.array_equal(applied, stacked[gamma])
            assert op.ip._norminf(x) == op.ip.norminf(x) == norminf_by_gather(w, x)
        zero_pair = bool(np.any((table.mass == 0) & table.charged.any(axis=0)))
        shape = "singletons" if p.k == n else "trivial" if p.k == 1 else "other"
        seen.add((m, shape, bool(np.any(~fam.weights.any(axis=0))), zero_pair))
    assert {m for m, *_ in seen} == {1, 2, 3, 4}
    assert {shape for _, shape, *_ in seen} == {"singletons", "trivial", "other"}
    assert any(nulls for _, _, nulls, _ in seen)
    assert any(zero_pair for *_, zero_pair in seen)
