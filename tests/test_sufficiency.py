"""Sufficiency certificates, witnesses, and the intersection suites."""

import tracemalloc

import numpy as np
import pytest

from condexp import (
    CondExpOperator,
    MeasureFamily,
    Partition,
    StructuralError,
    check_sufficient,
    check_sufficient_for_f,
    completion,
    contains_null_field,
    countable_intersection_suite,
    decreasing_chain_suite,
    intersection_sufficiency_suite,
    meet,
    null_set,
    sufficiency,
)
from condexp.rng import portable_rng
from condexp.sufficiency import AGREEMENT_ATOL

from helpers import (
    check_sufficient_by_blocks,
    check_sufficient_for_f_by_blocks,
    coarsen_within,
    countable_suite_rebuilding_operators,
    dyadic_measure_rows,
    intersection_suite_rebuilding_operators,
    partition_of_labels,
    random_partition,
    random_refinement,
    shared_conditional_family,
    shared_family_with_gaps,
    sufficient_bruteforce,
)


def bernoulli_pair():
    """Two product-coin measures over outcomes 00, 01, 10, 11."""
    rows = []
    for theta in (1 / 3, 2 / 3):
        rows.append([(1 - theta) ** 2, theta * (1 - theta),
                     theta * (1 - theta), theta ** 2])
    return MeasureFamily(rows)


SUM_PARTITION = Partition([[0], [1, 2], [3]])
FIRST_COORD = Partition([[0, 1], [2, 3]])


# ---------------------------------------------------------------------------
# the distributional criterion

def test_coin_sum_statistic_is_sufficient():
    cert = check_sufficient(bernoulli_pair(), SUM_PARTITION)
    assert cert.sufficient
    # within the mixed block both measures split the mass evenly
    middle = cert.block_conditionals[1]
    assert np.allclose(middle, [0.5, 0.5], atol=1e-15)


def test_coin_first_coordinate_is_not_sufficient():
    cert = check_sufficient(bernoulli_pair(), FIRST_COORD)
    assert not cert.sufficient
    w = cert.witness
    assert w.block_index == 0
    # conditional weight of outcome 00 given the block is 1-theta
    assert abs(w.violation - abs(2 / 3 - 1 / 3)) <= 1e-12


def test_single_measure_everything_sufficient():
    rng = portable_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        w = rng.uniform(0, 1, n)
        fam = MeasureFamily.single(w / w.sum())
        assert check_sufficient(fam, random_partition(rng, n)).sufficient


def test_singletons_always_sufficient():
    rng = portable_rng(32)
    for _ in range(20):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 10))
        fam = MeasureFamily(dyadic_measure_rows(rng, m, n))
        assert check_sufficient(fam, Partition.singletons(n)).sufficient


def test_size_mismatch_rejected():
    with pytest.raises(StructuralError):
        check_sufficient(bernoulli_pair(), Partition.trivial(3))


# ---------------------------------------------------------------------------
# per-function checks

def test_constant_f_always_served():
    cert = check_sufficient_for_f(bernoulli_pair(), FIRST_COORD, np.full(4, 7.0))
    assert cert.sufficient
    assert np.allclose(cert.g, 7.0, atol=1e-15)


def test_indicator_served_by_sum_statistic():
    cert = check_sufficient_for_f(bernoulli_pair(), SUM_PARTITION, [0, 1, 0, 0])
    assert cert.sufficient
    assert np.allclose(cert.g, [0.0, 0.5, 0.5, 0.0], atol=1e-15)


def test_indicator_refused_by_first_coordinate():
    cert = check_sufficient_for_f(bernoulli_pair(), FIRST_COORD, [1, 0, 0, 0])
    assert not cert.sufficient
    assert cert.witness.block_index == 0
    assert {cert.witness.gamma, cert.witness.gamma_prime} == {0, 1}


def test_conditional_mean_agrees_with_per_f_check():
    fam = bernoulli_pair()
    cert = check_sufficient(fam, SUM_PARTITION)
    rng = portable_rng(33)
    for _ in range(10):
        f = rng.uniform(-1, 1, 4)
        direct = check_sufficient_for_f(fam, SUM_PARTITION, f)
        assert direct.sufficient
        assert np.max(np.abs(cert.conditional_mean(f) - direct.g)) <= 1e-12


def test_per_f_passes_for_all_indicators_when_distributionally_sufficient():
    rng = portable_rng(34)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        fam, base = shared_conditional_family(rng, n, m=3, k=max(1, n // 2))
        p = random_refinement(rng, base)
        assert check_sufficient(fam, p).sufficient
        for i in range(n):
            f = np.zeros(n)
            f[i] = 1.0
            assert check_sufficient_for_f(fam, p, f).sufficient


def test_distributional_criterion_equals_bruteforce_indicators():
    rng = portable_rng(35)
    agree_sufficient = 0
    agree_insufficient = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(2, 4))
        fam = MeasureFamily(dyadic_measure_rows(rng, m, n))
        p = random_partition(rng, n)
        verdict = check_sufficient(fam, p).sufficient
        assert verdict == sufficient_bruteforce(fam, p)
        agree_sufficient += verdict
        agree_insufficient += not verdict
    # both branches must actually occur for the comparison to mean anything
    assert agree_sufficient > 0 and agree_insufficient > 0


# ---------------------------------------------------------------------------
# null handling

def test_zero_mass_blocks_impose_no_constraint():
    fam = MeasureFamily([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]])
    # measures disagree wildly inside blocks the other never charges
    assert check_sufficient(fam, Partition([[0, 1], [2, 3]])).sufficient


def test_contains_null_field():
    fam = MeasureFamily([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
    nulls = null_set(fam)
    assert nulls == frozenset({2})
    assert contains_null_field(Partition([[0, 1], [2]]), nulls)
    assert not contains_null_field(Partition([[0], [1, 2]]), nulls)


# ---------------------------------------------------------------------------
# intersection suite

def test_intersection_suite_with_itself():
    fam = bernoulli_pair()
    report = intersection_sufficiency_suite(fam, SUM_PARTITION, SUM_PARTITION)
    assert report.hypothesis_met and report.passed
    assert report.conclusion == SUM_PARTITION


def test_intersection_suite_sum_and_singletons():
    fam = bernoulli_pair()
    report = intersection_sufficiency_suite(fam, SUM_PARTITION,
                                            Partition.singletons(4))
    assert report.hypothesis_met and report.passed
    assert report.conclusion == SUM_PARTITION


def test_intersection_suite_flags_insufficient_input():
    fam = bernoulli_pair()
    report = intersection_sufficiency_suite(fam, FIRST_COORD, SUM_PARTITION)
    assert not report.hypothesis_met
    assert "not sufficient" in report.details["failed_precondition"]


def test_intersection_suite_null_hypothesis_check():
    fam = MeasureFamily([[0.5, 0.5, 0.0, 0.0], [0.25, 0.75, 0.0, 0.0]])
    # both sufficient (their mixed blocks are never co-charged), but neither
    # contains the null field {2, 3}
    bad1 = Partition([[0], [1], [2, 3]])
    bad2 = Partition([[0], [1, 2], [3]])
    assert check_sufficient(fam, bad1).sufficient
    assert check_sufficient(fam, bad2).sufficient
    report = intersection_sufficiency_suite(fam, bad1, bad2)
    assert not report.hypothesis_met
    assert "null field" in report.details["failed_precondition"]
    good = Partition.singletons(4)
    report = intersection_sufficiency_suite(fam, good, bad2)
    assert report.hypothesis_met


def test_intersection_suite_random_pairs():
    rng = portable_rng(36)
    for _ in range(60):
        n = int(rng.integers(4, 33))
        fam, base = shared_conditional_family(rng, n, m=int(rng.integers(2, 4)),
                                              k=max(2, n // 3))
        p1 = random_refinement(rng, base)
        p2 = random_refinement(rng, base)
        report = intersection_sufficiency_suite(fam, p1, p2)
        assert report.hypothesis_met and report.passed
        # constructive limit equals the direct conditional mean on the meet
        ground = meet(p1, p2)
        direct = check_sufficient_for_f(fam, ground, np.arange(1.0, n + 1.0))
        assert direct.sufficient
        for gamma in range(fam.m):
            op = CondExpOperator(ground, fam.row(gamma))
            mask = fam.row(gamma) > 0
            assert np.max(np.abs((report.g - direct.g)[mask])) <= 1e-9


# ---------------------------------------------------------------------------
# decreasing chains

def test_chain_constant_stabilizes_immediately():
    fam = bernoulli_pair()
    report = decreasing_chain_suite(fam, [SUM_PARTITION, SUM_PARTITION])
    assert report.passed
    assert report.details["stabilizes_at"] == 0


def test_chain_reports_insufficient_element():
    fam = bernoulli_pair()
    chain = [Partition.singletons(4), SUM_PARTITION, Partition.trivial(4)]
    report = decreasing_chain_suite(fam, chain)
    assert not report.hypothesis_met
    assert report.details["failed_index"] == 2


def test_chain_rejects_non_decreasing_order():
    fam = bernoulli_pair()
    with pytest.raises(StructuralError, match="0 and 1"):
        decreasing_chain_suite(fam, [SUM_PARTITION, Partition.singletons(4)])


def test_chain_of_nested_sufficient_coarsenings():
    rng = portable_rng(37)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        fam, base = shared_conditional_family(rng, n, m=2, k=max(2, n // 4))
        fine = random_refinement(rng, base)
        chain = [fine]
        for _ in range(3):
            chain.append(coarsen_within(rng, chain[-1], base))
        report = decreasing_chain_suite(fam, chain)
        assert report.hypothesis_met and report.passed
        assert set(report.details) == {"stabilizes_at", "stable_serves_f"}
        assert report.conclusion == chain[-1]
        served = check_sufficient_for_f(fam, chain[-1], np.arange(1.0, n + 1.0)).g
        assert report.g.tobytes() == served.tobytes()


# ---------------------------------------------------------------------------
# countable intersections (finite folds)

def test_countable_suite_equal_partitions():
    fam = bernoulli_pair()
    report = countable_intersection_suite(fam, [SUM_PARTITION] * 3)
    assert report.passed
    assert report.conclusion == SUM_PARTITION


def test_countable_suite_singletons_neutral():
    fam = bernoulli_pair()
    report = countable_intersection_suite(
        fam, [SUM_PARTITION, Partition.singletons(4), SUM_PARTITION])
    assert report.passed
    assert report.conclusion == SUM_PARTITION


def test_countable_suite_three_random_coarsenings():
    rng = portable_rng(38)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        fam, base = shared_conditional_family(rng, n, m=2, k=max(2, n // 3))
        parts = [random_refinement(rng, base) for _ in range(3)]
        report = countable_intersection_suite(fam, parts)
        assert report.hypothesis_met and report.passed
        folded = parts[0]
        for p in parts[1:]:
            folded = meet(folded, p)
        assert report.conclusion == folded
        assert check_sufficient(fam, folded).sufficient


def test_countable_suite_certifies_each_partition_once(monkeypatch):
    calls = []
    certify = sufficiency._BlockTable.certify

    def counting(table):
        calls.append(table.partition)
        return certify(table)

    monkeypatch.setattr(sufficiency._BlockTable, "certify", counting)
    rng = portable_rng(45)
    fam, base = shared_conditional_family(rng, 12, m=2, k=4)
    parts = [random_refinement(rng, base) for _ in range(3)]
    report = countable_intersection_suite(fam, parts)
    assert report.hypothesis_met and report.passed
    assert len(calls) == 1 + 2 * report.details["pairwise_steps"] == 5
    assert report == countable_suite_rebuilding_operators(fam, parts)


def test_countable_suite_flags_bad_first_partition():
    fam = bernoulli_pair()
    report = countable_intersection_suite(fam, [FIRST_COORD, SUM_PARTITION])
    assert not report.hypothesis_met


# ---------------------------------------------------------------------------
# the table computation against plain loops over blocks

def _witness_fields(w):
    return (w.gamma, w.gamma_prime, w.block_index, w.description, w.violation)


def _assert_same_witness(mine, reference):
    assert _witness_fields(mine)[:4] == reference[:4]
    assert mine.violation == pytest.approx(reference[4], rel=1e-12, abs=1e-15)


def _reference_cases():
    """Families with null outcomes, uncharged blocks and both verdicts."""
    rng = portable_rng(39)
    for _ in range(150):
        n = int(rng.integers(1, 14))
        m = int(rng.integers(1, 5))
        # few dyadic steps: many zero weights, so uncharged blocks and nulls
        fam = MeasureFamily(dyadic_measure_rows(rng, m, n, denom_pow=int(rng.integers(2, 7))))
        yield fam, random_partition(rng, n), rng.uniform(-1, 1, n)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        fam, base = shared_conditional_family(rng, n, m=3, k=max(1, n // 3))
        yield fam, random_refinement(rng, base), rng.uniform(-1, 1, n)


def test_check_sufficient_equals_block_loops():
    verdicts = set()
    for fam, p, _ in _reference_cases():
        cert = check_sufficient(fam, p)
        witness, conditionals = check_sufficient_by_blocks(fam, p)
        verdicts.add(cert.sufficient)
        assert cert.sufficient == (witness is None)
        if witness is not None:
            _assert_same_witness(cert.witness, witness)
            continue
        assert len(cert.block_conditionals) == len(conditionals)
        for mine, ref in zip(cert.block_conditionals, conditionals):
            assert (mine is None) == (ref is None)
            if ref is not None:
                assert np.allclose(mine, ref, rtol=1e-14, atol=1e-15)
    assert verdicts == {True, False}


def test_check_sufficient_for_f_equals_block_loops():
    verdicts = set()
    for fam, p, f in _reference_cases():
        cert = check_sufficient_for_f(fam, p, f)
        scale = np.max(np.abs(f[fam.weights.any(axis=0)]))
        witness, g = check_sufficient_for_f_by_blocks(fam, p, f, AGREEMENT_ATOL * scale)
        verdicts.add(cert.sufficient)
        assert cert.sufficient == (witness is None)
        if witness is not None:
            _assert_same_witness(cert.witness, witness)
        else:
            assert np.allclose(cert.g, g, rtol=1e-13, atol=1e-15)
            if check_sufficient(fam, p).sufficient:
                assert np.allclose(check_sufficient(fam, p).conditional_mean(f), g,
                                   rtol=1e-13, atol=1e-15)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# tolerances follow the scale of f

def test_large_f_served_by_sufficient_refinement():
    rng = portable_rng(40)
    for _ in range(40):
        n = int(rng.integers(4, 33))
        fam, base = shared_conditional_family(rng, n, m=3, k=max(2, n // 3))
        p = random_refinement(rng, base)
        for scale in (1e-6, 1.0, 1e6, 1e9):
            assert check_sufficient_for_f(fam, p, scale * rng.uniform(-1, 1, n)).sufficient


def test_intersection_suite_with_large_f():
    rng = portable_rng(41)
    for _ in range(20):
        n = int(rng.integers(4, 33))
        fam, base = shared_conditional_family(rng, n, m=3, k=max(2, n // 3))
        p1, p2 = random_refinement(rng, base), random_refinement(rng, base)
        f = 1e6 * rng.uniform(-1, 1, n)
        report = intersection_sufficiency_suite(fam, p1, p2, f=f)
        assert report.hypothesis_met and report.passed, report.summary()
        chain = decreasing_chain_suite(fam, [p1, meet(p1, p2)], f=f)
        assert chain.hypothesis_met and chain.passed, chain.summary()


# ---------------------------------------------------------------------------
# certificates and reports compare by value

def test_positive_certificates_compare_by_value():
    fam = bernoulli_pair()
    f = [1.0, 2.0, 2.0, 5.0]
    assert check_sufficient(fam, SUM_PARTITION) == check_sufficient(fam, SUM_PARTITION)
    assert check_sufficient_for_f(fam, SUM_PARTITION, f) == check_sufficient_for_f(
        fam, SUM_PARTITION, f)
    assert check_sufficient_for_f(fam, SUM_PARTITION, f) != check_sufficient_for_f(
        fam, SUM_PARTITION, [1.0, 2.0, 2.0, 6.0])
    assert check_sufficient(fam, SUM_PARTITION) != check_sufficient(fam, FIRST_COORD)
    assert check_sufficient(fam, SUM_PARTITION) != check_sufficient(
        fam, Partition.singletons(4))


def test_suite_reports_compare_by_value():
    fam = bernoulli_pair()
    report = intersection_sufficiency_suite(fam, SUM_PARTITION, Partition.singletons(4))
    assert report.g is not None
    assert report == intersection_sufficiency_suite(fam, SUM_PARTITION,
                                                    Partition.singletons(4))
    assert report != intersection_sufficiency_suite(fam, SUM_PARTITION, SUM_PARTITION,
                                                    f=[0.0, 1.0, 1.0, 2.0])
    chain = countable_intersection_suite(fam, [Partition.singletons(4), SUM_PARTITION])
    assert chain.steps and chain == countable_intersection_suite(
        fam, [Partition.singletons(4), SUM_PARTITION])


# ---------------------------------------------------------------------------
# the suites on block tables against the loop that rebuilds operators each round

def test_suites_equal_the_operator_rebuilding_loop():
    rng = portable_rng(44)
    seen = set()
    for case in range(100):
        n, m = int(rng.integers(2, 13)), 1 + case % 4
        fam, base = shared_family_with_gaps(rng, n, m, k=max(1, n // 3))
        nulls = null_set(fam)
        parts = [random_refinement(rng, base) for _ in range(2 + case % 3)]
        if case % 3:
            parts[0] = completion(parts[0], nulls)
        if case % 7 == 0:
            parts[1] = random_partition(rng, n)
        f = None if case % 2 else rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-3, 6)
        mine = intersection_sufficiency_suite(fam, parts[0], parts[1], f=f)
        assert mine == intersection_suite_rebuilding_operators(fam, parts[0], parts[1], f=f)
        folded = countable_intersection_suite(fam, parts, f=f)
        assert folded == countable_suite_rebuilding_operators(fam, parts, f=f)
        # a measure with zero mass on a block another measure charges
        mass = np.stack([np.bincount(parts[1].block_of, weights=r) for r in fam.weights])
        gap = bool(np.any((mass == 0) & (mass > 0).any(axis=0)))
        seen.add((m, bool(nulls), gap, mine.hypothesis_met and mine.passed,
                  folded.hypothesis_met and folded.passed))
    assert {m for m, nulls, _, *passed in seen if nulls and all(passed)} == {1, 2, 3, 4}
    assert any(gap and all(passed) for _, _, gap, *passed in seen)
    assert any(not any(passed) for _, _, _, *passed in seen)


def test_capped_suites_equal_the_operator_rebuilding_loop():
    # a cap of one to three rounds stops the replay before it settles, so the
    # limit is often not yet measurable for the meet: both verdicts are judged
    rng = portable_rng(46)
    verdicts = set()
    for case in range(300):
        n, m = int(rng.integers(2, 13)), 1 + case % 4
        fam, base = shared_family_with_gaps(rng, n, m, k=max(1, n // 3))
        nulls = null_set(fam)
        parts = [random_refinement(rng, base) for _ in range(2)]
        if case % 3:
            parts[0] = completion(parts[0], nulls)
        f = None if case % 2 else rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-3, 6)
        cap = 1 + case % 3
        mine = intersection_sufficiency_suite(fam, parts[0], parts[1], f=f, max_rounds=cap)
        assert mine == intersection_suite_rebuilding_operators(
            fam, parts[0], parts[1], f=f, max_rounds=cap)
        if mine.hypothesis_met:
            verdicts.add(mine.details["limit_meet_measurable"])
    assert verdicts == {True, False}


def test_suite_stop_ignores_f_on_null_outcomes():
    # outcome 5 is null under both measures; a large f there must not end the replay early
    w = [0.1, 0.3, 0.2, 0.15, 0.25, 0.0]
    fam = MeasureFamily([w, w])
    p1 = Partition([[0, 1], [2, 3], [4], [5]])
    p2 = Partition([[1, 2], [3, 4], [0], [5]])
    reports = [intersection_sufficiency_suite(fam, p1, p2, f=[1, -2, 3, 0.5, -1, big])
               for big in (0.0, 1e6, 1e14)]
    assert all(r.hypothesis_met and r.passed for r in reports), reports[-1].summary()
    assert len({r.details["rounds"] for r in reports}) == 1
    assert reports[1] == intersection_suite_rebuilding_operators(
        fam, p1, p2, f=[1, -2, 3, 0.5, -1, 1e6])


def split_pair():
    """Two measures whose profiles on the trivial partition differ by
    0.9e-10 per outcome, inside the criterion's tolerance, while their
    conditional means of ALTERNATING differ by 3.6e-10."""
    eps = 0.9e-10
    return MeasureFamily([[0.25] * 4, [0.25 + eps, 0.25 - eps] * 2])


ALTERNATING = [1.0, -1.0, 1.0, -1.0]


def test_split_trajectories_are_reported_at_their_round():
    fam, trivial = split_pair(), Partition.trivial(4)
    assert check_sufficient(fam, trivial).sufficient
    report = intersection_sufficiency_suite(fam, trivial, trivial, f=ALTERNATING)
    assert not report.hypothesis_met
    assert report.details == {"failed_precondition":
                              "trajectories split at round 1: sufficiency violated"}


def test_chain_whose_stable_element_cannot_serve_f_fails():
    fam = split_pair()
    report = decreasing_chain_suite(fam, [Partition.singletons(4), Partition.trivial(4)],
                                    f=ALTERNATING)
    assert report.hypothesis_met and not report.passed
    assert report.details["stable_serves_f"] is False and report.g is None


def test_suite_memory_stays_within_a_few_stacks():
    # p1 and p2 pair neighbours inside base blocks of 8, so the join is finest
    # and the meet is the base; every measure shares one profile per base block
    n, m = 50_000, 3
    rng = portable_rng(41)
    i = np.arange(n)
    w = rng.uniform(0.5, 1.5, (m, n // 8))[:, i // 8] * rng.uniform(0.5, 1.5, n)
    family = MeasureFamily(w / w.sum(axis=1, keepdims=True))
    p1 = partition_of_labels(i // 2)
    p2 = partition_of_labels(i // 8 * 8 + (i % 8 + 1) // 2)
    tracemalloc.start()
    try:
        report = intersection_sufficiency_suite(family, p1, p2, max_rounds=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.hypothesis_met and report.details["rounds"] == 20
    assert peak < 15 * m * n * 8      # 14.6 m x n; stacking both trajectories took 26.8
