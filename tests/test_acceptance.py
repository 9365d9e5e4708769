"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
all).  Criteria needing the same random instances share a module-scoped
fixture so the whole gate stays fast.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from condexp import (
    CondExpOperator,
    MeasureFamily,
    check_sufficient,
    check_sufficient_for_f,
    convex_sum_identity,
    countable_intersection_suite,
    decreasing_chain_suite,
    direct_meet_operator,
    in_diagonal,
    intersection_sufficiency_suite,
    iterate,
    meet,
    membership,
    power_difference_ledger,
    refute_diagonal,
    truncation_join_is_sufficient,
    verify_g_construction,
    verify_projection_properties,
)
from condexp.rng import portable_rng

from helpers import (
    coarsen_within,
    dyadic_measure_rows,
    matrix_power_limit,
    random_partition,
    random_positive_measure,
    random_refinement,
    shared_conditional_family,
    sufficient_bruteforce,
)
from test_counterexample import random_expression
from test_sequences import norm_power_sequence


def report_line(index, label, passed, detail):
    print(f"criterion {index} ({label}): {'PASS' if passed else 'FAIL'} [{detail}]")
    assert passed, f"criterion {index} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: operator axioms

def test_criterion_1_operator_axioms():
    rng = portable_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        n = int(rng.integers(2, 65))
        op = CondExpOperator(random_partition(rng, n), random_positive_measure(rng, n))
        report = verify_projection_properties(op, trials=20, seed=seed)
        worst = max(worst, report.max_violation())
    elapsed = time.perf_counter() - start
    report_line(1, "operator axioms", worst <= 1e-12 and elapsed <= 5.0,
                f"max violation {worst:.3e}, {elapsed:.2f}s over 200 spaces")


# ---------------------------------------------------------------------------
# criteria 2-4 share the same 200 random instances

@pytest.fixture(scope="module")
def alternating_runs():
    rng = portable_rng(1002)
    instances = []
    start = time.perf_counter()
    oracle_checked = 0
    worst_residual = 0.0
    worst_oracle = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        w = random_positive_measure(rng, n)
        t1 = CondExpOperator(random_partition(rng, n), w)
        t2 = CondExpOperator(random_partition(rng, n), w)
        x = rng.uniform(-1, 1, n)
        run = iterate([t1, t2], x, tol=1e-12, max_iter=200_000)
        worst_residual = max(worst_residual, run.residual)
        if n <= 16:
            oracle = matrix_power_limit(t1, t2) @ x
            worst_oracle = max(worst_oracle,
                               float(np.max(np.abs(oracle - run.limit))),
                               float(np.max(np.abs(oracle - run.final))))
            oracle_checked += 1
        instances.append((t1, t2, x, run))
    elapsed = time.perf_counter() - start
    return {
        "instances": instances,
        "elapsed": elapsed,
        "worst_residual": worst_residual,
        "worst_oracle": worst_oracle,
        "oracle_checked": oracle_checked,
    }


def test_criterion_2_alternating_convergence(alternating_runs):
    r = alternating_runs
    ok = (r["worst_residual"] <= 1e-9 and r["worst_oracle"] <= 1e-9
          and r["oracle_checked"] >= 20 and r["elapsed"] <= 10.0)
    report_line(2, "alternating convergence", ok,
                f"residual {r['worst_residual']:.3e}, oracle gap "
                f"{r['worst_oracle']:.3e} on {r['oracle_checked']} matrices, "
                f"{r['elapsed']:.2f}s")


def test_criterion_3_telescoping_ledger(alternating_runs):
    worst_step = 0.0
    worst_margin = -np.inf
    for _, _, _, run in alternating_runs["instances"]:
        scale = 5e-12 * max(1.0, float(run.norms2[0]))
        gaps = np.abs(run.diffs2 - (run.norms2[:-1] - run.norms2[1:]))
        if gaps.size:
            worst_step = max(worst_step, float(np.max(gaps)) / scale * 5e-12)
        margin = float(run.diffs2.sum()) - float(run.norms2[0])
        worst_margin = max(worst_margin, margin)
    ok = worst_step <= 5e-12 and worst_margin <= 1e-10
    report_line(3, "telescoping ledger", ok,
                f"worst per-step gap {worst_step:.3e}, "
                f"sum-margin {worst_margin:.3e}")


def test_criterion_4_power_difference_bound(alternating_runs):
    worst = -np.inf
    for t1, t2, x, _ in alternating_runs["instances"]:
        ledger = power_difference_ledger(t1, t2, x, n_terms=200)
        worst = max(worst, ledger.partial_sum - ledger.bound)
    report_line(4, "power-difference sum bound", worst <= 1e-10,
                f"worst excess over bound {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 5: convex-sum identity

def test_criterion_5_convex_sum_identity():
    n = np.arange(1.0, 10_001.0)
    analytic = convex_sum_identity(1.0 / n, limit=0.0, tol=1e-9)
    analytic_ok = analytic.passed and analytic.final_residual <= 2e-3

    rng = portable_rng(1005)
    worst = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 13))
        w = random_positive_measure(rng, size)
        t1 = CondExpOperator(random_partition(rng, size), w)
        t2 = CondExpOperator(random_partition(rng, size), w)
        x = rng.uniform(-1, 1, size)
        a = norm_power_sequence(t1, t2, x, 3000)
        q = direct_meet_operator([t1, t2])
        limit = q.ip.norm2_sq(q.apply(x))
        rep = convex_sum_identity(a, limit=limit, tol=1e-9)
        worst = max(worst, rep.final_residual)
    ok = analytic_ok and worst <= 1e-9
    report_line(5, "convex-sum identity", ok,
                f"1/n residual {analytic.final_residual:.3e}, "
                f"operator residual {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 6: sufficiency oracle equivalence

def test_criterion_6_sufficiency_oracle_equivalence():
    rng = portable_rng(1006)
    mismatches = 0
    positives = 0
    for k in range(100):
        size = int(rng.integers(2, 13))
        m = int(rng.integers(2, 4))
        fam = MeasureFamily(dyadic_measure_rows(rng, m, size))
        if k % 3 == 0:
            # force some genuinely sufficient instances into the sample
            fam, base = shared_conditional_family(rng, size, m=m,
                                                  k=max(1, size // 2))
            p = random_refinement(rng, base)
        else:
            p = random_partition(rng, size)
        fast = check_sufficient(fam, p).sufficient
        slow = sufficient_bruteforce(fam, p)
        mismatches += fast != slow
        positives += fast
    ok = mismatches == 0 and 0 < positives < 100
    report_line(6, "sufficiency oracle equivalence", ok,
                f"{mismatches} disagreements, {positives}/100 sufficient")


# ---------------------------------------------------------------------------
# criterion 7: intersection theorems

def _limit_matches_direct(fam, ground, g, tol=1e-9) -> float:
    direct = check_sufficient_for_f(fam, ground, np.arange(1.0, fam.n + 1.0))
    assert direct.sufficient
    worst = 0.0
    for gamma in range(fam.m):
        mask = fam.row(gamma) > 0
        worst = max(worst, float(np.max(np.abs((g - direct.g)[mask]))))
    return worst


def test_criterion_7_intersection_theorems():
    rng = portable_rng(1007)
    failures = 0
    worst_gap = 0.0
    for k in range(200):
        n = int(rng.integers(4, 33))
        fam, base = shared_conditional_family(rng, n, m=int(rng.integers(2, 4)),
                                              k=max(2, n // 3))
        if k % 4 < 2:          # pairs
            p1, p2 = random_refinement(rng, base), random_refinement(rng, base)
            report = intersection_sufficiency_suite(fam, p1, p2)
            ground = meet(p1, p2)
        elif k % 4 == 2:       # decreasing chains
            fine = random_refinement(rng, base)
            chain = [fine]
            for _ in range(3):
                chain.append(coarsen_within(rng, chain[-1], base))
            report = decreasing_chain_suite(fam, chain)
            ground = chain[-1]
        else:                  # triples through the countable fold
            parts = [random_refinement(rng, base) for _ in range(3)]
            report = countable_intersection_suite(fam, parts)
            ground = parts[0]
            for p in parts[1:]:
                ground = meet(ground, p)
        if not (report.hypothesis_met and report.passed):
            failures += 1
            continue
        assert report.conclusion == ground
        worst_gap = max(worst_gap, _limit_matches_direct(fam, ground, report.g))
    ok = failures == 0 and worst_gap <= 1e-9
    report_line(7, "intersection theorems", ok,
                f"{failures} suite failures, worst limit gap {worst_gap:.3e}")


# ---------------------------------------------------------------------------
# criterion 8: counterexample refuter

def test_criterion_8_counterexample_refuter():
    rng = portable_rng(1008)
    start = time.perf_counter()
    bad_witnesses = 0
    for _ in range(1000):
        expr = random_expression(rng, depth=int(rng.integers(0, 7)), max_atoms=8)
        witness = refute_diagonal(expr)
        if membership(expr, witness) == in_diagonal(witness):
            bad_witnesses += 1

    worst_violation = 0.0
    for count in (1, 2, 5, 10):
        radii = [Fraction(k + 1) for k in range(count)]
        f = rng.uniform(-3, 3, 4 * count)
        rep = verify_g_construction(radii, f)
        worst_violation = max(worst_violation,
                              rep.details["family1_max_violation"],
                              rep.details["family2_max_violation"])
        if not rep.passed:
            bad_witnesses += 1

    join_rep = truncation_join_is_sufficient([Fraction(k + 1) for k in range(10)])
    states_limitation = ("finite truncations cannot reproduce"
                         in join_rep.details["note"])
    elapsed = time.perf_counter() - start
    ok = (bad_witnesses == 0 and worst_violation <= 1e-12
          and join_rep.passed and states_limitation and elapsed <= 5.0)
    report_line(8, "counterexample refuter", ok,
                f"{bad_witnesses} bad outcomes, g-violation "
                f"{worst_violation:.3e}, {elapsed:.2f}s")
