"""Property tests: verdicts do not depend on the scale of f or on the
order in which outcomes are numbered, and an alternating run converges
exactly when it stopped on a certified tolerance."""

import numpy as np
import pytest

from condexp import (
    CondExpOperator,
    MeasureFamily,
    Partition,
    check_sufficient,
    check_sufficient_for_f,
    intersection_sufficiency_suite,
    iterate,
    join,
    meet,
)
from condexp.rng import portable_rng

from helpers import (
    dyadic_measure_rows,
    random_measure_with_nulls,
    random_partition,
    random_refinement,
    shared_conditional_family,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                               database=None)


def _instance(seed: int, sufficient: bool):
    """A family, two partitions of its outcomes, and a test vector whose
    magnitude is anywhere from 1 to 1e3.

    ``sufficient`` draws both partitions as refinements of a partition
    whose within-block conditionals all measures share; otherwise the
    family is arbitrary, with exact dyadic weights and some null outcomes.
    """
    rng = portable_rng(seed)
    n = int(rng.integers(2, 16))
    if sufficient:
        fam, base = shared_conditional_family(rng, n, m=int(rng.integers(2, 4)),
                                              k=max(2, n // 3))
        p1, p2 = random_refinement(rng, base), random_refinement(rng, base)
    else:
        fam = MeasureFamily(dyadic_measure_rows(rng, int(rng.integers(2, 4)), n, 5))
        p1, p2 = random_partition(rng, n), random_partition(rng, n)
    return fam, p1, p2, rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0.0, 3.0)


def _relabel(fam, p, f, perm):
    """The same objects with outcome ``perm[i]`` renamed ``i``."""
    moved = Partition([np.flatnonzero(np.isin(perm, block)) for block in p.blocks])
    return MeasureFamily(fam.weights[:, perm]), moved, f[perm]


seeds = st.integers(0, 2 ** 32 - 1)
scales = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@PROPERTY
@hypothesis.given(seed=seeds, sufficient=st.booleans(), c=scales)
def test_per_f_verdict_invariant_under_scaling(seed, sufficient, c):
    fam, p, _, f = _instance(seed, sufficient)
    base = check_sufficient_for_f(fam, p, f)
    scaled = check_sufficient_for_f(fam, p, c * f)
    assert scaled.sufficient == base.sufficient
    if sufficient:
        assert base.sufficient
    if base.sufficient:
        assert np.allclose(scaled.g, c * base.g, rtol=1e-9, atol=0.0)
    else:
        assert scaled.witness.block_index == base.witness.block_index


@hypothesis.settings(PROPERTY, max_examples=25)
@hypothesis.given(seed=seeds, c=scales)
def test_intersection_suite_invariant_under_scaling(seed, c):
    fam, p1, p2, f = _instance(seed, sufficient=True)
    base = intersection_sufficiency_suite(fam, p1, p2, f=f)
    scaled = intersection_sufficiency_suite(fam, p1, p2, f=c * f)
    assert base.hypothesis_met and base.passed, base.summary()
    assert (scaled.hypothesis_met, scaled.passed) == (True, True), scaled.summary()


@PROPERTY
@hypothesis.given(seed=seeds, sufficient=st.booleans(), shuffle=seeds)
def test_verdicts_invariant_under_relabelling(seed, sufficient, shuffle):
    fam, p1, p2, f = _instance(seed, sufficient)
    perm = portable_rng(shuffle).permutation(fam.n)
    fam_r, p1_r, f_r = _relabel(fam, p1, f, perm)
    _, p2_r, _ = _relabel(fam, p2, f, perm)
    assert check_sufficient(fam_r, p1_r).sufficient == check_sufficient(fam, p1).sufficient
    base, moved = check_sufficient_for_f(fam, p1, f), check_sufficient_for_f(fam_r, p1_r, f_r)
    assert moved.sufficient == base.sufficient
    if base.sufficient:
        assert np.allclose(moved.g, base.g[perm], rtol=1e-12, atol=1e-15)
    assert meet(p1_r, p2_r) == _relabel(fam, meet(p1, p2), f, perm)[1]
    assert join(p1_r, p2_r) == _relabel(fam, join(p1, p2), f, perm)[1]


@PROPERTY
@hypothesis.given(seed=seeds, tol_exp=st.integers(4, 14), max_iter=st.integers(1, 3000),
                  explicit=st.booleans())
def test_iterate_converged_means_stopped_on_a_certified_tolerance(seed, tol_exp, max_iter,
                                                                 explicit):
    rng = portable_rng(seed)
    n = int(rng.integers(1, 25))
    w = random_measure_with_nulls(rng, n, int(rng.integers(0, n)))
    ops = [CondExpOperator(random_partition(rng, n), w) for _ in range(int(rng.integers(1, 4)))]
    schedule = (rng.integers(0, len(ops), int(rng.integers(0, 60))).tolist() if explicit
                else "alternating")
    tol = 10.0 ** -tol_exp
    report = iterate(ops, rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-3, 3),
                     schedule=schedule, tol=tol, max_iter=max_iter)
    assert report.converged == (report.stop_reason == "tolerance met")
    if report.converged:
        assert report.residual <= tol
    elif report.stop_reason == "iteration cap":
        assert report.iterations_used == max_iter
    else:
        assert report.stop_reason == "schedule exhausted" and explicit
        assert report.iterations_used == len(schedule) < max_iter
