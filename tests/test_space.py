"""Partition lattice, measure families, and measurability."""

import time

import numpy as np
import pytest

from condexp import (
    CondExpOperator,
    MeasureFamily,
    OutcomeSpace,
    Partition,
    StructuralError,
    check_sufficient,
    check_sufficient_for_f,
    completion,
    intersection_sufficiency_suite,
    is_measurable,
    join,
    meet,
    null_set,
)
from condexp.rng import portable_rng

from helpers import (
    canonical_labels,
    join_oracle,
    meet_oracle,
    partition_of_labels,
    random_partition,
    random_refinement,
    shared_family_with_gaps,
    sigma_closure,
    sigma_sets,
)


# ---------------------------------------------------------------------------
# construction and validation

def test_outcome_space_rejects_duplicates():
    with pytest.raises(StructuralError):
        OutcomeSpace(["a", "a"])


def test_outcome_space_rejects_empty():
    with pytest.raises(StructuralError):
        OutcomeSpace([])


def test_partition_canonical_order():
    p = Partition([[3, 2], [1, 0]])
    assert p.blocks == ((0, 1), (2, 3))
    assert p == Partition([[0, 1], [3, 2]])


@pytest.mark.parametrize("blocks", [
    [[0, 1], [1, 2]],        # overlap
    [[0], [2]],              # gap at 1
    [[0], []],               # empty block
    [],                      # no blocks at all
    [[-1, 0]],               # negative index
])
def test_partition_rejects_bad_blocks(blocks):
    with pytest.raises(StructuralError):
        Partition(blocks)


@pytest.mark.parametrize("blocks", [
    # each malformed block follows a well-formed one, and would complete a
    # partition if it were truncated or coerced
    [[2], [0.5, 1]],                  # fractional: would truncate to 0
    [[2], ["a", 1]],                  # not a number
    [[1], [0, float("inf")]],         # not finite
    [[1], [0, float("nan")]],
    [[2], [True, 0]],                 # booleans are not indices
    [[2], [np.True_, 0]],
    [[2], np.array([True, False])],
    [[1], [0, 10 ** 30]],             # beyond any index type
    [[2], [[0], [1]]],                # nested one level too deep
    # float arrays among integer arrays
    [np.array([2]), np.array([0.5, 1.0])],
    [np.array([1], dtype=np.int32), np.array([0.0, np.inf])],
    [np.array([1], dtype=np.uint8), np.array([0.0, np.nan]), np.array([2])],
])
def test_partition_rejects_non_integer_indices(blocks):
    with pytest.raises(StructuralError, match="not an integer"):
        Partition(blocks)


def test_partition_accepts_integral_numbers_of_any_type():
    expected = Partition([[0, 1], [2]])
    assert Partition([[0.0, 1.0], [2]]) == expected
    assert Partition([np.array([1, 0], dtype=np.uint8), (2,)]) == expected
    assert Partition([range(2), {2}]) == expected


INDEX_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                np.uint8, np.uint16, np.uint32, np.uint64]
BLOCK_CONTAINERS = [lambda idx, dtype=dtype: idx.astype(dtype) for dtype in INDEX_DTYPES] + [
    lambda idx: idx.tolist(),           # Python ints
    lambda idx: list(idx),              # numpy integer scalars
    lambda idx: tuple(idx.tolist()),
    lambda idx: set(idx.tolist()),
    lambda idx: (range(idx.min(), idx.max() + 1) if np.ptp(idx) == idx.size - 1
                 else idx.tolist()),
]


def test_partition_from_blocks_of_every_container_equals_the_label_partition():
    # integer arrays skip the fraction test; every container and width,
    # alone or mixed, must land on the partition of the labels it came from
    rng = portable_rng(48)
    for trial in range(80):
        n = int(rng.integers(1, 120))
        labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
        if trial % 2:                   # contiguous blocks, so range blocks occur
            labels = np.sort(labels)
        same = BLOCK_CONTAINERS[trial % len(BLOCK_CONTAINERS)] if trial < 40 else None
        blocks = []
        for b in rng.permutation(np.unique(labels)):
            idx = rng.permutation(np.flatnonzero(labels == b))
            make = same or BLOCK_CONTAINERS[int(rng.integers(0, len(BLOCK_CONTAINERS)))]
            blocks.append(make(idx))
        assert Partition(blocks) == Partition._from_labels(labels)


JUDGED_BLOCKS = [lambda idx, dtype=dtype: idx.astype(dtype)
                 for dtype in (np.int8, np.int32, np.int64, np.uint64)] + [
    lambda idx: idx.tolist(),
    lambda idx: tuple(idx.tolist()),
    lambda idx: (range(idx.min(), idx.max() + 1) if np.ptp(idx) == idx.size - 1
                 else idx.tolist()),
    lambda idx: (int(i) for i in idx),     # a generator
]
JUDGED_MIXES = [
    # int64 with uint64 blocks: numpy promotes their concatenation to float64
    lambda j, idx: idx.astype(np.uint64 if j % 2 else np.int64),
    lambda j, idx: idx.tolist() if j % 2 else idx,      # arrays and lists
]


def test_partition_from_blocks_matches_the_label_judge():
    # the block path concatenates once and numbers blocks by their least
    # elements; over every block type, alone and mixed, it must land on the
    # partition of the labels the blocks came from
    rng = portable_rng(25)
    makers = [lambda j, idx, make=make: make(idx) for make in JUDGED_BLOCKS] + JUDGED_MIXES
    for trial in range(120):
        n = int(rng.integers(1, 120))       # int8 holds every index
        labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
        if trial % 2:                       # contiguous blocks, so range blocks occur
            labels = np.sort(labels)
        make = makers[trial % len(makers)]
        blocks = [make(j, rng.permutation(np.flatnonzero(labels == b)))
                  for j, b in enumerate(rng.permutation(np.unique(labels)))]
        p = Partition(blocks)
        assert p == partition_of_labels(labels)
        assert np.array_equal(p.block_of, canonical_labels(labels))


NOT_AN_INTEGER = "holds an outcome index that is not an integer"


@pytest.mark.parametrize("blocks, message", [
    ([[2], np.array([True, False])], f"block 1 {NOT_AN_INTEGER}"),
    ([[2], [True, 0]], f"block 1 {NOT_AN_INTEGER}"),
    ([np.array([2]), np.array([0.5, 1.0])], f"block 1 {NOT_AN_INTEGER}"),
    ([np.array([[0, 1]]), [2]], f"block 0 {NOT_AN_INTEGER}"),
    ([[0], np.array([], dtype=np.int64)], "blocks must be non-empty"),
    ([[0], np.array([])], "blocks must be non-empty"),
    ([[2], [[0], [1]]], f"block 1 {NOT_AN_INTEGER}"),
    ([[2], ["a", 1]], f"block 1 {NOT_AN_INTEGER}"),
    ([["0", "1"]], f"block 0 {NOT_AN_INTEGER}"),
    ([[1], [-1, 0]], "negative outcome index -1"),
    ([np.array([1]), np.array([-1, 0], dtype=np.int32)], "negative outcome index -1"),
    ([[0, 1], [1, 2]], "blocks overlap at index 1"),
    ([np.array([0, 1]), np.array([1, 2], dtype=np.uint64)], "blocks overlap at index 1"),
    ([[0], [2]], "blocks do not cover index 1"),
    ([np.array([0, 3]), np.array([1], dtype=np.int8)], "blocks do not cover index 2"),
    ([np.array([0, 5]), [1]], "blocks do not cover index 2"),
    ([], "a partition needs at least one block"),
    ((b for b in ()), "a partition needs at least one block"),
])
def test_partition_refusals_keep_their_messages(blocks, message):
    with pytest.raises(StructuralError) as exc:
        Partition(blocks)
    assert str(exc.value) == message


def test_partition_accepts_an_integral_float_array():
    assert Partition([np.array([2.0]), np.array([0.0, 1.0])]) == Partition([[0, 1], [2]])


def test_partition_is_one_canonical_label_array():
    p = Partition([[4, 2], [3], [1, 0]])
    assert p.block_of.tolist() == [0, 0, 1, 2, 1]
    assert p.k == 3 and p.n == 5
    assert not p.block_of.flags.writeable
    assert p.blocks == ((0, 1), (2, 4), (3,))
    assert hash(p) == hash(Partition([[0, 1], [3], [2, 4]]))
    assert p != Partition.singletons(5) and p != "not a partition"


def test_measure_family_validation():
    with pytest.raises(StructuralError):
        MeasureFamily([[0.5, 0.6]])
    with pytest.raises(StructuralError):
        MeasureFamily([[1.1, -0.1]])
    fam = MeasureFamily([[0.5, 0.5], [1.0, 0.0]])
    assert fam.m == 2 and fam.n == 2


def test_measure_family_rejects_offsum_beyond_tolerance():
    with pytest.raises(StructuralError):
        MeasureFamily([[0.5, 0.5 - 1e-9]])
    # a couple of ulps is fine
    MeasureFamily([[1 / 3, 1 / 3, 1 / 3]])


def test_offsum_message_prints_a_plain_float():
    with pytest.raises(StructuralError) as exc:
        MeasureFamily([[0.5, 0.4]])
    assert str(exc.value) == "measure row 0 sums to 0.9, not 1 within 1e-12"


def test_family_holds_its_own_c_ordered_copy_of_the_weights():
    w = np.array([[0.25] * 4, [0.5, 0.25, 0.125, 0.125]])
    view = w[:]
    fam = MeasureFamily(w)
    assert w.flags.writeable
    w[0, 0] = 0.5
    view[1, 1] = 5.0
    assert fam.weights.tolist() == [[0.25] * 4, [0.5, 0.25, 0.125, 0.125]]
    assert not fam.weights.flags.writeable
    fortran = MeasureFamily(np.asfortranarray(np.full((3, 5), 0.2)))
    assert fortran.weights.flags.c_contiguous


def test_results_do_not_depend_on_the_weights_memory_order():
    rng = portable_rng(61)
    fam, base = shared_family_with_gaps(rng, 60, 3, 12)
    p1 = completion(random_refinement(rng, base), null_set(fam))
    p2 = random_refinement(rng, base)
    f = rng.uniform(-1.0, 1.0, 60)
    bad = fam.weights.copy()
    i = int(np.flatnonzero(bad[0] > 0)[0])
    bad[0, i] *= 1.5
    bad[0] /= bad[0].sum()

    def outcomes(order):
        family = MeasureFamily(np.asarray(fam.weights, order=order))
        broken = MeasureFamily(np.asarray(bad, order=order))
        suite = intersection_sufficiency_suite(family, p1, p2, f=f)
        good, worse = check_sufficient(family, p1), check_sufficient(broken, base)
        served = check_sufficient_for_f(family, meet(p1, p2), f)
        applied = CondExpOperator(p1, family.row(0)).apply(f)
        verdicts = (good.sufficient, worse.sufficient, served.sufficient, suite.passed)
        return verdicts, [*map(float.hex, good._profile.tolist()), worse.witness,
                          float.hex(worse.witness.violation), *map(float.hex, served.g.tolist()),
                          *map(float.hex, applied.tolist()), suite.conclusion,
                          *map(float.hex, suite.g.tolist()),
                          *(float.hex(v) if isinstance(v, float) else v
                            for v in suite.details.values())]

    c_order = outcomes("C")
    assert c_order[0] == (True, False, True, True)
    assert outcomes("F") == c_order


# ---------------------------------------------------------------------------
# meet / join examples

def test_meet_with_itself():
    p = Partition([[0, 1], [2, 3]])
    assert meet(p, p) == p


def test_meet_crossing_pair_is_trivial():
    p1 = Partition([[0, 1], [2, 3]])
    p2 = Partition([[0, 2], [1, 3]])
    assert meet(p1, p2) == Partition.trivial(4)
    assert meet(p1, p2) == meet_oracle(p1, p2)


def test_meet_trivial_absorbs():
    assert meet(Partition.singletons(3), Partition.trivial(3)) == Partition.trivial(3)


def test_join_crossing_pair_is_singletons():
    p1 = Partition([[0, 1], [2, 3]])
    p2 = Partition([[0, 2], [1, 3]])
    assert join(p1, p2) == Partition.singletons(4)
    assert join(p1, p2) == join_oracle(p1, p2)


def test_join_with_singletons_and_self():
    p = Partition([[0, 1], [2, 3], [4]])
    assert join(p, Partition.singletons(5)) == Partition.singletons(5)
    assert join(p, p) == p


def test_meet_join_size_mismatch():
    with pytest.raises(StructuralError):
        meet(Partition.trivial(3), Partition.trivial(4))
    with pytest.raises(StructuralError):
        join(Partition.trivial(3), Partition.trivial(4))


def test_lattice_laws_random():
    rng = portable_rng(101)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        p = random_partition(rng, n)
        q = random_partition(rng, n)
        r = random_partition(rng, n)
        assert meet(p, q) == meet(q, p)
        assert join(p, q) == join(q, p)
        assert meet(meet(p, q), r) == meet(p, meet(q, r))
        assert join(join(p, q), r) == join(p, join(q, r))
        assert meet(p, p) == p and join(p, p) == p
        assert meet(p, join(p, q)) == p
        assert join(p, meet(p, q)) == p
        # refinement order
        assert p.refines(meet(p, q)) and q.refines(meet(p, q))
        assert join(p, q).refines(p) and join(p, q).refines(q)
        # oracles
        assert meet(p, q) == meet_oracle(p, q)
        assert join(p, q) == join_oracle(p, q)


# ---------------------------------------------------------------------------
# null sets and completion

def test_null_set_scan():
    assert null_set(MeasureFamily([[0.5, 0.5, 0.0]])) == frozenset({2})
    assert null_set(MeasureFamily([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])) == frozenset()
    assert null_set(MeasureFamily([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])) == frozenset({2})
    assert null_set(MeasureFamily([[0.2, 0.3, 0.5]])) == frozenset()


def test_completion_examples():
    p = Partition([[0, 1]])
    assert completion(p, frozenset()) == p
    assert completion(p, {1}) == Partition.singletons(2)
    s = Partition.singletons(4)
    assert completion(s, {0, 3}) == s


def test_completion_idempotent():
    rng = portable_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        p = random_partition(rng, n)
        nulls = frozenset(int(i) for i in rng.choice(n, size=int(rng.integers(0, n)),
                                                     replace=False))
        once = completion(p, nulls)
        assert completion(once, nulls) == once


def test_completion_generates_same_field_mod_nulls():
    # the completed partition's field must equal the closure of the original
    # blocks together with all subsets of the null indices
    rng = portable_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        p = random_partition(rng, n)
        nulls = set(int(i) for i in rng.choice(n, size=int(rng.integers(0, n)),
                                               replace=False))
        generated = sigma_closure(
            [set(b) for b in p.blocks] + [{i} for i in nulls], n)
        assert sigma_sets(completion(p, nulls)) == generated


# ---------------------------------------------------------------------------
# measurability

def test_measurability_examples():
    p_cross = Partition([[0, 2], [1, 3]])
    p_pairs = Partition([[0, 1], [2, 3]])
    assert is_measurable([5, 5, 5, 5], p_pairs)
    assert is_measurable([1, 2, 1, 2], p_cross)
    assert not is_measurable([1, 2, 1, 2], p_pairs)


def test_measurability_tolerance_variant():
    p = Partition([[0, 1]])
    assert not is_measurable([1.0, 1.0 + 1e-9], p)
    assert is_measurable([1.0, 1.0 + 1e-9], p, tol=1e-8)


def test_measurability_monotone_under_refinement():
    rng = portable_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        coarse = random_partition(rng, n)
        finer = join(coarse, random_partition(rng, n))
        x = rng.normal(size=n)
        # force measurability w.r.t. the coarse partition
        for b in coarse.blocks:
            x[list(b)] = x[b[0]]
        assert is_measurable(x, coarse)
        assert is_measurable(x, finer)


# ---------------------------------------------------------------------------
# the array kernels at scale, against scipy and np.unique oracles

def _labels(rng, n, k):
    return rng.integers(0, k, n)


@pytest.mark.parametrize("k1, k2", [(2_000, 2_000), (15_000, 9_000), (3, 12_000), (1, 20_000)])
def test_meet_join_match_graph_and_unique_oracles(k1, k2):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    rng = portable_rng(k1 + k2)
    n = 20_000
    a, b = _labels(rng, n, k1), _labels(rng, n, k2)
    p1, p2 = partition_of_labels(a), partition_of_labels(b)
    graph = sparse.coo_matrix((np.ones(n), (a, k1 + b)), shape=(k1 + k2, k1 + k2))
    _, component = csgraph.connected_components(graph, directed=False)
    assert np.array_equal(meet(p1, p2).block_of, canonical_labels(component[a]))
    pairs = np.unique(np.stack([a, b], axis=1), axis=0, return_inverse=True)[1]
    assert np.array_equal(join(p1, p2).block_of, canonical_labels(pairs.ravel()))


def test_completion_matches_unique_oracle():
    rng = portable_rng(41)
    n = 20_000
    labels = _labels(rng, n, 500)
    p = partition_of_labels(labels)
    dead = rng.choice(n, size=3_000, replace=False)
    expected = labels.copy()
    expected[dead] = 500 + np.arange(dead.size)
    assert np.array_equal(completion(p, frozenset(dead.tolist())).block_of,
                          canonical_labels(expected))


def test_meet_of_shuffled_chain_is_fast():
    # block i of p1 holds chain positions 2i, 2i+1 and block i of p2 holds
    # 2i-1, 2i, so the meet is one block reached through a chain of n blocks
    rng = portable_rng(42)
    n = 100_000
    position = rng.permutation(n)
    p1 = partition_of_labels(position // 2)
    p2 = partition_of_labels((position + 1) // 2)
    start = time.perf_counter()
    result = meet(p1, p2)
    elapsed = time.perf_counter() - start
    assert result == Partition.trivial(n)
    assert elapsed < 2.0, f"meet of a {n}-outcome chain took {elapsed:.2f} s"


def test_singleton_and_trivial_partitions_at_scale():
    rng = portable_rng(43)
    n = 10_000
    p = partition_of_labels(_labels(rng, n, 700))
    single, whole = Partition.singletons(n), Partition.trivial(n)
    assert single.k == n and whole.k == 1
    assert single.blocks == tuple((i,) for i in range(n))
    assert meet(p, single) == p and join(p, single) == single
    assert meet(p, whole) == whole and join(p, whole) == p
    assert single.refines(p) and p.refines(whole) and not whole.refines(p)
    assert is_measurable(np.full(n, 3.0), whole)
    assert not is_measurable(np.arange(n, dtype=float), whole)
    assert is_measurable(np.arange(n, dtype=float), single)


def test_all_null_completions_are_singletons():
    everything = range(6)
    for p in (Partition.trivial(6), Partition.singletons(6), Partition([[0, 5], [1, 2, 3, 4]])):
        assert completion(p, everything) == Partition.singletons(6)
        assert completion(p, list(everything) * 2) == Partition.singletons(6)


def test_completion_rejects_out_of_range_nulls():
    with pytest.raises(StructuralError):
        completion(Partition.trivial(3), {3})
    with pytest.raises(StructuralError):
        completion(Partition.trivial(3), {-1})


def test_completion_rejects_non_integer_nulls():
    p = Partition([[0, 1], [2, 3]])
    for nulls in ([1.5], [True], ["1"], [float("inf")], [[1]]):
        with pytest.raises(StructuralError, match="not an integer"):
            completion(p, nulls)
    assert completion(p, [1.0]) == completion(p, {1}) == Partition([[0], [1], [2, 3]])
    assert completion(p, np.array([2])) == Partition([[0, 1], [2], [3]])


@pytest.mark.parametrize("k", [1, 256, 257, 70_000])
def test_blocks_match_a_per_block_oracle_across_label_dtypes(k):
    # k = 256 and 257 straddle the uint8/uint16 label sort, 70,000 the uint16/uint32 one
    rng = portable_rng(45)
    labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, k + 5)]))
    p = partition_of_labels(labels)
    groups = {}
    for i, label in enumerate(p.block_of.tolist()):
        groups.setdefault(label, []).append(i)
    assert p.k == k
    assert p.blocks == tuple(tuple(groups[j]) for j in range(k))


def test_size_arguments_follow_the_count_rule():
    makers = (Partition.singletons, Partition.trivial, MeasureFamily.uniform,
              OutcomeSpace.indexed)
    for make in makers:
        for bad in (0, -1, 2.5, True, "3", None):
            with pytest.raises(StructuralError, match="n must be an integer >= 1"):
                make(bad)
        assert make(np.int64(3)).n == 3


def test_refines_against_block_oracle():
    rng = portable_rng(44)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        p, q = random_partition(rng, n), random_partition(rng, n)
        expected = all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)
        assert p.refines(q) == expected
