"""Reflection orbits, symbolic sets, the diagonal refuter, truncations."""

from fractions import Fraction

import numpy as np
import pytest

from condexp import (
    EMPTY,
    EVERYTHING,
    GeneratorAtom,
    Partition,
    ReflectionPoint,
    StructuralError,
    check_sufficient,
    complement,
    finite_truncation,
    format_set_expression,
    in_diagonal,
    intersection_of,
    is_measurable,
    join,
    meet,
    membership,
    parse_set_expression,
    refute_diagonal,
    truncation_join_is_sufficient,
    union_of,
    verify_g_construction,
)
from condexp.counterexample import orbit
from condexp.rng import portable_rng


def random_expression(rng, depth: int, max_atoms: int = 8):
    """Random tree of the given depth budget with a bounded atom count."""
    atoms_left = [max_atoms]

    def atom():
        atoms_left[0] -= 1
        return GeneratorAtom(
            family=int(rng.integers(1, 3)),
            radius=Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4))),
            sign=1 if rng.integers(0, 2) else -1,
        )

    def build(budget):
        if budget == 0 or atoms_left[0] <= 1:
            return atom()
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return union_of(build(budget - 1), build(budget - 1))
        if kind == 1:
            return intersection_of(build(budget - 1), build(budget - 1))
        return complement(build(budget - 1))

    return build(depth)


# ---------------------------------------------------------------------------
# points and reflections

def test_reflections_are_commuting_involutions():
    rng = portable_rng(41)
    for _ in range(50):
        pt = ReflectionPoint(Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 7))),
                             1 if rng.integers(0, 2) else -1,
                             1 if rng.integers(0, 2) else -1)
        assert pt.reflect(1).reflect(1) == pt
        assert pt.reflect(2).reflect(2) == pt
        assert pt.reflect(1).reflect(2) == pt.reflect(2).reflect(1)


def test_point_validation():
    with pytest.raises(StructuralError):
        ReflectionPoint(Fraction(0), 1, 1)
    with pytest.raises(StructuralError):
        ReflectionPoint(Fraction(1), 2, 1)


def test_exact_radii_are_kept_and_nonpositive_ones_refused():
    for bad in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(StructuralError, match="radius must be positive"):
            ReflectionPoint(bad, 1, 1)
        with pytest.raises(StructuralError, match="radius must be positive"):
            orbit(bad)
        with pytest.raises(StructuralError, match="radius must be positive"):
            finite_truncation([Fraction(1), bad])
    r = Fraction(3, 2)
    assert ReflectionPoint(r, 1, 1).radius is r
    assert all(pt.radius is r for pt in orbit(r))
    assert ReflectionPoint(0.5, 1, 1).radius == Fraction(1, 2)


def test_signs_are_integers_plus_or_minus_one_never_truncated():
    for bad in (1.5, -1.5, 0.5, True, False, "1", Fraction(1), None):
        with pytest.raises(StructuralError, match="sign must be"):
            ReflectionPoint(Fraction(1), bad, 1)
        with pytest.raises(StructuralError, match="sign must be"):
            ReflectionPoint(Fraction(1), 1, bad)
        with pytest.raises(StructuralError, match="sign must be"):
            GeneratorAtom(1, Fraction(1), bad)
    pt = ReflectionPoint(Fraction(1), np.int64(-1), 1)
    assert pt == ReflectionPoint(Fraction(1), -1, 1) and type(pt.s1) is int


def test_families_are_integers_one_or_two_never_truncated():
    t = finite_truncation([1])
    for bad in (True, 1.0, 2.0, 0, 3, "1", None):
        with pytest.raises(StructuralError, match="family must be 1 or 2"):
            GeneratorAtom(bad, Fraction(1), 1)
        with pytest.raises(StructuralError, match="family must be 1 or 2"):
            ReflectionPoint(Fraction(1), 1, 1).reflect(bad)
        with pytest.raises(StructuralError, match="family must be 1 or 2"):
            t.reflection_permutation(bad)
    atom = GeneratorAtom(np.int64(2), "3/2", -1)
    assert type(atom.family) is int and atom.radius == Fraction(3, 2)
    assert format_set_expression(atom) == "(a 2 3/2 -)"
    assert parse_set_expression(format_set_expression(atom)) == atom


def test_radii_refuse_bools_and_what_fraction_refuses():
    for bad in (True, False, "abc", "1/0", "0x10", float("inf"), float("nan"), None, 1j):
        with pytest.raises(StructuralError, match="bad radius"):
            ReflectionPoint(bad, 1, 1)
        with pytest.raises(StructuralError, match="bad radius"):
            orbit(bad)
        with pytest.raises(StructuralError, match="bad radius"):
            finite_truncation([Fraction(1), bad])


def test_point_labels_are_the_signed_coordinates():
    assert str(ReflectionPoint(Fraction(3), 1, -1)) == "(3,-3)"
    assert str(ReflectionPoint(Fraction(3, 2), -1, 1)) == "(-3/2,3/2)"
    assert str(ReflectionPoint(Fraction(7, 4), -1, -1)) == "(-7/4,-7/4)"
    assert str(ReflectionPoint(Fraction(1, 3), 1, 1)) == "(1/3,1/3)"
    for pt in (ReflectionPoint(Fraction(5, 6), s1, s2) for s1 in (1, -1) for s2 in (1, -1)):
        x1, x2 = pt.coordinates()
        assert str(pt) == f"({x1},{x2})"


def test_diagonal_predicate():
    assert in_diagonal(ReflectionPoint(Fraction(3), 1, 1))
    assert in_diagonal(ReflectionPoint(Fraction(3), -1, -1))
    assert not in_diagonal(ReflectionPoint(Fraction(3), 1, -1))


# ---------------------------------------------------------------------------
# atoms and membership

def test_atom_membership_examples():
    a = GeneratorAtom(1, Fraction(1), 1)
    assert membership(a, ReflectionPoint(Fraction(1), 1, -1))
    assert not membership(a, ReflectionPoint(Fraction(1), -1, 1))
    assert membership(complement(a), ReflectionPoint(Fraction(2), 1, 1))


def test_atom_has_two_points_per_orbit_and_sign_complement():
    for fam in (1, 2):
        a = GeneratorAtom(fam, Fraction(1), 1)
        b = GeneratorAtom(fam, Fraction(1), -1)
        inside_a = [pt for pt in orbit(1) if a.contains(pt)]
        inside_b = [pt for pt in orbit(1) if b.contains(pt)]
        assert len(inside_a) == 2 and len(inside_b) == 2
        assert set(inside_a) | set(inside_b) == set(orbit(1))
        assert not set(inside_a) & set(inside_b)


def test_membership_constant_on_unmentioned_orbits():
    rng = portable_rng(42)
    for _ in range(200):
        expr = random_expression(rng, depth=int(rng.integers(0, 7)))
        fresh = max(expr.mentioned_radii, default=Fraction(0)) + Fraction(7, 2)
        values = {expr.contains(pt) for pt in orbit(fresh)}
        assert len(values) == 1


# ---------------------------------------------------------------------------
# the refuter

def test_refuter_single_atom():
    witness = refute_diagonal(GeneratorAtom(1, Fraction(1), 1))
    assert witness == ReflectionPoint(Fraction(2), 1, 1)
    assert in_diagonal(witness)


def test_refuter_everything():
    witness = refute_diagonal(EVERYTHING)
    assert witness == ReflectionPoint(Fraction(1), 1, -1)
    assert not in_diagonal(witness)


def test_refuter_empty_set():
    witness = refute_diagonal(EMPTY)
    assert witness == ReflectionPoint(Fraction(1), 1, 1)


def test_refuter_union_of_atoms():
    s = union_of(GeneratorAtom(1, Fraction(1), 1), GeneratorAtom(2, Fraction(1), 1))
    witness = refute_diagonal(s)
    assert witness.radius == Fraction(2)
    assert membership(s, witness) != in_diagonal(witness)


def test_refuter_on_random_trees():
    rng = portable_rng(43)
    for _ in range(300):
        expr = random_expression(rng, depth=int(rng.integers(0, 7)))
        witness = refute_diagonal(expr)
        assert membership(expr, witness) != in_diagonal(witness)


# ---------------------------------------------------------------------------
# truncations

def test_truncation_single_radius():
    t = finite_truncation([1])
    assert t.n == 4
    assert np.array_equal(t.family.weights, [[0.25, 0.25, 0.25, 0.25]])
    assert t.p1 == Partition([[0, 1], [2, 3]])
    assert t.p2 == Partition([[0, 2], [1, 3]])
    assert t.space.labels == ("(1,1)", "(1,-1)", "(-1,1)", "(-1,-1)")


def test_truncation_two_radii():
    t = finite_truncation([2, 1])          # order does not matter
    assert t.n == 8
    assert t.family.m == 2
    # each measure charges exactly its own orbit
    for row in t.family.weights:
        assert sorted(row) == [0.0] * 4 + [0.25] * 4
    assert join(t.p1, t.p2) == Partition.singletons(8)


def test_truncation_rejects_duplicates_and_bad_radii():
    with pytest.raises(StructuralError, match="duplicate"):
        finite_truncation([1, 1])
    with pytest.raises(StructuralError):
        finite_truncation(["-2"])
    with pytest.raises(StructuralError):
        finite_truncation([])


def test_truncation_partitions_sufficient_and_meet_is_orbit():
    for radii in ([1], [1, 2], ["1/2", 3, "5/2"]):
        t = finite_truncation(radii)
        assert check_sufficient(t.family, t.p1).sufficient
        assert check_sufficient(t.family, t.p2).sufficient
        orbits = Partition([range(4 * k, 4 * k + 4) for k in range(t.n // 4)])
        assert meet(t.p1, t.p2) == orbits


def test_truncation_diagonal_field_separates_everything():
    t = finite_truncation([1, 2])
    assert t.diagonal_field == Partition.singletons(8)
    assert t.diagonal_indices == {0, 3, 4, 7}


# ---------------------------------------------------------------------------
# the explicit averaging construction

def test_g_construction_constant_f():
    report = verify_g_construction([1, 2], np.full(8, 4.0))
    assert report.passed
    assert report.details["family1_max_violation"] == 0.0


def test_g_construction_diagonal_indicator():
    t = finite_truncation([1, 2])
    f = np.zeros(8)
    f[list(t.diagonal_indices)] = 1.0
    report = verify_g_construction([1, 2], f)
    assert report.passed
    # each fixed-sign pair holds exactly one diagonal point, so the averaged
    # version is 1/2 everywhere
    perm = t.reflection_permutation(1)
    assert np.array_equal(0.5 * (f + f[perm]), np.full(8, 0.5))


def test_g_construction_random_f():
    rng = portable_rng(44)
    for _ in range(20):
        f = rng.uniform(-5, 5, 12)
        report = verify_g_construction([1, 2, 3], f)
        assert report.passed
        assert report.details["family1_max_violation"] <= 1e-12
        assert report.details["family2_max_violation"] <= 1e-12


def test_reflection_permutation_matches_reflecting_each_point():
    rng = portable_rng(46)
    many = sorted({Fraction(int(a), int(b)) for a, b in rng.integers(1, 50, (80, 2))})[:36]
    assert len(many) == 36
    for radii in ([1], [2, 1], ["1/2", 3, "5/2"], many):
        t = finite_truncation(radii)
        index = {pt: i for i, pt in enumerate(t.points)}
        for family in (1, 2):
            expected = [index[pt.reflect(family)] for pt in t.points]
            assert t.reflection_permutation(family).tolist() == expected
    with pytest.raises(StructuralError):
        finite_truncation([1]).reflection_permutation(3)


def g_construction_by_rows(radii, f) -> dict:
    """The averaging construction's details from points reflected one by one,
    one bincount per measure row and a fresh sufficiency check per partition."""
    t = finite_truncation(radii)
    index = {pt: i for i, pt in enumerate(t.points)}
    details = {}
    for fam, p in ((1, t.p1), (2, t.p2)):
        g = 0.5 * (f + f[[index[pt.reflect(fam)] for pt in t.points]])
        details[f"family{fam}_max_violation"] = max(
            float(np.max(np.abs(np.bincount(p.block_of, weights=row * (g - f)))))
            for row in t.family.weights)
        details[f"family{fam}_g_measurable"] = is_measurable(g, p)
        details[f"family{fam}_checker_agrees"] = check_sufficient(t.family, p).sufficient
    return details


def test_g_construction_details_match_the_per_row_loop_bit_for_bit():
    rng = portable_rng(47)
    for radii in ([1], [1, 2, 3], ["1/2", 3, "5/2", 7]):
        n = 4 * len(radii)
        for f in (rng.uniform(-5, 5, n), rng.normal(0, 1e6, n), rng.integers(-3, 4, n)):
            details = verify_g_construction(radii, f).details
            expected = g_construction_by_rows(radii, np.asarray(f, dtype=float))
            assert details == expected
            assert [type(v) for v in details.values()] == [type(v) for v in expected.values()]


def test_join_suite_states_finite_limitation():
    for radii in ([1], [1, 2, 3]):
        report = truncation_join_is_sufficient(radii)
        assert report.passed
        assert report.details["join_block_count"] == 4 * len(radii)
        assert "finite truncations cannot reproduce" in report.details["note"]
        assert "refute_diagonal" in report.details["note"]


# ---------------------------------------------------------------------------
# expression grammar

def test_parse_atom_and_round_trip():
    text = "(u (a 1 1 +) (c (a 2 3/2 -)))"
    expr = parse_set_expression(text)
    assert format_set_expression(expr) == text
    assert expr.mentioned_radii == {Fraction(1), Fraction(3, 2)}


def test_parse_errors():
    for bad in ("", "(a 3 1 +)", "(a 1 0 +)", "(a 1 1 *)", "(u (a 1 1 +))",
                "(x 1)", "(a 1 1 +) junk", "(c (a 1 1 +)"):
        with pytest.raises(StructuralError):
            parse_set_expression(bad)


def test_random_trees_round_trip_through_grammar():
    rng = portable_rng(45)
    for _ in range(100):
        expr = random_expression(rng, depth=int(rng.integers(0, 5)))
        again = parse_set_expression(format_set_expression(expr))
        for r in list(expr.mentioned_radii) + [Fraction(99)]:
            for pt in orbit(r):
                assert expr.contains(pt) == again.contains(pt)
