"""Symbolic set algebra over reflection orbits, and its finite truncations.

The ambient space is the set of plane points with |x1| = |x2| > 0.  Each
radius carries one four-point orbit (the sign choices), one probability
measure putting mass 1/4 on each orbit point, and two generator families:
a family-1 atom fixes the sign of the first coordinate at one radius, a
family-2 atom the sign of the second.  A radius is a positive exact
rational (anything ``Fraction`` refuses is a bad radius); a sign (+1, -1)
or a family (1, 2) is one of two exact integers.  Bools are refused.

Finite Boolean expressions over these atoms can only mention finitely
many radii, so no such expression can equal the diagonal x1 = x2:
``refute_diagonal`` turns that cardinality argument into an algorithm
that produces a checked witness point for any candidate expression.

Truncating to a finite radius set gives an ordinary finite space on which
the two generator partitions are provably sufficient (the explicit
averaging construction is verified exactly), while their join separates
points and is therefore sufficient as well -- which is precisely why the
failure of the union field cannot be seen on any finite truncation and
lives in the refuter instead.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .space import (MeasureFamily, OutcomeSpace, Partition, StructuralError, as_vector,
                    is_measurable, join)
from .sufficiency import SuiteReport, _BlockTable, check_sufficient

SIGNS, FAMILIES = (-1, 1), (1, 2)
SIGN_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))    # the order of an orbit's four points


def _as_radius(value) -> Fraction:
    if type(value) is not Fraction:    # the hot path: an exact radius is kept as it is
        if isinstance(value, bool):
            raise StructuralError(f"bad radius {value!r}: a bool is not a number here")
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise StructuralError(f"bad radius {value!r}: {exc}") from exc
    if value.numerator <= 0:    # a Fraction's denominator is positive
        raise StructuralError(f"radius must be positive, got {value}")
    return value


def _as_choice(value, choices: tuple[int, int]) -> int:
    """A sign or a family: one of two exact integers (no bool, no 1.0), as an int."""
    if value not in choices or type(value) is not int and (    # exact ints skip the ABC test
            isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        rule = "sign must be +1 or -1" if choices == SIGNS else "family must be 1 or 2"
        raise StructuralError(f"{rule}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ReflectionPoint:
    """The point (s1*r, s2*r); radii are exact rationals."""

    radius: Fraction
    s1: int
    s2: int

    def __post_init__(self):
        object.__setattr__(self, "radius", _as_radius(self.radius))
        object.__setattr__(self, "s1", _as_choice(self.s1, SIGNS))
        object.__setattr__(self, "s2", _as_choice(self.s2, SIGNS))

    def coordinates(self) -> tuple[Fraction, Fraction]:
        return (self.s1 * self.radius, self.s2 * self.radius)

    def reflect(self, family: int) -> "ReflectionPoint":
        """Family 1 negates the second coordinate, family 2 the first."""
        if _as_choice(family, FAMILIES) == 1:
            return ReflectionPoint(self.radius, self.s1, -self.s2)
        return ReflectionPoint(self.radius, -self.s1, self.s2)

    def __str__(self) -> str:
        # the radius is positive, so -r prints as '-' then str(r)
        r = str(self.radius)
        return f"({'-' if self.s1 < 0 else ''}{r},{'-' if self.s2 < 0 else ''}{r})"


def in_diagonal(pt: ReflectionPoint) -> bool:
    """Membership in the diagonal x1 = x2."""
    return pt.s1 == pt.s2


def orbit(radius) -> tuple[ReflectionPoint, ...]:
    """The four sign reflections at one radius, in canonical order."""
    r = _as_radius(radius)
    return tuple(ReflectionPoint(r, s1, s2) for s1, s2 in SIGN_ORDER)


class SymbolicSet:
    """A finitely described set: Boolean tree over generator atoms.

    Membership of any point is decidable by tree evaluation, and at any
    radius not mentioned in a leaf the answer is constant across the whole
    four-point orbit -- the structural fact the refuter exploits.
    """

    def contains(self, pt: ReflectionPoint) -> bool:
        raise NotImplementedError

    @property
    def mentioned_radii(self) -> frozenset[Fraction]:
        raise NotImplementedError


@dataclass(frozen=True)
class GeneratorAtom(SymbolicSet):
    """Two-point set at one radius: the orbit pair with one sign fixed.

    Family 1 fixes the first coordinate's sign (the pair swapped by the
    family-1 reflection); family 2 fixes the second coordinate's sign.
    """

    family: int
    radius: Fraction
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "family", _as_choice(self.family, FAMILIES))
        object.__setattr__(self, "radius", _as_radius(self.radius))
        object.__setattr__(self, "sign", _as_choice(self.sign, SIGNS))

    def contains(self, pt: ReflectionPoint) -> bool:
        if pt.radius != self.radius:
            return False
        fixed = pt.s1 if self.family == 1 else pt.s2
        return fixed == self.sign

    @property
    def mentioned_radii(self) -> frozenset[Fraction]:
        return frozenset((self.radius,))


@dataclass(frozen=True)
class _SetCombination(SymbolicSet):
    """A union or intersection of ``parts`` (equality compares the class too)."""

    parts: tuple[SymbolicSet, ...]

    @property
    def mentioned_radii(self) -> frozenset[Fraction]:
        return frozenset().union(*(p.mentioned_radii for p in self.parts))


class SetUnion(_SetCombination):
    def contains(self, pt: ReflectionPoint) -> bool:
        return any(p.contains(pt) for p in self.parts)


class SetIntersection(_SetCombination):
    def contains(self, pt: ReflectionPoint) -> bool:
        return all(p.contains(pt) for p in self.parts)


@dataclass(frozen=True)
class SetComplement(SymbolicSet):
    inner: SymbolicSet

    def contains(self, pt: ReflectionPoint) -> bool:
        return not self.inner.contains(pt)

    @property
    def mentioned_radii(self) -> frozenset[Fraction]:
        return self.inner.mentioned_radii


def union_of(*parts: SymbolicSet) -> SymbolicSet:
    """Union; with no arguments, the empty set."""
    return SetUnion(tuple(parts))


def intersection_of(*parts: SymbolicSet) -> SymbolicSet:
    if not parts:
        raise StructuralError("intersection needs at least one operand")
    return SetIntersection(tuple(parts))


def complement(s: SymbolicSet) -> SymbolicSet:
    return SetComplement(s)


EMPTY = union_of()
EVERYTHING = complement(EMPTY)


def membership(s: SymbolicSet, pt: ReflectionPoint) -> bool:
    return s.contains(pt)


def refute_diagonal(s: SymbolicSet) -> ReflectionPoint:
    """Produce a checked point on which ``s`` disagrees with the diagonal.

    At a fresh radius (one past the largest mentioned, for determinism)
    the expression is constant on the orbit: if it contains the orbit it
    also contains an off-diagonal point, and if it misses the orbit it
    misses a diagonal point.  Either way the diagonal cannot equal ``s``.
    """
    mentioned = s.mentioned_radii
    fresh = max(mentioned) + 1 if mentioned else Fraction(1)
    values = [s.contains(pt) for pt in orbit(fresh)]
    if len(set(values)) != 1:
        raise RuntimeError(
            f"defect: expression is not constant on the orbit at radius {fresh}"
        )
    if values[0]:
        witness = ReflectionPoint(fresh, 1, -1)   # in s, off the diagonal
    else:
        witness = ReflectionPoint(fresh, 1, 1)    # on the diagonal, not in s
    if s.contains(witness) == in_diagonal(witness):
        raise RuntimeError("defect: witness fails to separate the candidate")
    return witness


# ---------------------------------------------------------------------------
# Finite truncations

@dataclass(frozen=True)
class Truncation:
    """The finite space carried by a finite set of radii.

    Four outcomes per radius (sign order ++, +-, -+, --), one measure per
    radius putting 1/4 on its own orbit, the two fixed-sign partitions,
    and the join-plus-diagonal field (always the singleton partition,
    recorded for completeness of the construction).
    """

    space: OutcomeSpace
    family: MeasureFamily
    p1: Partition
    p2: Partition
    diagonal_field: Partition
    points: tuple[ReflectionPoint, ...]
    diagonal_indices: frozenset[int]

    @property
    def n(self) -> int:
        return self.space.n

    def reflection_permutation(self, family: int) -> np.ndarray:
        """Index permutation of the reflection map on the truncated outcomes:
        outcome j is 4 * (radius rank) + its ``SIGN_ORDER`` position, and the
        family-i reflection flips bit i - 1 of that position, so j maps to j ^ i."""
        return np.arange(self.n) ^ _as_choice(family, FAMILIES)


def finite_truncation(radii: Iterable) -> Truncation:
    """Build the finite space over the given distinct radii."""
    converted = [_as_radius(r) for r in radii]
    if not converted:
        raise StructuralError("need at least one radius")
    if len(set(converted)) != len(converted):
        dup = next(r for r in converted if converted.count(r) > 1)
        raise StructuralError(f"duplicate radius {dup}")
    order = sorted(converted)
    points = tuple(ReflectionPoint(r, s1, s2) for r in order for s1, s2 in SIGN_ORDER)
    outcome = np.arange(len(points))
    p1 = Partition._from_labels(outcome // 2)                    # first sign fixed
    p2 = Partition._from_labels(outcome // 4 * 2 + outcome % 2)  # second sign fixed
    on_diagonal = np.array([in_diagonal(pt) for pt in points])
    diag = frozenset(np.flatnonzero(on_diagonal).tolist())
    return Truncation(
        space=OutcomeSpace(str(pt) for pt in points),
        family=MeasureFamily(np.kron(np.eye(len(order)), np.full(4, 0.25))),
        p1=p1,
        p2=p2,
        diagonal_field=join(join(p1, p2), Partition._from_labels(on_diagonal.astype(np.intp))),
        points=points,
        diagonal_indices=diag,
    )


def verify_g_construction(radii: Iterable, f) -> SuiteReport:
    """Check the explicit averaging construction that makes each generator
    partition sufficient on a truncation.

    For family i, g = (f + f o reflection_i) / 2 must be constant on the
    partition's blocks and integrate like f against every measure on every
    block; the sufficiency checker must agree with the construction.  One
    block table per partition serves both the integrals and the checker.
    """
    t = finite_truncation(radii)
    v = as_vector(f, t.n)
    details: dict = {}
    passed = True
    for fam, p in ((1, t.p1), (2, t.p2)):
        table = _BlockTable(t.family, p)
        g = 0.5 * (v + v[t.reflection_permutation(fam)])
        worst = float(np.max(np.abs(table._sums(t.family.weights * (g - v)))))
        constant = is_measurable(g, p)
        agrees = table.certify().sufficient
        details[f"family{fam}_max_violation"] = worst
        details[f"family{fam}_g_measurable"] = constant
        details[f"family{fam}_checker_agrees"] = agrees
        passed = passed and worst <= 1e-12 and constant and agrees
    return SuiteReport("averaging construction", hypothesis_met=True,
                       passed=passed, details=details)


def truncation_join_is_sufficient(radii: Iterable) -> SuiteReport:
    """Confirm that on a finite truncation the join of the two generator
    partitions separates points and is therefore sufficient.

    This is a negative-space check: the join field fails to be sufficient
    only over an uncountable radius set, where it cannot separate the
    diagonal; no finite truncation can exhibit that failure, so the
    symbolic refuter carries that content instead.
    """
    t = finite_truncation(radii)
    joined = join(t.p1, t.p2)
    separates = joined == Partition.singletons(t.n)
    cert = check_sufficient(t.family, joined)
    return SuiteReport(
        "truncated join sufficiency",
        hypothesis_met=True,
        passed=separates and cert.sufficient,
        details={
            "join_block_count": joined.k,
            "join_separates_points": separates,
            "join_sufficient": cert.sufficient,
            "note": (
                "finite truncations cannot reproduce the union-field failure: "
                "the join always separates points here, and a point-separating "
                "partition is sufficient for any family; the failure needs "
                "uncountably many radii and is carried by refute_diagonal"
            ),
        },
        conclusion=joined,
    )


# ---------------------------------------------------------------------------
# Prefix grammar for expressions:  (u e1 e2) | (i e1 e2) | (c e) | (a FAM RAD SIGN)

def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_set_expression(text: str) -> SymbolicSet:
    """Parse the prefix grammar for symbolic sets.

    Forms: ``(u e1 e2)`` union, ``(i e1 e2)`` intersection, ``(c e)``
    complement, ``(a FAMILY RADIUS SIGN)`` atom with FAMILY in {1,2},
    RADIUS a positive rational like ``3/2``, SIGN ``+`` or ``-``.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise StructuralError("empty expression")
    expr, rest = _parse(tokens)
    if rest:
        raise StructuralError(f"trailing tokens after expression: {' '.join(rest)}")
    return expr


def _parse(tokens: list[str]) -> tuple[SymbolicSet, list[str]]:
    if not tokens:
        raise StructuralError("unexpected end of expression")
    if tokens[0] != "(":
        raise StructuralError(f"expected '(', got {tokens[0]!r}")
    if len(tokens) < 2:
        raise StructuralError("unexpected end of expression after '('")
    head, rest = tokens[1], tokens[2:]
    if head in ("u", "i"):
        left, rest = _parse(rest)
        right, rest = _parse(rest)
        node = union_of(left, right) if head == "u" else intersection_of(left, right)
    elif head == "c":
        inner, rest = _parse(rest)
        node = complement(inner)
    elif head == "a":
        if len(rest) < 3:
            raise StructuralError("atom needs FAMILY RADIUS SIGN")
        fam_tok, rad_tok, sign_tok, rest = rest[0], rest[1], rest[2], rest[3:]
        if fam_tok not in ("1", "2"):
            raise StructuralError(f"atom family must be 1 or 2, got {fam_tok!r}")
        if sign_tok not in ("+", "-"):
            raise StructuralError(f"atom sign must be '+' or '-', got {sign_tok!r}")
        node = GeneratorAtom(int(fam_tok), rad_tok, 1 if sign_tok == "+" else -1)
    else:
        raise StructuralError(f"unknown operator {head!r}")
    if not rest or rest[0] != ")":
        raise StructuralError(f"expected ')' to close {head!r}")
    return node, rest[1:]


def format_set_expression(s: SymbolicSet) -> str:
    """Inverse of :func:`parse_set_expression` for sets it can express."""
    if isinstance(s, GeneratorAtom):
        sign = "+" if s.sign == 1 else "-"
        return f"(a {s.family} {s.radius} {sign})"
    if isinstance(s, SetUnion) and len(s.parts) == 2:
        return f"(u {format_set_expression(s.parts[0])} {format_set_expression(s.parts[1])})"
    if isinstance(s, SetIntersection) and len(s.parts) == 2:
        return f"(i {format_set_expression(s.parts[0])} {format_set_expression(s.parts[1])})"
    if isinstance(s, SetComplement):
        return f"(c {format_set_expression(s.inner)})"
    raise StructuralError(f"expression has no grammar form: {s!r}")
