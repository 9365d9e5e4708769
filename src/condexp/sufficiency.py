"""Sufficiency of a partition for a finite family of measures.

A partition is sufficient when one block-measurable function can serve as
the conditional expectation of any test function simultaneously under
every measure of the family.  On a finite space this is equivalent to a
purely distributional criterion: within every block, all measures that
charge the block must agree on the normalized weight profile.  The
equivalence is exercised by the test suite, not assumed here.

The suite runners replay the constructive argument behind the
intersection theorems: alternating conditional expectations, computed
once as a shared version and once per measure, must coincide wherever
each measure can see.  Every check and every suite round runs on one
table per (family, partition) pair: the m-row view of the block-average
table whose one-row view is ``CondExpOperator``.  It computes the block
masses once, serves a test function and averages all m rows of an m x n
stack in one pass.  A suite builds its tables once; a round compares
block values, on which both versions are constant, and each per-measure
row is the operator's own output by construction: one kernel runs both.
One routine takes each measure's block means, for serving f and for a
round alike; every sup over charged outcomes is one masked reduce, and
the family's support is one cached mask.  Every tolerance and the
suites' stop threshold scale with max|f|, so no verdict changes when f
is scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .operators import _BlockAverages, _masked_sup
from .space import (
    MeasureFamily,
    Partition,
    StructuralError,
    _count,
    _fields_equal,
    as_vector,
    completion,
    meet,
)

# Conditional weight profiles lie in [0, 1], so check_sufficient takes
# AGREEMENT_ATOL as it is; wherever a test function f is compared, both
# tolerances scale with max|f| over the outcomes some measure charges.
AGREEMENT_ATOL = 1e-10
TRAJECTORY_TOL = 1e-9


@dataclass(frozen=True)
class Witness:
    """A reproducible violation: two measures disagreeing on one block."""

    gamma: int
    gamma_prime: int
    block_index: int
    description: str
    violation: float


@dataclass(frozen=True)
class SufficiencyCertificate:
    """Outcome of a sufficiency check.

    When sufficient, ``block_conditionals`` holds the shared within-block
    weight profile for every block charged by at least one measure (None
    for blocks charged by none), and ``conditional_mean`` materializes the
    serving function for any test vector.  When not sufficient, ``witness``
    pins down a block and a pair of measures that disagree.
    """

    sufficient: bool
    partition: Partition
    g: np.ndarray | None = None
    witness: Witness | None = None
    # the shared profiles as one outcome-indexed vector, 0 on uncharged blocks
    _profile: np.ndarray | None = field(default=None, repr=False)

    __eq__ = _fields_equal

    @cached_property
    def block_conditionals(self) -> tuple[np.ndarray | None, ...] | None:
        if self._profile is None:
            return None
        pieces = (self._profile[list(b)] for b in self.partition.blocks)
        return tuple(c if c.any() else None for c in pieces)

    def conditional_mean(self, f) -> np.ndarray:
        if self._profile is None:
            raise StructuralError("no shared conditionals: certificate is negative")
        p = self.partition
        v = as_vector(f, p.n)
        return np.bincount(p.block_of, weights=self._profile * v, minlength=p.k)[p.block_of]


class _BlockTable(_BlockAverages):
    """The family's m-row block-average table on one partition.

    On top of the shared table (block masses, normalized weights, stacked
    averages) it holds ``charged``, where the m x k mass is positive,
    ``ref``, the first measure charging each block (0 where none does), and
    ``_ref_bins``, the flat bin of each block's reference mean.  Vectors
    handed to the methods are already validated float arrays of length n.
    """

    def __init__(self, family: MeasureFamily, p: Partition):
        if family.n != p.n:
            raise StructuralError(f"family is over {family.n} outcomes but partition covers {p.n}")
        super().__init__(p, family.weights)
        self.family = family
        self.charged = self.mass > 0
        self.ref = np.argmax(self.charged, axis=0)
        self._ref_bins = self.ref * p.k + np.arange(p.k)

    def f_scale(self, v: np.ndarray) -> float:
        """Largest |v| over the outcomes some measure charges."""
        return _masked_sup(self.family._charged, v)

    def certify(self) -> SufficiencyCertificate:
        """The distributional criterion (``check_sufficient``); a witness only on failure."""
        cond, p = self.normalized, self.partition
        lab, ref, n = p.block_of, self.ref, p.n
        profile = cond.ravel().take(ref.take(lab) * n + np.arange(n))  # 0 where none charges
        seen, dev = self.charged.take(lab, axis=1), cond - profile
        if _masked_sup(seen, dev) > AGREEMENT_ATOL:
            gammas, outcomes = np.nonzero(seen & (np.abs(dev) > AGREEMENT_ATOL))
            first = np.argmin(lab[outcomes] * self.family.m + gammas)
            b, gamma = int(lab[outcomes[first]]), int(gammas[first])
            idx = np.flatnonzero(lab == b)
            worst = int(idx[np.argmax(np.abs(dev[gamma, idx]))])    # gamma charges all of b
            witness = Witness(int(ref[b]), gamma, b, f"indicator of outcome {worst} conditioned "
                              f"on block {b} {tuple(idx.tolist())}", abs(float(dev[gamma, worst])))
            return SufficiencyCertificate(False, p, witness=witness)
        return SufficiencyCertificate(True, p, _profile=profile)

    def _block_means(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The m x k means of ``v`` where ``charged`` holds (the sum 0 elsewhere),
        and per block the reference measure's mean.  Only charged sums are
        divided, so a block no measure charges gets the value 0."""
        means = self._sums(self.weights * v)
        np.divide(means, self.mass, out=means, where=self.charged)
        return means, means.ravel().take(self._ref_bins)

    def serve(self, v: np.ndarray) -> SufficiencyCertificate:
        """One block function for ``v`` under every measure, within
        ``AGREEMENT_ATOL`` times max|v| (the body of ``check_sufficient_for_f``)."""
        p = self.partition
        means, values = self._block_means(v)
        spread = np.where(self.charged, np.abs(means - values), 0.0)
        bad = np.flatnonzero(np.any(spread > AGREEMENT_ATOL * self.f_scale(v), axis=0))
        if bad.size:
            b = int(bad[0])
            worst = int(np.argmax(spread[:, b]))
            block = tuple(np.flatnonzero(p.block_of == b).tolist())
            witness = Witness(int(self.ref[b]), worst, b, f"conditional means of f on block "
                              f"{b} {block}", float(spread[worst, b]))
            return SufficiencyCertificate(False, p, witness=witness)
        return SufficiencyCertificate(True, p, g=values[p.block_of])


def check_sufficient(family: MeasureFamily, p: Partition) -> SufficiencyCertificate:
    """Decide sufficiency of ``p`` for the family by the distributional criterion.

    For each block, every measure with positive mass on the block must
    induce the same conditional weight vector there; measures with zero
    mass on a block impose no constraint.  The witness is the first block
    (then the first measure) that deviates from the first measure charging
    the block, by more than ``AGREEMENT_ATOL``.  The decision is total: the
    result is always a certificate, never an exception.
    """
    return _BlockTable(family, p).certify()


def check_sufficient_for_f(family: MeasureFamily, p: Partition, f) -> SufficiencyCertificate:
    """Decide whether one block function can serve ``f`` under every measure.

    Per block there is a single unknown value; it must equal the
    conditional mean of ``f`` for every measure charging the block, within
    ``AGREEMENT_ATOL`` times the largest |f| over charged outcomes (so the verdict
    does not change when f is scaled).  Blocks charged by no measure get
    the value 0.
    """
    return _BlockTable(family, p).serve(as_vector(f, p.n))


def contains_null_field(p: Partition, nulls: Iterable[int]) -> bool:
    """True iff the field of ``p`` already contains every family-null set,
    i.e. completing ``p`` changes nothing."""
    return completion(p, nulls) == p


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one theorem-replay suite.

    ``hypothesis_met`` is False when a stated precondition fails, in which
    case ``passed`` carries no verdict about the theorem itself.
    """

    name: str
    hypothesis_met: bool
    passed: bool
    details: dict = field(default_factory=dict)
    conclusion: Partition | None = None
    g: np.ndarray | None = None
    steps: tuple["SuiteReport", ...] = ()

    __eq__ = _fields_equal

    def summary(self) -> str:
        status = ("hypothesis not met" if not self.hypothesis_met
                  else "pass" if self.passed else "FAIL")
        lines = [f"{self.name}: {status}"]
        for key, value in self.details.items():
            lines.append(f"  {key} = {value}")
        for step in self.steps:
            lines.extend("  " + line for line in step.summary().splitlines())
        return "\n".join(lines)


def _unmet(name: str, steps: tuple = (), **details) -> SuiteReport:
    """The report of a suite whose hypothesis is not met."""
    return SuiteReport(name, hypothesis_met=False, passed=False, details=details, steps=steps)


def _default_f(n: int) -> np.ndarray:
    # generic test vector: separates all outcomes, no symmetry
    return np.arange(1.0, n + 1.0)


def intersection_sufficiency_suite(family: MeasureFamily, p1: Partition,
                                   p2: Partition, f=None,
                                   max_rounds: int = 10_000) -> SuiteReport:
    """Replay the pairwise intersection theorem on concrete inputs.

    Preconditions (reported, not raised): p1 and p2 are each sufficient,
    and at least one of them already contains every family-null set.
    The suite then checks that the lattice meet is sufficient and replays
    the constructive proof: alternating shared conditional expectations
    converge, stay in step with every per-measure trajectory, and land on
    the meet's own conditional mean.  The replay stops once a round moves
    the shared version by at most 1e-14 times max|f| over the outcomes
    some measure charges.
    """
    _count(max_rounds, "max_rounds")
    first, second = _BlockTable(family, p1), _BlockTable(family, p2)
    return _pairwise(first, first.certify(), second, f, max_rounds)[0]


def _pairwise(first: _BlockTable, first_cert: SufficiencyCertificate,
              second: _BlockTable, f, max_rounds: int
              ) -> tuple[SuiteReport, _BlockTable | None, SufficiencyCertificate | None]:
    """The pairwise suite on a first table whose certificate is already
    known; returns the report with the meet's table and certificate (both
    None when a precondition fails)."""
    name = "intersection sufficiency"
    family, p1, p2 = first.family, first.partition, second.partition
    label, cert = "p1", first_cert
    if cert.sufficient:
        label, cert = "p2", second.certify()
    if not cert.sufficient:
        return _unmet(name, failed_precondition=f"{label} is not sufficient",
                      witness=cert.witness.description), None, None
    nulls = np.flatnonzero(~family._charged)
    if not (contains_null_field(p1, nulls) or contains_null_field(p2, nulls)):
        return _unmet(name, failed_precondition="neither partition contains the family's "
                      "null field", null_indices=nulls.tolist()), None, None

    ground = meet(p1, p2)
    at_meet = _BlockTable(family, ground)
    meet_cert = at_meet.certify()

    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    shared = v
    # row gamma: the trajectory of measure gamma's own conditional expectations
    per_gamma = np.broadcast_to(v, (family.m, family.n))
    divergence = 0.0
    bound = scale = at_meet.f_scale(v)
    settle, tol = 1e-14 * scale, TRAJECTORY_TOL * scale
    for rounds in range(1, max_rounds + 1):
        table = (first, second)[(rounds - 1) % 2]
        charged = table.charged
        means, values = table._block_means(shared)
        if _masked_sup(charged, means - values) > AGREEMENT_ATOL * bound:
            return _unmet(name, failed_precondition=f"trajectories split at round {rounds}: "
                          "sufficiency violated"), None, None
        # both trajectories are constant on the table's blocks, and a measure
        # charges an outcome of block b exactly where ``charged`` holds
        means = table._sums(table.normalized * per_gamma)
        per_gamma = means.ravel().take(table._labels)
        divergence = max(divergence, _masked_sup(charged, means - values))
        nxt = values[table.partition.block_of]
        step, shared = _masked_sup(family._charged, nxt - shared), nxt
        # max|shared| over the charged outcomes: the blocks holding none are 0
        bound = float(np.abs(values).max())
        if rounds >= 2 and step <= settle:
            break

    direct = at_meet.serve(v)
    limit_gap = at_meet.f_scale(shared - direct.g) if direct.sufficient else float("inf")
    # shared is constant on the last table's blocks: compare per block, via its meet block
    up = np.empty(table.partition.k, dtype=np.intp)
    up[table.partition.block_of] = ground.block_of
    meet_means = at_meet._sums(at_meet.normalized * shared)[:, up]
    measurable = _masked_sup(table.charged, meet_means - values) <= tol
    passed = meet_cert.sufficient and divergence <= tol and limit_gap <= tol and measurable
    return SuiteReport(name, hypothesis_met=True, passed=passed, details={
        "meet_sufficient": meet_cert.sufficient,
        "trajectory_divergence": divergence,
        "limit_gap": limit_gap,
        "limit_meet_measurable": measurable,
        "rounds": rounds,
    }, conclusion=ground, g=shared), at_meet, meet_cert


def decreasing_chain_suite(family: MeasureFamily, chain: Sequence[Partition],
                           f=None) -> SuiteReport:
    """Replay the decreasing-chain theorem: a finite chain stabilizes and
    its stable element, the intersection, is sufficient and serves f.

    The chain must be genuinely decreasing (each partition coarser than
    the one before); that is a structural error, not a reported failure.
    The meet of such a chain is its last element, so nothing is folded.
    Sufficiency of each element is a reported precondition; f is then
    served once, on the last element.
    """
    chain = list(chain)
    if not chain:
        raise StructuralError("chain must be non-empty")
    for k in range(len(chain) - 1):
        if not chain[k].refines(chain[k + 1]):
            raise StructuralError(
                f"chain is not decreasing between elements {k} and {k + 1}"
                if chain[k + 1].refines(chain[k]) else
                f"chain elements {k} and {k + 1} are incomparable")
    name = "decreasing chain sufficiency"
    for k, p in enumerate(chain):
        last = _BlockTable(family, p)
        cert = last.certify()
        if not cert.sufficient:
            return _unmet(name, failed_precondition=f"chain element {k} is not sufficient",
                          failed_index=k, witness=cert.witness.description)

    stable = chain[-1]
    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    served = last.serve(v)
    return SuiteReport(name, hypothesis_met=True, passed=served.sufficient, details={
        "stabilizes_at": next(k for k, p in enumerate(chain) if p == stable),
        "stable_serves_f": served.sufficient,
    }, conclusion=stable, g=served.g)


def countable_intersection_suite(family: MeasureFamily,
                                 parts: Sequence[Partition], f=None,
                                 max_rounds: int = 10_000) -> SuiteReport:
    """Fold the pairwise intersection suite over running meets.

    On a finite space the running meets stabilize after finitely many
    steps; the final meet must be sufficient, with each pairwise step
    carrying its own full replay report.  Each step hands its meet's
    table and certificate to the next, so no partition is certified twice.
    """
    _count(max_rounds, "max_rounds")
    parts = list(parts)
    if not parts:
        raise StructuralError("need at least one partition")
    name = "countable intersection sufficiency"
    running = _BlockTable(family, parts[0])
    cert = running.certify()
    if not cert.sufficient:
        return _unmet(name, failed_precondition="partition 0 is not sufficient",
                      witness=cert.witness.description)
    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    steps: list[SuiteReport] = []
    for p in parts[1:]:
        step, running, cert = _pairwise(running, cert, _BlockTable(family, p), v, max_rounds)
        steps.append(step)
        if not step.hypothesis_met:
            return _unmet(name, tuple(steps), failed_at_step=len(steps) - 1)
    g = steps[-1].g if steps else running.serve(v).g
    passed = cert.sufficient and all(s.passed for s in steps)
    return SuiteReport(name, hypothesis_met=True, passed=passed, details={
        "final_meet_sufficient": cert.sufficient,
        "pairwise_steps": len(steps),
    }, conclusion=running.partition, g=g, steps=tuple(steps))
