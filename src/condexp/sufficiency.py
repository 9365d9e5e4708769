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
table per (family, partition) pair: the block masses, computed once, and
kernels that serve a test function, apply all m per-measure block
averages to an m x n stack in one pass, and measure each measure's sup
distance.  A suite builds its tables once, not once per round, and each
per-measure row is what ``CondExpOperator`` would give, bit for bit.
Every tolerance and the suites' stop threshold scale with max|f|, so no
verdict changes when f is scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .space import (
    MeasureFamily,
    Partition,
    StructuralError,
    _fields_equal,
    as_vector,
    completion,
    meet,
    null_set,
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


def _check_sizes(family: MeasureFamily, p: Partition) -> None:
    if family.n != p.n:
        raise StructuralError(f"family is over {family.n} outcomes but partition covers {p.n}")


def _block_sums(p: Partition, rows: np.ndarray) -> np.ndarray:
    """Sum of each row over each block: an m x k table."""
    return np.stack([np.bincount(p.block_of, weights=r, minlength=p.k) for r in rows])


class _BlockTable:
    """The family's block masses on one partition, and the kernels built on them.

    ``mass`` is the m x k table of block masses, ``charged`` says where it
    is positive and ``ref`` names the first measure charging each block (0
    where none does).  The per-measure normalized weights, the stacked
    block labels and the outcome masks are built on first use, so a
    one-shot check pays for the masses only.  Vectors handed to the
    methods are already validated float arrays of length n.
    """

    def __init__(self, family: MeasureFamily, p: Partition):
        _check_sizes(family, p)
        self.family, self.p = family, p
        self.mass = _block_sums(p, family.weights)
        self.charged = self.mass > 0
        self.ref = np.argmax(self.charged, axis=0)

    @cached_property
    def _normalized(self) -> np.ndarray:
        # each measure's weights divided by its block mass, 0 on blocks it
        # does not charge: the same numbers CondExpOperator uses
        mass_at = self.mass[:, self.p.block_of]
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(mass_at > 0, self.family.weights / mass_at, 0.0)

    @cached_property
    def _stacked_labels(self) -> np.ndarray:
        # block b under measure gamma is bin gamma * k + b
        p = self.p
        return (p.block_of + p.k * np.arange(self.family.m)[:, None]).ravel()

    @cached_property
    def _seen(self) -> np.ndarray:
        return self.family.weights > 0

    @cached_property
    def _seen_by_any(self) -> np.ndarray:
        return self.family.weights.any(axis=0)

    def f_scale(self, v: np.ndarray) -> float:
        """Largest |v| over the outcomes some measure charges."""
        return float(np.max(np.abs(v), where=self._seen_by_any, initial=0.0))

    def certify(self, atol: float) -> SufficiencyCertificate:
        """The distributional criterion (the body of ``check_sufficient``)."""
        w, lab, p = self.family.weights, self.p.block_of, self.p
        charged, ref = self.charged, self.ref
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = w / self.mass[:, lab]
        profile = cond[ref[lab], np.arange(p.n)]
        dev = np.where(charged[:, lab], np.abs(cond - profile), 0.0)
        gammas, outcomes = np.nonzero(dev > atol)
        if gammas.size:
            first = np.argmin(lab[outcomes] * self.family.m + gammas)
            b, gamma = int(lab[outcomes[first]]), int(gammas[first])
            idx = np.flatnonzero(lab == b)
            worst = int(idx[np.argmax(dev[gamma, idx])])
            witness = Witness(int(ref[b]), gamma, b, f"indicator of outcome {worst} conditioned "
                              f"on block {b} {tuple(idx.tolist())}", float(dev[gamma, worst]))
            return SufficiencyCertificate(False, p, witness=witness)
        profile = np.where(charged.any(axis=0)[lab], profile, 0.0)
        return SufficiencyCertificate(True, p, _profile=profile)

    def serve(self, v: np.ndarray, atol: float) -> SufficiencyCertificate:
        """One block function for ``v`` under every measure (the body of
        ``check_sufficient_for_f``), within ``atol`` times max|v| over charged outcomes."""
        p, charged, ref = self.p, self.charged, self.ref
        with np.errstate(invalid="ignore", divide="ignore"):
            means = _block_sums(p, self.family.weights * v) / self.mass
        shared = means[ref, np.arange(p.k)]
        spread = np.where(charged, np.abs(means - shared), 0.0)
        bad = np.flatnonzero(np.any(spread > atol * self.f_scale(v), axis=0))
        if bad.size:
            b = int(bad[0])
            worst = int(np.argmax(spread[:, b]))
            block = tuple(np.flatnonzero(p.block_of == b).tolist())
            witness = Witness(int(ref[b]), worst, b, f"conditional means of f on block {b} "
                              f"{block}", float(spread[worst, b]))
            return SufficiencyCertificate(False, p, witness=witness)
        g = np.where(charged.any(axis=0), shared, 0.0)[p.block_of]
        return SufficiencyCertificate(True, p, g=g)

    def apply_each(self, X: np.ndarray) -> np.ndarray:
        """Row gamma of the result is measure gamma's block average of row
        gamma of the m x n stack ``X``: every CondExpOperator of the family on
        this partition, applied in one pass and bit for bit."""
        m, k = self.family.m, self.p.k
        sums = np.bincount(self._stacked_labels, weights=(self._normalized * X).ravel(),
                           minlength=m * k)
        return sums.reshape(m, k)[:, self.p.block_of]

    def distinf_each(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per measure, the sup of |X - y| over the outcomes it charges (row
        gamma of ``X`` if it is a stack, ``X`` itself if it is one vector)."""
        return np.where(self._seen, np.abs(X - y), 0.0).max(axis=1)


def check_sufficient(family: MeasureFamily, p: Partition,
                     atol: float = AGREEMENT_ATOL) -> SufficiencyCertificate:
    """Decide sufficiency of ``p`` for the family by the distributional criterion.

    For each block, every measure with positive mass on the block must
    induce the same conditional weight vector there; measures with zero
    mass on a block impose no constraint.  The witness is the first block
    (then the first measure) that deviates from the first measure charging
    the block.  The decision is total: the result is always a certificate,
    never an exception.
    """
    return _BlockTable(family, p).certify(atol)


def check_sufficient_for_f(family: MeasureFamily, p: Partition, f,
                           atol: float = AGREEMENT_ATOL) -> SufficiencyCertificate:
    """Decide whether one block function can serve ``f`` under every measure.

    Per block there is a single unknown value; it must equal the
    conditional mean of ``f`` for every measure charging the block, within
    ``atol`` times the largest |f| over charged outcomes (so the verdict
    does not change when f is scaled).  Blocks charged by no measure get
    the value 0.
    """
    return _BlockTable(family, p).serve(as_vector(f, p.n), atol)


def contains_null_field(p: Partition, nulls: frozenset[int]) -> bool:
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
    the shared version by at most 1e-14 times max|f|.
    """
    name = "intersection sufficiency"
    tables = (_BlockTable(family, p1), _BlockTable(family, p2))
    for label, table in zip(("p1", "p2"), tables):
        cert = table.certify(AGREEMENT_ATOL)
        if not cert.sufficient:
            return SuiteReport(name, hypothesis_met=False, passed=False, details={
                "failed_precondition": f"{label} is not sufficient",
                "witness": cert.witness.description,
            })
    nulls = null_set(family)
    if not (contains_null_field(p1, nulls) or contains_null_field(p2, nulls)):
        return SuiteReport(name, hypothesis_met=False, passed=False, details={
            "failed_precondition":
                "neither partition contains the family's null field",
            "null_indices": sorted(nulls),
        })

    ground = meet(p1, p2)
    at_meet = _BlockTable(family, ground)
    meet_cert = at_meet.certify(AGREEMENT_ATOL)

    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    shared = v
    # row gamma: the trajectory of measure gamma's own conditional expectations
    per_gamma = np.broadcast_to(v, (family.m, family.n))
    divergence = 0.0
    rounds = 0
    settle = 1e-14 * float(np.max(np.abs(v), initial=0.0))
    tol = TRAJECTORY_TOL * at_meet.f_scale(v)
    for rounds in range(1, max_rounds + 1):
        table = tables[(rounds - 1) % 2]
        served = table.serve(shared, AGREEMENT_ATOL)
        if not served.sufficient:
            return SuiteReport(name, hypothesis_met=False, passed=False, details={
                "failed_precondition":
                    f"trajectories split at round {rounds}: sufficiency violated",
            })
        nxt = served.g
        per_gamma = table.apply_each(per_gamma)
        divergence = max(divergence, float(table.distinf_each(per_gamma, nxt).max()))
        step = float(table.distinf_each(nxt, shared).max())
        shared = nxt
        if rounds >= 2 and step <= settle:
            break

    direct = at_meet.serve(v, AGREEMENT_ATOL)
    limit_gap = (float(at_meet.distinf_each(shared, direct.g).max())
                 if direct.sufficient else float("inf"))
    projected = at_meet.apply_each(np.broadcast_to(shared, per_gamma.shape))
    measurable = bool(np.all(at_meet.distinf_each(projected, shared) <= tol))
    passed = (meet_cert.sufficient and divergence <= tol
              and limit_gap <= tol and measurable)
    return SuiteReport(
        name,
        hypothesis_met=True,
        passed=passed,
        details={
            "meet_sufficient": meet_cert.sufficient,
            "trajectory_divergence": divergence,
            "limit_gap": limit_gap,
            "limit_meet_measurable": measurable,
            "rounds": rounds,
        },
        conclusion=ground,
        g=shared,
    )


def decreasing_chain_suite(family: MeasureFamily, chain: Sequence[Partition],
                           f=None) -> SuiteReport:
    """Replay the decreasing-chain theorem: a finite chain stabilizes and
    its stable tail is the sufficient intersection.

    The chain must be genuinely decreasing (each partition coarser than
    the one before); that is a structural error, not a reported failure.
    Sufficiency of each element is a reported precondition.
    """
    chain = list(chain)
    if not chain:
        raise StructuralError("chain must be non-empty")
    tables = [_BlockTable(family, p) for p in chain]
    for k in range(len(chain) - 1):
        if not chain[k + 1].refines(chain[k]) and not chain[k].refines(chain[k + 1]):
            raise StructuralError(
                f"chain elements {k} and {k + 1} are incomparable"
            )
        if not chain[k].refines(chain[k + 1]):
            raise StructuralError(
                f"chain is not decreasing between elements {k} and {k + 1}"
            )
    name = "decreasing chain sufficiency"
    for k, table in enumerate(tables):
        cert = table.certify(AGREEMENT_ATOL)
        if not cert.sufficient:
            return SuiteReport(name, hypothesis_met=False, passed=False, details={
                "failed_precondition": f"chain element {k} is not sufficient",
                "failed_index": k,
                "witness": cert.witness.description,
            })

    # every element, the stable one included, is certified sufficient above
    stable = chain[-1]
    stable_from = next(k for k, p in enumerate(chain) if p == stable)
    folded = chain[0]
    for p in chain[1:]:
        folded = meet(folded, p)
    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    # only the tail from stable_from on enters the gap
    tail = [table.serve(v, AGREEMENT_ATOL).g for table in tables[stable_from:]]
    last = tables[-1]
    tail_gap = (max(float(last.distinf_each(g, tail[-1]).max()) for g in tail)
                if tail[-1] is not None else float("inf"))
    passed = folded == stable and tail_gap <= TRAJECTORY_TOL * last.f_scale(v)
    return SuiteReport(
        name,
        hypothesis_met=True,
        passed=passed,
        details={
            "stabilizes_at": stable_from,
            "stable_equals_meet": folded == stable,
            "stable_sufficient": True,
            "trajectory_tail_gap": tail_gap,
        },
        conclusion=stable,
        g=tail[-1],
    )


def countable_intersection_suite(family: MeasureFamily,
                                 parts: Sequence[Partition], f=None,
                                 max_rounds: int = 10_000) -> SuiteReport:
    """Fold the pairwise intersection suite over running meets.

    On a finite space the running meets stabilize after finitely many
    steps; the final meet must be sufficient, with each pairwise step
    carrying its own full replay report.
    """
    parts = list(parts)
    if not parts:
        raise StructuralError("need at least one partition")
    name = "countable intersection sufficiency"
    first = check_sufficient(family, parts[0])
    if not first.sufficient:
        return SuiteReport(name, hypothesis_met=False, passed=False, details={
            "failed_precondition": "partition 0 is not sufficient",
            "witness": first.witness.description,
        })
    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    running = parts[0]
    steps: list[SuiteReport] = []
    for p in parts[1:]:
        step = intersection_sufficiency_suite(family, running, p, f=v,
                                              max_rounds=max_rounds)
        steps.append(step)
        if not step.hypothesis_met:
            return SuiteReport(name, hypothesis_met=False, passed=False,
                               details={"failed_at_step": len(steps) - 1},
                               steps=tuple(steps))
        running = step.conclusion
    # the last step certified its meet, the final one; with no step it is parts[0]
    final_sufficient = steps[-1].details["meet_sufficient"] if steps else True
    passed = final_sufficient and all(s.passed for s in steps)
    g = steps[-1].g if steps else check_sufficient_for_f(family, running, v).g
    return SuiteReport(
        name,
        hypothesis_met=True,
        passed=passed,
        details={
            "final_meet_sufficient": final_sufficient,
            "pairwise_steps": len(steps),
        },
        conclusion=running,
        g=g,
        steps=tuple(steps),
    )
