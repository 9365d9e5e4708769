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
each measure can see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .operators import CondExpOperator, WeightedInnerProduct
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


def _f_scale(family: MeasureFamily, v: np.ndarray) -> float:
    """Largest |f| over the outcomes some measure charges."""
    return float(np.max(np.abs(v), where=family.weights.any(axis=0), initial=0.0))


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
    _check_sizes(family, p)
    w, lab = family.weights, p.block_of
    mass = _block_sums(p, w)
    charged = mass > 0
    ref = np.argmax(charged, axis=0)            # first measure charging each block
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = w / mass[:, lab]
    profile = cond[ref[lab], np.arange(p.n)]
    dev = np.where(charged[:, lab], np.abs(cond - profile), 0.0)
    gammas, outcomes = np.nonzero(dev > atol)
    if gammas.size:
        first = np.argmin(lab[outcomes] * family.m + gammas)
        b, gamma = int(lab[outcomes[first]]), int(gammas[first])
        idx = np.flatnonzero(lab == b)
        worst = int(idx[np.argmax(dev[gamma, idx])])
        witness = Witness(int(ref[b]), gamma, b, f"indicator of outcome {worst} conditioned "
                          f"on block {b} {tuple(idx.tolist())}", float(dev[gamma, worst]))
        return SufficiencyCertificate(False, p, witness=witness)
    profile = np.where(charged.any(axis=0)[lab], profile, 0.0)
    return SufficiencyCertificate(True, p, _profile=profile)


def check_sufficient_for_f(family: MeasureFamily, p: Partition, f,
                           atol: float = AGREEMENT_ATOL) -> SufficiencyCertificate:
    """Decide whether one block function can serve ``f`` under every measure.

    Per block there is a single unknown value; it must equal the
    conditional mean of ``f`` for every measure charging the block, within
    ``atol`` times the largest |f| over charged outcomes (so the verdict
    does not change when f is scaled).  Blocks charged by no measure get
    the value 0.
    """
    _check_sizes(family, p)
    v = as_vector(f, p.n)
    w = family.weights
    mass = _block_sums(p, w)
    charged = mass > 0
    ref = np.argmax(charged, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = _block_sums(p, w * v) / mass
    shared = means[ref, np.arange(p.k)]
    spread = np.where(charged, np.abs(means - shared), 0.0)
    bad = np.flatnonzero(np.any(spread > atol * _f_scale(family, v), axis=0))
    if bad.size:
        b = int(bad[0])
        worst = int(np.argmax(spread[:, b]))
        block = tuple(np.flatnonzero(p.block_of == b).tolist())
        witness = Witness(int(ref[b]), worst, b, f"conditional means of f on block {b} {block}",
                          float(spread[worst, b]))
        return SufficiencyCertificate(False, p, witness=witness)
    g = np.where(charged.any(axis=0), shared, 0.0)[p.block_of]
    return SufficiencyCertificate(True, p, g=g)


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


def _shared_conditional(family: MeasureFamily, p: Partition, f) -> np.ndarray | None:
    cert = check_sufficient_for_f(family, p, f)
    return cert.g if cert.sufficient else None


def _per_gamma_divergence(family: MeasureFamily, p: Partition, prev_by_gamma,
                          shared: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Advance each measure's own trajectory one step and compare with the
    shared version where that measure has positive weight."""
    worst = 0.0
    nxt = []
    for gamma in range(family.m):
        op = CondExpOperator(p, family.row(gamma))
        vec = op.apply(prev_by_gamma[gamma])
        nxt.append(vec)
        ip = WeightedInnerProduct(family.row(gamma))
        worst = max(worst, ip.distinf(vec, shared))
    return worst, nxt


def intersection_sufficiency_suite(family: MeasureFamily, p1: Partition,
                                   p2: Partition, f=None,
                                   max_rounds: int = 10_000) -> SuiteReport:
    """Replay the pairwise intersection theorem on concrete inputs.

    Preconditions (reported, not raised): p1 and p2 are each sufficient,
    and at least one of them already contains every family-null set.
    The suite then checks that the lattice meet is sufficient and replays
    the constructive proof: alternating shared conditional expectations
    converge, stay in step with every per-measure trajectory, and land on
    the meet's own conditional mean.
    """
    _check_sizes(family, p1)
    _check_sizes(family, p2)
    name = "intersection sufficiency"
    for label, p in (("p1", p1), ("p2", p2)):
        cert = check_sufficient(family, p)
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
    meet_cert = check_sufficient(family, ground)

    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    shared = v
    per_gamma = [v] * family.m
    divergence = 0.0
    rounds = 0
    ips = [WeightedInnerProduct(family.row(g)) for g in range(family.m)]
    settle = 1e-14 * max(1.0, float(np.max(np.abs(v))))
    tol = TRAJECTORY_TOL * _f_scale(family, v)
    for rounds in range(1, max_rounds + 1):
        p = p1 if rounds % 2 == 1 else p2
        nxt = _shared_conditional(family, p, shared)
        if nxt is None:
            return SuiteReport(name, hypothesis_met=False, passed=False, details={
                "failed_precondition":
                    f"trajectories split at round {rounds}: sufficiency violated",
            })
        worst, per_gamma = _per_gamma_divergence(family, p, per_gamma, nxt)
        divergence = max(divergence, worst)
        step = max(ip.distinf(nxt, shared) for ip in ips)
        shared = nxt
        if rounds >= 2 and step <= settle:
            break

    direct = check_sufficient_for_f(family, ground, v)
    limit_gap = (max(ip.distinf(shared, direct.g) for ip in ips)
                 if direct.sufficient else float("inf"))
    measurable = all(
        ip.distinf(shared, CondExpOperator(ground, family.row(g)).apply(shared)) <= tol
        for g, ip in enumerate(ips)
    )
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
    for p in chain:
        _check_sizes(family, p)
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
    for k, p in enumerate(chain):
        cert = check_sufficient(family, p)
        if not cert.sufficient:
            return SuiteReport(name, hypothesis_met=False, passed=False, details={
                "failed_precondition": f"chain element {k} is not sufficient",
                "failed_index": k,
                "witness": cert.witness.description,
            })

    stable = chain[-1]
    stable_from = next(k for k, p in enumerate(chain) if p == stable)
    folded = chain[0]
    for p in chain[1:]:
        folded = meet(folded, p)
    v = _default_f(family.n) if f is None else as_vector(f, family.n)
    trajectory = [check_sufficient_for_f(family, p, v).g for p in chain]
    ips = [WeightedInnerProduct(family.row(g)) for g in range(family.m)]
    tail_gap = max(
        (ip.distinf(trajectory[k], trajectory[-1])
         for k in range(stable_from, len(chain)) for ip in ips),
        default=0.0,
    )
    stable_cert = check_sufficient(family, stable)
    passed = (stable_cert.sufficient and folded == stable
              and tail_gap <= TRAJECTORY_TOL * _f_scale(family, v))
    return SuiteReport(
        name,
        hypothesis_met=True,
        passed=passed,
        details={
            "stabilizes_at": stable_from,
            "stable_equals_meet": folded == stable,
            "stable_sufficient": stable_cert.sufficient,
            "trajectory_tail_gap": tail_gap,
        },
        conclusion=stable,
        g=trajectory[-1],
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
    final_cert = check_sufficient(family, running)
    passed = final_cert.sufficient and all(s.passed for s in steps)
    g = steps[-1].g if steps else check_sufficient_for_f(family, running, v).g
    return SuiteReport(
        name,
        hypothesis_met=True,
        passed=passed,
        details={
            "final_meet_sufficient": final_cert.sufficient,
            "pairwise_steps": len(steps),
        },
        conclusion=running,
        g=g,
        steps=tuple(steps),
    )
