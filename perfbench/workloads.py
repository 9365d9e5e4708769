"""One operation per workload, and the checks of its outputs.

``run_*`` functions make only calls into ``condexp`` (through module
attributes, so a traced run sees them); ``check_*`` functions compare the
outputs with the expectations ``gen`` computed without ``condexp``.  A
check returns True when the operation failed (a negative verdict or a
non-zero exit code) and raises ``CheckError`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from condexp import cli, counterexample, operators, sequences, space, sufficiency

import oracles

ITERATE_TOL = 1e-10         # the CLI default the iterate-cli runs keep
REPLAY_TOL = 1e-12
REPLAY_MAX_ITER = 200_000
REPLAY_RESIDUAL = 1e-9      # acceptance criterion 2
PROPERTY_TRIALS = 20


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(actual, expected, atol: float, what: str) -> None:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    expect(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    gap = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    expect(gap <= atol, f"{what}: off by {gap:.3e} > {atol:.0e}")


def same_partition(p, labels, what: str) -> None:
    try:
        mine = oracles.labels_of_blocks(p.blocks, len(labels))
    except (ValueError, IndexError) as exc:
        raise CheckError(f"{what} does not partition 0..{len(labels) - 1}: {exc}") from exc
    expect(np.array_equal(mine, labels), f"{what} differs from the benchmark's own partition")


# ---------------------------------------------------------------------------
# iterate-cli

def run_iterate_cli(inst) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(inst["argv"])
    return {"code": code, "stdout": stdout.getvalue()}


def parse_report(text: str):
    lines = text.splitlines()
    expect(lines and lines[0] == "iter,norm2_sq,diff2_sq,sup_residual", "bad CSV header")
    expect(lines[-1].startswith("# limit: "), "CSV lacks the '# limit:' line")
    rows = [line.split(",") for line in lines[1:-1]]
    expect(rows and all(len(r) == 4 for r in rows), "bad CSV rows")
    expect([int(r[0]) for r in rows] == list(range(1, len(rows) + 1)), "bad iter column")
    expect(rows[-1][2] == "" and all(r[2] for r in rows[:-1]), "bad diff2_sq column")
    norms = np.array([float(r[1]) for r in rows])
    diffs = np.array([float(r[2]) for r in rows[:-1]])
    residuals = np.array([float(r[3]) for r in rows])
    limit = np.array([float(v) for v in lines[-1][len("# limit: "):].split()])
    return norms, diffs, residuals, limit


def check_iterate_cli(inst, out) -> bool:
    code = out["code"]
    if code not in (0, 2):
        return True
    # The report is removed once read, so every operation must write its own.
    report = Path(inst["report"])
    expect(report.is_file(), f"no report at {report.name}")
    norms, diffs, residuals, limit = parse_report(report.read_text())
    report.unlink()
    close(limit, inst["limit"], 1e-12, "limit vector")
    scale = max(1.0, float(norms[0]))
    expect(np.all(np.diff(norms) <= 1e-12 * scale), "norm2_sq increased")
    close(diffs, norms[:-1] - norms[1:], 1e-12 * scale,
          "diff2_sq against the drop in norm2_sq")
    expect(residuals[-1] <= 1000 * ITERATE_TOL, f"final residual {residuals[-1]!r} is not small")
    verdict = "converged" if code == 0 else "did not converge"
    expect(out["stdout"] == f"{verdict} after {len(norms)} applications; "
                            f"residual {float(residuals[-1])!r}\n",
           f"stdout disagrees with exit code {code} and the CSV: {out['stdout']!r}")
    return code != 0


# ---------------------------------------------------------------------------
# lattice-large

def run_lattice_large(inst) -> dict:
    family = space.MeasureFamily(inst["weights"])
    p1, p2 = space.Partition(inst["p1_blocks"]), space.Partition(inst["p2_blocks"])
    m = space.meet(p1, p2)
    joined = space.join(p1, p2)
    nulls = space.null_set(family)
    completed = space.completion(m, nulls)
    refines = (p1.refines(m), p2.refines(m), m.refines(p1))
    certs = [sufficiency.check_sufficient(family, p) for p in (p1, p2, m)]
    cert_f = sufficiency.check_sufficient_for_f(family, m, inst["f"])
    applied = operators.CondExpOperator(m, family.row(0)).apply(inst["f"])
    measurable = space.is_measurable(applied, m)
    perturbed = sufficiency.check_sufficient(space.MeasureFamily(inst["perturbed"]), m)
    return {"meet": m, "join": joined, "nulls": nulls, "completion": completed,
            "refines": refines, "certs": certs, "cert_f": cert_f, "applied": applied,
            "measurable": measurable, "perturbed": perturbed}


def check_lattice_large(inst, out) -> bool:
    same_partition(out["meet"], inst["meet"], "meet")
    same_partition(out["join"], inst["join"], "join")
    expect(out["nulls"] == frozenset(inst["null"].tolist()), "null set differs")
    same_partition(out["completion"], inst["completion"], "completion")
    expect(out["refines"] == (True, True, inst["meet_refines_p1"]), "refines verdicts differ")
    close(out["applied"], inst["applied"], 1e-12, "CondExpOperator.apply")
    expect(out["measurable"] is True, "apply output reported not measurable on the meet")
    bad = out["perturbed"]
    expect(not bad.sufficient, "perturbed family accepted as sufficient")
    witness = bad.witness
    expect(witness.block_index == inst["perturbed_block"],
           f"witness on block {witness.block_index}, perturbed {inst['perturbed_block']}")
    block = np.flatnonzero(inst["meet"] == witness.block_index)
    rows = inst["perturbed"][[witness.gamma, witness.gamma_prime]][:, block]
    cond = rows / rows.sum(axis=1, keepdims=True)
    violation = float(np.max(np.abs(cond[1] - cond[0])))
    expect(violation > 1e-10 and abs(witness.violation - violation) <= 1e-12 * violation,
           f"witness violation {witness.violation!r}, recomputed {violation!r}")
    failed = not all(c.sufficient for c in out["certs"]) or not out["cert_f"].sufficient
    if not failed:
        close(out["cert_f"].g, inst["g"], 1e-12, "shared conditional mean g")
    return failed


# ---------------------------------------------------------------------------
# paper-replay

def run_paper_replay(inst) -> dict:
    props = []
    for p in inst["props"]:
        op = operators.CondExpOperator(space.Partition(p["blocks"]), p["w"])
        props.append(operators.verify_projection_properties(op, PROPERTY_TRIALS, seed=p["seed"]))

    runs = []
    for it in inst["iterate"]:
        t1 = operators.CondExpOperator(space.Partition(it["b1"]), it["w"])
        t2 = operators.CondExpOperator(space.Partition(it["b2"]), it["w"])
        run = operators.iterate([t1, t2], it["x"], tol=REPLAY_TOL, max_iter=REPLAY_MAX_ITER)
        ledger = operators.power_difference_ledger(t1, t2, it["x"], it["ledger_terms"].size)
        product = operators.sandwich_product(t1, t2)
        power, norms = it["x"], []
        for _ in range(it["norms"].size):
            power = product.apply(power)
            norms.append(product.ip.norm2_sq(power))
        target = operators.direct_meet_operator([t1, t2])
        identity = sequences.convex_sum_identity(np.array(norms),
                                                 target.ip.norm2_sq(target.apply(it["x"])))
        runs.append((run, ledger, identity))

    verdicts = [sufficiency.check_sufficient(space.MeasureFamily(fam["weights"]),
                                             space.Partition(fam["blocks"])).sufficient
                for fam in inst["families"]]

    suites = []
    for s in inst["suites"]:
        family = space.MeasureFamily(s["weights"])
        parts = [space.Partition(b) for b in s["blocks"]]
        if s["kind"] == "intersection":
            suites.append(sufficiency.intersection_sufficiency_suite(family, *parts))
        elif s["kind"] == "chain":
            suites.append(sufficiency.decreasing_chain_suite(family, parts))
        else:
            suites.append(sufficiency.countable_intersection_suite(family, parts))

    truncation = counterexample.finite_truncation(inst["radii"])
    g_report = counterexample.verify_g_construction(inst["radii"], inst["g_f"])
    join_report = counterexample.truncation_join_is_sufficient(inst["radii"])
    witnesses = [counterexample.refute_diagonal(counterexample.parse_set_expression(text))
                 for text, _ in inst["expressions"]]
    return {"props": props, "runs": runs, "verdicts": verdicts, "suites": suites,
            "truncation": truncation, "g_report": g_report, "join_report": join_report,
            "witnesses": witnesses}


def check_paper_replay(inst, out) -> bool:
    failed = not all(r.passed() and r.trials == PROPERTY_TRIALS for r in out["props"])

    for it, (run, ledger, identity) in zip(inst["iterate"], out["runs"]):
        close(run.limit, it["limit"], 1e-12, "iterate limit")
        failed |= run.residual > REPLAY_RESIDUAL
        close(ledger.terms, it["ledger_terms"], 1e-12, "ledger terms")
        close(ledger.bound, it["bound"], 1e-12, "ledger bound")
        expect(ledger.partial_sum <= ledger.bound + 1e-12, "ledger partial sum exceeds its bound")
        norms = it["norms"]
        second = norms[2:] - 2 * norms[1:-1] + norms[:-2]
        mine = float(np.dot(np.arange(1.0, second.size + 1.0), second))
        close(identity.partial_sums[-1], mine, 1e-9, "convex-sum partial sum")
        failed |= not identity.passed

    expect(out["verdicts"] == [fam["sufficient"] for fam in inst["families"]],
           "check_sufficient disagrees with the brute-force indicator check")

    for s, report in zip(inst["suites"], out["suites"]):
        if not (report.hypothesis_met and report.passed):
            failed = True
            continue
        same_partition(report.conclusion, s["meet"], f"{s['kind']} suite conclusion")
        close(report.g, s["g"], 1e-9, f"{s['kind']} suite limit")

    t, layout = out["truncation"], inst["truncation"]
    expect([(pt.radius, pt.s1, pt.s2) for pt in t.points] == layout["points"],
           "truncation points differ from the orbit construction")
    expect(np.array_equal(t.family.weights, layout["weights"]), "truncation measures differ")
    same_partition(t.p1, layout["p1"], "truncation family-1 partition")
    same_partition(t.p2, layout["p2"], "truncation family-2 partition")
    expect(t.diagonal_indices == layout["diagonal"], "truncation diagonal differs")
    failed |= not out["g_report"].passed
    join_report = out["join_report"]
    failed |= not join_report.passed
    if join_report.passed:
        expect(join_report.conclusion.k == t.n, "truncated join does not separate points")

    for (text, tree), w in zip(inst["expressions"], out["witnesses"]):
        expect(oracles.contains(tree, (w.radius, w.s1, w.s2)) != (w.s1 == w.s2),
               f"witness {w} does not separate {text}")
    return failed


WORKLOADS = {
    "iterate-cli": (run_iterate_cli, check_iterate_cli),
    "lattice-large": (run_lattice_large, check_lattice_large),
    "paper-replay": (run_paper_replay, check_paper_replay),
}
