"""The benchmark's own tests: oracles against brute force, seeded generators,
checks that reject wrong answers, and the tracer.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


# ---------------------------------------------------------------------------
# oracles against brute force

def closure_meet(*labelings) -> np.ndarray:
    """Meet by boolean transitive closure of 'shares a block somewhere'."""
    n = len(labelings[0])
    linked = np.eye(n, dtype=bool)
    for lab in labelings:
        lab = np.asarray(lab)
        linked |= lab[:, None] == lab[None, :]
    for _ in range(n):
        linked = linked | (linked.astype(int) @ linked.astype(int) > 0)
    return oracles.canonical(np.argmax(linked, axis=1))


@pytest.mark.parametrize("seed", range(20))
def test_meet_and_join_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    labs = [gen.random_labels(rng, n) for _ in range(int(rng.integers(2, 4)))]
    assert np.array_equal(oracles.meet_labels(*labs), closure_meet(*labs))
    pairs = {}
    brute = [pairs.setdefault((int(a), int(b)), len(pairs)) for a, b in zip(labs[0], labs[1])]
    assert np.array_equal(oracles.join_labels(labs[0], labs[1]), oracles.canonical(brute))
    alive = rng.random(n) < 0.7
    split = oracles.meet_labels(*labs, alive=alive)
    dead = np.flatnonzero(~alive)
    assert len(set(split[dead].tolist())) == dead.size
    assert not set(split[dead].tolist()) & set(split[alive].tolist())
    kept = np.flatnonzero(alive)
    if kept.size:
        sub = [np.asarray(lab)[kept] for lab in labs]
        assert np.array_equal(oracles.canonical(split[kept]), closure_meet(*sub))
    assert oracles.refines(labs[0], oracles.meet_labels(*labs))


@pytest.mark.parametrize("seed", range(10))
def test_block_means_match_projection_matrix_and_iterated_limit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    w = gen.positive_measure(rng, n)
    w[rng.random(n) < 0.2] = 0.0
    w /= w.sum()
    l1, l2 = gen.random_labels(rng, n), gen.random_labels(rng, n)
    x = rng.uniform(-1, 1, n)
    assert np.allclose(oracles.block_means(l1, w, x), oracles.projection_matrix(l1, w) @ x,
                       atol=1e-14)
    # alternating projections converge to the projection onto the completed meet
    product = oracles.projection_matrix(l2, w) @ oracles.projection_matrix(l1, w)
    v = x
    for _ in range(20_000):
        v = product @ v
    limit = oracles.block_means(oracles.meet_labels(l1, l2, alive=w > 0), w, x)
    assert np.max(np.abs((v - limit)[w > 0])) < 1e-8
    assert np.all(limit[w == 0] == 0.0)


def distributional_sufficient(weights, labels) -> bool:
    for block in oracles.blocks_of_labels(labels):
        profiles = [row[block] / row[block].sum() for row in weights if row[block].sum() > 0]
        if any(np.max(np.abs(p - profiles[0])) > 1e-10 for p in profiles):
            return False
    return True


@pytest.mark.parametrize("seed", range(30))
def test_bruteforce_sufficiency_matches_distributional_criterion(seed):
    rng = np.random.default_rng(seed)
    fam = gen.replay_family(rng, seed)
    labels = oracles.labels_of_blocks(fam["blocks"], fam["weights"].shape[1])
    assert fam["sufficient"] == distributional_sufficient(fam["weights"], labels)


def test_sufficiency_examples_go_both_ways():
    verdicts = {gen.replay_family(np.random.default_rng(s), s)["sufficient"] for s in range(30)}
    assert verdicts == {True, False}


def test_shared_block_means_agree_under_every_charging_measure():
    rng = np.random.default_rng(3)
    base = oracles.canonical(rng.integers(0, 20, 200))
    weights = gen.shared_family(rng, base, 3, 0.1, 0.3)
    labels = gen.refinement(rng, base)
    f = rng.uniform(-1, 1, 200)
    shared = oracles.shared_block_means(labels, weights, f)
    for row in weights:
        charged = np.bincount(labels, weights=row)[labels] > 0
        assert np.allclose(oracles.block_means(labels, row, f)[charged], shared[charged],
                           atol=1e-12)


def set_of(expr, universe):
    head = expr[0]
    if head == "a":
        return {p for p in universe if oracles.contains(expr, p)}
    if head == "c":
        return universe - set_of(expr[1], universe)
    left, right = set_of(expr[1], universe), set_of(expr[2], universe)
    return left | right if head == "u" else left & right


def test_expression_evaluator_matches_set_algebra():
    rng = np.random.default_rng(0)
    for _ in range(200):
        expr = gen.random_expression(rng, depth=int(rng.integers(0, 5)))
        universe = {(Fraction(r, q), s1, s2) for r in range(1, 6) for q in range(1, 4)
                    for s1, s2 in oracles.SIGNS}
        members = set_of(expr, universe)
        assert all(oracles.contains(expr, p) == (p in members) for p in universe)


def test_truncation_layout_is_the_orbit_construction():
    radii = [Fraction(3, 2), Fraction(1), Fraction(5, 4)]
    layout = oracles.truncation_layout(radii)
    order = sorted(radii)
    assert layout["points"] == [(r, s1, s2) for r in order
                                for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    for i, j in itertools.combinations(range(12), 2):
        same_orbit = i // 4 == j // 4
        pi, pj = layout["points"][i], layout["points"][j]
        assert (layout["p1"][i] == layout["p1"][j]) == (same_orbit and pi[1] == pj[1])
        assert (layout["p2"][i] == layout["p2"][j]) == (same_orbit and pi[2] == pj[2])
    assert layout["diagonal"] == {0, 3, 4, 7, 8, 11}
    assert np.allclose(layout["weights"].sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_generators_are_deterministic_by_seed(workload, tmp_path):
    texts = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        gen.write_inputs(workload, seed, tmp_path / sub)
        texts.append(sorted((p.name, p.read_bytes()) for p in (tmp_path / sub).iterdir()
                            if p.suffix in (".json", ".txt")))
    pools = [[pickle.loads((tmp_path / s / f"inst-{k}.pkl").read_bytes())
              for k in range(gen.POOL[workload])] for s in "abc"]
    assert texts[0] == texts[1]
    assert same_structure(pools[0], pools[1], str(tmp_path / "a"), str(tmp_path / "b"))
    assert not same_structure(pools[0], pools[2], str(tmp_path / "a"), str(tmp_path / "c"))


def same_structure(a, b, dir_a: str, dir_b: str) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_structure(a[k], b[k], dir_a, dir_b) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_structure(x, y, dir_a, dir_b) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, str):
        return a.replace(dir_a, "") == b.replace(dir_b, "")
    return a == b


# ---------------------------------------------------------------------------
# each workload's check accepts the program's output and rejects wrong ones

@pytest.fixture
def iterate_case(tmp_path):
    inst = gen.iterate_cli(np.random.default_rng(1), tmp_path, 0, n=600)
    return inst, workloads.run_iterate_cli(inst)


def rewrite(path, old, new):
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new, 1))


def test_iterate_cli_counts_the_stop_rule_failure(iterate_case):
    inst, out = iterate_case
    assert out["code"] == 2 and out["stdout"].startswith("did not converge")
    assert workloads.check_iterate_cli(inst, out) is True


def test_iterate_cli_check_rejects_a_missing_or_stale_report(iterate_case):
    inst, out = iterate_case
    workloads.check_iterate_cli(inst, out)
    assert not Path(inst["report"]).exists()
    # The same output again: its report was consumed, as if the CLI had not written one.
    with pytest.raises(CheckError, match="no report"):
        workloads.check_iterate_cli(inst, out)


def test_iterate_cli_check_rejects_a_permuted_limit(iterate_case):
    inst, out = iterate_case
    lines = Path(inst["report"]).read_text().splitlines()
    values = lines[-1].split()[2:]
    lines[-1] = "# limit: " + " ".join(values[1:] + values[:1])
    Path(inst["report"]).write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="limit"):
        workloads.check_iterate_cli(inst, out)


def test_iterate_cli_check_rejects_a_broken_pythagoras_row(iterate_case):
    inst, out = iterate_case
    row = Path(inst["report"]).read_text().splitlines()[3].split(",")
    rewrite(inst["report"], ",".join(row), ",".join(row[:2] + [repr(float(row[2]) * 2)] + row[3:]))
    with pytest.raises(CheckError, match="diff2_sq"):
        workloads.check_iterate_cli(inst, out)


def test_iterate_cli_check_rejects_a_flipped_verdict(iterate_case):
    inst, out = iterate_case
    with pytest.raises(CheckError, match="stdout"):
        workloads.check_iterate_cli(inst, dict(out, code=0))


@pytest.fixture(scope="module")
def lattice_case(tmp_path_factory):
    inst = gen.lattice_large(np.random.default_rng(2), tmp_path_factory.mktemp("l"), 0, n=3000)
    return inst, workloads.run_lattice_large(inst)


def test_lattice_check_accepts_the_program(lattice_case):
    inst, out = lattice_case
    assert workloads.check_lattice_large(inst, out) is False


def test_lattice_check_rejects_a_permuted_meet(lattice_case):
    inst, out = lattice_case
    blocks = out["meet"].blocks
    moved = [list(b) for b in blocks]
    moved[0].append(moved[1].pop())
    wrong = type(out["meet"])([b for b in moved if b])
    with pytest.raises(CheckError, match="meet"):
        workloads.check_lattice_large(inst, dict(out, meet=wrong))


def test_lattice_check_rejects_an_accepted_perturbation(lattice_case):
    inst, out = lattice_case
    flipped = dataclasses.replace(out["perturbed"], sufficient=True)
    with pytest.raises(CheckError, match="perturbed"):
        workloads.check_lattice_large(inst, dict(out, perturbed=flipped))
    moved = dataclasses.replace(out["perturbed"].witness,
                                block_index=out["perturbed"].witness.block_index + 1)
    with pytest.raises(CheckError, match="witness"):
        workloads.check_lattice_large(
            inst, dict(out, perturbed=dataclasses.replace(out["perturbed"], witness=moved)))


def test_lattice_check_rejects_wrong_g_and_counts_negative_verdicts(lattice_case):
    inst, out = lattice_case
    g = out["cert_f"].g.copy()
    g[[0, -1]] = g[[-1, 0]] + 1.0
    with pytest.raises(CheckError, match="g"):
        workloads.check_lattice_large(
            inst, dict(out, cert_f=dataclasses.replace(out["cert_f"], g=g)))
    negative = dataclasses.replace(out["certs"][0], sufficient=False)
    assert workloads.check_lattice_large(inst, dict(out, certs=[negative] + out["certs"][1:]))


@pytest.fixture(scope="module")
def replay_case(tmp_path_factory):
    inst = gen.paper_replay(np.random.default_rng(4), tmp_path_factory.mktemp("r"), 0)
    return inst, workloads.run_paper_replay(inst)


def test_replay_check_accepts_the_program(replay_case):
    inst, out = replay_case
    assert workloads.check_paper_replay(inst, out) is False


def test_replay_check_rejects_a_flipped_sufficiency_verdict(replay_case):
    inst, out = replay_case
    verdicts = [not out["verdicts"][0]] + out["verdicts"][1:]
    with pytest.raises(CheckError, match="brute-force"):
        workloads.check_paper_replay(inst, dict(out, verdicts=verdicts))


def test_replay_check_rejects_a_permuted_iterate_limit(replay_case):
    inst, out = replay_case
    run, ledger, identity = next(r for r in out["runs"] if np.ptp(r[0].limit) > 0)
    wrong = dataclasses.replace(run, limit=run.limit[::-1].copy())
    runs = [(wrong, ledger, identity) if r[0] is run else r for r in out["runs"]]
    with pytest.raises(CheckError, match="limit"):
        workloads.check_paper_replay(inst, dict(out, runs=runs))


def test_replay_check_rejects_a_wrong_suite_conclusion(replay_case):
    inst, out = replay_case
    k, report = next((k, r) for k, r in enumerate(out["suites"]) if r.conclusion.k > 1)
    trivial = type(report.conclusion).trivial(report.conclusion.n)
    suites = list(out["suites"])
    suites[k] = dataclasses.replace(report, conclusion=trivial)
    with pytest.raises(CheckError, match="conclusion"):
        workloads.check_paper_replay(inst, dict(out, suites=suites))


def test_replay_check_rejects_a_non_separating_witness(replay_case):
    inst, out = replay_case
    w = out["witnesses"][0]
    other = type(w)(w.radius, w.s1, -w.s2) if w.s1 == w.s2 else type(w)(w.radius, w.s1, w.s1)
    with pytest.raises(CheckError, match="witness"):
        workloads.check_paper_replay(inst, dict(out, witnesses=[other] + out["witnesses"][1:]))


def test_replay_check_counts_a_failed_suite(replay_case):
    inst, out = replay_case
    suites = [dataclasses.replace(out["suites"][0], passed=False)] + out["suites"][1:]
    assert workloads.check_paper_replay(inst, dict(out, suites=suites)) is True


# ---------------------------------------------------------------------------
# tracer

def test_self_times_subtract_child_spans():
    spans = {"names": np.array(["op", "a", "b"]), "name_id": np.array([0, 1, 2, 1]),
             "parent": np.array([-1, 0, 1, 0]), "start": np.array([0.0, 1.0, 2.0, 5.0]),
             "end": np.array([10.0, 4.0, 3.0, 6.0])}
    assert tracing.self_times(spans) == {"op": (1, 6.0), "a": (2, 3.0), "b": (1, 1.0)}


def test_tracer_patches_every_importing_module_and_restores():
    import condexp
    from condexp import operators, space, sufficiency

    original_meet = space.meet
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert operators.meet is space.meet is condexp.meet is sufficiency.meet
        assert space.meet is not original_meet
        family = space.MeasureFamily([[0.5, 0.5, 0.0]])
        ops = [operators.CondExpOperator(space.Partition(blocks), family.row(0))
               for blocks in ([[0, 1], [2]], [[0], [1, 2]])]
        run = operators.iterate(ops, [1.0, 2.0, 3.0])
        spans = tracer.spans()
        totals = tracing.self_times(spans)
        assert totals["space.Partition"][0] >= 2     # ours, and the meet's inside iterate
        assert totals["operators.iterate"][0] == 1
        assert tracer.counters["operators.trajectory_bytes"] == run.iterations_used * 3 * 8
        inside = spans["parent"][spans["name_id"] == tracer.names.index("space.meet")]
        assert all(tracer.names[spans["name_id"][i]] == "operators.direct_meet_operator"
                   for i in inside)
    finally:
        tracer.uninstall()
    assert space.meet is original_meet and operators.meet is original_meet
    assert "traced" not in repr(space.Partition.__init__)


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "iterate-cli",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_defines_every_metric_the_run_reports():
    import run

    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    counters = {name: 4.0 for name, _ in tracing.RESULT_COUNTERS.values()}
    traced = {"latencies": [1.5, 1.5], "spans": {"space.meet": (6, 3.0)}, "counters": counters,
              "installed": tracer.installed}
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics, _ = run.per_layer({"latencies": [1.0, 1.0]}, traced, bench["per_layer"])
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert metrics["space.meet.self_s"]["value"] == 1.5
    assert metrics["trace.overhead_s"]["value"] == 0.5
    assert metrics["operators.trajectory_bytes"]["value"] == 2.0
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(
        run.end_to_end([{"latencies": [1.0], "peak_rss_kb": 1024, "setup_s": 1.0}]))


def test_per_layer_refuses_a_metric_whose_span_was_never_installed():
    import run

    traced = {"latencies": [1.0], "spans": {}, "counters": {}, "installed": {"space.meet"}}
    declared = [{"name": "space.meet.self_s", "unit": "s"}]
    assert run.per_layer({"latencies": [1.0]}, traced, declared)[0]["space.meet.self_s"] == {
        "value": 0.0, "unit": "s"}
    with pytest.raises(ValueError, match="space.renamed_meet"):
        run.per_layer({"latencies": [1.0]}, traced,
                      declared + [{"name": "space.renamed_meet.calls", "unit": "count"}])
