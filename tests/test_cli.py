"""Exit codes, report formats, and determinism of the command line."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from condexp.cli import _format_vector, _parse_vector, main
from condexp import CondExpOperator, StructuralError, check_sufficient_for_f, load_space_file
from condexp.rng import portable_rng

from helpers import iterate_keeping_trajectory

SPACE = {
    "labels": ["a", "b", "c", "d"],
    "measures": [[0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.1, 0.4]],
    "partitions": {"rows": [[0, 1], [2, 3]], "cols": [[0, 2], [1, 3]]},
}

COIN = {
    "labels": ["00", "01", "10", "11"],
    "measures": [
        [4 / 9, 2 / 9, 2 / 9, 1 / 9],
        [1 / 9, 2 / 9, 2 / 9, 4 / 9],
    ],
    "partitions": {
        "sum": [[0], [1, 2], [3]],
        "first": [[0, 1], [2, 3]],
        "points": [[0], [1], [2], [3]],
    },
}


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(SPACE))
    return str(path)


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(COIN))
    return str(path)


# ---------------------------------------------------------------------------
# iterate

def test_iterate_converges_with_monotone_norms(space_file, tmp_path, capsys):
    report = tmp_path / "run.csv"
    code = main(["iterate", "--space", space_file, "--partitions", "rows,cols",
                 "--x", "1,2,3,4", "--report", str(report)])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    lines = report.read_text().splitlines()
    assert lines[0] == "iter,norm2_sq,diff2_sq,sup_residual"
    assert lines[-1].startswith("# limit:")
    norms = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))
    limit = [float(tok) for tok in lines[-1].split(":")[1].split()]
    assert np.allclose(limit, 2.5, atol=1e-12)


def test_iterate_chain_csv_matches_the_kept_trajectory(tmp_path, capsys):
    # two category partitions forming a chain: slow mixing, some null outcomes
    rng = portable_rng(61)
    n = 60
    a = rng.integers(0, 8, n)
    b = a + rng.integers(0, 2, n)
    w = rng.uniform(0.5, 1.5, n)
    w[[3, 17, 40]] = 0.0
    w /= w.sum()
    x = a / 8 + rng.uniform(-0.5, 0.5, n)
    space = tmp_path / "chain.json"
    space.write_text(json.dumps({
        "labels": [f"s{i}" for i in range(n)], "measures": [w.tolist()],
        "partitions": {name: [np.flatnonzero(lab == c).tolist() for c in np.unique(lab)]
                       for name, lab in (("a", a), ("b", b))}}))
    report = tmp_path / "run.csv"
    code = main(["iterate", "--space", str(space), "--partitions", "a,b",
                 "--x", ",".join(map(repr, x.tolist())), "--report", str(report)])
    lines = report.read_text().splitlines()
    bundle = load_space_file(str(space))
    ops = [CondExpOperator(bundle.partition(name), w) for name in ("a", "b")]
    _, norms2, diffs2, residuals, limit = iterate_keeping_trajectory(ops, x, len(lines) - 2)
    rows = [line.split(",") for line in lines[1:-1]]
    assert code == 0
    assert capsys.readouterr().out == (f"converged after {len(rows)} applications; "
                                       f"residual {rows[-1][3]}\n")
    assert residuals[-1] <= 1e-10
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert rows[-1][2] == ""
    # the run after the first application is on cells, so its sums may
    # differ from the kept trajectory's in the last digits
    scale2, scale = 1e-12 * norms2[0], 1e-12 * float(np.max(np.abs(x)))
    assert np.all(np.abs([float(r[1]) for r in rows] - norms2) <= scale2)
    assert np.all(np.abs([float(r[2]) for r in rows[:-1]] - diffs2) <= scale2)
    assert np.all(np.abs([float(r[3]) for r in rows] - residuals) <= scale)
    assert lines[-1] == "# limit: " + " ".join(repr(float(v)) for v in limit)


def test_format_vector_is_each_entry_repr_space_joined():
    rng = portable_rng(62)
    tiny = np.nextafter(0.0, 1.0)
    vectors = [
        np.array([-0.0, 0.0, 0.0, -0.0, 1.5]),
        np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, np.nan]),
        np.array([tiny, -tiny, 1e-310, 2.2250738585072014e-308, tiny]),
        np.full(7, 0.1),
        np.array([3.0]),
        np.array([]),
        rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
        rng.integers(0, 3, 1000) / 7.0,
    ]
    for v in vectors:
        assert _format_vector(v) == " ".join(map(repr, v.tolist()))


def test_parse_vector_is_per_token_float():
    rng = portable_rng(63)
    values = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)
    tokens = [repr(v) for v in values.tolist()] + ["-0", "1e-320", "inf", "-inf", "+5", "1_0"]
    text = ", ".join(tokens[:100]) + " " + " ".join(tokens[100:])
    expected = np.array([float(tok) for tok in tokens])
    assert np.array_equal(_parse_vector(text).view(np.int64), expected.view(np.int64))
    assert _parse_vector("").shape == (0,)
    with pytest.raises(StructuralError) as err:
        _parse_vector("1,abc")
    assert str(err.value) == "bad vector '1,abc': could not convert string to float: 'abc'"


def test_iterate_stdout_is_the_verdict_line(space_file, tmp_path, capsys):
    pattern = r"^(converged|did not converge) after \d+ applications; residual [0-9.e+-]+$"
    for extra, code in (([], 0), (["--max-iter", "1"], 2)):
        assert main(["iterate", "--space", space_file, "--partitions", "rows,cols",
                     "--x", "1,2,3,5", "--report", str(tmp_path / "run.csv"),
                     *extra]) == code
        out = capsys.readouterr().out
        assert out.endswith("\n") and re.match(pattern, out[:-1])


@pytest.mark.parametrize("flags", [
    # (argv, with a lemma file's header among it; the name the refusal gives)
    (["iterate", "--tol", "inf"], "tol"),
    (["iterate", "--tol", "nan"], "tol"),
    (["iterate", "--tol", "0"], "tol"),
    (["iterate", "--tol=-1e-3"], "tol"),
    (["iterate", "--max-iter", "0"], "max_iter"),
    (["sufficiency", "--suite", "intersection", "--max-iter", "0"], "max_rounds"),
    (["sufficiency", "--suite", "countable", "--max-iter", "0"], "max_rounds"),
    (["lemma", "--which", "convex-sum", "limit=abc"], "limit=abc"),
    (["lemma", "--which", "dyadic", "limit=abc"], "limit=abc"),
    (["lemma", "--which", "convex-sum", "limit=nan"], "limit"),
    (["lemma", "--which", "dyadic", "limit=nan"], "a0"),
    (["lemma", "--which", "dyadic", "--c", "inf"], "c must"),
    (["lemma", "--which", "dyadic", "--c", "nan"], "c must"),
    (["lemma", "--which", "convex-sum", "--tol", "nan"], "tol"),
    (["lemma", "--which", "convex-sum", "--tol", "0"], "tol"),
])
def test_iterate_refuses_a_tolerance_or_cap_that_certifies_nothing(space_file, coin_file,
                                                                   flags, tmp_path, capsys):
    argv, named = flags
    header = [a for a in argv if a.startswith("limit=")] or ["limit=0"]
    seq = tmp_path / "seq.csv"
    seq.write_text(header[0] + "\n1\n0.5\n0.25\n")
    inputs = {"iterate": ["--space", space_file, "--partitions", "rows,cols", "--x", "1,2,3,4"],
              "sufficiency": ["--space", coin_file, "--partitions", "sum,points"],
              "lemma": ["--input", str(seq)]}
    code = main([a for a in argv if a not in header] + inputs[argv[0]])
    captured = capsys.readouterr()
    assert code == 65 and not captured.out
    assert named in captured.err


def test_iterate_non_convergence_exit_code(space_file, capsys):
    code = main(["iterate", "--space", space_file, "--partitions", "rows,cols",
                 "--x", "1,2,3,4", "--max-iter", "1"])
    capsys.readouterr()
    assert code == 2


def test_iterate_x_file_and_measure_flag(space_file, tmp_path, capsys):
    xfile = tmp_path / "x.txt"
    xfile.write_text("1\n2\n3\n4\n")
    code = main(["iterate", "--space", space_file, "--partitions", "rows,cols",
                 "--measure", "1", "--x-file", str(xfile)])
    capsys.readouterr()
    assert code == 0


def test_iterate_x_with_a_negative_first_entry(space_file, capsys):
    code = main(["iterate", "--space", space_file, "--partitions", "rows,cols",
                 "--x=-1,2,3,4"])
    assert code == 0
    assert "converged" in capsys.readouterr().out


def test_iterate_requires_start_vector(space_file, capsys):
    code = main(["iterate", "--space", space_file, "--partitions", "rows,cols"])
    assert code == 64
    assert "usage error" in capsys.readouterr().err


def test_iterate_unknown_partition(space_file, capsys):
    code = main(["iterate", "--space", space_file, "--partitions", "nope",
                 "--x", "1,2,3,4"])
    assert code == 65
    assert "nope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# lemma

def test_lemma_convex_sum_reciprocals(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\n" + "\n".join(str(1.0 / k) for k in range(1, 2001)))
    code = main(["lemma", "--which", "convex-sum", "--input", str(seq),
                 "--tol", "1e-2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict" in out and "pass" in out


def test_lemma_convex_sum_missing_limit(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("1.0\n0.5\n0.25\n")
    code = main(["lemma", "--which", "convex-sum", "--input", str(seq)])
    assert code == 65
    assert "limit=" in capsys.readouterr().err


def test_lemma_rejects_nonconvex(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\n0\n1\n0\n")
    code = main(["lemma", "--which", "convex-sum", "--input", str(seq)])
    capsys.readouterr()
    assert code == 65


def test_lemma_dyadic_default_c(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\n" + "\n".join(str(1.0 / k) for k in range(1, 301)))
    code = main(["lemma", "--which", "dyadic", "--input", str(seq)])
    out = capsys.readouterr().out
    assert code == 0
    assert "slack" in out


def test_lemma_dyadic_c_too_small(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\n" + "\n".join(str(1.0 / k) for k in range(1, 301)))
    code = main(["lemma", "--which", "dyadic", "--input", str(seq), "--c", "0"])
    assert code == 65
    assert "prefix sum" in capsys.readouterr().err


def test_lemma_dyadic_overflowing_prefix_is_refused_without_warnings(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\n" + "\n".join(["1e200", "-1e200"] * 4))
    code = main(["lemma", "--which", "dyadic", "--input", str(seq)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == "condexp: input error: c must be a finite real, got inf\n"


def test_lemma_dyadic_overflowing_average_is_refused_without_warnings(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\n1.5e308\n1.5e308\n")
    code = main(["lemma", "--which", "dyadic", "--input", str(seq)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == ("condexp: input error: the bound 3 sup |b_m - a0| + |c| "
                            "must be a finite real, got inf\n")


def test_lemma_bad_file(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\nnot-a-number\n")
    code = main(["lemma", "--which", "convex-sum", "--input", str(seq)])
    capsys.readouterr()
    assert code == 65


# ---------------------------------------------------------------------------
# sufficiency

def test_sufficiency_positive(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file, "--partition", "sum"])
    assert code == 0
    assert "sufficient" in capsys.readouterr().out


def test_sufficiency_negative_with_witness(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file, "--partition", "first"])
    assert code == 2
    out = capsys.readouterr().out
    assert "not sufficient" in out and "block 0" in out


def test_sufficiency_for_f_prints_g(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file, "--partition", "sum",
                 "--f", "0,1,0,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "g =" in out and "0.5" in out


def test_sufficiency_for_f_g_line_is_each_entry_repr(coin_file, capsys):
    f = np.array([0.1, -0.0, 1 / 3, 2.5e-310])
    code = main(["sufficiency", "--space", coin_file, "--partition", "sum",
                 "--f=" + ",".join(map(repr, f.tolist()))])
    bundle = load_space_file(coin_file)
    g = check_sufficient_for_f(bundle.family, bundle.partition("sum"), f).g
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1] == "g = " + " ".join(map(repr, g.tolist()))


def test_sufficiency_suite_intersection(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file, "--suite", "intersection",
                 "--partitions", "sum,points"])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_sufficiency_suite_hypothesis_not_met(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file, "--suite", "intersection",
                 "--partitions", "first,sum"])
    assert code == 3
    assert "hypothesis not met" in capsys.readouterr().out


def test_sufficiency_suite_reports_split_trajectories(tmp_path, capsys):
    # profiles within tolerance, conditional means of f apart by 3.6e-10
    eps = 0.9e-10
    path = tmp_path / "split.json"
    path.write_text(json.dumps({
        "labels": ["a", "b", "c", "d"],
        "measures": [[0.25] * 4, [0.25 + eps, 0.25 - eps] * 2],
        "partitions": {"all": [[0, 1, 2, 3]]},
    }))
    code = main(["sufficiency", "--space", str(path), "--suite", "intersection",
                 "--partitions", "all,all", "--f", "1,-1,1,-1"])
    assert code == 3
    assert "trajectories split at round 1" in capsys.readouterr().out


def test_sufficiency_suite_chain_and_countable(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file, "--suite", "chain",
                 "--partitions", "points,sum"])
    assert code == 0
    assert capsys.readouterr().out == ("decreasing chain sufficiency: pass\n"
                                       "  stabilizes_at = 1\n"
                                       "  stable_serves_f = True\n")
    code = main(["sufficiency", "--space", coin_file, "--suite", "countable",
                 "--partitions", "sum,points,sum"])
    assert code == 0
    capsys.readouterr()


# Two 4-outcome halves; within each half both measures share one profile, so
# every partition here is sufficient.  The replays end on rounding values.
HALVES = {
    "labels": ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"],
    "measures": [[0.03, 0.06, 0.09, 0.12, 0.175, 0.175, 0.175, 0.175],
                 [0.06, 0.12, 0.18, 0.24, 0.1, 0.1, 0.1, 0.1]],
    "partitions": {"pairs": [[0, 1], [2, 3], [4, 5], [6, 7]],
                   "shifted": [[0], [1, 2], [3], [4], [5, 6], [7]],
                   "halves": [[0, 1, 2, 3], [4, 5, 6, 7]],
                   "points": [[0], [1], [2], [3], [4], [5], [6], [7]]},
}
HALVES_F = "--f=0.3,-1.7,2.9,0.1,5,-2.2,0.7,1.3"
REPLAY = ("intersection sufficiency: pass\n"
          "  meet_sufficient = True\n"
          "  trajectory_divergence = 7.993605777301127e-15\n"
          "  limit_gap = 5.773159728050814e-14\n"
          "  limit_meet_measurable = True\n"
          "  rounds = 89\n")


@pytest.mark.parametrize("args, expected", [
    (["--suite", "intersection", "--partitions", "pairs,shifted"], REPLAY),
    (["--suite", "intersection", "--partitions", "pairs,shifted", HALVES_F],
     "intersection sufficiency: pass\n"
     "  meet_sufficient = True\n"
     "  trajectory_divergence = 8.881784197001252e-16\n"
     "  limit_gap = 4.574118861455645e-14\n"
     "  limit_meet_measurable = True\n"
     "  rounds = 85\n"),
    (["--suite", "countable", "--partitions", "pairs,shifted,halves"],
     "countable intersection sufficiency: pass\n"
     "  final_meet_sufficient = True\n"
     "  pairwise_steps = 2\n"
     + "".join("  " + line + "\n" for line in REPLAY.splitlines()) +
     "  intersection sufficiency: pass\n"
     "    meet_sufficient = True\n"
     "    trajectory_divergence = 8.881784197001252e-16\n"
     "    limit_gap = 0.0\n"
     "    limit_meet_measurable = True\n"
     "    rounds = 2\n"),
    (["--suite", "chain", "--partitions", "points,pairs,halves"],
     "decreasing chain sufficiency: pass\n"
     "  stabilizes_at = 2\n"
     "  stable_serves_f = True\n"),
    (["--partition", "pairs", HALVES_F],
     "sufficient: partition 'pairs' serves every measure\n"
     "g = -1.0333333333333334 -1.0333333333333334 1.3 1.3 1.4000000000000001 "
     "1.4000000000000001 1.0 1.0\n"),
    (["--partition", "halves", HALVES_F],
     "sufficient: partition 'halves' serves every measure\n"
     "g = 0.6000000000000001 0.6000000000000001 0.6000000000000001 0.6000000000000001 "
     "1.2 1.2 1.2 1.2\n"),
], ids=["intersection", "intersection-f", "countable", "chain", "f-pairs", "f-halves"])
def test_sufficiency_stdout_is_pinned_to_the_byte(args, expected, tmp_path, capsys):
    path = tmp_path / "halves.json"
    path.write_text(json.dumps(HALVES))
    code = main(["sufficiency", "--space", str(path)] + args)
    assert (code, capsys.readouterr().out) == (0, expected)


@pytest.mark.parametrize("names, message", [
    ("pairs,shifted", "chain elements 0 and 1 are incomparable"),
    ("halves,pairs", "chain is not decreasing between elements 0 and 1"),
    ("points,pairs,shifted", "chain elements 1 and 2 are incomparable"),
    ("points,halves,pairs", "chain is not decreasing between elements 1 and 2"),
])
def test_sufficiency_chain_order_errors(names, message, tmp_path, capsys):
    path = tmp_path / "halves.json"
    path.write_text(json.dumps(HALVES))
    code = main(["sufficiency", "--space", str(path), "--suite", "chain",
                 "--partitions", names])
    captured = capsys.readouterr()
    assert (code, captured.out) == (65, "")
    assert captured.err == f"condexp: input error: {message}\n"


def test_sufficiency_for_f_with_a_negative_first_entry(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file, "--partition", "sum",
                 "--f=-1,1,1,2"])
    assert code == 0
    assert capsys.readouterr().out.endswith("g = -1.0 1.0 1.0 2.0\n")


def test_sufficiency_requires_partition_or_suite(coin_file, capsys):
    code = main(["sufficiency", "--space", coin_file])
    assert code == 64
    capsys.readouterr()


def test_sufficiency_malformed_space_file(tmp_path, capsys):
    bad = dict(COIN, partitions={"sum": [[0, 1], [1, 2, 3]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["sufficiency", "--space", str(path), "--partition", "sum"])
    assert code == 65
    assert "overlap at index 1" in capsys.readouterr().err


@pytest.mark.parametrize("bad_block", [
    "[0.5, 1]",      # fractional: used to truncate to 0 and pass
    '["a", 1]',      # not a number: used to crash with a traceback
    "[0, 1e400]",    # not finite once parsed: used to crash with a traceback
])
def test_sufficiency_rejects_non_integer_indices(tmp_path, capsys, bad_block):
    text = json.dumps(dict(COIN, partitions={"sum": [[0], [1, 2], [3]], "odd": "BAD"}))
    path = tmp_path / "bad.json"
    path.write_text(text.replace('"BAD"', f"[{bad_block}, [2, 3]]"))
    code = main(["sufficiency", "--space", str(path), "--partition", "sum"])
    assert code == 65
    err = capsys.readouterr().err
    assert "bad partition 'odd'" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# counterexample

def test_refute_prints_witness_and_memberships(capsys):
    code = main(["counterexample", "refute", "--expr", "(a 1 1 +)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "witness point (2,2)" in out
    assert "in candidate set: False" in out
    assert "on the diagonal:  True" in out


def test_refute_bad_expression(capsys):
    code = main(["counterexample", "refute", "--expr", "(a 7 1 +)"])
    assert code == 65
    capsys.readouterr()


def test_truncate_emits_loadable_space_file(tmp_path, capsys):
    out = tmp_path / "trunc.json"
    code = main(["counterexample", "truncate", "--radii", "1,2,3/2",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    bundle = load_space_file(out)
    assert bundle.n == 12
    assert set(bundle.partitions) == {"p1", "p2", "diagonal_field"}
    assert bundle.family.m == 3


def test_truncate_duplicate_radii(capsys):
    code = main(["counterexample", "truncate", "--radii", "1,1"])
    assert code == 65
    capsys.readouterr()


# ---------------------------------------------------------------------------
# common behavior

@pytest.mark.parametrize("argv", [
    # {space}: a valid space file; {bytes}: a file holding b"\xff\xfe"
    ["iterate", "--space", "missing.json", "--partitions", "rows", "--x", "1,2,3,4"],
    ["sufficiency", "--space", "missing.json", "--partition", "rows"],
    ["iterate", "--space", ".", "--partitions", "rows", "--x", "1,2,3,4"],
    ["iterate", "--space", "{bytes}", "--partitions", "rows", "--x", "1,2,3,4"],
    ["iterate", "--space", "{space}", "--partitions", "rows", "--x-file", "{bytes}"],
    ["lemma", "--which", "dyadic", "--input", "{bytes}"],
    *(["counterexample", "truncate", "--radii", f"1,{r}"]
      for r in ("abc", "inf", "nan", "0x10", "True", "1/0")),
])
def test_unreadable_files_and_bad_radii_are_input_errors(argv, space_file, tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bytes.bin").write_bytes(b"\xff\xfe")
    code = main([a.format(space=space_file, bytes="bytes.bin") for a in argv])
    captured = capsys.readouterr()
    assert code == 65 and not captured.out
    assert captured.err.startswith("condexp: input error: ")


def test_refute_bad_radius_message_is_pinned(capsys):
    assert main(["counterexample", "refute", "--expr", "(a 1 1/0 +)"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "condexp: input error: bad radius '1/0': Fraction(1, 0)\n"


def test_usage_error_exit_code_is_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["iterate"])              # missing required flags
    assert exc.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["sufficiency", "--space", "coin.json", "--partition", "sum", "--tol", "1e-3"],
    ["counterexample", "refute", "--expr", "(a 1 1 +)", "--tol", "1e-3"],
    ["lemma", "--which", "dyadic", "--input", "seq.csv", "--max-iter", "5"],
    ["counterexample", "refute", "--expr", "(a 1 1 +)", "--max-iter", "5"],
    ["iterate", "--space", "s.json", "--partitions", "rows", "--x", "1", "--seed", "1"],
    ["lemma", "--which", "dyadic", "--input", "seq.csv", "--seed", "1"],
    ["sufficiency", "--space", "coin.json", "--partition", "sum", "--seed", "1"],
    ["counterexample", "refute", "--expr", "(a 1 1 +)", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["sufficiency", "--partition", "sum", "--max-iter", "5"], "--max-iter"),
    (["sufficiency", "--suite", "chain", "--partitions", "points,sum", "--max-iter", "5"],
     "--max-iter"),
    (["lemma", "--which", "dyadic", "--tol", "1e-3"], "--tol"),
])
def test_flags_a_path_does_not_read_are_usage_errors(argv, flag, coin_file, tmp_path,
                                                     capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("limit=0\n1\n0.5\n0.25\n")
    argv = argv + (["--input", str(seq)] if argv[0] == "lemma" else ["--space", coin_file])
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert not captured.out and flag in captured.err
    # the same run without the flag goes through
    i = argv.index(flag)
    assert main(argv[:i] + argv[i + 2:]) != 64
    capsys.readouterr()


def test_suites_that_read_max_iter_take_it(coin_file, capsys):
    for suite in ("intersection", "countable"):
        assert main(["sufficiency", "--space", coin_file, "--suite", suite,
                     "--partitions", "sum,points", "--max-iter", "5"]) != 64
        assert "usage error" not in capsys.readouterr().err


def test_every_subcommand_has_help_with_exit_codes(capsys):
    for sub in ("iterate", "lemma", "sufficiency", "counterexample"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "65" in out


def test_determinism_byte_identical_reports(coin_file, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    for path in (out1, out2):
        code = main(["sufficiency", "--space", coin_file, "--partition", "first",
                     "--out", str(path)])
        assert code == 2
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point_runs():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "condexp", "counterexample", "refute",
         "--expr", "(c (a 2 1 -))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "witness point" in proc.stdout
