"""Tests of the benchmark's own checkers and bookkeeping.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import random

import pytest

import checks
import run


def parity_table(n: int) -> str:
    return "".join(str(bin(m).count("1") & 1) for m in range(1 << n))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_recount_gives_two_at_every_cut_of_parity(n):
    order = list(range(1, n + 1))
    random.Random(n).shuffle(order)
    assert checks.cut_counts(parity_table(n), order) == [2] * (n - 2)


def test_recount_of_equal_halves():
    # f = [x1 x2 == x3 x4]: four prefixes after x1 x2; after x1 x2 x3 the
    # rest is 0, x4 or not x4.
    table = "".join(str(int((m & 3) == (m >> 2))) for m in range(16))
    assert checks.cut_counts(table, [1, 2, 3, 4]) == [4, 3]


def subfn_csv(name, order, counts):
    lines = ["function,n,order,cut,count"]
    text = " ".join(map(str, order))
    lines += [f"{name},{len(order)},{text},{u},{c}"
              for u, c in enumerate(counts, start=2)]
    return "\n".join(lines) + "\n"


def test_subfn_checker_accepts_and_rejects():
    table = parity_table(5)
    order = [3, 1, 5, 2, 4]
    good = subfn_csv("table", order, [2, 2, 2])
    assert checks.check_subfn(good, "N = 2\n", 0, "table", table) is None
    bad_count = subfn_csv("table", order, [2, 3, 2])
    assert checks.check_subfn(bad_count, "N = 3\n", 0, "table", table)
    assert checks.check_subfn(good, "N = 3\n", 0, "table", table)
    assert checks.check_subfn(good, "N = 2\n", 1, "table", table)
    bad_order = subfn_csv("table", [3, 1, 5, 2, 2], [2, 2, 2])
    assert checks.check_subfn(bad_order, "N = 2\n", 0, "table", table)


def test_mxpj_value_by_hand():
    # k=1, d=2: the output is f_b[f_a[0]].
    assert checks.mxpj_value("0110", 1, 2) == 1
    assert checks.mxpj_value("1010", 1, 2) == 0
    # k=2, d=2, A0=[1,0] A1=[0,1] B0=[1,1] B1=[0,1]: the walk visits
    # A0[0]=1, B0[1]=1, A1[1]^1=0, B1[0]^1=1.
    assert checks.mxpj_value("10011101", 2, 2) == 1


@pytest.mark.parametrize("semantics,value,out", [
    ("deterministic", 1, "0\n"),
    ("nondeterministic", 0, "1\n"),
    ("quantum", 1, "0.000000000\n"),
    ("quantum", 1, "1\n"),
    ("probabilistic", 0, "0.500000000\n"),
])
def test_corrupted_eval_is_a_failure(semantics, value, out):
    assert checks.check_eval(out, 0, semantics, value) is not None


def test_eval_checker_accepts_correct_output():
    assert checks.check_eval("1\n", 0, "deterministic", 1) is None
    assert checks.check_eval("0.000000000\n", 0, "quantum", 0) is None


@pytest.mark.parametrize("out,rc", [
    ("4096 checked, 1 mismatches\nfirst counterexample: 0101\n", 1),
    ("4095 checked, 0 mismatches\n", 0),
    ("4096 checked, 0 mismatches\n", 1),
    ("", 0),
])
def test_corrupted_check_equiv_is_a_failure(out, rc):
    assert checks.check_equiv(out, rc, 4096) is not None
    assert checks.check_equiv("4096 checked, 0 mismatches\n", 0, 4096) is None


def test_validate_checker_names_shape():
    line = "ok: quantum program, n=96, layers=2, width=64\n"
    assert checks.check_validate(line, 0, "quantum", 96, 2, 64) is None
    assert checks.check_validate(line, 0, "quantum", 96, 2, 63)


def outcome(out, rc=0, err=""):
    return run.Outcome(rc=rc, wall=0.1, out=out, err=err,
                       spawned=0.0, attempt=1)


def test_runner_counts_a_corrupted_output_once():
    wl = run.small_n(7)
    ev = next(c for c in wl.rest if c.kind == "eval")
    runner = run.Runner(deadline=0.0)
    for wrong in ("2\n", "", "0.5\n"):
        runner.expect(ev.check(outcome(wrong)), ev, outcome(wrong))
    check = next(c for c in wl.rest if c.kind == "check")
    runner.expect(check.check(outcome("65536 checked, 0 mismatches\n")),
                  check, outcome(""))
    assert runner.failed == {1} and len(runner.failures) == 3


def test_structure_counts_identity_levels_and_nnz():
    doc = {"semantics": "quantum", "levels": [
        {"width_in": 2, "width_out": 2,
         "t0": [{"re": "1.0", "im": "0.0"}, {"re": "0.0", "im": "0.0"},
                {"re": "0.0", "im": "0.0"}, {"re": "1.0", "im": "0.0"}],
         "t1": [{"re": "0.0", "im": "0.0"}, {"re": "1.0", "im": "0.0"},
                {"re": "1.0", "im": "0.0"}, {"re": "0.0", "im": "0.0"}]},
        {"width_in": 2, "width_out": 2,
         "t0": [{"re": "1.0", "im": "0.0"}, {"re": "0.0", "im": "0.0"},
                {"re": "0.0", "im": "0.0"}, {"re": "1.0", "im": "0.0"}],
         "t1": [{"re": "1.0", "im": "0.0"}, {"re": "0.0", "im": "0.0"},
                {"re": "0.0", "im": "0.0"}, {"re": "1.0", "im": "0.0"}]},
    ]}
    s = checks.structure(json.dumps(doc))
    assert s["levels"] == 2 and s["width_profile"] == {2: 3}
    assert s["identity_level_share"] == 0.5 and s["nnz"] == 8


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.LAYER_UNITS
    layer = run._layer_metrics([])
    assert set(layer) | {"trace.overhead_s", "trace.overhead_share"} == \
        set(run.LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
