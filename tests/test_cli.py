"""Command-line interface: codes, formats, reproducibility."""

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kobdd import cli, load_program, validate, width
from kobdd.cli import main

REPO = Path(__file__).resolve().parent.parent
BOUNDS_HEADER = ("chain,k,w,d,constants,reduced_width,"
                 "lhs_log2,rhs_log2,margin,in_regime,note")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build / eval / validate


def test_build_and_eval(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    code, _, err = _run(capsys, ["build", "mxpj:1,2", "-o", path])
    assert code == 0
    assert "width=4" in err and "layers=1" in err
    p = load_program(path)
    assert validate(p).ok and width(p) == 4

    code, out, _ = _run(capsys, ["eval", path, "0000"])
    assert code == 0 and out == "0\n"
    code, out, _ = _run(capsys, ["eval", path, "1001"])
    assert code == 0 and out == "1\n"


def test_build_to_stdout(capsys):
    code, out, _ = _run(capsys, ["build", "mxpj:1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["semantics"] == "deterministic"


def test_build_embeddings_and_probability_output(tmp_path, capsys):
    for emb, expected_zero in (("quantum", "0.000000000\n"),
                               ("prob", "0.000000000\n")):
        path = str(tmp_path / f"{emb}.json")
        code, _, _ = _run(capsys, ["build", f"mxpj:1,2,{emb}", "-o", path])
        assert code == 0
        code, out, _ = _run(capsys, ["eval", path, "0000"])
        assert code == 0 and out == expected_zero
        code, out, _ = _run(capsys, ["eval", path, "1001"])
        assert code == 0 and out == "1.000000000\n"


def test_build_rejections(capsys):
    for descriptor in ("mxpj:1,3", "mxpj:1", "saf:2,2", "mxpj:1,2,magic",
                       "foo:1,2", "saf:2,2,24"):
        code, _, err = _run(capsys, ["build", descriptor])
        assert code == 2, descriptor
        assert "error" in err


def test_build_saf_notes_regime_violation(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    code, _, err = _run(capsys, ["build", "saf:3,4,300", "-o", path])
    assert code == 0
    # 2kw(2w + address bits) = 24 * (8 + 2 + 3) = 312, not below n = 300
    assert "address-capacity" in err and "(312 >= 300)" in err
    assert width(load_program(path)) <= 13


def test_eval_error_paths(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:1,2", "-o", path])
    code, _, err = _run(capsys, ["eval", path, "010"])
    assert (code, err) == (2, "error: input length 3 != n = 4\n")
    code, _, _ = _run(capsys, ["eval", str(tmp_path / "missing.json"), "0000"])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = _run(capsys, ["eval", str(bad), "0000"])
    assert code == 2 and "malformed" in err


@pytest.mark.parametrize("field, value, violation", [
    ("accept", [999], "accept nodes [999] outside 1..4"),
    ("initial", 99, "initial node 99 outside 1..4"),
    ("initial", 0, "initial node 0 outside 1..4"),   # would wrap to node 4
])
@pytest.mark.parametrize("command", ["eval", "check-equiv"])
def test_run_commands_reject_invalid_program(tmp_path, capsys, command,
                                             field, value, violation):
    path = tmp_path / "p.json"
    _run(capsys, ["build", "mxpj:1,2", "-o", str(path)])
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    last = "1001" if command == "eval" else "mxpj:1,2"
    code, out, err = _run(capsys, [command, str(path), last])
    assert (code, out) == (2, "")
    assert err == f"error: invalid program: {violation}\n"


def test_eval_reads_input_file(tmp_path, capsys):
    prog = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:1,2", "-o", prog])
    bits = tmp_path / "x.txt"
    bits.write_text("1001\n")
    code, out, _ = _run(capsys, ["eval", prog, str(bits)])
    assert code == 0 and out == "1\n"


def test_validate_command(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    _run(capsys, ["build", "saf:2,2,57", "-o", path])
    code, out, _ = _run(capsys, ["validate", path])
    assert code == 0 and out.startswith("ok: deterministic")

    doc = json.loads((tmp_path / "p.json").read_text())
    doc["initial"] = 99
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["validate", str(broken)])
    assert code == 2 and "invalid:" in out


def test_validate_deeply_nested_document(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    code, out, err = _run(capsys, ["validate", str(deep)])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed program document: invalid JSON")


def test_validate_semantic_violation(tmp_path, capsys):
    path = str(tmp_path / "q.json")
    _run(capsys, ["build", "mxpj:1,2,prob", "-o", path])
    doc = json.loads((tmp_path / "q.json").read_text())
    doc["levels"][0]["t0"][0] = "0.25"   # column no longer sums to 1
    (tmp_path / "q.json").write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["validate", path])
    assert code == 2 and "column" in out


# ---------------------------------------------------------------------------
# check-equiv


def test_check_equiv_exhaustive(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:2,2", "-o", path])
    code, out, _ = _run(capsys, ["check-equiv", path, "mxpj:2,2"])
    assert code == 0
    assert out == "256 checked, 0 mismatches\n"


def test_check_equiv_detects_corruption(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:1,2", "-o", path])
    doc = json.loads((tmp_path / "p.json").read_text())
    doc["accept"] = sorted(set(range(1, 5)) - set(doc["accept"]))
    (tmp_path / "p.json").write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["check-equiv", path, "mxpj:1,2"])
    assert code == 1
    assert "16 checked, 16 mismatches" in out
    assert "first counterexample: 0000" in out


def test_check_equiv_sampled(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    _run(capsys, ["build", "saf:2,2,57", "-o", path])
    code, out, _ = _run(capsys, ["check-equiv", path, "saf:2,2,57",
                                 "--mode", "sample", "--samples", "800",
                                 "--seed", "7"])
    assert code == 0
    assert out == "800 checked, 0 mismatches\n"
    for samples in ("0", "-5"):
        code, out, err = _run(capsys, ["check-equiv", path, "saf:2,2,57",
                                       "--mode", "sample",
                                       "--samples", samples])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--samples" in err


def test_check_equiv_arity_mismatch(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:1,2", "-o", path])
    code, _, err = _run(capsys, ["check-equiv", path, "xor:3"])
    assert code == 2 and "variables" in err


# ---------------------------------------------------------------------------
# subfn


def test_subfn_identity_order(capsys):
    code, out, err = _run(capsys, ["subfn", "xor:4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "function,n,order,cut,count"
    assert lines[1:] == ["xor:4,4,1 2 3 4,2,2", "xor:4,4,1 2 3 4,3,2"]
    assert "N_theta = 2" in err


@pytest.mark.parametrize("argv,message", [
    (["subfn", "mxpj:1,3", "--order", "id"],
     "error: d = 3 is not a power of two >= 2"),
    (["subfn", "mxpj:0,4"], "error: k must be positive"),
])
def test_subfn_rejects_bad_mxpj_parameters(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_subfn_min_order(capsys):
    code, _, err = _run(capsys, ["subfn", "xor:4", "--order", "min"])
    assert code == 0 and "N = 2" in err


def test_subfn_explicit_order_and_cut(capsys):
    code, out, _ = _run(capsys, ["subfn", "and:4", "--order", "4,3,2,1",
                                 "--cut", "2"])
    assert code == 0
    assert out.strip().split("\n")[1] == "and:4,4,4 3 2 1,2,2"
    code, _, _ = _run(capsys, ["subfn", "and:4", "--cut", "9"])
    assert code == 2
    for order in ("2,1,3", "1,2,3,4,5"):
        code, out, err = _run(capsys, ["subfn", "xor:4", "--order", order])
        assert code == 2 and out == "", order
        assert err.startswith("error:") and "function has 4" in err


# (seed, share of ones, order, counts at cuts 2..11), recorded from the
# size-bucketed lattice; the sparse table has many tied orders
@pytest.mark.parametrize("seed, ones, order, counts", [
    (12, 0.5, "11 12 10 9 7 5 4 3 6 2 1 8",
     (4, 8, 16, 32, 64, 128, 251, 222, 16, 4)),
    (13, 0.02, "10 12 2 1 6 7 11 8 5 4 3 9",
     (4, 8, 15, 24, 31, 33, 25, 15, 6, 3)),
])
def test_subfn_min_order_pinned(tmp_path, capsys, seed, ones, order, counts):
    rng = random.Random(seed)
    table = tmp_path / "t12.tt"
    table.write_text("".join("1" if rng.random() < ones else "0"
                             for _ in range(1 << 12)) + "\n")
    code, out, err = _run(capsys, ["subfn", str(table), "--order", "min"])
    assert code == 0
    assert out == "function,n,order,cut,count\n" + "".join(
        f"t12,12,{order},{u},{c}\n" for u, c in enumerate(counts, start=2))
    assert err == f"N = {max(counts)}\n"


def _pinned_csv(name, n, order, counts):
    return "function,n,order,cut,count\n" + "".join(
        f"{name},{n},{order},{u},{c}\n" for u, c in enumerate(counts, start=2))


# recorded with the packed-row counter that the refinement replaced; n = 16
# reaches the layer code at the guard
@pytest.mark.parametrize("order, order_text, counts, summary", [
    ("min", "13 14 12 11 2 1 10 9 15 8 7 6 5 4 3 16",
     (2, 4, 4, 4, 4, 5, 3, 4, 4, 4, 4, 4, 4, 4), "N = 5"),
    ("id", " ".join(str(v) for v in range(1, 17)),
     (4, 4, 4, 4, 4, 4, 4, 5, 5, 6, 4, 5, 3, 4), "N_theta = 6"),
])
def test_subfn_mxpj_1_4_pinned(capsys, order, order_text, counts, summary):
    code, out, err = _run(capsys, ["subfn", "mxpj:1,4", "--order", order])
    assert code == 0
    assert out == _pinned_csv('"mxpj:1,4"', 16, order_text, counts)
    assert err == summary + "\n"


def test_subfn_min_order_pinned_n14(tmp_path, capsys):
    rng = random.Random(14)
    table = tmp_path / "t14.tt"
    table.write_text("".join("1" if rng.random() < 0.5 else "0"
                             for _ in range(1 << 14)) + "\n")
    code, out, err = _run(capsys, ["subfn", str(table), "--order", "min"])
    assert code == 0
    assert out == _pinned_csv(
        "t14", 14, "11 14 10 9 8 7 6 4 3 1 12 5 2 13",
        (4, 8, 16, 32, 64, 128, 256, 512, 1002, 256, 16, 4))
    assert err == "N = 1002\n"


def _run_in_1gb(argv):
    """``python -m kobdd argv`` in a subprocess with 1 GB of address space."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "kobdd", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120, preexec_fn=limit_memory)


@pytest.mark.parametrize("order", [[], ["--order", "min"],
                                   ["--order", "1,2,3"]])
def test_subfn_checks_n_before_building_an_order(order):
    # without the check, the identity order of 10^8 variables alone
    # exhausts memory; the address-space limit keeps a regression small
    proc = _run_in_1gb(["subfn", "and:100000000", *order])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: n = 100000000 exceeds the 2^n "
                           "materialization guard of 16\n")


@pytest.mark.parametrize("cut, message", [
    ("99", "cut must satisfy 1 < u < 16"),
    ("1", "cut must satisfy 1 < u < 16"),
    ("x", "invalid literal for int() with base 10: 'x'"),
])
def test_subfn_checks_cut_before_counting(capsys, monkeypatch, cut, message):
    def never(*args):
        raise AssertionError("counted before the cut was checked")

    monkeypatch.setattr(cli, "optimal_order", never)
    monkeypatch.setattr(cli, "subfunction_profile", never)
    for order in ("min", "id"):
        code, out, err = _run(capsys, ["subfn", "mxpj:1,4", "--order", order,
                                       "--cut", cut])
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["build", "mxpj:1,4096"],
    ["bounds", "hi-n", "--k", "2:10000000000", "--w", "8"]])
def test_out_of_memory_exits_2(argv):
    proc = _run_in_1gb(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: out of memory\n")


def test_subfn_truth_table_file(tmp_path, capsys):
    table = tmp_path / "parity3.tt"
    table.write_text("01101001\n")
    code, out, err = _run(capsys, ["subfn", str(table), "--order", "min"])
    assert code == 0 and "N = 2" in err
    assert "parity3" in out

    short = tmp_path / "short.tt"
    short.write_text("011")
    code, _, _ = _run(capsys, ["subfn", str(short)])
    assert code == 2


# ---------------------------------------------------------------------------
# bounds


def test_bounds_small_grid(capsys):
    code, out, err = _run(capsys, ["bounds", "hi-n", "--k", "2", "--w",
                                   "8,64"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == BOUNDS_HEADER
    assert lines[1].startswith("hi-n,2,8,,C=1;C1=8;C2=1;C3=1,")
    assert ",0.585786,1," in lines[1]
    assert ",76.000000,1," in lines[2]
    assert "all positive" in err


def test_bounds_axis_syntax(capsys):
    code, out, _ = _run(capsys, ["bounds", "hi-n", "--k", "2:4", "--w",
                                 "8:32:x2"])
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3 * 3


def test_bounds_negative_margin_exits_one(capsys):
    code, out, err = _run(capsys, ["bounds", "s5-pobdd", "--k", "2",
                                   "--d", "1024"])
    assert code == 1
    assert "not all positive" in err
    assert "depends on C2, C3" in out


def test_bounds_out_of_regime_flagged_not_fatal(capsys):
    code, out, _ = _run(capsys, ["bounds", "hi-q", "--k", "4", "--d",
                                 "16,64"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert rows[0].split(",")[9] == "0"    # d=16 below the regime
    assert rows[1].split(",")[9] == "1"


def test_bounds_default_grid_runs_fast(capsys):
    import time
    start = time.monotonic()
    code, out, _ = _run(capsys, ["bounds", "s5-nobdd"])
    assert code == 0
    assert time.monotonic() - start < 1.0
    assert len(out.strip().split("\n")) == 1 + 17 * 63


def test_bounds_all_chains(capsys):
    code, out, _ = _run(capsys, ["bounds", "all"])
    assert code == 1   # the constant-burdened chains dip negative
    for chain in ("hi-n", "hi-p", "hi-q", "s5-obdd", "s5-nobdd",
                  "s5-pobdd", "h-kobdd"):
        assert f"{chain}," in out
    code, _, _ = _run(capsys, ["bounds", "all", "--k", "2"])
    assert code == 2   # explicit axes need a single chain


def test_bounds_usage_errors(capsys):
    assert _run(capsys, ["bounds", "nope"])[0] == 2
    assert _run(capsys, ["bounds", "hi-n", "--d", "8"])[0] == 2
    assert _run(capsys, ["bounds", "s5-obdd", "--w", "8"])[0] == 2
    assert _run(capsys, ["bounds", "hi-n", "--w", "bad"])[0] == 2
    assert _run(capsys, ["bounds", "hi-n", "--constants", "C5=1"])[0] == 2


@pytest.mark.parametrize("token", ["C=inf", "C2=1e400", "C1=nan"])
def test_bounds_rejects_non_finite_constants(capsys, token):
    code, out, err = _run(capsys, ["bounds", "hi-p", "--k", "2", "--w", "64",
                                   "--constants", token])
    assert code == 2 and out == ""
    assert err == "error: constants must be finite\n"


def test_bounds_custom_constants(capsys):
    code, out, _ = _run(capsys, ["bounds", "hi-q", "--k", "2", "--d", "64",
                                 "--constants", "C=2,C1=16"])
    assert code == 0
    assert "C=2;C1=16;C2=1;C3=1" in out


# ---------------------------------------------------------------------------
# determinism, files, plumbing


# SHA-256 of the files written by the stdlib json.dumps(indent=1) encoder
@pytest.mark.parametrize("descriptor, digest", [
    ("mxpj:1,4",
     "ea18980bf6da8c09271a589896fa7ebe0b99fae451d810a9eb2e9102e55af881"),
    ("mxpj:1,4,nondet",
     "72d88584a4f77c144a5d8aff03917bed3616efe5e21271f6fc127c482eaed907"),
    ("mxpj:1,4,prob",
     "d484a5ea1ebe536808d638e4626d1c4f5e6e72c1f18dbd826dfae2a5a41783dc"),
    ("mxpj:1,4,quantum",
     "01e370d24f2463bf986d6ddd0ed28adb3a14f00e8d3bb73f5217a6183928bcdd"),
    ("mxpj:2,8,quantum",
     "378e7229fbaf8c715e3f07be4794cd69f9920f6e196008730da3ad4e35f3a169"),
])
def test_build_files_are_pinned(tmp_path, capsys, descriptor, digest):
    path = tmp_path / "p.json"
    code, _, _ = _run(capsys, ["build", descriptor, "-o", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["bounds", "hi-n"]
    first = _run(capsys, args)
    second = _run(capsys, args)
    assert first == second

    prog = str(tmp_path / "p.json")
    _run(capsys, ["build", "saf:2,2,57", "-o", prog])
    args = ["check-equiv", prog, "saf:2,2,57", "--mode", "sample",
            "--samples", "300", "--seed", "11"]
    assert _run(capsys, args) == _run(capsys, args)


def test_out_file_matches_stdout(tmp_path, capsys):
    _, piped, _ = _run(capsys, ["bounds", "hi-n", "--k", "2", "--w", "8"])
    path = tmp_path / "m.csv"
    code, out, _ = _run(capsys, ["bounds", "hi-n", "--k", "2", "--w", "8",
                                 "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text() == piped


def test_help_and_missing_command(capsys):
    assert _run(capsys, ["--help"])[0] == 0
    assert _run(capsys, [])[0] == 2


def _toml_parser():
    if sys.version_info >= (3, 11):
        import tomllib
        return tomllib
    return pytest.importorskip("tomli")


def _run_ok(cmd, env):
    proc = subprocess.run(cmd, capture_output=True, env=env)
    assert proc.returncode == 0, (
        f"{cmd} exited {proc.returncode}; stderr:\n"
        + proc.stderr.decode(errors="replace"))
    return proc


def test_console_script_installed():
    """The ``kobdd`` entry point declared in pyproject.toml, ``python -m
    kobdd`` and, where one is on PATH, the installed script all run
    ``bounds`` from this checkout with exit 0 and the same stdout bytes."""
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = _toml_parser().load(fh)["project"]
    target = project.get("scripts", {}).get("kobdd")
    assert target, "pyproject.toml declares no [project.scripts] kobdd"
    module, _, attr = target.partition(":")
    assert module and attr.isidentifier(), (
        f"kobdd = {target!r} is not a module:attr target")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    argv = ["bounds", "hi-n", "--k", "2", "--w", "8"]
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    declared = _run_ok([sys.executable, "-c", wrapper, *argv], env)
    assert declared.stdout.decode().startswith(BOUNDS_HEADER)

    as_module = _run_ok([sys.executable, "-m", "kobdd", *argv], env)
    assert as_module.stdout == declared.stdout

    installed = shutil.which("kobdd")
    if installed is not None:
        assert _run_ok([installed, *argv], env).stdout == declared.stdout


@pytest.mark.parametrize("args, chain", [
    (["hi-q", "--k", "2", "--d", "64", "--constants", "C1=1e308"], "hi-q"),
    (["hi-p", "--k", "2", "--w", "64", "--constants", "C1=1e308"], "hi-p"),
    (["s5-pobdd", "--k", "2", "--d", "64", "--constants", "C3=1e308"],
     "s5-pobdd")])
def test_bounds_rejects_overflowing_constants(capsys, args, chain):
    code, out, err = _run(capsys, ["bounds", *args])
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {chain} at k=2, ")
    assert "not finite" in err
