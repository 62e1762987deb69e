"""Command-line interface: codes, formats, reproducibility."""

import hashlib
import json
import mmap
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import kobdd
from conftest import random_program
from kobdd import (cli, constructions, load_program, program, serialize,
                   validate, width)
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


# one reader of "family:params" for every command; build also strips an
# embedding suffix first, and the other commands read an existing file as
# a truth table
@pytest.mark.parametrize("command", ["build", "check-equiv", "subfn"])
@pytest.mark.parametrize("descriptor, message", [
    ("mxpj:1,x", "bad parameters in descriptor 'mxpj:1,x'"),
    ("saf:2,x,57", "bad parameters in descriptor 'saf:2,x,57'"),
    ("mxpj:1,2,magic", "bad parameters in descriptor 'mxpj:1,2,magic'"),
    ("mxpj:1", "mxpj takes 2 parameters, got 1"),
    ("saf:2,2,57,9", "saf takes 3 parameters, got 4"),
    ("foo:1,2", "unknown function family 'foo'; choose from {}")])
def test_every_command_reads_descriptors_alike(tmp_path, capsys, command,
                                               descriptor, message):
    prog = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:1,2", "-o", prog])
    argv = ([command, prog, descriptor] if command == "check-equiv"
            else [command, descriptor])
    families = "mxpj, saf" if command == "build" else "and, mxpj, saf, xor"
    assert _run(capsys, argv) == (2, "",
                                  f"error: {message.format(families)}\n")


@pytest.mark.parametrize("descriptor, message", [
    ("mxpj", "bad function descriptor 'mxpj' (expected name:params)"),
    ("saf:2,2,quantum", "saf takes 3 parameters, got 2"),
    ("mxpj:1,x,prob", "bad parameters in descriptor 'mxpj:1,x'"),
    ("quantum", "bad function descriptor 'quantum' (expected name:params)"),
])
def test_build_reads_the_descriptor_left_of_an_embedding(capsys, descriptor,
                                                         message):
    assert _run(capsys, ["build", descriptor]) == (2, "",
                                                   f"error: {message}\n")


@pytest.mark.parametrize("emb", ["nondet", "prob"])
def test_build_embeds_saf_programs(tmp_path, capsys, emb):
    path = str(tmp_path / "s.json")
    code, _, err = _run(capsys, ["build", f"saf:2,2,57,{emb}", "-o", path])
    p = load_program(path)
    assert code == 0 and err == (f"{p.semantics} program: n=57 layers=4 "
                                 f"width={width(p)}\n")
    assert _run(capsys, ["check-equiv", path, "saf:2,2,57", "--mode",
                         "sample", "--samples", "2000", "--seed", "3"]) \
        == (0, "2000 checked, 0 mismatches\n", "")


def test_build_saf_quantum_is_not_reversible(capsys):
    with pytest.raises(constructions.NonReversibleError) as raised:
        constructions.compile_to_quantum(
            constructions.build_saf_2k_obdd(2, 2, 57))
    assert _run(capsys, ["build", "saf:2,2,57,quantum"]) == (
        2, "", f"error: {raised.value}\n")


def test_build_prints_no_summary_before_a_failed_write(tmp_path, capsys):
    path = tmp_path / "missing" / "p.json"
    assert _run(capsys, ["build", "mxpj:1,2", "-o", str(path)]) == (
        2, "", f"error: [Errno 2] No such file or directory: '{path}'\n")


@pytest.mark.parametrize("function, n", [("xor:0", 0), ("and:-4", -4)])
@pytest.mark.parametrize("command", ["check-equiv", "subfn"])
def test_family_sizes_below_one_are_rejected(tmp_path, capsys, command,
                                             function, n):
    prog = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:1,2", "-o", prog])
    argv = ([command, prog, function] if command == "check-equiv"
            else [command, function])
    assert _run(capsys, argv) == (2, "", f"error: n must be positive, "
                                         f"got {n}\n")


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


@pytest.mark.parametrize("command, message", [
    ("eval", "not a 0/1 string: ''"),
    ("check-equiv", "bad function descriptor '' (expected name:params)"),
    ("subfn", "bad function descriptor '' (expected name:params)"),
])
def test_empty_argument_is_an_empty_literal(tmp_path, capsys, monkeypatch,
                                            command, message):
    prog = str(tmp_path / "p.json")
    _run(capsys, ["build", "mxpj:1,2", "-o", prog])
    monkeypatch.chdir(tmp_path)     # '' must not be read as a path
    argv = [command, ""] if command == "subfn" else [command, prog, ""]
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("edit, report", [
    (lambda doc: doc.update(order=[1, 2, 3]),
     "invalid: order has 3 entries, n = 4\n"),
    (lambda doc: doc["levels"][1].update(var=1),
     "invalid: layer 1 does not test each variable once\n"),
    (lambda doc: doc["levels"][3].update(var=9),
     "invalid: layer 1 does not test each variable once\n"
     "invalid: levels[3]: variable 9 out of range\n"),
], ids=["short-order", "variable-twice", "variable-9"])
def test_validate_reports_order_faults(tmp_path, capsys, edit, report):
    path = tmp_path / "p.json"
    _run(capsys, ["build", "mxpj:1,2", "-o", str(path)])
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert _run(capsys, ["validate", str(path)]) == (2, report, "")


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


@pytest.mark.parametrize("descriptor", [
    f"mxpj:{size},{emb}" for size in ("1,4", "2,4")
    for emb in ("nondet", "prob", "quantum")])
def test_built_embeddings_read_as_tuples_and_take_no_matrix_check(
        tmp_path, capsys, monkeypatch, descriptor):
    path = str(tmp_path / "p.json")
    assert _run(capsys, ["build", descriptor, "-o", path])[0] == 0
    p = load_program(path)
    assert all(type(t) is tuple for l in p.levels for t in (l.t0, l.t1))
    calls = []
    monkeypatch.setattr(program, "_matrix_faults",
                        lambda *args: calls.append(args) or [])
    assert validate(p).ok
    assert _run(capsys, ["validate", path])[:2] == (0, f"ok: {p.semantics} "
        f"program, n={p.n}, layers={p.k}, width={width(p)}\n")
    assert calls == []


def _bend(doc: dict, rng: random.Random, how: str) -> tuple[int, str]:
    """Bend one entry of a random branch of a built 0/1 matrix document
    out of being a 0/1 function, in place; (level, branch) bent."""
    i = rng.randrange(len(doc["levels"]))
    which = rng.choice(["t0", "t1"])
    level = doc["levels"][i]
    w, col, entries = level["width_in"], rng.randrange(level["width_in"]), \
        level[which]
    quantum = isinstance(entries[0], dict)

    def put(row, part, text):
        if quantum:
            entries[row * w + col][part] = text
        else:
            entries[row * w + col] = text

    hot = next(r for r in range(w) if (entries[r * w + col]["re"] if quantum
                                       else entries[r * w + col]) == "1.0")
    cold = (hot + rng.randrange(1, w)) % w
    {"negative zero": lambda: put(cold, "re", "-0.0"),
     "above one": lambda: put(hot, "re", "1.0000000000000002"),
     "im negative zero": lambda: put(hot, "im", "-0.0"),
     "two ones": lambda: put(cold, "re", "1.0"),
     "no one": lambda: put(hot, "re", "0.0")}[how]()
    return i, which


@pytest.mark.parametrize("emb, how, code", [
    (emb, how, code) for emb in ("prob", "quantum")
    for how, code in (("negative zero", 0), ("above one", 0),
                      ("im negative zero", 0), ("two ones", 2),
                      ("no one", 2))
    if emb == "quantum" or how != "im negative zero"])
def test_near_function_entries_read_dense_and_validate_in_one_line(
        tmp_path, capsys, emb, how, code):
    path = tmp_path / "p.json"
    assert _run(capsys, ["build", f"mxpj:1,2,{emb}", "-o", str(path)])[0] == 0
    built = path.read_text()
    rng = random.Random(f"{emb} {how}")
    for _ in range(4):
        doc = json.loads(built)
        i, which = _bend(doc, rng, how)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path.write_text(text + "\n")
        got, out, err = _run(capsys, ["validate", str(path)])
        assert (got, err) == (code, "") and len(out.splitlines()) == 1
        assert out.startswith("ok: " if code == 0
                              else f"invalid: levels[{i}].{which}: ")
        # only the bent branch is an ndarray, in both reads alike
        p = program._read_layout(text)
        assert [(j, t) for j, l in enumerate(p.levels) for t in ("t0", "t1")
                if not isinstance(getattr(l, t), tuple)] == [(i, which)]
        whole = program.deserialize(json.dumps(doc))    # json.loads path
        assert p.structurally_equal(whole) and whole.structurally_equal(p)


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("emb", ["", ",nondet", ",prob", ",quantum"])
def test_validate_reads_a_file_as_utf8_text(tmp_path, capsys, emb):
    """A file is read as text mode reads it: UTF-8 with universal
    newlines, so CRLF and CR copies of a built file are the same program,
    and a BOM, an invalid byte or a non-JSON byte anywhere is an error."""
    path = tmp_path / "p.json"
    _run(capsys, ["build", f"mxpj:1,2{emb}", "-o", str(path)])
    data = path.read_bytes()
    ok = _run(capsys, ["validate", str(path)])
    assert ok[0] == 0
    head = data.index(b'"semantics"') + 4
    body = data.index(b'"t0":') + len(b'"t0":')
    end = data.index(b',"t1":', body)
    line = data.count(b"\n", 0, body) + 1
    column = body - data.rfind(b"\n", 0, body)

    def bad_byte(at):
        return (2, "", f"error: malformed program document: 'utf-8' codec "
                       f"can't decode byte 0xff in position {at}: invalid "
                       f"start byte\n")

    def not_json(shift):
        return (2, "", f"error: malformed program document: invalid JSON: "
                       f"Expecting value: line {line} column "
                       f"{column + shift} (char {body + shift})\n")

    cases = {
        "crlf": (data.replace(b"\n", b"\r\n"), ok),
        "cr": (data.replace(b"\n", b"\r"), ok),
        "bom": (_BOM + data, (2, "", "error: malformed program document: "
                              "invalid JSON: Unexpected UTF-8 BOM (decode "
                              "using utf-8-sig): line 1 column 1 (char 0)\n")),
        "bad byte in the header": (data[:head] + b"\xff" + data[head:],
                                   bad_byte(head)),
        "bad byte in a transition": (data[:body + 3] + b"\xff"
                                     + data[body + 3:], bad_byte(body + 3)),
        # each is JSON to json.loads of the bytes, but not of the text
        "bom before a transition": (data[:body] + _BOM + data[body:],
                                    not_json(0)),
        "utf-16 transition": (data[:body] + data[body:end].decode()
                              .encode("utf-16-le") + data[end:], not_json(1)),
    }
    for name, (copy, want) in cases.items():
        path.write_bytes(copy)
        assert _run(capsys, ["validate", str(path)]) == want, name


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


# n = 16, at the guard: the random table's lattice stops at its first
# saturated layer, and and:16 ranks every row from a small parent count
@pytest.mark.parametrize("function, name, order_text, counts", [
    ("t16.tt", "t16", "15 16 11 10 9 8 7 5 4 3 2 1 13 12 6 14",
     (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3935, 256, 16, 4)),
    ("and:16", "and:16", "14 15 13 12 11 10 9 8 7 6 5 4 3 2 1 16",
     (2,) * 14),
])
def test_subfn_min_order_pinned_n16(tmp_path, capsys, monkeypatch, function,
                                    name, order_text, counts):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(16)
    (tmp_path / "t16.tt").write_text("".join(
        "1" if rng.random() < 0.5 else "0" for _ in range(1 << 16)) + "\n")
    assert _run(capsys, ["subfn", function, "--order", "min"]) == (
        0, _pinned_csv(name, 16, order_text, counts), f"N = {max(counts)}\n")


# Runs python -m kobdd on argv as a child of this small process and prints
# the child's exit code and ru_maxrss.  A child forked from the test
# process itself starts in a copy of its memory map, and Linux keeps that
# map's peak in the child's ru_maxrss across exec.
_CHILD_RSS = """
import os, subprocess, sys
with subprocess.Popen([sys.executable, "-m", "kobdd", *sys.argv[1:]],
                      stdout=subprocess.DEVNULL,
                      stderr=subprocess.DEVNULL) as proc:
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_subfn_min_order_peak_rss_at_n16(tmp_path):
    # the lattice's two largest layers hold 8.9M and 8.2M ids, 33 MiB as
    # uint16; numpy's import and the interpreter take most of the rest
    rng = random.Random(16)
    table = tmp_path / "t16.tt"
    table.write_text("".join("1" if rng.random() < 0.5 else "0"
                             for _ in range(1 << 16)) + "\n")
    proc = _fresh(["-c", _CHILD_RSS], "subfn", str(table), "--order", "min")
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0 and maxrss_kib <= 85 << 10, proc.stderr


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
    ("x", "--cut needs an integer, got 'x'"),
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
    ["build", "mxpj:1,64,quantum"]])      # within the node budget
def test_out_of_memory_exits_2(argv):
    proc = _run_in_1gb(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: out of memory\n")


@pytest.mark.parametrize("descriptor, levels, width", [
    ("mxpj:1,4096", 98304, 4096 * 4096),
    ("saf:1,2,100000000", 200000000, 9)])
def test_builders_check_their_budget_first(descriptor, levels, width):
    # without the check both run out of the 1 GB of address space
    proc = _run_in_1gb(["build", descriptor])
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"error: {levels} levels of up to {width} nodes exceed the "
                f"build budget of {constructions.NODE_LIMIT} nodes\n")


@pytest.mark.parametrize("axes, name", [
    (["--k", "2:10000000000", "--w", "8"], "--k"),
    (["--k", "2", "--w", "1:10" + "0" * 4000 + ":x2"], "--w"),
    (["--k", "1,2:10001", "--w", "8"], "--k")],
    ids=["range", "geometric", "list"])
def test_bounds_axis_budget(axes, name):
    # counted before any point is built: the address-space limit keeps a
    # regression that builds the range small
    proc = _run_in_1gb(["bounds", "hi-n", *axes])
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"error: {name} axis has more than {cli.AXIS_LIMIT} "
                "points\n")


def test_bounds_grid_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GRID_LIMIT", 6)
    assert _run(capsys, ["bounds", "hi-n", "--k", "2:4", "--w",
                         "8,16"])[0] == 0
    assert _run(capsys, ["bounds", "hi-n", "--k", "2:4", "--w",
                         "8,16,32"]) == \
        (2, "", "error: grid has 9 points, more than 6\n")
    # every chain of "all" counts against one budget
    monkeypatch.setattr(cli, "GRID_LIMIT", 5606)
    assert _run(capsys, ["bounds", "all"]) == \
        (2, "", "error: grid has 5607 points, more than 5606\n")
    monkeypatch.undo()
    proc = _run_in_1gb(["bounds", "hi-n", "--k", "1:10000", "--w",
                        "2:12"])
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"error: grid has 110000 points, more than "
                f"{cli.GRID_LIMIT}\n")


def test_bounds_error_late_in_the_grid_leaves_no_output(tmp_path, capsys):
    # the last of the four points overflows; the rows before it are not
    # written, to stdout or to --out
    args = ["bounds", "s5-pobdd", "--k", "2,64", "--d", "16,1048576",
            "--constants", "C3=1e300"]
    path = tmp_path / "b.csv"
    for out in ([], ["-o", str(path)]):
        code, stdout, err = _run(capsys, args + out)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: s5-pobdd at k=64, d=1048576: ")
    assert not path.exists()


def test_bounds_all_is_pinned(capsys):
    code, out, err = _run(capsys, ["bounds", "all"])
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "43f0cf87cc3b6b680f0dbd96de21408f22ba1b8acd02abec3d6597a03fb33847"
    assert err.startswith("5607 rows, minimum margin ")


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


def test_an_existing_file_is_a_truth_table_even_with_a_colon(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run(capsys, ["build", "mxpj:1,2", "-o", "p.json"])
    (tmp_path / "x:y.tt").write_text("0000101001011111\n")   # mxpj:1,2
    for arg in ("x:y.tt", "./x:y.tt"):
        assert _run(capsys, ["subfn", arg, "--cut", "2"]) == (
            0, "function,n,order,cut,count\nx:y,4,1 2 3 4,2,2\n",
            "N_theta = 3\n")
    assert _run(capsys, ["check-equiv", "p.json", "./x:y.tt"]) == (
        0, "16 checked, 0 mismatches\n", "")
    # no file by that name, or too long a name for a file: a descriptor
    code, out, _ = _run(capsys, ["subfn", "mxpj:1,4", "--cut", "2"])
    assert code == 0 and out.splitlines()[1].startswith('"mxpj:1,4",16,')
    long = "xor:" + "0" * 300 + "4"
    assert _run(capsys, ["subfn", long, "--cut", "2"])[:2] == (
        0, "function,n,order,cut,count\nxor:4,4,1 2 3 4,2,2\n")


@pytest.mark.parametrize("argv, message", [
    (["bounds", "hi-n", "--w", "8:16:2:4"], "bad range '8:16:2:4'"),
    (["bounds", "hi-n", "--w", "8:64:x1"], "bad geometric range '8:64:x1'"),
    (["bounds", "hi-n", "--w", "8:64:+0"], "bad range stride '8:64:+0'"),
    (["bounds", "hi-n", "--w", "64:8"], "empty axis"),
    (["bounds", "hi-n", "--w", ""], "empty axis"),
    (["bounds", "hi-n", "--w", " "], "empty axis"),
    (["bounds", "hi-n", "--k", ""], "empty axis"),
    (["bounds", "all", "--k", ""], "explicit axes need a single chain"),
    (["bounds", "all", "--d", "16"], "explicit axes need a single chain"),
    (["bounds", "hi-n", "--constants", "C5=1"],
     "bad constants token 'C5=1'; expected C=..., C1=..., C2=..., C3=..."),
    (["subfn", "t.tt"], "t.tt: expected a 0/1 truth-table string"),
    # every number a flag takes names the flag and the token
    (["bounds", "hi-n", "--w", "8,"], "--w needs an integer, got ''"),
    (["bounds", "hi-n", "--w", "bad"], "--w needs an integer, got 'bad'"),
    (["bounds", "hi-n", "--k", "2:x"], "--k needs an integer, got 'x'"),
    (["bounds", "hi-n", "--w", "8:64:xq"], "--w needs an integer, got 'q'"),
    (["bounds", "hi-n", "--w", "8:64:+q"], "--w needs an integer, got 'q'"),
    (["bounds", "hi-q", "--d", "x:64"], "--d needs an integer, got 'x'"),
    (["bounds", "hi-n", "--constants", "C=x"],
     "--constants needs a number, got 'x'"),
    (["subfn", "xor:4", "--order", "1,2,x"],
     "--order needs an integer, got 'x'"),
    (["check-equiv", "p.json", "mxpj:1,2", "--mode", "sample", "--seed",
      "-1"], "--seed needs a non-negative integer, got '-1'"),
    # a refused saf build prints no regime note
    (["build", "saf:1,1000,24000"], "48000 levels of up to 4001 nodes "
     "exceed the build budget of 10000000 nodes"),
    (["build", "saf:2,2,40,quantum"],
     "level 1: width 1->2 breaks the constant width 1")],
    ids=["range", "geometric", "stride", "empty-range", "empty-w",
         "blank-w", "empty-k", "all-empty-k", "all-d", "constants",
         "truth-table", "w-trailing-comma", "w-word", "k-range-end",
         "w-factor", "w-stride", "d-range-start", "constants-value",
         "order-token", "negative-seed", "saf-over-budget",
         "saf-not-reversible"])
def test_usage_errors_are_one_line(tmp_path, capsys, monkeypatch, argv,
                                   message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.tt").write_text("0120\n")
    assert _run(capsys, ["build", "mxpj:1,2", "-o", "p.json"])[0] == 0
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


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


# SHA-256 of the files written by the stdlib encoder,
# json.dumps(doc, sort_keys=True, separators=(",", ":")) and a newline;
# a test is named by its descriptor alone, so a re-pin keeps its name
_BUILD_DIGESTS = {
    "mxpj:1,4":
        "e216f3e734e1d71425f8d74b15fcbee2a9c2e32882e2f97bb3ab97774b98b00f",
    "mxpj:1,4,nondet":
        "5fbf7669ed0059dd6be736791047b9f4c70538269d41d5fad00025043d85ef78",
    "mxpj:1,4,prob":
        "8ee9a63b58a1eff3094da5245c1cd2c7d54ed4ff8105e48ef676edb3455eca2d",
    "mxpj:1,4,quantum":
        "abccb631f4ded59de221b691744ca0d0367f20b44498722432f45a1ad63457f3",
    "mxpj:2,8,quantum":
        "07194e2345cbffdb36fee13952e2418a41f692b6a64c40230a8919f79f0dd780",
    "mxpj:2,8":
        "77c9ae216384ca58b099368b57229b4d1df7a1048c1fb77772820eb187e531c5",
    "mxpj:2,8,nondet":
        "1a2eb99bc69a97d247f3f965364b036e9e147557f07adf14bd05efe45fe738d9",
    "mxpj:2,8,prob":
        "e71a696df457e9146542e101c1a578f564c24740cb99dffc87a9a14fb679f330",
    "saf:3,4,300":
        "f74ee10ff4e681654e8d9f79fd234f7946f9ce89ee40036a9357b3d74dac11a7",
    # no step-address bits: the search compares the slot field first
    "saf:1,2,12":
        "ac96a5bc9942a39310cec33f6bc3685e3b901958d9bae02d224d2560d5524c9e",
    # w = 1: every value is 0 mod w, so nothing accepts
    "saf:2,1,40":
        "40a6f3e06f9bc347426f2d9d8115d7b2810842510ea520e3070ef5775e6e303a",
    # width 9 = 4w+1: the fourth matching status
    "saf:5,2,120":
        "d4f9d71c092913fb41256b60cd81c74fdf219d72f3a802d52d01c3ac1e86c2fc",
    # width 12 > 3w+1
    "saf:3,3,126":
        "9dc9e434582684dbe32ae9c4d228751a954242cc1948d667d29b28ad5e02bba9",
    # one-hot branches that merge nodes, leave rows empty and change width
    "saf:2,2,57,prob":
        "6fddbc67ca3b3762ac8fbb68bd1c800435cf97e41d0ea53c18cb08782c62b2bb",
    "saf:3,4,300,prob":
        "14d63357055d7aa34ce422fb179e0d55edf20cc8c6d039e1c08a3786c66d553e",
}


@pytest.mark.parametrize("descriptor", list(_BUILD_DIGESTS))
def test_build_files_are_pinned(tmp_path, capsys, descriptor):
    path = tmp_path / "p.json"
    code, _, _ = _run(capsys, ["build", descriptor, "-o", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        _BUILD_DIGESTS[descriptor]


@pytest.mark.parametrize("descriptor", ["mxpj:1,4,quantum", "saf:2,2,57"])
def test_build_stdout_matches_out_file(tmp_path, capsys, descriptor):
    path = tmp_path / "p.json"
    code, out, _ = _run(capsys, ["build", descriptor])
    assert code == 0
    assert _run(capsys, ["build", descriptor, "-o", str(path)])[:2] == (0, "")
    text = path.read_text()
    assert text == out == serialize(load_program(str(path))) + "\n"
    program.save_program(load_program(str(path)), str(tmp_path / "s.json"))
    assert (tmp_path / "s.json").read_bytes() == path.read_bytes()


class _Spy:
    """A text file that keeps what is written to it, one item a write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_long_texts_are_written_in_short_slices(monkeypatch):
    text = serialize(constructions.compile_to_quantum(
        constructions.build_mxpj_id_obdd(4, 4)))
    spy = _Spy()
    program._write_sliced(spy, text, "\n")
    assert "".join(spy.writes) == text + "\n"
    assert len(spy.writes) > 20
    assert max(map(len, spy.writes)) == 65_536
    monkeypatch.setattr(sys, "stdout", spy := _Spy())
    assert main(["build", "mxpj:4,4,quantum"]) == 0
    assert "".join(spy.writes) == text + "\n"
    assert max(map(len, spy.writes)) == 65_536


def test_save_program_never_encodes_the_whole_text(tmp_path, monkeypatch):
    p = constructions.compile_to_quantum(
        constructions.build_mxpj_id_obdd(2, 4))
    text = serialize(p)
    monkeypatch.setattr(program, "serialize", lambda q: text)
    path = tmp_path / "p.json"
    tracemalloc.start()
    try:
        program.save_program(p, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == text + "\n"
    assert peak < path.stat().st_size / 4


def test_cli_resolves_every_public_name_as_the_package_does():
    for name in kobdd.__all__:
        if name != "__version__":
            assert cli.__getattr__(name) is getattr(kobdd, name), name
    with pytest.raises(AttributeError):
        cli.__getattr__("no_such_name")


@pytest.mark.parametrize("descriptor", [
    f"mxpj:{size}{emb}" for size in ("1,4", "2,8")
    for emb in ("", ",nondet", ",prob", ",quantum")] + ["saf:2,2,57",
                                                      "saf:3,4,300"])
def test_built_files_take_the_layout_read(tmp_path, capsys, monkeypatch,
                                          descriptor):
    path = tmp_path / "p.json"
    assert _run(capsys, ["build", descriptor, "-o", str(path)])[0] == 0
    text = path.read_text()
    lengths = []
    loads = json.loads

    def spy(s, *args, **kwargs):
        lengths.append(len(s))
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    p = load_program(str(path))
    assert lengths and max(lengths) < len(text) // 2   # no whole-text parse
    monkeypatch.undo()
    assert serialize(p) + "\n" == text


@pytest.mark.parametrize("descriptor", [
    f"mxpj:{size}{emb}" for size in ("1,2", "2,4")
    for emb in ("", ",nondet", ",prob", ",quantum")])
def test_a_file_reads_alike_as_str_bytes_and_map(tmp_path, capsys,
                                                 descriptor):
    path = tmp_path / "p.json"
    assert _run(capsys, ["build", descriptor, "-o", str(path)])[0] == 0
    with open(path, "rb") as fh, \
            mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
        mapped = program.deserialize(data)
    reads = [program.deserialize(path.read_text()),
             program.deserialize(path.read_bytes()), mapped,
             load_program(str(path))]
    assert all(a.structurally_equal(b) for a in reads for b in reads)
    assert serialize(mapped) + "\n" == path.read_text()


@pytest.mark.parametrize("emb", ["", ",quantum"])
@pytest.mark.parametrize("command", [
    ["validate"],
    ["check-equiv", "mxpj:2,4", "--mode", "sample", "--samples", "64",
     "--seed", "1"]])
def test_deserialize_gets_the_file_as_one_sized_argument(
        tmp_path, capsys, monkeypatch, emb, command):
    """What a tracer that wraps program.deserialize sees: one call, whose
    argument has the file's length when read after the call returns."""
    path = tmp_path / "p.json"
    assert _run(capsys, ["build", f"mxpj:2,4{emb}", "-o", str(path)])[0] == 0
    lengths = []
    deserialize = program.deserialize

    def spy(*args, **kwargs):
        result = deserialize(*args, **kwargs)
        lengths.append(len(args[0]))
        return result

    monkeypatch.setattr(program, "deserialize", spy)
    argv = command[:1] + [str(path)] + command[1:]
    assert _run(capsys, argv)[0] == 0
    assert lengths == [path.stat().st_size]


_EMPTY = (2, "", "error: malformed program document: invalid JSON: "
                 "Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("command", [
    ["validate"], ["check-equiv", "mxpj:1,2"], ["eval", "0000"]])
def test_files_that_cannot_be_mapped_are_read(tmp_path, capsys, command):
    empty = tmp_path / "empty.json"
    empty.write_bytes(b"")
    for path in (str(empty), os.devnull):
        assert _run(capsys, command[:1] + [path] + command[1:]) == _EMPTY


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="POSIX FIFOs")
def test_a_fifo_reads_as_its_file(tmp_path, capsys):
    path, fifo = tmp_path / "p.json", tmp_path / "fifo"
    assert _run(capsys, ["build", "mxpj:2,4,quantum", "-o", str(path)])[0] == 0
    want = _run(capsys, ["validate", str(path)])
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    got = _run(capsys, ["validate", str(fifo)])
    feeder.join(timeout=60)
    assert not feeder.is_alive()
    assert got == want


@pytest.mark.parametrize("semantics", ["deterministic", "nondeterministic",
                                       "probabilistic", "quantum"])
def test_a_loaded_program_outlives_its_file(tmp_path, capsys, semantics):
    """Nothing read refers to the file: a branch that still pointed into
    its mapped pages would fault once the file is cut to 0 bytes."""
    emb = {"deterministic": "", "nondeterministic": ",nondet",
           "probabilistic": ",prob", "quantum": ",quantum"}[semantics]
    built = tmp_path / "built.json"
    assert _run(capsys, ["build", f"mxpj:2,4{emb}", "-o", str(built)])[0] == 0
    mixed = tmp_path / "mixed.json"     # dense matrices and edge sets too
    program.save_program(random_program(random.Random(7), semantics, n=3,
                                        k=2, wmax=4), str(mixed))
    for path in (built, mixed):
        text = path.read_text()
        p = load_program(str(path))
        os.truncate(path, 0)
        assert serialize(p) + "\n" == text


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


# ---------------------------------------------------------------------------
# BLAS threads


def _fresh(prefix: list[str], *argv: str, cwd=None, **env_vars):
    """``python prefix argv`` in a fresh process on this checkout, with no
    BLAS thread count in its environment but env_vars."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *prefix, *argv], cwd=cwd,
                          capture_output=True, text=True, env=env,
                          timeout=120)


# Runs cli.main on argv with its output dropped, then prints the exit
# code, the process's thread count and OPENBLAS_NUM_THREADS as it is then.
_THREADS = """
import contextlib, io, json, os, sys
from kobdd.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
print(json.dumps([code, threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""

_NEEDS_PROC = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                 reason="no /proc/self/status")


@pytest.fixture(scope="module")
def mxpj_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("blas") / "p.json"
    assert main(["build", "mxpj:1,4", "-o", str(path)]) == 0
    return path


@_NEEDS_PROC
@pytest.mark.parametrize("argv", [
    ["check-equiv", "{p}", "mxpj:1,4", "--mode", "sample", "--samples",
     "5000"],
    ["subfn", "mxpj:1,2", "--order", "min"]])
def test_a_fresh_command_runs_one_blas_thread(mxpj_file, argv):
    argv = [a.format(p=mxpj_file) for a in argv]
    proc = _fresh(["-c", _THREADS], *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 1, "1"]


@_NEEDS_PROC
def test_a_callers_blas_thread_count_is_kept(mxpj_file):
    argv = ["check-equiv", str(mxpj_file), "mxpj:1,4"]
    proc = _fresh(["-c", _THREADS], *argv, OPENBLAS_NUM_THREADS="2")
    assert json.loads(proc.stdout)[::2] == [0, "2"], proc.stderr
    proc = _fresh(["-c", _THREADS], *argv, OMP_NUM_THREADS="2")
    assert json.loads(proc.stdout)[::2] == [0, None], proc.stderr


def test_main_leaves_the_environment_once_numpy_is_in(mxpj_file, capsys,
                                                      monkeypatch):
    assert "numpy" in sys.modules
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert _run(capsys, ["validate", str(mxpj_file)])[0] == 0
    assert dict(os.environ) == before


def _dense_doc(semantics: str, n: int, w: int, seed: int) -> dict:
    """A program of dense random stochastic or unitary w x w levels."""
    import numpy as np
    rng = np.random.default_rng(seed)

    def branch():
        if semantics == "probabilistic":
            m = rng.random((w, w))
            return [repr(x) for x in (m / m.sum(axis=0)).ravel().tolist()]
        u = np.linalg.qr(rng.normal(size=(w, w))
                         + 1j * rng.normal(size=(w, w)))[0]
        return [{"re": repr(z.real), "im": repr(z.imag)}
                for z in u.ravel().tolist()]

    return {"format": "kobdd-program-v1", "semantics": semantics, "n": n,
            "k": 1, "order": list(range(1, n + 1)), "initial": 1,
            "accept": list(range(1, w // 2 + 1)), "epsilon": None,
            "levels": [{"var": v, "width_in": w, "width_out": w,
                        "t0": branch(), "t1": branch()}
                       for v in range(1, n + 1)]}


@pytest.mark.parametrize("semantics", ["probabilistic", "quantum"])
def test_dense_outputs_do_not_depend_on_blas_threads(tmp_path, semantics):
    (tmp_path / "p.json").write_text(json.dumps(_dense_doc(semantics, 6, 64,
                                                           25)))
    for argv in (["eval", "p.json", "101101"], ["validate", "p.json"],
                 ["check-equiv", "p.json", "xor:6", "--mode", "sample",
                  "--samples", "40000", "--seed", "7"]):
        one, two = (_fresh(["-m", "kobdd"], *argv, cwd=tmp_path,
                           OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
        assert one.returncode in (0, 1), one.stderr
        assert (two.returncode, two.stdout, two.stderr) == \
            (one.returncode, one.stdout, one.stderr)
