"""The import contract: ``import kobdd`` loads no submodule, and a command
loads only the modules it uses, and numpy only if it makes or reads an
array, while every public name and every name a caller patches on
``kobdd.cli`` still resolves and is the one called."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kobdd
from kobdd import analysis, cli, program
from kobdd.program import ProgramFormatError, validate

REPO = Path(__file__).resolve().parent.parent


def _python(code: str, *argv: str, cwd=None) -> subprocess.CompletedProcess:
    """``python -c code argv`` in a fresh process on this checkout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          capture_output=True, text=True, env=env,
                          timeout=120)


# Runs cli.main on argv with its output captured, then prints the
# exit code, the kobdd modules and numpy if loaded, and its stderr.
_LOADED = """
import contextlib, io, json, sys
from kobdd.cli import main
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "numpy"
                               or m.split(".")[0] == "kobdd"),
                  err.getvalue()]))
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Built mxpj:1,2 files in every semantics, and a truth-table file."""
    root = tmp_path_factory.mktemp("files")
    for emb in ("det", "nondet", "prob", "quantum"):
        suffix = "" if emb == "det" else f",{emb}"
        assert cli.main(["build", f"mxpj:1,2{suffix}", "-o",
                         str(root / f"{emb}.json")]) == 0
    (root / "tt.txt").write_text("0110100110010110")
    # x1 = 1 moves node 1 to node 2 with probability 3/4: a dense level
    (root / "dense.json").write_text(json.dumps({
        "format": "kobdd-program-v1", "semantics": "probabilistic", "n": 1,
        "k": 1, "order": [1], "initial": 1, "accept": [2], "epsilon": 0.25,
        "levels": [{"var": 1, "width_in": 2, "width_out": 2,
                    "t0": ["1.0", "0.0", "0.0", "1.0"],
                    "t1": ["0.25", "0.5", "0.75", "0.5"]}]}))
    doc = json.loads((root / "det.json").read_text())
    doc["levels"][3]["t1"][0] = 9
    (root / "bad.json").write_text(json.dumps(
        doc, sort_keys=True, separators=(",", ":")) + "\n")
    return root


# numpy is listed where the command makes or reads an array
@pytest.mark.parametrize("argv, modules", [
    (["--help"], []),
    (["bounds", "--help"], []),
    (["validate", "quantum.json"], []),
    (["build", "mxpj:1,2,nondet"], ["constructions", "functions"]),
    (["build", "saf:2,2,57"], ["constructions", "functions"]),
    (["eval", "prob.json", "1001"], ["semantics"]),
    (["check-equiv", "nondet.json", "mxpj:1,2"],
     ["functions", "semantics", "numpy"]),
    (["subfn", "tt.txt", "--order", "min"], ["analysis", "functions", "numpy"]),
    (["bounds", "hi-n", "--k", "2", "--w", "8"], ["analysis"]),
    (["build", "mxpj:1,2"], ["constructions", "functions"]),
    (["build", "mxpj:1,2,prob"], ["constructions", "functions"]),
    (["build", "mxpj:1,2,quantum"], ["constructions", "functions"]),
    (["validate", "det.json"], []),
    (["validate", "nondet.json"], []),
    (["validate", "prob.json"], []),
    (["eval", "det.json", "1001"], ["semantics"]),
    (["eval", "nondet.json", "1001"], ["semantics"]),
    (["eval", "quantum.json", "1001"], ["semantics"]),
    (["eval", "dense.json", "1"], ["semantics", "numpy"]),
])
def test_each_command_loads_only_its_modules(files, argv, modules):
    proc = _python(_LOADED, *argv, cwd=files)
    assert proc.returncode == 0, proc.stderr
    code, loaded, _ = json.loads(proc.stdout)
    assert code == 0
    assert loaded == sorted(["kobdd", "kobdd.cli", "kobdd.program"] + [
        m if m == "numpy" else f"kobdd.{m}" for m in modules])


def test_eval_runs_a_dense_level_through_the_kernel(files, capsys):
    for bits, out in (("1", "0.750000000\n"), ("0", "0.000000000\n")):
        assert cli.main(["eval", str(files / "dense.json"), bits]) == 0
        assert capsys.readouterr().out == out


def test_a_malformed_det_document_is_rejected_without_numpy(files):
    proc = _python(_LOADED, "validate", "bad.json", cwd=files)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        2, ["kobdd", "kobdd.cli", "kobdd.program"],
        "error: malformed program document: levels[3].t1: successors [9] "
        "outside 1..4\n"]


def test_importing_every_module_loads_no_numpy():
    proc = _python("import sys, kobdd.program, kobdd.functions, "
                   "kobdd.constructions, kobdd.analysis, kobdd.semantics, "
                   "kobdd.cli; "
                   "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Programs whose levels hold lists where a matrix (or, for det, a tuple)
# belongs, and successor tuples in matrix semantics.  outcomes() gives
# what validate and structurally_equal make of them, whether numpy is
# loaded after those, and then serialize's texts: serialize imports numpy
# to write a list, but not a tuple.
_NOT_ARRAYS = """
import sys
from kobdd.program import (Program, TransitionLevel, VariableOrder,
                           serialize, validate)

def program(semantics, t0, t1):
    matrix = semantics in ("probabilistic", "quantum")
    return Program(semantics=semantics, n=1, k=1, order=VariableOrder((1,)),
                   levels=(TransitionLevel(1, 2, 2, t0, t1),), initial=1,
                   accept=frozenset({1}), epsilon=0.5 if matrix else None)

def cases():
    found = {"deterministic list": program("deterministic", [1, 2], (2, 1))}
    for semantics, one in (("probabilistic", 1.0), ("quantum", 1 + 0j)):
        a, b = [[one, 0 * one], [0 * one, one]], [[0 * one, one], [one, 0 * one]]
        found[semantics + " list"] = program(semantics, a, b)
        found[semantics + " tuple"] = program(semantics, (1, 2), (2, 1))
        found[semantics + " flat"] = program(semantics, a[0] + a[1],
                                             b[0] + b[1])
    return found

def outcomes():
    found = cases()
    checks = {name: [list(validate(p).violations),
                     [p.structurally_equal(q) for q in found.values()]]
              for name, p in found.items()}
    loaded = "numpy" in sys.modules
    return checks, loaded, {name: serialize(p) for name, p in found.items()}
"""


def _as_arrays(semantics, case):
    """The program a case stands for, with ndarray levels made through
    TransitionLevel (a successor tuple spelled out one-hot), or, for det,
    tuple levels."""
    dtype = {"probabilistic": np.float64, "quantum": np.complex128}
    lvl = case.levels[0]
    if semantics == "deterministic":
        return dataclasses.replace(case, levels=(dataclasses.replace(
            lvl, t0=tuple(lvl.t0)),))

    def matrix(t):
        if isinstance(t, tuple):
            t = [[float(s == r) for s in t] for r in (1, 2)]
        return np.array(t, dtype[semantics]).reshape(2, 2)

    return dataclasses.replace(case, levels=(dataclasses.replace(
        lvl, t0=matrix(lvl.t0), t1=matrix(lvl.t1)),))


def test_the_ndarray_test_gives_the_same_answers_with_or_without_numpy():
    proc = _python(_NOT_ARRAYS + "import json\nchecks, loaded, texts = "
                   "outcomes()\nprint(json.dumps([checks, loaded, texts]))")
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    space = {}
    exec(_NOT_ARRAYS, space)
    checks, loaded, texts = space["outcomes"]()
    assert fresh == [checks, False, texts] and loaded
    names = list(checks)
    for i, (name, (violations, equal)) in enumerate(checks.items()):
        semantics, kind = name.split()
        assert violations == (
            ["levels[0].t0: expected 2 successor entries"]
            if semantics == "deterministic" else [] if kind == "tuple" else
            [f"levels[0].{t}: expected a matrix, found list"
             for t in ("t0", "t1")])
        assert equal == [j == i for j in range(len(names))]
        assert texts[name] == program.serialize(
            _as_arrays(semantics, space["cases"]()[name]))


def test_the_ndarray_test_takes_0d_arrays_and_subclasses():
    class Sub(np.ndarray):
        pass

    space = {}
    exec(_NOT_ARRAYS, space)
    make = space["program"]
    for semantics, dtype in (("probabilistic", np.float64),
                             ("quantum", np.complex128)):
        eye = np.eye(2, dtype=dtype)
        plain = make(semantics, eye, eye[::-1])
        sub = make(semantics, eye.view(Sub), eye[::-1].view(Sub))
        assert validate(sub).ok
        assert sub.structurally_equal(plain) and plain.structurally_equal(sub)
        assert program.serialize(sub) == program.serialize(plain)
        zero_d = make(semantics, np.array(1.0, dtype), eye)
        assert validate(zero_d).violations == (
            "levels[0].t0: shape () != (2, 2)",)
        assert zero_d.structurally_equal(zero_d)
        assert not plain.structurally_equal(zero_d)
        with pytest.raises(ProgramFormatError, match="4 entries, got 1"):
            program.deserialize(program.serialize(zero_d))
        half = make(semantics, eye, eye[::-1].tolist())
        assert validate(half).violations == (
            "levels[0].t1: expected a matrix, found list",)
        assert not plain.structurally_equal(half)
    det = make("deterministic", np.array([1, 2]), (2, 1))
    assert validate(det).violations == (
        "levels[0].t0: expected 2 successor entries",)
    assert det.structurally_equal(det)
    assert program.serialize(det) == program.serialize(
        make("deterministic", (1, 2), (2, 1)))


def test_import_kobdd_loads_no_submodule():
    proc = _python("import sys, kobdd; print(sorted(m for m in sys.modules "
                   "if m.split('.')[0] == 'kobdd'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['kobdd']\n"


def test_every_public_name_resolves():
    listed = dir(kobdd)
    for name in kobdd.__all__:
        assert name in listed
        assert getattr(kobdd, name) is not None
    namespace = {}
    exec("from kobdd import *", namespace)
    assert set(kobdd.__all__) <= set(namespace)
    assert kobdd.validate is program.validate
    assert kobdd.CHAINS is analysis.CHAINS is program.CHAINS
    with pytest.raises(AttributeError):
        kobdd.no_such_name


# Patches one name on kobdd.cli before anything looks it up, as
# perfbench/traced_cli.py does, runs the command and prints how often
# the patch was called.
_PATCHED = """
import contextlib, io, sys
import kobdd.cli as cli
name, argv = sys.argv[1], sys.argv[2:]
real, calls = getattr(cli, name), []

def spy(*args, **kwargs):
    calls.append(name)
    return real(*args, **kwargs)

setattr(cli, name, spy)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
print(code, len(calls))
"""


@pytest.mark.parametrize("name, argv", [
    ("build_mxpj_id_obdd", ["build", "mxpj:1,2"]),
    ("build_saf_2k_obdd", ["build", "saf:2,2,57"]),
    ("compile_to_quantum", ["build", "mxpj:1,2,quantum"]),
    ("compile_to_nondet", ["build", "mxpj:1,2,nondet"]),
    ("compile_to_prob", ["build", "mxpj:1,2,prob"]),
    ("serialize", ["build", "mxpj:1,2"]),
    ("validate", ["validate", "det.json"]),
    ("eval_det", ["eval", "det.json", "1001"]),
    ("eval_nondet", ["eval", "nondet.json", "1001"]),
    ("accept_prob", ["eval", "quantum.json", "1001"]),
    ("eval_det_batch", ["check-equiv", "det.json", "mxpj:1,2"]),
    ("eval_nondet_batch", ["check-equiv", "nondet.json", "mxpj:1,2"]),
    ("accept_prob_batch", ["check-equiv", "prob.json", "mxpj:1,2"]),
    ("parse_function", ["check-equiv", "det.json", "mxpj:1,2"]),
    ("truth_table_function", ["subfn", "tt.txt"]),
    ("optimal_order", ["subfn", "tt.txt", "--order", "min"]),
    ("subfunction_profile", ["subfn", "tt.txt"]),
])
def test_a_name_patched_on_cli_is_the_one_called(files, name, argv):
    proc = _python(_PATCHED, name, *argv, cwd=files)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1\n"


def test_a_name_patched_in_process_is_the_one_called(files, monkeypatch,
                                                     capsys):
    calls = []
    real = cli.eval_det

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "eval_det", spy)
    assert cli.main(["eval", str(files / "det.json"), "1001"]) == 0
    assert capsys.readouterr().out == "1\n" and len(calls) == 1
