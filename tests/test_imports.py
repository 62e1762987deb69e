"""The import contract: ``import kobdd`` loads no submodule, and a command
loads only the modules it uses, while every public name and every name a
caller patches on ``kobdd.cli`` still resolves and is the one called."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kobdd
from kobdd import analysis, cli, program

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
# exit code and the kobdd modules loaded.
_LOADED = """
import contextlib, io, json, sys
from kobdd.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "kobdd")]))
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
    return root


@pytest.mark.parametrize("argv, modules", [
    (["--help"], []),
    (["bounds", "--help"], []),
    (["validate", "quantum.json"], []),
    (["build", "mxpj:1,2,nondet"], ["constructions", "functions"]),
    (["build", "saf:2,2,57"], ["constructions", "functions"]),
    (["eval", "prob.json", "1001"], ["semantics"]),
    (["check-equiv", "nondet.json", "mxpj:1,2"], ["functions", "semantics"]),
    (["subfn", "tt.txt", "--order", "min"], ["analysis", "functions"]),
    (["bounds", "hi-n", "--k", "2", "--w", "8"], ["analysis", "functions"]),
])
def test_each_command_loads_only_its_modules(files, argv, modules):
    proc = _python(_LOADED, *argv, cwd=files)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert loaded == sorted(["kobdd", "kobdd.cli", "kobdd.program"]
                            + [f"kobdd.{m}" for m in modules])


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
