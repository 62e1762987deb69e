"""Benchmark of the kobdd command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each takes the seed; the seed sets the sampled rows, the
random truth table and the ``eval`` inputs):

* ``mxpj-embed``  builds ``mxpj:2,8`` (width 64, 192 levels, half of
  them identities) in all four semantics, validates each file and checks
  each in sample mode.  Heavy on program writes and reads and on the
  nondeterministic and dense matrix kernels; the oracle is cheap.
* ``small-n``     builds ``mxpj:1,4`` in det, nondet and quantum,
  validates and exhaustively checks each (65,536 inputs), runs scalar
  ``eval`` on each and ``subfn --order min`` on a random 14-variable
  table.  The only workload with ``analysis`` work; its exhaustive
  checks are heavy on the scalar oracle and on ``cli``'s per-row
  ``Assignment`` building.

With ``--trace 0`` every command runs in its own process, one after the
other from this single client (closed loop, one client), launched as
``python -c`` on ``kobdd.cli.main`` with ``PYTHONPATH=src``: the console
script cannot be installed offline and ``python -m kobdd`` does not
exist.  A run alternates set-ups (the build commands) and passes of the
remaining commands: ``setup_reps`` set-ups precede each of the first
``setups`` passes, and passes go on until the workload has its
``passes`` and the next one would end after ``--seconds``.  A pass runs
every command once, then repeats those that took less than the
workload's ``short_s`` in further rounds.

Each command's time is the median of its repetitions in the run, and
set-up time the median of the set-ups.  Before each command the client
has ``perfbench/probe.py`` time a fixed piece of work that does not
involve kobdd.  The CPU speed of a shared host swings by half for
minutes at a time, longer than a run, and the probe slows down with it;
so every time is divided by the host's slowdown in the run, the median
probe time over ``PROBE_REF_S``.  The end-to-end times are thus the
run's times scaled to the speed of the host the benchmark was tuned on;
the report line holds the unscaled ones and the slowdown.  Program code
changes the commands' times, not the probe's.

With ``--trace 1`` each pass runs every command twice in a row: once as
above, once through ``perfbench/traced_cli.py``, which calls the same
``cli.main`` in-process under span tracing.  Passes go on while the next
one would end within ``--seconds``; there is at least one.  Per-layer
numbers come from the traced copy; the difference in wall time is the
tracing overhead, and the two copies' stdout and output files must be
byte-identical.

End-to-end metrics (untraced run):

* ``setup_s``           median over the repetitions of the build commands
* ``wall_s``            every command of the workload, builds too
* ``validate_s``        the ``validate`` commands
* ``check_rows_per_s``  rows checked in a pass / time of the ``check-equiv``s
* ``peak_rss_mb``       largest ``ru_maxrss`` of any command process
* ``program_mb``        bytes of the program files the builds wrote

``eval_ms`` (median over the ``eval`` commands), ``subfn_min_s`` and
``fail_ratio`` go to the report only: they are absent or zero on some
workloads.

Every output is checked by ``perfbench/checks.py``, which never calls
kobdd.  A failed check counts against ``failed``; the run still
finishes.  The last stdout line is the JSON result; the line before it
is a JSON report with the environment, sample counts, the report-only
metrics and, in traced runs, structure counts read from the program
files.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: The whole run ends by this many seconds after it starts.
DEADLINE_S = 170.0
MXPJ_ROWS = 1024
EVALS_PER_PROGRAM = 1
#: A pass runs every command once, then SHORT_REPS - 1 more rounds of the
#: commands that took less than the workload's ``short_s`` seconds: short
#: commands get more samples, spread over the pass.
SHORT_REPS = 2

LAUNCHER = ("import sys; from kobdd.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
LAUNCH_NOTE = ("each command runs as `python -c` on kobdd.cli.main with "
               "PYTHONPATH=src: the kobdd console script cannot be "
               "installed offline (no wheel; setuptools 65.5 < 68) and "
               "`python -m kobdd` does not exist")

MB = 1e6

#: The median time of ``perfbench/probe.py``'s work on the host the
#: benchmark was tuned on (2 vCPUs of a shared Xeon, Python 3.11); the
#: end-to-end times are scaled to this speed.
PROBE_REF_S = 0.06

#: Units of the per-layer metrics a traced run reports; absent layers read 0.
LAYER_UNITS = {
    "cli.startup_s": "s", "cli.self_s": "s",
    "constructions.build_s": "s", "constructions.compile_s": "s",
    "program.serialize_s": "s", "program.deserialize_s": "s",
    "program.validate_s": "s", "program.doc_mb": "MB",
    "program.serialize_mb_per_s": "MB/s",
    "program.deserialize_mb_per_s": "MB/s",
    "semantics.det_batch_s": "s", "semantics.nondet_batch_s": "s",
    "semantics.prob_batch_s": "s", "semantics.quantum_batch_s": "s",
    "semantics.scalar_s": "s", "semantics.row_levels": "count",
    "semantics.det_ns_per_row_level": "ns",
    "semantics.nondet_ns_per_row_level": "ns",
    "semantics.prob_ns_per_row_level": "ns",
    "semantics.quantum_ns_per_row_level": "ns",
    "semantics.identity_level_share": "ratio",
    "functions.oracle_s": "s", "functions.oracle_calls": "count",
    "functions.oracle_us_per_call": "us",
    "analysis.truth_table_s": "s", "analysis.optimal_order_s": "s",
    "analysis.profile_s": "s", "analysis.masks_per_s": "1/s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
SEMANTICS = {"": "deterministic", "nondet": "nondeterministic",
             "prob": "probabilistic", "quantum": "quantum"}


@dataclass
class Outcome:
    rc: int
    wall: float
    out: str
    err: str
    spawned: float
    attempt: int = 0


@dataclass
class Cmd:
    kind: str                                # build validate check eval subfn
    argv: list[str]
    check: Callable[[Outcome], str | None]
    rows: int = 0
    out_file: str | None = None


@dataclass
class Workload:
    builds: list[Cmd]
    rest: list[Cmd]
    files: dict[str, str] = field(default_factory=dict)  # inputs to write
    setups: int = 2            # passes that a set-up precedes
    setup_reps: int = 1        # set-ups before each of those passes
    passes: int = 2            # at least
    short_s: float = 0.6


# ---------------------------------------------------------------------------
# workloads


def _build(descriptor: str, path: str, semantics: str, n: int, layers: int,
           width: int) -> Cmd:
    summary = f"{semantics} program: n={n} layers={layers} width={width}"

    def check(o: Outcome) -> str | None:
        if o.rc != 0 or o.err.strip().splitlines()[-1:] != [summary]:
            return f"build {descriptor}: rc={o.rc}, stderr {o.err[-120:]!r}"
        return None

    return Cmd("build", ["build", descriptor, "--out", path], check,
               out_file=path)


def _validate(path: str, *shape) -> Cmd:
    return Cmd("validate", ["validate", path],
               lambda o: checks.check_validate(o.out, o.rc, *shape))


def _check(path: str, function: str, rows: int, seed: int | None) -> Cmd:
    if seed is None:
        argv = ["check-equiv", path, function, "--mode", "exhaustive"]
    else:
        argv = ["check-equiv", path, function, "--mode", "sample",
                "--samples", str(rows), "--seed", str(seed)]
    return Cmd("check", argv, lambda o: checks.check_equiv(o.out, o.rc, rows),
               rows=rows)


def _mxpj_shape(k: int, d: int) -> tuple[int, int, int]:
    return 2 * k * d * (d.bit_length() - 1), k, d * d


def mxpj_embed(seed: int) -> Workload:
    builds, validates, checks_ = [], [], []
    for emb, sem in SEMANTICS.items():
        path = f"mxpj-{emb or 'det'}.json"
        descriptor = "mxpj:2,8" + (f",{emb}" if emb else "")
        builds.append(_build(descriptor, path, sem, *_mxpj_shape(2, 8)))
        validates.append(_validate(path, sem, *_mxpj_shape(2, 8)))
        checks_.append(_check(path, "mxpj:2,8", MXPJ_ROWS, seed))
    # A set-up takes about 14 s and a pass 12 s.
    return Workload(builds=builds, rest=validates + checks_)


def small_n(seed: int) -> Workload:
    rng = random.Random(f"small-n/{seed}")
    n = _mxpj_shape(1, 4)[0]
    builds, validates, checks_, evals = [], [], [], []
    for emb in ("", "nondet", "quantum"):
        sem = SEMANTICS[emb]
        path = f"mxpj-{emb or 'det'}.json"
        descriptor = "mxpj:1,4" + (f",{emb}" if emb else "")
        builds.append(_build(descriptor, path, sem, *_mxpj_shape(1, 4)))
        validates.append(_validate(path, sem, *_mxpj_shape(1, 4)))
        checks_.append(_check(path, "mxpj:1,4", 1 << n, None))
        for _ in range(EVALS_PER_PROGRAM):
            bits = "".join(rng.choice("01") for _ in range(n))
            value = checks.mxpj_value(bits, 1, 4)
            evals.append(Cmd(
                "eval", ["eval", path, bits],
                lambda o, sem=sem, value=value:
                    checks.check_eval(o.out, o.rc, sem, value)))
    table = "".join(rng.choice("01") for _ in range(1 << 14))
    subfn = Cmd("subfn", ["subfn", "table.txt", "--order", "min"],
                lambda o: checks.check_subfn(o.out, o.err, o.rc, "table",
                                             table))
    # A set-up takes under 1 s and a pass about 18 s.  The exhaustive
    # checks count as short, so that they too get several samples in a
    # pass; subfn runs once in a pass.
    return Workload(builds=builds, rest=validates + checks_ + evals + [subfn],
                    files={"table.txt": table}, setups=3, setup_reps=2,
                    short_s=2.5)


WORKLOADS = {"mxpj-embed": mxpj_embed, "small-n": small_n}


# ---------------------------------------------------------------------------
# running commands


class Runner:
    """Runs commands one at a time and keeps the failure tally."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.failed: set[int] = set()   # attempts with a failed check
        self.peak_rss_mb = 0.0
        self.probes: list[float] = []
        self.prober: subprocess.Popen | None = None

    def spawn(self, argv: list[str], cwd: Path) -> Outcome:
        with open(cwd / ".stdout", "w+b") as out, \
                open(cwd / ".stderr", "w+b") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(max(self.deadline - start, 0.0),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.peak_rss_mb = max(self.peak_rss_mb,
                                   usage.ru_maxrss * 1024 / MB)
            return Outcome(proc.returncode, wall,
                           out.read().decode(errors="replace"),
                           err.read().decode(errors="replace"), start)

    def run(self, cmd: Cmd, cwd: Path, traced: bool = False) -> Outcome:
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(cwd / ".summary.json"), *cmd.argv]
        else:
            argv = [sys.executable, "-c", LAUNCHER, *cmd.argv]
            self.probes.append(self.probe())
        outcome = self.spawn(argv, cwd)
        self.attempted += 1
        outcome.attempt = self.attempted
        self.expect(cmd.check(outcome), cmd, outcome)
        return outcome

    def probe(self) -> float:
        if self.prober is None:
            self.prober = subprocess.Popen(
                [sys.executable, str(HERE / "probe.py")], text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.prober.stdin.write("\n")
        self.prober.stdin.flush()
        return float(self.prober.stdout.readline())

    def close(self) -> None:
        if self.prober is not None:
            self.prober.stdin.close()
            try:
                self.prober.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.prober.kill()
                self.prober.wait()

    def expect(self, error: str | None, cmd: Cmd, outcome: Outcome) -> None:
        if error is not None:
            self.failed.add(outcome.attempt)
            self.failures.append(f"{' '.join(cmd.argv)}: {error}")

    def time_left(self, needed: float) -> bool:
        return time.monotonic() + needed < self.deadline


def _prepare(directory: Path, wl: Workload) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in wl.files.items():
        (directory / name).write_text(text)
    return directory


def _median(values):
    return statistics.median(values) if values else 0.0


def _total(outcomes) -> float:
    return sum(o.wall for o in outcomes)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def untraced(wl: Workload, runner: Runner, work: Path, seconds: float):
    cwd = _prepare(work / "run", wl)
    start = time.monotonic()
    builds: list[list[float]] = [[] for _ in wl.builds]
    walls: list[list[float]] = [[] for _ in wl.rest]
    setups: list[float] = []
    passes = 0
    setup_took = pass_took = 0.0
    # Set-ups and passes alternate, so that both are sampled across the
    # whole run.
    while True:
        if passes < wl.setups:
            t = time.monotonic()
            for _ in range(wl.setup_reps):
                for i, cmd in enumerate(wl.builds):
                    builds[i].append(runner.run(cmd, cwd).wall)
                setups.append(sum(b[-1] for b in builds))
            setup_took = time.monotonic() - t
        t = time.monotonic()
        todo = range(len(wl.rest))
        for _ in range(SHORT_REPS):
            for i in todo:
                walls[i].append(runner.run(wl.rest[i], cwd).wall)
            todo = [i for i in todo if walls[i][-1] < wl.short_s]
        passes += 1
        pass_took = time.monotonic() - t
        step = pass_took + (setup_took if passes < wl.setups else 0.0)
        if not runner.time_left(step) or (
                passes >= wl.passes
                and time.monotonic() + step - start > seconds):
            break
    program_mb = sum((cwd / c.out_file).stat().st_size
                     for c in wl.builds) / MB
    typical = [_median(samples) for samples in walls]

    def of_kind(kind):
        return [b for b, c in zip(typical, wl.rest) if c.kind == kind]

    def total(kind):
        return sum(of_kind(kind))

    rows = sum(c.rows for c in wl.rest if c.kind == "check")
    raw = {"wall_s": sum(_median(b) for b in builds) + sum(typical),
           "setup_s": _median(setups),
           "validate_s": total("validate"),
           "check_s": total("check")}
    speed = _median(runner.probes) / PROBE_REF_S
    metrics = {
        "wall_s": (raw["wall_s"] / speed, "s"),
        "setup_s": (raw["setup_s"] / speed, "s"),
        "validate_s": (raw["validate_s"] / speed, "s"),
        "check_rows_per_s": (rows * speed / raw["check_s"], "rows/s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        "program_mb": (program_mb, "MB"),
    }
    extra = {"eval_ms": (_median(of_kind("eval")) * 1e3 / speed, "ms",
                         len(of_kind("eval"))),
             "subfn_min_s": (total("subfn") / speed, "s",
                             len(of_kind("subfn")))}
    samples = {"setup_reps": len(setups), "passes": passes,
               "command_walls_s": {
                   " ".join(c.argv[:2]): [round(w, 3) for w in ws]
                   for c, ws in zip(wl.builds + wl.rest, builds + walls)},
               "check_rows_per_pass": rows,
               "probes": len(runner.probes),
               "probe_median_s": _median(runner.probes),
               "host_slowdown": speed,
               "unscaled_s": raw}
    return metrics, extra, samples


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _layer_metrics(pass_: list[tuple[Outcome, dict]]) -> dict[str, float]:
    """Per-layer numbers of one traced pass; absent layers read 0."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for _, summary in pass_:
        for name, (n, _total_s, own) in summary["by_name"].items():
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + n
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.startup_s": _median([summ["imported"] - o.spawned
                                  for o, summ in pass_]),
        "cli.self_s": s("cli.main"),
        "constructions.build_s": s("constructions.build"),
        "constructions.compile_s": s("constructions.compile"),
        "program.serialize_s": s("program.serialize"),
        "program.deserialize_s": s("program.deserialize"),
        "program.validate_s": s("program.validate"),
        "program.doc_mb": c("program.serialize_bytes") / MB,
        "program.serialize_mb_per_s": ratio(
            c("program.serialize_bytes") / MB, s("program.serialize")),
        "program.deserialize_mb_per_s": ratio(
            c("program.deserialize_bytes") / MB, s("program.deserialize")),
    }
    for tag in ("det", "nondet", "prob", "quantum"):
        m[f"semantics.{tag}_batch_s"] = s(f"semantics.{tag}_batch")
        m[f"semantics.{tag}_ns_per_row_level"] = ratio(
            s(f"semantics.{tag}_batch") * 1e9,
            c(f"semantics.{tag}_row_levels"))
    m["semantics.scalar_s"] = s("semantics.scalar")
    m["semantics.row_levels"] = c("semantics.row_levels")
    m["semantics.identity_level_share"] = ratio(
        c("semantics.identity_row_levels"), c("semantics.row_levels"))
    m["functions.oracle_s"] = s("functions.oracle")
    m["functions.oracle_calls"] = calls.get("functions.oracle", 0)
    m["functions.oracle_us_per_call"] = ratio(
        s("functions.oracle") * 1e6, calls.get("functions.oracle", 0))
    m["analysis.truth_table_s"] = s("analysis.truth_table")
    m["analysis.optimal_order_s"] = s("analysis.optimal_order")
    m["analysis.profile_s"] = s("analysis.profile")
    m["analysis.masks_per_s"] = ratio(c("analysis.masks"),
                                      s("analysis.optimal_order"))
    return m


def traced(wl: Workload, runner: Runner, work: Path, seconds: float):
    plain_dir = _prepare(work / "untraced", wl)
    traced_dir = _prepare(work / "traced", wl)
    commands = wl.builds + wl.rest
    layer_passes, overheads, shares = [], [], []
    roots_checked = roots_bad = 0
    start = time.monotonic()
    last = 0.0
    while not layer_passes or (time.monotonic() + last - start < seconds
                               and runner.time_left(last)):
        t = time.monotonic()
        plain, pass_ = [], []
        # Each command runs untraced then traced, so that the host's
        # drifting speed weighs on both copies alike.
        for cmd in commands:
            base = runner.run(cmd, plain_dir)
            plain.append(base)
            o = runner.run(cmd, traced_dir, traced=True)
            summary_file = traced_dir / ".summary.json"
            if summary_file.exists():
                summary = json.loads(summary_file.read_text())
                summary_file.unlink()
            else:
                summary = {"by_name": {}, "counts": {}, "roots_ok": [],
                           "imported": o.spawned}
                runner.expect("traced run wrote no summary", cmd, o)
            pass_.append((o, summary))
            if o.out != base.out:
                runner.expect("traced stdout differs from untraced", cmd, o)
            if cmd.out_file and not filecmp.cmp(
                    plain_dir / cmd.out_file, traced_dir / cmd.out_file,
                    shallow=False):
                runner.expect("traced output file differs", cmd, o)
            for ok in summary["roots_ok"]:
                roots_checked += 1
                if not ok:
                    roots_bad += 1
                    runner.expect("self times exceed the cli.main wall",
                                  cmd, o)
        layer_passes.append(_layer_metrics(pass_))
        overhead = _total(o for o, _ in pass_) - _total(plain)
        overheads.append(overhead)
        shares.append(overhead / _total(plain))
        last = time.monotonic() - t
    metrics = {name: _median([p[name] for p in layer_passes])
               for name in layer_passes[0]}
    metrics["trace.overhead_s"] = _median(overheads)
    metrics["trace.overhead_share"] = _median(shares)
    structure = {c.out_file: checks.structure(
        (plain_dir / c.out_file).read_text()) for c in wl.builds}
    samples = {"passes": len(layer_passes), "cli_main_spans": roots_checked,
               "cli_main_spans_over_wall": roots_bad}
    return metrics, structure, samples


# ---------------------------------------------------------------------------
# report


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError) as exc:
        blas = {"unavailable": repr(exc)}
    memory = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    memory = int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "memory_mb": memory,
        "load_generator": "one process, closed loop, one client",
        "launcher": LAUNCH_NOTE,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "kobdd" / "cli.py").is_file():
        print(f"error: no kobdd sources under {SRC}; run from the root of "
              "a kobdd checkout", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + DEADLINE_S)
    wl = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            metrics, structure, samples = traced(wl, runner, work,
                                                 args.seconds)
            result = {name: {"value": value, "unit": LAYER_UNITS[name]}
                      for name, value in metrics.items()}
            report["structure"] = structure
        else:
            metrics, extra, samples = untraced(wl, runner, work,
                                               args.seconds)
            result = {name: {"value": v, "unit": u}
                      for name, (v, u) in metrics.items()}
            report["report_only_metrics"] = {
                name: {"value": v, "unit": u, "samples": n}
                for name, (v, u, n) in extra.items() if n}
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()    # only if no other run is using it
    # A command's ru_maxrss also counts the client's own peak RSS, which
    # Linux carries across exec; so the client stays small (the probe
    # has its own process, numpy is imported only now) and the report
    # shows its peak.
    report["client_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB)
    report["environment"] = environment()
    failed = len(runner.failed)
    report["samples"] = samples
    report["fail_ratio"] = failed / runner.attempted
    report["failures"] = runner.failures[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
