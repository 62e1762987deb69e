"""Command-line front end.

Subcommands
    build        construct a program from a descriptor and emit its JSON
    eval         run a program file on one input
    check-equiv  compare a program file against a reference function
    subfn        per-cut subfunction counts as CSV
    bounds       inequality-chain margins over a parameter grid as CSV
    validate     structural and numeric validation of a program file

Conventions, fixed as part of the interface: the primary artifact (JSON
document, CSV table, evaluation result, report) goes to --out when given
and to stdout otherwise; one-line human summaries go to stderr.  Exit
code 0 means success or all checks passed, 1 means a check ran and
failed, 2 means a usage, format, or validation error.  Sampling uses
numpy's PCG64 generator seeded by --seed, so identical invocations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import itertools
import os
import sys
from pathlib import Path

from . import _EXPORTS, _HOME
from .program import (CHAIN_SIZE, CHAINS, EXHAUSTIVE_LIMIT, SWEEP_CHUNK,
                      Assignment, ProgramFormatError, VariableOrder,
                      _write_sliced, all_assignments_array, load_program,
                      serialize, sweep_rows, validate, width)


def _need(*modules: str) -> None:
    """Import modules and bind, as globals here, the names that
    ``kobdd._EXPORTS`` lists for them.  A name already bound, say one
    patched by a caller, is kept."""
    for module in modules:
        found = importlib.import_module(f"{__package__}.{module}")
        for name in _EXPORTS[module].split():
            globals().setdefault(name, getattr(found, name))


def __getattr__(name: str):
    """A public name of the package, looked up from outside, imports its
    module."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    _need(_HOME[name])
    return globals()[name]


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _emit(text: str, out: str | None, end: str = "") -> None:
    """text, then end, to out (as UTF-8) or stdout, a slice at a time."""
    with (contextlib.nullcontext(sys.stdout) if out is None
          else Path(out).open("w", encoding="utf-8")) as fh:
        _write_sliced(fh, text, end)


def _number(flag: str, token: str, kind=int):
    """token as an int (or as kind), or an error naming flag and token."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag} needs {noun}, got {token!r}") from None


def _parse_constants(text: str | None) -> Constants:
    if not text:
        return Constants()
    values = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, raw = token.partition("=")
        key = key.strip().lower()
        if not sep or key not in ("c", "c1", "c2", "c3"):
            raise ValueError(f"bad constants token {token!r}; expected "
                             "C=..., C1=..., C2=..., C3=...")
        values[key] = _number("--constants", raw, float)
    return Constants(**values)


#: Most points one ``bounds`` axis may hold.
AXIS_LIMIT = 10_000
#: Most points, over all chains, one ``bounds`` grid may hold.
GRID_LIMIT = 100_000


def _parse_axis(text: str, name: str) -> list[int]:
    """Comma list of integers and ranges: 8, 2:64, 8:1024:x2, 4:20:+4.

    A range is cut off past AXIS_LIMIT points before it is built, so an
    axis too long to build is rejected at no cost.
    """
    if not text.strip():
        raise ValueError("empty axis")
    points: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ":" not in token:
            points.append(_number(name, token))
        else:
            parts = token.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(f"bad range {token!r}")
            lo, hi = _number(name, parts[0]), _number(name, parts[1])
            step = parts[2] if len(parts) == 3 else "+1"
            if step.startswith("x"):
                factor = _number(name, step[1:])
                if factor < 2 or lo < 1:
                    raise ValueError(f"bad geometric range {token!r}")
                v = lo
                while v <= hi and len(points) <= AXIS_LIMIT:
                    points.append(v)
                    v *= factor
            else:
                stride = _number(name, step.lstrip("+"))
                if stride < 1:
                    raise ValueError(f"bad range stride {token!r}")
                points.extend(range(lo, hi + 1, stride)[:AXIS_LIMIT + 1])
        if len(points) > AXIS_LIMIT:
            raise ValueError(f"{name} axis has more than {AXIS_LIMIT} "
                             "points")
    if not points:
        raise ValueError("empty axis")
    return points


def _load_bits(arg: str) -> Assignment:
    if set(arg) <= {"0", "1"}:     # '' too: an empty literal, not a path
        return Assignment.from_string(arg)
    return Assignment.from_string(Path(arg).read_text().strip())


def _function_from_arg(arg: str):
    """An existing file (its path may hold a ':') as a truth table, any
    other argument, '' and a name too long for a path among them, as a
    descriptor: os.path.isfile is False on any OSError."""
    if not os.path.isfile(arg):
        return parse_function(arg)
    text = Path(arg).read_text().strip()
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"{arg}: expected a 0/1 truth-table string")
    return truth_table_function(Path(arg).stem, [int(c) for c in text])


def _load_valid(path: str):
    program = load_program(path)
    report = validate(program)
    if not report.ok:
        raise ValueError("invalid program: " + "; ".join(report.violations))
    return program


def _predict_batch(p, xs: np.ndarray) -> np.ndarray:
    import numpy as np
    if p.semantics == "deterministic":
        return eval_det_batch(p, xs)
    if p.semantics == "nondeterministic":
        return eval_nondet_batch(p, xs)
    return (accept_prob_batch(p, xs) > 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    _need("constructions", "functions")
    compilers = {"quantum": compile_to_quantum, "nondet": compile_to_nondet,
                 "prob": compile_to_prob}

    notes = []

    def saf(k: int, w: int, n: int):
        layout = SAFLayout(n=n, k=k, w=w)
        if not layout.regime_ok:
            notes.append(f"note: the address-capacity inequality 2kw(2w + "
                         f"address bits) < n fails ({layout.regime_bits} >= "
                         f"{n}); the function is degenerate, but the program "
                         "is well defined")
        return build_saf_2k_obdd(k, w, n)

    head, sep, suffix = args.descriptor.rpartition(",")
    embed = compilers.get(suffix.strip()) if sep else None
    program = parse_descriptor(head if embed else args.descriptor,
                               {"mxpj": (2, build_mxpj_id_obdd),
                                "saf": (3, saf)})
    if embed:
        program = embed(program)
    report = validate(program)
    if not report.ok:
        raise ValueError("built program failed validation: "
                         + "; ".join(report.violations))
    # notes and summary follow the text: a refused build or a failed
    # write leaves one error line
    _emit(serialize(program), args.out, "\n")
    for note in notes:
        _say(note)
    _say(f"{program.semantics} program: n={program.n} layers={program.k} "
         f"width={width(program)}")
    return 0


def _cmd_eval(args) -> int:
    _need("semantics")
    program = _load_valid(args.program)
    x = _load_bits(args.input)
    if program.semantics == "deterministic":
        result = str(eval_det(program, x))
    elif program.semantics == "nondeterministic":
        result = str(eval_nondet(program, x))
    else:
        result = f"{accept_prob(program, x):.9f}"
    _emit(result + "\n", args.out)
    return 0


def _cmd_check_equiv(args) -> int:
    import numpy as np
    _need("functions", "semantics")
    program = _load_valid(args.program)
    f = _function_from_arg(args.function)
    if f.n != program.n:
        raise ValueError(f"function reads {f.n} variables, program "
                         f"reads {program.n}")
    n = program.n
    rng = None
    if args.mode == "exhaustive":
        if n > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive mode needs n <= "
                             f"{EXHAUSTIVE_LIMIT}, got {n}")
        total = 1 << n
    else:
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        if args.seed < 0:
            raise ValueError(f"--seed needs a non-negative integer, "
                             f"got '{args.seed}'")
        total = args.samples
        rng = np.random.Generator(np.random.PCG64(args.seed))
    mismatches = 0
    first: str | None = None
    for lo in range(0, total, SWEEP_CHUNK):
        hi = min(lo + SWEEP_CHUNK, total)
        if rng is None:
            xs = all_assignments_array(n, lo, hi)
        else:
            xs = rng.integers(0, 2, size=(hi - lo, n), dtype=np.uint8)
        got = _predict_batch(program, xs)
        want = sweep_rows(f, xs)
        bad = np.nonzero(got != want)[0]
        mismatches += bad.size
        if bad.size and first is None:
            first = str(Assignment(tuple(xs[bad[0]].tolist())))
    lines = [f"{total} checked, {mismatches} mismatches"]
    if first is not None:
        lines.append(f"first counterexample: {first}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if mismatches == 0 else 1


def _cmd_subfn(args) -> int:
    _need("analysis", "functions")
    f = _function_from_arg(args.function)
    check_table_size(f.n)        # before an order of f.n variables is built
    cuts = (range(2, f.n) if args.cut == "all"
            else [_number("--cut", args.cut)])
    if not set(cuts) <= set(range(2, f.n)):
        raise ValueError(f"cut must satisfy 1 < u < {f.n}")
    if args.order == "min":
        value, order = optimal_order(f)
    elif args.order == "id":
        order = VariableOrder.identity(f.n)
    else:
        order = VariableOrder(tuple(_number("--order", s)
                                    for s in args.order.split(",")))
    profile = subfunction_profile(f, order)
    summary = (f"N = {value}" if args.order == "min"
               else f"N_theta = {profile.max_count}")
    order_text = " ".join(str(v) for v in order.perm)
    rows = [[f.name, f.n, order_text, u, profile.counts[u - 2]] for u in cuts]
    _write_csv(["function", "n", "order", "cut", "count"], rows, args.out)
    _say(summary)
    return 0


def _cmd_bounds(args) -> int:
    _need("analysis")
    constants = _parse_constants(args.constants)
    if args.chain == "all":
        if (args.k, args.w, args.d) != (None, None, None):
            raise ValueError("explicit axes need a single chain")
        chains = list(CHAINS)
    elif args.chain in CHAINS:
        chains = [args.chain]
    else:
        raise ValueError(f"unknown chain {args.chain!r}; choose from "
                         f"{', '.join(CHAINS)} or all")
    ks = _parse_axis(args.k, "--k") if args.k is not None else None
    grids = []
    for chain in chains:
        size_name = CHAIN_SIZE[chain]
        axis = args.w if size_name == "w" else args.d
        if args.w is not None and size_name != "w":
            raise ValueError(f"chain {chain} is parameterized by d, not w")
        if args.d is not None and size_name != "d":
            raise ValueError(f"chain {chain} is parameterized by w, not d")
        grid = default_grid(chain)
        grids.append((chain, size_name, ks or sorted({g["k"] for g in grid}),
                      _parse_axis(axis, f"--{size_name}") if axis is not None
                      else sorted({g[size_name] for g in grid})))
    total = sum(len(k_axis) * len(sizes) for *_, k_axis, sizes in grids)
    if total > GRID_LIMIT:
        raise ValueError(f"grid has {total} points, more than {GRID_LIMIT}")
    worst = float("inf")

    def rows():     # made as they are written; no report is kept
        nonlocal worst
        for chain, size_name, k_axis, sizes in grids:
            for size, k in itertools.product(sizes, k_axis):
                r = check_chain(chain, constants=constants, k=k,
                                **{size_name: size})
                worst = min(worst, r.margin)
                yield [r.chain, r.k, "" if r.w is None else r.w,
                       "" if r.d is None else r.d, r.constants.describe(),
                       f"{r.reduced_width:.6f}", f"{r.lhs_log2:.6f}",
                       f"{r.rhs_log2:.6f}", f"{r.margin:.6f}",
                       int(r.in_regime), r.note]

    _write_csv(["chain", "k", "w", "d", "constants", "reduced_width",
                "lhs_log2", "rhs_log2", "margin", "in_regime", "note"],
               rows(), args.out)
    _say(f"{total} rows, minimum margin {worst:.6f}, "
         + ("all positive" if worst > 0 else "not all positive"))
    return 0 if worst > 0 else 1


def _cmd_validate(args) -> int:
    program = load_program(args.program)
    report = validate(program)
    if report.ok:
        _emit(f"ok: {program.semantics} program, n={program.n}, "
              f"layers={program.k}, width={width(program)}\n", args.out)
        return 0
    _emit("".join(f"invalid: {v}\n" for v in report.violations), args.out)
    return 2


def _write_csv(header: list[str], rows, out: str | None) -> None:
    text = io.StringIO()        # emitted once all rows are made, or none
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(text.getvalue(), out)


# ---------------------------------------------------------------------------
# parser plumbing


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed for sampling commands (default 0)")
    shared.add_argument("--out", "-o", default=argparse.SUPPRESS,
                        help="write the primary artifact to this path "
                             "instead of stdout")

    parser = argparse.ArgumentParser(
        prog="kobdd",
        description="build, run and analyze layered oblivious branching "
                    "programs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", "-o", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[shared],
                       help="construct a program from a descriptor")
    p.add_argument("descriptor",
                   help="mxpj:k,d or saf:k,w,n, with an optional "
                        ",quantum, ,nondet or ,prob suffix")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("eval", parents=[shared],
                       help="run a program file on one input")
    p.add_argument("program", help="program JSON file")
    p.add_argument("input", help="bit string (x1 first) or a file holding one")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check-equiv", parents=[shared],
                       help="compare a program against a reference function")
    p.add_argument("program", help="program JSON file")
    p.add_argument("function",
                   help="xor:n, and:n, saf:k,w,n, mxpj:k,d, or a "
                        "truth-table file")
    p.add_argument("--mode", choices=("exhaustive", "sample"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=100000,
                   help="rows drawn in sample mode, at least 1")
    p.set_defaults(handler=_cmd_check_equiv)

    p = sub.add_parser("subfn", parents=[shared],
                       help="per-cut subfunction counts as CSV")
    p.add_argument("function",
                   help="function descriptor or truth-table file")
    p.add_argument("--order", default="id",
                   help="id, min, or an explicit permutation like 3,1,2")
    p.add_argument("--cut", default="all",
                   help="a single cut position, or all")
    p.set_defaults(handler=_cmd_subfn)

    p = sub.add_parser("bounds", parents=[shared],
                       help="inequality-chain margins over a grid as CSV")
    p.add_argument("chain", help=f"{', '.join(CHAINS)}, or all")
    p.add_argument("--k", help="k axis, e.g. 2:64 or 2,4,8")
    p.add_argument("--w", help="w axis, e.g. 8:1024:x2")
    p.add_argument("--d", help="d axis, e.g. 16:1048576:x2")
    p.add_argument("--constants",
                   help="overrides like C=1,C1=8,C2=1,C3=1")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("validate", parents=[shared],
                       help="validate a program file")
    p.add_argument("program", help="program JSON file")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    # One OpenBLAS thread unless the caller chose: a command's matrices are
    # small, and the worker thread's spin after numpy loads slows the main
    # thread on a host whose vCPUs share a core.  Too late once numpy is in.
    if "numpy" not in sys.modules and not (
            {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code) if stop.code else 0
    try:
        return args.handler(args)
    except ProgramFormatError as bad:
        _say(f"error: malformed program document: {bad}")
        return 2
    except (ValueError, OSError) as bad:
        _say(f"error: {bad}")
        return 2
    except MemoryError:
        _say("error: out of memory")
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
