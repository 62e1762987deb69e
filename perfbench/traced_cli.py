"""Run one kobdd command in-process with span tracing at the layer boundaries.

Usage: python3 perfbench/traced_cli.py SUMMARY_JSON ARGV...

The command's stdout, stderr and exit code are those of
``kobdd.cli.main(ARGV)``.  Before calling it, this script swaps the
public names that ``kobdd.cli`` (and, for calls made inside a layer,
``kobdd.program`` and ``kobdd.analysis``) look up at call time for
wrappers that record a span: name, start, end and parent.  The call to
``cli.main`` is the root span.  Spans stay in memory; when the command
ends the script writes per-name totals and self times, the counters and
the time the imports finished to SUMMARY_JSON.  Nothing under
``src/`` changes.
"""

import dataclasses
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import kobdd.analysis as analysis
import kobdd.cli as cli
import kobdd.program as program

IMPORTED = time.monotonic()

TAGS = {"deterministic": "det", "nondeterministic": "nondet",
        "probabilistic": "prob", "quantum": "quantum"}
BATCH = ("eval_det_batch", "eval_nondet_batch", "accept_prob_batch")
SCALAR = ("eval_det", "eval_nondet", "accept_prob")
COMPILERS = ("compile_to_quantum", "compile_to_nondet", "compile_to_prob")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.evaluated: list[tuple] = []  # (program, semantics tag, rows)
        self.identity: dict[int, tuple] = {}  # id(program) -> counts

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``name`` may be a function of the args.

        ``after(args, result)`` runs once the span has closed, so cheap
        bookkeeping there is charged to the caller, not to the layer.
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, module, attr: str, name, after=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), after))

    def install(self) -> None:
        counts = self.counts

        def bytes_out(args, result):
            counts["program.serialize_bytes"] += len(result)

        def bytes_in(args, result):
            counts["program.deserialize_bytes"] += len(args[0])

        def batch(args, result):
            p = args[0]
            self.evaluated.append((p, TAGS[p.semantics], len(args[1])))

        def scalar(args, result):
            self.evaluated.append((args[0], "scalar", 1))

        def lattice(args, result):
            counts["analysis.masks"] += (1 << args[0].n) - args[0].n - 2

        def traced_oracle(make):
            def maker(*args, **kwargs):
                f = make(*args, **kwargs)
                return dataclasses.replace(
                    f, fn=self.wrap("functions.oracle", f.fn))
            return maker

        for attr in ("build_mxpj_id_obdd", "build_saf_2k_obdd"):
            self.patch(cli, attr, "constructions.build")
        for attr in COMPILERS:
            self.patch(cli, attr, "constructions.compile")
        self.patch(cli, "serialize", "program.serialize", bytes_out)
        self.patch(program, "deserialize", "program.deserialize", bytes_in)
        self.patch(cli, "validate", "program.validate")
        for attr in BATCH:
            self.patch(cli, attr,
                       lambda p, xs: f"semantics.{TAGS[p.semantics]}_batch",
                       batch)
        for attr in SCALAR:
            self.patch(cli, attr, "semantics.scalar", scalar)
        self.patch(cli, "optimal_order", "analysis.optimal_order", lattice)
        self.patch(cli, "subfunction_profile", "analysis.profile")
        self.patch(analysis, "truth_table_of", "analysis.truth_table")
        cli.parse_function = traced_oracle(cli.parse_function)
        cli.truth_table_function = traced_oracle(cli.truth_table_function)

    def summary(self) -> dict:
        """Per-name calls, total and self seconds; counters; root checks.

        A span's self time is its duration minus the union of its
        children's intervals.  The self times of every span under a
        ``cli.main`` root must add up to no more than the root's wall.
        """
        children = defaultdict(list)
        for i, (_, start, end, parent) in enumerate(self.spans):
            children[parent].append(i)
        self_time = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in children[i]:
                c_start, c_end = self.spans[c][1], self.spans[c][2]
                lo = max(c_start, reach)
                if c_end > lo:
                    covered += c_end - lo
                    reach = c_end
            self_time.append(end - start - covered)
        by_name: dict = {}
        for (name, start, end, _), own in zip(self.spans, self_time):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        roots_ok = []
        for i in children[-1]:
            subtree, todo = 0.0, [i]
            while todo:
                j = todo.pop()
                subtree += self_time[j]
                todo.extend(children[j])
            roots_ok.append(subtree <= self.spans[i][2] - self.spans[i][1]
                            + 1e-9)
        counts = Counter(self.counts)
        for p, tag, rows in self.evaluated:
            levels, identities = self.identity_levels(p)
            counts[f"semantics.{tag}_row_levels"] += rows * levels
            counts["semantics.row_levels"] += rows * levels
            counts["semantics.identity_row_levels"] += rows * identities
        return {"by_name": by_name, "counts": dict(counts),
                "roots_ok": roots_ok}

    def identity_levels(self, p) -> tuple[int, int]:
        """(levels, levels whose two transitions are both the identity)."""
        if id(p) not in self.identity:
            same = 0
            for lvl in p.levels:
                if lvl.width_in != lvl.width_out:
                    continue
                w = lvl.width_in
                if p.semantics == "deterministic":
                    ident = tuple(range(1, w + 1))
                elif p.semantics == "nondeterministic":
                    ident = frozenset((i, i) for i in range(1, w + 1))
                else:
                    eye = np.eye(w)
                    same += bool(np.array_equal(lvl.t0, eye)
                                 and np.array_equal(lvl.t1, eye))
                    continue
                same += lvl.t0 == ident and lvl.t1 == ident
            self.identity[id(p)] = (len(p.levels), same)
        return self.identity[id(p)]


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    rc = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    result = tracer.summary()
    result.update(imported=IMPORTED, rc=rc)
    with open(summary_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
