"""Data model for leveled, oblivious, read-k-times branching programs.

A program tests its n variables in one fixed order, repeated for k layers,
so it has exactly k*n transition levels.  Level j holds a pair of
transitions (t0, t1); the one selected by the tested bit maps the node set
of level j to the node set of level j+1.  The (k*n+1)-th node set is the
sink level, and acceptance is membership of the reached sink in ``accept``.

Four transition encodings share this shape:

* deterministic     -- tuple of successor indices, one per source node
* nondeterministic  -- set of (source, target) edges
* probabilistic     -- column-stochastic matrix, applied on the left
* quantum           -- unitary matrix, applied on the left

Node indices are 1-based within every level.  Probabilistic programs push a
distribution through their matrices, quantum programs push a complex
amplitude vector and measure once at the very end.

The JSON document format produced by :func:`serialize` is::

    {
      "format":    "kobdd-program-v1",
      "semantics": "deterministic" | "nondeterministic"
                   | "probabilistic" | "quantum",
      "n": int, "k": int,
      "order":   [int, ...],                  # permutation of 1..n
      "initial": int,
      "accept":  [int, ...],                  # sink indices
      "epsilon": float or null,
      "levels": [
        {"var": int, "width_in": int, "width_out": int,
         "t0": <transition>, "t1": <transition>}, ...
      ]
    }

Deterministic transitions are arrays of 1-based successor indices.
Nondeterministic transitions are arrays of [source, target] pairs.
Matrices are flattened row-major; real entries are decimal strings and
complex entries are {"re": str, "im": str} objects, both produced with
``repr`` so that a round trip through the file is bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Any, Iterable, NoReturn

import numpy as np

SEMANTICS = ("deterministic", "nondeterministic", "probabilistic", "quantum")

FORMAT_TAG = "kobdd-program-v1"

#: Frobenius-norm tolerance for U+U = I on quantum levels.
UNITARY_TOL = 1e-9
#: Per-column tolerance for stochastic column sums.
STOCHASTIC_TOL = 1e-9
#: Largest n for which every 2^n input is enumerated (exhaustive checks).
EXHAUSTIVE_LIMIT = 24
#: Rows per call of a batch reference oracle in :func:`sweep_rows`.
SWEEP_CHUNK = 1 << 14


class ProgramFormatError(ValueError):
    """Raised when a program document cannot be decoded."""


@dataclass(frozen=True)
class Assignment:
    """An input: a tuple of n bits, addressed 1-based via :meth:`bit`.

    The integer encoding used everywhere for enumeration is
    ``x_j = (value >> (j - 1)) & 1``, i.e. variable 1 is the least
    significant bit.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("assignment bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a 0/1 string: {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_int(cls, value: int, n: int) -> "Assignment":
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} out of range for {n} bits")
        return cls(tuple((value >> j) & 1 for j in range(n)))

    def bit(self, j: int) -> int:
        """Value of variable x_j (1-based)."""
        return self.bits[j - 1]

    def to_int(self) -> int:
        return sum(b << j for j, b in enumerate(self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def all_assignments_array(n: int, lo: int = 0,
                          hi: int | None = None) -> np.ndarray:
    """Assignments lo..hi-1 (default all 2^n) as an (hi-lo, n) uint8 matrix.

    Row i holds the bits of ``Assignment.from_int(lo + i, n)``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"refusing to materialize 2^{n} assignments")
    if hi is None:
        hi = 1 << n
    if not 0 <= lo <= hi <= 1 << n:
        raise ValueError(f"rows {lo}..{hi} outside 0..{1 << n}")
    m = np.arange(lo, hi, dtype=np.uint32)
    return ((m[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)


def as_rows(xs, n: int) -> np.ndarray:
    """xs as an (m, n) uint8 matrix of 0/1 rows, or a ValueError.

    The one check of input rows: every evaluator and every batch oracle
    reads its rows through it.  Any dtype whose values are 0 and 1 passes.
    """
    xs = np.asarray(xs)
    if xs.ndim != 2:
        raise ValueError(f"rows must form an (m, {n}) matrix, "
                         f"got shape {xs.shape}")
    if xs.shape[1] != n:
        raise ValueError(f"input length {xs.shape[1]} != n = {n}")
    bits = xs.astype(np.uint8, copy=False)
    if bits.max(initial=0) > 1 or (bits is not xs
                                   and not np.array_equal(bits, xs)):
        raise ValueError("assignment bits must be 0 or 1")
    return bits


def sweep_rows(f, xs: np.ndarray) -> np.ndarray:
    """f applied to every row of an (m, n) 0/1 matrix, as an (m,) uint8 vector.

    The one place a reference function meets a block of inputs.  An
    oracle with a ``batch`` evaluator (``functions.FunctionOracle``) takes
    the block, checked by :func:`as_rows`, in chunks of ``SWEEP_CHUNK``
    rows, which bounds its temporaries.  Any other callable is called
    once per row, each row an Assignment of its own: a whole-block
    ``tolist()`` adds ~3 MB of peak RSS.
    """
    batch = getattr(f, "batch", None)
    if batch is None:
        return np.fromiter((f(Assignment(tuple(row.tolist())))
                            for row in xs), dtype=np.uint8, count=len(xs))
    xs = as_rows(xs, f.n)
    return np.concatenate([batch(xs[lo:lo + SWEEP_CHUNK])
                           for lo in range(0, max(len(xs), 1), SWEEP_CHUNK)])


@dataclass(frozen=True)
class VariableOrder:
    """A permutation of 1..n giving the within-layer test order."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.perm}")

    @classmethod
    def identity(cls, n: int) -> "VariableOrder":
        return cls(tuple(range(1, n + 1)))

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {v: i + 1 for i, v in enumerate(self.perm)}

    def position_of(self, variable: int) -> int:
        """1-based position at which ``variable`` is tested in each layer."""
        return self._positions[variable]

    def __len__(self) -> int:
        return len(self.perm)

    def __iter__(self):
        return iter(self.perm)


@dataclass(frozen=True, eq=False)
class TransitionLevel:
    """One level: the variable it tests plus its two transitions.

    ``t0``/``t1`` are tuples of ints (deterministic), frozensets of
    (source, target) pairs (nondeterministic) or ndarrays of shape
    (width_out, width_in) (probabilistic: float, quantum: complex).
    """

    variable: int
    width_in: int
    width_out: int
    t0: Any
    t1: Any


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def det_level(variable: int, t0: Iterable[int], t1: Iterable[int],
              width_out: int) -> TransitionLevel:
    t0, t1 = tuple(t0), tuple(t1)
    return TransitionLevel(variable, len(t0), width_out, t0, t1)


def nondet_level(variable: int, width_in: int, width_out: int,
                 t0: Iterable[tuple[int, int]],
                 t1: Iterable[tuple[int, int]]) -> TransitionLevel:
    return TransitionLevel(variable, width_in, width_out,
                           frozenset(t0), frozenset(t1))


def matrix_level(variable: int, t0: np.ndarray, t1: np.ndarray) -> TransitionLevel:
    t0, t1 = _frozen_array(t0), _frozen_array(t1)
    return TransitionLevel(variable, t0.shape[1], t0.shape[0], t0, t1)


@dataclass(frozen=True, eq=False)
class Program:
    """A leveled oblivious branching program under one of four semantics."""

    semantics: str
    n: int
    k: int
    order: VariableOrder
    levels: tuple[TransitionLevel, ...]
    initial: int
    accept: frozenset[int]
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")

    @property
    def final_width(self) -> int:
        return self.levels[-1].width_out

    def structurally_equal(self, other: "Program") -> bool:
        """Bit-exact structural comparison (used by round-trip tests)."""
        if (self.semantics, self.n, self.k, self.order.perm, self.initial,
                self.accept, self.epsilon) != \
           (other.semantics, other.n, other.k, other.order.perm,
                other.initial, other.accept, other.epsilon):
            return False
        if len(self.levels) != len(other.levels):
            return False
        for a, b in zip(self.levels, other.levels):
            if (a.variable, a.width_in, a.width_out) != \
               (b.variable, b.width_in, b.width_out):
                return False
            for ta, tb in ((a.t0, b.t0), (a.t1, b.t1)):
                if isinstance(ta, np.ndarray):
                    if not isinstance(tb, np.ndarray):
                        return False
                    if ta.dtype != tb.dtype or ta.shape != tb.shape:
                        return False
                    if ta.tobytes() != tb.tobytes():
                        return False
                elif ta != tb:
                    return False
        return True


def width(p: Program) -> int:
    """Maximum node count over all levels, the sink level included."""
    return max(max(l.width_in for l in p.levels), p.final_width)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _check_matrix(level: TransitionLevel, which: str, m: Any,
                  semantics: str, out: list[str], idx: int) -> None:
    tag = f"levels[{idx}].{which}"
    if not isinstance(m, np.ndarray):
        out.append(f"{tag}: expected a matrix, found {type(m).__name__}")
        return
    if m.shape != (level.width_out, level.width_in):
        out.append(f"{tag}: shape {m.shape} != "
                   f"({level.width_out}, {level.width_in})")
        return
    if not np.all(np.isfinite(m)):
        out.append(f"{tag}: non-finite entries")
        return
    if semantics == "probabilistic":
        if np.iscomplexobj(m):
            out.append(f"{tag}: complex entries in a stochastic matrix")
            return
        if (m < 0).any():
            out.append(f"{tag}: negative entries")
        sums = m.sum(axis=0)
        bad = np.nonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL)[0]
        if bad.size:
            out.append(f"{tag}: column {bad[0] + 1} sums to {sums[bad[0]]!r}")
    else:  # quantum
        gram = m.conj().T @ m
        err = np.linalg.norm(gram - np.eye(level.width_in))
        if err > UNITARY_TOL:
            out.append(f"{tag}: not unitary (|U+U - I|_F = {err:.3e})")


def _transition_fault(t: Any, semantics: str, width_in: int,
                      width_out: int) -> str | None:
    """What is wrong with a successor tuple or an edge set, or None.

    The one range check of deterministic and nondeterministic transitions,
    shared by :func:`validate` and the decoder.
    """
    if semantics == "deterministic":
        if not isinstance(t, tuple) or len(t) != width_in:
            return f"expected {width_in} successor entries"
        bad = [s for s in t if type(s) is not int or not 1 <= s <= width_out]
        return f"successors {bad} outside 1..{width_out}" if bad else None
    bad = [e for e in t
           if not (1 <= e[0] <= width_in and 1 <= e[1] <= width_out)]
    return f"edges {sorted(bad)} out of range" if bad else None


def validate(p: Program) -> ValidationReport:
    """Check every structural invariant; report all violations found.

    Pure and idempotent: the program is never modified.
    """
    v: list[str] = []
    if p.semantics not in SEMANTICS:
        return ValidationReport(False, (f"unknown semantics {p.semantics!r}",))
    if len(p.order.perm) != p.n:
        v.append(f"order has {len(p.order.perm)} entries, n = {p.n}")
        return ValidationReport(False, tuple(v))
    if len(p.levels) != p.k * p.n:
        v.append(f"expected k*n = {p.k * p.n} levels, found {len(p.levels)}")
        return ValidationReport(False, tuple(v))

    for layer in range(p.k):
        seq = tuple(l.variable for l in p.levels[layer * p.n:(layer + 1) * p.n])
        if sorted(seq) != list(range(1, p.n + 1)):
            v.append(f"layer {layer + 1} does not test each variable once")
        elif seq != p.order.perm:
            v.append(f"layer {layer + 1} tests variables in order {seq}, "
                     f"declared order is {p.order.perm}")

    for i, (a, b) in enumerate(zip(p.levels, p.levels[1:])):
        if a.width_out != b.width_in:
            v.append(f"levels[{i}].width_out = {a.width_out} != "
                     f"levels[{i + 1}].width_in = {b.width_in}")

    if not 1 <= p.initial <= p.levels[0].width_in:
        v.append(f"initial node {p.initial} outside 1..{p.levels[0].width_in}")
    bad_accept = sorted(a for a in p.accept
                        if not 1 <= a <= p.final_width)
    if bad_accept:
        v.append(f"accept nodes {bad_accept} outside 1..{p.final_width}")

    for i, lvl in enumerate(p.levels):
        if not 1 <= lvl.variable <= p.n:
            v.append(f"levels[{i}]: variable {lvl.variable} out of range")
        if lvl.width_in < 1 or lvl.width_out < 1:
            v.append(f"levels[{i}]: empty level")
            continue
        if p.semantics in ("deterministic", "nondeterministic"):
            for which, t in (("t0", lvl.t0), ("t1", lvl.t1)):
                fault = _transition_fault(t, p.semantics, lvl.width_in,
                                          lvl.width_out)
                if fault:
                    v.append(f"levels[{i}].{which}: {fault}")
        else:
            _check_matrix(lvl, "t0", lvl.t0, p.semantics, v, i)
            _check_matrix(lvl, "t1", lvl.t1, p.semantics, v, i)

    if p.semantics == "quantum":
        widths = {l.width_in for l in p.levels} | {p.final_width}
        if len(widths) != 1:
            v.append(f"quantum program must have one constant width, "
                     f"found {sorted(widths)}")

    if p.semantics in ("probabilistic", "quantum"):
        if p.epsilon is not None and not 0.0 < p.epsilon <= 0.5:
            v.append(f"epsilon {p.epsilon!r} outside (0, 1/2]")
    elif p.epsilon is not None:
        v.append(f"epsilon set on a {p.semantics} program")

    return ValidationReport(not v, tuple(v))


# ---------------------------------------------------------------------------
# serialization
#
# serialize() writes the text of json.dumps(doc, indent=1, sort_keys=True).
# Any indent sends json.dumps to its pure-Python encoder, so only the small
# header goes through it; each transition is one str.join at its fixed depth.

_CELL = '{\n     "im": %s,\n     "re": %s\n    }'


def _entries(t: Any, semantics: str) -> list[str]:
    if semantics == "deterministic":
        return [str(s) for s in t]
    if semantics == "nondeterministic":
        return [f"[\n     {s},\n     {d}\n    ]" for s, d in sorted(t)]
    dtype = np.float64 if semantics == "probabilistic" else np.complex128
    # unique on the bits, not the values: -0.0 == 0.0, but the reprs differ
    bits, inv = np.unique(np.ascontiguousarray(t, dtype).reshape(-1)
                          .view(np.uint64), return_inverse=True)
    text = [f'"{x!r}"' for x in bits.view(np.float64).tolist()]
    if dtype is np.complex128:  # inv holds (re, im) pairs: one text per pair
        cells, inv = np.unique(inv[0::2] * len(text) + inv[1::2],
                               return_inverse=True)
        text = [_CELL % (text[c % len(text)], text[c // len(text)])
                for c in cells.tolist()]
    return [text[i] for i in inv.tolist()]


def _encode_list(entries: list[str]) -> str:
    return "[\n    " + ",\n    ".join(entries) + "\n   ]" if entries else "[]"


def serialize(p: Program) -> str:
    """Encode a program as a JSON document; see the module docstring."""
    head = json.dumps({
        "format": FORMAT_TAG,
        "semantics": p.semantics,
        "n": p.n,
        "k": p.k,
        "order": list(p.order.perm),
        "initial": p.initial,
        "accept": sorted(p.accept),
        "epsilon": p.epsilon,
        "levels": None,
    }, indent=1, sort_keys=True)
    levels = [
        f"  {{\n   \"t0\": {_encode_list(_entries(l.t0, p.semantics))},\n"
        f"   \"t1\": {_encode_list(_entries(l.t1, p.semantics))},\n"
        f"   \"var\": {l.variable},\n   \"width_in\": {l.width_in},\n"
        f"   \"width_out\": {l.width_out}\n  }}"
        for l in p.levels]
    before, _, after = head.partition('"levels": null')
    if not levels:
        return before + '"levels": []' + after
    return "".join((before, '"levels": [\n', ",\n".join(levels), "\n ]",
                    after))


def _want(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise ProgramFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is int and (type(value) is not int):
        raise ProgramFormatError(f"{where}.{key}: expected an integer, "
                                 f"found {type(value).__name__}")
    if kind is not int and not isinstance(value, kind):
        raise ProgramFormatError(f"{where}.{key}: expected {kind.__name__}, "
                                 f"found {type(value).__name__}")
    return value


def _parse_number(raw: Any, where: str) -> float:
    if not isinstance(raw, str):
        raise ProgramFormatError(f"{where}: matrix entries must be decimal "
                                 f"strings, found {type(raw).__name__}")
    try:
        x = float(raw)
    except ValueError:
        raise ProgramFormatError(f"{where}: not a decimal number: {raw!r}")
    if not math.isfinite(x):
        raise ProgramFormatError(f"{where}: non-finite value {raw!r}")
    return x


def _raise_first_bad(raw: list, semantics: str, where: str) -> NoReturn:
    """Raise the error of the first entry of matrix ``raw`` that does not
    decode, checking entry by entry (the fast path only sees that one
    does not)."""
    for i, x in enumerate(raw):
        if semantics == "probabilistic":
            _parse_number(x, f"{where}[{i}]")
        elif not isinstance(x, dict) or set(x) != {"re", "im"}:
            raise ProgramFormatError(
                f"{where}[{i}]: complex entries need 're' and 'im'")
        else:
            _parse_number(x["re"], f"{where}[{i}].re")
            _parse_number(x["im"], f"{where}[{i}].im")
    # not reached: the loop raises wherever the fast path gave up
    raise ProgramFormatError(f"{where}: undecodable matrix entries")


def _decode_transition(raw: Any, semantics: str, width_in: int,
                       width_out: int, where: str) -> Any:
    if not isinstance(raw, list):
        raise ProgramFormatError(f"{where}: expected an array")
    if semantics in ("deterministic", "nondeterministic"):
        if semantics == "deterministic":
            t = tuple(raw)
        else:  # the JSON shape of an edge; its range is checked below
            for e in raw:
                if (not isinstance(e, list) or len(e) != 2
                        or any(type(x) is not int for x in e)):
                    raise ProgramFormatError(f"{where}: bad edge {e!r}")
            t = frozenset(map(tuple, raw))
        fault = _transition_fault(t, semantics, width_in, width_out)
        if fault:
            raise ProgramFormatError(f"{where}: {fault}")
        return t
    if len(raw) != width_in * width_out:
        raise ProgramFormatError(
            f"{where}: expected {width_out}x{width_in} = "
            f"{width_in * width_out} entries, got {len(raw)}")
    columns = [raw]
    if semantics == "quantum":
        cells = set(map(type, raw)) == {dict} and set(map(len, raw)) == {2}
        columns = [list(map(dict.get, raw, repeat(k))) for k in ("re", "im")
                   ] if cells else []
    try:  # parse each distinct string once
        table = dict.fromkeys(chain(*columns))
        for s in table:
            table[s] = _parse_number(s, "")
    except (TypeError, ProgramFormatError):  # an unhashable or a bad entry
        table = {}
    if not table:  # also when the cells are not all {"re", "im"} objects
        _raise_first_bad(raw, semantics, where)
    parts = [np.fromiter(map(table.__getitem__, c), np.float64, len(raw))
             for c in columns]
    # one float64 column is the matrix; (re, im) float64 pairs are complex128
    m = np.stack(parts, axis=-1).view(np.complex128 if len(parts) == 2
                                      else np.float64)
    return _frozen_array(m.reshape(width_out, width_in))


def deserialize(text: str) -> Program:
    """Decode a JSON program document, rejecting malformed input.

    Structural problems (bad JSON, unknown semantics, shape or range
    mismatches, unparseable numbers) raise :class:`ProgramFormatError`
    with the offending location in the message.  Semantic invariants
    (unitarity, column sums, order consistency) are :func:`validate`'s
    job, so a structurally sound but invalid program still decodes.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ProgramFormatError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ProgramFormatError("top level: expected an object")

    if "format" in doc and doc["format"] != FORMAT_TAG:
        raise ProgramFormatError(f"format: unknown tag {doc['format']!r}")
    semantics = _want(doc, "semantics", str, "top level")
    if semantics not in SEMANTICS:
        raise ProgramFormatError(f"semantics: unknown tag {semantics!r}")
    n = _want(doc, "n", int, "top level")
    k = _want(doc, "k", int, "top level")
    if n < 1 or k < 1:
        raise ProgramFormatError("top level: n and k must be positive")

    raw_order = _want(doc, "order", list, "top level")
    if any(type(x) is not int for x in raw_order):
        raise ProgramFormatError("order: entries must be integers")
    try:
        order = VariableOrder(tuple(raw_order))
    except ValueError as e:
        raise ProgramFormatError(f"order: {e}") from None

    initial = _want(doc, "initial", int, "top level")
    raw_accept = _want(doc, "accept", list, "top level")
    if any(type(x) is not int for x in raw_accept):
        raise ProgramFormatError("accept: entries must be integers")

    epsilon = doc.get("epsilon")
    if epsilon is not None and (type(epsilon) is bool
                                or not isinstance(epsilon, (int, float))):
        raise ProgramFormatError("epsilon: expected a number or null")

    raw_levels = _want(doc, "levels", list, "top level")
    if not raw_levels:
        raise ProgramFormatError("levels: empty")
    levels = []
    for i, rl in enumerate(raw_levels):
        where = f"levels[{i}]"
        if not isinstance(rl, dict):
            raise ProgramFormatError(f"{where}: expected an object")
        var = _want(rl, "var", int, where)
        w_in = _want(rl, "width_in", int, where)
        w_out = _want(rl, "width_out", int, where)
        if w_in < 1 or w_out < 1:
            raise ProgramFormatError(f"{where}: widths must be positive")
        t0 = _decode_transition(_want(rl, "t0", list, where),
                                semantics, w_in, w_out, f"{where}.t0")
        t1 = _decode_transition(_want(rl, "t1", list, where),
                                semantics, w_in, w_out, f"{where}.t1")
        levels.append(TransitionLevel(var, w_in, w_out, t0, t1))

    return Program(semantics=semantics, n=n, k=k, order=order,
                   levels=tuple(levels), initial=initial,
                   accept=frozenset(raw_accept),
                   epsilon=float(epsilon) if epsilon is not None else None)


def save_program(p: Program, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(p))
        fh.write("\n")


def load_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
