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

A branch that is a 0/1 total function is a tuple of successors in every
semantics, as :func:`_function_tuple` finds when a level is made or read;
the writer spells it out as its edges or its one-hot matrix.

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

:func:`serialize` writes exactly ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))``, compact canonical JSON.  It renders each
distinct det, nondet or dense transition once, and each distinct row of
a one-hot matrix once; a one-hot branch is a list of shared row texts,
so the joined document is the only large text it makes.  A complex
entry takes about 24 bytes, half of what the indented layout
(``indent=1``) of earlier versions took: the ``mxpj:2,8,quantum`` file
is 37.8 MB instead of 75.5 MB.
:func:`deserialize` has two reads.  They share every decoder (header,
level, transition, matrix entry) and differ only in how they cut the
text.  A text in the writer's layout (a file is mapped, not read) is cut
into levels in one pass at the writer's fixed punctuation, and each piece
goes to ``json.loads``: the header once (it must re-dump to its own text
and hold the writer's keys alone), each distinct transition once (equal
ones share the result); a matrix body that is exactly the writer's
one-hot text of a successor tuple is that tuple, unparsed.  Any other
text, an indented file of an earlier version too, and any text with an
error, is parsed whole by ``json.loads``, and that read alone words
every error.  It is correct but slow and large on a big file; rebuilding
such a file with ``build`` puts it in the writer's layout.
:func:`validate` checks each distinct transition once.
"""

from __future__ import annotations

import io
import json
import marshal
import math
import mmap
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, compress, repeat
from typing import Any, Iterable, Iterator

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
#: Bytes of a mapped file cut between two drops of its pages (whole pages).
_DROP = 1 << 20
#: Characters per write of a long text.  A slice of ASCII text and its
#: UTF-8 copy each stay below glibc malloc's default 128 KiB mmap
#: threshold, so they come from the heap; larger ones may each be mapped
#: and unmapped, or not, as the process's allocation history has moved
#: that threshold, and a write's page faults with it.
_SLICE = 1 << 16

#: The size parameter each chain of ``analysis`` is stated over: w (width)
#: or d (the pointer-jumping alphabet size), in the canonical chain order.
#: Here, so that the command line names the chains without ``analysis``.
CHAIN_SIZE = {"hi-n": "w", "hi-p": "w", "hi-q": "d", "s5-obdd": "d",
              "s5-nobdd": "d", "s5-pobdd": "d", "h-kobdd": "w"}

CHAINS = tuple(CHAIN_SIZE)


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
        try:
            ok = set(self.bits) <= {0, 1}
        except TypeError:       # an unhashable bit: test them one by one
            ok = all(b in (0, 1) for b in self.bits)
        if not ok:
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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

    ``t0``/``t1`` are tuples of 1-based successors (a 0/1 function, in any
    semantics), frozensets of (source, target) pairs (nondeterministic) or
    ndarrays of shape (width_out, width_in) (prob: float, quantum: complex).
    """

    variable: int
    width_in: int
    width_out: int
    t0: Any
    t1: Any


def _frozen_array(a: np.ndarray) -> np.ndarray:
    """a as a read-only ndarray that owns its data; copied unless it is one."""
    import numpy as np
    if type(a) is not np.ndarray or a.flags.writeable or not a.flags.owndata:
        a = np.array(a, copy=True)
        a.setflags(write=False)
    return a


def _is_ndarray(t: Any) -> bool:
    """isinstance(t, numpy.ndarray), without importing numpy: no ndarray
    exists before numpy is imported."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(t, np.ndarray)


def _memo(key, make):
    """make(*args), made once per distinct key(*args) and then shared, in
    a table that lives as long as the function returned: one call."""
    table = {}
    def get(*args):
        k = key(*args)
        v = table.get(k, table)     # one lookup; the table itself is a miss
        if v is table:
            v = table[k] = make(*args)
        return v
    return get


def _matrix_key(m: np.ndarray) -> tuple:    # equal bits, dtype and layout
    return m.dtype, m.shape, m.strides, m.tobytes()


def _branch_key(t: Any, *widths: int) -> tuple:
    """A memo key: a matrix by its bits, any other branch by its object."""
    return (_matrix_key(t) if _is_ndarray(t) else id(t), *widths)


def _function_tuple(t: Any, width_in: int,
                    width_out: int) -> tuple[int, ...] | None:
    """Branch t as a tuple of 1-based successors when it is a 0/1 total
    function, else None: the one recogniser, run when a level is made.

    An edge set needs exactly one in-range edge per source.  A matrix,
    given as its row-major float or complex entries, as every reader makes
    them, needs one 1 per column and 0 elsewhere, bit for bit: marshal
    writes each float's bits, so it must marshal as its one-hot matrix of
    the same number type does, and a -0.0, an im of -0.0 or a
    1.0000000000000002 keeps it dense.  An int or bool matrix stays dense.
    """
    if isinstance(t, frozenset):
        succ = dict(t)
        if not len(succ) == len(t) == width_in:     # count before the tuple
            return None
        out = tuple(map(succ.get, range(1, width_in + 1)))
        return out if all(type(d) is int and 1 <= d <= width_out
                          for d in out) else None
    ones = list(compress(range(len(t)), t))     # nonzero entries, NaN too
    kind = type(t[ones[0]]) if ones else None   # int or bool stays dense
    if len(ones) != width_in or kind not in (float, complex):
        return None
    succ, hot = [0] * width_in, [kind(0)] * len(t)
    for i in ones:
        succ[i % width_in], hot[i] = i // width_in + 1, kind(1)
    return (tuple(succ) if 0 not in succ
            and marshal.dumps(t, 2) == marshal.dumps(hot, 2) else None)


def det_level(variable: int, t0: Iterable[int], t1: Iterable[int],
              width_out: int) -> TransitionLevel:
    t0, t1 = tuple(t0), tuple(t1)
    return TransitionLevel(variable, len(t0), width_out, t0, t1)


def nondet_level(variable: int, width_in: int, width_out: int,
                 t0: Iterable[tuple[int, int]],
                 t1: Iterable[tuple[int, int]]) -> TransitionLevel:
    """An edge set that is a function is held as its successor tuple."""
    t0, t1 = (frozenset(t) for t in (t0, t1))
    return TransitionLevel(variable, width_in, width_out,
                           _function_tuple(t0, width_in, width_out) or t0,
                           _function_tuple(t1, width_in, width_out) or t1)


def matrix_level(variable: int, t0: np.ndarray, t1: np.ndarray) -> TransitionLevel:
    """A matrix shaped like t0 that is a 0/1 function is held as its
    successor tuple, any other as a read-only ndarray owning its data."""
    t0, t1 = _frozen_array(t0), _frozen_array(t1)
    w_in, w_out = t0.shape[1], t0.shape[0]
    return TransitionLevel(variable, w_in, w_out, *(
        t.shape == t0.shape and _function_tuple(t.ravel().tolist(), w_in,
                                                w_out) or t
        for t in (t0, t1)))


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
                if _is_ndarray(ta):
                    if not (_is_ndarray(tb) and ta.dtype == tb.dtype
                            and ta.shape == tb.shape
                            and ta.tobytes() == tb.tobytes()):
                        return False
                # an ndarray never meets != (elementwise on a list)
                elif _is_ndarray(tb) or ta != tb:
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


def _matrix_faults(m: np.ndarray, width_in: int, width_out: int,
                   semantics: str) -> list[str]:
    """What is wrong with a stochastic or unitary matrix, or []."""
    import numpy as np
    if m.shape != (width_out, width_in):
        return [f"shape {m.shape} != ({width_out}, {width_in})"]
    if not np.all(np.isfinite(m)):
        return ["non-finite entries"]
    if semantics == "quantum":
        err = np.linalg.norm(m.conj().T @ m - np.eye(width_in))
        return ([f"not unitary (|U+U - I|_F = {err:.3e})"]
                if err > UNITARY_TOL else [])
    if np.iscomplexobj(m):
        return ["complex entries in a stochastic matrix"]
    faults = ["negative entries"] if (m < 0).any() else []
    sums = m.sum(axis=0)
    bad = np.nonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL)[0]
    if bad.size:
        faults.append(f"column {bad[0] + 1} sums to {sums[bad[0]]!r}")
    return faults


def _branch_faults(t: Any, width_in: int, width_out: int,
                   semantics: str) -> list[str]:
    """What is wrong with one branch, or [].  The one check of tuples and
    edge sets, shared by :func:`validate` and the decoder: a tuple, in
    any semantics, is range checked in O(w), and must be a bijection
    under quantum; an edge set is range checked; a matrix is numeric."""
    if isinstance(t, tuple) or semantics == "deterministic":
        if not isinstance(t, tuple) or len(t) != width_in:
            return [f"expected {width_in} successor entries"]
        bad = [s for s in t if type(s) is not int or not 1 <= s <= width_out]
        if bad:
            return [f"successors {bad} outside 1..{width_out}"]
        # under quantum, |U+U - I|_F: 1 per ordered pair sharing a successor
        pairs = semantics == "quantum" and sum(
            c * (c - 1) for c in Counter(t).values())
        return [f"not unitary (|U+U - I|_F = {math.sqrt(pairs):.3e})"
                ] if pairs else []
    if semantics == "nondeterministic":
        bad = [e for e in t
               if not (1 <= e[0] <= width_in and 1 <= e[1] <= width_out)]
        return [f"edges {sorted(bad)} out of range"] if bad else []
    if not _is_ndarray(t):
        return [f"expected a matrix, found {type(t).__name__}"]
    return _matrix_faults(t, width_in, width_out, semantics)


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

    # one check per distinct transition and widths; each level keeps its tag
    faults = _memo(_branch_key, partial(_branch_faults, semantics=p.semantics))
    for i, lvl in enumerate(p.levels):
        if not 1 <= lvl.variable <= p.n:
            v.append(f"levels[{i}]: variable {lvl.variable} out of range")
        if lvl.width_in < 1 or lvl.width_out < 1:
            v.append(f"levels[{i}]: empty level")
            continue
        for which, t in (("t0", lvl.t0), ("t1", lvl.t1)):
            found = faults(t, lvl.width_in, lvl.width_out)
            v += (f"levels[{i}].{which}: {f}" for f in found)

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
# serialize() writes the text of _DUMP(doc), but only the small header
# goes through it.  Each distinct det, nondet or dense transition is one
# str.join; a one-hot branch is the pieces of its rows, each distinct row
# one str.join; the document is one join of all the pieces.

_CELL = '{"im":%s,"re":%s}'
#: The texts of a one-hot matrix's 0 and 1 entries, of equal length.
_ONE_HOT = {"probabilistic": ('"0.0"', '"1.0"'),
            "quantum": (_CELL % ('"0.0"', '"0.0"'), _CELL % ('"0.0"', '"1.0"'))}
#: The text before, between and after the five fields of a level.
_LEVEL = ('{"t0":', ',"t1":', ',"var":', ',"width_in":', ',"width_out":', '}')
#: The writer's json.dumps: compact canonical JSON.
_DUMP = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _entries(t: Any, semantics: str) -> list[str]:
    """The entry texts of a branch that is not written one-hot."""
    if semantics == "deterministic":
        return [str(s) for s in t]
    if semantics == "nondeterministic":
        edges = enumerate(t, 1) if isinstance(t, tuple) else sorted(t)
        return [f"[{s},{d}]" for s, d in edges]
    import numpy as np
    if semantics == "probabilistic":
        return [f'"{x!r}"' for x in np.asarray(t, np.float64).ravel().tolist()]
    return [_CELL % (f'"{x.imag!r}"', f'"{x.real!r}"')
            for x in np.asarray(t, np.complex128).ravel().tolist()]


def _encode_list(entries: list[str]) -> str:
    return "[" + ",".join(entries) + "]"


class _Rows(dict):
    """rows[width_in, cols, end]: the text of a one-hot matrix row and the
    text that ends it, "," or "]": its width_in cells between ",", with a
    1 in each 0-based column of the tuple cols and a 0 elsewhere; made on
    first use, then shared."""

    def __init__(self, semantics: str):
        self.cells = _ONE_HOT[semantics]

    def __missing__(self, key: tuple[int, tuple[int, ...], str]) -> str:
        (width_in, cols, end), (zero, one) = key, self.cells
        cells = [zero] * width_in
        for c in cols:
            cells[c] = one
        text = self[key] = ",".join(cells) + end
        return text


def _one_hot_text(t: tuple[int, ...], width_out: int,
                  rows: _Rows) -> Iterator[str]:
    """The pieces of successor tuple t's one-hot matrix text: "[", then
    its width_out rows, each ended by "," but the last by "]"; row r has a
    1 in each column c with t[c] == r."""
    cols = [[] for _ in range(width_out)]
    for c, s in enumerate(t):
        cols[s - 1].append(c)
    ends = chain(repeat(",", width_out - 1), ("]",))
    return chain(("[",), map(rows.__getitem__,
                             zip(repeat(len(t)), map(tuple, cols), ends)))


def serialize(p: Program) -> str:
    """Encode a program as a JSON document; see the module docstring."""
    head = _DUMP({
        "format": FORMAT_TAG,
        "semantics": p.semantics,
        "n": p.n,
        "k": p.k,
        "order": list(p.order.perm),
        "initial": p.initial,
        "accept": sorted(p.accept),
        "epsilon": p.epsilon,
        "levels": None,
    })
    before, _, after = head.partition('"levels":null')
    # one text per distinct matrix, or per object: (True, 2) == (1, 2)
    body = _memo(_branch_key, lambda t: _encode_list(_entries(t, p.semantics)))
    rows = _Rows(p.semantics) if p.semantics in _ONE_HOT else None
    pieces = [before, '"levels":[']
    for l in p.levels:
        for lit, t in zip(_LEVEL, (l.t0, l.t1)):
            pieces.append(lit)
            if rows is not None and isinstance(t, tuple):
                pieces += _one_hot_text(t, l.width_out, rows)
            else:
                pieces.append(body(t))
        numbers = map(str, (l.variable, l.width_in, l.width_out))
        pieces += chain(*zip(_LEVEL[2:], numbers), (_LEVEL[-1], ","))
    if p.levels:
        pieces.pop()
    pieces += ("]", after)
    return "".join(pieces)


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


def _decode_entry(x: Any, semantics: str, where: str) -> float | complex:
    """One matrix entry: a decimal string (probabilistic) or an object with
    exactly the keys 're' and 'im' (quantum).  The one check of matrix
    entries, shared by both reads."""
    if semantics == "probabilistic":
        return _parse_number(x, where)
    if not isinstance(x, dict) or set(x) != {"re", "im"}:
        raise ProgramFormatError(
            f"{where}: complex entries need 're' and 'im'")
    return complex(_parse_number(x["re"], f"{where}.re"),
                   _parse_number(x["im"], f"{where}.im"))


def _matrix(entries: list, semantics: str, width_in: int,
            width_out: int) -> tuple[int, ...] | np.ndarray:
    """Decoded entries as a successor tuple, or else a read-only ndarray."""
    if succ := _function_tuple(entries, width_in, width_out):
        return succ
    import numpy as np
    dtype = np.float64 if semantics == "probabilistic" else np.complex128
    m = np.fromiter(entries, dtype, width_in * width_out)
    return _frozen_array(m.reshape(width_out, width_in))


def _decode_transition(raw: Any, semantics: str, width_in: int,
                       width_out: int, where: str) -> Any:
    if not isinstance(raw, list):
        raise ProgramFormatError(f"{where}: expected list, "
                                 f"found {type(raw).__name__}")
    if semantics in ("deterministic", "nondeterministic"):
        if semantics == "deterministic":
            t = tuple(raw)
        else:  # the JSON shape of an edge; its range is checked below
            for e in raw:
                if (not isinstance(e, list) or len(e) != 2
                        or any(type(x) is not int for x in e)):
                    raise ProgramFormatError(f"{where}: bad edge {e!r}")
            t = frozenset(map(tuple, raw))
        faults = _branch_faults(t, width_in, width_out, semantics)
        if faults:
            raise ProgramFormatError(f"{where}: {faults[0]}")
        if semantics == "nondeterministic":
            t = _function_tuple(t, width_in, width_out) or t
        return t
    if len(raw) != width_in * width_out:
        raise ProgramFormatError(
            f"{where}: expected {width_out}x{width_in} = "
            f"{width_in * width_out} entries, got {len(raw)}")
    try:
        entries = [_decode_entry(x, semantics, "") for x in raw]
    except ProgramFormatError:  # walk again, naming the first bad entry
        for i, x in enumerate(raw):
            _decode_entry(x, semantics, f"{where}[{i}]")
        raise
    return _matrix(entries, semantics, width_in, width_out)


def _decode_header(doc: dict) -> dict:
    """Every Program field of a document but its levels, checked."""
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
    return {"semantics": semantics, "n": n, "k": k, "order": order,
            "initial": initial, "accept": frozenset(raw_accept),
            "epsilon": float(epsilon) if epsilon is not None else None}


def _decode_level(rl: Any, where: str, semantics: str,
                  transition=_decode_transition) -> TransitionLevel:
    if not isinstance(rl, dict):
        raise ProgramFormatError(f"{where}: expected an object")
    var = _want(rl, "var", int, where)
    w_in = _want(rl, "width_in", int, where)
    w_out = _want(rl, "width_out", int, where)
    if w_in < 1 or w_out < 1:
        raise ProgramFormatError(f"{where}: widths must be positive")
    t0 = transition(_want(rl, "t0", object, where), semantics, w_in, w_out,
                    f"{where}.t0")
    t1 = transition(_want(rl, "t1", object, where), semantics, w_in, w_out,
                    f"{where}.t1")
    return TransitionLevel(var, w_in, w_out, t0, t1)


# The writer's own layout, as _read_layout cuts it.  Every piece between
# these literals is decoded by json.loads itself, and JSON has one parse
# for a given text, so a text read this way decodes as json.loads of the
# whole text would decode it.

_LEVELS = ',"levels":['
#: The header's keys, as the writer puts them.  A compact text has no
#: indent to tell a key's depth, but no value of these holds an object, so
#: the "levels" cut at is the top-level one.
_HEAD = {"accept", "epsilon", "format", "initial", "k", "levels", "n",
         "order", "semantics"}


def _one_hot(body: str, rows: _Rows, width_in: int,
             width_out: int) -> tuple[int, ...] | None:
    """The successor tuple t if body is exactly the writer's one-hot text
    of t, else None; never raises.  0 and 1 cells are equally long, so a
    "1.0" places its cell by its offset; t's text must then equal body."""
    one = rows.cells[1]
    # "[" cell "," ... "," cell "]", as _one_hot_text puts
    stride, at = len(one) + 1, 1 + one.index('"1.0"')
    if len(body) != width_in * width_out * stride + 1:
        return None
    succ, pos = [0] * width_in, 0
    for _ in range(width_in):
        pos = body.find('"1.0"', pos)
        cell, off = divmod(pos - at, stride)
        if pos < at or off:
            return None
        succ[cell % width_in], pos = cell // width_in + 1, pos + stride
    t = tuple(succ)
    return t if 0 not in t and body == "".join(
        _one_hot_text(t, width_out, rows)) else None


def _find(text, lit, pos: int, hop: int) -> int:
    """text.find(lit, pos) in a str, bytes or map: a one-byte find (memchr)
    for lit[hop], each hit confirmed against lit whole.  Exact for any hop;
    fast for a key's first letter, as the writer's bodies hold no t, v, w."""
    unit = lit[hop:hop + 1]
    i = text.find(unit, pos + hop)
    while i >= 0 and text[i - hop:i - hop + len(lit)] != lit:
        i = text.find(unit, i + 1)
    return i - hop if i >= 0 else -1


def _read_layout(text: str | bytes | mmap.mmap) -> Program | None:
    """The program in ``text`` (a str, a file's bytes or its map) if it is
    laid out exactly as serialize (or save_program, with its newline)
    writes it and decodes cleanly; None otherwise, so that the json.loads
    path reads it and names any error.

    One pass cuts the text into levels at the writer's literals
    (:func:`_find`) and copies each piece out; equal pieces share one
    object, decoded once as the whole-text read decodes it (json.loads, of
    UTF-8 if bytes), but a one-hot matrix body (:func:`_one_hot`) is read
    as its tuple.  A map's pages already cut are dropped (madvise) every
    ``_DROP`` bytes; touched again, they are read again.
    """
    enc, dec = ((str, str) if isinstance(text, str)
                else (str.encode, bytes.decode))
    opening, first, *fields, last, more = map(enc, (_LEVELS, *_LEVEL,
                                                    "]", ","))
    start = text.find(opening)
    if start < 0:
        return None
    pos, levels, pieces = start + len(opening), [], {}
    drop, dropped = getattr(text, "madvise", None), 0
    while text[pos:pos + len(first)] == first:
        pos += len(first)
        levels.append(level := [])
        for lit in fields:     # hop on a key's first letter, or '\n'
            end = _find(text, lit, pos, lit.find(enc('"')) + 1)
            if end < 0:
                return None
            piece = text[pos:end]
            level.append(pieces.setdefault(piece, piece))
            pos = end + len(lit)
        while drop and pos - dropped >= _DROP:
            drop(mmap.MADV_DONTNEED, dropped, _DROP)
            dropped += _DROP
        if text[pos:pos + len(last)] == last:
            break
        if text[pos:pos + len(more)] != more:
            return None
        pos += len(more)
    else:
        return None
    try:
        head = (dec(text[:start]) + ',"levels":null'
                + dec(text[pos + len(last):]))
        head = head[:-1] if head.endswith("\n") else head
        doc = json.loads(head)
        # the re-dump rules out whitespace, escaped and repeated keys
        if (not isinstance(doc, dict) or doc.keys() != _HEAD
                or _DUMP(doc) != head):
            return None
        fields = _decode_header(doc)
        semantics = fields["semantics"]
        rows = _Rows(semantics) if semantics in _ONE_HOT else None
        def make(body, *shape):     # a one-hot text is read as its tuple
            body = dec(body)
            return (rows is not None and _one_hot(body, rows, *shape[1:3])
                    or _decode_transition(json.loads(body), *shape))
        transition = _memo(lambda body, _, w_in, w_out, where:
                           (id(body), w_in, w_out), make)
        decoded = []
        for t0, t1, *numbers in levels:
            rl = dict(zip(("var", "width_in", "width_out"),
                          (json.loads(dec(s)) for s in numbers)),
                      t0=t0, t1=t1)
            decoded.append(_decode_level(rl, "", semantics, transition))
    except (ValueError, RecursionError):
        return None
    return Program(levels=tuple(decoded), **fields)


def deserialize(text: str | bytes | mmap.mmap) -> Program:
    """Decode a JSON program document, rejecting malformed input.

    Structural problems (bad JSON, bytes that are not UTF-8, unknown
    semantics, shape or range mismatches, unparseable numbers) raise :class:`ProgramFormatError`
    with the offending location in the message.  Semantic invariants
    (unitarity, column sums, order consistency) are :func:`validate`'s
    job, so a structurally sound but invalid program still decodes.

    A text in the writer's own layout is read by :func:`_read_layout`;
    every other text, and every error, takes json.loads of the whole text.
    Bytes or a map are a file's: those not in the layout are read as text
    mode reads a file, UTF-8 with universal newlines, then as that text.
    """
    program = _read_layout(text)
    if program is None and not isinstance(text, str):
        data = text[:]      # as bytes; a map's pages are then let go
        if hasattr(text, "madvise"):
            text.madvise(mmap.MADV_DONTNEED)
        try:
            text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        except UnicodeDecodeError as e:
            raise ProgramFormatError(str(e)) from None
        del data            # not held through the whole-text parse
        program = _read_layout(text)
    if program is not None:
        return program
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ProgramFormatError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ProgramFormatError("top level: expected an object")
    fields = _decode_header(doc)
    raw_levels = _want(doc, "levels", list, "top level")
    if not raw_levels:
        raise ProgramFormatError("levels: empty")
    levels = tuple(_decode_level(rl, f"levels[{i}]", fields["semantics"])
                   for i, rl in enumerate(raw_levels))
    return Program(levels=levels, **fields)


def _write_sliced(fh, text: str, end: str = "") -> None:
    """text, then end, to the text file fh; a long text is never encoded
    whole, but one ``_SLICE`` at a time."""
    for i in range(0, len(text), _SLICE):
        fh.write(text[i:i + _SLICE])
    fh.write(end)


def save_program(p: Program, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_sliced(fh, serialize(p), "\n")


def load_program(path: str) -> Program:
    """The program in the file at path, mapped read-only (read once if it
    cannot be: empty, /dev/null, a pipe); nothing read refers to the map.
    A file cut short by another process meanwhile can end it with SIGBUS."""
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return deserialize(fh.read())
        with data:
            return deserialize(data)
