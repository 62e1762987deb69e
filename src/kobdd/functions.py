"""Reference evaluators for the two hard-instance function families.

Shuffled addressing (``SAFLayout`` / ``saf_eval``): the input is cut into
2kw equal blocks tiling a prefix, each block holding address bits (a step
address mod k, then a slot address mod 2w) followed by value bits.  An
iterated lookup walks k rounds; each round resolves a lower-half slot to
get a value u, then the upper-half slot u+w to get the next lower-half
slot.  A missing block yields -1, which absorbs.  The output is 1 iff the
final slot is positive.

XOR pointer jumping (``MXPJInstance`` / ``mxpj_eval``): 2k function tables
between two d-vertex sides are encoded in d blocks of ceil(log2 d) bits
each; the walk applies the tables alternately, XORing each new vertex with
the vertex from two hops earlier.  The output is the parity of the final
vertex label.

Bit conventions shared by both families: blocks tile the input left to
right, and within every multi-bit field index j carries weight 2**j
(LSB first).

Every oracle built here also carries a ``batch`` evaluator over an
(m, n) 0/1 matrix, used by ``program.sweep_rows``, which checks the rows;
the scalar evaluators above stay the specification it is tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .program import Assignment


# ---------------------------------------------------------------------------
# shuffled addressing


@dataclass(frozen=True)
class SAFLayout:
    """Block geometry of the shuffled-addressing function on n variables.

    Blocks have length a = floor(n / 2kw); any leftover suffix of the
    input is padding that the function never reads.  Each block carries
    addr_k_bits + addr_w_bits address bits, then b >= 1 value bits.
    The derived fields are computed once: saf_eval reads them often.
    """

    n: int
    k: int
    w: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.w < 1 or self.n < 1:
            raise ValueError("n, k, w must be positive")
        if self.a < 1:
            raise ValueError(
                f"n = {self.n} too small for 2kw = {self.blocks} blocks")
        if self.b < 1:
            raise ValueError(
                f"block length {self.a} leaves no value bits after "
                f"{self.addr_k_bits + self.addr_w_bits} address bits")

    @cached_property
    def blocks(self) -> int:
        return 2 * self.k * self.w

    @cached_property
    def addr_k_bits(self) -> int:
        return (self.k - 1).bit_length()

    @cached_property
    def addr_w_bits(self) -> int:
        return (2 * self.w - 1).bit_length()

    @cached_property
    def a(self) -> int:
        """Variables per block."""
        return self.n // self.blocks

    @cached_property
    def b(self) -> int:
        """Value variables per block."""
        return self.a - self.addr_k_bits - self.addr_w_bits

    @cached_property
    def covered(self) -> int:
        """Number of input positions the blocks actually occupy."""
        return self.blocks * self.a

    @cached_property
    def regime_bits(self) -> int:
        """2kw(2w + addr bits), the input length n must exceed."""
        return self.blocks * (2 * self.w + self.addr_k_bits
                              + self.addr_w_bits)

    @cached_property
    def regime_ok(self) -> bool:
        """Whether 2kw(2w + addr bits) < n, the lower-bound lemmas' regime.

        Not required for evaluation; instances outside the regime are
        still well defined whenever b >= 1.
        """
        return self.regime_bits < self.n


def adr_k(x: Assignment, layout: SAFLayout, p: int) -> int:
    """Step address of block p: its first address field reduced mod k."""
    base = p * layout.a
    raw = 0
    for j in range(layout.addr_k_bits):
        raw |= x.bits[base + j] << j
    return raw % layout.k


def adr_w(x: Assignment, layout: SAFLayout, p: int) -> int:
    """Slot address of block p: its second address field reduced mod 2w."""
    base = p * layout.a + layout.addr_k_bits
    raw = 0
    for j in range(layout.addr_w_bits):
        raw |= x.bits[base + j] << j
    return raw % (2 * layout.w)


def _address_map(x: Assignment, layout: SAFLayout) -> dict:
    """(step, slot) -> minimal block index, over all 2kw blocks."""
    table: dict[tuple[int, int], int] = {}
    for p in range(layout.blocks):
        table.setdefault((adr_k(x, layout, p), adr_w(x, layout, p)), p)
    return table


def ind(x: Assignment, layout: SAFLayout, i: int, t: int) -> int:
    """Minimal block addressed (step t, slot i), or -1 if none exists."""
    if not 0 <= i < 2 * layout.w:
        raise ValueError(f"slot {i} outside 0..{2 * layout.w - 1}")
    if not 0 <= t < layout.k:
        raise ValueError(f"step {t} outside 0..{layout.k - 1}")
    return _address_map(x, layout).get((t, i), -1)


def _block_value(x: Assignment, layout: SAFLayout, p: int) -> int:
    base = p * layout.a + layout.addr_k_bits + layout.addr_w_bits
    return sum(x.bits[base:base + layout.b]) % layout.w


def val(x: Assignment, layout: SAFLayout, i: int, t: int) -> int:
    """Value of the block addressed (t, i): its bit-sum mod w, or -1."""
    p = ind(x, layout, i, t)
    return -1 if p < 0 else _block_value(x, layout, p)


def _step_iter(x: Assignment, layout: SAFLayout, t: int) -> tuple[int, int]:
    table = _address_map(x, layout)
    s1, s2 = 0, 0
    for step in range(t + 1):
        p = table.get((step, s2), -1)
        if p < 0:
            return -1, -1
        s1 = _block_value(x, layout, p) + layout.w
        p = table.get((step, s1), -1)
        if p < 0:
            return (s1, -1) if step == t else (-1, -1)
        s2 = _block_value(x, layout, p)
    return s1, s2


def step_pair(x: Assignment, layout: SAFLayout, t: int) -> tuple[int, int]:
    """(base, value) of iteration step t; seed (0, 0) at t = -1.

    The base lives in {w..2w-1}, the value in {0..w-1}; a failed lookup
    gives -1 and every later step stays -1.
    """
    if not -1 <= t < layout.k:
        raise ValueError(f"step {t} outside -1..{layout.k - 1}")
    if t == -1:
        return 0, 0
    return _step_iter(x, layout, t)


def saf_eval(x: Assignment, layout: SAFLayout) -> int:
    """1 iff the final iteration value is strictly positive."""
    if len(x) != layout.n:
        raise ValueError(f"input length {len(x)} != n = {layout.n}")
    return 1 if _step_iter(x, layout, layout.k - 1)[1] > 0 else 0


def random_saf_positive(layout: SAFLayout, rng: random.Random) -> Assignment:
    """Construct a random input the shuffled-addressing function accepts.

    Works backwards from a chosen accepting chain: picks the per-step
    values, plants one block for every needed (step, slot) address at a
    random position, then fills the rest with blocks that cannot hijack a
    lookup (their address either differs from every needed one or sits at
    a later index, exercising the minimal-index rule).
    """
    k, w, b = layout.k, layout.w, layout.b
    achievable = sorted({c % w for c in range(b + 1)})
    positive = [v for v in achievable if v > 0]
    if not positive:
        raise ValueError("no positive block value is achievable")

    # the accepting chain: slot -> base -> slot, ending positive
    s2 = 0
    needed: dict[tuple[int, int], int] = {}
    for t in range(k):
        u = rng.choice(achievable)
        needed[(t, s2)] = u
        v = rng.choice(positive) if t == k - 1 else rng.choice(achievable)
        needed[(t, u + w)] = v
        s2 = v

    slots = rng.sample(range(layout.blocks), len(needed))
    placed = dict(zip(needed, slots))

    def encode_address(step: int, slot: int) -> list[int]:
        raw_k = rng.choice([c for c in (step, step + k)
                            if c < (1 << layout.addr_k_bits)] or [step])
        raw_w = rng.choice([c for c in (slot, slot + 2 * w)
                            if c < (1 << layout.addr_w_bits)])
        bits = [(raw_k >> j) & 1 for j in range(layout.addr_k_bits)]
        bits += [(raw_w >> j) & 1 for j in range(layout.addr_w_bits)]
        return bits

    def encode_value(target: int) -> list[int]:
        count = rng.choice([c for c in range(b + 1) if c % w == target])
        ones = rng.sample(range(b), count)
        return [1 if j in ones else 0 for j in range(b)]

    bits = [0] * layout.n
    for pos in range(layout.covered, layout.n):
        bits[pos] = rng.randint(0, 1)

    for address, p in placed.items():
        block = encode_address(*address) + encode_value(needed[address])
        bits[p * layout.a:(p + 1) * layout.a] = block

    filler = [p for p in range(layout.blocks) if p not in placed.values()]
    for p in filler:
        while True:
            step = rng.randrange(k)
            slot = rng.randrange(2 * w)
            owner = placed.get((step, slot))
            if owner is None or owner < p:
                break
        block = encode_address(step, slot) + [rng.randint(0, 1)
                                              for _ in range(b)]
        bits[p * layout.a:(p + 1) * layout.a] = block

    return Assignment(tuple(bits))


# ---------------------------------------------------------------------------
# XOR pointer jumping


def _check_mxpj_size(k: int, d: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if d < 2 or d & (d - 1):
        raise ValueError(f"d = {d} is not a power of two >= 2")


@dataclass(frozen=True)
class MXPJInstance:
    """2k function tables between two d-vertex sides.

    f_a[i][v] and f_b[i][v] give the image of vertex v under the (i+1)-th
    table of each side; vertices are labeled 0..d-1.  d must be a power
    of two so the bitwise XOR of two labels is again a label.
    """

    k: int
    d: int
    f_a: tuple[tuple[int, ...], ...]
    f_b: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_mxpj_size(self.k, self.d)
        for name, side in (("f_a", self.f_a), ("f_b", self.f_b)):
            if len(side) != self.k:
                raise ValueError(f"{name} must hold {self.k} tables")
            for i, table in enumerate(side):
                if len(table) != self.d or any(
                        not 0 <= v < self.d for v in table):
                    raise ValueError(
                        f"{name}[{i}] is not a map on 0..{self.d - 1}")

    @property
    def t(self) -> int:
        """Bits per table entry."""
        return (self.d - 1).bit_length()

    @property
    def n(self) -> int:
        return 2 * self.k * self.d * self.t


def encode_mxpj(inst: MXPJInstance) -> Assignment:
    """Lay out the tables as bits: all of side A, then side B.

    Each table contributes d blocks of t bits; block j holds the image
    of vertex j-1, LSB first.
    """
    bits: list[int] = []
    for side in (inst.f_a, inst.f_b):
        for table in side:
            for v in table:
                bits.extend((v >> j) & 1 for j in range(inst.t))
    return Assignment(tuple(bits))


def decode_mxpj(x: Assignment, k: int, d: int) -> MXPJInstance:
    """Inverse of :func:`encode_mxpj`; rejects inputs of the wrong length."""
    t = (d - 1).bit_length()
    if len(x) != 2 * k * d * t:
        raise ValueError(f"input length {len(x)} != 2kdt = {2 * k * d * t}")
    sides = []
    pos = 0
    for _ in range(2):
        tables = []
        for _ in range(k):
            table = []
            for _ in range(d):
                table.append(sum(x.bits[pos + j] << j for j in range(t)))
                pos += t
            tables.append(tuple(table))
        sides.append(tuple(tables))
    return MXPJInstance(k=k, d=d, f_a=sides[0], f_b=sides[1])


def _table_at(inst: MXPJInstance, i: int) -> tuple[int, ...]:
    """The table applied at hop i >= 1: side A on odd hops, B on even.

    Pair indices cycle mod k, so a k=1 instance supports walks of any
    length while a full instance uses pair ceil(i/2) for i <= 2k.
    """
    pair = ((i + 1) // 2 - 1) % inst.k
    return inst.f_a[pair] if i % 2 else inst.f_b[pair]


def pj_eval(inst: MXPJInstance, steps: int) -> int:
    """Plain pointer jumping: alternate the tables from vertex 0."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    v = 0
    for i in range(1, steps + 1):
        v = _table_at(inst, i)[v]
    return v


def mxpj_eval(inst: MXPJInstance) -> int:
    """XOR pointer jumping over 2k hops; parity of the final label.

    Each hop XORs the looked-up vertex with the vertex from two hops
    earlier; the two seeds (hops -1 and 0) are both vertex 0.
    """
    prev, cur = 0, 0
    for i in range(1, 2 * inst.k + 1):
        prev, cur = cur, _table_at(inst, i)[cur] ^ prev
    return cur.bit_count() & 1


# ---------------------------------------------------------------------------
# batch evaluators: one (m, n) uint8 bit matrix in, one (m,) uint8 vector out


def _lsb_values(cols: np.ndarray) -> np.ndarray:
    """Each line of the last axis read as an LSB-first unsigned integer.

    The dtype also holds 2**width, so the value can be reduced mod any
    modulus up to that.
    """
    import numpy as np
    width = cols.shape[-1]
    weights = 1 << np.arange(width)
    return cols @ weights.astype(np.min_scalar_type(1 << width))


def _saf_batch(bits: np.ndarray, layout: SAFLayout) -> np.ndarray:
    """saf_eval on every row.

    table[r, t, s] is where the walk goes from slot s at step t: the
    minimal block addressed (t, s) gives its value plus w from a
    lower-half slot, its value from an upper-half slot, and -1 if no
    block is addressed.  The extra last slot stays -1, so a walk at -1
    stays there.
    """
    import numpy as np
    m, k, w = len(bits), layout.k, layout.w
    ak, aw = layout.addr_k_bits, layout.addr_w_bits
    blocks = bits[:, :layout.covered].reshape(m, layout.blocks, layout.a)
    step = _lsb_values(blocks[:, :, :ak]) % k
    slot = _lsb_values(blocks[:, :, ak:ak + aw]) % (2 * w)
    dtype = np.min_scalar_type(-2 * w)
    value = blocks[:, :, ak + aw:].sum(axis=2, dtype=np.min_scalar_type(
        max(layout.b, w))) % w
    target = value.astype(dtype)
    target[slot < w] += w
    table = np.full((m, k, 2 * w + 1), -1, dtype)
    rows = np.arange(m)
    # descending block order: the minimal index is written last and wins
    for p in reversed(range(layout.blocks)):
        table[rows, step[:, p], slot[:, p]] = target[:, p]
    s = np.zeros(m, dtype)
    for t in range(k):
        s = table[rows, t, table[rows, t, s]]
    return (s > 0).astype(np.uint8)


def _mxpj_batch(bits: np.ndarray, k: int, d: int) -> np.ndarray:
    """mxpj_eval(decode_mxpj(x)) on every row."""
    import numpy as np
    m, t = len(bits), (d - 1).bit_length()
    # (m, 2k, d): side A's k tables, then side B's
    tables = _lsb_values(bits.reshape(m, 2 * k, d, t))
    rows = np.arange(m)
    prev = cur = np.zeros(m, tables.dtype)
    for i in range(1, 2 * k + 1):
        pair = (i + 1) // 2 - 1
        table = tables[:, pair if i % 2 else k + pair]
        prev, cur = cur, table[rows, cur] ^ prev
    shift = 1 << (t - 1).bit_length()
    while shift > 1:
        shift >>= 1
        cur ^= cur >> shift
    return (cur & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class FunctionOracle:
    """A named boolean function on n variables, callable on assignments.

    ``batch``, when set, maps an (m, n) uint8 0/1 matrix to the (m,)
    uint8 vector of the function's values on its rows.  It does no checks
    of its own: ``program.sweep_rows`` hands it only rows that passed
    ``program.as_rows``.
    """

    name: str
    n: int
    fn: Callable[[Assignment], int]
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")

    def __call__(self, x: Assignment) -> int:
        if len(x) != self.n:
            raise ValueError(f"input length {len(x)} != n = {self.n}")
        return self.fn(x)


def xor_function(n: int) -> FunctionOracle:
    import numpy as np
    return FunctionOracle(
        f"xor:{n}", n, lambda x: sum(x.bits) & 1,
        lambda xs: np.bitwise_xor.reduce(xs, axis=1))


def and_function(n: int) -> FunctionOracle:
    import numpy as np
    return FunctionOracle(
        f"and:{n}", n, lambda x: int(all(x.bits)),
        lambda xs: np.bitwise_and.reduce(xs, axis=1))


def constant_function(n: int, value: int) -> FunctionOracle:
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    import numpy as np
    return FunctionOracle(
        f"const{value}:{n}", n, lambda x: value,
        lambda xs: np.full(len(xs), value, np.uint8))


def saf_function(k: int, w: int, n: int) -> FunctionOracle:
    layout = SAFLayout(n=n, k=k, w=w)
    return FunctionOracle(f"saf:{k},{w},{n}", n,
                          lambda x: saf_eval(x, layout),
                          lambda xs: _saf_batch(xs, layout))


def mxpj_function(k: int, d: int) -> FunctionOracle:
    _check_mxpj_size(k, d)
    n = 2 * k * d * (d - 1).bit_length()
    return FunctionOracle(f"mxpj:{k},{d}", n,
                          lambda x: mxpj_eval(decode_mxpj(x, k, d)),
                          lambda xs: _mxpj_batch(xs, k, d))


def truth_table_function(name: str, values: Sequence[int]) -> FunctionOracle:
    """Oracle from an explicit table indexed by the integer encoding."""
    size = len(values)
    n = (size - 1).bit_length()
    if size < 2 or size != 1 << n:
        raise ValueError(f"table length {size} is not a power of two >= 2")
    if any(v not in (0, 1) for v in values):
        raise ValueError("table entries must be 0 or 1")
    table = tuple(values)
    import numpy as np
    column = np.array(table, np.uint8)
    return FunctionOracle(name, n, lambda x: table[x.to_int()],
                          lambda xs: column[_lsb_values(xs)])


def parse_descriptor(descriptor: str, families: dict):
    """``maker(p1, p2, ...)`` for "name:p1,p2,..." where ``families[name]``
    is ``(arity, maker)``; every command reads descriptors here."""
    head, sep, tail = descriptor.partition(":")
    if not sep:
        raise ValueError(f"bad function descriptor {descriptor!r} "
                         "(expected name:params)")
    try:
        args = [int(s) for s in tail.split(",")] if tail else []
    except ValueError:
        raise ValueError(f"bad parameters in descriptor {descriptor!r}")
    if head not in families:
        raise ValueError(f"unknown function family {head!r}; choose from "
                         f"{', '.join(sorted(families))}")
    arity, maker = families[head]
    if len(args) != arity:
        raise ValueError(f"{head} takes {arity} parameters, got {len(args)}")
    return maker(*args)


def parse_function(descriptor: str) -> FunctionOracle:
    """Build an oracle from a descriptor like "saf:2,2,57" or "xor:8"."""
    return parse_descriptor(descriptor, {
        "xor": (1, xor_function), "and": (1, and_function),
        "saf": (3, saf_function), "mxpj": (2, mxpj_function)})
