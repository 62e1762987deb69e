"""Builders for small-width programs computing the two hard functions,
plus compilers embedding deterministic programs into the other semantics.

The XOR-pointer-jumping builder keeps a pair of vertex registers per
state and XORs addressed blocks into them, so every level map is an
involution or the identity; that bijectivity is what lets the quantum
compiler embed it as permutations with zero error.  The compilers keep
a program's levels: a successor tuple is a 0/1 function in every
semantics.

The shuffled-addressing builder runs one address lookup per layer.  Its
states track the current search target plus a tiny amount of matching
status; the status stays tiny because a v-bit raw field reduced mod m
with 2**v < 2m leaves at most two raw values that can hit a given
target, so bit-serial comparison only ever distinguishes "which of the
two survivors is still possible", not the whole field.
"""

from __future__ import annotations

import dataclasses

from .functions import SAFLayout, _check_mxpj_size
from .program import Program, VariableOrder, det_level


class NonReversibleError(ValueError):
    """A level map is not a bijection, so no permutation embedding exists."""


#: Most nodes, summed over levels, a builder makes; checked before work.
NODE_LIMIT = 10 ** 7


def _check_nodes(levels: int, width: int) -> None:
    if levels * width > NODE_LIMIT:
        raise ValueError(f"{levels} levels of up to {width} nodes exceed "
                         f"the build budget of {NODE_LIMIT} nodes")


# ---------------------------------------------------------------------------
# XOR pointer jumping, deterministic, width d^2


def build_mxpj_id_obdd(k: int, d: int) -> Program:
    """Deterministic k-layer program for XOR pointer jumping, width d*d.

    States are pairs (u, v) of vertex registers, indexed u*d + v + 1.
    Layer i idles through every block except the two it needs: inside
    table i of side A it XORs the bits of the block addressed by v into
    u, then inside table i of side B the block addressed by u into v.
    After layer i the pair holds the walk's two latest vertices; the
    accepting sinks are the states whose v register has odd parity.
    """
    _check_mxpj_size(k, d)
    t = (d - 1).bit_length()
    n = 2 * k * d * t
    _check_nodes(k * n, d * d)
    size = d * d
    identity = tuple(range(1, size + 1))
    # every layer XORs the same bits, so each map is built once and shared
    flips = {}
    for x in range(d):
        for tau in range(t):
            flips[0, x, tau] = tuple((u ^ (1 << tau)) * d + v + 1 if v == x
                                     else u * d + v + 1
                                     for u in range(d) for v in range(d))
            flips[1, x, tau] = tuple(u * d + (v ^ (1 << tau)) + 1 if u == x
                                     else u * d + v + 1
                                     for u in range(d) for v in range(d))

    levels = []
    for layer in range(1, k + 1):
        for pos in range(n):
            half, pos2 = divmod(pos, k * d * t)
            table_idx, rest = divmod(pos2, d * t)
            block_vertex, tau = divmod(rest, t)
            t1 = (flips[half, block_vertex, tau] if table_idx == layer - 1
                  else identity)
            levels.append(det_level(pos + 1, identity, t1, size))

    accept = frozenset(u * d + v + 1
                       for u in range(d) for v in range(d)
                       if v.bit_count() & 1)
    return Program(semantics="deterministic", n=n, k=k,
                   order=VariableOrder.identity(n), levels=tuple(levels),
                   initial=1, accept=accept)


# ---------------------------------------------------------------------------
# shuffled addressing, deterministic, 2k layers


#: State kinds, in the order a level numbers its states.
DEAD, SEARCH, KCAND, WCAND, SUM, DONE = range(6)


def build_saf_2k_obdd(k: int, w: int, n: int) -> Program:
    """Deterministic 2k-layer program for shuffled addressing.

    Layer 2t+1 resolves the lookup that yields step t's base, layer
    2t+2 the one that yields its value.  Within a layer a state is one
    of: dead (a lookup already failed), searching for slot i, comparing
    the current block's step address (kcand) or slot address (wcand)
    against the target bit by bit, summing a matched block's value bits,
    or done holding the looked-up value.  A failed comparison folds
    straight back into the searching state, which idles until the next
    block boundary.  At a layer's end a done state searches for its
    value in the next layer and every other state dies; after the last
    layer a positive value accepts (sink 2) and all else rejects (sink 1).

    Each state is a tuple whose first entry is its kind, an int ordered
    DEAD < SEARCH < KCAND < WCAND < SUM < DONE, so every level, the sink
    level too, numbers its states in sorted order.

    Width stays at most 3w+1 whenever k is at most 4 or a power of two
    and w is a power of two or at most 2; other parameters may briefly
    need a fourth matching status per slot (at most 4w+1 total).
    """
    layout = SAFLayout(n=n, k=k, w=w)
    _check_nodes(2 * k * n, 4 * w + 1)
    a, covered = layout.a, layout.covered
    c_k, c_w = layout.addr_k_bits, layout.addr_w_bits

    def candidates(first: int, stride: int, bits: int) -> tuple:
        return tuple(c for c in (first, first + stride) if c < (1 << bits))

    def compare(kind: int, i: int, alive: tuple, o: int, bit: int) -> tuple:
        """Keep the candidates that agree with bit o of the block, which
        reads the step field (kcand) then the slot field (wcand)."""
        j = o - c_k if kind == WCAND else o
        alive = tuple(c for c in alive if ((c >> j) & 1) == bit)
        if not alive:
            return (SEARCH, i)
        if o == c_k + c_w - 1:
            return (SUM, 0)
        if o == c_k - 1:
            return (WCAND, i, candidates(i, 2 * w, c_w))
        return (kind, i, alive)

    def advance(state: tuple, bit: int, t: int, shift: int, o: int) -> tuple:
        if state[0] == SEARCH and o == 0:   # a block opens
            i = state[1]
            state = ((KCAND, i, candidates(t, k, c_k)) if c_k
                     else (WCAND, i, candidates(i, 2 * w, c_w)))
        if state[0] in (KCAND, WCAND):
            return compare(*state, o, bit)
        if state[0] == SUM:
            s = (state[1] + bit) % w
            return (DONE, s + shift) if o == a - 1 else (SUM, s)
        return state

    states: list[tuple] = [(SEARCH, 0)]
    levels = []
    for layer in range(1, 2 * k + 1):
        t, shift, final = (layer - 1) // 2, w * (layer % 2), layer == 2 * k
        for pos in range(n):
            image = [[advance(s, bit, t, shift, pos % a) if pos < covered
                      else s for s in states] for bit in (0, 1)]
            if pos == n - 1:   # a layer's end
                image = [[(DEAD,) if s[0] != DONE or (final and s[1] == 0)
                          else (DONE, 1) if final else (SEARCH, s[1])
                          for s in row] for row in image]
            nxt = ([(DEAD,), (DONE, 1)] if final and pos == n - 1
                   else sorted(set(image[0] + image[1])))
            index = {s: i + 1 for i, s in enumerate(nxt)}
            levels.append(det_level(pos + 1, (index[s] for s in image[0]),
                                    (index[s] for s in image[1]), len(nxt)))
            states = nxt

    return Program(semantics="deterministic", n=n, k=2 * k,
                   order=VariableOrder.identity(n), levels=tuple(levels),
                   initial=1, accept=frozenset({2}))


# ---------------------------------------------------------------------------
# semantics embeddings


def _require_deterministic(p: Program, who: str) -> None:
    if p.semantics != "deterministic":
        raise ValueError(f"{who} expects a deterministic program, "
                         f"got {p.semantics}")


def compile_to_quantum(p: Program) -> Program:
    """Permutation embedding of a constant-width bijective program, on
    p's own levels; outputs match p exactly, so epsilon = 1/2."""
    _require_deterministic(p, "compile_to_quantum")
    size = p.levels[0].width_in
    for idx, lvl in enumerate(p.levels, start=1):
        if lvl.width_in != size or lvl.width_out != size:
            raise NonReversibleError(
                f"level {idx}: width {lvl.width_in}->{lvl.width_out} "
                f"breaks the constant width {size}")
        for which, t in (("t0", lvl.t0), ("t1", lvl.t1)):
            if sorted(t) != list(range(1, size + 1)):
                raise NonReversibleError(
                    f"level {idx}: {which} is not a bijection")
    return dataclasses.replace(p, semantics="quantum", epsilon=0.5)


def compile_to_nondet(p: Program) -> Program:
    """Graph-of-function embedding of p's levels: singleton reachable sets."""
    _require_deterministic(p, "compile_to_nondet")
    return dataclasses.replace(p, semantics="nondeterministic", epsilon=None)


def compile_to_prob(p: Program) -> Program:
    """0-1 column-stochastic embedding on p's own levels; all
    probabilities stay 0 or 1."""
    _require_deterministic(p, "compile_to_prob")
    return dataclasses.replace(p, semantics="probabilistic", epsilon=0.5)
