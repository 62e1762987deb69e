"""Builders for small-width programs computing the two hard functions,
plus compilers embedding deterministic programs into the other semantics.

The XOR-pointer-jumping builder keeps a pair of vertex registers per
state and XORs addressed blocks into them, so every level map is an
involution or the identity; that bijectivity is what lets the quantum
compiler embed it as permutation matrices with zero error.

The shuffled-addressing builder runs one address lookup per layer.  Its
states track the current search target plus a tiny amount of matching
status; the status stays tiny because a v-bit raw field reduced mod m
with 2**v < 2m leaves at most two raw values that can hit a given
target, so bit-serial comparison only ever distinguishes "which of the
two survivors is still possible", not the whole field.
"""

from __future__ import annotations

import numpy as np

from .functions import SAFLayout, _check_mxpj_size
from .program import (Program, VariableOrder, det_level, matrix_level,
                      nondet_level)


class NonReversibleError(ValueError):
    """A level map is not a bijection, so no permutation embedding exists."""


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
    size = d * d
    identity = tuple(range(1, size + 1))

    levels = []
    for layer in range(1, k + 1):
        for pos in range(n):
            half, pos2 = divmod(pos, k * d * t)
            table_idx, rest = divmod(pos2, d * t)
            block_vertex, tau = divmod(rest, t)
            if table_idx != layer - 1:
                t1 = identity
            elif half == 0:
                t1 = tuple(
                    (u ^ (1 << tau)) * d + v + 1 if v == block_vertex
                    else u * d + v + 1
                    for u in range(d) for v in range(d))
            else:
                t1 = tuple(
                    u * d + (v ^ (1 << tau)) + 1 if u == block_vertex
                    else u * d + v + 1
                    for u in range(d) for v in range(d))
            levels.append(det_level(pos + 1, identity, t1, size))

    accept = frozenset(u * d + v + 1
                       for u in range(d) for v in range(d)
                       if v.bit_count() & 1)
    return Program(semantics="deterministic", n=n, k=k,
                   order=VariableOrder.identity(n), levels=tuple(levels),
                   initial=1, accept=accept)


# ---------------------------------------------------------------------------
# shuffled addressing, deterministic, 2k layers


_STATE_RANK = {"dead": 0, "search": 1, "kcand": 2, "wcand": 3,
               "sum": 4, "done": 5}


def _state_key(state: tuple) -> tuple:
    return (_STATE_RANK[state[0]],) + state[1:]


def build_saf_2k_obdd(k: int, w: int, n: int) -> Program:
    """Deterministic 2k-layer program for shuffled addressing.

    Layer 2t+1 resolves the lookup that yields step t's base, layer
    2t+2 the one that yields its value.  Within a layer a state is one
    of: dead (a lookup already failed), searching for slot i, comparing
    the current block's address against the target bit by bit, summing
    a matched block's value bits, or done holding the looked-up value.
    A failed comparison folds straight back into the searching state,
    which idles until the next block boundary.

    Width stays at most 3w+1 whenever k is at most 4 or a power of two
    and w is a power of two or at most 2; other parameters may briefly
    need a fourth matching status per slot (at most 4w+1 total).
    """
    layout = SAFLayout(n=n, k=k, w=w)
    a, covered = layout.a, layout.covered
    c_k, c_w = layout.addr_k_bits, layout.addr_w_bits

    def k_candidates(t: int) -> tuple:
        return tuple(c for c in (t, t + k) if c < (1 << c_k))

    def w_candidates(i: int) -> tuple:
        return tuple(c for c in (i, i + 2 * w) if c < (1 << c_w))

    def w_step(i: int, alive: tuple, j: int, bit: int) -> tuple:
        alive = tuple(c for c in alive if ((c >> j) & 1) == bit)
        if not alive:
            return ("search", i)
        if j == c_w - 1:
            return ("sum", 0)
        return ("wcand", i, alive)

    def k_step(i: int, alive: tuple, j: int, bit: int) -> tuple:
        alive = tuple(c for c in alive if ((c >> j) & 1) == bit)
        if not alive:
            return ("search", i)
        if j == c_k - 1:
            return ("wcand", i, w_candidates(i))
        return ("kcand", i, alive)

    def advance(state: tuple, bit: int, t: int, half: int,
                in_block: bool, o: int) -> tuple:
        kind = state[0]
        if kind in ("dead", "done") or not in_block:
            return state
        if kind == "search":
            if o != 0:
                return state
            i = state[1]
            if c_k == 0:
                return w_step(i, w_candidates(i), 0, bit)
            return k_step(i, k_candidates(t), 0, bit)
        if kind == "kcand":
            return k_step(state[1], state[2], o, bit)
        if kind == "wcand":
            return w_step(state[1], state[2], o - c_k, bit)
        s = (state[1] + bit) % w
        if o == a - 1:
            return ("done", s + w) if half == 1 else ("done", s)
        return ("sum", s)

    def layer_exit(state: tuple) -> tuple:
        if state[0] == "done":
            return ("search", state[1])
        return ("dead",)

    states: list[tuple] = [("search", 0)]
    levels = []
    for layer in range(1, 2 * k + 1):
        t, half = (layer - 1) // 2, 2 - (layer % 2)
        for pos in range(n):
            in_block = pos < covered
            o = pos % a
            last_of_layer = pos == n - 1
            image = {}
            for s in states:
                for bit in (0, 1):
                    ns = advance(s, bit, t, half, in_block, o)
                    if last_of_layer and layer < 2 * k:
                        ns = layer_exit(ns)
                    image[(s, bit)] = ns
            if last_of_layer and layer == 2 * k:
                t0 = tuple(2 if image[(s, 0)][0] == "done"
                           and image[(s, 0)][1] >= 1 else 1 for s in states)
                t1 = tuple(2 if image[(s, 1)][0] == "done"
                           and image[(s, 1)][1] >= 1 else 1 for s in states)
                levels.append(det_level(pos + 1, t0, t1, 2))
                break
            nxt = sorted(set(image.values()), key=_state_key)
            index = {s: i + 1 for i, s in enumerate(nxt)}
            t0 = tuple(index[image[(s, 0)]] for s in states)
            t1 = tuple(index[image[(s, 1)]] for s in states)
            levels.append(det_level(pos + 1, t0, t1, len(nxt)))
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


def _successor_matrix(t: tuple, width_out: int, dtype) -> np.ndarray:
    """The 0/1 (width_out, len(t)) matrix routing node i to successor t[i]."""
    m = np.zeros((width_out, len(t)), dtype=dtype)
    m[np.asarray(t) - 1, np.arange(len(t))] = 1.0
    return m


def compile_to_quantum(p: Program) -> Program:
    """Permutation embedding of a constant-width bijective program.

    Each successor map becomes the permutation matrix routing amplitude
    from node i to its successor; outputs match the deterministic
    program exactly, so the result carries epsilon = 1/2.
    """
    _require_deterministic(p, "compile_to_quantum")
    size = p.levels[0].width_in
    levels = []
    for idx, lvl in enumerate(p.levels, start=1):
        if lvl.width_in != size or lvl.width_out != size:
            raise NonReversibleError(
                f"level {idx}: width {lvl.width_in}->{lvl.width_out} "
                f"breaks the constant width {size}")
        mats = []
        for which, t in (("t0", lvl.t0), ("t1", lvl.t1)):
            if sorted(t) != list(range(1, size + 1)):
                raise NonReversibleError(
                    f"level {idx}: {which} is not a bijection")
            mats.append(_successor_matrix(t, size, np.complex128))
        levels.append(matrix_level(lvl.variable, mats[0], mats[1]))
    return Program(semantics="quantum", n=p.n, k=p.k, order=p.order,
                   levels=tuple(levels), initial=p.initial,
                   accept=p.accept, epsilon=0.5)


def compile_to_nondet(p: Program) -> Program:
    """Graph-of-function embedding; reachable sets stay singletons."""
    _require_deterministic(p, "compile_to_nondet")
    levels = tuple(
        nondet_level(l.variable, l.width_in, l.width_out,
                     ((i + 1, succ) for i, succ in enumerate(l.t0)),
                     ((i + 1, succ) for i, succ in enumerate(l.t1)))
        for l in p.levels)
    return Program(semantics="nondeterministic", n=p.n, k=p.k,
                   order=p.order, levels=levels, initial=p.initial,
                   accept=p.accept)


def compile_to_prob(p: Program) -> Program:
    """0-1 column-stochastic embedding; all probabilities stay 0 or 1."""
    _require_deterministic(p, "compile_to_prob")
    levels = tuple(
        matrix_level(l.variable,
                     _successor_matrix(l.t0, l.width_out, np.float64),
                     _successor_matrix(l.t1, l.width_out, np.float64))
        for l in p.levels)
    return Program(semantics="probabilistic", n=p.n, k=p.k, order=p.order,
                   levels=levels, initial=p.initial,
                   accept=p.accept, epsilon=0.5)
