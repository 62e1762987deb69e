"""Shared oracles and generators.

Every oracle here is written straight from the defining recurrences and
deliberately avoids the package's own code paths, so that each test
compares two independent routes to the same value.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

from kobdd import (Assignment, MXPJInstance, Program, VariableOrder,
                   det_level, matrix_level, nondet_level)

# ---------------------------------------------------------------------------
# independent function oracles


def naive_subfunction_count(f, subset) -> int:
    """Two-loop distinct-restriction counter, the reference for all
    subfunction counting."""
    n = f.n
    a_vars = sorted(subset)
    b_vars = [j for j in range(1, n + 1) if j not in subset]
    tables = set()
    for rho in product((0, 1), repeat=len(a_vars)):
        row = []
        for sigma in product((0, 1), repeat=len(b_vars)):
            bits = [0] * n
            for j, v in zip(a_vars, rho):
                bits[j - 1] = v
            for j, v in zip(b_vars, sigma):
                bits[j - 1] = v
            row.append(f(Assignment(tuple(bits))))
        tables.add(tuple(row))
    return len(tables)


def mxpj_trace(inst: MXPJInstance) -> int:
    """Pointer-jumping-with-xor evaluated by materializing the whole
    hop history."""
    history = [0, 0]
    for i in range(1, 2 * inst.k + 1):
        pair = (i + 1) // 2
        table = inst.f_a[pair - 1] if i % 2 == 1 else inst.f_b[pair - 1]
        history.append(table[history[-1]] ^ history[-2])
    return bin(history[-1]).count("1") % 2


def saf_reference(bits, k: int, w: int):
    """Recursive shuffled-addressing evaluator; returns the whole
    chain of step pairs, seed pair included."""
    n = len(bits)
    blocks = 2 * k * w
    a = n // blocks
    ck = (k - 1).bit_length()
    cw = (2 * w - 1).bit_length()
    if a - ck - cw < 1:
        raise ValueError("no room for value bits")

    def block(p):
        return bits[p * a:(p + 1) * a]

    def address(p):
        bl = block(p)
        raw_k = sum(bit << j for j, bit in enumerate(bl[:ck]))
        raw_w = sum(bit << j for j, bit in enumerate(bl[ck:ck + cw]))
        return raw_k % k, raw_w % (2 * w)

    def value(p):
        return sum(block(p)[ck + cw:]) % w

    def lookup(i, t):
        for p in range(blocks):
            if address(p) == (t, i):
                return value(p)
        return -1

    pairs = [(0, 0)]
    for t in range(k):
        _, prev = pairs[-1]
        if prev < 0:
            pairs.append((-1, -1))
            continue
        v = lookup(prev, t)
        s1 = v + w if v >= 0 else -1
        s2 = lookup(s1, t) if s1 >= 0 else -1
        pairs.append((s1, s2))
    return pairs


def saf_ref_eval(bits, k: int, w: int) -> int:
    return 1 if saf_reference(bits, k, w)[-1][1] > 0 else 0


# ---------------------------------------------------------------------------
# random program generators (all outputs pass validate())


def random_order(rng: random.Random, n: int) -> VariableOrder:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return VariableOrder(tuple(perm))


def _level_vars(order: VariableOrder, k: int):
    return list(order) * k


def random_det_program(rng: random.Random, n: int, k: int,
                       wmax: int = 5) -> Program:
    order = random_order(rng, n)
    widths = [rng.randint(1, wmax) for _ in range(k * n + 1)]
    levels = []
    for idx, var in enumerate(_level_vars(order, k)):
        win, wout = widths[idx], widths[idx + 1]
        t0 = tuple(rng.randint(1, wout) for _ in range(win))
        t1 = tuple(rng.randint(1, wout) for _ in range(win))
        levels.append(det_level(var, t0, t1, wout))
    accept = frozenset(s for s in range(1, widths[-1] + 1)
                       if rng.random() < 0.5)
    return Program(semantics="deterministic", n=n, k=k, order=order,
                   levels=tuple(levels), initial=rng.randint(1, widths[0]),
                   accept=accept)


def random_reversible_det_program(rng: random.Random, n: int, k: int,
                                  w: int = 4) -> Program:
    order = random_order(rng, n)
    levels = []
    for var in _level_vars(order, k):
        t0 = list(range(1, w + 1))
        t1 = list(range(1, w + 1))
        rng.shuffle(t0)
        rng.shuffle(t1)
        levels.append(det_level(var, tuple(t0), tuple(t1), w))
    accept = frozenset(s for s in range(1, w + 1) if rng.random() < 0.5)
    return Program(semantics="deterministic", n=n, k=k, order=order,
                   levels=tuple(levels), initial=rng.randint(1, w),
                   accept=accept)


def random_nondet_program(rng: random.Random, n: int, k: int,
                          wmax: int = 5) -> Program:
    order = random_order(rng, n)
    widths = [rng.randint(1, wmax) for _ in range(k * n + 1)]
    levels = []
    for idx, var in enumerate(_level_vars(order, k)):
        win, wout = widths[idx], widths[idx + 1]

        def edges():
            return frozenset((s, t) for s in range(1, win + 1)
                             for t in range(1, wout + 1)
                             if rng.random() < 0.45)

        levels.append(nondet_level(var, win, wout, edges(), edges()))
    accept = frozenset(s for s in range(1, widths[-1] + 1)
                       if rng.random() < 0.5)
    return Program(semantics="nondeterministic", n=n, k=k, order=order,
                   levels=tuple(levels), initial=rng.randint(1, widths[0]),
                   accept=accept)


def random_prob_program(rng: random.Random, n: int, k: int,
                        wmax: int = 5) -> Program:
    nprng = np.random.Generator(np.random.PCG64(rng.getrandbits(32)))
    order = random_order(rng, n)
    widths = [rng.randint(1, wmax) for _ in range(k * n + 1)]
    levels = []
    for idx, var in enumerate(_level_vars(order, k)):
        win, wout = widths[idx], widths[idx + 1]

        def stochastic():
            m = nprng.random((wout, win)) + 1e-3
            return m / m.sum(axis=0, keepdims=True)

        levels.append(matrix_level(var, stochastic(), stochastic()))
    accept = frozenset(s for s in range(1, widths[-1] + 1)
                       if rng.random() < 0.5)
    return Program(semantics="probabilistic", n=n, k=k, order=order,
                   levels=tuple(levels), initial=rng.randint(1, widths[0]),
                   accept=accept)


def random_unitary(nprng, w: int) -> np.ndarray:
    z = nprng.normal(size=(w, w)) + 1j * nprng.normal(size=(w, w))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_quantum_program(rng: random.Random, n: int, k: int,
                           w: int = 4) -> Program:
    nprng = np.random.Generator(np.random.PCG64(rng.getrandbits(32)))
    order = random_order(rng, n)
    levels = [matrix_level(var, random_unitary(nprng, w),
                           random_unitary(nprng, w))
              for var in _level_vars(order, k)]
    accept = frozenset(s for s in range(1, w + 1) if rng.random() < 0.5)
    return Program(semantics="quantum", n=n, k=k, order=order,
                   levels=tuple(levels), initial=rng.randint(1, w),
                   accept=accept)


def random_program(rng: random.Random, semantics: str, n: int, k: int,
                   wmax: int = 5) -> Program:
    maker = {"deterministic": random_det_program,
             "nondeterministic": random_nondet_program,
             "probabilistic": random_prob_program}
    if semantics == "quantum":
        return random_quantum_program(rng, n, k, w=rng.randint(1, wmax))
    return maker[semantics](rng, n, k, wmax=wmax)


# ---------------------------------------------------------------------------
# brute-force semantics oracles


def det_by_hand(p: Program, x: Assignment) -> int:
    node = p.initial
    for level in p.levels:
        succ = level.t1 if x.bit(level.variable) else level.t0
        node = succ[node - 1]
    return 1 if node in p.accept else 0


def nondet_by_paths(p: Program, x: Assignment) -> int:
    frontier = {p.initial}
    for level in p.levels:
        rel = level.t1 if x.bit(level.variable) else level.t0
        if isinstance(rel, tuple):      # a function: source i goes to rel[i-1]
            rel = enumerate(rel, 1)
        frontier = {t for (s, t) in rel if s in frontier}
        if not frontier:
            return 0
    return 1 if frontier & p.accept else 0


def one_hot(t: tuple, width_out: int, dtype) -> np.ndarray:
    """Successor tuple t as its (width_out, len(t)) 0/1 matrix, by hand."""
    m = np.zeros((width_out, len(t)), dtype=dtype)
    for c, s in enumerate(t):
        m[s - 1, c] = 1
    return m


def _step_by_hand(level, m, v: np.ndarray) -> np.ndarray:
    """m @ v for a matrix m; for a successor tuple, each node's weight
    moved to its successor."""
    if not isinstance(m, tuple):
        return m @ v
    out = np.zeros(level.width_out, dtype=v.dtype)
    for i, s in enumerate(m):
        out[s - 1] += v[i]
    return out


def prob_by_hand(p: Program, x: Assignment) -> float:
    v = np.zeros(p.levels[0].width_in)
    v[p.initial - 1] = 1.0
    for level in p.levels:
        m = level.t1 if x.bit(level.variable) else level.t0
        v = _step_by_hand(level, m, v)
    return float(sum(v[s - 1] for s in p.accept))


def quantum_by_hand(p: Program, x: Assignment) -> float:
    v = np.zeros(p.levels[0].width_in, dtype=complex)
    v[p.initial - 1] = 1.0
    for level in p.levels:
        m = level.t1 if x.bit(level.variable) else level.t0
        v = _step_by_hand(level, m, v)
    return float(sum(abs(v[s - 1]) ** 2 for s in p.accept))
