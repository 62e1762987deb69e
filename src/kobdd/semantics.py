"""Evaluation under the four transition semantics.

Every evaluator walks the k*n levels in order.  Level j reads the bit of
the variable it tests and applies the matching transition:

* deterministic:   follow the successor entry of the current node
* nondeterministic: propagate the set of reachable nodes along edges
* probabilistic:   left-multiply the distribution by a stochastic matrix
* quantum:         left-multiply the amplitudes by a unitary, measure once
                   at the end; acceptance probability is the squared norm
                   of the amplitudes on the accepting sinks

One kernel runs all four over an (m, n) matrix of assignments, one row
per input; a scalar call is a batch of one.  Batches exist because
exhaustive sweeps over 2^n inputs dominate the test suite's runtime.
"""

from __future__ import annotations

import numpy as np

from .program import (Assignment, Program, all_assignments_array, as_rows,
                      sweep_rows)

_DET, _NONDET = ("deterministic",), ("nondeterministic",)
_PROB = ("probabilistic", "quantum")
#: Floating-point error allowed in a probability by computes_bounded_error.
_SLACK = 1e-9


def _bits_of(x: Assignment | str | tuple | list) -> np.ndarray:
    """One input as a one-row matrix, for :func:`as_rows` to check."""
    if isinstance(x, str):
        x = Assignment.from_string(x)
    return np.array([x.bits if isinstance(x, Assignment) else tuple(x)])


def _compile_level(semantics: str, lvl):
    """The two operators of one level, indexed by the bit read.

    Deterministic: one (2, width_in) table of 0-based successors, read
    as ``tab[bit, node]``.  Otherwise two (width_in, width_out) matrices
    applied as ``state @ op``: float64 0/1 for a relation, transposed
    views for stochastic and unitary ones.
    """
    if semantics == "deterministic":
        return np.array([lvl.t0, lvl.t1], dtype=np.intp) - 1
    if semantics == "nondeterministic":
        ops = np.zeros((2, lvl.width_in, lvl.width_out))
        for op, t in zip(ops, (lvl.t0, lvl.t1)):
            edges = np.array(list(t), dtype=np.intp).reshape(-1, 2) - 1
            op[edges[:, 0], edges[:, 1]] = 1
        return ops
    return lvl.t0.T, lvl.t1.T


def _is_identity(lvl, ops) -> bool:
    """True iff both operators of a level are the exact identity, bit for
    bit: an identity holding -0.0 entries still runs."""
    w = lvl.width_in
    if w != lvl.width_out:
        return False
    eye = np.eye(w) if ops[0].ndim == 2 else np.arange(w)
    eye = eye.astype(ops[0].dtype)
    return all(op.tobytes() == eye.tobytes() for op in ops)


def _compiled(p: Program) -> tuple[tuple[int, object], ...]:
    """(0-based variable, operators) per level, built once per Program.

    An identity level's operators are None, and the kernel skips it.
    The list is kept in the instance dict, as functools.cached_property
    does; Program and its levels are frozen, so it never goes stale.
    """
    levels = p.__dict__.get("_kernel_levels")
    if levels is None:
        levels = []
        for lvl in p.levels:
            ops = _compile_level(p.semantics, lvl)
            levels.append((lvl.variable - 1,
                           None if _is_identity(lvl, ops) else ops))
        levels = p.__dict__["_kernel_levels"] = tuple(levels)
    return levels


def _kernel(p: Program, xs: np.ndarray, caller: str,
            semantics: tuple[str, ...], trace: bool = False):
    """Run p over every row of the (m, n) matrix xs.

    Returns accept bits (det, nondet) or acceptance probabilities per
    row; with trace=True, the row states before level 1 through after
    the last level instead.  Deterministic states are node indices of
    shape (m,), the others (m, width) reachability, probability or
    amplitude rows.  ``caller`` names the public function in the error
    raised for a program outside ``semantics``.
    """
    if p.semantics not in semantics:
        raise ValueError(f"{caller} on a {p.semantics} program")
    # one contiguous 0/1 row per variable; a gather needs integer bits
    bits = np.ascontiguousarray(as_rows(xs, p.n).T)
    m = bits.shape[1]
    det = p.semantics == "deterministic"
    nondet = p.semantics == "nondeterministic"
    if det:
        state = np.full(m, p.initial - 1, dtype=np.intp)
    else:
        state = np.zeros((m, p.levels[0].width_in),
                         complex if p.semantics == "quantum" else float)
        state[:, p.initial - 1] = 1
    # only a trace keeps old states; otherwise each (m, width) one is freed
    states = [state] if trace else None
    for var, ops in _compiled(p):
        if ops is None:
            pass
        elif det:
            state = ops[bits[var], state]
        else:
            state = np.where(bits[var][:, None], state @ ops[1],
                             state @ ops[0])
            if nondet:
                # stay a 0/1 indicator: unclamped path counts overflow
                np.minimum(state, 1, out=state)
        if trace:
            states.append(state)
    if trace:
        return states
    idx = [a - 1 for a in p.accept]
    if det:
        return np.isin(state, idx).view(np.uint8)
    mass = state[:, idx]
    if p.semantics == "quantum":
        mass = np.abs(mass) ** 2
    prob = mass @ np.ones(len(idx))
    return (prob > 0).astype(np.uint8) if nondet else prob


def eval_det(p: Program, x) -> int:
    """Run a deterministic program; return 1 iff the reached sink accepts."""
    return int(_kernel(p, _bits_of(x), "eval_det", _DET)[0])


def eval_det_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Deterministic evaluation of every row of an (m, n) uint8 matrix.

    Returns an (m,) uint8 vector of accept bits.
    """
    return _kernel(p, xs, "eval_det_batch", _DET)


def eval_nondet(p: Program, x) -> int:
    """Return 1 iff some path through chosen edges reaches an accepting sink."""
    return int(_kernel(p, _bits_of(x), "eval_nondet", _NONDET)[0])


def eval_nondet_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Nondeterministic batch evaluation via 0/1 reachability matrices."""
    return _kernel(p, xs, "eval_nondet_batch", _NONDET)


def accept_prob(p: Program, x) -> float:
    """Acceptance probability of one input (probabilistic or quantum)."""
    return float(_kernel(p, _bits_of(x), "accept_prob", _PROB)[0])


def accept_prob_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Acceptance probabilities for every row of an (m, n) uint8 matrix."""
    return _kernel(p, xs, "accept_prob_batch", _PROB)


def state_trace(p: Program, x) -> list[np.ndarray]:
    """All intermediate state vectors, before level 1 through after level k*n.

    Useful for checking conservation step by step: probability mass for
    stochastic programs, Euclidean norm for quantum ones.
    """
    states = _kernel(p, _bits_of(x), "state_trace", _PROB, trace=True)
    return [s[0] for s in states]


def evaluate(p: Program, x):
    """0/1 for det/nondet programs, an acceptance probability otherwise."""
    out = _kernel(p, _bits_of(x), "evaluate", (p.semantics,))[0]
    return float(out) if p.semantics in _PROB else int(out)


def computes_bounded_error(p: Program, f, epsilon: float) -> bool:
    """Exhaustively check the two-sided error condition against f.

    For every input x: f(x) = 1 demands acceptance probability at least
    1/2 + epsilon, f(x) = 0 demands at most 1/2 - epsilon.  ``_SLACK``
    absorbs floating-point error in the probabilities themselves.
    Only meaningful for probabilistic and quantum programs, and only
    feasible for n <= program.EXHAUSTIVE_LIMIT; all_assignments_array
    refuses larger n.
    """
    if p.semantics not in _PROB:
        raise ValueError("bounded error is about probability semantics")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1/2]")
    xs = all_assignments_array(p.n)
    probs = accept_prob_batch(p, xs)
    # NaN fails both tests, so a NaN probability never passes
    ok = np.where(sweep_rows(f, xs) == 1, probs >= 0.5 + epsilon - _SLACK,
                  probs <= 0.5 - epsilon + _SLACK)
    return bool(ok.all())
