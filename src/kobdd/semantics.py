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

from .program import Assignment, Program, all_assignments_array, sweep_rows

_STATE_DTYPES = {"nondeterministic": bool, "probabilistic": np.float64,
                 "quantum": np.complex128}
_DET, _NONDET = ("deterministic",), ("nondeterministic",)
_PROB = ("probabilistic", "quantum")


def _bits_of(x: Assignment | str | tuple | list, n: int) -> np.ndarray:
    """One input as a (1, n) uint8 row."""
    if isinstance(x, Assignment):
        bits = x.bits
    elif isinstance(x, str):
        bits = Assignment.from_string(x).bits
    else:
        bits = Assignment(tuple(x)).bits
    if len(bits) != n:
        raise ValueError(f"input has {len(bits)} bits, program reads {n}")
    return np.array([bits], dtype=np.uint8)


def _compile_level(semantics: str, lvl):
    """The two operators of one level in the form the kernel applies.

    Deterministic levels become 0-based int64 successor arrays,
    nondeterministic ones boolean (width_in, width_out) adjacency
    matrices, and matrix levels transposed views, so that a row state
    advances as ``state @ op``.
    """
    if semantics == "deterministic":
        return tuple(np.asarray(t, dtype=np.int64) - 1
                     for t in (lvl.t0, lvl.t1))
    if semantics == "nondeterministic":
        ops = []
        for t in (lvl.t0, lvl.t1):
            a = np.zeros((lvl.width_in, lvl.width_out), dtype=bool)
            for s, d in t:
                a[s - 1, d - 1] = True
            ops.append(a)
        return tuple(ops)
    return lvl.t0.T, lvl.t1.T


def _compiled(p: Program) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """(0-based variable, op0, op1) per level, built once per Program.

    The list is kept in the instance dict, as functools.cached_property
    does; Program and its levels are frozen, so it never goes stale.
    """
    levels = p.__dict__.get("_kernel_levels")
    if levels is None:
        levels = tuple((lvl.variable - 1, *_compile_level(p.semantics, lvl))
                       for lvl in p.levels)
        p.__dict__["_kernel_levels"] = levels
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
    xs = np.asarray(xs)
    m = xs.shape[0]
    det = p.semantics == "deterministic"
    if det:
        state = np.full(m, p.initial - 1, dtype=np.int64)
    else:
        state = np.zeros((m, p.levels[0].width_in),
                         dtype=_STATE_DTYPES[p.semantics])
        state[:, p.initial - 1] = 1
    # only a trace keeps old states; otherwise each (m, width) one is freed
    states = [state] if trace else None
    for var, op0, op1 in _compiled(p):
        b = xs[:, var] == 1
        if det:
            state = np.where(b, op1[state], op0[state])
        else:
            state = np.where(b[:, None], state @ op1, state @ op0)
        if trace:
            states.append(state)
    if trace:
        return states
    idx = [a - 1 for a in p.accept]
    if det:
        accept = np.zeros(p.final_width, dtype=np.uint8)
        accept[idx] = 1
        return accept[state]
    if p.semantics == "nondeterministic":
        mask = np.zeros(p.final_width, dtype=bool)
        mask[idx] = True
        return (state & mask).any(axis=1).astype(np.uint8)
    if p.semantics == "quantum":
        return np.abs(state[:, idx]) ** 2 @ np.ones(len(idx))
    return state[:, idx] @ np.ones(len(idx))


def eval_det(p: Program, x) -> int:
    """Run a deterministic program; return 1 iff the reached sink accepts."""
    return int(_kernel(p, _bits_of(x, p.n), "eval_det", _DET)[0])


def eval_det_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Deterministic evaluation of every row of an (m, n) uint8 matrix.

    Returns an (m,) uint8 vector of accept bits.
    """
    return _kernel(p, xs, "eval_det_batch", _DET)


def eval_nondet(p: Program, x) -> int:
    """Return 1 iff some path through chosen edges reaches an accepting sink."""
    return int(_kernel(p, _bits_of(x, p.n), "eval_nondet", _NONDET)[0])


def eval_nondet_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Nondeterministic batch evaluation via 0/1 reachability matrices."""
    return _kernel(p, xs, "eval_nondet_batch", _NONDET)


def accept_prob(p: Program, x) -> float:
    """Acceptance probability of one input (probabilistic or quantum)."""
    return float(_kernel(p, _bits_of(x, p.n), "accept_prob", _PROB)[0])


def accept_prob_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Acceptance probabilities for every row of an (m, n) uint8 matrix."""
    return _kernel(p, xs, "accept_prob_batch", _PROB)


def state_trace(p: Program, x) -> list[np.ndarray]:
    """All intermediate state vectors, before level 1 through after level k*n.

    Useful for checking conservation step by step: probability mass for
    stochastic programs, Euclidean norm for quantum ones.
    """
    states = _kernel(p, _bits_of(x, p.n), "state_trace", _PROB, trace=True)
    return [s[0] for s in states]


def evaluate(p: Program, x):
    """Dispatch on semantics: 0/1 for det/nondet, a probability otherwise."""
    if p.semantics == "deterministic":
        return eval_det(p, x)
    if p.semantics == "nondeterministic":
        return eval_nondet(p, x)
    return accept_prob(p, x)


def computes_bounded_error(p: Program, f, epsilon: float,
                           slack: float = 1e-9) -> bool:
    """Exhaustively check the two-sided error condition against f.

    For every input x: f(x) = 1 demands acceptance probability at least
    1/2 + epsilon, f(x) = 0 demands at most 1/2 - epsilon.  The slack
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
    ok = np.where(sweep_rows(f, xs) == 1, probs >= 0.5 + epsilon - slack,
                  probs <= 0.5 - epsilon + slack)
    return bool(ok.all())
