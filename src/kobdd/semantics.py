"""Evaluation under the four transition semantics.

Every evaluator walks the k*n levels in order.  Level j reads the bit of
the variable it tests and applies the matching transition:

* deterministic:   follow the successor entry of the current node
* nondeterministic: propagate the set of reachable nodes along edges
* probabilistic:   left-multiply the distribution by a stochastic matrix
* quantum:         left-multiply the amplitudes by a unitary, measure once
                   at the end; acceptance probability is the squared norm
                   of the amplitudes on the accepting sinks

One plan per program marks each level once as a pair of successor tuples
(every 0/1 function branch is one, in any semantics), an identity pair,
which is skipped, or dense.  The scalar walk, the kernel and the trace
all read it.  The kernel runs all four semantics over an (m, n) matrix of
assignments, one row per input.  A row stays one node index through every
pair and becomes a dense vector only at the first dense level; a trace
keeps the same node form and shows it as one-hot rows.  A scalar call on
a program of pairs, which every built program is, follows one node in
plain Python and never imports numpy; on any other program it is a batch
of one.
"""

from __future__ import annotations

from functools import partial

from .program import (SWEEP_CHUNK, Assignment, Program, _memo,
                      all_assignments_array, as_rows, sweep_rows)

_DET, _NONDET = ("deterministic",), ("nondeterministic",)
_PROB = ("probabilistic", "quantum")
#: Floating-point error allowed in a probability by computes_bounded_error.
_SLACK = 1e-9


def _bits_of(x: Assignment | str | tuple | list) -> tuple:
    """One input's bits, unchecked: a string read as 0/1, an Assignment's
    bits, any other sequence as a tuple."""
    if isinstance(x, str):
        x = Assignment.from_string(x)
    return x.bits if isinstance(x, Assignment) else tuple(x)


def _check_semantics(p: Program, caller: str,
                     semantics: tuple[str, ...]) -> None:
    if p.semantics not in semantics:
        raise ValueError(f"{caller} on a {p.semantics} program")


def _table(t0, t1) -> np.ndarray:
    """A pair's (2, width_in) array of 0-based successors, read as
    ``tab[bit, node]``."""
    import numpy as np
    return np.array([t0, t1], dtype=np.intp) - 1


def _dense(semantics: str, t, width_in: int, width_out: int) -> np.ndarray:
    """Branch t as a (width_in, width_out) ``state @ op`` matrix: a matrix
    transposed, else 0/1 (one-hot for a tuple), complex under quantum."""
    import numpy as np
    if isinstance(t, np.ndarray):
        return t.T
    op = np.zeros((width_in, width_out),
                  dtype=complex if semantics == "quantum" else float)
    edges = enumerate(t, 1) if isinstance(t, tuple) else t
    edges = np.array(list(edges), dtype=np.intp).reshape(-1, 2) - 1
    op[edges[:, 0], edges[:, 1]] = 1
    return op


def _plan(p: Program) -> tuple:
    """(walk, levels, table, dense), made once per Program without numpy.

    levels holds (0-based variable, pair, level) per level.  The pair is
    the level's two branches if both are successor tuples, or in any
    deterministic level; () if they also send every node to itself, an
    identity that every mode skips; None for a dense level.  walk is True
    iff every branch is a tuple, so that one node can follow the pairs in
    plain Python.  table(t0, t1) and dense(t, width_in, width_out) are
    :func:`_table` and :func:`_dense`, each made once per distinct
    transition, when a row first needs it.  The plan is kept in the
    instance dict, as functools.cached_property does; Program and its
    levels are frozen, so it never goes stale.
    """
    plan = p.__dict__.get("_plan")
    if plan is None:
        walk, levels = True, []
        for lvl in p.levels:
            t0, t1 = pair = lvl.t0, lvl.t1
            tuples = isinstance(t0, tuple) and isinstance(t1, tuple)
            if not tuples and p.semantics != "deterministic":
                pair = None
            elif lvl.width_in == lvl.width_out and tuple(t0) == tuple(
                    t1) == tuple(range(1, lvl.width_in + 1)):
                pair = ()
            walk = walk and tuples
            levels.append((lvl.variable - 1, pair, lvl))
        # p holds every transition, so their ids stay unique
        plan = p.__dict__["_plan"] = (
            walk, tuple(levels),
            _memo(lambda t0, t1: (id(t0), id(t1)), _table),
            _memo(lambda t, *widths: (id(t), *widths),
                  partial(_dense, p.semantics)))
    return plan


def _kernel(p: Program, xs: np.ndarray, caller: str,
            semantics: tuple[str, ...], trace: bool = False):
    """Run p over every row of the (m, n) matrix xs.

    Returns accept bits (det, nondet) or acceptance probabilities per
    row; with trace=True, the row states before level 1 through after
    the last level instead.  ``caller`` names the public function in the
    error raised for a program outside ``semantics``.

    A row is one node index, advanced by a gather, up to the first dense
    level; there it becomes a one-hot (m, width) reachability,
    probability or amplitude row, and each later level is a matrix step.
    A one-hot row times a 0/1 function matrix is exact, so both forms
    give the same bits.  Deterministic rows never leave the node form;
    a trace of any other semantics shows a node as its one-hot row.
    """
    import numpy as np
    _check_semantics(p, caller, semantics)
    # one contiguous 0/1 row per variable; a gather needs integer bits
    bits = np.ascontiguousarray(as_rows(xs, p.n).T)
    _, levels, table, dense = _plan(p)
    det = p.semantics == "deterministic"
    nondet = p.semantics == "nondeterministic"
    dtype = complex if p.semantics == "quantum" else float
    node = np.full(bits.shape[1], p.initial - 1, dtype=np.intp)
    state = None

    def seen(width: int) -> np.ndarray:     # the state as a trace gives it
        if state is None and not det:
            return np.eye(width, dtype=dtype)[node]
        return node if state is None else state

    # only a trace keeps old states; otherwise each (m, width) one is freed
    states = [seen(p.levels[0].width_in)] if trace else None
    for var, pair, lvl in levels:
        if state is None and pair:
            node = table(*pair)[bits[var], node]
        elif pair != ():
            op0, op1 = (dense(t, lvl.width_in, lvl.width_out)
                        for t in (lvl.t0, lvl.t1))
            if state is None:
                state = np.eye(len(op0), dtype=dtype)[node]
            # each row passes only the branch its bit takes
            out = np.empty((len(state), op0.shape[1]),
                           np.result_type(state, op0, op1))
            for bit, op in ((0, op0), (1, op1)):
                rows = np.flatnonzero(bits[var] == bit)
                out[rows] = state[rows] @ op
            state = out
            if nondet:
                # stay a 0/1 indicator: unclamped path counts overflow
                np.minimum(state, 1, out=state)
        if trace:
            states.append(seen(lvl.width_out))
    if trace:
        return states
    idx = [a - 1 for a in p.accept]
    if state is None:
        hit = np.isin(node, idx)
        return hit.view(np.uint8) if det or nondet else hit.astype(float)
    mass = state[:, idx]
    if p.semantics == "quantum":
        mass = np.abs(mass) ** 2
    prob = mass @ np.ones(len(idx))
    return (prob > 0).astype(np.uint8) if nondet else prob


def _scalar(p: Program, x, caller: str, semantics: tuple[str, ...]):
    """One input's accept bit (det, nondet) as an int, or its acceptance
    probability (prob, quantum) as a float.

    On a program whose plan walks, a single node follows its pairs: the
    input is checked as :func:`as_rows` checks a row, with its messages
    in its order, and no array is made.  Any other program runs through
    :func:`_kernel` as a batch of one.
    """
    bits = _bits_of(x)
    _check_semantics(p, caller, semantics)
    walk, levels, _, _ = _plan(p)
    if not walk:
        import numpy as np
        hit = _kernel(p, np.array([bits]), caller, semantics)[0]
    else:
        if len(bits) != p.n:
            raise ValueError(f"input length {len(bits)} != n = {p.n}")
        Assignment(bits)        # raises unless every bit is 0 or 1
        node = p.initial
        for var, pair, _ in levels:
            if pair:
                t0, t1 = pair
                node = (t1 if bits[var] else t0)[node - 1]
        hit = node in p.accept
    return float(hit) if p.semantics in _PROB else int(hit)


def eval_det(p: Program, x) -> int:
    """Run a deterministic program; return 1 iff the reached sink accepts."""
    return _scalar(p, x, "eval_det", _DET)


def eval_det_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Deterministic evaluation of every row of an (m, n) uint8 matrix.

    Returns an (m,) uint8 vector of accept bits.
    """
    return _kernel(p, xs, "eval_det_batch", _DET)


def eval_nondet(p: Program, x) -> int:
    """Return 1 iff some path through chosen edges reaches an accepting sink."""
    return _scalar(p, x, "eval_nondet", _NONDET)


def eval_nondet_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Nondeterministic batch evaluation via 0/1 reachability matrices."""
    return _kernel(p, xs, "eval_nondet_batch", _NONDET)


def accept_prob(p: Program, x) -> float:
    """Acceptance probability of one input (probabilistic or quantum)."""
    return _scalar(p, x, "accept_prob", _PROB)


def accept_prob_batch(p: Program, xs: np.ndarray) -> np.ndarray:
    """Acceptance probabilities for every row of an (m, n) uint8 matrix."""
    return _kernel(p, xs, "accept_prob_batch", _PROB)


def state_trace(p: Program, x) -> list[np.ndarray]:
    """All intermediate state vectors, before level 1 through after level k*n.

    Useful for checking conservation step by step: probability mass for
    stochastic programs, Euclidean norm for quantum ones.
    """
    import numpy as np
    states = _kernel(p, np.array([_bits_of(x)]), "state_trace", _PROB,
                     trace=True)
    return [s[0] for s in states]


def evaluate(p: Program, x):
    """0/1 for det/nondet programs, an acceptance probability otherwise."""
    return _scalar(p, x, "evaluate", (p.semantics,))


def computes_bounded_error(p: Program, f, epsilon: float) -> bool:
    """Exhaustively check the two-sided error condition against f.

    For every input x: f(x) = 1 demands acceptance probability at least
    1/2 + epsilon, f(x) = 0 demands at most 1/2 - epsilon.  ``_SLACK``
    absorbs floating-point error in the probabilities themselves.
    Only meaningful for probabilistic and quantum programs, and only
    feasible for n <= program.EXHAUSTIVE_LIMIT; all_assignments_array
    refuses larger n.  The 2^n rows are swept ``SWEEP_CHUNK`` at a time,
    up to the first that fails.
    """
    import numpy as np
    if p.semantics not in _PROB:
        raise ValueError("bounded error is about probability semantics")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon {epsilon!r} outside (0, 1/2]")
    total = 1 << p.n
    for lo in range(0, total, SWEEP_CHUNK):
        xs = all_assignments_array(p.n, lo, min(lo + SWEEP_CHUNK, total))
        probs = accept_prob_batch(p, xs)
        # NaN fails both tests, so a NaN probability never passes
        ok = np.where(sweep_rows(f, xs) == 1,
                      probs >= 0.5 + epsilon - _SLACK,
                      probs <= 0.5 - epsilon + _SLACK)
        if not ok.all():
            return False
    return True
