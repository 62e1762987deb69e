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
per input.  A row stays one node index through every level whose
branches are successor tuples, which every 0/1 function branch is in any
semantics, and becomes a dense vector only at the first level that is
not.  A scalar call on a program whose every level is such a pair, which
every built program is, follows one node in plain Python and never
imports numpy; on any other program it is a batch of one.
"""

from __future__ import annotations

from functools import partial

from .program import (Assignment, Program, _memo, all_assignments_array,
                      as_rows, sweep_rows)

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


def _successors(semantics: str, t):
    """A tuple (any 0/1 function), or any det branch, as 0-based successors."""
    import numpy as np
    if isinstance(t, tuple) or semantics == "deterministic":
        return np.array(t, dtype=np.intp) - 1
    return None


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


def _is_identity(lvl, tab) -> bool:
    """True iff a level's successor table sends every node to itself."""
    import numpy as np
    return (lvl.width_in == lvl.width_out
            and (tab == np.arange(lvl.width_in)).all())


def _compiled(p: Program) -> tuple[tuple[int, object], ...]:
    """(0-based variable, (table, operators)) per level, built once per
    Program and once per distinct transition.

    The table is the (2, width_in) successor array, read as
    ``tab[bit, node]``, of a level whose two branches both have
    :func:`_successors`, else None.  The operators are the two dense
    branches, in every semantics but deterministic.  A level with a table
    holds a function that returns them instead, so that they are made
    only when a dense row reaches one (a trace, or a row past a level
    with no table).  An identity level is None, and the kernel skips it.
    The list is kept in the instance dict, as functools.cached_property
    does; Program and its levels are frozen, so it never goes stale.
    """
    import numpy as np
    levels = p.__dict__.get("_kernel_levels")
    if levels is None:
        def once(make):     # p holds every transition, so ids stay unique
            return _memo(lambda t, *widths: (id(t), *widths),
                         partial(make, p.semantics))
        succ, dense = once(_successors), once(_dense)

        def ops(lvl):
            return tuple(dense(t, lvl.width_in, lvl.width_out)
                         for t in (lvl.t0, lvl.t1))

        levels = []
        for lvl in p.levels:
            s0, s1 = succ(lvl.t0), succ(lvl.t1)
            tab = None if s0 is None or s1 is None else np.array([s0, s1])
            if tab is not None and _is_identity(lvl, tab):
                step = None
            elif p.semantics == "deterministic":
                step = tab, None
            else:
                step = tab, ops(lvl) if tab is None else partial(ops, lvl)
            levels.append((lvl.variable - 1, step))
        levels = p.__dict__["_kernel_levels"] = tuple(levels)
    return levels


def _kernel(p: Program, xs: np.ndarray, caller: str,
            semantics: tuple[str, ...], trace: bool = False):
    """Run p over every row of the (m, n) matrix xs.

    Returns accept bits (det, nondet) or acceptance probabilities per
    row; with trace=True, the row states before level 1 through after
    the last level instead.  ``caller`` names the public function in the
    error raised for a program outside ``semantics``.

    A row is one node index, advanced by a gather, up to the first level
    with no table; there it becomes a one-hot (m, width) reachability,
    probability or amplitude row, and each later level is a matrix step.
    A one-hot row times a 0/1 function matrix is exact, so both forms
    give the same bits.  Deterministic rows never leave the node form;
    a trace of any other semantics starts dense.
    """
    import numpy as np
    _check_semantics(p, caller, semantics)
    # one contiguous 0/1 row per variable; a gather needs integer bits
    bits = np.ascontiguousarray(as_rows(xs, p.n).T)
    det = p.semantics == "deterministic"
    nondet = p.semantics == "nondeterministic"
    dtype = complex if p.semantics == "quantum" else float
    node = np.full(bits.shape[1], p.initial - 1, dtype=np.intp)
    state = (np.eye(p.levels[0].width_in, dtype=dtype)[node]
             if trace and not det else None)
    # only a trace keeps old states; otherwise each (m, width) one is freed
    states = [node if state is None else state] if trace else None
    for var, step in _compiled(p):
        tab, ops = step or (None, None)
        if state is None and tab is not None:
            node = tab[bits[var], node]
        elif ops is not None:
            op0, op1 = ops() if callable(ops) else ops
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
            states.append(node if state is None else state)
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


def _walk_levels(p: Program) -> tuple[tuple[int, tuple, tuple], ...] | None:
    """(0-based variable, t0, t1) per level if every level's two branches
    are successor tuples, else None; kept in the instance dict, as
    :func:`_compiled` keeps its list."""
    levels = p.__dict__.get("_walk_levels", False)
    if levels is False:
        levels = p.__dict__["_walk_levels"] = (
            tuple((lvl.variable - 1, lvl.t0, lvl.t1) for lvl in p.levels)
            if all(isinstance(lvl.t0, tuple) and isinstance(lvl.t1, tuple)
                   for lvl in p.levels) else None)
    return levels


def _scalar(p: Program, x, caller: str, semantics: tuple[str, ...]):
    """One input's accept bit (det, nondet) as an int, or its acceptance
    probability (prob, quantum) as a float.

    On a program of successor tuples a single node walks the levels: the
    input is checked as :func:`as_rows` checks a row, with its messages
    in its order, and no array is made.  Any other program runs through
    :func:`_kernel` as a batch of one.
    """
    bits = _bits_of(x)
    _check_semantics(p, caller, semantics)
    levels = _walk_levels(p)
    if levels is None:
        import numpy as np
        hit = _kernel(p, np.array([bits]), caller, semantics)[0]
    else:
        if len(bits) != p.n:
            raise ValueError(f"input length {len(bits)} != n = {p.n}")
        Assignment(bits)        # raises unless every bit is 0 or 1
        node = p.initial
        for var, t0, t1 in levels:
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
    refuses larger n.
    """
    import numpy as np
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
