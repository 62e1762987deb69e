"""Execution semantics against brute-force oracles and hand values."""

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

import kobdd.semantics as kernel
from conftest import (det_by_hand, nondet_by_paths, one_hot, prob_by_hand,
                      quantum_by_hand, random_det_program,
                      random_nondet_program, random_prob_program,
                      random_program, random_quantum_program,
                      random_reversible_det_program, random_unitary)
from kobdd import (Assignment, Program, VariableOrder, accept_prob,
                   accept_prob_batch, all_assignments_array,
                   build_mxpj_id_obdd, build_saf_2k_obdd, compile_to_nondet,
                   compile_to_prob, compile_to_quantum, computes_bounded_error,
                   det_level, eval_det, eval_det_batch, eval_nondet,
                   eval_nondet_batch, evaluate, matrix_level, nondet_level,
                   serialize, state_trace, validate)


def _xor_program() -> Program:
    levels = (det_level(1, (1,), (2,), 2),
              det_level(2, (1, 2), (2, 1), 2))
    return Program(semantics="deterministic", n=2, k=1,
                   order=VariableOrder.identity(2), levels=levels,
                   initial=1, accept=frozenset({2}))


def test_det_hand_values():
    p = _xor_program()
    got = [eval_det(p, Assignment.from_int(m, 2)) for m in range(4)]
    assert got == [0, 1, 1, 0]


def test_a_det_branch_that_is_not_a_tuple_still_runs():
    # validate rejects a list, but the kernel reads any det branch as its
    # successors, never as a non-function to skip
    p = _xor_program()
    lists = dataclasses.replace(p, levels=tuple(
        dataclasses.replace(l, t0=list(l.t0), t1=list(l.t1))
        for l in p.levels))
    assert not validate(lists).ok
    got = [eval_det(lists, Assignment.from_int(m, 2)) for m in range(4)]
    assert got == [0, 1, 1, 0]


def test_nondet_hand_values():
    # guess on x1=1, then x2 swaps: computes x1 or x2
    levels = (nondet_level(1, 1, 2, {(1, 1)}, {(1, 1), (1, 2)}),
              nondet_level(2, 2, 2, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}))
    p = Program(semantics="nondeterministic", n=2, k=1,
                order=VariableOrder.identity(2), levels=levels,
                initial=1, accept=frozenset({2}))
    assert validate(p).ok
    got = [eval_nondet(p, Assignment.from_int(m, 2)) for m in range(4)]
    assert got == [0, 1, 1, 1]


def test_prob_hand_values():
    lvl = matrix_level(1, np.array([[0.75], [0.25]]),
                       np.array([[0.25], [0.75]]))
    p = Program(semantics="probabilistic", n=1, k=1,
                order=VariableOrder.identity(1), levels=(lvl,),
                initial=1, accept=frozenset({2}), epsilon=0.25)
    assert validate(p).ok
    assert accept_prob(p, Assignment((0,))) == pytest.approx(0.25, abs=1e-12)
    assert accept_prob(p, Assignment((1,))) == pytest.approx(0.75, abs=1e-12)


def test_quantum_hand_values():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    lvl = matrix_level(1, h, np.eye(2, dtype=complex))
    p = Program(semantics="quantum", n=1, k=1,
                order=VariableOrder.identity(1), levels=(lvl,),
                initial=1, accept=frozenset({2}))
    assert validate(p).ok
    assert accept_prob(p, Assignment((0,))) == pytest.approx(0.5, abs=1e-12)
    assert accept_prob(p, Assignment((1,))) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# batch evaluators against scalar ones, scalar ones against oracles


# Seeds 0-5 draw random programs; "empty-accept" reruns the seed-0 program
# with no accepting sink.  Every mode runs twice on one Program object, so
# the second round reads the compiled levels cached by the first.
CASES = [*range(6), pytest.param(None, id="empty-accept")]


def _case(make, seed, base):
    p = make(random.Random(base + (seed or 0)))
    return p if seed is not None else dataclasses.replace(p, accept=frozenset())


def _widths(p):
    return {lvl.width_in for lvl in p.levels} | {p.final_width}


@pytest.mark.parametrize("seed", CASES)
def test_det_matches_oracle_and_batch(seed):
    p = _case(lambda rng: random_det_program(rng, n=4, k=2), seed, 0)
    assert len(_widths(p)) > 1
    xs = all_assignments_array(4)
    for _ in range(2):
        batch = eval_det_batch(p, xs)
        for m in range(16):
            x = Assignment.from_int(m, 4)
            v = eval_det(p, x)
            assert v == det_by_hand(p, x) == int(batch[m])
            assert int(eval_det_batch(p, xs[m:m + 1])[0]) == v
            assert evaluate(p, x) == v


@pytest.mark.parametrize("seed", CASES)
def test_nondet_matches_oracle_and_batch(seed):
    p = _case(lambda rng: random_nondet_program(rng, n=3, k=2), seed, 100)
    assert len(_widths(p)) > 1
    xs = all_assignments_array(3)
    for _ in range(2):
        batch = eval_nondet_batch(p, xs)
        for m in range(8):
            x = Assignment.from_int(m, 3)
            v = eval_nondet(p, x)
            assert v == nondet_by_paths(p, x) == int(batch[m])
            assert int(eval_nondet_batch(p, xs[m:m + 1])[0]) == v


def _prob_modes_match(p, oracle, final_prob):
    xs = all_assignments_array(p.n)
    for _ in range(2):
        batch = accept_prob_batch(p, xs)
        for m in range(1 << p.n):
            x = Assignment.from_int(m, p.n)
            want = oracle(p, x)
            for got in (accept_prob(p, x), float(batch[m]),
                        float(accept_prob_batch(p, xs[m:m + 1])[0]),
                        final_prob(p, state_trace(p, x)[-1])):
                assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", CASES)
def test_prob_matches_oracle_and_batch(seed):
    p = _case(lambda rng: random_prob_program(rng, n=3, k=2), seed, 200)
    assert len(_widths(p)) > 1
    _prob_modes_match(p, prob_by_hand,
                      lambda p, v: float(sum(v[a - 1] for a in p.accept)))


@pytest.mark.parametrize("seed", CASES)
def test_quantum_matches_oracle_and_batch(seed):
    p = _case(lambda rng: random_quantum_program(rng, n=3, k=2, w=4),
              seed, 300)
    _prob_modes_match(p, quantum_by_hand,
                      lambda p, v: float(sum(abs(v[a - 1]) ** 2
                                             for a in p.accept)))


@pytest.mark.parametrize("compile_, run", [
    (lambda p: p, eval_det_batch),
    (compile_to_nondet, eval_nondet_batch),
    (compile_to_prob, accept_prob_batch),
    (compile_to_quantum, accept_prob_batch)])
def test_batch_kernels_check_rows(compile_, run):
    p = compile_(build_mxpj_id_obdd(1, 2))
    assert p.n == 4

    def message(rows):
        with pytest.raises(ValueError) as info:
            run(p, rows)
        return str(info.value)

    for bad in (2, -1, 0.5):
        rows = np.zeros((3, 4), type(bad))
        rows[1, 2] = bad
        assert message(rows) == "assignment bits must be 0 or 1"
    assert message(np.full((2, 4), 2, np.uint8)) == \
        "assignment bits must be 0 or 1"
    assert message(np.zeros((2, 7), np.uint8)) == "input length 7 != n = 4"
    assert message(np.zeros((2, 3), np.uint8)) == "input length 3 != n = 4"
    assert message(np.zeros(4, np.uint8)) == \
        "rows must form an (m, 4) matrix, got shape (4,)"
    assert run(p, np.zeros((0, 4), np.uint8)).shape == (0,)


def test_scalar_evaluators_check_rows():
    p = _xor_program()
    for x in ("1", (1, 0, 1), Assignment((1,))):
        with pytest.raises(ValueError, match=r"^input length \d != n = 2$"):
            evaluate(p, x)
    with pytest.raises(ValueError, match="^assignment bits must be 0 or 1$"):
        eval_det(p, [1, 2])
    q = compile_to_prob(p)
    with pytest.raises(ValueError, match=r"^input length 3 != n = 2$"):
        state_trace(q, "101")


def test_accepts_strings_and_tuples():
    p = _xor_program()
    assert eval_det(p, "10") == 1
    assert eval_det(p, (1, 0)) == 1
    assert eval_det(p, [1, 1]) == 0
    with pytest.raises(ValueError):
        eval_det(p, "1")


# ---------------------------------------------------------------------------
# per-step conservation laws and phase invariance


def test_prob_trace_conserves_mass():
    rng = random.Random(17)
    for _ in range(10):
        p = random_prob_program(rng, n=3, k=2)
        x = Assignment.from_int(rng.randrange(8), 3)
        for v in state_trace(p, x):
            assert abs(v.sum() - 1.0) <= 1e-9


def test_quantum_trace_conserves_norm():
    rng = random.Random(18)
    for _ in range(10):
        p = random_quantum_program(rng, n=3, k=2, w=5)
        x = Assignment.from_int(rng.randrange(8), 3)
        for v in state_trace(p, x):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


def test_trace_shape_and_endpoints():
    p = compile_to_prob(_xor_program())
    trace = state_trace(p, Assignment((1, 0)))
    assert len(trace) == len(p.levels) + 1
    assert trace[0][p.initial - 1] == 1.0
    assert trace[-1].sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        state_trace(_xor_program(), Assignment((1, 0)))


def test_global_phase_invariance():
    rng = random.Random(19)
    for _ in range(10):
        p = random_quantum_program(rng, n=2, k=2, w=3)
        phase = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
        shifted = Program(
            semantics="quantum", n=p.n, k=p.k, order=p.order,
            levels=tuple(matrix_level(l.variable, l.t0 * phase,
                                      l.t1 * phase) for l in p.levels),
            initial=p.initial, accept=p.accept)
        assert validate(shifted).ok
        for m in range(4):
            x = Assignment.from_int(m, 2)
            assert abs(accept_prob(p, x) - accept_prob(shifted, x)) <= 1e-9


# ---------------------------------------------------------------------------
# bounded error


def test_bounded_error_exact_program():
    lvl = matrix_level(1, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    p = Program(semantics="probabilistic", n=1, k=1,
                order=VariableOrder.identity(1), levels=(lvl,),
                initial=1, accept=frozenset({2}), epsilon=0.5)
    ident = lambda x: x.bit(1)
    assert computes_bounded_error(p, ident, 0.5)
    assert not computes_bounded_error(p, lambda x: 1 - x.bit(1), 0.5)


def test_bounded_error_respects_epsilon():
    lvl = matrix_level(1, np.array([[0.6], [0.4]]), np.array([[0.4], [0.6]]))
    p = Program(semantics="probabilistic", n=1, k=1,
                order=VariableOrder.identity(1), levels=(lvl,),
                initial=1, accept=frozenset({2}))
    ident = lambda x: x.bit(1)
    assert computes_bounded_error(p, ident, 0.1)
    assert not computes_bounded_error(p, ident, 0.2)


def test_bounded_error_rejects_nan():
    nan = np.full((2, 2), np.nan)
    levels = (matrix_level(1, nan, nan), matrix_level(2, nan, nan))
    p = Program(semantics="probabilistic", n=2, k=1,
                order=VariableOrder.identity(2), levels=levels,
                initial=1, accept=frozenset({2}))
    assert not computes_bounded_error(p, lambda x: x.bit(1), 0.1)
    assert not computes_bounded_error(p, lambda x: 1 - x.bit(1), 0.1)


def _noisy_parity(n: int, first: np.ndarray) -> Program:
    """Width 2: level 1 applies first on bit 0 and its row swap on bit 1,
    and every later level swaps the two nodes on a 1."""
    levels = [matrix_level(1, first, first[::-1])]
    levels += [matrix_level(v, np.eye(2), np.eye(2)[::-1])
               for v in range(2, n + 1)]
    return Program(semantics="probabilistic", n=n, k=1,
                   order=VariableOrder.identity(n), levels=tuple(levels),
                   initial=1, accept=frozenset({2}))


_NOISY = np.array([[0.95, 0.05], [0.05, 0.95]])


def _xor_oracle(n: int, flip=lambda xs: 0):
    from kobdd import FunctionOracle
    return FunctionOracle(f"xor:{n}", n, lambda x: sum(x.bits) & 1,
                          lambda xs: np.bitwise_xor.reduce(xs, axis=1)
                          ^ flip(xs))


def test_bounded_error_sweeps_rows_in_chunks():
    # parity accepted with probability 0.95 or 0.05 exactly; one sweep of
    # all 2^20 rows at once peaked at 105 MB in this test
    import tracemalloc
    p = _noisy_parity(20, _NOISY)
    tracemalloc.start()
    try:
        assert computes_bounded_error(p, _xor_oracle(20), 0.45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert not computes_bounded_error(p, _xor_oracle(20), 0.46)
    # one wrong row, in the first chunk or the last
    for row in (0, (1 << 20) - 1):
        wrong = _xor_oracle(20, lambda xs: np.all(xs == row % 2, axis=1))
        assert not computes_bounded_error(p, wrong, 0.1)
    nan = _noisy_parity(15, np.full((2, 2), np.nan))
    assert not computes_bounded_error(nan, _xor_oracle(15), 0.1)
    with pytest.raises(ValueError, match="refusing to materialize 2\\^25"):
        computes_bounded_error(_noisy_parity(25, _NOISY), _xor_oracle(25),
                               0.1)


def test_bounded_error_agrees_with_one_sweep_of_every_row():
    # two chunks of dense levels; the verdict turns at the least distance
    # of a probability from 1/2, as one array of all 2^15 rows gives it
    from kobdd import FunctionOracle
    p = random_prob_program(random.Random(41), 15, 1, wmax=4)
    probs = accept_prob_batch(p, all_assignments_array(15))
    table = (probs > 0.5).astype(np.uint8)
    f = FunctionOracle("above", 15, lambda x: int(table[x.to_int()]),
                       lambda xs: table[xs @ (1 << np.arange(15))])
    gap = float(np.abs(probs - 0.5).min())
    assert 0.1 < gap < 0.2
    for eps in (0.05, gap, gap + 1e-6, 0.3, 0.5):
        want = np.where(table == 1, probs >= 0.5 + eps - kernel._SLACK,
                        probs <= 0.5 - eps + kernel._SLACK).all()
        assert computes_bounded_error(p, f, eps) == want == (eps <= gap)


def test_bounded_error_guards():
    p = _xor_program()
    with pytest.raises(ValueError):
        computes_bounded_error(p, lambda x: 0, 0.5)  # deterministic program
    rng = random.Random(23)
    q = random_prob_program(rng, 2, 1)
    with pytest.raises(ValueError):
        computes_bounded_error(q, lambda x: 0, 0.75)
    with pytest.raises(ValueError):
        computes_bounded_error(q, lambda x: 0, 0.0)


# ---------------------------------------------------------------------------
# reversible deterministic programs under every embedding agree


def test_reversible_det_programs_run_everywhere():
    rng = random.Random(29)
    for _ in range(5):
        p = random_reversible_det_program(rng, n=4, k=2, w=4)
        xs = all_assignments_array(4)
        base = eval_det_batch(p, xs)
        assert np.array_equal(eval_nondet_batch(compile_to_nondet(p), xs),
                              base)
        assert np.allclose(accept_prob_batch(compile_to_prob(p), xs),
                           base, atol=1e-12)
        assert np.allclose(accept_prob_batch(compile_to_quantum(p), xs),
                           base, atol=1e-12)


# ---------------------------------------------------------------------------
# the nondeterministic kernel: 0/1 matrices, clamped to 1 after every step


def test_nondet_wide_long_program_does_not_overflow():
    # width 64, 200 levels, each node reaching all but one successor: path
    # counts grow by 63x per level and would pass 2^1024 (inf, then
    # inf * 0 = nan) well before the end
    w, n, k = 64, 4, 50
    dense = [frozenset((s, d) for s in range(1, w + 1)
                       for d in range(1, w + 1) if d != (s + shift) % w + 1)
             for shift in (0, 7)]
    levels = [nondet_level(var, w, w, dense[0], dense[1])
              for var in list(range(1, n + 1)) * k]
    # the last level routes everything to sink 1 on a 0, sink 2 on a 1
    levels[-1] = nondet_level(n, w, 2, {(s, 1) for s in range(1, w + 1)},
                              {(s, 2) for s in range(1, w + 1)})
    p = Program(semantics="nondeterministic", n=n, k=k,
                order=VariableOrder.identity(n), levels=tuple(levels),
                initial=3, accept=frozenset({2}))
    assert len(p.levels) >= 200 and validate(p).ok
    xs = all_assignments_array(n)
    want = [nondet_by_paths(p, Assignment.from_int(m, n))
            for m in range(1 << n)]
    assert want == [int(x[-1]) for x in xs]
    assert eval_nondet_batch(p, xs).tolist() == want
    assert eval_nondet(p, "0001") == 1 and eval_nondet(p, "1110") == 0


def test_nondet_empty_relation_on_one_branch():
    # x1 = 0 has no edges at all, so only x1 = 1 can reach the sink
    levels = (nondet_level(1, 2, 2, (), {(1, 1), (1, 2), (2, 2)}),
              nondet_level(2, 2, 2, {(1, 2), (2, 2)}, {(2, 2)}))
    p = Program(semantics="nondeterministic", n=2, k=1,
                order=VariableOrder.identity(2), levels=levels,
                initial=1, accept=frozenset({2}))
    assert validate(p).ok
    xs = all_assignments_array(2)
    want = [nondet_by_paths(p, Assignment.from_int(m, 2)) for m in range(4)]
    assert want == [0, 1, 0, 1]
    assert eval_nondet_batch(p, xs).tolist() == want
    assert [eval_nondet(p, x) for x in xs.tolist()] == want


@pytest.mark.parametrize("dtype", [bool, np.int64])
@pytest.mark.parametrize("make, run", [
    (random_det_program, eval_det_batch),
    (random_nondet_program, eval_nondet_batch)])
def test_batch_row_dtypes_agree(dtype, make, run):
    rng = random.Random(41)
    for _ in range(5):
        p = make(rng, n=4, k=2)
        xs = all_assignments_array(4)
        want = run(p, xs)
        got = run(p, xs.astype(dtype))
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


def _identity_level(semantics: str, var: int, w: int, zero: float):
    if semantics == "deterministic":
        return det_level(var, range(1, w + 1), range(1, w + 1), w)
    if semantics == "nondeterministic":
        loops = {(i, i) for i in range(1, w + 1)}
        return nondet_level(var, w, w, loops, loops)
    eye = np.where(np.eye(w) == 1, 1.0, zero)
    if semantics == "quantum":
        eye = eye.astype(complex)          # keeps the sign of each zero
    return matrix_level(var, eye, eye)


def _with_identities(p: Program, zero: float = 0.0) -> Program:
    """p over 2n variables: each level of p, testing v, is followed by an
    identity level testing n + v, whose off-diagonal entries are zero."""
    levels = []
    for lvl in p.levels:
        levels += [lvl, _identity_level(p.semantics, p.n + lvl.variable,
                                        lvl.width_out, zero)]
    order = tuple(v for u in p.order.perm for v in (u, p.n + u))
    return dataclasses.replace(p, n=2 * p.n, order=VariableOrder(order),
                               levels=tuple(levels))


def _run_all(p: Program, xs: np.ndarray) -> list[bytes]:
    """Outputs and every traced state of the kernel, as bytes."""
    out = kernel._kernel(p, xs, "test", (p.semantics,))
    states = kernel._kernel(p, xs, "test", (p.semantics,), trace=True)
    return [out.tobytes()] + [s.tobytes() for s in states]


def _pairs(p: Program) -> list:
    """Per level, the pair of its plan: two branches, () or None."""
    return [pair for _, pair, _ in kernel._plan(p)[1]]


def _replanned(p: Program, pair_of) -> Program:
    """A copy of p whose plan holds pair_of(pair, level) for each level's
    pair, and never walks."""
    q = dataclasses.replace(p)
    _, levels, *memos = kernel._plan(q)
    q.__dict__["_plan"] = (False, tuple((var, pair_of(pair, lvl), lvl)
                                        for var, pair, lvl in levels),
                           *memos)
    return q


@pytest.mark.parametrize("semantics", ["deterministic", "nondeterministic",
                                       "probabilistic", "quantum"])
def test_identity_levels_are_skipped_bit_exactly(semantics):
    for seed in range(4):
        p = random_program(random.Random(seed), semantics, n=3, k=2)
        q = _with_identities(p)
        assert validate(q).ok
        assert all(pair == () for pair in _pairs(q)[1::2])
        xs = all_assignments_array(q.n)
        skipped = _run_all(q, xs)
        assert len(skipped) == 1 + q.k * q.n + 1
        # the identity levels read variables that p does not have
        assert skipped[0] == kernel._kernel(p, xs[:, :p.n], "test",
                                            (semantics,)).tobytes()
        run = _replanned(q, lambda pair, lvl:
                         (lvl.t0, lvl.t1) if pair == () else pair)
        # each identity now runs, as a table of every node to itself
        table = kernel._plan(run)[2]
        assert () not in _pairs(run)
        for pair, lvl in zip(_pairs(run)[1::2], p.levels):
            assert np.array_equal(table(*pair),
                                  [np.arange(lvl.width_out)] * 2)
        assert _run_all(run, xs) == skipped
        if kernel._plan(q)[0]:      # and so does the scalar walk
            assert [evaluate(q, row) for row in xs.tolist()] == \
                kernel._kernel(q, xs, "test", (semantics,)).tolist()


@pytest.mark.parametrize("semantics", ["probabilistic", "quantum"])
def test_identity_with_negative_zeros_is_not_skipped(semantics):
    p = random_program(random.Random(1), semantics, n=2, k=1)
    q = _with_identities(p, zero=-0.0)
    assert any(lvl.width_out > 1 for lvl in p.levels)
    # a 1x1 identity has no zero to carry a sign
    for pair, lvl in zip(_pairs(q)[1::2], p.levels):
        assert (pair == ()) == (lvl.width_out == 1)
    assert len(state_trace(q, "0110")) == q.k * q.n + 1


@pytest.mark.parametrize("semantics", ["deterministic", "nondeterministic",
                                       "probabilistic", "quantum"])
def test_the_plan_marks_exactly_the_idle_levels_of_mxpj(semantics):
    det = build_mxpj_id_obdd(2, 8)
    p = _EMBED[semantics](det)
    idle = [i for i, l in enumerate(det.levels)
            if l.t0 == l.t1 == tuple(range(1, l.width_in + 1))]
    assert len(idle) == 96 and len(p.levels) == 192
    assert [i for i, pair in enumerate(_pairs(p)) if pair == ()] == idle
    assert kernel._plan(p)[0] and None not in _pairs(p)


_EMBED = {"deterministic": lambda p: p, "nondeterministic": compile_to_nondet,
          "probabilistic": compile_to_prob, "quantum": compile_to_quantum}


def _tables(p: Program) -> list[bool]:
    """Per level: does the kernel gather it (a table, or an identity)?"""
    return [pair is not None for pair in _pairs(p)]


def _all_dense(p: Program) -> Program:
    """p with a plan in which no level but a deterministic one is a pair
    or an identity."""
    return _replanned(p, lambda pair, lvl:
                      pair if p.semantics == "deterministic" else None)


def _against_dense(p: Program, xs: np.ndarray, trace_rows: int = 64) -> None:
    """p's outputs on xs, and its traced states on the first trace_rows
    of them, are the bytes of the all-dense path: a run in which no
    branch but a deterministic one is a table."""
    def run(q):
        out = kernel._kernel(q, xs, "test", (q.semantics,))
        states = kernel._kernel(q, xs[:trace_rows], "test", (q.semantics,),
                                trace=True)
        return [out.tobytes()] + [s.tobytes() for s in states]

    dense = _all_dense(p)
    if p.semantics != "deterministic":
        assert not any(_tables(dense))
    assert run(p) == run(dense)


@pytest.mark.parametrize("k, d, rows", [(1, 4, 512), (2, 8, 256)])
def test_basis_rows_match_the_dense_path_on_mxpj(k, d, rows):
    det = build_mxpj_id_obdd(k, d)
    xs = np.random.default_rng(k * 100 + d).integers(0, 2, (rows, det.n),
                                                     dtype=np.uint8)
    want = eval_det_batch(det, xs)
    for semantics, embed in _EMBED.items():
        p = embed(det)
        assert all(_tables(p))
        _against_dense(p, xs, trace_rows=16)
        got = kernel._kernel(p, xs, "test", (semantics,))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("semantics", list(_EMBED))
def test_basis_rows_match_the_dense_path_on_random_programs(semantics):
    for seed in range(6):
        rng = random.Random(seed)
        p = random_program(rng, semantics, n=4, k=2)
        _against_dense(p, all_assignments_array(4))
        det = (random_reversible_det_program(rng, n=4, k=2, w=4)
               if semantics == "quantum" else random_det_program(rng, 4, 2))
        _against_dense(_EMBED[semantics](det),
                       all_assignments_array(4))


_BY_HAND = {"deterministic": det_by_hand, "nondeterministic": nondet_by_paths,
            "probabilistic": prob_by_hand, "quantum": quantum_by_hand}


@pytest.mark.parametrize("semantics", list(_EMBED))
def test_embeddings_match_the_oracles_on_all_inputs(semantics):
    # the oracles read each successor tuple by hand, node by node
    for seed in range(5):
        rng = random.Random(100 + seed)
        det = (random_reversible_det_program(rng, n=4, k=2, w=rng.randint(1, 5))
               if semantics == "quantum" else random_det_program(rng, 4, 2))
        p = _EMBED[semantics](det)
        assert all(isinstance(t, tuple) for l in p.levels
                   for t in (l.t0, l.t1))
        xs = all_assignments_array(p.n)
        got = kernel._kernel(p, xs, "test", (semantics,))
        for m in range(1 << p.n):
            x = Assignment.from_int(m, p.n)
            want = _BY_HAND[semantics](p, x)
            assert want == det_by_hand(det, x)
            assert got[m] == pytest.approx(want, abs=1e-12)
        _against_dense(p, xs)


class _Counted(np.ndarray):
    """An operator that records the row count of each product it is in."""

    rows: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Counted.rows.append(len(inputs[0]))
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs),
                                      **kwargs)


@pytest.mark.parametrize("semantics", ["nondeterministic", "probabilistic",
                                       "quantum"])
def test_a_dense_level_multiplies_each_row_by_one_branch(monkeypatch,
                                                         semantics):
    dense = kernel._dense
    monkeypatch.setattr(kernel, "_dense", lambda *args:
                        dense(*args).view(_Counted))
    for seed in range(4):
        rng = random.Random(700 + seed)
        p = random_program(rng, semantics, n=4, k=2)
        xs = np.random.default_rng(seed).integers(0, 2, (50, 4),
                                                  dtype=np.uint8)
        _Counted.rows = []
        got = kernel._kernel(p, xs, "test", (semantics,))
        # t0's rows, then t1's, at each dense level: 50 rows in all
        assert _Counted.rows and len(_Counted.rows) % 2 == 0
        assert {a + b for a, b in zip(_Counted.rows[::2],
                                      _Counted.rows[1::2])} == {50}
        for m, row in enumerate(xs):
            x = Assignment(tuple(row.tolist()))
            assert got[m] == pytest.approx(_BY_HAND[semantics](p, x),
                                           abs=1e-12)


def _random_branch(semantics: str, nprng, w: int):
    if semantics == "nondeterministic":
        return frozenset((s, t) for s in range(1, w + 1)
                         for t in range(1, w + 1) if nprng.random() < 0.45)
    if semantics == "quantum":
        return random_unitary(nprng, w)
    m = nprng.random((w, w)) + 1e-3
    return m / m.sum(axis=0, keepdims=True)


@pytest.mark.parametrize("semantics", ["nondeterministic", "probabilistic",
                                       "quantum"])
@pytest.mark.parametrize("at", [0, 2, -1])
def test_basis_rows_turn_dense_at_the_first_dense_level(semantics, at):
    p = _EMBED[semantics](build_mxpj_id_obdd(1, 2))
    nprng = np.random.default_rng(7)
    levels = list(p.levels)
    old = levels[at]
    t0, t1 = (_random_branch(semantics, nprng, old.width_in)
              for _ in range(2))
    levels[at] = dataclasses.replace(old, t0=t0, t1=t1)
    q = dataclasses.replace(p, levels=tuple(levels))
    assert validate(q).ok
    tables = _tables(q)
    assert not tables[at] and sum(tables) == len(tables) - 1
    _against_dense(q, all_assignments_array(q.n))


def _nudged(semantics: str, how: str):
    """Branch t0 of level 1 of the compiled mxpj:1,2, spelled out as an
    edge set or a matrix, and bent out of being a 0/1 function in one
    place: the program with it made by nondet_level or matrix_level, and
    the branch before and after the bend."""
    p = _EMBED[semantics](build_mxpj_id_obdd(1, 2))
    lvl = p.levels[0]
    if semantics == "nondeterministic":
        exact = frozenset(enumerate(lvl.t0, 1))
        edges = set(exact)
        source = 2
        target = lvl.t0[source - 1]
        if how == "no edge":
            edges.discard((source, target))
        else:
            edges.add((source, target % lvl.width_out + 1))
        bent = nondet_level(1, lvl.width_in, lvl.width_out, edges,
                            enumerate(lvl.t1, 1))
    else:
        exact = one_hot(lvl.t0, lvl.width_out, np.complex128
                         if semantics == "quantum" else np.float64)
        t0 = exact.copy()
        col = t0[:, 1]
        hot = int(np.flatnonzero(col)[0])
        cold = (hot + 1) % len(col)
        if how == "above one":
            col[hot] = 1.0000000000000002
        elif how == "negative zero":
            col[cold] = -0.0
        elif how == "1-0j":
            col[hot] = complex(1.0, -0.0)
        else:                                   # "two ones"
            col[cold] = 1.0
        bent = matrix_level(1, t0, one_hot(lvl.t1, lvl.width_out, t0.dtype))
    return dataclasses.replace(p, levels=(bent,) + p.levels[1:]), exact, \
        lvl.t0


@pytest.mark.parametrize("semantics, how", [
    ("probabilistic", "above one"), ("quantum", "above one"),
    ("probabilistic", "negative zero"), ("quantum", "negative zero"),
    ("quantum", "1-0j"),
    ("probabilistic", "two ones"), ("quantum", "two ones"),
    ("nondeterministic", "no edge"), ("nondeterministic", "two edges")])
def test_near_functions_stay_dense(semantics, how):
    q, exact, succ = _nudged(semantics, how)
    lvl = q.levels[0]
    # the exact branch is made a tuple, the bent one is kept as it is
    if semantics == "nondeterministic":
        assert nondet_level(1, 4, 4, exact, exact).t0 == succ
        assert isinstance(lvl.t0, frozenset)
    else:
        assert matrix_level(1, exact, exact).t0 == succ
        assert isinstance(lvl.t0, np.ndarray)
    assert type(lvl.t1) is tuple        # the unbent t1, a tuple again
    assert lvl.t1 == build_mxpj_id_obdd(1, 2).levels[0].t1
    # the bent branch makes its level dense
    tables = _tables(q)
    assert not tables[0] and all(tables[1:])
    _against_dense(q, all_assignments_array(q.n))


def test_table_levels_make_dense_operators_only_for_dense_rows(monkeypatch):
    det = build_mxpj_id_obdd(1, 4)
    xs = np.random.default_rng(5).integers(0, 2, (64, det.n), dtype=np.uint8)
    made = []
    keep = kernel._dense
    monkeypatch.setattr(kernel, "_dense",
                        lambda semantics, t, *widths:
                        made.append(id(t)) or keep(semantics, t, *widths))
    for semantics, embed in _EMBED.items():
        if semantics == "deterministic":
            continue
        p = embed(det)
        want = kernel._kernel(p, xs, "test", (semantics,)).tobytes()
        # a trace keeps the node form too, so no tuple is made dense
        states = kernel._kernel(p, xs, "test", (semantics,), trace=True)
        assert all(_tables(p)) and made == []
        assert len(states) == len(p.levels) + 1
        # dense rows make each distinct transition's operator once
        dense = _all_dense(p)
        for trace in (True, False, True):
            kernel._kernel(dense, xs, "test", (semantics,), trace=trace)
        ids = {id(t) for l in p.levels for t in (l.t0, l.t1)}
        assert len(made) == len(set(made)) and set(made) == ids
        assert kernel._kernel(dense, xs, "test",
                              (semantics,)).tobytes() == want
        made.clear()


# ---------------------------------------------------------------------------
# the scalar walk of successor-tuple programs against the batch kernel


_SCALAR = {"deterministic": (kernel.eval_det, "eval_det", ("deterministic",)),
           "nondeterministic": (kernel.eval_nondet, "eval_nondet",
                                ("nondeterministic",)),
           "probabilistic": (kernel.accept_prob, "accept_prob",
                             ("probabilistic", "quantum")),
           "quantum": (kernel.accept_prob, "accept_prob",
                       ("probabilistic", "quantum"))}


def _scalar_matches_kernel(p: Program, xs: np.ndarray) -> None:
    run = _SCALAR[p.semantics][0]
    want = kernel._kernel(p, xs, "test", (p.semantics,)).tolist()
    kind = float if p.semantics in ("probabilistic", "quantum") else int
    for row, w in zip(xs.tolist(), want):
        for got in (run(p, tuple(row)), evaluate(p, row)):
            assert type(got) is kind and got == w


@pytest.mark.parametrize("semantics", list(_EMBED))
def test_scalar_walk_matches_the_kernel_on_mxpj(semantics):
    small = _EMBED[semantics](build_mxpj_id_obdd(1, 4))
    _scalar_matches_kernel(small, all_assignments_array(small.n))
    wide = _EMBED[semantics](build_mxpj_id_obdd(2, 8))
    _scalar_matches_kernel(wide, np.random.default_rng(24).integers(
        0, 2, (2000, wide.n), dtype=np.uint8))


@pytest.mark.parametrize("semantics", ["deterministic", "nondeterministic",
                                       "probabilistic"])
def test_scalar_walk_matches_the_kernel_on_saf(semantics):
    p = _EMBED[semantics](build_saf_2k_obdd(2, 2, 57))
    _scalar_matches_kernel(p, np.random.default_rng(57).integers(
        0, 2, (2000, p.n), dtype=np.uint8))


def _spied(monkeypatch) -> list:
    calls, real = [], kernel._kernel
    monkeypatch.setattr(kernel, "_kernel", lambda *args, **kwargs:
                        calls.append(args[2]) or real(*args, **kwargs))
    return calls


@pytest.mark.parametrize("semantics", list(_EMBED))
def test_only_a_program_with_a_non_tuple_level_reaches_the_kernel(
        monkeypatch, semantics):
    p = _EMBED[semantics](build_mxpj_id_obdd(1, 2))
    levels = list(p.levels)
    mid = len(levels) // 2
    if semantics == "deterministic":    # a det branch that is not a tuple
        levels[mid] = dataclasses.replace(levels[mid],
                                          t0=list(levels[mid].t0))
    else:
        levels[mid] = dataclasses.replace(levels[mid], t0=_random_branch(
            semantics, np.random.default_rng(3), levels[mid].width_in))
    q = dataclasses.replace(p, levels=tuple(levels))
    calls = _spied(monkeypatch)
    run, caller, _ = _SCALAR[semantics]
    for m in range(1 << p.n):
        x = Assignment.from_int(m, p.n)
        run(p, x), evaluate(p, x)
    assert calls == []
    for m in range(1 << q.n):
        x = Assignment.from_int(m, q.n)
        run(q, x), evaluate(q, x)
    assert calls == [caller, "evaluate"] * (1 << q.n)


def _batch_of_one(p: Program, x, caller: str, semantics: tuple):
    """A scalar call as one row of the batch kernel."""
    if isinstance(x, str):
        x = Assignment.from_string(x)
    bits = x.bits if isinstance(x, Assignment) else tuple(x)
    return kernel._kernel(p, np.array([bits]), caller, semantics)[0]


def _message(run, *args) -> str:
    with pytest.raises(ValueError) as info:
        run(*args)
    return str(info.value)


@pytest.mark.parametrize("x", [(1, 2), (0, 2, 1), (0, 1, 0, 1, 1),
                               [0.5, 0, 0, 0], (0, 1, 0, -1), "01a1", "",
                               Assignment((1,))])
def test_scalar_walk_rejects_inputs_as_the_kernel_does(x):
    det = build_mxpj_id_obdd(1, 2)
    assert det.n == 4
    for semantics, embed in _EMBED.items():
        p = embed(det)
        for run, caller, accepted in _SCALAR.values():
            assert _message(run, p, x) == _message(_batch_of_one, p, x,
                                                   caller, accepted)
        assert _message(evaluate, p, x) == _message(
            _batch_of_one, p, x, "evaluate", (semantics,))


# ---------------------------------------------------------------------------
# every output byte of the evaluators, pinned


_BATCH = {"deterministic": eval_det_batch,
          "nondeterministic": eval_nondet_batch,
          "probabilistic": accept_prob_batch, "quantum": accept_prob_batch}


def _digest(programs) -> str:
    """SHA-256 over each program's batch outputs on all its inputs, every
    traced state (dtype, shape and bytes; traced 1024 rows at a time, so
    that mxpj:1,4 under quantum stays a few MB), and the type and value of
    evaluate on each input."""
    h = hashlib.sha256()

    def put(a):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    for p in programs:
        xs = all_assignments_array(p.n)
        put(_BATCH[p.semantics](p, xs))
        for lo in range(0, len(xs), 1024):
            for state in kernel._kernel(p, xs[lo:lo + 1024], "test",
                                        (p.semantics,), trace=True):
                put(state)
        for row in xs.tolist():
            got = evaluate(p, row)
            h.update(f"{type(got).__name__}:{got!r};".encode())
    return h.hexdigest()


def test_outputs_traces_and_scalars_keep_their_bytes():
    # pinned on x86-64 with numpy 2.4 and its bundled OpenBLAS
    programs = [random_program(random.Random(seed), semantics, n=3, k=2)
                for semantics in _EMBED for seed in range(40)]
    # the random unitaries come from a LAPACK QR, whose last bits another
    # LAPACK may round otherwise; the pin holds only for these matrices
    made = hashlib.sha256("".join(map(serialize, programs)).encode())
    if made.hexdigest() != (
            "e77ec1cb7b8a19fde7ea4cd98dcb73f8206e0125fb895a6b528466cac4ec6c05"):
        pytest.skip("the seeded programs differ from the pinned ones here")
    programs += [embed(build_mxpj_id_obdd(1, 4)) for embed in _EMBED.values()]
    assert _digest(programs) == (
        "93712694c741123fe7b06a88ac048ca8295e4bdf41487401c1b68ada71ac1587")
