"""Execution semantics against brute-force oracles and hand values."""

import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import (det_by_hand, nondet_by_paths, prob_by_hand,
                      quantum_by_hand, random_det_program,
                      random_nondet_program, random_prob_program,
                      random_quantum_program, random_reversible_det_program)
from kobdd import (Assignment, Program, VariableOrder, accept_prob,
                   accept_prob_batch, all_assignments_array,
                   build_mxpj_id_obdd, compile_to_nondet, compile_to_prob,
                   compile_to_quantum, computes_bounded_error, det_level,
                   eval_det, eval_det_batch, eval_nondet, eval_nondet_batch,
                   evaluate, matrix_level, nondet_level, state_trace,
                   validate)


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
