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
                   compile_to_prob, computes_bounded_error, det_level,
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
    from kobdd import compile_to_nondet, compile_to_prob, compile_to_quantum
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
