"""Data model, validation and the JSON document format."""

import dataclasses
import json
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (one_hot, random_det_program, random_nondet_program,
                      random_prob_program, random_program,
                      random_quantum_program, random_reversible_det_program)
from kobdd import (Assignment, Program, ProgramFormatError, VariableOrder,
                   all_assignments_array, deserialize, det_level,
                   matrix_level, nondet_level, serialize, validate, width)
from kobdd import program
from kobdd.program import TransitionLevel, _read_layout, sweep_rows


def _layout(doc) -> str:
    """doc in the writer's layout: compact canonical JSON."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _indented(doc) -> str:
    """doc in the indented layout that earlier versions wrote."""
    return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# assignments and orders


@given(st.integers(min_value=1, max_value=16), st.data())
def test_assignment_int_round_trip(n, data):
    m = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    x = Assignment.from_int(m, n)
    assert x.to_int() == m
    assert len(x) == n
    for j in range(1, n + 1):
        assert x.bit(j) == (m >> (j - 1)) & 1
    assert Assignment.from_string(str(x)) == x


def test_assignment_rejects_junk():
    with pytest.raises(ValueError):
        Assignment((0, 2))
    with pytest.raises(ValueError):
        Assignment.from_string("01x")
    with pytest.raises(ValueError):
        Assignment.from_int(4, 2)


@pytest.mark.parametrize("bit", [
    0, 1, True, False, 0.0, 1.0, -0.0, 1 + 0j, Fraction(1), Decimal(0),
    np.int64(1), np.uint8(0), np.float64(1.0), np.bool_(True),
    np.array(1), np.array([0]), np.array([0, 1]), 2, -1, 0.5,
    float("nan"), "0", "1", None, (0,), [1]], ids=repr)
def test_assignment_bit_check_matches_the_per_bit_test(bit):
    def outcome(check):
        try:
            return check()
        except Exception as e:      # the exception type is the outcome
            return type(e)

    bits = (0, bit, 1)
    want = outcome(lambda: all(b in (0, 1) for b in bits))
    got = outcome(lambda: Assignment(bits).bits is bits)
    assert got == {False: ValueError}.get(want, want)


def test_all_assignments_array_matches_from_int():
    xs = all_assignments_array(5)
    assert xs.shape == (32, 5)
    for m in (0, 1, 17, 31):
        assert tuple(int(b) for b in xs[m]) == Assignment.from_int(m, 5).bits
    assert np.array_equal(all_assignments_array(5, 17, 20), xs[17:20])
    assert all_assignments_array(5, 32).shape == (0, 5)
    for lo, hi in ((3, 2), (0, 33), (-1, 4)):
        with pytest.raises(ValueError):
            all_assignments_array(5, lo, hi)
    with pytest.raises(ValueError):
        all_assignments_array(25)


@pytest.mark.parametrize("n", [*range(1, 11), 24])
def test_all_assignments_array_rows_are_from_int(n):
    """Every row at n <= 10, and the edges of the range at n = 24."""
    top, mid = 1 << n, 1 << (n - 1)
    ranges = [(0, top)] if n <= 10 else [
        (0, 40), (mid - 20, mid + 20), (top - 40, top), (top, top)]
    for lo, hi in ranges:
        xs = all_assignments_array(n, lo, hi)
        assert xs.dtype == np.uint8 and xs.shape == (hi - lo, n)
        assert xs.flags.c_contiguous
        assert [tuple(row) for row in xs.tolist()] == \
            [Assignment.from_int(m, n).bits for m in range(lo, hi)]


def test_sweep_rows_matches_from_int():
    n = 6
    # asymmetric in the variables: a swapped bit order changes its values
    f = lambda x: (x.bit(1) & (1 - x.bit(n))) ^ int(x.to_int() % 3 == 0)
    got = sweep_rows(f, all_assignments_array(n))
    assert got.dtype == np.uint8 and got.shape == (1 << n,)
    assert got.tolist() == [f(Assignment.from_int(i, n))
                            for i in range(1 << n)]
    rows = np.random.default_rng(3).integers(0, 2, size=(40, n),
                                              dtype=np.uint8)
    index = rows @ (1 << np.arange(n))
    assert sweep_rows(f, rows).tolist() == [
        f(Assignment.from_int(int(i), n)) for i in index]
    assert sweep_rows(f, rows[:0]).shape == (0,)


def test_variable_order_checks_permutation():
    theta = VariableOrder((3, 1, 2))
    assert theta.position_of(3) == 1
    assert list(theta) == [3, 1, 2]
    with pytest.raises(ValueError):
        VariableOrder((1, 1, 2))
    with pytest.raises(ValueError):
        VariableOrder((0, 1, 2))


# ---------------------------------------------------------------------------
# structural validation


def _tiny_det() -> Program:
    # x1 xor x2 with a 1-node start level
    levels = (det_level(1, (1,), (2,), 2),
              det_level(2, (1, 2), (2, 1), 2))
    return Program(semantics="deterministic", n=2, k=1,
                   order=VariableOrder.identity(2), levels=levels,
                   initial=1, accept=frozenset({2}))


def test_validate_accepts_tiny_program():
    p = _tiny_det()
    assert validate(p).ok
    assert width(p) == 2
    assert p.final_width == 2


def test_validate_level_count_and_order():
    p = _tiny_det()
    short = Program(semantics="deterministic", n=2, k=2, order=p.order,
                    levels=p.levels, initial=1, accept=p.accept)
    report = validate(short)
    assert not report.ok and any("level" in v for v in report.violations)

    swapped = Program(semantics="deterministic", n=2, k=1, order=p.order,
                      levels=(p.levels[1], p.levels[0]), initial=1,
                      accept=p.accept)
    assert not validate(swapped).ok


def test_validate_catches_bad_det_entries():
    base = _tiny_det()
    out_of_range = (det_level(1, (1,), (3,), 2), base.levels[1])
    p = Program(semantics="deterministic", n=2, k=1, order=base.order,
                levels=out_of_range, initial=1, accept=base.accept)
    assert not validate(p).ok

    boolish = (det_level(1, (True,), (2,), 2), base.levels[1])
    p = Program(semantics="deterministic", n=2, k=1, order=base.order,
                levels=boolish, initial=1, accept=base.accept)
    assert not validate(p).ok


def test_validate_width_chaining_and_ranges():
    base = _tiny_det()
    broken = (det_level(1, (1,), (2,), 3), base.levels[1])
    p = Program(semantics="deterministic", n=2, k=1, order=base.order,
                levels=broken, initial=1, accept=base.accept)
    assert not validate(p).ok  # width 3 feeds a width-2 level

    p = Program(semantics="deterministic", n=2, k=1, order=base.order,
                levels=base.levels, initial=5, accept=base.accept)
    assert not validate(p).ok

    p = Program(semantics="deterministic", n=2, k=1, order=base.order,
                levels=base.levels, initial=1, accept=frozenset({9}))
    assert not validate(p).ok


def test_validate_epsilon_rules():
    base = _tiny_det()
    p = Program(semantics="deterministic", n=2, k=1, order=base.order,
                levels=base.levels, initial=1, accept=base.accept,
                epsilon=0.25)
    assert not validate(p).ok

    rng = random.Random(5)
    q = random_prob_program(rng, 2, 1)
    good = Program(semantics="probabilistic", n=2, k=1, order=q.order,
                   levels=q.levels, initial=q.initial, accept=q.accept,
                   epsilon=0.5)
    assert validate(good).ok
    bad = Program(semantics="probabilistic", n=2, k=1, order=q.order,
                  levels=q.levels, initial=q.initial, accept=q.accept,
                  epsilon=0.75)
    assert not validate(bad).ok


def test_validate_stochastic_columns():
    lvl = matrix_level(1, np.array([[0.5], [0.4]]), np.array([[1.0], [0.0]]))
    p = Program(semantics="probabilistic", n=1, k=1,
                order=VariableOrder.identity(1), levels=(lvl,),
                initial=1, accept=frozenset({1}))
    report = validate(p)
    assert not report.ok
    assert any("column" in v for v in report.violations)


def test_validate_unitarity():
    good = matrix_level(1, np.eye(2, dtype=complex),
                        np.array([[0, 1], [1, 0]], dtype=complex))
    p = Program(semantics="quantum", n=1, k=1,
                order=VariableOrder.identity(1), levels=(good,),
                initial=1, accept=frozenset({2}))
    assert validate(p).ok

    leaky = matrix_level(1, np.eye(2, dtype=complex) * 0.9,
                         np.eye(2, dtype=complex))
    p = Program(semantics="quantum", n=1, k=1,
                order=VariableOrder.identity(1), levels=(leaky,),
                initial=1, accept=frozenset({2}))
    assert not validate(p).ok


def test_validate_checks_a_shared_matrix_once_and_tags_every_level(
        monkeypatch):
    calls = []
    faults = program._matrix_faults
    monkeypatch.setattr(program, "_matrix_faults",
                        lambda *a, **kw: calls.append(1) or faults(*a, **kw))
    quantum = np.array([[1, 1], [0, 1]], dtype=complex)
    prob = np.array([[0.7, -0.1], [0.2, 1.1]])
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    for semantics, good, bad, found in [
            ("quantum", hadamard, quantum,
             ["not unitary (|U+U - I|_F = 1.732e+00)"]),
            ("probabilistic", np.full((2, 2), 0.5), prob,
             ["negative entries", f"column 1 sums to {prob.sum(0)[0]!r}"])]:
        levels = (matrix_level(1, good, bad), matrix_level(2, good, bad),
                  matrix_level(3, good, bad.copy()))
        p = Program(semantics=semantics, n=3, k=1,
                    order=VariableOrder.identity(3), levels=levels,
                    initial=1, accept=frozenset({1}))
        calls.clear()
        assert validate(p).violations == tuple(
            f"levels[{i}].t1: {f}" for i in range(3) for f in found)
        assert len(calls) == 2                # good and bad
        # a 0/1 function is a tuple, which takes no matrix check
        eye = matrix_level(3, np.eye(2, dtype=bad.dtype), good)
        calls.clear()
        assert validate(dataclasses.replace(p, levels=levels[:2] + (eye,))
                        ).violations == tuple(
            f"levels[{i}].t1: {f}" for i in range(2) for f in found)
        assert eye.t0 == (1, 2) and len(calls) == 2
    # good under two pairs of declared widths: two checks
    level = TransitionLevel(2, 2, 3, good, good)
    p = dataclasses.replace(p, levels=(levels[0], level, levels[2]))
    violations = validate(p).violations
    assert "levels[1].t0: shape (2, 2) != (3, 2)" in violations
    assert "levels[1].t1: shape (2, 2) != (3, 2)" in violations
    assert not any(v.startswith("levels[0].t0") for v in violations)


def test_validate_checks_a_shared_transition_once_and_tags_every_level(
        monkeypatch):
    calls = []
    faults = program._branch_faults
    monkeypatch.setattr(program, "_branch_faults",
                        lambda *a, **kw: calls.append(a) or faults(*a, **kw))
    for semantics, good, bad, found in [
            ("deterministic", (1, 2), (2, 3), "successors [3] outside 1..2"),
            ("nondeterministic", frozenset({(1, 1), (2, 2)}),
             frozenset({(1, 2), (2, 3)}), "edges [(2, 3)] out of range")]:
        copy = type(bad)(list(bad))           # equal to bad, not bad
        assert copy == bad and copy is not bad
        levels = (TransitionLevel(1, 2, 2, good, bad),
                  TransitionLevel(2, 2, 2, good, bad),
                  TransitionLevel(3, 2, 2, good, copy))
        p = Program(semantics=semantics, n=3, k=1,
                    order=VariableOrder.identity(3), levels=levels,
                    initial=1, accept=frozenset({1}))
        calls.clear()
        assert validate(p).violations == tuple(
            f"levels[{i}].t1: {found}" for i in range(3))
        assert [a[0] for a in calls] == [good, bad, copy]
        assert calls[1][0] is bad and calls[2][0] is copy
    # one object under two pairs of declared widths: two checks
    level = TransitionLevel(2, 2, 3, good, bad)
    p = dataclasses.replace(p, levels=(levels[0], level, levels[2]))
    calls.clear()
    violations = validate(p).violations
    assert "levels[0].t1: edges [(2, 3)] out of range" in violations
    assert not any(v.startswith("levels[1].t1") for v in violations)
    assert len(calls) == 5


def test_matrix_level_owns_what_it_holds():
    base = np.full((2, 2), 0.5)            # no 0/1 function: kept dense
    view = base[:]
    view.setflags(write=False)
    for m in (base, view):
        lvl = matrix_level(1, m, m)
        base[0, 0] = 5.0
        assert lvl.t0[0, 0] == 0.5 and not lvl.t0.flags.writeable
        base[0, 0] = 0.5
    frozen = np.full((2, 2), 0.5)
    frozen.setflags(write=False)
    assert matrix_level(1, frozen, frozen).t0 is frozen     # no copy
    # a 0/1 function is held as its successor tuple, which no write reaches
    swap = np.eye(2)[::-1]
    lvl = matrix_level(1, swap, base)
    swap[0, 0] = 5.0
    assert lvl.t0 == (2, 1) and lvl.t1 is not base


def test_matrix_level_takes_float_and_complex_functions_as_tuples():
    swap = np.eye(2)[::-1]
    kept = {np.dtype(d): matrix_level(1, swap.astype(d), swap.astype(d))
            for d in (float, complex, np.float32, int, bool)}
    for d, lvl in kept.items():
        want = tuple if d.kind in "fc" else np.ndarray  # int and bool stay
        assert type(lvl.t0) is want and type(lvl.t1) is want

    # matrix_level does not know the semantics, so a complex one-hot
    # matrix in a probabilistic program is its tuple, on purpose: it
    # validates and writes the float one-hot text a reader takes back
    def prob(lvl):
        return Program(semantics="probabilistic", n=1, k=1,
                       order=VariableOrder.identity(1), levels=(lvl,),
                       initial=1, accept=frozenset({1}))
    p = prob(kept[np.dtype(complex)])
    assert p.levels[0].t0 == (2, 1) and validate(p).ok
    spelled = prob(TransitionLevel(1, 2, 2, swap, swap))
    assert serialize(p) == serialize(spelled)
    assert deserialize(serialize(p)).structurally_equal(p)
    # kept dense, a complex matrix is still no stochastic one
    dense = prob(TransitionLevel(1, 2, 2, swap + 0j, swap + 0j))
    assert "complex entries in a stochastic matrix" in str(validate(dense))


def test_validate_quantum_needs_constant_width():
    widen = (matrix_level(1, np.eye(3)[:, :2] + 0j, np.eye(3)[:, :2] + 0j),)
    p = Program(semantics="quantum", n=1, k=1,
                order=VariableOrder.identity(1), levels=widen,
                initial=1, accept=frozenset({1}))
    assert not validate(p).ok


def test_validate_rejects_nonfinite():
    lvl = matrix_level(1, np.array([[np.nan], [1.0]]),
                       np.array([[1.0], [0.0]]))
    p = Program(semantics="probabilistic", n=1, k=1,
                order=VariableOrder.identity(1), levels=(lvl,),
                initial=1, accept=frozenset({1}))
    assert not validate(p).ok


def test_width_counts_sink_level():
    levels = (det_level(1, (1,), (1,), 1),
              det_level(2, (1,), (1,), 4))
    p = Program(semantics="deterministic", n=2, k=1,
                order=VariableOrder.identity(2), levels=levels,
                initial=1, accept=frozenset({4}))
    assert width(p) == 4


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("semantics", ["deterministic", "nondeterministic",
                                       "probabilistic", "quantum"])
def test_round_trip_each_semantics(semantics):
    rng = random.Random(hash(semantics) & 0xFFFF)
    p = random_program(rng, semantics, n=3, k=2)
    text = serialize(p)
    for t in (text, json.dumps(json.loads(text))):  # writer's layout, compact
        q = deserialize(t)
        assert q.structurally_equal(p)
        assert validate(q).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_round_trip_random_quantum_bit_exact(seed):
    rng = random.Random(seed)
    p = random_quantum_program(rng, n=2, k=1, w=3)
    q = deserialize(serialize(p))
    assert q.structurally_equal(p)
    for a, b in zip(p.levels, q.levels):
        assert a.t0.tobytes() == b.t0.tobytes()
        assert a.t1.tobytes() == b.t1.tobytes()


def test_serialize_is_deterministic():
    rng = random.Random(7)
    p = random_det_program(rng, 3, 2)
    assert serialize(p) == serialize(deserialize(serialize(p)))


def _reference_text(p) -> str:
    """The v1 document of ``p`` through the standard library's encoder."""
    def encode(t, width_out):
        if p.semantics == "deterministic":
            return list(t)
        if isinstance(t, tuple):        # a 0/1 function, spelled out
            if p.semantics == "nondeterministic":
                return [[s, d] for s, d in enumerate(t, 1)]
            t = [[float(s == r) for s in t] for r in range(1, width_out + 1)]
        if p.semantics == "nondeterministic":
            return [[s, d] for s, d in sorted(t)]
        if p.semantics == "probabilistic":
            return [repr(float(x)) for x in np.asarray(t).ravel()]
        return [{"re": repr(float(z.real)), "im": repr(float(z.imag))}
                for z in np.asarray(t).ravel()]

    doc = {"format": "kobdd-program-v1", "semantics": p.semantics,
           "n": p.n, "k": p.k, "order": list(p.order.perm),
           "initial": p.initial, "accept": sorted(p.accept),
           "epsilon": p.epsilon,
           "levels": [{"var": l.variable, "width_in": l.width_in,
                       "width_out": l.width_out,
                       "t0": encode(l.t0, l.width_out),
                       "t1": encode(l.t1, l.width_out)}
                      for l in p.levels]}
    return _layout(doc)


def _one_level(semantics, level, **fields) -> Program:
    return Program(semantics=semantics, n=1, k=1,
                   order=VariableOrder.identity(1), levels=(level,),
                   initial=1, accept=frozenset({1}), **fields)


# -0.0 == 0.0 but prints differently; 5e-324 is the smallest subnormal
_ODD = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 0.0, 1.0]


def _encoder_cases():
    cases = {}
    for i, sem in enumerate(("deterministic", "nondeterministic",
                             "probabilistic", "quantum")):
        cases[sem] = random_program(random.Random(40 + i), sem, n=3, k=2)
    det = cases["deterministic"]
    assert len({l.width_in for l in det.levels}) > 1     # widths change
    cases["empty accept"] = dataclasses.replace(det, accept=frozenset())
    cases["empty nondet transition"] = _one_level(
        "nondeterministic", nondet_level(1, 2, 3, [], [(2, 3), (1, 1)]))
    prob = cases["probabilistic"]
    cases["epsilon 0.5"] = dataclasses.replace(prob, epsilon=0.5)
    odd = np.array(_ODD).reshape(2, 3)
    cases["odd reals"] = _one_level(
        "probabilistic", matrix_level(1, odd, odd[::-1]))
    cases["odd complex"] = _one_level(
        "quantum", matrix_level(1, odd + 1j * odd[::-1],
                                np.vectorize(complex)(odd[::-1], odd)))
    cases["float32"] = _one_level(
        "probabilistic", matrix_level(1, np.float32(odd) / 3, odd))
    cases["complex64"] = _one_level(
        "quantum", matrix_level(1, np.complex64(odd + 0.1j), odd))
    # one-hot rows with no 1 and with two: width 3 -> 4, nodes 1, 2 -> 1
    cases["one-hot prob"] = _one_level(
        "probabilistic", matrix_level(1, np.eye(4)[:, [0, 0, 2]],
                                      np.eye(4)[:, [3, 1, 0]]))
    cases["one-hot quantum"] = _one_level(
        "quantum", matrix_level(1, np.eye(3)[:, [2, 0, 1]] + 0j,
                                np.eye(3) + 0j))
    for name in ("one-hot prob", "one-hot quantum"):
        level = cases[name].levels[0]
        assert isinstance(level.t0, tuple) and isinstance(level.t1, tuple)
    return cases


_ENCODER_CASES = _encoder_cases()


@pytest.mark.parametrize("name", sorted(_ENCODER_CASES))
def test_serialize_matches_json_dumps(name):
    p = _ENCODER_CASES[name]
    assert serialize(p) == _reference_text(p)


@pytest.mark.parametrize("semantics, t0, t1, message", [
    # a successor 0 would put its 1 in the last row and read back as 2
    ("probabilistic", (0, 1), (1, 2), r"levels\[0\]\.t0: successors \[0\] "
                                      r"outside 1\.\.2$"),
    ("quantum", (1, 2), (3, 1), r"levels\[0\]\.t1: successors \[3\] "
                                r"outside 1\.\.2$"),
], ids=["prob-zero", "quantum-above-width"])
def test_serialize_range_checks_one_hot_successors(tmp_path, semantics, t0,
                                                   t1, message):
    p = _one_level(semantics, TransitionLevel(1, 2, 2, t0, t1))
    with pytest.raises(ValueError, match=message):
        serialize(p)
    path = tmp_path / "p.json"
    path.write_text("kept")
    with pytest.raises(ValueError, match=message):
        program.save_program(p, str(path))
    assert path.read_text() == "kept"


def test_serialize_keeps_apart_equal_values_and_equal_bits():
    m = np.array([[0.5, 0.0], [0.5, 1.0]])
    f32 = np.array([[0.5, 0.25], [1.0, 2.0]], dtype=np.float32)
    for a, b in [(m * 0.0, m * -0.0),       # equal values, other bits
                 (m, m.view(np.int64)),      # equal bits, other dtype
                 (f32, f32.view(np.float64))]:   # ... and other shape
        assert a.tobytes() == b.tobytes() or np.array_equal(a, b)
        p = Program(semantics="probabilistic", n=2, k=1,
                    order=VariableOrder.identity(2),
                    levels=(matrix_level(1, a, a), matrix_level(2, b, b)),
                    initial=1, accept=frozenset({1}))
        assert serialize(p) == _reference_text(p)
    # equal tuples print apart: (True, 2) == (1, 2)
    p = Program(semantics="deterministic", n=2, k=1,
                order=VariableOrder.identity(2),
                levels=(det_level(1, (1, 2), (1, 2), 2),
                        det_level(2, (True, 2), (True, 2), 2)),
                initial=1, accept=frozenset({1}))
    assert serialize(p).count("True") == 2


def test_non_finite_entries_are_written_as_json_dumps_writes_them():
    # written as any float is; no read accepts them, in either layout
    odd = np.array([[np.nan, np.inf], [-np.inf, 5e-324]])
    for p in (_one_level("probabilistic", matrix_level(1, odd, odd)),
              _one_level("quantum", matrix_level(
                  1, np.vectorize(complex)(odd, odd[::-1]), odd))):
        text = serialize(p)
        assert text == _reference_text(p) and '"-inf"' in text
        for t in _both_layouts(json.loads(text)):
            with pytest.raises(ProgramFormatError, match="non-finite value"):
                deserialize(t)


def test_repeated_entries_round_trip_bit_exact():
    w = 64
    perm = np.eye(w)[np.roll(np.arange(w), 1)]
    signed = np.where(perm == 0, -0.0, 1.0) + 1j * np.where(perm, 0.0, -0.0)
    for p in (_one_level("probabilistic",
                         matrix_level(1, np.full((w, w), 1 / w), perm)),
              _one_level("quantum", matrix_level(1, signed, perm + 0j))):
        text = serialize(p)
        assert text.count('"0.0"') + text.count('"-0.0"') > 2000
        q = deserialize(text)
        assert q.structurally_equal(p)
        assert serialize(q) == text


def _doc(p) -> dict:
    return json.loads(serialize(p))


def test_malformed_documents_rejected():
    rng = random.Random(3)
    det = random_det_program(rng, 2, 1)
    prob = random_prob_program(rng, 2, 1)

    cases = []
    doc = _doc(det)
    doc["format"] = "something-else"
    cases.append(doc)

    doc = _doc(det)
    del doc["levels"]
    cases.append(doc)

    doc = _doc(det)
    doc["levels"][0]["t0"] = [0]          # node index below 1
    cases.append(doc)

    doc = _doc(det)
    doc["levels"][0]["t0"] = [True]       # bool is not an int here
    cases.append(doc)

    doc = _doc(det)
    doc["initial"] = "one"
    cases.append(doc)

    doc = _doc(prob)
    doc["levels"][0]["t0"][0] = "not-a-number"
    cases.append(doc)

    doc = _doc(prob)
    doc["levels"][0]["t0"] = doc["levels"][0]["t0"][:-1]  # short matrix
    cases.append(doc)

    doc = _doc(prob)
    doc["epsilon"] = True
    cases.append(doc)

    assert len(cases) >= 6
    for doc in cases:
        errors = []
        for text in _both_layouts(doc):
            with pytest.raises(ProgramFormatError) as info:
                deserialize(text)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
    with pytest.raises(ProgramFormatError):
        deserialize("{ not json")
    with pytest.raises(ProgramFormatError, match="invalid JSON"):
        deserialize("[" * 200000 + "]" * 200000)     # deeper than the stack


def _outcome(text: str):
    """deserialize's program, or its error text."""
    try:
        return deserialize(text)
    except ProgramFormatError as e:
        return str(e)


def _outcome_via_json(text: str):
    """What the json.loads path makes of text: the outcome on its re-dump
    with json.dumps's spaced separators, which no layout read takes, or
    the ``invalid JSON`` error where json.loads rejects it."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        return f"invalid JSON: {e}"
    return _outcome(json.dumps(doc))


def _assert_same_outcome(got, want) -> None:
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert got.structurally_equal(want)


def _assert_read_as_json_reads(text: str) -> None:
    got = _outcome(text)
    _assert_same_outcome(got, _outcome_via_json(text))
    # the same text as a file's bytes, as load_program passes it
    _assert_same_outcome(_outcome(text.encode()), got)


_SENTINEL = "@@value@@"


def _leaf_paths(node, path=()):
    """Paths to every value below the top level of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _leaf_paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _put(text: str, path, raw: str) -> str:
    """The writer's layout of text's document, with the value at path
    replaced by the raw text ``raw``."""
    doc = json.loads(text)
    _at(doc, path[:-1])[path[-1]] = _SENTINEL
    return _layout(doc).replace(json.dumps(_SENTINEL), raw, 1)


# raw JSON text (or not JSON at all) put in place of one value
_RAW_VALUES = ['0.5', '"0.5"', '"\t1.0"', '" 1.0"', '"1_0"', '"NaN"', 'NaN',
               '"1e999"', '"\\u0031.0"', '"-0.0"', '1', '-0', '01', 'true',
               'null', '[]', '{}', '{"re": "1.0", "im": "0.0"}',
               '{"im": "0.0", "re": "1.0", "re": "2.0"}', '[1, 2]', '[0, 1]']


def _program_text(semantics: str, seed: int) -> str:
    return serialize(random_program(random.Random(seed), semantics, n=2,
                                    k=1, wmax=3))


@pytest.mark.parametrize("semantics", ["deterministic", "nondeterministic",
                                       "probabilistic", "quantum"])
def test_layout_read_agrees_with_json_on_edge_cases(semantics):
    text = _program_text(semantics, 5)
    texts = [text, text + "\n", text + "\n\n", " " + text, text + " ",
             text + "\r\n", _indented(json.loads(text))]
    # json.loads keeps the last of repeated keys
    before_n = text.index(',"n":')
    for entry in ('"levels":1', '"levels":[]', '"n":2', '"zz":1'):
        texts.append(f"{text[:before_n]},{entry}{text[before_n:]}")
    texts.append(text.replace('"k":1', '"\\u006b":1'))
    texts.append(text.replace('"k":1', '"k": 1'))
    # another program's levels array, under a key sorted before "accept",
    # first or after another key; and the program's own levels moved there
    other = _program_text(semantics, 6)
    start, end = other.index(',"levels":['), other.index(',"n":')
    texts.append(text.replace("{", '{"aa":{' + other[start + 1:end] + "},", 1))
    texts.append(text.replace("{", '{"aa":{"a":1' + other[start:end] + "},", 1))
    start, end = text.index(',"levels":['), text.index(',"n":')
    texts.append((text[:start] + text[end:]).replace(
        "{", '{"aa":{"a":1' + text[start:end] + "},", 1))
    for path in _leaf_paths(json.loads(text)["levels"][0], ("levels", 0)):
        texts += [_put(text, path, raw) for raw in _RAW_VALUES]
    for t in texts:
        _assert_read_as_json_reads(t)


def _repeated_text(semantics: str, seed: int) -> str:
    """A writer-layout text in which every transition body appears four
    times: t1 repeats t0, and layer 2 repeats layer 1."""
    doc = json.loads(_program_text(semantics, seed))
    for level in doc["levels"]:
        level["t1"] = level["t0"]
    doc["k"], doc["levels"] = 2, doc["levels"] * 2
    return _layout(doc)


@pytest.mark.parametrize("semantics", ["deterministic", "nondeterministic",
                                       "probabilistic", "quantum"])
def test_layout_read_agrees_with_json_on_repeated_transitions(semantics):
    text = _repeated_text(semantics, 5)
    p = _read_layout(text)
    assert p.structurally_equal(_outcome_via_json(text))
    assert all(l.t0 is l.t1 is p.levels[i % 2].t0
               for i, l in enumerate(p.levels))        # one decode each
    # one of the four equal bodies mutated
    t1 = json.loads(text)["levels"][1]["t1"]
    for path in _leaf_paths(t1, ("levels", 1, "t1")):
        for raw in _RAW_VALUES:
            _assert_read_as_json_reads(_put(text, path, raw))


@pytest.mark.parametrize("semantics, body, entry", [
    ("deterministic", [1, 2], None),
    ("probabilistic", None, "0.5"),
    ("quantum", None, {"im": "0.0", "re": "0.5"})])
def test_layout_read_decodes_a_body_at_each_width(semantics, body, entry):
    # [1, 2] is in range at width_out 2 but not at width_out 1; four
    # matrix entries are a 2x2 matrix at one level and a 1x4 at the next
    widths = [(2, 2), (2, 1)] if body else [(2, 2), (4, 1), (2, 2)]
    levels = [{"var": 1, "width_in": w_in, "width_out": w_out,
               "t0": body or [entry] * 4, "t1": body or [entry] * 4}
              for w_in, w_out in widths]
    for order in (levels, levels[::-1]):
        doc = {"accept": [1], "epsilon": None, "format": "kobdd-program-v1",
               "initial": 1, "k": len(order), "n": 1, "order": [1],
               "semantics": semantics, "levels": order}
        text = _layout(doc)
        _assert_read_as_json_reads(text)
        got = _outcome(text)
        if body:
            assert got == f"levels[{order.index(levels[1])}].t0: " \
                          "successors [2] outside 1..1"
        else:
            assert [l.t0.shape for l in got.levels] == \
                [(l["width_out"], l["width_in"]) for l in order]


_CHARS = '0123456789"{}[],: \n\t-+.eE\\a\x00'


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["deterministic", "nondeterministic",
                        "probabilistic", "quantum"]),
       st.integers(0, 10 ** 6), st.data())
def test_layout_read_agrees_with_json_on_mutated_files(semantics, seed,
                                                       data):
    text = data.draw(st.sampled_from([_program_text, _repeated_text]))(
        semantics, seed)
    kind = data.draw(st.sampled_from(["char", "drop", "value", "entry"]))
    if kind == "entry":                 # one more top-level key
        ends = [m.start() for m in re.finditer(
            r',"(epsilon|format|initial|k|levels|n|order|semantics)":|\}$',
            text)]
        at = data.draw(st.sampled_from(ends))
        key = data.draw(st.sampled_from(["levels", "n", "aa", "zz"]))
        value = data.draw(st.sampled_from(["1", "[]", "null"]))
        text = f'{text[:at]},"{key}":{value}{text[at:]}'
    elif kind == "char":
        at = data.draw(st.integers(0, len(text) - 1))
        new = data.draw(st.sampled_from(["", *_CHARS]))
        skip = data.draw(st.integers(0, 1))
        text = text[:at] + new + text[at + skip:]
    else:
        doc = json.loads(text)
        paths = list(_leaf_paths(doc))
        if kind == "drop":
            paths = [p for p in paths if isinstance(p[-1], int)]
        path = data.draw(st.sampled_from(paths))
        if kind == "drop":
            del _at(doc, path[:-1])[path[-1]]
            text = _layout(doc)
        else:
            text = _put(text, path, data.draw(st.sampled_from(_RAW_VALUES)))
    _assert_read_as_json_reads(text)


@pytest.mark.parametrize("name", sorted(_ENCODER_CASES))
def test_writer_texts_take_the_layout_read(name):
    text = serialize(_ENCODER_CASES[name])
    for t in (text, text + "\n"):                 # save_program's newline
        p = _read_layout(t)
        assert p is not None
        assert p.structurally_equal(_outcome_via_json(t))


def test_an_indented_file_of_earlier_versions_reads_to_the_same_program(
        tmp_path):
    from kobdd import (build_mxpj_id_obdd, compile_to_nondet,
                       compile_to_prob, compile_to_quantum, load_program)
    det = build_mxpj_id_obdd(2, 4)
    rng = random.Random(25)
    path = tmp_path / "old.json"
    for p in (det, compile_to_nondet(det), compile_to_prob(det),
              compile_to_quantum(det), random_prob_program(rng, 3, 2),
              random_quantum_program(rng, 2, 2, w=3)):
        text = serialize(p)
        path.write_text(_indented(json.loads(text)) + "\n")
        for q in (load_program(str(path)), deserialize(path.read_text())):
            assert q.structurally_equal(p) and p.structurally_equal(q)
            assert validate(q).ok and serialize(q) == text


#: A one-hot 0 cell as the writer spells it, by hand; a 1 cell is as long.
_ZERO_CELL = {"probabilistic": '"0.0"',
              "quantum": '{"im":"0.0","re":"0.0"}'}


def _embedded_text(emb: str, k: int, d: int) -> str:
    from kobdd import build_mxpj_id_obdd, compile_to_prob, compile_to_quantum
    compile_to = {"prob": compile_to_prob, "quantum": compile_to_quantum}
    return serialize(compile_to[emb](build_mxpj_id_obdd(k, d)))


def _one_hot_mutant(text: str, stride: int, at: int, kind: str) -> str:
    """text with the "1.0" at offset at moved, shifted, duplicated,
    dropped or respelled; a neighbour cell's value sits stride away."""
    def put(s, i, new, old='"0.0"'):
        assert s[i:i + len(old)] == old
        return s[:i] + new + s[i + len(old):]

    # the neighbour cell in the same body, next or else previous
    near = at + stride if text[at + stride:at + stride + 5] == '"0.0"' \
        else at - stride
    if kind == "move":
        return put(put(text, at, '"0.0"', '"1.0"'), near, '"1.0"')
    if kind == "duplicate":
        return put(text, near, '"1.0"')
    if kind == "shift":     # one character off, the body as long: "0." is 0
        early = near < at
        text, at = put(text, near, '"0."'), at - early
        return put(text, at, '"1.0" ' if early else ' "1.0"', '"1.0"')
    if kind == "zero -0.0":
        return put(text, near, '"-0.0"')
    return put(text, at, {"drop": '"0.0"'}.get(kind, kind), '"1.0"')


@pytest.mark.parametrize("k, d", [(1, 2), (1, 4)])
@pytest.mark.parametrize("emb", ["prob", "quantum"])
def test_a_bent_one_hot_body_reads_as_json_reads_it(emb, k, d):
    text = _embedded_text(emb, k, d)
    built = deserialize(text)
    stride = len(_ZERO_CELL[built.semantics] + ",")
    ones = [m.start() for m in re.finditer('"1.0"', text)]
    rng = random.Random(k * 10 + d)
    for kind in ["move", "shift", "duplicate", "drop", '"1.00"', '"1e0"',
                 '"-0.0"', "zero -0.0"]:
        # every 1 of mxpj:1,2, some of mxpj:1,4
        for at in ones if len(ones) <= 32 else rng.sample(ones, 4):
            mutant = _one_hot_mutant(text, stride, at, kind)
            _assert_read_as_json_reads(mutant)
            got = deserialize(mutant)
            branches = [t for l in got.levels for t in (l.t0, l.t1)]
            if kind in ('"1.00"', '"1e0"'):     # the same values
                assert got.structurally_equal(built)
            elif "-0.0" in kind:                # bits no 0/1 matrix has
                assert sum(isinstance(t, np.ndarray) for t in branches) == 1


@pytest.mark.parametrize("emb", ["prob", "quantum"])
def test_built_one_hot_bodies_are_read_without_cutting_items(monkeypatch,
                                                             emb):
    """A built body is read as its tuple: no general decode of a body."""
    text = _embedded_text(emb, 2, 4)
    calls = []
    decode = program._decode_transition
    monkeypatch.setattr(program, "_decode_transition",
                        lambda *args: calls.append(args) or decode(*args))
    for t in (text, text.encode()):
        p = deserialize(t)
        assert all(isinstance(b, tuple) for l in p.levels
                   for b in (l.t0, l.t1))
        assert serialize(p) == text
    assert calls == []
    # a dense body still takes the general decode, once
    assert _read_layout(text.replace('"1.0"', '"1.00"', 1)) is not None
    assert len(calls) == 1


@pytest.mark.parametrize("semantics", ["probabilistic", "quantum"])
def test_a_mapped_dense_file_reads_as_json_reads_it(tmp_path, monkeypatch,
                                                    semantics):
    """Dense bodies read past a page drop of the map, by the layout read,
    as json.loads reads the file's compact text."""
    rng = random.Random(20)
    p = (random_prob_program(rng, 9, 2, wmax=64) if semantics ==
         "probabilistic" else random_quantum_program(rng, 3, 1, w=64))
    path = tmp_path / "p.json"
    program.save_program(p, str(path))
    text = path.read_text()
    assert len(text) > program._DROP
    lengths = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *args, **kwargs:
                        lengths.append(len(s)) or loads(s, *args, **kwargs))
    got = program.load_program(str(path))
    assert max(lengths) < len(text) // 2        # no whole-text parse
    monkeypatch.undo()
    want = deserialize(json.dumps(json.loads(text)))
    assert got.structurally_equal(want) and want.structurally_equal(got)
    assert any(isinstance(t, np.ndarray) for l in got.levels
               for t in (l.t0, l.t1))


def _corrupted_text(emb: str, k: int, d: int) -> str:
    """A built file's text with its first 0 cell spelled "x.0"."""
    text = _embedded_text(emb, k, d)
    at = text.index('"0.0"', text.index('"levels":['))
    return text[:at] + '"x.0"' + text[at + 5:]


def test_a_malformed_built_file_is_reported_without_a_whole_text_parse(
        tmp_path, monkeypatch):
    text = _corrupted_text("quantum", 2, 4)
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    want = "levels[0].t0[0].im: not a decimal number: 'x.0'"
    _assert_read_as_json_reads(text)
    lengths = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *args, **kwargs:
                        lengths.append(len(s)) or loads(s, *args, **kwargs))
    data = text.encode()
    for read in (lambda: deserialize(text), lambda: deserialize(data),
                 lambda: program.load_program(str(path))):
        lengths.clear()
        tracemalloc.start()
        try:
            with pytest.raises(ProgramFormatError) as info:
                read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == want
        assert max(lengths) < len(text) // 20      # pieces only
        assert peak < 1 << 20


def test_a_decode_error_before_a_later_fault_of_the_text_reads_as_json():
    """The first level's decode error is not raised while a later piece
    is not JSON, not UTF-8, or too deep for the whole-text parse."""
    text = _corrupted_text("prob", 2, 4)
    at = text.rindex(',"var":')
    later = {"syntax": text[:at] + text[at + 1:],
             "deep": text[:at + 7] + "[" * 100_000 + "]" * 100_000
             + text[text.index(",", at + 1):]}
    for name, t in later.items():
        _assert_read_as_json_reads(t)
        assert _outcome(t).startswith("invalid JSON: "), name
    raw = text.encode()
    at = raw.rindex(b'"0.0"')
    with pytest.raises(ProgramFormatError, match="can't decode byte 0xff"):
        deserialize(raw[:at] + b'"\xff.0"' + raw[at + 5:])


def _near_text(rng: random.Random, lits: list[str]) -> str:
    """A text of the literals' own characters: whole literals, literals
    with one character changed, cut ones that the next piece overlaps,
    and single characters."""
    chars = sorted(set("".join(lits)))
    parts = []
    for _ in range(rng.randrange(1, 40)):
        lit, kind = rng.choice(lits), rng.randrange(4)
        at = rng.randrange(len(lit))
        parts.append((rng.choice(chars), lit, lit[:at],
                      lit[:at] + rng.choice(chars) + lit[at + 1:])[kind])
    return "".join(parts)


@pytest.mark.parametrize("seed", range(8))
def test_hop_search_agrees_with_find(seed):
    rng = random.Random(seed)
    lits = list(program._LEVEL[1:])     # what _read_layout looks for
    for _ in range(25):
        text = _near_text(rng, lits)
        starts = {0, len(text), *(rng.randrange(len(text) + 1)
                                  for _ in range(6))}
        for t, cut in ((text, lits), (text.encode(),
                                      [lit.encode() for lit in lits])):
            for lit in cut:
                for hop in range(len(lit)):  # exact at any offset
                    for pos in starts:
                        assert program._find(t, lit, pos, hop) == \
                            t.find(lit, pos), (t, lit, pos, hop)


def test_format_errors_name_position():
    rng = random.Random(3)
    doc = _doc(random_det_program(rng, 2, 1))
    doc["levels"][1]["t1"] = [0]
    with pytest.raises(ProgramFormatError, match=r"levels\[1\]"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("semantics, bad_t1, fault", [
    ("deterministic", (1, 9), "successors [9] outside 1..2"),
    ("deterministic", (0, 2), "successors [0] outside 1..2"),
    ("deterministic", (1,), "expected 2 successor entries"),
    ("nondeterministic", {(1, 1), (2, 3)}, "edges [(2, 3)] out of range"),
    ("nondeterministic", {(3, 1), (1, 0)},
     "edges [(1, 0), (3, 1)] out of range"),
])
def test_decoder_and_validate_report_transitions_alike(semantics, bad_t1,
                                                       fault):
    if semantics == "deterministic":
        first = det_level(1, (1, 2), (2, 1), 2)
        bad = det_level(2, (1, 2), bad_t1, 2)
    else:
        first = nondet_level(1, 2, 2, {(1, 1)}, {(1, 2), (2, 1)})
        bad = nondet_level(2, 2, 2, {(1, 1)}, bad_t1)
    p = Program(semantics=semantics, n=2, k=1,
                order=VariableOrder.identity(2), levels=(first, bad),
                initial=1, accept=frozenset({2}))
    assert validate(p).violations == (f"levels[1].t1: {fault}",)
    with pytest.raises(ProgramFormatError) as info:
        deserialize(serialize(p))
    assert str(info.value) == f"levels[1].t1: {fault}"


def test_structurally_equal_tells_a_tuple_or_list_from_an_ndarray():
    swap = np.eye(2)[::-1]
    arrays = _one_level("probabilistic", TransitionLevel(1, 2, 2, swap, swap))
    for other in ((2, 1), swap.tolist()):           # a tuple, a list
        for levels in (TransitionLevel(1, 2, 2, other, swap),
                       TransitionLevel(1, 2, 2, swap, other)):
            q = _one_level("probabilistic", levels)
            # both orders, and neither raises on list != ndarray
            assert arrays.structurally_equal(q) is False
            assert q.structurally_equal(arrays) is False
            assert q.structurally_equal(q)
    assert arrays.structurally_equal(arrays)


def _spelled_out(p: Program) -> Program:
    """An embedding of a det program with every successor tuple written
    out by hand, as TransitionLevel holds it: an edge set, or a one-hot
    float64 or complex128 matrix."""
    def spell(t, width_out):
        if p.semantics == "nondeterministic":
            return frozenset(enumerate(t, 1))
        return one_hot(t, width_out, np.complex128
                       if p.semantics == "quantum" else np.float64)

    return dataclasses.replace(p, levels=tuple(
        TransitionLevel(l.variable, l.width_in, l.width_out,
                        spell(l.t0, l.width_out), spell(l.t1, l.width_out))
        for l in p.levels))


@pytest.mark.parametrize("seed", range(4))
def test_an_embedding_writes_the_text_of_its_spelled_out_branches(seed):
    from kobdd import (build_mxpj_id_obdd, compile_to_nondet,
                       compile_to_prob, compile_to_quantum)
    rng = random.Random(seed)
    det = random_det_program(rng, 3, 2)
    reversible = (random_reversible_det_program(rng, 3, 2) if seed
                  else build_mxpj_id_obdd(1, 2))
    for q in (compile_to_nondet(det), compile_to_prob(det),
              compile_to_quantum(reversible)):
        spelled = _spelled_out(q)
        assert not any(isinstance(t, tuple) for l in spelled.levels
                       for t in (l.t0, l.t1))
        text = serialize(q)
        assert text == serialize(spelled) == _reference_text(q)
        read = deserialize(text)
        assert read.structurally_equal(q) and validate(read).ok


@pytest.mark.parametrize("semantics", ["nondeterministic", "probabilistic",
                                       "quantum"])
def test_validate_judges_a_tuple_as_its_spelled_out_branch(semantics):
    # a tuple takes the O(w) checks, its matrix or edge set the full ones;
    # both must find the same faults, the non-bijections under quantum too
    rng = random.Random(semantics)
    for _ in range(40):
        w = rng.randint(1, 4)
        levels = tuple(det_level(v, [rng.randint(1, w) for _ in range(w)],
                                 rng.sample(range(1, w + 1), w), w)
                       for v in (1, 2))
        p = Program(semantics=semantics, n=2, k=1,
                    order=VariableOrder.identity(2), levels=levels,
                    initial=1, accept=frozenset({1}),
                    epsilon=None if semantics == "nondeterministic" else 0.5)
        spelled = _spelled_out(p)
        assert validate(p).violations == validate(spelled).violations
        if semantics == "quantum" and any(
                len(set(l.t0)) < w for l in levels):
            assert not validate(p).ok


def test_nondet_round_trip_preserves_edges():
    rng = random.Random(11)
    p = random_nondet_program(rng, 3, 1)
    q = deserialize(serialize(p))
    for a, b in zip(p.levels, q.levels):
        assert a.t0 == b.t0 and a.t1 == b.t1


def _bad_entry_doc(semantics: str) -> dict:
    m = np.full((3, 3), 1 / 3)
    if semantics == "quantum":
        m = np.eye(3, dtype=complex)[[1, 2, 0]]
    return _doc(_one_level(semantics, matrix_level(1, m, m)))


def _both_layouts(doc: dict) -> tuple[str, str]:
    """doc in the writer's layout, which is read first, and in the
    indented layout, which takes json.loads."""
    return _layout(doc), _indented(doc)


@pytest.mark.parametrize("bad, message", [
    (0.5, "matrix entries must be decimal strings, found float"),
    (True, "matrix entries must be decimal strings, found bool"),
    (None, "matrix entries must be decimal strings, found NoneType"),
    ("nan", "non-finite value 'nan'"),
    ("inf", "non-finite value 'inf'"),
    ("1e999", "non-finite value '1e999'"),
    ("abc", "not a decimal number: 'abc'"),
])
@pytest.mark.parametrize("field", [None, "re", "im"])
def test_matrix_decoder_names_first_bad_entry(field, bad, message):
    doc = _bad_entry_doc("probabilistic" if field is None else "quantum")
    t1 = doc["levels"][0]["t1"]
    if field is None:
        t1[5], t1[7] = bad, "abc"
        where = "levels[0].t1[5]"
    else:
        t1[5][field], t1[7][field] = bad, "abc"
        if field == "re":       # re is read before im
            t1[5]["im"] = "abc"
        where = f"levels[0].t1[5].{field}"
    for text in _both_layouts(doc):
        with pytest.raises(ProgramFormatError) as info:
            deserialize(text)
        assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize("cell", [{"re": "0.0"},
                                  {"re": "0.0", "im": "0.0", "x": "0.0"},
                                  ["0.0", "0.0"]])
def test_complex_decoder_names_first_bad_cell(cell):
    doc = _bad_entry_doc("quantum")
    doc["levels"][0]["t1"][5] = cell
    for text in _both_layouts(doc):
        with pytest.raises(ProgramFormatError) as info:
            deserialize(text)
        assert str(info.value) == \
            "levels[0].t1[5]: complex entries need 're' and 'im'"


def test_load_program_holds_the_file_about_once(tmp_path):
    from kobdd import (build_mxpj_id_obdd, compile_to_quantum, load_program,
                       save_program)
    path = tmp_path / "q.json"
    p = compile_to_quantum(build_mxpj_id_obdd(2, 4))
    save_program(p, str(path))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        q = load_program(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.structurally_equal(p)
    # one copy of the file's bytes, not bytes and str at once
    assert peak < 1.5 * size, (peak, size)


@pytest.mark.parametrize("emb", ["prob", "quantum"])
def test_load_program_holds_no_copy_of_the_file(tmp_path, emb):
    from kobdd import (build_mxpj_id_obdd, compile_to_prob,
                       compile_to_quantum, load_program, save_program)
    path = tmp_path / "p.json"
    compile_to = {"prob": compile_to_prob, "quantum": compile_to_quantum}
    p = compile_to[emb](build_mxpj_id_obdd(2, 4))
    save_program(p, str(path))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        q = load_program(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.structurally_equal(p)
    # the file is mapped, and only its distinct bodies are copied out
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("emb, descriptor", [
    pytest.param("quantum", (2, 8), id="mxpj:2,8,quantum"),
    pytest.param("prob", (3, 4, 300), id="saf:3,4,300,prob")])
def test_the_writer_holds_little_beside_its_text(emb, descriptor):
    """A one-hot branch is written as the pieces of its rows, each distinct
    row one text, so serialize holds no branch's text beside the
    document: the mxpj:2,8,quantum text is 37.8 MB, a branch 98 KB."""
    from kobdd import (build_mxpj_id_obdd, build_saf_2k_obdd,
                       compile_to_prob, compile_to_quantum)
    p = (compile_to_quantum(build_mxpj_id_obdd(*descriptor)) if emb ==
         "quantum" else compile_to_prob(build_saf_2k_obdd(*descriptor)))
    tracemalloc.start()
    try:
        text = serialize(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - len(text) < 1.5e6, (peak, len(text))


def test_bytes_that_are_not_utf8_raise_a_format_error(tmp_path):
    from kobdd import build_mxpj_id_obdd, compile_to_prob, load_program
    text = serialize(compile_to_prob(build_mxpj_id_obdd(1, 2))).encode()
    body = text.index(b'"t0":[') + 6
    cases = {b"\xff\xfe": 0,                    # not in the layout
             text[:body] + b"\xff" + text[body:]: body}     # in a body
    path = tmp_path / "p.json"
    for data, at in cases.items():
        path.write_bytes(data)
        for read in (lambda: deserialize(data),
                     lambda: load_program(str(path))):
            with pytest.raises(ProgramFormatError) as info:
                read()
            assert str(info.value) == (f"'utf-8' codec can't decode byte "
                                       f"0xff in position {at}: invalid "
                                       f"start byte")


def test_load_program_lets_go_of_an_indented_files_bytes(tmp_path):
    """A file not in the writer's layout is copied out of its map and
    decoded to text; the bytes are not held through the whole-text parse."""
    from kobdd import build_mxpj_id_obdd, compile_to_quantum, load_program
    p = compile_to_quantum(build_mxpj_id_obdd(2, 4))
    text = _indented(json.loads(serialize(p))) + "\n"
    path = tmp_path / "old.json"
    path.write_text(text)
    peaks = []
    for read in (lambda: load_program(str(path)), lambda: deserialize(text)):
        tracemalloc.start()
        try:
            q = read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert q.structurally_equal(p)
    # the decoded text on top of what the parse of a str takes, and no more
    assert peaks[0] - peaks[1] < 1.5 * len(text), (peaks, len(text))


def test_a_wide_edge_set_with_one_edge_decodes_in_little_memory():
    """An edge set is counted before its successor tuple is made, so a
    10^7-wide level with one edge costs no 10^7-long tuple."""
    wide = 10 ** 7
    doc = {"format": "kobdd-program-v1", "semantics": "nondeterministic",
           "n": 1, "k": 1, "order": [1], "initial": 1, "accept": [1],
           "epsilon": None, "levels": [{"t0": [[1, 1]], "t1": [[1, 1]],
                                        "var": 1, "width_in": wide,
                                        "width_out": 1}]}
    layout, indented = _both_layouts(doc)
    reads = [lambda: _read_layout(layout), lambda: deserialize(indented)]
    reads.append(lambda: nondet_level(1, wide, 1, {(1, 1)}, {(1, 1)}))
    for read in reads:
        tracemalloc.start()
        try:
            got = read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lvl = got if isinstance(got, TransitionLevel) else got.levels[0]
        assert lvl.t0 == lvl.t1 == frozenset({(1, 1)})
        assert peak < 1 << 20, peak
