"""Data model, validation and the JSON document format."""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_det_program, random_nondet_program,
                      random_prob_program, random_program,
                      random_quantum_program)
from kobdd import (Assignment, Program, ProgramFormatError, VariableOrder,
                   all_assignments_array, deserialize, det_level,
                   matrix_level, nondet_level, serialize, validate, width)
from kobdd.program import sweep_rows


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
    q = deserialize(serialize(p))
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
    def encode(t):
        if p.semantics == "deterministic":
            return list(t)
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
                       "t0": encode(l.t0), "t1": encode(l.t1)}
                      for l in p.levels]}
    return json.dumps(doc, indent=1, sort_keys=True)


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
    return cases


_ENCODER_CASES = _encoder_cases()


@pytest.mark.parametrize("name", sorted(_ENCODER_CASES))
def test_serialize_matches_json_dumps(name):
    p = _ENCODER_CASES[name]
    assert serialize(p) == _reference_text(p)


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
        with pytest.raises(ProgramFormatError):
            deserialize(json.dumps(doc))
    with pytest.raises(ProgramFormatError):
        deserialize("{ not json")
    with pytest.raises(ProgramFormatError, match="invalid JSON"):
        deserialize("[" * 200000 + "]" * 200000)     # deeper than the stack


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
        where = f"levels[0].t1[5].{field}"
    with pytest.raises(ProgramFormatError) as info:
        deserialize(json.dumps(doc))
    assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize("cell", [{"re": "0.0"},
                                  {"re": "0.0", "im": "0.0", "x": "0.0"},
                                  ["0.0", "0.0"]])
def test_complex_decoder_names_first_bad_cell(cell):
    doc = _bad_entry_doc("quantum")
    doc["levels"][0]["t1"][5] = cell
    with pytest.raises(ProgramFormatError) as info:
        deserialize(json.dumps(doc))
    assert str(info.value) == \
        "levels[0].t1[5]: complex entries need 're' and 'im'"
