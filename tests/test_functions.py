"""Hard function families against hand values and independent references."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from conftest import mxpj_trace, saf_ref_eval, saf_reference
from kobdd import (Assignment, MXPJInstance, SAFLayout, adr_k, adr_w,
                   all_assignments_array, constant_function, decode_mxpj,
                   encode_mxpj, ind, mxpj_eval, mxpj_function,
                   parse_function, pj_eval, random_saf_positive, saf_eval,
                   saf_function, step_pair, truth_table_function, val,
                   xor_function)
from kobdd.program import SWEEP_CHUNK, sweep_rows


# ---------------------------------------------------------------------------
# layout arithmetic


def test_layout_numbers():
    lay = SAFLayout(n=57, k=2, w=2)
    assert (lay.blocks, lay.a, lay.b) == (8, 7, 4)
    assert (lay.addr_k_bits, lay.addr_w_bits) == (1, 2)
    assert lay.covered == 56
    assert lay.regime_ok  # 8 * 7 = 56 < 57

    lay = SAFLayout(n=200, k=2, w=4)
    assert (lay.blocks, lay.a, lay.b) == (16, 12, 8)
    assert lay.covered == 192 and lay.regime_ok

    lay = SAFLayout(n=300, k=3, w=4)
    assert (lay.blocks, lay.a, lay.b) == (24, 12, 7)
    assert lay.covered == 288
    assert not lay.regime_ok  # the address blocks need 312 > 300 bits


def test_layout_rejects_missing_value_bits():
    with pytest.raises(ValueError):
        SAFLayout(n=24, k=2, w=2)   # a = 3 leaves b = 0
    with pytest.raises(ValueError):
        SAFLayout(n=7, k=2, w=2)    # a = 0
    with pytest.raises(ValueError):
        SAFLayout(n=57, k=0, w=2)


# ---------------------------------------------------------------------------
# address and value decoding, frozen by hand for (k=2, w=2, n=57)
#
# Blocks are 7 bits: 1 step-address bit, 2 slot-address bits (LSB first),
# 4 value bits summed modulo 2.


def _witness_bits():
    blocks = [
        (0, 0, 0, 0, 0, 0, 0),   # step 0, slot 0, value 0
        (0, 0, 1, 0, 0, 0, 0),   # step 0, slot 2, value 0
        (1, 0, 0, 0, 0, 0, 0),   # step 1, slot 0, value 0
        (1, 0, 1, 1, 0, 0, 0),   # step 1, slot 2, value 1
    ] + [(0,) * 7] * 4
    bits = tuple(itertools.chain.from_iterable(blocks)) + (0,)
    assert len(bits) == 57
    return bits


def test_address_and_value_hand_decoding():
    lay = SAFLayout(n=57, k=2, w=2)
    x = Assignment(_witness_bits())
    assert adr_k(x, lay, 3) == 1
    assert adr_w(x, lay, 3) == 2
    assert adr_k(x, lay, 0) == 0
    assert adr_w(x, lay, 0) == 0
    assert ind(x, lay, 2, 1) == 3
    assert val(x, lay, 2, 1) == 1
    assert ind(x, lay, 0, 0) == 0      # minimal matching block wins
    assert ind(x, lay, 1, 1) == -1     # nobody carries that address
    assert val(x, lay, 1, 1) == -1


def test_step_chain_and_acceptance_by_hand():
    lay = SAFLayout(n=57, k=2, w=2)
    x = Assignment(_witness_bits())
    assert step_pair(x, lay, -1) == (0, 0)
    assert step_pair(x, lay, 0) == (2, 0)
    assert step_pair(x, lay, 1) == (2, 1)
    assert saf_eval(x, lay) == 1


def test_broken_chain_absorbs():
    lay = SAFLayout(n=57, k=2, w=2)
    # only slot (0,0) resolvable: the second lookup of step 0 dies
    bits = [0] * 57
    x = Assignment(tuple(bits))
    assert step_pair(x, lay, 0) == (2, -1)
    assert step_pair(x, lay, 1) == (-1, -1)
    assert saf_eval(x, lay) == 0


def test_address_wraparound():
    # k = 3 uses 2 step bits; raw value 3 wraps to step 0
    lay = SAFLayout(n=60, k=3, w=2)
    assert (lay.addr_k_bits, lay.addr_w_bits, lay.a, lay.b) == (2, 2, 5, 1)
    bits = [0] * 60
    bits[0:2] = [1, 1]          # raw step index 3
    x = Assignment(tuple(bits))
    assert adr_k(x, lay, 0) == 0


@pytest.mark.parametrize("k,w,n", [(2, 2, 57), (1, 2, 12), (2, 4, 200),
                                   (3, 4, 300), (2, 3, 60)])
def test_saf_eval_matches_reference(k, w, n):
    lay = SAFLayout(n=n, k=k, w=w)
    rng = random.Random(1000 * k + 10 * w + n)
    for _ in range(150):
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        x = Assignment(bits)
        assert saf_eval(x, lay) == saf_ref_eval(bits, k, w)
        ref_pairs = saf_reference(bits, k, w)
        for t in range(-1, k):
            assert step_pair(x, lay, t) == ref_pairs[t + 1]


@pytest.mark.parametrize("k,w,n", [(2, 2, 57), (2, 4, 200), (3, 4, 300),
                                   (2, 3, 60)])
def test_random_positive_witnesses_accepted(k, w, n):
    lay = SAFLayout(n=n, k=k, w=w)
    rng = random.Random(n + k)
    for _ in range(40):
        x = random_saf_positive(lay, rng)
        assert saf_eval(x, lay) == 1
        assert saf_ref_eval(x.bits, k, w) == 1


def test_positive_witness_needs_nontrivial_values():
    lay = SAFLayout(n=40, k=2, w=1)   # values are always 0 mod 1
    with pytest.raises(ValueError):
        random_saf_positive(lay, random.Random(0))


def test_padding_bits_are_dont_cares():
    lay = SAFLayout(n=57, k=2, w=2)
    rng = random.Random(4)
    for _ in range(30):
        bits = [rng.randint(0, 1) for _ in range(57)]
        flipped = list(bits)
        flipped[56] ^= 1
        assert saf_eval(Assignment(tuple(bits)), lay) == \
            saf_eval(Assignment(tuple(flipped)), lay)


# ---------------------------------------------------------------------------
# pointer jumping with xor


def test_mxpj_hand_traces():
    one = MXPJInstance(k=1, d=2, f_a=((1, 0),), f_b=((0, 1),))
    assert mxpj_eval(one) == 1
    two = MXPJInstance(k=1, d=2, f_a=((0, 1),), f_b=((1, 0),))
    assert mxpj_eval(two) == 1
    zero = MXPJInstance(k=1, d=2, f_a=((0, 0),), f_b=((0, 0),))
    assert mxpj_eval(zero) == 0


def test_pj_eval_walks_and_cycles():
    inst = MXPJInstance(k=1, d=2, f_a=((1, 0),), f_b=((0, 1),))
    assert pj_eval(inst, 0) == 0
    assert pj_eval(inst, 2) == 1
    assert pj_eval(inst, 4) == 0   # tables repeat past the last pair


def test_instance_validation():
    with pytest.raises(ValueError):
        MXPJInstance(k=1, d=3, f_a=((0, 1, 2),), f_b=((0, 1, 2),))
    with pytest.raises(ValueError):
        MXPJInstance(k=1, d=2, f_a=((2, 0),), f_b=((0, 1),))
    with pytest.raises(ValueError):
        MXPJInstance(k=2, d=2, f_a=((0, 1),), f_b=((0, 1),))


def test_encoding_round_trip():
    inst = MXPJInstance(k=1, d=2, f_a=((1, 0),), f_b=((0, 1),))
    assert encode_mxpj(inst).bits == (1, 0, 0, 1)
    assert decode_mxpj(Assignment((1, 0, 0, 1)), 1, 2) == inst

    rng = random.Random(9)
    for _ in range(50):
        k = rng.randint(1, 3)
        d = rng.choice((2, 4, 8))
        tables = lambda: tuple(tuple(rng.randrange(d) for _ in range(d))
                               for _ in range(k))
        inst = MXPJInstance(k=k, d=d, f_a=tables(), f_b=tables())
        assert decode_mxpj(encode_mxpj(inst), k, d) == inst

    for m in range(16):
        x = Assignment.from_int(m, 4)
        assert encode_mxpj(decode_mxpj(x, 1, 2)) == x


def test_mxpj_eval_matches_trace_exhaustively():
    for k, d in [(1, 2), (2, 2)]:
        f = mxpj_function(k, d)
        for m in range(1 << f.n):
            x = Assignment.from_int(m, f.n)
            assert f(x) == mxpj_trace(decode_mxpj(x, k, d))


def test_mxpj_eval_matches_trace_sampled():
    rng = random.Random(31)
    f = mxpj_function(1, 4)
    for _ in range(400):
        m = rng.randrange(1 << f.n)
        x = Assignment.from_int(m, f.n)
        assert f(x) == mxpj_trace(decode_mxpj(x, 1, 4))


# ---------------------------------------------------------------------------
# oracle wrappers


def test_function_oracle_checks_arity():
    f = xor_function(3)
    assert f(Assignment((1, 1, 0))) == 0
    with pytest.raises(ValueError):
        f(Assignment((1, 1)))


def test_parse_function_descriptors():
    assert parse_function("xor:3").n == 3
    assert parse_function("and:2")(Assignment((1, 1))) == 1
    assert parse_function("saf:2,2,57").n == 57
    assert parse_function("mxpj:1,2").n == 4
    for bad in ("mxpj:1", "saf:2,2", "xor:a", "nope:3", "xor"):
        with pytest.raises(ValueError):
            parse_function(bad)


def test_truth_table_function():
    f = truth_table_function("maj", [0, 0, 0, 1, 0, 1, 1, 1])
    assert f.n == 3
    assert f(Assignment((1, 1, 0))) == 1
    assert f(Assignment((0, 0, 1))) == 0
    with pytest.raises(ValueError):
        truth_table_function("bad", [0, 1, 1])


def test_mxpj_function_checks_parameters_when_built():
    with pytest.raises(ValueError, match="d = 3 is not a power of two"):
        mxpj_function(1, 3)
    with pytest.raises(ValueError, match="k must be positive"):
        mxpj_function(0, 4)


# ---------------------------------------------------------------------------
# batch evaluators behind sweep_rows, against the scalar oracles


def _scalar(f, xs) -> list[int]:
    return [f(Assignment(tuple(row))) for row in xs.tolist()]


def _random_table(n: int, seed: int):
    rng = random.Random(seed)
    return truth_table_function(f"random{n}",
                                [rng.randint(0, 1) for _ in range(1 << n)])


BATCH_FAMILIES = ["saf:3,4,300", "saf:2,2,57", "saf:2,3,200", "saf:1,1,5",
                  "saf:2,64,4000", "saf:2,128,5632", "saf:256,1,5120",
                  "saf:1,200,4000", "mxpj:1,2", "mxpj:1,4", "mxpj:2,8",
                  "mxpj:3,2", "mxpj:1,16", "xor:9", "and:3", "const0:6",
                  "const1:6", "table:10"]


def _oracle(descriptor: str):
    if descriptor.startswith("const"):
        value, n = descriptor[5:].split(":")
        return constant_function(int(n), int(value))
    if descriptor.startswith("table:"):
        return _random_table(int(descriptor[6:]), seed=17)
    return parse_function(descriptor)


@pytest.mark.parametrize("descriptor", BATCH_FAMILIES)
def test_batch_matches_scalar_on_random_rows(descriptor):
    f = _oracle(descriptor)
    assert f.batch is not None
    rows = 300 if f.n > 1000 else 1500
    xs = np.random.default_rng(len(descriptor) + f.n).integers(
        0, 2, size=(rows, f.n), dtype=np.uint8)
    got = sweep_rows(f, xs)
    assert got.dtype == np.uint8 and got.shape == (rows,)
    assert got.tolist() == _scalar(f, xs)


@pytest.mark.parametrize("k,w,n", [(3, 4, 300), (2, 2, 57), (2, 3, 200),
                                   (2, 4, 200), (1, 2, 12), (3, 2, 60)])
def test_saf_batch_on_positive_witnesses_and_near_misses(k, w, n):
    # witnesses walk all k rounds to acceptance; a flipped bit breaks or
    # reroutes that walk at some step
    lay = SAFLayout(n=n, k=k, w=w)
    f = saf_function(k, w, n)
    rng = random.Random(7 * n + k)
    witnesses = [random_saf_positive(lay, rng).bits for _ in range(200)]
    xs = np.array(witnesses, dtype=np.uint8)
    assert sweep_rows(f, xs).tolist() == [1] * len(witnesses)
    near = xs.copy()
    near[np.arange(len(near)), [rng.randrange(lay.covered)
                                for _ in witnesses]] ^= 1
    got = sweep_rows(f, near)
    assert got.tolist() == _scalar(f, near)
    assert 0 < got.sum() < len(got)


@pytest.mark.parametrize("k,d", [(1, 2), (1, 4), (2, 8), (3, 4), (2, 16),
                                 (1, 32)])
def test_mxpj_batch_on_encoded_instances(k, d):
    rng = random.Random(100 * k + d)
    instances = []
    for _ in range(300):
        tables = lambda: tuple(tuple(rng.randrange(d) for _ in range(d))
                               for _ in range(k))
        instances.append(MXPJInstance(k=k, d=d, f_a=tables(), f_b=tables()))
    xs = np.array([encode_mxpj(inst).bits for inst in instances], np.uint8)
    got = sweep_rows(mxpj_function(k, d), xs)
    assert got.tolist() == [mxpj_eval(inst) for inst in instances]


@pytest.mark.parametrize("descriptor", ["saf:2,2,57", "mxpj:1,4", "xor:5",
                                        "table:6"])
def test_batch_row_layouts_and_sizes(descriptor):
    f = _oracle(descriptor)
    wide = np.random.default_rng(5).integers(0, 2, size=(64, 2 * f.n),
                                             dtype=np.uint8)
    xs = np.ascontiguousarray(wide[:, ::2])
    want = _scalar(f, xs)
    for rows in (xs.astype(bool), xs, xs.astype(np.int64), wide[:, ::2],
                 np.asfortranarray(xs)):
        assert sweep_rows(f, rows).tolist() == want
    assert sweep_rows(f, xs[:1]).tolist() == want[:1]
    empty = sweep_rows(f, xs[:0])
    assert empty.dtype == np.uint8 and empty.shape == (0,)


def test_batch_sweeps_across_chunk_boundaries():
    f = _random_table(15, seed=23)
    xs = all_assignments_array(15)
    assert len(xs) > SWEEP_CHUNK
    assert sweep_rows(f, xs).tolist() == [
        f(Assignment.from_int(i, 15)) for i in range(1 << 15)]


@pytest.mark.parametrize("descriptor", ["saf:2,2,57", "mxpj:1,4", "xor:5",
                                        "and:4", "const1:6", "table:6"])
def test_batch_errors_match_the_scalar_path(descriptor):
    f = _oracle(descriptor)
    scalar_only = dataclasses.replace(f, batch=None)

    def message(rows):
        with pytest.raises(ValueError) as batch_error:
            sweep_rows(f, rows)
        with pytest.raises(ValueError) as scalar_error:
            sweep_rows(scalar_only, rows)
        assert str(batch_error.value) == str(scalar_error.value)
        return str(batch_error.value)

    zeros = np.zeros((3, f.n + 1), np.uint8)
    assert message(zeros) == f"input length {f.n + 1} != n = {f.n}"
    assert message(zeros[:, :f.n - 1]) == (f"input length {f.n - 1} "
                                           f"!= n = {f.n}")
    for bad in (2, -1):
        rows = np.zeros((3, f.n), np.int64)
        rows[0, -1] = bad
        assert message(rows) == "assignment bits must be 0 or 1"
