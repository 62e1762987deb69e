"""Program builders and the three embedding compilers."""

import dataclasses
import json
import random

import numpy as np
import pytest

import kobdd.semantics as kernel
from conftest import det_by_hand, one_hot, random_unitary
from kobdd import (Assignment, NonReversibleError, SAFLayout,
                   all_assignments_array, build_mxpj_id_obdd,
                   build_saf_2k_obdd, compile_to_nondet, compile_to_prob,
                   compile_to_quantum, deserialize, det_level, eval_det,
                   eval_det_batch, eval_nondet_batch, accept_prob_batch,
                   mxpj_function, random_saf_positive, saf_function,
                   serialize, validate, width, Program, VariableOrder)
from kobdd.program import TransitionLevel, _read_layout, matrix_level


# ---------------------------------------------------------------------------
# pointer-jumping builder


@pytest.mark.parametrize("k,d", [(1, 2), (2, 2), (3, 2), (1, 4)])
def test_mxpj_builder_shape(k, d):
    p = build_mxpj_id_obdd(k, d)
    f = mxpj_function(k, d)
    assert p.n == f.n
    assert p.k == k
    assert width(p) == d * d
    assert p.order.perm == tuple(range(1, p.n + 1))
    assert validate(p).ok


@pytest.mark.parametrize("k,d", [(1, 2), (2, 2)])
def test_mxpj_builder_exhaustive(k, d):
    p = build_mxpj_id_obdd(k, d)
    f = mxpj_function(k, d)
    xs = all_assignments_array(p.n)
    got = eval_det_batch(p, xs)
    for m in range(1 << p.n):
        assert int(got[m]) == f(Assignment.from_int(m, p.n))


def test_mxpj_builder_sampled_d4():
    p = build_mxpj_id_obdd(1, 4)
    f = mxpj_function(1, 4)
    rng = random.Random(2)
    for _ in range(300):
        m = rng.randrange(1 << p.n)
        x = Assignment.from_int(m, p.n)
        assert eval_det(p, x) == f(x) == det_by_hand(p, x)


def test_mxpj_levels_are_bijections():
    for k, d in [(1, 2), (2, 2), (1, 4), (2, 4)]:
        p = build_mxpj_id_obdd(k, d)
        for level in p.levels:
            assert sorted(level.t0) == list(range(1, d * d + 1))
            assert sorted(level.t1) == list(range(1, d * d + 1))


@pytest.mark.parametrize("k,d", [(1, 2), (2, 4), (2, 8), (3, 4)])
def test_mxpj_builder_holds_one_object_per_distinct_transition(k, d):
    # serialize, validate and the kernel memoize by object: a map that
    # every layer rebuilds would be rendered and checked once per layer
    p = build_mxpj_id_obdd(k, d)
    maps = [t for level in p.levels for t in (level.t0, level.t1)]
    assert len({id(t) for t in maps}) == len(set(maps)) == 1 + 2 * d * (
        (d - 1).bit_length())


def test_mxpj_builder_rejects_bad_params():
    with pytest.raises(ValueError):
        build_mxpj_id_obdd(1, 3)
    with pytest.raises(ValueError):
        build_mxpj_id_obdd(1, 1)
    with pytest.raises(ValueError):
        build_mxpj_id_obdd(0, 2)


# ---------------------------------------------------------------------------
# shuffled-addressing builder


@pytest.mark.parametrize("k,w,n", [(2, 2, 57), (2, 4, 200), (3, 4, 300),
                                   (1, 2, 12), (2, 2, 40), (4, 2, 80)])
def test_saf_builder_shape_and_agreement(k, w, n):
    p = build_saf_2k_obdd(k, w, n)
    assert p.k == 2 * k
    assert width(p) <= 3 * w + 1
    assert validate(p).ok
    f = saf_function(k, w, n)
    rng = random.Random(n)
    for _ in range(120):
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        x = Assignment(bits)
        assert eval_det(p, x) == f(x)
    lay = SAFLayout(n=n, k=k, w=w)
    if w > 1:
        for _ in range(10):
            x = random_saf_positive(lay, rng)
            assert eval_det(p, x) == 1


def test_saf_builder_small_exhaustive():
    # n = 12, k = 1, w = 2: 4096 inputs, checked completely
    p = build_saf_2k_obdd(1, 2, 12)
    f = saf_function(1, 2, 12)
    xs = all_assignments_array(12)
    got = eval_det_batch(p, xs)
    for m in range(4096):
        assert int(got[m]) == f(Assignment.from_int(m, 12))


def test_saf_builder_rejects_impossible_layout():
    with pytest.raises(ValueError):
        build_saf_2k_obdd(2, 2, 24)   # no value bits


def test_saf_degenerate_w1_rejects_everything():
    p = build_saf_2k_obdd(2, 1, 40)
    rng = random.Random(8)
    for _ in range(200):
        bits = tuple(rng.randint(0, 1) for _ in range(40))
        assert eval_det(p, Assignment(bits)) == 0


def test_saf_width_claim_over_a_grid():
    # the docstring's bounds at the smallest n each (k, w) admits
    widths = {}
    rng = random.Random(26)
    for k in range(1, 7):
        for w in range(1, 7):
            address_bits = (k - 1).bit_length() + (2 * w - 1).bit_length()
            n = 2 * k * w * (address_bits + 1)
            p = build_saf_2k_obdd(k, w, n)
            assert validate(p).ok, (k, w)
            widths[k, w] = width(p)
            assert widths[k, w] <= 4 * w + 1, (k, w)
            if ((k <= 4 or k & (k - 1) == 0)
                    and (w <= 2 or w & (w - 1) == 0)):
                assert widths[k, w] <= 3 * w + 1, (k, w)
            if w >= 2:
                lay = SAFLayout(n=n, k=k, w=w)
                for _ in range(5):
                    x = random_saf_positive(lay, rng)
                    assert eval_det(p, x) == 1, (k, w)
    assert widths[5, 2] == 4 * 2 + 1


# ---------------------------------------------------------------------------
# compilers


def _all_inputs_probe(p, q):
    xs = all_assignments_array(p.n)
    base = eval_det_batch(p, xs).astype(float)
    if q.semantics == "nondeterministic":
        assert np.array_equal(eval_nondet_batch(q, xs).astype(float), base)
    else:
        assert np.abs(accept_prob_batch(q, xs) - base).max() <= 1e-9


@pytest.mark.parametrize("k,d", [(1, 2), (2, 2)])
def test_compile_quantum_exact(k, d):
    p = build_mxpj_id_obdd(k, d)
    q = compile_to_quantum(p)
    assert q.semantics == "quantum"
    assert q.epsilon == 0.5
    assert validate(q).ok
    assert width(q) == width(p)
    _all_inputs_probe(p, q)
    probs = accept_prob_batch(q, all_assignments_array(p.n))
    assert np.all((np.abs(probs) <= 1e-9) | (np.abs(probs - 1) <= 1e-9))


def test_compile_quantum_matrices_are_permutations():
    q = compile_to_quantum(build_mxpj_id_obdd(1, 2))
    for level in q.levels:
        for t in (level.t0, level.t1):
            assert sorted(t) == [1, 2, 3, 4]        # a permutation tuple
            m = kernel._dense("quantum", t, 4, 4)   # and its dense operator
            assert m.dtype == np.complex128
            assert np.array_equal(np.abs(m).sum(axis=0), np.ones(4))
            assert np.array_equal(np.abs(m).sum(axis=1), np.ones(4))


def test_compile_quantum_rejects_nonbijective():
    lvl0 = det_level(1, (1, 1), (2, 1), 2)   # merges nodes on the 0-branch
    lvl1 = det_level(2, (1, 2), (2, 1), 2)
    p = Program(semantics="deterministic", n=2, k=1,
                order=VariableOrder.identity(2), levels=(lvl0, lvl1),
                initial=1, accept=frozenset({2}))
    with pytest.raises(NonReversibleError, match="level 1"):
        compile_to_quantum(p)


def test_compile_quantum_rejects_varying_width():
    p = build_saf_2k_obdd(2, 2, 57)
    with pytest.raises(NonReversibleError, match="width"):
        compile_to_quantum(p)


def test_compile_quantum_rejects_nondet_input():
    q = compile_to_nondet(build_mxpj_id_obdd(1, 2))
    with pytest.raises(ValueError):
        compile_to_quantum(q)


@pytest.mark.parametrize("k,d", [(1, 2), (2, 2)])
def test_compile_nondet_and_prob(k, d):
    p = build_mxpj_id_obdd(k, d)
    for compiled, semantics in ((compile_to_nondet(p), "nondeterministic"),
                                (compile_to_prob(p), "probabilistic")):
        assert compiled.semantics == semantics
        assert validate(compiled).ok
        assert width(compiled) == width(p)
        _all_inputs_probe(p, compiled)
    assert compile_to_prob(p).epsilon == 0.5


def test_compilers_handle_varying_width():
    # non-reversible, non-constant-width programs still embed classically
    p = build_saf_2k_obdd(1, 2, 12)
    for compiled in (compile_to_nondet(p), compile_to_prob(p)):
        assert validate(compiled).ok
        _all_inputs_probe(p, compiled)


def test_builders_refuse_programs_over_the_node_budget():
    # 2*1*32*5 = 320 levels of 1024 nodes fit; mxpj:1,128 does not
    assert build_mxpj_id_obdd(1, 32).n == 320
    with pytest.raises(ValueError, match="1792 levels of up to 16384 "
                                         "nodes exceed the build budget"):
        build_mxpj_id_obdd(1, 128)
    with pytest.raises(ValueError, match="2000000 levels of up to 9 "
                                         "nodes exceed the build budget"):
        build_saf_2k_obdd(1, 2, 1000000)


_COMPILERS = [compile_to_nondet, compile_to_prob, compile_to_quantum]


@pytest.mark.parametrize("compile_", _COMPILERS)
def test_compilers_relabel_the_deterministic_levels(compile_):
    det = build_mxpj_id_obdd(2, 4)
    q = compile_(det)
    assert q.levels is det.levels
    assert all(a.t0 is b.t0 and a.t1 is b.t1
               for a, b in zip(q.levels, det.levels))
    assert (q.n, q.k, q.order, q.initial, q.accept) == \
        (det.n, det.k, det.order, det.initial, det.accept)


@pytest.mark.parametrize("compile_", [compile_to_prob, compile_to_quantum])
def test_equal_transitions_share_one_frozen_matrix(compile_):
    # a 0/1 function matrix is held as a tuple, frozen by its type: the
    # compiler shares the det program's, the read one per distinct body
    det = build_mxpj_id_obdd(2, 4)
    distinct = {t for l in det.levels for t in (l.t0, l.t1)}
    q = compile_(det)
    read = deserialize(serialize(q))
    tuples = {id(t): t for l in read.levels for t in (l.t0, l.t1)}
    assert len(tuples) == len(distinct) < 2 * len(read.levels)
    assert all(type(t) is tuple for t in tuples.values())
    assert read.structurally_equal(q)
    assert serialize(read) == serialize(compile_(det))
    # the frozen matrix is now the dense path's: each tuple mixed into a
    # matrix that is no 0/1 function, one per distinct map, read both ways
    nprng = np.random.Generator(np.random.PCG64(17))
    w = q.levels[0].width_in
    if q.semantics == "quantum":
        mix = random_unitary(nprng, w)
    else:
        mix = nprng.random((w, w)) + 1e-3
        mix /= mix.sum(axis=0, keepdims=True)
    mats = {}
    for t in distinct:
        mats[t] = one_hot(t, w, mix.dtype) @ mix
        mats[t].setflags(write=False)
    dense = dataclasses.replace(q, levels=tuple(
        matrix_level(l.variable, mats[l.t0], mats[l.t1]) for l in q.levels))
    text = serialize(dense)
    layout, whole = _read_layout(text), deserialize(json.dumps(json.loads(text)))
    assert layout is not None and validate(dense).ok
    for r in (dense, layout, whole):
        got = [t for l in r.levels for t in (l.t0, l.t1)]
        assert all(type(m) is np.ndarray and not m.flags.writeable
                   and m.flags.owndata for m in got)
        assert r.structurally_equal(dense) and dense.structurally_equal(r)
        # the layout read decodes each distinct body once and shares it;
        # the json.loads read decodes every branch on its own
        shared = len(distinct) if r is not whole else len(got)
        assert len({id(m) for m in got}) == shared


def test_nondet_compiler_shares_one_edge_set_per_successor_map():
    det = build_mxpj_id_obdd(2, 4)
    distinct = {t for l in det.levels for t in (l.t0, l.t1)}
    read = deserialize(serialize(compile_to_nondet(det)))
    sets = {id(t): t for l in read.levels for t in (l.t0, l.t1)}
    assert len(sets) == len(distinct) < 2 * len(read.levels)
    for l, m in zip(det.levels, read.levels):
        assert m.t0 == l.t0 and m.t1 == l.t1
    # (1.0, 2) == (1, 2): the float is kept, and written as its edge was
    p = Program(semantics="deterministic", n=1, k=1,
                order=VariableOrder.identity(1),
                levels=(det_level(1, (1, 2), (1.0, 2), 2),),
                initial=1, accept=frozenset({1}))
    q = compile_to_nondet(p)
    level = q.levels[0]
    assert level.t0 is not level.t1
    assert sorted(type(s).__name__ for s in level.t1) == ["float", "int"]
    edges = TransitionLevel(1, 2, 2, frozenset(enumerate(level.t0, 1)),
                            frozenset(enumerate(level.t1, 1)))
    assert serialize(q) == serialize(dataclasses.replace(q, levels=(edges,)))


def test_compilers_key_successors_on_their_types():
    # (1.0, 2) == (1, 2), but a float successor indexes no node: every
    # embedding keeps it, and validate rejects it as det's does
    p = Program(semantics="deterministic", n=1, k=1,
                order=VariableOrder.identity(1),
                levels=(det_level(1, (1, 2), (1.0, 2), 2),),
                initial=1, accept=frozenset({1}))
    for compile_ in [lambda p: p] + _COMPILERS:
        assert validate(compile_(p)).violations == (
            "levels[0].t1: successors [1.0] outside 1..2",)
