"""Subfunction counting, model bounds and the inequality chains."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_subfunction_count
from kobdd import (Constants, FunctionOracle, VariableOrder,
                   and_function, bound_log2, check_chain, constant_function,
                   count_subfunctions_at_cut, default_grid,
                   empirical_bound_check, lower_log2, mxpj_function, n_min,
                   n_min_by_enumeration, n_theta, optimal_order,
                   subfunction_profile, truth_table_function,
                   truth_table_of, xor_function)
from kobdd import analysis
from kobdd.analysis import _lattice_counts


def _random_function(rng: random.Random, n: int):
    values = [rng.randint(0, 1) for _ in range(1 << n)]
    return truth_table_function(f"rnd{n}", values)


# ---------------------------------------------------------------------------
# counting


def test_counts_on_known_functions():
    assert count_subfunctions_at_cut(xor_function(3), {1}) == 2
    assert count_subfunctions_at_cut(and_function(3), {1, 2}) == 2
    assert count_subfunctions_at_cut(constant_function(4, 1), {2, 3}) == 1


def test_count_guards():
    f = xor_function(3)
    with pytest.raises(ValueError):
        count_subfunctions_at_cut(f, set())
    with pytest.raises(ValueError):
        count_subfunctions_at_cut(f, {1, 2, 3})
    with pytest.raises(ValueError):
        count_subfunctions_at_cut(f, {0, 1})


def test_count_matches_naive_oracle_everywhere():
    rng = random.Random(41)
    for _ in range(6):
        f = _random_function(rng, 4)
        for mask in range(1, 15):
            subset = {j + 1 for j in range(4) if (mask >> j) & 1}
            if len(subset) == 4:
                continue
            assert count_subfunctions_at_cut(f, subset) == \
                naive_subfunction_count(f, subset)


def test_count_matches_naive_oracle_at_n7():
    # uneven cuts move the prefix axes of the 2^7 cube across each other
    rng = random.Random(47)
    for _ in range(3):
        f = _random_function(rng, 7)
        for mask in range(1, (1 << 7) - 1):
            subset = {j + 1 for j in range(7) if (mask >> j) & 1}
            assert count_subfunctions_at_cut(f, subset) == \
                naive_subfunction_count(f, subset), sorted(subset)


def test_count_ignores_listing_order():
    f = _random_function(random.Random(43), 5)
    assert count_subfunctions_at_cut(f, [2, 4, 1]) == \
        count_subfunctions_at_cut(f, [1, 2, 4]) == \
        count_subfunctions_at_cut(f, (4, 2, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 16) - 1),
       st.integers(min_value=1, max_value=14))
def test_count_range_invariant(table, mask):
    f = truth_table_function("h", [(table >> i) & 1 for i in range(16)])
    subset = {j + 1 for j in range(4) if (mask >> j) & 1}
    u = len(subset)
    c = count_subfunctions_at_cut(f, subset)
    assert 1 <= c <= min(2 ** (2 ** (4 - u)), 2 ** u)
    assert c == naive_subfunction_count(f, subset)


def test_truth_table_guard():
    with pytest.raises(ValueError):
        truth_table_of(xor_function(17))
    with pytest.raises(ValueError, match="^n = 17 exceeds the 2\\^n "
                                         "materialization guard of 16$"):
        optimal_order(xor_function(17))
    with pytest.raises(ValueError, match="^lattice method needs 3 <= n "
                                         "<= 16, got n = 2$"):
        optimal_order(xor_function(2))


def test_n_theta_known_values():
    for n in (3, 4, 5):
        assert n_theta(xor_function(n), VariableOrder.identity(n)) == 2
        assert n_theta(and_function(n), VariableOrder.identity(n)) == 2
    f = mxpj_function(1, 2)
    naive = max(naive_subfunction_count(f, set(range(1, u + 1)))
                for u in (2, 3))
    assert n_theta(f, VariableOrder.identity(4)) == naive
    with pytest.raises(ValueError):
        n_theta(xor_function(2), VariableOrder.identity(2))


def test_profile_rows():
    f = xor_function(5)
    prof = subfunction_profile(f, VariableOrder.identity(5))
    assert list(prof.cuts) == [2, 3, 4]
    assert prof.counts == (2, 2, 2)
    assert prof.max_count == 2
    for perm in ((1, 2, 3, 4), (1, 2, 3, 4, 5, 6)):
        with pytest.raises(ValueError):
            subfunction_profile(f, VariableOrder(perm))


def test_n_min_known_values():
    for n in range(3, 9):
        assert n_min(xor_function(n)) == 2
    assert n_min(constant_function(4, 0)) == 1
    with pytest.raises(ValueError):
        n_min(xor_function(2))


def test_n_min_equals_enumeration():
    rng = random.Random(47)
    for _ in range(20):
        f = _random_function(rng, 5)
        assert n_min(f) == n_min_by_enumeration(f)
    for n in (3, 4, 5, 6):
        assert n_min(xor_function(n)) == n_min_by_enumeration(xor_function(n))
        assert n_min(and_function(n)) == n_min_by_enumeration(and_function(n))


def test_n_min_lower_bounds_every_order():
    rng = random.Random(53)
    for _ in range(2):
        f = _random_function(rng, 5)
        floor = n_min(f)
        for _ in range(50):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            assert floor <= n_theta(f, VariableOrder(tuple(perm)))


def test_optimal_order_achieves_minimum():
    rng = random.Random(59)
    for _ in range(5):
        f = _random_function(rng, 5)
        value, order = optimal_order(f)
        assert type(value) is int and value == n_min(f)
        assert n_theta(f, order) == value


def test_min_order_and_profile_sweep_the_oracle_once():
    # subfn --order min: the lattice and the profile share one truth table
    calls = []
    xor = xor_function(8)
    f = FunctionOracle("counted", 8, lambda x: calls.append(1) or xor(x))
    value, order = optimal_order(f)
    profile = subfunction_profile(f, order)
    assert len(calls) == 1 << 8
    assert profile.max_count == value == 2
    assert not truth_table_of(f).flags.writeable


def _n8_functions():
    rng, sparse = random.Random(61), random.Random(67)
    return [_random_function(rng, 8),
            truth_table_function("sparse8", [int(sparse.random() < 0.02)
                                             for _ in range(1 << 8)]),
            constant_function(8, 1), xor_function(8), and_function(8),
            # a single variable: every restriction is constant
            truth_table_function("x3", [(i >> 2) & 1 for i in range(1 << 8)]),
            _mixed_function()]


def _mixed_function():
    """Random where x8 = 0 and AND-like where x8 = 1: the lattice ranks
    its rows in all three ways (see test_lattice_ranks_mixed_rows)."""
    rng = random.Random(83)
    low = [rng.randint(0, 1) for _ in range(1 << 7)]
    return truth_table_function("mixed8", [
        low[i] if i < 1 << 7 else int(i == (1 << 8) - 1)
        for i in range(1 << 8)])


def _subset(mask: int, n: int) -> set[int]:
    return {j + 1 for j in range(n) if (mask >> j) & 1}


@pytest.fixture(scope="module")
def naive_n8():
    """Each n = 8 function with the naive count of every proper mask."""
    return [(f, {m: naive_subfunction_count(f, _subset(m, 8))
                 for m in range(1, (1 << 8) - 1)}) for f in _n8_functions()]


def test_refinement_matches_naive_counts_at_n8(naive_n8):
    rng = random.Random(71)
    for f, naive in naive_n8:
        lattice, _ = _lattice_counts(truth_table_of(f), 8)
        for m, count in naive.items():
            assert count_subfunctions_at_cut(f, _subset(m, 8)) == count
            if m.bit_count() >= 2:
                assert lattice[m] == count, (f.name, m)
        perm = list(range(1, 9))
        rng.shuffle(perm)
        prefixes = [sum(1 << (v - 1) for v in perm[:u]) for u in range(2, 8)]
        assert subfunction_profile(f, VariableOrder(tuple(perm))).counts == \
            tuple(naive[m] for m in prefixes)


def test_refinement_matches_naive_counts_at_n10():
    rng = random.Random(73)
    for f in (_random_function(rng, 10),
              truth_table_function("sparse10", [int(rng.random() < 0.02)
                                                for _ in range(1 << 10)])):
        lattice, _ = _lattice_counts(truth_table_of(f), 10)
        for m in rng.sample(range(1, (1 << 10) - 1), 20):
            naive = naive_subfunction_count(f, _subset(m, 10))
            assert count_subfunctions_at_cut(f, _subset(m, 10)) == naive
            if m.bit_count() >= 2:
                assert lattice[m] == naive, (f.name, m)


@pytest.fixture
def spied(monkeypatch):
    """Record each _refine call's parent size, bounds, the ids it wrote
    into its out rows (None for a call that ranks for counts alone) and
    its counts, and the size of each array np.sort sorts."""
    calls, sorted_sizes = [], []
    refine, sort = analysis._refine, np.sort

    def spy_refine(parent, p, bound, out):
        counts = refine(parent, p, bound, out)
        calls.append((parent.shape[1].bit_length() - 1, np.asarray(bound),
                      None if out is None else out.copy(), counts))
        return counts

    def spy_sort(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(analysis, "_refine", spy_refine)
    monkeypatch.setattr(np, "sort", spy_sort)
    return calls, sorted_sizes


def _kinds(calls) -> set[str]:
    """How the recorded _refine calls ranked their rows."""
    kinds = set()
    for s, bound, *_ in calls:
        kinds.update(np.where(bound == 1 << s, "saturated", np.where(
            bound * bound <= 1 << (s - 1), "small", "sorted")).tolist())
    return kinds


@pytest.mark.parametrize("f", [and_function(12), xor_function(12),
                               constant_function(12, 0)],
                         ids=["and", "xor", "constant"])
def test_lattice_sorts_nothing_when_counts_stay_small(spied, f):
    calls, sorted_sizes = spied
    counts, size = _lattice_counts(truth_table_of(f), 12)
    assert sorted_sizes == [] and calls
    assert all(counts[size == s].max() <= 2 for s in range(2, 12))


def test_lattice_sorts_only_rows_it_cannot_rank_otherwise(spied):
    """A row is sorted only when its parent is neither saturated nor of a
    small count, and no layer is built below the first saturated one."""
    calls, sorted_sizes = spied
    n, full = 12, (1 << 12) - 1
    table = truth_table_of(_random_function(random.Random(79), n))
    counts, size = _lattice_counts(table, n)
    saturated = [s for s in range(2, n) if (counts[size == s] == 1 << s).all()]
    top = max(saturated)
    assert saturated == list(range(2, top + 1)) and top < n - 1
    assert min(s for s, *_ in calls) == top + 1
    want, kinds = 0, set()
    for m in np.flatnonzero((size >= top) & (size < n)).tolist():
        t = m.bit_count()                # a row of 2^t pairs
        parent = m | (~m & (m + 1))
        c = 2 if parent == full else counts[parent]
        kind = ("saturated" if c == 1 << (t + 1) else
                "small" if c * c <= 1 << t else "sorted")
        kinds.add(kind)
        want += (1 << t) * (kind == "sorted")
    assert kinds == {"saturated", "small", "sorted"}
    assert sum(sorted_sizes) == want


def test_lattice_ranks_mixed_rows(spied):
    """The n = 8 mixed function's lattice ranks rows in all three ways,
    every id, written as uint16, stays below its row's count, and the
    rows ranked for their counts alone are the sets without variable 1,
    each with its recounted count."""
    calls, _ = spied
    table = truth_table_of(_mixed_function())
    _lattice_counts(table, 8)
    leaves = [[] for _ in range(8)]
    for s, bound, ids, counts in calls:
        if ids is None:
            leaves[s - 1] += counts.tolist()
            continue
        assert ids.dtype == np.uint16
        assert (ids.max(axis=1) < counts).all()
        assert [len(np.unique(row)) for row in ids] == counts.tolist()
    assert _kinds(calls) == {"saturated", "small", "sorted"}
    built = [t for t in range(8) if leaves[t]]
    assert built == list(range(built[0], 8))
    for t in built:
        assert sorted(leaves[t]) == sorted(
            _recount(table, 8, m) for m in range(0, 1 << 8, 2)
            if m.bit_count() == t), t


def _recount(table: np.ndarray, n: int, mask: int) -> int:
    """Distinct restrictions of table with the variables in mask fixed,
    from the table alone: bit j of an index is axis n-1-j of the 2^n
    cube, and each assignment to mask's axes is one row of the rest."""
    fixed = [n - 1 - j for j in range(n) if mask >> j & 1]
    free = [a for a in range(n) if a not in fixed]
    rows = table.reshape((2,) * n).transpose(fixed + free)
    return len(set(map(bytes, np.packbits(rows.reshape(1 << len(fixed), -1),
                                          axis=1))))


def test_recount_matches_the_naive_counter():
    f = _random_function(random.Random(163), 6)
    table = truth_table_of(f)
    for m in range(1, (1 << 6) - 1):
        assert _recount(table, 6, m) == \
            naive_subfunction_count(f, _subset(m, 6)), m


@pytest.mark.parametrize("name", ["random", "mxpj:1,4"])
def test_lattice_matches_an_independent_recount_at_n16(name):
    """About 30 masks of every size 2..15, each recounted from the table
    without _refine or _rank_pairs: an id that wraps in its uint16
    layer, or a pair code formed in a narrower type, changes a count."""
    rng = random.Random(167)
    if name == "random":
        table = np.array([rng.randint(0, 1) for _ in range(1 << 16)],
                         np.uint8)
    else:
        table = truth_table_of(mxpj_function(1, 4))
    counts, _ = _lattice_counts(table, 16)
    by_size = [[] for _ in range(17)]
    for m in range(1 << 16):
        by_size[m.bit_count()].append(m)
    for s in range(2, 16):
        for m in rng.sample(by_size[s], min(30, len(by_size[s]))):
            assert counts[m] == _recount(table, 16, m), (name, m)


@pytest.mark.parametrize("name", ["zero", "sparse", "parity", "halves"])
def test_lattice_matches_an_independent_recount_at_n14(spied, name):
    """20 masks with and 20 without variable 1 of every size 2..13 (or
    all of them), each recounted from the table without _refine.  The
    5%-sparse table stops at its first saturated layer and the others
    build every layer; the equal halves rank rows in all three ways."""
    calls, _ = spied
    n, rng = 14, random.Random(181)
    half = [rng.randint(0, 1) for _ in range(1 << (n - 1))]
    table = np.array({
        "zero": [0] * (1 << n),
        "sparse": [int(rng.random() < 0.05) for _ in range(1 << n)],
        "parity": [i.bit_count() & 1 for i in range(1 << n)],
        "halves": half + half}[name], np.uint8)
    counts, _ = _lattice_counts(table, n)
    lowest = min(s for s, *_ in calls) - 1
    assert (lowest > 2) == (name == "sparse")
    assert any(ids is None for _, _, ids, _ in calls)
    if name == "halves":
        assert _kinds(calls) == {"saturated", "small", "sorted"}
    by_size = [([], []) for _ in range(n + 1)]
    for m in range(1 << n):
        by_size[m.bit_count()][m & 1].append(m)
    for s in range(2, n):
        for masks in by_size[s]:
            for m in rng.sample(masks, min(20, len(masks))):
                assert counts[m] == _recount(table, n, m), (name, m)


def test_lattice_peak_memory_at_n14():
    """A random n = 14 table stops at size 9.  Sizes 10 and 9 each hold
    1,025,024 ids, 2 MiB as uint16.  The sets without variable 1 keep no
    ids, and a parent group is freed once its last child group is
    ranked, so the live ids and the ranking blocks fit in 4 MiB."""
    rng = random.Random(14)
    table = np.array([rng.randint(0, 1) for _ in range(1 << 14)], np.uint8)
    _lattice_counts(table, 14)           # numpy's lazy set-up comes first
    tracemalloc.start()
    try:
        _lattice_counts(table, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


def test_n_min_matches_naive_bottleneck_dp_at_n8(naive_n8):
    for f, naive in naive_n8:
        best = {}
        for m in sorted(naive, key=int.bit_count):
            if m.bit_count() == 2:
                best[m] = naive[m]
            elif m.bit_count() > 2:
                best[m] = max(naive[m], min(best[m & ~(1 << j)]
                                            for j in range(8) if m >> j & 1))
        value, order = optimal_order(f)
        assert value == n_min(f) == min(best[m] for m in best
                                        if m.bit_count() == 7), f.name
        prefixes = [sum(1 << (v - 1) for v in order.perm[:u])
                    for u in range(2, 8)]
        assert max(naive[m] for m in prefixes) == value


def test_enumeration_guard():
    with pytest.raises(ValueError):
        n_min_by_enumeration(xor_function(7))


# ---------------------------------------------------------------------------
# bounds in log2 space


def test_bound_log2_frozen_values():
    assert bound_log2("det", 2, 2) == 3.0
    assert bound_log2("nondet", 2, 2) == 6.0
    assert bound_log2("quantum", 1, 2, Constants(c=1)) == 4.0
    # inner term 8*1*(1 + 1 + 0) = 16, exponent (k+1)w^2 = 8
    assert bound_log2("prob", 1, 2) == 32.0


def test_bound_log2_guards():
    with pytest.raises(ValueError):
        bound_log2("det", 0, 2)
    with pytest.raises(ValueError):
        bound_log2("det", 1, 1)
    with pytest.raises(ValueError):
        bound_log2("magic", 1, 2)
    with pytest.raises(ValueError):
        Constants(c1=-1.0)


@pytest.mark.parametrize("model,k,w,constants", [
    ("prob", 2, 4, Constants(c1=1e308)),
    ("quantum", 2, 4, Constants(c=1e308)),
])
def test_bound_log2_rejects_non_finite_bounds(model, k, w, constants):
    with pytest.raises(ValueError, match=f"{model} bound at k={k}, w={w} "
                                         "is not finite"):
        bound_log2(model, k, w, constants)


def test_bound_log2_monotone():
    for model in ("det", "nondet", "prob", "quantum"):
        for k in (1, 2, 3):
            for w in (2, 4, 8):
                here = bound_log2(model, k, w)
                assert bound_log2(model, k + 1, w) >= here
                assert bound_log2(model, k, w * 2) >= here


def test_lower_log2_frozen_values():
    assert lower_log2("saf", 2, 4) == 4.0
    assert lower_log2("saf_cor", 2, 8) == 8.0
    assert lower_log2("mxpj_cor", 2, 4) == 1.0
    assert lower_log2("mxpj", 4, 8) == 3.0   # floor(8/3 - 1) = 1, k-3 = 1
    with pytest.raises(ValueError):
        lower_log2("saf", 0, 4)
    with pytest.raises(ValueError):
        lower_log2("unknown", 2, 4)


# ---------------------------------------------------------------------------
# inequality chains


def test_hi_n_frozen_points():
    r = check_chain("hi-n", k=2, w=8)
    assert r.reduced_width == pytest.approx(math.sqrt(2), rel=1e-12)
    assert r.lhs_log2 == 8.0
    assert r.margin == pytest.approx(2 - math.sqrt(2), rel=1e-12)
    assert r.in_regime and r.margin > 0

    r = check_chain("hi-n", k=2, w=64)
    assert (r.lhs_log2, r.rhs_log2, r.margin) == (128.0, 52.0, 76.0)


def test_hi_p_reported_with_constants():
    r = check_chain("hi-p", k=2, w=64)
    lhs = 2 * 64 / 6 * 6
    inner = 16 * (5 - math.log2(6))
    rhs = 5 * (64 / 36) * math.log2(inner)
    assert r.lhs_log2 == pytest.approx(lhs, rel=1e-12)
    assert r.rhs_log2 == pytest.approx(rhs, rel=1e-12)
    assert r.margin == pytest.approx(lhs - rhs, rel=1e-12)
    assert "C1" in r.note and r.in_regime
    with pytest.raises(ValueError):
        check_chain("hi-p", k=1, w=64)


def test_hi_q_margin_is_final_exponent():
    r = check_chain("hi-q", k=2, d=64)
    assert r.margin == 0.5                      # (k/16) log2(8k)
    assert r.lhs_log2 == 48.0
    assert r.rhs_log2 == 16.0                   # C (k r)^2 log2 r, r = 2
    assert r.lhs_log2 - r.rhs_log2 == 64 * r.margin
    assert "8C" in r.note or "C1" in r.note

    loose = check_chain("hi-q", k=4, d=16)      # r = sqrt(1/2) < 1
    assert not loose.in_regime
    assert loose.margin == pytest.approx(4 / 16 * math.log2(32), rel=1e-12)


def test_s5_obdd_frozen_points():
    r = check_chain("s5-obdd", k=4, d=1024)
    assert r.margin == 1280.0                   # 5kd/16
    assert r.reduced_width == 32.0
    loose = check_chain("s5-obdd", k=2, d=16)
    assert loose.margin == 10.0 and not loose.in_regime


def test_s5_nobdd_margin_formula():
    for k, d in ((2, 16), (4, 1024), (64, 1 << 20)):
        r = check_chain("s5-nobdd", k=k, d=d)
        ld = math.log2(d)
        assert r.rhs_log2 == pytest.approx(2 * k * d * ld / 33, rel=1e-12)
        assert r.margin == pytest.approx(k * d * ld / 528, rel=1e-9)
        assert r.margin > 0


def test_s5_pobdd_negative_but_reported():
    r = check_chain("s5-pobdd", k=2, d=1024)
    rhs = 2 * 2 * 1024 * 1 * (1 + 1 + math.log2(1 + 10 + 1))
    assert r.rhs_log2 == pytest.approx(rhs, rel=1e-12)
    assert r.margin < 0
    assert "C2" in r.note


def test_h_kobdd_witness_behavior():
    r = check_chain("h-kobdd", k=2, w=64)
    assert r.reduced_width == 1 and r.rhs_log2 == 0.0
    assert r.margin == pytest.approx(21 / 6 * math.log2(21), rel=1e-12)
    assert r.in_regime

    assert check_chain("h-kobdd", k=4, w=1024).margin > 0
    # odd k halves the witness layers; the corollary side then loses
    assert check_chain("h-kobdd", k=3, w=1024).margin < 0

    loose = check_chain("h-kobdd", k=2, w=32)
    assert loose.rhs_log2 == 0.0 and not loose.in_regime


def test_check_chain_argument_errors():
    with pytest.raises(ValueError):
        check_chain("nope", k=2, w=8)
    with pytest.raises(ValueError):
        check_chain("hi-n", k=2)            # missing w
    with pytest.raises(ValueError):
        check_chain("hi-n", k=0, w=8)


def test_margins_reproducible_bitwise():
    first = [check_chain("hi-n", k=k, w=w).margin
             for w in (8, 64, 1024) for k in (2, 7, 64)]
    second = [check_chain("hi-n", k=k, w=w).margin
              for w in (8, 64, 1024) for k in (2, 7, 64)]
    assert first == second


def test_default_grids():
    assert len(default_grid("hi-n")) == 8 * 63
    assert len(default_grid("s5-obdd")) == 17 * 63
    assert len(default_grid("h-kobdd")) == 5 * 63
    assert default_grid("hi-n")[0] == {"w": 8, "k": 2}
    with pytest.raises(ValueError):
        default_grid("nope")


# ---------------------------------------------------------------------------
# programs against the lemma bounds


def test_empirical_bound_check_mxpj():
    from kobdd import (build_mxpj_id_obdd, compile_to_nondet,
                       compile_to_prob, compile_to_quantum)
    p = build_mxpj_id_obdd(1, 2)
    f = mxpj_function(1, 2)
    exact = n_min_by_enumeration(f)
    for q in (p, compile_to_nondet(p), compile_to_prob(p),
              compile_to_quantum(p)):
        report = empirical_bound_check(q, f)
        assert report.holds
        assert report.n_subfunctions == exact
        assert report.width == 4 and report.k == 1


@pytest.mark.parametrize("c1, holds", [(8.0, True), (0.45, True),
                                       (0.4, False)])
def test_empirical_bound_check_at_a_fractional_base(monkeypatch, c1, holds):
    """A width-3 prob program makes the bound's base fractional, so the
    check compares logs; it must agree with the power taken in floats."""
    from kobdd import Program, compile_to_prob, det_level
    n = 6       # ones counted mod 3, accepting 0
    levels = tuple(det_level(v, (1, 2, 3), (2, 3, 1), 3)
                   for v in range(1, n + 1))
    p = compile_to_prob(Program(
        semantics="deterministic", n=n, k=1, order=VariableOrder.identity(n),
        levels=levels, initial=1, accept=frozenset({1})))
    f = truth_table_function("mod3", [int(i.bit_count() % 3 == 0)
                                      for i in range(1 << n)])
    constants = Constants(c1=c1)
    monkeypatch.setattr(analysis, "DEFAULT_CONSTANTS", constants)
    report = empirical_bound_check(p, f)
    base = c1 * (constants.c2 + math.log2(3))       # k = 1, w = 3
    assert base != int(base)
    assert (report.model, report.width, report.n_subfunctions) == \
        ("prob", 3, 3)
    assert report.holds == (3 <= base ** (2 * 3 * 3)) == holds


def test_empirical_bound_check_trivial_program():
    from kobdd import Program, det_level
    levels = tuple(det_level(v, (1,), (1,), 1) for v in (1, 2, 3))
    p = Program(semantics="deterministic", n=3, k=1,
                order=VariableOrder.identity(3), levels=levels,
                initial=1, accept=frozenset())
    report = empirical_bound_check(p, constant_function(3, 0))
    assert report.holds and report.n_subfunctions == 1
    assert report.bound_text == "1^1"
