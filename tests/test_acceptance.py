"""Acceptance suite.

Each test covers one numbered acceptance criterion, checks it at the
stated tolerance, and emits exactly one [PASS]/[FAIL] line on the real
stderr stream so the verdicts survive output capture.
"""

import json
import math
import random
import sys
import time

import numpy as np

from conftest import random_det_program, random_prob_program, \
    random_quantum_program, random_reversible_det_program
from kobdd import (Assignment, Program, SAFLayout, all_assignments_array,
                   and_function, build_mxpj_id_obdd, build_saf_2k_obdd,
                   check_chain, compile_to_nondet, compile_to_prob,
                   compile_to_quantum, deserialize, empirical_bound_check,
                   eval_det_batch, eval_nondet_batch, accept_prob,
                   accept_prob_batch, matrix_level, mxpj_function, n_min,
                   n_min_by_enumeration, random_saf_positive, saf_function,
                   serialize, state_trace, truth_table_function, validate,
                   width, xor_function)
from kobdd.cli import main as cli_main


def _verdict(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}",
              file=sys.stderr, flush=True)
    assert ok, label


def _oracle_column(f, n: int, rows=None) -> np.ndarray:
    if rows is None:
        return np.fromiter(
            (f(Assignment.from_int(m, n)) for m in range(1 << n)),
            dtype=np.uint8, count=1 << n)
    return np.fromiter(
        (f(Assignment(tuple(row.tolist()))) for row in rows),
        dtype=np.uint8, count=len(rows))


def test_criterion_1_mxpj_builder_exhaustive(capsys):
    start = time.monotonic()
    ok = True
    for k, d in [(1, 2), (2, 2), (1, 4), (4, 2)]:
        p = build_mxpj_id_obdd(k, d)
        f = mxpj_function(k, d)
        xs = all_assignments_array(p.n)
        mism = int((eval_det_batch(p, xs) != _oracle_column(f, p.n)).sum())
        ok = ok and mism == 0 and width(p) <= d * d
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(capsys, ok, "criterion 1: pointer-jumping builder matches its "
                 f"evaluator exhaustively, width <= d^2 ({elapsed:.1f}s)")


def test_criterion_2_quantum_compile_exact(capsys):
    ok = True
    for k, d in [(1, 2), (2, 2), (1, 4), (4, 2)]:
        p = build_mxpj_id_obdd(k, d)
        q = compile_to_quantum(p)
        xs = all_assignments_array(p.n)
        probs = accept_prob_batch(q, xs)
        det = eval_det_batch(p, xs).astype(np.float64)
        ok = ok and bool(np.all(np.minimum(np.abs(probs),
                                           np.abs(probs - 1)) <= 1e-9))
        ok = ok and bool(np.all(np.abs(probs - det) <= 1e-9))
        ok = ok and validate(q).ok and width(q) == d * d
    _verdict(capsys, ok, "criterion 2: quantum embedding is exact (within 1e-9 "
                 "of {0,1} and of the deterministic output everywhere)")


def test_criterion_3_saf_builder_agreement(capsys):
    start = time.monotonic()
    ok = True
    for k, w, n in [(2, 2, 57), (2, 4, 200), (3, 4, 300)]:
        layout = SAFLayout(n=n, k=k, w=w)
        p = build_saf_2k_obdd(k, w, n)
        f = saf_function(k, w, n)
        ok = ok and width(p) <= 3 * w + 1 and p.k == 2 * k
        rng = np.random.Generator(np.random.PCG64(1234 + n))
        rows = rng.integers(0, 2, size=(100000, n), dtype=np.uint8)
        got = eval_det_batch(p, rows)
        want = _oracle_column(f, n, rows=rows)
        ok = ok and int((got != want).sum()) == 0
        wit_rng = random.Random(99 + n)
        for _ in range(12):
            x = random_saf_positive(layout, wit_rng)
            ok = ok and f(x) == 1
            ok = ok and eval_det_batch(
                p, np.array([x.bits], dtype=np.uint8))[0] == 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _verdict(capsys, ok, "criterion 3: shuffled-addressing builder: width <= 3w+1, "
                 "2k layers, 3x100000 random + 12 positive witnesses "
                 f"all agree ({elapsed:.1f}s)")


def test_criterion_4_subfunction_oracle(capsys):
    ok = all(n_min(xor_function(n)) == 2 for n in range(3, 9))
    rng = random.Random(2024)
    for _ in range(20):
        values = [rng.randint(0, 1) for _ in range(32)]
        f = truth_table_function("r5", values)
        ok = ok and n_min(f) == n_min_by_enumeration(f)
    for n in range(3, 7):
        ok = ok and n_min(xor_function(n)) == \
            n_min_by_enumeration(xor_function(n))
        ok = ok and n_min(and_function(n)) == \
            n_min_by_enumeration(and_function(n))
    _verdict(capsys, ok, "criterion 4: N(xor_n) = 2 for n in 3..8; lattice DP "
                 "equals factorial enumeration on 20 seeded n=5 "
                 "functions and the xor/and families")


def test_criterion_5_lemma_consistency(capsys):
    p = build_mxpj_id_obdd(1, 2)
    f = mxpj_function(1, 2)
    ok = True
    for q in (p, compile_to_nondet(p), compile_to_prob(p)):
        report = empirical_bound_check(q, f)
        ok = ok and report.holds
    _verdict(capsys, ok, "criterion 5: exact subfunction counts of the built "
                 "program and its embeddings satisfy the model bounds "
                 "(exact integer comparison)")


def test_criterion_6_inequality_chains(capsys):
    start = time.monotonic()
    ok = True
    for w in (1 << e for e in range(3, 11)):
        for k in range(2, 65):
            ok = ok and check_chain("hi-n", k=k, w=w).margin > 0
    for chain in ("s5-obdd", "s5-nobdd"):
        for d in (1 << e for e in range(4, 21)):
            for k in range(2, 65):
                r = check_chain(chain, k=k, d=d)
                ok = ok and r.margin > 0
    for d in (1 << e for e in range(4, 21)):
        for k in range(2, 65):
            r = check_chain("hi-q", k=k, d=d)
            ok = ok and r.margin == k / 16 * math.log2(8 * k)
            ok = ok and r.margin > 0
    for chain, kw in (("hi-p", {"w": 64}), ("s5-pobdd", {"d": 1024})):
        r = check_chain(chain, k=2, **kw)
        ok = ok and math.isfinite(r.margin)
        ok = ok and ("C1" in r.note or "C2" in r.note)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _verdict(capsys, ok, "criterion 6: margins positive over the documented "
                 "grids; quantum chain margin equals (k/16)*log2(8k); "
                 "constant-dependent chains reported and flagged "
                 f"({elapsed * 1000:.0f}ms)")


def test_criterion_7_semantics_properties(capsys):
    rng = random.Random(777)
    ok = True
    for i in range(100):
        n = rng.randint(2, 12)
        k = rng.randint(1, 3)
        if i % 2 == 0:
            p = random_prob_program(rng, n, k, wmax=16)
            measure = lambda v: abs(float(v.sum()) - 1.0)
        else:
            p = random_quantum_program(rng, n, k, w=rng.randint(2, 16))
            measure = lambda v: abs(float(np.linalg.norm(v)) - 1.0)
        x = Assignment.from_int(rng.randrange(1 << n), n)
        ok = ok and all(measure(v) <= 1e-9 for v in state_trace(p, x))
    for _ in range(20):
        p = random_quantum_program(rng, n=3, k=2, w=4)
        phase = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
        shifted = Program(
            semantics="quantum", n=p.n, k=p.k, order=p.order,
            levels=tuple(matrix_level(l.variable, l.t0 * phase,
                                      l.t1 * phase) for l in p.levels),
            initial=p.initial, accept=p.accept)
        for m in range(8):
            x = Assignment.from_int(m, 3)
            ok = ok and abs(accept_prob(p, x)
                            - accept_prob(shifted, x)) <= 1e-9
    xs = all_assignments_array(10)
    for seed in range(5):
        p = random_det_program(random.Random(seed), n=10, k=2, wmax=5)
        base = eval_det_batch(p, xs)
        ok = ok and bool(np.array_equal(
            eval_nondet_batch(compile_to_nondet(p), xs), base))
        ok = ok and bool(np.all(np.abs(
            accept_prob_batch(compile_to_prob(p), xs) - base) <= 1e-9))
        rp = random_reversible_det_program(random.Random(seed), n=10, k=2)
        ok = ok and bool(np.all(np.abs(
            accept_prob_batch(compile_to_quantum(rp), xs)
            - eval_det_batch(rp, xs)) <= 1e-9))
    _verdict(capsys, ok, "criterion 7: per-step norm/mass conservation (1e-9) on "
                 "100 random programs, global-phase invariance, and "
                 "exhaustive embedding agreement at n = 10")


def test_criterion_8_serialization(tmp_path, capsys):
    rng = random.Random(4242)
    base = build_mxpj_id_obdd(1, 2)
    programs = [base, compile_to_nondet(base), compile_to_prob(base),
                random_quantum_program(rng, n=2, k=2, w=3)]
    ok = len({p.semantics for p in programs}) == 4
    for p in programs:
        q = deserialize(serialize(p))
        ok = ok and q.structurally_equal(p) and validate(q).ok

    good = json.loads(serialize(compile_to_prob(base)))
    malformed = []
    doc = dict(good); doc["format"] = "mystery"; malformed.append(doc)
    doc = json.loads(json.dumps(good)); del doc["levels"]; malformed.append(doc)
    doc = json.loads(json.dumps(good)); doc["initial"] = 0; malformed.append(doc)
    doc = json.loads(json.dumps(good)); doc["epsilon"] = 2.0; malformed.append(doc)
    doc = json.loads(json.dumps(good))
    doc["levels"][0]["t0"][0] = "oops"; malformed.append(doc)
    doc = json.loads(json.dumps(good))
    doc["levels"][0]["t0"] = doc["levels"][0]["t0"][:-1]
    malformed.append(doc)
    doc = json.loads(json.dumps(good)); doc["accept"] = [1, True]
    malformed.append(doc)

    ok = ok and len(malformed) >= 6
    for i, doc in enumerate(malformed):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        ok = ok and cli_main(["validate", str(path)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{ definitely not json")
    ok = ok and cli_main(["validate", str(garbled)]) == 2
    _verdict(capsys, ok, "criterion 8: bit-exact round trips for all four "
                 "semantics; 7 malformed documents rejected with "
                 "exit code 2")
