"""Independent checkers for the outputs of the benchmarked commands.

None of these functions imports kobdd: each recomputes the expected
output from the definition, so a defect in the code under test cannot
hide itself by agreeing with its own checker.  Every checker returns an
error string, or None when the output is correct.
"""

from __future__ import annotations

import csv
import io
import json


def check_validate(out: str, rc: int, semantics: str, n: int, layers: int,
                   width: int) -> str | None:
    want = (f"ok: {semantics} program, n={n}, layers={layers}, "
            f"width={width}\n")
    if rc != 0 or out != want:
        return f"validate: rc={rc}, got {out[:120]!r}, want {want!r}"
    return None


def check_equiv(out: str, rc: int, requested: int) -> str | None:
    want = f"{requested} checked, 0 mismatches\n"
    if rc != 0 or out != want:
        return f"check-equiv: rc={rc}, got {out[:120]!r}, want {want!r}"
    return None


def mxpj_value(bits: str, k: int, d: int) -> int:
    """XOR pointer jumping straight from its definition.

    The input holds 2k tables (k of side A, then k of side B), each d
    fields of log2(d) bits, least significant bit first.  Hop i uses
    table pair (i-1)//2, side A on odd hops; each new vertex is the
    looked-up one XOR the vertex from two hops earlier.
    """
    t = d.bit_length() - 1
    fields = [int(bits[i:i + t][::-1], 2) for i in range(0, len(bits), t)]
    tables = [fields[i * d:(i + 1) * d] for i in range(2 * k)]
    prev = cur = 0
    for hop in range(1, 2 * k + 1):
        pair = (hop - 1) // 2
        table = tables[pair] if hop % 2 else tables[k + pair]
        prev, cur = cur, table[cur] ^ prev
    return bin(cur).count("1") & 1


def check_eval(out: str, rc: int, semantics: str, value: int) -> str | None:
    """0/1 for det and nondet; a 9-digit probability for the others."""
    if semantics in ("deterministic", "nondeterministic"):
        want = f"{value}\n"
    else:
        want = f"{float(value):.9f}\n"
    if rc != 0 or out != want:
        return f"eval: rc={rc}, got {out[:120]!r}, want {want!r}"
    return None


def cut_counts(table: str, order: list[int]) -> list[int]:
    """Distinct subfunctions at every cut 2..n-1 of an order, two loops.

    ``table[m]`` is f on the input whose variable v is bit v-1 of m.
    The outer loop fixes the prefix variables, the inner loop reads the
    restricted function over the remaining ones.
    """
    n = len(table).bit_length() - 1
    counts = []
    for u in range(2, n):
        prefix, rest = order[:u], order[u:]
        offsets = [sum(((b >> r) & 1) << (v - 1) for r, v in enumerate(rest))
                   for b in range(1 << len(rest))]
        seen = set()
        for a in range(1 << u):
            base = sum(((a >> r) & 1) << (v - 1)
                       for r, v in enumerate(prefix))
            seen.add("".join(table[base | off] for off in offsets))
        counts.append(len(seen))
    return counts


def check_subfn(out: str, err: str, rc: int, name: str,
                table: str) -> str | None:
    """The CSV must list cuts 2..n-1 of one order with recounted values."""
    n = len(table).bit_length() - 1
    if rc != 0:
        return f"subfn: rc={rc}"
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["function", "n", "order", "cut", "count"]:
        return f"subfn: bad header in {out[:120]!r}"
    body = rows[1:]
    if len(body) != n - 2 or any(len(r) != 5 for r in body):
        return f"subfn: expected {n - 2} rows of 5 fields"
    orders = {r[2] for r in body}
    if len(orders) != 1 or {(r[0], r[1]) for r in body} != {(name, str(n))}:
        return "subfn: rows disagree on function, n or order"
    try:
        order = [int(v) for v in orders.pop().split()]
        cuts = [int(r[3]) for r in body]
        counts = [int(r[4]) for r in body]
    except ValueError:
        return "subfn: non-integer field"
    if sorted(order) != list(range(1, n + 1)):
        return f"subfn: {order} is not a permutation of 1..{n}"
    if cuts != list(range(2, n)):
        return f"subfn: cuts {cuts} are not 2..{n - 1}"
    want = cut_counts(table, order)
    if counts != want:
        return f"subfn: counts {counts}, recount gives {want}"
    if err.strip().splitlines()[-1:] != [f"N = {max(want)}"]:
        return f"subfn: summary {err.strip()[-60:]!r}, want N = {max(want)}"
    return None


# ---------------------------------------------------------------------------
# structure counts, read from the JSON program documents


def _cell(raw, semantics: str) -> complex:
    if semantics == "quantum":
        return complex(float(raw["re"]), float(raw["im"]))
    return float(raw)


def _transition_stats(raw, semantics: str, w_in: int, w_out: int):
    """(is the identity map, nonzero count) of one encoded transition."""
    if semantics == "deterministic":
        return raw == list(range(1, w_in + 1)) and w_in == w_out, len(raw)
    if semantics == "nondeterministic":
        ident = w_in == w_out and sorted(map(tuple, raw)) == [
            (i, i) for i in range(1, w_in + 1)]
        return ident, len(raw)
    values = [_cell(c, semantics) for c in raw]
    ident = w_in == w_out and all(
        v == (1.0 if i // w_in == i % w_in else 0.0)
        for i, v in enumerate(values))
    return ident, sum(1 for v in values if v != 0)


def structure(text: str) -> dict:
    """Levels, width profile, identity-level share and nnz of a document.

    The width profile maps each width to the number of the k*n+1 node
    levels that have it.  A level counts as an identity when both of
    its transitions are; nnz counts successor entries, edges or nonzero
    matrix cells over both transitions of every level.
    """
    doc = json.loads(text)
    sem = doc["semantics"]
    profile: dict[int, int] = {}
    for w in [lv["width_in"] for lv in doc["levels"]] + [
            doc["levels"][-1]["width_out"]]:
        profile[w] = profile.get(w, 0) + 1
    identities = nnz = 0
    for lv in doc["levels"]:
        both = True
        for key in ("t0", "t1"):
            ident, count = _transition_stats(lv[key], sem, lv["width_in"],
                                             lv["width_out"])
            both = both and ident
            nnz += count
        identities += both
    levels = len(doc["levels"])
    return {"semantics": sem, "levels": levels,
            "width_profile": dict(sorted(profile.items())),
            "identity_level_share": identities / levels, "nnz": nnz,
            "bytes": len(text.encode())}
