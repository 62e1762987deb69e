"""Subfunction counting and the width-bound inequality chains.

The counting side measures how many distinct restricted functions appear
when a prefix set of variables is fixed; the maximum over the cuts of an
order, minimized over orders, is the complexity measure the width bounds
are stated against.  Counts depend only on the prefix *set*, never on the
order within it, which is what lets a bottleneck dynamic program over the
subset lattice replace factorial enumeration.

The bound side evaluates, in log2 space, the per-model upper bounds on
that measure and the lower bounds of the two hard function families, and
combines them into named inequality chains.  Each chain's ``margin`` is
the exponent on the final line of its derivation: a strictly positive
margin certifies the claimed separation numerically at those parameters.
For every chain except hi-q the margin is exactly lhs_log2 - rhs_log2;
hi-q's derivation divides the gap by d at the last step, so its margin is
(lhs_log2 - rhs_log2) / d there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionOracle
from .program import (Program, VariableOrder, all_assignments_array,
                      sweep_rows, width)

#: The size parameter each chain is stated over: w (width) or d (the
#: pointer-jumping alphabet size), in the canonical chain order.
CHAIN_SIZE = {"hi-n": "w", "hi-p": "w", "hi-q": "d", "s5-obdd": "d",
              "s5-nobdd": "d", "s5-pobdd": "d", "h-kobdd": "w"}

CHAINS = tuple(CHAIN_SIZE)

MODELS = ("det", "nondet", "prob", "quantum")

LATTICE_GUARD = 16
FACTORIAL_GUARD = 6


class OutOfRegimeError(ValueError):
    """Chain parameters give a reduced width below 1."""


# ---------------------------------------------------------------------------
# counting distinct subfunctions


def check_table_size(n: int) -> None:
    """Raise ValueError when a 2^n truth table is past the guard."""
    if n > LATTICE_GUARD:
        raise ValueError(f"n = {n} exceeds the 2^n materialization "
                         f"guard of {LATTICE_GUARD}")


def truth_table_of(f: FunctionOracle) -> np.ndarray:
    """f as a read-only uint8 array indexed by the integer encoding.

    Kept in the frozen oracle's instance dict, so each oracle is swept once.
    """
    check_table_size(f.n)
    table = f.__dict__.get("_truth_table")
    if table is None:
        table = sweep_rows(f, all_assignments_array(f.n))
        table.setflags(write=False)
        f.__dict__["_truth_table"] = table
    return table


def _refine(parent: np.ndarray, rows, p: int):
    """Drop the variable x at bit p from parent[rows]: new ids and counts.

    A row holds an id below 2^s per assignment to a prefix set of size s,
    bits in ascending variable order; equal ids mean equal restrictions.
    A new id ranks, within its row, the pair (id at x = 0, id at x = 1).
    """
    s = parent.shape[1].bit_length() - 1
    step = 1 << (17 - s)                 # np.unique sorts <= 2^16 keys
    out = np.empty((len(rows), 1 << (s - 1)), np.int32)
    counts = np.empty(len(rows), np.int64)
    for b in range(0, len(rows), step):
        k = min(step, len(rows) - b)
        ids = parent[rows[b:b + k]].astype(np.int64).reshape(k, -1, 2, 1 << p)
        keys = (np.arange(k, dtype=np.int64)[:, None, None] << 2 * s
                | ids[:, :, 0] << s | ids[:, :, 1])
        # 1-D keys only: numpy 2.0 changed the inverse's shape for n-d input
        uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
        start = np.searchsorted(uniq >> 2 * s, np.arange(k + 1))
        counts[b:b + k] = np.diff(start)
        out[b:b + k] = inverse.reshape(k, -1) - start[:k, None]
    return out, counts


def _chain_counts(table: np.ndarray, n: int, drops) -> list[int]:
    """Counts as the 0-based variables in drops leave the full set."""
    ids, mask, counts = table.reshape(1, -1), (1 << n) - 1, []
    for x in drops:
        ids, count = _refine(ids, [0], (mask & ((1 << x) - 1)).bit_count())
        counts.append(int(count[0]))
        mask &= ~(1 << x)
    return counts


def _lattice_counts(table: np.ndarray, n: int) -> np.ndarray:
    """Count of every prefix set of size 2..n-1, indexed by bitmask.

    Layers of int32 ids run top-down by size, two at a time.  A mask's
    parent is mask | its lowest unset bit x, so x is bit x of its index.
    """
    size = np.array([m.bit_count() for m in range(1 << n)])
    counts = np.zeros(1 << n, np.int64)
    row = np.zeros(1 << n, np.intp)      # a mask's row in its layer; full: 0
    ids = table.reshape(1, -1)
    for s in range(n - 1, 1, -1):
        child = np.flatnonzero(size == s)
        low = ~child & (child + 1)       # the lowest unset bit's value
        row[child] = np.arange(len(child))
        layer = np.empty((len(child), 1 << s), np.int32)
        for x in range(n):
            sel = np.flatnonzero(low == 1 << x)
            layer[sel], counts[child[sel]] = _refine(
                ids, row[child[sel] | (1 << x)], x)
        ids = layer
    return counts


def count_subfunctions_at_cut(f: FunctionOracle, subset_a) -> int:
    """Distinct restrictions of f over all assignments to subset_a.

    subset_a holds 1-based variable indices; it must be a nonempty
    proper subset of the variables.  The count is a property of the
    set alone.
    """
    subset = set(subset_a)
    if not subset or not subset <= set(range(1, f.n + 1)):
        raise ValueError(f"subset {sorted(subset)} is not a nonempty "
                         f"subset of 1..{f.n}")
    if len(subset) == f.n:
        raise ValueError("the complement of the cut must be nonempty")
    drops = [v - 1 for v in range(1, f.n + 1) if v not in subset]
    return _chain_counts(truth_table_of(f), f.n, drops)[-1]


@dataclass(frozen=True)
class SubfunctionProfile:
    """Per-cut counts of one order, with the worst cut called out."""

    n: int
    order: VariableOrder
    counts: tuple[int, ...]          # cut positions u = 2 .. n-1

    @property
    def cuts(self) -> range:
        return range(2, self.n)

    @property
    def max_count(self) -> int:
        return max(self.counts)


def subfunction_profile(f: FunctionOracle,
                        order: VariableOrder) -> SubfunctionProfile:
    """Distinct-subfunction count at every prefix cut 1 < u < n of order."""
    if f.n < 3:
        raise ValueError("cut positions 1 < u < n need n >= 3")
    if len(order.perm) != f.n:
        raise ValueError(f"order over {len(order.perm)} variables, "
                         f"function has {f.n}")
    # one chain: the order's variables leave the full set, last first
    counts = _chain_counts(truth_table_of(f), f.n,
                           [v - 1 for v in order.perm[:1:-1]])
    return SubfunctionProfile(n=f.n, order=order, counts=tuple(counts[::-1]))


def n_theta(f: FunctionOracle, order: VariableOrder) -> int:
    """Worst prefix-cut count of an order; cuts run over 1 < u < n."""
    return subfunction_profile(f, order).max_count


def n_min(f: FunctionOracle) -> int:
    """Exact minimum over orders of the worst prefix-cut count."""
    return optimal_order(f)[0]


def optimal_order(f: FunctionOracle) -> tuple[int, VariableOrder]:
    """An order achieving n_min, by a bottleneck dynamic program.

    best(S), the least worst-cut count of a cut chain ending at S (size
    2..n-1), is max(count(S), min over x of best(S minus x)).  Ties go to
    the first (n-1)-set in numeric order, then at each step down to the
    lowest variable whose removal attains the minimum.  Past the 2^n
    guard, ``truth_table_of`` raises before any count is made.
    """
    if f.n < 3:
        raise ValueError(f"lattice method needs 3 <= n <= {LATTICE_GUARD}, "
                         f"got n = {f.n}")
    best = _lattice_counts(truth_table_of(f), f.n)
    size = np.array([m.bit_count() for m in range(1 << f.n)])
    for s in range(3, f.n):
        masks = np.flatnonzero(size == s)
        below = np.min([np.where((masks >> j) & 1, best[masks & ~(1 << j)],
                                 np.iinfo(np.int64).max)
                        for j in range(f.n)], axis=0)
        best[masks] = np.maximum(best[masks], below)
    best = best.tolist()
    full = (1 << f.n) - 1
    mask = min((full & ~(1 << j) for j in reversed(range(f.n))),
               key=best.__getitem__)
    value, last_first = best[mask], [full & ~mask]
    while mask.bit_count() > 2:
        bit = min((1 << j for j in range(f.n) if (mask >> j) & 1),
                  key=lambda bit: best[mask & ~bit])
        last_first.append(bit)
        mask &= ~bit
    last_first += [1 << j for j in reversed(range(f.n)) if (mask >> j) & 1]
    return value, VariableOrder(tuple(bit.bit_length()
                                      for bit in reversed(last_first)))


def n_min_by_enumeration(f: FunctionOracle) -> int:
    """n_min as the best worst cut over all n! orders, for n <= 6 only."""
    if not 3 <= f.n <= FACTORIAL_GUARD:
        raise ValueError(f"enumeration needs 3 <= n <= {FACTORIAL_GUARD}, "
                         f"got n = {f.n}")
    return min(n_theta(f, VariableOrder(perm))
               for perm in itertools.permutations(range(1, f.n + 1)))


# ---------------------------------------------------------------------------
# model bounds and lower bounds, in log2 space


@dataclass(frozen=True)
class Constants:
    """The bound lemmas' unspecified constants, explicit on every report.

    c1 defaults to 8 because the quantum chain fixes it at eight times
    the quantum lemma's constant, and c defaults to 1.
    """

    c: float = 1.0
    c1: float = 8.0
    c2: float = 1.0
    c3: float = 1.0

    def __post_init__(self) -> None:
        values = (self.c, self.c1, self.c2, self.c3)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("constants must be finite")
        if min(values) <= 0:
            raise ValueError("constants must be positive")

    def describe(self) -> str:
        def fmt(x: float) -> str:
            return str(int(x)) if x == int(x) else repr(x)
        return (f"C={fmt(self.c)};C1={fmt(self.c1)};"
                f"C2={fmt(self.c2)};C3={fmt(self.c3)}")


DEFAULT_CONSTANTS = Constants()


def _bound_power(model: str, k: int, w: int, constants: Constants):
    """The model's upper bound on the subfunction count as (base, exponent)."""
    if model == "det":
        return w, (k - 1) * w + 1
    if model == "nondet":
        return 2, w * ((k - 1) * w + 1)
    if model == "prob":
        return (constants.c1 * k * (constants.c2 + math.log2(w)
                                    + math.log2(k)), (k + 1) * w * w)
    return w, constants.c * (k * w) ** 2


def bound_log2(model: str, k: int, w: int,
               constants: Constants = DEFAULT_CONSTANTS) -> float:
    """log2 of the model's upper bound on the subfunction count."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if k < 1 or w < 2:
        raise ValueError(f"need k >= 1 and w >= 2, got k={k}, w={w}")
    base, exponent = _bound_power(model, k, w, constants)
    value = exponent * math.log2(base)
    if not (math.isfinite(base) and math.isfinite(value)):
        raise ValueError(f"{model} bound at k={k}, w={w} is not finite "
                         f"under {constants!r}")
    return value


LOWER_BOUNDS = ("saf", "saf_cor", "mxpj", "mxpj_cor")


def lower_log2(name: str, k: int, size: int) -> float:
    """log2 of a hard-function subfunction lower bound.

    ``size`` is w for the shuffled-addressing bounds and d for the
    pointer-jumping bounds.
    """
    if name not in LOWER_BOUNDS:
        raise ValueError(f"unknown lower bound {name!r}")
    if k < 1 or size < 2:
        raise ValueError(f"need k >= 1 and size >= 2, got k={k}, "
                         f"size={size}")
    lg = math.log2(size)
    if name == "saf":
        return (k - 1) * (size - 2) * lg
    if name == "saf_cor":
        return k * size / 6 * lg
    if name == "mxpj":
        return ((size - 3) // 3) * (k - 3) * lg
    return size * k / 16 * lg


# ---------------------------------------------------------------------------
# inequality chains


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality chain at one parameter point."""

    chain: str
    k: int
    w: int | None
    d: int | None
    constants: Constants
    reduced_width: float
    lhs_log2: float
    rhs_log2: float
    margin: float
    in_regime: bool
    note: str = ""


def _chain_hi_n(k: int, w: int, constants: Constants):
    r = math.sqrt(w) / 2
    lhs = lower_log2("saf_cor", k, w)
    rhs = r * (1 + (2 * k - 1) * r)
    return r, lhs, rhs, lhs - rhs, k >= 2 and w >= 8, "constant-free"


def _chain_hi_p(k: int, w: int, constants: Constants):
    if k < 2 or w < 2:
        raise ValueError("the probabilistic chain needs k >= 2 and w >= 2")
    lk, lw = math.log2(k), math.log2(w)
    r = math.sqrt(w) / (lk * lw)
    lhs = lower_log2("saf_cor", k, w)
    inner = constants.c1 * k * (constants.c2 + 0.5 * lw - math.log2(lk)
                                - math.log2(lw) + lk)
    rhs = (2 * k + 1) * (w / (lk * lw) ** 2) * math.log2(inner)
    return (r, lhs, rhs, lhs - rhs, k >= 2 and r >= 1,
            "depends on C1, C2")


def _chain_hi_q(k: int, d: int, constants: Constants):
    r = math.sqrt(d / (constants.c1 * k))
    lhs = lower_log2("mxpj_cor", k, d)
    # r is 0 only when c1 * k overflows; check_chain rejects the nan
    rhs = constants.c * (k * r) ** 2 * math.log2(r) if r else math.nan
    margin = k / 16 * math.log2(constants.c1 * k)
    return (r, lhs, rhs, margin, r >= 1,
            "margin is the final reduced exponent assuming C1 = 8C; "
            "the raw side gap is d times larger")


def _chain_s5_obdd(k: int, d: int, constants: Constants):
    r = d / 32
    lhs = lower_log2("mxpj_cor", k, d)
    rhs = k * d * (math.log2(d) - 5) / 16
    return r, lhs, rhs, lhs - rhs, r >= 1, "constant-free"


def _chain_s5_nobdd(k: int, d: int, constants: Constants):
    ld = math.log2(d)
    r = math.sqrt(d * ld / 33)
    lhs = lower_log2("mxpj_cor", k, d)
    rhs = 2 * k * d * ld / 33
    return r, lhs, rhs, lhs - rhs, r >= 1, "constant-free"


def _chain_s5_pobdd(k: int, d: int, constants: Constants):
    if k < 2:
        raise ValueError("the probabilistic chain needs k >= 2")
    lk, ld = math.log2(k), math.log2(d)
    r = math.sqrt(d / lk)
    lhs = lower_log2("mxpj_cor", k, d)
    rhs = 2 * k * d * lk * (constants.c3 + lk
                            + math.log2(constants.c2 + ld + lk))
    return r, lhs, rhs, lhs - rhs, r >= 1, "depends on C2, C3"


def _chain_h_kobdd(k: int, w: int, constants: Constants):
    kappa, omega = k // 2, (w - 1) // 3
    r = w // 16 - 3
    if kappa < 1 or omega < 2:
        raise ValueError("witness parameters collapse below k=2, w=7")
    lhs = max(lower_log2("saf_cor", kappa, omega),
              lower_log2("saf", kappa, omega))
    rhs = ((k - 1) * r + 1) * math.log2(r) if r > 1 else 0.0
    return (r, lhs, rhs, lhs - rhs, k >= 2 and w >= 64,
            "re-derived witness; can go negative for odd k")


_CHAIN_FNS = {
    "hi-n": _chain_hi_n,
    "hi-p": _chain_hi_p,
    "hi-q": _chain_hi_q,
    "s5-obdd": _chain_s5_obdd,
    "s5-nobdd": _chain_s5_nobdd,
    "s5-pobdd": _chain_s5_pobdd,
    "h-kobdd": _chain_h_kobdd,
}


def check_chain(chain: str, *, k: int, w: int | None = None,
                d: int | None = None,
                constants: Constants = DEFAULT_CONSTANTS,
                strict: bool = True) -> BoundReport:
    """Evaluate one inequality chain at one parameter point.

    With strict=True a reduced width below 1 raises OutOfRegimeError;
    with strict=False the report still carries the margin and flags
    in_regime=False instead.
    """
    if chain not in _CHAIN_FNS:
        raise ValueError(f"unknown chain {chain!r}; "
                         f"choose from {', '.join(CHAINS)}")
    fn, size_name = _CHAIN_FNS[chain], CHAIN_SIZE[chain]
    size = w if size_name == "w" else d
    if size is None:
        raise ValueError(f"chain {chain} needs parameter {size_name}")
    if k < 1 or size < 2:
        raise ValueError(f"need k >= 1 and {size_name} >= 2")
    r, lhs, rhs, margin, in_regime, note = fn(k, size, constants)
    if not all(math.isfinite(v) for v in (r, lhs, rhs, margin)):
        raise ValueError(f"{chain} at k={k}, {size_name}={size}: reduced "
                         "width, lhs, rhs or margin is not finite under "
                         f"{constants!r}")
    if r < 1:
        if strict:
            raise OutOfRegimeError(
                f"{chain} at k={k}, {size_name}={size}: reduced width "
                f"{r:.4f} < 1, outside the separation's regime")
        in_regime = False
    return BoundReport(chain=chain, k=k,
                       w=size if size_name == "w" else None,
                       d=size if size_name == "d" else None,
                       constants=constants, reduced_width=r,
                       lhs_log2=lhs, rhs_log2=rhs, margin=margin,
                       in_regime=in_regime, note=note)


def default_grid(chain: str) -> list[dict[str, int]]:
    """The documented parameter grid of a chain, in canonical order."""
    if chain not in CHAIN_SIZE:
        raise ValueError(f"unknown chain {chain!r}")
    ks = range(2, 65)
    name = CHAIN_SIZE[chain]
    if chain == "h-kobdd":
        sizes = [1 << e for e in range(6, 11)]
    elif name == "w":
        sizes = [1 << e for e in range(3, 11)]
    else:
        sizes = [1 << e for e in range(4, 21)]
    return [{name: size, "k": k} for size in sizes for k in ks]


# ---------------------------------------------------------------------------
# desk-scale consistency of programs, counts, and bounds


@dataclass(frozen=True)
class EmpiricalBoundReport:
    model: str
    k: int
    width: int
    n_subfunctions: int
    bound_text: str
    holds: bool


def empirical_bound_check(p: Program, f: FunctionOracle) -> EmpiricalBoundReport:
    """Check exact N(f) against the bound at p's layer count and width.

    The comparison is exact: integer exponentiation where the bound's
    base and exponent are integral, a log2 comparison otherwise.
    """
    check_table_size(f.n)
    count = n_min(f)
    k, w = p.k, width(p)
    model = {"deterministic": "det", "nondeterministic": "nondet",
             "probabilistic": "prob", "quantum": "quantum"}[p.semantics]
    base, exponent = _bound_power(model, k, w, DEFAULT_CONSTANTS)
    if base == int(base) and exponent == int(exponent):
        holds = count <= int(base) ** int(exponent)
    else:
        holds = math.log2(count) <= exponent * math.log2(base)
    base_text = str(base) if isinstance(base, int) else f"({base:g})"
    exp_text = str(exponent) if isinstance(exponent, int) else f"{exponent:g}"
    return EmpiricalBoundReport(model=model, k=k, width=w,
                                n_subfunctions=count,
                                bound_text=f"{base_text}^{exp_text}",
                                holds=holds)
