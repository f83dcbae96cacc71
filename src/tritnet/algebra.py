"""Exact arithmetic for two-input ternary logic gates.

Truth values live in the ternary domain T = {-1, 0, +1}, read as FALSE,
UNKNOWN, TRUE. A two-input gate is a function T x T -> T, so there are
3**9 = 19,683 of them, one per 9-entry truth table. Every such table is
reproduced exactly by a degree-(2, 2) polynomial

    p_w(a, b) = w . m(a, b),    m_k(a, b) = a^p b^q,  (p, q) = MONOMIAL_POWERS[k],

because the 9 x 9 matrix V that evaluates the monomials on the 3 x 3
input grid is invertible. V is the Kronecker square of the 3 x 3
univariate Vandermonde matrix P[x, p] = x**p, its columns put in the
coefficient order `MONOMIAL_POWERS`; so its inverse is the Kronecker
square of P's inverse, whose entries are 0, +-1/2 and +-1, and is exact
in floating point by construction. This module owns that
correspondence: the canonical grid order, V and its inverse,
truth-table encoding, the curated Kleene gates, and the rounding step
that turns a trained polynomial back into a discrete gate.

Conventions fixed here and relied on everywhere else:

* grid order is row-major with `a` outer and `b` inner, so a table
  entry for inputs (a, b) sits at index 3*(a + 1) + (b + 1);
* gate ids are base-3 little-endian: id = sum_i (entries[i] + 1) * 3^i,
  hence id in [0, 19682];
* rounding to a trit maps x to the nearest of {-1, 0, +1} and breaks
  the ties at +-0.5 away from zero.
"""

from __future__ import annotations

import math

import numpy as np

TRIT_VALUES = (-1, 0, 1)

FALSE = -1
UNKNOWN = 0
TRUE = 1

N_GATES = 3**9

# Grid points in canonical order: index 3*(a+1) + (b+1).
GRID_POINTS = tuple((a, b) for a in TRIT_VALUES for b in TRIT_VALUES)

# Indices of the four Boolean corners (a, b in {-1, +1}) within the grid.
CORNER_INDICES = (0, 2, 6, 8)


def unknown_share(trits) -> float:
    """Share of UNKNOWN entries in an array of trits.

    One count and one correctly rounded division: the same float as
    `(trits == 0).mean()`, without an array of the input's shape.
    """
    a = np.asarray(trits)
    return (a.size - int(np.count_nonzero(a))) / a.size if a.size else math.nan


def exact_ints(x: np.ndarray, lo: int, hi: int, message: str) -> np.ndarray:
    """`x` as integers if every entry is an integer in [lo, hi], else a
    ValueError with `message`. Integer arrays are checked in their own
    dtype; others must convert to int64 unchanged, so none is truncated."""
    xi = x if x.dtype.kind in "iu" else x.astype(np.int64)
    if x.size and (xi.min() < lo or xi.max() > hi or (xi is not x and np.any(xi != x))):
        raise ValueError(message)
    return xi


def exact_int(value, name: str) -> int:
    """`value` as an int if it is a Python or numpy integer, else a
    ValueError naming `name`; no other number is truncated."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def grid_index(a: int, b: int) -> int:
    """Canonical position of input pair (a, b) in a 9-entry table."""
    if a not in TRIT_VALUES or b not in TRIT_VALUES:
        raise ValueError(f"inputs must be trits, got ({a!r}, {b!r})")
    return 3 * (a + 1) + (b + 1)


def monomials(a: float, b: float) -> np.ndarray:
    """The 9 monomial features of one input pair, in coefficient order."""
    return np.array(
        [1.0, a, b, a * b, a * a, b * b, a * a * b, a * b * b, a * a * b * b]
    )


#: Coefficient k of a degree-(2, 2) polynomial multiplies a**p * b**q,
#: where (p, q) = MONOMIAL_POWERS[k]; `monomials` lists the same order.
MONOMIAL_POWERS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2))

#: Position 3*p + q of coefficient k in the (p outer, q) order of the
#: rows or columns of a Kronecker square kron(M, M).
KRON_INDEX = np.array([3 * p + q for p, q in MONOMIAL_POWERS])
_COEFF_AT = np.argsort(KRON_INDEX)  # the coefficient at each such position

# The univariate Vandermonde matrix P[x, p] = x**p at x = -1, 0, +1, and
# its inverse, whose entries are dyadic and so exact in float64.
_P = np.vander(np.array(TRIT_VALUES, dtype=float), 3, increasing=True)
_P_INV = np.array([[0.0, 1.0, 0.0], [-0.5, 0.0, 0.5], [0.5, -1.0, 0.5]])

# `+ 0.0` makes +0.0 of the -0.0 a Kronecker product leaves where a
# negative entry meets a zero. The tests freeze both matrices' bytes,
# and both are C-ordered, the layout the products reading them expect.

#: V[g, k] = monomial k evaluated at the g-th grid point, so that a
#: coefficient vector w has truth-table values V @ w.
VANDERMONDE = np.ascontiguousarray(np.kron(_P, _P)[:, KRON_INDEX]) + 0.0

#: Inverse of V: the Kronecker square of P's inverse, exact by construction.
VANDERMONDE_INV = np.kron(_P_INV, _P_INV)[KRON_INDEX] + 0.0


def _horner2(c, x):
    """c[0] + c[1] x + c[2] x^2 as (c[2] * x + c[1]) * x + c[0], computed
    in one new array."""
    t = c[2] * x
    t += c[1]
    t *= x
    t += c[0]
    return t


def _power_grid(coeffs):
    """Per-neuron coefficients (n, 9) as w[p, q], a C-ordered (3, 3, n)
    array whose [p, q] row holds every neuron's a**p b**q coefficient."""
    return np.ascontiguousarray(coeffs.T[_COEFF_AT]).reshape(3, 3, -1)


def eval_poly_many(coeffs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized p_w for per-neuron coefficients and batched inputs.

    `coeffs` has shape (n, 9); `a` and `b` have the same shape (..., n)
    and hold the two parent values of each neuron. Returns an array of
    shape (..., n). Nested Horner form, 8 multiplications and 8
    additions done in place: the coefficients w[p, q] are grouped by the
    power p of `a`, each group is a quadratic in `b`,

        p_w = c_0 + a (c_1 + a c_2),   c_p = (w[p, 2] b + w[p, 1]) b + w[p, 0].
    """
    w = _power_grid(coeffs)
    out = _horner2(w[2], b)
    out *= a
    out += _horner2(w[1], b)
    out *= a
    out += _horner2(w[0], b)
    return out


def poly_input_grads(coeffs: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Partial derivatives of p_w with respect to its two inputs.

    Shapes follow `eval_poly_many`. Returns (dp/da, dp/db), where with
    c_p(b) = sum_q w[p, q] b^q and r_q(a) = sum_p w[p, q] a^p

        dp/da = c_1(b) + 2a c_2(b),    dp/db = r_1(a) + 2b r_2(a).
    """
    w = _power_grid(coeffs)
    da = _horner2(w[2], b)
    da *= 2.0 * a
    da += _horner2(w[1], b)
    db = _horner2(w[:, 2], a)
    db *= 2.0 * b
    db += _horner2(w[:, 1], a)
    return da, db


def round_table(values: np.ndarray) -> np.ndarray:
    """Round each value to the nearest trit, ties at +-0.5 away from zero.

    Returned as int8.
    """
    v = np.sign(values) * np.floor(np.abs(values) + 0.5)
    return np.clip(v, -1, 1).astype(np.int8)


def encode_table(entries) -> int:
    """Pack 9 trits (grid order) into a gate id, base-3 little-endian."""
    entries = tuple(int(e) for e in entries)
    if len(entries) != 9:
        raise ValueError(f"expected 9 entries, got {len(entries)}")
    gid = 0
    for i, e in enumerate(entries):
        if e not in TRIT_VALUES:
            raise ValueError(f"entry {i} is {e}, not a trit")
        gid += (e + 1) * 3**i
    return gid


def decode_table(gate_id: int) -> tuple[int, ...]:
    """Inverse of `encode_table`."""
    gid = int(gate_id)
    if not 0 <= gid < N_GATES:
        raise ValueError(f"gate id {gate_id} out of range [0, {N_GATES - 1}]")
    entries = []
    for _ in range(9):
        entries.append(gid % 3 - 1)
        gid //= 3
    return tuple(entries)


def decode_tables(gate_ids) -> np.ndarray:
    """Vectorized `decode_table`: gate ids of shape s -> int8 (*s, 9)."""
    ids = np.asarray(gate_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= N_GATES):
        raise ValueError(f"gate ids must lie in [0, {N_GATES - 1}]")
    digits = (ids[..., None] // 3 ** np.arange(9)) % 3
    return (digits - 1).astype(np.int8)


def all_tables() -> np.ndarray:
    """All 19,683 truth tables as an int8 array of shape (3^9, 9)."""
    return decode_tables(np.arange(N_GATES))


def encode_tables(tables: np.ndarray) -> np.ndarray:
    """Vectorized `encode_table` over an (n, 9) trit array."""
    t = np.asarray(tables)
    return ((t + 1) * 3 ** np.arange(9)).sum(axis=-1)


def _table(fn) -> np.ndarray:
    """Read-only int8 table of fn(a, b) over the grid, in grid order."""
    t = np.array([fn(a, b) for a, b in GRID_POINTS], dtype=np.int8)
    t.flags.writeable = False
    return t


#: Curated gates by name, as read-only int8 (9,) tables in grid order.
#: AND/OR are Kleene min/max; the derived gates are built from min, max
#: and negation in the usual strong-Kleene way.
NAMED_GATES: dict[str, np.ndarray] = {name: _table(fn) for name, fn in {
    "false": lambda a, b: FALSE,
    "unknown": lambda a, b: UNKNOWN,
    "true": lambda a, b: TRUE,
    "a": lambda a, b: a,
    "b": lambda a, b: b,
    "not_a": lambda a, b: -a,
    "not_b": lambda a, b: -b,
    "and": min,
    "or": max,
    "nand": lambda a, b: -min(a, b),
    "nor": lambda a, b: -max(a, b),
    "xor": lambda a, b: max(min(a, -b), min(-a, b)),
    "xnor": lambda a, b: -max(min(a, -b), min(-a, b)),
    "implies": lambda a, b: max(-a, b),
    "implied_by": lambda a, b: max(a, -b),
}.items()}
