"""Trit grid, polynomial evaluation and exact gate interpolation."""

import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.fourier as fr
import tritnet.network as nw

# Values below were computed independently (base-3 arithmetic by hand,
# Fraction-based linear solves) and frozen here on purpose: the tests
# must not re-derive them through the code under test.

NAMED_IDS = {
    "false": 0, "unknown": 9841, "true": 19682,
    "a": 19305, "b": 15897, "not_a": 377, "not_b": 3785,
    "and": 15633, "or": 19569, "nand": 4049, "nor": 113,
    "xor": 4017, "xnor": 15665, "implies": 15929, "implied_by": 19337,
}

AND_COEFFS = [0.0, 0.5, 0.5, 0.5, -0.5, -0.5, 0.0, 0.0, 0.5]
XOR_COEFFS = [0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def naive_poly(w, a, b):
    """Plain monomial dot product, the reference for the Horner scheme."""
    m = [1.0, a, b, a * b, a * a, b * b, a * a * b, a * b * b, a * a * b * b]
    return sum(float(c) * v for c, v in zip(w, m))


def eval_poly(w, a: float, b: float) -> float:
    """Evaluate p_w(a, b) for one neuron with 8 multiplications and 8
    additions, the scalar form of `al.eval_poly_many`.

    Nested Horner form: the coefficients are grouped by the power of
    `a`, each group is a quadratic in `b`.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (9,):
        raise ValueError(f"expected 9 coefficients, got shape {w.shape}")
    c0 = (w[5] * b + w[2]) * b + w[0]
    c1 = (w[7] * b + w[3]) * b + w[1]
    c2 = (w[8] * b + w[6]) * b + w[4]
    return float(c0 + a * (c1 + a * c2))


def table_of(w) -> np.ndarray:
    """Values of p_w on the input grid, as a 9-vector in grid order."""
    w = np.asarray(w, dtype=float)
    if w.shape != (9,):
        raise ValueError(f"expected 9 coefficients, got shape {w.shape}")
    return al.VANDERMONDE @ w


def round_to_trit(x: float) -> int:
    """Round to the nearest trit; ties at +-0.5 go away from zero."""
    v = math.copysign(math.floor(abs(x) + 0.5), x)
    return int(min(1.0, max(-1.0, v)))


def harden_neuron(w) -> int:
    """Gate id of the discrete gate nearest to the polynomial p_w."""
    return int(al.encode_tables(al.round_table(table_of(w))))


@dataclass(frozen=True)
class LatticeGeometry:
    """Distances of the uniform q-point lattice on [-1, 1].

    spacing is the gap between adjacent lattice values, epsilon the
    largest rounding error, covering_radius their product with q (the
    radius within which every point of the segment has a lattice value).
    """

    q: int
    spacing: float
    epsilon: float
    covering_radius: float


def lattice_geometry(q: int) -> LatticeGeometry:
    """Geometry of q equally spaced values spanning [-1, 1]."""
    if q < 2:
        raise ValueError(f"lattice needs at least 2 points, got q={q}")
    spacing = 2.0 / (q - 1)
    return LatticeGeometry(
        q=q, spacing=spacing, epsilon=spacing / 2.0, covering_radius=q / (q - 1)
    )


def test_grid_order_is_a_major():
    assert al.GRID_POINTS == (
        (-1, -1), (-1, 0), (-1, 1),
        (0, -1), (0, 0), (0, 1),
        (1, -1), (1, 0), (1, 1),
    )
    for i, (a, b) in enumerate(al.GRID_POINTS):
        assert al.grid_index(a, b) == i == 3 * (a + 1) + (b + 1)


def test_monomial_vector_matches_definition():
    rng = np.random.default_rng(7)
    for a, b in rng.normal(size=(20, 2)):
        m = al.monomials(a, b)
        expect = [1, a, b, a * b, a * a, b * b,
                  a * a * b, a * b * b, a * a * b * b]
        assert np.allclose(m, expect, atol=0)


def test_vandermonde_rows_are_grid_monomials():
    for i, (a, b) in enumerate(al.GRID_POINTS):
        assert np.array_equal(al.VANDERMONDE[i], al.monomials(a, b))
    assert set(np.unique(al.VANDERMONDE)) <= {-1.0, 0.0, 1.0}


def test_vandermonde_inverse_is_exact():
    eye = al.VANDERMONDE @ al.VANDERMONDE_INV
    assert np.array_equal(eye, np.eye(9))
    # every entry is a dyadic rational with denominator 1, 2 or 4,
    # so 4 * V^-1 must be exactly integral
    scaled = 4.0 * al.VANDERMONDE_INV
    assert np.array_equal(scaled, np.round(scaled))


# sha256 of `.tobytes()` of each basis constant, frozen: unlike an
# equality test it also pins the dtype and the sign of every zero.
BASIS_SHA256 = {
    (al, "VANDERMONDE"): "24b3ecd922d70d737ba294497e0487bba0af37d8141df9058b2669690de3ab19",
    (al, "VANDERMONDE_INV"): "0b68bac092f3ad9b4861a285b9250d6b13a74b5c70a9340accd2001205008e09",
    (fr, "PHI2"): "fad85ac30b906f83eb3f37da3840b59bb50de5dcf3403420de676614675c58aa",
    (fr, "SQ_NORMS"): "49f8b0befbbc35a412a2e130da20866290e7039325fb37a24f01a5e6145bc9f1",
    (fr, "TRANSFORM"): "ee7e0c0e20dcc8cb8baa732eda36005419f56aec2de9f7a678f9e5bd34d07bbe",
    (fr, "MONOMIAL_TO_FOURIER"): "3ea09db176003430ef357677b31e7a253b11c48abffed4e434260891e374179a",
    (fr, "TOTAL_DEGREE"): "79a116ae5a1e0402daa5bf81eaecbd009876c9b3e32e02a83b452a957fcdf38d",
    (nw, "GATE_BILINEAR"): "b427d88273c366ac9e1ed1cc5c7cec3b030984bb7aee4e6215805ba303307d99",
    (nw, "BOOLEAN_TABLES"): "af0abc387f879b3a38a1b3c9f6970387e8cb9a0f3ebef2718e36e550900fdeb3",
    (nw, "BOOLEAN_EMBEDDINGS"): "07ebd54514321487d787c299ef8c55abced0c1defdbf040a9206d392d39b97b8",
}


@pytest.mark.parametrize("module, name", BASIS_SHA256, ids=[n for _, n in BASIS_SHA256])
def test_basis_constants_keep_their_bytes(module, name):
    value = getattr(module, name)
    assert value.flags.c_contiguous
    assert hashlib.sha256(value.tobytes()).hexdigest() == BASIS_SHA256[module, name]


def test_horner_equals_naive_evaluation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.normal(size=9)
        a, b = rng.uniform(-1, 1, size=2)
        assert eval_poly(w, a, b) == pytest.approx(naive_poly(w, a, b),
                                                   rel=1e-12, abs=1e-12)


def test_eval_poly_many_matches_scalar_loop():
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=(5, 9))
    a = rng.uniform(-1, 1, size=(4, 5))
    b = rng.uniform(-1, 1, size=(4, 5))
    out = al.eval_poly_many(coeffs, a, b)
    assert out.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert out[i, j] == pytest.approx(
                eval_poly(coeffs[j], a[i, j], b[i, j]), rel=1e-12)


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(50):
        w = rng.normal(size=(3, 9))
        a = rng.uniform(-0.9, 0.9, size=3)
        b = rng.uniform(-0.9, 0.9, size=3)
        da, db = al.poly_input_grads(w, a, b)
        for j in range(3):
            fd_a = (eval_poly(w[j], a[j] + h, b[j])
                    - eval_poly(w[j], a[j] - h, b[j])) / (2 * h)
            fd_b = (eval_poly(w[j], a[j], b[j] + h)
                    - eval_poly(w[j], a[j], b[j] - h)) / (2 * h)
            assert da[j] == pytest.approx(fd_a, rel=1e-5, abs=1e-7)
            assert db[j] == pytest.approx(fd_b, rel=1e-5, abs=1e-7)


def test_gate_id_round_trip():
    rng = np.random.default_rng(3)
    ids = np.concatenate([[0, 9841, 19682, 1, 3, 19681],
                          rng.integers(0, al.N_GATES, size=500)])
    for gid in ids:
        tbl = al.decode_table(int(gid))
        assert len(tbl) == 9
        assert set(tbl) <= {-1, 0, 1}
        assert al.encode_table(tbl) == gid


def test_gate_id_is_base3_little_endian():
    rng = np.random.default_rng(4)
    for _ in range(100):
        tbl = rng.integers(-1, 2, size=9)
        expect = sum((int(v) + 1) * 3**i for i, v in enumerate(tbl))
        assert al.encode_table(tbl) == expect
    assert al.encode_table(np.zeros(9, dtype=int)) == 9841


def test_named_gate_ids_frozen():
    assert set(al.NAMED_GATES) == set(NAMED_IDS)
    for name, gid in NAMED_IDS.items():
        table = al.NAMED_GATES[name]
        assert table.dtype == np.int8 and table.shape == (9,)
        assert not table.flags.writeable
        assert al.encode_table(table) == gid


def test_interpolation_round_trip_and_frozen_coeffs():
    assert (al.VANDERMONDE_INV @ al.NAMED_GATES["and"]).tolist() == AND_COEFFS
    assert (al.VANDERMONDE_INV @ al.NAMED_GATES["xor"]).tolist() == XOR_COEFFS
    rng = np.random.default_rng(5)
    for _ in range(50):
        tbl = rng.integers(-1, 2, size=9)
        w = al.VANDERMONDE_INV @ tbl
        assert np.array_equal(table_of(w), tbl)


def test_exact_gates_evaluate_bit_exactly_on_trits():
    # dyadic coefficients and trit inputs keep everything exact in floats
    rng = np.random.default_rng(6)
    for _ in range(50):
        tbl = rng.integers(-1, 2, size=9)
        w = al.VANDERMONDE_INV @ tbl
        for i, (a, b) in enumerate(al.GRID_POINTS):
            assert eval_poly(w, float(a), float(b)) == float(tbl[i])


def test_frozen_point_evaluation():
    w = np.array(AND_COEFFS)
    assert eval_poly(w, 0.3, -0.7) == pytest.approx(-0.57295, abs=1e-12)


def test_round_to_trit_ties_away_from_zero():
    cases = {0.0: 0, 0.49: 0, 0.5: 1, 0.51: 1, -0.5: -1, -0.49: 0,
             1.2: 1, 2.7: 1, -3.0: -1, -0.501: -1, 1.49: 1, -1.51: -1}
    for x, want in cases.items():
        assert round_to_trit(x) == want, x
    arr = np.array(list(cases))
    assert np.array_equal(al.round_table(arr), [cases[x] for x in arr])


def test_harden_neuron_matches_round_of_exact_table():
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = rng.normal(size=9)
        gid = harden_neuron(w)
        tbl = al.round_table(al.VANDERMONDE @ w)
        assert gid == al.encode_table(tbl)


def test_corner_indices_are_the_four_binary_points():
    for i in al.CORNER_INDICES:
        a, b = al.GRID_POINTS[i]
        assert abs(a) == 1 and abs(b) == 1
    assert al.CORNER_INDICES == (0, 2, 6, 8)


def test_lattice_geometry():
    g3 = lattice_geometry(3)
    assert (g3.spacing, g3.epsilon, g3.covering_radius) == (1.0, 0.5, 1.5)
    g5 = lattice_geometry(5)
    assert g5.spacing == pytest.approx(0.5)
    assert g5.epsilon == pytest.approx(0.25)
    with pytest.raises(ValueError):
        lattice_geometry(1)


def test_kleene_tables_from_first_principles():
    AND = al.NAMED_GATES["and"]
    OR = al.NAMED_GATES["or"]
    XOR = al.NAMED_GATES["xor"]
    IMP = al.NAMED_GATES["implies"]
    for i, (a, b) in enumerate(al.GRID_POINTS):
        assert AND[i] == min(a, b)
        assert OR[i] == max(a, b)
        assert XOR[i] == min(max(a, b), max(-a, -b))
        assert IMP[i] == max(-a, b)
    assert np.array_equal(al.NAMED_GATES["nand"], -AND)
    assert np.array_equal(al.NAMED_GATES["xnor"], -XOR)


def test_all_tables_shape_and_agreement():
    tables = al.all_tables()
    assert tables.shape == (al.N_GATES, 9)
    ids = np.array([0, 1, 9841, 19682, 777])
    assert np.array_equal(tables[ids], np.stack([al.decode_table(int(i)) for i in ids]))
    assert np.array_equal(al.encode_tables(tables[ids]), ids)


@pytest.mark.parametrize("shape", [(1, 21), (21, 1), (3, 7), (7, 9, 11), (1000, 3), (97, 200)])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_unknown_share_is_the_mean_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    a = rng.integers(-1, 2, size=shape).astype(dtype)
    for zeros in range(a.size + 1) if a.size <= 21 else (1, a.size // 3, a.size - 1):
        a.flat[:] = 1
        a.flat[rng.choice(a.size, size=zeros, replace=False)] = 0
        want = float((a == 0).mean())
        for view in (a, a.T, a[::-1]):
            assert al.unknown_share(view) == want
            assert type(al.unknown_share(view)) is float
    inexact = np.zeros(21, dtype=dtype)
    inexact[1:] = 1  # 1/21 is not a binary fraction
    assert al.unknown_share(inexact) == float((inexact == 0).mean()) == 1 / 21


def test_unknown_share_of_nothing_is_nan():
    assert math.isnan(al.unknown_share(np.zeros((0, 5), dtype=np.int8)))


def test_unknown_share_allocates_less_than_the_array():
    import tracemalloc

    n, w = 4000, 200
    a = np.random.default_rng(9).integers(-1, 2, size=(n, w)).astype(np.int8)
    for view in (a, a[:, ::2], a.T):
        tracemalloc.start()
        try:
            share = al.unknown_share(view)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < view.size  # one byte per entry: less than `view == 0`
        assert share == float((view == 0).mean())
