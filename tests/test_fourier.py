"""Orthogonal polynomial basis over the trit grid.

Frozen constants in this file come from an independent Fraction
computation (explicit nine-point sums over the grid), not from the
module under test.
"""

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.fourier as fr

GRAM_DIAG = [1, 2 / 3, 2 / 9, 2 / 3, 4 / 9, 4 / 27, 2 / 9, 4 / 27, 4 / 81]

# spectrum of the Kleene AND (pointwise min) table
AND_FHAT = [-4 / 9, 1 / 2, -1 / 6, 1 / 2, 1 / 2, 0, -1 / 6, 0, 1 / 2]


def grid_mean(values):
    return float(np.mean(values))


def test_univariate_norms():
    # phi_0 = 1, phi_1 = x, phi_2 = x^2 - 2/3 over x in {-1, 0, 1}
    xs = np.array([-1.0, 0.0, 1.0])
    phis = [np.ones(3), xs, xs**2 - 2 / 3]
    for i, p in enumerate(phis):
        assert grid_mean(p * p) == pytest.approx(fr.PHI_SQ_NORMS[i], abs=1e-15)
        for j in range(i):
            assert grid_mean(p * phis[j]) == pytest.approx(0.0, abs=1e-15)


def test_bivariate_gram_is_diagonal():
    gram = (fr.PHI2 @ fr.PHI2.T) / 9.0
    assert np.allclose(np.diag(gram), GRAM_DIAG, atol=1e-15)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-15
    assert np.allclose(fr.SQ_NORMS, GRAM_DIAG, atol=1e-15)


def test_index_pairs_order():
    assert list(fr.INDEX_PAIRS) == [(i, j) for i in range(3) for j in range(3)]
    assert list(fr.TOTAL_DEGREE) == [i + j for i, j in fr.INDEX_PAIRS]


def test_transform_of_kleene_and_frozen():
    tbl = al.NAMED_GATES["and"].astype(float)
    fhat = fr.fourier_transform(tbl)
    assert np.allclose(fhat, AND_FHAT, atol=1e-12)


def test_transform_inverse_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        tbl = rng.normal(size=9)
        fhat = fr.fourier_transform(tbl)
        back = fr.PHI2.T @ fhat
        assert np.allclose(back, tbl, atol=1e-12)


def test_transform_matches_linear_solve():
    # solving the normal equations directly is an independent route
    rng = np.random.default_rng(2)
    basis = fr.PHI2.T  # (9 points, 9 functions)
    for _ in range(20):
        tbl = rng.normal(size=9)
        coeffs = np.linalg.solve(basis, tbl)
        assert np.allclose(fr.fourier_transform(tbl), coeffs, atol=1e-10)


def test_parseval():
    rng = np.random.default_rng(3)
    for _ in range(100):
        tbl = rng.integers(-1, 2, size=9).astype(float)
        fhat = fr.fourier_transform(tbl)
        mean_sq = grid_mean(tbl * tbl)
        energy = float(np.sum(fhat * fhat * fr.SQ_NORMS))
        assert energy == pytest.approx(mean_sq, abs=1e-12)


def test_single_basis_function_transforms_to_one_hot():
    for r in range(9):
        tbl = fr.PHI2[r]
        fhat = fr.fourier_transform(tbl)
        want = np.zeros(9)
        want[r] = 1.0
        assert np.allclose(fhat, want, atol=1e-12)


def test_monomial_to_fourier_map():
    # check the exact expansion of every monomial against a direct
    # transform of its value table
    rng = np.random.default_rng(4)
    a = np.array([p[0] for p in al.GRID_POINTS], dtype=float)
    b = np.array([p[1] for p in al.GRID_POINTS], dtype=float)
    monos = np.stack([np.ones(9), a, b, a * b, a**2, b**2,
                      a**2 * b, a * b**2, a**2 * b**2])
    for k in range(9):
        direct = fr.fourier_transform(monos[k])
        assert np.allclose(fr.MONOMIAL_TO_FOURIER[:, k], direct, atol=1e-12)
    # linearity: random polynomial coefficients
    for _ in range(20):
        w = rng.normal(size=9)
        tbl = w @ monos
        assert np.allclose(fr.MONOMIAL_TO_FOURIER @ w,
                           fr.fourier_transform(tbl), atol=1e-10)


def test_monomial_a2b_expansion_frozen():
    fhat = fr.MONOMIAL_TO_FOURIER[:, 6]  # the a^2 b monomial
    nonzero = {fr.INDEX_PAIRS[r]: fhat[r] for r in range(9) if fhat[r] != 0}
    assert nonzero == {(0, 1): pytest.approx(2 / 3), (2, 1): pytest.approx(1.0)}


def test_spectral_class_boundaries():
    def fhat_with(pairs):
        f = np.zeros(9)
        for p in pairs:
            f[fr.INDEX_PAIRS.index(p)] = 1.0
        return f

    assert fr.spectral_class(fhat_with([(0, 0)])) == "LINEAR"
    assert fr.spectral_class(fhat_with([(1, 0), (0, 1)])) == "LINEAR"
    assert fr.spectral_class(fhat_with([(1, 1)])) == "BILINEAR"
    assert fr.spectral_class(fhat_with([(1, 0), (1, 1)])) == "BILINEAR"
    assert fr.spectral_class(fhat_with([(2, 0)])) == "QUADRATIC"
    assert fr.spectral_class(fhat_with([(0, 2), (1, 1)])) == "QUADRATIC"
    assert fr.spectral_class(fhat_with([(2, 1)])) == "FULL"
    assert fr.spectral_class(fhat_with([(2, 2)])) == "FULL"
    # tolerance: tiny coefficients do not bump the class
    f = fhat_with([(1, 0)])
    f[fr.INDEX_PAIRS.index((2, 2))] = 1e-12
    assert fr.spectral_class(f) == "LINEAR"


def set_spectral_class(fhat, tol=1e-9):
    """The scalar set-test rule spectral_class replaced, kept as its oracle."""
    linear = {0, 1, 3}  # 00, 01, 10
    bilinear = linear | {4}  # + 11
    pure_quad, higher_mixed = {2, 6}, {5, 7, 8}  # 02, 20; 12, 21, 22
    support = {int(i) for i in np.flatnonzero(np.abs(fhat) > tol)}
    if support <= linear:
        return "LINEAR"
    if support <= bilinear:
        return "BILINEAR"
    if support & pure_quad and not (support & higher_mixed):
        return "QUADRATIC"
    return "FULL"


def test_spectral_class_matches_the_set_rule_on_every_support():
    # every one of the 2^9 supports, with tiny entries off the support
    masks = (np.arange(512)[:, None] >> np.arange(9)) & 1
    rng = np.random.default_rng(3)
    stack = np.where(masks == 1, rng.choice([-1.0, 0.5, 2.0], size=(512, 9)),
                     rng.uniform(-1e-10, 1e-10, size=(512, 9)))
    want = [set_spectral_class(f) for f in stack]
    assert fr.spectral_class(stack).tolist() == want
    assert fr.spectral_class(stack.reshape(8, 64, 9)).tolist() == np.reshape(
        want, (8, 64)).tolist()
    assert [fr.spectral_class(f) for f in stack] == want
    with pytest.raises(ValueError):
        fr.spectral_class(np.zeros(8))


def test_energy_bands_sum_to_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        tbl = rng.integers(-1, 2, size=9).astype(float)
        fhat = fr.fourier_transform(tbl)
        bands = fr.spectral_energy_bands(fhat)
        shares = [bands[k] for k in ("const", "linear", "quad", "cubic",
                                     "quartic")]
        if bands["total"] > 0:
            assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        else:
            assert shares == [0.0] * 5


def test_energy_bands_group_by_total_degree():
    f = np.zeros(9)
    f[fr.INDEX_PAIRS.index((1, 1))] = 2.0   # degree 2
    f[fr.INDEX_PAIRS.index((0, 1))] = 1.0   # degree 1
    bands = fr.spectral_energy_bands(f)
    assert bands["total"] == pytest.approx(5.0)
    assert bands["linear"] == pytest.approx(1 / 5)
    assert bands["quad"] == pytest.approx(4 / 5)
    assert bands["const"] == bands["cubic"] == bands["quartic"] == 0.0
