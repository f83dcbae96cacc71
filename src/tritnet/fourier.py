"""Orthogonal function analysis of ternary gates.

Functions on the three-point domain T = {-1, 0, +1} are spanned by the
orthogonal family

    phi_0(x) = 1,    phi_1(x) = x,    phi_2(x) = x^2 - 2/3,

with squared norms 1, 2/3 and 2/9 under the uniform inner product
<f, g> = (1/3) sum_x f(x) g(x). Two-input gates use the products
Phi_ij(x, y) = phi_i(x) phi_j(y) under the uniform inner product over
the 9-point grid; the squared norms multiply. A truth table t then has
the expansion

    t = sum_ij fhat_ij Phi_ij,    fhat_ij = <t, Phi_ij> / ||Phi_ij||^2,

and the coefficient vector fhat exposes the structure of a gate: which
inputs it reads, whether it gates one input by the other, and whether
it uses the squared (UNKNOWN-detecting) terms. Coefficients are stored
as 9-vectors ordered by (i, j) with i outer, index 3*i + j.

That is a Kronecker product's order, and each two-input matrix here is
the Kronecker square of its univariate one: PHI2 of PHI_VALUES,
SQ_NORMS of PHI_SQ_NORMS, and the map from monomial coefficients of the
expansions of 1, x and x^2 in phi_0..phi_2, with its columns put in
the coefficient order `algebra.MONOMIAL_POWERS`.
"""

from __future__ import annotations

import numpy as np

from . import algebra

#: phi_i evaluated at x = -1, 0, +1; row i is the i-th basis function.
PHI_VALUES = np.array(
    [
        [1.0, 1.0, 1.0],
        [-1.0, 0.0, 1.0],
        [1.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0],
    ]
)

#: Squared norms of phi_0, phi_1, phi_2 under <f, g> = (1/3) sum f g.
PHI_SQ_NORMS = np.array([1.0, 2.0 / 3.0, 2.0 / 9.0])

#: Index pairs in storage order: position 3*i + j holds (i, j).
INDEX_PAIRS = tuple((i, j) for i in range(3) for j in range(3))

#: PHI2[3*i + j, g] = Phi_ij evaluated at the g-th grid point.
PHI2 = np.kron(PHI_VALUES, PHI_VALUES)

#: Squared norms of the bivariate family, products of univariate norms.
SQ_NORMS = np.kron(PHI_SQ_NORMS, PHI_SQ_NORMS)

#: Matrix of the forward transform: fhat = TRANSFORM @ table.
TRANSFORM = PHI2 / (9.0 * SQ_NORMS[:, None])

#: Total degree of Phi_ij, used to assign coefficients to energy bands.
TOTAL_DEGREE = np.add.outer(np.arange(3), np.arange(3)).ravel()

BAND_NAMES = ("const", "linear", "quad", "cubic", "quartic")

#: U[i, p] = coefficient of phi_i in x**p: 1 = phi_0, x = phi_1 and
#: x^2 = phi_2 + (2/3) phi_0.
_U = np.array([[1.0, 0.0, 2.0 / 3.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

#: MONOMIAL_TO_FOURIER @ w gives the fhat vector of p_w directly: the
#: exact expansion of each monomial a**p b**q, kron(U, U)'s column
#: 3*p + q, by separability rather than through truth-table values.
MONOMIAL_TO_FOURIER = np.ascontiguousarray(np.kron(_U, _U)[:, algebra.KRON_INDEX])


def fourier_transform(table) -> np.ndarray:
    """Coefficients fhat of a real-valued table, in (i outer, j) order;
    a (..., 9) stack of tables gives, bit for bit, each table's fhat."""
    t = np.asarray(table, dtype=float)
    if t.shape[-1:] != (9,):
        raise ValueError(f"expected 9-entry tables, got shape {t.shape}")
    return np.matmul(TRANSFORM, t[..., None])[..., 0]


# Index positions by name, for readability below.
_IJ = {f"{i}{j}": 3 * i + j for i, j in INDEX_PAIRS}
_PURE_QUAD = [_IJ["20"], _IJ["02"]]
_HIGHER_MIXED = [_IJ["21"], _IJ["12"], _IJ["22"]]

SPECTRAL_CLASSES = ("LINEAR", "BILINEAR", "QUADRATIC", "FULL")

#: Coefficients of absolute value at most this count as zero in
#: `spectral_class`, far above the rounding error of a table's transform.
SUPPORT_TOL = 1e-9


def spectral_class(fhat) -> np.ndarray:
    """Coarse shape of a spectrum: LINEAR, BILINEAR, QUADRATIC or FULL.

    LINEAR spectra live on {00, 10, 01}; BILINEAR ones additionally use
    the 11 term; QUADRATIC ones bring in 20 or 02 but none of the mixed
    terms above degree 2; everything else is FULL. Coefficients with
    absolute value at most SUPPORT_TOL count as zero. A (..., 9) stack
    of spectra gives a (...)-shaped array of class names.
    """
    f = np.asarray(fhat, dtype=float)
    if f.shape[-1:] != (9,):
        raise ValueError(f"expected 9 coefficients, got shape {f.shape}")
    support = np.abs(f) > SUPPORT_TOL
    bilinear = support[..., _IJ["11"]]
    quad = support[..., _PURE_QUAD].any(axis=-1)
    mixed = support[..., _HIGHER_MIXED].any(axis=-1)
    # Each spectrum takes the first class whose support test holds.
    index = np.select([~(bilinear | quad | mixed), ~(quad | mixed), quad & ~mixed],
                      [0, 1, 2], 3)
    return np.asarray(SPECTRAL_CLASSES)[index]


def spectral_energy_bands(fhat) -> dict[str, np.ndarray]:
    """Squared-coefficient energy split by total degree of Phi_ij.

    Bands are const (degree 0), linear (1), quad (2), cubic (3) and
    quartic (4). The five band values are normalized to sum to 1; the
    returned dict also carries the unnormalized total under "total".
    A zero spectrum yields all-zero bands with total 0, which callers
    should treat as a flag rather than a profile. A (..., 9) stack of
    spectra gives (...)-shaped values.
    """
    f = np.asarray(fhat, dtype=float)
    if f.shape[-1:] != (9,):
        raise ValueError(f"expected 9 coefficients, got shape {f.shape}")
    energy = f * f
    total = energy.sum(axis=-1)
    bands = {name: np.divide(energy[..., TOTAL_DEGREE == deg].sum(axis=-1), total,
                             out=np.zeros_like(total), where=total > 0.0)
             for deg, name in enumerate(BAND_NAMES)}
    bands["total"] = total
    return bands
