"""Synthetic 2-D benchmark datasets and input encoders.

Generators produce balanced two-class point clouds with a seeded
numpy Generator, so a (kind, n, noise, seed) tuple is reproducible bit
for bit. The five kinds:

* moons: two interleaved half-circles of radius 1, the second offset
  by (1, 0.5), plus isotropic Gaussian noise;
* circles: concentric circles of radius 1 and 0.5 plus noise;
* spirals: two Archimedean arms making 1.5 turns, plus noise;
* gaussians: unit-covariance blobs with means (-sep/2, 0), (+sep/2, 0);
  the noise argument is ignored since the covariance is fixed, and the
  optimal accuracy has the closed form Phi(sep / 2);
* ring_sector: an annulus split into two angular sectors, plus noise.

Encoding quantizes each feature against K equally spaced thresholds
fitted on the training split. The ternary encoder adds a dead zone of
half-width delta * spacing / 2 around every threshold that emits
UNKNOWN; the binary encoder is a plain thermometer code. K thresholds
cut a feature range into K + 1 bins, so logs describe the setting as
resolution K + 1.

This module does no file I/O: `serialize` reads and writes dataset
files, native and CSV, and raises this module's `DataFormatError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .network import ARCHS

DATASET_KINDS = ("moons", "circles", "spirals", "gaussians", "ring_sector")


class DataFormatError(ValueError):
    """A data file failed to parse; the message names the location."""


@dataclass
class Dataset:
    """A labeled point cloud plus its generation metadata."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def d(self) -> int:
        return int(self.features.shape[1])


def _moons(n0, n1, noise, rng):
    t0 = rng.uniform(0.0, math.pi, size=n0)
    t1 = rng.uniform(0.0, math.pi, size=n1)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    return x0, x1


def _circles(n0, n1, noise, rng):
    t0 = rng.uniform(0.0, 2 * math.pi, size=n0)
    t1 = rng.uniform(0.0, 2 * math.pi, size=n1)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = 0.5 * np.stack([np.cos(t1), np.sin(t1)], axis=1)
    return x0, x1


def _spirals(n0, n1, noise, rng):
    def arm(n, phase):
        u = rng.uniform(0.0, 1.0, size=n)
        theta = 3.0 * math.pi * u + phase
        r = u
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)

    return arm(n0, 0.0), arm(n1, math.pi)


def _gaussians(n0, n1, sep, rng):
    x0 = rng.normal(size=(n0, 2)) + np.array([-sep / 2.0, 0.0])
    x1 = rng.normal(size=(n1, 2)) + np.array([sep / 2.0, 0.0])
    return x0, x1


def _ring_sector(n0, n1, noise, rng):
    def sector(n, lo, hi):
        r = rng.uniform(0.5, 1.5, size=n)
        t = rng.uniform(lo, hi, size=n)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

    return sector(n0, 0.0, math.pi), sector(n1, math.pi, 2 * math.pi)


_GENERATORS = {"moons": _moons, "circles": _circles, "spirals": _spirals,
               "gaussians": _gaussians, "ring_sector": _ring_sector}


def gen_dataset(kind: str, n: int, noise: float, seed: int,
                sep: float = 2.0) -> Dataset:
    """Generate one balanced dataset of n points.

    `sep` only applies to the gaussians kind, where it is the distance
    between the class means in units of the (unit) class spread.
    """
    kind = kind.lower()
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}, expected one of "
                         f"{DATASET_KINDS}")
    if n < 2:
        raise ValueError(f"need at least 2 points, got n={n}")
    if not 0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    if kind == "gaussians" and not 0 <= sep < math.inf:
        raise ValueError(f"sep must be finite and >= 0, got {sep}")
    rng = np.random.default_rng(seed)
    n0 = n // 2 + n % 2
    n1 = n // 2
    x0, x1 = _GENERATORS[kind](n0, n1, sep if kind == "gaussians" else noise, rng)
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    if kind != "gaussians" and noise > 0:
        x = x + rng.normal(0.0, noise, size=x.shape)
    perm = rng.permutation(n)
    meta = {"kind": kind, "n": n, "noise": noise, "seed": seed}
    if kind == "gaussians":
        meta["sep"] = sep
    return Dataset(features=x[perm], labels=y[perm], meta=meta)


def split_dataset(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Split the first n_train points off as the training set."""
    if not 0 < n_train < ds.n:
        raise ValueError(f"n_train must be in (0, {ds.n}), got {n_train}")
    tr = Dataset(ds.features[:n_train], ds.labels[:n_train],
                 dict(ds.meta, split="train", n=n_train))
    te = Dataset(ds.features[n_train:], ds.labels[n_train:],
                 dict(ds.meta, split="test", n=ds.n - n_train))
    return tr, te


def bayes_accuracy_gaussians(sep: float) -> float:
    """Optimal accuracy for the gaussians generator: Phi(sep / 2)."""
    if not 0 <= sep < math.inf:
        raise ValueError(f"sep must be finite and >= 0, got {sep}")
    return 0.5 * (1.0 + math.erf(sep / 2.0 / math.sqrt(2.0)))


@dataclass(frozen=True)
class EncoderConfig:
    """Threshold encoder fitted on a training split.

    mode is the architecture the codes feed, a key of `network.ARCHS`:
    "ternary" (trits with an UNKNOWN dead zone) or "binary" (thermometer
    bits). lo/hi are the per-feature value ranges the thresholds were
    spread over.
    """

    mode: str
    thresholds_per_feature: int  # K
    delta: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if self.mode not in ARCHS:
            raise ValueError(f"mode must be one of {sorted(ARCHS)}, got {self.mode!r}")
        if algebra.exact_int(self.thresholds_per_feature, "thresholds_per_feature") < 1:
            raise ValueError("need at least 1 threshold per feature")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be >= 0 and finite, got {self.delta}")
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if not all(-math.inf < lo <= hi < math.inf for lo, hi in zip(self.lo, self.hi)):
            raise ValueError(f"lo {self.lo} and hi {self.hi} must be finite, lo <= hi")

    @property
    def encoded_dim(self) -> int:
        return len(self.lo) * self.thresholds_per_feature

    def feature_thresholds(self, j: int) -> np.ndarray:
        """The K interior thresholds of feature j, equally spaced."""
        k = self.thresholds_per_feature
        lo, hi = self.lo[j], self.hi[j]
        return lo + (hi - lo) * np.arange(1, k + 1) / (k + 1)

    def feature_halfband(self, j: int) -> float:
        """Half-width of the UNKNOWN dead zone around each threshold."""
        spacing = (self.hi[j] - self.lo[j]) / (self.thresholds_per_feature + 1)
        return self.delta * spacing / 2.0


def fit_encoder(train_features: np.ndarray, thresholds_per_feature: int,
                delta: float, mode: str = "ternary") -> EncoderConfig:
    """Fit per-feature ranges on the training split."""
    x = np.atleast_2d(np.asarray(train_features, dtype=float))
    if x.shape[0] == 0:
        raise ValueError("cannot fit an encoder on an empty split")
    if not np.isfinite(x).all():
        raise ValueError("training features contain non-finite values")
    return EncoderConfig(
        mode=mode,
        thresholds_per_feature=thresholds_per_feature,
        delta=delta,
        lo=tuple(float(v) for v in x.min(axis=0)),
        hi=tuple(float(v) for v in x.max(axis=0)),
    )


def encode(x, cfg: EncoderConfig) -> np.ndarray:
    """Encode raw features against the fitted thresholds.

    Returns int8 codes of shape (n, d * K), features blocked together
    in order. Ternary mode emits +1 above threshold + halfband, -1
    below threshold - halfband, 0 inside the dead zone; binary mode
    emits the thermometer bit (x > threshold). Features must be finite,
    as in `fit_encoder`; values outside the fitted range saturate.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d, k = len(cfg.lo), cfg.thresholds_per_feature
    if x.shape[1] != d:
        raise ValueError(f"encoder fitted on {d} features, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values")
    theta = np.array([cfg.feature_thresholds(j) for j in range(d)]).reshape(d, k)
    v = x[:, :, None]
    codes = np.empty((x.shape[0], d, k), dtype=np.int8)
    if cfg.mode == "ternary":
        # beta >= 0 keeps the two bands disjoint
        beta = np.array([cfg.feature_halfband(j) for j in range(d)])[:, None]
        np.subtract((v > theta + beta).view(np.int8), (v < theta - beta).view(np.int8),
                    out=codes)
    else:
        np.greater(v, theta, out=codes)
    return codes.reshape(x.shape[0], d * k)
