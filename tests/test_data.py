"""Synthetic generators, threshold encoders, and CSV files read by
`serialize.load_dataset`."""

import math

import numpy as np
import pytest

import tritnet.algebra as al
import tritnet.data as dt
import tritnet.serialize as sz


def test_kinds_and_validation():
    assert set(dt.DATASET_KINDS) == {"moons", "circles", "spirals",
                                     "gaussians", "ring_sector"}
    with pytest.raises(ValueError):
        dt.gen_dataset("blobs", 100, 0.1, 0)
    with pytest.raises(ValueError):
        dt.gen_dataset("moons", 1, 0.1, 0)
    with pytest.raises(ValueError):
        dt.gen_dataset("moons", 100, -0.1, 0)


def test_balance_and_shapes():
    for n in (10, 11):
        ds = dt.gen_dataset("circles", n, 0.0, 0)
        assert ds.features.shape == (n, 2)
        assert ds.labels.shape == (n,)
        counts = np.bincount(ds.labels, minlength=2)
        assert counts[0] == n // 2 + n % 2
        assert counts[1] == n // 2
    assert ds.d == 2 and ds.n == 11


def test_generators_are_deterministic():
    for kind in dt.DATASET_KINDS:
        a = dt.gen_dataset(kind, 60, 0.3, 5)
        b = dt.gen_dataset(kind, 60, 0.3, 5)
        c = dt.gen_dataset(kind, 60, 0.3, 6)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)


def test_moons_geometry_noise_free():
    ds = dt.gen_dataset("moons", 400, 0.0, 1)
    x0 = ds.features[ds.labels == 0]
    x1 = ds.features[ds.labels == 1]
    # class 0 sits on the unit upper semicircle
    assert np.allclose(np.hypot(x0[:, 0], x0[:, 1]), 1.0, atol=1e-12)
    assert x0[:, 1].min() >= -1e-12
    # class 1 is that arc flipped and shifted by (1, 0.5)
    assert np.allclose(np.hypot(x1[:, 0] - 1.0, x1[:, 1] - 0.5), 1.0,
                       atol=1e-12)
    assert x1[:, 1].max() <= 0.5 + 1e-12


def test_circles_radii():
    ds = dt.gen_dataset("circles", 300, 0.0, 2)
    r = np.hypot(ds.features[:, 0], ds.features[:, 1])
    assert np.allclose(r[ds.labels == 0], 1.0, atol=1e-12)
    assert np.allclose(r[ds.labels == 1], 0.5, atol=1e-12)


def test_spirals_radius_tracks_angle():
    ds = dt.gen_dataset("spirals", 300, 0.0, 3)
    x = ds.features
    r = np.hypot(x[:, 0], x[:, 1])
    theta = np.arctan2(x[:, 1], x[:, 0])
    phase = np.where(ds.labels == 0, 0.0, math.pi)
    # unwrap: radius times full turn count recovers the raw angle
    raw = 3 * math.pi * r
    assert np.allclose(np.mod(raw + phase, 2 * math.pi),
                       np.mod(theta, 2 * math.pi), atol=1e-9)
    assert r.max() <= 1 + 1e-12


def test_gaussians_means_and_sep():
    ds = dt.gen_dataset("gaussians", 4000, 0.7, 4, sep=3.0)
    x0 = ds.features[ds.labels == 0]
    x1 = ds.features[ds.labels == 1]
    assert x0[:, 0].mean() == pytest.approx(-1.5, abs=0.1)
    assert x1[:, 0].mean() == pytest.approx(1.5, abs=0.1)
    assert x0[:, 0].std() == pytest.approx(1.0, abs=0.06)
    assert ds.meta["sep"] == 3.0


def test_ring_sector_geometry():
    ds = dt.gen_dataset("ring_sector", 300, 0.0, 5)
    r = np.hypot(ds.features[:, 0], ds.features[:, 1])
    assert r.min() >= 0.5 - 1e-12 and r.max() <= 1.5 + 1e-12
    y = ds.features[:, 1]
    assert np.all(y[ds.labels == 0] >= -1e-12)
    assert np.all(y[ds.labels == 1] <= 1e-12)


def test_split_dataset():
    ds = dt.gen_dataset("moons", 100, 0.2, 6)
    a, b = dt.split_dataset(ds, 80)
    assert a.n == 80 and b.n == 20
    assert a.meta["split"] == "train" and b.meta["split"] == "test"
    assert np.array_equal(np.concatenate([a.features, b.features]),
                          ds.features)
    with pytest.raises(ValueError):
        dt.split_dataset(ds, 100)
    with pytest.raises(ValueError):
        dt.split_dataset(ds, 0)


def test_bayes_accuracy_against_monte_carlo():
    # the optimal rule thresholds the first coordinate at zero; its
    # accuracy on a huge sample is an independent check of the formula
    rng = np.random.default_rng(0)
    for sep in (1.0, 2.0, 3.0):
        n = 200_000
        x0 = rng.normal(size=n) - sep / 2
        x1 = rng.normal(size=n) + sep / 2
        acc = 0.5 * ((x0 < 0).mean() + (x1 >= 0).mean())
        assert dt.bayes_accuracy_gaussians(sep) == pytest.approx(acc, abs=3e-3)
    assert dt.bayes_accuracy_gaussians(0.0) == 0.5
    with pytest.raises(ValueError):
        dt.bayes_accuracy_gaussians(-1.0)


# -------------------------------------------------------------- encoder

def test_encoder_threshold_placement():
    x = np.array([[0.0], [4.0]])
    enc = dt.fit_encoder(x, 3, 1.0)
    assert enc.lo == (0.0,) and enc.hi == (4.0,)
    assert np.allclose(enc.feature_thresholds(0), [1.0, 2.0, 3.0])
    assert enc.feature_halfband(0) == pytest.approx(0.5)
    assert enc.encoded_dim == 3


def test_encoder_validation():
    with pytest.raises(ValueError):
        dt.fit_encoder(np.array([[0.0], [np.inf]]), 3, 1.0)
    with pytest.raises(ValueError):
        dt.EncoderConfig("ternary", 0, 1.0, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        dt.EncoderConfig("onehot", 3, 1.0, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        dt.EncoderConfig("ternary", 3, -0.5, (0.0,), (1.0,))


def test_ternary_encoding_explicit():
    enc = dt.EncoderConfig("ternary", 3, 1.0, (0.0,), (4.0,))
    # thresholds 1, 2, 3 with halfband 0.5
    # dead zones are [0.5, 1.5], [1.5, 2.5], [2.5, 3.5]; comparisons
    # are strict, so a value on an edge stays UNKNOWN for both zones
    cases = {
        0.0: [-1, -1, -1],
        1.5: [0, 0, -1],
        1.6: [1, 0, -1],
        2.4: [1, 0, -1],
        2.5: [1, 0, 0],
        2.6: [1, 1, 0],
        4.0: [1, 1, 1],
        9.0: [1, 1, 1],         # saturates beyond the fitted range
    }
    for v, want in cases.items():
        assert dt.encode(np.array([[v]]), enc).tolist() == [want], v


def test_binary_encoding_is_a_thermometer():
    enc = dt.EncoderConfig("binary", 4, 0.0, (0.0,), (5.0,))
    codes = dt.encode(np.array([[0.5], [1.5], [2.5], [4.9]]), enc)
    assert codes.tolist() == [[0, 0, 0, 0], [1, 0, 0, 0],
                              [1, 1, 0, 0], [1, 1, 1, 1]]
    rng = np.random.default_rng(1)
    codes = dt.encode(rng.uniform(0, 5, size=(100, 1)), enc)
    assert np.all(np.diff(codes, axis=1) <= 0)  # bits never re-rise


def test_encode_blocks_features_in_order():
    enc = dt.EncoderConfig("ternary", 2, 0.0, (0.0, 10.0), (3.0, 13.0))
    out = dt.encode(np.array([[3.0, 10.0]]), enc)
    # feature 0 columns first (both above), then feature 1 (both below)
    assert out.tolist() == [[1, 1, -1, -1]]
    with pytest.raises(ValueError):
        dt.encode(np.zeros((2, 3)), enc)


def test_unknown_share_grows_with_delta():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=(3000, 2))
    shares = []
    for delta in (0.0, 0.25, 0.5, 1.0):
        enc = dt.fit_encoder(x, 3, delta)
        shares.append(al.unknown_share(dt.encode(x, enc)))
    assert shares[0] == 0.0
    assert all(a < b for a, b in zip(shares, shares[1:]))


def test_unknown_share_falls_with_resolution():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=(3000, 2))
    shares = []
    for K in (2, 4, 8, 16):
        enc = dt.fit_encoder(x, K, 1.0)
        shares.append(al.unknown_share(dt.encode(x, enc)))
    assert all(a > b for a, b in zip(shares, shares[1:]))



def boolean_mask_encode(x, cfg):
    """The encoder `dt.encode` had before its arithmetic form: per
    feature, zeros and two boolean-mask scatters (ternary) or a cast
    comparison (binary), then one concatenation."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cols = []
    for j in range(len(cfg.lo)):
        theta = cfg.feature_thresholds(j)
        v = x[:, j][:, None]
        if cfg.mode == "ternary":
            beta = cfg.feature_halfband(j)
            code = np.zeros((x.shape[0], theta.size), dtype=np.int8)
            code[v > theta + beta] = 1
            code[v < theta - beta] = -1
        else:
            code = (v > theta).astype(np.int8)
        cols.append(code)
    return np.concatenate(cols, axis=1)


def edge_values(cfg, j):
    """Values of feature j on every threshold and dead-zone edge, at and
    beyond the fitted range."""
    theta, beta = cfg.feature_thresholds(j), cfg.feature_halfband(j)
    lo, hi = cfg.lo[j], cfg.hi[j]
    return np.concatenate([theta, theta + beta, theta - beta,
                           np.nextafter(theta + beta, np.inf),
                           np.nextafter(theta - beta, -np.inf),
                           [lo, hi, lo - 1.0, hi + 1.0, -1e300, 1e300]])


@pytest.mark.parametrize("mode", ["ternary", "binary"])
@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0, 2.5])
def test_encode_equals_the_boolean_mask_encoder(mode, k, delta):
    cfg = dt.EncoderConfig(mode, k, delta, (-1.0, 0.0, 2.5), (1.0, 0.7, 2.5))
    edges = [edge_values(cfg, j) for j in range(3)]
    rows = max(len(e) for e in edges)
    x_edges = np.stack([np.resize(e, rows) for e in edges], axis=1)
    rng = np.random.default_rng(k)
    x_rand = rng.uniform(-3.0, 4.0, size=(500, 3))
    for x in (x_edges, x_edges[::-1], x_rand, x_rand[0], np.empty((0, 3))):
        got = dt.encode(x, cfg)
        want = boolean_mask_encode(x, cfg)
        assert got.dtype == np.int8 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_encode_edges_and_non_finite_values():
    x = np.array([[1.0], [np.nextafter(1.0, 2.0)], [-1e300]])
    for mode, want in (("ternary", [0, 1, -1]), ("binary", [0, 1, 0])):
        enc = dt.EncoderConfig(mode, 1, 0.0, (0.0,), (2.0,))  # threshold 1
        assert dt.encode(x, enc)[:, 0].tolist() == want
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                dt.encode(np.vstack([x, [[bad]]]), enc)

# ------------------------------------------------------------------ csv

def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_numeric_no_header(tmp_path):
    p = write(tmp_path, "1.5,2.0,0\n-0.5,3.25,1\n")
    ds = sz.load_dataset(p)
    assert ds.features.tolist() == [[1.5, 2.0], [-0.5, 3.25]]
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_sniffs_header(tmp_path):
    p = write(tmp_path, "x,y,label\n1,2,0\n3,4,1\n")
    ds = sz.load_dataset(p)
    assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_reports_line_and_column(tmp_path):
    p = write(tmp_path, "1,2,0\n3,oops,1\n")
    with pytest.raises(dt.DataFormatError) as info:
        sz.load_dataset(p)
    assert "line 2" in str(info.value)
    assert "column 2" in str(info.value)


def test_load_csv_rejects_bad_labels(tmp_path):
    with pytest.raises(dt.DataFormatError):
        sz.load_dataset(write(tmp_path, "1,2,0.5\n"))
    with pytest.raises(dt.DataFormatError):
        sz.load_dataset(write(tmp_path, "1,2,-1\n", "neg.csv"))


def test_load_csv_rejects_ragged_rows(tmp_path):
    p = write(tmp_path, "1,2,0\n1,2\n")
    with pytest.raises(dt.DataFormatError) as info:
        sz.load_dataset(p)
    assert "line 2" in str(info.value)


def test_load_csv_rejects_empty_and_nonfinite(tmp_path):
    with pytest.raises(dt.DataFormatError):
        sz.load_dataset(write(tmp_path, ""))
    with pytest.raises(dt.DataFormatError):
        sz.load_dataset(write(tmp_path, "x,y,label\n", "hdr.csv"))
    with pytest.raises(dt.DataFormatError):
        sz.load_dataset(write(tmp_path, "1,inf,0\n", "inf.csv"))
