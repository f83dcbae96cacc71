"""`serialize.load_dataset`, the one reader of native and CSV dataset
files: fidelity to the per-row loaders it replaced, and a typed error
with the line number for every malformed file."""

import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tritnet.cli as cli
import tritnet.data as dt
import tritnet.serialize as sz

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import workloads  # noqa: E402

# ------------------------------------------------ the replaced loaders


def oracle_load_dataset(path):
    """The per-row native loader the shared reader replaced."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        assert first.startswith(sz.DATASET_MAGIC)
        parts = first[len(sz.DATASET_MAGIC):].strip().split(None, 1)
        meta = json.loads(parts[1]) if len(parts) > 1 else {}
        features, labels = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            features.append([float(c) for c in cells[:-1]])
            labels.append(int(cells[-1]))
    return dt.Dataset(np.array(features, dtype=float),
                      np.array(labels, dtype=np.int64), meta)


def oracle_load_csv(path, header=None, label_col=-1):
    """The per-cell CSV loader the shared reader replaced. header=None
    sniffs the first row; label_col is a position or a header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(c.strip() for c in r)]
    if header is None:
        try:
            [float(c) for c in rows[0]]
            header = False
        except ValueError:
            header = True
    names = [c.strip() for c in rows[0]] if header else None
    rows = rows[1:] if header else rows
    if isinstance(label_col, str):
        label_idx = names.index(label_col)
    else:
        label_idx = label_col % len(rows[0])
    features = [[float(c) for j, c in enumerate(r) if j != label_idx] for r in rows]
    labels = [int(r[label_idx]) for r in rows]
    return dt.Dataset(np.array(features, dtype=float),
                      np.array(labels, dtype=np.int64), {"source": str(path)})


def assert_same(got, want):
    for name in ("features", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous, name
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name  # bit for bit, -0.0 included
    assert got.meta == want.meta


# ------------------------------------------------- well-formed input

ODD_FLOATS = [0.1, -0.0, 5e-324, 2.2250738585072014e-308, 8.98846567431158e307,
              1 / 3, -2.5e-7, 123456789.123456789, math.pi, 1e22, 7.0]


def odd_rows(n=40, seed=0):
    """Floats written as repr, %.17g, %.6f, %.3e and subnormals."""
    rng = np.random.default_rng(seed)
    values = list(rng.normal(scale=10.0 ** rng.integers(-8, 9, size=n))) + ODD_FLOATS
    formats = [repr, "{:.17g}".format, "{:.6f}".format, "{:.3e}".format]
    return [f"{formats[i % 4](float(a))},{formats[(i + 1) % 4](float(b))},{i % 3}"
            for i, (a, b) in enumerate(zip(values, reversed(values)))]


@pytest.mark.parametrize("kind", dt.DATASET_KINDS)
def test_save_dataset_files_read_as_before(tmp_path, kind):
    p = tmp_path / "d.txt"
    sz.save_dataset(dt.gen_dataset(kind, 301, 0.37, 5, sep=1.5), p)
    assert_same(sz.load_dataset(p), oracle_load_dataset(p))


def test_benchmark_dataset_files_read_as_before(tmp_path):
    p = tmp_path / "large.txt"
    x, y = workloads.moons(5000, 3)
    workloads.write_dataset(p, x, y, 3)
    ds = sz.load_dataset(p)
    assert_same(ds, oracle_load_dataset(p))
    assert np.array_equal(ds.features, x) and np.array_equal(ds.labels, y)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("blank", ["", "   ", "\t", "\x0b", "\x0c", "\xa0", " \t\x0b\x0c\xa0"])
def test_native_rows_with_blank_lines_and_line_endings(tmp_path, newline, blank):
    lines = [f"{sz.DATASET_MAGIC} v1 {{\"kind\": \"odd\"}}", *odd_rows()]
    lines[3:3] = [blank, blank]
    p = tmp_path / "d.txt"
    p.write_bytes((newline.join(lines) + newline + blank + newline).encode())
    assert_same(sz.load_dataset(p), oracle_load_dataset(p))


# The reader sniffs the header and takes the label last. On these
# label-last files that is what each setting of the old loader read.
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("header, schema", [
    ("f0,f1,label", {}),
    (None, {}),
    ("f0,f1,label", {"header": True}),
    (None, {"header": False}),
    ("f0,f1,label", {"label_col": "label"}),
    ("f0,f1,label", {"label_col": 2}),
])
def test_csv_files_read_as_before(tmp_path, newline, header, schema):
    lines = ([header] if header else []) + odd_rows(seed=1)
    lines[2:2] = ["", "  "]
    p = tmp_path / "d.csv"
    p.write_bytes((newline.join(lines) + newline).encode())
    assert_same(sz.load_dataset(p), oracle_load_csv(p, **schema))


def test_csv_quoted_cells(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('"x",y,label\n"9.5",8,1\n 7 ,"-6e-3",0\n')
    ds = sz.load_dataset(p)
    assert_same(ds, oracle_load_csv(p))
    assert ds.features.tolist() == [[9.5, 8.0], [7.0, -6e-3]]


@pytest.mark.parametrize("header", ["f0,f1,label", None])
def test_native_and_csv_files_of_the_same_rows_load_alike(tmp_path, header):
    rows = odd_rows(seed=2)
    native, plain = tmp_path / "d.txt", tmp_path / "d.csv"
    native.write_text("\n".join([f"{sz.DATASET_MAGIC} v1 {{}}", *rows]) + "\n")
    plain.write_text("\n".join(([header] if header else []) + rows) + "\n")
    a, b = sz.load_dataset(native), sz.load_dataset(plain)
    assert (a.meta, b.meta) == ({}, {"source": str(plain)})
    assert_same(a, dt.Dataset(b.features, b.labels, a.meta))


def test_eval_reads_its_data_file_once(small_circuit, monkeypatch, capsys):
    data = str(small_circuit["dir"] / "once.txt")
    with open(data, "w") as fh:
        fh.write(small_circuit["text"])
    real_open, opened = open, []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    rc = cli.main(["eval", "--circuit", small_circuit["circuit"], "--data", data,
                   "--out", str(small_circuit["dir"] / "out")])
    monkeypatch.undo()
    assert rc == cli.EXIT_OK, capsys.readouterr().err
    assert opened.count(data) == 1


def test_underscored_numbers_are_refused(tmp_path):
    # Python's float() and int() accept "1_0"; numpy's reader does not,
    # and no dataset writer emits one.
    p = tmp_path / "u.csv"
    for text in ("0.5,2,0\n1_0,2,0\n", "0.5,2,0\n1,2,1_0\n"):
        p.write_text(text)
        with pytest.raises(dt.DataFormatError, match="line 2, column"):
            sz.load_dataset(p)


def test_a_quoted_cell_cannot_join_two_lines(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text('"1.5\n",2,0\n3,4,1\n')
    with pytest.raises(dt.DataFormatError, match="line 1"):
        sz.load_dataset(p)


# ----------------------------------------------- malformed input, CLI

#: name -> (data rows after the header line, bad line number); the
#: native and the CSV file both have their header on line 1.
MALFORMED = {
    "nan": (["0.1,0.2,0", "nan,0.5,1"], 3),
    "inf": (["0.1,inf,0", "0.3,0.4,1"], 2),
    "negative-label": (["0.1,0.2,0", "0.3,0.4,-1"], 3),
    "float-label": (["0.1,0.2,0.5"], 2),
    "ragged": (["0.1,0.2,0", "0.3,1"], 3),
    "extra-field": (["0.1,0.2,0", "0.3,0.4,0.5,1"], 3),
    "non-numeric": (["0.1,0.2,0", "0.3,abc,1"], 3),
    "comment-line": (["0.1,0.2,0", "# a note", "0.3,0.4,1"], 3),
    "label-only": (["0", "1"], 2),
    "huge-label": (["0.1,0.2,99999999999999999999"], 2),
    "empty-body": ([], 2),
}


def write_native(path, rows, meta='{"kind": "moons"}'):
    path.write_text("\n".join([f"{sz.DATASET_MAGIC} v1 {meta}", *rows]) + "\n")


def write_csv(path, rows):
    path.write_text("\n".join(["f0,f1,label", *rows]) + "\n")


def run_train_on(path, tmp_path, capsys):
    rc = cli.main(["train", "--train", str(path), "--test", str(path),
                   "--widths", "8", "--output-neurons", "4", "--steps", "2",
                   "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["native", "csv"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_dataset_is_a_data_error(tmp_path, capsys, fmt, case):
    rows, line = MALFORMED[case]
    p = tmp_path / f"bad.{fmt}"
    (write_native if fmt == "native" else write_csv)(p, rows)
    rc, err = run_train_on(p, tmp_path, capsys)
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and f"line {line}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("meta", ["{not json", "[1, 2]", '"text"'])
def test_bad_dataset_metadata_is_a_data_error(tmp_path, capsys, meta):
    p = tmp_path / "bad.txt"
    write_native(p, ["0.1,0.2,0"], meta)
    rc, err = run_train_on(p, tmp_path, capsys)
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "line 1" in err


@pytest.mark.parametrize("first", ["1,inf,0", "nan,2,0", "1_0,2,0", "1,-inf,0"])
def test_headerless_csv_with_a_bad_first_row_is_a_data_error(tmp_path, capsys, first):
    # The first row parses as numbers, so it is data, not a header.
    p = tmp_path / "bad.csv"
    p.write_text(f"{first}\n3,4,1\n")
    rc, err = run_train_on(p, tmp_path, capsys)
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error:") and "line 1, column" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["native", "csv"])
def test_float_label_is_refused_where_numpy_only_warns(tmp_path, monkeypatch, fmt):
    # Older numpy reads "1.7" into an int64 field as 1 with only a
    # DeprecationWarning; the reader must still refuse the row.
    real = np.loadtxt

    def truncating(body, **kwargs):
        warnings.warn("parsing an integer via a float is deprecated",
                      DeprecationWarning, stacklevel=2)
        return real([line.replace("1.7", "1") for line in body], **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating)
    p = tmp_path / f"bad.{fmt}"
    (write_native if fmt == "native" else write_csv)(p, ["0.1,0.2,0", "0.3,0.4,1.7"])
    with pytest.raises(dt.DataFormatError, match="line 3, column 3"):
        sz.load_dataset(p)


# ------------------------------------------------- mutation fuzzing

@pytest.fixture(scope="module")
def small_circuit(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    data = out / "d.txt"
    sz.save_dataset(dt.gen_dataset("moons", 30, 0.2, 0), data)
    rc = cli.main(["train", "--train", str(data), "--test", str(data),
                   "--widths", "8", "--output-neurons", "4", "--steps", "2",
                   "--out", str(out), "--name", "c"])
    assert rc == cli.EXIT_OK
    return {"dir": out, "text": data.read_text(),
            "circuit": str(out / "c.circuit.txt")}


def _mutate(text, ops):
    lines = text.split("\n")
    for op, i, j, ch in ops:
        k = i % len(lines)
        if op == "truncate":
            joined = "\n".join(lines)
            lines = joined[:i % (len(joined) + 1)].split("\n")
        elif op == "drop":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "corrupt" and lines[k]:
            pos = j % len(lines[k])
            lines[k] = lines[k][:pos] + ch + lines[k][pos + 1:]
        elif op == "nan":
            cells = lines[k].split(",")
            cells[j % len(cells)] = ch if ch in ("nan", "inf", "-inf") else "nan"
            lines[k] = ",".join(cells)
        elif op == "version":
            lines[k] = lines[k].replace(" v1 ", f" v{j % 4} ", 1)
        if not lines:
            lines = [""]
    return "\n".join(lines)


MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["truncate", "drop", "duplicate", "corrupt", "nan", "version"]),
    st.integers(0, 4000), st.integers(0, 60),
    st.sampled_from([",", '"', "#", "x", "-", ".", "e", "_", " ", "\n", "7",
                     "\x00", "\xff", "nan", "inf", "-inf"])),
    min_size=1, max_size=3)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=MUTATIONS)
def test_mutated_dataset_files_fail_cleanly(small_circuit, capsys, ops):
    path = small_circuit["dir"] / "mutated.txt"
    path.write_text(_mutate(small_circuit["text"], ops))
    native = path.read_bytes().startswith(sz.DATASET_MAGIC.encode())
    try:  # a file without the magic line reads as a CSV
        ds = sz.load_dataset(path)
    except dt.DataFormatError:
        ds = None
    if ds is not None and native:
        try:
            want = oracle_load_dataset(path)
        except (ValueError, AssertionError, IndexError, OverflowError):
            want = None
        if want is not None and want.features.shape == ds.features.shape:
            assert_same(ds, want)
    if ds is not None:
        assert np.isfinite(ds.features).all() and ds.labels.min() >= 0
        assert ds.features.flags.c_contiguous and ds.d >= 1
    capsys.readouterr()
    rc = cli.main(["eval", "--circuit", small_circuit["circuit"], "--data",
                   str(path), "--out", str(small_circuit["dir"] / "out")])
    err = capsys.readouterr().err
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA)
    assert (rc == cli.EXIT_OK) == (ds is not None and ds.d == 2
                                   and ds.labels.max() < 2)
    if rc == cli.EXIT_DATA:
        assert err.startswith("data error:")
