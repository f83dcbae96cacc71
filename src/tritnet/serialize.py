"""Versioned on-disk formats.

Everything is human-readable text so that runs can be diffed:

* datasets: one `# tritnet-dataset v1 {json}` header line, then CSV
  rows of features and the integer label last. `load_dataset` is the
  only dataset reader: a file without that header line is read as a
  plain CSV with an optional header row and the label last. Both go
  through one table parser, numpy's C reader then array checks, and a
  failed check names its line and column;
* checkpoints and circuits: lines in one fixed order, written by one
  writer and walked by one reader. The magic line and version; `arch`,
  `input_dim`, `widths`, `seed`, `k`, `tau`, then `source_sha256` and
  `hardened_at` for circuits, then `encoder` (JSON or null) and `---`;
  `parents_s l` and `parents_t l` per layer; then `w l j` with the
  full-precision coefficients of each neuron, or `gates l` with the
  gate ids of each layer;
* training history: one JSON object per line;
* run manifests: a single JSON document with config, seeds, decision
  flags, artifact hashes and timings.

Floats are written with repr-level precision so load(save(x)) is bit
exact. The model reader checks each line as it comes: it must be the
next one in the order above, and a missing, repeated, reordered or
extra line is an error naming its line number. It also checks that the
version is between 1 and this code's, the arch is known, the widths
are positive with the last divisible by k, every coefficient is finite,
every parent index is in range for its layer, every gate id is below
3^9 and in its arch's vocabulary (`ArchSpec.vocab`; for arch binary, the
16 Boolean gates) and the encoder is valid. A file a reader cannot use
raises a `data.DataFormatError` (`FormatError` is one), which the CLI
reports with exit code 2.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings

import numpy as np

from .circuit import Circuit
from .data import DataFormatError, Dataset, EncoderConfig
from .network import ARCHS, ConnectivityMap, GroupSumConfig, Network

DATASET_MAGIC = "# tritnet-dataset"
CHECKPOINT_MAGIC = "tritnet-checkpoint"
CIRCUIT_MAGIC = "tritnet-circuit"
FORMAT_VERSION = 1
_PROVENANCE = ("source_sha256", "hardened_at")  # circuit header fields

#: Behavioral conventions frozen by this implementation, recorded in
#: every run manifest so a reader can tell which variant produced it.
DECISION_FLAGS = {
    "grid_order": "row-major, first input outer",
    "gate_id_encoding": "base-3 little-endian of entries + 1",
    "trit_rounding": "nearest, ties away from zero",
    "clip_boundary_subgradient": 1,
    "lattice_distance_gradient_at_breakpoints": "left derivative",
    "groupsum": "contiguous groups, sum divided by tau",
    "lambda_update": "per step",
    "argmax_ties": "lowest index",
    "mse_targets": "one-hot in raw score space",
    "execution": "training serial; circuit row chunks on one thread per "
                 "available CPU, each distinct row once where all 3^d trit "
                 "rows fit in the batch and a block, and not again on a later "
                 "call in the same mode; results independent of the thread "
                 "count, of repeated rows and of earlier calls",
}


class FormatError(DataFormatError):
    """A file failed to parse; the message names what is wrong."""


def _check_version(found: str, path) -> None:
    try:
        v = int(found[1:]) if found[:1] == "v" else 0
    except ValueError:
        v = 0
    if v < 1:
        raise FormatError(f"{path}: bad version tag {found!r}")
    if v > FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version {v} is newer than supported "
            f"version {FORMAT_VERSION}")


# ----------------------------------------------------------------- datasets

def save_dataset(ds: Dataset, path) -> None:
    meta = json.dumps(ds.meta, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(f"{DATASET_MAGIC} v{FORMAT_VERSION} {meta}\n")
        for row, label in zip(ds.features, ds.labels):
            cells = ",".join(repr(float(v)) for v in row)
            fh.write(f"{cells},{int(label)}\n")


def load_dataset(path) -> Dataset:
    """Read a dataset file, native or CSV; its rows get `_parse_table`'s checks.

    A file whose first line does not start with DATASET_MAGIC is a CSV:
    its first non-blank row is a header if any cell of it is not a
    number, and its meta is {"source": path}.
    """
    lines = _read_lines(path)
    first = lines[0] if lines else ""
    if not first.startswith(DATASET_MAGIC):
        start = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
        header = start < len(lines) and not all(
            _cell_ok(cell, label=None) for cell in _split(lines[start]))
        return Dataset(*_parse_table(path, lines, start + header), {"source": str(path)})
    parts = first[len(DATASET_MAGIC):].split(None, 1) or [""]
    _check_version(parts[0], path)
    try:
        meta = json.loads(parts[1]) if len(parts) > 1 else {}
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: line 1: bad metadata: {exc}") from None
    return Dataset(*_parse_table(path, lines, 1), meta)


def _read_lines(path) -> list[str]:
    """The lines of a text file; undecodable bytes are a DataFormatError."""
    try:
        with open(path) as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file ({exc.reason} at byte "
                              f"{exc.start})") from None


def _split(line: str) -> list[str]:
    """The cells of a row, cut at every comma if csv refuses it."""
    try:
        return next(csv.reader([line], quotechar='"'), [])
    except csv.Error:
        return line.split(",")


def _cell_ok(cell: str, label: bool | None) -> bool:
    """Whether a cell is a number to Python (label None), or one numpy's
    reader takes (no '_') that is a finite feature or an int64 label >= 0."""
    try:
        value = int(cell) if label else float(cell)
    except ValueError:
        return False
    return label is None or "_" not in cell and (
        0 <= value < 2**63 if label else math.isfinite(value))


def _parse_table(path, lines: list[str], start: int) -> tuple[np.ndarray, np.ndarray]:
    """C-ordered (n, d) float64 features and (n,) int64 labels, the last
    column, of the non-blank lines of `lines[start:]`, parsed by numpy's
    C reader.

    Every row must have the same field count, at least one feature,
    finite features and a label >= 0. Only if an array check fails does
    a scan name the first bad line (counted from the top of the file)
    and column, in a DataFormatError.
    """
    body = [line for line in lines[start:] if not line.isspace()]
    if not body:
        raise DataFormatError(f"{path}: no data rows from line {start + 1} on")
    width = len(_split(body[0]))
    if width < 2:
        raise DataFormatError(f"{path}: line {lines.index(body[0], start) + 1}: "
                              "a label but no feature column")
    try:
        with warnings.catch_warnings():  # older numpy truncates a float label
            warnings.simplefilter("error", DeprecationWarning)  # and only warns
            table = np.loadtxt(body, delimiter=",", comments=None, quotechar='"',
                               ndmin=1, dtype=[("x", np.float64, (width - 1,)),
                                               ("y", np.int64)])
        features = np.ascontiguousarray(table["x"])
        labels = np.ascontiguousarray(table["y"])
        # A quoted cell may run over a line end and join two lines.
        if (len(table) != len(body) or not np.isfinite(features).all()
                or labels.min() < 0):
            raise ValueError("a row failed the table checks")
    except (ValueError, DeprecationWarning) as exc:
        for line_no, line in enumerate(lines[start:], start + 1):
            row = [] if line.isspace() else _split(line)
            if row and len(row) != width:
                raise DataFormatError(f"{path}: line {line_no}: {len(row)} fields, "
                                      f"expected {width}") from None
            for j, cell in enumerate(row):
                if not _cell_ok(cell, label=j == width - 1):
                    what = "an integer label >= 0" if j == width - 1 else "a finite number"
                    raise DataFormatError(f"{path}: line {line_no}, column {j + 1}: "
                                          f"{cell.strip()!r} is not {what}") from None
        raise DataFormatError(f"{path}: {exc}") from None
    return features, labels


# ------------------------------------------------ checkpoints + circuits

def _fmt(values) -> str:
    """Numbers as the writers emit them: ints plainly, floats by repr."""
    return " ".join(map(repr, np.asarray(values).tolist()))


def _write(path, magic, model, extra: dict, encoder, body) -> None:
    """Write a checkpoint or circuit in the line order `_read` walks: the
    shape, the `extra` fields, the encoder, `---`, each layer's wiring,
    then the `body` lines."""
    gs = model.groupsum
    encoder = None if encoder is None else dataclasses.asdict(encoder)
    header = {"arch": model.arch, "input_dim": model.input_dim,
              "widths": ",".join(str(w) for w in model.widths), "seed": model.seed,
              "k": gs.k, "tau": repr(gs.tau), **extra,
              "encoder": json.dumps(encoder, sort_keys=True)}
    with open(path, "w") as fh:
        fh.write(f"{magic} v{FORMAT_VERSION}\n")
        fh.writelines(f"{key} {value}\n" for key, value in header.items())
        fh.write("---\n")
        for l, (s, t) in enumerate(model.conn.layers):
            fh.write(f"parents_s {l} {_fmt(s)}\nparents_t {l} {_fmt(t)}\n")
        fh.writelines(body)


class _Lines:
    """The lines of a checkpoint or circuit, taken strictly in order."""

    def __init__(self, path, magic):
        self.path, self.lines, self.at = path, _read_lines(path), 1
        first = self.lines[0].split() if self.lines else []
        if len(first) != 2 or first[0] != magic:
            raise FormatError(f"{path}: not a {magic} file")
        _check_version(first[1], path)

    def error(self, message) -> FormatError:
        return FormatError(f"{self.path}: line {self.at}: {message}")

    def take(self, *key, parse=str):
        """`parse` of the value after `key` on the next line; with `parse`
        None, the line must be `key` alone."""
        tag = " ".join(map(str, key))
        line = self.lines[self.at].rstrip("\n") if self.at < len(self.lines) else None
        self.at += 1
        value = line[len(tag) + 1:] if line and line.startswith(tag + " ") else ""
        if not (line == tag if parse is None else value):
            found = "end of file" if line is None else repr(line[:40])
            raise self.error(f"missing {tag!r} line, found {found}")
        if parse is None:
            return None
        try:
            return parse(value)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise self.error(f"bad {tag!r} value: {exc}") from None

    def row(self, key, count, kind=float, low=-math.inf, high=math.inf) -> list:
        """The `count` values of `kind` after `key` on the next line, each
        strictly between `low` and `high`."""
        values = self.take(*key, parse=lambda text: list(map(kind, text.split())))
        if len(values) != count:
            raise self.error(f"{len(values)} values, expected {count}")
        bad = [v for v in values if not low < v < high]
        if bad:
            raise self.error(f"value {bad[0]!r} is not in ({low}, {high})")
        return values

    def end(self) -> None:
        if self.at < len(self.lines):
            self.at += 1
            raise self.error("extra line after the last layer")


def _read(path, magic, extra: tuple, read_layer) -> dict:
    """Read a checkpoint or circuit in the order `_write` emits it.

    Returns `arch`, `groupsum`, the `extra` fields and `encoder` by name,
    the wiring, which holds the shape and seed, as `conn` and the
    `read_layer(lines, arch, l, width)` results as `layers`.
    """
    lines = _Lines(path, magic)
    head = {"arch": lines.take("arch")}
    if head["arch"] not in ARCHS:
        raise lines.error(f"unknown arch {head['arch']!r}")
    input_dim = lines.take("input_dim", parse=int)
    widths = lines.take("widths", parse=lambda t: tuple(int(v) for v in t.split(",")))
    if min(widths) < 1:
        raise lines.error(f"widths {widths} must be positive")
    seed = lines.take("seed", parse=int)
    k = lines.take("k", parse=int)
    if k < 2 or widths[-1] % k:
        raise lines.error(f"the last width {widths[-1]} must be divisible by k={k} >= 2")
    head["groupsum"] = lines.take("tau", parse=lambda t: GroupSumConfig(k, float(t)))
    head.update((key, lines.take(key)) for key in extra)
    head["encoder"] = lines.take("encoder", parse=_encoder_from_json)
    lines.take("---", parse=None)
    wiring, prev = [], input_dim
    for l, w in enumerate(widths):
        wiring.append(tuple(np.array(lines.row((tag, l), w, int, -1, prev), dtype=np.int64)
                            for tag in ("parents_s", "parents_t")))
        prev = w
    head["conn"] = ConnectivityMap(seed=seed, input_dim=input_dim, widths=widths,
                                   layers=tuple(wiring))
    head["layers"] = [read_layer(lines, head["arch"], l, w) for l, w in enumerate(widths)]
    lines.end()
    return head


def _encoder_from_json(text: str) -> EncoderConfig | None:
    obj = json.loads(text)
    if obj is None:
        return None
    if type(obj["thresholds_per_feature"]) is not int:
        raise ValueError(f"thresholds_per_feature {obj['thresholds_per_feature']!r} "
                         "is not an integer")
    return EncoderConfig(mode=obj["mode"],
                         thresholds_per_feature=obj["thresholds_per_feature"],
                         delta=float(obj["delta"]), lo=tuple(map(float, obj["lo"])),
                         hi=tuple(map(float, obj["hi"])))


def save_checkpoint(net: Network, path, encoder: EncoderConfig | None = None) -> None:
    """Write a ternary or binary network with its encoder config."""
    _write(path, CHECKPOINT_MAGIC, net, {}, encoder,
           (f"w {l} {j} {_fmt(row)}\n"
            for l, mat in enumerate(net.params) for j, row in enumerate(mat)))


def load_checkpoint(path):
    """Read a checkpoint. Returns (network, encoder_or_None)."""
    head = _read(path, CHECKPOINT_MAGIC, (), lambda lines, arch, l, w: np.array(
        [lines.row(("w", l, j), ARCHS[arch].n_params) for j in range(w)]))
    return Network(arch=head["arch"], conn=head["conn"], groupsum=head["groupsum"],
                   params=head["layers"]), head["encoder"]


def save_circuit(circ: Circuit, path, encoder: EncoderConfig | None = None) -> None:
    _write(path, CIRCUIT_MAGIC, circ,
           {key: circ.provenance.get(key, "") or "-" for key in _PROVENANCE}, encoder,
           (f"gates {l} {_fmt(ids)}\n" for l, ids in enumerate(circ.gate_ids)))


def _read_gates(lines, arch, l, width):
    ids = np.array(lines.row(("gates", l), width, int, -1, 3**9), dtype=np.int64)
    stray = ids[~np.isin(ids, ARCHS[arch].vocab)]
    if len(stray):
        raise lines.error(f"gate id {stray[0]} is not a Boolean gate of arch {arch}")
    return ids


def load_circuit(path):
    """Read a circuit file. Returns (circuit, encoder_or_None)."""
    head = _read(path, CIRCUIT_MAGIC, _PROVENANCE, _read_gates)
    provenance = {key: "" if head[key] == "-" else head[key] for key in _PROVENANCE}
    return Circuit(arch=head["arch"], conn=head["conn"], groupsum=head["groupsum"],
                   gate_ids=head["layers"], provenance=provenance), head["encoder"]


# ------------------------------------------------------ history + manifests

def save_history(history: list[dict], path) -> None:
    with open(path, "w") as fh:
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_history(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def save_manifest(manifest: dict, path) -> None:
    doc = dict(manifest)
    doc.setdefault("decision_flags", DECISION_FLAGS)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_report(lines_or_rows, path, columns: list[str] | None = None,
                comments: list[str] | None = None) -> None:
    """Write a tab-separated report table with leading # comments."""
    with open(path, "w") as fh:
        for c in comments or []:
            fh.write(f"# {c}\n")
        if columns:
            fh.write("\t".join(columns) + "\n")
        for row in lines_or_rows:
            fh.write("\t".join(str(v) for v in row) + "\n")
