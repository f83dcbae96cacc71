"""Versioned on-disk formats.

Everything is human-readable text so that runs can be diffed:

* datasets: one `# tritnet-dataset v1 {json}` header line, then CSV
  rows of features followed by the integer label;
* checkpoints: a keyword header, the wiring, then one line of full-
  precision coefficients per neuron;
* circuits: a keyword header, the wiring, then one line of gate ids
  per layer;
* training history: one JSON object per line;
* run manifests: a single JSON document with config, seeds, decision
  flags, artifact hashes and timings.

Floats are written with repr-level precision so load(save(x)) is bit
exact. Loading a file whose version is newer than this code fails
cleanly rather than guessing.
"""

from __future__ import annotations

import json

import numpy as np

from .circuit import Circuit
from .data import Dataset, EncoderConfig
from .network import ARCHS, ConnectivityMap, GroupSumConfig, Network

DATASET_MAGIC = "# tritnet-dataset"
CHECKPOINT_MAGIC = "tritnet-checkpoint"
CIRCUIT_MAGIC = "tritnet-circuit"
FORMAT_VERSION = 1

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
    "execution": "serial",
}


class FormatError(ValueError):
    """A file failed to parse; the message names what is wrong."""


def _check_version(found: str, path) -> None:
    try:
        v = int(found.lstrip("v"))
    except ValueError:
        raise FormatError(f"{path}: bad version tag {found!r}") from None
    if v > FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version {v} is newer than supported "
            f"version {FORMAT_VERSION}")


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


# ----------------------------------------------------------------- datasets

def save_dataset(ds: Dataset, path) -> None:
    meta = json.dumps(ds.meta, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(f"{DATASET_MAGIC} v{FORMAT_VERSION} {meta}\n")
        for row, label in zip(ds.features, ds.labels):
            cells = ",".join(repr(float(v)) for v in row)
            fh.write(f"{cells},{int(label)}\n")


def load_dataset(path) -> Dataset:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(DATASET_MAGIC):
            raise FormatError(f"{path}: not a dataset file")
        parts = first[len(DATASET_MAGIC):].strip().split(None, 1)
        if not parts:
            raise FormatError(f"{path}: missing version tag")
        _check_version(parts[0], path)
        meta = json.loads(parts[1]) if len(parts) > 1 else {}
        features, labels = [], []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                features.append([float(c) for c in cells[:-1]])
                labels.append(int(cells[-1]))
            except ValueError:
                raise FormatError(
                    f"{path}: line {line_no}: malformed row {line!r}") from None
    if not features:
        raise FormatError(f"{path}: no data rows")
    return Dataset(
        features=np.array(features, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        meta=meta,
    )


# ------------------------------------------------------------- header utils

def _parse_header(fh, path, magic):
    first = fh.readline().split()
    if len(first) != 2 or first[0] != magic:
        raise FormatError(f"{path}: not a {magic} file")
    _check_version(first[1], path)
    fields: dict[str, str] = {}
    for line in fh:
        line = line.rstrip("\n")
        if line == "---":
            return fields
        key, _, value = line.partition(" ")
        if not key or not value:
            raise FormatError(f"{path}: malformed header line {line!r}")
        fields[key] = value
    raise FormatError(f"{path}: missing end-of-header marker")


def _need(fields: dict, key: str, path) -> str:
    if key not in fields:
        raise FormatError(f"{path}: missing required field {key!r}")
    return fields[key]


def _read_shape(fields: dict, path):
    """input_dim, widths, seed and GroupSum head of a checkpoint or circuit."""
    raw = {key: _need(fields, key, path)
           for key in ("input_dim", "widths", "seed", "k", "tau")}
    try:
        input_dim, seed, k = int(raw["input_dim"]), int(raw["seed"]), int(raw["k"])
        widths = tuple(int(v) for v in raw["widths"].split(","))
        groupsum = GroupSumConfig(k=k, tau=float(raw["tau"]))
    except ValueError as exc:
        raise FormatError(f"{path}: bad header value: {exc}") from None
    if min(widths) < 1 or widths[-1] % k:
        raise FormatError(f"{path}: widths {raw['widths']} must be positive, "
                          f"the last divisible by k={k}")
    return input_dim, widths, seed, groupsum


def _read_body(fh, path, widths, value_tags: dict) -> dict:
    """Body lines `tag index... values...`, keyed by (tag, index...).

    `value_tags` maps each allowed tag to its number of index fields and
    the type of its values. Every index is range-checked: the first is
    a layer, a second one a neuron of that layer. A repeated key is an
    error rather than a silent overwrite.
    """
    body: dict = {}
    for line in fh:
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag not in value_tags:
            raise FormatError(f"{path}: unexpected body line {tag!r}")
        n_index, kind = value_tags[tag]
        try:
            index = tuple(int(v) for v in parts[1:1 + n_index])
            values = [kind(v) for v in parts[1 + n_index:]]
        except ValueError:
            raise FormatError(f"{path}: malformed {tag} line") from None
        if (len(index) < n_index or not 0 <= index[0] < len(widths)
                or any(not 0 <= j < widths[index[0]] for j in index[1:])):
            raise FormatError(f"{path}: {tag} line has bad index {index}")
        key = (tag, *index)
        if key in body:
            raise FormatError(f"{path}: duplicate {tag} line for {index}")
        body[key] = values
    return body


def _encoder_to_json(enc: EncoderConfig | None) -> str:
    if enc is None:
        return "null"
    return json.dumps({
        "mode": enc.mode,
        "thresholds_per_feature": enc.thresholds_per_feature,
        "delta": enc.delta,
        "lo": list(enc.lo),
        "hi": list(enc.hi),
    }, sort_keys=True)


def _encoder_from_json(text: str, path) -> EncoderConfig | None:
    try:
        obj = json.loads(text)
        if obj is None:
            return None
        return EncoderConfig(
            mode=obj["mode"],
            thresholds_per_feature=int(obj["thresholds_per_feature"]),
            delta=float(obj["delta"]),
            lo=tuple(float(v) for v in obj["lo"]),
            hi=tuple(float(v) for v in obj["hi"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad encoder field: {exc!r}") from None


def _write_conn(fh, conn: ConnectivityMap) -> None:
    for l, (s, t) in enumerate(conn.layers):
        fh.write(f"parents_s {l} " + " ".join(str(int(v)) for v in s) + "\n")
        fh.write(f"parents_t {l} " + " ".join(str(int(v)) for v in t) + "\n")


def _read_conn(lines, path, seed, input_dim, widths) -> ConnectivityMap:
    pairs: dict[int, list] = {}
    for tag in ("parents_s", "parents_t"):
        for l in range(len(widths)):
            key = (tag, l)
            if key not in lines:
                raise FormatError(f"{path}: missing {tag} for layer {l}")
    layers = []
    for l, w in enumerate(widths):
        s = np.array(lines[("parents_s", l)], dtype=np.int64)
        t = np.array(lines[("parents_t", l)], dtype=np.int64)
        prev = input_dim if l == 0 else widths[l - 1]
        if s.size != w or t.size != w:
            raise FormatError(f"{path}: layer {l} wiring has wrong width")
        if s.size and (s.min() < 0 or s.max() >= prev or t.min() < 0 or t.max() >= prev):
            raise FormatError(f"{path}: layer {l} wiring indexes out of range")
        layers.append((s, t))
    return ConnectivityMap(seed=seed, input_dim=input_dim, widths=widths,
                           layers=tuple(layers))


# ----------------------------------------------------------- checkpoints

def save_checkpoint(net: Network, path, encoder: EncoderConfig | None = None) -> None:
    """Write a ternary or binary network with its encoder config."""
    with open(path, "w") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} v{FORMAT_VERSION}\n")
        fh.write(f"arch {net.arch}\n")
        fh.write(f"input_dim {net.input_dim}\n")
        fh.write("widths " + ",".join(str(w) for w in net.widths) + "\n")
        fh.write(f"seed {net.seed}\n")
        fh.write(f"k {net.groupsum.k}\n")
        fh.write(f"tau {net.groupsum.tau!r}\n")
        fh.write(f"encoder {_encoder_to_json(encoder)}\n")
        fh.write("---\n")
        _write_conn(fh, net.conn)
        for l, mat in enumerate(net.params):
            for j in range(mat.shape[0]):
                fh.write(f"w {l} {j} " + _fmt_floats(mat[j]) + "\n")


def load_checkpoint(path):
    """Read a checkpoint. Returns (network, encoder_or_None)."""
    with open(path) as fh:
        fields = _parse_header(fh, path, CHECKPOINT_MAGIC)
        arch = _need(fields, "arch", path)
        if arch not in ARCHS:
            raise FormatError(f"{path}: unknown arch {arch!r}")
        input_dim, widths, seed, groupsum = _read_shape(fields, path)
        encoder = _encoder_from_json(_need(fields, "encoder", path), path)
        body = _read_body(fh, path, widths, {
            "parents_s": (1, int), "parents_t": (1, int), "w": (2, float)})
    n_params = ARCHS[arch].n_params
    params = [np.zeros((w, n_params)) for w in widths]
    for l, w in enumerate(widths):
        for j in range(w):
            if ("w", l, j) not in body:
                raise FormatError(f"{path}: layer {l} is missing coefficients")
            vals = body[("w", l, j)]
            if len(vals) != n_params:
                raise FormatError(
                    f"{path}: bad coefficient line for neuron {l}/{j}")
            params[l][j] = vals
    conn = _read_conn(body, path, seed, input_dim, widths)
    return Network(arch=arch, input_dim=input_dim, widths=widths, conn=conn,
                   params=params, groupsum=groupsum, seed=seed), encoder


# --------------------------------------------------------------- circuits

def save_circuit(circ: Circuit, path, encoder: EncoderConfig | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(f"{CIRCUIT_MAGIC} v{FORMAT_VERSION}\n")
        fh.write(f"arch {circ.provenance.get('arch', 'ternary')}\n")
        fh.write(f"input_dim {circ.input_dim}\n")
        fh.write("widths " + ",".join(str(w) for w in circ.widths) + "\n")
        fh.write(f"seed {circ.conn.seed}\n")
        fh.write(f"k {circ.groupsum.k}\n")
        fh.write(f"tau {circ.groupsum.tau!r}\n")
        fh.write(f"source_sha256 {circ.provenance.get('source_sha256', '') or '-'}\n")
        fh.write(f"hardened_at {circ.provenance.get('hardened_at', '') or '-'}\n")
        fh.write(f"encoder {_encoder_to_json(encoder)}\n")
        fh.write("---\n")
        _write_conn(fh, circ.conn)
        for l, ids in enumerate(circ.gate_ids):
            fh.write(f"gates {l} " + " ".join(str(int(g)) for g in ids) + "\n")


def load_circuit(path):
    """Read a circuit file. Returns (circuit, encoder_or_None)."""
    with open(path) as fh:
        fields = _parse_header(fh, path, CIRCUIT_MAGIC)
        input_dim, widths, seed, groupsum = _read_shape(fields, path)
        encoder = _encoder_from_json(_need(fields, "encoder", path), path)
        provenance = {key: _need(fields, key, path)
                      for key in ("arch", "source_sha256", "hardened_at")}
        provenance = {k: "" if v == "-" else v for k, v in provenance.items()}
        body = _read_body(fh, path, widths, {
            "parents_s": (1, int), "parents_t": (1, int), "gates": (1, int)})
    gate_ids = []
    for l, w in enumerate(widths):
        if ("gates", l) not in body:
            raise FormatError(f"{path}: missing gates for layer {l}")
        ids = np.array(body[("gates", l)], dtype=np.int64)
        if ids.size != w:
            raise FormatError(f"{path}: layer {l} has {ids.size} gates, "
                              f"expected {w}")
        if ids.size and (ids.min() < 0 or ids.max() >= 3**9):
            raise FormatError(f"{path}: layer {l} has gate id out of range")
        gate_ids.append(ids)
    conn = _read_conn(body, path, seed, input_dim, widths)
    return Circuit(input_dim=input_dim, widths=widths, conn=conn,
                   gate_ids=gate_ids, groupsum=groupsum,
                   provenance=provenance), encoder


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
