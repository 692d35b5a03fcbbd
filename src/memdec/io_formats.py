"""Binary and text persistence for datasets, checkpoints, fault maps, and
evaluation reports.

Binary files are little-endian with a 4-byte magic and a u16 format version;
loads are bit-exact round trips. Reports are JSON with sorted keys so equal
runs produce byte-identical files.
"""

from __future__ import annotations

import io
import json
import os
import struct
from pathlib import Path

import numpy as np

from .analog_model import FaultMap
from .errors import CorruptFileError, UpgradeNeededError
from .rnn_decoder import DecoderParams
from .rules import _SEED, check_value
from .surface_code_sim import _SPLIT_TAGS, Dataset, _check_labels

DATASET_MAGIC = b"MDDS"
CHECKPOINT_MAGIC = b"MDCK"
FAULTMAP_MAGIC = b"MDFM"
FORMAT_VERSION = 1


def _check_fits(fh, n: int, what: str) -> None:
    """Raise unless `fh` has `n` more bytes. Declared lengths are checked
    with this before anything is read, so a corrupt length field never asks
    for a huge or unrepresentable buffer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CorruptFileError(f"truncated file: {what} needs {n} bytes, {left} left")


def _read_exact(fh, n: int, what: str) -> bytes:
    _check_fits(fh, n, what)
    data = fh.read(n)
    if len(data) != n:
        raise CorruptFileError(f"truncated file while reading {what}")
    return data


def _check_header(fh, magic: bytes, what: str) -> None:
    got = _read_exact(fh, 4, f"{what} magic")
    if got != magic:
        raise CorruptFileError(f"bad magic {got!r} for {what} (expected {magic!r})")
    (version,) = struct.unpack("<H", _read_exact(fh, 2, f"{what} version"))
    if version != FORMAT_VERSION:
        raise UpgradeNeededError(
            f"{what} format version {version} needs a converter (supported: {FORMAT_VERSION})")


def save_dataset(dataset: Dataset, path) -> None:
    """Write `dataset` to `path`. Raises ValueError, writing nothing, unless
    the file would load back equal to it: integer or bool events 0/1 of the
    shape `rounds` gives, labels 0/1 and p indices naming p values, checked
    by their min and max, which make no temporary array. A float array is
    refused whatever its values: a p index of 0.5 would be written as 0,
    and float events or labels would fail inside `np.packbits`."""
    check_value("seed", dataset.seed, _SEED)  # the file's seed field is a uint64
    if dataset.split_tag not in _SPLIT_TAGS:
        raise ValueError(f"split_tag {dataset.split_tag!r} is not one of {_SPLIT_TAGS}")
    n, events, p_index, n_p = len(dataset), dataset.events, dataset.p_index, len(dataset.p_values)
    shapes = (events.shape, dataset.labels.shape, p_index.shape)
    if shapes != ((n, dataset.rounds + 1, 4), (n,), (n,)):
        raise ValueError(f"events, labels and p_index of {dataset.rounds} rounds must have "
                         f"shapes ({n}, {dataset.rounds + 1}, 4), ({n},), ({n},), got {shapes}")
    for name, values in (("events", events), ("labels", dataset.labels), ("p_index", p_index)):
        if values.dtype.kind not in "biu":
            raise ValueError(f"{name} must be integers or bools, got dtype {values.dtype}")
    if n and not (events.min() >= 0 and events.max() <= 1):
        raise ValueError("events must be 0 or 1")
    _check_labels(dataset.labels)
    if n and not (p_index.min() >= 0 and p_index.max() < n_p):
        raise ValueError(f"p_index must lie in [0, {n_p}), got [{p_index.min()}, {p_index.max()}]")
    buf = io.BytesIO()
    buf.write(DATASET_MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    buf.write(struct.pack("<HQB", dataset.rounds, dataset.seed,
                          _SPLIT_TAGS.index(dataset.split_tag)))
    buf.write(struct.pack("<H", len(dataset.p_values)))
    buf.write(np.asarray(dataset.p_values, dtype="<f8").tobytes())
    buf.write(struct.pack("<Q", n))
    buf.write(dataset.p_index.astype("<u2").tobytes())
    buf.write(np.packbits(dataset.events.reshape(n, -1), axis=None).tobytes())
    buf.write(np.packbits(dataset.labels).tobytes())
    Path(path).write_bytes(buf.getvalue())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        _check_header(fh, DATASET_MAGIC, "dataset")
        rounds, seed, tag = struct.unpack("<HQB", _read_exact(fh, 11, "dataset header"))
        if rounds < 1:
            raise CorruptFileError(f"rounds must be >= 1, got {rounds}")
        if tag >= len(_SPLIT_TAGS):
            raise CorruptFileError(f"unknown split tag {tag}")
        (n_p,) = struct.unpack("<H", _read_exact(fh, 2, "p count"))
        p_values = np.frombuffer(_read_exact(fh, 8 * n_p, "p values"), dtype="<f8")
        if not ((p_values >= 0.0) & (p_values <= 1.0)).all():
            raise CorruptFileError(f"fault rates must lie in [0, 1], got {p_values}")
        (n,) = struct.unpack("<Q", _read_exact(fh, 8, "sample count"))
        bits_per_sample = (rounds + 1) * 4
        ev_bytes = (n * bits_per_sample + 7) // 8
        lab_bytes = (n + 7) // 8
        _check_fits(fh, 2 * n + ev_bytes + lab_bytes, f"{n} samples")
        p_index = np.frombuffer(_read_exact(fh, 2 * n, "p index"), dtype="<u2")
        if (p_index >= n_p).any():
            raise CorruptFileError(f"p index {p_index.max()} out of range for "
                                   f"{n_p} p values")
        events = np.unpackbits(
            np.frombuffer(_read_exact(fh, ev_bytes, "events"), dtype=np.uint8),
            count=n * bits_per_sample).reshape(n, rounds + 1, 4)
        labels = np.unpackbits(
            np.frombuffer(_read_exact(fh, lab_bytes, "labels"), dtype=np.uint8),
            count=n)
        if fh.read(1):
            raise CorruptFileError("trailing bytes after dataset payload")
    return Dataset(events, labels, p_index.copy(), tuple(float(p) for p in p_values),
                   rounds, seed, _SPLIT_TAGS[tag])


def save_checkpoint(params: DecoderParams, path, metadata: dict | None = None) -> None:
    """Write `params` and the dict `metadata` to `path`. Raises ValueError,
    writing nothing, for a file `load_checkpoint` would refuse."""
    if not np.isfinite(params.flat).all():
        raise ValueError("checkpoint parameters must be finite")
    if not isinstance(metadata, (dict, type(None))):
        raise ValueError(f"checkpoint metadata must be a dict, got {type(metadata).__name__}")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    for tensor in params.tensors():
        shape = tensor.shape if tensor.ndim == 2 else (tensor.shape[0], 0)
        buf.write(struct.pack("<HH", *shape))
        buf.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    meta = json.dumps(metadata or {}, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path) -> tuple[DecoderParams, dict]:
    tensors = []
    with open(path, "rb") as fh:
        _check_header(fh, CHECKPOINT_MAGIC, "checkpoint")
        for _ in range(4):
            rows, cols = struct.unpack("<HH", _read_exact(fh, 4, "tensor shape"))
            count = rows * (cols if cols else 1)
            data = np.frombuffer(_read_exact(fh, 8 * count, "tensor data"), dtype="<f8")
            if not np.isfinite(data).all():
                raise CorruptFileError("checkpoint tensor holds a non-finite value")
            tensors.append(data.reshape(rows, cols) if cols else data.copy())
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        try:
            meta = json.loads(_read_exact(fh, meta_len, "metadata") or b"{}")
        except ValueError as exc:
            raise CorruptFileError(f"checkpoint metadata is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise CorruptFileError(
                f"checkpoint metadata is not a JSON object: {type(meta).__name__}")
        if fh.read(1):
            raise CorruptFileError("trailing bytes after checkpoint payload")
    try:
        return DecoderParams(*tensors), meta
    except ValueError as exc:
        raise CorruptFileError(f"checkpoint tensors do not fit the decoder: {exc}") from exc


def save_fault_map(fmap: FaultMap, path) -> None:
    buf = io.BytesIO()
    buf.write(FAULTMAP_MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    buf.write(struct.pack("<B", 2))
    for unit in (fmap.recurrent, fmap.evaluation):
        buf.write(struct.pack("<HH", *unit.shape))
        buf.write(np.packbits(unit.astype(np.uint8)).tobytes())
    Path(path).write_bytes(buf.getvalue())


def load_fault_map(path) -> FaultMap:
    units = []
    with open(path, "rb") as fh:
        _check_header(fh, FAULTMAP_MAGIC, "fault map")
        (n_units,) = struct.unpack("<B", _read_exact(fh, 1, "unit count"))
        if n_units != 2:
            raise CorruptFileError(f"expected 2 units, got {n_units}")
        for _ in range(n_units):
            rows, cols = struct.unpack("<HH", _read_exact(fh, 4, "unit shape"))
            nbytes = (rows * cols + 7) // 8
            bits = np.unpackbits(
                np.frombuffer(_read_exact(fh, nbytes, "unit bits"), dtype=np.uint8),
                count=rows * cols)
            units.append(bits.reshape(rows, cols).astype(bool))
        if fh.read(1):
            raise CorruptFileError("trailing bytes after fault map payload")
    try:
        return FaultMap(units[0], units[1])
    except ValueError as exc:
        raise CorruptFileError(f"fault map units do not fit the decoder: {exc}") from exc


def save_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def load_report(path) -> dict:
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise CorruptFileError(f"report is not a JSON object: {type(report).__name__}")
    return report


def export_curve_csv(report: dict, path) -> None:
    """CSV of curve points (p, lfr_mean, lfr_std) from a report dict."""
    with open(path, "w", newline="") as fh:
        fh.write("p,lfr_mean,lfr_std\n")
        for p, m, s in zip(report["p_values"], report["lfr_mean"], report["lfr_std"]):
            fh.write(f"{p:.10g},{m:.10g},{s:.10g}\n")
