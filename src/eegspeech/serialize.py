"""Versioned binary container for model checkpoints, fitted transforms and the
pipeline's intermediates (cleaned EEG and EEG feature sequences).

Layout: 8-byte magic, uint32 version, uint64 header length, UTF-8 JSON header,
then the raw array blobs concatenated in header order and nothing after them.
The header JSON is canonical (sorted keys) and the blobs are little-endian, so a
container written twice from identical state is byte-identical, and arrays load
back exactly in their saved dtype.

The container is the only on-disk format for arrays that one stage hands to
the next: `preprocess` writes `clean/<id>.clean` (kind "clean-eeg") and
`extract-eeg-feats` writes `feats_eeg/<id>.feats` (kind "eeg-features"), so a
file-driven run computes the same numbers as the in-memory pipeline.

Every file the pipeline writes (containers, JSON, the report tables of
`write_csv`, the resolved config, gen-data's EEG and WAV files and the
spectrogram CSV and PGM) goes through `atomic_open`: the bytes go to a
temporary file beside the target, which is renamed over it only once they are
all written, so an interrupted write never leaves a truncated file under the
target's name.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError

MAGIC = b"EEGSPD01"
VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8", "int64": "<i8"}


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open `path` for writing ("w": UTF-8 text, "wb": bytes) so that it is
    replaced whole or not at all.

    The block writes to `.<name>.<pid>.tmp` beside the target, which is renamed
    over the target when the block exits normally; on any exception the
    temporary file is removed and the previous target is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if mode == "wb" else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc) -> None:
    """The canonical JSON artifact: sorted keys, indent 1, a trailing newline,
    replaced whole through `atomic_open`. A NaN or infinity, which strict JSON
    parsers reject, is a NumericError and leaves the previous file in place."""
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    with atomic_open(path) as fh:
        fh.write(text + "\n")


def write_csv(path: str | Path, header, rows, comment: str | None = None) -> None:
    """The one report-table format: an optional `# comment` line, the header
    row, then one line per row of cells the caller has already formatted as
    strings, replaced whole through `atomic_open`."""
    with atomic_open(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def read_json(path: str | Path, what: str):
    """The parsed JSON document at `path`; an unreadable or malformed file is a
    DataError naming `what` it should have held."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read {what} ({exc})") from exc


def save_container(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.name not in _DTYPES:
            raise ValueError(f"unsupported array dtype {arr.dtype.name!r} for {name!r}")
        blob = arr.astype(_DTYPES[arr.dtype.name]).tobytes()
        entries.append({"name": name, "dtype": arr.dtype.name, "shape": list(arr.shape)})
        blobs.append(blob)
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint64(len(header)).tobytes())
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_container(path: str | Path, expect_kind: str | None = None):
    """Return (kind, meta, arrays). Raises DataError on a malformed file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20 or raw[:8] != MAGIC:
        raise DataError(f"{path}: not an eegspeech container")
    version = int(np.frombuffer(raw[8:12], dtype=np.uint32)[0])
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    hlen = int(np.frombuffer(raw[12:20], dtype=np.uint64)[0])
    if 20 + hlen > len(raw):
        raise DataError(f"{path}: truncated container header")
    try:
        header = json.loads(raw[20 : 20 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt container header") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list) or "meta" not in header:
        raise DataError(f"{path}: container header lacks its meta or array list")
    kind = header.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise DataError(f"{path}: expected {expect_kind!r} container, found {kind!r}")
    arrays = {}
    offset = 20 + hlen
    for entry in header["arrays"]:
        try:
            name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
            dt = np.dtype(_DTYPES[dtype])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: bad array entry {entry!r}") from exc
        if not isinstance(name, str) or not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise DataError(f"{path}: bad array entry {entry!r}")
        nbytes = dt.itemsize * math.prod(shape)
        if offset + nbytes > len(raw):
            raise DataError(f"{path}: truncated container")
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype=dt).reshape(shape)
        arrays[name] = arr.astype(dtype).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} bytes after the last array")
    return kind, header["meta"], arrays
