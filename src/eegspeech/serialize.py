"""Versioned binary container for model checkpoints and fitted transforms.

Layout: 8-byte magic, uint32 version, uint64 header length, UTF-8 JSON header,
then the raw array blobs concatenated in header order. The header JSON is
canonical (sorted keys) and the blobs are little-endian, so a container written
twice from identical state is byte-identical. A container is written to a
temporary file beside its target and renamed over it, so an interrupted write
never leaves a truncated file under the target's name.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"EEGSPD01"
VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8", "int64": "<i8"}


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
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.uint32(VERSION).tobytes())
            fh.write(np.uint64(len(header)).tobytes())
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
            name, dtype, shape = entry["name"], entry["dtype"], [int(n) for n in entry["shape"]]
            dt = np.dtype(_DTYPES[dtype])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad array entry {entry!r}") from exc
        nbytes = dt.itemsize * int(np.prod(shape))
        if offset + nbytes > len(raw):
            raise DataError(f"{path}: truncated container")
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype=dt).reshape(shape)
        arrays[name] = arr.astype(dtype).copy()
        offset += nbytes
    return kind, header["meta"], arrays
