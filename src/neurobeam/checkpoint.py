"""Checkpoint container: JSON manifest plus raw little-endian arrays.

Layout: 4-byte magic, 8-byte little-endian header length, UTF-8 JSON
header, then the concatenated array blobs. The header records name,
dtype, shape, and byte offset per array, the ``zlib.crc32`` of the
payload, and carries a free-form ``meta`` dict (model config, schema
version). A file is written to a temporary name beside its target,
flushed to disk and renamed into place, so a write that fails leaves the
previous file intact. The loader rejects, with a ``ValueError`` naming
the file, unknown versions and any file that is truncated, has a damaged
header (one without a checksum among them) or fails its payload checksum.
Shape mismatches are the caller's job via ``require_shapes``; the meta is
read by ``config.RunConfig.from_meta``.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"NBCP"
FORMAT_VERSION = 1
_PREFIX = len(MAGIC) + 8


def save_checkpoint(path, arrays, meta=None):
    path = Path(path)
    entries = []
    offset = 0
    blobs = []
    crc = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr, order="C")  # unlike ascontiguousarray, keeps 0-d arrays
        blob = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        entries.append(
            {
                "name": name,
                "dtype": np.dtype(arr.dtype).str.lstrip("<>=|"),
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": blob.nbytes,
            }
        )
        blobs.append(blob)
        crc = zlib.crc32(blob, crc)
        offset += blob.nbytes
    header = json.dumps(
        {"version": FORMAT_VERSION, "meta": meta or {}, "tensors": entries, "crc32": crc},
        sort_keys=True,
    ).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Returns (arrays: dict[str, ndarray], meta: dict)."""
    path = Path(path)
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if bytes(data[: len(MAGIC)]) != MAGIC:
        raise ValueError(f"{path} is not a checkpoint file (bad magic {bytes(data[:4])!r})")
    header_len = int.from_bytes(data[len(MAGIC) : _PREFIX], "little")
    if len(data) < _PREFIX + header_len:
        raise ValueError(f"checkpoint {path} is truncated inside its header")
    try:
        header = json.loads(bytes(data[_PREFIX : _PREFIX + header_len]).decode("utf-8"))
        version = header["version"]
        meta = header["meta"]
        crc = header["crc32"]
        tensors = [
            (e["name"], np.dtype("<" + e["dtype"]), tuple(e["shape"]), e["offset"], e["nbytes"])
            for e in header["tensors"]
        ]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"checkpoint {path} has a corrupt header ({exc})") from exc
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version} in {path}")
    payload = data[_PREFIX + header_len :]
    for name, dt, shape, offset, nbytes in tensors:
        if offset + nbytes > len(payload):
            raise ValueError(
                f"checkpoint {path} is truncated: tensor '{name}' ends at payload byte "
                f"{offset + nbytes}, but the payload has {len(payload)} bytes"
            )
        if nbytes != int(np.prod(shape)) * dt.itemsize:
            raise ValueError(
                f"checkpoint {path} is corrupt: tensor '{name}' has {nbytes} bytes "
                f"for shape {shape} of {dt}"
            )
    if zlib.crc32(payload) != crc:
        raise ValueError(f"checkpoint {path} is corrupt: payload CRC32 does not match its header")
    arrays = {
        name: np.frombuffer(payload, dtype=dt, count=nbytes // dt.itemsize, offset=offset)
        .reshape(shape)
        .copy()
        for name, dt, shape, offset, nbytes in tensors
    }
    return arrays, meta


def require_shapes(arrays, expected):
    """Raise if any expected array is absent or shaped differently."""
    for name, shape in expected.items():
        if name not in arrays:
            raise ValueError(f"checkpoint is missing tensor '{name}'")
        got = tuple(arrays[name].shape)
        if got != tuple(shape):
            raise ValueError(f"checkpoint tensor '{name}' has shape {got}, expected {tuple(shape)}")
