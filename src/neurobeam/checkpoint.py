"""Checkpoint container: JSON manifest plus raw little-endian arrays.

Layout: 4-byte magic, 8-byte little-endian header length, UTF-8 JSON
header, then the array blobs in header order. The header records each
array's name, dtype and shape (an array is placed by its header
position), the ``zlib.crc32`` of the payload, and a free-form ``meta``
dict (model config, schema version). A write goes to a temporary file
renamed into place once on disk, so a failed write leaves the previous
file intact.
The loader returns read-only views of the file's bytes; a file that is
truncated, of another version, has a damaged header (one without a
checksum among them), has bytes past its last array or fails its checksum
is a ``ValueError`` naming it. ``fill_arrays`` checks loaded arrays by
name, shape and dtype and copies them into a run's arrays; the meta is
read by ``config.RunConfig.from_meta``.
"""

from __future__ import annotations

import json
import math
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
    blobs = []
    crc = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr, order="C")  # unlike ascontiguousarray, keeps 0-d arrays
        blob = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        entries.append({"name": name, "dtype": arr.dtype.str.lstrip("<>=|"),
                        "shape": list(arr.shape)})
        blobs.append(blob)
        crc = zlib.crc32(blob, crc)
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
    """Returns (arrays: dict[str, read-only ndarray], meta: dict)."""
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
        version, meta, crc = header["version"], header["meta"], header["crc32"]
        tensors = [(e["name"], np.dtype("<" + e["dtype"]), tuple(e["shape"]))
                   for e in header["tensors"]]
        for name, _, shape in tensors:  # a size is an int, not a bool
            if not (isinstance(name, str) and all(type(n) is int and n >= 0 for n in shape)):
                raise ValueError(f"tensor {name!r} has shape {list(shape)}")
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"checkpoint {path} has a corrupt header ({exc})") from exc
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version} in {path}")
    payload = data[_PREFIX + header_len :]
    placed, end = [], 0
    for name, dt, shape in tensors:
        count = math.prod(shape)
        placed.append((name, dt, shape, count, end))
        end += count * dt.itemsize
    if end != len(payload):
        raise ValueError(
            f"checkpoint {path} is {'truncated' if end > len(payload) else 'corrupt'}: its "
            f"tensors end at payload byte {end}, but the payload has {len(payload)} bytes")
    if zlib.crc32(payload) != crc:
        raise ValueError(f"checkpoint {path} is corrupt: payload CRC32 does not match its header")
    try:
        arrays = {
            name: np.frombuffer(payload, dtype=dt, count=count, offset=offset).reshape(shape)
            for name, dt, shape, count, offset in placed
        }
    except ValueError as exc:  # a dtype no buffer holds, such as an object or a subarray
        raise ValueError(f"checkpoint {path} has a corrupt header ({exc})") from exc
    return arrays, meta


def fill_arrays(arrays, targets, prefixes):
    """Copy each loaded array into the target array of its name, in place.
    Every target must be loaded with its shape and dtype, and every loaded
    name under ``prefixes`` must be a target's, or a ``ValueError`` names the
    tensor and no target is touched."""
    unknown = sorted(k for k in arrays if k.startswith(tuple(prefixes)) and k not in targets)
    if unknown:
        raise ValueError(f"checkpoint has tensors the run lacks: {unknown}")
    for name, target in targets.items():
        if name not in arrays:
            raise ValueError(f"checkpoint is missing tensor '{name}'")
        got = arrays[name]
        if got.shape != target.shape:
            raise ValueError(
                f"checkpoint tensor '{name}' has shape {got.shape}, expected {target.shape}")
        if got.dtype != target.dtype:
            raise ValueError(
                f"checkpoint tensor '{name}' has dtype {got.dtype}, expected {target.dtype}")
    for name, target in targets.items():
        target[...] = arrays[name]
