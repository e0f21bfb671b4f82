"""The checkpoint container: durable writes, loud errors on bad files, and
the one checked copy of loaded arrays into a run's arrays."""

import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from neurobeam import checkpoint
from neurobeam.checkpoint import MAGIC, fill_arrays, load_checkpoint, save_checkpoint


def _arrays(rng):
    return {
        "w": rng.standard_normal((3, 4)).astype(np.float32),
        "b": np.arange(5, dtype=np.int64),
        "s": np.array(2.5),
    }


def _assert_same(loaded, arrays):
    assert set(loaded) == set(arrays)
    for k, v in arrays.items():
        assert loaded[k].dtype == v.dtype and np.array_equal(loaded[k], v)


def test_round_trip_leaves_no_temp_file(tmp_path, rng):
    arrays = _arrays(rng)
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, arrays, {"step": 3})
    save_checkpoint(path, arrays, {"step": 4})
    loaded, meta = load_checkpoint(path)
    _assert_same(loaded, arrays)
    assert meta == {"step": 4}
    assert [p.name for p in tmp_path.iterdir()] == ["ck.nbcp"]


def _header_end(data):
    return 12 + int.from_bytes(data[4:12], "little")


def test_truncated_file_is_rejected_by_name(tmp_path, rng):
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, _arrays(rng))
    data = path.read_bytes()
    end = _header_end(data)
    # Inside the magic, the length field, the header, the first tensor,
    # and one byte short of the end.
    for size in (0, 2, 7, end - 5, end + 3, len(data) - 1):
        path.write_bytes(data[:size])
        with pytest.raises(ValueError, match="ck.nbcp"):
            load_checkpoint(path)


_ARRAYS = st.dictionaries(
    st.text(max_size=6),
    hnp.arrays(
        st.sampled_from([np.float32, np.float64, np.complex64, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    max_size=4,
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays=_ARRAYS, meta=st.dictionaries(st.text(max_size=6), _JSON, max_size=4))
def test_round_trip_and_truncation_property(tmp_path, arrays, meta):
    # Any arrays (0-d and empty included) and any JSON meta come back with
    # the same bits, dtypes and shapes; every proper prefix of the file is
    # rejected by name.
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, arrays, meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    assert list(loaded) == list(arrays)
    for k, v in arrays.items():
        assert loaded[k].dtype == v.dtype and loaded[k].shape == v.shape
        assert loaded[k].tobytes() == v.tobytes()
    data = path.read_bytes()
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)


def test_corrupt_payload_fails_the_checksum(tmp_path, rng):
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, _arrays(rng))
    data = bytearray(path.read_bytes())
    data[_header_end(data) + 1] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="ck.nbcp.*CRC"):
        load_checkpoint(path)


def test_corrupt_header_is_rejected_by_name(tmp_path, rng):
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, _arrays(rng))
    data = bytearray(path.read_bytes())
    data[13] = ord("#")
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="ck.nbcp"):
        load_checkpoint(path)


class _FailingFile(io.FileIO):
    """A file whose writes fail once ``budget`` bytes have been written."""

    budget = 40

    def write(self, b):
        room = self.budget - self.tell()
        if len(memoryview(b).cast("B")) > room:
            super().write(memoryview(b).cast("B")[: max(room, 0)])
            raise OSError("no space left on device")
        return super().write(b)


def test_failed_write_keeps_previous_checkpoint(tmp_path, rng, monkeypatch):
    path = tmp_path / "ck.nbcp"
    old = _arrays(rng)
    save_checkpoint(path, old, {"step": 1})

    def failing_open(file, mode="r", *args, **kwargs):
        assert mode == "wb"
        return _FailingFile(file, "w")

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, {k: v + 1 for k, v in old.items()}, {"step": 2})
    monkeypatch.undo()
    loaded, meta = load_checkpoint(path)
    _assert_same(loaded, old)
    assert meta == {"step": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["ck.nbcp"]


def test_checkpoint_without_checksum_is_rejected(tmp_path, rng):
    # The layout written before the header carried a payload CRC.
    arrays = _arrays(rng)
    entries, blobs, offset = [], [], 0
    for name, arr in arrays.items():
        blob = arr.tobytes()
        entries.append({"name": name, "dtype": arr.dtype.str.lstrip("<>=|"),
                        "shape": list(arr.shape), "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"version": 1, "meta": {"a": 1}, "tensors": entries}).encode()
    path = tmp_path / "old.nbcp"
    path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header + b"".join(blobs))
    with pytest.raises(ValueError, match=f"checkpoint {path} has a corrupt header"):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    """Rewrite the checkpoint at ``path`` with ``edit(header)`` applied."""
    data = path.read_bytes()
    end = _header_end(data)
    header = json.loads(data[12:end])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw + data[end:])


def test_arrays_are_read_only_views_placed_by_header_order(tmp_path, rng):
    # Each header entry holds exactly a name, a dtype and a shape, in the
    # arrays' order, which alone places each array; nothing is copied.
    arrays = _arrays(rng)
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, arrays)
    data = path.read_bytes()
    entries = json.loads(data[12:_header_end(data)])["tensors"]
    assert [sorted(e) for e in entries] == [["dtype", "name", "shape"]] * len(arrays)
    assert [e["name"] for e in entries] == list(arrays)
    loaded, _ = load_checkpoint(path)
    _assert_same(loaded, arrays)
    assert not any(a.flags.writeable or a.flags.owndata for a in loaded.values())


@pytest.mark.parametrize("entry", [{"shape": shape} for shape in
                                   ([-1, 4], [3.0, 4], [True, 4], ["3", 4], [None, 4], 12)]
                         + [{"dtype": "O8"}, {"dtype": "(2,)f4"}, {"name": 5}])
def test_entry_that_no_array_has_is_a_corrupt_header(tmp_path, rng, entry):
    # Shape items that are not sizes, and dtypes no buffer holds (an object,
    # a subarray); each keeps or changes the payload's layout.
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, _arrays(rng))
    key = {"shape": "w", "dtype": "b", "name": "s"}[next(iter(entry))]
    _rewrite_header(path, lambda header: next(
        e for e in header["tensors"] if e["name"] == key).update(entry))
    with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} has a corrupt header"):
        load_checkpoint(path)


def test_payload_past_the_last_array_is_rejected(tmp_path, rng):
    path = tmp_path / "ck.nbcp"
    save_checkpoint(path, _arrays(rng))
    _rewrite_header(path, lambda header: header["tensors"][0].update(shape=[3, 3]))
    with pytest.raises(ValueError, match="ck.nbcp is corrupt: its tensors end at payload byte"):
        load_checkpoint(path)


def _targets():
    return {"adam.step": np.zeros(1, np.int64), "adam.m.w": np.zeros((3, 4), np.float32)}


def _loaded():
    return {"adam.step": np.array([7]), "adam.m.w": np.ones((3, 4), np.float32),
            "param.w": np.ones(2)}


def test_fill_arrays_copies_into_the_targets():
    targets = _targets()
    before = {name: id(array) for name, array in targets.items()}
    fill_arrays(_loaded(), targets, ("adam.",))
    assert targets["adam.step"][0] == 7 and np.all(targets["adam.m.w"] == 1)
    assert {name: id(array) for name, array in targets.items()} == before


@pytest.mark.parametrize("edit, message", [
    (lambda a: a.update({"adam.m.w": a["adam.m.w"].astype(np.int32)}),
     r"tensor 'adam.m.w' has dtype int32, expected float32"),
    (lambda a: a.update({"adam.m.w": np.ones((4, 3), np.float32)}),
     r"tensor 'adam.m.w' has shape \(4, 3\), expected \(3, 4\)"),
    (lambda a: a.pop("adam.step"), "checkpoint is missing tensor 'adam.step'"),
    (lambda a: a.update({"adam.v.w": np.ones((3, 4), np.float32)}),
     r"tensors the run lacks: \['adam.v.w'\]"),
], ids=["dtype", "shape", "missing", "unknown"])
def test_fill_arrays_rejects_and_touches_nothing(edit, message):
    loaded, targets = _loaded(), _targets()
    edit(loaded)
    with pytest.raises(ValueError, match=message):
        fill_arrays(loaded, targets, ("adam.",))
    assert not any(array.any() for array in targets.values())
