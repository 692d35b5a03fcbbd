import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdec import analog_model as am
from memdec import io_formats as iof
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc
from memdec.errors import CorruptFileError, UpgradeNeededError


def test_checkpoint_round_trip(tmp_path):
    params = rd.DecoderParams.initial(3)
    path = tmp_path / "ck.mdck"
    iof.save_checkpoint(params, path, {"epoch": 4})
    loaded, meta = iof.load_checkpoint(path)
    assert meta == {"epoch": 4}
    for a, b in zip(params.tensors(), loaded.tensors()):
        assert np.array_equal(a, b)


def test_wrong_tensor_shape_is_corrupt(tmp_path):
    """A size-consistent but transposed w_rec header: (16, 20) instead of (20, 16)."""
    path = tmp_path / "ck.mdck"
    iof.save_checkpoint(rd.DecoderParams.initial(3), path)
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<HH", raw, 6) == (20, 16)
    struct.pack_into("<HH", raw, 6, 16, 20)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError):
        iof.load_checkpoint(path)


def test_invalid_metadata_is_corrupt(tmp_path):
    path = tmp_path / "ck.mdck"
    iof.save_checkpoint(rd.DecoderParams.initial(3), path, {"k": 1})
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] + b"!")
    with pytest.raises(CorruptFileError):
        iof.load_checkpoint(path)


def _saved(kind: str, seed: int, size: int, path: Path):
    """Save one object of `kind` to `path`; returns what a load must give."""
    if kind == "dataset":
        data = sc.generate_dataset([1e-2, 0.2], size, 1 + seed % 3, seed)
        iof.save_dataset(data, path)
        return data
    if kind == "checkpoint":
        params = rd.DecoderParams.initial(seed)
        meta = {f"k{i}": i for i in range(size % 4)}
        iof.save_checkpoint(params, path, meta)
        return params, meta
    fmap = am.FaultMap.sample(0.2, np.random.default_rng(seed))
    iof.save_fault_map(fmap, path)
    return fmap


def _assert_equal(kind: str, saved, loaded) -> None:
    if kind == "checkpoint":
        assert np.array_equal(saved[0].flat, loaded[0].flat) and saved[1] == loaded[1]
        return
    for f in fields(saved):
        a, b = getattr(saved, f.name), getattr(loaded, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


LOADERS = {"dataset": iof.load_dataset, "checkpoint": iof.load_checkpoint,
           "fault_map": iof.load_fault_map}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(LOADERS)), seed=st.integers(0, 2**32 - 1),
       size=st.integers(1, 40), data=st.data())
def test_every_strict_prefix_is_rejected(kind, seed, size, data):
    """The whole file loads back equal to what was saved; a file cut anywhere
    before its end never loads and never raises a bare ValueError or struct
    error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        saved = _saved(kind, seed, size, path)
        raw = path.read_bytes()
        _assert_equal(kind, saved, LOADERS[kind](path))
        cut = data.draw(st.integers(0, len(raw) - 1), label="prefix length")
        path.write_bytes(raw[:cut])
        with pytest.raises((CorruptFileError, UpgradeNeededError)):
            LOADERS[kind](path)
