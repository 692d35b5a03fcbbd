import struct
import tempfile
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


def _saved(kind: str, seed: int, size: int, path: Path) -> None:
    if kind == "dataset":
        data = sc.generate_dataset([1e-2, 0.2], size, 1 + seed % 3, seed)
        iof.save_dataset(data, path)
    elif kind == "checkpoint":
        iof.save_checkpoint(rd.DecoderParams.initial(seed), path,
                            {f"k{i}": i for i in range(size % 4)})
    else:
        iof.save_fault_map(am.FaultMap.sample(0.2, np.random.default_rng(seed)), path)


LOADERS = {"dataset": iof.load_dataset, "checkpoint": iof.load_checkpoint,
           "fault_map": iof.load_fault_map}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(LOADERS)), seed=st.integers(0, 2**32 - 1),
       size=st.integers(1, 40), data=st.data())
def test_every_strict_prefix_is_rejected(kind, seed, size, data):
    """A file cut anywhere before its end never loads and never raises a
    bare ValueError or struct error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        _saved(kind, seed, size, path)
        raw = path.read_bytes()
        LOADERS[kind](path)  # the whole file loads
        cut = data.draw(st.integers(0, len(raw) - 1), label="prefix length")
        path.write_bytes(raw[:cut])
        with pytest.raises((CorruptFileError, UpgradeNeededError)):
            LOADERS[kind](path)
