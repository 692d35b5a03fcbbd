import struct

import numpy as np
import pytest

from memdec import io_formats as iof
from memdec import rnn_decoder as rd
from memdec.errors import CorruptFileError


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
