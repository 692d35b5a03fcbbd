import struct
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdec import analog_model as am
from memdec import evaluation as ev
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [0, 330, 340, 369])   # w_rec, b_rec, w_eval, b_eval
def test_non_finite_tensor_is_corrupt(tmp_path, value, entry):
    # training cannot write one (adam_step refuses non-finite gradients),
    # and a NaN weight used to load without complaint
    path = tmp_path / "ck.mdck"
    iof.save_checkpoint(rd.DecoderParams.initial(3), path)
    # after the 6 header bytes, each tensor's 4-byte shape and then its
    # float64 entries, in the order of `flat`
    tensor = int(np.searchsorted([320, 336, 368], entry, side="right"))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 6 + 4 * (tensor + 1) + 8 * entry, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="non-finite"):
        iof.load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [0, 330, 340, 369])
def test_non_finite_checkpoint_rejected(tmp_path, value, entry):
    # it was written, and load_checkpoint then refused it as corrupt
    params = rd.DecoderParams.initial(3)
    params.flat[entry] = value
    with pytest.raises(ValueError, match="checkpoint parameters must be finite"):
        iof.save_checkpoint(params, tmp_path / "ck.mdck")
    assert not (tmp_path / "ck.mdck").exists()


@pytest.mark.parametrize("metadata, message", [
    ([1, 2], "checkpoint metadata must be a dict, got list"),
    ("x", "checkpoint metadata must be a dict, got str")], ids=["list", "str"])
def test_checkpoint_metadata_that_is_not_a_dict_rejected(tmp_path, metadata, message):
    # it was written, and load_checkpoint then refused it as corrupt
    with pytest.raises(ValueError, match=message):
        iof.save_checkpoint(rd.DecoderParams.initial(3), tmp_path / "ck.mdck", metadata)
    assert not (tmp_path / "ck.mdck").exists()


def test_invalid_metadata_is_corrupt(tmp_path):
    path = tmp_path / "ck.mdck"
    iof.save_checkpoint(rd.DecoderParams.initial(3), path, {"k": 1})
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] + b"!")
    with pytest.raises(CorruptFileError):
        iof.load_checkpoint(path)


def test_metadata_that_is_not_an_object_is_corrupt(tmp_path):
    path = tmp_path / "ck.mdck"
    iof.save_checkpoint(rd.DecoderParams.initial(3), path, {"k": 1})
    raw = path.read_bytes()
    meta = b"[1, 2]"
    head = raw[:-len(b'{"k": 1}') - 4]
    path.write_bytes(head + struct.pack("<I", len(meta)) + meta)
    with pytest.raises(CorruptFileError, match="not a JSON object"):
        iof.load_checkpoint(path)


# A length field that the file cannot hold is rejected before any read, so
# none of these asks for a buffer of the declared size.
def _patched(path: Path, offset: int, fmt: str, *values: int) -> Path:
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, *values)
    path.write_bytes(bytes(raw))
    return path


# the sample count (u64) follows the header (19 bytes) and two p values
@pytest.mark.parametrize("count", [2**63, 2**64 - 1, 21])
def test_sample_count_beyond_the_file_is_corrupt(tmp_path, count):
    path = tmp_path / "data.mdds"
    iof.save_dataset(sc.generate_dataset([1e-2, 0.2], 10, 3, seed=5), path)
    assert struct.unpack_from("<Q", path.read_bytes(), 35) == (20,)
    with pytest.raises(CorruptFileError, match="needs"):
        iof.load_dataset(_patched(path, 35, "<Q", count))


def test_p_count_beyond_the_file_is_corrupt(tmp_path):
    path = tmp_path / "data.mdds"
    iof.save_dataset(sc.generate_dataset([1e-2], 4, 1, seed=5), path)
    with pytest.raises(CorruptFileError, match="p values needs"):
        iof.load_dataset(_patched(path, 17, "<H", 2**16 - 1))


# checkpoint: w_rec's shape at byte 6; the metadata length is the last
# u32 before the metadata
@pytest.mark.parametrize("field", ["shape", "metadata"])
def test_checkpoint_length_beyond_the_file_is_corrupt(tmp_path, field):
    path = tmp_path / "ck.mdck"
    iof.save_checkpoint(rd.DecoderParams.initial(3), path, {"k": 1})
    if field == "shape":
        _patched(path, 6, "<HH", 2**16 - 1, 2**16 - 1)
    else:
        _patched(path, path.stat().st_size - len(b'{"k": 1}') - 4, "<I", 2**32 - 1)
    with pytest.raises(CorruptFileError, match="needs"):
        iof.load_checkpoint(path)


def test_fault_map_shape_beyond_the_file_is_corrupt(tmp_path):
    path = tmp_path / "map.mdfm"
    iof.save_fault_map(am.FaultMap.sample(0.2, np.random.default_rng(1)), path)
    assert struct.unpack_from("<HH", path.read_bytes(), 7) == (21, 16)
    with pytest.raises(CorruptFileError, match="unit bits needs"):
        iof.load_fault_map(_patched(path, 7, "<HH", 2**16 - 1, 2**16 - 1))


def test_wrong_fault_map_shape_is_corrupt(tmp_path):
    """A well-formed file whose recurrent unit is (20, 16), not (21, 16)."""
    path = tmp_path / "map.mdfm"
    iof.save_fault_map(SimpleNamespace(recurrent=np.zeros((20, 16), bool),
                                       evaluation=np.zeros((17, 2), bool)), path)
    with pytest.raises(CorruptFileError):
        iof.load_fault_map(path)


def test_p_index_out_of_range_is_corrupt(tmp_path):
    """A file of one p value whose p index names an eighth; `save_dataset`
    refuses to write one, so the index is written into the file."""
    path = tmp_path / "data.mdds"
    iof.save_dataset(sc.generate_dataset([1e-2], 20, 3, seed=5), path)
    raw = bytearray(path.read_bytes())
    # the p index (u16 per shot) follows the one p value and the shot count
    struct.pack_into("<H", raw, 19 + 8 + 8 + 2 * 4, 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="p index 7 out of range for 1 p values"):
        iof.load_dataset(path)


@pytest.mark.parametrize("spoil, message", [
    # packed as bits, a 2 came back as 1 and a label of 5 as 1
    (lambda data: np.put(data.events, 13, 2), "events must be 0 or 1"),
    (lambda data: np.put(data.labels, 3, 5), "labels must be 0 or 1"),
    # the file was refused by load_dataset
    (lambda data: np.put(data.p_index, 3, 3), r"p_index must lie in \[0, 1\), got \[0, 3\]"),
    # events of 3 rounds under a header of 2: refused as a truncated file
    (lambda data: setattr(data, "rounds", 2),
     r"events, labels and p_index of 2 rounds must have shapes \(20, 3, 4\), \(20,\), "
     r"\(20,\), got \(\(20, 4, 4\), \(20,\), \(20,\)\)"),
    # a p index of 0.5 was written as 0; float events and labels passed the
    # value checks and then failed inside np.packbits with a TypeError
    (lambda data: setattr(data, "p_index", np.where(np.arange(20) == 3, 0.5, 0.0)),
     "p_index must be integers or bools, got dtype float64"),
    (lambda data: setattr(data, "events", data.events * 0.5),
     "events must be integers or bools, got dtype float64"),
    (lambda data: setattr(data, "labels", data.labels.astype(np.float32)),
     "labels must be integers or bools, got dtype float32"),
], ids=["event_byte_2", "label_5", "p_index_3", "rounds_disagree", "float_p_index",
        "float_events", "float_labels"])
def test_dataset_that_would_not_load_back_rejected(tmp_path, spoil, message):
    data = sc.generate_dataset([1e-2], 20, 3, seed=5)
    spoil(data)
    with pytest.raises(ValueError, match=message):
        iof.save_dataset(data, tmp_path / "d.mdds")
    assert not (tmp_path / "d.mdds").exists()


# a saved dataset's header: magic (4), version (2), then rounds (u16) at
# byte 6, seed, split tag, p count (u16) at byte 17 and the p values (f8)
# from byte 19
@pytest.mark.parametrize("offset,fmt,value", [
    (6, "<H", 0), (19, "<d", float("nan")), (19, "<d", 7.5), (27, "<d", -1e-3)])
def test_bad_header_value_is_corrupt(tmp_path, offset, fmt, value):
    path = tmp_path / "data.mdds"
    iof.save_dataset(sc.generate_dataset([1e-2, 0.2], 20, 3, seed=5), path)
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<H2d", raw, 17) == (2, 1e-2, 0.2)
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="rounds must be|fault rates must"):
        iof.load_dataset(path)


def _report(**extra) -> ev.EvalReport:
    return ev.EvalReport("fp_mnd", 0.1, (1e-3, 1e-2), (0.99, 0.875), (0.0123456789012, 0.05),
                         np.array([[0.98, 0.85], [1.0, 0.9]]), **extra)


def test_report_dict_without_and_with_curve():
    out = _report().to_dict()
    assert out == {
        "scheme": "fp_mnd", "stuck_rate": 0.1, "p_values": [1e-3, 1e-2],
        "acc_mean": [0.99, 0.875], "acc_std": [0.0123456789012, 0.05],
        "lfr_mean": [1.0 - 0.99, 0.125], "lfr_std": [0.0123456789012, 0.05],
        "per_run_acc": [[0.98, 0.85], [1.0, 0.9]], "curve": None,
        "pseudo_threshold": None, "pseudo_threshold_in_range": None}
    fit = ev.CurveFit(a=30.0, b=1.5, residual=0.25, n_excluded=1)
    curved = _report(curve=fit, pseudo_threshold=0.0011, pseudo_threshold_in_range=True)
    assert curved.to_dict() == {
        **out, "curve": {"a": 30.0, "b": 1.5, "residual": 0.25, "n_excluded": 1},
        "pseudo_threshold": 0.0011, "pseudo_threshold_in_range": True}


def test_saved_report_is_byte_stable_and_loads_back(tmp_path):
    report = _report(curve=ev.CurveFit(a=30.0, b=1.5, residual=0.25)).to_dict()
    iof.save_report(report, tmp_path / "a.json")
    iof.save_report(report, tmp_path / "b.json")
    raw = (tmp_path / "a.json").read_bytes()
    assert raw == (tmp_path / "b.json").read_bytes()
    assert iof.load_report(tmp_path / "a.json") == report


def test_truncated_report_is_corrupt(tmp_path):
    path = tmp_path / "report.json"
    iof.save_report(_report().to_dict(), path)
    raw = path.read_bytes()
    for cut in range(len(raw) - 1):  # every prefix that loses the closing brace
        path.write_bytes(raw[:cut])
        with pytest.raises(CorruptFileError):
            iof.load_report(path)


@pytest.mark.parametrize("raw", [b'{"scheme": "\xff"}\n', b"[1, 2]\n", b'"report"\n'])
def test_undecodable_or_non_object_report_is_corrupt(tmp_path, raw):
    path = tmp_path / "report.json"
    path.write_bytes(raw)
    with pytest.raises(CorruptFileError):
        iof.load_report(path)


def test_curve_csv_has_a_header_and_one_row_per_p(tmp_path):
    path = tmp_path / "curve.csv"
    iof.export_curve_csv(_report().to_dict(), path)
    assert path.read_text() == ("p,lfr_mean,lfr_std\n"
                                "0.001,0.01,0.0123456789\n"
                                "0.01,0.125,0.05\n")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_dataset_seed_round_trips_exactly(tmp_path, seed):
    data = sc.generate_dataset([1e-2], 5, 3, seed)
    iof.save_dataset(data, tmp_path / "d.mdds")
    loaded = iof.load_dataset(tmp_path / "d.mdds")
    assert loaded.seed == seed and type(loaded.seed) is int


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_dataset_seed_outside_the_field_rejected(tmp_path, seed):
    # generate_dataset refuses such a seed, so the dataset is built by hand
    data = replace(sc.generate_dataset([1e-2], 5, 3, 0), seed=seed)
    with pytest.raises(ValueError, match="seed"):
        iof.save_dataset(data, tmp_path / "d.mdds")
    assert not (tmp_path / "d.mdds").exists()


def test_dataset_unknown_split_tag_rejected(tmp_path):
    # failed with a bare "tuple.index(x): x not in tuple"
    data = replace(sc.generate_dataset([1e-2], 5, 3, 0), split_tag="bogus")
    with pytest.raises(ValueError, match="split_tag 'bogus'"):
        iof.save_dataset(data, tmp_path / "d.mdds")
    assert not (tmp_path / "d.mdds").exists()


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
