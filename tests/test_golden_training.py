"""Golden digests of trained and retrained parameters.

FP training, HWA retraining (dropconnect and noise; with IO discretization
and clipping) and DS retraining (with and without IO discretization) must
reproduce these sha256 digests bit for bit. The training set has 32k + 1
shots, so each epoch ends in a batch of one row, which numpy sends to gemv
rather than gemm.
"""

import hashlib

import numpy as np
import pytest

from memdec import analog_model as am
from memdec import hwa_training as hwa
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc


def digest(params: rd.DecoderParams) -> str:
    h = hashlib.sha256()
    for t in params.tensors():
        h.update(np.ascontiguousarray(t))
    return h.hexdigest()


@pytest.fixture(scope="module")
def data():
    train = sc.generate_dataset([5e-3], 2017, 3, seed=71)
    val = sc.generate_dataset([5e-3], 500, 3, seed=72, split_tag="validation")
    return train, val


@pytest.fixture(scope="module")
def fp_params(data):
    return rd.train_fp(*data, rd.TrainConfig(epochs=2, seed=73))


def test_ragged_last_batch_has_one_row(data):
    assert len(data[0]) % rd.TrainConfig().batch_size == 1


def test_train_fp_digest(fp_params):
    assert digest(fp_params) == (
        "5273c970e7dcfade6b27658a740ca047fa8f68da1a855badfd21b1d1e435e5f3")


FAULTS = am.FaultMap.sample(0.1, np.random.default_rng(74))

# (retraining, config, its dropconnect rate or fault map, digest)
RETRAIN_CASES = {
    "hwa_p_drop": (
        hwa.retrain_hwa, hwa.RetrainConfig(epochs=2, seed=75), 0.1,
        "c4e803b7e782ff300cd70ea1b2d713871592830b09bc62d5602c48ac102558c5"),
    # clip_scale 2.0 clips both units (their max |w| / std is about 2.1 and 2.5)
    "hwa_io_clip": (
        hwa.retrain_hwa,
        hwa.RetrainConfig(io_discretize=True, clip_scale=2.0, epochs=2, seed=76), 0.1,
        "948afd4f5be7dd9e6f1bb1317e47ecd59fb85867b8560c1a8c889190f4f6b720"),
    "ds": (
        hwa.retrain_ds, hwa.RetrainConfig(epochs=2, seed=77), FAULTS,
        "42f7d3e5e2092b9c7a1b51a4a336bba2acd5d8647476f482b8fe2f1d62d48625"),
    "ds_io": (
        hwa.retrain_ds,
        hwa.RetrainConfig(io_discretize=True, epochs=2, seed=78), FAULTS,
        "0512c08262cc91a6228d8d6fde9199379aeefe46b7ec08e4a90b9ddbdd40b37d"),
}


@pytest.mark.parametrize("case", RETRAIN_CASES)
def test_retrain_digest(data, fp_params, case):
    fn, cfg, rate_or_map, expected = RETRAIN_CASES[case]
    assert digest(fn(fp_params, *data, cfg, rate_or_map)) == expected
