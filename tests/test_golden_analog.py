"""Golden digests of analog inference.

A fresh `AnalogPlan(events, cfg).logits(chip)` must reproduce these sha256
digests bit for bit, for four crossbar configurations (the default, a
coarse 16-level converter, an odd ADC bound and level count, and no
conversion at all) on syndrome tables of 1, 3 and 5 rounds at two fault rates, on 1-, 2-
and 3-row inputs (a 1-row input goes to gemv rather than gemm) and on raw,
unsorted events with duplicate rows. The `per_run_acc` of `evaluate_scheme`
is pinned for all four schemes as well. Plans built once and run chip after
chip must give the bytes of fresh plans.

The `no_io` digests pin OpenBLAS's dgemm kernel: they were recorded under
its SkylakeX kernel, and under its Haswell, SandyBridge or Prescott kernel
(`OPENBLAS_CORETYPE`) 5 or 6 of their 6 cases fail. The three quantized
configurations and `per_run_acc` pass under all four kernels, which CI
checks by running this file under each with `-k "not no_io"`.
"""

import hashlib

import numpy as np
import pytest

from memdec import analog_model as am
from memdec import evaluation as ev
from memdec import hwa_training as hwa
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc

CONFIGS = {
    "default": am.CrossbarConfig(),
    "levels16": am.CrossbarConfig(levels=16, adc_bound=2.0),
    "odd_bounds": am.CrossbarConfig(adc_bound=3.3, levels=100),
    "no_io": am.CrossbarConfig(quantize_io=False),
}


def sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()


def random_params(rng: np.random.Generator) -> rd.DecoderParams:
    # untrained but far from all-zero predictions, so every chip decodes
    # differently
    return rd.DecoderParams(rng.uniform(-1, 1, (20, 16)), rng.uniform(-0.5, 0.5, 16),
                            rng.uniform(-1, 1, (16, 2)), rng.uniform(-0.5, 0.5, 2))


@pytest.fixture(scope="module")
def chips():
    rng = np.random.default_rng(81)
    params = random_params(rng)
    fmap = am.FaultMap.sample(0.1, rng)
    return {name: am.program_decoder(params, cfg, [fmap], [np.random.default_rng(82)])[0]
            for name, cfg in CONFIGS.items()}


@pytest.fixture(scope="module")
def inputs():
    tables = []
    for i, (rounds, p) in enumerate([(1, 1e-3), (1, 1e-2), (3, 1e-3), (3, 1e-2),
                                     (5, 1e-3), (5, 1e-2)]):
        d = sc.generate_dataset([p], 3000, rounds, seed=83 + i)
        tables.append(sc.union_table([(d.events, d.labels)])[0])
    rows = tables[3]
    raw = sc.generate_dataset([1e-2], 400, 3, seed=90).events
    keys = [r.tobytes() for r in raw]
    assert len(set(keys)) < len(keys) and keys != sorted(keys)
    return {"tables": tables,
            "rows_1": [rows[:1], rows[-1:]],
            "rows_2": [rows[:2], rows[-2:], rows[[0, -1]]],
            "rows_2_same": [rows[[5, 5]]],
            "rows_3": [rows[:3], rows[[0, 7, -1]], rows[[-1, 0, 7]]],
            "raw": [raw]}


GOLDEN_LOGITS = {
    ("default", "tables"):
        "b1957fceed12c5cf697d7afbd6a817b6134d66f9e73682b971a4ef5edbf6908c",
    ("default", "rows_1"):
        "4ef6b11c9452293b94fe46c483bdd0859e171a47e3a73f97aaf0d3a2da46618e",
    ("default", "rows_2"):
        "ea3008c094e050682a62d5f7dd6f16d042db431daa64cd24d333dfca839515df",
    ("default", "rows_2_same"):
        "8958c35dd7fa9f10d430e258ea14a4709923a3a373946905c7bace87f9151b01",
    ("default", "rows_3"):
        "0d79a6320fe7e433f0030710750b324123823777937b078cb7d76f06a4b8999c",
    ("default", "raw"):
        "2138b77c8b35afa81e61c68887c64747ab474f5bd46f878eb6c1d15c6a453953",
    ("levels16", "tables"):
        "d3c54e1f67263dcea792a64e12e5daa99c21acadccbf9d15ae6433bc8396091b",
    ("levels16", "rows_1"):
        "d2d12a427f4ed8a2580aabf2fcb2b615cf70fe34de60cdfa4166aaf1ef26bd90",
    ("levels16", "rows_2"):
        "9009e9ce98b6f0144be14ffe344d536a4dc1e63b4b07d58aa21c3dfac8d027ff",
    ("levels16", "rows_2_same"):
        "cd34cc32a2fbe9220600b249a3fe6562dc85f45cad9f1ddd32b535591fb78415",
    ("levels16", "rows_3"):
        "7a8f081918b5a313cc8de299895b8aafab14a8e5d7c80e62a2d7a0045529f7b9",
    ("levels16", "raw"):
        "c0450b2e0f5dbe8b563e7f96fb5dfae4b85c821cf014dfc46fba0ae2e2780320",
    ("odd_bounds", "tables"):
        "5d0157983b86fd1dd167f2e49baf9313fbeb808196a7d23fa96c7a96bcdc2e09",
    ("odd_bounds", "rows_1"):
        "9a3c30eaa7a496ead42796c6c6e3963df311903356bdca0eb6978326bfe3ce1a",
    ("odd_bounds", "rows_2"):
        "6a70b5eaff9fe59a67b2f998e493452beb80e523047033976229edf73b2465cf",
    ("odd_bounds", "rows_2_same"):
        "1bafc4781472c81b0eaabeab0d3518075578641dcce86524a6cb88acf7a98e61",
    ("odd_bounds", "rows_3"):
        "a1486f331bb6f96061be8d83c84f146cec97c8cd601a93ded7e80419ce8b1b84",
    ("odd_bounds", "raw"):
        "6cdd573a1129996430896635b1498fd1520e88364f496fe65a4be5a727b017ab",
    ("no_io", "tables"):
        "baa065648c49dcf2e94381921f6a882ce27385b1e1410f51e104a6ee0b2adc7f",
    ("no_io", "rows_1"):
        "9805ba4719110075982ce350abd4d5cb92a582d224eb80324f2ce21bf40574df",
    ("no_io", "rows_2"):
        "ddad490a06b15f698dc154c5f8d5ed3a96e79dfedf50fa3579eaa42e8c865e41",
    ("no_io", "rows_2_same"):
        "58b8ffdf16f3da39448190bf3bfba63de90fcedb4e5d27c134b649d9708a06fd",
    ("no_io", "rows_3"):
        "8df939d30fd3852a7d8fbcb5a41c0b2187c7cc8a81bfd870c9bbdaf8e49d7250",
    ("no_io", "raw"):
        "1efb83072901676fc4e8a4645db8007821bfea3485897d2ccc05da950d1ee7b6",
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("kind", ["tables", "rows_1", "rows_2", "rows_2_same",
                                  "rows_3", "raw"])
def test_analog_logits_digest(chips, inputs, config, kind):
    h = hashlib.sha256()
    for events in inputs[kind]:
        logits = am.AnalogPlan(events, CONFIGS[config]).logits(chips[config])
        assert logits.shape == (len(events), 2) and logits.dtype == np.float64
        h.update(np.ascontiguousarray(logits))
    assert h.hexdigest() == GOLDEN_LOGITS[config, kind]


GOLDEN_PER_RUN_ACC = {
    "baseline": "c728cacf377d8e959f01ac82f578defc55843485d402b5cde612729e1eeb08d0",
    "fp_mnd": "ee44aadb017a296439f3944e5b9e5e91e882c136ce6eac401aadd479f1e8ef04",
    "ds_mnd": "b70e16ffce77d1099e8f8bc066428ac6cf332ff82189369b60c42064f3353ab4",
    "hwa_mnd": "df1cefc3174cd6e7009a87a5c9435f55329ced8b95d2f49b301152fda67b5491",
}


@pytest.mark.parametrize("scheme", GOLDEN_PER_RUN_ACC)
def test_per_run_acc_digest(scheme):
    train = sc.generate_dataset([5e-3], 1500, 3, seed=91)
    val = sc.generate_dataset([5e-3], 400, 3, seed=92, split_tag="validation")
    tests = {p: sc.generate_dataset([p], 4000, 3, seed=93 + i, split_tag="test")
             for i, p in enumerate((1e-3, 1e-2))}
    base = [random_params(np.random.default_rng(s)) for s in (94, 95)]
    configs = ev.SchemeConfigs(train, val, rd.TrainConfig(),
                               hwa.RetrainConfig(epochs=1))
    protocol = ev.EvalProtocol(n_train_runs=2, n_infer_runs=4, test_shots=4000,
                               p_values=(1e-3, 1e-2), rounds=3)
    report = ev.evaluate_scheme(scheme, protocol, configs, 0.1, 96,
                                test_sets=tests, base_params=base)
    # baseline decodes digitally, once per training run
    runs = 2 if scheme == "baseline" else 8
    assert report.per_run_acc.shape == (runs, 2)
    assert sha(report.per_run_acc) == GOLDEN_PER_RUN_ACC[scheme]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("kind", ["tables", "rows_1", "rows_2", "rows_3", "raw"])
def test_shared_plans_equal_fresh_logits_chip_after_chip(chips, inputs, config, kind):
    """Plans built once and shared by chips A, B, A give the bytes of fresh
    plans: no chip's hidden states or logits leak into the next run through
    a plan's reused buffers."""
    cfg = CONFIGS[config]
    other = am.program_decoder(random_params(np.random.default_rng(97)), cfg,
                               [am.FaultMap.sample(0.1, np.random.default_rng(98))],
                               [np.random.default_rng(99)])[0]
    batches = inputs[kind]
    plans = [am.AnalogPlan(b, cfg) for b in batches]
    for chip in (chips[config], other, chips[config]):
        for events, plan in zip(batches, plans):
            assert plan.rows == len(events)
            assert (plan.logits(chip).tobytes()
                    == am.AnalogPlan(events, cfg).logits(chip).tobytes())
