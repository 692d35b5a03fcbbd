"""Golden digests of analog inference.

`analog_logits` must reproduce these sha256 digests bit for bit, for four
crossbar configurations (the default, a coarse 16-level converter, odd
bounds and level count, and no conversion at all) on syndrome tables of
1, 3 and 5 rounds at two fault rates, on 1-, 2- and 3-row inputs (a 1-row
input goes to gemv rather than gemm) and on raw, unsorted events with
duplicate rows. The `per_run_acc` of `evaluate_scheme` is pinned for all
four schemes as well. Plans that share one work buffer, run chip after
chip, must give the bytes of fresh `analog_logits` calls.
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
    "odd_bounds": am.CrossbarConfig(adc_bound=3.3, dac_bound=0.7, levels=100),
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
    return {name: am.program_decoder(params, cfg, fmap, np.random.default_rng(82))
            for name, cfg in CONFIGS.items()}


@pytest.fixture(scope="module")
def inputs():
    tables = []
    for i, (rounds, p) in enumerate([(1, 1e-3), (1, 1e-2), (3, 1e-3), (3, 1e-2),
                                     (5, 1e-3), (5, 1e-2)]):
        d = sc.generate_dataset([p], 3000, rounds, seed=83 + i)
        tables.append(sc.syndrome_table(d.events, d.labels)[0])
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
        "663025c0ee1288eaa5aade4195539aa94d87f082afe7463d811e7ead96f118e0",
    ("odd_bounds", "rows_1"):
        "563cf5d0e05f1cddcb3035302e2a9e12c26e48939f0c178d993233da99747b4f",
    ("odd_bounds", "rows_2"):
        "b918d9726ab9ffe5f690f269a31353dc01af439c8a6b28fc1c9dbf3e43b1bc91",
    ("odd_bounds", "rows_2_same"):
        "f2bbbd8feaf1f6beb9df7a8af9ec327df1460209d2432bb6f63656326ce0086d",
    ("odd_bounds", "rows_3"):
        "e2a841bbde8d5d8c6944cebcb40016c07e32a9395b9107138931d9f8cb1cca78",
    ("odd_bounds", "raw"):
        "fdde0f42e1876a6cf8594cc04386d92deabb05c23ce2c4ef12296b4afeb5bd8a",
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
        logits = am.analog_logits(chips[config], CONFIGS[config], events)
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
    """Plans sharing one work buffer, run over chips A, B, A, give the bytes
    of fresh `analog_logits` calls: no chip's hidden states or logits leak
    into the next run through the reused buffers."""
    cfg = CONFIGS[config]
    other = am.program_decoder(random_params(np.random.default_rng(97)), cfg,
                               am.FaultMap.sample(0.1, np.random.default_rng(98)),
                               np.random.default_rng(99))
    batches = inputs[kind]
    work = np.empty(max(am.AnalogPlan.work_size(len(b)) for b in batches))
    plans = [am.AnalogPlan(b, cfg, work) for b in batches]
    for chip in (chips[config], other, chips[config]):
        for events, plan in zip(batches, plans):
            assert plan.rows == len(events)
            assert (plan.logits(chip).tobytes()
                    == am.analog_logits(chip, cfg, events).tobytes())
