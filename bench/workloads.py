"""The three benchmark workloads, driven through memdec's public API.

Each workload builds its inputs from the seed in `setup`, does one timed pass
of work in `run`, and checks the outputs of all passes in `check`. Inputs and
outputs are plain memdec objects; every figure the benchmark reports is taken
from them or from the clock.

Operations (sampler, training, retraining and scheme-evaluation calls, dataset
IO, and output checks) go through `Ops`, which counts them and records any
exception with its traceback, so one failure is reported and the run goes on.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from memdec import evaluation as ev
from memdec import hwa_training as hwa
from memdec import io_formats as iof
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc
from memdec.rng import Stage, derive_seed

ROUNDS = 3
# the paper's 8-point geometric grid of circuit fault rates
GRID_P = tuple(float(p) for p in np.geomspace(1e-5, 1e-2, 8))
# test fault rates: distinct syndrome rows per shot differ by more than 10x
TEST_P = (1e-3, 1e-2)
TRAIN_P = 5e-3
N_TRAIN_RUNS = 2
SWEEP_STUCK_RATES = (0.0, 0.1)
PROTOCOL_STUCK_RATE = 0.1
# Seeds evaluate_scheme, the FP training runs and their training data, so it
# fixes the decoders and the chips (fault maps, programming variability):
# every --seed, which makes the test shots, decodes with the same chips. At
# stuck rate 0.1 one chip in about ten fails badly (LFR 0.5 at p = 1e-2), so
# the mean over a handful of chips drawn per seed would swing by a third.
# infer_sweep loads the protocol's FP runs from bench/data.
MASTER_SEED = 2307
CHECKPOINT_DIR = Path(__file__).resolve().parent / "data"

SIZES = {
    # full: timed passes of about 4 s (sample_grid, infer_sweep) and 7 s
    # (protocol) on one core. FP training of 60k samples x 3 epochs learns:
    # LFR about 0.0013 at p = 1e-3, where the always-0 predictor has 0.021.
    "full": {"grid_shots": 100_000, "slice_shots": 2048, "test_shots": 20_000,
             "sweep_draws": 8, "train_shots": 60_000, "val_shots": 10_000,
             "fp_epochs": 3, "retrain_epochs": 1, "protocol_draws": 2},
    # tiny: for the smoke test only; the decoder does not learn at this size
    "tiny": {"grid_shots": 3000, "slice_shots": 256, "test_shots": 1000,
             "sweep_draws": 2, "train_shots": 2000, "val_shots": 500,
             "fp_epochs": 1, "retrain_epochs": 1, "protocol_draws": 1},
}


def p_label(p: float) -> str:
    return f"p{p:.0e}"


@dataclass
class Ops:
    """Counts operations; failures are recorded, never raised."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    failed_checks: list[str] = field(default_factory=list)
    observed: dict[str, list] = field(default_factory=dict)

    def _fail(self, name: str) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {traceback.format_exc()}")

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self._fail(name)
            return None

    def check(self, name: str, predicate) -> None:
        self.attempted += 1
        try:
            if predicate():
                return
            self.failed += 1
        except Exception:
            self._fail(name)
        self.failed_checks.append(name)

    def observe(self, module, fn_name: str):
        """Count calls memdec makes to `module.fn_name` as operations and keep
        their results; returns the undo function."""
        original = getattr(module, fn_name)
        results = self.observed.setdefault(fn_name, [])

        def observed(*args, **kwargs):
            self.attempted += 1
            try:
                out = original(*args, **kwargs)
            except Exception:
                self._fail(fn_name)
                raise
            results.append(out)
            return out

        setattr(module, fn_name, observed)
        return lambda: setattr(module, fn_name, original)


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a))  # hashed in place, not copied
    return h.hexdigest()


def dataset_digest(d: sc.Dataset) -> str:
    return sha256(d.events, d.labels, d.p_index, np.asarray(d.p_values))


def params_digest(p: rd.DecoderParams) -> str:
    return sha256(*p.tensors())


def params_finite(p: rd.DecoderParams) -> bool:
    return all(np.isfinite(t).all() for t in p.tensors())


def report_cells(reports: dict) -> list[float]:
    """LFR of every (scheme, stuck rate, p) cell of the reports that exist."""
    return [lfr for r in reports.values() if r is not None for lfr in r.lfr_mean]


def accuracies_in_range(reports: dict) -> bool:
    return all(((r.per_run_acc >= 0) & (r.per_run_acc <= 1)).all()
               for r in reports.values() if r is not None)


def make_test_sets(seed: int, shots: int, ops: Ops) -> dict[float, sc.Dataset]:
    # seeded as evaluation derives its default test sets
    return {p: ops.call("generate_dataset", sc.generate_dataset, [p], shots, ROUNDS,
                        seed=derive_seed(seed, Stage.TEST_SET, i), split_tag="test")
            for i, p in enumerate(TEST_P)}


class SampleGrid:
    """Sampler over the 8-point p grid, then a dataset file round trip."""

    name = "sample_grid"

    def __init__(self, sizes: dict, out_dir: Path):
        self.sizes = sizes
        self.out_dir = out_dir

    def setup(self, seed: int, ops: Ops) -> dict:
        # the reference slice for the chunking check; building it also warms
        # the sampler before the timed passes
        ref = ops.call("generate_dataset", sc.generate_dataset, GRID_P,
                       self.sizes["slice_shots"], ROUNDS, seed)
        return {"seed": seed, "ref": ref,
                "path": self.out_dir / f"{self.name}-{seed}.mdds"}

    def run(self, inputs: dict, ops: Ops) -> dict:
        data = ops.call("generate_dataset", sc.generate_dataset, GRID_P,
                        self.sizes["grid_shots"], ROUNDS, inputs["seed"])
        loaded = None
        if data is not None:
            ops.call("save_dataset", iof.save_dataset, data, inputs["path"])
            loaded = ops.call("load_dataset", iof.load_dataset, inputs["path"])
        return {"data": data, "loaded": loaded}

    def digests(self, inputs: dict, out: dict) -> dict:
        return {"dataset": dataset_digest(out["data"]) if out["data"] else None,
                "file": (hashlib.sha256(inputs["path"].read_bytes()).hexdigest()
                         if out["loaded"] else None)}

    def check(self, inputs: dict, out: dict, ops: Ops) -> None:
        data, loaded, ref = out["data"], out["loaded"], inputs["ref"]
        n, s = self.sizes["grid_shots"], self.sizes["slice_shots"]

        def chunking():
            other = sc.generate_dataset(GRID_P, s, ROUNDS, inputs["seed"], chunk_size=1000)
            head = np.concatenate([np.arange(i * n, i * n + s) for i in range(len(GRID_P))])
            return (dataset_digest(other) == dataset_digest(ref)
                    == dataset_digest(data.subset(head)))

        def round_trip():
            return (dataset_digest(loaded) == dataset_digest(data)
                    and (loaded.rounds, loaded.seed, loaded.split_tag)
                    == (data.rounds, data.seed, data.split_tag))

        ops.check("sampler bytes equal for chunk_size 4096 and 1000", chunking)
        ops.check("load_dataset returns what save_dataset wrote", round_trip)

    def lfr(self, out: dict) -> float:
        # no decoder runs here: the LFR of the always-0 predictor, i.e. the
        # label rate, averaged over the grid
        d = out["data"]
        if d is None:
            return 1.0
        return float(np.mean([d.labels[d.p_index == i].mean()
                              for i in range(len(d.p_values))]))

    def p_inputs(self, inputs: dict) -> dict:
        # no analog inference; the labels keep the per-p metrics emitted
        return {p_label(p): None for p in TEST_P}

    def cleanup(self, inputs: dict) -> None:
        inputs["path"].unlink(missing_ok=True)


class InferSweep:
    """fp_mnd programming and analog inference from stored FP parameters."""

    name = "infer_sweep"

    def __init__(self, sizes: dict, out_dir: Path):
        self.sizes = sizes

    def setup(self, seed: int, ops: Ops) -> dict:
        tests = make_test_sets(seed, self.sizes["test_shots"], ops)
        base = [iof.load_checkpoint(CHECKPOINT_DIR / f"fp_run{i}.mdck")[0]
                for i in range(N_TRAIN_RUNS)]
        protocol = ev.EvalProtocol(n_train_runs=N_TRAIN_RUNS,
                                   n_infer_runs=self.sizes["sweep_draws"],
                                   test_shots=self.sizes["test_shots"], p_values=TEST_P,
                                   rounds=ROUNDS)
        # fp_mnd with base_params trains nothing: the train/val slots are unused
        configs = ev.SchemeConfigs(tests[TEST_P[0]], tests[TEST_P[1]])
        return {"seed": seed, "tests": tests, "base": base, "protocol": protocol,
                "configs": configs}

    def run(self, inputs: dict, ops: Ops) -> dict:
        reports = {}
        for rate in SWEEP_STUCK_RATES:
            label = f"fp_mnd stuck={rate}"
            reports[label] = ops.call(
                f"evaluate_scheme({label})", ev.evaluate_scheme, "fp_mnd",
                inputs["protocol"], inputs["configs"], rate, MASTER_SEED,
                test_sets=inputs["tests"], base_params=inputs["base"])
        return {"reports": reports}

    def digests(self, inputs: dict, out: dict) -> dict:
        return {
            "test_sets": [dataset_digest(d) for d in inputs["tests"].values()],
            "base_params": [params_digest(p) for p in inputs["base"]],
            "per_run_acc": {k: sha256(r.per_run_acc) if r else None
                            for k, r in out["reports"].items()},
        }

    def check(self, inputs: dict, out: dict, ops: Ops) -> None:
        ops.check("stored FP params are finite",
                  lambda: all(params_finite(p) for p in inputs["base"]))
        ops.check("every accuracy lies in [0, 1]",
                  lambda: accuracies_in_range(out["reports"]))

    def lfr(self, out: dict) -> float:
        # 1.0 (every shot failed) when no report exists; failed > 0 then
        cells = report_cells(out["reports"])
        return float(np.mean(cells)) if cells else 1.0

    def p_inputs(self, inputs: dict) -> dict:
        return {p_label(p): d.events for p, d in inputs["tests"].items()}

    def cleanup(self, inputs: dict) -> None:
        pass


class Protocol(InferSweep):
    """The scaled error-bar protocol: FP training, all four schemes."""

    name = "protocol"

    def setup(self, seed: int, ops: Ops) -> dict:
        sz = self.sizes
        tests = make_test_sets(seed, sz["test_shots"], ops)
        train = ops.call("generate_dataset", sc.generate_dataset, [TRAIN_P],
                         sz["train_shots"], ROUNDS,
                         seed=derive_seed(MASTER_SEED, Stage.DATASET, 0))
        val = ops.call("generate_dataset", sc.generate_dataset, [TRAIN_P],
                       sz["val_shots"], ROUNDS,
                       seed=derive_seed(MASTER_SEED, Stage.DATASET, 1),
                       split_tag="validation")
        protocol = ev.EvalProtocol(n_train_runs=N_TRAIN_RUNS,
                                   n_infer_runs=sz["protocol_draws"],
                                   test_shots=sz["test_shots"], p_values=TEST_P,
                                   rounds=ROUNDS)
        configs = ev.SchemeConfigs(
            train, val, rd.TrainConfig(epochs=sz["fp_epochs"]),
            hwa.RetrainConfig(epochs=sz["retrain_epochs"]))
        return {"seed": seed, "tests": tests, "protocol": protocol, "configs": configs}

    def train(self, inputs: dict, ops: Ops) -> list:
        """The FP runs, seeded as evaluate_scheme seeds them; None where one failed."""
        configs = inputs["configs"]
        return [ops.call("train_fp", rd.train_fp, configs.train_set, configs.val_set,
                         replace(configs.train_config,
                                 seed=derive_seed(MASTER_SEED, Stage.TRAIN, i)))
                for i in range(N_TRAIN_RUNS)]

    def run(self, inputs: dict, ops: Ops) -> dict:
        configs = inputs["configs"]
        for results in ops.observed.values():
            results.clear()
        base = self.train(inputs, ops)
        # all schemes share the FP runs
        trained = [p for p in base if p is not None]
        reports = {}
        for scheme in ev.SCHEMES if trained else ():
            reports[scheme] = ops.call(
                f"evaluate_scheme({scheme} stuck={PROTOCOL_STUCK_RATE})",
                ev.evaluate_scheme, scheme, inputs["protocol"], configs,
                PROTOCOL_STUCK_RATE, MASTER_SEED, test_sets=inputs["tests"],
                base_params=trained)
        return {"base": base, "reports": reports,
                "retrained": [p for results in ops.observed.values() for p in results]}

    def digests(self, inputs: dict, out: dict) -> dict:
        cfg = inputs["configs"]
        return {
            "test_sets": [dataset_digest(d) for d in inputs["tests"].values()],
            "train_set": dataset_digest(cfg.train_set),
            "val_set": dataset_digest(cfg.val_set),
            "trained_params": [params_digest(p) if p else None for p in out["base"]],
            "retrained_params": [params_digest(p) for p in out["retrained"]],
            "per_run_acc": {s: sha256(r.per_run_acc) if r else None
                            for s, r in out["reports"].items()},
        }

    def check(self, inputs: dict, out: dict, ops: Ops) -> None:
        ops.check("trained and retrained params are finite", lambda: all(
            p is not None and params_finite(p) for p in out["base"] + out["retrained"]))
        ops.check("every accuracy lies in [0, 1]",
                  lambda: accuracies_in_range(out["reports"]))

        def beats_always_zero():
            baseline = out["reports"].get("baseline")
            label_rate = float(inputs["tests"][TEST_P[0]].labels.mean())
            return baseline is not None and baseline.lfr_mean[0] < label_rate

        ops.check(f"baseline beats the always-0 predictor at p={TEST_P[0]}",
                  beats_always_zero)


WORKLOADS = {w.name: w for w in (SampleGrid, InferSweep, Protocol)}
