"""Statistics harness for comparing decoder schemes.

A scheme evaluation follows the error-bar protocol: several independent
training runs, each measured under many fresh programming draws ("inference
runs"), with accuracy aggregated per fault rate across every (training,
inference) pair. One inference run = one complete re-programming of both
crossbar units (variability plus, where applicable, a fresh fault map),
after which the run classifies the test set's distinct syndromes, weighted
by their label counts; that equals the per-shot accuracy exactly.

Schemes:
  * baseline  — digital inference, no analog channel (one run per training),
  * fp_mnd    — floating-point weights through the analog channel,
  * hwa_mnd   — random-dropconnect retraining, then the analog channel,
  * ds_mnd    — device-specific retraining against one fault map per
                training run; the same map is used at inference (the premise
                of a characterized chip), variability stays fresh.

Logical-fault-rate curves are fitted with the monomial lfr = a * p^b in
log-log least squares; the pseudo-threshold solves a * p^b = p, i.e.
p* = a^(1/(1-b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import analog_model as am
from . import hwa_training as hwa
from . import rnn_decoder as rd
from . import surface_code_sim as sc
from .errors import DegenerateFitError, InsufficientDataError
from .rng import SpawnedGenerators, Stage, derive_seed, spawn_generator

SCHEMES = ("baseline", "fp_mnd", "hwa_mnd", "ds_mnd")


@dataclass(frozen=True)
class EvalProtocol:
    n_train_runs: int = 10
    n_infer_runs: int = 100
    test_shots: int = 100_000
    p_values: tuple[float, ...] = (0.01,)
    rounds: int = 3

    def __post_init__(self):
        for name in ("n_train_runs", "n_infer_runs", "test_shots", "rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.p_values:
            raise ValueError("protocol needs at least one fault rate")
        if not all(0 < p <= 1 for p in self.p_values):   # NaN fails too
            raise ValueError(f"p_values must be probabilities in (0, 1], got {self.p_values}")


@dataclass(frozen=True)
class CurveFit:
    a: float
    b: float
    residual: float
    n_excluded: int = 0


@dataclass
class EvalReport:
    scheme: str
    stuck_rate: float
    p_values: tuple[float, ...]
    acc_mean: tuple[float, ...]
    acc_std: tuple[float, ...]
    per_run_acc: np.ndarray   # (runs, n_p)
    curve: CurveFit | None = None
    pseudo_threshold: float | None = None
    pseudo_threshold_in_range: bool | None = None

    @property
    def lfr_mean(self) -> tuple[float, ...]:
        return tuple(1.0 - a for a in self.acc_mean)

    @property
    def lfr_std(self) -> tuple[float, ...]:
        return self.acc_std

    def to_dict(self) -> dict:
        out = {
            "scheme": self.scheme,
            "stuck_rate": self.stuck_rate,
            "p_values": list(self.p_values),
            "acc_mean": list(self.acc_mean),
            "acc_std": list(self.acc_std),
            "lfr_mean": list(self.lfr_mean),
            "lfr_std": list(self.lfr_std),
            "per_run_acc": self.per_run_acc.tolist(),
            "curve": None,
            "pseudo_threshold": self.pseudo_threshold,
            "pseudo_threshold_in_range": self.pseudo_threshold_in_range,
        }
        if self.curve is not None:
            out["curve"] = {"a": self.curve.a, "b": self.curve.b,
                            "residual": self.curve.residual,
                            "n_excluded": self.curve.n_excluded}
        return out


def fit_monomial(points: Sequence[tuple[float, float]]) -> CurveFit:
    """Least squares of log(lfr) = log(a) + b log(p); zero-lfr points are
    excluded and counted."""
    usable = [(p, l) for p, l in points if p > 0 and l > 0]
    excluded = len(points) - len(usable)
    if len(usable) < 2:
        raise InsufficientDataError(
            f"monomial fit needs >= 2 points with p > 0 and lfr > 0, got {len(usable)}")
    logp = np.log([p for p, _ in usable])
    logl = np.log([l for _, l in usable])
    design = np.column_stack([np.ones_like(logp), logp])
    coef, *_ = np.linalg.lstsq(design, logl, rcond=None)
    resid = logl - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return CurveFit(a=float(np.exp(coef[0])), b=float(coef[1]),
                    residual=rms, n_excluded=excluded)


def pseudo_threshold(fit: CurveFit) -> float:
    """Fault rate where the fitted curve crosses lfr = p: a^(1/(1-b)).

    Meaningful (encoding helps below it) when b > 1 and the value lies in
    (0, 1); callers flag out-of-range values.
    """
    if fit.b == 1.0:
        raise DegenerateFitError("b = 1: curve is parallel to lfr = p")
    try:
        return float(fit.a ** (1.0 / (1.0 - fit.b)))
    except (OverflowError, ZeroDivisionError) as exc:
        raise DegenerateFitError(
            f"a^(1/(1-b)) overflows for a = {fit.a}, b = {fit.b}") from exc


def _default_test_sets(protocol: EvalProtocol, master_seed: int,
                       ) -> dict[float, sc.Dataset]:
    sets = {}
    for i, p in enumerate(protocol.p_values):
        sets[p] = sc.generate_dataset([p], protocol.test_shots, protocol.rounds,
                                      seed=derive_seed(master_seed, Stage.TEST_SET, i),
                                      split_tag="test")
    return sets


@dataclass(frozen=True)
class SchemeConfigs:
    """Everything evaluate_scheme needs besides the protocol."""

    train_set: sc.Dataset
    val_set: sc.Dataset
    train_config: rd.TrainConfig = field(default_factory=rd.TrainConfig)
    retrain_config: hwa.RetrainConfig = field(default_factory=hwa.RetrainConfig)
    crossbar_config: am.CrossbarConfig = field(default_factory=am.CrossbarConfig)


def evaluate_scheme(scheme: str, protocol: EvalProtocol, configs: SchemeConfigs,
                    stuck_rate: float, master_seed: int,
                    test_sets: dict[float, sc.Dataset] | None = None,
                    base_params: Sequence[rd.DecoderParams] | None = None,
                    p_drop: float | None = None) -> EvalReport:
    """Run the full error-bar protocol for one scheme at one stuck rate.

    `base_params` may supply pre-trained floating-point parameters (one per
    training run) so several scheme evaluations can share their FP stage;
    otherwise each run trains from scratch with a seed derived from
    `master_seed`. `p_drop` overrides the dropconnect rate for hwa_mnd
    (default: the stuck rate, the optimized heuristic).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed {master_seed} outside [0, 2^64)")
    if base_params is not None and len(base_params) == 0:
        raise ValueError("base_params must hold at least one set of parameters "
                         "when given")
    if test_sets is None:
        test_sets = _default_test_sets(protocol, master_seed)
    missing = [p for p in protocol.p_values if p not in test_sets]
    if missing:
        raise ValueError(f"test_sets has no set at protocol fault rate(s) {missing}")
    other = [p for p, s in test_sets.items() if s.rounds != protocol.rounds]
    if other:
        raise ValueError(f"test_sets at {other} do not have the protocol's "
                         f"{protocol.rounds} rounds")
    xcfg = configs.crossbar_config

    # every run is trained (and retrained) before any chip is evaluated, so
    # the analog plans below are not held through training's allocations
    trained = []
    for i in range(protocol.n_train_runs):
        if base_params is not None:
            params = base_params[i % len(base_params)].copy()
        else:
            params = rd.train_fp(configs.train_set, configs.val_set,
                                 replace(configs.train_config,
                                         seed=derive_seed(master_seed, Stage.TRAIN, i)))

        chip_map = None
        rcfg = replace(configs.retrain_config,
                       seed=derive_seed(master_seed, Stage.RETRAIN, i))
        if scheme == "hwa_mnd":
            rate = stuck_rate if p_drop is None else p_drop
            params = hwa.retrain_hwa(params, configs.train_set, configs.val_set, rcfg,
                                     rate, configs.train_config, xcfg)
        elif scheme == "ds_mnd":
            chip_rng = spawn_generator(master_seed, Stage.CHIP, i)
            chip_map = am.FaultMap.sample(stuck_rate, chip_rng)
            params = hwa.retrain_ds(params, configs.train_set, configs.val_set, rcfg,
                                    chip_map, configs.train_config, xcfg)
        trained.append((params, chip_map))

    tables = [sc.syndrome_table(test_sets[p].events, test_sets[p].labels)
              for p in protocol.p_values]
    if scheme == "baseline":
        runs = [[sc.table_accuracy(lambda r: rd.predict_batch(params, r), rows, counts)
                 for rows, counts in tables]
                for params, _ in trained]
    else:
        # every chip of every run decodes the same tables: their DAC'd
        # events, prefix runs and work buffers are built once
        plans = am.table_plans(tables, xcfg)
        runs = []
        for i, (params, chip_map) in enumerate(trained):
            streams = SpawnedGenerators(master_seed, (Stage.PROGRAM, i), protocol.n_infer_runs)
            for j in range(protocol.n_infer_runs):
                rng = streams[j]
                fmap = chip_map if chip_map is not None else am.FaultMap.sample(stuck_rate, rng)
                programmed = am.program_decoder(params, xcfg, fmap, rng)
                runs.append([am.analog_accuracy(programmed, xcfg, rows, counts, plan)
                             for (rows, counts), plan in zip(tables, plans)])

    per_run = np.asarray(runs)
    acc_mean = per_run.mean(axis=0)
    acc_std = per_run.std(axis=0)

    curve = None
    p_star = None
    in_range = None
    lfr_points = [(p, 1.0 - m) for p, m in zip(protocol.p_values, acc_mean)]
    usable = sum(1 for p, l in lfr_points if p > 0 and l > 0)
    if usable >= 2:
        curve = fit_monomial(lfr_points)
        try:
            p_star = pseudo_threshold(curve)
            in_range = 0.0 < p_star < 1.0
        except DegenerateFitError:
            in_range = False
    return EvalReport(scheme, stuck_rate, protocol.p_values,
                      tuple(float(a) for a in acc_mean),
                      tuple(float(s) for s in acc_std),
                      per_run, curve, p_star, in_range)


def stuck_sweep(scheme: str, stuck_rates: Sequence[float], protocol: EvalProtocol,
                configs: SchemeConfigs, master_seed: int,
                p_drop_values: Sequence[float] | None = None,
                test_sets=None, base_params=None) -> list[dict]:
    """Accuracy versus stuck-at rate (single-p protocol); for hwa_mnd a
    p_drop grid may be swept at each rate."""
    for r in stuck_rates:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"stuck rate {r} outside [0, 1]")
    if test_sets is None:
        test_sets = _default_test_sets(protocol, master_seed)
    rows = []
    drops: Sequence[float | None]
    drops = p_drop_values if (scheme == "hwa_mnd" and p_drop_values) else (None,)
    for rate in stuck_rates:
        for d in drops:
            report = evaluate_scheme(scheme, protocol, configs, rate, master_seed,
                                     test_sets=test_sets, base_params=base_params,
                                     p_drop=d)
            rows.append({"scheme": scheme, "stuck_rate": float(rate),
                         "p_drop": (float(d) if d is not None else None),
                         "acc_mean": float(report.acc_mean[0]),
                         "acc_std": float(report.acc_std[0])})
    return rows
