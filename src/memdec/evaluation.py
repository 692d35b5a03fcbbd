"""Statistics harness for comparing decoder schemes.

A scheme evaluation follows the error-bar protocol: several independent
training runs, each measured under many fresh programming draws ("inference
runs"), with accuracy aggregated per fault rate across every (training,
inference) pair. One inference run = one complete re-programming of both
crossbar units (variability plus, where applicable, a fresh fault map),
after which the chip classifies the distinct syndromes of all the test sets
at once, from one table of their union (`surface_code_sim.union_table`),
and each fault rate is scored from that one prediction, weighting every
syndrome by its label counts in that rate's set; that equals the per-shot
accuracy of each set exactly. A training run's `n_infer_runs` chips are
programmed with one `analog_model.program_decoder` call and scored with
one `analog_model.analog_accuracy` call, chip j drawing its fault map and
then its variability from its own stream; each chip's recurrent unit
still runs on its own products. The digital baseline scores the same
table.

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

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import analog_model as am
from . import hwa_training as hwa
from . import rnn_decoder as rd
from . import surface_code_sim as sc
from .errors import DegenerateFitError, InsufficientDataError
from .rng import SpawnedGenerators, Stage, derive_seed, spawn_generator
from .rules import _DROP_RATE, _PROBABILITY, _SEED, SCHEMES, check_fields, check_value


@dataclass(frozen=True)
class EvalProtocol:
    n_train_runs: int = 10
    n_infer_runs: int = 100
    test_shots: int = 100_000
    p_values: tuple[float, ...] = (0.01,)
    rounds: int = 3

    def __post_init__(self):
        check_fields(self, "protocol.")


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
    excluded and counted. The usable points must span two or more distinct
    fault rates: at one rate the slope b is not determined."""
    usable = [(p, l) for p, l in points if p > 0 and l > 0]
    excluded = len(points) - len(usable)
    rates = len({p for p, _ in usable})
    if rates < 2:
        raise InsufficientDataError(
            f"monomial fit needs points with p > 0 and lfr > 0 at >= 2 distinct p, "
            f"got {rates}")
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


def _check_scheme(scheme: str, master_seed: int, drop: str | None) -> None:
    """Raise ValueError for an unknown scheme, a master seed outside
    [0, 2^64), or dropconnect rates (argument `drop`) given to a scheme but
    hwa_mnd."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    check_value("master_seed", master_seed, _SEED)
    if drop is not None and scheme != "hwa_mnd":
        raise ValueError(f"{drop} sets the hwa_mnd dropconnect rate; {scheme} has none")


def evaluate_scheme(scheme: str, protocol: EvalProtocol, configs: SchemeConfigs,
                    stuck_rate: float, master_seed: int,
                    test_sets: dict[float, sc.Dataset] | None = None,
                    base_params: Sequence[rd.DecoderParams] | None = None,
                    p_drop: float | None = None) -> EvalReport:
    """Run the full error-bar protocol for one scheme at one stuck rate.

    `base_params` may supply pre-trained floating-point parameters (one per
    training run, run i taking the i-th; fewer than `n_train_runs` raises)
    so several scheme evaluations can share their FP stage; otherwise each
    run trains from scratch with a seed derived from `master_seed`.
    `p_drop` overrides the dropconnect rate for hwa_mnd (default: the stuck
    rate, the optimized heuristic); other schemes refuse it.
    """
    _check_scheme(scheme, master_seed, None if p_drop is None else "p_drop")
    # the rates are first used after one or more runs have trained
    check_value("stuck_rate", stuck_rate, _PROBABILITY)
    drop_rate = stuck_rate if p_drop is None else p_drop
    if scheme == "hwa_mnd":
        check_value("p_drop", drop_rate, _DROP_RATE)
    if base_params is not None and len(base_params) < protocol.n_train_runs:
        raise ValueError(f"base_params holds {len(base_params)} of {protocol.n_train_runs} runs")
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
    # the analog plan below is not held through training's allocations
    trained = []
    for i in range(protocol.n_train_runs):
        if base_params is not None:
            params = base_params[i].copy()
        else:
            params = rd.train_fp(configs.train_set, configs.val_set,
                                 replace(configs.train_config,
                                         seed=derive_seed(master_seed, Stage.TRAIN, i)))

        chip_map = None
        rcfg = replace(configs.retrain_config,
                       seed=derive_seed(master_seed, Stage.RETRAIN, i))
        if scheme == "hwa_mnd":
            params = hwa.retrain_hwa(params, configs.train_set, configs.val_set, rcfg,
                                     drop_rate, configs.train_config, xcfg)
        elif scheme == "ds_mnd":
            chip_rng = spawn_generator(master_seed, Stage.CHIP, i)
            chip_map = am.FaultMap.sample(stuck_rate, chip_rng)
            params = hwa.retrain_ds(params, configs.train_set, configs.val_set, rcfg,
                                    chip_map, configs.train_config, xcfg)
        trained.append((params, chip_map))

    # one table of every test set's distinct rows: each decoder runs once per
    # chip (or training run) and is scored at every fault rate from that
    # one prediction
    rows, counts = sc.union_table([(test_sets[p].events, test_sets[p].labels)
                                   for p in protocol.p_values])
    if scheme == "baseline":
        runs = [rd.accuracy(params, rows, counts) for params, _ in trained]
    else:
        # every chip of every run decodes the same table: its DAC'd events,
        # prefix runs and buffers are built once
        plan = am.AnalogPlan(sc.table_batch(rows, counts), xcfg)
        runs = []
        for i, (params, chip_map) in enumerate(trained):
            # chip j's stream draws its fault map, then its variability
            streams = SpawnedGenerators(master_seed, (Stage.PROGRAM, i), protocol.n_infer_runs)
            rngs = [streams[j] for j in range(protocol.n_infer_runs)]
            fmaps = [chip_map if chip_map is not None else am.FaultMap.sample(stuck_rate, rng)
                     for rng in rngs]
            chips = am.program_decoder(params, xcfg, fmaps, rngs)
            runs.extend(am.analog_accuracy(chips, plan, rows, counts))

    per_run = np.asarray(runs)
    acc_mean = per_run.mean(axis=0)
    acc_std = per_run.std(axis=0)

    curve = p_star = in_range = None
    try:
        curve = fit_monomial([(p, 1.0 - m) for p, m in zip(protocol.p_values, acc_mean)])
        p_star = pseudo_threshold(curve)
        in_range = 0.0 < p_star < 1.0
    except InsufficientDataError:
        pass   # fewer than two points with lfr > 0: no curve
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
    """Accuracy versus stuck-at rate at the protocol's one fault rate; for
    hwa_mnd a p_drop grid may be swept at each rate, and other schemes
    refuse one."""
    _check_scheme(scheme, master_seed, "p_drop_values" if p_drop_values else None)
    drops: Sequence[float | None] = p_drop_values or (None,)
    # every rate is checked before the first run trains
    for rate in stuck_rates:
        check_value("stuck_rate", rate, _PROBABILITY)
        if scheme == "hwa_mnd":
            for d in drops:
                check_value("p_drop", rate if d is None else d, _DROP_RATE)
    # a row reports one fault rate's accuracy
    if len(protocol.p_values) != 1:
        raise ValueError(f"stuck_sweep needs a protocol of one fault rate, "
                         f"got p_values {protocol.p_values}")
    if test_sets is None:
        test_sets = _default_test_sets(protocol, master_seed)
    rows = []
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
