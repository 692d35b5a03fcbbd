"""Run configuration: a flat `key = value` text format with strict keys,
batch validation, and lossless round-tripping.

An empty file yields the full default experiment (learning rate 0.001,
batch 32, ADC bound 6, 256 levels, 0.8% variability fallback, 10% stuck
rate, the error-bar protocol of 10 training x 100 inference runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .analog_model import CrossbarConfig, VariabilityModel
from .errors import ConfigError
from .evaluation import SCHEMES, EvalProtocol
from .hwa_training import RetrainConfig
from .rnn_decoder import TrainConfig


@dataclass(frozen=True)
class DatasetConfig:
    p_min: float = 1e-5
    p_max: float = 1e-2
    points: int = 8
    train_samples: int = 200_000
    val_samples: int = 50_000
    rounds: int = 3

    def p_grid(self) -> tuple[float, ...]:
        return tuple(float(p) for p in np.geomspace(self.p_min, self.p_max, self.points))


@dataclass(frozen=True)
class RunConfig:
    seed: int = 12345
    schemes: tuple[str, ...] = ("baseline", "fp_mnd", "hwa_mnd", "ds_mnd")
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    protocol: EvalProtocol = field(default_factory=EvalProtocol)
    eval_p: float = 1e-2
    curve_p_min: float = 1e-4
    curve_p_max: float = 1e-2
    curve_points: int = 8
    hwa_p_drop: float | None = None  # default: crossbar stuck rate


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(x) for x in text.split(","))


# key -> (parser, validator message | None, validator)
def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _probability(x):
    return 0.0 <= x <= 1.0


_SCHEMA: dict[str, tuple] = {
    "seed": (int, "a non-negative integer", _non_negative),
    "schemes": (lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
                f"a comma list drawn from {SCHEMES}",
                lambda v: v and all(x in SCHEMES for x in v)),
    "dataset.p_min": (float, "a probability in (0, 1]", lambda x: 0 < x <= 1),
    "dataset.p_max": (float, "a probability in (0, 1]", lambda x: 0 < x <= 1),
    "dataset.points": (int, "an integer >= 1", _positive),
    "dataset.train_samples": (int, "an integer >= 1", _positive),
    "dataset.val_samples": (int, "an integer >= 1", _positive),
    "dataset.rounds": (int, "an integer >= 1", _positive),
    "train.learning_rate": (float, "a positive real", _positive),
    "train.batch_size": (int, "an integer >= 1", _positive),
    "train.epochs": (int, "an integer >= 1", _positive),
    "train.adam_beta1": (float, "a real in [0, 1)", lambda x: 0 <= x < 1),
    "train.adam_beta2": (float, "a real in [0, 1)", lambda x: 0 <= x < 1),
    "train.adam_eps": (float, "a positive real", _positive),
    "retrain.epochs": (int, "an integer >= 1", _positive),
    "retrain.p_drop": (float, "a probability in [0, 1]", _probability),
    "retrain.noise_relative": (float, "a non-negative real", _non_negative),
    "retrain.io_discretize": (_parse_bool, None, None),
    "retrain.clip_scale": (float, "a positive real", _positive),
    "crossbar.g_hcs": (float, "a positive conductance in uS", _positive),
    "crossbar.g_lcs": (float, "a positive conductance in uS", _positive),
    "crossbar.stuck_rate": (float, "a probability in [0, 1]", _probability),
    "crossbar.adc_bound": (float, "a positive real", _positive),
    "crossbar.dac_bound": (float, "a positive real", _positive),
    "crossbar.levels": (int, "an integer >= 2", lambda x: x >= 2),
    "crossbar.variability_coeffs": (_parse_float_list, None, None),
    "crossbar.fallback_relative": (float, "a non-negative real", _non_negative),
    "crossbar.quantize_io": (_parse_bool, None, None),
    "eval.n_train_runs": (int, "an integer >= 1", _positive),
    "eval.n_infer_runs": (int, "an integer >= 1", _positive),
    "eval.test_shots": (int, "an integer >= 1", _positive),
    "eval.p": (float, "a probability in (0, 1]", lambda x: 0 < x <= 1),
    "eval.curve_p_min": (float, "a probability in (0, 1]", lambda x: 0 < x <= 1),
    "eval.curve_p_max": (float, "a probability in (0, 1]", lambda x: 0 < x <= 1),
    "eval.curve_points": (int, "an integer >= 2", lambda x: x >= 2),
    "hwa.p_drop": (float, "a probability in [0, 1]", _probability),
}


def parse_key_values(raw: str) -> dict[str, str]:
    """Split `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    errors = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in out:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        out[key] = value
    if errors:
        raise ConfigError("; ".join(errors))
    return out


def validate_config(raw: str) -> RunConfig:
    """Parse configuration text; every violation is reported in one pass."""
    pairs = parse_key_values(raw)
    errors = []
    values: dict[str, object] = {}
    for key, text in pairs.items():
        if key not in _SCHEMA:
            errors.append(f"unknown key {key!r}")
            continue
        parser, expect, check = _SCHEMA[key]
        try:
            value = parser(text)
        except ValueError:
            errors.append(f"{key}: could not parse {text!r}"
                          + (f" as {expect}" if expect else ""))
            continue
        if check is not None and not check(value):
            errors.append(f"{key}: {text!r} is not {expect}")
            continue
        values[key] = value

    if "dataset.p_min" in values or "dataset.p_max" in values:
        p_min = values.get("dataset.p_min", DatasetConfig.p_min)
        p_max = values.get("dataset.p_max", DatasetConfig.p_max)
        if p_min > p_max:
            errors.append("dataset.p_min exceeds dataset.p_max")
    g_hcs = values.get("crossbar.g_hcs", CrossbarConfig.g_hcs)
    g_lcs = values.get("crossbar.g_lcs", CrossbarConfig.g_lcs)
    if not g_hcs > g_lcs:
        errors.append("crossbar.g_hcs must exceed crossbar.g_lcs")
    if errors:
        raise ConfigError("; ".join(errors))

    def pick(prefix: str, **rename):
        out = {}
        for key, value in values.items():
            if key.startswith(prefix + "."):
                name = key[len(prefix) + 1:]
                out[rename.get(name, name)] = value
        return out

    dataset = DatasetConfig(**pick("dataset"))
    train = TrainConfig(**pick("train"))
    retrain_kw = pick("retrain")
    retrain = RetrainConfig(**retrain_kw)
    xb = pick("crossbar")
    coeffs = xb.pop("variability_coeffs", ())
    fallback = xb.pop("fallback_relative", 0.008)
    crossbar = CrossbarConfig(variability=VariabilityModel(tuple(coeffs), fallback), **xb)
    ev = pick("eval")
    eval_p = ev.get("p", 1e-2)
    protocol = EvalProtocol(
        n_train_runs=ev.get("n_train_runs", 10),
        n_infer_runs=ev.get("n_infer_runs", 100),
        test_shots=ev.get("test_shots", 100_000),
        p_values=(eval_p,),
        rounds=dataset.rounds,
    )
    return RunConfig(
        seed=values.get("seed", 12345),
        schemes=values.get("schemes", ("baseline", "fp_mnd", "hwa_mnd", "ds_mnd")),
        dataset=dataset, train=train, retrain=retrain, crossbar=crossbar,
        protocol=protocol,
        eval_p=eval_p,
        curve_p_min=ev.get("curve_p_min", 1e-4),
        curve_p_max=ev.get("curve_p_max", 1e-2),
        curve_points=ev.get("curve_points", 8),
        hwa_p_drop=values.get("hwa.p_drop"),
    )


def serialize_config(cfg: RunConfig) -> str:
    """Emit the full key set so parse(serialize(cfg)) == cfg."""
    lines = [
        f"seed = {cfg.seed}",
        f"schemes = {','.join(cfg.schemes)}",
        f"dataset.p_min = {cfg.dataset.p_min!r}",
        f"dataset.p_max = {cfg.dataset.p_max!r}",
        f"dataset.points = {cfg.dataset.points}",
        f"dataset.train_samples = {cfg.dataset.train_samples}",
        f"dataset.val_samples = {cfg.dataset.val_samples}",
        f"dataset.rounds = {cfg.dataset.rounds}",
        f"train.learning_rate = {cfg.train.learning_rate!r}",
        f"train.batch_size = {cfg.train.batch_size}",
        f"train.epochs = {cfg.train.epochs}",
        f"train.adam_beta1 = {cfg.train.adam_beta1!r}",
        f"train.adam_beta2 = {cfg.train.adam_beta2!r}",
        f"train.adam_eps = {cfg.train.adam_eps!r}",
        f"retrain.epochs = {cfg.retrain.epochs}",
        f"retrain.p_drop = {cfg.retrain.p_drop!r}",
        f"retrain.noise_relative = {cfg.retrain.noise_relative!r}",
        f"retrain.io_discretize = {str(cfg.retrain.io_discretize).lower()}",
        f"crossbar.g_hcs = {cfg.crossbar.g_hcs!r}",
        f"crossbar.g_lcs = {cfg.crossbar.g_lcs!r}",
        f"crossbar.stuck_rate = {cfg.crossbar.stuck_rate!r}",
        f"crossbar.adc_bound = {cfg.crossbar.adc_bound!r}",
        f"crossbar.dac_bound = {cfg.crossbar.dac_bound!r}",
        f"crossbar.levels = {cfg.crossbar.levels}",
        "crossbar.variability_coeffs = "
        + ",".join(repr(c) for c in cfg.crossbar.variability.coefficients),
        f"crossbar.fallback_relative = {cfg.crossbar.variability.fallback_relative!r}",
        f"crossbar.quantize_io = {str(cfg.crossbar.quantize_io).lower()}",
        f"eval.n_train_runs = {cfg.protocol.n_train_runs}",
        f"eval.n_infer_runs = {cfg.protocol.n_infer_runs}",
        f"eval.test_shots = {cfg.protocol.test_shots}",
        f"eval.p = {cfg.eval_p!r}",
        f"eval.curve_p_min = {cfg.curve_p_min!r}",
        f"eval.curve_p_max = {cfg.curve_p_max!r}",
        f"eval.curve_points = {cfg.curve_points}",
    ]
    if cfg.retrain.clip_scale is not None:
        lines.append(f"retrain.clip_scale = {cfg.retrain.clip_scale!r}")
    if cfg.hwa_p_drop is not None:
        lines.append(f"hwa.p_drop = {cfg.hwa_p_drop!r}")
    return "\n".join(lines) + "\n"
