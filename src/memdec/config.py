"""Run configuration: a flat `key = value` text format with strict keys,
batch validation, and lossless round-tripping.

Parsing, checking and serializing all read one table, `_KEYS`: per key, its
value kind (a parser and a formatter), its rule (message and check) and the
`RunConfig` field(s) it sets. Defaults live only in the dataclasses: a config
overrides fields of `RunConfig()`, so an empty file is the full default
experiment. `dataset.rounds` sets the rounds of datasets and protocol alike;
`eval.p` sets the protocol's one fault rate. `crossbar.stuck_rate` and
`hwa.p_drop` set rates that `evaluate_scheme` takes as arguments:
`RunConfig.stuck_rate`, the chips' stuck-at rate, and `RunConfig.hwa_p_drop`,
the hwa_mnd dropconnect rate that `retrain_hwa` takes per call (the stuck
rate when unset). `hwa.p_drop` is the only dropconnect key, so there is no
`retrain.p_drop`.

Every config dataclass checks its fields when it is built, so a config
built in code obeys the rules that config text does: `DatasetConfig` and
`RunConfig` run the `_KEYS` rule of each key that sets one of their own
fields (`_check_fields`), and the dataclasses of the other modules check
theirs with the same rules.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce

import numpy as np

from .analog_model import CrossbarConfig
from .errors import ConfigError, _check_integers
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

    def __post_init__(self):
        _check_fields(self, "dataset.")
        if self.p_min > self.p_max:
            raise ValueError(f"p_min {self.p_min} exceeds p_max {self.p_max}")

    def p_grid(self) -> tuple[float, ...]:
        return tuple(float(p) for p in np.geomspace(self.p_min, self.p_max, self.points))


@dataclass(frozen=True)
class RunConfig:
    seed: int = 12345
    schemes: tuple[str, ...] = SCHEMES
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    protocol: EvalProtocol = field(default_factory=EvalProtocol)
    curve_p_min: float = 1e-4
    curve_p_max: float = 1e-2
    curve_points: int = 8
    stuck_rate: float = 0.1  # stuck-at rate of the evaluated chips
    hwa_p_drop: float | None = None  # hwa_mnd dropconnect rate; default: stuck_rate

    def __post_init__(self):
        _check_fields(self, "")


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return low in ("true", "yes", "1", "on")


def _parse_finite_reals(text: str) -> tuple[float, ...]:
    """A comma list of finite reals; empty text is the empty list."""
    values = tuple(map(float, text.split(","))) if text else ()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"expected finite reals, got {text!r}")
    return values


_Kind = namedtuple("_Kind", "parse format")  # text -> value, value -> text
_INT = _Kind(int, str)
_FLOAT = _Kind(float, repr)
_BOOL = _Kind(_parse_bool, lambda v: str(v).lower())
_FLOATS = _Kind(_parse_finite_reals, lambda v: ",".join(map(repr, v)))
_SCHEME_LIST = _Kind(lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
                     ",".join)
# one float, held as a 1-tuple
_FLOAT_TUPLE = _Kind(lambda s: (float(s),), _FLOATS.format)

_COUNT = ("an integer >= 1", lambda x: x >= 1)
# reals are finite: an infinite bound, conductance or variability gives NaN
# analog logits, and an infinite Adam eps leaves the parameters untrained
_POSITIVE = ("a positive real", lambda x: 0 < x < math.inf)
_NON_NEGATIVE = ("a non-negative real", lambda x: 0 <= x < math.inf)
_PROBABILITY = ("a probability in [0, 1]", lambda x: 0 <= x <= 1)
_RATE = ("a probability in (0, 1]", lambda x: 0 < x <= 1)
_BETA = ("a real in [0, 1)", lambda x: 0 <= x < 1)
_CONDUCTANCE = ("a positive conductance in uS", _POSITIVE[1])
_AT_LEAST_2 = ("an integer >= 2", lambda x: x >= 2)
_ANY = (None, None)


# rule: (message, check); paths: the RunConfig fields the key sets, () for
# the field its own name gives
_Key = namedtuple("_Key", "kind rule paths", defaults=((),))
# In serialization order; optional keys (default None) come last.
_KEYS = {
    "seed": _Key(_INT, ("an integer in [0, 2^64)", lambda x: 0 <= x < 2**64)),
    "schemes": _Key(_SCHEME_LIST, (f"a comma list drawn from {SCHEMES}",
                                   lambda v: v and all(x in SCHEMES for x in v))),
    "dataset.p_min": _Key(_FLOAT, _RATE),
    "dataset.p_max": _Key(_FLOAT, _RATE),
    "dataset.points": _Key(_INT, _COUNT),
    "dataset.train_samples": _Key(_INT, _COUNT),
    "dataset.val_samples": _Key(_INT, _COUNT),
    "dataset.rounds": _Key(_INT, _COUNT, ("dataset.rounds", "protocol.rounds")),
    "train.learning_rate": _Key(_FLOAT, _POSITIVE),
    "train.batch_size": _Key(_INT, _COUNT),
    "train.epochs": _Key(_INT, _COUNT),
    "train.adam_beta1": _Key(_FLOAT, _BETA),
    "train.adam_beta2": _Key(_FLOAT, _BETA),
    "train.adam_eps": _Key(_FLOAT, _POSITIVE),
    "retrain.epochs": _Key(_INT, _COUNT),
    "retrain.noise_relative": _Key(_FLOAT, _NON_NEGATIVE),
    "retrain.io_discretize": _Key(_BOOL, _ANY),
    "crossbar.g_hcs": _Key(_FLOAT, _CONDUCTANCE),
    "crossbar.g_lcs": _Key(_FLOAT, _CONDUCTANCE),
    "crossbar.stuck_rate": _Key(_FLOAT, _PROBABILITY, ("stuck_rate",)),
    "crossbar.adc_bound": _Key(_FLOAT, _POSITIVE),
    "crossbar.dac_bound": _Key(_FLOAT, _POSITIVE),
    "crossbar.levels": _Key(_INT, _AT_LEAST_2),
    "crossbar.variability_coeffs": _Key(_FLOATS, _ANY, ("crossbar.variability.coefficients",)),
    "crossbar.fallback_relative": _Key(_FLOAT, _NON_NEGATIVE,
                                       ("crossbar.variability.fallback_relative",)),
    "crossbar.quantize_io": _Key(_BOOL, _ANY),
    "eval.n_train_runs": _Key(_INT, _COUNT, ("protocol.n_train_runs",)),
    "eval.n_infer_runs": _Key(_INT, _COUNT, ("protocol.n_infer_runs",)),
    "eval.test_shots": _Key(_INT, _COUNT, ("protocol.test_shots",)),
    "eval.p": _Key(_FLOAT_TUPLE, (_RATE[0], lambda v: _RATE[1](v[0])), ("protocol.p_values",)),
    "eval.curve_p_min": _Key(_FLOAT, _RATE, ("curve_p_min",)),
    "eval.curve_p_max": _Key(_FLOAT, _RATE, ("curve_p_max",)),
    "eval.curve_points": _Key(_INT, _AT_LEAST_2, ("curve_points",)),
    "retrain.clip_scale": _Key(_FLOAT, _POSITIVE),
    "hwa.p_drop": _Key(_FLOAT, _PROBABILITY, ("hwa_p_drop",)),
}


def _check_fields(config, prefix: str) -> None:
    """Raise ValueError unless each field of `config` that a key sets, at
    path `prefix` + field name, follows that key's rule; an integer key's
    field must be an integer (`_check_integers`), and a field whose default
    is None (an optional key's) may be None."""
    optional = {f.name for f in fields(config) if f.default is None}
    for key, row in _KEYS.items():
        expect, check = row.rule
        for path in row.paths or (key,):
            name = path[len(prefix):]
            if not path.startswith(prefix) or "." in name:
                continue
            value = getattr(config, name)
            if row.kind is _INT:
                _check_integers(config, name)
            if value is None and name in optional:
                continue
            if check is not None and not check(value):
                raise ValueError(f"{name} must be {expect}, got {value!r}")


def _lookup(obj, path: str):
    return reduce(getattr, path.split("."), obj)


def _override(obj, values: dict[str, object]):
    """`obj` with the fields at the dotted paths of `values` replaced; each
    dataclass is rebuilt once, with all of its new fields at a time."""
    groups: dict[str, dict[str, object]] = {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        groups.setdefault(head, {})[rest] = value
    return replace(obj, **{
        head: inner[""] if "" in inner else _override(getattr(obj, head), inner)
        for head, inner in groups.items()})


def parse_key_values(raw: str) -> dict[str, str]:
    """Split `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    errors = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, equals, value = (part.strip() for part in stripped.partition("="))
        if not equals:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
        elif key in out:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        else:
            out[key] = value
    if errors:
        raise ConfigError("; ".join(errors))
    return out


def validate_config(raw: str) -> RunConfig:
    """Parse configuration text; every violation is reported in one pass."""
    errors = []
    values: dict[str, object] = {}  # RunConfig path -> value
    for key, text in parse_key_values(raw).items():
        row = _KEYS.get(key)
        if row is None:
            errors.append(f"unknown key {key!r}")
            continue
        expect, check = row.rule
        try:
            value = row.kind.parse(text)
        except ValueError:
            errors.append(f"{key}: could not parse {text!r}"
                          + (f" as {expect}" if expect else ""))
            continue
        if check is not None and not check(value):
            errors.append(f"{key}: {text!r} is not {expect}")
            continue
        values.update(dict.fromkeys(row.paths or (key,), value))

    default = RunConfig()  # unset and rejected keys compare at their defaults
    p_min, p_max, g_hcs, g_lcs = (values.get(path, _lookup(default, path)) for path in (
        "dataset.p_min", "dataset.p_max", "crossbar.g_hcs", "crossbar.g_lcs"))
    if p_min > p_max:
        errors.append("dataset.p_min exceeds dataset.p_max")
    if not g_hcs > g_lcs:
        errors.append("crossbar.g_hcs must exceed crossbar.g_lcs")
    if errors:
        raise ConfigError("; ".join(errors))
    return _override(default, values)


def serialize_config(cfg: RunConfig) -> str:
    """Every key, optional ones only when set, so that
    validate_config(serialize_config(cfg)) == cfg on every field a key sets.

    Raises `ConfigError` naming each key whose text cannot carry its fields
    back: a value its kind writes as text that does not parse back to it,
    or fields of one key that hold different values (`dataset.rounds` sets
    `protocol.rounds` too). A config whose text `validate_config` rejects
    raises its error, and one whose fields that no key writes differ from
    their defaults raises an error naming them.
    """
    lines, errors = [], []
    for key, row in _KEYS.items():
        paths = row.paths or (key,)
        values = [_lookup(cfg, path) for path in paths]
        if values[0] is None:
            continue
        text = row.kind.format(values[0])
        lines.append(f"{key} = {text}")
        try:
            carried = all(v == row.kind.parse(text) for v in values)
        except ValueError:
            carried = False
        if not carried:
            held = ", ".join(f"{path} = {v!r}" for path, v in zip(paths, values))
            errors.append(f"{key} cannot carry {held}")
    if errors:
        raise ConfigError("; ".join(errors))
    text = "\n".join(lines) + "\n"
    unwritten = list(_differing_fields(validate_config(text), cfg))
    if unwritten:
        raise ConfigError("no key writes " + ", ".join(unwritten))
    return text


def _differing_fields(a, b, prefix: str = ""):
    """Dotted paths of the leaf fields where dataclasses `a` and `b` differ."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if is_dataclass(x) and type(x) is type(y):
            yield from _differing_fields(x, y, f"{prefix}{f.name}.")
        elif x != y:
            yield prefix + f.name
