"""Run configuration: a flat `key = value` text format with strict keys,
batch validation, and lossless round-tripping.

Parsing, checking and serializing all read one table, `_KEYS`: per key, its
value kind (a parser and a formatter), its rule and the `RunConfig` field(s)
it sets. Defaults live only in the dataclasses: a config overrides fields of
`RunConfig()`, so an empty file is the full default experiment.
`dataset.rounds` sets the rounds of datasets and protocol alike; `eval.p`
sets the protocol's one fault rate. `crossbar.stuck_rate` and `hwa.p_drop`
set rates that `evaluate_scheme` takes as arguments: `RunConfig.stuck_rate`,
the chips' stuck-at rate, and `RunConfig.hwa_p_drop`, the hwa_mnd
dropconnect rate that `retrain_hwa` takes per call (the stuck rate when
unset). `hwa.p_drop` is the only dropconnect key, so there is no
`retrain.p_drop`. `crossbar.variability_coeffs` is the one device model, the
polynomial sigma_prog(G): `0,0.008` (TiOx, the default), `0,0.038` (PCM), `0`.

The rule of each field lives in `rules.RULES`: every config dataclass checks
its fields with it when it is built, and each key takes the rule of the
field it sets, so a config built in code obeys the rules that config text
does. Where a key's text and its field differ in shape (`eval.p` is one
float, set as a 1-tuple), the key keeps a rule of its own.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce

import numpy as np

from .analog_model import CrossbarConfig
from .errors import ConfigError
from .evaluation import EvalProtocol
from .hwa_training import RetrainConfig
from .rnn_decoder import TrainConfig
from .rules import _ANY, _FINITE_REALS, _RATE, RULES, SCHEMES, Rule, check_fields


@dataclass(frozen=True)
class DatasetConfig:
    p_min: float = 1e-5
    p_max: float = 1e-2
    points: int = 8
    train_samples: int = 200_000
    val_samples: int = 50_000
    rounds: int = 3

    def __post_init__(self):
        check_fields(self, "dataset.")
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
        check_fields(self, "")


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return low in ("true", "yes", "1", "on")


def _parse_finite_reals(text: str) -> tuple[float, ...]:
    """A comma list of one or more finite reals."""
    values = tuple(map(float, text.split(",")))
    if not _FINITE_REALS.check(values):
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

# paths: the RunConfig fields the key sets, by default the one its name
# gives; rule: by default the `RULES` row of its first field, if any
_Key = namedtuple("_Key", "kind paths rule", defaults=((), None))
# In serialization order; optional keys (default None) come last.
_KEYS = {
    "seed": _Key(_INT),
    "schemes": _Key(_SCHEME_LIST),
    "dataset.p_min": _Key(_FLOAT),
    "dataset.p_max": _Key(_FLOAT),
    "dataset.points": _Key(_INT),
    "dataset.train_samples": _Key(_INT),
    "dataset.val_samples": _Key(_INT),
    "dataset.rounds": _Key(_INT, ("dataset.rounds", "protocol.rounds")),
    "train.learning_rate": _Key(_FLOAT),
    "train.batch_size": _Key(_INT),
    "train.epochs": _Key(_INT),
    "train.adam_beta1": _Key(_FLOAT),
    "train.adam_beta2": _Key(_FLOAT),
    "train.adam_eps": _Key(_FLOAT),
    "retrain.epochs": _Key(_INT),
    "retrain.noise_relative": _Key(_FLOAT),
    "retrain.io_discretize": _Key(_BOOL),
    "crossbar.g_hcs": _Key(_FLOAT),
    "crossbar.g_lcs": _Key(_FLOAT),
    "crossbar.stuck_rate": _Key(_FLOAT, ("stuck_rate",)),
    "crossbar.adc_bound": _Key(_FLOAT),
    "crossbar.levels": _Key(_INT),
    # its parser rejects empty text and a non-finite real, as text it
    # could not parse
    "crossbar.variability_coeffs": _Key(_FLOATS, rule=_ANY),
    "crossbar.quantize_io": _Key(_BOOL),
    "eval.n_train_runs": _Key(_INT, ("protocol.n_train_runs",)),
    "eval.n_infer_runs": _Key(_INT, ("protocol.n_infer_runs",)),
    "eval.test_shots": _Key(_INT, ("protocol.test_shots",)),
    "eval.p": _Key(_FLOAT_TUPLE, ("protocol.p_values",),
                   Rule(_RATE.expect, RULES["protocol.p_values"].check)),
    "eval.curve_p_min": _Key(_FLOAT, ("curve_p_min",)),
    "eval.curve_p_max": _Key(_FLOAT, ("curve_p_max",)),
    "eval.curve_points": _Key(_INT, ("curve_points",)),
    "retrain.clip_scale": _Key(_FLOAT),
    "hwa.p_drop": _Key(_FLOAT, ("hwa_p_drop",)),
}
_KEYS = {key: _Key(row.kind, paths, row.rule or RULES.get(paths[0], _ANY))
         for key, row in _KEYS.items() for paths in [row.paths or (key,)]}


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
        expect, check, _ = row.rule
        try:
            value = row.kind.parse(text)
        except ValueError:
            errors.append(f"{key}: could not parse {text!r}"
                          + (f" as {expect}" if expect else ""))
            continue
        if check is not None and not check(value):
            errors.append(f"{key}: {text!r} is not {expect}")
            continue
        values.update(dict.fromkeys(row.paths, value))

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
        values = [_lookup(cfg, path) for path in row.paths]
        if values[0] is None:
            continue
        text = row.kind.format(values[0])
        lines.append(f"{key} = {text}")
        try:
            carried = all(v == row.kind.parse(text) for v in values)
        except ValueError:
            carried = False
        if not carried:
            held = ", ".join(f"{path} = {v!r}" for path, v in zip(row.paths, values))
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
