import copy
import math
from dataclasses import fields, is_dataclass
from functools import reduce

import numpy as np
import pytest

from memdec import config as cf
from memdec import rules
from memdec.analog_model import CrossbarConfig, VariabilityModel
from memdec.errors import ConfigError
from memdec.evaluation import EvalProtocol
from memdec.hwa_training import RetrainConfig
from memdec.rnn_decoder import TrainConfig


def test_default_config_round_trip():
    cfg = cf.validate_config("")
    assert cfg == cf.RunConfig()
    assert cf.validate_config(cf.serialize_config(cfg)) == cfg


def test_eval_p_reaches_protocol_and_round_trips():
    text = "\n".join([
        "seed = 7",
        "eval.p = 0.005",
        "eval.n_train_runs = 2",
        "crossbar.g_hcs = 150.0",
        "crossbar.g_lcs = 20.0",
        "crossbar.variability_coeffs = 0.5,0.01",
        "retrain.clip_scale = 2.5",
        "hwa.p_drop = 0.05",
    ])
    cfg = cf.validate_config(text)
    assert cfg.protocol.p_values == (0.005,)
    assert (cfg.crossbar.g_hcs, cfg.crossbar.g_lcs) == (150.0, 20.0)
    again = cf.validate_config(cf.serialize_config(cfg))
    assert again == cfg
    assert again.protocol.p_values == (0.005,)


@pytest.mark.parametrize("text", [
    f"crossbar.g_hcs = {CrossbarConfig.g_lcs / 2}",
    f"crossbar.g_lcs = {CrossbarConfig.g_hcs * 2}",
    "crossbar.g_hcs = 100\ncrossbar.g_lcs = 100",
])
def test_conductance_order_checked_against_defaults(text):
    with pytest.raises(ConfigError, match="g_hcs must exceed"):
        cf.validate_config(text)


def test_one_sided_conductance_override_accepted():
    cfg = cf.validate_config(f"crossbar.g_lcs = {CrossbarConfig.g_hcs / 2}")
    assert cfg.crossbar.g_lcs == CrossbarConfig.g_hcs / 2


def test_one_error_names_every_violation():
    text = "\n".join([
        "bogus.key = 1",
        "crossbar.levels = 1",
        "train.epochs = many",
        "dataset.p_min = 0.2",
        "dataset.p_max = 0.1",
        "crossbar.g_hcs = 10",
    ])
    with pytest.raises(ConfigError) as info:
        cf.validate_config(text)
    message = str(info.value)
    for part in ("unknown key 'bogus.key'", "crossbar.levels: '1' is not",
                 "train.epochs: could not parse 'many'",
                 "dataset.p_min exceeds dataset.p_max",
                 "crossbar.g_hcs must exceed crossbar.g_lcs"):
        assert part in message
    assert message.count("; ") == 4


def test_every_malformed_line_is_reported():
    with pytest.raises(ConfigError) as info:
        cf.validate_config("seed 7\nseed = 1\nseed = 2\n")
    assert "line 1: expected 'key = value'" in str(info.value)
    assert "line 3: duplicate key 'seed'" in str(info.value)


def leaves(obj, prefix=""):
    """(dotted path, value) of every non-dataclass field under `obj`."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def other_value(default) -> str:
    """Text of a valid value unlike `default`, for every kind of key."""
    if default is None:  # an optional key: clip scale or dropconnect rate
        return "0.5"
    if isinstance(default, bool):
        return str(not default)
    if isinstance(default, int):  # every integer rule is a lower bound
        return str(default + 1)
    if isinstance(default, float):  # halving keeps every float rule and order
        return repr(default / 2)
    if not default:  # variability coefficients
        return "0.5,0.01"
    return default[0] if isinstance(default[0], str) else repr(default[0] / 2)


@pytest.mark.parametrize("key", cf._KEYS)
def test_each_key_sets_only_its_fields_and_round_trips(key):
    default = cf.RunConfig()
    paths = cf._KEYS[key].paths or (key,)
    text = other_value(reduce(getattr, paths[0].split("."), default))
    cfg = cf.validate_config(f"{key} = {text}")
    before = dict(leaves(default))
    changed = {path for path, value in leaves(cfg) if value != before[path]}
    assert changed == set(paths)
    assert cf.validate_config(cf.serialize_config(cfg)) == cfg


def test_retrain_p_drop_is_not_a_key():
    with pytest.raises(ConfigError) as info:
        cf.validate_config("retrain.p_drop = 0.1")
    assert str(info.value) == "unknown key 'retrain.p_drop'"


def test_conductances_apply_together_in_either_order():
    # 300 and 250 both exceed the default g_hcs, so a crossbar built with
    # one of them and the other's default would be rejected
    lines = ["crossbar.g_hcs = 300", "crossbar.g_lcs = 250"]
    for text in ("\n".join(lines), "\n".join(reversed(lines))):
        cfg = cf.validate_config(text)
        assert (cfg.crossbar.g_hcs, cfg.crossbar.g_lcs) == (300.0, 250.0)


def unchecked(config, **changes):
    """A copy of the frozen dataclass `config` with `changes` set past its
    checks, as no constructor would build it."""
    config = copy.copy(config)
    for name, value in changes.items():
        object.__setattr__(config, name, value)
    return config


@pytest.mark.parametrize("cfg,message", [
    (cf.RunConfig(protocol=EvalProtocol(p_values=(0.01, 0.001))),
     "eval.p cannot carry protocol.p_values = (0.01, 0.001)"),
    (cf.RunConfig(protocol=EvalProtocol(rounds=5)),
     "dataset.rounds cannot carry dataset.rounds = 3, protocol.rounds = 5"),
    (cf.RunConfig(dataset=unchecked(cf.DatasetConfig(), points=0)),
     "dataset.points: '0' is not an integer >= 1"),
    (cf.RunConfig(dataset=unchecked(cf.DatasetConfig(), p_min=0.1)),
     "dataset.p_min exceeds dataset.p_max"),
])
def test_serialize_refuses_what_text_cannot_carry(cfg, message):
    # each would serialize to text that validate_config rejects or parses
    # to another config
    with pytest.raises(ConfigError) as info:
        cf.serialize_config(cfg)
    assert str(info.value) == message


def test_serialize_names_every_key_it_cannot_carry():
    cfg = cf.RunConfig(protocol=EvalProtocol(p_values=(0.01, 0.001), rounds=5))
    with pytest.raises(ConfigError) as info:
        cf.serialize_config(cfg)
    assert str(info.value).split("; ") == [
        "dataset.rounds cannot carry dataset.rounds = 3, protocol.rounds = 5",
        "eval.p cannot carry protocol.p_values = (0.01, 0.001)"]


def test_serialize_refuses_fields_no_key_writes():
    cfg = cf.RunConfig(train=TrainConfig(seed=9), retrain=RetrainConfig(seed=3))
    with pytest.raises(ConfigError) as info:
        cf.serialize_config(cfg)
    assert str(info.value) == "no key writes train.seed, retrain.seed"


# values of each value kind, inside and outside every rule of that kind
REALS = [-math.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.5, 200.0, math.inf, math.nan]
PROBES = {cf._INT: [-1, 0, 1, 2, 3], cf._FLOAT: REALS, cf._FLOAT_TUPLE: [(x,) for x in REALS],
          cf._FLOATS: [(), (0.5, 0.01), (-5.0,), (math.nan,), (math.inf,), (0.5, -math.inf)],
          cf._BOOL: [True, False],
          cf._SCHEME_LIST: [(), ("fp_mnd",), ("nope",), ("baseline", "nope"), cf.SCHEMES]}


def owner_of(path):
    """The dataclass of `RunConfig()` at the parent of `path`, and the name
    `path` ends in."""
    parent, _, name = path.rpartition(".")
    owner = reduce(getattr, parent.split("."), cf.RunConfig()) if parent else cf.RunConfig()
    return owner, name


# The key whose text each field's values are probed through; the training
# and retraining seeds have no key, and follow the seed key's rule
KEY_OF = {path: key for key, row in cf._KEYS.items() for path in row.paths}
KEY_OF.update({"train.seed": "seed", "retrain.seed": "seed"})


def checked_fields():
    """(key, dataclass, field) of every row of the rule table and every field
    a key sets."""
    for path in dict.fromkeys([*rules.RULES, *KEY_OF]):
        owner, name = owner_of(path)
        yield KEY_OF[path], type(owner), name


def test_every_rule_row_is_a_field_of_run_config():
    # check_fields finds a dataclass's rows by their prefix, so a row with a
    # mistyped path would check nothing and fail no probe
    for path in rules.RULES:
        owner, name = owner_of(path)
        assert is_dataclass(owner) and name in {f.name for f in fields(owner)}, path


@pytest.mark.parametrize("key, owner, name", list(checked_fields()))
def test_dataclass_fields_follow_their_config_key_rules(key, owner, name):
    # a NaN learning rate, Adam beta or eps, ADC bound or fallback
    # variability, a beta outside [0, 1) and zero rounds used to be accepted,
    # and so were infinite reals and non-finite variability coefficients
    kind = cf._KEYS[key].kind
    for value in PROBES[kind]:
        try:
            cf.validate_config(f"{key} = {kind.format(value)}")
        except ConfigError:
            with pytest.raises(ValueError, match=name):
                owner(**{name: value})
        else:
            assert getattr(owner(**{name: value}), name) == value


@pytest.mark.parametrize("key", [
    "train.learning_rate", "train.adam_eps", "retrain.noise_relative", "retrain.clip_scale",
    "crossbar.g_hcs", "crossbar.g_lcs", "crossbar.adc_bound", "crossbar.fallback_relative"])
@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_non_finite_reals_rejected(key, text):
    # an infinite ADC bound, conductance or fallback variability gave
    # all-NaN analog logits, and an infinite Adam eps untrained parameters
    with pytest.raises(ConfigError) as info:
        cf.validate_config(f"{key} = {text}")
    assert str(info.value) == f"{key}: {text!r} is not {cf._KEYS[key].rule[0]}"


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "0.5,inf", "nan,0.01"])
def test_non_finite_variability_coefficients_rejected(text):
    with pytest.raises(ConfigError) as info:
        cf.validate_config(f"crossbar.variability_coeffs = {text}")
    assert str(info.value) == f"crossbar.variability_coeffs: could not parse {text!r}"


@pytest.mark.parametrize("owner", [TrainConfig, RetrainConfig, cf.RunConfig])
def test_seed_fields_outside_the_64_bit_range_rejected(owner):
    # derive_seed reduces seeds mod 2^64, so seed -1 used to train what
    # 2^64 - 1 trains, and a run seed of 2^64 ran seed 0
    for seed in (0, 2**64 - 1):
        assert owner(seed=seed).seed == seed
    for seed in (-1, 2**64, float("nan")):
        with pytest.raises(ValueError, match="seed"):
            owner(seed=seed)


def test_seed_key_outside_the_64_bit_range_rejected():
    assert cf.validate_config(f"seed = {2**64 - 1}").seed == 2**64 - 1
    with pytest.raises(ConfigError) as info:
        cf.validate_config(f"seed = {2**64}")
    assert str(info.value) == "seed: '18446744073709551616' is not an integer in [0, 2^64)"


@pytest.mark.parametrize("owner, name", [
    (TrainConfig, "batch_size"), (TrainConfig, "epochs"), (TrainConfig, "seed"),
    (RetrainConfig, "epochs"), (RetrainConfig, "seed"),
    (EvalProtocol, "n_train_runs"), (EvalProtocol, "n_infer_runs"),
    (EvalProtocol, "test_shots"), (EvalProtocol, "rounds"), (CrossbarConfig, "levels"),
    (cf.DatasetConfig, "points"), (cf.DatasetConfig, "train_samples"),
    (cf.DatasetConfig, "val_samples"), (cf.DatasetConfig, "rounds"),
    (cf.RunConfig, "seed"), (cf.RunConfig, "curve_points")])
def test_count_fields_must_be_integers(owner, name):
    # an integral float or a bool passed the range checks, and training then
    # failed mid-call with a bare TypeError; 64.5 levels quantized to a grid
    # of step 2 bound / 64.5
    for value in (2, np.int64(2), np.uint32(2)):
        assert getattr(owner(**{name: value}), name) == value
    for value in (2.0, 1.5, True, np.float64(2.0), np.bool_(True), "2"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            owner(**{name: value})


@pytest.mark.parametrize("owner, changes, message", [
    (cf.DatasetConfig, {"points": 0}, "points must be an integer >= 1, got 0"),
    (cf.DatasetConfig, {"train_samples": -5}, "train_samples must be an integer >= 1, got -5"),
    (cf.DatasetConfig, {"points": 2.5}, "points must be an integer, got 2.5"),
    (cf.DatasetConfig, {"p_min": math.nan}, "p_min must be a probability in (0, 1], got nan"),
    (cf.DatasetConfig, {"p_max": 0.0}, "p_max must be a probability in (0, 1], got 0.0"),
    (cf.DatasetConfig, {"p_min": 0.5, "p_max": 0.1}, "p_min 0.5 exceeds p_max 0.1"),
    (cf.RunConfig, {"curve_points": 1}, "curve_points must be an integer >= 2, got 1"),
    (cf.RunConfig, {"stuck_rate": 2.0}, "stuck_rate must be a probability in [0, 1], got 2.0"),
    (cf.RunConfig, {"seed": -3}, "seed must be an integer in [0, 2^64), got -3"),
    (cf.RunConfig, {"hwa_p_drop": 1.5}, "hwa_p_drop must be a probability in [0, 1], got 1.5"),
    (cf.RunConfig, {"schemes": ("nope",)},
     f"schemes must be a comma list drawn from {cf.SCHEMES}, got ('nope',)"),
])
def test_dataset_and_run_configs_built_in_code_are_checked(owner, changes, message):
    # these were accepted; points=2.5 then failed in p_grid with a bare
    # TypeError, and p_min=nan gave a grid of NaNs
    with pytest.raises(ValueError) as info:
        owner(**changes)
    assert str(info.value) == message


@pytest.mark.parametrize("owner, changes, message", [
    (TrainConfig, {"epochs": 0}, "epochs must be an integer >= 1, got 0"),
    (TrainConfig, {"learning_rate": math.inf}, "learning_rate must be a positive real, got inf"),
    (TrainConfig, {"adam_beta2": 1.0}, "adam_beta2 must be a real in [0, 1), got 1.0"),
    (TrainConfig, {"seed": -1}, "seed must be an integer in [0, 2^64), got -1"),
    (RetrainConfig, {"seed": 2**64},
     "seed must be an integer in [0, 2^64), got 18446744073709551616"),
    (RetrainConfig, {"noise_relative": -0.1},
     "noise_relative must be a non-negative real, got -0.1"),
    (RetrainConfig, {"clip_scale": 0.0}, "clip_scale must be a positive real, got 0.0"),
    (CrossbarConfig, {"levels": 1}, "levels must be an integer in [2, 2^48], got 1"),
    (CrossbarConfig, {"levels": 2**48 + 1},
     "levels must be an integer in [2, 2^48], got 281474976710657"),
    (CrossbarConfig, {"g_lcs": 0.0}, "g_lcs must be a positive conductance in uS, got 0.0"),
    (CrossbarConfig, {"g_hcs": 50.0}, "g_hcs 50.0 does not exceed g_lcs 60.0"),
    (VariabilityModel, {"fallback_relative": math.inf},
     "fallback_relative must be a non-negative real, got inf"),
    (VariabilityModel, {"coefficients": (0.5, math.nan)},
     "coefficients must be finite reals, got (0.5, nan)"),
    (EvalProtocol, {"test_shots": 0}, "test_shots must be an integer >= 1, got 0"),
    (EvalProtocol, {"p_values": ()},
     "p_values must be one or more probabilities in (0, 1], got ()"),
    (EvalProtocol, {"p_values": (0.01, 0.0)},
     "p_values must be one or more probabilities in (0, 1], got (0.01, 0.0)"),
])
def test_every_config_dataclass_words_its_rules_alike(owner, changes, message):
    # the rules were written out by hand in three styles ("epochs must be
    # >= 1", "seed -1 outside [0, 2^64)", "protocol needs at least one fault
    # rate"); every message now names the field, its rule and the value
    with pytest.raises(ValueError) as info:
        owner(**changes)
    assert str(info.value) == message


def test_dataset_and_run_configs_accept_what_their_keys_accept():
    dataset = cf.DatasetConfig(p_min=0.01, p_max=0.01, points=np.int64(1))
    assert dataset.p_grid() == (0.01,)
    assert cf.DatasetConfig(points=np.uint8(4)).p_grid() == cf.DatasetConfig(points=4).p_grid()
    run = cf.RunConfig(seed=np.uint64(2**64 - 1), hwa_p_drop=None, schemes=("ds_mnd",),
                       curve_points=2, stuck_rate=0.0)
    assert run.hwa_p_drop is None and run.seed == 2**64 - 1
    assert cf.RunConfig(hwa_p_drop=0.0).hwa_p_drop == 0.0
