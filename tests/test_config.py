from dataclasses import fields, is_dataclass
from functools import reduce

import pytest

from memdec import config as cf
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


@pytest.mark.parametrize("cfg,message", [
    (cf.RunConfig(protocol=EvalProtocol(p_values=(0.01, 0.001))),
     "eval.p cannot carry protocol.p_values = (0.01, 0.001)"),
    (cf.RunConfig(protocol=EvalProtocol(rounds=5)),
     "dataset.rounds cannot carry dataset.rounds = 3, protocol.rounds = 5"),
    (cf.RunConfig(dataset=cf.DatasetConfig(points=0)),
     "dataset.points: '0' is not an integer >= 1"),
    (cf.RunConfig(dataset=cf.DatasetConfig(p_min=0.1)),
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


# The dataclasses that enforce their keys' rules. DatasetConfig and RunConfig
# do not, so that the serializer's refusals above can be built.
CHECKED = (TrainConfig, RetrainConfig, CrossbarConfig, VariabilityModel, EvalProtocol)
# texts of each value kind, inside and outside every rule of that kind
REALS = ["-inf", "-1", "-0.0", "0", "1e-300", "0.5", "1", "1.5", "200", "inf", "nan"]
PROBES = {cf._INT: ["-1", "0", "1", "2", "3"], cf._FLOAT: REALS, cf._FLOAT_TUPLE: REALS,
          cf._FLOATS: ["", "0.5,0.01", "-5", "nan"], cf._BOOL: ["true", "false"]}


def checked_fields():
    """(key, dataclass, field) of every key path that lands on a CHECKED
    dataclass."""
    for key, row in cf._KEYS.items():
        for path in row.paths or (key,):
            parent, _, name = path.rpartition(".")
            owner = reduce(getattr, parent.split("."), cf.RunConfig()) if parent else None
            if isinstance(owner, CHECKED):
                yield key, type(owner), name


@pytest.mark.parametrize("key, owner, name", list(checked_fields()))
def test_dataclass_fields_follow_their_config_key_rules(key, owner, name):
    # a NaN learning rate, Adam beta or eps, ADC/DAC bound or fallback
    # variability, a beta outside [0, 1) and zero rounds used to be accepted
    kind = cf._KEYS[key].kind
    for text in PROBES[kind]:
        value = kind.parse(text)
        try:
            cf.validate_config(f"{key} = {text}")
        except ConfigError:
            with pytest.raises(ValueError, match=name):
                owner(**{name: value})
        else:
            assert getattr(owner(**{name: value}), name) == value


@pytest.mark.parametrize("owner", [TrainConfig, RetrainConfig])
def test_seed_fields_outside_the_64_bit_range_rejected(owner):
    # derive_seed reduces seeds mod 2^64, so seed -1 used to train what
    # 2^64 - 1 trains
    for seed in (0, 2**64 - 1):
        assert owner(seed=seed).seed == seed
    for seed in (-1, 2**64, float("nan")):
        with pytest.raises(ValueError, match="seed"):
            owner(seed=seed)
