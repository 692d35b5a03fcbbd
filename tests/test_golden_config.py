"""Golden config texts: `serialize_config(validate_config(text))` byte for
byte, and the exact `ConfigError` text of malformed configs.

Every case's expected output is `DEFAULT` with the lines of the keys it sets
replaced, in place, by the lines given; lines of optional keys that `DEFAULT`
lacks follow it in the order given. An empty coefficient list serializes
with a trailing space, written `\\x20` in `DEFAULT`.
"""

import pytest

from memdec import config as cf
from memdec.errors import ConfigError

DEFAULT = """\
seed = 12345
schemes = baseline,fp_mnd,hwa_mnd,ds_mnd
dataset.p_min = 1e-05
dataset.p_max = 0.01
dataset.points = 8
dataset.train_samples = 200000
dataset.val_samples = 50000
dataset.rounds = 3
train.learning_rate = 0.001
train.batch_size = 32
train.epochs = 50
train.adam_beta1 = 0.9
train.adam_beta2 = 0.999
train.adam_eps = 1e-08
retrain.epochs = 10
retrain.noise_relative = 0.008
retrain.io_discretize = false
crossbar.g_hcs = 200.0
crossbar.g_lcs = 60.0
crossbar.stuck_rate = 0.1
crossbar.adc_bound = 6.0
crossbar.levels = 256
crossbar.variability_coeffs =\x20
crossbar.fallback_relative = 0.008
crossbar.quantize_io = true
eval.n_train_runs = 10
eval.n_infer_runs = 100
eval.test_shots = 100000
eval.p = 0.01
eval.curve_p_min = 0.0001
eval.curve_p_max = 0.01
eval.curve_points = 8
"""

# name -> (config text, the lines of its serialization that differ from DEFAULT)
CASES = {
    "empty": ("", []),
    "seed_and_scheme_subset": (
        "seed = 0\nschemes = hwa_mnd, baseline\n",
        ["seed = 0", "schemes = hwa_mnd,baseline"]),
    "dataset": (
        "dataset.p_min = 2e-4\ndataset.p_max = 0.02\ndataset.points = 3\n"
        "dataset.train_samples = 1000\ndataset.val_samples = 250\ndataset.rounds = 5\n",
        ["dataset.p_min = 0.0002", "dataset.p_max = 0.02", "dataset.points = 3",
         "dataset.train_samples = 1000", "dataset.val_samples = 250",
         "dataset.rounds = 5"]),
    "train": (
        "train.learning_rate = 3E-3\ntrain.batch_size = 64\ntrain.epochs = 7\n"
        "train.adam_beta1 = 0.8\ntrain.adam_beta2 = 0.99\ntrain.adam_eps = 1e-7\n",
        ["train.learning_rate = 0.003", "train.batch_size = 64", "train.epochs = 7",
         "train.adam_beta1 = 0.8", "train.adam_beta2 = 0.99", "train.adam_eps = 1e-07"]),
    "retrain_with_clip_scale": (
        "retrain.epochs = 4\nretrain.noise_relative = 0\n"
        "retrain.io_discretize = true\nretrain.clip_scale = 2.5\n",
        ["retrain.epochs = 4", "retrain.noise_relative = 0.0",
         "retrain.io_discretize = true", "retrain.clip_scale = 2.5"]),
    "crossbar_no_coeffs": (
        "crossbar.g_lcs = 250\ncrossbar.g_hcs = 300\ncrossbar.stuck_rate = 0.05\n"
        "crossbar.adc_bound = 4\ncrossbar.levels = 16\n"
        "crossbar.variability_coeffs =\ncrossbar.fallback_relative = 0.01\n"
        "crossbar.quantize_io = false\n",
        ["crossbar.g_hcs = 300.0", "crossbar.g_lcs = 250.0", "crossbar.stuck_rate = 0.05",
         "crossbar.adc_bound = 4.0", "crossbar.levels = 16",
         "crossbar.fallback_relative = 0.01", "crossbar.quantize_io = false"]),
    # the finest converter: the recurrent step's DAC of one multiply gives
    # the full DAC's bits up to 2^48 levels
    "crossbar_levels_2_48": (
        "crossbar.levels = 281474976710656\n", ["crossbar.levels = 281474976710656"]),
    "crossbar_one_coeff": (
        "crossbar.variability_coeffs = 1.5\ncrossbar.quantize_io = No\n"
        "retrain.io_discretize = YES\n",
        ["retrain.io_discretize = true", "crossbar.variability_coeffs = 1.5",
         "crossbar.quantize_io = false"]),
    "crossbar_three_coeffs": (
        "crossbar.variability_coeffs = 0.5, -0.002,3e-5\ncrossbar.quantize_io = 0\n"
        "retrain.io_discretize = 1\n",
        ["retrain.io_discretize = true",
         "crossbar.variability_coeffs = 0.5,-0.002,3e-05",
         "crossbar.quantize_io = false"]),
    "eval": (
        "eval.n_train_runs = 2\neval.n_infer_runs = 3\neval.test_shots = 500\n"
        "eval.p = 5e-3\neval.curve_p_min = 1e-3\neval.curve_p_max = 0.05\n"
        "eval.curve_points = 4\n",
        ["eval.n_train_runs = 2", "eval.n_infer_runs = 3", "eval.test_shots = 500",
         "eval.p = 0.005", "eval.curve_p_min = 0.001", "eval.curve_p_max = 0.05",
         "eval.curve_points = 4"]),
    "hwa_p_drop_with_comments": (
        "# dropconnect for hwa_mnd\n\nhwa.p_drop = 0.05  # not the stuck rate\n"
        "crossbar.quantize_io = off\nretrain.io_discretize = On\n",
        ["retrain.io_discretize = true", "crossbar.quantize_io = false",
         "hwa.p_drop = 0.05"]),
    "every_section": (
        "hwa.p_drop = 0\nretrain.clip_scale = 1\nseed = 99\nschemes = ds_mnd\n"
        "dataset.rounds = 2\ntrain.epochs = 3\nretrain.epochs = 2\ncrossbar.levels = 2\n"
        "crossbar.variability_coeffs = 0.1,0.2,0.3\neval.p = 1\neval.curve_points = 2\n",
        ["seed = 99", "schemes = ds_mnd", "dataset.rounds = 2", "train.epochs = 3",
         "retrain.epochs = 2", "crossbar.levels = 2",
         "crossbar.variability_coeffs = 0.1,0.2,0.3", "eval.p = 1.0",
         "eval.curve_points = 2", "retrain.clip_scale = 1.0", "hwa.p_drop = 0.0"]),
}

_SCHEME_LIST = "a comma list drawn from ('baseline', 'fp_mnd', 'hwa_mnd', 'ds_mnd')"

# name -> (config text, the exact ConfigError message)
ERRORS = {
    "g_hcs_below_default_g_lcs": (
        "crossbar.g_hcs = 30.0", "crossbar.g_hcs must exceed crossbar.g_lcs"),
    "g_lcs_above_default_g_hcs": (
        "crossbar.g_lcs = 400.0", "crossbar.g_hcs must exceed crossbar.g_lcs"),
    "equal_conductances": (
        "crossbar.g_hcs = 100\ncrossbar.g_lcs = 100",
        "crossbar.g_hcs must exceed crossbar.g_lcs"),
    "every_violation": (
        "bogus.key = 1\ncrossbar.levels = 1\ntrain.epochs = many\n"
        "dataset.p_min = 0.2\ndataset.p_max = 0.1\ncrossbar.g_hcs = 10",
        "unknown key 'bogus.key'; crossbar.levels: '1' is not an integer in [2, 2^48]; "
        "train.epochs: could not parse 'many' as an integer >= 1; "
        "dataset.p_min exceeds dataset.p_max; crossbar.g_hcs must exceed crossbar.g_lcs"),
    "levels_beyond_2_48": (
        "crossbar.levels = 281474976710657",
        "crossbar.levels: '281474976710657' is not an integer in [2, 2^48]"),
    "malformed_lines": (
        "seed 7\nseed = 1\nseed = 2\n",
        "line 1: expected 'key = value', got 'seed 7'; line 3: duplicate key 'seed'"),
    "unparsable_values": (
        "seed = 1.5\nschemes = fp_mnd,bogus\ncrossbar.quantize_io = maybe\n"
        "crossbar.variability_coeffs = 1,x\neval.p = 0.1,0.2\nretrain.io_discretize =\n",
        "seed: could not parse '1.5' as an integer in [0, 2^64); "
        f"schemes: 'fp_mnd,bogus' is not {_SCHEME_LIST}; "
        "crossbar.quantize_io: could not parse 'maybe'; "
        "crossbar.variability_coeffs: could not parse '1,x'; "
        "eval.p: could not parse '0.1,0.2' as a probability in (0, 1]; "
        "retrain.io_discretize: could not parse ''"),
    "failed_checks": (
        "seed = -1\nschemes = ,\ndataset.p_max = 0\ntrain.adam_beta1 = 1\n"
        "retrain.clip_scale = 0\nretrain.noise_relative = -0.1\n"
        "crossbar.stuck_rate = 1.5\ncrossbar.g_lcs = -1\neval.p = 0\n"
        "eval.curve_points = 1\nhwa.p_drop = 2\n",
        "seed: '-1' is not an integer in [0, 2^64); "
        f"schemes: ',' is not {_SCHEME_LIST}; "
        "dataset.p_max: '0' is not a probability in (0, 1]; "
        "train.adam_beta1: '1' is not a real in [0, 1); "
        "retrain.clip_scale: '0' is not a positive real; "
        "retrain.noise_relative: '-0.1' is not a non-negative real; "
        "crossbar.stuck_rate: '1.5' is not a probability in [0, 1]; "
        "crossbar.g_lcs: '-1' is not a positive conductance in uS; "
        "eval.p: '0' is not a probability in (0, 1]; "
        "eval.curve_points: '1' is not an integer >= 2; "
        "hwa.p_drop: '2' is not a probability in [0, 1]"),
}


def expected_text(changed: list[str]) -> str:
    replace = {line.split(" = ")[0]: line for line in changed}
    lines = [replace.pop(line.split(" = ")[0], line) for line in DEFAULT.splitlines()]
    return "\n".join(lines + list(replace.values())) + "\n"


@pytest.mark.parametrize("name", CASES)
def test_serialization_is_golden(name):
    text, changed = CASES[name]
    cfg = cf.validate_config(text)
    out = cf.serialize_config(cfg)
    assert out == expected_text(changed)
    assert cf.validate_config(out) == cfg


@pytest.mark.parametrize("name", ERRORS)
def test_error_text_is_golden(name):
    text, message = ERRORS[name]
    with pytest.raises(ConfigError) as info:
        cf.validate_config(text)
    assert str(info.value) == message
