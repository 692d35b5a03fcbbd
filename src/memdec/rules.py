"""The rule of every checked config field, written once.

`RULES` maps each checked field, by its dotted path from `RunConfig`, to its
`Rule`. Each config dataclass runs the rows under its own path when it is
built (`check_fields`), and each key of `config._KEYS` takes the row of the
field it sets, so a config built in code obeys the rules that config text
does. This module imports no other module of the package, so that every
module that defines a config dataclass can import it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import fields

import numpy as np

SCHEMES = ("baseline", "fp_mnd", "hwa_mnd", "ds_mnd")

# expect: what a value must be, as messages say it; check: value -> bool,
# None for no check; integer: the value must also be an integer
Rule = namedtuple("Rule", "expect check integer", defaults=(False,))

_COUNT = Rule("an integer >= 1", lambda x: x >= 1, True)
_AT_LEAST_2 = Rule("an integer >= 2", lambda x: x >= 2, True)
# derive_seed reduces seeds mod 2^64, so a seed outside would alias another
_SEED = Rule("an integer in [0, 2^64)", lambda x: 0 <= x < 2**64, True)
# reals are finite: an infinite bound, conductance or variability gives NaN
# analog logits, and an infinite Adam eps leaves the parameters untrained;
# NaN fails every check
_POSITIVE = Rule("a positive real", lambda x: 0 < x < math.inf)
_NON_NEGATIVE = Rule("a non-negative real", lambda x: 0 <= x < math.inf)
_CONDUCTANCE = Rule("a positive conductance in uS", _POSITIVE.check)
_PROBABILITY = Rule("a probability in [0, 1]", lambda x: 0 <= x <= 1)
_RATE = Rule("a probability in (0, 1]", lambda x: 0 < x <= 1)
_BETA = Rule("a real in [0, 1)", lambda x: 0 <= x < 1)
# a dropconnect rate of 1 would drop every weight
_DROP_RATE = Rule("a probability in [0, 1)", _BETA.check)
_FINITE_REALS = Rule("one or more finite reals", lambda v: v and all(map(math.isfinite, v)))
_ANY = Rule(None, None)

RULES = {
    "seed": _SEED,
    "schemes": Rule(f"a comma list drawn from {SCHEMES}",
                    lambda v: v and all(x in SCHEMES for x in v)),
    "dataset.p_min": _RATE,
    "dataset.p_max": _RATE,
    "dataset.points": _COUNT,
    "dataset.train_samples": _COUNT,
    "dataset.val_samples": _COUNT,
    "dataset.rounds": _COUNT,
    "train.learning_rate": _POSITIVE,
    "train.batch_size": _COUNT,
    "train.epochs": _COUNT,
    "train.adam_beta1": _BETA,
    "train.adam_beta2": _BETA,
    "train.adam_eps": _POSITIVE,
    "train.seed": _SEED,
    "retrain.epochs": _COUNT,
    "retrain.noise_relative": _NON_NEGATIVE,
    "retrain.clip_scale": _POSITIVE,
    "retrain.seed": _SEED,
    "crossbar.g_hcs": _CONDUCTANCE,
    "crossbar.g_lcs": _CONDUCTANCE,
    "crossbar.adc_bound": _POSITIVE,
    # `analog_model._convert_hidden`'s DAC of one multiply is exact up to 2^48
    "crossbar.levels": Rule("an integer in [2, 2^48]", lambda x: 2 <= x <= 2**48, True),
    "crossbar.variability_coeffs": _FINITE_REALS,
    "protocol.n_train_runs": _COUNT,
    "protocol.n_infer_runs": _COUNT,
    "protocol.test_shots": _COUNT,
    "protocol.p_values": Rule("one or more probabilities in (0, 1]",
                              lambda v: len(v) > 0 and all(map(_RATE.check, v))),
    "protocol.rounds": _COUNT,
    "curve_p_min": _RATE,
    "curve_p_max": _RATE,
    "curve_points": _AT_LEAST_2,
    "stuck_rate": _PROBABILITY,
    "hwa_p_drop": _PROBABILITY,
}


def check_value(name: str, value, rule: Rule) -> None:
    """Raise ValueError, "<name> must be <expect>, got <value!r>", unless
    `value` follows `rule`. An integer is a Python or numpy integer, not a
    bool and not an integral float, which would pass a range check and then
    fail where the count is used."""
    if rule.integer and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if rule.check is not None and not rule.check(value):
        raise ValueError(f"{name} must be {rule.expect}, got {value!r}")


def check_fields(config, prefix: str) -> None:
    """`check_value` on each field of the dataclass `config` that has a row
    at path `prefix` + field name; a field whose default is None (an
    optional key's) may be None."""
    optional = {f.name for f in fields(config) if f.default is None}
    for path, rule in RULES.items():
        name = path[len(prefix):]
        if path.startswith(prefix) and "." not in name:
            value = getattr(config, name)
            if not (value is None and name in optional):
                check_value(name, value, rule)
