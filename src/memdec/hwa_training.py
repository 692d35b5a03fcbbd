"""Hardware-aware retraining of the decoder.

Starting from floating-point-trained parameters, a short retraining phase
(default 10 epochs) trains the network of `rnn_decoder` (its forward pass,
BPTT and Adam) and applies any combination of:

  * random dropconnect: a fresh Bernoulli keep-mask per batch zeroes weights
    (biases included) for the forward pass; gradients flow only through
    survivors. A keep-mask is one vector over `DecoderParams.flat`, which is
    the two crossbar units in C order, so it is drawn with one
    `rng.random(370)` call. It is held as float64 0/1, not as booleans, so
    masking is a float-by-float multiply with no cast; the products are the
    same, since numpy casts a boolean mask to the same 0.0/1.0,
  * Gaussian noise injection: surviving weights are perturbed for the
    forward pass by N(0, noise_relative * w_max), w_max the largest |weight|
    of each unit (one `standard_normal(370)` draw, each unit's slice then
    multiplied by its scale), mirroring the programming variability seen at
    inference; the perturbation is not kept,
  * input/output discretization by the crossbar's DAC and ADC, i.e.
    `analog_model`'s in-place quantizer under the caller's `CrossbarConfig`
    (levels, adc_bound, quantize_io), with a straight-through gradient,
  * weight clipping to [-alpha * sigma, alpha * sigma] per unit after each
    update.

Retraining runs the epoch loop and training step of FP training,
`rd._train`, with the optimizer meta-parameters (learning rate, batch size,
Adam betas and eps) of the caller's `TrainConfig` and the epochs and seed
of `RetrainConfig`. It supplies only what differs: each batch's effective
parameters and gradient keep-mask, the converters, and clipping after
each update.
What an experiment sweeps or draws per run is an argument: the dropconnect
rate of `retrain_hwa`, the fault map of `retrain_ds`.

Device-specific retraining replaces the random mask with the measured
stuck-pair map of one characterized crossbar (its two units concatenated
and inverted): those weights are pinned to exactly zero and receive no
updates.

Each batch step, and each of the `VAL_DRAWS` validation draws an epoch's
score averages over, takes its keep-mask and noise stream from `_draws`.
The keep-mask and `_perturbed`'s effective parameters and noise
(`EffectiveParams`) are reused buffers, filled through
`Generator.random(out=)` and `standard_normal(out=)`, which give the values
of the allocating calls. The dropconnect threshold is a 0-d array, bound
once per `_draws`: the same comparison as with a Python float, with less
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rnn_decoder as rd
from .analog_model import CrossbarConfig, FaultMap, _convert_in, _quantize
from .rng import SpawnedGenerators, Stage, spawn_generator
from .rnn_decoder import N_PARAMS, UNIT_SLICES, DecoderParams, TrainConfig
from .rules import _DROP_RATE, _POSITIVE, check_fields, check_value
from .surface_code_sim import Dataset

_UNIT_STARTS = np.array([unit.start for unit in UNIT_SLICES])
# independent mask and noise draws each validation accuracy averages over
VAL_DRAWS = 8


@dataclass(frozen=True)
class RetrainConfig:
    noise_relative: float = 0.008
    io_discretize: bool = False
    clip_scale: float | None = None
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "retrain.")


def clip_weights(params: DecoderParams, alpha: float) -> None:
    """Clamp each unit's entries (bias row pooled with its weights) to
    [-alpha*sigma, alpha*sigma] in place, sigma the unit's current std.

    sigma is computed by the ufunc sequence numpy's `np.std` runs (sum,
    divide by n, subtract, square, sum, divide by n, sqrt), so it has the
    bits of `pool.std()` without its Python-level dispatch."""
    check_value("alpha", alpha, _POSITIVE)
    deviations = np.empty(N_PARAMS)
    for unit in UNIT_SLICES:
        pool, dev = params.flat[unit], deviations[unit]
        n = pool.size
        np.subtract(pool, np.add.reduce(pool) / n, out=dev)
        np.square(dev, out=dev)
        bound = alpha * math.sqrt(np.add.reduce(dev) / n)
        np.clip(pool, -bound, bound, out=pool)


def _random_keep(p_drop: float | np.ndarray, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Dropconnect keep-mask over `DecoderParams.flat` as float64 0/1 (in
    `out` when given): entry i is kept, 1.0, iff the i-th of 370 uniform
    draws of `rng` is >= p_drop, so P(keep) = 1 - p_drop. p_drop is a
    float or a float64 0-d array; `retrain_hwa` checks that it lies in
    [0, 1)."""
    keep = rng.random(N_PARAMS) if out is None else rng.random(out=out)
    return np.greater_equal(keep, p_drop, out=keep)


def _fault_keep(fmap: FaultMap) -> np.ndarray:
    """Keep-mask over `DecoderParams.flat`, float64 0/1, that drops a fault
    map's stuck pairs."""
    stuck = np.concatenate((fmap.recurrent, fmap.evaluation), axis=None)
    return (~stuck).astype(np.float64)


class EffectiveParams:
    """Reused buffers of `_perturbed`: the effective parameters `params` and
    the noise draw, seen whole and per unit."""

    __slots__ = ("params", "noise", "noise_units")

    def __init__(self):
        self.params = DecoderParams.zeros()
        self.noise = np.empty(N_PARAMS)
        self.noise_units = tuple(self.noise[unit] for unit in UNIT_SLICES)


def _perturbed(params: DecoderParams, keep: np.ndarray, noise_relative: float,
               rng: np.random.Generator | None,
               out: EffectiveParams | None = None) -> DecoderParams:
    """Effective weights for one forward pass: mask, then add noise scaled by
    each unit's max |weight| to the survivors. Written into `out.params`
    (overwritten by the next call) when `out` is given."""
    if out is None:
        out = EffectiveParams()
    eff = np.multiply(params.flat, keep, out=out.params.flat)
    if noise_relative > 0.0 and rng is not None:
        noise = np.abs(params.flat, out=out.noise)
        unit_max = np.maximum.reduceat(noise, _UNIT_STARTS).tolist()
        rng.standard_normal(out=noise)
        for unit_noise, peak in zip(out.noise_units, unit_max):
            unit_noise *= noise_relative * peak
        noise *= keep
        eff += noise
    return out.params


def _converters(cfg: RetrainConfig, xcfg: CrossbarConfig) -> rd.Converters | None:
    """The crossbar's DAC (inputs scaled into its range [-1, 1] by the ADC
    bound and restored after conversion) and ADC, as `rd.forward_batch`
    applies them: each converts its float64 argument in place and returns
    it. None when IO discretization is off."""
    if not cfg.io_discretize:
        return None
    return (lambda v: np.multiply(_convert_in(v, xcfg), xcfg.adc_bound, out=v),
            lambda v: _quantize(v, xcfg.adc_bound, xcfg.levels) if xcfg.quantize_io else v)


def _draws(cfg: RetrainConfig, p_drop: float, keep_fixed: np.ndarray | None, key: int,
           count: int):
    """Draw i < count under `key`: the keep-mask (`keep_fixed`, or dropconnect
    at `p_drop` from the stream (cfg.seed, MASK, key, i) in a buffer that
    the next draw overwrites) and the noise stream (cfg.seed, NOISE, key, i)."""
    noise_rngs = SpawnedGenerators(cfg.seed, (Stage.NOISE, key), count)
    if keep_fixed is not None:
        return lambda i: (keep_fixed, noise_rngs[i])
    mask_rngs = SpawnedGenerators(cfg.seed, (Stage.MASK, key), count)
    keep, threshold = np.empty(N_PARAMS), np.array(float(p_drop))
    return lambda i: (_random_keep(threshold, mask_rngs[i], keep), noise_rngs[i])


def _retrain(params: DecoderParams, dataset: Dataset, val: Dataset,
             cfg: RetrainConfig, p_drop: float, keep_fixed: np.ndarray | None,
             train_cfg: TrainConfig, xcfg: CrossbarConfig) -> DecoderParams:
    io = _converters(cfg, xcfg)
    params = params.copy()
    if keep_fixed is not None:
        # Pinned once: a pinned entry then stays +0.0 with no re-pinning. Its
        # gradient is g * 0.0 = +-0.0, so both Adam moments stay +0.0
        # (+0.0 * beta + (1 - beta) * -0.0 is +0.0), its update is
        # lr * +0.0 / (sqrt(+0.0) + eps) = +0.0 and +0.0 - +0.0 is +0.0;
        # clipping keeps +0.0 within any bound, a zero bound included. A
        # non-finite gradient stops at adam_step's check.
        params.flat[keep_fixed == 0.0] = 0.0
    # one buffer for the training batches and the validation draws: each
    # draw's effective parameters are used before the next overwrites them
    eff = EffectiveParams()

    def batch_params(epoch, batches):
        draw = _draws(cfg, p_drop, keep_fixed, epoch, batches)
        for batch in range(batches):
            keep, noise_rng = draw(batch)
            # the gradient is masked by `keep`: none flows through a
            # dropped weight
            yield _perturbed(params, keep, cfg.noise_relative, noise_rng, eff), keep

    clip = None if cfg.clip_scale is None else lambda p: clip_weights(p, cfg.clip_scale)

    def val_draws(epoch):
        draw = _draws(cfg, p_drop, keep_fixed, 1_000_000 + epoch, VAL_DRAWS)
        for i in range(VAL_DRAWS):
            keep, noise_rng = draw(i)
            yield _perturbed(params, keep, cfg.noise_relative, noise_rng, eff)

    return rd._train(params, dataset, val, replace(train_cfg, epochs=cfg.epochs),
                     spawn_generator(cfg.seed, Stage.RETRAIN), io, batch_params, clip,
                     val_draws)


def retrain_hwa(params: DecoderParams, dataset: Dataset, val: Dataset,
                config: RetrainConfig, p_drop: float,
                train_config: TrainConfig = TrainConfig(),
                crossbar_config: CrossbarConfig = CrossbarConfig()) -> DecoderParams:
    """Hardware-aware retraining with random dropconnect at rate `p_drop`
    (plus optional noise injection, IO discretization, and weight
    clipping)."""
    check_value("p_drop", p_drop, _DROP_RATE)
    return _retrain(params, dataset, val, config, p_drop, None, train_config,
                    crossbar_config)


def retrain_ds(params: DecoderParams, dataset: Dataset, val: Dataset,
               config: RetrainConfig, fault_map: FaultMap,
               train_config: TrainConfig = TrainConfig(),
               crossbar_config: CrossbarConfig = CrossbarConfig()) -> DecoderParams:
    """Device-specific retraining: weights at the stuck pairs of the measured
    `fault_map` are pinned to zero and frozen; survivors train under noise
    injection."""
    return _retrain(params, dataset, val, config, 0.0, _fault_keep(fault_map),
                    train_config, crossbar_config)
