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
    `analog_model`'s converters under the caller's `CrossbarConfig` (levels,
    adc_bound, dac_bound), with a straight-through gradient,
  * weight clipping to [-alpha * sigma, alpha * sigma] per unit after each
    update.

The optimizer meta-parameters (learning rate, batch size, Adam betas and
eps) come from the caller's `TrainConfig`; epochs and seed come from
`RetrainConfig`.

Device-specific retraining replaces the random mask with the measured
stuck-pair map of one characterized crossbar (its two units concatenated
and inverted): those weights are pinned to exactly zero and receive no
updates.

The retraining loop reuses its buffers across batches: the `rd.Workspace`
(one for the training batches, one for the validation table), the
keep-mask, and the effective parameters and noise draw of `_perturbed`
(`EffectiveParams`); the draws fill them through
`Generator.random(out=)` and `standard_normal(out=)`, which give the values
of the allocating calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rnn_decoder as rd
from .analog_model import CrossbarConfig, FaultMap, _adc, _dac
from .rng import SpawnedGenerators, Stage, spawn_generator
from .rnn_decoder import N_PARAMS, UNIT_SLICES, DecoderParams, TrainConfig
from .surface_code_sim import Dataset, syndrome_table, table_accuracy, table_batch

_UNIT_STARTS = [unit.start for unit in UNIT_SLICES]


@dataclass(frozen=True)
class RetrainConfig:
    p_drop: float = 0.0
    noise_relative: float = 0.008
    io_discretize: bool = False
    clip_scale: float | None = None
    epochs: int = 10
    ds_mask: FaultMap | None = None
    seed: int = 0
    val_draws: int = 8

    def __post_init__(self):
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError(f"p_drop must lie in [0, 1], got {self.p_drop}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.clip_scale is not None and self.clip_scale <= 0:
            raise ValueError("clip_scale must be positive when present")


def clip_weights(params: DecoderParams, alpha: float) -> None:
    """Clamp each unit's entries (bias row pooled with its weights) to
    [-alpha*sigma, alpha*sigma] in place, sigma the unit's current std.

    sigma is computed by the ufunc sequence numpy's `np.std` runs (sum,
    divide by n, subtract, square, sum, divide by n, sqrt), so it has the
    bits of `pool.std()` without its Python-level dispatch."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    deviations = np.empty(N_PARAMS)
    for unit in UNIT_SLICES:
        pool, dev = params.flat[unit], deviations[unit]
        n = pool.size
        np.subtract(pool, np.add.reduce(pool) / n, out=dev)
        np.square(dev, out=dev)
        bound = alpha * math.sqrt(np.add.reduce(dev) / n)
        np.clip(pool, -bound, bound, out=pool)


def _random_keep(p_drop: float, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Dropconnect keep-mask over `DecoderParams.flat` as float64 0/1 (in
    `out` when given): entry i is kept, 1.0, iff the i-th of 370 uniform
    draws of `rng` is >= p_drop, so P(keep) = 1 - p_drop. `RetrainConfig`
    checks that p_drop lies in [0, 1]."""
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
    """The crossbar's DAC (inputs scaled into the DAC range by the ADC bound
    and restored after conversion) and ADC, as `rd.forward_batch` applies
    them; None when IO discretization is off."""
    if not cfg.io_discretize:
        return None
    return (lambda v: _dac(v, xcfg) * xcfg.adc_bound, lambda v: _adc(v, xcfg))


def masked_loss_and_grads(params: DecoderParams, keep: np.ndarray,
                          events: np.ndarray, labels: np.ndarray,
                          noise_relative: float = 0.0,
                          rng: np.random.Generator | None = None,
                          io: rd.Converters | None = None,
                          work: rd.Workspace | None = None,
                          eff: EffectiveParams | None = None,
                          ) -> tuple[float, DecoderParams]:
    """Cross-entropy loss/grads of the masked (and optionally noised and
    discretized) forward pass; gradients are zero where `keep` is 0. `work`
    and `eff` are reused buffers (see `rd.Workspace`, `_perturbed`)."""
    eff = _perturbed(params, keep, noise_relative, rng, eff)
    loss, grads = rd.loss_and_grads(eff, events, labels, io, work)
    grads.flat *= keep
    return loss, grads


def _mask_streams(cfg: RetrainConfig, keep_fixed: np.ndarray | None, key: int,
                  count: int) -> SpawnedGenerators | None:
    """The dropconnect streams `spawn_generator(cfg.seed, Stage.MASK, key, i)`;
    None when a fixed keep-mask replaces them."""
    if keep_fixed is not None:
        return None
    return SpawnedGenerators(cfg.seed, (Stage.MASK, key), count)


def _masked_accuracy(params: DecoderParams, cfg: RetrainConfig,
                     keep_fixed: np.ndarray | None, rows: np.ndarray,
                     counts: np.ndarray, seed_key: int,
                     io: rd.Converters | None,
                     work: rd.Workspace | None = None) -> float:
    """Validation accuracy over a syndrome table (see
    `surface_code_sim.syndrome_table`) under the training-time noise/drop
    statistics, averaged over `val_draws` independent draws. Every draw's
    forward pass runs in `work` when given, a workspace of
    `len(table_batch(rows, counts))` rows."""
    mask_rngs = _mask_streams(cfg, keep_fixed, seed_key, cfg.val_draws)
    noise_rngs = SpawnedGenerators(cfg.seed, (Stage.NOISE, seed_key), cfg.val_draws)
    total = 0.0
    buffers, keep_buffer = EffectiveParams(), np.empty(N_PARAMS)
    for draw in range(cfg.val_draws):
        keep = (keep_fixed if mask_rngs is None
                else _random_keep(cfg.p_drop, mask_rngs[draw], keep_buffer))
        eff = _perturbed(params, keep, cfg.noise_relative, noise_rngs[draw], buffers)
        total += table_accuracy(
            lambda r: rd.logits_to_bits(rd.forward_batch(eff, r, io, work)[2]), rows, counts)
    return total / cfg.val_draws


def _retrain(params: DecoderParams, dataset: Dataset, val: Dataset,
             cfg: RetrainConfig, keep_fixed: np.ndarray | None,
             train_cfg: TrainConfig, xcfg: CrossbarConfig) -> DecoderParams:
    events, labels = rd._as_arrays(dataset)
    val_rows, val_counts = syndrome_table(*rd._as_arrays(val))
    val_work = rd.Workspace(len(table_batch(val_rows, val_counts)), val_rows.shape[1])
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

    state = rd.AdamState()
    shuffle_rng = spawn_generator(cfg.seed, Stage.RETRAIN)
    best = (-1.0, params.copy())
    n = events.shape[0]
    work = rd.Workspace(min(train_cfg.batch_size, n), events.shape[1])
    buffers, keep_buffer = EffectiveParams(), np.empty(N_PARAMS)
    batches = -(-n // train_cfg.batch_size)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        mask_rngs = _mask_streams(cfg, keep_fixed, epoch, batches)
        noise_rngs = SpawnedGenerators(cfg.seed, (Stage.NOISE, epoch), batches)
        for batch_idx, start in enumerate(range(0, n, train_cfg.batch_size)):
            idx = order[start:start + train_cfg.batch_size]
            keep = (keep_fixed if mask_rngs is None
                    else _random_keep(cfg.p_drop, mask_rngs[batch_idx], keep_buffer))
            _, grads = masked_loss_and_grads(params, keep, events[idx], labels[idx],
                                             cfg.noise_relative, noise_rngs[batch_idx],
                                             io, work, buffers)
            rd.adam_step(params, grads, state, train_cfg)
            if cfg.clip_scale is not None:
                clip_weights(params, cfg.clip_scale)
        val_acc = _masked_accuracy(params, cfg, keep_fixed, val_rows,
                                   val_counts, 1_000_000 + epoch, io, val_work)
        if val_acc > best[0]:
            best = (val_acc, params.copy())
    return best[1]


def retrain_hwa(params: DecoderParams, dataset: Dataset, val: Dataset,
                config: RetrainConfig, train_config: TrainConfig = TrainConfig(),
                crossbar_config: CrossbarConfig = CrossbarConfig()) -> DecoderParams:
    """Hardware-aware retraining with random dropconnect (plus optional noise
    injection, IO discretization, and weight clipping)."""
    if config.ds_mask is not None:
        raise ValueError("retrain_hwa takes no device map; use retrain_ds")
    if config.p_drop >= 1.0:
        raise ValueError("p_drop = 1 drops every weight; degenerate retraining")
    return _retrain(params, dataset, val, config, None, train_config, crossbar_config)


def retrain_ds(params: DecoderParams, dataset: Dataset, val: Dataset,
               config: RetrainConfig, train_config: TrainConfig = TrainConfig(),
               crossbar_config: CrossbarConfig = CrossbarConfig()) -> DecoderParams:
    """Device-specific retraining: weights at the measured stuck locations are
    pinned to zero and frozen; survivors train under noise injection."""
    if config.ds_mask is None:
        raise ValueError("retrain_ds requires the measured fault map")
    return _retrain(params, dataset, val, config, _fault_keep(config.ds_mask),
                    train_config, crossbar_config)
