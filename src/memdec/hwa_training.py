"""Hardware-aware retraining of the decoder.

Starting from floating-point-trained parameters, a short retraining phase
(default 10 epochs) trains the network of `rnn_decoder` (its forward pass,
BPTT and Adam) and applies any combination of:

  * random dropconnect: a fresh Bernoulli keep-mask per batch zeroes weights
    (biases included) for the forward pass; gradients flow only through
    survivors. A keep-mask is one boolean vector over `DecoderParams.flat`,
    which is the two crossbar units in C order, so it is drawn with one
    `rng.random(370)` call,
  * Gaussian noise injection: surviving weights are perturbed for the
    forward pass by N(0, noise_relative * w_max), w_max the largest |weight|
    of each unit (one `standard_normal(370)` draw times a per-unit scale),
    mirroring the programming variability seen at inference; the
    perturbation is not kept,
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rnn_decoder as rd
from .analog_model import CrossbarConfig, FaultMap, _adc, _dac
from .rng import SpawnedGenerators, Stage, spawn_generator
from .rnn_decoder import N_PARAMS, UNIT_SLICES, DecoderParams, TrainConfig
from .surface_code_sim import Dataset, syndrome_table, table_accuracy

_UNIT_STARTS = [unit.start for unit in UNIT_SLICES]
_UNIT_SIZES = [unit.stop - unit.start for unit in UNIT_SLICES]


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


def dropconnect_mask(shape: tuple[int, ...], p_drop: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask: True entries survive, P(keep) = 1 - p_drop."""
    if not 0.0 <= p_drop <= 1.0:
        raise ValueError(f"p_drop must lie in [0, 1], got {p_drop}")
    return rng.random(shape) >= p_drop


def clip_weights(params: DecoderParams, alpha: float) -> None:
    """Clamp each unit's entries (bias row pooled with its weights) to
    [-alpha*sigma, alpha*sigma] in place, sigma the unit's current std."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    for unit in UNIT_SLICES:
        pool = params.flat[unit]
        bound = alpha * float(pool.std())
        np.clip(pool, -bound, bound, out=pool)


def _random_keep(p_drop: float, rng: np.random.Generator) -> np.ndarray:
    """Dropconnect keep-mask over `DecoderParams.flat`."""
    return dropconnect_mask((N_PARAMS,), p_drop, rng)


def _fault_keep(fmap: FaultMap) -> np.ndarray:
    """Keep-mask over `DecoderParams.flat` that drops a fault map's stuck pairs."""
    return ~np.concatenate((fmap.recurrent, fmap.evaluation), axis=None)


def _perturbed(params: DecoderParams, keep: np.ndarray, noise_relative: float,
               rng: np.random.Generator | None) -> DecoderParams:
    """Effective weights for one forward pass: mask, then add noise scaled by
    each unit's max |weight| to the survivors."""
    eff = params.flat * keep
    if noise_relative > 0.0 and rng is not None:
        unit_max = np.maximum.reduceat(np.abs(params.flat), _UNIT_STARTS)
        scale = np.repeat(noise_relative * unit_max, _UNIT_SIZES)
        eff += rng.standard_normal(N_PARAMS) * scale * keep
    return DecoderParams.from_flat(eff)


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
                          ) -> tuple[float, DecoderParams]:
    """Cross-entropy loss/grads of the masked (and optionally noised and
    discretized) forward pass; gradients are zero where `keep` is False."""
    eff = _perturbed(params, keep, noise_relative, rng)
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
                     io: rd.Converters | None) -> float:
    """Validation accuracy over a syndrome table (see
    `surface_code_sim.syndrome_table`) under the training-time noise/drop
    statistics, averaged over `val_draws` independent draws."""
    mask_rngs = _mask_streams(cfg, keep_fixed, seed_key, cfg.val_draws)
    noise_rngs = SpawnedGenerators(cfg.seed, (Stage.NOISE, seed_key), cfg.val_draws)
    total = 0.0
    for draw in range(cfg.val_draws):
        keep = keep_fixed if mask_rngs is None else _random_keep(cfg.p_drop, mask_rngs[draw])
        eff = _perturbed(params, keep, cfg.noise_relative, noise_rngs[draw])
        total += table_accuracy(
            lambda r: rd.logits_to_bits(rd.forward_batch(eff, r, io)[2]), rows, counts)
    return total / cfg.val_draws


def _retrain(params: DecoderParams, dataset: Dataset, val: Dataset,
             cfg: RetrainConfig, keep_fixed: np.ndarray | None,
             train_cfg: TrainConfig, xcfg: CrossbarConfig) -> DecoderParams:
    events, labels = rd._as_arrays(dataset)
    val_rows, val_counts = syndrome_table(*rd._as_arrays(val))
    io = _converters(cfg, xcfg)

    params = params.copy()
    pinned = None if keep_fixed is None else ~keep_fixed
    if pinned is not None:
        params.flat[pinned] = 0.0

    state = rd.AdamState()
    shuffle_rng = spawn_generator(cfg.seed, Stage.RETRAIN)
    best = (-1.0, params.copy())
    n = events.shape[0]
    work = rd.Workspace(min(train_cfg.batch_size, n), events.shape[1])
    batches = -(-n // train_cfg.batch_size)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        mask_rngs = _mask_streams(cfg, keep_fixed, epoch, batches)
        noise_rngs = SpawnedGenerators(cfg.seed, (Stage.NOISE, epoch), batches)
        for batch_idx, start in enumerate(range(0, n, train_cfg.batch_size)):
            idx = order[start:start + train_cfg.batch_size]
            keep = (keep_fixed if mask_rngs is None
                    else _random_keep(cfg.p_drop, mask_rngs[batch_idx]))
            _, grads = masked_loss_and_grads(params, keep, events[idx], labels[idx],
                                             cfg.noise_relative, noise_rngs[batch_idx],
                                             io, work)
            rd.adam_step(params, grads, state, train_cfg)
            if cfg.clip_scale is not None:
                clip_weights(params, cfg.clip_scale)
            if pinned is not None:
                # pinned weights stay exactly zero (clip or numeric drift)
                params.flat[pinned] = 0.0
        val_acc = _masked_accuracy(params, cfg, keep_fixed, val_rows,
                                   val_counts, 1_000_000 + epoch, io)
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
