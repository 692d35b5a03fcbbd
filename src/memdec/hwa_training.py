"""Hardware-aware retraining of the decoder.

Starting from floating-point-trained parameters, a short retraining phase
(default 10 epochs) trains the network of `rnn_decoder` (its forward pass,
BPTT and Adam) and applies any combination of:

  * random dropconnect: a fresh Bernoulli keep-mask per batch zeroes weights
    (biases included) for the forward pass; gradients flow only through
    survivors,
  * Gaussian noise injection: surviving weights are perturbed for the
    forward pass by N(0, noise_relative * w_max) per unit, mirroring the
    programming variability seen at inference; the perturbation is not kept,
  * input/output discretization by the crossbar's DAC and ADC, i.e.
    `analog_model`'s converters under the caller's `CrossbarConfig` (levels,
    adc_bound, dac_bound), with a straight-through gradient,
  * weight clipping to [-alpha * sigma, alpha * sigma] per unit after each
    update.

The optimizer meta-parameters (learning rate, batch size, Adam betas and
eps) come from the caller's `TrainConfig`; epochs and seed come from
`RetrainConfig`.

Device-specific retraining replaces the random mask with the measured
stuck-pair map of one characterized crossbar: those weights are pinned to
exactly zero and receive no updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rnn_decoder as rd
from .analog_model import (EVALUATION_UNIT, RECURRENT_UNIT, CrossbarConfig,
                           FaultMap, _adc, _dac)
from .rng import Stage, spawn_generator
from .rnn_decoder import DecoderParams, TrainConfig
from .surface_code_sim import Dataset, syndrome_table, table_accuracy


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


def clip_weights(params: DecoderParams, alpha: float) -> DecoderParams:
    """Clamp each unit's entries (bias row pooled with its weights) to
    [-alpha*sigma, alpha*sigma], sigma the unit's current std."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    out = params.copy()
    for w_name, b_name in (("w_rec", "b_rec"), ("w_eval", "b_eval")):
        w, b = getattr(out, w_name), getattr(out, b_name)
        pool = np.concatenate([w.ravel(), b.ravel()])
        bound = alpha * float(pool.std())
        np.clip(w, -bound, bound, out=w)
        np.clip(b, -bound, bound, out=b)
    return out


@dataclass
class _Masks:
    """Per-tensor keep-masks; the unit masks are split at the bias row."""

    w_rec: np.ndarray
    b_rec: np.ndarray
    w_eval: np.ndarray
    b_eval: np.ndarray

    @staticmethod
    def full() -> "_Masks":
        return _Masks.from_fault_map(FaultMap.none())

    @staticmethod
    def random(p_drop: float, rng: np.random.Generator) -> "_Masks":
        return _Masks.from_units(dropconnect_mask(RECURRENT_UNIT, p_drop, rng),
                                 dropconnect_mask(EVALUATION_UNIT, p_drop, rng))

    @staticmethod
    def from_fault_map(fmap: FaultMap) -> "_Masks":
        return _Masks.from_units(~fmap.recurrent, ~fmap.evaluation)

    @staticmethod
    def from_units(keep_rec: np.ndarray, keep_ev: np.ndarray) -> "_Masks":
        return _Masks(keep_rec[:-1], keep_rec[-1], keep_ev[:-1], keep_ev[-1])

    def tensors(self):
        return self.w_rec, self.b_rec, self.w_eval, self.b_eval


def _perturbed(params: DecoderParams, masks: _Masks, noise_relative: float,
               rng: np.random.Generator | None) -> DecoderParams:
    """Effective weights for one forward pass: mask, then add noise scaled by
    each unit's max |weight| to the survivors."""
    w_rec = params.w_rec * masks.w_rec
    b_rec = params.b_rec * masks.b_rec
    w_eval = params.w_eval * masks.w_eval
    b_eval = params.b_eval * masks.b_eval
    if noise_relative > 0.0 and rng is not None:
        s_rec = noise_relative * max(np.abs(params.w_rec).max(),
                                     np.abs(params.b_rec).max())
        s_ev = noise_relative * max(np.abs(params.w_eval).max(),
                                    np.abs(params.b_eval).max())
        w_rec = w_rec + rng.standard_normal(w_rec.shape) * s_rec * masks.w_rec
        b_rec = b_rec + rng.standard_normal(b_rec.shape) * s_rec * masks.b_rec
        w_eval = w_eval + rng.standard_normal(w_eval.shape) * s_ev * masks.w_eval
        b_eval = b_eval + rng.standard_normal(b_eval.shape) * s_ev * masks.b_eval
    return DecoderParams(w_rec, b_rec, w_eval, b_eval)


def _converters(cfg: RetrainConfig, xcfg: CrossbarConfig) -> rd.Converters | None:
    """The crossbar's DAC (inputs scaled into the DAC range by the ADC bound
    and restored after conversion) and ADC, as `rd.forward_batch` applies
    them; None when IO discretization is off."""
    if not cfg.io_discretize:
        return None
    return (lambda v: _dac(v, xcfg) * xcfg.adc_bound, lambda v: _adc(v, xcfg))


def masked_loss_and_grads(params: DecoderParams, masks: _Masks,
                          events: np.ndarray, labels: np.ndarray,
                          noise_relative: float = 0.0,
                          rng: np.random.Generator | None = None,
                          io: rd.Converters | None = None,
                          ) -> tuple[float, DecoderParams]:
    """Cross-entropy loss/grads of the masked (and optionally noised and
    discretized) forward pass; gradients are zero at dropped weights."""
    eff = _perturbed(params, masks, noise_relative, rng)
    loss, grads = rd.loss_and_grads(eff, events, labels, io)
    for g, m in zip(grads.tensors(), masks.tensors()):
        g *= m
    return loss, grads


def _masked_accuracy(params: DecoderParams, cfg: RetrainConfig, masks_fixed,
                     rows: np.ndarray, counts: np.ndarray, seed_key: int,
                     io: rd.Converters | None) -> float:
    """Validation accuracy over a syndrome table (see
    `surface_code_sim.syndrome_table`) under the training-time noise/drop
    statistics, averaged over `val_draws` independent draws."""
    total = 0.0
    for draw in range(cfg.val_draws):
        if masks_fixed is not None:
            masks = masks_fixed
        else:
            masks = _Masks.random(cfg.p_drop,
                                  spawn_generator(cfg.seed, Stage.MASK, seed_key, draw))
        noise_rng = spawn_generator(cfg.seed, Stage.NOISE, seed_key, draw)
        eff = _perturbed(params, masks, cfg.noise_relative, noise_rng)
        total += table_accuracy(
            lambda r: rd.logits_to_bits(rd.forward_batch(eff, r, io)[2]), rows, counts)
    return total / cfg.val_draws


def _retrain(params: DecoderParams, dataset: Dataset, val: Dataset,
             cfg: RetrainConfig, masks_fixed: _Masks | None,
             train_cfg: TrainConfig, xcfg: CrossbarConfig) -> DecoderParams:
    events, labels = rd._as_arrays(dataset)
    val_rows, val_counts = syndrome_table(*rd._as_arrays(val))
    io = _converters(cfg, xcfg)

    params = params.copy()
    if masks_fixed is not None:
        for p, m in zip(params.tensors(), masks_fixed.tensors()):
            p[~m] = 0.0

    state = rd.AdamState()
    shuffle_rng = spawn_generator(cfg.seed, Stage.RETRAIN)
    best = (-1.0, params.copy())
    n = events.shape[0]
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for batch_idx, start in enumerate(range(0, n, train_cfg.batch_size)):
            idx = order[start:start + train_cfg.batch_size]
            if masks_fixed is not None:
                masks = masks_fixed
            else:
                masks = _Masks.random(cfg.p_drop,
                                      spawn_generator(cfg.seed, Stage.MASK, epoch, batch_idx))
            noise_rng = spawn_generator(cfg.seed, Stage.NOISE, epoch, batch_idx)
            _, grads = masked_loss_and_grads(params, masks, events[idx], labels[idx],
                                             cfg.noise_relative, noise_rng, io)
            rd.adam_step(params, grads, state, train_cfg)
            if cfg.clip_scale is not None:
                clipped = clip_weights(params, cfg.clip_scale)
                for p, c in zip(params.tensors(), clipped.tensors()):
                    p[...] = c
            if masks_fixed is not None:
                # pinned weights stay exactly zero (clip or numeric drift)
                for p, m in zip(params.tensors(), masks_fixed.tensors()):
                    p[~m] = 0.0
        val_acc = _masked_accuracy(params, cfg, masks_fixed, val_rows,
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
    return _retrain(params, dataset, val, config, _Masks.from_fault_map(config.ds_mask),
                    train_config, crossbar_config)
