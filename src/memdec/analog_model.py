"""Memristive crossbar inference channel.

Signed weights map onto differential conductance pairs (high/low conductance
states default to 200/60 uS): the signed side programs to
|W|*(G_hcs-G_lcs)/W_max + G_lcs, the other side stays at G_lcs. Programming
adds Gaussian variability with a conductance-dependent standard deviation
sigma_prog(G): a polynomial in G (the paper's Fig. 2(b), after Mouny et al.
2023) whose coefficients come from the `crossbar.variability_coeffs` config
key. A constant relative variability r is the polynomial (0, r): the
default (0, 0.008) is the paper's median 0.8% for TiOx, and (0, 0.038) its
3.8% for PCM; (0,) programs no variability. Stuck differential pairs are
forced to the high-conductance state on both sides, cancelling to an
effective weight of exactly zero. The analog path quantizes
DAC inputs and ADC outputs at `levels` levels (8 bits by default). The DAC
range is the paper's normalized [-1, 1]: inputs are scaled into it by the
ADC bound, and the ADC's range is [-adc_bound, adc_bound] (6 by default).
One in-place quantizer, `_quantize`, rounds (half away from zero, then the
clamp) for the plan executor below and retraining's DAC and ADC; the
recurrent step's ADC, ReLU and DAC are one converter, `_convert_hidden`,
with the same bits in one chain of 8 passes.

Each crossbar unit carries one extra bias row; the bias participates in
mapping, variability, and faults like any weight row.

Inference runs the recurrent unit once per distinct prefix of adjacent rows
rather than once per row and step, but on every row at the last step, then
the evaluation unit on every row.
It is split in two. An `AnalogPlan`, built once per batch of event rows and
converter setting (its `cfg`), holds what no chip changes: the DAC'd events
of each prefix run with the bias column filled, how many runs continue each
run and the buffers it reuses. Running it on a chip forms each unit's
effective matrix G+ - G-, copies the hidden states into the plan's inputs
and runs the matmul and `_convert_hidden`. The error-bar protocol builds
one plan per evaluation, over the union of its test sets' distinct rows
(`surface_code_sim.union_table`). It programs each training run's chips
with one `program_decoder` call, which computes the target conductances
once and applies variability and faults over one (chips, conductances)
block, and scores them with one `analog_accuracy` call: each chip's
recurrent unit runs on its own products, its logits fill a row of one
block, and one ADC, one decision and one product with the label counts
score every chip at every fault rate (`analog_accuracy` takes the
converter settings from the plan). One chip's logits of any batch are
`AnalogPlan(events, cfg).logits(chip)`. They are bit-identical to a
per-row evaluation: the DAC and ADC act elementwise, so converting a value
once per table, or once per block of chips, gives the value converting it
per chip would; a row of a gemm does not depend on the other rows or their
count under OpenBLAS's SkylakeX and SandyBridge kernels; and a step that
would be a one-row product inside a larger batch is evaluated as a doubled
row, so it stays on gemm. Under its Haswell and Prescott kernels the rows
of a product of an odd row count can differ in their last bits from the
same rows in a larger product; the quantized converters have absorbed that
in every test, but unquantized logits (`quantize_io=False`) then differ
from a per-row evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rnn_decoder import (EVALUATION_UNIT, HIDDEN_SIZE, RECURRENT_UNIT, UNIT_SLICES,
                          DecoderParams, _check_events, logits_to_bits)
from .rules import _PROBABILITY, check_fields, check_value
from .surface_code_sim import table_accuracy

_SIGN_BIT, _HALF_BITS = np.uint64(1 << 63), np.float64(0.5).view(np.uint64)
_H0 = np.zeros((1, HIDDEN_SIZE))  # the hidden state every row starts from
# `analog_accuracy` scores chips in groups whose logits block holds at most
# this many float64 words (1 MiB); each chip of a group also takes an int64
# row of `table_accuracy`'s weights. 8 chips of a 2k-row table fit one
# group, and a paper-scale table of about 20k rows is scored 3 chips at a time
_BLOCK_WORDS = 1 << 17


@dataclass(frozen=True)
class CrossbarConfig:
    g_hcs: float = 200.0        # uS
    g_lcs: float = 60.0         # uS
    # sigma_prog(G) in uS, ascending polynomial coefficients (c0, c1, ...)
    variability_coeffs: tuple[float, ...] = (0.0, 0.008)
    adc_bound: float = 6.0
    levels: int = 256
    quantize_io: bool = True

    def __post_init__(self):
        check_fields(self, "crossbar.")
        if not self.g_hcs > self.g_lcs:
            raise ValueError(f"g_hcs {self.g_hcs} does not exceed g_lcs {self.g_lcs}")

    def sigma(self, g: np.ndarray) -> np.ndarray:
        """sigma_prog(G) in uS for G in uS: the polynomial of
        `variability_coeffs` by Horner's rule, clamped at zero."""
        g = np.asarray(g, dtype=np.float64)
        out = np.zeros_like(g)
        for c in reversed(self.variability_coeffs):
            out = out * g + c
        return np.maximum(out, 0.0)


@dataclass(frozen=True)
class FaultMap:
    """Boolean matrices marking stuck differential pairs per unit, bias row
    included: recurrent (21, 16) and evaluation (17, 2)."""

    recurrent: np.ndarray
    evaluation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "recurrent", np.asarray(self.recurrent, dtype=bool))
        object.__setattr__(self, "evaluation", np.asarray(self.evaluation, dtype=bool))
        if (self.recurrent.shape != RECURRENT_UNIT
                or self.evaluation.shape != EVALUATION_UNIT):
            raise ValueError(f"fault map shapes {self.recurrent.shape}, "
                             f"{self.evaluation.shape} do not match the decoder units")

    @staticmethod
    def none() -> "FaultMap":
        return FaultMap(np.zeros(RECURRENT_UNIT, bool), np.zeros(EVALUATION_UNIT, bool))

    @staticmethod
    def sample(stuck_rate: float, rng: np.random.Generator) -> "FaultMap":
        """i.i.d. Bernoulli(stuck_rate) stuck indicator per differential
        pair, drawn for the recurrent unit and then the evaluation unit."""
        check_value("stuck_rate", stuck_rate, _PROBABILITY)
        return FaultMap(rng.random(RECURRENT_UNIT) < stuck_rate,
                        rng.random(EVALUATION_UNIT) < stuck_rate)


@dataclass(frozen=True)
class ProgrammedUnit:
    g_plus: np.ndarray
    g_minus: np.ndarray

    def effective(self) -> np.ndarray:
        return self.g_plus - self.g_minus


@dataclass(frozen=True)
class ProgrammedDecoder:
    """Both crossbar units plus the per-unit de-scaling factors
    s = w_max / (g_hcs - g_lcs), so W ~ (G+ - G-) * s."""

    recurrent: ProgrammedUnit
    evaluation: ProgrammedUnit
    scale_recurrent: float
    scale_evaluation: float


def _quantize(x: np.ndarray, bound: float, levels: int) -> np.ndarray:
    """Quantize the float64 array `x` in place to `levels` levels over
    [-bound, bound] and return it: clamp to [-bound, bound]; inside,
    round(x/(2b)*n)*(2b)/n with halves away from zero. The caller's
    `CrossbarConfig` has checked that bound > 0 and levels >= 2.

    Rounds half away from zero as trunc(v + copysign(1/2, v)), which equals
    sign(v) * floor(|v| + 1/2) for every IEEE v but NaN: the sum rounds to
    the same magnitude for both signs, and trunc is floor on that magnitude
    with v's sign, -0.0 included. The half takes its sign from v + 0.0,
    which is +0.0 for v = -0.0, so an input of -0.0 gives +0.0 as
    sign(-0.0) * 0 does; OR'ing its sign bit into 1/2 costs two passes,
    `np.copysign` about three. A NaN comes out as v = x / step, the input
    NaN quieted with its sign and payload kept; sign(v) * floor(...)
    multiplies two NaNs there, and numpy does not fix whose sign the
    product keeps. +-inf clamps to +-bound.
    """
    step = 2.0 * bound / levels
    x /= step
    half = np.add(x, 0.0).view(np.uint64)
    np.bitwise_and(half, _SIGN_BIT, out=half)
    x += np.bitwise_or(half, _HALF_BITS, out=half).view(np.float64)
    np.trunc(x, out=x)
    x *= step
    np.maximum(x, -bound, out=x)
    return np.minimum(x, bound, out=x)


def program_decoder(params: DecoderParams, cfg: CrossbarConfig, fmaps: Sequence[FaultMap],
                    rngs: Sequence[np.random.Generator]) -> list[ProgrammedDecoder]:
    """Program one chip per fault map and generator: chip c has stuck pairs
    `fmaps[c]` and draws its variability from `rngs[c]`, after whatever the
    caller drew from that stream (its fault map). One chip is a one-element
    list of each; several chips may share one map.

    Both decoder layers (bias row appended) map onto crossbar units, laid
    out rec G+ | rec G- | eval G+ | eval G- (the order their noise is drawn
    in); the G- sides read each weight negated, so a positive entry is
    programmed, others sit at g_lcs. Programming order: target
    conductances, once for every chip, then per-device variability, then
    stuck-at faults, both over one (chips, conductances) block. Faults land
    last so stuck pairs sit at exactly g_hcs on both sides and cancel to an
    effective weight of zero. Each chip's units are views into the block.
    """
    if len(fmaps) != len(rngs):
        raise ValueError(f"{len(fmaps)} fault maps for {len(rngs)} generators")
    rec, ev = (params.flat[unit] for unit in UNIT_SLICES)
    signed = np.concatenate((rec, -rec, ev, -ev))
    split = 2 * len(rec)
    g = np.abs(signed)
    w_max = np.maximum.reduceat(g, (0, split))
    if not all(0 < w < math.inf for w in w_max.tolist()):   # a NaN weight fails too
        raise ValueError(f"a unit needs finite weights, not all zero; w_max {w_max}")
    g *= cfg.g_hcs - cfg.g_lcs
    g /= np.repeat(w_max, (split, len(g) - split))
    g += cfg.g_lcs
    g = np.where(signed > 0, g, cfg.g_lcs)
    block = np.empty((len(rngs), len(g)))
    for rng, noise in zip(rngs, block):
        rng.standard_normal(out=noise)
    block *= cfg.sigma(g)
    block += g
    rec = np.stack([f.recurrent for f in fmaps]).reshape(len(fmaps), -1)
    ev = np.stack([f.evaluation for f in fmaps]).reshape(len(fmaps), -1)
    np.putmask(block, np.concatenate((rec, rec, ev, ev), axis=1), cfg.g_hcs)
    scales = (w_max / (cfg.g_hcs - cfg.g_lcs)).tolist()
    return [ProgrammedDecoder(ProgrammedUnit(*chip[:split].reshape(2, *RECURRENT_UNIT)),
                              ProgrammedUnit(*chip[split:].reshape(2, *EVALUATION_UNIT)),
                              *scales)
            for chip in block]


def _convert_in(v: np.ndarray, cfg: CrossbarConfig) -> np.ndarray:
    """The DAC, in place on the float64 array `v`: inputs are scaled into
    its range [-1, 1] by the ADC bound before conversion, and the factor is
    restored after the analog product."""
    v /= cfg.adc_bound
    return _quantize(v, 1.0, cfg.levels) if cfg.quantize_io else v


def _convert_out(current: np.ndarray, scale: float | np.ndarray,
                 cfg: CrossbarConfig) -> np.ndarray:
    """Column currents to layer outputs, in place: de-scale to weight units
    (`scale` broadcasts against `current`), restore the DAC's factor, then
    the ADC, which acts elementwise."""
    current *= scale
    current *= cfg.adc_bound
    return _quantize(current, cfg.adc_bound, cfg.levels) if cfg.quantize_io else current


def _convert_hidden(current: np.ndarray, scale: float, cfg: CrossbarConfig) -> np.ndarray:
    """`_convert_out`, ReLU, `_convert_in` in place: their bits in 8 passes
    where they take about 24. Each stage after the ReLU never decreases and
    keeps values >= 0 at >= 0, so the ReLU goes first (the DAC makes +0.0
    of a zero of either sign). Then no lower clamp acts, each rounding half
    is +1/2 (a NaN stays the input NaN quieted), and the ADC's clamp at A
    commutes with the DAC, becoming a clamp at DAC(A) merged with its own.

    After the ADC's rounding the value is a * s_A, with a = trunc(v/s_A + 1/2)
    an integer >= 0 (or inf), and the DAC rounds ((a * s_A) / A) / s_D,
    which is a / D = a in exact arithmetic for the DAC range D = 1. The five
    roundings on the way (two of them in the steps s = 2 * bound / levels)
    move it from a by less than 2^-50 * a, so for a <= 2^48 adding 1/2 and
    truncating gives a back, and the DAC's output is a * s_D. A larger a is
    clamped to DAC(A) <= 1 by both, as `levels` <= 2^48 (its rule) makes
    both outputs about 2 or more. So the DAC is one multiply.
    """
    current *= scale
    current *= cfg.adc_bound
    np.maximum(current, 0.0, out=current)
    if not cfg.quantize_io:
        return np.divide(current, cfg.adc_bound, out=current)
    adc_step, dac_step = 2.0 * cfg.adc_bound / cfg.levels, 2.0 / cfg.levels
    # DAC(A) = trunc(A / A / dac_step + 1/2) * dac_step, within the DAC's range
    top = min(np.trunc(1.0 / dac_step + 0.5) * dac_step, 1.0)
    current /= adc_step
    current += 0.5
    np.trunc(current, out=current)
    current *= dac_step
    return np.minimum(current, top, out=current)


class AnalogPlan:
    """The chip-independent half of analog inference for one batch of event
    rows under one converter setting (`adc_bound`, `levels` and
    `quantize_io` of `cfg`), built once and run on any number of chips by
    `chip_logits`.

    Step t of the recurrent unit runs once per run of adjacent rows that
    share the prefix `events[:, :t+1]`: a row starts a run at step t if it
    started one at step t-1 or if its step-t events differ in a byte from
    the row above. Each run reads its hidden state from the run it
    continues. At the last step every row is a run of its own, duplicate
    rows included, and the evaluation unit then runs on every row. Grouping
    only adjacent rows is correct for any row order;
    `surface_code_sim.union_table` returns distinct rows in byte order,
    which puts shared prefixes next to each other. Rows whose bytes differ
    but DAC to the same inputs stay in runs of their own, which costs rows
    of the product but no bits.

    The plan holds what that grouping leaves chip-independent: each step's
    input block [DAC(x_t) | h | DAC(1)] with the DAC'd events and the bias
    column filled, and how many runs at each step continue each run of the
    step before; runs continue runs in order, so
    `np.repeat` by those counts gives each its parent's hidden state.
    `chip_logits(chips)` runs the chips one after another in buffers the
    plan owns and reuses: for each it writes only the hidden-state columns
    of those blocks before each step's product, then runs the matmul and
    `_convert_hidden`, and the evaluation unit writes the chip's currents
    into its row of one (chips, rows, 2) block, which one ADC then
    converts. There is one head layout: the last step's product goes
    straight into the evaluation unit's input (a gemm writing rows 17
    columns apart, the bits of a plain product), `_convert_hidden` runs
    over all of that contiguous buffer and the bias column is written back.
    `logits(programmed)` is one chip's.

    A one-row product goes to gemv instead of gemm, whose bits can differ,
    so a step with one run inside a batch of several rows is planned as a
    doubled row, while a batch of one row stays on gemv at every step, as
    it would on its own.
    """

    def __init__(self, events: np.ndarray, cfg: CrossbarConfig):
        x = np.ascontiguousarray(_check_events(events))
        n, steps, width = x.shape
        self.rows, self.cfg = n, cfg
        bias = _convert_in(np.ones(1), cfg)[0]

        # new[t, i]: row i starts a run at step t, as its events of step t or
        # before differ in a byte from the row above's; row 0 starts every
        # step. Each step's bytes are compared as the widest words that
        # tile them.
        step_bytes = width * x.itemsize
        words = x.view(np.uint8).view(f"u{min(8, step_bytes & -step_bytes)}")
        new = np.ones((steps, n), bool)
        new[:, 1:] = np.any(words[1:] != words[:-1], axis=2).T
        for t in range(1, steps):
            np.logical_or(new[t - 1], new[t], out=new[t])
        # each row is a run of its own at the last step; a single run in a
        # batch of several rows is planned as a doubled row
        new[-1:] = True
        sizes = np.maximum(new.sum(axis=1), min(n, 2))

        # each run's events, then DAC'd in one contiguous pass: the DAC acts
        # elementwise, so this gives the bits of converting the whole batch
        dac = np.empty((sizes.sum(), width))
        inputs = np.empty((len(dac), width + HIDDEN_SIZE + 1))
        inputs[:, -1] = bias
        out = np.empty((max(n, 2), HIDDEN_SIZE))
        # the evaluation unit's input [h | DAC(1)], its bias column written
        # per chip: zeros, a batch of 0 steps' h, until the last step writes h
        self._head, self._bias = np.zeros((n, HIDDEN_SIZE + 1)), bias
        self._steps = []
        run, runs = np.zeros(n, np.intp), 1   # each row's run, and the runs, at the step before
        first = 0
        for t, k in enumerate(sizes.tolist()):
            starts = np.flatnonzero(new[t])
            if len(starts) < k:
                starts = np.zeros(k, np.intp)
            dac[first:first + k] = x[starts, t]
            inp = inputs[first:first + k]
            first += k
            # the product's buffer, and the contiguous one `_convert_hidden`
            # converts: at the last step the whole head, bias column included
            if t == steps - 1:
                product, converted = self._head[:, :-1], self._head
            else:
                product = converted = out[:k]
            self._steps.append((inp, inp[:, width:-1], np.bincount(run[starts], minlength=runs),
                                product, converted))
            run, runs = np.cumsum(new[t]) - 1, k
        inputs[:, :width] = _convert_in(dac, cfg)

    def _currents(self, programmed: ProgrammedDecoder, out: np.ndarray) -> np.ndarray:
        """The evaluation unit's column currents (rows, 2) of one chip,
        written into `out`, before the ADC."""
        cfg, scale = self.cfg, programmed.scale_recurrent
        w_rec = programmed.recurrent.effective()
        h = _H0
        for inp, h_cols, repeats, product, converted in self._steps:
            h_cols[...] = np.repeat(h, repeats, axis=0)
            np.matmul(inp, w_rec, out=product)
            _convert_hidden(converted, scale, cfg)
            h = product
        self._head[:, -1] = self._bias
        return np.matmul(self._head, programmed.evaluation.effective(), out=out)

    def chip_logits(self, chips: Sequence[ProgrammedDecoder]) -> np.ndarray:
        """Post-ADC logits (chips, rows, 2), a new array: each chip's
        recurrent and evaluation units run on their own products, writing
        chip c's currents into row c of the block, and then one ADC
        converts the block, with each chip's scale broadcast over its row."""
        block = np.empty((len(chips), self.rows, 2))
        for chip, out in zip(chips, block):
            self._currents(chip, out)
        scales = np.array([chip.scale_evaluation for chip in chips])
        return _convert_out(block, scales[:, None, None], self.cfg)

    def logits(self, programmed: ProgrammedDecoder) -> np.ndarray:
        """Post-ADC logits (rows, 2) of one chip, a new array."""
        return self.chip_logits([programmed])[0]


def analog_accuracy(chips: Sequence[ProgrammedDecoder], plan: AnalogPlan,
                    rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Accuracy of each programmed chip on each set of a syndrome table, as
    (chips, k) float64: `rows` are the distinct event rows and `counts`
    (u, k, 2) their label-0 and label-1 shot counts per set, as
    `surface_code_sim.union_table` returns them. Each equals the per-shot
    accuracy of one chip over one full set (see `table_accuracy`).

    `plan` is `AnalogPlan(table_batch(rows, counts), cfg)`, whose `cfg`
    sets the converters: the DAC'd events, prefix runs and bias column are
    the same for every chip, so a caller scoring many chips on one table
    builds it once. The chips are scored in groups whose logits block holds
    at most `_BLOCK_WORDS` words, each group with one ADC, one decision and
    one product with the counts. A one-shot set of a larger table is
    decoded on a plan of its own row.
    """
    def scored(group: Sequence[ProgrammedDecoder]) -> np.ndarray:
        def predict(batch: np.ndarray) -> np.ndarray:
            if len(batch) == plan.rows:
                return logits_to_bits(plan.chip_logits(group))
            if len(batch) == 1:
                return logits_to_bits(AnalogPlan(batch, plan.cfg).chip_logits(group))
            raise ValueError(f"the plan has {plan.rows} rows, the table decodes {len(batch)}")

        return table_accuracy(predict, rows, counts)

    size = max(1, _BLOCK_WORDS // (2 * plan.rows))
    return np.concatenate([scored(chips[i:i + size]) for i in range(0, len(chips), size)])
