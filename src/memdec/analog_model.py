"""Memristive crossbar inference channel.

Signed weights map onto differential conductance pairs (high/low conductance
states default to 200/60 uS): the signed side programs to
|W|*(G_hcs-G_lcs)/W_max + G_lcs, the other side stays at G_lcs. Programming
adds Gaussian variability with a conductance-dependent standard deviation
sigma_prog(G): a polynomial in G (the paper's Fig. 2(b), after Mouny et al.
2023) whose coefficients come from the `crossbar.variability_coeffs` config
key, or, when that is empty, the constant-relative 0.8% fallback. Stuck
differential pairs are forced to the high-conductance state on both sides,
cancelling to an effective weight of exactly zero. The analog path quantizes
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
rather than once per row and step, then the evaluation unit on every row.
It is split in two. An `AnalogPlan`, built once per batch of event rows and
converter setting (its `cfg`), holds what no chip changes: the DAC'd events
of each prefix run with the bias column filled, how many runs continue each
run and the buffers it reuses. Running it on a chip forms each unit's
effective matrix G+ - G-, copies the hidden states into the plan's inputs
and runs the matmul and `_convert_hidden`. The error-bar protocol builds
one plan per evaluation, over the union of its test sets' distinct rows
(`surface_code_sim.union_table`), runs it once on every chip and scores
every fault rate from that one prediction (`analog_accuracy`, which takes
the converter settings from the plan); one chip's logits of any batch are
`AnalogPlan(events, cfg).logits(chip)`. They are bit-identical to a
per-row evaluation: the DAC and ADC act elementwise, so converting a value
once per table gives the value converting it per chip would; a row of a
gemm does not depend on the other rows or their count; and a step that
would be a one-row product inside a larger batch is evaluated as a doubled
row, so it stays on gemm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rnn_decoder import (EVALUATION_UNIT, HIDDEN_SIZE, RECURRENT_UNIT, UNIT_SLICES,
                          DecoderParams, _check_events, logits_to_bits)
from .rules import _PROBABILITY, check_fields, check_value
from .surface_code_sim import table_accuracy

_SIGN_BIT, _HALF_BITS = np.uint64(1 << 63), np.float64(0.5).view(np.uint64)
_H0 = np.zeros((1, HIDDEN_SIZE))  # the hidden state every row starts from


@dataclass(frozen=True)
class VariabilityModel:
    """sigma_prog(G) in uS for G in uS.

    `coefficients` are ascending polynomial coefficients (c0, c1, ...); when
    empty, sigma = fallback_relative * G. Negative polynomial values clamp
    to zero.
    """

    coefficients: tuple[float, ...] = ()
    fallback_relative: float = 0.008

    def __post_init__(self):
        check_fields(self, "crossbar.variability.")

    def sigma(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=np.float64)
        if not self.coefficients:
            return self.fallback_relative * g
        out = np.zeros_like(g)
        for c in reversed(self.coefficients):
            out = out * g + c
        return np.maximum(out, 0.0)


@dataclass(frozen=True)
class CrossbarConfig:
    g_hcs: float = 200.0        # uS
    g_lcs: float = 60.0         # uS
    variability: VariabilityModel = field(default_factory=VariabilityModel)
    adc_bound: float = 6.0
    levels: int = 256
    quantize_io: bool = True

    def __post_init__(self):
        check_fields(self, "crossbar.")
        if not self.g_hcs > self.g_lcs:
            raise ValueError(f"g_hcs {self.g_hcs} does not exceed g_lcs {self.g_lcs}")


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


def program_decoder(params: DecoderParams, cfg: CrossbarConfig, fmap: FaultMap,
                    rng: np.random.Generator) -> ProgrammedDecoder:
    """Map both decoder layers (bias row appended) onto crossbar units, in
    one pass over all conductances, laid out rec G+ | rec G- | eval G+ |
    eval G- (the order their noise is drawn in); the G- sides read each
    weight negated, so a positive entry is programmed, others sit at g_lcs.

    Programming order: target conductances, then per-device variability,
    then stuck-at faults. Faults land last so stuck pairs sit at exactly
    g_hcs on both sides and cancel to an effective weight of zero.
    """
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
    g += rng.standard_normal(len(g)) * cfg.variability.sigma(g)
    rec, ev = fmap.recurrent.reshape(-1), fmap.evaluation.reshape(-1)
    np.putmask(g, np.concatenate((rec, rec, ev, ev)), cfg.g_hcs)
    return ProgrammedDecoder(ProgrammedUnit(*g[:split].reshape(2, *RECURRENT_UNIT)),
                             ProgrammedUnit(*g[split:].reshape(2, *EVALUATION_UNIT)),
                             *(w_max / (cfg.g_hcs - cfg.g_lcs)).tolist())


def _convert_in(v: np.ndarray, cfg: CrossbarConfig) -> np.ndarray:
    """The DAC, in place on the float64 array `v`: inputs are scaled into
    its range [-1, 1] by the ADC bound before conversion, and the factor is
    restored after the analog product."""
    v /= cfg.adc_bound
    return _quantize(v, 1.0, cfg.levels) if cfg.quantize_io else v


def _convert_out(current: np.ndarray, scale: float, cfg: CrossbarConfig) -> np.ndarray:
    """Column currents to layer outputs, in place: de-scale to weight units,
    restore the DAC's factor, then the ADC."""
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
    `logits`.

    Step t of the recurrent unit runs once per run of adjacent rows that
    share the prefix `events[:, :t+1]`: a row starts a run at step t if it
    started one at step t-1 or if its step-t events differ in a byte from
    the row above. Each run reads its hidden state from the run it
    continues. The evaluation unit then runs on every row. Grouping only
    adjacent rows is correct for any row order and for duplicate rows;
    `surface_code_sim.union_table` returns rows in byte order, which puts
    shared prefixes next to each other, and its rows are distinct, so at
    the last step each row is a run of its own. Rows whose bytes differ
    but DAC to the same inputs stay in runs of their own, which costs rows
    of the product but no bits.

    The plan holds what that grouping leaves chip-independent: each step's
    input block [DAC(x_t) | h | DAC(1)] with the DAC'd events and the bias
    column filled, and how many runs at each step (rows after the last)
    continue each run of the step before; runs continue runs in order, so
    `np.repeat` by those counts gives each its parent's hidden state.
    `logits(programmed)` writes only the hidden-state columns of those
    blocks before each step's product, then runs the matmul and
    `_convert_hidden` in buffers the plan owns and reuses, so the logits one
    call returns are overwritten by the next.

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
        # a single run in a batch of several rows is planned as a doubled row
        sizes = np.maximum(new.sum(axis=1), min(n, 2))

        # each run's events, then DAC'd in one contiguous pass: the DAC acts
        # elementwise, so this gives the bits of converting the whole batch
        dac = np.empty((sizes.sum(), width))
        inputs = np.empty((len(dac), width + HIDDEN_SIZE + 1))
        inputs[:, -1] = bias
        out = np.empty((max(n, 2), HIDDEN_SIZE))
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
            self._steps.append((inp, inp[:, width:-1], np.bincount(run[starts], minlength=runs),
                                out[:k]))
            run, runs = np.cumsum(new[t]) - 1, k
        inputs[:, :width] = _convert_in(dac, cfg)
        # after the last step: the evaluation unit's input, bias column
        # filled, and the hidden state of each row's run; None when each row
        # is a run of its own
        self._head = np.empty((n, HIDDEN_SIZE + 1))
        self._head[:, -1] = bias
        self._head_rows = None if steps and new[-1].all() else np.bincount(run, minlength=runs)
        # the logits overwrite the step outputs, which the head has read
        self._logits = out.reshape(-1)[:2 * n].reshape(n, 2)

    def logits(self, programmed: ProgrammedDecoder) -> np.ndarray:
        """Post-ADC logits (rows, 2) of one chip, a view into the plan's
        buffers."""
        cfg = self.cfg
        w_rec = programmed.recurrent.effective()
        w_eval = programmed.evaluation.effective()
        h = _H0
        for inp, h_cols, repeats, out in self._steps:
            h_cols[...] = np.repeat(h, repeats, axis=0)
            h = _convert_hidden(np.matmul(inp, w_rec, out=out), programmed.scale_recurrent, cfg)
        head = self._head
        head[:, :-1] = h if self._head_rows is None else np.repeat(h, self._head_rows, axis=0)
        logits = np.matmul(head, w_eval, out=self._logits)
        return _convert_out(logits, programmed.scale_evaluation, cfg)


def analog_accuracy(programmed: ProgrammedDecoder, plan: AnalogPlan,
                    rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Accuracy of one programmed chip on each set of a syndrome table, as
    k float64: `rows` are the distinct event rows and `counts` (u, k, 2)
    their label-0 and label-1 shot counts per set, as
    `surface_code_sim.union_table` returns them. Equals the per-shot
    accuracy over each full set (see `table_accuracy`).

    `plan` is `AnalogPlan(table_batch(rows, counts), cfg)`, whose `cfg`
    sets the converters: the DAC'd events, prefix runs and bias column are
    the same for every chip, so a caller scoring many chips on one table
    builds it once. A one-shot set of a larger table is decoded on a plan
    of its own row.
    """
    def predict(batch: np.ndarray) -> np.ndarray:
        if len(batch) == plan.rows:
            return logits_to_bits(plan.logits(programmed))
        if len(batch) == 1:
            return logits_to_bits(AnalogPlan(batch, plan.cfg).logits(programmed))
        raise ValueError(f"the plan has {plan.rows} rows, the table decodes {len(batch)}")

    return table_accuracy(predict, rows, counts)
