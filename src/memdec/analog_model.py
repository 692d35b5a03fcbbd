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
DAC inputs (range 1, after scaling by the ADC bound) and ADC outputs (range
6) at 8 bits. One in-place quantizer, `_quantize`, rounds (half away from
zero, then the clamp) for the plan executor below and retraining's DAC and
ADC; the recurrent step's ADC, ReLU and DAC are one converter,
`_convert_hidden`, with the same bits in fewer passes.

Each crossbar unit carries one extra bias row; the bias participates in
mapping, variability, and faults like any weight row.

Inference runs the recurrent unit once per distinct prefix of adjacent rows
rather than once per row and step, then the evaluation unit on every row.
It is split in two. An `AnalogPlan`, built once per batch of event rows and
converter setting, holds what no chip changes: the DAC'd events of each
prefix run with the bias column filled, how many runs continue each run
and reused work buffers. Running it on a chip forms each unit's effective
matrix G+ - G-, copies the hidden states into the plan's inputs and runs
the matmul and `_convert_hidden`. The error-bar protocol builds one plan
per test table (`table_plans`) and runs it on every chip; one chip's logits
of any batch are `AnalogPlan(events, cfg).logits(chip)`. They are
bit-identical to a per-row evaluation: the DAC and ADC act elementwise, so
converting a value once per table gives the value converting it per chip
would; a row of a gemm does not depend on the row count; and a step that
would be a one-row product inside a larger batch is evaluated as a doubled
row, so it stays on gemm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rnn_decoder import (EVALUATION_UNIT, HIDDEN_SIZE, RECURRENT_UNIT, UNIT_SLICES,
                          DecoderParams, _check_events, logits_to_bits)
from .rules import _PROBABILITY, check_fields, check_value
from .surface_code_sim import table_accuracy, table_batch

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
    dac_bound: float = 1.0
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
    [-1, 1] by the ADC bound before conversion, and the factor is restored
    after the analog product."""
    v /= cfg.adc_bound
    return _quantize(v, cfg.dac_bound, cfg.levels) if cfg.quantize_io else v


def _convert_out(current: np.ndarray, scale: float, cfg: CrossbarConfig) -> np.ndarray:
    """Column currents to layer outputs, in place: de-scale to weight units,
    restore the DAC's factor, then the ADC."""
    current *= scale
    current *= cfg.adc_bound
    return _quantize(current, cfg.adc_bound, cfg.levels) if cfg.quantize_io else current


def _convert_hidden(current: np.ndarray, scale: float, cfg: CrossbarConfig) -> np.ndarray:
    """`_convert_out`, ReLU, `_convert_in` in place: their bits in 13 passes
    where they take about 24. Each stage after the ReLU never decreases and
    keeps values >= 0 at >= 0, so the ReLU goes first (the DAC makes +0.0
    of a zero of either sign). Then no lower clamp acts, each rounding half
    is +1/2 (a NaN stays the input NaN quieted), and the ADC's clamp at A
    commutes with the DAC, becoming a clamp at DAC(A) merged with its own.
    """
    current *= scale
    current *= cfg.adc_bound
    np.maximum(current, 0.0, out=current)
    if not cfg.quantize_io:
        return np.divide(current, cfg.adc_bound, out=current)
    adc_step, dac_step = (2.0 * bound / cfg.levels for bound in (cfg.adc_bound, cfg.dac_bound))
    # DAC(A) = trunc(A / A / dac_step + 1/2) * dac_step, within the DAC's range
    top = min(np.trunc(1.0 / dac_step + 0.5) * dac_step, cfg.dac_bound)
    current /= adc_step
    current += 0.5
    np.trunc(current, out=current)
    current *= adc_step
    current /= cfg.adc_bound
    current /= dac_step
    current += 0.5
    np.trunc(current, out=current)
    current *= dac_step
    return np.minimum(current, top, out=current)


class AnalogPlan:
    """The chip-independent half of analog inference for one batch of event
    rows under one converter setting (`adc_bound`, `dac_bound`, `levels`,
    `quantize_io` of `cfg`), built once and run on any number of chips by
    `logits`.

    Step t of the recurrent unit runs once per run of adjacent rows that
    share the prefix `events[:, :t+1]`: a row starts a run at step t if it
    started one at step t-1 or if its step-t inputs differ from the row
    above. Each run reads its hidden state from the run it continues. The
    evaluation unit then runs on every row. Grouping only adjacent rows is
    correct for any row order and for duplicate rows;
    `surface_code_sim.syndrome_table` returns rows in byte order, which puts
    shared prefixes next to each other.

    The plan holds what that grouping leaves chip-independent: each step's
    input block [DAC(x_t) | h | DAC(1)] with the DAC'd events and the bias
    column filled, and how many runs at each step (rows after the last)
    continue each run of the step before; runs continue runs in order, so
    `np.repeat` by those counts gives each its parent's hidden state.
    `logits(programmed)` writes only the hidden-state columns of those
    blocks before each step's product, then runs the matmul and
    `_convert_hidden` in work buffers it reuses. `work`, when given, is a
    float64 vector of at least `work_size(len(events))` floats holding those
    buffers; plans built with one `work` share them, so the logits one of
    them returns are overwritten by the next `logits` call on any of them.
    `table_plans` builds the plans of one evaluation so.

    A one-row product goes to gemv instead of gemm, whose bits can differ,
    so a step with one run inside a batch of several rows is planned as a
    doubled row, while a batch of one row stays on gemv at every step, as
    it would on its own.
    """

    def __init__(self, events: np.ndarray, cfg: CrossbarConfig,
                 work: np.ndarray | None = None):
        x = _check_events(events)
        n, steps, width = x.shape
        self.rows, self.cfg = n, cfg
        xv = _convert_in(x.astype(np.float64), cfg)
        bits = xv.view(np.uint64)
        self._bias = _convert_in(np.ones(1), cfg)[0]

        # new[t, i]: row i starts a run at step t, as it differs from the row
        # above in an input word of step t or before; row 0 starts every step
        words = bits.reshape(n, steps * width)
        differs = np.ones(words.shape, bool)
        np.not_equal(words[1:], words[:-1], out=differs[1:])
        np.logical_or.accumulate(differs, axis=1, out=differs)
        new = differs[:, width - 1::width].T
        # a single run in a batch of several rows is planned as a doubled row
        sizes = np.maximum(new.sum(axis=1), min(n, 2))

        inputs = np.empty((sizes.sum(), width + HIDDEN_SIZE + 1))
        inputs[:, -1] = self._bias
        if work is None:
            work = np.empty(self.work_size(n))
        elif len(work) < self.work_size(n):
            raise ValueError(f"work buffer of {len(work)} floats cannot hold "
                             f"a plan of {n} rows")
        cap = max(n, 2)
        out = work[:cap * HIDDEN_SIZE]
        self._steps = []
        run, runs = np.zeros(n, np.intp), 1   # each row's run, and the runs, at the step before
        first = 0
        for t, k in enumerate(sizes.tolist()):
            starts = np.flatnonzero(new[t])
            if len(starts) < k:
                starts = np.zeros(k, np.intp)
            inp = inputs[first:first + k]
            first += k
            inp[:, :width] = xv[starts, t]
            self._steps.append((inp, inp[:, width:-1], np.bincount(run[starts], minlength=runs),
                                out[:k * HIDDEN_SIZE].reshape(k, HIDDEN_SIZE)))
            run, runs = np.cumsum(new[t]) - 1, k
        self._head_rows = np.bincount(run, minlength=runs)
        # after the last step: the evaluation unit's input after the step
        # outputs, its product in the step outputs, which the head has read
        self._head = work[cap * HIDDEN_SIZE:][:n * (HIDDEN_SIZE + 1)].reshape(n, HIDDEN_SIZE + 1)
        self._logits = out[:2 * n].reshape(n, 2)

    @staticmethod
    def work_size(rows: int) -> int:
        """Floats of work buffer a plan of `rows` rows uses."""
        return max(rows, 2) * (2 * HIDDEN_SIZE + 1)

    def logits(self, programmed: ProgrammedDecoder) -> np.ndarray:
        """Post-ADC logits (rows, 2) of one chip, a view into the work
        buffers."""
        cfg = self.cfg
        w_rec = programmed.recurrent.effective()
        w_eval = programmed.evaluation.effective()
        h = _H0
        for inp, h_cols, repeats, out in self._steps:
            h_cols[...] = np.repeat(h, repeats, axis=0)
            h = _convert_hidden(np.matmul(inp, w_rec, out=out), programmed.scale_recurrent, cfg)
        head = self._head
        head[:, :-1] = np.repeat(h, self._head_rows, axis=0)
        head[:, -1] = self._bias
        logits = np.matmul(head, w_eval, out=self._logits)
        return _convert_out(logits, programmed.scale_evaluation, cfg)


def table_plans(tables: Sequence[tuple[np.ndarray, np.ndarray]], cfg: CrossbarConfig,
                ) -> list[AnalogPlan]:
    """One `AnalogPlan` per syndrome table (rows, counts), for the batch
    `surface_code_sim.table_batch` decodes, all sharing one work buffer sized
    to the largest."""
    batches = [table_batch(rows, counts) for rows, counts in tables]
    work = np.empty(max((AnalogPlan.work_size(len(b)) for b in batches), default=0))
    return [AnalogPlan(batch, cfg, work) for batch in batches]


def _converter_settings(cfg: CrossbarConfig) -> tuple:
    return cfg.adc_bound, cfg.dac_bound, cfg.levels, cfg.quantize_io


def analog_accuracy(programmed: ProgrammedDecoder, cfg: CrossbarConfig,
                    rows: np.ndarray, counts: np.ndarray,
                    plan: AnalogPlan | None = None) -> float:
    """Accuracy of one programmed chip over a syndrome table: `rows` are the
    distinct event rows of a test set and `counts` (u, 2) their label-0 and
    label-1 shot counts, as `surface_code_sim.syndrome_table` returns them.
    Equals the per-shot accuracy over the full set.

    `plan` is the table's plan from `table_plans` (built here when None):
    the DAC'd events, prefix runs and bias column are the same for every
    chip, so a caller scoring many chips on one table builds them once.
    """
    if plan is None:
        plan = AnalogPlan(table_batch(rows, counts), cfg)
    elif _converter_settings(plan.cfg) != _converter_settings(cfg):
        raise ValueError("the plan was built for other converter settings")

    def predict(batch: np.ndarray) -> np.ndarray:
        if len(batch) != plan.rows:
            raise ValueError(f"the plan has {plan.rows} rows, the table decodes {len(batch)}")
        return logits_to_bits(plan.logits(programmed))

    return table_accuracy(predict, rows, counts)
