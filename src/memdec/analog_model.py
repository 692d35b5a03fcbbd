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
6) at 8 bits. One in-place quantizer, `_quantize`, does all of that rounding
(half away from zero, then the clamp): the plan executor below, `quantize`,
and the in-place DAC and ADC that hardware-aware retraining builds from
`_convert_in` and `_quantize` under `io_discretize`.

Each crossbar unit carries one extra bias row; the bias participates in
mapping, variability, and faults like any weight row.

Inference runs the recurrent unit once per distinct prefix of adjacent rows
rather than once per row and step, then the evaluation unit on every row.
It is split in two. An `AnalogPlan`, built once per batch of event rows and
converter setting, holds what no chip changes: the DAC'd events of each
prefix run with the bias column filled, each run's parent run, the final
row -> run map and reused work buffers. Running it on a chip forms each
unit's effective matrix G+ - G-, writes the hidden states into the plan's
inputs and runs matmul, ADC, ReLU and DAC. `analog_logits` builds a plan
and runs it once; the error-bar protocol builds one per test table
(`table_plans`) and runs it on every chip. The logits are bit-identical to
a per-row evaluation: the DAC and ADC act elementwise, so converting a
value once per table gives the value converting it per chip would; a row
of a gemm does not depend on the row count; and a step that would be a
one-row product inside a larger batch is evaluated as a doubled row, so it
stays on gemm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rnn_decoder import (EVALUATION_UNIT, HIDDEN_SIZE, RECURRENT_UNIT, DecoderParams,
                          _check_events, logits_to_bits)
from .surface_code_sim import table_accuracy, table_batch


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
        # the rule of the crossbar.fallback_relative config key; NaN fails it
        if not self.fallback_relative >= 0:
            raise ValueError("fallback_relative must be a non-negative real, "
                             f"got {self.fallback_relative}")

    def sigma(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=np.float64)
        if not self.coefficients:
            return self.fallback_relative * g
        out = np.zeros_like(g)
        for c in reversed(self.coefficients):
            out = out * g + c
        return np.maximum(out, 0.0)

    @staticmethod
    def disabled() -> "VariabilityModel":
        return VariabilityModel(fallback_relative=0.0)


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
        if not self.g_hcs > self.g_lcs > 0:
            raise ValueError(f"need g_hcs > g_lcs > 0, got {self.g_hcs}, {self.g_lcs}")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        for name in ("adc_bound", "dac_bound"):   # NaN fails too
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be a positive real, got {getattr(self, name)}")


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
        return FaultMap(sample_fault_map(RECURRENT_UNIT, stuck_rate, rng),
                        sample_fault_map(EVALUATION_UNIT, stuck_rate, rng))


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


def map_weights(w: np.ndarray, w_max: float, cfg: CrossbarConfig,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Differential-pair conductance targets for a signed weight matrix."""
    if w_max <= 0:
        raise ValueError(f"w_max must be positive, got {w_max}")
    w = np.asarray(w, dtype=np.float64)
    span = cfg.g_hcs - cfg.g_lcs
    programmed = np.abs(w) * span / w_max + cfg.g_lcs
    g_plus = np.where(w > 0, programmed, cfg.g_lcs)
    g_minus = np.where(w < 0, programmed, cfg.g_lcs)
    return g_plus, g_minus


def apply_variability(g: np.ndarray, model: VariabilityModel,
                      rng: np.random.Generator) -> np.ndarray:
    """Add N(0, sigma_prog(g)) per device; no clipping afterwards."""
    g = np.asarray(g, dtype=np.float64)
    sigma = model.sigma(g)
    return g + rng.standard_normal(g.shape) * sigma


def sample_fault_map(shape: tuple[int, ...], stuck_rate: float,
                     rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Bernoulli(stuck_rate) stuck indicator per differential pair."""
    if not 0.0 <= stuck_rate <= 1.0:
        raise ValueError(f"stuck_rate must lie in [0, 1], got {stuck_rate}")
    return rng.random(shape) < stuck_rate


def apply_faults(g_plus: np.ndarray, g_minus: np.ndarray, stuck: np.ndarray,
                 cfg: CrossbarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Force stuck pairs to the high-conductance state on both sides."""
    stuck = np.asarray(stuck, dtype=bool)
    if stuck.shape != g_plus.shape or g_plus.shape != g_minus.shape:
        raise ValueError(f"shape mismatch: {g_plus.shape}, {g_minus.shape}, {stuck.shape}")
    return (np.where(stuck, cfg.g_hcs, g_plus),
            np.where(stuck, cfg.g_hcs, g_minus))


def quantize(x, bound: float, levels: int):
    """Clamp to [-bound, bound]; inside, round(x/(2b)*n)*(2b)/n with halves
    away from zero."""
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    out = np.array(x, dtype=np.float64)
    _quantize(out.reshape(-1), bound, levels)
    return out if out.ndim else float(out)


def _quantize(x: np.ndarray, bound: float, levels: int,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """`quantize` in place on the float64 array `x` (`scratch`, if given, is
    a buffer of x's shape for the rounding); returns `x`.

    Rounds half away from zero as trunc(v + copysign(1/2, v)), which equals
    sign(v) * floor(|v| + 1/2) for every IEEE v but NaN: the sum rounds to
    the same magnitude for both signs, and trunc is floor on that magnitude
    with v's sign, -0.0 included. The half takes its sign from v + 0.0,
    which is +0.0 for v = -0.0, so an input of -0.0 gives +0.0 as
    sign(-0.0) * 0 does. A NaN comes out as v = x / step, the input NaN
    quieted with its sign and payload kept; sign(v) * floor(...) multiplies
    two NaNs there, and numpy does not fix whose sign the product keeps.
    +-inf clamps to +-bound.
    """
    step = 2.0 * bound / levels
    x /= step
    half = np.add(x, 0.0, out=scratch)
    np.copysign(0.5, half, out=half)
    x += half
    np.trunc(x, out=x)
    x *= step
    np.maximum(x, -bound, out=x)
    return np.minimum(x, bound, out=x)


def program_decoder(params: DecoderParams, cfg: CrossbarConfig, fmap: FaultMap,
                    rng: np.random.Generator) -> ProgrammedDecoder:
    """Map both decoder layers (bias row appended) onto crossbar units.

    Programming order: target conductances, then per-device variability,
    then stuck-at faults. Faults land last so stuck pairs sit at exactly
    g_hcs on both sides and cancel to an effective weight of zero.
    """
    units = []
    scales = []
    for mat, stuck in zip(params.units(), (fmap.recurrent, fmap.evaluation)):
        w_max = float(np.abs(mat).max())
        g_plus, g_minus = map_weights(mat, w_max, cfg)
        g_plus = apply_variability(g_plus, cfg.variability, rng)
        g_minus = apply_variability(g_minus, cfg.variability, rng)
        g_plus, g_minus = apply_faults(g_plus, g_minus, stuck, cfg)
        units.append(ProgrammedUnit(g_plus, g_minus))
        scales.append(w_max / (cfg.g_hcs - cfg.g_lcs))
    return ProgrammedDecoder(units[0], units[1], scales[0], scales[1])


def _convert_in(v: np.ndarray, cfg: CrossbarConfig,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """The DAC, in place on the float64 array `v`: inputs are scaled into
    [-1, 1] by the ADC bound before conversion, and the factor is restored
    after the analog product."""
    v /= cfg.adc_bound
    return _quantize(v, cfg.dac_bound, cfg.levels, scratch) if cfg.quantize_io else v


def _convert_out(current: np.ndarray, scale: float, cfg: CrossbarConfig,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Column currents to layer outputs, in place: de-scale to weight units,
    restore the DAC's factor, then the ADC."""
    current *= scale
    current *= cfg.adc_bound
    return _quantize(current, cfg.adc_bound, cfg.levels, scratch) if cfg.quantize_io else current


_H0 = np.zeros((1, HIDDEN_SIZE))  # the hidden state every row starts from


class AnalogPlan:
    """The chip-independent half of `analog_logits` for one batch of event
    rows under one converter setting (`adc_bound`, `dac_bound`, `levels`,
    `quantize_io` of `cfg`), built once and run on any number of chips.

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
    column filled, each run's parent run at the step before, and the final
    row -> run map. `logits(programmed)` writes only the hidden-state
    columns of those blocks before each step's product, then runs the
    matmul, ADC, ReLU and DAC in work buffers it reuses. `work`, when
    given, is a float64 vector of at least `work_size(len(events))` floats
    holding those buffers; plans built with one `work` share them, so the
    logits one of them returns are overwritten by the next `logits` call on
    any of them. `table_plans` builds the plans of one evaluation so.

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

        new = np.zeros(n, bool)
        new[:1] = True
        run = np.zeros(n, np.intp)      # each row's run at the previous step
        plan = []
        for t in range(steps):
            new[1:] |= (bits[1:, t] != bits[:-1, t]).any(axis=1)
            starts = np.flatnonzero(new)
            if len(starts) == 1 and n > 1:
                starts = np.zeros(2, np.intp)
            plan.append((starts, run[starts]))
            run = np.cumsum(new) - 1
        self._run = run

        inputs = np.empty((sum(len(starts) for starts, _ in plan),
                           width + HIDDEN_SIZE + 1))
        inputs[:, -1] = self._bias
        if work is None:
            work = np.empty(self.work_size(n))
        elif len(work) < self.work_size(n):
            raise ValueError(f"work buffer of {len(work)} floats cannot hold "
                             f"a plan of {n} rows")
        cap = max(n, 2)
        out = work[:cap * HIDDEN_SIZE]
        shared = work[cap * HIDDEN_SIZE:]
        self._steps = []
        first = 0
        for t, (starts, parents) in enumerate(plan):
            k = len(starts)
            inp = inputs[first:first + k]
            first += k
            inp[:, :width] = xv[starts, t]
            self._steps.append((inp, inp[:, width:-1], parents,
                                out[:k * HIDDEN_SIZE].reshape(k, HIDDEN_SIZE),
                                shared[:k * HIDDEN_SIZE].reshape(k, HIDDEN_SIZE)))
        # after the last step: the evaluation unit's input in the step
        # scratch, its product and rounding scratch in the step outputs,
        # which the head has already read
        self._head = shared[:n * (HIDDEN_SIZE + 1)].reshape(n, HIDDEN_SIZE + 1)
        self._logits = out[:2 * n].reshape(n, 2)
        self._logit_scratch = out[2 * n:4 * n].reshape(n, 2)

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
        for inp, h_cols, parents, out, scratch in self._steps:
            h_cols[...] = h[parents]
            h = np.matmul(inp, w_rec, out=out)
            _convert_out(h, programmed.scale_recurrent, cfg, scratch)
            np.maximum(h, 0.0, out=h)
            _convert_in(h, cfg, scratch)
        head = self._head
        head[:, :-1] = h[self._run]
        head[:, -1] = self._bias
        logits = np.matmul(head, w_eval, out=self._logits)
        return _convert_out(logits, programmed.scale_evaluation, cfg, self._logit_scratch)


def table_plans(tables: Sequence[tuple[np.ndarray, np.ndarray]], cfg: CrossbarConfig,
                ) -> list[AnalogPlan]:
    """One `AnalogPlan` per syndrome table (rows, counts), for the batch
    `surface_code_sim.table_batch` decodes, all sharing one work buffer sized
    to the largest."""
    batches = [table_batch(rows, counts) for rows, counts in tables]
    work = np.empty(max((AnalogPlan.work_size(len(b)) for b in batches), default=0))
    return [AnalogPlan(batch, cfg, work) for batch in batches]


def analog_logits(programmed: ProgrammedDecoder, cfg: CrossbarConfig,
                  events: np.ndarray) -> np.ndarray:
    """Crossbar forward pass; returns post-ADC logits, shape (n, 2).

    Runs an `AnalogPlan` of `events` on one chip. The bits equal those of
    running every row through every step: the converters act elementwise,
    so a value sees the same operations whether it is converted once or
    once per row, and a row of a gemm does not depend on how many rows the
    product has (see `AnalogPlan` for the one-row gemv case).
    """
    return AnalogPlan(events, cfg).logits(programmed).copy()


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
