"""Digital floating-point RNN decoder: a 16-unit fully connected recurrent
layer fed 4 syndrome bits per round, followed by a 2-class evaluation layer.

Forward, exact BPTT gradients, Adam, and mini-batch cross-entropy training
are implemented directly on numpy arrays; no autodiff framework. Meta choices
follow the decoder's training recipe: ReLU activation, softmax cross-entropy,
Adam at learning rate 1e-3 with batch size 32.

Every entry point works on batches: events are (n, rounds+1, 4), one row
per shot, and anything else is rejected; one shot is a batch of one row.

This is the one implementation of the network and of its epoch loop,
`_train`; hardware-aware retraining reuses both. `forward_batch` and
`loss_and_grads` take an optional converter pair `io = (dac, adc)`: `dac`
converts each layer's input and `adc` each layer's output, in place (the
bias enters unconverted, before the ADC). The backward pass treats both as
identity (a straight-through estimator).

Parameter layout: `DecoderParams` keeps all 370 parameters in one contiguous
float64 vector `flat`, in the order w_rec | b_rec | w_eval | b_eval, each
tensor in C order; `w_rec`, `b_rec`, `w_eval` and `b_eval` are views into
it. Since each layer's bias follows its weights, the vector is also the two
crossbar units in C order, each with its bias as the last row: the
recurrent unit (21, 16) is `flat[:336]` and the evaluation unit (17, 2) is
`flat[336:]` (`UNIT_SLICES`, `DecoderParams.units`). Gradients and Adam
moments use the same layout. The two moments are the rows of one (2, 370)
buffer, `AdamState.moments` (m in row 0, v in row 1), so an Adam step is a
dozen elementwise operations, most on both moments at once. Only this module
knows the layout.

The training step is written for few numpy calls per batch, with bits that
do not depend on how it is batched or buffered:
  * `_train` gathers the shuffled shots of `_GATHER_BATCHES` batches at a
    time with `take(out=)` into reused buffers, with their one-hot label
    rows, so each batch is a contiguous slice of them; the permutation and
    the batch boundaries are those of a gather per batch, and a block of
    64 batches of 32 keeps the buffers at about 64 kB;
  * a `Workspace` holds every buffer of the step, stored step-major (step t
    of the batch is one contiguous (n, ·) block), and slices the per-step
    views out of them once per batch size, not once per call; `_train`
    binds each batch's views once per call;
  * per-call work is bound once: the unit views and BPTT's transposed
    weight views with the parameters, Adam's coefficients with the config
    (`AdamState`: beta as a full (2, 370) buffer, so the moments' decay
    broadcasts nothing, and 1 - beta as a (2, 1) column), and h_0 is reset
    only after a DAC converted it;
  * scalar operands that numpy would convert on every call (the ReLU's
    0.0, the batch size that divides dlogits, Adam's learning rate, eps
    and its two bias corrections, set per step, which divide one moment row
    each) are float64 0-d arrays: the same IEEE operations, less dispatch;
  * the two-class softmax runs on the logit columns: `maximum` of the two
    columns is exact, and so gives the bits of `max(axis=1)`, and their
    `add` is the a + b that a two-term `sum(axis=1)` computes;
  * the ReLU derivative is held as float64 0/1, so BPTT multiplies float by
    float; numpy would cast a boolean mask to the same 0.0/1.0;
  * the matrix products of the recurrent step and of BPTT's hidden-state
    gradient run as the `ndarray.dot` method into contiguous outputs: the
    same BLAS call as `matmul`, and as `np.dot`, whose `__array_function__`
    dispatch the method skips. The hidden-state gradient takes only the
    h rows of w_rec, (n, 16) @ (16, 16): the x rows' columns were never
    read, and writing 16 contiguous columns makes the next ReLU-derivative
    product contiguous;
  * the recurrent layer runs in its crossbar-unit layout, as in
    `analog_model`: step t is [x_t | h_t | 1] @ unit, the (21, 16) unit
    with b_rec as its last row, and BPTT's one batched product of the step
    inputs with dz_t gives the whole unit's gradient, its bias row the sum
    of dz over shots. The products by the constant 1.0 are exact, so where
    BLAS adds a dot's terms in order these are the bits of the (n, 20)
    product plus b_rec and of a separate `dz` sum. Under `io` the DAC
    converts the whole contiguous [x_t | h_t | 1] row and the bias column
    is set back to 1.0, which costs less than converting a strided
    [x_t | h_t] view;
  * the evaluation layer's forward is not folded: (n, 17) @ (17, 2) gave
    other logits than (n, 16) @ (16, 2) plus b_eval in most random batches
    of 2 to 32 rows, so b_eval is added after its product. Its gradient
    is: [h_T | 1]^T @ dlogits is one product into the evaluation unit's
    gradient, whose last row, b_eval's, is the sum of dlogits over shots;
  * these folds and the 16-row hidden-state product give the bits of the
    separate products, bias adds and sums under OpenBLAS's SkylakeX and
    Sandybridge dgemm kernels; under its Haswell kernel the recurrent
    fold does not, and under Prescott neither fold does (`TestBiasFold`).
    The training digests hold under SkylakeX alone, as they did before;
  * the training step (`_grads`) runs the forward pass, softmax and BPTT
    pieces of `loss_and_grads` without its loss and its checks, which
    `_train` makes once per call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .rng import spawn_generator
from .rules import check_fields
from .surface_code_sim import Dataset, _check_labels, table_accuracy, table_batch, union_table

INPUT_SIZE = 4
HIDDEN_SIZE = 16
OUTPUT_SIZE = 2
# batches whose shots `_train` gathers at once
_GATHER_BATCHES = 64

# row k is the one-hot row of label k
_ONE_HOT = np.eye(OUTPUT_SIZE)
# the ReLU's threshold: a 0-d array dispatches faster than the float 0.0
_ZERO = np.zeros(())

# (dac, adc): elementwise converters that overwrite each layer's input and
# output in place and return it
Converters = tuple[Callable[[np.ndarray], np.ndarray],
                   Callable[[np.ndarray], np.ndarray]]


# crossbar unit shapes: each layer's weight rows plus its bias row
RECURRENT_UNIT = (INPUT_SIZE + HIDDEN_SIZE + 1, HIDDEN_SIZE)
EVALUATION_UNIT = (HIDDEN_SIZE + 1, OUTPUT_SIZE)
_B_REC = (INPUT_SIZE + HIDDEN_SIZE) * HIDDEN_SIZE
_W_EVAL = _B_REC + HIDDEN_SIZE
_B_EVAL = _W_EVAL + HIDDEN_SIZE * OUTPUT_SIZE
N_PARAMS = _B_EVAL + OUTPUT_SIZE
# the recurrent and evaluation units in `DecoderParams.flat`
UNIT_SLICES = (slice(0, _W_EVAL), slice(_W_EVAL, N_PARAMS))
# (name, start, stop, shape) of each tensor in `DecoderParams.flat`
_TENSORS = (("w_rec", 0, _B_REC, (INPUT_SIZE + HIDDEN_SIZE, HIDDEN_SIZE)),
            ("b_rec", _B_REC, _W_EVAL, (HIDDEN_SIZE,)),
            ("w_eval", _W_EVAL, _B_EVAL, (HIDDEN_SIZE, OUTPUT_SIZE)),
            ("b_eval", _B_EVAL, N_PARAMS, (OUTPUT_SIZE,)))


class DecoderParams:
    """Weights and biases, views into one (370,) vector `flat` (see the module
    docstring); w_rec acts on [syndrome (4) | hidden (16)]."""

    __slots__ = ("flat", "w_rec", "b_rec", "w_eval", "b_eval", "_units", "_transposed")

    def __init__(self, w_rec: np.ndarray, b_rec: np.ndarray, w_eval: np.ndarray,
                 b_eval: np.ndarray):
        flat = np.empty(N_PARAMS)
        for (name, start, stop, shape), tensor in zip(_TENSORS,
                                                      (w_rec, b_rec, w_eval, b_eval)):
            arr = np.asarray(tensor, dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            flat[start:stop] = arr.ravel()
        self._bind(flat)

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        for name, start, stop, shape in _TENSORS:
            setattr(self, name, flat[start:stop].reshape(shape))
        self._units = (flat[UNIT_SLICES[0]].reshape(RECURRENT_UNIT),
                       flat[UNIT_SLICES[1]].reshape(EVALUATION_UNIT))
        # BPTT's operands: w_eval and the h rows of w_rec, transposed
        self._transposed = (self.w_eval.T, self.w_rec[INPUT_SIZE:].T)

    @staticmethod
    def from_flat(flat: np.ndarray) -> "DecoderParams":
        """Parameters viewing `flat` (not copied), a contiguous (370,)
        float64 vector."""
        if (flat.shape != (N_PARAMS,) or flat.dtype != np.float64
                or not flat.flags.c_contiguous):
            raise ValueError(f"flat must be a contiguous ({N_PARAMS},) float64 "
                             f"vector, got {flat.shape} {flat.dtype}")
        params = DecoderParams.__new__(DecoderParams)
        params._bind(flat)
        return params

    def __reduce__(self):
        # pickle and deepcopy rebuild the views into one copied vector
        return DecoderParams.from_flat, (self.flat,)

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.w_rec, self.b_rec, self.w_eval, self.b_eval

    def units(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the recurrent (21, 16) and evaluation (17, 2) crossbar
        units, each layer's bias as its last row (bound once, with the
        tensor views)."""
        return self._units

    def copy(self) -> "DecoderParams":
        return DecoderParams.from_flat(self.flat.copy())

    @staticmethod
    def zeros() -> "DecoderParams":
        return DecoderParams.from_flat(np.zeros(N_PARAMS))

    @staticmethod
    def initial(seed: int) -> "DecoderParams":
        """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
        rng = spawn_generator(seed)
        lim_rec = 1.0 / np.sqrt(INPUT_SIZE + HIDDEN_SIZE)
        lim_eval = 1.0 / np.sqrt(HIDDEN_SIZE)
        return DecoderParams(
            rng.uniform(-lim_rec, lim_rec, (INPUT_SIZE + HIDDEN_SIZE, HIDDEN_SIZE)),
            rng.uniform(-lim_rec, lim_rec, HIDDEN_SIZE),
            rng.uniform(-lim_eval, lim_eval, (HIDDEN_SIZE, OUTPUT_SIZE)),
            rng.uniform(-lim_eval, lim_eval, OUTPUT_SIZE),
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs: int = 50
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "train.")


def _check_events(events: np.ndarray) -> np.ndarray:
    arr = np.asarray(events)
    if arr.ndim != 3 or arr.shape[2] != INPUT_SIZE:
        raise ValueError(f"events must be (n, rounds+1, 4), got {np.shape(events)}")
    return arr


class Workspace:
    """Buffers that `forward_batch` and `loss_and_grads` fill in place, for
    batches of up to `rows` shots of `steps` rounds each (rounds + 1 event
    rows). A caller that passes one workspace to every call allocates no
    arrays for the forward pass, BPTT or the gradients (converters aside);
    what those calls return are views into it, overwritten by the next
    call.

    The per-step buffers are step-major: `inputs` is (T+1, rows, 21), `z`,
    `active` and `dz` are (T, rows, 16), so the block a step reads or writes
    for a batch of n <= rows shots is contiguous; callers get (n, T+1, 20)
    and (n, T, 16) transposed views. Row t of `inputs` is the recurrent
    unit's input [x_t | h_t | 1]: its last column is the constant bias
    input, written once here and set back to 1.0 after each DAC pass, so
    the unit's bias row adds b_rec itself. Row T is [0 | h_T | 1], so its
    last 17 columns are the evaluation unit's input with its bias input,
    the operand of that unit's one gradient product. h_0 is zero, and is
    zeroed again only before the call that follows one whose DAC converted
    it in place (`_h0_converted`). The views a step uses (each step's input,
    its output z_t and next hidden state, BPTT's dz and ReLU derivative per
    step, the operands of the two unit-gradient products, and so on) are
    sliced out of the buffers once per batch size, by `views(n)`, and
    reused by every later batch of that size; a training loop sees at most
    two sizes, the batch and the ragged last batch, and binds both once."""

    def __init__(self, rows: int, steps: int):
        self.inputs = np.zeros((steps + 1, rows, RECURRENT_UNIT[0]))
        self.inputs[..., -1] = 1.0
        # h_0 of every row, and whether a DAC has converted it in place
        # since it was last zeroed: a one-item list that the views share,
        # so that they hold no reference to the workspace that caches them
        self.h0 = self.inputs[0, :, INPUT_SIZE:-1]
        self._h0_converted = [False]
        self.z = np.empty((steps, rows, HIDDEN_SIZE))
        self.logits = np.empty((rows, OUTPUT_SIZE))
        self.active = np.empty((steps, rows, HIDDEN_SIZE))
        self.dz = np.empty((steps, rows, HIDDEN_SIZE))
        self.dh = np.empty((rows, HIDDEN_SIZE))
        self.per_step = np.empty((steps,) + RECURRENT_UNIT)
        self.column = np.empty((rows, 1))
        self.log_picked = np.empty(rows)
        self.one_hot = np.empty((rows, OUTPUT_SIZE))
        self.rows = np.arange(rows)
        self.grads = DecoderParams.zeros()
        self._views: dict[int, _BatchViews] = {}

    def views(self, n: int) -> "_BatchViews":
        """The per-step views for a batch of `n` shots, built on first use."""
        views = self._views.get(n)
        if views is None:
            views = self._views[n] = _BatchViews(self, n)
        return views


class _BatchViews:
    """Views of a `Workspace`'s buffers for a batch of `n` shots (see
    `Workspace.views`); step tuples are in the order the passes visit them:
    the forward pass from step 0, BPTT from the last step."""

    __slots__ = ("h0", "h0_converted", "shot_inputs", "shot_z", "z", "logits", "events",
                 "forward_steps", "last", "last_with_bias_t", "logit0", "logit1", "column",
                 "log_picked", "one_hot", "rows", "active", "dz", "backward_steps", "dh",
                 "inputs_reversed", "per_step", "grads",
                 "unit_grads", "eval_unit_grads", "count")

    def __init__(self, work: Workspace, n: int):
        steps = work.z.shape[0]
        self.h0, self.h0_converted = work.h0, work._h0_converted
        # n as a 0-d array, which dispatches faster than an int
        self.count = np.array(float(n))
        inputs, z, logits = work.inputs[:, :n], work.z[:, :n], work.logits[:n]
        xh = inputs[:, :, :INPUT_SIZE + HIDDEN_SIZE]
        # (n, T+1, 20) and (n, T, 16), as `forward_batch` returns them
        self.shot_inputs, self.shot_z = xh.transpose(1, 0, 2), z.transpose(1, 0, 2)
        self.z, self.logits = z, logits
        self.events = inputs[:steps, :, :INPUT_SIZE].transpose(1, 0, 2)
        # per step: [x_t | h_t | 1], its bias column, z_t and h_t+1
        self.forward_steps = tuple((inputs[t], inputs[t, :, -1:], z[t],
                                    xh[t + 1, :, INPUT_SIZE:]) for t in range(steps))
        self.last = xh[steps, :, INPUT_SIZE:]
        # (17, n): the evaluation unit's input [h_T | 1], transposed
        self.last_with_bias_t = inputs[steps, :, INPUT_SIZE:].T
        self.logit0, self.logit1 = logits[:, :1], logits[:, 1:]
        self.column = work.column[:n]
        self.log_picked = work.log_picked[:n]
        self.one_hot = work.one_hot[:n]
        self.rows = work.rows[:n]
        self.active = work.active[:, :n]
        # dz of step t is stored at dz[steps-1-t], so the sums over steps
        # in `_backward` add the latest step first, in the order BPTT
        # reaches them
        self.dz = work.dz[:, :n]
        # BPTT's steps T-1 ... 1; step 0 needs no hidden-state gradient
        self.backward_steps = tuple((self.dz[steps - 1 - t], self.active[t])
                                    for t in range(steps - 1, 0, -1))
        self.dh = work.dh[:n]
        # (T, 21, n): step t's [x_t | h_t | 1] rows at T-1-t, as dz stores them
        self.inputs_reversed = inputs[steps - 1::-1].transpose(0, 2, 1)
        self.per_step, self.grads = work.per_step, work.grads
        self.unit_grads, self.eval_unit_grads = work.grads.units()


def _batch_views(work: Workspace | None, n: int, steps: int) -> _BatchViews:
    """The views of `work` (a new workspace when None) for `n` shots of
    `steps` rounds."""
    if work is None:
        work = Workspace(n, steps)
    if work.inputs.shape[0] != steps + 1 or work.inputs.shape[1] < n:
        raise ValueError(f"workspace {work.inputs.shape[1::-1]} cannot hold a batch of "
                         f"{n} shots of {steps} steps")
    return work.views(n)


def forward_batch(params: DecoderParams, events: np.ndarray,
                  io: Converters | None = None, work: Workspace | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised forward; returns (z (n,T,16), inputs (n,T+1,20), logits (n,2)).

    `z` holds the recurrent layer's outputs (after the ADC under `io`).
    `inputs[:, t]` is the recurrent layer's input [x_t | h_t] at step t and
    `inputs[:, T, 4:]` the evaluation layer's input h_T, each as the layer
    received it (after the DAC under `io`); `inputs[:, T, :4]` is zero.
    The events are cast into `inputs` as they are copied there. The arrays
    live in `work` when one is given (see `Workspace`).
    """
    x = _check_events(events)
    return _forward(params, x, io, _batch_views(work, *x.shape[:2]))


def _forward(params: DecoderParams, x: np.ndarray, io: Converters | None,
             v: _BatchViews) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dac, adc = io if io is not None else (None, None)
    v.events[...] = x
    converted = v.h0_converted
    if converted[0]:
        v.h0[...] = 0.0
    converted[0] = dac is not None
    unit_rec = params._units[0]
    for inp, bias, zt, h_next in v.forward_steps:
        if dac is not None:
            dac(inp)
            bias[...] = 1.0
        inp.dot(unit_rec, out=zt)
        if adc is not None:
            adc(zt)
        np.maximum(zt, _ZERO, out=h_next)
    last, logits = v.last, v.logits
    if dac is not None:
        dac(last)
    np.matmul(last, params.w_eval, out=logits)
    logits += params.b_eval
    if adc is not None:
        adc(logits)
    return v.shot_z, v.shot_inputs, logits


def logits_to_bits(logits: np.ndarray) -> np.ndarray:
    """Argmax over the two logits of each row; ties resolve to 0 (no
    recovery)."""
    return (logits[:, 1] > logits[:, 0]).astype(np.uint8)


def loss_and_grads(params: DecoderParams, events: np.ndarray, labels: np.ndarray,
                   io: Converters | None = None, work: Workspace | None = None,
                   ) -> tuple[float, DecoderParams]:
    """Mean softmax cross-entropy and exact BPTT gradients.

    ReLU uses subgradient 0 at z=0; the converters in `io` pass gradients
    straight through. Gradients come back in a DecoderParams-shaped
    container, `work.grads` when a workspace is given. Labels must be 0 or
    1.
    """
    x = _check_events(events)
    labels = np.asarray(labels).reshape(-1)
    n, steps, _ = x.shape
    if n == 0:
        raise ValueError("batch must be non-empty")
    if labels.shape[0] != n:
        raise ValueError(f"{n} samples but {labels.shape[0]} labels")
    _check_labels(labels)
    y = labels.astype(np.int64)
    v = _batch_views(work, n, steps)
    _forward(params, x, io, v)
    probs = _softmax(v)
    np.add(probs[v.rows, y], 1e-300, out=v.log_picked)
    loss = -float(np.log(v.log_picked, out=v.log_picked).sum()) / n
    return loss, _backward(params, _ONE_HOT.take(y, axis=0, out=v.one_hot), v)


def _grads(params: DecoderParams, x: np.ndarray, one_hot: np.ndarray,
           io: Converters | None, v: _BatchViews) -> DecoderParams:
    """The gradients of `loss_and_grads` without the loss or the checks: the
    training step of `_train`, on a batch of checked events `x` with the
    one-hot rows `one_hot` of its labels, in views `v` sized to it."""
    _forward(params, x, io, v)
    _softmax(v)
    return _backward(params, one_hot, v)


def _softmax(v: _BatchViews) -> np.ndarray:
    """The two-class softmax of the logits, in place, column by column: the
    max of two entries is exact and a two-term add.reduce is a + b, so these
    are the bits of `max(axis=1)` and `sum(axis=1)`."""
    probs = v.logits
    np.maximum(v.logit0, v.logit1, out=v.column)
    probs -= v.column
    np.exp(probs, out=probs)
    np.add(v.logit0, v.logit1, out=v.column)
    probs /= v.column
    return probs


def _backward(params: DecoderParams, one_hot: np.ndarray, v: _BatchViews,
              ) -> DecoderParams:
    """BPTT from the softmax in `v.logits` (overwritten by dlogits) and the
    one-hot rows `one_hot` of the labels, into `v.grads`.

    The recurrent unit's gradient is one batched matmul of the step inputs
    [x_t | h_t | 1] with dz_t, summed over steps: the ones row of the inputs
    makes the bias row the sum of dz over shots: the bits of a separate
    `dz.sum(axis=1)` where BLAS adds the exact products by 1.0 in shot
    order (see the module docstring)."""
    dlogits, dh, dz, active = v.logits, v.dh, v.dz, v.active
    # only h_t's rows of w_rec reach the hidden-state gradient
    w_eval_t, w_hidden_t = params._transposed
    # the label column becomes p - 1.0, the other q - 0.0 = q
    dlogits -= one_hot
    dlogits /= v.count

    np.matmul(v.last_with_bias_t, dlogits, out=v.eval_unit_grads)
    dlogits.dot(w_eval_t, out=dh)

    np.greater(v.z, _ZERO, out=active)
    for dz_t, active_t in v.backward_steps:
        np.multiply(dh, active_t, out=dz_t)
        dz_t.dot(w_hidden_t, out=dh)
    np.multiply(dh, active[0], out=dz[-1])
    per_step = v.per_step
    np.matmul(v.inputs_reversed, dz, out=per_step)
    np.add.reduce(per_step, axis=0, out=v.unit_grads, initial=0.0)
    return v.grads


class AdamState:
    """Adam's step count and moment estimates. Both moments are rows of one
    (2, 370) buffer `moments`, so one elementwise op updates the pair; `m`
    and `v` are `DecoderParams` views of rows 0 and 1. Pickle and deepcopy
    copy the buffer and rebuild the views into the copy.

    The coefficients are set for `_config`, the config of the last step:
    beta as a full (2, 370) buffer, row k the beta of moment k, so that
    `moments *= beta` broadcasts nothing; 1 - beta as a (2, 1) column; the
    learning rate and eps as 0-d arrays, which dispatch faster than floats.
    Each step sets the bias corrections 1 - beta^t, two more 0-d arrays, so
    that m / c1 and v / c2 are each a row divided by a 0-d array. The
    arrays a step reads are bound once, in one tuple `_operands`."""

    __slots__ = ("moments", "m", "v", "step", "_config", "_beta", "_coefs", "_finite",
                 "_operands")

    def __init__(self, moments: np.ndarray | None = None, step: int = 0):
        self.moments = np.zeros((2, N_PARAMS)) if moments is None else moments
        self.m = DecoderParams.from_flat(self.moments[0])
        self.v = DecoderParams.from_flat(self.moments[1])
        self.step = step
        self._config = None
        self._beta = np.empty((2, N_PARAMS))
        # 1 - beta of each moment, then c1, c2, the learning rate and eps
        self._coefs = np.empty(6)
        c1, c2, learning_rate, eps = (self._coefs[i:i + 1].reshape(()) for i in range(2, 6))
        scratch = np.empty((2, N_PARAMS))
        self._finite = np.empty(N_PARAMS, dtype=bool)
        self._operands = (self.moments, self._beta, self._coefs[:2, None], scratch,
                          scratch[0], scratch[1], self.moments[0], self.moments[1], c1, c2,
                          learning_rate, eps)

    def __reduce__(self):
        return AdamState, (self.moments, self.step)


def accuracy(params: DecoderParams, rows: np.ndarray, counts: np.ndarray,
             io: Converters | None = None, work: Workspace | None = None,
             ) -> np.ndarray:
    """Digital accuracy of each set of a `surface_code_sim.union_table`
    (`rows`, `counts` (u, k, 2)), as k float64: the fraction of the shots
    of a set whose prediction equals the label, with each distinct row
    decoded once by `forward_batch` (under `io`, in `work` when given).
    Equals the per-shot accuracy over each full set. The one digital table
    scorer: `_train` scores its validation draws, a union of one set, and
    `evaluate_scheme` its baseline with it."""
    return table_accuracy(lambda r: logits_to_bits(forward_batch(params, r, io, work)[2]),
                          rows, counts)


def adam_step(params: DecoderParams, grads: DecoderParams, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update of `params` and `state`, in place.

    Both moments are updated at once as the rows of `state.moments`, each
    element by the IEEE operations, in the order, of
    m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g and
    params -= lr (m / c1) / (sqrt(v / c2) + eps), c = 1 - b^t.
    Raises NumericError, leaving both untouched, on a non-finite gradient.
    """
    g = grads.flat
    if np.count_nonzero(np.isfinite(g, out=state._finite)) != N_PARAMS:
        raise NumericError("non-finite gradient in adam_step")
    t = state.step = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    coefs = state._coefs
    if state._config is not config:
        state._beta[0], state._beta[1] = b1, b2
        coefs[[0, 1, 4, 5]] = (1 - b1, 1 - b2, config.learning_rate, config.adam_eps)
        state._config = config
    coefs[2], coefs[3] = 1 - b1 ** t, 1 - b2 ** t
    (moments, beta, one_minus_beta, tmp, update, denominator, m, v, c1, c2, learning_rate,
     eps) = state._operands
    moments *= beta
    np.multiply(one_minus_beta, g, out=tmp)
    denominator *= g
    moments += tmp
    np.divide(m, c1, out=update)
    np.divide(v, c2, out=denominator)
    np.sqrt(denominator, out=denominator)
    denominator += eps
    update *= learning_rate
    update /= denominator
    params.flat -= update


def _train(params: DecoderParams, dataset: Dataset, val: Dataset, config: TrainConfig,
           shuffle_rng: np.random.Generator, io: Converters | None, batch_params,
           after_update, val_draws) -> DecoderParams:
    """The epoch loop and training step of FP training and retraining. It
    trains `params` in place for `config.epochs` epochs, each one
    `shuffle_rng.permutation` of the shots, cut into batches of
    `config.batch_size`, and returns a copy of them after the earliest
    epoch of best score: the mean `accuracy`, on the validation syndrome
    table, of the (parameters, converters) pairs `val_draws(epoch)` yields.

    Each batch is one step of this call's `AdamState`: the gradients of the
    forward pass under `io` with the parameters `forward_params`, times the
    keep-mask `keep` unless it is None, where `batch_params(epoch, batches)`
    yields one (forward_params, keep) pair per batch in order; then
    `after_update(params)` unless it is None. Events and labels are checked
    here, once. The shuffled shots of `_GATHER_BATCHES` batches at a time
    are gathered into reused buffers, so each batch is a contiguous slice
    of them."""
    events, labels = _check_events(dataset.events), dataset.labels
    if events.shape[0] == 0 or val.events.shape[0] == 0:
        raise ValueError("datasets must be non-empty")
    if events.shape[1] != val.events.shape[1]:
        raise ValueError("train and validation datasets disagree on rounds")
    if labels.shape[0] != events.shape[0]:
        raise ValueError(f"{events.shape[0]} samples but {labels.shape[0]} labels")
    _check_labels(labels)
    rows, counts = union_table([(val.events, val.labels)])
    val_work = Workspace(len(table_batch(rows, counts)), rows.shape[1])
    n, size = events.shape[0], config.batch_size
    batches, block = -(-n // size), min(_GATHER_BATCHES * size, n)
    work = Workspace(min(size, n), events.shape[1])
    x_buffer = np.empty((block,) + events.shape[1:], events.dtype)
    y_buffer = np.empty(block, labels.dtype)
    one_hot = np.empty((block, OUTPUT_SIZE))

    def layout(shots):
        # a block's gather buffers, then each of its batches: events,
        # one-hot label rows and workspace views
        return x_buffer[:shots], y_buffer[:shots], one_hot[:shots], tuple(
            (x_buffer[i:min(i + size, shots)], one_hot[i:min(i + size, shots)],
             work.views(min(size, shots - i))) for i in range(0, shots, size))

    full, last = layout(block), layout(n - (n - 1) // block * block)
    state = AdamState()
    best_acc, best = -1.0, None
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        draws = iter(batch_params(epoch, batches))
        for first in range(0, n, block):
            idx = order[first:first + block]
            x_block, y_block, one_hot_block, steps = full if len(idx) == block else last
            events.take(idx, axis=0, out=x_block, mode="clip")
            _ONE_HOT.take(labels.take(idx, out=y_block, mode="clip"), axis=0,
                          out=one_hot_block, mode="clip")
            for (x, one_hot_rows, v), (forward_params, keep) in zip(steps, draws):
                grads = _grads(forward_params, x, one_hot_rows, io, v)
                if keep is not None:
                    grads.flat *= keep
                adam_step(params, grads, state, config)
                if after_update is not None:
                    after_update(params)
        accs = [accuracy(p, rows, counts, p_io, val_work)[0] for p, p_io in val_draws(epoch)]
        acc = sum(accs) / len(accs)
        if acc > best_acc:
            best_acc, best = acc, params.copy()
    return best


def train_fp(dataset: Dataset, val: Dataset, config: TrainConfig) -> DecoderParams:
    """Shuffled mini-batch Adam training from `DecoderParams.initial`;
    returns the parameters of the epoch with the best validation accuracy
    (earliest epoch on ties)."""
    params = DecoderParams.initial(config.seed)
    return _train(params, dataset, val, config, spawn_generator(config.seed, 1), None,
                  lambda epoch, batches: itertools.repeat((params, None)), None,
                  lambda epoch: [(params, None)])
