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
bias is added digitally, before the ADC). The backward pass treats both as
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
  * a `Workspace` holds every buffer of the step, stored step-major (step t
    of the batch is one contiguous (n, ·) block), and slices the per-step
    views out of them once per batch size, not once per call;
  * the two-class softmax runs on the logit columns: `maximum` of the two
    columns is exact, and so gives the bits of `max(axis=1)`, and their
    `add` is the a + b that a two-term `sum(axis=1)` computes;
  * the ReLU derivative is held as float64 0/1, so BPTT multiplies float by
    float; numpy would cast a boolean mask to the same 0.0/1.0;
  * the matrix products of the recurrent step and of BPTT's hidden-state
    gradient run as `np.dot` into contiguous outputs: the same BLAS call as
    `matmul` with less dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .rng import spawn_generator
from .surface_code_sim import Dataset, syndrome_table, table_accuracy, table_batch

INPUT_SIZE = 4
HIDDEN_SIZE = 16
OUTPUT_SIZE = 2

# row k is the one-hot row of label k
_ONE_HOT = np.eye(OUTPUT_SIZE)

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

    __slots__ = ("flat", "w_rec", "b_rec", "w_eval", "b_eval")

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
        units, each layer's bias as its last row."""
        return (self.flat[UNIT_SLICES[0]].reshape(RECURRENT_UNIT),
                self.flat[UNIT_SLICES[1]].reshape(EVALUATION_UNIT))

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
        # the rules of the train.* config keys; NaN fails each real one
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be a positive real, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be a real in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be a positive real, got {self.adam_eps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside [0, 2^64)")


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

    The per-step buffers are step-major: `inputs` is (T+1, rows, 20), `z`,
    `active` and `dz` are (T, rows, 16), so the block a step reads or writes
    for a batch of n <= rows shots is contiguous; callers get (n, T+1, 20)
    and (n, T, 16) transposed views. The views a step uses (each step's
    input [x_t | h_t], output z_t and next hidden state, BPTT's dz and ReLU
    derivative per step, the reversed-input operand of the weight-gradient
    matmul, and so on) are sliced out of the buffers once per batch size, by
    `views(n)`, and reused by every later batch of that size; a training
    loop sees at most two sizes, the batch and the ragged last batch."""

    def __init__(self, rows: int, steps: int):
        self.inputs = np.zeros((steps + 1, rows, INPUT_SIZE + HIDDEN_SIZE))
        self.z = np.empty((steps, rows, HIDDEN_SIZE))
        self.logits = np.empty((rows, OUTPUT_SIZE))
        self.active = np.empty((steps, rows, HIDDEN_SIZE))
        self.dz = np.empty((steps, rows, HIDDEN_SIZE))
        self.dh = np.empty((rows, HIDDEN_SIZE))
        self.dh_rec = np.empty((rows, INPUT_SIZE + HIDDEN_SIZE))
        self.per_step = np.empty((steps, INPUT_SIZE + HIDDEN_SIZE, HIDDEN_SIZE))
        self.dz_sum = np.empty((steps, HIDDEN_SIZE))
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

    __slots__ = ("shot_inputs", "shot_z", "z", "logits", "events", "h0",
                 "forward_steps", "last", "last_t", "logit0", "logit1", "column",
                 "log_picked", "one_hot", "rows", "active", "dz", "backward_steps", "dh",
                 "dh_rec", "dh_rec_hidden", "inputs_reversed", "dz_sum", "per_step",
                 "grads")

    def __init__(self, work: Workspace, n: int):
        steps = work.z.shape[0]
        inputs, z, logits = work.inputs[:, :n], work.z[:, :n], work.logits[:n]
        # (n, T+1, 20) and (n, T, 16), as `forward_batch` returns them
        self.shot_inputs, self.shot_z = inputs.transpose(1, 0, 2), z.transpose(1, 0, 2)
        self.z, self.logits = z, logits
        self.events = inputs[:steps, :, :INPUT_SIZE].transpose(1, 0, 2)
        self.h0 = inputs[0, :, INPUT_SIZE:]
        self.forward_steps = tuple((inputs[t], z[t], inputs[t + 1, :, INPUT_SIZE:])
                                   for t in range(steps))
        self.last = inputs[steps, :, INPUT_SIZE:]
        self.last_t = self.last.T
        self.logit0, self.logit1 = logits[:, :1], logits[:, 1:]
        self.column = work.column[:n]
        self.log_picked = work.log_picked[:n]
        self.one_hot = work.one_hot[:n]
        self.rows = work.rows[:n]
        self.active = work.active[:, :n]
        # dz of step t is stored at dz[steps-1-t], so the sums over steps
        # in `loss_and_grads` add the latest step first, in the order BPTT
        # reaches them
        self.dz = work.dz[:, :n]
        self.backward_steps = tuple((self.dz[steps - 1 - t], self.active[t])
                                    for t in range(steps - 1, -1, -1))
        self.dh, self.dh_rec = work.dh[:n], work.dh_rec[:n]
        self.dh_rec_hidden = self.dh_rec[:, INPUT_SIZE:]
        self.inputs_reversed = inputs[steps - 1::-1].transpose(0, 2, 1)
        self.dz_sum, self.per_step, self.grads = work.dz_sum, work.per_step, work.grads


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
    v.h0[...] = 0.0  # h_0; a DAC may have rewritten it in place
    w_rec, b_rec = params.w_rec, params.b_rec
    for inp, zt, h_next in v.forward_steps:
        if dac is not None:
            dac(inp)
        np.dot(inp, w_rec, out=zt)
        zt += b_rec
        if adc is not None:
            adc(zt)
        np.maximum(zt, 0.0, out=h_next)
    last, logits = v.last, v.logits
    if dac is not None:
        dac(last)
    np.matmul(last, params.w_eval, out=logits)
    logits += params.b_eval
    if adc is not None:
        adc(logits)
    return v.shot_z, v.shot_inputs, logits


def predict_batch(params: DecoderParams, events: np.ndarray) -> np.ndarray:
    _, _, logits = forward_batch(params, events)
    return logits_to_bits(logits)


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
    container, `work.grads` when a workspace is given.
    """
    x = _check_events(events)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, steps, _ = x.shape
    if n == 0:
        raise ValueError("batch must be non-empty")
    if y.shape[0] != n:
        raise ValueError(f"{n} samples but {y.shape[0]} labels")
    v = _batch_views(work, n, steps)
    _forward(params, x, io, v)
    dlogits = v.logits

    # two-class softmax in place, column by column: the max of two entries
    # is exact and a two-term add.reduce is a + b, so these are the bits of
    # `max(axis=1)` and `sum(axis=1)`
    np.maximum(v.logit0, v.logit1, out=v.column)
    dlogits -= v.column
    np.exp(dlogits, out=dlogits)
    np.add(v.logit0, v.logit1, out=v.column)
    dlogits /= v.column
    np.add(dlogits[v.rows, y], 1e-300, out=v.log_picked)
    loss = -float(np.log(v.log_picked, out=v.log_picked).sum()) / n
    # minus the one-hot label rows: the label column becomes p - 1.0, the
    # other q - 0.0 = q
    dlogits -= _ONE_HOT.take(y, axis=0, out=v.one_hot)
    dlogits /= n

    grads = v.grads
    np.matmul(v.last_t, dlogits, out=grads.w_eval)
    np.add.reduce(dlogits, axis=0, out=grads.b_eval)
    np.dot(dlogits, params.w_eval.T, out=v.dh)

    np.greater(v.z, 0.0, out=v.active)
    w_rec_t = params.w_rec.T
    dh = v.dh
    for dz_t, active_t in v.backward_steps[:-1]:
        np.multiply(dh, active_t, out=dz_t)
        np.dot(dz_t, w_rec_t, out=v.dh_rec)
        dh = v.dh_rec_hidden
    dz_0, active_0 = v.backward_steps[-1]
    np.multiply(dh, active_0, out=dz_0)
    np.matmul(v.inputs_reversed, v.dz, out=v.per_step)
    np.add.reduce(v.per_step, axis=0, out=grads.w_rec, initial=0.0)
    np.add.reduce(np.add.reduce(v.dz, axis=1, out=v.dz_sum), axis=0,
                  out=grads.b_rec, initial=0.0)
    return loss, grads


class AdamState:
    """Adam's step count and moment estimates. Both moments are rows of one
    (2, 370) buffer `moments`, so one elementwise op updates the pair; `m`
    and `v` are `DecoderParams` views of rows 0 and 1. Pickle and deepcopy
    copy the buffer and rebuild the views into the copy."""

    __slots__ = ("moments", "m", "v", "step", "_coefs", "_beta", "_one_minus_beta",
                 "_correction", "_scratch", "_update", "_denominator", "_finite")

    def __init__(self, moments: np.ndarray | None = None, step: int = 0):
        self.moments = np.zeros((2, N_PARAMS)) if moments is None else moments
        self.m = DecoderParams.from_flat(self.moments[0])
        self.v = DecoderParams.from_flat(self.moments[1])
        self.step = step
        # (2, 1) columns, one entry per moment: beta, 1 - beta and the bias
        # correction 1 - beta^t
        self._coefs = np.empty(6)
        self._beta, self._one_minus_beta, self._correction = (
            self._coefs[i:i + 2, None] for i in (0, 2, 4))
        self._scratch = np.empty((2, N_PARAMS))
        self._update, self._denominator = self._scratch[0], self._scratch[1]
        self._finite = np.empty(N_PARAMS, dtype=bool)

    def __reduce__(self):
        return AdamState, (self.moments, self.step)


def accuracy(params: DecoderParams, dataset: Dataset | tuple[np.ndarray, np.ndarray],
             ) -> float:
    """Fraction of samples whose prediction equals the label; each distinct
    syndrome is decoded once."""
    rows, counts = syndrome_table(*_as_arrays(dataset))
    return table_accuracy(lambda r: predict_batch(params, r), rows, counts)


def _as_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(dataset, Dataset):
        return dataset.events, dataset.labels
    events, labels = dataset
    return np.asarray(events), np.asarray(labels).reshape(-1)


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
    if not np.isfinite(g, out=state._finite).all():
        raise NumericError("non-finite gradient in adam_step")
    state.step += 1
    t = state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    coefs = state._coefs
    coefs[0], coefs[1], coefs[2], coefs[3] = b1, b2, 1 - b1, 1 - b2
    coefs[4], coefs[5] = 1 - b1 ** t, 1 - b2 ** t
    moments, tmp = state.moments, state._scratch
    update, denominator = state._update, state._denominator
    moments *= state._beta
    np.multiply(state._one_minus_beta, g, out=tmp)
    denominator *= g
    moments += tmp
    np.divide(moments, state._correction, out=tmp)
    np.sqrt(denominator, out=denominator)
    denominator += config.adam_eps
    update *= config.learning_rate
    update /= denominator
    params.flat -= update


def _train(params: DecoderParams, dataset: Dataset, val: Dataset, config: TrainConfig,
           shuffle_rng: np.random.Generator, epoch_update, val_draws) -> DecoderParams:
    """The epoch loop of FP training and retraining. It trains `params` in
    place for `config.epochs` epochs, each one `shuffle_rng.permutation` then
    `update = epoch_update(epoch, batches)` run per batch as `update(batch,
    events, labels, work, state)` (one step of this call's `AdamState`), and
    returns a copy of them after the earliest epoch of best score: the mean
    accuracy, on the validation syndrome table, of the (parameters,
    converters) pairs `val_draws(epoch)` yields."""
    events, labels = _as_arrays(dataset)
    val_events, val_labels = _as_arrays(val)
    if events.shape[0] == 0 or val_events.shape[0] == 0:
        raise ValueError("datasets must be non-empty")
    if events.shape[1] != val_events.shape[1]:
        raise ValueError("train and validation datasets disagree on rounds")
    rows, counts = syndrome_table(val_events, val_labels)
    val_work = Workspace(len(table_batch(rows, counts)), rows.shape[1])
    n, size = events.shape[0], config.batch_size
    work = Workspace(min(size, n), events.shape[1])
    state = AdamState()
    best_acc, best = -1.0, None
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        update = epoch_update(epoch, -(-n // size))
        for batch, start in enumerate(range(0, n, size)):
            idx = order[start:start + size]
            update(batch, events[idx], labels[idx], work, state)
        accs = [table_accuracy(lambda r: logits_to_bits(forward_batch(p, r, io, val_work)[2]),
                               rows, counts) for p, io in val_draws(epoch)]
        acc = sum(accs) / len(accs)
        if acc > best_acc:
            best_acc, best = acc, params.copy()
    return best


def train_fp(dataset: Dataset, val: Dataset, config: TrainConfig) -> DecoderParams:
    """Shuffled mini-batch Adam training from `DecoderParams.initial`;
    returns the parameters of the epoch with the best validation accuracy
    (earliest epoch on ties)."""
    params = DecoderParams.initial(config.seed)

    def update(batch, events, labels, work, state):
        _, grads = loss_and_grads(params, events, labels, None, work)
        adam_step(params, grads, state, config)

    return _train(params, dataset, val, config, spawn_generator(config.seed, 1),
                  lambda epoch, batches: update, lambda epoch: [(params, None)])
