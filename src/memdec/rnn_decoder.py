"""Digital floating-point RNN decoder: a 16-unit fully connected recurrent
layer fed 4 syndrome bits per round, followed by a 2-class evaluation layer.

Forward, exact BPTT gradients, Adam, and mini-batch cross-entropy training
are implemented directly on numpy arrays; no autodiff framework. Meta choices
follow the decoder's training recipe: ReLU activation, softmax cross-entropy,
Adam at learning rate 1e-3 with batch size 32.

This is the one implementation of the network; hardware-aware retraining
reuses it. `forward_batch` and `loss_and_grads` take an optional converter
pair `io = (dac, adc)`: `dac` is applied to each layer's input and `adc` to
each layer's output (the bias is added digitally, before the ADC). The
backward pass treats both as identity (a straight-through estimator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError
from .rng import spawn_generator
from .surface_code_sim import Dataset, syndrome_table, table_accuracy

INPUT_SIZE = 4
HIDDEN_SIZE = 16
OUTPUT_SIZE = 2

# (dac, adc): elementwise converters on each layer's input and output
Converters = tuple[Callable[[np.ndarray], np.ndarray],
                   Callable[[np.ndarray], np.ndarray]]


@dataclass
class DecoderParams:
    """Weights and biases; w_rec acts on [syndrome (4) | hidden (16)]."""

    w_rec: np.ndarray   # (20, 16)
    b_rec: np.ndarray   # (16,)
    w_eval: np.ndarray  # (16, 2)
    b_eval: np.ndarray  # (2,)

    def __post_init__(self):
        expected = {
            "w_rec": (INPUT_SIZE + HIDDEN_SIZE, HIDDEN_SIZE),
            "b_rec": (HIDDEN_SIZE,),
            "w_eval": (HIDDEN_SIZE, OUTPUT_SIZE),
            "b_eval": (OUTPUT_SIZE,),
        }
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.w_rec, self.b_rec, self.w_eval, self.b_eval

    def copy(self) -> "DecoderParams":
        return DecoderParams(*(t.copy() for t in self.tensors()))

    @staticmethod
    def zeros() -> "DecoderParams":
        return DecoderParams(
            np.zeros((INPUT_SIZE + HIDDEN_SIZE, HIDDEN_SIZE)),
            np.zeros(HIDDEN_SIZE),
            np.zeros((HIDDEN_SIZE, OUTPUT_SIZE)),
            np.zeros(OUTPUT_SIZE),
        )

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


@dataclass
class ForwardTrace:
    pre_activations: np.ndarray  # (T, 16)
    hidden: np.ndarray           # (T+1, 16), row 0 is h_0 = 0
    logits: np.ndarray           # (2,)


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _check_events(events: np.ndarray) -> np.ndarray:
    arr = np.asarray(events, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[2] != INPUT_SIZE:
        raise ValueError(f"events must be (n, rounds+1, 4), got {np.shape(events)}")
    return arr


def forward_batch(params: DecoderParams, events: np.ndarray,
                  io: Converters | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised forward; returns (z (n,T,16), inputs (n,T+1,20), logits (n,2)).

    `z` holds the recurrent layer's outputs (after the ADC under `io`).
    `inputs[:, t]` is the recurrent layer's input [x_t | h_t] at step t and
    `inputs[:, T, 4:]` the evaluation layer's input h_T, each as the layer
    received it (after the DAC under `io`); `inputs[:, T, :4]` is zero.
    """
    x = _check_events(events)
    n, steps, _ = x.shape
    dac, adc = io if io is not None else (_identity, _identity)
    z = np.zeros((n, steps, HIDDEN_SIZE))
    inputs = np.zeros((n, steps + 1, INPUT_SIZE + HIDDEN_SIZE))
    h = np.zeros((n, HIDDEN_SIZE))
    for t in range(steps):
        inp = dac(np.concatenate([x[:, t], h], axis=1))
        inputs[:, t] = inp
        z[:, t] = adc(inp @ params.w_rec + params.b_rec)
        h = np.maximum(z[:, t], 0.0)
    last = dac(h)
    inputs[:, steps, INPUT_SIZE:] = last
    logits = adc(last @ params.w_eval + params.b_eval)
    return z, inputs, logits


def _identity(v: np.ndarray) -> np.ndarray:
    return v


def forward(params: DecoderParams, sample_events: np.ndarray) -> ForwardTrace:
    z, inputs, logits = forward_batch(params, sample_events)
    return ForwardTrace(z[0], inputs[0, :, INPUT_SIZE:], logits[0])


def predict(params: DecoderParams, sample_events: np.ndarray) -> int:
    """Argmax over the two logits; ties resolve to 0 (no recovery)."""
    return int(predict_batch(params, sample_events)[0])


def predict_batch(params: DecoderParams, events: np.ndarray) -> np.ndarray:
    _, _, logits = forward_batch(params, events)
    return logits_to_bits(logits)


def logits_to_bits(logits: np.ndarray) -> np.ndarray:
    return (logits[:, 1] > logits[:, 0]).astype(np.uint8)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(params: DecoderParams, events: np.ndarray, labels: np.ndarray,
                   io: Converters | None = None) -> tuple[float, DecoderParams]:
    """Mean softmax cross-entropy and exact BPTT gradients.

    ReLU uses subgradient 0 at z=0; the converters in `io` pass gradients
    straight through. Gradients come back in a DecoderParams-shaped
    container.
    """
    x = _check_events(events)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = x.shape[0]
    if n == 0:
        raise ValueError("batch must be non-empty")
    if y.shape[0] != n:
        raise ValueError(f"{n} samples but {y.shape[0]} labels")

    z, inputs, logits = forward_batch(params, x, io)
    dlogits = _softmax(logits)
    loss = float(-np.log(dlogits[np.arange(n), y] + 1e-300).mean())
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    g_w_eval = inputs[:, -1, INPUT_SIZE:].T @ dlogits
    g_b_eval = dlogits.sum(axis=0)
    dh = dlogits @ params.w_eval.T

    g_w_rec = np.zeros_like(params.w_rec)
    g_b_rec = np.zeros_like(params.b_rec)
    for t in range(x.shape[1] - 1, -1, -1):
        dz = dh * (z[:, t] > 0.0)
        g_w_rec += inputs[:, t].T @ dz
        g_b_rec += dz.sum(axis=0)
        dh = (dz @ params.w_rec.T)[:, INPUT_SIZE:]

    return loss, DecoderParams(g_w_rec, g_b_rec, g_w_eval, g_b_eval)


@dataclass
class AdamState:
    m: DecoderParams = field(default_factory=DecoderParams.zeros)
    v: DecoderParams = field(default_factory=DecoderParams.zeros)
    step: int = 0


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

    Raises NumericError, leaving both untouched, on a non-finite gradient.
    """
    for g in grads.tensors():
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient in adam_step")
    state.step += 1
    t = state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    for p, g, m, v in zip(params.tensors(), grads.tensors(),
                          state.m.tensors(), state.v.tensors()):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)


def train_fp(dataset: Dataset, val: Dataset, config: TrainConfig) -> DecoderParams:
    """Shuffled mini-batch Adam training; returns the parameters of the epoch
    with the best validation accuracy (earliest epoch on ties)."""
    events, labels = _as_arrays(dataset)
    val_events, val_labels = _as_arrays(val)
    if events.shape[0] == 0 or val_events.shape[0] == 0:
        raise ValueError("datasets must be non-empty")
    if events.shape[1] != val_events.shape[1]:
        raise ValueError("train and validation datasets disagree on rounds")

    params = DecoderParams.initial(config.seed)
    state = AdamState()
    shuffle_rng = spawn_generator(config.seed, 1)
    best_params = params.copy()
    best_acc = -1.0

    n = events.shape[0]
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            _, grads = loss_and_grads(params, events[idx], labels[idx])
            adam_step(params, grads, state, config)
        val_acc = accuracy(params, (val_events, val_labels))
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
    return best_params
