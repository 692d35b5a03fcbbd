"""Distance-3 rotated surface code memory-X experiment under circuit-level
Pauli noise, sampled from a precomputed table of single-fault signatures.

Layout (surface-17), the one place the geometry and gate schedule live
--------------------------------------------------------------------
Data qubits 0..8 sit on a 3x3 grid at doubled coordinates (2*row, 2*col):

        0   1   2
        3   4   5
        6   7   8

Ancillas 9..16 sit on plaquette centres / boundary half-plaquettes:

    X ancillas (measure X stabilizers)      Z ancillas
      9  at (-1, 1): {0, 1}                  13 at (1, 1): {0, 1, 3, 4}
      10 at ( 1, 3): {1, 2, 4, 5}            14 at (1, 5): {2, 5}
      11 at ( 3, 1): {3, 4, 6, 7}            15 at (3,-1): {3, 6}
      12 at ( 5, 3): {7, 8}                  16 at (3, 3): {4, 5, 7, 8}

Logical X is a vertical chain on the left column {0, 3, 6}; logical Z a
horizontal chain on the top row {0, 1, 2}.

Each parity-check round runs four CNOT layers. Every ancilla visits its
diagonal data neighbours in a fixed direction order (X type: NE, NW, SE, SW;
Z type: NE, SE, NW, SW — the standard interleaved pair that keeps hook
errors benign). X ancillas act as CNOT controls between Hadamards; Z
ancillas are CNOT targets. The resulting layers are conflict-free, which
the builder asserts.

Noise model (one channel per tagged instruction):
  * two-qubit depolarization (prob p) after every CNOT,
  * single-qubit depolarization (prob p) after every Hadamard,
  * single-qubit depolarization (prob p) on each data qubit at round start,
  * preparation flip (prob 2p/3): X after ResetZ, Z after ResetX,
  * classical outcome flip (prob 2p/3) on every measurement.

Simulation keeps an X/Z error frame over the 17 qubits relative to the
noiseless reference execution, whose measurement record is all-zero for the
memory-X experiment; `_simulate_fault` is that Pauli-frame simulator. Frame
propagation through Clifford gates, resets and measurements is linear over
GF(2), so the record of a shot is the XOR of the records each of its fired
faults makes alone, and so are its detection events and label, since
`_events_batch`, the one rule that differences a record into events and a
label, is linear over GF(2) too. The sampler therefore reads a fault table
of event signatures: the events and label of each (noise location, Pauli)
alone, built once per circuit structure from `_simulate_fault` runs and
`_events_batch` (they do not depend on p, so one table serves every fault
rate). A shot costs one draw per location plus an XOR of the fired
locations' signatures; this is the detector-error-model idea behind Stim
(Gidney 2021, arXiv:2103.02202). `enumerate_single_faults` runs
`_events_batch` on the record each single fault makes alone under
`_simulate_fault`, without the table.

Everything about sampling a circuit that does not depend on the shot (the
live locations, their probabilities, fire bounds, hash-state terms and
signatures) is a draw plan. `generate_dataset` takes the plan of its
memory-X circuit from `_memory_x_plan`, so a plan is built once per
(rounds, p) per process and shared, read-only, by every later call.
`_sample_chunk` samples a range of shots from a plan, tile by tile; one shot
is a range of one. It tests every draw against one weaker bound before the
hash is finished, then finishes the hash of the few candidates and tests
them exactly; `_sample_chunk`'s docstring shows why no draw that fires can
fail the first test, so the draws, and the bytes, are those of the draw
contract below.

Threads: `generate_dataset` is the only function that starts any. It looks
up its plans in the calling thread, so no helper thread builds one, and
samples its chunks on every CPU the process may run on: the calling thread
and one helper thread per further CPU each run an interleaved share of the
chunks, and the call joins every helper before it returns or raises. numpy
releases the interpreter lock in the sampler's array passes, so the shares
run at once. Each chunk writes only its own rows of the output, and its
draws depend only on (key, shot), so the bytes are the same for any chunk
size, CPU count or scheduling.

Draw contract: noise location i of shot s consumes exactly one
counter-based uniform u = counter_uniforms(key, s * n_locations + i) (see
`memdec.rng`). The location fires iff u < prob, and a depolarizing channel
then applies Pauli min(u/prob * k, k-1) of its k = 3 (X, Y, Z) or k = 15
(two-qubit pairs 1..15). Samples are therefore independent of batching and
of which shots are drawn together.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .rng import _MASK, GOLDEN, Stage, _mix64_head, derive_seed, draw_limit

QUBIT_COUNT = 17
DATA_QUBITS = tuple(range(9))
X_ANCILLAS = (9, 10, 11, 12)
Z_ANCILLAS = (13, 14, 15, 16)
ANCILLAS = X_ANCILLAS + Z_ANCILLAS

X_STABILIZERS = ((0, 1), (1, 2, 4, 5), (3, 4, 6, 7), (7, 8))
Z_STABILIZERS = ((0, 1, 3, 4), (2, 5), (3, 6), (4, 5, 7, 8))
X_LOGICAL = (0, 3, 6)
Z_LOGICAL = (0, 1, 2)

_DATA_COORD = {i: (2 * (i // 3), 2 * (i % 3)) for i in DATA_QUBITS}
_X_ANCILLA_COORD = {9: (-1, 1), 10: (1, 3), 11: (3, 1), 12: (5, 3)}
_Z_ANCILLA_COORD = {13: (1, 1), 14: (1, 5), 15: (3, -1), 16: (3, 3)}

# direction order per ancilla type; N = -row, E = +col
_X_ORDER = ((-1, 1), (-1, -1), (1, 1), (1, -1))   # NE, NW, SE, SW
_Z_ORDER = ((-1, 1), (1, 1), (-1, -1), (1, -1))   # NE, SE, NW, SW


def _cnot_layers() -> tuple[tuple[tuple[int, int], ...], ...]:
    coord_to_data = {v: k for k, v in _DATA_COORD.items()}
    layers = []
    for step in range(4):
        layer = []
        for anc, (r, c) in _X_ANCILLA_COORD.items():
            dr, dc = _X_ORDER[step]
            data = coord_to_data.get((r + dr, c + dc))
            if data is not None:
                layer.append((anc, data))          # ancilla controls
        for anc, (r, c) in _Z_ANCILLA_COORD.items():
            dr, dc = _Z_ORDER[step]
            data = coord_to_data.get((r + dr, c + dc))
            if data is not None:
                layer.append((data, anc))          # ancilla is target
        used = [q for pair in layer for q in pair]
        assert len(used) == len(set(used)), f"CNOT conflict in layer {step}"
        layers.append(tuple(layer))
    return tuple(layers)


CNOT_LAYERS = _cnot_layers()


class Gate(Enum):
    RESET_Z = "RZ"
    RESET_X = "RX"
    H = "H"
    CNOT = "CNOT"
    MEASURE_Z = "MZ"
    MEASURE_X = "MX"
    IDLE = "I"


class NoiseKind(Enum):
    DEPOL1 = "depolarize1"
    DEPOL2 = "depolarize2"
    PREP_FLIP = "flip_prep"
    MEAS_FLIP = "flip_meas"


@dataclass(frozen=True)
class Noise:
    kind: NoiseKind
    prob: float


@dataclass(frozen=True)
class Instruction:
    gate: Gate
    qubits: tuple[int, ...]
    noise: Noise | None = None


@dataclass(frozen=True)
class NoiseParams:
    """Physical fault rate p of the circuit-level noise model."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault rate must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class CircuitSpec:
    qubit_count: int
    rounds: int
    instructions: tuple[Instruction, ...]


_SPLIT_TAGS = ("train", "validation", "test")   # a dataset's split_tag values


@dataclass
class Dataset:
    events: np.ndarray        # (n, rounds+1, 4) uint8
    labels: np.ndarray        # (n,) uint8
    p_index: np.ndarray       # (n,) uint16, index into p_values
    p_values: tuple[float, ...]
    rounds: int
    seed: int
    split_tag: str = "train"

    def __len__(self) -> int:
        return self.events.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.events[idx], self.labels[idx], self.p_index[idx],
                       self.p_values, self.rounds, self.seed, self.split_tag)


def syndrome_table(events: np.ndarray, labels: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a labelled set to its distinct event rows.

    Returns (rows, counts): `rows` (u, ...) holds each distinct row of
    `events` once, in byte order; `counts` (u, 2) int64 holds how many shots
    with that row carry label 0 and label 1. Rows are keyed on their raw
    bytes, so any dtype works. Byte order compares rows step by step, so
    rows that share a prefix of steps sit next to each other, which
    `analog_model.AnalogPlan` exploits.

    The key of a row is the narrowest unsigned integer that holds it when
    every byte of the rows is 0 or 1 and a row has at most 64 bytes, as for
    0/1 event bits of uint8 or bool: row byte i is bit i of the key counted
    from the most significant end, so two keys compare as their rows' bytes
    do. Any other rows are keyed on a `np.void` view of their bytes.
    """
    events = np.ascontiguousarray(events)
    labels = np.asarray(labels).reshape(-1)
    n = events.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"{n} samples but {labels.shape[0]} labels")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    raw = events.reshape(n, int(np.prod(events.shape[1:]))).view(np.uint8)
    row_bytes = raw.shape[1]
    if row_bytes <= 64 and raw.max(initial=0) <= 1:
        keys = _bit_keys(raw)
    else:
        keys = raw.view(np.dtype((np.void, row_bytes))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    u = len(first)
    counts = np.bincount(inverse * 2 + labels.astype(np.int64),
                         minlength=2 * u).reshape(u, 2)
    return events[first], counts


def _bit_keys(raw: np.ndarray) -> np.ndarray:
    """One big-endian unsigned integer per row of the (n, w) uint8 array
    `raw` of 0/1 bytes, w <= 64, in the narrowest of 8, 16, 32 and 64 bits
    that holds w: byte i of a row is bit i of its key from the most
    significant end. Keys of up to 16 bits radix-sort in `np.unique`."""
    n, w = raw.shape
    width = 1 << (-(-w // 8) - 1).bit_length()      # bytes per key
    padded = np.zeros((n, 8 * width), np.uint8)
    padded[:, :w] = raw
    return np.packbits(padded.reshape(-1)).view(f">u{width}")


def table_batch(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The event rows `table_accuracy` decodes for a syndrome table: `rows`
    itself, or its one row twice when that row stands for several shots.

    A batch of one row takes a different BLAS path (gemv) whose bits can
    differ from a row of a larger product, so a single row that stands for
    several shots is decoded twice and counted once; a single shot is one
    row on the per-shot path too.
    """
    total = int(counts.sum())
    if total == 0:
        raise ValueError("syndrome table must be non-empty")
    if len(rows) == 1 and total > 1:
        return np.concatenate([rows, rows])
    return rows


def table_accuracy(predict, rows: np.ndarray, counts: np.ndarray) -> float:
    """Fraction of the shots a syndrome table stands for that `predict`
    (rows -> bits) classifies correctly; equal to the per-shot
    `(predict(events) == labels).mean()`. `predict` receives
    `table_batch(rows, counts)`.
    """
    pred = predict(table_batch(rows, counts))[:len(rows)]
    return float(np.where(pred, counts[:, 1], counts[:, 0]).sum() / int(counts.sum()))


def build_memory_x_circuit(rounds: int, noise: NoiseParams) -> CircuitSpec:
    """Memory-X experiment: prepare data |+>, run `rounds` noisy parity-check
    rounds, then measure data in X. See the module docstring for the layout
    and schedule; noise channels follow the circuit-level model exactly."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    p = noise.p
    flip = 2.0 * p / 3.0
    ins: list[Instruction] = []

    for q in DATA_QUBITS:
        ins.append(Instruction(Gate.RESET_X, (q,), Noise(NoiseKind.PREP_FLIP, flip)))
    for q in ANCILLAS:
        ins.append(Instruction(Gate.RESET_Z, (q,), Noise(NoiseKind.PREP_FLIP, flip)))

    for r in range(rounds):
        for q in DATA_QUBITS:
            ins.append(Instruction(Gate.IDLE, (q,), Noise(NoiseKind.DEPOL1, p)))
        for q in X_ANCILLAS:
            ins.append(Instruction(Gate.H, (q,), Noise(NoiseKind.DEPOL1, p)))
        for layer in CNOT_LAYERS:
            for ctrl, tgt in layer:
                ins.append(Instruction(Gate.CNOT, (ctrl, tgt), Noise(NoiseKind.DEPOL2, p)))
        for q in X_ANCILLAS:
            ins.append(Instruction(Gate.H, (q,), Noise(NoiseKind.DEPOL1, p)))
        for q in ANCILLAS:
            ins.append(Instruction(Gate.MEASURE_Z, (q,), Noise(NoiseKind.MEAS_FLIP, flip)))
        reset_noise = Noise(NoiseKind.PREP_FLIP, flip) if r < rounds - 1 else None
        for q in ANCILLAS:
            ins.append(Instruction(Gate.RESET_Z, (q,), reset_noise))

    for q in DATA_QUBITS:
        ins.append(Instruction(Gate.MEASURE_X, (q,), Noise(NoiseKind.MEAS_FLIP, flip)))

    return CircuitSpec(QUBIT_COUNT, rounds, tuple(ins))


# ---------------------------------------------------------------------------
# Pauli-frame simulation
# ---------------------------------------------------------------------------

# Draws are hashed in tiles of this many uint64 states (384 KiB; the tile's
# buffers stay in a 4 MiB L2). On a 2-vCPU Xeon the 100k-shot grid took
# 1.37 s at this size, 1.6 s at 96 KiB (more numpy calls) and 2.2 s with
# 4096-row tiles of 6 MB, which fall out of cache.
_TILE_WORDS = 49152


@dataclass(frozen=True)
class _FaultTable:
    """Event signature of every single fault a circuit structure allows.

    `signatures[loc, j]` holds the detection events (row-major
    (rounds+1, 4)) and then the label that the j-th Pauli of noise location
    `loc` makes alone, packed little-endian into 64-bit words: j = 0..2 is
    X, Y, Z for depolarize1, j = 0..14 the pairs 1..15 for depolarize2, and
    j = 0 the flip of a prep or measurement flip. `paulis[loc]` is how many
    there are (3, 15 or 1).
    """

    signatures: np.ndarray    # (locations, 15, words) uint64
    paulis: np.ndarray        # (locations,) float64
    bits: int                 # signature bits: events, then the label


# (x, z) components of the single-qubit Paulis I, X, Y, Z
_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))
# Per noise kind: the faults whose records span those of all its faults (the
# X and the Z component on each qubit it acts on), and the components, over
# that basis, of each fault it draws in `_FaultTable` order. Frame propagation
# is linear over GF(2), so a fault's record is the XOR of its components'.
_FAULT_BASIS = {
    NoiseKind.DEPOL1: ((0, 2), np.array(_XZ[1:], dtype=np.uint8)),
    NoiseKind.DEPOL2: ((4, 12, 1, 3), np.array([_XZ[p >> 2] + _XZ[p & 3]
                                                 for p in range(1, 16)], dtype=np.uint8)),
    NoiseKind.PREP_FLIP: ((0,), np.ones((1, 1), dtype=np.uint8)),
    NoiseKind.MEAS_FLIP: ((0,), np.ones((1, 1), dtype=np.uint8)),
}


def _structure(circuit: CircuitSpec) -> tuple:
    """What the fault table depends on: gates, qubits and noise kinds, not
    the probabilities."""
    return (circuit.qubit_count, circuit.rounds,
            tuple((ins.gate, ins.qubits, ins.noise and ins.noise.kind)
                  for ins in circuit.instructions))


@functools.lru_cache(maxsize=16)
def _fault_table(structure: tuple) -> _FaultTable:
    """Fault table of a circuit structure (see `_structure`), built once and
    shared by every fault rate: each fault's record by XOR of its
    components' `_simulate_fault` records, then its events and label by
    `_events_batch`."""
    qubit_count, rounds, ops = structure
    circuit = CircuitSpec(qubit_count, rounds,
                          tuple(Instruction(gate, qubits) for gate, qubits, _ in ops))
    bits = sum(1 for gate, _, _ in ops if gate in (Gate.MEASURE_Z, Gate.MEASURE_X))
    expected = rounds * len(ANCILLAS) + len(DATA_QUBITS)
    if bits != expected:
        raise ValueError(f"measurement record has {bits} bits, expected {expected}")
    locations = [(i, qubits, kind) for i, (_, qubits, kind) in enumerate(ops)
                 if kind is not None]
    records = np.zeros((len(locations), 15, bits), dtype=np.uint8)
    paulis = np.zeros(len(locations))
    for loc, (i, qubits, kind) in enumerate(locations):
        basis, components = _FAULT_BASIS[kind]
        spans = np.array([np.concatenate([anc.reshape(-1), data]) for anc, data in (
            _simulate_fault(circuit, (FaultLocation(i, kind, qubits, pauli),))
            for pauli in basis)])
        paulis[loc] = len(components)
        records[loc, :len(components)] = (components @ spans) & 1
    flat = records.reshape(-1, bits)
    events, labels = _events_batch(flat[:, :rounds * 8].reshape(-1, rounds, 8),
                                   flat[:, rounds * 8:])
    n_events = events.shape[1] * events.shape[2]
    sig_bits = np.zeros((len(locations), 15, 64 * -(-(n_events + 1) // 64)), dtype=np.uint8)
    sig_bits[..., :n_events] = events.reshape(len(locations), 15, n_events)
    sig_bits[..., n_events] = labels.reshape(len(locations), 15)
    signatures = np.packbits(sig_bits, axis=2, bitorder="little").view("<u8")
    signatures.flags.writeable = False
    paulis.flags.writeable = False
    return _FaultTable(signatures, paulis, n_events + 1)


@dataclass(frozen=True)
class _DrawPlan:
    """Everything about sampling one circuit that does not depend on the
    shot, restricted to its live (prob > 0) noise locations.

    Draw (shot, live[j]) hashes the state key + shot*row_step + col[j] (mod
    2^64). The draw fires iff its full hash h <= bound[j]; `candidate` is
    the weaker bound that every draw is tested against before the hash is
    finished (see `_sample_chunk`).
    """

    rounds: int
    live: np.ndarray          # (n_live,) indices into the noise locations
    prob: np.ndarray          # (n_live,) float64
    paulis: np.ndarray        # (n_live,) float64, `_FaultTable.paulis`
    signatures: np.ndarray    # (n_live, 15, words) uint64, `_FaultTable.signatures`
    bits: int                 # signature bits, `_FaultTable.bits`
    bound: np.ndarray         # (n_live,) uint64
    candidate: np.uint64      # 2^B - 1, see `_sample_chunk`
    col: np.ndarray           # (n_live,) uint64
    row_step: int             # n_locations * GOLDEN mod 2^64
    tile: int                 # shots per tile


def _draw_plan(circuit: CircuitSpec) -> _DrawPlan:
    table = _fault_table(_structure(circuit))
    prob = np.array([ins.noise.prob for ins in circuit.instructions
                     if ins.noise is not None])
    live = np.flatnonzero(prob > 0.0)
    # The fire test skips mix53's final `>> 11`: for the 64-bit hash h and
    # draw m = h >> 11, m < limit iff h < limit * 2^11 iff
    # h <= (limit << 11) - 1, where the wrap-around of uint64 turns prob = 1
    # (limit = 2^53) into 2^64 - 1, above every hash. A live location has
    # limit >= 1, so the subtraction wraps only there.
    with np.errstate(over="ignore"):
        bound = (draw_limit(prob[live]) << np.uint64(11)) - np.uint64(1)
        col = (live.astype(np.uint64) + np.uint64(1)) * GOLDEN
    top = max(int(bound.max(initial=0)).bit_length(), 33)
    plan = _DrawPlan(
        rounds=circuit.rounds, live=live, prob=prob[live], paulis=table.paulis[live],
        signatures=table.signatures[live], bits=table.bits, bound=bound,
        candidate=np.uint64((1 << top) - 1), col=col,
        row_step=prob.shape[0] * int(GOLDEN) & _MASK,
        tile=max(1, _TILE_WORDS // max(live.shape[0], 1)))
    # a cached plan is shared by every call that samples its (rounds, p)
    for array in (plan.live, plan.prob, plan.paulis, plan.signatures, plan.bound, plan.col):
        array.flags.writeable = False
    return plan


# Draw plans kept per process: the paper's 8-point p grid at up to four
# round counts. A 3-round plan holds about 30 KB of arrays.
_PLAN_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE, typed=True)
def _memory_x_plan(rounds: int, p: float) -> _DrawPlan:
    """Draw plan of the memory-X circuit at (rounds, p), built once per
    process: building the circuit and its plan takes about 0.7 ms at 3
    rounds, which every call at that (rounds, p) would pay again. Keys are
    typed: p = 0.5 and np.float32(0.5) compare and hash equal, but the
    second circuit's flip probability is a float32."""
    return _draw_plan(build_memory_x_circuit(rounds, NoiseParams(p)))


class _TileBuffers:
    """One sampling worker's tile buffers: hashes, shift scratch, candidate
    mask, and the tile's state offsets with the plan they were filled for
    (`offsets[r*n_live + j]` = r*row_step + col[j])."""

    __slots__ = ("states", "scratch", "mask", "offsets", "plan")

    def __init__(self, words: int = _TILE_WORDS):
        self.states = np.empty(words, np.uint64)
        self.scratch = np.empty(words, np.uint64)
        self.mask = np.empty(words, bool)
        self.offsets = np.empty(words, np.uint64)
        self.plan: _DrawPlan | None = None


def _sample_chunk(plan: _DrawPlan, key: int, start: int, stop: int,
                  buffers: _TileBuffers | None = None,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Sample shots start..stop-1 of stream `key` from a circuit's draw
    plan; returns their detection events (n, rounds+1, 4) and labels (n,),
    both uint8. `buffers` are overwritten in place of fresh tile buffers.

    Draw i of a shot is u = counter_uniforms(key, shot*n_locs + i); location
    i fires iff u < prob and then applies Pauli min(u/prob*k, k-1) of its k
    (see `_FaultTable`). The shot's events and label are the XOR of the
    fired faults' signatures.

    Each tile hashes its states but for mix64's last step h = y ^ (y >> 31),
    which keeps bits 33..63 of y. With B = max(bit length of the largest
    bound, 33), h <= bound implies h < 2^B, which holds iff y < 2^B, since
    h and y agree on every bit from B up. So only draws with y < 2^B
    (`candidate`) can fire; the chunk finishes their hashes and tests them
    against their own bounds.
    """
    n, n_live, tile = stop - start, plan.live.shape[0], plan.tile
    words = tile * n_live
    if buffers is None or buffers.states.size < words:
        buffers = _TileBuffers(max(words, 1))
    offsets = buffers.offsets[:words]
    hits, states = [np.zeros(0, np.intp)], [np.zeros(0, np.uint64)]
    with np.errstate(over="ignore"):
        if buffers.plan is not plan:
            rows = np.arange(tile, dtype=np.uint64) * np.uint64(plan.row_step)
            np.add(rows[:, None], plan.col, out=offsets.reshape(tile, n_live))
            buffers.plan = plan
        for row in range(0, n, tile):
            size = min(tile, n - row) * n_live
            z, scratch, mask = (buffers.states[:size], buffers.scratch[:size],
                                buffers.mask[:size])
            np.add(offsets[:size], np.uint64((key + (start + row) * plan.row_step) & _MASK),
                   out=z)
            _mix64_head(z, scratch)
            np.less_equal(z, plan.candidate, out=mask)
            hit = np.flatnonzero(mask)
            hits.append(hit + row * n_live)
            states.append(z[hit])
        h = np.concatenate(states)
        h ^= h >> np.uint64(31)
        shot, j = np.divmod(np.concatenate(hits), n_live)
        fired = h <= plan.bound[j]
    shot, j, h = shot[fired], j[fired], h[fired]

    signature = np.zeros((n, plan.signatures.shape[2]), dtype=np.uint64)
    if shot.size:
        u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
        k = plan.paulis[j]
        pick = np.minimum(u / plan.prob[j] * k, k - 1.0).astype(np.intp)
        first = np.flatnonzero(np.diff(shot, prepend=-1))
        signature[shot[first]] = np.bitwise_xor.reduceat(plan.signatures[j, pick], first,
                                                         axis=0)
    bits = np.unpackbits(signature.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=plan.bits, bitorder="little")
    return bits[:, :-1].reshape(n, plan.rounds + 1, 4), bits[:, -1]


_PAULI_X = (1, 0)  # (x, z) components
_PAULI_Y = (1, 1)
_PAULI_Z = (0, 1)
_PAULI_1Q = (_PAULI_X, _PAULI_Y, _PAULI_Z)


@dataclass(frozen=True)
class FaultLocation:
    instr_index: int
    kind: NoiseKind
    qubits: tuple[int, ...]
    pauli: int  # DEPOL1: 0..2 (X,Y,Z); DEPOL2: 1..15 (base-4 pair); flips: 0


def _simulate_fault(circuit: CircuitSpec, faults: Sequence[FaultLocation] = (),
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Single-shot reference run with the given faults injected, at most one
    per instruction; with none it is the noiseless (all-zero) run."""
    at = {f.instr_index: f for f in faults}
    if len(at) != len(faults):
        raise ValueError("at most one fault per instruction")
    fx = [False] * circuit.qubit_count
    fz = [False] * circuit.qubit_count
    record: list[int] = []
    for i, ins in enumerate(circuit.instructions):
        g, qs = ins.gate, ins.qubits
        fault = at.get(i)
        here = fault is not None
        if g is Gate.RESET_Z or g is Gate.RESET_X:
            fx[qs[0]] = fz[qs[0]] = False
            if here:
                if g is Gate.RESET_Z:
                    fx[qs[0]] ^= True
                else:
                    fz[qs[0]] ^= True
        elif g is Gate.H:
            fx[qs[0]], fz[qs[0]] = fz[qs[0]], fx[qs[0]]
            if here:
                x, z = _PAULI_1Q[fault.pauli]
                fx[qs[0]] ^= bool(x)
                fz[qs[0]] ^= bool(z)
        elif g is Gate.IDLE:
            if here:
                x, z = _PAULI_1Q[fault.pauli]
                fx[qs[0]] ^= bool(x)
                fz[qs[0]] ^= bool(z)
        elif g is Gate.CNOT:
            c, t = qs
            fx[t] ^= fx[c]
            fz[c] ^= fz[t]
            if here:
                pa, pb = fault.pauli >> 2, fault.pauli & 3
                fx[c] ^= pa in (1, 2)
                fz[c] ^= pa >= 2
                fx[t] ^= pb in (1, 2)
                fz[t] ^= pb >= 2
        else:
            out = fx[qs[0]] if g is Gate.MEASURE_Z else fz[qs[0]]
            if here:
                out ^= True
            record.append(int(out))
    bits = np.asarray(record, dtype=np.uint8)
    return bits[: circuit.rounds * 8].reshape(circuit.rounds, 8), bits[circuit.rounds * 8:]


def _events_batch(ancilla: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Difference raw measurements (ancilla (n, rounds, 8), data (n, 9)
    uint8) into detection events (n, rounds+1, 4) and labels (n,), both
    uint8; the one detection-event and label rule.

    Keeps the four X-ancilla columns; row 0 is the raw first-round outcome,
    row t the XOR of rounds t and t-1, and the final row the perfect-round
    syndrome (recomputed from the data measurements through the X parity
    checks) differenced against the last noisy round. The label is the
    parity of the data bits over the logical-X support: 1 means the logical
    X measurement flipped.
    """
    n, rounds, _ = ancilla.shape
    x_bits = ancilla[:, :, :4]
    events = np.zeros((n, rounds + 1, 4), dtype=np.uint8)
    events[:, 0] = x_bits[:, 0]
    events[:, 1:rounds] = x_bits[:, 1:] ^ x_bits[:, :-1]
    perfect = np.zeros((n, 4), dtype=np.uint8)
    for k, sup in enumerate(X_STABILIZERS):
        perfect[:, k] = data[:, list(sup)].sum(axis=1) % 2
    events[:, rounds] = perfect ^ x_bits[:, rounds - 1]
    labels = (data[:, list(X_LOGICAL)].sum(axis=1) % 2).astype(np.uint8)
    return events, labels


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def generate_dataset(p_values: Sequence[float], shots_per_p: int, rounds: int,
                     seed: int, split_tag: str = "train",
                     chunk_size: int = 4096) -> Dataset:
    """Sample `shots_per_p` shots at each fault rate, `chunk_size` shots per
    sampler call.

    Each rate's draw plan is built once per (rounds, p) per process, in the
    calling thread, and reused by every later call at the same (rounds, p).

    The (fault rate, chunk) jobs are split over min(usable CPUs, jobs)
    workers: the calling thread runs every workers-th job from the first and
    one helper thread per further worker runs the jobs from its own offset.
    With one usable CPU no thread starts. Every helper is joined before the
    call returns, and the first exception of a share (in share order) is
    raised once all have stopped. Shot (p_index, shot_index) draws from its
    own counter-based stream and each chunk fills only its own rows, so the
    result is bit-identical for any chunk size and worker count.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    if split_tag not in _SPLIT_TAGS:
        raise ValueError(f"split_tag {split_tag!r} is not one of {_SPLIT_TAGS}")
    if len(p_values) == 0:
        raise ValueError("p_values must be non-empty")
    if shots_per_p < 1:
        raise ValueError(f"shots_per_p must be >= 1, got {shots_per_p}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"fault rate {p} outside [0, 1]")

    n_total = shots_per_p * len(p_values)
    events = np.empty((n_total, rounds + 1, 4), dtype=np.uint8)
    labels = np.empty(n_total, dtype=np.uint8)
    jobs = []
    for pi, p in enumerate(p_values):
        plan = _memory_x_plan(rounds, p)   # here, so no helper builds one
        key = derive_seed(seed, Stage.DATASET, pi)
        jobs += [(plan, key, pi * shots_per_p, start, min(start + chunk_size, shots_per_p))
                 for start in range(0, shots_per_p, chunk_size)]

    workers = min(_usable_cpus(), len(jobs))
    # Each worker's tile buffers, its tile offsets too, are allocated in this
    # thread: under glibc, memory a helper thread frees stays in that
    # thread's malloc arena, where the calling thread cannot reuse it. With
    # the tiles allocated by the helpers, the benchmark's protocol
    # peak_rss_mb rose by about 4.5% over one worker instead of 2% (2-vCPU
    # Xeon).
    buffers = [_TileBuffers() for _ in range(workers)]
    errors: list[BaseException | None] = [None] * workers
    stop = threading.Event()

    def run_share(w: int) -> None:
        try:
            for plan, key, offset, start, end in jobs[w::workers]:
                if stop.is_set():
                    return
                at = slice(offset + start, offset + end)
                events[at], labels[at] = _sample_chunk(plan, key, start, end, buffers[w])
        except BaseException as exc:   # re-raised by the caller below
            errors[w] = exc
            stop.set()

    helpers = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run_share, args=(w,))
            thread.start()
            helpers.append(thread)
        run_share(0)
    except BaseException:
        stop.set()      # a helper failed to start; run_share itself never raises
        raise
    finally:
        for thread in helpers:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    p_index = np.repeat(np.arange(len(p_values), dtype=np.uint16), shots_per_p)
    return Dataset(events, labels, p_index, tuple(float(p) for p in p_values),
                   rounds, seed, split_tag)


def enumerate_single_faults(circuit: CircuitSpec,
                            ) -> tuple[list[FaultLocation], np.ndarray, np.ndarray]:
    """Every single fault the noise channels can produce, with the detection
    events (k, rounds+1, 4) and labels (k,) it makes alone; the
    fault-distance oracle for the code. Each fault is run through
    `_simulate_fault` here, so the oracle does not read the sampler's fault
    table."""
    faults = []
    for i, ins in enumerate(circuit.instructions):
        if ins.noise is None or ins.noise.prob <= 0.0:
            continue
        kind = ins.noise.kind
        if kind is NoiseKind.DEPOL1:
            paulis: Sequence[int] = range(3)
        elif kind is NoiseKind.DEPOL2:
            paulis = range(1, 16)
        else:
            paulis = (0,)
        faults += [FaultLocation(i, kind, ins.qubits, pauli) for pauli in paulis]
    ancilla = np.zeros((len(faults), circuit.rounds, len(ANCILLAS)), dtype=np.uint8)
    data = np.zeros((len(faults), len(DATA_QUBITS)), dtype=np.uint8)
    for row, fault in enumerate(faults):
        ancilla[row], data[row] = _simulate_fault(circuit, (fault,))
    events, labels = _events_batch(ancilla, data)
    return faults, events, labels
