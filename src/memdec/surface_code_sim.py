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
faults makes alone. The sampler therefore runs `_simulate_fault` once per
(noise location, Pauli) to build a fault table (the records do not depend on
p, so one table serves every fault rate of a circuit structure), and a shot
costs one draw per location plus an XOR of the fired locations' entries; this
is the detector-error-model idea behind Stim (Gidney 2021, arXiv:2103.02202).

Every stage works on batches of shots, and one shot is a batch of one row.
`_simulate_batch` samples the raw records of any set of shots, and
`_events_batch` is the one rule that differences raw records into detection
events and labels. `generate_dataset` runs both chunk by chunk;
`enumerate_single_faults` runs `_events_batch` on the record each single
fault makes alone under `_simulate_fault`.

Draw contract: noise location i of shot s consumes exactly one
counter-based uniform u = counter_uniforms(key, s * n_locations + i) (see
`memdec.rng`). The location fires iff u < prob, and a depolarizing channel
then applies Pauli min(u/prob * k, k-1) of its k = 3 (X, Y, Z) or k = 15
(two-qubit pairs 1..15). Samples are therefore independent of batching and
of which shots are drawn together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .rng import GOLDEN, Stage, derive_seed, draw_limit, mix53

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

    @functools.cached_property
    def _table(self) -> _FaultTable:
        """This circuit's fault table, looked up once per spec: building and
        hashing the structure key costs more than sampling one shot."""
        return _fault_table(_structure(self))


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

    The key of a row is an unsigned integer when every byte of the rows is
    0 or 1 and a row has at most 64 bytes, as for 0/1 event bits of uint8
    or bool: row byte i is bit i of the key counted from the most
    significant end, so two keys compare as their rows' bytes do. Any
    other rows are keyed on a `np.void` view of their bytes.
    """
    events = np.ascontiguousarray(events)
    labels = np.asarray(labels).reshape(-1)
    n = events.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"{n} samples but {labels.shape[0]} labels")
    if n and not np.isin(labels, (0, 1)).all():
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
    """One big-endian uint64 per row of the (n, w) uint8 array `raw` of 0/1
    bytes, w <= 64: byte i of a row is bit 63 - i of its key."""
    n, w = raw.shape
    key_bytes = -(-w // 8)
    padded = np.zeros((n, 8 * key_bytes), np.uint8)
    padded[:, :w] = raw
    keys = np.zeros((n, 8), np.uint8)
    keys[:, :key_bytes] = np.packbits(padded.reshape(-1)).reshape(n, key_bytes)
    return keys.view(">u8").reshape(-1)


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
    return float(counts[np.arange(len(rows)), pred].sum() / int(counts.sum()))


def validate_circuit(circuit: CircuitSpec) -> None:
    mz_qubits: list[int] = []
    mx_count = 0
    for ins in circuit.instructions:
        for q in ins.qubits:
            if not 0 <= q < circuit.qubit_count:
                raise ValueError(f"qubit {q} out of range")
        if ins.gate is Gate.CNOT:
            if len(ins.qubits) != 2 or ins.qubits[0] == ins.qubits[1]:
                raise ValueError(f"bad CNOT targets {ins.qubits}")
        if ins.gate is Gate.MEASURE_Z:
            mz_qubits.append(ins.qubits[0])
        if ins.gate is Gate.MEASURE_X:
            mx_count += 1
    if len(mz_qubits) != 8 * circuit.rounds:
        raise ValueError(f"expected {8 * circuit.rounds} ancilla measurements, "
                         f"got {len(mz_qubits)}")
    for r in range(circuit.rounds):
        group = mz_qubits[8 * r:8 * (r + 1)]
        if sorted(group) != sorted(ANCILLAS) or tuple(group[:4]) != X_ANCILLAS:
            raise ValueError(f"round {r} measures {group}, expected all 8 ancillas "
                             "with the X type first")
    if mx_count != len(DATA_QUBITS):
        raise ValueError(f"expected 9 data measurements, got {mx_count}")


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
# three buffers stay in a 4 MiB L2). On a 2-vCPU Xeon the 100k-shot grid took
# 1.37 s at this size, 1.6 s at 96 KiB (more numpy calls) and 2.2 s with
# 4096-row tiles of 6 MB, which fall out of cache.
_TILE_WORDS = 49152


@dataclass(frozen=True)
class _FaultTable:
    """Measurement record of every single fault a circuit structure allows.

    `signatures[loc, j]` is the record, packed little-endian into 64-bit
    words, of the j-th Pauli that noise location `loc` can draw: j = 0..2 is
    X, Y, Z for depolarize1, j = 0..14 the pairs 1..15 for depolarize2, and
    j = 0 the flip of a prep or measurement flip. `paulis[loc]` is how many
    there are (3, 15 or 1).
    """

    signatures: np.ndarray    # (locations, 15, words) uint64
    paulis: np.ndarray        # (locations,) float64
    bits: int                 # measurements per shot


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
    shared by every fault rate."""
    qubit_count, rounds, ops = structure
    circuit = CircuitSpec(qubit_count, rounds,
                          tuple(Instruction(gate, qubits) for gate, qubits, _ in ops))
    bits = sum(1 for gate, _, _ in ops if gate in (Gate.MEASURE_Z, Gate.MEASURE_X))
    expected = rounds * len(ANCILLAS) + len(DATA_QUBITS)
    if bits != expected:
        raise ValueError(f"measurement record has {bits} bits, expected {expected}")
    locations = [(i, qubits, kind) for i, (_, qubits, kind) in enumerate(ops)
                 if kind is not None]
    words = -(-bits // 64)
    records = np.zeros((len(locations), 15, 64 * words), dtype=np.uint8)
    paulis = np.zeros(len(locations))
    for loc, (i, qubits, kind) in enumerate(locations):
        basis, components = _FAULT_BASIS[kind]
        spans = np.array([np.concatenate([anc.reshape(-1), data]) for anc, data in (
            _simulate_fault(circuit, (FaultLocation(i, kind, qubits, pauli),))
            for pauli in basis)])
        paulis[loc] = len(components)
        records[loc, :len(components), :bits] = (components @ spans) & 1
    signatures = np.packbits(records, axis=2, bitorder="little").view("<u8")
    signatures.flags.writeable = False
    paulis.flags.writeable = False
    return _FaultTable(signatures, paulis, bits)


def _simulate_batch(circuit: CircuitSpec, key: int, shot_indices: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Sample the given shots; returns (ancilla_bits (s, rounds, 8),
    data_bits (s, 9)), ancilla columns ordered [X9..X12, Z13..Z16].

    Draw i of a shot is u = counter_uniforms(key, shot*n_locs + i); location
    i fires iff u < prob and then applies Pauli min(u/prob*k, k-1) of its k
    (see `_FaultTable`). The shot's record is the XOR of the fired faults'
    signatures.
    """
    table = circuit._table
    prob = np.array([ins.noise.prob for ins in circuit.instructions
                     if ins.noise is not None])
    live = np.flatnonzero(prob > 0.0)
    limit = draw_limit(prob[live])
    n, n_locs, n_live = shot_indices.shape[0], prob.shape[0], live.shape[0]

    # state of draw (shot, loc) = key + shot*n_locs*GOLDEN + (loc+1)*GOLDEN
    with np.errstate(over="ignore"):
        row = np.uint64(key) + shot_indices.astype(np.uint64) * (np.uint64(n_locs) * GOLDEN)
        col = (live.astype(np.uint64) + np.uint64(1)) * GOLDEN
    tile = max(1, _TILE_WORDS // max(n_live, 1))
    z = np.empty((tile, n_live), dtype=np.uint64)
    scratch = np.empty_like(z)
    fire = np.empty(z.shape, dtype=bool)
    hits, draws = [], []
    for start in range(0, n, tile):
        rows = min(tile, n - start)
        zt = z[:rows]
        np.add(row[start:start + rows, None], col, out=zt)
        mix53(zt, scratch[:rows])
        np.less(zt, limit, out=fire[:rows])
        hit = np.flatnonzero(fire[:rows])
        hits.append(hit + start * n_live)
        draws.append(zt.reshape(-1)[hit])

    record = np.zeros((n, table.signatures.shape[2]), dtype=np.uint64)
    fired = np.concatenate(hits) if hits else np.zeros(0, dtype=np.intp)
    if fired.size:
        shot, loc = np.divmod(fired, n_live)
        loc = live[loc]
        u = np.concatenate(draws).astype(np.float64) * 2.0**-53
        k = table.paulis[loc]
        pick = np.minimum(u / prob[loc] * k, k - 1.0).astype(np.intp)
        first = np.flatnonzero(np.diff(shot, prepend=-1))
        record[shot[first]] = np.bitwise_xor.reduceat(table.signatures[loc, pick], first, axis=0)
    bits = np.unpackbits(record.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=table.bits, bitorder="little")
    ancilla = bits[:, : circuit.rounds * 8].reshape(n, circuit.rounds, 8)
    data = bits[:, circuit.rounds * 8:]
    return ancilla, data


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


def generate_dataset(p_values: Sequence[float], shots_per_p: int, rounds: int,
                     seed: int, split_tag: str = "train",
                     chunk_size: int = 4096) -> Dataset:
    """Sample `shots_per_p` shots at each fault rate, `chunk_size` shots per
    sampler call.

    Shot (p_index, shot_index) draws from its own counter-based stream, so
    the result is bit-identical for any chunk size.
    """
    if len(p_values) == 0:
        raise ValueError("p_values must be non-empty")
    if shots_per_p < 1:
        raise ValueError(f"shots_per_p must be >= 1, got {shots_per_p}")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"fault rate {p} outside [0, 1]")

    n_total = shots_per_p * len(p_values)
    events = np.empty((n_total, rounds + 1, 4), dtype=np.uint8)
    labels = np.empty(n_total, dtype=np.uint8)
    for pi, p in enumerate(p_values):
        circuit = build_memory_x_circuit(rounds, NoiseParams(p))
        key = derive_seed(seed, Stage.DATASET, pi)
        for start in range(0, shots_per_p, chunk_size):
            stop = min(start + chunk_size, shots_per_p)
            anc, data = _simulate_batch(circuit, key, np.arange(start, stop, dtype=np.uint64))
            at = slice(pi * shots_per_p + start, pi * shots_per_p + stop)
            events[at], labels[at] = _events_batch(anc, data)
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


def count_fault_locations(circuit: CircuitSpec) -> int:
    return sum(1 for ins in circuit.instructions
               if ins.noise is not None and ins.noise.prob > 0.0)
