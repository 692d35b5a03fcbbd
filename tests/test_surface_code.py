import hashlib
import inspect
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memdec import rng
from memdec import surface_code_sim as sc
from memdec.rng import counter_uniforms

# manual enumeration of the fixed surface-17 schedule, rounds=3:
#   init: 9 data resets + 8 ancilla resets                    = 17
#   per round: 9 idles + 4 H + 24 CNOTs + 4 H + 8 MZ + 8 RZ   = 57
#   final: 9 data MX                                          = 9
INSTRUCTIONS_3_ROUNDS = 17 + 3 * 57 + 9
# noise locations: 17 prep + per round (9+4+24+4+8=49) + 16 reset flips + 9 meas
LOCATIONS_3_ROUNDS = 17 + 3 * 49 + 2 * 8 + 9
# fault cases: depol2 72*15 + depol1 51*3 + 33 prep flips + 33 meas flips
FAULT_CASES_3_ROUNDS = 72 * 15 + 51 * 3 + 33 + 33


@pytest.fixture(scope="module")
def noisy_circuit():
    return sc.build_memory_x_circuit(3, 0.01)


@pytest.fixture(scope="module")
def noisy_plan(noisy_circuit):
    return sc._draw_plan(noisy_circuit)


def validate_circuit(circuit):
    """Raise unless `circuit` has the memory-X layout the builder makes:
    qubits in range, two distinct CNOT qubits, every round measuring all 8
    ancillas with the X type first, and 9 final data measurements."""
    mz_qubits: list[int] = []
    mx_count = 0
    for ins in circuit.instructions:
        for q in ins.qubits:
            if not 0 <= q < circuit.qubit_count:
                raise ValueError(f"qubit {q} out of range")
        if ins.gate is sc.Gate.CNOT:
            if len(ins.qubits) != 2 or ins.qubits[0] == ins.qubits[1]:
                raise ValueError(f"bad CNOT targets {ins.qubits}")
        if ins.gate is sc.Gate.MEASURE_Z:
            mz_qubits.append(ins.qubits[0])
        if ins.gate is sc.Gate.MEASURE_X:
            mx_count += 1
    if len(mz_qubits) != 8 * circuit.rounds:
        raise ValueError(f"expected {8 * circuit.rounds} ancilla measurements, "
                         f"got {len(mz_qubits)}")
    for r in range(circuit.rounds):
        group = mz_qubits[8 * r:8 * (r + 1)]
        if sorted(group) != sorted(sc.ANCILLAS) or tuple(group[:4]) != sc.X_ANCILLAS:
            raise ValueError(f"round {r} measures {group}, expected all 8 ancillas "
                             "with the X type first")
    if mx_count != len(sc.DATA_QUBITS):
        raise ValueError(f"expected 9 data measurements, got {mx_count}")


def live_locations(circuit):
    """How many noise locations of `circuit` have a probability above 0."""
    return sum(1 for ins in circuit.instructions
               if ins.noise is not None and ins.noise.prob > 0.0)


def one_shot(plan, key, shot):
    """Events and label of shot `shot` of stream `key`, sampled alone."""
    events, labels = sc._sample_chunk(plan, key, shot, shot + 1)
    return events[0], labels[0]


def shot_events(anc, data):
    """Detection events (rounds+1, 4) and label of one raw record."""
    events, labels = sc._events_batch(anc[None], data[None])
    return events[0], labels[0]


class TestBuildCircuit:
    def test_three_rounds_shape(self, noisy_circuit):
        assert noisy_circuit.qubit_count == 17
        assert noisy_circuit.rounds == 3
        validate_circuit(noisy_circuit)

    def test_instruction_count_matches_hand_count(self, noisy_circuit):
        assert len(noisy_circuit.instructions) == INSTRUCTIONS_3_ROUNDS
        assert live_locations(noisy_circuit) == LOCATIONS_3_ROUNDS

    def test_noiseless_circuit_has_zero_prob_tags(self):
        c = sc.build_memory_x_circuit(1, 0.0)
        tagged = [ins.noise.prob for ins in c.instructions if ins.noise is not None]
        assert tagged and all(p == 0.0 for p in tagged)

    def test_rounds_below_one_rejected(self):
        with pytest.raises(ValueError):
            sc.build_memory_x_circuit(0, 0.01)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_bad_fault_rate_rejected(self, p):
        with pytest.raises(ValueError, match="fault rate"):
            sc.build_memory_x_circuit(1, p)

    def test_stabilizers_commute(self):
        for xs in sc.X_STABILIZERS:
            for zs in sc.Z_STABILIZERS:
                assert len(set(xs) & set(zs)) % 2 == 0
        assert len(set(sc.X_LOGICAL) & set(sc.Z_LOGICAL)) % 2 == 1


class TestSampleShot:
    def test_noiseless_shot_is_all_zero(self):
        c = sc.build_memory_x_circuit(3, 0.0)
        events, label = one_shot(sc._draw_plan(c), 7, 0)
        assert not events.any() and not label

    def test_injected_x_flips_adjacent_z_ancillas(self, noisy_circuit):
        # X on data qubit 5 at the round-1 idle: neighbours are Z stabilizers
        # {2,5} (ancilla 14, column 5) and {4,5,7,8} (ancilla 16, column 7)
        idle5 = next(i for i, ins in enumerate(noisy_circuit.instructions)
                     if ins.gate is sc.Gate.IDLE and ins.qubits == (5,))
        fault = sc.FaultLocation(idle5, sc.NoiseKind.DEPOL1, (5,), 0)
        anc, data = sc._simulate_fault(noisy_circuit, (fault,))
        expected = np.zeros((3, 8), dtype=np.uint8)
        expected[:, 5] = 1
        expected[:, 7] = 1
        assert np.array_equal(anc, expected)
        assert not anc[:, :4].any()
        assert not data.any()

    def test_injected_z_on_logical_support_flips_label(self, noisy_circuit):
        # I x Z after round 3's CNOT (9, 0) drops a Z on data qubit 0 once all
        # X-stabilizer CNOTs touching it are done: only the perfect round can
        # fire, and the logical-X parity flips.
        cnots = [i for i, ins in enumerate(noisy_circuit.instructions)
                 if ins.gate is sc.Gate.CNOT and ins.qubits == (9, 0)]
        fault = sc.FaultLocation(cnots[-1], sc.NoiseKind.DEPOL2, (9, 0), 0b0011)
        events, label = shot_events(*sc._simulate_fault(noisy_circuit, (fault,)))
        assert label == 1
        assert not events[:3].any()
        # qubit 0 sits only in X stabilizer {0,1} -> detector column 0
        assert list(events[3]) == [1, 0, 0, 0]

    def test_single_shot_matches_batch_row(self, noisy_plan):
        key = 99
        events_b, labels_b = sc._sample_chunk(noisy_plan, key, 0, 32)
        for i in (0, 5, 31):
            events, label = one_shot(noisy_plan, key, i)
            assert np.array_equal(events, events_b[i])
            assert label == labels_b[i]


def _replay(circuit, key, shot):
    """Events and label of one shot drawn by the sampler's contract and run
    through the reference simulator with all its faults at once; uses no
    fault table."""
    noisy = [(i, ins) for i, ins in enumerate(circuit.instructions)
             if ins.noise is not None]
    u = counter_uniforms(key, shot * len(noisy) + np.arange(len(noisy), dtype=np.uint64))
    faults = []
    for (i, ins), draw in zip(noisy, u):
        prob, kind = ins.noise.prob, ins.noise.kind
        if not draw < prob:
            continue
        if kind is sc.NoiseKind.DEPOL1:
            pauli = int(min(draw / prob * 3.0, 2.0))
        elif kind is sc.NoiseKind.DEPOL2:
            pauli = int(min(draw / prob * 15.0, 14.0)) + 1
        else:
            pauli = 0
        faults.append(sc.FaultLocation(i, kind, ins.qubits, pauli))
    return shot_events(*sc._simulate_fault(circuit, faults))


def assert_matches_replay(circuit, key, start, stop):
    events, labels = sc._sample_chunk(sc._draw_plan(circuit), key, start, stop)
    assert events.shape == (stop - start, circuit.rounds + 1, 4)
    for row, shot in enumerate(range(start, stop)):
        want_events, want_label = _replay(circuit, key, shot)
        assert np.array_equal(events[row], want_events), shot
        assert labels[row] == want_label, shot
    return events, labels


_MASK = 2**64 - 1


def _unshift(y, s):
    """Inverse of x -> x ^ (x >> s) on 64-bit words."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def _state_hashing_to(h):
    """The splitmix64 state whose finalized hash is `h` (rng._mix inverted)."""
    z = _unshift(h, 31) * pow(rng._MIX2, -1, 2**64) & _MASK
    z = _unshift(z, 27) * pow(rng._MIX1, -1, 2**64) & _MASK
    z = _unshift(z, 30)
    assert rng._mix(z) == h
    return z


def _key_drawing(h, circuit, shot, loc):
    """The stream key under which draw `loc` of shot `shot` hashes to `h`."""
    n_locs = sum(ins.noise is not None for ins in circuit.instructions)
    return (_state_hashing_to(h) - (shot * n_locs + loc + 1) * rng._GOLDEN) & _MASK


class TestFaultTableSampler:
    @pytest.mark.parametrize("rounds, p", [(3, 0.05), (3, 1.0), (2, 0.05)])
    def test_batch_matches_multi_fault_replay(self, rounds, p):
        circuit = sc.build_memory_x_circuit(rounds, p)
        assert_matches_replay(circuit, 2**64 - 5, 1000, 1050)

    @pytest.mark.parametrize("rounds", [2, 7])
    def test_table_entries_equal_direct_runs(self, rounds):
        # the table is built from each location's X/Z components by XOR; every
        # entry must equal the events and label of the reference simulator
        # run with that one fault
        circuit = sc.build_memory_x_circuit(rounds, 1e-3)
        table = sc._fault_table(sc._structure(circuit))
        drawn = {sc.NoiseKind.DEPOL1: range(3), sc.NoiseKind.DEPOL2: range(1, 16)}
        noisy = [(i, ins) for i, ins in enumerate(circuit.instructions)
                 if ins.noise is not None]
        assert table.signatures.shape[0] == len(noisy)
        for loc, (i, ins) in enumerate(noisy):
            paulis = drawn.get(ins.noise.kind, (0,))
            assert table.paulis[loc] == len(paulis)
            unpacked = np.unpackbits(table.signatures[loc].astype("<u8").view(np.uint8),
                                     axis=1, bitorder="little")
            assert not unpacked[len(paulis):].any() and not unpacked[:, table.bits:].any()
            for j, pauli in enumerate(paulis):
                fault = sc.FaultLocation(i, ins.noise.kind, ins.qubits, pauli)
                events, label = shot_events(*sc._simulate_fault(circuit, (fault,)))
                assert np.array_equal(unpacked[j, :table.bits],
                                      np.append(events.reshape(-1), label)), (loc, j)

    def test_any_subset_and_order_of_shots(self, noisy_plan):
        # a shot sampled inside a range equals the same shot sampled alone
        for start, stop in ((0, 5), (77, 80), (2**40 - 2, 2**40 + 3)):
            events, labels = sc._sample_chunk(noisy_plan, 5, start, stop)
            for row, shot in enumerate(range(start, stop)):
                e1, l1 = one_shot(noisy_plan, 5, shot)
                assert np.array_equal(e1, events[row]) and l1 == labels[row], shot

    @pytest.mark.parametrize("words", [sc._TILE_WORDS, 10])
    def test_given_tile_buffers_keep_bits(self, noisy_plan, words):
        # buffers too small for one tile row are replaced by fresh ones
        buffers = sc._TileBuffers(words)
        for b in (buffers.states, buffers.scratch, buffers.mask, buffers.offsets):
            b.fill(1)
        events, labels = sc._sample_chunk(noisy_plan, 5, 0, 600, buffers)
        events_ref, labels_ref = sc._sample_chunk(noisy_plan, 5, 0, 600)
        assert np.array_equal(events, events_ref) and np.array_equal(labels, labels_ref)

    def test_tile_offsets_refilled_for_another_plan(self, noisy_plan):
        # one worker's buffers serve circuits of different location counts
        buffers = sc._TileBuffers()
        other = sc._draw_plan(sc.build_memory_x_circuit(2, 0.05))
        for plan in (noisy_plan, other, noisy_plan):
            events, labels = sc._sample_chunk(plan, 5, 300, 900, buffers)
            events_ref, labels_ref = sc._sample_chunk(plan, 5, 300, 900)
            assert buffers.plan is plan
            assert np.array_equal(events, events_ref) and np.array_equal(labels, labels_ref)

    def test_circuit_without_noise_locations(self, noisy_circuit):
        bare = sc.CircuitSpec(noisy_circuit.qubit_count, noisy_circuit.rounds, tuple(
            sc.Instruction(ins.gate, ins.qubits) for ins in noisy_circuit.instructions))
        events, labels = sc._sample_chunk(sc._draw_plan(bare), 5, 0, 10)
        assert events.shape == (10, 4, 4) and not events.any() and not labels.any()

    def test_empty_batch(self, noisy_plan):
        events, labels = sc._sample_chunk(noisy_plan, 5, 0, 0)
        assert events.shape == (0, 4, 4) and labels.shape == (0,)

    def test_fault_twice_on_one_instruction_rejected(self, noisy_circuit):
        fault = sc.FaultLocation(0, sc.NoiseKind.PREP_FLIP, (0,), 0)
        with pytest.raises(ValueError):
            sc._simulate_fault(noisy_circuit, [fault, fault])


def _flip_location(circuit, qubit, round_):
    """Noise-location index of the measurement flip of ancilla `qubit` in
    round `round_`."""
    noisy = [ins for ins in circuit.instructions if ins.noise is not None]
    return [loc for loc, ins in enumerate(noisy)
            if ins.gate is sc.Gate.MEASURE_Z and ins.qubits == (qubit,)][round_]


class TestFireTestEdges:
    """The two-stage fire test of `_sample_chunk` at its edges, against
    `_replay`, which draws through `counter_uniforms`."""

    @pytest.mark.parametrize("p", [1e-12, 1e-2])
    def test_draws_at_the_bound(self, p):
        # a key that puts the full hash of one draw exactly on its bound (it
        # fires) or one above (it does not)
        circuit = sc.build_memory_x_circuit(3, p)
        plan = sc._draw_plan(circuit)
        loc, shot = _flip_location(circuit, 9, 1), 2**40 + 3
        assert plan.live[loc] == loc
        bound = int(plan.bound[loc])
        if p == 1e-12:
            assert bound.bit_length() < 33 and plan.candidate == 2**33 - 1
        for h, fires in ((bound, True), (bound + 1, False), (0, True)):
            events, _ = assert_matches_replay(circuit, _key_drawing(h, circuit, shot, loc),
                                              shot - 2, shot + 3)
            assert events[2].any() == fires, h

    @pytest.mark.parametrize("y", [2**33 - 1, 2**33, 2**40 + 12345])
    def test_candidates_that_do_not_fire(self, y):
        # y is the hash before its last xorshift; at p = 1e-12 every y below
        # 2^33 is a candidate, but none of these fires
        circuit = sc.build_memory_x_circuit(3, 1e-12)
        loc, shot = _flip_location(circuit, 10, 2), 7
        key = _key_drawing(y ^ (y >> 31), circuit, shot, loc)
        events, labels = assert_matches_replay(circuit, key, 0, 20)
        assert not events.any() and not labels.any()

    def test_mixed_zero_and_certain_locations(self):
        # a hand-built circuit with dead, certain and rare locations: the
        # certain one makes every draw a candidate, and the states wrap
        base = sc.build_memory_x_circuit(3, 0.02)
        instructions = []
        for i, ins in enumerate(base.instructions):
            if ins.noise is not None and i % 5 == 0:
                ins = sc.Instruction(ins.gate, ins.qubits, sc.Noise(ins.noise.kind, 0.0))
            elif ins.noise is not None and i % 7 == 0:
                ins = sc.Instruction(ins.gate, ins.qubits, sc.Noise(ins.noise.kind, 1.0))
            instructions.append(ins)
        circuit = sc.CircuitSpec(base.qubit_count, base.rounds, tuple(instructions))
        validate_circuit(circuit)
        plan = sc._draw_plan(circuit)
        assert 0 < len(plan.live) < live_locations(base)
        assert plan.candidate == 2**64 - 1 and (plan.prob == 1.0).any()
        for key in (2**64 - 1, 2**64 - 2**20):
            assert_matches_replay(circuit, key, 0, 30)
            assert_matches_replay(circuit, key, 2**40 - 10, 2**40 + 10)


# uint64 values of every bit length, so that small ones are drawn too
_WORDS = st.integers(0, 64).flatmap(lambda bits: st.integers(0, 2**bits - 1))


@given(_WORDS, _WORDS)
def test_candidate_bound_lemma(y, bound):
    # h = y ^ (y >> 31) keeps the top 31 bits of y, so for B >= 33,
    # h < 2^B iff y < 2^B, and h <= bound implies y < 2^max(bits(bound), 33)
    y_word = np.array([y], dtype=np.uint64)
    h = int((y_word ^ (y_word >> np.uint64(31)))[0])
    top = max(bound.bit_length(), 33)
    assert (h < 2**top) == (y < 2**top)
    if h <= bound:
        assert y <= 2**top - 1


class TestToSample:
    """The detection-event and label rule, `_events_batch`."""

    def test_all_zero(self):
        events, labels = sc._events_batch(np.zeros((2, 3, 8), np.uint8),
                                          np.zeros((2, 9), np.uint8))
        assert events.shape == (2, 4, 4) and labels.shape == (2,)
        assert events.dtype == labels.dtype == np.uint8
        assert not events.any() and not labels.any()

    def test_single_measurement_flip_fires_twice(self, noisy_circuit):
        mz = [i for i, ins in enumerate(noisy_circuit.instructions)
              if ins.gate is sc.Gate.MEASURE_Z and ins.qubits == (10,)]
        fault = sc.FaultLocation(mz[1], sc.NoiseKind.MEAS_FLIP, (10,), 0)
        events, label = shot_events(*sc._simulate_fault(noisy_circuit, (fault,)))
        expected = np.zeros((4, 4), np.uint8)
        expected[1, 1] = expected[2, 1] = 1
        assert np.array_equal(events, expected)
        assert label == 0

    def test_differencing_involution(self):
        rng = np.random.default_rng(4)
        anc = rng.integers(0, 2, size=(50, 3, 8)).astype(np.uint8)
        data = rng.integers(0, 2, size=(50, 9)).astype(np.uint8)
        events, labels = sc._events_batch(anc, data)
        for i in range(50):
            # reconstruct the raw X-ancilla record from the events
            m = np.zeros((3, 4), np.uint8)
            m[0] = events[i, 0]
            m[1] = events[i, 1] ^ m[0]
            m[2] = events[i, 2] ^ m[1]
            assert np.array_equal(m, anc[i, :, :4])
            perfect = np.array([data[i, list(sup)].sum() % 2
                                for sup in sc.X_STABILIZERS], np.uint8)
            assert np.array_equal(events[i, 3], perfect ^ m[2])
            assert labels[i] == data[i, list(sc.X_LOGICAL)].sum() % 2

    def test_label_rate_positive_below_half(self, noisy_plan):
        _, labels = sc._sample_chunk(noisy_plan, 11, 0, 4000)
        rate = labels.mean()
        assert 0.0 < rate < 0.5


class TestGenerateDataset:
    def test_noiseless_dataset(self):
        ds = sc.generate_dataset([0.0], 100, 3, seed=1)
        assert len(ds) == 100
        assert not ds.events.any() and not ds.labels.any()

    def test_metadata_echo(self):
        ps = [1e-5, 1e-4, 1e-3, 1e-2]
        ds = sc.generate_dataset(ps, 10, 3, seed=42, split_tag="test")
        assert ds.p_values == tuple(ps)
        assert ds.rounds == 3 and ds.seed == 42 and ds.split_tag == "test"
        assert np.array_equal(np.bincount(ds.p_index), [10, 10, 10, 10])

    def test_same_seed_is_bit_identical(self):
        a = sc.generate_dataset([1e-2, 1e-3], 200, 3, seed=5)
        b = sc.generate_dataset([1e-2, 1e-3], 200, 3, seed=5)
        assert np.array_equal(a.events, b.events)
        assert np.array_equal(a.labels, b.labels)

    def test_chunking_does_not_change_bits(self):
        base = sc.generate_dataset([1e-2], 500, 3, seed=9, chunk_size=4096)
        for chunk_size in (7, 64):
            other = sc.generate_dataset([1e-2], 500, 3, seed=9, chunk_size=chunk_size)
            assert np.array_equal(base.events, other.events)
            assert np.array_equal(base.labels, other.labels)

    # sha256(events + labels + p_index) of datasets sampled by the Pauli-frame
    # gate interpreter that the fault table replaced; the sampler must keep
    # these bytes.
    @pytest.mark.parametrize("args, digest", [
        (([0.0, 1e-5, 1e-3, 1e-2, 0.2, 1.0], 3000, 3, 2307),
         "129a7c613949ca6a40d7453e0dd54263951ecc5b7dddb924a3a574538d31a355"),
        (([1e-2], 2000, 1, 7),
         "ae6c694f139edee3d7613d8c1174505801c008f9fc33a535fa1b562531940445"),
        (([1e-2], 2000, 5, 7),
         "5f22df48f8651295d970275d8a30b5c489de934732c5131409ec3f91d9354719"),
        # 7 rounds: 65 measurements, a record of two 64-bit words
        (([0.3, 0.05], 700, 7, 11),
         "0f6aab76112e80209204fee09fbcf75d4475fb28f45cd1e7b62775128b5acdc2"),
    ])
    def test_golden_bytes(self, args, digest):
        p_values, shots, rounds, seed = args
        ds = sc.generate_dataset(p_values, shots, rounds, seed=seed)
        h = hashlib.sha256(ds.events.tobytes() + ds.labels.tobytes()
                           + ds.p_index.tobytes())
        assert h.hexdigest() == digest

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sc.generate_dataset([], 10, 3, seed=0)
        with pytest.raises(ValueError):
            sc.generate_dataset([1e-3], 0, 3, seed=0)
        with pytest.raises(ValueError):
            sc.generate_dataset([1.5], 10, 3, seed=0)
        for chunk_size in (0, -4):
            with pytest.raises(ValueError, match="chunk_size"):
                sc.generate_dataset([1e-3], 10, 3, seed=0, chunk_size=chunk_size)

    @pytest.mark.parametrize("seed, split_tag, match", [
        (-1, "train", "seed"), (2**64, "train", "seed"), (0, "bogus", "split_tag")])
    def test_seed_and_split_tag_checked_before_sampling(self, monkeypatch, seed,
                                                        split_tag, match):
        # seed -1 used to sample the bytes of seed 2^64 - 1 and record -1,
        # and an unknown tag to fail only in save_dataset
        def no_sampling(*args):
            raise AssertionError("sampled before checking the arguments")

        monkeypatch.setattr(sc, "_sample_chunk", no_sampling)
        with pytest.raises(ValueError, match=match):
            sc.generate_dataset([1e-3], 10, 3, seed=seed, split_tag=split_tag)

    @pytest.mark.parametrize("name, value", [
        ("shots_per_p", 10.0), ("shots_per_p", True), ("rounds", 3.0),
        ("rounds", np.float64(3.0)), ("chunk_size", 64.5), ("chunk_size", True),
        ("seed", 1.5), ("seed", np.bool_(True))])
    def test_counts_must_be_integers(self, monkeypatch, name, value):
        # the floats failed deep inside with a bare TypeError, and True was
        # taken as 1
        def no_sampling(*args):
            raise AssertionError("sampled before checking the arguments")

        monkeypatch.setattr(sc, "_sample_chunk", no_sampling)
        args = {"shots_per_p": 10, "rounds": 3, "seed": 0, "chunk_size": 64, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            sc.generate_dataset([1e-3], **args)

    def test_numpy_integer_counts_accepted(self):
        ds = sc.generate_dataset([1e-2], np.int64(300), np.uint8(3), np.int64(5),
                                 chunk_size=np.int32(64))
        ref = sc.generate_dataset([1e-2], 300, 3, 5, chunk_size=64)
        assert np.array_equal(ds.events, ref.events) and np.array_equal(ds.labels, ref.labels)


class ChunkFailure(RuntimeError):
    pass


class TestParallelSampling:
    """`generate_dataset` over the CPU counts that `_usable_cpus` reports."""

    P_VALUES = [1e-2, 0.2]

    @pytest.fixture(scope="class")
    def reference(self):
        return sc.generate_dataset(self.P_VALUES, 500, 3, seed=9)

    @pytest.fixture
    def sampling_threads(self, monkeypatch):
        """The thread that ran each job and the job's shot count, keyed by
        (key, first shot). Thread objects, not idents: a finished helper's
        ident may be reused by a later one."""
        seen = {}
        sample = sc._sample_chunk

        def spy(plan, key, start, stop, buffers, out):
            seen[(key, start)] = threading.current_thread(), stop - start
            return sample(plan, key, start, stop, buffers, out)

        monkeypatch.setattr(sc, "_sample_chunk", spy)
        return seen

    # 2 rates x 500 shots: each rate is cut into the fewest pieces, at least
    # ceil(500 / chunk_size), that make 2 * pieces a multiple of the workers
    @pytest.mark.parametrize("cpus, chunk_size, pieces", [
        (1, 7, 72), (3, 7, 72), (8, 7, 72), (1, 64, 8), (3, 64, 9), (8, 64, 8),
        (1, 4096, 1), (3, 4096, 3), (8, 4096, 4)])
    def test_bytes_equal_for_any_worker_count(self, monkeypatch, reference,
                                              sampling_threads, cpus, chunk_size, pieces):
        monkeypatch.setattr(sc, "_usable_cpus", lambda: cpus)
        sc._memory_x_plan.cache_clear()
        for plans in ("cold", "warm"):      # the cold call fills the cache
            sampling_threads.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                ds = sc.generate_dataset(self.P_VALUES, 500, 3, seed=9,
                                         chunk_size=chunk_size)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(ds.events, reference.events), plans
            assert np.array_equal(ds.labels, reference.labels), plans
            assert np.array_equal(ds.p_index, reference.p_index), plans
            sizes = [size for _, size in sampling_threads.values()]
            assert len(sizes) == 2 * pieces and sum(sizes) == 1000
            assert max(sizes) <= chunk_size and max(sizes) - min(sizes) <= 1
            # the caller and one helper per further worker, with equal shares
            shares = Counter(thread for thread, _ in sampling_threads.values())
            assert len(shares) == cpus and threading.current_thread() in shares
            assert set(shares.values()) == {2 * pieces // cpus}

    @pytest.mark.parametrize("p_values, shots, cpus, shares", [
        ([1e-2], 2, 8, [1, 1]),                  # no more workers than shots
        ([1e-2, 0.2, 0.0], 1, 2, [2, 1])])      # no empty job to even the shares
    def test_fewer_shots_than_cpus(self, monkeypatch, sampling_threads, p_values,
                                   shots, cpus, shares):
        monkeypatch.setattr(sc, "_usable_cpus", lambda: cpus)
        ds = sc.generate_dataset(p_values, shots, 3, seed=9)
        counts = Counter(thread for thread, _ in sampling_threads.values())
        assert counts[threading.current_thread()] == shares[0]
        assert sorted(counts.values(), reverse=True) == shares
        monkeypatch.setattr(sc, "_usable_cpus", lambda: 1)
        ref = sc.generate_dataset(p_values, shots, 3, seed=9, chunk_size=1)
        assert np.array_equal(ds.events, ref.events) and np.array_equal(ds.labels, ref.labels)

    def test_default_chunks_split_a_set_evenly(self, monkeypatch, sampling_threads):
        # a 20k-shot set on two CPUs: two jobs of 10k, not 16384 and 3616
        monkeypatch.setattr(sc, "_usable_cpus", lambda: 2)
        sc.generate_dataset([1e-3], 20_000, 3, seed=4)
        assert sorted(size for _, size in sampling_threads.values()) == [10_000, 10_000]

    @pytest.mark.parametrize("failing_job", [0, 1, 5])
    def test_chunk_exception_reaches_caller(self, monkeypatch, failing_job):
        # 640 shots at chunk_size 64 on 3 workers are 12 jobs of 53 or 54
        # shots: job 0 is the caller's, jobs 1 and 5 are helpers'
        monkeypatch.setattr(sc, "_usable_cpus", lambda: 3)
        sample = sc._sample_chunk
        ran_in = []

        def failing(plan, key, start, stop, buffers, out):
            if start == failing_job * 640 // 12:
                ran_in.append(threading.current_thread())
                raise ChunkFailure(f"job {failing_job}")
            return sample(plan, key, start, stop, buffers, out)

        monkeypatch.setattr(sc, "_sample_chunk", failing)
        before = threading.active_count()
        with pytest.raises(ChunkFailure, match=f"job {failing_job}"):
            sc.generate_dataset([1e-2], 640, 3, seed=1, chunk_size=64)
        assert threading.active_count() == before
        assert len(ran_in) == 1
        assert (ran_in[0] is threading.current_thread()) == (failing_job == 0)

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(sc.os, "sched_getaffinity", raising=False)
        assert sc._usable_cpus() == (sc.os.cpu_count() or 1)


class TestChunkAndTileBoundaries:
    """`generate_dataset` against a one-worker reference that samples each
    shot in a chunk of its own, where no chunk spans a tile, tests its
    candidates before its end or adds a tile's offset to a candidate."""

    # no live location; one candidate test per chunk at these sizes; one
    # every third tile; certain locations, where every draw is a candidate
    # and every tile is tested alone
    P_VALUES = [0.0, 1e-2, 0.05, 1.0]

    @pytest.fixture(scope="class", params=[1001, 1040])
    def reference(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sc, "_usable_cpus", lambda: 1)
            return sc.generate_dataset(self.P_VALUES, request.param, 3, seed=21, chunk_size=1)

    @staticmethod
    def tile():
        return sc._memory_x_plan(3, 1e-2).tile

    def assert_matches(self, reference, chunk_size):
        ds = sc.generate_dataset(self.P_VALUES, len(reference) // len(self.P_VALUES), 3,
                                 seed=21, chunk_size=chunk_size)
        assert np.array_equal(ds.events, reference.events)
        assert np.array_equal(ds.labels, reference.labels)
        assert np.array_equal(ds.p_index, reference.p_index)

    # 1001 shots, which the piece counts here do not divide: pieces of
    # 250-251 or 500-501 shots (333-334 on 3 workers); 1040 shots: pieces of
    # exactly one, two or four 260-shot tiles
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("tiles, extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_chunks_around_a_tile(self, monkeypatch, reference, cpus, tiles, extra):
        monkeypatch.setattr(sc, "_usable_cpus", lambda: cpus)
        self.assert_matches(reference, tiles * self.tile() + extra)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_chunks_above_the_default(self, monkeypatch, reference, cpus):
        monkeypatch.setattr(sc, "_usable_cpus", lambda: cpus)
        default = inspect.signature(sc.generate_dataset).parameters["chunk_size"].default
        self.assert_matches(reference, default + 1)

    @pytest.mark.parametrize("candidates", [1, 3000, 10**9])
    def test_any_candidate_count_per_test(self, monkeypatch, reference, candidates):
        # after every tile, after a few, or once per chunk
        monkeypatch.setattr(sc, "_TAIL_CANDIDATES", candidates)
        monkeypatch.setattr(sc, "_usable_cpus", lambda: 2)
        self.assert_matches(reference, 3 * self.tile() + 7)
        self.assert_matches(reference, 10**6)


class TestPlanCache:
    """`generate_dataset` builds each (rounds, p) draw plan once per process,
    in the calling thread."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Thread ident of every plan build from an empty cache on."""
        seen = []
        build = sc._draw_plan

        def spy(circuit):
            seen.append(threading.get_ident())
            return build(circuit)

        monkeypatch.setattr(sc, "_draw_plan", spy)
        sc._memory_x_plan.cache_clear()
        yield seen
        sc._memory_x_plan.cache_clear()

    def test_repeated_rates_build_no_plan(self, builds):
        sc.generate_dataset([1e-2, 1e-3], 50, 3, seed=4)
        assert len(builds) == 2
        again = sc.generate_dataset([1e-3, 1e-2], 70, 3, seed=5)
        assert len(builds) == 2
        # the cached plans sample the bytes of freshly built ones
        sc._memory_x_plan.cache_clear()
        fresh = sc.generate_dataset([1e-3, 1e-2], 70, 3, seed=5)
        assert len(builds) == 4
        assert np.array_equal(again.events, fresh.events)
        assert np.array_equal(again.labels, fresh.labels)

    @pytest.mark.parametrize("cpus", [3, 8])
    def test_no_helper_builds_a_plan(self, monkeypatch, builds, cpus):
        monkeypatch.setattr(sc, "_usable_cpus", lambda: cpus)
        sc.generate_dataset([1e-2, 1e-3, 0.2], 300, 3, seed=2, chunk_size=16)
        assert builds == [threading.get_ident()] * 3

    def test_other_rounds_or_rate_gets_its_own_plan(self, builds):
        # float32 0.5 equals and hashes like 0.5, but its circuit's flip
        # probability 2p/3 is rounded to float32
        keys = [(3, 0.5), (2, 0.5), (3, 1e-3), (3, np.float32(0.5))]
        assert hash(keys[3][1]) == hash(0.5) and keys[3][1] == 0.5
        plans = [sc._memory_x_plan(rounds, p) for rounds, p in keys]
        assert len(builds) == len(keys)
        assert len({id(plan) for plan in plans}) == len(keys)
        assert not np.array_equal(plans[3].prob, plans[0].prob)
        for (rounds, p), plan in zip(keys, plans):
            assert sc._memory_x_plan(rounds, p) is plan
            want = sc._draw_plan(sc.build_memory_x_circuit(rounds, p))
            assert plan.rounds == want.rounds == rounds
            assert np.array_equal(plan.prob, want.prob)
            assert np.array_equal(plan.bound, want.bound)

    def test_cached_plan_arrays_are_read_only(self):
        plan = sc._memory_x_plan(3, 1e-2)
        arrays = [plan.live, plan.prob, plan.paulis, plan.signatures, plan.bound, plan.col]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


class TestSingleFaults:
    def test_noiseless_enumeration_is_empty(self):
        c = sc.build_memory_x_circuit(3, 0.0)
        faults, events, labels = sc.enumerate_single_faults(c)
        assert faults == [] and events.shape == (0, 4, 4) and labels.shape == (0,)

    def test_case_count_matches_hand_tally(self, noisy_circuit):
        faults, events, labels = sc.enumerate_single_faults(noisy_circuit)
        assert len(faults) == FAULT_CASES_3_ROUNDS
        assert events.shape == (FAULT_CASES_3_ROUNDS, 4, 4)
        assert labels.shape == (FAULT_CASES_3_ROUNDS,)

    def test_no_single_fault_is_an_undetected_logical(self, noisy_circuit):
        faults, events, labels = sc.enumerate_single_faults(noisy_circuit)
        undetected = (labels == 1) & ~events.any(axis=(1, 2))
        assert not undetected.any(), [faults[i] for i in np.flatnonzero(undetected)]


def test_label_rate_grows_with_p():
    lo = sc.generate_dataset([1e-3], 20000, 3, seed=3).labels.mean()
    hi = sc.generate_dataset([1e-2], 20000, 3, seed=3).labels.mean()
    sigma = np.sqrt(hi * (1 - hi) / 20000 + lo * (1 - lo) / 20000)
    assert hi - lo > 5 * sigma
