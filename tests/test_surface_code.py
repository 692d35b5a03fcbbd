import hashlib

import numpy as np
import pytest

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
    return sc.build_memory_x_circuit(3, sc.NoiseParams(0.01))


def one_shot(circuit, key, shot):
    """Shot `shot` of stream `key`, sampled as a batch of one row."""
    anc, data = sc._simulate_batch(circuit, key, np.array([shot], dtype=np.uint64))
    return anc[0], data[0]


def shot_events(anc, data):
    """Detection events (rounds+1, 4) and label of one raw record."""
    events, labels = sc._events_batch(anc[None], data[None])
    return events[0], labels[0]


class TestBuildCircuit:
    def test_three_rounds_shape(self, noisy_circuit):
        assert noisy_circuit.qubit_count == 17
        assert noisy_circuit.rounds == 3
        sc.validate_circuit(noisy_circuit)

    def test_instruction_count_matches_hand_count(self, noisy_circuit):
        assert len(noisy_circuit.instructions) == INSTRUCTIONS_3_ROUNDS
        assert sc.count_fault_locations(noisy_circuit) == LOCATIONS_3_ROUNDS

    def test_noiseless_circuit_has_zero_prob_tags(self):
        c = sc.build_memory_x_circuit(1, sc.NoiseParams(0.0))
        tagged = [ins.noise.prob for ins in c.instructions if ins.noise is not None]
        assert tagged and all(p == 0.0 for p in tagged)

    def test_rounds_below_one_rejected(self):
        with pytest.raises(ValueError):
            sc.build_memory_x_circuit(0, sc.NoiseParams(0.01))

    def test_bad_fault_rate_rejected(self):
        with pytest.raises(ValueError):
            sc.NoiseParams(-0.1)
        with pytest.raises(ValueError):
            sc.NoiseParams(1.5)

    def test_stabilizers_commute(self):
        for xs in sc.X_STABILIZERS:
            for zs in sc.Z_STABILIZERS:
                assert len(set(xs) & set(zs)) % 2 == 0
        assert len(set(sc.X_LOGICAL) & set(sc.Z_LOGICAL)) % 2 == 1


class TestSampleShot:
    def test_noiseless_shot_is_all_zero(self):
        c = sc.build_memory_x_circuit(3, sc.NoiseParams(0.0))
        anc, data = one_shot(c, 7, 0)
        assert not anc.any() and not data.any()

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

    def test_single_shot_matches_batch_row(self, noisy_circuit):
        key = 99
        anc_b, data_b = sc._simulate_batch(noisy_circuit, key,
                                           np.arange(32, dtype=np.uint64))
        for i in (0, 5, 31):
            anc, data = one_shot(noisy_circuit, key, i)
            assert np.array_equal(anc, anc_b[i])
            assert np.array_equal(data, data_b[i])


def _replay(circuit, key, shot):
    """One shot drawn by the sampler's contract and run through the reference
    simulator with all its faults at once; uses no fault table."""
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
    return sc._simulate_fault(circuit, faults)


class TestFaultTableSampler:
    @pytest.mark.parametrize("rounds, p", [(3, 0.05), (3, 1.0), (2, 0.05)])
    def test_batch_matches_multi_fault_replay(self, rounds, p):
        circuit = sc.build_memory_x_circuit(rounds, sc.NoiseParams(p))
        key = 2**64 - 5
        shots = np.arange(1000, 1050, dtype=np.uint64)
        anc_b, data_b = sc._simulate_batch(circuit, key, shots)
        for row, shot in enumerate(shots):
            anc, data = _replay(circuit, key, int(shot))
            assert np.array_equal(anc, anc_b[row]), (p, shot)
            assert np.array_equal(data, data_b[row]), (p, shot)

    @pytest.mark.parametrize("rounds", [2, 7])
    def test_table_entries_equal_direct_runs(self, rounds):
        # the table is built from each location's X/Z components by XOR; every
        # entry must equal the reference simulator run with that one fault
        circuit = sc.build_memory_x_circuit(rounds, sc.NoiseParams(1e-3))
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
                anc, data = sc._simulate_fault(circuit, (fault,))
                assert np.array_equal(unpacked[j, :table.bits],
                                      np.concatenate([anc.reshape(-1), data])), (loc, j)

    def test_any_subset_and_order_of_shots(self, noisy_circuit):
        shots = np.array([3, 2**40, 0, 77, 3], dtype=np.uint64)
        anc, data = sc._simulate_batch(noisy_circuit, 5, shots)
        for row, shot in enumerate(shots):
            a1, d1 = one_shot(noisy_circuit, 5, shot)
            assert np.array_equal(a1, anc[row]) and np.array_equal(d1, data[row])

    def test_empty_batch(self, noisy_circuit):
        anc, data = sc._simulate_batch(noisy_circuit, 5, np.zeros(0, dtype=np.uint64))
        assert anc.shape == (0, 3, 8) and data.shape == (0, 9)

    def test_fault_twice_on_one_instruction_rejected(self, noisy_circuit):
        fault = sc.FaultLocation(0, sc.NoiseKind.PREP_FLIP, (0,), 0)
        with pytest.raises(ValueError):
            sc._simulate_fault(noisy_circuit, [fault, fault])


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

    def test_label_rate_positive_below_half(self, noisy_circuit):
        anc, data = sc._simulate_batch(noisy_circuit, 11,
                                       np.arange(4000, dtype=np.uint64))
        _, labels = sc._events_batch(anc, data)
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


class TestSingleFaults:
    def test_noiseless_enumeration_is_empty(self):
        c = sc.build_memory_x_circuit(3, sc.NoiseParams(0.0))
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
