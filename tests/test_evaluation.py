from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdec import analog_model as am
from memdec import evaluation as ev
from memdec import hwa_training as hwa
from memdec import io_formats as iof
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc
from memdec.errors import DegenerateFitError, InsufficientDataError
from memdec.rng import Stage, derive_seed, spawn_generator

TEST_P = (1e-3, 1e-2)
MASTER = 91
STUCK = 0.1
# the benchmark's stored FP runs (distance 3, 3 rounds, trained at p = 5e-3),
# which CI regenerates bit for bit; they decode well above the label rate
CHECKPOINTS = Path(__file__).resolve().parents[1] / "bench" / "data"


def void_key_table(events: np.ndarray, labels: np.ndarray):
    """`sc.union_table` of one set, keyed on a void view of each row's bytes."""
    raw = np.ascontiguousarray(events).reshape(len(events), -1)
    keys = raw.view(np.dtype((np.void, raw.shape[1] * raw.itemsize))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    counts = np.bincount(inverse * 2 + labels, minlength=2 * len(first))
    return events[first], counts.reshape(-1, 1, 2)


class TestSyndromeTable:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           steps=st.integers(1, 5), density=st.floats(0.0, 0.5),
           dtype=st.sampled_from([np.uint8, np.float64, np.bool_]))
    def test_rows_distinct_counts_exact_accuracy_equal(self, seed, n, steps,
                                                       density, dtype):
        rng = np.random.default_rng(seed)
        events = (rng.random((n, steps, 4)) < density).astype(dtype)
        labels = rng.integers(0, 2, n)
        rows, counts = sc.union_table([(events, labels)])
        u = len(rows)
        assert rows.shape == (u, steps, 4) and rows.dtype == events.dtype
        assert counts.shape == (u, 1, 2) and counts.dtype == np.int64
        keys = [r.tobytes() for r in rows]
        assert len(set(keys)) == u and keys == sorted(keys)
        assert counts.sum() == n and (counts.sum(axis=(1, 2)) >= 1).all()
        shots = Counter((e.tobytes(), int(y)) for e, y in zip(events, labels))
        for key, (c0, c1) in zip(keys, counts[:, 0]):
            assert (shots[key, 0], shots[key, 1]) == (c0, c1)

        weights = rng.integers(-3, 4, steps * 4)

        def predict(x):
            return (x.reshape(len(x), -1).astype(np.int64) @ weights) % 2

        accuracy = sc.table_accuracy(predict, rows, counts)
        assert accuracy.dtype == np.float64
        assert accuracy.tolist() == [(predict(events) == labels).mean()]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           steps=st.integers(1, 8), density=st.floats(0.0, 0.5),
           dtype=st.sampled_from([np.uint8, np.bool_]))
    def test_integer_keys_equal_void_keys(self, seed, n, steps, density, dtype):
        """0/1 rows of up to 64 bytes (8 x 8 here) are keyed on an integer,
        which gives the table of the byte keys."""
        rng = np.random.default_rng(seed)
        events = (rng.random((n, steps, 8)) < density).astype(dtype)
        labels = rng.integers(0, 2, n)
        with mock.patch.object(sc, "_bit_keys", wraps=sc._bit_keys) as bit_keys:
            rows, counts = sc.union_table([(events, labels)])
        assert bit_keys.call_count == 1
        want_rows, want_counts = void_key_table(events, labels)
        assert rows.dtype == events.dtype and np.array_equal(rows, want_rows)
        assert np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("rounds, key_bytes", [(1, 1), (3, 2), (5, 4), (7, 4), (15, 8),
                                                   (16, None)])
    def test_sampled_tables_equal_void_keys(self, rounds, key_bytes):
        """Sampled rows of 8 to 64 events take the narrowest integer key that
        holds them; a row of 68 events takes the byte key. Either way the
        rows, their order and the counts are those of the byte keys."""
        d = sc.generate_dataset([3e-3], 3000, rounds, seed=40 + rounds, split_tag="test")
        keys, bit_keys = [], sc._bit_keys

        def recording(raw):
            keys.append(bit_keys(raw))
            return keys[-1]

        with mock.patch.object(sc, "_bit_keys", recording):
            rows, counts = sc.union_table([(d.events, d.labels)])
        assert [k.dtype for k in keys] == ([] if key_bytes is None
                                           else [np.dtype(f">u{key_bytes}")])
        want_rows, want_counts = void_key_table(d.events, d.labels)
        assert 1 < len(rows) < len(d.events)
        assert rows.tobytes() == want_rows.tobytes()
        assert np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("case", ["wide", "byte_2", "signed_zero"])
    def test_void_key_fallback(self, case):
        """Rows of more than 64 bytes, or with a byte other than 0 and 1, keep
        the byte key: -0.0 and 0.0 stay distinct rows."""
        rng = np.random.default_rng(5)
        if case == "wide":
            events = rng.integers(0, 2, (200, 9, 8)).astype(np.uint8)
        elif case == "byte_2":
            events = rng.integers(0, 2, (200, 2, 8)).astype(np.uint8)
            events[7, 1, 3] = 2
        else:
            events = np.zeros((200, 2, 2))
            events[::3, 0, 1] = -0.0
            events[::5, 1, 0] = 1.0
        labels = rng.integers(0, 2, len(events))
        with mock.patch.object(sc, "_bit_keys", wraps=sc._bit_keys) as bit_keys:
            rows, counts = sc.union_table([(events, labels)])
        assert bit_keys.call_count == 0
        want_rows, want_counts = void_key_table(events, labels)
        assert np.array_equal(rows.view(np.uint8), want_rows.view(np.uint8))
        assert np.array_equal(counts, want_counts)
        if case == "signed_zero":
            assert len(rows) == 4 and np.signbit(rows).any()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), steps=st.integers(1, 8),
           density=st.floats(0.0, 0.5), dtype=st.sampled_from([np.uint8, np.float64, np.bool_]))
    def test_union_equals_byte_keys_of_every_set(self, seed, k, steps, density, dtype):
        """The union of k sets holds each row of any set once, in byte
        order, with each set's counts (zero where a set lacks the row),
        whether one sort of joined keys (a row's bits and its code fit in 64
        bits), `np.unique` on integer keys or on byte keys built it."""
        rng = np.random.default_rng(seed)
        sets = [((rng.random((n, steps, 8)) < density).astype(dtype), rng.integers(0, 2, n))
                for n in rng.integers(1, 120, k)]
        rows, counts = sc.union_table(sets)
        assert rows.dtype == np.dtype(dtype) and counts.shape == (len(rows), k, 2)
        events = np.concatenate([e for e, _ in sets])
        codes = np.concatenate([y + 2 * j for j, (_, y) in enumerate(sets)])
        want_rows, _ = void_key_table(events, np.zeros(len(events), np.intp))
        assert rows.tobytes() == want_rows.tobytes()
        inverse = {r.tobytes(): i for i, r in enumerate(rows)}
        want = np.zeros((len(rows), 2 * k), np.int64)
        for e, c in zip(events, codes):
            want[inverse[e.tobytes()], c] += 1
        assert np.array_equal(counts.reshape(len(rows), -1), want)
        for j, (e, y) in enumerate(sets):
            present = counts[:, j].any(axis=1)
            alone = sc.union_table([(e, y)])
            assert rows[present].tobytes() == alone[0].tobytes()
            assert np.array_equal(counts[present, j], alone[1][:, 0])

    def test_union_of_unlike_rows_rejected(self):
        with pytest.raises(ValueError, match="one or more sets"):
            sc.union_table([])
        for other in (np.zeros((2, 3, 4), np.uint8), np.zeros((2, 4, 4), np.float64)):
            with pytest.raises(ValueError, match="differ in shape or dtype"):
                sc.union_table([(np.zeros((2, 4, 4), np.uint8), [0, 1]), (other, [0, 1])])

    def test_union_with_an_empty_set_not_scored(self):
        events = np.zeros((3, 4, 4), np.uint8)
        rows, counts = sc.union_table([(events, [0, 1, 1]), (events[:0], [])])
        assert counts.tolist() == [[[1, 2], [0, 0]]]
        with pytest.raises(ValueError, match="every set"):
            sc.table_accuracy(lambda r: np.zeros(len(r), int), rows, counts)

    def test_one_shot_set_of_a_union_predicted_alone(self):
        """A one-shot set of a union batch of several rows is scored by a
        prediction of its row alone: a one-row batch may take other bits
        (gemv), and here the predictor flips them."""
        rng = np.random.default_rng(8)
        big = (rng.random((50, 3, 4)) < 0.3).astype(np.uint8)
        one = big[7:8]
        seen = []

        def predict(r):
            seen.append(len(r))
            return np.full(len(r), int(len(r) == 1))

        rows, counts = sc.union_table([(big, rng.integers(0, 2, 50)), (one, [1])])
        accuracy = sc.table_accuracy(predict, rows, counts)
        assert seen == [len(rows), 1]
        assert accuracy[1] == 1.0
        assert accuracy[0] == (counts[:, 0, 0].sum() / 50)

    def test_labels_must_be_bits(self):
        with pytest.raises(ValueError):
            sc.union_table([(np.zeros((2, 4, 4)), [0, 2])])
        with pytest.raises(ValueError):
            sc.union_table([(np.zeros((2, 4, 4)), [0])])

    def test_empty_table_rejected(self):
        rows, counts = sc.union_table([(np.zeros((0, 4, 4), np.uint8), np.zeros(0))])
        assert rows.shape == (0, 4, 4) and counts.shape == (0, 1, 2)
        with pytest.raises(ValueError):
            sc.table_accuracy(lambda r: np.zeros(len(r), int), rows, counts)


class TestSingleSyndrome:
    """A one-row batch goes through gemv, whose bits can differ from a row of
    a gemm; a table of one row standing for several shots must still decode
    as the per-shot batch does."""

    EVENTS = np.repeat(np.array([[[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0]]],
                                np.uint8), 5, axis=0)
    LABELS = np.array([0, 1, 1, 0, 1], np.uint8)

    def test_single_row_decoded_as_a_batch(self):
        seen = []

        def predict(r):
            seen.append(len(r))
            return np.zeros(len(r), np.int64)

        rows, counts = sc.union_table([(self.EVENTS, self.LABELS)])
        assert len(rows) == 1
        assert sc.table_accuracy(predict, rows, counts).tolist() == [0.4]
        assert seen == [2]
        # one shot is one row on the per-shot path too
        seen.clear()
        rows, counts = sc.union_table([(self.EVENTS[:1], self.LABELS[1:2])])
        assert sc.table_accuracy(predict, rows, counts).tolist() == [0.0]
        assert seen == [1]

    def test_analog_and_digital_match_per_shot(self):
        params = rd.DecoderParams.initial(5)
        xcfg = am.CrossbarConfig()
        table = sc.union_table([(self.EVENTS, self.LABELS)])
        plan = am.AnalogPlan(sc.table_batch(*table), xcfg)
        for j in range(5):
            rng = spawn_generator(MASTER, j)
            chip = am.program_decoder(params, xcfg, am.FaultMap.sample(STUCK, rng), rng)
            bits = rd.logits_to_bits(am.AnalogPlan(self.EVENTS, xcfg).logits(chip))
            per_shot = (bits == self.LABELS).mean()
            assert am.analog_accuracy(chip, plan, *table).tolist() == [per_shot]
        bits = rd.logits_to_bits(rd.forward_batch(params, self.EVENTS)[2])
        assert rd.accuracy(params, *table).tolist() == [(bits == self.LABELS).mean()]

    def test_plan_decodes_single_row_doubled(self):
        """On the plan path too, a one-row union table of several shots is
        decoded as a doubled row (gemm), and a one-shot set in it once more
        as one row (gemv), as each set is decoded on its own."""
        params = rd.DecoderParams.initial(5)
        xcfg = am.CrossbarConfig()
        rows, counts = sc.union_table([(self.EVENTS, self.LABELS),
                                       (self.EVENTS[:1], self.LABELS[1:2])])
        assert len(rows) == 1 and counts.tolist() == [[[2, 3], [0, 1]]]
        plan = am.AnalogPlan(sc.table_batch(rows, counts), xcfg)
        assert plan.rows == 2
        for j in range(5):
            rng = spawn_generator(MASTER, j)
            chip = am.program_decoder(params, xcfg, am.FaultMap.sample(STUCK, rng), rng)
            assert (plan.logits(chip).tobytes()
                    == am.AnalogPlan(self.EVENTS[:2], xcfg).logits(chip).tobytes())
            bits = rd.logits_to_bits(am.AnalogPlan(self.EVENTS, xcfg).logits(chip))
            alone = rd.logits_to_bits(am.AnalogPlan(self.EVENTS[:1], xcfg).logits(chip))[0] == 1
            assert (am.analog_accuracy(chip, plan, rows, counts).tolist()
                    == [(bits == self.LABELS).mean(), float(alone)])
        bits = rd.logits_to_bits(rd.forward_batch(params, self.EVENTS)[2])
        alone = rd.logits_to_bits(rd.forward_batch(params, self.EVENTS[:1])[2])[0] == 1
        assert (rd.accuracy(params, rows, counts).tolist()
                == [(bits == self.LABELS).mean(), float(alone)])


@pytest.fixture(scope="module")
def setup():
    train = sc.generate_dataset([5e-3], 3000, 3, seed=71)
    val = sc.generate_dataset([5e-3], 800, 3, seed=72, split_tag="validation")
    configs = ev.SchemeConfigs(train, val, rd.TrainConfig(epochs=2),
                               hwa.RetrainConfig(epochs=1))
    base = [iof.load_checkpoint(CHECKPOINTS / f"fp_run{i}.mdck")[0] for i in (0, 1)]
    tests = {p: sc.generate_dataset([p], 3000, 3, seed=73 + i, split_tag="test")
             for i, p in enumerate(TEST_P)}
    protocol = ev.EvalProtocol(n_train_runs=2, n_infer_runs=3, test_shots=3000,
                               p_values=TEST_P, rounds=3)
    return configs, base, tests, protocol


def per_shot_reference(scheme, protocol, configs, tests, base):
    """The error-bar protocol with every test shot decoded on its own."""
    xcfg = configs.crossbar_config
    runs = []
    for i in range(protocol.n_train_runs):
        params, chip_map = base[i], None
        if scheme == "ds_mnd":
            chip_map = am.FaultMap.sample(STUCK, spawn_generator(MASTER, Stage.CHIP, i))
            rcfg = replace(configs.retrain_config, seed=derive_seed(MASTER, Stage.RETRAIN, i))
            params = hwa.retrain_ds(params, configs.train_set, configs.val_set, rcfg, chip_map)
        for j in range(protocol.n_infer_runs):
            rng = spawn_generator(MASTER, Stage.PROGRAM, i, j)
            fmap = chip_map if chip_map is not None else am.FaultMap.sample(STUCK, rng)
            chip = am.program_decoder(params, xcfg, fmap, rng)
            runs.append([(rd.logits_to_bits(am.AnalogPlan(tests[p].events, xcfg).logits(chip))
                          == tests[p].labels).mean() for p in protocol.p_values])
    return np.asarray(runs)


def per_shot_baseline(protocol, tests, base):
    """The baseline's runs with every test set decoded digitally on its own."""
    return np.asarray([[(rd.logits_to_bits(rd.forward_batch(base[i], tests[p].events)[2])
                         == tests[p].labels).mean() for p in protocol.p_values]
                       for i in range(protocol.n_train_runs)])


class TestEvaluateScheme:
    @pytest.mark.parametrize("scheme", ["fp_mnd", "ds_mnd"])
    def test_per_run_acc_equals_per_shot_reference(self, setup, scheme):
        configs, base, tests, protocol = setup
        report = ev.evaluate_scheme(scheme, protocol, configs, STUCK, MASTER,
                                    test_sets=tests, base_params=base)
        assert report.per_run_acc.shape == (6, 2)
        assert np.array_equal(report.per_run_acc,
                              per_shot_reference(scheme, protocol, configs, tests, base))
        # the chips decode differently, so the comparison can see a decoding
        # difference, and better than the always-0 predictor
        for k, p in enumerate(protocol.p_values):
            assert len(np.unique(report.per_run_acc[:, k])) > 1
            assert report.per_run_acc[:, k].mean() > 1.0 - tests[p].labels.mean()

    @pytest.mark.parametrize("scheme", ev.SCHEMES)
    def test_lookup_table_ceiling(self, setup, scheme):
        """No deterministic decoder beats the test set's in-sample lookup
        table: the majority label of every distinct syndrome."""
        configs, base, tests, protocol = setup
        report = ev.evaluate_scheme(scheme, protocol, configs, STUCK, MASTER,
                                    test_sets=tests, base_params=base)
        for k, p in enumerate(protocol.p_values):
            counts = sc.union_table([(tests[p].events, tests[p].labels)])[1][:, 0]
            ceiling = counts.max(axis=1).sum() / counts.sum()
            assert (report.per_run_acc[:, k] <= ceiling).all()

    @pytest.mark.parametrize("case", ["one_shot_beside_larger", "one_row_of_several_shots",
                                      "three_rates"])
    @pytest.mark.parametrize("scheme", ["baseline", "fp_mnd"])
    def test_union_table_equals_per_shot_reference(self, setup, scheme, case):
        """Every fault rate scored from one union table equals decoding each
        set on its own: a one-shot set is decoded on gemv beside a larger
        set, and a set of one row of several shots as a doubled row."""
        configs, base, tests, protocol = setup
        sets = dict(tests)
        low = tests[TEST_P[0]]
        if case == "one_shot_beside_larger":
            sets[TEST_P[0]] = low.subset(np.arange(1))
            # its one row is also a row of the larger set
            assert (low.events[0] == tests[TEST_P[1]].events).all(axis=(1, 2)).any()
        elif case == "one_row_of_several_shots":
            sets[TEST_P[0]] = low.subset(np.zeros(7, np.intp))
            sets[TEST_P[0]].labels[:] = [0, 1, 0, 0, 1, 1, 0]
        else:
            sets[5e-3] = sc.generate_dataset([5e-3], 3000, 3, seed=75, split_tag="test")
            protocol = replace(protocol, p_values=(TEST_P[0], 5e-3, TEST_P[1]))
        report = ev.evaluate_scheme(scheme, protocol, configs, STUCK, MASTER,
                                    test_sets=sets, base_params=base)
        if scheme == "baseline":
            want = per_shot_baseline(protocol, sets, base)
        else:
            want = per_shot_reference(scheme, protocol, configs, sets, base)
        assert report.per_run_acc.shape == want.shape
        assert np.array_equal(report.per_run_acc, want)

    def test_one_plan_per_evaluation(self, setup, monkeypatch):
        """Every chip of every run shares one analog plan, over the union of
        the test sets' distinct rows; the digital baseline builds none."""
        configs, base, tests, protocol = setup
        protocol = replace(protocol, n_train_runs=1)
        built = []

        class CountingPlan(am.AnalogPlan):
            def __init__(self, events, cfg):
                built.append(len(events))
                super().__init__(events, cfg)

        monkeypatch.setattr(am, "AnalogPlan", CountingPlan)
        union = sc.union_table([(tests[p].events, tests[p].labels) for p in protocol.p_values])
        for scheme in ev.SCHEMES:
            built.clear()
            ev.evaluate_scheme(scheme, protocol, configs, STUCK, MASTER,
                               test_sets=tests, base_params=base)
            assert built == ([] if scheme == "baseline" else [len(union[0])]), scheme
        assert len(union[0]) < sum(len(sc.union_table([(tests[p].events, tests[p].labels)])[0])
                                   for p in protocol.p_values)

    def test_digital_accuracy_equals_per_shot(self, setup):
        _, base, tests, _ = setup
        for params in base:
            for d in tests.values():
                bits = rd.logits_to_bits(rd.forward_batch(params, d.events)[2])
                assert (rd.accuracy(params, *sc.union_table([(d.events, d.labels)])).tolist()
                        == [(bits == d.labels).mean()])

    def test_every_digital_table_scored_through_rd_accuracy(self, setup, monkeypatch):
        """Training's and retraining's validation and the baseline's test
        tables are all scored by `rd.accuracy`, looked up on the module at
        each call: once per epoch, once per validation draw per epoch, and
        once per training run, over every fault rate at once."""
        configs, base, tests, protocol = setup
        scores = []
        accuracy = rd.accuracy

        def counted(*args):
            scores.append(accuracy(*args))
            return scores[-1]

        monkeypatch.setattr(rd, "accuracy", counted)
        train_cfg = rd.TrainConfig(epochs=2, seed=3)
        rd.train_fp(configs.train_set, configs.val_set, train_cfg)
        assert len(scores) == train_cfg.epochs
        scores.clear()
        rcfg = hwa.RetrainConfig(epochs=2)
        hwa.retrain_hwa(base[0], configs.train_set, configs.val_set, rcfg, STUCK)
        assert len(scores) == rcfg.epochs * hwa.VAL_DRAWS
        scores.clear()
        report = ev.evaluate_scheme("baseline", protocol, configs, STUCK, MASTER,
                                    test_sets=tests, base_params=base)
        assert len(scores) == protocol.n_train_runs
        assert np.array_equal(np.asarray(scores), report.per_run_acc)

    @pytest.mark.parametrize("runs", [0, 1])
    def test_fewer_base_params_than_runs_rejected(self, setup, monkeypatch, runs):
        # an empty list was refused, but one base run was reused for every
        # training run, so the report gave one run's spread as that of several
        configs, base, tests, protocol = setup
        monkeypatch.setattr(rd, "train_fp", None)
        with pytest.raises(ValueError, match=f"holds {runs} of {protocol.n_train_runs} runs"):
            ev.evaluate_scheme("fp_mnd", protocol, configs, STUCK, MASTER,
                               test_sets=tests, base_params=base[:runs])

    def test_retrain_validation_equals_per_shot(self, setup, monkeypatch):
        # each validation draw's table accuracy equals its per-shot accuracy,
        # with the keep-mask and noise of the streams keyed 1_000_000 + epoch;
        # a one-epoch retraining returns the parameters those draws perturb
        configs, base, _, _ = setup
        val = configs.val_set
        cfg, p_drop = hwa.RetrainConfig(io_discretize=True, epochs=1, seed=4), 0.1
        io = hwa._converters(cfg, am.CrossbarConfig())
        scored = []
        table_accuracy = rd.table_accuracy

        def record(predict, rows, counts):
            scored.append(table_accuracy(predict, rows, counts))
            return scored[-1]

        monkeypatch.setattr(rd, "table_accuracy", record)
        out = hwa.retrain_hwa(base[0], configs.train_set, val, cfg, p_drop)
        per_shot = []
        for draw in range(hwa.VAL_DRAWS):
            keep = hwa._random_keep(p_drop, spawn_generator(cfg.seed, Stage.MASK,
                                                            1_000_000, draw))
            noise_rng = spawn_generator(cfg.seed, Stage.NOISE, 1_000_000, draw)
            eff = hwa._perturbed(out, keep, cfg.noise_relative, noise_rng)
            logits = rd.forward_batch(eff, val.events, io)[2]
            per_shot.append(float((rd.logits_to_bits(logits) == val.labels).mean()))
        assert np.concatenate(scored).tolist() == per_shot

    @pytest.mark.parametrize("scheme,fn", [("hwa_mnd", "retrain_hwa"),
                                           ("ds_mnd", "retrain_ds")])
    def test_retraining_gets_train_and_crossbar_configs(self, setup, monkeypatch,
                                                        scheme, fn):
        configs, base, tests, protocol = setup
        configs = replace(configs, train_config=rd.TrainConfig(epochs=2, batch_size=64),
                          crossbar_config=am.CrossbarConfig(levels=16, adc_bound=2.0))
        calls = []

        def record(params, dataset, val, config, rate_or_map, train_config,
                   crossbar_config):
            calls.append((train_config, crossbar_config))
            return params

        monkeypatch.setattr(hwa, fn, record)
        ev.evaluate_scheme(scheme, protocol, configs, STUCK, MASTER,
                           test_sets=tests, base_params=base)
        assert calls == ([(configs.train_config, configs.crossbar_config)]
                         * protocol.n_train_runs)

    def test_overflowing_threshold_reported_out_of_range(self, setup, monkeypatch):
        configs, _, tests, protocol = setup
        monkeypatch.setattr(ev, "fit_monomial",
                            lambda points: ev.CurveFit(a=10.0, b=0.999, residual=0.0))
        zeros = [rd.DecoderParams.zeros()] * protocol.n_train_runs
        report = ev.evaluate_scheme("baseline", protocol, configs, STUCK, MASTER,
                                    test_sets=tests, base_params=zeros)
        assert report.curve is not None
        assert report.pseudo_threshold is None
        assert report.pseudo_threshold_in_range is False

    def test_single_usable_point_gives_no_curve(self, setup):
        # zero parameters predict 0, so a test set of 0 labels has lfr 0 and
        # leaves one usable point, which fit_monomial refuses
        configs, _, tests, protocol = setup
        low = tests[TEST_P[0]]
        sets = {**tests, TEST_P[0]: replace(low, labels=np.zeros_like(low.labels))}
        zeros = [rd.DecoderParams.zeros()] * protocol.n_train_runs
        with mock.patch.object(ev, "fit_monomial", wraps=ev.fit_monomial) as fit:
            report = ev.evaluate_scheme("baseline", protocol, configs, STUCK, MASTER,
                                        test_sets=sets, base_params=zeros)
        assert report.acc_mean[0] == 1.0 and report.acc_mean[1] < 1.0
        assert fit.call_count == 1   # its rule, and no other, decides
        assert (report.curve, report.pseudo_threshold,
                report.pseudo_threshold_in_range) == (None, None, None)
        assert report.to_dict()["curve"] is None

    def test_repeated_fault_rate_gives_no_curve(self, setup):
        # both points sit at one p, where the slope is not determined; a
        # minimum-norm least-squares fit used to report one
        configs, base, tests, protocol = setup
        protocol = replace(protocol, p_values=(TEST_P[1], TEST_P[1]))
        report = ev.evaluate_scheme("baseline", protocol, configs, STUCK, MASTER,
                                    test_sets=tests, base_params=base)
        assert report.acc_mean[0] == report.acc_mean[1] < 1.0
        assert (report.curve, report.pseudo_threshold,
                report.pseudo_threshold_in_range) == (None, None, None)

    @pytest.mark.parametrize("fault", ["missing rate", "other rounds"])
    def test_test_sets_checked_before_training(self, setup, monkeypatch, fault):
        # a missing rate used to raise a bare KeyError after training, and a
        # set of other rounds was decoded without complaint
        configs, _, tests, protocol = setup

        def no_training(*args):
            raise AssertionError("trained before checking the test sets")

        monkeypatch.setattr(rd, "train_fp", no_training)
        sets = dict(tests)
        if fault == "missing rate":
            del sets[TEST_P[1]]
        else:
            sets[TEST_P[1]] = sc.generate_dataset([TEST_P[1]], 50, 5, seed=5, split_tag="test")
        with pytest.raises(ValueError, match="rate" if fault == "missing rate" else "rounds"):
            ev.evaluate_scheme("fp_mnd", protocol, configs, STUCK, MASTER, test_sets=sets)


    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_master_seed_outside_the_64_bit_range_rejected(self, setup, monkeypatch,
                                                           master_seed):
        # a seed of -1 used to train and program what 2^64 - 1 does
        configs, _, _, protocol = setup

        def nothing(*args, **kwargs):
            raise AssertionError("sampled or trained before checking the seed")

        monkeypatch.setattr(rd, "train_fp", nothing)
        monkeypatch.setattr(sc, "generate_dataset", nothing)
        with pytest.raises(ValueError, match="master_seed"):
            ev.evaluate_scheme("fp_mnd", protocol, configs, STUCK, master_seed)


    @pytest.mark.parametrize("scheme, stuck_rate, p_drop, message", [
        ("fp_mnd", 2.0, None, "stuck_rate must be a probability in [0, 1], got 2.0"),
        ("ds_mnd", float("nan"), None, "stuck_rate must be a probability in [0, 1], got nan"),
        ("hwa_mnd", 1.0, None, "p_drop must be a probability in [0, 1), got 1.0"),
        ("hwa_mnd", 0.1, 1.0, "p_drop must be a probability in [0, 1), got 1.0")])
    def test_rates_checked_before_training(self, setup, monkeypatch, scheme, stuck_rate,
                                           p_drop, message):
        # each used to raise only after one or more runs had trained
        configs, _, tests, protocol = setup

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the rates")

        monkeypatch.setattr(rd, "train_fp", no_training)
        with pytest.raises(ValueError) as info:
            ev.evaluate_scheme(scheme, protocol, configs, stuck_rate, MASTER,
                               test_sets=tests, p_drop=p_drop)
        assert str(info.value) == message


class TestStuckSweep:
    def test_hwa_rows_equal_direct_evaluations(self, setup):
        configs, base, tests, protocol = setup
        base = base[:1]
        protocol = replace(protocol, n_train_runs=1, n_infer_runs=2, p_values=(1e-2,))
        rates, drops = (0.0, 0.2), (0.05, 0.3)
        rows = ev.stuck_sweep("hwa_mnd", rates, protocol, configs, MASTER,
                              p_drop_values=drops, test_sets=tests, base_params=base)
        assert [(r["stuck_rate"], r["p_drop"]) for r in rows] == [
            (rate, d) for rate in rates for d in drops]
        for row in rows:
            report = ev.evaluate_scheme("hwa_mnd", protocol, configs, row["stuck_rate"],
                                        MASTER, test_sets=tests, base_params=base,
                                        p_drop=row["p_drop"])
            assert row == {"scheme": "hwa_mnd", "stuck_rate": row["stuck_rate"],
                           "p_drop": row["p_drop"], "acc_mean": report.acc_mean[0],
                           "acc_std": report.acc_std[0]}
        assert len({r["acc_mean"] for r in rows}) > 1

    @pytest.mark.parametrize("rates, drops", [([0.1], [0.1, 1.0]), ([0.1, 1.0], None)])
    def test_drop_rates_checked_before_training(self, setup, monkeypatch, rates, drops):
        # a drop rate of 1, given or taken from a later stuck rate, used to
        # raise only after the evaluations before it had trained
        configs, _, tests, protocol = setup

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the drop rates")

        monkeypatch.setattr(rd, "train_fp", no_training)
        with pytest.raises(ValueError) as info:
            ev.stuck_sweep("hwa_mnd", rates, protocol, configs, MASTER,
                           p_drop_values=drops, test_sets=tests)
        assert str(info.value) == "p_drop must be a probability in [0, 1), got 1.0"

    def test_protocol_of_several_rates_rejected_before_sampling(self, setup, monkeypatch):
        # a row holds one accuracy: the first rate's was reported and the
        # others dropped
        configs, _, _, protocol = setup

        def nothing(*args, **kwargs):
            raise AssertionError("sampled or trained before checking the protocol")

        monkeypatch.setattr(rd, "train_fp", nothing)
        monkeypatch.setattr(sc, "generate_dataset", nothing)
        with pytest.raises(ValueError) as info:
            ev.stuck_sweep("fp_mnd", [0.0, 0.1], protocol, configs, MASTER)
        assert str(info.value) == ("stuck_sweep needs a protocol of one fault rate, "
                                   f"got p_values {TEST_P}")

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_outside_unit_interval_rejected(self, setup, rate):
        configs, base, tests, protocol = setup
        protocol = replace(protocol, p_values=(1e-2,))
        with pytest.raises(ValueError, match="stuck_rate must be"):
            ev.stuck_sweep("fp_mnd", [0.1, rate], protocol, configs, MASTER,
                           test_sets=tests, base_params=base)


class TestCurveFit:
    def test_recovers_monomial(self):
        points = [(p, 30.0 * p ** 1.8) for p in np.geomspace(1e-4, 1e-2, 6)]
        fit = ev.fit_monomial(points)
        assert fit.a == pytest.approx(30.0, rel=1e-9)
        assert fit.b == pytest.approx(1.8, rel=1e-12)
        assert fit.residual < 1e-12 and fit.n_excluded == 0

    def test_zero_lfr_points_excluded(self):
        fit = ev.fit_monomial([(1e-3, 0.0), (1e-3, 1e-4), (1e-2, 1e-2)])
        assert fit.n_excluded == 1
        assert fit.b == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(InsufficientDataError):
            ev.fit_monomial([(1e-3, 0.0), (1e-2, 1e-2)])

    @pytest.mark.parametrize("points", [[(1e-3, 1e-4), (1e-3, 2e-4)],
                                        [(1e-3, 1e-4), (1e-3, 2e-4), (1e-2, 0.0)]])
    def test_one_distinct_rate_refused(self, points):
        # lstsq's minimum-norm solution of the rank-1 design gave b = 1.2568
        # and a pseudo-threshold of 2.03
        with pytest.raises(InsufficientDataError, match="got 1$"):
            ev.fit_monomial(points)

    def test_pseudo_threshold_crosses_lfr_equals_p(self):
        fit = ev.fit_monomial([(p, 100.0 * p ** 2) for p in (1e-4, 1e-3, 1e-2)])
        p_star = ev.pseudo_threshold(fit)
        assert p_star == pytest.approx(0.01, rel=1e-9)
        assert fit.a * p_star ** fit.b == pytest.approx(p_star, rel=1e-9)

    def test_parallel_curve_degenerate(self):
        with pytest.raises(DegenerateFitError):
            ev.pseudo_threshold(ev.CurveFit(a=2.0, b=1.0, residual=0.0))

    def test_overflow_degenerate(self):
        # 10^(1/(1-0.999)) = 10^1000 is beyond float range
        fit = ev.fit_monomial([(p, 10.0 * p ** 0.999) for p in (1e-4, 1e-3, 1e-2)])
        assert fit.b == pytest.approx(0.999, rel=1e-12)
        with pytest.raises(DegenerateFitError):
            ev.pseudo_threshold(fit)
        with pytest.raises(DegenerateFitError):
            ev.pseudo_threshold(ev.CurveFit(a=0.0, b=2.0, residual=0.0))
