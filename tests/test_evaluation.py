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
    """`sc.syndrome_table` keyed on a void view of each row's bytes."""
    raw = np.ascontiguousarray(events).reshape(len(events), -1)
    keys = raw.view(np.dtype((np.void, raw.shape[1] * raw.itemsize))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    counts = np.bincount(inverse * 2 + labels, minlength=2 * len(first))
    return events[first], counts.reshape(-1, 2)


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
        rows, counts = sc.syndrome_table(events, labels)
        u = len(rows)
        assert rows.shape == (u, steps, 4) and rows.dtype == events.dtype
        assert counts.shape == (u, 2) and counts.dtype == np.int64
        keys = [r.tobytes() for r in rows]
        assert len(set(keys)) == u and keys == sorted(keys)
        assert counts.sum() == n and (counts.sum(axis=1) >= 1).all()
        shots = Counter((e.tobytes(), int(y)) for e, y in zip(events, labels))
        for key, (c0, c1) in zip(keys, counts):
            assert (shots[key, 0], shots[key, 1]) == (c0, c1)

        weights = rng.integers(-3, 4, steps * 4)

        def predict(x):
            return (x.reshape(len(x), -1).astype(np.int64) @ weights) % 2

        assert (sc.table_accuracy(predict, rows, counts)
                == (predict(events) == labels).mean())

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
            rows, counts = sc.syndrome_table(events, labels)
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
            rows, counts = sc.syndrome_table(d.events, d.labels)
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
            rows, counts = sc.syndrome_table(events, labels)
        assert bit_keys.call_count == 0
        want_rows, want_counts = void_key_table(events, labels)
        assert np.array_equal(rows.view(np.uint8), want_rows.view(np.uint8))
        assert np.array_equal(counts, want_counts)
        if case == "signed_zero":
            assert len(rows) == 4 and np.signbit(rows).any()

    def test_labels_must_be_bits(self):
        with pytest.raises(ValueError):
            sc.syndrome_table(np.zeros((2, 4, 4)), [0, 2])
        with pytest.raises(ValueError):
            sc.syndrome_table(np.zeros((2, 4, 4)), [0])

    def test_empty_table_rejected(self):
        rows, counts = sc.syndrome_table(np.zeros((0, 4, 4), np.uint8), np.zeros(0))
        assert rows.shape == (0, 4, 4) and counts.shape == (0, 2)
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

        rows, counts = sc.syndrome_table(self.EVENTS, self.LABELS)
        assert len(rows) == 1
        assert sc.table_accuracy(predict, rows, counts) == 0.4
        assert seen == [2]
        # one shot is one row on the per-shot path too
        seen.clear()
        rows, counts = sc.syndrome_table(self.EVENTS[:1], self.LABELS[1:2])
        assert sc.table_accuracy(predict, rows, counts) == 0.0
        assert seen == [1]

    def test_analog_and_digital_match_per_shot(self):
        params = rd.DecoderParams.initial(5)
        xcfg = am.CrossbarConfig()
        table = sc.syndrome_table(self.EVENTS, self.LABELS)
        for j in range(5):
            rng = spawn_generator(MASTER, j)
            chip = am.program_decoder(params, xcfg, am.FaultMap.sample(STUCK, rng), rng)
            bits = rd.logits_to_bits(am.analog_logits(chip, xcfg, self.EVENTS))
            per_shot = (bits == self.LABELS).mean()
            assert am.analog_accuracy(chip, xcfg, *table) == per_shot
        per_shot = (rd.predict_batch(params, self.EVENTS) == self.LABELS).mean()
        assert rd.accuracy(params, (self.EVENTS, self.LABELS)) == per_shot

    def test_plan_decodes_single_row_doubled(self):
        """On the plan path too, a one-row table of several shots is decoded
        as a doubled row (gemm) and a one-shot table as one row (gemv)."""
        params = rd.DecoderParams.initial(5)
        xcfg = am.CrossbarConfig()
        several = sc.syndrome_table(self.EVENTS, self.LABELS)
        single = sc.syndrome_table(self.EVENTS[:1], self.LABELS[1:2])
        plans = am.table_plans([several, single], xcfg)
        assert [plan.rows for plan in plans] == [2, 1]
        for j in range(5):
            rng = spawn_generator(MASTER, j)
            chip = am.program_decoder(params, xcfg, am.FaultMap.sample(STUCK, rng), rng)
            assert (plans[0].logits(chip).tobytes()
                    == am.analog_logits(chip, xcfg, self.EVENTS[:2]).tobytes())
            assert (plans[1].logits(chip).tobytes()
                    == am.analog_logits(chip, xcfg, self.EVENTS[:1]).tobytes())
            bits = rd.logits_to_bits(am.analog_logits(chip, xcfg, self.EVENTS))
            per_shot = (bits == self.LABELS).mean()
            assert am.analog_accuracy(chip, xcfg, *several, plans[0]) == per_shot
            alone = rd.logits_to_bits(am.analog_logits(chip, xcfg, self.EVENTS[:1]))[0] == 1
            assert am.analog_accuracy(chip, xcfg, *single, plans[1]) == float(alone)


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
            runs.append([(rd.logits_to_bits(am.analog_logits(chip, xcfg, tests[p].events))
                          == tests[p].labels).mean() for p in protocol.p_values])
    return np.asarray(runs)


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
            _, counts = sc.syndrome_table(tests[p].events, tests[p].labels)
            ceiling = counts.max(axis=1).sum() / counts.sum()
            assert (report.per_run_acc[:, k] <= ceiling).all()

    def test_one_plan_per_test_table(self, setup, monkeypatch):
        """Every chip of every run shares one analog plan per p; the digital
        baseline builds none."""
        configs, base, tests, protocol = setup
        protocol = replace(protocol, n_train_runs=1)
        built = []

        class CountingPlan(am.AnalogPlan):
            def __init__(self, events, cfg, work=None):
                built.append(len(events))
                super().__init__(events, cfg, work)

        monkeypatch.setattr(am, "AnalogPlan", CountingPlan)
        for scheme in ev.SCHEMES:
            built.clear()
            ev.evaluate_scheme(scheme, protocol, configs, STUCK, MASTER,
                               test_sets=tests, base_params=base)
            expected = ([] if scheme == "baseline" else
                        [len(sc.syndrome_table(tests[p].events, tests[p].labels)[0])
                         for p in protocol.p_values])
            assert built == expected, scheme

    def test_digital_accuracy_equals_per_shot(self, setup):
        _, base, tests, _ = setup
        for params in base:
            for d in tests.values():
                assert (rd.accuracy(params, d)
                        == (rd.predict_batch(params, d.events) == d.labels).mean())

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
        assert scored == per_shot

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
        report = ev.evaluate_scheme("baseline", protocol, configs, STUCK, MASTER,
                                    test_sets=tests,
                                    base_params=[rd.DecoderParams.zeros()])
        assert report.curve is not None
        assert report.pseudo_threshold is None
        assert report.pseudo_threshold_in_range is False


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

    def test_empty_base_params_rejected(self, setup):
        configs, _, tests, protocol = setup
        with pytest.raises(ValueError, match="base_params"):
            ev.evaluate_scheme("fp_mnd", protocol, configs, STUCK, MASTER,
                               test_sets=tests, base_params=[])

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rate_outside_unit_interval_rejected(self, setup, rate):
        configs, base, tests, protocol = setup
        with pytest.raises(ValueError):
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
