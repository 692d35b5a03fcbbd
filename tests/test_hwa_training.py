from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdec import analog_model as am
from memdec import hwa_training as hwa
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc
from memdec.rng import Stage, spawn_generator


@pytest.fixture(scope="module")
def small_data():
    train = sc.generate_dataset([1e-3, 1e-2], 3000, 3, seed=61)
    val = sc.generate_dataset([1e-3, 1e-2], 600, 3, seed=62, split_tag="validation")
    return train, val


@pytest.fixture(scope="module")
def fp_params(small_data):
    train, val = small_data
    return rd.train_fp(train, val, rd.TrainConfig(epochs=4, seed=23))


def masked_loss_grads(params, keep, events, labels):
    """Loss and gradients as `_retrain`'s step forms them, noise off: the
    masked forward pass, then the gradients masked by `keep`."""
    eff = hwa._perturbed(params, keep, 0.0, None)
    loss, grads = rd.loss_and_grads(eff, events, labels)
    grads.flat *= keep
    return loss, grads


class TestDropconnectMask:
    """The keep-mask `_random_keep` draws over `DecoderParams.flat`."""

    def test_keep_all_and_drop_all(self):
        rng = np.random.default_rng(0)
        keep = hwa._random_keep(0.0, rng)
        assert keep.shape == (rd.N_PARAMS,) and keep.dtype == np.float64
        assert (keep == 1.0).all()
        assert (hwa._random_keep(1.0, rng) == 0.0).all()

    def test_drop_fraction(self):
        rng = np.random.default_rng(1)
        out = np.empty(rd.N_PARAMS)
        masks = [hwa._random_keep(0.2, rng, out).copy() for _ in range(300)]
        assert set(np.unique(masks)) == {0.0, 1.0}
        assert abs(np.mean(masks) - 0.8) < 0.01

    def test_bad_rate_rejected(self, small_data, fp_params):
        train, val = small_data
        for p_drop in (-0.1, 1.2):
            with pytest.raises(ValueError, match="p_drop must be a probability in"):
                hwa.retrain_hwa(fp_params, train, val, hwa.RetrainConfig(epochs=1), p_drop)


class TestDraws:
    def test_keep_masks_equal_the_float_threshold_reference(self):
        # p_drop 0 keeps everything, and an entry whose uniform equals
        # p_drop is kept; each _draws call compares with its own p_drop
        cfg, key, count = hwa.RetrainConfig(seed=82), 3, 5
        uniforms = [spawn_generator(cfg.seed, Stage.MASK, key, i).random(rd.N_PARAMS)
                    for i in range(count)]
        tie = float(uniforms[2][17])
        for p_drop in (0.0, 0.25, tie, 0.9, float(uniforms[4].max()), 0.25):
            draw = hwa._draws(cfg, p_drop, None, key, count)
            for i, u in enumerate(uniforms):
                keep, _ = draw(i)
                assert keep.tobytes() == (u >= p_drop).astype(np.float64).tobytes()
                if p_drop == tie and i == 2:
                    assert keep[17] == 1.0 and 0.0 < keep.sum() < rd.N_PARAMS
                if p_drop == 0.0:
                    assert keep.all()


class TestClipWeights:
    def test_huge_alpha_is_identity(self):
        rng = np.random.default_rng(2)
        params = rd.DecoderParams(rng.normal(size=(20, 16)), rng.normal(size=16),
                                  rng.normal(size=(16, 2)), rng.normal(size=2))
        before = params.copy()
        hwa.clip_weights(params, 1e9)
        assert np.array_equal(params.flat, before.flat)

    def test_hand_computed_clip(self):
        params = rd.DecoderParams.zeros()
        params.w_eval[0, 0] = -3.0
        params.w_eval[1, 0] = 3.0
        pool = np.concatenate([params.w_eval.ravel(), params.b_eval.ravel()])
        sigma = pool.std()
        hwa.clip_weights(params, 0.5)
        bound = 0.5 * sigma
        assert bound < 3.0
        assert params.w_eval[0, 0] == -bound and params.w_eval[1, 0] == bound

    def test_degenerate_equal_layer_goes_to_zero(self):
        params = rd.DecoderParams.zeros()
        params.w_rec[:] = 2.0
        params.b_rec[:] = 2.0
        hwa.clip_weights(params, 3.0)
        assert not params.w_rec.any() and not params.b_rec.any()

    def test_fixed_bound_idempotence(self):
        rng = np.random.default_rng(3)
        params = rd.DecoderParams(rng.normal(size=(20, 16)), rng.normal(size=16),
                                  rng.normal(size=(16, 2)), rng.normal(size=2))
        pool = np.concatenate([params.w_rec.ravel(), params.b_rec.ravel()])
        bound = 1.0 * pool.std()
        once = np.clip(params.w_rec, -bound, bound)
        twice = np.clip(once, -bound, bound)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.0, -1.5])
    def test_bad_alpha_rejected(self, alpha):
        # refused like RetrainConfig.clip_scale, leaving the parameters as
        # they were
        params = rd.DecoderParams(*(np.random.default_rng(4).normal(size=shape)
                                    for shape in ((20, 16), 16, (16, 2), 2)))
        before = params.flat.tobytes()
        with pytest.raises(ValueError, match="alpha must be a positive real"):
            hwa.clip_weights(params, alpha)
        assert params.flat.tobytes() == before

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6),
           alpha=st.floats(0.05, 6.0), draw=st.sampled_from(["normal", "cauchy", "ints"]),
           constant_unit=st.sampled_from([None, 0, 1]))
    def test_clipped_bytes_equal_np_std_clip(self, seed, scale, alpha, draw,
                                             constant_unit):
        rng = np.random.default_rng(seed)
        flat = {"normal": lambda: rng.normal(scale=scale, size=rd.N_PARAMS),
                "cauchy": lambda: scale * rng.standard_cauchy(rd.N_PARAMS),
                "ints": lambda: rng.integers(-3, 4, rd.N_PARAMS).astype(float)}[draw]()
        if constant_unit is not None:
            flat[rd.UNIT_SLICES[constant_unit]] = flat[0]
        expected = flat.copy()
        for unit in rd.UNIT_SLICES:
            pool = expected[unit]
            bound = alpha * float(pool.std())
            np.clip(pool, -bound, bound, out=pool)
        params = rd.DecoderParams.from_flat(flat)
        hwa.clip_weights(params, alpha)
        assert params.flat.tobytes() == expected.tobytes()


class TestMaskedGradients:
    def test_masked_entries_get_zero_grads(self):
        rng = np.random.default_rng(4)
        params = rd.DecoderParams(rng.uniform(-1, 1, (20, 16)), rng.uniform(-1, 1, 16),
                                  rng.uniform(-1, 1, (16, 2)), rng.uniform(-1, 1, 2))
        keep = hwa._random_keep(0.4, rng)
        assert 0 < keep.sum() < keep.size
        events = rng.integers(0, 2, size=(8, 4, 4))
        labels = rng.integers(0, 2, size=8)
        _, grads = masked_loss_grads(params, keep, events, labels)
        assert not grads.flat[keep == 0].any()

    def test_full_mask_matches_plain_gradients(self):
        rng = np.random.default_rng(5)
        params = rd.DecoderParams(rng.uniform(-1, 1, (20, 16)), rng.uniform(-1, 1, 16),
                                  rng.uniform(-1, 1, (16, 2)), rng.uniform(-1, 1, 2))
        events = rng.integers(0, 2, size=(8, 4, 4))
        labels = rng.integers(0, 2, size=8)
        keep_all = hwa._fault_keep(am.FaultMap.none())
        assert keep_all.shape == (rd.N_PARAMS,) and keep_all.all()
        loss_a, g_a = masked_loss_grads(params, keep_all, events, labels)
        loss_b, g_b = rd.loss_and_grads(params, events, labels)
        assert loss_a == loss_b
        for a, b in zip(g_a.tensors(), g_b.tensors()):
            assert np.array_equal(a, b)

    def test_surviving_grads_match_finite_differences(self):
        # noise disabled; kink-adjacent draws redrawn as in the plain FD check
        rng = np.random.default_rng(678)
        eps = 1e-4
        checked = 0
        while checked < 10:
            params = rd.DecoderParams(rng.uniform(-1, 1, (20, 16)),
                                      rng.uniform(-1, 1, 16),
                                      rng.uniform(-1, 1, (16, 2)),
                                      rng.uniform(-1, 1, 2))
            keep = hwa._random_keep(0.3, rng)
            events = rng.integers(0, 2, size=(2, 4, 4)).astype(np.float64)
            labels = rng.integers(0, 2, size=2)
            eff = hwa._perturbed(params, keep, 0.0, None)
            z, _, _ = rd.forward_batch(eff, events, None)
            if np.abs(z).min() < 1e-3:
                continue
            checked += 1
            _, grads = masked_loss_grads(params, keep, events, labels)
            for i in np.flatnonzero(keep):
                orig = params.flat[i]
                params.flat[i] = orig + eps
                up, _ = masked_loss_grads(params, keep, events, labels)
                params.flat[i] = orig - eps
                down, _ = masked_loss_grads(params, keep, events, labels)
                params.flat[i] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grads.flat[i]), 0.1)
                assert abs(fd - grads.flat[i]) / denom < 1e-5, i


class TestRetrainHwa:
    def test_all_techniques_off_behaves_like_fine_tuning(self, small_data, fp_params):
        train, val = small_data
        cfg = hwa.RetrainConfig(noise_relative=0.0, epochs=2, seed=3)
        out = hwa.retrain_hwa(fp_params, train, val, cfg, 0.0)
        table = sc.union_table([(val.events, val.labels)])
        base = rd.accuracy(fp_params, *table)[0]
        tuned = rd.accuracy(out, *table)[0]
        assert tuned >= base - 0.01

    def test_p_drop_one_rejected(self, small_data, fp_params):
        train, val = small_data
        with pytest.raises(ValueError):
            hwa.retrain_hwa(fp_params, train, val, hwa.RetrainConfig(epochs=1), 1.0)

    def test_deterministic_given_seed(self, small_data, fp_params):
        train, val = small_data
        cfg = hwa.RetrainConfig(epochs=1, seed=9)
        a = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1)
        b = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1)
        for x, y in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    def test_validation_draws_share_one_workspace(self, small_data, fp_params,
                                                  monkeypatch):
        # every validation forward of every epoch runs in one workspace
        # sized to the validation table; the golden retraining digests pin
        # the bits
        train, val = small_data
        cfg = hwa.RetrainConfig(epochs=2, seed=9)
        works = []
        forward = rd.forward_batch

        def record(params, events, io=None, work=None):
            works.append((len(events), work))
            return forward(params, events, io, work)

        monkeypatch.setattr(rd, "forward_batch", record)
        hwa.retrain_hwa(fp_params, train, val, cfg, 0.1)
        rows = len(sc.union_table([(val.events, val.labels)])[0])
        assert len(works) == cfg.epochs * hwa.VAL_DRAWS
        assert all(n == rows and work is works[0][1] for n, work in works)
        assert works[0][1].inputs.shape[1] == rows

    def test_discretize_and_clip_paths_run(self, small_data, fp_params):
        train, val = small_data
        cfg = hwa.RetrainConfig(io_discretize=True, clip_scale=4.0, epochs=1, seed=5)
        out = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1)
        for w_name, b_name in (("w_rec", "b_rec"), ("w_eval", "b_eval")):
            pool = np.concatenate([getattr(out, w_name).ravel(),
                                   getattr(out, b_name).ravel()])
            assert np.abs(pool).max() <= 4.0 * pool.std() + 1e-12


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**63)])
def test_numpy_integer_seeds_train_as_their_python_ints(small_data, fp_params, seed):
    # the configs accepted these seeds, and rng.derive_seed then raised
    # OverflowError on np.int64(5) and warned on overflow for np.uint64(2**63)
    train, val = small_data

    def same(a, b):
        return a.flat.tobytes() == b.flat.tobytes()

    cfg = rd.TrainConfig(epochs=1, seed=seed)
    assert same(rd.DecoderParams.initial(cfg.seed), rd.DecoderParams.initial(int(seed)))
    assert same(rd.train_fp(train, val, cfg),
                rd.train_fp(train, val, replace(cfg, seed=int(seed))))
    rcfg = hwa.RetrainConfig(epochs=1, seed=seed)
    assert same(hwa.retrain_hwa(fp_params, train, val, rcfg, 0.1),
                hwa.retrain_hwa(fp_params, train, val, replace(rcfg, seed=int(seed)), 0.1))


class TestSharedEpochLoop:
    """`rd._train`, the epoch loop of `rd.train_fp` and of retraining."""

    @pytest.mark.parametrize("scores", [None, (0.5, 0.75, 0.625, 0.75, 0.25)])
    @pytest.mark.parametrize("stage", ["train_fp", "retrain_hwa"])
    def test_keeps_the_earliest_best_epoch(self, small_data, fp_params, monkeypatch,
                                           stage, scores):
        # the parameters after the earliest epoch of highest validation
        # accuracy: the mean of the table accuracies the loop computes, or
        # scripted ones whose best epoch is tied and not the last
        train, val = small_data
        after, accs = [], []
        loop, table_accuracy = rd._train, rd.table_accuracy

        def spy(params, *args):
            *args, val_draws = args

            def recorded(epoch):
                after.append(params.flat.copy())
                accs.append([])
                return val_draws(epoch)
            return loop(params, *args, recorded)

        def score(predict, rows, counts):
            (acc,) = table_accuracy(predict, rows, counts)
            accs[-1].append(acc if scores is None else scores[len(accs) - 1])
            return np.array([accs[-1][-1]])

        monkeypatch.setattr(rd, "_train", spy)
        monkeypatch.setattr(rd, "table_accuracy", score)
        if stage == "train_fp":
            out = rd.train_fp(train, val, rd.TrainConfig(epochs=5, seed=24))
        else:
            out = hwa.retrain_hwa(fp_params, train, val, hwa.RetrainConfig(epochs=5, seed=10),
                                  0.1)
        draws = 1 if stage == "train_fp" else hwa.VAL_DRAWS
        assert len(after) == 5 and all(len(a) == draws for a in accs)
        means = [sum(a) / len(a) for a in accs]
        best = means.index(max(means))
        assert out.flat.tobytes() == after[best].tobytes()
        if scores is not None:
            assert best == 1


class TestRetrainingChecksDatasets:
    """Retraining rejects the datasets FP training rejects."""

    @pytest.mark.parametrize("fn", ["retrain_hwa", "retrain_ds"])
    @pytest.mark.parametrize("bad,message", [
        ("empty train", "datasets must be non-empty"),
        ("empty validation", "datasets must be non-empty"),
        ("validation of 5 rounds", "disagree on rounds")])
    def test_bad_datasets_rejected(self, small_data, fp_params, fn, bad, message):
        train, val = small_data
        if bad == "empty train":
            train = train.subset(np.arange(0))
        elif bad == "empty validation":
            val = val.subset(np.arange(0))
        else:
            val = sc.generate_dataset([1e-2], 50, 5, seed=63, split_tag="validation")
        rate_or_map = 0.1 if fn == "retrain_hwa" else am.FaultMap.none()
        cfg = hwa.RetrainConfig(epochs=1, seed=15)
        with pytest.raises(ValueError, match=message):
            getattr(hwa, fn)(fp_params, train, val, cfg, rate_or_map)
        with pytest.raises(ValueError, match=message):
            rd.train_fp(train, val, rd.TrainConfig(epochs=1))


class TestCallerConfigsReachRetraining:
    def test_optimizer_fields_of_train_config_are_used(self, small_data, fp_params):
        train, val = small_data
        cfg = hwa.RetrainConfig(epochs=1, seed=9)
        default = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1)
        bigger = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1,
                                 rd.TrainConfig(batch_size=64))
        assert not all(np.array_equal(a, b)
                       for a, b in zip(default.tensors(), bigger.tensors()))
        # epochs and seed come from the RetrainConfig
        other = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1,
                                rd.TrainConfig(epochs=99, seed=123))
        for a, b in zip(default.tensors(), other.tensors()):
            assert np.array_equal(a, b)

    def test_crossbar_converters_discretize_every_layer(self, small_data, fp_params,
                                                        monkeypatch):
        train, val = small_data
        xcfg = am.CrossbarConfig(levels=16, adc_bound=2.0)
        step = 2.0 * xcfg.adc_bound / xcfg.levels  # DAC and ADC grid, DAC range 1
        cfg = hwa.RetrainConfig(io_discretize=True, epochs=1, seed=5)
        seen = []
        forward = rd.forward_batch

        def record(params, events, io=None, work=None):
            before = len(converted)
            z, inputs, logits = forward(params, events, io, work)
            seen.append((len(converted) - before, inputs.copy(), z.copy(), logits.copy()))
            return z, inputs, logits

        # every forward pass, of a training step or of a validation draw,
        # converts through the pair `_converters` builds: record what each
        # converter returns
        converted = []
        converters = hwa._converters

        def recording(convert):
            def recorded(v):
                out = convert(v)
                converted.append(np.array(out))
                return out
            return recorded

        def record_converters(cfg, xcfg):
            return tuple(recording(c) for c in converters(cfg, xcfg))

        monkeypatch.setattr(rd, "forward_batch", record)
        monkeypatch.setattr(hwa, "_converters", record_converters)
        out = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1, crossbar_config=xcfg)
        monkeypatch.undo()
        # per forward pass, of each batch and each validation draw, the DAC
        # and the ADC each convert T + 1 times
        n, steps, _ = train.events.shape
        assert len(seen) == cfg.epochs * hwa.VAL_DRAWS
        assert all(count == 2 * (steps + 1) for count, *_ in seen)
        batches = -(-n // rd.TrainConfig().batch_size)
        assert len(converted) == (batches + len(seen)) * 2 * (steps + 1)
        for v in [v for _, *values in seen for v in values] + converted:
            assert np.abs(v).max() <= xcfg.adc_bound
            assert np.array_equal(v, np.round(v / step) * step)
        default = hwa.retrain_hwa(fp_params, train, val, cfg, 0.1)
        assert not all(np.array_equal(a, b)
                       for a, b in zip(default.tensors(), out.tensors()))


class TestRetrainDs:
    def test_masked_positions_are_exact_zeros(self, small_data, fp_params):
        # +0.0 exactly (no -0.0), with clipping and IO discretization too
        train, val = small_data
        fmap = am.FaultMap.sample(0.2, np.random.default_rng(31))
        for extra in ({}, {"clip_scale": 2.0}, {"io_discretize": True},
                      {"clip_scale": 1.5, "io_discretize": True}):
            cfg = hwa.RetrainConfig(epochs=2, seed=11, **extra)
            out = hwa.retrain_ds(fp_params, train, val, cfg, fmap)
            unit_rec = np.vstack([out.w_rec, out.b_rec[None, :]])
            unit_ev = np.vstack([out.w_eval, out.b_eval[None, :]])
            for unit, stuck in ((unit_rec, fmap.recurrent), (unit_ev, fmap.evaluation)):
                assert stuck.any()
                assert unit[stuck].tobytes() == bytes(8 * int(stuck.sum())), extra
                assert unit[~stuck].all(), extra

    def test_digital_masking_equals_crossbar_cancellation(self, small_data, fp_params):
        # after DS retraining, analog inference on the matching fault map (no
        # other non-idealities) predicts identically to the digital decoder
        train, val = small_data
        fmap = am.FaultMap.sample(0.2, np.random.default_rng(32))
        cfg = hwa.RetrainConfig(epochs=1, seed=12, noise_relative=0.0)
        out = hwa.retrain_ds(fp_params, train, val, cfg, fmap)
        xcfg = am.CrossbarConfig(variability_coeffs=(0.0,), quantize_io=False)
        programmed = am.program_decoder(out, xcfg, [fmap], [np.random.default_rng(33)])[0]
        digital = rd.logits_to_bits(rd.forward_batch(out, val.events)[2])
        analog = rd.logits_to_bits(am.AnalogPlan(val.events, xcfg).logits(programmed))
        assert np.array_equal(digital, analog)

    def test_empty_mask_equals_hwa_without_dropconnect(self, small_data, fp_params):
        train, val = small_data
        cfg = hwa.RetrainConfig(epochs=1, seed=13)
        a = hwa.retrain_ds(fp_params, train, val, cfg, am.FaultMap.none())
        b = hwa.retrain_hwa(fp_params, train, val, cfg, 0.0)
        for x, y in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    def test_full_mask_is_degenerate_constant_predictor(self, small_data, fp_params):
        train, val = small_data
        fmap = am.FaultMap(np.ones((21, 16), bool), np.ones((17, 2), bool))
        cfg = hwa.RetrainConfig(epochs=1, seed=14)
        out = hwa.retrain_ds(fp_params, train, val, cfg, fmap)
        for t in out.tensors():
            assert not t.any()
        assert rd.logits_to_bits(rd.forward_batch(out, val.events[:10])[2]).max() == 0
