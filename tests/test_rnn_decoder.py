import copy
import math
import pickle

import numpy as np
import pytest

from memdec import analog_model as am
from memdec import hwa_training as hwa
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc
from memdec.errors import NumericError


def scalar_forward(params, events):
    """Independent loop-based oracle for the forward pass."""
    h = [0.0] * 16
    for t in range(events.shape[0]):
        x = [float(v) for v in events[t]] + h
        z = [sum(x[j] * params.w_rec[j, k] for j in range(20)) + params.b_rec[k]
             for k in range(16)]
        h = [max(v, 0.0) for v in z]
    return [sum(h[j] * params.w_eval[j, k] for j in range(16)) + params.b_eval[k]
            for k in range(2)]


def random_params(rng, scale=1.0):
    return rd.DecoderParams(
        rng.uniform(-scale, scale, (20, 16)),
        rng.uniform(-scale, scale, 16),
        rng.uniform(-scale, scale, (16, 2)),
        rng.uniform(-scale, scale, 2),
    )


class TestForward:
    """`forward_batch` on batches of one shot, (1, T+1, 4)."""

    def test_zero_params_zero_logits(self):
        _, inputs, logits = rd.forward_batch(rd.DecoderParams.zeros(), np.zeros((1, 4, 4)))
        assert np.array_equal(logits, [[0.0, 0.0]])
        assert not inputs[:, :, 4:].any()

    def test_bias_passthrough(self):
        params = rd.DecoderParams.zeros()
        params.b_eval[:] = (0.3, -0.3)
        _, _, logits = rd.forward_batch(params, np.zeros((1, 4, 4)))
        assert np.allclose(logits, [[0.3, -0.3]])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            params = random_params(rng)
            events = rng.integers(0, 2, size=(4, 4)).astype(np.float64)
            _, _, logits = rd.forward_batch(params, events[None])
            assert np.allclose(logits[0], scalar_forward(params, events),
                               rtol=1e-12, atol=1e-12)

    def test_one_hot_syndrome_oracle(self):
        rng = np.random.default_rng(3)
        params = random_params(rng)
        events = np.zeros((4, 4))
        events[0, 2] = 1.0
        _, _, logits = rd.forward_batch(params, events[None])
        assert np.allclose(logits[0], scalar_forward(params, events), rtol=1e-12)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(8)
        params = random_params(rng)
        events = rng.integers(0, 2, size=(1, 4, 4)).astype(np.uint8)
        a = rd.forward_batch(params, events)
        b = rd.forward_batch(params, events)
        for first, second in zip(a, b):
            assert np.array_equal(first, second)

    def test_relu_recurrence_shapes(self):
        rng = np.random.default_rng(9)
        params = random_params(rng)
        z, inputs, logits = rd.forward_batch(params, rng.integers(0, 2, size=(1, 4, 4)))
        assert z.shape == (1, 4, 16)
        assert inputs.shape == (1, 5, 20) and logits.shape == (1, 2)
        hidden = inputs[:, :, 4:]
        assert not hidden[:, 0].any()
        assert np.array_equal(hidden[:, 1:], np.maximum(z, 0))

    def test_bad_shape_rejected(self):
        for events in (np.zeros((1, 4, 5)), np.zeros((4, 4))):
            with pytest.raises(ValueError):
                rd.forward_batch(rd.DecoderParams.zeros(), events)
        with pytest.raises(ValueError):
            rd.DecoderParams(np.zeros((19, 16)), np.zeros(16),
                             np.zeros((16, 2)), np.zeros(2))


class TestFlatLayout:
    def test_tensors_are_views_in_order(self):
        params = random_params(np.random.default_rng(40))
        assert params.flat.shape == (rd.N_PARAMS,) == (370,)
        assert np.array_equal(params.flat, np.concatenate(
            [t.ravel() for t in params.tensors()]))
        params.b_rec[3] = 7.5
        assert params.flat[320 + 3] == 7.5
        params.flat[-1] = -2.0
        assert params.b_eval[1] == -2.0

    def test_units_are_weights_with_bias_row(self):
        params = random_params(np.random.default_rng(41))
        rec, ev = params.units()
        assert np.array_equal(rec, np.vstack([params.w_rec, params.b_rec]))
        assert np.array_equal(ev, np.vstack([params.w_eval, params.b_eval]))
        for unit, sl in zip((rec, ev), rd.UNIT_SLICES):
            assert np.shares_memory(unit, params.flat)
            assert np.array_equal(unit.ravel(), params.flat[sl])

    def test_copy_and_constructor_do_not_alias(self):
        params = random_params(np.random.default_rng(42))
        copy = params.copy()
        rebuilt = rd.DecoderParams(*params.tensors())
        params.flat[:] = 0.0
        assert copy.flat.any() and rebuilt.flat.any()

    def test_pickle_and_deepcopy_keep_the_views(self):
        params = random_params(np.random.default_rng(44))
        for other in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
            assert other.flat.tobytes() == params.flat.tobytes()
            assert not np.shares_memory(other.flat, params.flat)
            other.flat[:] = 0.0
            assert not any(t.any() for t in other.tensors())

    def test_from_flat_checks_shape_and_dtype(self):
        with pytest.raises(ValueError):
            rd.DecoderParams.from_flat(np.zeros(369))
        with pytest.raises(ValueError):
            rd.DecoderParams.from_flat(np.zeros(370, dtype=np.float32))
        with pytest.raises(ValueError):
            rd.DecoderParams.from_flat(np.zeros(740)[::2])


class TestWorkspace:
    def test_reused_workspace_gives_the_same_bits(self):
        # one workspace across batch sizes (the ragged last batch included),
        # with and without converters, equals a fresh one per call
        rng = np.random.default_rng(43)
        io = hwa._converters(hwa.RetrainConfig(io_discretize=True), am.CrossbarConfig())
        work = rd.Workspace(32, 4)
        for n in (32, 7, 1, 32, 2):
            for conv in (io, None):
                params = random_params(rng)
                events = rng.integers(0, 2, size=(n, 4, 4)).astype(np.uint8)
                labels = rng.integers(0, 2, size=n)
                loss_w, g_w = rd.loss_and_grads(params, events, labels, conv, work)
                g_w = g_w.flat.copy()
                loss_f, g_f = rd.loss_and_grads(params, events, labels, conv)
                assert loss_w == loss_f and g_w.tobytes() == g_f.flat.tobytes()
                z_w, in_w, lg_w = (a.copy() for a in
                                   rd.forward_batch(params, events, conv, work))
                z_f, in_f, lg_f = rd.forward_batch(params, events, conv)
                assert (z_w.tobytes(), in_w.tobytes(), lg_w.tobytes()) == (
                    z_f.tobytes(), in_f.tobytes(), lg_f.tobytes())

    def test_reused_buffers_give_the_same_retraining_bits(self):
        # the masked, noised (and converted) retraining step: one workspace,
        # one effective-parameter buffer and one keep-mask buffer across
        # batch sizes equal fresh ones per call
        rng = np.random.default_rng(45)
        io = hwa._converters(hwa.RetrainConfig(io_discretize=True), am.CrossbarConfig())
        work, eff, keep_buffer = rd.Workspace(32, 4), hwa.EffectiveParams(), np.empty(370)
        for n in (32, 7, 1, 32, 2):
            for conv in (io, None):
                params = random_params(rng)
                events = rng.integers(0, 2, size=(n, 4, 4)).astype(np.uint8)
                labels = rng.integers(0, 2, size=n)
                seed = int(rng.integers(2**32))
                keep = hwa._random_keep(0.2, np.random.default_rng(seed), keep_buffer)
                loss_w, g_w = hwa.masked_loss_and_grads(
                    params, keep, events, labels, 0.008, np.random.default_rng(seed + 1),
                    conv, work, eff)
                eff_w = eff.params.flat.copy()
                keep = hwa._random_keep(0.2, np.random.default_rng(seed))
                assert keep.tobytes() == keep_buffer.tobytes()
                loss_f, g_f = hwa.masked_loss_and_grads(
                    params, keep, events, labels, 0.008, np.random.default_rng(seed + 1),
                    conv)
                assert loss_w == loss_f and g_w.flat.tobytes() == g_f.flat.tobytes()
                eff_f = hwa._perturbed(params, keep, 0.008, np.random.default_rng(seed + 1))
                assert eff_w.tobytes() == eff_f.flat.tobytes()
                assert not (eff_w == params.flat).all()

    def test_too_small_workspace_rejected(self):
        events = np.zeros((8, 4, 4))
        with pytest.raises(ValueError):
            rd.forward_batch(rd.DecoderParams.zeros(), events, None, rd.Workspace(4, 4))
        with pytest.raises(ValueError):
            rd.forward_batch(rd.DecoderParams.zeros(), events, None, rd.Workspace(8, 3))


class TestPredict:
    @pytest.mark.parametrize("b_eval,expected", [
        ((0.3, -0.3), 0),
        ((-1.0, 2.0), 1),
        ((0.5, 0.5), 0),   # tie resolves to "no error"
    ])
    def test_tie_rule(self, b_eval, expected):
        params = rd.DecoderParams.zeros()
        params.b_eval[:] = b_eval
        assert rd.predict_batch(params, np.zeros((1, 4, 4))).tolist() == [expected]

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            params = random_params(rng)
            events = rng.integers(0, 2, size=(6, 4, 4))
            base = rd.predict_batch(params, events)
            shifted = rd.DecoderParams(params.w_rec, params.b_rec, params.w_eval,
                                       params.b_eval + 0.7)
            assert np.array_equal(base, rd.predict_batch(shifted, events))


class TestLossAndGrads:
    def test_zero_params_uniform_loss(self):
        rng = np.random.default_rng(2)
        events = rng.integers(0, 2, size=(8, 4, 4))
        labels = rng.integers(0, 2, size=8)
        loss, _ = rd.loss_and_grads(rd.DecoderParams.zeros(), events, labels)
        assert math.isclose(loss, math.log(2), rel_tol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            rd.loss_and_grads(rd.DecoderParams.zeros(),
                              np.zeros((0, 4, 4)), np.zeros(0))

    def test_duplicated_batch_equals_single(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        events = rng.integers(0, 2, size=(1, 4, 4))
        labels = np.array([1])
        loss1, g1 = rd.loss_and_grads(params, events, labels)
        loss4, g4 = rd.loss_and_grads(params, np.repeat(events, 4, axis=0),
                                      np.repeat(labels, 4))
        assert math.isclose(loss1, loss4, rel_tol=1e-12)
        for a, b in zip(g1.tensors(), g4.tensors()):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        events = rng.integers(0, 2, size=(16, 4, 4))
        labels = rng.integers(0, 2, size=16)
        perm = rng.permutation(16)
        loss_a, g_a = rd.loss_and_grads(params, events, labels)
        loss_b, g_b = rd.loss_and_grads(params, events[perm], labels[perm])
        assert math.isclose(loss_a, loss_b, rel_tol=1e-12)
        for a, b in zip(g_a.tensors(), g_b.tensors()):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-13)

    def test_gradients_match_finite_differences(self):
        # 100 random draws; draws whose pre-activations sit within 1e-3 of the
        # ReLU kink are redrawn since central differences straddle the kink.
        rng = np.random.default_rng(1234)
        eps = 1e-4
        checked = 0
        while checked < 100:
            params = random_params(rng)
            events = rng.integers(0, 2, size=(1, 4, 4)).astype(np.float64)
            labels = rng.integers(0, 2, size=1)
            z, _, _ = rd.forward_batch(params, events)
            if np.abs(z).min() < 1e-3:
                continue
            checked += 1
            _, grads = rd.loss_and_grads(params, events, labels)
            for name in ("w_rec", "b_rec", "w_eval", "b_eval"):
                tensor = getattr(params, name)
                analytic = getattr(grads, name)
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + eps
                    up, _ = rd.loss_and_grads(params, events, labels)
                    tensor[idx] = orig - eps
                    down, _ = rd.loss_and_grads(params, events, labels)
                    tensor[idx] = orig
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(fd), abs(analytic[idx]), 0.1)
                    assert abs(fd - analytic[idx]) / denom < 1e-5, (name, idx)


class TestAdam:
    def test_zero_grads_keep_params(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        before = params.copy()
        state = rd.AdamState()
        rd.adam_step(params, rd.DecoderParams.zeros(), state, rd.TrainConfig())
        assert state.step == 1
        for a, b in zip(params.tensors(), before.tensors()):
            assert np.array_equal(a, b)

    def test_first_step_hand_oracle(self):
        cfg = rd.TrainConfig()
        rng = np.random.default_rng(11)
        params = random_params(rng)
        grads = random_params(rng, scale=0.5)
        before = params.copy()
        rd.adam_step(params, grads, rd.AdamState(), cfg)
        # zero state: m_hat = g, v_hat = g^2 -> delta = -lr * g / (|g| + eps)
        for p, g, o in zip(before.tensors(), grads.tensors(), params.tensors()):
            expected = p - cfg.learning_rate * g / (np.abs(g) + cfg.adam_eps)
            assert np.allclose(o, expected, rtol=1e-12, atol=1e-15)

    def test_constant_grad_update_approaches_lr(self):
        cfg = rd.TrainConfig()
        params = rd.DecoderParams.zeros()
        grads = rd.DecoderParams.zeros()
        grads.b_eval[:] = 0.37
        state = rd.AdamState()
        prev = params.b_eval.copy()
        for _ in range(500):
            prev = params.b_eval.copy()
            rd.adam_step(params, grads, state, cfg)
        step_size = np.abs(params.b_eval - prev).max()
        assert math.isclose(step_size, cfg.learning_rate, rel_tol=0.02)

    def test_moments_are_views_of_one_buffer(self):
        rng = np.random.default_rng(14)
        cfg = rd.TrainConfig()
        params, state = random_params(rng), rd.AdamState()
        for _ in range(3):
            rd.adam_step(params, random_params(rng, 0.5), state, cfg)
        copies = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        for s in [state] + copies:
            assert s.moments.shape == (2, rd.N_PARAMS) and s.step == 3
            assert s.moments.tobytes() == state.moments.tobytes()
            assert np.shares_memory(s.m.flat, s.moments[0])
            assert np.shares_memory(s.v.flat, s.moments[1])
            assert s.m.flat.tobytes() == s.moments[0].tobytes()
            assert s.v.w_rec.tobytes() == s.moments[1, :320].tobytes()
        for c in copies:
            assert not np.shares_memory(c.moments, state.moments)
        # a copy continues the run bit for bit
        grads, twin = random_params(rng, 0.5), params.copy()
        rd.adam_step(params, grads, state, cfg)
        for c in copies:
            p = twin.copy()
            rd.adam_step(p, grads, c, cfg)
            assert p.flat.tobytes() == params.flat.tobytes()
            assert c.moments.tobytes() == state.moments.tobytes()

    def test_nonfinite_grads_raise(self):
        rng = np.random.default_rng(12)
        params = random_params(rng)
        before = params.copy()
        grads = random_params(rng)
        grads.b_eval[1] = np.nan
        state = rd.AdamState()
        with pytest.raises(NumericError):
            rd.adam_step(params, grads, state, rd.TrainConfig())
        # the check precedes every update: nothing moved
        assert state.step == 0 and not state.m.w_rec.any()
        for a, b in zip(params.tensors(), before.tensors()):
            assert np.array_equal(a, b)


class TestTraining:
    def test_constant_class_dataset_learned_in_one_epoch(self):
        train = sc.generate_dataset([0.0], 20000, 3, seed=31)
        val = sc.generate_dataset([0.0], 256, 3, seed=32, split_tag="validation")
        params = rd.train_fp(train, val, rd.TrainConfig(epochs=1, seed=17))
        assert rd.accuracy(params, train) >= 0.999

    def test_training_beats_majority_class(self):
        train = sc.generate_dataset([1e-3, 1e-2], 12000, 3, seed=33)
        val = sc.generate_dataset([1e-3, 1e-2], 2500, 3, seed=34, split_tag="validation")
        params = rd.train_fp(train, val, rd.TrainConfig(epochs=6, seed=18))
        majority = max(val.labels.mean(), 1 - val.labels.mean())
        assert rd.accuracy(params, val) > majority

    def test_same_seed_reproduces_params(self):
        train = sc.generate_dataset([1e-2], 2000, 3, seed=35)
        val = sc.generate_dataset([1e-2], 500, 3, seed=36, split_tag="validation")
        cfg = rd.TrainConfig(epochs=2, seed=19)
        a = rd.train_fp(train, val, cfg)
        b = rd.train_fp(train, val, cfg)
        for x, y in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)


class TestAccuracy:
    def test_zero_params_on_zero_label_data(self):
        ds = sc.generate_dataset([0.0], 50, 3, seed=37)
        assert rd.accuracy(rd.DecoderParams.zeros(), ds) == 1.0

    def test_single_wrong_sample(self):
        params = rd.DecoderParams.zeros()
        params.b_eval[:] = (1.0, 0.0)   # always predicts 0
        events = np.zeros((1, 4, 4))
        assert rd.accuracy(params, (events, np.array([1]))) == 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            rd.accuracy(rd.DecoderParams.zeros(), (np.zeros((0, 4, 4)), np.zeros(0)))
