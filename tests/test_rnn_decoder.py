import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                # the bias input stays exactly 1, the DAC's passes included
                assert (work.inputs[..., -1] == 1.0).all()

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
                hwa._perturbed(params, keep, 0.008, np.random.default_rng(seed + 1), eff)
                loss_w, g_w = rd.loss_and_grads(eff.params, events, labels, conv, work)
                g_w.flat *= keep
                eff_w = eff.params.flat.copy()
                keep = hwa._random_keep(0.2, np.random.default_rng(seed))
                assert keep.tobytes() == keep_buffer.tobytes()
                eff_f = hwa._perturbed(params, keep, 0.008, np.random.default_rng(seed + 1))
                loss_f, g_f = rd.loss_and_grads(eff_f, events, labels, conv)
                g_f.flat *= keep
                assert loss_w == loss_f and g_w.flat.tobytes() == g_f.flat.tobytes()
                assert eff_w.tobytes() == eff_f.flat.tobytes()
                assert not (eff_w == params.flat).all()

    def test_too_small_workspace_rejected(self):
        events = np.zeros((8, 4, 4))
        with pytest.raises(ValueError):
            rd.forward_batch(rd.DecoderParams.zeros(), events, None, rd.Workspace(4, 4))
        with pytest.raises(ValueError):
            rd.forward_batch(rd.DecoderParams.zeros(), events, None, rd.Workspace(8, 3))


def unfolded_loss_and_grads(params, events, labels, io=None):
    """`loss_and_grads` as it was before the recurrent bias was folded into
    its crossbar unit: the step adds `b_rec` after the (n, 20) @ (20, 16)
    product, and BPTT reduces the bias gradient from dz on its own, over
    shots and then over steps. The same operations in the same order, in
    fresh step-major buffers."""
    dac, adc = io if io is not None else (None, None)
    labels = np.asarray(labels, dtype=np.int64)
    n, steps, _ = events.shape
    inputs = np.zeros((steps + 1, n, 20))
    z = np.empty((steps, n, 16))
    inputs[:steps, :, :4] = events.transpose(1, 0, 2)
    for t in range(steps):
        if dac is not None:
            dac(inputs[t])
        np.dot(inputs[t], params.w_rec, out=z[t])
        z[t] += params.b_rec
        if adc is not None:
            adc(z[t])
        np.maximum(z[t], 0.0, out=inputs[t + 1, :, 4:])
    last = inputs[steps, :, 4:]
    if dac is not None:
        dac(last)
    dlogits = np.matmul(last, params.w_eval)
    dlogits += params.b_eval
    if adc is not None:
        adc(dlogits)
    dlogits -= np.maximum(dlogits[:, :1], dlogits[:, 1:])
    np.exp(dlogits, out=dlogits)
    dlogits /= np.add(dlogits[:, :1], dlogits[:, 1:])
    loss = -float(np.log(dlogits[np.arange(n), labels] + 1e-300).sum()) / n
    dlogits -= np.eye(2)[labels]
    dlogits /= n
    grads = rd.DecoderParams.zeros()
    np.matmul(last.T, dlogits, out=grads.w_eval)
    np.add.reduce(dlogits, axis=0, out=grads.b_eval)
    dh = np.dot(dlogits, params.w_eval.T)
    active = np.empty_like(z)
    np.greater(z, 0.0, out=active)
    dz = np.empty_like(z)  # step t at steps - 1 - t
    dh_rec = np.empty((n, 20))
    for t in range(steps - 1, 0, -1):
        np.multiply(dh, active[t], out=dz[steps - 1 - t])
        np.dot(dz[steps - 1 - t], params.w_rec.T, out=dh_rec)
        dh = dh_rec[:, 4:]
    np.multiply(dh, active[0], out=dz[steps - 1])
    per_step = np.matmul(inputs[steps - 1::-1].transpose(0, 2, 1), dz)
    np.add.reduce(per_step, axis=0, out=grads.w_rec, initial=0.0)
    np.add.reduce(np.add.reduce(dz, axis=1), axis=0, out=grads.b_rec, initial=0.0)
    return loss, grads


# finite reals of either sign, signed zeros over-represented
_REALS = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


class TestBiasFold:
    """The recurrent step runs as [x | h | 1] @ unit and BPTT reduces the
    whole unit's gradient at once; both keep the bits of the separate bias
    add and bias reduction under the OpenBLAS kernels the `rnn_decoder`
    docstring names (not under every kernel)."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), spare=st.integers(0, 40), steps=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0),
           special=st.lists(_REALS, min_size=8, max_size=8))
    def test_folded_products_equal_separate_bias(self, n, spare, steps, seed, zeros,
                                                 special):
        # in the views of a workspace `spare` rows larger than the batch
        rng = np.random.default_rng(seed)

        def draw(shape):
            a = rng.uniform(-4, 4, shape)
            a[rng.random(shape) < zeros] = 0.0
            a[rng.random(shape) < zeros / 2] = -0.0
            picks = rng.random(shape) < 0.1
            a[picks] = rng.choice(special, int(picks.sum()))
            return a

        work = rd.Workspace(n + spare, steps)
        v = work.views(n)
        unit = draw(rd.RECURRENT_UNIT)
        w_rec, b_rec = np.ascontiguousarray(unit[:-1]), unit[-1].copy()
        for t, (inp, _, zt, _) in enumerate(v.forward_steps):
            inp[:, :20] = draw((n, 20))
            np.dot(inp, unit, out=zt)
            separate = np.dot(np.ascontiguousarray(inp[:, :20]), w_rec)
            separate += b_rec
            assert zt.tobytes() == separate.tobytes(), t
        v.dz[...] = draw(v.dz.shape)
        np.matmul(v.inputs_reversed, v.dz, out=v.per_step)
        np.add.reduce(v.per_step, axis=0, out=v.unit_grads, initial=0.0)
        # the unfolded operand: [x | h] rows in a 20-wide step-major buffer
        xh = np.ascontiguousarray(work.inputs[:steps, :, :20])[:, :n]
        w_grad = np.add.reduce(np.matmul(xh[::-1].transpose(0, 2, 1), v.dz), axis=0,
                               initial=0.0)
        b_grad = np.add.reduce(np.add.reduce(v.dz, axis=1), axis=0, initial=0.0)
        assert v.unit_grads[:-1].tobytes() == w_grad.tobytes()
        assert v.unit_grads[-1].tobytes() == b_grad.tobytes()

    @pytest.mark.parametrize("io_on", [False, True])
    def test_loss_and_grads_equal_unfolded_formulation(self, io_on):
        # random batches, fresh and in a reused workspace, with and without
        # the crossbar's converters
        rng = np.random.default_rng(46)
        io = hwa._converters(hwa.RetrainConfig(io_discretize=True),
                             am.CrossbarConfig(levels=64, adc_bound=3.0)) if io_on else None
        works = {steps: rd.Workspace(64, steps) for steps in (2, 4, 6)}
        for _ in range(60):
            n, steps = int(rng.integers(1, 65)), int(rng.choice([2, 4, 6]))
            params = random_params(rng, scale=float(rng.choice([0.3, 1.0, 3.0])))
            events = rng.integers(0, 2, size=(n, steps, 4)).astype(np.uint8)
            labels = rng.integers(0, 2, size=n).astype(np.uint8)
            loss_u, g_u = unfolded_loss_and_grads(params, events, labels, io)
            for work in (None, works[steps]):
                loss, g = rd.loss_and_grads(params, events, labels, io, work)
                assert loss == loss_u and g.flat.tobytes() == g_u.flat.tobytes()


class TestPredict:
    @pytest.mark.parametrize("b_eval,expected", [
        ((0.3, -0.3), 0),
        ((-1.0, 2.0), 1),
        ((0.5, 0.5), 0),   # tie resolves to "no error"
    ])
    def test_tie_rule(self, b_eval, expected):
        params = rd.DecoderParams.zeros()
        params.b_eval[:] = b_eval
        _, _, logits = rd.forward_batch(params, np.zeros((1, 4, 4)))
        assert rd.logits_to_bits(logits).tolist() == [expected]

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            params = random_params(rng)
            events = rng.integers(0, 2, size=(6, 4, 4))
            base = rd.logits_to_bits(rd.forward_batch(params, events)[2])
            shifted = rd.DecoderParams(params.w_rec, params.b_rec, params.w_eval,
                                       params.b_eval + 0.7)
            assert np.array_equal(base, rd.logits_to_bits(rd.forward_batch(shifted, events)[2]))


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

    @pytest.mark.parametrize("label,dtype", [(-1, np.int64), (2, np.int64),
                                             (255, np.uint8), (0.5, np.float64)])
    def test_labels_other_than_0_or_1_rejected(self, label, dtype):
        events = np.zeros((3, 4, 4))
        labels = np.array([0, label, 1], dtype=dtype)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            rd.loss_and_grads(rd.DecoderParams.zeros(), events, labels)

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
        assert rd.accuracy(params, *sc.syndrome_table(train.events, train.labels)) >= 0.999

    def test_training_beats_majority_class(self):
        train = sc.generate_dataset([1e-3, 1e-2], 12000, 3, seed=33)
        val = sc.generate_dataset([1e-3, 1e-2], 2500, 3, seed=34, split_tag="validation")
        params = rd.train_fp(train, val, rd.TrainConfig(epochs=6, seed=18))
        majority = max(val.labels.mean(), 1 - val.labels.mean())
        assert rd.accuracy(params, *sc.syndrome_table(val.events, val.labels)) > majority

    def test_same_seed_reproduces_params(self):
        train = sc.generate_dataset([1e-2], 2000, 3, seed=35)
        val = sc.generate_dataset([1e-2], 500, 3, seed=36, split_tag="validation")
        cfg = rd.TrainConfig(epochs=2, seed=19)
        a = rd.train_fp(train, val, cfg)
        b = rd.train_fp(train, val, cfg)
        for x, y in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("label", [-1, 2, 255])
    @pytest.mark.parametrize("stage", ["train_fp", "retrain_hwa", "retrain_ds"])
    def test_training_labels_checked_before_the_first_batch(self, monkeypatch, stage,
                                                            label):
        train = sc.generate_dataset([1e-2], 300, 3, seed=40)
        val = sc.generate_dataset([1e-2], 100, 3, seed=41, split_tag="validation")
        labels = train.labels.astype(np.uint8 if label == 255 else np.int64)
        labels[-1] = label
        train = replace(train, labels=labels)

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(rd, "_grads", no_step)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            if stage == "train_fp":
                rd.train_fp(train, val, rd.TrainConfig(epochs=1))
            elif stage == "retrain_hwa":
                hwa.retrain_hwa(rd.DecoderParams.zeros(), train, val,
                                hwa.RetrainConfig(epochs=1), 0.1)
            else:
                hwa.retrain_ds(rd.DecoderParams.zeros(), train, val,
                               hwa.RetrainConfig(epochs=1), am.FaultMap.none())

    @pytest.mark.parametrize("n_labels", [295, 305])
    def test_label_count_checked_before_the_first_batch(self, monkeypatch, n_labels):
        # fewer labels than shots raised a bare IndexError mid-epoch, more
        # trained silently
        train = sc.generate_dataset([1e-2], 300, 3, seed=40)
        val = sc.generate_dataset([1e-2], 100, 3, seed=41, split_tag="validation")
        train = replace(train, labels=np.resize(train.labels, n_labels))
        monkeypatch.setattr(rd, "_grads", None)
        with pytest.raises(ValueError, match=f"300 samples but {n_labels} labels"):
            rd.train_fp(train, val, rd.TrainConfig(epochs=1))

    def test_validation_table_built_once_in_one_workspace(self, monkeypatch):
        # one syndrome table per call, and every validation forward of every
        # epoch runs in one workspace sized to it
        train = sc.generate_dataset([1e-2], 600, 3, seed=38)
        val = sc.generate_dataset([1e-2], 300, 3, seed=39, split_tag="validation")
        cfg = rd.TrainConfig(epochs=3, seed=20)
        tables, works = [], []
        syndrome_table, forward = rd.syndrome_table, rd.forward_batch

        def count_table(events, labels):
            tables.append(len(events))
            return syndrome_table(events, labels)

        def record(params, events, io=None, work=None):
            works.append((len(events), work))
            return forward(params, events, io, work)

        monkeypatch.setattr(rd, "syndrome_table", count_table)
        monkeypatch.setattr(rd, "forward_batch", record)
        rd.train_fp(train, val, cfg)
        assert tables == [len(val)]
        rows = len(sc.table_batch(*syndrome_table(val.events, val.labels)))
        assert len(works) == cfg.epochs
        assert all(n == rows and work is works[0][1] for n, work in works)
        assert works[0][1].inputs.shape[1] == rows


class TestAccuracy:
    def test_zero_params_on_zero_label_data(self):
        ds = sc.generate_dataset([0.0], 50, 3, seed=37)
        table = sc.syndrome_table(ds.events, ds.labels)
        assert rd.accuracy(rd.DecoderParams.zeros(), *table) == 1.0

    def test_single_wrong_sample(self):
        params = rd.DecoderParams.zeros()
        params.b_eval[:] = (1.0, 0.0)   # always predicts 0
        table = sc.syndrome_table(np.zeros((1, 4, 4)), np.array([1]))
        assert rd.accuracy(params, *table) == 0.0

    def test_empty_dataset_rejected(self):
        rows, counts = sc.syndrome_table(np.zeros((0, 4, 4)), np.zeros(0))
        with pytest.raises(ValueError, match="non-empty"):
            rd.accuracy(rd.DecoderParams.zeros(), rows, counts)
