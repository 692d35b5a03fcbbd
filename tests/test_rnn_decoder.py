import copy
import gc
import math
import pickle
import weakref
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
from memdec.rng import spawn_generator


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

    def test_reuse_across_converted_and_plain_calls_gives_fresh_bits(self):
        # a DAC that moves zero rewrites h_0 in place; each later call, with
        # converters or without, at any batch size, starts from h_0 = 0 as
        # a fresh workspace does
        rng = np.random.default_rng(47)
        shift = (lambda v: np.add(v, 0.25, out=v), lambda v: v)
        work = rd.Workspace(32, 4)
        for n, conv in [(32, shift), (32, None), (7, shift), (32, None), (7, None),
                        (1, shift), (32, shift), (7, None), (32, None)]:
            params = random_params(rng)
            events = rng.integers(0, 2, size=(n, 4, 4)).astype(np.uint8)
            labels = rng.integers(0, 2, size=n)
            got = [a.tobytes() for a in rd.forward_batch(params, events, conv, work)]
            assert got == [a.tobytes() for a in rd.forward_batch(params, events, conv)]
            loss_w, g_w = rd.loss_and_grads(params, events, labels, conv, work)
            loss_f, g_f = rd.loss_and_grads(params, events, labels, conv)
            assert loss_w == loss_f and g_w.flat.tobytes() == g_f.flat.tobytes()

    def test_freed_without_the_cycle_collector(self):
        # the views a workspace caches hold no reference back to it: a
        # cycle left each training call's workspaces to the cycle
        # collector, which numpy's allocations rarely trigger, and a
        # repeated protocol run's peak RSS grew from 45 to 165 MB
        events, labels = np.zeros((8, 4, 4)), np.zeros(8, np.uint8)
        gc.disable()
        try:
            work = rd.Workspace(8, 4)
            rd.loss_and_grads(rd.DecoderParams.zeros(), events, labels, None, work)
            rd.forward_batch(rd.DecoderParams.zeros(), events[:3], None, work)
            freed = weakref.ref(work)
            del work
            assert freed() is None
        finally:
            gc.enable()

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


def draw_reals(rng, shape, zeros, special):
    """Uniform reals in [-4, 4) with a share `zeros` of +0.0 and half that
    of -0.0, and a tenth of the entries drawn from `special`."""
    a = rng.uniform(-4, 4, shape)
    a[rng.random(shape) < zeros] = 0.0
    a[rng.random(shape) < zeros / 2] = -0.0
    picks = rng.random(shape) < 0.1
    a[picks] = rng.choice(special, int(picks.sum()))
    return a


class TestBiasFold:
    """The recurrent step runs as [x | h | 1] @ unit and BPTT reduces the
    whole unit's gradient at once; the evaluation unit's gradient is one
    [h_T | 1]^T @ dlogits product, and the hidden-state gradient takes
    w_rec's h rows only. Each keeps the bits of the separate bias add, bias
    reduction or full product under the OpenBLAS kernels the `rnn_decoder`
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
            return draw_reals(rng, shape, zeros, special)

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

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), spare=st.integers(0, 40), steps=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0),
           special=st.lists(_REALS, min_size=8, max_size=8))
    def test_backward_products_equal_separate_forms(self, n, spare, steps, seed, zeros,
                                                    special):
        # BPTT's two other products, in the views of a workspace `spare`
        # rows larger than the batch: [h_T | 1]^T @ dlogits against the
        # (16, n) product and a separate sum over shots, and dz @ the h rows
        # of w_rec, transposed, against the h columns of dz @ w_rec^T
        rng = np.random.default_rng(seed)
        work = rd.Workspace(n + spare, steps)
        v = work.views(n)
        v.last[...] = draw_reals(rng, (n, 16), zeros, special)
        v.logits[...] = draw_reals(rng, (n, 2), zeros, special)
        np.matmul(v.last_with_bias_t, v.logits, out=v.eval_unit_grads)
        w_grad = np.matmul(v.last.T, v.logits)
        b_grad = np.add.reduce(v.logits, axis=0)
        assert v.eval_unit_grads[:-1].tobytes() == w_grad.tobytes()
        assert v.eval_unit_grads[-1].tobytes() == b_grad.tobytes()
        w_rec = draw_reals(rng, (20, 16), zeros, special)
        dz = v.dz[0]
        dz[...] = draw_reals(rng, (n, 16), zeros, special)
        np.dot(dz, w_rec[4:].T, out=v.dh)
        full = np.empty((n + spare, 20))[:n]
        np.dot(dz, w_rec.T, out=full)
        assert v.dh.tobytes() == np.ascontiguousarray(full[:, 4:]).tobytes()

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_grads_raise(self, bad):
        params, grads = rd.DecoderParams.zeros(), rd.DecoderParams.zeros()
        grads.w_rec[3, 5] = bad
        with pytest.raises(NumericError):
            rd.adam_step(params, grads, rd.AdamState(), rd.TrainConfig())

    def test_steps_equal_the_documented_operations(self):
        # 30 steps of random gradients, some entries zero, against Adam one
        # moment at a time
        rng = np.random.default_rng(13)
        cfg = rd.TrainConfig(learning_rate=3e-3, adam_beta1=0.8, adam_beta2=0.99,
                             adam_eps=1e-6)
        params = random_params(rng)
        plain, plain_params = PlainAdam(cfg), params.copy()
        state = rd.AdamState()
        for _ in range(30):
            g = rng.standard_normal(rd.N_PARAMS) * rng.choice([1e-6, 1.0, 1e3])
            g[rng.random(rd.N_PARAMS) < 0.2] = 0.0
            rd.adam_step(params, rd.DecoderParams.from_flat(g), state, cfg)
            plain.step(plain_params, g)
            assert params.flat.tobytes() == plain_params.flat.tobytes()
            assert state.moments.tobytes() == np.stack([plain.m, plain.v]).tobytes()

    def test_a_new_config_takes_effect_at_the_next_step(self):
        # the coefficients set for one config are replaced when a step
        # passes another: the bits of a fresh (unpickled) state's step
        rng = np.random.default_rng(14)
        params, state = random_params(rng), rd.AdamState()
        rd.adam_step(params, random_params(rng), state, rd.TrainConfig())
        other = rd.TrainConfig(learning_rate=0.01, adam_beta1=0.5, adam_beta2=0.9,
                               adam_eps=1e-4)
        fresh, fresh_params = pickle.loads(pickle.dumps(state)), params.copy()
        grads = random_params(rng)
        rd.adam_step(params, grads, state, other)
        rd.adam_step(fresh_params, grads, fresh, other)
        assert params.flat.tobytes() == fresh_params.flat.tobytes()
        assert state.moments.tobytes() == fresh.moments.tobytes()

    @pytest.mark.parametrize("scale", [1e153, 1e200])
    def test_finite_gradients_whose_square_sum_overflows_step(self, scale):
        # the step is PlainAdam's. At 1e153 g . g overflows but no op of
        # Adam does, so the step must not warn even where overflow raises;
        # at 1e200 Adam's own ((1 - b2) g) g overflows, as PlainAdam's does
        rng = np.random.default_rng(15)
        cfg = rd.TrainConfig()
        params = random_params(rng)
        plain, plain_params, state = PlainAdam(cfg), params.copy(), rd.AdamState()
        for _ in range(3):
            g = rng.standard_normal(rd.N_PARAMS) * scale
            with np.errstate(over="ignore"):
                assert not math.isfinite(g.dot(g))
            with np.errstate(over="raise" if scale < 1e154 else "ignore"):
                rd.adam_step(params, rd.DecoderParams.from_flat(g), state, cfg)
                plain.step(plain_params, g)
            assert params.flat.tobytes() == plain_params.flat.tobytes()
            assert state.moments.tobytes() == np.stack([plain.m, plain.v]).tobytes()
        assert state.step == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_among_huge_ones_raises(self, bad):
        rng = np.random.default_rng(16)
        cfg = rd.TrainConfig()
        params, state = random_params(rng), rd.AdamState()
        rd.adam_step(params, random_params(rng), state, cfg)
        before, moments = params.flat.copy(), state.moments.copy()
        g = np.where(rng.random(rd.N_PARAMS) < 0.5, -1e200, 1e200)
        g[rng.integers(rd.N_PARAMS)] = bad
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            rd.adam_step(params, rd.DecoderParams.from_flat(g), state, cfg)
        assert state.step == 1
        assert params.flat.tobytes() == before.tobytes()
        assert state.moments.tobytes() == moments.tobytes()

    def test_a_copy_taken_before_the_first_step_continues_bit_for_bit(self):
        rng = np.random.default_rng(17)
        cfg = rd.TrainConfig()
        state = rd.AdamState()
        copies = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        params = random_params(rng)
        twins = [params.copy() for _ in copies]
        for _ in range(4):
            grads = random_params(rng, 0.5)
            rd.adam_step(params, grads, state, cfg)
            for c, twin in zip(copies, twins):
                rd.adam_step(twin, grads, c, cfg)
                assert twin.flat.tobytes() == params.flat.tobytes()
                assert c.moments.tobytes() == state.moments.tobytes()
                assert not np.shares_memory(c.moments, state.moments)

    def test_config_changes_mid_run_give_plain_adams_bits(self):
        # each change, back to an earlier config object too, replaces every
        # coefficient, both rows of beta included, at the next step
        rng = np.random.default_rng(18)
        first = rd.TrainConfig()
        other = rd.TrainConfig(learning_rate=0.01, adam_beta1=0.5, adam_beta2=0.9,
                               adam_eps=1e-4)
        params, state = random_params(rng), rd.AdamState()
        plain, plain_params = PlainAdam(first), params.copy()
        for cfg in (first, other, first, rd.TrainConfig(adam_beta2=0.95), other):
            plain.config = cfg
            for _ in range(3):
                g = rng.standard_normal(rd.N_PARAMS)
                rd.adam_step(params, rd.DecoderParams.from_flat(g), state, cfg)
                plain.step(plain_params, g)
                assert params.flat.tobytes() == plain_params.flat.tobytes()
                assert state.moments.tobytes() == np.stack([plain.m, plain.v]).tobytes()


class TestTraining:
    def test_constant_class_dataset_learned_in_one_epoch(self):
        train = sc.generate_dataset([0.0], 20000, 3, seed=31)
        val = sc.generate_dataset([0.0], 256, 3, seed=32, split_tag="validation")
        params = rd.train_fp(train, val, rd.TrainConfig(epochs=1, seed=17))
        assert rd.accuracy(params, *sc.union_table([(train.events, train.labels)]))[0] >= 0.999

    def test_training_beats_majority_class(self):
        train = sc.generate_dataset([1e-3, 1e-2], 12000, 3, seed=33)
        val = sc.generate_dataset([1e-3, 1e-2], 2500, 3, seed=34, split_tag="validation")
        params = rd.train_fp(train, val, rd.TrainConfig(epochs=6, seed=18))
        majority = max(val.labels.mean(), 1 - val.labels.mean())
        assert rd.accuracy(params, *sc.union_table([(val.events, val.labels)]))[0] > majority

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
        union_table, forward = rd.union_table, rd.forward_batch

        def count_table(sets):
            tables.append([len(events) for events, _ in sets])
            return union_table(sets)

        def record(params, events, io=None, work=None):
            works.append((len(events), work))
            return forward(params, events, io, work)

        monkeypatch.setattr(rd, "union_table", count_table)
        monkeypatch.setattr(rd, "forward_batch", record)
        rd.train_fp(train, val, cfg)
        assert tables == [[len(val)]]
        rows = len(sc.table_batch(*union_table([(val.events, val.labels)])))
        assert len(works) == cfg.epochs
        assert all(n == rows and work is works[0][1] for n, work in works)
        assert works[0][1].inputs.shape[1] == rows


class TestAccuracy:
    def test_zero_params_on_zero_label_data(self):
        ds = sc.generate_dataset([0.0], 50, 3, seed=37)
        table = sc.union_table([(ds.events, ds.labels)])
        assert rd.accuracy(rd.DecoderParams.zeros(), *table).tolist() == [1.0]

    def test_single_wrong_sample(self):
        params = rd.DecoderParams.zeros()
        params.b_eval[:] = (1.0, 0.0)   # always predicts 0
        table = sc.union_table([(np.zeros((1, 4, 4)), np.array([1]))])
        assert rd.accuracy(params, *table).tolist() == [0.0]

    def test_empty_dataset_rejected(self):
        rows, counts = sc.union_table([(np.zeros((0, 4, 4)), np.zeros(0))])
        with pytest.raises(ValueError, match="non-empty"):
            rd.accuracy(rd.DecoderParams.zeros(), rows, counts)


class PlainAdam:
    """Adam as `rd.adam_step` documents it: one moment at a time, in fresh
    arrays, with its IEEE operations in the documented order."""

    def __init__(self, config):
        self.config, self.t = config, 0
        self.m, self.v = np.zeros(rd.N_PARAMS), np.zeros(rd.N_PARAMS)

    def step(self, params, g):
        c = self.config
        self.t += 1
        self.m = c.adam_beta1 * self.m + (1 - c.adam_beta1) * g
        self.v = c.adam_beta2 * self.v + ((1 - c.adam_beta2) * g) * g
        c1, c2 = 1 - c.adam_beta1 ** self.t, 1 - c.adam_beta2 ** self.t
        params.flat -= (self.m / c1) * c.learning_rate / (np.sqrt(self.v / c2) + c.adam_eps)


def per_batch_train(params, dataset, val, config, shuffle_rng, io, step, val_draws):
    """The epoch loop of `rd._train` as it was before it gathered the shots
    of many batches at once: each batch indexed out of the dataset by its
    slice of the epoch's permutation and passed to `step(epoch, batch,
    batches, events, labels)`; the copy after the earliest best epoch is
    returned, scored as `rd._train` scores it, each of the parameters
    `val_draws(epoch)` yields under `io`."""
    events, labels = dataset.events, dataset.labels
    rows, counts = sc.union_table([(val.events, val.labels)])
    n, size = len(labels), config.batch_size
    batches = -(-n // size)
    best_acc, best = -1.0, None
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for batch, start in enumerate(range(0, n, size)):
            idx = order[start:start + size]
            step(epoch, batch, batches, events[idx], labels[idx])
        accs = [rd.accuracy(p, rows, counts, io)[0] for p in val_draws(epoch)]
        acc = sum(accs) / len(accs)
        if acc > best_acc:
            best_acc, best = acc, params.copy()
    return best


def per_batch_train_fp(dataset, val, config):
    """`rd.train_fp` on `per_batch_train`, each step `loss_and_grads` in a
    fresh workspace and `PlainAdam`."""
    params = rd.DecoderParams.initial(config.seed)
    adam = PlainAdam(config)

    def step(epoch, batch, batches, events, labels):
        adam.step(params, rd.loss_and_grads(params, events, labels)[1].flat)

    return per_batch_train(params, dataset, val, config, spawn_generator(config.seed, 1),
                           None, step, lambda epoch: [params])


def per_batch_retrain(params, dataset, val, cfg, p_drop, keep_fixed, train_cfg, xcfg):
    """`hwa._retrain` on `per_batch_train`: per batch, the draw's masked
    and noised parameters in fresh buffers, `loss_and_grads` under the
    converters, the gradient masked, `PlainAdam`, then clipping."""
    io = hwa._converters(cfg, xcfg)
    params = params.copy()
    if keep_fixed is not None:
        params.flat[keep_fixed == 0.0] = 0.0
    config = replace(train_cfg, epochs=cfg.epochs)
    adam = PlainAdam(config)
    draws = {}

    def step(epoch, batch, batches, events, labels):
        if batch == 0:
            draws[epoch] = hwa._draws(cfg, p_drop, keep_fixed, epoch, batches)
        keep, noise_rng = draws[epoch](batch)
        eff = hwa._perturbed(params, keep, cfg.noise_relative, noise_rng)
        adam.step(params, rd.loss_and_grads(eff, events, labels, io)[1].flat * keep)
        if cfg.clip_scale is not None:
            hwa.clip_weights(params, cfg.clip_scale)

    def val_draws(epoch):
        draw = hwa._draws(cfg, p_drop, keep_fixed, 1_000_000 + epoch, hwa.VAL_DRAWS)
        effective = []
        for i in range(hwa.VAL_DRAWS):
            keep, noise_rng = draw(i)
            effective.append(hwa._perturbed(params, keep, cfg.noise_relative, noise_rng))
        return effective

    return per_batch_train(params, dataset, val, config,
                           spawn_generator(cfg.seed, hwa.Stage.RETRAIN), io, step, val_draws)


class TestBlockGather:
    """`rd._train` gathers the shots of `rd._GATHER_BATCHES` batches at a
    time into reused buffers and runs the step in bound views; FP training
    and both retrainings keep the bits of the per-batch loop above."""

    @pytest.fixture(scope="class")
    def data(self):
        train = sc.generate_dataset([1e-2, 3e-2], 2100, 3, seed=48)
        val = sc.generate_dataset([1e-2, 3e-2], 300, 3, seed=49, split_tag="validation")
        return train, val

    @pytest.mark.parametrize("batch_size", [1, 7, 32, 5000])
    @pytest.mark.parametrize("stage", ["train_fp", "hwa", "hwa_io_clip", "ds", "ds_io"])
    def test_same_bits_as_the_per_batch_loop(self, data, stage, batch_size):
        train, val = data
        if batch_size == 1:
            train = train.subset(np.arange(150))
        # a batch larger than the set, or a set longer than one gather block
        n = len(train)
        assert batch_size > n or n > rd._GATHER_BATCHES * batch_size
        train_cfg = rd.TrainConfig(batch_size=batch_size, epochs=2, seed=21)
        if stage == "train_fp":
            start = rd.DecoderParams.initial(train_cfg.seed)
            got = rd.train_fp(train, val, train_cfg)
            want = per_batch_train_fp(train, val, train_cfg)
        else:
            start = rd.DecoderParams.initial(5)
            io_on = stage.endswith("_io") or stage.endswith("_io_clip")
            cfg = hwa.RetrainConfig(io_discretize=io_on,
                                    clip_scale=3.0 if stage.endswith("clip") else None,
                                    epochs=2, seed=8)
            xcfg = am.CrossbarConfig(levels=64, adc_bound=3.0)
            if stage.startswith("hwa"):
                got = hwa.retrain_hwa(start, train, val, cfg, 0.2, train_cfg, xcfg)
                want = per_batch_retrain(start, train, val, cfg, 0.2, None, train_cfg, xcfg)
            else:
                fmap = am.FaultMap.sample(0.1, np.random.default_rng(6))
                got = hwa.retrain_ds(start, train, val, cfg, fmap, train_cfg, xcfg)
                want = per_batch_retrain(start, train, val, cfg, 0.0, hwa._fault_keep(fmap),
                                         train_cfg, xcfg)
        assert got.flat.tobytes() == want.flat.tobytes()
        assert not np.array_equal(got.flat, start.flat)
