import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from memdec import analog_model as am
from memdec import rnn_decoder as rd


def default_cfg(**kw):
    base = dict(variability=am.VariabilityModel.disabled(), stuck_rate=0.0)
    base.update(kw)
    return am.CrossbarConfig(**base)


class TestMapWeights:
    def test_endpoints(self):
        cfg = default_cfg()
        gp, gm = am.map_weights(np.array([[1.5]]), 1.5, cfg)
        assert gp[0, 0] == 200.0 and gm[0, 0] == 60.0

    def test_zero_weight(self):
        gp, gm = am.map_weights(np.array([[0.0]]), 1.0, default_cfg())
        assert gp[0, 0] == 60.0 and gm[0, 0] == 60.0

    def test_negative_midpoint(self):
        gp, gm = am.map_weights(np.array([[-0.5]]), 1.0, default_cfg())
        assert gm[0, 0] == 130.0 and gp[0, 0] == 60.0

    def test_nonpositive_w_max_rejected(self):
        with pytest.raises(ValueError):
            am.map_weights(np.zeros((2, 2)), 0.0, default_cfg())


class TestVariability:
    def test_zero_sigma_identity(self):
        g = np.full((50, 50), 130.0)
        out = am.apply_variability(g, am.VariabilityModel.disabled(),
                                   np.random.default_rng(0))
        assert np.array_equal(out, g)

    def test_fallback_std_at_100us(self):
        g = np.full(100_000, 100.0)
        out = am.apply_variability(g, am.VariabilityModel(),
                                   np.random.default_rng(1))
        std = (out - g).std()
        assert abs(std - 0.8) / 0.8 < 0.02

    def test_constant_polynomial_std(self):
        g = np.full(100_000, 150.0)
        model = am.VariabilityModel(coefficients=(1.0,))
        out = am.apply_variability(g, model, np.random.default_rng(2))
        std = (out - g).std()
        assert abs(std - 1.0) < 0.02

    def test_polynomial_evaluation(self):
        model = am.VariabilityModel(coefficients=(0.5, 0.01))
        assert np.allclose(model.sigma(np.array([100.0])), [1.5])

    def test_negative_polynomial_clamped(self):
        model = am.VariabilityModel(coefficients=(-5.0,))
        assert model.sigma(np.array([100.0]))[0] == 0.0


class TestFaultMap:
    def test_rate_zero_and_one(self):
        rng = np.random.default_rng(3)
        assert not am.sample_fault_map((20, 16), 0.0, rng).any()
        assert am.sample_fault_map((20, 16), 1.0, rng).all()

    def test_binomial_count(self):
        # 99% interval for Binomial(320*400, 0.1)
        rng = np.random.default_rng(4)
        total = sum(am.sample_fault_map((20, 16), 0.1, rng).sum() for _ in range(400))
        n = 320 * 400
        sd = np.sqrt(n * 0.1 * 0.9)
        assert abs(total - 0.1 * n) < 2.58 * sd

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            am.sample_fault_map((4, 4), 1.2, np.random.default_rng(0))

    def test_apply_faults(self):
        cfg = default_cfg()
        gp = np.full((3, 3), 100.0)
        gm = np.full((3, 3), 70.0)
        stuck = np.zeros((3, 3), bool)
        stuck[1, 2] = True
        op, om = am.apply_faults(gp, gm, stuck, cfg)
        assert op[1, 2] == om[1, 2] == 200.0
        assert (op - om)[1, 2] == 0.0
        unstuck = ~stuck
        assert np.array_equal(op[unstuck], gp[unstuck])

    def test_apply_faults_empty_map_is_identity(self):
        cfg = default_cfg()
        gp = np.full((2, 2), 90.0)
        gm = np.full((2, 2), 60.0)
        op, om = am.apply_faults(gp, gm, np.zeros((2, 2), bool), cfg)
        assert np.array_equal(op, gp) and np.array_equal(om, gm)

    def test_full_map_kills_output(self):
        cfg = default_cfg()
        gp, gm = am.apply_faults(np.full((5, 4), 100.0), np.full((5, 4), 60.0),
                                 np.ones((5, 4), bool), cfg)
        v = np.random.default_rng(5).uniform(-1, 1, 5)
        assert np.array_equal(v @ am.ProgrammedUnit(gp, gm).effective(), np.zeros(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            am.apply_faults(np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((3, 2), bool), default_cfg())


class TestQuantize:
    def test_clamp_branch(self):
        assert am.quantize(7.0, 6.0, 256) == 6.0
        assert am.quantize(-7.0, 6.0, 256) == -6.0

    def test_zero(self):
        assert am.quantize(0.0, 6.0, 256) == 0.0

    def test_hand_derived_case(self):
        # 0.03 / 12 * 256 = 0.64 -> rounds to 1 -> 12 / 256 = 0.046875
        assert am.quantize(0.03, 6.0, 256) == 0.046875

    def test_half_away_from_zero(self):
        # step = 1.0 at bound 2, levels 4; 0.5 is exactly half a step
        assert am.quantize(0.5, 2.0, 4) == 1.0
        assert am.quantize(-0.5, 2.0, 4) == -1.0

    @given(st.floats(-20, 20))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, x):
        q = am.quantize(x, 6.0, 256)
        assert am.quantize(q, 6.0, 256) == q

    @given(st.floats(-20, 20))
    @settings(max_examples=300, deadline=None)
    def test_odd(self, x):
        assert am.quantize(-x, 6.0, 256) == -am.quantize(x, 6.0, 256)


def reference_quantize(x, bound: float, levels: int) -> np.ndarray:
    """The sign/floor/clip rounding `_quantize` must reproduce bit for bit:
    sign(v) * floor(|v| + 1/2) * step, clamped to [-bound, bound], with
    v = x / step.

    A NaN position holds v itself, the input NaN quieted with its sign and
    payload kept. sign(v) * floor(...) multiplies two NaNs, and which
    operand's sign the product keeps differs between numpy's vector loop
    and its scalar tail, so the product cannot serve as the reference
    there."""
    step = 2.0 * bound / levels
    v = np.array(x, dtype=np.float64) / step
    out = np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5) * step, -bound, bound)
    nan = np.isnan(v)
    out[nan] = v[nan]
    return out


# the golden analog configs, plus odd and near-256 level counts
QUANTIZE_CONFIGS = [
    am.CrossbarConfig(),
    am.CrossbarConfig(levels=16, adc_bound=2.0),
    am.CrossbarConfig(adc_bound=3.3, dac_bound=0.7, levels=100),
    am.CrossbarConfig(quantize_io=False),
    am.CrossbarConfig(levels=3),
    am.CrossbarConfig(levels=255),
]


def quantize_edges(bound: float, levels: int) -> np.ndarray:
    """Every rounding threshold and level of the range and a little beyond,
    each with both neighbours, plus signed zeros, infinities, NaNs,
    subnormals and values whose division by the step overflows."""
    step = 2.0 * bound / levels
    k = np.arange(-levels - 2, levels + 3, dtype=np.float64)
    grid = np.concatenate([k * step, (k + 0.5) * step, [bound, -bound]])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, -2.2250738585072014e-308, 1e308, -1e308]
    return np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
                           special])


def assert_quantizers_match_reference(x: np.ndarray, cfg: am.CrossbarConfig) -> None:
    """`_quantize` (with and without scratch), array and scalar `quantize`,
    `_dac` and `_adc` give the reference bytes; the caller silences the
    overflow its inputs cause."""
    for bound in (cfg.adc_bound, cfg.dac_bound):
        want = reference_quantize(x, bound, cfg.levels).tobytes()
        for scratch in (None, np.empty_like(x)):
            assert am._quantize(x.copy(), bound, cfg.levels, scratch).tobytes() == want
        assert am.quantize(x, bound, cfg.levels).tobytes() == want
        scalars = [am.quantize(float(v), bound, cfg.levels) for v in x]
        assert all(type(q) is float for q in scalars)
        assert np.array(scalars).tobytes() == want
    scaled = x / cfg.adc_bound
    if cfg.quantize_io:
        dac = reference_quantize(scaled, cfg.dac_bound, cfg.levels)
        adc = reference_quantize(x, cfg.adc_bound, cfg.levels)
    else:
        dac, adc = scaled, x
    assert am._dac(x, cfg).tobytes() == dac.tobytes()
    assert am._adc(x, cfg).tobytes() == adc.tobytes()


class TestQuantizeBits:
    """The in-place rounding trunc(v + copysign(1/2, v + 0)) equals the
    sign/floor/clip sequence on every float64 input, -0.0 bytes included,
    and gives the input NaN quieted, sign and payload kept, for a NaN."""

    @pytest.mark.parametrize("cfg", QUANTIZE_CONFIGS)
    def test_edges_match_reference(self, cfg):
        for bound in (cfg.adc_bound, cfg.dac_bound):
            with np.errstate(over="ignore"):  # 1e308 / step overflows to inf
                assert_quantizers_match_reference(quantize_edges(bound, cfg.levels), cfg)

    def test_negative_zero_gives_positive_zero(self):
        assert am.quantize(-0.0, 6.0, 256).hex() == "0x0.0p+0"
        assert am.quantize(np.array([-0.0, -1e-9]), 6.0, 256).tobytes() == \
            np.array([0.0, -0.0]).tobytes()

    @given(cfg=st.sampled_from(QUANTIZE_CONFIGS),
           x=arrays(np.float64, st.integers(1, 40), elements=st.floats(width=64)))
    @settings(max_examples=300, deadline=None)
    def test_any_floats_match_reference(self, cfg, x):
        with np.errstate(over="ignore"):  # huge inputs overflow on division by the step
            assert_quantizers_match_reference(x, cfg)

    @pytest.mark.parametrize("cfg", QUANTIZE_CONFIGS)
    @pytest.mark.parametrize("nan_bits, quieted", [
        (0xFFF8000000000000, 0xFFF8000000000000),   # -nan
        (0xFFF0000000000001, 0xFFF8000000000001),   # negative signalling NaN
    ])
    def test_negative_nans_stay_quieted_input(self, cfg, nan_bits, quieted):
        """Runs of a negative NaN long enough to fill numpy's vector loop and
        its scalar tail come out as the input NaN, quieted, in every
        position."""
        for n in range(1, 18):
            x = np.full(n, nan_bits, dtype=np.uint64).view(np.float64)
            # quieting a signalling NaN raises the invalid flag
            with np.errstate(invalid="ignore"):
                for bound in (cfg.adc_bound, cfg.dac_bound):
                    ref = reference_quantize(x, bound, cfg.levels)
                    assert (ref.view(np.uint64) == quieted).all()
                assert_quantizers_match_reference(x, cfg)


def random_chip(rng: np.random.Generator) -> am.ProgrammedDecoder:
    return am.ProgrammedDecoder(
        am.ProgrammedUnit(rng.uniform(60, 200, (21, 16)), rng.uniform(60, 200, (21, 16))),
        am.ProgrammedUnit(rng.uniform(60, 200, (17, 2)), rng.uniform(60, 200, (17, 2))),
        0.004, 0.003)


class TestMvm:
    def test_single_pair(self):
        eff = am.ProgrammedUnit(np.array([[100.0]]), np.array([[60.0]])).effective()
        assert np.array_equal(eff, [[40.0]])
        assert np.allclose(np.array([0.5]) @ eff, [20.0])

    def test_equal_pairs_zero_output(self):
        g = np.random.default_rng(6).uniform(60, 200, (8, 5))
        v = np.random.default_rng(7).uniform(-1, 1, 8)
        eff = am.ProgrammedUnit(g, g).effective()
        assert np.array_equal(eff, np.zeros((8, 5)))
        assert np.allclose(v @ eff, 0.0)

    def test_matches_dense_oracle(self):
        """Unconverted analog logits of unsorted rows with duplicates equal a
        per-row, per-step loop over the conductance pairs."""
        rng = np.random.default_rng(8)
        chip = random_chip(rng)
        cfg = default_cfg(quantize_io=False, adc_bound=2.0)
        events = rng.integers(0, 2, size=(40, 4, 4))
        events[20:] = events[:20][::-1]

        def column_currents(unit, v):
            return np.array([sum((unit.g_plus[j, k] - unit.g_minus[j, k]) * v[j]
                                 for j in range(len(v)))
                             for k in range(unit.g_plus.shape[1])])

        oracle = []
        for row in events:
            h = np.zeros(16)
            for step in row:
                v = np.concatenate([step, h, [1.0]]) / cfg.adc_bound
                current = column_currents(chip.recurrent, v)
                h = np.maximum(current * chip.scale_recurrent * cfg.adc_bound, 0.0)
            v = np.concatenate([h, [1.0]]) / cfg.adc_bound
            oracle.append(column_currents(chip.evaluation, v)
                          * chip.scale_evaluation * cfg.adc_bound)
        assert np.allclose(am.analog_logits(chip, cfg, events), oracle,
                           rtol=1e-12, atol=1e-12)

    def test_differential_symmetry(self):
        """Swapping each evaluation pair's sides negates the logits exactly
        (the ADC is odd)."""
        rng = np.random.default_rng(9)
        chip = random_chip(rng)
        swapped = am.ProgrammedDecoder(
            chip.recurrent,
            am.ProgrammedUnit(chip.evaluation.g_minus, chip.evaluation.g_plus),
            chip.scale_recurrent, chip.scale_evaluation)
        assert np.array_equal(swapped.evaluation.effective(), -chip.evaluation.effective())
        events = rng.integers(0, 2, size=(30, 3, 4))
        cfg = default_cfg()
        assert np.array_equal(am.analog_logits(swapped, cfg, events),
                              -am.analog_logits(chip, cfg, events))

    def test_dimension_mismatch_rejected(self):
        chip = random_chip(np.random.default_rng(10))
        for width in (3, 5):
            with pytest.raises(ValueError):
                am.analog_logits(chip, default_cfg(), np.zeros((2, 3, width)))
        with pytest.raises(ValueError):  # one shot is a batch of one row
            am.analog_logits(chip, default_cfg(), np.zeros((3, 4)))


@pytest.fixture(scope="module")
def random_decoder():
    rng = np.random.default_rng(10)
    return rd.DecoderParams(
        rng.uniform(-1, 1, (20, 16)),
        rng.uniform(-1, 1, 16),
        rng.uniform(-1, 1, (16, 2)),
        rng.uniform(-1, 1, 2),
    )


class TestProgramDecoder:
    def test_ideal_mapping_round_trip(self, random_decoder):
        cfg = default_cfg(quantize_io=False)
        programmed = am.program_decoder(random_decoder, cfg, am.FaultMap.none(),
                                        np.random.default_rng(11))
        events = np.random.default_rng(12).integers(0, 2, size=(500, 4, 4))
        analog = am.analog_logits(programmed, cfg, events)
        _, _, digital = rd.forward_batch(random_decoder, events)
        assert np.allclose(analog, digital, rtol=1e-9, atol=1e-9)
        assert np.array_equal(am.analog_forward_batch(programmed, cfg, events),
                              rd.predict_batch(random_decoder, events))

    def test_unit_shapes_and_scales(self, random_decoder):
        cfg = default_cfg()
        programmed = am.program_decoder(random_decoder, cfg, am.FaultMap.none(),
                                        np.random.default_rng(13))
        assert programmed.recurrent.g_plus.shape == (21, 16)
        assert programmed.evaluation.g_plus.shape == (17, 2)
        mat = np.vstack([random_decoder.w_rec, random_decoder.b_rec[None, :]])
        assert np.isclose(programmed.scale_recurrent, np.abs(mat).max() / 140.0)

    def test_stuck_pairs_sit_exactly_at_hcs(self, random_decoder):
        cfg = am.CrossbarConfig(stuck_rate=0.5)  # default 0.8% variability on
        rng = np.random.default_rng(14)
        fmap = am.FaultMap.sample(0.5, rng)
        programmed = am.program_decoder(random_decoder, cfg, fmap, rng)
        stuck = fmap.recurrent
        assert np.array_equal(programmed.recurrent.g_plus[stuck],
                              np.full(stuck.sum(), 200.0))
        assert np.array_equal(programmed.recurrent.effective()[stuck],
                              np.zeros(stuck.sum()))

    def test_all_stuck_predicts_zero(self, random_decoder):
        cfg = am.CrossbarConfig(stuck_rate=1.0)
        fmap = am.FaultMap(np.ones((21, 16), bool), np.ones((17, 2), bool))
        programmed = am.program_decoder(random_decoder, cfg, fmap,
                                        np.random.default_rng(15))
        events = np.random.default_rng(16).integers(0, 2, size=(64, 4, 4))
        logits = am.analog_logits(programmed, cfg, events)
        assert np.array_equal(logits, np.zeros((64, 2)))
        assert not am.analog_forward_batch(programmed, cfg, events).any()

    def test_zero_params_rejected(self):
        with pytest.raises(ValueError):
            am.program_decoder(rd.DecoderParams.zeros(), default_cfg(),
                               am.FaultMap.none(), np.random.default_rng(0))

    def test_programming_is_deterministic_per_stream(self, random_decoder):
        cfg = am.CrossbarConfig()
        a = am.program_decoder(random_decoder, cfg, am.FaultMap.none(),
                               np.random.default_rng(77))
        b = am.program_decoder(random_decoder, cfg, am.FaultMap.none(),
                               np.random.default_rng(77))
        assert np.array_equal(a.recurrent.g_plus, b.recurrent.g_plus)
        assert np.array_equal(a.evaluation.g_minus, b.evaluation.g_minus)


class TestFitVariability:
    def test_recovers_linear_sigma(self):
        rng = np.random.default_rng(17)
        rows = []
        for target in np.linspace(60, 200, 11):
            sigma = 0.008 * target
            rows += [(target, target + rng.normal(0, sigma)) for _ in range(4000)]
        model = am.fit_variability_model(rows, degree=1)
        g = np.linspace(60, 200, 50)
        assert np.allclose(model.sigma(g), 0.008 * g, rtol=0.1)

    def test_too_few_states_rejected(self):
        rows = [(100.0, 100.1), (100.0, 99.9)]
        with pytest.raises(ValueError):
            am.fit_variability_model(rows, degree=2)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "char.csv"
        path.write_text(
            "target_conductance_uS,programmed_conductance_uS,device_id,cycle_id\n"
            "100.0,100.5,0,0\n100.0,99.5,0,1\n150.0,150.2,1,0\n150.0,149.8,1,1\n")
        rows = am.read_characterization_csv(path)
        assert rows == [(100.0, 100.5), (100.0, 99.5), (150.0, 150.2), (150.0, 149.8)]
        model = am.fit_variability_model(rows, degree=1)
        assert model.sigma(np.array([125.0]))[0] > 0

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            am.read_characterization_csv(path)
