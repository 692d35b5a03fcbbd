import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from memdec import analog_model as am
from memdec import hwa_training as hwa
from memdec import rnn_decoder as rd
from memdec import surface_code_sim as sc


def default_cfg(**kw):
    base = dict(variability_coeffs=(0.0,))
    base.update(kw)
    return am.CrossbarConfig(**base)


def reference_program(params: rd.DecoderParams, cfg: am.CrossbarConfig,
                      fmap: am.FaultMap, rng: np.random.Generator) -> am.ProgrammedDecoder:
    """The unit-by-unit programming `program_decoder` must reproduce bit for
    bit: each unit's targets |w| * span / w_max + g_lcs on the side of w's
    sign, g_lcs elsewhere; then N(0, sigma_prog(G)) per device, drawn for
    G+ and then G-; then stuck pairs forced to g_hcs on both sides."""
    units, scales = [], []
    span = cfg.g_hcs - cfg.g_lcs
    for mat, stuck in zip(params.units(), (fmap.recurrent, fmap.evaluation)):
        w_max = float(np.abs(mat).max())
        if w_max <= 0:
            raise ValueError(f"w_max must be positive, got {w_max}")
        programmed = np.abs(mat) * span / w_max + cfg.g_lcs
        sides = []
        for g in (np.where(mat > 0, programmed, cfg.g_lcs),
                  np.where(mat < 0, programmed, cfg.g_lcs)):
            g = g + rng.standard_normal(g.shape) * cfg.sigma(g)
            sides.append(np.where(stuck, cfg.g_hcs, g))
        units.append(am.ProgrammedUnit(*sides))
        scales.append(w_max / span)
    return am.ProgrammedDecoder(units[0], units[1], *scales)


def conductances(chip: am.ProgrammedDecoder) -> np.ndarray:
    """rec G+ | rec G- | eval G+ | eval G-, flattened."""
    return np.concatenate([g.ravel() for g in (chip.recurrent.g_plus, chip.recurrent.g_minus,
                                               chip.evaluation.g_plus, chip.evaluation.g_minus)])


def params_with(rng: np.random.Generator, entries: dict[int, float]) -> rd.DecoderParams:
    """Random parameters in (-1, 1) with the given entries of `flat` set."""
    params = rd.DecoderParams.from_flat(rng.uniform(-1, 1, rd.N_PARAMS))
    for index, value in entries.items():
        params.flat[index] = value
    return params


class TestProgramTargets:
    """The targets: variability off, no stuck pair."""

    @staticmethod
    def program(params):
        return am.program_decoder(params, default_cfg(), [am.FaultMap.none()],
                                  [np.random.default_rng(0)])[0]

    def test_endpoints(self):
        # the largest |w| of each unit sits at g_hcs on its side
        chip = self.program(params_with(np.random.default_rng(1), {5: 1.5, 340: -1.5}))
        assert chip.recurrent.g_plus.flat[5] == 200.0 and chip.recurrent.g_minus.flat[5] == 60.0
        assert chip.evaluation.g_minus.flat[4] == 200.0 and chip.evaluation.g_plus.flat[4] == 60.0

    def test_zero_weight(self):
        chip = self.program(params_with(np.random.default_rng(2), {7: 0.0, 341: -0.0}))
        assert chip.recurrent.g_plus.flat[7] == chip.recurrent.g_minus.flat[7] == 60.0
        assert chip.evaluation.g_plus.flat[5] == chip.evaluation.g_minus.flat[5] == 60.0

    def test_negative_midpoint(self):
        chip = self.program(params_with(np.random.default_rng(3), {0: 1.0, 9: -0.5}))
        assert chip.recurrent.g_minus.flat[9] == 130.0 and chip.recurrent.g_plus.flat[9] == 60.0

    def test_targets_without_variability(self, random_decoder):
        mat = random_decoder.units()[0]
        target = np.abs(mat) * 140.0 / np.abs(mat).max() + 60.0
        chip = self.program(random_decoder)
        assert np.array_equal(chip.recurrent.g_plus, np.where(mat > 0, target, 60.0))
        assert np.array_equal(chip.recurrent.g_minus, np.where(mat < 0, target, 60.0))

    @pytest.mark.parametrize("unit", rd.UNIT_SLICES)
    def test_all_zero_unit_rejected(self, unit):
        params = params_with(np.random.default_rng(4), {})
        params.flat[unit] = 0.0
        with pytest.raises(ValueError):
            self.program(params)


class TestVariability:
    @staticmethod
    def deviations(params, coeffs):
        """Programmed minus target conductances of 150 chips under
        sigma_prog(G) of `coeffs`, and the targets."""
        targets = conductances(TestProgramTargets.program(params))
        cfg = am.CrossbarConfig(variability_coeffs=coeffs)
        rng = np.random.default_rng(1)
        chips = [conductances(am.program_decoder(params, cfg, [am.FaultMap.none()], [rng])[0])
                 for _ in range(150)]
        return np.array(chips) - targets, targets

    def test_default_relative_std(self, random_decoder):
        dev, targets = self.deviations(random_decoder, am.CrossbarConfig().variability_coeffs)
        assert abs((dev / targets).std() - 0.008) / 0.008 < 0.02

    def test_constant_polynomial_std(self, random_decoder):
        dev, _ = self.deviations(random_decoder, (1.0,))
        assert abs(dev.std() - 1.0) < 0.02

    def test_polynomial_clamped_to_zero_adds_no_noise(self, random_decoder):
        # sigma = G - 100 uS is negative below 100 uS, where it clamps to zero
        dev, targets = self.deviations(random_decoder, (-100.0, 1.0))
        assert (dev[:, targets <= 100.0] == 0).all()
        assert (dev[:, targets > 110.0] != 0).mean() > 0.99

    def test_polynomial_evaluation(self):
        cfg = am.CrossbarConfig(variability_coeffs=(0.5, 0.01))
        assert np.allclose(cfg.sigma(np.array([100.0])), [1.5])

    def test_negative_polynomial_clamped(self):
        cfg = am.CrossbarConfig(variability_coeffs=(-5.0,))
        assert cfg.sigma(np.array([100.0]))[0] == 0.0

    @given(g=arrays(np.float64, st.integers(1, 40),
                    elements=st.one_of(st.floats(60.0, 200.0), st.floats(0.0, 1e300))))
    @settings(max_examples=300, deadline=None)
    def test_default_has_the_bytes_of_relative_0_8_percent(self, g):
        # sigma = 0.008 G was a second device model beside the polynomial;
        # the polynomial (0, 0.008) gives its bytes on [g_lcs, g_hcs] and
        # beyond
        assert am.CrossbarConfig().sigma(g).tobytes() == (0.008 * g).tobytes()

    @given(g=arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=300, deadline=None)
    def test_zero_polynomial_is_positive_zero_everywhere(self, g):
        sigma = am.CrossbarConfig(variability_coeffs=(0.0,)).sigma(g)
        assert sigma.tobytes() == np.zeros_like(g).tobytes()


class TestFaultMap:
    def test_rate_zero_and_one(self):
        rng = np.random.default_rng(3)
        none, full = am.FaultMap.sample(0.0, rng), am.FaultMap.sample(1.0, rng)
        assert not none.recurrent.any() and not none.evaluation.any()
        assert full.recurrent.all() and full.evaluation.all()

    def test_binomial_count(self):
        # 99% interval for Binomial(370*400, 0.1)
        rng = np.random.default_rng(4)
        total = 0
        for _ in range(400):
            fmap = am.FaultMap.sample(0.1, rng)
            total += fmap.recurrent.sum() + fmap.evaluation.sum()
        n = 370 * 400
        sd = np.sqrt(n * 0.1 * 0.9)
        assert abs(total - 0.1 * n) < 2.58 * sd

    @pytest.mark.parametrize("rate", [1.2, float("nan")])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="stuck_rate"):
            am.FaultMap.sample(rate, np.random.default_rng(0))

    def test_stuck_pairs_and_only_they_change(self, random_decoder):
        cfg = am.CrossbarConfig()   # default 0.8% variability on
        fmap = am.FaultMap.none()
        fmap.recurrent[1, 2] = fmap.evaluation[16, 1] = True
        chip = am.program_decoder(random_decoder, cfg, [fmap], [np.random.default_rng(5)])[0]
        clean = am.program_decoder(random_decoder, cfg, [am.FaultMap.none()],
                                   [np.random.default_rng(5)])[0]
        stuck = np.concatenate([fmap.recurrent.ravel()] * 2 + [fmap.evaluation.ravel()] * 2)
        assert (conductances(chip)[stuck] == 200.0).all()
        assert np.array_equal(conductances(chip)[~stuck], conductances(clean)[~stuck])
        assert chip.recurrent.effective()[1, 2] == chip.evaluation.effective()[16, 1] == 0.0

    def test_full_map_kills_output(self, random_decoder):
        fmap = am.FaultMap(np.ones(rd.RECURRENT_UNIT, bool), np.ones(rd.EVALUATION_UNIT, bool))
        chip = am.program_decoder(random_decoder, am.CrossbarConfig(), [fmap],
                                  [np.random.default_rng(6)])[0]
        assert not chip.recurrent.effective().any() and not chip.evaluation.effective().any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            am.FaultMap(np.zeros((20, 16), bool), np.zeros(rd.EVALUATION_UNIT, bool))


class TestQuantize:
    def test_clamp_branch(self):
        assert am._quantize(np.array([7.0, -7.0]), 6.0, 256).tolist() == [6.0, -6.0]

    def test_zero(self):
        assert am._quantize(np.array([0.0]), 6.0, 256).tolist() == [0.0]

    def test_hand_derived_case(self):
        # 0.03 / 12 * 256 = 0.64 -> rounds to 1 -> 12 / 256 = 0.046875
        assert am._quantize(np.array([0.03]), 6.0, 256).tolist() == [0.046875]

    def test_half_away_from_zero(self):
        # step = 1.0 at bound 2, levels 4; 0.5 is exactly half a step
        assert am._quantize(np.array([0.5, -0.5]), 2.0, 4).tolist() == [1.0, -1.0]

    @given(st.floats(-20, 20))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, x):
        q = am._quantize(np.array([x]), 6.0, 256)
        assert am._quantize(q.copy(), 6.0, 256).tolist() == q.tolist()

    @given(st.floats(-20, 20))
    @settings(max_examples=300, deadline=None)
    def test_odd(self, x):
        assert (am._quantize(np.array([-x]), 6.0, 256).tolist()
                == (-am._quantize(np.array([x]), 6.0, 256)).tolist())


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
    am.CrossbarConfig(adc_bound=3.3, levels=100),
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
    """`_quantize`, on the whole array and on each entry alone, and
    retraining's in-place DAC and ADC give the reference bytes; the caller
    silences the overflow its inputs cause."""
    for bound in (cfg.adc_bound, 1.0):
        want = reference_quantize(x, bound, cfg.levels).tobytes()
        v = x.copy()
        assert am._quantize(v, bound, cfg.levels) is v and v.tobytes() == want
        alone = [am._quantize(x[i:i + 1].copy(), bound, cfg.levels) for i in range(len(x))]
        assert np.concatenate(alone).tobytes() == want
    scaled = x / cfg.adc_bound
    if cfg.quantize_io:
        dac = reference_quantize(scaled, 1.0, cfg.levels)
        adc = reference_quantize(x, cfg.adc_bound, cfg.levels)
    else:
        dac, adc = scaled, x
    for convert, want in zip(hwa._converters(hwa.RetrainConfig(io_discretize=True), cfg),
                             (dac * cfg.adc_bound, adc)):
        v = x.copy()
        assert convert(v) is v and v.tobytes() == want.tobytes()


class TestQuantizeBits:
    """The in-place rounding trunc(v + copysign(1/2, v + 0)) equals the
    sign/floor/clip sequence on every float64 input, -0.0 bytes included,
    and gives the input NaN quieted, sign and payload kept, for a NaN."""

    @pytest.mark.parametrize("cfg", QUANTIZE_CONFIGS)
    def test_edges_match_reference(self, cfg):
        for bound in (cfg.adc_bound, 1.0):
            with np.errstate(over="ignore"):  # 1e308 / step overflows to inf
                assert_quantizers_match_reference(quantize_edges(bound, cfg.levels), cfg)

    def test_negative_zero_gives_positive_zero(self):
        assert am._quantize(np.array([-0.0, -1e-9]), 6.0, 256).tobytes() == \
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
                for bound in (cfg.adc_bound, 1.0):
                    ref = reference_quantize(x, bound, cfg.levels)
                    assert (ref.view(np.uint64) == quieted).all()
                assert_quantizers_match_reference(x, cfg)


# the DAC is one multiply, checked at ADC bounds that are no power of two and
# odd or large level counts
HIDDEN_CONFIGS = QUANTIZE_CONFIGS + [
    am.CrossbarConfig(adc_bound=3.7, levels=100),
    am.CrossbarConfig(adc_bound=0.3, levels=1023),
    am.CrossbarConfig(adc_bound=123.456, levels=4096),
    am.CrossbarConfig(adc_bound=5.0, levels=2),
]


class TestHiddenConverter:
    """`_convert_hidden`, the recurrent step's clamp-free ADC -> ReLU -> DAC,
    gives the bytes of `_convert_out`, ReLU and `_convert_in`."""

    @pytest.mark.parametrize("cfg", HIDDEN_CONFIGS)
    def test_edges_match_the_three_conversions(self, cfg):
        a = cfg.adc_bound
        # the grids of both converters (signed zeros, infinities and NaNs of
        # both signs among them), as column currents that land on them at
        # scale 1 and at a scale that is no power of two; huge values
        # overflow
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.concatenate([quantize_edges(a, cfg.levels),
                                    quantize_edges(1.0, cfg.levels) * a])
            for scale in (1.0, 0.37):
                currents = np.concatenate([edges / a, edges / a / scale, edges])
                want = am._convert_in(np.maximum(am._convert_out(currents.copy(), scale, cfg),
                                                 0.0), cfg)
                got = currents.copy()
                assert am._convert_hidden(got, scale, cfg) is got
                assert got.tobytes() == want.tobytes()

    @given(cfg=st.sampled_from(HIDDEN_CONFIGS),
           x=arrays(np.float64, st.integers(1, 40), elements=st.floats(width=64)),
           scale=st.floats(1e-3, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_any_floats_match_the_three_conversions(self, cfg, x, scale):
        with np.errstate(over="ignore", invalid="ignore"):
            want = am._convert_in(np.maximum(am._convert_out(x.copy(), scale, cfg), 0.0), cfg)
            got = am._convert_hidden(x.copy(), scale, cfg)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("levels", [2**48])
    @pytest.mark.parametrize("adc_bound", [0.3, 3.7])
    def test_fine_converters_match_the_three_conversions(self, levels, adc_bound):
        # the finest converter `crossbar.levels` allows; at 2^53 levels and
        # more, a DAC of one multiply gives other bits
        cfg = am.CrossbarConfig(adc_bound=adc_bound, levels=levels)
        x = np.random.default_rng(levels % 1000).random(20_000) * 1.2
        want = am._convert_in(np.maximum(am._convert_out(x.copy(), 1.0, cfg), 0.0), cfg)
        got = am._convert_hidden(x.copy(), 1.0, cfg)
        assert got.tobytes() == want.tobytes()


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
        assert np.allclose(am.AnalogPlan(events, cfg).logits(chip), oracle,
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
        plan = am.AnalogPlan(events, cfg)
        logits = plan.logits(chip)
        assert np.array_equal(plan.logits(swapped), -logits)

    @pytest.mark.parametrize("cfg", [am.CrossbarConfig(), default_cfg(quantize_io=False)],
                             ids=["default", "no_io"])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_zero_steps_give_bias_only_logits(self, cfg, n):
        """With no recurrent step every row's hidden state is zero, so its
        logits come through the evaluation unit's bias row alone."""
        chip = random_chip(np.random.default_rng(11))
        head = np.zeros((n, rd.HIDDEN_SIZE + 1))
        head[:, -1] = am._convert_in(np.ones(1), cfg)[0]
        want = am._convert_out(head @ chip.evaluation.effective(), chip.scale_evaluation, cfg)
        plan = am.AnalogPlan(np.zeros((n, 0, 4), np.uint8), cfg)
        for _ in range(2):   # the plan's buffers are reused
            assert plan.logits(chip).tobytes() == want.tobytes()
        assert (want == want[:1]).all()

    def test_dimension_mismatch_rejected(self):
        chip = random_chip(np.random.default_rng(10))
        for shape in ((2, 3, 3), (2, 3, 5), (1, 2, 3, 4),
                      (3, 4)):  # one shot is a batch of one row
            with pytest.raises(ValueError, match="events must be"):
                am.AnalogPlan(np.zeros(shape), default_cfg()).logits(chip)


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
        programmed = am.program_decoder(random_decoder, cfg, [am.FaultMap.none()],
                                        [np.random.default_rng(11)])[0]
        events = np.random.default_rng(12).integers(0, 2, size=(500, 4, 4))
        analog = am.AnalogPlan(events, cfg).logits(programmed)
        _, _, digital = rd.forward_batch(random_decoder, events)
        assert np.allclose(analog, digital, rtol=1e-9, atol=1e-9)
        assert np.array_equal(rd.logits_to_bits(analog), rd.logits_to_bits(digital))

    def test_unit_shapes_and_scales(self, random_decoder):
        cfg = default_cfg()
        programmed = am.program_decoder(random_decoder, cfg, [am.FaultMap.none()],
                                        [np.random.default_rng(13)])[0]
        assert programmed.recurrent.g_plus.shape == (21, 16)
        assert programmed.evaluation.g_plus.shape == (17, 2)
        mat = np.vstack([random_decoder.w_rec, random_decoder.b_rec[None, :]])
        assert np.isclose(programmed.scale_recurrent, np.abs(mat).max() / 140.0)

    def test_stuck_pairs_sit_exactly_at_hcs(self, random_decoder):
        cfg = am.CrossbarConfig()  # default 0.8% variability on
        rng = np.random.default_rng(14)
        fmap = am.FaultMap.sample(0.5, rng)
        programmed = am.program_decoder(random_decoder, cfg, [fmap], [rng])[0]
        stuck = fmap.recurrent
        assert np.array_equal(programmed.recurrent.g_plus[stuck],
                              np.full(stuck.sum(), 200.0))
        assert np.array_equal(programmed.recurrent.effective()[stuck],
                              np.zeros(stuck.sum()))

    def test_all_stuck_predicts_zero(self, random_decoder):
        cfg = am.CrossbarConfig()
        fmap = am.FaultMap(np.ones((21, 16), bool), np.ones((17, 2), bool))
        programmed = am.program_decoder(random_decoder, cfg, [fmap],
                                        [np.random.default_rng(15)])[0]
        events = np.random.default_rng(16).integers(0, 2, size=(64, 4, 4))
        logits = am.AnalogPlan(events, cfg).logits(programmed)
        assert np.array_equal(logits, np.zeros((64, 2)))
        assert not rd.logits_to_bits(logits).any()

    @pytest.mark.parametrize("cfg", [
        am.CrossbarConfig(),
        default_cfg(),
        am.CrossbarConfig(variability_coeffs=(1.0,)),
        am.CrossbarConfig(variability_coeffs=(-100.0, 1.0)),
        am.CrossbarConfig(g_hcs=150.0, g_lcs=20.0, variability_coeffs=(0.5, 0.01, -1e-4)),
    ])
    @pytest.mark.parametrize("stuck_rate", [0.0, 0.3, 1.0])
    def test_equals_unit_by_unit_reference(self, random_decoder, cfg, stuck_rate):
        for seed in range(5):
            params = random_decoder if seed == 0 else params_with(np.random.default_rng(seed), {})
            rng = np.random.default_rng(100 + seed)
            fmap = am.FaultMap.sample(stuck_rate, rng)
            state = rng.bit_generator.state
            chip = am.program_decoder(params, cfg, [fmap], [rng])[0]
            after, rng.bit_generator.state = rng.bit_generator.state, state
            want = reference_program(params, cfg, fmap, rng)
            assert rng.bit_generator.state == after     # 740 normals either way
            assert conductances(chip).tobytes() == conductances(want).tobytes()
            assert (chip.scale_recurrent, chip.scale_evaluation) == \
                (want.scale_recurrent, want.scale_evaluation)

    def test_zero_params_rejected(self):
        with pytest.raises(ValueError):
            am.program_decoder(rd.DecoderParams.zeros(), default_cfg(),
                               [am.FaultMap.none()], [np.random.default_rng(0)])[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [0, rd.UNIT_SLICES[1].start + 5])
    def test_non_finite_weight_rejected(self, random_decoder, value, entry):
        # one NaN used to make hundreds of its unit's conductances NaN, and
        # the chip then decoded as the always-0 predictor with no error
        params = random_decoder.copy()
        params.flat[entry] = value
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="finite"):
            am.program_decoder(params, am.CrossbarConfig(), [am.FaultMap.none()], [rng])[0]

    def test_programming_is_deterministic_per_stream(self, random_decoder):
        cfg = am.CrossbarConfig()
        a = am.program_decoder(random_decoder, cfg, [am.FaultMap.none()],
                               [np.random.default_rng(77)])[0]
        b = am.program_decoder(random_decoder, cfg, [am.FaultMap.none()],
                               [np.random.default_rng(77)])[0]
        assert np.array_equal(a.recurrent.g_plus, b.recurrent.g_plus)
        assert np.array_equal(a.evaluation.g_minus, b.evaluation.g_minus)



def run_logits(events: np.ndarray, chip: am.ProgrammedDecoder,
               cfg: am.CrossbarConfig) -> np.ndarray:
    """Analog logits by plain products: step t multiplies one input row
    [DAC(x_t) | h | DAC(1)] per run of adjacent rows sharing events[:, :t+1]
    (a single run of several rows twice), every row at the last step, as
    `AnalogPlan` plans its steps,
    each from fresh arrays into a fresh array; then the evaluation unit on
    every row. gemm's bits differ with the row count under some OpenBLAS
    kernels, which is why the runs mirror the plan's."""
    n, steps, width = events.shape
    x = am._convert_in(events.astype(np.float64), cfg)
    bias = am._convert_in(np.ones(1), cfg)[0]
    flat = events.reshape(n, -1)
    h = np.zeros((n, rd.HIDDEN_SIZE))   # each row's hidden state
    for t in range(steps):
        prefix = flat[:, :(t + 1) * width]
        new = np.concatenate([[True], (prefix[1:] != prefix[:-1]).any(axis=1)])
        if t == steps - 1:
            new[:] = True
        starts = np.flatnonzero(new)
        if len(starts) == 1 < n:
            starts = np.zeros(2, np.intp)
        inp = np.concatenate([x[starts, t], h[starts], np.full((len(starts), 1), bias)], axis=1)
        out = am._convert_hidden(inp @ chip.recurrent.effective(), chip.scale_recurrent, cfg)
        h = out[np.cumsum(new) - 1]
    head = np.concatenate([h, np.full((n, 1), bias)], axis=1)
    return am._convert_out(head @ chip.evaluation.effective(), chip.scale_evaluation, cfg)


BATCHED_CONFIGS = {
    "default": am.CrossbarConfig(),
    "odd_bounds": am.CrossbarConfig(adc_bound=3.3, levels=100),
    "no_io": am.CrossbarConfig(quantize_io=False),
}


@pytest.fixture(scope="module")
def batched_sets():
    """Two test sets of 3 rounds, at p = 1e-3 and 1e-2."""
    return [sc.generate_dataset([p], 1500, 3, seed=120 + i) for i, p in enumerate((1e-3, 1e-2))]


def sampled_chips(params, cfg, count):
    """`count` chips at stuck rate 0.1, the last two of other parameters,
    so that the chips' de-scaling factors differ too."""
    streams = [np.random.default_rng(130 + c) for c in range(count)]
    fmaps = [am.FaultMap.sample(0.1, rng) for rng in streams]
    other = params_with(np.random.default_rng(129), {})
    return (am.program_decoder(params, cfg, fmaps[:-2], streams[:-2])
            + am.program_decoder(other, cfg, fmaps[-2:], streams[-2:]))


class TestBatchedChips:
    """Programming and scoring a batch of chips gives, bit for bit, what
    programming and decoding each chip on its own gives. The plain-product
    references keep these checks meaningful under any BLAS kernel, the
    no_io cases included: the last step's product, written straight into
    the evaluation unit's input, must give a plain product's bits."""

    @pytest.mark.parametrize("shared_map", [False, True], ids=["sampled_maps", "chip_map"])
    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_programming_equals_per_chip_reference(self, random_decoder, count, shared_map):
        cfg = am.CrossbarConfig()
        streams = [np.random.default_rng(140 + c) for c in range(count)]
        shared = am.FaultMap.sample(0.3, np.random.default_rng(139))
        fmaps = [shared if shared_map else am.FaultMap.sample(0.3, rng) for rng in streams]
        states = [rng.bit_generator.state for rng in streams]
        chips = am.program_decoder(random_decoder, cfg, fmaps, streams)
        assert len(chips) == count
        for chip, fmap, rng, state in zip(chips, fmaps, streams, states):
            after = rng.bit_generator.state
            for reference in (reference_program,
                              lambda p, c, f, r: am.program_decoder(p, c, [f], [r])[0]):
                rng.bit_generator.state = state
                want = reference(random_decoder, cfg, fmap, rng)
                assert rng.bit_generator.state == after     # 740 normals after the map
                assert conductances(chip).tobytes() == conductances(want).tobytes()
                assert (chip.scale_recurrent, chip.scale_evaluation) == \
                    (want.scale_recurrent, want.scale_evaluation)

    def test_programming_needs_a_generator_per_map(self, random_decoder):
        with pytest.raises(ValueError, match="2 fault maps for 1 generators"):
            am.program_decoder(random_decoder, am.CrossbarConfig(), [am.FaultMap.none()] * 2,
                               [np.random.default_rng(0)])

    @pytest.mark.parametrize("config", BATCHED_CONFIGS)
    @pytest.mark.parametrize("kind", ["union_table", "raw", "rows_1", "rows_2"])
    def test_logits_equal_plain_products_per_run(self, random_decoder, batched_sets, config, kind):
        """Every plan's last step, on every row, writes straight into the
        evaluation unit's input: a union table's, and also that of raw rows
        with duplicates; one row stays on gemv."""
        cfg = BATCHED_CONFIGS[config]
        rows = sc.union_table([(d.events, d.labels) for d in batched_sets])[0]
        events = {"union_table": rows, "raw": batched_sets[1].events,
                  "rows_1": rows[-1:], "rows_2": rows[[0, -1]]}[kind]
        chips = sampled_chips(random_decoder, cfg, 5)
        plan = am.AnalogPlan(events, cfg)
        block = plan.chip_logits(chips)
        assert block.shape == (5, len(events), 2)
        for chip, logits in zip(chips, block):
            want = run_logits(events, chip, cfg).tobytes()
            assert logits.tobytes() == want
            assert plan.logits(chip).tobytes() == want

    @pytest.mark.parametrize("config", BATCHED_CONFIGS)
    @pytest.mark.parametrize("case", ["one_shot_beside_larger", "one_row_of_several_shots",
                                      "two_sets", "groups"])
    def test_scoring_equals_per_chip_per_shot(self, random_decoder, batched_sets, monkeypatch,
                                              config, case):
        """(chips, k) accuracies equal each chip's per-shot accuracy on
        each set decoded on its own: a one-shot set on gemv beside a larger
        set, a set of one row of several shots as a doubled row, and chips
        scored in several groups of a smaller block."""
        cfg = BATCHED_CONFIGS[config]
        low, high = batched_sets
        sets = [(low.events, low.labels), (high.events, high.labels)]
        if case == "one_shot_beside_larger":
            # its one row is also a row of the larger set
            sets[0] = (high.events[5:6], high.labels[5:6])
        elif case == "one_row_of_several_shots":
            sets = [(np.repeat(low.events[:1], 7, axis=0),
                     np.array([0, 1, 0, 0, 1, 1, 0], np.uint8))]
        rows, counts = sc.union_table(sets)
        plan = am.AnalogPlan(sc.table_batch(rows, counts), cfg)
        chips = sampled_chips(random_decoder, cfg, 8)
        groups = []
        if case == "groups":
            monkeypatch.setattr(am, "_BLOCK_WORDS", 2 * plan.rows * 3)
            chip_logits = am.AnalogPlan.chip_logits
            monkeypatch.setattr(am.AnalogPlan, "chip_logits",
                                lambda self, group: groups.append(len(group))
                                or chip_logits(self, group))
        got = am.analog_accuracy(chips, plan, rows, counts)
        assert groups == ([3, 3, 2] if case == "groups" else [])
        want = [[(rd.logits_to_bits(run_logits(events, chip, cfg)) == labels).mean()
                 for events, labels in sets] for chip in chips]
        assert got.shape == (8, len(sets))
        assert got.tolist() == want
        assert [am.analog_accuracy([chip], plan, rows, counts)[0].tolist()
                for chip in chips] == want
        # the chips decode differently, so the comparison can see a mix-up
        assert len(set(map(tuple, want))) > 1 or case == "one_row_of_several_shots"
