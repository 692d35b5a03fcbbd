import warnings

import numpy as np
import pytest

from memdec import rng

# first outputs of the reference splitmix64 generator seeded with state 0
SPLITMIX64_STATE0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_known_splitmix64_vectors():
    expected = [(v >> 11) * 2.0**-53 for v in SPLITMIX64_STATE0]
    assert list(rng.counter_uniforms(0, [0, 1, 2])) == expected
    assert list(rng.counter_draws(0, [0, 1, 2])) == [v >> 11 for v in SPLITMIX64_STATE0]


def test_scalar_mix_matches_vector_hash():
    states = np.random.default_rng(1).integers(0, 2**63, size=200, dtype=np.uint64) * np.uint64(2)
    draws = rng.mix53(states.copy())
    assert [rng._mix(int(z)) >> 11 for z in states] == [int(m) for m in draws]


@pytest.mark.parametrize("shape", [(3,), ()])
def test_vector_hash_wraps_without_warning_or_errstate(monkeypatch, shape):
    # the sampler's hash enters no np.errstate: uint64 array arithmetic
    # wraps silently, 0-d arrays included, where numpy scalars would warn
    errstate = np.errstate

    def no_errstate(*args, **kwargs):
        raise AssertionError("np.errstate entered")

    monkeypatch.setattr(rng.np, "errstate", no_errstate)
    for value in (0, 2**63, 2**64 - 1):
        states = np.full(shape, value, dtype=np.uint64)
        with errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = rng.mix64(states.copy())
            drawn = rng.mix53(states.copy(), np.empty_like(states))
        assert (mixed == rng._mix(value)).all() and (drawn == rng._mix(value) >> 11).all()


def test_any_subset_or_order_gives_the_same_draws():
    key = 2**64 - 5
    full = rng.counter_uniforms(key, np.arange(1000, dtype=np.uint64))
    pick = np.random.default_rng(2).permutation(1000)[:137].astype(np.uint64)
    assert np.array_equal(rng.counter_uniforms(key, pick), full[pick])
    assert np.array_equal(rng.counter_uniforms(key, pick[::-1]), full[pick[::-1]])
    assert rng.counter_uniforms(key, [999])[0] == full[999]


def test_uniforms_lie_in_unit_interval():
    u = rng.counter_uniforms(123456789, np.arange(10_000, dtype=np.uint64))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def _agrees(key, idx, probs):
    m = rng.counter_draws(key, idx)
    u = rng.counter_uniforms(key, idx)
    probs = np.asarray(probs, dtype=np.float64)
    return np.array_equal(m < rng.draw_limit(probs), u < probs)


@pytest.mark.parametrize("prob", [0.0, 1.0])
def test_draw_limit_at_the_ends(prob):
    idx = np.arange(5000, dtype=np.uint64)
    assert _agrees(7, idx, np.full(5000, prob))
    fired = rng.counter_draws(7, idx) < rng.draw_limit(prob)
    assert fired.all() if prob == 1.0 else not fired.any()


def test_draw_limit_at_neighbours_of_a_draw():
    idx = np.arange(200, dtype=np.uint64)
    u = rng.counter_uniforms(9, idx)
    for probs in (u, np.nextafter(u, 2.0), np.nextafter(u, -1.0)):
        assert _agrees(9, idx, probs)
    assert not (rng.counter_draws(9, idx) < rng.draw_limit(u)).any()
    assert (rng.counter_draws(9, idx) < rng.draw_limit(np.nextafter(u, 2.0))).all()


def test_draw_limit_at_random_and_tiny_probs():
    gen = np.random.default_rng(3)
    idx = np.arange(20_000, dtype=np.uint64)
    assert _agrees(11, idx, gen.random(20_000))
    assert _agrees(11, idx, gen.random(20_000) * 1e-3)
    assert rng.draw_limit(2.0**-60) == 1 and rng.draw_limit(5e-324) == 1


PCG64_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def test_pcg64_seed_words_equal_numpy_seeding():
    keys = PCG64_KEYS + [int(k) for k in np.random.default_rng(4).integers(
        0, 2**64 - 1, size=1000, dtype=np.uint64, endpoint=True)]
    words = rng.pcg64_seed_words(np.array(keys, dtype=np.uint64))
    assert words.shape == (len(keys), 4) and words.dtype == np.uint64
    seed_words = rng._seed_words_type()
    for key, row in zip(keys, words):
        assert np.array_equal(row, np.random.SeedSequence(key).generate_state(4, np.uint64))
        assert np.random.PCG64(seed_words(row)).state == np.random.PCG64(key).state


def test_spawned_generators_equal_spawn_generator():
    streams = rng.SpawnedGenerators(2**64 - 3, (rng.Stage.NOISE, 4), 300)
    for i in (0, 1, 299, 17, 0):
        assert np.array_equal(streams[i].standard_normal(50),
                              rng.spawn_generator(2**64 - 3, rng.Stage.NOISE, 4, i)
                              .standard_normal(50))


def test_spawned_streams_are_independent():
    # taking a stream used to reseed the one generator every index shared
    streams = rng.SpawnedGenerators(7, (rng.Stage.MASK, 2), 10)
    third = streams[3]
    fifth = streams[5]
    for i, stream in ((3, third), (5, fifth)):
        assert np.array_equal(stream.random(20),
                              rng.spawn_generator(7, rng.Stage.MASK, 2, i).random(20))
