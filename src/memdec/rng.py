"""Deterministic seed derivation and counter-based uniform streams.

All randomness in the toolkit flows from a single master seed through
`derive_seed`, a splitmix64-style mixing chain: every (stage, index, ...)
path yields an independent 64-bit stream key, so results are identical for
any execution order or degree of parallelism.

The syndrome sampler additionally needs one uniform per (shot, noise
location) that can be evaluated for any subset of shots without replaying a
sequential generator. `counter_draws` provides that: draw i of stream k
is the top 53 bits of the splitmix64 output at state k + (i+1)*GOLDEN,
vectorised over numpy uint64 arrays; `counter_uniforms` scales it to [0, 1).
The vectorised hash is `mix64` (`mix53` keeps its top 53 bits); the syndrome
sampler applies all of it but the final xorshift (`_mix64_head`) in place to
blocks of states, and compares the full hash against a shifted `draw_limit`
only where that partial hash can still fire. The sampler's worker threads
hold the interpreter lock between numpy calls, so `_mix64_head` makes its
six and no other: its shifts and multipliers are uint64 constants bound
once, and it enters no `np.errstate`, since uint64 array arithmetic wraps
mod 2^64 without a warning (numpy scalar arithmetic warns, which is why
`counter_draws`, whose indices may be a scalar, keeps one). `derive_seed`
runs the same finalizer on Python ints (`_mix`), whose per-call cost stays
far below a numpy call's.

`spawn_generator` seeds a numpy PCG64 Generator from a derived key, through
numpy's SeedSequence, which costs about 15 µs per stream. Where many
sibling streams are needed, `SpawnedGenerators` computes the words that
SeedSequence would hand PCG64 for all of them at once (`pcg64_seed_words`,
a fixed cost of about 60 µs whatever the count) and builds each stream's
own Generator from its words, about 2.5 µs each; the streams are bit for
bit those of `spawn_generator`. Measured on a 2-vCPU Xeon with numpy 2.4:
8 streams with their Generators cost about 95 µs, against about 115 µs
through SeedSequence.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    """splitmix64 finalizer on a python int (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Derive a 64-bit stream key from a master seed and an index path.

    Stage names are passed as small integers (see `Stage` constants below)
    so the derivation is stable across releases.
    """
    state = _mix((int(master) + _GOLDEN) & _MASK)  # numpy integers would overflow
    for part in path:
        state = _mix(state ^ _mix((int(part) + _GOLDEN) & _MASK))
    return state


class Stage:
    """Fixed stage tags for hierarchical seed derivation."""

    DATASET = 1
    TRAIN = 2
    RETRAIN = 3
    PROGRAM = 4
    CHIP = 5
    TEST_SET = 6
    MASK = 7
    NOISE = 8


def spawn_generator(master: int, *path: int) -> np.random.Generator:
    """numpy Generator seeded from the derived key."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *path)))


# splitmix64's constants as uint64 scalars, built once: the sampler hashes
# each tile of draws with them, and building a scalar per call is a Python
# call under the interpreter lock
GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_U64_11, _U64_27, _U64_30, _U64_31 = map(np.uint64, (11, 27, 30, 31))


def _mix64_head(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """`mix64` without its final `y ^ (y >> 31)`, in place on the uint64
    array `z`; that step leaves the top 31 bits of y as they are. Returns
    `z`. Array arithmetic on uint64 wraps mod 2^64 without a warning, so no
    `np.errstate` is entered (only numpy scalar arithmetic warns)."""
    np.right_shift(z, _U64_30, out=scratch)
    z ^= scratch
    z *= _U64_MIX1
    np.right_shift(z, _U64_27, out=scratch)
    z ^= scratch
    z *= _U64_MIX2
    return z


def mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, in place on the uint64 states `z` (`_mix` on
    every entry). `scratch`, if given, is a uint64 buffer of z's shape that
    the shifts write into. Returns `z`."""
    if scratch is None:
        scratch = np.empty_like(z)
    _mix64_head(z, scratch)
    np.right_shift(z, _U64_31, out=scratch)
    z ^= scratch
    return z


def mix53(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """`mix64` keeping the top 53 bits: afterwards `z` holds integer draws in
    [0, 2^53). Returns `z`."""
    mix64(z, scratch)
    z >>= _U64_11
    return z


def counter_draws(key: int, indices) -> np.ndarray:
    """53-bit integer draws (uint64) for draw `indices` of the stream `key`.

    Entry i is independent of every other index, so callers may evaluate any
    subset of a stream in any order. uint64 arithmetic wraps mod 2^64 by
    construction.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(key) + (indices + np.uint64(1)) * GOLDEN
    return mix53(z)


def counter_uniforms(key: int, indices) -> np.ndarray:
    """Uniform [0,1) doubles for draw `indices` of the stream `key`: the
    `counter_draws` scaled by 2^-53, which is exact."""
    return counter_draws(key, indices).astype(np.float64) * 2.0**-53


def draw_limit(prob) -> np.ndarray:
    """Integer bound with `counter_draws(k, i) < draw_limit(prob)` exactly when
    `counter_uniforms(k, i) < prob`, for prob in [0, 1].

    Scaling by 2^53 is exact, so u < prob iff m < prob * 2^53 iff
    m < ceil(prob * 2^53) for the integer m; prob = 1 gives 2^53, above
    every draw.
    """
    return np.ceil(np.asarray(prob, dtype=np.float64) * 2.0**53).astype(np.uint64)


# numpy's SeedSequence constants (32-bit hash words)
_U32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(calls, 2, 1) uint32: row i holds the value hash call i xors with and
    the multiplier it multiplies by. SeedSequence's hash multiplier advances
    once per hash, whatever the data, so call i takes the i-th value and
    the next one."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _U32)
    return np.array([consts[:-1], consts[1:]], np.uint32).T[:, :, None].copy()


# the pool's 4 entropy words, then the 12 mixing hashes (one for each
# destination of each source word), then the 8 output words
_HASH_POOL, _HASH_MIX = np.split(_hash_constants(_INIT_A, _MULT_A, 16), [4])
_HASH_OUT = _hash_constants(_INIT_B, _MULT_B, 8)
_SIXTEEN = np.uint32(16)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of `value` (m, n) with the constants
    of one call per row, `consts` (m, 2, 1)."""
    value = (value ^ consts[:, 0]) * consts[:, 1]
    return value ^ (value >> _SIXTEEN)


def pcg64_seed_words(keys) -> np.ndarray:
    """(n, 4) uint64: row i is `SeedSequence(keys[i]).generate_state(4,
    np.uint64)`, the words that `np.random.PCG64(keys[i])` seeds from, for
    the n uint64 `keys`.

    SeedSequence reads a key below 2^32 as one 32-bit entropy word and pads
    its 4-word pool by hashing 0, so every key can be read as the two words
    (low, high). The pool is one (4, n) array: for a fixed source word, the
    three destination words it mixes into read the unchanged source, each
    with its own hash constants, so they are updated as one (3, n) block.
    That makes about 25 numpy calls whatever n, about 70 µs.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, len(keys)), np.uint32)
    pool[0] = keys & np.uint64(_U32)
    pool[1] = keys >> np.uint64(32)
    pool = _hashmix(pool, _HASH_POOL)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                 - np.uint32(_MIX_MULT_R) * _hashmix(pool[src:src + 1],
                                                     _HASH_MIX[3 * src:3 * src + 3]))
        pool[dst] = mixed ^ (mixed >> _SIXTEEN)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_OUT).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


@cache
def _seed_words_type() -> type:
    """The seed sequence that hands `np.random.PCG64` one row of
    `pcg64_seed_words`. Built on first use: numpy imports `numpy.random`
    only when it is asked for, and a process that only samples syndromes
    never asks (it would hold about 2.5 MB more)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        # PCG64 asks for 4 uint64 words, which it reads from the array's
        # buffer; a row of the C-contiguous table is a contiguous view
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self._words

    return SeedWords


class SpawnedGenerators:
    """`spawn_generator(master, *path, i)` for i in range(count), without
    building a SeedSequence per stream: the keys and seed words of all
    streams are computed in one vectorised pass, a fixed cost of about
    80 µs, and `self[i]` returns a new Generator whose PCG64 seeds itself
    from stream i's words, about 2.5 µs against about 15 µs through
    SeedSequence. The words are not cached between instances: retraining
    builds one stream per batch of an epoch (1875 for 60k samples in
    batches of 32), and a cache of those would hold megabytes. The streams
    share no state, so any number of them may be held and drawn from in
    any order."""

    def __init__(self, master: int, path: tuple[int, ...], count: int):
        # derive_seed's last mixing step, over every index at once
        keys = np.arange(count, dtype=np.uint64)
        with np.errstate(over="ignore"):
            keys += GOLDEN
        mix64(keys)
        keys ^= np.uint64(derive_seed(master, *path))
        self._words = pcg64_seed_words(mix64(keys))
        self._seed_words = _seed_words_type()

    def __getitem__(self, i: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._seed_words(self._words[i])))
