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
The vectorised hash is `mix53`, which the syndrome sampler also applies in
place to blocks of states; `derive_seed` runs the same finalizer on Python
ints (`_mix`), whose per-call cost stays far below a numpy call's.
"""

from __future__ import annotations

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
    state = _mix((master + _GOLDEN) & _MASK)
    for part in path:
        state = _mix(state ^ _mix((part + _GOLDEN) & _MASK))
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


GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)


def mix53(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, in place on the uint64 states `z`, keeping the
    top 53 bits: afterwards `z` holds integer draws in [0, 2^53). `scratch`,
    if given, is a uint64 buffer of z's shape that the shifts write into.
    Returns `z`."""
    if scratch is None:
        scratch = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=scratch)
        z ^= scratch
        z *= _U64_MIX1
        np.right_shift(z, np.uint64(27), out=scratch)
        z ^= scratch
        z *= _U64_MIX2
        np.right_shift(z, np.uint64(31), out=scratch)
        z ^= scratch
        z >>= np.uint64(11)
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
