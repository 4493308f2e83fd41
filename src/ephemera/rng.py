"""Deterministic random stream (splitmix64) and the per-trial seed mixer.

The generator is pinned here rather than borrowed from the stdlib so that a
trial's draw sequence is a documented part of the reproducibility contract:
``next_u64`` advances the state by the 64-bit golden-ratio constant and
returns the finalized state; ``below(n)`` draws one word and reduces it
modulo ``n``. Draw k after state s is ``fmix64(s + k * golden)``, so
``below_many`` computes a run of draws in one numpy expression (Steele, Lea
& Flood, OOPSLA 2014) with the same words and final state as a loop of
``below`` calls.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Every operand of the batched path is an explicit np.uint64, so numpy 1.x
# value-based casting and numpy 2 promotion give the same wrapped words.
_U_GOLDEN = np.uint64(_GOLDEN)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U_30 = np.uint64(30)
_U_27 = np.uint64(27)
_U_31 = np.uint64(31)


def _fmix64(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _fmix64(self._state)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n): one draw, modulo reduction."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        # next_u64 inlined; this is the hot call of the simulation loop.
        s = self._state = (self._state + _GOLDEN) & MASK64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) % n

    def below_many(self, ns) -> np.ndarray:
        """One ``below(n)`` draw per entry of ``ns``, in order, as int64."""
        ns = np.asarray(ns, dtype=np.uint64)
        if ns.size and int(ns.min()) <= 0:
            raise ValueError("below_many() needs every n >= 1")
        z = np.arange(1, ns.size + 1, dtype=np.uint64)
        z *= _U_GOLDEN
        z += np.uint64(self._state)
        self._state = (self._state + ns.size * _GOLDEN) & MASK64
        z ^= z >> _U_30
        z *= _U_M1
        z ^= z >> _U_27
        z *= _U_M2
        z ^= z >> _U_31
        z %= ns
        return z.astype(np.int64)


def mix_seed(base_seed: int, trial_index: int) -> int:
    """Derive trial seeds from a base seed.

    Equals the ``trial_index + 1``-th output of a splitmix64 stream seeded
    with ``base_seed``, so distinct trial indices always get distinct seeds.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    return _fmix64((base_seed + (trial_index + 1) * _GOLDEN) & MASK64)
