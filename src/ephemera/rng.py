"""Deterministic random stream (splitmix64) and the per-trial seed mixer.

The generator is pinned here rather than borrowed from the stdlib so that a
trial's draw sequence is a documented part of the reproducibility contract:
``next_u64`` advances the state by the 64-bit golden-ratio constant and
returns the finalized state; ``below(n)`` draws one word and reduces it
modulo ``n``. Draw k after state s is ``fmix64(s + k * golden)`` (Steele, Lea
& Flood, OOPSLA 2014), so the words can be computed ahead: the generator
keeps a block of the next ``_BLOCK`` words (more when one batch needs more)
and a read position, and ``below_many`` slices its draws off that block. It
advances the state exactly as a loop of ``below`` calls would. ``next_u64``
and ``below`` advance the state without reading the block, so they drop it,
and the next batch computes a fresh block from the state; any interleaving
of the three calls gives the words of a plain loop.
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

# Words per precomputed block.
_BLOCK = 4096
_NO_WORDS = np.empty(0, np.uint64)
_OUT_OF_RANGE = "below_many() needs every n to be an integer in [1, 2**63)"


def _fmix64(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("_state", "_block", "_pos")

    def __init__(self, seed: int):
        self._state = seed & MASK64
        # _block[k] is fmix64(s + (k + 1) * golden) for the state s it was
        # computed at; _pos words of it are used, so the state is
        # s + _pos * golden.
        self._block = _NO_WORDS
        self._pos = 0

    def next_u64(self) -> int:
        self._block = _NO_WORDS
        self._state = (self._state + _GOLDEN) & MASK64
        return _fmix64(self._state)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n): one draw, modulo reduction."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def below_many(self, ns) -> np.ndarray:
        """One ``below(n)`` draw per entry of ``ns``, in order, as int64.

        Every n must be an integer in [1, 2**63), so that each draw fits
        an int64; anything else raises ValueError and draws nothing."""
        ns = np.asarray(ns)
        if not ns.size:
            return np.empty(0, np.int64)
        if ns.dtype.kind not in "iu":
            raise ValueError(_OUT_OF_RANGE)
        # An n of 2**63 or more views as a negative int64.
        signed = ns.view(np.int64) if ns.dtype == np.uint64 else ns.astype(np.int64)
        if int(signed.min()) <= 0:
            raise ValueError(_OUT_OF_RANGE)
        m = signed.size
        pos = self._pos
        if pos + m > self._block.size:
            self._fill(max(m, _BLOCK))
            pos = 0
        self._pos = pos + m
        self._state = (self._state + m * _GOLDEN) & MASK64
        return (self._block[pos:pos + m] % signed.view(np.uint64)).view(np.int64)

    def _fill(self, size: int) -> None:
        """Compute the next ``size`` words after the current state."""
        z = np.arange(1, size + 1, dtype=np.uint64)
        z *= _U_GOLDEN
        z += np.uint64(self._state)
        z ^= z >> _U_30
        z *= _U_M1
        z ^= z >> _U_27
        z *= _U_M2
        z ^= z >> _U_31
        self._block = z


def mix_seed(base_seed: int, trial_index: int) -> int:
    """Derive trial seeds from a base seed.

    Equals the ``trial_index + 1``-th output of a splitmix64 stream seeded
    with ``base_seed``, so distinct trial indices always get distinct seeds.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    return _fmix64((base_seed + (trial_index + 1) * _GOLDEN) & MASK64)
