"""Deterministic pseudo-randomness for chain simulation.

The generator is SplitMix64: the 64-bit state advances by the constant
0x9E3779B97F4A7C15 on every draw, and the output is the finalizer

    z  = state
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    return z ^ (z >> 31)

with all arithmetic modulo 2**64.  The algorithm is written out so that a
trajectory is reproducible from (seed, init, steps) alone, independent of
any library's RNG internals.

Sampling rule for a probability row (p_0, ..., p_{n-1}): precompute the
cumulative integer thresholds T_j = floor(2**64 * (p_0 + ... + p_j)); a draw
r in [0, 2**64) selects the smallest j with r < T_j.  The rounding bias is
below n * 2**-64 per draw.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SCALE = 1 << 64


class SplitMix64:
    """64-bit counter-based generator; negative seeds wrap modulo 2**64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


def cumulative_thresholds(weights: Sequence[Fraction]) -> list[int]:
    """Integer cut points in [0, 2**64] implementing the sampling rule."""
    return [(a.numerator * _SCALE) // a.denominator for a in accumulate(weights)]


def sample_index(rng: SplitMix64, thresholds: Sequence[int]) -> int:
    """The smallest j with r < T_j; the weights must sum to exactly 1."""
    return bisect_right(thresholds, rng.next_uint64())
