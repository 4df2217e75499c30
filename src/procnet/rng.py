"""Deterministic pseudo-randomness for chain simulation.

The generator is SplitMix64: the 64-bit state advances by the constant
0x9E3779B97F4A7C15 on every draw, and the output is the finalizer

    z  = state
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    return z ^ (z >> 31)

with all arithmetic modulo 2**64.  The algorithm is written out so that a
trajectory is reproducible from (seed, init, steps) alone, independent of
any library's RNG internals.  `next_uint64` is the defining rule.

Draw t depends only on seed + t * gamma, so `SplitMix64.blocks` evaluates
the same stream lane-parallel, with identical bits (SIMD within a
register).  A block of _LANES draws is two Python ints of _LANES // 2
128-bit lanes, one holding the states of the even draws and one those of
the odd draws, each value in the low 64 bits of its lane with the high 64
bits as room for carries.  One addition of a constant advances every lane
to the next block, and the two multiply rounds run on each half.  The
halves then merge as `even | odd << 64`, so draws 2i and 2i + 1 become
consecutive 64-bit words of one int; the last xor-shift runs once on it,
masked to the low 33 bits of each word, and its bytes are the block's
native-order words.  A short last block is the first words of a full one.

Sampling rule for a probability row (p_0, ..., p_{n-1}): precompute the
cumulative integer thresholds T_j = floor(2**64 * (p_0 + ... + p_j)); a draw
r in [0, 2**64) selects the smallest j with r < T_j.  The rounding bias is
below n * 2**-64 per draw.

`dynamics.simulate_chain` applies the rule through a guide table (Chen and
Asau, 1974): each row gets 256 slots, one per value of a draw's top byte
(`top_bytes` reads them from a block without building the draws), and a
slot names the selected column outright when no threshold falls strictly
inside that byte's bucket of [0, 2**64).  Any other slot falls back to the
exact search of the smallest j with r < T_j on the full draw, so every
trajectory is the one the rule defines, bit for bit.
"""
from __future__ import annotations

import sys
from bisect import bisect_right
from functools import cache
from itertools import accumulate
from typing import Iterator, Sequence

from .exactlp import _pack

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# draws per block; 2048 timed best of 256, 1024, 2048 and 8192
_LANES = 2048
# the draws of a block, in order, as native-order words of its bytes
_WORDS = slice(None) if sys.byteorder == "little" else slice(None, None, -1)
# the top byte of each of those words, as positions in the block's bytes
_TOP_BYTES = slice(7, None, 8) if sys.byteorder == "little" else slice(-8, None, -8)


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

    def blocks(self, count: int) -> Iterator[memoryview]:
        """The next `count` draws, equal to `count` calls of `next_uint64`.

        They come in blocks of up to _LANES unsigned 64-bit values.  The state
        advances past all of them at once, so a later `next_uint64` continues
        the stream after the last draw.
        """
        start = self._state
        self._state = (start + count * _GAMMA) & _MASK64
        return _blocks(start, count)


@cache
def _lane_constants() -> tuple[int, int, int, int, int, int]:
    """Over _LANES // 2 lanes of 128 bits: lane i of the even (odd) ramp
    holds (2i + 1) * gamma ((2i + 2) * gamma), of `step` _LANES * gamma, of
    `ones` 1 and of `mask` 2**64 - 1, all modulo 2**64; `low33` holds
    2**33 - 1 in each of the _LANES 64-bit words of a merged block."""
    half = range(_LANES // 2)
    return (
        _pack((((2 * i + 1) * _GAMMA) & _MASK64 for i in half), 16),
        _pack((((2 * i + 2) * _GAMMA) & _MASK64 for i in half), 16),
        _pack([(_LANES * _GAMMA) & _MASK64] * len(half), 16),
        _pack([1] * len(half), 16),
        _pack([_MASK64] * len(half), 16),
        _pack([(1 << 33) - 1] * _LANES, 8),
    )


def _blocks(start: int, count: int) -> Iterator[memoryview]:
    even_ramp, odd_ramp, step, ones, mask, low33 = _lane_constants()
    # lane i of `even` (`odd`): the state that gives draw 2i (2i + 1) of the
    # current block, counting from 0
    seed = start * ones
    even = (even_ramp + seed) & mask
    odd = (odd_ramp + seed) & mask
    for done in range(0, count, _LANES):
        z = _multiply_rounds(even, mask) | _multiply_rounds(odd, mask) << 64
        z ^= (z >> 31) & low33
        words = memoryview(z.to_bytes(8 * _LANES, sys.byteorder)).cast("Q")
        yield words[_WORDS][: count - done]
        even = (even + step) & mask
        odd = (odd + step) & mask


def _multiply_rounds(z: int, mask: int) -> int:
    """The finalizer's two xor-shift-multiply rounds on every 128-bit lane."""
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    return ((z ^ (z >> 27)) & mask) * _MIX2 & mask


def top_bytes(block: memoryview) -> bytes:
    """The top byte (draw >> 56) of every draw of a block of `SplitMix64.blocks`,
    in order, sliced from the bytes under the block."""
    return block.obj[_TOP_BYTES][: len(block)]


def cumulative_thresholds(numerators: Sequence[int], denominator: int) -> list[int]:
    """Integer cut points in [0, 2**64] implementing the sampling rule for the
    weights numerators[j] / denominator: T_j = (cumsum_j << 64) // denominator."""
    return [(s << 64) // denominator for s in accumulate(numerators)]


def sample_index(rng: SplitMix64, thresholds: Sequence[int]) -> int:
    """The smallest j with r < T_j; the weights must sum to exactly 1."""
    return bisect_right(thresholds, rng.next_uint64())
