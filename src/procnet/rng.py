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
the same stream lane-parallel, with identical bits: one Python int holds
up to _LANES draws in 128-bit lanes, each value in its low 64 bits with the
high 64 bits as room for carries, and the finalizer runs once on the whole
int (SIMD within a register).

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

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# draws per block; 2048 timed best of 256, 1024, 2048 and 8192
_LANES = 2048
# the low 64-bit half of each 16-byte lane, as native-order words
_LOW_HALVES = slice(0, None, 2) if sys.byteorder == "little" else slice(None, None, -2)
# the top byte of each of those halves, as positions in the block's bytes
_TOP_BYTES = slice(7, None, 16) if sys.byteorder == "little" else slice(-8, None, -16)


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
def _lane_constants() -> tuple[int, int, int]:
    """(ramp, ones, mask) over _LANES lanes: lane i of the ramp holds
    (i + 1) * gamma modulo 2**64, of ones the value 1, of mask 2**64 - 1."""

    def packed(values) -> int:
        lanes = b"".join(v.to_bytes(16, "little") for v in values)
        return int.from_bytes(lanes, "little")

    return (
        packed((i * _GAMMA) & _MASK64 for i in range(1, _LANES + 1)),
        packed([1] * _LANES),
        packed([_MASK64] * _LANES),
    )


def _blocks(start: int, count: int) -> Iterator[memoryview]:
    ramp, ones, mask = _lane_constants()
    for done in range(0, count, _LANES):
        width = 16 * min(_LANES, count - done)
        base = (start + done * _GAMMA) & _MASK64
        # lane i: the state after draw done + i + 1; the top lanes of a short
        # final block are cut off
        z = (ramp + base * ones) & mask & ((1 << (8 * width)) - 1)
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z ^= z >> 31
        yield memoryview(z.to_bytes(width, sys.byteorder)).cast("Q")[_LOW_HALVES]


def top_bytes(block: memoryview) -> bytes:
    """The top byte (draw >> 56) of every draw of a block of `SplitMix64.blocks`,
    in order, sliced from the bytes under the block."""
    return block.obj[_TOP_BYTES]


def cumulative_thresholds(numerators: Sequence[int], denominator: int) -> list[int]:
    """Integer cut points in [0, 2**64] implementing the sampling rule for the
    weights numerators[j] / denominator: T_j = (cumsum_j << 64) // denominator."""
    return [(s << 64) // denominator for s in accumulate(numerators)]


def sample_index(rng: SplitMix64, thresholds: Sequence[int]) -> int:
    """The smallest j with r < T_j; the weights must sum to exactly 1."""
    return bisect_right(thresholds, rng.next_uint64())
