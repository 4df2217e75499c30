from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import dense_cumulative_thresholds
from procnet.rng import _LANES as L
from procnet.rng import SplitMix64, cumulative_thresholds, sample_index, top_bytes

# first outputs of the published algorithm for these seeds
KNOWN_SEED_0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
KNOWN_SEED_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)


def test_known_answer_vectors():
    r = SplitMix64(0)
    assert tuple(r.next_uint64() for _ in range(3)) == KNOWN_SEED_0
    r = SplitMix64(1234567)
    assert tuple(r.next_uint64() for _ in range(3)) == KNOWN_SEED_1234567


def test_known_answer_vectors_through_blocks():
    for seed, known in ((0, KNOWN_SEED_0), (1234567, KNOWN_SEED_1234567)):
        blocks = SplitMix64(seed).blocks(3)
        assert [r for block in blocks for r in block] == list(known)


# counts around the half-block and the block, and short last blocks of odd
# length: a block holds the even draws and the odd draws in two halves of
# L // 2 lanes, merged into consecutive words
PINNED_COUNTS = (1, L // 2 - 1, L // 2, L // 2 + 1, L - 1, L, L + 1, L + 5, 2 * L + 7)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(-(2**64), 2**65 - 1), st.sampled_from((2**64 - 1, 2**63))),
    st.one_of(st.sampled_from((0,) + PINNED_COUNTS), st.integers(0, 3 * L)),
)
@example(seed=2**64 - 1, count=0)
@example(seed=0, count=L // 2 - 1)
@example(seed=2**63, count=L // 2)
@example(seed=-1, count=L // 2 + 1)
@example(seed=1234567, count=L + 5)
@example(seed=2**64 - 1, count=2 * L + 7)
def test_blocks_equal_the_scalar_stream(seed, count):
    lanes, scalar = SplitMix64(seed), SplitMix64(seed)
    blocks = lanes.blocks(count)
    # the state has advanced past every draw before the first block is read
    after = lanes.next_uint64()
    blocks = list(blocks)
    assert all(len(block) <= L for block in blocks)
    assert [r for block in blocks for r in block] == [
        scalar.next_uint64() for _ in range(count)
    ]
    assert after == scalar.next_uint64()


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
def test_top_bytes_are_the_top_bytes_of_the_draws(seed):
    for count in PINNED_COUNTS:
        blocks = list(SplitMix64(seed).blocks(count))
        full, short = divmod(count, L)
        assert [len(block) for block in blocks] == [L] * full + [short] * (short > 0)
        scalar = SplitMix64(seed)
        for block in blocks:
            tops = top_bytes(block)
            assert type(tops) is bytes
            assert list(tops) == [scalar.next_uint64() >> 56 for _ in block]
            assert list(tops) == [r >> 56 for r in block]


def test_same_seed_same_stream():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]


def test_negative_seed_wraps():
    assert SplitMix64(-1).next_uint64() == SplitMix64((1 << 64) - 1).next_uint64()


def test_thresholds_partition_the_range():
    t = cumulative_thresholds((1, 1), 2)
    assert t == [1 << 63, 1 << 64]
    t = cumulative_thresholds((1, 1, 1), 3)
    assert t[-1] == 1 << 64
    assert t[0] == (1 << 64) // 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=12), st.integers(0, 3))
def test_thresholds_equal_the_fraction_rule(numerators, extra):
    # numerators over any denominator l give the cut points of the weights
    # a / l as Fractions, also when gcd(l, numerators) > 1 or the sum is not l
    denominator = sum(numerators) + extra or 1
    weights = [Fraction(a, denominator) for a in numerators]
    assert cumulative_thresholds(numerators, denominator) == dense_cumulative_thresholds(
        weights
    )


def test_zero_weight_outcomes_never_drawn():
    thresholds = cumulative_thresholds((0, 1), 1)
    rng = SplitMix64(5)
    assert all(sample_index(rng, thresholds) == 1 for _ in range(200))
    # trailing zero weight cannot be selected either
    thresholds = cumulative_thresholds((1, 0), 1)
    rng = SplitMix64(6)
    assert all(sample_index(rng, thresholds) == 0 for _ in range(200))


def test_sampling_roughly_matches_weights():
    thresholds = cumulative_thresholds((1, 3), 4)
    rng = SplitMix64(7)
    counts = Counter(sample_index(rng, thresholds) for _ in range(20_000))
    assert abs(counts[1] / 20_000 - 0.75) < 0.02
