import numpy as np
import pytest

from ephemera.rng import SplitMix64, mix_seed


def test_reference_values_pin_the_algorithm():
    # First three outputs of splitmix64 seeded with 0 (well-known vector).
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_below_matches_documented_reduction():
    a = SplitMix64(77)
    b = SplitMix64(77)
    for n in (1, 2, 7, 8, 100, 2500):
        assert a.below(n) == b.next_u64() % n


def test_below_stays_in_range():
    rng = SplitMix64(5)
    for _ in range(1000):
        assert 0 <= rng.below(9) < 9


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).below(0)


def test_mix_seed_injective_over_trials():
    for base in (0, 42, (1 << 64) - 1, 987654321):
        seeds = [mix_seed(base, i) for i in range(1000)]
        assert len(set(seeds)) == len(seeds)


def test_mix_seed_differs_across_bases():
    assert mix_seed(42, 0) != mix_seed(43, 0)


def test_mix_seed_rejects_negative_trial():
    with pytest.raises(ValueError):
        mix_seed(42, -1)


@pytest.mark.parametrize("seed", [0, 77, (1 << 64) - 1])
def test_below_many_matches_sequential_below(seed):
    # Seed 2**64 - 1 wraps the state on the first draw.
    ns = [3, 5, 8, 8, 3, 5, 5, 8, 3] * 7
    batched = SplitMix64(seed)
    single = SplitMix64(seed)
    got = batched.below_many(ns)
    assert got.dtype == np.int64
    assert got.tolist() == [single.below(n) for n in ns]
    assert batched._state == single._state
    # The streams stay in step after the batch.
    assert batched.next_u64() == single.next_u64()


def test_below_many_empty_batch_keeps_state():
    rng = SplitMix64(5)
    assert rng.below_many([]).tolist() == []
    assert rng.next_u64() == SplitMix64(5).next_u64()


def test_below_many_rejects_zero_modulus():
    with pytest.raises(ValueError):
        SplitMix64(1).below_many([3, 0])
