import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("ns", [[2**64 - 1], [3, 2**63], [1.5], [2, 2.0], [2**64]])
def test_below_many_rejects_what_an_int64_draw_cannot_hold(ns):
    # below(2**64 - 1) is a non-negative int, which no int64 batch holds;
    # 1.5 is not a modulus at all. Nothing is drawn.
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.below_many(ns)
    assert rng.next_u64() == SplitMix64(1).next_u64()


def test_below_many_takes_the_largest_int64_modulus():
    n = 2**63 - 1
    assert SplitMix64(9).below_many(np.array([n], np.uint64)).tolist() == [SplitMix64(9).below(n)]


# Batch sizes: 0 is an empty batch, and sizes up to 5000 straddle and exceed
# the 4096-word block. Batch tops: the largest n of a batch.
batch_sizes = st.one_of(st.integers(0, 40), st.integers(3000, 5000))
batch_tops = st.sampled_from([8, 48400, 2**63 - 1])

draw_calls = st.lists(
    st.one_of(
        st.tuples(st.just("below"), st.integers(1, 2**64 - 1)),
        st.tuples(st.just("next_u64"), st.none()),
        # (size, largest n, dtype)
        st.tuples(st.just("below_many"),
                  st.tuples(batch_sizes, batch_tops, st.sampled_from([np.int64, np.uint64]))),
        # The unchecked draw of Arena.step: uint64 moduli in [1, 2**63).
        st.tuples(st.just("_draws"), st.tuples(batch_sizes, batch_tops, st.just(np.uint64))),
    ),
    max_size=8,
)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=draw_calls)
def test_any_interleaving_draws_the_words_of_a_plain_loop(seed, calls):
    rng, loop = SplitMix64(seed), SplitMix64(seed)
    for k, (call, arg) in enumerate(calls):
        if call == "below":
            assert rng.below(arg) == loop.below(arg)
        elif call == "next_u64":
            assert rng.next_u64() == loop.next_u64()
        else:
            size, top, dtype = arg
            ns = np.random.default_rng(k).integers(1, top, size, endpoint=True, dtype=dtype)
            got = getattr(rng, call)(ns)
            assert got.dtype == np.int64
            assert got.tolist() == [loop.below(n) for n in ns.tolist()]
        assert rng._state == loop._state
    assert rng.next_u64() == loop.next_u64()
