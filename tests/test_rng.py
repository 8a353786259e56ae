import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab.rng import Rng


def test_same_seed_same_stream():
    a = Rng(123).uniform((100,))
    b = Rng(123).uniform((100,))
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform((50,)), Rng(2).uniform((50,)))


def test_stream_is_counter_based():
    # drawing in two chunks equals drawing at once
    r1 = Rng(7)
    chunked = np.concatenate([r1.uniform((10,)), r1.uniform((10,))])
    np.testing.assert_array_equal(chunked, Rng(7).uniform((20,)))


def test_derive_is_independent_and_stable():
    base = Rng(5)
    a1 = base.derive("weights", 0).normal((20,))
    a2 = Rng(5).derive("weights", 0).normal((20,))
    b = Rng(5).derive("weights", 1).normal((20,))
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_uniform_bounds_and_mean():
    u = Rng(11).uniform((200_000,), low=-2.0, high=3.0)
    assert u.min() >= -2.0 and u.max() < 3.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normal_moments():
    z = Rng(13).normal((200_000,), mean=1.0, std=2.0)
    assert abs(z.mean() - 1.0) < 0.02
    assert abs(z.std() - 2.0) < 0.02


def test_permutation_is_a_permutation():
    p = Rng(17).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**63), st.integers(1, 30), st.integers(0, 30))
def test_sample_without_replacement_properties(seed, n, k):
    k = min(k, n)
    picks = Rng(seed).sample_without_replacement(n, k)
    assert len(picks) == k
    assert len(set(picks)) == k
    assert picks == sorted(picks)
    assert all(0 <= p < n for p in picks)


def test_sample_without_replacement_full_range():
    assert Rng(3).sample_without_replacement(5, 5) == [0, 1, 2, 3, 4]


def _loop_permutation(rng, n):
    out = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _loop_sample(rng, n, k):
    pool = np.arange(n, dtype=np.int64)
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(int(v) for v in pool[:k])


@pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 351, 1000])
def test_vectorised_draws_equal_a_loop_of_below_calls(n):
    # one below() call per swap, as Fisher-Yates draws them; the counter must end
    # where the loop leaves it, so later draws from the stream are unchanged too
    loop, fast = Rng(21).derive(n), Rng(21).derive(n)
    want = _loop_permutation(loop, n)
    got = fast.permutation(n)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert fast._counter == loop._counter
    for k in sorted({0, min(1, n), n // 3, n}):
        loop, fast = Rng(22).derive(n, k), Rng(22).derive(n, k)
        assert fast.sample_without_replacement(n, k) == _loop_sample(loop, n, k)
        assert fast._counter == loop._counter
        assert fast.uniform() == loop.uniform()


def test_sample_without_replacement_rejects_bad_counts():
    for n, k in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            Rng(0).sample_without_replacement(n, k)
