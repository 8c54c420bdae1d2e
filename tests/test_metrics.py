import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbsim import metrics
from lbsim.metrics import ChannelStats, TimedSample, bossaer, g_fairness, jain, reduce, reward


class TestReduce:
    def test_single_sample_at_now(self):
        stats = reduce([TimedSample(2.0, 5.0)], now=5.0)
        assert stats.average == 2.0
        assert stats.p90 == 2.0
        assert stats.std == 0.0
        assert stats.discounted_average == 2.0
        assert stats.weighted_discounted_average == 2.0

    def test_constant_values_at_now(self):
        stats = reduce([(1.0, 3.0)] * 4, now=3.0)
        assert stats.average == 1.0
        assert stats.p90 == 1.0
        assert stats.std == 0.0
        assert stats.discounted_average == 1.0
        assert stats.weighted_discounted_average == 1.0

    def test_two_sample_discounting(self):
        # hand evaluation: weights 0.9^1 and 0.9^0
        stats = reduce([(1.0, 9.0), (3.0, 10.0)], now=10.0)
        assert abs(stats.discounted_average - (0.9 * 1.0 + 3.0) / 2.0) < 1e-12
        assert abs(stats.weighted_discounted_average - (0.9 + 3.0) / 1.9) < 1e-12

    def test_empty_is_all_zero(self):
        stats = reduce([], now=1.0)
        assert stats == ChannelStats()

    def test_p90_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        stats = reduce([(v, 0.0) for v in values], now=0.0)
        # manual order-statistic interpolation at rank 0.9*(n-1)
        rank = 0.9 * (len(values) - 1)
        lo, frac = int(rank), rank - int(rank)
        expected = values[lo] * (1 - frac) + values[lo + 1] * frac
        assert abs(stats.p90 - expected) < 1e-12

    def test_population_std(self):
        values = [1.0, 2.0, 3.0]
        stats = reduce([(v, 0.0) for v in values], now=0.0)
        mean = sum(values) / 3
        expected = math.sqrt(sum((v - mean) ** 2 for v in values) / 3)
        assert abs(stats.std - expected) < 1e-12

    def test_future_timestamp_rejected(self):
        with pytest.raises(ValueError):
            reduce([(1.0, 2.0)], now=1.0)

    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant_at_shared_timestamp(self, values, data):
        perm = data.draw(st.permutations(values))
        a = reduce([(v, 1.0) for v in values], now=2.0)
        b = reduce([(v, 1.0) for v in perm], now=2.0)
        for field in ("average", "p90", "std", "discounted_average",
                      "weighted_discounted_average"):
            assert abs(getattr(a, field) - getattr(b, field)) < 1e-9

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_p90_matches_numpy_percentile_bitwise(self, values):
        arr = np.asarray(values, dtype=float)
        expected = np.float64(np.percentile(arr, 90.0))
        assert np.float64(metrics.p90(arr)).tobytes() == expected.tobytes()


    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 100.0)),
                    min_size=1, max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_reduce_arrays_matches_numpy_bitwise(self, pairs):
        values = np.array([v for v, _ in pairs])
        times = np.array([t for _, t in pairs])
        weighted = 0.9 ** (100.0 - times) * values
        expected = [values.mean(), np.percentile(values, 90.0), values.std(),
                    weighted.sum() / values.size,
                    weighted.sum() / (0.9 ** (100.0 - times)).sum()]
        got = metrics.reduce_arrays(values, times, 100.0)
        got = [got.average, got.p90, got.std, got.discounted_average,
               got.weighted_discounted_average]
        assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestFairnessIndices:
    def test_jain_examples(self):
        assert abs(jain([2.0, 2.0, 2.0]) - 1.0) < 1e-12
        assert abs(jain([1.0, 3.0]) - 0.8) < 1e-12
        assert abs(jain([1.0, 0.0]) - 0.5) < 1e-12

    def test_g_examples(self):
        assert abs(g_fairness([5.0, 5.0]) - 1.0) < 1e-12
        assert abs(g_fairness([1.0, 2.0]) - math.sin(math.pi / 4) * math.sin(math.pi / 2)) < 1e-12
        assert abs(g_fairness([0.0, 1.0]) - 0.0) < 1e-12

    def test_bossaer_examples(self):
        assert abs(bossaer([3.0, 3.0, 3.0]) - 1.0) < 1e-12
        assert abs(bossaer([1.0, 2.0]) - 0.5) < 1e-12
        assert abs(bossaer([1.0, 2.0, 4.0]) - 0.125) < 1e-12

    def test_all_zero_convention(self):
        assert jain([0.0, 0.0]) == 1.0
        assert g_fairness([0.0, 0.0, 0.0]) == 1.0
        assert bossaer([0.0]) == 1.0

    def test_empty_and_negative_rejected(self):
        for fn in (jain, g_fairness, bossaer):
            with pytest.raises(ValueError):
                fn([])
            with pytest.raises(ValueError):
                fn([1.0, -0.5])

    def test_jain_lower_bound(self):
        # 1/n with equality iff exactly one nonzero element
        assert abs(jain([0.0, 0.0, 5.0]) - 1.0 / 3.0) < 1e-12
        assert jain([0.1, 0.0, 5.0]) > 1.0 / 3.0

    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_constant_vectors_are_fair(self, values):
        n = len(values)
        c = values[0]
        vec = [c] * n
        assert abs(jain(vec) - 1.0) < 1e-9
        assert abs(g_fairness(vec) - 1.0) < 1e-9
        assert abs(bossaer(vec) - 1.0) < 1e-9

    @given(
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=10),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, values, c):
        scaled = [c * v for v in values]
        assert abs(jain(scaled) - jain(values)) < 1e-9
        assert abs(g_fairness(scaled) - g_fairness(values)) < 1e-9
        assert abs(bossaer(scaled) - bossaer(values)) < 1e-9

    @given(st.floats(1.0 + 1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_bossaer_more_sensitive_than_jain(self, k):
        assert bossaer([1.0, k]) < jain([1.0, k])

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=300))
    @example([942263.5703125])  # m ** 2 / mean(x * x) gives 1.0000000000000002 here
    @settings(max_examples=300, deadline=None)
    def test_jain_bit_equal_to_mean_form(self, values):
        x = np.asarray(values)
        if x.max() == 0.0:
            assert jain(values) == 1.0
            return
        if np.mean(x * x) < np.finfo(float).tiny:
            x = x / x.max()  # the squares underflow: the index is taken on x / max
        m = np.mean(x)  # m * m, not m ** 2: numpy's power can differ in the last bit
        want = m * m / np.mean(x * x)
        assert np.float64(jain(values)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("values, want", [
        ([6.5e-283], 1.0), ([1e-200, 0.0], 0.5), ([5e-324, 5e-324], 1.0),
        ([1e-160, 3e-160], 0.8), ([2e-300, 2e-300, 0.0, 0.0], 0.5)])
    def test_jain_when_squares_underflow(self, values, want):
        assert jain(values) == pytest.approx(want, rel=1e-15)

    def test_jain_at_least_one_over_n(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            x = rng.uniform(0.0, 10.0, n)
            if x.max() == 0:
                continue
            assert jain(x) >= 1.0 / n - 1e-12


# Signed zeros, subnormals, the least normal float and extreme magnitudes,
# placed into the drawn vectors.
_EDGE_TERMS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.0]
# numpy's pairwise sum changes shape at 8 and past 128 terms, and past 256 it splits twice
_LENGTHS = st.one_of(st.sampled_from([7, 8, 9, 127, 128, 129, 256, 257]), st.integers(0, 400))


@st.composite
def _vectors(draw, nonnegative=False, min_size=0):
    """Vectors at one drawn scale from 1e-300 to 1e300, with drawn edge terms.

    The terms come from one byte string, not one strategy each: 53-bit
    fractions, optionally shrunk by up to 2 ** -spread term by term, so the
    vector mixes terms of like and of unlike magnitude.
    """
    n = draw(_LENGTHS.filter(lambda k: k >= min_size))
    words = np.frombuffer(draw(st.binary(min_size=8 * n, max_size=8 * n)), dtype="<u8")
    spread = draw(st.integers(0, 63))
    shifts = ((words & 63) % (spread + 1)).astype(float)
    terms = (words >> 11) * 2.0 ** -53 * 2.0 ** -shifts
    terms *= 10.0 ** draw(st.integers(-300, 299))
    if not nonnegative:
        terms[(words >> 6) & 1 == 1] *= -1.0
    values = terms.tolist()
    edges = [v for v in _EDGE_TERMS if v >= 0.0] if nonnegative else _EDGE_TERMS
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(edges))
    return values


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _jain_numpy(values):
    """jain as it was computed on numpy arrays, the reference for the replay."""
    arr = np.asarray(values, dtype=float)
    total = arr.sum()
    if total == 0.0:
        return 1.0
    sq = (arr * arr).sum() / arr.size
    if sq < np.finfo(float).tiny:
        arr = arr / arr.max()
        total, sq = arr.sum(), (arr * arr).sum() / arr.size
    m = total / arr.size
    return float(m * m / sq)


def _bossaer_numpy(values):
    """bossaer as it was computed on numpy arrays."""
    arr = np.asarray(values, dtype=float)
    top = arr.max()
    if top == 0.0:
        return 1.0
    return float(np.prod(arr / top))


class TestNumpyReplay:
    @given(_vectors())
    @example([])
    @example([-0.0])
    @example([-0.0] * 9)
    @example([1e16, 1.0, -1e16])  # builtin sum gives 1.0 here from Python 3.12 on
    @settings(max_examples=400, deadline=None)
    def test_add_reduce_equals_numpy(self, values):
        with np.errstate(all="ignore"):
            want = np.add.reduce(np.asarray(values, dtype=float))
        assert _bits(metrics._add_reduce(values)) == _bits(want)

    @given(_vectors(nonnegative=True, min_size=1))
    @example([942263.5703125])
    @example([0.0, -0.0])
    @example([1e-160, 3e-160])
    @settings(max_examples=400, deadline=None)
    def test_indices_equal_numpy_forms(self, values):
        with np.errstate(all="ignore"):
            want_jain, want_bossaer = _jain_numpy(values), _bossaer_numpy(values)
        assert _bits(jain(values)) == _bits(want_jain)
        assert _bits(bossaer(values)) == _bits(want_bossaer)
        assert _bits(reward(values, "jain")) == _bits(want_jain - 1.0)
        assert _bits(reward(values, "bossaer")) == _bits(want_bossaer - 1.0)

    def test_indices_take_arrays_and_ints(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5]
        for fn in (jain, g_fairness, bossaer):
            assert _bits(fn(np.asarray(values, dtype=float))) == _bits(fn(values))
        assert _bits(jain(values)) == _bits(_jain_numpy(values))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for values in ([bad], [1.0, bad], [bad, 0.0, 2.0], np.array([0.5, bad])):
            for fn in (jain, g_fairness, bossaer):
                with pytest.raises(ValueError, match="finite"):
                    fn(values)
            for index in metrics.FAIRNESS_INDICES:
                with pytest.raises(ValueError, match="finite"):
                    reward(values, index)


class TestReward:
    def test_examples(self):
        assert reward([0.2, 0.2], "jain") == 0.0
        assert abs(reward([1.0, 3.0], "jain") - (-0.2)) < 1e-12
        assert abs(reward([1.0, 2.0], "bossaer") - (-0.5)) < 1e-12

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            reward([1.0], "gini")

    def test_default_sign_maximal_at_fairness(self):
        # reward is <= 0 and equals 0 exactly on an even vector
        assert reward([3.0, 3.0, 3.0], "bossaer") == 0.0
        assert reward([1.0, 9.0], "jain") < 0.0
