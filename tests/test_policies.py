import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.policies import Draws, PolicyContext, _argmin, ecmp, lsq, rlb_assign, sed, wcmp


def ctx(ongoing, weights=None, seed=0):
    return PolicyContext(
        ongoing=list(ongoing),
        weights=list(weights) if weights is not None else [1.0] * len(ongoing),
        rng=np.random.default_rng(seed),
    )


class TestEcmp:
    def test_single_server(self):
        for _ in range(10):
            assert ecmp(ctx([0])) == 0

    def test_uniform_frequencies(self):
        n, draws = 4, 100_000
        c = ctx([0] * n)
        counts = np.bincount([ecmp(c) for _ in range(draws)], minlength=n)
        sigma = math.sqrt(0.25 * 0.75 / draws)
        for freq in counts / draws:
            assert abs(freq - 0.25) < 3 * sigma

    def test_reproducible(self):
        a = [ecmp(ctx([0, 0], seed=7)) for _ in range(1)]
        seq1 = []
        seq2 = []
        c1, c2 = ctx([0, 0], seed=7), ctx([0, 0], seed=7)
        for _ in range(50):
            seq1.append(ecmp(c1))
            seq2.append(ecmp(c2))
        assert seq1 == seq2


class TestWcmp:
    def test_processor_weighted_frequencies(self):
        draws = 100_000
        c = ctx([0, 0], weights=[4.0, 2.0])
        counts = np.bincount([wcmp(c) for _ in range(draws)], minlength=2)
        for freq, p in zip(counts / draws, (2 / 3, 1 / 3)):
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) < 3 * sigma

    def test_equal_weights_reduce_to_uniform(self):
        draws = 100_000
        c = ctx([0, 0, 0], weights=[1.0, 1.0, 1.0])
        counts = np.bincount([wcmp(c) for _ in range(draws)], minlength=3)
        p = 1 / 3
        sigma = math.sqrt(p * (1 - p) / draws)
        for freq in counts / draws:
            assert abs(freq - p) < 3 * sigma

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            wcmp(ctx([0, 0], weights=[4.0, 0.0]))


class TestLsq:
    def test_examples(self):
        assert lsq(ctx([3, 1])) == 1
        assert lsq(ctx([2, 2])) == 0
        assert lsq(ctx([5, 0, 3])) == 1


class TestSed:
    def test_examples(self):
        assert sed(ctx([2, 3], weights=[4.0, 2.0])) == 0
        assert sed(ctx([0, 0], weights=[4.0, 2.0])) == 0
        assert sed(ctx([3, 1], weights=[4.0, 2.0])) == 0  # exact tie -> lowest


class TestRlbAssign:
    def test_prefers_faster_inferred_server(self):
        assert rlb_assign(ctx([0, 0], weights=[0.9, 0.1])) == 0

    def test_nonpositive_speed_is_internal_error(self):
        with pytest.raises(RuntimeError):
            rlb_assign(ctx([0, 0], weights=[0.5, 0.0]))

    def test_matches_sed_under_proportional_weights(self):
        # s ~ p scaled by powers of two keeps every division exact
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            counts = rng.integers(0, 30, n).tolist()
            p = rng.integers(1, 9, n).astype(float).tolist()
            scale = 2.0 ** int(rng.integers(-4, 5))
            c1 = ctx(counts, weights=p)
            c2 = ctx(counts, weights=[scale * v for v in p])
            assert sed(c1) == rlb_assign(c2)

    def test_scale_invariance_random_positive_scalings(self):
        rng = np.random.default_rng(7)
        for _ in range(1_000):
            n = int(rng.integers(1, 9))
            counts = rng.integers(0, 30, n).tolist()
            s = rng.uniform(0.05, 1.05, n).tolist()
            c = math.exp(rng.uniform(-5.0, 5.0))
            base = rlb_assign(ctx(counts, weights=s))
            scaled = rlb_assign(ctx(counts, weights=[c * v for v in s]))
            assert base == scaled

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=8),
        st.floats(0.5, 8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_lsq_equals_sed_for_homogeneous_processors(self, counts, p):
        c1 = ctx(counts)
        c2 = ctx(counts, weights=[p] * len(counts))
        assert lsq(c1) == sed(c2)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_all_policies_return_valid_ids(self, counts, data):
        n = len(counts)
        weights = data.draw(st.lists(st.floats(0.1, 8.0), min_size=n, max_size=n))
        c = ctx(counts, weights=weights, seed=data.draw(st.integers(0, 1000)))
        for fn in (ecmp, wcmp, lsq, sed, rlb_assign):
            assert 0 <= fn(c) < n


class TestRandomTieBreak:
    def test_random_tie_break_stays_within_ties(self):
        rng = np.random.default_rng(3)
        c = PolicyContext(ongoing=[2, 2, 5], weights=[1.0, 1.0, 1.0], rng=rng)
        picks = {lsq(c, tie_break="random") for _ in range(200)}
        assert picks == {0, 1}

    def test_random_tie_break_is_seeded(self):
        seq = []
        for _ in range(2):
            c = PolicyContext(ongoing=[1, 1], weights=[1.0, 1.0],
                              rng=np.random.default_rng(11))
            seq.append([lsq(c, tie_break="random") for _ in range(100)])
        assert seq[0] == seq[1]


def _argmin_two_pass(scores, tie_break, rng):
    """The earlier _argmin, kept as the reference: a scan, then a tie list."""
    best = 0
    best_v = scores[0]
    for j in range(1, len(scores)):
        if scores[j] < best_v:
            best_v = scores[j]
            best = j
    if tie_break == "random":
        ties = [j for j, v in enumerate(scores) if v == best_v]
        if len(ties) > 1:
            return int(ties[int(rng.integers(len(ties)))])
    return best


class TestArgminStream:
    @given(st.lists(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5]), min_size=1, max_size=8),
                    min_size=1, max_size=20),
           st.sampled_from(["random", "lowest"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_index_and_rng_state_as_two_pass(self, score_lists, tie_break, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for scores in score_lists:
            assert _argmin(scores, tie_break, ours) == _argmin_two_pass(scores, tie_break, ref)
            assert ours.bit_generator.state == ref.bit_generator.state


# None stands for random(); an int k for integers(k).  Bounds near 2**32
# reject up to half of their first draws, so the rejection loop runs often.
DRAW_OPS = st.lists(st.one_of(st.none(), st.integers(1, 2**32),
                              st.sampled_from([1, 2, 3, 8, 2**31 + 1, 3 * 2**30, 2**32 - 1,
                                               2**32])), max_size=300)


def _draw(rng, op):
    return rng.random() if op is None else int(rng.integers(op))


class TestDraws:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.booleans(),
           st.integers(0, 1500), DRAW_OPS)
    @settings(max_examples=300, deadline=None)
    def test_same_values_as_generator(self, seed, advance, pending_half, skip, ops):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (ours, ref):
            rng.bit_generator.advance(advance)
            if pending_half:  # takes a low half; the high half waits in the state
                rng.integers(10)
        assert ours.bit_generator.state["has_uint32"] == int(pending_half)
        draws = Draws(ours)
        # up to about 1,000 words ahead of the ops: they start anywhere in a
        # block of raw words, and some run across a refill
        for i in range(skip):
            op = None if i % 3 == 0 else 7
            assert _draw(draws, op) == _draw(ref, op)
        for op in ops:
            assert _draw(draws, op) == _draw(ref, op)

    def test_long_stream_across_refills(self):
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        draws = Draws(ours)
        for i in range(20_000):
            op = (None, 2, 5, 2**31 + 1, 2**32)[i % 5]
            assert _draw(draws, op) == _draw(ref, op)

    def test_one_draws_nothing(self):
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        draws = Draws(ours)
        assert draws.integers(1) == 0 and ref.integers(1) == 0
        assert draws.integers(2**32) == ref.integers(2**32)

    @pytest.mark.parametrize("k", [0, -3, 2**32 + 1, 2**40])
    def test_bound_out_of_range_raises(self, k):
        with pytest.raises(ValueError):
            Draws(np.random.default_rng(0)).integers(k)

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators_raise(self, bitgen):
        with pytest.raises(TypeError):
            Draws(np.random.Generator(bitgen(0)))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "lowest"]),
           st.lists(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1.0, 2.0, 4.0])),
                             min_size=1, max_size=8), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_policies_pick_as_with_a_plain_generator(self, seed, tie_break, servers):
        # few distinct counts and weights, so lsq, sed and rlb_assign tie often
        for fn in (ecmp, wcmp, lsq, sed, rlb_assign):
            picks = []
            for rng in (Draws(np.random.default_rng(seed)), np.random.default_rng(seed)):
                seq = []
                for pairs in servers:
                    c = PolicyContext(ongoing=[a for a, _ in pairs],
                                      weights=[w for _, w in pairs], rng=rng)
                    seq.append(fn(c) if fn in (ecmp, wcmp) else fn(c, tie_break))
                picks.append(seq)
            assert picks[0] == picks[1], fn.__name__
