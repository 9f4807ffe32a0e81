import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcam.errors import RangeError
from flowcam.feature_engine import Feature
from flowcam.matcher import FlowVector, match_features, ratio_filter
from oracles import feature_set, hamming, match_features_bruteforce, vector_batch


def match(prev, curr, gate):
    """`match_features` on record lists, as a list of `FlowVector` records."""
    return list(match_features(feature_set(prev), feature_set(curr), gate))


def ratio(vectors, threshold):
    """`ratio_filter` on a record list, as a list of `FlowVector` records."""
    return list(ratio_filter(vector_batch(vectors), threshold))


def feat(x, y, descriptor, score=10, orientation=0.0):
    return Feature(x, y, score, orientation, descriptor)


def desc_from_int(value):
    return value.to_bytes(32, "little")


def random_features(rng, n, span=64):
    feats = []
    for _ in range(n):
        feats.append(
            feat(
                int(rng.integers(0, span)),
                int(rng.integers(0, span)),
                rng.integers(0, 256, size=32, dtype=np.uint8).tobytes(),
            )
        )
    return feats


class TestHamming:
    def test_identity(self):
        d = bytes(range(32))
        assert hamming(d, d) == 0

    def test_complement(self):
        d = bytes(range(32))
        inv = bytes(255 - b for b in d)
        assert hamming(d, inv) == 256

    def test_two_bit_difference(self):
        assert hamming(desc_from_int(0x01), desc_from_int(0x07)) == 2

    def test_wrong_width_rejected(self):
        with pytest.raises(RangeError):
            hamming(b"\x00" * 16, b"\x00" * 32)


class TestMatchFeatures:
    def test_self_match(self):
        rng = np.random.default_rng(0)
        feats = random_features(rng, 10)
        vectors = match(feats, feats, 4)
        assert len(vectors) == len(feats)
        assert all(v.dx == 0 and v.dy == 0 and v.best_score == 0 for v in vectors)

    def test_empty_prev(self):
        rng = np.random.default_rng(1)
        assert match([], random_features(rng, 5), 8) == []

    def test_rigid_translation_recovered(self):
        rng = np.random.default_rng(2)
        prev = []
        taken = set()
        while len(prev) < 12:
            x, y = int(rng.integers(10, 40)), int(rng.integers(10, 40))
            if (x, y) in taken:
                continue
            taken.add((x, y))
            prev.append(feat(x, y, rng.integers(0, 256, size=32, dtype=np.uint8).tobytes()))
        curr = [feat(f.x + 3, f.y - 2, f.descriptor) for f in prev]
        vectors = match(prev, curr, 8)
        assert vectors == match_features_bruteforce(prev, curr, 8)
        assert len(vectors) == 12
        assert all((v.dx, v.dy) == (3, -2) for v in vectors)

    def test_no_candidate_emits_nothing(self):
        prev = [feat(5, 5, desc_from_int(1))]
        curr = [feat(50, 50, desc_from_int(1))]
        assert match(prev, curr, 8) == []

    def test_single_candidate_second_score_is_256(self):
        prev = [feat(5, 5, desc_from_int(1))]
        curr = [feat(7, 5, desc_from_int(3))]
        [v] = match(prev, curr, 8)
        assert v.best_score == 1
        assert v.second_score == 256

    def test_tie_breaks_prefer_smaller_displacement(self):
        d = desc_from_int(0)
        prev = [feat(10, 10, d)]
        curr = [feat(14, 10, d), feat(11, 10, d)]
        [v] = match(prev, curr, 8)
        assert (v.dx, v.dy) == (1, 0)
        assert v.best_score == 0 and v.second_score == 0

    def test_tie_breaks_then_row_major(self):
        d = desc_from_int(0)
        prev = [feat(10, 10, d)]
        curr = [feat(10, 12, d), feat(10, 8, d)]  # same Hamming, same Chebyshev
        [v] = match(prev, curr, 8)
        assert (v.dx, v.dy) == (0, -2)  # (10, 8) is earlier in row-major order

    def test_output_ordered_by_prev_row_major(self):
        rng = np.random.default_rng(3)
        prev = random_features(rng, 30)
        curr = random_features(rng, 30)
        vectors = match(prev, curr, 12)
        keys = [(v.y_prev, v.x_prev) for v in vectors]
        assert keys == sorted(keys)

    def test_non_injective(self):
        d = desc_from_int(0xFFFF)
        prev = [feat(10, 10, d), feat(12, 10, d)]
        curr = [feat(11, 10, d)]
        vectors = match(prev, curr, 4)
        assert len(vectors) == 2
        assert {v.x_curr for v in vectors} == {11}

    def test_count_never_exceeds_prev(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            prev = random_features(rng, int(rng.integers(0, 30)))
            curr = random_features(rng, int(rng.integers(0, 30)))
            assert len(match(prev, curr, 6)) <= len(prev)

    def test_wider_gate_never_loses_vectors(self):
        rng = np.random.default_rng(5)
        prev = random_features(rng, 25)
        curr = random_features(rng, 25)
        counts = [len(match(prev, curr, d)) for d in (1, 2, 4, 8, 16, 64)]
        assert counts == sorted(counts)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        prev = random_features(rng, 20)
        curr = random_features(rng, 20)
        base = match(prev, curr, 10)
        perm = list(rng.permutation(len(prev)))
        shuffled = match([prev[i] for i in perm], curr, 10)
        assert shuffled == base

    @given(
        n_prev=st.integers(0, 64),
        n_curr=st.integers(0, 64),
        gate=st.integers(1, 79),
        span=st.integers(3, 700),
        layout=st.sampled_from(["uniform", "crowded", "cell-edges"]),
        pool=st.sampled_from([0, 1, 2, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_prev=5, n_curr=1, gate=4, span=40, layout="uniform", pool=0, seed=0)
    @example(n_prev=20, n_curr=1, gate=3, span=6, layout="crowded", pool=1, seed=1)
    @example(n_prev=30, n_curr=30, gate=1, span=700, layout="cell-edges", pool=2, seed=2)
    @settings(max_examples=300, deadline=None)
    def test_grid_matches_bruteforce(self, n_prev, n_curr, gate, span, layout, pool, seed):
        """Oracle over the layouts a bucketed table can get wrong: one cell
        holding many features beside sparse ones, coordinates on both sides
        of every cell border (x = 0 and the last column included), spans far
        wider than the gate, a single current feature, and descriptors drawn
        from a small pool (pool > 0) so that Hamming and Chebyshev ties are
        common and the rank tie-break decides."""
        rng = np.random.default_rng(seed)
        descs = rng.integers(0, 256, size=(pool, 32), dtype=np.uint8)
        borders = np.unique(np.clip(
            np.arange(0, span + gate, gate)[:, None] + np.array([-1, 0, 1]), 0, span - 1
        ))
        cell = rng.integers(0, -(-span // gate)) * gate

        def coords(n):
            if layout == "cell-edges":
                return rng.choice(borders, size=(n, 2))
            xy = rng.integers(0, span, size=(n, 2))
            if layout == "crowded":
                k = rng.integers(0, n + 1)
                xy[:k] = np.minimum(cell + rng.integers(0, gate, size=(k, 2)), span - 1)
            return xy

        def features(n):
            out = []
            for x, y in coords(n).tolist():
                d = descs[rng.integers(0, pool)] if pool else rng.integers(
                    0, 256, size=32, dtype=np.uint8)
                out.append(feat(x, y, d.tobytes()))
            return out

        prev = features(n_prev)
        curr = features(n_curr)
        assert match(prev, curr, gate) == match_features_bruteforce(
            prev, curr, gate
        )

    def test_duplicate_positions_handled(self):
        rng = np.random.default_rng(7)
        prev = random_features(rng, 8, span=3)
        curr = random_features(rng, 8, span=3)
        assert match(prev, curr, 2) == match_features_bruteforce(prev, curr, 2)


class TestRatioFilter:
    def vec(self, best, second):
        return FlowVector(5, 5, 1, 0, best, second)

    def test_equal_scores_suppressed(self):
        assert ratio([self.vec(100, 100)], 0.8) == []

    def test_perfect_match_always_kept(self):
        kept = ratio([self.vec(0, 0), self.vec(0, 10)], 0.5)
        assert len(kept) == 2

    def test_threshold_inequality(self):
        assert ratio([self.vec(40, 100)], 0.8) == [self.vec(40, 100)]
        assert ratio([self.vec(90, 100)], 0.8) == []

    def test_subsequence_preserved(self):
        rng = np.random.default_rng(8)
        vectors = []
        for _ in range(50):
            best = int(rng.integers(0, 200))
            second = int(rng.integers(best, 257)) if best < 256 else 256
            vectors.append(self.vec(best, min(second, 256)))
        kept = ratio(vectors, 0.7)
        it = iter(vectors)
        assert all(v in it for v in kept)  # order-preserving subsequence

    def test_threshold_one_removes_exact_ties_only(self):
        vectors = [self.vec(10, 10), self.vec(10, 11), self.vec(0, 0), self.vec(255, 255)]
        kept = ratio(vectors, 1.0)
        assert kept == [self.vec(10, 11), self.vec(0, 0)]

    @given(
        scores=st.lists(
            st.tuples(st.integers(0, 256), st.integers(0, 256)).map(sorted), max_size=40
        ),
        threshold=st.one_of(
            st.sampled_from([1.0, 0.5, 0.8, 0.25]),
            st.floats(0.0, 1.0, exclude_min=True),
        ),
    )
    @example(scores=[[0, 0], [0, 7], [5, 5], [256, 256]], threshold=1.0)
    @example(scores=[[40, 80], [39, 80], [41, 80], [0, 0]], threshold=0.5)
    @example(scores=[[64, 80], [63, 80], [4, 5], [3, 5]], threshold=0.8)
    @settings(max_examples=300, deadline=None)
    def test_mask_matches_list_rule(self, scores, threshold):
        """The vectorized mask against the per-record rule, including
        best = 0, second = 0, threshold 1.0 and best exactly equal to
        threshold * second (in float64, 0.5 * 80 is 40.0, 0.8 * 80 is 64.0
        and 0.8 * 5 is 4.0)."""
        vectors = [self.vec(best, second) for best, second in scores]
        expected = [
            v for v in vectors
            if v.best_score == 0 or v.best_score < threshold * v.second_score
        ]
        assert ratio(vectors, threshold) == expected

    def test_invalid_threshold(self):
        with pytest.raises(RangeError):
            ratio([], 0.0)
        with pytest.raises(RangeError):
            ratio([], 1.5)


class TestFlowVectorInvariants:
    def test_best_cannot_exceed_second(self):
        with pytest.raises(RangeError):
            FlowVector(0, 0, 0, 0, 10, 5)

    def test_score_bounds(self):
        with pytest.raises(RangeError):
            FlowVector(0, 0, 0, 0, -1, 5)
        with pytest.raises(RangeError):
            FlowVector(0, 0, 0, 0, 0, 300)
