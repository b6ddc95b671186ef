"""Maximum-similarity assignment against exhaustive enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowtrack.assignment import max_similarity_assignment
from oracles import best_assignment_bruteforce, hungarian_reference


def total(similarity: np.ndarray, pairs) -> float:
    return math.fsum(similarity[i, j] for i, j in pairs)


class TestExamples:
    def test_two_by_two(self):
        similarity = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert max_similarity_assignment(similarity) == [(0, 0), (1, 1)]

    def test_swap_preferred(self):
        similarity = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert max_similarity_assignment(similarity) == [(0, 1), (1, 0)]

    def test_single_cell(self):
        assert max_similarity_assignment(np.array([[1.0]])) == [(0, 0)]

    def test_empty_dimensions(self):
        assert max_similarity_assignment(np.zeros((0, 3))) == []
        assert max_similarity_assignment(np.zeros((3, 0))) == []
        assert max_similarity_assignment(np.zeros((0, 0))) == []

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            max_similarity_assignment(np.array([[1.0, math.nan]]))
        with pytest.raises(ValueError):
            max_similarity_assignment(np.array([[math.inf]]))


class TestStructure:
    def test_rectangular_pair_count(self, rng):
        for rows, cols in [(2, 5), (5, 2), (1, 7), (7, 1), (4, 4)]:
            similarity = rng.uniform(0.0, 1.0, size=(rows, cols))
            pairs = max_similarity_assignment(similarity)
            assert len(pairs) == min(rows, cols)
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)
            for i, j in pairs:
                assert 0 <= i < rows and 0 <= j < cols

    def test_deterministic(self, rng):
        similarity = rng.uniform(0.0, 1.0, size=(5, 6))
        assert max_similarity_assignment(similarity) == max_similarity_assignment(
            similarity
        )

    def test_tie_prefers_lowest_indices(self):
        similarity = np.full((2, 2), 0.5)
        assert max_similarity_assignment(similarity) == [(0, 0), (1, 1)]
        similarity = np.full((3, 3), 0.25)
        assert max_similarity_assignment(similarity) == [(0, 0), (1, 1), (2, 2)]


class TestOptimality:
    def test_matches_bruteforce_totals(self, rng):
        for _ in range(150):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            similarity = rng.uniform(0.0, 1.0, size=(rows, cols))
            pairs = max_similarity_assignment(similarity)
            best_total, _ = best_assignment_bruteforce(similarity)
            assert total(similarity, pairs) == pytest.approx(best_total, abs=1e-12)

    def test_handles_negative_values(self, rng):
        # Negative similarities may be dropped entirely when padding wins.
        for _ in range(50):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            similarity = rng.uniform(-1.0, 1.0, size=(rows, cols))
            pairs = max_similarity_assignment(similarity)
            best_total, _ = best_assignment_bruteforce(similarity)
            # The padded square problem may leave a row on a zero pad column
            # instead of taking a negative cell, so the realized total can
            # exceed the forced-full-assignment optimum but never fall below.
            assert total(similarity, pairs) >= best_total - 1e-12

    def test_duplicate_values_still_optimal(self, rng):
        for _ in range(50):
            size = int(rng.integers(2, 7))
            values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(size, size))
            pairs = max_similarity_assignment(values)
            best_total, _ = best_assignment_bruteforce(values)
            assert total(values, pairs) == pytest.approx(best_total, abs=1e-12)


def similarity_matrices(elements: st.SearchStrategy[float]) -> st.SearchStrategy[np.ndarray]:
    shapes = st.tuples(st.integers(0, 9), st.integers(0, 9))
    return shapes.flatmap(lambda shape: arrays(float, shape, elements=elements))


class TestAgainstScalarReference:
    """The list-based solver returns exactly the pairs of the numpy-scalar
    Hungarian it replaced, tie-breaks included."""

    @settings(max_examples=300, deadline=None)
    @given(similarity_matrices(st.floats(-1.0, 1.0, allow_nan=False)))
    def test_random_and_rectangular(self, similarity):
        assert max_similarity_assignment(similarity) == hungarian_reference(similarity)

    @settings(max_examples=300, deadline=None)
    @given(similarity_matrices(st.sampled_from([0.0, 0.5, 1.0])))
    def test_tie_heavy(self, similarity):
        assert max_similarity_assignment(similarity) == hungarian_reference(similarity)

    def test_empty_sides(self):
        for shape in [(0, 0), (0, 4), (4, 0)]:
            similarity = np.zeros(shape)
            assert max_similarity_assignment(similarity) == hungarian_reference(similarity) == []

    def test_iou_like_sparse_matrices(self, rng):
        for _ in range(40):
            size = int(rng.integers(20, 50))
            similarity = rng.uniform(0.0, 1.0, size=(size, size + int(rng.integers(-3, 4))))
            similarity[rng.uniform(size=similarity.shape) < 0.9] = 0.0
            assert max_similarity_assignment(similarity) == hungarian_reference(similarity)
