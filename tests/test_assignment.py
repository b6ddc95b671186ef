"""Maximum-similarity assignment against exhaustive enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowtrack.assignment import _dense_assignment, max_similarity_assignment
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

    @pytest.mark.parametrize("entry", [-1e-300, -0.5, -math.inf])
    def test_negative_entry_rejected(self, entry):
        # Every caller passes IoUs in [0, 1]; the component split needs them.
        similarity = np.array([[0.9, 0.1], [0.2, entry]])
        with pytest.raises(ValueError, match="finite and non-negative"):
            max_similarity_assignment(similarity)


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

    def test_duplicate_values_still_optimal(self, rng):
        for _ in range(50):
            size = int(rng.integers(2, 7))
            values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(size, size))
            pairs = max_similarity_assignment(values)
            best_total, _ = best_assignment_bruteforce(values)
            assert total(values, pairs) == pytest.approx(best_total, abs=1e-12)


def similarity_matrices(
    elements: st.SearchStrategy[float], min_side: int = 0, max_side: int = 9
) -> st.SearchStrategy[np.ndarray]:
    shapes = st.tuples(st.integers(min_side, max_side), st.integers(min_side, max_side))
    return shapes.flatmap(lambda shape: arrays(float, shape, elements=elements))


class TestAgainstScalarReference:
    """The dense scan returns exactly the pairs of the numpy-scalar Hungarian
    it replaced, tie-breaks included, negative entries too; it solves every
    component the public solver splits off."""

    @settings(max_examples=300, deadline=None)
    @given(similarity_matrices(st.floats(-1.0, 1.0, allow_nan=False)))
    def test_random_and_rectangular(self, similarity):
        assert _dense_assignment(similarity) == hungarian_reference(similarity)

    @settings(max_examples=300, deadline=None)
    @given(similarity_matrices(st.sampled_from([0.0, 0.5, 1.0])))
    def test_tie_heavy(self, similarity):
        assert _dense_assignment(similarity) == hungarian_reference(similarity)

    def test_empty_sides(self):
        for shape in [(0, 0), (0, 4), (4, 0)]:
            similarity = np.zeros(shape)
            assert _dense_assignment(similarity) == hungarian_reference(similarity) == []

    def test_iou_like_sparse_matrices(self, rng):
        for _ in range(40):
            size = int(rng.integers(20, 50))
            similarity = rng.uniform(0.0, 1.0, size=(size, size + int(rng.integers(-3, 4))))
            similarity[rng.uniform(size=similarity.shape) < 0.9] = 0.0
            assert _dense_assignment(similarity) == hungarian_reference(similarity)


def assert_complete_and_optimal(similarity: np.ndarray, pairs) -> None:
    """One-to-one pairs that cover the smaller side and reach the optimum."""
    rows, cols = similarity.shape
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    assert len(pairs) == min(rows, cols)
    assert all(0 <= i < rows and 0 <= j < cols for i, j in pairs)
    best_total, _ = best_assignment_bruteforce(similarity)
    assert total(similarity, pairs) == pytest.approx(best_total, abs=1e-12)


class TestComponentSplit:
    """The public solver splits a nonnegative matrix into the components of
    its positive cells; whatever the split, its pairs stay a complete,
    optimal assignment."""

    @settings(max_examples=300, deadline=None)
    @given(similarity_matrices(st.one_of(st.just(0.0), st.just(0.0), st.floats(0.0, 1.0)),
                               max_side=6))
    def test_nonnegative_sparse(self, similarity):
        assert_complete_and_optimal(similarity, max_similarity_assignment(similarity))

    @settings(max_examples=300, deadline=None)
    @given(similarity_matrices(st.sampled_from([0.0, 0.0, 0.5, 1.0]), max_side=6))
    def test_tie_heavy(self, similarity):
        assert_complete_and_optimal(similarity, max_similarity_assignment(similarity))

    @settings(max_examples=200, deadline=None)
    @given(similarity_matrices(st.sampled_from([0.0, 0.3, 0.7]), min_side=1, max_side=6)
           .filter(lambda similarity: similarity.shape[0] != similarity.shape[1]))
    def test_rectangular(self, similarity):
        assert_complete_and_optimal(similarity, max_similarity_assignment(similarity))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 5), (5, 2)])
    def test_all_zero_pairs_in_index_order(self, shape):
        similarity = np.zeros(shape)
        pairs = max_similarity_assignment(similarity)
        assert pairs == [(k, k) for k in range(min(shape))]
        assert_complete_and_optimal(similarity, pairs)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.tuples(
            arrays(bool, shape, elements=st.booleans()),
            st.permutations(range(1, shape[0] * shape[1] + 1)),
        )
    ))
    def test_positive_pairs_match_reference_on_distinct_values(self, drawn):
        # Distinct powers of two: every subset of cells has its own sum, so
        # the positive pairs of an optimum are unique, and every sum the
        # solvers form is exact.
        mask, exponents = drawn
        similarity = np.where(mask, 2.0 ** -np.reshape(exponents, mask.shape), 0.0)
        pairs = max_similarity_assignment(similarity)
        assert [p for p in pairs if similarity[p] > 0] == [
            p for p in hungarian_reference(similarity) if similarity[p] > 0
        ]

    def test_components_solved_apart(self):
        # Rows 0 and 2 share column 3; row 1 alone owns column 0; row 3 has
        # no positive cell and takes the first free column.
        similarity = np.array([
            [0.0, 0.0, 0.0, 0.9, 0.0],
            [0.4, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.8, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        assert max_similarity_assignment(similarity) == [(0, 3), (1, 0), (2, 4), (3, 1)]
