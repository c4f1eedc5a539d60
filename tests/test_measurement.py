import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.core import BathParams, PopulationVector, bath_from_gamma, build_generator, pure_level
from qndsim.dynamics import transition_matrix
from qndsim.measurement import (
    ProjectorPartition,
    ZeroProbabilityError,
    luders_collapse,
    outcome_probabilities,
)
from qndsim.protocol import MeasurementSchedule, run_ensemble

from oracles import sample_outcome


def pop(*weights):
    return PopulationVector(np.array(weights, dtype=float))


@st.composite
def populations_and_partitions(draw, relaxed=False):
    # relaxed: a pure level relaxed at zero temperature, which is supported
    # on the levels at and below it, so bins can hold all of its weight
    trunc = draw(st.integers(1, 10))
    if relaxed:
        tmat = transition_matrix(build_generator(BathParams(0.0, 1.1), trunc), draw(st.sampled_from([0.01, 1.0])))
        w = tmat[:, draw(st.integers(0, trunc))]
    else:
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=trunc + 1, max_size=trunc + 1)))
    levels = draw(st.permutations(list(range(trunc + 1))))
    n_bins = draw(st.integers(1, trunc + 1))
    cuts = sorted(draw(st.sets(st.integers(1, trunc), min_size=n_bins - 1, max_size=n_bins - 1)))
    bins = tuple(tuple(b) for b in np.split(np.array(levels), cuts))
    return PopulationVector(w / w.sum()), ProjectorPartition(trunc, bins)


class TestPartition:
    def test_fine_partition_maps_bins_to_levels(self):
        part = ProjectorPartition.fine(3)
        assert part.bins == ((0,), (1,), (2,), (3,))
        assert part.is_fine
        assert part.level_bin.tolist() == [0, 1, 2, 3]

    def test_single_bin(self):
        part = ProjectorPartition(3, ((0, 1, 2, 3),))
        assert part.n_bins == 1
        assert not part.is_fine

    def test_indicator_is_built_once_on_first_use_and_read_only(self):
        part = ProjectorPartition(3, ((2, 0), (1, 3)))
        assert "indicator" not in vars(part)
        outcome_probabilities(PopulationVector(np.full(4, 0.25)), part)
        assert vars(part)["indicator"].tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]
        assert part.indicator is part.indicator and not part.indicator.flags.writeable
        assert part == ProjectorPartition(3, ((0, 2), (1, 3)))

    def test_fine_engine_never_builds_the_indicator(self):
        schedule = MeasurementSchedule(0.01, 50, ProjectorPartition.fine(3))
        run_ensemble(bath_from_gamma(1.0, 0.1), schedule, 0, 3, 20, 0)
        assert "indicator" not in vars(schedule.partition)

    def test_rejects_overlap_gap_and_empty(self):
        with pytest.raises(ValueError):
            ProjectorPartition(2, ((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            ProjectorPartition(2, ((0, 1),))
        with pytest.raises(ValueError):
            ProjectorPartition(2, ((0, 1, 2), ()))
        with pytest.raises(ValueError):
            ProjectorPartition(2, ((0,), (1.7, 2)))
        with pytest.raises(ValueError, match="truncation must be an integer"):
            ProjectorPartition(2.0, ((0,), (1, 2)))


class TestOutcomeProbabilities:
    def test_fine_is_diagonal_readout(self):
        assert np.array_equal(
            outcome_probabilities(pop(0.9, 0.1), ProjectorPartition.fine(1)), [0.9, 0.1]
        )

    def test_block_sums(self):
        part = ProjectorPartition(2, ((0,), (1, 2)))
        assert outcome_probabilities(pop(0.5, 0.3, 0.2), part) == pytest.approx([0.5, 0.5])

    def test_single_bin_completeness(self):
        probs = outcome_probabilities(pop(0.2, 0.5, 0.3), ProjectorPartition(2, ((0, 1, 2),)))
        assert probs == pytest.approx([1.0])

    def test_rejects_truncation_mismatch(self):
        with pytest.raises(ValueError):
            outcome_probabilities(pop(0.5, 0.5), ProjectorPartition.fine(2))

    @given(populations_and_partitions())
    @settings(max_examples=100, derandomize=True)
    def test_completeness_property(self, case):
        state, part = case
        assert abs(outcome_probabilities(state, part).sum() - 1.0) <= 1e-12


class TestLudersCollapse:
    def test_pure_state_is_undisturbed(self):
        # repeating the measurement on an eigenstate returns it unchanged
        for n in range(4):
            state = pure_level(n, 3)
            assert luders_collapse(state, ProjectorPartition.fine(3), n) is state

    def test_block_renormalization(self):
        part = ProjectorPartition(2, ((0,), (1, 2)))
        out = luders_collapse(pop(0.5, 0.3, 0.2), part, 1)
        assert out.weights == pytest.approx([0.0, 0.6, 0.4], abs=1e-15)

    def test_rank_one_collapse(self):
        out = luders_collapse(pop(0.9, 0.1), ProjectorPartition.fine(1), 1)
        assert np.array_equal(out.weights, [0.0, 1.0])

    def test_zero_probability_is_an_error(self):
        with pytest.raises(ZeroProbabilityError):
            luders_collapse(pure_level(0, 1), ProjectorPartition.fine(1), 1)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
    def test_rejects_a_bin_outside_the_partition(self, j):
        with pytest.raises(ValueError, match="outside 0..2"):
            luders_collapse(pop(0.2, 0.3, 0.5), ProjectorPartition.fine(2), j)

    @given(populations_and_partitions(), st.integers(0, 10))
    @settings(max_examples=100, derandomize=True)
    def test_idempotence_exact(self, case, j_raw):
        state, part = case
        j = j_raw % part.n_bins
        once = luders_collapse(state, part, j)
        twice = luders_collapse(once, part, j)
        assert np.array_equal(once.weights, twice.weights)

    @given(populations_and_partitions())
    @settings(max_examples=100, derandomize=True)
    def test_law_of_total_probability(self, case):
        state, part = case
        probs = outcome_probabilities(state, part)
        mixture = np.zeros(state.weights.size)
        for j, p in enumerate(probs):
            if p > 0.0:
                mixture += p * luders_collapse(state, part, j).weights
        assert np.abs(mixture - state.weights).max() <= 1e-12

    @given(st.one_of(populations_and_partitions(), populations_and_partitions(relaxed=True)))
    @settings(max_examples=200, derandomize=True)
    def test_no_destruction_iff_supported_inside(self, case):
        state, part = case
        for j in np.flatnonzero(outcome_probabilities(state, part)).tolist():
            inside = np.zeros(state.weights.size, dtype=bool)
            inside[list(part.bins[j])] = True
            supported_inside = not state.weights[~inside].any()
            unchanged = luders_collapse(state, part, j) is state
            assert unchanged == supported_inside


class TestSampleOutcome:
    def test_deterministic_on_pure_states(self):
        rng = np.random.default_rng(0)
        part = ProjectorPartition.fine(1)
        for _ in range(50):
            assert sample_outcome(pure_level(1, 1), part, rng) == 1
            assert sample_outcome(pure_level(0, 1), part, rng) == 0
        assert type(sample_outcome(pure_level(0, 1), part, rng)) is int

    def test_empirical_frequency_matches_binomial_oracle(self):
        rng = np.random.default_rng(1234)
        state = pop(0.9, 0.1)
        part = ProjectorPartition.fine(1)
        draws = 100_000
        ones = sum(sample_outcome(state, part, rng) for _ in range(draws))
        tolerance = 3.0 * np.sqrt(0.9 * 0.1 / draws)
        assert abs(ones / draws - 0.1) <= tolerance

    def test_reproducible_for_fixed_stream(self):
        part = ProjectorPartition(3, ((0, 1), (2, 3)))
        state = pop(0.3, 0.2, 0.4, 0.1)
        a = [sample_outcome(state, part, np.random.default_rng(7)) for _ in range(5)]
        b = [sample_outcome(state, part, np.random.default_rng(7)) for _ in range(5)]
        assert a == b
