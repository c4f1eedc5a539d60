import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim.core import bath_from_gamma
from qndsim.measurement import ProjectorPartition
from qndsim.protocol import ENGINES, Ensemble, MeasurementSchedule, run_ensemble
from qndsim.stats import (
    FitError,
    SurvivalCurve,
    dwell_statistics,
    estimate_survival,
    fit_decay,
    ks_distance,
    time_average,
)

from oracles import reference_dwell, reference_survivors

PARAMS = bath_from_gamma(1.0, 0.1)


def dense_ensemble(schedule, outcomes):
    """A synthetic ensemble of the ``(n_traj, steps)`` record ``outcomes``,
    given as one run per readout."""
    return Ensemble(schedule, None, np.arange(outcomes.size), outcomes.ravel(), len(outcomes), 0, 0, "synthetic")


def make_ensemble(outcomes, dt=1.0, trunc=1):
    """A synthetic ensemble; a 1-D ``outcomes`` is a single record."""
    outcomes = np.atleast_2d(np.asarray(outcomes, dtype=np.int16))
    return dense_ensemble(MeasurementSchedule(dt, outcomes.shape[1], ProjectorPartition.fine(trunc)), outcomes)


@st.composite
def outcome_matrices(draw):
    """Small int16 or int32 outcome matrices over bins 0..3."""
    n, steps = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    dtype = draw(st.sampled_from([np.int16, np.int32]))
    values = draw(st.lists(st.integers(0, 3), min_size=n * steps, max_size=n * steps))
    return np.array(values, dtype=dtype).reshape(n, steps)


def assert_maximal_runs_of(ensemble, outcomes):
    """``ensemble`` holds the maximal runs of the dense record ``outcomes``, and
    every reduction of the runs equals the dense reference of that record."""
    n_bins, steps = ensemble.schedule.partition.n_bins, ensemble.schedule.steps
    assert ensemble.outcomes.tobytes() == outcomes.astype(np.int16).tobytes()
    assert ensemble.outcomes.shape == outcomes.shape and ensemble.outcomes.dtype == np.int16
    head = ensemble.starts % steps == 0
    assert ensemble.lengths.min() > 0  # no empty run; the starts ascend
    assert np.count_nonzero(head) == ensemble.n_traj  # every row starts a run
    assert not np.any((ensemble.bins[1:] == ensemble.bins[:-1]) & ~head[1:])  # no same-bin neighbours
    for k in range(n_bins):
        assert np.array_equal(estimate_survival(ensemble, k).survivors, reference_survivors(outcomes, k))
        assert time_average(ensemble, k) == np.count_nonzero(outcomes == k) / outcomes.size
    dwell = dwell_statistics(ensemble)
    counts, lengths, interior = reference_dwell(outcomes, n_bins)
    assert dwell.steps == outcomes.size and np.array_equal(dwell.counts, counts)
    for got, want in zip(dwell.dwell_lengths + dwell.interior_dwell_lengths, lengths + interior):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# {0} | {1, 2} | {3..10}: jumps between levels 1 and 2 stay inside one bin
COARSE_10 = ProjectorPartition(10, ((0,), (1, 2), tuple(range(3, 11))))


@settings(max_examples=100, deadline=None)
@given(
    outcomes=outcome_matrices(),
    engine=st.sampled_from(ENGINES),
    partition=st.sampled_from([ProjectorPartition.fine(10), COARSE_10]),
    shape=st.tuples(st.integers(1, 20), st.integers(1, 30)),
    level=st.integers(0, 10),
    seed=st.integers(0, 2**32),
)
def test_runs_are_maximal_and_reduce_as_the_dense_record(outcomes, engine, partition, shape, level, seed):
    # a dense record given one run per readout, then both engines' records
    schedule = MeasurementSchedule(0.5, outcomes.shape[1], ProjectorPartition.fine(4))
    assert_maximal_runs_of(dense_ensemble(schedule, outcomes), outcomes)
    n_traj, steps = shape
    schedule = MeasurementSchedule(0.3, steps, partition)
    ensemble = run_ensemble(bath_from_gamma(1.0, 2.0), schedule, level, 10, n_traj, seed, engine)
    assert_maximal_runs_of(ensemble, ensemble.outcomes)
    again = dense_ensemble(schedule, ensemble.outcomes)
    assert np.array_equal(again.starts, ensemble.starts) and np.array_equal(again.bins, ensemble.bins)


class TestEstimateSurvival:
    def test_constant_records_never_decay(self):
        curve = estimate_survival(make_ensemble([[0] * 10] * 5), 0)
        assert np.array_equal(curve.survival, np.ones(11))

    def test_wrong_start_drops_immediately(self):
        curve = estimate_survival(make_ensemble([[1, 0, 0, 0]] * 5), 0)
        assert curve.survival[0] == 1.0
        assert not curve.survival[1:].any()

    def test_binomial_process_oracle(self):
        # records built from a known per-step leave probability: survival at
        # step i must track (1-p)^i inside 3 binomial sigmas
        rng = np.random.default_rng(99)
        p_leave, steps, n = 0.05, 40, 4000
        outcomes = np.zeros((n, steps), dtype=np.int16)
        for row in outcomes:
            exits = rng.random(steps) < p_leave
            if exits.any():
                row[int(np.argmax(exits)):] = 1
        curve = estimate_survival(make_ensemble(outcomes), 0)
        for i in (1, 5, 10, 20, 40):
            expected = (1.0 - p_leave) ** i
            sigma = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(curve.survival[i] - expected) <= 3.0 * sigma

    def test_monotone_and_stderr(self):
        curve = estimate_survival(make_ensemble([[0, 0, 1, 1], [0, 1, 1, 1], [0] * 4]), 0)
        assert np.all(np.diff(curve.survival) <= 0.0)
        p = curve.survival
        assert curve.stderr == pytest.approx(np.sqrt(p * (1 - p) / 3.0))

    def test_rejects_empty_and_mixed_schedules(self):
        # an ensemble has one schedule, so neither can reach estimate_survival
        schedule = MeasurementSchedule(1.0, 2, ProjectorPartition.fine(1))
        with pytest.raises(ValueError):
            dense_ensemble(schedule, np.zeros((0, 2), dtype=np.int16))
        with pytest.raises(ValueError):
            dense_ensemble(schedule, np.zeros((2, 3), dtype=np.int16))

    @pytest.mark.parametrize("k", [-1, 3, 7, 0.5, 1.0, 1.5])
    def test_rejects_a_bin_outside_the_partition(self, k):
        with pytest.raises(ValueError, match="outside 0..2"):
            estimate_survival(make_ensemble([[0, 1, 2]] * 2, trunc=2), k)

    @settings(max_examples=200, deadline=None)
    @given(outcomes=outcome_matrices(), k=st.integers(0, 4))
    @example(outcomes=np.array([[0, 1], [2, 3]], dtype=np.int16), k=4)  # k absent
    @example(outcomes=np.array([[2, 2, 2], [2, 0, 2], [1, 2, 2]], dtype=np.int32), k=2)  # all-k row
    @example(outcomes=np.array([[1], [3], [1]], dtype=np.int16), k=1)  # one step
    def test_matches_accumulate_definition(self, outcomes, k):
        # survivors[i] counts the rows whose first i outcomes all equal k
        alive = np.logical_and.accumulate(outcomes == k, axis=1)
        want = np.concatenate(([len(outcomes)], alive.sum(axis=0)))
        schedule = MeasurementSchedule(0.5, outcomes.shape[1], ProjectorPartition.fine(4))
        curve = estimate_survival(dense_ensemble(schedule, outcomes), k)
        assert np.array_equal(curve.survivors, want)
        assert np.array_equal(curve.times, 0.5 * np.arange(outcomes.shape[1] + 1))


class TestFitDecay:
    def test_exact_exponential_recovered(self):
        times = 0.1 * np.arange(100)
        curve = SurvivalCurve.from_probabilities(times, np.exp(-0.1 * times))
        fit = fit_decay(curve)
        assert abs(fit.rate - 0.1) <= 1e-9

    def test_product_curve_rate(self):
        # the fitted rate of the exact product curve is -ln(single-step
        # factor)/dt, about 0.4% above n_thermal*gamma at these settings
        dt, steps = 0.01, 100
        factor = 1.0 - 0.1 * (1.0 - math.exp(-dt))
        times = dt * np.arange(steps + 1)
        curve = SurvivalCurve.from_probabilities(times, factor ** np.arange(steps + 1))
        fit = fit_decay(curve)
        direct = -math.log(factor) / dt
        assert abs(fit.rate - direct) <= 1e-9
        assert abs(fit.rate - 0.0995) <= 0.01 * 0.0995

    def test_all_ones_is_a_fit_failure(self):
        curve = SurvivalCurve.from_probabilities(np.arange(10.0), np.ones(10))
        with pytest.raises(FitError):
            fit_decay(curve)

    def test_too_few_points_is_a_fit_failure(self):
        # survival 1, 0.14, then below the 0.05 floor: two points, not three
        curve = SurvivalCurve.from_probabilities(np.arange(5.0), np.exp(-2.0 * np.arange(5.0)))
        with pytest.raises(FitError):
            fit_decay(curve)

    def test_window_reports_used_range(self):
        times = 0.5 * np.arange(30)
        curve = SurvivalCurve.from_probabilities(times, np.exp(-0.4 * times))
        fit = fit_decay(curve)
        assert fit.window.floor == 0.05 and fit.window.min_survivors == 10.0
        assert fit.window.n_points < 30  # deep tail excluded
        assert fit.window.t_min == 0.0


class TestDwellStatistics:
    def test_run_length_encoding(self):
        dwell = dwell_statistics(make_ensemble([0, 0, 1, 1, 1, 0], dt=1.0))
        assert (dwell.counts * dwell.dt).tolist() == [3.0, 3.0]
        assert dwell.dwell_lengths[0].tolist() == [2, 1]
        assert dwell.dwell_lengths[1].tolist() == [3]
        # boundary runs are censored by the record edges
        assert dwell.interior_dwell_lengths[0].size == 0
        assert dwell.interior_dwell_lengths[1].tolist() == [3]

    def test_constant_record_single_dwell(self):
        dwell = dwell_statistics(make_ensemble([1] * 7))
        assert dwell.dwell_lengths[1].tolist() == [7]
        assert dwell.counts.tolist() == [0, 7]

    def test_partition_identities(self):
        record = make_ensemble([0, 1, 1, 0, 0, 0, 1, 0], dt=0.25)
        dwell = dwell_statistics(record)
        assert dwell.counts.sum() == record.outcomes.size
        assert dwell.steps == record.outcomes.size and dwell.dt == 0.25
        assert sum(lengths.sum() for lengths in dwell.dwell_lengths) == record.outcomes.size
        assert dwell.fractions.sum() == 1.0

    def test_pooled_rows_equal_concatenated_records(self):
        rows = [[0, 0, 1, 1, 0, 1], [1, 1, 1, 1, 1, 1], [1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 0, 0]]
        pooled = dwell_statistics(make_ensemble(rows))
        single = [dwell_statistics(make_ensemble(row)) for row in rows]
        assert pooled.steps == 24
        assert pooled.counts.tolist() == sum(d.counts for d in single).tolist()
        for n in (0, 1):
            for field in ("dwell_lengths", "interior_dwell_lengths"):
                expected = np.concatenate([getattr(d, field)[n] for d in single])
                assert getattr(pooled, field)[n].tolist() == expected.tolist()
        # runs never join across rows: row 0 ends in 1 and row 1 is all 1
        assert pooled.dwell_lengths[1].tolist() == [2, 1, 6, 1, 2, 1]

    def test_long_record_fraction_matches_stationary_oracle(self):
        sched = MeasurementSchedule(0.01, 400_000, ProjectorPartition.fine(1))
        record = run_ensemble(PARAMS, sched, 0, 1, 1, 2, engine="gillespie")
        dwell = dwell_statistics(record)
        pi1 = PARAMS.emission_rate / (PARAMS.emission_rate + PARAMS.absorption_rate)
        assert abs(dwell.fractions[1] - pi1) <= 0.02

    def test_long_record_reduces_in_bounded_memory(self):
        # numpy reports its buffers to tracemalloc.  A bincount of this 4e6
        # record cast it to intp first: 32 MB (34.5 MB peak).
        sched = MeasurementSchedule(0.01, 4_000_000, ProjectorPartition.fine(1))
        record = run_ensemble(PARAMS, sched, 0, 1, 1, 0, engine="gillespie")
        tracemalloc.start()
        try:
            dwell = dwell_statistics(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert dwell.counts.dtype == np.int64 and dwell.counts.sum() == 4_000_000

    def test_jump_record_is_built_and_reduced_in_the_memory_of_its_runs(self):
        # 4e6 readouts alone would be 8 MB of int16; the record's 7 271 runs,
        # with the jump path lists, peak at 1.6 MB
        sched = MeasurementSchedule(0.01, 4_000_000, ProjectorPartition.fine(1))
        tracemalloc.start()
        try:
            dwell = dwell_statistics(run_ensemble(PARAMS, sched, 0, 1, 1, 0, engine="gillespie"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert dwell.counts.sum() == 4_000_000

    def test_coarse_counts_sum_the_fine_counts_of_each_bin(self):
        levels = np.random.default_rng(3).integers(0, 5, (6, 40)).astype(np.int16)
        coarse = ProjectorPartition(4, ((0,), (1, 3), (2, 4)))
        outcomes = coarse.level_bin[levels].astype(np.int16)
        binned = dense_ensemble(MeasurementSchedule(0.5, 40, coarse), outcomes)
        fine = dwell_statistics(make_ensemble(levels, dt=0.5, trunc=4))
        dwell = dwell_statistics(binned)
        assert dwell.counts.tolist() == [fine.counts[list(b)].sum() for b in coarse.bins]
        assert [lengths.sum() for lengths in dwell.dwell_lengths] == dwell.counts.tolist()
        for j in range(coarse.n_bins):
            assert time_average(binned, j) == dwell.fractions[j]


class TestTimeAverage:
    def test_constant_record(self):
        assert time_average(make_ensemble([0] * 6), 0) == 1.0

    def test_alternating_record(self):
        assert time_average(make_ensemble([0, 1, 0, 1]), 1) == 0.5

    @pytest.mark.parametrize("n", [-1, 3, 9, 0.5, 1.0, 1.5])
    def test_rejects_a_bin_outside_the_partition(self, n):
        with pytest.raises(ValueError, match="outside 0..2"):
            time_average(make_ensemble([0, 1, 2, 1], trunc=2), n)

    def test_equals_dwell_fraction_exactly(self):
        for outcomes in ([0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0], [[0, 1, 1], [1, 1, 0], [0, 0, 0]]):
            ensemble = make_ensemble(outcomes)
            dwell = dwell_statistics(ensemble)
            for n in (0, 1):
                assert time_average(ensemble, n) == dwell.fractions[n]


class TestKsDistance:
    def test_identical_samples(self):
        a = np.array([0.3, 1.2, 2.2, 4.0])
        stat, pvalue = ks_distance(a, a)
        assert stat == 0.0
        assert pvalue == 1.0

    def test_disjoint_supports(self):
        stat, _ = ks_distance(np.arange(10.0), np.arange(10.0) + 100.0)
        assert stat == 1.0

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), np.array([1.0]))

    def test_null_distribution_oracle(self):
        # same-distribution draws: p > 0.01 should hold in >= 98/100 repeats
        rng = np.random.default_rng(7)
        hits = sum(
            ks_distance(rng.exponential(size=10_000), rng.exponential(size=10_000))[1] > 0.01
            for _ in range(100)
        )
        assert hits >= 98
