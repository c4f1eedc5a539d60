import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import dynamics
from qndsim.core import (
    BathParams,
    bath_from_gamma,
    build_generator,
    mean_photon,
    pure_level,
    thermal_populations,
)
from qndsim.dynamics import mean_relaxation, propagate, transition_matrix, two_level_population

PARAMS = bath_from_gamma(1.0, 0.1)
M = dynamics._SERIES_EVENTS
# durations given in mean uniformized events, just either side of the
# thresholds where a build takes its first, second and third squaring
STRADDLES = {
    f"{m}M{sign}": m * M * (1.0 + s * 1e-9) for m in (1, 2, 4) for sign, s in (("-", -1), ("+", 1))
}


def two_level_excited_weight(params, t):
    """Independent 2x2 oracle: w_1(t) starting from (1, 0)."""
    total = params.emission_rate + params.absorption_rate
    return (params.emission_rate / total) * (1.0 - math.exp(-total * t))


def total_variation(a, b):
    return 0.5 * np.abs(np.asarray(a) - np.asarray(b)).sum()


class TestPropagate:
    def test_zero_duration_is_identity(self):
        gen = build_generator(PARAMS, 5)
        pop = thermal_populations(PARAMS, 5)
        assert propagate(gen, pop, 0.0) is pop

    def test_thermal_state_is_stationary(self):
        gen = build_generator(PARAMS, 20)
        thermal = thermal_populations(PARAMS, 20)
        for t in (0.05, 0.7, 3.0, 12.0):
            drift = total_variation(propagate(gen, thermal, t).weights, thermal.weights)
            assert drift <= 1e-10

    @pytest.mark.parametrize("t", [0.01, 0.3, 0.7, 2.0, 5.0])
    def test_two_level_closed_form_oracle(self, t):
        gen = build_generator(PARAMS, 1)
        out = propagate(gen, pure_level(0, 1), t)
        assert out.weights[1] == pytest.approx(two_level_excited_weight(PARAMS, t), abs=1e-13)

    def test_mean_equation_closure(self):
        # the truncated chain reproduces the analytic mean within the tail error
        gen = build_generator(PARAMS, 40)
        start = pure_level(0, 40)
        for gt in np.linspace(0.0, 5.0, 11):
            numeric = mean_photon(propagate(gen, start, gt))
            assert abs(numeric - mean_relaxation(PARAMS, 0.0, gt)) <= 1e-8

    @given(
        n_thermal=st.floats(0.02, 0.5),
        trunc=st.integers(1, 20),
        t1=st.floats(0.0, 2.5),
        t2=st.floats(0.0, 2.5),
        level=st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_semigroup_and_normalization(self, n_thermal, trunc, t1, t2, level):
        params = bath_from_gamma(1.0, n_thermal)
        gen = build_generator(params, trunc)
        pop = pure_level(min(level, trunc), trunc)
        direct = propagate(gen, pop, t1 + t2)
        chained = propagate(gen, propagate(gen, pop, t1), t2)
        assert total_variation(direct.weights, chained.weights) <= 1e-9
        assert direct.weights.min() >= 0.0
        assert abs(direct.weights.sum() - 1.0) <= 1e-9

    def test_rejects_mismatched_truncation(self):
        with pytest.raises(ValueError):
            propagate(build_generator(PARAMS, 3), pure_level(0, 4), 1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            propagate(build_generator(PARAMS, 3), pure_level(0, 3), -0.1)

    def test_transition_matrix_is_stochastic(self):
        tmat = transition_matrix(build_generator(PARAMS, 10), 0.8)
        assert tmat.min() >= 0.0
        assert np.abs(tmat.sum(axis=0) - 1.0).max() <= 1e-12

    def test_transition_matrix_is_built_per_call(self):
        # no state is kept between calls: each returns its own read-only build
        gen = build_generator(PARAMS, 10)
        first, second = transition_matrix(gen, 0.8), transition_matrix(gen, 0.8)
        assert first is not second
        assert first.tobytes() == second.tobytes()
        assert not first.flags.writeable and not second.flags.writeable

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_rejects_non_finite_duration(self, duration):
        gen = build_generator(PARAMS, 3)
        with pytest.raises(ValueError, match="finite"):
            transition_matrix(gen, duration)
        with pytest.raises(ValueError, match="finite"):
            propagate(gen, pure_level(0, 3), duration)

    @pytest.mark.parametrize(
        "trunc, params",
        [(1, BathParams(0.5, 2.0)), (40, bath_from_gamma(1.0, 1.0)), (120, bath_from_gamma(1.0, 1.0))],
        ids=["1", "40", "120"],
    )
    def test_events_are_capped(self, trunc, params):
        # the cap is 1.28e6 mean uniformized events (20 squarings); the build
        # at the cap keeps its column sums within 5e-10 of 1 either way
        # (5.7e-12, 1.9e-11 and 1.06e-10 measured at these truncations), and
        # a longer duration is refused before anything is built
        gen = build_generator(params, trunc)
        rate = float(gen.outflow_rates().max())
        at_cap = 1.28e6 / rate
        assert rate * at_cap == 1.28e6
        assert np.abs(1.0 - transition_matrix(gen, at_cap).sum(axis=0)).max() <= 5e-10
        past = np.nextafter(at_cap, math.inf)
        with pytest.raises(ValueError, match=r"more than 1\.28e\+06 mean uniformized events"):
            transition_matrix(gen, past)
        with pytest.raises(ValueError, match=r"more than 1\.28e\+06 mean uniformized events"):
            propagate(gen, pure_level(0, trunc), past)

    @pytest.mark.parametrize("trunc", [1, 2, 40])
    @pytest.mark.parametrize("events", [0.0, 1e-3, 0.48, 1.0, M])
    def test_builds_of_at_most_m_events_are_one_series(self, trunc, events):
        # bit for bit the one series of a build over at most M mean events
        gen = build_generator(PARAMS, trunc)
        rate = float(gen.outflow_rates().max())
        t = events / rate
        series = dynamics._series(np.eye(trunc + 1) + gen.rate_matrix() / rate, rate * t, dynamics._TAIL)
        assert transition_matrix(gen, t).tobytes() == series.tobytes()

    @pytest.mark.parametrize("events", [np.nextafter(M, math.inf), 2 * M, 4.5 * M, 1.28e6])
    def test_longer_builds_square_one_series(self, events, monkeypatch):
        # one series over at most M events, then the fewest squarings
        gen = build_generator(PARAMS, 10)
        rate = float(gen.outflow_rates().max())
        means, series = [], dynamics._series
        monkeypatch.setattr(dynamics, "_series", lambda *args: means.append(args[1]) or series(*args))
        tmat = transition_matrix(gen, events / rate)
        (mean,) = means
        assert M / 2 < mean <= M
        assert mean * 2 ** dynamics.squarings(gen, events / rate) == pytest.approx(events, rel=1e-15)
        assert tmat.min() >= 0.0

    def test_long_horizon_split(self):
        # durations long enough to be squared many times still relax to thermal
        gen = build_generator(PARAMS, 30)
        out = propagate(gen, pure_level(30, 30), 400.0)
        thermal = thermal_populations(PARAMS, 30)
        assert total_variation(out.weights, thermal.weights) <= 1e-10

    @pytest.mark.parametrize("t", [0.01, 1.0, 100.0, *STRADDLES])
    @pytest.mark.parametrize("trunc", [1, 40, 120])
    @pytest.mark.parametrize("n_thermal", [0.1, 1.0, 5.0])
    def test_uniformization_error_per_pass_against_expm(self, n_thermal, trunc, t):
        # the bound is 1e-13 per 128 mean uniformized events (the budget of
        # one series pass when each pass covered 128 events); the grid's
        # longest point, n_thermal 5, trunc 120, t 100, is 1027 such passes
        # and 17 squarings.  A duration named "mM-" or "mM+" is that many
        # events, just short of or past m * M.
        from scipy.linalg import expm

        gen = build_generator(bath_from_gamma(1.0, n_thermal), trunc)
        if t in STRADDLES:
            t = STRADDLES[t] / gen.outflow_rates().max()
        passes = max(1, math.ceil(gen.outflow_rates().max() * t / 128.0))
        tmat = transition_matrix(gen, t)
        column_tv = 0.5 * np.abs(tmat - expm(t * gen.rate_matrix())).sum(axis=0)
        assert column_tv.max() <= passes * 1e-13
        # a squared build can sum above 1 as well as below
        assert np.abs(1.0 - tmat.sum(axis=0)).max() <= passes * 1e-13


class TestMeanRelaxation:
    def test_fixed_point(self):
        for t in (0.0, 0.5, 3.0):
            assert mean_relaxation(PARAMS, 0.1, t) == pytest.approx(0.1, abs=1e-15)

    def test_rise_from_vacuum(self):
        assert mean_relaxation(PARAMS, 0.0, 1.0) == pytest.approx(0.0632120558828558, abs=1e-12)

    def test_decay_from_one_quantum(self):
        assert mean_relaxation(PARAMS, 1.0, 1.0) == pytest.approx(0.4310914970542981, abs=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            mean_relaxation(PARAMS, -0.5, 1.0)
        with pytest.raises(ValueError):
            mean_relaxation(PARAMS, 0.5, -1.0)


class TestTwoLevelPopulation:
    def test_initial_condition(self):
        assert two_level_population(PARAMS, 0, 0.0) == 1.0
        assert two_level_population(PARAMS, 1, 0.0) == 1.0

    def test_ground_survival_value(self):
        assert two_level_population(PARAMS, 0, 1.0) == pytest.approx(0.9367879441171442, abs=1e-12)

    def test_excited_asymptote(self):
        assert two_level_population(PARAMS, 1, 60.0) == pytest.approx(0.1, abs=1e-12)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            two_level_population(PARAMS, 2, 1.0)

    @pytest.mark.parametrize("n_thermal", [0.02, 0.1, 0.3, 0.5])
    def test_gap_to_exact_chain_is_first_order(self, n_thermal):
        # analytic mode decays at gamma, the exact two-level chain at B_a+B_e;
        # the spread stays below 2.5*n_thermal out to gamma*t = 5
        params = bath_from_gamma(1.0, n_thermal)
        gen = build_generator(params, 1)
        start = pure_level(1, 1)
        for t in np.linspace(0.0, 5.0, 26):
            analytic = two_level_population(params, 1, t)
            exact = propagate(gen, start, t).weights[1]
            assert abs(analytic - exact) <= 2.5 * n_thermal
