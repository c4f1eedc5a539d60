import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.core import (
    BathParams,
    BirthDeathGenerator,
    PopulationVector,
    bath_from_gamma,
    build_generator,
    mean_photon,
    pure_level,
    thermal_populations,
    thermal_tail_mass,
)


def truncated_geometric_mean(q: float, n_max: int) -> float:
    """Independent closed form for sum(n*q^n)/sum(q^n) over n = 0..N."""
    s0 = (1.0 - q ** (n_max + 1)) / (1.0 - q)
    s1 = q * (1.0 - (n_max + 1) * q**n_max + n_max * q ** (n_max + 1)) / (1.0 - q) ** 2
    return s1 / s0


class TestBathParams:
    def test_from_gamma_direct_substitution(self):
        params = bath_from_gamma(1.0, 0.1)
        assert params.emission_rate == pytest.approx(0.1, abs=1e-15)
        assert params.absorption_rate == pytest.approx(1.1, abs=1e-15)
        assert params.boltzmann_ratio == pytest.approx(math.log(11.0), abs=1e-12)

    def test_from_gamma_unit_occupancy(self):
        params = bath_from_gamma(1.0, 1.0)
        assert params.emission_rate == 1.0
        assert params.absorption_rate == 2.0
        assert params.boltzmann_ratio == pytest.approx(math.log(2.0), abs=1e-12)

    def test_round_trip(self):
        params = bath_from_gamma(2.5, 0.05)
        assert abs(params.gamma - 2.5) <= 1e-12
        assert abs(params.n_thermal - 0.05) <= 1e-12

    @given(
        gamma=st.floats(0.01, 100.0),
        n_thermal=st.floats(0.001, 50.0),
    )
    @settings(max_examples=100, derandomize=True)
    def test_round_trip_property(self, gamma, n_thermal):
        params = bath_from_gamma(gamma, n_thermal)
        assert abs(params.gamma - gamma) <= 1e-12 * gamma
        assert abs(params.n_thermal - n_thermal) <= 1e-10 * max(1.0, n_thermal)
        assert abs(params.n_thermal - 1.0 / math.expm1(params.boltzmann_ratio)) <= 1e-9 * max(
            1.0, n_thermal
        )

    def test_from_boltzmann(self):
        # detailed balance: B_e = B_a * exp(-boltzmann_ratio)
        params = BathParams(1.1 * math.exp(-math.log(11.0)), 1.1)
        assert params.emission_rate == pytest.approx(0.1, rel=1e-14)
        assert params.n_thermal == pytest.approx(0.1, rel=1e-12)
        assert params.boltzmann_ratio == pytest.approx(math.log(11.0), rel=1e-14)

    @pytest.mark.parametrize("gamma,n_thermal", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.2)])
    def test_rejects_nonpositive(self, gamma, n_thermal):
        with pytest.raises(ValueError):
            bath_from_gamma(gamma, n_thermal)

    def test_rejects_inverted_rates(self):
        with pytest.raises(ValueError):
            BathParams(2.0, 1.0)
        with pytest.raises(ValueError):
            BathParams(1.0, 1.0)
        with pytest.raises(ValueError):
            BathParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            BathParams(0.1, math.inf)

    def test_ratio_derived_from_rates(self):
        params = BathParams(0.3, 1.0)
        assert params.boltzmann_ratio == math.log(1.0 / 0.3)
        assert params.n_thermal == pytest.approx(1.0 / math.expm1(params.boltzmann_ratio), rel=1e-12)

    def test_zero_emission_bypass(self):
        # B_e = 0 is the zero-temperature bath, which bath_from_gamma refuses
        params = BathParams(0.0, 1.1)
        assert params.emission_rate == 0.0
        assert params.gamma == 1.1
        assert params.n_thermal == 0.0
        assert params.boltzmann_ratio == math.inf
        with pytest.raises(ValueError):
            BathParams(0.0, 0.0)


class TestPopulationVector:
    def test_pure_levels(self):
        assert np.array_equal(pure_level(0, 1).weights, [1.0, 0.0])
        assert np.array_equal(pure_level(1, 1).weights, [0.0, 1.0])
        assert np.array_equal(pure_level(2, 4).weights, [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_pure_level_bounds(self):
        with pytest.raises(ValueError):
            pure_level(2, 1)
        with pytest.raises(ValueError):
            pure_level(-1, 3)
        with pytest.raises(ValueError):
            pure_level(0, 0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            PopulationVector(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            PopulationVector(np.array([1.1, -0.1]))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, 0.5, 0.5], [0.5, 0.5, np.nan]],
                             ids=["nan-first-of-two", "nan-first-of-three", "nan-last"])
    def test_rejects_non_finite_weights(self, weights):
        # NaN passes both the sign and the sum test; an ensemble from
        # [nan, 0.5, 0.5] read out level 0 at every readout
        with pytest.raises(ValueError, match="finite"):
            PopulationVector(np.array(weights))

    def test_weights_are_frozen(self):
        pop = pure_level(0, 2)
        with pytest.raises(ValueError):
            pop.weights[0] = 0.5

    def test_mean_photon_pure(self):
        assert mean_photon(pure_level(0, 3)) == 0.0
        assert mean_photon(pure_level(3, 5)) == 3.0


class TestThermalPopulations:
    def test_two_level_geometric(self):
        pop = thermal_populations(BathParams(0.1, 1.0), 1)
        assert pop.weights == pytest.approx([10.0 / 11.0, 1.0 / 11.0], abs=1e-12)

    def test_zero_temperature_limit(self):
        pop = thermal_populations(BathParams(math.exp(-50.0), 1.0), 8)
        expected = np.zeros(9)
        expected[0] = 1.0
        assert np.abs(pop.weights - expected).max() <= 1e-12

    def test_mean_against_geometric_series_oracle(self):
        params = bath_from_gamma(1.0, 1.0)  # boltzmann_ratio = ln 2
        pop = thermal_populations(params, 30)
        oracle = truncated_geometric_mean(0.5, 30)
        assert mean_photon(pop) == pytest.approx(oracle, abs=1e-12)
        assert mean_photon(pop) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_degenerate_space(self):
        with pytest.raises(ValueError):
            thermal_populations(bath_from_gamma(1.0, 0.1), 0)

    @pytest.mark.parametrize("build", [thermal_populations, build_generator, lambda _, n: pure_level(0, n)],
                             ids=["thermal", "generator", "pure"])
    def test_rejects_non_integer_truncation(self, build):
        # 2.5 levels would be read as np.arange(3.5), four levels
        with pytest.raises(ValueError, match="truncation must be an integer"):
            build(bath_from_gamma(1.0, 0.1), 2.5)
        build(bath_from_gamma(1.0, 0.1), np.int64(2))  # numpy integers still pass

    def test_tail_mass(self):
        params = bath_from_gamma(1.0, 0.1)
        q = math.exp(-params.boltzmann_ratio)
        assert thermal_tail_mass(params, 5) == pytest.approx(q**6, rel=1e-12)

    @pytest.mark.parametrize("n_thermal", [0.02, 0.05, 0.1, 0.2])
    def test_first_level_weight_near_occupancy(self, n_thermal):
        # w_1 = (1-q)q with q = n/(1+n): the gap to n_thermal is second order
        pop = thermal_populations(bath_from_gamma(1.0, n_thermal), 30)
        assert abs(pop.weights[1] - n_thermal) <= 3.0 * n_thermal**2


class TestGenerator:
    def test_two_level_rates(self):
        gen = build_generator(bath_from_gamma(1.0, 0.1), 1)
        assert np.array_equal(gen.up, [0.1])
        assert np.array_equal(gen.down, [1.1])

    def test_rate_ladders(self):
        gen = build_generator(bath_from_gamma(1.0, 0.1), 3)
        assert gen.up == pytest.approx([0.1, 0.2, 0.3], abs=1e-15)
        assert gen.down == pytest.approx([1.1, 2.2, 3.3], abs=1e-15)

    def test_probability_conservation(self):
        gen = build_generator(bath_from_gamma(1.3, 0.4), 12)
        column_sums = np.ones(13) @ gen.rate_matrix()
        assert np.abs(column_sums).max() <= 1e-12

    @given(n_thermal=st.floats(0.01, 5.0), trunc=st.integers(1, 40))
    @settings(max_examples=100, derandomize=True)
    def test_detailed_balance_property(self, n_thermal, trunc):
        params = bath_from_gamma(1.0, n_thermal)
        gen = build_generator(params, trunc)
        pi = thermal_populations(params, trunc).weights
        flux_up = gen.up * pi[:-1]
        flux_down = gen.down * pi[1:]
        assert np.all(np.abs(flux_up - flux_down) <= 1e-12 * np.maximum(flux_up, 1.0))

    def test_rejects_mismatched_rates(self):
        with pytest.raises(ValueError):
            BirthDeathGenerator(np.array([0.1, 0.2]), np.array([1.1]))
        with pytest.raises(ValueError):
            BirthDeathGenerator(np.array([-0.1]), np.array([1.1]))

    @pytest.mark.parametrize("up, down", [([np.nan], [1.0]), ([0.1], [np.nan]), ([np.inf], [1.0])],
                             ids=["nan-up", "nan-down", "inf-up"])
    def test_rejects_non_finite_rates(self, up, down):
        with pytest.raises(ValueError, match="finite"):
            BirthDeathGenerator(np.array(up), np.array(down))
