"""Diagonal Fock-basis state, thermal-bath parameters, and the birth-death
relaxation generator of a damped field oscillator.

Only the diagonal of the density matrix is represented: the thermal state,
the relaxation channel, and number-resolving projective measurements all
preserve diagonality, so coherences are identically zero everywhere in this
package and carrying them would be dead weight.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Normalization is allowed a little accumulated-arithmetic drift.
NORM_TOL = 1e-9


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (``operator.index``) of at least 1."""
    if not hasattr(type(value), "__index__") or operator.index(value) < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BathParams:
    """Bath coupling of the oscillator: per-quantum emission rate ``B_e``
    (bath feeds the mode) and absorption rate ``B_a`` (bath drains it),
    with ``0 <= B_e < B_a`` and ``B_a`` finite.

    ``boltzmann_ratio`` is the dimensionless level spacing over bath
    temperature, fixed by detailed balance: ``B_e/B_a = exp(-boltzmann_ratio)``.
    The net decay rate is ``gamma = B_a - B_e`` and the equilibrium occupancy
    is ``n_thermal = B_e/gamma = 1/(exp(boltzmann_ratio) - 1)``.  At
    ``B_e = 0`` the bath is at zero temperature: the ratio is infinite and
    level 0 is absorbing.
    """

    emission_rate: float
    absorption_rate: float

    def __post_init__(self):
        be, ba = self.emission_rate, self.absorption_rate
        if not (0.0 <= be < ba < math.inf):
            raise ValueError(f"need 0 <= B_e < B_a < inf, got B_e={be}, B_a={ba}")

    @property
    def boltzmann_ratio(self) -> float:
        if self.emission_rate == 0.0:
            return math.inf
        return math.log(self.absorption_rate / self.emission_rate)

    @property
    def gamma(self) -> float:
        return self.absorption_rate - self.emission_rate

    @property
    def n_thermal(self) -> float:
        return self.emission_rate / self.gamma


def bath_from_gamma(gamma: float, n_thermal: float) -> BathParams:
    """Canonical constructor from the decay rate and thermal occupancy.

    Inverts ``n_thermal = B_e/gamma`` and ``gamma = B_a - B_e``:
    ``B_e = gamma*n_thermal``, ``B_a = gamma*(1 + n_thermal)``.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if n_thermal <= 0.0:
        raise ValueError(f"n_thermal must be positive, got {n_thermal}")
    return BathParams(gamma * n_thermal, gamma * (1.0 + n_thermal))


@dataclass(frozen=True, eq=False)
class PopulationVector:
    """Fock-level occupation probabilities ``w_0 .. w_N``.

    Weights are non-negative and sum to one within ``NORM_TOL``.  The array
    is copied on construction and frozen, so instances can be shared freely.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("weights must be a 1-D array over at least two levels")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.min() < 0.0:
            raise ValueError(f"negative weight: min = {w.min()!r}")
        total = float(w.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "weights", w)

    @property
    def truncation(self) -> int:
        """Highest represented level N (levels run 0..N)."""
        return self.weights.size - 1


def pure_level(n: int, truncation: int) -> PopulationVector:
    """All population on level ``n`` of a space truncated at ``truncation``."""
    check_count("truncation", truncation)
    if not 0 <= n <= truncation:
        raise ValueError(f"level {n} outside 0..{truncation}")
    w = np.zeros(truncation + 1)
    w[n] = 1.0
    return PopulationVector(w)


def thermal_populations(params: BathParams, truncation: int) -> PopulationVector:
    """Equilibrium weights ``w_n ∝ exp(-boltzmann_ratio * n)``, renormalized
    over the truncated space 0..N.

    Renormalizing keeps the vector exactly normalized; the mass the
    truncation discards is bounded by :func:`thermal_tail_mass`.
    """
    check_count("truncation", truncation)
    if math.isinf(params.boltzmann_ratio):
        return pure_level(0, truncation)
    w = np.exp(-params.boltzmann_ratio * np.arange(truncation + 1))
    return PopulationVector(w / w.sum())


def thermal_tail_mass(params: BathParams, truncation: int) -> float:
    """Untruncated thermal mass sitting above level N: ``q**(N+1)`` with
    ``q = exp(-boltzmann_ratio)``.  Use this to size the truncation."""
    return math.exp(-params.boltzmann_ratio * (truncation + 1))


def mean_photon(pop: PopulationVector) -> float:
    """Mean occupation number ``sum_n n * w_n``."""
    return float(np.arange(pop.weights.size) @ pop.weights)


@dataclass(frozen=True, eq=False)
class BirthDeathGenerator:
    """Nearest-neighbour transition rates of the relaxation channel.

    ``up[n]`` is the rate from level n to n+1 (n = 0..N-1) and ``down[n]``
    the rate from n+1 to n.  The per-level ladder ``up_n = B_e*(n+1)``,
    ``down_n = B_a*n`` is the unique birth-death choice whose mean-occupancy
    equation closes to ``d n̄/dt = B_e*(n̄+1) - B_a*n̄`` on the untruncated
    space while keeping the thermal weights stationary.
    """

    up: np.ndarray
    down: np.ndarray

    def __post_init__(self):
        up, down = _readonly(self.up), _readonly(self.down)
        if up.ndim != 1 or up.shape != down.shape or up.size < 1:
            raise ValueError("up and down must be equal-length 1-D arrays")
        if not (np.isfinite(up).all() and np.isfinite(down).all()):
            raise ValueError("rates must be finite")
        if up.min() < 0.0 or down.min() < 0.0:
            raise ValueError("rates must be non-negative")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @property
    def truncation(self) -> int:
        return self.up.size

    def rate_matrix(self) -> np.ndarray:
        """Dense generator Q with columns summing to zero; populations evolve
        as dw/dt = Q w."""
        n = self.truncation + 1
        q = np.zeros((n, n))
        idx = np.arange(self.truncation)
        q[idx + 1, idx] += self.up
        q[idx, idx + 1] += self.down
        q[idx, idx] -= self.up
        q[idx + 1, idx + 1] -= self.down
        return q

    def outflow_rates(self) -> np.ndarray:
        """Total rate of leaving each level."""
        out = np.zeros(self.truncation + 1)
        out[:-1] += self.up
        out[1:] += self.down
        return out


def build_generator(params: BathParams, truncation: int) -> BirthDeathGenerator:
    """Relaxation generator for the given bath on levels 0..N."""
    check_count("truncation", truncation)
    ladder = np.arange(1, truncation + 1, dtype=float)
    return BirthDeathGenerator(params.emission_rate * ladder, params.absorption_rate * ladder)
