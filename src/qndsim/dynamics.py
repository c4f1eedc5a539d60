"""Relaxation dynamics: exact-chain propagation of population vectors and
the closed-form mean/two-level relaxation laws.

Two evolution modes exist side by side and are never mixed implicitly:

* exact-chain -- :func:`propagate` applies ``exp(t*Q)`` for the birth-death
  generator Q, computed by uniformization (Poisson-weighted powers of a
  sub-stochastic kernel), which is positivity- and normalization-preserving
  by construction.
* analytic -- :func:`mean_relaxation` and :func:`two_level_population`
  evaluate the closed-form relaxation laws, which use the net decay rate
  ``gamma = B_a - B_e``.  On a two-level space the exact chain relaxes at
  ``B_a + B_e`` instead, so the two modes differ at first order in
  ``n_thermal``; quantifying that gap is part of this package's job, which
  is why both are exposed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import NORM_TOL, BathParams, BirthDeathGenerator, PopulationVector

# Neglected Poisson tail per uniformization pass (total-variation error);
# horizons are split so the Poisson mean per pass stays moderate.  The tails
# of successive passes add up: with round-off a pass loses below about 1e-13
# of a column's mass, so past MAX_PASSES a column could lack over NORM_TOL.
_TAIL = 1e-14
_MAX_POISSON_MEAN = 128.0
MAX_PASSES = round(NORM_TOL / 1e-13)


def _series(kernel: np.ndarray, mean: float) -> np.ndarray:
    """Poisson-weighted power series ``sum_k pois(k; mean) kernel^k``."""
    dim = kernel.shape[0]
    weight = math.exp(-mean)
    total = weight
    out = weight * np.eye(dim)
    power = np.eye(dim)
    k = 0
    while total < 1.0 - _TAIL:
        k += 1
        weight *= mean / k
        power = kernel @ power
        out += weight * power
        total += weight
        if weight < 1e-18 and k > mean:
            break  # past the mode the true remainder is far below _TAIL
    return out


def uniformization_passes(gen: BirthDeathGenerator, duration: float) -> int:
    """Passes of :func:`transition_matrix`; ``ValueError`` past :data:`MAX_PASSES`."""
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be non-negative and finite, got {duration}")
    passes = float(gen.outflow_rates().max()) * duration / _MAX_POISSON_MEAN
    if passes > MAX_PASSES:
        raise ValueError(f"duration {duration} needs more than {MAX_PASSES} uniformization passes")
    return math.ceil(passes)


def transition_matrix(gen: BirthDeathGenerator, duration: float) -> np.ndarray:
    """Stochastic matrix ``exp(duration * Q)`` (read-only).

    All entries are non-negative exactly; each column sums to 1 minus the
    neglected Poisson tail.  That tail is below about 1e-13 per
    uniformization pass, with one pass per ~128 mean uniformized events, so
    :func:`uniformization_passes` caps the passes (trunc 120, n_thermal 1,
    duration 100 takes 280 and leaves a column deficit of 2e-12).
    """
    passes = uniformization_passes(gen, duration)
    mat = np.eye(gen.truncation + 1)
    if passes:
        rate = float(gen.outflow_rates().max())
        mat = step = _series(mat + gen.rate_matrix() / rate, rate * duration / passes)
        for _ in range(passes - 1):
            mat = step @ mat
    mat.setflags(write=False)
    return mat


def propagate(gen: BirthDeathGenerator, pop: PopulationVector, duration: float) -> PopulationVector:
    """Relax ``pop`` for ``duration`` under the exact chain."""
    if gen.truncation != pop.truncation:
        raise ValueError(
            f"generator truncation {gen.truncation} != population truncation {pop.truncation}"
        )
    if duration == 0.0:
        return pop
    return PopulationVector(transition_matrix(gen, duration) @ pop.weights)


def mean_relaxation(params: BathParams, n0: float, t: float) -> float:
    """Mean occupancy at time t: exponential approach to ``n_thermal`` at
    rate gamma from the initial mean ``n0``."""
    if n0 < 0.0:
        raise ValueError(f"initial occupancy must be non-negative, got {n0}")
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    nth = params.n_thermal
    return nth + (n0 - nth) * math.exp(-params.gamma * t)


def two_level_population(params: BathParams, k: int, t: float) -> float:
    """Analytic two-level survival-style population ``w_k(t)`` starting from
    ``w_k(0) = 1``:  ``1 - c*(1 - exp(-gamma*t))`` where c is the thermal
    weight of the opposite level (``n_thermal`` for k = 0, ``1 - n_thermal``
    for k = 1).

    This is the analytic mode: it decays at gamma, not at the exact
    two-level rate ``B_a + B_e``.  Meaningful for ``n_thermal < 1``.
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    other_weight = params.n_thermal if k == 0 else 1.0 - params.n_thermal
    return 1.0 - other_weight * -math.expm1(-params.gamma * t)
