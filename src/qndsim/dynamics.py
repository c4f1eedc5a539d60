"""Relaxation dynamics: exact-chain propagation of population vectors, the
closed-form mean/two-level relaxation laws, and the survival and
partial-Zeno laws of repeated measurement built on the two-level one.

Two evolution modes exist side by side and are never mixed implicitly:

* exact-chain -- :func:`propagate` applies ``exp(t*Q)`` for the birth-death
  generator Q, computed by uniformization (Poisson-weighted powers of a
  sub-stochastic kernel) over at most a few mean uniformized events, then
  squared up to the full duration; both keep every entry non-negative and
  each column's sum within the neglected Poisson tail.
* analytic -- :func:`mean_relaxation` and :func:`two_level_population`
  evaluate the closed-form relaxation laws, which use the net decay rate
  ``gamma = B_a - B_e``.  On a two-level space the exact chain relaxes at
  ``B_a + B_e`` instead, so the two modes differ at first order in
  ``n_thermal``; quantifying that gap is part of this package's job, which
  is why both are exposed.

Under readouts every dt a level survives with the two-level population per
interval: :func:`survival_product` is that population to the m-th power,
:func:`survival_exponential` its quasicontinuous limit, and
:func:`zeno_times` the persistence times it implies.  The trajectory
engines of :mod:`qndsim.protocol` are checked against these laws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BathParams, BirthDeathGenerator, PopulationVector, check_count

# Neglected Poisson tail of a build (total-variation error).  A build runs one
# series over at most _SERIES_EVENTS mean uniformized events, with its tail
# scaled down as far, and squares the result up to the full duration (scaling
# and squaring, Moler & Van Loan 2003): each squaring about doubles the error.
# A build of at most _SERIES_EVENTS events is one series, as every command's
# readout interval at the defaults (0.47 events) is.  On a 2-vCPU Xeon VM,
# AC7's 500 builds took 68 ms at 2 events, 64 ms at 0.5 and 91 ms at 16.
_TAIL = 1e-14
_SERIES_EVENTS = 2.0
# Durations of more than MAX_EVENTS mean uniformized events are refused (20
# squarings).  At the cap the squared build's column sums miss 1 by 5.7e-12 at
# trunc 1 and by at most 1.1e-10 at trunc 40 and 120, far inside core.NORM_TOL.
MAX_EVENTS = 1.28e6


def _series(kernel: np.ndarray, mean: float, tail: float) -> np.ndarray:
    """Poisson-weighted power series ``sum_k pois(k; mean) kernel^k``, up to
    a neglected Poisson mass of ``tail``."""
    dim = kernel.shape[0]
    weight = math.exp(-mean)
    total = weight
    out = weight * np.eye(dim)
    power = np.eye(dim)
    k = 0
    while total < 1.0 - tail:
        k += 1
        weight *= mean / k
        power = kernel @ power
        out += weight * power
        total += weight
        if weight < 1e-18 and k > mean:
            break  # past the mode the true remainder is far below the tail
    return out


def squarings(gen: BirthDeathGenerator, duration: float) -> int:
    """Squarings of :func:`transition_matrix` over ``duration``: the fewest
    that bring its series to at most ``_SERIES_EVENTS`` mean uniformized
    events; ``ValueError`` past :data:`MAX_EVENTS` events."""
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be non-negative and finite, got {duration}")
    events = float(gen.outflow_rates().max()) * duration
    if events > MAX_EVENTS:
        raise ValueError(f"duration {duration} needs more than {MAX_EVENTS:g} mean uniformized events")
    return math.ceil(math.log2(events / _SERIES_EVENTS)) if events > _SERIES_EVENTS else 0


def transition_matrix(gen: BirthDeathGenerator, duration: float) -> np.ndarray:
    """Stochastic matrix ``exp(duration * Q)`` (read-only).

    One uniformization series over ``duration / 2**j`` (:func:`squarings`),
    neglecting a Poisson tail of ``_TAIL / 2**j``, squared ``j`` times.  So
    a duration of at most ``_SERIES_EVENTS`` mean events is one series, and
    a longer one costs a series of about 20 terms plus one product per
    doubling.  All entries are non-negative exactly; each column sums to 1
    within about ``_TAIL`` plus the round-off of the squarings (up to 1.1e-10
    at the cap of 20).
    """
    j = squarings(gen, duration)
    rate = float(gen.outflow_rates().max())
    kernel = np.eye(gen.truncation + 1) + gen.rate_matrix() / rate
    mat = _series(kernel, rate * duration / 2**j, _TAIL / 2**j)
    for _ in range(j):
        mat = mat @ mat
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


def _other_weight(params: BathParams, k: int) -> float:
    """Thermal weight of the level opposite k: ``n_thermal`` for k = 0,
    ``1 - n_thermal`` for k = 1."""
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    return params.n_thermal if k == 0 else 1.0 - params.n_thermal


def two_level_population(params: BathParams, k: int, t: float) -> float:
    """Analytic two-level survival-style population ``w_k(t)`` starting from
    ``w_k(0) = 1``:  ``1 - c*(1 - exp(-gamma*t))`` where c is the thermal
    weight of the opposite level (``n_thermal`` for k = 0, ``1 - n_thermal``
    for k = 1).

    This is the analytic mode: it decays at gamma, not at the exact
    two-level rate ``B_a + B_e``.  Meaningful for ``n_thermal < 1``.
    """
    other_weight = _other_weight(params, k)
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    return 1.0 - other_weight * -math.expm1(-params.gamma * t)


class ZenoDomainWarning(UserWarning):
    """Persistence-time ordering degenerates (n_thermal outside (0, 1))."""


@dataclass(frozen=True)
class ZenoReport:
    """Free relaxation time tau = 1/gamma against the persistence times
    tau_k = tau / (thermal weight of the opposite level)."""

    tau: float
    tau_0: float
    tau_1: float
    slowdown_0: float
    slowdown_1: float


# Sampling intervals gamma*dt of the quasicontinuity sweep (zeno, AC6).
ZENO_SWEEP = (0.1, 0.01, 0.001)


def survival_product(params: BathParams, k: int, dt: float, steps: int) -> float:
    """Probability that ``steps`` consecutive measurements spaced ``dt`` apart
    all return level k, starting from pure level k: the single-interval
    analytic population raised to the m-th power."""
    check_count("steps", steps)
    return two_level_population(params, k, dt) ** steps


def survival_exponential(params: BathParams, k: int, t: float) -> float:
    """Quasicontinuous limit of :func:`survival_product`: ``exp(-t/tau_k)``
    with tau_k the partial-Zeno persistence time."""
    other_weight = _other_weight(params, k)
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    return math.exp(-other_weight * params.gamma * t)


def zeno_times(params: BathParams) -> ZenoReport:
    """Persistence times under repeated measurement vs the free relaxation
    time.

    ``tau_k = 1/(c_k*gamma)`` with c_0 = n_thermal and c_1 = 1 - n_thermal;
    both exceed tau = 1/gamma exactly when 0 < n_thermal < 1.  Outside that
    range the ordering degenerates: a :class:`ZenoDomainWarning` is emitted
    and the raw values are reported unclipped (tau_0 is infinite at
    n_thermal = 0, tau_1 infinite at n_thermal = 1 and negative above).
    """
    nth = params.n_thermal
    gamma = params.gamma
    if nth >= 1.0:
        warnings.warn(
            f"n_thermal = {nth:g} >= 1: tau_1 is not a slowdown", ZenoDomainWarning, stacklevel=2
        )
    elif nth == 0.0:
        warnings.warn("n_thermal = 0: level 0 never decays", ZenoDomainWarning, stacklevel=2)
    tau = 1.0 / gamma
    tau_0 = math.inf if nth == 0.0 else 1.0 / (nth * gamma)
    tau_1 = math.inf if nth == 1.0 else 1.0 / ((1.0 - nth) * gamma)
    return ZenoReport(tau, tau_0, tau_1, tau_0 / tau, tau_1 / tau)
