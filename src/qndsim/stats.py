"""Statistics over measurement ensembles: empirical survival curves,
decay-rate fits, dwell-time decompositions, ergodic time averages, and a
two-sample distribution test.

Error models are standard frequentist choices: binomial standard errors on
survival points and the weighted-regression covariance for fitted rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BathParams
from .dynamics import survival_product
from .measurement import ProjectorPartition, _check_bin
from .protocol import Ensemble, MeasurementSchedule, run_ensemble


# The least survival and survivor count of a point that fit_decay keeps
FIT_FLOOR, FIT_MIN_SURVIVORS = 0.05, 10.0


class FitError(ValueError):
    """The survival curve has too few usable points or does not decay."""


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """Fraction of an ensemble still reporting the target bin at every step.

    ``survivors[i]`` counts the trajectories whose first i outcomes all equal the
    target (so the step-0 baseline is the ensemble size); for synthetic
    curves it holds expected counts instead.  ``stderr`` is the pointwise
    binomial standard error sqrt(p(1-p)/total).
    """

    times: np.ndarray
    survivors: np.ndarray
    total: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        survivors = np.asarray(self.survivors, dtype=float)
        if times.shape != survivors.shape or times.ndim != 1:
            raise ValueError("times and survivors must be matching 1-D arrays")
        if self.total <= 0:
            raise ValueError("total must be positive")
        if np.any(np.diff(survivors) > 0.0):
            raise ValueError("survivor counts must be non-increasing")
        for name, arr in (("times", times), ("survivors", survivors)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def survival(self) -> np.ndarray:
        return self.survivors / self.total

    @property
    def stderr(self) -> np.ndarray:
        p = self.survival
        return np.sqrt(p * (1.0 - p) / self.total)

    @classmethod
    def from_probabilities(cls, times, survival) -> "SurvivalCurve":
        """Wrap an exact survival law as a curve of 1e6 nominal counts."""
        total = 1e6
        survival = np.asarray(survival, dtype=float)
        return cls(np.asarray(times, dtype=float), survival * total, total)


def estimate_survival(ensemble: Ensemble, k: int) -> SurvivalCurve:
    """Empirical survival in bin ``k``: a trajectory survives step i if its
    first i outcomes all equal k, that is while its first run lasts, if in k.

    The curve estimates the repeated-measurement survival law only when the
    trajectories start pure in bin k; that is the caller's responsibility.
    """
    _check_bin(ensemble.schedule.partition, k)
    steps = ensemble.schedule.steps
    heads = np.flatnonzero(ensemble.starts % steps == 0)  # each row's first run
    first = np.where(ensemble.bins[heads] == k, ensemble.lengths[heads], 0)
    lost = np.cumsum(np.bincount(first, minlength=steps + 1)[:-1])
    survivors = (ensemble.n_traj - np.concatenate(([0], lost))).astype(float)
    times = ensemble.schedule.dt * np.arange(steps + 1)
    return SurvivalCurve(times, survivors, float(ensemble.n_traj))


@dataclass(frozen=True)
class FitWindow:
    """Points admitted to a decay fit: survival floor, minimum survivor
    count, and the resulting time range."""

    floor: float
    min_survivors: float
    n_points: int
    t_min: float
    t_max: float


@dataclass(frozen=True)
class FitResult:
    rate: float
    stderr: float
    window: FitWindow


def fit_decay(curve: SurvivalCurve) -> FitResult:
    """Weighted least-squares fit of ``ln(survival)`` against time.

    Only points with survival >= :data:`FIT_FLOOR` and at least
    :data:`FIT_MIN_SURVIVORS` survivors qualify (log-linear fitting is
    ill-conditioned in the deep tail).  Weights are the inverse variances of
    ln(p̂), ``survivors*p/(1-p)``, with 1-p floored at half a count to cap the
    weight of points at p = 1.  Returns the decay rate (-slope) and its
    standard error; raises :class:`FitError` if fewer than three points
    qualify or the curve does not decay.
    """
    p = curve.survival
    keep = (p >= FIT_FLOOR) & (p > 0.0) & (curve.survivors >= FIT_MIN_SURVIVORS)
    if keep.sum() < 3:
        raise FitError(f"only {int(keep.sum())} usable points (need 3)")
    t = curve.times[keep]
    pk = p[keep]
    if pk.max() == pk.min():
        raise FitError("survival curve does not decay over the fit window")
    y = np.log(pk)
    w = curve.survivors[keep] * pk / np.maximum(1.0 - pk, 0.5 / curve.total)
    t_bar = (w * t).sum() / w.sum()
    y_bar = (w * y).sum() / w.sum()
    s_tt = (w * (t - t_bar) ** 2).sum()
    slope = (w * (t - t_bar) * (y - y_bar)).sum() / s_tt
    if slope >= 0.0:
        raise FitError(f"fitted rate is not positive (slope = {slope!r})")
    window = FitWindow(FIT_FLOOR, FIT_MIN_SURVIVORS, int(keep.sum()), float(t.min()), float(t.max()))
    return FitResult(-slope, math.sqrt(1.0 / s_tt), window)


def two_level_curve(
    params: BathParams, dt: float, steps: int, k: int, n_traj: int, master_seed: int
) -> SurvivalCurve:
    """Monte Carlo survival in level k on the two-level truncation (the
    regime where the slowdown formulas live), from ``n_traj`` trajectories
    started in level k with master seed ``master_seed + k``."""
    schedule = MeasurementSchedule(dt, steps, ProjectorPartition.fine(1))
    return estimate_survival(run_ensemble(params, schedule, k, 1, n_traj, master_seed + k), k)


def fit_level1_product(params: BathParams, dt: float, steps: int) -> FitResult:
    """Decay fit of the analytic level-1 survival product at steps 0..steps,
    the curve whose rate the paper predicts as (1 - n_thermal)*gamma.
    Raises :class:`FitError` at n_thermal >= 1, where the product does not
    decay."""
    if params.n_thermal >= 1.0:
        raise FitError(f"the level-1 product does not decay at n_thermal = {params.n_thermal:g} >= 1")
    times = dt * np.arange(steps + 1)
    analytic = [1.0] + [survival_product(params, 1, dt, i) for i in range(1, steps + 1)]
    return fit_decay(SurvivalCurve.from_probabilities(times, analytic))


@dataclass(frozen=True, eq=False)
class DwellStats:
    """Run-length decomposition of an ensemble's bin readouts, pooled over its
    trajectories.

    ``steps`` is the number of readouts pooled (trajectories times schedule
    steps).  ``counts[n]`` is the number of outcomes equal to bin n (so the
    per-bin dwell times are ``counts*dt`` and sum exactly to the pooled
    duration ``steps*dt``).  ``dwell_lengths[n]`` lists the maximal constant
    runs of n, row by row in record order, in units of dt; a run never spans
    two trajectories.  ``interior_dwell_lengths`` excludes the first and last
    run of each trajectory, whose true extent is censored by its record
    boundaries.
    """

    steps: int
    dt: float
    counts: np.ndarray
    dwell_lengths: tuple[np.ndarray, ...]
    interior_dwell_lengths: tuple[np.ndarray, ...]

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.steps


def dwell_statistics(ensemble: Ensemble) -> DwellStats:
    """Dwell-time statistics of an ensemble's bins, pooled over its
    trajectories, from its runs: every array it allocates has one entry per
    run or per bin."""
    n_bins, steps = ensemble.schedule.partition.n_bins, ensemble.schedule.steps
    values, lengths, col = ensemble.bins, ensemble.lengths, ensemble.starts % steps
    interior_mask = (col != 0) & (col + lengths != steps)
    counts = np.bincount(values, weights=lengths, minlength=n_bins).astype(np.int64)
    dwell = tuple(lengths[values == n] for n in range(n_bins))
    interior = tuple(lengths[interior_mask & (values == n)] for n in range(n_bins))
    return DwellStats(ensemble.n_traj * steps, ensemble.schedule.dt, counts, dwell, interior)


def time_average(ensemble: Ensemble, n: int) -> float:
    """Fraction of the ensemble's outcomes equal to bin ``n`` -- the
    discrete time average of the bin-n occupation, pooled over its
    trajectories.  Equals ``dwell_statistics(ensemble).fractions[n]``
    exactly."""
    _check_bin(ensemble.schedule.partition, n)
    held = int(ensemble.lengths[ensemble.bins == n].sum())  # readouts in its runs
    return held / (ensemble.n_traj * ensemble.schedule.steps)


def ks_distance(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    scipy is imported here, on first use, so that importing the package (and
    every command but ``validate``) does not pay for ``scipy.stats``.
    """
    from scipy import stats as sps

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    result = sps.ks_2samp(a, b, method="asymp")
    return float(result.statistic), float(result.pvalue)
