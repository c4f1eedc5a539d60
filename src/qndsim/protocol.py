"""Quasicontinuous measurement protocol: repeated projective readout of a
relaxing oscillator, as Monte Carlo trajectory engines and as the analytic
survival / partial-Zeno formulas.

Two independently built engines realize the same stochastic process:

* the Lüders engine repeats (relax by Δt) → (sample outcome) → (collapse),
  i.e. the measurement-theoretic loop, using exact-chain propagation;
* the Gillespie engine simulates the continuous-time jump process directly
  and reads out the occupied level at the sampling times.

Their statistical agreement is itself one of the package's deliverable
checks.  Reproducibility contract: trajectory i of an ensemble draws from a
private stream derived as ``SeedSequence((master_seed, i))`` feeding PCG64
(see :data:`SEED_DERIVATION`), and no trajectory's arithmetic depends on the
others in its batch, so an ensemble split into ``first_index`` shards
concatenates bit-identically to the unsplit run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BathParams, PopulationVector, build_generator, pure_level
from .dynamics import transition_matrix, two_level_population
from .measurement import ProjectorPartition, ZeroProbabilityError

# Documented stream-derivation mixer; echoed in CLI output metadata.
SEED_DERIVATION = "numpy SeedSequence((master_seed, trajectory_index)) -> PCG64"


class ZenoDomainWarning(UserWarning):
    """Persistence-time ordering degenerates (n_thermal >= 1)."""


@dataclass(frozen=True)
class MeasurementSchedule:
    """Measure every ``dt`` time units, ``steps`` times, with the given
    projector partition."""

    dt: float
    steps: int
    partition: ProjectorPartition

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")

    @property
    def horizon(self) -> float:
        return self.steps * self.dt


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One trajectory's readout: bin indices at times dt, 2*dt, ..., m*dt."""

    schedule: MeasurementSchedule
    initial_level: int | None
    outcomes: np.ndarray
    master_seed: int
    trajectory_index: int
    engine: str

    def __post_init__(self):
        out = np.asarray(self.outcomes)
        if out.shape != (self.schedule.steps,):
            raise ValueError("outcome count must equal the schedule's step count")
        if out.size and (out.min() < 0 or out.max() >= self.schedule.partition.n_bins):
            raise ValueError("outcome outside the partition's bin range")
        out.setflags(write=False)
        object.__setattr__(self, "outcomes", out)


@dataclass(frozen=True)
class ZenoReport:
    """Free relaxation time tau = 1/gamma against the persistence times
    tau_k = tau / (thermal weight of the opposite level)."""

    tau: float
    tau_0: float
    tau_1: float
    slowdown_0: float
    slowdown_1: float


def trajectory_rng(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Private random stream of one trajectory (see :data:`SEED_DERIVATION`)."""
    if master_seed < 0 or trajectory_index < 0:
        raise ValueError("master_seed and trajectory_index must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, trajectory_index))))


def _as_population(initial: PopulationVector | int, truncation: int) -> PopulationVector:
    if isinstance(initial, PopulationVector):
        if initial.truncation != truncation:
            raise ValueError(
                f"initial truncation {initial.truncation} != requested truncation {truncation}"
            )
        return initial
    return pure_level(int(initial), truncation)


def _initial_level(pop: PopulationVector) -> int | None:
    nz = np.flatnonzero(pop.weights)
    return int(nz[0]) if nz.size == 1 else None


def _outcome_dtype(n_bins: int) -> type:
    """int16 whenever it holds every bin index, else int32."""
    return np.int16 if n_bins <= np.iinfo(np.int16).max + 1 else np.int32


def run_trajectory_luders(
    params: BathParams,
    schedule: MeasurementSchedule,
    initial: PopulationVector | int,
    truncation: int,
    seed_pair: tuple[int, int],
) -> MeasurementRecord:
    """One trajectory of the measurement-theoretic loop: the ensemble of one
    trajectory ``seed_pair[1]`` under master seed ``seed_pair[0]``.

    Each step relaxes the current state by ``dt`` (exact chain), samples a
    bin from the relaxed state, and applies the Lüders collapse for that
    outcome.  Fully deterministic given ``seed_pair``.
    """
    master_seed, index = seed_pair
    return run_ensemble(params, schedule, initial, truncation, 1, master_seed, first_index=index)[0]


def run_trajectory_gillespie(
    params: BathParams,
    schedule: MeasurementSchedule,
    initial_level: int,
    truncation: int,
    seed_pair: tuple[int, int],
) -> MeasurementRecord:
    """One trajectory of the exact continuous-time jump process, read out at
    the sampling times.

    Requires a fine partition (the readout is the occupied level).  Per jump
    the stream is consumed as: one exponential for the holding time, then one
    uniform for the jump direction (skipped when the jump would fall beyond
    the horizon).  Accepts the degenerate zero-emission parameter set, under
    which level 0 is absorbing.
    """
    if not schedule.partition.is_fine:
        raise ValueError("the jump engine requires a fine partition")
    if schedule.partition.truncation != truncation:
        raise ValueError("partition truncation mismatch")
    if not 0 <= initial_level <= truncation:
        raise ValueError(f"initial level {initial_level} outside 0..{truncation}")
    rng = trajectory_rng(*seed_pair)
    be, ba = params.emission_rate, params.absorption_rate
    horizon = schedule.horizon
    t = 0.0
    level = int(initial_level)
    jump_times: list[float] = []
    levels = [level]
    while True:
        up = be * (level + 1) if level < truncation else 0.0
        down = ba * level
        total = up + down
        if total == 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        level += 1 if rng.random() < up / total else -1
        jump_times.append(t)
        levels.append(level)
    sample_times = schedule.dt * np.arange(1, schedule.steps + 1)
    # paths are right-continuous: a sample at a jump instant sees the new level
    segment = np.searchsorted(np.asarray(jump_times), sample_times, side="right")
    outcomes = np.asarray(levels, dtype=_outcome_dtype(truncation + 1))[segment]
    return MeasurementRecord(
        schedule, int(initial_level), outcomes, seed_pair[0], seed_pair[1], "gillespie"
    )


def survival_product(params: BathParams, k: int, dt: float, steps: int) -> float:
    """Probability that ``steps`` consecutive measurements spaced ``dt`` apart
    all return level k, starting from pure level k: the single-interval
    analytic population raised to the m-th power."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    return two_level_population(params, k, dt) ** steps


def survival_exponential(params: BathParams, k: int, t: float) -> float:
    """Quasicontinuous limit of :func:`survival_product`: ``exp(-t/tau_k)``
    with tau_k the partial-Zeno persistence time."""
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    other_weight = params.n_thermal if k == 0 else 1.0 - params.n_thermal
    return math.exp(-other_weight * params.gamma * t)


def zeno_times(params: BathParams) -> ZenoReport:
    """Persistence times under repeated measurement vs the free relaxation
    time.

    ``tau_k = 1/(c_k*gamma)`` with c_0 = n_thermal and c_1 = 1 - n_thermal;
    both exceed tau = 1/gamma exactly when 0 < n_thermal < 1.  Outside that
    range the ordering degenerates: a :class:`ZenoDomainWarning` is emitted
    and the raw values are reported unclipped (tau_1 is infinite at
    n_thermal = 1 and negative above).
    """
    nth = params.n_thermal
    gamma = params.gamma
    if nth >= 1.0:
        warnings.warn(
            f"n_thermal = {nth:g} >= 1: tau_1 is not a slowdown", ZenoDomainWarning, stacklevel=2
        )
    tau = 1.0 / gamma
    tau_0 = 1.0 / (nth * gamma)
    tau_1 = math.inf if nth == 1.0 else 1.0 / ((1.0 - nth) * gamma)
    return ZenoReport(tau, tau_0, tau_1, tau_0 / tau, tau_1 / tau)


def _luders_outcomes(
    params: BathParams,
    schedule: MeasurementSchedule,
    pop: PopulationVector,
    n_traj: int,
    master_seed: int,
    first_index: int,
) -> np.ndarray:
    """Outcomes ``(n_traj, steps)`` of the measurement loop for trajectories
    ``first_index ..``: relax by ``dt``, sample a bin, Lüders collapse.

    Sampling is the right-sided bisection of each step's uniform into the
    cumulative bin masses.  A row's floats never depend on the other rows:
    relaxation is a fixed-order sum over columns, not a BLAS product whose
    blocking may vary with the batch size, so a trajectory's outcomes do not
    depend on the batch it runs in.
    """
    partition = schedule.partition
    n_levels, n_bins = pop.truncation + 1, partition.n_bins
    tmat = transition_matrix(build_generator(params, pop.truncation), schedule.dt)
    uniforms = np.empty((n_traj, schedule.steps))
    for i in range(n_traj):
        uniforms[i] = trajectory_rng(master_seed, first_index + i).random(schedule.steps)

    if partition.is_fine:
        # A fine collapse leaves a pure level, so the state is that level and
        # its relaxed cumulative weights are a row of a table; the last row
        # holds the relaxed initial state.
        table = np.vstack([np.cumsum(tmat, axis=0).T, np.cumsum(tmat @ pop.weights)])
        state = np.full(n_traj, n_levels)

        def advance(levels):
            return table[levels], None

        def collapse(_, outcome):
            return outcome

    else:
        # The state is an (n_traj, L) weight array.
        columns = tmat.T
        level_bin = np.array([partition.bin_of(n) for n in range(n_levels)])
        state = np.broadcast_to(pop.weights, (n_traj, n_levels))

        def advance(weights):
            relaxed = np.zeros((n_traj, n_levels))
            for j in range(n_levels):
                relaxed += weights[:, j, None] * columns[j]
            masses = np.zeros((n_traj, n_bins))
            for n, b in enumerate(level_bin):
                masses[:, b] += relaxed[:, n]
            return np.cumsum(masses, axis=1), (relaxed, masses)

        def collapse(relaxed_masses, outcome):
            relaxed, masses = relaxed_masses
            mass = masses[np.arange(n_traj), outcome]
            if not mass.all():
                raise ZeroProbabilityError("a sampled outcome has zero probability")
            inside = level_bin == outcome[:, None]
            return np.where(inside, relaxed / mass[:, None], 0.0)

    outcomes = np.empty((n_traj, schedule.steps), dtype=_outcome_dtype(n_bins))
    for step in range(schedule.steps):
        cum, relaxed = advance(state)
        outcome = np.minimum((cum <= uniforms[:, step, None]).sum(axis=1), n_bins - 1)
        state = collapse(relaxed, outcome)
        outcomes[:, step] = outcome
        del cum, relaxed  # batch-sized; freed before the next step allocates its own
    return outcomes


def run_ensemble(
    params: BathParams,
    schedule: MeasurementSchedule,
    initial: PopulationVector | int,
    truncation: int,
    n_traj: int,
    master_seed: int,
    engine: str = "luders",
    first_index: int = 0,
) -> list[MeasurementRecord]:
    """Independent trajectories ``first_index .. first_index + n_traj - 1``.

    The result depends only on (params, schedule, initial, seeds): each
    trajectory draws from its own stream and no trajectory's arithmetic
    depends on another's, so the ensemble split at any ``first_index`` and
    concatenated is bit-identical to the unsplit run.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    if engine not in ("luders", "gillespie"):
        raise ValueError(f"unknown engine {engine!r}")
    if schedule.partition.truncation != truncation:
        raise ValueError("partition truncation mismatch")
    indices = range(first_index, first_index + n_traj)
    if engine == "gillespie":
        if isinstance(initial, PopulationVector):
            initial = _initial_level(initial)
            if initial is None:
                raise ValueError("the jump engine needs a definite initial level")
        return [
            run_trajectory_gillespie(params, schedule, int(initial), truncation, (master_seed, i))
            for i in indices
        ]
    pop = _as_population(initial, truncation)
    outcomes = _luders_outcomes(params, schedule, pop, n_traj, master_seed, first_index)
    level = _initial_level(pop)
    return [
        MeasurementRecord(schedule, level, row, master_seed, i, "luders")
        for i, row in zip(indices, outcomes)
    ]
