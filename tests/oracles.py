"""Reference implementations the engines are tested against: one trajectory
at a time, written out with the public primitives and the documented
stream derivation."""

import numpy as np

from qndsim.core import PopulationVector, build_generator
from qndsim.dynamics import transition_matrix
from qndsim.measurement import ProjectorPartition, luders_collapse, outcome_probabilities


def trajectory_rng(master_seed, trajectory_index):
    """Trajectory ``trajectory_index``'s stream, as ``SEED_DERIVATION`` states it."""
    if master_seed < 0 or trajectory_index < 0:
        raise ValueError("master_seed and trajectory_index must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, trajectory_index))))


def sample_outcome(pop, partition: ProjectorPartition, rng) -> int:
    """Draw one bin index with the probabilities of ``outcome_probabilities``:
    the right-sided bisection of one uniform from ``rng`` into the cumulative
    bin weights, clamped to the last bin."""
    cum = np.cumsum(outcome_probabilities(pop, partition))
    j = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(j, partition.n_bins - 1)


def reference_loop(params, schedule, initial, truncation, seed_pair):
    """The measurement loop, relax -> sample -> collapse, one step at a time."""
    tmat = transition_matrix(build_generator(params, truncation), schedule.dt)
    rng = trajectory_rng(*seed_pair)
    state, outcomes = initial, []
    for _ in range(schedule.steps):
        relaxed = PopulationVector(tmat @ state.weights)
        j = sample_outcome(relaxed, schedule.partition, rng)
        state = luders_collapse(relaxed, schedule.partition, j)
        outcomes.append(j)
    return np.array(outcomes)


def reference_uniforms(master_seed, first_index, n, steps):
    """The first ``steps`` uniforms of trajectories ``first_index ..
    first_index + n - 1``, one stream at a time."""
    return np.stack([trajectory_rng(master_seed, first_index + r).random(steps) for r in range(n)])


def reference_jump_record(params, schedule, level, truncation, seed_pair):
    """The jump path drawn from ``trajectory_rng``, read out at all sampling
    times in one ``searchsorted``.  A level with no outgoing rate holds to
    the horizon."""
    rng = trajectory_rng(*seed_pair)
    t, jump_times, levels = 0.0, [], [level]
    while True:
        up = params.emission_rate * (level + 1) if level < truncation else 0.0
        down = params.absorption_rate * level
        if up + down == 0.0:
            break
        t += rng.exponential(1.0 / (up + down))
        if t >= schedule.horizon:
            break
        level += 1 if rng.random() < up / (up + down) else -1
        jump_times.append(t)
        levels.append(level)
    sample_times = schedule.dt * np.arange(1, schedule.steps + 1)
    return np.asarray(levels)[np.searchsorted(jump_times, sample_times, side="right")]
