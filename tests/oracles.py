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


def coarse_sequence_law(tmat, initial, partition: ProjectorPartition, steps):
    """The chance of every sequence of ``steps`` bins that the measurement
    loop can read out from ``initial`` with kernel ``tmat``, keyed by the
    sequence as a tuple.  The forward filter (Rabiner 1989), run exactly: a
    sequence's state is relaxed, each next bin has the chance
    ``outcome_probabilities`` gives it, the state collapses onto it by
    ``luders_collapse``, and a sequence's chance is the product of those
    normalizers."""
    law = {(): (1.0, initial)}
    for _ in range(steps):
        longer = {}
        for sequence, (chance, state) in law.items():
            relaxed = PopulationVector(tmat @ state.weights)
            for j, q in enumerate(outcome_probabilities(relaxed, partition)):
                if q > 0.0:
                    longer[sequence + (j,)] = (chance * q, luders_collapse(relaxed, partition, j))
        law = longer
    return {sequence: chance for sequence, (chance, _) in law.items()}


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


def reference_survivors(outcomes, k):
    """Survivor counts in bin ``k`` at steps 0..steps of a dense ``(n_traj,
    steps)`` record: each row survives exactly the steps before its first miss."""
    n_traj, steps = outcomes.shape
    miss = outcomes != k
    first = miss.argmax(axis=1)
    first[~miss[np.arange(n_traj), first]] = steps
    lost = np.cumsum(np.bincount(first, minlength=steps + 1)[:-1])
    return (n_traj - np.concatenate(([0], lost))).astype(float)


def reference_dwell(outcomes, n_bins):
    """``(counts, dwell_lengths, interior_dwell_lengths)`` of a dense record,
    as ``DwellStats`` holds them, from a mask of the steps that differ from
    the one before."""
    n_rows, width = outcomes.shape
    # flat index r * (width - 1) + c of the mask is step c + 1 of row r
    changes = np.flatnonzero(outcomes[:, 1:] != outcomes[:, :-1])
    changes += changes // max(width - 1, 1) + 1
    starts = np.sort(np.concatenate((np.arange(n_rows) * width, changes)))
    lengths = np.diff(np.append(starts, outcomes.size))
    row, col = np.divmod(starts, width)
    values = outcomes[row, col]
    interior_mask = (col != 0) & (col + lengths != width)
    counts = np.bincount(values, weights=lengths, minlength=n_bins).astype(np.int64)
    dwell = tuple(lengths[values == n] for n in range(n_bins))
    interior = tuple(lengths[interior_mask & (values == n)] for n in range(n_bins))
    return counts, dwell, interior
