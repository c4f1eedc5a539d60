"""Quasicontinuous measurement protocol: repeated projective readout of a
relaxing oscillator, as Monte Carlo trajectory engines.

Two independently built engines realize the same stochastic process:

* the Lüders engine repeats (relax by Δt) → (sample outcome) → (collapse),
  i.e. the measurement-theoretic loop, using exact-chain propagation;
* the Gillespie engine simulates the continuous-time jump process directly
  and reads out the occupied level at the sampling times.

Their statistical agreement is itself one of the package's deliverable
checks.  Reproducibility contract: trajectory i of an ensemble draws from a
private stream derived as ``SeedSequence((master_seed, i))`` feeding PCG64
(see :mod:`qndsim.streams`), and no trajectory's arithmetic depends on the
others in its batch, so an ensemble split into ``first_index`` shards
concatenates bit-identically to the unsplit run.  The closed-form survival
and partial-Zeno laws the engines are checked against are in
:mod:`qndsim.dynamics`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import streams
from .core import BathParams, PopulationVector, build_generator, check_count, pure_level
from .dynamics import transition_matrix
from .measurement import ProjectorPartition, ZeroProbabilityError

# Trajectory engines of run_ensemble: the measurement loop and the jump process.
ENGINES = ("luders", "gillespie")
# A fine Lüders window's numpy calls cost about as much as testing this many
# uniforms (_window_width): 2**16 and 2**17 timed best on a 2-vCPU Xeon VM.
_WINDOW_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class MeasurementSchedule:
    """Measure every ``dt`` time units, ``steps`` times, with the given
    projector partition."""

    dt: float
    steps: int
    partition: ProjectorPartition

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        check_count("steps", self.steps)
        if self.horizon == math.inf:
            raise ValueError(f"horizon = {self.steps} * {self.dt} overflows")

    @property
    def horizon(self) -> float:
        return self.steps * self.dt


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Readouts of trajectories ``first_index + r``, ``r < n_traj``, at dt, ...,
    steps*dt, as maximal runs (:func:`_runs`): bin ``bins[i]`` for ``lengths[i]``
    readouts from flat readout ``starts[i] = r * steps + step`` of row r.  Both
    are read-only, and copies of the arrays a caller gives (:func:`run_ensemble`
    hands its own runs over uncopied, by :meth:`_of_runs`).  Under any
    partition the bins are the engines' levels read through
    ``partition.level_bin``."""

    schedule: MeasurementSchedule
    initial_level: int | None
    starts: np.ndarray
    bins: np.ndarray
    n_traj: int
    master_seed: int
    first_index: int
    engine: str

    def __post_init__(self):
        self._keep_runs(copy=True)

    @classmethod
    def _of_runs(cls, *values) -> "Ensemble":
        """The Ensemble of the field ``values``, keeping its runs uncopied:
        runs that :func:`run_ensemble` made, which no caller holds."""
        ensemble = cls.__new__(cls)
        for field, value in zip(fields(cls), values, strict=True):
            object.__setattr__(ensemble, field.name, value)
        ensemble._keep_runs(copy=False)
        return ensemble

    def _keep_runs(self, copy: bool) -> None:
        n_bins = self.schedule.partition.n_bins
        runs = _runs(self.starts, self.bins, self.n_traj, self.schedule.steps)
        if runs[1].min() < 0 or runs[1].max() >= n_bins:
            raise ValueError("outcome outside the partition's bin range")
        for name, arr, dtype in zip(("starts", "bins"), runs, (np.intp, _outcome_dtype(n_bins))):
            arr = arr.astype(dtype, copy=copy)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.starts, append=self.n_traj * self.schedule.steps)

    @cached_property
    def outcomes(self) -> np.ndarray:
        """Read-only ``(n_traj, steps)`` bin indices: the runs expanded once."""
        out = np.repeat(self.bins, self.lengths).reshape(self.n_traj, self.schedule.steps)
        out.setflags(write=False)
        return out


def _runs(starts, bins, n_rows: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs of ``n_rows`` rows of ``steps`` readouts, from runs in
    start order (see :class:`Ensemble`): a run that holds no readout is
    dropped, and one in the bin of the run before it in its row joins that
    run.  Every row's first readout must start a run; starts and bins are
    integers, not bool.  Runs already maximal come back as the input arrays
    themselves (the starts cast to intp if they are not)."""
    starts, bins = np.asarray(starts), np.asarray(bins)
    if starts.dtype.kind not in "iu" or bins.dtype.kind not in "iu":
        raise ValueError(f"run starts and bins must be integers, got {starts.dtype} and {bins.dtype}")
    starts, end = starts.astype(np.intp, copy=False), n_rows * steps
    if (n_rows < 1 or starts.ndim != 1 or bins.shape != starts.shape or starts[:1].tolist() != [0]
            or np.any(starts[1:] < starts[:-1]) or starts[-1] > end):
        raise ValueError("runs need a bin per start, and starts ascending from 0 to the record's end")
    nonempty = np.append(starts[1:] != starts[:-1], starts[-1] != end)
    starts, bins = (starts, bins) if nonempty.all() else (starts[nonempty], bins[nonempty])
    keep = starts % steps == 0
    if np.count_nonzero(keep) != n_rows:
        raise ValueError("every row's first readout must start a run")
    keep[1:] |= bins[1:] != bins[:-1]
    return (starts, bins) if keep.all() else (starts[keep], bins[keep])


def _outcome_dtype(n_bins: int) -> type:
    """int16 whenever it holds every bin index, else int32."""
    return np.int16 if n_bins <= np.iinfo(np.int16).max + 1 else np.int32


def _read_out(times, levels: np.ndarray, path_lengths, dt: float, steps: int):
    """Runs of paths sampled at ``dt * (i + 1)``, ``i < steps``, one row each.

    Path r is the next ``path_lengths[r]`` entries of ``times`` and
    ``levels``: its initial level at time 0.0, then its level after each
    jump at the jump's time.  An entry's run starts at its first sample
    number, the least k with ``dt * k >= t`` (0 at time 0.0): ``ceil(t /
    dt)`` corrected once each way with that same float product (enough
    while ``t / dt < 2**51``).
    :func:`_runs` drops the runs of jumps past the last sample and of jumps
    followed by another before a sample.
    """
    times = np.asarray(times, dtype=float)
    k = np.ceil(times / dt)
    k += dt * k < times
    k -= dt * (k - 1) >= times
    starts = np.repeat(np.arange(len(path_lengths)) * steps, path_lengths)  # each entry's row * steps
    starts += np.clip(k - 1, 0, steps, out=k).astype(np.intp)  # in place: one fewer float an entry
    return starts, levels


def _window_width(n_rows: int, leave_rate: float) -> int:
    """Columns per fine Lüders window for ``n_rows`` rows that leave their level
    ``leave_rate`` times per readout: a window's numpy calls cost about
    :data:`_WINDOW_ELEMENTS` uniform tests and each leave tests its row's window
    again, which balance at ``sqrt(_WINDOW_ELEMENTS / (n_rows * leave_rate))``."""
    rate = max(leave_rate, 1 / _WINDOW_ELEMENTS)  # bounds a window of rows that never leave
    return max(1, int(math.sqrt(_WINDOW_ELEMENTS / (n_rows * rate))))


def _clamp(count, n_outcomes: int, top_mass):
    """The outcomes of right-sided bisections that found ``count`` cumulative
    masses at or below their uniforms, clamped to the last outcome (of mass
    ``top_mass``).  Only the clamp can pick a zero-mass outcome: it raises
    ZeroProbabilityError."""
    clamped = count == n_outcomes
    if np.any(clamped) and np.any(clamped & (top_mass == 0.0)):
        raise ZeroProbabilityError("a sampled outcome has zero probability")
    return np.minimum(count, n_outcomes - 1)


def _bisect(cum: np.ndarray, u: np.ndarray, top_mass: np.ndarray) -> np.ndarray:
    """Right-sided bisection of each row's uniform ``u`` into its cumulative
    masses ``cum``, clamped (:func:`_clamp`)."""
    return _clamp((cum <= u[:, None]).sum(axis=1), cum.shape[1], top_mass)


def _level_bounds(tmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column k's cumulative masses ``cum[k]`` and the interval ``[lower[k],
    upper[k])`` of the uniforms that keep a pure level k at the next fine
    readout (no upper bound at the top level, where a uniform above the
    column's mass clamps)."""
    cum = np.cumsum(tmat, axis=0).T
    diagonal = np.arange(tmat.shape[0])
    lower = np.concatenate(([0.0], cum[diagonal[1:], diagonal[:-1]]))
    upper = cum[diagonal, diagonal]
    upper[-1] = np.inf
    return cum, lower, upper


def _fine_outcomes(tmat: np.ndarray, pop: PopulationVector, uniforms: np.ndarray):
    """Maximal runs (:class:`Ensemble`) of the levels the measurement loop
    reads out (its record under the fine partition), one row per row of
    ``uniforms``.

    A fine collapse leaves a pure level k, and the next outcome is the
    right-sided bisection of the step's uniform into column k's cumulative
    masses: it is k again exactly when the uniform falls in k's interval
    (:func:`_level_bounds`).  So after the first readout the block is
    scanned in aligned windows of columns (:func:`_window_width` wide, for
    the rows' mean leave rate ``1 - tmat[k, k]``): every row's uniforms in a
    window are compared with its level's interval (the most common level's
    as scalars, then the rows at other levels again with theirs), a row
    that leaves is bisected at its first leave, and only those rows are
    compared again, with their new level, past that column, until no row
    leaves; the levels carry into the next window.  A row that never leaves
    (most rows, when readouts are frequent) costs one interval test per
    readout, and each leave starts a run.  A block of one row is walked
    instead (:func:`_fine_row`).
    """
    n_rows, steps = uniforms.shape
    cum, lower, upper = _level_bounds(tmat)
    relaxed = tmat @ pop.weights
    first = np.searchsorted(np.cumsum(relaxed), uniforms[:, 0], side="right")
    level = _clamp(first, tmat.shape[0], relaxed[-1])
    # every run of a level, as its flat start (row * steps + step) and level
    run_starts, run_levels = [np.arange(n_rows) * steps], [level.copy()]
    start = 1
    while start < steps:
        width = min(steps - start, _window_width(n_rows, 1.0 - tmat[level, level].mean()))
        window = uniforms[:, start:start + width]
        common = np.bincount(level).argmax()
        leave = window < lower[common]
        leave |= window >= upper[common]  # in place: one fewer window-sized mask
        other = np.flatnonzero(level != common)
        if other.size:
            u, k = window[other], level[other]
            leave[other] = (u < lower[k, None]) | (u >= upper[k, None])
        rows, k = np.arange(n_rows), level
        while True:
            at = leave.argmax(axis=1)
            left = leave[np.arange(rows.size), at]
            rows, at, was = rows[left], at[left], k[left]
            if not rows.size:
                break
            level[rows] = k = _bisect(cum[was], window[rows, at], tmat[-1, was])
            run_starts.append(rows * steps + start + at)
            run_levels.append(k)
            u = window[rows]  # only past the row's last leave in this window
            leave = u < lower[k, None]
            leave |= u >= upper[k, None]
            leave &= np.arange(width) > at[:, None]
        start += width
    starts = np.concatenate(run_starts)
    order = np.argsort(starts)
    return starts[order], np.concatenate(run_levels, dtype=_outcome_dtype(tmat.shape[0]))[order]


def _fine_row(tmat: np.ndarray, pop: PopulationVector, chunks) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs (:class:`Ensemble`) of the levels of one row of the
    measurement loop, its uniforms given as consecutive ``chunks``.

    The row is walked from leave to leave.  The readouts where level k
    leaves (its uniform outside k's interval, :func:`_level_bounds`) come
    from one comparison over a span of the chunk, made when the row reaches
    k past the span it last compared for k; the next leave is the first of
    them past the row's position, found by bisection, and the new level is
    the right-sided bisection of its uniform into column k's cumulative
    masses, clamped (:func:`_clamp`).  The level and the position carry into
    the next chunk.  A span is the whole chunk, or ``1 / (L * q_k)`` of its size
    for a level left with chance ``q_k = 1 - tmat[k, k]`` above ``1 / L``, so
    that the L levels' leave positions together hold about one chunk.  A
    readout costs one interval test per level whose span covers it, and a
    leave a few scalar operations and one append to each of two typed
    buffers, the runs' starts and levels in their record dtypes.
    """
    n_levels = tmat.shape[0]
    cum, lower, upper = _level_bounds(tmat)
    columns, top_mass = cum.tolist(), tmat[-1].tolist()
    shares = np.maximum(n_levels * (1.0 - np.diagonal(tmat)), 1.0)
    relaxed = tmat @ pop.weights
    level, position, offset = None, 1, 0
    run_starts, run_levels = array(np.dtype(np.intp).char), array(np.dtype(_outcome_dtype(n_levels)).char)
    for chunk in chunks:
        # leaves[k]: the end of the span last compared for level k, and its leaves
        u, leaves = memoryview(chunk), {}
        spans = np.ceil(chunk.size / shares).astype(int).tolist()
        if level is None:  # the first readout
            level = int(_clamp(bisect_right(np.cumsum(relaxed).tolist(), u[0]), n_levels, relaxed[-1]))
            run_starts.append(0)
            run_levels.append(level)
        while True:
            end, positions = leaves.get(level, (0, ()))
            i = bisect_left(positions, position)
            if i < len(positions):
                at = positions[i]
                new = bisect_right(columns[level], u[at])
                level = new if new < n_levels else int(_clamp(new, n_levels, top_mass[level]))
                run_starts.append(offset + at)
                run_levels.append(level)
                position = at + 1
            elif end < chunk.size:  # no leave before the span's end: compare the next span
                start = max(position, end)
                span = chunk[start:start + spans[level]]
                leave = np.flatnonzero((span < lower[level]) | (span >= upper[level])) + start
                leaves[level] = (start + span.size, memoryview(leave))
            else:
                break
        offset += chunk.size
        position = 0
    return np.asarray(run_starts), np.asarray(run_levels)  # views of the buffers


def _jump_block(ups, downs, level: int, dt: float, steps: int, rngs):
    """Runs (:func:`_read_out`) of the levels of one block of jump-process
    paths from ``level``, read out at ``dt``, ..., ``steps * dt``, a row per
    Generator of ``rngs``, at rates ``ups[n]`` up and ``downs[n]`` down from
    level n (a level with no rate out is absorbing).  Per jump a stream gives
    one exponential holding time, then (unless the jump falls past the
    horizon) one uniform for its direction.  The block's paths are drawn
    into typed buffers shared by the block, each its initial level at time
    0.0 first, then read out at once.
    """
    horizon = steps * dt
    times, levels, path_lengths = array("d"), array(np.dtype(_outcome_dtype(len(ups))).char), []
    for rng in rngs:
        t, k, first = 0.0, level, len(times)
        while True:
            times.append(t)
            levels.append(k)
            total = ups[k] + downs[k]
            if total == 0.0:
                break
            t += rng.exponential(1.0 / total)
            if t >= horizon:
                break
            k += 1 if rng.random() < ups[k] / total else -1
        path_lengths.append(len(times) - first)
    return _read_out(times, np.asarray(levels), path_lengths, dt, steps)


def run_ensemble(
    params: BathParams,
    schedule: MeasurementSchedule,
    initial: PopulationVector | int,
    truncation: int,
    n_traj: int,
    master_seed: int,
    engine: str = "luders",
    first_index: int = 0,
) -> Ensemble:
    """Independent trajectories ``first_index .. first_index + n_traj - 1``.

    The result depends only on (params, schedule, initial, seeds): each
    trajectory draws from its own stream and no trajectory's arithmetic
    depends on another's, so the ensemble split at any ``first_index`` and
    concatenated is bit-identical to the unsplit run.  Both engines run the
    blocks of :func:`streams._blocks`, one at a time, so their working
    memory is bounded by one block, not by the ensemble or the row.  Under
    every partition the Lüders engine samples a block's levels
    (:func:`_fine_outcomes`, :func:`_fine_row`) and the jump engine its
    paths' (:func:`_jump_block`); readouts keep the state diagonal, so a
    coarse record is the fine one read through ``partition.level_bin``, and
    here alone each block's levels are read through it and joined into runs
    before the next block is drawn.  The runs go to the :class:`Ensemble`
    uncopied.
    """
    check_count("n_traj", n_traj)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    partition = schedule.partition
    if partition.truncation != truncation:
        raise ValueError("partition truncation mismatch")
    pop = initial if isinstance(initial, PopulationVector) else pure_level(int(initial), truncation)
    if pop.truncation != truncation:
        raise ValueError(f"initial truncation {pop.truncation} != requested truncation {truncation}")
    nz = np.flatnonzero(pop.weights)
    level = int(nz[0]) if nz.size == 1 else None
    gen = build_generator(params, truncation)
    if engine == "gillespie":
        if level is None:
            raise ValueError("the jump engine needs a definite initial level")
        ups, downs = gen.up.tolist() + [0.0], [0.0] + gen.down.tolist()
    else:
        tmat = transition_matrix(gen, schedule.dt)
    steps, runs = schedule.steps, []
    level_bin = None if partition.is_fine else partition.level_bin.astype(_outcome_dtype(partition.n_bins))

    def block_runs(start, rows, chunks):  # a call, so the block's levels are freed before the next is drawn
        if engine == "gillespie":
            rngs = streams._streams(master_seed, first_index + start, rows)
            starts, levels = _jump_block(ups, downs, level, schedule.dt, steps, rngs)
        else:
            starts, levels = _fine_row(tmat, pop, chunks) if rows == 1 else _fine_outcomes(tmat, pop, *chunks)
        return _runs(starts, levels if level_bin is None else level_bin[levels], rows, steps)

    for start, rows, chunks in streams._blocks(master_seed, first_index, n_traj, steps):
        starts, bins = block_runs(start, rows, chunks)
        starts += start * steps
        runs.append((starts, bins))
    starts, bins = map(np.concatenate, zip(*runs)) if len(runs) > 1 else runs[0]
    runs.clear()  # the blocks' runs, once joined, before Ensemble checks them
    return Ensemble._of_runs(schedule, level, starts, bins, n_traj, master_seed, first_index, engine)
