"""Layer timings: each stage of a run at the shapes the commands run it, the
step count where the numpy PCG64 draw stops beating the per-row Generator,
and a grid over ``_WINDOW_ELEMENTS``, the fine Lüders scan's window size.

Run from a checkout::

    PYTHONPATH=src python bench/layers.py [--repeats 7] [--out BENCH_layers.json]
        [--before OTHER.json]

Each timing is the median of ``--repeats`` runs in this process, on inputs
built before the clock starts; a layer's ``iqr_s`` is the interquartile
range of its runs (0 for one run), the spread a ``speedup`` must clear to
mean anything.  ``peak_mb`` is the ``tracemalloc`` peak of one more run
(numpy reports its buffers to ``tracemalloc``), in 1e6 bytes.
Layers run at ``gamma = 1`` from level 0, at the settings in their entry
(``null`` where one does not apply).  ``uniforms`` and ``fine_outcomes``
run the blocks of ``streams._blocks``, the cut that ``run_ensemble`` runs,
one block discarded before the next: ``uniforms`` draws each block's
chunks, and ``fine_outcomes`` runs the measurement loop on levels, on
chunks drawn before the clock starts: ``protocol._fine_outcomes`` on a
block of many rows, ``protocol._fine_row`` on a block of one;
``luders_engine`` and ``jump_engine`` are ``run_ensemble`` with each
engine, the Lüders one on rows too long to hold their uniforms at once and
on the coarse partitions {0..first_bin-1} | {first_bin..trunc}, whose
records are the fine ones read through ``level_bin`` (``first_bin`` is null
on a fine partition); ``record`` is ``protocol._runs``, the check that
every ensemble's runs pass through, which keeps an engine's runs as they
are, on the runs that ``estimate_survival`` and ``dwell_statistics`` read;
``transition_matrix`` is one build over ``gdt``; ``ks_distance`` is AC5's test on level-0 interior dwells, and ``ks_import``
its first call, which imports scipy (one untraced run, so no peak).
``--before`` takes this script's JSON from another revision (run with that
revision's ``src`` on ``PYTHONPATH``) and adds its numbers and the speed-up
to each entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial

import numpy as np

from qndsim import dynamics, protocol, stats, streams
from qndsim.core import bath_from_gamma, build_generator, pure_level
from qndsim.measurement import ProjectorPartition

N_THERMAL = 0.1
PARAMS = bath_from_gamma(1.0, N_THERMAL)
DT = 0.01
DEFAULTS = (N_THERMAL, DT)
# (rows, steps) of the benchmark's ensembles and records: survival at 25 000
# and at 20 000 trajectories, the coarse ensemble, AC5, a 2e5-step dwell record
UNIFORM_SHAPES = ((25_000, 100), (20_000, 100), (200, 100), (2_000, 1_000), (1, 200_000))
# (truncation, rows, steps, n_thermal, gdt): survival, survival --trunc 1, AC5,
# dwell --trunc 1 at the defaults, where about 9 in 10 rows never leave their
# first level, and dwell at the defaults (trunc 40, 1e5 readouts); then with
# frequent leaves (0.42 to 0.45 leaves per readout at n_thermal 2, gdt 0.1;
# 0.11 at gdt 1): survival --n-thermal 2 --gdt 0.1 --horizon 10 in one block,
# AC5's blocks and a dwell record at those settings, dwell --trunc 1 --gdt 1
ENGINE_SHAPES = (
    (40, 25_000, 100, N_THERMAL, DT), (1, 20_000, 100, N_THERMAL, DT),
    (40, 2_000, 1_000, N_THERMAL, DT), (1, 1, 200_000, N_THERMAL, DT), (40, 1, 100_000, N_THERMAL, DT),
    (40, 4_096, 100, 2.0, 0.1), (40, 2_000, 1_000, 2.0, 0.1), (40, 1, 100_000, 2.0, 0.1),
    (1, 1, 200_000, N_THERMAL, 1.0),
)
# (truncation, rows, steps) of survival at 25 000 trajectories
SURVIVAL_SHAPE = (40, 25_000, 100)
# (truncation, rows, steps, n_thermal, gdt, first_bin): the benchmark's coarse
# ensemble, then 4096 rows on {0} | {1..40} at the defaults and with frequent
# leaves (0.42 level changes a readout, 0.11 of them between bins), on
# {0, 1} | {2..40}, a partition with no bin of one level, and one coarse row
# of 1e5 readouts at the defaults, walked from leave to leave
COARSE_SHAPES = (
    (40, 200, 100, N_THERMAL, DT, 1), (40, 4_096, 100, N_THERMAL, DT, 1),
    (40, 4_096, 100, 2.0, 0.1, 1), (40, 4_096, 100, 2.0, 0.1, 2), (40, 1, 100_000, N_THERMAL, DT, 1),
)
# (truncation, rows, steps, n_thermal, gdt): AC4 and dwell --engine gillespie,
# AC5, then survival --engine gillespie --n-thermal 2 --trunc 40 --gdt 0.1
# --horizon 10 --traj 8193, busy rows in three blocks, the last of one row
JUMP_SHAPES = (
    (1, 1, 4_000_000, N_THERMAL, DT), (40, 2_000, 1_000, N_THERMAL, DT), (40, 8_193, 100, 2.0, 0.1),
)
# (truncation, rows, steps, n_thermal, gdt): dwell --trunc 1 --traj 20000000,
# one row drawn and walked in chunks; then a busy long row, 1e6 readouts at
# n_thermal 5, gdt 1 (885 944 runs), whose peak is mostly its record
LUDERS_SHAPES = ((1, 1, 20_000_000, N_THERMAL, DT), (40, 1, 1_000_000, 5.0, 1.0))
DWELL_SHAPE = (1, 1, 4_000_000)
# (truncation, gamma * duration): every command's readout interval, the
# two-level chain of dwell, AC2 and AC3, and AC1's longest step (7 squarings)
TRANSITION_SHAPES = ((40, DT), (1, DT), (40, 5.0))
AC5_SHAPE = (40, 2_000, 1_000)
CROSSOVER_ROWS = 4096
CROSSOVER_STEPS = (50, 100, 150, 175, 192, 200, 225, 250, 300, 500, 1000)
WINDOW_ELEMENTS = tuple(2**k for k in range(15, 20))
SETTINGS = ("trunc", "rows", "steps", "n_thermal", "gdt", "first_bin")


def _times(fn, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _median_s(fn, repeats: int) -> float:
    return round(statistics.median(_times(fn, repeats)), 5)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@contextmanager
def _forced(module, name: str, value: int):
    """``module.<name>`` set to ``value`` for the duration of the block."""
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def _uniforms(n: int, steps: int):
    def draw():
        for _, _, chunks in streams._blocks(0, 0, n, steps):
            for _ in chunks:
                pass
    return draw


def _engine(trunc: int, n: int, steps: int, n_thermal: float, gdt: float):
    tmat = dynamics.transition_matrix(build_generator(bath_from_gamma(1.0, n_thermal), trunc), gdt)
    pop = pure_level(0, trunc)
    # each block's chunks, copied (a row's draw reuses one buffer)
    blocks = [(rows, [chunk.copy() for chunk in chunks]) for _, rows, chunks in streams._blocks(0, 0, n, steps)]

    def run():
        for rows, chunks in blocks:
            if rows == 1:
                protocol._fine_row(tmat, pop, chunks)
            else:
                protocol._fine_outcomes(tmat, pop, *chunks)
    return run


def _ensemble(trunc: int, n: int, steps: int, n_thermal: float = N_THERMAL, gdt: float = DT,
              first_bin: int | None = None, engine: str = "luders", seed: int = 0):
    params, partition = bath_from_gamma(1.0, n_thermal), ProjectorPartition.fine(trunc)
    if first_bin is not None:
        partition = ProjectorPartition(trunc, (tuple(range(first_bin)), tuple(range(first_bin, trunc + 1))))
    schedule = protocol.MeasurementSchedule(gdt, steps, partition)
    return lambda: protocol.run_ensemble(params, schedule, 0, trunc, n, seed, engine=engine)


def _transition(trunc: int, duration: float):
    return partial(dynamics.transition_matrix, build_generator(PARAMS, trunc), duration)


def _entry(layer: str, shape: tuple, times: list[float], peak_mb: float | None) -> dict:
    low, high = np.percentile(times, (25, 75))
    return {
        "layer": layer, **dict.fromkeys(SETTINGS), **dict(zip(SETTINGS, shape)),
        "median_s": round(statistics.median(times), 5), "iqr_s": round(high - low, 5), "peak_mb": peak_mb,
    }


def _layers(repeats: int) -> list[dict]:
    ac5 = _ensemble(*AC5_SHAPE)(), _ensemble(*AC5_SHAPE, engine="gillespie", seed=11)()
    dwells = [stats.dwell_statistics(e).interior_dwell_lengths[0] for e in ac5]
    start = time.perf_counter()
    stats.ks_distance(*dwells)
    ks_import = time.perf_counter() - start
    survival = _ensemble(*SURVIVAL_SHAPE)()
    record = _ensemble(*DWELL_SHAPE, engine="gillespie")()
    cases = [("uniforms", (None, n, s, None, None), _uniforms(n, s)) for n, s in UNIFORM_SHAPES]
    cases += [("fine_outcomes", shape, _engine(*shape)) for shape in ENGINE_SHAPES]
    cases += [("luders_engine", shape, _ensemble(*shape)) for shape in LUDERS_SHAPES + COARSE_SHAPES]
    cases += [("jump_engine", shape, _ensemble(*shape, engine="gillespie")) for shape in JUMP_SHAPES]
    cases += [
        ("record", shape + DEFAULTS, partial(protocol._runs, e.starts, e.bins, e.n_traj, e.schedule.steps))
        for shape, e in ((SURVIVAL_SHAPE, survival), (DWELL_SHAPE, record))
    ]
    cases += [
        ("estimate_survival", SURVIVAL_SHAPE + DEFAULTS, lambda: stats.estimate_survival(survival, 0)),
        ("dwell_statistics", DWELL_SHAPE + DEFAULTS, lambda: stats.dwell_statistics(record)),
    ]
    cases += [
        ("transition_matrix", (t, None, None, N_THERMAL, gdt), _transition(t, gdt))
        for t, gdt in TRANSITION_SHAPES
    ]
    cases.append(("ks_distance", AC5_SHAPE + DEFAULTS, lambda: stats.ks_distance(*dwells)))
    entries = [_entry(layer, shape, _times(fn, repeats), round(_peak_mb(fn), 2)) for layer, shape, fn in cases]
    entries.append(_entry("ks_import", AC5_SHAPE + DEFAULTS, [ks_import], None))
    return entries


def _crossover(repeats: int) -> dict:
    rows = []
    for steps in CROSSOVER_STEPS:
        draw, row = partial(streams._uniforms, 0, 0, CROSSOVER_ROWS, steps), {"steps": steps}
        for name, vector_steps in (("vector_s", sys.maxsize), ("generator_s", 0)):
            with _forced(streams, "VECTOR_STEPS", vector_steps):
                row[name] = _median_s(draw, repeats)
        rows.append(row)
    wins = [r["steps"] for r in rows if r["vector_s"] < r["generator_s"]]
    return {
        "rows": CROSSOVER_ROWS,
        "vector_steps": streams.VECTOR_STEPS,
        "largest_step_count_where_vector_wins": max(wins, default=None),
        "table": rows,
    }


def _window_grid(repeats: int) -> dict:
    """The windowed scan's time per ``_WINDOW_ELEMENTS``, on the shapes of
    many rows (a block of one row is walked, in no window)."""
    rows = []
    for shape in (shape for shape in ENGINE_SHAPES if shape[1] > 1):
        run, median_s = _engine(*shape), {}
        for value in WINDOW_ELEMENTS:
            with _forced(protocol, "_WINDOW_ELEMENTS", value):
                median_s[value] = _median_s(run, repeats)
        best = min(median_s, key=median_s.get)
        rows.append({**dict(zip(SETTINGS, shape)), "median_s": median_s, "best": best})
    return {"window_elements": protocol._WINDOW_ELEMENTS, "table": rows}


def _key(entry: dict) -> tuple:
    return (entry["layer"],) + tuple(entry.get(k) for k in SETTINGS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--before", help="this script's JSON from another revision, to compare with")
    args = parser.parse_args(argv)
    entries = _layers(args.repeats)
    if args.before:
        with open(args.before) as fp:
            before = {_key(e): e for e in json.load(fp)["layers"]}
        for entry in entries:
            old = before.get(_key(entry))
            if old:
                entry["before_s"] = old["median_s"]
                entry["speedup"] = round(entry["before_s"] / entry["median_s"], 2)
                entry["before_peak_mb"] = old["peak_mb"]
    report = {
        "machine": _machine(),
        "repeats": args.repeats,
        "layers": entries,
        "crossover": _crossover(args.repeats),
        "window_grid": _window_grid(args.repeats),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
