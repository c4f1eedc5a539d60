"""Stream-derivation timings: ``protocol._uniforms`` at the shapes the
engines draw, and the step count where the numpy PCG64 draw stops beating
the per-row Generator.

Run from a checkout (any revision with ``protocol._uniforms``)::

    PYTHONPATH=src python bench/streams.py [--repeats 7] [--out BENCH_streams.json]

Each timing is the median of ``--repeats`` runs in this process.  Ensembles
are drawn the way ``run_ensemble`` draws them, in blocks of ``BLOCK_ROWS`` rows
(fewer for rows longer than ``VECTOR_STEPS``).
The crossover part needs ``protocol.VECTOR_STEPS`` and is skipped without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from qndsim import protocol

SHAPES = ((25_000, 100), (20_000, 100), (200, 100), (2_000, 1_000), (1, 200_000))
CROSSOVER_ROWS = 4096
CROSSOVER_STEPS = (50, 100, 150, 175, 192, 200, 225, 250, 300, 500, 1000)


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _block_rows(steps: int) -> int:
    """Rows per block as ``run_ensemble`` cuts them: ``BLOCK_ROWS`` at
    revisions without ``protocol._block_rows``."""
    block_rows = getattr(protocol, "_block_rows", None)
    return block_rows(steps) if block_rows else protocol.BLOCK_ROWS


def _ensemble_uniforms(n: int, steps: int) -> None:
    rows = _block_rows(steps)
    for start in range(0, n, rows):
        protocol._uniforms(0, start, min(rows, n - start), steps)


def _forced(vector_steps: int, steps: int):
    def draw():
        saved, protocol.VECTOR_STEPS = protocol.VECTOR_STEPS, vector_steps
        try:
            protocol._uniforms(0, 0, CROSSOVER_ROWS, steps)
        finally:
            protocol.VECTOR_STEPS = saved
    return draw


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    report = {"machine": _machine(), "repeats": args.repeats, "uniforms_s": [], "crossover": None}
    for n, steps in SHAPES:
        seconds = _median_s(lambda: _ensemble_uniforms(n, steps), args.repeats)
        report["uniforms_s"].append({"rows": n, "steps": steps, "median_s": round(seconds, 5)})
    if hasattr(protocol, "VECTOR_STEPS"):
        rows = []
        for steps in CROSSOVER_STEPS:
            vector = _median_s(_forced(sys.maxsize, steps), args.repeats)
            generator = _median_s(_forced(0, steps), args.repeats)
            rows.append({"steps": steps, "vector_s": round(vector, 5), "generator_s": round(generator, 5)})
        wins = [r["steps"] for r in rows if r["vector_s"] < r["generator_s"]]
        report["crossover"] = {
            "rows": CROSSOVER_ROWS,
            "vector_steps": protocol.VECTOR_STEPS,
            "largest_step_count_where_vector_wins": max(wins, default=None),
            "table": rows,
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
