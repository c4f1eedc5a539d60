"""Fine Lüders engine timings: ``protocol._fine_outcomes`` at the shapes the
commands run it, and the two layers around it in ``qndsim survival``:
``stats.estimate_survival`` and ``protocol._uniforms``.

Run from a checkout (any revision with ``protocol._fine_outcomes``)::

    PYTHONPATH=src python bench/engine.py [--repeats 7] [--out BENCH_engine.json]
        [--before OTHER.json]

Each timing is the median of ``--repeats`` runs in this process, on inputs
built before the clock starts.  The engine runs ``BLOCK_ROWS`` rows at a
time, as ``run_ensemble`` does, at ``gamma = 1``, ``n_thermal = 0.1``,
``gdt = 0.01`` from level 0.  ``--before`` takes this script's JSON from
another revision (run with that revision's ``src`` on ``PYTHONPATH``) and
adds its timings and the speed-up to each entry.
"""

from __future__ import annotations

import argparse
import json
import sys

from streams import _ensemble_uniforms, _machine, _median_s

from qndsim import protocol, stats
from qndsim.core import bath_from_gamma, build_generator, pure_level
from qndsim.dynamics import transition_matrix
from qndsim.measurement import ProjectorPartition

PARAMS = bath_from_gamma(1.0, 0.1)
DT = 0.01
# (truncation, rows, steps): survival, survival --trunc 1, AC5, dwell --trunc 1
ENGINE_SHAPES = ((40, 25_000, 100), (1, 20_000, 100), (40, 2_000, 1_000), (1, 1, 200_000))
# (truncation, rows, steps) of survival at 25 000 trajectories
SURVIVAL_SHAPE = (40, 25_000, 100)


def _engine(trunc: int, n: int, steps: int):
    tmat = transition_matrix(build_generator(PARAMS, trunc), DT)
    pop = pure_level(0, trunc)
    blocks = [
        protocol._uniforms(0, start, min(protocol.BLOCK_ROWS, n - start), steps)
        for start in range(0, n, protocol.BLOCK_ROWS)
    ]

    def run():
        for uniforms in blocks:
            protocol._fine_outcomes(tmat, pop, uniforms)
    return run


def _survival(trunc: int, n: int, steps: int):
    schedule = protocol.MeasurementSchedule(DT, steps, ProjectorPartition.fine(trunc))
    ensemble = protocol.run_ensemble(PARAMS, schedule, 0, trunc, n, 0)
    return lambda: stats.estimate_survival(ensemble, 0)


def _entries(repeats: int) -> list[dict]:
    _, n, steps = SURVIVAL_SHAPE
    cases = [("fine_outcomes", shape, _engine(*shape)) for shape in ENGINE_SHAPES]
    cases.append(("estimate_survival", SURVIVAL_SHAPE, _survival(*SURVIVAL_SHAPE)))
    cases.append(("uniforms", SURVIVAL_SHAPE, lambda: _ensemble_uniforms(n, steps)))
    return [
        {"layer": layer, "trunc": t, "rows": rows, "steps": s, "median_s": round(_median_s(fn, repeats), 5)}
        for layer, (t, rows, s), fn in cases
    ]


def _key(entry: dict) -> tuple:
    return entry["layer"], entry["trunc"], entry["rows"], entry["steps"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--before", help="this script's JSON from another revision, to compare with")
    args = parser.parse_args(argv)
    entries = _entries(args.repeats)
    if args.before:
        with open(args.before) as fp:
            before = {_key(e): e["median_s"] for e in json.load(fp)["layers"]}
        for entry in entries:
            if _key(entry) in before:
                entry["before_s"] = before[_key(entry)]
                entry["speedup"] = round(entry["before_s"] / entry["median_s"], 2)
    report = {"machine": _machine(), "repeats": args.repeats, "layers": entries}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
