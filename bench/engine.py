"""Engine and reduction timings: ``protocol._fine_outcomes`` at the shapes the
commands run it, the jump engine, and the layers around them:
``stats.estimate_survival``, ``stats.dwell_statistics`` and
``protocol._uniforms``.

Run from a checkout (any revision with ``protocol._fine_outcomes``)::

    PYTHONPATH=src python bench/engine.py [--repeats 7] [--out BENCH_engine.json]
        [--before OTHER.json]

Each timing is the median of ``--repeats`` runs in this process, on inputs
built before the clock starts; ``peak_mb`` is the ``tracemalloc`` peak of
one more run (numpy reports its buffers to ``tracemalloc``), in 1e6 bytes.
The fine engine runs rows in blocks cut as ``run_ensemble`` cuts them, at
``gamma = 1`` from level 0: at the commands' defaults (``n_thermal = 0.1``,
``gdt = 0.01``, where about 9 in 10 rows never leave their first level) and at
settings where readouts often leave (0.42 to 0.45 leaves per readout at
``n_thermal = 2``, ``gdt = 0.1``; 0.11 at ``gdt = 1``); every other layer
runs at the defaults.
``jump_engine`` is ``run_ensemble`` with the Gillespie engine: path draws
and readout.  ``--before`` takes this script's JSON from another revision
(run with that revision's ``src`` on ``PYTHONPATH``) and adds its numbers
and the speed-up to each entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc

from streams import _block_rows, _ensemble_uniforms, _machine, _median_s

from qndsim import protocol, stats
from qndsim.core import bath_from_gamma, build_generator, pure_level
from qndsim.dynamics import transition_matrix
from qndsim.measurement import ProjectorPartition

N_THERMAL = 0.1
PARAMS = bath_from_gamma(1.0, N_THERMAL)
DT = 0.01
# (truncation, rows, steps, n_thermal, gdt): survival, survival --trunc 1, AC5,
# dwell --trunc 1; then with frequent leaves: survival --n-thermal 2 --gdt 0.1
# --horizon 10 in one block, AC5's blocks at those settings, dwell --trunc 1 --gdt 1
ENGINE_SHAPES = (
    (40, 25_000, 100, N_THERMAL, DT), (1, 20_000, 100, N_THERMAL, DT),
    (40, 2_000, 1_000, N_THERMAL, DT), (1, 1, 200_000, N_THERMAL, DT),
    (40, 4_096, 100, 2.0, 0.1), (40, 2_000, 1_000, 2.0, 0.1), (1, 1, 200_000, N_THERMAL, 1.0),
)
# (truncation, rows, steps) of survival at 25 000 trajectories
SURVIVAL_SHAPE = (40, 25_000, 100)
# AC4 and dwell --engine gillespie, then AC5
JUMP_SHAPES = ((1, 1, 4_000_000), (40, 2_000, 1_000))
DWELL_SHAPE = (1, 1, 4_000_000)


def _engine(trunc: int, n: int, steps: int, n_thermal: float, gdt: float):
    tmat = transition_matrix(build_generator(bath_from_gamma(1.0, n_thermal), trunc), gdt)
    pop = pure_level(0, trunc)
    rows = _block_rows(steps)
    blocks = [protocol._uniforms(0, start, min(rows, n - start), steps) for start in range(0, n, rows)]

    def run():
        for uniforms in blocks:
            protocol._fine_outcomes(tmat, pop, uniforms)
    return run


def _ensemble(trunc: int, n: int, steps: int, engine: str = "luders"):
    schedule = protocol.MeasurementSchedule(DT, steps, ProjectorPartition.fine(trunc))
    return lambda: protocol.run_ensemble(PARAMS, schedule, 0, trunc, n, 0, engine=engine)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _entries(repeats: int) -> list[dict]:
    _, n, steps = SURVIVAL_SHAPE
    survival = _ensemble(*SURVIVAL_SHAPE)()
    record = _ensemble(*DWELL_SHAPE, engine="gillespie")()
    defaults = (N_THERMAL, DT)
    cases = [("fine_outcomes", shape, _engine(*shape)) for shape in ENGINE_SHAPES]
    cases += [
        ("jump_engine", shape + defaults, _ensemble(*shape, engine="gillespie")) for shape in JUMP_SHAPES
    ]
    cases.append(("estimate_survival", SURVIVAL_SHAPE + defaults, lambda: stats.estimate_survival(survival, 0)))
    cases.append(("dwell_statistics", DWELL_SHAPE + defaults, lambda: stats.dwell_statistics(record)))
    cases.append(("uniforms", SURVIVAL_SHAPE + defaults, lambda: _ensemble_uniforms(n, steps)))
    return [
        {
            "layer": layer, "trunc": t, "rows": rows, "steps": s, "n_thermal": nth, "gdt": gdt,
            "median_s": round(_median_s(fn, repeats), 5), "peak_mb": round(_peak_mb(fn), 2),
        }
        for layer, (t, rows, s, nth, gdt), fn in cases
    ]


def _key(entry: dict) -> tuple:
    # JSON written before the settings were recorded ran every layer at the defaults
    settings = entry.get("n_thermal", N_THERMAL), entry.get("gdt", DT)
    return (entry["layer"], entry["trunc"], entry["rows"], entry["steps"]) + settings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--before", help="this script's JSON from another revision, to compare with")
    args = parser.parse_args(argv)
    entries = _entries(args.repeats)
    if args.before:
        with open(args.before) as fp:
            before = {_key(e): e for e in json.load(fp)["layers"]}
        for entry in entries:
            old = before.get(_key(entry))
            if old:
                entry["before_s"] = old["median_s"]
                entry["speedup"] = round(entry["before_s"] / entry["median_s"], 2)
                if "peak_mb" in old:
                    entry["before_peak_mb"] = old["peak_mb"]
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
