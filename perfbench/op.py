"""One benchmark process: set-up once, then the workload's operation repeatedly.

Sets up as a CLI invocation does (imports qndsim from this checkout's
``src``, builds each part's config, and builds each part's first generator
and transition matrix), then runs the operation until ``--until``, and at
least MIN_OPS times.  With ``--final`` no operation ends after ``--until``;
without it the process stops at the operation end nearest to ``--until``,
and the next process of the run takes up the difference.

An operation runs the ``--parts`` one after another.  Before each operation
the transition cache is put back to its state after set-up, so every
operation starts as a fresh process's first one would.  Each step of a part
is timed on its own; each part's output is checked.  In ``traced`` mode the
layer tracing of ``tracing.py`` is on and each operation's trace is
reported.

The last stdout line is one JSON object; exit code 3 means set-up failed.

    python3 perfbench/op.py --parts ensemble_fine,coarse_loop --seed 0 \
        --size full --mode timed --until <CLOCK_MONOTONIC deadline> \
        --spawn <CLOCK_MONOTONIC time the parent started this>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_OPS = 2


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--parts", required=True, help="comma-separated part names")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--final", action="store_true", help="end no operation after --until")
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--corrupt", metavar="PART", help="corrupt this part's output in the second operation")
    args = parser.parse_args(argv)

    try:
        sys.path.insert(0, str(SRC))
        import qndsim

        if not Path(qndsim.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"qndsim was imported from {qndsim.__file__}, not from {SRC}")
        import tracing
        import workloads

        parts = [workloads.PARTS[name] for name in args.parts.split(",")]
        sizes = [part.sizes[args.size] for part in parts]
        cfgs = [part.make_config(size, args.seed) for part, size in zip(parts, sizes)]
        workloads.warm(cfgs)
    except Exception:
        traceback.print_exc()
        return 3
    result = {
        "setup_s": clock() - args.spawn,
        "outcomes": sum(part.outcomes(cfg, size) for part, cfg, size in zip(parts, cfgs, sizes)),
        "ops": [],
    }

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    while True:
        begun = clock()
        workloads.rewarm(cfgs)
        if tracer is not None:
            tracer.reset()
        cache_before = tracing.cache_counts()
        op = {"steps": [], "laps": []}
        try:
            outputs = []
            for part, cfg, size in zip(parts, cfgs, sizes):
                outputs.append([])
                for label, step in part.steps(cfg, size):
                    start = clock()
                    outputs[-1].append(step())
                    op["laps"].append(clock() - start)
                    op["steps"].append(f"{part.name}.{label}")
        except Exception as exc:
            traceback.print_exc()
            op.update(ok=False, problems=[f"operation raised {type(exc).__name__}: {exc}"])
            result["ops"].append(op)
            break
        if tracer is not None:
            op["trace"] = tracer.report(cache_before)
        problems, digests = [], []
        for part, cfg, part_outputs in zip(parts, cfgs, outputs):
            if args.corrupt == part.name and len(result["ops"]) == 1:
                part_outputs = part.corrupt(part_outputs)
            try:
                digests.append(part.digest(part_outputs))
                found = workloads.problems(part, part_outputs, digests[-1], cfg, args.size)
            except Exception as exc:
                traceback.print_exc()
                found = [f"output check raised {type(exc).__name__}: {exc}"]
            problems += [f"{part.name}: {problem}" for problem in found]
        del outputs, part_outputs
        op["digest"] = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        op.update(ok=not problems, problems=problems)
        result["ops"].append(op)
        next_s = clock() - begun
        if len(result["ops"]) >= MIN_OPS and clock() + next_s * (1.0 if args.final else 0.5) > args.until:
            break
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
