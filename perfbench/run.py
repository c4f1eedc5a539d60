"""qndsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  A run starts PROCESSES operation processes (``op.py``)
one after another, each with about an equal share of ``--seconds``, and
waits for each.  A process sets up once, as a CLI invocation does, and then
runs the operation again and again until its share has passed: a closed
loop with one client.  An operation runs the workload's parts (WORKLOADS)
in turn; each step of a part is timed on its own.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one operation, the sum over its steps of the
  median time of that step over all operations of the run;
* ``outcomes_per_s``: measurement outcomes of one operation over ``wall_s``;
* ``setup_s``: median over the processes of the time from starting the
  process until the first operation can begin;
* ``peak_rss_mb``: median peak resident memory of the processes.

``--trace 1`` runs an untraced process and then a traced one, and reports
the per-layer metrics of ``tracing.PER_LAYER_METRICS``: call counts and
median self seconds of the traced operations, and the tracing overhead
(traced minus untraced ``wall_s``).

Failures are counted, never measured: ``attempted`` and ``failed`` in the
result line count operations, and their ratio is the benchmark's
``failed_frac``.  An operation fails if it raises, if its output check fails,
or if its output differs from the first operation's at the same seed.

The last stdout line is the JSON result.  With no program to run, or if
set-up fails, the benchmark exits 2 and prints no result.
``--size tiny`` and ``--corrupt`` are for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each workload's operation runs these parts of workloads.py in turn.
WORKLOADS = {
    "ensembles": ("ensemble_fine", "coarse_loop"),
    "record_validate": ("long_record", "acceptance"),
}
PROCESSES = 3
DEADLINE_S = 170.0  # a run must be over within 180 s


class SetupFailed(Exception):
    """The program could not be imported or set up at all."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = clock()

    def process(self, mode: str, share_end: float, corrupt: str | None = None) -> dict:
        """Run one operation process until ``share_end`` of ``--seconds``
        has passed (the last process of a run has ``share_end`` 1), and
        return its report."""
        timeout = DEADLINE_S - (clock() - self.start)
        if timeout <= 0.0:
            return {"ops": [{"ok": False, "problems": ["no time left before the deadline"]}]}
        until = self.start + min(share_end * self.args.seconds, DEADLINE_S - 10.0)
        cmd = [
            sys.executable, str(HERE / "op.py"),
            "--parts", ",".join(WORKLOADS[self.args.workload]),
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--mode", mode,
            "--until", repr(until),
        ] + (["--final"] if share_end >= 1.0 else []) + (["--corrupt", corrupt] if corrupt else [])
        try:
            proc = subprocess.run(
                cmd + ["--spawn", repr(clock())],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"ops": [{"ok": False, "problems": [f"{mode} process timed out after {timeout:.0f} s"]}]}
        if proc.returncode == 3:
            raise SetupFailed(proc.stderr.strip())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problem = f"process exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            return {"ops": [{"ok": False, "problems": [problem]}]}
        report = json.loads(lines[-1])
        for op in report["ops"]:
            if op.get("problems"):
                print(f"# {mode} operation failed: {'; '.join(op['problems'])[:2000]}", file=sys.stderr)
        return report


def _mark_divergent(ops: list[dict]) -> None:
    """Fail every operation whose output differs from the first one's."""
    digests = [op.get("digest") for op in ops]
    reference = digests[0]
    for op, digest in zip(ops, digests):
        if digest is not None and reference is not None and digest != reference:
            op["ok"] = False
            op.setdefault("problems", []).append("output differs from the first operation at this seed")


def _wall(reports: list[dict], label: str) -> float:
    """Sum over the steps of an operation of each step's median time."""
    ops = [op for report in reports for op in report["ops"] if "digest" in op]
    if not ops:
        raise SetupFailed("no operation produced a timing")
    medians = [statistics.median(step) for step in zip(*(op["laps"] for op in ops))]
    print(f"# {label} wall_s over {len(ops)} operations: {sum(medians):.4f} s, the sum of step medians:")
    for step, median in zip(ops[0]["steps"], medians):
        print(f"#   {step:<34} {median:.4f} s")
    return sum(medians)


def _ops(reports: list[dict]) -> list[dict]:
    ops = [op for report in reports for op in report["ops"]]
    _mark_divergent(ops)
    return ops


def end_to_end(runner: Runner) -> tuple[list[dict], dict]:
    reports = [
        runner.process("timed", (i + 1) / PROCESSES, runner.args.corrupt if i == 0 else None)
        for i in range(PROCESSES)
    ]
    ops = _ops(reports)
    setups = [r["setup_s"] for r in reports if "setup_s" in r]
    if not setups:
        raise SetupFailed("no process finished its set-up")
    wall = _wall(reports, "untraced")
    setups_text = " ".join(f"{s:.3f}" for s in setups)
    print(f"# setup_s median of {len(setups)} processes: {statistics.median(setups):.4f} s ({setups_text})")
    outcomes = next(r["outcomes"] for r in reports if "outcomes" in r)
    metrics = {
        "wall_s": (wall, "s"),
        "outcomes_per_s": (outcomes / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports if "rss_mb" in r), "MB"),
    }
    return ops, metrics


def per_layer(runner: Runner) -> tuple[list[dict], dict]:
    plain = runner.process("timed", 0.5)
    traced = runner.process("traced", 1.0)
    ops = _ops([plain, traced])
    overhead = _wall([traced], "traced") - _wall([plain], "untraced")
    reports = [op["trace"] for op in traced["ops"] if "trace" in op]

    def median_total(name: str, index: int) -> float:
        return statistics.median(report["totals"][name][index] for report in reports)

    last = reports[-1]
    hits, misses = last["cache"] or (0, 0)
    lookups = hits + misses
    values = {f"{n}.calls": last["totals"][n][0] for n in tracing.SELF_TIMED}
    values |= {f"{n}.self_s": median_total(n, 2) for n in tracing.SELF_TIMED}
    values |= {f"{n}.incl_s": median_total(n, 1) for n in tracing.INCLUSIVE}
    values |= {
        "dynamics.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "dynamics.cache_lookups": lookups,
        "trace.overhead_s": overhead,
        "trace.absent": len(last["absent"]),
    }
    if last["absent"]:
        print(f"# absent, reported with no calls: {' '.join(last['absent'])}")
    print(f"# tracing overhead {overhead:.4f} s over {len(reports)} traced operations")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
    return ops, {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--corrupt", metavar="PART", choices=[p for parts in WORKLOADS.values() for p in parts],
        help="corrupt this part's output in one operation",
    )
    args = parser.parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills the running
    # operation process and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "qndsim" / "__init__.py").is_file():
        print(f"error: no qndsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        ops, metrics = (per_layer if args.trace else end_to_end)(runner)
    except SetupFailed as exc:
        print(f"error: set-up failed:\n{exc}", file=sys.stderr)
        return 2
    failed = sum(not op["ok"] for op in ops)
    attempted = len(ops)
    print(f"# failed_frac = {failed}/{attempted} = {failed / attempted:g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
