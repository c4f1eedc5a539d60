"""Quick self-test of the benchmark at tiny sizes (about a minute and a half).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it checks that timed and traced runs
succeed with no failed operation and print exactly the metrics that
BENCHMARK.json names, with their units, and that a corrupted output of each
part (one flipped outcome, a changed CSV digit, or a criterion turned to
FAIL) makes failed_frac non-zero.  Exits 0 if every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in expected.items():
            result = run(workload, "--trace", trace)
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            check(units == names, f"{workload} --trace {trace}: metric names and units")
            check(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{workload} --trace {trace}: every value is a number",
            )
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                f"{workload} --trace {trace}: failed_frac = 0 over {result['attempted']} operations",
            )
        for part in WORKLOADS[workload]:
            corrupted = run(workload, "--corrupt", part)
            check(
                corrupted["failed"] / corrupted["attempted"] > 0 and not corrupted["correct"],
                f"{workload}: a corrupted {part} output gives failed_frac = "
                f"{corrupted['failed']}/{corrupted['attempted']}",
            )
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
