"""Outside-in layer tracing for the benchmark's traced runs.

Wraps public names of qndsim's modules from outside the package, so nothing
under ``src/`` changes.  ``from .x import y`` copies a binding into the
importing module, so a function's wrapper replaces every binding of that
function object in every loaded qndsim module.  A class is never replaced,
because callers test ``isinstance`` against it; its ``__init__`` is wrapped
in place instead, which times construction.

Each wrapped name accumulates its call count, inclusive seconds, and self
seconds (inclusive minus the time of wrapped calls made inside it).  The
operation runs single-threaded, so one stack of open calls is enough.
"""

from __future__ import annotations

import functools
import sys
import time

# Names timed as call count plus self seconds.
SELF_TIMED = (
    "protocol.trajectory_rng",
    "protocol.MeasurementRecord",
    "protocol.run_ensemble",
    "protocol.run_trajectory_luders",
    "protocol.run_trajectory_gillespie",
    "measurement.sample_outcome",
    "measurement.luders_collapse",
    "dynamics.propagate",
    "dynamics.transition_matrix",
    "core.build_generator",
    "stats.estimate_survival",
    "stats.fit_decay",
    "stats.dwell_statistics",
    "stats.ks_distance",
    "cli.cmd_survival",
    "cli.cmd_dwell",
)
# Names timed as inclusive seconds.
INCLUSIVE = tuple(f"validation.check_ac{i}" for i in range(1, 8))

# (name, unit, better) of every metric a traced run reports.
PER_LAYER_METRICS = (
    [(f"{n}.calls", "count", "lower") for n in SELF_TIMED]
    + [(f"{n}.self_s", "s", "lower") for n in SELF_TIMED]
    + [(f"{n}.incl_s", "s", "lower") for n in INCLUSIVE]
    + [
        ("dynamics.cache_hit_ratio", "ratio", "higher"),
        ("dynamics.cache_lookups", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.absent", "count", "lower"),
    ]
)

CACHED_TRANSITION = "dynamics._cached_transition"


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.absent: list[str] = []
        self._open: list[list[float]] = []  # child seconds of each open call

    def _wrap(self, totals: list, fn):
        open_calls = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_calls.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_calls.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children[0]
                if open_calls:
                    open_calls[-1][0] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every name of SELF_TIMED and INCLUSIVE in the loaded package.

        A name that no longer exists is recorded as absent, with no calls.
        """
        modules = [m for n, m in sys.modules.items() if n == "qndsim" or n.startswith("qndsim.")]
        for name in SELF_TIMED + INCLUSIVE:
            totals = self.totals[name] = [0, 0.0, 0.0]
            original = _lookup(name)
            if not callable(original):
                self.absent.append(name)
            elif isinstance(original, type):
                original.__init__ = self._wrap(totals, original.__init__)
            else:
                traced = self._wrap(totals, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def reset(self) -> None:
        """Zero every total, to trace the next operation on its own."""
        for totals in self.totals.values():
            totals[:] = [0, 0.0, 0.0]

    def report(self, cache_before: tuple[int, int] | None) -> dict:
        """Totals, absent names, and the transition cache's hits and misses
        since ``cache_before`` (None if the cache no longer exists)."""
        after = cache_counts()
        cache = None
        if cache_before is not None and after is not None:
            cache = [after[0] - cache_before[0], after[1] - cache_before[1]]
        absent = self.absent + ([] if cache is not None else [CACHED_TRANSITION])
        totals = {name: list(values) for name, values in self.totals.items()}
        return {"totals": totals, "absent": absent, "cache": cache}


def _lookup(name: str):
    module_name, attr = name.rsplit(".", 1)
    module = sys.modules.get(f"qndsim.{module_name}")
    return getattr(module, attr, None)


def cache_counts() -> tuple[int, int] | None:
    """(hits, misses) of the transition-matrix cache, or None if it is gone."""
    info = getattr(_lookup(CACHED_TRANSITION), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses
