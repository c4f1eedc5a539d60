"""The four parts the benchmark's workloads are made of, and their output checks.

A workload's operation runs its parts one after another (``run.py`` names
the parts of each workload).  A part is a list of labelled steps, timed one
by one; its output is the list of the steps' results.

Imported only inside an operation's process (``op.py``), after ``src`` is on
``sys.path``.  Every call into qndsim goes through a
module attribute looked up when the step runs (``cli.cmd_survival``, not a
copied name), so that the wrappers installed by ``tracing.py`` see it.

Sizes come in two scales: ``full`` is what the benchmark measures, ``tiny``
is for ``selftest.py``.  Output digests are pinned for seed 0 only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qndsim import cli, config, core, dynamics, measurement, protocol, validation

# sha256 of the output at seed 0, per (workload, size).  These are the byte-
# identical CSVs of ROADMAP aim 2; coarse_loop is not pinned, because its
# outputs may change at the ulp level under a batched measurement engine.
PINNED_DIGESTS = {
    ("ensemble_fine", "full"): "b5220e50fde317a3f169d9482a53388d0f2259037dca4fdb7d3a89e614321c08",
    ("ensemble_fine", "tiny"): "d3951391ab7bd7a36aa3810fab0db0a6aeb9858e332e0b2356b5b8afb1da5e49",
    ("long_record", "full"): "3a02e3579b775aa671a8c7417e6f5881c0bfba8b4b7ba93bdc26e00a7a8c59ab",
    ("long_record", "tiny"): "808a9fb2706b71552c92b083f0ff6ce27630830f0b27c6d165f4620a8a2a4273",
}

SIGMAS = 5.0            # statistical checks allow this many standard errors
DWELL_TOLERANCE = 0.01  # AC4's band on the long-record dwell fraction


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bump_last_digit(text: str) -> str:
    """Change the last digit of ``text``: a one-character output corruption."""
    match = list(re.finditer(r"\d", text))[-1]
    i = match.start()
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _csv_rows(csv: str) -> list[list[float]]:
    lines = [line for line in csv.splitlines() if line and not line.startswith("#")]
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _exact_matrix(cfg: config.RunConfig) -> np.ndarray:
    return dynamics.transition_matrix(core.build_generator(cfg.bath(), cfg.trunc), cfg.dt)


def _pin_problems(name: str, size: str, seed: int, digest: str) -> list[str]:
    pinned = PINNED_DIGESTS.get((name, size))
    if seed == 0 and pinned is not None and digest != pinned:
        return [f"output sha256 {digest} differs from the digest pinned for seed 0"]
    return []


def outcome_matrix(ensemble) -> np.ndarray:
    """Outcomes as an ``(n_traj, steps)`` array.

    Accepts a list of records with 1-D ``outcomes`` and also one object whose
    ``outcomes`` attribute is already the 2-D array.
    """
    outcomes = getattr(ensemble, "outcomes", None)
    if outcomes is not None and np.ndim(outcomes) == 2:
        return np.asarray(outcomes)
    return np.stack([np.asarray(record.outcomes) for record in ensemble])


@dataclass(frozen=True)
class Part:
    name: str
    sizes: dict[str, dict[str, Any]]
    make_config: Callable[[dict[str, Any], int], config.RunConfig]
    steps: Callable[[config.RunConfig, dict[str, Any]], list[tuple[str, Callable[[], Any]]]]
    outcomes: Callable[[config.RunConfig, dict[str, Any]], int]
    digest: Callable[[list], str]
    check: Callable[[list, config.RunConfig, dict[str, Any]], list[str]]
    corrupt: Callable[[list], list]


# ensemble_fine: cli.cmd_survival at the RunConfig defaults.

def _fine_check(outputs: list[str], cfg: config.RunConfig, size: dict) -> list[str]:
    rows = _csv_rows(outputs[0])
    if len(rows) != cfg.steps:
        return [f"{len(rows)} CSV rows, expected {cfg.steps}"]
    t00 = float(_exact_matrix(cfg)[0, 0])
    problems = []
    for k, row in enumerate(rows, start=1):
        p_mc = row[4]
        exact = t00**k  # survival in level 0 for k readouts: T_00^k
        sigma = math.sqrt(exact * (1.0 - exact) / cfg.traj)
        if abs(p_mc - exact) > SIGMAS * sigma:
            problems.append(f"step {k}: p_mc = {p_mc!r}, exact T_00^k = {exact!r}, sigma = {sigma:.3g}")
    return problems


ENSEMBLE_FINE = Part(
    name="ensemble_fine",
    sizes={"full": {"traj": 25_000, "horizon": 1.0}, "tiny": {"traj": 2_000, "horizon": 0.2}},
    make_config=lambda size, seed: config.RunConfig(seed=seed, traj=size["traj"], horizon=size["horizon"]),
    steps=lambda cfg, size: [("cmd_survival", lambda: cli.cmd_survival(cfg))],
    outcomes=lambda cfg, size: cfg.traj * cfg.steps,
    digest=lambda outputs: _sha(outputs[0]),
    check=_fine_check,
    corrupt=lambda outputs: [_bump_last_digit(outputs[0])],
)


# coarse_loop: protocol.run_ensemble with the partition {0} | {1..trunc}.

def _coarse_run(cfg: config.RunConfig, size: dict):
    partition = measurement.ProjectorPartition(
        cfg.trunc, ((0,), tuple(range(1, cfg.trunc + 1)))
    )
    schedule = protocol.MeasurementSchedule(cfg.dt, cfg.steps, partition)
    return protocol.run_ensemble(cfg.bath(), schedule, 0, cfg.trunc, cfg.traj, cfg.seed)


def _coarse_digest(outputs: list) -> str:
    outcomes = outcome_matrix(outputs[0])
    return hashlib.sha256(
        repr(outcomes.shape).encode() + outcomes.astype("<i8").tobytes()
    ).hexdigest()


def _coarse_check(outputs: list, cfg: config.RunConfig, size: dict) -> list[str]:
    outcomes = outcome_matrix(outputs[0])
    if outcomes.shape != (cfg.traj, cfg.steps):
        return [f"outcome array shape {outcomes.shape}, expected {(cfg.traj, cfg.steps)}"]
    if not np.isin(outcomes, (0, 1)).all():
        return ["outcome outside bins {0, 1}"]
    # Averaged over outcomes, a Lüders update of a diagonal state returns the
    # relaxed state, so the unconditioned state after m steps is T^m e_0 and
    # the bin-0 marginal at step m is exactly (T^m e_0)[0].
    tmat = _exact_matrix(cfg)
    state = np.zeros(cfg.trunc + 1)
    state[0] = 1.0
    problems = []
    for m in range(1, cfg.steps + 1):
        state = tmat @ state
        exact = float(state[0])
        freq = float(np.mean(outcomes[:, m - 1] == 0))
        sigma = math.sqrt(exact * (1.0 - exact) / cfg.traj)
        if abs(freq - exact) > SIGMAS * sigma:
            problems.append(f"step {m}: bin-0 frequency {freq!r}, exact {exact!r}, sigma = {sigma:.3g}")
    return problems


def _coarse_corrupt(outputs: list) -> list[np.ndarray]:
    outcomes = outcome_matrix(outputs[0]).copy()
    outcomes[0, 0] = 1 - outcomes[0, 0]
    return [outcomes]


COARSE_LOOP = Part(
    name="coarse_loop",
    sizes={"full": {"traj": 200, "horizon": 1.0}, "tiny": {"traj": 50, "horizon": 0.2}},
    make_config=lambda size, seed: config.RunConfig(seed=seed, traj=size["traj"], horizon=size["horizon"]),
    steps=lambda cfg, size: [("run_ensemble", lambda: _coarse_run(cfg, size))],
    outcomes=lambda cfg, size: cfg.traj * cfg.steps,
    digest=_coarse_digest,
    check=_coarse_check,
    corrupt=_coarse_corrupt,
)


# long_record: cli.cmd_dwell at trunc=1, Lüders then Gillespie.

def _dwell_configs(cfg: config.RunConfig, size: dict) -> list[config.RunConfig]:
    return [
        dataclasses.replace(cfg, traj=size["luders_steps"], engine="luders"),
        dataclasses.replace(cfg, traj=size["gillespie_steps"], engine="gillespie"),
    ]


def _dwell_steps(cfg: config.RunConfig, size: dict) -> list[tuple[str, Callable[[], str]]]:
    return [(f"cmd_dwell_{c.engine}", lambda c=c: cli.cmd_dwell(c)[1]) for c in _dwell_configs(cfg, size)]


def _dwell_check(csvs: list[str], cfg: config.RunConfig, size: dict) -> list[str]:
    params = cfg.bath()
    pi1 = params.emission_rate / (params.emission_rate + params.absorption_rate)
    # Standard error of a time average over n readouts of the two-state
    # readout chain T: var = pi0*pi1*(1+lam)/((1-lam)*n), lam = 1 - T10 - T01.
    tmat = _exact_matrix(cfg)
    lam = 1.0 - tmat[1, 0] - tmat[0, 1]
    problems = []
    for run_cfg, csv in zip(_dwell_configs(cfg, size), csvs):
        rows = _csv_rows(csv)
        if len(rows) != 1:
            problems.append(f"{run_cfg.engine}: {len(rows)} CSV rows, expected 1")
            continue
        fraction = rows[0][0]
        sigma = math.sqrt(pi1 * (1.0 - pi1) * (1.0 + lam) / ((1.0 - lam) * run_cfg.traj))
        tol = max(DWELL_TOLERANCE, SIGMAS * sigma)
        if abs(fraction - pi1) > tol:
            problems.append(f"{run_cfg.engine}: fraction_1 = {fraction!r}, pi1 = {pi1!r}, tolerance {tol:.3g}")
    return problems


LONG_RECORD = Part(
    name="long_record",
    sizes={
        "full": {"luders_steps": 200_000, "gillespie_steps": 4_000_000},
        "tiny": {"luders_steps": 20_000, "gillespie_steps": 100_000},
    },
    make_config=lambda size, seed: config.RunConfig(seed=seed, trunc=1),
    steps=_dwell_steps,
    outcomes=lambda cfg, size: size["luders_steps"] + size["gillespie_steps"],
    digest=lambda csvs: _sha("".join(csvs)),
    check=_dwell_check,
    corrupt=lambda csvs: csvs[:-1] + [_bump_last_digit(csvs[-1])],
)


# acceptance: validation criteria on one shared context, as run_all does.
# It always runs at seed 0, the seed of `qndsim validate` and the test suite.

def _acceptance_steps(cfg: config.RunConfig, size: dict) -> list[tuple[str, Callable[[], Any]]]:
    shared = validation._Shared(cfg)
    return [
        (f"ac{i}", lambda i=i: getattr(validation, f"check_ac{i}")(shared)) for i in size["criteria"]
    ]


def _acceptance_outcomes(cfg: config.RunConfig, size: dict) -> int:
    per_criterion = {
        2: cfg.traj * cfg.steps,  # two-level ensemble from level 0, reused by AC3
        3: cfg.traj * cfg.steps,  # two-level ensemble from level 1
        4: 4_000_000,             # one Gillespie record
        5: 2 * 2_000 * 1_000,     # Lüders and Gillespie ensembles
    }
    return sum(per_criterion.get(i, 0) for i in size["criteria"])


ACCEPTANCE = Part(
    name="acceptance",
    sizes={
        "full": {"traj": 20_000, "criteria": (1, 2, 3, 4, 5, 6, 7)},
        "tiny": {"traj": 20_000, "criteria": (1, 4, 6, 7)},
    },
    make_config=lambda size, seed: config.RunConfig(traj=size["traj"]),
    steps=_acceptance_steps,
    outcomes=_acceptance_outcomes,
    digest=lambda results: _sha(validation.render_results(results)),
    check=lambda results, cfg, size: [f"{r.label}: FAIL" for r in results if not r.passed],
    corrupt=lambda results: [dataclasses.replace(results[0], passed=False)] + results[1:],
)


PARTS = {part.name: part for part in (ENSEMBLE_FINE, COARSE_LOOP, LONG_RECORD, ACCEPTANCE)}


def warm(cfgs: list[config.RunConfig]) -> None:
    """The first generator and transition-matrix build of each part, which
    set-up includes."""
    for cfg in cfgs:
        _exact_matrix(cfg)


def rewarm(cfgs: list[config.RunConfig]) -> None:
    """Return the transition cache to its state after set-up.

    An operation process runs the operation several times; this makes each
    run start from the cache a fresh process's first run would see.
    """
    clear = getattr(getattr(dynamics, "_cached_transition", None), "cache_clear", None)
    if clear is not None:
        clear()
    warm(cfgs)


def problems(part: Part, outputs: list, digest: str, cfg: config.RunConfig, size_name: str) -> list[str]:
    """Everything wrong with one part's outputs, whose digest is given."""
    found = _pin_problems(part.name, size_name, cfg.seed, digest)
    return found + part.check(outputs, cfg, part.sizes[size_name])
