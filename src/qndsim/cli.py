"""Command-line front end.

Subcommands: thermal, relax, survival, dwell, zeno, validate.  Each command
echoes its configuration (and the random-stream derivation) as ``#``-prefixed
metadata lines ahead of any CSV header, and formats numbers with the shortest
round-trip decimal representation so identical runs produce byte-identical
output.  Exit codes: 0 success, 1 usage/configuration error, 2 validation or
statistical failure (a failed criterion, a decay fit that fails, or a sampled
outcome of zero probability).  Any other exception is a bug and propagates
with its traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import __version__
from .config import ENGINES, MODES, ConfigError, RunConfig, load_config
from .core import build_generator, mean_photon, pure_level, thermal_populations
from .dynamics import (
    ZENO_SWEEP,
    ZenoDomainWarning,
    mean_relaxation,
    survival_exponential,
    survival_product,
    transition_matrix,
    zeno_times,
)
from .measurement import ProjectorPartition, ZeroProbabilityError
from .protocol import MeasurementSchedule, run_ensemble
from .stats import (
    FitError,
    dwell_statistics,
    estimate_survival,
    fit_decay,
    fit_level1_product,
    two_level_curve,
)
from .streams import SEED_DERIVATION


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _metadata(config: RunConfig, command: str) -> list[str]:
    echo = " ".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config) if f.name != "out")
    return [
        f"# qndsim {__version__}",
        f"# command: {command}",
        f"# config: {echo}",
        f"# streams: {SEED_DERIVATION}",
    ]


def _csv(config: RunConfig, command: str, header: str, rows) -> str:
    lines = _metadata(config, command)
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_thermal(config: RunConfig) -> str:
    params = config.bath()
    pops = thermal_populations(params, config.trunc)
    lines = _metadata(config, "thermal")
    lines += [
        f"n_thermal = {_fmt(params.n_thermal)}",
        f"boltzmann_ratio = {_fmt(params.boltzmann_ratio)}",
        f"B_e = {_fmt(params.emission_rate)}",
        f"B_a = {_fmt(params.absorption_rate)}",
        f"gamma = {_fmt(params.gamma)}",
        f"mean_photon = {_fmt(mean_photon(pops))}",
        "level,weight",
    ]
    lines += [f"{n},{_fmt(w)}" for n, w in enumerate(pops.weights)]
    return "\n".join(lines) + "\n"


def cmd_relax(config: RunConfig) -> str:
    params = config.bath()
    gen = build_generator(params, config.trunc)
    tmat = transition_matrix(gen, config.dt)
    weights = pure_level(0, config.trunc).weights
    rows = []
    for k in range(config.steps + 1):
        t = k * config.dt
        analytic = mean_relaxation(params, 0.0, t)
        numeric = float(np.arange(weights.size) @ weights)
        rows.append((k * config.gdt, analytic, numeric, abs(numeric - analytic)))
        weights = tmat @ weights
    return _csv(config, "relax", "gamma_t,nbar_analytic,nbar_numeric,abs_error", rows)


def cmd_survival(config: RunConfig) -> str:
    params = config.bath()
    schedule = MeasurementSchedule(config.dt, config.steps, ProjectorPartition.fine(config.trunc))
    ensemble = run_ensemble(
        params, schedule, 0, config.trunc, config.traj, config.seed, engine=config.engine
    )
    curve = estimate_survival(ensemble, 0)
    rows = []
    for k in range(1, config.steps + 1):
        t = k * config.dt
        rows.append(
            (
                k * config.gdt,
                survival_product(params, 0, config.dt, k),
                survival_exponential(params, 0, t),
                math.exp(-params.emission_rate * t),
                curve.survival[k],
                curve.stderr[k],
            )
        )
    header = "gamma_t,p_product_eq26,p_exponential_eq29,p_exact_chain,p_mc,mc_stderr"
    return _csv(config, "survival", header, rows)


def cmd_dwell(config: RunConfig) -> tuple[str, str]:
    """One long record; --traj is the step count here.  Returns the summary
    text and the comparison CSV."""
    params = config.bath()
    schedule = MeasurementSchedule(config.dt, config.traj, ProjectorPartition.fine(config.trunc))
    record = run_ensemble(params, schedule, 0, config.trunc, 1, config.seed, engine=config.engine)
    dwell = dwell_statistics(record)
    pi1 = params.emission_rate / (params.emission_rate + params.absorption_rate)
    lines = _metadata(config, "dwell")
    lines.append(f"record: {config.traj} steps of gamma_dt = {_fmt(config.gdt)}")
    lines.append("bin,time_fraction,visits,dwell_histogram(steps:count)")
    for n in range(dwell.counts.size):
        runs = dwell.dwell_lengths[n]
        if runs.size == 0 and dwell.counts[n] == 0:
            continue
        values, counts = np.unique(runs, return_counts=True)
        hist = " ".join(f"{int(v)}:{int(c)}" for v, c in zip(values, counts))
        lines.append(f"{n},{_fmt(dwell.fractions[n])},{runs.size},{hist}")
    summary = "\n".join(lines) + "\n"
    csv = _csv(
        config,
        "dwell",
        "fraction_1,paper_target_nthermal,exact_target_pi1",
        [(dwell.fractions[1], config.n_thermal, pi1)],
    )
    return summary, csv


def cmd_zeno(config: RunConfig) -> tuple[str, str]:
    """Persistence-time report plus the quasicontinuity sweep CSV."""
    params = config.bath()
    with warnings.catch_warnings():
        # main already prints RunConfig.validate's warning for every n_thermal
        # at which zeno_times warns
        warnings.simplefilter("ignore", ZenoDomainWarning)
        report = zeno_times(params)
    fit0 = fit_decay(two_level_curve(params, config.dt, config.steps, 0, config.traj, config.seed))
    fit1 = fit_decay(two_level_curve(params, config.dt, config.steps, 1, config.traj, config.seed))
    fit1_analytic = fit_level1_product(params, config.dt, config.steps)
    lines = _metadata(config, "zeno")
    lines += [
        f"tau = {_fmt(report.tau)}",
        f"tau_0 = {_fmt(report.tau_0)} (slowdown_0 = {_fmt(report.slowdown_0)})",
        f"tau_1 = {_fmt(report.tau_1)} (slowdown_1 = {_fmt(report.slowdown_1)})",
        f"fitted tau_0 = {_fmt(1.0 / fit0.rate)} "
        f"(rate {_fmt(fit0.rate)} +/- {_fmt(fit0.stderr)}, target {_fmt(config.n_thermal * config.gamma)})",
        f"fitted level-1 chain rate = {_fmt(fit1.rate)} +/- {_fmt(fit1.stderr)} "
        f"(exact-chain target {_fmt((1.0 + config.n_thermal) * config.gamma)})",
        f"fitted level-1 analytic rate = {_fmt(fit1_analytic.rate)} "
        f"(target {_fmt((1.0 - config.n_thermal) * config.gamma)})",
        f"level-1 chain-vs-analytic rate gap = {_fmt(abs(fit1.rate - fit1_analytic.rate))}",
    ]
    rows = []
    gt = config.horizon
    for x in ZENO_SWEEP:
        steps = max(1, round(gt / x))
        product = survival_product(params, 0, x / config.gamma, steps)
        exponential = survival_exponential(params, 0, gt / config.gamma)
        rows.append((x, product, exponential, abs(product - exponential)))
    return "\n".join(lines) + "\n", _csv(config, "zeno", "x,p_product,p_exponential,abs_gap", rows)


def cmd_validate(config: RunConfig) -> tuple[str, int]:
    from . import validation  # deferred: validation replays the CSV commands

    results = validation.run_all(config)
    text = "\n".join(_metadata(config, "validate")) + "\n" + validation.render_results(results)
    return text, 0 if all(r.passed for r in results) else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qndsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qndsim {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gamma", type=float, help="relaxation rate (default 1.0)")
    common.add_argument("--n-thermal", dest="n_thermal", type=float, help="thermal occupancy (default 0.1)")
    common.add_argument("--trunc", type=int, help="highest Fock level (default 40)")
    common.add_argument("--gdt", type=float, help="gamma * dt between measurements (default 0.01)")
    common.add_argument("--horizon", type=float, help="gamma * t to simulate (default 1.0)")
    common.add_argument("--traj", type=int, help="trajectories (dwell: record steps; default 100000)")
    common.add_argument("--seed", type=int, help="master seed (default 0)")
    common.add_argument("--engine", choices=ENGINES, help="trajectory engine")
    common.add_argument("--mode", choices=MODES, help="analytic-mode tag echoed in metadata")
    common.add_argument("--config", dest="config_file", help="JSON configuration manifest")
    common.add_argument("--out", help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("thermal", "equilibrium populations and bath rates"),
        ("relax", "mean-occupancy relaxation: analytic vs exact chain"),
        ("survival", "repeated-measurement survival: predictions vs Monte Carlo"),
        ("dwell", "dwell-time statistics of one long record"),
        ("zeno", "persistence times and quasicontinuity sweep"),
        ("validate", "run the full acceptance suite"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _emit(config: RunConfig, text: str) -> int:
    """Write ``text`` to ``--out`` (or stdout) and return the exit code: an
    unwritable ``--out`` is a usage error."""
    if not config.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(config.out, "w") as fp:
            fp.write(text)
    except OSError as exc:
        print(f"error: cannot write --out {config.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
        config = load_config(args.config_file, overrides)
        for warning in config.validate():
            print(f"warning: {warning}", file=sys.stderr)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "thermal":
            return _emit(config, cmd_thermal(config))
        if args.command == "relax":
            return _emit(config, cmd_relax(config))
        if args.command == "survival":
            return _emit(config, cmd_survival(config))
        if args.command == "dwell":
            summary, csv = cmd_dwell(config)
            sys.stdout.write(summary)
            return _emit(config, csv)
        if args.command == "zeno":
            table, csv = cmd_zeno(config)
            sys.stdout.write(table)
            return _emit(config, csv)
        text, code = cmd_validate(config)
        return _emit(config, text) or code
    except (FitError, ZeroProbabilityError) as exc:  # statistical failure; bugs propagate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
