"""Self-contained validation suite: every acceptance criterion of the
package, runnable from the CLI (``qndsim validate``) and from the test
suite, with one pass/fail line per criterion.

Criteria are evaluated at the active configuration; the frozen reference
numbers quoted in the details correspond to the default configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RunConfig
from .core import (
    BathParams,
    PopulationVector,
    bath_from_gamma,
    build_generator,
    mean_photon,
    pure_level,
    thermal_populations,
)
from .dynamics import ZENO_SWEEP, mean_relaxation, propagate, survival_exponential, survival_product
from .measurement import ProjectorPartition, luders_collapse, outcome_probabilities
from .protocol import MeasurementSchedule, run_ensemble
from .stats import (
    FitError,
    SurvivalCurve,
    dwell_statistics,
    fit_decay,
    fit_level1_product,
    ks_distance,
    time_average,
    two_level_curve,
)


@dataclass(frozen=True)
class CriterionResult:
    label: str
    passed: bool
    details: tuple[str, ...]


def render_results(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"{r.label}: {'PASS' if r.passed else 'FAIL'}")
        lines.extend(f"    {d}" for d in r.details)
    failed = [r.label for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; failed: {', '.join(failed)}" if failed else "")
    )
    return "\n".join(lines) + "\n"


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(a - b).sum())


class _Shared:
    """Lazily built artifacts reused across criteria: ``curve_from_0`` and
    ``curve_from_1``, the two-level survival curves from levels 0 and 1."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.params = config.bath()

    def _curve(self, k: int) -> SurvivalCurve:
        c = self.config
        return two_level_curve(self.params, c.dt, c.steps, k, c.traj, c.seed)

    @cached_property
    def curve_from_0(self) -> SurvivalCurve:
        return self._curve(0)

    @cached_property
    def curve_from_1(self) -> SurvivalCurve:
        return self._curve(1)


def check_ac1(shared: _Shared) -> CriterionResult:
    """Mean relaxation of the exact chain matches the analytic law."""
    config, params = shared.config, shared.params
    gen = build_generator(params, config.trunc)
    start = pure_level(0, config.trunc)
    tol = 1e-8
    details, ok = [], True
    for gt in (0.1, 0.5, 1.0, 2.0, 5.0):
        t = gt / config.gamma
        numeric = mean_photon(propagate(gen, start, t))
        analytic = mean_relaxation(params, 0.0, t)
        err = abs(numeric - analytic)
        ok &= err <= tol
        details.append(f"gt={gt:g}: |numeric-analytic| = {err:.3e} (tol {tol:g})")
    return CriterionResult("AC1 mean-relaxation closure", ok, tuple(details))


def check_ac2(shared: _Shared) -> CriterionResult:
    """Monte Carlo survival from level 0 sits in the 3-sigma band of the
    repeated-measurement product prediction."""
    config, params = shared.config, shared.params
    target = survival_product(params, 0, config.dt, config.steps)
    first_exit = math.exp(-params.emission_rate * config.horizon / config.gamma)
    empirical = float(shared.curve_from_0.survival[-1])
    sigma = math.sqrt(target * (1.0 - target) / config.traj)
    ok = abs(empirical - target) <= 3.0 * sigma
    details = (
        f"empirical = {empirical:.6f}, product prediction = {target:.6f}, "
        f"|diff| = {abs(empirical - target):.2e} (3 sigma = {3 * sigma:.2e})",
        f"continuous first-exit value = {first_exit:.6f} "
        f"(in band: {abs(empirical - first_exit) <= 3 * sigma})",
    )
    return CriterionResult("AC2 survival-from-ground Monte Carlo", ok, details)


def check_ac3(shared: _Shared) -> CriterionResult:
    """Fitted persistence rates: measurement slows relaxation as predicted,
    and the analytic level-1 rate differs from the exact-chain one.  A fit
    that fails (the analytic one at n_thermal >= 1) fails the criterion."""
    config, params = shared.config, shared.params
    gamma, nth = config.gamma, config.n_thermal
    details, ok = [], True
    try:
        fit0 = fit_decay(shared.curve_from_0)
        target0 = nth * gamma
        ok &= abs(fit0.rate - target0) <= 0.05 * target0
        tau_ratio = gamma / fit0.rate
        details.append(
            f"level 0: fitted rate = {fit0.rate:.5f} +/- {fit0.stderr:.1e}, "
            f"target n_thermal*gamma = {target0:g} (5% band); tau_0/tau = {tau_ratio:.3f}"
        )

        fit1 = fit_decay(shared.curve_from_1)
        target1_chain = (1.0 + nth) * gamma
        ok &= abs(fit1.rate - target1_chain) <= 0.05 * target1_chain
        details.append(
            f"level 1 Monte Carlo: fitted rate = {fit1.rate:.5f} +/- {fit1.stderr:.1e}, "
            f"exact-chain target (1+n_thermal)*gamma = {target1_chain:g} (5% band)"
        )

        fit1_analytic = fit_level1_product(params, config.dt, config.steps)
        target1_analytic = (1.0 - nth) * gamma
        ok &= abs(fit1_analytic.rate - target1_analytic) <= 0.01 * target1_analytic
        details.append(
            f"level 1 analytic product curve: fitted rate = {fit1_analytic.rate:.5f}, "
            f"target (1-n_thermal)*gamma = {target1_analytic:g} (1% band)"
        )
        details.append(
            f"chain-vs-analytic level-1 rate gap = {abs(fit1.rate - fit1_analytic.rate):.4f}"
        )
    except FitError as exc:
        ok = False
        details.append(f"{type(exc).__name__}: {exc}")
    return CriterionResult("AC3 partial-Zeno slowdown rates", ok, tuple(details))


def check_ac4(shared: _Shared) -> CriterionResult:
    """Dwell fractions of one long record match the exact stationary
    occupancy, with the first-order thermal target shown alongside."""
    config, params = shared.config, shared.params
    steps = 4_000_000
    schedule = MeasurementSchedule(config.dt, steps, ProjectorPartition.fine(1))
    record = run_ensemble(params, schedule, 0, 1, 1, config.seed, engine="gillespie")
    dwell = dwell_statistics(record)
    fraction = float(dwell.fractions[1])
    pi1 = params.emission_rate / (params.emission_rate + params.absorption_rate)
    ok = abs(fraction - pi1) <= 0.01
    avg = time_average(record, 1)
    ok &= avg == fraction
    details = (
        f"fraction of outcome 1 over {steps} steps = {fraction:.6f}, "
        f"exact stationary value = {pi1:.6f}, |diff| = {abs(fraction - pi1):.2e} (tol 0.01)",
        f"first-order thermal target = {config.n_thermal:g} "
        f"(gap to exact = {abs(config.n_thermal - pi1):.4f})",
        f"time_average == dwell fraction exactly: {avg == fraction}",
    )
    return CriterionResult("AC4 dwell fractions and ergodicity", ok, details)


def _step_frequencies(ensemble, n: int) -> np.ndarray:
    """Fraction of the rows that read bin n at each step, from the runs: the
    cumulative sum of +1 where a run of n starts in its row and -1 where it
    ends."""
    steps = ensemble.schedule.steps
    held = ensemble.bins == n
    col = ensemble.starts[held] % steps
    change = np.bincount(col, minlength=steps + 1) - np.bincount(col + ensemble.lengths[held], minlength=steps + 1)
    return np.cumsum(change[:steps]) / ensemble.n_traj


def check_ac5(shared: _Shared) -> CriterionResult:
    """The measurement-loop and jump engines generate the same statistics."""
    config, params = shared.config, shared.params
    n_records, steps = 2000, 1000
    schedule = MeasurementSchedule(config.dt, steps, ProjectorPartition.fine(config.trunc))
    luders = run_ensemble(
        params, schedule, 0, config.trunc, n_records, config.seed, engine="luders"
    )
    gillespie = run_ensemble(
        params, schedule, 0, config.trunc, n_records, config.seed + 11, engine="gillespie"
    )
    details, ok = [], True
    dwell_l, dwell_g = dwell_statistics(luders), dwell_statistics(gillespie)
    for level in (0, 1):
        a = dwell_l.interior_dwell_lengths[level]
        b = dwell_g.interior_dwell_lengths[level]
        stat, pvalue = ks_distance(a, b)
        ok &= pvalue > 0.01
        details.append(
            f"level-{level} interior dwells: KS stat = {stat:.4f}, p = {pvalue:.4f} "
            f"(n = {a.size}/{b.size}, need p > 0.01)"
        )
    freq_l, freq_g = (_step_frequencies(e, 1) for e in (luders, gillespie))
    pooled = 0.5 * (freq_l + freq_g)
    var = pooled * (1.0 - pooled) * (2.0 / n_records)
    with np.errstate(invalid="ignore"):
        z = np.where(var > 0.0, np.abs(freq_l - freq_g) / np.sqrt(var), 0.0)
    ok &= float(z.max()) <= 3.0
    details.append(f"per-step outcome-1 marginals: max |z| = {float(z.max()):.2f} (need <= 3)")
    return CriterionResult("AC5 engine equivalence", ok, tuple(details))


def check_ac6(shared: _Shared) -> CriterionResult:
    """The survival product converges to its quasicontinuous exponential
    limit as the sampling interval shrinks."""
    params = shared.params
    gamma = shared.config.gamma
    gt = 1.0
    exponential = survival_exponential(params, 0, gt / gamma)
    gaps = []
    details, ok = [], True
    for x in ZENO_SWEEP:
        steps = round(gt / x)
        product = survival_product(params, 0, x / gamma, steps)
        gap = abs(product - exponential)
        gaps.append(gap)
        ok &= gap <= x
        details.append(f"x={x:g}: |product - exponential| = {gap:.3e} (bound {x:g})")
    ok &= gaps[0] > gaps[1] > gaps[2]
    ok &= gaps[2] <= 1e-4
    details.append(f"monotone decreasing: {gaps[0] > gaps[1] > gaps[2]}; gap at x=0.001 <= 1e-4")
    return CriterionResult("AC6 quasicontinuity convergence", ok, tuple(details))


def _random_bath(rng) -> BathParams:
    return bath_from_gamma(rng.uniform(0.2, 5.0), rng.uniform(0.02, 0.9))


def _random_population(rng, truncation: int) -> PopulationVector:
    w = rng.random(truncation + 1) ** 2 + 1e-3
    return PopulationVector(w / w.sum())


def _random_partition(rng, truncation: int) -> ProjectorPartition:
    levels = rng.permutation(truncation + 1)
    n_bins = int(rng.integers(1, min(4, truncation + 1) + 1))
    cuts = np.sort(rng.choice(np.arange(1, truncation + 1), size=n_bins - 1, replace=False))
    return ProjectorPartition(truncation, tuple(tuple(b) for b in np.split(levels, cuts)))


def _normalization(rng, _) -> bool:
    params = _random_bath(rng)
    n = int(rng.integers(1, 25))
    gen = build_generator(params, n)
    pop = _random_population(rng, n)
    out = propagate(gen, pop, rng.uniform(0.0, 5.0) / params.gamma).weights
    return abs(out.sum() - 1.0) > 1e-9 or out.min() < 0.0


def _stationarity(rng, _) -> bool:
    params = _random_bath(rng)
    n = int(rng.integers(1, 25))
    thermal = thermal_populations(params, n)
    drifted = propagate(build_generator(params, n), thermal, rng.uniform(0.0, 5.0) / params.gamma)
    return _tv(drifted.weights, thermal.weights) > 1e-10


def _detailed_balance(rng, _) -> bool:
    params = _random_bath(rng)
    n = int(rng.integers(1, 40))
    gen = build_generator(params, n)
    pi = thermal_populations(params, n).weights
    flux_up, flux_down = gen.up * pi[:-1], gen.down * pi[1:]
    return np.any(np.abs(flux_up - flux_down) > 1e-12 * np.maximum(flux_up, 1.0))


def _semigroup(rng, _) -> bool:
    params = _random_bath(rng)
    n = int(rng.integers(1, 25))
    gen = build_generator(params, n)
    pop = _random_population(rng, n)
    s, t = rng.uniform(0.0, 2.5, size=2) / params.gamma
    direct = propagate(gen, pop, s + t).weights
    return _tv(direct, propagate(gen, propagate(gen, pop, s), t).weights) > 1e-9


def _idempotence(rng, _) -> bool:
    n = int(rng.integers(1, 25))
    pop = _random_population(rng, n)
    part = _random_partition(rng, n)
    j = int(rng.integers(part.n_bins))
    once = luders_collapse(pop, part, j)
    return not np.array_equal(once.weights, luders_collapse(once, part, j).weights)


def _no_destruction(rng, _) -> int:
    n = int(rng.integers(1, 25))
    part = _random_partition(rng, n)
    j = int(rng.integers(part.n_bins))
    inside = np.zeros(n + 1)
    idx = np.asarray(part.bins[j])
    w = rng.random(idx.size) + 1e-3
    inside[idx] = w / w.sum()
    supported = PopulationVector(inside)
    fails = luders_collapse(supported, part, j) is not supported
    if part.n_bins > 1:
        mixed = _random_population(rng, n)  # >= 1e-3 everywhere: mass outside j
        fails += np.array_equal(luders_collapse(mixed, part, j).weights, mixed.weights)
    return fails


def _total_probability(rng, _) -> bool:
    n = int(rng.integers(1, 25))
    pop = _random_population(rng, n)
    part = _random_partition(rng, n)
    mixture = np.zeros(n + 1)
    for j, p in enumerate(outcome_probabilities(pop, part)):
        if p > 0.0:
            mixture += p * luders_collapse(pop, part, j).weights
    return np.abs(mixture - pop.weights).max() > 1e-12


def _renewal(rng, _) -> bool:
    # The renewal split is an exact identity; in floating point each side
    # carries its own rounding, so equality is asserted at a few ulp.
    params = _random_bath(rng)
    k = int(rng.integers(2))
    dt = rng.uniform(0.001, 0.5) / params.gamma
    a, b = int(rng.integers(1, 400)), int(rng.integers(1, 400))
    whole = survival_product(params, k, dt, a + b)
    split = survival_product(params, k, dt, a) * survival_product(params, k, dt, b)
    return abs(whole - split) > 1e-13 * abs(whole)


def _thermal_w1(rng, i) -> bool:
    nth = (0.02, 0.05, 0.1, 0.2)[i] if i < 4 else rng.uniform(0.005, 0.2)
    w1 = float(thermal_populations(bath_from_gamma(1.0, nth), 30).weights[1])
    return abs(w1 - nth) > 3.0 * nth**2


def check_ac7(shared: _Shared) -> CriterionResult:
    """Randomized-parameter invariant suite (seeded, 100 cases each).
    Invariant j draws its cases, in order, from ``default_rng((seed, 71 + j))``;
    a case takes that generator and its index and returns its failure count."""
    invariants = (
        ("propagate normalization and positivity", _normalization),
        ("thermal stationarity (TV <= 1e-10)", _stationarity),
        ("generator detailed balance (rel <= 1e-12)", _detailed_balance),
        ("semigroup property (TV <= 1e-9)", _semigroup),
        ("collapse idempotence (exact)", _idempotence),
        ("no-destruction iff support inside bin", _no_destruction),
        ("law of total probability (<= 1e-12)", _total_probability),
        ("renewal product identity (<= 1e-13 relative)", _renewal),
        ("thermal w_1 vs n_thermal bound (<= 3*n^2)", _thermal_w1),
    )
    details, ok, cases = [], True, 100
    for j, (label, case) in enumerate(invariants):
        rng = np.random.default_rng((shared.config.seed, 71 + j))
        fails = sum(int(case(rng, i)) for i in range(cases))
        ok &= fails == 0
        details.append(f"{label}: {cases - fails}/{cases} cases")
    return CriterionResult("AC7 invariant property suite", ok, tuple(details))


def _shards_concatenate(params, schedule, truncation, n, seed, engine) -> bool:
    """Whether trajectories 0..n/2 and n/2..n, run apart, are bit-identical
    to trajectories 0..n run as one ensemble: the same runs, the second
    shard's starts offset by its first row's (no run spans two rows)."""
    whole = run_ensemble(params, schedule, 0, truncation, n, seed, engine=engine)
    k = n // 2
    low = run_ensemble(params, schedule, 0, truncation, k, seed, engine=engine)
    high = run_ensemble(params, schedule, 0, truncation, n - k, seed, engine=engine, first_index=k)
    starts = np.concatenate((low.starts, high.starts + k * schedule.steps))
    bins = np.concatenate((low.bins, high.bins))
    return np.array_equal(whole.starts, starts) and np.array_equal(whole.bins, bins)


def _output(command, config: RunConfig):
    """A command's output, or its failed fit as ``type: message``."""
    try:
        return command(config)
    except FitError as exc:
        return f"{type(exc).__name__}: {exc}"


def check_ac8(shared: _Shared, earlier: list[CriterionResult]) -> CriterionResult:
    """Byte-identical reruns and independence of ``first_index`` sharding."""
    from . import cli  # deferred: cli imports this module for the validate command

    config, params = shared.config, shared.params
    details, ok = [], True

    rerun = [check(_Shared(config)) for check in ALL_CHECKS]
    identical = render_results(rerun) == render_results(earlier)
    ok &= identical
    details.append(f"criteria AC1-AC7 rerun byte-identical: {identical}")

    for name, command in (
        ("relax", cli.cmd_relax),
        ("survival", cli.cmd_survival),
        ("dwell", cli.cmd_dwell),
        ("zeno", cli.cmd_zeno),
    ):
        same = _output(command, config) == _output(command, config)
        ok &= same
        details.append(f"{name} output byte-identical across reruns: {same}")

    trunc = config.trunc
    fine = MeasurementSchedule(config.dt, 200, ProjectorPartition.fine(trunc))
    coarse = MeasurementSchedule(
        config.dt, 40, ProjectorPartition(trunc, ((0,), tuple(range(1, trunc + 1))))
    )
    for name, schedule, n, engine in (
        ("jump-engine", fine, 400, "gillespie"),
        ("fine measurement-loop", fine, 400, "luders"),
        ("coarse measurement-loop", coarse, 60, "luders"),
    ):
        same = _shards_concatenate(params, schedule, trunc, n, config.seed, engine)
        ok &= same
        details.append(f"{name} ensemble split by first_index concatenates bit-identically: {same}")

    return CriterionResult("AC8 determinism and shard independence", ok, tuple(details))


ALL_CHECKS = (check_ac1, check_ac2, check_ac3, check_ac4, check_ac5, check_ac6, check_ac7)


def run_all(config: RunConfig | None = None) -> list[CriterionResult]:
    """Run every criterion; deterministic for a fixed configuration."""
    shared = _Shared(config or RunConfig())
    results = [check(shared) for check in ALL_CHECKS]
    results.append(check_ac8(shared, results))
    return results
