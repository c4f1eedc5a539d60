"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them inline), plus the frozen
reference values for the default configuration."""

import dataclasses
import math

import numpy as np
import pytest

from qndsim import validation
from qndsim.config import RunConfig
from qndsim.core import bath_from_gamma
from qndsim.dynamics import survival_exponential, survival_product
from qndsim.measurement import ProjectorPartition
from qndsim.protocol import MeasurementSchedule


@pytest.fixture(scope="module")
def results():
    return {r.label.split(" ")[0]: r for r in validation.run_all(RunConfig())}


def report(result):
    print(f"{result.label}: {'PASS' if result.passed else 'FAIL'}")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, f"{result.label}\n" + "\n".join(result.details)


def test_ac1_mean_relaxation_closure(results):
    report(results["AC1"])


def test_ac2_survival_monte_carlo(results):
    report(results["AC2"])
    # the default-configuration band is centered on the frozen product value
    params = bath_from_gamma(1.0, 0.1)
    product = survival_product(params, 0, 0.01, 100)
    assert product == pytest.approx(0.905243601772, abs=1e-6)
    assert math.exp(-0.1) == pytest.approx(0.904837418036, abs=1e-6)
    empirical = float(results["AC2"].details[0].split("empirical = ")[1].split(",")[0])
    assert abs(empirical - 0.9052) <= 0.0029


def test_ac3_zeno_slowdown_rates(results):
    report(results["AC3"])
    ratio = float(results["AC3"].details[0].split("tau_0/tau = ")[1])
    assert 9.5 <= ratio <= 10.5
    # both level-1 rates and their gap are on display
    assert "chain-vs-analytic level-1 rate gap" in results["AC3"].details[-1]


def test_ac4_dwell_fractions_and_ergodicity(results):
    report(results["AC4"])
    assert abs(0.1 - 1.0 / 12.0) == pytest.approx(0.0167, abs=5e-4)
    assert "gap to exact = 0.0167" in " ".join(results["AC4"].details)


def test_ac5_engine_equivalence(results):
    report(results["AC5"])


def test_ac5_reads_its_marginals_off_the_runs(results, monkeypatch):
    # AC5's per-step outcome-1 frequencies come from the runs: neither of its
    # ensembles expands a dense record, and the report is unchanged
    run, made = validation.run_ensemble, []

    def recorded(*args, **kwargs):
        made.append(run(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(validation, "run_ensemble", recorded)
    assert validation.check_ac5(validation._Shared(RunConfig())) == results["AC5"]
    assert len(made) == 2 and not any("outcomes" in vars(e) for e in made)


def test_ac6_quasicontinuity_limit(results):
    report(results["AC6"])
    params = bath_from_gamma(1.0, 0.1)
    exact = survival_exponential(params, 0, 1.0)
    gap = abs(survival_product(params, 0, 0.001, 1000) - exact)
    assert gap <= 1e-4


def test_ac7_invariant_property_suite(results):
    report(results["AC7"])


@pytest.mark.parametrize(
    "name, fault, line",
    [
        # every renewal split is off by about 1e-9 relative
        ("survival_product", lambda f: lambda *args: f(*args) * (1.0 + 1e-9),
         "renewal product identity (<= 1e-13 relative): 0/100 cases"),
        # a collapse that never collapses fails the 72 drawn partitions with
        # more than one bin, a count fixed by the stream (seed 0, 76)
        ("luders_collapse", lambda f: lambda pop, partition, j: pop,
         "no-destruction iff support inside bin: 28/100 cases"),
    ],
    ids=["survival_product", "luders_collapse"],
)
def test_ac7_fault_changes_only_its_invariant(results, monkeypatch, name, fault, line):
    monkeypatch.setattr(validation, name, fault(getattr(validation, name)))
    faulty = validation.check_ac7(validation._Shared(RunConfig()))
    assert not faulty.passed
    clean = results["AC7"].details
    assert [d for c, d in zip(clean, faulty.details) if c != d] == [line]
    assert len(faulty.details) == len(clean) == 9


def test_rerun_rebuilds_every_transition_matrix(monkeypatch):
    # a run on a fresh _Shared shares nothing with an earlier one: AC1 builds
    # its five matrices (one uniformization series each) both times
    from qndsim import dynamics

    calls = []
    series = dynamics._series
    monkeypatch.setattr(dynamics, "_series", lambda *args: calls.append(1) or series(*args))
    counts = []
    for _ in range(2):
        calls.clear()
        validation.check_ac1(validation._Shared(RunConfig()))
        counts.append(len(calls))
    assert counts == [5, 5]


def test_ac8_determinism(results):
    report(results["AC8"])


def _one_run_changed(ensemble, change):
    """The ensemble with its last run of two readouts or more that does not
    start a row moved one readout later, or given a bin neither it nor its
    neighbours hold."""
    starts, bins = ensemble.starts.copy(), ensemble.bins.copy()
    i = np.flatnonzero((ensemble.lengths > 1) & (starts % ensemble.schedule.steps != 0))[-1]
    if change == "start":
        starts[i] += 1
    else:
        bins[i] = min({0, 1, 2, 3} - set(bins[i - 1:i + 2].tolist()))
    return dataclasses.replace(ensemble, starts=starts, bins=bins)


@pytest.mark.parametrize("change", ["start", "bin"])
@pytest.mark.parametrize("engine", ["luders", "gillespie"])
def test_ac8_shards_catch_a_one_run_difference(monkeypatch, engine, change):
    # AC8's shard check compares runs, never expanding a dense record, and
    # fails when the second shard differs from the whole in a single run
    params = bath_from_gamma(1.0, 0.1)
    schedule = MeasurementSchedule(0.01, 200, ProjectorPartition.fine(40))
    run, made = validation.run_ensemble, []

    def recorded(*args, **kwargs):
        made.append(run(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(validation, "run_ensemble", recorded)
    assert validation._shards_concatenate(params, schedule, 40, 400, 0, engine)
    assert len(made) == 3 and not any("outcomes" in vars(e) for e in made)

    def faulty(*args, first_index=0, **kwargs):
        ensemble = run(*args, first_index=first_index, **kwargs)
        return _one_run_changed(ensemble, change) if first_index else ensemble

    monkeypatch.setattr(validation, "run_ensemble", faulty)
    assert not validation._shards_concatenate(params, schedule, 40, 400, 0, engine)


def test_validate_report_renders_all_pass(results):
    text = validation.render_results(list(results.values()))
    assert "8/8 criteria passed" in text


def test_validate_command_exit_codes(monkeypatch):
    from qndsim import cli

    passing = [validation.CriterionResult("AC1 stub", True, ())]
    failing = [validation.CriterionResult("AC1 stub", False, ("detail",))]
    monkeypatch.setattr(validation, "run_all", lambda config: passing)
    assert cli.cmd_validate(RunConfig())[1] == 0
    monkeypatch.setattr(validation, "run_all", lambda config: failing)
    text, code = cli.cmd_validate(RunConfig())
    assert code == 2
    assert "FAIL" in text
