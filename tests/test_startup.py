"""Importing the package and running the non-validation commands must not
import scipy: ``scipy.stats`` costs about a second of start-up and is needed
only by ``stats.ks_distance``.  Nor may an engine import ``numpy.ma`` (as
``np.unique`` does under numpy 2.4), about 1 MB of resident memory."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import qndsim
import qndsim.cli
from qndsim import cli
from qndsim.config import RunConfig

assert cli.main(["thermal"]) == 0
cli.cmd_survival(RunConfig(traj=200, trunc=1, horizon=0.1))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

from qndsim import MeasurementSchedule, ProjectorPartition, bath_from_gamma, run_ensemble

coarse = MeasurementSchedule(0.1, 20, ProjectorPartition(4, ((0,), (1, 2), (3, 4))))
run_ensemble(bath_from_gamma(1.0, 2.0), coarse, 0, 4, 50, 0)
run_ensemble(bath_from_gamma(1.0, 2.0), coarse, 0, 4, 1, 0)
assert "numpy.ma" not in sys.modules

import numpy as np
from qndsim.stats import ks_distance

rng = np.random.default_rng(3)
a, b = rng.normal(size=300), rng.normal(0.2, 1.0, size=200)
got = ks_distance(a, b)

from scipy.stats import ks_2samp

want = ks_2samp(a, b, method="asymp")
assert got == (float(want.statistic), float(want.pvalue)), (got, want)
print("ok")
"""


def test_scipy_is_imported_only_by_ks_distance():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


def test_public_names_are_pinned():
    import qndsim
    from qndsim.core import BathParams
    from qndsim.measurement import ProjectorPartition

    assert sorted(qndsim.__all__) == [
        "BathParams", "BirthDeathGenerator", "DwellStats", "Ensemble", "FitError", "FitResult",
        "FitWindow", "MeasurementSchedule", "PopulationVector", "ProjectorPartition",
        "SEED_DERIVATION", "SurvivalCurve", "ZenoDomainWarning", "ZenoReport",
        "ZeroProbabilityError", "bath_from_gamma", "build_generator", "dwell_statistics",
        "estimate_survival", "fit_decay", "ks_distance", "luders_collapse", "mean_photon",
        "mean_relaxation", "outcome_probabilities", "propagate", "pure_level", "run_ensemble",
        "survival_exponential", "survival_product", "thermal_populations", "thermal_tail_mass",
        "time_average", "transition_matrix", "two_level_population", "zeno_times",
    ]
    assert all(hasattr(qndsim, name) for name in qndsim.__all__)
    # one-trajectory wrappers, test references and constructors nothing runs
    for name in ("bath_from_boltzmann", "run_trajectory_gillespie", "run_trajectory_luders",
                 "sample_outcome", "trajectory_rng"):
        assert not hasattr(qndsim, name), name
    assert not hasattr(ProjectorPartition, "single")
    assert not hasattr(BathParams, "zero_emission")
