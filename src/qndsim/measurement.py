"""Projective QND measurements on the Fock-level diagonal: partitions of the
level set, outcome probabilities, and the Lüders state update.

A measurement is a partition of the levels 0..N into bins; each bin is one
projector of a decomposition of unity.  Acting on diagonal states with these
block projectors keeps the state diagonal, so the update reduces to masking
and renormalizing the level weights (:func:`outcome_probabilities` and
:func:`luders_collapse`).  On a diagonal state the Lüders collapse onto a
bin is Bayes' rule on the level, so a coarse record has the law of the fine
record read through ``ProjectorPartition.level_bin``: the trajectory
engines of :mod:`qndsim.protocol` sample levels under every partition, and
the update here is the forward filter of that law.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import PopulationVector, check_count


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is zero."""


@dataclass(frozen=True)
class ProjectorPartition:
    """Ordered partition of levels 0..N into disjoint, covering bins;
    ``level_bin[n]`` is the index of the bin holding level n (read-only)."""

    truncation: int
    bins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_count("truncation", self.truncation)
        try:
            bins = tuple(tuple(sorted(map(operator.index, b))) for b in self.bins)
        except TypeError:
            raise ValueError("bins must hold integer levels") from None
        if not bins or any(len(b) == 0 for b in bins):
            raise ValueError("need at least one bin and no empty bins")
        flat = [i for b in bins for i in b]
        if sorted(flat) != list(range(self.truncation + 1)):
            raise ValueError(f"bins must cover 0..{self.truncation} exactly once")
        object.__setattr__(self, "bins", bins)
        level_bin = np.empty(self.truncation + 1, dtype=np.intp)
        for j, b in enumerate(bins):
            level_bin[list(b)] = j
        level_bin.setflags(write=False)
        object.__setattr__(self, "level_bin", level_bin)

    @classmethod
    def fine(cls, truncation: int) -> "ProjectorPartition":
        """One singleton bin per level, in level order: bin index == level."""
        return cls(truncation, tuple((n,) for n in range(truncation + 1)))

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def is_fine(self) -> bool:
        return self.bins == tuple((n,) for n in range(self.truncation + 1))

    @cached_property
    def indicator(self) -> np.ndarray:
        """Read-only ``(L, n_bins)`` 0/1 level-to-bin indicator, built on
        first use (:func:`outcome_probabilities`)."""
        out = (self.level_bin[:, None] == np.arange(self.n_bins)).astype(float)
        out.setflags(write=False)
        return out


def _check_bin(partition: ProjectorPartition, j: int) -> None:
    """Raise ValueError unless ``j`` is a bin index: an integer, as
    ``operator.index`` takes the partition's levels, in range."""
    try:
        valid = 0 <= operator.index(j) < partition.n_bins
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"bin index {j!r} outside 0..{partition.n_bins - 1}")


def outcome_probabilities(pop: PopulationVector, partition: ProjectorPartition) -> np.ndarray:
    """Probability of each bin: the summed weight it covers, by the product
    of the level weights with the 0/1 level-to-bin indicator."""
    if pop.truncation != partition.truncation:
        raise ValueError(f"population truncation {pop.truncation} != partition truncation {partition.truncation}")
    return pop.weights @ partition.indicator


def luders_collapse(pop: PopulationVector, partition: ProjectorPartition, j: int) -> PopulationVector:
    """State after observing bin ``j``: the weights zeroed outside the bin
    and divided by its mass.  A state with no other bin of non-zero mass is
    returned itself (repeating the measurement cannot disturb it), and an
    outcome of zero probability raises :class:`ZeroProbabilityError`."""
    masses = outcome_probabilities(pop, partition)
    _check_bin(partition, j)
    if masses[j] <= 0.0:
        raise ZeroProbabilityError(f"outcome {j} has zero probability")
    if np.count_nonzero(masses) == 1:
        return pop
    return PopulationVector(pop.weights * (partition.level_bin == j) / masses[j])
