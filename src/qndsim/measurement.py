"""Projective QND measurements on the Fock-level diagonal: partitions of the
level set, outcome probabilities, and the Lüders state update.

A measurement is a partition of the levels 0..N into bins; each bin is one
projector of a decomposition of unity.  Acting on diagonal states with these
block projectors keeps the state diagonal, so the update reduces to masking
and renormalizing the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PopulationVector


class ZeroProbabilityError(ValueError):
    """Conditioning on an outcome whose probability is zero."""


@dataclass(frozen=True)
class ProjectorPartition:
    """Ordered partition of levels 0..N into disjoint, covering bins;
    ``level_bin[n]`` is the index of the bin holding level n (read-only)."""

    truncation: int
    bins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        bins = tuple(tuple(sorted(int(i) for i in b)) for b in self.bins)
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


def _check_truncation(pop: PopulationVector, partition: ProjectorPartition) -> None:
    if pop.truncation != partition.truncation:
        raise ValueError(
            f"population truncation {pop.truncation} != partition truncation {partition.truncation}"
        )


def outcome_probabilities(pop: PopulationVector, partition: ProjectorPartition) -> np.ndarray:
    """Probability of each bin: the summed weight it covers."""
    _check_truncation(pop, partition)
    w = pop.weights
    return np.array([w[list(b)].sum() for b in partition.bins])


def luders_collapse(pop: PopulationVector, partition: ProjectorPartition, j: int) -> PopulationVector:
    """State after observing bin ``j``: weights outside the bin are zeroed and
    the rest renormalized by the bin probability.

    A state already supported entirely inside the bin is returned unchanged
    (repeating the measurement cannot disturb it); an outcome of zero
    probability raises :class:`ZeroProbabilityError` rather than fabricating
    a state.
    """
    _check_truncation(pop, partition)
    if not 0 <= j < partition.n_bins:
        raise ValueError(f"bin index {j} outside 0..{partition.n_bins - 1}")
    w = pop.weights
    inside = np.asarray(partition.bins[j], dtype=np.intp)
    outside_mask = np.ones(w.size, dtype=bool)
    outside_mask[inside] = False
    if not w[outside_mask].any():
        return pop
    mass = w[inside].sum()
    if mass <= 0.0:
        raise ZeroProbabilityError(f"outcome {j} has zero probability")
    out = np.zeros_like(w)
    out[inside] = w[inside] / mass
    return PopulationVector(out)
