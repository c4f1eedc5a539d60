"""The seed contract stands alone: ``qndsim.streams`` imports no module of
the package, so its stream arithmetic is read, tested and patched apart from
the engines that draw from it.  Its block layout (``_blocks``) is the one
cut that both engines run."""

import ast
from pathlib import Path

import numpy as np
import pytest

from qndsim import streams
from qndsim.core import bath_from_gamma
from qndsim.measurement import ProjectorPartition
from qndsim.protocol import MeasurementSchedule, run_ensemble

from oracles import reference_uniforms


def test_streams_imports_only_numpy():
    tree = ast.parse(Path(streams.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "numpy"}


@pytest.mark.parametrize(
    "steps,block_rows",
    [(1, 4096), (streams.VECTOR_STEPS, 4096), (streams.VECTOR_STEPS + 1, 4074), (1000, 786), (10**7, 1)],
)
def test_blocks_cut_rows_as_the_engines_did(steps, block_rows):
    # BLOCK_ROWS rows, fewer when longer rows would hold more than
    # BLOCK_ROWS * VECTOR_STEPS uniforms, and a row longer still alone
    assert block_rows == min(streams.BLOCK_ROWS, max(1, streams.BLOCK_ROWS * streams.VECTOR_STEPS // steps))
    n = 2 * block_rows + 3
    cut = [(start, rows) for start, rows, _ in streams._blocks(0, 0, n, steps)]
    assert cut == [(start, min(block_rows, n - start)) for start in range(0, n, block_rows)]


@pytest.mark.parametrize("first_index", [0, 2**32 - 3], ids=["low", "2^32"])
@pytest.mark.parametrize("steps", [5, 13, 30], ids=["many-rows", "one-row-two-chunks", "one-row-three-chunks"])
def test_block_chunks_concatenate_to_the_reference_streams(monkeypatch, first_index, steps):
    # 3 rows of 4 uniforms a block: 5 steps give blocks of 2 rows and one of
    # 1 (drawn as a row); 13 and 30 steps give rows alone, in chunks of 12
    monkeypatch.setattr(streams, "BLOCK_ROWS", 3)
    monkeypatch.setattr(streams, "VECTOR_STEPS", 4)
    n, shapes = 5, []
    for start, rows, chunks in streams._blocks(7, first_index, n, steps):
        pieces = [np.atleast_2d(chunk).copy() for chunk in chunks]
        shapes.append([p.shape for p in pieces])
        got = np.concatenate(pieces, axis=1)
        want = reference_uniforms(7, first_index + start, rows, steps)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if steps == 5:
        assert shapes == [[(2, 5)], [(2, 5)], [(1, 5)]]
    else:
        assert len(shapes) == n and shapes[0][0] == (1, 12) and len(shapes[0]) == -(-steps // 12)


def test_blocks_draw_nothing_until_their_chunks_are_iterated(monkeypatch):
    # the jump engine runs the same blocks and draws from the Generators
    # of _streams, so it never draws a block's uniforms
    def no_draw(*args):
        raise AssertionError("a block's uniforms were drawn")

    monkeypatch.setattr(streams, "_uniforms", no_draw)
    monkeypatch.setattr(streams, "_row_uniforms", no_draw)
    assert len(list(streams._blocks(0, 0, 10, 10**6))) == 10
    sched = MeasurementSchedule(0.01, 1000, ProjectorPartition.fine(2))
    ensemble = run_ensemble(bath_from_gamma(1.0, 0.1), sched, 0, 2, 2 * 786 + 1, 0, engine="gillespie")
    assert ensemble.n_traj == 1573
    with pytest.raises(AssertionError):
        run_ensemble(bath_from_gamma(1.0, 0.1), sched, 0, 2, 2, 0)
