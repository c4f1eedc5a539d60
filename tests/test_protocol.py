import ast
import hashlib
import math
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import protocol, streams
from qndsim.core import BathParams, bath_from_gamma, build_generator, pure_level, thermal_populations
from qndsim.dynamics import (
    ZenoDomainWarning,
    survival_exponential,
    survival_product,
    transition_matrix,
    two_level_population,
    zeno_times,
)
from qndsim.measurement import ProjectorPartition, ZeroProbabilityError
from qndsim.protocol import MeasurementSchedule, run_ensemble

from oracles import coarse_sequence_law, reference_jump_record, reference_loop, reference_uniforms, trajectory_rng

PARAMS = bath_from_gamma(1.0, 0.1)


def coarse_partition(truncation):
    """{0} | {1..N}: did the mode stay empty?"""
    return ProjectorPartition(truncation, ((0,), tuple(range(1, truncation + 1))))


def two_level_stay_probability(params, level, dt):
    """Independent 2x2 oracle: P(occupying `level` at dt | started there)."""
    total = params.emission_rate + params.absorption_rate
    pi = params.emission_rate / total if level == 1 else params.absorption_rate / total
    return pi + (1.0 - pi) * math.exp(-total * dt)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStreams:
    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**63])
    @pytest.mark.parametrize(
        "first_index,n", [(0, 3), (2**32 - 2, 4), (2**63 - 1, 2)], ids=["low", "2^32", "2^63"]
    )
    def test_uniforms_match_reference_streams(self, master_seed, first_index, n):
        got = streams._uniforms(master_seed, first_index, n, 7)
        want = np.stack([trajectory_rng(master_seed, first_index + r).random(7) for r in range(n)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize(
        "first_index,n", [(5, 3), (2**32 - 2, 4), (2**63 - 1, 2)], ids=["low", "2^32", "2^63"]
    )
    def test_draws_on_both_sides_of_the_cut_over(self, first_index, n, offset):
        steps = streams.VECTOR_STEPS + offset
        got = streams._uniforms(2**63, first_index, n, steps)
        assert_same_bits(got, reference_uniforms(2**63, first_index, n, steps))

    def test_block_with_partial_tiles(self):
        # 37 steps end each row in a partial tile, and BLOCK_ROWS + 3 rows
        # end the block in a partial row tile
        n = streams.BLOCK_ROWS + 3
        assert 37 % streams._TILE_WIDTH and n % (streams._TILE_ELEMENTS // streams._TILE_WIDTH)
        assert_same_bits(streams._uniforms(11, 40, n, 37), reference_uniforms(11, 40, n, 37))

    @pytest.mark.parametrize("steps", [17, 31, 33, 100, 192])
    def test_equal_width_tiles(self, steps):
        # a row takes ceil(steps / 16) tiles of one width: 17 steps are two
        # tiles of 9, 33 three of 11 and 100 seven of 15, while 31 and 192
        # keep tiles of 16; at widths 9, 11 and 15 BLOCK_ROWS rows end in a
        # partial row tile
        n, first = streams.BLOCK_ROWS, 2**32 - 9
        assert_same_bits(streams._uniforms(6, first, n, steps), reference_uniforms(6, first, n, steps))

    @pytest.mark.parametrize("vector_steps", [0, 10**6], ids=["generator", "numpy"])
    def test_either_draw_gives_any_row_length(self, monkeypatch, vector_steps):
        monkeypatch.setattr(streams, "VECTOR_STEPS", vector_steps)
        for steps in (1, streams._TILE_WIDTH - 1, streams._TILE_WIDTH + 1, 1000):
            got = streams._uniforms(8, 2**32 - 1, 3, steps)
            assert_same_bits(got, reference_uniforms(8, 2**32 - 1, 3, steps))

    @settings(max_examples=40, deadline=None)
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        first_index=st.one_of(st.integers(0, 2**64 - 51), st.sampled_from([2**32 - 50, 2**63 - 25])),
        n=st.integers(1, 50),
        steps=st.integers(1, 400),
    )
    def test_uniforms_match_reference_streams_property(self, master_seed, first_index, n, steps):
        got = streams._uniforms(master_seed, first_index, n, steps)
        assert_same_bits(got, reference_uniforms(master_seed, first_index, n, steps))

    @pytest.mark.parametrize("block_rows", [1, 2, 4096])
    def test_row_chunks_continue_the_reference_stream(self, monkeypatch, block_rows):
        # chunks of at most BLOCK_ROWS * VECTOR_STEPS uniforms, the last one
        # partial, that together are the row's stream
        monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
        steps = 5 * streams.VECTOR_STEPS + 7
        chunks = [c.copy() for c in streams._row_uniforms(9, 2**32 - 1, steps)]
        assert max(c.size for c in chunks) == min(steps, block_rows * streams.VECTOR_STEPS)
        assert_same_bits(np.concatenate(chunks), reference_uniforms(9, 2**32 - 1, 1, steps)[0])

    def test_streams_continue_like_reference_streams(self):
        # the jump engine interleaves exponentials and uniforms on one stream
        for i, rng in enumerate(streams._streams(3, 2**32 - 1, 2)):
            ref = trajectory_rng(3, 2**32 - 1 + i)
            for _ in range(3):
                assert rng.exponential(0.5) == ref.exponential(0.5)
                assert rng.random() == ref.random()

    def test_rejects_seeds_outside_uint64_range(self):
        with pytest.raises(ValueError):
            streams._uniforms(-1, 0, 1, 3)
        with pytest.raises(ValueError):
            streams._uniforms(0, -1, 1, 3)
        with pytest.raises(ValueError):
            streams._uniforms(0, 2**64 - 1, 2, 3)


def test_protocol_binds_no_stream_or_law_name():
    # the engines read the stream and layout names as streams.X at call time,
    # so a patch of streams.BLOCK_ROWS reaches every reader, and a patch of a
    # name left behind in protocol raises instead of silently doing nothing
    for name in ("SEED_DERIVATION", "BLOCK_ROWS", "VECTOR_STEPS", "_uniforms", "_row_uniforms",
                 "_streams", "_block_rows", "survival_product", "zeno_times"):
        assert not hasattr(protocol, name), name
    # and it reads no layout name: streams._blocks cuts and draws the blocks
    tree = ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "streams"
    }
    assert "_blocks" in read
    assert not read & {"BLOCK_ROWS", "VECTOR_STEPS", "_block_rows", "_uniforms", "_row_uniforms"}


class TestSchedule:
    def test_validation(self):
        part = ProjectorPartition.fine(1)
        with pytest.raises(ValueError):
            MeasurementSchedule(0.0, 10, part)
        with pytest.raises(ValueError):
            MeasurementSchedule(0.1, 0, part)
        assert MeasurementSchedule(0.1, 10, part).horizon == pytest.approx(1.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        # an infinite horizon would never end a jump path
        with pytest.raises(ValueError, match="finite"):
            MeasurementSchedule(dt, 5, ProjectorPartition.fine(2))

    def test_rejects_overflowing_horizon(self):
        with pytest.raises(ValueError, match="overflows"):
            MeasurementSchedule(1e308, 10, ProjectorPartition.fine(2))

    @pytest.mark.parametrize("steps", [2.5, 3.0, "3", None])
    def test_rejects_non_integer_steps(self, steps):
        # a float count would fail later, inside the block layout
        with pytest.raises(ValueError, match="steps must be an integer"):
            MeasurementSchedule(0.1, steps, ProjectorPartition.fine(1))
        assert MeasurementSchedule(0.1, np.int64(3), ProjectorPartition.fine(1)).horizon == pytest.approx(0.3)


# blocks of two rows, scanned, and of one row, walked
TOP_UNIFORM_CASES = [
    (partition, n_traj) for n_traj in (2, 1) for partition in (ProjectorPartition.fine(3), coarse_partition(3))
]
TOP_UNIFORM_IDS = ["fine", "coarse", "fine-one-row", "coarse-one-row"]


class TestLudersEngine:
    def test_deterministic_given_seed_pair(self):
        sched = MeasurementSchedule(0.2, 25, ProjectorPartition.fine(2))
        a = run_ensemble(PARAMS, sched, 0, 2, 1, 5, first_index=9)
        b = run_ensemble(PARAMS, sched, 0, 2, 1, 5, first_index=9)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_record_metadata(self):
        sched = MeasurementSchedule(0.2, 4, ProjectorPartition.fine(1))
        ens = run_ensemble(PARAMS, sched, pure_level(1, 1), 1, 1, 3, first_index=2)
        assert ens.initial_level == 1
        assert (ens.master_seed, ens.first_index, ens.n_traj) == (3, 2, 1)
        assert ens.engine == "luders"
        assert ens.outcomes.shape == (1, 4)
        assert not ens.outcomes.flags.writeable

    def test_block_partition_supported(self):
        part = ProjectorPartition(3, ((0, 1), (2, 3)))
        sched = MeasurementSchedule(0.5, 30, part)
        ens = run_ensemble(PARAMS, sched, 0, 3, 1, 0)
        assert set(np.unique(ens.outcomes)) <= {0, 1}

    def test_single_step_occupation_matches_chain_oracle(self):
        # one measurement from level 1: outcome-1 probability is the exact
        # two-level occupation at dt, within-interval returns included
        dt = 0.4
        sched = MeasurementSchedule(dt, 1, ProjectorPartition.fine(1))
        n = 10_000
        ens = run_ensemble(PARAMS, sched, 1, 1, n, 17)
        freq = np.mean(ens.outcomes[:, 0] == 1)
        target = two_level_stay_probability(PARAMS, 1, dt)
        assert abs(freq - target) <= 3.0 * math.sqrt(target * (1.0 - target) / n)

    def test_sparse_sampling_reaches_thermal_marginals(self):
        # gamma*dt = 20 decorrelates consecutive outcomes: every step's
        # marginal sits at the stationary two-level occupancy
        sched = MeasurementSchedule(20.0, 5, ProjectorPartition.fine(1))
        n = 4000
        outcomes = run_ensemble(PARAMS, sched, 0, 1, n, 23).outcomes
        pi1 = PARAMS.emission_rate / (PARAMS.emission_rate + PARAMS.absorption_rate)
        band = 3.0 * math.sqrt(pi1 * (1.0 - pi1) / n)
        for step in range(5):
            assert abs(outcomes[:, step].mean() - pi1) <= band

    def test_coarse_marginals_match_exact_chain(self):
        # averaged over outcomes a Lüders update returns the relaxed state,
        # so the bin-0 marginal after m readouts is exactly (T^m e_0)[0]
        trunc, dt, steps, n = 10, 0.1, 50, 4000
        params = bath_from_gamma(1.0, 0.3)
        sched = MeasurementSchedule(dt, steps, coarse_partition(trunc))
        outcomes = run_ensemble(params, sched, 0, trunc, n, 8).outcomes
        tmat = transition_matrix(build_generator(params, trunc), dt)
        state = pure_level(0, trunc).weights
        for m in range(steps):
            state = tmat @ state
            exact = state[0]
            freq = np.mean(outcomes[:, m] == 0)
            assert abs(freq - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / n)

    @pytest.mark.parametrize(
        "params,partition,dt,initial,shape,digest",
        [
            (
                PARAMS,
                coarse_partition(40),
                0.01,
                0,
                (200, 100, 4096),
                "8c8e7dfff8c3fcdee4844019ecee56bb3d2ead0b840a625e1b7a83970db0a969",
            ),
            # the rest are pinned to the fine record at the same seed and shape
            (
                bath_from_gamma(1.0, 2.0),
                ProjectorPartition(40, ((0,), (1, 2, 3), tuple(range(4, 41)))),
                0.3,
                thermal_populations(bath_from_gamma(1.0, 2.0), 40),
                (200, 100, 4096),
                None,
            ),
            # no bin of one level
            (
                bath_from_gamma(1.0, 2.0),
                ProjectorPartition(40, ((0, 1), tuple(range(2, 41)))),
                0.1,
                0,
                (4096, 100, 4096),
                None,
            ),
            # rows leave {0} often
            (
                bath_from_gamma(1.0, 2.0),
                coarse_partition(40),
                0.1,
                0,
                (4096, 100, 4096),
                None,
            ),
            # one row in chunks of 2 * VECTOR_STEPS uniforms, its level carried across them
            (
                bath_from_gamma(1.0, 2.0),
                ProjectorPartition(40, ((0,), (1, 2, 3), tuple(range(4, 41)))),
                0.3,
                thermal_populations(bath_from_gamma(1.0, 2.0), 40),
                (1, 2000, 2),
                None,
            ),
        ],
        ids=["empty-or-not", "three-bins", "pair-or-above-often", "empty-or-not-often", "three-bins-row"],
    )
    def test_coarse_outcomes_are_pinned(self, monkeypatch, params, partition, dt, initial, shape, digest):
        # outcomes at seed 0: empty-or-not by its digest, the rest bit for bit
        # as the fine record at the same seed, shape and BLOCK_ROWS read
        # through level_bin (the fine records' digests are pinned below)
        n_traj, steps, block_rows = shape
        monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
        assert n_traj > 1 or steps > streams.BLOCK_ROWS * streams.VECTOR_STEPS
        sched = MeasurementSchedule(dt, steps, partition)
        outcomes = run_ensemble(params, sched, initial, 40, n_traj, 0).outcomes
        assert outcomes.dtype == np.int16 and outcomes.shape == (n_traj, steps)
        if digest is not None:
            assert hashlib.sha256(outcomes.tobytes()).hexdigest() == digest
        else:
            fine = MeasurementSchedule(dt, steps, ProjectorPartition.fine(40))
            levels = run_ensemble(params, fine, initial, 40, n_traj, 0).outcomes
            assert np.array_equal(outcomes, partition.level_bin[levels])

    @pytest.mark.parametrize(
        "trunc,n_traj,steps,n_thermal,gdt,digest",
        [
            (40, 4096, 100, 0.1, 0.01, "4ce6ff2aa6c2ae348f1867294eccc4a6de731fd2b98032da71846ddb66689263"),
            (40, 2000, 1000, 0.1, 0.01, "21f72786ca90b0dcd7a21221d9796cdb59efdba683d09d2c263e6cc2e538569f"),
            (1, 1, 200_000, 0.1, 0.01, "1dd15ac97656725a650582ac582e0af092d81cfed0712f5476dc71388e7493a4"),
            (40, 4096, 100, 2.0, 0.1, "4e01b0351e16fea86217d39d4f5fb066c4d6a06e1679408a7dfbedaa8c895e0c"),
            (1, 1, 200_000, 0.1, 1.0, "a56b802939d5b8969267503fd70f4b2af0b4ac99f8428c123e8be83699d98fee"),
        ],
        ids=["survival-block", "ac5-blocks", "dwell-row", "survival-block-often", "dwell-row-often"],
    )
    def test_fine_outcomes_are_pinned(self, trunc, n_traj, steps, n_thermal, gdt, digest):
        # seed 0 from level 0: a 100-step block, 786-row blocks of 1000 steps
        # and one row of many, at gamma*dt = 0.01 (about 9 in 10 rows never
        # leave their first level) and at settings where readouts leave often
        sched = MeasurementSchedule(gdt, steps, ProjectorPartition.fine(trunc))
        outcomes = run_ensemble(bath_from_gamma(1.0, n_thermal), sched, 0, trunc, n_traj, 0).outcomes
        assert outcomes.dtype == np.int16 and outcomes.shape == (n_traj, steps)
        assert hashlib.sha256(outcomes.tobytes()).hexdigest() == digest

    def test_window_width_narrows_as_rows_and_leaves_grow(self):
        width = protocol._window_width
        assert width(4096, 0.42) < width(4096, 0.002) < width(1, 0.002)
        # rows that never leave take the widest window, and many busy rows one column
        assert width(1, 0.0) == protocol._WINDOW_ELEMENTS
        assert width(protocol._WINDOW_ELEMENTS * 4, 1.0) == 1

    def test_coarse_shards_across_a_row_block_concatenate(self):
        # one row, then the rest of the first row block, then rows of the second
        params = bath_from_gamma(1.0, 2.0)
        partition = ProjectorPartition(40, ((0,), (1, 2, 3), tuple(range(4, 41))))
        sched = MeasurementSchedule(0.3, 20, partition)
        initial = thermal_populations(params, 40)
        n = streams.BLOCK_ROWS + 3
        whole = run_ensemble(params, sched, initial, 40, n, 9).outcomes
        cuts = [0, 1, streams.BLOCK_ROWS, n]
        shards = [
            run_ensemble(params, sched, initial, 40, b - a, 9, first_index=a).outcomes
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
        assert [len(s) for s in shards] == [1, streams.BLOCK_ROWS - 1, 3]
        assert np.array_equal(whole, np.concatenate(shards))
        assert len(np.unique(whole)) == 3

    @staticmethod
    def top_uniforms(monkeypatch, first):
        # every uniform after the first is just below 1, above every column's
        # mass (1 - Poisson tail), so the bisection clamps into the last bin
        def row(steps):
            return np.concatenate(([first], np.full(steps - 1, np.nextafter(1.0, 0.0))))

        monkeypatch.setattr(streams, "_uniforms", lambda seed, first_index, n, steps: np.tile(row(steps), (n, 1)))
        monkeypatch.setattr(streams, "_row_uniforms", lambda seed, index, steps: iter([row(steps)]))

    @pytest.mark.parametrize(
        "partition,n_traj,first",
        [
            pytest.param(*case, first, id=name + suffix)
            for first, suffix in ((np.nextafter(1.0, 0.0), ""), (0.5, "-leave"))
            for case, name in zip(TOP_UNIFORM_CASES, TOP_UNIFORM_IDS)
        ],
    )
    def test_zero_probability_outcome_raises(self, monkeypatch, partition, n_traj, first):
        # the last bin holds no mass when the bath cannot excite level 0: the
        # first readout clamps into it, or keeps level 0 (first uniform 0.5)
        # and the readout after it leaves level 0 into it
        self.top_uniforms(monkeypatch, first)
        sched = MeasurementSchedule(0.5, 3, partition)
        with pytest.raises(ZeroProbabilityError):
            run_ensemble(BathParams(0.0, 1.1), sched, 0, 3, n_traj, 0)

    @pytest.mark.parametrize("partition,n_traj", TOP_UNIFORM_CASES, ids=TOP_UNIFORM_IDS)
    def test_uniform_above_the_column_mass_clamps_into_the_last_bin(self, monkeypatch, partition, n_traj):
        # the last bin holds mass here, so the clamp picks it and the rows stay
        self.top_uniforms(monkeypatch, 0.5)
        sched = MeasurementSchedule(0.5, 3, partition)
        outcomes = run_ensemble(PARAMS, sched, 0, 3, n_traj, 0).outcomes
        assert np.all(outcomes == [0, partition.n_bins - 1, partition.n_bins - 1])

    @pytest.mark.parametrize("n_traj", [2, 1], ids=["scanned", "walked"])
    @pytest.mark.parametrize("partition", [ProjectorPartition.fine(40), coarse_partition(40)], ids=["fine", "coarse"])
    def test_a_coarse_readout_clamps_by_the_fine_rule(self, monkeypatch, partition, n_traj):
        # level 0 cannot reach level 40 in one readout at the defaults, so a
        # uniform above column 0's mass clamps onto a level of zero mass and
        # raises under every partition, also where the bin {1..40} holds mass
        self.top_uniforms(monkeypatch, 0.5)
        tmat = transition_matrix(build_generator(PARAMS, 40), 0.01)
        assert tmat[40, 0] == 0.0 and tmat[1:, 0].sum() > 0.0
        with pytest.raises(ZeroProbabilityError):
            run_ensemble(PARAMS, MeasurementSchedule(0.01, 3, partition), 0, 40, n_traj, 0)

    def test_survival_fraction_near_product_prediction(self):
        sched = MeasurementSchedule(0.01, 100, ProjectorPartition.fine(1))
        n = 20_000
        outcomes = run_ensemble(PARAMS, sched, 0, 1, n, 1).outcomes
        survived = np.mean(~outcomes.any(axis=1))
        target = survival_product(PARAMS, 0, 0.01, 100)
        assert abs(survived - target) <= 3.0 * math.sqrt(target * (1.0 - target) / n)


# A bath so hot that at dt = 5 no level of fine(40) is kept with probability
# above 4 %.
HIGH_JUMP = bath_from_gamma(1.0, 50.0)


class TestFineEngineEdges:
    """The fine Lüders engine against :func:`reference_loop` at the edges of
    its scan: the first readout, leaves at the first and last column of a
    window, several leaves in one window, rows that never leave and rows at
    the top level.  At the default widths a row of these cases is one window
    (columns 1 .. steps - 1)."""

    @staticmethod
    def matches_reference(params, sched, initial, n_traj):
        trunc = sched.partition.truncation
        outcomes = run_ensemble(params, sched, initial, trunc, n_traj, 42).outcomes
        start = pure_level(initial, trunc) if isinstance(initial, int) else initial
        for i, row in enumerate(outcomes):
            assert np.array_equal(row, reference_loop(params, sched, start, trunc, (42, i)))
        return outcomes

    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("initial", [0, 3], ids=["bottom", "top"])
    def test_one_and_two_steps(self, steps, initial):
        sched = MeasurementSchedule(0.3, steps, ProjectorPartition.fine(3))
        self.matches_reference(PARAMS, sched, initial, 40)

    def test_every_row_leaves_at_its_first_remaining_step(self):
        sched = MeasurementSchedule(5.0, 6, ProjectorPartition.fine(40))
        outcomes = self.matches_reference(HIGH_JUMP, sched, 7, 12)
        assert np.all(outcomes[:, 1] != outcomes[:, 0])

    def test_no_row_ever_leaves(self):
        sched = MeasurementSchedule(1e-4, 50, ProjectorPartition.fine(3))
        outcomes = self.matches_reference(PARAMS, sched, 0, 40)
        assert not outcomes.any()

    def test_several_leaves_in_one_window(self):
        # a row that changes level at every readout leaves at every column of
        # every window, each leave found by a new pass over the window
        sched = MeasurementSchedule(5.0, 12, ProjectorPartition.fine(40))
        outcomes = self.matches_reference(HIGH_JUMP, sched, 7, 12)
        assert np.all(np.diff(outcomes, axis=1) != 0, axis=1).any()

    def test_leave_on_the_first_and_last_column(self):
        # step 1 is the first column of the first window and the last step
        # the last column of the last: find a row that leaves at step 1, and
        # run it up to its next change, which then falls on the last step
        sched = MeasurementSchedule(0.3, 40, ProjectorPartition.fine(3))
        for i in range(40):
            row = reference_loop(PARAMS, sched, pure_level(1, 3), 3, (42, i))
            changes = np.flatnonzero(np.diff(row)) + 1
            if changes.size >= 2 and changes[0] == 1:
                break
        else:
            pytest.fail("no row leaves at step 1 and again later")
        short = MeasurementSchedule(0.3, int(changes[1]) + 1, sched.partition)
        outcomes = run_ensemble(PARAMS, short, 1, 3, 1, 42, first_index=i).outcomes
        assert np.array_equal(outcomes[0], row[: short.steps])
        assert outcomes[0, 1] != outcomes[0, 0] and outcomes[0, -1] != outcomes[0, -2]

    def test_leave_on_the_last_step(self):
        # a stream's first uniforms do not depend on the row length, so a row
        # whose level changes at step s leaves on its last step when run for
        # s + 1 steps
        sched = MeasurementSchedule(0.3, 40, ProjectorPartition.fine(3))
        row = reference_loop(PARAMS, sched, pure_level(0, 3), 3, (42, 0))
        changes = np.flatnonzero(np.diff(row)) + 1
        assert changes.size >= 2
        for step in changes[:2]:
            short = MeasurementSchedule(0.3, int(step) + 1, sched.partition)
            outcomes = self.matches_reference(PARAMS, short, 0, 1)
            assert outcomes[0, -1] != outcomes[0, -2]

    def test_rows_starting_at_the_top_level(self):
        # the top level's interval has no upper bound: some rows stay there
        # throughout, others leave
        sched = MeasurementSchedule(0.01, 40, ProjectorPartition.fine(3))
        stays = np.all(self.matches_reference(PARAMS, sched, 3, 20) == 3, axis=1)
        assert stays.any() and not stays.all()

    def test_rows_starting_at_mixed_levels(self):
        params = bath_from_gamma(1.0, 0.8)
        sched = MeasurementSchedule(0.1, 30, ProjectorPartition.fine(5))
        outcomes = self.matches_reference(params, sched, thermal_populations(params, 5), 40)
        assert np.unique(outcomes[:, 0]).size >= 3


@pytest.mark.parametrize("width", [1, 3])
class TestFineEngineEdgesInNarrowWindows(TestFineEngineEdges):
    """The same cases in windows of ``width`` columns, so that every row of
    more than ``width + 1`` steps crosses windows and carries its level from
    one into the next.  Patching VECTOR_STEPS also moves longer rows to the
    per-row Generator draw and into smaller blocks, neither of which may
    change an outcome."""

    @pytest.fixture(autouse=True)
    def narrow_windows(self, monkeypatch, width):
        monkeypatch.setattr(streams, "VECTOR_STEPS", width)
        monkeypatch.setattr(protocol, "_window_width", lambda n_rows, leave_rate: width)


class TestFineRowWalk:
    """One row under a fine partition, walked from leave to leave over its
    uniforms in chunks of ``BLOCK_ROWS * VECTOR_STEPS``, against
    :func:`reference_loop`.  Both constants are patched small, so that a row
    spans several chunks and carries its level and position across each
    chunk's edge."""

    @staticmethod
    def walk(params, sched, initial, trunc, chunk, index=0):
        # BLOCK_ROWS = 1 leaves chunks of VECTOR_STEPS uniforms
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "BLOCK_ROWS", 1)
            mp.setattr(streams, "VECTOR_STEPS", chunk)
            outcomes = run_ensemble(params, sched, initial, trunc, 1, 42, first_index=index).outcomes[0]
        start = pure_level(initial, trunc) if isinstance(initial, int) else initial
        assert np.array_equal(outcomes, reference_loop(params, sched, start, trunc, (42, index)))
        return outcomes

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.one_of(
            st.floats(0.05, 5.0).map(lambda n: bath_from_gamma(1.0, n)),
            st.just(BathParams(0.0, 1.1)),  # zero emission: level 0 is absorbing
        ),
        trunc=st.integers(1, 6),
        # at gamma * dt = 3 the chain is near its stationary law, where most
        # readouts leave at large n_thermal and truncation
        dt=st.sampled_from([0.01, 0.3, 3.0]),
        chunk=st.integers(1, 9),
        data=st.data(),
    )
    def test_walk_matches_reference_loop(self, params, trunc, dt, chunk, data):
        initial = data.draw(st.integers(0, trunc), label="initial")
        steps = data.draw(st.integers(1, 12 * chunk), label="steps")
        index = data.draw(st.integers(0, 1000), label="index")
        sched = MeasurementSchedule(dt, steps, ProjectorPartition.fine(trunc))
        self.walk(params, sched, initial, trunc, chunk, index)

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_leaves_on_chunk_edges(self, chunk):
        # at gamma * dt = 5 in HIGH_JUMP the level changes at nearly every
        # readout, so leaves fall on the first and the last readout of chunks
        sched = MeasurementSchedule(5.0, 40, ProjectorPartition.fine(40))
        outcomes = self.walk(HIGH_JUMP, sched, 40, 40, chunk)
        leaves = np.flatnonzero(np.diff(outcomes)) + 1
        assert np.any(leaves % chunk == 0) and np.any(leaves % chunk == chunk - 1)

    def test_rows_from_a_mixed_state(self):
        # the first readout is bisected into the relaxed thermal state
        params = bath_from_gamma(1.0, 0.8)
        sched = MeasurementSchedule(0.1, 30, ProjectorPartition.fine(5))
        firsts = {self.walk(params, sched, thermal_populations(params, 5), 5, 7, i)[0] for i in range(20)}
        assert len(firsts) >= 3

    def test_busy_record_peaks_below_three_times_its_runs(self, monkeypatch):
        # a busy fine(40) row (n_thermal 5, gamma * dt = 1: a leave at 9 in 10
        # readouts), 50 000 readouts in chunks of 5 000.  Its record holds
        # 10 bytes a run (an intp start and an int16 bin).  Its runs are
        # appended to typed buffers once, and the check keeps them as they
        # are, so the peak is the runs and the check's masks and remainders,
        # about 21 bytes a run.  Runs listed as Python ints, packed, joined
        # and copied twice more by the check peaked at about 73.
        monkeypatch.setattr(streams, "BLOCK_ROWS", 1)
        monkeypatch.setattr(streams, "VECTOR_STEPS", 5_000)
        sched = MeasurementSchedule(1.0, 50_000, ProjectorPartition.fine(40))
        run_ensemble(bath_from_gamma(1.0, 5.0), sched, 0, 40, 1, 0)  # imports and caches untraced
        tracemalloc.start()
        try:
            ens = run_ensemble(bath_from_gamma(1.0, 5.0), sched, 0, 40, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.starts.size > 40_000
        assert peak < 30 * ens.starts.size

    def test_busy_row_keeps_about_one_chunk_of_leave_positions(self, monkeypatch):
        # at n_thermal 5 and gamma * dt = 1 a fine(40) row leaves at 9 in 10
        # readouts and visits most levels in a chunk: the leave positions of
        # the whole chunk for each level visited would be about 40 chunks of
        # int64, and spans keep them to about one.  The runs, appended to an
        # intp and an int16 buffer (10 bytes a run, about 0.9 a readout), and
        # the compare masks take the rest: about 2.8 chunks in all.  Runs
        # listed as Python ints, then packed and joined, took about 10.
        size = 20_000
        monkeypatch.setattr(streams, "BLOCK_ROWS", 1)
        monkeypatch.setattr(streams, "VECTOR_STEPS", size)
        tmat = transition_matrix(build_generator(bath_from_gamma(1.0, 5.0), 40), 1.0)
        chunk = np.random.default_rng(0).random(size)
        tracemalloc.start()
        try:
            starts, _ = protocol._fine_row(tmat, pure_level(0, 40), [chunk])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert starts.size > 0.8 * size
        assert peak < 6 * 8 * size

    @pytest.mark.parametrize("initial", [0, 3], ids=["bottom", "top"])
    def test_long_row_over_many_chunks(self, initial):
        # a few leaves over 60 chunks, most chunks without one
        sched = MeasurementSchedule(0.05, 3000, ProjectorPartition.fine(3))
        outcomes = self.walk(PARAMS, sched, initial, 3, 50)
        assert 2 < np.count_nonzero(np.diff(outcomes)) < 200


class TestGillespieEngine:
    def test_coarse_partition_reads_out_the_bins_of_the_fine_paths(self):
        params = bath_from_gamma(1.0, 0.5)
        coarse = ProjectorPartition(10, ((0,), (1, 2), tuple(range(3, 11))))

        def outcomes(partition, n_traj, first_index):
            sched = MeasurementSchedule(0.3, 20, partition)
            return run_ensemble(params, sched, 1, 10, n_traj, 7, "gillespie", first_index).outcomes

        fine = outcomes(ProjectorPartition.fine(10), 40, 3)
        got = outcomes(coarse, 40, 3)
        assert got.dtype == fine.dtype
        assert np.array_equal(got, coarse.level_bin[fine])
        assert set(np.unique(got)) == {0, 1, 2}
        split = np.concatenate((outcomes(coarse, 15, 3), outcomes(coarse, 25, 18)))
        assert np.array_equal(got, split)

    def test_zero_emission_makes_ground_state_absorbing(self):
        params = BathParams(0.0, 1.1)
        sched = MeasurementSchedule(0.5, 200, ProjectorPartition.fine(1))
        ens = run_ensemble(params, sched, 0, 1, 1, 0, engine="gillespie")
        assert not ens.outcomes.any()
        assert np.array_equal(ens.outcomes[0], reference_jump_record(params, sched, 0, 1, (0, 0)))

    def test_zero_emission_decays_into_ground(self):
        params = BathParams(0.0, 1.1)
        sched = MeasurementSchedule(0.5, 60, ProjectorPartition.fine(1))
        outcomes = run_ensemble(params, sched, 1, 1, 1, 0, "gillespie", first_index=4).outcomes[0]
        assert outcomes[-1] == 0
        # once absorbed it never leaves
        first_zero = int(np.argmax(outcomes == 0))
        assert not outcomes[first_zero:].any()
        assert np.array_equal(outcomes, reference_jump_record(params, sched, 1, 1, (0, 4)))

    def test_outcomes_hold_levels_beyond_int16(self):
        sched = MeasurementSchedule(1e-4, 5, ProjectorPartition.fine(40_000))
        ens = run_ensemble(PARAMS, sched, 33_000, 40_000, 1, 0, engine="gillespie")
        assert np.all(np.abs(ens.outcomes.astype(int) - 33_000) <= 100)

    def test_small_partitions_keep_int16_outcomes(self):
        sched = MeasurementSchedule(0.1, 5, ProjectorPartition.fine(40))
        for engine in ("luders", "gillespie"):
            assert run_ensemble(PARAMS, sched, 0, 40, 2, 0, engine=engine).outcomes.dtype == np.int16

    def test_chunked_readout_matches_one_shot_reference(self):
        # a long record, three 65 536-step blocks plus a remainder, with level changes in each
        params = bath_from_gamma(1.0, 0.5)
        steps = 3 * 65536 + 4321
        sched = MeasurementSchedule(0.001, steps, ProjectorPartition.fine(2))
        whole = run_ensemble(params, sched, 1, 2, 3, 7, engine="gillespie")
        high = run_ensemble(params, sched, 1, 2, 2, 7, engine="gillespie", first_index=1)
        assert np.array_equal(whole.outcomes[1:], high.outcomes)
        for i, row in enumerate(whole.outcomes):
            reference = reference_jump_record(params, sched, 1, 2, (7, i))
            assert np.array_equal(row, reference)
            single = run_ensemble(params, sched, 1, 2, 1, 7, "gillespie", first_index=i)
            assert np.array_equal(single.outcomes[0], reference)
            chunks = np.split(reference, range(0, steps, 65536)[1:])
            assert len(chunks) == 4 and all(np.any(np.diff(c)) for c in chunks)

    @pytest.mark.parametrize("partition", [ProjectorPartition.fine(4), coarse_partition(4)], ids=["fine", "coarse"])
    def test_blocks_of_paths_match_the_reference_record(self, monkeypatch, partition):
        # 10 rows in blocks of 3, 3, 3 and 1 across trajectory index 2**32, where
        # a seed's entropy grows a word; every block's levels, read through
        # level_bin, come back as maximal runs.  The last call of _runs is the
        # Ensemble's check of all 10 rows.
        params, first_index = bath_from_gamma(1.0, 0.5), 2**32 - 5
        sched = MeasurementSchedule(0.1, 50, partition)
        runs, block_rows = protocol._runs, []

        def checked(starts, bins, rows, steps):
            starts, bins = runs(starts, bins, rows, steps)
            again = runs(starts, bins, rows, steps)
            assert np.array_equal(again[0], starts) and np.array_equal(again[1], bins)
            assert bins.dtype == np.int16
            block_rows.append(rows)
            return starts, bins

        monkeypatch.setattr(protocol, "_runs", checked)
        monkeypatch.setattr(streams, "BLOCK_ROWS", 3)
        ens = run_ensemble(params, sched, 1, 4, 10, 3, "gillespie", first_index=first_index)
        assert block_rows == [3, 3, 3, 1, 10]
        for i, row in enumerate(ens.outcomes):
            reference = reference_jump_record(params, sched, 1, 4, (3, first_index + i))
            assert np.array_equal(row, partition.level_bin[reference])
        assert ens.bins.size > 3 * ens.n_traj

    def test_single_step_occupation_matches_chain_oracle(self):
        dt = 0.4
        sched = MeasurementSchedule(dt, 1, ProjectorPartition.fine(1))
        n = 10_000
        ens = run_ensemble(PARAMS, sched, 1, 1, n, 29, engine="gillespie")
        freq = np.mean(ens.outcomes[:, 0] == 1)
        target = two_level_stay_probability(PARAMS, 1, dt)
        assert abs(freq - target) <= 3.0 * math.sqrt(target * (1.0 - target) / n)

    def test_first_exit_time_matches_holding_time_oracle(self):
        # mean first exit from level 1 is 1/B_a; sampling every gamma*dt=0.005
        # overstates it by the known discretization bias (~1 sigma here)
        dt, steps, n = 0.005, 2000, 100_000
        sched = MeasurementSchedule(dt, steps, ProjectorPartition.fine(1))
        left = run_ensemble(PARAMS, sched, 1, 1, n, 31, engine="gillespie").outcomes != 1
        exits = np.where(left.any(axis=1), left.argmax(axis=1) + 1, steps) * dt
        target = 1.0 / PARAMS.absorption_rate
        stderr = exits.std() / math.sqrt(n)
        assert abs(exits.mean() - target) <= 3.0 * stderr


def searchsorted_readout(jump_times, levels, dt, steps):
    """Reference readout: every sampling time built, one right-sided search."""
    return levels[np.searchsorted(jump_times, dt * np.arange(1, steps + 1), side="right")]


def read_out(jump_times, levels, dt, steps):
    """One path's readout, from its runs made maximal and expanded."""
    runs = protocol._read_out([0.0, *jump_times.tolist()], levels, [levels.size], dt, steps)
    starts, bins = protocol._runs(*runs, 1, steps)
    return np.repeat(bins, np.diff(starts, append=steps))


class TestReadOut:
    DTS = [0.01, 0.1, 0.3, 1.0 / 3.0, 0.001, 1e-4]

    @staticmethod
    def crafted_times(dt, steps):
        on = dt * np.array([1, 2, 3, 7, 10, 99, steps // 3, steps - 1, steps])
        return np.concatenate([
            on,  # exactly on a sampling time
            np.nextafter(on, 0.0),
            np.nextafter(on, np.inf),
            [0.0, 0.5 * dt, np.nextafter(dt, 0.0)],  # before the first sample
            [dt * steps + 0.5 * dt, np.nextafter(dt * steps, np.inf), 2.0 * dt * steps],  # after the last
        ])

    @pytest.mark.parametrize("dt", DTS)
    def test_single_jump_matches_searchsorted(self, dt):
        steps = 200_000
        levels = np.array([0, 1], dtype=np.int16)
        for t in self.crafted_times(dt, steps):
            jumps = np.array([t])
            got = read_out(jumps, levels, dt, steps)
            assert np.array_equal(got, searchsorted_readout(jumps, levels, dt, steps)), t

    @pytest.mark.parametrize("dt,steps", [(dt, 200_000) for dt in DTS] + [(0.01, 1_000_000)])
    def test_many_jumps_match_searchsorted(self, dt, steps):
        rng = np.random.default_rng(5)
        near = dt * rng.integers(1, steps + 1, 500)
        jumps = np.sort(np.concatenate([
            self.crafted_times(dt, steps),
            near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
            dt * (17 + np.array([0.1, 0.2, 0.3, 0.4])),  # several jumps in one interval
            rng.uniform(0.0, dt * steps, 500),
        ]))
        levels = np.arange(jumps.size + 1, dtype=np.int32)  # every run distinguishable
        got = read_out(jumps, levels, dt, steps)
        assert got.shape == (steps,)
        assert np.array_equal(got, searchsorted_readout(jumps, levels, dt, steps))

    def test_no_jumps_holds_the_initial_level(self):
        got = read_out(np.array([]), np.array([3], dtype=np.int16), 0.1, 5)
        assert got.tolist() == [3] * 5 and got.dtype == np.int16

    def test_two_jumps_in_one_interval_leave_no_run(self):
        # 0 -> 1 -> 0 between the samples at 0.1 and 0.2: level 1 is never read
        # out, and the runs of 0 on either side of it are one run
        jumps, levels = np.array([0.13, 0.17]), np.array([0, 1, 0], dtype=np.int16)
        runs = protocol._read_out([0.0, *jumps.tolist()], levels, [3], 0.1, 5)
        assert protocol._runs(*runs, 1, 5)[0].tolist() == [0]
        assert np.array_equal(read_out(jumps, levels, 0.1, 5), searchsorted_readout(jumps, levels, 0.1, 5))

    def test_a_jump_inside_a_coarse_bin_joins_its_run(self):
        # levels 0 -> 1 -> 2 read out as bins 0, 1, 1 of {0} | {1, 2}, in the
        # second of two paths: one run of bin 1 from the first jump's sample on
        bins = ProjectorPartition(2, ((0,), (1, 2))).level_bin[[0, 0, 1, 2]]
        runs = protocol._read_out([0.0, 0.0, 0.25, 0.35], bins, [1, 3], 0.1, 5)
        starts, got = protocol._runs(*runs, 2, 5)
        assert starts.tolist() == [0, 5, 7] and got.tolist() == [0, 0, 1]


class TestRecord:
    """``_runs``, the one definition of a valid record, and what an Ensemble
    keeps of the arrays it is given."""

    SCHEDULE = MeasurementSchedule(0.1, 4, ProjectorPartition.fine(1))

    @pytest.mark.parametrize("starts, bins", [
        ([0, 2], [0.0, 1.7]), ([0.0, 2.9], [0, 1]), ([0, 2], [True, False]), ([False, True], [0, 1]),
    ], ids=["float-bins", "float-starts", "bool-bins", "bool-starts"])
    def test_rejects_non_integer_starts_and_bins(self, starts, bins):
        # read as ints these would be the valid records [0, 2] | [0, 1] or [0, 1] | [0, 1]
        with pytest.raises(ValueError, match="integers"):
            protocol.Ensemble(self.SCHEDULE, None, starts, bins, 1, 0, 0, "x")
        with pytest.raises(ValueError, match="integers"):
            protocol._runs(np.array(starts), np.array(bins), 1, 4)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64, np.int64])
    def test_takes_any_integer_dtype(self, dtype):
        starts, bins = np.array([0, 2], dtype), np.array([0, 1], dtype)
        ens = protocol.Ensemble(self.SCHEDULE, None, starts, bins, 1, 0, 0, "x")
        assert ens.outcomes.tolist() == [[0, 0, 1, 1]]
        assert ens.starts.dtype == np.intp and ens.bins.dtype == np.int16

    def test_maximal_runs_come_back_as_their_inputs(self):
        # two rows of 4 readouts; the run at 4 starts row 1, so it stays apart
        # from the same-bin run before it
        starts, bins = np.array([0, 2, 4, 5], dtype=np.intp), np.array([0, 1, 1, 0], dtype=np.int16)
        got = protocol._runs(starts, bins, 2, 4)
        assert got[0] is starts and got[1] is bins
        # an empty run is dropped and a same-bin neighbour joined, in new arrays
        cases = (([0, 2, 2, 4, 5], [0, 0, 1, 1, 0], [0, 2, 4, 5]), ([0, 2, 4, 5], [0, 1, 1, 1], [0, 2, 4]))
        for starts, bins, want in cases:
            starts, bins = np.array(starts, dtype=np.intp), np.array(bins, dtype=np.int16)
            got = protocol._runs(starts, bins, 2, 4)
            assert got[0].tolist() == want and got[0] is not starts and got[1] is not bins

    def test_a_caller_built_record_neither_freezes_nor_follows_its_arrays(self):
        starts, bins = np.array([0, 2]), np.array([0, 1], dtype=np.int16)
        ens = protocol.Ensemble(self.SCHEDULE, None, starts, bins, 1, 0, 0, "x")
        starts[1], bins[0] = 3, 1  # still writeable, and the record does not see it
        assert ens.starts.tolist() == [0, 2] and ens.bins.tolist() == [0, 1]
        assert not (ens.starts.flags.writeable or ens.bins.flags.writeable)
        # a read-only view is copied too: its base can still be written
        base = np.array([0, 2, 1, 0])
        view = base[:2]
        view.setflags(write=False)
        ens = protocol.Ensemble(self.SCHEDULE, None, view, base[2:], 1, 0, 0, "x")
        base[:] = [0, 1, 0, 1]
        assert ens.starts.tolist() == [0, 2] and ens.bins.tolist() == [1, 0]

    def test_a_caller_cannot_unfreeze_a_checked_record(self):
        # read-only arrays that own their data are copied as well: the caller
        # that froze them can unfreeze them, and would write a bin outside
        # the partition into the checked record
        starts, bins = np.array([0, 2]), np.array([0, 1], dtype=np.int16)
        for arr in (starts, bins):
            arr.setflags(write=False)
        ens = protocol.Ensemble(self.SCHEDULE, None, starts, bins, 1, 0, 0, "x")
        for arr in (starts, bins):
            arr.setflags(write=True)
        starts[1], bins[1] = 1, 5
        assert ens.starts.tolist() == [0, 2] and ens.bins.tolist() == [0, 1]
        assert ens.bins is not bins and not ens.bins.flags.writeable

    @pytest.mark.parametrize("engine, n_traj, steps", [
        ("luders", 1, 60), ("luders", 5, 12), ("gillespie", 5, 12),
    ], ids=["row-walked-in-chunks", "blocks-scanned", "jump-blocks"])
    def test_engines_hand_over_their_runs_uncopied(self, monkeypatch, engine, n_traj, steps):
        # a row of five 12-readout chunks, or 5 rows in blocks of 2, 2 and 1:
        # the record's check gets the engine's runs, read-only, and keeps them
        monkeypatch.setattr(streams, "BLOCK_ROWS", 2)
        monkeypatch.setattr(streams, "VECTOR_STEPS", 6)
        runs, checked = protocol._runs, []

        def check(starts, bins, *args):
            checked.append((starts, bins))
            return runs(starts, bins, *args)

        monkeypatch.setattr(protocol, "_runs", check)
        sched = MeasurementSchedule(0.3, steps, ProjectorPartition.fine(4))
        ens = run_ensemble(bath_from_gamma(1.0, 2.0), sched, 0, 4, n_traj, 1, engine)
        assert ens.starts is checked[-1][0] and ens.bins is checked[-1][1]
        assert ens.bins.size > 2 * n_traj
        # a caller's Ensemble of those same arrays copies them (see below)
        again = protocol.Ensemble(sched, 0, ens.starts, ens.bins, n_traj, 1, 0, engine)
        assert again.starts is not ens.starts and again.bins is not ens.bins
        assert np.array_equal(again.starts, ens.starts) and np.array_equal(again.bins, ens.bins)


class TestSurvivalFormulas:
    def test_single_step_equals_two_level_population(self):
        for k in (0, 1):
            assert survival_product(PARAMS, k, 0.37, 1) == two_level_population(PARAMS, k, 0.37)

    def test_frozen_product_value(self):
        # direct high-precision evaluation of the m=100 product at defaults
        assert survival_product(PARAMS, 0, 0.01, 100) == pytest.approx(0.905243601772, abs=1e-6)

    def test_quasicontinuous_limit(self):
        target = math.exp(-0.1)
        value = survival_product(PARAMS, 0, 1e-5, 100_000)
        assert abs(value - target) <= 1e-5

    def test_exponential_values(self):
        assert survival_exponential(PARAMS, 0, 0.0) == 1.0
        assert survival_exponential(PARAMS, 0, 1.0) == pytest.approx(0.9048374180359595, abs=1e-12)
        assert survival_exponential(PARAMS, 1, 1.0) == pytest.approx(0.4065696597405991, abs=1e-12)

    @given(
        n_thermal=st.floats(0.02, 0.8),
        k=st.integers(0, 1),
        dt=st.floats(0.001, 0.5),
        a=st.integers(1, 300),
        b=st.integers(1, 300),
    )
    @settings(max_examples=100, derandomize=True)
    def test_renewal_split(self, n_thermal, k, dt, a, b):
        # exact identity; each side carries its own floating rounding
        params = bath_from_gamma(1.0, n_thermal)
        whole = survival_product(params, k, dt, a + b)
        split = survival_product(params, k, dt, a) * survival_product(params, k, dt, b)
        assert abs(whole - split) <= 1e-13 * abs(whole)

    def test_gap_to_exponential_shrinks_with_interval(self):
        gaps = []
        for x in (0.1, 0.01, 0.001):
            product = survival_product(PARAMS, 0, x, round(1.0 / x))
            gaps.append(abs(product - survival_exponential(PARAMS, 0, 1.0)))
            assert gaps[-1] <= x
        assert gaps[0] > gaps[1] > gaps[2]


class TestZenoTimes:
    def test_default_point(self):
        report = zeno_times(PARAMS)
        assert report.tau == 1.0
        assert report.tau_0 == pytest.approx(10.0, rel=1e-12)
        assert report.tau_1 == pytest.approx(1.0 / 0.9, rel=1e-12)
        assert report.slowdown_0 == pytest.approx(10.0, rel=1e-12)

    def test_symmetric_point(self):
        report = zeno_times(bath_from_gamma(1.0, 0.5))
        assert report.tau_0 == pytest.approx(2.0, rel=1e-12)
        assert report.tau_1 == pytest.approx(2.0, rel=1e-12)

    def test_rate_scaling(self):
        report = zeno_times(bath_from_gamma(2.0, 0.1))
        assert report.tau == pytest.approx(0.5, rel=1e-12)
        assert report.tau_0 == pytest.approx(5.0, rel=1e-12)

    def test_degenerate_occupancy_warns(self):
        with pytest.warns(ZenoDomainWarning):
            report = zeno_times(bath_from_gamma(1.0, 1.0))
        assert math.isinf(report.tau_1)
        with pytest.warns(ZenoDomainWarning):
            report = zeno_times(bath_from_gamma(1.0, 1.5))
        assert report.tau_1 < 0  # reported unclipped

    def test_zero_emission_warns_with_infinite_tau_0(self):
        with pytest.warns(ZenoDomainWarning):
            report = zeno_times(BathParams(0.0, 1.0))
        assert report.tau == 1.0 and report.tau_1 == 1.0
        assert math.isinf(report.tau_0) and math.isinf(report.slowdown_0)

    def test_slowdowns_exceed_one_below_unit_occupancy(self):
        for nth in (0.05, 0.3, 0.7, 0.95):
            report = zeno_times(bath_from_gamma(1.3, nth))
            assert report.slowdown_0 > 1.0
            assert report.slowdown_1 > 1.0


class TestExactBinMarginals:
    """Each engine against the exact law of its readouts on a coarse partition."""

    @pytest.mark.parametrize("engine", ["luders", "gillespie"])
    def test_step_bin_frequencies_match_the_chain(self, engine):
        # Readouts do not change the diagonal on average, so step m's bin
        # frequencies estimate the bin sums of T^m p0 with T = expm(dt * Q).
        # Each of the 20 steps x 3 bins is a normal-approximation z test, at a
        # Sidak per-test level that makes the family-wise level 1e-3 (Sidak
        # 1967: valid for correlated two-sided normal tests).
        from scipy.linalg import expm

        params, trunc, dt, steps, n_traj = bath_from_gamma(1.0, 0.5), 10, 0.3, 20, 20_000
        partition = ProjectorPartition(trunc, ((0,), (1, 2), tuple(range(3, trunc + 1))))
        sched = MeasurementSchedule(dt, steps, partition)
        outcomes = run_ensemble(params, sched, 1, trunc, n_traj, 2024, engine=engine).outcomes
        tmat = expm(dt * build_generator(params, trunc).rate_matrix())
        weights, exact = pure_level(1, trunc).weights, []
        for _ in range(steps):
            weights = tmat @ weights
            exact.append([weights[list(b)].sum() for b in partition.bins])
        exact = np.array(exact)
        freq = np.stack([(outcomes == j).mean(axis=0) for j in range(partition.n_bins)], axis=1)
        z = np.abs(freq - exact) / np.sqrt(exact * (1.0 - exact) / n_traj)
        per_test = 1.0 - (1.0 - 1e-3) ** (1.0 / z.size)
        assert z.max() <= NormalDist().inv_cdf(1.0 - per_test / 2.0)

    @pytest.mark.parametrize(
        "engine,initial",
        [("luders", "thermal"), ("luders", 1), ("gillespie", 1)],
        ids=["luders-thermal", "luders-level-1", "gillespie-level-1"],
    )
    def test_bin_sequences_match_the_forward_filter(self, engine, initial):
        # The joint law of a record's first m bins, with the Lüders collapse
        # as the oracle (coarse_sequence_law): one chi-square goodness-of-fit
        # test over the 3**5 sequences, at level 1e-3, the sequences expected
        # fewer than 5 times pooled into one cell.  A sampler that drew each
        # bin from its step's marginal alone passes the test above and fails
        # this one.
        from scipy.linalg import expm
        from scipy.stats import chi2

        params, trunc, dt, steps, n_traj = bath_from_gamma(1.0, 0.5), 10, 0.3, 5, 20_000
        partition = ProjectorPartition(trunc, ((0,), (1, 2), tuple(range(3, trunc + 1))))
        start = thermal_populations(params, trunc) if initial == "thermal" else pure_level(initial, trunc)
        sched = MeasurementSchedule(dt, steps, partition)
        outcomes = run_ensemble(params, sched, start, trunc, n_traj, 2024, engine=engine).outcomes
        tmat = expm(dt * build_generator(params, trunc).rate_matrix())
        law = coarse_sequence_law(tmat, start, partition, steps)
        shape = (partition.n_bins,) * steps
        seen = np.bincount(np.ravel_multi_index(outcomes.T, shape), minlength=partition.n_bins**steps)
        expected = np.zeros(seen.size)
        for sequence, chance in law.items():
            expected[np.ravel_multi_index(sequence, shape)] = n_traj * chance
        assert seen[expected == 0.0].sum() == 0
        rare = expected < 5.0
        observed = np.append(seen[~rare], seen[rare].sum())
        want = np.append(expected[~rare], expected[rare].sum())
        assert rare.any() and want.size > 50
        statistic = ((observed - want) ** 2 / want).sum()
        assert chi2.sf(statistic, want.size - 1) > 1e-3


class TestEnsemble:
    def test_singleton_matches_single_trajectory(self):
        # trajectory i alone is the ensemble of one at first_index = i
        sched = MeasurementSchedule(0.5, 30, ProjectorPartition.fine(2))
        for engine in ("luders", "gillespie"):
            whole = run_ensemble(PARAMS, sched, 0, 2, 5, 11, engine=engine)
            for i, row in enumerate(whole.outcomes):
                single = run_ensemble(PARAMS, sched, 0, 2, 1, 11, engine=engine, first_index=i)
                assert single.first_index == i
                assert np.array_equal(single.outcomes[0], row)
            assert np.unique(whole.outcomes, axis=0).shape[0] > 1

    @pytest.mark.parametrize(
        "params,partition,initial,n_traj,steps",
        [
            (PARAMS, ProjectorPartition.fine(3), thermal_populations(PARAMS, 3), 12, 40),
            (
                PARAMS,
                ProjectorPartition(5, ((0, 1), (2, 3), (4, 5))),
                thermal_populations(bath_from_gamma(1.0, 0.8), 5),
                12,
                40,
            ),
            (PARAMS, coarse_partition(20), 0, 12, 40),
            # the level changes at nearly every readout
            (bath_from_gamma(1.0, 5.0), ProjectorPartition.fine(40), 7, 12, 40),
            # one row of 5000 readouts, walked from leave to leave
            (PARAMS, ProjectorPartition.fine(3), 0, 1, 5000),
        ],
        ids=["fine", "block", "coarse", "fine-high-jump", "fine-long"],
    )
    def test_engine_matches_reference_loop(self, params, partition, initial, n_traj, steps):
        # under any partition the record is the fine loop's read through level_bin
        trunc = partition.truncation
        sched = MeasurementSchedule(0.3, steps, partition)
        ens = run_ensemble(params, sched, initial, trunc, n_traj, 42)
        start = pure_level(initial, trunc) if isinstance(initial, int) else initial
        fine = MeasurementSchedule(0.3, steps, ProjectorPartition.fine(trunc))
        for i, row in enumerate(ens.outcomes):
            assert np.array_equal(row, partition.level_bin[reference_loop(params, fine, start, trunc, (42, i))])

    @pytest.mark.parametrize(
        "partition,engine,steps",
        [
            (ProjectorPartition.fine(4), "gillespie", 30),
            (ProjectorPartition.fine(4), "luders", 30),
            (coarse_partition(4), "luders", 30),
            # past VECTOR_STEPS: per-row Generator draws, fewer rows per block
            (ProjectorPartition.fine(4), "luders", streams.VECTOR_STEPS + 1),
            (ProjectorPartition.fine(4), "luders", 500),
            (coarse_partition(4), "luders", 250),
        ],
        ids=["gillespie", "fine", "coarse", "fine-long", "fine-one-row-blocks", "coarse-long"],
    )
    def test_row_blocks_do_not_change_outcomes(self, monkeypatch, partition, engine, steps):
        sched = MeasurementSchedule(0.2, steps, partition)
        whole = run_ensemble(PARAMS, sched, 1, 4, 23, 5, engine=engine)
        monkeypatch.setattr(streams, "BLOCK_ROWS", 5)
        blocked = run_ensemble(PARAMS, sched, 1, 4, 23, 5, engine=engine)
        assert np.array_equal(whole.outcomes, blocked.outcomes)

    def test_long_rows_come_in_fewer_per_block(self, monkeypatch):
        def block_rows(steps):
            return next(streams._blocks(0, 0, 10**6, steps))[1]

        assert block_rows(1) == block_rows(streams.VECTOR_STEPS) == 4096
        assert block_rows(1000) == 786
        assert block_rows(10**7) == 1
        monkeypatch.setattr(streams, "BLOCK_ROWS", 5)
        assert [block_rows(s) for s in (30, streams.VECTOR_STEPS + 1, 250, 500)] == [5, 4, 3, 1]

    def test_long_rows_run_in_bounded_memory(self):
        # numpy reports its buffers to tracemalloc.  The 4 MB of outcomes, one
        # block of at most 4096 * 192 uniforms (6.3 MB) and the engine's
        # working arrays (under 2 MB) fit; two blocks at once, or all 2000
        # rows of 1000 steps in one (16 MB of uniforms), do not.
        sched = MeasurementSchedule(0.01, 1000, ProjectorPartition.fine(40))
        tracemalloc.start()
        try:
            run_ensemble(PARAMS, sched, 0, 40, 2000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    def test_one_long_row_runs_in_bounded_memory(self):
        # one Lüders row of 4e6 readouts is drawn and walked in chunks of
        # BLOCK_ROWS * VECTOR_STEPS uniforms (6.3 MB); the row's 32 MB of
        # uniforms at once, or two chunks, do not fit
        sched = MeasurementSchedule(0.01, 4_000_000, ProjectorPartition.fine(1))
        tracemalloc.start()
        try:
            run_ensemble(PARAMS, sched, 0, 1, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * streams.BLOCK_ROWS * streams.VECTOR_STEPS

    def test_jump_blocks_run_in_bounded_memory(self, monkeypatch):
        # a busy jump ensemble (about 1.1 jumps a readout) in 16 blocks, on
        # the fine partition and on {0} | {1..40}.  An entry is a jump or a
        # path's initial level at time 0.0, as _read_out gets them.  A block's
        # entries take about 35 bytes each while they are drawn and read out
        # (a float and an int16 level in typed buffers, then the read-out
        # arrays, and on the coarse partition their bins), and the block is
        # joined into runs (about 0.4 an entry on the fine partition, 10 bytes
        # each) before the next is drawn.  So the peak, about 8 bytes an
        # entry, is one block's 1/16 of the former plus the ensemble's runs,
        # joined once and then checked and kept as they are.  Entries drawn
        # into lists of Python floats and ints peaked at 19 to 26; blocks that
        # kept their 16-byte entries until the join at 57 to 64.
        read_out = protocol._read_out

        def recorder(times, levels, *args):
            entries.append(levels.size)
            return read_out(times, levels, *args)

        monkeypatch.setattr(protocol, "_read_out", recorder)
        monkeypatch.setattr(streams, "BLOCK_ROWS", 64)
        for partition in (ProjectorPartition.fine(40), coarse_partition(40)):
            entries, sched = [], MeasurementSchedule(0.1, 100, partition)
            tracemalloc.start()
            try:
                run_ensemble(bath_from_gamma(1.0, 2.0), sched, 0, 40, 1024, 0, engine="gillespie")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(entries) > 100_000 and peak < 16 * sum(entries)
            assert len(entries) == 16

    def test_coarse_row_in_chunks_matches_its_block(self, monkeypatch):
        # rows of 1000 steps in one block, then each alone in chunks of 384
        # uniforms, its state carried from chunk to chunk
        sched = MeasurementSchedule(0.3, 1000, coarse_partition(4))
        whole = run_ensemble(PARAMS, sched, 1, 4, 3, 5)
        monkeypatch.setattr(streams, "BLOCK_ROWS", 2)
        assert [rows for _, rows, _ in streams._blocks(5, 0, 3, sched.steps)] == [1, 1, 1]
        chunked = run_ensemble(PARAMS, sched, 1, 4, 3, 5)
        assert np.array_equal(whole.starts, chunked.starts) and np.array_equal(whole.bins, chunked.bins)
        assert whole.bins.size > 10

    def test_coarse_block_packs_its_runs_in_the_memory_of_its_uniforms(self):
        # one full coarse block, 4096 rows of 192 steps: its uniforms (6.3 MB)
        # and at most as much again.  The fine scan's window masks and its
        # runs' levels, read through level_bin and joined, fit; intp
        # temporaries the size of the block, at 8 bytes a readout each, do not.
        sched = MeasurementSchedule(0.01, streams.VECTOR_STEPS, ProjectorPartition(2, ((0,), (1, 2))))
        rows = streams.BLOCK_ROWS
        tracemalloc.start()
        try:
            run_ensemble(PARAMS, sched, 0, 2, rows, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * rows * streams.VECTOR_STEPS

    def test_same_master_seed_is_bit_identical(self):
        sched = MeasurementSchedule(0.05, 50, ProjectorPartition.fine(1))
        a = run_ensemble(PARAMS, sched, 0, 1, 64, 3)
        b = run_ensemble(PARAMS, sched, 0, 1, 64, 3)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_disjoint_index_ranges_do_not_collide(self):
        # near-stationary sampling makes records diverse: duplicated outcome
        # tuples across disjoint ranges would mean overlapping streams
        # (chance collision probability is below 1e-2 for this geometry)
        params = bath_from_gamma(1.0, 0.5)
        sched = MeasurementSchedule(5.0, 30, ProjectorPartition.fine(1))
        low = run_ensemble(params, sched, 0, 1, 50, 13, first_index=0)
        high = run_ensemble(params, sched, 0, 1, 50, 13, first_index=50)
        sequences = {tuple(row) for row in np.concatenate((low.outcomes, high.outcomes)).tolist()}
        assert len(sequences) == 100
        assert high.first_index == 50

    @pytest.mark.parametrize(
        "partition,engine",
        [
            (ProjectorPartition.fine(4), "gillespie"),
            (ProjectorPartition.fine(4), "luders"),
            (coarse_partition(4), "luders"),
        ],
        ids=["gillespie", "fine", "coarse"],
    )
    def test_first_index_split_concatenates(self, partition, engine):
        # trajectories 0..k and k..n run apart equal 0..n run at once, bit for bit
        sched = MeasurementSchedule(0.2, 60, partition)
        whole = run_ensemble(PARAMS, sched, 1, 4, 70, 5, engine=engine)
        low = run_ensemble(PARAMS, sched, 1, 4, 23, 5, engine=engine)
        high = run_ensemble(PARAMS, sched, 1, 4, 47, 5, engine=engine, first_index=23)
        assert (low.first_index, high.first_index) == (0, 23)
        assert np.array_equal(whole.outcomes, np.concatenate((low.outcomes, high.outcomes)))

    @pytest.mark.parametrize("engine", ["luders", "gillespie"])
    def test_rejects_partition_truncation_mismatch(self, engine):
        sched = MeasurementSchedule(0.01, 20, ProjectorPartition.fine(3))
        with pytest.raises(ValueError, match="partition truncation"):
            run_ensemble(PARAMS, sched, 0, 5, 100, 0, engine=engine)

    @pytest.mark.parametrize("engine", ["luders", "gillespie"])
    def test_rejects_initial_truncation_mismatch(self, engine):
        sched = MeasurementSchedule(0.01, 5, ProjectorPartition.fine(3))
        with pytest.raises(ValueError, match="initial truncation 10 != requested truncation 3"):
            run_ensemble(PARAMS, sched, pure_level(2, 10), 3, 2, 0, engine=engine)
        with pytest.raises(ValueError, match="level 4 outside 0..3"):
            run_ensemble(PARAMS, sched, 4, 3, 2, 0, engine=engine)

    def test_rejects_bad_engine_and_size(self):
        sched = MeasurementSchedule(0.05, 5, ProjectorPartition.fine(1))
        with pytest.raises(ValueError):
            run_ensemble(PARAMS, sched, 0, 1, 0, 0)
        with pytest.raises(ValueError):
            run_ensemble(PARAMS, sched, 0, 1, 5, 0, engine="euler")

    @pytest.mark.parametrize("engine", ["luders", "gillespie"])
    def test_rejects_non_integer_n_traj(self, engine):
        # a float count would fail later, inside the block layout
        sched = MeasurementSchedule(0.05, 5, ProjectorPartition.fine(1))
        with pytest.raises(ValueError, match="n_traj must be an integer"):
            run_ensemble(PARAMS, sched, 0, 1, 2.5, 0, engine)
        assert run_ensemble(PARAMS, sched, 0, 1, np.int64(2), 0, engine).outcomes.shape == (2, 5)

    def test_gillespie_rejects_mixed_initial_state(self):
        sched = MeasurementSchedule(0.05, 5, ProjectorPartition.fine(1))
        with pytest.raises(ValueError):
            run_ensemble(PARAMS, sched, thermal_populations(PARAMS, 1), 1, 5, 0, engine="gillespie")
