"""Random streams of the trajectory engines: the seed contract and the
block layout.

Reproducibility contract: trajectory i of an ensemble draws from a private
stream derived as ``SeedSequence((master_seed, i))`` feeding PCG64 (see
:data:`SEED_DERIVATION`).  :func:`_streams` sets one Generator to each
stream in turn; :func:`_uniforms` draws a block of rows' uniforms at once,
running SeedSequence and PCG64 in numpy uint64 arithmetic bit for bit as
numpy's own classes do.  :func:`_blocks` cuts an ensemble into the blocks
that both engines run one at a time, so that one block bounds their working
memory; the engines read no layout name.  This module imports only numpy.
"""

from __future__ import annotations

import numpy as np

# Documented stream-derivation mixer; echoed in CLI output metadata.
SEED_DERIVATION = "numpy SeedSequence((master_seed, trajectory_index)) -> PCG64"

# Trajectories per block, for rows of at most VECTOR_STEPS steps (:func:`_blocks`).
BLOCK_ROWS = 4096

# numpy.random.SeedSequence's hash constants (pool of four uint32 words) and
# the multiplier of PCG64's 128-bit LCG (O'Neill 2014).
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Rows of at most this many steps are drawn by PCG64 in numpy arithmetic,
# longer ones by a per-row Generator: the numpy draw costs more per double
# but saves the Generator's fixed cost per row.  bench/layers.py measures
# the crossover (150 steps at 4096 rows on a 2-vCPU Xeon VM).
VECTOR_STEPS = 192
# The numpy draw fills (rows, width) tiles of about _TILE_ELEMENTS, with the
# fewest tiles of at most _TILE_WIDTH steps per row, all of one width.
_TILE_WIDTH = 16
_TILE_ELEMENTS = 1 << 14


def _int_words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative integer."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` applied column-wise: ``entropy[j][r]`` is
    word j of row r's entropy, and every row has the same word count."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_words(master_seed: int, first_index: int, n: int) -> np.ndarray:
    """``SeedSequence((master_seed, i)).generate_state(4, np.uint64)`` for
    ``i = first_index .. first_index + n - 1``, as an ``(n, 4)`` array."""
    if master_seed < 0 or first_index < 0:
        raise ValueError("master_seed and trajectory_index must be non-negative")
    if first_index + n > 1 << 64:
        raise ValueError("trajectory indices must be below 2**64")
    index = np.uint64(first_index) + np.arange(n, dtype=np.uint64)
    low = (index & np.uint64(_MASK32)).astype(np.uint32)
    high = (index >> np.uint64(32)).astype(np.uint32)
    master = [np.full(n, w, dtype=np.uint32) for w in _int_words(master_seed)]
    # An index below 2**32 is one entropy word, a larger one two.
    split = min(n, max(0, (1 << 32) - first_index))
    pools = [
        _seed_pool([w[rows] for w in master + words])
        for rows, words in ((slice(0, split), [low]), (slice(split, n), [low, high]))
        if rows.start < rows.stop
    ]
    pool = [np.concatenate([p[j] for p in pools]) for j in range(_POOL_SIZE)]
    hash_const = _INIT_B
    state = []
    for j in range(2 * 4):
        value = pool[j % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)


# 128-bit integers in numpy: a (high, low) pair of uint64 arrays or scalars.
# Every operand is uint64, so the arithmetic wraps mod 2**64 the same way
# under numpy 1.x value-based casting and numpy 2 (NEP 50) promotion.
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_MULT = tuple(np.uint64(v) for v in divmod(_PCG64_MULT, 1 << 64))


def _u128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Python integers mod 2**128 as a 128-bit pair of arrays."""
    high, low = zip(*(divmod(v & _MASK128, 1 << 64) for v in values))
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


def _mulhi64(a, b):
    """High 64 bits of the 128-bit product of uint64s ``a * b``, from 32-bit
    limbs (Warren, Hacker's Delight, mulhu)."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    t = a1 * b0 + (a0 * b0 >> _SHIFT32)
    w = (t & _LOW32) + a0 * b1
    return a1 * b1 + (t >> _SHIFT32) + (w >> _SHIFT32)


def _mul128(x, y):
    """``x * y mod 2**128``; never both scalars (numpy warns when a scalar
    product wraps)."""
    (xh, xl), (yh, yl) = x, y
    return _mulhi64(xl, yl) + xl * yh + xh * yl, xl * yl


def _add128(x, y):
    """``x + y mod 2**128``."""
    (xh, xl), (yh, yl) = x, y
    low = xl + yl
    return xh + yh + (low < yl), low


def _srandom(words: np.ndarray):
    """PCG64's seeding from :func:`_seed_words` rows ``(initstate high, low,
    initseq high, low)``: ``inc = 2*initseq + 1`` and ``state = (initstate +
    inc) * mult + inc``.  Returns ``(state, inc)`` as 128-bit pairs."""
    seq_high, seq_low = words[:, 2], words[:, 3]
    inc = (seq_high << np.uint64(1) | seq_low >> np.uint64(63), seq_low << np.uint64(1) | np.uint64(1))
    state = _add128(_mul128(_add128((words[:, 0], words[:, 1]), inc), _MULT), inc)
    return state, inc


# A_k = mult**k and C_k = sum_{j<k} mult**j for k = 1.._TILE_WIDTH: k steps
# of the LCG take state s to A_k*s + C_k*inc (Brown 1994).
_JUMP_A = _u128([_PCG64_MULT**k for k in range(1, _TILE_WIDTH + 1)])
_JUMP_C = _u128([sum(_PCG64_MULT**j for j in range(k)) for k in range(1, _TILE_WIDTH + 1)])


def _doubles(state) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as ``Generator.random`` doubles."""
    high, low = state
    value = high ^ low
    rot = high >> np.uint64(58)
    value = value >> rot | value << ((np.uint64(64) - rot) & np.uint64(63))
    return (value >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _streams(master_seed: int, first_index: int, n: int):
    """One reused Generator, set in turn to the stream of each trajectory
    ``first_index .. first_index + n - 1``.

    Contract: the k-th Generator yielded, however it is drawn from, produces
    bit for bit what ``np.random.Generator(np.random.PCG64(
    np.random.SeedSequence((master_seed, first_index + k))))`` would.  The
    states of all n come at once from the same vectorized :func:`_srandom`
    as the numpy draw of :func:`_uniforms`.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state, inc = _srandom(_seed_words(master_seed, first_index, n))
    for state_high, state_low, inc_high, inc_low in np.stack(state + inc, axis=1).tolist():
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_high << 64 | state_low, "inc": inc_high << 64 | inc_low},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _row_uniforms(master_seed: int, index: int, steps: int):
    """Trajectory ``index``'s first ``steps`` uniforms, in consecutive chunks
    of at most ``BLOCK_ROWS * VECTOR_STEPS``, each drawn by the row's
    Generator (:func:`_streams`) into one reused buffer: a chunk is
    overwritten by the next.  Chunked ``Generator.random`` calls give the
    same doubles as one call."""
    rng = next(_streams(master_seed, index, 1))
    buffer = np.empty(min(steps, BLOCK_ROWS * VECTOR_STEPS))
    for start in range(0, steps, buffer.size):
        chunk = buffer[: steps - start]
        rng.random(out=chunk)
        yield chunk


def _uniforms(master_seed: int, first_index: int, n: int, steps: int) -> np.ndarray:
    """``(n, steps)`` array whose row r is the first ``steps`` uniforms of
    trajectory ``first_index + r``'s stream.

    Contract: row r is bit for bit ``.random(steps)`` of the Generator
    ``np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed,
    first_index + r))))``, for every n, steps and index range.  Rows of more
    than :data:`VECTOR_STEPS` steps are drawn by a per-row Generator
    (:func:`_streams`).  Shorter ones run PCG64 in numpy over the whole block
    without a loop over rows: ``(rows, w)`` tiles whose first is
    ``A_k*s0 + C_k*inc`` for k = 1..w, each later one the previous stepped by
    the constant ``s -> A_w*s + C_w*inc``.  A row takes the fewest tiles of
    at most :data:`_TILE_WIDTH` steps, ``t = ceil(steps / 16)``, all of
    width ``w = ceil(steps / t)``, so its last tile steps the LCG fewer than
    t times past the row's end (100 steps: 7 tiles of 15, not 7 of 16).
    """
    out = np.empty((n, steps))
    if steps > VECTOR_STEPS:
        for row, rng in zip(out, _streams(master_seed, first_index, n)):
            rng.random(out=row)
        return out
    state, inc = _srandom(_seed_words(master_seed, first_index, n))
    tiles = -(-steps // _TILE_WIDTH)
    width = -(-steps // tiles)
    jump_a, jump_c = ((high[:width], low[:width]) for high, low in (_JUMP_A, _JUMP_C))
    step_a, step_c = ((high[width - 1], low[width - 1]) for high, low in (_JUMP_A, _JUMP_C))
    tile_rows = max(1, _TILE_ELEMENTS // width)
    for start in range(0, n, tile_rows):
        rows = slice(start, start + tile_rows)
        seed = tuple(s[rows, None] for s in state)
        row_inc = tuple(i[rows, None] for i in inc)
        tile = _add128(_mul128(seed, jump_a), _mul128(row_inc, jump_c))
        shift = _mul128(row_inc, step_c)
        for col in range(0, steps, width):
            if col:
                tile = _add128(_mul128(tile, step_a), shift)
            stop = min(col + width, steps)
            out[rows, col:stop] = _doubles(tuple(t[:, : stop - col] for t in tile))
    return out


def _blocks(master_seed: int, first_index: int, n: int, steps: int):
    """Trajectories ``first_index .. first_index + n - 1`` in blocks of rows
    ``first_row .. first_row + rows - 1``, as ``(first_row, rows, chunks)``.

    A block holds :data:`BLOCK_ROWS` rows, and for rows longer than
    :data:`VECTOR_STEPS` as many as hold ``BLOCK_ROWS * VECTOR_STEPS``
    uniforms, or one row alone when it holds more.  Iterating ``chunks``
    draws the block's first ``steps`` uniforms: one ``(rows, steps)`` array
    (:func:`_uniforms`), or one row's consecutive pieces
    (:func:`_row_uniforms`).  Nothing is drawn for a block whose chunks are
    not iterated (the jump engine's, drawn from :func:`_streams`)."""

    def chunks(index: int, rows: int):
        if rows > 1:
            yield _uniforms(master_seed, index, rows, steps)
        else:
            yield from _row_uniforms(master_seed, index, steps)

    block_rows = min(BLOCK_ROWS, max(1, BLOCK_ROWS * VECTOR_STEPS // steps))
    for start in range(0, n, block_rows):
        rows = min(block_rows, n - start)
        yield start, rows, chunks(first_index + start, rows)
