"""Every random stream of a run: `generator` for one spawn key, `episode_seed`,
`spawn_generators` for the market agents, one generator each, and
`copy_generator` for a forked session's copy of a stream. For the agents
``np.random.default_rng(SeedSequence(entropy=seed, spawn_key=(key, i)))``
costs tens of microseconds per generator, most of it in ``SeedSequence``'s
Python-level hashing. `spawn_states` runs numpy's own algorithm (the
entropy pool, its hash constants and ``generate_state``) once over uint32
arrays for every ``i``, and `spawn_generators` seeds each ``PCG64`` with a
precomputed row. Tests pin the rows against live ``SeedSequence`` objects,
so a numpy change to the algorithm fails them, not the simulator's output.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(n: int) -> list[int]:
    """n as little-endian uint32 words, as ``SeedSequence`` reads an int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _Hash:
    """numpy's running ``hashmix``: each call advances the hash constant."""

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * _MULT_A & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def spawn_states(seed: int, key: int, ids) -> np.ndarray:
    """Row j is ``SeedSequence(entropy=seed, spawn_key=(key, ids[j]))
    .generate_state(4, np.uint64)``; ``key`` and each id fit one uint32 word."""
    ids = np.asarray(ids, dtype=np.int64)
    if not 0 <= key <= _MASK32 or ((ids < 0) | (ids > _MASK32)).any():
        raise ValueError("spawn key words must lie in [0, 2**32)")
    # with a spawn key present, the run entropy is zero-padded to the pool size
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.array([w], np.uint32) for w in (*run, key)]
    entropy.append(ids.astype(np.uint32))

    hashmix = _Hash()
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    state = np.empty((ids.size, 2 * _POOL_SIZE), np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


_DUMMY_ROW = np.zeros(4, np.uint64)  # any row: `copy_generator` overwrites it


class _State:
    """One precomputed ``generate_state(4, np.uint64)`` row, for PCG64, which
    takes it once `spawn_generators` has registered it as an ``ISeedSequence``."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"PCG64 asked for generate_state({n_words}, {dtype}); the "
                "precomputed seeding only holds (4, uint64)")
        return self._state


def spawn_generators(seed: int, key: int, ids) -> list[np.random.Generator]:
    """``default_rng(SeedSequence(entropy=seed, spawn_key=(key, i)))`` for
    each i in ids, with identical streams."""
    # numpy.random loads on first use, not with numpy, so importing this
    # module must not load it: the set-up time of every command would grow
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_State)
    return [np.random.Generator(np.random.PCG64(_State(row)))
            for row in spawn_states(seed, key, ids)]


def copy_generator(rng: np.random.Generator) -> np.random.Generator:
    """A new generator that draws exactly what ``rng`` would draw next.

    The copy's bit generator is seeded from a dummy precomputed row, which
    skips ``SeedSequence``, then takes ``rng``'s bit-generator state, the
    buffered 32-bit half included: about 6 µs against ``deepcopy``'s 35 µs
    (2-vCPU Xeon VM, numpy 2.4).
    """
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_State)
    bit_gen = rng.bit_generator
    twin = type(bit_gen)(_State(_DUMMY_ROW))
    twin.state = bit_gen.state
    return np.random.Generator(twin)


def generator(seed: int, *key: int) -> np.random.Generator:
    """``default_rng(SeedSequence(entropy=seed, spawn_key=key))``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def episode_seed(master_seed: int, episode: int) -> int:
    """The market seed of training episode ``episode``."""
    return int(np.random.SeedSequence((master_seed, episode)).generate_state(1)[0])
