"""Pins `lobexec._seeding` to numpy's own ``SeedSequence``.

The session builds its agents' generators from precomputed states, so a
numpy release that changes ``SeedSequence`` or PCG64 seeding must fail
here rather than silently move every simulator output.
"""

import numpy as np
import pytest

from lobexec._seeding import (
    _State,
    episode_seed,
    generator,
    spawn_generators,
    spawn_states,
)

IDS = np.arange(1, 1116)  # the default population's agent ids

# 2**32 + 5, 2**64 + 3 and 2**128 + 1 take two, three and five uint32
# words; five is more than the entropy pool's four.
SEEDS = [0, 1, 7, 2**32 - 1, 2**32 + 5, 2**64 + 3, 2**128 + 1]


# every spawn key a run uses: 1 the fundamental path, 4 the training policy,
# 5 the Q-network's initial weights, (7, id) an agent's oracle noise, 11 and
# 12 the passive and random policies (agents' (2, id) go through
# spawn_generators)
KEYS = [(1,), (4,), (5,), (7, 2), (7, 1115), (11,), (12,)]


def live_states(seed, key, ids):
    return np.array([np.random.SeedSequence(entropy=seed, spawn_key=(key, int(i)))
                     .generate_state(4, np.uint64) for i in ids])


@pytest.mark.parametrize("key", [1, 2, 7])
@pytest.mark.parametrize("seed", SEEDS)
def test_states_match_live_seed_sequence(seed, key):
    states = spawn_states(seed, key, IDS)
    assert states.dtype == np.uint64 and states.shape == (len(IDS), 4)
    np.testing.assert_array_equal(states, live_states(seed, key, IDS))


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_draw_as_default_rng(seed):
    ids = IDS[::111]
    for i, rng in zip(ids, spawn_generators(seed, 2, ids)):
        twin = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(2, int(i))))
        for _ in range(3):
            assert rng.random() == twin.random()
            assert rng.integers(10, 101) == twin.integers(10, 101)
            assert rng.exponential(60.0) == twin.exponential(60.0)
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("seed,key,ids", [
    (-1, 2, [1]),          # SeedSequence rejects a negative seed too
    (0, 2**32, [1]),       # a key word wider than 32 bits
    (0, 2, [2**32]),
    (0, 2, [-1]),
])
def test_out_of_range_words_rejected(seed, key, ids):
    with pytest.raises(ValueError):
        spawn_states(seed, key, ids)


def test_state_refuses_other_requests():
    state = _State(spawn_states(0, 2, [1])[0])
    with pytest.raises(RuntimeError):
        state.generate_state(8, np.uint32)
    with pytest.raises(RuntimeError):
        state.generate_state(4, np.uint32)


@pytest.mark.parametrize("key", KEYS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_generator_draws_as_default_rng(seed, key):
    rng = generator(seed, *key)
    twin = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.random() == twin.random()
    assert rng.standard_normal() == twin.standard_normal()


@pytest.mark.parametrize("seed", SEEDS)
def test_episode_seed_matches_seed_sequence(seed):
    for episode in (0, 1, 499):
        assert episode_seed(seed, episode) == int(
            np.random.SeedSequence((seed, episode)).generate_state(1)[0])
