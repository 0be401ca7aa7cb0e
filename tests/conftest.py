import dataclasses

import numpy as np
import pytest

from skirmish.engine import CATALOG, EngineConfig, Team, new_world
from skirmish.learners import TeamEpisode, pack_masks, pack_rows, unpack_rows
from skirmish.scenario import ScenarioSpec, get_scenario


def make_world(units, config=None, arena=(32.0, 32.0)):
    """Build a world from (spec_name, team, (x, y)) triples in map coords."""
    members = [(CATALOG[name], team) for name, team, _ in units]
    positions = [pos for _, _, pos in units]
    return new_world(members, positions, config or EngineConfig(), arena=arena)


def zero_jitter(name):
    return dataclasses.replace(get_scenario(name), spawn_spread=0.0)


def tiny_scenario(red=("marine", 2), blue=("marine", 2), step_limit=40, arena=(32.0, 32.0)):
    return ScenarioSpec(
        name="custom",
        red_composition=((CATALOG[red[0]], red[1]),),
        blue_composition=((CATALOG[blue[0]], blue[1]),),
        arena=arena,
        episode_step_limit=step_limit,
        spawn_spread=0.0,
    )


def compact_episode(obs, state, masks, actions, rewards) -> TeamEpisode:
    """The episode of dense ``(T+1, A, L)`` observations, ``(T+1, S)`` states and ``(T+1, A, nA)`` masks.

    It is stored as the recorder stores it: observations and states by
    ``pack_rows``, and masks by ``pack_masks``.
    """
    obs = np.asarray(obs, dtype=np.float32)
    live = obs.any(axis=-1)
    return TeamEpisode(~live, *pack_rows(obs[live]), *pack_rows(np.asarray(state, dtype=np.float32)),
                       masks=pack_masks(masks), actions=actions, rewards=rewards)


def dense_obs(episode: TeamEpisode, obs_len: int) -> np.ndarray:
    """The ``(T+1, A, obs_len)`` observations of ``episode``, blank rows as zeros."""
    live = np.zeros((len(episode.obs_bits), obs_len), dtype=np.float32)
    unpack_rows(episode.obs_bits, episode.obs_values, live)
    out = np.zeros((*episode.blank.shape, obs_len), dtype=np.float32)
    out[~episode.blank] = live
    return out


def dense_state(episode: TeamEpisode, state_len: int) -> np.ndarray:
    """The ``(T+1, state_len)`` states of ``episode``."""
    out = np.zeros((len(episode.state_bits), state_len), dtype=np.float32)
    unpack_rows(episode.state_bits, episode.state_values, out)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(0)
