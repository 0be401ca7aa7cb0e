"""Registry contents, layout generation and the config format."""

import dataclasses
import math

import pytest

from skirmish.engine import CATALOG
from skirmish.env import BattleEnv
from skirmish.scenario import (
    ArenaTooSmall,
    NonPositiveCount,
    ScenarioError,
    ScenarioSpec,
    UnknownBaseScenario,
    UnknownUnitName,
    builtin_scenarios,
    get_scenario,
    parse_scenario_config,
    scenario_config,
    spawn_layout,
)


EXPECTED_NAMES = {"3m", "8m", "25m", "MMM", "2s3z", "3s5z", "1c3s5z", "5m_vs_6m", "10m_vs_11m", "MMM2"}


def comp_names(comp):
    return [(s.name, c) for s, c in comp]


def test_registry_has_exactly_ten_entries():
    registry = builtin_scenarios()
    assert set(registry) == EXPECTED_NAMES


def test_registry_compositions():
    registry = builtin_scenarios()
    assert comp_names(registry["MMM2"].red_composition) == [("medivac", 1), ("marauder", 2), ("marine", 7)]
    assert comp_names(registry["MMM2"].blue_composition) == [("medivac", 1), ("marauder", 3), ("marine", 8)]
    assert registry["3m"].symmetric and registry["3m"].n_red == registry["3m"].n_blue == 3
    assert not registry["5m_vs_6m"].symmetric
    assert (registry["5m_vs_6m"].n_red, registry["5m_vs_6m"].n_blue) == (5, 6)
    assert registry["MMM"].n_red == registry["MMM"].n_blue == 10
    assert comp_names(registry["1c3s5z"].red_composition) == [("colossus", 1), ("stalker", 3), ("zealot", 5)]
    assert registry["25m"].n_red == 25
    symmetric = {name for name, spec in registry.items() if spec.symmetric}
    assert symmetric == {"3m", "8m", "25m", "MMM", "2s3z", "3s5z", "1c3s5z"}


def test_unknown_scenario():
    with pytest.raises(UnknownBaseScenario):
        get_scenario("4m")


def test_layout_point_reflection_exact():
    spec = get_scenario("3m")
    for seed in range(5):
        layout = spawn_layout(spec, seed)
        cx, cy = layout.center
        for (rx, ry), (bx, by) in zip(layout.red_positions, layout.blue_positions):
            assert bx == 2.0 * cx - rx and by == 2.0 * cy - ry
            assert math.isclose((rx + bx) / 2, cx, abs_tol=1e-12)
            assert math.isclose((ry + by) / 2, cy, abs_tol=1e-12)


def test_layout_zero_jitter_columns():
    layout = spawn_layout(dataclasses.replace(get_scenario("3m"), spawn_spread=0.0), seed=0)
    assert layout.red_positions == ((10.0, 14.0), (10.0, 16.0), (10.0, 18.0))
    assert layout.blue_positions == ((22.0, 18.0), (22.0, 16.0), (22.0, 14.0))
    # teams start outside each other's sight range
    closest = min(
        math.dist(r, b) for r in layout.red_positions for b in layout.blue_positions
    )
    assert closest > 9.0


def test_layout_deterministic_and_jitter_bounded():
    spec = get_scenario("8m")
    a = spawn_layout(spec, seed=123)
    b = spawn_layout(spec, seed=123)
    assert a == b
    c = spawn_layout(spec, seed=124)
    assert a != c
    clean = spawn_layout(dataclasses.replace(spec, spawn_spread=0.0), seed=123)
    for (jx, jy), (sx, sy) in zip(a.red_positions, clean.red_positions):
        assert abs(jx - sx) <= spec.spawn_spread and abs(jy - sy) <= spec.spawn_spread


def test_layout_asymmetric_counts():
    layout = spawn_layout(get_scenario("5m_vs_6m"), seed=1)
    assert len(layout.red_positions) == 5 and len(layout.blue_positions) == 6


def test_large_formation_wraps_files():
    layout = spawn_layout(dataclasses.replace(get_scenario("25m"), spawn_spread=0.0), seed=0)
    xs = {x for x, _ in layout.red_positions}
    assert xs == {10.0, 8.0}
    for x, y in layout.red_positions:
        assert 2.0 <= y <= 30.0


def test_arena_too_small():
    with pytest.raises(ArenaTooSmall):  # when the spec is built, not at its first spawn
        ScenarioSpec(
            name="cramped",
            red_composition=((CATALOG["marine"], 3),),
            blue_composition=((CATALOG["marine"], 3),),
            arena=(14.0, 14.0),
        )


@pytest.mark.parametrize("name,room", [("3m", 10.0), ("25m", 4.0)])
def test_spawn_spread_may_fill_the_room_between_formation_and_wall(name, room):
    spec = dataclasses.replace(get_scenario(name), spawn_spread=room)
    env = BattleEnv(spec)
    for seed in range(2_000):  # a spread past the wall failed on 3m's reset seed 25
        env.reset(seed)
    with pytest.raises(ScenarioError, match="spawn_spread must be at most"):
        dataclasses.replace(spec, spawn_spread=room + 0.01)


@pytest.mark.parametrize(
    "field,value",
    [
        ("episode_step_limit", 0), ("episode_step_limit", -3), ("episode_step_limit", 2.5),
        ("episode_step_limit", True), ("arena", "x"), ("arena", (32.0,)), ("arena", (32.0, 0.0)),
        ("arena", (-32.0, 32.0)), ("arena", (math.inf, 32.0)), ("arena", (math.nan, 32.0)),
        ("arena", (32.0, "32")), ("spawn_spread", -4.0), ("spawn_spread", math.nan), ("spawn_spread", "0"),
        ("red_composition", 5), ("red_composition", ()), ("red_composition", (("marine", 3),)),
        ("blue_composition", ((CATALOG["marine"], 0),)), ("blue_composition", ((CATALOG["marine"], 1.0),)),
        ("blue_composition", ((CATALOG["marine"],),)),
    ],
)
def test_spec_rejects_values_out_of_range(field, value):
    with pytest.raises(ScenarioError, match="must be"):
        dataclasses.replace(get_scenario("3m"), **{field: value})


def test_spec_accepts_the_edges_of_its_ranges():
    spec = dataclasses.replace(get_scenario("3m"), episode_step_limit=1, spawn_spread=0, arena=(24, 4))
    assert spec.episode_step_limit == 1 and spec.spawn_spread == 0
    BattleEnv(spec).reset(0)  # three files of one marine each, 2 from the wall
    for smaller in ((23.9, 4), (24, 3.9)):
        with pytest.raises(ArenaTooSmall):
            dataclasses.replace(spec, arena=smaller)


# -- config format -------------------------------------------------------------


def test_parse_override_counts():
    spec = parse_scenario_config("[scenario]\nbase = 8m\n\n[red]\nmarines = 9\n")
    assert spec.n_red == 9 and spec.n_blue == 8
    assert not spec.symmetric


def test_parse_identity():
    assert parse_scenario_config("[scenario]\nbase = 3m\n") == get_scenario("3m")


def test_parse_rejects_zero_count():
    with pytest.raises(NonPositiveCount):
        parse_scenario_config("[scenario]\nbase = 3m\n[red]\nmarines = 0\n")


def test_parse_rejects_unknown_unit():
    with pytest.raises(UnknownUnitName):
        parse_scenario_config("[scenario]\nbase = 3m\n[red]\nghosts = 1\n")


def test_parse_rejects_unknown_base_and_keys():
    with pytest.raises(UnknownBaseScenario):
        parse_scenario_config("[scenario]\nbase = 99m\n")
    with pytest.raises(ScenarioError):
        parse_scenario_config("[scenario]\nbase = 3m\nfog = 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario_config("[scenario]\nbase = 3m\n\n[weather]\nrain = 1\n")
    with pytest.raises(ScenarioError):  # engine mechanics are not set from scenario files
        parse_scenario_config("[scenario]\nbase = 3m\n\n[engine]\nstep_dt = 5.0\n")


def test_parse_adds_new_unit_type():
    spec = parse_scenario_config("[scenario]\nbase = 3m\n[red]\nmedivacs = 1\n")
    assert comp_names(spec.red_composition) == [("marine", 3), ("medivac", 1)]


def test_parse_scenario_overrides():
    text = "[scenario]\nbase = 3m\narena_width = 40\nepisode_step_limit = 99\nspawn_spread = 0\n"
    spec = parse_scenario_config(text)
    assert spec.arena == (40.0, 32.0)
    assert spec.episode_step_limit == 99
    assert spec.spawn_spread == 0.0


def test_parse_checks_the_whole_spec_once():
    grown = "[scenario]\nbase = 3m\n\n[red]\nmarines = 100\n"  # seven files of marines
    with pytest.raises(ArenaTooSmall):
        parse_scenario_config(grown)
    spec = parse_scenario_config(grown.replace("base = 3m\n", "base = 3m\narena_width = 48\n"))
    assert spec.n_red == 100 and spec.arena == (48.0, 32.0)


def test_round_trip_all_builtins():
    for name, spec in builtin_scenarios().items():
        assert parse_scenario_config(scenario_config(spec)) == spec
