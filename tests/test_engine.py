"""Combat-rule unit tests plus the independent re-simulation check."""

import math
from collections import namedtuple

import numpy as np
import pytest

from skirmish.engine import (
    CATALOG,
    COLOSSUS,
    MARAUDER,
    MARINE,
    MEDIVAC,
    STALKER,
    ZEALOT,
    ArmorClass,
    EngineConfig,
    Outcome,
    Team,
    step_world_arrays,
    terminal_status,
)

from conftest import make_world


# One order for one unit: the engine's command code, a world-frame move
# direction and the global index of the victim or patient.
Cmd = namedtuple("Cmd", "unit kind direction target", defaults=((0.0, 0.0), -1))
STOP, MOVE, ATTACK, HEAL = range(4)


def attack(unit, target):
    return Cmd(unit, ATTACK, target=target)


def move(unit, dx, dy):
    return Cmd(unit, MOVE, (dx, dy))


def map_pos(world, i):
    """Unit ``i``'s position in map coordinates (the world stores it centre-origin)."""
    return float(world.pos_x[i]) + world.half_w, float(world.pos_y[i]) + world.half_h


def stop(unit):
    return Cmd(unit, STOP)


def heal(unit, target):
    return Cmd(unit, HEAL, target=target)


def step(world, commands):
    """Lay ``commands`` out as the engine's arrays and advance one step; unlisted units stop."""
    n = world.n_units
    kind = np.zeros(n, dtype=np.int8)
    dir_x = np.zeros(n)
    dir_y = np.zeros(n)
    target = np.full(n, -1, dtype=np.int64)
    for cmd in commands:
        kind[cmd.unit] = cmd.kind
        dir_x[cmd.unit], dir_y[cmd.unit] = cmd.direction
        target[cmd.unit] = cmd.target
    return step_world_arrays(world, kind, dir_x, dir_y, target)


# -- damage table --------------------------------------------------------------


@pytest.mark.parametrize(
    "attacker,target,expected",
    [
        (MARAUDER, STALKER, 20.0),   # bonus vs armored
        (MARINE, MARINE, 6.0),
        (COLOSSUS, MARINE, 30.0),    # bonus vs light
        (STALKER, MARAUDER, 18.0),   # bonus vs armored
        (MARAUDER, MARINE, 10.0),    # light target: base damage
        (STALKER, ZEALOT, 13.0),
        (ZEALOT, STALKER, 16.0),
        (COLOSSUS, STALKER, 20.0),   # armored target: base damage
    ],
)
def test_compute_damage_table(attacker, target, expected):
    world = make_world([(attacker.name, Team.RED, (10.0, 16.0)), (target.name, Team.BLUE, (14.0, 16.0))])
    _, events = step(world, [attack(0, 1), stop(1)])
    assert events.red.damage_dealt == expected


def test_armor_classes_match_roster():
    assert MARINE.armor_class is ArmorClass.LIGHT
    assert ZEALOT.armor_class is ArmorClass.LIGHT
    for spec in (MARAUDER, MEDIVAC, STALKER, COLOSSUS):
        assert spec.armor_class is ArmorClass.ARMORED


def test_roster_invariants():
    for spec in CATALOG.values():
        assert spec.attack_range == 6.0
        assert spec.sight_range == 9.0
    assert MEDIVAC.is_healer and MEDIVAC.base_damage is None


# -- damage and healing, one step at a time ------------------------------------


def test_apply_damage_shield_first():
    world = make_world([("marine", Team.RED, (10.0, 16.0)), ("zealot", Team.BLUE, (14.0, 16.0))])
    world.time = 3.0
    nxt, events = step(world, [attack(0, 1), stop(1)])
    assert (nxt.health[1], nxt.shield[1]) == (100.0, 44.0)
    assert nxt.last_damaged[1] == 3.0
    assert events.red.damage_dealt == 6.0 and events.blue.damage_taken == 6.0


def test_apply_damage_overflow():
    world = make_world([("stalker", Team.RED, (10.0, 16.0)), ("stalker", Team.BLUE, (14.0, 16.0))])
    world.shield[1] = 10.0
    nxt, events = step(world, [attack(0, 1), stop(1)])
    assert (nxt.health[1], nxt.shield[1]) == (72.0, 0.0)  # 18 bonus damage, 10 absorbed
    assert events.red.damage_dealt == 18.0


def test_apply_damage_clamps_and_kills():
    world = make_world([("marine", Team.RED, (10.0, 16.0)), ("marine", Team.BLUE, (14.0, 16.0))])
    world.health[1] = 5.0
    nxt, events = step(world, [attack(0, 1), stop(1)])
    assert nxt.health[1] == 0.0 and not nxt.alive[1]
    assert events.red.damage_dealt == 5.0  # only the health that was there counts
    assert events.red.kills == 1 and events.blue.deaths == 1


def _medivac_world():
    world = make_world(
        [
            ("medivac", Team.RED, (10.0, 16.0)),
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.RED, (12.0, 18.0)),
            ("medivac", Team.RED, (10.0, 18.0)),
            ("marine", Team.BLUE, (30.0, 16.0)),
        ]
    )
    world.health[1] = 30.0
    return world


def test_apply_heal():
    world = _medivac_world()
    nxt, events = step(world, [heal(0, 1)])
    assert nxt.health[1] == 37.0
    assert events.red.heals == 7.0
    nxt, events = step(world, [heal(0, 2)])
    assert nxt.health[2] == 45.0  # clamped at max
    assert events.red.heals == 0.0


def test_apply_heal_rejects_bad_targets():
    # Enemies, healers and heals by non-healers are masked out by the env
    # (test_env::test_masks_keep_heals_among_allies_and_attacks_on_enemies).
    world = _medivac_world()
    world.alive[1] = False
    world.health[1] = 0.0
    nxt, events = step(world, [heal(0, 1)])
    assert nxt.health[1] == 0.0 and not nxt.alive[1]  # the dead are not healed
    assert events.red.heals == 0.0


# -- one step ----------------------------------------------------------------


def test_move_displacement():
    world = make_world([("marine", Team.RED, (10.0, 10.0)), ("marine", Team.BLUE, (30.0, 30.0))])
    nxt, _ = step(world, [move(0, 1.0, 0.0), stop(1)])
    assert map_pos(nxt, 0) == (11.125, 10.0)  # 2.25 speed x 0.5 dt
    assert nxt.time == 0.5 and nxt.step_count == 1


def test_mutual_kill_same_step():
    world = make_world([("marine", Team.RED, (10.0, 16.0)), ("marine", Team.BLUE, (14.0, 16.0))])
    world.health[:] = 6.0
    nxt, events = step(world, [attack(0, 1), attack(1, 0)])
    assert not nxt.alive.any()
    assert events.red.kills == 1 and events.blue.kills == 1
    assert terminal_status(nxt, 100) is Outcome.DRAW


def test_cooldown_set_on_fire():
    world = make_world([("marine", Team.RED, (10.0, 16.0)), ("marine", Team.BLUE, (14.0, 16.0))])
    nxt, events = step(world, [attack(0, 1), stop(1)])
    assert nxt.cooldown[0] == 0.86
    assert events.red.damage_dealt == 6.0
    # waiting in range: cooldown ticks down, no second shot until ready
    nxt2, ev2 = step(nxt, [attack(0, 1), stop(1)])
    assert ev2.red.damage_dealt == 0.0
    assert nxt2.cooldown[0] == pytest.approx(0.36)


def test_no_double_damage_within_period():
    world = make_world([("stalker", Team.RED, (10.0, 16.0)), ("zealot", Team.BLUE, (14.0, 16.0))])
    fire_times = []
    for k in range(12):
        world, events = step(world, [attack(0, 1), stop(1)])
        if events.red.damage_dealt > 0:
            fire_times.append(k * 0.5)
    assert fire_times, "never fired"
    gaps = np.diff(fire_times)
    assert (gaps >= STALKER.attack_period).all()


def test_attack_move_approach_then_fire():
    # out of range: approach along the line, no damage
    world = make_world([("marine", Team.RED, (0.0, 0.0)), ("marine", Team.BLUE, (8.0, 0.0))], arena=(64, 64))
    nxt, events = step(world, [attack(0, 1), stop(1)])
    assert map_pos(nxt, 0) == (1.125, 0.0)
    assert events.red.damage_dealt == 0.0

    # in range and ready: fires immediately without moving
    world = make_world([("marine", Team.RED, (0.0, 0.0)), ("marine", Team.BLUE, (5.0, 0.0))], arena=(64, 64))
    nxt, events = step(world, [attack(0, 1), stop(1)])
    assert map_pos(nxt, 0) == (0.0, 0.0)
    assert events.red.damage_dealt == 6.0


def test_attack_move_two_step_trace():
    # 6.5 away: one approach step to 5.375, then fire on the next step
    world = make_world([("marine", Team.RED, (0.0, 0.0)), ("marine", Team.BLUE, (6.5, 0.0))], arena=(64, 64))
    mid, events = step(world, [attack(0, 1), stop(1)])
    assert events.red.damage_dealt == 0.0
    assert map_pos(mid, 0) == (1.125, 0.0)
    assert math.dist(map_pos(mid, 0), map_pos(mid, 1)) == 5.375
    nxt, events = step(mid, [attack(0, 1), stop(1)])
    assert events.red.damage_dealt == 6.0
    assert map_pos(nxt, 0) == (1.125, 0.0)


def test_resolve_attack_move_cases():
    units = [
        ("marine", Team.RED, (0.0, 0.0)),
        ("marine", Team.BLUE, (8.0, 0.0)),   # out of range
        ("marine", Team.BLUE, (5.0, 0.0)),   # in range
        ("marine", Team.BLUE, (0.0, 5.0)),   # in range, dead
    ]
    world = make_world(units, arena=(64, 64))
    world.alive[3] = False
    world.health[3] = 0.0
    approach, events = step(world, [attack(0, 1)])
    assert map_pos(approach, 0) == (1.125, 0.0) and events.red.damage_dealt == 0.0
    fire, events = step(world, [attack(0, 2)])
    assert map_pos(fire, 0) == (0.0, 0.0) and events.red.damage_dealt == 6.0
    assert fire.cooldown[0] == MARINE.attack_period
    dissolved, events = step(world, [attack(0, 3)])
    assert map_pos(dissolved, 0) == (0.0, 0.0) and events.red.damage_dealt == 0.0
    assert dissolved.cooldown[0] == 0.0  # no shot: the macro became a stop


def test_colossus_splash_hits_clustered_enemies():
    world = make_world(
        [
            ("colossus", Team.RED, (10.0, 16.0)),
            ("marine", Team.BLUE, (15.0, 16.0)),
            ("marine", Team.BLUE, (15.5, 16.0)),   # within radius 1 of target
            ("marine", Team.BLUE, (15.0, 20.0)),   # outside radius
        ]
    )
    nxt, events = step(world, [attack(0, 1)])
    assert events.red.damage_dealt == 60.0  # 30 to each clustered light target
    assert nxt.health[1] == 15.0 and nxt.health[2] == 15.0 and nxt.health[3] == 45.0


def test_heal_applies_in_range_and_not_to_dead():
    world = make_world(
        [
            ("medivac", Team.RED, (10.0, 16.0)),
            ("marine", Team.RED, (12.0, 16.0)),
            ("marine", Team.BLUE, (30.0, 16.0)),
        ]
    )
    world.health[1] = 30.0
    nxt, events = step(world, [heal(0, 1), stop(1), stop(2)])
    assert nxt.health[1] == 37.0
    assert events.red.heals == 7.0


def test_heal_approaches_out_of_range_patient():
    world = make_world(
        [
            ("medivac", Team.RED, (0.0, 0.0)),
            ("marine", Team.RED, (8.0, 0.0)),
            ("marine", Team.BLUE, (30.0, 30.0)),
        ],
        arena=(64, 64),
    )
    world.health[1] = 30.0
    nxt, events = step(world, [heal(0, 1), stop(1), stop(2)])
    assert events.red.heals == 0.0
    assert map_pos(nxt, 0) == (1.125, 0.0)


def test_shield_regen_delay_and_clamp():
    cfg = EngineConfig()
    world = make_world([("zealot", Team.RED, (10.0, 16.0)), ("zealot", Team.BLUE, (30.0, 16.0))], cfg)
    world.shield[0] = 44.0
    world.last_damaged[0] = 0.0
    # not yet eligible: damaged at t=0, delay 10
    nxt, _ = step(world, [])
    assert nxt.shield[0] == 44.0
    world.time = 10.0  # now - last_damaged reaches the delay
    nxt, _ = step(world, [])
    assert nxt.shield[0] == 45.0  # rate 2 x dt 0.5
    assert nxt.shield[1] == ZEALOT.max_shield  # full stays clamped


def test_regen_shields_operation():
    world = make_world([("zealot", Team.RED, (10.0, 16.0)), ("marine", Team.BLUE, (30.0, 16.0))])
    world.shield[0] = 44.0
    world.last_damaged[0] = -20.0
    regen, _ = step(world, [])
    assert regen.shield[0] == 45.0
    assert world.shield[0] == 44.0  # purity
    assert regen.shield[1] == 0.0   # no shield to regenerate


def test_terminal_status_cases():
    world = make_world([("marine", Team.RED, (10.0, 16.0)), ("marine", Team.RED, (10.0, 18.0)), ("marine", Team.BLUE, (30.0, 16.0))])
    world.alive[2] = False
    world.health[2] = 0.0
    assert terminal_status(world, 100) is Outcome.RED_WIN
    world.alive[2] = True
    world.health[2] = 45.0
    world.step_count = 100
    assert terminal_status(world, 100) is Outcome.DRAW
    world.step_count = 99
    assert terminal_status(world, 100) is Outcome.ONGOING


# -- properties ----------------------------------------------------------------


def _random_commands(world, rng):
    cmds = []
    for i in range(world.n_units):
        if not world.alive[i]:
            continue
        if world.stats.is_healer[i]:
            patients = [
                j for j in range(world.n_units)
                if world.team_of[j] == world.team_of[i] and world.alive[j] and not world.stats.is_healer[j]
            ]
            if patients and rng.integers(0, 2):
                cmds.append(heal(i, patients[rng.integers(0, len(patients))]))
            else:
                cmds.append(stop(i))
            continue
        enemies = [j for j in range(world.n_units) if world.team_of[j] != world.team_of[i] and world.alive[j]]
        choice = rng.integers(0, 3)
        if choice == 0 or (choice == 2 and not enemies):
            cmds.append(stop(i))
        elif choice == 1:
            d = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)][rng.integers(0, 4)]
            cmds.append(move(i, *d))
        else:
            cmds.append(attack(i, enemies[rng.integers(0, len(enemies))]))
    return cmds


def _random_world(rng, max_per_team=2):
    names = list(CATALOG)
    units = []
    for team in (Team.RED, Team.BLUE):
        for _ in range(int(rng.integers(1, max_per_team + 1))):
            name = names[rng.integers(0, len(names))]
            pos = (float(rng.uniform(8, 24)), float(rng.uniform(8, 24)))
            units.append((name, team, pos))
    units.sort(key=lambda u: u[1])
    return make_world(units)


def test_conservation_and_bounds_over_random_battles():
    rng = np.random.default_rng(42)
    for _ in range(30):
        world = _random_world(rng, max_per_team=3)
        red_dealt = blue_taken = 0.0
        red_kills = blue_deaths = 0
        for _ in range(25):
            if terminal_status(world, 1000) is not Outcome.ONGOING:
                break
            world, events = step(world, _random_commands(world, rng))
            assert events.red.damage_dealt == events.blue.damage_taken
            assert events.blue.damage_dealt == events.red.damage_taken
            assert events.red.kills == events.blue.deaths
            assert events.blue.kills == events.red.deaths
            red_dealt += events.red.damage_dealt
            blue_taken += events.blue.damage_taken
            red_kills += events.red.kills
            blue_deaths += events.blue.deaths
            assert (world.health >= 0).all() and (world.health <= world.stats.max_health).all()
            assert (world.shield >= 0).all() and (world.shield <= world.stats.max_shield).all()
            assert (np.abs(world.pos_x) <= world.half_w).all()
            assert (np.abs(world.pos_y) <= world.half_h).all()
        assert red_dealt == blue_taken and red_kills == blue_deaths


def test_step_world_determinism_and_purity():
    rng = np.random.default_rng(7)
    world = _random_world(rng)
    cmds = _random_commands(world, rng)
    before = world.pos_x.copy()
    a, _ = step(world, cmds)
    b, _ = step(world, cmds)
    assert np.array_equal(world.pos_x, before)  # input untouched
    for field in ("pos_x", "pos_y", "health", "shield", "cooldown", "alive", "last_damaged"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.time == b.time and a.step_count == b.step_count


def test_engine_mirror_symmetry():
    """Point-reflected world + reflected commands -> point-reflected successor."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        n_per = int(rng.integers(1, 4))
        names = [list(CATALOG)[rng.integers(0, len(CATALOG))] for _ in range(n_per)]
        # spawn on a 1/8 grid so the map->centre conversion is exact
        red = [
            (nm, Team.RED, (rng.integers(64, 120) / 8.0, rng.integers(64, 192) / 8.0))
            for nm in names
        ]
        blue = [(nm, Team.BLUE, (32.0 - x, 32.0 - y)) for nm, _, (x, y) in red]
        world = make_world(red + blue)
        for _ in range(6):
            if terminal_status(world, 1000) is not Outcome.ONGOING:
                break
            cmds = []
            for i in range(n_per):
                choice = rng.integers(0, 3)
                if choice == 0 or world.stats.is_healer[i]:
                    cmds += [stop(i), stop(n_per + i)]
                elif choice == 1:
                    d = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)][rng.integers(0, 4)]
                    cmds += [move(i, *d), move(n_per + i, -d[0], -d[1])]
                else:
                    k = int(rng.integers(0, n_per))
                    cmds += [attack(i, n_per + k), attack(n_per + i, k)]
            world, _ = step(world, cmds)
            assert np.array_equal(world.pos_x[n_per:], -world.pos_x[:n_per])
            assert np.array_equal(world.pos_y[n_per:], -world.pos_y[:n_per])
            assert np.array_equal(world.health[n_per:], world.health[:n_per])
            assert np.array_equal(world.shield[n_per:], world.shield[:n_per])
            assert np.array_equal(world.cooldown[n_per:], world.cooldown[:n_per])


# -- independent straight-line re-simulation ------------------------------------


def compute_damage(attacker, target):
    """Damage one attack inflicts: the bonus figure replaces the base damage
    outright when the target's armor class matches."""
    if attacker.bonus_vs is not None and target.armor_class is attacker.bonus_vs[0]:
        return attacker.bonus_vs[1]
    return attacker.base_damage


def naive_step(world, commands):
    """Plain-dict re-simulation written straight from the rule text."""
    cfg = world.config
    dt = cfg.step_dt
    units = [
        {
            "spec": world.specs[i], "team": int(world.team_of[i]),
            "x": float(world.pos_x[i]), "y": float(world.pos_y[i]),
            "health": float(world.health[i]), "shield": float(world.shield[i]),
            "cd": float(world.cooldown[i]), "alive": bool(world.alive[i]),
        }
        for i in range(world.n_units)
    ]
    start = [dict(u) for u in units]

    fired = set()
    hits = {}
    heals = []
    for cmd in commands:
        u = units[cmd.unit]
        s = start[cmd.unit]
        if cmd.kind == STOP:
            continue
        if cmd.kind == MOVE:
            step_len = s["spec"].move_speed * dt
            nx = s["x"] + cmd.direction[0] * step_len
            ny = s["y"] + cmd.direction[1] * step_len
            u["x"] = min(world.half_w, max(-world.half_w, nx))
            u["y"] = min(world.half_h, max(-world.half_h, ny))
            continue
        tgt = start[cmd.target]
        if not tgt["alive"]:
            continue
        dx = tgt["x"] - s["x"]
        dy = tgt["y"] - s["y"]
        dist = math.sqrt(dx * dx + dy * dy)
        if dist > s["spec"].attack_range:
            step_len = s["spec"].move_speed * dt
            if dist <= step_len:
                nx, ny = tgt["x"], tgt["y"]
            else:
                nx = s["x"] + dx / dist * step_len
                ny = s["y"] + dy / dist * step_len
            u["x"] = min(world.half_w, max(-world.half_w, nx))
            u["y"] = min(world.half_h, max(-world.half_h, ny))
        elif cmd.kind == ATTACK:
            if s["cd"] <= 0.0:
                fired.add(cmd.unit)
                dmg = compute_damage(s["spec"], tgt["spec"])
                if s["spec"].splash_radius > 0:
                    for j, other in enumerate(start):
                        if other["alive"] and other["team"] != s["team"]:
                            dd = math.dist((other["x"], other["y"]), (tgt["x"], tgt["y"]))
                            if dd <= s["spec"].splash_radius:
                                hits[j] = hits.get(j, 0.0) + dmg
                else:
                    hits[cmd.target] = hits.get(cmd.target, 0.0) + dmg
        else:
            heals.append((cmd.unit, cmd.target))

    for j in sorted(hits):
        u = units[j]
        amount = hits[j]
        shield_loss = min(u["shield"], amount)
        health_loss = min(u["health"], amount - shield_loss)
        u["shield"] -= shield_loss
        u["health"] -= health_loss
        if u["health"] <= 0:
            u["alive"] = False

    for i, t in sorted(heals):
        patient = units[t]
        if not patient["alive"]:
            continue
        patient["health"] = min(patient["spec"].max_health, patient["health"] + units[i]["spec"].heal_per_action)

    for i, u in enumerate(units):
        if i in fired:
            u["cd"] = u["spec"].attack_period
        else:
            u["cd"] = max(0.0, start[i]["cd"] - dt)
    return units


def test_brute_force_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(40):
        world = _random_world(rng, max_per_team=2)
        for _ in range(5):
            if terminal_status(world, 1000) is not Outcome.ONGOING:
                break
            cmds = _random_commands(world, rng)
            expected = naive_step(world, cmds)
            world, _ = step(world, cmds)
            for i, exp in enumerate(expected):
                assert world.pos_x[i] == exp["x"], f"unit {i} x"
                assert world.pos_y[i] == exp["y"], f"unit {i} y"
                assert world.health[i] == exp["health"], f"unit {i} health"
                assert world.cooldown[i] == exp["cd"], f"unit {i} cooldown"
                assert bool(world.alive[i]) == exp["alive"], f"unit {i} alive"
