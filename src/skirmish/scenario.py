"""Scenario registry, layout generation and the text configuration format.

Scenarios pair two unit compositions with an arena and an episode step
limit.  Spawns put each team in vertical column files facing the opponent,
placed point-symmetrically about the arena centre so neither side starts
with a positional edge; per-unit jitter is drawn once for red and reflected
onto blue, never drawn twice.

:class:`ScenarioSpec` checks itself once, when it is built: its ranges, and
that both formations and their jitter fit the arena, so every seed spawns.

The scenario document (a ``--scenario FILE``, the text of the protocol's
``assign`` and of a bot checkpoint) is the one way past the built-ins.  It
has the sections ``[scenario]``, ``[red]`` and ``[blue]`` only.  Any other
section is rejected, ``[engine]`` included: engine mechanics are set
through the ``engine`` object of the CLI's ``--config`` JSON file, never
from a scenario file.
"""

from __future__ import annotations

import configparser
import io
import math
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .engine import CATALOG, Team, UnitSpec


class ScenarioError(ValueError):
    """Base class for scenario construction problems."""


class UnknownBaseScenario(ScenarioError):
    pass


class UnknownUnitName(ScenarioError):
    pass


class NonPositiveCount(ScenarioError):
    pass


class ArenaTooSmall(ScenarioError):
    pass


Composition = tuple[tuple[UnitSpec, int], ...]


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether ``value`` is one of ``kinds``; a bool is not a number here."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioSpec:
    """One battle set-up: who fights whom, where, and for how long."""

    name: str
    red_composition: Composition
    blue_composition: Composition
    arena: tuple[float, float] = (32.0, 32.0)
    episode_step_limit: int = 120
    spawn_spread: float = 0.5

    def __post_init__(self) -> None:
        """The one check, which built-ins, scenario documents and ``replace`` all pass."""
        limit = self.episode_step_limit
        if not _is_number(limit, int) or limit < 1:  # a limit below 1 ends every episode at reset
            raise ScenarioError(f"episode_step_limit must be an integer of at least 1, not {limit!r}")
        arena = self.arena
        if not (isinstance(arena, (tuple, list)) and len(arena) == 2
                and all(_is_number(side) and math.isfinite(side) and side > 0 for side in arena)):
            raise ScenarioError(f"arena must be two finite numbers above 0, not {arena!r}")
        spread = self.spawn_spread
        if not (_is_number(spread) and math.isfinite(spread) and spread >= 0):
            raise ScenarioError(f"spawn_spread must be a finite number of at least 0, not {spread!r}")
        for team, comp in (("red", self.red_composition), ("blue", self.blue_composition)):
            if not (isinstance(comp, (tuple, list)) and comp and all(
                    isinstance(pair, (tuple, list)) and len(pair) == 2 and isinstance(pair[0], UnitSpec) for pair in comp)):
                raise ScenarioError(f"{team}_composition must be one or more (unit, count) pairs, not {comp!r}")
            for unit, count in comp:
                if not _is_number(count, int) or count < 1:
                    raise NonPositiveCount(f"{team} {unit.name} count must be an integer of at least 1, not {count!r}")
        width, height = arena
        if height < 2.0 * EDGE_MARGIN:
            raise ArenaTooSmall(f"arena height must be at least {2.0 * EDGE_MARGIN}, not {height}")
        for count in {self.n_red, self.n_blue}:
            # By arithmetic, not by laying out the slots: a count of 10**9 fails here at once.
            n_files, rows = _files(count, height)
            deepest = FILE_OFFSET + (n_files - 1) * FILE_SPACING
            if deepest > width / 2.0 - EDGE_MARGIN:
                raise ArenaTooSmall(f"arena width must be at least {2.0 * (deepest + EDGE_MARGIN)} for {count} units, not {width}")
            room = min(width / 2.0 - deepest, height / 2.0 - (rows - 1) / 2.0 * ROW_SPACING)
            if spread > room:  # jitter past the wall fails the engine's spawn check on some seeds
                raise ScenarioError(f"spawn_spread must be at most {room!r}, the room between a {count}-unit "
                                    f"formation and the wall, not {spread!r}")

    @property
    def symmetric(self) -> bool:
        red = Counter({s.name: c for s, c in self.red_composition})
        blue = Counter({s.name: c for s, c in self.blue_composition})
        return red == blue

    @property
    def n_red(self) -> int:
        return sum(c for _, c in self.red_composition)

    @property
    def n_blue(self) -> int:
        return sum(c for _, c in self.blue_composition)

    def team_units(self, team: Team) -> list[UnitSpec]:
        comp = self.red_composition if team is Team.RED else self.blue_composition
        out: list[UnitSpec] = []
        for spec, count in comp:
            out.extend([spec] * count)
        return out

    def unit_types(self) -> list[UnitSpec]:
        """Distinct unit specs present on either team, in catalog order."""
        present = {s.spec_id: s for s, _ in self.red_composition + self.blue_composition}
        return [present[k] for k in sorted(present)]

    @property
    def center(self) -> tuple[float, float]:
        return (self.arena[0] / 2.0, self.arena[1] / 2.0)


def _comp(*pairs: tuple[str, int]) -> Composition:
    return tuple((CATALOG[name], count) for name, count in pairs)


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """The ten built-in scenarios, keyed by name."""
    mmm = _comp(("medivac", 1), ("marauder", 2), ("marine", 7))
    table = [
        ScenarioSpec("3m", _comp(("marine", 3)), _comp(("marine", 3)), episode_step_limit=120),
        ScenarioSpec("8m", _comp(("marine", 8)), _comp(("marine", 8)), episode_step_limit=120),
        ScenarioSpec("25m", _comp(("marine", 25)), _comp(("marine", 25)), episode_step_limit=200),
        ScenarioSpec("MMM", mmm, mmm, episode_step_limit=150),
        ScenarioSpec("2s3z", _comp(("stalker", 2), ("zealot", 3)), _comp(("stalker", 2), ("zealot", 3)), episode_step_limit=120),
        ScenarioSpec("3s5z", _comp(("stalker", 3), ("zealot", 5)), _comp(("stalker", 3), ("zealot", 5)), episode_step_limit=150),
        ScenarioSpec(
            "1c3s5z",
            _comp(("colossus", 1), ("stalker", 3), ("zealot", 5)),
            _comp(("colossus", 1), ("stalker", 3), ("zealot", 5)),
            episode_step_limit=150,
        ),
        ScenarioSpec("5m_vs_6m", _comp(("marine", 5)), _comp(("marine", 6)), episode_step_limit=150),
        ScenarioSpec("10m_vs_11m", _comp(("marine", 10)), _comp(("marine", 11)), episode_step_limit=180),
        ScenarioSpec(
            "MMM2",
            mmm,
            _comp(("medivac", 1), ("marauder", 3), ("marine", 8)),
            episode_step_limit=180,
        ),
    ]
    return {s.name: s for s in table}


def get_scenario(name: str) -> ScenarioSpec:
    registry = builtin_scenarios()
    if name not in registry:
        raise UnknownBaseScenario(f"unknown scenario {name!r} (expected one of {sorted(registry)})")
    return registry[name]


@dataclass(frozen=True)
class Layout:
    """Spawn positions in map coordinates; blue mirrors red about the centre."""

    red_positions: tuple[tuple[float, float], ...]
    blue_positions: tuple[tuple[float, float], ...]
    center: tuple[float, float]


# Column formation constants: distance from centre to the first file, file
# pitch westwards, vertical pitch within a file, and clearance to the wall.
FILE_OFFSET = 6.0
FILE_SPACING = 2.0
ROW_SPACING = 2.0
EDGE_MARGIN = 2.0


def _files(count: int, height: float) -> tuple[int, int]:
    """How many column files ``count`` units fill, and the rows of the longest file."""
    max_rows = int((height - 2.0 * EDGE_MARGIN) // ROW_SPACING) + 1
    n_files = -(-count // max_rows)
    return n_files, -(-count // n_files)


def _formation(count: int, arena: tuple[float, float]) -> list[tuple[float, float]]:
    """Centre-origin slots for ``count`` units in west-side column files."""
    n_files, _ = _files(count, arena[1])
    base, extra = divmod(count, n_files)
    slots: list[tuple[float, float]] = []
    for f in range(n_files):
        rows = base + (1 if f < extra else 0)
        x = -(FILE_OFFSET + f * FILE_SPACING)
        for j in range(rows):
            y = (j - (rows - 1) / 2.0) * ROW_SPACING
            slots.append((x, y))
    return slots


def spawn_layout(spec: ScenarioSpec, seed: int) -> Layout:
    """Seeded spawn layout for one episode.

    Red gets the west-side formation with per-unit jitter; blue is the exact
    point reflection when team sizes match, otherwise blue gets its own
    reflected formation with jitter drawn from the same stream.
    """
    spread = spec.spawn_spread
    rng = np.random.default_rng(seed)
    cx, cy = spec.center

    def jittered(count: int) -> list[tuple[float, float]]:
        """West-side formation in map coordinates, with per-unit jitter."""
        slots = _formation(count, spec.arena)
        offsets = rng.uniform(-spread, spread, size=(count, 2)) if spread > 0 else np.zeros((count, 2))
        return [(cx + x + float(ox), cy + y + float(oy)) for (x, y), (ox, oy) in zip(slots, offsets)]

    def reflected(points: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
        return tuple((2.0 * cx - x, 2.0 * cy - y) for x, y in points)

    red = jittered(spec.n_red)
    blue_source = red if spec.n_blue == spec.n_red else jittered(spec.n_blue)
    return Layout(red_positions=tuple(red), blue_positions=reflected(blue_source), center=(cx, cy))


# --- text configuration -----------------------------------------------------

_PLURAL = {
    "marines": "marine",
    "marauders": "marauder",
    "medivacs": "medivac",
    "zealots": "zealot",
    "stalkers": "stalker",
    "colossi": "colossus",
}
_TO_PLURAL = {v: k for k, v in _PLURAL.items()}

_SCENARIO_KEYS = {"base", "name", "arena_width", "arena_height", "episode_step_limit", "spawn_spread"}


def _read_config(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc
    for section in parser.sections():
        if section not in ("scenario", "red", "blue"):
            raise ScenarioError(f"unknown config section [{section}]")
    return parser


def _number(key: str, text: str, kind: type):
    """``text`` read as ``kind``; text that does not parse is a :class:`ScenarioError` naming ``key``."""
    try:
        return kind(text)
    except ValueError:
        raise ScenarioError(f"{key} must be {'an integer' if kind is int else 'a number'}, not {text!r}") from None


def _team_counts(parser: configparser.ConfigParser, section: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    if not parser.has_section(section):
        return counts
    for key, raw in parser.items(section):
        if key not in _PLURAL:
            raise UnknownUnitName(f"unknown unit {key!r} in [{section}] (expected one of {sorted(_PLURAL)})")
        counts[_PLURAL[key]] = _number(key, raw, int)
    return counts


def _merge_composition(base: Composition, overrides: dict[str, int]) -> Composition:
    merged: list[tuple[UnitSpec, int]] = []
    seen: set[str] = set()
    for spec, count in base:
        merged.append((spec, overrides.get(spec.name, count)))
        seen.add(spec.name)
    for name, count in overrides.items():
        if name not in seen:
            merged.append((CATALOG[name], count))
    return tuple(merged)


def parse_scenario_config(text: str) -> ScenarioSpec:
    """Parse the line-oriented ``key = value`` scenario document.

    A ``base`` key starts from a built-in scenario; ``[red]``/``[blue]``
    counts and the ``[scenario]`` keys override it.  Without ``base``, both
    team sections must fully describe the compositions.  Unknown sections,
    keys or unit names are hard errors.
    """
    parser = _read_config(text)
    items = dict(parser.items("scenario")) if parser.has_section("scenario") else {}
    for key in items:
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"unknown [scenario] key {key!r}")

    red_over = _team_counts(parser, "red")
    blue_over = _team_counts(parser, "blue")
    if "base" in items:
        base = get_scenario(items["base"])
        spec = {f.name: getattr(base, f.name) for f in fields(base)}
    else:
        if not red_over or not blue_over:
            raise ScenarioError("config without 'base' must define both [red] and [blue]")
        spec = {f.name: f.default for f in fields(ScenarioSpec)}
        spec.update(name="custom", red_composition=(), blue_composition=())

    def value(key, kind, default):
        return _number(key, items[key], kind) if key in items else default

    # Every field is gathered first, so the spec is built and checked once, as a whole.
    width, height = spec["arena"]
    spec.update(
        name=items.get("name", spec["name"]),
        red_composition=_merge_composition(spec["red_composition"], red_over),
        blue_composition=_merge_composition(spec["blue_composition"], blue_over),
        arena=(value("arena_width", float, width), value("arena_height", float, height)),
        episode_step_limit=value("episode_step_limit", int, spec["episode_step_limit"]),
        spawn_spread=value("spawn_spread", float, spec["spawn_spread"]),
    )
    return ScenarioSpec(**spec)


def scenario_config(spec: ScenarioSpec) -> str:
    """Serialize a spec to the config format; parsing it back round-trips."""
    out = io.StringIO()
    out.write("[scenario]\n")
    out.write(f"name = {spec.name}\n")
    out.write(f"arena_width = {spec.arena[0]!r}\n")
    out.write(f"arena_height = {spec.arena[1]!r}\n")
    out.write(f"episode_step_limit = {spec.episode_step_limit}\n")
    out.write(f"spawn_spread = {spec.spawn_spread!r}\n")
    for section, comp in (("red", spec.red_composition), ("blue", spec.blue_composition)):
        out.write(f"\n[{section}]\n")
        for unit, count in comp:
            out.write(f"{_TO_PLURAL[unit.name]} = {count}\n")
    return out.getvalue()
