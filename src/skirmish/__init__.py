"""Deterministic dual-team micro-combat arena and self-play benchmark."""

__version__ = "0.1.0"

from .engine import (
    CATALOG,
    ArmorClass,
    EngineConfig,
    Outcome,
    Team,
    UnitSpec,
)
from .env import BattleEnv, RewardConfig, TeamStepResult
from .scenario import ScenarioSpec, builtin_scenarios, get_scenario, parse_scenario_config, spawn_layout
from .learners import LearnerConfig, make_learner
from .training import TrainConfig, evaluate, run_episode, train_mixed, train_paired, train_vs_bot

__all__ = [
    "ArmorClass",
    "BattleEnv",
    "CATALOG",
    "EngineConfig",
    "LearnerConfig",
    "Outcome",
    "RewardConfig",
    "ScenarioSpec",
    "Team",
    "TeamStepResult",
    "TrainConfig",
    "UnitSpec",
    "builtin_scenarios",
    "evaluate",
    "get_scenario",
    "make_learner",
    "parse_scenario_config",
    "run_episode",
    "spawn_layout",
    "train_mixed",
    "train_paired",
    "train_vs_bot",
]
