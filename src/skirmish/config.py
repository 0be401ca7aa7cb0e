"""The one reader of the engine, reward and learner configs, for ``--config`` files and checkpoints alike.

:func:`read_config` checks every key and value type; each config's
``__post_init__`` checks its ranges, and a value it refuses is raised
here as a :class:`ConfigError`.
"""

from __future__ import annotations

import json
from dataclasses import fields


class ConfigError(ValueError):
    """A configuration section, key or value that no run can use."""


# The JSON values a field of each annotation takes; a JSON boolean fits a bool field only.
_TYPES = {"bool": (bool, "true or false"), "int": (int, "an integer"), "float": ((int, float), "a number"),
          "tuple[int, ...]": (list, "a list of integers")}


def read_config(cls, data, where: str):
    """``cls`` built from the JSON object ``data``; ``where`` names the section in error messages."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")
    values = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        kinds, noun = _TYPES[f.type]
        if (not isinstance(value, kinds) or (isinstance(value, bool) and f.type != "bool")
                or (isinstance(value, list) and not all(type(v) is int for v in value))):
            raise ConfigError(f"{where} {f.name} must be {noun}, not {json.dumps(value)}")
        values[f.name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**values)
    except ValueError as exc:  # a value outside the range the config's own __post_init__ allows
        raise ConfigError(str(exc)) from exc

