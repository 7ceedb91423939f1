"""Experiment configuration files: INI-style sections of key=value pairs.

Unknown sections or keys are rejected so a typo cannot silently change an
experiment, and the parsed values are echoed into every run's manifest.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Malformed, unknown, or missing configuration entries."""


def _to_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("expected a boolean") from None


def finite_float(raw: str) -> float:
    """A float that is neither NaN nor infinite; config entries and CLI flags use it."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _to_seeds(raw: str) -> tuple[int, ...]:
    seeds = tuple(int(part) for part in raw.replace(" ", "").split(",") if part)
    if not seeds:
        raise ValueError("expected one or more comma-separated seeds")
    if len(set(seeds)) != len(seeds):
        raise ValueError("a seed is repeated")
    return seeds


_SCHEMA: dict[str, dict] = {
    "dataset": {"path": str},
    "run": {
        "kind": str, "seeds": _to_seeds, "lag": int,
        "train_days": int, "test_days": int,
    },
    "model": {
        "cell": str, "bidirectional": _to_bool, "hidden_size": int, "activation": str,
    },
    "train": {"batch_size": int, "learning_rate": finite_float, "epochs": int},
    "dp": {
        "l2_norm_clip": finite_float, "noise_multiplier": finite_float, "num_microbatches": int,
    },
    "privacy": {"epsilon": finite_float, "delta": finite_float, "sensitivity": finite_float},
    "tune": {"budget": int, "strategy": str, "epochs": int},
}

_RUN_KINDS = ("baseline", "nonprivate", "gradient", "input")


@dataclass
class ExperimentConfig:
    """Parsed configuration: section name to its key/value pairs."""

    values: dict[str, dict] = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.values.get(section, {}).get(key, default)

    def section(self, section: str) -> dict:
        return dict(self.values.get(section, {}))

    def require(self, section: str, key: str):
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required config entry [{section}] {key}")
        return value

    def echo(self) -> dict:
        return {sec: dict(vals) for sec, vals in self.values.items()}


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        section_schema = _SCHEMA[section]
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in section_schema:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            caster = section_schema[key]
            try:
                values[section][key] = caster(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value {raw!r} for [{section}] {key}: {exc}"
                ) from None
    kind = values.get("run", {}).get("kind")
    if kind is not None and kind not in _RUN_KINDS:
        raise ConfigError(f"{path}: run kind must be one of {_RUN_KINDS}, got {kind!r}")
    return ExperimentConfig(values=values)
