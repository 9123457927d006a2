"""Network description: who sends updates where, how fast, and under which discipline.

A network is m sources feeding n servers over direct links; each (source, server)
pair has its own Poisson arrival rate and each server an exponential service rate.
The monitor downstream keeps, per source, the freshest update it has seen.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum


class QueueDiscipline(Enum):
    """Buffering behavior at each server."""

    LCFS_S = "lcfs-s"  # newest update preempts the one in service
    LCFS_W = "lcfs-w"  # service runs to completion; one waiting slot, newest wins
    FCFS = "fcfs"      # unbounded queue, in arrival order


class HomogeneityClass(Enum):
    """Most specific structural class of a config; drives engine routing."""

    HOMOGENEOUS_SINGLE_SOURCE = "homogeneous-single-source"
    HOMOGENEOUS_MULTI_SOURCE = "homogeneous-multi-source"
    HETEROGENEOUS_SINGLE_SOURCE = "heterogeneous-single-source"
    GENERAL = "general"


class ConfigError(ValueError):
    """Raised when a config document cannot be parsed or fails validation."""


_FIELDS = ("sources", "servers", "arrival_rates", "service_rates", "discipline")


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable network description.

    arrival_rates[i][j] is the rate of source i's Poisson process into server j;
    service_rates[j] is server j's exponential service rate.
    """

    sources: int
    servers: int
    arrival_rates: tuple[tuple[float, ...], ...]
    service_rates: tuple[float, ...]
    discipline: QueueDiscipline = QueueDiscipline.LCFS_S

    def __post_init__(self) -> None:
        # normalize nested sequences / raw strings so configs hash and compare cleanly
        object.__setattr__(
            self,
            "arrival_rates",
            tuple(tuple(float(r) for r in row) for row in self.arrival_rates),
        )
        object.__setattr__(
            self, "service_rates", tuple(float(r) for r in self.service_rates)
        )
        if not isinstance(self.discipline, QueueDiscipline):
            object.__setattr__(self, "discipline", QueueDiscipline(self.discipline))

    def source_total(self, i: int) -> float:
        """Total arrival rate of source i summed over servers."""
        return sum(self.arrival_rates[i])


def validate(config: NetworkConfig) -> list[str]:
    """Check structural soundness; returns a list of violations, empty if valid.

    Valid means usable by at least one engine; discipline-specific limits
    (e.g. FCFS stability) are checked where they matter, not here.
    """
    problems: list[str] = []
    if not isinstance(config.sources, int) or config.sources < 1:
        problems.append("sources must be a positive integer")
    if not isinstance(config.servers, int) or config.servers < 1:
        problems.append("servers must be a positive integer")
    if problems:
        return problems

    if len(config.arrival_rates) != config.sources:
        problems.append(
            f"arrival_rates has {len(config.arrival_rates)} rows, expected {config.sources}"
        )
    for i, row in enumerate(config.arrival_rates):
        if len(row) != config.servers:
            problems.append(
                f"arrival_rates[{i}] has {len(row)} entries, expected {config.servers}"
            )
            continue
        if any(not math.isfinite(r) or r < 0 for r in row):
            problems.append(f"arrival_rates[{i}] entries must be finite and >= 0")
        elif sum(row) <= 0:
            problems.append(f"arrival_rates[{i}] must have a positive sum")
    if len(config.service_rates) != config.servers:
        problems.append(
            f"service_rates has {len(config.service_rates)} entries, expected {config.servers}"
        )
    elif any(not math.isfinite(r) or r <= 0 for r in config.service_rates):
        problems.append("service_rates entries must be finite and > 0")
    return problems


def classify(config: NetworkConfig) -> HomogeneityClass:
    """Return the most specific class for engine routing.

    Homogeneity is exact float equality: every source's rate identical across
    servers and all service rates identical. Near-equal configs fall through to
    the heterogeneous/general engines, which handle them fine.
    """
    rows_flat = all(
        all(r == row[0] for r in row) for row in config.arrival_rates
    )
    mus_flat = all(r == config.service_rates[0] for r in config.service_rates)
    homogeneous = rows_flat and mus_flat
    if config.sources == 1:
        if homogeneous:
            return HomogeneityClass.HOMOGENEOUS_SINGLE_SOURCE
        return HomogeneityClass.HETEROGENEOUS_SINGLE_SOURCE
    if homogeneous:
        return HomogeneityClass.HOMOGENEOUS_MULTI_SOURCE
    return HomogeneityClass.GENERAL


def drop_idle_servers(config: NetworkConfig) -> NetworkConfig:
    """The config without the servers no source sends to.

    Such a server never delivers, so dropping it leaves every age unchanged.
    """
    busy = [j for j, col in enumerate(zip(*config.arrival_rates)) if max(col) > 0]
    if len(busy) == config.servers:
        return config
    rows = [[row[j] for j in busy] for row in config.arrival_rates]
    mus = [config.service_rates[j] for j in busy]
    return NetworkConfig(config.sources, len(busy), rows, mus, config.discipline)


def parse_json(text: str) -> object:
    """json.loads, with a decode error raised as ConfigError naming its position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None


def is_number(x: object) -> bool:
    """True for a JSON number that fits a float.

    Booleans are ints in Python but not numbers here, and neither is an
    integer literal too large to convert to a float.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def positive_rate(name: str, value: float) -> float:
    """value as a float; ValueError "<name> must be finite and > 0" otherwise."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0")
    return value


def load_config(text: str) -> NetworkConfig:
    """Parse a JSON config document and validate it.

    Raises ConfigError with line/field context on malformed documents.
    """
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = [f for f in _FIELDS if f not in doc]
    if missing:
        raise ConfigError(f"missing field(s): {', '.join(missing)}")

    for name in ("sources", "servers"):
        if isinstance(doc[name], bool) or not isinstance(doc[name], int):
            raise ConfigError(f"field '{name}' must be an integer")
    if not isinstance(doc["arrival_rates"], list) or not all(
        isinstance(row, list) and all(is_number(r) for r in row)
        for row in doc["arrival_rates"]
    ):
        raise ConfigError("field 'arrival_rates' must be a list of lists of numbers")
    if not isinstance(doc["service_rates"], list) or not all(
        is_number(r) for r in doc["service_rates"]
    ):
        raise ConfigError("field 'service_rates' must be a list of numbers")
    try:
        discipline = QueueDiscipline(doc["discipline"])
    except ValueError:
        raise ConfigError(
            f"field 'discipline' must be one of "
            f"{', '.join(repr(d.value) for d in QueueDiscipline)}"
        ) from None

    config = NetworkConfig(
        sources=doc["sources"],
        servers=doc["servers"],
        arrival_rates=doc["arrival_rates"],
        service_rates=doc["service_rates"],
        discipline=discipline,
    )
    problems = validate(config)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def dump_config(config: NetworkConfig) -> str:
    """Serialize to the canonical document form (fixed key order, 2-space indent).

    load_config(dump_config(c)) reconstructs c exactly, and dump + load is the
    identity on documents already in canonical form.
    """
    doc = {
        "sources": config.sources,
        "servers": config.servers,
        "arrival_rates": [list(row) for row in config.arrival_rates],
        "service_rates": list(config.service_rates),
        "discipline": config.discipline.value,
    }
    return json.dumps(doc, indent=2) + "\n"
