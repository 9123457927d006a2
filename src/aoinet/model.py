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
    """Raised when a config document cannot be parsed or describes no valid network."""


_FIELDS = ("sources", "servers", "arrival_rates", "service_rates", "discipline")
# the types a rate list or a row of arrival rates may have
_SEQUENCE = (list, tuple)


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable network description, checked on every construction.

    arrival_rates[i][j] is the rate of source i's Poisson process into server j;
    service_rates[j] is server j's exponential service rate. A malformed config
    raises ConfigError, so every NetworkConfig that exists is usable by some
    engine. FCFS stability is not checked here: it depends on the discipline,
    which a sweep sets per point, and `simulate` checks it.
    """

    sources: int
    servers: int
    arrival_rates: tuple[tuple[float, ...], ...]
    service_rates: tuple[float, ...]
    discipline: QueueDiscipline = QueueDiscipline.LCFS_S

    def __post_init__(self) -> None:
        for name in ("sources", "servers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"field '{name}' must be an integer")
        if not isinstance(self.arrival_rates, _SEQUENCE) or not all(
            isinstance(row, _SEQUENCE) and all(is_number(r) for r in row)
            for row in self.arrival_rates
        ):
            raise ConfigError("field 'arrival_rates' must be a list of lists of numbers")
        if not isinstance(self.service_rates, _SEQUENCE) or not all(
            is_number(r) for r in self.service_rates
        ):
            raise ConfigError("field 'service_rates' must be a list of numbers")
        try:
            discipline = QueueDiscipline(self.discipline)
        except ValueError:
            raise ConfigError(
                f"field 'discipline' must be one of "
                f"{', '.join(repr(d.value) for d in QueueDiscipline)}"
            ) from None

        # normalize nested sequences / raw strings so configs hash and compare cleanly
        rows = tuple(tuple(float(r) for r in row) for row in self.arrival_rates)
        mus = tuple(float(r) for r in self.service_rates)
        object.__setattr__(self, "arrival_rates", rows)
        object.__setattr__(self, "service_rates", mus)
        object.__setattr__(self, "discipline", discipline)

        problems: list[str] = []
        if self.sources < 1:
            problems.append("sources must be a positive integer")
        if self.servers < 1:
            problems.append("servers must be a positive integer")
        if problems:
            raise ConfigError("; ".join(problems))
        if len(rows) != self.sources:
            problems.append(f"arrival_rates has {len(rows)} rows, expected {self.sources}")
        for i, row in enumerate(rows):
            if len(row) != self.servers:
                problems.append(
                    f"arrival_rates[{i}] has {len(row)} entries, expected {self.servers}"
                )
            elif any(not math.isfinite(r) or r < 0 for r in row):
                problems.append(f"arrival_rates[{i}] entries must be finite and >= 0")
            elif sum(row) <= 0:
                problems.append(f"arrival_rates[{i}] must have a positive sum")
        if len(mus) != self.servers:
            problems.append(f"service_rates has {len(mus)} entries, expected {self.servers}")
        elif any(not math.isfinite(r) or r <= 0 for r in mus):
            problems.append("service_rates entries must be finite and > 0")
        if problems:
            raise ConfigError("; ".join(problems))

    def source_total(self, i: int) -> float:
        """Total arrival rate of source i summed over servers."""
        return sum(self.arrival_rates[i])


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


def reject_unknown_fields(doc: dict, known: tuple[str, ...], where: str = "") -> None:
    """ConfigError "unknown field(s)<where>: a, b" if `doc` has keys outside `known`."""
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown field(s){where}: {', '.join(sorted(unknown))}")


def load_config(text: str) -> NetworkConfig:
    """Parse a JSON config document into a NetworkConfig.

    Raises ConfigError with line/field context on malformed documents.
    """
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    reject_unknown_fields(doc, _FIELDS)
    missing = [f for f in _FIELDS if f not in doc]
    if missing:
        raise ConfigError(f"missing field(s): {', '.join(missing)}")
    return NetworkConfig(**doc)


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
