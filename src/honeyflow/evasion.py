"""Attacker-side evasion arithmetic: spraying requests across amplifiers.

The model: an attacker sustains a target bandwidth at the victim for a
fixed duration through one amplification protocol, distributing requests
uniformly over every known amplifier. The per-amplifier request count then
decides which detection pipelines still fire. Honeypot sensors are a subset
of the amplifier population, so platform-scoped detectors see the
per-amplifier count multiplied by their sensor count, while sensor-scoped
detectors see each sensor's share in isolation.

The burst is treated as one flow per key: a uniform spray over a 5 minute
window never opens gaps beyond the smallest published idle timeout (60 s)
unless the per-amplifier count drops below a handful of packets, at which
point the flow split cannot matter for any threshold of 5 or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .detection import PRESETS, DetectionPreset
from .events import ProtocolProfile, _check_positive, _write_csv

__all__ = [
    "BUILTIN_PROFILES",
    "EvasionScenario",
    "DetectionCell",
    "DetectionMatrix",
    "requests_per_attack",
    "requests_per_amplifier",
    "detection_matrix",
    "evasion_rows",
    "write_evasion_csv",
]

# Public amplifier-census figures per protocol: request size on the wire,
# bandwidth amplification factor, and population of usable amplifiers.
BUILTIN_PROFILES: tuple[ProtocolProfile, ...] = (
    ProtocolProfile("QOTD", 17, 15.0, 140.0, 31_000),
    ProtocolProfile("CharGen", 19, 15.0, 356.0, 30_000),
    ProtocolProfile("DNS", 53, 37.0, 41.0, 1_900_000),
    ProtocolProfile("NTP", 123, 13.0, 557.0, 2_300_000),
    ProtocolProfile("LDAP", 389, 52.0, 63.0, 8_000),
    ProtocolProfile("SSDP", 1900, 90.0, 31.0, 1_900_000),
)


@dataclass(frozen=True)
class EvasionScenario:
    """One protocol, one bandwidth target, one spray window."""

    profile: ProtocolProfile
    attack_load_bps: float = 1e9
    duration_s: float = 300.0
    platform_sensor_count: int = 8

    def __post_init__(self) -> None:
        _check_positive(self.attack_load_bps, "attack_load_bps")
        _check_positive(self.duration_s, "duration_s")
        if self.platform_sensor_count < 1:
            raise ValueError(
                f"platform_sensor_count must be >= 1: {self.platform_sensor_count}"
            )
        # each factor is positive and finite, but a product can underflow or overflow
        if not self.profile.request_size * self.profile.amplification_factor > 0:
            raise ValueError(
                "request_size * amplification_factor underflows to zero: "
                f"request_size={self.profile.request_size}, "
                f"amplification_factor={self.profile.amplification_factor}"
            )
        if not math.isfinite(self.attack_load_bps / 8.0 * self.duration_s):
            raise ValueError(
                "attack_load_bps * duration_s overflows the request count: "
                f"attack_load_bps={self.attack_load_bps}, duration_s={self.duration_s}"
            )
        if not math.isfinite(requests_per_attack(self)):
            raise ValueError(
                "request_size * amplification_factor is too small for the request count: "
                f"request_size={self.profile.request_size}, "
                f"amplification_factor={self.profile.amplification_factor}"
            )


def requests_per_attack(scenario: EvasionScenario) -> float:
    """Requests needed to sustain the load: bytes to deliver / bytes per request out.

    Each request of ``request_size`` bytes yields ``request_size * factor``
    bytes at the victim; the attack must deliver load/8 bytes per second for
    the duration.
    """
    profile = scenario.profile
    total_bytes = scenario.attack_load_bps / 8.0 * scenario.duration_s
    return total_bytes / (profile.request_size * profile.amplification_factor)


def requests_per_amplifier(scenario: EvasionScenario) -> int:
    """Uniform spray: floor of requests per attack over the amplifier population.

    Floor, not round: a fractional request cannot be sent, and the attacker
    rounding down is the conservative assumption for detectability.
    """
    return int(requests_per_attack(scenario) // scenario.profile.amplifier_count)


@dataclass(frozen=True)
class DetectionCell:
    """One (scenario, preset) verdict with the numbers behind it."""

    preset: str
    count_compared: int
    bound: int
    comparison: str
    detected: bool


@dataclass(frozen=True)
class DetectionMatrix:
    scenario: EvasionScenario
    cells: tuple[DetectionCell, ...]

    def __getitem__(self, preset_name: str) -> DetectionCell:
        for cell in self.cells:
            if cell.preset == preset_name:
                return cell
        raise KeyError(preset_name)

    def detected(self, preset_name: str) -> bool:
        return self[preset_name].detected


# The four flag columns of the headline comparison, each with the preset it flags.
_FLAG_COLUMNS = {"amppotmod": "amppotmod", "ccc": "ccc", "newkid": "newkid-mono", "hpi": "hpi"}


def detection_matrix(
    scenario: EvasionScenario,
    presets: Sequence[DetectionPreset] | None = None,
) -> DetectionMatrix:
    """Would each pipeline flag the sprayed attack?

    A sensor-distinguishing scheme (per-sensor scope or dst-addr keyed)
    compares its packet threshold against the per-amplifier request count;
    a platform-wide scheme aggregates over all of the platform's sensors
    first. Multi-sensor conditions need the platform to field that many
    sensors; multi-port conditions cannot be met by a single-protocol
    scenario.
    """
    if presets is None:
        presets = tuple(PRESETS[name] for name in _FLAG_COLUMNS.values())
    per_amplifier = requests_per_amplifier(scenario)

    cells = []
    for preset in presets:
        thresholds = preset.thresholds
        if preset.scheme.sensor_distinguishing:
            count = per_amplifier
        else:
            count = per_amplifier * scenario.platform_sensor_count
        detected = thresholds.passes_load(count)
        if thresholds.min_dst_ports > 1:
            detected = False  # one protocol, one port
        if thresholds.min_sensors > scenario.platform_sensor_count:
            # the spray reaches every sensor equally, so the sensor condition
            # only fails when the platform is too small outright
            detected = False
        cells.append(
            DetectionCell(
                preset=preset.name,
                count_compared=count,
                bound=thresholds.min_packets,
                comparison=thresholds.comparison,
                detected=detected,
            )
        )
    return DetectionMatrix(scenario=scenario, cells=tuple(cells))


def evasion_rows(
    profiles: Sequence[ProtocolProfile] = BUILTIN_PROFILES,
    attack_load_bps: float = 1e9,
    duration_s: float = 300.0,
    platform_sensor_count: int = 8,
) -> list[dict]:
    """One summary row per protocol: request arithmetic plus the four flags."""
    rows = []
    for profile in profiles:
        scenario = EvasionScenario(
            profile=profile,
            attack_load_bps=attack_load_bps,
            duration_s=duration_s,
            platform_sensor_count=platform_sensor_count,
        )
        matrix = detection_matrix(scenario)
        reqs = requests_per_attack(scenario)
        rows.append(
            {
                "port": profile.dst_port,
                "protocol": profile.name,
                "request_bytes": profile.request_size,
                "factor": profile.amplification_factor,
                "amplifiers": profile.amplifier_count,
                "reqs_attack": reqs,
                "reqs_attack_millions": round(reqs / 1e6, 1),
                "reqs_amplifier": requests_per_amplifier(scenario),
                **{column: matrix.detected(preset) for column, preset in _FLAG_COLUMNS.items()},
            }
        )
    return rows


def _number(value: float) -> str:
    # ints print bare, floats keep their shortest repr
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def write_evasion_csv(rows: Sequence[dict], path: str) -> None:
    header = [
        "port", "protocol", "request_bytes", "factor", "amplifiers", "reqs_attack", "reqs_amplifier", *_FLAG_COLUMNS,
    ]
    cells = (
        [
            row["port"],
            row["protocol"],
            _number(row["request_bytes"]),
            _number(row["factor"]),
            row["amplifiers"],
            f"{row['reqs_attack_millions']:.1f}M",
            row["reqs_amplifier"],
            *(int(row[column]) for column in _FLAG_COLUMNS),
        ]
        for row in rows
    )
    _write_csv(path, header, cells)
