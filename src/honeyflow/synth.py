"""Synthetic corpora with planted, exactly-known ground truth.

A scenario plants attacks (one victim hammered via many sensors), scans
(one source probing every sensor), carpet floods (many victims inside one
prefix), background noise, and optionally a baseline feed in which a chosen
fraction of records provably corresponds to planted victims. Every packet
carries exactly one label, so detector output can be scored.

Reserved pools keep the truth exact: sensor addresses come from
192.0.2.0/24, noise sources from 240.0.0.0/4, and unmatched baseline
victims from 198.18.0.0/15. Planted victims and scan sources must stay out
of the noise and unmatched-baseline pools; scenario validation enforces it.

All randomness flows through one ``random.Random(seed)``, so a spec is a
complete, reproducible description of its corpus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields as dataclass_fields, replace
from functools import partial
from itertools import chain
from typing import Sequence

from .events import (
    BaselineAttack,
    PacketEvent,
    ScannerList,
    _is_finite,
    _write_artifacts,
    _write_json,
    _write_lines,
    int_to_ipv4,
    ipv4_to_int,
    normalize_prefix,
    prefix_net_mask,
    write_baseline,
    write_scanner_list,
    write_trace,
)
from .trace import _CHUNK_LINES, Trace, _Rows

__all__ = [
    "SynthesisError",
    "AttackSpec",
    "ScanSpec",
    "CarpetSpec",
    "ScenarioSpec",
    "LabeledCorpus",
    "LABEL_NOISE",
    "synth",
    "synth_sensor_victim_map",
    "write_corpus",
    "spec_from_dict",
    "spec_to_dict",
]

LABEL_NOISE = "noise"

_NOISE_NET, _NOISE_MASK = prefix_net_mask("240.0.0.0/4")
_UNMATCHED_NET, _UNMATCHED_MASK = prefix_net_mask("198.18.0.0/15")
_MAX_COUNT = 10**7  # the most packets, and baseline records, a scenario may ask for; converge's cap too


class SynthesisError(ValueError):
    """The scenario contradicts itself or exceeds its own bounds."""


@dataclass(frozen=True)
class AttackSpec:
    """One victim, sprayed at ``rate_pps`` per sensor over [start, stop).

    ``sensors`` lists 0-based sensor indices; empty means all sensors.
    ``src_port`` pins the spoofed source port, None draws one per attack.
    """

    victim: str
    dst_port: int = 123
    start: float = 0.0
    stop: float = 60.0
    rate_pps: float = 1.0
    sensors: tuple[int, ...] = ()
    src_port: int | None = None

    def __post_init__(self) -> None:
        ipv4_to_int(self.victim)
        if not self.stop > self.start:
            raise ValueError(f"attack window is empty: [{self.start}, {self.stop})")
        if not self.rate_pps > 0:
            raise ValueError(f"rate_pps must be positive: {self.rate_pps}")

    @property
    def packets_per_sensor(self) -> int:
        return int(round(self.rate_pps * (self.stop - self.start)))


@dataclass(frozen=True)
class ScanSpec:
    """One source probing ports across sensors, one thin trickle of packets."""

    source: str
    ports: tuple[int, ...] = (123,)
    packets_per_sensor_port: int = 1
    start: float = 0.0
    spacing_s: float = 1.0
    sensors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ipv4_to_int(self.source)
        if not self.ports:
            raise ValueError("ports must be non-empty")
        if self.packets_per_sensor_port < 1:
            raise ValueError(
                f"packets_per_sensor_port must be >= 1: {self.packets_per_sensor_port}"
            )
        if not self.spacing_s > 0:
            raise ValueError(f"spacing_s must be positive: {self.spacing_s}")


@dataclass(frozen=True)
class CarpetSpec:
    """Many victims inside one prefix, each flow heavy enough to be an attack."""

    prefix: str = "203.0.113.0/24"
    n_victims: int = 16
    n_flows: int = 16
    dst_port: int = 123
    packets_per_flow: int = 20
    rate_pps: float = 1.0
    start: float = 0.0
    flow_spacing_s: float = 5.0
    sensors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        normalize_prefix(self.prefix)
        if self.n_victims < 1:
            raise ValueError(f"n_victims must be >= 1: {self.n_victims}")
        if self.n_flows < self.n_victims:
            raise ValueError("n_flows must be >= n_victims so every victim is hit")
        if self.packets_per_flow < 1:
            raise ValueError(f"packets_per_flow must be >= 1: {self.packets_per_flow}")
        if not self.rate_pps > 0:
            raise ValueError(f"rate_pps must be positive: {self.rate_pps}")
        if self.flow_spacing_s < 0:
            raise ValueError(f"flow_spacing_s must be >= 0: {self.flow_spacing_s}")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 0
    sensors: int = 8
    duration_s: float = 3600.0
    attacks: tuple[AttackSpec, ...] = ()
    scans: tuple[ScanSpec, ...] = ()
    carpets: tuple[CarpetSpec, ...] = ()
    noise_packets: int = 0
    noise_ports: tuple[int, ...] = (53, 123, 389, 1900)
    baseline_events: int = 0
    baseline_overlap: float = 0.0
    baseline_slack_s: float = 30.0

    def __post_init__(self) -> None:
        if not 1 <= self.sensors <= 254:
            raise ValueError(f"sensors must be 1..254: {self.sensors}")
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be positive: {self.duration_s}")
        if self.noise_packets < 0:
            raise ValueError(f"noise_packets must be >= 0: {self.noise_packets}")
        if not self.noise_ports:
            raise ValueError("noise_ports must be non-empty")
        if not 0 <= self.baseline_events <= _MAX_COUNT:
            raise ValueError(f"baseline_events must be in 0..{_MAX_COUNT}: {self.baseline_events}")
        if not 0.0 <= self.baseline_overlap <= 1.0:
            raise ValueError(f"baseline_overlap must be in [0, 1]: {self.baseline_overlap}")
        if not 0 <= self.baseline_slack_s < math.inf:
            raise ValueError(f"baseline_slack_s must be finite and >= 0: {self.baseline_slack_s}")


@dataclass
class LabeledCorpus:
    """Synthesized trace plus everything needed to score a detector on it."""

    events: Trace
    labels: list[str]
    sensor_ids: tuple[str, ...]
    victims: set[str]
    sensor_victims: dict[str, set[str]]
    carpet_prefixes: set[str]
    scanner_sources: set[str]
    baseline: list[BaselineAttack]
    baseline_matched: int
    expected_overlap: float | None


def _in_pool(address: str, net: int, mask: int) -> bool:
    return ipv4_to_int(address) & mask == net


def _sensor_indices(requested: tuple[int, ...], n_sensors: int, what: str) -> tuple[int, ...]:
    if not requested:
        return tuple(range(n_sensors))
    for idx in requested:
        if not 0 <= idx < n_sensors:
            raise SynthesisError(f"{what} references sensor index {idx}, platform has {n_sensors}")
    return requested


def _check_planted_address(address: str, what: str) -> None:
    if _in_pool(address, _NOISE_NET, _NOISE_MASK):
        raise SynthesisError(f"{what} {address} lies in the reserved noise pool 240.0.0.0/4")
    if _in_pool(address, _UNMATCHED_NET, _UNMATCHED_MASK):
        raise SynthesisError(
            f"{what} {address} lies in the reserved unmatched-baseline pool 198.18.0.0/15"
        )


def synth(spec: ScenarioSpec) -> LabeledCorpus:
    """Generate the corpus a scenario describes.

    Planted flows keep inter-packet gaps at or below 1.5 / rate_pps by
    construction (each packet jitters inside its own slot), so any idle
    timeout of at least twice the slot width keeps a planted flow whole.

    Raises :class:`SynthesisError` on cross-field contradictions: windows
    past the scenario duration, zero-packet attacks, sensor indices off the
    platform, more matched baseline records than distinct planted victims,
    or planted addresses inside reserved pools; and, before drawing, on more
    than 10**7 packets or an unbounded number.
    """
    try:  # an infinite rate or window overflows
        planted = (
            spec.noise_packets
            + sum(a.packets_per_sensor * (len(a.sensors) or spec.sensors) for a in spec.attacks)
            + sum((len(s.sensors) or spec.sensors) * len(s.ports) * s.packets_per_sensor_port for s in spec.scans)
            + sum(c.n_flows * c.packets_per_flow for c in spec.carpets)
        )
    except OverflowError:
        planted = math.inf
    if planted > _MAX_COUNT:
        raise SynthesisError(f"scenario plants more than {_MAX_COUNT} packets")
    rng = random.Random(spec.seed)
    sensor_ids = tuple(f"s{i:02d}" for i in range(1, spec.sensors + 1))
    sensor_addrs = tuple(f"192.0.2.{i}" for i in range(1, spec.sensors + 1))

    rows = _Rows()  # checked, coded and sorted as the trace reader does it
    chunk: list[tuple] = []
    labels: list[str] = []
    victims: set[str] = set()
    sensor_victims: dict[str, set[str]] = {sid: set() for sid in sensor_ids}
    carpet_prefixes: set[str] = set()
    scanner_sources: set[str] = set()
    # victim -> (first_ts, last_ts, ports) over planted traffic, for baseline windows
    windows: dict[str, list] = {}

    def add_chunk() -> None:
        if not rows.add(*zip(*chunk)):
            for row, label in zip(chunk, labels[-len(chunk):]):  # only to name the first bad row
                try:
                    PacketEvent(*row)
                except ValueError as exc:
                    raise SynthesisError(f"{label}: {exc}") from exc
            raise AssertionError("the column checks rejected planted rows that PacketEvent accepts")
        chunk.clear()

    def plant(ts: float, sensor_idx: int, src: str, sport: int, dport: int, label: str) -> None:
        chunk.append((float(ts), sensor_ids[sensor_idx], src, sport, sensor_addrs[sensor_idx], dport))
        labels.append(label)
        if len(chunk) == _CHUNK_LINES:
            add_chunk()

    def burst(start: float, slot: float, n: int, sensor_idx: int, victim: str, sport: int, dport: int,
              label: str) -> None:
        """``n`` packets to ``victim`` at one sensor, the k-th jittered within the k-th ``slot`` after ``start``."""
        victims.add(victim)
        sensor_victims[sensor_ids[sensor_idx]].add(victim)
        window = windows.setdefault(victim, [math.inf, -math.inf, set()])
        window[2].add(dport)
        for k in range(n):
            ts = start + (k + 0.5 * rng.random()) * slot
            plant(ts, sensor_idx, victim, sport, dport, label)
            window[0], window[1] = min(window[0], ts), max(window[1], ts)

    for i, attack in enumerate(spec.attacks, 1):
        label = f"attack-{i}"
        _check_planted_address(attack.victim, f"attack-{i} victim")
        if attack.stop > spec.duration_s:
            raise SynthesisError(f"attack-{i} runs past the scenario duration")
        n = attack.packets_per_sensor
        if n < 1:
            raise SynthesisError(f"attack-{i} produces zero packets at rate {attack.rate_pps}")
        indices = _sensor_indices(attack.sensors, spec.sensors, f"attack-{i}")
        src_port = attack.src_port if attack.src_port is not None else rng.randint(1024, 65535)
        slot = (attack.stop - attack.start) / n
        for idx in indices:
            burst(attack.start, slot, n, idx, attack.victim, src_port, attack.dst_port, label)

    for i, scan in enumerate(spec.scans, 1):
        label = f"scan-{i}"
        _check_planted_address(scan.source, f"scan-{i} source")
        scanner_sources.add(scan.source)
        indices = _sensor_indices(scan.sensors, spec.sensors, f"scan-{i}")
        step = 0
        for idx in indices:
            for port in scan.ports:
                for _ in range(scan.packets_per_sensor_port):
                    ts = scan.start + step * scan.spacing_s
                    if ts > spec.duration_s:
                        raise SynthesisError(f"scan-{i} runs past the scenario duration")
                    plant(ts, idx, scan.source, rng.randint(1024, 65535), port, label)
                    step += 1

    for i, carpet in enumerate(spec.carpets, 1):
        label = f"carpet-{i}"
        net, mask = prefix_net_mask(carpet.prefix)
        plen = mask.bit_count()
        capacity = (1 << (32 - plen)) - 2 if plen < 31 else 1
        if carpet.n_victims > capacity:
            raise SynthesisError(
                f"carpet-{i} wants {carpet.n_victims} victims, /{plen} holds {capacity}"
            )
        carpet_prefixes.add(normalize_prefix(carpet.prefix))
        addresses = [int_to_ipv4(net + 1 + j) for j in range(carpet.n_victims)]
        for address in addresses:
            _check_planted_address(address, f"carpet-{i} victim")
        indices = _sensor_indices(carpet.sensors, spec.sensors, f"carpet-{i}")
        slot = 1.0 / carpet.rate_pps
        span = (carpet.n_flows - 1) * carpet.flow_spacing_s + carpet.packets_per_flow * slot
        if carpet.start + span > spec.duration_s:
            raise SynthesisError(f"carpet-{i} runs past the scenario duration")
        src_port = rng.randint(1024, 65535)
        for f in range(carpet.n_flows):
            burst(carpet.start + f * carpet.flow_spacing_s, slot, carpet.packets_per_flow, indices[f % len(indices)],
                  addresses[f % carpet.n_victims], src_port, carpet.dst_port, label)

    for _ in range(spec.noise_packets):
        src = f"240.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        ts = rng.uniform(0.0, spec.duration_s)
        idx = rng.randrange(spec.sensors)
        port = rng.choice(spec.noise_ports)
        plant(ts, idx, src, rng.randint(1024, 65535), port, LABEL_NOISE)
    if chunk:
        add_chunk()
    events, order = rows.sort()

    baseline: list[BaselineAttack] = []
    baseline_matched = 0
    expected_overlap: float | None = None
    if spec.baseline_events:
        n_match = round(spec.baseline_overlap * spec.baseline_events)
        if n_match > len(windows):
            raise SynthesisError(
                f"baseline overlap needs {n_match} planted victims, scenario has {len(windows)}"
            )
        chosen = sorted(windows, key=ipv4_to_int)[:n_match]
        for victim in chosen:
            first_ts, last_ts, ports = windows[victim]
            baseline.append(
                BaselineAttack(
                    start_ts=max(0.0, first_ts - spec.baseline_slack_s),
                    end_ts=last_ts + spec.baseline_slack_s,
                    protocols=frozenset(ports),
                    prefixes=frozenset({f"{victim}/24"}),
                )
            )
        n_unmatched = spec.baseline_events - n_match
        if n_unmatched > 512:
            raise SynthesisError(f"unmatched baseline pool holds 512 /24s, need {n_unmatched}")
        for k in range(n_unmatched):
            prefix = f"198.{18 + (k >> 8)}.{k & 255}.0/24"
            start = rng.uniform(0.0, max(spec.duration_s - 60.0, 1.0))
            end = start + rng.uniform(10.0, 60.0)
            baseline.append(
                BaselineAttack(
                    start_ts=start,
                    end_ts=end,
                    protocols=frozenset({rng.choice(spec.noise_ports)}),
                    prefixes=frozenset({prefix}),
                )
            )
        baseline_matched = n_match
        expected_overlap = n_match / spec.baseline_events

    return LabeledCorpus(
        events=events,
        labels=list(map(labels.__getitem__, order.tolist())),
        sensor_ids=sensor_ids,
        victims=victims,
        sensor_victims=sensor_victims,
        carpet_prefixes=carpet_prefixes,
        scanner_sources=scanner_sources,
        baseline=baseline,
        baseline_matched=baseline_matched,
        expected_overlap=expected_overlap,
    )


def synth_sensor_victim_map(
    n_sensors: int,
    universe_size: int,
    coverage: float | Sequence[float] = 0.165,
    mode: str = "uniform",
    seed: int = 0,
) -> dict[str, set[str]]:
    """Sensor -> victim-set maps with a controlled overlap structure.

    ``uniform`` samples each sensor's victims independently, ``identical``
    gives every sensor the same sample, ``disjoint`` hands out consecutive
    chunks of a shuffled universe. ``coverage`` is the per-sensor fraction
    of the universe (scalar or one value per sensor).
    """
    if n_sensors < 1:
        raise ValueError(f"n_sensors must be >= 1: {n_sensors}")
    if universe_size < 1:
        raise ValueError(f"universe_size must be >= 1: {universe_size}")
    if mode not in ("uniform", "identical", "disjoint"):
        raise ValueError(f"unknown mode: {mode!r}")
    if isinstance(coverage, (int, float)):
        coverages = [float(coverage)] * n_sensors
    else:
        coverages = [float(c) for c in coverage]
        if len(coverages) != n_sensors:
            raise ValueError(f"need {n_sensors} coverage values, got {len(coverages)}")
    sizes = []
    for c in coverages:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"coverage must be in [0, 1]: {c}")
        sizes.append(round(c * universe_size))

    rng = random.Random(seed)
    universe = [f"v{i:05d}" for i in range(universe_size)]
    ids = [f"s{i:02d}" for i in range(1, n_sensors + 1)]

    if mode == "identical":
        shared = set(rng.sample(universe, sizes[0]))
        return {sid: set(shared) for sid in ids}
    if mode == "disjoint":
        if sum(sizes) > universe_size:
            raise ValueError("disjoint mode needs sum of per-sensor sizes <= universe size")
        shuffled = universe[:]
        rng.shuffle(shuffled)
        mapping = {}
        offset = 0
        for sid, size in zip(ids, sizes):
            mapping[sid] = set(shuffled[offset : offset + size])
            offset += size
        return mapping
    return {sid: set(rng.sample(universe, size)) for sid, size in zip(ids, sizes)}


def _corpus_artifacts(corpus: LabeledCorpus) -> dict:
    """The corpus artifacts, file name -> writer; the baseline and scanner list only when planted."""
    labels = (f"{index},{label}" for index, label in enumerate(corpus.labels))
    artifacts = {
        "events.jsonl": partial(write_trace, corpus.events),
        "labels.csv": partial(_write_lines, lines=chain(["event_index,label"], labels)),
    }
    if corpus.baseline:
        artifacts["baseline.jsonl"] = partial(write_baseline, corpus.baseline)
    if corpus.scanner_sources:
        artifacts["scanners.txt"] = partial(write_scanner_list, ScannerList(sources=frozenset(corpus.scanner_sources)))
    truth = {
        "n_events": len(corpus.events),
        "sensors": list(corpus.sensor_ids),
        "victims": sorted(corpus.victims, key=ipv4_to_int),
        "sensor_victims": {
            sid: sorted(observed, key=ipv4_to_int)
            for sid, observed in sorted(corpus.sensor_victims.items())
        },
        "carpet_prefixes": sorted(corpus.carpet_prefixes),
        "scanner_sources": sorted(corpus.scanner_sources, key=ipv4_to_int),
        "baseline_events": len(corpus.baseline),
        "baseline_matched": corpus.baseline_matched,
        "expected_overlap": corpus.expected_overlap,
    }
    artifacts["truth.json"] = partial(_write_json, value=truth)
    return artifacts


def write_corpus(corpus: LabeledCorpus, out_dir: str) -> list[str]:
    """Write the corpus artifacts; returns the file names written."""
    return _write_artifacts(out_dir, _corpus_artifacts(corpus))


# -- spec (de)serialization for the CLI ---------------------------------------

# The JSON values each annotation of a spec field takes, and their name in an error.
_JSON_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "int | None": (lambda v: v is None or type(v) is int, "an integer or null"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple[int, ...]": (lambda v: type(v) is list and all(type(item) is int for item in v), "a list of integers"),
}


def _build(cls, data, what: str):
    if not isinstance(data, dict):
        raise SynthesisError(f"{what} must be a JSON object")
    names = {f.name for f in dataclass_fields(cls)}
    for key in data:
        if key not in names:
            raise SynthesisError(f"unknown key {key!r} in {what}")
    kwargs = dict(data)
    for f in dataclass_fields(cls):
        if f.name in kwargs and f.type in _JSON_TYPES:
            takes, kind = _JSON_TYPES[f.type]
            if not takes(kwargs[f.name]):
                raise SynthesisError(f"{what}: {f.name} must be {kind}")
            if f.type == "float" and type(kwargs[f.name]) is int and not _is_finite(kwargs[f.name]):
                raise SynthesisError(f"{what}: {f.name} is beyond the float range")
            if type(kwargs[f.name]) is list:
                kwargs[f.name] = tuple(kwargs[f.name])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SynthesisError(f"{what}: {exc}") from exc


def spec_from_dict(data: dict) -> ScenarioSpec:
    if not isinstance(data, dict):
        raise SynthesisError("scenario spec must be a JSON object")
    top = dict(data)
    parts = {}
    for name, cls in (("attacks", AttackSpec), ("scans", ScanSpec), ("carpets", CarpetSpec)):
        items = top.pop(name, [])
        if not isinstance(items, list):
            raise SynthesisError(f"scenario spec: {name} must be a list")
        parts[name] = tuple(_build(cls, d, f"{name[:-1]} spec") for d in items)
    return replace(_build(ScenarioSpec, top, "scenario spec"), **parts)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    def plain(obj):
        out = {}
        for f in dataclass_fields(obj):
            value = getattr(obj, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    data = plain(spec)
    data["attacks"] = [plain(a) for a in spec.attacks]
    data["scans"] = [plain(s) for s in spec.scans]
    data["carpets"] = [plain(c) for c in spec.carpets]
    return data
