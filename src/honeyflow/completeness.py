"""Coverage accounting against external ground truth.

Two independent vantage points bound what the honeypot platform can see:
baseline attack records from a third party (matched per victim prefix,
protocol, and time) and telescope-attributed scanner lists (matched per
source). The report structures here keep both directions of the comparison
honest: what the detector found that the baseline confirms, what the
baseline says the platform missed, and what the platform could at best have
confirmed if every single packet were believed (the upper bound).

Unit conventions, fixed once: per-protocol counts and the ``baseline_only``
side of the Venn triple count baseline *events*; the ``overlap`` and
``honeypot_only`` sides count honeypot *victims*. Baseline records without
port information match on prefix+time only and are tallied separately, they
never enter the per-protocol table or the Venn triple.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .detection import (
    GRANULARITY_ADDRESS,
    AttackEvent,
    AttackThresholds,
    detect,
    victims,
)
from .events import BaselineAttack, PacketEvent, ScannerList, ipv4_to_int, open_artifact, prefix_net_mask
from .flows import FlowScheme, assemble

__all__ = [
    "CLASS_ATTACK",
    "CLASS_SCAN_ONLY",
    "CLASS_UNSEEN",
    "ProtocolOverlap",
    "VennTriple",
    "OverlapReport",
    "UpperBoundFragment",
    "SourceClassification",
    "match_baseline",
    "upper_bound",
    "overlap_report",
    "classify_sources",
    "report_to_dict",
    "write_overlap_json",
    "write_venn_csv",
    "write_source_classes_csv",
    "write_class_shares_csv",
]

CLASS_ATTACK = "attack"
CLASS_SCAN_ONLY = "scan-only"
CLASS_UNSEEN = "unseen"


@dataclass
class ProtocolOverlap:
    """Event/victim counts for one destination port."""

    baseline_total: int = 0
    matched_by_detector: int = 0
    matched_upper_bound: int = 0
    honeypot_victims: int = 0
    honeypot_only: int = 0


@dataclass(frozen=True)
class VennTriple:
    honeypot_only: int  # honeypot victims no baseline event confirms
    overlap: int        # honeypot victims confirmed by some baseline event
    baseline_only: int  # baseline events no honeypot victim matches


@dataclass
class OverlapReport:
    per_protocol: dict[int, ProtocolOverlap]
    venn: VennTriple
    baseline_with_ports: int = 0
    matched_with_ports: int = 0
    upper_with_ports: int = 0
    portless_total: int = 0
    portless_matched: int = 0
    portless_upper: int = 0

    @property
    def detector_share(self) -> float:
        """Fraction of port-qualified baseline events the detector confirmed."""
        if self.baseline_with_ports == 0:
            return 0.0
        return self.matched_with_ports / self.baseline_with_ports

    @property
    def upper_share(self) -> float:
        if self.baseline_with_ports == 0:
            return 0.0
        return self.upper_with_ports / self.baseline_with_ports


@dataclass
class UpperBoundFragment:
    """Packet-level coverage: what the platform observed at all, thresholds aside."""

    per_protocol: dict[int, int] = field(default_factory=dict)
    covered_with_ports: int = 0
    portless_covered: int = 0


@dataclass(frozen=True)
class _CompiledBaseline:
    record: BaselineAttack
    nets: tuple[tuple[int, int], ...]  # (network, mask) pairs

    @property
    def portless(self) -> bool:
        return not self.record.protocols


def _compile(baseline: Iterable[BaselineAttack]) -> list[_CompiledBaseline]:
    return [
        _CompiledBaseline(record=b, nets=tuple(prefix_net_mask(p) for p in b.prefixes))
        for b in baseline
    ]


def _victim_probe(victim) -> tuple[int, int]:
    """(value, mask) such that the victim is covered by (net, bmask) iff
    bmask <= mask and value & bmask == net."""
    if victim.granularity == GRANULARITY_ADDRESS:
        return ipv4_to_int(victim.identity), 0xFFFFFFFF
    return prefix_net_mask(victim.identity)


def _covered(probe: tuple[int, int], nets: tuple[tuple[int, int], ...]) -> bool:
    value, vmask = probe
    for net, bmask in nets:
        if bmask <= vmask and value & bmask == net:
            return True
    return False


def match_baseline(
    attacks: Sequence[AttackEvent],
    baseline: Sequence[BaselineAttack],
    *,
    slack_s: float = 0.0,
) -> OverlapReport:
    """Match detected attack events against baseline records.

    A baseline record is confirmed on port p when some attack event's victim
    lies inside one of its prefixes, the event's port set contains p, and
    the two time spans overlap as closed intervals widened by ``slack_s``.
    Prefix-granularity victims match by prefix containment.

    The per-protocol table is keyed by the union of baseline protocols and
    attack ports, so rows exist for protocols only one side saw. Upper-bound
    fields stay zero here; :func:`overlap_report` fills them in.
    """
    if slack_s < 0:
        raise ValueError(f"slack_s must be >= 0: {slack_s}")
    compiled = _compile(baseline)

    portful = [cb for cb in compiled if not cb.portless]
    portless = [cb for cb in compiled if cb.portless]
    event_ports: list[set[int]] = [set() for _ in portful]
    portless_hit = [False] * len(portless)
    victim_matched: set = set()
    matched_victims_per_port: dict[int, set] = {}
    victims_per_port: dict[int, set] = {}

    probes = [(a, _victim_probe(a.victim)) for a in attacks]
    for attack, probe in probes:
        for port in attack.dst_ports:
            victims_per_port.setdefault(port, set()).add(attack.victim)
        for idx, cb in enumerate(portful):
            if attack.first_ts > cb.record.end_ts + slack_s:
                continue
            if attack.last_ts < cb.record.start_ts - slack_s:
                continue
            common = cb.record.protocols & attack.dst_ports
            if not common or not _covered(probe, cb.nets):
                continue
            event_ports[idx].update(common)
            victim_matched.add(attack.victim)
            for port in common:
                matched_victims_per_port.setdefault(port, set()).add(attack.victim)
        for idx, cb in enumerate(portless):
            if portless_hit[idx]:
                continue
            if attack.first_ts > cb.record.end_ts + slack_s:
                continue
            if attack.last_ts < cb.record.start_ts - slack_s:
                continue
            if _covered(probe, cb.nets):
                portless_hit[idx] = True

    ports = set(victims_per_port)
    for cb in portful:
        ports.update(cb.record.protocols)
    per_protocol: dict[int, ProtocolOverlap] = {}
    for port in sorted(ports):
        total = sum(1 for cb in portful if port in cb.record.protocols)
        matched = sum(1 for hit in event_ports if port in hit)
        observed = victims_per_port.get(port, set())
        confirmed = matched_victims_per_port.get(port, set())
        per_protocol[port] = ProtocolOverlap(
            baseline_total=total,
            matched_by_detector=matched,
            honeypot_victims=len(observed),
            honeypot_only=len(observed - confirmed),
        )

    all_victims = victims(attacks)
    matched_events = sum(1 for hit in event_ports if hit)
    venn = VennTriple(
        honeypot_only=len(all_victims - victim_matched),
        overlap=len(victim_matched),
        baseline_only=len(portful) - matched_events,
    )
    return OverlapReport(
        per_protocol=per_protocol,
        venn=venn,
        baseline_with_ports=len(portful),
        matched_with_ports=matched_events,
        portless_total=len(portless),
        portless_matched=sum(portless_hit),
    )


def upper_bound(
    events: Sequence[PacketEvent],
    baseline: Sequence[BaselineAttack],
    *,
    slack_s: float = 0.0,
) -> UpperBoundFragment:
    """Best-case coverage if every observed packet counted as an attack.

    A baseline record is covered on port p iff some packet has src_ip inside
    one of its prefixes, dst_port == p, and ts inside the (slack-widened)
    record window. This depends on packets alone, no thresholds, so it upper
    bounds any detector that derives attacks from these events.
    """
    if slack_s < 0:
        raise ValueError(f"slack_s must be >= 0: {slack_s}")
    ordered = sorted(events, key=lambda e: e.ts)
    stamps = [e.ts for e in ordered]

    fragment = UpperBoundFragment()
    port_hits: dict[int, int] = {}
    for cb in _compile(baseline):
        lo = bisect_left(stamps, cb.record.start_ts - slack_s)
        hi = bisect_right(stamps, cb.record.end_ts + slack_s)
        if cb.portless:
            for event in ordered[lo:hi]:
                if _covered((ipv4_to_int(event.src_ip), 0xFFFFFFFF), cb.nets):
                    fragment.portless_covered += 1
                    break
            continue
        wanted = set(cb.record.protocols)
        hit: set[int] = set()
        for event in ordered[lo:hi]:
            if event.dst_port in wanted and event.dst_port not in hit:
                if _covered((ipv4_to_int(event.src_ip), 0xFFFFFFFF), cb.nets):
                    hit.add(event.dst_port)
                    if hit == wanted:
                        break
        if hit:
            fragment.covered_with_ports += 1
        for port in hit:
            port_hits[port] = port_hits.get(port, 0) + 1
    fragment.per_protocol = port_hits
    return fragment


def overlap_report(
    attacks: Sequence[AttackEvent],
    events: Sequence[PacketEvent],
    baseline: Sequence[BaselineAttack],
    *,
    slack_s: float = 0.0,
) -> OverlapReport:
    """Detector matching and packet-level upper bound in one report."""
    report = match_baseline(attacks, baseline, slack_s=slack_s)
    fragment = upper_bound(events, baseline, slack_s=slack_s)
    for port, count in fragment.per_protocol.items():
        if port not in report.per_protocol:
            report.per_protocol[port] = ProtocolOverlap()
        report.per_protocol[port].matched_upper_bound = count
    report.upper_with_ports = fragment.covered_with_ports
    report.portless_upper = fragment.portless_covered
    return report


def report_to_dict(report: OverlapReport) -> dict:
    return {
        "per_protocol": {
            str(port): {
                "baseline_total": rec.baseline_total,
                "matched_by_detector": rec.matched_by_detector,
                "matched_upper_bound": rec.matched_upper_bound,
                "honeypot_victims": rec.honeypot_victims,
                "honeypot_only": rec.honeypot_only,
            }
            for port, rec in sorted(report.per_protocol.items())
        },
        "venn": {
            "honeypot_only": report.venn.honeypot_only,
            "overlap": report.venn.overlap,
            "baseline_only": report.venn.baseline_only,
        },
        "baseline_with_ports": report.baseline_with_ports,
        "matched_with_ports": report.matched_with_ports,
        "upper_with_ports": report.upper_with_ports,
        "portless": {
            "total": report.portless_total,
            "matched_by_detector": report.portless_matched,
            "matched_upper_bound": report.portless_upper,
        },
        "detector_share": report.detector_share,
        "upper_share": report.upper_share,
    }


def write_overlap_json(report: OverlapReport, path: str) -> None:
    with open_artifact(path) as handle:
        handle.write(json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")


def write_venn_csv(report: OverlapReport, path: str) -> None:
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["set", "count"])
        writer.writerow(["honeypot_only", report.venn.honeypot_only])
        writer.writerow(["overlap", report.venn.overlap])
        writer.writerow(["baseline_only", report.venn.baseline_only])


# -- scanner classification ---------------------------------------------------

@dataclass
class SourceClassification:
    """Per-source verdicts for a telescope scanner list against one detector."""

    classes: dict[str, str]
    packets: dict[str, int]
    attack_events: dict[str, int]
    counts: dict[str, int]
    shares: dict[str, float]


def classify_sources(
    scanners: ScannerList,
    events: Iterable[PacketEvent],
    scheme: FlowScheme,
    thresholds: AttackThresholds,
) -> SourceClassification:
    """Split a scanner list into unseen / scan-only / attack sources.

    A listed source is *unseen* when it never appears as src_ip in the
    trace, *attack* when at least one detected attack event contains one of
    its packets, and *scan-only* otherwise. The three classes are exhaustive
    and mutually exclusive over the list by construction. Shares are
    fractions of the full scanner list.
    """
    stream = list(events)
    listed = scanners.sources
    packet_counts = {source: 0 for source in listed}
    for event in stream:
        if event.src_ip in packet_counts:
            packet_counts[event.src_ip] += 1

    attacks = detect(assemble(stream, scheme, thresholds.idle_timeout), thresholds)
    event_counts = {source: 0 for source in listed}
    for attack in attacks:
        sources = {p.src_ip for f in attack.flows for p in f.packets}
        for source in sources & listed:
            event_counts[source] += 1

    classes = {}
    for source in listed:
        if packet_counts[source] == 0:
            classes[source] = CLASS_UNSEEN
        elif event_counts[source] > 0:
            classes[source] = CLASS_ATTACK
        else:
            classes[source] = CLASS_SCAN_ONLY

    counts = {CLASS_ATTACK: 0, CLASS_SCAN_ONLY: 0, CLASS_UNSEEN: 0}
    for verdict in classes.values():
        counts[verdict] += 1
    total = len(listed)
    shares = {
        name: (count / total if total else 0.0) for name, count in counts.items()
    }
    return SourceClassification(
        classes=classes,
        packets=packet_counts,
        attack_events=event_counts,
        counts=counts,
        shares=shares,
    )


def write_source_classes_csv(classification: SourceClassification, path: str) -> None:
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["source", "class", "packets", "attack_events"])
        for source in sorted(classification.classes, key=ipv4_to_int):
            writer.writerow(
                [
                    source,
                    classification.classes[source],
                    classification.packets[source],
                    classification.attack_events[source],
                ]
            )


def write_class_shares_csv(classification: SourceClassification, path: str) -> None:
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["class", "count", "share"])
        for name in (CLASS_ATTACK, CLASS_SCAN_ONLY, CLASS_UNSEEN):
            writer.writerow([name, classification.counts[name], classification.shares[name]])
