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
from heapq import heappop, heappush
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .detection import (
    GRANULARITY_ADDRESS,
    AttackEvent,
    AttackThresholds,
    DetectionPreset,
    detect_attacks,
    victims,
)
from .events import BaselineAttack, PacketEvent, ScannerList, ipv4_to_int, open_artifact, prefix_net_mask
from .flows import FlowScheme

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


class _BucketSweep:
    """Records of one (mask, net) bucket, swept by attacks in first_ts order.

    Windows are widened by the slack: a record spans [start_ts - slack_s,
    end_ts + slack_s]. Records whose widened start precedes the current
    attack's first_ts sit in a heap keyed by widened end; those ending
    before first_ts are popped and can match no later attack either.
    """

    __slots__ = ("order", "starts", "ends", "next", "open")

    def __init__(self, indices: list[int], starts: list[float], ends: list[float]) -> None:
        self.order = sorted(indices, key=starts.__getitem__)
        self.starts = [starts[i] for i in self.order]
        self.ends = ends
        self.next = 0
        self.open: list[tuple[float, int]] = []

    def overlapping(self, first_ts: float, last_ts: float) -> list[int]:
        """Indices of the records whose widened window meets [first_ts, last_ts]."""
        order, starts, heap = self.order, self.starts, self.open
        pos = self.next
        while pos < len(order) and starts[pos] < first_ts:
            heappush(heap, (self.ends[order[pos]], order[pos]))
            pos += 1
        self.next = pos
        while heap and heap[0][0] < first_ts:
            heappop(heap)
        # widened ends are never below widened starts, so the records
        # starting inside the span end inside or after it
        return [index for _, index in heap] + order[pos:bisect_right(starts, last_ts, pos)]


def _overlapping_records(
    probes: list[tuple[AttackEvent, tuple[int, int]]],
    records: list[_CompiledBaseline],
    slack_s: float,
) -> Iterator[tuple[AttackEvent, set[int]]]:
    """Each attack with the indices of the records that cover its victim in
    prefix and overlap its span in time; ``probes`` come in first_ts order.

    The time test is the closed-interval one, ``first_ts <= end_ts + slack_s``
    and ``last_ts >= start_ts - slack_s``, with the bounds computed once.
    """
    starts = [cb.record.start_ts - slack_s for cb in records]
    ends = [cb.record.end_ts + slack_s for cb in records]
    members: dict[tuple[int, int], list[int]] = {}
    for index, cb in enumerate(records):
        for net, mask in cb.nets:
            members.setdefault((mask, net), []).append(index)
    buckets = {key: _BucketSweep(indices, starts, ends) for key, indices in members.items()}
    masks = sorted({mask for mask, _ in buckets})
    for attack, (value, vmask) in probes:
        # a set: a record holding two prefixes that both cover the victim
        # is found once
        found: set[int] = set()
        for mask in masks:
            if mask > vmask:
                break
            bucket = buckets.get((mask, value & mask))
            if bucket is not None:
                found.update(bucket.overlapping(attack.first_ts, attack.last_ts))
        yield attack, found


def _stamp_within(stamps: list[float] | None, lo: float, hi: float) -> bool:
    """True when the ascending ``stamps`` hold a value in [lo, hi]."""
    if not stamps:
        return False
    pos = bisect_left(stamps, lo)
    return pos < len(stamps) and stamps[pos] <= hi


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
    if not slack_s >= 0:  # NaN too: no window can be widened by it
        raise ValueError(f"slack_s must be >= 0: {slack_s}")
    compiled = _compile(baseline)

    portful = [cb for cb in compiled if not cb.portless]
    portless = [cb for cb in compiled if cb.portless]
    event_ports: list[set[int]] = [set() for _ in portful]
    portless_hit = [False] * len(portless)
    victim_matched: set = set()
    matched_victims_per_port: dict[int, set] = {}
    victims_per_port: dict[int, set] = {}

    for attack in attacks:
        for port in attack.dst_ports:
            victims_per_port.setdefault(port, set()).add(attack.victim)
    probes = sorted(
        ((a, _victim_probe(a.victim)) for a in attacks), key=lambda pair: pair[0].first_ts
    )
    for attack, found in _overlapping_records(probes, portful, slack_s):
        for idx in found:
            common = portful[idx].record.protocols & attack.dst_ports
            if not common:
                continue
            event_ports[idx].update(common)
            victim_matched.add(attack.victim)
            for port in common:
                matched_victims_per_port.setdefault(port, set()).add(attack.victim)
    for _, found in _overlapping_records(probes, portless, slack_s):
        for idx in found:
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
    if not slack_s >= 0:  # NaN too: no window can be widened by it
        raise ValueError(f"slack_s must be >= 0: {slack_s}")
    compiled = _compile(baseline)
    masks = sorted({mask for cb in compiled for _, mask in cb.nets})
    ports = {port for cb in compiled for port in cb.record.protocols}
    any_portless = any(cb.portless for cb in compiled)

    # ascending packet stamps per (dst_port, mask, src & mask), and per
    # (None, mask, src & mask) for the portless records
    stamps: dict[tuple[int | None, int, int], list[float]] = {}
    src_values: dict[str, int] = {}
    for event in sorted(events, key=attrgetter("ts")):
        value = src_values.get(event.src_ip)
        if value is None:
            value = src_values[event.src_ip] = ipv4_to_int(event.src_ip)
        port = event.dst_port if event.dst_port in ports else None
        for mask in masks:
            net = value & mask
            if port is not None:
                stamps.setdefault((port, mask, net), []).append(event.ts)
            if any_portless:
                stamps.setdefault((None, mask, net), []).append(event.ts)

    fragment = UpperBoundFragment()
    port_hits: dict[int, int] = {}
    for cb in compiled:
        lo = cb.record.start_ts - slack_s
        hi = cb.record.end_ts + slack_s
        if cb.portless:
            if any(_stamp_within(stamps.get((None, mask, net)), lo, hi) for net, mask in cb.nets):
                fragment.portless_covered += 1
            continue
        hit = [
            port
            for port in cb.record.protocols
            if any(_stamp_within(stamps.get((port, mask, net)), lo, hi) for net, mask in cb.nets)
        ]
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

    attacks = detect_attacks(stream, DetectionPreset(thresholds.name, scheme, thresholds))
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
