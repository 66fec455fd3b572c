"""Coverage accounting against external ground truth.

Two independent vantage points bound what the honeypot platform can see:
baseline attack records from a third party (matched per victim prefix,
protocol, and time) and telescope-attributed scanner lists (matched per
source). The report structures here keep both directions of the comparison
honest: what the detector found that the baseline confirms, what the
baseline says the platform missed, and what the platform would have
confirmed if every single packet were believed (the packet-level bound).

Matching in both directions, and that bound, query one span index: per key
(port, mask, net), port None for a port-less record, the starts of closed
spans in ascending order and the running maximum of their ends. Records
query it for attack spans, or for packets as zero-length spans; attacks
query it for record windows widened by the slack.

Unit conventions, fixed once: per-protocol counts and the ``baseline_only``
side of the Venn triple count baseline *events*; the ``overlap`` and
``honeypot_only`` sides count honeypot *victims*. Baseline records without
port information match on prefix+time only and are tallied separately, they
never enter the per-protocol table or the Venn triple.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .detection import (
    AttackEvent,
    AttackThresholds,
    DetectionPreset,
    _attack_clusters,
    _cluster_pairs,
    victims,
)
from .events import BaselineAttack, PacketEvent, ScannerList, _write_csv, _write_json, ipv4_to_int
from .flows import FlowScheme
from .trace import as_trace

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
    """Baseline records covered: per port, with ports, and port-less (by packets, from :func:`upper_bound`)."""

    per_protocol: dict[int, int] = field(default_factory=dict)
    covered_with_ports: int = 0
    portless_covered: int = 0


_Key = tuple  # (port, mask, net)
_NO_PORT = 1 << 16  # above every port
_Index = dict[_Key, tuple[list[float], list[float]]]
_start, _end = itemgetter(0), itemgetter(1)


def _span_index(filed: dict[_Key, list[tuple[float, float]]]) -> _Index:
    """The span index of the module docstring over the (start, end) spans filed per key."""
    index = {}
    for key, spans in filed.items():
        spans.sort(key=_start)
        index[key] = (list(map(_start, spans)), list(accumulate(map(_end, spans), max)))
    return index


def _meets(index: _Index, key: _Key, lo: float, hi: float) -> bool:
    """True when a span filed under ``key`` meets the closed interval [lo, hi].

    The spans starting at or before ``hi`` are a prefix of the sorted starts,
    and one of them ends at or after ``lo`` iff their running maximum does.
    """
    entry = index.get(key)
    if entry is None:
        return False
    starts, reach = entry
    pos = bisect_right(starts, hi)
    return pos > 0 and reach[pos - 1] >= lo


def _filed(baseline: Sequence[BaselineAttack]) -> tuple[list[list[_Key]], dict[_Key, list], list[int]]:
    """Per record, its key per port and prefix; an empty list under each of
    these keys; and their masks in ascending order. Observations are filed
    only under these keys, so those no record can see are never stored."""
    keys = [[(port, mask, net) for port in record.protocols or (None,) for net, mask in record.nets]
            for record in baseline]
    filed: dict[_Key, list] = {key: [] for record_keys in keys for key in record_keys}
    return keys, filed, sorted({mask for _, mask, _ in filed})


def _coverage(
    baseline: Sequence[BaselineAttack], keys: list[list[_Key]], index: _Index, slack_s: float
) -> UpperBoundFragment:
    """The records an observation span in ``index`` covers: one that meets the
    record's window widened by ``slack_s`` on one of its ports, or anywhere
    for a port-less record. Tallied per port, with ports, and port-less."""
    fragment = UpperBoundFragment()
    for record, record_keys in zip(baseline, keys):
        lo, hi = record.start_ts - slack_s, record.end_ts + slack_s
        ports = dict.fromkeys(key[0] for key in record_keys if _meets(index, key, lo, hi))
        if ports and not record.protocols:
            fragment.portless_covered += 1
        elif ports:
            fragment.covered_with_ports += 1
            for port in ports:
                fragment.per_protocol[port] = fragment.per_protocol.get(port, 0) + 1
    return fragment


def _check_slack(slack_s: float) -> None:
    if not slack_s >= 0:  # NaN too: no window can be widened by it
        raise ValueError(f"slack_s must be >= 0: {slack_s}")
    if slack_s == math.inf:  # as synth's baseline_slack_s: every record would span all time
        raise ValueError(f"slack_s must be finite: {slack_s}")


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
    _check_slack(slack_s)
    keys, filed, masks = _filed(baseline)
    record_spans: dict[_Key, list[tuple[float, float]]] = {}
    for record, record_keys in zip(baseline, keys):
        span = (record.start_ts - slack_s, record.end_ts + slack_s)
        for key in record_keys:
            record_spans.setdefault(key, []).append(span)
    windows = _span_index(record_spans)
    # each attack is filed under the keys its victim, ports and port None fall
    # in, and queries the record windows per port (so never port None)
    observed: dict[int, set] = {}
    confirmed: dict[int, set] = {}
    for attack in attacks:
        within = [mask for mask in masks if mask <= attack.victim.mask]
        span = (attack.first_ts, attack.last_ts)
        for port in (*attack.dst_ports, None):
            for mask in within:
                spans = filed.get((port, mask, attack.victim.net & mask))
                if spans is not None:
                    spans.append(span)
        for port in attack.dst_ports:
            observed.setdefault(port, set()).add(attack.victim)
            if any(_meets(windows, (port, mask, attack.victim.net & mask), *span) for mask in within):
                confirmed.setdefault(port, set()).add(attack.victim)
    covered = _coverage(baseline, keys, _span_index(filed), slack_s)
    portful = [record for record in baseline if record.protocols]

    per_protocol = {}
    for port in sorted(set(observed).union(*(record.protocols for record in portful))):
        seen = observed.get(port, set())
        per_protocol[port] = ProtocolOverlap(
            baseline_total=sum(port in record.protocols for record in portful),
            matched_by_detector=covered.per_protocol.get(port, 0),
            honeypot_victims=len(seen),
            honeypot_only=len(seen - confirmed.get(port, set())),
        )
    victim_matched = set().union(*confirmed.values())
    return OverlapReport(
        per_protocol=per_protocol,
        venn=VennTriple(
            honeypot_only=len(victims(attacks) - victim_matched),
            overlap=len(victim_matched),
            baseline_only=len(portful) - covered.covered_with_ports,
        ),
        baseline_with_ports=len(portful),
        matched_with_ports=covered.covered_with_ports,
        portless_total=len(baseline) - len(portful),
        portless_matched=covered.portless_covered,
    )


def upper_bound(
    events: Iterable[PacketEvent],
    baseline: Sequence[BaselineAttack],
    *,
    slack_s: float = 0.0,
) -> UpperBoundFragment:
    """Packet-level coverage: the detector's matching rule with every packet
    believed as a zero-length attack on its source address.

    A baseline record is covered on port p iff some packet has src_ip inside
    one of its prefixes, dst_port == p, and ts inside the (slack-widened)
    record window. This depends on packets alone, no thresholds. It is not
    a bound on every detector: an attack whose span straddles a record
    window with no packet inside it confirms the record, the packets do not.
    """
    _check_slack(slack_s)
    trace = as_trace(events)
    keys, filed, masks = _filed(baseline)
    # packets are zero-length spans; in ts order, the stamps under a key are
    # their own running maximum. Per mask, a key (port, mask, net) is coded
    # as net << 17 | port, with _NO_PORT for port None.
    values = trace.address_values[trace.src].astype(np.int64)
    index = {}
    for mask in masks:
        key_of = {net << 17 | (_NO_PORT if port is None else port): (port, m, net)
                  for port, m, net in filed if m == mask}
        known = np.sort(np.fromiter(key_of, np.int64, len(key_of)))
        nets = (values & mask) << 17
        for ports in (trace.dst_port, _NO_PORT):
            codes = nets | ports
            # np.isin(codes, known), without the sorted copies of every code that np.isin makes
            hit = known.take(np.searchsorted(known, codes), mode="clip") == codes
            codes, stamps = codes[hit], trace.ts[hit]
            order = np.lexsort((stamps, codes))
            codes, stamps = codes[order], stamps[order].tolist()
            starts = np.flatnonzero(np.diff(codes, prepend=-1)).tolist()
            for code, a, b in zip(codes[starts].tolist(), starts, starts[1:] + [len(stamps)]):
                times = stamps[a:b]
                index[key_of[code]] = (times, times)
    return _coverage(baseline, keys, index, slack_s)


def overlap_report(
    attacks: Sequence[AttackEvent],
    events: Iterable[PacketEvent],
    baseline: Sequence[BaselineAttack],
    *,
    slack_s: float = 0.0,
) -> OverlapReport:
    """Detector matching and packet-level upper bound in one report."""
    report = match_baseline(attacks, baseline, slack_s=slack_s)
    fragment = upper_bound(events, baseline, slack_s=slack_s)
    for port, count in fragment.per_protocol.items():
        report.per_protocol.setdefault(port, ProtocolOverlap()).matched_upper_bound = count
    report.upper_with_ports = fragment.covered_with_ports
    report.portless_upper = fragment.portless_covered
    return report


def report_to_dict(report: OverlapReport) -> dict:
    return {
        "per_protocol": {str(port): asdict(rec) for port, rec in sorted(report.per_protocol.items())},
        "venn": asdict(report.venn),
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
    _write_json(path, report_to_dict(report))


def write_venn_csv(report: OverlapReport, path: str) -> None:
    _write_csv(path, ["set", "count"], asdict(report.venn).items())


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
    trace = as_trace(events)
    listed = scanners.sources
    packets = np.bincount(trace.src, minlength=len(trace.addresses))
    _, columns, members, heads = _attack_clusters(trace, DetectionPreset(thresholds.name, scheme, thresholds))
    _, sources = _cluster_pairs(columns, "src", members, heads)  # each event's sources once
    attack_events = np.bincount(sources, minlength=len(trace.addresses))
    code = {source: index for index, source in enumerate(trace.addresses) if source in listed}
    packet_counts = {source: int(packets[code[source]]) if source in code else 0 for source in listed}
    event_counts = {source: int(attack_events[code[source]]) if source in code else 0 for source in listed}

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
    c = classification
    rows = ([s, c.classes[s], c.packets[s], c.attack_events[s]] for s in sorted(c.classes, key=ipv4_to_int))
    _write_csv(path, ["source", "class", "packets", "attack_events"], rows)


def write_class_shares_csv(classification: SourceClassification, path: str) -> None:
    c = classification
    rows = ([name, c.counts[name], c.shares[name]] for name in (CLASS_ATTACK, CLASS_SCAN_ONLY, CLASS_UNSEEN))
    _write_csv(path, ["class", "count", "share"], rows)
