"""Shared test fixtures: random traces and independent oracles.

The flow-partition oracle deliberately reimplements flow semantics from
scratch (ipaddress for prefix truncation, plain dict-of-lists grouping,
explicit gap scan) so the engine and the oracle can only agree by both
being right. The assembly oracle is the stream-order, dict-of-open-flows
assembly that :func:`honeyflow.flows.assemble` must stay equal to, flow
order and error text included. The detection oracle is the flow-object
loop that :func:`honeyflow.detection.detect` and
:func:`honeyflow.detection.detect_attacks` must stay equal to; the sweep
oracle recomputes every grid cell with both oracles. The ingest oracle is
the plain line-by-line parser and sort that :func:`honeyflow.load_trace`
must stay equal to. The baseline-matching and carpet oracles are the
nested loops that the prefix and time indexes of
:mod:`honeyflow.completeness` and the sorted-column counts of
:func:`honeyflow.detection.detect_carpet_bombing` replaced. The detection
and carpet oracles build their events with :func:`oracle_attack_event`,
which reads each flow through its properties where the engine reads
packet columns. The
permutation-sample oracle is the shares matrix and ``np.percentile``
summaries that the convergence count histograms replaced, and the greedy
oracle is the set-difference loop that the bitset greedy order replaced.
"""

from __future__ import annotations

import ipaddress
import json
import math
import random
from dataclasses import replace

from honeyflow import FormatError, PacketEvent
from honeyflow.detection import (
    GRANULARITY_ADDRESS,
    GRANULARITY_PREFIX,
    AttackEvent,
    Victim,
    _check_port_condition,
    _event_sort_key,
    victims,
)
from honeyflow.events import ipv4_to_int
from honeyflow.flows import PER_SENSOR, Flow, FlowKey, FlowScheme, UnsortedTraceError

TEST_PORTS = (53, 123, 389)
TEST_SRC_PORTS = (1111, 2222, 3333, 4444, 5555)


def make_sensors(n: int) -> tuple[list[str], dict[str, str]]:
    ids = [f"s{i:02d}" for i in range(1, n + 1)]
    return ids, {s: f"192.0.2.{i}" for i, s in enumerate(ids, 1)}


def make_random_trace(
    rng: random.Random,
    n_events: int,
    n_sensors: int = 5,
    n_sources: int = 60,
    duration: float = 30_000.0,
) -> list[PacketEvent]:
    """Random trace with enough key collisions to exercise grouping.

    Sources cluster into a handful of /24s and /16s so prefix-keyed schemes
    see multi-address keys.
    """
    sensors, saddr = make_sensors(n_sensors)
    sources = [
        f"10.{rng.randrange(2)}.{rng.randrange(4)}.{rng.randrange(1, 200)}"
        for _ in range(n_sources)
    ]
    events = [
        PacketEvent(
            rng.uniform(0.0, duration),
            (sensor := rng.choice(sensors)),
            rng.choice(sources),
            rng.choice(TEST_SRC_PORTS),
            saddr[sensor],
            rng.choice(TEST_PORTS),
        )
        for _ in range(n_events)
    ]
    events.sort(key=lambda e: (e.ts, e.sensor, e.src_ip, e.src_port, e.dst_port))
    return events


# -- ingest oracle -------------------------------------------------------------
#
# Each line is checked field by field (every address twice: here and again
# in PacketEvent.__post_init__), then the whole list is sorted by a plain
# tuple key.

_ORACLE_EVENT_KEYS = ("ts", "sensor", "src_ip", "src_port", "dst_ip", "dst_port")


def oracle_parse_event_line(line: str, line_no: int) -> PacketEvent:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {line_no}: malformed event record: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer over the int/str digit limit, or nesting too deep
        raise FormatError(f"line {line_no}: malformed event record: {exc}") from exc
    if not isinstance(record, dict):
        raise FormatError(f"line {line_no}: event record must be a JSON object")
    for key in _ORACLE_EVENT_KEYS:
        if key not in record:
            raise FormatError(f"line {line_no}: missing key '{key}'")
    for key in record:
        if key not in _ORACLE_EVENT_KEYS:
            raise FormatError(f"line {line_no}: unexpected key '{key}'")
    ts = record["ts"]
    if isinstance(ts, bool) or not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
        raise FormatError(f"line {line_no}: ts must be a finite non-negative number")
    sensor = record["sensor"]
    if not isinstance(sensor, str) or not sensor:
        raise FormatError(f"line {line_no}: sensor must be a non-empty string")
    if any(0xD800 <= ord(char) <= 0xDFFF for char in sensor):  # a lone surrogate has no UTF-8 encoding
        raise FormatError(f"line {line_no}: sensor is not valid UTF-8")
    for name in ("src_port", "dst_port"):
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"line {line_no}: {name} must be an integer")
        if not 0 <= value <= 65535:
            raise FormatError(f"line {line_no}: {name} out of range: {value}")
    for name in ("src_ip", "dst_ip"):
        try:
            ipv4_to_int(record[name])
        except ValueError as exc:
            raise FormatError(f"line {line_no}: {name}: {exc}") from exc
    return PacketEvent(float(ts), sensor, record["src_ip"], record["src_port"],
                       record["dst_ip"], record["dst_port"])


def oracle_load_trace(path: str) -> list[PacketEvent]:
    with open(path, encoding="utf-8") as handle:
        events = [
            oracle_parse_event_line(raw.strip(), line_no)
            for line_no, raw in enumerate(handle, 1)
            if raw.strip()
        ]
    return sorted(events, key=lambda e: (e.ts, e.sensor, e.src_ip, e.src_port, e.dst_port))


# distinct flow identifiers across all bundled presets, plus one exercising
# src_port and a non-default prefix length
def oracle_schemes() -> list[FlowScheme]:
    from honeyflow import PRESETS

    schemes = []
    seen = set()
    for name in ("amppot", "ccc", "newkid-mono", "newkid-multi", "hpi"):
        scheme = PRESETS[name].scheme
        if scheme not in seen:
            seen.add(scheme)
            schemes.append(scheme)
    schemes.append(
        FlowScheme(
            scope=PER_SENSOR,
            use_src_addr=False,
            use_src_prefix=True,
            src_prefix_len=16,
            use_src_port=True,
            use_dst_port=False,
        )
    )
    return schemes


_prefix_memo: dict[tuple[str, int], str] = {}


def _oracle_prefix(addr: str, plen: int) -> str:
    key = (addr, plen)
    cidr = _prefix_memo.get(key)
    if cidr is None:
        network = ipaddress.ip_network(f"{addr}/{plen}", strict=False)
        cidr = f"{network.network_address}/{plen}"
        _prefix_memo[key] = cidr
    return cidr


def oracle_group_indices(
    events: list[PacketEvent], scheme: FlowScheme
) -> list[list[int]]:
    """Group event indices by an independently computed flow identifier."""
    groups: dict[tuple, list[int]] = {}
    for index, event in enumerate(events):
        parts = []
        if scheme.scope == PER_SENSOR:
            parts.append(("sensor", event.sensor))
        if scheme.use_src_addr:
            parts.append(("src", event.src_ip))
        else:
            parts.append(("srcpfx", _oracle_prefix(event.src_ip, scheme.src_prefix_len)))
        if scheme.use_dst_addr:
            parts.append(("dst", event.dst_ip))
        if scheme.use_src_port:
            parts.append(("sport", event.src_port))
        if scheme.use_dst_port:
            parts.append(("dport", event.dst_port))
        groups.setdefault(tuple(parts), []).append(index)
    return list(groups.values())


def oracle_split_gaps(
    events: list[PacketEvent], grouped: list[list[int]], idle_timeout: float
) -> set[tuple[int, ...]]:
    """Split each index group at gaps strictly over the timeout."""
    partition: set[tuple[int, ...]] = set()
    for indices in grouped:
        start = 0
        for pos in range(1, len(indices)):
            if events[indices[pos]].ts - events[indices[pos - 1]].ts > idle_timeout:
                partition.add(tuple(indices[start:pos]))
                start = pos
        partition.add(tuple(indices[start:]))
    return partition


def oracle_partition(
    events: list[PacketEvent], scheme: FlowScheme, idle_timeout: float
) -> set[tuple[int, ...]]:
    return oracle_split_gaps(events, oracle_group_indices(events, scheme), idle_timeout)


def key_function(scheme: FlowScheme):
    """Compile a scheme into a per-event FlowKey extractor (prefixes via ipaddress)."""
    per_sensor = scheme.scope == PER_SENSOR
    use_dst = scheme.use_dst_addr
    use_sport = scheme.use_src_port
    use_dport = scheme.use_dst_port

    if scheme.use_src_prefix:
        def src_of(addr: str) -> str:
            return _oracle_prefix(addr, scheme.src_prefix_len)

    else:
        def src_of(addr: str) -> str:
            return addr

    def key_of(event: PacketEvent) -> FlowKey:
        return FlowKey(
            event.sensor if per_sensor else None,
            src_of(event.src_ip),
            event.dst_ip if use_dst else None,
            event.src_port if use_sport else None,
            event.dst_port if use_dport else None,
        )

    return key_of


def oracle_assemble(events, scheme: FlowScheme, idle_timeout: float) -> list[Flow]:
    """Stream-order assembly: one open flow per key in a dict, split on the gap.

    This is the engine's assembly before it keyed and sorted once per
    scheme; :func:`honeyflow.flows.assemble` must return the same flows in
    the same order and raise the same errors.
    """
    if not idle_timeout > 0:
        raise ValueError(f"idle_timeout must be positive: {idle_timeout}")
    key_of = key_function(scheme)
    open_flows: dict[FlowKey, list[PacketEvent]] = {}
    done: list[Flow] = []
    prev_ts = -math.inf
    for event in events:
        if event.ts < prev_ts:
            raise UnsortedTraceError(
                f"event at ts={event.ts} arrived after ts={prev_ts}; assemble requires a time-ordered stream"
            )
        prev_ts = event.ts
        key = key_of(event)
        packets = open_flows.get(key)
        if packets is None:
            open_flows[key] = [event]
        elif event.ts - packets[-1].ts > idle_timeout:
            done.append(Flow(key, tuple(packets)))
            open_flows[key] = [event]
        else:
            packets.append(event)
    for key, packets in open_flows.items():
        done.append(Flow(key, tuple(packets)))
    done.sort(key=lambda f: (f.packets[0].ts, f.key.sort_key()))
    return done


def _oracle_window_cluster_starts(groups, first_ts, last_ts) -> list[int]:
    """Where each overlap cluster begins among flows ordered by (group, first_ts, key)."""
    starts: list[int] = []
    group = window_end = None
    for index, (flow_group, first, last) in enumerate(zip(groups, first_ts, last_ts)):
        if flow_group != group or first > window_end:
            starts.append(index)
            group, window_end = flow_group, last
        elif last < window_end:
            window_end = last
    return starts


def oracle_attack_event(victim, flows) -> AttackEvent:
    """The attack event of ``flows``, read flow by flow through Flow's properties.

    Its flows come ordered by (first_ts, key). This is the builder the
    engine used before it read counts, spans and sets from packet columns.
    """
    ordered = tuple(sorted(flows, key=lambda f: (f.first_ts, f.key.sort_key())))
    sensors: set[str] = set()
    ports: set[int] = set()
    total = 0
    for flow in ordered:
        total += flow.packet_count
        sensors.update(flow.sensors)
        ports.update(flow.dst_ports)
    return AttackEvent(
        victim=victim,
        flows=ordered,
        first_ts=ordered[0].first_ts,
        last_ts=max(f.last_ts for f in ordered),
        total_packets=total,
        sensors=frozenset(sensors),
        dst_ports=frozenset(ports),
    )


def _key_victim(src: str) -> Victim:
    """The victim a flow key's source names: a prefix if it has a length, else an address."""
    return Victim(src, GRANULARITY_PREFIX if "/" in src else GRANULARITY_ADDRESS)


def oracle_detect(flows, thresholds):
    """Flow-object detection: a per-flow loop, or clustering by overlap windows per key modulo sensor.

    This is the engine's detection before it decided on arrays;
    :func:`honeyflow.detection.detect` and
    :func:`honeyflow.detection.detect_attacks` must return the same events
    and raise the same errors.
    """
    if not flows:
        return []
    sample_key = flows[0].key
    _check_port_condition(thresholds, sample_key.dst_port is not None)

    events = []
    if thresholds.min_sensors == 1 or sample_key.sensor is None:
        for flow in flows:
            if not thresholds.passes_load(flow.packet_count):
                continue
            if thresholds.min_dst_ports > 1 and len(flow.dst_ports) < thresholds.min_dst_ports:
                continue
            if thresholds.min_sensors > 1 and len(flow.sensors) < thresholds.min_sensors:
                continue
            events.append(oracle_attack_event(_key_victim(flow.key.src), (flow,)))
    else:
        groups: dict[FlowKey, list[Flow]] = {}
        for flow in flows:
            if thresholds.passes_load(flow.packet_count):
                k = flow.key
                groups.setdefault(FlowKey(None, k.src, None, k.src_port, k.dst_port), []).append(flow)
        members: list[Flow] = []
        labels: list[int] = []
        for label, group_key in enumerate(sorted(groups, key=FlowKey.sort_key)):
            members += sorted(groups[group_key], key=lambda f: (f.first_ts, f.key.sort_key()))
            labels += [label] * len(groups[group_key])
        starts = _oracle_window_cluster_starts(
            labels, [f.first_ts for f in members], [f.last_ts for f in members]
        )
        for start, stop in zip(starts, starts[1:] + [len(members)]):
            cluster = members[start:stop]
            distinct = {s for f in cluster for s in f.sensors}
            ports = {p for f in cluster for p in f.dst_ports}
            if len(distinct) >= thresholds.min_sensors and len(ports) >= thresholds.min_dst_ports:
                events.append(oracle_attack_event(_key_victim(cluster[0].key.src), cluster))

    events.sort(key=_event_sort_key)
    return events


def oracle_sweep(events, scheme: FlowScheme, timeouts, loads, base_thresholds) -> list[list[tuple[int, int]]]:
    """Each (timeout, load) cell from a fresh oracle assembly + detection, as (attack flows, victims).

    Cells are visited in grid order, so errors surface in the order the
    per-cell recomputation meets them.
    """
    stream = list(events)
    grid = []
    for timeout in timeouts:
        flows = oracle_assemble(stream, scheme, timeout)
        row = []
        for load in loads:
            detected = oracle_detect(flows, replace(base_thresholds, idle_timeout=timeout, min_packets=load))
            row.append((sum(len(e.flows) for e in detected), len(victims(detected))))
        grid.append(row)
    return grid


def outcome(fn, *args):
    """``fn(*args)``, or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def flows_to_index_partition(flows) -> set[tuple[int, ...]]:
    """Engine output as index tuples: each flow's packet positions in its input (duplicates stay apart)."""
    return {tuple(flow.packets.rows.tolist()) for flow in flows}


# -- exhaustive permutation-ensemble oracles ---------------------------------
#
# Both compute the exact per-rank coverage-share summaries over ALL n!
# deployment orders. The literal version walks every permutation; the subset
# version exploits that the first r sensors of a uniform random order are a
# uniform random size-r subset, each appearing r!(n-r)! times among the n!
# orders, so percentiles over the full multiset can be taken from
# np.repeat-ed subset values. They must agree exactly; the subset form stays
# tractable to n ~ 10 where the literal one stops at ~7.

def _victim_masks(mapping):
    index: dict = {}
    masks = []
    for sensor in sorted(mapping):
        mask = 0
        for victim in mapping[sensor]:
            bit = index.setdefault(victim, len(index))
            mask |= 1 << bit
        masks.append(mask)
    return masks, len(index)


def _five_point(shares_by_rank):
    import numpy as np

    return tuple(
        np.array([fn(col) for col in shares_by_rank])
        for fn in (
            lambda c: c.min(),
            lambda c: np.percentile(c, 25),
            lambda c: np.percentile(c, 50),
            lambda c: np.percentile(c, 75),
            lambda c: c.max(),
        )
    )


def literal_rank_statistics(mapping):
    """min/q1/median/q3/max of coverage share per rank, via every permutation."""
    import itertools

    import numpy as np

    masks, union_size = _victim_masks(mapping)
    n = len(masks)
    rows = []
    for perm in itertools.permutations(range(n)):
        union = 0
        row = []
        for j in perm:
            union |= masks[j]
            row.append(union.bit_count())
        rows.append(row)
    counts = np.array(rows, dtype=float)
    shares = counts / union_size if union_size else np.ones_like(counts)
    return _five_point([shares[:, r] for r in range(n)])


def exhaustive_rank_statistics(mapping):
    """Same summaries via rank-r prefix subsets; exact and tractable to n ~ 10."""
    import itertools
    import math

    import numpy as np

    masks, union_size = _victim_masks(mapping)
    n = len(masks)
    shares_by_rank = []
    for r in range(1, n + 1):
        values = []
        for subset in itertools.combinations(range(n), r):
            union = 0
            for j in subset:
                union |= masks[j]
            values.append(union.bit_count())
        multiplicity = math.factorial(r) * math.factorial(n - r)
        counts = np.repeat(np.array(values, dtype=float), multiplicity)
        shares_by_rank.append(counts / union_size if union_size else np.ones_like(counts))
    return _five_point(shares_by_rank)


# -- baseline matching and carpet oracles --------------------------------------
#
# The nested loops the indexed engine replaced: every attack (or packet) is
# tested against every baseline record, and every carpet anchor rescans every
# flow of its prefix. match_baseline, upper_bound, overlap_report and
# detect_carpet_bombing must stay equal to these.

def _oracle_covered(probe, nets) -> bool:
    value, vmask = probe
    for net, bmask in nets:
        if bmask <= vmask and value & bmask == net:
            return True
    return False


def _oracle_victim_probe(victim) -> tuple[int, int]:
    """(value, mask) of a victim via ipaddress: an address is its own /32."""
    network = ipaddress.ip_network(victim.identity, strict=False)
    return int(network.network_address), int(network.netmask)


def _oracle_compile(baseline):
    from honeyflow.events import prefix_net_mask

    return [(b, tuple(prefix_net_mask(p) for p in b.prefixes)) for b in baseline]


def oracle_match_baseline(attacks, baseline, *, slack_s: float = 0.0):
    from honeyflow.completeness import OverlapReport, ProtocolOverlap, VennTriple

    if slack_s < 0:
        raise ValueError(f"slack_s must be >= 0: {slack_s}")
    compiled = _oracle_compile(baseline)
    portful = [(b, nets) for b, nets in compiled if b.protocols]
    portless = [(b, nets) for b, nets in compiled if not b.protocols]
    event_ports: list[set[int]] = [set() for _ in portful]
    portless_hit = [False] * len(portless)
    victim_matched: set = set()
    matched_victims_per_port: dict[int, set] = {}
    victims_per_port: dict[int, set] = {}

    for attack in attacks:
        probe = _oracle_victim_probe(attack.victim)
        for port in attack.dst_ports:
            victims_per_port.setdefault(port, set()).add(attack.victim)
        for idx, (b, nets) in enumerate(portful):
            if attack.first_ts > b.end_ts + slack_s:
                continue
            if attack.last_ts < b.start_ts - slack_s:
                continue
            common = b.protocols & attack.dst_ports
            if not common or not _oracle_covered(probe, nets):
                continue
            event_ports[idx].update(common)
            victim_matched.add(attack.victim)
            for port in common:
                matched_victims_per_port.setdefault(port, set()).add(attack.victim)
        for idx, (b, nets) in enumerate(portless):
            if portless_hit[idx]:
                continue
            if attack.first_ts > b.end_ts + slack_s:
                continue
            if attack.last_ts < b.start_ts - slack_s:
                continue
            if _oracle_covered(probe, nets):
                portless_hit[idx] = True

    ports = set(victims_per_port)
    for b, _ in portful:
        ports.update(b.protocols)
    per_protocol = {}
    for port in sorted(ports):
        observed = victims_per_port.get(port, set())
        confirmed = matched_victims_per_port.get(port, set())
        per_protocol[port] = ProtocolOverlap(
            baseline_total=sum(1 for b, _ in portful if port in b.protocols),
            matched_by_detector=sum(1 for hit in event_ports if port in hit),
            honeypot_victims=len(observed),
            honeypot_only=len(observed - confirmed),
        )
    matched_events = sum(1 for hit in event_ports if hit)
    venn = VennTriple(
        honeypot_only=len(victims(attacks) - victim_matched),
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


def oracle_upper_bound(events, baseline, *, slack_s: float = 0.0):
    from bisect import bisect_left, bisect_right

    from honeyflow.completeness import UpperBoundFragment

    if slack_s < 0:
        raise ValueError(f"slack_s must be >= 0: {slack_s}")
    ordered = sorted(events, key=lambda e: e.ts)
    stamps = [e.ts for e in ordered]

    fragment = UpperBoundFragment()
    port_hits: dict[int, int] = {}
    for b, nets in _oracle_compile(baseline):
        lo = bisect_left(stamps, b.start_ts - slack_s)
        hi = bisect_right(stamps, b.end_ts + slack_s)
        if not b.protocols:
            for event in ordered[lo:hi]:
                if _oracle_covered((ipv4_to_int(event.src_ip), 0xFFFFFFFF), nets):
                    fragment.portless_covered += 1
                    break
            continue
        wanted = set(b.protocols)
        hit: set[int] = set()
        for event in ordered[lo:hi]:
            if event.dst_port in wanted and event.dst_port not in hit:
                if _oracle_covered((ipv4_to_int(event.src_ip), 0xFFFFFFFF), nets):
                    hit.add(event.dst_port)
                    if hit == wanted:
                        break
        if hit:
            fragment.covered_with_ports += 1
        for port in hit:
            port_hits[port] = port_hits.get(port, 0) + 1
    fragment.per_protocol = port_hits
    return fragment


def oracle_overlap_report(attacks, events, baseline, *, slack_s: float = 0.0):
    from honeyflow.completeness import ProtocolOverlap

    report = oracle_match_baseline(attacks, baseline, slack_s=slack_s)
    fragment = oracle_upper_bound(events, baseline, slack_s=slack_s)
    for port, count in fragment.per_protocol.items():
        report.per_protocol.setdefault(port, ProtocolOverlap()).matched_upper_bound = count
    report.upper_with_ports = fragment.covered_with_ports
    report.portless_upper = fragment.portless_covered
    return report


def oracle_detect_carpet_bombing(attacks, prefix_len: int = 24, min_flows: int = 16,
                                 window_s: float | None = 900.0):
    """Every anchor rescans every flow of its prefix."""
    from honeyflow.events import int_to_ipv4

    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix_len out of range: {prefix_len}")
    if min_flows < 1:
        raise ValueError(f"min_flows must be >= 1: {min_flows}")
    if window_s is not None and not window_s > 0:
        raise ValueError(f"window_s must be positive or None: {window_s}")

    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    by_prefix: dict[int, list[Flow]] = {}
    for event in attacks:
        if event.victim.granularity != GRANULARITY_ADDRESS:
            continue
        net = ipv4_to_int(event.victim.identity) & mask
        by_prefix.setdefault(net, []).extend(event.flows)

    carpets = []
    for net in sorted(by_prefix):
        flows = sorted(by_prefix[net], key=lambda f: (f.first_ts, f.key.sort_key()))
        if len(flows) < min_flows:
            continue
        if window_s is None:
            chosen = flows
        else:
            chosen = None
            for anchor in flows:
                start = anchor.first_ts
                hits = [f for f in flows if f.first_ts <= start + window_s and f.last_ts >= start]
                if len(hits) >= min_flows:
                    chosen = hits
                    break
            if chosen is None:
                continue
        victim = Victim(f"{int_to_ipv4(net)}/{prefix_len}", GRANULARITY_PREFIX)
        carpets.append(oracle_attack_event(victim, chosen))
    carpets.sort(key=lambda e: (e.first_ts, e.victim.identity, e.flows[0].key.sort_key()))
    return carpets


# -- permutation-sample oracle -------------------------------------------------
#
# The shares matrix the convergence sampler kept before it counted orders
# into per-rank histograms: one Python OR-accumulation per order, summaries
# from np.percentile, and a stability trace that re-summarises the whole
# prefix at every batch. permutation_ensemble, stability_trace and
# _ensemble_and_trace must stay byte-identical to these.

def oracle_coverage_shares(mapping, n, seed):
    """Shares covered by the first r sensors (column r - 1) of ``n`` random orders, and the union."""
    from itertools import accumulate
    from operator import or_

    import numpy as np

    masks, union_size = _victim_masks(mapping)
    rng = np.random.default_rng(seed)
    shares = np.empty((n, len(masks)), dtype=np.float64)
    for row in shares:
        order = map(masks.__getitem__, rng.permutation(len(masks)).tolist())
        row[:] = [union.bit_count() for union in accumulate(order, or_)]
    if union_size:
        shares /= union_size
    else:
        shares.fill(1.0)
    return shares, union_size


def oracle_rank_statistics(shares, union_size):
    import numpy as np

    from honeyflow.convergence import RankStatistics

    q1, medians, q3 = np.percentile(shares, [25, 50, 75], axis=0)
    return RankStatistics(len(shares), union_size, shares.min(axis=0), q1, medians, q3, shares.max(axis=0))


def _oracle_relative_delta(new, old) -> float:
    """The largest |new - old| / old over the entries; an entry moving off 0 counts 1, one staying at 0 counts 0."""
    return max(abs(n - o) / o if o else float(n != 0) for n, o in zip(new.tolist(), old.tolist()))


def oracle_stability_points(shares, batch):
    """Min/median/max movement over the first batch, 2 * batch, ... rows of ``shares``."""
    import numpy as np

    from honeyflow.convergence import StabilityPoint

    points = []
    prev = None
    for done in [*range(batch, len(shares), batch), len(shares)]:
        sample = shares[:done]
        summary = (sample.min(axis=0), np.percentile(sample, 50, axis=0), sample.max(axis=0))
        if prev is None:
            points.append(StabilityPoint(done, 1.0, 1.0, 1.0))
        else:
            points.append(StabilityPoint(done, *map(_oracle_relative_delta, summary, prev)))
        prev = summary
    return points


# -- greedy-order oracle --------------------------------------------------------
#
# The set-difference loop greedy_order ran before it read packed victim
# bitsets: each step takes the remaining sensor with the most unseen victims,
# ties to the smallest id. greedy_order must stay equal to it, field for field.

def oracle_greedy_order(mapping, strategy="max-coverage"):
    from honeyflow.convergence import GREEDY_STATIC_SORT, ConvergenceCurve

    if strategy == GREEDY_STATIC_SORT:
        order = sorted(mapping, key=lambda s: (-len(mapping[s]), s))
    else:
        remaining = sorted(mapping)
        covered: set = set()
        order = []
        while remaining:
            best = min(remaining, key=lambda s: (-len(mapping[s] - covered), s))
            order.append(best)
            covered |= mapping[best]
            remaining.remove(best)

    covered = set()
    new_victims = []
    cumulative = []
    for sensor in order:
        gained = len(mapping[sensor] - covered)
        covered |= mapping[sensor]
        new_victims.append(gained)
        cumulative.append(len(covered))
    union_size = cumulative[-1]
    if union_size:
        shares = tuple(c / union_size for c in cumulative)
    else:
        shares = tuple(1.0 for _ in cumulative)
    return ConvergenceCurve(
        sensors=tuple(order),
        new_victims=tuple(new_victims),
        cumulative=tuple(cumulative),
        shares=shares,
        union_size=union_size,
    )
