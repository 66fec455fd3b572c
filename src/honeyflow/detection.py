"""Attack detection: packet-load thresholds over assembled flows.

A threshold set turns flows into attack events. The bundled presets mirror
the published configurations of six deployed amplification honeypot
pipelines; each pairs a flow scheme with its thresholds so the whole
detector is reproducible from a name.

Victims are reported at the granularity the scheme implies: address-keyed
schemes yield address victims, prefix-keyed schemes yield /len prefix
victims, and carpet-bombing aggregation yields prefix victims built from
address-level attack events.

One threshold rule on per-flow arrays decides for :func:`detect`,
:func:`detect_attacks` and :func:`honeyflow.sweep.sweep` alike;
:func:`detect_attacks` builds Flow and AttackEvent objects only for the
flows that attack, and an attack's sets come from the codes the rule read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .events import PacketEvent, _cidr, _compact_json, _prefix_mask, _write_lines, ipv4_to_int, prefix_net_mask
from .flows import _COLUMN, PER_PLATFORM, PER_SENSOR, Flow, FlowScheme, _KeyedSplit, _split_of
from .trace import Trace, as_trace

__all__ = [
    "COMPARE_AT_LEAST",
    "COMPARE_MORE_THAN",
    "GRANULARITY_ADDRESS",
    "GRANULARITY_PREFIX",
    "ConfigurationError",
    "AttackThresholds",
    "Victim",
    "AttackEvent",
    "DetectionPreset",
    "PRESETS",
    "permissive_thresholds",
    "detect",
    "detect_attacks",
    "victims",
    "detect_carpet_bombing",
    "write_attack_report",
]

COMPARE_AT_LEAST = ">="
COMPARE_MORE_THAN = ">"

GRANULARITY_ADDRESS = "address"
GRANULARITY_PREFIX = "prefix"


class ConfigurationError(ValueError):
    """Thresholds are inconsistent with the flow scheme that produced the flows."""


@dataclass(frozen=True)
class AttackThresholds:
    """Packet-load conditions a flow (or flow cluster) must meet.

    ``comparison`` applies to the packet count: ``">="`` keeps flows with
    at least ``min_packets``, ``">"`` keeps strictly more. ``min_dst_ports``
    requires that many distinct destination ports inside one attack event;
    ``min_sensors`` requires the event to span that many distinct sensors.
    """

    name: str
    idle_timeout: float
    min_packets: int
    min_dst_ports: int = 1
    min_sensors: int = 1
    comparison: str = COMPARE_AT_LEAST

    def __post_init__(self) -> None:
        if not self.idle_timeout > 0:
            raise ValueError(f"idle_timeout must be positive: {self.idle_timeout}")
        if self.idle_timeout == math.inf:  # a run would never split, and the manifest would echo no JSON number
            raise ValueError(f"idle_timeout must be finite: {self.idle_timeout}")
        if self.min_packets < 1:
            raise ValueError(f"min_packets must be >= 1: {self.min_packets}")
        if self.min_dst_ports < 1:
            raise ValueError(f"min_dst_ports must be >= 1: {self.min_dst_ports}")
        if self.min_sensors < 1:
            raise ValueError(f"min_sensors must be >= 1: {self.min_sensors}")
        if self.comparison not in (COMPARE_AT_LEAST, COMPARE_MORE_THAN):
            raise ValueError(f"comparison must be '>=' or '>': {self.comparison!r}")

    def passes_load(self, packet_count: int) -> bool:
        if self.comparison == COMPARE_AT_LEAST:
            return packet_count >= self.min_packets
        return packet_count > self.min_packets


def permissive_thresholds(idle_timeout: float) -> AttackThresholds:
    """Every flow is an attack: the upper-bound configuration."""
    return AttackThresholds(name="permissive", idle_timeout=idle_timeout, min_packets=1)


@dataclass(frozen=True)
class Victim:
    """Attack target: a single address or a CIDR prefix. Its network ``net``/``mask`` (an address is
    its own /32) is parsed once, here; matching and carpets read it and never parse ``identity``."""

    identity: str
    granularity: str
    net: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.granularity not in (GRANULARITY_ADDRESS, GRANULARITY_PREFIX):
            raise ValueError(f"granularity must be address or prefix: {self.granularity!r}")
        address = self.granularity == GRANULARITY_ADDRESS
        net, mask = (ipv4_to_int(self.identity), 0xFFFFFFFF) if address else prefix_net_mask(self.identity)
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "mask", mask)

    def sort_key(self) -> tuple[str, str]:
        return (self.identity, self.granularity)


@dataclass(frozen=True, slots=True)
class AttackEvent:
    """One detected attack: the victim plus the flows that triggered it."""

    victim: Victim
    flows: tuple[Flow, ...]
    first_ts: float
    last_ts: float
    total_packets: int
    sensors: frozenset[str]
    dst_ports: frozenset[int]


@dataclass(frozen=True)
class DetectionPreset:
    """A named (scheme, thresholds) pair reproducing one published pipeline."""

    name: str
    scheme: FlowScheme
    thresholds: AttackThresholds
    summary: str = ""


# Published pipeline configurations. Sources for the numbers, per preset:
# amppot: Kramer et al., RAID 2015. amppotmod: the AmpPot variant operated for
# the booter study of Noroozian et al., RAID 2016 (same keying, 10 min timeout).
# ccc: Thomas/Clayton/Beresford, eCrime 2017. newkid-mono/-multi: Heinrich et
# al., PAM 2021. hpi: Griffioen et al., CCS 2021.
PRESETS: dict[str, DetectionPreset] = {
    "amppot": DetectionPreset(
        name="amppot",
        scheme=FlowScheme(scope=PER_PLATFORM, use_dst_port=True),
        thresholds=AttackThresholds(name="amppot", idle_timeout=3600.0, min_packets=100),
        summary="platform-wide (src, dst port) flows, 60 min idle timeout, >= 100 packets",
    ),
    "amppotmod": DetectionPreset(
        name="amppotmod",
        scheme=FlowScheme(scope=PER_PLATFORM, use_dst_port=True),
        thresholds=AttackThresholds(name="amppotmod", idle_timeout=600.0, min_packets=100),
        summary="platform-wide (src, dst port) flows, 10 min idle timeout, >= 100 packets",
    ),
    "ccc": DetectionPreset(
        name="ccc",
        scheme=FlowScheme(scope=PER_SENSOR, use_dst_addr=True, use_dst_port=True),
        thresholds=AttackThresholds(name="ccc", idle_timeout=900.0, min_packets=5),
        summary="per-sensor (src, dst addr, dst port) flows, 15 min idle timeout, >= 5 packets",
    ),
    "newkid-mono": DetectionPreset(
        name="newkid-mono",
        scheme=FlowScheme(
            scope=PER_PLATFORM,
            use_src_addr=False,
            use_src_prefix=True,
            src_prefix_len=24,
            use_dst_addr=True,
            use_dst_port=True,
        ),
        thresholds=AttackThresholds(name="newkid-mono", idle_timeout=60.0, min_packets=5),
        summary="platform-wide (src /24, dst addr, dst port) flows, 60 s idle timeout, >= 5 packets",
    ),
    "newkid-multi": DetectionPreset(
        name="newkid-multi",
        scheme=FlowScheme(
            scope=PER_PLATFORM,
            use_src_addr=False,
            use_src_prefix=True,
            src_prefix_len=24,
            use_dst_addr=True,
            use_dst_port=False,
        ),
        thresholds=AttackThresholds(
            name="newkid-multi", idle_timeout=60.0, min_packets=5, min_dst_ports=2
        ),
        summary="platform-wide (src /24, dst addr) flows, 60 s idle timeout, >= 5 packets on >= 2 ports",
    ),
    "hpi": DetectionPreset(
        name="hpi",
        scheme=FlowScheme(scope=PER_SENSOR, use_dst_addr=True, use_dst_port=True),
        thresholds=AttackThresholds(
            name="hpi",
            idle_timeout=60.0,
            min_packets=20,
            min_sensors=2,
            comparison=COMPARE_MORE_THAN,
        ),
        summary="per-sensor (src, dst addr, dst port) flows, 60 s idle timeout, > 20 packets, seen by >= 2 sensors",
    ),
}


def _event_sort_key(event: AttackEvent) -> tuple:
    return (event.first_ts, event.victim.identity, event.flows[0].key.sort_key())


def _check_port_condition(thresholds: AttackThresholds, dst_port_keyed: bool) -> None:
    if thresholds.min_dst_ports > 1 and dst_port_keyed:
        raise ConfigurationError(
            f"min_dst_ports={thresholds.min_dst_ports} cannot be met by a dst-port-keyed "
            "scheme: every flow sees exactly one destination port"
        )


def _positions(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]:stops[i]``, range after range."""
    sizes = stops - starts
    begins = np.cumsum(sizes) - sizes  # where each range begins in the result
    return np.arange(sizes.sum()) + np.repeat(starts - begins, sizes)


def _distinct_pairs(bins: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (bin, value) pairs of two arrays of non-negative codes."""
    width = int(values.max()) + 1 if len(values) else 1
    pairs = np.sort(bins * width + values)
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    return pairs[first] // width, pairs[first] % width


def _earlier(values: np.ndarray) -> np.ndarray:
    """Each position's previous position holding the same code, -1 at a code's first (codes in 0..2**31 - 1)."""
    by_code = values.astype(np.int64) << 32
    by_code |= np.arange(len(values))
    by_code = np.sort(by_code)  # each code's positions together, in order
    again = by_code[1:] >> 32 == by_code[:-1] >> 32
    by_code &= 0xFFFFFFFF
    earlier = np.full(len(values), -1)
    earlier[by_code[1:][again]] = by_code[:-1][again]
    return earlier


class _FlowColumns:
    """Flows as the threshold rule reads them, one entry per flow.

    ``trace`` holds the flows' packets, flow after flow from ``begins`` on;
    ``sizes`` follow, and ``heads`` (each flow's first packet), ``first_ts``
    and ``last_ts`` are read on first use. ``keyed`` names the trace columns
    every flow's key fixes, so each flow holds one value of them, and only
    :meth:`distinct` reads what flows hold. ``dst_port_keyed`` (by default,
    whether ``keyed`` holds the dst port) says whether the port condition
    meets dst-port-keyed flows. ``group`` codes each flow's key without its
    sensor fields when per-sensor flows are clustered, else it is None.
    ``order`` then lists the flows by (group, first_ts, index). ``finer``,
    a shorter timeout's columns of the same trace and thresholds, lends its
    ``earlier`` and, by index, each clustered flow's group, head and times.
    """

    def __init__(self, trace: Trace, begins: np.ndarray, keyed: Sequence[str], group: np.ndarray | None = None,
                 dst_port_keyed: bool | None = None, finer: _FlowColumns | None = None) -> None:
        self.trace, self.begins, self.keyed, self.group = trace, begins, keyed, group
        self.sizes = np.diff(begins, append=len(trace))
        self.dst_port_keyed = "dst_port" in keyed if dst_port_keyed is None else dst_port_keyed
        self.earlier = {} if finer is None else finer.earlier
        if finer is None or finer.group is None:
            self.order = None if group is None else np.lexsort((self.first_ts, group))
            return
        begun = np.zeros(len(trace), dtype=bool)
        begun[begins] = True
        begun = begun[finer.begins]  # which of finer's flows begin one here
        which = np.flatnonzero(begun)
        index = np.empty(len(begun), np.intp)
        index[which] = np.arange(len(which))
        self.group, self.order = finer.group[which], index[finer.order[begun[finer.order]]]
        self.heads, self.first_ts = finer.heads.take(which), finer.first_ts[which]
        self.last_ts = finer.last_ts[np.append(begun, True)[1:]]  # finer's flows that end one here

    heads = cached_property(lambda self: self.trace.take(self.begins))
    first_ts = cached_property(lambda self: self.trace.take(self.begins).ts)
    last_ts = cached_property(lambda self: self.trace.take(self.begins + self.sizes - 1).ts)

    def distinct(self, attr: str, flows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Each of ``flows``' (by default every flow's) distinct sensors, sources (``"src"``) or dst ports, as
        ``(offsets, codes)``: flow i holds ``codes[offsets[i]:offsets[i + 1]]``. Only those flows' packets are read.
        Of every flow, a packet is the first of its value when the value's previous packet lies before the flow;
        ``earlier[attr]`` keeps the values and those positions, derived on first use, so no later call sorts."""
        if attr in self.keyed:  # one value per flow
            heads = self.heads if flows is None else self.trace.take(self.begins[flows])
            return np.arange(len(heads) + 1), getattr(heads, attr)
        n = len(self.sizes) if flows is None else len(flows)
        if flows is None:
            if attr not in self.earlier:
                values = getattr(self.trace, attr)
                self.earlier[attr] = values, _earlier(values)
            values, earlier = self.earlier[attr]
            flow = np.repeat(np.arange(n), self.sizes)
            first = earlier < self.begins[flow]
            flow, codes = flow[first], values[first]
        else:
            begins, sizes = self.begins[flows], self.sizes[flows]
            packets = self.trace.take(_positions(begins, begins + sizes))
            flow, codes = _distinct_pairs(np.repeat(np.arange(n), sizes), getattr(packets, attr))
        return np.append(0, np.cumsum(np.bincount(flow, minlength=n))), codes


def _split_columns(
    split: _KeyedSplit, starts: np.ndarray, thresholds: AttackThresholds, finer: _FlowColumns | None = None
) -> _FlowColumns:
    """The flows beginning at ``starts`` of a keyed split, one timeout's worth. ``finer``, a shorter timeout's
    columns for the same split and thresholds, lends what it derived: a gap over the longer timeout is over the
    shorter too, so finer's flows begin wherever these do. A source is keyed only as a full address."""
    keyed = [_COLUMN[attr] for attr in split.key_attrs if attr != "src_ip" or split.scheme.use_src_addr]
    group = None
    if finer is None and thresholds.min_sensors > 1 and "sensor" in split.key_attrs:
        attrs = [attr for attr in split.key_attrs if attr not in ("sensor", "dst_ip")]
        group = np.ravel_multi_index([split.codes(a, starts) for a in attrs], [len(split.labels(a)) for a in attrs])
    return _FlowColumns(split.sorted, starts, keyed, group, finer=finer)


def _flow_columns(flows: Sequence[Flow], min_sensors: int = 1) -> _FlowColumns:
    """Assembled flows, any number of them and of any schemes, as the threshold rule reads them. A flow's
    sensor or dst port is keyed when every flow's key fixes it. As in :func:`detect`, the first flow's key decides
    the port condition and whether flows cluster (``min_sensors > 1``); a cluster group is the first-seen key
    without sensor fields, as :func:`_split_columns` groups them."""
    runs = list(map(attrgetter("packets"), flows))
    sizes = np.fromiter(map(len, runs), np.int64, len(runs))
    keyed = [attr for attr in ("sensor", "dst_port") if None not in map(attrgetter("key." + attr), flows)]
    group, number = None, {}
    if min_sensors > 1 and any(flow.key.sensor is not None for flow in flows[:1]):
        group = np.array([number.setdefault((key.src, key.src_port, key.dst_port), len(number)) for key, _ in flows])
    return _FlowColumns(Trace.concat(runs), np.cumsum(sizes) - sizes, keyed, group,
                        dst_port_keyed=any(flow.key.dst_port is not None for flow in flows[:1]))


def _attack_runs(
    columns: _FlowColumns, cells: Sequence[AttackThresholds]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rule :func:`detect` describes, for cells that share every condition but the load.

    Returns, per cell, ``(members, heads)``: the indices of the flows in
    attacking clusters, cluster by cluster, and where each cluster begins
    among ``members``. Clustered flows are taken by (group, first_ts, index).
    A configuration is judged only against flows: with none, no condition
    is rejected and every cell is empty.
    """
    shared = cells[0]
    n = len(columns.sizes)
    # with no flow there is no port to be judged against
    _check_port_condition(shared, columns.dst_port_keyed and n > 0)
    spans = [
        (*columns.distinct(attr), least)
        for attr, least in (("dst_port", shared.min_dst_ports), ("sensor", shared.min_sensors))
        if least > 1
    ]
    if columns.group is None:
        # a flow alone is its cluster, and its ports and sensors do not depend on the load
        eligible = np.ones(n, dtype=bool)
        for offsets, _, least in spans:
            eligible &= np.diff(offsets) >= least
        order = np.flatnonzero(eligible)
    else:
        order = columns.order
    sizes = columns.sizes[order]
    runs = []
    for cell in cells:
        members = order[cell.passes_load(sizes)]
        if columns.group is None:
            runs.append((members, np.arange(len(members))))
            continue
        heads = []
        group = window_end = None
        members_at = zip(columns.group[members].tolist(), columns.first_ts[members].tolist(),
                         columns.last_ts[members].tolist())
        for index, (flow_group, first, last) in enumerate(members_at):
            if flow_group != group or first > window_end:
                heads.append(index)
                group, window_end = flow_group, last
            elif last < window_end:
                window_end = last
        head = np.zeros(len(members), dtype=bool)
        head[heads] = True
        cluster = np.cumsum(head) - 1
        attacks = np.ones(len(members), dtype=bool)
        for offsets, code, least in spans:  # each member's own (cluster, code) pairs
            if len(code) == n:  # a flow holds at least one code, so each holds one
                pairs = cluster, code[members]
            else:
                begins, ends = offsets[members], offsets[members + 1]
                pairs = np.repeat(cluster, ends - begins), code[_positions(begins, ends)]
            spread = np.bincount(_distinct_pairs(*pairs)[0], minlength=len(members))
            attacks &= spread[cluster] >= least
        runs.append((members[attacks], np.flatnonzero(head[attacks])))
    return runs


def _cluster_pairs(columns: _FlowColumns, attr: str, members: np.ndarray,
                   heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (cluster, code) pairs of ``attr`` over the clusters of ``members`` beginning at ``heads``."""
    offsets, codes = columns.distinct(attr, members)
    per_cluster = np.diff(offsets[np.append(heads, len(members))])  # the heads' offsets bound each cluster's codes
    return _distinct_pairs(np.repeat(np.arange(len(heads)), per_cluster), codes)


def _cluster_sets(pairs: tuple[np.ndarray, np.ndarray], labels: Sequence | None, n: int) -> list[frozenset]:
    """Per cluster 0..n-1, the set of the labels of its codes in ``pairs`` (the codes themselves without labels).

    Equal sets are one object. The clusters of one trace repeat a handful of
    sensor and port sets, so a run that emits one event per flow holds those
    few sets, not thousands of equal ones; nothing is kept after the call.
    """
    clusters, codes = pairs
    values = codes.tolist() if labels is None else [labels[code] for code in codes.tolist()]
    cuts = np.searchsorted(clusters, np.arange(n + 1)).tolist()
    shared: dict[frozenset, frozenset] = {}
    return [shared.setdefault(s, s) for s in (frozenset(values[a:b]) for a, b in pairwise(cuts))]


def _attack_events(
    columns: _FlowColumns,
    members: np.ndarray,
    heads: np.ndarray,
    flows: list[Flow],
    victims: Sequence[Victim] | None = None,
) -> list[AttackEvent]:
    """One attack event per cluster of ``members`` beginning at ``heads``, sorted by (first_ts, victim).

    ``flows`` are the Flows of ``members``. An event lists its flows by
    (first_ts, key), and its counts, span and sets are read from the packet
    columns of all clusters at once. Its victim is the one ``victims`` gives
    for its cluster, else the one its first flow's key names; events of one
    key source then share one Victim, built in this call and kept by nothing
    else.
    """
    first_ts, last_ts = columns.first_ts[members], columns.last_ts[members]
    sensors = _cluster_sets(_cluster_pairs(columns, "sensor", members, heads), columns.trace.sensors, len(heads))
    ports = _cluster_sets(_cluster_pairs(columns, "dst_port", members, heads), None, len(heads))
    totals = np.add.reduceat(columns.sizes[members], heads).tolist()
    firsts = np.minimum.reduceat(first_ts, heads).tolist()
    lasts = np.maximum.reduceat(last_ts, heads).tolist()
    if victims is None:
        sources = [flows[a].key.src for a in heads.tolist()]
        of_source = {
            src: Victim(src, GRANULARITY_PREFIX if "/" in src else GRANULARITY_ADDRESS) for src in set(sources)
        }
        victims = [of_source[src] for src in sources]
    events = []
    for k, (a, b) in enumerate(pairwise(heads.tolist() + [len(members)])):
        order = range(a, b) if b - a == 1 else sorted(range(a, b), key=lambda i: (first_ts[i], flows[i].key.sort_key()))
        events.append(AttackEvent(
            victims[k], tuple(flows[i] for i in order), firsts[k], lasts[k], totals[k],
            sensors[k], ports[k],
        ))
    del victims, sensors, ports, totals, firsts, lasts  # the sort keys below are the peak
    events.sort(key=_event_sort_key)
    return events


def detect(flows: Sequence[Flow], thresholds: AttackThresholds) -> list[AttackEvent]:
    """Apply thresholds to assembled flows and emit attack events.

    With ``min_sensors == 1`` every qualifying flow becomes its own attack
    event. With ``min_sensors > 1`` on per-sensor flows, flows that (a) pass
    the packet condition individually and (b) share the same key modulo
    sensor are clustered by pairwise time overlap: a cluster grows while the
    next flow still overlaps every member, i.e. starts before the cluster's
    earliest end. A cluster spanning >= min_sensors distinct sensors becomes
    one attack event. Platform-scoped flows satisfy the sensor condition on
    their own when their packets span enough sensors.

    The port condition is evaluated on the attack event's union of ports,
    which is why it cannot be combined with a dst-port-keyed scheme: such
    flows see exactly one port each, so the combination is rejected as a
    configuration error instead of silently detecting nothing. Flows may
    come from several schemes: the first flow's key decides whether flows
    cluster and whether the port condition can be met, and each flow's own
    packets give its sensors and ports.

    :func:`detect_attacks` and :func:`honeyflow.sweep.sweep` decide with
    the same rule on a keyed split of the trace. Events come back sorted by
    (first_ts, victim).
    """
    columns = _flow_columns(flows, thresholds.min_sensors)
    ((members, heads),) = _attack_runs(columns, [thresholds])
    return _attack_events(columns, members, heads, [flows[i] for i in members.tolist()])


def _attack_clusters(trace: Trace, preset: DetectionPreset) -> tuple[_KeyedSplit, _FlowColumns, np.ndarray, np.ndarray]:
    """The preset's flows over ``trace`` and its attacking clusters: (split,
    flow columns, members, heads) as :func:`_attack_runs` gives them."""
    thresholds = preset.thresholds
    split = _split_of(trace, preset.scheme)
    columns = _split_columns(split, split.flow_starts(thresholds.idle_timeout), thresholds)
    ((members, heads),) = _attack_runs(columns, [thresholds])
    return split, columns, members, heads


def detect_attacks(
    events: Iterable[PacketEvent],
    preset: DetectionPreset,
) -> list[AttackEvent]:
    """Assemble with the preset's scheme and detect with its thresholds.

    Equal to :func:`detect` on :func:`honeyflow.flows.assemble`, errors and
    flows' ``packets.rows`` (positions in ``events``) included, but only the
    flows of attacking clusters are built. Errors included means that a
    configuration is judged only against flows: a trace with none gives no
    attack under any thresholds. The trace is keyed once per trace and
    scheme, as :func:`honeyflow.flows.assemble` describes.
    """
    split, columns, members, heads = _attack_clusters(as_trace(events), preset)
    first = columns.begins[members]
    return _attack_events(columns, members, heads, split.flows(first, first + columns.sizes[members]))


def victims(attacks: Iterable[AttackEvent]) -> set[Victim]:
    return {event.victim for event in attacks}


def detect_carpet_bombing(
    attacks: Sequence[AttackEvent],
    prefix_len: int = 24,
    min_flows: int = 16,
    window_s: float | None = 900.0,
) -> list[AttackEvent]:
    """Aggregate address-level attack events into prefix-level carpet events.

    A /``prefix_len`` becomes a carpet victim when at least ``min_flows``
    attack flows against addresses inside it intersect one time window of
    length ``window_s``. Candidate windows are anchored at each flow's start;
    the earliest qualifying anchor wins and its intersecting flows form the
    event. ``window_s=None`` is the unbounded window ``math.inf``.

    Expects address-granularity input (an address-keyed scheme upstream);
    prefix-granularity events are ignored, they already aggregate.
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix_len out of range: {prefix_len}")
    if min_flows < 1:
        raise ValueError(f"min_flows must be >= 1: {min_flows}")
    window_s = math.inf if window_s is None else window_s
    if not window_s > 0:
        raise ValueError(f"window_s must be positive or None: {window_s}")

    mask = _prefix_mask(prefix_len)
    flows: list[Flow] = []
    nets: list[int] = []
    for event in attacks:
        if event.victim.granularity == GRANULARITY_ADDRESS:
            flows += event.flows
            nets += [event.victim.net & mask] * len(event.flows)
    columns = _flow_columns(flows)
    net = np.array(nets, np.int64)
    order = np.lexsort((columns.first_ts, net))  # _attack_events orders each carpet's flows by key too
    net, first, last = net[order], columns.first_ts[order], columns.last_ts[order]
    run = np.cumsum(np.diff(net, prepend=-1) != 0) - 1  # each flow's net, numbered in net order
    # The window at anchor s holds its net's flows with first_ts <= s + window_s
    # and last_ts >= s. A flow ending before s started before s too, so it
    # is among the first group: the count is a difference of two searches.
    # Each time is coded by (net, rank among all times), so one search over
    # all flows stays inside each net.
    end = first + window_s
    times = np.sort(np.concatenate((first, end, last)))
    at_first, at_end, at_last = (run * len(times) + np.searchsorted(times, ts) for ts in (first, end, last))
    count = np.searchsorted(at_first, at_end, "right") - np.searchsorted(np.sort(at_last), at_first, "left")
    hits = np.flatnonzero(count >= min_flows)
    earliest = hits[np.diff(run[hits], prepend=-1) != 0]
    anchor = np.full(run.max(initial=-1) + 1, np.nan)  # no flow lies in the window of a net without an anchor
    anchor[run[earliest]] = first[earliest]
    start = anchor[run]
    chosen = (first <= start + window_s) & (last >= start)
    members = order[chosen]
    heads = np.flatnonzero(np.diff(run[chosen], prepend=-1))
    carpets = [Victim(_cidr(n, mask), GRANULARITY_PREFIX) for n in net[chosen][heads].tolist()]
    return _attack_events(columns, members, heads, [flows[i] for i in members.tolist()], carpets)


def write_attack_report(attacks: Iterable[AttackEvent], preset_name: str, path: str) -> None:
    """JSONL report, one attack event per line, set fields as sorted lists."""
    records = (
        {
            "victim": event.victim.identity,
            "granularity": event.victim.granularity,
            "first_ts": event.first_ts,
            "last_ts": event.last_ts,
            "packets": event.total_packets,
            "sensors": sorted(event.sensors),
            "dst_ports": sorted(event.dst_ports),
            "preset": preset_name,
        }
        for event in attacks
    )
    _write_lines(path, map(_compact_json, records))
