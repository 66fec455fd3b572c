"""Flow identifiers and idle-timeout flow assembly.

A *flow scheme* picks which packet fields form the flow identifier and at
which scope flows are tracked: per-sensor (the sensor id is part of the key)
or per-platform (packets from all sensors share keys; the sensor and the
sensor-identifying dst address are ignored unless explicitly selected).
Assembly keys and sorts the trace once per scheme, then splits each key's
packet sequence wherever the gap between consecutive packets exceeds the
idle timeout; a threshold sweep splits that one keyed order at each of its
timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .events import PacketEvent, int_to_ipv4, ipv4_to_int

__all__ = [
    "PER_SENSOR",
    "PER_PLATFORM",
    "UnsortedTraceError",
    "FlowScheme",
    "FlowKey",
    "Flow",
    "flow_key",
    "assemble",
]

PER_SENSOR = "per-sensor"
PER_PLATFORM = "per-platform"


class UnsortedTraceError(ValueError):
    """The event stream handed to assembly was not time-ordered."""


@dataclass(frozen=True)
class FlowScheme:
    """Field selection for the flow identifier.

    Exactly one of ``use_src_addr``/``use_src_prefix`` must be set: the
    source appears either as its full address or truncated to
    ``src_prefix_len`` bits. The remaining flags opt fields into the key.
    ``scope`` decides whether the sensor id participates.
    """

    scope: str = PER_SENSOR
    use_src_addr: bool = True
    use_src_prefix: bool = False
    src_prefix_len: int = 24
    use_dst_addr: bool = False
    use_src_port: bool = False
    use_dst_port: bool = True

    def __post_init__(self) -> None:
        if self.scope not in (PER_SENSOR, PER_PLATFORM):
            raise ValueError(f"scope must be {PER_SENSOR!r} or {PER_PLATFORM!r}: {self.scope!r}")
        if self.use_src_addr == self.use_src_prefix:
            raise ValueError("exactly one of use_src_addr/use_src_prefix must be set")
        if not 0 <= self.src_prefix_len <= 32:
            raise ValueError(f"src_prefix_len out of range: {self.src_prefix_len}")

    @property
    def sensor_distinguishing(self) -> bool:
        """True when distinct sensors can never share a flow (sensor or dst addr keyed)."""
        return self.scope == PER_SENSOR or self.use_dst_addr


class FlowKey(NamedTuple):
    """Projected flow identifier; unselected fields are None.

    ``src`` holds either the source address or its prefix in CIDR form,
    depending on the scheme. Field order is the canonical one used for
    display and sorting: sensor, src, dst_ip, src_port, dst_port.
    """

    sensor: str | None
    src: str
    dst_ip: str | None
    src_port: int | None
    dst_port: int | None

    def projected(self) -> tuple:
        """Only the selected fields, in canonical order."""
        return tuple(v for v in self if v is not None)

    def sort_key(self) -> tuple:
        return (
            self.sensor or "",
            self.src,
            self.dst_ip or "",
            -1 if self.src_port is None else self.src_port,
            -1 if self.dst_port is None else self.dst_port,
        )


def _src_label(scheme: FlowScheme) -> Callable[[str], str] | None:
    """The source as the scheme keys it: the CIDR of its prefix, or None for the address itself."""
    if not scheme.use_src_prefix:
        return None
    plen = scheme.src_prefix_len
    mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    return lambda addr: f"{int_to_ipv4(ipv4_to_int(addr) & mask)}/{plen}"


def flow_key(event: PacketEvent, scheme: FlowScheme) -> FlowKey:
    """The flow identifier of one event under ``scheme``."""
    return _KeyedSplit([event], scheme)._keys(np.zeros(1, np.intp))[0]


class Flow(NamedTuple):
    """A maximal run of same-key packets with no internal gap over the timeout.

    Packets are in time order, so span bounds are just the end packets.
    Derived views (sensors, ports) are computed on demand; most flows are
    only ever counted.
    """

    key: FlowKey
    packets: tuple[PacketEvent, ...]

    @property
    def first_ts(self) -> float:
        return self.packets[0].ts

    @property
    def last_ts(self) -> float:
        return self.packets[-1].ts

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    @property
    def sensors(self) -> frozenset[str]:
        return frozenset(p.sensor for p in self.packets)

    @property
    def dst_ports(self) -> frozenset[int]:
        return frozenset(p.dst_port for p in self.packets)


# PacketEvent attributes behind the FlowKey fields, position by position
_KEY_ATTRS = ("sensor", "src_ip", "dst_ip", "src_port", "dst_port")


def _rank_codes(values: list, label: Callable | None = None) -> tuple[np.ndarray, list]:
    """Code each value by the rank of its label among the sorted distinct labels.

    Returns the codes and the sorted labels, so ``labels[code]`` is a
    value's label. Without ``label`` a value is its own label.
    """
    label_of = {value: value if label is None else label(value) for value in set(values)}
    labels = sorted(set(label_of.values()))
    rank = {lab: code for code, lab in enumerate(labels)}
    code_of = {value: rank[lab] for value, lab in label_of.items()}
    return np.fromiter(map(code_of.__getitem__, values), np.int32, len(values)), labels


class _KeyedSplit:
    """An event list keyed and sorted once for one scheme.

    Each selected key field is coded by the rank of its value (for the
    source: of its address or CIDR string), so ordering by the codes is
    ordering by :meth:`FlowKey.sort_key`. One stable sort by (key, ts) puts
    each key's packets together in stream order; the key-change mask and the
    inter-packet gaps of that order are computed once. A flow is then a run
    of the order that starts at a key change or at a gap over the idle
    timeout, so every timeout splits the same arrays and nothing is keyed
    again.
    """

    def __init__(self, events: list[PacketEvent], scheme: FlowScheme) -> None:
        self.events = events
        self.scheme = scheme
        ts = np.fromiter(map(attrgetter("ts"), events), np.float64, len(events))
        regressed = np.flatnonzero(ts[1:] < ts[:-1])
        # position of the first event whose ts is below its predecessor's, or 0
        self._regressed_at = int(regressed[0]) + 1 if regressed.size else 0
        used = (scheme.scope == PER_SENSOR, True, scheme.use_dst_addr, scheme.use_src_port, scheme.use_dst_port)
        self.key_attrs = tuple(attr for attr, on in zip(_KEY_ATTRS, used) if on)
        self._src_label = _src_label(scheme)
        key_columns = [self._rank(attr) for attr in self.key_attrs]
        self.order = np.lexsort([ts] + [codes for codes, _ in reversed(key_columns)])
        self.ts = ts[self.order]
        self._columns = {
            attr: (codes[self.order], labels) for attr, (codes, labels) in zip(self.key_attrs, key_columns)
        }
        self.key_change = np.zeros(len(events), dtype=bool)
        self.key_change[:1] = True
        for codes, _ in self._columns.values():
            self.key_change[1:] |= codes[1:] != codes[:-1]
        self.gap = np.diff(self.ts, prepend=self.ts[:1])
        # key number of each position; keys are numbered in sort_key order
        self.key_index = np.cumsum(self.key_change) - 1

    def _rank(self, attr: str) -> tuple[np.ndarray, list]:
        label = self._src_label if attr == "src_ip" else None
        return _rank_codes(list(map(attrgetter(attr), self.events)), label)

    def _column(self, attr: str) -> tuple[np.ndarray, list]:
        column = self._columns.get(attr)
        if column is None:
            codes, labels = self._rank(attr)
            column = self._columns[attr] = (codes[self.order], labels)
        return column

    def codes(self, attr: str) -> np.ndarray:
        """Rank codes of one event attribute (of the keyed source for ``src_ip``), in sorted order."""
        return self._column(attr)[0]

    def labels(self, attr: str) -> list:
        """The sorted distinct values that :meth:`codes` numbers."""
        return self._column(attr)[1]

    def flow_starts(self, idle_timeout: float) -> np.ndarray:
        """Positions in sorted order where a flow begins under ``idle_timeout``."""
        if not idle_timeout > 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout}")
        if self._regressed_at:
            event, prev = self.events[self._regressed_at], self.events[self._regressed_at - 1]
            raise UnsortedTraceError(
                f"event at ts={event.ts} arrived after ts={prev.ts}; assemble requires a time-ordered stream"
            )
        return np.flatnonzero(self.key_change | (self.gap > idle_timeout))

    def _keys(self, positions: np.ndarray) -> list[FlowKey]:
        """The FlowKey of the event at each sorted position."""
        fields = []
        for attr in _KEY_ATTRS:
            if attr in self.key_attrs:
                codes, labels = self._columns[attr]
                fields.append([labels[code] for code in codes[positions].tolist()])
            else:
                fields.append(repeat(None))
        return list(map(FlowKey, *fields))

    def flows(self, starts: np.ndarray, stops: np.ndarray) -> list[Flow]:
        """The flows over sorted positions ``starts[i]:stops[i]``, in the given order.

        Flows of one key share one FlowKey, and only the packets of these
        flows are gathered.
        """
        _, first, key_of = np.unique(self.key_index[starts], return_index=True, return_inverse=True)
        keys = self._keys(starts[first])
        sizes = stops - starts
        ends = np.cumsum(sizes)
        begins = ends - sizes
        positions = np.arange(sizes.sum()) + np.repeat(starts - begins, sizes)
        packets = [self.events[i] for i in self.order[positions].tolist()]
        return [
            Flow(keys[k], tuple(packets[a:b])) for k, a, b in zip(key_of.tolist(), begins.tolist(), ends.tolist())
        ]


def assemble(
    events: Iterable[PacketEvent],
    scheme: FlowScheme,
    idle_timeout: float,
) -> list[Flow]:
    """Partition a time-ordered event stream into flows.

    A packet joins its key's open flow when the gap to that flow's previous
    packet is <= ``idle_timeout`` (strictly greater splits; equality keeps
    the flow alive). There is no active timeout: a flow lives as long as
    packets keep arriving. All flows still open at end of stream are closed
    and emitted.

    Every event lands in exactly one flow, so the result is a partition of
    the input. Flows come back sorted by (first_ts, key).

    The stream is keyed and sorted by (key, ts) once; flows are the runs of
    that order split at key changes and at gaps over the timeout.
    :func:`honeyflow.sweep.sweep` splits the same keyed order at every
    timeout of its grid.

    Raises :class:`UnsortedTraceError` naming the first timestamp that
    regresses; silently mis-assembling an unsorted trace would corrupt every
    count downstream.
    """
    split = _KeyedSplit(list(events), scheme)
    starts = split.flow_starts(idle_timeout)
    stops = np.append(starts[1:], len(split.events))
    canonical = np.lexsort((split.key_index[starts], split.ts[starts]))
    return split.flows(starts[canonical], stops[canonical])
