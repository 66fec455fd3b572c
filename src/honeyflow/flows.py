"""Flow identifiers and idle-timeout flow assembly.

A *flow scheme* picks which packet fields form the flow identifier and at
which scope flows are tracked: per-sensor (the sensor id is part of the key)
or per-platform (packets from all sensors share keys; the sensor and the
sensor-identifying dst address are ignored unless explicitly selected).
Assembly keys and sorts the trace once per scheme, then splits each key's
packet sequence wherever the gap between consecutive packets exceeds the
idle timeout; a threshold sweep splits that one keyed order at each of its
timeouts. A trace keeps the keyed order of every scheme it was keyed under,
so each later call under an equal scheme only splits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .events import PacketEvent, _cidr, _prefix_mask
from .trace import Trace, as_trace

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


def flow_key(event: PacketEvent, scheme: FlowScheme) -> FlowKey:
    """The flow identifier of one event under ``scheme``."""
    return _KeyedSplit(as_trace([event]), scheme)._flow_keys(np.zeros(1, np.intp))[0]


class Flow(NamedTuple):
    """A maximal run of same-key packets with no internal gap over the timeout.

    Packets are in time order, so span bounds are just the end packets.
    Derived views (sensors, ports) are computed on demand; most flows are
    only ever counted. Assembled flows hold their packets as a
    :class:`~honeyflow.trace.Trace` selection, whose events are built only
    when read.
    """

    key: FlowKey
    packets: Sequence[PacketEvent]

    @property
    def first_ts(self) -> float:
        packets = self.packets
        return packets._ts(0) if isinstance(packets, Trace) else packets[0].ts

    @property
    def last_ts(self) -> float:
        packets = self.packets
        return packets._ts(-1) if isinstance(packets, Trace) else packets[-1].ts

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
# the Trace column behind each of them
_COLUMN = dict(zip(_KEY_ATTRS, ("sensor", "src", "dst", "src_port", "dst_port")))
# a port is its own code
_PORTS = range(65536)
# flows built per block of their start positions
_BLOCK = 1024
# The rank of each octet's decimal string among those of 0..255. A dotted quad whose
# octets are replaced by their ranks, most significant first, orders as its string
# does, since "." and "/" sort below every digit.
_OCTET_RANK = np.empty(256, np.uint32)
_OCTET_RANK[sorted(range(256), key=str)] = np.arange(256, dtype=np.uint32)


class _Cidrs(Sequence):
    """The /``plen`` CIDR strings of network values ``nets``, each built when it is read."""

    def __init__(self, nets: np.ndarray, plen: int) -> None:
        self.nets, self.plen = nets, plen

    def __len__(self) -> int:
        return len(self.nets)

    def __getitem__(self, index: int) -> str:
        return _cidr(int(self.nets[index]), _prefix_mask(self.plen))


def _prefix_codes(address_values: np.ndarray, plen: int) -> tuple[np.ndarray, _Cidrs]:
    """Each address coded by the rank of its /plen CIDR string, and the distinct strings in order."""
    nets = address_values & _prefix_mask(plen)
    as_string = np.zeros(len(nets), np.uint32)
    for shift in (24, 16, 8, 0):
        as_string |= _OCTET_RANK[(nets >> shift) & 0xFF] << shift
    order = np.argsort(as_string, kind="stable")
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.diff(as_string[order]) != 0
    codes = np.empty(len(order), np.int32)
    codes[order] = np.cumsum(first) - 1
    return codes, _Cidrs(nets[order[first]], plen)


class _KeyedSplit:
    """A trace keyed and sorted once for one scheme.

    Each selected key field is coded by the rank of its value (for the
    source: of its address or CIDR string), so ordering by the codes is
    ordering by :meth:`FlowKey.sort_key`. The trace's own codes are such
    ranks; a prefix-keyed source is ranked over the trace's address table.
    One stable sort by (key, ts) puts each key's packets together in stream
    order, kept as one selection of the trace, ``sorted``, and ``gap`` holds
    each packet's gap to the previous one of its key, +inf where a key
    begins. A flow is then a run of ``sorted`` that starts at a gap over
    the idle timeout, so every timeout splits the same arrays and nothing is
    keyed again. Codes and timestamps are read through ``sorted`` only at
    the positions a caller asks for, so a split holds about 16 bytes per
    event, plus a code per address for a prefix-keyed source.

    A split holds no reference to the trace it keys: the trace keeps its
    splits (:func:`_split_of`), and they go when it goes.
    """

    def __init__(self, trace: Trace, scheme: FlowScheme) -> None:
        self.scheme = scheme
        ts = trace.ts
        regressed = np.flatnonzero(ts[1:] < ts[:-1])
        # the first ts below its predecessor's, and that predecessor's
        self._regression = (float(ts[regressed[0] + 1]), float(ts[regressed[0]])) if regressed.size else None
        used = (scheme.scope == PER_SENSOR, True, scheme.use_dst_addr, scheme.use_src_port, scheme.use_dst_port)
        self.key_attrs = tuple(attr for attr, on in zip(_KEY_ATTRS, used) if on)
        self._labels = {"sensor": trace.sensors, "src_ip": trace.addresses, "dst_ip": trace.addresses}
        self._net = None  # per address, the code of its /plen source when the source is a prefix
        key_columns = []
        for attr in self.key_attrs:
            codes = getattr(trace, _COLUMN[attr])
            if attr == "src_ip" and scheme.use_src_prefix:
                self._net, self._labels[attr] = _prefix_codes(trace.address_values, scheme.src_prefix_len)
                codes = self._net[codes]
            key_columns.append(codes)
        order = np.lexsort([ts] + key_columns[::-1])
        del ts, key_columns, codes
        self.sorted = trace.take(order)
        del order
        self.gap = np.diff(self.sorted.ts, prepend=-np.inf)  # the first packet begins a key
        for attr in self.key_attrs:
            codes = self.codes(attr, slice(None))
            self.gap[1:][codes[1:] != codes[:-1]] = np.inf
        self.gap.flags.writeable = False

    def codes(self, attr: str, positions: np.ndarray) -> np.ndarray:
        """Rank codes of one key attribute (of the keyed source for ``src_ip``) at sorted ``positions``."""
        codes = getattr(self.sorted.take(positions), _COLUMN[attr])
        return self._net[codes] if attr == "src_ip" and self._net is not None else codes

    def labels(self, attr: str) -> Sequence:
        """The values that :meth:`codes` numbers: ``labels[code]`` is a code's value."""
        return self._labels.get(attr, _PORTS)

    def key_numbers(self, positions: np.ndarray) -> np.ndarray:
        """The number of the key at each sorted position; keys are numbered in sort_key order."""
        return np.searchsorted(np.flatnonzero(self.gap == np.inf), positions, side="right") - 1

    def flow_starts(self, idle_timeout: float) -> np.ndarray:
        """Positions in sorted order where a flow begins under ``idle_timeout``."""
        if not idle_timeout > 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout}")
        if self._regression is not None:
            raise UnsortedTraceError(
                "event at ts={} arrived after ts={}; assemble requires a time-ordered stream".format(*self._regression)
            )
        # a gap between non-negative finite stamps is finite: only a key change exceeds the largest float
        return np.flatnonzero(self.gap > min(idle_timeout, sys.float_info.max))

    def _flow_keys(self, positions: np.ndarray) -> list[FlowKey]:
        """The FlowKey of the event at each sorted position."""
        fields = []
        for attr in _KEY_ATTRS:
            if attr in self.key_attrs:
                labels = self.labels(attr)
                fields.append([labels[code] for code in self.codes(attr, positions).tolist()])
            else:
                fields.append(repeat(None))
        return list(map(FlowKey, *fields))

    def flows(self, starts: np.ndarray, stops: np.ndarray) -> list[Flow]:
        """The flows over sorted positions ``starts[i]:stops[i]``, in the given order.

        Flows of one key share one FlowKey. A flow's packets are a
        selection of the trace, read only when used.
        """
        key_of = self.key_numbers(starts)
        somewhere = dict(zip(key_of.tolist(), starts.tolist()))  # a sorted position of each distinct key
        keys = dict(zip(somewhere, self._flow_keys(np.fromiter(somewhere.values(), np.intp, len(somewhere)))))
        del somewhere
        flows = []
        for block in range(0, len(starts), _BLOCK):  # whole int lists would outweigh the flows being built
            window = slice(block, block + _BLOCK)
            packets = self.sorted._selections(starts[window].tolist(), stops[window].tolist())
            flows += map(Flow, [keys[k] for k in key_of[window].tolist()], packets)
        return flows


def _split_of(trace: Trace, scheme: FlowScheme) -> _KeyedSplit:
    """The split of ``trace`` for ``scheme``, made on first use and kept by the trace for equal schemes."""
    return trace._kept(scheme, lambda trace: _KeyedSplit(trace, scheme))


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

    Every event lands in exactly one flow, so the flows' ``packets.rows``
    partition the positions of ``events``. Flows come back sorted by (first_ts, key).

    The stream is keyed and sorted by (key, ts) once per trace and scheme;
    flows are the runs of that order split at key changes and at gaps over
    the timeout. A :class:`~honeyflow.trace.Trace` keeps its keyed order for
    each scheme it was keyed under, so later assemblies, sweeps and
    detections under an equal scheme split the same order
    (:func:`honeyflow.sweep.sweep` at every timeout of its grid); any other
    sequence of events is keyed on each call.

    Raises :class:`UnsortedTraceError` naming the first timestamp that
    regresses; silently mis-assembling an unsorted trace would corrupt every
    count downstream.
    """
    split = _split_of(as_trace(events), scheme)
    starts = split.flow_starts(idle_timeout)
    stops = np.append(starts[1:], len(split.sorted))
    canonical = np.lexsort((split.key_numbers(starts), split.sorted.take(starts).ts))
    return split.flows(starts[canonical], stops[canonical])
