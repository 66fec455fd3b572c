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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .events import PacketEvent, int_to_ipv4
from .trace import Trace, _ranked, as_trace

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
# a port is its own code
_PORTS = range(65536)
# flows built per block of their start positions
_BLOCK = 1024


def _prefix_codes(trace: Trace, plen: int) -> tuple[np.ndarray, list[str]]:
    """The sources of ``trace`` coded by the rank of their /plen CIDR string, and the sorted strings."""
    mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    nets, net_of_address = np.unique(trace.address_values & mask, return_inverse=True)
    cidrs, rank = _ranked({f"{int_to_ipv4(net)}/{plen}": i for i, net in enumerate(nets.tolist())})
    return rank[net_of_address][trace.src], cidrs


class _KeyedSplit:
    """A trace keyed and sorted once for one scheme.

    Each selected key field is coded by the rank of its value (for the
    source: of its address or CIDR string), so ordering by the codes is
    ordering by :meth:`FlowKey.sort_key`. The trace's own codes are such
    ranks; a prefix-keyed source is ranked over the trace's address table.
    One stable sort by (key, ts) puts each key's packets together in stream
    order, kept as one selection of the trace, ``sorted``; the key-change
    mask and the inter-packet gaps of that order are computed once. A flow
    is then a run of ``sorted`` that starts at a key change or at a gap over
    the idle timeout, so every timeout splits the same arrays and nothing is
    keyed again.
    """

    def __init__(self, trace: Trace, scheme: FlowScheme) -> None:
        self.trace = trace
        self.scheme = scheme
        ts = trace.ts
        regressed = np.flatnonzero(ts[1:] < ts[:-1])
        # position of the first event whose ts is below its predecessor's, or 0
        self._regressed_at = int(regressed[0]) + 1 if regressed.size else 0
        used = (scheme.scope == PER_SENSOR, True, scheme.use_dst_addr, scheme.use_src_port, scheme.use_dst_port)
        self.key_attrs = tuple(attr for attr, on in zip(_KEY_ATTRS, used) if on)
        key_columns = [self._rank(attr) for attr in self.key_attrs]
        self.order = np.lexsort([ts] + [codes for codes, _ in reversed(key_columns)])
        self.sorted = trace.take(self.order)
        self.ts = ts[self.order]
        self._columns = {
            attr: (codes[self.order], labels) for attr, (codes, labels) in zip(self.key_attrs, key_columns)
        }
        self.key_change = np.zeros(len(trace), dtype=bool)
        self.key_change[:1] = True
        for codes, _ in self._columns.values():
            self.key_change[1:] |= codes[1:] != codes[:-1]
        self.gap = np.diff(self.ts, prepend=self.ts[:1])
        # key number of each position; keys are numbered in sort_key order
        self.key_index = np.cumsum(self.key_change) - 1

    def _rank(self, attr: str) -> tuple[np.ndarray, Sequence]:
        trace = self.trace
        if attr == "sensor":
            return trace.sensor, trace.sensors
        if attr == "src_ip":
            if self.scheme.use_src_prefix:
                return _prefix_codes(trace, self.scheme.src_prefix_len)
            return trace.src, trace.addresses
        if attr == "dst_ip":
            return trace.dst, trace.addresses
        return getattr(trace, attr), _PORTS

    def codes(self, attr: str) -> np.ndarray:
        """Rank codes of one key attribute (of the keyed source for ``src_ip``), in sorted order."""
        return self._columns[attr][0]

    def labels(self, attr: str) -> Sequence:
        """The values that :meth:`codes` numbers: ``labels[code]`` is a code's value."""
        return self._columns[attr][1]

    def flow_starts(self, idle_timeout: float) -> np.ndarray:
        """Positions in sorted order where a flow begins under ``idle_timeout``."""
        if not idle_timeout > 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout}")
        if self._regressed_at:
            event, prev = self.trace[self._regressed_at], self.trace[self._regressed_at - 1]
            raise UnsortedTraceError(
                f"event at ts={event.ts} arrived after ts={prev.ts}; assemble requires a time-ordered stream"
            )
        return np.flatnonzero(self.key_change | (self.gap > idle_timeout))

    def _flow_keys(self, positions: np.ndarray) -> list[FlowKey]:
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

        Flows of one key share one FlowKey. A flow's packets are a
        selection of the trace, read only when used.
        """
        key_of = self.key_index[starts]
        somewhere = dict(zip(key_of.tolist(), starts.tolist()))  # a sorted position of each distinct key
        keys = dict(zip(somewhere, self._flow_keys(np.fromiter(somewhere.values(), np.intp, len(somewhere)))))
        del somewhere
        flows, rows = [], self.sorted
        for block in range(0, len(starts), _BLOCK):  # whole int lists would outweigh the flows being built
            window = slice(block, block + _BLOCK)
            runs = zip(key_of[window].tolist(), starts[window].tolist(), stops[window].tolist())
            flows += [Flow(keys[k], rows[a:b]) for k, a, b in runs]
        return flows


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

    The stream is keyed and sorted by (key, ts) once; flows are the runs of
    that order split at key changes and at gaps over the timeout.
    :func:`honeyflow.sweep.sweep` splits the same keyed order at every
    timeout of its grid.

    Raises :class:`UnsortedTraceError` naming the first timestamp that
    regresses; silently mis-assembling an unsorted trace would corrupt every
    count downstream.
    """
    split = _KeyedSplit(as_trace(events), scheme)
    starts = split.flow_starts(idle_timeout)
    stops = np.append(starts[1:], len(split.ts))
    canonical = np.lexsort((split.key_index[starts], split.ts[starts]))
    return split.flows(starts[canonical], stops[canonical])
