"""Packet traces held as numpy columns, and their fast JSONL reader.

A :class:`Trace` is the one representation of a trace in honeyflow: every
function that takes events turns them into one (:func:`as_trace`), and
:func:`honeyflow.events.load_trace` returns one. Flow keying, detection,
sweeps and coverage accounting read its columns, all a trace holds; a
:class:`PacketEvent` is built only when a caller reads one.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from itertools import chain, islice
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .events import _EVENT_KEYS, _SURROGATE, PacketEvent, _event, ipv4_to_int

__all__ = ["Trace", "as_trace"]


class _Columns(NamedTuple):
    """The arrays and string tables behind a :class:`Trace`."""

    ts: np.ndarray
    sensor: np.ndarray
    src: np.ndarray
    src_port: np.ndarray
    dst: np.ndarray
    dst_port: np.ndarray
    sensors: list[str]
    addresses: list[str]
    address_values: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, no longer writable; its views inherit that."""
    array.flags.writeable = False
    return array


def _column(name: str, doc: str) -> property:
    index = _Columns._fields.index(name)

    def read(self) -> np.ndarray:
        column = self._columns[index]
        return column if self._rows is None else column[self._rows]

    return property(read, doc=doc)


def _frozen_columns(*fields) -> _Columns:
    """The columns of a new trace, every array made read-only."""
    columns = _Columns(*fields)
    for field in columns:
        if isinstance(field, np.ndarray):
            _read_only(field)
    return columns


def _string_codes(*columns: Sequence[str]) -> tuple[list[str], list[np.ndarray]]:
    """The sorted distinct strings of all columns, and each column as int32 codes into them."""
    table = sorted(set().union(*columns))
    code = {value: index for index, value in enumerate(table)}
    return table, [np.fromiter(map(code.__getitem__, column), np.int32, len(column)) for column in columns]


class Trace(Sequence):
    """Packet events held as numpy columns, one entry per event.

    ``ts`` is float64 and the ports are int32. ``sensor``, ``src`` and
    ``dst`` are int32 codes into the sorted string tables ``sensors`` and
    ``addresses`` (both address columns share one), so ordering by a code
    orders by the string, as :data:`honeyflow.events.trace_sort_key` does. Each table entry
    is the one string object every event with that value shares, and
    ``address_values`` holds each address's 32-bit value.

    A trace is a sequence of :class:`PacketEvent` that builds an event only
    when it is read, by indexing or iterating, and it equals any sequence of
    equal events. :meth:`take` and slicing select rows of a trace without
    copying a column until it is read, by one rule for a loaded trace and a
    selection alike: positions index as numpy indexes an array. The flows of
    :mod:`honeyflow.flows` hold such selections, and their :attr:`rows` are
    the positions of their packets in the trace they were cut from.

    The arrays a trace holds are read-only: the columns, ``address_values``
    and every :attr:`rows`, so whatever a trace derives from them stays
    true. A selection's columns are gathered anew at each read, into copies
    that belong to the caller. Flow keying (:mod:`honeyflow.flows`) keeps one keyed
    order of the trace per flow scheme, built on first use and dropped with
    the trace.
    """

    __slots__ = ("_columns", "_rows", "_memo")

    def __init__(self, columns: _Columns, rows: np.ndarray | None = None) -> None:
        # _memo stays unset, at no cost per selection, until something is kept for this trace
        self._columns = columns
        self._rows = rows

    @classmethod
    def from_events(cls, events: Iterable[PacketEvent]) -> "Trace":
        """The trace of ``events`` in their given order: row ``i`` is ``events[i]``."""
        events = list(events)
        n = len(events)
        sensors, (sensor,) = _string_codes(list(map(attrgetter("sensor"), events)))
        addresses, (src, dst) = _string_codes(
            list(map(attrgetter("src_ip"), events)), list(map(attrgetter("dst_ip"), events))
        )
        return cls(_frozen_columns(
            np.fromiter(map(attrgetter("ts"), events), np.float64, n),
            sensor,
            src,
            np.fromiter(map(attrgetter("src_port"), events), np.int32, n),
            dst,
            np.fromiter(map(attrgetter("dst_port"), events), np.int32, n),
            sensors,
            addresses,
            np.fromiter(map(ipv4_to_int, addresses), np.uint32, len(addresses)),
        ))

    @classmethod
    def concat(cls, parts: Sequence[Sequence[PacketEvent]]) -> "Trace":
        """The events of ``parts`` one after the other; rows of one trace stay rows of it."""
        if parts and all(isinstance(part, Trace) and part._columns is parts[0]._columns for part in parts):
            return cls(parts[0]._columns, _read_only(np.concatenate([part.rows for part in parts])))
        return cls.from_events(chain.from_iterable(parts))

    ts = _column("ts", "Timestamps, float64.")
    sensor = _column("sensor", "Sensor ids as codes into :attr:`sensors`.")
    src = _column("src", "Source addresses as codes into :attr:`addresses`.")
    src_port = _column("src_port", "Source ports, int32.")
    dst = _column("dst", "Destination addresses as codes into :attr:`addresses`.")
    dst_port = _column("dst_port", "Destination ports, int32.")

    @property
    def sensors(self) -> list[str]:
        """The sorted distinct sensor ids of the underlying trace."""
        return self._columns.sensors

    @property
    def addresses(self) -> list[str]:
        """The sorted distinct source and destination addresses of the underlying trace."""
        return self._columns.addresses

    @property
    def address_values(self) -> np.ndarray:
        """The 32-bit value of each entry of :attr:`addresses`, uint32."""
        return self._columns.address_values

    @property
    def rows(self) -> np.ndarray:
        """The positions of these events in the underlying trace: for a trace of a list, in that list."""
        return _read_only(np.arange(len(self._columns.ts))) if self._rows is None else self._rows

    def take(self, rows) -> "Trace":
        """The events at positions ``rows`` of this trace, in that order. ``rows`` indexes the positions
        as numpy indexes an array: int arrays and lists (negatives count from the end), boolean masks
        and slices of any step; a position out of range raises :class:`IndexError` here, and a scalar
        or nested list :class:`TypeError`."""
        positions = self.rows
        selected = positions[rows]
        if selected.ndim != 1:
            raise TypeError(f"take needs one-dimensional positions, not {selected.ndim}-dimensional ones")
        if self._rows is None and selected.base is positions:  # a view would pin the whole arange
            selected = selected.copy()
        return Trace(self._columns, _read_only(selected))

    def _selections(self, starts: list[int], stops: list[int]) -> list["Trace"]:
        """``self[a:b]`` for each ``a, b`` of ``starts, stops``, built straight from row views."""
        columns, rows = self._columns, self.rows
        return [Trace(columns, rows[a:b]) for a, b in zip(starts, stops)]

    def _kept(self, key, make):
        """``make(self)``, made on first use per ``key`` and kept as long as this trace."""
        try:
            memo = self._memo
        except AttributeError:
            memo = self._memo = {}
        value = memo.get(key)
        if value is None:
            value = memo[key] = make(self)
        return value

    def __len__(self) -> int:
        return len(self._columns.ts) if self._rows is None else len(self._rows)

    def _row(self, index: int) -> int:
        """The row of the underlying trace at position ``index`` of this one."""
        row = range(len(self))[index]
        return row if self._rows is None else int(self._rows[row])

    def _ts(self, index: int) -> float:
        """``self[index].ts``, read without building the event."""
        return float(self._columns.ts[self._row(index)])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        row = self._row(index)
        c = self._columns
        return _event(
            float(c.ts[row]), c.sensors[c.sensor[row]], c.addresses[c.src[row]], int(c.src_port[row]),
            c.addresses[c.dst[row]], int(c.dst_port[row]),
        )

    def __iter__(self) -> Iterator[PacketEvent]:
        c = self._columns
        address = c.addresses.__getitem__
        return map(
            _event, self.ts.tolist(), map(c.sensors.__getitem__, self.sensor.tolist()), map(address, self.src.tolist()),
            self.src_port.tolist(), map(address, self.dst.tolist()), self.dst_port.tolist(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Trace, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


def as_trace(events: Iterable[PacketEvent]) -> Trace:
    """``events`` as a :class:`Trace`: a trace itself, anything else via :meth:`Trace.from_events`."""
    return events if isinstance(events, Trace) else Trace.from_events(events)


# -- reading JSONL ------------------------------------------------------------

# Non-blank lines per json.loads call of the fast path: enough to amortise
# the call, few enough that a chunk's objects stay small next to the columns.
_CHUNK_LINES = 1024
_EVENT_FIELDS = itemgetter(*_EVENT_KEYS)


def _decode(lines: list[str]) -> tuple[tuple, ...] | None:
    """One chunk of event lines as six columns of values, or None if a line is no event-shaped object.

    Each line is wrapped in its own array and the chunk decoded by one
    ``json.loads``: the decoded rows number the lines exactly when each
    line holds one JSON value, since a separator holds a raw newline no
    string may span, and an object spread over lines would take separator
    brackets into a value no good event has.
    """
    try:
        rows = json.loads("[[" + "],\n[".join(lines) + "]]")
        if len(rows) != len(lines):
            return None
        records = [record for (record,) in rows]
        if set(map(type, records)) != {dict} or set(map(len, records)) != {len(_EVENT_KEYS)}:
            return None
        return tuple(zip(*map(_EVENT_FIELDS, records)))
    except (ValueError, TypeError, KeyError, RecursionError):
        return None


class _Rows:
    """Rows of event values, checked a chunk at a time column by column, to the letter of
    :func:`honeyflow.events.parse_event_line`, then sorted into one :class:`Trace`. Sensors and
    addresses are coded by first-seen ids; each new address goes through ``ipv4_to_int`` once.
    """

    def __init__(self) -> None:
        self.sensor_ids: dict[str, int] = {}
        self.address_ids: dict[str, int] = {}
        self.values: list[int] = []
        self.chunks: list[tuple[np.ndarray, ...]] = []

    def add(self, ts, sensor, src_ip, src_port, dst_ip, dst_port) -> bool:
        """Add one chunk's columns, or return False if any row is not a good event on its own."""
        if (
            not set(map(type, ts)) <= {float, int}
            or set(map(type, sensor)) != {str}
            or "" in sensor
            or set(map(type, src_ip)) | set(map(type, dst_ip)) != {str}
            or set(map(type, src_port)) | set(map(type, dst_port)) != {int}
        ):
            return False
        try:
            ts = np.array(ts, np.float64)
            ports = np.array((src_port, dst_port), np.int64)
        except OverflowError:  # an int beyond the float or int64 range
            return False
        if not (np.isfinite(ts) & (ts >= 0)).all() or not ((ports >= 0) & (ports <= 65535)).all():
            return False
        sensor_ids, address_ids = self.sensor_ids, self.address_ids
        for name in set(sensor).difference(sensor_ids):
            if _SURROGATE.search(name):
                return False
            sensor_ids[name] = len(sensor_ids)
        for address in [a for a in dict.fromkeys(chain.from_iterable(zip(src_ip, dst_ip))) if a not in address_ids]:
            try:
                self.values.append(ipv4_to_int(address))
            except ValueError:
                return False
            address_ids[address] = len(address_ids)
        self.chunks.append((
            ts,
            np.fromiter(map(sensor_ids.__getitem__, sensor), np.int32, len(ts)),
            np.fromiter(map(address_ids.__getitem__, src_ip), np.int32, len(ts)),
            ports[0].astype(np.int32),
            np.fromiter(map(address_ids.__getitem__, dst_ip), np.int32, len(ts)),
            ports[1].astype(np.int32),
        ))
        return True

    def sort(self) -> tuple[Trace, np.ndarray]:
        """The rows added in canonical order by one stable ``np.lexsort``, and the row each came from."""
        if not self.chunks:
            return Trace.from_events([]), np.empty(0, np.intp)
        ts, sensor, src, src_port, dst, dst_port = (np.concatenate(column) for column in zip(*self.chunks))
        self.chunks = []
        sensors, sensor_rank = _ranked(self.sensor_ids)
        addresses, address_rank = _ranked(self.address_ids)
        sensor, src, dst = sensor_rank[sensor], address_rank[src], address_rank[dst]
        order = np.lexsort((dst_port, src_port, src, sensor, ts))
        columns = [ts, sensor, src, src_port, dst, dst_port]
        del ts, sensor, src, src_port, dst, dst_port
        for i, column in enumerate(columns):  # each unsorted column is freed before the next is copied
            columns[i] = column[order]
        address_values = np.empty(len(addresses), np.uint32)
        address_values[address_rank] = self.values
        return Trace(_frozen_columns(*columns, sensors, addresses, address_values)), order


def _ranked(ids: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The keys of ``ids`` sorted, and for each id the rank of its key."""
    table = sorted(ids)
    rank = np.empty(len(table), np.int32)
    rank[np.fromiter(map(ids.__getitem__, table), np.intp, len(table))] = np.arange(len(table), dtype=np.int32)
    return table, rank


def _read_trace(path: str) -> Trace | None:
    """The events of a JSONL trace file in canonical order, or None if the
    file is not UTF-8 or some line is one that
    :func:`honeyflow.events.parse_event_line` rejects.

    The file is split into lines and stripped as the per-line parser does
    it, then read in chunks, one ``json.loads`` each.
    """
    rows = _Rows()
    try:
        with open(path, encoding="utf-8") as handle:
            lines = filter(None, map(str.strip, handle))
            while chunk := list(islice(lines, _CHUNK_LINES)):
                if (columns := _decode(chunk)) is None or not rows.add(*columns):
                    return None
    except UnicodeDecodeError:  # the per-line parser meets it, or an earlier bad line, first
        return None
    return rows.sort()[0]
