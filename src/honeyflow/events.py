"""Domain records and file formats for honeypot packet telemetry.

Every input is line-oriented UTF-8 text. Packet events and baseline attack
records are one JSON object per line; scanner lists are one dotted-quad
address per line with ``#`` starting a comment line. Parsers are strict:
a line either yields a record or raises :class:`FormatError` naming the
offending field and line number. Blank lines are skipped everywhere.

Addresses are IPv4 only. IPv6 input is rejected with a clear error rather
than silently mangled.

Every artifact is written by one of three helpers here: ``\n``-terminated
text lines (JSONL records among them, laid out by one compact encoder), CSV
with a header row, or an indented JSON document. A set of artifacts is a
mapping from file name to writer, and :func:`_write_artifacts` is the one
place that joins those names to a directory.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, TextIO

if TYPE_CHECKING:
    from .trace import Trace

__all__ = [
    "FormatError",
    "open_artifact",
    "PacketEvent",
    "BaselineAttack",
    "ScannerList",
    "ProtocolProfile",
    "ipv4_to_int",
    "int_to_ipv4",
    "normalize_prefix",
    "prefix_net_mask",
    "parse_event_line",
    "serialize_event",
    "load_trace",
    "write_trace",
    "parse_baseline_line",
    "serialize_baseline",
    "load_baseline",
    "write_baseline",
    "load_scanner_list",
    "write_scanner_list",
    "load_profiles",
    "write_profiles",
]


class FormatError(ValueError):
    """An input line violates its documented format."""


def open_artifact(path: str) -> TextIO:
    """Open ``path`` for writing as a new UTF-8 text file with ``\\n`` line ends.

    Whatever is at ``path`` is unlinked first and a new file created in its
    place, rather than truncated in place: on ext4, truncating a file written
    moments before took about 50 ms per file, unlinking it about 0.01 ms,
    and reruns rewrite every artifact. A symlink or hard link at ``path`` is
    therefore replaced, not written through; other links to the old file
    keep its old bytes.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8", newline="\n")


# The one layout of a JSONL record: no spaces, keys in the order given.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a ``\\n`` after it to a new artifact at ``path``."""
    with open_artifact(path) as handle:
        write = handle.write
        for line in lines:
            write(line + "\n")


def _write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` then ``rows`` as CSV with ``\\n`` line ends to a new artifact at ``path``."""
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, value) -> None:
    """Write ``value`` as a JSON document, two-space indent and sorted keys, to a new artifact at ``path``."""
    _write_lines(path, [json.dumps(value, indent=2, sort_keys=True)])


def _write_artifacts(out_dir: str, artifacts: Mapping[str, Callable[[str], None]]) -> list[str]:
    """Call each writer with the path of its file name in ``out_dir``, in order; returns the names written."""
    for name, write in artifacts.items():
        write(os.path.join(out_dir, name))
    return list(artifacts)


# -- IPv4 helpers -------------------------------------------------------------
#
# Deliberately not ipaddress: flow keying truncates millions of sources to
# prefixes per analysis run and the int round-trip below is an order of
# magnitude faster, with error wording the format contract controls.

def ipv4_to_int(addr: str) -> int:
    """Parse a dotted-quad IPv4 address to its 32-bit integer value.

    Strict: exactly four decimal octets, no leading zeros (``010`` is
    ambiguous octal in too many tools to let through), each 0..255.
    """
    if not isinstance(addr, str):
        raise ValueError(f"address must be a string, got {type(addr).__name__}")
    if ":" in addr:
        raise ValueError(f"IPv6 addresses are not supported (IPv4 only): {addr!r}")
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {addr!r}")
    value = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"not a dotted-quad IPv4 address: {addr!r}")
        if len(part) > 1 and part[0] == "0":
            raise ValueError(f"leading zeros are not allowed in IPv4 octets: {addr!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"IPv4 octet out of range in {addr!r}")
        value = (value << 8) | octet
    return value


def int_to_ipv4(value: int) -> str:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def prefix_net_mask(prefix: str) -> tuple[int, int]:
    """Split ``"a.b.c.d/len"`` into (network, mask) integers, host bits zeroed."""
    addr, sep, length = prefix.partition("/")
    if not sep:
        raise ValueError(f"prefix must be written as address/length: {prefix!r}")
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"malformed prefix length in {prefix!r}")
    plen = int(length)
    if plen > 32:
        raise ValueError(f"prefix length out of range in {prefix!r}")
    mask = _prefix_mask(plen)
    return ipv4_to_int(addr) & mask, mask


def _prefix_mask(plen: int) -> int:
    """The netmask of a /``plen`` prefix as a 32-bit integer."""
    return (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF


def _cidr(net: int, mask: int) -> str:
    """The CIDR string of a (network, mask) pair."""
    return f"{int_to_ipv4(net)}/{mask.bit_count()}"


def normalize_prefix(prefix: str) -> str:
    """Canonical CIDR form: host bits zeroed, e.g. ``203.0.113.77/24 -> 203.0.113.0/24``."""
    return _cidr(*prefix_net_mask(prefix))


# -- packet events ------------------------------------------------------------

# text UTF-8 cannot encode: a lone surrogate, which a JSON string may spell as an escape
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_port(value: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if not 0 <= value <= 65535:
        raise ValueError(f"{name} out of range: {value}")


def _is_finite(value) -> bool:
    """True for an int or float (not bool) whose float value is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_positive(value, name: str) -> None:
    """Require a finite positive int or float (not bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number: {value!r}")
    if not value > 0:
        raise ValueError(f"{name} must be positive: {value}")
    if not _is_finite(value):
        raise ValueError(f"{name} must be finite: {value}")


@dataclass(frozen=True, slots=True)
class PacketEvent:
    """One packet seen by one sensor.

    ``ts`` is seconds (float, epoch or relative, the pipeline only differences
    them), ``sensor`` an opaque sensor id, ``dst_ip`` the sensor address the
    packet arrived on, ``dst_port`` the service port and therefore the
    protocol under the one-protocol-per-port convention.
    """

    ts: float
    sensor: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int

    def __post_init__(self) -> None:
        if isinstance(self.ts, bool) or not isinstance(self.ts, (int, float)):
            raise ValueError("ts must be a number")
        if not _is_finite(self.ts) or self.ts < 0:
            raise ValueError(f"ts must be finite and non-negative: {self.ts}")
        if not self.sensor or not isinstance(self.sensor, str):
            raise ValueError("sensor must be a non-empty string")
        if _SURROGATE.search(self.sensor):
            raise ValueError("sensor is not valid UTF-8")
        ipv4_to_int(self.src_ip)
        ipv4_to_int(self.dst_ip)
        _check_port(self.src_port, "src_port")
        _check_port(self.dst_port, "dst_port")


_EVENT_KEYS = ("ts", "sensor", "src_ip", "src_port", "dst_ip", "dst_port")

# Canonical trace order. dst_ip is intentionally not part of the key; ties
# that differ only in dst_ip keep input order (the sort is stable).
trace_sort_key = attrgetter("ts", "sensor", "src_ip", "src_port", "dst_port")

# Parsed events are fully validated before they are built, so they are built
# without PacketEvent.__post_init__ by setting the frozen slots directly; a
# direct PacketEvent(...) call still validates.
_set_ts, _set_sensor, _set_src_ip, _set_src_port, _set_dst_ip, _set_dst_port = (
    getattr(PacketEvent, key).__set__ for key in _EVENT_KEYS
)


def _event(ts: float, sensor: str, src_ip: str, src_port: int, dst_ip: str, dst_port: int) -> PacketEvent:
    """A PacketEvent of values already checked."""
    event = object.__new__(PacketEvent)
    _set_ts(event, ts)
    _set_sensor(event, sensor)
    _set_src_ip(event, src_ip)
    _set_src_port(event, src_port)
    _set_dst_ip(event, dst_ip)
    _set_dst_port(event, dst_port)
    return event


def _load_record(line: str, line_no: int, kind: str):
    """``json.loads`` with every decoding failure as a FormatError naming the line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {line_no}: malformed {kind} record: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer over the int/str digit limit, or nesting too deep
        raise FormatError(f"line {line_no}: malformed {kind} record: {exc}") from exc


def _check_record(record, keys: tuple[str, ...], kind: str, line_no: int) -> None:
    """Raise the FormatError for a record that is not an object with exactly ``keys``.

    A non-object is reported first, then the first missing key in ``keys``
    order, then the first unexpected key in record order.
    """
    if not isinstance(record, dict):
        raise FormatError(f"line {line_no}: {kind} record must be a JSON object")
    for key in keys:
        if key not in record:
            raise FormatError(f"line {line_no}: missing key '{key}'")
    for key in record:
        if key not in keys:
            raise FormatError(f"line {line_no}: unexpected key '{key}'")


def _check_address(record: dict, name: str, line_no: int) -> str:
    addr = record[name]
    try:
        ipv4_to_int(addr)
    except ValueError as exc:
        raise FormatError(f"line {line_no}: {name}: {exc}") from exc
    return addr


def _diagnose_event(record, line_no: int) -> None:
    """Raise the FormatError naming the first bad field of ``record``, if any."""
    _check_record(record, _EVENT_KEYS, "event", line_no)
    ts = record["ts"]
    if not _is_finite(ts) or ts < 0:
        raise FormatError(f"line {line_no}: ts must be a finite non-negative number")
    sensor = record["sensor"]
    if not isinstance(sensor, str) or not sensor:
        raise FormatError(f"line {line_no}: sensor must be a non-empty string")
    if _SURROGATE.search(sensor):
        raise FormatError(f"line {line_no}: sensor is not valid UTF-8")
    for name in ("src_port", "dst_port"):
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"line {line_no}: {name} must be an integer")
        if not 0 <= value <= 65535:
            raise FormatError(f"line {line_no}: {name} out of range: {value}")
    _check_address(record, "src_ip", line_no)
    _check_address(record, "dst_ip", line_no)


def parse_event_line(line: str, line_no: int = 0) -> PacketEvent:
    """Parse one JSON event line, diagnosing the exact field on failure."""
    record = _load_record(line, line_no, "event")
    _diagnose_event(record, line_no)
    return _event(
        float(record["ts"]), record["sensor"], record["src_ip"], record["src_port"], record["dst_ip"],
        record["dst_port"],
    )


def serialize_event(event: PacketEvent) -> str:
    """Inverse of :func:`parse_event_line`; round-trips exactly (floats via repr)."""
    return _compact_json(
        {
            "ts": event.ts,
            "sensor": event.sensor,
            "src_ip": event.src_ip,
            "src_port": event.src_port,
            "dst_ip": event.dst_ip,
            "dst_port": event.dst_port,
        }
    )


_UNDECODABLE = re.compile("[\udc80-\udcff]")  # what errors="surrogateescape" makes of a non-UTF-8 byte


def _nonblank_lines(path: str) -> Iterator[tuple[int, str]]:
    """The stripped non-blank lines of a text file and their numbers; a line that is not UTF-8 raises FormatError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if _UNDECODABLE.search(line):
                raise FormatError(f"line {line_no}: not valid UTF-8")
            if line:
                yield line_no, line


def load_trace(path: str) -> Trace:
    """Load a JSONL trace and return it in canonical order, as a :class:`~honeyflow.trace.Trace`.

    Events are sorted by (ts, sensor, src_ip, src_port, dst_port), stably,
    so downstream flow assembly sees a time-ordered stream regardless of
    how the file was produced.

    Lines are decoded in chunks, one ``json.loads`` per chunk, and checked
    column by column. A chunk fails only on a line that is not UTF-8 or
    that :func:`parse_event_line` rejects; the file is then read again line
    by line with that parser only to raise the :class:`FormatError` naming
    the first bad line.
    """
    from .trace import _read_trace  # the trace module builds on this one

    trace = _read_trace(path)
    if trace is None:
        for line_no, line in _nonblank_lines(path):
            parse_event_line(line, line_no)
        raise AssertionError(f"{path}: the chunked reader rejected a file the per-line parser accepts")
    return trace


def write_trace(events: Iterable[PacketEvent], path: str) -> None:
    _write_lines(path, map(serialize_event, events))


# -- baseline attack records ---------------------------------------------------

@dataclass(frozen=True)
class BaselineAttack:
    """An attack interval reported by an independent vantage point.

    ``protocols`` is a set of destination ports; empty means the source had
    no port information and the record matches on prefix+time only (such
    records are tallied separately by the overlap report). ``prefixes`` is a
    non-empty set of CIDR strings, normalized on construction.

    ``nets`` holds the prefixes as (network, mask) integer pairs in
    ascending order. Each prefix is parsed once, here; matching, sorting
    and serializing read these pairs and never parse a prefix again.
    """

    start_ts: float
    end_ts: float
    protocols: frozenset[int] = field(default_factory=frozenset)
    prefixes: frozenset[str] = field(default_factory=frozenset)
    nets: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("start_ts", "end_ts"):
            value = getattr(self, name)
            if not _is_finite(value):
                raise ValueError(f"{name} must be a finite number")
        if self.end_ts < self.start_ts:
            raise ValueError(f"end_ts precedes start_ts: {self.end_ts} < {self.start_ts}")
        protocols = frozenset(self.protocols)
        for port in protocols:
            _check_port(port, "protocol port")
        if not self.prefixes:
            raise ValueError("prefixes must be non-empty")
        nets = tuple(sorted({prefix_net_mask(p) for p in self.prefixes}))
        object.__setattr__(self, "protocols", protocols)
        object.__setattr__(self, "prefixes", frozenset(_cidr(*pair) for pair in nets))
        object.__setattr__(self, "nets", nets)


_BASELINE_KEYS = ("start_ts", "end_ts", "protocols", "prefixes")


def parse_baseline_line(line: str, line_no: int = 0) -> BaselineAttack:
    record = _load_record(line, line_no, "baseline")
    _check_record(record, _BASELINE_KEYS, "baseline", line_no)
    protocols = record["protocols"]
    prefixes = record["prefixes"]
    if not isinstance(protocols, list) or any(isinstance(p, (list, dict)) for p in protocols):
        raise FormatError(f"line {line_no}: protocols must be a list of ports")
    if not isinstance(prefixes, list) or not all(isinstance(p, str) for p in prefixes):
        raise FormatError(f"line {line_no}: prefixes must be a list of CIDR strings")
    try:
        return BaselineAttack(
            start_ts=record["start_ts"],
            end_ts=record["end_ts"],
            protocols=frozenset(protocols),
            prefixes=frozenset(prefixes),
        )
    except ValueError as exc:
        raise FormatError(f"line {line_no}: {exc}") from exc


def serialize_baseline(attack: BaselineAttack) -> str:
    return _compact_json(
        {
            "start_ts": attack.start_ts,
            "end_ts": attack.end_ts,
            "protocols": sorted(attack.protocols),
            "prefixes": [_cidr(*pair) for pair in attack.nets],
        }
    )


def load_baseline(path: str) -> list[BaselineAttack]:
    records = [parse_baseline_line(line, line_no) for line_no, line in _nonblank_lines(path)]
    # ties in time are ordered by the CIDR strings in (network, mask) order
    records.sort(key=lambda b: (b.start_ts, b.end_ts, [_cidr(*pair) for pair in b.nets]))
    return records


def write_baseline(records: Iterable[BaselineAttack], path: str) -> None:
    _write_lines(path, map(serialize_baseline, records))


# -- scanner lists --------------------------------------------------------------

@dataclass(frozen=True)
class ScannerList:
    """Sources a network telescope attributes to scanning, as bare addresses."""

    sources: frozenset[str]
    region_label: str = ""

    def __post_init__(self) -> None:
        # written as a "# " comment line, a label with a line break would list what follows it
        if "\n" in self.region_label or "\r" in self.region_label:
            raise ValueError(f"region_label must be one line: {self.region_label!r}")
        for source in self.sources:
            ipv4_to_int(source)


def load_scanner_list(path: str, region_label: str = "") -> ScannerList:
    """One address per line; ``#`` begins a comment line (whole line only)."""
    sources = set()
    for line_no, line in _nonblank_lines(path):
        if line.startswith("#"):
            continue
        try:
            ipv4_to_int(line)
        except ValueError as exc:
            raise FormatError(f"line {line_no}: {exc}") from exc
        sources.add(line)
    return ScannerList(sources=frozenset(sources), region_label=region_label)


def write_scanner_list(scanners: ScannerList, path: str) -> None:
    label = scanners.region_label.encode("utf-8", "backslashreplace").decode("utf-8")  # escapes a lone surrogate
    comment = [f"# {label}"] if label else []
    _write_lines(path, comment + sorted(scanners.sources, key=ipv4_to_int))


# -- amplification protocol profiles --------------------------------------------

@dataclass(frozen=True)
class ProtocolProfile:
    """Per-protocol amplification parameters for the evasion model."""

    name: str
    dst_port: int
    request_size: float  # bytes on the wire per request
    amplification_factor: float
    amplifier_count: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string: {self.name!r}")
        if _SURROGATE.search(self.name):
            raise ValueError("name is not valid UTF-8")
        _check_port(self.dst_port, "dst_port")
        _check_positive(self.request_size, "request_size")
        _check_positive(self.amplification_factor, "amplification_factor")
        count = self.amplifier_count
        if isinstance(count, bool) or not isinstance(count, int) or count <= 0:
            raise ValueError(f"amplifier_count must be a positive integer: {count}")
        if not _is_finite(count):  # requests per amplifier divide a float by it
            raise ValueError("amplifier_count is beyond the float range")


_PROFILE_KEYS = ("name", "dst_port", "request_size", "amplification_factor", "amplifier_count")


def load_profiles(path: str) -> list[ProtocolProfile]:
    """JSONL, keys exactly name/dst_port/request_size/amplification_factor/amplifier_count."""
    profiles = []
    for line_no, line in _nonblank_lines(path):
        record = _load_record(line, line_no, "profile")
        _check_record(record, _PROFILE_KEYS, "profile", line_no)
        try:
            profiles.append(ProtocolProfile(**record))
        except ValueError as exc:
            raise FormatError(f"line {line_no}: {exc}") from exc
    return profiles


def write_profiles(profiles: Iterable[ProtocolProfile], path: str) -> None:
    _write_lines(path, (_compact_json({key: getattr(profile, key) for key in _PROFILE_KEYS}) for profile in profiles))
