import ipaddress
import json
import os
import random
import sys
import tempfile
import tracemalloc

import pytest
from helpers import oracle_load_trace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from honeyflow.events import (
    BaselineAttack,
    FormatError,
    PacketEvent,
    ProtocolProfile,
    ScannerList,
    int_to_ipv4,
    ipv4_to_int,
    load_baseline,
    load_profiles,
    load_scanner_list,
    load_trace,
    normalize_prefix,
    parse_baseline_line,
    parse_event_line,
    prefix_net_mask,
    serialize_baseline,
    serialize_event,
    write_baseline,
    write_profiles,
    write_scanner_list,
    write_trace,
)
from honeyflow import events as events_module
from honeyflow import trace as trace_module


def test_ipv4_round_trip_against_ipaddress():
    rng = random.Random(11)
    for _ in range(300):
        value = rng.randrange(0, 2**32)
        text = int_to_ipv4(value)
        assert text == str(ipaddress.IPv4Address(value))
        assert ipv4_to_int(text) == value


@pytest.mark.parametrize(
    "bad",
    ["", "1.2.3", "1.2.3.4.5", "1.2.3.256", "01.2.3.4", "1.2.3.04", "a.b.c.d", "2001:db8::1", "1.2.3.-4"],
)
def test_ipv4_rejects(bad):
    with pytest.raises(ValueError):
        ipv4_to_int(bad)


def test_ipv6_error_names_the_problem():
    with pytest.raises(ValueError, match="IPv6"):
        ipv4_to_int("2001:db8::1")


_OCTETS = st.one_of(st.integers(0, 300).map(str), st.text("0123456789٠١٢²¹߃०１ +-_x", max_size=4))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_OCTETS, min_size=3, max_size=5).map(".".join), st.text(max_size=16)))
def test_ipv4_to_int_agrees_with_ipaddress(text):
    # accepted iff ipaddress accepts it, with the same value: ASCII digits only, no leading zeros
    try:
        expected = int(ipaddress.IPv4Address(text))
    except ValueError:
        with pytest.raises(ValueError):
            ipv4_to_int(text)
    else:
        assert ipv4_to_int(text) == expected


@pytest.mark.parametrize("text,message", [
    ("١٠.0.0.1", "not a dotted-quad IPv4 address"),  # Arabic-Indic "10"
    ("1.2.3.²", "not a dotted-quad IPv4 address"),  # superscript two
    ("10.0.0.0/٢٤", "malformed prefix length"),  # Arabic-Indic "24"
    ("١٠.0.0.0/24", "not a dotted-quad IPv4 address"),
])
def test_non_ascii_digits_are_rejected(text, message):
    parse = prefix_net_mask if "/" in text else ipv4_to_int
    with pytest.raises(ValueError, match=message):
        parse(text)


def test_prefix_normalization():
    assert normalize_prefix("203.0.113.77/24") == "203.0.113.0/24"
    assert normalize_prefix("10.1.2.3/8") == "10.0.0.0/8"
    assert normalize_prefix("0.0.0.0/0") == "0.0.0.0/0"
    assert normalize_prefix("1.2.3.4/32") == "1.2.3.4/32"
    net, mask = prefix_net_mask("198.51.100.9/24")
    assert net == ipv4_to_int("198.51.100.0") and mask == 0xFFFFFF00
    for bad in ("1.2.3.4", "1.2.3.4/33", "1.2.3.4/x", "1.2.3.4/-1"):
        with pytest.raises(ValueError):
            prefix_net_mask(bad)


def sample_event(**overrides):
    fields = dict(ts=100.5, sensor="s1", src_ip="198.51.100.7", src_port=51515,
                  dst_ip="203.0.113.1", dst_port=123)
    fields.update(overrides)
    return PacketEvent(**fields)


def test_event_validation():
    sample_event()  # good one constructs
    with pytest.raises(ValueError):
        sample_event(ts=-1.0)
    with pytest.raises(ValueError):
        sample_event(ts=float("nan"))
    with pytest.raises(ValueError):
        sample_event(sensor="")
    with pytest.raises(ValueError, match="sensor is not valid UTF-8"):
        sample_event(sensor="s\ud8001")
    with pytest.raises(ValueError):
        sample_event(src_ip="not-an-ip")
    with pytest.raises(ValueError, match="src_port out of range"):
        sample_event(src_port=70000)
    with pytest.raises(ValueError):
        sample_event(dst_port=-1)


def test_event_round_trip_property():
    rng = random.Random(23)
    for _ in range(200):
        event = PacketEvent(
            ts=rng.uniform(0, 1e9),
            sensor=f"s{rng.randrange(100):02d}",
            src_ip=int_to_ipv4(rng.randrange(2**32)),
            src_port=rng.randrange(65536),
            dst_ip=int_to_ipv4(rng.randrange(2**32)),
            dst_port=rng.randrange(65536),
        )
        assert parse_event_line(serialize_event(event), 1) == event


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("{", "malformed"),
        ("[1,2]", "object"),
        ('{"ts": 1, "sensor": "a", "src_ip": "1.2.3.4", "src_port": 1, "dst_ip": "1.2.3.4"}', "missing key 'dst_port'"),
        ('{"ts": 1, "sensor": "a", "src_ip": "1.2.3.4", "src_port": 1, "dst_ip": "1.2.3.4", "dst_port": 5, "x": 1}', "unexpected key 'x'"),
        ('{"ts": -5, "sensor": "a", "src_ip": "1.2.3.4", "src_port": 1, "dst_ip": "1.2.3.4", "dst_port": 5}', "ts"),
        ('{"ts": 1, "sensor": "", "src_ip": "1.2.3.4", "src_port": 1, "dst_ip": "1.2.3.4", "dst_port": 5}', "sensor"),
        ('{"ts": 1, "sensor": "a", "src_ip": "1.2.3.4", "src_port": 99999, "dst_ip": "1.2.3.4", "dst_port": 5}', "src_port out of range"),
        ('{"ts": 1, "sensor": "a", "src_ip": "1.2.3.4", "src_port": 1.5, "dst_ip": "1.2.3.4", "dst_port": 5}', "src_port must be an integer"),
        ('{"ts": 1, "sensor": "a", "src_ip": "bogus", "src_port": 1, "dst_ip": "1.2.3.4", "dst_port": 5}', "src_ip"),
    ],
)
def test_event_parse_errors_name_field_and_line(line, fragment):
    with pytest.raises(FormatError) as err:
        parse_event_line(line, 3)
    assert fragment in str(err.value)
    assert "line 3" in str(err.value)


def test_load_trace_sorts_and_reports_line_numbers(tmp_path):
    events = [
        sample_event(ts=50.0, sensor="s2"),
        sample_event(ts=10.0, sensor="s9"),
        sample_event(ts=50.0, sensor="s1"),
    ]
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(serialize_event(e) for e in events) + "\n\n")
    loaded = load_trace(str(path))
    assert [e.ts for e in loaded] == [10.0, 50.0, 50.0]
    assert [e.sensor for e in loaded] == ["s9", "s1", "s2"]

    path.write_text('{"ts": 1}\n')
    with pytest.raises(FormatError, match="line 1"):
        load_trace(str(path))

    bad = serialize_event(events[0]) + "\n" + '{"nope": 1}' + "\n"
    path.write_text(bad)
    with pytest.raises(FormatError, match="line 2"):
        load_trace(str(path))


def test_huge_integer_timestamps_are_format_errors(tmp_path):
    huge = 10**400  # beyond the float range: float(huge) overflows
    with pytest.raises(ValueError, match="ts must be finite and non-negative"):
        sample_event(ts=huge)
    line = serialize_event(sample_event()).replace('"ts":100.5', f'"ts":{huge}')
    with pytest.raises(FormatError, match="^line 4: ts must be a finite non-negative number$"):
        parse_event_line(line, 4)
    path = tmp_path / "events.jsonl"
    path.write_text(serialize_event(sample_event()) + "\n" + line + "\n")
    with pytest.raises(FormatError, match="^line 2: ts must be a finite non-negative number$"):
        load_trace(str(path))

    for name in ("start_ts", "end_ts"):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            BaselineAttack(**{"start_ts": 0, "end_ts": 0, name: huge}, prefixes=frozenset({"1.2.3.0/24"}))
        record = {"start_ts": 1, "end_ts": 2, "protocols": [], "prefixes": ["1.2.3.0/24"], name: huge}
        with pytest.raises(FormatError, match=f"^line 5: {name} must be a finite number$"):
            parse_baseline_line(json.dumps(record), 5)


# json.loads raises a plain ValueError, not a JSONDecodeError, for an integer
# literal over the int/str conversion limit (4300 digits)
OVER_DIGIT_LIMIT = "1" + "0" * 5000


def test_event_over_digit_limit_is_a_format_error(tmp_path):
    line = serialize_event(sample_event()).replace('"ts":100.5', f'"ts":{OVER_DIGIT_LIMIT}')
    with pytest.raises(FormatError, match="^line 3: malformed event record: Exceeds the limit"):
        parse_event_line(line, 3)
    path = tmp_path / "events.jsonl"
    path.write_text(serialize_event(sample_event()) + "\n" + line + "\n")
    with pytest.raises(FormatError, match="^line 2: malformed event record: Exceeds the limit"):
        load_trace(str(path))


def test_baseline_over_digit_limit_is_a_format_error():
    line = f'{{"start_ts": {OVER_DIGIT_LIMIT}, "end_ts": 2, "protocols": [], "prefixes": []}}'
    with pytest.raises(FormatError, match="^line 5: malformed baseline record: Exceeds the limit"):
        parse_baseline_line(line, 5)


def test_profile_over_digit_limit_is_a_format_error(tmp_path):
    path = tmp_path / "profiles.jsonl"
    write_profiles([ProtocolProfile("NTP", 123, 13.0, 557.0, 2_300_000)], str(path))
    good = path.read_text()
    path.write_text(good + good.replace("2300000", OVER_DIGIT_LIMIT))
    with pytest.raises(FormatError, match="^line 2: malformed profile record: Exceeds the limit"):
        load_profiles(str(path))


# json.loads raises RecursionError, not a ValueError, for nesting deeper than
# the interpreter's recursion limit
TOO_DEEP = "[" * 200_000


def test_too_deeply_nested_records_are_format_errors(tmp_path):
    events, baseline, profiles = (tmp_path / name for name in ("events.jsonl", "baseline.jsonl", "profiles.jsonl"))
    write_trace([sample_event()], str(events))
    write_baseline([BaselineAttack(1.0, 2.0, frozenset({123}), frozenset({"203.0.113.0/24"}))], str(baseline))
    write_profiles([ProtocolProfile("NTP", 123, 13.0, 557.0, 2_300_000)], str(profiles))
    for path in (events, baseline, profiles):
        path.write_text(path.read_text() + TOO_DEEP + "\n")
    for path, load, kind in ((events, load_trace, "event"), (events, oracle_load_trace, "event"),
                             (baseline, load_baseline, "baseline"), (profiles, load_profiles, "profile")):
        with pytest.raises(FormatError, match=f"^line 2: malformed {kind} record: .*recursion"):
            load(str(path))
    with pytest.raises(FormatError, match="^line 3: malformed event record: .*recursion"):
        parse_event_line('{"ts": ' + TOO_DEEP, 3)


def test_bytes_not_utf8_name_their_line(tmp_path):
    # 0xff begins no UTF-8 sequence; ED B2 80 would encode a lone surrogate
    events, baseline, profiles, scanners = (
        tmp_path / name for name in ("events.jsonl", "baseline.jsonl", "profiles.jsonl", "scanners.txt")
    )
    write_trace([sample_event()], str(events))
    write_baseline([BaselineAttack(1.0, 2.0, frozenset({123}), frozenset({"203.0.113.0/24"}))], str(baseline))
    write_profiles([ProtocolProfile("NTP", 123, 13.0, 557.0, 2_300_000)], str(profiles))
    scanners.write_text("# feed \u00e9\n1.2.3.4\n", encoding="utf-8")  # valid UTF-8 beyond ASCII passes
    for path, load in ((events, load_trace), (baseline, load_baseline), (profiles, load_profiles),
                       (scanners, load_scanner_list)):
        good = path.read_bytes()
        load(str(path))
        lines = good.splitlines()
        for bad in (b"\xff", b"\xed\xb2\x80"):
            path.write_bytes(good + lines[-1].replace(b"1", bad, 1) + b"\n")
            with pytest.raises(FormatError, match=f"^line {len(lines) + 1}: not valid UTF-8$"):
                load(str(path))


def test_first_bad_line_wins_over_a_bad_byte(tmp_path):
    path = tmp_path / "events.jsonl"
    good = serialize_event(sample_event()).encode()
    path.write_bytes(good + b"\n{\n" + good.replace(b"s", b"\xff", 1) + b"\n")
    with pytest.raises(FormatError, match="^line 2: malformed event record"):
        load_trace(str(path))
    path.write_bytes(good + b"\n" + good.replace(b"s", b"\xff", 1) + b"\n{\n")
    with pytest.raises(FormatError, match="^line 2: not valid UTF-8$"):
        load_trace(str(path))


def test_load_trace_fallback_only_diagnoses(tmp_path, monkeypatch):
    path = tmp_path / "events.jsonl"
    write_trace([sample_event()], str(path))
    monkeypatch.setattr(trace_module, "_read_trace", lambda path: None)
    with pytest.raises(AssertionError, match="events.jsonl: the chunked reader rejected"):
        load_trace(str(path))


def test_load_trace_checks_once_and_shares_strings(tmp_path, monkeypatch):
    path = tmp_path / "events.jsonl"
    write_trace([sample_event(ts=1.0), sample_event(ts=2.0), sample_event(ts=3.0)], str(path))
    calls = []
    monkeypatch.setattr("honeyflow.trace.ipv4_to_int", lambda addr: calls.append(addr) or 0)
    monkeypatch.setattr(PacketEvent, "__post_init__", lambda self: calls.append(self))
    first, second, third = load_trace(str(path))
    assert calls == ["198.51.100.7", "203.0.113.1"]  # each distinct address once
    assert first.src_ip is second.src_ip is third.src_ip
    assert first.dst_ip is third.dst_ip and first.sensor is third.sensor


def test_trace_is_a_sequence_of_its_events(tmp_path):
    events = [sample_event(ts=float(t), src_port=t) for t in range(10)]
    path = tmp_path / "events.jsonl"
    write_trace(events, str(path))
    for trace in (load_trace(str(path)), trace_module.as_trace(events)):
        assert len(trace) == 10 and trace == events and list(trace) == events
        assert trace[3] == events[3] and trace[-1] == events[-1]
        for index in (slice(2, 7), slice(None, None, -3), slice(8, 2), slice(-4, None)):
            assert trace[index] == events[index]
        assert trace[2:9][1:4] == events[2:9][1:4] and trace[2:9][-1] == events[8]
        with pytest.raises(IndexError):
            trace[10]


def test_trace_sort_is_stable_for_dst_ip_ties(tmp_path):
    # dst_ip is not part of the canonical order; ties keep file order
    first = sample_event(dst_ip="203.0.113.9")
    second = sample_event(dst_ip="203.0.113.1")
    path = tmp_path / "t.jsonl"
    write_trace([first, second], str(path))
    assert load_trace(str(path)) == [first, second]


def test_each_sort_field_breaks_the_ties_of_those_before_it(tmp_path):
    # every combination of two values per key field, written in reverse canonical order; "10.0.0.1"
    # sorts before "9.9.9.9" as a string, not as a number
    events = [
        sample_event(ts=ts, sensor=sensor, src_ip=src_ip, src_port=src_port, dst_port=dst_port)
        for ts in (1.0, 2.0) for sensor in ("s1", "s2") for src_ip in ("10.0.0.1", "9.9.9.9")
        for src_port in (1, 2) for dst_port in (1, 2)
    ]
    path = tmp_path / "t.jsonl"
    write_trace(events[::-1], str(path))
    assert load_trace(str(path)) == events


def test_baseline_round_trip_and_normalization():
    record = BaselineAttack(
        start_ts=100.0,
        end_ts=200.0,
        protocols=frozenset({123, 53}),
        prefixes=frozenset({"203.0.113.99/24", "198.51.100.0/25"}),
    )
    assert record.prefixes == frozenset({"203.0.113.0/24", "198.51.100.0/25"})
    parsed = parse_baseline_line(serialize_baseline(record), 1)
    assert parsed == record


def test_baseline_keeps_its_prefixes_as_sorted_pairs():
    record = BaselineAttack(0.0, 1.0, frozenset({53}),
                            frozenset({"203.0.113.99/24", "10.0.0.0/8", "203.0.113.0/24", "9.9.9.9/32"}))
    assert record.nets == tuple(sorted(prefix_net_mask(p) for p in record.prefixes))
    assert len(record.nets) == 3 and "nets" not in repr(record)
    # the pairs are derived, so records equal field by field compare and hash equal
    assert record == BaselineAttack(0.0, 1.0, frozenset({53}), record.prefixes)
    assert hash(record) == hash(BaselineAttack(0.0, 1.0, frozenset({53}), record.prefixes))
    assert json.loads(serialize_baseline(record))["prefixes"] == ["9.9.9.9/32", "10.0.0.0/8", "203.0.113.0/24"]


def test_load_baseline_orders_time_ties_by_prefix_strings(tmp_path):
    # in (network, mask) order each record's CIDR strings are compared as strings
    records = [BaselineAttack(0.0, 1.0, frozenset(), frozenset({prefix})) for prefix in ("9.0.0.0/8", "10.0.0.0/8")]
    path = tmp_path / "baseline.jsonl"
    write_baseline(records, str(path))
    assert [sorted(b.prefixes) for b in load_baseline(str(path))] == [["10.0.0.0/8"], ["9.0.0.0/8"]]


def test_baseline_validation_and_errors(tmp_path):
    with pytest.raises(ValueError):
        BaselineAttack(start_ts=5.0, end_ts=1.0, prefixes=frozenset({"1.2.3.0/24"}))
    with pytest.raises(ValueError):
        BaselineAttack(start_ts=0.0, end_ts=1.0, prefixes=frozenset())
    # portless is legal
    portless = BaselineAttack(start_ts=0.0, end_ts=1.0, prefixes=frozenset({"1.2.3.0/24"}))
    assert not portless.protocols

    path = tmp_path / "b.jsonl"
    path.write_text('{"start_ts": 1, "end_ts": 2, "protocols": [], "prefixes": ["1.2.3.4"]}\n')
    with pytest.raises(FormatError, match="line 1"):
        load_baseline(str(path))
    path.write_text('{"start_ts": 1, "end_ts": 2, "protocols": []}\n')
    with pytest.raises(FormatError, match="missing key 'prefixes'"):
        load_baseline(str(path))


def test_baseline_file_round_trip(tmp_path):
    records = [
        BaselineAttack(start_ts=50.0, end_ts=80.0, protocols=frozenset({123}),
                       prefixes=frozenset({"203.0.113.0/24"})),
        BaselineAttack(start_ts=10.0, end_ts=20.0, protocols=frozenset(),
                       prefixes=frozenset({"198.51.100.0/24"})),
    ]
    path = tmp_path / "baseline.jsonl"
    write_baseline(records, str(path))
    loaded = load_baseline(str(path))
    assert loaded == sorted(records, key=lambda b: b.start_ts)


def test_scanner_list_parsing(tmp_path):
    path = tmp_path / "scanners.txt"
    path.write_text("# telescope feed\n1.2.3.4\n\n5.6.7.8\n1.2.3.4\n")
    scanners = load_scanner_list(str(path), region_label="us")
    assert scanners.sources == frozenset({"1.2.3.4", "5.6.7.8"})
    assert scanners.region_label == "us"

    path.write_text("1.2.3.4 # trailing comments are not in the grammar\n")
    with pytest.raises(FormatError, match="line 1"):
        load_scanner_list(str(path))

    out = tmp_path / "out.txt"
    write_scanner_list(ScannerList(frozenset({"10.0.0.2", "2.0.0.1"}), region_label="eu"), str(out))
    assert out.read_text() == "# eu\n2.0.0.1\n10.0.0.2\n"


_LINE_BREAKS_AND_LOOKALIKES = "\n\r\x0b\x0c\x1c\x85\u2028# ."


@settings(max_examples=200, deadline=None)
@given(
    label=st.text(st.one_of(st.sampled_from(_LINE_BREAKS_AND_LOOKALIKES), st.characters()), max_size=16),
    sources=st.sets(st.sampled_from(["1.2.3.4", "10.0.0.2", "203.0.113.7"])),
)
@example(label="telescope\n198.51.100.66", sources=set())
@example(label="t\r198.51.100.67", sources={"1.2.3.4"})
@example(label="\ud800", sources={"1.2.3.4"})  # a lone surrogate, which UTF-8 cannot encode
def test_scanner_list_label_lists_no_source(label, sources):
    try:
        scanners = ScannerList(frozenset(sources), region_label=label)
    except ValueError as exc:
        assert "region_label" in str(exc) and ("\n" in label or "\r" in label)
        return
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "scanners.txt")
        write_scanner_list(scanners, path)
        assert load_scanner_list(path).sources == scanners.sources


def test_profiles_round_trip_and_validation(tmp_path):
    profile = ProtocolProfile("NTP", 123, 13.0, 557.0, 2_300_000)
    path = tmp_path / "profiles.jsonl"
    write_profiles([profile], str(path))
    assert load_profiles(str(path)) == [profile]

    with pytest.raises(ValueError):
        ProtocolProfile("NTP", 123, 0.0, 557.0, 10)
    with pytest.raises(ValueError):
        ProtocolProfile("NTP", 123, 13.0, 557.0, 0)

    path.write_text('{"name": "x", "dst_port": 1, "request_size": 1, "amplification_factor": 1}\n')
    with pytest.raises(FormatError, match="missing key 'amplifier_count'"):
        load_profiles(str(path))


_GOOD_PROFILE = {"name": "NTP", "dst_port": 123, "request_size": 13.0,
                 "amplification_factor": 557.0, "amplifier_count": 2_300_000}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("name", "", "name must be non-empty"),
        ("name", None, "name must be non-empty"),
        ("name", 7, "name must be a string: 7"),
        ("dst_port", "53", "dst_port must be an integer"),
        ("dst_port", True, "dst_port must be an integer"),
        ("dst_port", 70000, "dst_port out of range: 70000"),
        ("request_size", "abc", "request_size must be a number: 'abc'"),
        ("request_size", None, "request_size must be a number: None"),
        ("request_size", True, "request_size must be a number: True"),
        ("request_size", 0, "request_size must be positive: 0"),
        ("request_size", "NaN", "request_size must be positive: nan"),
        ("request_size", "Infinity", "request_size must be finite: inf"),
        ("amplification_factor", [2], "amplification_factor must be a number: [2]"),
        ("amplification_factor", False, "amplification_factor must be a number: False"),
        ("amplification_factor", -1.5, "amplification_factor must be positive: -1.5"),
        ("amplification_factor", 10**400, "amplification_factor must be finite: 1" + "0" * 400),
        ("amplifier_count", True, "amplifier_count must be a positive integer: True"),
        ("amplifier_count", 2.0, "amplifier_count must be a positive integer: 2.0"),
        ("amplifier_count", "5", "amplifier_count must be a positive integer: 5"),
        ("amplifier_count", 0, "amplifier_count must be a positive integer: 0"),
        ("amplifier_count", 10**400, "amplifier_count is beyond the float range"),
        ("name", "\ud800", "name is not valid UTF-8"),
    ],
)
def test_load_profiles_rejects_each_bad_field(tmp_path, field, value, message):
    path = tmp_path / "profiles.jsonl"
    record = json.dumps({**_GOOD_PROFILE, field: value})
    if value in ("NaN", "Infinity"):  # JSON literals json.loads accepts
        record = record.replace(f'"{value}"', value)
    path.write_text(json.dumps(_GOOD_PROFILE) + "\n\n" + record + "\n")
    with pytest.raises(FormatError) as info:
        load_profiles(str(path))
    assert str(info.value) == f"line 3: {message}"


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("event", ("ts", "sensor", "src_ip", "src_port", "dst_ip", "dst_port")),
        ("baseline", ("start_ts", "end_ts", "protocols", "prefixes")),
        ("profile", tuple(_GOOD_PROFILE)),
    ],
)
def test_record_shape_errors_are_shared(tmp_path, kind, keys):
    # not an object, then the first missing key in key order, then the first
    # unexpected key in record order
    def parse(line):
        if kind == "event":
            return parse_event_line(line, 4)
        if kind == "baseline":
            return parse_baseline_line(line, 4)
        path = tmp_path / "profiles.jsonl"
        path.write_text("\n\n\n" + line + "\n")
        return load_profiles(str(path))

    for line, message in [
        ("[1, 2]", f"{kind} record must be a JSON object"),
        ('"text"', f"{kind} record must be a JSON object"),
        (json.dumps({"zz": 1, keys[-1]: 0}), f"missing key '{keys[0]}'"),
        (json.dumps({"zz": 1, "aa": 2, **{k: 0 for k in keys}}), "unexpected key 'zz'"),
    ]:
        with pytest.raises(FormatError) as info:
            parse(line)
        assert str(info.value) == f"line 4: {message}"


# -- load_trace against the line-by-line oracle ---------------------------------

_SENSORS = ("s1", "s02", "a\u2028b")  # U+2028 is a line break to str.splitlines
_ADDRESSES = ("10.0.0.1", "10.0.0.2", "192.0.2.1")
_PORTS = (0, 53, 123, 40000, 65535)
_GOOD = {
    "ts": st.one_of(
        st.integers(0, 5),
        st.sampled_from([0.0, 1.0, 2.5]),
        st.floats(0, 5),
        # ints past int64 and up to the float range, negative zero, the least subnormal
        st.sampled_from([2**63, 2**64 + 1, int(sys.float_info.max) + 1, -0.0, 5e-324]),
    ),
    "sensor": st.sampled_from(_SENSORS),
    "src_ip": st.sampled_from(_ADDRESSES),
    "src_port": st.sampled_from(_PORTS),
    "dst_ip": st.sampled_from(_ADDRESSES),
    "dst_port": st.sampled_from(_PORTS),
}
# wrong values for each field, one of every kind the format rejects
_BAD = {
    "ts": [-1, -0.5, "1", True, None, float("nan"), float("inf"), [1]],
    "sensor": ["", 5, None, ["s1"], {"s": 1}],
    "src_ip": ["bogus", "01.2.3.4", "1.2.3.256", "2001:db8::1", 7, None, ["10.0.0.1"]],
    "src_port": [-1, 65536, 1.5, "53", False, [53]],
    "dst_ip": ["1.2.3", "", 10, {"a": 1}],
    "dst_port": [70000, 2.0, True, None],
}
_records = st.fixed_dictionaries(_GOOD)


@st.composite
def _bad_lines(draw):
    kind = draw(st.sampled_from(["json", "keys", "fields", "fields", "fields"]))
    if kind == "json":
        return draw(st.sampled_from(["{", '{"ts": 1,', "[1, 2]", '"event"', "7", "null", "{}", TOO_DEEP]))
    record = draw(_records)
    if kind == "fields":
        for key in draw(st.lists(st.sampled_from(list(_BAD)), min_size=1, max_size=3, unique=True)):
            record[key] = draw(st.sampled_from(_BAD[key]))
    else:
        for key in draw(st.lists(st.sampled_from(list(_GOOD)), max_size=2, unique=True)):
            del record[key]
        if draw(st.booleans()):
            record["extra"] = 1
        if record.keys() == _GOOD.keys():
            del record["dst_port"]
    return json.dumps(record, ensure_ascii=False)


_lines = st.one_of(
    _records.map(lambda r: json.dumps(r, ensure_ascii=False)),
    # a duplicated key: the last value counts, so the bad first one does not
    _records.map(lambda r: '{"src_port": "53", ' + json.dumps(r, ensure_ascii=False)[1:]),
    st.sampled_from(["", "  ", "\f", "\t \f"]),  # blank: whitespace only
)


def _outcome(load, path):
    try:
        return [(e.ts, type(e.ts), e.sensor, e.src_ip, e.src_port, e.dst_ip, e.dst_port) for e in load(path)]
    except FormatError as exc:
        return f"FormatError: {exc}"


def _per_line_parser_ran(line, line_no):
    raise AssertionError(f"line {line_no} went to the per-line parser: {line!r}")


# a lone surrogate, which json.dumps writes as an escape: only ASCII-only lines can hold one
@pytest.mark.parametrize("key,value", [(key, value) for key in _BAD for value in _BAD[key]]
                         + [("sensor", "\ud800"), ("sensor", "s\udfff1")])
def test_each_bad_field_fails_like_the_oracle(tmp_path, key, value):
    record = {"ts": 1.0, "sensor": "s1", "src_ip": "10.0.0.1", "src_port": 53,
              "dst_ip": "10.0.0.2", "dst_port": 123}
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, key: value}) + "\n")
    expected = _outcome(oracle_load_trace, str(path))
    assert expected.startswith(f"FormatError: line 2: {key}")
    assert _outcome(load_trace, str(path)) == expected


@settings(deadline=None, max_examples=300)
@given(
    lines=st.lists(_lines, max_size=30),
    bad=st.lists(st.tuples(st.integers(0, 30), _bad_lines()), max_size=3),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
)
def test_load_trace_equals_line_by_line_oracle(lines, bad, newline, final_newline):
    for position, line in bad:
        lines.insert(min(position, len(lines)), line)
    text = newline.join(lines) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "events.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        expected = _outcome(oracle_load_trace, path)
        with pytest.MonkeyPatch.context() as patch:
            if not bad:  # a good file never leaves the chunked reader
                patch.setattr(events_module, "parse_event_line", _per_line_parser_ran)
            assert _outcome(load_trace, path) == expected
        if bad:
            assert expected.startswith("FormatError: line ")


# -- load_trace's fast path against the oracle ------------------------------------
#
# The fast path decodes a chunk of lines with one json.loads; lines that do
# not hold one JSON value each must send it to the per-line parser, so the
# first bad line fails as the oracle says.

def _loaded_like_oracle(text: str, chunk_lines: int):
    """``load_trace`` and the oracle on ``text`` read with ``chunk_lines`` lines per chunk."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "events.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_module, "_CHUNK_LINES", chunk_lines)
            return _outcome(load_trace, path), _outcome(oracle_load_trace, path)


@st.composite
def _misplaced_lines(draw):
    """Good records, some two to a line and some spread over several lines."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        text = json.dumps(draw(_records), ensure_ascii=False)
        shape = draw(st.sampled_from(["line", "line", "two on one line", "spread"]))
        if shape == "two on one line":
            other = json.dumps(draw(_records), ensure_ascii=False)
            lines.append(text + draw(st.sampled_from(["", " ", ", ", ",", "  ,  "])) + other)
        elif shape == "spread":
            cuts = sorted(draw(st.sets(st.integers(1, len(text) - 1), min_size=1, max_size=3)))
            lines += [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        else:
            lines.append(text)
    return lines


@settings(deadline=None, max_examples=300)
@given(lines=_misplaced_lines(), chunk_lines=st.sampled_from([1, 2, 3, 1024]))
def test_lines_not_holding_one_object_each_fail_like_the_oracle(lines, chunk_lines):
    engine, oracle = _loaded_like_oracle("\n".join(lines) + "\n", chunk_lines)
    assert engine == oracle


_GOOD_LINE = json.dumps({"ts": 1.0, "sensor": "s1", "src_ip": "10.0.0.1", "src_port": 53,
                         "dst_ip": "10.0.0.2", "dst_port": 123})
_MEMBER = _GOOD_LINE.index(', "src_ip"')  # between two members
_IN_STRING = _GOOD_LINE.index('"s1"') + 2  # between the s and the 1 of the sensor


@pytest.mark.parametrize(
    "lines",
    [
        # two objects on line 1 and one object over lines 2-3 without the
        # comma between its members: comma-joined lines would hold three
        # good objects
        [_GOOD_LINE + ", " + _GOOD_LINE, _GOOD_LINE[:_MEMBER], _GOOD_LINE[_MEMBER + 2:]],
        # the same rows as the wrapped chunk would see them, split inside a
        # string: only the raw newline in the separator keeps them apart
        [_GOOD_LINE + "],[" + _GOOD_LINE, _GOOD_LINE[:_IN_STRING], _GOOD_LINE[_IN_STRING:]],
        # one line that closes its own row and opens another
        [_GOOD_LINE + "],[" + _GOOD_LINE],
        [_GOOD_LINE, _GOOD_LINE[:-1], "}"],
        [_GOOD_LINE + _GOOD_LINE],
    ],
)
def test_line_count_compensation_still_fails_like_the_oracle(lines):
    for chunk_lines in (1, 2, 1024):
        engine, oracle = _loaded_like_oracle("\n".join(lines) + "\n", chunk_lines)
        assert engine == oracle
        assert oracle.startswith("FormatError: line ")


@pytest.mark.parametrize("bad_at", [1, 4, 5, 11, 23])
def test_bad_line_past_the_first_chunk_fails_like_the_oracle(bad_at):
    rng = random.Random(bad_at)
    lines = [json.dumps({"ts": rng.uniform(0, 9), "sensor": rng.choice(_SENSORS), "src_ip": rng.choice(_ADDRESSES),
                         "src_port": rng.choice(_PORTS), "dst_ip": rng.choice(_ADDRESSES),
                         "dst_port": rng.choice(_PORTS)}) for _ in range(24)]
    good, _ = _loaded_like_oracle("\n".join(lines), 4)
    assert len(good) == 24
    lines[bad_at - 1] = lines[bad_at - 1].replace('"src_port": ', '"src_port": 7000')  # over 65535
    engine, oracle = _loaded_like_oracle("\n".join(lines), 4)
    assert engine == oracle
    assert oracle.startswith(f"FormatError: line {bad_at}: src_port out of range")


def test_load_trace_memory_per_event_is_bounded(tmp_path):
    # seeded 10^5 events over 20 sensors and 2000 sources: the columns hold
    # 28 bytes per event; the per-event objects of a list took ~140
    rng = random.Random(5)
    sensors = [(f"s{i:02d}", f"192.0.2.{i + 1}") for i in range(20)]
    sources = [f"100.{64 + i // 250}.{i % 250}.{1 + i % 7}" for i in range(2000)]
    n = 100_000
    path = tmp_path / "events.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(n):
            sensor, address = rng.choice(sensors)
            handle.write(json.dumps({"ts": rng.uniform(0, 1e5), "sensor": sensor, "src_ip": rng.choice(sources),
                                     "src_port": rng.randrange(65536), "dst_ip": address,
                                     "dst_port": rng.choice((53, 123))}) + "\n")
    tracemalloc.start()
    try:
        trace = load_trace(str(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert retained / n <= 40, f"{retained / n:.1f} bytes per event kept"
    assert peak / n <= 90, f"{peak / n:.1f} bytes per event at the peak"
