import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_trace, oracle_match_baseline, oracle_overlap_report, oracle_upper_bound
from honeyflow import BaselineAttack, PacketEvent, ScannerList, trace_sort_key
from honeyflow.completeness import (
    CLASS_ATTACK,
    CLASS_SCAN_ONLY,
    CLASS_UNSEEN,
    classify_sources,
    match_baseline,
    overlap_report,
    report_to_dict,
    upper_bound,
    write_class_shares_csv,
    write_overlap_json,
    write_source_classes_csv,
    write_venn_csv,
)
from honeyflow.detection import (
    GRANULARITY_ADDRESS,
    GRANULARITY_PREFIX,
    PRESETS,
    AttackEvent,
    Victim,
    detect_attacks,
    detect_carpet_bombing,
)
from honeyflow.events import int_to_ipv4, ipv4_to_int, parse_baseline_line, prefix_net_mask, serialize_baseline
from honeyflow.synth import AttackSpec, ScanSpec, ScenarioSpec, synth


def burst(src, n, *, t0=0.0, dt=1.0, sensor="s1", dport=123):
    return [
        PacketEvent(t0 + i * dt, sensor, src, 50000, "192.0.2.1", dport) for i in range(n)
    ]


def ccc_attacks(events):
    return detect_attacks(sorted(events, key=trace_sort_key), PRESETS["ccc"])


def record(start, end, protocols, prefixes):
    return BaselineAttack(
        start_ts=start, end_ts=end,
        protocols=frozenset(protocols),
        prefixes=frozenset(prefixes),
    )


def test_match_requires_port_prefix_and_time():
    attacks = ccc_attacks(burst("203.0.113.9", 10, t0=100.0))
    hit = record(50.0, 200.0, {123}, {"203.0.113.0/24"})
    assert match_baseline(attacks, [hit]).matched_with_ports == 1

    wrong_port = record(50.0, 200.0, {53}, {"203.0.113.0/24"})
    wrong_prefix = record(50.0, 200.0, {123}, {"198.51.100.0/24"})
    too_early = record(0.0, 99.0, {123}, {"203.0.113.0/24"})
    for miss in (wrong_port, wrong_prefix, too_early):
        assert match_baseline(attacks, [miss]).matched_with_ports == 0


def test_match_window_is_closed_and_slack_widens():
    attacks = ccc_attacks(burst("203.0.113.9", 10, t0=100.0))  # spans [100, 109]
    touching = record(109.0, 300.0, {123}, {"203.0.113.0/24"})
    assert match_baseline(attacks, [touching]).matched_with_ports == 1

    near = record(119.0, 300.0, {123}, {"203.0.113.0/24"})
    assert match_baseline(attacks, [near]).matched_with_ports == 0
    assert match_baseline(attacks, [near], slack_s=10.0).matched_with_ports == 1
    for bad in (-1.0, math.nan):
        for fn, inputs in ((match_baseline, attacks), (upper_bound, [])):
            with pytest.raises(ValueError, match=f"^slack_s must be >= 0: {bad}$"):
                fn(inputs, [near], slack_s=bad)
    for fn, inputs in ((match_baseline, attacks), (upper_bound, [])):
        with pytest.raises(ValueError, match="^slack_s must be finite: inf$"):
            fn(inputs, [near], slack_s=math.inf)


def test_prefix_victims_match_by_containment():
    attacks = detect_attacks(burst("203.0.113.9", 10), PRESETS["newkid-mono"])
    assert attacks[0].victim.identity == "203.0.113.0/24"
    wider = record(0.0, 50.0, {123}, {"203.0.0.0/16"})
    assert match_baseline(attacks, [wider]).matched_with_ports == 1
    narrower = record(0.0, 50.0, {123}, {"203.0.113.0/25"})
    assert match_baseline(attacks, [narrower]).matched_with_ports == 0


def test_portless_records_tallied_separately():
    attacks = ccc_attacks(burst("203.0.113.9", 10))
    portless = record(0.0, 50.0, set(), {"203.0.113.0/24"})
    portful = record(0.0, 50.0, {123}, {"203.0.113.0/24"})
    report = match_baseline(attacks, [portless, portful])
    assert report.portless_total == 1 and report.portless_matched == 1
    assert report.baseline_with_ports == 1 and report.matched_with_ports == 1
    # the portless record appears nowhere in the per-protocol table or Venn
    assert report.venn.baseline_only == 0
    assert report.per_protocol[123].baseline_total == 1


def test_venn_units():
    # two honeypot victims, one confirmed; two baseline events, one matched
    events = burst("203.0.113.9", 10) + burst("198.51.100.3", 10, t0=0.25)
    attacks = ccc_attacks(events)
    baseline = [
        record(0.0, 50.0, {123}, {"203.0.113.0/24"}),
        record(500.0, 600.0, {123}, {"192.0.2.0/24"}),
    ]
    report = match_baseline(attacks, baseline)
    assert (report.venn.honeypot_only, report.venn.overlap, report.venn.baseline_only) == (1, 1, 1)


def test_per_protocol_rows_cover_both_sides():
    events = burst("203.0.113.9", 10, dport=123)
    attacks = ccc_attacks(events)
    baseline = [record(0.0, 50.0, {19}, {"10.0.0.0/8"})]  # port only baseline saw
    report = match_baseline(attacks, baseline)
    assert set(report.per_protocol) == {19, 123}
    assert report.per_protocol[19].baseline_total == 1
    assert report.per_protocol[19].honeypot_victims == 0
    assert report.per_protocol[123].baseline_total == 0
    assert report.per_protocol[123].honeypot_victims == 1
    assert report.per_protocol[123].honeypot_only == 1


def test_one_record_matched_on_multiple_ports_counts_once():
    events = burst("203.0.113.9", 10, dport=123) + burst("203.0.113.9", 10, dport=53, t0=0.25)
    attacks = ccc_attacks(events)
    both = record(0.0, 50.0, {53, 123}, {"203.0.113.0/24"})
    report = match_baseline(attacks, [both])
    assert report.matched_with_ports == 1
    assert report.per_protocol[53].matched_by_detector == 1
    assert report.per_protocol[123].matched_by_detector == 1


def test_upper_bound_sees_below_threshold_traffic():
    # 3 packets: invisible to every detector, visible to the packet-level bound
    events = sorted(burst("203.0.113.9", 3), key=trace_sort_key)
    baseline = [record(0.0, 50.0, {123}, {"203.0.113.0/24"})]
    assert match_baseline(ccc_attacks(events), baseline).matched_with_ports == 0
    fragment = upper_bound(events, baseline)
    assert fragment.covered_with_ports == 1
    assert fragment.per_protocol == {123: 1}


def test_upper_bound_checks_port_window_and_prefix():
    events = sorted(burst("203.0.113.9", 3, t0=100.0), key=trace_sort_key)
    cases = [
        (record(0.0, 99.0, {123}, {"203.0.113.0/24"}), 0),   # window ends early
        (record(0.0, 100.0, {123}, {"203.0.113.0/24"}), 1),  # closed boundary
        (record(100.0, 300.0, {53}, {"203.0.113.0/24"}), 0),  # wrong port
        (record(100.0, 300.0, {123}, {"10.0.0.0/8"}), 0),     # wrong prefix
    ]
    for rec, want in cases:
        assert upper_bound(events, rec and [rec]).covered_with_ports == want
    assert upper_bound(events, [record(0.0, 99.0, {123}, {"203.0.113.0/24"})],
                       slack_s=1.0).covered_with_ports == 1


def test_upper_bound_portless():
    events = sorted(burst("203.0.113.9", 2), key=trace_sort_key)
    fragment = upper_bound(events, [record(0.0, 50.0, set(), {"203.0.113.0/24"})])
    assert fragment.portless_covered == 1
    assert fragment.covered_with_ports == 0


def test_overlap_report_merges_both_directions():
    events = sorted(
        burst("203.0.113.9", 10) + burst("198.51.100.3", 3, t0=0.25), key=trace_sort_key
    )
    baseline = [
        record(0.0, 50.0, {123}, {"203.0.113.0/24"}),
        record(0.0, 50.0, {123}, {"198.51.100.0/24"}),
    ]
    report = overlap_report(ccc_attacks(events), events, baseline)
    assert report.matched_with_ports == 1   # the 3-packet source stays sub-threshold
    assert report.upper_with_ports == 2     # but its packets are on the wire
    assert report.detector_share == 0.5
    assert report.upper_share == 1.0
    assert report.per_protocol[123].matched_upper_bound == 2
    # here every confirmed record also holds a packet, so the bound is not below the count
    assert report.upper_with_ports >= report.matched_with_ports


def test_upper_bound_is_packet_level_not_a_bound_on_the_detector():
    # the attack spans [0, 100] and so meets the record's window [40, 60];
    # none of its packets falls inside that window
    events = [
        PacketEvent(ts, "s1", "203.0.113.9", 50000, "192.0.2.1", 123) for ts in (0.0, 1.0, 2.0, 3.0, 100.0)
    ]
    baseline = [record(40.0, 60.0, {123}, {"203.0.113.0/24"})]
    report = overlap_report(ccc_attacks(events), events, baseline)
    assert report.matched_with_ports == 1
    assert report.upper_with_ports == 0


def test_built_records_are_never_parsed_again(monkeypatch):
    # each prefix is parsed when its record is built; matching and serializing read the stored pairs
    import honeyflow.detection
    import honeyflow.events

    corpus = synth(ScenarioSpec(
        seed=3, sensors=4, duration_s=900.0, baseline_events=6, baseline_overlap=0.5,
        attacks=tuple(AttackSpec(victim=f"203.0.113.{i}", start=60.0 * i, stop=60.0 * i + 200.0) for i in range(1, 5)),
    ))
    attacks = ccc_attacks(corpus.events)
    assert attacks and {attack.victim.granularity for attack in attacks} == {GRANULARITY_ADDRESS}
    calls = []

    def counted(prefix):
        calls.append(prefix)
        return prefix_net_mask(prefix)

    monkeypatch.setattr(honeyflow.events, "prefix_net_mask", counted)
    monkeypatch.setattr(honeyflow.detection, "prefix_net_mask", counted)
    report = overlap_report(attacks, corpus.events, corpus.baseline, slack_s=30.0)
    lines = [serialize_baseline(record) for record in corpus.baseline]
    assert calls == []
    assert report.matched_with_ports == corpus.baseline_matched
    assert [parse_baseline_line(line) for line in lines] == corpus.baseline
    assert len(calls) == sum(len(record.prefixes) for record in corpus.baseline)


def test_victims_are_parsed_once_when_built(monkeypatch):
    # carpets and baseline matching read Victim.net and .mask; the only parses
    # are of the carpet victims they build, each once
    import honeyflow.completeness
    import honeyflow.detection

    corpus = synth(ScenarioSpec(
        seed=3, sensors=4, duration_s=900.0, baseline_events=6, baseline_overlap=0.5,
        attacks=tuple(AttackSpec(victim=f"203.0.113.{i}", start=60.0 * i, stop=60.0 * i + 200.0) for i in range(1, 5)),
    ))
    attacks = ccc_attacks(corpus.events) + detect_attacks(corpus.events, PRESETS["newkid-mono"])
    assert {attack.victim.granularity for attack in attacks} == {GRANULARITY_ADDRESS, GRANULARITY_PREFIX}
    calls = []

    def counted(parse):
        return lambda text: calls.append(text) or parse(text)

    monkeypatch.setattr(honeyflow.detection, "ipv4_to_int", counted(ipv4_to_int))
    monkeypatch.setattr(honeyflow.detection, "prefix_net_mask", counted(prefix_net_mask))
    monkeypatch.setattr(honeyflow.completeness, "ipv4_to_int", counted(ipv4_to_int))
    carpets = detect_carpet_bombing(attacks, 24, 2, None)
    assert carpets and calls == [carpet.victim.identity for carpet in carpets]
    calls.clear()
    report = match_baseline(attacks + carpets, corpus.baseline, slack_s=30.0)
    assert calls == []
    monkeypatch.undo()
    assert report_to_dict(report) == report_to_dict(
        oracle_match_baseline(attacks + carpets, corpus.baseline, slack_s=30.0)
    )


def test_a_victim_holds_its_network():
    address, prefix = Victim("203.0.113.9", GRANULARITY_ADDRESS), Victim("203.0.113.77/24", GRANULARITY_PREFIX)
    assert (address.net, address.mask) == (ipv4_to_int("203.0.113.9"), 0xFFFFFFFF)
    assert (prefix.net, prefix.mask) == (ipv4_to_int("203.0.113.0"), 0xFFFFFF00)
    assert repr(address) == "Victim(identity='203.0.113.9', granularity='address')"
    assert prefix == Victim("203.0.113.77/24", GRANULARITY_PREFIX) != Victim("203.0.113.0/24", GRANULARITY_PREFIX)
    assert hash(prefix) == hash(("203.0.113.77/24", GRANULARITY_PREFIX))
    for identity, granularity in [("203.0.113.256", GRANULARITY_ADDRESS), ("203.0.113.0/24", GRANULARITY_ADDRESS),
                                  ("203.0.113.0", GRANULARITY_PREFIX), ("203.0.113.0/33", GRANULARITY_PREFIX)]:
        with pytest.raises(ValueError):
            Victim(identity, granularity)


def test_empty_baseline_shares_are_zero():
    report = overlap_report([], [], [])
    assert report.detector_share == 0.0 and report.upper_share == 0.0


def test_report_serialization(tmp_path):
    events = sorted(burst("203.0.113.9", 10), key=trace_sort_key)
    baseline = [record(0.0, 50.0, {123}, {"203.0.113.0/24"})]
    report = overlap_report(ccc_attacks(events), events, baseline)

    data = report_to_dict(report)
    assert data["per_protocol"]["123"]["matched_by_detector"] == 1
    assert data["portless"] == {"total": 0, "matched_by_detector": 0, "matched_upper_bound": 0}

    json_path = tmp_path / "overlap.json"
    write_overlap_json(report, str(json_path))
    assert json.loads(json_path.read_text()) == data

    venn_path = tmp_path / "venn.csv"
    write_venn_csv(report, str(venn_path))
    lines = venn_path.read_text().splitlines()
    assert lines[0] == "set,count"
    assert lines[1:] == ["honeypot_only,0", "overlap,1", "baseline_only,0"]


def scanner_scenario():
    spec = ScenarioSpec(
        seed=21,
        sensors=5,
        duration_s=1200.0,
        attacks=(
            AttackSpec(victim="203.0.113.50", start=0.0, stop=600.0, rate_pps=0.5),
        ),
        scans=(ScanSpec(source="203.0.113.200", ports=(123, 53), start=0.0),),
    )
    return synth(spec)


def test_classify_sources_three_way():
    corpus = scanner_scenario()
    scanners = ScannerList(
        sources=frozenset({"203.0.113.200", "203.0.113.50", "192.88.99.1"})
    )
    preset = PRESETS["ccc"]
    result = classify_sources(scanners, corpus.events, preset.scheme, preset.thresholds)
    assert result.classes == {
        "203.0.113.200": CLASS_SCAN_ONLY,
        "203.0.113.50": CLASS_ATTACK,
        "192.88.99.1": CLASS_UNSEEN,
    }
    assert result.packets["192.88.99.1"] == 0
    assert result.packets["203.0.113.200"] == 10  # 5 sensors x 2 ports
    assert result.attack_events["203.0.113.50"] > 0
    assert result.counts == {CLASS_ATTACK: 1, CLASS_SCAN_ONLY: 1, CLASS_UNSEEN: 1}
    assert result.shares[CLASS_ATTACK] == pytest.approx(1 / 3)
    assert sum(result.shares.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["ccc", "hpi", "newkid-mono", "newkid-multi", "amppot"])
def test_classify_sources_counts_equal_the_attack_events(name):
    # per listed source: its packets, and the attack events holding one of
    # them, read from detect_attacks' events and their packet objects
    rng = random.Random(len(name))
    events = make_random_trace(rng, 4000, n_sources=8, duration=600.0)
    sources = sorted({e.src_ip for e in events})
    listed = ScannerList(frozenset(rng.sample(sources, 6) + ["192.88.99.1"]))
    preset = PRESETS[name]
    result = classify_sources(listed, events, preset.scheme, preset.thresholds)
    attacks = detect_attacks(events, preset)
    senders = [{p.src_ip for f in attack.flows for p in f.packets} for attack in attacks]
    assert result.packets == {s: sum(e.src_ip == s for e in events) for s in listed.sources}
    assert result.attack_events == {s: sum(s in group for group in senders) for s in listed.sources}
    assert any(result.attack_events.values())


def test_classify_sources_empty_list():
    corpus = scanner_scenario()
    preset = PRESETS["ccc"]
    result = classify_sources(
        ScannerList(sources=frozenset()), corpus.events, preset.scheme, preset.thresholds
    )
    assert result.counts == {CLASS_ATTACK: 0, CLASS_SCAN_ONLY: 0, CLASS_UNSEEN: 0}
    assert all(share == 0.0 for share in result.shares.values())


def test_source_csvs(tmp_path):
    corpus = scanner_scenario()
    scanners = ScannerList(sources=frozenset({"203.0.113.200", "192.88.99.1"}))
    preset = PRESETS["ccc"]
    result = classify_sources(scanners, corpus.events, preset.scheme, preset.thresholds)

    sources_path = tmp_path / "sources.csv"
    write_source_classes_csv(result, str(sources_path))
    lines = sources_path.read_text().splitlines()
    assert lines[0] == "source,class,packets,attack_events"
    # rows sorted by numeric address: 192.88.99.1 < 203.0.113.200
    assert lines[1].startswith("192.88.99.1,unseen,0,")
    assert lines[2].startswith("203.0.113.200,scan-only,10,")

    shares_path = tmp_path / "shares.csv"
    write_class_shares_csv(result, str(shares_path))
    lines = shares_path.read_text().splitlines()
    assert lines[0] == "class,count,share"
    assert lines[1] == "attack,0,0.0"
    assert lines[2] == "scan-only,1,0.5"
    assert lines[3] == "unseen,1,0.5"


# -- indexed matching against the nested-loop oracles --------------------------

# nested at /0, /8, /16, /24, /30 and /32; two /24s and two /16s side by side
_RECORD_PREFIXES = (
    "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16", "10.0.0.0/24",
    "10.0.1.0/24", "10.0.0.0/30", "10.0.0.1/32", "192.0.2.0/24",
)
_ADDRESSES = ("10.0.0.1", "10.0.0.2", "10.0.0.9", "10.0.1.1", "10.1.0.1", "192.0.2.7", "0.0.0.0")
# shorter and longer than the record prefixes they fall in
_VICTIM_PREFIXES = ("10.0.0.0/24", "10.0.0.0/16", "10.0.0.0/31", "10.0.1.0/28", "0.0.0.0/0")
_PORTS = (53, 123, 389)


def _span():
    """Closed spans on a half-second grid: windows touch, nest and shrink to points."""
    return st.tuples(st.integers(0, 16), st.integers(0, 6)).map(
        lambda t: (t[0] * 0.5, (t[0] + t[1]) * 0.5)
    )


@st.composite
def _attacks(draw):
    attacks = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            victim = Victim(draw(st.sampled_from(_ADDRESSES)), GRANULARITY_ADDRESS)
        else:
            victim = Victim(draw(st.sampled_from(_VICTIM_PREFIXES)), GRANULARITY_PREFIX)
        first, last = draw(_span())
        ports = draw(st.frozensets(st.sampled_from(_PORTS), min_size=1))
        attacks.append(AttackEvent(victim, (), first, last, 1, frozenset({"s1"}), ports))
    return attacks


@st.composite
def _baseline(draw):
    records = []
    for _ in range(draw(st.integers(0, 12))):
        start, end = draw(_span())
        protocols = draw(st.frozensets(st.sampled_from(_PORTS)))  # empty: portless
        prefixes = draw(st.frozensets(st.sampled_from(_RECORD_PREFIXES), min_size=1, max_size=2))
        records.append(BaselineAttack(start, end, protocols, prefixes))
    return records


@st.composite
def _packets(draw):
    rows = draw(st.lists(
        st.tuples(st.integers(0, 22), st.sampled_from(_ADDRESSES), st.sampled_from(_PORTS)),
        max_size=30,
    ))
    return [PacketEvent(tick * 0.5, "s1", src, 50000, "192.0.2.1", port) for tick, src, port in rows]


_SLACKS = st.sampled_from((0.0, 0.5, 1.25, 5.0))


@settings(max_examples=400, deadline=None)
@given(attacks=_attacks(), baseline=_baseline(), slack=_SLACKS)
def test_match_baseline_equals_oracle(attacks, baseline, slack):
    assert report_to_dict(match_baseline(attacks, baseline, slack_s=slack)) == report_to_dict(
        oracle_match_baseline(attacks, baseline, slack_s=slack)
    )


@settings(max_examples=400, deadline=None)
@given(events=_packets(), baseline=_baseline(), slack=_SLACKS)
def test_upper_bound_equals_oracle(events, baseline, slack):
    assert upper_bound(events, baseline, slack_s=slack) == oracle_upper_bound(
        events, baseline, slack_s=slack
    )


@settings(max_examples=200, deadline=None)
@given(attacks=_attacks(), events=_packets(), baseline=_baseline(), slack=_SLACKS)
def test_overlap_report_equals_oracle(attacks, events, baseline, slack):
    assert report_to_dict(overlap_report(attacks, events, baseline, slack_s=slack)) == report_to_dict(
        oracle_overlap_report(attacks, events, baseline, slack_s=slack)
    )


def _attack(victim, first, last, ports=(123,)):
    granularity = GRANULARITY_PREFIX if "/" in victim else GRANULARITY_ADDRESS
    return AttackEvent(Victim(victim, granularity), (), first, last, 1,
                       frozenset({"s1"}), frozenset(ports))


def test_one_attack_many_records_and_many_attacks_one_record():
    wide = _attack("10.0.0.1", 0.0, 100.0)
    records = [record(float(i), float(i), {123}, {"10.0.0.0/24", "10.0.0.0/16"}) for i in range(101)]
    report = match_baseline([wide], records)
    assert report.matched_with_ports == 101
    assert (report.venn.honeypot_only, report.venn.overlap, report.venn.baseline_only) == (0, 1, 0)
    assert report_to_dict(report) == report_to_dict(oracle_match_baseline([wide], records))

    narrow = [_attack(f"10.0.0.{i + 1}", float(i), float(i)) for i in range(101)]
    one = [record(0.0, 100.0, {123}, {"10.0.0.0/24"})]
    report = match_baseline(narrow, one)
    assert report.matched_with_ports == 1
    assert (report.venn.honeypot_only, report.venn.overlap, report.venn.baseline_only) == (0, 101, 0)
    assert report_to_dict(report) == report_to_dict(oracle_match_baseline(narrow, one))


# -- scale: 10^5 attacks (or packets) x 10^5 records ---------------------------
#
# Record i and attack (or packet) i share a window that no other index's
# window meets, so every match count follows from the pairing alone. Each
# call must stay under a bound about 30x what the indexed matcher takes.

_SCALE = 100_000
_SCALE_BOUND_S = 30.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    assert elapsed < _SCALE_BOUND_S, f"{fn.__name__} took {elapsed:.1f} s"
    return result


def test_match_baseline_scale_spread_over_random_prefixes():
    nets = random.Random(5).sample(range(1 << 24), _SCALE)  # distinct /24s
    records = [
        record(10.0 * i, 10.0 * i + 5.0, {123}, {f"{int_to_ipv4(net << 8)}/24"})
        for i, net in enumerate(nets)
    ]
    # even attacks hit their record's port, odd ones miss it
    attacks = [
        _attack(int_to_ipv4((net << 8) | 7), 10.0 * i + 1.0, 10.0 * i + 2.0, (123 if i % 2 == 0 else 53,))
        for i, net in enumerate(nets)
    ]
    report = _timed(match_baseline, attacks, records)
    half = _SCALE // 2
    assert report.matched_with_ports == half
    assert (report.venn.honeypot_only, report.venn.overlap, report.venn.baseline_only) == (half, half, half)
    assert report.per_protocol[123].matched_by_detector == half
    assert report.per_protocol[53].honeypot_only == half


def test_match_baseline_scale_one_prefix_consecutive_windows():
    records = [record(2.0 * i, 2.0 * i + 1.0, {123}, {"203.0.113.0/24"}) for i in range(_SCALE)]
    attacks = [
        _attack(f"203.0.113.{i % 254 + 1}", 2.0 * i + 0.25, 2.0 * i + 0.5) for i in range(_SCALE)
    ]
    report = _timed(match_baseline, attacks, records)
    assert report.matched_with_ports == _SCALE
    assert (report.venn.honeypot_only, report.venn.overlap, report.venn.baseline_only) == (0, 254, 0)


def test_upper_bound_scale():
    nets = random.Random(6).sample(range(1 << 24), _SCALE)
    records = [
        record(10.0 * i, 10.0 * i + 5.0, {123}, {f"{int_to_ipv4(net << 8)}/24"})
        for i, net in enumerate(nets)
    ]
    events = [
        PacketEvent(10.0 * i + 1.0, "s1", int_to_ipv4((net << 8) | 7), 50000, "192.0.2.1",
                    123 if i % 2 == 0 else 53)
        for i, net in enumerate(nets)
    ]
    fragment = _timed(upper_bound, events, records)
    assert fragment.covered_with_ports == _SCALE // 2
    assert fragment.per_protocol == {123: _SCALE // 2}
