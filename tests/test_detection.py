import gc
import json
import math
import os
import random
import tempfile
import time
import weakref
from dataclasses import replace
from functools import lru_cache
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_trace, oracle_attack_event, oracle_detect, oracle_detect_carpet_bombing
from honeyflow import PacketEvent, trace_sort_key
from honeyflow.completeness import classify_sources
from honeyflow.detection import (
    COMPARE_AT_LEAST,
    COMPARE_MORE_THAN,
    GRANULARITY_ADDRESS,
    GRANULARITY_PREFIX,
    PRESETS,
    AttackEvent,
    AttackThresholds,
    ConfigurationError,
    DetectionPreset,
    Victim,
    detect,
    detect_attacks,
    detect_carpet_bombing,
    permissive_thresholds,
    victims,
    write_attack_report,
)
from honeyflow.events import ScannerList, int_to_ipv4, ipv4_to_int, load_trace, write_trace
from honeyflow.flows import PER_PLATFORM, PER_SENSOR, Flow, FlowKey, FlowScheme, assemble
from honeyflow import trace as trace_module
from honeyflow.trace import Trace
from honeyflow.synth import AttackSpec, ScenarioSpec, synth


def burst(src, n, *, t0=0.0, dt=1.0, sensor="s1", dst="192.0.2.1", sport=50000, dport=123):
    return [
        PacketEvent(t0 + i * dt, sensor, src, sport, dst, dport) for i in range(n)
    ]


def detect_burst(events, preset_name):
    preset = PRESETS[preset_name]
    events = sorted(events, key=trace_sort_key)
    return detect_attacks(events, preset)


def test_threshold_validation():
    for kwargs in (
        dict(idle_timeout=0.0, min_packets=5),
        dict(idle_timeout=-1.0, min_packets=5),
        dict(idle_timeout=60.0, min_packets=0),
        dict(idle_timeout=60.0, min_packets=5, min_dst_ports=0),
        dict(idle_timeout=60.0, min_packets=5, min_sensors=0),
        dict(idle_timeout=60.0, min_packets=5, comparison="=="),
    ):
        with pytest.raises(ValueError):
            AttackThresholds(name="bad", **kwargs)
    with pytest.raises(ValueError, match="^idle_timeout must be finite: inf$"):
        AttackThresholds(name="bad", idle_timeout=float("inf"), min_packets=5)


def test_load_comparison_boundaries():
    at_least = AttackThresholds(name="a", idle_timeout=60.0, min_packets=5)
    assert at_least.passes_load(5) and at_least.passes_load(6)
    assert not at_least.passes_load(4)

    more_than = AttackThresholds(
        name="m", idle_timeout=60.0, min_packets=20, comparison=COMPARE_MORE_THAN
    )
    assert not more_than.passes_load(20)
    assert more_than.passes_load(21)


def test_permissive_thresholds():
    t = permissive_thresholds(600.0)
    assert t.min_packets == 1 and t.idle_timeout == 600.0
    assert t.passes_load(1)


def test_preset_table():
    assert set(PRESETS) == {"amppot", "amppotmod", "ccc", "newkid-mono", "newkid-multi", "hpi"}

    p = PRESETS["amppot"]
    assert p.scheme.scope == PER_PLATFORM
    assert p.scheme.use_src_addr and p.scheme.use_dst_port and not p.scheme.use_dst_addr
    assert (p.thresholds.idle_timeout, p.thresholds.min_packets) == (3600.0, 100)
    assert p.thresholds.comparison == COMPARE_AT_LEAST

    p = PRESETS["amppotmod"]
    assert p.scheme == PRESETS["amppot"].scheme
    assert (p.thresholds.idle_timeout, p.thresholds.min_packets) == (600.0, 100)

    p = PRESETS["ccc"]
    assert p.scheme.scope == PER_SENSOR
    assert p.scheme.use_src_addr and p.scheme.use_dst_addr and p.scheme.use_dst_port
    assert (p.thresholds.idle_timeout, p.thresholds.min_packets) == (900.0, 5)

    p = PRESETS["newkid-mono"]
    assert p.scheme.scope == PER_PLATFORM
    assert p.scheme.use_src_prefix and p.scheme.src_prefix_len == 24
    assert p.scheme.use_dst_addr and p.scheme.use_dst_port
    assert (p.thresholds.idle_timeout, p.thresholds.min_packets) == (60.0, 5)

    p = PRESETS["newkid-multi"]
    assert p.scheme.use_src_prefix and not p.scheme.use_dst_port
    assert p.thresholds.min_dst_ports == 2
    assert (p.thresholds.idle_timeout, p.thresholds.min_packets) == (60.0, 5)

    p = PRESETS["hpi"]
    assert p.scheme == PRESETS["ccc"].scheme
    assert (p.thresholds.idle_timeout, p.thresholds.min_packets) == (60.0, 20)
    assert p.thresholds.comparison == COMPARE_MORE_THAN
    assert p.thresholds.min_sensors == 2


def test_detect_load_boundary_per_preset():
    # ccc needs >= 5 packets per (sensor, src, dst, port) flow
    assert len(detect_burst(burst("203.0.113.9", 5), "ccc")) == 1
    assert detect_burst(burst("203.0.113.9", 4), "ccc") == []
    # amppot needs >= 100 across the platform
    spread = burst("203.0.113.9", 50, sensor="s1") + burst(
        "203.0.113.9", 50, sensor="s2", t0=0.5
    )
    assert len(detect_burst(spread, "amppot")) == 1
    assert detect_burst(spread[:-1], "amppot") == []


def test_victim_granularity_follows_scheme():
    events = burst("203.0.113.9", 100)
    (addr_event,) = detect_burst(events, "amppot")
    assert addr_event.victim == Victim("203.0.113.9", GRANULARITY_ADDRESS)

    (prefix_event,) = detect_burst(burst("203.0.113.9", 5), "newkid-mono")
    assert prefix_event.victim == Victim("203.0.113.0/24", GRANULARITY_PREFIX)


def test_port_condition_needs_portless_key():
    flows = assemble(burst("203.0.113.9", 10), PRESETS["ccc"].scheme, 900.0)
    multi = AttackThresholds(name="x", idle_timeout=900.0, min_packets=5, min_dst_ports=2)
    with pytest.raises(ConfigurationError):
        detect(flows, multi)


def test_newkid_multi_port_condition():
    single_port = burst("203.0.113.9", 10)
    assert detect_burst(single_port, "newkid-multi") == []

    two_ports = burst("203.0.113.9", 5, dport=123) + burst(
        "203.0.113.9", 5, dport=53, t0=0.25
    )
    (event,) = detect_burst(two_ports, "newkid-multi")
    assert event.dst_ports == frozenset({53, 123})
    assert event.total_packets == 10


def test_hpi_needs_two_sensors():
    heavy = burst("203.0.113.9", 25)
    assert detect_burst(heavy, "hpi") == []

    both = burst("203.0.113.9", 25, sensor="s1") + burst(
        "203.0.113.9", 25, sensor="s2", t0=0.5
    )
    (event,) = detect_burst(both, "hpi")
    assert event.sensors == frozenset({"s1", "s2"})
    assert len(event.flows) == 2


def test_hpi_packet_condition_is_per_flow():
    # 21 + 20 packets: the second flow misses "> 20" so no two-sensor cluster forms
    uneven = burst("203.0.113.9", 21, sensor="s1") + burst(
        "203.0.113.9", 20, sensor="s2", t0=0.5
    )
    assert detect_burst(uneven, "hpi") == []


def test_cluster_window_shrinks_to_earliest_end():
    # A covers [0,100], B [50,150], C [120,200]: C starts after A ends, so the
    # overlap window closes at 100 and C opens a new (single-sensor) cluster.
    def span(sensor, t0, t1):
        return burst("203.0.113.9", 25, t0=t0, dt=(t1 - t0) / 24, sensor=sensor)

    events = span("s1", 0.0, 100.0) + span("s2", 50.0, 150.0) + span("s3", 120.0, 200.0)
    (event,) = detect_burst(events, "hpi")
    assert event.sensors == frozenset({"s1", "s2"})


def test_cluster_takes_a_flow_starting_at_the_window_end():
    # A covers [0,100], B [100,200]: touching flows overlap, so they cluster
    events = burst("203.0.113.9", 26, dt=4.0, sensor="s1") + burst(
        "203.0.113.9", 26, t0=100.0, dt=4.0, sensor="s2"
    )
    (event,) = detect_burst(events, "hpi")
    assert event.sensors == frozenset({"s1", "s2"})
    assert (event.first_ts, event.last_ts) == (0.0, 200.0)


def test_cluster_respects_key_modulo_sensor():
    # same source, different dst ports: separate cluster groups, each one sensor
    events = burst("203.0.113.9", 25, sensor="s1", dport=123) + burst(
        "203.0.113.9", 25, sensor="s2", dport=53, t0=0.5
    )
    assert detect_burst(events, "hpi") == []


def test_min_sensors_on_platform_flows():
    scheme = FlowScheme(scope=PER_PLATFORM, use_dst_port=True)
    events = sorted(
        burst("203.0.113.9", 3, sensor="s1") + burst("203.0.113.9", 3, sensor="s2", t0=0.5),
        key=trace_sort_key,
    )
    flows = assemble(events, scheme, 60.0)
    assert len(flows) == 1
    two = AttackThresholds(name="x", idle_timeout=60.0, min_packets=1, min_sensors=2)
    (event,) = detect(flows, two)
    assert event.sensors == frozenset({"s1", "s2"})
    three = AttackThresholds(name="x", idle_timeout=60.0, min_packets=1, min_sensors=3)
    assert detect(flows, three) == []


def test_shorter_timeout_can_lose_attacks():
    # 3 bursts of 40, 1200 s apart: one 120-packet amppot flow, but with the
    # 600 s timeout each burst stands alone below the 100-packet bar
    events = []
    for k in range(3):
        events += burst("203.0.113.9", 40, t0=1200.0 * k, dt=0.1)
    assert len(detect_burst(events, "amppot")) == 1
    assert detect_burst(events, "amppotmod") == []


def test_victims_deduplicates():
    events = burst("203.0.113.9", 5, dport=123) + burst("203.0.113.9", 5, dport=53, t0=0.2)
    attacks = detect_burst(events, "ccc")
    assert len(attacks) == 2
    assert victims(attacks) == {Victim("203.0.113.9", GRANULARITY_ADDRESS)}


def test_events_share_equal_victims_and_sets():
    # one event per flow must not hold one copy of each victim and set per event
    events = burst("203.0.113.9", 5, dport=123) + burst("203.0.113.9", 5, dport=123, t0=0.2, sensor="s2")
    first, second = detect_burst(events, "ccc")
    assert first.sensors != second.sensors
    assert first.victim is second.victim
    assert first.dst_ports is second.dst_ports


def test_sharing_lasts_one_call():
    # within one result equal sets are one object and each victim one Victim; after it, nothing is kept
    corpus = synth(ScenarioSpec(seed=5, sensors=6, duration_s=900.0, attacks=tuple(
        AttackSpec(victim=f"203.0.113.{i % 3}", dst_port=(53, 123)[i % 2], start=100.0 * i, stop=100.0 * i + 80.0,
                   sensors=(i % 6, (i + 1) % 6))
        for i in range(8)
    )))
    attacks = detect_attacks(corpus.events, PRESETS["ccc"])
    for field in ("victim", "sensors", "dst_ports"):
        values = [getattr(attack, field) for attack in attacks]
        assert len({id(value) for value in values}) == len(set(values)) < len(values), field
    again = detect_attacks(corpus.events, PRESETS["ccc"])
    assert again == attacks and again[0].victim is not attacks[0].victim
    victim = weakref.ref(attacks[0].victim)
    del attacks, again
    gc.collect()
    assert victim() is None


def test_events_ordered_and_empty_input():
    assert detect([], PRESETS["ccc"].thresholds) == []
    events = burst("203.0.113.9", 5, t0=10.0) + burst("198.51.100.3", 5, t0=0.0)
    attacks = detect_burst(events, "ccc")
    assert [a.victim.identity for a in attacks] == ["198.51.100.3", "203.0.113.9"]


# every preset, and a dst-port-keyed scheme with a port condition no flow of it can meet
_JUDGED = {**PRESETS, "ccc-ports": DetectionPreset(
    "ccc-ports", PRESETS["ccc"].scheme, replace(PRESETS["ccc"].thresholds, min_dst_ports=2))}


@pytest.mark.parametrize("name", sorted(_JUDGED))
def test_a_configuration_is_judged_only_against_flows(name):
    # no flows, no judgement: an empty trace gives empty results under every configuration,
    # while one packet is a flow, and a configuration that no flow can meet is rejected
    preset = _JUDGED[name]
    listed = ScannerList(frozenset({"203.0.113.9"}))
    for empty in ([], Trace.from_events([])):
        assert detect_attacks(empty, preset) == []
        assert detect(assemble(empty, preset.scheme, preset.thresholds.idle_timeout), preset.thresholds) == []
        classes = classify_sources(listed, empty, preset.scheme, preset.thresholds)
        assert classes.classes == {"203.0.113.9": "unseen"} and classes.attack_events == {"203.0.113.9": 0}
    one = burst("203.0.113.9", 1)
    flows = assemble(one, preset.scheme, preset.thresholds.idle_timeout)
    calls = [lambda: detect_attacks(one, preset), lambda: detect(flows, preset.thresholds),
             lambda: classify_sources(listed, one, preset.scheme, preset.thresholds).classes]
    if name == "ccc-ports":
        for call in calls:
            with pytest.raises(ConfigurationError, match="min_dst_ports=2 cannot be met"):
                call()
    else:  # one packet is no attack under any preset
        assert [call() for call in calls] == [[], [], {"203.0.113.9": "scan-only"}]


@pytest.mark.parametrize("prefix_len, min_flows, window_s", [(24, 16, 900.0), (0, 1, None), (32, 1, math.inf)])
def test_carpets_of_no_attacks_are_none(prefix_len, min_flows, window_s):
    assert detect_carpet_bombing([], prefix_len, min_flows, window_s) == []


def test_scan_traffic_stays_below_every_preset():
    # one probe per sensor on four ports across 50 sensors: invisible everywhere
    events = []
    for i in range(50):
        for j, port in enumerate((53, 123, 389, 1900)):
            events.append(
                PacketEvent(float(i * 4 + j), f"s{i:02d}", "198.51.100.77", 44444,
                            f"192.0.2.{i + 1}", port)
            )
    for name in PRESETS:
        assert detect_burst(events, name) == [], name


def carpet_flows(n_flows, *, spacing=5.0, prefix="203.0.113", packets=20):
    events = []
    for f in range(n_flows):
        dst_victim = f"{prefix}.{f + 1}"
        events += burst(dst_victim, packets, t0=f * spacing, dt=0.01,
                        sensor=f"s{f % 4}", dst="192.0.2.1")
    return sorted(events, key=trace_sort_key)


def test_carpet_bombing_threshold():
    attacks16 = detect_burst(carpet_flows(16), "ccc")
    (carpet,) = detect_carpet_bombing(attacks16)
    assert carpet.victim == Victim("203.0.113.0/24", GRANULARITY_PREFIX)
    assert len(carpet.flows) == 16

    attacks15 = detect_burst(carpet_flows(15), "ccc")
    assert detect_carpet_bombing(attacks15) == []


def test_carpet_window_constraint():
    # 16 flows spread 100 s apart: a 900 s window catches only 10 of them
    attacks = detect_burst(carpet_flows(16, spacing=100.0), "ccc")
    assert detect_carpet_bombing(attacks, window_s=900.0) == []
    (carpet,) = detect_carpet_bombing(attacks, window_s=None)
    assert len(carpet.flows) == 16
    (carpet,) = detect_carpet_bombing(attacks, window_s=1600.0)
    assert len(carpet.flows) == 16


def test_carpet_separates_prefixes():
    events = carpet_flows(10, prefix="203.0.113") + carpet_flows(10, prefix="203.0.114")
    attacks = detect_burst(sorted(events, key=trace_sort_key), "ccc")
    assert detect_carpet_bombing(attacks, min_flows=16) == []
    carpets = detect_carpet_bombing(attacks, min_flows=10)
    assert [c.victim.identity for c in carpets] == ["203.0.113.0/24", "203.0.114.0/24"]


def test_carpet_ignores_prefix_granularity_input():
    attacks = detect_burst(carpet_flows(16), "newkid-mono")
    assert all(a.victim.granularity == GRANULARITY_PREFIX for a in attacks)
    assert detect_carpet_bombing(attacks) == []


def test_carpet_parameter_validation():
    with pytest.raises(ValueError):
        detect_carpet_bombing([], prefix_len=33)
    with pytest.raises(ValueError):
        detect_carpet_bombing([], min_flows=0)
    with pytest.raises(ValueError):
        detect_carpet_bombing([], window_s=0.0)


_CARPET_VICTIMS = ("203.0.113.1", "203.0.113.2", "203.0.113.77", "203.0.114.1", "203.0.113.0/24")


@st.composite
def _carpet_attacks(draw):
    """Flows on an integer grid: equal first_ts, flows ending exactly at an
    anchor and flows starting exactly at anchor + window_s all occur."""
    attacks = []
    for a in range(draw(st.integers(0, 10))):
        identity = draw(st.sampled_from(_CARPET_VICTIMS))
        flows = []
        for f in range(draw(st.integers(1, 3))):
            first = draw(st.integers(0, 12))
            span = draw(st.integers(0, 4))
            sensor = f"s{a}.{f}"
            key = FlowKey(sensor, "198.51.100.7", identity, None, 123)
            stamps = sorted({first, first + span})
            flows.append(Flow(key, tuple(
                PacketEvent(float(t), sensor, "198.51.100.7", 50000, identity.partition("/")[0], 123)
                for t in stamps
            )))
        granularity = GRANULARITY_PREFIX if "/" in identity else GRANULARITY_ADDRESS
        attacks.append(oracle_attack_event(Victim(identity, granularity), flows))
    return attacks


@lru_cache(maxsize=None)
def _random_trace(seed: int, loaded: bool) -> list[PacketEvent] | Trace:
    """A seeded random trace, given as a list or loaded from JSONL."""
    events = make_random_trace(random.Random(seed), 2000, n_sources=30, duration=3000.0)
    if loaded:
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "events.jsonl")
            write_trace(events, path)
            events = load_trace(path)
    return events


@lru_cache(maxsize=None)
def _random_trace_attacks(seed: int, loaded: bool) -> list[AttackEvent]:
    """ccc attacks over a seeded random trace, given as a list or loaded from JSONL.

    Their flows hold rows of one trace, as the flows of ``honeyflow detect``
    do; a loaded trace builds each event only when it is read.
    """
    return detect_attacks(_random_trace(seed, loaded), PRESETS["ccc"])


_AMPPOT_3 = DetectionPreset(
    "amppot-3", PRESETS["amppot"].scheme, replace(PRESETS["amppot"].thresholds, name="amppot-3", min_packets=3)
)


@lru_cache(maxsize=None)
def _mixed_scheme_attacks(seed: int, loaded: bool) -> list[AttackEvent]:
    """The ccc attacks of :func:`_random_trace_attacks`, then those of an amppot-scheme preset over the same
    trace, whose flow keys fix no sensor."""
    return _random_trace_attacks(seed, loaded) + detect_attacks(_random_trace(seed, loaded), _AMPPOT_3)


@settings(max_examples=400, deadline=None)
@given(
    attacks=st.one_of(
        _carpet_attacks(),
        st.builds(_random_trace_attacks, st.integers(0, 3), st.booleans()),
        st.builds(_mixed_scheme_attacks, st.integers(0, 3), st.booleans()),
    ),
    prefix_len=st.sampled_from((24, 30, 0)),
    min_flows=st.integers(1, 6),
    window_s=st.sampled_from((None, math.inf, 0.5, 1.0, 2.0, 3.0, 60.0, 900.0)),
)
def test_carpet_bombing_equals_rescan_oracle(attacks, prefix_len, min_flows, window_s):
    assert detect_carpet_bombing(attacks, prefix_len, min_flows, window_s) == oracle_detect_carpet_bombing(
        attacks, prefix_len, min_flows, window_s
    )


def test_carpets_over_trace_rows_build_no_packet_events(monkeypatch):
    attacks = _random_trace_attacks(0, True)
    built = []
    event = trace_module._event
    monkeypatch.setattr(trace_module, "_event", lambda *fields: built.append(fields) or event(*fields))
    carpets = detect_carpet_bombing(attacks, 24, 4, 60.0)
    assert built == []
    monkeypatch.undo()
    assert len(carpets) > 2
    assert carpets == oracle_detect_carpet_bombing(attacks, 24, 4, 60.0)


def test_detect_attacks_on_synthetic_scenario():
    spec = ScenarioSpec(
        seed=11,
        sensors=6,
        duration_s=600.0,
        attacks=(
            AttackSpec(victim="203.0.113.50", dst_port=123, start=0.0, stop=300.0, rate_pps=1.0),
        ),
        noise_packets=200,
    )
    corpus = synth(spec)
    found = victims(detect_attacks(corpus.events, PRESETS["ccc"]))
    assert Victim("203.0.113.50", GRANULARITY_ADDRESS) in found


def test_cluster_flows_keep_key_order_at_equal_first_ts():
    # two sensors' flows of one hpi cluster start together; handed in
    # reverse key order, the event still lists them by (first_ts, key)
    events = sorted(burst("198.51.100.7", 25, sensor="s1") + burst("198.51.100.7", 25, sensor="s2"),
                    key=trace_sort_key)
    hpi = PRESETS["hpi"]
    flows = assemble(events, hpi.scheme, hpi.thresholds.idle_timeout)
    assert [f.key.sensor for f in flows] == ["s1", "s2"]
    for order in (flows, flows[::-1]):
        (event,) = detect(order, hpi.thresholds)
        assert [f.key.sensor for f in event.flows] == ["s1", "s2"]


def test_detect_reads_flows_of_several_traces_and_hand_built_ones():
    ccc = PRESETS["ccc"]
    one, other = (make_random_trace(random.Random(seed), 600, n_sources=6, duration=900.0) for seed in (1, 2))
    flows = assemble(one, ccc.scheme, 900.0) + assemble(other, ccc.scheme, 900.0)
    flows += [Flow(f.key, tuple(f.packets)) for f in assemble(other[:200], ccc.scheme, 900.0)]
    got = detect(flows, ccc.thresholds)
    assert got == oracle_detect(flows, ccc.thresholds)
    assert len(got) > 2
    # a copy cut at event 200 ties its original's sort key with fewer packets: tied events keep the flows' order
    assert detect(flows[::-1], ccc.thresholds) == oracle_detect(flows[::-1], ccc.thresholds)
    # flows of two schemes: the first flow's key decides clustering, each flow's own packets give its sets
    events = sorted((
        PacketEvent(f * 5.0 + k * 0.5, f"s{k % 3}", f"203.0.113.{f + 1}", 50000, f"192.0.2.{k % 3 + 1}", 123 + k % 2)
        for f in range(20) for k in range(30)
    ), key=trace_sort_key)
    first = assemble(events, ccc.scheme, 900.0)[:1]
    for scheme in (PRESETS["amppot"].scheme, FlowScheme(scope=PER_SENSOR, use_dst_port=False)):
        flows = first + assemble(events, scheme, 900.0)
        for min_sensors in (1, 2):
            thresholds = replace(ccc.thresholds, min_sensors=min_sensors)
            got = detect(flows, thresholds)
            assert got == oracle_detect(flows, thresholds)
            assert len(got) >= 20


def test_attack_report_format(tmp_path):
    attacks = detect_burst(burst("203.0.113.9", 100), "amppot")
    path = tmp_path / "attacks.jsonl"
    write_attack_report(attacks, "amppot", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row == {
        "victim": "203.0.113.9",
        "granularity": "address",
        "first_ts": 0.0,
        "last_ts": 99.0,
        "packets": 100,
        "sensors": ["s1"],
        "dst_ports": [123],
        "preset": "amppot",
    }


# -- scale: 10^6 events, planted attacks ----------------------------------------
#
# 20 sensors see a stream of one-packet background flows: a background key
# (sensor, source, port) recurs every 1000 s, longer than any idle timeout
# here, so no background flow reaches a load bar. Four kinds of victims, 1 s
# between packets, are planted across the same time range:
#   A  5-20 packets on one sensor:          ccc 1 attack, hpi none (not > 20)
#   B  21 packets on each of two sensors,
#      overlapping:                         ccc 2 attacks, hpi 1 (two sensors)
#   C  30 packets on one sensor:            ccc 1 attack, hpi none (one sensor)
#   D  21 packets on each of two sensors,
#      100 s apart:                         ccc 2 attacks, hpi none (no overlap)
# Each call must stay under a 30 s bound, far above the fraction of a second
# it takes.

_EVENTS_AT_SCALE = 1_000_000
_PLANTED = {"A": 2000, "B": 1000, "C": 1000, "D": 500}


def _planted_scale_trace() -> list[PacketEvent]:
    sensors = [(f"s{i:02d}", f"192.0.2.{i + 1}") for i in range(20)]
    events = []
    victim = 0
    for kind, count in _PLANTED.items():
        for k in range(count):
            src = int_to_ipv4(ipv4_to_int("100.64.0.0") + victim)
            t0 = 2.0 * victim
            a, b = sensors[victim % 20], sensors[(victim + 1) % 20]
            if kind == "A":
                runs = [(a, t0, 5 + k % 16)]
            elif kind == "B":
                runs = [(a, t0, 21), (b, t0 + 0.5, 21)]
            elif kind == "C":
                runs = [(a, t0, 30)]
            else:
                runs = [(a, t0, 21), (b, t0 + 100.0, 21)]
            for (sensor, addr), start, n in runs:
                events += [PacketEvent(start + i, sensor, src, 4444, addr, 123) for i in range(n)]
            victim += 1
    background = [int_to_ipv4(ipv4_to_int("45.0.0.0") + i) for i in range(5000)]
    events += [
        PacketEvent(0.01 * i, sensors[i % 20][0], background[(i // 20) % 5000], 50000, sensors[i % 20][1], 123)
        for i in range(_EVENTS_AT_SCALE - len(events))
    ]
    events.sort(key=attrgetter("ts"))
    return events


def test_detect_attacks_scale_planted_attacks():
    events = _planted_scale_trace()
    assert len(events) == _EVENTS_AT_SCALE
    n = _PLANTED
    expected = {
        "ccc": (n["A"] + 2 * n["B"] + n["C"] + 2 * n["D"], n["A"] + n["B"] + n["C"] + n["D"]),
        "hpi": (n["B"], n["B"]),
    }
    for name, (attacks, victim_count) in expected.items():
        start = time.perf_counter()
        found = detect_attacks(events, PRESETS[name])
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"{name}: detect_attacks took {elapsed:.1f} s"
        assert (len(found), len(victims(found))) == (attacks, victim_count), name
