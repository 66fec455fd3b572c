import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    flows_to_index_partition,
    make_random_trace,
    make_sensors,
    oracle_assemble,
    oracle_partition,
    oracle_schemes,
    outcome,
)
from honeyflow import PacketEvent
from honeyflow.flows import (
    Flow,
    PER_PLATFORM,
    PER_SENSOR,
    FlowKey,
    FlowScheme,
    UnsortedTraceError,
    assemble,
    flow_key,
)
from honeyflow.trace import Trace


def ev(ts, sensor="s1", src="198.51.100.7", sport=51515, dst="192.0.2.1", dport=123):
    return PacketEvent(ts, sensor, src, sport, dst, dport)


def test_scheme_validation():
    with pytest.raises(ValueError):
        FlowScheme(scope="global")
    with pytest.raises(ValueError):
        FlowScheme(use_src_addr=True, use_src_prefix=True)
    with pytest.raises(ValueError):
        FlowScheme(use_src_addr=False, use_src_prefix=False)
    with pytest.raises(ValueError):
        FlowScheme(use_src_addr=False, use_src_prefix=True, src_prefix_len=33)


def test_key_projections():
    event = ev(100.0)
    per_sensor = FlowScheme(scope=PER_SENSOR, use_dst_addr=True, use_dst_port=True)
    assert flow_key(event, per_sensor).projected() == ("s1", "198.51.100.7", "192.0.2.1", 123)

    platform = FlowScheme(scope=PER_PLATFORM, use_dst_port=True)
    assert flow_key(event, platform).projected() == ("198.51.100.7", 123)

    prefix = FlowScheme(
        scope=PER_PLATFORM, use_src_addr=False, use_src_prefix=True,
        src_prefix_len=24, use_dst_addr=True, use_dst_port=True,
    )
    assert flow_key(event, prefix).projected() == ("198.51.100.0/24", "192.0.2.1", 123)

    with_sport = FlowScheme(scope=PER_SENSOR, use_src_port=True, use_dst_port=False)
    assert flow_key(event, with_sport).projected() == ("s1", "198.51.100.7", 51515)


def test_prefix_lengths_share_keys():
    scheme = FlowScheme(
        scope=PER_PLATFORM, use_src_addr=False, use_src_prefix=True,
        src_prefix_len=24, use_dst_port=False,
    )
    a = flow_key(ev(0.0, src="10.1.2.3"), scheme)
    b = flow_key(ev(0.0, src="10.1.2.200"), scheme)
    c = flow_key(ev(0.0, src="10.1.3.3"), scheme)
    assert a == b != c
    assert a.src == "10.1.2.0/24"


def test_key_sort_handles_unselected_fields():
    keys = [
        FlowKey(None, "10.0.0.2", None, None, 123),
        FlowKey(None, "10.0.0.1", None, None, 123),
    ]
    assert sorted(keys, key=FlowKey.sort_key)[0].src == "10.0.0.1"


def test_assemble_gap_semantics():
    scheme = FlowScheme(scope=PER_SENSOR, use_dst_port=True)
    stream = [ev(0.0), ev(10.0), ev(20.5), ev(40.0)]
    flows = assemble(stream, scheme, 10.0)
    # equality keeps the flow alive; 10.5 and 19.5 gaps split
    assert [f.packet_count for f in flows] == [2, 1, 1]
    assert flows[0].first_ts == 0.0 and flows[0].last_ts == 10.0

    one_flow = assemble(stream, scheme, 20.0)
    assert [f.packet_count for f in one_flow] == [4]


def test_assemble_no_active_timeout():
    # a flow stays open as long as packets keep coming, however long it gets
    scheme = FlowScheme(scope=PER_SENSOR, use_dst_port=True)
    stream = [ev(float(t)) for t in range(0, 1000, 5)]
    flows = assemble(stream, scheme, 5.0)
    assert len(flows) == 1 and flows[0].packet_count == 200


def test_assemble_rejects_unsorted_and_bad_timeout():
    scheme = FlowScheme()
    with pytest.raises(UnsortedTraceError):
        assemble([ev(10.0), ev(5.0)], scheme, 60.0)
    with pytest.raises(ValueError):
        assemble([ev(0.0)], scheme, 0.0)
    assert assemble([], scheme, 60.0) == []


def test_assemble_splits_per_key_not_globally():
    scheme = FlowScheme(scope=PER_SENSOR, use_dst_port=True)
    stream = sorted(
        [ev(0.0, sensor="s1"), ev(0.0, sensor="s2"), ev(100.0, sensor="s1"), ev(101.0, sensor="s2")],
        key=lambda e: e.ts,
    )
    flows = assemble(stream, scheme, 60.0)
    assert len(flows) == 4  # each sensor's pair split by its own 100 s gap


def test_platform_scope_merges_sensors():
    per_sensor = FlowScheme(scope=PER_SENSOR, use_dst_port=True)
    platform = FlowScheme(scope=PER_PLATFORM, use_dst_port=True)
    stream = sorted(
        [ev(float(t), sensor=s, dst=d) for t, (s, d) in enumerate(
            [("s1", "192.0.2.1"), ("s2", "192.0.2.2")] * 3)],
        key=lambda e: e.ts,
    )
    assert len(assemble(stream, per_sensor, 60.0)) == 2
    merged = assemble(stream, platform, 60.0)
    assert len(merged) == 1
    assert merged[0].sensors == frozenset({"s1", "s2"})


def test_flow_derived_views():
    scheme = FlowScheme(scope=PER_PLATFORM, use_dst_port=False)
    stream = [
        ev(0.0, sensor="s1", dport=123),
        ev(1.0, sensor="s2", dport=53),
        ev(2.0, sensor="s1", dport=123),
    ]
    (flow,) = assemble(stream, scheme, 60.0)
    assert flow.packet_count == 3
    assert flow.first_ts == 0.0 and flow.last_ts == 2.0
    assert flow.sensors == frozenset({"s1", "s2"})
    assert flow.dst_ports == frozenset({53, 123})


def test_flow_span_of_a_trace_selection_and_of_a_list():
    events = make_random_trace(random.Random(8), 500)
    for flow in assemble(events, oracle_schemes()[0], 300.0):
        for packets in (flow.packets, list(flow.packets), tuple(flow.packets[::-1])[::-1]):
            same = Flow(flow.key, packets)
            assert (same.first_ts, same.last_ts) == (packets[0].ts, packets[-1].ts)
            assert type(same.first_ts) is float
    for empty in ([], Trace.from_events(events)[:0]):
        with pytest.raises(IndexError):
            Flow(flow.key, empty).first_ts
        with pytest.raises(IndexError):
            Flow(flow.key, empty).last_ts


def test_flows_come_back_ordered():
    rng = random.Random(5)
    events = make_random_trace(rng, 2000)
    for scheme in oracle_schemes():
        flows = assemble(events, scheme, 300.0)
        order = [(f.first_ts, f.key.sort_key()) for f in flows]
        assert order == sorted(order)


def test_partition_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(8):
        events = make_random_trace(rng, 400, n_sensors=3, n_sources=12, duration=5000.0)
        for scheme in oracle_schemes():
            for timeout in (60.0, 600.0, 3600.0):
                engine = flows_to_index_partition(assemble(events, scheme, timeout))
                assert engine == oracle_partition(events, scheme, timeout)


def test_partition_covers_every_event_exactly_once():
    rng = random.Random(7)
    events = make_random_trace(rng, 1500)
    for scheme in oracle_schemes():
        flows = assemble(events, scheme, 120.0)
        indices = sorted(i for f in flows for i in f.packets.rows.tolist())
        assert indices == list(range(len(events)))


# -- assemble against the stream-order oracle ----------------------------------

_PREFIX_EDGES = [
    FlowScheme(scope=PER_PLATFORM, use_src_addr=False, use_src_prefix=True, src_prefix_len=0),
    FlowScheme(scope=PER_SENSOR, use_src_addr=False, use_src_prefix=True, src_prefix_len=32,
               use_dst_addr=True, use_src_port=True),
]
# string order differs from numeric order ("10.0.0.10" < "10.0.0.9"), and the
# prefixes nest at /0, /8, /16, /24 and /32
_SOURCES = ("10.0.0.9", "10.0.0.10", "10.0.1.9", "10.1.0.9", "9.255.255.255", "200.0.0.1")
_EDGE_SENSORS = ("s1", "s10", "s2")


@st.composite
def _streams(draw):
    """Packets on a 0.5 s grid, so gaps of exactly 0.5, 1.0 and 2.5 s occur."""
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, 30),
            st.sampled_from(_EDGE_SENSORS),
            st.sampled_from(_SOURCES),
            st.sampled_from((1111, 2222)),
            st.sampled_from((53, 123, 389)),
            st.integers(1, 3),  # copies: duplicate packets, as equal objects and as one object
        ),
        max_size=40,
    ))
    events = []
    for tick, sensor, src, sport, dport, copies in rows:
        fields = (tick * 0.5, sensor, src, sport, f"192.0.2.{_EDGE_SENSORS.index(sensor)}", dport)
        shared = PacketEvent(*fields)
        events += [shared] * (copies - 1) + [PacketEvent(*fields)]
    if draw(st.booleans()):
        events.sort(key=lambda e: e.ts)  # stable: equal timestamps keep stream order
    return events


@settings(max_examples=300, deadline=None)
@given(
    events=_streams(),
    scheme=st.sampled_from(oracle_schemes() + _PREFIX_EDGES),
    timeout=st.sampled_from((0.5, 1.0, 2.5, 1e9, float("inf"), 0.0, -1.0)),
)
def test_assemble_equals_stream_order_oracle(events, scheme, timeout):
    engine = outcome(assemble, events, scheme, timeout)
    oracle = outcome(oracle_assemble, events, scheme, timeout)
    assert engine == oracle
    if isinstance(engine, list):
        # equal flows could still hold equal-valued duplicates out of stream order
        assert flows_to_index_partition(engine) == oracle_partition(events, scheme, timeout)
