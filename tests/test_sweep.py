import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    key_function,
    make_random_trace,
    oracle_assemble,
    oracle_detect,
    oracle_partition,
    oracle_sweep,
    outcome,
)
from honeyflow import PacketEvent
from honeyflow.detection import PRESETS, AttackThresholds, DetectionPreset, detect, detect_attacks, victims
from honeyflow.flows import PER_PLATFORM, PER_SENSOR, FlowScheme, assemble
from honeyflow.sweep import HeatmapGrid, sweep, write_heatmap_csv
from honeyflow.trace import Trace

TIMEOUTS = [60.0, 300.0, 900.0, 3600.0]
LOADS = [1, 3, 5, 20, 100]


def test_grid_validation():
    events = make_random_trace(random.Random(0), 50)
    scheme = PRESETS["ccc"].scheme
    with pytest.raises(ValueError):
        sweep(events, scheme, [], LOADS)
    with pytest.raises(ValueError):
        sweep(events, scheme, TIMEOUTS, [])
    with pytest.raises(ValueError):
        sweep(events, scheme, [60.0, 60.0], LOADS)
    with pytest.raises(ValueError):
        sweep(events, scheme, TIMEOUTS, [5, 3])


def test_cells_match_fresh_recomputation():
    events = make_random_trace(random.Random(3), 3000)
    for preset_name in ("ccc", "amppotmod"):
        scheme = PRESETS[preset_name].scheme
        grid = sweep(events, scheme, TIMEOUTS, LOADS)
        for timeout in TIMEOUTS:
            flows = assemble(events, scheme, timeout)
            for load in LOADS:
                cell = AttackThresholds(name="ref", idle_timeout=timeout, min_packets=load)
                detected = detect(flows, cell)
                expected = (sum(len(e.flows) for e in detected), len(victims(detected)))
                assert grid.cell(timeout, load) == expected


def test_monotonic_along_axes():
    # longer timeouts only merge flows, so victims never drop; higher load
    # bars only discard flows, so both counts never grow along that axis
    for seed in range(6):
        events = make_random_trace(random.Random(seed), 2500)
        for preset_name in ("ccc", "amppotmod", "newkid-mono"):
            grid = sweep(events, PRESETS[preset_name].scheme, TIMEOUTS, LOADS)
            assert (np.diff(grid.victims, axis=1) <= 0).all()
            assert (np.diff(grid.attack_flows, axis=1) <= 0).all()
            assert (np.diff(grid.victims, axis=0) >= 0).all()


def test_platform_scope_sees_superset_of_victims():
    # per-platform merging can only push flows over a load bar, never under it
    for seed in range(4):
        events = make_random_trace(random.Random(100 + seed), 2500)
        per_sensor = sweep(events, PRESETS["ccc"].scheme, [600.0], LOADS)
        platform = sweep(events, PRESETS["amppotmod"].scheme, [600.0], LOADS)
        assert (platform.victims >= per_sensor.victims).all()


def test_base_thresholds_carry_extra_conditions():
    events = make_random_trace(random.Random(9), 2000)
    base = AttackThresholds(name="b", idle_timeout=1.0, min_packets=1, min_sensors=2)
    grid = sweep(events, PRESETS["hpi"].scheme, [600.0], [1, 5])
    strict = sweep(events, PRESETS["hpi"].scheme, [600.0], [1, 5], base_thresholds=base)
    assert (strict.victims <= grid.victims).all()


def test_heatmap_csv_layout(tmp_path):
    events = make_random_trace(random.Random(1), 500)
    grid = sweep(events, PRESETS["ccc"].scheme, [60.0, 600.0], [1, 5])
    path = tmp_path / "sweep.csv"
    write_heatmap_csv(grid, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "timeout_s,min_packets,attack_flows,victims"
    assert len(lines) == 5
    # axis formatting drops trailing .0 and rows come in grid order
    assert lines[1].startswith("60,1,")
    assert lines[2].startswith("60,5,")
    assert lines[3].startswith("600,1,")
    f, v = grid.cell(60.0, 1)
    assert lines[1] == f"60,1,{f},{v}"
    # a timeout :g would round to six digits is written in full, so every row keeps its own label
    grid = sweep(events, PRESETS["ccc"].scheme, [1234567.0, 1234568.0], [1])
    write_heatmap_csv(grid, str(path))
    labels = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert labels == ["1234567.0", "1234568.0"]


def test_cell_accessor_rejects_unknown_axis():
    grid = HeatmapGrid(
        timeouts=(60.0,), loads=(1,),
        attack_flows=np.zeros((1, 1), dtype=np.int64),
        victims=np.zeros((1, 1), dtype=np.int64),
    )
    with pytest.raises(ValueError):
        grid.cell(61.0, 1)


# -- sweep against per-cell recomputation ----------------------------------------

_SENSORS = ("s1", "s2", "s3")
_SOURCES = ("10.0.0.1", "10.0.1.1")
_PLATFORM_ALL_PORTS = FlowScheme(scope=PER_PLATFORM, use_dst_port=False)
_SWEEP_CASES = {
    "ccc": (PRESETS["ccc"].scheme, {}),
    "hpi": (PRESETS["hpi"].scheme, {"min_sensors": 2, "comparison": ">"}),
    "hpi-at-least": (PRESETS["hpi"].scheme, {"min_sensors": 2}),
    "newkid-multi": (PRESETS["newkid-multi"].scheme, {"min_dst_ports": 2}),
    "platform-sensors": (PRESETS["amppotmod"].scheme, {"min_sensors": 2}),
    "platform-sensors-ports": (_PLATFORM_ALL_PORTS, {"min_sensors": 2, "min_dst_ports": 2, "comparison": ">"}),
    "hpi-ports": (FlowScheme(scope=PER_SENSOR, use_dst_port=False), {"min_sensors": 2, "min_dst_ports": 2}),
    # the two sources share a /16, so their flows cluster by prefix
    "hpi-prefix": (
        FlowScheme(scope=PER_SENSOR, use_src_addr=False, use_src_prefix=True, src_prefix_len=16), {"min_sensors": 2}
    ),
}


def _ticks(rows):
    """Events from (tick, sensor, address, source, dst port) rows, sorted by ts; address 0 or 1 of the sensor."""
    events = [
        PacketEvent(float(tick), sensor, src, 4444, f"192.0.2.{2 * _SENSORS.index(sensor) + addr}", dport)
        for tick, sensor, addr, src, dport in rows
    ]
    return sorted(events, key=lambda e: e.ts)


@st.composite
def _sorted_streams(draw):
    """Few keys on a 1 s grid, so flows overlap across sensors and merge or split by timeout.

    Each sensor has two addresses, so one sensor can hold two overlapping
    flows of one hpi cluster.
    """
    return _ticks(draw(st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from(_SENSORS), st.integers(0, 1),
                  st.sampled_from(_SOURCES), st.sampled_from((53, 123, 389))),
        min_size=8, max_size=60,
    )))


def _increasing(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=4, unique=True).map(sorted)


@settings(max_examples=400, deadline=None)
@given(
    events=_sorted_streams(),
    case=st.sampled_from(sorted(_SWEEP_CASES)),
    timeouts=_increasing((0.5, 1.0, 2.0, 3.0, 10.0, 1e9)),
    loads=_increasing((1, 1.5, 2, 2.5, 3, 4, 6, 10)),
)
# flows of one hpi group that begin at one ts on two sensors and begin a flow at every timeout
@example(
    events=_ticks([(t, s, 0, "10.0.0.1", 53) for t in (0, 1, 2, 5, 6) for s in ("s1", "s2")]
                  + [(t, s, 1, "10.0.1.1", 53) for t in (0, 3, 4) for s in ("s2", "s3")]),
    case="hpi", timeouts=[0.5, 1.0, 3.0, 10.0], loads=[1, 2, 3],
)
# 0.5 s splits every packet into its own flow, and 1e9 s merges each key into one
@example(
    events=_ticks([(0, "s1", 0, "10.0.0.1", 53), (1, "s1", 0, "10.0.0.1", 53), (4, "s1", 0, "10.0.0.1", 53),
                   (1, "s2", 0, "10.0.0.1", 53), (2, "s2", 0, "10.0.0.1", 53), (9, "s2", 0, "10.0.0.1", 53),
                   (0, "s3", 1, "10.0.1.1", 123), (3, "s3", 1, "10.0.1.1", 123), (3, "s1", 1, "10.0.1.1", 123),
                   (5, "s1", 1, "10.0.1.1", 123)]),
    case="hpi-at-least", timeouts=[0.5, 1e9], loads=[1, 2, 3],
)
# the port span is not keyed, so a cell reads each member's distinct ports
@example(
    events=_ticks([(t, "s1", 0, "10.0.0.1", p) for t, p in ((0, 53), (1, 123), (2, 53), (6, 389))]
                  + [(t, "s2", 0, "10.0.0.1", 53) for t in (1, 3, 7)]
                  + [(t, s, 1, "10.0.1.1", 53) for t in (0, 1, 2) for s in ("s2", "s3")]),
    case="hpi-ports", timeouts=[0.5, 2.0, 1e9], loads=[1, 2],
)
def test_sweep_equals_per_cell_recomputation(events, case, timeouts, loads):
    scheme, knobs = _SWEEP_CASES[case]
    base = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1, **knobs)
    grid = sweep(events, scheme, timeouts, loads, base)
    cells = [[grid.cell(t, load) for load in loads] for t in timeouts]
    assert cells == oracle_sweep(events, scheme, timeouts, loads, base)


# every preset's scheme and conditions, the sweep cases, and a port condition
# on a port-keyed scheme, which must fail with the same error
_DETECT_CASES = {
    **_SWEEP_CASES,
    **{
        f"preset-{name}": (preset.scheme, {
            "min_dst_ports": preset.thresholds.min_dst_ports,
            "min_sensors": preset.thresholds.min_sensors,
            "comparison": preset.thresholds.comparison,
        })
        for name, preset in PRESETS.items()
    },
    "ccc-ports": (PRESETS["ccc"].scheme, {"min_dst_ports": 2}),
}
_DETECT_THRESHOLDS = {
    "case": st.sampled_from(sorted(_DETECT_CASES)),
    "timeout": st.sampled_from((0.5, 1.0, 2.0, 3.0, 10.0, 1e9)),  # the grid's gaps are whole seconds
    "load": st.sampled_from((1, 2, 3, 4, 6, 10)),
}


def _packet_rows(result, events, scheme, timeout):
    """Per event, the positions of its packets in ``events``, or the error ``outcome`` returned.

    An assembled flow's positions are its ``packets.rows``. An oracle flow's
    are its index tuple in ``oracle_partition``, found by (key, first_ts),
    which no two flows of one assembly share.
    """
    if isinstance(result, tuple):
        return result
    key_of = key_function(scheme)
    oracle_rows = {(key_of(events[t[0]]), events[t[0]].ts): t for t in oracle_partition(events, scheme, timeout)}

    def rows(flow):
        return flow.packets.rows.tolist() if isinstance(flow.packets, Trace) else oracle_rows[flow.key, flow.first_ts]

    return [[i for f in e.flows for i in rows(f)] for e in result]


@settings(max_examples=400, deadline=None)
@given(events=_sorted_streams(), **_DETECT_THRESHOLDS)
def test_detect_equals_oracle(events, case, timeout, load):
    scheme, knobs = _DETECT_CASES[case]
    thresholds = AttackThresholds(name=case, idle_timeout=timeout, min_packets=load, **knobs)
    flows = oracle_assemble(events, scheme, timeout)
    got = outcome(detect, flows, thresholds)
    expected = outcome(oracle_detect, flows, thresholds)
    assert got == expected
    assert _packet_rows(got, events, scheme, timeout) == _packet_rows(expected, events, scheme, timeout)


@settings(max_examples=200, deadline=None)
@given(events=_sorted_streams(), seed=st.integers(0, 2**32 - 1), **_DETECT_THRESHOLDS)
def test_detect_does_not_depend_on_the_order_of_its_flows(events, seed, case, timeout, load):
    # equal first timestamps abound on the grid: a cluster's flows still come
    # out ordered by (first_ts, key), as oracle_attack_event orders them
    scheme, knobs = _DETECT_CASES[case]
    thresholds = AttackThresholds(name=case, idle_timeout=timeout, min_packets=load, **knobs)
    flows = oracle_assemble(events, scheme, timeout)
    got = outcome(detect, random.Random(seed).sample(flows, len(flows)), thresholds)
    expected = outcome(oracle_detect, flows, thresholds)
    assert got == expected
    assert _packet_rows(got, events, scheme, timeout) == _packet_rows(expected, events, scheme, timeout)


@settings(max_examples=400, deadline=None)
@given(events=_sorted_streams(), unsorted=st.booleans(), **_DETECT_THRESHOLDS)
def test_detect_attacks_equals_oracle(events, unsorted, case, timeout, load):
    scheme, knobs = _DETECT_CASES[case]
    thresholds = AttackThresholds(name=case, idle_timeout=timeout, min_packets=load, **knobs)
    if unsorted:
        events = events[::-1]
    got = outcome(detect_attacks, events, DetectionPreset(case, scheme, thresholds))
    expected = outcome(lambda: oracle_detect(oracle_assemble(events, scheme, timeout), thresholds))
    assert got == expected
    assert _packet_rows(got, events, scheme, timeout) == _packet_rows(expected, events, scheme, timeout)


@pytest.mark.parametrize(
    "events, scheme, timeouts, loads, knobs",
    [
        ("trace", "ccc", [0.0, 60.0], LOADS, {}),                       # non-positive timeout
        ("trace", "ccc", [-5.0], LOADS, {}),
        ("trace", "ccc", TIMEOUTS, [0, 5], {}),                         # load 0
        ("unsorted", "ccc", TIMEOUTS, LOADS, {}),
        ("unsorted", "ccc", TIMEOUTS, [0, 5], {}),                      # unsorted before the load
        ("unsorted", "ccc", [0.0], LOADS, {}),                          # timeout before unsorted
        ("trace", "ccc", TIMEOUTS, LOADS, {"min_dst_ports": 2}),        # port-keyed scheme
        ("trace", "ccc", TIMEOUTS, [0, 5], {"min_dst_ports": 2}),       # load before the scheme
        ("empty", "ccc", TIMEOUTS, [0, 5], {}),
        ("empty", "ccc", [0.0], LOADS, {}),
    ],
)
def test_sweep_raises_what_per_cell_recomputation_raises(events, scheme, timeouts, loads, knobs):
    trace = make_random_trace(random.Random(2), 200)
    events = {"trace": trace, "unsorted": trace[::-1], "empty": []}[events]
    base = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1, **knobs)
    args = (events, PRESETS[scheme].scheme, timeouts, loads, base)
    expected = outcome(oracle_sweep, *args)
    assert isinstance(expected, tuple)  # every case raises
    assert outcome(sweep, *args) == expected


def test_cluster_on_one_sensor_with_two_addresses_spans_one_sensor():
    # hpi keys include the dst address, so one sensor can hold two
    # overlapping flows of one cluster; they still count as one sensor
    def burst(dst, t0):
        return [PacketEvent(t0 + i, "s1", "203.0.113.9", 4444, dst, 123) for i in range(10)]

    events = sorted(burst("192.0.2.1", 0.0) + burst("192.0.2.2", 0.5), key=lambda e: e.ts)
    base = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1, min_sensors=2)
    grid = sweep(events, PRESETS["hpi"].scheme, [60.0], [1, 5], base)
    assert grid.cell(60.0, 1) == grid.cell(60.0, 5) == (0, 0)
    one = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1)
    assert sweep(events, PRESETS["hpi"].scheme, [60.0], [1, 5], one).cell(60.0, 5) == (2, 1)


def test_empty_trace_gives_all_zero_grid():
    for case, (scheme, knobs) in _SWEEP_CASES.items():
        base = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1, **knobs)
        grid = sweep([], scheme, TIMEOUTS, LOADS, base)
        assert grid.attack_flows.shape == grid.victims.shape == (len(TIMEOUTS), len(LOADS)), case
        assert not grid.attack_flows.any() and not grid.victims.any(), case
    # no flows means no cell to reject: a port-keyed scheme with min_dst_ports passes
    base = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1, min_dst_ports=2)
    assert not sweep([], PRESETS["ccc"].scheme, TIMEOUTS, LOADS, base).attack_flows.any()
