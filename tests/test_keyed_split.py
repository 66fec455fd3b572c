"""A trace keys itself once per flow scheme: the split it keeps, and what may not change under it."""

import gc
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_trace, outcome
from honeyflow import (
    PRESETS,
    AttackThresholds,
    DetectionPreset,
    PacketEvent,
    ScannerList,
    assemble,
    classify_sources,
    detect_attacks,
    sweep,
)
from honeyflow import flows
from honeyflow.events import int_to_ipv4
from honeyflow.flows import PER_PLATFORM, PER_SENSOR, FlowScheme, _prefix_codes, _split_of
from honeyflow.trace import Trace, _ranked


@pytest.fixture
def built(monkeypatch):
    """The scheme of every split built from here on, in order."""
    schemes = []

    class Counting(flows._KeyedSplit):
        def __init__(self, trace, scheme):
            schemes.append(scheme)
            super().__init__(trace, scheme)

    monkeypatch.setattr(flows, "_KeyedSplit", Counting)
    return schemes


def _trace(n=2000, seed=5):
    return Trace.from_events(make_random_trace(random.Random(seed), n))


def test_six_presets_and_two_sweeps_key_four_times(built):
    trace = _trace()
    for preset in PRESETS.values():
        detect_attacks(trace, preset)
    for name in ("ccc", "hpi"):
        sweep(trace, PRESETS[name].scheme, (60.0, 900.0), (1, 5))
    assemble(trace, PRESETS["newkid-mono"].scheme, 60.0)
    ccc = PRESETS["ccc"]
    classify_sources(ScannerList(frozenset({"10.0.0.1"})), trace, ccc.scheme, ccc.thresholds)
    assert len(built) == 4
    assert set(Counter(built).values()) == {1}
    for a, b in (("ccc", "hpi"), ("amppot", "amppotmod")):
        assert _split_of(trace, PRESETS[a].scheme) is _split_of(trace, PRESETS[b].scheme)
    assert len(built) == 4


def test_a_sweep_sorts_its_clusters_once(monkeypatch):
    trace = _trace()
    hpi = PRESETS["hpi"]
    _split_of(trace, hpi.scheme)  # keyed here, so every sort counted below is a cluster sort
    sorts = []

    def counting(keys, *args, **kwargs):
        sorts.append(len(keys[0]))
        return lexsort(keys, *args, **kwargs)

    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", counting)
    base = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1, min_sensors=2, comparison=">")
    timeouts = (0.5, 10.0, 60.0, 300.0, 900.0, 3600.0)
    sweep(trace, hpi.scheme, timeouts, (1, 5, 20), base)
    assert len(sorts) == 1
    sweep(trace, PRESETS["ccc"].scheme, timeouts, (1, 5, 20))
    assert len(sorts) == 1
    detect_attacks(trace, hpi)
    assert len(sorts) == 2


def test_selections_start_without_splits(built):
    trace = _trace(500)
    scheme = PRESETS["ccc"].scheme
    flow = max(assemble(trace, scheme, 900.0), key=len)
    assert len(built) == 1
    for selection in (trace.take(np.arange(10)), trace[:], trace[3:40], flow.packets):
        assemble(selection, scheme, 900.0)
    assert len(built) == 5
    assemble(trace, scheme, 60.0)
    assert len(built) == 5


def test_a_list_is_keyed_on_every_call(built):
    events = make_random_trace(random.Random(1), 200)
    assemble(events, PRESETS["ccc"].scheme, 60.0)
    assemble(events, PRESETS["ccc"].scheme, 60.0)
    assert len(built) == 2


def test_arrays_a_trace_holds_are_read_only():
    trace = _trace(300)
    flow = max(assemble(trace, PRESETS["ccc"].scheme, 900.0), key=len)
    index = np.arange(5)
    arrays = [getattr(trace, name) for name in ("ts", "sensor", "src", "src_port", "dst", "dst_port")]
    arrays += [trace.address_values, trace.rows, trace[2:9].rows, trace.take(index).rows, flow.packets.rows]
    arrays += [trace[2:9][1:3].rows, trace.take(index).take(np.arange(2)).rows, flow.packets[1:].rows]
    for array in arrays:
        with pytest.raises(ValueError):
            array[:1] = 0
    index[0] = 7  # the caller's own array stays writable
    assert trace.take(index).rows[0] == 7
    split = _split_of(trace, PRESETS["ccc"].scheme)
    for array in (split.sorted.rows, split.gap):
        with pytest.raises(ValueError):
            array[:1] = 0


def test_take_needs_one_dimensional_positions_and_a_slice_holds_its_own():
    trace = _trace(1000)
    for selection in (trace, trace[:]):
        for rows in (3, np.int64(3), [[1, 2]], np.arange(4).reshape(2, 2)):
            with pytest.raises(TypeError, match="take needs one-dimensional positions"):
                selection.take(rows)
    for part in (trace[:2], trace[::400], trace[-3:], trace.take(slice(5, 7))):
        assert part.rows.base is None or part.rows.base.size == len(part)
    assert trace[10:20][2:4].rows.tolist() == [12, 13]


@st.composite
def _selectors(draw, n):
    """Positions of an n-event trace as numpy takes them, and the positions they select (None: out of range)."""
    kind = draw(st.sampled_from(("array", "list", "mask", "slice")))
    if kind == "slice":
        bound = st.none() | st.integers(-n - 2, n + 2)
        index = slice(draw(bound), draw(bound), draw(st.none() | st.integers(-3, 3).filter(bool)))
        return index, list(range(n))[index]
    if kind == "mask":
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return np.array(mask, dtype=bool), [i for i, on in enumerate(mask) if on]
    positions = draw(st.lists(st.integers(-n - 2, n + 1), max_size=8))
    selected = None if any(not -n <= i < n for i in positions) else [i % n for i in positions]
    return (np.array(positions, np.intp) if kind == "array" else positions), selected


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), seed=st.integers(0, 3))
def test_a_loaded_trace_and_a_selection_take_rows_by_one_rule(data, n, seed):
    events = make_random_trace(random.Random(seed), n)
    loaded = Trace.from_events(events)
    index, selected = data.draw(_selectors(n))
    for trace in (loaded, loaded[:]):
        if selected is None:
            with pytest.raises(IndexError):
                trace.take(index)
            continue
        takes = [trace.take(index)] + ([trace[index]] if isinstance(index, slice) else [])
        for taken in takes:
            assert taken.rows.tolist() == selected
            assert list(taken) == [events[i] for i in selected]
            assert len(taken) == len(list(taken)) == len(selected)
            for array in (taken.rows, taken.address_values):
                with pytest.raises(ValueError):
                    array[:1] = 0
        if isinstance(index, np.ndarray) and len(index):
            index[0] = ~index[0]  # the caller's array stays writable, and no selection reads it
            assert all(taken.rows.tolist() == selected for taken in takes)
            index[0] = ~index[0]


def test_a_split_goes_with_its_trace():
    # no reference cycle: the last reference going frees the splits without the cyclic collector
    trace = _trace(500)
    for preset in PRESETS.values():
        detect_attacks(trace, preset)
    splits = [_split_of(trace, preset.scheme) for preset in PRESETS.values()]
    refs = [weakref.ref(array) for split in splits for array in (split.sorted.rows, split.gap)]
    refs += [weakref.ref(split) for split in splits]
    del splits
    gc.disable()
    try:
        assert all(ref() is not None for ref in refs)
        del trace
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# -- a reused trace answers as a fresh one ------------------------------------

_SENSORS = ("s1", "s10", "s2")
# octets whose strings and values order differently; two sources share a /24, three a /16
_SOURCES = ("10.0.0.9", "10.0.0.10", "10.0.1.9", "10.1.0.9", "9.255.255.255", "100.2.0.1")
_SCHEMES = (
    PRESETS["ccc"].scheme,
    PRESETS["amppot"].scheme,
    PRESETS["newkid-mono"].scheme,
    PRESETS["newkid-multi"].scheme,
    FlowScheme(scope=PER_SENSOR, use_src_addr=False, use_src_prefix=True, src_prefix_len=16, use_dst_port=False),
    FlowScheme(scope=PER_PLATFORM, use_src_port=True, use_dst_port=False),
)
_KNOBS = ({}, {"min_sensors": 2}, {"min_sensors": 2, "comparison": ">"}, {"min_dst_ports": 2})


@st.composite
def _streams(draw):
    rows = draw(st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from(_SENSORS), st.sampled_from(_SOURCES),
                  st.sampled_from((1111, 2222)), st.sampled_from((53, 123, 389))),
        max_size=50,
    ))
    events = [
        PacketEvent(float(tick), sensor, src, sport, f"192.0.2.{_SENSORS.index(sensor)}", dport)
        for tick, sensor, src, sport, dport in rows
    ]
    if draw(st.booleans()):
        events.sort(key=lambda e: e.ts)
    return events


_CALLS = st.tuples(
    st.sampled_from(("assemble", "detect_attacks", "sweep", "classify_sources")),
    st.sampled_from(_SCHEMES),
    st.sampled_from((0.5, 1.0, 2.0, 1e9, float("inf"), 0.0)),
    st.sampled_from((1, 2, 3, 5)),
    st.sampled_from(_KNOBS),
)


def _call(kind, trace, scheme, timeout, load, knobs):
    """One call on ``trace``, as plain values: flows with their rows, grids as lists."""
    thresholds = AttackThresholds(name=kind, idle_timeout=1.0, min_packets=1, **knobs)
    if kind == "sweep":
        grid = sweep(trace, scheme, sorted({timeout, 5.0}), (load, 10), thresholds)
        return grid.attack_flows.tolist(), grid.victims.tolist()
    thresholds = AttackThresholds(name=kind, idle_timeout=timeout, min_packets=load, **knobs)
    if kind == "assemble":
        return [(flow, flow.packets.rows.tolist()) for flow in assemble(trace, scheme, timeout)]
    if kind == "detect_attacks":
        attacks = detect_attacks(trace, DetectionPreset(kind, scheme, thresholds))
        return [(attack, [flow.packets.rows.tolist() for flow in attack.flows]) for attack in attacks]
    listed = ScannerList(frozenset(_SOURCES[::2]))
    c = classify_sources(listed, trace, scheme, thresholds)
    return c.classes, c.packets, c.attack_events, c.counts, c.shares


@settings(max_examples=300, deadline=None)
@given(events=_streams(), calls=st.lists(_CALLS, min_size=1, max_size=8))
def test_a_reused_trace_answers_as_a_fresh_one(events, calls):
    reused = Trace.from_events(events)
    for call in calls:
        got = outcome(_call, call[0], reused, *call[1:])
        assert got == outcome(_call, call[0], Trace.from_events(events), *call[1:])


# -- prefix keys ----------------------------------------------------------------

_OCTETS = st.sampled_from((0, 1, 2, 9, 10, 19, 25, 100, 199, 2, 200, 250, 255))
_ADDRESS_VALUES = st.one_of(
    st.tuples(_OCTETS, _OCTETS, _OCTETS, _OCTETS).map(lambda o: o[0] << 24 | o[1] << 16 | o[2] << 8 | o[3]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_ADDRESS_VALUES, max_size=30, unique=True),
    plen=st.one_of(st.sampled_from((0, 1, 24, 31, 32)), st.integers(0, 32)),
)
def test_prefix_codes_rank_the_cidr_strings(values, plen):
    mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    cidrs = [f"{int_to_ipv4(value & mask)}/{plen}" for value in values]
    ids = {cidr: i for i, cidr in enumerate(dict.fromkeys(cidrs))}
    table, rank = _ranked(ids)
    codes, labels = _prefix_codes(np.array(values, np.uint32), plen)
    assert len(labels) == len(table)
    assert [labels[i] for i in range(len(labels))] == table
    assert codes.tolist() == [int(rank[ids[cidr]]) for cidr in cidrs]
