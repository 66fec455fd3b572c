"""Threshold-space sweeps: detector outcomes over a (timeout, load) grid.

Each grid cell holds the attack-flow count and unique-victim count the
detector produces at that (idle timeout, packet load) combination. The
trace is keyed and sorted once per call; each timeout splits that keyed
order into flow ranges, and each cell is counted from those ranges
without building a Flow or an AttackEvent. The counts equal a fresh
assemble + detect per cell, because detection at one cell never looks at
another.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .detection import COMPARE_AT_LEAST, AttackThresholds, _check_port_condition, _window_cluster_starts
from .events import PacketEvent, open_artifact
from .flows import PER_SENSOR, FlowScheme, _KeyedSplit

__all__ = ["HeatmapGrid", "sweep", "write_heatmap_csv"]


@dataclass(frozen=True, eq=False)
class HeatmapGrid:
    """Sweep result: axes plus two integer matrices, shape (timeouts, loads)."""

    timeouts: tuple[float, ...]
    loads: tuple[int, ...]
    attack_flows: np.ndarray
    victims: np.ndarray

    def cell(self, timeout: float, load: int) -> tuple[int, int]:
        i = self.timeouts.index(timeout)
        j = self.loads.index(load)
        return int(self.attack_flows[i, j]), int(self.victims[i, j])


def _check_grid(values: Sequence, what: str) -> None:
    if len(values) == 0:
        raise ValueError(f"empty {what} grid")
    for a, b in zip(values, values[1:]):
        if not b > a:
            raise ValueError(f"{what} grid must be strictly increasing: {values!r}")


def _distinct_per_bin(bins: np.ndarray, values: np.ndarray, n_bins: int) -> np.ndarray:
    """How many distinct ``values`` (non-negative codes) fall in each of ``n_bins`` bins."""
    width = int(values.max()) + 1 if len(values) else 1
    pairs = np.sort(bins * width + values)
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    return np.bincount(pairs[first] // width, minlength=n_bins)


def _count_passing(ascending: np.ndarray, cell: AttackThresholds) -> int:
    """How many packet counts in ``ascending`` pass the cell's load condition."""
    side = "left" if cell.comparison == COMPARE_AT_LEAST else "right"
    return len(ascending) - int(np.searchsorted(ascending, cell.min_packets, side))


def _flow_counts(
    split: _KeyedSplit, starts: np.ndarray, cells: Sequence[AttackThresholds]
) -> list[tuple[int, int]]:
    """(attack flows, victims) per cell when every flow is judged alone.

    A flow is eligible when its distinct dst ports and sensors pass; the
    load is the only condition that varies along the row. Attack flows at a
    load are the eligible flows whose packet count passes it, victims the
    sources whose largest eligible flow passes it: one binary search each.
    """
    thresholds = cells[0]
    sizes = np.diff(starts, append=len(split.events))
    eligible = np.ones(len(starts), dtype=bool)
    for attr, least in (("dst_port", thresholds.min_dst_ports), ("sensor", thresholds.min_sensors)):
        if least > 1:
            flow_of = np.repeat(np.arange(len(starts)), sizes)
            eligible &= _distinct_per_bin(flow_of, split.codes(attr), len(starts)) >= least
    victim = split.codes("src_ip")[starts[eligible]]
    sizes = sizes[eligible]
    largest = np.zeros(len(split.labels("src_ip")), dtype=np.int64)
    np.maximum.at(largest, victim, sizes)
    sizes.sort()
    largest = np.sort(largest[largest > 0])
    return [(_count_passing(sizes, cell), _count_passing(largest, cell)) for cell in cells]


def _cluster_counts(
    split: _KeyedSplit, starts: np.ndarray, cells: Sequence[AttackThresholds], group_of_key: np.ndarray
) -> list[tuple[int, int]]:
    """(attack flows, victims) per cell when per-sensor flows are clustered.

    Per cell, the flows passing the load are clustered by
    :func:`honeyflow.detection._window_cluster_starts` within their key
    modulo sensor (``group_of_key``); a cluster attacks when its flows span
    enough sensors and dst ports.
    """
    thresholds = cells[0]
    stops = np.append(starts[1:], len(split.events))
    sizes = stops - starts
    first, last = split.ts[starts], split.ts[stops - 1]
    key = split.key_index[starts]
    group = group_of_key[key]
    order = np.lexsort((key, first, group))
    ordered_sizes = sizes[order]
    sensor = split.codes("sensor")[starts]
    victim = split.codes("src_ip")[starts]
    counts = []
    for cell in cells:
        members = order[cell.passes_load(ordered_sizes)]
        heads = _window_cluster_starts(group[members].tolist(), first[members].tolist(), last[members].tolist())
        cluster = np.zeros(len(members), dtype=np.int64)
        cluster[heads] = 1
        cluster = np.cumsum(cluster) - 1
        attacks = _distinct_per_bin(cluster, sensor[members], len(heads)) >= thresholds.min_sensors
        if thresholds.min_dst_ports > 1:
            cluster_of_flow = np.full(len(starts), -1)
            cluster_of_flow[members] = cluster
            packet_cluster = np.repeat(cluster_of_flow, sizes)
            kept = packet_cluster >= 0
            ports = _distinct_per_bin(packet_cluster[kept], split.codes("dst_port")[kept], len(heads))
            attacks &= ports >= thresholds.min_dst_ports
        attack_flows = int(np.bincount(cluster, minlength=len(heads))[attacks].sum())
        victims = np.bincount(victim[members[heads][attacks]], minlength=len(split.labels("src_ip")))
        counts.append((attack_flows, np.count_nonzero(victims)))
    return counts


def sweep(
    events: Iterable[PacketEvent],
    scheme: FlowScheme,
    timeout_grid: Sequence[float],
    load_grid: Sequence[int],
    base_thresholds: AttackThresholds | None = None,
) -> HeatmapGrid:
    """Run the detector at every (timeout, load) grid point.

    ``base_thresholds`` contributes the remaining detector knobs
    (min_dst_ports, min_sensors, comparison); timeout and min_packets are
    overridden per cell. attack_flows counts the flows inside emitted
    attack events (equal to the event count whenever events are
    single-flow); victims counts distinct victims. Each cell equals
    :func:`honeyflow.detection.detect` on :func:`honeyflow.flows.assemble`
    at that cell, errors included, but is counted without building either.
    """
    _check_grid(timeout_grid, "timeout")
    _check_grid(load_grid, "load")
    if base_thresholds is None:
        base_thresholds = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1)

    split = _KeyedSplit(list(events), scheme)
    group_of_key = None
    if base_thresholds.min_sensors > 1 and scheme.scope == PER_SENSOR:
        # hpi clusters flows whose keys differ only in sensor and dst address;
        # a key's group is its other codes in mixed radix (< 2**63 for any
        # trace with fewer than 2**31 sources: at most 2**16 codes per port)
        heads = np.flatnonzero(split.key_change)
        group_of_key = np.zeros(len(heads), dtype=np.int64)
        for attr in split.key_attrs:
            if attr not in ("sensor", "dst_ip"):
                group_of_key = group_of_key * len(split.labels(attr)) + split.codes(attr)[heads]

    attack_flows = np.zeros((len(timeout_grid), len(load_grid)), dtype=np.int64)
    victim_counts = np.zeros_like(attack_flows)
    for i, timeout in enumerate(timeout_grid):
        starts = split.flow_starts(timeout)
        cells = [replace(base_thresholds, idle_timeout=timeout, min_packets=load) for load in load_grid]
        if not len(starts):
            continue
        _check_port_condition(base_thresholds, scheme.use_dst_port)
        if group_of_key is None:
            counts = _flow_counts(split, starts, cells)
        else:
            counts = _cluster_counts(split, starts, cells, group_of_key)
        attack_flows[i], victim_counts[i] = zip(*counts)
    return HeatmapGrid(
        timeouts=tuple(timeout_grid),
        loads=tuple(load_grid),
        attack_flows=attack_flows,
        victims=victim_counts,
    )


def _axis_value(value: float) -> str:
    # 60.0 prints as 60; 0.5 stays 0.5
    return f"{value:g}"


def write_heatmap_csv(grid: HeatmapGrid, path: str) -> None:
    """Long-form CSV, rows ordered by (timeout, load)."""
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timeout_s", "min_packets", "attack_flows", "victims"])
        for i, timeout in enumerate(grid.timeouts):
            for j, load in enumerate(grid.loads):
                writer.writerow(
                    [_axis_value(timeout), load, int(grid.attack_flows[i, j]), int(grid.victims[i, j])]
                )
