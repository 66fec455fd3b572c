"""Threshold-space sweeps: detector outcomes over a (timeout, load) grid.

Each grid cell holds the attack-flow count and unique-victim count the
detector produces at that (idle timeout, packet load) combination. A
trace is keyed and sorted once per flow scheme and keeps that keyed order
for later calls; each timeout splits it into flow ranges, and the
detector's own threshold rule decides every cell of the row from those
ranges, without building a Flow or an AttackEvent. A cell is therefore the size of what
:func:`honeyflow.detection.detect_attacks` returns at that cell.

A clustered scheme orders its flows by (group, first_ts) once per sweep,
at the shortest timeout. Timeouts increase, and a longer one only merges
flows, so each later timeout narrows the previous order to the flows that
still begin one; a cell then reads only its own members' sensors and ports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .detection import AttackThresholds, _attack_runs, _split_columns
from .events import PacketEvent, _write_csv
from .flows import FlowScheme, _split_of
from .trace import as_trace

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
    :func:`honeyflow.detection.detect_attacks` at that cell, errors
    included, but is counted without building flows or attack events.

    ``events`` is keyed once per trace and scheme: a
    :class:`~honeyflow.trace.Trace` keeps its keyed order, which later
    sweeps, assemblies and detections under an equal scheme reuse; any
    other sequence of events is keyed on each call.
    """
    _check_grid(timeout_grid, "timeout")
    _check_grid(load_grid, "load")
    if base_thresholds is None:
        base_thresholds = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1)

    split = _split_of(as_trace(events), scheme)
    attack_flows = np.zeros((len(timeout_grid), len(load_grid)), dtype=np.int64)
    victim_counts = np.zeros_like(attack_flows)
    columns = None
    for i, timeout in enumerate(timeout_grid):
        starts = split.flow_starts(timeout)
        columns = _split_columns(split, starts, base_thresholds, columns)  # narrows the last timeout's order
        cells = [replace(base_thresholds, idle_timeout=timeout, min_packets=load) for load in load_grid]
        victim = split.codes("src_ip", starts)
        for j, (members, heads) in enumerate(_attack_runs(columns, cells)):
            attack_flows[i, j] = len(members)
            victim_counts[i, j] = np.count_nonzero(np.bincount(victim[members[heads]]))
    return HeatmapGrid(
        timeouts=tuple(timeout_grid),
        loads=tuple(load_grid),
        attack_flows=attack_flows,
        victims=victim_counts,
    )


def _axis_value(value: float) -> str:
    # 60.0 prints as 60; 0.5 stays 0.5; 1234567.0, which :g rounds to 1.23457e+06, prints in full
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def write_heatmap_csv(grid: HeatmapGrid, path: str) -> None:
    """Long-form CSV, rows ordered by (timeout, load)."""
    rows = (
        [_axis_value(timeout), load, int(grid.attack_flows[i, j]), int(grid.victims[i, j])]
        for i, timeout in enumerate(grid.timeouts)
        for j, load in enumerate(grid.loads)
    )
    _write_csv(path, ["timeout_s", "min_packets", "attack_flows", "victims"], rows)
