"""Threshold-space sweeps: detector outcomes over a (timeout, load) grid.

Each grid cell holds the attack-flow count and unique-victim count the
detector produces at that (idle timeout, packet load) combination. Flows
are assembled once per timeout and re-thresholded per load, which is
semantically identical to recomputing every cell from scratch because
detection at one cell never looks at another.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .detection import AttackThresholds, detect, victims
from .events import PacketEvent, open_artifact
from .flows import FlowScheme, assemble

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
    single-flow); victims counts distinct victims.
    """
    _check_grid(timeout_grid, "timeout")
    _check_grid(load_grid, "load")
    if base_thresholds is None:
        base_thresholds = AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1)

    stream = list(events)
    attack_flows = np.zeros((len(timeout_grid), len(load_grid)), dtype=np.int64)
    victim_counts = np.zeros_like(attack_flows)
    for i, timeout in enumerate(timeout_grid):
        flows = assemble(stream, scheme, timeout)
        for j, load in enumerate(load_grid):
            cell = replace(base_thresholds, idle_timeout=timeout, min_packets=load)
            detected = detect(flows, cell)
            attack_flows[i, j] = sum(len(e.flows) for e in detected)
            victim_counts[i, j] = len(victims(detected))
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
