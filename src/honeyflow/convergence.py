"""Sensor-count convergence: how fast victim coverage saturates.

Input everywhere is a sensor -> victim-set mapping (victims may be any
hashable values; the detector's Victim records and plain strings both
work). Three views:

* a single deployment order (greedy max-coverage or static size sort) with
  its marginal and cumulative coverage curve,
* the distribution over random deployment orders, summarized per rank by
  min / quartiles / max of the coverage share,
* a stability trace showing how those summaries move as the permutation
  sample grows, to justify a sample size far below n! orderings.

Capture-recapture lives here too: the two-sample population estimate used
to extrapolate how many victims exist beyond any sensor's view.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .events import open_artifact

__all__ = [
    "GREEDY_MAX_COVERAGE",
    "GREEDY_STATIC_SORT",
    "EstimateUndefinedError",
    "ConvergenceCurve",
    "RankStatistics",
    "StabilityPoint",
    "sensor_victim_map",
    "greedy_order",
    "permutation_ensemble",
    "stability_trace",
    "capture_recapture",
    "write_greedy_csv",
    "write_rank_statistics_csv",
    "write_stability_csv",
]

GREEDY_MAX_COVERAGE = "max-coverage"
GREEDY_STATIC_SORT = "sort"


class EstimateUndefinedError(ValueError):
    """Capture-recapture is undefined: the two samples do not overlap."""


def sensor_victim_map(attacks: Iterable) -> dict[str, set]:
    """Collapse attack events into sensor -> victim set.

    A sensor observed a victim iff it contributed at least one packet to
    one of that victim's attack events.
    """
    mapping: dict[str, set] = {}
    for event in attacks:
        for sensor in event.sensors:
            mapping.setdefault(sensor, set()).add(event.victim)
    return mapping


@dataclass(frozen=True)
class ConvergenceCurve:
    """One deployment order and its coverage curve (rank r = first r sensors)."""

    sensors: tuple[str, ...]
    new_victims: tuple[int, ...]
    cumulative: tuple[int, ...]
    shares: tuple[float, ...]
    union_size: int


def _check_mapping(mapping: Mapping[str, set]) -> None:
    if not mapping:
        raise ValueError("sensor map must be non-empty")


def greedy_order(
    mapping: Mapping[str, set],
    strategy: str = GREEDY_MAX_COVERAGE,
) -> ConvergenceCurve:
    """Deterministic deployment order with its coverage curve.

    ``max-coverage`` repeatedly picks the sensor adding the most unseen
    victims; ``sort`` fixes the order up front by descending victim count.
    Ties break lexicographically on sensor id either way. The final
    cumulative value always equals the union size; shares are cumulative /
    union (defined as 1.0 throughout when the union is empty, so the curve
    stays total).
    """
    _check_mapping(mapping)
    if strategy not in (GREEDY_MAX_COVERAGE, GREEDY_STATIC_SORT):
        raise ValueError(f"unknown strategy: {strategy!r}")

    if strategy == GREEDY_STATIC_SORT:
        order = sorted(mapping, key=lambda s: (-len(mapping[s]), s))
    else:
        remaining = sorted(mapping)
        covered: set = set()
        order = []
        while remaining:
            best = min(remaining, key=lambda s: (-len(mapping[s] - covered), s))
            order.append(best)
            covered |= mapping[best]
            remaining.remove(best)

    covered = set()
    new_victims = []
    cumulative = []
    for sensor in order:
        gained = len(mapping[sensor] - covered)
        covered |= mapping[sensor]
        new_victims.append(gained)
        cumulative.append(len(covered))
    union_size = cumulative[-1]
    if union_size:
        shares = tuple(c / union_size for c in cumulative)
    else:
        shares = tuple(1.0 for _ in cumulative)
    return ConvergenceCurve(
        sensors=tuple(order),
        new_victims=tuple(new_victims),
        cumulative=tuple(cumulative),
        shares=shares,
        union_size=union_size,
    )


@dataclass(frozen=True, eq=False)
class RankStatistics:
    """Per-rank coverage-share summaries over a permutation ensemble.

    Arrays are indexed by rank - 1 and hold shares in [0, 1]. Quartiles are
    numpy linear-interpolation percentiles (np.percentile defaults).
    """

    n_permutations: int
    union_size: int
    mins: np.ndarray
    q1: np.ndarray
    medians: np.ndarray
    q3: np.ndarray
    maxs: np.ndarray

    @property
    def n_ranks(self) -> int:
        return len(self.medians)


def _bitmask_rows(mapping: Mapping[str, set]) -> tuple[list[int], int]:
    """One victim bitmask per sensor, in sensor id order, and the union size."""
    index: dict[Hashable, int] = {}
    masks = []
    for sensor in sorted(mapping):
        mask = 0
        for victim in mapping[sensor]:
            bit = index.setdefault(victim, len(index))
            mask |= 1 << bit
        masks.append(mask)
    return masks, len(index)


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1: {value}")


def _coverage_shares(mapping: Mapping[str, set], n: int, seed: int | None) -> tuple[np.ndarray, int]:
    """Shares covered by the first r sensors (column r - 1) of ``n`` random orders, and the union.

    Row i is the i-th order from ``default_rng(seed)``; shares are 1.0 when
    the union is empty. Every summary of a convergence run reads this matrix.
    """
    masks, union_size = _bitmask_rows(mapping)
    rng = np.random.default_rng(seed)
    shares = np.empty((n, len(masks)), dtype=np.float64)
    for row in shares:
        order = map(masks.__getitem__, rng.permutation(len(masks)).tolist())
        row[:] = [union.bit_count() for union in accumulate(order, or_)]
    if union_size:
        shares /= union_size
    else:
        shares.fill(1.0)
    return shares, union_size


def _rank_statistics(shares: np.ndarray, union_size: int) -> RankStatistics:
    q1, medians, q3 = np.percentile(shares, [25, 50, 75], axis=0)
    return RankStatistics(len(shares), union_size, shares.min(axis=0), q1, medians, q3, shares.max(axis=0))


def permutation_ensemble(
    mapping: Mapping[str, set],
    n_permutations: int = 30_000,
    seed: int | None = 0,
) -> RankStatistics:
    """Coverage-share distribution over random deployment orders.

    Args:
        mapping: sensor -> victim set, non-empty.
        n_permutations: sample size; n! is unreachable already at modest
            sensor counts, the sample stands in for the full distribution.
        seed: numpy Generator seed; a fixed seed makes the ensemble
            reproducible bit for bit.

    Returns:
        RankStatistics with min / q1 / median / q3 / max of the coverage
        share at every rank.
    """
    _check_mapping(mapping)
    _check_count("n_permutations", n_permutations)
    return _rank_statistics(*_coverage_shares(mapping, n_permutations, seed))


@dataclass(frozen=True)
class StabilityPoint:
    """Largest per-rank relative change of min/median/max after one more batch."""

    n_permutations: int
    dmin: float
    dmedian: float
    dmax: float


def _relative_delta(new: np.ndarray, old: np.ndarray) -> float:
    out = np.zeros_like(new)
    nz = old != 0
    out[nz] = np.abs(new[nz] - old[nz]) / old[nz]
    out[~nz & (new != 0)] = 1.0
    return float(out.max())


def _stability_points(shares: np.ndarray, batch: int) -> list[StabilityPoint]:
    """Min/median/max movement over the first batch, 2 * batch, ... rows of ``shares``."""
    points: list[StabilityPoint] = []
    prev = None
    for done in [*range(batch, len(shares), batch), len(shares)]:
        sample = shares[:done]
        summary = (sample.min(axis=0), np.percentile(sample, 50, axis=0), sample.max(axis=0))
        if prev is None:
            points.append(StabilityPoint(done, 1.0, 1.0, 1.0))
        else:
            points.append(StabilityPoint(done, *map(_relative_delta, summary, prev)))
        prev = summary
    return points


def stability_trace(
    mapping: Mapping[str, set],
    batch: int = 100,
    max_permutations: int = 30_000,
    seed: int | None = 0,
) -> list[StabilityPoint]:
    """Grow one permutation sample batch by batch and track summary movement.

    After every batch the per-rank min/median/max shares are recomputed over
    all permutations drawn so far and compared to the previous batch's
    values; each point records the worst relative change. The first point
    has no predecessor and reports 1.0 by convention. Because batches extend
    one sequential sample from one generator, the final summaries equal a
    single :func:`permutation_ensemble` run at the same seed and size.
    """
    _check_mapping(mapping)
    _check_count("batch", batch)
    _check_count("max_permutations", max_permutations)
    shares, _ = _coverage_shares(mapping, max_permutations, seed)
    return _stability_points(shares, batch)


def _ensemble_and_trace(
    mapping: Mapping[str, set], n_permutations: int, batch: int, seed: int | None
) -> tuple[RankStatistics, list[StabilityPoint]]:
    """:func:`permutation_ensemble` and :func:`stability_trace` at ``max_permutations =
    n_permutations``, both from one sample: the orders are drawn once."""
    _check_mapping(mapping)
    _check_count("n_permutations", n_permutations)
    _check_count("batch", batch)
    shares, union_size = _coverage_shares(mapping, n_permutations, seed)
    return _rank_statistics(shares, union_size), _stability_points(shares, batch)


def capture_recapture(sample_a: Iterable[Hashable], sample_b: Iterable[Hashable]) -> int:
    """Two-sample population estimate |A| * |B| / |A n B|, rounded half away from zero.

    Requires both samples to be independent draws from a closed population.
    Raises :class:`EstimateUndefinedError` when the samples are disjoint;
    no overlap means the estimate diverges rather than being zero.
    """
    a = set(sample_a)
    b = set(sample_b)
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    overlap = len(a & b)
    if overlap == 0:
        raise EstimateUndefinedError(
            "capture-recapture estimate undefined: the samples do not overlap"
        )
    return math.floor(len(a) * len(b) / overlap + 0.5)


# -- CSV artifacts ----------------------------------------------------------

def write_greedy_csv(curve: ConvergenceCurve, path: str) -> None:
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rank", "sensor", "new_victims", "cumulative", "share"])
        for rank, sensor in enumerate(curve.sensors, 1):
            writer.writerow(
                [
                    rank,
                    sensor,
                    curve.new_victims[rank - 1],
                    curve.cumulative[rank - 1],
                    curve.shares[rank - 1],
                ]
            )


def write_rank_statistics_csv(stats: RankStatistics, path: str) -> None:
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rank", "min", "q1", "median", "q3", "max"])
        for rank in range(1, stats.n_ranks + 1):
            i = rank - 1
            writer.writerow(
                [
                    rank,
                    float(stats.mins[i]),
                    float(stats.q1[i]),
                    float(stats.medians[i]),
                    float(stats.q3[i]),
                    float(stats.maxs[i]),
                ]
            )


def write_stability_csv(points: Sequence[StabilityPoint], path: str) -> None:
    with open_artifact(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n_permutations", "dmin", "dmedian", "dmax"])
        for point in points:
            writer.writerow([point.n_permutations, point.dmin, point.dmedian, point.dmax])
