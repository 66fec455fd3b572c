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

Both the greedy order and the random ones run over packed uint64 victim
bitsets, a row per sensor. Random orders are drawn in chunks and gathered
rank-major, one contiguous block per rank holding that rank's sensor of
every order, so a rank's coverage is one OR of the block before it into its
own. Each order only adds its covered counts to one histogram per rank, so
the sample is never held, and every summary reads the histograms with one
binary search over their cumulative counts.

Capture-recapture lives here too: the two-sample population estimate used
to extrapolate how many victims exist beyond any sensor's view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .events import _write_csv

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


def _victim_words(mapping: Mapping[str, set]) -> tuple[np.ndarray, int]:
    """Packed uint64 victim bitsets, a row per sensor in sorted id order, and the union size."""
    index: dict[Hashable, int] = {}
    rows = [[index.setdefault(v, len(index)) for v in mapping[s]] for s in sorted(mapping)]
    bits = np.zeros((len(rows), -(-len(index) // 64) * 64), dtype=bool)
    for row, victims in zip(bits, rows):
        row[victims] = True
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64), len(index)


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

    sensors = sorted(mapping)
    words, union_size = _victim_words(mapping)
    if strategy == GREEDY_STATIC_SORT:
        order = sorted(range(len(sensors)), key=lambda i: -len(mapping[sensors[i]]))  # stable: ties in id order
    else:
        # rows are in sensor id order and argmax takes the first largest gain, so ties break
        # lexicographically; a picked row gains 0 from then on, so it is masked below any real gain
        unseen = words.copy()
        order = []
        for _ in sensors:
            gains = np.bitwise_count(unseen).sum(axis=1, dtype=np.int64)
            gains[order] = -1
            order.append(int(gains.argmax()))
            unseen &= ~words[order[-1]]

    counts = np.bitwise_count(np.bitwise_or.accumulate(words[order], axis=0)).sum(axis=1, dtype=np.int64)
    cumulative = counts.tolist()
    if union_size:
        shares = tuple(c / union_size for c in cumulative)
    else:
        shares = tuple(1.0 for _ in cumulative)
    return ConvergenceCurve(
        sensors=tuple(sensors[i] for i in order),
        new_victims=tuple(np.diff(counts, prepend=0).tolist()),
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


# the largest count or batch accepted: on 50 sensors x 2000 victims (2 cores, numpy 2.4) about 60 s
# of drawing at 6 us per order, and twice that when a trace reads its summaries every 100 orders
_MAX_COUNT = 10**7


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1: {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"{name} must be <= {_MAX_COUNT}: {value}")


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0: {seed}")


# bytes of victim words gathered per chunk of orders. On 50 sensors x 2000 victims (2 cores, numpy
# 2.4) 1-4 MB chunks drew 5-7 us per order, 0.5 MB 7-8 us and 0.25 MB 10-17 us, where the per-rank
# calls dominate. At 2 MB a batch of 100 orders is one chunk.
_CHUNK_BYTES = 2 << 20


class _CountSample:
    """Random deployment orders as histograms: ``hist[r - 1, c]`` counts the orders whose
    first ``r`` sensors cover ``c`` victims. Order i is the i-th permutation of the sorted
    sensor ids from ``default_rng(seed)``, however the draws are chunked."""

    def __init__(self, mapping: Mapping[str, set], seed: int | None) -> None:
        self.words, self.union_size = _victim_words(mapping)  # a row per sensor
        n_sensors, n_words = self.words.shape
        self.hist = np.zeros((n_sensors, self.union_size + 1), dtype=np.int64)
        self.size = 0
        # per rank, the lowest and highest count drawn: the band of its histogram that is not 0
        self._band: tuple[np.ndarray, np.ndarray] | None = None
        self._rng = np.random.default_rng(seed)
        self._chunk = max(1, _CHUNK_BYTES // (self.words.nbytes + 8 * n_sensors))
        self._covered = np.empty(self._chunk * self.words.size, dtype=np.uint64)
        self._bits = np.empty(self._covered.shape, dtype=np.uint8)
        # int32 holds any count: before a union reaches 2**31 its histograms need 16 GB per rank,
        # and its sums ran 1.5x faster than int64 ones
        self._counts = np.empty(self._chunk * n_sensors, dtype=np.int32)

    def extend(self, n: int) -> None:
        """Draw ``n`` more orders and add the victims each rank covers to the histograms."""
        n_sensors, n_words = self.words.shape
        offsets = np.arange(n_sensors)[:, None] * (self.union_size + 1)
        for start in range(0, n, self._chunk):
            k = min(self._chunk, n - start)
            orders = self._rng.permuted(np.tile(np.arange(n_sensors), (k, 1)), axis=1)
            # rank-major: covered[r] holds rank r + 1 of all k orders as one contiguous block;
            # every index is in range, "clip" only spares take its buffered bounds check
            covered = self._covered[: k * self.words.size].reshape(n_sensors, k, n_words)
            np.take(self.words, orders.T, axis=0, out=covered, mode="clip")
            for rank in range(1, n_sensors):
                np.bitwise_or(covered[rank], covered[rank - 1], out=covered[rank])
            bits = np.bitwise_count(covered, out=self._bits[: covered.size].reshape(covered.shape))
            counts = self._counts[: n_sensors * k].reshape(n_sensors, k)
            np.add.reduce(bits, axis=2, dtype=np.int32, out=counts)  # ndarray.sum took 0.45 MB more peak RSS
            self.hist += np.bincount((counts + offsets).ravel(), minlength=self.hist.size).reshape(self.hist.shape)
            low, high = counts.min(axis=1), counts.max(axis=1)
            if self._band is not None:
                low, high = np.minimum(low, self._band[0]), np.maximum(high, self._band[1])
            self._band = low, high
        self.size += n

    def shares(self, *quantiles: float) -> list[np.ndarray]:
        """Per-rank shares at quantiles in [0, 1] (0 is the min, 1 the max), exactly as
        ``np.percentile``'s linear method gives them; 1.0 when the union is empty."""
        n, union = self.size, self.union_size
        rows = np.arange(len(self.hist))
        low, high = self._band
        # The j-th smallest count (from 0) is how many cumulative counts are <= j: every count below a
        # rank's band, and those of its band up to j. Each band sums to n, so laid end to end rank r's
        # cumulative counts lie in [r * n, (r + 1) * n], and needles r * n + j with j < n let one search
        # read every rank.
        cumulative = np.concatenate([row[a : b + 1] for row, a, b in zip(self.hist, low.tolist(), high.tolist())])
        np.cumsum(cumulative, out=cumulative)
        widths = high - low + 1
        band_start = np.cumsum(widths) - widths
        virtual = [n * q + (1 - q) - 1 for q in quantiles]
        below = [math.floor(v) for v in virtual]
        # j + 1 past the largest (j = n - 1, where t is 0) reads the largest, as numpy's clipped read does
        needles = np.minimum([(j, j + 1) for j in below], n - 1)[:, :, None] + rows * n
        counts = np.searchsorted(cumulative, needles, side="right") - band_start + low
        out = []
        for v, j, pair in zip(virtual, below, counts):
            t = v - j
            a, b = (c / union if union else np.ones(len(c)) for c in pair)
            # numpy's _lerp works from b when t >= 0.5
            out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
        return out

    def statistics(self) -> RankStatistics:
        return RankStatistics(self.size, self.union_size, *self.shares(0.0, 0.25, 0.5, 0.75, 1.0))


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
        seed: numpy Generator seed, non-negative or None; a fixed seed makes
            the ensemble reproducible bit for bit.

    Returns:
        RankStatistics with min / q1 / median / q3 / max of the coverage
        share at every rank.
    """
    return _ensemble_and_trace(mapping, n_permutations, n_permutations, seed)[0]


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


def _stability_points(sample: _CountSample, n: int, batch: int) -> list[StabilityPoint]:
    """Grow ``sample`` to batch, 2 * batch, ..., ``n`` orders and track its min/median/max movement."""
    points: list[StabilityPoint] = []
    prev = None
    while sample.size < n:
        sample.extend(min(batch, n - sample.size))
        summary = sample.shares(0.0, 0.5, 1.0)
        deltas = (1.0, 1.0, 1.0) if prev is None else map(_relative_delta, summary, prev)
        points.append(StabilityPoint(sample.size, *deltas))
        prev = summary
    return points


def stability_trace(
    mapping: Mapping[str, set],
    batch: int = 100,
    max_permutations: int = 30_000,
    seed: int | None = 0,
) -> list[StabilityPoint]:
    """Grow one permutation sample batch by batch and track summary movement.

    After every batch the per-rank min/median/max shares are read from
    count histograms of all permutations drawn so far, at O(ranks x union)
    per batch, and compared to the previous batch's values; each point
    records the worst relative change. The first point has no predecessor
    and reports 1.0 by convention. Because batches extend one sequential
    sample from one generator, the final summaries equal a single
    :func:`permutation_ensemble` run at the same seed and size.
    """
    _check_mapping(mapping)
    _check_count("batch", batch)
    _check_count("max_permutations", max_permutations)
    _check_seed(seed)
    return _stability_points(_CountSample(mapping, seed), max_permutations, batch)


def _ensemble_and_trace(
    mapping: Mapping[str, set], n_permutations: int, batch: int, seed: int | None
) -> tuple[RankStatistics, list[StabilityPoint]]:
    """:func:`permutation_ensemble` and :func:`stability_trace` at ``max_permutations =
    n_permutations``, both from one sample: the orders are drawn once."""
    _check_mapping(mapping)
    _check_count("n_permutations", n_permutations)
    _check_count("batch", batch)
    _check_seed(seed)
    sample = _CountSample(mapping, seed)
    points = _stability_points(sample, n_permutations, batch)
    return sample.statistics(), points


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
    rows = zip(count(1), curve.sensors, curve.new_victims, curve.cumulative, curve.shares)
    _write_csv(path, ["rank", "sensor", "new_victims", "cumulative", "share"], rows)


def write_rank_statistics_csv(stats: RankStatistics, path: str) -> None:
    columns = (stats.mins, stats.q1, stats.medians, stats.q3, stats.maxs)
    rows = ([rank, *map(float, values)] for rank, *values in zip(count(1), *columns))
    _write_csv(path, ["rank", "min", "q1", "median", "q3", "max"], rows)


def write_stability_csv(points: Sequence[StabilityPoint], path: str) -> None:
    rows = ([point.n_permutations, point.dmin, point.dmedian, point.dmax] for point in points)
    _write_csv(path, ["n_permutations", "dmin", "dmedian", "dmax"], rows)
