import dataclasses
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    exhaustive_rank_statistics,
    literal_rank_statistics,
    oracle_coverage_shares,
    oracle_greedy_order,
    oracle_rank_statistics,
    oracle_stability_points,
)
from honeyflow import convergence
from honeyflow.convergence import (
    GREEDY_MAX_COVERAGE,
    _CountSample,
    _ensemble_and_trace,
    GREEDY_STATIC_SORT,
    ConvergenceCurve,
    EstimateUndefinedError,
    capture_recapture,
    greedy_order,
    permutation_ensemble,
    sensor_victim_map,
    stability_trace,
    write_greedy_csv,
    write_rank_statistics_csv,
    write_stability_csv,
)
from honeyflow.detection import PRESETS, detect_attacks
from honeyflow.synth import AttackSpec, ScenarioSpec, synth, synth_sensor_victim_map


def random_map(rng, n_sensors=8, universe=40, p=0.3):
    return {
        f"s{i:02d}": {v for v in range(universe) if rng.random() < p}
        for i in range(n_sensors)
    }


def test_sensor_victim_map_from_attacks():
    spec = ScenarioSpec(
        seed=3,
        sensors=4,
        duration_s=400.0,
        attacks=(
            AttackSpec(victim="203.0.113.5", start=0.0, stop=120.0, sensors=(0, 1)),
            AttackSpec(victim="203.0.113.6", start=0.0, stop=120.0, sensors=(2,)),
        ),
    )
    corpus = synth(spec)
    mapping = sensor_victim_map(detect_attacks(corpus.events, PRESETS["ccc"]))
    by_victim = {s: {v.identity for v in vs} for s, vs in mapping.items()}
    assert by_victim == {
        "s01": {"203.0.113.5"},
        "s02": {"203.0.113.5"},
        "s03": {"203.0.113.6"},
    }


def test_greedy_curve_invariants():
    rng = random.Random(0)
    for _ in range(20):
        mapping = random_map(rng)
        union = set().union(*mapping.values())
        for strategy in (GREEDY_MAX_COVERAGE, GREEDY_STATIC_SORT):
            curve = greedy_order(mapping, strategy)
            assert sorted(curve.sensors) == sorted(mapping)
            assert sum(curve.new_victims) == curve.union_size == len(union)
            assert curve.cumulative[-1] == curve.union_size
            assert list(curve.cumulative) == list(np.cumsum(curve.new_victims))
            if union:
                assert curve.shares[-1] == 1.0


def test_greedy_max_coverage_gains_never_increase():
    # covering is submodular, so the greedy marginal gains are sorted
    rng = random.Random(1)
    for _ in range(30):
        curve = greedy_order(random_map(rng), GREEDY_MAX_COVERAGE)
        gains = list(curve.new_victims)
        assert gains == sorted(gains, reverse=True)


def test_greedy_picks_largest_marginal_gain():
    mapping = {"a": {1, 2, 3}, "b": {3, 4, 5, 6}, "c": {1, 2}}
    curve = greedy_order(mapping)
    # b opens with 4; then a adds {1,2} (2) beating c's {1,2} only via tie? no:
    # after b, a gains {1,2,3}-{3,4,5,6} = 2 and c gains 2: lexicographic tie -> a
    assert curve.sensors == ("b", "a", "c")
    assert curve.new_victims == (4, 2, 0)

    static = greedy_order(mapping, GREEDY_STATIC_SORT)
    assert static.sensors == ("b", "a", "c")


def test_greedy_tiebreak_is_lexicographic():
    mapping = {"z": {1}, "a": {2}, "m": {3}}
    assert greedy_order(mapping).sensors == ("a", "m", "z")


def test_greedy_static_sort_ignores_overlap():
    # static sort keeps the big overlapping set order; max-coverage reorders
    mapping = {"a": {1, 2, 3}, "b": {1, 2, 3, 4}, "c": {5, 6}}
    assert greedy_order(mapping, GREEDY_STATIC_SORT).sensors == ("b", "a", "c")
    assert greedy_order(mapping, GREEDY_MAX_COVERAGE).sensors == ("b", "c", "a")


def test_greedy_empty_union_and_errors():
    curve = greedy_order({"a": set(), "b": set()})
    assert curve.union_size == 0
    assert curve.shares == (1.0, 1.0)
    with pytest.raises(ValueError):
        greedy_order({})
    with pytest.raises(ValueError):
        greedy_order({"a": {1}}, strategy="random")


# few victims of mixed types, so gains tie often and no victim is a string by necessity
_GREEDY_VICTIMS = st.one_of(
    st.integers(0, 12), st.tuples(st.integers(0, 2), st.integers(0, 2)), st.sampled_from(["v", "w"]), st.none()
)


@settings(max_examples=300, deadline=None)
@given(
    mapping=st.dictionaries(
        st.text(alphabet="aAb0é", max_size=3), st.sets(_GREEDY_VICTIMS, max_size=10), min_size=1, max_size=9
    ),
    sees_all=st.one_of(st.none(), st.text(alphabet="aAb0é", max_size=3)),
)
@example(mapping={"a": set(), "b": set()}, sees_all=None)
@example(mapping={"z": {1}, "a": {2}, "m": {3}}, sees_all="q")
@example(mapping={"a": {1, 2, 3}, "b": {3, 4, 5, 6}, "c": {1, 2}}, sees_all=None)
@example(mapping={"s": {None, (0, 1), "v"}, "t": set()}, sees_all="")
def test_greedy_equals_set_oracle(mapping, sees_all):
    if sees_all is not None:
        mapping[sees_all] = set().union(*mapping.values())
    for strategy in (GREEDY_MAX_COVERAGE, GREEDY_STATIC_SORT):
        got, want = greedy_order(mapping, strategy), oracle_greedy_order(mapping, strategy)
        for field in dataclasses.fields(ConvergenceCurve):
            # repr compares the element types too: ints, not numpy scalars
            assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), (strategy, field.name)


def test_greedy_scales_to_many_sensors():
    # 200 sensors x 20 000 victims: the set-difference loop (oracle_greedy_order) is
    # O(sensors^2 x victims) and took 1.9 s on 2 cores (Python 3.11, numpy 2.4), the bitset steps 0.13 s
    mapping = synth_sensor_victim_map(200, 20000, 0.1, seed=0)
    start = time.perf_counter()
    curve = greedy_order(mapping)
    elapsed = time.perf_counter() - start
    assert curve.union_size == len(set().union(*mapping.values())) == curve.cumulative[-1]
    assert elapsed <= 1.0, elapsed


def test_ensemble_deterministic_and_ordered():
    mapping = random_map(random.Random(2))
    a = permutation_ensemble(mapping, n_permutations=500, seed=7)
    b = permutation_ensemble(mapping, n_permutations=500, seed=7)
    assert (a.medians == b.medians).all() and (a.mins == b.mins).all()
    c = permutation_ensemble(mapping, n_permutations=500, seed=8)
    assert not (a.medians == c.medians).all()

    # per-rank ordering of the five summaries, and monotone growth with rank
    for stats in (a, c):
        assert (stats.mins <= stats.q1).all()
        assert (stats.q1 <= stats.medians).all()
        assert (stats.medians <= stats.q3).all()
        assert (stats.q3 <= stats.maxs).all()
        assert (np.diff(stats.medians) >= 0).all()
        assert stats.mins[-1] == stats.maxs[-1] == 1.0
        assert stats.n_ranks == len(mapping)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        permutation_ensemble({})
    with pytest.raises(ValueError):
        permutation_ensemble({"a": {1}}, n_permutations=0)
    with pytest.raises(ValueError, match="^seed must be >= 0: -1$"):
        permutation_ensemble({"a": {1}}, seed=-1)
    with pytest.raises(ValueError, match="^n_permutations must be <= 10000000: 10000001$"):
        permutation_ensemble({"a": {1}}, n_permutations=10**7 + 1)
    assert permutation_ensemble({"a": {1}}, n_permutations=2, seed=None).n_permutations == 2


def test_oracle_forms_agree_exactly():
    # the subset-multiset construction must reproduce literal enumeration
    rng = random.Random(4)
    mapping = random_map(rng, n_sensors=6, universe=15, p=0.35)
    literal = literal_rank_statistics(mapping)
    subset = exhaustive_rank_statistics(mapping)
    for lit, sub in zip(literal, subset):
        np.testing.assert_array_equal(lit, sub)


def test_ensemble_approaches_exhaustive_statistics():
    mapping = random_map(random.Random(5), n_sensors=6, universe=20, p=0.3)
    exact = exhaustive_rank_statistics(mapping)
    stats = permutation_ensemble(mapping, n_permutations=4000, seed=0)
    for est, ref in zip((stats.mins, stats.q1, stats.medians, stats.q3, stats.maxs), exact):
        assert np.abs(est - ref).max() < 0.05


def test_sampler_mean_matches_exact_expected_coverage():
    # A victim seen by d of n sensors is among the first r of a uniform random
    # order with probability 1 - C(n - d, r) / C(n, r); summed over victims and
    # divided by the union this is the exact per-rank mean share, checkable at
    # n = 50 where the n! orders cannot be enumerated.
    mapping = synth_sensor_victim_map(50, 2000, 0.165, seed=42)
    n = len(mapping)
    degree: dict = {}
    for victims in mapping.values():
        for victim in victims:
            degree[victim] = degree.get(victim, 0) + 1
    union = len(degree)
    expected = np.array(
        [
            sum(1 - math.comb(n - d, r) / math.comb(n, r) for d in degree.values()) / union
            for r in range(1, n + 1)
        ]
    )

    sample = _CountSample(mapping, seed=0)
    sample.extend(4000)
    assert sample.union_size == union and sample.hist.shape == (n, union + 1)
    assert (sample.hist.sum(axis=1) == 4000).all()
    shares = np.arange(union + 1) / union
    mean = sample.hist @ shares / 4000
    variance = (sample.hist @ shares**2 - 4000 * mean**2) / (4000 - 1)
    stderr = np.sqrt(np.maximum(variance, 0.0)) / math.sqrt(4000)
    deviation = np.abs(mean - expected)
    assert (deviation <= 5 * stderr + 1e-12).all(), float((deviation / (stderr + 1e-12)).max())
    assert sample.hist[-1, union] == 4000


def test_one_sample_gives_ensemble_and_trace():
    mapping = random_map(random.Random(7))
    stats, points = _ensemble_and_trace(mapping, n_permutations=450, batch=100, seed=4)
    ensemble = permutation_ensemble(mapping, n_permutations=450, seed=4)
    for field in ("mins", "q1", "medians", "q3", "maxs"):
        np.testing.assert_array_equal(getattr(stats, field), getattr(ensemble, field))
    assert (stats.n_permutations, stats.union_size) == (450, ensemble.union_size)
    assert points == stability_trace(mapping, batch=100, max_permutations=450, seed=4)
    assert [p.n_permutations for p in points] == [100, 200, 300, 400, 450]

    # checks run in the order of the two calls it replaces
    with pytest.raises(ValueError, match="^sensor map must be non-empty$"):
        _ensemble_and_trace({}, 0, 0, 0)
    with pytest.raises(ValueError, match="^n_permutations must be >= 1: 0$"):
        _ensemble_and_trace(mapping, 0, 0, 0)
    with pytest.raises(ValueError, match="^batch must be >= 1: 0$"):
        _ensemble_and_trace(mapping, 5, 0, 0)
    with pytest.raises(ValueError, match="^seed must be >= 0: -1$"):
        _ensemble_and_trace(mapping, 5, 1, -1)


def _assert_matches_oracle(mapping, n, batch, seed):
    shares, union_size = oracle_coverage_shares(mapping, n, seed)
    expected = oracle_rank_statistics(shares, union_size)
    expected_points = oracle_stability_points(shares, batch)
    stats, points = _ensemble_and_trace(mapping, n, batch, seed)
    for got in (stats, permutation_ensemble(mapping, n_permutations=n, seed=seed)):
        assert (got.n_permutations, got.union_size) == (n, union_size)
        for field in ("mins", "q1", "medians", "q3", "maxs"):
            assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field
    assert points == expected_points
    assert stability_trace(mapping, batch=batch, max_permutations=n, seed=seed) == expected_points


@settings(max_examples=150, deadline=None)
@given(
    rnd=st.randoms(use_true_random=False),
    n_sensors=st.integers(1, 12),
    union=st.sampled_from([0, 1, 2, 7, 63, 64, 65, 128]),
    n=st.integers(1, 40),
    batch=st.integers(1, 50),
    seed=st.integers(0, 2**32),
    chunk_bytes=st.sampled_from([1, 200, None]),
)
@example(rnd=random.Random(0), n_sensors=1, union=0, n=1, batch=1, seed=0, chunk_bytes=None)
@example(rnd=random.Random(1), n_sensors=1, union=64, n=3, batch=7, seed=1, chunk_bytes=1)
@example(rnd=random.Random(2), n_sensors=5, union=0, n=6, batch=4, seed=2, chunk_bytes=None)
@example(rnd=random.Random(3), n_sensors=9, union=65, n=4, batch=1, seed=3, chunk_bytes=1)
@example(rnd=random.Random(4), n_sensors=9, union=128, n=5, batch=2, seed=4, chunk_bytes=None)
@example(rnd=random.Random(5), n_sensors=9, union=63, n=2, batch=40, seed=5, chunk_bytes=200)
def test_sample_equals_shares_matrix_oracle(rnd, n_sensors, union, n, batch, seed, chunk_bytes):
    # every victim 0..union-1 is seen by at least one sensor, so the union is exact;
    # sensors are inserted out of id order, and orders permute the sorted ids
    sensors = [f"s{i:02d}" for i in range(n_sensors)]
    rnd.shuffle(sensors)
    mapping = {sensor: set() for sensor in sensors}
    p = rnd.random()
    for victim in range(union):
        seen = [s for s in sensors if rnd.random() < p] or [rnd.choice(sensors)]
        for sensor in seen:
            mapping[sensor].add(victim)
    with pytest.MonkeyPatch.context() as patch:
        if chunk_bytes is not None:
            patch.setattr(convergence, "_CHUNK_BYTES", chunk_bytes)
        _assert_matches_oracle(mapping, n, batch, seed)


@settings(max_examples=300, deadline=None)
@given(
    union=st.sampled_from([0, 1, 3, 7, 64, 2000]),
    data=st.data(),
)
def test_histogram_percentiles_equal_numpy(union, data):
    # any counts, not only sampled ones, so neighbouring order statistics
    # differ often and both of numpy's interpolation branches round visibly
    n = data.draw(st.integers(1, 30), label="n")
    ranks = data.draw(st.integers(1, 4), label="ranks")
    counts = np.array(
        data.draw(st.lists(st.lists(st.integers(0, union), min_size=ranks, max_size=ranks),
                           min_size=n, max_size=n), label="counts")
    )
    sample = _CountSample({f"s{i}": {0} for i in range(ranks)}, seed=0)
    sample.union_size, sample.size = union, n
    sample.hist = np.stack([np.bincount(column, minlength=union + 1) for column in counts.T])
    sample._band = np.zeros(ranks, np.intp), np.full(ranks, union)  # every row whole
    shares = counts / union if union else np.ones(counts.shape)
    expected = [shares.min(axis=0), *np.percentile(shares, [25, 50, 75], axis=0), shares.max(axis=0)]
    for got, want in zip(sample.shares(0.0, 0.25, 0.5, 0.75, 1.0), expected):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    union=st.sampled_from([0, 1, 3, 7, 64, 2000]),
    data=st.data(),
)
def test_banded_percentiles_equal_numpy(union, data):
    # the same as above with each rank's band set to its lowest and highest count, as
    # extend tracks it, so only the band's cumulative counts are summed
    n = data.draw(st.integers(1, 30), label="n")
    ranks = data.draw(st.integers(1, 4), label="ranks")
    counts = np.array(
        data.draw(st.lists(st.lists(st.integers(0, union), min_size=ranks, max_size=ranks),
                           min_size=n, max_size=n), label="counts")
    )
    sample = _CountSample({f"s{i}": {0} for i in range(ranks)}, seed=0)
    sample.union_size, sample.size = union, n
    sample.hist = np.stack([np.bincount(column, minlength=union + 1) for column in counts.T])
    sample._band = counts.min(axis=0), counts.max(axis=0)
    shares = counts / union if union else np.ones(counts.shape)
    expected = [shares.min(axis=0), *np.percentile(shares, [25, 50, 75], axis=0), shares.max(axis=0)]
    for got, want in zip(sample.shares(0.0, 0.25, 0.5, 0.75, 1.0), expected):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batches", [[1], [3, 1, 40], [100, 100]])
def test_extend_tracks_each_ranks_band(batches):
    sample = _CountSample(synth_sensor_victim_map(12, 300, 0.165, seed=3), seed=4)
    for n in batches:
        sample.extend(n)
        low, high = sample._band
        for row, a, b in zip(sample.hist, low.tolist(), high.tolist()):
            assert row[a] > 0 and row[b] > 0 and row[:a].sum() == row[b + 1:].sum() == 0


def test_sample_equals_oracle_on_platform_map():
    # 50 sensors and a 2000-victim union: 32 words per sensor and several chunks per batch
    mapping = synth_sensor_victim_map(50, 2000, 0.165, seed=0)
    _assert_matches_oracle(mapping, 301, 100, 9)


def test_ensemble_and_trace_scale_linearly():
    # 10^5 orders in batches of 100: the shares matrix alone would be 40 MB,
    # and re-summarising every prefix would take minutes
    mapping = synth_sensor_victim_map(50, 2000, 0.165, seed=0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        stats, points = _ensemble_and_trace(mapping, 10**5, 100, 0)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.n_permutations == 10**5 and len(points) == 1000
    assert elapsed <= 15.0, elapsed
    assert peak <= 16 * 2**20, peak


def test_empty_union_shares_are_one():
    stats = permutation_ensemble({"a": set(), "b": set()}, n_permutations=3, seed=0)
    assert stats.union_size == 0
    for summary in (stats.mins, stats.q1, stats.medians, stats.q3, stats.maxs):
        np.testing.assert_array_equal(summary, [1.0, 1.0])


def test_stability_trace_shape_and_convention():
    mapping = synth_sensor_victim_map(12, 300, coverage=0.2, seed=1)
    points = stability_trace(mapping, batch=50, max_permutations=220, seed=0)
    assert [p.n_permutations for p in points] == [50, 100, 150, 200, 220]
    assert (points[0].dmin, points[0].dmedian, points[0].dmax) == (1.0, 1.0, 1.0)
    assert all(p.dmedian >= 0 for p in points)


def test_stability_deltas_match_ensemble_pair():
    # the trace grows one sequential sample, so its summaries at size k equal
    # a fresh ensemble of size k with the same seed
    mapping = random_map(random.Random(6))
    points = stability_trace(mapping, batch=200, max_permutations=400, seed=3)
    small = permutation_ensemble(mapping, n_permutations=200, seed=3)
    big = permutation_ensemble(mapping, n_permutations=400, seed=3)

    def delta(new, old):
        out = np.zeros_like(new)
        nz = old != 0
        out[nz] = np.abs(new[nz] - old[nz]) / old[nz]
        out[~nz & (new != 0)] = 1.0
        return float(out.max())

    assert points[1].dmedian == delta(big.medians, small.medians)
    assert points[1].dmin == delta(big.mins, small.mins)
    assert points[1].dmax == delta(big.maxs, small.maxs)


def test_stability_validation():
    with pytest.raises(ValueError):
        stability_trace({})
    with pytest.raises(ValueError):
        stability_trace({"a": {1}}, batch=0)
    with pytest.raises(ValueError):
        stability_trace({"a": {1}}, max_permutations=0)
    with pytest.raises(ValueError, match="^seed must be >= 0: -1$"):
        stability_trace({"a": {1}}, seed=-1)
    with pytest.raises(ValueError, match="^batch must be <= 10000000: 10000001$"):
        stability_trace({"a": {1}}, batch=10**7 + 1)
    with pytest.raises(ValueError, match="^max_permutations must be <= 10000000: 10000001$"):
        stability_trace({"a": {1}}, max_permutations=10**7 + 1)


def test_capture_recapture_values():
    assert capture_recapture(range(100), range(100)) == 100
    assert capture_recapture(range(100), range(50, 200)) == 300
    # 3 * 3 / 2 = 4.5 rounds half away from zero
    assert capture_recapture({1, 2, 3}, {2, 3, 4}) == 5


def test_capture_recapture_errors():
    with pytest.raises(ValueError):
        capture_recapture([], [1])
    with pytest.raises(EstimateUndefinedError):
        capture_recapture({1, 2}, {3, 4})
    # EstimateUndefinedError is a ValueError so one except clause handles both
    assert issubclass(EstimateUndefinedError, ValueError)


def test_csv_writers(tmp_path):
    mapping = {"a": {1, 2}, "b": {2, 3}}
    curve = greedy_order(mapping)
    greedy_path = tmp_path / "greedy.csv"
    write_greedy_csv(curve, str(greedy_path))
    lines = greedy_path.read_text().splitlines()
    assert lines[0] == "rank,sensor,new_victims,cumulative,share"
    assert lines[1] == "1,a,2,2,0.6666666666666666"
    assert lines[2] == "2,b,1,3,1.0"

    stats = permutation_ensemble(mapping, n_permutations=10, seed=0)
    stats_path = tmp_path / "stats.csv"
    write_rank_statistics_csv(stats, str(stats_path))
    lines = stats_path.read_text().splitlines()
    assert lines[0] == "rank,min,q1,median,q3,max"
    assert len(lines) == 3

    points = stability_trace(mapping, batch=5, max_permutations=10, seed=0)
    stab_path = tmp_path / "stability.csv"
    write_stability_csv(points, str(stab_path))
    lines = stab_path.read_text().splitlines()
    assert lines[0] == "n_permutations,dmin,dmedian,dmax"
    assert lines[1].startswith("5,1.0,1.0,1.0")
