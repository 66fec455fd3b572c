"""Acceptance gate: ten end-to-end criteria, one test each.

Each test prints a single ``[C#] PASS`` line on success; a failing criterion
shows up as the corresponding FAILED test. Numeric tolerances and runtime
budgets are pinned in the asserts, not in comments, so they cannot drift.
"""

import hashlib
import json
import os
import random
import statistics
import time

import numpy as np

from helpers import (
    exhaustive_rank_statistics,
    flows_to_index_partition,
    make_random_trace,
    oracle_group_indices,
    oracle_split_gaps,
)
from honeyflow.cli import main as cli_main
from honeyflow.completeness import (
    CLASS_ATTACK,
    CLASS_SCAN_ONLY,
    CLASS_UNSEEN,
    classify_sources,
    overlap_report,
)
from honeyflow.convergence import (
    capture_recapture,
    greedy_order,
    permutation_ensemble,
    stability_trace,
)
from honeyflow.detection import PRESETS, AttackThresholds, detect, detect_attacks, victims
from honeyflow.events import ScannerList, write_profiles, write_scanner_list
from honeyflow.evasion import BUILTIN_PROFILES, evasion_rows
from honeyflow.flows import assemble
from honeyflow.sweep import sweep
from honeyflow.synth import (
    AttackSpec,
    ScanSpec,
    ScenarioSpec,
    spec_to_dict,
    synth,
    synth_sensor_victim_map,
    write_corpus,
)

FLAG_COLUMNS = ("amppotmod", "ccc", "newkid", "hpi")


def test_c01_request_table_exact():
    started = time.monotonic()
    rows = {row["protocol"]: row for row in evasion_rows(platform_sensor_count=8)}
    expected = {
        "QOTD":    (17.9, 576, (1, 1, 1, 1)),
        "CharGen": (7.0, 234, (1, 1, 1, 1)),
        "DNS":     (24.7, 13, (1, 1, 1, 0)),
        "NTP":     (5.2, 2, (0, 0, 0, 0)),
        "LDAP":    (11.4, 1430, (1, 1, 1, 1)),
        "SSDP":    (13.4, 7, (0, 1, 1, 0)),
    }
    assert set(rows) == set(expected)
    for name, (millions, per_amplifier, flags) in expected.items():
        row = rows[name]
        assert row["reqs_attack_millions"] == millions, name
        assert row["reqs_amplifier"] == per_amplifier, name
        got = tuple(int(row[c]) for c in FLAG_COLUMNS)
        assert got == flags, (name, got)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\n[C1] PASS request table: 6 rows, 24 detection flags exact ({elapsed:.3f}s)")


def test_c02_flow_assembly_matches_oracle():
    started = time.monotonic()
    distinct = {}
    for preset in PRESETS.values():
        distinct.setdefault(preset.scheme, preset.name)
    assert len(distinct) == 4  # amppot/amppotmod and ccc/hpi share keys
    timeouts = (60.0, 600.0, 900.0, 3600.0)

    rng = random.Random(20_240_001)
    checked = 0
    for _ in range(100):
        events = make_random_trace(rng, 10_000)
        for scheme in distinct:
            grouped = oracle_group_indices(events, scheme)
            for timeout in timeouts:
                engine = flows_to_index_partition(assemble(events, scheme, timeout))
                assert engine == oracle_split_gaps(events, grouped, timeout)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"\n[C2] PASS flow assembly equals oracle on 100 x 10k-event traces, "
        f"all 6 preset schemes (4 distinct keys) x 4 timeouts, {checked} partitions ({elapsed:.1f}s)"
    )


def test_c03_monotonicity_zero_violations():
    timeouts = (60.0, 600.0, 900.0, 3600.0)
    loads = (1, 5, 20, 100)
    rng = random.Random(33)
    violations = 0
    for _ in range(50):
        events = make_random_trace(rng, 2000)
        for preset_name in ("ccc", "amppotmod", "newkid-mono"):
            scheme = PRESETS[preset_name].scheme

            def victim_set(timeout, load):
                cell = AttackThresholds(name="m", idle_timeout=timeout, min_packets=load)
                return victims(detect(assemble(events, scheme, timeout), cell))

            by_timeout = [victim_set(t, 5) for t in timeouts]
            for small, big in zip(by_timeout, by_timeout[1:]):
                if not small <= big:
                    violations += 1
            by_load = [victim_set(600.0, l) for l in loads]
            for low, high in zip(by_load, by_load[1:]):
                if not high <= low:
                    violations += 1

        # platform scope sees everything any single sensor sees
        per_sensor = victims(
            detect(
                assemble(events, PRESETS["ccc"].scheme, 600.0),
                AttackThresholds(name="m", idle_timeout=600.0, min_packets=5),
            )
        )
        platform = victims(
            detect(
                assemble(events, PRESETS["amppotmod"].scheme, 600.0),
                AttackThresholds(name="m", idle_timeout=600.0, min_packets=5),
            )
        )
        if not {v.identity for v in per_sensor} <= {v.identity for v in platform}:
            violations += 1

    assert violations == 0
    print(
        "\n[C3] PASS monotonicity on 50 traces: victims grow with timeout, "
        "shrink with load, platform scope is a superset; 0 violations"
    )


def test_c04_sweep_equals_fresh_recomputation():
    events = make_random_trace(random.Random(44), 5000)
    timeouts = [30.0, 60.0, 300.0, 600.0, 900.0, 3600.0]
    loads = [1, 2, 5, 20, 50, 100]
    scheme = PRESETS["ccc"].scheme
    grid = sweep(events, scheme, timeouts, loads)
    for timeout in timeouts:
        flows = assemble(events, scheme, timeout)
        for load in loads:
            cell = AttackThresholds(name="ref", idle_timeout=timeout, min_packets=load)
            detected = detect(flows, cell)
            expected = (sum(len(e.flows) for e in detected), len(victims(detected)))
            assert grid.cell(timeout, load) == expected, (timeout, load)
    print("\n[C4] PASS 6x6 sweep grid equals per-cell recomputation bit-exact on 5k events")


def test_c05_convergence_statistics():
    started = time.monotonic()
    small = synth_sensor_victim_map(10, 200, coverage=0.3, seed=7)
    large = synth_sensor_victim_map(50, 2000, coverage=0.165, seed=42)

    for mapping, n_perms in ((small, 30_000), (large, 2_000)):
        union = set().union(*mapping.values())
        curve = greedy_order(mapping)
        assert list(curve.cumulative) == sorted(curve.cumulative)
        assert curve.cumulative[-1] == len(union)
        stats = permutation_ensemble(mapping, n_permutations=n_perms, seed=0)
        # every sampled order ends at the union: min == max == 1 at full rank
        assert stats.mins[-1] == 1.0 and stats.maxs[-1] == 1.0
        assert (stats.mins <= stats.q1).all()
        assert (stats.q1 <= stats.medians).all()
        assert (stats.medians <= stats.q3).all()
        assert (stats.q3 <= stats.maxs).all()

    exact = exhaustive_rank_statistics(small)
    sampled = permutation_ensemble(small, n_permutations=30_000, seed=0)
    worst = 0.0
    for est, ref in zip(
        (sampled.mins, sampled.q1, sampled.medians, sampled.q3, sampled.maxs), exact
    ):
        worst = max(worst, float(np.abs(est - ref).max()))
    assert worst <= 0.02, f"worst deviation {worst:.4f}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"\n[C5] PASS convergence: curves monotone and total, 30k-sample statistics "
        f"within {worst:.4f} (<= 0.02) of exhaustive enumeration at every rank ({elapsed:.1f}s)"
    )


def test_c06_median_stabilizes_before_25k():
    mapping = synth_sensor_victim_map(50, 2000, coverage=0.165, seed=42)
    points = stability_trace(mapping, batch=100, max_permutations=30_000, seed=0)
    crossing = next(p.n_permutations for p in points[1:] if p.dmedian < 0.02)
    assert crossing < 25_000, f"median delta first below 2% at {crossing}"
    print(
        f"\n[C6] PASS 50-sensor stability: per-batch median delta below 2% "
        f"from {crossing} permutations (< 25000)"
    )


def _overlap_scenario(seed, n_attacks, baseline_events, overlap):
    attacks = tuple(
        AttackSpec(
            victim=f"203.0.113.{i + 1}",
            dst_port=123,
            start=30.0 * i,
            stop=30.0 * i + 120.0,
            rate_pps=0.5,
        )
        for i in range(n_attacks)
    )
    return ScenarioSpec(
        seed=seed,
        sensors=5,
        duration_s=1200.0,
        attacks=attacks,
        noise_packets=100,
        baseline_events=baseline_events,
        baseline_overlap=overlap,
    )


def test_c07_planted_overlap_recovered_exactly():
    corpus = synth(_overlap_scenario(seed=77, n_attacks=11, baseline_events=100, overlap=0.11))
    assert corpus.baseline_matched == 11
    attacks = detect_attacks(corpus.events, PRESETS["ccc"])
    report = overlap_report(attacks, corpus.events, corpus.baseline, slack_s=0.0)
    assert report.baseline_with_ports == 100
    assert report.matched_with_ports == 11
    assert report.detector_share == 0.11
    assert round(report.detector_share * 100, 1) == 11.0
    # the upper bound hits exactly the reachable maximum: the 11 planted records
    assert report.upper_with_ports == corpus.baseline_matched == 11

    rng = random.Random(7000)
    for seed in range(100):
        n_attacks = rng.randint(1, 6)
        n_baseline = rng.randint(5, 20)
        overlap = rng.uniform(0.0, 1.0) * n_attacks / n_baseline
        corpus = synth(_overlap_scenario(seed, n_attacks, n_baseline, overlap))
        attacks = detect_attacks(corpus.events, PRESETS["ccc"])
        report = overlap_report(attacks, corpus.events, corpus.baseline, slack_s=0.0)
        assert report.matched_with_ports <= report.upper_with_ports, seed
        for port, row in report.per_protocol.items():
            assert row.matched_by_detector <= row.matched_upper_bound, (seed, port)
    print(
        "\n[C7] PASS planted 11.0% baseline overlap recovered exactly; upper bound "
        "equals reachable maximum; detector <= upper on 100 random corpora"
    )


def test_c08_scanner_classification():
    n_sensors = 10
    scan_sources = [f"10.1.{(i + 1) >> 8}.{(i + 1) & 255}" for i in range(1000)]
    attack_victims = [f"10.2.0.{i + 1}" for i in range(50)]
    unseen = [f"10.3.0.{i + 1}" for i in range(100)]

    spec = ScenarioSpec(
        seed=88,
        sensors=n_sensors,
        duration_s=700.0,
        attacks=tuple(
            AttackSpec(
                victim=victim,
                dst_port=123,
                start=(i % 8) * 60.0,
                stop=(i % 8) * 60.0 + 120.0,
                rate_pps=0.25,  # 30 packets per sensor, 300 platform-wide
            )
            for i, victim in enumerate(attack_victims)
        ),
        scans=tuple(
            ScanSpec(source=source, ports=(123,), start=i * 0.5, spacing_s=0.01)
            for i, source in enumerate(scan_sources)
        ),
    )
    corpus = synth(spec)
    listed = ScannerList(sources=frozenset(scan_sources + attack_victims + unseen))

    ccc = PRESETS["ccc"]
    result = classify_sources(listed, corpus.events, ccc.scheme, ccc.thresholds)
    expected = {s: CLASS_SCAN_ONLY for s in scan_sources}
    expected.update({v: CLASS_ATTACK for v in attack_victims})
    expected.update({u: CLASS_UNSEEN for u in unseen})
    mistakes = {s for s, c in result.classes.items() if c != expected[s]}
    assert not mistakes, sorted(mistakes)[:5]

    mod = PRESETS["amppotmod"]
    mod_result = classify_sources(listed, corpus.events, mod.scheme, mod.thresholds)
    assert mod_result.shares[CLASS_ATTACK] <= result.shares[CLASS_ATTACK]
    print(
        "\n[C8] PASS 1150 listed sources classified with 100% accuracy under the "
        "per-sensor preset; platform preset never raises the attack share"
    )


def test_c09_capture_recapture():
    for n in (1, 10, 200, 1000):
        assert capture_recapture(range(n), range(n)) == n

    population = [f"v{i:04d}" for i in range(1000)]
    estimates = []
    for seed in range(100):
        rng = random.Random(seed)
        first = rng.sample(population, 200)
        second = rng.sample(population, 200)
        estimates.append(capture_recapture(first, second))
    median = statistics.median(estimates)
    assert abs(median - 1000) <= 150, f"median estimate {median}"
    print(
        f"\n[C9] PASS capture-recapture: identity exact, Monte Carlo median "
        f"{median:.0f} within +/-15% of 1000 over 100 seeds"
    )


def _run_cli(*argv):
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    assert code == 0, argv
    return code


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.is_file()}


C10_SPEC = ScenarioSpec(
    seed=5,
    sensors=5,
    duration_s=2000.0,
    attacks=(
        AttackSpec(victim="203.0.113.10", dst_port=123, start=0.0, stop=300.0, rate_pps=0.5),
        AttackSpec(victim="203.0.113.11", dst_port=53, start=100.0, stop=400.0, rate_pps=0.5),
    ),
    scans=(ScanSpec(source="203.0.113.200", ports=(53, 123), start=500.0),),
    noise_packets=100,
    baseline_events=10,
    baseline_overlap=0.2,
)


def _c10_commands(data_dir, spec_path):
    """C10's seven subcommands over the corpus ``write_corpus`` wrote into ``data_dir``."""
    events = os.path.join(data_dir, "events.jsonl")
    return {
        "detect": ["detect", "--events", events, "--preset", "ccc", "--carpet"],
        "sweep": ["sweep", "--events", events, "--scheme", "ccc",
                  "--timeouts", "60,600,900", "--loads", "1,5,100"],
        "converge": ["converge", "--events", events, "--preset", "ccc",
                     "--n-permutations", "300", "--batch", "100", "--seed", "0"],
        "overlap": ["overlap", "--events", events,
                    "--baseline", os.path.join(data_dir, "baseline.jsonl"), "--preset", "ccc"],
        "scanners": ["scanners", "--events", events,
                     "--scanners", os.path.join(data_dir, "scanners.txt"), "--preset", "ccc"],
        "evade": ["evade", "--load", "1Gbps", "--duration", "300", "--sensors", "8"],
        "synth": ["synth", "--spec", spec_path],
    }


def test_c10_cli_runs_are_byte_identical(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_corpus(synth(C10_SPEC), str(data_dir))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(C10_SPEC)))

    commands = _c10_commands(str(data_dir), str(spec_path))
    for name, argv in commands.items():
        first = tmp_path / f"{name}-1"
        second = tmp_path / f"{name}-2"
        _run_cli(*argv, "--out", str(first))
        _run_cli(*argv, "--out", str(second))
        a, b = _dir_bytes(first), _dir_bytes(second)
        assert set(a) == set(b), name
        differing = [f for f in a if a[f] != b[f]]
        assert not differing, (name, differing)
    print("\n[C10] PASS all 7 subcommands rerun byte-identical (artifacts + manifests)")


# sha256 of every file the pinned runs below write, relative to their working
# directory. The manifests echo the relative input paths, so the runs start
# from a fresh directory and name their inputs relative to it. The converge
# files follow numpy's permutation stream (numpy 2.4.6 when pinned).
_CLI_SHA256 = {
    "converge/convergence.csv": "82d6707071ff0ba6f2868066aa4b3c993b7cc0e7bcfba8e4d64a73a94f67e468",
    "converge/greedy.csv": "4def03a1f949b33f0a625e49dd58f3d21cfcd4c78b79f76e882165a83b93cbb7",
    "converge/manifest.json": "2799a7314a9d10a96895b8f18741b8c7cbe545b6942e1b2836b1bd82a018d857",
    "converge/stability.csv": "4c84cae23f49df8bd1ef6c4d4e7f8df06ab3bfca43fdbd3ccf94f48facb68bb7",
    "data/baseline.jsonl": "924342d1d346c9c7e9cc1040e6dc24ddbb719385e864655d129ba7d2bb2f4144",
    "data/events.jsonl": "490a5602d19f300adaf55b3283b0fdd654acc7bb99934b2f7b0a7b0849b0d621",
    "data/labels.csv": "22facfe723780279a5298852382cccb80255141a473b77d662e588015ebc5965",
    "data/scanners.txt": "a4a22f51a369b649cf8471a21cc9acf03ce6e6887a56a431db56ff7338d12d67",
    "data/truth.json": "fbec1312777b33df1129897033d8578034a7dfb0eb6e957b64dfc11c372c7ba1",
    "detect/attacks.jsonl": "185b3495cb68d641c4b78cbf2abc786a6f201fd84eb2c363d0032a1234a50b4c",
    "detect/manifest.json": "04c0663bdfa417cac4bffd5b428589a25620e0d267edb5555f352128ec52b21b",
    "detect/victims.csv": "a7b1d4f54704e1fdf85bcca43ed759e885a547001b6299ede4e383213f65edf1",
    "detect-hpi/attacks.jsonl": "da45924e97b8d35d37aa4467d2d7cff843dab1a3ba3f2f0375a86cf3c700640c",
    "detect-hpi/manifest.json": "a4e71cc488abc6db90b731b11da4a026956e947ba284b4f5402168dc5bc771ab",
    "detect-hpi/victims.csv": "a7b1d4f54704e1fdf85bcca43ed759e885a547001b6299ede4e383213f65edf1",
    "evade/evasion.csv": "799ad62e4ab224277a4c978547f92479dc8e07cbbe11c413c50b5816c12e7677",
    "evade/manifest.json": "eba513988a2f437a009c038aed036e84ce0ba98b323bcbe6222029bab2997752",
    "evade-profiles/evasion.csv": "bad82b8a50a587b80f20d9631e9da54a9c52448368c1028f88e8f0359a9f1d12",
    "evade-profiles/manifest.json": "c1249d3d42b917d7e9b4858974b29d80df947f157d41544e9244a3f88941b2e3",
    "listed.txt": "dc05baddaf47310c73582e0caf16b10a2f7fbfa028af1e5795bff46d7641a734",
    "overlap/manifest.json": "9c3debd1d94db8405c8a66bdfbaaf2cc5dc3b8f81d8ef872cfbb18455fe5f4eb",
    "overlap/overlap.json": "1d2f9ef08a20dd573ef801b3abbb78f64648b4bffaa65c3550f8bfbdca4defd0",
    "overlap/venn.csv": "2de6e43403861d025a0be0c763b171ca7dca4aed2fb0bb8b282fa293ae7c8c23",
    "profiles.jsonl": "2d4b39fb7fc14bf8200b07a1702320d767a97f580b3600f0b8afb66afbd20496",
    "scanners/manifest.json": "c369b1cdb33a6ce1118fd9bb9191866cd4cbf4d1ba2cd7134c84f2919bc3aacd",
    "scanners/shares.csv": "bce3cdc0a990ccd702a6af3312c085b91969f22eaca93c36727cc337b198be75",
    "scanners/sources.csv": "2a9c733ff6ec1aced91d0c68d27bc4c803e71e7cde5fc6561f7a27fa51143bb5",
    "scanners-listed/manifest.json": "08f87b7fa555e97be574663ea9f4b512c3ecfe762aa2665aed417d44f01a0824",
    "scanners-listed/shares.csv": "49cb19efb7d445cc2ca2766ee7d38553ae208605193efd4edf3f5e47cbe7f3fd",
    "scanners-listed/sources.csv": "e14cf447852541efb109cd78f8845d8699271219dcc2f64d4754cb8ff8498f42",
    "spec.json": "9871523336393749081bf20ed3c1d4f11ce6eb26d0d1ce644f66febbfc0c2a4d",
    "sweep/manifest.json": "bada9c36d48c5a613c297f51b8158db93d7f409996f923266b7aeedff2dbc15b",
    "sweep/sweep.csv": "464faa36a69a52a5bf3ae2ec1168f12f71e905d7716e7d8388b07fa04df4df79",
    "synth/baseline.jsonl": "924342d1d346c9c7e9cc1040e6dc24ddbb719385e864655d129ba7d2bb2f4144",
    "synth/events.jsonl": "490a5602d19f300adaf55b3283b0fdd654acc7bb99934b2f7b0a7b0849b0d621",
    "synth/labels.csv": "22facfe723780279a5298852382cccb80255141a473b77d662e588015ebc5965",
    "synth/manifest.json": "2e1669081d26f16e243aaa45c91971fa4d4e1bdbe311593daeae90825b48cf57",
    "synth/scanners.txt": "a4a22f51a369b649cf8471a21cc9acf03ce6e6887a56a431db56ff7338d12d67",
    "synth/truth.json": "fbec1312777b33df1129897033d8578034a7dfb0eb6e957b64dfc11c372c7ba1",
}


def test_every_cli_artifact_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("data")
    write_corpus(synth(C10_SPEC), "data")
    with open("spec.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(spec_to_dict(C10_SPEC)))
    write_profiles(BUILTIN_PROFILES, "profiles.jsonl")
    listed = ScannerList(frozenset({"203.0.113.200", "203.0.113.10", "192.0.2.7", "198.51.100.9"}),
                         region_label="telescope 10/8")
    write_scanner_list(listed, "listed.txt")
    commands = _c10_commands("data", "spec.json")
    commands["detect-hpi"] = ["detect", "--events", "data/events.jsonl", "--preset", "hpi"]
    commands["evade-profiles"] = ["evade", "--profiles", "profiles.jsonl", "--load", "10Gbps",
                                  "--duration", "600", "--sensors", "20"]
    commands["scanners-listed"] = ["scanners", "--events", "data/events.jsonl", "--scanners", "listed.txt",
                                   "--preset", "amppot"]
    for name, argv in commands.items():
        _run_cli(*argv, "--out", name)
        # the manifest lists exactly the files the run wrote
        with open(os.path.join(name, "manifest.json"), encoding="utf-8") as handle:
            outputs = json.load(handle)["outputs"]
        assert set(outputs) == set(os.listdir(name)) - {"manifest.json"}, name
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert written == _CLI_SHA256
    print(f"\n[C10] PASS {len(written)} CLI artifacts match their pinned sha256")
