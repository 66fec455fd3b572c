import hashlib
import importlib
import json
import re

import pytest

from honeyflow import PacketEvent, Trace, trace_sort_key
from honeyflow.events import ipv4_to_int, load_baseline, load_scanner_list, load_trace
from honeyflow.synth import (
    AttackSpec,
    CarpetSpec,
    ScanSpec,
    ScenarioSpec,
    SynthesisError,
    spec_from_dict,
    spec_to_dict,
    synth,
    synth_sensor_victim_map,
    write_corpus,
)

synth_module = importlib.import_module("honeyflow.synth")  # the package's ``synth`` is the function

FULL_SPEC = ScenarioSpec(
    seed=42,
    sensors=5,
    duration_s=2000.0,
    attacks=(
        AttackSpec(victim="203.0.113.10", dst_port=123, start=0.0, stop=300.0, rate_pps=0.5),
        AttackSpec(victim="203.0.113.11", dst_port=53, start=100.0, stop=400.0,
                   rate_pps=0.5, sensors=(0, 2)),
    ),
    scans=(ScanSpec(source="203.0.113.200", ports=(53, 123), start=500.0),),
    carpets=(CarpetSpec(prefix="198.51.100.0/24", n_victims=4, n_flows=6, start=600.0),),
    noise_packets=150,
    baseline_events=10,
    baseline_overlap=0.4,
)


def test_determinism():
    a = synth(FULL_SPEC)
    b = synth(FULL_SPEC)
    assert a.events == b.events and a.labels == b.labels and a.baseline == b.baseline
    c = synth(ScenarioSpec(**{**spec_to_dict(FULL_SPEC), "seed": 43,
                              "attacks": FULL_SPEC.attacks, "scans": FULL_SPEC.scans,
                              "carpets": FULL_SPEC.carpets}))
    assert c.events != a.events


def test_events_sorted_and_labels_parallel():
    corpus = synth(FULL_SPEC)
    keys = [trace_sort_key(e) for e in corpus.events]
    assert keys == sorted(keys)
    assert len(corpus.labels) == len(corpus.events)
    assert set(corpus.labels) == {"attack-1", "attack-2", "scan-1", "carpet-1", "noise"}
    assert all(re.fullmatch(r"(attack|scan|carpet)-\d+|noise", l) for l in corpus.labels)


def test_attack_structure():
    spec = ScenarioSpec(
        seed=1, sensors=3, duration_s=300.0,
        attacks=(AttackSpec(victim="203.0.113.10", start=0.0, stop=200.0, rate_pps=0.5,
                            src_port=7777),),
    )
    corpus = synth(spec)
    assert len(corpus.events) == 3 * 100  # round(0.5 * 200) per sensor
    assert {e.src_ip for e in corpus.events} == {"203.0.113.10"}
    assert {e.src_port for e in corpus.events} == {7777}
    assert {e.sensor for e in corpus.events} == {"s01", "s02", "s03"}
    # each sensor's dst is its own address
    for e in corpus.events:
        assert e.dst_ip == f"192.0.2.{int(e.sensor[1:])}"
    assert corpus.victims == {"203.0.113.10"}
    assert corpus.sensor_victims == {s: {"203.0.113.10"} for s in ("s01", "s02", "s03")}


def test_attack_gap_bound():
    # jittered slots keep inter-packet gaps within 1.5 slots per sensor
    spec = ScenarioSpec(
        seed=5, sensors=2, duration_s=1000.0,
        attacks=(AttackSpec(victim="203.0.113.10", start=0.0, stop=900.0, rate_pps=0.25),),
    )
    corpus = synth(spec)
    slot = 1 / 0.25
    for sensor in ("s01", "s02"):
        stamps = sorted(e.ts for e in corpus.events if e.sensor == sensor)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert max(gaps) <= 1.5 * slot
        assert stamps[0] >= 0.0 and stamps[-1] < 900.0


def test_attack_sensor_subset():
    corpus = synth(FULL_SPEC)
    second = [e for e, l in zip(corpus.events, corpus.labels) if l == "attack-2"]
    assert {e.sensor for e in second} == {"s01", "s03"}  # indices 0 and 2


def test_scan_structure():
    spec = ScenarioSpec(
        seed=2, sensors=4, duration_s=100.0,
        scans=(ScanSpec(source="203.0.113.200", ports=(53, 123), packets_per_sensor_port=2,
                        start=10.0, spacing_s=0.5),),
    )
    corpus = synth(spec)
    assert len(corpus.events) == 4 * 2 * 2
    assert corpus.scanner_sources == {"203.0.113.200"}
    stamps = sorted(e.ts for e in corpus.events)
    assert stamps[0] == 10.0
    assert stamps == [10.0 + 0.5 * k for k in range(16)]
    assert corpus.victims == set()


def test_carpet_structure():
    spec = ScenarioSpec(
        seed=3, sensors=4, duration_s=500.0,
        carpets=(CarpetSpec(prefix="198.51.100.0/24", n_victims=4, n_flows=10,
                            packets_per_flow=8, flow_spacing_s=10.0),),
    )
    corpus = synth(spec)
    assert len(corpus.events) == 10 * 8
    assert corpus.carpet_prefixes == {"198.51.100.0/24"}
    # victims cycle .1 .. .4 and all land inside the prefix
    assert corpus.victims == {f"198.51.100.{j}" for j in range(1, 5)}
    # flows share one source port
    assert len({e.src_port for e in corpus.events}) == 1
    packets_by_victim = {}
    sensors_by_victim = {}
    for e in corpus.events:
        packets_by_victim[e.src_ip] = packets_by_victim.get(e.src_ip, 0) + 1
        sensors_by_victim.setdefault(e.src_ip, set()).add(e.sensor)
    # 10 flows cycle over 4 victims: .1/.2 get 3 flows of 8, .3/.4 get 2
    assert sorted(packets_by_victim.values()) == [16, 16, 24, 24]
    # victim and sensor indices cycle in lockstep here, one sensor per victim
    assert all(len(s) == 1 for s in sensors_by_victim.values())


def test_noise_pool_and_ports():
    spec = ScenarioSpec(seed=4, sensors=3, duration_s=50.0, noise_packets=300,
                        noise_ports=(123, 19))
    corpus = synth(spec)
    assert len(corpus.events) == 300
    assert all(l == "noise" for l in corpus.labels)
    for e in corpus.events:
        assert ipv4_to_int(e.src_ip) >> 28 == 0xF  # inside 240.0.0.0/4
        assert e.dst_port in (123, 19)
        assert 0.0 <= e.ts <= 50.0
    assert corpus.victims == set()


def test_baseline_overlap_accounting():
    corpus = synth(FULL_SPEC)
    # 10 events at 0.4 overlap: 4 matched (victims exist: 2 attacks + 4 carpet)
    assert corpus.baseline_matched == 4
    assert corpus.expected_overlap == 0.4
    assert len(corpus.baseline) == 10
    matched = [b for b in corpus.baseline if not any(
        p.startswith("198.18.") or p.startswith("198.19.") for p in b.prefixes)]
    assert len(matched) == 4
    # matched records wrap planted windows with slack and carry observed ports
    for record in matched:
        (prefix,) = record.prefixes
        net = prefix.split("/")[0]
        assert any(v.startswith(net.rsplit(".", 1)[0]) for v in corpus.victims)
        assert record.protocols


def test_baseline_unmatched_only():
    spec = ScenarioSpec(seed=6, sensors=2, duration_s=100.0, baseline_events=5,
                        baseline_overlap=0.0)
    corpus = synth(spec)
    assert corpus.baseline_matched == 0 and len(corpus.baseline) == 5
    for record in corpus.baseline:
        (prefix,) = record.prefixes
        assert prefix.startswith("198.18.") or prefix.startswith("198.19.")


@pytest.mark.parametrize(
    "spec_kwargs, fragment",
    [
        (dict(duration_s=100.0, attacks=(AttackSpec(victim="203.0.113.1", stop=200.0),)),
         "past the scenario duration"),
        (dict(attacks=(AttackSpec(victim="203.0.113.1", stop=0.1, rate_pps=1.0),)),
         "zero packets"),
        (dict(sensors=2, attacks=(AttackSpec(victim="203.0.113.1", sensors=(5,)),)),
         "sensor index 5"),
        (dict(attacks=(AttackSpec(victim="240.1.2.3"),)), "noise pool"),
        (dict(attacks=(AttackSpec(victim="198.18.4.5"),)), "unmatched-baseline pool"),
        (dict(scans=(ScanSpec(source="240.1.2.3"),)), "noise pool"),
        (dict(duration_s=3.0, scans=(ScanSpec(source="203.0.113.200", spacing_s=2.0),)),
         "past the scenario duration"),
        (dict(carpets=(CarpetSpec(prefix="203.0.113.0/30", n_victims=4, n_flows=4),)),
         "holds 2"),
        (dict(duration_s=50.0, carpets=(CarpetSpec(),)), "past the scenario duration"),
        (dict(baseline_events=4, baseline_overlap=1.0), "planted victims"),
        (dict(baseline_events=600, baseline_overlap=0.0), "512"),
        # refused before anything is drawn, so these return at once
        (dict(noise_packets=10**12), "more than 10000000 packets"),
        (dict(duration_s=10.0, attacks=(AttackSpec(victim="203.0.113.1", stop=10.0, rate_pps=1e12),)),
         "more than 10000000 packets"),
        (dict(attacks=(AttackSpec(victim="203.0.113.1", rate_pps=float("inf")),)), "more than 10000000 packets"),
        (dict(attacks=(AttackSpec(victim="203.0.113.1", start=float("-inf")),)), "more than 10000000 packets"),
        (dict(attacks=(AttackSpec(victim="203.0.113.1", rate_pps=10**400),)), "more than 10000000 packets"),
        (dict(scans=(ScanSpec(source="203.0.113.200", packets_per_sensor_port=10**30),)),
         "more than 10000000 packets"),
        (dict(carpets=(CarpetSpec(n_flows=10**6, packets_per_flow=11),)), "more than 10000000 packets"),
    ],
)
def test_contradictions_raise(spec_kwargs, fragment):
    with pytest.raises(SynthesisError, match=fragment):
        synth(ScenarioSpec(seed=0, **spec_kwargs))


def test_planted_rows_are_checked_once_as_columns(monkeypatch):
    # a good spec builds no PacketEvent: its rows pass the trace reader's column checks only
    built = []
    monkeypatch.setattr(PacketEvent, "__post_init__", lambda self: built.append(self))
    corpus = synth(FULL_SPEC)
    assert isinstance(corpus.events, Trace) and built == []


@pytest.mark.parametrize(
    "spec_kwargs, message",
    [
        (dict(attacks=(AttackSpec(victim="203.0.113.1", dst_port=-1),)), "attack-1: dst_port out of range: -1"),
        (dict(attacks=(AttackSpec(victim="203.0.113.1", src_port=True),)), "attack-1: src_port must be an integer"),
        (dict(scans=(ScanSpec(source="203.0.113.200", ports=(53, 70000)),)), "scan-1: dst_port out of range: 70000"),
        (dict(scans=(ScanSpec(source="203.0.113.200", start=float("-inf")),)),
         "scan-1: ts must be finite and non-negative: -inf"),
        # the bad row lies in the third 1 024-row chunk, after 2 400 good ones
        (dict(noise_packets=100, attacks=(AttackSpec(victim="203.0.113.1", stop=300.0),),
              carpets=(CarpetSpec(dst_port=65536, start=400.0),)), "carpet-1: dst_port out of range: 65536"),
    ],
)
def test_bad_planted_row_names_its_part(spec_kwargs, message):
    with pytest.raises(SynthesisError) as info:
        synth(ScenarioSpec(seed=0, **spec_kwargs))
    assert str(info.value) == message


def test_rejected_rows_no_event_reproduces_raise(monkeypatch):
    # like load_trace, synth never passes over rows the column checks reject
    monkeypatch.setattr(importlib.import_module("honeyflow.trace")._Rows, "add", lambda self, *columns: False)
    with pytest.raises(AssertionError, match="the column checks rejected planted rows that PacketEvent accepts"):
        synth(FULL_SPEC)


def test_packet_cap_admits_exactly_the_planted_count(monkeypatch):
    # attacks on all and on listed sensors, a scan, a carpet and noise, counted as synth plants them
    n = len(synth(FULL_SPEC).events)
    monkeypatch.setattr(synth_module, "_MAX_COUNT", n)
    assert len(synth(FULL_SPEC).events) == n
    monkeypatch.setattr(synth_module, "_MAX_COUNT", n - 1)
    with pytest.raises(SynthesisError, match="more than"):
        synth(FULL_SPEC)


def test_spec_field_validation():
    with pytest.raises(ValueError):
        AttackSpec(victim="203.0.113.1", start=10.0, stop=10.0)
    with pytest.raises(ValueError):
        ScanSpec(source="203.0.113.1", ports=())
    with pytest.raises(ValueError):
        CarpetSpec(n_victims=8, n_flows=4)
    with pytest.raises(ValueError):
        ScenarioSpec(sensors=0)
    with pytest.raises(ValueError):
        ScenarioSpec(baseline_overlap=1.5)
    with pytest.raises(ValueError, match="baseline_events must be in 0..10000000"):
        ScenarioSpec(baseline_events=10**7 + 1)


def test_spec_dict_round_trip():
    data = spec_to_dict(FULL_SPEC)
    assert spec_from_dict(data) == FULL_SPEC
    assert json.loads(json.dumps(data)) == data  # JSON-safe

    with pytest.raises(SynthesisError, match="unknown key"):
        spec_from_dict({"sensor_count": 4})
    with pytest.raises(SynthesisError, match="attack spec"):
        spec_from_dict({"attacks": [{"victim": "203.0.113.1", "stop": -1.0}]})
    with pytest.raises(SynthesisError):
        spec_from_dict({"attacks": ["not an object"]})
    with pytest.raises(SynthesisError):
        spec_from_dict("not a dict")


def test_synth_map_uniform():
    mapping = synth_sensor_victim_map(10, 500, coverage=0.2, seed=0)
    assert set(mapping) == {f"s{i:02d}" for i in range(1, 11)}
    assert all(len(v) == 100 for v in mapping.values())
    assert mapping == synth_sensor_victim_map(10, 500, coverage=0.2, seed=0)
    assert mapping != synth_sensor_victim_map(10, 500, coverage=0.2, seed=1)


def test_synth_map_modes():
    identical = synth_sensor_victim_map(5, 100, coverage=0.3, mode="identical")
    sets = list(identical.values())
    assert all(s == sets[0] for s in sets)

    disjoint = synth_sensor_victim_map(5, 100, coverage=0.2, mode="disjoint")
    union = set()
    for s in disjoint.values():
        assert not (union & s)
        union |= s
    assert len(union) == 100


def test_synth_map_per_sensor_coverage_and_errors():
    mapping = synth_sensor_victim_map(3, 100, coverage=[0.1, 0.2, 0.5])
    assert [len(mapping[s]) for s in sorted(mapping)] == [10, 20, 50]
    with pytest.raises(ValueError):
        synth_sensor_victim_map(0, 10)
    with pytest.raises(ValueError):
        synth_sensor_victim_map(3, 100, coverage=[0.1, 0.2])
    with pytest.raises(ValueError):
        synth_sensor_victim_map(3, 100, coverage=1.5)
    with pytest.raises(ValueError):
        synth_sensor_victim_map(3, 100, mode="clustered")
    with pytest.raises(ValueError):
        synth_sensor_victim_map(4, 100, coverage=0.3, mode="disjoint")


def test_write_corpus_round_trip(tmp_path):
    corpus = synth(FULL_SPEC)
    written = write_corpus(corpus, str(tmp_path))
    assert written == ["events.jsonl", "labels.csv", "baseline.jsonl", "scanners.txt",
                       "truth.json"]

    assert load_trace(str(tmp_path / "events.jsonl")) == corpus.events
    assert sorted(load_baseline(str(tmp_path / "baseline.jsonl")),
                  key=lambda b: b.start_ts) == sorted(corpus.baseline,
                                                      key=lambda b: b.start_ts)
    assert load_scanner_list(str(tmp_path / "scanners.txt")).sources == frozenset(
        corpus.scanner_sources
    )

    labels = (tmp_path / "labels.csv").read_text().splitlines()
    assert labels[0] == "event_index,label"
    assert len(labels) == len(corpus.events) + 1
    assert labels[1] == f"0,{corpus.labels[0]}"

    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["n_events"] == len(corpus.events)
    assert truth["baseline_matched"] == 4
    assert truth["carpet_prefixes"] == ["198.51.100.0/24"]
    assert set(truth["victims"]) == corpus.victims


# The corpus of test_acceptance's C10, and one of 17 k packets that fills many 1 024-row chunks.
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
NOISE_SPEC = ScenarioSpec(seed=7, sensors=12, duration_s=3600.0, noise_packets=10_000,
                          attacks=(AttackSpec(victim="203.0.113.10", stop=600.0),))

# sha256 of each file write_corpus writes, as synth wrote them when it sorted PacketEvent
# objects by trace_sort_key: the rows it plants now go through the trace reader's column
# checks and canonical sort, and the bytes must not move.
_CORPUS_SHA256 = {
    "c10": (C10_SPEC, {
        "baseline.jsonl": "924342d1d346c9c7e9cc1040e6dc24ddbb719385e864655d129ba7d2bb2f4144",
        "events.jsonl": "490a5602d19f300adaf55b3283b0fdd654acc7bb99934b2f7b0a7b0849b0d621",
        "labels.csv": "22facfe723780279a5298852382cccb80255141a473b77d662e588015ebc5965",
        "scanners.txt": "a4a22f51a369b649cf8471a21cc9acf03ce6e6887a56a431db56ff7338d12d67",
        "truth.json": "fbec1312777b33df1129897033d8578034a7dfb0eb6e957b64dfc11c372c7ba1",
    }),
    "full": (FULL_SPEC, {
        "baseline.jsonl": "10108a3a8845bb41952cb14269edc8b6e884ec62e04f03374c7c6b3e2187ef77",
        "events.jsonl": "7e9fc0dcef60b6b9bf05b31dd479a6cb4f9ab30f36e9990721bb38ffe1b4cc92",
        "labels.csv": "0fcd3eca4daa329e264b60f641391b15545ea8bb62190bd01aecc204e1f05bd9",
        "scanners.txt": "a4a22f51a369b649cf8471a21cc9acf03ce6e6887a56a431db56ff7338d12d67",
        "truth.json": "0aaac477ebc506ce6aa1f63f56af821cfea111e7b837a9094b85bfc5fcc17caf",
    }),
    "noise": (NOISE_SPEC, {
        "events.jsonl": "1a2bc77901088153e9f559eae2ec1c043c866d33c3b8f4911231cf736df2e2dd",
        "labels.csv": "15471811e0ce3aaf220129e8dee0151adadf24304aed8a43532b3d95232a3c33",
        "truth.json": "11f17cad75bd106a91b9fdf6170fc6844195ee2c8060341a4eba79eeb1da3412",
    }),
}


@pytest.mark.parametrize("name", sorted(_CORPUS_SHA256))
def test_write_corpus_bytes_are_pinned(tmp_path, name):
    spec, expected = _CORPUS_SHA256[name]
    write_corpus(synth(spec), str(tmp_path))
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()} == expected


def test_integer_scan_times_are_written_as_floats_and_load_equal(tmp_path):
    # a scan of integer start and spacing plants 5 + 2k; the trace holds them as float64
    spec = ScenarioSpec(seed=1, sensors=2, duration_s=100.0,
                        scans=(ScanSpec(source="203.0.113.200", start=5, spacing_s=2),))
    corpus = synth(spec)
    write_corpus(corpus, str(tmp_path))
    text = (tmp_path / "events.jsonl").read_text()
    assert [json.loads(line)["ts"] for line in text.splitlines()] == [5.0, 7.0]
    assert text.count('"ts":5.0,') == text.count('"ts":7.0,') == 1
    (tmp_path / "int.jsonl").write_text(text.replace('"ts":5.0,', '"ts":5,').replace('"ts":7.0,', '"ts":7,'))
    assert load_trace(str(tmp_path / "int.jsonl")) == load_trace(str(tmp_path / "events.jsonl")) == corpus.events


def test_write_corpus_skips_empty_artifacts(tmp_path):
    corpus = synth(ScenarioSpec(seed=0, sensors=2, duration_s=10.0, noise_packets=5))
    written = write_corpus(corpus, str(tmp_path))
    assert written == ["events.jsonl", "labels.csv", "truth.json"]
    assert not (tmp_path / "baseline.jsonl").exists()
    assert not (tmp_path / "scanners.txt").exists()
