import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import honeyflow.convergence
from helpers import oracle_overlap_report
from honeyflow.cli import OUT_ENV, main
from honeyflow.completeness import report_to_dict
from honeyflow.convergence import (
    permutation_ensemble,
    sensor_victim_map,
    stability_trace,
    write_rank_statistics_csv,
    write_stability_csv,
)
from honeyflow.detection import PRESETS, detect_attacks
from honeyflow.events import load_baseline, load_trace
from honeyflow.synth import (
    AttackSpec,
    CarpetSpec,
    ScanSpec,
    ScenarioSpec,
    spec_to_dict,
    synth,
    write_corpus,
)

CORPUS_SPEC = ScenarioSpec(
    seed=42,
    sensors=5,
    duration_s=2000.0,
    attacks=(
        AttackSpec(victim="203.0.113.10", dst_port=123, start=0.0, stop=300.0, rate_pps=0.5),
        AttackSpec(victim="203.0.113.11", dst_port=53, start=100.0, stop=400.0, rate_pps=0.5),
    ),
    scans=(ScanSpec(source="203.0.113.200", ports=(53, 123), start=500.0),),
    carpets=(CarpetSpec(prefix="198.51.100.0/24", n_victims=16, n_flows=16, start=600.0),),
    noise_packets=100,
    baseline_events=10,
    baseline_overlap=0.2,
)


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(synth(CORPUS_SPEC), str(out))
    return out


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_detect_with_preset(tmp_path, corpus_dir):
    code = run_cli(
        "detect", "--events", str(corpus_dir / "events.jsonl"),
        "--preset", "ccc", "--out", str(tmp_path),
    )
    assert code == 0
    victims = (tmp_path / "victims.csv").read_text().splitlines()
    assert victims[0] == "victim,granularity"
    found = {line.split(",")[0] for line in victims[1:]}
    assert {"203.0.113.10", "203.0.113.11"} <= found

    attacks = [json.loads(l) for l in (tmp_path / "attacks.jsonl").read_text().splitlines()]
    assert all(row["preset"] == "ccc" for row in attacks)

    data = manifest(tmp_path)
    assert data["tool"] == "honeyflow"
    assert data["subcommand"] == "detect"
    assert data["outputs"] == ["attacks.jsonl", "victims.csv"]
    assert data["config"]["detector"] == "ccc"
    assert data["config"]["thresholds"]["min_packets"] == 5


def test_detect_carpet_flag(tmp_path, corpus_dir):
    code = run_cli(
        "detect", "--events", str(corpus_dir / "events.jsonl"),
        "--preset", "ccc", "--carpet", "--out", str(tmp_path),
    )
    assert code == 0
    victims = (tmp_path / "victims.csv").read_text()
    assert "198.51.100.0/24,prefix" in victims


def test_detect_custom_detector(tmp_path, corpus_dir):
    code = run_cli(
        "detect", "--events", str(corpus_dir / "events.jsonl"),
        "--scheme", "ccc", "--idle-timeout", "600", "--min-packets", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert manifest(tmp_path)["config"]["detector"] == "custom:ccc"


def test_detect_permissive_widens(tmp_path, corpus_dir):
    strict = tmp_path / "strict"
    loose = tmp_path / "loose"
    run_cli("detect", "--events", str(corpus_dir / "events.jsonl"),
            "--preset", "hpi", "--out", str(strict))
    run_cli("detect", "--events", str(corpus_dir / "events.jsonl"),
            "--preset", "hpi", "--permissive", "--out", str(loose))
    n_strict = len((strict / "victims.csv").read_text().splitlines())
    n_loose = len((loose / "victims.csv").read_text().splitlines())
    assert n_loose >= n_strict
    assert manifest(loose)["config"]["detector"] == "hpi:permissive"


def test_sweep(tmp_path, corpus_dir):
    code = run_cli(
        "sweep", "--events", str(corpus_dir / "events.jsonl"),
        "--scheme", "ccc", "--timeouts", "60,600", "--loads", "1,5,100",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "timeout_s,min_packets,attack_flows,victims"
    assert len(lines) == 7
    assert manifest(tmp_path)["config"]["timeouts"] == [60.0, 600.0]


def test_converge(tmp_path, corpus_dir):
    code = run_cli(
        "converge", "--events", str(corpus_dir / "events.jsonl"),
        "--preset", "ccc", "--n-permutations", "300", "--batch", "100",
        "--out", str(tmp_path),
    )
    assert code == 0
    for name in ("greedy.csv", "convergence.csv", "stability.csv"):
        assert (tmp_path / name).exists(), name
    stability = (tmp_path / "stability.csv").read_text().splitlines()
    assert stability[0] == "n_permutations,dmin,dmedian,dmax"
    assert len(stability) == 4  # 3 batches of 100


def test_converge_writes_the_library_statistics(tmp_path, corpus_dir):
    events = str(corpus_dir / "events.jsonl")
    out = tmp_path / "out"
    code = run_cli(
        "converge", "--events", events, "--preset", "ccc",
        "--n-permutations", "250", "--batch", "60", "--seed", "9", "--out", str(out),
    )
    assert code == 0
    mapping = sensor_victim_map(detect_attacks(load_trace(events), PRESETS["ccc"]))
    write_rank_statistics_csv(
        permutation_ensemble(mapping, n_permutations=250, seed=9), str(tmp_path / "convergence.csv")
    )
    write_stability_csv(
        stability_trace(mapping, batch=60, max_permutations=250, seed=9),
        str(tmp_path / "stability.csv"),
    )
    for name in ("convergence.csv", "stability.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_converge_draws_one_sample(tmp_path, corpus_dir, monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == honeyflow.convergence.__name__:
            calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    code = run_cli(
        "converge", "--events", str(corpus_dir / "events.jsonl"), "--preset", "ccc",
        "--n-permutations", "50", "--batch", "10", "--seed", "3", "--out", str(tmp_path),
    )
    assert code == 0
    assert calls == [(3,)]


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--n-permutations", "0", "--batch", "0"), "n_permutations must be >= 1: 0"),
        (("--n-permutations", "5", "--batch", "0"), "batch must be >= 1: 0"),
        (("--seed", "-1"), "seed must be >= 0: -1"),
        (("--n-permutations", "10000001"), "n_permutations must be <= 10000000: 10000001"),
        (("--batch", "10000001"), "batch must be <= 10000000: 10000001"),
    ],
)
def test_converge_count_errors_exit_2(tmp_path, corpus_dir, capsys, flags, message):
    code = run_cli(
        "converge", "--events", str(corpus_dir / "events.jsonl"), "--preset", "ccc",
        *flags, "--out", str(tmp_path),
    )
    assert code == 2
    assert capsys.readouterr().err == f"honeyflow: error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == []


def test_converge_over_the_cap_exits_2_at_once(tmp_path, corpus_dir):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "honeyflow", "converge", "--events", str(corpus_dir / "events.jsonl"),
         "--preset", "ccc", "--n-permutations", "10000000000000", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 2
    assert done.stderr == "honeyflow: error: n_permutations must be <= 10000000: 10000000000000\n"


def test_overlap(tmp_path, corpus_dir):
    code = run_cli(
        "overlap", "--events", str(corpus_dir / "events.jsonl"),
        "--baseline", str(corpus_dir / "baseline.jsonl"),
        "--preset", "ccc", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "overlap.json").read_text())
    # the synthesized feed plants 2 matched records among 10
    assert report["baseline_with_ports"] == 10
    assert report["matched_with_ports"] == 2
    assert report["detector_share"] == 0.2
    venn = (tmp_path / "venn.csv").read_text().splitlines()
    assert venn[0] == "set,count"


def test_python_m_overlap_equals_oracle(tmp_path, corpus_dir):
    events_path, baseline_path = corpus_dir / "events.jsonl", corpus_dir / "baseline.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "honeyflow", "overlap", "--events", str(events_path),
         "--baseline", str(baseline_path), "--preset", "ccc", "--slack", "30", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    events = load_trace(str(events_path))
    attacks = detect_attacks(events, PRESETS["ccc"])
    oracle = oracle_overlap_report(attacks, events, load_baseline(str(baseline_path)), slack_s=30.0)
    assert json.loads((tmp_path / "overlap.json").read_text()) == report_to_dict(oracle)


def test_scanners(tmp_path, corpus_dir):
    code = run_cli(
        "scanners", "--events", str(corpus_dir / "events.jsonl"),
        "--scanners", str(corpus_dir / "scanners.txt"),
        "--preset", "ccc", "--out", str(tmp_path),
    )
    assert code == 0
    sources = (tmp_path / "sources.csv").read_text().splitlines()
    assert sources[1].startswith("203.0.113.200,scan-only,")
    shares = (tmp_path / "shares.csv").read_text().splitlines()
    assert shares[0] == "class,count,share"
    assert shares[2] == "scan-only,1,1.0"


def test_evade(tmp_path):
    code = run_cli("evade", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "evasion.csv").read_text().splitlines()
    assert lines[1] == "17,QOTD,15,140,31000,17.9M,576,1,1,1,1"

    code = run_cli("evade", "--load", "2Gbps", "--out", str(tmp_path / "fat"))
    assert code == 0
    assert manifest(tmp_path / "fat")["config"]["attack_load_bps"] == 2e9


_PROFILE = {"name": "NTP", "dst_port": 123, "request_size": 13.0,
            "amplification_factor": 557.0, "amplifier_count": 2_300_000}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--profiles", {"request_size": "abc"}), "line 1: request_size must be a number: 'abc'"),
        (("--profiles", {"request_size": None}), "line 1: request_size must be a number: None"),
        (("--profiles", {"amplifier_count": True}),
         "line 1: amplifier_count must be a positive integer: True"),
        (("--load", "inf"), "attack_load_bps must be finite: inf"),
        (("--duration", "inf"), "duration_s must be finite: inf"),
        (("--profiles", {"request_size": 1e-200, "amplification_factor": 1e-200}),
         "request_size * amplification_factor underflows to zero: "
         "request_size=1e-200, amplification_factor=1e-200"),
        (("--profiles", {"request_size": 1e-160, "amplification_factor": 1e-160}),
         "request_size * amplification_factor is too small for the request count: "
         "request_size=1e-160, amplification_factor=1e-160"),
    ],
)
def test_evade_bad_inputs_exit_2(tmp_path, capsys, argv, message):
    flag, value = argv
    if flag == "--profiles":
        path = tmp_path / "profiles.jsonl"
        path.write_text(json.dumps({**_PROFILE, **value}) + "\n")
        value = str(path)
    assert run_cli("evade", flag, value, "--out", str(tmp_path / "out")) == 2
    # a reader's per-line error is prefixed by the file it read; the rest come from evasion_rows
    named = f"{value}: " if message.startswith("line ") else ""
    assert capsys.readouterr().err == f"honeyflow: error: {named}{message}\n"
    assert not (tmp_path / "out" / "evasion.csv").exists()


def test_evade_request_overflow_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("evade", "--load", "1e200Gbps", "--duration", "1e150", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "honeyflow: error: attack_load_bps * duration_s overflows the request count: "
        "attack_load_bps=9.999999999999999e+208, duration_s=1e+150\n"
    )
    assert not (out / "evasion.csv").exists()


def test_grid_flag_messages(capsys):
    base = ("sweep", "--events", "x.jsonl", "--scheme", "ccc")
    for flags, message in [
        (("--timeouts", "1,a", "--loads", "1"), "argument --timeouts: not a comma-separated float list: '1,a'"),
        (("--timeouts", "1", "--loads", "1.5"), "argument --loads: not a comma-separated integer list: '1.5'"),
        (("--timeouts", " , ", "--loads", "1"), "argument --timeouts: grid must name at least one value"),
        (("--timeouts", "1", "--loads", ","), "argument --loads: grid must name at least one value"),
    ]:
        assert run_cli(*base, *flags) == 1
        assert capsys.readouterr().err.endswith(f"honeyflow sweep: error: {message}\n")


def test_synth_and_seed_override(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(CORPUS_SPEC)))

    out_a = tmp_path / "a"
    assert run_cli("synth", "--spec", str(spec_path), "--out", str(out_a)) == 0
    for name in ("events.jsonl", "labels.csv", "baseline.jsonl", "scanners.txt", "truth.json"):
        assert (out_a / name).exists(), name

    out_b = tmp_path / "b"
    assert run_cli("synth", "--spec", str(spec_path), "--seed", "7", "--out", str(out_b)) == 0
    assert (out_a / "events.jsonl").read_bytes() != (out_b / "events.jsonl").read_bytes()
    assert manifest(out_b)["config"]["spec"]["seed"] == 7


def test_reruns_are_byte_identical(tmp_path, corpus_dir):
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert run_cli(
            "detect", "--events", str(corpus_dir / "events.jsonl"),
            "--preset", "amppotmod", "--out", str(out),
        ) == 0
    for name in ("attacks.jsonl", "victims.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    # the manifest must not embed the output directory
    assert str(outs[0]) not in (outs[0] / "manifest.json").read_text()


def test_rerun_into_a_used_out_replaces_every_artifact(tmp_path, corpus_dir):
    argv = ("detect", "--events", str(corpus_dir / "events.jsonl"), "--preset", "ccc", "--carpet")
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert run_cli(*argv, "--out", str(fresh)) == 0

    reused.mkdir()
    stale = b'{"victim": "stale"}\n' * 5000  # longer than the real report
    (reused / "attacks.jsonl").write_bytes(stale)
    os.link(reused / "attacks.jsonl", tmp_path / "hard-link.jsonl")
    (tmp_path / "elsewhere.csv").write_text("untouched\n")
    os.symlink(tmp_path / "elsewhere.csv", reused / "victims.csv")
    for _ in range(2):
        assert run_cli(*argv, "--out", str(reused)) == 0
        for name in ("attacks.jsonl", "victims.csv", "manifest.json"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    # artifacts are unlinked and re-created, never written through a link
    assert (tmp_path / "hard-link.jsonl").read_bytes() == stale
    assert not (reused / "victims.csv").is_symlink()
    assert (tmp_path / "elsewhere.csv").read_text() == "untouched\n"


def test_out_env_fallback(tmp_path, corpus_dir, monkeypatch):
    monkeypatch.setenv(OUT_ENV, str(tmp_path))
    assert run_cli("evade") == 0
    assert (tmp_path / "evasion.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        (),                                            # no subcommand
        ("frobnicate",),                               # unknown subcommand
        ("evade", "--frobnicate"),                     # unknown flag
        ("detect", "--preset", "ccc"),                 # missing --events
        ("detect", "--events", "x.jsonl"),             # neither preset nor custom
        ("detect", "--events", "x.jsonl", "--preset", "ccc", "--min-packets", "9"),
        ("detect", "--events", "x.jsonl", "--scheme", "ccc"),  # partial custom
        ("sweep", "--events", "x.jsonl", "--scheme", "ccc",
         "--timeouts", "abc", "--loads", "1"),         # malformed grid
        ("evade", "--load", "fast"),                   # malformed bitrate
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert run_cli(*argv) == 1
    capsys.readouterr()


# a detector-flag error of each detector subcommand, found after argparse has parsed the flags
_DETECTOR_FLAG_ERRORS = {
    "detect": ("detect", "--events", "x.jsonl"),
    "converge": ("converge", "--events", "x.jsonl", "--scheme", "ccc", "--idle-timeout", "900"),
    "overlap": ("overlap", "--events", "x.jsonl", "--baseline", "b.jsonl", "--preset", "ccc", "--min-packets", "9"),
    "scanners": ("scanners", "--events", "x.jsonl", "--scanners", "s.txt", "--preset", "ccc", "--comparison", ">"),
}


@pytest.mark.parametrize("argv", _DETECTOR_FLAG_ERRORS.values(), ids=_DETECTOR_FLAG_ERRORS)
def test_detector_flag_errors_are_the_subcommands_usage_errors(argv, capsys):
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"usage: honeyflow {argv[0]} [^\n]+(\n [^\n]*)*\nhoneyflow {argv[0]}: error: [^\n]+\n", err)


@pytest.mark.parametrize("argv", [
    *_DETECTOR_FLAG_ERRORS.values(),
    ("detect", "--events", "x.jsonl", "--preset", "nope"),
    ("overlap", "--events", "x.jsonl", "--preset", "ccc"),  # missing --baseline
])
def test_usage_errors_create_no_out(tmp_path, argv, capsys):
    out = tmp_path / "new"
    assert run_cli(*argv, "--out", str(out)) == 1
    capsys.readouterr()
    assert not out.exists()


def test_data_errors_exit_2(tmp_path, capsys):
    assert run_cli("detect", "--events", str(tmp_path / "missing.jsonl"),
                   "--preset", "ccc", "--out", str(tmp_path)) == 2

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert run_cli("detect", "--events", str(bad),
                   "--preset", "ccc", "--out", str(tmp_path)) == 2

    huge_ts = tmp_path / "huge.jsonl"  # an integer timestamp beyond the float range
    huge_ts.write_text('{"ts": 1%s, "sensor": "s1", "src_ip": "198.51.100.7", "src_port": 1,'
                       ' "dst_ip": "192.0.2.1", "dst_port": 123}\n' % ("0" * 400))
    assert run_cli("detect", "--events", str(huge_ts),
                   "--preset", "ccc", "--out", str(tmp_path)) == 2
    assert "line 1: ts must be a finite non-negative number" in capsys.readouterr().err

    over_limit = tmp_path / "digits.jsonl"  # an integer literal json.loads refuses to convert
    over_limit.write_text('{"ts": 1.0, "sensor": "s1", "src_ip": "198.51.100.7", "src_port": 1,'
                          ' "dst_ip": "192.0.2.1", "dst_port": 123}\n'
                          '{"ts": 1%s, "sensor": "s1", "src_ip": "198.51.100.7", "src_port": 1,'
                          ' "dst_ip": "192.0.2.1", "dst_port": 123}\n' % ("0" * 5000))
    assert run_cli("detect", "--events", str(over_limit),
                   "--preset", "ccc", "--out", str(tmp_path)) == 2
    assert "line 2: malformed event record: Exceeds the limit" in capsys.readouterr().err

    contradictory = tmp_path / "spec.json"
    contradictory.write_text(json.dumps({
        "duration_s": 10.0,
        "attacks": [{"victim": "203.0.113.1", "stop": 60.0}],
    }))
    assert run_cli("synth", "--spec", str(contradictory), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["detect", "--preset", "ccc", "--events"], "line 2: malformed event record"),
        (["overlap", "--preset", "ccc", "--baseline"], "line 2: malformed baseline record"),
        (["evade", "--profiles"], "line 2: malformed profile record"),
        (["synth", "--spec"], "malformed scenario spec"),
    ],
)
def test_too_deeply_nested_input_exits_2(tmp_path, corpus_dir, capsys, argv, named):
    # json raises RecursionError, not a ValueError, for nesting this deep
    good = {
        "detect": (corpus_dir / "events.jsonl").read_text().splitlines()[0] + "\n",
        "overlap": (corpus_dir / "baseline.jsonl").read_text().splitlines()[0] + "\n",
        "evade": '{"name": "NTP", "dst_port": 123, "request_size": 13.0, "amplification_factor": 557.0,'
                 ' "amplifier_count": 2300000}\n',
        "synth": "",
    }[argv[0]]
    deep = tmp_path / "deep.json"
    deep.write_text(good + "[" * 200_000)
    if argv[0] == "overlap":
        argv = [*argv[:-1], "--events", str(corpus_dir / "events.jsonl"), argv[-1]]
    assert run_cli(*argv, str(deep), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["detect", "--preset", "ccc", "--events"],
    ["overlap", "--preset", "ccc", "--baseline"],
    ["evade", "--profiles"],
    ["scanners", "--preset", "ccc", "--scanners"],
])
def test_bytes_not_utf8_exit_2(tmp_path, corpus_dir, capsys, argv):
    good = {
        "detect": corpus_dir / "events.jsonl",
        "overlap": corpus_dir / "baseline.jsonl",
        "scanners": corpus_dir / "scanners.txt",
    }.get(argv[0])
    line = good.read_bytes().splitlines()[0] if good else (
        b'{"name": "NTP", "dst_port": 123, "request_size": 13.0, "amplification_factor": 557.0,'
        b' "amplifier_count": 2300000}'
    )
    bad = tmp_path / "bad.txt"
    bad.write_bytes(line + b"\n" + line.replace(b"1", b"\xff", 1) + b"\n")
    if argv[0] in ("overlap", "scanners"):
        argv = [*argv[:-1], "--events", str(corpus_dir / "events.jsonl"), argv[-1]]
    assert run_cli(*argv, str(bad), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"honeyflow: error: {bad}: line 2: not valid UTF-8\n"


@pytest.mark.parametrize("data, message", [
    (b"\xff{}", "{path}: malformed scenario spec: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte"),
    (b'{"a": 1, x}', "{path}: malformed scenario spec: Expecting property name enclosed in double quotes: "
                     "line 1 column 10 (char 9)"),
    (b'{"attacks": [{"victim": "198.51.100.9", "dst_port": -1}]}', "attack-1: dst_port out of range: -1"),
    (b'{"scans": [{"source": "198.51.100.9", "start": -1e400}]}',
     "scan-1: ts must be a finite non-negative number"),
    (b'{"baseline_slack_s": 1e400}', "scenario spec: baseline_slack_s must be finite and >= 0: inf"),
])
def test_spec_errors_name_the_file_or_the_part(tmp_path, capsys, data, message):
    # a spec that is no JSON document names the file; a planted row that is no event names its part
    spec = tmp_path / "spec.json"
    spec.write_bytes(data)
    assert run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"honeyflow: error: {message.format(path=spec)}\n"


@pytest.mark.parametrize("command, other, bad_flag", [
    ("overlap", "--baseline", "--baseline"),
    ("overlap", "--baseline", "--events"),
    ("scanners", "--scanners", "--scanners"),
    ("scanners", "--scanners", "--events"),
])
def test_format_error_names_the_bad_input(tmp_path, corpus_dir, capsys, command, other, bad_flag):
    # of the two inputs only the one at fault is named, and the library's text follows unchanged
    names = {"--events": "events.jsonl", "--baseline": "baseline.jsonl", "--scanners": "scanners.txt"}
    flags = []
    for flag in ("--events", other):
        data = (corpus_dir / names[flag]).read_bytes()
        path = tmp_path / names[flag]
        path.write_bytes(data.replace(b"\n", b"\n\xff", 1) if flag == bad_flag else data)
        flags += [flag, str(path)]
    assert run_cli(command, "--preset", "ccc", *flags, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"honeyflow: error: {tmp_path / names[bad_flag]}: line 2: not valid UTF-8\n"
    )


@pytest.mark.parametrize("flag, line, message", [
    pytest.param("--events", '{"ts": 1.0, "sensor": "s1", "src_ip": "١٠.0.0.1", "src_port": 1,'
                 ' "dst_ip": "192.0.2.1", "dst_port": 123}',
                 "src_ip: not a dotted-quad IPv4 address: '١٠.0.0.1'", id="address-digits"),
    pytest.param("--baseline", '{"start_ts": 0, "end_ts": 1, "protocols": [123], "prefixes": ["10.0.0.0/٢٤"]}',
                 "malformed prefix length in '10.0.0.0/٢٤'", id="prefix-length-digits"),
    pytest.param("--baseline", '{"start_ts": 0, "end_ts": 1, "protocols": [[1]], "prefixes": ["10.0.0.0/24"]}',
                 "protocols must be a list of ports", id="port-list"),
    pytest.param("--baseline", '{"start_ts": 0, "end_ts": 1, "protocols": [{"a": 1}], "prefixes": ["10.0.0.0/24"]}',
                 "protocols must be a list of ports", id="port-object"),
])
def test_bad_field_exit_2(tmp_path, corpus_dir, capsys, flag, line, message):
    # non-ASCII digits and unhashable ports are format errors of the file that holds them
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n", encoding="utf-8")
    inputs = {"--events": corpus_dir / "events.jsonl", "--baseline": corpus_dir / "baseline.jsonl", flag: bad}
    argv = [str(x) for item in inputs.items() for x in item]
    assert run_cli("overlap", "--preset", "ccc", *argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"honeyflow: error: {bad}: line 1: {message}\n"


@pytest.mark.parametrize("data, message", [
    ({"attacks": [{"victim": "1.2.3.4", "sensors": [[1]]}]}, "attack spec: sensors must be a list of integers"),
    ({"scans": [{"source": "1.2.3.4", "ports": 123}]}, "scan spec: ports must be a list of integers"),
    ({"attacks": 5}, "scenario spec: attacks must be a list"),
    ({"carpets": [{"prefix": None}]}, "carpet spec: prefix must be a string"),
    ({"scans": [{"source": "1.2.3.4", "start": "x"}]}, "scan spec: start must be a number"),
    ({"noise_packets": 1.5}, "scenario spec: noise_packets must be an integer"),
    ({"noise_packets": 10**12}, "scenario plants more than 10000000 packets"),
    ({"attacks": [{"victim": "1.2.3.4", "rate_pps": float("inf")}]}, "scenario plants more than 10000000 packets"),
    ({"attacks": [{"victim": "1.2.3.4", "start": float("-inf")}]}, "scenario plants more than 10000000 packets"),
    ({"duration_s": 10**400}, "scenario spec: duration_s is beyond the float range"),
    ({"noise_ports": []}, "scenario spec: noise_ports must be non-empty"),
])
def test_synth_bad_field_type_exit_2(tmp_path, capsys, data, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    assert run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"honeyflow: error: {message}\n"


def _cli_on_file(data: bytes, *argv: str) -> tuple[int, str, str]:
    """Run the CLI with ``data`` in a scratch file whose path replaces ``{file}`` in ``argv``;
    the exit code, that path, and what went to stderr."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "input")
        with open(path, "wb") as handle:
            handle.write(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(*[path if arg == "{file}" else arg for arg in argv], "--out", os.path.join(scratch, "out"))
    return code, path, err.getvalue()


def _assert_0_or_names_the_line(code: int, path: str, err: str) -> None:
    assert code in (0, 2)
    assert re.fullmatch("" if code == 0 else f"honeyflow: error: {re.escape(path)}: line [0-9]+: [^\n]+\n", err)


_GOOD_BASELINE = (
    '{"start_ts":0.0,"end_ts":328.9,"protocols":[123],"prefixes":["203.0.113.0/24"]}\n'
    '{"start_ts":100.0,"end_ts":400.0,"protocols":[53,123],"prefixes":["203.0.113.11/32","198.51.100.0/24"]}\n'
    '{"start_ts":499.5,"end_ts":551.9,"protocols":[],"prefixes":["198.18.0.0/24"]}\n'
)
_ODD_NUMBERS = ["1e400", "-1e400", "NaN", "-Infinity", "-0.0", "1" + "0" * 400, "1" + "0" * 5000, "-5", "0.5",
                "9" * 25, "true", "null", '"7"']
_ODD_ITEMS = ["[1]", '{"a": 1}', "[]", '"53"', "1.5", "true", "null", "70000", "-1", "1e400", '"1.2.3.0/24"']


@st.composite
def _mutated_baselines(draw) -> bytes:
    """The good baseline file with one mutation: a flipped byte, a cut, or one field of one line
    nested, replaced by an odd number, given an odd list item, or a digit swapped for a non-ASCII one."""
    data = _GOOD_BASELINE.encode()
    kind = draw(st.sampled_from(["flip", "cut", "nest", "number", "item", "digit"]))
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    lines = _GOOD_BASELINE.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "digit":
        at = draw(st.sampled_from([k for k, char in enumerate(lines[i]) if char.isdigit()]))
        lines[i] = lines[i][:at] + draw(st.sampled_from("٠١٢٣²߃१１")) + lines[i][at + 1:]
    else:
        name = draw(st.sampled_from(["start_ts", "end_ts", "protocols", "prefixes"]))
        match = re.search(f'"{name}":(\\[[^\\]]*\\]|[^,}}]+)', lines[i])
        value = match.group(1)
        if kind == "nest":
            depth = draw(st.sampled_from([1, 2, 64, 100_000]))
            value = "[" * depth + value + "]" * depth
        elif kind == "number":
            value = draw(st.sampled_from(_ODD_NUMBERS))
        else:
            items = value[1:-1] if value.startswith("[") else value
            value = "[" + ",".join(filter(None, [items, draw(st.sampled_from(_ODD_ITEMS))])) + "]"
        lines[i] = lines[i][:match.start(1)] + value + lines[i][match.end(1):]
    return "".join(lines).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_mutated_baselines())
@example(data=b'{"start_ts":0,"end_ts":1,"protocols":[[1]],"prefixes":["10.0.0.0/24"]}\n')
@example(data=b'{"start_ts":0,"end_ts":1,"protocols":[{"a":1}],"prefixes":["10.0.0.0/24"]}\n')
def test_mutated_baseline_exits_0_or_names_the_line(corpus_dir, data):
    # whatever the damage, overlap succeeds or reports one format error naming the file and line
    _assert_0_or_names_the_line(*_cli_on_file(data, "overlap", "--preset", "ccc", "--events",
                                              str(corpus_dir / "events.jsonl"), "--baseline", "{file}"))


_NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


def _byte_damage(draw, data: bytes) -> bytes:
    """``data`` with one byte flipped, cut short, or with bytes that are not UTF-8 put in."""
    kind = draw(st.sampled_from(["flip", "cut", "not utf-8"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "cut":
        return data[:at]
    return data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:]


def _mutated_field(draw, line: str, names: list[str]) -> str:
    """``line`` with one JSON field nested, given a value of the wrong type, or replaced by an odd number."""
    name = draw(st.sampled_from(names))
    match = re.search(f'"{name}": ?("[^"]*"|\\[[^\\]]*\\]|[^,}}]+)', line)
    kind = draw(st.sampled_from(["nest", "type", "number"]))
    if kind == "nest":
        depth = draw(st.sampled_from([1, 2, 100_000]))
        value = "[" * depth + match.group(1) + "]" * depth
    else:
        value = draw(st.sampled_from(_WRONG_TYPES if kind == "type" else _ODD_NUMBERS))
    return line[:match.start(1)] + value + line[match.end(1):]


_GOOD_EVENTS = (
    '{"ts":0.5,"sensor":"s01","src_ip":"203.0.113.9","src_port":4444,"dst_ip":"192.0.2.1","dst_port":123}\n'
    '{"ts":1.25,"sensor":"s02","src_ip":"203.0.113.9","src_port":4444,"dst_ip":"192.0.2.2","dst_port":123}\n'
    '\n'
    '{"ts":7,"sensor":"s01","src_ip":"45.0.0.3","src_port":50000,"dst_ip":"192.0.2.1","dst_port":53}\n'
)
_GOOD_PROFILES = (
    '{"name":"NTP","dst_port":123,"request_size":13.0,"amplification_factor":557.0,"amplifier_count":2300000}\n'
    '{"name":"DNS","dst_port":53,"request_size":37,"amplification_factor":41.0,"amplifier_count":1900000}\n'
)
_GOOD_SCANNERS = "# telescope\n203.0.113.200\n\n45.0.0.3\n"
_ODD_ADDRESSES = ["::1", "1.2.3", "1.2.3.4.5", "01.2.3.4", "256.0.0.1", "1.2.3.4/24", " ", "#", "١.2.3.4", "1.2.3.٤"]


@st.composite
def _mutated_lines(draw, good: str, names: list[str]) -> bytes:
    """``good`` with byte damage, or with one field of one JSON line mutated."""
    if draw(st.booleans()):
        return _byte_damage(draw, good.encode())
    lines = good.splitlines(keepends=True)
    i = draw(st.sampled_from([k for k, line in enumerate(lines) if line.strip()]))
    lines[i] = _mutated_field(draw, lines[i], names)
    return "".join(lines).encode()


@st.composite
def _mutated_scanner_lists(draw) -> bytes:
    """The good scanner list with byte damage, or one address replaced by an odd one."""
    if draw(st.booleans()):
        return _byte_damage(draw, _GOOD_SCANNERS.encode())
    return _GOOD_SCANNERS.replace("45.0.0.3", draw(st.sampled_from(_ODD_ADDRESSES))).encode()


@settings(max_examples=150, deadline=None)
@given(data=_mutated_lines(_GOOD_EVENTS, ["ts", "sensor", "src_ip", "src_port", "dst_ip", "dst_port"]))
@example(data=_GOOD_EVENTS.encode())
def test_mutated_events_exit_0_or_name_the_line(data):
    _assert_0_or_names_the_line(*_cli_on_file(data, "detect", "--preset", "ccc", "--events", "{file}"))


@settings(max_examples=150, deadline=None)
@given(data=_mutated_lines(_GOOD_PROFILES, ["name", "dst_port", "request_size", "amplification_factor",
                                            "amplifier_count"]))
@example(data=_GOOD_PROFILES.encode())
@example(data=_GOOD_PROFILES.replace("2300000", "1" + "0" * 400).encode())  # once an OverflowError traceback
@example(data=_GOOD_PROFILES.replace("DNS", "\\ud800").encode())  # a lone surrogate: once a half-written CSV
def test_mutated_profiles_exit_0_or_name_the_line(data):
    _assert_0_or_names_the_line(*_cli_on_file(data, "evade", "--profiles", "{file}"))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_mutated_scanner_lists())
@example(data=_GOOD_SCANNERS.encode())
def test_mutated_scanners_exit_0_or_name_the_line(corpus_dir, data):
    _assert_0_or_names_the_line(*_cli_on_file(data, "scanners", "--preset", "ccc", "--events",
                                              str(corpus_dir / "events.jsonl"), "--scanners", "{file}"))


_GOOD_SPEC = {
    "seed": 3, "sensors": 4, "duration_s": 600.0, "noise_packets": 20, "noise_ports": [53, 123],
    "baseline_events": 4, "baseline_overlap": 0.5, "baseline_slack_s": 30.0,
    "attacks": [{"victim": "198.51.100.9", "dst_port": 123, "start": 10.0, "stop": 40.0, "rate_pps": 0.5,
                 "sensors": [0, 1], "src_port": 4444}],
    "scans": [{"source": "100.64.0.7", "ports": [53, 123], "packets_per_sensor_port": 1, "start": 5.0,
               "spacing_s": 2.0, "sensors": [2]}],
    "carpets": [{"prefix": "203.0.113.0/24", "n_victims": 2, "n_flows": 4, "dst_port": 19, "packets_per_flow": 3,
                 "rate_pps": 1.0, "start": 100.0, "flow_spacing_s": 5.0, "sensors": [3]}],
}
_SPEC_ODD_NUMBERS = ["1e400", "-1e400", "1e12", "1" + "0" * 30, "1" + "0" * 400, "-1", "0"]
_WRONG_TYPES = ['"x"', "null", "true", "{}", "[]"]


@st.composite
def _mutated_specs(draw) -> bytes:
    """The good spec with byte damage, or with one field, of the scenario or of its attack, scan or
    carpet, nested, given a value of the wrong JSON type, or replaced by an odd number."""
    if draw(st.integers(0, 3)) == 0:
        return _byte_damage(draw, json.dumps(_GOOD_SPEC).encode())
    spec = json.loads(json.dumps(_GOOD_SPEC))
    part = draw(st.sampled_from([None, "attacks", "scans", "carpets"]))
    fields = spec if part is None else spec[part][0]
    name = draw(st.sampled_from(sorted(fields)))
    kind = draw(st.sampled_from(["nest", "type", "number"]))
    if kind == "nest":
        depth = draw(st.sampled_from([1, 2, 100_000]))
        value = "[" * depth + json.dumps(fields[name]) + "]" * depth
    else:
        value = draw(st.sampled_from(_WRONG_TYPES if kind == "type" else _SPEC_ODD_NUMBERS))
    fields[name] = "<mutated>"
    return json.dumps(spec).replace('"<mutated>"', value).encode()


@settings(max_examples=250, deadline=None)
@given(data=_mutated_specs())
@example(data=json.dumps(_GOOD_SPEC).encode())
@example(data=b"\xff" + json.dumps(_GOOD_SPEC).encode())
def test_mutated_spec_exits_0_or_2_with_one_error_line(data):
    # whatever the damage, synth succeeds or reports one error, naming the file if it is no JSON
    # document; any other exception fails the test
    code, path, err = _cli_on_file(data, "synth", "--spec", "{file}")
    assert code == 0 if data == json.dumps(_GOOD_SPEC).encode() else code in (0, 2)
    try:
        json.loads(data.decode("utf-8"))
        names = "[^\n]+"
    except (ValueError, RecursionError):
        names = f"{re.escape(path)}: malformed scenario spec: [^\n]+"
    assert re.fullmatch("" if code == 0 else f"honeyflow: error: {names}\n", err)


def test_converge_without_attacks_exit_2(tmp_path, corpus_dir, capsys):
    # one packet is no attack under ccc, so there is no sensor map to converge over
    events = tmp_path / "one.jsonl"
    events.write_bytes((corpus_dir / "events.jsonl").read_bytes().splitlines(keepends=True)[0])
    assert run_cli("converge", "--events", str(events), "--preset", "ccc",
                   "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"honeyflow: error: {events}: ccc detected no attack, so there is nothing to converge\n"
    )
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("command", ["detect", "converge"])
def test_a_sensor_utf8_cannot_encode_is_a_format_error(tmp_path, corpus_dir, capsys, command):
    # "\ud800" is a legal JSON escape, but no UTF-8 artifact can hold the sensor it spells
    lines = (corpus_dir / "events.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = re.sub('"sensor":"[^"]*"', r'"sensor":"\\ud800"', lines[1])
    events = tmp_path / "events.jsonl"
    events.write_text("".join(lines), encoding="utf-8")
    assert run_cli(command, "--events", str(events), "--preset", "ccc", "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"honeyflow: error: {events}: line 2: sensor is not valid UTF-8\n"
    assert os.listdir(tmp_path / "out") == []


_PORT_CONDITION = ["--scheme", "ccc", "--idle-timeout", "900", "--min-packets", "5", "--min-dst-ports", "2"]


@pytest.mark.parametrize("argv", [
    *(["detect", "--preset", name, "--carpet"] for name in sorted(PRESETS)),
    *(["scanners", "--preset", name] for name in sorted(PRESETS)),
    ["detect", *_PORT_CONDITION],
    ["scanners", *_PORT_CONDITION],
    ["sweep", "--scheme", "hpi", "--timeouts", "60,900", "--loads", "1,5", "--min-sensors", "2"],
    ["sweep", "--scheme", "ccc", "--timeouts", "60,900", "--loads", "1,5", "--min-dst-ports", "2"],
], ids=" ".join)
def test_the_cli_judges_a_configuration_only_against_flows(tmp_path, capsys, argv):
    # an empty trace runs under every configuration; one packet is a flow, and a port condition
    # that no dst-port-keyed flow can meet is then a configuration error
    if argv[0] == "scanners":
        (tmp_path / "scanners.txt").write_text("203.0.113.9\n")
        argv = [*argv, "--scanners", str(tmp_path / "scanners.txt")]
    events = tmp_path / "events.jsonl"
    for size, data in enumerate([b"", _GOOD_EVENTS.splitlines(keepends=True)[0].encode()]):
        events.write_bytes(data)
        out = tmp_path / f"out{size}"
        rejected = size > 0 and "--min-dst-ports" in argv
        assert run_cli(*argv, "--events", str(events), "--out", str(out)) == (2 if rejected else 0)
        assert capsys.readouterr().err == ("honeyflow: error: min_dst_ports=2 cannot be met by a dst-port-keyed "
                                           "scheme: every flow sees exactly one destination port\n" if rejected else "")
        assert ("manifest.json" in os.listdir(out)) is not rejected


def test_help_cites_preset_sources(capsys):
    assert run_cli("detect", "--help") == 0
    text = capsys.readouterr().out
    assert "RAID 2015" in text and "eCrime 2017" in text and "CCS 2021" in text


def test_version(capsys):
    assert run_cli("--version") == 0
    assert "honeyflow" in capsys.readouterr().out


# Every numeric flag, each run with one odd value and the other flags good. "{events}",
# "{baseline}" and "{scanners}" name the corpus files, "{value}" the drawn value.
_NUMERIC_FLAG_RUNS = {
    "--load": ("evade", "--load", "{value}"),
    "--duration": ("evade", "--duration", "{value}"),
    "--sensors": ("evade", "--sensors", "{value}"),
    "--timeouts": ("sweep", "--events", "{events}", "--scheme", "ccc", "--timeouts", "{value}", "--loads", "5"),
    "--loads": ("sweep", "--events", "{events}", "--scheme", "ccc", "--timeouts", "900", "--loads", "{value}"),
    "--n-permutations": ("converge", "--events", "{events}", "--preset", "ccc", "--n-permutations", "{value}",
                         "--batch", "50"),
    "--batch": ("converge", "--events", "{events}", "--preset", "ccc", "--n-permutations", "100",
                "--batch", "{value}"),
    "--slack": ("overlap", "--events", "{events}", "--baseline", "{baseline}", "--preset", "ccc",
                "--slack", "{value}"),
    "--idle-timeout": ("detect", "--events", "{events}", "--scheme", "ccc", "--idle-timeout", "{value}",
                       "--min-packets", "5"),
    "--min-packets": ("detect", "--events", "{events}", "--scheme", "ccc", "--idle-timeout", "900",
                      "--min-packets", "{value}"),
    "--min-dst-ports": ("sweep", "--events", "{events}", "--scheme", "ccc", "--timeouts", "900", "--loads", "5",
                        "--min-dst-ports", "{value}"),
    "--min-sensors": ("scanners", "--events", "{events}", "--scanners", "{scanners}", "--scheme", "ccc",
                      "--idle-timeout", "900", "--min-packets", "5", "--min-sensors", "{value}"),
    "--carpet-prefix-len": ("detect", "--events", "{events}", "--preset", "ccc", "--carpet",
                            "--carpet-prefix-len", "{value}"),
    "--carpet-min-flows": ("detect", "--events", "{events}", "--preset", "ccc", "--carpet",
                           "--carpet-min-flows", "{value}"),
}
_ODD_FLAG_VALUES = ["0", "-1", "1", "5", "0.5", "-0.0", "inf", "-inf", "nan", "Infinity", "1e400", "5e-324",
                    "9" * 25, "1" + "0" * 400, "", " ", "abc", "0x10", "1_000", "١٢", "5,", ",5", "1,inf",
                    "60,600,inf", "1Gbps", "infGbps", "nanbps", "-1kbps"]
_ANY_FLAG_VALUE = st.one_of(
    st.sampled_from(_ODD_FLAG_VALUES),
    st.integers(-10**30, 10**30).map(str),
    st.floats().map(repr),
)
# a valid count this large would draw that many permutations; the drawn counts stay small
_COUNT_FLAG_VALUE = st.one_of(st.sampled_from(_ODD_FLAG_VALUES), st.integers(-2, 400).map(str))


@st.composite
def _numeric_flag_runs(draw) -> tuple[str, ...]:
    flag = draw(st.sampled_from(sorted(_NUMERIC_FLAG_RUNS)))
    if flag in ("--n-permutations", "--batch"):
        value = draw(_COUNT_FLAG_VALUE)
    elif flag in ("--timeouts", "--loads"):
        value = ",".join(draw(st.lists(_ANY_FLAG_VALUE, min_size=1, max_size=3)))
    else:
        value = draw(_ANY_FLAG_VALUE)
    return tuple(value if arg == "{value}" else arg for arg in _NUMERIC_FLAG_RUNS[flag])


@settings(max_examples=200, deadline=None)
@given(argv=_numeric_flag_runs())
@example(argv=_NUMERIC_FLAG_RUNS["--idle-timeout"][:-3] + ("inf", "--min-packets", "5"))
@example(argv=_NUMERIC_FLAG_RUNS["--timeouts"][:-3] + ("600,inf", "--loads", "5"))
@example(argv=_NUMERIC_FLAG_RUNS["--slack"][:-1] + ("inf",))
@example(argv=_NUMERIC_FLAG_RUNS["--min-packets"][:-1] + ("1" + "0" * 23,))
@example(argv=_NUMERIC_FLAG_RUNS["--carpet-min-flows"][:-1] + ("1" + "0" * 24,))
def test_numeric_flags_exit_0_1_or_2_with_one_error_line(corpus_dir, argv):
    files = {"{events}": "events.jsonl", "{baseline}": "baseline.jsonl", "{scanners}": "scanners.txt"}
    argv = [str(corpus_dir / files[arg]) if arg in files else arg for arg in argv]
    with tempfile.TemporaryDirectory() as scratch:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(*argv, "--out", scratch)
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1:  # argparse: the usage, then one error line
        assert re.fullmatch(rf"usage: [^\n]+(\n [^\n]*)*\nhoneyflow {argv[0]}: error: [^\n]+\n", err)
    else:
        assert re.fullmatch("honeyflow: error: [^\n]+\n", err)


@pytest.mark.parametrize("argv, message", [
    (_NUMERIC_FLAG_RUNS["--idle-timeout"][:-3] + ("inf", "--min-packets", "5"), "idle_timeout must be finite: inf"),
    (_NUMERIC_FLAG_RUNS["--timeouts"][:-3] + ("600,inf", "--loads", "5"), "idle_timeout must be finite: inf"),
    (_NUMERIC_FLAG_RUNS["--slack"][:-1] + ("inf",), "slack_s must be finite: inf"),
])
def test_infinite_timeout_or_slack_exits_2(tmp_path, corpus_dir, capsys, argv, message):
    # an infinite idle timeout would never split a flow and echo as no JSON number in manifest.json;
    # an infinite slack would widen every baseline record over all time
    files = {"{events}": "events.jsonl", "{baseline}": "baseline.jsonl"}
    argv = [str(corpus_dir / files[arg]) if arg in files else arg for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"honeyflow: error: {message}\n"
    assert os.listdir(tmp_path) == []
