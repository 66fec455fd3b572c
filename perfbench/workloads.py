"""The three benchmark workloads: inputs, timed operations and output checks.

Each workload builds its inputs from the seed with ``honeyflow.synth`` (in
set-up), then runs *rounds*: one round is the sequence of timed operations a
user of that workload performs. Outputs are checked after the round, outside
the timed region. At the default seed and full scale every output must match
a digest pinned in ``digests.json``; at every seed it must satisfy the
invariants the planted truth implies.

honeyflow functions are looked up through ``sys.modules`` at call time, so
a :class:`tracing.Tracer` installed around a round sees every call.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import math
import os
import random
import sys
from dataclasses import dataclass, replace
from typing import Callable

DEFAULT_SEED = 0
PORTS = (19, 53, 123, 389, 1900, 11211)
TIMEOUTS = (30.0, 60.0, 300.0, 600.0, 900.0, 3600.0)
LOADS = (1, 2, 5, 20, 50, 100)


def hf(module: str = ""):
    return sys.modules["honeyflow." + module if module else "honeyflow"]


def _addresses(rng: random.Random, base: str, bits: int, n: int) -> list[str]:
    """n distinct addresses drawn from base/(32 - bits)."""
    start = int(ipaddress.IPv4Address(base))
    return [str(ipaddress.IPv4Address(start + k)) for k in rng.sample(range(1, 1 << bits), n)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(value) -> str:
    return _sha(json.dumps(value, sort_keys=True).encode())


@dataclass
class Workload:
    name: str
    setup: Callable  # (seed, scale, workdir) -> state
    ops: Callable  # state -> [(op name, thunk)]
    check: Callable  # (state, op name, output, first round) -> error message or None
    digest: Callable  # (state, op name, output) -> hex digest


# -- detect-cli -----------------------------------------------------------------

def _detect_cli_spec(seed: int, scale: float):
    s = hf("synth")
    rng = random.Random(seed)
    n_sensors, duration = 16, 3600.0
    attacks = []
    for i, victim in enumerate(_addresses(rng, "100.64.0.0", 22, max(2, round(150 * scale)))):
        heavy = i % 10 == 0
        packets = 25 + i % 16 if heavy else 6 + i % 11
        sensors = rng.sample(range(n_sensors), 6 + i % 7 if heavy else 2 + i % 5)
        window = packets * rng.uniform(5.0, 60.0)
        start = rng.uniform(0.0, duration - window - 1.0)
        attacks.append(
            s.AttackSpec(victim=victim, dst_port=rng.choice(PORTS), start=start, stop=start + window,
                         rate_pps=packets / window, sensors=tuple(sorted(sensors)))
        )
    carpets = tuple(
        s.CarpetSpec(prefix=prefix, n_victims=16, n_flows=24, packets_per_flow=20,
                     start=rng.uniform(0.0, duration - 400.0), dst_port=rng.choice(PORTS))
        for prefix in ("203.0.113.0/24", "198.51.100.0/24")[: max(1, round(2 * scale))]
    )
    scans = tuple(
        s.ScanSpec(source=source, ports=(53, 123), start=rng.uniform(0.0, duration - 100.0), spacing_s=0.5)
        for source in _addresses(rng, "45.0.0.0", 20, max(1, round(6 * scale)))
    )
    return s.ScenarioSpec(seed=seed, sensors=n_sensors, duration_s=duration, attacks=tuple(attacks),
                          scans=scans, carpets=carpets, noise_packets=round(250 * scale))


def _detect_cli_setup(seed: int, scale: float, workdir: str) -> dict:
    corpus = hf().synth(_detect_cli_spec(seed, scale))
    hf().write_corpus(corpus, workdir)
    return {
        "workdir": workdir,
        "victims": sorted(corpus.victims),
        "carpets": sorted(corpus.carpet_prefixes),
    }


def _detect_cli_ops(state: dict):
    def call(preset: str):
        argv = ["detect", "--events", "events.jsonl", "--preset", preset, "--out", f"out/{preset}"]
        if preset == "ccc":
            argv.append("--carpet")
        return lambda: hf("cli").main(argv)

    return [(preset, call(preset)) for preset in sorted(hf().PRESETS)]


def _artifacts(state: dict, preset: str) -> dict[str, bytes]:
    out = os.path.join(state["workdir"], "out", preset)
    names = ("attacks.jsonl", "victims.csv", "manifest.json")
    artifacts = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as handle:
            artifacts[name] = handle.read()
    return artifacts


def _detect_cli_check(state: dict, preset: str, code, first_round: bool):
    if code != 0:
        return f"honeyflow detect --preset {preset} exited {code}"
    artifacts = _artifacts(state, preset)
    manifest = json.loads(artifacts["manifest.json"])
    if manifest["outputs"] != ["attacks.jsonl", "victims.csv"]:
        return f"{preset}: manifest lists {manifest['outputs']}"
    if preset == "ccc":
        rows = set(artifacts["victims.csv"].decode().splitlines()[1:])
        wanted = {f"{v},address" for v in state["victims"]} | {f"{p},prefix" for p in state["carpets"]}
        missing = wanted - rows
        if missing:
            return f"ccc missed {len(missing)} planted victims, e.g. {sorted(missing)[0]}"
    return None


def _detect_cli_digest(state: dict, preset: str, code) -> str:
    artifacts = _artifacts(state, preset)
    return _sha(b"".join(artifacts[name] for name in sorted(artifacts)))


# -- sweep-grid -----------------------------------------------------------------

# Preset whose scheme is swept -> base-threshold overrides: plain thresholds,
# the hpi clustering path and the newkid-multi port-union path.
SWEEPS = {
    "ccc": {},
    "hpi": {"min_sensors": 2, "comparison": ">"},
    "newkid-multi": {"min_dst_ports": 2},
}


def _sweep_grid_spec(seed: int, scale: float):
    s = hf("synth")
    rng = random.Random(seed)
    n_sensors, duration = 8, 3600.0
    attacks = []
    for i, victim in enumerate(_addresses(rng, "100.64.0.0", 22, max(2, round(30 * scale)))):
        packets = 8 + i % 23
        window = packets * rng.uniform(2.0, 30.0)
        start = rng.uniform(0.0, duration - window - 1.0)
        sensors = rng.sample(range(n_sensors), 2 + i % 3)
        attacks.append(
            s.AttackSpec(victim=victim, dst_port=rng.choice(PORTS), start=start, stop=start + window,
                         rate_pps=packets / window, sensors=tuple(sorted(sensors)))
        )
    scans = tuple(
        s.ScanSpec(source=source, ports=tuple(sorted(rng.sample(PORTS, 2))),
                   start=rng.uniform(0.0, duration - 100.0), spacing_s=rng.uniform(0.5, 5.0))
        for source in _addresses(rng, "45.0.0.0", 20, max(1, round(300 * scale)))
    )
    return s.ScenarioSpec(seed=seed, sensors=n_sensors, duration_s=duration, attacks=tuple(attacks),
                          scans=scans, noise_packets=round(4000 * scale))


def _sweep_grid_setup(seed: int, scale: float, workdir: str) -> dict:
    corpus = hf().synth(_sweep_grid_spec(seed, scale))
    hf().write_corpus(corpus, workdir)
    events = hf().load_trace(os.path.join(workdir, "events.jsonl"))
    return {"events": events, "pick": random.Random(seed).randrange(36)}


def _base(overrides: dict):
    return hf().AttackThresholds(name="sweep", idle_timeout=1.0, min_packets=1, **overrides)


def _sweep_grid_ops(state: dict):
    def call(preset: str, overrides: dict):
        scheme = hf().PRESETS[preset].scheme
        return lambda: hf().sweep(state["events"], scheme, TIMEOUTS, LOADS, _base(overrides))

    return [(preset, call(preset, overrides)) for preset, overrides in SWEEPS.items()]


def _sweep_grid_check(state: dict, name: str, grid, first_round: bool):
    if grid.attack_flows.shape != (len(TIMEOUTS), len(LOADS)):
        return f"{name}: grid shape {grid.attack_flows.shape}"
    # Plain and port-union thresholds judge each flow alone, so raising the
    # load can only remove attacks; hpi's clusters carry no such guarantee.
    if name != "hpi":
        for matrix in (grid.attack_flows, grid.victims):
            if (matrix[:, 1:] > matrix[:, :-1]).any():
                return f"{name}: a cell grows with the load"
    if first_round:
        timeout, load = TIMEOUTS[state["pick"] // 6], LOADS[state["pick"] % 6]
        flows = hf().assemble(state["events"], hf().PRESETS[name].scheme, timeout)
        cell = replace(_base(SWEEPS[name]), idle_timeout=timeout, min_packets=load)
        detected = hf().detect(flows, cell)
        expected = (sum(len(e.flows) for e in detected), len(hf().victims(detected)))
        if grid.cell(timeout, load) != expected:
            return f"{name}: cell ({timeout}, {load}) is {grid.cell(timeout, load)}, detect gives {expected}"
    return None


def _sweep_grid_digest(state: dict, name: str, grid) -> str:
    return _sha(grid.attack_flows.astype("<i8").tobytes() + grid.victims.astype("<i8").tobytes())


# -- platform-study -------------------------------------------------------------

def _platform_spec(seed: int, scale: float):
    s = hf("synth")
    rng = random.Random(seed)
    n_sensors, duration = 10, 7200.0
    attacks = []
    for i, victim in enumerate(_addresses(rng, "100.64.0.0", 22, max(4, round(1600 * scale)))):
        packets = 6 + i % 7
        window = packets * rng.uniform(5.0, 30.0)
        start = rng.uniform(0.0, duration - window - 1.0)
        sensors = rng.sample(range(n_sensors), 1 + i % 3)
        attacks.append(
            s.AttackSpec(victim=victim, dst_port=rng.choice(PORTS), start=start, stop=start + window,
                         rate_pps=packets / window, sensors=tuple(sorted(sensors)))
        )
    scans = tuple(
        s.ScanSpec(source=source, ports=(123,), start=rng.uniform(0.0, duration - 100.0), spacing_s=1.0)
        for source in _addresses(rng, "45.0.0.0", 20, max(1, round(200 * scale)))
    )
    return s.ScenarioSpec(seed=seed, sensors=n_sensors, duration_s=duration, attacks=tuple(attacks),
                          scans=scans, noise_packets=round(3000 * scale),
                          baseline_events=max(2, round(1750 * scale)), baseline_overlap=0.9)


def _platform_setup(seed: int, scale: float, workdir: str) -> dict:
    corpus = hf().synth(_platform_spec(seed, scale))
    hf().write_corpus(corpus, workdir)
    rng = random.Random(seed)
    attack_victims = sorted(corpus.victims)
    listed_victims = rng.sample(attack_victims, min(50, len(attack_victims)))
    unseen = _addresses(rng, "172.16.0.0", 12, 100)
    scanners = hf().load_scanner_list(os.path.join(workdir, "scanners.txt"))
    return {
        "events": hf().load_trace(os.path.join(workdir, "events.jsonl")),
        "baseline": hf().load_baseline(os.path.join(workdir, "baseline.jsonl")),
        "scanners": hf().ScannerList(sources=scanners.sources | set(listed_victims) | set(unseen)),
        "scan_sources": sorted(scanners.sources),
        "listed_victims": listed_victims,
        "unseen": unseen,
        "victims": attack_victims,
        "baseline_matched": corpus.baseline_matched,
        "mapping": hf().synth_sensor_victim_map(50, 2000, 0.165, seed=seed),
        "permutations": max(100, round(5000 * scale)),
        "seed": seed % 2**64,  # numpy generators take no negative seeds
    }


def _platform_ops(state: dict):
    ccc = hf().PRESETS["ccc"]
    mapping, n, seed = state["mapping"], state["permutations"], state["seed"]

    def overlap():
        attacks = hf().detect(hf().assemble(state["events"], ccc.scheme, ccc.thresholds.idle_timeout),
                              ccc.thresholds)
        return attacks, hf().overlap_report(attacks, state["events"], state["baseline"], slack_s=30.0)

    return [
        ("greedy_order", lambda: hf().greedy_order(mapping)),
        ("permutation_ensemble", lambda: hf().permutation_ensemble(mapping, n_permutations=n, seed=seed)),
        ("stability_trace", lambda: hf().stability_trace(mapping, batch=100, max_permutations=n, seed=seed)),
        ("overlap_report", overlap),
        ("classify_sources",
         lambda: hf().classify_sources(state["scanners"], state["events"], ccc.scheme, ccc.thresholds)),
    ]


def _platform_check(state: dict, name: str, output, first_round: bool):
    n = state["permutations"]
    if name == "greedy_order":
        union = len(set().union(*state["mapping"].values()))
        if list(output.cumulative) != sorted(output.cumulative) or output.cumulative[-1] != union:
            return "greedy curve is not monotone up to the union"
    elif name == "permutation_ensemble":
        order = (output.mins, output.q1, output.medians, output.q3, output.maxs)
        if output.n_permutations != n or any((a > b).any() for a, b in zip(order, order[1:])):
            return "rank statistics out of order"
        if output.mins[-1] != 1.0 or output.maxs[-1] != 1.0:
            return "full rank does not cover the union"
    elif name == "stability_trace":
        if len(output) != math.ceil(n / 100) or output[-1].n_permutations != n:
            return f"stability trace has {len(output)} points"
    elif name == "overlap_report":
        attacks, report = output
        flagged = {v.identity for v in hf().victims(attacks)}
        if not flagged >= set(state["victims"]):
            return f"ccc missed {len(set(state['victims']) - flagged)} planted victims"
        if report.matched_with_ports != state["baseline_matched"]:
            return f"confirmed {report.matched_with_ports} baseline records, planted {state['baseline_matched']}"
        if report.upper_with_ports < report.matched_with_ports:
            return "upper bound below the detector's matches"
    elif name == "classify_sources":
        expected = {s: hf().CLASS_SCAN_ONLY for s in state["scan_sources"]}
        expected.update({s: hf().CLASS_ATTACK for s in state["listed_victims"]})
        expected.update({s: hf().CLASS_UNSEEN for s in state["unseen"]})
        if output.classes != expected:
            wrong = sum(output.classes.get(s) != c for s, c in expected.items())
            return f"{wrong} sources misclassified"
    return None


def _platform_digest(state: dict, name: str, output) -> str:
    if name == "greedy_order":
        return _json_sha([output.sensors, output.new_victims, output.cumulative, output.shares])
    if name == "permutation_ensemble":
        arrays = (output.mins, output.q1, output.medians, output.q3, output.maxs)
        return _sha(b"".join(a.astype("<f8").tobytes() for a in arrays))
    if name == "stability_trace":
        return _json_sha([[p.n_permutations, p.dmin, p.dmedian, p.dmax] for p in output])
    if name == "overlap_report":
        return _json_sha(hf("completeness").report_to_dict(output[1]))
    return _json_sha([output.classes, output.packets, output.attack_events, output.counts, output.shares])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-cli", _detect_cli_setup, _detect_cli_ops, _detect_cli_check, _detect_cli_digest),
        Workload("sweep-grid", _sweep_grid_setup, _sweep_grid_ops, _sweep_grid_check, _sweep_grid_digest),
        Workload("platform-study", _platform_setup, _platform_ops, _platform_check, _platform_digest),
    )
}
