"""Run one honeyflow benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload detect-cli --seed 0 --seconds 30 --trace 0

The program under test is the ``honeyflow`` package in ``src/`` next to this
directory; nothing needs building. Set-up (import, synthesis, writing the
corpus, loading in-memory inputs) runs several times and its median is
reported; then whole rounds of the workload run until ``--seconds`` have
passed and the median round is reported. With ``--trace 1`` rounds alternate
between untraced and traced, and the result holds per-layer metrics instead.
Every output is checked; a failed check, an exception or a non-zero CLI exit
counts as a failed operation.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3

# Peak RSS growth of a fresh process that imports honeyflow and loads one trace.
_RSS_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import honeyflow
from run import peak_rss_bytes
before = peak_rss_bytes()
events = honeyflow.load_trace(sys.argv[3])
print((peak_rss_bytes() - before) / len(events))
"""


def import_honeyflow():
    """Import honeyflow from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "honeyflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no honeyflow sources in {src}")
    sys.path.insert(0, str(src))
    import honeyflow
    import honeyflow.cli  # noqa: F401  (the package does not import its CLI)

    if Path(honeyflow.__file__).resolve().parent != src / "honeyflow":
        raise SystemExit(f"perfbench: imported honeyflow from {honeyflow.__file__}, not {src}")
    return honeyflow


def peak_rss_bytes() -> int:
    """This process's own peak RSS.

    ``ru_maxrss`` survives fork and exec, so a child started by a larger
    parent reads the parent's peak; the kernel's VmHWM belongs to this
    process alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # this checkout only
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "honeyflow").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def run_round(workload, state: dict) -> tuple[float, list]:
    """Time one round; returns (wall seconds, [(op, output, error)])."""
    results = []
    start = time.perf_counter()
    for name, thunk in workload.ops(state):
        try:
            results.append((name, thunk(), None))
        except Exception as exc:  # an operation that raises is a failed operation
            results.append((name, None, f"{name} raised {type(exc).__name__}: {exc}"))
    return time.perf_counter() - start, results


def check_round(workload, state: dict, results: list, first: bool, pinned: dict | None) -> list[str]:
    errors = []
    for name, output, error in results:
        if error is None:
            try:
                error = workload.check(state, name, output, first)
                if error is None and pinned is not None:
                    digest = workload.digest(state, name, output)
                    if digest != pinned.get(name):
                        error = f"{name}: output digest {digest[:12]} differs from the pinned one"
            except Exception as exc:  # unreadable or malformed output
                error = f"{name}: checking the output raised {type(exc).__name__}: {exc}"
        errors.append(error)
    return errors


def _layer_totals(spans) -> dict:
    """Per span name: calls, self and total seconds, summed counts."""
    totals = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = totals[span.name]
        row["calls"] += 1
        row["self_s"] += span.self_s
        row["total_s"] += span.duration
        for key, value in span.counts.items():
            row[key] += value
    return totals


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _round_layers(totals: dict, wall: float) -> dict:
    """Per-layer metrics of one traced round; a layer not called reads 0."""

    def get(name, key="self_s"):
        return totals[name][key] if name in totals else 0.0

    load, asm, det = "events.load_trace", "flows.assemble", "detection.detect"
    ens, stab, match = "convergence.permutation_ensemble", "convergence.stability_trace", "completeness.match_baseline"
    drawn = get(ens, "permutations") + get(stab, "permutations")
    return {
        "events.load_trace.self_s": get(load),
        "events.load_trace.us_per_event": _ratio(get(load) * 1e6, get(load, "events")),
        "events.load_trace.calls": get(load, "calls"),
        "flows.assemble.self_s": get(asm),
        "flows.assemble.us_per_event": _ratio(get(asm) * 1e6, get(asm, "events")),
        "flows.assemble.calls": get(asm, "calls"),
        "flows.flows_out": get(asm, "flows"),
        "flows.events_per_flow": _ratio(get(asm, "events"), get(asm, "flows")),
        "detection.detect.self_s": get(det),
        "detection.detect.calls": get(det, "calls"),
        "detection.flows_in": get(det, "flows"),
        "detection.attacks_out": get(det, "attacks"),
        "detection.attack_ratio": _ratio(get(det, "attacks"), get(det, "flows")),
        "detection.detect_carpet_bombing.self_s": get("detection.detect_carpet_bombing"),
        "sweep.sweep.self_s": get("sweep.sweep"),
        "sweep.cells": get("sweep.sweep", "cells"),
        "sweep.s_per_cell": _ratio(get("sweep.sweep", "total_s"), get("sweep.sweep", "cells")),
        "convergence.stability_trace.self_s": get(stab),
        "convergence.permutation_ensemble.self_s": get(ens),
        "convergence.greedy_order.self_s": get("convergence.greedy_order"),
        "convergence.us_per_permutation": _ratio((get(ens) + get(stab)) * 1e6, drawn),
        "convergence.permutations_drawn": drawn,
        "completeness.match_baseline.self_s": get(match),
        "completeness.pairs_examined": get(match, "pairs"),
        "completeness.upper_bound.self_s": get("completeness.upper_bound"),
        "completeness.classify_sources.self_s": get("completeness.classify_sources"),
        "completeness.confirmed_ratio": _ratio(get(match, "confirmed"), get(match, "records")),
        "cli.main.self_s": get("cli.main"),
        "trace.layer_coverage": sum(r["self_s"] for n, r in totals.items() if not n.startswith("cli.")) / wall,
    }


def metric_units() -> dict:
    """Each metric's unit, as ``BENCHMARK.json`` names it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def layer_metrics(rounds: list[tuple[float, dict]], untraced: list[float], setups: list[dict],
                  rss_per_event: float) -> dict:
    """Per-layer metrics: medians over traced rounds, set-up medians for synth."""
    per_round = [_round_layers(totals, wall) for wall, totals in rounds]
    values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    values["events.rss_bytes_per_event"] = rss_per_event
    for name in ("synth.synth", "synth.write_corpus"):
        values[f"{name}.s"] = statistics.median(s.get(name, 0.0) for s in setups)
    values["trace.overhead_s"] = statistics.median(w for w, _ in rounds) - statistics.median(untraced)
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Set up and run one workload; returns the result object."""
    import_honeyflow()
    import_s = time.perf_counter() - STARTED
    units = metric_units()
    workload = WORKLOADS[name]
    pinned = None
    if seed == DEFAULT_SEED and scale == 1.0:
        with open(BENCH / "digests.json", encoding="utf-8") as handle:
            pinned = json.load(handle)[name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(workdir)  # CLI manifests then name the trace by a relative path
    tracer = Tracer() if trace else None
    try:
        setup_times, setups, state = [], [], None
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            mark = len(tracer.spans) if tracer else 0
            start = time.perf_counter()
            if tracer:
                with tracer.installed():
                    state = workload.setup(seed, scale, str(workdir))
                setups.append({s.name: s.duration for s in tracer.spans[mark:]})
            else:
                state = workload.setup(seed, scale, str(workdir))
            setup_times.append(time.perf_counter() - start)

        walls, traced = [], []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while True:
            traced_round = tracer is not None and len(walls) > len(traced)
            gc.collect()
            if traced_round:
                mark = len(tracer.spans)
                with tracer.installed():
                    wall, results = run_round(workload, state)
                traced.append((wall, _layer_totals(tracer.spans[mark:])))
            else:
                wall, results = run_round(workload, state)
                walls.append(wall)
            errors = check_round(workload, state, results, attempted == 0, pinned)
            results = None  # free this round's outputs before the next round
            attempted += len(errors)
            for error in filter(None, errors):
                failed += 1
                print(f"perfbench: {error}", file=sys.stderr)
            if time.perf_counter() >= deadline and (tracer is None or traced):
                break

        if tracer:
            probe = subprocess.run(
                [sys.executable, "-c", _RSS_PROBE, str(ROOT / "src"), str(BENCH), "events.jsonl"],
                capture_output=True, text=True, check=True, timeout=170,
            )
            values = layer_metrics(traced, walls, setups, float(probe.stdout))
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write(str(out / f"spans-{name}-seed{seed}.jsonl"))
        else:
            values = {
                "wall_s": statistics.median(walls),
                "peak_rss_mb": peak_rss_bytes() / 2**20,
                "setup_s": import_s + statistics.median(setup_times),
            }
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": machine_record()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
