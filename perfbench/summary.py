"""Run every workload several times and print each metric's median and quartiles.

    python3 perfbench/summary.py --runs 10 [--trace 1]

Each run is a fresh ``run.py`` process with its own seed (run i uses seed
i, so run 0 also checks the pinned digests) and measures for the
``run_seconds`` that ``BENCHMARK.json`` sets. Workloads are interleaved and
their order rotates from one repetition to the next, so drift on a shared
machine lands on all of them alike. The error rate is failed operations
over attempted ones, summed over all runs of a workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run in a fresh process; returns (machine record, result)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["machine"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results: dict[str, list[dict]] = {name: [] for name in names}
    machine = None
    for rep in range(args.runs):
        shift = rep % len(names)
        for name in names[shift:] + names[:shift]:
            machine, result = run_once(name, rep, seconds, args.trace)
            results[name].append(result)
            print(f"# run {rep} {name}: " + json.dumps(result), file=sys.stderr)

    print(f"machine: {json.dumps(machine)}")
    print(f"{'workload':16s} {'metric':40s} {'unit':>10s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'n':>3s}")
    for name in names:
        runs = results[name]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = [(metric, spec["unit"], [r["metrics"][metric]["value"] for r in runs])
                for metric, spec in runs[0]["metrics"].items()]
        rows.append(("error_rate", "ratio", [r["failed"] / r["attempted"] for r in runs]))
        for metric, unit, values in rows:
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:16s} {metric:40s} {unit:>10s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {len(values):3d}")
        print(f"{name:16s} {'operations failed / attempted':40s} {failed:>10d} / {attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
