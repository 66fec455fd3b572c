"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced; every metric named in
BENCHMARK.json must come out with its unit, and a corrupted output must be
counted as a failed operation rather than pass silently.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run.import_honeyflow()
SCALE = 0.02
SEED = 3
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, kind):
    result = run.measure(name, SEED, 0.0, trace, scale=SCALE)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == _units(kind)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _corrupt_victims(monkeypatch):
    cli = sys.modules["honeyflow.cli"]
    original = cli.victims
    monkeypatch.setattr(cli, "victims", lambda attacks: set(sorted(original(attacks), key=str)[1:]))


def _corrupt_sweep(monkeypatch):
    hf = sys.modules["honeyflow"]
    original = hf.sweep

    def sweep(*args, **kwargs):
        grid = original(*args, **kwargs)
        grid.attack_flows[:, -1] += 1
        return grid

    monkeypatch.setattr(hf, "sweep", sweep)


def _corrupt_matching(monkeypatch):
    completeness = sys.modules["honeyflow.completeness"]
    original = completeness.match_baseline
    monkeypatch.setattr(
        completeness, "match_baseline",
        lambda attacks, baseline, **kw: original(attacks[: len(attacks) // 2], baseline, **kw),
    )


@pytest.mark.parametrize(
    "name, corrupt",
    [("detect-cli", _corrupt_victims), ("sweep-grid", _corrupt_sweep), ("platform-study", _corrupt_matching)],
)
def test_a_corrupted_output_counts_as_failed(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    result = run.measure(name, SEED, 0.0, False, scale=SCALE)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_a_digest_mismatch_counts_as_failed(tmp_path, monkeypatch):
    workload = WORKLOADS["sweep-grid"]
    state = workload.setup(SEED, SCALE, str(tmp_path))
    _, results = run.run_round(workload, state)
    pinned = {op: workload.digest(state, op, output) for op, output, _ in results}
    assert run.check_round(workload, state, results, False, pinned) == [None] * len(results)
    pinned["hpi"] = "0" * 64
    errors = run.check_round(workload, state, results, False, pinned)
    assert [op for (op, _, _), error in zip(results, errors) if error] == ["hpi"]


def test_a_nonzero_cli_exit_counts_as_failed(monkeypatch):
    cli = sys.modules["honeyflow.cli"]
    monkeypatch.setattr(cli, "load_trace", lambda path: (_ for _ in ()).throw(OSError("unreadable")))
    result = run.measure("detect-cli", SEED, 0.0, False, scale=SCALE)
    assert result["failed"] == result["attempted"] == 6
