"""Checks on the committed benchmark records, BENCH_<pr>.json.

Each record file holds the ``bench/run.py --out`` runs of a parent and a
change, grouped by workload, and names the workload and metric whose gain
it claims.  A speed claim rests on these files, so each must be complete:
the claim names what BENCHMARK.json declares, every gated workload ran on
both sides, the claimed one at least ten times per side, and no run failed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
CLAIM_RUNS = 10


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def runs_by_side(record: dict) -> dict:
    """Every run of each side, whatever group it was filed under."""
    return {side: [run for group in record["runs"].values()
                   for run in group.get(side, [])] for side in SIDES}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
class TestBenchRecord:
    def test_claim_is_declared(self, path):
        claimed = json.loads(path.read_text(encoding="utf-8"))["claimed"]
        spec = benchmark()
        assert claimed["workload"] in {w["name"] for w in spec["workloads"]}
        assert claimed["metric"] in {m["name"] for m in spec["end_to_end"]}

    def test_gated_workloads_ran_on_both_sides(self, path):
        sides = runs_by_side(json.loads(path.read_text(encoding="utf-8")))
        for workload in benchmark()["workloads"]:
            for side in SIDES:
                assert any(run["workload"] == workload["name"]
                           for run in sides[side]), (workload["name"], side)

    def test_claimed_workload_has_ten_runs_per_side(self, path):
        record = json.loads(path.read_text(encoding="utf-8"))
        claimed = record["claimed"]["workload"]
        for side, runs in runs_by_side(record).items():
            n = sum(run["workload"] == claimed for run in runs)
            assert n >= CLAIM_RUNS, (side, n)

    def test_every_run_is_correct(self, path):
        for side, runs in runs_by_side(
                json.loads(path.read_text(encoding="utf-8"))).items():
            for run in runs:
                assert run["correct"] is True and run["failed"] == 0, (
                    side, run["workload"], run["seed"])
