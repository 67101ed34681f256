"""Tests of the benchmark: tiny smoke runs of every workload, span nesting."""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracing import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_workloads():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


def run_bench(tmp: Path, workload: str, trace: int):
    out = tmp / f"trace{trace}.jsonl"
    spans = tmp / "spans.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--out", str(out)]
    if trace:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text()), spans


# Every workload, including any kept out of BENCHMARK.json.
@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return run_bench(tmp, request.param, 0), run_bench(tmp, request.param, 1)


def test_every_metric_is_reported_with_its_unit(runs):
    for (last, _, _), section in zip(runs, ("end_to_end", "per_layer")):
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["attempted"] >= 1
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(isinstance(m["value"], (int, float))
                   for m in last["metrics"].values())


def test_nothing_fails_outside_the_probe(runs):
    for _, record, _ in runs:
        assert record["failed"] == 0 and record["fail_share"] == 0.0
        assert not record["failures"]


def test_fingerprints_repeat_for_a_seed(runs):
    (_, plain, _), (_, traced, _) = runs
    assert plain["seed"] == traced["seed"]
    assert plain["fingerprint"] == traced["fingerprint"]
    if "hits" in plain["fingerprint"]:
        assert (traced["per_layer"]["kinematics.hits"]["value"]
                == plain["fingerprint"]["hits"])


def test_spans_nest(runs):
    _, (_, _, path) = runs
    spans = [SimpleNamespace(**s) for s in json.loads(path.read_text())]
    assert spans
    by_id = {s.id: s for s in spans}
    for s in spans:
        assert s.start <= s.end
        parent = by_id.get(s.parent)
        if parent is not None:
            assert parent.start <= s.start and s.end <= parent.end
            assert parent.item == s.item
    assert min(self_times(spans).values()) >= 0.0


def test_probe_failures_show_only_in_the_layer_count(runs):
    (_, plain, _), (_, traced, _) = runs
    if plain["workload"] != "large-polygons":
        pytest.skip("the domain probe belongs to large-polygons")
    assert len(plain["probe"]) == 2
    assert all(v in ("ok", "failed: RecursionError")
               for v in plain["probe"].values())
    known = sum(v != "ok" for v in traced["probe"].values())
    assert traced["per_layer"]["radii.circumradius.failed"]["value"] == known
