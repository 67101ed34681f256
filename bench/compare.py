"""Summarise one set of benchmark results, or compare two.

    python3 bench/compare.py results.jsonl
    python3 bench/compare.py base.jsonl new.jsonl

Each file holds the JSON lines that ``bench/run.py --out`` appends.  One
file: per workload and end-to-end metric, the median, the quartiles and the
spread (interquartile distance over median) against the metric's bound.
Two files: the medians and quartiles of both, the ratio new/base and a
verdict by the pairing rule.  Runs pair by workload and seed.  The verdict
is ``better`` when the new side wins at least nine tenths of the pairs, ties
counting for neither, and the medians differ by more than the base's
interquartile distance; ``worse`` by the same rule the other way; otherwise
``unresolved``.  The ``gate`` column says whether the new median stays
within the metric's bound of the base median.

Both modes print the tracing overhead (traced runs minus untraced runs,
from the end-to-end metrics every run records) and whether each seed's
output fingerprint repeated or moved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def e2e_spec() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(records: list[dict], trace: int) -> dict:
    out = defaultdict(list)
    for rec in records:
        if rec["trace"] == trace:
            out[rec["workload"]].append(rec)
    return out


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["e2e"][metric]["value"] for r in runs]


def tracing_overhead(records: list[dict]) -> list[str]:
    plain, traced = by_workload(records, 0), by_workload(records, 1)
    lines = []
    for name in plain:
        if name not in traced:
            continue
        base = statistics.median(values(plain[name], "items_per_s"))
        with_trace = statistics.median(values(traced[name], "items_per_s"))
        lines.append(f"  {name}: items_per_s {with_trace - base:+.4g} 1/s "
                     f"({(with_trace - base) / base:+.2%}) with tracing")
    return lines


def fingerprints(records: list[dict]) -> dict:
    seen = defaultdict(set)
    for rec in records:
        key = (rec["workload"], rec["seed"], rec["tiny"], rec["seconds"])
        seen[key].add(json.dumps(rec["fingerprint"], sort_keys=True))
    return seen


def summarise(records: list[dict]) -> None:
    spec = e2e_spec()
    for name, runs in by_workload(records, 0).items():
        print(f"{name}: {len(runs)} untraced runs, "
              f"{sum(not r['correct'] for r in runs)} incorrect")
        for metric, m in spec.items():
            q1, med, q3 = quartiles(values(runs, metric))
            spread = (q3 - q1) / med
            bound = m["bound"]
            print(f"  {metric:12s} median {med:.6g} {m['unit']} "
                  f"[{q1:.6g}, {q3:.6g}]  spread {spread:.2%} "
                  f"of bound {bound:.0%}")
    print("tracing overhead:")
    print("\n".join(tracing_overhead(records)) or "  no traced runs")
    print("fingerprints:")
    for (name, seed, tiny, seconds), prints in sorted(fingerprints(records).items()):
        state = "repeat" if len(prints) == 1 else f"{len(prints)} distinct"
        print(f"  {name} seed {seed}: {state}")


def verdict(pairs: list[tuple[float, float]], better: str,
            base_iqr: float, delta: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    if wins >= 0.9 * len(pairs) and sign * delta > base_iqr:
        return "better"
    if losses >= 0.9 * len(pairs) and -sign * delta > base_iqr:
        return "worse"
    return "unresolved"


def compare(base: list[dict], new: list[dict]) -> None:
    spec = e2e_spec()
    base_runs, new_runs = by_workload(base, 0), by_workload(new, 0)
    for name, b_runs in base_runs.items():
        n_runs = new_runs.get(name)
        if not n_runs:
            print(f"{name}: no runs in the new set")
            continue
        new_by_seed = defaultdict(list)
        for r in n_runs:
            new_by_seed[r["seed"]].append(r)
        paired = []
        for r in b_runs:
            if new_by_seed[r["seed"]]:
                paired.append((r, new_by_seed[r["seed"]].pop(0)))
        print(f"{name}: {len(b_runs)} base runs, {len(n_runs)} new runs, "
              f"{len(paired)} pairs")
        for metric, m in spec.items():
            bq1, bmed, bq3 = quartiles(values(b_runs, metric))
            nq1, nmed, nq3 = quartiles(values(n_runs, metric))
            pairs = [(b["e2e"][metric]["value"], n["e2e"][metric]["value"])
                     for b, n in paired]
            worse_by = (bmed - nmed if m["better"] == "higher"
                        else nmed - bmed) / bmed
            gate = "ok" if worse_by <= m["bound"] else "OVER BOUND"
            v = verdict(pairs, m["better"], bq3 - bq1, nmed - bmed) \
                if pairs else "unresolved"
            print(f"  {metric:12s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}] {m['unit']}  "
                  f"ratio {nmed / bmed:.4f}  {v}  gate {gate}")
    for label, records in (("base", base), ("new", new)):
        print(f"tracing overhead, {label}:")
        print("\n".join(tracing_overhead(records)) or "  no traced runs")
    print("fingerprints:")
    base_prints, new_prints = fingerprints(base), fingerprints(new)
    for key in sorted(base_prints.keys() & new_prints.keys()):
        moved = base_prints[key] != new_prints[key]
        print(f"  {key[0]} seed {key[1]}: {'MOVED' if moved else 'unchanged'}")


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        summarise(load(argv[0]))
    elif len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
