"""curvedkin benchmark: a closed loop with one client and one item in flight.

Run from the repository root:

    python3 bench/run.py --workload kinematic-mc --seed 17 --seconds 20
    python3 bench/run.py --workload large-polygons --trace 1 --spans spans.json
    python3 bench/run.py --workload all --out results.jsonl
    python3 bench/compare.py results.jsonl [other.jsonl]

The library is imported from ``src/`` beside this directory, never from an
installed copy.  Each run prints its metrics by name and unit, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics.  ``--out`` appends the full record (both metric
sets, fingerprint, probe, provenance) as one JSON line.

Exit status: 0 when every output checked out, 1 when a check failed, 2 when
the library sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

# BLAS and OpenMP pools would be threads of the benchmark's own; pin them
# before numpy loads, so the only threads are the library's suite pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# (name, unit, better): the end-to-end contract, repeated in BENCHMARK.json.
E2E = (
    ("items_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_REPEATS = 5
IMPORT_REPEATS = 6
# Run in a fresh interpreter: the import time of the library, as a new
# process pays it.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import curvedkin, curvedkin.cli; "
                "print(time.perf_counter() - t)")
MAX_FAILURES_LISTED = 10


def load_library() -> float:
    """Import curvedkin from ``src/``; return the import time in seconds."""
    if not (SRC / "curvedkin" / "__init__.py").is_file():
        print(f"error: no curvedkin sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    lib = importlib.import_module("curvedkin")
    importlib.import_module("curvedkin.cli")
    elapsed = time.perf_counter() - start
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: curvedkin was imported from {lib.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return elapsed


def import_times() -> list[float]:
    """Library import time in fresh interpreters, waited for one by one."""
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True)
        out.append(float(proc.stdout))
    return out


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curvedkin").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import platform

    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten items beyond it.

    None below 20 items, where that percentile would not be a tail.
    """
    n = len(times)
    if n < 20:
        return None
    return {"value": sorted(times)[n - 11] * 1e3, "unit": "ms",
            "percentile": 100.0 * (n - 10) / n, "beyond": 10, "items": n}


def measure(workload, items, seconds: float, tracer) -> dict:
    """Run the items once, then whole blocks of them again, for ``seconds``.

    The first pass always completes: its digests make the fingerprint and
    its spans the per-layer metrics.  After it the loop cycles through the
    items and stops at the block boundary nearest to ``seconds``.  Every
    output is checked, and outputs for the same input key must be equal.
    """
    block = workload.config["block"]
    times: list[float] = []
    failures: list[str] = []
    first: dict = {}
    digests0: list = []  # digests, not outputs: keeping outputs slows the GC
    failed = i = 0
    start = time.perf_counter()
    while True:
        j = i % len(items)
        if j == 0:
            workload.start_pass()
        if tracer is not None:
            tracer.item = i
        item = items[j]
        t = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as e:  # one item's error must not end the run
            times.append(time.perf_counter() - t)
            failed += 1
            failures.append(f"{item.key!r}: {type(e).__name__}: {e}")
        else:
            times.append(time.perf_counter() - t)
            problem = workload.check(item, out)
            digest = workload.digest(out)
            if first.setdefault(item.key, digest) != digest:
                problem = problem or "output differs for a repeated input"
            if i < len(items):
                digests0.append(digest)
            if problem:
                failed += 1
                failures.append(f"{item.key!r}: {problem}")
        i += 1
        if i >= len(items) and i % block == 0:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds - elapsed / (i // block) / 2:
                break
    return {"times": times, "elapsed": elapsed, "passes": i / len(items),
            "failed": failed, "failures": failures[:MAX_FAILURES_LISTED],
            "fingerprint": workload.summary(digests0)}


def run_one(args, import_s: float) -> int:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    seed = WORKLOADS[args.workload].default_seed if args.seed is None \
        else args.seed
    WORK.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=WORK) as workdir, \
            (tracer.installed() if tracer else nullcontext()):
        workload = WORKLOADS[args.workload](tiny=args.tiny,
                                            workdir=Path(workdir))
        n = workload.n_items(args.seconds)
        setup_times = []
        for rep in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.item = "setup" if rep == 0 else "setup-repeat"
            t = time.perf_counter()
            items = workload.setup(seed, n)
            setup_times.append(time.perf_counter() - t)
        result = measure(workload, items, args.seconds, tracer)
        if tracer is not None:
            tracer.item = "probe"
        probe = workload.probe()
    imports = [import_s] + import_times()
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still has its directory there

    times = result["times"]
    e2e_values = {
        "items_per_s": len(times) / result["elapsed"],
        "setup_s": statistics.median(imports) + statistics.median(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    e2e = {name: {"value": e2e_values[name], "unit": unit}
           for name, unit, _ in E2E}
    attempted = len(times)
    failed = result["failed"]
    correct = failed == 0 and not any(v.startswith("wrong")
                                      for v in probe.values())
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "correct": correct,
        "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted, "failures": result["failures"],
        "passes": result["passes"], "timed_s": result["elapsed"],
        "import_runs_s": imports, "setup_runs_s": setup_times,
        "e2e": e2e,
        "item_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "item_tail_ms": _tail(times),
        "fingerprint": result["fingerprint"], "probe": probe,
        "config": workload.config, "provenance": provenance(),
    }
    if tracer is not None:
        def keep(item):
            return item in ("setup", "probe") or (
                isinstance(item, int) and item < len(items))

        record["per_layer"] = layer_metrics(tracer, keep)
        record["unbound"] = tracer.unbound
        if args.spans:
            tracer.dump(args.spans, keep)

    shown = record["per_layer"] if tracer is not None else e2e
    print(f"workload {args.workload}  seed {seed}  items {attempted}  "
          f"passes {result['passes']:.3g}  failed {failed}")
    for name, m in shown.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  item_p50_ms = {record['item_p50_ms']['value']!r} ms")
    tail = record["item_tail_ms"]
    if tail is not None:
        print(f"  item_tail_ms = {tail['value']!r} ms (p{tail['percentile']:.2f},"
              f" {tail['beyond']} of {tail['items']} items beyond)")
    print(f"  fail_share = {record['fail_share']!r}")
    for key, value in record["fingerprint"].items():
        print(f"  fingerprint.{key} = {value}")
    for label, outcome in probe.items():
        print(f"  probe {label}: {outcome}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is its own."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.out:
            cmd += ["--out", args.out]
        if args.tiny:
            cmd.append("--tiny")
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="kinematic-mc, bonnesen-bodies, large-polygons, "
                        "campaign-all, or all")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: trace layer spans and print per-layer metrics")
    p.add_argument("--out", help="append the full JSON record to this file")
    p.add_argument("--spans", help="with --trace 1, write the spans here")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: far less work per item")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.spans and not args.trace:
        p.error("--spans needs --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = load_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
