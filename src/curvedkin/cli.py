"""Campaign runner: builds bodies, runs verification suites, writes reports.

Reports are flat records, one per (body, bound) or per pair, so the output
is trivially diffable and plottable.  Runs are deterministic for a fixed
seed: every (suite, kappa) task gets its own pre-split random stream indexed
by position.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .bonnesen import (deficit_report, kappa_limit_sweep,
                       random_convex_bodies)
from .convex import GeodesicPolygon, convex_hull, regular_ngon
from .kinematics import (containment_criteria, find_containment,
                         kinematic_lhs, kinematic_rhs)
from .radii import metrics_stack
from .surface import (Curvature, GeometryError, RandomStream, exp_at_base,
                      point_polar)

REPORT_FIELDS = [
    "suite", "seed", "kappa", "body_id", "A", "P", "r_in", "R_circ",
    "deficit", "bound_name", "bound_value", "slack", "satisfied",
    "mc_mean", "mc_stderr", "samples", "tolerance",
]

DEFAULT_SQUARE = ((math.sqrt(0.5), math.pi / 4),
                  (math.sqrt(0.5), 3 * math.pi / 4),
                  (math.sqrt(0.5), 5 * math.pi / 4),
                  (math.sqrt(0.5), 7 * math.pi / 4))

SWEEP_KAPPAS = (0.1, -0.1, 0.01, -0.01, 0.001, -0.001, 0.0001, -0.0001)

# Two-sided false-alarm rate of one pair held to a 3 sigma band, 0.27%.
KINEMATIC_ALPHA = math.erfc(3.0 / math.sqrt(2.0))


class BodyFileError(ValueError):
    """Parse or validation failure in a body file, with position info."""


@dataclass
class CampaignConfig:
    seed: int = 42
    kappas: tuple[float, ...] = (-1.0, 0.0, 1.0)
    mc_samples: int = 20000
    count: int = 25
    max_vertices: int = 8
    budget: int = 10000
    body_file: Optional[str] = None
    disc_ngon: Optional[tuple[float, int]] = None
    output: Optional[str] = None
    fmt: str = "json"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.mc_samples < 1000:
            raise ValueError("mc_samples must be >= 1000")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.max_vertices < 3:
            raise ValueError(
                f"max_vertices must be >= 3, got {self.max_vertices}")
        if not self.kappas:
            raise ValueError("at least one kappa is required")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")


def _record(**kw) -> dict:
    rec = {k: None for k in REPORT_FIELDS}
    rec.update(kw)
    return rec


# ---------------------------------------------------------------------------
# Body sources
# ---------------------------------------------------------------------------

def parse_body_file(path: str) -> list[tuple[Curvature, GeodesicPolygon]]:
    """Parse the line-oriented body format.

    Grammar (one body per paragraph, '#' starts a comment)::

        kappa <float>
        v <r> <theta>     # polar coordinates about the base point
        v <r> <theta>
    """
    bodies = []
    curv: Optional[Curvature] = None
    verts: list = []
    first_line = 0

    def flush(lineno):
        nonlocal curv, verts
        if curv is None:  # no body open; vertices only follow a header
            return
        if not verts:
            raise BodyFileError(f"{path}:{first_line}: body has no vertices")
        try:
            poly = convex_hull(verts)
        except GeometryError as e:
            raise BodyFileError(f"{path}:{first_line}: invalid body: {e}") from e
        bodies.append((curv, poly))
        curv, verts = None, []

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                flush(lineno)
                continue
            parts = line.split()
            if parts[0] == "kappa":
                if curv is not None:
                    raise BodyFileError(f"{path}:{lineno}: duplicate kappa header")
                try:
                    (value,) = parts[1:]
                    curv = Curvature(float(value))
                except ValueError as e:
                    raise BodyFileError(f"{path}:{lineno}: bad kappa line") from e
                first_line = lineno
            elif parts[0] == "v":
                if curv is None:
                    raise BodyFileError(f"{path}:{lineno}: vertex before kappa header")
                try:
                    r, theta = (float(x) for x in parts[1:])
                except ValueError as e:
                    raise BodyFileError(f"{path}:{lineno}: bad vertex line") from e
                try:
                    verts.append(exp_at_base(curv, r, theta))
                except GeometryError as e:
                    raise BodyFileError(
                        f"{path}:{lineno}: vertex {len(verts)} invalid: {e}") from e
            else:
                raise BodyFileError(f"{path}:{lineno}: unknown directive {parts[0]!r}")
    flush(-1)
    if not bodies:
        raise BodyFileError(f"{path}: no bodies found")
    return bodies


def emit_body_file(bodies: Sequence[tuple[Curvature, GeodesicPolygon]],
                   path: str) -> None:
    """Inverse of :func:`parse_body_file` (vertices as polar pairs)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (curv, poly) in enumerate(bodies):
            if i:
                fh.write("\n")
            fh.write(f"kappa {curv.kappa!r}\n")
            for v in poly.vertices:
                r, theta = point_polar(v)
                fh.write(f"v {r!r} {theta!r}\n")


def _bodies_for(config: CampaignConfig, curv: Curvature, rng: RandomStream,
                file_bodies: Optional[list] = None
                ) -> list[tuple[str, GeodesicPolygon]]:
    """The (id, body) list of a suite at curv.  file_bodies is the body
    file as :func:`run_campaign` parsed it, or None without one."""
    if file_bodies is not None:
        return [(f"file{i}", poly) for i, (c, poly) in enumerate(file_bodies)
                if c.kappa == curv.kappa]
    if config.disc_ngon is not None:
        r, n = config.disc_ngon
        return [("disc", regular_ngon(curv, r, n))]
    bodies = random_convex_bodies(curv, rng.split(config.count),
                                  max_vertices=config.max_vertices)
    return [(f"rand{i}", body) for i, body in enumerate(bodies)]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _measured_bodies(config: CampaignConfig, curv: Curvature,
                     rng: RandomStream, file_bodies: Optional[list]) -> list:
    """(id, metrics) of the suite's bodies, their areas and perimeters taken
    in one pass."""
    bodies = _bodies_for(config, curv, rng, file_bodies)
    return list(zip([body_id for body_id, _ in bodies],
                    metrics_stack([body for _, body in bodies])))


def run_metrics_suite(config: CampaignConfig, kappa: float,
                      rng: RandomStream,
                      file_bodies: Optional[list] = None) -> list[dict]:
    records = []
    for body_id, m in _measured_bodies(config, Curvature(kappa), rng,
                                       file_bodies):
        ok = 0.0 <= m.r_in <= m.R_circ + 1e-9
        records.append(_record(
            suite="metrics", seed=config.seed, kappa=kappa,
            body_id=body_id, A=m.A, P=m.P, r_in=m.r_in, R_circ=m.R_circ,
            satisfied=bool(ok), tolerance=1e-9))
    return records


def run_bonnesen_suite(config: CampaignConfig, kappa: float,
                       rng: RandomStream,
                       file_bodies: Optional[list] = None) -> list[dict]:
    records = []
    curv = Curvature(kappa)
    for body_id, m in _measured_bodies(config, curv, rng, file_bodies):
        rep = deficit_report(curv, m)
        for b in rep.bounds:
            records.append(_record(
                suite="bonnesen", seed=config.seed, kappa=kappa,
                body_id=body_id, A=m.A, P=m.P, r_in=m.r_in,
                R_circ=m.R_circ, deficit=rep.deficit,
                bound_name=b.name.value,
                bound_value=None if not b.applicable else b.value,
                slack=None if not b.applicable else rep.slack(b),
                satisfied=bool(rep.satisfied(b)), tolerance=1e-9))
    return records


def kinematic_band(config: CampaignConfig,
                   file_bodies: Optional[list] = None) -> float:
    """The Bonferroni z of each of the run's kinematic pairs, over all kappas:
    a run of correct pairs then fails with probability KINEMATIC_ALPHA.
    file_bodies is as for :func:`_bodies_for`."""
    from statistics import NormalDist  # here: about 3 ms to import
    if file_bodies is not None:
        kappas = [c.kappa for c, _ in file_bodies]
        pairs = sum(kappas.count(k) // 2 for k in config.kappas)
    else:  # a disc run has one body per kappa, so no pair
        pairs = 0 if config.disc_ngon else (
            config.count // 2 * len(config.kappas))
    return NormalDist().inv_cdf(1.0 - KINEMATIC_ALPHA / (2.0 * max(1, pairs)))


def run_kinematic_suite(config: CampaignConfig, kappa: float,
                        rng: RandomStream,
                        file_bodies: Optional[list] = None, *,
                        z: float) -> list[dict]:
    """z is the run's :func:`kinematic_band`."""
    records = []
    gen, mc = rng.split(2)
    bodies = _bodies_for(config, Curvature(kappa), gen, file_bodies)
    task_streams = mc.split(max(1, len(bodies) // 2))
    for i in range(len(bodies) // 2):
        (id_a, ka), (id_b, kb) = bodies[2 * i], bodies[2 * i + 1]
        est = kinematic_lhs(ka, kb, config.mc_samples, task_streams[i])
        rhs = kinematic_rhs(ka, kb)
        tol = max(z * est.std_error, 1e-3 * rhs)
        records.append(_record(
            suite="kinematic", seed=config.seed, kappa=kappa,
            body_id=f"{id_a}|{id_b}", bound_value=rhs,
            mc_mean=est.mean, mc_stderr=est.std_error,
            samples=est.samples, tolerance=tol,
            satisfied=bool(abs(est.mean - rhs) <= tol)))
    return records


def run_containment_suite(config: CampaignConfig, kappa: float,
                          rng: RandomStream,
                          file_bodies: Optional[list] = None) -> list[dict]:
    """Screens random pairs by the containment criterion, then searches
    each accepted pair for a containing motion.

    Pairs are drawn in blocks of the pairs still needed, capped by the
    attempts left: drawing one pair at a time would draw every pair of the
    block too, since finishing takes all of them.  Each block is measured
    in one pass and screened in draw order, so the same pairs are accepted
    and no body past the last needed pair is drawn.
    """
    del file_bodies  # draws its own pairs
    records = []
    curv = Curvature(kappa)
    gen, search = rng.split(2)
    found_pairs = []
    attempts, limit = 0, config.count * 200
    while len(found_pairs) < config.count and attempts < limit:
        block = min(config.count - len(found_pairs), limit - attempts)
        bodies = random_convex_bodies(curv, [gen] * (2 * block),
                                      max_vertices=config.max_vertices)
        pairs = list(zip(bodies[::2], bodies[1::2]))
        attempts += block
        found_pairs += [pair for pair, ok in zip(
            pairs, containment_criteria(pairs, slack=-1e-3)) if ok]
    task_streams = search.split(max(1, len(found_pairs)))
    for i, (a, b) in enumerate(found_pairs):
        witness = find_containment(a, b, config.budget, task_streams[i])
        records.append(_record(
            suite="containment", seed=config.seed, kappa=kappa,
            body_id=f"pair{i}", samples=config.budget,
            satisfied=witness is not None, tolerance=1e-9))
    return records


def run_sweep_suite(config: CampaignConfig, kappa: Optional[float],
                    rng: RandomStream,
                    file_bodies: Optional[list] = None) -> list[dict]:
    del kappa, rng, file_bodies  # deterministic suite over SWEEP_KAPPAS
    records = []
    rows = kappa_limit_sweep(DEFAULT_SQUARE, SWEEP_KAPPAS)
    reference = rows[0].euclid_reference
    gaps = {row.kappa: abs(row.active_bound_value - reference)
            for row in rows}
    ordered = sorted({abs(row.kappa) for row in rows})  # increasing |kappa|
    for row in rows:
        sign = 1.0 if row.kappa > 0 else -1.0
        smaller = [k for k in ordered if k < abs(row.kappa)]
        monotone = all(gaps[sign * k] <= gaps[row.kappa] + 1e-12
                       for k in smaller if sign * k in gaps)
        records.append(_record(
            suite="sweep", seed=config.seed, kappa=row.kappa,
            body_id="square", deficit=row.deficit,
            bound_name=row.active_bound_name.value,
            bound_value=row.active_bound_value,
            slack=gaps[row.kappa], satisfied=bool(monotone),
            tolerance=1e-3))
    return records


SUITES = {
    "metrics": run_metrics_suite,
    "verify-kinematic": run_kinematic_suite,
    "verify-containment": run_containment_suite,
    "verify-bonnesen": run_bonnesen_suite,
    "sweep-kappa": run_sweep_suite,
}


def _tasks(config: CampaignConfig, suites: Sequence[str]) -> list[tuple]:
    """(suite, kappa, stream) in suite order, then kappa order.

    Each suite's stream is split once into one stream per kappa, in the
    order of ``config.kappas``; the sweep does not depend on kappa and stays
    one task.
    """
    master = RandomStream(config.seed)
    streams = dict(zip(SUITES, master.split(len(SUITES))))
    tasks = []
    for name in suites:
        if name == "sweep-kappa":
            tasks.append((name, None, streams[name]))
            continue
        per_kappa = streams[name].split(len(config.kappas))
        tasks.extend((name, kappa, stream)
                     for kappa, stream in zip(config.kappas, per_kappa))
    return tasks


def _run_task(config: CampaignConfig, file_bodies: Optional[list],
              z: Optional[float], task: tuple) -> list[dict]:
    # The suite is looked up here, in the worker, so only its name is sent.
    # z is the run's kinematic band, for the kinematic suite.
    name, kappa, rng = task
    extra = {"z": z} if name == "verify-kinematic" else {}
    return SUITES[name](config, kappa, rng, file_bodies, **extra)


# OpenBLAS's thread-count setters: numpy's wheels bundle an OpenBLAS that
# exports the first, scipy's wheels one that exports the second.
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                "scipy_openblas_set_num_threads")


def loaded_openblas() -> list:
    """(library, setter) of each OpenBLAS this process has loaded that
    exports one of BLAS_SETTERS, the setter taking the thread count.

    Empty where none is loaded or there is no /proc.  A library is a mapped
    file whose name holds "openblas"; one that cannot be loaded (not a
    library, or deleted since it was mapped) is skipped.
    """
    import ctypes  # here: only workers and tests need it

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {fields[5].strip() for fields in
                     (line.split(None, 5) for line in fh) if len(fields) == 6}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in BLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append((lib, setter))
                break
    return found


def _one_blas_thread() -> None:
    """Pool initializer: set each loaded OpenBLAS to one thread.

    A forked worker otherwise runs a BLAS thread per core beside the pool's
    worker per core.  The report does not depend on the thread count.
    """
    for _, setter in loaded_openblas():
        setter(1)


def run_campaign(config: CampaignConfig,
                 suites: Sequence[str]) -> tuple[int, list[dict]]:
    """Run the selected suites; exit status 0 iff everything is satisfied.

    The work is split into (suite, kappa) tasks, each with its own pre-split
    stream, and run on a fork process pool with one worker per core, each
    worker's BLAS on one thread.  On one core, or where there is no
    ``fork``, the tasks run inline.  A body file is parsed once, here.
    Records are assembled in task order, so the output is identical for any
    core count.
    """
    # Imported here: at module level, multiprocessing and the process pool
    # add about 14 ms to every import of this module.
    import multiprocessing

    tasks = _tasks(config, suites)
    file_bodies = (None if config.body_file is None
                   else parse_body_file(config.body_file))
    # The band once, here: in a fresh worker its import of statistics
    # costs about 5 ms.
    z = (kinematic_band(config, file_bodies)
         if "verify-kinematic" in suites else None)
    run = functools.partial(_run_task, config, file_bodies, z)
    workers = min(os.cpu_count() or 1, len(tasks))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor

        # Not spawn or forkserver: both re-run an unguarded __main__.  With
        # fork the executor starts every worker before its own threads.
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_one_blas_thread) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = list(map(run, tasks))
    records = [rec for result in results for rec in result]
    ok = all(rec["satisfied"] for rec in records if rec["satisfied"] is not None)
    if config.output:
        write_report(records, config.output, config.fmt)
    return (0 if ok else 1), records


def write_report(records: list[dict], path: str, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS,
                                    quoting=csv.QUOTE_MINIMAL)
            writer.writeheader()
            for rec in records:
                writer.writerow(rec)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedkin",
        description="Verification campaigns for convex bodies on constant-"
                    "curvature surfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(SUITES) + ["all"]:
        # An absent option stays out of the namespace, so CampaignConfig
        # alone holds the defaults; each dest is its field's name.
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int)
        p.add_argument("--kappa", dest="kappas", type=float, action="append")
        p.add_argument("--samples", dest="mc_samples", type=int)
        p.add_argument("--count", type=int)
        p.add_argument("--max-vertices", type=int)
        p.add_argument("--budget", type=int)
        p.add_argument("--body-file")
        p.add_argument("--disc-ngon", nargs=2, type=float, metavar=("R", "N"))
        p.add_argument("--out", dest="output")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    command = given.pop("command")
    try:
        if "seed" not in given and "CURVEDKIN_SEED" in os.environ:
            given["seed"] = int(os.environ["CURVEDKIN_SEED"])
        if "kappas" in given:
            given["kappas"] = tuple(given["kappas"])
        if "disc_ngon" in given:
            r, n = given["disc_ngon"]
            if not n.is_integer():
                raise ValueError(f"--disc-ngon N must be an integer, got {n}")
            given["disc_ngon"] = (r, int(n))
        config = CampaignConfig(**given)
        suites = list(SUITES) if command == "all" else [command]
        status, records = run_campaign(config, suites)
    except (BodyFileError, ValueError, GeometryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    n_checked = sum(1 for r in records if r["satisfied"] is not None)
    n_ok = sum(1 for r in records if r["satisfied"])
    print(f"{n_ok}/{n_checked} checks satisfied "
          f"({'PASS' if status == 0 else 'FAIL'})")
    return status


if __name__ == "__main__":
    sys.exit(main())
