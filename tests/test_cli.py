"""Tests for the campaign runner: body files, reports, determinism, CLI."""

import csv
import ctypes
import hashlib
import io
import json
import math
import multiprocessing
import os
import sys

import pytest

import curvedkin.cli as cli
from curvedkin import bonnesen
from curvedkin.bonnesen import random_convex_body
from curvedkin.cli import (BodyFileError, CampaignConfig, KINEMATIC_ALPHA,
                           emit_body_file, kinematic_band, main,
                           parse_body_file, run_campaign, run_kinematic_suite,
                           SUITES)
from curvedkin.convex import polygons_close, regular_ngon
from curvedkin.kinematics import containment_criterion
from curvedkin.surface import Curvature, GeometryError, RandomStream

# sha256 of the JSON report of `curvedkin all --seed 42 --count 3
# --samples 2000 --budget 500`.  Against the report of the one-task-per-
# suite thread pool it replaced, every id, boolean and count is the same;
# the floats moved by the Van Oosterom-Strackee area (A by up to 5e-14
# relative, the kappa = 1e-4 sweep's deficit by 3e-11) and by the kinematic
# band, now Bonferroni over the run's 3 pairs (tolerance up to 10%).  The
# one sharp Bonnesen formula for every kappa then moved only bound values
# (by up to 9.2e-16 relative) and slacks (the kappa = 1e-4 sweep's, a
# cancelling bound - reference difference, by 2.8e-11).  One radial draw
# for every kappa then moved the sphere's floats outright, since sphere
# bodies take one draw per point and sphere Monte Carlo samples the reach
# cap, and hyperbolic bodies and estimates by rounding (up to 6e-15
# relative); flat floats, ids, counts and flags did not move.  Support
# enumeration in place of Welzl's minidisc then moved R_circ by rounding (up
# to 2.8e-16 relative, 4 records) and the floats computed from it: bound
# values (up to 1.3e-15) and slacks (3.9e-16, and 4.7e-12 for the
# kappa = -0.001 sweep's square, a cancelling difference of 1.2e-4).
# sphere_complement (S4) then took sphere_simplified's (S2) value, equal
# term for term, in place of its own complement-form expression: 3 bound
# values moved by up to 3.9e-16 relative, and their slacks by 2.9e-16.
# Area then went elementwise in written order over the edge cycle, in place
# of fan products through BLAS, and disc_area became 4 pi gen_sin^2(r/2):
# area alone moved A by up to 5.2e-16 relative and deficits and slacks by
# up to 7.9e-16; disc_area moved curved random bodies, which draw through
# support_area, by rounding, so A, P, R_circ, r_in, bound values, deficits
# and slacks moved by up to 4.8e-15 relative.  Ids, booleans, counts, bound
# names and the Monte Carlo estimates did not move.  kinematic_lhs then
# sampled the disc of the overlap tester's reach rho_K + rho_L in place of
# r_K + r_L + 1e-6 (1 + r_K + r_L): W moved, and with it the 3 kinematic
# records' mc_mean, mc_stderr and tolerance, by up to 5.7e-6 relative, with
# the same hit counts.  Nothing else moved.
GOLDEN_ALL_SMALL = (
    "92cf4b14bccadf435b35cdc80329452ad8a683e9d20fd7e65cfd1f0b31a32474")
GOLDEN_CONFIG = dict(seed=42, count=3, mc_samples=2000, budget=500)


class TestCampaignConfig:
    def test_defaults_valid(self):
        CampaignConfig()

    def test_count_floor(self):
        with pytest.raises(ValueError):
            CampaignConfig(count=0)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            CampaignConfig(mc_samples=999)

    @pytest.mark.parametrize("field,value", [("budget", 0), ("budget", -5),
                                             ("max_vertices", 2)])
    def test_search_and_body_floors(self, field, value):
        with pytest.raises(ValueError, match=field):
            CampaignConfig(**{field: value})

    def test_empty_kappas(self):
        with pytest.raises(ValueError):
            CampaignConfig(kappas=())

    def test_bad_format(self):
        with pytest.raises(ValueError):
            CampaignConfig(fmt="xml")


class TestBodyFile:
    def write(self, tmp_path, text):
        path = tmp_path / "bodies.txt"
        path.write_text(text)
        return str(path)

    def test_single_body(self, tmp_path):
        path = self.write(tmp_path, "kappa 0.0\nv 1.0 0.0\nv 1.0 1.6\nv 1.0 3.2\n")
        bodies = parse_body_file(path)
        assert len(bodies) == 1
        curv, poly = bodies[0]
        assert curv.kappa == 0.0 and poly.n_vertices == 3

    def test_comments_and_blank_lines(self, tmp_path):
        text = ("# fixture\nkappa 1.0  # sphere\nv 0.3 0.0\nv 0.3 2.1\n"
                "v 0.3 4.2\n\nkappa -1.0\nv 0.5 0.0\nv 0.5 2.1\nv 0.5 4.2\n")
        bodies = parse_body_file(self.write(tmp_path, text))
        assert [c.kappa for c, _ in bodies] == [1.0, -1.0]

    def test_vertex_before_kappa(self, tmp_path):
        with pytest.raises(BodyFileError, match="before kappa"):
            parse_body_file(self.write(tmp_path, "v 1.0 0.0\n"))

    def test_unknown_directive(self, tmp_path):
        with pytest.raises(BodyFileError, match="unknown directive"):
            parse_body_file(self.write(tmp_path, "kappa 0.0\nw 1 2\n"))

    def test_bad_vertex_numbers(self, tmp_path):
        with pytest.raises(BodyFileError, match=":2:"):
            parse_body_file(self.write(tmp_path, "kappa 0.0\nv one 2\n"))

    @pytest.mark.parametrize("text, line", [
        ("kappa 1.0 junk\nv 0.3 0.0\n", 1),
        ("kappa 1.0\nv 0.3 0.0 9\n", 2),
        ("kappa\nv 0.3 0.0\n", 1),
        ("kappa 1.0\nv 0.3\n", 2),
    ])
    def test_wrong_token_count(self, tmp_path, text, line):
        path = self.write(tmp_path, text)
        with pytest.raises(BodyFileError, match=f"bodies.txt:{line}: bad"):
            parse_body_file(path)

    @pytest.mark.parametrize("text, line, message", [
        ("kappa 1.0\nkappa 1.0\nv 0.3 0.0\n", 2, "duplicate kappa header"),
        ("kappa 1.0\n", 1, "body has no vertices"),
        # Fits in no open hemisphere of the unit sphere.
        ("kappa 1.0\nv 0 0\nv 2.0 0\nv 2.0 2.1\nv 2.0 4.2\n", 1,
         "invalid body"),
    ])
    def test_body_errors_named_at_their_line(self, tmp_path, text, line,
                                             message):
        path = self.write(tmp_path, text)
        with pytest.raises(BodyFileError,
                           match=f"bodies.txt:{line}: {message}"):
            parse_body_file(path)

    def test_out_of_domain_vertex_named(self, tmp_path):
        # kappa = 1 vertex beyond the injectivity bound names its index.
        text = "kappa 1.0\nv 0.3 0.0\nv 4.0 1.0\n"
        with pytest.raises(BodyFileError, match="vertex 1"):
            parse_body_file(self.write(tmp_path, text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(BodyFileError, match="no bodies"):
            parse_body_file(self.write(tmp_path, "# nothing here\n"))

    def test_round_trip(self, tmp_path):
        bodies = [(Curvature(k), regular_ngon(Curvature(k), 0.4, 5))
                  for k in (1.0, 0.0, -1.0)]
        path = str(tmp_path / "out.txt")
        emit_body_file(bodies, path)
        parsed = parse_body_file(path)
        assert len(parsed) == 3
        for (c0, p0), (c1, p1) in zip(bodies, parsed):
            assert c0.kappa == c1.kappa
            assert polygons_close(p0, p1, tol=1e-12)

    def test_parsed_once_per_campaign(self, tmp_path, monkeypatch):
        # Each parse appends to a file, so parses in forked workers count.
        path = str(tmp_path / "bodies.txt")
        emit_body_file([(Curvature(k), regular_ngon(Curvature(k), r, 5))
                        for k in (-1.0, 0.0, 1.0) for r in (0.3, 0.5)], path)
        calls = tmp_path / "calls"
        real = cli.parse_body_file

        def counted(body_file):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write("parse\n")
            return real(body_file)

        monkeypatch.setattr(cli, "parse_body_file", counted)
        reports = []
        for cores in (1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            calls.write_text("")
            out = tmp_path / f"w{cores}.json"
            main(["all", "--body-file", path, "--samples", "2000",
                  "--count", "2", "--budget", "200", "--out", str(out)])
            assert calls.read_text().splitlines() == ["parse"], cores
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        records = json.loads(reports[0])
        assert {r["suite"] for r in records if r["body_id"] == "file0|file1"
                } == {"kinematic"}


class TestSuites:
    CONFIG = dict(count=4, mc_samples=2000, budget=2000)

    def test_all_suites_pass_small(self):
        config = CampaignConfig(**self.CONFIG)
        status, records = run_campaign(config, list(SUITES))
        assert status == 0
        assert all(r["satisfied"] for r in records
                   if r["satisfied"] is not None)

    def test_provenance_fields(self):
        config = CampaignConfig(**self.CONFIG)
        _, records = run_campaign(config, ["metrics"])
        for r in records:
            assert r["seed"] == 42
            assert r["suite"] == "metrics"
            assert r["kappa"] in (-1.0, 0.0, 1.0)
            assert r["body_id"] is not None
            assert r["tolerance"] is not None

    def test_disc_ngon_bonnesen_rows_small(self):
        config = CampaignConfig(count=1, disc_ngon=(0.5, 64),
                                kappas=(1.0, 0.0, -1.0))
        _, records = run_campaign(config, ["verify-bonnesen"])
        for r in records:
            if r["bound_value"] is not None:
                assert r["bound_value"] < 1e-3

    def test_sweep_records(self):
        config = CampaignConfig()
        status, records = run_campaign(config, ["sweep-kappa"])
        assert status == 0
        assert len(records) == 8
        final = [r for r in records if abs(r["kappa"]) == 1e-4]
        for r in final:
            assert r["slack"] < 1e-3

    def test_body_file_source(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("kappa 0.0\nv 0.7 0.8\nv 0.7 2.4\nv 0.7 4.0\n"
                        "v 0.7 5.6\n")
        config = CampaignConfig(body_file=str(path), kappas=(0.0,))
        status, records = run_campaign(config, ["metrics"])
        assert status == 0 and len(records) == 1

    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
    def test_two_point_bodies(self, tmp_path, kappa):
        # Both points recenter onto the base point: the kinematic integral
        # and its estimate are exactly 0.
        path = tmp_path / "points.txt"
        path.write_text(f"kappa {kappa}\nv 0.0 0.0\n\nkappa {kappa}\n"
                        "v 0.0 0.0\n")
        out = tmp_path / "r.json"
        assert main(["all", "--body-file", str(path), "--kappa", str(kappa),
                     "--samples", "2000", "--out", str(out)]) == 0
        assert [(r["mc_mean"], r["mc_stderr"], r["satisfied"])
                for r in json.loads(out.read_text())
                if r["suite"] == "kinematic"] == [(0.0, 0.0, True)]


def sequential_pairs(config, kappa, rng, accept):
    """The containment screen as it drew and tested one pair at a time: the
    accepted pairs, and the pairs drawn."""
    curv = Curvature(kappa)
    gen, _ = rng.split(2)
    found, attempts = [], 0
    while len(found) < config.count and attempts < config.count * 200:
        attempts += 1
        a = random_convex_body(curv, gen, max_vertices=config.max_vertices)
        b = random_convex_body(curv, gen, max_vertices=config.max_vertices)
        if accept(a, b):
            found.append((a, b))
    return found, attempts


def screened_pairs(monkeypatch, config, kappa, rng):
    """The pairs that run_containment_suite hands to the search."""
    seen = []

    def search(pairs, budget, streams):
        seen.extend(pairs)
        return [None] * len(pairs)

    monkeypatch.setattr(cli, "find_containments", search)
    records = cli.run_containment_suite(config, kappa, rng)
    assert len(records) == len(seen)
    return seen


def same_pairs(got, expected) -> bool:
    return [(a.vertex_array.tobytes(), b.vertex_array.tobytes())
            for a, b in got] == [(a.vertex_array.tobytes(),
                                  b.vertex_array.tobytes())
                                 for a, b in expected]


def screen(a, b):
    return containment_criterion(a, b, slack=-1e-3)


class TestContainmentScreen:
    """The screen draws blocks of pairs and measures each block in one
    pass; it accepts the pairs of drawing and testing one pair at a time."""

    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
    def test_same_pairs_as_one_at_a_time(self, monkeypatch, kappa):
        config = CampaignConfig(count=6)
        got = screened_pairs(monkeypatch, config, kappa, RandomStream(12))
        expected, _ = sequential_pairs(config, kappa, RandomStream(12),
                                       screen)
        assert len(expected) == 6 and same_pairs(got, expected)

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_a_run_that_stops_at_the_attempt_cap(self, monkeypatch, kappa):
        # Both bodies of 7 or more vertices: 1 pair in 400, then the cap.
        def rare(a, b):
            return a.n_vertices >= 7 and b.n_vertices >= 7

        monkeypatch.setattr(cli, "containment_criteria", lambda pairs, slack: [
            rare(a, b) for a, b in pairs])
        config = CampaignConfig(count=2)
        got = screened_pairs(monkeypatch, config, kappa, RandomStream([1, 3]))
        expected, attempts = sequential_pairs(
            config, kappa, RandomStream([1, 3]), rare)
        assert attempts == 400 and len(expected) == 1
        assert same_pairs(got, expected)

    @pytest.mark.parametrize("seed", [14, 15])
    def test_invalid_body_past_the_last_needed_pair(self, monkeypatch, seed):
        # The screen draws the bodies that one pair at a time draws, and no
        # more: a body that would fail construction just past the last
        # needed pair is never drawn, and one within that pair raises.
        config = CampaignConfig(count=4)
        expected, attempts = sequential_pairs(config, -1.0,
                                              RandomStream(seed), screen)
        needed = 2 * attempts
        real = bonnesen._body_rows
        drawn = []

        def rows(*args):
            drawn.append(real(*args))
            if len(drawn) == bad:  # clockwise: fails construction
                return drawn[-1][::-1].copy()
            return drawn[-1]

        monkeypatch.setattr(bonnesen, "_body_rows", rows)
        bad = needed + 1
        got = screened_pairs(monkeypatch, config, -1.0, RandomStream(seed))
        assert len(drawn) == needed and same_pairs(got, expected)
        drawn.clear()
        bad = needed
        with pytest.raises(GeometryError, match="^vertex cycle is not convex"):
            screened_pairs(monkeypatch, config, -1.0, RandomStream(seed))


class TestKinematicBand:
    """The kinematic suite's band: Bonferroni over the run's pairs."""

    def test_one_pair_is_three_sigma(self):
        assert abs(KINEMATIC_ALPHA - 0.0026998) < 1e-7
        z = kinematic_band(CampaignConfig(count=2, kappas=(1.0,)))
        assert abs(z - 3.0) < 1e-12

    @pytest.mark.parametrize("pairs", [1, 36, 100])
    def test_family_rate_is_one_pair_rate(self, pairs):
        # count // 2 pairs per kappa, over three kappas when pairs allow.
        kappas = (-1.0, 0.0, 1.0) if pairs % 3 == 0 else (0.0,)
        config = CampaignConfig(count=2 * pairs // len(kappas), kappas=kappas)
        z = kinematic_band(config)
        per_pair = math.erfc(z / math.sqrt(2.0))
        assert abs(per_pair * pairs - KINEMATIC_ALPHA) < 1e-9 * KINEMATIC_ALPHA

    def test_body_file_pairs_counted_per_kappa(self, tmp_path):
        path = tmp_path / "b.txt"
        square = "v 0.5 0.1\nv 0.5 1.7\nv 0.5 3.3\nv 0.5 4.9\n"
        path.write_text("\n".join(f"kappa {k}\n{square}"
                                  for k in (0.0, 0.0, 0.0, 1.0, 1.0)))
        # Three flat bodies make one pair, two spherical ones another.
        config = CampaignConfig(body_file=str(path), kappas=(0.0, 1.0))
        two = CampaignConfig(count=2, kappas=(0.0, 1.0))
        assert (kinematic_band(config, parse_body_file(str(path)))
                == kinematic_band(two))

    def test_default_seed_8_passes(self):
        # At 3 sigma per pair, pair rand22|rand23 on kappa = 1 read z = 3.24
        # here and the run exited 1 on correct code.
        assert main(["all", "--seed", "8"]) == 0

    def test_six_sigma_offset_still_fails(self, monkeypatch):
        # A closed form 6 standard errors off the estimate is caught even
        # at the widest default band, 36 pairs.
        config = CampaignConfig()
        assert 3.9 < kinematic_band(config) < 4.0
        seen = []
        real_lhs = cli.kinematic_lhs_pairs

        def lhs(*args):
            seen.extend(real_lhs(*args))
            return list(seen)

        def rhs(K, L):  # each pair's own estimate, in the suite's order
            est = seen.pop(0)
            return est.mean + 6.0 * est.std_error

        monkeypatch.setattr(cli, "kinematic_lhs_pairs", lhs)
        monkeypatch.setattr(cli, "kinematic_rhs", rhs)
        records = run_kinematic_suite(config, 1.0, RandomStream(8),
                                      z=kinematic_band(config))
        assert len(records) == 12
        # The 1e-3 rhs floor still forgives pairs whose 6 sigma is smaller.
        banded = [r for r in records
                  if 6.0 * r["mc_stderr"] > 1e-3 * r["bound_value"]]
        assert banded and not any(r["satisfied"] for r in banded)


class TestReports:
    def run_to(self, tmp_path, fmt, name):
        out = str(tmp_path / name)
        config = CampaignConfig(count=3, output=out, fmt=fmt)
        status, records = run_campaign(config, ["metrics", "verify-bonnesen"])
        return out, status, records

    def test_json_report(self, tmp_path):
        out, status, records = self.run_to(tmp_path, "json", "r.json")
        assert status == 0
        loaded = json.load(open(out))
        assert len(loaded) == len(records)
        assert {"suite", "kappa", "body_id", "A", "P", "r_in", "R_circ",
                "deficit", "bound_name", "bound_value", "slack",
                "satisfied", "mc_mean", "mc_stderr",
                "samples"} <= set(loaded[0])

    def test_csv_report(self, tmp_path):
        out, status, records = self.run_to(tmp_path, "csv", "r.csv")
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == len(records)

    def test_byte_identical_given_seed(self, tmp_path):
        out1, _, _ = self.run_to(tmp_path, "json", "r1.json")
        out2, _, _ = self.run_to(tmp_path, "json", "r2.json")
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_worker_count_does_not_change_output(self, tmp_path,
                                                 monkeypatch):
        # One core runs the tasks inline, four run them on the pool; both
        # give the pinned bytes.
        for cores in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            out = str(tmp_path / f"w{cores}.json")
            run_campaign(CampaignConfig(**GOLDEN_CONFIG, output=out),
                         list(SUITES))
            digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
            assert digest == GOLDEN_ALL_SMALL, f"{cores} cores"

    def test_no_fork_runs_inline(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setitem(SUITES, "sweep-kappa", _pid_suite)
        _, records = run_campaign(CampaignConfig(count=1), ["sweep-kappa"])
        assert records[0]["body_id"] == str(os.getpid())

    def test_pool_runs_tasks_in_workers(self, monkeypatch):
        # The task is sent by suite name and looked up in the worker, so a
        # suite that cannot be pickled still runs there.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setitem(SUITES, "sweep-kappa", _pid_suite)
        _, records = run_campaign(CampaignConfig(count=1, kappas=(0.0,)),
                                  ["metrics", "sweep-kappa"])
        assert [r["suite"] for r in records] == ["metrics", "pid"]
        assert records[-1]["body_id"] != str(os.getpid())
        assert not multiprocessing.active_children()

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        threads = loaded_openblas()
        if threads is None:
            pytest.skip("no OpenBLAS loaded")
        set_threads, get_threads = threads
        # Two BLAS threads here, so a worker that inherited them shows it.
        before = get_threads()
        set_threads(2)
        try:
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            monkeypatch.setitem(SUITES, "sweep-kappa", lambda *args: [
                {"suite": "blas", "body_id": str(get_threads()),
                 "satisfied": True}])
            _, records = run_campaign(CampaignConfig(count=1, kappas=(0.0,)),
                                      ["metrics", "sweep-kappa"])
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert records[-1] == {"suite": "blas", "body_id": "1",
                               "satisfied": True}

    def test_blas_pin_without_proc_is_a_no_op(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError(args[0])

        monkeypatch.setattr(cli, "open", no_proc, raising=False)
        assert cli.loaded_openblas() == []
        assert cli._one_blas_thread() is None

    def test_blas_pin_skips_what_is_not_an_openblas(self, monkeypatch,
                                                    tmp_path):
        # An executable under a directory named openblas, a file named
        # openblas that is not a library, one deleted since it was mapped,
        # and an anonymous mapping.
        fake = tmp_path / "libopenblas_fake.so"
        fake.write_text("not a library\n")
        maps = "".join(
            f"7f0000000000-7f0000001000 r-xp 00000000 00:00 0 {path}\n"
            for path in (sys.executable.replace("/bin/", "/openblas/bin/"),
                         sys.executable, str(fake),
                         "/gone/libopenblas.so (deleted)"))
        maps += "7f0000002000-7f0000003000 rw-p 00000000 00:00 0\n"
        real_open = open
        monkeypatch.setattr(
            cli, "open", lambda path, *args, **kwargs: io.StringIO(maps)
            if path == "/proc/self/maps" else real_open(path, *args, **kwargs),
            raising=False)
        tried = []
        real_cdll = ctypes.CDLL

        def cdll(path, *args, **kwargs):
            tried.append(path)
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli.loaded_openblas() == []
        assert cli._one_blas_thread() is None
        assert sorted(set(tried)) == ["/gone/libopenblas.so (deleted)",
                                      str(fake)]

    def test_different_seed_differs(self, tmp_path):
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        for out, seed in ((out1, 1), (out2, 2)):
            run_campaign(CampaignConfig(count=3, seed=seed, output=out),
                         ["metrics"])
        assert open(out1, "rb").read() != open(out2, "rb").read()


class TestMain:
    def test_metrics_exit_zero(self, capsys):
        assert main(["metrics", "--count", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_malformed_body_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("kappa 1.0\nv 0.3 0.0\nv 9.9 0.5\n")
        status = main(["metrics", "--body-file", str(path)])
        assert status == 2
        err = capsys.readouterr().err
        assert "vertex 1" in err

    def test_env_seed(self, monkeypatch, tmp_path):
        out1 = str(tmp_path / "e1.json")
        out2 = str(tmp_path / "e2.json")
        monkeypatch.setenv("CURVEDKIN_SEED", "7")
        main(["metrics", "--count", "3", "--out", out1])
        monkeypatch.delenv("CURVEDKIN_SEED")
        main(["metrics", "--count", "3", "--seed", "7", "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_kappa_flag_repeatable(self, tmp_path):
        out = str(tmp_path / "k.json")
        main(["metrics", "--count", "2", "--kappa", "0.25",
              "--kappa", "-0.25", "--out", out])
        kappas = {r["kappa"] for r in json.load(open(out))}
        assert kappas == {0.25, -0.25}

    def test_sweep_subcommand(self, capsys):
        assert main(["sweep-kappa"]) == 0

    def test_invalid_config_rejected(self, capsys):
        assert main(["metrics", "--count", "0"]) == 2

    @pytest.mark.parametrize("flag,value", [("--budget", "0"),
                                            ("--budget", "-5"),
                                            ("--max-vertices", "2")])
    def test_out_of_range_flag(self, flag, value, capsys):
        # Malformed input exits 2 with the option named, not 1 as a
        # failed check or with numpy's bare "low >= high".
        assert main(["verify-containment", "--count", "1", flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_malformed_env_seed(self, monkeypatch, capsys):
        # Exit 1 means a failed check, so malformed input must exit 2.
        monkeypatch.setenv("CURVEDKIN_SEED", "abc")
        assert main(["metrics", "--count", "1"]) == 2
        assert "abc" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", ["-1.0", "0.0", "1.0"])
    @pytest.mark.parametrize("vertex", ["nan 0.1", "inf 0.1", "0.5 nan",
                                        "0.5 inf"])
    def test_non_finite_vertex_in_body_file(self, tmp_path, capsys, kappa,
                                            vertex):
        path = tmp_path / "bad.txt"
        path.write_text(f"kappa {kappa}\nv 0.5 2.0\nv {vertex}\nv 0.5 4.0\n")
        assert main(["metrics", "--body-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.txt:3: vertex 1 invalid: polar coordinates must be " \
               "finite" in err

    def test_worker_error_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        # A body file that fails in every task of `all` gives the one-line
        # message of `metrics`, and leaves no worker behind.
        path = tmp_path / "bad.txt"
        path.write_text("kappa 1.0\nv 0.3 0.0\nv 9.9 0.5\n")
        assert main(["metrics", "--body-file", str(path)]) == 2
        expected = capsys.readouterr().err
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["all", "--body-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == expected and captured.out == ""
        assert len(expected.splitlines()) == 1
        assert not multiprocessing.active_children()

    def test_trailing_tokens_in_body_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("kappa 1.0\nv 0.3 0.0\nv 0.3 2.1 9\nv 0.3 4.2\n")
        assert main(["metrics", "--body-file", str(path)]) == 2
        assert "bad.txt:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["3.9", "nan", "inf"])
    def test_disc_ngon_needs_integral_n(self, capsys, n):
        assert main(["metrics", "--disc-ngon", "0.5", n]) == 2
        assert "--disc-ngon N must be an integer" in capsys.readouterr().err

    def test_disc_ngon_integral_float_accepted(self):
        assert main(["metrics", "--disc-ngon", "0.5", "6.0",
                     "--kappa", "0.0"]) == 0

    def test_defaults_are_the_config_defaults(self, monkeypatch, capsys):
        # The parser declares no default of its own.
        monkeypatch.delenv("CURVEDKIN_SEED", raising=False)
        given = []
        monkeypatch.setattr(cli, "run_campaign", lambda config, suites: (
            given.append(config) or (0, [])))
        assert main(["metrics"]) == 0
        assert given == [CampaignConfig()]

    def test_workers_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--workers", "2"])
        assert exc.value.code == 2


def loaded_openblas():
    """(set, get) of the thread count of the first OpenBLAS this process
    has loaded, or None."""
    import ctypes

    for lib, set_n in cli.loaded_openblas():
        get_n = getattr(lib, set_n.__name__.replace("_set_", "_get_"), None)
        if get_n is not None:
            get_n.argtypes, get_n.restype = [], ctypes.c_int
            return set_n, get_n
    return None


def _pid_suite(config, kappa, rng, file_bodies=None):
    """A stand-in suite that records the process it ran in."""
    return [{"suite": "pid", "body_id": str(os.getpid()), "satisfied": True}]
