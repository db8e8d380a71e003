"""CLI subcommands, exit codes, report determinism, golden dumps."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from albertlab import runner
from albertlab.cli import main

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, "..", "configs")
GOLDEN = os.path.join(HERE, "golden")
# the carrier point (1 + e12, 0, 0) of J(M3(F_5), 2)
ISOTOPE_V = ["1", "1", "0", "0", "1", "0", "0", "0", "1"] + ["0"] * 18


def cfg(name):
    return os.path.join(CONFIGS, name)


def wrap_isotope_of(data, v):
    """Replace the construction of a config by its isotope at v."""
    data["construction"] = {"type": "isotope_of",
                            "base": data["construction"], "v": v}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestSubcommands:
    def test_build(self):
        code, out, _ = run_cli(["build", "--config",
                                cfg("m3_f5_first.json")])
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "ok"
        assert rep["tasks"] == []
        assert rep["dim"] == 27
        assert rep["schema_version"] == 1

    def test_check_runs_config_tasks(self):
        code, out, _ = run_cli(["check", "--config",
                                cfg("lk_f5_second.json")])
        assert code == 0
        rep = json.loads(out)
        names = [t["task"] for t in rep["tasks"]]
        assert names == ["axioms", "galois_ext", "iso_verify", "norm_zero",
                         "nilpotent_search"]
        assert all(t["status"] in ("pass", "witness", "exhausted")
                   for t in rep["tasks"])

    def test_check_m3k_second_config(self):
        # the full axiom suite and the iso_verify certificate of the
        # 27-dimensional J(M3(K), sigma, u, mu) over Q(sqrt(-1))
        code, out, err = run_cli(["check", "--config",
                                  cfg("m3k_q_second.json")])
        assert (code, err) == (0, "")
        rep = json.loads(out)
        assert rep["dim"] == 27
        assert [t["task"] for t in rep["tasks"]] == [
            "axioms", "iso_verify", "dump_forms"]
        assert all(t["status"] == "pass" for t in rep["tasks"])
        assert rep["tasks"][1]["certificate"]["multiplier"] == "1"

    def test_search_subcommand(self):
        code, out, _ = run_cli(["search", "--config",
                                cfg("m3_f5_first.json"), "--budget", "4000"])
        assert code == 0
        rep = json.loads(out)
        names = [t["task"] for t in rep["tasks"]]
        assert names == ["div_falsify", "nilpotent_search"]

    def test_isotope_subcommand(self):
        code, out, _ = run_cli(["isotope", "--config",
                                cfg("m3_q_first.json")])
        assert code == 0
        rep = json.loads(out)
        assert [t["task"] for t in rep["tasks"]] == ["isotope"]
        assert rep["tasks"][0]["base_point_is_v_inverse"] is True

    @pytest.mark.parametrize("name", ["m3_q_first", "m3_f5_first"])
    def test_check_isotope_of_config(self, tmp_path, name):
        with open(cfg(name + ".json")) as fh:
            data = json.load(fh)
        wrap_isotope_of(
            data, ["1", "1", "0", "0", "1", "0", "0", "0", "1"] + ["0"] * 18)
        data["tasks"] = [{"task": "axioms", "points": 20}]
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(c)])
        assert (code, err) == (0, "")
        rep = json.loads(out)
        assert rep["label"].endswith("^(v)")
        assert rep["tasks"][0]["status"] == "pass"

    def test_isotope_requires_isotope_tasks(self):
        code, _, err = run_cli(["isotope", "--config",
                                cfg("m3_f5_first.json")])
        assert code == 2
        assert "isotope" in err

    def test_galois_subcommand(self):
        code, out, _ = run_cli(["galois", "--config",
                                cfg("lk_f5_second.json")])
        assert code == 0
        rep = json.loads(out)
        task = rep["tasks"][0]
        assert task["task"] == "galois_ext"
        assert task["status"] == "pass"
        assert task["fixed_dimension"] == 3
        assert task["certificate"]["multiplier"] == "1"


class TestExitCodes:
    def test_missing_config_is_2(self):
        code, _, err = run_cli(["check", "--config", "/no/such/file.json"])
        assert code == 2
        assert "config error" in err

    def test_invalid_json_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(["check", "--config", str(bad)])
        assert code == 2

    def test_unknown_task_is_2(self, tmp_path):
        c = tmp_path / "c.json"
        c.write_text(json.dumps({
            "schema_version": 1, "base": {"p": 5},
            "construction": {"type": "first_tits", "lambda": "2"},
            "tasks": [{"task": "frobnicate"}]}))
        code, _, _ = run_cli(["check", "--config", str(c)])
        assert code == 2

    def test_mutation_self_test_is_1(self, tmp_path):
        c = tmp_path / "c.json"
        c.write_text(json.dumps({
            "schema_version": 1, "seed": 4, "base": {"p": 5},
            "construction": {"type": "first_tits", "lambda": "2"},
            "tasks": [{"task": "axioms", "points": 30,
                       "corrupt_coord": 3}]}))
        code, out, _ = run_cli(["check", "--config", str(c)])
        assert code == 1
        rep = json.loads(out)
        assert rep["status"] == "fail"
        failed = [ch for ch in rep["tasks"][0]["checks"]
                  if not ch["passed"]]
        assert failed
        assert any("witness" in ch for ch in failed)

    def test_inadmissible_pair_is_2(self, tmp_path):
        c = tmp_path / "c.json"
        c.write_text(json.dumps({
            "schema_version": 1,
            "tower": {"kind": "composite", "base": "Q",
                      "f": ["1", "-3", "0", "1"], "rho": ["-2", "0", "1"],
                      "d": "-1"},
            "construction": {"type": "second_tits", "u": "unit",
                             "mu": ["2", "0"]},
            "tasks": [{"task": "axioms"}]}))
        code, _, err = run_cli(["check", "--config", str(c)])
        assert code == 2
        assert "admissible" in err

    def test_singular_isotope_v_is_2(self, tmp_path):
        with open(cfg("m3_q_first.json")) as fh:
            data = json.load(fh)
        node = next(t for t in data["tasks"] if t["task"] == "isotope")
        node["v"] = ["0"] * 27
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["isotope", "--config", str(c)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_singular_isotope_of_v_is_2(self, tmp_path):
        with open(cfg("m3_f5_first.json")) as fh:
            data = json.load(fh)
        wrap_isotope_of(data, ["0"] * 27)
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(c)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: isotope_of v: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_singular_iso_verify_v_is_2(self, tmp_path):
        with open(cfg("lk_q_second.json")) as fh:
            data = json.load(fh)
        node = next(t for t in data["tasks"] if t["task"] == "iso_verify")
        node["v"] = ["0"] * len(node["v"])
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["isotope", "--config", str(c)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: iso_verify v: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command, flags, task, field", [
        ("check", ["--jobs", "0"], None, None),
        ("search", ["--jobs", "-3"], None, None),
        ("check", ["--budget", "-1"], None, None),
        ("search", ["--budget", "-4000", "--jobs", "2"], None, None),
        ("check", [], "div_falsify", {"budget": -5}),
        ("search", [], "nilpotent_search", {"budget": -1}),
        ("check", [], "div_falsify", {"budget": "many"}),
        ("check", [], "axioms", {"points": "many"}),
        ("check", [], "axioms", {"points": 0}),
    ])
    def test_bad_jobs_budget_or_points_is_2(self, tmp_path, command, flags,
                                            task, field):
        with open(cfg("m3_f5_first.json")) as fh:
            data = json.load(fh)
        if task is not None:
            next(t for t in data["tasks"] if t["task"] == task).update(field)
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli([command, "--config", str(c)] + flags)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


    @pytest.mark.parametrize("command, flags, field", [
        ("search", ["--mode", "exhaustive"], None),
        ("check", [], {"mode": "exhaustive"}),
    ])
    def test_exhaustive_scan_over_q_is_2(self, tmp_path, monkeypatch,
                                         command, flags, field):
        # an exhaustive scan needs a finite ground field; asking for one
        # over Q is refused after the build and before any task runs
        ran = []
        for name in runner._HANDLERS:
            monkeypatch.setitem(runner._HANDLERS, name,
                                lambda *a, name=name, **kw: ran.append(name))
        with open(cfg("cyclic_q_first.json")) as fh:
            data = json.load(fh)
        if field is not None:
            next(t for t in data["tasks"]
                 if t["task"] == "div_falsify").update(field)
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli([command, "--config", str(c)] + flags)
        assert (code, out, ran) == (2, "", [])
        assert err == ("config error: div_falsify exhaustive mode needs a "
                       "finite ground field, not Q\n")

    # (command, config, path to the edited field, new value or None to
    # delete the field)
    @pytest.mark.parametrize("command, name, path, value", [
        ("check", "m3_f5_first.json", ["base", "p"], "abc"),
        ("check", "m3_f5_first.json", ["construction", "lambda"], None),
        ("check", "lk_q_second.json", ["construction", "mu"], None),
        ("check", "cyclic_q_first.json", ["tower", "f"], None),
        ("check", "lk_q_second.json", ["tower", "rho"], None),
        ("check", "cyclic_q_first.json", ["construction", "algebra", "a"],
         None),
        ("isotope", "m3_q_first.json", ["tasks", 2, "v"], None),
        ("isotope", "lk_q_second.json", ["tasks", 2, "v"], None),
        ("check", "m3_f5_first.json", ["tasks", 0, "corrupt_coord"], 99),
        ("check", "m3_f5_first.json", ["tasks", 0, "corrupt_coord"], -1),
        ("check", "m3_f5_first.json", ["tasks", 1, "mode"], "bogus"),
        ("build", "m3_f5_first.json", ["construction"], "x"),
        ("build", "m3_f5_first.json", ["construction", "algebra"],
         "matrix"),
        ("build", "lk_q_second.json", ["construction", "algebra"], "lk"),
        ("build", "cyclic_q_first.json", ["tower", "f"], 5),
        ("build", "cyclic_q_first.json", ["tower", "f"],
         ["1", "x", "0", "1"]),
        ("build", "m3_f5_first.json", ["seed"], "abc"),
        ("build", "m3_f5_first.json", ["tasks"], 5),
        # integer fields refuse JSON booleans and non-integral numbers
        # instead of truncating them
        ("check", "m3_f5_first.json", ["base", "p"], 5.7),
        ("check", "m3_f5_first.json", ["base", "p"], True),
        ("build", "m3_f5_first.json", ["seed"], True),
        ("build", "m3_f5_first.json", ["seed"], 2.0),
        ("check", "m3_f5_first.json", ["tasks", 1, "budget"], 9.9),
        ("check", "m3_f5_first.json", ["tasks", 1, "budget"], False),
        ("check", "m3_f5_first.json", ["tasks", 0, "points"], 2.5),
        ("check", "m3_f5_first.json", ["tasks", 0, "corrupt_coord"], 1.5),
        # a --seed override does not excuse the config's own seed
        ("build --seed 5", "m3_f5_first.json", ["seed"], True),
        # nor are digit strings read as integers
        ("search", "m3_f5_first.json", ["tasks", 1, "budget"], "7"),
        ("build", "m3_f5_first.json", ["seed"], "5"),
        ("check", "m3_f5_first.json", ["base", "p"], "5"),
    ])
    def test_malformed_config_is_2(self, tmp_path, command, name, path,
                                   value):
        with open(cfg(name)) as fh:
            data = json.load(fh)
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(command.split() + ["--config", str(c)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_corrupt_coord_bound_checked_before_any_task(self, tmp_path,
                                                         monkeypatch):
        # the bound needs the built structure, but still holds before the
        # first task: the search ahead of the axioms task never starts
        from albertlab import runner
        calls = []
        monkeypatch.setattr(runner.search, "division_falsify",
                            lambda *a, **kw: calls.append(a))
        with open(cfg("m3_f5_first.json")) as fh:
            data = json.load(fh)
        data["tasks"] = [{"task": "div_falsify", "budget": 10},
                         {"task": "axioms", "corrupt_coord": 99}]
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(c)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: axioms corrupt_coord ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert calls == []


    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_non_boolean_split_is_2(self, tmp_path, value):
        with open(cfg("lk_q_second.json")) as fh:
            data = json.load(fh)
        data["tower"]["split"] = value
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["build", "--config", str(c)])
        assert code == 2
        assert out == ""
        assert err == "config error: tower 'split' must be true or false, " \
            "got %r\n" % (value,)

    @pytest.mark.parametrize("value, want", [(False, 0), (True, 2)])
    def test_boolean_split_is_read(self, tmp_path, value, want):
        # false builds the field K = k(sqrt(d)); true asks for k x k, which
        # second constructions do not support
        with open(cfg("lk_q_second.json")) as fh:
            data = json.load(fh)
        data["tower"]["split"] = value
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, _, err = run_cli(["build", "--config", str(c)])
        assert code == want
        assert ("not supported" in err) == value

    def test_uncertified_iso_verify_map_is_1(self, monkeypatch):
        # (b, x) -> (b, x) in place of (b, x) -> (vb, x)
        from albertlab import isotopy, linalg
        monkeypatch.setattr(
            isotopy, "componentwise_matrix",
            lambda src, tgt, alpha, beta: linalg.identity(
                src.dim, src.ground.one, src.ground.zero))
        code, out, err = run_cli(["isotope", "--config",
                                  cfg("lk_q_second.json")])
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        assert rep["status"] == "fail"
        task = rep["tasks"][0]
        assert task["task"] == "iso_verify" and task["status"] == "fail"
        assert "failed certification" in task["error"]


class TestDeterminism:
    def test_reports_identical_across_jobs(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        code1, _, _ = run_cli(["search", "--config", cfg("m3_f5_first.json"),
                               "--budget", "4000", "--jobs", "1",
                               "--out", str(a)])
        code8, _, _ = run_cli(["search", "--config", cfg("m3_f5_first.json"),
                               "--budget", "4000", "--jobs", "8",
                               "--out", str(b)])
        assert code1 == code8 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(["search", "--config", cfg("m3_f5_first.json"),
                 "--budget", "4000", "--seed", "1", "--out", str(a)])
        run_cli(["search", "--config", cfg("m3_f5_first.json"),
                 "--budget", "4000", "--seed", "2", "--out", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["seed"] == 1 and rb["seed"] == 2

    def test_timing_only_with_flag(self):
        _, out_plain, _ = run_cli(["build", "--config",
                                   cfg("m3_f5_first.json")])
        _, out_timed, _ = run_cli(["check", "--config",
                                   cfg("m3_f5_first.json"), "--timing",
                                   "--budget", "500"])
        assert "elapsed_s" not in out_plain
        rep = json.loads(out_timed)
        assert all("elapsed_s" in t for t in rep["tasks"])


class TestGoldenDumps:
    def test_m3_f5_forms_match_golden(self):
        code, out, _ = run_cli(["dump", "--config",
                                cfg("m3_f5_first.json")])
        assert code == 0
        task = json.loads(out)["tasks"][0]
        with open(os.path.join(GOLDEN, "m3_f5_norm.txt")) as fh:
            assert task["norm_form"] == fh.read()
        with open(os.path.join(GOLDEN, "m3_f5_adjoint.txt")) as fh:
            assert task["adjoint_map"] == fh.read()


class TestGoldenReports:
    # whole isotope and galois reports of the LK configs, byte for byte,
    # the isotope reports of m3_q_first (J(M3(Q), 1) and one v) and
    # m3k_q_second (J(M3(K), sigma, u, mu) and v = diag(1, 1, 2)), and
    # the check report of cyclic_q_first (its axiom suite, whose
    # N(x#) = N(x)^2 is derived from the other two symbolic identities)
    @pytest.mark.parametrize("name, command", [
        ("lk_q_second", "isotope"), ("lk_q_second", "galois"),
        ("lk_f5_second", "isotope"), ("lk_f5_second", "galois"),
        ("m3_q_first", "isotope"), ("m3k_q_second", "isotope"),
        ("cyclic_q_first", "check")])
    def test_report_matches_golden(self, name, command):
        code, out, err = run_cli([command, "--config", cfg(name + ".json")])
        assert (code, err) == (0, "")
        with open(os.path.join(GOLDEN, "%s_%s.json" % (name, command)),
                  "rb") as fh:
            assert out.encode() == fh.read()

    @pytest.mark.parametrize("command, tasks, want", [
        ("dump", None, 0),
        ("check", [{"task": "axioms"},
                   {"task": "axioms", "corrupt_coord": 3}], 1)])
    def test_isotope_of_report_matches_golden(self, tmp_path, command, tasks,
                                              want):
        # an isotope takes its forms from its base: the dump and the clean
        # and corrupted axiom suites of J(M3(F_5), 2)^(v) with v = (a, 0, 0)
        # for the upper triangular a = 1 + e12
        with open(cfg("m3_f5_first.json")) as fh:
            data = json.load(fh)
        wrap_isotope_of(data, ISOTOPE_V)
        if tasks is not None:
            data["tasks"] = tasks
        path = tmp_path / "isotope_of.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli([command, "--config", str(path)])
        assert (code, err) == (want, "")
        with open(os.path.join(GOLDEN, "m3_f5_isotope_of_%s.json" % command),
                  "rb") as fh:
            assert out.encode() == fh.read()

    def test_corrupted_axioms_report_matches_golden(self, tmp_path):
        # the failing verdicts and witnesses of a corrupted adjoint on
        # J(M3(F_5), 2), where N(x#) = N(x)^2 is composed directly
        with open(cfg("m3_f5_first.json")) as fh:
            data = json.load(fh)
        data["tasks"] = [{"task": "axioms", "corrupt_coord": 3}]
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(path)])
        assert (code, err) == (1, "")
        with open(os.path.join(GOLDEN, "m3_f5_first_axioms_corrupt3.json"),
                  "rb") as fh:
            assert out.encode() == fh.read()
