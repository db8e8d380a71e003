"""CLI subcommands, exit codes, report determinism, golden dumps."""

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from albertlab import galois, runner, search
from albertlab.cli import main
from albertlab.scalars import PRIME_BOUND

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


def _run_edited(tmp_path, command, name, path, value):
    """Run `command` on the config `name` with the field at `path` set to
    value, or deleted when value is None."""
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
    return run_cli(command.split() + ["--config", str(c)])


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

    def test_large_prime_base_builds_quickly(self, tmp_path):
        t = time.perf_counter()
        code, out, _ = _run_edited(tmp_path, "build", "m3_f5_first.json",
                                   ["base"], {"p": 2 ** 61 - 1})
        assert time.perf_counter() - t < 2
        assert code == 0
        assert json.loads(out)["ground"] == "F_%d" % (2 ** 61 - 1)

    def test_large_prime_tower_rejected_quickly(self, tmp_path):
        t = time.perf_counter()
        code, _, err = _run_edited(tmp_path, "build", "lk_f5_second.json",
                                   ["tower", "base"], {"p": 1000003})
        assert time.perf_counter() - t < 2
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    def test_prime_above_the_decided_bound_is_2(self, tmp_path):
        code, _, err = _run_edited(tmp_path, "build", "m3_f5_first.json",
                                   ["base"], {"p": PRIME_BOUND + 2})
        assert code == 2
        assert err.strip().splitlines() == [
            "config error: modulus %d is not below %d, the bound under "
            "which primality is decided exactly"
            % (PRIME_BOUND + 2, PRIME_BOUND)]

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
        for name, t in runner.TASKS.items():
            monkeypatch.setitem(runner.TASKS, name, t._replace(
                handler=lambda *a, name=name: ran.append(name)))
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
        # a construction parameter that must be invertible and is not:
        # a zero u, an all-zero sigma twist, a zero cyclic parameter
        ("check", "lk_q_second.json", ["construction", "u"], ["0"] * 6),
        ("check", "m3k_q_second.json", ["construction", "sigma_twist"],
         ["0"] * 18),
        ("check", "cyclic_q_first.json", ["construction", "algebra", "a"],
         "0"),
        # a task name that is not a string
        ("check", "m3_f5_first.json", ["tasks", 0, "task"], []),
        ("check", "m3_f5_first.json", ["tasks", 0, "task"], {}),
        # tower coefficients are strings or integers, and f has exactly
        # four of them
        ("check", "cyclic_q_first.json", ["tower", "f"],
         [1.0, "-3", "0", "1"]),
        ("check", "cyclic_q_first.json", ["tower", "rho"], [-2.0, 0, True]),
        ("check", "cyclic_q_first.json", ["tower", "f"],
         ["1", "-3", "0", "1", "0"]),
        # the schema version is an integer field too
        ("build", "m3_f5_first.json", ["schema_version"], True),
        ("build", "m3_f5_first.json", ["schema_version"], 1.0),
    ])
    def test_malformed_config_is_2(self, tmp_path, command, name, path,
                                   value):
        code, out, err = _run_edited(tmp_path, command, name, path, value)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("name, path, value, want", [
        ("lk_q_second.json", ["construction", "u"], ["0"] * 6,
         "second_tits u: element has norm 0"),
        ("m3k_q_second.json", ["construction", "u"], ["0"] * 18,
         "second_tits u: element has norm 0"),
        ("lk_q_second.json", ["construction", "sigma_twist"], ["0"] * 6,
         "second_tits sigma_twist: element has norm 0"),
        ("m3k_q_second.json", ["construction", "sigma_twist"], ["0"] * 18,
         "second_tits sigma_twist: element has norm 0"),
        ("cyclic_q_first.json", ["tower", "f"], [1.0, "-3", "0", "1"],
         "cubic tower f: bad rational literal 1.0"),
        ("cyclic_q_first.json", ["tower", "f"], ["1", "-3", "0", "1", "0"],
         "f must be a monic cubic (4 coefficients, lowest degree first)"),
        ("lk_f5_second.json", ["tower", "d"], "1/5",
         "composite tower d: denominator of 1/5 vanishes mod 5"),
        ("m3_f5_first.json", ["tasks", 0, "task"], [],
         "task name must be a string, got []"),
        # a task v scalar whose denominator vanishes mod p
        ("lk_f5_second.json", ["tasks", 2, "v"], ["1/5"] + ["0"] * 5,
         "iso_verify v: denominator of 1/5 vanishes mod 5"),
        ("m3_f5_first.json", ["tasks"],
         [{"task": "isotope", "v": ["1/5"] + ["0"] * 26}],
         "isotope v: denominator of 1/5 vanishes mod 5"),
        # a top-level base that is not the tower's
        ("m3k_q_second.json", ["base"], {"p": 5},
         "base F_5 differs from the tower's base Q"),
        # an algebra the base or the tower cannot carry
        ("m3_q_first.json", ["construction", "algebra"],
         {"kind": "cubic_etale"}, "cubic etale algebra needs a cubic tower"),
        ("m3_q_first.json", ["construction", "algebra"],
         {"kind": "octonion"}, "unknown first-construction algebra "
         "'octonion'"),
        ("lk_q_second.json", ["tower", "kind"], "cubic",
         "second construction needs a tower with K"),
        ("lk_q_second.json", ["tower", "kind"], "quadratic",
         "algebra 'lk' needs a composite tower"),
        # s -> -s is the identity in characteristic 2
        ("m3k_q_second.json", ["tower", "base"], {"p": 2},
         "quadratic etale K = k[s]/(s^2 - d) is not etale in "
         "characteristic 2"),
    ])
    def test_malformed_config_names_the_field(self, tmp_path, name, path,
                                              value, want):
        code, out, err = _run_edited(tmp_path, "check", name, path, value)
        assert (code, out, err) == (2, "", "config error: %s\n" % want)

    @pytest.mark.parametrize("data, want", [
        ([], "config root must be a JSON object"),
        ({"schema_version": 1}, "config needs a 'construction' section"),
    ])
    def test_malformed_config_root_is_2(self, tmp_path, data, want):
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(c)])
        assert (code, out, err) == (2, "", "config error: %s\n" % want)

    def test_unwritable_out_is_2(self, tmp_path):
        # exit 1 is kept for verification failures: a report that cannot
        # be written is a config error, in one line and with no traceback
        code, out, err = run_cli(["build", "--config",
                                  cfg("m3_f5_first.json"), "--out",
                                  str(tmp_path / "missing" / "r.json")])
        assert (code, out) == (2, "")
        assert err.startswith("config error: cannot write report: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_iso_verify_on_isotope_of_is_2(self, tmp_path):
        # an isotope has no coefficient algebra to read the task's v in
        with open(cfg("lk_q_second.json")) as fh:
            data = json.load(fh)
        wrap_isotope_of(data, ["1"] + ["0"] * 8)
        data["tasks"] = [{"task": "iso_verify",
                          "v": ["1", "0", "1", "0", "0", "0"]}]
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(c)])
        assert (code, out, err) == (
            2, "", "config error: construction has no coefficient algebra\n")

    def test_base_equal_to_tower_base_is_accepted(self, tmp_path):
        code, out, err = _run_edited(tmp_path, "build", "lk_f5_second.json",
                                     ["base"], {"p": 5})
        assert (code, err) == (0, "")
        assert json.loads(out)["ground"] == "F_5"

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
        # false builds the field K = k(sqrt(d)); true, in place of d,
        # builds the split K = k[s]/(s^2 - 1), where N_K(3/5 + 4/5 s) =
        # -7/25 is not N_B(1) = 1, while mu = 1 is admissible
        with open(cfg("lk_q_second.json")) as fh:
            data = json.load(fh)
        data["tower"]["split"] = value
        if value:
            del data["tower"]["d"]
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        code, _, err = run_cli(["build", "--config", str(c)])
        assert code == want
        if value:
            assert err == "config error: N_B(u) != mu * bar(mu): pair " \
                "is not admissible\n"
            data["construction"]["mu"] = ["1", "0"]
            c.write_text(json.dumps(data))
            assert run_cli(["build", "--config", str(c)])[0] == 0

    def test_split_next_to_d_is_2(self, tmp_path):
        # "split": true and "d": "-1" name two different K's
        with open(cfg("lk_q_second.json")) as fh:
            data = json.load(fh)
        data["tower"]["split"] = True
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        assert run_cli(["build", "--config", str(c)]) == (
            2, "", "config error: composite tower: 'split': true and 'd' "
            "both name K; give one\n")

    @pytest.mark.parametrize("name", ["lk_q_second.json",
                                      "m3k_q_second.json",
                                      "lk_f5_second.json"])
    def test_split_is_d_equal_1(self, tmp_path, name):
        # "split": true and "d": "1" are one K, so one check report
        runs = []
        for key, value in (("split", True), ("d", "1")):
            with open(cfg(name)) as fh:
                data = json.load(fh)
            del data["tower"]["d"]
            data["tower"][key] = value
            data["construction"]["mu"] = ["1", "0"]
            c = tmp_path / "c.json"
            c.write_text(json.dumps(data))
            runs.append(run_cli(["check", "--config", str(c)]))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "ok"

    def test_nilpotent_reverification_failure_is_1(self, monkeypatch):
        # a witness failing U_x(x) = 0 stops the run outside any task
        from albertlab.cubic import CubicNormStructure
        monkeypatch.setattr(CubicNormStructure, "u_op",
                            lambda self, x, y: (self.ground.one,) * self.dim)
        code, out, err = run_cli(["search", "--config",
                                  cfg("m3_f5_first.json")])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "verification failure: nilpotent witness failed re-verification"]

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


def _paths(node, prefix=()):
    """The path of every node below the root of a JSON tree."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _example_sites():
    out = []
    for name in sorted(os.listdir(CONFIGS)):
        with open(cfg(name)) as fh:
            out += [(name, path) for path in _paths(json.load(fh))]
    return out


class _Deleted:
    def __repr__(self):
        return "DELETE"


DELETE = _Deleted()
# the mutations of one node: None, a boolean, a float, 0, -1, a stray
# string, a scalar whose denominator vanishes mod 5, a list, an object,
# 10^40, and the key deleted
MUTATIONS = (None, True, 0.5, 0, -1, "stray", "1/5", ["0"], {"x": "1"},
             10 ** 40, DELETE)
COMMANDS = ("build", "check", "search", "isotope", "galois", "dump")


class TestExitContract:
    """A config with one value replaced or deleted keeps the exit
    contract: main returns 0, 1 or 2 and raises nothing, exit 2 prints
    one stderr line and no stdout, and exit 1 prints a failing report.
    Search budgets are capped by --budget."""

    @given(st.sampled_from(_example_sites()), st.sampled_from(MUTATIONS),
           st.sampled_from(COMMANDS))
    @example(("lk_f5_second.json", ("tasks", 2, "v", 0)), "1/5", "isotope")
    @example(("cyclic_q_first.json", ("tower", "f", 0)), 10 ** 40, "build")
    @example(("m3k_q_second.json", ("tower", "base")), {"p": 2}, "check")
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=80, report_multiple_bugs=False)
    def test_one_leaf_mutation(self, tmp_path_factory, site, value,
                               command):
        name, path = site
        with open(cfg(name)) as fh:
            data = json.load(fh)
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        c = tmp_path_factory.mktemp("mutant") / "c.json"
        c.write_text(json.dumps(data))
        code, out, err = run_cli([command, "--config", str(c),
                                  "--budget", "20"])
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("config error: ")
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == ""
            assert json.loads(out)["status"] == ("fail" if code else "ok")


# for each task, a config and a node on it that runs; for each task field,
# a value its readers accept
TASK_NODES = {
    "axioms": ("m3_f5_first.json", {}),
    "div_falsify": ("m3_f5_first.json", {"budget": 10}),
    "norm_zero": ("m3_f5_first.json", {"budget": 10}),
    "nilpotent_search": ("m3_f5_first.json", {"budget": 10}),
    "isotope": ("m3_f5_first.json", {"v": ISOTOPE_V}),
    "iso_verify": ("lk_f5_second.json", {"v": ["1", "0", "1", "0", "0",
                                               "0"]}),
    "galois_ext": ("lk_f5_second.json", {}),
    "dump_forms": ("m3_f5_first.json", {}),
}
FIELD_VALUES = {"budget": 10, "mode": "random", "points": 10,
                "corrupt_coord": 0, "v": ISOTOPE_V}


def _unread_fields():
    """(task, field) for each field that another task reads and the task
    does not."""
    fields = {f for t in runner.TASKS.values() for f in t.fields}
    return [(name, f) for name, t in runner.TASKS.items()
            for f in sorted(fields - set(t.fields))]


def _with_tasks(tmp_path, name, tasks):
    """The path of the config `name` with its task list replaced."""
    with open(cfg(name)) as fh:
        data = json.load(fh)
    data["tasks"] = tasks
    c = tmp_path / "c.json"
    c.write_text(json.dumps(data))
    return str(c)


class TestTaskFields:
    @pytest.mark.parametrize("task, field", _unread_fields())
    def test_field_the_task_does_not_read_is_2(self, tmp_path, task, field):
        # a field is never silently ignored: the task would otherwise run
        # as if the config had not asked for it
        name, node = TASK_NODES[task]
        node = dict(node, task=task, **{field: FIELD_VALUES[field]})
        code, out, err = run_cli(["check", "--config",
                                  _with_tasks(tmp_path, name, [node])])
        assert (code, out, err) == (
            2, "", "config error: task %s reads no field %r\n"
            % (task, field))

    def test_override_reaches_only_the_tasks_that_read_its_field(self):
        # --mode leaves nilpotent_search, which reads no mode, as
        # configured
        def entries(*flags):
            code, out, _ = run_cli(["search", "--config",
                                    cfg("m3_f5_first.json"),
                                    "--budget", "300"] + list(flags))
            assert code == 0
            return {t["task"]: t for t in json.loads(out)["tasks"]}

        plain, exhaustive = entries(), entries("--mode", "exhaustive")
        assert exhaustive["nilpotent_search"] == plain["nilpotent_search"]
        # and reaches norm_zero, whose exhaustive scan hits another index
        with open(cfg("m3_f5_first.json")) as fh:
            data = json.load(fh)
        hits = [runner.run_config(data, budget=300, mode=mode,
                                  tasks=[{"task": "norm_zero"}])[0]
                ["tasks"][0]["index"] for mode in (None, "exhaustive")]
        assert hits == [0, 1]

    def test_exhaustive_div_falsify_scans_the_carrier_alone(self):
        # mode exhaustive draws no preimage candidates: the random run's
        # preimage witness at index 6 gives way to the first norm-zero
        # element of the carrier scan
        def div_falsify(*flags):
            code, out, _ = run_cli(["search", "--config",
                                    cfg("m3_f5_first.json"),
                                    "--budget", "300"] + list(flags))
            assert code == 0
            return next(t for t in json.loads(out)["tasks"]
                        if t["task"] == "div_falsify")

        plain = div_falsify()
        assert (plain["index"], plain["detail"]) == (
            6, "norm preimage of lambda in D; converted to the norm-zero "
               "element (-w, 1, 0)")
        exhaustive = div_falsify("--mode", "exhaustive")
        assert exhaustive == {"task": "div_falsify", "status": "witness",
                              "index": 1,
                              "detail": "nonzero element with N = 0",
                              "witness": ["1"] + ["0"] * 26}

    @pytest.mark.parametrize("name, tasks, scan, want", [
        ("m3_q_first.json",
         [{"task": "nilpotent_search", "budget": 3000},
          {"task": "isotope", "v": ["1", "2"]}],
         (search, "find_nilpotent"),
         "expected 27 coordinates, got ['1', '2']"),
        ("m3_f5_first.json",
         [{"task": "nilpotent_search", "budget": 3000},
          {"task": "isotope", "v": ["1/5"] + ["0"] * 26}],
         (search, "find_nilpotent"),
         "isotope v: denominator of 1/5 vanishes mod 5"),
        ("lk_q_second.json",
         [{"task": "galois_ext"}, {"task": "iso_verify", "v": ["1"]}],
         (galois, "extend_rho"), "expected 6 coordinates, got ['1']"),
        ("lk_f5_second.json",
         [{"task": "galois_ext"},
          {"task": "iso_verify", "v": ["1/5", "0", "1", "0", "0", "0"]}],
         (galois, "extend_rho"),
         "iso_verify v: denominator of 1/5 vanishes mod 5"),
    ])
    def test_v_is_parsed_before_any_task_runs(self, tmp_path, monkeypatch,
                                              name, tasks, scan, want):
        calls = []
        monkeypatch.setattr(*scan, lambda *a, **kw: calls.append(a))
        code, out, err = run_cli(["check", "--config",
                                  _with_tasks(tmp_path, name, tasks)])
        assert (code, out, err) == (2, "", "config error: %s\n" % want)
        assert calls == []

    @pytest.mark.parametrize("name, task", [
        ("m3_f5_first.json", "div_falsify"),
        ("lk_f5_second.json", "norm_zero"),
        ("lk_f5_second.json", "nilpotent_search")])
    def test_budget_override_replaces_the_task_budget(self, name, task):
        # --budget replaces the task's own budget in either direction; a
        # zero budget scans nothing
        with open(cfg(name)) as fh:
            data = json.load(fh)

        def status(own, override):
            rep, _ = runner.run_config(data, budget=override,
                                       tasks=[{"task": task, "budget": own}])
            return rep["tasks"][0]["status"]

        assert [status(0, None), status(0, 4000), status(4000, 0),
                status(4000, None)] == \
            ["exhausted", "witness", "exhausted", "witness"]


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
        _, out_build, _ = run_cli(["build", "--config",
                                   cfg("m3_f5_first.json")])
        _, out_plain, _ = run_cli(["check", "--config",
                                   cfg("m3_f5_first.json"),
                                   "--budget", "500"])
        _, out_timed, _ = run_cli(["check", "--config",
                                   cfg("m3_f5_first.json"), "--timing",
                                   "--budget", "500"])
        assert "elapsed_s" not in out_build
        assert "elapsed_s" not in out_plain
        rep = json.loads(out_timed)
        assert all("elapsed_s" in t for t in rep["tasks"])
        # each axiom check carries its own time under --timing, and
        # nothing else in the report changes
        axioms = rep["tasks"][0]
        assert axioms["task"] == "axioms"
        assert all(c["elapsed_s"] >= 0 for c in axioms["checks"])
        for t in rep["tasks"]:
            del t["elapsed_s"]
        for c in axioms["checks"]:
            del c["elapsed_s"]
        assert rep == json.loads(out_plain)


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
    # N(x#) = N(x)^2 is derived from the other two symbolic identities,
    # and its two U-operator identities from the five proved premises)
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

    def test_cubic_etale_report_matches_golden(self, tmp_path):
        # J(L, 3) with L the cubic etale algebra of cyclic_q_first's tower
        # (CommutativeCubic.over_L): its axiom suite, a short division
        # falsification and its dumped forms
        with open(cfg("cyclic_q_first.json")) as fh:
            data = json.load(fh)
        data["construction"]["algebra"] = {"kind": "cubic_etale"}
        data["tasks"] = [{"task": "axioms"},
                         {"task": "div_falsify", "budget": 200},
                         {"task": "dump_forms"}]
        path = tmp_path / "cubic_etale.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(path)])
        assert (code, err) == (0, "")
        golden = "cyclic_q_first_cubic_etale_check.json"
        with open(os.path.join(GOLDEN, golden), "rb") as fh:
            assert out.encode() == fh.read()

    def test_f7_cyclic_report_matches_golden(self, tmp_path):
        # J(D, 3) for cyclic_q_first's D read over F_7, with rho given as
        # x^3 + x^2 - 3x - 1 = (x^2 - 2) + f, so that L's generator is
        # pinned to rho reduced mod f: its axiom suite, a short division
        # falsification and its dumped forms
        with open(cfg("cyclic_q_first.json")) as fh:
            data = json.load(fh)
        data["tower"]["base"] = {"p": 7}
        data["tower"]["rho"] = ["-1", "-3", "1", "1"]
        data["tasks"] = [{"task": "axioms"},
                         {"task": "div_falsify", "budget": 200},
                         {"task": "dump_forms"}]
        path = tmp_path / "cyclic_f7.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["check", "--config", str(path)])
        assert (code, err) == (0, "")
        with open(os.path.join(GOLDEN, "cyclic_q_first_f7_check.json"),
                  "rb") as fh:
            assert out.encode() == fh.read()

    def test_corrupted_axioms_report_matches_golden(self, tmp_path):
        # the failing verdicts and witnesses of a corrupted adjoint on
        # J(M3(F_5), 2), where N(x#) = N(x)^2 is composed directly and
        # the U-operator identities are sampled
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
