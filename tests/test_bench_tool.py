"""tools/bench.py refuses checkouts that hold a bytecode cache, and
compares a checkout with its baseline against BENCHMARK.json's bounds."""

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
BENCH = os.path.join(ROOT, "tools", "bench.py")


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _checkout(root):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "src" / "albertlab").mkdir(parents=True)
    return root


@pytest.mark.parametrize("side", ["checkout", "baseline"])
@pytest.mark.parametrize("where", [("src", "albertlab"), ("perfbench",)])
def test_bytecode_cache_refused_before_any_run(bench, tmp_path, monkeypatch,
                                               side, where):
    roots = {name: _checkout(tmp_path / name)
             for name in ("checkout", "baseline")}
    cache = roots[side].joinpath(*where, "__pycache__")
    cache.mkdir()

    def no_run(*args):
        raise AssertionError("perfbench ran")

    monkeypatch.setattr(bench, "run_once", no_run)
    monkeypatch.chdir(roots["checkout"])
    with pytest.raises(SystemExit) as exc:
        bench.main(["--out", str(tmp_path / "out.json"),
                    "--baseline", str(roots["baseline"])])
    msg = str(exc.value.code)
    assert "\n" not in msg
    assert msg == ("bench: bytecode cache %s; delete it before benchmarking"
                   % cache)
    assert not (tmp_path / "out.json").exists()


def test_clean_checkouts_reach_the_runs(bench, tmp_path, monkeypatch):
    roots = {name: _checkout(tmp_path / name)
             for name in ("checkout", "baseline")}
    (roots["checkout"] / "tests" / "__pycache__").mkdir(parents=True)

    def first_run(*args):
        raise RuntimeError("reached")

    monkeypatch.setattr(bench, "run_once", first_run)
    monkeypatch.chdir(roots["checkout"])
    with pytest.raises(RuntimeError, match="reached"):
        bench.main(["--out", str(tmp_path / "out.json"),
                    "--baseline", str(roots["baseline"])])


def test_relative_change_and_bound_per_metric(bench, tmp_path, monkeypatch):
    # the checkout is 20% slower in setup_s and verdict_s on every run and
    # equal in peak_rss_mb; the bounds are the repository's
    roots = {name: _checkout(tmp_path / name)
             for name in ("checkout", "baseline")}
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), roots["checkout"])

    def run_once(root, workload, seed):
        f = 1.2 if os.path.basename(root) == "checkout" else 1.0
        base = 0.5 + seed / 100
        return {"seed": seed, "correct": True, "attempted": 10,
                "failed": 0, "setup_s": 0.1 * base * f,
                "verdict_s": base * f, "peak_rss_mb": 20.0}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.chdir(roots["checkout"])
    out = tmp_path / "out.json"
    assert bench.main(["--out", str(out),
                       "--baseline", str(roots["baseline"])]) == 0
    report = json.loads(out.read_text())
    for w in bench.WORKLOADS:
        got = report["workloads"][w]["against_baseline"]
        assert set(got) == set(bench.METRICS)
        assert got["verdict_s"]["relative_change"] == pytest.approx(0.2)
        assert got["verdict_s"]["bound"] == 0.15
        assert got["setup_s"]["relative_change"] == pytest.approx(0.2)
        assert got["setup_s"]["bound"] == 0.25
        assert got["peak_rss_mb"] == {"relative_change": 0.0, "bound": 0.1}
