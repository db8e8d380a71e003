"""tools/bench.py refuses checkouts that hold a bytecode cache."""

import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench.py")


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
