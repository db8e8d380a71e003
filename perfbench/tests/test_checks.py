"""The benchmark's checks reject wrong outputs, and its search workload
gives the same reports for one and two worker threads.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""

import json
import os
import random

import pytest

from albertlab import config, isotopy, runner, search
from albertlab.cubic import corrupt_sharp
from albertlab.poly import dump_cubic_form, dump_quad_map
from albertlab.search import SearchResult

import oracle
import worker
from tracing import PER_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _cfg(name):
    return config.load_config(os.path.join(ROOT, "configs", name + ".json"))


def _j(name):
    return config.BuildContext(_cfg(name)).j


def _forms(j):
    ar = oracle.Arith(j.ground)
    n, sh = j.expand_symbolic()
    return (ar, oracle.parse_cubic(dump_cubic_form(n, j.ground), ar),
            oracle.parse_quad(dump_quad_map(sh, j.ground), j.dim, ar))


@pytest.mark.parametrize("name", ["lk_f5_second", "m3_q_first"])
def test_forms_check_rejects_corrupted_adjoint(name):
    j = _j(name)
    ar, norm, adj = _forms(j)
    assert oracle.check_forms(ar, norm, adj, j.dim, seed=1) == []
    ar, norm, adj = _forms(corrupt_sharp(j, 3))
    assert oracle.check_forms(ar, norm, adj, j.dim, seed=1)


def test_axioms_check_rejects_failed_suite():
    cfg = _cfg("lk_f5_second")
    good, _ = runner.run_config(
        cfg, tasks=[{"task": "axioms"}, {"task": "dump_forms"}])
    assert oracle.check_axioms(good, seed=1) == []
    bad, code = runner.run_config(
        cfg, tasks=[{"task": "axioms", "corrupt_coord": 3},
                    {"task": "dump_forms"}])
    assert code == 1
    assert oracle.check_axioms(bad, seed=1)


@pytest.mark.parametrize("name", ["lk_f5_second", "m3_f5_first"])
def test_similarity_check_rejects_wrong_multiplier(name):
    j = _j(name)
    a = worker._draw_invertible(j, random.Random(5))
    m = j.u_matrix(a)
    nu, wit = isotopy.verify_norm_similarity(isotopy.LinearMap(j, j, m))
    assert oracle.check_similarity(j, a, m, nu, wit, seed=1) == []
    two = j.ground.from_int(2)
    assert oracle.check_similarity(j, a, m, nu * two, wit, seed=1)
    assert oracle.check_similarity(j, a, m, None, "not proportional", seed=1)


def test_galois_check_rejects_identity():
    from albertlab import galois, linalg
    j = _j("lk_f5_second")
    f = galois.extend_rho(j)
    basis, closure = galois.fixed_subspace(f, j)
    assert oracle.check_galois(j, f, basis, closure) == []
    f.matrix = linalg.identity(j.dim, j.ground.one, j.ground.zero)
    assert oracle.check_galois(j, f, basis, closure)


def test_search_checks_reject_non_witnesses():
    j = _j("lk_f5_second")
    hit = search.find_norm_zero(j, budget=1000, seed=3)
    assert hit.found and oracle.check_norm_zero(j, hit) == []
    nil = search.find_nilpotent(j, budget=5000, seed=3)
    assert nil.found and oracle.check_nilpotent(j, nil) == []
    unit = SearchResult("witness", witness=j.unit, index=0)
    assert oracle.check_norm_zero(j, unit)
    assert oracle.check_nilpotent(j, unit)
    assert oracle.check_nilpotent(j, hit)     # N(x) = 0 is not nilpotent


def _search_reports(jobs, monkeypatch):
    monkeypatch.setattr(worker, "JOBS", jobs)
    names = ("cyclic_q_first", "m3_f5_first", "lk_f5_second")
    cfgs = {n: _cfg(n) for n in names}
    ops = worker.search_ops(cfgs, [11, 12], worker.Fresh(cfgs))
    out = []
    for op in ops:
        j, res = op.run()
        assert op.check((j, res)) == []
        out.append((op.label, res.status, res.witness, res.index, res.detail))
    return out


def test_search_reports_identical_for_one_and_two_jobs(monkeypatch):
    assert _search_reports(1, monkeypatch) == _search_reports(2, monkeypatch)


def test_traced_exhausted_scan_counts_its_budget():
    j = _j("cyclic_q_first")
    scan = search._scan
    tracer = Tracer()
    tracer.install()
    try:
        res = search.division_falsify(j, budget=8, seed=1, jobs=2)
    finally:
        tracer.uninstall()
    assert res.status == "exhausted"
    assert tracer.counts["search.candidates"] == 8 // 2 + 8
    assert {s[2] for s in tracer.spans} >= {"search.scan", "poly.point_eval"}
    assert search._scan is scan


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(PER_LAYER)
