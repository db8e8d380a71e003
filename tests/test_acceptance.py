"""Acceptance gate: ten verification criteria, one pass/fail line each.

Everything asserted here is an exact equality over Q or F_p; there are
no tolerances anywhere.  Run with `pytest -v tests/test_acceptance.py`
(add -s to see the per-criterion lines as they pass).
"""

import json
import os
import time

import pytest

from albertlab import linalg, tits
from albertlab.cli import main as cli_main
from albertlab.cubic import corrupt_sharp
from albertlab.galois import extend_rho, fixed_subspace
from albertlab.isotopy import (LinearMap, isotope, second_tits_isotope_iso,
                               u_isotope_identity, verify_isomorphism,
                               verify_norm_similarity)
from albertlab.search import find_nilpotent, find_norm_zero

from .conftest import Stream, random_invertible

SEED = 20260823
CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "m3_f5_first.json")


def _emit(n, ok, detail=""):
    line = "criterion %2d: %s%s" % (n, "PASS" if ok else "FAIL",
                                    " (%s)" % detail if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def axiom_reports(six_fixtures):
    t0 = time.monotonic()
    reports = [(j, j.axiom_suite()) for j in six_fixtures]
    return reports, time.monotonic() - t0


def _u_map(j, a):
    return LinearMap(j, j, j.u_matrix(a))


def test_criterion_01_axiom_suite(axiom_reports):
    reports, elapsed = axiom_reports
    bad = [(j.label, [c.name for c in rep.failed()])
           for j, rep in reports if not rep.all_passed]
    ok = not bad and elapsed < 60.0
    _emit(1, ok, "%d fixtures, %.1fs%s"
          % (len(reports), elapsed, "; failures %r" % bad if bad else ""))


def test_criterion_02_norm_similarity_law(six_fixtures, j_lk_q, j_m3_f5):
    checked = 0
    for j in six_fixtures:
        s = Stream(SEED).derive("c2:" + j.label)
        for _ in range(20):
            a = random_invertible(j, s)
            nu, wit = verify_norm_similarity(_u_map(j, a))
            na = j.norm(a)
            if wit is not None or nu != na * na:
                _emit(2, False, "nu(U_a) != N(a)^2 on %s" % j.label)
            checked += 1
    pairs = 0
    for j in (j_lk_q, j_m3_f5):
        s = Stream(SEED).derive("c2pairs:" + j.label)
        for _ in range(10):
            f = _u_map(j, random_invertible(j, s))
            g = _u_map(j, random_invertible(j, s))
            nu_f, _ = verify_norm_similarity(f)
            nu_g, _ = verify_norm_similarity(g)
            nu_fg, _ = verify_norm_similarity(f.compose(g))
            if nu_fg != nu_f * nu_g:
                _emit(2, False, "nu not multiplicative on %s" % j.label)
            pairs += 1
    _emit(2, True, "%d similarities, %d composed pairs, all exact"
          % (checked, pairs))


def test_criterion_03_adjoint_square_symbolic(axiom_reports):
    for j, rep in axiom_reports[0]:
        c = next(ch for ch in rep.checks if ch.name == "norm_of_adjoint")
        if not (c.passed and c.mode == "symbolic"):
            _emit(3, False, "%s: mode=%s passed=%s"
                  % (j.label, c.mode, c.passed))
    _emit(3, True, "N(x#) = N(x)^2 symbolically on all fixtures")


def test_criterion_04_isotope_contract(six_fixtures):
    for j in six_fixtures:
        s = Stream(SEED).derive("c4:" + j.label)
        suite_done = False
        for _ in range(5):
            v = random_invertible(j, s)
            jv = isotope(j, v)
            if jv.unit != j.inverse(v):
                _emit(4, False, "base point != v^-1 on %s" % j.label)
            wit = u_isotope_identity(j, jv, v)
            if wit is not None:
                _emit(4, False, "U^(v) identity failed on %s: %s"
                      % (j.label, wit))
            if not suite_done:
                rep = jv.axiom_suite()
                if not rep.all_passed:
                    _emit(4, False, "isotope suite failed on %s: %r"
                          % (j.label, [c.name for c in rep.failed()]))
                suite_done = True
    _emit(4, True, "5 v x U^(v) law proved + isotope suites, "
                   "%d fixtures" % len(six_fixtures))


def test_criterion_05_galois_extension(j_lk_q, j_lk_f5):
    for j in (j_lk_q, j_lk_f5):
        f = extend_rho(j)
        nu, wit = verify_norm_similarity(f)
        if nu != j.ground.one or wit is not None:
            _emit(5, False, "multiplier != 1 on %s" % j.label)
        if f.apply(j.unit) != j.unit:
            _emit(5, False, "base point moved on %s" % j.label)
        m = f.matrix
        ident = linalg.identity(j.dim, j.ground.one, j.ground.zero)
        m3 = linalg.matmul(linalg.matmul(m, m), m)
        if linalg.mat_equal(m, ident) or not linalg.mat_equal(m3, ident):
            _emit(5, False, "order != 3 on %s" % j.label)
        basis, closure = fixed_subspace(f, j)
        if len(basis) != 3 or not all(closure.values()):
            _emit(5, False, "fixed space not a 3-dim subalgebra on %s"
                  % j.label)
    _emit(5, True, "rho extends with multiplier 1, order 3, unit fixed "
                   "(Q and F5 towers)")


def test_criterion_06_isotope_isomorphism(j_lk_q, j_lk_f5):
    count = 0
    for j in (j_lk_q, j_lk_f5):
        b = j.meta["algebra"]
        sigma = j.meta["sigma"]
        mu = j.meta["mu"]
        center = b.center
        her = j.meta["her_basis"]
        g3 = j.ground.from_int(3)
        vs = [
            tuple(-c for c in her[1]),                      # -alpha
            her[2],                                         # alpha^2
            b.sub(her[0], b.smul(
                center.from_k_coords([g3, j.ground.zero]), her[1])),
        ]                                                   # 1 - 3 alpha
        for v in vs:
            if center.descend(b.norm(v)) != j.ground.one:
                _emit(6, False, "chosen v has N_L(v) != 1")
            ju = tits.second_tits(b, sigma, v, mu)          # u = v
            f = second_tits_isotope_iso(ju, v)
            tgt = f.target
            # u v# = N(v) 1 = 1 and N(v) mu = mu: the target is the
            # original structure J(LK,*,1,nu), same norm form
            if tgt.meta["u"] != b.unit() or tgt.meta["mu"] != mu:
                _emit(6, False, "target parameters are not (1, nu)")
            if tgt.expand_symbolic()[0] != j.expand_symbolic()[0]:
                _emit(6, False, "target norm form differs from J(LK,*,1,nu)")
            ok, _ = verify_isomorphism(f)
            if not ok:
                _emit(6, False, "isomorphism did not certify")
            count += 1
    _emit(6, True, "%d norm-one v across both towers land in J(LK,*,1,nu)"
          % count)


def test_criterion_07_norm_zeros_finite(finite_fixtures):
    t0 = time.monotonic()
    details = []
    for j in finite_fixtures:
        if j.dim == 9:
            res = find_norm_zero(j, mode="exhaustive", seed=SEED, jobs=4)
        else:
            res = find_norm_zero(j, budget=10 ** 4, mode="random",
                                 seed=SEED)
        if not res.found or j.norm(res.witness) or not any(res.witness):
            _emit(7, False, "no norm zero on %s" % j.label)
        details.append("%s@%d" % (j.label, res.index))
    elapsed = time.monotonic() - t0
    _emit(7, elapsed < 120.0, "indices %s, %.1fs" % (details, elapsed))


def test_criterion_08_nilpotents(j_m3_q, finite_fixtures):
    structured = find_nilpotent(j_m3_q, budget=10, seed=SEED)
    if not (structured.found and structured.detail == "structured candidate"):
        _emit(8, False, "no structured nilpotent on the split Q fixture")
    hits = []
    for j in [j_m3_q] + list(finite_fixtures):
        res = find_nilpotent(j, budget=10 ** 5, seed=SEED)
        if not res.found:
            _emit(8, False, "no nilpotent on %s" % j.label)
        if any(j.u_op(res.witness, res.witness)):
            _emit(8, False, "U_x(x) != 0 for the witness on %s" % j.label)
        hits.append("%s@%d" % (j.label, res.index))
    _emit(8, True, "witnesses " + ", ".join(hits))


def test_criterion_09_mutation_sensitivity(j_m3_f5, j_lk_q):
    for j, coord in ((j_m3_f5, 5), (j_lk_q, 2)):
        bad = corrupt_sharp(j, coord=coord)
        rep = bad.axiom_suite()
        adj = next(c for c in rep.checks if c.name == "adjoint_of_adjoint")
        if adj.passed:
            _emit(9, False, "corruption of %s went unnoticed" % j.label)
        if not adj.witness:
            _emit(9, False, "failure on %s carries no witness" % j.label)
    _emit(9, True, "corrupted adjoints fail x## = N(x)x with witnesses")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name, jobs in (("a", 1), ("b", 8), ("c", 1)):
        path = tmp_path / (name + ".json")
        code = cli_main(["search", "--config", CONFIG, "--seed", str(SEED),
                         "--budget", "4000", "--jobs", str(jobs),
                         "--out", str(path)])
        if code != 0:
            _emit(10, False, "CLI exited %d" % code)
        outs.append(path.read_bytes())
    if not (outs[0] == outs[1] == outs[2]):
        _emit(10, False, "reports differ across runs/jobs")
    rep = json.loads(outs[0])
    _emit(10, True, "byte-identical reports (jobs 1/8, repeated), "
                    "status %s" % rep["status"])
