"""Deterministic searches, their witness conversions, and the int norm
forms of the coefficient algebras that the preimage scan evaluates."""

from fractions import Fraction

import pytest

from albertlab import search
from albertlab.associative import (CommutativeCubic, CyclicAlgebra,
                                   MatrixAlgebra)
from albertlab.errors import VerificationFailure
from albertlab.fields import Elem
from albertlab.isotopy import isotope
from albertlab.rng import Stream
from albertlab.scalars import from_int, lift
from albertlab.search import (division_falsify, find_nilpotent,
                              find_norm_zero)


class TestDeterminism:
    def test_candidates_are_pure_functions(self, j_m3_f5):
        a = search._candidates(j_m3_f5.ground, j_m3_f5.dim, 42)(7)
        b = search._candidates(j_m3_f5.ground, j_m3_f5.dim, 42)(7)
        assert a == b
        assert search._candidates(j_m3_f5.ground, j_m3_f5.dim, 42)(8) != a

    def test_norm_zero_same_result_any_jobs(self, j_m3_f5):
        r1 = find_norm_zero(j_m3_f5, budget=2000, seed=9, jobs=1)
        r8 = find_norm_zero(j_m3_f5, budget=2000, seed=9, jobs=8)
        assert r1.status == r8.status == "witness"
        assert r1.index == r8.index
        assert r1.witness == r8.witness

    def test_nilpotent_same_result_any_jobs(self, j_lk_f5):
        r1 = find_nilpotent(j_lk_f5, budget=20000, seed=9, jobs=1)
        r8 = find_nilpotent(j_lk_f5, budget=20000, seed=9, jobs=8)
        assert r1.status == r8.status
        assert r1.index == r8.index
        assert r1.witness == r8.witness


class TestIntCandidates:
    """The int candidates are the lifts of the ground points that
    ground.random draws from the same stream offset."""

    SEEDS = (11, 2 ** 64 + 3)

    def test_point_candidates_lift_ground_draws(self, six_fixtures):
        for j in six_fixtures:
            for seed in self.SEEDS:
                candidate = search._candidates(j.ground, j.dim, seed)
                for i in range(50):
                    s = Stream(seed, offset=i * (j.dim + 2))
                    x = tuple(j.ground.random(s) for _ in range(j.dim))
                    assert lift(x) == (candidate(i), 1)

    def test_preimage_candidates_lift_algebra_draws(self, six_fixtures):
        # the coefficient algebras of the Tits constructions; an isotope
        # has no preimage scan
        algebras = {id(j.meta["algebra"]): j.meta["algebra"]
                    for j in six_fixtures
                    if getattr(j, "meta", {}).get("type")
                    in ("first_tits", "second_tits")}
        assert len(algebras) == 5
        for alg in algebras.values():
            for seed in self.SEEDS:
                base = Stream(seed).derive("preimage").seed
                candidate = search._candidates(alg.ground, alg.k_dim, base)
                for i in range(50):
                    w = alg.random(Stream(base, offset=i * (alg.k_dim + 2)))
                    assert lift(alg.to_k_coords(w)) == (candidate(i), 1)

    def test_exhaustive_digits(self, j_lk_f5):
        q, dim = j_lk_f5.ground.order, j_lk_f5.dim
        index = 3 + 4 * q + 2 * q ** (dim - 1)
        assert search._exhaustive_point(j_lk_f5, index) == \
            [3, 4] + [0] * (dim - 3) + [2]


class TestNormZero:
    def test_witness_is_verified(self, j_m3_f5):
        res = find_norm_zero(j_m3_f5, budget=5000, seed=1)
        assert res.found
        assert any(res.witness)
        assert not j_m3_f5.norm(res.witness)

    def test_exhaustive_small_carrier(self, j_lk_f5):
        res = find_norm_zero(j_lk_f5, budget=0, mode="exhaustive", seed=0,
                             jobs=4)
        assert res.found
        assert not j_lk_f5.norm(res.witness)

    def test_exhaustive_needs_finite_field(self, j_lk_q):
        with pytest.raises(VerificationFailure):
            find_norm_zero(j_lk_q, mode="exhaustive")

    def test_exhaustion_reported(self, j_lk_q):
        # over Q a short random scan finds nothing for this fixture
        res = find_norm_zero(j_lk_q, budget=50, seed=2)
        assert res.status == "exhausted"
        assert not res.found


class TestNilpotent:
    def test_structured_candidate_on_split_first(self, j_m3_q):
        res = find_nilpotent(j_m3_q, budget=10, seed=0)
        assert res.found
        assert res.index == -1
        assert res.detail == "structured candidate"
        assert not any(j_m3_q.u_op(res.witness, res.witness))

    def test_random_nilpotent_over_f5(self, j_lk_f5):
        res = find_nilpotent(j_lk_f5, budget=100000, seed=3)
        assert res.found
        assert j_lk_f5.is_nilpotent(res.witness)

    def test_only_the_hit_reaches_u_op(self, j_lk_f5, monkeypatch):
        # the scan tests T = S = N = 0 alone, and U_x(x) = 0 re-verifies
        # the one hit
        calls = []
        u_op = type(j_lk_f5).u_op

        def counted(self, x, y):
            calls.append(x)
            return u_op(self, x, y)

        monkeypatch.setattr(type(j_lk_f5), "u_op", counted)
        res = find_nilpotent(j_lk_f5, budget=100000, seed=3)
        assert res.index > 0
        assert calls == [res.witness]


class TestDivisionFalsify:
    def test_first_construction_preimage_conversion(self, j_m3_f5):
        res = division_falsify(j_m3_f5, budget=4000, seed=5)
        assert res.found
        # whatever branch fired, the reported witness is a nonzero
        # norm-zero element or B-coordinates of a norm preimage
        if "preimage of lambda" in (res.detail or ""):
            assert not j_m3_f5.norm(res.witness)
        assert res.detail

    def test_preimage_witness_splits_norm(self, j_m3_f5):
        # force the preimage branch and check the conversion identity
        m3 = j_m3_f5.meta["algebra"]
        lam = j_m3_f5.meta["lam"]
        hit = search._preimage_search(m3, lam, 4000, 5)
        assert hit is not None
        i, w = hit
        assert m3.norm(w) == lam
        jw = search._first_split_witness(j_m3_f5, m3, w)
        assert not j_m3_f5.norm(jw)

    def test_second_construction(self, j_lk_f5):
        res = division_falsify(j_lk_f5, budget=4000, seed=5)
        assert res.found
        b = j_lk_f5.meta["algebra"]
        if "preimage of mu" in (res.detail or ""):
            w = b.from_k_coords(list(res.witness))
            assert b.norm(w) == j_lk_f5.meta["mu"]

    def test_determinism_across_jobs(self, j_m3_f5):
        r1 = division_falsify(j_m3_f5, budget=4000, seed=5, jobs=1)
        r8 = division_falsify(j_m3_f5, budget=4000, seed=5, jobs=8)
        assert (r1.status, r1.index, r1.witness, r1.detail) == \
            (r8.status, r8.index, r8.witness, r8.detail)

    def test_norm_zero_fall_through(self, j_m3_f5):
        # an isotope is no Tits construction, so no preimage scan runs
        # and the witness is a norm-zero element of j itself
        j = isotope(j_m3_f5, j_m3_f5.random_invertible(Stream(5)))
        res = division_falsify(j, budget=200, seed=3)
        assert (res.found, res.index) == (True, 0)
        assert res.detail == "nonzero element with N = 0"
        assert any(res.witness) and j.norm(res.witness) == 0

    def test_exhaustive_mode_scans_the_carrier_alone(self, j_m3_f5,
                                                     monkeypatch):
        # no preimage draws: the hit is the carrier's first nonzero
        # norm-zero point, base-q digit order
        def refuse(*args):
            raise AssertionError("preimage scan in exhaustive mode")

        monkeypatch.setattr(search, "_preimage_search", refuse)
        res = division_falsify(j_m3_f5, budget=300, mode="exhaustive",
                               seed=5)
        assert (res.index, res.detail) == (1, "nonzero element with N = 0")
        assert res.witness == search._ground(
            j_m3_f5.ground, search._exhaustive_point(j_m3_f5, 1))

    def test_preimage_hit_failing_norm_fn_raises(self, j_m3_f5,
                                                 monkeypatch):
        # the int-form predicate hits (as above); an alg.norm that
        # disagrees with it must stop the search instead of returning
        # the hit
        m3 = j_m3_f5.meta["algebra"]
        lam = j_m3_f5.meta["lam"]
        m3.norm_int()       # the int forms come from the true norm
        monkeypatch.setattr(m3, "norm", lambda w: lam + 1)
        with pytest.raises(VerificationFailure):
            search._preimage_search(m3, lam, 4000, 5)


def _algebra(request, name):
    if name == "cyclic_half":
        # a = 1/2 gives the norm form a denominator, den = 4
        tower = request.getfixturevalue("tower_l_q")
        return CyclicAlgebra(tower, Fraction(1, 2))
    if name == "cubic_etale":
        return CommutativeCubic.over_L(request.getfixturevalue("tower_l_q"))
    if name == "m3_k":
        return MatrixAlgebra(request.getfixturevalue("tower_q").K)
    return request.getfixturevalue(name).meta["algebra"]


def _elements(alg, s):
    """The unit, drawn elements, and over Q elements whose k-coordinates
    have mixed denominators."""
    out = [alg.unit()] + [alg.random(s) for _ in range(3)]
    if alg.center.ground.char == 0:
        for _ in range(3):
            out.append(alg.from_k_coords([
                Fraction(s.next_below(19) - 9, 1 + s.next_below(6))
                for _ in range(alg.k_dim)]))
        assert any(lift(alg.to_k_coords(w))[1] > 1 for w in out)
    return out


def _norm_holds(alg, value, w):
    """search._norm_is(alg, value) at the int lift of w's k-coordinates,
    whose d may exceed 1."""
    return search._norm_is(alg, value)(*lift(alg.to_k_coords(w)))


class TestIntNormForms:
    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5", "j_cyc_q",
                                      "cyclic_half", "cubic_etale", "j_lk_q",
                                      "j_lk_f5", "m3_k"])
    def test_forms_match_algebra_norm(self, request, name):
        alg = _algebra(request, name)
        forms, den = alg.norm_int()
        c = alg.center
        assert len(forms) == c.dim
        assert all(f.is_homogeneous(3) for f in forms)
        if name == "cyclic_half":
            assert den == 4
        kind = type(c.ground.one)
        for w in _elements(alg, Stream(7).derive(name)):
            n = alg.norm(w)
            xi, d = lift(alg.to_k_coords(w))
            got = [from_int(kind, f.eval(xi), den * d ** 3)
                   for f in forms]
            assert got == c.to_k_coords(n)
            assert _norm_holds(alg, n, w)
            g = c.ground
            for i in range(c.dim):
                step = c.from_k_coords([g.one if k == i else g.zero
                                        for k in range(c.dim)])
                assert not _norm_holds(alg, n + step, w)

    def test_known_norms(self, j_m3_q, j_m3_f5, j_lk_q, QQ, F5):
        m3 = j_m3_q.meta["algebra"]
        two = m3.smul(QQ.from_int(2), m3.unit())
        assert _norm_holds(m3, QQ.from_int(8), two)
        assert not _norm_holds(m3, QQ.from_int(7), two)
        half = m3.smul(Fraction(1, 2), m3.unit())     # lifts with d = 2
        assert _norm_holds(m3, Fraction(1, 8), half)
        assert not _norm_holds(m3, Fraction(1, 4), half)
        m3_5 = j_m3_f5.meta["algebra"]
        two = m3_5.smul(F5.from_int(2), m3_5.unit())
        assert _norm_holds(m3_5, F5.from_int(8), two)
        assert not _norm_holds(m3_5, F5.from_int(2), two)
        b = j_lk_q.meta["algebra"]
        k = b.center
        two = b.smul(Elem(k, [QQ.from_int(2), QQ.zero]), b.unit())
        assert _norm_holds(b, Elem(k, [QQ.from_int(8), QQ.zero]), two)
        assert not _norm_holds(
            b, Elem(k, [QQ.from_int(8), QQ.one]), two)
