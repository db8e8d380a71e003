"""Field towers: quadratic etale, cyclic cubic, composite LK."""

from fractions import Fraction
from itertools import product

import pytest

from albertlab.associative import CommutativeCubic
from albertlab.config import tower
from albertlab.errors import (ConfigError, NotGaloisClosure, NotInvertible,
                              NotIrreducible)
from albertlab.fields import Elem, cubic_is_irreducible
from albertlab.rng import Stream
from albertlab.scalars import PrimeField


def _cubic(f, rho):
    """The cubic tower over Q with the given f and rho."""
    return tower({"kind": "cubic", "base": "Q", "f": f, "rho": rho})


def _rho_norm(ext, x):
    """x rho(x) rho^2(x): the norm of L/k as an element.  An Elem equals a
    scalar only when it is that scalar times 1."""
    r = ext.conj(x)
    return x * r * ext.conj(r)


def _rho_trace(ext, x):
    """x + rho(x) + rho^2(x)."""
    r = ext.conj(x)
    return x + r + ext.conj(r)


class TestQuadratic:
    def test_gaussian_norm_trace(self, tower_q):
        K = tower_q.K
        x = Elem(K, [Fraction(3), Fraction(4)])       # 3 + 4i
        # N(3+4i) = 9 + 16, T = 6   [oracle: a^2 - d b^2 with d = -1]
        assert x * K.conj(x) == Fraction(25)
        assert x + K.conj(x) == Fraction(6)

    def test_bar_is_involution(self, tower_q):
        K = tower_q.K
        x = Elem(K, [Fraction(2), Fraction(-7)])
        assert K.conj(K.conj(x)) == x
        assert K.conj(x) == Elem(K, [Fraction(2), Fraction(7)])

    def test_split_case(self):
        # split K = k x k is k[s]/(s^2 - 1), with idempotents (1 +- s)/2
        tow = tower({"kind": "quadratic", "base": "Q", "split": True})
        K = tow.K
        x = Elem(K, [Fraction(2), Fraction(5)])
        y = Elem(K, [Fraction(3), Fraction(-1)])
        # (2 + 5s)(3 - s) = 6 - 5 + (15 - 2)s
        assert x * y == Elem(K, [Fraction(1), Fraction(13)])
        assert K.conj(x) == Elem(K, [Fraction(2), Fraction(-5)])
        # N(2 + 5s) = 4 - 25, so x^-1 = (2 - 5s) / -21
        assert K.inv(x) == Elem(K, [Fraction(-2, 21), Fraction(5, 21)])
        assert x * K.inv(x) == K.one
        with pytest.raises(NotInvertible):
            K.inv(Elem(K, [Fraction(1), Fraction(1)]))

    def test_inverse_is_bar_over_norm(self, tower_q, tower_f5):
        # K = Q(i) (d = -1) and F_25 = F_5(sqrt 2) (d = 2)
        for K in (tower_q.K, tower_f5.K):
            s = Stream(19)
            for _ in range(20):
                x = K.random(s)
                if not x:
                    with pytest.raises(NotInvertible):
                        K.inv(x)
                    continue
                assert x * K.inv(x) == K.one
                assert K.inv(K.inv(x)) == x

    @pytest.mark.parametrize("node", [
        {"kind": "quadratic", "base": {"p": 2}, "d": "1"},
        {"kind": "quadratic", "base": {"p": 2}, "split": True}])
    def test_characteristic_2_rejected(self, node):
        with pytest.raises(ConfigError, match="characteristic 2"):
            tower(node)

    def test_f25_bar_is_frobenius(self):
        f5 = PrimeField(5)
        tow = tower({"kind": "quadratic", "base": {"p": 5}, "d": "2"})
        K = tow.K
        for a in range(5):
            for b in range(5):
                x = Elem(K, [f5.from_int(a), f5.from_int(b)])
                frob = x
                for _ in range(4):
                    frob = frob * x
                assert K.conj(x) == frob

    def test_zero_d_rejected(self):
        with pytest.raises(ConfigError):
            tower({"kind": "quadratic", "base": "Q", "d": "0"})


class TestCyclicCubic:
    def test_generator_norm_trace(self, tower_l_q):
        L = tower_l_q.L
        alpha = Elem(L, [Fraction(0), Fraction(1), Fraction(0)])
        # for x^3 - 3x + 1: N(alpha) = -a0 = -1, T(alpha) = -a2 = 0
        assert _rho_norm(L, alpha) == Fraction(-1)
        assert _rho_trace(L, alpha) == Fraction(0)

    def test_rho_order_three_and_nontrivial(self, tower_l_q):
        L = tower_l_q.L
        alpha = Elem(L, [Fraction(0), Fraction(1), Fraction(0)])
        r1 = L.conj(alpha)
        r3 = L.conj(L.conj(r1))
        assert r1 != alpha
        assert r3 == alpha

    def test_norm_is_rho_invariant(self, tower_l_q):
        L = tower_l_q.L
        s = Stream(7)
        for _ in range(20):
            x = L.random(s)
            n = _rho_norm(L, x)
            assert not any(n.coords[1:])
            assert n == _rho_norm(L, L.conj(x))

    def test_reducible_rejected(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1)
        with pytest.raises(NotIrreducible):
            _cubic(["-1", "0", "0", "1"], ["-2", "0", "1"])

    @pytest.mark.parametrize("f, irreducible", [
        ([10 ** 40, -3, 0, 1], True),
        ([-2 * 10 ** 30, 0, 0, 1], True),
        # (x - r)(x^2 + p x + q) = x^3 + (p - r) x^2 + (q - p r) x - q r
        *[([-q * r, q - p * r, p - r, 1], False) for r, p, q in [
            (10 ** 13 + 37, 0, 1),
            (Fraction(10 ** 15 + 1, 7), Fraction(1, 3), 5),
            # three roots around one critical point
            (10 ** 12, -2 * 10 ** 12 - 3, (10 ** 12 + 1) * (10 ** 12 + 2)),
        ]],
    ])
    def test_rational_root_test_on_large_coefficients(self, QQ, f,
                                                      irreducible):
        # no trial division of the constant term, which would take about
        # 10^20 steps on the first case
        f = [Fraction(c) for c in f]
        assert cubic_is_irreducible(f, QQ) == irreducible

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_fp_root_test_matches_root_scan(self, p):
        # every monic cubic over F_p: irreducible iff no root
        g = PrimeField(p)
        for c0, c1, c2 in product(range(p), repeat=3):
            has_root = any((c0 + c1 * x + c2 * x * x + x ** 3) % p == 0
                           for x in range(p))
            f = [g.from_int(c) for c in (c0, c1, c2, 1)]
            assert cubic_is_irreducible(f, g) == (not has_root)

    def test_non_galois_rejected(self):
        # x^3 - 2 is irreducible but not Galois over Q; no polynomial rho
        # can permute its roots inside L
        with pytest.raises(NotGaloisClosure):
            _cubic(["-2", "0", "0", "1"], ["-2", "0", "1"])

    def test_identity_rho_rejected(self):
        with pytest.raises(NotGaloisClosure):
            _cubic(["1", "-3", "0", "1"], ["0", "1", "0"])


class TestComposite:
    """LK = L (x) K as the commutative cubic K-algebra over_LK: triples
    of K coefficients on L's power basis {1, alpha, alpha^2}."""

    def test_star_fixes_l_and_rho_fixes_k(self, tower_q):
        lk = CommutativeCubic.over_LK(tower_q)
        K = tower_q.K
        alpha = (K.zero, K.one, K.zero)
        i_elem = (Elem(K, [Fraction(0), Fraction(1)]), K.zero, K.zero)
        assert lk.involution(alpha) == alpha
        assert lk.involution(i_elem) == lk.smul(-K.one, i_elem)
        assert lk.rho(i_elem) == i_elem
        assert lk.rho(alpha) != alpha

    def test_star_and_rho_commute(self, tower_q):
        lk = CommutativeCubic.over_LK(tower_q)
        s = Stream(11)
        for _ in range(20):
            x = lk.random(s)
            assert lk.involution(lk.rho(x)) == lk.rho(lk.involution(x))

    def test_lk_norm_multiplicative(self, tower_q):
        lk = CommutativeCubic.over_LK(tower_q)
        s = Stream(13)
        for _ in range(10):
            x, y = lk.random(s), lk.random(s)
            # norm descends x rho(x) rho^2(x) to K, or raises
            assert lk.norm(lk.mul(x, y)) == lk.norm(x) * lk.norm(y)

    def test_inversion(self, tower_q):
        lk = CommutativeCubic.over_LK(tower_q)
        s = Stream(17)
        for _ in range(10):
            x = lk.random(s)
            if not any(x):
                continue
            assert lk.mul(x, lk.inv(x)) == lk.unit()
