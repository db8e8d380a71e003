"""Degree-3 associative algebras: matrix, cyclic, commutative cubic,
unitary involutions, and their closed forms against the characteristic
coefficients read off the reduced norm."""

from fractions import Fraction

import pytest

from albertlab import linalg
from albertlab.associative import (CommutativeCubic, CyclicAlgebra,
                                   GroundCenter, MatrixAlgebra,
                                   UnitaryInvolution)
from albertlab.config import tower
from albertlab.errors import (ConfigError, NotInvertible, NotSecondKind,
                              TwistNotHermitian)
from albertlab.fields import Elem
from albertlab.poly import Poly, mono
from albertlab.scalars import PrimeField

from .conftest import Stream, random_point


F_COEFFS = [1, -3, 0, 1]      # f = x^3 - 3x + 1 of the conftest towers


def _mul_mod_f(a, b, f, zero):
    """a b mod the monic cubic f, for coefficient triples a, b (lowest
    degree first): a dense univariate product and reduction."""
    out = [zero] * 5
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    for top in (4, 3):
        lead = out[top]
        for i in range(4):
            out[top - 3 + i] = out[top - 3 + i] - lead * f[i]
    return out[:3]


def _diag(alg, a, b, c):
    z = alg.center.zero
    return (a, z, z, z, b, z, z, z, c)


def char_coeffs(alg, x):
    """(T, S, N, x#) of x in a k-central algebra, from its reduced norm
    alone, as an oracle for the closed forms.

    N(t*1 - x) = t^3 - T t^2 + S t - N is read off by evaluating it with
    t a polynomial indeterminate, in every characteristic;
    x# = x^2 - T x + S 1.
    """
    g = alg.center.ground
    unit = alg.unit()
    t = Poly.var(0, g.one)
    x_const = alg.from_k_coords([Poly.const(c) for c in alg.to_k_coords(x)])
    v = alg.norm(alg.sub(alg.smul(t, unit), x_const))
    coeffs = [v.coefficient(mono((0,) * k)) or g.zero for k in range(3)]
    t_val, s_val, n_val = -coeffs[2], coeffs[1], -coeffs[0]
    xx = alg.mul(x, x)
    tx = alg.smul(t_val, x)
    su = alg.smul(s_val, unit)
    sharp = tuple(a - b + c for a, b, c in zip(xx, tx, su))
    return t_val, s_val, n_val, sharp


class TestMatrixAlgebra:
    def test_diagonal_determinant(self, QQ):
        m3 = MatrixAlgebra(GroundCenter(QQ))
        d = _diag(m3, Fraction(1), Fraction(2), Fraction(3))
        assert m3.norm(d) == Fraction(6)
        assert m3.trace(d) == Fraction(6)

    def test_adjugate_identity(self, QQ):
        m3 = MatrixAlgebra(GroundCenter(QQ))
        s = Stream(101)
        for _ in range(20):
            a = random_point(m3, s)
            na = m3.norm(a)
            prod = m3.mul(a, m3.sharp(a))
            assert prod == m3.smul(na, m3.unit())

    def test_norm_multiplicative(self, F5):
        m3 = MatrixAlgebra(GroundCenter(F5))
        s = Stream(103)
        for _ in range(20):
            a, b = random_point(m3, s), random_point(m3, s)
            assert m3.norm(m3.mul(a, b)) == m3.norm(a) * m3.norm(b)

    def test_inverse(self, QQ):
        m3 = MatrixAlgebra(GroundCenter(QQ))
        s = Stream(107)
        for _ in range(10):
            a = random_point(m3, s)
            if not m3.norm(a):
                continue
            assert m3.mul(a, m3.inv(a)) == m3.unit()
        sing = _diag(m3, Fraction(1), Fraction(1), Fraction(0))
        with pytest.raises(NotInvertible):
            m3.inv(sing)

    def test_char_coeffs_match_closed_forms(self, QQ, F5):
        for g in (QQ, F5):
            m3 = MatrixAlgebra(GroundCenter(g))
            s = Stream(109)
            for _ in range(10):
                a = random_point(m3, s)
                t, _, n, sharp = char_coeffs(m3, a)
                assert t == m3.trace(a)
                assert n == m3.norm(a)
                assert sharp == m3.sharp(a)

    def test_char_coeffs_small_field_symbolic_path(self):
        # the symbolic-t oracle agrees with the closed determinant forms
        # also over F2 and F3, which have too few points to interpolate at
        for p in (2, 3):
            g = PrimeField(p)
            m3 = MatrixAlgebra(GroundCenter(g))
            s = Stream(113)
            for _ in range(10):
                a = random_point(m3, s)
                t, _, n, sharp = char_coeffs(m3, a)
                assert t == m3.trace(a)
                assert n == m3.norm(a)
                assert sharp == m3.sharp(a)

    def test_conj_transpose_over_k(self, tower_q):
        m3 = MatrixAlgebra(tower_q.K)
        s = Stream(127)
        x, y = random_point(m3, s), random_point(m3, s)
        # antihomomorphism: (xy)* = y* x*
        assert m3.involution(m3.mul(x, y)) == \
            m3.mul(m3.involution(y), m3.involution(x))
        assert m3.involution(m3.involution(x)) == x


class TestCyclicAlgebra:
    def test_tower_without_l_rejected(self, QQ):
        quadratic = tower({"kind": "quadratic", "base": "Q", "d": "-1"})
        with pytest.raises(ConfigError, match="cyclic cubic L"):
            CyclicAlgebra(quadratic, QQ.one)

    def test_generator_norm_is_a(self, QQ, tower_l_q):
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        L = d.L
        e = (L.zero, L.one, L.zero)
        # N(e) = a: e^3 = a and the reduced norm is multiplicative
        assert d.norm(e) == QQ.from_int(2)
        assert d.trace(e) == QQ.zero
        e3 = d.mul(e, d.mul(e, e))
        assert e3 == d.smul(QQ.from_int(2), d.unit())

    def test_commutation_rule(self, QQ, tower_l_q):
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        L = d.L
        alpha = Elem(L, [Fraction(0), Fraction(1), Fraction(0)])
        l_elem = (alpha, L.zero, L.zero)
        e = (L.zero, L.one, L.zero)
        # e * l = rho(l) * e
        lhs = d.mul(e, l_elem)
        rho_l = (L.conj(alpha), L.zero, L.zero)
        assert lhs == d.mul(rho_l, e)

    def test_splitting_embed_is_homomorphism(self, QQ, tower_l_q):
        from albertlab import linalg
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        L = d.L
        s = Stream(131)
        for _ in range(10):
            x, y = random_point(d, s), random_point(d, s)
            mx, my = d.splitting_embed(x), d.splitting_embed(y)
            mxy = d.splitting_embed(d.mul(x, y))
            assert [[sum((a * b for a, b in zip(row, col)), L.zero)
                     for col in zip(*my)] for row in mx] == mxy
        assert d.splitting_embed(d.unit()) == linalg.identity(3, L.one, L.zero)

    def test_norm_multiplicative_and_adjoint(self, QQ, tower_l_q):
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        s = Stream(137)
        for _ in range(10):
            x, y = random_point(d, s), random_point(d, s)
            assert d.norm(d.mul(x, y)) == d.norm(x) * d.norm(y)
            assert d.mul(x, d.sharp(x)) == d.smul(d.norm(x), d.unit())

    def test_char_coeffs_agree(self, QQ, tower_l_q):
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        s = Stream(139)
        for _ in range(10):
            x = random_point(d, s)
            t, sp, n, sharp = char_coeffs(d, x)
            assert t == d.trace(x)
            assert sp == d.spur(x)
            assert n == d.norm(x)
            assert sharp == d.sharp(x)

    def test_zero_parameter_rejected(self, QQ, tower_l_q):
        with pytest.raises(NotInvertible):
            CyclicAlgebra(tower_l_q, QQ.zero)


class TestCommutativeCubic:
    def test_over_lk_needs_k(self, tower_l_q):
        with pytest.raises(NotSecondKind,
                           match="^tower has no quadratic level K$"):
            CommutativeCubic.over_LK(tower_l_q)

    def test_over_l_norm_matches_tower(self, tower_l_q):
        c = CommutativeCubic.over_L(tower_l_q)
        L = tower_l_q.L
        s = Stream(149)
        for _ in range(10):
            x = random_point(L, s)
            trip = tuple(x.coords)
            r = L.conj(x)
            r2 = L.conj(r)
            # an Elem equals a scalar only when it is that scalar times 1
            assert x * r * r2 == c.norm(trip)
            assert x + r + r2 == c.trace(trip)

    def test_over_lk_norm_matches_tower(self, tower_q):
        # oracle: x rho(x) rho^2(x) as univariate products mod f over K,
        # not through L's structure table
        c = CommutativeCubic.over_LK(tower_q)
        K = tower_q.K
        f = [K.from_scalar(Fraction(a)) for a in F_COEFFS]
        s = Stream(151)
        for _ in range(10):
            x = random_point(c, s)
            r = c.rho(x)
            prod = _mul_mod_f(_mul_mod_f(x, r, f, K.zero), c.rho(r), f,
                              K.zero)
            assert prod == [c.norm(x), K.zero, K.zero]

    def test_sharp_identity(self, tower_q):
        c = CommutativeCubic.over_LK(tower_q)
        s = Stream(157)
        for _ in range(10):
            x = random_point(c, s)
            assert c.mul(x, c.sharp(x)) == c.smul(c.norm(x), c.unit())

    def test_star_is_semilinear_involution(self, tower_q):
        c = CommutativeCubic.over_LK(tower_q)
        s = Stream(163)
        for _ in range(10):
            x, y = random_point(c, s), random_point(c, s)
            assert c.involution(c.involution(x)) == x
            assert c.involution(c.mul(x, y)) == \
                c.mul(c.involution(x), c.involution(y))


class TestUnitaryInvolution:
    def test_hermitian_dimensions(self, tower_q):
        m3 = MatrixAlgebra(tower_q.K)
        sig = UnitaryInvolution(m3)
        assert len(sig.hermitian_basis()) == 9
        c = CommutativeCubic.over_LK(tower_q)
        tau = UnitaryInvolution(c)
        assert len(tau.hermitian_basis()) == 3

    def test_hermitian_basis_is_fixed(self, tower_q):
        c = CommutativeCubic.over_LK(tower_q)
        tau = UnitaryInvolution(c)
        for h in tau.hermitian_basis():
            assert tau.is_hermitian(h)

    @pytest.mark.parametrize("order", [3, 6])
    def test_involution_of_other_order_rejected(self, tower_q, monkeypatch,
                                                order):
        # rho (order 3), or rho after bar (order 6), in place of bar
        def rho_bar(self, x):
            if order == 6:
                x = tuple(self.center.conj(c) for c in x)
            return self.rho(x)
        monkeypatch.setattr(CommutativeCubic, "involution", rho_bar)
        with pytest.raises(TwistNotHermitian,
                           match=r"^sigma\^2 != id for this twist$"):
            UnitaryInvolution(CommutativeCubic.over_LK(tower_q))

    def test_matrix_squares_to_identity(self, tower_q):
        m3 = MatrixAlgebra(tower_q.K)
        sig = UnitaryInvolution(m3)
        g = tower_q.ground
        assert linalg.matmul(sig.matrix, sig.matrix) == \
            linalg.identity(18, g.one, g.zero)
        s = Stream(171)
        for _ in range(3):
            x = random_point(m3, s)
            assert m3.to_k_coords(sig.apply(x)) == \
                linalg.matvec(sig.matrix, m3.to_k_coords(x))

    def test_ground_center_rejected(self, QQ):
        m3 = MatrixAlgebra(GroundCenter(QQ))
        with pytest.raises(NotSecondKind):
            UnitaryInvolution(m3)

    def test_twisted_involution(self, tower_q):
        m3 = MatrixAlgebra(tower_q.K)
        sig = UnitaryInvolution(m3)
        K = tower_q.K
        two = Elem(K, [Fraction(2), Fraction(0)])
        v = _diag(m3, K.one, two, K.one)
        assert sig.is_hermitian(v)
        sig_v = sig.twisted(v)
        s = Stream(167)
        for _ in range(5):
            x = random_point(m3, s)
            # sigma_v = Int(v) o sigma
            expect = m3.mul(m3.mul(v, sig.apply(x)), m3.inv(v))
            assert sig_v.apply(x) == expect
            assert sig_v.apply(sig_v.apply(x)) == x

    def test_non_hermitian_twist_rejected(self, tower_q):
        m3 = MatrixAlgebra(tower_q.K)
        sig = UnitaryInvolution(m3)
        K = tower_q.K
        i_elem = Elem(K, [Fraction(0), Fraction(1)])
        v = _diag(m3, K.one, i_elem, K.one)
        assert not sig.is_hermitian(v)
        with pytest.raises(TwistNotHermitian):
            sig.twisted(v)

    def test_twist_respects_hermitian_transport(self, tower_q):
        # x sigma-hermitian  =>  v x is sigma_v-hermitian when v = v^sigma
        c = CommutativeCubic.over_LK(tower_q)
        tau = UnitaryInvolution(c)
        her = tau.hermitian_basis()
        v = c.add(her[0], her[1])
        tau_v = tau.twisted(v)
        for h in her:
            assert tau_v.is_hermitian(c.mul(v, h))
