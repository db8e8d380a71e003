"""Degree-3 associative algebras: matrix, cyclic, commutative cubic,
unitary involutions, and their closed forms against the characteristic
coefficients read off the reduced norm."""

from fractions import Fraction

import pytest

from albertlab import linalg
from albertlab.associative import (CommutativeCubic, CyclicAlgebra,
                                   GroundCenter, MatrixAlgebra,
                                   QuadraticCenter, UnitaryInvolution)
from albertlab.errors import (DescentFailure, NotInvertible, NotSecondKind,
                              TwistNotHermitian)
from albertlab.fields import Elem
from albertlab.poly import Poly, mono
from albertlab.rng import Stream
from albertlab.scalars import PrimeField


def _diag(alg, a, b, c):
    z = alg.center.zero
    return (a, z, z, z, b, z, z, z, c)


def char_coeffs(alg, x):
    """(T, S, N, x#) of x in a k-central algebra, from its reduced norm
    alone, as an oracle for the closed forms.

    N(t*1 - x) = t^3 - T t^2 + S t - N is read off by exact interpolation
    at t = 0, 1, 2, 3 or, over F_2 and F_3, which have too few shifts, by
    evaluating with t a polynomial indeterminate; x# = x^2 - T x + S 1.
    """
    g = alg.center.ground
    unit = alg.unit()
    if g.char == 0 or g.char >= 5:
        shifts = [g.from_int(i) for i in range(4)]
        vals = [alg.norm(alg.sub(alg.smul(t, unit), x)) for t in shifts]
        vander = [[g.one, t, t * t, t * t * t] for t in shifts]
        coeffs = linalg.solve(vander, vals)
    else:
        t = Poly.var(0, g.one)
        x_const = alg.from_k_coords([Poly.const(c)
                                     for c in alg.to_k_coords(x)])
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
        assert m3.spur(d) == Fraction(11)      # 2 + 3 + 6

    def test_adjugate_identity(self, QQ):
        m3 = MatrixAlgebra(GroundCenter(QQ))
        s = Stream(101)
        for _ in range(20):
            a = m3.random(s)
            na = m3.norm(a)
            prod = m3.mul(a, m3.sharp(a))
            assert prod == m3.smul(na, m3.unit())

    def test_norm_multiplicative(self, F5):
        m3 = MatrixAlgebra(GroundCenter(F5))
        s = Stream(103)
        for _ in range(20):
            a, b = m3.random(s), m3.random(s)
            assert m3.norm(m3.mul(a, b)) == m3.norm(a) * m3.norm(b)

    def test_inverse(self, QQ):
        m3 = MatrixAlgebra(GroundCenter(QQ))
        s = Stream(107)
        for _ in range(10):
            a = m3.random(s)
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
                a = m3.random(s)
                t, sp, n, sharp = char_coeffs(m3, a)
                assert t == m3.trace(a)
                assert sp == m3.spur(a)
                assert n == m3.norm(a)
                assert sharp == m3.sharp(a)

    def test_char_coeffs_small_field_symbolic_path(self):
        # F2 and F3 have too few scalar shifts for interpolation; the
        # symbolic-t path must agree with the closed determinant forms
        for p in (2, 3):
            g = PrimeField(p)
            m3 = MatrixAlgebra(GroundCenter(g))
            s = Stream(113)
            for _ in range(10):
                a = m3.random(s)
                t, sp, n, sharp = char_coeffs(m3, a)
                assert t == m3.trace(a)
                assert sp == m3.spur(a)
                assert n == m3.norm(a)
                assert sharp == m3.sharp(a)

    def test_conj_transpose_over_k(self, tower_q):
        m3 = MatrixAlgebra(QuadraticCenter(tower_q))
        s = Stream(127)
        x, y = m3.random(s), m3.random(s)
        # antihomomorphism: (xy)* = y* x*
        assert m3.conj_transpose(m3.mul(x, y)) == \
            m3.mul(m3.conj_transpose(y), m3.conj_transpose(x))
        assert m3.conj_transpose(m3.conj_transpose(x)) == x


class TestCyclicAlgebra:
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
        rho_l = (L.apply("rho", alpha), L.zero, L.zero)
        assert lhs == d.mul(rho_l, e)

    def test_splitting_embed_is_homomorphism(self, QQ, tower_l_q):
        from albertlab import linalg
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        L = d.L
        s = Stream(131)
        for _ in range(10):
            x, y = d.random(s), d.random(s)
            mx, my = d.splitting_embed(x), d.splitting_embed(y)
            mxy = d.splitting_embed(d.mul(x, y))
            assert [[sum((a * b for a, b in zip(row, col)), L.zero)
                     for col in zip(*my)] for row in mx] == mxy
        assert d.splitting_embed(d.unit()) == linalg.identity(3, L.one, L.zero)

    def test_norm_multiplicative_and_adjoint(self, QQ, tower_l_q):
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        s = Stream(137)
        for _ in range(10):
            x, y = d.random(s), d.random(s)
            assert d.norm(d.mul(x, y)) == d.norm(x) * d.norm(y)
            assert d.mul(x, d.sharp(x)) == d.smul(d.norm(x), d.unit())

    def test_char_coeffs_agree(self, QQ, tower_l_q):
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        s = Stream(139)
        for _ in range(10):
            x = d.random(s)
            t, sp, n, sharp = char_coeffs(d, x)
            assert t == d.trace(x)
            assert sp == d.spur(x)
            assert n == d.norm(x)
            assert sharp == d.sharp(x)

    def test_zero_parameter_rejected(self, QQ, tower_l_q):
        with pytest.raises(NotInvertible):
            CyclicAlgebra(tower_l_q, QQ.zero)


class TestCommutativeCubic:
    def test_over_l_norm_matches_tower(self, tower_l_q):
        c = CommutativeCubic.over_L(tower_l_q)
        L = tower_l_q.L
        s = Stream(149)
        for _ in range(10):
            x = L.random(s)
            trip = tuple(x.coords)
            r = L.apply("rho", x)
            r2 = L.apply("rho", r)
            # an Elem equals a scalar only when it is that scalar times 1
            assert x * r * r2 == c.norm(trip)
            assert x + r + r2 == c.trace(trip)

    def test_over_lk_norm_matches_tower(self, tower_q):
        c = CommutativeCubic.over_LK(tower_q)
        LK = tower_q.LK
        zero = tower_q.ground.zero
        s = Stream(151)
        for _ in range(10):
            x = c.random(s)
            # LK basis index 2*i + j for a^i s^j; x[i] is the a^i coefficient
            coords = []
            for i in range(3):
                coords.extend(x[i].coords)
            lk = Elem(LK, coords)
            r = LK.apply("rho", lk)
            # N_{LK/K} = x rho(x) rho^2(x), with K at LK indices 0 and 1
            assert lk * r * LK.apply("rho", r) == \
                Elem(LK, list(c.norm(x).coords) + [zero] * 4)

    def test_sharp_identity(self, tower_q):
        c = CommutativeCubic.over_LK(tower_q)
        s = Stream(157)
        for _ in range(10):
            x = c.random(s)
            assert c.mul(x, c.sharp(x)) == c.smul(c.norm(x), c.unit())

    def test_star_is_semilinear_involution(self, tower_q):
        c = CommutativeCubic.over_LK(tower_q)
        s = Stream(163)
        for _ in range(10):
            x, y = c.random(s), c.random(s)
            assert c.star(c.star(x)) == x
            assert c.star(c.mul(x, y)) == c.mul(c.star(x), c.star(y))


class TestUnitaryInvolution:
    def test_hermitian_dimensions(self, tower_q):
        m3 = MatrixAlgebra(QuadraticCenter(tower_q))
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

    def test_ground_center_rejected(self, QQ):
        m3 = MatrixAlgebra(GroundCenter(QQ))
        with pytest.raises(NotSecondKind):
            UnitaryInvolution(m3)

    def test_twisted_involution(self, tower_q):
        m3 = MatrixAlgebra(QuadraticCenter(tower_q))
        sig = UnitaryInvolution(m3)
        K = tower_q.K
        two = Elem(K, [Fraction(2), Fraction(0)])
        v = _diag(m3, K.one, two, K.one)
        assert sig.is_hermitian(v)
        sig_v = sig.twisted(v)
        s = Stream(167)
        for _ in range(5):
            x = m3.random(s)
            # sigma_v = Int(v) o sigma
            expect = m3.mul(m3.mul(v, sig.apply(x)), m3.inv(v))
            assert sig_v.apply(x) == expect
            assert sig_v.apply(sig_v.apply(x)) == x

    def test_non_hermitian_twist_rejected(self, tower_q):
        m3 = MatrixAlgebra(QuadraticCenter(tower_q))
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
