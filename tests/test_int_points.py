"""Ground-point routes on int lifts: u_op from the int U data against
T(x, y) x - x# x y assembled from T(x, y) (the trace_pair fixture) and
cross; trace, spur and u_matrix against the ground norm form expanded at
c + z; and the evaluators run on a point's int lift (lifted_norm,
lifted_sharp) against the same evaluators run on the ground scalars
themselves."""

from fractions import Fraction

import pytest

from albertlab import tits
from albertlab.associative import (CommutativeCubic, CyclicAlgebra,
                                   GroundCenter, MatrixAlgebra,
                                   UnitaryInvolution)
from albertlab.cubic import corrupt_sharp
from albertlab.fields import Elem
from albertlab.isotopy import isotope
from albertlab.poly import Poly, variables
from albertlab.rng import Stream
from albertlab.scalars import lift


def _generic_u(j, x, y, trace_pair):
    t = trace_pair(j, x, y)
    cx = j.cross(j.sharp(x), y)
    return tuple(t * xi - ci for xi, ci in zip(x, cx))


def _mixed(j, s):
    """A Q point with mixed denominators, about a third of it zero."""
    return tuple(Fraction(0) if s.next_below(3) == 0 else
                 Fraction(s.next_below(19) - 9, 1 + s.next_below(6))
                 for _ in range(j.dim))


def _points(j, s):
    """Drawn points, plus points with denominators over Q."""
    pts = [j.unit] + [j.random_point(s) for _ in range(3)]
    if j.ground.char == 0:
        pts += [_mixed(j, s) for _ in range(3)]
        assert any(lift(p)[1] > 1 for p in pts)
    return pts


class TestUOp:
    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q"])
    def test_mixed_denominators_over_q(self, name, request, trace_pair):
        j = request.getfixturevalue(name)
        s = Stream(81)
        x = j.random_invertible(s)
        zero = tuple(j.ground.zero for _ in range(j.dim))
        pairs = [(j.unit, _mixed(j, s)), (_mixed(j, s), j.unit),
                 (x, j.inverse(x)), (x, zero), (zero, x)]
        pairs += [(_mixed(j, s), _mixed(j, s)) for _ in range(4)]
        pairs += [(j.random_point(s), j.random_point(s)) for _ in range(2)]
        assert any(lift(x)[1] > 1 and lift(y)[1] > 1 for x, y in pairs)
        for x, y in pairs:
            got = j.u_op(x, y)
            assert got == _generic_u(j, x, y, trace_pair)
            assert all(type(c) is Fraction for c in got)

    def test_finite_field(self, j_lk_f5, trace_pair):
        s = Stream(83)
        kind = type(j_lk_f5.ground.one)
        for _ in range(8):
            x, y = j_lk_f5.random_point(s), j_lk_f5.random_point(s)
            got = j_lk_f5.u_op(x, y)
            assert got == _generic_u(j_lk_f5, x, y, trace_pair)
            assert all(type(c) is kind for c in got)


class TestTraceForms:
    """At a non-integral base point c = v^-1 of a random-v isotope, the
    int trace route against T and S read off the ground norm form
    expanded at c + z, N(c + z) = 1 + T(z) + S(z) + N(z)."""

    @staticmethod
    def _reference(j):
        """(T, S, U) at ground points, from the ground forms t and s."""
        g = j.ground
        xs = variables(j.dim, g.one)
        full = j.n_poly.eval([Poly.const(c) + x for c, x in zip(j.unit, xs)],
                             g.one)
        t, s = full.homogeneous_part(1), full.homogeneous_part(2)
        basis = [tuple(g.one if i == k else g.zero for i in range(j.dim))
                 for k in range(j.dim)]

        def u_matrix(x):
            """Column k is U_x(e_k) = T(x, e_k) x - x# x e_k, with
            T(x, e_k) = T(x) T(e_k) - (S(x + e_k) - S(x) - S(e_k))."""
            tx, sx, shx = t.eval(x, g.one), s.eval(x, g.one), j.sharp(x)
            cols = []
            for e in basis:
                xe = tuple(a + b for a, b in zip(x, e))
                pair = tx * t.eval(e, g.one) - (
                    s.eval(xe, g.one) - sx - s.eval(e, g.one))
                cols.append([pair * a - b
                             for a, b in zip(x, j.cross(shx, e))])
            return [list(row) for row in zip(*cols)]

        return (lambda x: t.eval(x, g.one)), (lambda x: s.eval(x, g.one)), \
            u_matrix

    @pytest.mark.parametrize("name", ["j_m3_q", "j_lk_q", "j_m3_f5",
                                      "j_lk_f5"])
    def test_random_v_isotope(self, name, request):
        j = request.getfixturevalue(name)
        s = Stream(95)
        jv = isotope(j, j.random_invertible(s))
        trace, spur, u_matrix = self._reference(jv)
        points = _points(jv, s)
        if jv.ground.char == 0:
            assert lift(jv.unit)[1] > 1
        else:
            assert jv.unit != j.unit
        for x in points:
            assert jv.trace(x) == trace(x)
            assert jv.spur(x) == spur(x)
            assert jv.u_matrix(x) == u_matrix(x)


def _agree(j, points):
    """lifted_norm / lifted_sharp equal the evaluators on the point, come
    back as ground scalars, and the evaluators never meet a float."""
    kind = type(j.ground.one)
    for pt in points:
        n, sh = j.lifted_norm(pt), j.lifted_sharp(pt)
        assert n == j.eval_norm(list(pt))
        assert sh == tuple(j.eval_sharp(list(pt)))
        assert type(n) is kind and all(type(c) is kind for c in sh)
        if kind is Fraction:
            xi, _ = lift(pt)
            raw = [j.eval_norm(xi)] + list(j.eval_sharp(xi))
            assert all(type(v) in (int, Fraction) for v in raw)


class TestLiftedEvaluators:
    def test_every_fixture(self, six_fixtures):
        for j in six_fixtures:
            j.expand_symbolic()
            _agree(j, _points(j, Stream(87).derive(j.label)))

    def test_random_v_isotope(self, j_m3_q, j_cyc_q):
        for j in (j_m3_q, j_cyc_q):
            s = Stream(89)
            jv = isotope(j, j.random_invertible(s))
            jv.expand_symbolic()
            _agree(jv, _points(jv, s))

    def test_corrupt_sharp(self, j_m3_q, j_cyc_q, j_m3_f5):
        for j in (j_m3_q, j_cyc_q, j_m3_f5):
            bad = corrupt_sharp(j, coord=2)
            bad.expand_symbolic()
            _agree(bad, _points(bad, Stream(91)))


@pytest.fixture(scope="module")
def integral_structures(QQ, tower_l_q, tower_q):
    """Structures over Q whose constants are all integral: J(M3(Q), 1),
    J(L, 1), J((L, rho, 2), 1) and J(LK, *, 1, 1)."""
    lk = CommutativeCubic.over_LK(tower_q)
    return [
        tits.first_tits(MatrixAlgebra(GroundCenter(QQ)), QQ.one),
        tits.first_tits(CommutativeCubic.over_L(tower_l_q), QQ.one),
        tits.first_tits(CyclicAlgebra(tower_l_q, QQ.from_int(2)), QQ.one),
        tits.second_tits(lk, UnitaryInvolution(lk), lk.unit(),
                         Elem(tower_q.K, [QQ.one, QQ.zero])),
    ]


def test_integral_constants_keep_int_lifts_int(integral_structures):
    # dense int points, so that every product of the tower is reached;
    # a structure constant held as a Fraction would turn a value into a
    # Fraction
    s = Stream(93)
    for j in integral_structures:
        j.expand_symbolic()
        for _ in range(3):
            xi = [1 + s.next_below(9) if s.next_below(2) else
                  -1 - s.next_below(9) for _ in range(j.dim)]
            raw = [j.eval_norm(xi)] + list(j.eval_sharp(xi))
            assert all(type(v) is int for v in raw), j.label
            pt = tuple(Fraction(v) for v in xi)
            assert j.norm(pt) == Fraction(raw[0])
            assert j.sharp(pt) == tuple(Fraction(v) for v in raw[1:])
