"""Ground-point routes on int lifts: u_op from the int U data against
T(x, y) x - x# x y assembled from T(x, y) (the trace_pair fixture) and
the adjoint polarized from sharp; trace, spur and u_matrix against the
ground norm form expanded at c + z; and the evaluator check
(_evaluator_mismatch), which runs the evaluators and the int forms on
the same lane vectors of a batch of int lifts, against the evaluators
and N and # run point by point on the ground scalars themselves, with
the lane contract, the witness order and the number of evaluator runs
of the axiom suite's evaluator check."""

import json
import os
from fractions import Fraction

import pytest

from albertlab import config, cubic, tits
from albertlab.associative import (CommutativeCubic, CyclicAlgebra,
                                   GroundCenter, MatrixAlgebra,
                                   UnitaryInvolution)
from albertlab.cubic import CubicNormStructure, corrupt_sharp
from albertlab.errors import DescentFailure
from albertlab.fields import Elem, _descend
from albertlab.isotopy import isotope
from albertlab.poly import Poly, variables
from albertlab.rng import Stream
from albertlab.scalars import Lanes, PrimeField, lane_values, lift

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _polarized(j, x, y):
    """x x y = (x + y)# - x# - y#, from j.sharp alone, so that the
    references below do not read the U-operator data they check."""
    s = j.sharp(tuple(a + b for a, b in zip(x, y)))
    return tuple(a - b - c for a, b, c in zip(s, j.sharp(x), j.sharp(y)))


def _generic_u(j, x, y, trace_pair):
    t = trace_pair(j, x, y)
    cx = _polarized(j, j.sharp(x), y)
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
        n = j.expand_symbolic()[0]
        full = n.eval([Poly.const(c) + x for c, x in zip(j.unit, xs)], g.one)
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
                             for a, b in zip(x, _polarized(j, shx, e))])
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


def _columns(j, points):
    """The lane vectors of the points' int lifts, one per coordinate."""
    lifts = [lift(pt)[0] for pt in points]
    return [Lanes([xi[i] for xi in lifts], j.ground.char)
            for i in range(j.dim)]


def _raw_lanes(j, points):
    """Every lane value of the evaluators run on _columns(j, points)."""
    cols = _columns(j, points)
    return [v for r in [j.eval_norm(cols)] + list(j.eval_sharp(cols))
            for v in lane_values(r, len(points))]


def _reference_mismatch(j, points):
    """The index of the first point at which the evaluators run on the
    ground scalars differ from N and #, or None."""
    return next((k for k, x in enumerate(points)
                 if j.eval_norm(list(x)) != j.norm(x)
                 or tuple(j.eval_sharp(list(x))) != j.sharp(x)), None)


def _agree(j, points):
    """The lane check finds no mismatch, as the point-by-point reference
    does not, and the evaluators never meet a float: lanes are ints or
    Fractions over Q and reduced ints over F_p."""
    assert j._evaluator_mismatch(points) is None
    assert _reference_mismatch(j, points) is None
    raw = _raw_lanes(j, points)
    if j.ground.char == 0:
        assert all(type(v) in (int, Fraction) for v in raw)
    else:
        assert all(type(v) is int and 0 <= v < j.ground.p for v in raw)


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

    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q", "j_m3_f5"])
    @pytest.mark.parametrize("form", ["norm", "sharp"])
    def test_first_mismatch_at_mixed_denominators(self, name, form,
                                                  request):
        # forms with x0^3 added to N or x0^2 to #0, against j's own
        # evaluators, differ exactly where x0 != 0; the zero point and
        # the unit come first
        j = request.getfixturevalue(name)
        n, sh = j.expand_symbolic()
        x0 = Poly.var(0, j.ground.one)
        if form == "norm":
            n = n + x0 * x0 * x0
        else:
            sh = [sh[0] + x0 * x0] + sh[1:]
        bad = CubicNormStructure(j.ground, j.dim, j.eval_norm, j.eval_sharp,
                                 j.unit, forms=lambda: (n, sh))
        zero = tuple(j.ground.zero for _ in j.unit)
        points = [zero] + _points(j, Stream(92))
        want = _reference_mismatch(bad, points)
        assert want == next(k for k, x in enumerate(points) if x[0])
        assert bad._evaluator_mismatch(points) == want


class TestLanes:
    def test_falsy_only_when_every_lane_is_zero(self):
        assert not Lanes([0, 0, 0])
        assert not Lanes([Fraction(0), 0], 0)
        assert not Lanes([0, 0], 7)
        for lanes in ([1, 0, 0], [0, 0, -2], [0, Fraction(1, 3)]):
            assert Lanes(lanes)
        assert not (Lanes([0, 1], 7) - Lanes([0, 1], 7))

    def test_fp_lanes_stay_reduced(self):
        f7 = PrimeField(7)
        s = Stream(97)
        a = [s.next_below(7) for _ in range(20)]
        b = [s.next_below(7) for _ in range(20)]
        la, lb = Lanes(a, 7), Lanes(b, 7)
        c, big = f7.from_int(5), -123456789
        cases = [(la + lb, lambda x, y: x + y), (la - lb, lambda x, y: x - y),
                 (la * lb, lambda x, y: x * y), (-la, lambda x, y: -x),
                 (c * la, lambda x, y: c * x), (la * c, lambda x, y: x * c),
                 (la + c, lambda x, y: x + c), (c - la, lambda x, y: c - x),
                 (la - big, lambda x, y: x - big),
                 (big - la, lambda x, y: big - x),
                 (big * la, lambda x, y: big * x),
                 (la + big, lambda x, y: x + big)]
        for lanes, op in cases:
            assert type(lanes) is Lanes and lanes.p == 7
            assert all(type(v) is int and 0 <= v < 7 for v in lanes.values)
            assert lanes.values == [
                int(op(f7.from_int(x), f7.from_int(y)))
                for x, y in zip(a, b)]

    def test_integral_fraction_constants_keep_ints(self):
        lanes = Lanes([1, -2, 3])
        for v in (lanes + Fraction(0), Fraction(4) * lanes,
                  Fraction(0) - lanes):
            assert all(type(x) is int for x in v.values)
        half = lanes * Fraction(1, 2)
        assert half.values == [Fraction(1, 2), -1, Fraction(3, 2)]

    def test_no_equality_and_no_float(self):
        with pytest.raises(TypeError):
            Lanes([1]) == Lanes([1])
        with pytest.raises(TypeError):
            Lanes([1]) * 0.5

    def test_descent_failure_on_one_lane_raises(self, tower_q):
        center = tower_q.K
        ok = Elem(tower_q.K, [Lanes([1, 2, 3]), Lanes([0, 0, 0])])
        assert center.descend(ok).values == [1, 2, 3]
        with pytest.raises(DescentFailure):
            center.descend(Elem(tower_q.K, [Lanes([1, 2, 3]),
                                            Lanes([0, 0, 4])]))
        with pytest.raises(DescentFailure):
            _descend([Lanes([1, 1]), Lanes([0, 0]), Lanes([0, 5])],
                     "cyclic-algebra trace")


def _sparse_corrupt(j, rate):
    """corrupt_sharp(j)'s forms with j's own evaluators, so that forms and
    evaluators differ exactly at the points with x0 != 0; points are
    drawn with x0 = 0 except at about one draw in `rate`."""
    bad = corrupt_sharp(j, coord=3)
    s = CubicNormStructure(j.ground, j.dim, j.eval_norm, j.eval_sharp,
                           j.unit, label="sparse_corrupt",
                           forms=bad.expand_symbolic)
    draw = s.random_point

    def random_point(stream):
        x = draw(stream)
        if stream.next_below(rate):
            x = (j.ground.zero,) + x[1:]
        return x

    s.random_point = random_point
    return s


def _evaluator_witness(report):
    check, = [c for c in report.checks
              if c.name == "expansion_matches_evaluators"]
    assert check.passed == (check.witness is None)
    return check.witness


def _reference_scan(j, seed, points, monkeypatch):
    """(witness, index): the suite's evaluator check run point by point on
    ground scalars with the same seed, and the index of the failing
    point among the check's draws."""
    calls = []

    def per_point(self, pts):
        calls.append(pts)
        return _reference_mismatch(self, pts)

    with monkeypatch.context() as m:
        m.setattr(cubic, "EVAL_CHUNK", 1)
        m.setattr(CubicNormStructure, "_evaluator_mismatch", per_point)
        report = j.axiom_suite(seed=seed, points=points)
    assert all(len(pts) == 1 for pts in calls)
    return _evaluator_witness(report), len(calls) - 1


@pytest.fixture(scope="module")
def j_iso_q(j_m3_q):
    """A random-v isotope of J(M3(Q), 1): its adjoint form's common
    denominator s_den is in the thousands."""
    jv = isotope(j_m3_q, j_m3_q.random_invertible(Stream(89)))
    assert jv.n_int[1] == 1 and jv.sharp_int[1] > 1000
    return jv


class TestWitnessOrder:
    """The lane check reports the first failing point in draw order, the
    one a point-by-point scan on ground scalars with the same seed
    reports.  j_cyc_q (n_den = s_den = 3, Fraction lanes) and j_iso_q
    (s_den in the thousands) fail the comparison when a denominator is
    dropped or misplaced."""

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5", "j_cyc_q",
                                      "j_iso_q"])
    @pytest.mark.parametrize("rate, seed, points, first_chunk", [
        (20, 3, 100, True),
        (400, 12, 2 * cubic.EVAL_CHUNK + 1, False),
    ])
    def test_first_failing_point(self, name, rate, seed, points,
                                 first_chunk, request, monkeypatch):
        j = _sparse_corrupt(request.getfixturevalue(name), rate)
        got = _evaluator_witness(j.axiom_suite(seed=seed, points=points))
        want, index = _reference_scan(j, seed, points, monkeypatch)
        assert want is not None and got == want
        if first_chunk:
            assert 0 < index < cubic.EVAL_CHUNK
        else:
            assert cubic.EVAL_CHUNK <= index < points


class TestEvaluatorRuns:
    """The evaluator check runs each evaluator once per chunk of points,
    never once per point."""

    @pytest.mark.parametrize("points, runs", [
        (100, 1), (2 * cubic.EVAL_CHUNK + 1, 3)])
    def test_one_run_per_chunk(self, points, runs):
        with open(os.path.join(CONFIGS, "cyclic_q_first.json")) as fh:
            j = config.BuildContext(json.load(fh)).j
        j.expand_symbolic()
        counts = {"eval_norm": 0, "eval_sharp": 0}

        def counted(name):
            f = getattr(j, name)

            def wrapper(coords):
                counts[name] += 1
                return f(coords)
            return wrapper

        for name in counts:
            setattr(j, name, counted(name))
        assert j.axiom_suite(seed=5, points=points).all_passed
        assert counts == {"eval_norm": runs, "eval_sharp": runs}


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
    # dense int points, so that every product of the tower is reached,
    # and points with one block of zero coordinates, so that some
    # products are reached by no lane and start from a Fraction zero:
    # a lane vector that kept an integral Fraction constant, or that
    # zero, as a Fraction would turn its lanes into Fractions
    s = Stream(93)
    for j in integral_structures:
        j.expand_symbolic()
        dense = [tuple(Fraction(1 + s.next_below(9) if s.next_below(2)
                                else -1 - s.next_below(9))
                       for _ in range(j.dim)) for _ in range(3)]
        third = j.dim // 3
        sparse = [x[:third] + (Fraction(0),) * (j.dim - third)
                  for x in dense]
        for points in (dense, sparse):
            cols = _columns(j, points)
            raw = [j.eval_norm(cols)] + list(j.eval_sharp(cols))
            for r in raw:
                if type(r) is Lanes:
                    assert all(type(v) is int for v in r.values), j.label
                else:
                    assert not r, j.label
            assert j._evaluator_mismatch(points) is None, j.label
            assert _reference_mismatch(j, points) is None, j.label
