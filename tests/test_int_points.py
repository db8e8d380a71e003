"""Ground-point routes on int lifts: u_op from the int U data against
T(x, y) x - x# x y assembled from T(x, y) (the trace_pair fixture) and
the adjoint polarized from sharp; trace, spur and u_matrix against the
ground norm form composed at c + z, and the int trace data against the
int norm form composed the same way; N and # against the evaluators
run point by point on the ground scalars themselves; and one run of
each evaluator per suite of a Tits construction, none for its
isotopes, whose forms are scaled from their base's."""

import json
import os
from fractions import Fraction

import pytest

from albertlab.config import BuildContext
from albertlab.cubic import CubicNormStructure, corrupt_sharp
from albertlab.isotopy import isotope
from albertlab.poly import Poly, _int_scaled, indices, variables
from albertlab.rng import Stream
from albertlab.scalars import lift

from .conftest import compose

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _polarized(j, x, y):
    """x x y = (x + y)# - x# - y#, from j.sharp alone, so that the
    references below do not read the U-operator data they check."""
    s = j.sharp(tuple(a + b for a, b in zip(x, y)))
    return tuple(a - b - c for a, b, c in zip(s, j.sharp(x), j.sharp(y)))


def _degree_part(p, d):
    """The terms of degree d of p."""
    return Poly({m: c for m, c in p.terms.items() if m & 255 == d})


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
    composed at c + z, N(c + z) = 1 + T(z) + S(z) + N(z)."""

    @staticmethod
    def _reference(j):
        """(T, S, U) at ground points, from the ground forms t and s."""
        g = j.ground
        xs = variables(j.dim, g.one)
        n = j.expand_symbolic()[0]
        full = compose(n, [Poly.const(c) + x for c, x in zip(j.unit, xs)])
        t, s = _degree_part(full, 1), _degree_part(full, 2)
        basis = [tuple(g.one if i == k else g.zero for i in range(j.dim))
                 for k in range(j.dim)]
        # per e_k: T(e_k), e_k# and S(z + e_k) - S(z) - S(e_k), linear in z
        at_basis = [(e, t.eval(e), j.sharp(e),
                     compose(s, [z + c for z, c in zip(xs, e)]) - s
                     - s.eval(e)) for e in basis]

        def u_matrix(x):
            """Column k is U_x(e_k) = T(x, e_k) x - x# x e_k, with
            T(x, e_k) = T(x) T(e_k) - (S(x + e_k) - S(x) - S(e_k)) and
            x# x e_k = (x# + e_k)# - x## - e_k# (_polarized); the values
            at e_k are computed once, and those at x once per x."""
            tx, shx = t.eval(x), j.sharp(x)
            shsh = j.sharp(shx)
            cols = []
            for e, te, she, polar in at_basis:
                pair = tx * te - polar.eval(x)
                she_x = j.sharp(tuple(a + b for a, b in zip(shx, e)))
                cols.append([pair * a - (b - c - d) for a, b, c, d
                             in zip(x, she_x, shsh, she)])
            return [list(row) for row in zip(*cols)]

        return (lambda x: t.eval(x)), (lambda x: s.eval(x)), \
            u_matrix

    # the norms of j_cyc_q and j_m3k_q are dense (345 and 113 terms), so
    # their isotopes' trace data use every splitting of the read-off
    @pytest.mark.parametrize("name", ["j_m3_q", "j_lk_q", "j_m3_f5",
                                      "j_lk_f5", "j_cyc_q", "j_m3k_q"])
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

    def test_trace_data_matches_composition(self, six_fixtures, j_m3k_q):
        """_trace_data (t, s, den) against the int norm form composed at
        ci + cd z (compose) for the unit's lift ci / cd: t is its degree-1
        part, s its degree-2 part and den = n_den cd^3."""
        for j in six_fixtures + [j_m3k_q]:
            n_i, n_den = j.n_int
            ci, cd = lift(j.unit)
            full = compose(n_i, [Poly.var(k, cd) + c
                                 for k, c in enumerate(ci)])
            t = [0] * j.dim
            for m, c in _degree_part(full, 1).terms.items():
                t[indices(m)[0]] = c
            assert j._trace_data == (t, _degree_part(full, 2),
                                     n_den * cd ** 3), j.label


def _reference_mismatch(j, points, ref=None):
    """The index of the first point at which the evaluators of ref (j by
    default) run on the ground scalars differ from j's N and #, or
    None."""
    ref = ref or j
    return next((k for k, x in enumerate(points)
                 if ref.eval_norm(list(x)) != j.norm(x)
                 or tuple(ref.eval_sharp(list(x))) != j.sharp(x)), None)


class TestLiftedEvaluators:
    """The evaluators run on ground scalars, point by point, against N
    and # from the int forms at the points' lifts: Poly arithmetic on
    indeterminates and ground arithmetic give the same values."""

    def test_every_fixture(self, six_fixtures):
        for j in six_fixtures:
            assert _reference_mismatch(
                j, _points(j, Stream(87).derive(j.label))) is None, j.label

    def test_random_v_isotope(self, j_m3_q, j_cyc_q, j_m3_f5, j_lk_f5):
        for j in (j_m3_q, j_cyc_q, j_m3_f5, j_lk_f5):
            s = Stream(89)
            jv = isotope(j, j.random_invertible(s))
            assert _reference_mismatch(jv, _points(jv, s)) is None, j.label

    def test_corrupt_sharp(self, j_m3_q, j_cyc_q, j_m3_f5):
        for j in (j_m3_q, j_cyc_q, j_m3_f5):
            bad = corrupt_sharp(j, coord=2)
            assert _reference_mismatch(bad, _points(bad, Stream(91))) \
                is None, j.label

    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q", "j_m3_f5"])
    @pytest.mark.parametrize("form", ["norm", "sharp"])
    def test_first_mismatch_at_mixed_denominators(self, name, form,
                                                  request):
        # evaluators with x0^3 added to N or x0^2 to #0: the forms read
        # off them agree with them at every point, and differ from j's
        # evaluators exactly where x0 != 0 (the zero point and the unit
        # come first)
        j = request.getfixturevalue(name)

        def bad_norm(xs):
            n = j.eval_norm(xs)
            return n + xs[0] * xs[0] * xs[0] if form == "norm" else n

        def bad_sharp(xs):
            sh = list(j.eval_sharp(xs))
            if form == "sharp":
                sh[0] = sh[0] + xs[0] * xs[0]
            return sh

        bad = CubicNormStructure(j.ground, j.dim, bad_norm, bad_sharp,
                                 j.unit)
        zero = tuple(j.ground.zero for _ in j.unit)
        points = [zero] + _points(j, Stream(92))
        assert _reference_mismatch(bad, points) is None
        assert _reference_mismatch(bad, points, j) == \
            next(k for k, x in enumerate(points) if x[0])


def _counted_evaluators(*structures):
    """Wrap the evaluators of the structures to count their runs, in one
    dict of counts by evaluator name, which is returned."""
    counts = {"eval_norm": 0, "eval_sharp": 0}
    for s in structures:
        for name in counts:
            def wrapper(coords, f=getattr(s, name), name=name):
                counts[name] += 1
                return f(coords)
            setattr(s, name, wrapper)
    return counts


class TestEvaluatorRuns:
    """A Tits construction runs each evaluator once per suite, in the
    expansion, whatever its points and seed: the points form no chunks
    and none is run point by point.  Its isotopes run none."""

    @pytest.mark.parametrize("points, seed", [(100, 1), (257, 3)])
    def test_one_run_per_chunk(self, points, seed):
        with open(os.path.join(CONFIGS, "cyclic_q_first.json")) as fh:
            j = BuildContext(json.load(fh)).j
        counts = _counted_evaluators(j)
        rep = j.axiom_suite(seed=seed, points=points)
        assert rep.all_passed
        assert next(c.mode for c in rep.checks
                    if c.name == "expansion_matches_evaluators") == "symbolic"
        assert counts == {"eval_norm": 1, "eval_sharp": 1}

    def test_isotope_runs_no_evaluator_again(self):
        # an isotope's forms are its base's, scaled, so its suite runs
        # neither of the base's evaluators again
        with open(os.path.join(CONFIGS, "cyclic_q_first.json")) as fh:
            j = BuildContext(json.load(fh)).j
        counts = _counted_evaluators(j)
        assert j.axiom_suite(seed=1).all_passed
        jv = isotope(j, j.random_invertible(Stream(93)))
        rep = jv.axiom_suite(seed=1)
        assert rep.all_passed
        assert next(c.mode for c in rep.checks
                    if c.name == "expansion_matches_evaluators") == "symbolic"
        assert counts == {"eval_norm": 1, "eval_sharp": 1}

    def test_isotope_of_construction_compares_nothing(self):
        # the forms of a Tits construction's isotope, and of an isotope of
        # that, are scaled from their base's, so neither isotope runs its
        # evaluators on indeterminates
        with open(os.path.join(CONFIGS, "m3_q_first.json")) as fh:
            j = BuildContext(json.load(fh)).j
        jv = isotope(j, j.random_invertible(Stream(93)))
        jw = isotope(jv, jv.random_invertible(Stream(94)))
        counts = _counted_evaluators(jv, jw)
        for s in (jv, jw):
            rep = s.axiom_suite(seed=1)
            assert rep.all_passed, rep
        assert counts == {"eval_norm": 0, "eval_sharp": 0}

    def test_norm_form_alone(self):
        # a scan reads N alone: n_int expands the norm form and not the
        # adjoint, sharp_int then the adjoint forms alone, and neither
        # runs again, through expand_symbolic either
        with open(os.path.join(CONFIGS, "cyclic_q_first.json")) as fh:
            j = BuildContext(json.load(fh)).j
        counts = _counted_evaluators(j)
        j.n_int
        assert counts == {"eval_norm": 1, "eval_sharp": 0}
        assert j._n_poly is None
        j.sharp_int
        assert counts == {"eval_norm": 1, "eval_sharp": 1}
        n, sh = j.expand_symbolic()
        assert j._n_poly is n and len(sh) == j.dim
        assert counts == {"eval_norm": 1, "eval_sharp": 1}

    def test_isotope_norm_form_runs_no_evaluator(self):
        # an isotope's norm form is N(v) times its base's, so its n_int
        # runs no evaluator of either structure
        with open(os.path.join(CONFIGS, "cyclic_q_first.json")) as fh:
            j = BuildContext(json.load(fh)).j
        v = j.random_invertible(Stream(93))
        jv = isotope(j, v)
        counts = _counted_evaluators(j, jv)
        n_i, den = jv.n_int
        assert counts == {"eval_norm": 0, "eval_sharp": 0}
        assert n_i.eval(lift(v)[0]) and jv.norm(v) == j.norm(v) ** 2


Q_CONFIGS = ["cyclic_q_first", "m3_q_first", "m3k_q_second", "lk_q_second"]


class TestIntExpansion:
    """Over Q the evaluators and the coefficient algebra's reduced norm
    run on indeterminates with the int coefficient 1, so integral
    coefficients are ints, and the forms are those of an expansion on
    Fraction indeterminates."""

    @pytest.mark.parametrize("name", Q_CONFIGS)
    def test_forms_match_fraction_expansion(self, name):
        with open(os.path.join(CONFIGS, name + ".json")) as fh:
            j = BuildContext(json.load(fh)).j
        n, sh = j.expand_symbolic()
        coeffs = [c for p in [n, *sh] for c in p.terms.values()]
        assert all(type(c) is int for c in coeffs
                   if Fraction(c).denominator == 1)
        assert any(type(c) is int for c in n.terms.values())
        xs = variables(j.dim, Fraction(1))
        assert [n, *sh] == [j.eval_norm(xs), *j.eval_sharp(xs)]
        alg = j.meta["algebra"]
        c = alg.center
        ref = c.to_k_coords(alg.norm(alg.from_k_coords(
            variables(alg.k_dim, Fraction(1)))))
        assert alg.norm_int() == _int_scaled(ref)
