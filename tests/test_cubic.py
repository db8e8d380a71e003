"""Cubic norm structures: derived operations, identity suite, mutation
detection, nilpotency."""

import json
import os
from fractions import Fraction

import pytest

from albertlab import cubic, isotopy
from albertlab.config import BuildContext
from albertlab.runner import run_config
from albertlab.cubic import CubicNormStructure, corrupt_sharp
from albertlab.errors import NotInvertible, VerificationFailure
from albertlab.isotopy import isotope, u_isotope_identity
from albertlab.poly import Poly, indices
from albertlab.rng import Stream
from albertlab.scalars import lift

from .conftest import compose, trace_adjoint_difference


def _first_summand(j, d_elem):
    """D -> J(D, lambda), first summand."""
    coords = j.meta["algebra"].to_k_coords(d_elem)
    return tuple(coords + [j.ground.zero] * (j.dim - len(coords)))


@pytest.fixture(scope="module")
def j_dim1(QQ):
    # the ground field itself: N(x) = x^3, x# = x^2, unit = 1
    return CubicNormStructure(
        QQ, 1,
        lambda xs: xs[0] * xs[0] * xs[0],
        lambda xs: [xs[0] * xs[0]],
        [QQ.one], label="k")


class TestDimOne:
    def test_trace_data(self, j_dim1, trace_pair):
        # N(1 + z) = 1 + 3z + 3z^2 + z^3
        x = (Fraction(5),)
        assert j_dim1.trace(x) == Fraction(15)
        assert j_dim1.spur(x) == Fraction(75)
        assert trace_pair(j_dim1, (Fraction(2),), (Fraction(7),)) == \
            Fraction(42)

    def test_cross_and_u(self, j_dim1):
        # cross(a, b) = 2ab and U_x y = x^2 y in dimension one
        assert j_dim1.cross((Fraction(3),), (Fraction(4),)) == (Fraction(24),)
        assert j_dim1.u_op((Fraction(3),), (Fraction(5),)) == (Fraction(45),)

    def test_inverse(self, j_dim1):
        assert j_dim1.inverse((Fraction(4),)) == (Fraction(1, 4),)
        with pytest.raises(NotInvertible):
            j_dim1.inverse((Fraction(0),))

    def test_suite_passes(self, j_dim1):
        rep = j_dim1.axiom_suite(seed=3, points=30)
        assert rep.all_passed, rep


class TestOneDimensionalFallbacks:
    """expand_symbolic refuses forms that are not homogeneous before any
    check of the suite runs, and a structure with no invertible element
    reports the inverse identity failed instead of raising."""

    @pytest.mark.parametrize("norm, sharp, message", [
        (lambda x: x * x * x + x, lambda x: x * x,
         "norm of k is not a homogeneous cubic"),
        (lambda x: x * x * x, lambda x: x * x * x,
         "adjoint coordinate 0 of k is not homogeneous quadratic"),
    ])
    def test_inhomogeneous_forms_raise(self, QQ, norm, sharp, message):
        j = CubicNormStructure(QQ, 1, lambda xs: norm(xs[0]),
                               lambda xs: [sharp(xs[0])], [QQ.one],
                               label="k")
        with pytest.raises(VerificationFailure, match=message):
            j.axiom_suite(seed=3, points=20)

    def test_no_invertible_elements(self, QQ):
        j = CubicNormStructure(QQ, 1, lambda xs: QQ.zero,
                               lambda xs: [xs[0] * xs[0]], [QQ.one],
                               label="k")
        rep = j.axiom_suite(seed=3, points=20)
        check, = [c for c in rep.checks
                  if c.name == "u_operator_inverse_identity"]
        assert (check.passed, check.mode, check.witness) == (
            False, "random", "no invertible elements found")


class TestDerivedOps:
    def test_trace_matches_algebra_trace(self, j_m3_q, QQ):
        # on the first construction the trace of (x, 0, 0) is the matrix
        # trace of x
        m3 = j_m3_q.meta["algebra"]
        s = Stream(31)
        for _ in range(10):
            a = m3.random(s)
            pt = _first_summand(j_m3_q, a)
            assert j_m3_q.trace(pt) == m3.trace(a)
            # S(a) = (T(a)^2 - T(a^2)) / 2 in characteristic 0
            assert j_m3_q.spur(pt) == (
                m3.trace(a) ** 2 - m3.trace(m3.mul(a, a))) / 2

    def test_trace_pair_bilinear_symmetric(self, j_m3_f5, trace_pair):
        s = Stream(37)
        for _ in range(10):
            x = j_m3_f5.random_point(s)
            y = j_m3_f5.random_point(s)
            z = j_m3_f5.random_point(s)
            assert trace_pair(j_m3_f5, x, y) == trace_pair(j_m3_f5, y, x)
            xz = tuple(a + b for a, b in zip(x, z))
            assert trace_pair(j_m3_f5, xz, y) == \
                trace_pair(j_m3_f5, x, y) + trace_pair(j_m3_f5, z, y)

    def test_cross_is_polarized_sharp(self, j_lk_q, j_lk_f5):
        s = Stream(41)

        def mixed(j):
            # a Q point with mixed denominators, about a third of it zero
            return tuple(Fraction(0) if s.next_below(3) == 0 else
                         Fraction(s.next_below(19) - 9, 1 + s.next_below(6))
                         for _ in range(j.dim))

        pairs = [(j_lk_q, j_lk_q.random_point(s), j_lk_q.random_point(s))
                 for _ in range(5)]
        pairs += [(j_lk_q, mixed(j_lk_q), mixed(j_lk_q)) for _ in range(5)]
        pairs += [(j_lk_f5, j_lk_f5.random_point(s),
                   j_lk_f5.random_point(s)) for _ in range(5)]
        # a random-v isotope: its unit, and so its adjoint, is not integral
        jv = isotope(j_lk_q, j_lk_q.random_invertible(s))
        assert lift(jv.unit)[1] > 1
        pairs += [(jv, jv.unit, mixed(jv)), (jv, mixed(jv), jv.unit)]
        pairs += [(jv, jv.random_point(s), mixed(jv)) for _ in range(3)]
        assert any(lift(x)[1] > 1 and lift(y)[1] > 1 for _, x, y in pairs)
        for j, x, y in pairs:
            lhs = j.sharp(tuple(a + b for a, b in zip(x, y)))
            rhs = tuple(a + b + c for a, b, c in zip(
                j.sharp(x), j.sharp(y), j.cross(x, y)))
            assert lhs == rhs

    def test_u_matrix_matches_u_op(self, j_m3_f5):
        s = Stream(43)
        x = j_m3_f5.random_point(s)
        y = j_m3_f5.random_point(s)
        m = j_m3_f5.u_matrix(x)
        via_matrix = tuple(
            sum((m[i][j] * y[j] for j in range(j_m3_f5.dim)),
                j_m3_f5.ground.zero)
            for i in range(j_m3_f5.dim))
        assert via_matrix == j_m3_f5.u_op(x, y)

    def test_inverse_through_u(self, j_m3_q):
        s = Stream(47)
        x = j_m3_q.random_invertible(s)
        xi = j_m3_q.inverse(x)
        assert j_m3_q.u_op(x, xi) == x
        assert j_m3_q.inverse(xi) == x


class TestIntPointPath:
    """norm and sharp at ground points run through the int lifts of the
    expanded forms; they must agree with the evaluators."""

    @staticmethod
    def _agree(j, pt):
        n = j.norm(pt)
        assert type(n) is type(j.ground.one)
        assert n == j.eval_norm(list(pt))
        assert j.sharp(pt) == tuple(j.eval_sharp(list(pt)))

    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q"])
    def test_mixed_denominators_over_q(self, name, request):
        j = request.getfixturevalue(name)
        j.expand_symbolic()
        s = Stream(59)
        for _ in range(3):
            x = j.random_invertible(s)
            xi = j.inverse(x)
            assert any(c.denominator > 1 for c in xi)
            self._agree(j, x)
            self._agree(j, xi)
        self._agree(j, tuple(Fraction(i - 13, 1 + i % 5)
                             for i in range(j.dim)))

    def test_ground_points_never_reach_the_evaluators(self, QQ):
        # one route: the first sharp expands the adjoint forms alone and
        # the first norm the norm form alone, each running its evaluator
        # once on indeterminates, and every ground point goes through the
        # int forms
        seen = []

        def eval_norm(xs):
            seen.append(("norm", type(xs[0]).__name__))
            return xs[0] * xs[0] * xs[0]

        def eval_sharp(xs):
            seen.append(("sharp", type(xs[0]).__name__))
            return [xs[0] * xs[0]]

        j = CubicNormStructure(QQ, 1, eval_norm, eval_sharp, [QQ.one])
        x = (Fraction(2, 3),)
        assert j.sharp(x) == (Fraction(4, 9),)
        assert seen == [("sharp", "Poly")]
        assert j.norm(x) == Fraction(8, 27)
        assert seen == [("sharp", "Poly"), ("norm", "Poly")]
        j.sharp(x), j.norm(x)
        assert len(seen) == 2

    def test_finite_field_points(self, j_lk_f5):
        j_lk_f5.expand_symbolic()
        s = Stream(61)
        for _ in range(10):
            self._agree(j_lk_f5, j_lk_f5.random_point(s))
        self._agree(j_lk_f5, j_lk_f5.unit)
        zero = j_lk_f5.ground.zero
        assert j_lk_f5.norm((zero,) * j_lk_f5.dim) == zero

    @pytest.mark.parametrize("name", ["iso_m3_f5", "iso_lk_q"])
    def test_isotope_expansion_through_base(self, name, request):
        # expanding an isotope runs Poly coordinates through the base
        # structure's norm and sharp, which keep them symbolic
        jv = request.getfixturevalue(name)
        base, v = jv.meta["base"], jv.meta["v"]
        assert jv.expand_symbolic()[0] == \
            base.norm(v) * base.expand_symbolic()[0]
        s = Stream(67)
        for _ in range(5):
            self._agree(jv, jv.random_point(s))


class TestNilpotency:
    def test_structured_nilpotent(self, j_m3_q, QQ):
        m3 = j_m3_q.meta["algebra"]
        z = QQ.zero
        e12 = (z, QQ.one, z, z, z, z, z, z, z)
        pt = _first_summand(j_m3_q, e12)
        assert j_m3_q.is_nilpotent(pt)
        assert not any(j_m3_q.u_op(pt, pt))

    def test_invertible_not_nilpotent(self, j_m3_q):
        x = j_m3_q.random_invertible(Stream(53))
        assert not j_m3_q.is_nilpotent(x)

    def test_unit_not_nilpotent(self, j_lk_q):
        assert not j_lk_q.is_nilpotent(j_lk_q.unit)


class TestMutationDetection:
    def test_corrupt_sharp_detected_with_witness(self, j_m3_f5, j_m3_q):
        for j in (j_m3_f5, j_m3_q):
            bad = corrupt_sharp(j, coord=3)
            rep = bad.axiom_suite(seed=5, points=40)
            assert not rep.all_passed
            names = [c.name for c in rep.failed()]
            assert "adjoint_of_adjoint" in names
            adj = next(c for c in rep.checks
                       if c.name == "adjoint_of_adjoint")
            assert adj.witness        # concrete failing data, not just a flag

    def test_corrupt_every_coordinate_is_caught(self, j_m3_f5):
        # the suite must notice a perturbation wherever it lands
        for coord in (0, 8, 13, 26):
            bad = corrupt_sharp(j_m3_f5, coord=coord)
            rep = bad.axiom_suite(seed=7, points=40)
            assert not rep.all_passed, "coord %d" % coord

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5"])
    def test_corrupted_forms_are_the_base_forms_plus_one_term(self, name,
                                                              request):
        # the copy's forms are read off its adjoint evaluator: j's norm
        # form unchanged, and x0^2 added to j's adjoint coordinate c alone
        j = request.getfixturevalue(name)
        n, sh = j.expand_symbolic()
        x0 = Poly.var(0, j.ground.one)
        for c in (0, 7):
            bad_n, bad_sh = corrupt_sharp(j, c).expand_symbolic()
            assert bad_n == n
            assert bad_sh == [p + x0 * x0 if i == c else p
                              for i, p in enumerate(sh)]

    def test_clean_structure_passes(self, j_m3_f5):
        rep = j_m3_f5.axiom_suite(seed=11, points=40)
        assert rep.all_passed, rep


SEED = 20260823
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture
def direct_calls(monkeypatch):
    """Labels of the structures whose N(x#) = N(x)^2 was composed."""
    calls = []
    real = CubicNormStructure._norm_of_adjoint_direct

    def spy(self):
        calls.append(self.label)
        return real(self)

    monkeypatch.setattr(CubicNormStructure, "_norm_of_adjoint_direct", spy)
    return calls


def _check(rep, name):
    return next(c for c in rep.checks if c.name == name)


def _lowest_term(p):
    return indices(min(p.terms, key=indices))


class TestNormOfAdjointRoute:
    # N(x#) = N(x)^2 is derived from x## = N(x) x and the gradient
    # identity outside characteristic 3, and composed otherwise

    @pytest.mark.parametrize("name", [
        "j_m3_f5", "j_m3_q", "j_cyc_q", "j_lk_q", "j_lk_f5", "iso_m3_f5",
        "iso_lk_q", "j_m3k_q", "j_m3_f7", "j_lk_f7"])
    def test_direct_composition_holds(self, name, request):
        # the composition the suite skips still proves N(x#) = N(x)^2
        j = request.getfixturevalue(name)
        j.expand_symbolic()
        assert j._norm_of_adjoint_direct() is None

    def test_clean_suite_derives(self, j_m3_f5, direct_calls):
        rep = j_m3_f5.axiom_suite(seed=SEED, points=20)
        assert rep.all_passed
        assert _check(rep, "norm_of_adjoint").mode == "symbolic"
        assert direct_calls == []

    def test_characteristic_3_composes(self, direct_calls):
        # J(M3(F_3), 2): the derivation divides by 3, so it is not used
        with open(os.path.join(CONFIGS, "m3_f5_first.json")) as fh:
            data = json.load(fh)
        data["base"] = {"p": 3}
        j = BuildContext(data).j
        assert j.ground.char == 3
        rep = j.axiom_suite(seed=SEED)
        assert rep.all_passed, rep
        assert _check(rep, "norm_of_adjoint").mode == "symbolic"
        assert direct_calls == [j.label]

    def test_failed_trace_premise_composes(self, direct_calls, monkeypatch):
        # a fresh J(M3(Q), 1): the verdicts are cached per structure, so a
        # fixture whose suite already ran would not compose again
        j = BuildContext(_config("m3_q_first")).j
        monkeypatch.setattr(CubicNormStructure, "_trace_adjoint_ok",
                            lambda self: False)
        rep = j.axiom_suite(seed=SEED, points=20)
        trace = _check(rep, "trace_adjoint_is_norm_derivative")
        assert not trace.passed and trace.witness == "polynomials differ"
        norm = _check(rep, "norm_of_adjoint")
        assert norm.passed and norm.mode == "symbolic"
        assert direct_calls == [j.label]

    def test_failed_adjoint_premise_composes(self, QQ, direct_calls):
        # N(x) = x0^3 - 3 x0 x1^2 with x# the gradient of N through T:
        # T(x#, y) = d_y N(x) holds, x## = N(x) x does not, and neither
        # does N(x#) = N(x)^2
        j = CubicNormStructure(
            QQ, 2,
            lambda x: x[0] * x[0] * x[0] - 3 * x[0] * x[1] * x[1],
            lambda x: [x[0] * x[0] - x[1] * x[1], -(x[0] * x[1])],
            [QQ.one, QQ.zero], label="toy")
        rep = j.axiom_suite(seed=SEED, points=20)
        assert _check(rep, "trace_adjoint_is_norm_derivative").passed
        assert not _check(rep, "adjoint_of_adjoint").passed
        norm = _check(rep, "norm_of_adjoint")
        assert not norm.passed and norm.mode == "symbolic"
        assert norm.witness
        assert direct_calls == ["toy"]

    @pytest.mark.parametrize("name, witness", [
        ("j_m3_f5", (0, 0, 0, 4, 7, 8)), ("j_m3_q", (0, 0, 0, 4, 7, 8))])
    def test_corrupt_sharp_composes(self, name, witness, request,
                                    direct_calls):
        # the verdict and the witness of the composition route, pinned:
        # the lowest monomial of N(x#) - N(x)^2 with the ground forms
        # composed, and x## = N(x) x failing at the lowest monomial of
        # coordinate 0, where x0^2 in adjoint coordinate 5 first shows
        j = corrupt_sharp(request.getfixturevalue(name), coord=5)
        rep = j.axiom_suite(seed=SEED, points=60)
        norm = _check(rep, "norm_of_adjoint")
        assert (norm.passed, norm.mode, norm.witness) == (
            False, "symbolic", "monomial %r" % (witness,))
        n, sh = j.expand_symbolic()
        one = j.ground.one
        assert _lowest_term(compose(n, sh) - n * n) == witness
        assert _lowest_term(compose(sh[0], sh) - n * Poly.var(0, one)) \
            == (0, 0, 0, 7)
        adjoint = _check(rep, "adjoint_of_adjoint")
        assert (adjoint.passed, adjoint.witness) == (
            False, "coordinate 0, monomial (0, 0, 0, 7)")
        assert direct_calls == [j.label]


U_CHECKS = ("u_operator_norm_similarity", "u_operator_inverse_identity")


def _config(name):
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        return json.load(fh)


def _cyclic_f7():
    # cyclic_q_first's D read over F_7, as in its golden check report
    data = _config("cyclic_q_first")
    data["tower"]["base"] = {"p": 7}
    data["tower"]["rho"] = ["-1", "-3", "1", "1"]
    return data


def _m3_f5_isotope_of():
    # J(M3(F_5), 2)^(v) for v = (1 + e12, 0, 0), as in its golden reports
    data = _config("m3_f5_first")
    data["construction"] = {
        "type": "isotope_of", "base": data["construction"],
        "v": ["1", "1", "0", "0", "1", "0", "0", "0", "1"] + ["0"] * 18}
    return data


class TestUOperatorRoute:
    # N(U_x y) = N(x)^2 N(y) and U_x(x^-1) = x are derived when the five
    # premises of cubic.U_PREMISES passed symbolically, and sampled
    # otherwise

    @pytest.mark.parametrize("data", [
        _config("cyclic_q_first"), _config("m3_q_first"),
        _config("m3_f5_first"), _config("lk_q_second"),
        _config("lk_f5_second"), _config("m3k_q_second"), _cyclic_f7(),
        _m3_f5_isotope_of()],
        ids=["cyclic_q_first", "m3_q_first", "m3_f5_first", "lk_q_second",
             "lk_f5_second", "m3k_q_second", "cyclic_f7", "m3_f5_isotope"])
    def test_derived_identities_hold_through_u_op(self, data):
        # the derivation and u_op are checked against each other: the
        # suite derives both identities, and u_op satisfies them at
        # seeded points
        j = BuildContext(data).j
        rep = j.axiom_suite(seed=SEED, points=20)
        assert rep.all_passed, rep
        for name in U_CHECKS:
            assert _check(rep, name).mode == "symbolic"
        s = Stream(SEED).derive("u:" + j.label)
        for _ in range(20):
            x, y = j.random_point(s), j.random_point(s)
            nx = j.norm(x)
            assert j.norm(j.u_op(x, y)) == nx * nx * j.norm(y)
            x = j.random_invertible(s)
            assert j.u_op(x, j.inverse(x)) == x

    @pytest.mark.parametrize("attr, value, premise", [
        ("_unit_cross_failure", lambda self: 0, "unit_cross_identity"),
        ("_trace_adjoint_ok", lambda self: False,
         "trace_adjoint_is_norm_derivative")],
        ids=["unit_cross", "trace_adjoint"])
    def test_unproved_premise_samples(self, j_m3_q, attr, value, premise,
                                      monkeypatch):
        # a failed premise is the one way to the sampled U checks
        monkeypatch.setattr(CubicNormStructure, attr, value)
        rep = j_m3_q.axiom_suite(seed=SEED, points=20)
        check = _check(rep, premise)
        assert (check.passed, check.mode) == (False, "symbolic")
        for name in U_CHECKS:
            u = _check(rep, name)
            assert (u.passed, u.mode) == (True, "random")

    def test_wrong_unit_samples(self, j_m3_f5):
        two = j_m3_f5.ground.from_int(2)
        j = CubicNormStructure(
            j_m3_f5.ground, j_m3_f5.dim, j_m3_f5.eval_norm,
            j_m3_f5.eval_sharp, [two * c for c in j_m3_f5.unit],
            label="wrong_unit")
        rep = j.axiom_suite(seed=SEED, points=20)
        assert not _check(rep, "norm_unit_is_one").passed
        assert not _check(rep, "sharp_unit_is_unit").passed
        for name in U_CHECKS:
            assert _check(rep, name).mode == "random"

    @pytest.mark.parametrize("name", ["j_m3_f5", "j_m3_q", "j_cyc_q"])
    def test_derived_suite_catches_wrong_evaluator(self, name, request):
        # 2 x0 x2 added to adjoint coordinate 4 of the evaluator is in the
        # forms read off it: the premises it breaks fail symbolically,
        # x## = N(x) x with its coordinate and monomial, so the U checks
        # are sampled, and the forms still match their evaluators
        bad = _wrong_evaluator(request.getfixturevalue(name))
        rep = bad.axiom_suite(seed=SEED, points=40)
        assert [c.name for c in rep.failed() if c.mode == "symbolic"] == [
            "adjoint_of_adjoint", "norm_of_adjoint", "unit_cross_identity",
            "trace_adjoint_is_norm_derivative",
            "u_operator_of_unit_is_identity"]
        assert _check(rep, "adjoint_of_adjoint").witness == \
            "coordinate 0, monomial %r" % (_WRONG_EVALUATOR_MONOMIAL[name],)
        for u in U_CHECKS:
            assert _check(rep, u).mode == "random"
        check = _check(rep, "expansion_matches_evaluators")
        assert (check.passed, check.mode, check.witness) == (
            True, "symbolic", None)


# the lowest monomial where x## = N(x) x fails, in adjoint coordinate 0,
# on _wrong_evaluator of each fixture
_WRONG_EVALUATOR_MONOMIAL = {"j_m3_q": (0, 0, 2, 4), "j_m3_f5": (0, 0, 2, 4),
                             "j_cyc_q": (0, 0, 2, 6), "j_lk_f5": (0, 0, 2, 2)}


def _wrong_evaluator(j):
    """j's evaluators with 2 x0 x2 added to adjoint coordinate 4."""
    def bad_sharp(coords):
        out = list(j.eval_sharp(coords))
        out[4] = out[4] + 2 * coords[0] * coords[2]
        return out

    return CubicNormStructure(j.ground, j.dim, j.eval_norm, bad_sharp,
                              j.unit, label="bad_evaluator")


class TestEvaluatorCheck:
    # expansion_matches_evaluators passes symbolically on every structure:
    # the forms are read off the evaluators, or, on an isotope, scaled
    # from its base's, so a wrong evaluator shows in the identity checks

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5", "j_lk_f5"])
    def test_isotope_of_wrong_evaluator_is_caught(self, name, request):
        # an isotope's forms are its base's, scaled by the held U_{v^-1},
        # so x## = N(x) x fails through the base, with the base's witness
        j = request.getfixturevalue(name)
        jv = isotope(_wrong_evaluator(j), j.random_invertible(Stream(7)))
        rep = jv.axiom_suite(seed=SEED, points=20)
        adj = _check(rep, "adjoint_of_adjoint")
        assert (adj.passed, adj.mode, adj.witness) == (
            False, "symbolic", "base: coordinate 0, monomial %r"
            % (_WRONG_EVALUATOR_MONOMIAL[name],))
        ev = _check(rep, "expansion_matches_evaluators")
        assert (ev.passed, ev.mode, ev.witness) == (True, "symbolic", None)


def _isotope_calls(calls):
    """The isotope labels among the recorded direct_calls."""
    return [label for label in calls if "^(v)" in label]


def _random_isotope(j):
    return isotope(j, j.random_invertible(Stream(SEED).derive(j.label)))


class TestNoSampling:
    def test_suite_draws_no_point(self, six_fixtures, monkeypatch,
                                  direct_calls):
        # every fixture and a random-v isotope of each (two of them
        # isotopes of isotopes) passes all 12 checks symbolically, with
        # the sampling loop and every point draw made to raise, and no
        # isotope composes N(x#) = N(x)^2
        structures = [s for j in six_fixtures
                      for s in (j, _random_isotope(j))]

        def refuse(*args):
            raise AssertionError("the axiom suite drew a point")

        monkeypatch.setattr(cubic, "_first_failure", refuse)
        monkeypatch.setattr(CubicNormStructure, "random_point", refuse)
        for j in structures:
            rep = j.axiom_suite(seed=SEED)
            assert rep.all_passed, (j.label, rep)
            assert len(rep.checks) == 12
            assert {c.mode for c in rep.checks} == {"symbolic"}, j.label
        assert _isotope_calls(direct_calls) == []


class TestTraceAdjointRoute:
    """_trace_adjoint_ok proves T(x#, y) = d_y N(x) one coordinate of y at
    a time; the verdict must be that of the composed identity
    (trace_adjoint_difference)."""

    @pytest.mark.parametrize("name", ["j_m3_f5", "j_m3_q", "j_cyc_q",
                                      "j_lk_q", "j_lk_f5", "iso_m3_f5",
                                      "iso_lk_q", "j_m3k_q"])
    def test_proved_structures(self, name, request):
        j = request.getfixturevalue(name)
        assert j._trace_adjoint_ok()
        assert not trace_adjoint_difference(j)

    def test_isotopes(self, j_cyc_q, j_m3_q):
        for j in (_random_isotope(j_cyc_q),
                  _random_isotope(_random_isotope(j_m3_q))):
            assert j._trace_adjoint_ok(), j.label
            assert not trace_adjoint_difference(j)

    @pytest.mark.parametrize("name", ["j_m3_q", "j_lk_f5", "iso_m3_f5"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_corrupted_adjoint(self, name, where, request):
        j = request.getfixturevalue(name)
        coord = {"first": 0, "middle": j.dim // 2, "last": j.dim - 1}[where]
        bad = corrupt_sharp(j, coord)
        assert not bad._trace_adjoint_ok()
        assert trace_adjoint_difference(bad)

    def test_failure_past_the_first_coordinate(self, QQ):
        # on k^3, N = x0 x1 x2 and T(x, y) = sum x_n y_n, so x0^2 added to
        # adjoint coordinate 2 breaks the identity at y_2 alone
        j = CubicNormStructure(
            QQ, 3, lambda xs: xs[0] * xs[1] * xs[2],
            lambda xs: [xs[1] * xs[2], xs[0] * xs[2], xs[0] * xs[1]],
            [QQ.one] * 3, label="k3")
        assert j._trace_adjoint_ok()
        bad = corrupt_sharp(j, 2)
        diff = trace_adjoint_difference(bad)
        assert diff and all(indices(m)[-1] == j.dim + 2 for m in diff.terms)
        assert not bad._trace_adjoint_ok()


def _nested(name, v, w):
    """The config `name` with its construction wrapped in isotope_of at v,
    and that in isotope_of at w."""
    data = _config(name)
    for point in (v, w):
        data["construction"] = {"type": "isotope_of", "v": point,
                                "base": data["construction"]}
    return data


class TestIsotopeRoute:
    # an isotope's x## = N(x) x and N(x#) = N(x)^2 are proved through its
    # base (isotopy.Isotope), never composed from its own dense forms

    @pytest.mark.parametrize("name, v, w", [
        ("m3_f5_first", ["1", "1", "0", "0", "1", "0", "0", "0", "1"],
         ["2", "0", "0", "0", "1", "0", "1", "0", "1"]),
        ("m3_q_first", ["1", "1/2", "0", "0", "1", "0", "0", "0", "3"],
         ["2", "0", "0", "-1", "1", "0", "1", "0", "1"])])
    def test_nested_isotope_matches_flattened(self, name, v, w,
                                              direct_calls):
        # (J^(v))^(w) = J^(U_v w): the same forms and unit, and the same
        # verdicts, all symbolic, with no isotope composed
        pad = ["0"] * 18
        nested = BuildContext(_nested(name, v + pad, w + pad)).j
        inner = nested.meta["base"]
        j = inner.meta["base"]
        flat = isotope(j, j.u_op(inner.meta["v"], nested.meta["v"]))
        assert nested.expand_symbolic() == flat.expand_symbolic()
        assert nested.unit == flat.unit
        reps = [s.axiom_suite(seed=SEED) for s in (nested, flat)]
        verdicts = [[(c.name, c.passed, c.mode) for c in rep.checks]
                    for rep in reps]
        assert verdicts[0] == verdicts[1]
        assert reps[0].all_passed and len(reps[0].checks) == 12
        assert {c.mode for c in reps[0].checks} == {"symbolic"}
        assert _isotope_calls(direct_calls) == []

    def test_characteristic_3_isotope_uses_pullback(self, direct_calls,
                                                    monkeypatch):
        # over F_3 the base composes N(x#) = N(x)^2; the isotope pulls its
        # base's norm form back through M once and composes nothing
        data = _config("m3_f5_first")
        data["base"] = {"p": 3}
        j = BuildContext(data).j
        jv = _random_isotope(j)
        calls = []
        real = isotopy.pullback

        def spy(p, rows):
            calls.append(p)
            return real(p, rows)

        monkeypatch.setattr(isotopy, "pullback", spy)
        rep = jv.axiom_suite(seed=SEED)
        assert rep.all_passed, rep
        assert _check(rep, "norm_of_adjoint").mode == "symbolic"
        assert calls == [j.n_int[0]]
        assert direct_calls == [j.label]

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5", "j_lk_q"])
    @pytest.mark.parametrize("mutant", ["u_entry", "scale"])
    def test_mutant_fails_both_checks(self, name, mutant, request,
                                      direct_calls):
        # the held rows of U_{v^-1} with one entry raised by 1, or N(v)
        # replaced by 1 in the scale, changed before the isotope's forms
        # are built from them
        j = request.getfixturevalue(name)
        s = Stream(SEED).derive("mutant:" + j.label)
        v = j.random_invertible(s)
        while j.norm(v) ** 3 == j.ground.one:     # else scale is unchanged
            v = j.random_invertible(s)
        jv = isotope(j, v)
        if mutant == "u_entry":
            jv.u_rows[0][1] += 1
            want = "U_w U_{w#} entry (0, "
        else:
            jv.scale = j.ground.one / jv.u_den
            want = "scale: "
        rep = jv.axiom_suite(seed=SEED, points=20)
        adjoint = _check(rep, "adjoint_of_adjoint")
        norm = _check(rep, "norm_of_adjoint")
        assert (adjoint.passed, adjoint.mode) == (False, "symbolic")
        assert adjoint.witness.startswith(want), adjoint.witness
        assert (norm.passed, norm.mode) == (False, "symbolic")
        assert norm.witness.startswith("N(M y) monomial ("), norm.witness
        assert _isotope_calls(direct_calls) == []

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5"])
    def test_adjoint_identity_step_alone(self, name, request):
        # x0^2 added to the base's adjoint coordinate 4, with the base's
        # verdicts forced to pass, and v = (p, 0, 0) for the permutation
        # matrix p swapping rows 0 and 1.  Coordinate 0 of w = v^-1 and of
        # w# is 0, so U_w and U_{w#} and the two checks on them stay as
        # they were, and only (U_w y)# = U_{w#} y# sees the change: its
        # left side gains (U_w y)_0^2 = y_4^2 in coordinate 4, its right
        # side U_{w#}(y_0^2 e_4) = y_0^2 e_0 up to a scalar
        j = request.getfixturevalue(name)
        bad = corrupt_sharp(j, coord=4)
        bad._adjoint_verdicts = (None, None)
        p = [0, 1, 0, 1, 0, 0, 0, 0, 1] + [0] * 18
        jv = isotope(bad, tuple(j.ground.from_int(e) for e in p))
        assert jv.unit[0] == bad.sharp(jv.unit)[0] == 0
        assert jv._adjoint_verdicts == (
            "(U_w y)# coordinate 0, monomial (0, 0)", None)

    def test_corrupt_sharp_reapplies_v(self, iso_m3_f5, direct_calls):
        # the corruption lands in the innermost construction, and the
        # isotope's failure names the base
        bad = corrupt_sharp(iso_m3_f5, coord=3)
        base = bad.meta["base"]
        assert base.label == iso_m3_f5.meta["base"].label + "_corrupted"
        assert bad.meta["v"] == iso_m3_f5.meta["v"]
        assert bad.label == base.label + "^(v)"
        rep = bad.axiom_suite(seed=SEED, points=20)
        adjoint = _check(rep, "adjoint_of_adjoint")
        assert adjoint.witness == "base: coordinate 3, monomial (0, 0, 0, 4)"
        assert _check(rep, "norm_of_adjoint").witness.startswith("base: ")
        assert direct_calls == [base.label]


def _law_mutant(j, mutant):
    """An isotope of j at a random v with N(v)^3 != 1, changed by
    `mutant` before its forms are built from what it holds."""
    s = Stream(SEED).derive("law:" + j.label)
    v = j.random_invertible(s)
    while j.norm(v) ** 3 == j.ground.one:       # else scale is unchanged
        v = j.random_invertible(s)
    jv = isotope(j, v)
    if mutant == "u_entry":
        jv.u_rows[0][1] += 1
    elif mutant == "scale":
        jv.scale = j.ground.one / jv.u_den
    else:
        jv.nv = jv.nv + jv.nv
    return jv, v


class TestULawRoute:
    # U^(v)_x = U_x U_v is proved through the base
    # (isotopy.u_isotope_identity): the isotope's cached checks on v, one
    # scalar, U_w U_v = I and T^v = T U_v, and no point is drawn

    def test_law_draws_no_point(self, six_fixtures, monkeypatch):
        # a random-v isotope of each fixture (two of them isotopes of
        # isotopes), a config-built nested isotope_of and an F_3 isotope,
        # with every point draw refused
        data = _config("m3_f5_first")
        data["base"] = {"p": 3}
        f3 = BuildContext(data).j
        pad = ["0"] * 18
        nested = BuildContext(_nested(
            "m3_q_first", ["1", "1/2", "0", "0", "1", "0", "0", "0", "3"]
            + pad, ["2", "0", "0", "-1", "1", "0", "1", "0", "1"] + pad)).j
        laws = [(nested.meta["base"], nested, nested.meta["v"])]
        for j in six_fixtures + [f3]:
            jv = _random_isotope(j)
            laws.append((j, jv, jv.meta["v"]))

        def refuse(*args):
            raise AssertionError("the U^(v) law drew a point")

        monkeypatch.setattr(CubicNormStructure, "random_point", refuse)
        for j, jv, v in laws:
            assert u_isotope_identity(j, jv, v) is None, jv.label

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5", "j_lk_q"])
    @pytest.mark.parametrize("mutant, want", [
        ("u_entry", "U_w U_{w#} entry (0, "),
        ("scale", "scale: (scale u_den)^3 N(w)^2 != N(v)"),
        ("nv", "scale: (scale u_den)^3 N(w)^2 != N(v)")])
    def test_mutant_names_its_step(self, name, mutant, want, request):
        j = request.getfixturevalue(name)
        jv, v = _law_mutant(j, mutant)
        wit = u_isotope_identity(j, jv, v)
        assert wit.startswith(want), wit

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5", "j_lk_q"])
    @pytest.mark.parametrize("mutant, want", [
        ("scale", "scale: (scale u_den N(w))^2 != 1"),
        ("nv", "T^v = T U_v entry (")])
    def test_steps_after_the_cached_checks(self, name, mutant, want,
                                           request):
        # with the cached checks on v forced to pass, the scalar step
        # sees a wrong scale, and T^v = T U_v a wrong N(v): the isotope's
        # trace form, read off N(v) N at w, is then twice T U_v
        j = request.getfixturevalue(name)
        jv, v = _law_mutant(j, mutant)
        jv._v_failure = None
        wit = u_isotope_identity(j, jv, v)
        assert wit.startswith(want), wit

    def test_other_base_is_refused(self, j_m3_f5, iso_m3_f5):
        v = iso_m3_f5.meta["v"]
        assert u_isotope_identity(iso_m3_f5, iso_m3_f5, v) == \
            "premise: jv is not an isotope of j"

    def test_report_names_the_step(self, monkeypatch):
        # the isotope task reports a failed step as "fail: <step>"
        monkeypatch.setattr(isotopy.Isotope, "_v_failure", "scale: test")
        cfg = _config("m3_q_first")
        node = next(t for t in cfg["tasks"] if t["task"] == "isotope")
        report, code = run_config(cfg, tasks=[node])
        entry = report["tasks"][0]
        assert (code, entry["status"], entry["u_operator_identity"]) == (
            1, "fail", "fail: scale: test")
