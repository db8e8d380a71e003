"""Cubic norm structures: derived operations, identity suite, mutation
detection, nilpotency."""

import json
import os
from fractions import Fraction

import pytest

from albertlab import cubic
from albertlab.config import BuildContext
from albertlab.cubic import CubicNormStructure, corrupt_sharp
from albertlab.errors import NotInvertible, VerificationFailure
from albertlab.rng import Stream


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
    def test_trace_data(self, j_dim1):
        # N(1 + z) = 1 + 3z + 3z^2 + z^3
        x = (Fraction(5),)
        assert j_dim1.trace(x) == Fraction(15)
        assert j_dim1.spur(x) == Fraction(75)
        assert j_dim1.trace_pair((Fraction(2),), (Fraction(7),)) == \
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


class TestDerivedOps:
    def test_trace_matches_algebra_trace(self, j_m3_q, QQ):
        # on the first construction the trace of (x, 0, 0) is the matrix
        # trace of x
        from albertlab.associative import GroundCenter, MatrixAlgebra
        m3 = j_m3_q.meta["algebra"]
        s = Stream(31)
        for _ in range(10):
            a = m3.random(s)
            pt = _first_summand(j_m3_q, a)
            assert j_m3_q.trace(pt) == m3.trace(a)
            assert j_m3_q.spur(pt) == m3.spur(a)

    def test_trace_pair_bilinear_symmetric(self, j_m3_f5, F5):
        s = Stream(37)
        for _ in range(10):
            x = j_m3_f5.random_point(s)
            y = j_m3_f5.random_point(s)
            z = j_m3_f5.random_point(s)
            assert j_m3_f5.trace_pair(x, y) == j_m3_f5.trace_pair(y, x)
            xz = tuple(a + b for a, b in zip(x, z))
            assert j_m3_f5.trace_pair(xz, y) == \
                j_m3_f5.trace_pair(x, y) + j_m3_f5.trace_pair(z, y)

    def test_cross_is_polarized_sharp(self, j_lk_q):
        s = Stream(41)
        for _ in range(5):
            x = j_lk_q.random_point(s)
            y = j_lk_q.random_point(s)
            lhs = j_lk_q.sharp(tuple(a + b for a, b in zip(x, y)))
            rhs = tuple(a + b + c for a, b, c in zip(
                j_lk_q.sharp(x), j_lk_q.sharp(y), j_lk_q.cross(x, y)))
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
        # one route: the first norm or sharp expands the forms, running
        # the evaluators once on indeterminates, and every ground point
        # goes through the int forms
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
        assert j.norm(x) == Fraction(8, 27)
        assert seen == [("norm", "Poly"), ("sharp", "Poly")]

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
        assert jv.n_poly == base.norm(v) * base.n_poly
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

    def test_clean_structure_passes(self, j_m3_f5):
        rep = j_m3_f5.axiom_suite(seed=11, points=40)
        assert rep.all_passed, rep

    def test_random_point_fallback(self, j_m3_f5, monkeypatch):
        # with no symbolic budget both adjoint identities run on random
        # points, and still separate a clean structure from a corrupt one
        monkeypatch.setattr(cubic, "SYMBOLIC_OP_LIMIT", 0)
        names = ("adjoint_of_adjoint", "norm_of_adjoint")
        clean = {c.name: c for c in j_m3_f5.axiom_suite(seed=11, points=40)
                 .checks}
        bad = {c.name: c for c in corrupt_sharp(j_m3_f5, coord=3)
               .axiom_suite(seed=5, points=40).checks}
        for name in names:
            assert clean[name].mode == bad[name].mode == "random"
            assert clean[name].passed
            assert not bad[name].passed
            assert bad[name].witness


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
        assert j._norm_of_adjoint_direct()

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

    def test_failed_trace_premise_composes(self, j_m3_q, direct_calls,
                                           monkeypatch):
        monkeypatch.setattr(CubicNormStructure, "_trace_adjoint_ok",
                            lambda self: False)
        rep = j_m3_q.axiom_suite(seed=SEED, points=20)
        trace = _check(rep, "trace_adjoint_is_norm_derivative")
        assert not trace.passed and trace.witness == "polynomials differ"
        norm = _check(rep, "norm_of_adjoint")
        assert norm.passed and norm.mode == "symbolic"
        assert direct_calls == [j_m3_q.label]

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
        ("j_m3_f5", (1, 1, 1, 2, 0, 2, 4, 2, 1, 4, 2, 3, 1, 0, 3, 3, 4, 2,
                     3, 3, 4, 4, 4, 0, 1, 4, 4)),
        ("j_m3_q", tuple(Fraction(v) for v in (
            1, -10, -1, -7, 8, 10, 10, 8, 10, 4, -7, 6, -8, 6, 1, 0, -3,
            -6, -6, 8, -5, 0, 0, 8, 4, 10, -5)))])
    def test_corrupt_sharp_composes(self, name, witness, request,
                                    direct_calls):
        # the verdict and the witness of the composition route, pinned
        j = corrupt_sharp(request.getfixturevalue(name), coord=5)
        rep = j.axiom_suite(seed=SEED, points=60)
        norm = _check(rep, "norm_of_adjoint")
        assert (norm.passed, norm.mode, norm.witness) == (
            False, "symbolic", repr(witness))
        assert direct_calls == [j.label]
