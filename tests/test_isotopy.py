"""Isotopes, certified norm similarities, and the second-construction
isotope isomorphism."""

from fractions import Fraction

import pytest

from albertlab import linalg
from albertlab.config import BuildContext
from albertlab.errors import ConfigError, NotInvertible
from albertlab.isotopy import (LinearMap, SingularMap, isotope,
                               second_tits_isotope_iso, u_isotope_identity,
                               verify_isomorphism, verify_norm_similarity)
from albertlab.poly import indices, linear_form
from albertlab.rng import Stream
from albertlab.scalars import lift

from .conftest import compose


def _u_map(j, a):
    return LinearMap(j, j, j.u_matrix(a))


def _composed_witness(j, m):
    """First index tuple where N(m x) and N(x) are not proportional, with
    the pullback composed term by term (compose)."""
    ints, _ = lift([e for row in m for e in row])
    n2, _ = j.n_int
    pull = compose(n2, [linear_form(ints[r * j.dim:(r + 1) * j.dim])
                        for r in range(j.dim)])
    first = min(n2.terms, key=indices)
    a, b = pull.coefficient(first) or 0, n2.terms[first]
    p = j.ground.char
    diff = []
    for mo in set(pull.terms) | set(n2.terms):
        d = b * pull.terms.get(mo, 0) - a * n2.terms.get(mo, 0)
        if d % p if p else d:
            diff.append(mo)
    return indices(min(diff, key=indices))


class TestLinearMap:
    def test_singular_rejected(self, j_lk_q):
        g = j_lk_q.ground
        m = [[g.zero] * 9 for _ in range(9)]
        with pytest.raises(SingularMap):
            LinearMap(j_lk_q, j_lk_q, m)

    def test_inverse_and_compose(self, j_lk_f5):
        # U_{a^-1} is the inverse of U_a
        a = j_lk_f5.random_invertible(Stream(301))
        comp = _u_map(j_lk_f5, a).compose(
            _u_map(j_lk_f5, j_lk_f5.inverse(a)))
        ident = linalg.identity(9, j_lk_f5.ground.one, j_lk_f5.ground.zero)
        assert linalg.mat_equal(comp.matrix, ident)

    def test_identity_is_isomorphism(self, j_lk_q):
        g = j_lk_q.ground
        ok, cert = verify_isomorphism(LinearMap(
            j_lk_q, j_lk_q, linalg.identity(j_lk_q.dim, g.one, g.zero)))
        assert ok
        assert cert["multiplier"] == "1"

    def test_similarity_with_multiplier_not_one(self, j_m3_q):
        # 2 I on J(M3(Q), 1) (configs/m3_q_first.json) scales N by 8: a
        # certified similarity, not an isomorphism, so the base point is
        # not checked
        g = j_m3_q.ground
        two = [[2 * e for e in row]
               for row in linalg.identity(j_m3_q.dim, g.one, g.zero)]
        ok, cert = verify_isomorphism(LinearMap(j_m3_q, j_m3_q, two))
        assert not ok
        assert cert == {"multiplier": "8",
                        "norm_check": "norm pullback proportional "
                                      "(symbolic)",
                        "unit_check": "skipped"}

    @pytest.mark.parametrize("name, diag", [
        ("j_m3_q", (2, Fraction(1, 2), 1)), ("j_m3_f5", (2, 3, 1))])
    def test_norm_preserving_map_that_moves_the_unit(self, request, name,
                                                     diag):
        # U_a with N(a) = 1 keeps N, but carries 1 to a^2 != 1; a is
        # diag(diag) in the first summand
        j = request.getfixturevalue(name)
        g = j.ground
        a = [g.zero] * j.dim
        for k, e in zip((0, 4, 8), diag):
            a[k] = g.from_fraction(Fraction(e))
        assert j.norm(a) == g.one
        assert verify_isomorphism(_u_map(j, a)) == (
            False, {"multiplier": "1",
                    "norm_check": "norm pullback proportional (symbolic)",
                    "unit_check": "base point not preserved"})


class TestNormSimilarity:
    def test_u_operator_multiplier_is_norm_squared(self, j_lk_q, j_lk_f5):
        # N(U_a x) = N(a)^2 N(x): the U operator is a similarity with
        # multiplier N(a)^2, certified on the symbolic norm form
        for j in (j_lk_q, j_lk_f5):
            s = Stream(307)
            for _ in range(5):
                a = j.random_invertible(s)
                nu, wit = verify_norm_similarity(_u_map(j, a))
                assert wit is None
                assert nu == j.norm(a) * j.norm(a)

    def test_u_multiplier_27dim(self, j_m3_f5):
        s = Stream(311)
        a = j_m3_f5.random_invertible(s)
        nu, wit = verify_norm_similarity(_u_map(j_m3_f5, a))
        assert wit is None
        assert nu == j_m3_f5.norm(a) * j_m3_f5.norm(a)

    def test_multiplier_is_multiplicative(self, j_lk_q):
        s = Stream(313)
        for _ in range(5):
            a = j_lk_q.random_invertible(s)
            b = j_lk_q.random_invertible(s)
            fa, fb = _u_map(j_lk_q, a), _u_map(j_lk_q, b)
            nu_a, _ = verify_norm_similarity(fa)
            nu_b, _ = verify_norm_similarity(fb)
            nu_ab, _ = verify_norm_similarity(fa.compose(fb))
            assert nu_ab == nu_a * nu_b

    def test_non_similarity_detected(self, j_lk_q, j_lk_f5, j_m3_q):
        # a generic invertible matrix is not a norm similarity; the
        # witness names the first monomial where the pullback composed
        # term by term and the source norm stop being proportional
        for j in (j_lk_q, j_lk_f5, j_m3_q):
            g = j.ground
            m = linalg.identity(j.dim, g.one, g.zero)
            m[0][1] = g.one
            m[3][7] = g.from_int(2)
            nu, wit = verify_norm_similarity(LinearMap(j, j, m))
            assert nu is None
            assert wit == ("monomial %r: pullback and source norm are not "
                           "proportional" % (_composed_witness(j, m),))


class TestIsotope:
    def test_base_point_is_v_inverse(self, j_m3_f5, iso_m3_f5):
        v = iso_m3_f5.meta["v"]
        assert iso_m3_f5.unit == j_m3_f5.inverse(v)

    def test_norm_scales(self, j_m3_f5, iso_m3_f5):
        v = iso_m3_f5.meta["v"]
        nv = j_m3_f5.norm(v)
        s = Stream(317)
        for _ in range(10):
            x = j_m3_f5.random_point(s)
            assert iso_m3_f5.norm(x) == nv * j_m3_f5.norm(x)

    def test_u_operator_identity(self, j_lk_q, iso_lk_q):
        v = iso_lk_q.meta["v"]
        assert u_isotope_identity(j_lk_q, iso_lk_q, v) is None

    def test_unit_isotope_is_same_structure(self, j_lk_q):
        ju = isotope(j_lk_q, j_lk_q.unit)
        s = Stream(337)
        for _ in range(10):
            x = j_lk_q.random_point(s)
            assert ju.norm(x) == j_lk_q.norm(x)
            assert ju.sharp(x) == j_lk_q.sharp(x)

    def test_singular_v_rejected(self, j_m3_f5):
        z = tuple(j_m3_f5.ground.zero for _ in range(27))
        with pytest.raises(NotInvertible):
            isotope(j_m3_f5, z)

    def test_isotope_axioms(self, iso_lk_q):
        rep = iso_lk_q.axiom_suite(seed=19, points=40)
        assert rep.all_passed, rep

    def test_fp_isotope_stores_no_zero(self, j_m3_f5, j_lk_f5):
        # U_{v^-1} is held as unreduced int rows, so the adjoint forms sum
        # F_5 coefficients times plain ints, and such a product can be 0
        for j in (j_m3_f5, j_lk_f5):
            jv = isotope(j, j.random_invertible(Stream(7)))
            n, sh = jv.expand_symbolic()
            assert all(c for p in [n, *sh] for c in p.terms.values()), \
                j.label

    @pytest.mark.parametrize("base", ["Q", {"p": 5}], ids=["Q", "F5"])
    def test_config_built_isotope_axioms(self, base):
        # the isotope_of construction, built from a config node as the
        # CLI builds it, with v = diag(1,1,1) + e_12 in the D summand
        v = ["1", "1", "0", "0", "1", "0", "0", "0", "1"] + ["0"] * 18
        j = BuildContext({
            "schema_version": 1, "base": base,
            "construction": {"type": "isotope_of", "v": v, "base": {
                "type": "first_tits", "algebra": {"kind": "matrix"},
                "lambda": "2"}}}).j
        assert j.meta["type"] == "isotope"
        assert j.unit == j.meta["base"].inverse(j.meta["v"])
        rep = j.axiom_suite(seed=23, points=40)
        assert rep.all_passed, rep
        assert len(rep.checks) == 12

    @pytest.mark.parametrize("name", ["j_m3_q", "j_m3_f5", "j_lk_q"])
    def test_mismatched_v_witness_matches_fraction_reference(self, request,
                                                             name):
        # the proved verdict against the Fraction matrices: U^(v)_x and
        # U_x U_v2 at 20 points of a fixed stream are equal for v2 = v and
        # for v2 = -v (U_{-v} = U_v), and differ somewhere for v2 = v / 2
        # and for another random v, where U_w U_v2 = I is the step that
        # fails
        j = request.getfixturevalue(name)
        g = j.ground
        s = Stream(347)
        v = j.random_invertible(s)
        jv = isotope(j, v)
        half = g.inv(g.from_int(2))
        for v2, fails in ((v, False), (tuple(-c for c in v), False),
                          (j.random_invertible(s), True),
                          (tuple(half * c for c in v), True)):
            wit = u_isotope_identity(j, jv, v2)
            uv2 = j.u_matrix(v2)
            ref_stream = Stream(349)
            differs = any(not linalg.mat_equal(
                jv.u_matrix(x), linalg.matmul(j.u_matrix(x), uv2))
                for x in (j.random_point(ref_stream) for _ in range(20)))
            assert (wit is not None) == differs == fails
            assert wit is None or wit.startswith("U_w U_v entry ("), wit


class TestSecondTitsIsotopeIso:
    def _vs(self, j):
        b = j.meta["algebra"]
        her = j.meta["her_basis"]
        return [
            b.add(her[0], her[1]),                       # 1 + alpha
            b.add(her[0], her[2]),                       # 1 + alpha^2
            b.add(b.add(her[0], her[0]), her[1]),        # 2 + alpha
        ]

    def test_certified_isomorphism_q(self, j_lk_q):
        for v in self._vs(j_lk_q):
            f = second_tits_isotope_iso(j_lk_q, v)
            assert f.certificate["multiplier"] == "1"
            assert f.certificate["unit_check"] == "base point preserved"
            ok, _ = verify_isomorphism(f)
            assert ok

    def test_certified_isomorphism_f5(self, j_lk_f5):
        for v in self._vs(j_lk_f5):
            f = second_tits_isotope_iso(j_lk_f5, v)
            assert f.certificate["multiplier"] == "1"

    def test_target_parameters(self, j_lk_q):
        # the verified map lands in J(B, sigma_v, u v#, N(v) mu)
        b = j_lk_q.meta["algebra"]
        v = self._vs(j_lk_q)[0]
        f = second_tits_isotope_iso(j_lk_q, v)
        tgt = f.target.meta
        assert tgt["u"] == b.mul(j_lk_q.meta["u"], b.sharp(v))
        assert tgt["mu"] == b.norm(v) * j_lk_q.meta["mu"]

    def test_norm_one_v_keeps_mu(self, j_lk_q):
        # N(v) = 1 (v = -alpha) leaves the second parameter mu unchanged
        b = j_lk_q.meta["algebra"]
        her = j_lk_q.meta["her_basis"]
        v = b.sub(b.sub(her[1], her[1]), her[1])       # -alpha
        center = b.center
        assert center.descend(b.norm(v)) == Fraction(1)
        f = second_tits_isotope_iso(j_lk_q, v)
        assert f.target.meta["mu"] == j_lk_q.meta["mu"]
        assert f.certificate["multiplier"] == "1"

    def test_non_hermitian_v_rejected(self, j_lk_q):
        b = j_lk_q.meta["algebra"]
        g = j_lk_q.ground
        coords = [g.zero] * b.k_dim
        coords[1] = g.one                     # a K-imaginary coordinate
        v = b.from_k_coords(coords)
        sigma = j_lk_q.meta["sigma"]
        if sigma.is_hermitian(v):
            pytest.skip("coordinate happens to be hermitian in this basis")
        with pytest.raises(ConfigError):
            second_tits_isotope_iso(j_lk_q, v)

    def test_first_construction_rejected(self, j_m3_f5):
        with pytest.raises(ConfigError):
            second_tits_isotope_iso(j_m3_f5, j_m3_f5.unit)

    def _m3k_vs(self, j):
        # 2 + (e12 + e21), and y + sigma(y) for a random y
        b = j.meta["algebra"]
        her = j.meta["her_basis"]
        y = b.random(Stream(431))
        return [b.add(b.add(b.unit(), b.unit()), her[1]),
                b.add(y, j.meta["sigma"].apply(y))]

    def test_certified_isomorphism_m3k(self, j_m3k_q):
        for v in self._m3k_vs(j_m3k_q):
            f = second_tits_isotope_iso(j_m3k_q, v)
            assert f.certificate["multiplier"] == "1"
            assert f.certificate["unit_check"] == "base point preserved"
            assert f.certificate["candidate"] == "(b,x) -> (b->vb, x)"

    @pytest.mark.parametrize("name", ["j_lk_q", "j_m3k_q"])
    def test_identity_map_fails_certification(self, request, name):
        # (b, x) -> (b, x) in coordinates, for v != 1
        j = request.getfixturevalue(name)
        v = self._vs(j)[0] if name == "j_lk_q" else self._m3k_vs(j)[0]
        f = second_tits_isotope_iso(j, v)
        g = j.ground
        mutant = LinearMap(f.source, f.target,
                           linalg.identity(j.dim, g.one, g.zero))
        ok, _ = verify_isomorphism(mutant)
        assert not ok
