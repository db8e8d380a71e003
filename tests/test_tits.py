"""First and second constructions: structure and admissibility."""

from fractions import Fraction

import pytest

from albertlab import linalg, tits
from albertlab.associative import (CommutativeCubic, GroundCenter,
                                   MatrixAlgebra, UnitaryInvolution)
from albertlab.errors import ConfigError, NotAdmissible, NotInvertible
from albertlab.config import tower
from albertlab.fields import Elem
from albertlab.tits import ZeroLambda

from .conftest import Stream, random_point


def _first_summand(j, d_elem):
    """D -> J(D, lambda), first summand."""
    coords = j.meta["algebra"].to_k_coords(d_elem)
    return tuple(coords + [j.ground.zero] * (j.dim - len(coords)))


class TestFirstConstruction:
    def test_dimensions_and_unit(self, j_m3_f5, j_cyc_q):
        assert j_m3_f5.dim == 27
        assert j_cyc_q.dim == 27
        assert j_m3_f5.norm(j_m3_f5.unit) == j_m3_f5.ground.one

    def test_first_summand_restriction(self, j_m3_q):
        # N((x,0,0)) = N_D(x) and (x,0,0)# = (x#,0,0)
        m3 = j_m3_q.meta["algebra"]
        s = Stream(201)
        for _ in range(10):
            a = random_point(m3, s)
            pt = _first_summand(j_m3_q, a)
            assert j_m3_q.norm(pt) == m3.norm(a)
            assert j_m3_q.sharp(pt) == \
                _first_summand(j_m3_q, m3.sharp(a))

    def test_second_summand_scales_by_lambda(self, j_m3_f5, F5):
        m3 = j_m3_f5.meta["algebra"]
        lam = j_m3_f5.meta["lam"]
        z = [F5.zero] * 9
        s = Stream(203)
        for _ in range(10):
            a = random_point(m3, s)
            pt = tuple(z + m3.to_k_coords(a) + z)
            assert j_m3_f5.norm(pt) == lam * m3.norm(a)

    def test_first_summand_u_multiplicativity(self, j_m3_q):
        # U restricted to the embedded algebra is x y x there
        m3 = j_m3_q.meta["algebra"]
        s = Stream(207)
        for _ in range(5):
            a, b = random_point(m3, s), random_point(m3, s)
            pa = _first_summand(j_m3_q, a)
            pb = _first_summand(j_m3_q, b)
            aba = m3.mul(m3.mul(a, b), a)
            assert j_m3_q.u_op(pa, pb) == \
                _first_summand(j_m3_q, aba)

    def test_zero_lambda_rejected(self, QQ):
        with pytest.raises(ZeroLambda):
            tits.first_tits(MatrixAlgebra(GroundCenter(QQ)), QQ.zero)

    def test_k_central_required(self, tower_q):
        m3k = MatrixAlgebra(tower_q.K)
        with pytest.raises(ConfigError):
            tits.first_tits(m3k, Fraction(1))


class TestSecondConstruction:
    def test_dimension_and_unit(self, j_lk_q):
        assert j_lk_q.dim == 9
        assert j_lk_q.norm(j_lk_q.unit) == Fraction(1)

    def test_hermitian_summand_restriction(self, j_lk_q):
        # on hermitian b: N((b,0)) = N_B(b) descended to k
        b_alg = j_lk_q.meta["algebra"]
        her = j_lk_q.meta["her_basis"]
        center = b_alg.center
        s = Stream(211)
        g = j_lk_q.ground
        for _ in range(10):
            coeffs = [random_point(GroundCenter(g), s) for _ in her]
            b = her[0]
            b = b_alg.smul(center.from_k_coords([coeffs[0], g.zero]), her[0])
            for c, h in zip(coeffs[1:], her[1:]):
                b = b_alg.add(b, b_alg.smul(
                    center.from_k_coords([c, g.zero]), h))
            pt = tits.embed_hermitian_summand(j_lk_q, b)
            assert j_lk_q.norm(pt) == center.descend(b_alg.norm(b))

    def test_non_hermitian_u_rejected(self, tower_q):
        b = CommutativeCubic.over_LK(tower_q)
        sigma = UnitaryInvolution(b)
        K = tower_q.K
        i_elem = Elem(K, [Fraction(0), Fraction(1)])
        u = (i_elem, K.zero, K.zero)          # sigma(u) = -u
        with pytest.raises(NotAdmissible):
            tits.second_tits(b, sigma, u, Elem(K, [Fraction(1), Fraction(0)]))

    def test_norm_condition_rejected(self, tower_q):
        b = CommutativeCubic.over_LK(tower_q)
        sigma = UnitaryInvolution(b)
        K = tower_q.K
        mu = Elem(K, [Fraction(2), Fraction(0)])   # N_K(mu) = 4 != N_B(1)
        with pytest.raises(NotAdmissible):
            tits.second_tits(b, sigma, b.unit(), mu)

    def test_zero_mu_rejected(self, tower_q):
        b = CommutativeCubic.over_LK(tower_q)
        sigma = UnitaryInvolution(b)
        with pytest.raises(NotAdmissible, match="mu must be invertible"):
            tits.second_tits(b, sigma, b.unit(), tower_q.K.zero)

    def test_singular_u_rejected(self, tower_q):
        b = CommutativeCubic.over_LK(tower_q)
        sigma = UnitaryInvolution(b)
        K = tower_q.K
        with pytest.raises(NotInvertible):
            tits.second_tits(b, sigma, (K.zero,) * 3, K.one)

    def test_split_k_builds(self):
        # split K = k[s]/(s^2 - 1); mu = 5/4 + 3/4 s has N_K(mu) = 1 = N_B(1)
        split = tower({"kind": "composite", "base": "Q",
                       "f": ["1", "-3", "0", "1"], "rho": ["-2", "0", "1"],
                       "split": True})
        b = CommutativeCubic.over_LK(split)
        sigma = UnitaryInvolution(b)
        mu = Elem(split.K, [Fraction(5, 4), Fraction(3, 4)])
        j = tits.second_tits(b, sigma, b.unit(), mu)
        assert j.dim == 9
        rep = j.axiom_suite()
        assert rep.all_passed, rep

    def test_involution_of_another_algebra_rejected(self, tower_q):
        b = CommutativeCubic.over_LK(tower_q)
        sigma = UnitaryInvolution(CommutativeCubic.over_LK(tower_q))
        with pytest.raises(ConfigError, match="does not act on the given"):
            tits.second_tits(b, sigma, b.unit(), tower_q.K.one)

    def test_twisted_parameters(self, tower_q, j_lk_q):
        # the isotope target data (sigma_v, u v#, N(v) mu) is admissible
        b = j_lk_q.meta["algebra"]
        sigma = j_lk_q.meta["sigma"]
        her = j_lk_q.meta["her_basis"]
        v = b.add(her[0], her[1])
        nv = b.norm(v)
        j2 = tits.second_tits(b, sigma.twisted(v),
                              b.mul(j_lk_q.meta["u"], b.sharp(v)),
                              nv * j_lk_q.meta["mu"])
        assert j2.dim == 9
        rep = j2.axiom_suite()
        assert rep.all_passed, rep


class TestMatrixSecondConstruction:
    def test_m3k_second(self, j_m3k_q):
        # 27-dimensional second construction over M3(K)
        j = j_m3k_q
        assert j.dim == 27
        assert j.norm(j.unit) == Fraction(1)
        pt = tits.embed_hermitian_summand(j, j.meta["u"])
        assert j.norm(pt) == Fraction(2)


def _random_hermitian(j, stream):
    """y + sigma(y) for a random y of the coefficient algebra."""
    b_alg, sigma = j.meta["algebra"], j.meta["sigma"]
    y = random_point(b_alg, stream)
    return b_alg.add(y, sigma.apply(y))


class TestHermitianCoords:
    # LK has a 0/1 hermitian basis; on M3(K) the off-diagonal basis
    # vectors have two nonzero k-coordinates
    @pytest.fixture(params=["j_lk_q", "j_lk_f5", "j_m3k_q"])
    def j(self, request):
        return request.getfixturevalue(request.param)

    def test_basis_vectors_have_unit_coords(self, j):
        sigma = j.meta["sigma"]
        g = j.ground
        her = sigma.hermitian_basis()
        for i, h in enumerate(her):
            assert sigma.hermitian_coords(h) == \
                [g.one if t == i else g.zero for t in range(len(her))]

    def test_coords_rebuild_random_hermitian(self, j):
        b_alg, sigma = j.meta["algebra"], j.meta["sigma"]
        h_mat = linalg.transpose([b_alg.to_k_coords(h)
                                  for h in sigma.hermitian_basis()])
        s = Stream(419)
        for _ in range(10):
            x = _random_hermitian(j, s)
            assert any(b_alg.to_k_coords(x))
            assert linalg.matvec(h_mat, sigma.hermitian_coords(x)) == \
                b_alg.to_k_coords(x)

    def test_embed_hermitian_summand_round_trips(self, j):
        b_alg, sigma = j.meta["algebra"], j.meta["sigma"]
        center = b_alg.center
        g = j.ground
        hd = len(j.meta["her_basis"])
        s = Stream(421)
        for _ in range(5):
            x = _random_hermitian(j, s)
            pt = tits.embed_hermitian_summand(j, x)
            assert all(c == g.zero for c in pt[hd:])
            back = None
            for c, h in zip(pt[:hd], j.meta["her_basis"]):
                term = b_alg.smul(center.from_k_coords([c, g.zero]), h)
                back = term if back is None else b_alg.add(back, term)
            assert back == x
            assert j.norm(pt) == center.descend(b_alg.norm(x))
