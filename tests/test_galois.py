"""Extending the cubic Galois generator to the 9-dimensional structure."""

import json
import os
from fractions import Fraction

import pytest

from albertlab import linalg, tits
from albertlab.associative import CommutativeCubic, UnitaryInvolution
from albertlab.config import BuildContext
from albertlab.errors import ConfigError
from albertlab.fields import Elem
from albertlab.galois import NormConditionFailed, extend_rho, fixed_subspace
from albertlab.isotopy import LinearMap

from .conftest import Stream, random_point

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _in_span(basis, v):
    """Rank-based membership, independent of the map that fixes basis."""
    if not basis:
        return not any(v)
    return linalg.rank(basis) == linalg.rank(basis + [list(v)])


class TestExtendRho:
    def test_certified_over_q(self, j_lk_q):
        f = extend_rho(j_lk_q)
        assert f.certificate["multiplier"] == "1"
        assert f.certificate["unit_check"] == "base point preserved"

    def test_certified_over_f5(self, j_lk_f5):
        f = extend_rho(j_lk_f5)
        assert f.certificate["multiplier"] == "1"

    def test_order_three(self, j_lk_q):
        f = extend_rho(j_lk_q)
        m = f.matrix
        g = j_lk_q.ground
        ident = linalg.identity(9, g.one, g.zero)
        assert not linalg.mat_equal(m, ident)
        m3 = linalg.matmul(linalg.matmul(m, m), m)
        assert linalg.mat_equal(m3, ident)

    def test_restriction_to_hermitian_summand_is_rho(self, j_lk_q):
        # on (l, 0) the extension acts exactly as rho on L
        b = j_lk_q.meta["algebra"]
        f = extend_rho(j_lk_q)
        for h in j_lk_q.meta["her_basis"]:
            pt = tits.embed_hermitian_summand(j_lk_q, h)
            want = tits.embed_hermitian_summand(j_lk_q, b.rho(h))
            assert f.apply(pt) == want

    def test_second_summand_acts_componentwise(self, j_lk_q):
        b = j_lk_q.meta["algebra"]
        g = j_lk_q.ground
        f = extend_rho(j_lk_q)
        s = Stream(401)
        for _ in range(5):
            x = random_point(b, s)
            pt = tuple([g.zero] * 3 + b.to_k_coords(x))
            want = tuple([g.zero] * 3 + b.to_k_coords(b.rho(x)))
            assert f.apply(pt) == want

    def test_preserves_norm_pointwise(self, j_lk_f5):
        f = extend_rho(j_lk_f5)
        s = Stream(403)
        for _ in range(20):
            x = random_point(j_lk_f5, s)
            assert j_lk_f5.norm(f.apply(x)) == j_lk_f5.norm(x)

    def test_norm_condition_enforced(self, tower_q):
        # mu with N_K(mu) != 1 admits no componentwise extension
        b = CommutativeCubic.over_LK(tower_q)
        sigma = UnitaryInvolution(b)
        K = tower_q.K
        u = b.smul(Elem(K, [Fraction(2), Fraction(0)]), b.unit())
        mu = Elem(K, [Fraction(2), Fraction(2)])   # N_K = 4 + 4 = 8 = N(u)
        j = tits.second_tits(b, sigma, u, mu)
        with pytest.raises(NormConditionFailed):
            extend_rho(j)

    def test_first_construction_rejected(self, j_m3_f5):
        with pytest.raises(ConfigError):
            extend_rho(j_m3_f5)


class TestFixedSubspace:
    def test_dimension_and_closure(self, j_lk_q, j_lk_f5):
        for j in (j_lk_q, j_lk_f5):
            f = extend_rho(j)
            basis, closure = fixed_subspace(f, j)
            assert len(basis) == 3
            assert closure == {
                "contains_unit": True,
                "closed_under_sharp": True,
                "closed_under_cross": True,
                "closed_under_u": True,
            }

    def test_fixed_vectors_are_fixed(self, j_lk_q):
        f = extend_rho(j_lk_q)
        basis, _ = fixed_subspace(f, j_lk_q)
        for b in basis:
            assert f.apply(b) == tuple(b)

    @pytest.mark.parametrize("name", ["lk_q_second", "lk_f5_second"])
    # (S, closure values): the unit is e_0, so {0} spans the subalgebra
    # k 1, {0, 1} and {0, 6} hold the unit but are not closed, and
    # {1, 2, 3} misses even the unit
    @pytest.mark.parametrize("ones, want", [
        ({0}, [True] * 4), ({0, 1}, [True] + [False] * 3),
        ({0, 6}, [True] + [False] * 3), ({1, 2, 3}, [False] * 4)])
    def test_closure_matches_rank_reference(self, name, ones, want):
        # the diagonal map with 1 on `ones` and 2 elsewhere fixes the span
        # of those unit vectors, which need not be a subalgebra
        with open(os.path.join(CONFIGS, name + ".json")) as fh:
            j = BuildContext(json.load(fh)).j
        g = j.ground
        two = g.one + g.one
        diag = [[(g.one if i in ones else two) if i == k else g.zero
                 for k in range(j.dim)] for i in range(j.dim)]
        basis, closure = fixed_subspace(LinearMap(j, j, diag), j)
        assert len(basis) == len(ones)
        assert closure == {
            "contains_unit": _in_span(basis, j.unit),
            "closed_under_sharp": all(_in_span(basis, j.sharp(b))
                                      for b in basis),
            "closed_under_cross": all(
                _in_span(basis, j.cross(a, b))
                for i, a in enumerate(basis) for b in basis[i:]),
            "closed_under_u": all(_in_span(basis, j.u_op(a, b))
                                  for a in basis for b in basis),
        }
        assert list(closure.values()) == want
