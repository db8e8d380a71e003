"""Shared fixtures: field towers and the standard structure zoo, the
test-local composition of forms (compose), the composed route of the
gradient identity T(x#, y) = d_y N(x) (trace_adjoint_difference), and
the test data drawn from the random stream of docs/schema.md: the
reference draw, the sequential Stream over it, and the points drawn
from a Stream (random_point, random_invertible).

Everything expensive is session-scoped; symbolic expansions are cached
on the structures themselves, so the acceptance suite reuses the work.
"""

from fractions import Fraction

import pytest

from albertlab.scalars import PrimeField, RationalField
from albertlab.config import tower
from albertlab.fields import Elem
from albertlab.associative import (CommutativeCubic, CyclicAlgebra,
                                   GroundCenter, MatrixAlgebra,
                                   UnitaryInvolution)
from albertlab import tits, isotopy
from albertlab.poly import Poly, _mod, indices, mono
from albertlab.rng import GOLDEN, MASK64, derive, splitmix64

F_COEFFS = ["1", "-3", "0", "1"]      # x^3 - 3x + 1, cyclic over Q, F5, F7
RHO_COEFFS = ["-2", "0", "1"]         # alpha -> alpha^2 - 2


def draw(seed, index):
    """The index-th 64-bit value of the stream with the given seed, one
    draw at a time: the reference of rng.draws."""
    return splitmix64((seed + (index + 1) * GOLDEN) & MASK64)


class Stream:
    """Sequential view over the counter-based stream: draw `index` of
    `seed`, then the next."""

    def __init__(self, seed, offset=0):
        self.seed = seed & MASK64
        self.index = offset

    def next_u64(self):
        v = draw(self.seed, self.index)
        self.index += 1
        return v

    def next_below(self, n):
        return self.next_u64() % n

    def derive(self, label):
        return Stream(derive(self.seed, label))


def random_point(space, stream):
    """An element of space read off the next draws of stream: one ground
    coordinate draw_range[u mod n] per draw u, n the size of draw_range
    (docs/schema.md, "Random stream"), for each k-coordinate.  space is a
    cubic norm structure (a point of k^dim), or an algebra (k_dim
    coordinates), a center or an extension field (dim coordinates), whose
    coordinates are read through its from_k_coords; GroundCenter(k)
    draws one scalar of k."""
    g = space.ground
    r = g.draw_range
    k = space.k_dim if hasattr(space, "k_dim") else space.dim
    coords = [g.from_int(r[stream.next_below(r.stop - r.start)])
              for _ in range(k)]
    if hasattr(space, "from_k_coords"):
        return space.from_k_coords(coords)
    return tuple(coords)


def random_invertible(j, stream):
    """The first point that random_point draws from stream with N != 0."""
    while True:
        x = random_point(j, stream)
        if j.norm(x):
            return x


def compose(p, args):
    """p with the Polys args[i] substituted for x_i, term by term: the sum
    of c args[i] ... args[j] over the terms c x_i ... x_j of p, each
    product formed by Poly multiplication.  The reference for every
    composition of forms in the tests; it shares no code with the
    library's substitution kernels (poly.pullback, poly.compose_mismatch)
    and is itself checked against sympy (test_sympy_oracle)."""
    out = {}
    for m, c in p.terms.items():
        term = Poly({0: c})
        for i in indices(m):
            term = term * args[i]
        for mm, v in term.terms.items():
            out[mm] = out[mm] + v if mm in out else v
    return Poly({m: c for m, c in out.items() if c})


def directional_derivative(p, nvars):
    """d/dt p(x + t y) at t = 0, as a Poly in x (variables 0..nvars - 1)
    and y (variables nvars..2 nvars - 1)."""
    out = {}
    shift = 8 * nvars
    for m, c in p.terms.items():
        for i in indices(m):
            x_i = 1 << (8 * i + 8)
            mm = m - x_i + (x_i << shift)
            out[mm] = out[mm] + c if mm in out else c
    return Poly({m: c for m, c in out.items() if c})


def sum_of_products(pairs):
    """sum a * b over the Poly pairs (a, b), accumulated in one dict."""
    out = {}
    for a, b in pairs:
        for m, c in (a * b).terms.items():
            out[m] = out[m] + c if m in out else c
    return Poly({m: c for m, c in out.items() if c})


def trace_adjoint_difference(j):
    """T(x#, y) - d_y N(x) as one form in x and y, the reference of the
    library's check one coordinate of y at a time (_trace_adjoint_ok): on
    j's int forms, sum_m x#_m (sum_n T_mn y_n), with y in variables
    dim..2 dim - 1, minus the directional derivative of N over the same
    denominator, read in the characteristic; 0 when the identity holds."""
    cols, t_den, _ = j._u_data
    sh_i, s_den = j.sharp_int
    n_i, n_den = j.n_int
    lhs = sum_of_products(
        (p, Poly({mono((j.dim + n,)): col[m]
                  for n, col in enumerate(cols) if col[m]}))
        for m, p in enumerate(sh_i))
    return _mod(n_den * lhs - s_den * t_den * directional_derivative(
        n_i, j.dim), j.ground.char)


@pytest.fixture(scope="session")
def trace_pair():
    """T(x, y) = T(x) T(y) - (S(x + y) - S(x) - S(y)), from a structure's
    trace and spur alone."""
    def pair(j, x, y):
        xy = tuple(a + b for a, b in zip(x, y))
        return j.trace(x) * j.trace(y) - (j.spur(xy) - j.spur(x) - j.spur(y))
    return pair


@pytest.fixture(scope="session")
def QQ():
    return RationalField()


@pytest.fixture(scope="session")
def F5():
    return PrimeField(5)


@pytest.fixture(scope="session")
def F7():
    return PrimeField(7)


def _composite(base, d):
    return tower({"kind": "composite", "base": base, "f": F_COEFFS,
                  "rho": RHO_COEFFS, "d": d})


@pytest.fixture(scope="session")
def tower_q():
    return _composite("Q", "-1")


@pytest.fixture(scope="session")
def tower_f5():
    return _composite({"p": 5}, "2")


@pytest.fixture(scope="session")
def tower_f7():
    return _composite({"p": 7}, "3")


@pytest.fixture(scope="session")
def tower_l_q():
    return tower({"kind": "cubic", "base": "Q", "f": F_COEFFS,
                  "rho": RHO_COEFFS})


# -- the six acceptance fixtures plus friends --------------------------------

@pytest.fixture(scope="session")
def j_m3_f5(F5):
    return tits.first_tits(MatrixAlgebra(GroundCenter(F5)), F5.from_int(2))


@pytest.fixture(scope="session")
def j_m3_q(QQ):
    return tits.first_tits(MatrixAlgebra(GroundCenter(QQ)), QQ.one)


@pytest.fixture(scope="session")
def j_cyc_q(QQ, tower_l_q):
    d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
    return tits.first_tits(d, QQ.from_int(3))


def _lk_second(tower, mu_coords):
    b = CommutativeCubic.over_LK(tower)
    sigma = UnitaryInvolution(b)
    mu = Elem(tower.K, list(mu_coords))
    return tits.second_tits(b, sigma, b.unit(), mu)


@pytest.fixture(scope="session")
def j_lk_q(tower_q):
    # nu = (3 + 4i)/5, N_K(nu) = 1
    return _lk_second(tower_q, [Fraction(3, 5), Fraction(4, 5)])


@pytest.fixture(scope="session")
def j_lk_f5(F5, tower_f5):
    # nu = 2 + 2*sqrt(2): N = 4 - 2*4 = 1 mod 5
    return _lk_second(tower_f5, [F5.from_int(2), F5.from_int(2)])


@pytest.fixture(scope="session")
def j_lk_f7(F7, tower_f7):
    # nu = 2 + sqrt(3): N = 4 - 3 = 1 mod 7
    return _lk_second(tower_f7, [F7.from_int(2), F7.from_int(1)])


@pytest.fixture(scope="session")
def j_m3k_q(tower_q):
    # the 27-dimensional J(M3(K), sigma, u, mu): N(u) = 2 = N_K(1 + i)
    m3 = MatrixAlgebra(tower_q.K)
    K = tower_q.K
    z = K.zero
    two = Elem(K, [Fraction(2), Fraction(0)])
    u = (K.one, z, z, z, K.one, z, z, z, two)
    mu = Elem(K, [Fraction(1), Fraction(1)])
    return tits.second_tits(m3, UnitaryInvolution(m3), u, mu)


@pytest.fixture(scope="session")
def j_m3_f7(F7):
    return tits.first_tits(MatrixAlgebra(GroundCenter(F7)), F7.from_int(3))


@pytest.fixture(scope="session")
def iso_m3_f5(F5, j_m3_f5):
    v = list(j_m3_f5.unit)
    v[1] = F5.one                      # unit + e_{12} in the first summand
    return isotopy.isotope(j_m3_f5, tuple(v))


@pytest.fixture(scope="session")
def iso_lk_q(j_lk_q):
    b = j_lk_q.meta["algebra"]
    her = j_lk_q.meta["her_basis"]
    v = b.add(her[0], her[1])          # 1 + alpha, invertible in L
    return isotopy.isotope(j_lk_q, tits.embed_hermitian_summand(j_lk_q, v))


@pytest.fixture(scope="session")
def six_fixtures(j_m3_f5, j_m3_q, j_cyc_q, j_lk_q, j_lk_f5, iso_m3_f5,
                 iso_lk_q):
    return [j_m3_f5, j_m3_q, j_cyc_q, j_lk_q, j_lk_f5, iso_m3_f5, iso_lk_q]


@pytest.fixture(scope="session")
def finite_fixtures(j_m3_f5, j_lk_f5, j_m3_f7, j_lk_f7, iso_m3_f5):
    return [j_m3_f5, j_lk_f5, j_m3_f7, j_lk_f7, iso_m3_f5]
