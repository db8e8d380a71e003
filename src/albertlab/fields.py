"""Exact field towers: k, quadratic etale K and cyclic cubic L.

Every extension is stored as structure constants over the ground field
(Q or F_p), with elements as coordinate vectors relative to canonical
bases: {1, s} with s^2 = d for K (or the two idempotents for split K)
and the power basis {1, a, a^2} for L = k[x]/(f).  Each extension has
one Galois generator, a k-linear matrix `sigma`: bar on K, rho on L.
L's table comes straight from f, and rho's matrix from evaluating the
polynomial rho at a with L's own multiplication.  config.tower builds a
FieldTower from a config's tower node; the composite field L (x) K is a
commutative cubic K-algebra in associative (CommutativeCubic), whose
coefficient triples over K multiply through L's structure table.

Over Q the integral structure constants (multiplication tables and
Galois matrices) are held as plain ints (scalars.int_constants), so an
element with int coordinates -- a point lifted to ints by an evaluator
check -- multiplies on ints and its products start from None rather
than a Fraction zero.  Elements
built from ground scalars keep Fraction coordinates, and over F_p every
constant stays an F_p scalar.
"""

from math import isqrt, lcm
from typing import NamedTuple, Optional

from . import linalg
from .errors import (ConfigError, NotGaloisClosure, NotInvertible,
                     NotIrreducible)
from .scalars import RationalField, int_constants


def _rational_cubic_has_root(f):
    """Rational root test for a monic cubic with Fraction coefficients.

    With den the lcm of the denominators, y = den x turns f into the monic
    int cubic g(y) = y^3 + b y^2 + c y + e, whose rational roots are ints
    in [-B, B] for the Cauchy bound B.  g is monotone on the int pieces
    cut at the floors of its critical points (-b -+ sqrt(b^2 - 3c)) / 3,
    so one bisection per piece decides it in O(log B) steps."""
    den = lcm(*[c.denominator for c in f])
    b, c, e = int(f[2] * den), int(f[1] * den ** 2), int(f[0] * den ** 3)

    def g(y):
        return ((y + b) * y + c) * y + e

    bound = 1 + max(abs(b), abs(c), abs(e))
    cuts = [-bound - 1, bound]
    disc = b * b - 3 * c
    if disc >= 0:
        s = isqrt(disc)
        cuts[1:1] = [(-b - s - (s * s < disc)) // 3, (-b + s) // 3]
    for lo, hi in zip(cuts, cuts[1:]):
        lo += 1
        sign = 1 if g(hi) >= g(lo) else -1
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * g(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if g(lo) == 0:
            return True
    return False


def cubic_is_irreducible(f, ground):
    """Monic cubic over Q or F_p: reducible iff it has a root."""
    if isinstance(ground, RationalField):
        return not _rational_cubic_has_root(f)
    for x in ground.iter_all():
        acc = ground.zero
        xp = ground.one
        for c in f:
            acc = acc + c * xp
            xp = xp * x
        if not acc:
            return False
    return True


# ---------------------------------------------------------------------------
# extensions and their elements

class Elem:
    """Element of an Extension: coordinate vector over the ground field.

    Coordinates are usually ground scalars but may be Polys during
    symbolic expansion.  A non-Elem factor on either side scales the
    coordinates; Poly * Elem reaches __rmul__ because Poly returns
    NotImplemented for it.  All operations below are division-free
    except inv(), which requires scalar coordinates.
    """

    __slots__ = ("ext", "coords")

    def __init__(self, ext, coords):
        self.ext = ext
        self.coords = tuple(coords)

    def __add__(self, other):
        if isinstance(other, Elem):
            return Elem(self.ext, [a + b for a, b in
                                   zip(self.coords, other.coords)])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Elem):
            return Elem(self.ext, [a - b for a, b in
                                   zip(self.coords, other.coords)])
        return NotImplemented

    def __neg__(self):
        return Elem(self.ext, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, Elem):
            return Elem(self.ext, self.ext.mul_coords(self.coords,
                                                      other.coords))
        return Elem(self.ext, [a * other for a in self.coords])

    def __rmul__(self, other):
        return Elem(self.ext, [other * a for a in self.coords])

    def __eq__(self, other):
        if isinstance(other, Elem):
            return self.ext is other.ext and \
                all(a == b for a, b in zip(self.coords, other.coords))
        if not other:
            return not any(self.coords)
        return self == self.ext.from_scalar(other)

    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def __hash__(self):
        return hash((id(self.ext), self.coords))

    def __repr__(self):
        return "Elem(%s, [%s])" % (self.ext.name,
                                   ", ".join(str(c) for c in self.coords))

    def inv(self):
        ext = self.ext
        cols = [ext.mul_coords(self.coords, ext.basis_coords(j))
                for j in range(ext.dim)]
        m = [[cols[j][i] for j in range(ext.dim)] for i in range(ext.dim)]
        try:
            y = linalg.solve(m, list(ext.one.coords))
        except NotInvertible:
            raise NotInvertible("element %r is not invertible" % (self,))
        return Elem(ext, y)


class Extension:
    """A commutative k-algebra with basis e_0, ..., e_{dim-1}: table[i][j]
    holds the coordinates of e_i e_j.  sigma is the matrix of its Galois
    generator (bar on K, rho on L); the builder below sets it."""

    def __init__(self, ground, name, dim, mult_table, one_coords):
        self.ground = ground
        self.name = name
        self.dim = dim
        self.table = int_constants(mult_table)
        self.sigma = None
        self.one = Elem(self, one_coords)
        self.zero = Elem(self, [ground.zero] * dim)

    def basis_coords(self, j):
        return [self.ground.one if i == j else self.ground.zero
                for i in range(self.dim)]

    def from_k_coords(self, coords):
        return Elem(self, coords)

    def to_k_coords(self, x):
        return list(x.coords)

    def from_scalar(self, s):
        return Elem(self, [s * c for c in self.one.coords])

    def mul_coords(self, a, b, zero=None):
        """The coordinates of a b.  Coordinates may be ground scalars,
        Polys or, for L (x) K, K elements; a coordinate that no product
        reaches is int 0 between int lifts, so that they stay ints, and
        `zero` (by default the ground zero) otherwise."""
        dim = self.dim
        out = [None] * dim
        prod = None
        for i in range(dim):
            ai = a[i]
            if not ai:
                continue
            row = self.table[i]
            for j in range(dim):
                bj = b[j]
                if not bj:
                    continue
                prod = ai * bj
                for m, c in enumerate(row[j]):
                    if c:
                        t = prod * c if c != 1 else prod
                        out[m] = t if out[m] is None else out[m] + t
        if prod is None:                    # a or b is zero
            prod = a[0] * b[0]
        if type(prod) is int:
            zero = 0
        elif zero is None:
            zero = self.ground.zero
        return [zero if v is None else v for v in out]

    def conj(self, x):
        """x under the Galois generator: bar on K, rho on L."""
        return Elem(self, linalg.matvec(self.sigma, x.coords))

    def random(self, stream):
        return Elem(self, [self.ground.random(stream)
                           for _ in range(self.dim)])

    def __repr__(self):
        return "Extension(%s/%r, dim %d)" % (self.name, self.ground, self.dim)


# ---------------------------------------------------------------------------
# the tower

class FieldTower(NamedTuple):
    """A ground field with the K and L a tower node declares (None for a
    level it does not); d is K's parameter, None when K is split."""
    ground: object
    K: Optional[Extension]
    d: object
    L: Optional[Extension]


def quadratic_etale(ground, d):
    """K = k[s]/(s^2 - d) with bar: s -> -s, or the split k x k with the
    swap of its idempotents when d is None."""
    g = ground
    if d is None:
        K = Extension(g, "K", 2, [[[g.one, g.zero], [g.zero, g.zero]],
                                  [[g.zero, g.zero], [g.zero, g.one]]],
                      [g.one, g.one])
        K.sigma = int_constants([[g.zero, g.one], [g.one, g.zero]])
        return K
    if not d:
        raise ConfigError("quadratic etale parameter d must be nonzero")
    K = Extension(g, "K", 2, [[[g.one, g.zero], [g.zero, g.one]],
                              [[g.zero, g.one], [d, g.zero]]],
                  [g.one, g.zero])
    K.sigma = int_constants([[g.one, g.zero], [g.zero, -g.one]])
    return K


def _at(coeffs, x):
    """The polynomial with coefficients `coeffs` (lowest degree first)
    at x, by Horner's rule in x's extension."""
    ext = x.ext
    acc = ext.zero
    for c in reversed(coeffs):
        acc = acc * x + ext.from_scalar(c)
    return acc


def cyclic_cubic(ground, f, rho):
    """L = k[x]/(f) for the monic cubic f (4 ground scalars, lowest degree
    first), with rho the k-automorphism a -> rho(a) for the polynomial
    rho (any list of ground scalars).  rho must carry a to another root
    of f and have order 3."""
    g = ground
    if len(f) != 4 or f[3] != g.one:
        raise ConfigError("f must be a monic cubic (4 coefficients, "
                          "lowest degree first)")
    if not cubic_is_irreducible(f, g):
        raise NotIrreducible("f is reducible over %r" % (g,))
    # a^0 .. a^4 on the power basis: a^3 = -(f0 + f1 a + f2 a^2), a^4 = a a^3
    a3 = [-c for c in f[:3]]
    powers = [[g.one, g.zero, g.zero], [g.zero, g.one, g.zero],
              [g.zero, g.zero, g.one], a3,
              [a3[2] * a3[0], a3[0] + a3[2] * a3[1], a3[1] + a3[2] * a3[2]]]
    L = Extension(g, "L", 3, [[powers[i + j] for j in range(3)]
                              for i in range(3)], powers[0])
    alpha = Elem(L, powers[1])
    r = _at(rho, alpha)
    if _at(f, r):
        raise NotGaloisClosure("f(rho(alpha)) != 0 mod f: rho does not "
                               "permute the roots inside L")
    if r == alpha:
        raise NotGaloisClosure("rho is the identity")
    # the algebra map a -> r has the columns 1, r, r^2
    L.sigma = int_constants(linalg.transpose(
        [list(L.one.coords), list(r.coords), list((r * r).coords)]))
    if L.conj(L.conj(r)) != alpha:
        raise NotGaloisClosure("rho^3 is not the identity on L")
    return L
