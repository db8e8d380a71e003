"""Exact field towers: k, quadratic etale K and cyclic cubic L.

Every extension is stored as structure constants over the ground field
(Q or F_p), with elements as coordinate vectors relative to canonical
bases: {1, s} with s^2 = d for K (split K = k x k is d = 1, with
idempotents (1 +- s)/2) and the power basis {1, a, a^2} for
L = k[x]/(f).  Each extension has one Galois generator, a k-linear
matrix `sigma`: bar on K, rho on L, applied by `conj`.  K is itself the
center of the degree-3 algebras over it (M3(K) and LK in associative):
it reads their entries in k-coordinates, inverts them as bar(x)/N(x)
and conjugates them, and descends a bar-fixed value to k (`descend`,
through _descend, the one coordinate descent).
L's table comes straight from f, and rho's matrix from evaluating the
polynomial rho at a with L's own multiplication.  config.tower builds a
FieldTower from a config's tower node; the composite field L (x) K is a
commutative cubic K-algebra in associative (CommutativeCubic), whose
coefficient triples over K multiply through L's structure table.

The F_p root test of a cubic takes a gcd with x^p - x, so a large prime
costs O(log p) products.
"""

from collections import namedtuple
from math import isqrt, lcm

from . import linalg
from .errors import (ConfigError, DescentFailure, NotGaloisClosure,
                     NotInvertible, NotIrreducible)
from .scalars import RationalField


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


def _fp_cubic_has_root(f, p):
    """Root test for a monic cubic f over F_p: f has a root in F_p iff
    gcd(f, x^p - x) is not 1, as x^p - x is the product of x - a over
    all a in F_p.  x^p mod f is computed by square-and-multiply on
    residues a0 + a1 x + a2 x^2, then Euclid runs on int coefficient
    lists mod p (lowest degree first)."""
    f0, f1, f2 = (int(c) for c in f[:3])

    def mulmod(a, b):
        prod = [0] * 5
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for k in (4, 3):           # x^k = -x^(k-3) (f0 + f1 x + f2 x^2)
            c = prod[k]
            prod[k - 3] -= c * f0
            prod[k - 2] -= c * f1
            prod[k - 1] -= c * f2
        return [c % p for c in prod[:3]]

    xp, base = [1, 0, 0], [0, 1, 0]
    for bit in bin(p)[2:]:
        xp = mulmod(xp, xp)
        if bit == "1":
            xp = mulmod(xp, base)
    xp[1] = (xp[1] - 1) % p
    a, b = [f0 % p, f1 % p, f2 % p, 1], xp
    while b and not b[-1]:
        b.pop()
    while b:                       # a, b = b, a mod b
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) > 1


def cubic_is_irreducible(f, ground):
    """Monic cubic over Q or F_p: reducible iff it has a root."""
    if isinstance(ground, RationalField):
        return not _rational_cubic_has_root(f)
    return not _fp_cubic_has_root(f, ground.p)


def _descend(coords, what):
    """coords[0] when every later coordinate vanishes, the descent of a
    value to the center, or to k; else DescentFailure naming `what`."""
    if any(coords[1:]):
        raise DescentFailure("%s with coordinates %r does not descend"
                             % (what, list(coords)))
    return coords[0]


# ---------------------------------------------------------------------------
# extensions and their elements

class Elem:
    """Element of an Extension: coordinate vector over the ground field.

    Coordinates are usually ground scalars but may be Polys during
    symbolic expansion.  A non-Elem factor on either side scales the
    coordinates; Poly * Elem reaches __rmul__ because Poly returns
    NotImplemented for it.  All operations below are division-free;
    Extension.inv divides, and requires scalar coordinates.
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

    def __repr__(self):
        return "Elem(%s, [%s])" % (self.ext.name,
                                   ", ".join(str(c) for c in self.coords))


class Extension:
    """A commutative k-algebra with basis e_0, ..., e_{dim-1}: table[i][j]
    holds the coordinates of e_i e_j.  sigma is the matrix of its Galois
    generator (bar on K, rho on L); the builder below sets it."""

    def __init__(self, ground, name, dim, mult_table, one_coords):
        self.ground = ground
        self.name = name
        self.dim = dim
        self.table = mult_table
        self.sigma = None
        self.one = Elem(self, one_coords)
        self.zero = Elem(self, [ground.zero] * dim)

    def from_k_coords(self, coords):
        return Elem(self, coords)

    def to_k_coords(self, x):
        return list(x.coords)

    def from_scalar(self, s):
        return Elem(self, [s * c for c in self.one.coords])

    def mul_coords(self, a, b, zero=None):
        """The coordinates of a b.  Coordinates may be ground scalars,
        Polys or, for L (x) K, K elements; a coordinate that no product
        reaches is `zero`, by default the ground zero."""
        dim = self.dim
        out = [None] * dim
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
        if zero is None:
            zero = self.ground.zero
        return [zero if v is None else v for v in out]

    def conj(self, x):
        """x under the Galois generator: bar on K, rho on L."""
        return Elem(self, linalg.matvec(self.sigma, x.coords))

    def descend(self, x):
        """A value fixed by the Galois generator -> ground scalar
        (coordinate check)."""
        return _descend(x.coords, self.name + " value")

    def inv(self, x):
        """x^-1 = bar(x) / N(x) on K, whose norm x bar(x) descends to k."""
        xb = self.conj(x)
        n = self.descend(x * xb)
        if not n:
            raise NotInvertible("element %r is not invertible" % (x,))
        return xb * self.ground.inv(n)

    def __repr__(self):
        return "Extension(%s/%r, dim %d)" % (self.name, self.ground, self.dim)


# ---------------------------------------------------------------------------
# the tower

class FieldTower(namedtuple("FieldTower", "ground K L")):
    """A ground field with the K and L a tower node declares (None for a
    level it does not)."""
    __slots__ = ()


def quadratic_etale(ground, d):
    """K = k[s]/(s^2 - d) with bar: s -> -s, etale for nonzero d away
    from characteristic 2 (where s -> -s is the identity); d = 1 is the
    split K = k x k."""
    g = ground
    if g.char == 2:
        raise ConfigError("quadratic etale K = k[s]/(s^2 - d) is not etale "
                          "in characteristic 2")
    if not d:
        raise ConfigError("quadratic etale parameter d must be nonzero")
    K = Extension(g, "K", 2, [[[g.one, g.zero], [g.zero, g.one]],
                              [[g.zero, g.one], [d, g.zero]]],
                  [g.one, g.zero])
    K.sigma = [[g.one, g.zero], [g.zero, -g.one]]
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
    L.sigma = linalg.transpose(
        [list(L.one.coords), list(r.coords), list((r * r).coords)])
    if L.conj(L.conj(r)) != alpha:
        raise NotGaloisClosure("rho^3 is not the identity on L")
    return L
