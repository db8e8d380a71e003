"""Exact field towers: k, quadratic etale K, cyclic cubic L, composite LK.

Every extension is stored as structure constants over the ground field
(Q or F_p), with elements as coordinate vectors relative to canonical
bases: {1, s} with s^2 = d for K (or the two idempotents for split K),
the power basis {1, a, a^2} for L = k[x]/(f), and the tensor basis
{a^i * w_j} (index 2*i + j) for LK.  Galois actions are k-linear
matrices: bar on K, rho on L, and their K-/L-linear extensions on LK.

Over Q the integral structure constants (multiplication tables, Galois
matrices, the coefficients of f) are held as plain ints
(scalars.int_constants), so an element with int coordinates -- a
point lifted to ints by an evaluator check -- multiplies on ints and
its products start from None rather than a Fraction zero.  Elements
built from ground scalars keep Fraction coordinates, and over F_p every
constant stays an F_p scalar.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import linalg
from .errors import (ConfigError, LevelMismatch, NotGaloisClosure,
                     NotInvertible, NotIrreducible)
from .scalars import PrimeField, RationalField, int_constants


# ---------------------------------------------------------------------------
# univariate polynomial helpers (dense, lowest degree first, ground scalars)

def up_trim(c):
    while c and not c[-1]:
        c = c[:-1]
    return c


def up_mul(a, b, zero):
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return up_trim([zero if v is None else v for v in out])


def up_mod(a, f, zero):
    """a mod f for monic f."""
    a = list(a)
    d = len(f) - 1
    while len(up_trim(a)) > d:
        a = up_trim(a)
        lead = a[-1]
        shift = len(a) - 1 - d
        for i in range(len(f)):
            a[shift + i] = a[shift + i] - lead * f[i]
        a = a[:-1]
    a = up_trim(a)
    return a + [zero] * (d - len(a))


def up_compose_mod(a, b, f, zero, one):
    """a(b(x)) mod f."""
    out = [zero] * (len(f) - 1)
    power = [one]
    for i, c in enumerate(a):
        if i > 0:
            power = up_mod(up_mul(power, b, zero), f, zero)
        if c:
            for j, pv in enumerate(power):
                out[j] = out[j] + c * pv
    return up_mod(out, f, zero)


def _rational_cubic_has_root(f):
    """Rational root test for a monic cubic with Fraction coefficients."""
    from math import gcd
    den = 1
    for c in f:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in f]  # ints[3] = den (monic * den)
    a0, lead = ints[0], ints[-1]
    if a0 == 0:
        return True
    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out
    for p in divisors(a0):
        for q in divisors(lead):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                if sum(c * r ** i for i, c in enumerate(f)) == 0:
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
# descriptors

@dataclass(frozen=True)
class Rationals:
    kind: str = "rationals"


@dataclass(frozen=True)
class PrimeFieldDesc:
    p: int
    kind: str = "prime_field"


@dataclass(frozen=True)
class QuadraticEtale:
    base: object
    d: Optional[object] = None       # base-field scalar literal, or None
    split: bool = False
    kind: str = "quadratic"


@dataclass(frozen=True)
class CyclicCubic:
    base: object
    f: Tuple = ()                    # monic cubic, low degree first, length 4
    rho: Tuple = ()                  # polynomial giving a conjugate root
    kind: str = "cyclic_cubic"


@dataclass(frozen=True)
class Composite:
    L: CyclicCubic
    K: QuadraticEtale
    kind: str = "composite"


def ground_field_of(desc):
    if isinstance(desc, Rationals):
        return RationalField()
    if isinstance(desc, PrimeFieldDesc):
        return PrimeField(desc.p)
    if isinstance(desc, QuadraticEtale):
        return ground_field_of(desc.base)
    if isinstance(desc, CyclicCubic):
        return ground_field_of(desc.base)
    if isinstance(desc, Composite):
        gl = ground_field_of(desc.L)
        gk = ground_field_of(desc.K)
        if gl != gk:
            raise ConfigError("L and K must share the same base field")
        return gl
    raise ConfigError("unknown field descriptor %r" % (desc,))


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
    def __init__(self, ground, name, dim, mult_table, one_coords, autos):
        self.ground = ground
        self.name = name
        self.dim = dim
        # table[i][j] = coord list; autos: name -> dim x dim ground matrix
        self.table = int_constants(mult_table)
        self.autos = {name: int_constants(m) for name, m in autos.items()}
        self.one = Elem(self, one_coords)
        self.zero = Elem(self, [ground.zero] * dim)

    def basis_coords(self, j):
        return [self.ground.one if i == j else self.ground.zero
                for i in range(self.dim)]

    def from_scalar(self, s):
        return Elem(self, [s * c for c in self.one.coords])

    def mul_coords(self, a, b):
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
        # a coordinate no product reached: int 0 between int lifts, so
        # they stay ints, and the ground zero otherwise
        zero = 0 if type(prod) is int else self.ground.zero
        return [zero if v is None else v for v in out]

    def apply(self, auto_name, x):
        if auto_name not in self.autos:
            raise LevelMismatch("automorphism %r is not defined on %s"
                                % (auto_name, self.name))
        return Elem(self, linalg.matvec(self.autos[auto_name], x.coords))

    def random(self, stream):
        return Elem(self, [self.ground.random(stream)
                           for _ in range(self.dim)])

    def __repr__(self):
        return "Extension(%s/%r, dim %d)" % (self.name, self.ground, self.dim)


# ---------------------------------------------------------------------------
# tower construction

def _build_quadratic(ground, desc):
    g = ground
    if desc.split:
        table = [
            [[g.one, g.zero], [g.zero, g.zero]],
            [[g.zero, g.zero], [g.zero, g.one]],
        ]
        bar = [[g.zero, g.one], [g.one, g.zero]]
        return Extension(g, "K", 2, table, [g.one, g.one], {"bar": bar}), None
    d = g.parse(desc.d)
    if not d:
        raise ConfigError("quadratic etale parameter d must be nonzero")
    table = [
        [[g.one, g.zero], [g.zero, g.one]],
        [[g.zero, g.one], [d, g.zero]],
    ]
    bar = [[g.one, g.zero], [g.zero, -g.one]]
    return Extension(g, "K", 2, table, [g.one, g.zero], {"bar": bar}), d


def _parse_upoly(ground, coeffs):
    try:
        return [ground.from_fraction(Fraction(c)) for c in coeffs]
    except (TypeError, ValueError, ZeroDivisionError, NotInvertible):
        raise ConfigError("bad polynomial coefficients %r" % (coeffs,))


def _build_cyclic_cubic(ground, desc):
    g = ground
    f = _parse_upoly(g, desc.f)
    if len(up_trim(f)) != 4 or f[3] != g.one:
        raise ConfigError("f must be a monic cubic (4 coefficients, "
                          "lowest degree first)")
    if not cubic_is_irreducible(f, g):
        raise NotIrreducible("f is reducible over %r" % (g,))
    rho = _parse_upoly(g, desc.rho)
    if len(rho) > 3:
        rho = up_mod(rho, f, g.zero)
    rho = list(rho) + [g.zero] * (3 - len(rho))
    # f(rho(alpha)) must vanish mod f, and rho must be a nontrivial
    # order-3 permutation of the roots
    frho = up_compose_mod(f, rho, f, g.zero, g.one)
    if any(frho):
        raise NotGaloisClosure("f(rho(alpha)) != 0 mod f: rho does not "
                               "permute the roots inside L")
    x_poly = [g.zero, g.one, g.zero]
    if rho == x_poly:
        raise NotGaloisClosure("rho is the identity")
    r2 = up_compose_mod(rho, rho, f, g.zero, g.one)
    r3 = up_compose_mod(r2, rho, f, g.zero, g.one)
    r3 = list(r3) + [g.zero] * (3 - len(r3))
    if r3 != x_poly:
        raise NotGaloisClosure("rho^3 is not the identity on L")
    # multiplication table of the power basis
    table = []
    for i in range(3):
        row = []
        for j in range(3):
            prod = [g.zero] * (i + j) + [g.one]
            row.append(up_mod(prod, f, g.zero))
        table.append(row)
    # rho matrix: column j = coords of rho(alpha)^j
    cols = []
    power = [g.one, g.zero, g.zero]
    for j in range(3):
        if j:
            power = up_mod(up_mul(power, rho, g.zero), f, g.zero)
            power = list(power) + [g.zero] * (3 - len(power))
        cols.append(list(power))
    rho_mat = [[cols[j][i] for j in range(3)] for i in range(3)]
    ext = Extension(g, "L", 3, table, [g.one, g.zero, g.zero],
                    {"rho": rho_mat})
    ext.f = int_constants(f)
    ext.rho_poly = rho
    return ext


def _build_composite(ground, L, K):
    g = ground
    dim = 6

    def idx(i, j):
        return 2 * i + j

    table = [[None] * dim for _ in range(dim)]
    for i in range(3):
        for ip in range(3):
            lcoords = L.table[i][ip]
            for j in range(2):
                for jp in range(2):
                    kcoords = K.table[j][jp]
                    out = [g.zero] * dim
                    for m in range(3):
                        if not lcoords[m]:
                            continue
                        for c in range(2):
                            if kcoords[c]:
                                out[idx(m, c)] = lcoords[m] * kcoords[c]
                    table[idx(i, j)][idx(ip, jp)] = out
    one = [g.zero] * dim
    one[0] = g.one
    rho_l = L.autos["rho"]
    bar_k = K.autos["bar"]
    rho_mat = [[g.zero] * dim for _ in range(dim)]
    star_mat = [[g.zero] * dim for _ in range(dim)]
    for m in range(3):
        for j in range(3):
            for c in range(2):
                rho_mat[idx(m, c)][idx(j, c)] = rho_l[m][j]
    for m in range(3):
        for c in range(2):
            for cp in range(2):
                star_mat[idx(m, c)][idx(m, cp)] = bar_k[c][cp]
    autos = {"rho": rho_mat, "star": star_mat, "bar": star_mat}
    ext = Extension(g, "LK", dim, table, one, autos)
    return ext


class FieldTower:
    """A base field plus whichever of K, L, LK the descriptor declares."""

    def __init__(self, desc):
        self.desc = desc
        self.ground = ground_field_of(desc)
        self.K = None
        self.L = None
        self.LK = None
        self.d = None
        if isinstance(desc, QuadraticEtale):
            self.K, self.d = _build_quadratic(self.ground, desc)
        elif isinstance(desc, CyclicCubic):
            self.L = _build_cyclic_cubic(self.ground, desc)
        elif isinstance(desc, Composite):
            self.K, self.d = _build_quadratic(self.ground, desc.K)
            self.L = _build_cyclic_cubic(self.ground, desc.L)
            self.LK = _build_composite(self.ground, self.L, self.K)


def tower_build(desc) -> FieldTower:
    return FieldTower(desc)
