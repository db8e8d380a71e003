"""Degree-3 associative algebras with reduced norm, trace and adjoint.

Three kinds, all exposing the same coordinate-level interface over the
ground field k:

* MatrixAlgebra  -- 3x3 matrices over k or over a quadratic etale K,
* CyclicAlgebra  -- (L/k, rho, a) with L cyclic cubic, presented on the
                    basis {1, e, e^2} with e*l = rho(l)*e and e^3 = a,
* CommutativeCubic -- a cubic etale algebra (L over k, or LK over K)
                    viewed as a commutative "degree 3 algebra".

Every operation is division-free in the element coordinates, so the
same code paths run with polynomial indeterminates during symbolic
expansion, and on int coordinates when a point over Q is lifted to ints:
the integral constants (the cyclic parameter a, the coefficients of f,
the rho matrices, with rho^2 cached as one matrix) are held as plain
ints, and sums start from None instead of a Fraction zero, so int
coordinates stay ints through every product.  Over F_p the constants
stay F_p scalars.  The reduced norm of the cyclic algebra is *defined*
as the determinant of the splitting embedding.  The closed trace, spur
and adjoint formulas are validated against N(t 1 - x), read off by
interpolation, in tests/test_associative.py.  Each algebra also expands
its reduced norm once into int forms in the k-coordinates (norm_int),
which the witness search evaluates at every candidate.
"""

from . import linalg
from .cubic import _int_scaled
from .errors import (DescentFailure, NotInvertible, NotSecondKind,
                     TwistNotHermitian, VerificationFailure)
from .fields import Elem, up_mod, up_mul
from .poly import variables
from .scalars import int_constants


def _is_zero(c):
    return not c


# ---------------------------------------------------------------------------
# center adapters

class GroundCenter:
    """Center = the ground field itself; elements are bare scalars."""

    dim = 1
    is_quadratic = False

    def __init__(self, ground):
        self.ground = ground
        self.one = ground.one
        self.zero = ground.zero

    def from_k_coords(self, coords):
        return coords[0]

    def to_k_coords(self, x):
        return [x]

    def bar(self, x):
        raise NotSecondKind("center is the ground field; no conjugation")

    def descend(self, x):
        return x

    def random(self, stream):
        return self.ground.random(stream)


class QuadraticCenter:
    """Center = quadratic etale K; elements are K Elems."""

    dim = 2
    is_quadratic = True

    def __init__(self, tower):
        if tower.K is None:
            raise NotSecondKind("tower has no quadratic level K")
        self.tower = tower
        self.K = tower.K
        self.ground = tower.ground
        self.one = self.K.one
        self.zero = self.K.zero

    def from_k_coords(self, coords):
        return Elem(self.K, coords)

    def to_k_coords(self, x):
        return list(x.coords)

    def bar(self, x):
        return self.K.apply("bar", x)

    def descend(self, x):
        """K element fixed by bar -> ground scalar (coordinate check)."""
        if not _is_zero(x.coords[1]):
            raise DescentFailure("value %r does not descend to k" % (x,))
        return x.coords[0]

    def random(self, stream):
        return self.K.random(stream)


# ---------------------------------------------------------------------------
# the reduced norm as int forms

class _IntNorm:
    """The reduced norm expanded once, for the algebras below."""

    _norm_int = None

    def norm_int(self):
        """(forms, den): an element with k-coordinates x has reduced norm
        with center coordinates forms[i](x) / den, for the int cubic forms
        of cubic._int_scaled (one form over a ground center, two over a
        quadratic one).  The forms are homogeneous, so at x = xi / d the
        norm is forms[i](xi) / (den d^3)."""
        if self._norm_int is None:
            c = self.center
            n = self.norm(self.from_k_coords(
                variables(self.k_dim, c.ground.one)))
            polys = c.to_k_coords(n)
            if not all(p.is_homogeneous(3) for p in polys):
                raise VerificationFailure(
                    "reduced norm of %r is not a homogeneous cubic"
                    % (self,))
            self._norm_int = _int_scaled(polys)
        return self._norm_int


# ---------------------------------------------------------------------------
# matrix algebra M3(center)

class MatrixAlgebra(_IntNorm):
    """3x3 matrices, elements as row-major 9-tuples of center elements."""

    kind = "matrix3"

    def __init__(self, center):
        self.center = center
        self.k_dim = 9 * center.dim

    def unit(self):
        o, z = self.center.one, self.center.zero
        return (o, z, z, z, o, z, z, z, o)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def smul(self, s, a):
        return tuple(s * x for x in a)

    def mul(self, a, b):
        out = []
        for i in range(3):
            for j in range(3):
                acc = a[3 * i] * b[j]
                acc = acc + a[3 * i + 1] * b[3 + j]
                acc = acc + a[3 * i + 2] * b[6 + j]
                out.append(acc)
        return tuple(out)

    def trace(self, a):
        return a[0] + a[4] + a[8]

    def spur(self, a):
        """Second characteristic coefficient: sum of principal 2x2 minors."""
        return (a[4] * a[8] - a[5] * a[7]) + (a[0] * a[8] - a[2] * a[6]) \
            + (a[0] * a[4] - a[1] * a[3])

    def norm(self, a):
        return (a[0] * (a[4] * a[8] - a[5] * a[7])
                - a[1] * (a[3] * a[8] - a[5] * a[6])
                + a[2] * (a[3] * a[7] - a[4] * a[6]))

    def sharp(self, a):
        """Adjugate; satisfies a * a# = norm(a) * 1."""
        return (
            a[4] * a[8] - a[5] * a[7],
            a[2] * a[7] - a[1] * a[8],
            a[1] * a[5] - a[2] * a[4],
            a[5] * a[6] - a[3] * a[8],
            a[0] * a[8] - a[2] * a[6],
            a[2] * a[3] - a[0] * a[5],
            a[3] * a[7] - a[4] * a[6],
            a[1] * a[6] - a[0] * a[7],
            a[0] * a[4] - a[1] * a[3],
        )

    def inv(self, a):
        n = self.norm(a)
        if isinstance(n, Elem):
            ninv = n.inv()
        else:
            if not n:
                raise NotInvertible("matrix is singular")
            ninv = self.center.ground.inv(n)
        return self.smul(ninv, self.sharp(a))

    def conj_transpose(self, a):
        c = self.center
        return tuple(c.bar(a[3 * j + i]) for i in range(3) for j in range(3))

    def to_k_coords(self, a):
        out = []
        for e in a:
            out.extend(self.center.to_k_coords(e))
        return out

    def from_k_coords(self, coords):
        d = self.center.dim
        return tuple(self.center.from_k_coords(list(coords[d * i:d * i + d]))
                     for i in range(9))

    def random(self, stream):
        return tuple(self.center.random(stream) for _ in range(9))

    def __repr__(self):
        return "M3(center dim %d over %r)" % (self.center.dim,
                                              self.center.ground)


# ---------------------------------------------------------------------------
# cyclic algebra (L/k, rho, a)

class CyclicAlgebra(_IntNorm):
    """(L/k, rho, a): x = x0 + x1 e + x2 e^2 with x_i in L, e l = rho(l) e,
    e^3 = a in k*.  Elements are 3-tuples of L Elems."""

    kind = "cyclic"

    def __init__(self, tower, a):
        if tower.L is None:
            raise DescentFailure("cyclic algebra needs a cyclic cubic L")
        self.tower = tower
        self.L = tower.L
        self.ground = tower.ground
        if not a:
            raise NotInvertible("cyclic algebra parameter a must be nonzero")
        self.a = int_constants(a)
        self.center = GroundCenter(self.ground)
        self.k_dim = 9
        self._one = Elem(self.L, int_constants(self.L.one.coords))
        rho = self.L.autos["rho"]
        rho2 = [[sum(a * b for a, b in zip(row, col)) for col in zip(*rho)]
                for row in rho]
        self._rho_powers = (None, rho, int_constants(rho2))

    def _rho(self, x, times):
        times %= 3
        if not times:
            return x
        return Elem(self.L, linalg.matvec(self._rho_powers[times], x.coords))

    def unit(self):
        return (self.L.one, self.L.zero, self.L.zero)

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def sub(self, x, y):
        return tuple(p - q for p, q in zip(x, y))

    def smul(self, s, x):
        return tuple(p * s for p in x)

    def mul(self, x, y):
        z = [None, None, None]
        for i in range(3):
            if not x[i]:
                continue
            for j in range(3):
                if not y[j]:
                    continue
                s = i + j
                term = x[i] * self._rho(y[j], i)
                if s >= 3:
                    term = term * self.a
                r = s % 3
                z[r] = term if z[r] is None else z[r] + term
        return tuple(self.L.zero if v is None else v for v in z)

    def splitting_embed(self, x):
        """Left-multiplication matrix on the right L-module with basis
        {1, e, e^2}; an injective algebra homomorphism into M3(L)."""
        m = [[None] * 3 for _ in range(3)]
        for j in range(3):
            for i in range(3):
                if not x[i]:
                    continue
                s = i + j
                r = s % 3
                entry = self._rho(x[i], (3 - r) % 3)
                if s >= 3:
                    entry = entry * self.a
                m[r][j] = entry if m[r][j] is None else m[r][j] + entry
        return [[self.L.zero if v is None else v for v in row] for row in m]

    def _descend(self, l_elem):
        if any(not _is_zero(c) for c in l_elem.coords[1:]):
            raise DescentFailure(
                "cyclic-algebra invariant %r did not descend to k" % (l_elem,))
        return l_elem.coords[0]

    def trace(self, x):
        t = x[0] + self._rho(x[0], 1) + self._rho(x[0], 2)
        return self._descend(t)

    def norm(self, x):
        m = self.splitting_embed(x)
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        return self._descend(det)

    def spur(self, x):
        m = self.splitting_embed(x)
        s = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) \
            + (m[0][0] * m[2][2] - m[0][2] * m[2][0]) \
            + (m[0][0] * m[1][1] - m[0][1] * m[1][0])
        return self._descend(s)

    def sharp(self, x):
        t = self.trace(x)
        s = self.spur(x)
        xx = self.mul(x, x)
        return (xx[0] - x[0] * t + self._one * s, xx[1] - x[1] * t,
                xx[2] - x[2] * t)

    def inv(self, x):
        n = self.norm(x)
        if not n:
            raise NotInvertible("cyclic algebra element has norm 0")
        return self.smul(self.ground.inv(n), self.sharp(x))

    def to_k_coords(self, x):
        out = []
        for p in x:
            out.extend(p.coords)
        return out

    def from_k_coords(self, coords):
        return tuple(Elem(self.L, list(coords[3 * i:3 * i + 3]))
                     for i in range(3))

    def random(self, stream):
        return tuple(self.L.random(stream) for _ in range(3))

    def __repr__(self):
        return "Cyclic(L/%r, a=%s)" % (self.ground, self.a)


# ---------------------------------------------------------------------------
# commutative cubic etale algebra (L over k, LK over K)

class CommutativeCubic(_IntNorm):
    """Cubic etale algebra C[x]/(f) over center C with Galois generator rho.

    Elements are coefficient triples over the center.  Used both as a
    9-dimensional first-construction input (L over k) and as the "B" of
    the LK-based second Tits process (LK over K, with star = bar on
    coefficients as the involution of the second kind).
    """

    kind = "commutative_cubic"

    def __init__(self, center, f_coeffs, rho_matrix):
        self.center = center
        self.ground = center.ground
        self.f = f_coeffs                 # 4 center elements, monic
        self.rho_matrix = rho_matrix      # 3x3 over k (acts on coeff triples)
        self.k_dim = 3 * center.dim

    @staticmethod
    def over_L(tower):
        """L as a commutative cubic k-algebra."""
        g = tower.ground
        center = GroundCenter(g)
        return CommutativeCubic(center, list(tower.L.f),
                                tower.L.autos["rho"])

    @staticmethod
    def over_LK(tower):
        """LK as a commutative cubic K-algebra (the second-process B)."""
        center = QuadraticCenter(tower)
        f = [center.from_k_coords(int_constants([c, tower.ground.zero]))
             for c in tower.L.f]
        return CommutativeCubic(center, f, tower.L.autos["rho"])

    def unit(self):
        return (self.center.one, self.center.zero, self.center.zero)

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def sub(self, x, y):
        return tuple(p - q for p, q in zip(x, y))

    def smul(self, s, x):
        return tuple(s * p for p in x)

    def mul(self, x, y):
        prod = up_mul(list(x), list(y), self.center.zero)
        out = up_mod(prod, self.f, self.center.zero)
        out = list(out) + [self.center.zero] * (3 - len(out))
        return tuple(out[:3])

    def rho(self, x):
        r = self.rho_matrix
        return tuple(
            r[i][0] * x[0] + r[i][1] * x[1] + r[i][2] * x[2]
            for i in range(3))

    def star(self, x):
        """The nontrivial center-semilinear involution fixing L (LK only)."""
        return tuple(self.center.bar(c) for c in x)

    def _descend_to_center(self, x):
        if any(bool(c) for c in x[1:]):
            raise DescentFailure("conjugate-symmetric value %r is not in "
                                 "the center" % (x,))
        return x[0]

    def trace(self, x):
        r = self.rho(x)
        r2 = self.rho(r)
        return self._descend_to_center(self.add(self.add(x, r), r2))

    def sharp(self, x):
        r = self.rho(x)
        r2 = self.rho(r)
        return self.mul(r, r2)

    def norm(self, x):
        return self._descend_to_center(self.mul(x, self.sharp(x)))

    def spur(self, x):
        return self._descend_to_center(
            self.add(self.mul(x, self.rho(x)),
                     self.add(self.mul(self.rho(x), self.rho(self.rho(x))),
                              self.mul(self.rho(self.rho(x)), x))))

    def inv(self, x):
        n = self.norm(x)
        if isinstance(n, Elem):
            ninv = n.inv()
        else:
            if not n:
                raise NotInvertible("element has norm 0")
            ninv = self.ground.inv(n)
        return self.smul(ninv, self.sharp(x))

    def to_k_coords(self, x):
        out = []
        for c in x:
            out.extend(self.center.to_k_coords(c))
        return out

    def from_k_coords(self, coords):
        d = self.center.dim
        return tuple(self.center.from_k_coords(list(coords[d * i:d * i + d]))
                     for i in range(3))

    def random(self, stream):
        return tuple(self.center.random(stream) for _ in range(3))

    def __repr__(self):
        return "CommutativeCubic(center dim %d over %r)" \
            % (self.center.dim, self.ground)


# ---------------------------------------------------------------------------
# unitary involutions of the second kind

class UnitaryInvolution:
    """sigma = Int(twist) o sigma0 where sigma0 is conjugate-transpose
    (matrix algebras) or star (commutative LK).  twist=None means sigma0."""

    def __init__(self, algebra, twist=None, _validate=True):
        if not algebra.center.is_quadratic:
            raise NotSecondKind("involutions of the second kind require a "
                                "quadratic etale center")
        self.algebra = algebra
        self.twist = twist
        self._twist_inv = None
        if twist is not None:
            base = self.base_apply(twist)
            if any(p - q for p, q in zip(base, twist)):
                raise TwistNotHermitian("twist u must satisfy sigma(u) = u")
            self._twist_inv = algebra.inv(twist)  # raises NotInvertible
        self._matrix = None
        self._herm = self._free = None
        if _validate:
            self._check_involution()

    def base_apply(self, x):
        alg = self.algebra
        if isinstance(alg, MatrixAlgebra):
            return alg.conj_transpose(x)
        if isinstance(alg, CommutativeCubic):
            return alg.star(x)
        raise NotSecondKind("no base involution on %r" % (alg,))

    def apply(self, x):
        y = self.base_apply(x)
        if self.twist is not None:
            y = self.algebra.mul(self.algebra.mul(self.twist, y),
                                 self._twist_inv)
        return y

    def _check_involution(self):
        alg = self.algebra
        g = alg.center.ground
        for j in range(alg.k_dim):
            coords = [g.one if i == j else g.zero for i in range(alg.k_dim)]
            b = alg.from_k_coords(coords)
            bb = self.apply(self.apply(b))
            if any(p - q for p, q in zip(bb, b)):
                raise TwistNotHermitian("sigma^2 != id for this twist")

    def matrix(self):
        """sigma as a k-linear matrix on the algebra's k-coordinates."""
        if self._matrix is None:
            alg = self.algebra
            g = alg.center.ground
            cols = []
            for j in range(alg.k_dim):
                coords = [g.one if i == j else g.zero
                          for i in range(alg.k_dim)]
                cols.append(alg.to_k_coords(self.apply(
                    alg.from_k_coords(coords))))
            self._matrix = [[cols[j][i] for j in range(alg.k_dim)]
                            for i in range(alg.k_dim)]
        return self._matrix

    def hermitian_basis(self):
        """Deterministic k-basis of the sigma-fixed space (echelon kernel
        of sigma - id)."""
        if self._herm is None:
            alg = self.algebra
            g = alg.center.ground
            m = self.matrix()
            delta = [[m[i][j] - (g.one if i == j else g.zero)
                      for j in range(alg.k_dim)] for i in range(alg.k_dim)]
            kern = linalg.kernel_basis(delta, g.one, g.zero)
            self._herm = [alg.from_k_coords(v) for v in kern]
            self._free = [max(i for i, c in enumerate(v) if c)
                          for v in kern]
        return self._herm

    def hermitian_coords(self, x):
        """Coordinates of a hermitian x in hermitian_basis().

        Basis vector i is the echelon kernel vector of its free column,
        its last nonzero entry, where it is 1 and every other basis vector
        is 0; so coordinate i is the k-coordinate of x at that column.
        x is not checked to be hermitian."""
        self.hermitian_basis()
        coords = self.algebra.to_k_coords(x)
        return [coords[c] for c in self._free]

    def is_hermitian(self, x):
        return not any(p - q for p, q in zip(self.apply(x), x))

    def twisted(self, v):
        """Int(v) o sigma; v must be invertible and fixed by this sigma."""
        alg = self.algebra
        if not self.is_hermitian(v):
            raise TwistNotHermitian("v must be fixed by the involution "
                                    "being twisted")
        new_twist = v if self.twist is None else alg.mul(v, self.twist)
        return UnitaryInvolution(alg, new_twist)

