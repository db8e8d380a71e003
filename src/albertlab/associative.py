"""Degree-3 associative algebras with reduced norm, trace and adjoint.

Three kinds, all exposing the same coordinate-level interface over the
ground field k:

* MatrixAlgebra  -- 3x3 matrices over k or over a quadratic etale K,
* CyclicAlgebra  -- (L/k, rho, a) with L cyclic cubic, presented on the
                    basis {1, e, e^2} with e*l = rho(l)*e and e^3 = a,
* CommutativeCubic -- a cubic etale algebra (L over k, or LK = L (x) K
                    over K) viewed as a commutative "degree 3 algebra".

The center is k (GroundCenter, whose elements are bare scalars) or the
tower's quadratic etale K itself (a fields.Extension, whose elements
are K Elems).  An element is a tuple of entries: 9 center elements for
the matrix algebra, 3 elements of L for the cyclic one, 3 center
elements (its coefficients on {1, alpha, alpha^2}) for the commutative
cubic.  The element operations that do not depend on the kind (sums,
scaling, inverse, k-coordinates) live once in _Algebra; each kind gives
its entry count and its entries: the center, or L for the cyclic
algebra.  The commutative cubic multiplies through L's structure table
and rho, with center elements as coefficients, so L over k and LK over
K share one multiplication.

Every operation is division-free in the element coordinates and
branches on a coordinate's truthiness only to skip a zero term or to
raise (a failed descent), so the same code paths run with polynomial
indeterminates during symbolic expansion and on ground scalars.  The
reduced norm of the cyclic algebra is *defined* as the determinant of
the splitting embedding.
The closed trace and adjoint formulas, and the cyclic algebra's spur,
are validated against N(t 1 - x), read off by interpolation, in
tests/test_associative.py.  Each algebra also expands its reduced norm
once into int forms in the k-coordinates (norm_int, through
poly._int_scaled), which the witness search evaluates at every
candidate.  A unitary involution builds its k-linear matrix once,
checks sigma^2 = 1 on it as one matrix product, and reads its hermitian
basis off it (linalg.fixed_basis).
"""

from . import linalg
from .errors import (ConfigError, NotInvertible, NotSecondKind,
                     TwistNotHermitian, VerificationFailure)
from .fields import Elem, _descend
from .poly import _int_scaled, variables


# ---------------------------------------------------------------------------
# the ground field as a center

class GroundCenter:
    """Center = the ground field itself; elements are bare scalars.  It
    gives the members of fields.Extension that a center needs."""

    dim = 1

    def __init__(self, ground):
        self.ground = ground
        self.one = ground.one
        self.zero = ground.zero

    def from_k_coords(self, coords):
        return coords[0]

    def to_k_coords(self, x):
        return [x]

    def conj(self, x):
        raise NotSecondKind("center is the ground field; no conjugation")

    def descend(self, x):
        return x

    def inv(self, x):
        return self.ground.inv(x)


# ---------------------------------------------------------------------------
# the element operations every algebra shares

class _Algebra:
    """A degree-3 algebra whose elements are tuples of `size` entries.

    `entries` is the center, or L for the cyclic algebra: it gives dim
    (k-coordinates per entry), from_k_coords and to_k_coords.
    Subclasses give unit, mul, trace, norm and sharp; the cyclic algebra
    also gives the spur its adjoint is built from."""

    _norm_int = None

    def __init__(self, center, entries, size):
        self.center = center
        self.ground = center.ground
        self.entries = entries
        self.size = size
        self.k_dim = size * entries.dim

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def sub(self, x, y):
        return tuple(p - q for p, q in zip(x, y))

    def smul(self, s, x):
        return tuple(s * p for p in x)

    def inv(self, x):
        """x# / N(x), dividing through the center."""
        n = self.norm(x)
        if not n:
            raise NotInvertible("element has norm 0")
        return self.smul(self.center.inv(n), self.sharp(x))

    def to_k_coords(self, x):
        out = []
        for e in x:
            out.extend(self.entries.to_k_coords(e))
        return out

    def from_k_coords(self, coords):
        d = self.entries.dim
        return tuple(self.entries.from_k_coords(list(coords[d * i:d * i + d]))
                     for i in range(self.size))

    def norm_int(self):
        """(forms, den): an element with k-coordinates x has reduced norm
        with center coordinates forms[i](x) / den, for the int cubic forms
        of poly._int_scaled (one form over a ground center, two over K).
        The forms are homogeneous, so at x = xi / d the norm is
        forms[i](xi) / (den d^3)."""
        if self._norm_int is None:
            c = self.center
            n = self.norm(self.from_k_coords(
                variables(self.k_dim,
                          c.ground.one if c.ground.char else 1)))
            polys = c.to_k_coords(n)
            if not all(p.is_homogeneous(3) for p in polys):
                raise VerificationFailure(
                    "reduced norm of %r is not a homogeneous cubic"
                    % (self,))
            self._norm_int = _int_scaled(polys)
        return self._norm_int


# ---------------------------------------------------------------------------
# matrix algebra M3(center)

class MatrixAlgebra(_Algebra):
    """3x3 matrices, elements as row-major 9-tuples of center elements."""

    def __init__(self, center):
        super().__init__(center, center, 9)

    def unit(self):
        o, z = self.center.one, self.center.zero
        return (o, z, z, z, o, z, z, z, o)

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

    def involution(self, a):
        """Conjugate transpose."""
        c = self.center
        return tuple(c.conj(a[3 * j + i]) for i in range(3)
                     for j in range(3))

    def __repr__(self):
        return "M3(center dim %d over %r)" % (self.center.dim,
                                              self.center.ground)


# ---------------------------------------------------------------------------
# cyclic algebra (L/k, rho, a)

class CyclicAlgebra(_Algebra):
    """(L/k, rho, a): x = x0 + x1 e + x2 e^2 with x_i in L, e l = rho(l) e,
    e^3 = a in k*.  Elements are 3-tuples of L Elems."""

    def __init__(self, tower, a):
        if tower.L is None:
            raise ConfigError("cyclic algebra needs a cyclic cubic L; the "
                              "tower has none")
        self.L = tower.L
        super().__init__(GroundCenter(tower.ground), self.L, 3)
        if not a:
            raise NotInvertible("cyclic algebra parameter a must be nonzero")
        self.a = a
        rho = self.L.sigma
        self._rho_powers = (None, rho, linalg.matmul(rho, rho))

    def _rho(self, x, times):
        times %= 3
        if not times:
            return x
        return Elem(self.L, linalg.matvec(self._rho_powers[times], x.coords))

    def unit(self):
        return (self.L.one, self.L.zero, self.L.zero)

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

    def trace(self, x):
        t = x[0] + self._rho(x[0], 1) + self._rho(x[0], 2)
        return _descend(t.coords, "cyclic-algebra trace")

    def norm(self, x):
        m = self.splitting_embed(x)
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        return _descend(det.coords, "cyclic-algebra norm")

    def spur(self, x):
        m = self.splitting_embed(x)
        s = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) \
            + (m[0][0] * m[2][2] - m[0][2] * m[2][0]) \
            + (m[0][0] * m[1][1] - m[0][1] * m[1][0])
        return _descend(s.coords, "cyclic-algebra spur")

    def sharp(self, x):
        t = self.trace(x)
        s = self.spur(x)
        xx = self.mul(x, x)
        return (xx[0] - x[0] * t + self.L.one * s, xx[1] - x[1] * t,
                xx[2] - x[2] * t)

    def __repr__(self):
        return "Cyclic(L/%r, a=%s)" % (self.ground, self.a)


# ---------------------------------------------------------------------------
# commutative cubic etale algebra (L over k, LK over K)

class CommutativeCubic(_Algebra):
    """The cubic etale algebra L (x) C over a center C (k or K), with
    Galois generator rho acting on L.

    Elements are coefficient triples over the center on L's power basis
    {1, alpha, alpha^2}; they multiply through L's structure table.  Used
    both as a 9-dimensional first-construction input (L over k) and as
    the "B" of the LK-based second Tits process (LK over K, with bar on
    coefficients as the involution of the second kind).
    """

    def __init__(self, center, L):
        super().__init__(center, center, 3)
        self.L = L
        self._rho = L.sigma               # 3x3 over k (acts on triples)

    @staticmethod
    def over_L(tower):
        """L as a commutative cubic k-algebra."""
        return CommutativeCubic(GroundCenter(tower.ground), tower.L)

    @staticmethod
    def over_LK(tower):
        """LK as a commutative cubic K-algebra (the second-process B)."""
        if tower.K is None:
            raise NotSecondKind("tower has no quadratic level K")
        return CommutativeCubic(tower.K, tower.L)

    def unit(self):
        return (self.center.one, self.center.zero, self.center.zero)

    def mul(self, x, y):
        return tuple(self.L.mul_coords(x, y, self.center.zero))

    def rho(self, x):
        return tuple(linalg.matvec(self._rho, x))

    def involution(self, x):
        """bar on the coefficients: the center-semilinear involution fixing
        L (LK only)."""
        return tuple(self.center.conj(c) for c in x)

    def trace(self, x):
        r = self.rho(x)
        r2 = self.rho(r)
        return _descend(self.add(self.add(x, r), r2), "cubic etale trace")

    def sharp(self, x):
        r = self.rho(x)
        r2 = self.rho(r)
        return self.mul(r, r2)

    def norm(self, x):
        return _descend(self.mul(x, self.sharp(x)), "cubic etale norm")

    def __repr__(self):
        return "CommutativeCubic(center dim %d over %r)" \
            % (self.center.dim, self.ground)


# ---------------------------------------------------------------------------
# unitary involutions of the second kind

class UnitaryInvolution:
    """sigma = Int(twist) o sigma0 where sigma0 is the algebra's own
    involution: conjugate transpose on M3(K), bar on the coefficients of
    LK.  twist=None means sigma0.

    sigma is k-linear, so its matrix on the k-coordinates (matrix) is
    built once, at construction, and sigma^2 = 1 is checked there as
    matrix^2 = I."""

    def __init__(self, algebra, twist=None):
        if algebra.center.dim != 2:
            raise NotSecondKind("involutions of the second kind require a "
                                "quadratic etale center")
        self.algebra = algebra
        self.twist = twist
        self._twist_inv = None
        if twist is not None:
            base = algebra.involution(twist)
            if any(p - q for p, q in zip(base, twist)):
                raise TwistNotHermitian("twist u must satisfy sigma(u) = u")
            self._twist_inv = algebra.inv(twist)  # raises NotInvertible
        g = algebra.center.ground
        ident = linalg.identity(algebra.k_dim, g.one, g.zero)
        self.matrix = linalg.transpose(
            [algebra.to_k_coords(self.apply(algebra.from_k_coords(e)))
             for e in ident])
        if linalg.matmul(self.matrix, self.matrix) != ident:
            raise TwistNotHermitian("sigma^2 != id for this twist")
        self._herm = self._free = None

    def apply(self, x):
        y = self.algebra.involution(x)
        if self.twist is not None:
            y = self.algebra.mul(self.algebra.mul(self.twist, y),
                                 self._twist_inv)
        return y

    def hermitian_basis(self):
        """Deterministic k-basis of the sigma-fixed space
        (linalg.fixed_basis of the matrix)."""
        if self._herm is None:
            alg = self.algebra
            kern = linalg.fixed_basis(self.matrix)
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

