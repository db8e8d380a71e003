"""Sparse multivariate polynomials with exact coefficients.

A monomial is one packed int: the low byte holds the total degree and
byte i + 1 the exponent of x_i, so x0^2 * x2 = mono((0, 0, 2)) =
3 + (2 << 8) + (1 << 24) and 0 is the constant monomial.  A product of
monomials is a single int addition (Monagan and Pearce's packed exponent
vectors); __mul__ refuses products of degree above 255, so no byte ever
carries into its neighbour.  indices(m) unpacks a monomial into the
sorted tuple of its variable indices with repetition, e.g. (0, 0, 2),
and every deterministic order (dumps, repr, witnesses) sorts by it.

Coefficients are ground-field scalars (Fraction or mod-p ints) or plain
ints; zero coefficients are never stored, so equality is dict equality.
No code changes a Poly's term dict once the Poly is built: every
operation returns a new Poly, and the scalar route of eval caches a plan
of the terms on that assumption.
A Poly multiplies only by another Poly, an int or a Fraction; any other
operand (an extension Elem) gets NotImplemented and handles the product
itself.

Poly.eval substitutes Poly args nested by first index down to linear
terms and keeps nothing between calls.  Besides it, pullback(p, rows)
pulls a homogeneous cubic int form back through an int matrix as a dense
contraction on int lists; the norm-similarity certificate uses it,
since its matrices are nearly full and the sparse substitution pays one
dict update per term product.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import AlbertLabError

MAX_DEGREE = 255


def mono(idx):
    """The packed monomial prod(x_i for i in idx), repetition allowed."""
    if len(idx) > MAX_DEGREE:
        raise AlbertLabError("monomial degree %d exceeds %d"
                             % (len(idx), MAX_DEGREE))
    m = len(idx)
    for i in idx:
        m += 1 << (8 * i + 8)
    return m


@lru_cache(maxsize=None)
def indices(m):
    """Sorted variable indices of the packed monomial m, with repetition."""
    out = []
    i = 0
    m >>= 8
    while m:
        out += [i] * (m & 255)
        m >>= 8
        i += 1
    return tuple(out)


def _order(m):
    """Sort key: degree first, then the index tuple."""
    return m & 255, indices(m)


def _max_degree(terms):
    return max(m & 255 for m in terms)


def _mul_into(out, a, b, c):
    """out += c * a * b for term dicts a and b; zeros stay in out."""
    if a and b and _max_degree(a) + _max_degree(b) > MAX_DEGREE:
        raise AlbertLabError("product degree exceeds %d" % MAX_DEGREE)
    if len(a) > len(b):
        a, b = b, a
    for m1, c1 in a.items():
        c1 = c * c1
        for m2, c2 in b.items():
            m = m1 + m2
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2


_ONE = {0: 1}


def _terms(x):
    """The term dict of a Poly, or of a scalar as a constant."""
    return x.terms if isinstance(x, Poly) else {0: x}


def _nonzero(out):
    """A Poly on the dict out, with its zero coefficients deleted."""
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return Poly(out)


class Poly:
    __slots__ = ("terms", "_plan")

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}
        self._plan = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def const(c):
        return Poly({0: c}) if c else Poly()

    @staticmethod
    def var(i, one):
        return Poly({mono((i,)): one})

    # -- ring structure --------------------------------------------------

    def _add_terms(self, other_terms, sign):
        out = dict(self.terms)
        for m, c in other_terms.items():
            c = c if sign > 0 else -c
            if m in out:
                s = out[m] + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = c
        return Poly(out)

    def __add__(self, other):
        if isinstance(other, Poly):
            return self._add_terms(other.terms, +1)
        return self._add_terms({0: other}, +1) if other else self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self._add_terms(other.terms, -1)
        return self._add_terms({0: other}, -1) if other else self

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            _mul_into(out, self.terms, other.terms, 1)
            return _nonzero(out)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return Poly()
        return Poly({m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if not other:
            return not self.terms
        return self.terms == {0: other}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms, key=_order):
            name = "*".join("x%d" % i for i in indices(m)) or "1"
            bits.append("%s*%s" % (self.terms[m], name))
        return "Poly(%s)" % " + ".join(bits)

    # -- queries ----------------------------------------------------------

    def is_homogeneous(self, d):
        return all(m & 255 == d for m in self.terms)

    def homogeneous_part(self, d):
        return Poly({m: c for m, c in self.terms.items() if m & 255 == d})

    def coefficient(self, m):
        """Coefficient of the packed monomial m, or None."""
        return self.terms.get(m)

    # -- evaluation / substitution ----------------------------------------

    def eval(self, args, one):
        """Substitute args[i] for variable i.

        With scalar args the result is the scalar sum of c * prod(args);
        `one` only fixes its zero when self has no terms.  The terms are
        read from a plan of (coefficient, indices(m)) pairs built at the
        first scalar evaluation and kept, which is sound because a Poly's
        terms never change after construction.  With Poly args the
        substitution is nested down to linear terms: the terms of degree
        2 or more are grouped by their first index i, self = sum_i x_i L_i
        + (terms of degree at most 1), and each L_i is substituted the same
        way, stripped of its zero sums and multiplied by args[i] once,
        straight into one output dict whose zeros are dropped at the end.
        So a quadratic form costs one linear combination of the args per
        first index and no product args[i] * args[j] per term.
        """
        if not any(isinstance(a, Poly) for a in args):
            plan = self._plan
            if plan is None:
                plan = self._plan = [(c, indices(m))
                                     for m, c in self.terms.items()]
            total = one - one
            for c, idx in plan:
                for i in idx:
                    c = c * args[i]
                total = total + c
            return total
        out = {}
        _subst_into(out, self.terms, args)
        return _nonzero(out)


def _subst_into(out, terms, args):
    """out += (the term dict `terms` with args substituted), nested by
    first index as described in Poly.eval."""
    groups = {}
    for m, c in terms.items():
        if m & 255 >= 2:
            # m = x_i * rest: drop one x_i and one from the degree byte
            i = indices(m)[0]
            groups.setdefault(i, {})[m - (1 << (8 * i + 8)) - 1] = c
        else:
            _mul_into(out, _terms(args[indices(m)[0]]) if m else _ONE,
                      _ONE, c)
    for i, rest in groups.items():
        q = {}
        _subst_into(q, rest, args)
        _mul_into(out, {m: v for m, v in q.items() if v}, _terms(args[i]),
                  1)


def variables(n, one):
    """Polynomials x0..x_{n-1} with the given scalar one as coefficient."""
    return [Poly.var(i, one) for i in range(n)]


def linear_form(coeffs, offset=0):
    """sum_n coeffs[n] x_{offset + n}; zero coefficients are skipped."""
    return Poly({mono((offset + n,)): c for n, c in enumerate(coeffs) if c})


def sum_of_products(pairs):
    """sum a * b over the Poly pairs (a, b), accumulated in one dict."""
    out = {}
    for a, b in pairs:
        _mul_into(out, a.terms, b.terms, 1)
    return _nonzero(out)


def pullback(p, rows):
    """p(F x) for a homogeneous cubic int form p and an int matrix F
    whose row r holds the coefficients of coordinate r of F x.

    A dense contraction, one mode at a time, on int lists: with p =
    sum c_ijk x_i x_j x_k, R_ij = sum_k c_ijk rows[k] over the terms of
    index prefix (i, j), G_i = sum_j rows[j] (x) R_ij as a flat list with
    entry b * n + c, and T_a = sum_i rows[i][a] G_i, so that p(F x) =
    sum T_a[b * n + c] x_a x_b x_c.  Each nonzero entry is folded once
    onto its packed monomial and zero sums are dropped once at the end.
    The term dict equals p.eval(linear forms of rows, 1) exactly."""
    if not p.is_homogeneous(3):
        raise AlbertLabError("pullback needs a homogeneous cubic form")
    n = len(rows[0]) if rows else 0
    r = {}
    for m, c in p.terms.items():
        i, j, k = indices(m)
        rk = [c * e for e in rows[k]]
        r[i, j] = list(map(add, r[i, j], rk)) if (i, j) in r else rk
    g = {}
    for (i, j), rij in r.items():
        outer = [e * f for e in rows[j] for f in rij]
        g[i] = list(map(add, g[i], outer)) if i in g else outer
    x = [mono((a,)) for a in range(n)]
    bc = [x[b] + x[c] for b in range(n) for c in range(n)]
    out = {}
    for a in range(n):
        t = None
        for i, gi in g.items():
            w = rows[i][a]
            if w:
                wg = [w * e for e in gi]
                t = wg if t is None else list(map(add, t, wg))
        if t is None:
            continue
        for m, v in zip(bc, t):
            if v:
                m += x[a]
                out[m] = out.get(m, 0) + v
    return _nonzero(out)


def directional_derivative(p, nvars):
    """d/dt p(x + t y) at t=0, as a Poly in x (vars 0..n-1), y (vars n..2n-1)."""
    out = {}
    shift = 8 * nvars
    for m, c in p.terms.items():
        for i in indices(m):
            x_i = 1 << (8 * i + 8)
            mm = m - x_i + (x_i << shift)
            if mm in out:
                out[mm] += c
            else:
                out[mm] = c
    return _nonzero(out)


# -- serialization of cubic forms and quadratic maps ------------------------

def dump_cubic_form(p, ground):
    """Lines "i j l coeff", lexicographically sorted; degree-3 terms only."""
    if not p.is_homogeneous(3):
        raise AlbertLabError("not a homogeneous cubic form")
    lines = []
    for m in sorted(p.terms, key=indices):
        lines.append("%d %d %d %s"
                     % (indices(m) + (ground.to_str(p.terms[m]),)))
    return "\n".join(lines) + "\n"


def dump_quad_map(polys, ground):
    """Lines "m i j coeff" for output coordinate m, sorted."""
    lines = []
    for m, p in enumerate(polys):
        if not p.is_homogeneous(2):
            raise AlbertLabError("output %d is not homogeneous quadratic" % m)
        for mo in sorted(p.terms, key=indices):
            lines.append("%d %d %d %s" % ((m,) + indices(mo)
                                          + (ground.to_str(p.terms[mo]),)))
    return "\n".join(lines) + "\n"
