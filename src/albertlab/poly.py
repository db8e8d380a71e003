"""Sparse multivariate polynomials with exact coefficients.

Monomials are sorted tuples of variable indices with repetition, e.g.
(0, 0, 2) = x0^2 * x2 and () = the constant term.  Coefficients are
ground-field scalars (Fraction or mod-p ints) or plain ints; zero
coefficients are never stored, so equality is dict equality.  A Poly
multiplies only by another Poly, an int or a Fraction; any other operand
(an extension Elem) gets NotImplemented and handles the product itself.
Degrees stay tiny (<= 6) throughout the package, which is why the
multiset encoding is cheaper than exponent vectors.
"""

from fractions import Fraction

from .errors import AlbertLabError


class NonPolynomialEvaluator(AlbertLabError):
    """An evaluator divided by a non-constant during symbolic expansion."""


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    # -- construction helpers -------------------------------------------

    @staticmethod
    def const(c):
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def var(i, one):
        return Poly({(i,): one})

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
        return self._add_terms({(): other}, +1) if other else self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self._add_terms(other.terms, -1)
        return self._add_terms({(): other}, -1) if other else self

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            out = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    m = tuple(sorted(m1 + m2))
                    c = c1 * c2
                    if m in out:
                        s = out[m] + c
                        if s:
                            out[m] = s
                        else:
                            del out[m]
                    elif c:
                        out[m] = c
            return Poly(out)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return Poly()
        return Poly({m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly):
            c = other.constant_or_none()
            if c is None:
                raise NonPolynomialEvaluator(
                    "division by non-constant polynomial")
            other = c
        return Poly({m: c / other for m, c in self.terms.items()})

    def __pow__(self, e):
        if e < 1:
            raise ValueError("only positive powers are supported")
        acc = None
        for _ in range(e):
            acc = self if acc is None else acc * self
        return acc

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if not other:
            return not self.terms
        return self.terms == {(): other}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            mono = "*".join("x%d" % i for i in m) or "1"
            bits.append("%s*%s" % (self.terms[m], mono))
        return "Poly(%s)" % " + ".join(bits)

    # -- queries ----------------------------------------------------------

    def degree(self):
        return max((len(m) for m in self.terms), default=-1)

    def is_homogeneous(self, d):
        return all(len(m) == d for m in self.terms)

    def homogeneous_part(self, d):
        return Poly({m: c for m, c in self.terms.items() if len(m) == d})

    def constant_or_none(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)))

    # -- evaluation / substitution ----------------------------------------

    def eval(self, args, one, cache=None):
        """Substitute args[i] for variable i.

        args entries may be scalars or Polys whose coefficients multiply
        with the coefficients of self; `one` is the 1 used for empty
        products.  An optional dict caches monomial products across calls
        (keyed by monomial prefix), which pays off when the same quadratic
        maps are substituted into many forms.  Only products of at most
        two factors are stored: a pair product is shared by every
        quadratic form that has that monomial and by every cubic monomial
        that starts with it, while a product of three factors is never
        looked up again and would only hold memory.
        """
        total = None
        for m, c in self.terms.items():
            if cache is None:
                prod = one
                for i in m:
                    prod = prod * args[i]
            else:
                t = min(len(m), 2)
                while t > 0 and m[:t] not in cache:
                    t -= 1
                prod = cache[m[:t]] if t else one
                for s in range(t, len(m)):
                    prod = prod * args[m[s]]
                    if s < 2:
                        cache[m[:s + 1]] = prod
            term = c * prod
            total = term if total is None else total + term
        if total is None:
            return Poly() if any(isinstance(a, Poly) for a in args) else \
                one - one
        return total


def variables(n, one):
    """Polynomials x0..x_{n-1} with the given scalar one as coefficient."""
    return [Poly.var(i, one) for i in range(n)]


def directional_derivative(p, nvars):
    """d/dt p(x + t y) at t=0, as a Poly in x (vars 0..n-1), y (vars n..2n-1)."""
    out = Poly()
    for m, c in p.terms.items():
        for pos in range(len(m)):
            rest = m[:pos] + m[pos + 1:]
            mono = tuple(sorted(rest + (m[pos] + nvars,)))
            out = out + Poly({mono: c})
    return out


# -- serialization of cubic forms and quadratic maps ------------------------

def dump_cubic_form(p, ground):
    """Lines "i j l coeff", lexicographically sorted; degree-3 terms only."""
    if not p.is_homogeneous(3):
        raise AlbertLabError("not a homogeneous cubic form")
    lines = []
    for m in sorted(p.terms):
        lines.append("%d %d %d %s" % (m[0], m[1], m[2], ground.to_str(p.terms[m])))
    return "\n".join(lines) + "\n"


def dump_quad_map(polys, ground):
    """Lines "m i j coeff" for output coordinate m, sorted."""
    lines = []
    for m, p in enumerate(polys):
        if not p.is_homogeneous(2):
            raise AlbertLabError("output %d is not homogeneous quadratic" % m)
        for mono in sorted(p.terms):
            lines.append("%d %d %d %s"
                         % (m, mono[0], mono[1], ground.to_str(p.terms[mono])))
    return "\n".join(lines) + "\n"
