"""Ground-field scalars: exact rationals and prime fields.

Scalar values must support +, -, *, unary -, /, ==, and be falsy exactly
when zero; everything above this layer (extension towers, polynomials,
matrices) is written against that contract only.  Rationals use
fractions.Fraction, prime fields use a dynamically created int subclass
that reduces mod p on every operation.

The exact kernels (Poly point evaluation, matrix products and ranks,
U-matrices and U-operators) run on plain ints: lift() clears the
denominators of a list of ground scalars once, and from_int() maps an
int result back once.  Matrix products and ranks take ground-field
matrices only (ground_type); nothing multiplies or ranks a matrix over
an extension field.  Over Q the structure constants of the algebras
(multiplication tables, Galois matrices, construction parameters) are
held as plain ints wherever they are integral (int_constants), so the
algebra evaluators run on ints when a point is lifted to ints; F_p
scalars are never replaced, because every F_p value must stay reduced.
"""

from fractions import Fraction
from math import lcm

from .errors import ConfigError, NonPrimeModulus, NotInvertible
from .rng import Stream


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_fp_classes = {}


def _make_fp_class(p: int):
    def _new(cls, v=0):
        return int.__new__(cls, int(v) % p)

    def _coerce(o):
        if isinstance(o, int):
            return int(o)
        return None

    def _add(self, o):
        v = _coerce(o)
        if v is None:
            return NotImplemented
        return cls((int(self) + v) % p)

    def _sub(self, o):
        v = _coerce(o)
        if v is None:
            return NotImplemented
        return cls((int(self) - v) % p)

    def _rsub(self, o):
        v = _coerce(o)
        if v is None:
            return NotImplemented
        return cls((v - int(self)) % p)

    def _mul(self, o):
        v = _coerce(o)
        if v is None:
            return NotImplemented
        return cls((int(self) * v) % p)

    def _neg(self):
        return cls(-int(self) % p)

    def _truediv(self, o):
        v = _coerce(o)
        if v is None:
            return NotImplemented
        if v % p == 0:
            raise NotInvertible("division by zero in F_%d" % p)
        return cls(int(self) * pow(v, p - 2, p) % p)

    def _rtruediv(self, o):
        v = _coerce(o)
        if v is None:
            return NotImplemented
        if int(self) == 0:
            raise NotInvertible("division by zero in F_%d" % p)
        return cls(v * pow(int(self), p - 2, p) % p)

    def _pow(self, e):
        return cls(pow(int(self), e, p))

    cls = type("Fp%d" % p, (int,), {
        "__new__": _new,
        "__add__": _add, "__radd__": _add,
        "__sub__": _sub, "__rsub__": _rsub,
        "__mul__": _mul, "__rmul__": _mul,
        "__neg__": _neg,
        "__truediv__": _truediv, "__rtruediv__": _rtruediv,
        "__pow__": _pow,
        "modulus": p,
    })
    return cls


def ground_type(xs):
    """Fraction or the F_p class, the one type of every x in xs.  Anything
    else (extension Elems, Polys, plain ints, mixed types) is a TypeError:
    the int kernels take the scalars of one ground field only."""
    kinds = set(map(type, xs))
    if len(kinds) == 1:
        kind, = kinds
        if kind is Fraction or \
                _fp_classes.get(getattr(kind, "modulus", 0)) is kind:
            return kind
    raise TypeError("expected the scalars of one ground field, got %s"
                    % ", ".join(sorted(k.__name__ for k in kinds)))


def lift(xs):
    """(ints, d) with xs[i] = ints[i] / d for ground scalars (or ints) of
    one field: over Q the numerators over the least common denominator,
    over F_p the residues and d = 1."""
    d = lcm(*[c.denominator for c in xs])
    return [c.numerator * (d // c.denominator) for c in xs], d


def int_constants(x):
    """x with every integral Fraction replaced by the equal plain int,
    through nested lists and tuples.  Non-integral Fractions, F_p scalars
    and anything else are returned unchanged.  A product of ints stays an
    int, and int with Fraction gives a Fraction, so every value computed
    from the result stays exact as long as nothing is divided."""
    if isinstance(x, (list, tuple)):
        return type(x)(int_constants(c) for c in x)
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def from_int(kind, v, den):
    """The ground scalar v / den of type kind (see ground_type); over F_p
    every lift has den 1 and v is read mod p."""
    return Fraction(v, den) if kind is Fraction else kind(v)


class RationalField:
    """The field Q with Fraction scalars."""

    char = 0
    is_finite = False
    order = None

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def parse(self, s):
        if isinstance(s, bool):
            raise ConfigError("boolean is not a scalar")
        if isinstance(s, (int, Fraction)):
            return Fraction(s)
        if isinstance(s, str):
            try:
                return Fraction(s)
            except (ValueError, ZeroDivisionError) as e:
                raise ConfigError("bad rational %r: %s" % (s, e))
        raise ConfigError("bad rational literal %r" % (s,))

    def to_str(self, x):
        return str(x)

    def inv(self, x):
        if x == 0:
            raise NotInvertible("division by zero in Q")
        return 1 / Fraction(x)

    def random(self, stream: Stream):
        # small integers keep downstream Fraction growth in check
        return Fraction(stream.next_below(21) - 10)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """F_p with int-subclass scalars reducing mod p."""

    is_finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonPrimeModulus("modulus %r is not prime" % (p,))
        self.p = p
        self.char = p
        self.order = p
        if p not in _fp_classes:
            _fp_classes[p] = _make_fp_class(p)
        self.elem = _fp_classes[p]
        self.zero = self.elem(0)
        self.one = self.elem(1)

    def from_int(self, n):
        return self.elem(n)

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise NotInvertible(
                "denominator of %s vanishes mod %d" % (q, self.p))
        return self.elem(q.numerator * pow(q.denominator, self.p - 2, self.p))

    def parse(self, s):
        if isinstance(s, bool):
            raise ConfigError("boolean is not a scalar")
        if isinstance(s, int):
            return self.elem(s)
        if isinstance(s, (str, Fraction)):
            try:
                return self.from_fraction(Fraction(s))
            except (ValueError, ZeroDivisionError) as e:
                raise ConfigError("bad scalar %r: %s" % (s, e))
        raise ConfigError("bad scalar literal %r" % (s,))

    def to_str(self, x):
        return str(int(x))

    def inv(self, x):
        if int(x) % self.p == 0:
            raise NotInvertible("division by zero in F_%d" % self.p)
        return self.elem(pow(int(x), self.p - 2, self.p))

    def random(self, stream: Stream):
        return self.elem(stream.next_below(self.p))

    def iter_all(self):
        for v in range(self.p):
            yield self.elem(v)

    def __repr__(self):
        return "F_%d" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))
