"""Ground-field scalars: exact rationals and prime fields.

Scalar values must support +, -, *, unary -, /, ==, and be falsy exactly
when zero; everything above this layer (extension towers, polynomials,
matrices) is written against that contract only.  Rationals use
fractions.Fraction, prime fields use a dynamically created int subclass
whose +, -, * and / each make one int operation on the values, one
reduction mod p and one int.__new__; an operand that is not an int gets
NotImplemented.

The exact kernels (Poly point evaluation, matrix products and ranks,
U-matrices and U-operators) run on plain ints: lift() clears the
denominators of a list of ground scalars once, and from_int() maps an
int result back once.  Matrix products and ranks take ground-field
matrices only (ground_type); nothing multiplies or ranks a matrix over
an extension field.

A ground field turns a 64-bit draw u of the random stream into a
coordinate through its draw_range, once: the coordinate is
draw_range[u mod n] for the size n of draw_range, u mod 21 - 10 over Q
and u mod p over F_p (docs/schema.md, "Random stream").  draw_ints()
reads a run of draws as the int lifts of those coordinates, for the
witness scans.
"""

from fractions import Fraction
from math import lcm

from .errors import ConfigError, NonPrimeModulus, NotInvertible
from .rng import draws


# Miller-Rabin with the first 13 primes as bases decides primality
# exactly below this bound (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases _MR_BASES.  A modulus of at
    least PRIME_BOUND, where those bases no longer decide, is a
    ConfigError: primality is never guessed."""
    if n >= PRIME_BOUND:
        raise ConfigError("modulus %d is not below %d, the bound under "
                          "which primality is decided exactly"
                          % (n, PRIME_BOUND))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_fp_classes = {}


def _make_fp_class(p: int):
    new = int.__new__

    def _op(f):
        # f, an int method, on the values of self and an int operand
        def op(self, o):
            if isinstance(o, int):
                return new(cls, f(self, o) % p)
            return NotImplemented
        return op

    def _div(a, b):
        b %= p
        if not b:
            raise NotInvertible("division by zero in F_%d" % p)
        return new(cls, a * pow(b, -1, p) % p)

    def _new(cls, v=0):
        return new(cls, int(v) % p)

    def _neg(self):
        return new(cls, int.__neg__(self) % p)

    def _truediv(self, o):
        return _div(int(self), o) if isinstance(o, int) else NotImplemented

    def _rtruediv(self, o):
        return _div(int(o), self) if isinstance(o, int) else NotImplemented

    def _pow(self, e):
        try:
            return new(cls, pow(int(self), e, p))
        except ValueError:
            raise NotInvertible("division by zero in F_%d" % p) from None

    add, mul = _op(int.__add__), _op(int.__mul__)
    cls = type("Fp%d" % p, (int,), {
        "__new__": _new,
        "__add__": add, "__radd__": add,
        "__sub__": _op(int.__sub__), "__rsub__": _op(int.__rsub__),
        "__mul__": mul, "__rmul__": mul,
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


def from_int(kind, v, den):
    """The ground scalar v / den of type kind (see ground_type); over F_p
    every lift has den 1 and v is read mod p."""
    return Fraction(v, den) if kind is Fraction else kind(v)


def draw_ints(ground, seed, offset, k):
    """The int lifts of the coordinates of k successive draws of seed
    from offset on (docs/schema.md, "Random stream"), drawn in one call:
    the coordinates draw_range[u mod n] of the draws u, n the size of
    draw_range, over Q integers and over F_p residues, so every lift has
    d = 1.  The size is stop - start: len() of a range fails beyond
    2^63 - 1, and a prime modulus may be larger."""
    r = ground.draw_range
    us = draws(seed, offset, k, r.stop - r.start)
    return [u + r.start for u in us] if r.start else us


class RationalField:
    """The field Q with Fraction scalars."""

    char = 0
    is_finite = False
    order = None
    # the coordinates of the draws: small integers keep downstream
    # Fraction growth in check
    draw_range = range(-10, 11)

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
        self.draw_range = range(p)
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

    def __repr__(self):
        return "F_%d" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))
