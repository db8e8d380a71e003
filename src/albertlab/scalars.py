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
an extension field.

A ground field turns a 64-bit draw u of the random stream into a
coordinate through its draw_range, once: the coordinate is
draw_range[u mod n] for the size n of draw_range, u mod 21 - 10 over Q
and u mod p over F_p.  random() reads one draw through it, and draw_ints() reads a run of
draws as the int lifts of those coordinates, for the witness scans.
"""

from fractions import Fraction
from math import lcm

from .errors import ConfigError, NonPrimeModulus, NotInvertible
from .rng import Stream, draws


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


def from_int(kind, v, den):
    """The ground scalar v / den of type kind (see ground_type); over F_p
    every lift has den 1 and v is read mod p."""
    return Fraction(v, den) if kind is Fraction else kind(v)


def draw_ints(ground, seed, offset, k):
    """The int lifts of k successive ground.random draws from
    Stream(seed, offset), drawn in one call: the coordinates
    draw_range[u mod n] of the draws u, n the size of draw_range, over Q
    integers and over F_p residues, so every lift has d = 1.  The size
    is stop - start: len() of a range fails beyond 2^63 - 1, and a prime
    modulus may be larger."""
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
    # the values of random(), built once
    _draws = tuple(map(Fraction, draw_range))

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
        return self._draws[stream.next_below(len(self._draws))]

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

    def random(self, stream: Stream):
        r = self.draw_range
        return self.elem(r[stream.next_below(r.stop - r.start)])

    def __repr__(self):
        return "F_%d" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))
