"""Ground scalars, sparse polynomials, exact linear algebra, RNG."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertlab import linalg
from albertlab.associative import GroundCenter
from albertlab.errors import (AlbertLabError, ConfigError, NonPrimeModulus,
                              NotInvertible)
from albertlab.poly import (Poly, compose_mismatch, dump_cubic_form, indices,
                            linear_form, mono, variables)
from albertlab.rng import GOLDEN, draws, splitmix64
from albertlab.scalars import (PRIME_BOUND, PrimeField, RationalField,
                               draw_ints, is_prime)

from .conftest import Stream, draw, random_point


class TestScalars:
    def test_prime_check(self):
        assert [p for p in range(2, 30) if is_prime(p)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_prime_check_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert all(is_prime(n) == sympy.isprime(n) for n in range(10 ** 5))
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                      825265, 321197185, 5394826801, 232250619601,
                      9746347772161]
        assert not any(is_prime(n) or sympy.isprime(n) for n in carmichael)
        # a strong pseudoprime to the bases 2 .. 37, which base 41 exposes,
        # and a composite just below the bound
        for n in (318665857834031151167461, 3317044064679887385961979):
            assert not is_prime(n) and not sympy.isprime(n)
        assert is_prime(2 ** 61 - 1) and sympy.isprime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)

    def test_prime_check_above_the_bound_is_a_config_error(self):
        with pytest.raises(ConfigError, match=str(PRIME_BOUND)):
            is_prime(PRIME_BOUND)
        with pytest.raises(ConfigError):
            PrimeField(2 ** 89 - 1)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(NonPrimeModulus):
            PrimeField(6)

    def test_fraction_roundtrip(self):
        q = RationalField()
        assert q.parse("-3/5") == Fraction(-3, 5)
        assert q.to_str(q.parse("-3/5")) == "-3/5"
        with pytest.raises(ConfigError):
            q.parse(True)

    def test_fp_reduction_of_rationals(self):
        f5 = PrimeField(5)
        # 1/2 = 3 mod 5
        assert f5.parse("1/2") == f5.from_int(3)
        with pytest.raises(NotInvertible):
            f5.from_fraction(Fraction(1, 5))

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.sampled_from([2, 7, 2 ** 61 - 1]))
    @settings(max_examples=60, deadline=None)
    def test_fp_ring_laws(self, a, b, p):
        """Every operator of the F_p class, forward and reflected, against
        (int(x) op int(o)) % p with o a plain int, a bool, an element of
        the field or one of F_11, read as its int value: the value and the
        type.  A Fraction operand gets NotImplemented and Fraction's
        operator handles it."""
        fp = PrimeField(p)
        x, y = fp.from_int(a), fp.from_int(b)
        assert type(x) is fp.elem and int(x) == a % p
        assert type(-x) is fp.elem and -x == -a % p
        laws = [("__add__", lambda u, v: u + v),
                ("__radd__", lambda u, v: v + u),
                ("__sub__", lambda u, v: u - v),
                ("__rsub__", lambda u, v: v - u),
                ("__mul__", lambda u, v: u * v),
                ("__rmul__", lambda u, v: v * u),
                ("__truediv__", lambda u, v: u * pow(v, -1, p)),
                ("__rtruediv__", lambda u, v: v * pow(u, -1, p))]
        for o in (b, b < 0, y, PrimeField(11).elem(b)):
            for name, law in laws:
                divisor = o if name == "__truediv__" else x
                if name.endswith("truediv__") and int(divisor) % p == 0:
                    with pytest.raises(NotInvertible):
                        getattr(x, name)(o)
                    continue
                got = getattr(x, name)(o)
                assert type(got) is fp.elem
                assert got == law(int(x), int(o)) % p
        # the operator forms, in both orders, for the int and the element
        for o in (b, y):
            assert type(x + o) is type(o + x) is fp.elem
            assert (x + o, o + x) == ((a + b) % p,) * 2
            assert (x - o, o - x) == ((a - b) % p, (b - a) % p)
            assert (x * o, o * x) == ((a * b) % p,) * 2
        for e in range(-3, 4):
            if x or e >= 0:
                assert type(x ** e) is fp.elem and x ** e == pow(a, e, p)
        q = Fraction(b, 3)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            assert getattr(x, name)(q) is NotImplemented
        assert (x + q, q - x, x * q) == (int(x) + q, q - int(x), int(x) * q)
        assert type(x + q) is type(q - x) is type(x * q) is Fraction
        for u, v in ((x, 0), (x, False), (x, fp.zero), (a, fp.zero),
                     (fp.zero, fp.zero)):
            with pytest.raises(NotInvertible):
                u / v

    def test_fp_division(self):
        f7 = PrimeField(7)
        for a in range(1, 7):
            x = f7.from_int(a)
            assert x * f7.inv(x) == f7.one

    def test_fp_zero_to_a_negative_power_is_not_invertible(self):
        """0 ** e for e < 0 is a division by zero and raises NotInvertible,
        as / does, not the ValueError of pow."""
        for p in (2, 5, 2 ** 61 - 1):
            zero = PrimeField(p).elem(0)
            for e in (-1, -2, -(p - 1)):
                with pytest.raises(NotInvertible, match="F_%d" % p):
                    zero ** e
            assert zero ** 0 == 1 and zero ** 3 == 0


class TestPoly:
    def _vars(self):
        return variables(3, Fraction(1))

    def test_ring_identities(self):
        x, y, z = self._vars()
        left = (x + y) * (x - y)
        right = x * x - y * y
        assert left == right
        assert (x + y + z) * (x + y + z) == \
            x * x + y * y + z * z + 2 * (x * y + y * z + x * z)

    def test_zero_coefficients_dropped(self):
        x, y, _ = self._vars()
        p = x * y - x * y
        assert not p
        assert p.terms == {}

    def test_scalar_multiple_drops_zeros(self):
        # over F_5 the product of a nonzero coefficient and a plain int
        # can be zero: 2 * 5 = 0, 3 * 5 = 0
        f5 = PrimeField(5)
        x, y = variables(2, f5.one)
        p = f5.from_int(2) * x + f5.from_int(3) * y
        assert (p * 5).terms == {} and (5 * p).terms == {}
        assert (p * 6).terms == p.terms

    def test_integral_fraction_multiplies_as_int(self):
        # an int coefficient times an integral Fraction stays an int; a
        # proper fraction makes it a Fraction
        x, y = variables(2, 1)
        p = 3 * x * y + x
        for q in (p * Fraction(2), Fraction(-4) * p):
            assert {type(c) for c in q.terms.values()} == {int}
        assert p * Fraction(2) == 2 * p
        half = p * Fraction(1, 2)
        assert {type(c) for c in half.terms.values()} == {Fraction}
        assert half + half == p

    def test_foreign_operands_refused(self):
        # only a Poly, an int or a Fraction is a coefficient: a float
        # raises instead of becoming a constant term
        x = Poly.var(0, 1)
        for add in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5,
                    lambda: 0.5 - x):
            with pytest.raises(TypeError):
                add()
        half = Fraction(1, 2)
        assert 1 - (x + half) == Poly({**(-x).terms, 0: half})

    def test_homogeneity(self):
        x, y, _ = self._vars()
        cubic = x * x * y
        assert cubic.is_homogeneous(3)
        assert not (cubic + x).is_homogeneous(3)

    def test_eval_matches_direct_substitution(self):
        x, y, z = self._vars()
        p = x * x * y - 3 * z * z * z + y * y * z
        args = [Fraction(2), Fraction(-1, 3), Fraction(5)]
        a, b, c = args
        expect = a * a * b - 3 * c * c * c + b * b * c
        assert p.eval(args) == expect
        # a second evaluation reads the kept plan and gives the same value
        assert p.eval(args) == expect

    def test_eval_cancelled_group_is_zero(self):
        # compose_mismatch's substitution groups p = x0 x1 + x0 x2 to
        # x0 (x1 + x2); with args[2] = -args[1] the linear remainder
        # cancels, nothing of it is stored, and p composes to 0
        x, y, z = variables(3, 1)
        p = x * y + x * z
        args = [x + 2 * z, y * y - x * z, -(y * y - x * z)]
        assert compose_mismatch([p], args, lambda _: Poly(), 0) is None
        assert compose_mismatch([p], args, lambda _: x, 0) == (0, -x)
        # the cancelled group is never multiplied by args[0]: were its zero
        # sums kept, the degree 200 remainder times the degree 100 args[0]
        # would overflow the degree byte
        high = [Poly({mono((0,) * 100): 1}), Poly({mono((1,) * 200): 1}),
                Poly({mono((1,) * 200): -1})]
        assert compose_mismatch([p], high, lambda _: Poly(), 0) is None
        with pytest.raises(AlbertLabError):
            high[0] * high[1]

    def test_linear_form(self):
        x, y, z = self._vars()
        assert linear_form([Fraction(2), 0, Fraction(-1, 3)]) == \
            2 * x - Fraction(1, 3) * z
        assert linear_form([0, 0]) == Poly()

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_eval_is_ring_hom(self, a, b):
        x, y, z = self._vars()
        p = x * y + z * z - 2 * x
        q = y * z - x * x + 1 * y
        args = [Fraction(v) for v in a]
        assert (p * q).eval(args) == p.eval(args) * q.eval(args)
        assert (p + q).eval(args) == p.eval(args) + q.eval(args)

    @given(st.lists(st.tuples(
               st.lists(st.integers(0, 3), max_size=5),
               st.integers(-20, 20).filter(bool)), max_size=12),
           st.lists(st.lists(st.fractions(max_denominator=6),
                             min_size=4, max_size=4), min_size=1,
                    max_size=3),
           st.sampled_from(["int", "Q", "F7"]))
    @settings(max_examples=80, deadline=None)
    def test_eval_plan_matches_plain_loop(self, terms, points, kind):
        # degrees 0 to 5 mix the rows of degrees 1 to 3 with the general
        # loop of the others; every point after the first reuses the plan
        # the first one built, and the result has the scalars' type, or is
        # the int 0 for a Poly with no terms
        g = {"int": None, "Q": RationalField(), "F7": PrimeField(7)}[kind]
        scalar = int if g is None else g.from_int
        one = scalar(1)
        p = Poly({mono(sorted(idx)): scalar(c) for idx, c in terms})
        for args in points:
            args = [int(a) if g is None else g.from_fraction(a)
                    for a in args]
            total = one - one
            for m, c in p.terms.items():
                for i in indices(m):
                    c = c * args[i]
                total = total + c
            got = p.eval(args)
            assert got == total
            assert type(got) is (type(one) if p.terms else int)
        assert Poly().eval(args) == 0

    def test_packed_monomials(self):
        # low byte: total degree; byte i + 1: exponent of x_i
        assert mono((0, 0, 2)) == 3 + (2 << 8) + (1 << 24)
        for idx in [(), (0,), (0, 0, 2), (3, 5, 26), (53, 53, 53)]:
            assert indices(mono(idx)) == idx
        x, y, z = self._vars()
        assert (x * x * z).terms == {mono((0, 0, 2)): 1}
        assert (x * x * z).coefficient(mono((2, 0, 0))) == 1

    def test_product_degree_limit(self):
        # degree 255 fills the degree byte and x0's byte without a carry
        a = Poly({mono((0,) * 200): Fraction(1)})
        top = a * Poly({mono((0,) * 55): Fraction(2)})
        assert top.is_homogeneous(255)
        assert indices(next(iter(top.terms))) == (0,) * 255
        with pytest.raises(AlbertLabError):
            a * Poly({mono((1,) * 56): Fraction(1)})
        with pytest.raises(AlbertLabError):
            top * self._vars()[2]

    def test_dump_sorted(self):
        g = RationalField()
        x, y, z = self._vars()
        text = dump_cubic_form(x * y * z + x * x * x, g)
        assert text == "0 0 0 1\n0 1 2 1\n"


class TestLinalg:
    def test_rank_of_singular_matrix(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert linalg.rank(m) == 1

    def test_kernel_basis_echelon_convention(self):
        one, zero = Fraction(1), Fraction(0)
        m = [[one, one, one]]
        basis = linalg.kernel_basis(m)
        assert basis == [[-one, one, zero], [-one, zero, one]]

    def test_fixed_basis_of_a_swap(self):
        # (x0, x1, x2) -> (x1, x0, x2) fixes (1, 1, 0) and (0, 0, 1)
        one, zero = Fraction(1), Fraction(0)
        m = [[zero, one, zero], [one, zero, zero], [zero, zero, one]]
        assert linalg.fixed_basis(m) == \
            [[one, one, zero], [zero, zero, one]]

    @given(st.lists(st.integers(-2, 2), min_size=16, max_size=16),
           st.integers(0, 4), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_fixed_basis_contract(self, entries, ones, over_f7):
        # ones diagonal entries are set to 1 so that fixed vectors occur
        g = PrimeField(7) if over_f7 else RationalField()
        n = 4
        m = [[g.from_int(entries[n * i + k] if i != k or i >= ones else 1)
              for k in range(n)] for i in range(n)]
        basis = linalg.fixed_basis(m)
        delta = [[e - (g.one if i == k else g.zero)
                  for k, e in enumerate(row)] for i, row in enumerate(m)]
        assert len(basis) == n - linalg.rank(delta)
        for v in basis:
            assert linalg.matvec(m, v) == v
        # echelon convention: each vector ends in a 1 at its own free
        # column, where every other vector is 0; the free columns ascend
        free = [max(i for i, c in enumerate(v) if c) for v in basis]
        assert free == sorted(set(free))
        for v, c in zip(basis, free):
            assert v[c] == g.one
            assert all(not w[c] for w in basis if w is not v)


class TestRng:
    def test_splitmix_reference_values(self):
        # first outputs of the reference splitmix64 sequence for seed 0
        s = Stream(0)
        assert s.next_u64() == 0xE220A8397B1DCDAF
        assert s.next_u64() == 0x6E789E6AA1B965F4
        assert s.next_u64() == 0x06C45D188009454F

    def test_counter_random_access(self):
        assert draw(123, 7) == Stream(123, offset=7).next_u64()

    def test_derive_changes_stream(self):
        a = Stream(5).derive("alpha")
        b = Stream(5).derive("beta")
        assert a.next_u64() != b.next_u64()

    def test_mask(self):
        assert splitmix64(2 ** 64 + 1) == splitmix64(1)

    @pytest.mark.parametrize("seed", [0, 123, 2 ** 64, 2 ** 64 + 5,
                                      2 ** 70 - 1, -1, -987654321])
    def test_batched_draws_match_single_draws(self, seed):
        # the batch masks its seed as Stream does; draw() masks the sum.
        # Offsets with offset GOLDEN >= 2^128 and negative seeds carry
        # from one packed lane into the next unless the start is reduced
        # mod 2^64 before it is spread over the lanes; k = 1000 is far
        # above the 27 coordinates a scan candidate draws
        big = 1000
        assert 2 ** 70 * GOLDEN >= 2 ** 128
        for offset, k, n in [(0, 27, 21), (29 * 7, 27, 5), (3, 1, 2 ** 64),
                             (10, 0, 7), (0, 0, 1), (2 ** 70, 0, 5),
                             (2 ** 70, 29, 21), (2 ** 70 + 3, big, 5),
                             (2 ** 64 - 1, big, 2 ** 64), (7, big, 1),
                             (2 ** 90, 64, PRIME_BOUND - 1),
                             (5, big, 2 ** 64 - 59)]:
            want = [draw(seed, offset + t) % n for t in range(k)]
            assert draws(seed, offset, k, n) == want
            s = Stream(seed, offset)
            assert [s.next_below(n) for _ in range(k)] == want

    @pytest.mark.parametrize("field", [RationalField(), PrimeField(5),
                                       PrimeField(2 ** 64 - 59)])
    def test_draw_ints_lift_random_draws(self, field):
        # one draw map for both routes, also for a modulus past 2^63,
        # where len() of a range overflows
        for seed, offset in [(7, 0), (2 ** 64 + 9, 29 * 3)]:
            s = Stream(seed, offset)
            xs = [random_point(GroundCenter(field), s) for _ in range(30)]
            assert draw_ints(field, seed, offset, 30) == [
                x.numerator if field.char == 0 else int(x) for x in xs]
