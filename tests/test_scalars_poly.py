"""Ground scalars, sparse polynomials, exact linear algebra, RNG."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertlab import linalg
from albertlab.errors import (AlbertLabError, ConfigError, NonPrimeModulus,
                              NotInvertible)
from albertlab.poly import (Poly, directional_derivative, dump_cubic_form,
                            indices, linear_form, mono, sum_of_products,
                            variables)
from albertlab.rng import Stream, draw, splitmix64
from albertlab.scalars import PrimeField, RationalField, is_prime


class TestScalars:
    def test_prime_check(self):
        assert [p for p in range(2, 30) if is_prime(p)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

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

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_fp_ring_laws(self, a, b):
        f7 = PrimeField(7)
        x, y = f7.from_int(a), f7.from_int(b)
        assert x + y == f7.from_int(a + b)
        assert x * y == f7.from_int(a * b)
        assert x - y == f7.from_int(a - b)
        assert -x == f7.from_int(-a)

    def test_fp_division(self):
        f7 = PrimeField(7)
        for a in range(1, 7):
            x = f7.from_int(a)
            assert x * f7.inv(x) == f7.one


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

    def test_homogeneity(self):
        x, y, _ = self._vars()
        cubic = x * x * y
        assert cubic.is_homogeneous(3)
        assert not (cubic + x).is_homogeneous(3)
        assert (cubic + x).homogeneous_part(1) == x

    def test_eval_matches_direct_substitution(self):
        x, y, z = self._vars()
        p = x * x * y - 3 * z * z * z + y * y * z
        args = [Fraction(2), Fraction(-1, 3), Fraction(5)]
        a, b, c = args
        expect = a * a * b - 3 * c * c * c + b * b * c
        assert p.eval(args, Fraction(1)) == expect
        # a second evaluation reads the kept plan and gives the same value
        assert p.eval(args, Fraction(1)) == expect

    def test_eval_cancelled_group_is_zero(self):
        # p = x0 x1 + x0 x2 groups to x0 (x1 + x2); with args[2] = -args[1]
        # the linear remainder cancels, and nothing of it is stored
        x, y, z = self._vars()
        p = x * y + x * z
        args = [x + 2 * z, y * y - x * z, -(y * y - x * z)]
        out = p.eval(args, 1)
        assert out == Poly()
        assert out.terms == {}
        # the cancelled group is never multiplied by args[0]: were its zero
        # sums kept, the degree 200 remainder times the degree 100 args[0]
        # would overflow the degree byte
        high = [Poly({mono((0,) * 100): 1}), Poly({mono((1,) * 200): 1}),
                Poly({mono((1,) * 200): -1})]
        assert p.eval(high, 1).terms == {}
        with pytest.raises(AlbertLabError):
            high[0] * high[1]

    def test_directional_derivative_of_cube(self):
        # d/dt (x0^3) along y = 3 x0^2 y0
        x = variables(1, Fraction(1))[0]
        dd = directional_derivative(x * x * x, 1)
        y0 = Poly.var(1, Fraction(1))
        assert dd == 3 * x * x * y0

    def test_linear_form_and_sum_of_products(self):
        x, y, z = self._vars()
        assert linear_form([Fraction(2), 0, Fraction(-1, 3)]) == \
            2 * x - Fraction(1, 3) * z
        # offset 3 puts the form in x3, x4, x5
        w = variables(6, Fraction(1))
        assert linear_form([1, 5], 3) == w[3] + 5 * w[4]
        assert linear_form([0, 0]) == Poly()
        pairs = [(x * y + z, x - 2 * z), (z * z, y + 1), (x, -x),
                 (y, Poly())]
        assert sum_of_products(pairs) == \
            sum((a * b for a, b in pairs), Poly())
        # cancelling products leave no zero coefficient behind
        assert sum_of_products([(x, y), (-x, y)]).terms == {}

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_eval_is_ring_hom(self, a, b):
        x, y, z = self._vars()
        p = x * y + z * z - 2 * x
        q = y * z - x * x + 1 * y
        args = [Fraction(v) for v in a]
        one = Fraction(1)
        assert (p * q).eval(args, one) == p.eval(args, one) * q.eval(args, one)
        assert (p + q).eval(args, one) == p.eval(args, one) + q.eval(args, one)

    @given(st.lists(st.tuples(
               st.lists(st.integers(0, 3), max_size=4),
               st.integers(-20, 20).filter(bool)), max_size=12),
           st.lists(st.lists(st.fractions(max_denominator=6),
                             min_size=4, max_size=4), min_size=1,
                    max_size=3),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_eval_plan_matches_plain_loop(self, terms, points, over_f7):
        # every point after the first reuses the plan the first one built
        g = PrimeField(7) if over_f7 else RationalField()
        p = Poly({mono(sorted(idx)): g.from_int(c) for idx, c in terms})
        for args in points:
            args = [g.from_fraction(a) for a in args]
            total = g.zero
            for m, c in p.terms.items():
                for i in indices(m):
                    c = c * args[i]
                total = total + c
            assert p.eval(args, g.one) == total

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
    def test_solve_and_inverse(self):
        one, zero = Fraction(1), Fraction(0)
        m = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
        x = linalg.solve(m, [Fraction(1), Fraction(0)])
        assert x == [Fraction(4), Fraction(-7)]
        # the inverse, one column per unit vector
        cols = [linalg.solve(m, e)
                for e in linalg.identity(2, one, zero)]
        assert linalg.matmul(m, linalg.transpose(cols)) == \
            linalg.identity(2, one, zero)

    def test_singular_raises(self):
        one, zero = Fraction(1), Fraction(0)
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(NotInvertible):
            linalg.solve(m, [one, zero])
        assert linalg.rank(m) == 1

    def test_kernel_basis_echelon_convention(self):
        one, zero = Fraction(1), Fraction(0)
        m = [[one, one, one]]
        basis = linalg.kernel_basis(m, one, zero)
        assert basis == [[-one, one, zero], [-one, zero, one]]


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
