"""The int-lifted kernels (linalg.matmul, linalg.rank, u_matrix,
poly.pullback) against independent references written here: plain
Fraction and mod-p loops, U_x(y) = T(x, y) x - x# x y assembled from
trace_pair and cross, and the nested Poly.eval substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertlab import linalg, poly, tits
from albertlab.associative import CyclicAlgebra
from albertlab.errors import AlbertLabError
from albertlab.poly import Poly, linear_form, mono, pullback
from albertlab.rng import Stream
from albertlab.scalars import PrimeField, RationalField, lift

Q = RationalField()
F5 = PrimeField(5)


def _ref_matmul(a, b, zero):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_rank(m, p=None):
    """Rank by Gauss-Jordan on Fractions, or on ints mod p."""
    rows = [[Fraction(int(c)) if p else Fraction(c) for c in r] for r in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows))
                    if (rows[i][c] % p if p else rows[i][c])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(int(rows[rank][c]), -1, p) if p else 1 / rows[rank][c]
        for i in range(len(rows)):
            if i != rank:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
                if p:
                    rows[i] = [Fraction(int(x) % p) for x in rows[i]]
        rank += 1
    return rank


def _q_entry(s):
    # mixed denominators, about a third of the entries zero
    if s.next_below(3) == 0:
        return Fraction(0)
    return Fraction(s.next_below(19) - 9, 1 + s.next_below(6))


def _matrix(s, rows, cols, entry):
    return [[entry(s) for _ in range(cols)] for _ in range(rows)]


def _low_rank(s, rows, cols, r, entry, zero):
    """A rows x cols product of random rows x r and r x cols factors."""
    return _ref_matmul(_matrix(s, rows, r, entry), _matrix(s, r, cols, entry),
                       zero)


FIELDS = [
    ("Q", _q_entry, Q.zero, None),
    ("F5", lambda s: F5.elem(s.next_below(5)), F5.zero, 5),
]
SHAPES = [(1, 1, 1), (1, 6, 4), (5, 1, 3), (4, 3, 1), (6, 5, 7), (9, 9, 9)]


class TestMatmul:
    @pytest.mark.parametrize("name, entry, zero, p", FIELDS)
    @pytest.mark.parametrize("n, k, m", SHAPES)
    def test_against_plain_loops(self, name, entry, zero, p, n, k, m):
        s = Stream(7 * n + 3 * k + m).derive(name)
        for _ in range(5):
            a, b = _matrix(s, n, k, entry), _matrix(s, k, m, entry)
            got = linalg.matmul(a, b)
            assert got == _ref_matmul(a, b, zero)
            assert all(type(c) is type(zero) for row in got for c in row)

    def test_zero_rows_and_columns(self):
        s = Stream(11)
        a = _matrix(s, 4, 5, _q_entry)
        b = _matrix(s, 5, 3, _q_entry)
        a[2] = [Q.zero] * 5
        for row in b:
            row[1] = Q.zero
        got = linalg.matmul(a, b)
        assert got == _ref_matmul(a, b, Q.zero)
        assert got[2] == [Q.zero] * 3
        assert all(row[1] == 0 for row in got)

    def test_denominators_survive(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        a = [[half, third], [Q.zero, Fraction(5, 6)]]
        b = [[Fraction(2, 7), Q.one], [Fraction(3, 4), Q.zero]]
        assert linalg.matmul(a, b) == [[Fraction(1, 7) + Fraction(1, 4), half],
                                       [Fraction(5, 8), Q.zero]]


class TestRank:
    @pytest.mark.parametrize("name, entry, zero, p", FIELDS)
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (5, 8), (8, 5),
                                      (9, 9)])
    def test_full_random_matrices(self, name, entry, zero, p, n, m):
        s = Stream(31 * n + m).derive(name)
        for _ in range(5):
            a = _matrix(s, n, m, entry)
            assert linalg.rank(a) == _ref_rank(a, p)

    @pytest.mark.parametrize("name, entry, zero, p", FIELDS)
    @pytest.mark.parametrize("n, m, r", [(6, 7, 1), (6, 7, 3), (8, 8, 5),
                                         (9, 4, 2), (3, 9, 2)])
    def test_rank_deficient(self, name, entry, zero, p, n, m, r):
        s = Stream(100 * r + 10 * n + m).derive(name)
        for _ in range(5):
            a = _low_rank(s, n, m, r, entry, zero)
            want = _ref_rank(a, p)
            assert want <= r
            assert linalg.rank(a) == want

    def test_zero_rows_and_columns(self):
        s = Stream(37)
        a = _low_rank(s, 7, 6, 4, _q_entry, Q.zero)
        a[0] = [Q.zero] * 6
        a[4] = [Q.zero] * 6
        for row in a:
            row[2] = Q.zero
        assert linalg.rank(a) == _ref_rank(a)
        assert linalg.rank([[Q.zero] * 5] * 3) == 0
        assert linalg.rank([[F5.zero], [F5.zero]]) == 0

    def test_dependence_hidden_by_denominators(self):
        # row 2 = row 0 / 3 - 2 row 1 / 5, so the rank is 2; moving one
        # entry by 10^-9 makes it 3
        r0 = [Fraction(1, 2), Fraction(-7, 3), Fraction(5), Fraction(2, 9)]
        r1 = [Fraction(3, 4), Fraction(0), Fraction(-1, 6), Fraction(8)]
        r2 = [a / 3 - 2 * b / 5 for a, b in zip(r0, r1)]
        assert linalg.rank([r0, r1, r2]) == 2
        r2[3] += Fraction(1, 10 ** 9)
        assert linalg.rank([r0, r1, r2]) == 3


class TestExtensionFieldMatrices:
    def test_refused_by_int_kernels(self, QQ, tower_l_q):
        # L-valued matrices are not ground matrices: matmul and rank have
        # only the int route and refuse them, as they refuse mixed types
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        L = d.L
        mx = d.splitting_embed(d.random(Stream(79)))
        with pytest.raises(TypeError):
            linalg.rank(mx)
        with pytest.raises(TypeError):
            linalg.matmul(mx, linalg.identity(3, L.one, L.zero))
        with pytest.raises(TypeError):
            linalg.rank([[Q.one, F5.one]])


class TestUMatrix:
    @staticmethod
    def _reference(j, x):
        """Column k is U_x(e_k) = T(x, e_k) x - x# x e_k."""
        g = j.ground
        sx = j.sharp(x)
        cols = []
        for k in range(j.dim):
            e = tuple(g.one if i == k else g.zero for i in range(j.dim))
            t = j.trace_pair(x, e)
            cx = j.cross(sx, e)
            cols.append([t * xi - ci for xi, ci in zip(x, cx)])
        return [[cols[k][i] for k in range(j.dim)] for i in range(j.dim)]

    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q"])
    def test_mixed_denominators_over_q(self, name, request):
        j = request.getfixturevalue(name)
        s = Stream(71)
        points = [tuple(Fraction(i - 13, 1 + i % 5) for i in range(j.dim))]
        for _ in range(2):
            x = j.random_invertible(s)
            points += [x, j.inverse(x)]
        assert any(c.denominator > 1 for c in points[-1])
        for x in points:
            got = j.u_matrix(x)
            assert got == self._reference(j, x)
            assert all(type(c) is Fraction for row in got for c in row)

    def test_finite_field(self, j_lk_f5):
        s = Stream(73)
        for x in [j_lk_f5.unit] + [j_lk_f5.random_point(s) for _ in range(6)]:
            got = j_lk_f5.u_matrix(x)
            assert got == self._reference(j_lk_f5, x)
            assert all(type(c) is type(j_lk_f5.ground.one)
                       for row in got for c in row)


def _nested_pullback(p, rows):
    """p(F x) by the nested Poly.eval route, one linear form per row."""
    return p.eval([linear_form(row) for row in rows], 1)


def _int_rows(m):
    ints, _ = lift([e for row in m for e in row])
    n = len(m[0])
    return [ints[r * n:r * n + n] for r in range(len(m))]


def _cubic(terms):
    """The int cubic form sum c x_i x_j x_k over (i, j, k, c) terms."""
    out = Poly()
    for i, j, k, c in terms:
        out = out + Poly({mono((i, j, k)): c})
    return out


class TestPullback:
    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q", "j_lk_q",
                                      "j_m3k_q", "j_m3_f5", "j_lk_f5"])
    def test_norm_through_u_matrices(self, name, request):
        j = request.getfixturevalue(name)
        n2 = j.n_int[0]
        s = Stream(79)
        if j.ground.char:
            points = [j.random_point(s) for _ in range(2)]
        else:
            # mixed denominators, so the lift has a nontrivial denominator
            points = [tuple(Fraction(i - 13, 1 + i % 5)
                            for i in range(j.dim)), j.random_point(s)]
        for a in points:
            rows = _int_rows(j.u_matrix(a))
            got = pullback(n2, rows)
            assert got.terms == _nested_pullback(n2, rows).terms
            assert got.terms

    @pytest.mark.parametrize("name", ["j_lk_q", "j_lk_f5"])
    def test_componentwise_rho(self, name, request):
        j = request.getfixturevalue(name)
        b = j.meta["algebra"]
        rows = _int_rows(tits.componentwise_matrix(j, j, b.rho, b.rho))
        n2 = j.n_int[0]
        assert pullback(n2, rows).terms == _nested_pullback(n2, rows).terms

    @pytest.mark.parametrize("terms", [
        [(0, 0, 0, 1)],                                 # x0^3
        [(0, 0, 1, -2)],                                # x0^2 x1
        [(0, 1, 1, 3)],                                 # x0 x1^2
        [(0, 1, 2, 5), (2, 2, 2, -1), (1, 1, 2, 4)]])
    def test_power_and_square_terms(self, terms):
        p = _cubic(terms)
        rows = [[2, -1, 0], [0, 3, -4], [1, 1, 1]]
        got = pullback(p, rows)
        assert got.terms == _nested_pullback(p, rows).terms

    def test_zero_rows_columns_and_rank_deficiency(self):
        p = _cubic([(0, 0, 0, 1), (0, 1, 2, -3), (1, 1, 3, 2),
                    (2, 3, 3, 7), (3, 3, 3, -1)])
        zero_row = [[1, -2, 0, 3], [0, 0, 0, 0], [4, 1, -1, 0],
                    [-2, 0, 5, 1]]
        zero_col = [[1, 0, -2, 3], [2, 0, 1, 1], [-1, 0, 0, 4],
                    [3, 0, 2, -2]]
        # rank 1: every row a multiple of (1, -1, 2, 0)
        rank_one = [[c * e for e in (1, -1, 2, 0)] for c in (2, -3, 0, 1)]
        for rows in (zero_row, zero_col, rank_one, [[0] * 4] * 4):
            got = pullback(p, rows)
            assert got.terms == _nested_pullback(p, rows).terms
        assert pullback(p, [[0] * 4] * 4).terms == {}
        assert all(1 not in poly.indices(m)
                   for m in pullback(p, zero_col).terms)

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_cubic_forms(self, nvars, ncols, data):
        idx = st.integers(0, nvars - 1)
        terms = data.draw(st.lists(
            st.tuples(idx, idx, idx, st.integers(-9, 9)), max_size=8))
        p = _cubic([tuple(sorted(t[:3])) + (t[3],) for t in terms])
        rows = data.draw(st.lists(
            st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
            min_size=nvars, max_size=nvars))
        assert pullback(p, rows).terms == _nested_pullback(p, rows).terms

    @pytest.mark.parametrize("p", [
        Poly({mono((0, 1)): 1}),
        Poly({mono((0, 0, 0)): 1, mono((1,)): 2}),
        Poly({mono((0, 0, 1, 1)): 3})])
    def test_non_cubic_rejected(self, p):
        with pytest.raises(AlbertLabError):
            pullback(p, [[1, 0], [0, 1]])
