"""The int-lifted kernels (linalg.matmul, linalg.rank,
linalg.kernel_basis, u_matrix, poly.pullback, poly.compose_mismatch and
their slot packing) against independent references written here: plain
Fraction and mod-p loops, Gauss-Jordan on the scalars themselves,
U_x(y) = T(x, y) x - x# x y assembled from T(x, y) (the trace_pair
fixture) and cross, and the term-by-term composition of conftest,
one form at a time."""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertlab import linalg, poly, tits
from albertlab.associative import CyclicAlgebra
from albertlab.cubic import CubicNormStructure, corrupt_sharp
from albertlab.errors import AlbertLabError
from albertlab import isotopy
from albertlab.isotopy import Isotope, LinearMap, verify_norm_similarity
from albertlab.poly import (Poly, _codec, _mod, _pack, _runs, _unpack,
                            _width, compose_mismatch, linear_form, mono,
                            pullback)
from albertlab.scalars import PrimeField, RationalField, from_int, lift

from .conftest import Stream, compose, random_invertible, random_point

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)


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


def _ref_kernel_basis(m, one, zero):
    """The kernel basis in the echelon convention by Gauss-Jordan on the
    scalars themselves: the reduced row echelon form, then one vector per
    free column, 1 there and minus the column's entries at the pivot
    columns."""
    m = [list(r) for r in m]
    cols = len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            if m[r][fc]:
                vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


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


def _fp_entry(g):
    return lambda s: g.elem(s.next_below(g.p))


def _unit_entry(s):
    # pivots of 1 and -1 only, against _q_entry's non-unit pivots
    return Fraction(s.next_below(3) - 1)


KERNEL_FIELDS = [
    ("Q", _q_entry, Q),
    ("Q_units", _unit_entry, Q),
    ("F2", _fp_entry(F2), F2),
    ("F5", _fp_entry(F5), F5),
    ("F7", _fp_entry(F7), F7),
]


class TestKernelBasis:
    """kernel_basis runs on rank's elimination (_echelon); the reference
    is Gauss-Jordan on the scalars: the same vectors, of the same type."""

    @staticmethod
    def _agrees(m, g):
        got = linalg.kernel_basis(m)
        assert got == _ref_kernel_basis(m, g.one, g.zero)
        assert all(type(c) is type(g.one) for v in got for c in v)
        assert len(got) == len(m[0]) - linalg.rank(m)

    @pytest.mark.parametrize("name, entry, g", KERNEL_FIELDS)
    @pytest.mark.parametrize("n, m, r", [(1, 1, 1), (1, 7, 1), (7, 1, 1),
                                         (5, 8, 5), (8, 5, 5), (6, 7, 3),
                                         (9, 9, 4), (9, 4, 2), (3, 9, 2)])
    def test_random_matrices(self, name, entry, g, n, m, r):
        # full random and rank-deficient products, tall and wide
        s = Stream(100 * r + 10 * n + m).derive("kernel:" + name)
        for _ in range(4):
            self._agrees(_matrix(s, n, m, entry), g)
            self._agrees(_low_rank(s, n, m, r, entry, g.zero), g)

    @pytest.mark.parametrize("name, entry, g", KERNEL_FIELDS)
    def test_zero_rows_and_columns(self, name, entry, g):
        s = Stream(41).derive("kernel:" + name)
        a = _low_rank(s, 7, 8, 4, entry, g.zero)
        a[0] = [g.zero] * 8
        a[5] = [g.zero] * 8
        for row in a:
            row[0] = row[3] = g.zero
        self._agrees(a, g)
        for shape in [(1, 1), (3, 5), (5, 3)]:
            zero = [[g.zero] * shape[1] for _ in range(shape[0])]
            self._agrees(zero, g)
            assert len(linalg.kernel_basis(zero)) == shape[1]

    def test_non_unit_pivots(self):
        # no input pivot is 1 or -1: over Q the back-substitution
        # carries a denominator, over F_7 every pivot row is scaled
        m = [[Fraction(2), Fraction(3), Fraction(5), Fraction(7)],
             [Fraction(4), Fraction(9), Fraction(1), Fraction(-3)]]
        self._agrees(m, Q)
        assert any(c.denominator > 1 for v in linalg.kernel_basis(m)
                   for c in v)
        f7 = [[F7.elem(3), F7.elem(5), F7.elem(2)],
              [F7.elem(6), F7.elem(4), F7.elem(1)]]
        self._agrees(f7, F7)

    def test_empty_matrix(self):
        assert linalg.kernel_basis([]) == []


class TestExtensionFieldMatrices:
    def test_refused_by_int_kernels(self, QQ, tower_l_q):
        # L-valued matrices are not ground matrices: matmul, rank,
        # kernel_basis and fixed_basis have only the int route and refuse
        # them, as they refuse mixed types
        d = CyclicAlgebra(tower_l_q, QQ.from_int(2))
        L = d.L
        mx = d.splitting_embed(random_point(d, Stream(79)))
        with pytest.raises(TypeError):
            linalg.rank(mx)
        with pytest.raises(TypeError):
            linalg.matmul(mx, linalg.identity(3, L.one, L.zero))
        with pytest.raises(TypeError):
            linalg.rank([[Q.one, F5.one]])
        with pytest.raises(TypeError):
            linalg.kernel_basis(mx)
        with pytest.raises(TypeError):
            linalg.fixed_basis(mx)


class TestUMatrix:
    @staticmethod
    def _reference(j, x, trace_pair):
        """Column k is U_x(e_k) = T(x, e_k) x - x# x e_k."""
        g = j.ground
        sx = j.sharp(x)
        cols = []
        for k in range(j.dim):
            e = tuple(g.one if i == k else g.zero for i in range(j.dim))
            t = trace_pair(j, x, e)
            cx = j.cross(sx, e)
            cols.append([t * xi - ci for xi, ci in zip(x, cx)])
        return [[cols[k][i] for k in range(j.dim)] for i in range(j.dim)]

    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q"])
    def test_mixed_denominators_over_q(self, name, request, trace_pair):
        j = request.getfixturevalue(name)
        s = Stream(71)
        points = [tuple(Fraction(i - 13, 1 + i % 5) for i in range(j.dim))]
        for _ in range(2):
            x = random_invertible(j, s)
            points += [x, j.inverse(x)]
        assert any(c.denominator > 1 for c in points[-1])
        for x in points:
            got = j.u_matrix(x)
            assert got == self._reference(j, x, trace_pair)
            assert all(type(c) is Fraction for row in got for c in row)

    def test_finite_field(self, j_lk_f5, trace_pair):
        s = Stream(73)
        for x in [j_lk_f5.unit] + [random_point(j_lk_f5, s) for _ in range(6)]:
            got = j_lk_f5.u_matrix(x)
            assert got == self._reference(j_lk_f5, x, trace_pair)
            assert all(type(c) is type(j_lk_f5.ground.one)
                       for row in got for c in row)


def _apply(j, rows, den, y):
    """The int matrix rows / den applied to a ground point y: with
    y = yi / dy, (rows yi) / (den dy), mapped back once."""
    yi, dy = lift(y)
    return tuple(from_int(type(j.ground.one), sum(map(mul, row, yi)),
                          den * dy) for row in rows)


class TestUOpWithoutMatrix:
    """u_op applies U_x to y's lift without forming the U-matrix; it
    must give the int U-matrix of u_matrix_int applied to y (_apply)."""

    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q", "iso_lk_q"])
    def test_mixed_denominators_over_q(self, name, request):
        j = request.getfixturevalue(name)
        s = Stream(89)
        zero = tuple(j.ground.zero for _ in range(j.dim))
        mixed = [tuple(Fraction(i - 13, 1 + (i + k) % 5)
                       for i in range(j.dim)) for k in range(3)]
        x = random_invertible(j, s)
        pairs = [(mixed[0], mixed[1]), (mixed[1], mixed[2]), (j.unit, x),
                 (x, mixed[2]), (x, j.inverse(x)), (zero, x), (x, zero)]
        assert all(lift(p)[1] > 1 for p in mixed)
        for x, y in pairs:
            got = j.u_op(x, y)
            assert got == _apply(j, *j.u_matrix_int(x), y)
            assert all(type(c) is Fraction for c in got)

    def test_trace_denominator_outside_the_adjoint_denominator(self):
        """On every structure of the zoo lcm(t_den, s_den^2) is s_den^2,
        so the cross term's factor b = lcm / s_den^2 is 1.  Here the forms
        N = x0^3 / 5 + x0 x1^2 and x# = (2 x0^2 / 3, x1^2 + x0 x1) at the
        base point (1/3, 0), not a cubic norm structure but a valid input
        of both routes, give t_den = 225 and s_den = 3, so b = 25."""
        j = CubicNormStructure(
            Q, 2, lambda xs: xs[0] * xs[0] * xs[0] * Fraction(1, 5)
            + xs[0] * xs[1] * xs[1],
            lambda xs: [xs[0] * xs[0] * Fraction(2, 3),
                        xs[1] * xs[1] + xs[0] * xs[1]],
            [Fraction(1, 3), Q.zero])
        assert (j._u_data[1], j.sharp_int[1]) == (225, 3)
        points = [(Fraction(2, 7), Fraction(-5, 3)), (Fraction(1), Q.zero),
                  (Fraction(-4, 9), Fraction(6, 5)), (Q.zero, Fraction(1, 2))]
        for x in points:
            for y in points:
                assert j.u_op(x, y) == _apply(j, *j.u_matrix_int(x), y)

    @pytest.mark.parametrize("name", ["j_lk_f5", "j_m3_f5", "iso_m3_f5"])
    def test_finite_field(self, name, request):
        j = request.getfixturevalue(name)
        s = Stream(97)
        kind = type(j.ground.one)
        points = [j.unit] + [random_point(j, s) for _ in range(6)]
        for x, y in zip(points, points[1:] + points[:1]):
            got = j.u_op(x, y)
            assert got == _apply(j, *j.u_matrix_int(x), y)
            assert all(type(c) is kind for c in got)


def _nested_pullback(p, rows):
    """p(F x) by the term-by-term composition (compose), one linear form
    per row."""
    return compose(p, [linear_form(row) for row in rows])


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


class TestSlots:
    """The slot rule that pullback and compose_mismatch share: _width
    sizes the slots, _pack writes them and _unpack reads them, through
    the struct codec up to 8 bytes and slot by slot above (_codec)."""

    @pytest.mark.parametrize("nb", [1, 2, 4, 8, 9, 16])
    def test_round_trip_at_the_slot_bound(self, nb):
        top = 2 ** (8 * nb - 1) - 1
        assert _width(top) == nb
        # widths up to 8 bytes have a struct codec, wider ones do not
        assert (_codec(3, nb)[0] is None) == (nb > 8)
        for values in ([top, -top, 0, -top, top], [-top] * 4, [top] * 4,
                       [0, -1, 1, 0], [-top]):
            packed = _pack(values, nb)
            # compose_mismatch builds the same int by shifts
            assert packed == sum(v << (8 * nb * k)
                                 for k, v in enumerate(values))
            assert _unpack(packed, len(values), nb) == tuple(values)
            # a slot past the packed ones reads 0 (pullback's fold
            # reads one)
            assert _unpack(packed, len(values) + 1, nb) == \
                tuple(values) + (0,)

    @pytest.mark.parametrize("nb", [1, 2, 4, 8, 9, 16])
    def test_sums_within_the_bound_read_back(self, nb):
        """Int combinations of packed values whose every slot stays
        within the bound read back slot by slot, a slot at the bound
        included."""
        top = 2 ** (8 * nb - 1) - 1
        a, b = [top, -1, 0, 1, -top], [-top, 1, 1, 0, top]
        c = [1, -top, top, -1, 0]
        for x, y, z in ((1, 1, 0), (2, 1, 0), (1, 1, -1), (-1, 0, 0)):
            want = [x * u + y * v + z * w for u, v, w in zip(a, b, c)]
            assert max(map(abs, want)) == top or (x, y, z) == (1, 1, 0)
            got = x * _pack(a, nb) + y * _pack(b, nb) + z * _pack(c, nb)
            assert _unpack(got, 5, nb) == tuple(want)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_width_at_powers_of_two(self, k):
        # |v| <= bound < 2^(8 nb - 1) with nb rounded up to 1, 2, 4 or 8
        # bytes: 2^(8k-1) - 1 fits in k bytes and 2^(8k-1) needs the next
        # width; past 8 bytes the width is exact
        assert _width(2 ** (8 * k - 1) - 1) == k
        assert _width(2 ** (8 * k - 1)) == {1: 2, 2: 4, 4: 8, 8: 9}[k]
        assert _width(0) == 1
        assert _width(2 ** 23 - 1) == 4
        assert _width(2 ** 71 - 1) == 9
        assert _width(2 ** 71) == 10


class TestPullback:
    # an isotope's norm form is its base's scaled by N(v), so the last two
    # cases pull back larger coefficients than the base configs do
    @pytest.mark.parametrize("name", ["j_m3_q", "j_cyc_q", "j_lk_q",
                                      "j_m3k_q", "j_m3_f5", "j_lk_f5",
                                      "iso_m3_f5", "iso_lk_q"])
    def test_norm_through_u_matrices(self, name, request):
        j = request.getfixturevalue(name)
        n2 = j.n_int[0]
        s = Stream(79)
        if j.ground.char:
            points = [random_point(j, s) for _ in range(2)]
        else:
            # mixed denominators, so the lift has a nontrivial denominator
            points = [tuple(Fraction(i - 13, 1 + i % 5)
                            for i in range(j.dim)), random_point(j, s)]
        for a in points:
            rows = _int_rows(j.u_matrix(a))
            got = pullback(n2, rows, 0)
            # composing a dense 27-variable cubic term by term takes
            # seconds: the reference here is the nested substitution of
            # compose_mismatch, which TestComposeMismatch checks against
            # compose; over Z, since pullback is exact over Z
            assert compose_mismatch([n2], [linear_form(r) for r in rows],
                                    lambda _: got, 0) is None
            assert got.terms

    @pytest.mark.parametrize("name", ["j_lk_q", "j_lk_f5"])
    def test_componentwise_rho(self, name, request):
        j = request.getfixturevalue(name)
        b = j.meta["algebra"]
        rows = _int_rows(tits.componentwise_matrix(j, j, b.rho, b.rho))
        n2 = j.n_int[0]
        assert pullback(n2, rows, 0).terms == _nested_pullback(n2, rows).terms

    @pytest.mark.parametrize("terms", [
        [(0, 0, 0, 1)],                                 # x0^3
        [(0, 0, 1, -2)],                                # x0^2 x1
        [(0, 1, 1, 3)],                                 # x0 x1^2
        [(0, 1, 2, 5), (2, 2, 2, -1), (1, 1, 2, 4)]])
    def test_power_and_square_terms(self, terms):
        p = _cubic(terms)
        rows = [[2, -1, 0], [0, 3, -4], [1, 1, 1]]
        got = pullback(p, rows, 0)
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
            got = pullback(p, rows, 0)
            assert got.terms == _nested_pullback(p, rows).terms
        assert pullback(p, [[0] * 4] * 4, 0).terms == {}
        assert all(1 not in poly.indices(m)
                   for m in pullback(p, zero_col, 0).terms)

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
        assert pullback(p, rows, 0).terms == _nested_pullback(p, rows).terms

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_wide_entries(self, nvars, ncols, data):
        """Coefficients and entries in +-2^70: slots many bytes wide."""
        wide = st.integers(-2 ** 70, 2 ** 70)
        idx = st.integers(0, nvars - 1)
        terms = data.draw(st.lists(st.tuples(idx, idx, idx, wide),
                                   max_size=8))
        p = _cubic([tuple(sorted(t[:3])) + (t[3],) for t in terms])
        rows = data.draw(st.lists(
            st.lists(wide, min_size=ncols, max_size=ncols),
            min_size=nvars, max_size=nvars))
        assert pullback(p, rows, 0).terms == _nested_pullback(p, rows).terms

    def test_zero_row_with_nonzero_contraction(self):
        """Row 1 is zero while Q_12 and G_1 are not: the term's slices
        reach no T_a, and its share of the slot bound only widens the
        slots."""
        p = _cubic([(1, 2, 2, 5)])
        rows = [[1, 2], [0, 0], [30, -40]]
        assert pullback(p, rows, 0).terms == _nested_pullback(p, rows).terms
        assert pullback(p, rows, 0).terms == {}
        p = p + _cubic([(0, 0, 2, -3)])
        assert pullback(p, rows, 0).terms == _nested_pullback(p, rows).terms

    @pytest.mark.parametrize("e", [63, 64, 90])
    def test_entries_near_powers_of_two(self, e):
        big = 2 ** e
        p = _cubic([(0, 0, 0, 3), (0, 1, 2, -7), (1, 1, 2, 1),
                    (2, 2, 2, -2), (0, 2, 2, 5)])
        rows = [[big - 1, -big, 3], [-big + 1, big, -5],
                [7, -big - 1, big + 1]]
        assert pullback(p, rows, 0).terms == _nested_pullback(p, rows).terms
        rows = [[-big, -big + 1, big], [big - 1, 0, -big], [1, big, -1]]
        assert pullback(p, rows, 0).terms == _nested_pullback(p, rows).terms

    @pytest.mark.parametrize("m", [1, 255, 1000000, 2 ** 40 + 1])
    def test_same_sign_slot_at_bound(self, m):
        """p = 2 (x0^3 + x1^3 + x2^3) with every entry -m: the slot bound
        is B = 3 * 2 m^3 and every slot of every T_a is -6 m^3 = -B, the
        bound exactly, of one sign (bit length 63 at m = 1000000, so
        the 8-byte slots are full)."""
        p = _cubic([(i, i, i, 2) for i in range(3)])
        rows = [[-m] * 3] * 3
        got = pullback(p, rows, 0)
        assert got.terms == _nested_pullback(p, rows).terms
        s3 = _cubic([(i, j, k, 1) for i in range(3) for j in range(3)
                     for k in range(3)])    # (x0 + x1 + x2)^3
        assert got == -6 * m ** 3 * s3

    def test_no_variables_or_no_terms(self):
        """n = 0 and the empty form give the empty term dict."""
        assert pullback(Poly(), [], 0).terms == {}
        assert pullback(Poly(), [[]], 0).terms == {}
        assert pullback(_cubic([(0, 0, 0, 2)]), [[]], 0).terms == {}
        assert pullback(Poly(), [[1, -2], [3, 4]], 0).terms == {}

    @pytest.mark.parametrize("rows", [[[3], [-2]], [[0], [5]], [[-1], [0]]])
    def test_one_variable(self, rows):
        """n = 1: one pair and one triple, so every index table has a
        single real key."""
        p = _cubic([(0, 0, 0, 1), (0, 0, 1, -2), (0, 1, 1, 4),
                    (1, 1, 1, -3)])
        assert pullback(p, rows, 0).terms == _nested_pullback(p, rows).terms

    def test_zero_row_as_second_and_third_index(self):
        """A zero row j or k leaves its terms' contractions zero."""
        p = _cubic([(0, 1, 2, 3), (0, 2, 2, -1), (1, 1, 2, 2),
                    (0, 0, 1, 5)])
        for z in range(3):
            rows = [[1, -2, 3], [4, 0, -1], [-2, 5, 1]]
            rows[z] = [0, 0, 0]
            assert pullback(p, rows, 0).terms == \
                _nested_pullback(p, rows).terms
        # a zero row j still packs the row k of its term, so the bound
        # counts a zero row as 1, not 0
        for rows in ([[1, 1], [0, 0], [300, -300]],
                     [[2, -1], [0, 0], [-2 ** 40, 7]]):
            p = _cubic([(0, 1, 2, 3)])
            assert pullback(p, rows, 0).terms == {}
            p = p + _cubic([(0, 0, 2, -1)])
            assert pullback(p, rows, 0).terms == \
                _nested_pullback(p, rows).terms

    @pytest.mark.parametrize("e", [127, 128, 2 ** 15, 2 ** 63])
    def test_zero_coefficient_with_a_large_row(self, e):
        """A stored zero coefficient adds nothing to the slot bound, so
        its rows must not be packed: with the row [e] alone the form
        pulls back to nothing, and next to x0^3 the row of x1 stays out
        of the 1-byte slots that x0^3 at [1] needs."""
        zero = Poly({mono((0, 0, 0)): 0})
        assert pullback(zero, [[e]], 0).terms == {}
        p = Poly({mono((0, 0, 1)): 0, mono((0, 0, 0)): 1})
        assert pullback(p, [[1], [e]], 0).terms == {mono((0, 0, 0)): 1}

    @pytest.mark.parametrize("rows", [
        [[1], [2, 3]],          # short first row
        [[1, 2], [3]],          # short last row
        [[1, 2]]])              # no row for x1
    def test_malformed_rows_rejected(self, rows):
        p = _cubic([(0, 0, 1, 1), (1, 1, 1, 2)])
        with pytest.raises(AlbertLabError, match="one row per variable"):
            pullback(p, rows, 0)

    @pytest.mark.parametrize("p", [
        Poly({mono((0, 1)): 1}),
        Poly({mono((0, 0, 0)): 1, mono((1,)): 2}),
        Poly({mono((0, 0, 1, 1)): 3})])
    def test_non_cubic_rejected(self, p):
        with pytest.raises(AlbertLabError):
            pullback(p, [[1, 0], [0, 1]], 0)


def _pullback_over_z(monkeypatch):
    """Replace isotopy's pullback by the contraction over Z, unreduced in
    every characteristic, which its callers read mod the characteristic
    through their own _mod."""
    real = isotopy.pullback
    monkeypatch.setattr(isotopy, "pullback",
                        lambda p, rows, char: real(p, rows, 0))


class TestResiduePullback:
    """pullback(p, rows, char) over F_p: the contraction over Z read mod
    char, the rows read mod char before the slot bound is taken, and no
    zero residue kept."""

    @pytest.mark.parametrize("char", [2, 3, 5, 2 ** 61 - 1])
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_residues_of_the_integer_pullback(self, char, nvars, ncols,
                                              data):
        # negative entries and entries at or above char, in the form and
        # in the rows
        ints = st.integers(-3 * char, 3 * char)
        idx = st.integers(0, nvars - 1)
        terms = data.draw(st.lists(st.tuples(idx, idx, idx, ints),
                                   max_size=8))
        p = _cubic([tuple(sorted(t[:3])) + (t[3],) for t in terms])
        rows = data.draw(st.lists(
            st.lists(ints, min_size=ncols, max_size=ncols),
            min_size=nvars, max_size=nvars))
        got = pullback(p, rows, char)
        assert got.terms == _mod(pullback(p, rows, 0), char).terms
        assert all(0 < c < char for c in got.terms.values())

    @pytest.mark.parametrize("char", [2, 3, 5, 2 ** 61 - 1])
    def test_zero_residues_are_dropped(self, char):
        # (char x0)^3 and (char + 1)^3 x0^3 next to a term that stays
        p = _cubic([(0, 0, 0, 1), (1, 1, 1, 1)])
        assert pullback(p, [[char], [0]], char).terms == {}
        assert pullback(p, [[char], [char + 1]], char).terms == \
            {mono((0, 0, 0)): 1}
        assert pullback(p, [[char], [char + 1]], 0).terms == \
            {mono((0, 0, 0)): char ** 3 + (char + 1) ** 3}

    @pytest.mark.parametrize("char", [2, 5, 2 ** 61 - 1])
    def test_unreduced_rows_do_not_widen_the_slots(self, char,
                                                   monkeypatch):
        """Rows shifted by multiples of char give the slot bound of their
        residues, and the same result."""
        bounds = []
        real = poly._width
        monkeypatch.setattr(poly, "_width",
                            lambda b: bounds.append(b) or real(b))
        p = _cubic([(0, 0, 1, 3), (0, 1, 2, -1), (2, 2, 2, 1)])
        rows = [[1, 0, char - 1], [2 % char, 1, 0], [0, char - 1, 1]]
        shifted = [[e + k * char for k, e in enumerate(row, -4)]
                   for row in rows]
        assert pullback(p, shifted, char) == pullback(p, rows, char)
        assert bounds[0] == bounds[1]
        assert pullback(p, shifted, 0) != pullback(p, rows, 0)
        assert bounds[2] > bounds[3]

    @pytest.mark.parametrize("name", ["j_m3_f5", "j_lk_f5", "j_lk_f7",
                                      "iso_m3_f5"])
    def test_norm_similarity_verdicts_unchanged(self, name, request,
                                                monkeypatch):
        """The multipliers and witnesses of verify_norm_similarity over
        F_p, with the pullback read in residues and over Z: U-maps,
        scalar maps, an invertible map that is not a similarity, and on
        the second construction rho."""
        j = request.getfixturevalue(name)
        g = j.ground
        s = Stream(89)
        maps = [j.u_matrix(random_invertible(j, s)) for _ in range(3)]
        maps.append([[g.from_int(3) * e for e in row] for row in
                     linalg.identity(j.dim, g.one, g.zero)])
        bad = linalg.identity(j.dim, g.one, g.zero)
        bad[0][1], bad[3][7] = g.one, g.from_int(2)
        maps.append(bad)
        if name.startswith("j_lk"):
            b = j.meta["algebra"]
            maps.append(tits.componentwise_matrix(j, j, b.rho, b.rho))
        got = [verify_norm_similarity(LinearMap(j, j, m)) for m in maps]
        _pullback_over_z(monkeypatch)
        assert [verify_norm_similarity(LinearMap(j, j, m))
                for m in maps] == got
        assert [nu is None for nu, _ in got] == [m is bad for m in maps]


def _from_terms(terms):
    """The int Poly sum c x_i...x_j over (index tuple, c) terms."""
    out = {}
    for idx, c in terms:
        m = mono(tuple(sorted(idx)))
        out[m] = out.get(m, 0) + c
    return Poly({m: c for m, c in out.items() if c})


def _one_at_a_time(forms, args, target, char):
    """compose_mismatch's result by compose, one form at a time: the
    first k where forms[k](args) - target(k) is nonzero mod char, with
    that difference."""
    for k, p in enumerate(forms):
        d = compose(p, args) - target(k)
        if char:
            d = Poly({m: c % char for m, c in d.terms.items() if c % char})
        if d:
            return k, d
    return None


def _against_reference(forms, args, target, char):
    got = compose_mismatch(forms, args, target, char)
    assert got == _one_at_a_time(forms, args, target, char)
    return got


def _terms_of(nvars, degrees, coef):
    """Int Polys in nvars variables: up to 6 terms, each of a degree drawn
    from degrees, with coefficients drawn from coef."""
    idx = st.integers(0, nvars - 1)
    return st.lists(st.tuples(
        st.sampled_from(degrees).flatmap(
            lambda d: st.lists(idx, min_size=d, max_size=d)), coef),
        max_size=6).map(_from_terms)


class TestComposeMismatch:
    """Every slot of a packed run is read back by asking for the first
    mismatch with the targets of the forms before a cut set to their
    true compositions: the answer is then the first slot from the cut
    on that differs."""

    @given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_quadratic_forms(self, nvars, nargs, wide, data):
        coef = st.integers(-2 ** 70, 2 ** 70) if wide else \
            st.integers(-9, 9)
        forms = data.draw(st.lists(_terms_of(nvars, [2, 2, 1, 0], coef),
                                   min_size=1, max_size=6))
        args = data.draw(st.lists(_terms_of(nargs, [1, 2], coef),
                                  min_size=nvars, max_size=nvars))
        noise = data.draw(st.lists(_terms_of(nargs, [2, 3, 4], coef),
                                   min_size=len(forms), max_size=len(forms)))
        ref = [compose(p, args) for p in forms]
        for char in (0, 5):
            for cut in range(len(forms) + 1):
                _against_reference(
                    forms, args,
                    lambda k: ref[k] if k < cut else noise[k], char)
        assert _against_reference(forms, args, lambda k: ref[k], 0) is None

    @pytest.mark.parametrize("bits", [2, 8, 63, 64, 200])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("char", [0, 7])
    def test_slots_at_the_bound(self, bits, sign, char):
        """Forms 0..cut-1 are h x0^2 against the target h y0^2 (slot 0,
        slot bound 2 h = v - 1), the rest sign v x0^2 against 0 (slot and
        slot bound v = 2^bits - 1), with x0 -> y0: the run's bound is v,
        and every slot from the cut on holds sign v, of one sign."""
        v = 2 ** bits - 1
        h = (v - 1) // 2
        args = [_from_terms([((0,), 1)])]
        for cut in range(5):
            forms = [_from_terms([((0, 0), h if k < cut else sign * v)])
                     for k in range(5)]
            got = _against_reference(
                forms, args, lambda k: forms[k] if k < cut else Poly(), char)
            if not char:
                assert got == (cut, forms[cut]) if cut < 5 else got is None

    @pytest.mark.parametrize("v", [1, 5, 2 ** 64 - 1])
    def test_arg_terms_add_up_in_a_slot(self, v):
        """v x0^2 at x0 -> y0 - y1 gives v y0^2 - 2 v y0 y1 + v y1^2: the
        slot of y0 y1 is twice v, the largest coefficient of any form or
        arg, so the bound must add up the terms of each arg."""
        forms = [_from_terms([((0, 0), v)])] * 3
        args = [_from_terms([((0,), 1), ((1,), -1)])]
        ref = [p.eval(args) for p in forms]
        for cut in range(4):
            _against_reference(forms, args,
                               lambda k: ref[k] if k < cut else Poly(), 0)

    @pytest.mark.parametrize("values", [
        [-1, 1, -1, 1], [1, -1, 1, -1], [-5, 0, 7, -7, 1, 0],
        [-(2 ** 64 - 1), 2 ** 64 - 1, -1, 0, 1, -(2 ** 64 - 1)],
        [0, -1, 0, 0, -1, 1]])
    @pytest.mark.parametrize("char", [0, 5])
    def test_negative_slots_next_to_positive(self, values, char):
        """Form k is values[k] x0^2 + (k + 1) x0 x1 at x0 -> y0 + y1,
        x1 -> -y1: a packed value whose slots change sign from one to the
        next, read after every cut and with every target doubled, so each
        slot's difference is its negative."""
        forms = [_from_terms([((0, 0), c), ((0, 1), k + 1)])
                 for k, c in enumerate(values)]
        args = [_from_terms([((0,), 1), ((1,), 1)]),
                _from_terms([((1,), -1)])]
        ref = [p.eval(args) for p in forms]
        for cut in range(len(forms) + 1):
            _against_reference(forms, args,
                               lambda k: ref[k] if k < cut else Poly(), char)
            _against_reference(forms, args,
                               lambda k: ref[k] * (1 if k < cut else 2),
                               char)

    def test_runs_share_first_indices(self):
        # first indices {0, 1}, {0}, {1}, {2}, {}, {0}: a form joins a run
        # while its first indices are among those of the run's first form
        forms = [_from_terms(t) for t in (
            [((0, 2), 1), ((1, 1), 2)], [((0, 0), 3), ((1,), 4)],
            [((1, 2), 5)], [((2, 2), 6)], [((0,), 7)], [((0, 1), 8)])]
        assert _runs(forms) == [[0, 1, 2], [3, 4], [5]]


def _first_failing_coordinate(j):
    """x## = N(x) x composed one coordinate at a time by compose on j's
    int forms: n_den sh_i[i](sh_i) against s_den^3 n_i x_i mod the
    characteristic; the first failing coordinate and its lowest
    differing monomial, as the suite words its witness, or None."""
    sh_i, s_den = j.sharp_int
    n_i, n_den = j.n_int
    char = j.ground.char
    for i, p in enumerate(sh_i):
        d = n_den * compose(p, sh_i) - s_den ** 3 * (n_i * Poly.var(i, 1))
        low = [m for m, c in d.terms.items() if (c % char if char else c)]
        if low:
            return "coordinate %d, monomial %r" % (
                i, min(poly.indices(m) for m in low))
    return None


def test_corrupted_witness_matches_one_coordinate_at_a_time(six_fixtures):
    """corrupt_sharp at the first, a middle and the last coordinate of the
    longest run of the innermost construction's adjoint forms: the
    suite's adjoint_of_adjoint witness is the one-at-a-time reference's,
    prefixed "base: " on an isotope."""
    for j in six_fixtures:
        inner = j.base if isinstance(j, Isotope) else j
        run = max(_runs(inner.sharp_int[0]), key=len)
        for coord in sorted({run[0], run[len(run) // 2], run[-1]}):
            bad = corrupt_sharp(j, coord)
            rep = bad.axiom_suite()
            check = next(c for c in rep.checks
                         if c.name == "adjoint_of_adjoint")
            want = _first_failing_coordinate(
                bad.base if isinstance(j, Isotope) else bad)
            assert want is not None
            if isinstance(j, Isotope):
                want = "base: " + want
            assert (check.passed, check.witness) == (False, want), \
                (j.label, coord)
