"""Exact dense linear algebra.

Dimensions never exceed 27x27 here, so plain Gaussian elimination with
first-nonzero pivoting is both fast enough and deterministic (the same
input always yields the same echelon form and kernel basis), and
kernel_basis runs it on any scalar type with /, == and truthiness.
fixed_basis, the kernel basis of m - I, is the one route to the space a
square matrix fixes (a hermitian basis, the extended rho's fixed
subalgebra).

matmul and rank take matrices over a ground field only (every entry a
Fraction, or every entry an F_p scalar; scalars.ground_type refuses
anything else) and run through their int lifts (scalars.lift): a
product multiplies int rows by int columns and maps each entry back
once; a rank is Bareiss fraction-free elimination over Q (every division
exact) and elimination mod p over F_p.
"""

from fractions import Fraction
from operator import mul

from .scalars import from_int, ground_type, lift


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matvec(m, v):
    out = []
    for row in m:
        acc = None
        for a, b in zip(row, v):
            if not a:
                continue
            t = a * b
            acc = t if acc is None else acc + t
        if acc is None:
            acc = row[0] * v[0]  # zero of the right type
        out.append(acc)
    return out


def matmul(a, b):
    kind = ground_type([c for m in (a, b) for row in m for c in row])
    # each row of a and each column of b over its own denominator
    cols = [lift(c) for c in zip(*b)]
    out = []
    for r in a:
        ri, dr = lift(r)
        out.append([from_int(kind, sum(map(mul, ri, ci)), dr * dc)
                    for ci, dc in cols])
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _echelonize(m):
    """In-place reduced row echelon; returns list of pivot columns."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(m):
    kind = ground_type([c for row in m for c in row])
    # row scaling keeps the rank, so each row is lifted on its own
    return _rank_int([lift(r)[0] for r in m],
                     0 if kind is Fraction else kind.modulus)


def _rank_int(rows, p):
    """Rank of an int matrix over Q (p = 0) or of residues mod a prime p,
    by fraction-free elimination; the rows are overwritten.

    A step replaces each row below the pivot row by pivot * row - f * top.
    Over Q this is Bareiss: every entry is then a minor of the input
    (Sylvester's identity), so dividing by the previous pivot is exact.
    Over F_p the step is read mod p instead: multiplying a row by a
    nonzero residue keeps the rank, so no division is needed."""
    n = len(rows)
    r, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        a = top[c]
        for i in range(r + 1, n):
            f = rows[i][c]
            row = [(a * x - f * y) // prev for x, y in zip(rows[i], top)]
            rows[i] = [v % p for v in row] if p else row
        prev = 1 if p else a
        r += 1
    return r


def kernel_basis(m, one, zero):
    """Deterministic basis of the right kernel of m (echelon convention).

    There is one vector per free column c of the reduced echelon form: it
    has 1 at c, 0 at every other free column, and its other nonzero
    entries at pivot columns left of c, so c is its last nonzero entry."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    work = [list(r) for r in m]
    pivots = _echelonize(work)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            val = work[r][fc]
            if val:
                vec[pc] = -val
        basis.append(vec)
    return basis


def fixed_basis(m, one, zero):
    """kernel_basis of m - I: a deterministic basis of the vectors the
    square matrix m fixes, in kernel_basis's echelon convention."""
    return kernel_basis([[e - one if i == k else e for k, e in enumerate(row)]
                         for i, row in enumerate(m)], one, zero)
