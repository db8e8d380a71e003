"""Exact dense linear algebra.

Dimensions never exceed 27x27 here, so plain Gaussian elimination with
first-nonzero pivoting is both fast enough and deterministic (the same
input always yields the same echelon form and kernel basis).
fixed_basis, the kernel basis of m - I, is the one route to the space a
square matrix fixes (a hermitian basis, the extended rho's fixed
subalgebra).

matmul, rank and kernel_basis take matrices over a ground field only
(every entry a Fraction, or every entry an F_p scalar;
scalars.ground_type refuses anything else) and run through their int
lifts (scalars.lift): a product multiplies int rows by int columns and
maps each entry back once; rank and kernel_basis share one elimination
(_echelon), Bareiss fraction-free elimination over Q (every division
exact) and elimination mod p over F_p, and a kernel vector is
back-substituted on ints over one denominator and mapped back once.
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


def rank(m):
    kind = ground_type([c for row in m for c in row])
    # row scaling keeps the rank, so each row is lifted on its own
    return len(_echelon([lift(r)[0] for r in m],
                        0 if kind is Fraction else kind.modulus))


def _echelon(rows, p):
    """The pivot columns of an int matrix over Q (p = 0) or of residues
    mod a prime p, by fraction-free elimination; the rows are overwritten
    by a row echelon form, row r with its pivot at the r-th pivot column.

    A step replaces each row below the pivot row by pivot * row - f * top.
    Over Q this is Bareiss: every entry is then a minor of the input
    (Sylvester's identity), so dividing by the previous pivot is exact.
    Over F_p each pivot row is first scaled to pivot 1, so the step is
    row - f * top, read mod p."""
    n = len(rows)
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p:
            inv = pow(rows[r][c], -1, p)
            rows[r] = [x * inv % p for x in rows[r]]
        top = rows[r]
        a = top[c]
        for i in range(r + 1, n):
            f = rows[i][c]
            row = [(a * x - f * y) // prev for x, y in zip(rows[i], top)]
            rows[i] = [v % p for v in row] if p else row
        prev = a
        pivots.append(c)
    return pivots


def kernel_basis(m):
    """Deterministic basis of the right kernel of a ground matrix m
    (echelon convention); [] when m has no entries.

    There is one vector per free column c (a column without a pivot in
    _echelon's form of the row lifts): it has 1 at c, 0 at every other
    free column, and its other nonzero entries at pivot columns left of
    c, so c is its last nonzero entry.  Only one kernel vector is 1 at c
    and 0 at the other free columns, so it is the reduced echelon form's
    too.  It is back-substituted on ints over one denominator, from the
    last pivot row left of c up: each such row is solved for the entry
    at its pivot column after every entry is scaled by its pivot (1 over
    F_p, where the entries are read mod p); each entry is mapped back
    once."""
    entries = [c for row in m for c in row]
    if not entries:
        return []
    kind = ground_type(entries)
    p = 0 if kind is Fraction else kind.modulus
    rows = [lift(r)[0] for r in m]
    pivots = _echelon(rows, p)
    cols = len(m[0])
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v, den = [0] * cols, 1
        v[fc] = 1
        for row, pc in reversed([(row, pc) for row, pc in zip(rows, pivots)
                                 if pc < fc]):
            a = row[pc]
            s = sum(map(mul, row[pc + 1:fc + 1], v[pc + 1:fc + 1]))
            v = [a * e for e in v]
            den *= a
            v[pc] = -s % p if p else -s
        basis.append([from_int(kind, e, den) for e in v])
    return basis


def fixed_basis(m):
    """kernel_basis of m - I: a deterministic basis of the vectors the
    square ground matrix m fixes, in kernel_basis's echelon convention."""
    return kernel_basis([[e - 1 if i == k else e for k, e in enumerate(row)]
                         for i, row in enumerate(m)])
