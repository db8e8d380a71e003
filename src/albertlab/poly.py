"""Sparse multivariate polynomials with exact coefficients.

A monomial is one packed int: the low byte holds the total degree and
byte i + 1 the exponent of x_i, so x0^2 * x2 = mono((0, 0, 2)) =
3 + (2 << 8) + (1 << 24) and 0 is the constant monomial.  A product of
monomials is a single int addition (Monagan and Pearce's packed exponent
vectors); __mul__ refuses products of degree above 255, so no byte ever
carries into its neighbour.  indices(m) unpacks a monomial into the
sorted tuple of its variable indices with repetition, e.g. (0, 0, 2),
and every deterministic order (dumps, repr, witnesses) sorts by it.

Coefficients are ground-field scalars (Fraction or mod-p ints) or plain
ints; zero coefficients are never stored, so equality is dict equality.
No code changes a Poly's term dict once the Poly is built: every
operation returns a new Poly, and eval, which evaluates at a point only,
caches a plan of the terms on that assumption.
A Poly adds, subtracts and multiplies only with another Poly, an int or
a Fraction; any other operand gets NotImplemented (an extension Elem
then handles a product itself).

Forms are composed on ints by two functions that pack many int
coefficients into the signed byte slots of one int (Kronecker
substitution) and share one slot rule (_width, _pack, _unpack): every
slot is bounded exactly before packing, so no slot borrows from its
neighbour, and since only ints are added and multiplied the results are
exact over Z and so, read by _mod, in every characteristic.  Slots are
1, 2, 4 or 8 bytes wide where that suffices, written and read by one
cached struct codec per slot count (_codec), and wider only for larger
bounds, read slot by slot.
pullback(p, rows) pulls a homogeneous cubic int form back through an
int matrix as a dense contraction on ints; the norm-similarity
certificate uses it, since its matrices are nearly full and a sparse
substitution pays one dict update per term product.  All three modes
of the contraction run on packed ints: each matrix row is packed once,
the third mode is one multiply-add of a packed row per term, the second
one multiply-add per row of the result's slices, and the first one per
matrix row; every slot stays within one bound, B = sum |c| m_i m_j m_k
over the terms c x_i x_j x_k, m_r the largest |entry| of row r or 1.
Each slice of the result is unpacked once, folded over its symmetric
pair of modes, and each monomial gathers its at most three entries
through index tables built once per number of variables.
compose_mismatch(forms, args, target, char) packs over the output: it
finds the first form whose composition at args differs from its target,
substituting a run of forms at once (_runs: a form joins the run while
the first indices of its terms are among those of the run's first form)
by one nested substitution (_subst_into) of a term dict whose
coefficients hold one form each in a slot.  In characteristic 0 a run
whose packed differences are all 0 is never unpacked; otherwise the
differences are read slot by slot through _mod, so the first failing
form and its difference are those of composing the forms one at a time.
The axiom suite's x## = N(x) x, its composed N(x#) = N(x)^2 and the
isotope's (U_w y)# = U_{w#} y# are proved through it.

The int-form helpers live here too: _int_scaled turns ground polys into
int forms over one denominator (through scalars.lift), _mod reads an
int form in a characteristic, and _lowest names the lowest monomial of
a difference that _mod left nonzero.  The cubic structures (cubic,
isotopy) and the coefficient algebras (associative) build and compare
their int forms with them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add, itemgetter, mul
from struct import Struct

from .errors import AlbertLabError
from .scalars import lift

MAX_DEGREE = 255


def mono(idx):
    """The packed monomial prod(x_i for i in idx), repetition allowed."""
    if len(idx) > MAX_DEGREE:
        raise AlbertLabError("monomial degree %d exceeds %d"
                             % (len(idx), MAX_DEGREE))
    m = len(idx)
    for i in idx:
        m += 1 << (8 * i + 8)
    return m


@lru_cache(maxsize=None)
def indices(m):
    """Sorted variable indices of the packed monomial m, with repetition."""
    out = []
    i = 0
    m >>= 8
    while m:
        out += [i] * (m & 255)
        m >>= 8
        i += 1
    return tuple(out)


def _order(m):
    """Sort key: degree first, then the index tuple."""
    return m & 255, indices(m)


def _max_degree(terms):
    return max(m & 255 for m in terms)


def _mul_into(out, a, b, c):
    """out += c * a * b for term dicts a and b; zeros stay in out."""
    if a and b and _max_degree(a) + _max_degree(b) > MAX_DEGREE:
        raise AlbertLabError("product degree exceeds %d" % MAX_DEGREE)
    if len(a) > len(b):
        a, b = b, a
    for m1, c1 in a.items():
        c1 = c * c1
        for m2, c2 in b.items():
            m = m1 + m2
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2


_ONE = {0: 1}


def _nonzero(out):
    """A Poly on the dict out, with its zero coefficients deleted."""
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return Poly(out)


class Poly:
    __slots__ = ("terms", "_plan")

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}
        self._plan = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def const(c):
        return Poly({0: c}) if c else Poly()

    @staticmethod
    def var(i, one):
        return Poly({mono((i,)): one})

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
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._add_terms({0: other}, +1) if other else self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self._add_terms(other.terms, -1)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._add_terms({0: other}, -1) if other else self

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            _mul_into(out, self.terms, other.terms, 1)
            return _nonzero(out)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if type(other) is Fraction and other.denominator == 1:
            # an integral factor keeps int coefficients ints
            other = other.numerator
        # over F_p a nonzero c * other can still be zero: keep no zero
        return _nonzero({m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if not other:
            return not self.terms
        return self.terms == {0: other}

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms, key=_order):
            name = "*".join("x%d" % i for i in indices(m)) or "1"
            bits.append("%s*%s" % (self.terms[m], name))
        return "Poly(%s)" % " + ".join(bits)

    # -- queries ----------------------------------------------------------

    def is_homogeneous(self, d):
        return all(m & 255 == d for m in self.terms)

    def coefficient(self, m):
        """Coefficient of the packed monomial m, or None."""
        return self.terms.get(m)

    # -- evaluation / substitution ----------------------------------------

    def eval(self, args):
        """The value at the point args (ground scalars or ints), variable
        i taking args[i]: the int 0 plus the sum of c * prod(args) over
        the terms, so the int 0 when self has no terms.

        The terms are read from a plan built at the first evaluation and
        kept, which is sound because a Poly's terms never change after
        construction: rows (c, i), (c, i, j) and (c, i, j, k) for the
        terms of degree 1, 2 and 3, each degree summed by one loop that
        unpacks its rows, and (c, indices(m)) pairs for the terms of any
        other degree, summed by a general loop over the indices."""
        plan = self._plan
        if plan is None:
            plan = self._plan = _point_plan(self.terms)
        r1, r2, r3, rest = plan
        total = 0
        for c, i in r1:
            total = total + c * args[i]
        for c, i, j in r2:
            total = total + c * args[i] * args[j]
        for c, i, j, k in r3:
            total = total + c * args[i] * args[j] * args[k]
        for c, idx in rest:
            for i in idx:
                c = c * args[i]
            total = total + c
        return total


def _point_plan(terms):
    """The plan of Poly.eval: the rows (c, *indices) of the terms of
    degree 1, 2 and 3, and the (c, indices) pairs of the terms of every
    other degree."""
    rows = {1: [], 2: [], 3: []}
    rest = []
    for m, c in terms.items():
        idx = indices(m)
        if len(idx) in rows:
            rows[len(idx)].append((c, *idx))
        else:
            rest.append((c, idx))
    return rows[1], rows[2], rows[3], rest


def _subst_into(out, terms, args):
    """out += (the term dict `terms` with the int Polys args substituted),
    nested down to linear terms: the terms of degree 2 or more are grouped
    by their first index i, terms = sum_i x_i L_i + (terms of degree at
    most 1), and each L_i is substituted the same way, stripped of its
    zero sums and multiplied by args[i] once, straight into out.  So a
    quadratic form costs one linear combination of the args per first
    index and no product args[i] * args[j] per term; zeros stay in out."""
    groups = {}
    for m, c in terms.items():
        if m & 255 >= 2:
            # m = x_i * rest: drop one x_i and one from the degree byte
            i = indices(m)[0]
            groups.setdefault(i, {})[m - (1 << (8 * i + 8)) - 1] = c
        else:
            _mul_into(out, args[indices(m)[0]].terms if m else _ONE, _ONE, c)
    for i, rest in groups.items():
        q = {}
        _subst_into(q, rest, args)
        _mul_into(out, {m: v for m, v in q.items() if v}, args[i].terms, 1)


def _integral_as_int(p):
    """p with every integral Fraction coefficient held as its int
    numerator; an equal Poly."""
    return Poly({m: c.numerator if type(c) is Fraction and c.denominator == 1
                 else c for m, c in p.terms.items()})


def variables(n, one):
    """Polynomials x0..x_{n-1} with the given scalar one as coefficient."""
    return [Poly.var(i, one) for i in range(n)]


def linear_form(coeffs):
    """sum_n coeffs[n] x_n; zero coefficients are skipped."""
    return Poly({mono((n,)): c for n, c in enumerate(coeffs) if c})


def linear_combination(coeffs, polys):
    """sum c p over the scalars coeffs and the Polys polys, accumulated in
    one dict; a zero c is skipped."""
    out = {}
    for c, p in zip(coeffs, polys):
        if c:
            for m, e in p.terms.items():
                out[m] = out[m] + c * e if m in out else c * e
    return _nonzero(out)


# -- int forms --------------------------------------------------------------

def _int_scaled(polys):
    """Scale ground polys by the lcm of all denominators; int coeffs.

    Over Q this clears denominators.  F_p scalars are ints with
    denominator 1, so over F_p it lifts the residues unchanged; reduce
    with _mod before comparing results."""
    coeffs, den = lift([c for p in polys for c in p.terms.values()])
    it = iter(coeffs)
    return [Poly({m: next(it) for m in p.terms}) for p in polys], den


def _mod(p, char):
    """Int poly p read in characteristic char: coefficients reduced mod
    char and zeros dropped; p itself in characteristic 0."""
    if not char:
        return p
    return Poly({m: c % char for m, c in p.terms.items() if c % char})


def _lowest(p):
    """The index tuple of the lowest monomial of a nonzero Poly, in the
    order of indices: the monomial a failed comparison names."""
    return indices(min(p.terms, key=indices))


def _width(bound):
    """The slot width nb, in bytes, of the one slot rule of pullback and
    compose_mismatch: the least of 1, 2, 4 and 8 with bound < 2^(8 nb - 1),
    else the least nb with that.  A slot holds a signed v, |v| <= bound,
    as the byte digit v + 2^(8 nb - 1), so the packed int
    sum_k v_k 2^(8 nb k) plus the offset sum_k 2^(8 nb - 1) 2^(8 nb k)
    (_codec) has those digits: no slot borrows from its neighbour while
    every slot of every int combination formed stays within bound."""
    nb = (bound.bit_length() + 8) // 8
    return 1 << (nb - 1).bit_length() if nb <= 8 else nb


_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


@lru_cache(maxsize=256)
def _codec(count, nb):
    """(codec, offset) for count slots of nb bytes (_width): the offset,
    and a struct.Struct of count signed little-endian nb-byte ints, or
    None when the slots are wider than 8 bytes.  Plus the offset, slot k
    of a packed int has the digit v_k + 2^(8 nb - 1); xor with the offset
    flips the top bit of every slot, which makes that digit v_k mod
    2^(8 nb), the two's complement that the codec and int.to_bytes read
    and write, and back."""
    off = int.from_bytes((1 << (8 * nb - 1)).to_bytes(nb, "little") * count,
                         "little")
    code = _CODES.get(nb)
    return (Struct("<%d%s" % (count, code)) if code else None), off


def _pack(values, nb):
    """sum_k values[k] 2^(8 nb k) for ints |values[k]| < 2^(8 nb - 1),
    written into one byte string by the codec (_codec), or value by value
    when the slots are wider than 8 bytes."""
    codec, off = _codec(len(values), nb)
    if codec:
        buf = codec.pack(*values)
    else:
        buf = b"".join([v.to_bytes(nb, "little", signed=True)
                        for v in values])
    return (int.from_bytes(buf, "little") ^ off) - off


def _unpack(v, count, nb):
    """The count signed nb-byte slots of the packed int v, in order, as a
    tuple read from one to_bytes by the codec (_codec), or slot by slot
    when the slots are wider than 8 bytes."""
    codec, off = _codec(count, nb)
    buf = ((v + off) ^ off).to_bytes(count * nb, "little")
    if codec:
        return codec.unpack(buf)
    return tuple([int.from_bytes(buf[s:s + nb], "little", signed=True)
                  for s in range(0, count * nb, nb)])


@lru_cache(maxsize=8)
def _pullback_tables(n):
    """(size, fold, gather, monos): the index tables of pullback for n
    variables.

    The folded T_a are laid end to end in one list, T_a at a * size for
    size = n(n + 1)/2 + 1: its entry for the pair b <= c at the pair's
    index in the order (0, 0), (0, 1), ..., (n - 1, n - 1), then one 0.
    fold is the itemgetter pair (up, lo) that folds a T_a unpacked with
    one slot past its n^2 (that slot reads 0): entry (b, c) is slot
    b n + c plus slot c n + b, or plus the zero slot when b = c, and the
    last entry adds the zero slot to itself.  gather holds three
    itemgetters over the laid-out list, one key per sorted triple
    a <= b <= c: the coefficient of x_a x_b x_c is entry (b, c) of T_a,
    plus (a, c) of T_b when b != a and (a, b) of T_c when c != b, a
    missing term reading the last entry of T_0.  monos holds the
    triples' monomials in the same order.  Every getter has one extra
    key, a zero entry, so it has at least two keys and returns a tuple;
    the gathered values are zipped with monos, which drops that one."""
    pairs = list(combinations_with_replacement(range(n), 2))
    index = {bc: k for k, bc in enumerate(pairs)}
    size = len(pairs) + 1
    zero = n * n
    fold = (itemgetter(*[b * n + c for b, c in pairs], zero),
            itemgetter(*[c * n + b if b != c else zero for b, c in pairs],
                       zero))
    keys = ([], [], [])
    monos = []
    for a, b, c in combinations_with_replacement(range(n), 3):
        keys[0].append(a * size + index[b, c])
        keys[1].append(b * size + index[a, c] if b != a else size - 1)
        keys[2].append(c * size + index[a, b] if c != b else size - 1)
        monos.append(mono((a, b, c)))
    gather = tuple(itemgetter(*k, size - 1) for k in keys)
    return size, fold, gather, tuple(monos)


def pullback(p, rows):
    """p(F x) for a homogeneous cubic int form p and an int matrix F
    whose row r holds the coefficients of coordinate r of F x.

    rows must hold one row per variable index of p, all of one length n
    (the number of variables of the result); anything else is an
    AlbertLabError.

    A dense contraction whose three modes all run on packed ints: with
    p = sum c_ijk x_i x_j x_k, p(F x) = sum T_a[b, c] x_a x_b x_c for
    T_a[b, c] = sum_i rows[i][a] sum_j rows[j][b] sum_k c_ijk rows[k][c].
    Each row K_k = rows[k] is packed once (_pack), n slots; then
    Q_ij = sum_k c_ijk K_k over the terms of index prefix (i, j) is one
    multiply-add per term, row b of G_i is sum_j rows[j][b] Q_ij, and the
    rows of G_i are joined by shift-add into P_i, slot b n + c holding
    G_i[b, c]; T_a = sum_i rows[i][a] P_i is one multiply-add per packed
    i.  Terms with a zero coefficient contribute nothing and are
    skipped.  Each T_a is unpacked once (_unpack) and folded to its
    n(n + 1)/2 pairs b <= c, T_a[b, c] + T_a[c, b] when b != c, since both
    land on one monomial; each monomial then gathers its at most three
    folded entries (_pullback_tables).

    The slot bound: with m_r = max(1, max |rows[r]|) and
    B = sum |c_ijk| m_i m_j m_k over the terms kept, every slot of every
    packed value formed is at most B in absolute value.  A slot of Q_ij
    is at most sum_k |c_ijk| m_k, one of G_i at most
    sum_j m_j sum_k |c_ijk| m_k, one of T_a at most B, and each partial
    sum of these at most its full sum of absolute values; as every
    m_r >= 1, each is at most B.  A packed row K_k is kept only for a
    term with |c_ijk| >= 1, so its slots, at most m_k, are at most B too.
    The slots are _width(B) bytes wide.  The term dict equals that of
    substituting the linear forms of rows into p term by term."""
    if not p.is_homogeneous(3):
        raise AlbertLabError("pullback needs a homogeneous cubic form")
    n = len(rows[0]) if rows else 0
    top = max((indices(m)[2] for m in p.terms), default=-1)
    if len(rows) <= top or any(len(row) != n for row in rows):
        raise AlbertLabError("pullback needs one row per variable of the "
                             "form, all of one length")
    mags = [max(1, max(map(abs, row), default=0)) for row in rows]
    kept = []
    bound = 0
    for m, c in p.terms.items():
        i, j, k = indices(m)
        if c:
            kept.append((i, j, k, c))
            bound += abs(c) * mags[i] * mags[j] * mags[k]
    if not kept or not n:
        return Poly()
    nb = _width(bound)
    packed = {}
    q = {}
    for i, j, k, c in kept:
        if k not in packed:
            packed[k] = _pack(rows[k], nb)
        qi = q.setdefault(i, {})
        qi[j] = qi.get(j, 0) + c * packed[k]
    cols = list(zip(*rows))
    shift = 8 * nb * n
    ps = {}
    for i, qi in q.items():
        pi = 0
        for b, col in enumerate(cols):
            row = sum(map(mul, map(col.__getitem__, qi), qi.values()))
            pi += row << (shift * b)
        ps[i] = pi
    size, (up, lo), gather, monos = _pullback_tables(n)
    flat = []
    for col in cols:
        vals = _unpack(sum(map(mul, map(col.__getitem__, ps), ps.values())),
                       n * n + 1, nb)
        flat += map(add, up(vals), lo(vals))
    g1, g2, g3 = gather
    coeffs = map(add, map(add, g1(flat), g2(flat)), g3(flat))
    return Poly({m: v for m, v in zip(monos, coeffs) if v})


def _runs(forms):
    """The runs of compose_mismatch, as lists of consecutive indices into
    forms: a form joins the current run when the first indices of its
    terms of degree 2 or more are all among those of the run's first
    form, and starts a new run otherwise."""
    runs = []
    for k, p in enumerate(forms):
        first = {indices(m)[0] for m in p.terms if m & 255 >= 2}
        if runs and first <= runs[-1][0]:
            runs[-1][1].append(k)
        else:
            runs.append((first, [k]))
    return [run for _, run in runs]


def compose_mismatch(forms, args, target, char):
    """The first k where forms[k](args) - target(k), read in
    characteristic char (_mod), is nonzero, as (k, that difference), or
    None; forms, args and the targets are int Polys.  target(k) is called
    once per k, when the run holding k is reached, so only one run's
    targets are held at a time.

    The forms are substituted a run (_runs) at a time, by one nested
    substitution (_subst_into) of a packed term dict: its coefficient at a
    monomial is sum_s c_s 2^(8 nb s), c_s the coefficient of the run's
    s-th form, the int _pack would give for those coefficients (built
    term by term, since most monomials occur in few of the run's forms).
    Each L_i of the substitution is then formed and multiplied by args[i]
    once for the whole run, not once per form; a form whose first indices
    are all those of the run adds no such product.

    Every value the substitution forms is linear in the packed
    coefficients with int multipliers, so its slot s is the value the s-th
    form alone would give.  With r_i the sum of the absolute coefficients
    of args[i], at least 1, no slot of any partial sum, and no slot of the
    difference, exceeds bound = the largest, over the run's forms, of
    (sum over the terms c x_i...x_j of |c| r_i...r_j) + (largest
    |coefficient| of the target); the slots are _width(bound) bytes wide,
    so a packed value is 0 only when all its slots are.  In
    characteristic 0 a run whose packed differences are all 0 is done
    without unpacking; otherwise its differences are unpacked (_unpack)
    and each slot is read through _mod, in order.  The result, witness
    included, is that of substituting each form alone."""
    weights = [max(1, sum(map(abs, a.terms.values()))) for a in args]
    for run in _runs(forms):
        targets = [target(k).terms for k in run]
        bound = 0
        for k, t in zip(run, targets):
            b = max(map(abs, t.values()), default=0)
            for m, c in forms[k].terms.items():
                for i in indices(m):
                    c *= weights[i]
                b += abs(c)
            bound = max(bound, b)
        nb = _width(bound)
        packed = {}
        for s, k in enumerate(run):
            for m, c in forms[k].terms.items():
                packed[m] = packed.get(m, 0) + (c << (8 * nb * s))
        out = {}
        _subst_into(out, packed, args)
        for s, t in enumerate(targets):
            for m, c in t.items():
                out[m] = out.get(m, 0) - (c << (8 * nb * s))
        if not char and not any(out.values()):
            continue
        slots = [{} for _ in run]
        for m, v in out.items():
            if v:
                for d, e in zip(slots, _unpack(v, len(run), nb)):
                    if e:
                        d[m] = e
        for k, d in zip(run, slots):
            diff = _mod(Poly(d), char)
            if diff:
                return k, diff
    return None


# -- serialization of cubic forms and quadratic maps ------------------------

def dump_cubic_form(p, ground):
    """Lines "i j l coeff", lexicographically sorted; degree-3 terms only."""
    if not p.is_homogeneous(3):
        raise AlbertLabError("not a homogeneous cubic form")
    lines = []
    for m in sorted(p.terms, key=indices):
        lines.append("%d %d %d %s"
                     % (indices(m) + (ground.to_str(p.terms[m]),)))
    return "\n".join(lines) + "\n"


def dump_quad_map(polys, ground):
    """Lines "m i j coeff" for output coordinate m, sorted."""
    lines = []
    for m, p in enumerate(polys):
        if not p.is_homogeneous(2):
            raise AlbertLabError("output %d is not homogeneous quadratic" % m)
        for mo in sorted(p.terms, key=indices):
            lines.append("%d %d %d %s" % ((m,) + indices(mo)
                                          + (ground.to_str(p.terms[mo]),)))
    return "\n".join(lines) + "\n"
