"""Deterministic witness searches: norm-zero points, nilpotents, and
division falsification.

Candidate i of a random search is a pure function of (seed, i), and one
sequential scan returns the earliest-index witness, so reports are
byte-identical for a fixed seed.  The public searches keep their `jobs`
parameter only for callers that still pass it, and ignore it: the
predicates are pure-Python arithmetic, and worker threads made the scans
slower.

Every scan runs on ints from draw to verdict.  A candidate is the int
lift, with d = 1, of a point with coordinates in k: a random candidate
is drawn in one call (scalars.draw_ints) and equals the lift of the
point that ground.random draws from the same stream offset, and an
exhaustive one is read off the base-q digits of its index.  The
predicates evaluate the int forms that the structures cache (n_int,
_trace_data and the coefficient algebra's norm_int) at the candidate; a
value is zero when it is 0 over Q, or 0 mod p over F_p.  Only the hit is
mapped to ground scalars, and it is re-verified with a fresh
ground-field evaluation before it is returned.
"""

from operator import mul, not_

from .associative import MatrixAlgebra
from .errors import VerificationFailure
from .rng import Stream
from .scalars import draw_ints, lift


class SearchResult:
    """status is "witness" or "exhausted"; witness holds coordinates."""

    def __init__(self, status, witness=None, index=None, detail=None):
        self.status = status
        self.witness = witness
        self.index = index
        self.detail = detail

    @property
    def found(self):
        return self.status == "witness"

    def __repr__(self):
        return "SearchResult(%s, index=%r)" % (self.status, self.index)


def _candidates(ground, dim, seed):
    """Candidate i of a random scan of k^dim: the int lift of the dim
    coordinates that ground.random draws from
    Stream(seed, offset=i (dim + 2))."""
    stride = dim + 2
    return lambda i: draw_ints(ground, seed, i * stride, dim)


def _exhaustive_point(j, index):
    """Candidate number `index` of the exhaustive scan: coordinate t is
    base-q digit t of index, least significant digit first."""
    q = j.ground.order
    out = []
    for _ in range(j.dim):
        index, r = divmod(index, q)
        out.append(r)
    return out


def _is_zero(char):
    """v -> whether the int v is zero in characteristic char."""
    if not char:
        return not_
    return lambda v: not v % char


def _ground(g, xi):
    """The ground point with int lift xi (d = 1)."""
    return tuple(map(g.from_int, xi))


class _Best:
    """The earliest-index hit of a scan: index and witness, or None."""

    def __init__(self):
        self.index = None
        self.witness = None


def _scan(indices, candidate, predicate, best):
    for i in indices:
        x = candidate(i)
        if predicate(x):
            best.index, best.witness = i, x
            return


def _search(total, candidate, predicate):
    """Earliest-index i in range(total) with predicate(candidate(i))."""
    best = _Best()
    _scan(range(total), candidate, predicate, best)
    if best.index is None:
        return None
    return best.index, best.witness


def find_norm_zero(j, budget=10000, mode="random", seed=0, jobs=1):
    """Nonzero x with N(x) = 0, or exhaustion."""
    n_i, _ = j.n_int
    zero = _is_zero(j.ground.char)

    def predicate(xi):
        return any(xi) and zero(n_i.eval(xi))

    if mode == "exhaustive":
        if not j.ground.is_finite:
            raise VerificationFailure(
                "exhaustive search needs a finite ground field")
        total = j.ground.order ** j.dim
        hit = _search(total, lambda i: _exhaustive_point(j, i), predicate)
    else:
        hit = _search(budget, _candidates(j.ground, j.dim, seed), predicate)
    if hit is None:
        return SearchResult("exhausted")
    i, xi = hit
    x = _ground(j.ground, xi)
    if j.norm(x) or not any(x):
        raise VerificationFailure("norm-zero witness failed re-verification")
    return SearchResult("witness", witness=x, index=i)


def _structured_nilpotents(j):
    """Int lifts of known nilpotent classes, cheap to try before random
    draws."""
    meta = getattr(j, "meta", None)
    out = []
    if meta and meta["type"] == "first_tits" and \
            isinstance(meta["algebra"], MatrixAlgebra):
        d_alg = meta["algebra"]
        c = d_alg.center
        e12 = tuple(c.one if i == 1 else c.zero for i in range(9))
        coords, _ = lift(d_alg.to_k_coords(e12))
        out.append(coords + [0] * (j.dim - len(coords)))
    return out


def find_nilpotent(j, budget=100000, seed=0, jobs=1):
    """Nonzero x with T(x) = S(x) = N(x) = 0, tested on the int trace
    data and norm form at x's lift; the hit alone is re-verified with
    j.is_nilpotent and U_x(x) = x^3 = 0."""
    n_i, _ = j.n_int
    t, s, _ = j._trace_data
    zero = _is_zero(j.ground.char)

    def predicate(xi):
        return any(xi) and zero(sum(map(mul, t, xi))) and \
            zero(s.eval(xi)) and zero(n_i.eval(xi))

    xi = next(filter(predicate, _structured_nilpotents(j)), None)
    if xi is not None:
        i, detail = -1, "structured candidate"
    else:
        hit = _search(budget, _candidates(j.ground, j.dim, seed), predicate)
        if hit is None:
            return SearchResult("exhausted")
        (i, xi), detail = hit, None
    x = _ground(j.ground, xi)
    if not any(x) or not j.is_nilpotent(x) or any(j.u_op(x, x)):
        raise VerificationFailure("nilpotent witness failed re-verification")
    return SearchResult("witness", witness=x, index=i, detail=detail)


def division_falsify(j, budget=10000, mode="random", seed=0, jobs=1):
    """Evidence that j is not a division structure.

    Two witness kinds: a preimage of the construction scalar under the
    coefficient-algebra norm (lambda = N_D(w), respectively mu = N_B(w),
    makes the construction split), or a nonzero norm-zero element of j
    itself.  Preimages found for first constructions are converted into
    explicit norm-zero elements (-w, 1, 0).  In exhaustive mode only
    the carrier is scanned, with no preimage draws.
    """
    meta = getattr(j, "meta", None) if mode == "random" else None
    pre_budget = budget // 2
    if meta and meta["type"] == "first_tits":
        d_alg = meta["algebra"]
        lam = meta["lam"]
        hit = _preimage_search(d_alg, lam, pre_budget, seed)
        if hit is not None:
            i, w = hit
            jw = _first_split_witness(j, d_alg, w)
            if j.norm(jw):
                raise VerificationFailure(
                    "derived norm-zero element failed re-verification")
            return SearchResult(
                "witness", witness=jw, index=i,
                detail="norm preimage of lambda in D; converted to the "
                       "norm-zero element (-w, 1, 0)")
    elif meta and meta["type"] == "second_tits":
        b_alg = meta["algebra"]
        mu = meta["mu"]
        hit = _preimage_search(b_alg, mu, pre_budget, seed)
        if hit is not None:
            i, w = hit
            return SearchResult(
                "witness", witness=tuple(b_alg.to_k_coords(w)), index=i,
                detail="norm preimage of mu in B (coordinates over k)")
    res = find_norm_zero(j, budget=budget, mode=mode, seed=seed)
    if res.found and res.detail is None:
        res.detail = "nonzero element with N = 0"
    return res


def _preimage_search(alg, value, budget, seed):
    """Earliest (i, w) with N(w) = value over the random candidates of
    alg, drawn at offset i (k_dim + 2) of the "preimage" substream of
    seed, tested on alg.norm_int and re-verified with alg.norm."""
    base = Stream(seed).derive("preimage").seed
    hit = _search(budget, _candidates(alg.ground, alg.k_dim, base),
                  _norm_is(alg, value))
    if hit is None:
        return None
    i, xi = hit
    w = alg.from_k_coords(_ground(alg.ground, xi))
    if alg.norm(w) != value:
        raise VerificationFailure("norm preimage failed re-verification")
    return i, w


def _norm_is(alg, value):
    """Predicate (xi, d=1) -> N(w) == value on the int forms of
    alg.norm_int, for the int lift xi / d of w's k-coordinates
    (scalars.lift; a scan's candidates have d = 1).

    With the center coordinates of value equal to t / t_den, coordinate
    i of N(w) is forms[i](xi) / (den d^3), so the test is
    forms[i](xi) t_den == t[i] den d^3, read mod the characteristic."""
    forms, den = alg.norm_int()
    t, t_den = lift(alg.center.to_k_coords(value))
    pairs = list(zip(forms, t))
    zero = _is_zero(alg.ground.char)

    def predicate(xi, d=1):
        scale = den * d ** 3
        for f, ti in pairs:
            if not zero(f.eval(xi) * t_den - ti * scale):
                return False
        return True

    return predicate


def _first_split_witness(j, d_alg, w):
    """(-w, 1, 0) has J-norm -N(w) + lambda = 0 when N_D(w) = lambda."""
    g = j.ground
    neg = d_alg.smul(-g.one, w)
    coords = d_alg.to_k_coords(neg) + d_alg.to_k_coords(d_alg.unit())
    return tuple(coords + [g.zero] * (j.dim - len(coords)))
