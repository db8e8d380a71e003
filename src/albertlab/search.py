"""Deterministic witness searches: norm-zero points, nilpotents, and
division falsification.

Candidate i of a random search is a pure function of (seed, i), and one
sequential scan returns the earliest-index witness, so reports are
byte-identical for a fixed seed.  The public searches keep their `jobs`
parameter only for callers that still pass it, and ignore it: the
predicates are pure-Python arithmetic, and worker threads made the scans
slower.  The norm-preimage predicate of division falsification evaluates
the coefficient algebra's int norm forms (norm_int) at the candidate's
int lift.  Every witness is re-verified with a fresh evaluation before
it is returned.
"""

from .associative import MatrixAlgebra
from .errors import VerificationFailure
from .rng import Stream
from .scalars import lift


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


def point_at(j, seed, index):
    """Candidate number `index` of the random search stream."""
    return j.random_point(Stream(seed, offset=index * (j.dim + 2)))


def _exhaustive_point(j, index):
    """Candidate number `index` of the exhaustive scan (base-q digits)."""
    q = j.ground.order
    out = []
    for _ in range(j.dim):
        out.append(j.ground.from_int(index % q))
        index //= q
    return tuple(out)


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
    j.expand_symbolic()

    def predicate(x):
        return any(x) and not j.norm(x)

    if mode == "exhaustive":
        if not j.ground.is_finite:
            raise VerificationFailure(
                "exhaustive search needs a finite ground field")
        total = j.ground.order ** j.dim
        hit = _search(total, lambda i: _exhaustive_point(j, i), predicate)
    else:
        hit = _search(budget, lambda i: point_at(j, seed, i), predicate)
    if hit is None:
        return SearchResult("exhausted")
    i, x = hit
    if j.norm(x) or not any(x):
        raise VerificationFailure("norm-zero witness failed re-verification")
    return SearchResult("witness", witness=x, index=i)


def _structured_nilpotents(j):
    """Known nilpotent classes, cheap to try before random draws."""
    meta = getattr(j, "meta", None)
    out = []
    if meta and meta["type"] == "first_tits" and \
            isinstance(meta["algebra"], MatrixAlgebra):
        d_alg = meta["algebra"]
        c = d_alg.center
        e12 = tuple(c.one if i == 1 else c.zero for i in range(9))
        coords = d_alg.to_k_coords(e12)
        g = j.ground
        out.append(tuple(coords + [g.zero] * (j.dim - len(coords))))
    return out


def find_nilpotent(j, budget=100000, seed=0, jobs=1):
    """Nonzero x with T(x) = S(x) = N(x) = 0 (j.is_nilpotent); the hit
    alone is re-verified via U_x(x) = x^3 = 0."""
    j.expand_symbolic()

    def predicate(x):
        return any(x) and j.is_nilpotent(x)

    x = next(filter(predicate, _structured_nilpotents(j)), None)
    if x is not None:
        res = SearchResult("witness", witness=x, index=-1,
                           detail="structured candidate")
    else:
        hit = _search(budget, lambda i: point_at(j, seed, i), predicate)
        if hit is None:
            return SearchResult("exhausted")
        i, x = hit
        res = SearchResult("witness", witness=x, index=i)
    if any(j.u_op(x, x)) or not any(x):
        raise VerificationFailure("nilpotent witness failed re-verification")
    return res


def division_falsify(j, budget=10000, mode="random", seed=0, jobs=1):
    """Evidence that j is not a division structure.

    Two witness kinds: a preimage of the construction scalar under the
    coefficient-algebra norm (lambda = N_D(w), respectively mu = N_B(w),
    makes the construction split), or a nonzero norm-zero element of j
    itself.  Preimages found for first constructions are converted into
    explicit norm-zero elements (-w, 1, 0).
    """
    meta = getattr(j, "meta", None)
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
    """Earliest (i, w) with N(w) = value over the random candidates w of
    alg, tested on alg.norm_int and re-verified with alg.norm."""
    base = Stream(seed).derive("preimage").seed

    def candidate(i):
        s = Stream(base, offset=i * (alg.k_dim + 2))
        return alg.random(s)

    hit = _search(budget, candidate, _norm_is(alg, value))
    if hit is not None and alg.norm(hit[1]) != value:
        raise VerificationFailure("norm preimage failed re-verification")
    return hit


def _norm_is(alg, value):
    """Predicate w -> N(w) == value on the int forms of alg.norm_int.

    With the k-coordinates of w equal to xi / d and the center coordinates
    of value equal to t / t_den, coordinate i of N(w) is
    forms[i](xi) / (den d^3), so the test is
    forms[i](xi) t_den == t[i] den d^3, read mod the characteristic."""
    forms, den = alg.norm_int()
    t, t_den = lift(alg.center.to_k_coords(value))
    pairs = list(zip(forms, t))
    char = alg.center.ground.char

    def predicate(w):
        xi, d = lift(alg.to_k_coords(w))
        scale = den * d ** 3
        for f, ti in pairs:
            diff = f.eval(xi, 1) * t_den - ti * scale
            if diff % char if char else diff:
                return False
        return True

    return predicate


def _first_split_witness(j, d_alg, w):
    """(-w, 1, 0) has J-norm -N(w) + lambda = 0 when N_D(w) = lambda."""
    g = j.ground
    neg = d_alg.smul(-g.one, w)
    coords = d_alg.to_k_coords(neg) + d_alg.to_k_coords(d_alg.unit())
    return tuple(coords + [g.zero] * (j.dim - len(coords)))
