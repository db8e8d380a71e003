"""Checks of albertlab's outputs that do not go through the code timed.

Every identity here is evaluated with plain Fraction or mod-p int
arithmetic: from the norm and adjoint forms a report dumps as text, from
the construction's own evaluators (eval_norm, eval_sharp), or from a
matrix the program returns.  Nothing here calls Poly, linalg or the
expanded forms.  Each check returns a list of problems; empty means the
output is correct.
"""

import random
from fractions import Fraction


class Arith:
    """Plain arithmetic over Q (Fraction) or F_p (int in range(p))."""

    def __init__(self, ground):
        text = repr(ground) if not isinstance(ground, str) else ground
        self.p = None if text == "Q" else int(text.split("_")[1])

    def red(self, x):
        return x % self.p if self.p else x

    def parse(self, s):
        return int(s) % self.p if self.p else Fraction(s)

    def of(self, v):
        """A program scalar (Fraction or F_p int subclass) as a plain value."""
        return int(v) % self.p if self.p else Fraction(v)

    def inv(self, x):
        return pow(x, self.p - 2, self.p) if self.p else 1 / x

    def point(self, rng, dim):
        if self.p:
            return [rng.randrange(self.p) for _ in range(dim)]
        return [Fraction(rng.randint(-9, 9)) for _ in range(dim)]

    def matvec(self, m, v):
        return [self.red(sum(a * b for a, b in zip(row, v))) for row in m]

    def matmul(self, a, b):
        cols = list(zip(*b))
        return [[self.red(sum(x * y for x, y in zip(row, col)))
                 for col in cols] for row in a]

    def rank(self, m):
        m = [list(r) for r in m]
        rank = 0
        for c in range(len(m[0]) if m else 0):
            piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = self.inv(m[rank][c])
            m[rank] = [self.red(x * inv) for x in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][c]:
                    f = m[i][c]
                    m[i] = [self.red(x - f * y) for x, y in zip(m[i], m[rank])]
            rank += 1
        return rank

    def matrix(self, m):
        return [[self.of(e) for e in row] for row in m]


# -- dumped forms -------------------------------------------------------------

def parse_cubic(text, ar):
    out = []
    for line in text.splitlines():
        i, j, k, c = line.split()
        out.append((int(i), int(j), int(k), ar.parse(c)))
    return out


def parse_quad(text, dim, ar):
    out = [[] for _ in range(dim)]
    for line in text.splitlines():
        m, i, j, c = line.split()
        out[int(m)].append((int(i), int(j), ar.parse(c)))
    return out


def eval_cubic(form, x, ar):
    return ar.red(sum(c * x[i] * x[j] * x[k] for i, j, k, c in form))


def eval_quad(maps, x, ar):
    return [ar.red(sum(c * x[i] * x[j] for i, j, c in terms))
            for terms in maps]


def _forms(report):
    ar = Arith(report["ground"])
    dump = next(t for t in report["tasks"] if t["task"] == "dump_forms")
    return (ar, parse_cubic(dump["norm_form"], ar),
            parse_quad(dump["adjoint_map"], report["dim"], ar))


def check_forms(ar, norm, adj, dim, seed, points=16):
    """N(x#) = N(x)^2 and x## = N(x) x at seeded points."""
    rng = random.Random(seed)
    for _ in range(points):
        x = ar.point(rng, dim)
        n = eval_cubic(norm, x, ar)
        s = eval_quad(adj, x, ar)
        if eval_cubic(norm, s, ar) != ar.red(n * n):
            return ["N(x#) != N(x)^2 at %s" % x]
        if eval_quad(adj, s, ar) != [ar.red(n * c) for c in x]:
            return ["x## != N(x) x at %s" % x]
    return []


# -- axioms ---------------------------------------------------------------------

def check_axioms(report, seed):
    axioms = report["tasks"][0]
    problems = []
    if report["status"] != "ok" or axioms["status"] != "pass":
        problems.append("axiom task status %r" % axioms["status"])
    problems += ["check %s failed" % c["name"]
                 for c in axioms["checks"] if not c["passed"]]
    modes = {c["name"]: c["mode"] for c in axioms["checks"]}
    for name in ("norm_of_adjoint", "adjoint_of_adjoint"):
        if modes.get(name) != "symbolic":
            problems.append("%s ran in mode %r" % (name, modes.get(name)))
    ar, norm, adj = _forms(report)
    return problems + check_forms(ar, norm, adj, report["dim"], seed)


# -- certificates -------------------------------------------------------------

def check_similarity(j, a, matrix, nu, witness, seed, points=2):
    """U_a: multiplier N(a)^2, and N(f(x)) = nu N(x) at seeded points."""
    if witness is not None or nu is None:
        return ["no multiplier: %s" % witness]
    g = j.ground
    ar = Arith(g)
    na = ar.of(j.eval_norm(list(a)))
    nu = ar.of(nu)
    if nu != ar.red(na * na):
        return ["multiplier %s != N(a)^2 = %s" % (nu, ar.red(na * na))]
    m = ar.matrix(matrix)
    rng = random.Random(seed)
    for _ in range(points):
        x = ar.point(rng, j.dim)
        y = ar.matvec(m, x)
        lhs = ar.of(j.eval_norm([g.from_fraction(c) for c in y]))
        rhs = ar.of(j.eval_norm([g.from_fraction(c) for c in x]))
        if lhs != ar.red(nu * rhs):
            return ["N(f(x)) != nu N(x) at %s" % x]
    return []


def check_isotope(report, v):
    """Every part of the isotope task passed, and its base point is
    v^{-1} = v# / N(v), computed from the dumped forms of J."""
    entry = report["tasks"][0]
    problems = []
    if report["status"] != "ok" or entry["status"] != "pass":
        problems.append("isotope task status %r" % entry["status"])
    for key in ("axioms", "u_operator_identity"):
        if entry[key] != "pass":
            problems.append("%s: %s" % (key, entry[key]))
    if entry["base_point_is_v_inverse"] is not True:
        problems.append("base point is not v^-1")
    ar, norm, adj = _forms(report)
    v = [ar.parse(c) for c in v]
    inv_n = ar.inv(eval_cubic(norm, v, ar))
    want = [ar.red(inv_n * c) for c in eval_quad(adj, v, ar)]
    if [ar.parse(c) for c in entry["base_point"]] != want:
        problems.append("base point %s != v#/N(v)" % entry["base_point"])
    return problems


def check_galois(j, f, basis, closure):
    """rho~ has order 3, is not the identity, fixes a 3-dimensional
    space spanned by the reported basis, and that space is closed."""
    ar = Arith(j.ground)
    m = ar.matrix(f.matrix)
    n = j.dim
    ident = [[int(i == k) for k in range(n)] for i in range(n)]
    problems = []
    if m == ident:
        problems.append("rho~ is the identity")
    if ar.matmul(ar.matmul(m, m), m) != ident:
        problems.append("rho~ does not have order 3")
    delta = [[ar.red(m[i][k] - ident[i][k]) for k in range(n)]
             for i in range(n)]
    if n - ar.rank(delta) != 3:
        problems.append("fixed space has dimension %d" % (n - ar.rank(delta)))
    b = [[ar.of(c) for c in vec] for vec in basis]
    if len(b) != 3 or ar.rank(b) != 3 or any(ar.matvec(m, v) != v for v in b):
        problems.append("reported fixed basis is wrong")
    if not all(closure.values()):
        problems.append("fixed space not closed: %r" % closure)
    if f.certificate.get("multiplier") != "1":
        problems.append("certificate %r" % f.certificate)
    return problems


def check_isomorphism(f, seed, points=2):
    """Multiplier 1 and base point preserved, re-checked with a plain
    matrix-vector product and the two constructions' evaluators."""
    cert = f.certificate
    if cert.get("multiplier") != "1" or \
            cert.get("unit_check") != "base point preserved":
        return ["certificate %r" % cert]
    src, tgt = f.source, f.target
    g = src.ground
    ar = Arith(g)
    m = ar.matrix(f.matrix)
    if ar.matvec(m, [ar.of(c) for c in src.unit]) != \
            [ar.of(c) for c in tgt.unit]:
        return ["base point not preserved"]
    rng = random.Random(seed)
    for _ in range(points):
        x = ar.point(rng, src.dim)
        y = ar.matvec(m, x)
        if ar.of(tgt.eval_norm([g.from_fraction(c) for c in y])) != \
                ar.of(src.eval_norm([g.from_fraction(c) for c in x])):
            return ["N(f(x)) != N(x) at %s" % x]
    return []


# -- search witnesses -------------------------------------------------------------

def _sharp(j, x):
    return list(j.eval_sharp(list(x)))


def check_norm_zero(j, res):
    """A witness is nonzero, N(x) = 0 and x## = N(x) x = 0."""
    if res.status != "witness":
        return []
    ar = Arith(j.ground)
    x = res.witness
    if not any(ar.of(c) for c in x):
        return ["witness is zero"]
    if ar.of(j.eval_norm(list(x))):
        return ["N(witness) != 0"]
    if any(ar.of(c) for c in _sharp(j, _sharp(j, x))):
        return ["witness## != 0"]
    return []


def check_nilpotent(j, res):
    """A witness is nonzero, N(c + t x) = 1 for t = 1, 2, 3 (so T, S and
    N vanish at x) and x# x x = 0 (so x^3 = U_x x = 0)."""
    if res.status != "witness":
        return []
    g = j.ground
    ar = Arith(g)
    x = list(res.witness)
    if not any(ar.of(c) for c in x):
        return ["witness is zero"]
    for t in (1, 2, 3):
        shifted = [u + g.from_int(t) * c for u, c in zip(j.unit, x)]
        if ar.of(j.eval_norm(shifted)) != 1:
            return ["N(c + %d x) != 1" % t]
    s = _sharp(j, x)
    cross = [a - b - c for a, b, c in
             zip(_sharp(j, [a + b for a, b in zip(s, x)]), _sharp(j, s), s)]
    if any(ar.of(c) for c in cross):
        return ["x# x x != 0"]
    return []
