"""Generic cubic norm structures: (N, #, c) plus everything derived.

The trace linear form, the quadratic spur, the trace bilinear form, the
cross product, U-operators, inverses and nilpotency tests are all
derived from the two forms and the base point alone.  A structure reads
the exact sparse forms of N and # once, at first use, from its forms
hook, and lifts them to int coefficients at the same time.  The default
hook runs the evaluators on polynomial indeterminates; the Tits
constructions use it.  Derived structures build their forms from their
base's: an isotope scales them (isotopy.isotope), and corrupt_sharp adds
one term.

Every operation at a ground point has one route.  N and #, the
U-operator matrix and U_x(y) are computed from the int forms at the
point's integer lift (scalars.lift) and mapped back once
(scalars.from_int).  sharp_int and u_matrix_int stop before the map back
and return the int adjoint and the int U-matrix over one denominator,
for callers that keep computing on ints (the isotope's evaluator and its
U^(v) check).  Identity checks compare the int forms mod the
characteristic where the expansion sizes stay reasonable and run exact
checks at random points otherwise.  The evaluators are run at ground
points only by the random-point check of the forms against them, on the
point's int lift over Q (lifted_norm, lifted_sharp), where the algebras
hold their integral constants as ints; over F_p the evaluators take the
F_p point as it is.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, List, Optional

from . import linalg
from .errors import NotInvertible, VerificationFailure
from .poly import (Poly, directional_derivative, indices, linear_form,
                   sum_of_products, variables)
from .rng import Stream
from .scalars import from_int, lift

# rough bound on coefficient multiplications before a symbolic identity
# check falls back to random-point verification.  _sharp_cost, the sum of
# |S_i| |S_k| over the terms x_i x_k of the adjoint (S_i the terms of its
# coordinate i), bounds the quadratic term products of the x## proof:
# Poly.eval multiplies each first-index group sum_k c_ik S_k by S_i once.
SYMBOLIC_OP_LIMIT = 3_000_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    mode: str                  # "symbolic" or "random"
    witness: Optional[str] = None


class AxiomReport:
    def __init__(self, checks: List[CheckResult]):
        self.checks = checks

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def __repr__(self):
        return "AxiomReport(%d checks, %s)" % (
            len(self.checks), "all pass" if self.all_passed else
            "FAILURES: %s" % [c.name for c in self.failed()])


class CubicNormStructure:
    """(N, #, c) on k^dim.  eval_norm and eval_sharp compute N and # at a
    point; forms, when given, returns the sparse forms (N_poly,
    sharp_polys) directly, and otherwise they are read off the evaluators
    run on indeterminates (_evaluator_forms)."""

    def __init__(self, ground, dim, eval_norm: Callable, eval_sharp: Callable,
                 unit, label="J", forms: Optional[Callable] = None):
        self.ground = ground
        self.dim = dim
        self.eval_norm = eval_norm
        self.eval_sharp = eval_sharp
        self.unit = tuple(unit)
        self.label = label
        self._forms = forms
        self._kind = type(ground.one)
        self._n_poly = None
        self._sharp_polys = None
        self._n_int = None
        self._sharp_int = None
        self._t_vec = None
        self._s_poly = None
        self._t_bilinear = None
        self._u_int = None

    # -- symbolic expansion --------------------------------------------------

    def _evaluator_forms(self):
        """The evaluators run on indeterminates; a constant they return
        (a coordinate that no term reaches) becomes a constant Poly."""
        xs = variables(self.dim, self.ground.one)
        n, *sh = [p if isinstance(p, Poly) else Poly.const(p)
                  for p in [self.eval_norm(xs), *self.eval_sharp(xs)]]
        return n, sh

    def expand_symbolic(self):
        """(N_poly, sharp_polys): the exact forms, from the forms hook.

        Their int lifts (see _int_scaled) are stored alongside for the
        symbolic identity checks and for evaluation at ground points."""
        if self._n_poly is None:
            # not a bound method held on self: that cycle would keep every
            # structure alive until the cyclic garbage collector runs
            n, sh = (self._forms or self._evaluator_forms)()
            if not n.is_homogeneous(3):
                raise VerificationFailure(
                    "norm of %s is not a homogeneous cubic" % self.label)
            for i, p in enumerate(sh):
                if not p.is_homogeneous(2):
                    raise VerificationFailure(
                        "adjoint coordinate %d of %s is not homogeneous "
                        "quadratic" % (i, self.label))
            (n_i,), n_den = _int_scaled([n])
            self._n_int = n_i, n_den
            self._sharp_int = _int_scaled(sh)
            self._n_poly = n
            self._sharp_polys = sh
        return self._n_poly, self._sharp_polys

    @property
    def n_poly(self):
        return self.expand_symbolic()[0]

    @property
    def sharp_polys(self):
        return self.expand_symbolic()[1]

    def _int_forms(self):
        """((n_i, n_den), (sh_i, s_den)), the int forms of N and # over
        their denominators (_int_scaled), expanded on first use."""
        if self._n_int is None:
            self.expand_symbolic()
        return self._n_int, self._sharp_int

    @property
    def n_int(self):
        """(n_i, den): N = n_i / den with n_i an int form (_int_scaled)."""
        return self._int_forms()[0]

    def _trace_data(self):
        """Split N(c + z) by degree: 1 + T(z) + S(z) + N(z)."""
        if self._t_vec is None:
            g = self.ground
            xs = variables(self.dim, g.one)
            shifted = [Poly.const(c) + x for c, x in zip(self.unit, xs)]
            full = self.n_poly.eval(shifted, g.one)
            t_part = full.homogeneous_part(1)
            s_part = full.homogeneous_part(2)
            t_vec = [g.zero] * self.dim
            for m, c in t_part.terms.items():
                t_vec[indices(m)[0]] = c
            tb = [[g.zero] * self.dim for _ in range(self.dim)]
            for i in range(self.dim):
                for j in range(self.dim):
                    tb[i][j] = t_vec[i] * t_vec[j]
            for m, c in s_part.terms.items():
                i, j = indices(m)
                if i == j:
                    tb[i][i] = tb[i][i] - (c + c)
                else:
                    tb[i][j] = tb[i][j] - c
                    tb[j][i] = tb[j][i] - c
            self._t_vec = t_vec
            self._s_poly = s_part
            self._t_bilinear = tb
        return self._t_vec, self._s_poly, self._t_bilinear

    # -- derived operations ----------------------------------------------------

    def norm(self, x):
        """N(x) at a ground point: the int norm form at the point's lift,
        mapped back once."""
        n_i, den = self.n_int
        xi, d = lift(x)
        return from_int(self._kind, n_i.eval(xi, 1), den * d ** 3)

    def sharp(self, x):
        """x# at a ground point: sharp_int mapped back once."""
        s, den = self.sharp_int(x)
        return tuple(from_int(self._kind, c, den) for c in s)

    def sharp_int(self, x):
        """(s, den): x# = s / den at a ground point x, the int adjoint
        evaluated at the point's lift; over F_p den is 1 and s holds
        unreduced lifts."""
        sh_i, den = self._int_forms()[1]
        xi, d = lift(x)
        return [p.eval(xi, 1) for p in sh_i], den * d * d

    def lifted_norm(self, x):
        """eval_norm at a ground point, run on its int lift over Q: with
        x = xi / d, N(x) = eval_norm(xi) / d^3, since the expansion is a
        homogeneous cubic (expand_symbolic checks it).  The evaluator then
        multiplies ints by the int-held structure constants; F_p points
        are passed as they are."""
        if self._kind is not Fraction:
            return self.eval_norm(list(x))
        xi, d = lift(x)
        return Fraction(self.eval_norm(xi), d ** 3)

    def lifted_sharp(self, x):
        """eval_sharp at a ground point, on its int lift over Q as in
        lifted_norm: x# = eval_sharp(xi) / d^2."""
        if self._kind is not Fraction:
            return tuple(self.eval_sharp(list(x)))
        xi, d = lift(x)
        d *= d
        return tuple(Fraction(v, d) for v in self.eval_sharp(xi))

    def trace(self, x):
        t_vec, _, _ = self._trace_data()
        acc = self.ground.zero
        for t, c in zip(t_vec, x):
            if t:
                acc = acc + t * c
        return acc

    def spur(self, x):
        _, s_poly, _ = self._trace_data()
        return s_poly.eval(list(x), self.ground.one)

    def trace_pair(self, x, y):
        _, _, tb = self._trace_data()
        acc = self.ground.zero
        for i in range(self.dim):
            if not x[i]:
                continue
            row = tb[i]
            for j in range(self.dim):
                if row[j] and y[j]:
                    acc = acc + row[j] * x[i] * y[j]
        return acc

    def cross(self, x, y):
        s = self.sharp([a + b for a, b in zip(x, y)])
        sx = self.sharp(x)
        sy = self.sharp(y)
        return tuple(a - b - c for a, b, c in zip(s, sx, sy))

    def u_op(self, x, y):
        """U_x(y) = T(x,y) x - x# x y at ground points, on the int data of
        u_matrix: with x = xi / dx and y = yi / dy, T(x,y) = (r.yi) /
        (t_den dx dy) for r = (trace columns).xi, and x# x y =
        c / (s_den^2 dx^2 dy) for the polarized adjoint c of s = x# (int)
        and yi, so every coordinate is an int over lcm(t_den, s_den^2)
        dx^2 dy, mapped back once."""
        cols, t_den, cross = self._u_data()
        sh_i, s_den = self._sharp_int
        xi, dx = lift(x)
        yi, dy = lift(y)
        s = [p.eval(xi, 1) for p in sh_i]
        t = sum(yj * sum(map(mul, col, xi))
                for col, yj in zip(cols, yi) if yj)
        sy = [sum(c * s[i] * yi[i] if i == j
                  else c * (s[i] * yi[j] + s[j] * yi[i])
                  for i, j, c in terms) for terms in cross]
        den = lcm(t_den, s_den * s_den)
        a, b = den // t_den, den // (s_den * s_den)
        den *= dx * dx * dy
        return tuple(from_int(self._kind, a * t * xv - b * cv, den)
                     for xv, cv in zip(xi, sy))

    def _u_data(self):
        """Int data of the U-operator, lifted once: the columns of the
        trace bilinear matrix times t_den, and the polarized adjoint of
        _sharp_int as triples (i, j, c) per row m, the diagonal c
        doubled: cross(x, y)_m * s_den sums c (x_i y_j + x_j y_i) over
        the triples with i < j and c x_i y_i over those with i = j."""
        if self._u_int is None:
            _, _, tb = self._trace_data()
            flat, t_den = lift([c for row in tb for c in row])
            cols = [flat[j::self.dim] for j in range(self.dim)]
            cross = [[(i, j, c + c if i == j else c)
                      for m, c in p.terms.items() for i, j in [indices(m)]]
                     for p in self._sharp_int[0]]
            self._u_int = cols, t_den, cross
        return self._u_int

    def _cross_rows(self, s):
        """The int matrix of y -> (s x y) s_den for an int vector s, one
        row per polarized adjoint row of _u_data."""
        cm = [[0] * self.dim for _ in range(self.dim)]
        for row, terms in zip(cm, self._u_data()[2]):
            for i, j, c in terms:
                if i == j:
                    row[i] += c * s[i]
                else:
                    row[j] += c * s[i]
                    row[i] += c * s[j]
        return cm

    def u_matrix_int(self, x):
        """(rows, den): the matrix of U_x(y) = T(x,y) x - x# x y, linear
        in y, as int rows with U_x = rows / den.

        With x = xi / d, T(x, y) = r.y / (t_den d) and x# = s / (s_den d^2)
        for int vectors r and s, so every entry is an int over the one
        denominator den = lcm(t_den, s_den^2) d^2.  Over F_p den is 1 and
        the entries are unreduced lifts, to be read mod p."""
        cols, t_den, _ = self._u_data()
        sh_i, s_den = self._sharp_int
        xi, d = lift(x)
        cm = self._cross_rows([p.eval(xi, 1) for p in sh_i])
        den = lcm(t_den, s_den * s_den)
        a, b = den // t_den, den // (s_den * s_den)
        r = [a * sum(map(mul, col, xi)) for col in cols]
        return [[xv * rj - b * cj for rj, cj in zip(r, row)]
                for xv, row in zip(xi, cm)], den * d * d

    def u_matrix(self, x):
        """Matrix of U_x over the ground field: u_matrix_int mapped back
        once per entry."""
        rows, den = self.u_matrix_int(x)
        return [[from_int(self._kind, e, den) for e in row] for row in rows]

    def inverse(self, x):
        n = self.norm(x)
        if not n:
            raise NotInvertible("norm is zero; element not invertible")
        ninv = self.ground.inv(n)
        return tuple(ninv * c for c in self.sharp(x))

    def is_nilpotent(self, x):
        flat = not self.trace(x) and not self.spur(x) and not self.norm(x)
        cube = self.u_op(x, x)
        cube_zero = not any(cube)
        if flat != cube_zero:
            raise VerificationFailure(
                "nilpotency criteria disagree at %r" % (x,))
        return flat

    # -- randomness ---------------------------------------------------------------

    def random_point(self, stream: Stream):
        return tuple(self.ground.random(stream) for _ in range(self.dim))

    def random_invertible(self, stream: Stream, tries=1000):
        for _ in range(tries):
            x = self.random_point(stream)
            if self.norm(x):
                return x
        raise NotInvertible("no invertible element found in %d draws" % tries)

    # -- identity suite --------------------------------------------------------------

    def _sharp_cost(self):
        sizes = [len(p.terms) for p in self.sharp_polys]
        total = 0
        for p in self.sharp_polys:
            for m in p.terms:
                i, j = indices(m)
                total += sizes[i] * sizes[j]
        return total

    def _find_witness(self, diff_fn, stream, tries=300):
        for _ in range(tries):
            pt = self.random_point(stream)
            d = diff_fn(pt)
            if any(d) if isinstance(d, (tuple, list)) else bool(d):
                return pt
        return None

    def _trace_adjoint_ok(self):
        """T(x#, y) equals the directional derivative of N at x along y,
        as int forms mod the characteristic.

        On the int forms (the trace columns of _u_data and _sharp_int),
        sum_m x#_m (sum_n T_mn y_n), with y in variables dim..2 dim - 1,
        is accumulated into one dict and compared with dN over the same
        denominator."""
        cols, t_den, _ = self._u_data()
        sh_i, s_den = self._sharp_int
        n_i, n_den = self._n_int
        lhs = sum_of_products(
            (p, linear_form([col[m] for col in cols], self.dim))
            for m, p in enumerate(sh_i))
        char = self.ground.char
        return _mod(n_den * lhs, char) == _mod(
            s_den * t_den * directional_derivative(n_i, self.dim), char)

    def _unit_cross_failure(self):
        """The first coordinate i where c x y = T(y) c - y fails, or None.

        With c = ci / cd, the trace vector ti / td and cross(c, y) =
        C y / (s_den cd) for C = _cross_rows(ci), row i reads
        td C_i = s_den (ci_i ti - cd td e_i) over ints, mod the
        characteristic."""
        ci, cd = lift(self.unit)
        ti, td = lift(self._trace_data()[0])
        s_den = self._sharp_int[1]
        char = self.ground.char
        for i, row in enumerate(self._cross_rows(ci)):
            for n, e in enumerate(row):
                diff = td * e - s_den * (ci[i] * ti[n]
                                         - (cd * td if n == i else 0))
                if diff % char if char else diff:
                    return i
        return None

    def _norm_of_adjoint_direct(self):
        """N(x#) = N(x)^2 by composition: the int norm form composed with
        the int adjoint, against the square of the norm form, mod the
        characteristic.  With n_i = n_den N and sh_i = s_den #, the
        identity reads n_den n_i(sh_i) = s_den^3 n_i^2."""
        sh_i, s_den = self._sharp_int
        n_i, n_den = self._n_int
        char = self.ground.char
        lhs = n_i.eval(sh_i, 1)
        return _mod(n_den * lhs, char) == _mod(s_den ** 3 * (n_i * n_i),
                                               char)

    def axiom_suite(self, seed=0, points=100):
        """Run the full identity suite; never raises on failure, returns
        a report with one entry per identity.

        Below SYMBOLIC_OP_LIMIT, x## = N(x) x and N(x#) = N(x)^2 are
        proved on the int forms.  N(x#) = N(x)^2 is derived, not
        composed, when x## = N(x) x was proved here, the gradient
        identity T(x#, y) = d_y N(x) holds (_trace_adjoint_ok) and the
        characteristic is not 3.  N is a homogeneous cubic, so Euler's
        identity gives T(x#, x) = 3 N(x).  Substituting x# for x gives
        T(x##, x#) = 3 N(x#), and x## = N(x) x with the symmetry of T
        turns the left side into N(x) T(x, x#) = 3 N(x)^2.  Dividing by
        3 is allowed outside characteristic 3.  All of these are
        identities of formal polynomials, so the substitution is sound.
        Otherwise N(x#) is composed directly (_norm_of_adjoint_direct).
        Over the limit both identities are sampled at random points and
        neither is derived."""
        g = self.ground
        stream = Stream(seed).derive("axioms:" + self.label)
        checks = []
        n_poly, sharp_polys = self.expand_symbolic()

        def emit(name, ok, mode, witness=None):
            checks.append(CheckResult(name, bool(ok), mode, witness))

        # base point identities
        emit("norm_unit_is_one", self.norm(self.unit) == g.one, "symbolic")
        emit("sharp_unit_is_unit",
             all(a == b for a, b in zip(self.sharp(self.unit), self.unit)),
             "symbolic")
        emit("norm_homogeneous_degree_3", n_poly.is_homogeneous(3),
             "symbolic")
        emit("sharp_homogeneous_degree_2",
             all(p.is_homogeneous(2) for p in sharp_polys), "symbolic")

        cost = self._sharp_cost()
        symbolic_ok = cost <= SYMBOLIC_OP_LIMIT
        trace_ok = self._trace_adjoint_ok()

        # x## = N(x) x and N(x#) = N(x)^2
        if symbolic_ok:
            # the int lifts (denominators cleared over Q) compared mod the
            # characteristic; both identities are homogeneous, so a
            # uniform scaling of sharp (resp. N) rescales both sides by a
            # known factor
            sh_i, s_den = self._sharp_int
            n_i, n_den = self._n_int
            s3 = s_den ** 3
            sharp2 = [p.eval(sh_i, 1) for p in sh_i]
            bad = next(
                (i for i in range(self.dim)
                 if _mod(n_den * sharp2[i], g.char)
                 != _mod(s3 * (n_i * Poly.var(i, 1)), g.char)), None)
            # derived from the two proved identities (see the docstring)
            norm_ok = (bad is None and trace_ok and g.char != 3) \
                or self._norm_of_adjoint_direct()
            if bad is None:
                emit("adjoint_of_adjoint", True, "symbolic")
            else:
                w = self._find_witness(
                    lambda pt: [a - b for a, b in zip(
                        self.sharp(self.sharp(pt)),
                        [self.norm(pt) * c for c in pt])], stream)
                emit("adjoint_of_adjoint", False, "symbolic",
                     "coordinate %d differs; point %r" % (bad, w))
            if norm_ok:
                emit("norm_of_adjoint", True, "symbolic")
            else:
                w = self._find_witness(
                    lambda pt: self.norm(self.sharp(pt))
                    - self.norm(pt) * self.norm(pt), stream)
                emit("norm_of_adjoint", False, "symbolic", repr(w))
        else:
            ok = True
            wit = None
            for _ in range(points):
                pt = self.random_point(stream)
                sp = self.sharp(pt)
                n = self.norm(pt)
                if any(a - n * b for a, b in zip(self.sharp(sp), pt)):
                    ok, wit = False, repr(pt)
                    break
                if self.norm(sp) != n * n:
                    ok, wit = False, repr(pt)
                    break
            emit("adjoint_of_adjoint", ok, "random", wit)
            emit("norm_of_adjoint", ok, "random", wit)

        # c x x = T(x) c - x   (cross with the unit)
        bad = self._unit_cross_failure()
        emit("unit_cross_identity", bad is None, "symbolic",
             None if bad is None else "coordinate %d" % bad)

        # T(x#, y) equals the directional derivative of N at x along y
        emit("trace_adjoint_is_norm_derivative", trace_ok, "symbolic",
             None if trace_ok else "polynomials differ")

        # U_c = identity
        uc = self.u_matrix(self.unit)
        ident = linalg.identity(self.dim, g.one, g.zero)
        emit("u_operator_of_unit_is_identity", linalg.mat_equal(uc, ident),
             "symbolic")

        # N(U_x y) = N(x)^2 N(y) on random pairs
        ok = True
        wit = None
        for _ in range(points):
            x = self.random_point(stream)
            y = self.random_point(stream)
            nx = self.norm(x)
            if self.norm(self.u_op(x, y)) != nx * nx * self.norm(y):
                ok, wit = False, repr((x, y))
                break
        emit("u_operator_norm_similarity", ok, "random", wit)

        # U_x(x^{-1}) = x on random invertible x
        ok = True
        wit = None
        for _ in range(max(10, points // 5)):
            try:
                x = self.random_invertible(stream)
            except NotInvertible:
                ok, wit = False, "no invertible elements found"
                break
            if any(a - b for a, b in zip(self.u_op(x, self.inverse(x)), x)):
                ok, wit = False, repr(x)
                break
        emit("u_operator_inverse_identity", ok, "random", wit)

        # expansions (through their int lifts) agree with the evaluators
        ok = True
        wit = None
        for _ in range(points):
            pt = self.random_point(stream)
            if self.norm(pt) != self.lifted_norm(pt):
                ok, wit = False, repr(pt)
                break
            if self.sharp(pt) != self.lifted_sharp(pt):
                ok, wit = False, repr(pt)
                break
        emit("expansion_matches_evaluators", ok, "random", wit)

        return AxiomReport(checks)


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


def corrupt_sharp(j: CubicNormStructure, coord=0, label=None):
    """Copy of j with x0^2 added to adjoint coordinate `coord` (mutation
    testing): its forms are j's with that term added, and its evaluator
    adds it to j's evaluator at a point."""
    base_sharp = j.eval_sharp

    def bad_sharp(coords):
        out = list(base_sharp(coords))
        out[coord] = out[coord] + coords[0] * coords[0]
        return out

    def forms():
        n, sh = j.expand_symbolic()
        x0 = Poly.var(0, j.ground.one)
        return n, [p + x0 * x0 if i == coord else p
                   for i, p in enumerate(sh)]

    return CubicNormStructure(j.ground, j.dim, j.eval_norm, bad_sharp,
                              j.unit, label=label or (j.label + "_corrupted"),
                              forms=forms)
