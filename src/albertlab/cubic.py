"""Generic cubic norm structures: (N, #, c) plus everything derived.

The trace linear form, the quadratic spur, the trace bilinear form, the
cross product, U-operators, inverses and nilpotency tests are all
derived from the two forms and the base point alone.  A structure reads
the exact sparse form of N and the forms of # each once, at first use,
from one source each (_norm_form, _adjoint_forms): its evaluator run on
polynomial indeterminates, or, on an isotope, its base's forms scaled
(isotopy.Isotope).  So the norm form alone costs no adjoint expansion,
and a witness scan, which reads only N, never expands #.  Its int data
(the int forms n_int and sharp_int, the trace data and the U-operator
data) are cached properties, each built once, at first use, from the
items it reads, so no method has to run before another.

Every operation at a ground point has one route.  N, #, T, S, the
U-operator matrix, U_x(y) and x x y are computed from the int forms at
the point's integer lift (scalars.lift) and mapped back once
(scalars.from_int); T and S themselves, and the trace bilinear form of
the U-operator, are read off the int norm form's terms at the unit's lift.
u_matrix_int, u_op and cross share the int U-operator data (_u_data),
the trace bilinear matrix and the polarized adjoint: u_matrix_int
returns the int U-matrix over one denominator, for callers that keep
computing on ints (the isotope's U_{v^-1}, U_{w#} and U_v), u_op
applies the same int operator to y's lift without forming the matrix,
and cross applies the polarized adjoint at the lifts of x and y
(_cross_apply), without forming its matrix either.
Identity checks compare int forms mod the characteristic.  x## = N(x) x
comes from one cached property (_adjoint_failure): this class composes
it on its own forms, a run of adjoint coordinates at a time
(poly.compose_mismatch), and an isotope overrides it to prove it
through its base (isotopy.Isotope), so no dense isotope form is ever
composed.  A failure names the first coordinate that differs and its
lowest differing monomial, as one coordinate at a time would.

N(x#) = N(x)^2 and the two U-operator identities are derived from
identities proved in the same run, in every characteristic, or reported
not proved, naming the failed premises (axiom_suite).  So N is never
composed with #, every check is symbolic, and the suite draws no point.

The evaluators run only on indeterminates, each once per structure
(_norm_form, _adjoint_forms); over Q the indeterminates carry the int
1, so the integral coefficients of the forms are ints.  An isotope runs
no evaluator: its forms are its base's, scaled by the closed formulas
of its evaluators.  So the forms are the evaluators' forms by
construction on every structure, and expansion_matches_evaluators
passes symbolically, comparing nothing and drawing no point.  A wrong
evaluator yields wrong forms, which the identity checks catch;
corrupt_sharp's copy is such a structure, its forms read off its
perturbed adjoint evaluator.
"""

import time
from functools import cached_property
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import NotInvertible, VerificationFailure
from .poly import (Poly, _int_scaled, _integral_as_int, _lowest, _mod,
                   _nonzero, compose_mismatch, indices, linear_combination,
                   mono, variables)
from .scalars import from_int, lift

# the premises of McCrimmon's construction theorem, as the suite names
# them in its order; both U-operator identities are derived when all of
# them were proved in the same run (axiom_suite)
U_PREMISES = ("norm_unit_is_one", "sharp_unit_is_unit", "adjoint_of_adjoint",
              "unit_cross_identity", "trace_adjoint_is_norm_derivative")


class CheckResult:
    """One check: witness None or a str, and the wall seconds spent on it.
    Every check is proved or refuted symbolically, so mode is always
    "symbolic"."""

    mode = "symbolic"

    def __init__(self, name, passed, witness=None, elapsed_s=0.0):
        self.name, self.passed = name, passed
        self.witness, self.elapsed_s = witness, elapsed_s


class AxiomReport:
    def __init__(self, checks):
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
    point; the sparse forms N_poly and sharp_polys are read off them run on
    indeterminates, each at its first use (_norm_form, _adjoint_forms)."""

    def __init__(self, ground, dim, eval_norm, eval_sharp, unit, label="J"):
        self.ground = ground
        self.dim = dim
        self.eval_norm = eval_norm
        self.eval_sharp = eval_sharp
        self.unit = tuple(unit)
        self.label = label
        self._kind = type(ground.one)
        self._n_poly = None

    # -- symbolic expansion --------------------------------------------------

    def _on_indeterminates(self, evaluator):
        """evaluator run on indeterminates (variables).  Over Q they carry
        the int 1, so integral coefficients stay ints through the
        expansion (Poly multiplies by an integral Fraction as an int)."""
        return evaluator(variables(self.dim, self.ground.one
                                   if self.ground.char else 1))

    @cached_property
    def _norm_form(self):
        """N_poly: eval_norm run once on indeterminates (_as_form),
        checked to be a homogeneous cubic."""
        n = _as_form(self._on_indeterminates(self.eval_norm))
        if not n.is_homogeneous(3):
            raise VerificationFailure(
                "norm of %s is not a homogeneous cubic" % self.label)
        return n

    @cached_property
    def _adjoint_forms(self):
        """sharp_polys: eval_sharp run once on indeterminates (_as_form),
        each coordinate checked to be a homogeneous quadratic."""
        sh = list(map(_as_form, self._on_indeterminates(self.eval_sharp)))
        for i, p in enumerate(sh):
            if not p.is_homogeneous(2):
                raise VerificationFailure(
                    "adjoint coordinate %d of %s is not homogeneous "
                    "quadratic" % (i, self.label))
        return sh

    def expand_symbolic(self):
        """(N_poly, sharp_polys): the norm form (_norm_form) and the
        adjoint forms (_adjoint_forms), in that order."""
        n, sh = self._norm_form, self._adjoint_forms
        self._n_poly = n
        return n, sh

    @cached_property
    def n_int(self):
        """(n_i, den): N = n_i / den with n_i an int form (_int_scaled),
        read off the norm form alone."""
        (n_i,), den = _int_scaled([self._norm_form])
        return n_i, den

    @cached_property
    def sharp_int(self):
        """(sh_i, den): # = sh_i / den with sh_i int forms (_int_scaled),
        read off the adjoint forms alone."""
        return _int_scaled(self._adjoint_forms)

    @cached_property
    def _trace_data(self):
        """(t, s, den): T = t / den and S = s / den for an int vector t and
        an int quadratic form s, read off N(c + z) = 1 + T(z) + S(z) + N(z)
        on the int forms.  With c = ci / cd and N = n_i / n_den, the int
        norm form at ci + cd z is den N(c + z) for den = n_den cd^3: a term
        a x_p x_q x_r of n_i gives a cd ci_p ci_q z_r to t and a cd^2 ci_r
        z_p z_q to s for each of its three splittings {p, q}, r."""
        n_i, n_den = self.n_int
        ci, cd = lift(self.unit)
        t = [0] * self.dim
        s = {}
        for m, a in n_i.terms.items():
            i, j, k = indices(m)
            for p, q, r in ((j, k, i), (i, k, j), (i, j, k)):
                t[r] += a * cd * ci[p] * ci[q]
                pq = mono((p, q))
                s[pq] = s.get(pq, 0) + a * cd * cd * ci[r]
        return t, _nonzero(s), n_den * cd ** 3

    # -- derived operations ----------------------------------------------------

    def norm(self, x):
        """N(x) at a ground point: the int norm form at the point's lift,
        mapped back once."""
        n_i, den = self.n_int
        xi, d = lift(x)
        return from_int(self._kind, n_i.eval(xi), den * d ** 3)

    def sharp(self, x):
        """x# at a ground point: the int adjoint forms at the point's
        lift, mapped back once."""
        sh_i, den = self.sharp_int
        xi, d = lift(x)
        den *= d * d
        return tuple(from_int(self._kind, p.eval(xi), den) for p in sh_i)

    def trace(self, x):
        """T(x) at a ground point: t.xi / (den d) for the lift xi / d."""
        t, _, den = self._trace_data
        xi, d = lift(x)
        return from_int(self._kind, sum(map(mul, t, xi)), den * d)

    def spur(self, x):
        """S(x) at a ground point: s(xi) / (den d^2)."""
        _, s, den = self._trace_data
        xi, d = lift(x)
        return from_int(self._kind, s.eval(xi), den * d * d)

    def cross(self, x, y):
        """x x y = (x + y)# - x# - y# at ground points: _cross_apply at
        the int lifts xi / dx and yi / dy, over s_den dx dy."""
        xi, dx = lift(x)
        yi, dy = lift(y)
        den = self.sharp_int[1] * dx * dy
        return tuple(from_int(self._kind, v, den)
                     for v in self._cross_apply(xi, yi))

    def u_op(self, x, y):
        """U_x(y) = T(x,y) x - x# x y at ground points, on y's lift
        yi / dy without forming the U-matrix: row m of u_matrix_int(x)
        applied to yi is (r.yi) xi_m - b (s x yi)_m s_den, for r, s, b and
        den of u_matrix_int, so entry m is that int over den dy, r.yi
        summed over the nonzero yi_j and the cross term formed by
        _cross_apply."""
        cols, t_den, _ = self._u_data
        sh_i, s_den = self.sharp_int
        xi, d = lift(x)
        yi, dy = lift(y)
        den = lcm(t_den, s_den * s_den)
        a, b = den // t_den, den // (s_den * s_den)
        ry = a * sum(e * sum(map(mul, col, xi)) for col, e in zip(cols, yi)
                     if e)
        cy = self._cross_apply([p.eval(xi) for p in sh_i], yi)
        den *= d * d * dy
        return tuple(from_int(self._kind, ry * xv - b * c, den)
                     for xv, c in zip(xi, cy))

    @cached_property
    def _u_data(self):
        """Int data of the U-operator: the columns of the trace bilinear
        matrix times t_den, and the polarized adjoint of sharp_int as the
        triples (i, j, c) of its terms c x_i x_j, per row m:
        cross(x, y)_m * s_den sums c (x_i y_j + x_j y_i) over them.

        T(x, y) = T(x) T(y) - (S(x + y) - S(x) - S(y)), so with t, s and
        den of _trace_data the matrix is (t t^T - den P) / den^2 for the
        polarization P of s, symmetric, so its rows are its columns.  The
        entries and den^2 are divided by their common gcd: over Q, t_den
        is then the least common denominator of the entries."""
        t, s, den = self._trace_data
        cols = [[a * b for b in t] for a in t]
        for m, c in s.terms.items():
            i, j = indices(m)
            cols[i][j] -= den * c
            cols[j][i] -= den * c
        g = gcd(den * den, *(e for col in cols for e in col))
        cols = [[e // g for e in col] for col in cols]
        cross = [[(i, j, c) for m, c in p.terms.items()
                  for i, j in [indices(m)]] for p in self.sharp_int[0]]
        return cols, den * den // g, cross

    def _cross_rows(self, s):
        """The int matrix of y -> (s x y) s_den for an int vector s, one
        row per polarized adjoint row of _u_data."""
        cm = [[0] * self.dim for _ in range(self.dim)]
        for row, terms in zip(cm, self._u_data[2]):
            for i, j, c in terms:
                row[j] += c * s[i]
                row[i] += c * s[j]
        return cm

    def _cross_apply(self, s, y):
        """(s x y) s_den for int vectors s and y: the rows of
        _cross_rows(s) applied to y, without forming them."""
        return [sum([c * (s[i] * y[j] + s[j] * y[i]) for i, j, c in terms])
                for terms in self._u_data[2]]

    def u_matrix_int(self, x):
        """(rows, den): the matrix of U_x(y) = T(x,y) x - x# x y, linear
        in y, as int rows with U_x = rows / den.

        With x = xi / d, T(x, y) = r.y / (t_den d) and x# = s / (s_den d^2)
        for int vectors r and s, so every entry is an int over the one
        denominator den = lcm(t_den, s_den^2) d^2.  Over F_p den is 1 and
        the entries are unreduced lifts, to be read mod p."""
        cols, t_den, _ = self._u_data
        sh_i, s_den = self.sharp_int
        xi, d = lift(x)
        cm = self._cross_rows([p.eval(xi) for p in sh_i])
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
        """T(x) = S(x) = N(x) = 0.  Every x satisfies its generic minimum
        polynomial x^3 - T(x) x^2 + S(x) x - N(x) (McCrimmon, A Taste of
        Jordan Algebras, 2004, Part II, ch. 4), so such an x has
        x^3 = U_x(x) = 0.  search.find_nilpotent scans with the same test
        on int lifts and re-verifies its hit with this one and with
        U_x(x) = 0."""
        return not self.trace(x) and not self.spur(x) and not self.norm(x)

    # -- mutation testing ------------------------------------------------------

    def _corrupted(self, coord):
        """corrupt_sharp's copy of this structure: its forms are read off
        bad_sharp, like any structure's."""
        base_sharp = self.eval_sharp

        def bad_sharp(coords):
            out = list(base_sharp(coords))
            out[coord] = out[coord] + coords[0] * coords[0]
            return out

        return CubicNormStructure(self.ground, self.dim, self.eval_norm,
                                  bad_sharp, self.unit,
                                  label=self.label + "_corrupted")

    # -- identity suite --------------------------------------------------------------

    def _trace_adjoint_ok(self):
        """T(x#, y) = d_y N(x), one coordinate y_n of y at a time, as int
        forms mod the characteristic.

        With T(x, y) = sum_mn cols[n][m] x_m y_n / t_den (the trace
        columns of _u_data), # = sh_i / s_den and N = n_i / n_den, the
        coefficient of y_n reads n_den sum_m cols[n][m] sh_i[m] = s_den
        t_den dn_i/dx_n.  The partial derivatives are read off n_i's terms
        in one pass: a term a x_p x_q x_r adds e a times the monomial
        without one x_n to dn_i/dx_n, for each distinct n among p, q, r,
        e the exponent of x_n; distinct terms give distinct monomials."""
        cols, t_den, _ = self._u_data
        sh_i, s_den = self.sharp_int
        n_i, n_den = self.n_int
        grads = [{} for _ in cols]
        for m, a in n_i.terms.items():
            idx = indices(m)
            for n in set(idx):
                grads[n][m - (1 << (8 * n + 8)) - 1] = idx.count(n) * a
        char = self.ground.char
        return all(_mod(n_den * linear_combination(col, sh_i), char)
                   == _mod(s_den * t_den * Poly(g), char)
                   for col, g in zip(cols, grads))

    def _unit_cross_failure(self):
        """The first coordinate i where c x y = T(y) c - y fails, or None.

        With c = ci / cd, T = t / den (_trace_data) and cross(c, y) =
        C y / (s_den cd) for C = _cross_rows(ci), row i reads
        den C_i = s_den (ci_i t - cd den e_i) over ints, mod the
        characteristic."""
        ci, cd = lift(self.unit)
        t, _, den = self._trace_data
        s_den = self.sharp_int[1]
        char = self.ground.char
        for i, row in enumerate(self._cross_rows(ci)):
            for n, e in enumerate(row):
                diff = den * e - s_den * (ci[i] * t[n]
                                          - (cd * den if n == i else 0))
                if diff % char if char else diff:
                    return i
        return None

    @cached_property
    def _adjoint_failure(self):
        """x## = N(x) x: None when proved, else a witness.  Cached, so
        every suite run on the structure and every isotope built on it
        share it.

        The identity is compared on the int lifts (denominators cleared
        over Q) mod the characteristic: with n_i = n_den N and sh_i =
        s_den #, coordinate i reads n_den sh_i[i](sh_i) = s_den^3 n_i x_i.
        poly.compose_mismatch composes the coordinates a run at a time
        (a coordinate joins the run while the first indices of its terms
        are among those of the run's first coordinate), the run's forms
        packed into the slots of one int coefficient and the packed
        target s_den^3 n_i x_i subtracted; over Q a run whose packed
        differences are all 0 is done without unpacking, otherwise each
        slot is read through _mod.  The witness is unchanged by the
        packing: the first coordinate that differs and its lowest
        differing monomial."""
        sh_i, s_den = self.sharp_int
        n_i, n_den = self.n_int
        s3 = s_den ** 3
        bad = compose_mismatch([n_den * p for p in sh_i], sh_i,
                               lambda i: s3 * (n_i * Poly.var(i, 1)),
                               self.ground.char)
        return None if bad is None else "coordinate %d, monomial %r" % (
            bad[0], _lowest(bad[1]))

    def axiom_suite(self):
        """Run the full identity suite and return a report with one entry
        per identity; failures are reported, not raised, but inhomogeneous
        forms raise expand_symbolic's VerificationFailure first.  Each
        entry's elapsed_s is the wall time of its check, including the int
        data it builds first.

        x## = N(x) x is read from _adjoint_failure: proved on the
        structure's own int forms, or, on an isotope, through its base
        (isotopy.Isotope).

        Three checks are derived from premises proved in the same run
        (derive): each passes when all its premises passed, and otherwise
        fails with one witness naming the failed premises in suite order,
        e.g. "not proved: premises failed: sharp_unit_is_unit,
        adjoint_of_adjoint".  The structure has then already failed, so
        no point drawn at random could change the verdict.
        - N(x#) = N(x)^2, from x## = N(x) x, in every characteristic.
          That is an identity of forms in k[X] (an isotope's too), so at
          x# it reads x### = N(x#) x#, and # of N(x) x is N(x)^2 x# (the
          forms are homogeneous, or expand_symbolic would have raised).
          So (N(x#) - N(x)^2) x# = 0 in k[X]^dim, and k[X] is a domain:
          N(x#) = N(x)^2 if x# != 0, and if x# = 0, then N(x) x = 0, so
          N = 0 and both sides are 0.  Nothing is divided.

        The U-operator identities are derived from the five checks of
        U_PREMISES, for the U_x y = T(x, y) x - x# x y of u_op, whose T
        (the trace bilinear form of _u_data) and x (the polarized
        adjoint) are those the premises were proved for.
        - U_x(x^-1) = x, in every characteristic: x^-1 = x# / N(x), and
          U_x x# = T(x, x#) x - x# x x#.  The adjoint is quadratic, so
          x# x x# = 2 x## = 2 N(x) x.  T is symmetric, and the gradient
          identity with Euler's identity gives T(x#, x) = d_x N(x) =
          3 N(x).  So U_x x# = 3 N(x) x - 2 N(x) x = N(x) x.
        - N(U_x y) = N(x)^2 N(y), by McCrimmon's construction theorem
          (Trans. AMS 139, 1969; A Taste of Jordan Algebras, 2004, Part
          II, ch. 4).  Its hypotheses: a cubic form N on a module over a
          commutative ring of scalars, any characteristic, with a base
          point c, N(c) = 1, and a quadratic map # with c# = c, such that
          T(x#, y) = d_y N(x), x## = N(x) x and c x y = T(y) c - y hold
          strictly, that is in every scalar extension.  Then U_x y =
          T(x, y) x - x# x y makes a unital Jordan algebra with unit c
          whose norm satisfies N(U_x y) = N(x)^2 N(y).  The suite proves
          the three identities as identities of formal polynomials, which
          hold in every scalar extension.  The theorem excludes no
          characteristic.

        The forms are the evaluators' forms by construction (_norm_form,
        _adjoint_forms), so expansion_matches_evaluators passes
        symbolically, with no witness and no point drawn."""
        g = self.ground
        checks = []
        n_poly, sharp_polys = self.expand_symbolic()
        clock = time.perf_counter()

        def emit(name, ok, witness=None):
            # a check's time runs from the previous emit
            nonlocal clock
            now = time.perf_counter()
            checks.append(CheckResult(name, bool(ok), witness, now - clock))
            clock = now

        def derive(name, premises):
            # passed when every premise passed in this run, else not proved
            failed = [c.name for c in checks
                      if c.name in premises and not c.passed]
            emit(name, not failed,
                 ("not proved: premises failed: " + ", ".join(failed))
                 if failed else None)

        # base point identities
        emit("norm_unit_is_one", self.norm(self.unit) == g.one)
        emit("sharp_unit_is_unit",
             all(a == b for a, b in zip(self.sharp(self.unit), self.unit)))
        emit("norm_homogeneous_degree_3", n_poly.is_homogeneous(3))
        emit("sharp_homogeneous_degree_2",
             all(p.is_homogeneous(2) for p in sharp_polys))

        # x## = N(x) x, and N(x#) = N(x)^2 derived from it
        adjoint = self._adjoint_failure
        emit("adjoint_of_adjoint", adjoint is None, adjoint)
        derive("norm_of_adjoint", ("adjoint_of_adjoint",))

        # c x x = T(x) c - x   (cross with the unit)
        bad = self._unit_cross_failure()
        emit("unit_cross_identity", bad is None,
             None if bad is None else "coordinate %d" % bad)

        # T(x#, y) equals the directional derivative of N at x along y
        trace_ok = self._trace_adjoint_ok()
        emit("trace_adjoint_is_norm_derivative", trace_ok,
             None if trace_ok else "polynomials differ")

        # U_c = identity
        uc = self.u_matrix(self.unit)
        ident = linalg.identity(self.dim, g.one, g.zero)
        emit("u_operator_of_unit_is_identity", linalg.mat_equal(uc, ident))

        # N(U_x y) = N(x)^2 N(y) and U_x(x^{-1}) = x: derived from the
        # premises of McCrimmon's theorem (see the docstring)
        derive("u_operator_norm_similarity", U_PREMISES)
        derive("u_operator_inverse_identity", U_PREMISES)

        # the forms are the evaluators' forms by construction
        emit("expansion_matches_evaluators", True)

        return AxiomReport(checks)


def _as_form(p):
    """An evaluator's value on indeterminates as a form: a constant (a
    coordinate that no term reaches) becomes a constant Poly, and the
    few Fraction coefficients that sums of fractions make integral are
    turned into ints."""
    return _integral_as_int(p) if isinstance(p, Poly) else Poly.const(p)


def corrupt_sharp(j: CubicNormStructure, coord=0):
    """Copy of j with x0^2 added to adjoint coordinate `coord` (mutation
    testing), built by j._corrupted: its adjoint evaluator adds that term
    to j's, and its forms are read off its evaluators, so they are j's
    with the term added.  An isotope adds it to its innermost
    construction and re-applies its v (isotopy.Isotope), so its
    identities are still proved through its base."""
    return j._corrupted(coord)
