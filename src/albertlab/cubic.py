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
Identity checks compare int forms mod the characteristic; a failed
x## or N(x#) check names the lowest monomial that differs, and the
coordinate where there is one.
x## = N(x) x and N(x#) = N(x)^2 come from one cached property
(_adjoint_verdicts): this class proves them on its own forms, and an
isotope overrides it to prove them through its base (isotopy.Isotope),
so no dense isotope form is ever composed.  x## is composed a run of
adjoint coordinates at a time (poly.compose_mismatch): consecutive
coordinates whose terms start with the first indices of the run's first
coordinate share every product of the nested substitution, their int
forms packed into the slots of one int coefficient (9 runs of 3 on
J(cyclic, 3)); the verdict and the witness are those of one coordinate
at a time.

The two U-operator identities N(U_x y) = N(x)^2 N(y) and U_x(x^-1) = x
are derived, not sampled, when the suite has proved their premises as
formal identities in the same run: N(c) = 1, c# = c, x## = N(x) x,
c x y = T(y) c - y and T(x#, y) = d_y N(x).  These are the hypotheses
of McCrimmon's construction theorem for cubic norm structures (Trans.
AMS 139, 1969; A Taste of Jordan Algebras, 2004, Part II, ch. 4),
stated over any commutative ring of scalars, so in every
characteristic; U_x(x^-1) = x also follows from two of them directly
(see axiom_suite).  Only a failed premise samples both, through one
loop (_first_failure).

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
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, List, Optional

from . import linalg
from .errors import NotInvertible, VerificationFailure
from .poly import (Poly, _int_scaled, _integral_as_int, _lowest, _mod,
                   _nonzero, compose_mismatch, indices, linear_combination,
                   mono, variables)
from .rng import Stream
from .scalars import from_int, lift

# the premises of McCrimmon's construction theorem, as the suite names
# them; both U-operator identities are derived when all of them were
# proved symbolically in the same run (axiom_suite)
U_PREMISES = ("norm_unit_is_one", "sharp_unit_is_unit", "adjoint_of_adjoint",
              "unit_cross_identity", "trace_adjoint_is_norm_derivative")

# random_invertible's draws before it gives up
_INVERTIBLE_TRIES = 1000


@dataclass
class CheckResult:
    name: str
    passed: bool
    mode: str                  # "symbolic" or "random"
    witness: Optional[str] = None
    elapsed_s: float = 0.0     # wall seconds spent on this check


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
    point; the sparse forms N_poly and sharp_polys are read off them run on
    indeterminates, each at its first use (_norm_form, _adjoint_forms)."""

    def __init__(self, ground, dim, eval_norm: Callable, eval_sharp: Callable,
                 unit, label="J"):
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

    # -- randomness ---------------------------------------------------------------

    def random_point(self, stream: Stream):
        return tuple(self.ground.random(stream) for _ in range(self.dim))

    def random_invertible(self, stream: Stream):
        for _ in range(_INVERTIBLE_TRIES):
            x = self.random_point(stream)
            if self.norm(x):
                return x
        raise NotInvertible("no invertible element found in %d draws"
                            % _INVERTIBLE_TRIES)

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
    def _adjoint_verdicts(self):
        """(x## = N(x) x, N(x#) = N(x)^2), each None when proved and a
        witness otherwise.  Cached, so every suite run on the structure
        and every isotope built on it share them.

        x## = N(x) x is compared on the int lifts (denominators cleared
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
        differing monomial.

        N(x#) = N(x)^2 is derived, not composed, when x## = N(x) x is
        proved, the gradient identity T(x#, y) = d_y N(x) holds
        (_trace_adjoint_ok) and the characteristic is not 3.  N is a
        homogeneous cubic, so Euler's identity gives T(x#, x) = 3 N(x).
        Substituting x# for x gives T(x##, x#) = 3 N(x#), and x## = N(x) x
        with the symmetry of T turns the left side into N(x) T(x, x#) =
        3 N(x)^2.  Dividing by 3 is allowed outside characteristic 3.  All
        of these are identities of formal polynomials, so the
        substitution is sound.  Otherwise N(x#) is composed
        (_norm_of_adjoint_direct)."""
        sh_i, s_den = self.sharp_int
        n_i, n_den = self.n_int
        char = self.ground.char
        s3 = s_den ** 3
        bad = compose_mismatch([n_den * p for p in sh_i], sh_i,
                               lambda i: s3 * (n_i * Poly.var(i, 1)), char)
        adjoint = None if bad is None else "coordinate %d, monomial %r" % (
            bad[0], _lowest(bad[1]))
        if adjoint is None and char != 3 and self._trace_adjoint_ok():
            return None, None
        return adjoint, self._norm_of_adjoint_direct()

    def _norm_of_adjoint_direct(self):
        """N(x#) = N(x)^2 by composition (compose_mismatch, one form): the
        int norm form composed with the int adjoint, against the square of
        the norm form, mod the characteristic.  With n_i = n_den N and
        sh_i = s_den #, the identity reads n_den n_i(sh_i) = s_den^3 n_i^2.  None when it
        holds, else the lowest differing monomial."""
        sh_i, s_den = self.sharp_int
        n_i, n_den = self.n_int
        bad = compose_mismatch([n_den * n_i], sh_i,
                               lambda _: s_den ** 3 * (n_i * n_i),
                               self.ground.char)
        return None if bad is None else "monomial %r" % (_lowest(bad[1]),)

    def axiom_suite(self, seed=0, points=100):
        """Run the full identity suite and return a report with one entry
        per identity; failures are reported, not raised, but inhomogeneous
        forms raise expand_symbolic's VerificationFailure first.  Each
        entry's elapsed_s is the wall time of its check, including the int
        data it builds first.

        x## = N(x) x and N(x#) = N(x)^2 are read from _adjoint_verdicts:
        proved on the structure's own int forms, or, on an isotope,
        through its base (isotopy.Isotope).  Neither draws a point.

        N(U_x y) = N(x)^2 N(y) and U_x(x^-1) = x are derived, and draw no
        points, when the five checks of U_PREMISES all passed
        symbolically in this run: N(c) = 1, c# = c, x## = N(x) x,
        c x y = T(y) c - y and T(x#, y) = d_y N(x).
        u_op computes U_x y = T(x, y) x - x# x y, with T(x, y) = T(x) T(y)
        - S(x, y) the trace bilinear form of _u_data and x x y =
        (x + y)# - x# - y# its polarized adjoint, the same T and x the
        premises were proved for.
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
          characteristic, so none falls back to sampling.
        Otherwise, only when a premise failed, both are sampled: N(U_x y)
        at `points` random pairs, then U_x(x^-1) = x at max(10, points //
        5) random invertible points, from the suite's one stream.

        The forms are the evaluators' forms by construction (_norm_form,
        _adjoint_forms), so expansion_matches_evaluators passes
        symbolically, with no witness and no point drawn."""
        g = self.ground
        stream = Stream(seed).derive("axioms:" + self.label)
        checks = []
        n_poly, sharp_polys = self.expand_symbolic()
        clock = time.perf_counter()

        def emit(name, ok, mode, witness=None):
            # a check's time runs from the previous emit
            nonlocal clock
            now = time.perf_counter()
            checks.append(CheckResult(name, bool(ok), mode, witness,
                                      now - clock))
            clock = now

        def sampled(name, n, fails, draw):
            w = _first_failure(n, draw, fails)
            emit(name, w is None, "random", None if w is None else repr(w))

        # base point identities
        emit("norm_unit_is_one", self.norm(self.unit) == g.one, "symbolic")
        emit("sharp_unit_is_unit",
             all(a == b for a, b in zip(self.sharp(self.unit), self.unit)),
             "symbolic")
        emit("norm_homogeneous_degree_3", n_poly.is_homogeneous(3),
             "symbolic")
        emit("sharp_homogeneous_degree_2",
             all(p.is_homogeneous(2) for p in sharp_polys), "symbolic")

        # x## = N(x) x and N(x#) = N(x)^2
        adjoint, norm = self._adjoint_verdicts
        emit("adjoint_of_adjoint", adjoint is None, "symbolic", adjoint)
        emit("norm_of_adjoint", norm is None, "symbolic", norm)

        # c x x = T(x) c - x   (cross with the unit)
        bad = self._unit_cross_failure()
        emit("unit_cross_identity", bad is None, "symbolic",
             None if bad is None else "coordinate %d" % bad)

        # T(x#, y) equals the directional derivative of N at x along y
        trace_ok = self._trace_adjoint_ok()
        emit("trace_adjoint_is_norm_derivative", trace_ok, "symbolic",
             None if trace_ok else "polynomials differ")

        # U_c = identity
        uc = self.u_matrix(self.unit)
        ident = linalg.identity(self.dim, g.one, g.zero)
        emit("u_operator_of_unit_is_identity", linalg.mat_equal(uc, ident),
             "symbolic")

        # N(U_x y) = N(x)^2 N(y) and U_x(x^{-1}) = x: derived from the
        # proved premises (see the docstring), else sampled
        if set(U_PREMISES) <= {c.name for c in checks
                               if c.passed and c.mode == "symbolic"}:
            emit("u_operator_norm_similarity", True, "symbolic")
            emit("u_operator_inverse_identity", True, "symbolic")
        else:
            def similarity_fails(xy):
                nx = self.norm(xy[0])
                return self.norm(self.u_op(*xy)) != \
                    nx * nx * self.norm(xy[1])
            sampled("u_operator_norm_similarity", points, similarity_fails,
                    lambda: (self.random_point(stream),
                             self.random_point(stream)))
            try:
                sampled("u_operator_inverse_identity",
                        max(10, points // 5),
                        lambda x: any(a - b for a, b in zip(
                            self.u_op(x, self.inverse(x)), x)),
                        lambda: self.random_invertible(stream))
            except NotInvertible:
                emit("u_operator_inverse_identity", False, "random",
                     "no invertible elements found")

        # the forms are the evaluators' forms by construction
        emit("expansion_matches_evaluators", True, "symbolic")

        return AxiomReport(checks)


def _as_form(p):
    """An evaluator's value on indeterminates as a form: a constant (a
    coordinate that no term reaches) becomes a constant Poly, and the
    few Fraction coefficients that sums of fractions make integral are
    turned into ints."""
    return _integral_as_int(p) if isinstance(p, Poly) else Poly.const(p)


def _first_failure(n, draw, fails):
    """The first of n values drawn by draw() at which fails holds, or
    None."""
    for _ in range(n):
        x = draw()
        if fails(x):
            return x
    return None


def corrupt_sharp(j: CubicNormStructure, coord=0):
    """Copy of j with x0^2 added to adjoint coordinate `coord` (mutation
    testing), built by j._corrupted: its adjoint evaluator adds that term
    to j's, and its forms are read off its evaluators, so they are j's
    with the term added.  An isotope adds it to its innermost
    construction and re-applies its v (isotopy.Isotope), so its
    identities are still proved through its base."""
    return j._corrupted(coord)
