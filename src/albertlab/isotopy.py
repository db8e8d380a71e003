"""Isotopes of cubic norm structures and verified similarity maps.

The v-isotope lives on the same carrier with

    N_v(x) = N(v) N(x),   x^{#_v} = N(v) U_{v^{-1}}(x^#),   1^{(v)} = v^{-1}

and the derived U-operator satisfies U^{(v)}_x = U_x U_v.  The isotope
(Isotope) holds U_{v^-1} once as int rows; its forms are the base's
forms scaled by these closed formulas, the rows multiplied into the
base's int adjoint forms, so its evaluators, the base's scaled the same
way, never run on indeterminates.  Its x## = N(x) x is proved through
the base, from the base's proved identity and exact checks on the fixed
v (Isotope._adjoint_failure), and the suite derives N(x#) = N(x)^2 from
it as on any structure.  The isotope's own dense forms are never
composed, and an isotope of an isotope recurses.
u_isotope_identity proves U^{(v)}_x = U_x U_v the same way, from the
cached checks on v, one scalar identity and two int matrix identities,
U_w U_v = I and T^v = T U_v; it draws no point.
Norm similarities are certified symbolically: the pullback of the target
norm form through the map's matrix is compared, monomial by monomial,
with a scalar multiple of the source norm form.  The pullback runs on
int lifts, the matrix lifted once over one denominator and the target's
int norm form contracted with it by poly.pullback: all three tensor
modes as big-int multiply-adds on matrix rows and slices packed into
byte slots, every slot within one bound (sum |c| m_i m_j m_k over the
form's terms, m_r the largest |entry| of row r or 1) so that none
borrows from the next, and the symmetric pair of the last two modes
folded onto one entry after unpacking; no Poly per matrix row.  It is
exact over Z, and over F_p runs on residues and returns residues.  An
isomorphism certificate is a similarity with multiplier 1 that carries
the base point to the base point.  For a second construction the
v-isotope is mapped onto J(B, s_v, u v#, N(v) mu) by one closed-form
map, which is certified that way before it is returned.
"""

from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .cubic import CubicNormStructure, corrupt_sharp
from .errors import ConfigError, NotInvertible, NoVerifiedMap, SingularMap
from .poly import (_lowest, _mod, _nonzero, compose_mismatch, indices,
                   linear_combination, linear_form, pullback)
from .scalars import from_int, lift
from .tits import componentwise_matrix, embed_hermitian_summand, second_tits


class LinearMap:
    """Exact matrix with source/target cubic norm structures."""

    def __init__(self, source, target, matrix):
        if source.dim != target.dim:
            raise ConfigError("source and target dimensions differ")
        self.source = source
        self.target = target
        self.matrix = matrix
        if linalg.rank(matrix) != source.dim:
            raise SingularMap("candidate matrix is singular")

    def apply(self, coords):
        return tuple(linalg.matvec(self.matrix, list(coords)))

    def compose(self, other):
        """self after other (other.source -> self.target)."""
        if other.target is not self.source and \
                other.target.dim != self.source.dim:
            raise ConfigError("maps do not compose")
        return LinearMap(other.source, self.target,
                         linalg.matmul(self.matrix, other.matrix))

    def serialize(self):
        g = self.source.ground
        return [[g.to_str(e) for e in row] for row in self.matrix]


class Isotope(CubicNormStructure):
    """The v-isotope of base on the same carrier.

    U_{v^-1} (u_matrix_int) is held once as int rows u_rows over u_den,
    so x^{#v} = M x# for M = N(v) U_{v^-1} = scale u_rows, scale =
    N(v) / u_den.  The isotope's forms are its base's, scaled, each at
    its first use: N(v) times the base's norm form (_norm_form), and the
    base's int adjoint forms through M (_adjoint_forms), so its n_int
    reads the base's norm form alone.  Its evaluators are the base's,
    scaled the same way, so the forms are its evaluators' forms without
    running them.  The forms and the proofs read nv, u_rows, u_den and
    scale from the isotope at first use.

    x## = N(x) x and U^{(v)}_x = U_x U_v are proved through the base
    (_adjoint_failure, u_isotope_identity), never by composing the
    isotope's own dense forms, recursively when the base is an
    isotope."""

    def __init__(self, base, v):
        nv = base.norm(v)
        if not nv:
            raise NotInvertible("N(v) = 0: isotope needs invertible v")
        w = base.inverse(v)
        u_rows, u_den = base.u_matrix_int(w)
        scale = nv / u_den

        def eval_norm(coords):
            return nv * base.eval_norm(coords)

        def eval_sharp(coords):
            return [scale * c
                    for c in linalg.matvec(u_rows, base.eval_sharp(coords))]

        super().__init__(base.ground, base.dim, eval_norm, eval_sharp, w,
                         label=base.label + "^(v)")
        self.base = base
        self.nv, self.u_rows, self.u_den, self.scale = nv, u_rows, u_den, scale
        self.meta = {"type": "isotope", "base": base, "v": tuple(v)}

    @cached_property
    def _norm_form(self):
        """N(v) times the base's norm form, a homogeneous cubic as that
        one is."""
        return self.nv * self.base._norm_form

    @cached_property
    def _adjoint_forms(self):
        """M # = scale u_rows sh_i / s_den for the base's int adjoint
        forms (sh_i, s_den) = sharp_int, homogeneous quadratics as those
        are: each row of u_rows multiplied into sh_i in one int dict
        (linear_combination) and each of its coefficients mapped back
        once."""
        sh_i, s_den = self.base.sharp_int
        (sc,), sd = lift([self.scale])
        den = sd * s_den
        return [
            _nonzero({m: from_int(self._kind, sc * c, den)
                      for m, c in linear_combination(row, sh_i).terms.items()})
            for row in self.u_rows]

    def _corrupted(self, coord):
        return Isotope(corrupt_sharp(self.base, coord), self.meta["v"])

    @cached_property
    def _adjoint_failure(self):
        """x## = N(x) x through the base: None when proved, else a
        witness, a failed base verdict prefixed "base: ", or else the
        first failed check on the fixed v.  Write N_v = nv N for the
        isotope's norm, w = v^-1 (the isotope's unit) and M = scale A
        with A = u_rows, so x^{#v} = M x#.

        (x^{#v})^{#v} = scale^3 A (A x#)#.  If (A y)# = (u_den^2 / c_den)
        C y# as forms in y, for C / c_den = U_{w#}; A C = N(w)^2 u_den
        c_den I; and (scale u_den)^3 N(w)^2 = nv (_v_failure), then with
        the base's x## = N(x) x this is scale^3 u_den^3 N(w)^2 N(x) x =
        N_v(x) x.  For a true isotope these are (U_w y)# = U_{w#} y#,
        U_w U_{w#} = N(w)^2 I and N(w) = 1 / N(v) (McCrimmon, A Taste of
        Jordan Algebras, 2004, Part II).  The quadratic check composes
        the base's int adjoint forms at the linear forms A y by
        poly.compose_mismatch, against the rows of C times the base's int
        adjoint forms, each built in one int dict (linear_combination);
        its witness names the first coordinate that differs and its
        lowest differing monomial."""
        adjoint = self.base._adjoint_failure
        return "base: " + adjoint if adjoint else self._v_failure

    @cached_property
    def _v_failure(self):
        """The first of the three checks on v that fails, or None (see
        _adjoint_failure); cached, so x## and the U-operator law
        (u_isotope_identity) share them.  Each is exact over the ints,
        read mod the characteristic."""
        b = self.base
        char = self.ground.char
        a, a_den = self.u_rows, self.u_den
        nw = b.norm(self.unit)
        if (self.scale * a_den) ** 3 * nw * nw != self.nv:
            return "scale: (scale u_den)^3 N(w)^2 != N(v)"
        c, c_den = b.u_matrix_int(b.sharp(self.unit))
        (n2,), d2 = lift([nw * nw])
        bad = _product_mismatch(a, c, d2, _diagonal(n2 * a_den * c_den),
                                char)
        if bad:
            return "U_w U_{w#} entry (%d, %d)" % bad
        sh_i, _ = b.sharp_int
        a2 = a_den * a_den
        bad = compose_mismatch(
            [c_den * p for p in sh_i], [linear_form(row) for row in a],
            lambda m: linear_combination([a2 * e for e in c[m]], sh_i), char)
        if bad:
            return "(U_w y)# coordinate %d, monomial %r" % (
                bad[0], _lowest(bad[1]))
        return None


def isotope(j, v):
    """The v-isotope of j (Isotope)."""
    return Isotope(j, v)


def _diagonal(d):
    """The entries of d I, as _product_mismatch reads them."""
    return lambda i, k: d if i == k else 0


def _product_mismatch(a, b, s, want, char):
    """The first entry (i, k) where s (a b)_ik, for int matrices a and b,
    differs from want(i, k) mod the characteristic, or None."""
    cols = list(zip(*b))
    for i, row in enumerate(a):
        for k, col in enumerate(cols):
            e = s * sum(map(mul, row, col)) - want(i, k)
            if e % char if char else e:
                return i, k
    return None


def u_isotope_identity(j, jv, v):
    """Prove U^{(v)}_x = U_x U_v for the isotope jv = isotope(j, v); None
    when proved, else a witness naming the route step that failed.  No
    point is drawn.

    Write w = v^-1, A / u_den = U_w (jv's u_rows), M = scale A, so that
    x^{#v} = M x#, C / c_den = U_{w#} and V / dv = U_v.  jv's U-matrix is
    U^{(v)}_x y = T^v(x, y) x - x^{#v} x_v y, and the base's product is
    U_x U_v y = T(x, U_v y) x - x# x (U_v y).  jv's adjoint forms are M #
    by construction (Isotope._adjoint_forms), so a x_v b = M (a x b).
    The checks on v that prove jv's x## (Isotope._v_failure) give
    A C = N(w)^2 u_den c_den I and (A y)# = (u_den^2 / c_den) C y# as
    forms in y, whose polarization (A a) x (A b) = (u_den^2 / c_den)
    C (a x b) holds in every characteristic.  Added to them are one
    scalar identity, (scale u_den N(w))^2 = 1, and two int matrix
    identities:
    (i) A V = u_den dv I, that is U_w U_v = I, and
    (ii) T^v = T U_v, with T^v read from jv's own trace data.
    By (i), y = A V y / (u_den dv), so x^{#v} x_v y = M ((M x#) x y) =
    (scale u_den N(w))^2 x# x (U_v y) = x# x (U_v y), and with (ii) the
    two sides agree (McCrimmon, A Taste of Jordan Algebras, 2004, Part
    II)."""
    if getattr(jv, "base", None) is not j:
        return "premise: jv is not an isotope of j"
    if jv._v_failure:
        return jv._v_failure
    if (jv.scale * jv.u_den * j.norm(jv.unit)) ** 2 != j.ground.one:
        return "scale: (scale u_den N(w))^2 != 1"
    char = j.ground.char
    v_rows, dv = j.u_matrix_int(v)
    bad = _product_mismatch(jv.u_rows, v_rows, 1, _diagonal(jv.u_den * dv),
                            char)
    if bad:
        return "U_w U_v entry (%d, %d)" % bad
    tv, tv_den, _ = jv._u_data
    t, t_den, _ = j._u_data
    a = t_den * dv
    bad = _product_mismatch(t, v_rows, tv_den, lambda i, k: a * tv[i][k],
                            char)
    if bad:
        return "T^v = T U_v entry (%d, %d)" % bad
    return None


def verify_norm_similarity(f):
    """Exact multiplier nu with N_target(f(x)) = nu N_source(x), or a
    failure witness.  Returns (multiplier_or_None, witness_or_None).

    The matrix entries are lifted once to ints over one denominator s,
    and the target's int norm form is pulled back through that int
    matrix by poly.pullback, a dense contraction over Z whose three
    modes all run on packed big-int slots sized by one exact bound, the
    symmetric pair of the last two modes folded after unpacking, over F_p
    in residues; the result is compared with the source's int norm form
    mod the characteristic, as in the axiom suite."""
    src, tgt = f.source, f.target
    g = src.ground
    n = src.dim
    n2_i, d2 = tgt.n_int
    n1_i, d1 = src.n_int
    ints, s = lift([e for row in f.matrix for e in row])
    pull = pullback(n2_i, [ints[r * n:r * n + n] for r in range(tgt.dim)],
                    g.char)     # = d2 s^3 N2(f(x)), in the characteristic
    m = min(n1_i.terms, key=indices)
    a = pull.coefficient(m) or 0
    b = n1_i.terms[m]
    diff = _mod(b * pull - a * n1_i, g.char)
    if diff:
        return None, ("monomial %r: pullback and source norm are not "
                      "proportional" % (_lowest(diff),))
    nu = g.from_fraction(Fraction(a * d1, b * d2 * s ** 3))
    if not nu:
        return None, "pullback is the zero form"
    return nu, None


def verify_isomorphism(f):
    """(ok, certificate): multiplier 1 and base point carried to base
    point certify an isomorphism of the cubic norm structures."""
    nu, wit = verify_norm_similarity(f)
    cert = {"multiplier": None if nu is None else f.source.ground.to_str(nu)}
    if nu is None:
        cert["norm_check"] = "failed: %s" % wit
        cert["unit_check"] = "skipped"
        return False, cert
    cert["norm_check"] = "norm pullback proportional (symbolic)"
    if nu != f.source.ground.one:
        cert["unit_check"] = "skipped"
        return False, cert
    img = f.apply(f.source.unit)
    unit_ok = all(a == b for a, b in zip(img, f.target.unit))
    cert["unit_check"] = "base point preserved" if unit_ok \
        else "base point not preserved"
    return unit_ok, cert


# ---------------------------------------------------------------------------
# the isotope isomorphism for second constructions

def second_tits_isotope_iso(j, v):
    """The certified isomorphism (b, x) |-> (vb, x) from
    isotope(J(B,s,u,mu), (v,0)) to J(B, s_v, u v#, N(v) mu), for
    s-hermitian invertible v (Petersson and Racine, "Jordan algebras of
    degree 3 and the Tits process", J. Algebra 1986).

    vb is s_v-hermitian for s-hermitian b, as s_v(vb) = v s(b) s(v) v^-1
    = vb.  The map is returned only once verify_isomorphism certifies it;
    otherwise NoVerifiedMap is raised."""
    meta = getattr(j, "meta", None)
    if not meta or meta["type"] != "second_tits":
        raise ConfigError("needs a second-construction structure")
    b_alg = meta["algebra"]
    sigma = meta["sigma"]
    if not sigma.is_hermitian(v):
        raise ConfigError("v must be fixed by the involution")
    nv = b_alg.norm(v)          # in K, but bar-fixed
    if not b_alg.center.descend(nv):
        raise NotInvertible("N_B(v) = 0")

    jv = isotope(j, embed_hermitian_summand(j, v))
    target = second_tits(b_alg, sigma.twisted(v),
                         b_alg.mul(meta["u"], b_alg.sharp(v)),
                         nv * meta["mu"], label=j.label + "_isotope_target")
    m = componentwise_matrix(j, target, lambda b: b_alg.mul(v, b),
                             lambda x: x)
    f = LinearMap(jv, target, m)
    ok, cert = verify_isomorphism(f)
    if not ok:
        raise NoVerifiedMap("(b,x) -> (vb, x) failed certification: %r"
                            % (cert,))
    cert["candidate"] = "(b,x) -> (b->vb, x)"
    f.certificate = cert
    return f
