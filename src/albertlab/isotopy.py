"""Isotopes of cubic norm structures and verified similarity maps.

The v-isotope lives on the same carrier with

    N_v(x) = N(v) N(x),   x^{#_v} = N(v) U_{v^{-1}}(x^#),   1^{(v)} = v^{-1}

and the derived U-operator satisfies U^{(v)}_x = U_x U_v.  The isotope's
forms are the base's forms scaled by these closed formulas, and its
evaluators run through the base's int forms (N(v) and U_{v^-1} lifted
once); u_isotope_identity compares the isotope's own U-matrix with
U_x U_v as int matrices over their denominators, mod the characteristic.
Norm similarities are certified symbolically: the pullback of the target
norm form through the map's matrix is compared, monomial by monomial,
with a scalar multiple of the source norm form.  The pullback runs on
int lifts, the matrix lifted once over one denominator and the target's
int norm form contracted with it one tensor mode at a time
(poly.pullback), with no Poly per matrix row.  An isomorphism
certificate is a similarity with multiplier 1 that carries the base
point to the base point.  For a second construction the v-isotope is
mapped onto J(B, s_v, u v#, N(v) mu) by one closed-form map, which is
certified that way before it is returned.
"""

from fractions import Fraction
from operator import mul

from . import linalg
from .cubic import CubicNormStructure, _mod
from .errors import ConfigError, NotInvertible, NoVerifiedMap, SingularMap
from .poly import indices, pullback
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


def isotope(j, v):
    """The v-isotope of j on the same carrier.

    U_{v^-1} (u_matrix_int) and N(v) are held once as int lifts.  The
    isotope's forms are N(v) times the base's norm form and the base's
    adjoint forms through the same int matrix, times one scalar
    N(v) / den.  At a ground point its evaluator computes x^{#v} from the
    base's int adjoint at the point's lift (sharp_int), one int matvec and
    one from_int per coordinate."""
    nv = j.norm(v)
    if not nv:
        raise NotInvertible("N(v) = 0: isotope needs invertible v")
    v_inv = j.inverse(v)
    u_rows, u_den = j.u_matrix_int(v_inv)
    (nv_i,), nv_den = lift([nv])
    kind = j._kind
    scale_den = nv_den * u_den
    scale = from_int(kind, nv_i, scale_den)

    def eval_norm(coords):
        return nv * j.norm(coords)

    def eval_sharp(coords):
        s, den = j.sharp_int(coords)
        den *= scale_den
        return [from_int(kind, nv_i * sum(map(mul, row, s)), den)
                for row in u_rows]

    def forms():
        n, sh = j.expand_symbolic()
        return nv * n, [scale * p for p in linalg.matvec(u_rows, sh)]

    out = CubicNormStructure(j.ground, j.dim, eval_norm, eval_sharp,
                             list(v_inv), label=j.label + "^(v)",
                             forms=forms)
    out.meta = {"type": "isotope", "base": j, "v": tuple(v)}
    return out


def u_isotope_identity(j, jv, v, stream, points=50):
    """Check U^{(v)}_x = U_x U_v for random x; returns the first failing x
    or None.

    The left side is jv's own U-matrix, from the isotope's expansion, and
    the right side the base's product.  With every U-matrix an int matrix
    over its denominator (u_matrix_int), the identity reads
    lhs (dx dv) = dl (U_x U_v) entry by entry over ints, mod the
    characteristic; U_v is lifted once."""
    p = j.ground.char
    v_rows, dv = j.u_matrix_int(v)
    v_cols = list(zip(*v_rows))
    for _ in range(points):
        x = j.random_point(stream)
        lhs, dl = jv.u_matrix_int(x)
        ux, dx = j.u_matrix_int(x)
        a = dx * dv
        for lrow, urow in zip(lhs, ux):
            for e, col in zip(lrow, v_cols):
                diff = a * e - dl * sum(map(mul, urow, col))
                if diff and (not p or diff % p):
                    return x
    return None


def verify_norm_similarity(f):
    """Exact multiplier nu with N_target(f(x)) = nu N_source(x), or a
    failure witness.  Returns (multiplier_or_None, witness_or_None).

    The matrix entries are lifted once to ints over one denominator s,
    and the target's int norm form is pulled back through that int
    matrix by poly.pullback, a dense contraction one mode at a time;
    the result is compared with the source's int norm form mod the
    characteristic, as in the axiom suite."""
    src, tgt = f.source, f.target
    g = src.ground
    n = src.dim
    n2_i, d2 = tgt.n_int
    n1_i, d1 = src.n_int
    ints, s = lift([e for row in f.matrix for e in row])
    pull = pullback(n2_i, [ints[r * n:r * n + n]
                           for r in range(tgt.dim)])   # = d2 s^3 N2(f(x))
    m = min(n1_i.terms, key=indices)
    a = pull.coefficient(m) or 0
    b = n1_i.terms[m]
    diff = _mod(b * pull - a * n1_i, g.char)
    if diff:
        first = indices(min(diff.terms, key=indices))
        return None, ("monomial %r: pullback and source norm are not "
                      "proportional" % (first,))
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
