"""Extending the cubic Galois generator to a verified automorphism.

For J = J(LK, *, 1, nu) with N_K(nu) = 1, the componentwise map
rho~((l, x)) = (rho(l), (rho tensor id)(x)) is built as an exact matrix
(tits.componentwise_matrix) and then certified at runtime by the
norm-pullback isomorphism check.  Its fixed subspace is the exact kernel
of M - I (linalg.fixed_basis) and is checked to be a unital subalgebra:
the basis spans ker(M - I), so a vector lies in the subspace exactly
when f(v) = v, and each closure check applies f once.
"""

from . import linalg
from .associative import CommutativeCubic
from .errors import ConfigError, NormConditionFailed, VerificationFailure
from .isotopy import LinearMap, verify_isomorphism
from .tits import componentwise_matrix


def extend_rho(j):
    """The extension of rho to J(LK,*,1,nu), as a certified LinearMap."""
    meta = getattr(j, "meta", None)
    if not meta or meta["type"] != "second_tits":
        raise ConfigError("rho extends second constructions J(LK,*,1,nu)")
    b_alg = meta["algebra"]
    if not isinstance(b_alg, CommutativeCubic):
        raise ConfigError("the algebra must be the commutative cubic LK")
    center = b_alg.center
    mu = meta["mu"]
    if mu * center.conj(mu) != center.one:
        raise NormConditionFailed("N_K(nu) != 1")

    g = j.ground
    m = componentwise_matrix(j, j, b_alg.rho, b_alg.rho)
    f = LinearMap(j, j, m)
    ok, cert = verify_isomorphism(f)
    if not ok:
        raise VerificationFailure(
            "componentwise rho failed certification: %r" % (cert,))
    m2 = linalg.matmul(m, m)
    m3 = linalg.matmul(m2, m)
    ident = linalg.identity(j.dim, g.one, g.zero)
    if linalg.mat_equal(m, ident):
        raise VerificationFailure("rho acts trivially on J (tower bug)")
    if not linalg.mat_equal(m3, ident):
        raise VerificationFailure("extended rho does not have order 3")
    f.certificate = cert
    return f


def fixed_subspace(f, j):
    """(basis, closure) for the f-fixed subspace of j.

    closure is a dict of exact checks: contains the base point, and is
    closed under adjoint, cross products and U on basis pairs; by
    bilinearity the pair checks are complete.
    """
    basis = linalg.fixed_basis(f.matrix)

    def fixed(v):
        return f.apply(v) == tuple(v)

    closure = {}
    closure["contains_unit"] = fixed(j.unit)
    closure["closed_under_sharp"] = all(fixed(j.sharp(b)) for b in basis)
    closure["closed_under_cross"] = all(
        fixed(j.cross(a, b)) for i, a in enumerate(basis) for b in basis[i:])
    closure["closed_under_u"] = all(
        fixed(j.u_op(a, b)) for a in basis for b in basis)
    return basis, closure
