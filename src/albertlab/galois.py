"""Extending the cubic Galois generator to a verified automorphism.

For J = J(LK, *, 1, nu) with N_K(nu) = 1, the componentwise map
rho~((l, x)) = (rho(l), (rho tensor id)(x)) is built as an exact matrix
(tits.componentwise_matrix) and then certified at runtime by the
norm-pullback isomorphism check; its fixed subspace is computed as an
exact kernel and checked to be a unital subalgebra.
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
    if mu * center.bar(mu) != center.one:
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


def in_span(basis_vectors, vec, one, zero):
    """Exact membership of vec in the span of the given vectors."""
    if not basis_vectors:
        return not any(vec)
    m = [list(b) for b in basis_vectors]
    return linalg.rank(m) == linalg.rank(m + [list(vec)])


def fixed_subspace(f, j):
    """(basis, closure) for the f-fixed subspace of j.

    closure is a dict of exact checks: contains the base point, and is
    closed under adjoint, cross products and U on basis pairs; by
    bilinearity the pair checks are complete.
    """
    g = j.ground
    n = j.dim
    delta = [[f.matrix[i][k] - (g.one if i == k else g.zero)
              for k in range(n)] for i in range(n)]
    basis = linalg.kernel_basis(delta, g.one, g.zero)

    closure = {}
    closure["contains_unit"] = in_span(basis, list(j.unit), g.one, g.zero)
    closure["closed_under_sharp"] = all(
        in_span(basis, list(j.sharp(b)), g.one, g.zero) for b in basis)
    closure["closed_under_cross"] = all(
        in_span(basis, list(j.cross(a, b)), g.one, g.zero)
        for i, a in enumerate(basis) for b in basis[i:])
    closure["closed_under_u"] = all(
        in_span(basis, list(j.u_op(a, b)), g.one, g.zero)
        for a in basis for b in basis)
    return basis, closure
