"""First and second Tits constructions of cubic norm structures.

First construction J(D, lambda): carrier D + D + D over k with

    N((x,y,z)) = N_D(x) + lam N_D(y) + lam^-1 N_D(z) - T_D(xyz)
    (x,y,z)#   = (x# - yz, lam^-1 z# - xy, lam y# - zx),  1 = (1,0,0)

Second construction J(B, sigma, u, mu): carrier (B,sigma)+ + B with

    N((b,x)) = N_B(b) + T_K(mu N_B(x)) - T_B(b x u sigma(x))
    (b,x)#   = (b# - x u sigma(x), bar(mu) sigma(x)# u^-1 - b x),  1 = (1,0)

for an admissible pair: sigma(u) = u invertible and N_B(u) = mu bar(mu).
Coordinates of the hermitian summand are taken in the deterministic
basis from UnitaryInvolution.hermitian_basis() and read off by
UnitaryInvolution.hermitian_coords(), so carriers, expansions and golden
files are reproducible.
"""

from . import linalg
from .associative import GroundCenter
from .cubic import CubicNormStructure
from .errors import (ConfigError, NotAdmissible, NotInvertible,
                     VerificationFailure, ZeroLambda)


def first_tits(d_alg, lam):
    """J(D, lambda) for a degree-3 algebra D over the ground field."""
    if not isinstance(d_alg.center, GroundCenter):
        raise ConfigError("first construction needs a k-central algebra")
    g = d_alg.center.ground
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    lam_inv = g.inv(lam)
    d = d_alg.k_dim
    dim = 3 * d

    def dec(coords):
        return (d_alg.from_k_coords(coords[0:d]),
                d_alg.from_k_coords(coords[d:2 * d]),
                d_alg.from_k_coords(coords[2 * d:3 * d]))

    def eval_norm(coords):
        x, y, z = dec(coords)
        xyz = d_alg.mul(d_alg.mul(x, y), z)
        return (d_alg.norm(x) + lam * d_alg.norm(y)
                + lam_inv * d_alg.norm(z) - d_alg.trace(xyz))

    def eval_sharp(coords):
        x, y, z = dec(coords)
        c1 = d_alg.sub(d_alg.sharp(x), d_alg.mul(y, z))
        c2 = d_alg.sub(d_alg.smul(lam_inv, d_alg.sharp(z)), d_alg.mul(x, y))
        c3 = d_alg.sub(d_alg.smul(lam, d_alg.sharp(y)), d_alg.mul(z, x))
        return (d_alg.to_k_coords(c1) + d_alg.to_k_coords(c2)
                + d_alg.to_k_coords(c3))

    unit = d_alg.to_k_coords(d_alg.unit()) + [g.zero] * (2 * d)
    j = CubicNormStructure(g, dim, eval_norm, eval_sharp, unit,
                           label="J(D,%s)" % (lam,))
    j.meta = {"type": "first_tits", "algebra": d_alg, "lam": lam}
    return j


def second_tits(b_alg, sigma, u, mu, label=None):
    """J(B, sigma, u, mu) for B of degree 3 over a quadratic etale K."""
    center = b_alg.center
    if sigma.algebra is not b_alg:
        raise ConfigError("involution does not act on the given algebra")
    g = center.ground
    if not sigma.is_hermitian(u):
        raise NotAdmissible("u is not sigma-hermitian")
    u_inv = b_alg.inv(u)                      # raises NotInvertible
    try:
        center.inv(mu)
    except NotInvertible:
        raise NotAdmissible("mu must be invertible in K")
    mu_bar = center.conj(mu)
    if b_alg.norm(u) != mu * mu_bar:
        raise NotAdmissible("N_B(u) != mu * bar(mu): pair is not admissible")

    her = sigma.hermitian_basis()
    hd = len(her)
    bd = b_alg.k_dim
    h_c = linalg.transpose([b_alg.to_k_coords(h) for h in her])

    def dec(coords):
        b = b_alg.from_k_coords(linalg.matvec(h_c, list(coords[:hd])))
        x = b_alg.from_k_coords(list(coords[hd:]))
        return b, x

    def eval_norm(coords):
        b, x = dec(coords)
        nb = center.descend(b_alg.norm(b))
        tmu = _trace_k(center, mu * b_alg.norm(x))
        cross = center.descend(
            b_alg.trace(b_alg.mul(b_alg.mul(b_alg.mul(b, x), u),
                                  sigma.apply(x))))
        return nb + tmu - cross

    def eval_sharp(coords):
        b, x = dec(coords)
        sx = sigma.apply(x)
        first = b_alg.sub(b_alg.sharp(b),
                          b_alg.mul(b_alg.mul(x, u), sx))
        if not sigma.is_hermitian(first):
            raise VerificationFailure(
                "first adjoint component left the hermitian space "
                "(construction bug)")
        second = b_alg.sub(
            b_alg.mul(b_alg.smul(mu_bar, b_alg.sharp(sx)), u_inv),
            b_alg.mul(b, x))
        return sigma.hermitian_coords(first) + b_alg.to_k_coords(second)

    unit = sigma.hermitian_coords(b_alg.unit()) + [g.zero] * bd
    j = CubicNormStructure(g, hd + bd, eval_norm, eval_sharp, unit,
                           label=label or "J(B,sigma,u,mu)")
    j.meta = {"type": "second_tits", "algebra": b_alg, "sigma": sigma,
              "u": u, "mu": mu, "her_basis": her}
    return j


def _trace_k(center, y):
    """T_K(y) = y + bar(y), descended to k."""
    return center.descend(y + center.conj(y))


def embed_hermitian_summand(j, b_elem):
    """(B,sigma)+ -> J(B,sigma,u,mu), first summand."""
    g = j.ground
    return tuple(j.meta["sigma"].hermitian_coords(b_elem)
                 + [g.zero] * j.meta["algebra"].k_dim)


def componentwise_matrix(src, tgt, alpha, beta):
    """Matrix of (b, x) -> (alpha(b), beta(x)) from the carrier of the
    second construction src to that of tgt.  alpha must carry hermitian
    elements of src to hermitian elements of tgt; the map is not
    certified here."""
    b_alg = src.meta["algebra"]
    sigma = tgt.meta["sigma"]
    g = src.ground
    her = src.meta["her_basis"]
    bd = b_alg.k_dim
    cols = [sigma.hermitian_coords(alpha(h)) + [g.zero] * bd for h in her]
    for e in linalg.identity(bd, g.one, g.zero):
        cols.append([g.zero] * len(her)
                    + b_alg.to_k_coords(beta(b_alg.from_k_coords(e))))
    return linalg.transpose(cols)
