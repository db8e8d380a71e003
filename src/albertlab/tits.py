"""First and second Tits constructions of cubic norm structures.

First construction J(D, lambda): carrier D + D + D over k with

    N((x,y,z)) = N_D(x) + lam N_D(y) + lam^-1 N_D(z) - T_D(xyz)
    (x,y,z)#   = (x# - yz, lam^-1 z# - xy, lam y# - zx),  1 = (1,0,0)

Second construction J(B, sigma, u, mu): carrier (B,sigma)+ + B with

    N((b,x)) = N_B(b) + T_K(mu N_B(x)) - T_B(b x u sigma(x))
    (b,x)#   = (b# - x u sigma(x), bar(mu) sigma(x)# u^-1 - b x),  1 = (1,0)

for an admissible pair: sigma(u) = u invertible and N_B(u) = mu bar(mu).
Coordinates of the hermitian summand are taken in the deterministic
basis from UnitaryInvolution.hermitian_basis(), so carriers, expansions
and golden files are reproducible.
"""

from . import linalg
from .associative import GroundCenter, QuadraticCenter
from .cubic import CubicNormStructure
from .errors import (ConfigError, NotAdmissible, NotInvertible,
                     VerificationFailure, ZeroLambda)
from .scalars import int_constants


def first_tits(d_alg, lam, label=None):
    """J(D, lambda) for a degree-3 algebra D over the ground field."""
    if not isinstance(d_alg.center, GroundCenter):
        raise ConfigError("first construction needs a k-central algebra")
    g = d_alg.center.ground
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    # held as ints when integral (scalars.int_constants); meta keeps lam
    lam_c, lam_inv = int_constants((lam, g.inv(lam)))
    d = d_alg.k_dim
    dim = 3 * d

    def dec(coords):
        return (d_alg.from_k_coords(coords[0:d]),
                d_alg.from_k_coords(coords[d:2 * d]),
                d_alg.from_k_coords(coords[2 * d:3 * d]))

    def eval_norm(coords):
        x, y, z = dec(coords)
        xyz = d_alg.mul(d_alg.mul(x, y), z)
        return (d_alg.norm(x) + lam_c * d_alg.norm(y)
                + lam_inv * d_alg.norm(z) - d_alg.trace(xyz))

    def eval_sharp(coords):
        x, y, z = dec(coords)
        c1 = d_alg.sub(d_alg.sharp(x), d_alg.mul(y, z))
        c2 = d_alg.sub(d_alg.smul(lam_inv, d_alg.sharp(z)), d_alg.mul(x, y))
        c3 = d_alg.sub(d_alg.smul(lam_c, d_alg.sharp(y)), d_alg.mul(z, x))
        return (d_alg.to_k_coords(c1) + d_alg.to_k_coords(c2)
                + d_alg.to_k_coords(c3))

    unit = d_alg.to_k_coords(d_alg.unit()) + [g.zero] * (2 * d)
    j = CubicNormStructure(g, dim, eval_norm, eval_sharp, unit,
                           label=label or "J(D,%s)" % (lam,))
    j.meta = {"type": "first_tits", "algebra": d_alg, "lam": lam}
    return j


def embed_first_summand(j, d_elem):
    """D -> J(D, lambda), first summand."""
    d_alg = j.meta["algebra"]
    g = j.ground
    return tuple(d_alg.to_k_coords(d_elem)
                 + [g.zero] * (j.dim - d_alg.k_dim))


def second_tits(b_alg, sigma, u, mu, label=None):
    """J(B, sigma, u, mu) for B of degree 3 over a quadratic etale K."""
    center = b_alg.center
    if not isinstance(center, QuadraticCenter):
        raise ConfigError("second construction needs a K-central algebra")
    if getattr(center.K, "split", False) or center.tower.d is None:
        raise ConfigError("split K = k x k second constructions are not "
                          "supported")
    if sigma.algebra is not b_alg:
        raise ConfigError("involution does not act on the given algebra")
    g = center.ground
    if not sigma.is_hermitian(u):
        raise NotAdmissible("u is not sigma-hermitian")
    u_inv = b_alg.inv(u)                      # raises NotInvertible
    try:
        mu_inv = mu.inv()
    except NotInvertible:
        raise NotAdmissible("mu must be invertible in K")
    del mu_inv
    mu_bar = center.bar(mu)
    if b_alg.norm(u) != mu * mu_bar:
        raise NotAdmissible("N_B(u) != mu * bar(mu): pair is not admissible")

    her = sigma.hermitian_basis()
    hd = len(her)
    bd = b_alg.k_dim
    h_cols = [b_alg.to_k_coords(h) for h in her]
    h_mat = [[h_cols[j][i] for j in range(hd)] for i in range(bd)]
    p_mat = linalg.left_inverse(h_mat, g.one, g.zero)
    dim = hd + bd
    # the closures hold the integral constants as ints
    # (scalars.int_constants); meta and the base point keep the ground
    # scalars
    h_c, p_c = int_constants((h_mat, p_mat))
    u_c, u_inv = (b_alg.from_k_coords(int_constants(b_alg.to_k_coords(w)))
                  for w in (u, u_inv))
    mu_c, mu_bar = (center.from_k_coords(int_constants(list(w.coords)))
                    for w in (mu, mu_bar))

    def dec(coords):
        b = b_alg.from_k_coords(linalg.matvec(h_c, list(coords[:hd])))
        x = b_alg.from_k_coords(list(coords[hd:]))
        return b, x

    def eval_norm(coords):
        b, x = dec(coords)
        nb = center.descend(b_alg.norm(b))
        tmu = _trace_k(center, mu_c * b_alg.norm(x))
        cross = center.descend(
            b_alg.trace(b_alg.mul(b_alg.mul(b_alg.mul(b, x), u_c),
                                  sigma.apply(x))))
        return nb + tmu - cross

    def eval_sharp(coords):
        b, x = dec(coords)
        sx = sigma.apply(x)
        first = b_alg.sub(b_alg.sharp(b),
                          b_alg.mul(b_alg.mul(x, u_c), sx))
        if not sigma.is_hermitian(first):
            raise VerificationFailure(
                "first adjoint component left the hermitian space "
                "(construction bug)")
        first_coords = linalg.matvec(p_c, b_alg.to_k_coords(first))
        second = b_alg.sub(
            b_alg.mul(b_alg.smul(mu_bar, b_alg.sharp(sx)), u_inv),
            b_alg.mul(b, x))
        return list(first_coords) + b_alg.to_k_coords(second)

    unit = list(linalg.matvec(p_mat, b_alg.to_k_coords(b_alg.unit()))) \
        + [g.zero] * bd
    j = CubicNormStructure(g, dim, eval_norm, eval_sharp, unit,
                           label=label or "J(B,sigma,u,mu)")
    j.meta = {"type": "second_tits", "algebra": b_alg, "sigma": sigma,
              "u": u, "mu": mu, "her_basis": her, "h_mat": h_mat,
              "p_mat": p_mat}
    return j


def _trace_k(center, y):
    """T_K(y) = y + bar(y), descended to k."""
    return center.descend(y + center.bar(y))


def embed_hermitian_summand(j, b_elem):
    """(B,sigma)+ -> J(B,sigma,u,mu), first summand."""
    b_alg = j.meta["algebra"]
    g = j.ground
    coords = linalg.matvec(j.meta["p_mat"], b_alg.to_k_coords(b_elem))
    return tuple(list(coords) + [g.zero] * b_alg.k_dim)
