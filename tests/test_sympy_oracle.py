"""An independent oracle for the Poly kernel and the tests' own
composition (conftest's compose): sympy's sparse polynomial rings over
QQ and GF(5) (the domain sympy.Poly picks for modulus=5).

The expanded forms are read monomial by monomial through indices(), so
these checks share no arithmetic with albertlab's packed kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertlab.poly import Poly, _int_scaled, compose_mismatch, indices, mono

from .conftest import compose

sympy = pytest.importorskip("sympy")
from sympy import GF, QQ, ring  # noqa: E402


def _ring(nvars, domain):
    r, *xs = ring(",".join("x%d" % i for i in range(nvars)), domain)
    return r, xs


def _scalar(domain, c):
    c = Fraction(c)
    return domain(c.numerator) / domain(c.denominator)


def _to_sympy(p, r, domain):
    out = {}
    for m, c in p.terms.items():
        exps = [0] * r.ngens
        for i in indices(m):
            exps[i] += 1
        out[tuple(exps)] = _scalar(domain, c)
    return r.from_dict(out)


@pytest.mark.parametrize("name, domain", [("j_lk_q", QQ), ("j_lk_f5", GF(5))])
def test_adjoint_identities_in_sympy(name, domain, request):
    j = request.getfixturevalue(name)
    assert j.dim == 9
    r, xs = _ring(j.dim, domain)
    n = _to_sympy(j.expand_symbolic()[0], r, domain)
    sh = [_to_sympy(p, r, domain) for p in j.expand_symbolic()[1]]
    subs = list(zip(xs, sh))
    # N(x#) = N(x)^2
    assert n.compose(subs) == n ** 2
    # x## = N(x) x, coordinate by coordinate
    for k, p in enumerate(sh):
        assert p.compose(subs) == n * xs[k]


NVARS = 4
_monomials = st.lists(st.integers(0, NVARS - 1), max_size=3).map(
    lambda idx: tuple(sorted(idx)))
_coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                    st.integers(1, 4))
_polys = st.dictionaries(_monomials, _coeffs, max_size=6).map(
    lambda d: Poly({mono(idx): c for idx, c in d.items()}))


@given(_polys, _polys)
@settings(max_examples=60, deadline=None)
def test_product_matches_sympy(p, q):
    r, _ = _ring(NVARS, QQ)
    assert _to_sympy(p * q, r, QQ) == _to_sympy(p, r, QQ) * \
        _to_sympy(q, r, QQ)


@given(_polys, st.lists(_polys, min_size=NVARS, max_size=NVARS),
       st.lists(_coeffs, min_size=NVARS, max_size=NVARS))
@settings(max_examples=60, deadline=None)
def test_eval_matches_sympy(p, args, point):
    r, xs = _ring(NVARS, QQ)
    ps = _to_sympy(p, r, QQ)
    # substituting polynomials
    want = ps.compose(list(zip(xs, [_to_sympy(a, r, QQ) for a in args])))
    assert _to_sympy(compose(p, args), r, QQ) == want
    # evaluating at a rational point
    assert _scalar(QQ, p.eval(point)) == \
        ps(*[_scalar(QQ, c) for c in point])


# non-homogeneous polys with monomials up to degree 5, substituted by
# polys of degree at most 2 (constants and zero included): in
# compose_mismatch, on the polys' int forms, terms of degree 2 to 5 go
# through the grouping by first index, nested down to linear terms, four
# times for degree 5
_monomials5 = st.lists(st.integers(0, NVARS - 1), max_size=5).map(
    lambda idx: tuple(sorted(idx)))
_polys5 = st.dictionaries(_monomials5, _coeffs, max_size=8).map(
    lambda d: Poly({mono(idx): c for idx, c in d.items()}))
_monomials2 = st.lists(st.integers(0, NVARS - 1), max_size=2).map(
    lambda idx: tuple(sorted(idx)))
_args2 = st.dictionaries(_monomials2, _coeffs, max_size=4).map(
    lambda d: Poly({mono(idx): c for idx, c in d.items()}))


@given(_polys5, st.lists(_args2, min_size=NVARS, max_size=NVARS))
@settings(max_examples=80, deadline=None)
def test_nested_eval_matches_sympy_compose(p, args):
    r, xs = _ring(NVARS, QQ)
    want = _to_sympy(p, r, QQ).compose(
        list(zip(xs, [_to_sympy(a, r, QQ) for a in args])))
    assert _to_sympy(compose(p, args), r, QQ) == want
    (pi,), _ = _int_scaled([p])
    ai, _ = _int_scaled(args)
    got = compose_mismatch([pi], ai, lambda _: Poly(), 0)
    want = _to_sympy(pi, r, QQ).compose(
        list(zip(xs, [_to_sympy(a, r, QQ) for a in ai])))
    assert _to_sympy(Poly() if got is None else got[1], r, QQ) == want
