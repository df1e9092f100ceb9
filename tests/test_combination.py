"""Ring laws of the sparse combinations and the homomorphism property of
their representations: Laurent polynomials, torus skeins (generic and at
roots of unity), Heisenberg group-algebra elements and the fusion ring.
The label folds of wilson_matrix and fusion_from_chebyshev are checked
against the unfolded Chebyshev recurrence."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge import linalg
from thetaforge.heisenberg import HeisAlgElt, algebra_rep
from thetaforge.quantum_group import FusionElement, fusion_from_chebyshev
from thetaforge.rt_torus import GENERIC, TorusSkein, rt_rep_matrix, wilson_matrix
from thetaforge.scalar import CycScalar, LaurentPoly, euler_phi

_SMALL = st.integers(-3, 3)


def _laurent(size=3):
    return st.dictionaries(_SMALL, st.fractions(-2, 2, max_denominator=3), max_size=size).map(
        LaurentPoly
    )


def _cyc(r):
    return st.lists(_SMALL, min_size=euler_phi(4 * r), max_size=euler_phi(4 * r)).map(
        lambda vec: CycScalar(r, vec)
    )


@st.composite
def _skeins(draw, mode, count=3):
    coeff = _laurent(2) if mode == GENERIC else _cyc(mode)
    keys = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    return [TorusSkein(mode, draw(st.dictionaries(keys, coeff, max_size=3))) for _ in range(count)]


@st.composite
def _heis(draw, N, count=3):
    # keys reach outside [0, N)^2 so that folding takes part in every law
    keys = st.tuples(st.integers(-N, 2 * N - 1), st.integers(-N, 2 * N - 1))
    terms = st.dictionaries(keys, _cyc(N // 2), max_size=3)
    return [HeisAlgElt(N, draw(terms)) for _ in range(count)]


@st.composite
def _fusion(draw, r, count=3):
    # keys reach outside [1, r) so that folding takes part in every law
    terms = st.dictionaries(st.integers(-r, 3 * r - 1), _SMALL, max_size=3)
    return [FusionElement(r, draw(terms)) for _ in range(count)]


def _ring_laws(x, y, z, one):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert one * x == x == x * one
    assert (x - x) == x * 0 and not (x - x)
    assert -x == x * -1


@settings(max_examples=60, deadline=None)
@given(_laurent(), _laurent(), _laurent())
def test_laurent_ring_laws(x, y, z):
    _ring_laws(x, y, z, LaurentPoly.one())
    assert x * y == y * x


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([GENERIC, 3, 5]).flatmap(_skeins))
def test_skein_ring_laws(xyz):
    x, y, z = xyz
    _ring_laws(x, y, z, TorusSkein.unit(x.base))
    assert TorusSkein.curve(0, 0, x.base) * x == x.scaled(2)


def test_scalar_times_combination_scales():
    # every coefficient ring is commutative, so c * x is x scaled by c
    x = TorusSkein.curve(1, 0, 5)
    for c in (2, Fraction(1, 2), CycScalar(5, [1, 2])):
        assert c * x == x.scaled(c) == x * c
    assert 3 * LaurentPoly.t(1) == LaurentPoly({1: 3})
    assert 2 * FusionElement.one(4) == FusionElement(4, {1: 2})
    h = HeisAlgElt.basis(4, 1, 0)
    assert Fraction(1, 3) * h == h.scaled(Fraction(1, 3))
    # an int coefficient of a generic skein meets LaurentPoly coefficients
    X, Y = TorusSkein.curve(1, 0, GENERIC), TorusSkein.curve(0, 1, GENERIC)
    assert TorusSkein(GENERIC, {(1, 0): 1}) * Y == X * Y


def test_only_a_coefficient_ring_scales_a_combination():
    # a Laurent polynomial is a coefficient of a generic skein, from either
    # side; a Combination of any other class is no coefficient
    X = TorusSkein.curve(1, 0, GENERIC)
    t = LaurentPoly.t(1)
    assert t * X == X * t == TorusSkein(GENERIC, {(1, 0): t})
    h, f = HeisAlgElt.basis(4, 1, 0), FusionElement.one(4)
    for x, y in ((X, h), (h, X), (f, X), (h, f)):
        with pytest.raises(TypeError, match="unsupported operand"):
            x * y


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6]).flatmap(_heis))
def test_heis_ring_laws(xyz):
    x, y, z = xyz
    _ring_laws(x, y, z, HeisAlgElt.basis(x.base, 0, 0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 8]).flatmap(_fusion))
def test_fusion_ring_laws(xyz):
    x, y, z = xyz
    _ring_laws(x, y, z, FusionElement.one(x.base))
    assert x * y == y * x


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5]).flatmap(lambda r: _skeins(r, 2)))
def test_rt_rep_is_homomorphism(xy):
    x, y = xy
    r = x.base
    assert linalg.mat_eq(
        rt_rep_matrix(x * y, r), linalg.mat_mul(rt_rep_matrix(x, r), rt_rep_matrix(y, r))
    )
    assert linalg.mat_eq(rt_rep_matrix(TorusSkein.unit(r), r), linalg.mat_identity(r - 1, CycScalar.one(r)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6]).flatmap(lambda N: _heis(N, 2)))
def test_algebra_rep_is_homomorphism(xy):
    x, y = xy
    assert linalg.mat_eq(algebra_rep(x * y), linalg.mat_mul(algebra_rep(x), algebra_rep(y)))


# -- the label folds of wilson_matrix and fusion_from_chebyshev ---------------

def _unfolded_s(x, one, n):
    """S_{n-1}(x) by the plain recurrence, with no fold."""
    a, b = one * 0, one
    for _ in range(n):
        a, b = b, x * b - a
    return a


def _near_1e18(r):
    """A multiple of the 2r period of the folds, close to 10**18."""
    return 10**18 // (2 * r) * (2 * r)


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_wilson_fold_matches_unfolded_recurrence(r):
    big = _near_1e18(r)
    for p, q in ((1, 0), (0, 1), (1, 1), (2, -1), (3, 2)):
        curve, unit = TorusSkein.curve(p, q, r), TorusSkein.unit(r)
        for n in range(2 * r + 2):
            want = rt_rep_matrix(_unfolded_s(curve, unit, n), r)
            assert wilson_matrix(p, q, n, r) == want, (p, q, n)
            # period 2r and V^{-n} = -V^n, at labels no recurrence could reach
            assert wilson_matrix(p, q, big + n, r) == want, (p, q, n)
            if n:
                minus = rt_rep_matrix(_unfolded_s(curve, unit, n).scaled(-1), r)
                assert wilson_matrix(p, q, big - n, r) == minus, (p, q, n)


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_fusion_fold_matches_unfolded_recurrence(r):
    big = _near_1e18(r)
    v2, one = FusionElement(r, {2: 1}), FusionElement.one(r)
    for n in range(2 * r + 2):
        want = _unfolded_s(v2, one, n)
        assert fusion_from_chebyshev(n, r) == want, n
        assert fusion_from_chebyshev(big + n, r) == want, n
        if n:
            assert fusion_from_chebyshev(big - n, r) == -want, n
