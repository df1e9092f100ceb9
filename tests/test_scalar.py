import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaforge import scalar
from thetaforge.scalar import (
    DEFAULT_PREC_BITS,
    ComplexAP,
    CycScalar,
    LaurentPoly,
    _divide_monic,
    _root_powers,
    cyclotomic_poly,
    euler_phi,
    gauss_sum,
    qint,
    t_power,
    t_powers,
)


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_products_and_degrees():
    # prod_{d | m} Phi_d = x^m - 1, and deg Phi_m counts the units mod m
    for m in range(1, 301):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    if a:
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1], m
        assert len(cyclotomic_poly(m)) - 1 == sum(gcd(u, m) == 1 for u in range(1, m + 1)), m


def test_inexact_monic_division_raises():
    # x^2 + 1 = (x - 1)(x + 1) + 2
    with pytest.raises(ArithmeticError, match="non-exact"):
        _divide_monic((1, 0, 1), (1, 1))
    assert _divide_monic((-1, 0, 1), (1, 1)) == (-1, 1)


def test_root_of_unity_relations():
    for r in range(1, 13):
        t = t_power(r, 1)
        assert t ** (4 * r) == CycScalar.one(r)
        assert t ** (2 * r) == -CycScalar.one(r)
        assert len(t.num) == euler_phi(4 * r)


def test_qint_one_is_one():
    assert qint(1, 5) == CycScalar.one(5)


def test_qint_r_vanishes():
    for r in range(3, 9):
        assert not qint(r, r)


def test_qint_negation():
    for n in range(0, 7):
        assert qint(-n, 4) == -qint(n, 4)


def test_qint_2_5_is_golden_ratio():
    # oracle: sin(2 pi/5)/sin(pi/5) at 50 digits
    with mpmath.workdps(50):
        expected = mpmath.sin(2 * mpmath.pi / 5) / mpmath.sin(mpmath.pi / 5)
        got = qint(2, 5).embed().to_mpc()
        # the bound stated on embed, W * 2**-(DEFAULT_PREC_BITS + 15), with W = 3
        assert abs(got - expected) < mpmath.mpf(2) ** -(DEFAULT_PREC_BITS + 10)
    # and it is exactly t^2 + t^-2
    assert qint(2, 5) == t_power(5, 2) + t_power(5, -2)


def test_qint_chebyshev_identity():
    for r in range(2, 13):
        for n in range(1, 2 * r + 1):
            lhs = qint(n + 1, r) * qint(n - 1, r)
            rhs = qint(n, r) * qint(n, r) - CycScalar.one(r)
            assert lhs == rhs, (r, n)


@st.composite
def _field_triple(draw):
    """Three elements of one Q(zeta_4r), r in [2, 24]: coefficients up to
    +-10**6, denominators up to 10**3."""
    r = draw(st.integers(2, 24))
    phi = euler_phi(4 * r)
    coeffs = st.lists(st.integers(-(10**6), 10**6), min_size=phi, max_size=phi)
    return tuple(CycScalar(r, draw(coeffs), draw(st.integers(1, 10**3))) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(_field_triple())
def test_field_laws_random(triple):
    a, b, c = triple
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    if a:
        assert a * a.inverse() == CycScalar.one(a.r)


def test_division():
    a = qint(2, 5)
    b = t_power(5, 3) + CycScalar.from_fraction(2, 5)
    assert (a * b) / b == a


def test_embed_basics():
    one = qint(1, 5).embed().to_mpc()
    assert abs(one - 1) < mpmath.mpf(2) ** -100

    with mpmath.workprec(160):
        t = t_power(3, 1).embed().to_mpc()
        want = mpmath.expjpi(mpmath.mpf(1) / 6)
        assert abs(t - want) < mpmath.mpf(2) ** -100

        val = qint(2, 3).embed().to_mpc()
        assert abs(val - 1) < 1e-15


def test_embed_is_ring_hom():
    rng = random.Random(7)
    prec = DEFAULT_PREC_BITS
    for r in (2, 5, 9):
        deg = euler_phi(4 * r)
        for _ in range(10):
            a = CycScalar(r, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(1, 7))
            b = CycScalar(r, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(1, 7))
            with mpmath.workprec(prec + 16):
                lhs = (a * b).embed().to_mpc()
                rhs = a.embed().to_mpc() * b.embed().to_mpc()
                assert abs(lhs - rhs) < mpmath.mpf(2) ** (16 - prec)


def test_gauss_sum_zero():
    for r in range(2, 9):
        assert not gauss_sum(0, r)


def test_gauss_sum_ratio_j_independent():
    for r in range(2, 13):
        ratios = []
        for j in range(1, r):
            ratio = gauss_sum(j, r) / (qint(j, r) * t_power(r, j * j))
            ratios.append(ratio)
        assert all(x == ratios[0] for x in ratios), r


def test_gauss_sum_r5_direct_oracle():
    # independent re-summation with raw root powers
    r = 5
    for j in range(1, 5):
        acc = CycScalar.zero(r)
        for k in range(1, r):
            acc = acc + qint(j * k, r) * qint(k, r) * t_power(r, -(k * k))
        assert acc == gauss_sum(j, r)


def test_conjugate():
    a = t_power(6, 5) + qint(3, 6)
    c = a.conjugate()
    va = a.embed().to_mpc()
    vc = c.embed().to_mpc()
    assert abs(va.conjugate() - vc) < 1e-20


def test_laurent_ring():
    t = LaurentPoly.t(1)
    tinv = LaurentPoly.t(-1)
    assert t * tinv == LaurentPoly.one()
    p = t * t - LaurentPoly({0: 2}) + tinv * tinv
    q = (t - tinv) * (t - tinv)
    assert p == q


def test_laurent_coefficients_are_rational():
    p = LaurentPoly({2: Fraction(1, 3)}) * LaurentPoly({-2: 3})
    assert p == LaurentPoly.one()


def _qint_direct(n, r):
    """[n] as the plain sum t^{2(n-1)} + t^{2(n-3)} + ... + t^{-2(n-1)}; [-n] = -[n]."""
    acc = CycScalar.zero(r)
    for i in range(abs(n)):
        acc = acc + t_power(r, 2 * (abs(n) - 1 - 2 * i))
    return acc if n >= 0 else -acc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_qint_matches_root_power_sum(data):
    r = data.draw(st.integers(2, 24))
    n = data.draw(st.integers(-5 * r, 5 * r))
    assert qint(n, r) == _qint_direct(n, r)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(-(10**6), 10**6))
def test_qint_large_label_folds(r, n):
    big = 10**18 + n
    assert qint(big, r) == _qint_direct(big % (2 * r), r)


@st.composite
def _dense_element(draw, max_r, max_bits, max_den):
    r = draw(st.integers(1, max_r))
    phi = euler_phi(4 * r)
    bits = draw(st.integers(1, max_bits))
    num = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=phi, max_size=phi))
    return CycScalar(r, num, draw(st.integers(1, max_den)))


def _horner(x, prec):
    """sum c_e zeta^e / den by Horner's rule in mpmath at prec bits."""
    with mpmath.workprec(prec):
        zeta = mpmath.expjpi(mpmath.mpf(2) / (4 * x.r))
        acc = mpmath.mpc(0)
        for c in reversed(x.num):
            acc = acc * zeta + c
        return acc / x.den


@settings(max_examples=200, deadline=None)
@given(_dense_element(30, 200, 2**64))
def test_embed_within_stated_bound(x):
    got = x.embed()
    prec = DEFAULT_PREC_BITS
    frac_bits = prec + 16
    with mpmath.workprec(4 * prec):
        want = _horner(x, 4 * prec)
        weight = mpmath.mpf(sum(abs(c) for c in x.num)) / x.den
        table = weight * (mpmath.mpf(0.5) + mpmath.ldexp(1, -60)) * mpmath.ldexp(1, -frac_bits)
        for part, exact in ((got.re, want.real), (got.im, want.imag)):
            err = abs(part - exact)
            # table error, plus one rounding to frac_bits bits
            rounding = abs(part) * mpmath.ldexp(1, -frac_bits)
            assert err <= table + rounding
            assert err <= weight * mpmath.ldexp(1, -(prec + 15))


def _fraction_euclid_inverse(x):
    """1/x by the extended Euclidean algorithm over Fraction polynomials."""

    def trim(a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return a

    def sub_mul(a, q, b):  # a - q*b
        out = [Fraction(0)] * max(len(a), len(q) + len(b) - 1)
        for i, c in enumerate(a):
            out[i] += c
        for i, cq in enumerate(q):
            for j, cb in enumerate(b):
                out[i + j] -= cq * cb
        return trim(out)

    def divmod_(n, d):
        n = trim(n)
        q = [Fraction(0)] * max(len(n) - len(d) + 1, 1)
        while len(n) >= len(d):
            shift = len(n) - len(d)
            q[shift] = n[-1] / d[-1]
            n = trim(sub_mul(n, [0] * shift + [q[shift]], d))
        return q, n

    r0 = [Fraction(c) for c in cyclotomic_poly(4 * x.r)]
    r1 = trim(Fraction(c, x.den) for c in x.num)
    s0, s1 = [], [Fraction(1)]
    while True:
        q, rem = divmod_(r0, r1)
        if not rem:
            break
        s0, s1 = s1, sub_mul(s0, q, s1)
        r0, r1 = r1, rem
    assert len(r1) == 1
    inv = [c / r1[0] for c in s1]
    den = 1
    for c in inv:
        den = den * c.denominator // gcd(den, c.denominator)
    return CycScalar(x.r, [int(c * den) for c in inv], den)


@st.composite
def _sparse_element(draw, max_r, max_bits, max_terms):
    r = draw(st.integers(1, max_r))
    phi = euler_phi(4 * r)
    num = [0] * phi
    bound = 2 ** draw(st.integers(1, max_bits))
    for _ in range(draw(st.integers(1, max_terms))):
        num[draw(st.integers(0, phi - 1))] = draw(st.integers(-bound, bound))
    return CycScalar(r, num, draw(st.integers(1, 2**64)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_dense_element(8, 64, 2**64), _sparse_element(16, 64, 4)))
@example(CycScalar(16, [2**64 - 1] + [0] * 12 + [5 - 2**63] + [0] * 17 + [2**62 + 1], 2**64 - 59))
def test_inverse_matches_euclid(x):
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert x * inv == CycScalar.one(x.r)
    want = _fraction_euclid_inverse(x)
    assert (inv.num, inv.den) == (want.num, want.den)


@settings(max_examples=100, deadline=None)
@given(_dense_element(12, 64, 2**32), st.fractions(max_denominator=2**40))
def test_fraction_operands_coerce(x, q):
    y = CycScalar.from_fraction(q, x.r)
    assert x + q == x + y == q + x
    assert x - q == x - y
    assert q - x == y - x
    assert (x == q) == (x == y)
    assert y == q
    assert hash(y) == hash(q)
    if q:
        assert x / q == x / y == x * (1 / q)
    if x:
        inv = x.inverse()
        assert 1 / x == inv
        assert q / x == y / x == q * inv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_add_and_sub_match_the_constructor(data):
    # over den 1 on both sides the sum of the reduced vectors is stored as
    # it is; other denominators (equal ones whose content cancels among
    # them) go through the constructor's gcd
    r = data.draw(st.integers(2, 24))
    phi = euler_phi(4 * r)
    dens = st.one_of(st.just(1), st.integers(2, 2**40))

    def element():
        kind = data.draw(st.sampled_from(("general", "root", "zero")))
        if kind == "root":
            return t_power(r, data.draw(st.integers(0, 4 * r - 1)))
        if kind == "zero":
            return CycScalar.zero(r)
        num = data.draw(st.lists(st.integers(-(2**70), 2**70), min_size=phi, max_size=phi))
        return CycScalar(r, num, data.draw(dens))

    x = element()
    y = data.draw(st.sampled_from((element(), x, -x, x * 2)))
    for got, op in ((x + y, int.__add__), (x - y, int.__sub__)):
        want = CycScalar(r, [op(a * y.den, b * x.den) for a, b in zip(x.num, y.num)], x.den * y.den)
        assert (got.num, got.den) == (want.num, want.den)


# exponents below zero, at zero and at or past 4r
_ROOT_EXPONENTS = st.one_of(st.integers(-200, -1), st.just(0), st.integers(1, 200))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_times_root_matches_product(data):
    # at r = 2, 4, 8 and 16 (phi(4r) = 2r) the reduction after the rotation
    # leaves it; at 15 and 24 it reduces modulo Phi_{4r} of several terms
    r = data.draw(st.integers(2, 24))
    e = data.draw(st.one_of(_ROOT_EXPONENTS, st.integers(4 * r, 12 * r)))
    phi = euler_phi(4 * r)
    num = data.draw(st.lists(st.integers(-(2**70), 2**70), min_size=phi, max_size=phi))
    den = data.draw(st.one_of(st.just(1), st.integers(2, 2**40)))
    x = CycScalar(r, num, den)
    want = x * CycScalar(r, t_power(r, e).num)  # no shared t^e: the schoolbook product
    # a product with the shared t^e, on either side, is the shift
    for got in (x.times_root(e), x * t_power(r, e), t_power(r, e) * x):
        assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("r", range(2, 25))
def test_times_root_of_a_shared_root_is_shared(r):
    rng = random.Random(r)
    for f in range(4 * r):
        for e in [0, 1, -1, 2 * r, 4 * r, -4 * r - 1, 10**6 + 3, *(rng.randint(-200, 200) for _ in range(4))]:
            assert t_power(r, f).times_root(e) is t_power(r, f + e), (f, e)


@pytest.mark.parametrize("r", [32, 64])
def test_times_root_matches_product_where_phi_is_2r(r):
    # past the hypothesis range, where Phi_{4r} = x^{2r} + 1 is the rotation's own modulus
    rng = random.Random(r)
    phi = euler_phi(4 * r)
    assert phi == 2 * r
    for _ in range(40):
        e = rng.choice([rng.randint(-200, 200), rng.randint(4 * r, 12 * r)])
        x = CycScalar(r, [rng.randint(-(2**70), 2**70) for _ in range(phi)], rng.choice([1, rng.randint(2, 2**40)]))
        want = x * CycScalar(r, t_power(r, e).num)  # no shared t^e: the schoolbook product
        got = x.times_root(e)
        assert (got.num, got.den) == (want.num, want.den), e


@pytest.mark.parametrize("r", [2, 3, 5, 12, 15, 32])
def test_root_exponent_finds_shared_roots_by_identity(r, monkeypatch):
    fresh = [CycScalar(r, x.num) for x in t_powers(r)]
    assert [x.root_exponent() for x in fresh] == list(range(4 * r))
    # with the coefficient lookup gone, the shared t^e are still found
    monkeypatch.setattr(scalar, "_root_powers", None)
    assert [x.root_exponent() for x in t_powers(r)] == list(range(4 * r))
    assert all(x is not y for x, y in zip(fresh, t_powers(r)))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 16), _ROOT_EXPONENTS)
def test_root_exponent_inverts_t_power(r, e):
    assert t_power(r, e).root_exponent() == e % (4 * r)
    assert t_power(r, e + 4 * r).root_exponent() == e % (4 * r)


@pytest.mark.parametrize("r", range(2, 17))
def test_root_exponent_rejects_non_roots(r):
    assert CycScalar.from_fraction(2, r).root_exponent() is None
    assert (t_power(r, 1) / 2).root_exponent() is None
    assert CycScalar.zero(r).root_exponent() is None
    # [2] = 2 cos(pi/r) has modulus 1 only at r = 3, where it is 1 = t^0
    if r == 3:
        assert qint(2, r).root_exponent() == 0
    elif r > 3:
        assert qint(2, r).root_exponent() is None


def test_embedded_parts_are_an_immutable_value():
    x, y = qint(2, 5).embed(), qint(2, 5).embed()
    assert type(x) is ComplexAP and x == ComplexAP(x.re, x.im)
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != t_power(5, 1).embed()
    assert repr(x) == f"ComplexAP(re={x.re!r}, im={x.im!r})"
    assert x.to_mpc() == mpmath.mpc(x.re, x.im)
    with pytest.raises(AttributeError):
        x.re = 0


# -- shared instances -----------------------------------------------------------

def test_roots_and_zero_are_shared():
    for r in (1, 2, 5, 12):
        m = 4 * r
        for e in range(-m, 2 * m):
            assert t_power(r, e) is t_power(r, e + m)
        assert CycScalar.zero(r) is CycScalar.zero(r)
        assert CycScalar.one(r) is t_power(r, 0)
        assert CycScalar.zero(r).times_root(3) is CycScalar.zero(r)
        assert all(x is t_power(r, e) for e, x in enumerate(t_powers(r))) and len(t_powers(r)) == m
        assert t_power(r, 3) * 0 is CycScalar.zero(r)
    assert 0 * qint(2, 5) is CycScalar.zero(5)


@pytest.mark.parametrize("r", [2, 5, 12])
def test_equal_copy_of_a_shared_instance(r):
    # equality by identity first must not make equal values of distinct
    # instances unequal
    t3 = t_power(r, 3)
    copy = CycScalar(r, t3.num)
    assert copy is not t3
    assert copy == t3 and t3 == copy and hash(copy) == hash(t3)
    zero = CycScalar(r, (), 7)
    assert zero is not CycScalar.zero(r)
    assert zero == CycScalar.zero(r) and hash(zero) == hash(CycScalar.zero(r))
    one = CycScalar.from_fraction(1, r)
    assert one is not CycScalar.one(r) and one == CycScalar.one(r) and one == 1
    assert copy != t_power(r, 4) and zero != one


def test_no_operation_writes_into_a_shared_instance():
    from thetaforge import heisenberg, linalg, pillowcase, rt_torus

    r = 4
    word = [("T", 1), ("S", 1), ("T", -2), ("S", 1)]
    exact, _ = rt_torus.rho_word_exact(word, r)
    heisenberg.fourier_word_exact(word, 2 * r)  # order N/2 = r
    assert pillowcase.equivalence_check(r)["mismatches"] == []
    skein = rt_torus.skein_from_matrix(exact, r)
    assert linalg.mat_eq(rt_torus.rt_rep_matrix(skein, r), exact)
    roots = _root_powers(4 * r)[0]
    for e, vec in enumerate(roots):
        x = t_power(r, e)
        assert (x.r, x.num, x.den) == (r, vec, 1), e
    zero = CycScalar.zero(r)
    assert (zero.r, zero.num, zero.den) == (r, (0,) * euler_phi(4 * r), 1)
