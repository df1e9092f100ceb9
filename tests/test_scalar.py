import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge.scalar import (
    ComplexAP,
    CycScalar,
    LaurentPoly,
    cheb_s,
    cheb_t,
    cyclotomic_poly,
    embed,
    euler_phi,
    gauss_sum,
    poly_eval,
    qint,
    t_power,
)


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


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
        assert qint(r, r).is_zero()


def test_qint_negation():
    for n in range(0, 7):
        assert qint(-n, 4) == -qint(n, 4)


def test_qint_2_5_is_golden_ratio():
    # oracle: sin(2 pi/5)/sin(pi/5) at 50 digits
    with mpmath.workdps(50):
        expected = mpmath.sin(2 * mpmath.pi / 5) / mpmath.sin(mpmath.pi / 5)
        got = qint(2, 5).embed(160).to_mpc()
        assert abs(got - expected) < mpmath.mpf(10) ** -45
    # and it is exactly t^2 + t^-2
    assert qint(2, 5) == t_power(5, 2) + t_power(5, -2)


def test_qint_chebyshev_identity():
    for r in range(2, 13):
        for n in range(1, 2 * r + 1):
            lhs = qint(n + 1, r) * qint(n - 1, r)
            rhs = qint(n, r) * qint(n, r) - CycScalar.one(r)
            assert lhs == rhs, (r, n)


def test_field_laws_random():
    rng = random.Random(0)
    for r in range(2, 13):
        deg = euler_phi(4 * r)
        for _ in range(60):
            a, b, c = (
                CycScalar(r, [rng.randint(-4, 4) for _ in range(deg)], rng.randint(1, 5))
                for _ in range(3)
            )
            assert (a + b) * c == a * c + b * c
            if not a.is_zero():
                assert a * a.inverse() == CycScalar.one(r)


def test_division():
    a = qint(2, 5)
    b = t_power(5, 3) + CycScalar.from_int(2, 5)
    assert (a * b) / b == a


def test_cheb_s_values():
    assert cheb_s(2) == (-1, 0, 1)  # x^2 - 1
    assert cheb_s(-1) == ()
    assert cheb_s(-2) == (-1,)
    # oracle: run the recursion independently
    s_prev, s_cur = (1,), (0, 1)
    for _ in range(3):
        nxt = [0] + list(s_cur)
        for i, c in enumerate(s_prev):
            nxt[i] -= c
        s_prev, s_cur = s_cur, tuple(nxt)
    assert cheb_s(4) == s_cur == (1, 0, -3, 0, 1)


def test_cheb_t_values():
    assert cheb_t(0) == (2,)
    assert cheb_t(2) == (-2, 0, 1)
    for n in range(0, 9):
        sn = cheb_s(n)
        sm = cheb_s(n - 2)
        diff = list(sn) + [0] * (len(cheb_t(n)) - len(sn))
        for i, c in enumerate(sm):
            diff[i] -= c
        assert cheb_t(n) == tuple(diff[: len(cheb_t(n))])


def test_cheb_rejects_out_of_range():
    with pytest.raises(ValueError):
        cheb_s(-3)
    with pytest.raises(ValueError):
        cheb_t(-1)


def test_poly_eval_on_field():
    x = qint(2, 7)
    val = poly_eval(cheb_s(2), x, one=CycScalar.one(7))
    assert val == x * x - CycScalar.one(7)


def test_embed_basics():
    one = embed(qint(1, 5), 128)
    assert abs(one - ComplexAP(mpmath.mpf(1), mpmath.mpf(0), 128)) < mpmath.mpf(2) ** -100

    with mpmath.workprec(160):
        t = t_power(3, 1).embed(128).to_mpc()
        want = mpmath.expjpi(mpmath.mpf(1) / 6)
        assert abs(t - want) < mpmath.mpf(2) ** -100

        val = qint(2, 3).embed(128).to_mpc()
        assert abs(val - 1) < 1e-15


def test_embed_is_ring_hom():
    rng = random.Random(7)
    prec = 128
    for r in (2, 5, 9):
        deg = euler_phi(4 * r)
        for _ in range(10):
            a = CycScalar(r, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(1, 7))
            b = CycScalar(r, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(1, 7))
            with mpmath.workprec(prec + 16):
                lhs = (a * b).embed(prec).to_mpc()
                rhs = a.embed(prec).to_mpc() * b.embed(prec).to_mpc()
                assert abs(lhs - rhs) < mpmath.mpf(2) ** (16 - prec)


def test_gauss_sum_zero():
    for r in range(2, 9):
        assert gauss_sum(0, r).is_zero()


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
    va = a.embed(96).to_mpc()
    vc = c.embed(96).to_mpc()
    assert abs(va.conjugate() - vc) < 1e-20


def test_json_round_trip():
    a = qint(3, 7) / (t_power(7, 5) + CycScalar.from_int(3, 7))
    assert CycScalar.from_json(a.to_json()) == a


def test_laurent_ring():
    t = LaurentPoly.t(1)
    tinv = LaurentPoly.t(-1)
    assert t * tinv == LaurentPoly.one()
    p = t * t - 2 + tinv * tinv
    q = (t - tinv) * (t - tinv)
    assert p == q
    assert p.specialize(4) == (t_power(4, 1) - t_power(4, -1)) ** 2


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
