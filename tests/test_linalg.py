from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge import linalg
from thetaforge.scalar import CycScalar, euler_phi, t_power


def _schoolbook(a, b):
    """Reference product: one CycScalar * and + per term."""
    zero = CycScalar.zero(a[0][0].r)
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


@st.composite
def _scalar(draw, r, bits):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return CycScalar.zero(r)
    phi = euler_phi(4 * r)
    if kind == 1:  # every coefficient at the largest magnitude, one sign: the slot-width worst case
        return CycScalar(r, [draw(st.sampled_from((-1, 1))) * (2**bits - 1)] * phi)
    bound = 2**bits
    num = draw(st.lists(st.integers(-bound, bound), min_size=phi, max_size=phi))
    return CycScalar(r, num, draw(st.integers(1, 60)))


@st.composite
def _operands(draw):
    r = draw(st.integers(2, 12))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    bits = draw(st.sampled_from((1, 8, 64, 200)))
    a = [[draw(_scalar(r, bits)) for _ in range(k)] for _ in range(n)]
    b = [[draw(_scalar(r, bits)) for _ in range(m)] for _ in range(k)]
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [CycScalar.zero(r)] * k
    if draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in b:
            row[col] = CycScalar.zero(r)
    return a, b


@settings(max_examples=80, deadline=None)
@given(_operands())
def test_mat_mul_matches_schoolbook(operands):
    a, b = operands
    got = linalg.mat_mul(a, b)
    want = _schoolbook(a, b)
    assert [[(x.num, x.den) for x in row] for row in got] == [
        [(x.num, x.den) for x in row] for row in want
    ]


@pytest.mark.parametrize("r", [2, 5, 12])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
def test_mat_mul_worst_case_slots(r, signs):
    big = [2**200 - 1] * euler_phi(4 * r)
    a = [[CycScalar(r, [signs[0] * c for c in big])] * 3] * 2
    b = [[CycScalar(r, [signs[1] * c for c in big])] * 2] * 3
    assert linalg.mat_mul(a, b) == _schoolbook(a, b)


@settings(max_examples=30, deadline=None)
@given(_operands())
def test_mat_vec_is_one_column_product(operands):
    a, b = operands
    v = [row[0] for row in b]
    assert linalg.mat_vec(a, v) == [row[0] for row in _schoolbook(a, [[x] for x in v])]


def test_mat_mul_rejects_mixed_orders():
    a = [[t_power(5, 1), t_power(5, 2)]]
    b = [[t_power(5, 3)], [t_power(5, 4)]]
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_mul(a, [[t_power(5, 3)], [t_power(6, 4)]])
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_mul([[t_power(5, 1), t_power(7, 2)]], b)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_vec(a, [t_power(6, 1), t_power(6, 2)])


def test_mat_mul_rejects_non_cyclotomic_entries():
    one = CycScalar.one(5)
    with pytest.raises(TypeError, match="CycScalar"):
        linalg.mat_mul([[Fraction(1, 2)]], [[Fraction(1, 3)]])
    with pytest.raises(TypeError, match="CycScalar"):
        linalg.mat_mul([[one, one]], [[one], [2]])
    with pytest.raises(TypeError, match="CycScalar"):
        linalg.mat_vec([[one]], [Fraction(1)])


def test_mat_mul_rejects_shape_mismatch():
    one = CycScalar.one(5)
    with pytest.raises(ValueError, match="shape"):
        linalg.mat_mul([[one, one]], [[one]])
    with pytest.raises(ValueError, match="shape"):
        linalg.mat_mul([[one, one]], [[one, one], [one]])
