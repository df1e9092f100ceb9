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
def _monomial(draw, r, rows, cols):
    """rows x cols with at most one nonzero per row, each a power of t.

    Kinds: the identity and a permutation times root powers (square
    only), rows that are zero or hold one root power in any column (so
    columns may be zero too), and two near misses that must take the
    packed path: one nonzero made 2 t^e, no root of unity, or one row
    given a second root power.
    """
    zero = CycScalar.zero(r)
    out = [[zero] * cols for _ in range(rows)]
    kind = draw(st.sampled_from(("identity", "permutation", "rows", "non-root", "two-roots")))
    if rows != cols and kind in ("identity", "permutation"):
        kind = "rows"
    if kind == "identity":
        return linalg.mat_identity(rows, CycScalar.one(r))
    if kind == "permutation":
        cols_of = draw(st.permutations(range(cols)))
    else:
        cols_of = [draw(st.integers(-1, cols - 1)) for _ in range(rows)]  # -1: a zero row
    for i, s in enumerate(cols_of):
        if s >= 0:
            out[i][s] = t_power(r, draw(st.integers(-12 * r, 12 * r)))
    hits = [(i, s) for i, s in enumerate(cols_of) if s >= 0]
    if kind == "non-root" and hits:
        i, s = draw(st.sampled_from(hits))
        out[i][s] = out[i][s] * 2
    if kind == "two-roots" and hits and cols > 1:
        i, s = draw(st.sampled_from(hits))
        other = (s + draw(st.integers(1, cols - 1))) % cols
        out[i][other] = t_power(r, draw(st.integers(0, 4 * r)))
    return out


@st.composite
def _operands(draw):
    r = draw(st.integers(2, 12))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    bits = draw(st.sampled_from((1, 8, 64, 200)))
    a = [[draw(_scalar(r, bits)) for _ in range(k)] for _ in range(n)]
    b = [[draw(_scalar(r, bits)) for _ in range(m)] for _ in range(k)]
    monomial = draw(st.sampled_from(("neither", "left", "right", "both")))
    if monomial in ("left", "both"):
        a = draw(_monomial(r, n, k))
    if monomial in ("right", "both"):  # at most one nonzero per column
        b = [list(col) for col in zip(*draw(_monomial(r, m, k)))]
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [CycScalar.zero(r)] * k
    if draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in b:
            row[col] = CycScalar.zero(r)
    return a, b


@settings(max_examples=160, deadline=None)
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


def test_mat_mul_rejects_mixed_orders():
    a = [[t_power(5, 1), t_power(5, 2)]]
    b = [[t_power(5, 3)], [t_power(5, 4)]]
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_mul(a, [[t_power(5, 3)], [t_power(6, 4)]])
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_mul([[t_power(5, 1), t_power(7, 2)]], b)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_mul(a, [[t_power(6, 1)], [t_power(6, 2)]])


def test_mat_mul_validates_monomial_operands():
    diag5, diag6 = (
        [[t_power(r, 1), CycScalar.zero(r)], [CycScalar.zero(r), t_power(r, 2)]] for r in (5, 6)
    )
    with pytest.raises(ValueError, match="mixed cyclotomic orders r=5 and r=6"):
        linalg.mat_mul(diag5, diag6)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_mul(linalg.mat_identity(2, CycScalar.one(5)), diag6)
    with pytest.raises(TypeError, match="got int"):
        linalg.mat_mul(diag5, [[t_power(5, 2), 0], [t_power(5, 3), t_power(5, 4)]])


def test_mat_mul_rejects_non_cyclotomic_entries():
    one = CycScalar.one(5)
    with pytest.raises(TypeError, match="CycScalar"):
        linalg.mat_mul([[Fraction(1, 2)]], [[Fraction(1, 3)]])
    with pytest.raises(TypeError, match="CycScalar"):
        linalg.mat_mul([[one, one]], [[one], [2]])
    with pytest.raises(TypeError, match="CycScalar"):
        linalg.mat_mul([[one]], [[Fraction(1)]])


def test_mat_mul_rejects_shape_mismatch():
    one = CycScalar.one(5)
    with pytest.raises(ValueError, match="shape"):
        linalg.mat_mul([[one, one]], [[one]])
    with pytest.raises(ValueError, match="shape"):
        linalg.mat_mul([[one, one]], [[one, one], [one]])


def test_mat_eq_shape_mismatch():
    one = CycScalar.one(5)
    assert linalg.mat_eq([[one, one]], [[one, one]])
    assert linalg.mat_eq([[one]], ((one,),))  # tuple rows compare as lists
    assert not linalg.mat_eq([[one]], [[one], [one]])
    assert not linalg.mat_eq([[one], [one]], [[one]])
    assert not linalg.mat_eq([[one]], [[one, one]])
    assert not linalg.mat_eq([[one, one]], [[one]])
    assert not linalg.mat_eq([], [[one]])


# -- RowSpan against a dense schoolbook elimination -------------------------

def _rank(vectors):
    """Reference rank: dense Gaussian elimination on a copy, column by column."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def _small_scalar(draw, r, density):
    """Zero with probability 1 - density, else small coefficients over a denominator up to 12."""
    if draw(st.integers(0, 99)) >= density:
        return CycScalar.zero(r)
    phi = euler_phi(4 * r)
    num = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    return CycScalar(r, num, draw(st.integers(1, 12)))


@st.composite
def _vectors(draw):
    """(r, dim, vectors): sparse, dense, zero and repeated vectors mixed."""
    r = draw(st.integers(2, 7))
    dim = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            vectors.append([CycScalar.zero(r)] * dim)
        elif kind == 1 and vectors:
            c = draw(_small_scalar(r, 100))
            vectors.append([c * x for x in draw(st.sampled_from(vectors))])
        else:
            density = 100 if kind == 2 else 30
            vectors.append([draw(_small_scalar(r, density)) for _ in range(dim)])
    return r, dim, vectors


def _combine(coeffs, vectors, r, dim):
    out = [CycScalar.zero(r)] * dim
    for k, c in coeffs.items():
        out = [x + c * y for x, y in zip(out, vectors[k])]
    return out


@settings(max_examples=60, deadline=None)
@given(_vectors(), st.data())
def test_rowspan_matches_dense_elimination(case, data):
    r, dim, vectors = case
    span = linalg.RowSpan()
    grew = [span.add(v) for v in vectors]
    ranks = [_rank(vectors[: k + 1]) for k in range(len(vectors))]
    assert grew == [now > before for before, now in zip([0] + ranks, ranks)]
    assert span.rank == (ranks[-1] if ranks else 0)
    # a random combination of the fed vectors is inside the span
    weights = {k: data.draw(_small_scalar(r, 70)) for k in range(len(vectors))}
    inside = _combine(weights, vectors, r, dim)
    coeffs = span.solve(inside)
    assert coeffs is not None and all(coeffs.values())
    assert _combine(coeffs, vectors, r, dim) == inside
    # a random vector is inside exactly when it leaves the rank unchanged
    target = [data.draw(_small_scalar(r, 60)) for _ in range(dim)]
    coeffs = span.solve(target)
    if _rank(vectors + [target]) > span.rank:
        assert coeffs is None
    else:
        assert _combine(coeffs, vectors, r, dim) == target
