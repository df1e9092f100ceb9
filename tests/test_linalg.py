import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge import linalg, rt_torus
from thetaforge.scalar import CycScalar, euler_phi, t_power, t_powers


def _schoolbook(a, b):
    """Reference product: one CycScalar * and + per term."""
    zero = CycScalar.zero(a[0][0].r)
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def _bits(rows):
    """Each entry as (num, den): equal exactly when the entries are bit-identical."""
    return [[(x.num, x.den) for x in row] for row in rows]


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
    columns may be zero too), and two near misses of one shift per
    entry: one nonzero made 2 t^e, no root of unity, or one row given a
    second root power, a line of two terms.
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
def _root(draw, r):
    """A root of unity or zero, shared or an equal fresh instance."""
    x = CycScalar.zero(r) if draw(st.integers(0, 3)) == 0 else t_power(r, draw(st.integers(0, 4 * r - 1)))
    return CycScalar(r, x.num) if draw(st.booleans()) else x


@st.composite
def _operands(draw):
    r = draw(st.integers(2, 12))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    bits = draw(st.sampled_from((1, 8, 64, 200)))
    a = [[draw(_scalar(r, bits)) for _ in range(k)] for _ in range(n)]
    b = [[draw(_scalar(r, bits)) for _ in range(m)] for _ in range(k)]
    kinds = ("neither", "left", "right", "both", "roots", "roots-left", "roots-right")
    kind = draw(st.sampled_from(kinds))
    if kind in ("left", "both"):
        a = draw(_monomial(r, n, k))
    if kind in ("right", "both"):  # at most one nonzero per column
        b = [list(col) for col in zip(*draw(_monomial(r, m, k)))]
    if kind == "roots":  # dense roots of unity with zeros on both sides: packed from exponents
        n, k, m = (draw(st.integers(1, 8)) for _ in range(3))
        a = [[draw(_root(r)) for _ in range(k)] for _ in range(n)]
        b = [[draw(_root(r)) for _ in range(m)] for _ in range(k)]
    if kind in ("roots-left", "roots-right"):
        # dense roots against 200-bit entries over denominators: lines of
        # several terms shift entries packed past 64-bit slots
        n, k, m = draw(st.integers(1, 5)), draw(st.integers(2, 6)), draw(st.integers(1, 5))
        left = kind == "roots-left"
        a = [[draw(_root(r) if left else _scalar(r, 200)) for _ in range(k)] for _ in range(n)]
        b = [[draw(_scalar(r, 200) if left else _root(r)) for _ in range(m)] for _ in range(k)]
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
    assert _bits(linalg.mat_mul(a, b)) == _bits(_schoolbook(a, b))


@pytest.mark.parametrize("r", [2, 5, 12])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1)])
def test_mat_mul_worst_case_slots(r, signs):
    big = [2**200 - 1] * euler_phi(4 * r)
    a = [[CycScalar(r, [signs[0] * c for c in big])] * 3] * 2
    b = [[CycScalar(r, [signs[1] * c for c in big])] * 2] * 3
    assert linalg.mat_mul(a, b) == _schoolbook(a, b)


def _spy(monkeypatch, name):
    """Record the positional arguments of each call of linalg.<name>."""
    calls, original = [], getattr(linalg, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, name, spy)
    return calls


@pytest.mark.parametrize("width", [8, 16, 32, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_mat_mul_slot_width_boundaries(width, offset, data):
    """Coefficients at full magnitude with any signs, sized so the least slot
    width is just under, at or just over a struct width."""
    r, k = 3, 3  # phi = 4: the least width is bits_a + bits_b + bit_length(12) + 1
    least = width + offset
    bits_a = (least - 5) // 2
    bits_b = least - 5 - bits_a
    phi = euler_phi(4 * r)

    def entry(bits):
        signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=phi, max_size=phi))
        return CycScalar(r, [s * (2**bits - 1) for s in signs])

    a = [[entry(bits_a) for _ in range(k)] for _ in range(2)]
    b = [[entry(bits_b) for _ in range(2)] for _ in range(k)]
    with pytest.MonkeyPatch.context() as mp:
        codecs = _spy(mp, "_codec")
        got = linalg.mat_mul(a, b)
    assert [w for w, _ in codecs] == [width if offset <= 0 else 2 * width if width < 64 else least]
    assert _bits(got) == _bits(_schoolbook(a, b))


@pytest.mark.parametrize("width", [8, 16, 32, 64])
@pytest.mark.parametrize("r", [3, 4])
def test_shift_sums_width_counts_repeated_terms(width, r):
    # a line may repeat an index (rt_rep_matrix puts both targets of a curve
    # in one entry when p = 0 mod r): six terms over vectors of k = 3
    # entries, every coefficient of one sign and at the most bits that
    # bits + bit_length(k) + 1 = width allows
    k, bits = 3, width - 3
    phi = euler_phi(4 * r)
    vectors = [[CycScalar(r, [sign * (2**bits - 1)] * phi) for _ in range(k)] for sign in (1, -1)]
    rng = random.Random(width + r)
    lines = [[(s, e) for s in range(k) for _ in range(2)] for e in (0, 1, 2 * r, 4 * r - 1)]
    lines += [[(rng.randrange(k), rng.randrange(4 * r)) for _ in range(6)] for _ in range(4)]
    lines += [[], [(1, 2 * r + 1)]]
    got = linalg.shift_sums(lines, vectors, None, r)
    want = [[_shift_oracle(terms, v) for v in vectors] for terms in lines]
    assert _bits(got) == _bits(want)
    # vectors of roots pack t^f from its exponent
    exps = [rng.randrange(4 * r) for _ in range(k)]
    roots = [t_power(r, f) for f in exps]
    got = linalg.shift_sums(lines, [roots], [list(enumerate(exps))], r)
    assert _bits(got) == _bits([[_shift_oracle(terms, roots)] for terms in lines])


def _shift_oracle(terms, vec):
    """sum(t^e * vec[s]) over the terms (s, e), by schoolbook products."""
    r = vec[0].r
    roots = [CycScalar(r, x.num) for x in t_powers(r)]  # unshared, so * multiplies out
    return sum((vec[s] * roots[e] for s, e in terms), CycScalar.zero(r))


def test_fast_paths_are_taken(monkeypatch):
    """A Gram product at r = 24 packs bytes in C and 200-bit operands take
    the shift loop.  The abelian S-step F D F and a general matrix times F
    shift packed entries, and F D and I F, whose lines have one term each,
    only shift entries: no codec."""
    codecs = _spy(monkeypatch, "_codec")
    r = 24
    gram = rt_torus.hopf_gram(r)
    word, _ = rt_torus.rho_word_exact([("T", 3), ("S", 1), ("T", -2)], r)
    assert _bits(linalg.mat_mul(word, gram)) == _bits(_schoolbook(word, gram))
    assert len(codecs) == 1 and codecs[0][0] in (8, 16, 32, 64)
    big = [[CycScalar(5, [2**200 - 1] * euler_phi(20))] * 2] * 2
    linalg.mat_mul(big, big)
    assert len(codecs) == 2 and codecs[1][0] > 64
    monkeypatch.setattr(linalg, "_packed_product", None)
    N = 16
    r = N // 2
    f = [[t_power(r, 2 * j * k) for k in range(N)] for j in range(N)]
    d = [[t_power(r, -3 * j * j) if i == j else CycScalar.zero(r) for j in range(N)] for i in range(N)]
    fd = linalg.mat_mul(f, d)
    assert _bits(linalg.mat_mul(linalg.mat_identity(N, CycScalar.one(r)), f)) == _bits(f)
    assert len(codecs) == 2
    fdf = linalg.mat_mul(fd, f)
    assert _bits(fdf) == _bits(_schoolbook(fd, f))
    fdfd = linalg.mat_mul(fdf, d)
    assert _bits(linalg.mat_mul(fdfd, f)) == _bits(_schoolbook(fdfd, f))


@st.composite
def _scale_case(draw):
    r = draw(st.integers(2, 12))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = [[draw(_scalar(r, draw(st.sampled_from((1, 8, 64, 200))))) for _ in range(m)] for _ in range(n)]
    else:
        a = [[draw(_root(r)) for _ in range(m)] for _ in range(n)]
    c = draw(st.sampled_from(("int", "fraction", "0", "shared zero", "root", "general")))
    c = {
        "int": lambda: draw(st.integers(-(2**70), 2**70)),
        "fraction": lambda: Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 50))),
        "0": lambda: 0,
        "shared zero": lambda: CycScalar.zero(r),
        "root": lambda: t_power(r, draw(st.integers(0, 4 * r - 1))),
        "general": lambda: draw(_scalar(r, draw(st.sampled_from((1, 8, 64, 200))))),
    }[c]()
    return c, a


@settings(max_examples=120, deadline=None)
@given(_scale_case())
def test_mat_scale_matches_entrywise(case):
    c, a = case
    assert _bits(linalg.mat_scale(c, a)) == _bits([[c * x for x in row] for row in a])


def test_mat_scale_orders_and_other_entries():
    c = t_power(5, 1) + 2
    with pytest.raises(ValueError, match="mixed cyclotomic orders r=5 and r=6"):
        linalg.mat_scale(c, [[t_power(5, 2), t_power(6, 1)]])
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        linalg.mat_scale(t_power(5, 1), [[t_power(6, 1)]])
    assert linalg.mat_scale(c, [[1, Fraction(1, 2)], [t_power(5, 3), 0]]) == [
        [c, c / 2], [c * t_power(5, 3), CycScalar.zero(5)]
    ]
    assert linalg.mat_scale(2, [[1, 2]]) == [[2, 4]]
    assert linalg.mat_scale(c, []) == [] and linalg.mat_scale(c, [[]]) == [[]]


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
