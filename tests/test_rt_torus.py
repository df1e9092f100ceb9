import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge import linalg, rt_torus
from thetaforge.rt_torus import (
    GENERIC,
    TorusSkein,
    _exact_proportionality,
    _gap_product_inverses,
    _kp_norm,
    _kp_sum,
    _kp_terms,
    _newton_solve,
    curve_transform,
    f_of_twist_solve,
    hopf_gram,
    omega_su2,
    presentation_check,
    presentation_check_generic,
    presentation_relations,
    project_solid_torus,
    quantum_dimension_vector,
    rho_kac_peterson,
    rho_word,
    rho_word_exact,
    rt_rep_matrix,
    skein_from_matrix,
    twist_skein_matrix,
    wilson_matrix,
)
from thetaforge.scalar import (
    CycScalar,
    LaurentPoly,
    embed_matrix,
    eta_inverse_square,
    euler_phi,
    index_fold,
    qint,
    t_power,
)
from thetaforge.sl2z import S, SL2Z, T, sl2z_decompose, word_matrix
from words import random_word


def test_pts_mul_product_to_sum():
    x = TorusSkein.curve(1, 0, GENERIC)
    y = TorusSkein.curve(0, 1, GENERIC)
    got = x * y
    assert got.terms == {
        (1, 1): LaurentPoly.t(1),
        (1, -1): LaurentPoly.t(-1),
    }


def test_pts_mul_parallel_copies():
    x = TorusSkein.curve(1, 0, GENERIC)
    got = x * x
    assert got.terms == {(2, 0): LaurentPoly.one(), (0, 0): LaurentPoly.one()}


def test_pts_mul_unit_curve_doubles():
    rng = random.Random(0)
    for _ in range(10):
        x = TorusSkein.curve(rng.randint(-4, 4), rng.randint(-4, 4), GENERIC)
        got = x * TorusSkein.curve(0, 0, GENERIC)
        assert got == x.scaled(LaurentPoly({0: 2}))


def test_pts_mul_associative_generic():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (
            TorusSkein.curve(rng.randint(-5, 5), rng.randint(-5, 5), GENERIC)
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)


def test_index_fold():
    for r in (2, 3, 5, 8):
        assert index_fold(r, r)[0] == 0
        assert index_fold(0, r)[0] == 0
        assert index_fold(r + 1, r) == (-1, r - 1)
        for j in range(-3 * r, 3 * r):
            assert index_fold(j + 2 * r, r) == index_fold(j, r)
    # folding twice is the identity on (sign, index) pairs
    for r in (3, 5):
        for j in range(1, r):
            assert index_fold(j, r) == (1, j)


def test_project_solid_torus():
    r = 5
    pi = project_solid_torus(TorusSkein.curve(1, 0, r))
    assert pi[1] == CycScalar.one(r)
    assert all(not c for i, c in enumerate(pi) if i != 1)

    for q in (-2, 1, 3):
        pi = project_solid_torus(TorusSkein.curve(0, q, r))
        want = t_power(r, 2 * q) + t_power(r, -2 * q)
        assert pi[0] == want
        assert all(not c for c in pi[1:])

    pi = project_solid_torus(TorusSkein.curve(2, 0, r))
    assert pi == (-CycScalar.one(r), CycScalar.zero(r), CycScalar.one(r), CycScalar.zero(r))


def test_project_matches_rep_column_one():
    # multiplying the empty solid torus is column V^1 of the representation
    rng = random.Random(2)
    for r in (2, 3, 4, 6):
        for _ in range(20):
            p, q = rng.randint(-6, 6), rng.randint(-6, 6)
            pi = project_solid_torus(TorusSkein.curve(p, q, r))
            col = [row[0] for row in rt_rep_matrix((p, q), r)]
            assert list(pi) == col


def _cplx(mat):
    return [[complex(x.embed().to_mpc()) for x in row] for row in mat]


def test_rt_rep_examples():
    got = _cplx(rt_rep_matrix((0, 1), 3))
    assert abs(got[0][0] - 1) < 1e-14 and abs(got[1][1] + 1) < 1e-14
    assert got[0][1] == 0 and got[1][0] == 0

    got = _cplx(rt_rep_matrix((1, 0), 3))
    assert got == [[0, 1], [1, 0]]

    for r in (2, 3, 5):
        two_id = linalg.mat_scale(
            CycScalar.from_fraction(2, r), linalg.mat_identity(r - 1, CycScalar.one(r))
        )
        assert linalg.mat_eq(rt_rep_matrix((0, 0), r), two_id)
    # int and Fraction coefficients act as the field elements they name
    half = rt_rep_matrix(TorusSkein(5, {(1, 2): Fraction(1, 2), (0, 1): 3}), 5)
    want = linalg.mat_add(
        linalg.mat_scale(Fraction(1, 2), rt_rep_matrix((1, 2), 5)),
        linalg.mat_scale(3, rt_rep_matrix((0, 1), 5)),
    )
    assert linalg.mat_eq(half, want)


def test_pair_matches_skein_curve():
    # the bare pair builds from its one canonical term, with no TorusSkein;
    # the box holds (0, 0), both signs of each curve and labels past 2r
    for r in range(2, 9):
        for p in range(-2 * r, 2 * r + 1):
            for q in range(-2 * r, 2 * r + 1):
                pair = rt_rep_matrix((p, q), r)
                skein = rt_rep_matrix(TorusSkein.curve(p, q, r), r)
                assert [[(x.num, x.den) for x in row] for row in pair] == [
                    [(x.num, x.den) for x in row] for row in skein
                ], (r, p, q)


def _rt_rep_oracle(terms, r):
    """rt_rep_matrix by its defining per-entry loop: one index_fold per
    target and one schoolbook product c * t_power per term, a fold sign of
    -1 being the factor t^{2r}."""
    n = r - 1
    mat = [[CycScalar.zero(r)] * n for _ in range(n)]
    for (p, q), c in terms:
        for j in range(1, r):
            for target, phase in ((j - p, 2 * q * j), (j + p, -2 * q * j)):
                sign, idx = index_fold(target, r)
                if sign:
                    e = phase - p * q if sign > 0 else phase - p * q + 2 * r
                    mat[idx - 1][j - 1] = mat[idx - 1][j - 1] + c * t_power(r, e)
    return mat


def _parts(mat):
    return [[(x.num, x.den) for x in row] for row in mat]


@pytest.mark.parametrize("r", range(2, 11))
def test_rt_rep_matches_per_entry_oracle(r):
    # labels past 4r, p = 0 mod r (both targets of a column in one entry)
    # and past 10**6; coefficients one, int, Fraction, a shared root and a
    # general element
    rng = random.Random(200 + r)

    def small(k):
        return rng.randint(-k * r, k * r)

    def big():
        return rng.randint(10**6, 10**12) * rng.choice((-1, 1))

    pairs = [(small(3), small(3)) for _ in range(40)]
    pairs += [(k * r, small(9)) for k in range(-3, 4)]
    pairs += [(big(), big()) for _ in range(20)] + [(big(), small(5)) for _ in range(20)]
    pairs += [(small(5), big()) for _ in range(20)]
    general = CycScalar(r, [rng.randint(-9, 9) for _ in range(euler_phi(4 * r))], 6)
    one = CycScalar.one(r)
    for p, q in pairs:
        assert _parts(rt_rep_matrix((p, q), r)) == _parts(_rt_rep_oracle([((p, q), one)], r)), (p, q)
    for _ in range(30):
        coeffs = [3, Fraction(-2, 5), t_power(r, rng.randrange(4 * r)), general, one]
        skein = TorusSkein(r, {rng.choice(pairs): c for c in coeffs})
        terms = [(key, CycScalar.coerce(c, r)) for key, c in skein.terms.items()]
        assert _parts(rt_rep_matrix(skein, r)) == _parts(_rt_rep_oracle(terms, r))


@pytest.mark.parametrize("r", [*range(2, 13), 16, 24])
def test_rt_rep_of_a_dense_skein_matches_oracle(r):
    # every curve of K(r), curves with p = 0 mod r (both targets of a column
    # in one entry) and labels past 4r, each with its own coefficient: 40-bit
    # numerators over denominators, ints, Fractions and powers of t
    rng = random.Random(500 + r)
    phi = euler_phi(4 * r)
    curves = [(0, q) for q in range(r - 1)]
    curves += [(p, q) for p in range(1, r - 1) for q in range(2 * (r - 1 - p))]
    curves += [(k * r, rng.randint(-9 * r, 9 * r)) for k in (-3, -1, 1, 2, 4)]
    curves += [(rng.randint(4 * r, 9 * r), rng.randint(-9 * r, 9 * r)) for _ in range(r)]

    def coefficient():
        kind = rng.randrange(6)
        if kind == 0:
            return rng.randint(-9, 9) or 1
        if kind == 1:
            return Fraction(rng.randint(1, 99), rng.randint(2, 99))
        if kind == 2:
            return t_power(r, rng.randrange(4 * r))
        num = [rng.randint(-(2**40), 2**40) for _ in range(phi)]
        return CycScalar(r, num, rng.choice((1, rng.randint(2, 2**20))))

    skein = TorusSkein(r, {curve: coefficient() for curve in curves})
    terms = [(key, CycScalar.coerce(c, r)) for key, c in skein.terms.items()]
    assert _parts(rt_rep_matrix(skein, r)) == _parts(_rt_rep_oracle(terms, r))


@pytest.mark.parametrize("r", range(2, 11))
def test_pair_path_hands_out_shared_instances(r):
    # equivalence_check's mat_eq passes an entry that both sides share by
    # identity: a pair's entries are the shared t^e and zero, except the one
    # sum per column where both targets meet (p = 0 mod r)
    zero = CycScalar.zero(r)
    for p in range(-2 * r, 2 * r + 1):
        for q in range(-r, r + 1):
            columns = list(zip(*rt_rep_matrix((p, q), r)))
            if p % r:
                assert all(x is zero or x is t_power(r, x.root_exponent()) for col in columns for x in col)
            else:
                assert all(sum(x is not zero for x in col) == 1 for col in columns)


def test_rep_eigenvalues_of_meridian():
    for r in range(2, 9):
        mat = rt_rep_matrix((0, 1), r)
        for j in range(1, r):
            want = t_power(r, 2 * j) + t_power(r, -2 * j)
            assert mat[j - 1][j - 1] == want
            for i in range(1, r):
                if i != j:
                    assert not mat[i - 1][j - 1]


def test_rep_is_algebra_homomorphism():
    rng = random.Random(3)
    for r in range(2, 7):
        for _ in range(60):
            x = TorusSkein.curve(rng.randint(-8, 8), rng.randint(-8, 8), r)
            y = TorusSkein.curve(rng.randint(-8, 8), rng.randint(-8, 8), r)
            lhs = rt_rep_matrix(x * y, r)
            rhs = linalg.mat_mul(rt_rep_matrix(x, r), rt_rep_matrix(y, r))
            assert linalg.mat_eq(lhs, rhs)


def test_wilson_matrix():
    for r in (3, 4, 5):
        assert linalg.mat_eq(wilson_matrix(0, 1, 2, r), rt_rep_matrix((0, 1), r))
        assert linalg.mat_eq(
            wilson_matrix(2, 1, 1, r), linalg.mat_identity(r - 1, CycScalar.one(r))
        )
        assert linalg.mat_is_zero(wilson_matrix(0, 1, r, r))
        assert linalg.mat_is_zero(wilson_matrix(1, 0, r, r))
        for n in range(0, r):
            lhs = wilson_matrix(1, 1, r + n, r)
            rhs = linalg.mat_scale(
                CycScalar.from_fraction(-1, r), wilson_matrix(1, 1, r - n, r)
            )
            assert linalg.mat_eq(lhs, rhs)
    with pytest.raises(ValueError):
        wilson_matrix(2, 4, 3, 5)


def test_hopf_gram():
    g3 = hopf_gram(3)
    assert g3[0][0] == CycScalar.one(3)
    assert g3[0][1] == CycScalar.one(3)
    assert g3[1][0] == CycScalar.one(3)
    assert g3[1][1] == -CycScalar.one(3)
    sq = linalg.mat_mul(g3, g3)
    assert linalg.mat_eq(
        sq, linalg.mat_scale(CycScalar.from_fraction(2, 3), linalg.mat_identity(2, CycScalar.one(3)))
    )
    for r in range(2, 13):
        g = hopf_gram(r)
        assert [g[0][k] for k in range(r - 1)] == quantum_dimension_vector(r)
        assert all(g[i][j] == g[j][i] for i in range(r - 1) for j in range(r - 1))
        sq = linalg.mat_mul(g, g)
        want = linalg.mat_scale(
            eta_inverse_square(r), linalg.mat_identity(r - 1, CycScalar.one(r))
        )
        assert linalg.mat_eq(sq, want)


def test_hopf_gram_nondegenerate():
    # G^2 = (sum [j]^2) Id with a nonzero scalar forces det(G) != 0
    for r in range(2, 13):
        scalar = eta_inverse_square(r)
        assert scalar


def test_omega_su2():
    with mpmath.workprec(120):
        om = omega_su2(3)
        c = 1 / mpmath.sqrt(2)
        assert abs(om[0] - c) < 1e-25 and abs(om[1] - c) < 1e-25
        for r in (3, 5, 8):
            om = omega_su2(r)
            col = [row[0] for row in rho_word([("S", 1)], r)]
            assert all(abs(a - b) < 1e-25 for a, b in zip(om, col))


def test_omega_annihilation_rows():
    # G applied to the quantum-dimension vector is eta^{-2} e_1
    for r in range(2, 10):
        g = hopf_gram(r)
        image = linalg.mat_mul(g, [[x] for x in quantum_dimension_vector(r)])
        assert image[0][0] == eta_inverse_square(r)
        assert all(not x for (x,) in image[1:])


def test_rho_t():
    got = rho_word_exact([("T", 1)], 3)[0]
    assert got[0][0] == CycScalar.one(3)
    assert got[1][1] == t_power(3, 3)
    assert abs(complex(got[1][1].embed().to_mpc()) - 1j) < 1e-14
    for r in range(2, 13):
        mat = rho_word_exact([("T", 1)], r)[0]
        assert mat[0][0] == CycScalar.one(r)
        for j in range(1, r):
            entry = mat[j - 1][j - 1] * mat[j - 1][j - 1].conjugate()
            assert entry == CycScalar.one(r)


def test_rho_s_squares_to_identity():
    with mpmath.workprec(120):
        got = rho_word([("S", 1)], 3)
        c = 1 / mpmath.sqrt(2)
        want = [[c, c], [c, -c]]
        for i in range(2):
            for j in range(2):
                assert abs(got[i][j] - want[i][j]) < 1e-25
    for r in range(2, 13):
        g = hopf_gram(r)
        sq = linalg.mat_mul(g, g)
        want = linalg.mat_scale(
            eta_inverse_square(r), linalg.mat_identity(r - 1, CycScalar.one(r))
        )
        assert linalg.mat_eq(sq, want)


def test_rho_word_basics():
    for r in (2, 3, 5):
        ident, s_count = rho_word_exact([], r)
        assert s_count == 0
        assert linalg.mat_eq(ident, linalg.mat_identity(r - 1, CycScalar.one(r)))
        # rho(S)^2 = I because the Gram matrix squares to eta^{-2} I
        g = hopf_gram(r)
        want = linalg.mat_scale(
            eta_inverse_square(r), linalg.mat_identity(r - 1, CycScalar.one(r))
        )
        assert linalg.mat_eq(linalg.mat_mul(g, g), want)
        ss, s_count = rho_word_exact([("S", 2)], r)
        assert s_count == 0
        assert linalg.mat_eq(ss, ident)


def test_rho_st_cubed_is_scalar():
    for r in range(2, 13):
        m, s_count = rho_word_exact([("S", 1), ("T", 1)] * 3, r)
        n = r - 1
        # exact scalar matrix check
        lam = m[0][0]
        assert all(
            m[i][j] == (lam if i == j else CycScalar.zero(r))
            for i in range(n)
            for j in range(n)
        )
        # |eta^s lam| = 1, exactly and against eta = sqrt(2/r) sin(pi/r)
        assert lam * lam.conjugate() == eta_inverse_square(r) ** s_count
        with mpmath.workprec(100):
            eta = mpmath.sqrt(mpmath.mpf(2) / r) * mpmath.sinpi(mpmath.mpf(1) / r)
            unit = abs(lam.embed().to_mpc()) * eta ** s_count
            assert abs(unit - 1) < 1e-25


def test_embedded_eta_matches_closed_form():
    for r in range(2, 25):
        (got,), = embed_matrix([[CycScalar.one(r)]], eta_inverse_square(r))
        with mpmath.workprec(200):
            eta = mpmath.sqrt(mpmath.mpf(2) / r) * mpmath.sinpi(mpmath.mpf(1) / r)
            assert abs(got - eta) < 1e-35, r


def test_rho_unitary_numeric():
    with mpmath.workprec(120):
        for r in (3, 5, 8):
            for word in ([("S", 1)], [("T", 1)], [("S", 1), ("T", -2), ("S", 1)]):
                m = rho_word(word, r)
                n = r - 1
                for i in range(n):
                    for j in range(n):
                        acc = mpmath.fsum(m[i][s] * mpmath.conj(m[j][s]) for s in range(n))
                        assert abs(acc - (1 if i == j else 0)) < 1e-25


def _exact_egorov_rt(word, r, bound=4):
    rho, _ = rho_word_exact(word, r)
    h = word_matrix(word)
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            lhs = linalg.mat_mul(rho, rt_rep_matrix((p, q), r))
            rhs = linalg.mat_mul(rt_rep_matrix(curve_transform(h, p, q), r), rho)
            if not linalg.mat_eq(lhs, rhs):
                return False
    return True


def test_exact_egorov_rt_generators():
    for r in (2, 3, 4, 5):
        assert _exact_egorov_rt([("S", 1)], r)
        assert _exact_egorov_rt([("T", 1)], r)


_WORD = st.lists(
    st.tuples(st.sampled_from("ST"), st.sampled_from((-2, -1, 1, 2))), min_size=1, max_size=5
)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), _WORD)
def test_exact_egorov_rt(r, word):
    assert _exact_egorov_rt(word, r, bound=3)


def test_kac_peterson_generators():
    for r in range(3, 9):
        kp = rho_kac_peterson(T, r)
        # proportional to rho(T) exactly
        rt = rho_word_exact([("T", 1)], r)[0]
        for i in range(r - 1):
            assert all(
                bool(kp.matrix[i][j]) == bool(rt[i][j]) for j in range(r - 1)
            )
        ratio = kp.matrix[0][0] / rt[0][0]
        for i in range(r - 1):
            for j in range(r - 1):
                assert kp.matrix[i][j] == ratio * rt[i][j]
        kp = rho_kac_peterson(S, r)
        gram = hopf_gram(r)
        ratio = kp.matrix[0][0] / gram[0][0]
        for i in range(r - 1):
            for j in range(r - 1):
                assert kp.matrix[i][j] == ratio * gram[i][j]


def _kac_peterson_phase_checked(h, r):
    """rho_kac_peterson(h, r), after checking its phase against the word product.

    |kp.scalar| = 1 holds by construction; its phase is pinned by
    rho(h) = kp.scalar * c * kp.matrix for one real c > 0.
    """
    kp = rho_kac_peterson(h, r)
    rho = rho_word(sl2z_decompose(h), r)
    with mpmath.workprec(128):
        phased = [[kp.scalar * x for x in row] for row in embed_matrix(kp.matrix, 1)]
        i, j = max(
            ((i, j) for i in range(r - 1) for j in range(r - 1)),
            key=lambda ij: abs(phased[ij[0]][ij[1]]),
        )
        c = rho[i][j] / phased[i][j]
        assert abs(c.imag) < 1e-25 and c.real > 0, (tuple(h), r)
        assert all(
            abs(x - c.real * y) < 1e-25
            for row1, row2 in zip(rho, phased)
            for x, y in zip(row1, row2)
        ), (tuple(h), r)
    return kp


def test_kac_peterson_random_words():
    rng = random.Random(5)
    for r in (3, 4, 5, 6):
        for _ in range(12):
            _kac_peterson_phase_checked(word_matrix(random_word(rng, 6)), r)
    # the parity-shifted summation window cases
    for h in (SL2Z(1, 0, 2, 1), SL2Z(1, 1, -2, -1)):
        kp = _kac_peterson_phase_checked(h, 5)
        assert kp.window == "half-integer"


def _exactly_proportional(m1, m2):
    """m1 = x * m2 for one nonzero scalar x, entry by entry."""
    i, j = next((i, j) for i, row in enumerate(m2) for j, v in enumerate(row) if v)
    ratio = m1[i][j] / m2[i][j]
    return bool(ratio) and all(
        a == ratio * b for row1, row2 in zip(m1, m2) for a, b in zip(row1, row2)
    )


def test_kac_peterson_c_zero_and_even_c():
    # c = 0 (h = +-T^b): every k of the sum gives the same term; even c:
    # the half-integer window is the one that holds at some r
    c_zero = [SL2Z(s, s * b, 0, s) for s in (1, -1) for b in range(-3, 4)]
    even_c = [SL2Z(1, 0, 2, 1), SL2Z(1, 1, -2, -1), SL2Z(3, 2, 4, 3), SL2Z(-3, 1, -4, 1)]
    windows = set()
    for r in range(2, 9):
        for h in c_zero + even_c:
            kp = _kac_peterson_phase_checked(h, r)
            ref, _ = rho_word_exact(sl2z_decompose(h), r)
            assert _exactly_proportional(kp.matrix, ref), (tuple(h), r)
            if h.c:
                windows.add(kp.window)
            else:
                assert kp.window == "integer"
                # one K term per column: each nonzero entry is a root of unity
                roots = {t_power(r, e) for e in range(4 * r)}
                assert all(x in roots for row in kp.matrix for x in row if x), (tuple(h), r)
    assert windows == {"integer", "half-integer"}


_BOX = [
    SL2Z(a, b, c, d)
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
    if a * d - b * c == 1
]


def test_window_rule_holds_on_the_box():
    # the premise of the window rule: the integer sum is zero or exactly
    # proportional to the word product, it is never zero for odd c, and
    # when it is zero the half-integer sum is proportional
    for r in range(2, 9):
        for h in _BOX:
            a, b, c, d = h.d, h.b, h.c, h.a
            ref, _ = rho_word_exact(sl2z_decompose(h), r)
            mat = _kp_sum(_kp_terms(a, b, c, d, r, 0), r)
            if linalg.mat_is_zero(mat):
                assert not c % 2, (tuple(h), r)
                mat = _kp_sum(_kp_terms(a, b, c, d, r, 1), r)
            assert _exactly_proportional(mat, ref), (tuple(h), r)


def _kp_oracle(a, b, c, d, r, start):
    """_kp_sum by its defining per-entry loop: one index_fold and one
    t_power per term."""
    n = r - 1
    mat = [[CycScalar.zero(r)] * n for _ in range(n)]
    for j in range(1, r):
        for K in range(start, 4 * r if c else start + 1, 2):
            sign, idx = index_fold(a * j + c * K // 2, r)
            if sign:
                e = c * d * K * K // 4 + b * c * K * j + a * b * j * j
                mat[idx - 1][j - 1] = mat[idx - 1][j - 1] + t_power(r, e if sign > 0 else e + 2 * r)
    return mat


def test_kp_sum_and_norm_match_per_entry_oracles():
    # the norm from exponent counts equals the schoolbook sum of x * conj(x)
    rng = random.Random(24)
    for r in range(2, 13):
        hs = [S, T, SL2Z(1, 0, 2, 1), SL2Z(5, 2, 7, 3)]
        hs += [word_matrix(random_word(rng, 8)) for _ in range(6)]
        for h in hs:
            a, b, c, d = h.d, h.b, h.c, h.a
            for start in (0, 1) if c % 2 == 0 else (0,):
                terms = _kp_terms(a, b, c, d, r, start)
                mat = _kp_sum(terms, r)
                assert _parts(mat) == _parts(_kp_oracle(a, b, c, d, r, start)), (tuple(h), r, start)
                want = sum((x * x.conjugate() for row in mat for x in row), CycScalar.zero(r))
                got = _kp_norm(terms, r)
                assert (got.num, got.den) == (want.num, want.den), (tuple(h), r, start)


def test_kac_peterson_builds_each_window_once(monkeypatch):
    # one term list per window feeds both the matrix and the norm: one
    # _kp_terms call for odd c, a second only when an even c needs the
    # half-integer window
    calls = []
    real = rt_torus._kp_terms
    monkeypatch.setattr(rt_torus, "_kp_terms", lambda *args: calls.append(args) or real(*args))
    windows = set()
    for h in (S, T, SL2Z(5, 2, 7, 3), SL2Z(1, 0, 2, 1), SL2Z(1, 1, -2, -1), SL2Z(3, 2, 4, 3)):
        for r in range(2, 9):
            calls.clear()
            kp = rho_kac_peterson(h, r)
            windows.add(kp.window)
            assert len(calls) == (2 if kp.window == "half-integer" else 1), (tuple(h), r)
            assert len(calls) == 1 or not h.c % 2, (tuple(h), r)
    assert windows == {"integer", "half-integer"}


def test_kac_peterson_raises_on_wrong_norm(monkeypatch):
    # a normalisation twice too large breaks the exact Frobenius identity
    real = rt_torus.eta_inverse_square
    monkeypatch.setattr(rt_torus, "eta_inverse_square", lambda r: real(r) * 2)
    for h, r in ((S, 5), (SL2Z(5, 2, 7, 3), 6), (SL2Z(1, 0, 2, 1), 5)):
        with pytest.raises(ArithmeticError, match="unitary"):
            rho_kac_peterson(h, r)


def test_kac_peterson_phase_matches_word_product():
    rng = random.Random(9)
    hs = [S, T, SL2Z(1, 0, 2, 1), SL2Z(1, 1, -2, -1)]
    hs += [word_matrix(random_word(rng, 6)) for _ in range(8)]
    for r in (2, 3, 5, 6, 8):
        for h in hs:
            _kac_peterson_phase_checked(h, r)


# -- the kept word product ----------------------------------------------------

def test_kac_peterson_reuses_the_callers_word_product(monkeypatch):
    # the reference of rho_kac_peterson is the sl2z_decompose normal form,
    # so a caller that has just multiplied out that word pays for it once
    rng = random.Random(20)
    for r in (3, 5, 8):
        for _ in range(3):
            word = sl2z_decompose(word_matrix(random_word(rng, 6)))
            letters = sum(1 for letter, exp in word if letter == "T" or exp % 2)
            rho_word_exact(word, r)
            calls = []
            mat_mul = linalg.mat_mul
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
                rho_kac_peterson(word_matrix(word), r)
                assert not calls, (word, r)
                rt_torus._rho_word_product.cache_clear()
                rho_kac_peterson(word_matrix(word), r)
                assert len(calls) == letters, (word, r)


def test_rho_word_exact_returns_fresh_rows():
    word = [("T", 2), ("S", 1), ("T", -1)]
    first, _ = rho_word_exact(word, 5)
    kept = first[0][0]
    first[0][0] = kept + 1
    first.append([])
    again, _ = rho_word_exact(word, 5)
    assert again[0][0] == kept and len(again) == 4


def test_kept_word_product_equals_a_cold_one():
    rng = random.Random(21)
    for r in range(2, 13):
        for _ in range(3):
            word = random_word(rng, 6)
            rho_word_exact(word, r)
            hits = rt_torus._rho_word_product.cache_info().hits
            warm, s_warm = rho_word_exact(word, r)
            assert rt_torus._rho_word_product.cache_info().hits == hits + 1
            rt_torus._rho_word_product.cache_clear()
            cold, s_cold = rho_word_exact(word, r)
            assert s_warm == s_cold and _parts(warm) == _parts(cold), (word, r)
    # the product kept for r = 5 does not answer r = 5.0, which is refused
    rho_word_exact([("S", 1)], 5)
    with pytest.raises(ValueError, match="r must be an integer >= 2, not 5.0"):
        rho_word_exact([("S", 1)], 5.0)


def test_f_of_twist_solve():
    c = f_of_twist_solve(3)
    kappa = c[0] / t_power(3, 1)
    assert c[0] == kappa * t_power(3, 1)
    assert c[1] == kappa * t_power(3, 4)
    for r in range(2, 13):
        c = f_of_twist_solve(r)
        ratios = {c[j - 1] / (qint(j, r) * t_power(r, j * j)) for j in range(1, r)}
        assert len(ratios) == 1


def test_f_of_twist_solve_rejects_wrong_shape(monkeypatch):
    real = rt_torus.gauss_sum
    monkeypatch.setattr(rt_torus, "gauss_sum", lambda j, r: real(j, r) * (2 if j == r - 1 else 1))
    with pytest.raises(ArithmeticError, match="do not follow"):
        f_of_twist_solve(5)


def test_exact_proportionality_any_shape():
    r = 5
    one, t = CycScalar.one(r), t_power(r, 1)
    zero = one * 0
    row = [[zero, qint(2, r), t]]
    assert _exact_proportionality([[x * t for x in row[0]]], row, r) == t
    assert _exact_proportionality([[one, qint(2, r) * t, t * t]], row, r) is None
    assert _exact_proportionality([[zero], [zero]], [[zero], [zero]], r) == one
    assert _exact_proportionality([[zero], [one]], [[zero], [zero]], r) is None


def test_twist_skein_egorov():
    # the solved twist intertwines (1,0) -> (1,1)
    for r in (2, 3, 4, 5, 6, 12, 16):
        m = twist_skein_matrix(r)
        lhs = linalg.mat_mul(m, rt_rep_matrix((1, 0), r))
        rhs = linalg.mat_mul(rt_rep_matrix((1, 1), r), m)
        assert linalg.mat_eq(lhs, rhs)


def test_twist_and_wilson_make_no_mat_mul(monkeypatch):
    # S_n runs in the skein algebra; only the result is represented
    calls = []
    real = linalg.mat_mul

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    for r in (5, 8):
        twist_skein_matrix(r)
        wilson_matrix(1, 1, 2 * r + 1, r)
    assert not calls


def test_skein_from_matrix():
    for r in (3, 4, 5):
        ident = linalg.mat_identity(r - 1, CycScalar.one(r))
        sk = skein_from_matrix(ident, r)
        assert sk == TorusSkein.unit(r)
        sk = skein_from_matrix(rt_rep_matrix((1, 1), r), r)
        assert sk == TorusSkein.curve(1, 1, r)
        # decompose/recompose a product
        m = linalg.mat_mul(rho_word_exact([("T", 1)], r)[0], rt_rep_matrix((2, 1), r))
        sk = skein_from_matrix(m, r)
        assert linalg.mat_eq(rt_rep_matrix(sk, r), m)


def _flatten(mat):
    return [x for row in mat for x in row]


@pytest.mark.parametrize("r", range(2, 11))
def test_level_solve_matches_rowspan_oracle(r):
    # oracle: one RowSpan over the flattened operators of K(r), fed in order
    basis = [(0, q) for q in range(r - 1)]
    basis += [(p, q) for p in range(1, r - 1) for q in range(2 * (r - 1 - p))]
    oracle = linalg.RowSpan()
    for curve in basis:
        oracle.add(_flatten(rt_rep_matrix(curve, r)))
    assert oracle.rank == (r - 1) ** 2 == len(basis)
    rng = random.Random(r)
    phi = euler_phi(4 * r)
    mats = [rho_word_exact(random_word(rng, 6), r)[0] for _ in range(3)]
    mats += [
        [[CycScalar(r, [rng.randint(-4, 4) for _ in range(phi)], rng.randint(1, 12))
          for _ in range(r - 1)] for _ in range(r - 1)]
        for _ in range(2)
    ]
    for m in mats:
        expected = TorusSkein.zero(r)
        for idx, c in oracle.solve(_flatten(m)).items():
            expected = expected + TorusSkein.curve(*basis[idx], r).scaled(c)
        assert skein_from_matrix(m, r) == expected


@pytest.mark.parametrize("r", range(11, 17))
def test_newton_level_solve_matches_rowspan(r):
    # each level p >= 1 against a RowSpan solve of its Vandermonde rows
    rng = random.Random(r)
    phi = euler_phi(4 * r)
    for p in range(1, r - 1):
        nodes = range(1, r - p)
        span = linalg.RowSpan()
        for k in range(len(nodes)):
            span.add([t_power(r, (2 * p + 4 * a) * k) for a in nodes])
        for _ in range(2):
            values = [
                CycScalar(r, [rng.randint(-4, 4) for _ in range(phi)], rng.randint(1, 12))
                if rng.random() < 0.75 else CycScalar.zero(r)
                for _ in nodes
            ]
            assert _newton_solve(values, p, r) == span.solve(values)
        assert _newton_solve([CycScalar.zero(r)] * len(nodes), p, r) == {}


@pytest.mark.parametrize("r", range(2, 25))
def test_gap_inverses(r):
    # entry b inverts the product of the node gaps w^i - 1, i <= b, w = t^4
    scales = _gap_product_inverses(r)
    assert len(scales) == r
    product = CycScalar.one(r)
    for b, scale in enumerate(scales):
        if b:
            product = product * (t_power(r, 4 * b) - 1)
        assert product * scale == 1, b


def test_newton_levels_take_no_field_inverse(monkeypatch):
    # levels p >= 1 scale by closed-form gap products, even at a cold order
    r = 13
    m, _ = rho_word_exact([("T", 1), ("S", 1), ("T", -2), ("S", 1)], r)
    _gap_product_inverses.cache_clear()
    real_inverse = CycScalar.inverse
    calls = []

    def inverse(self):
        calls.append(self)
        return real_inverse(self)

    monkeypatch.setattr(CycScalar, "inverse", inverse)
    levels = [rt_torus._solve_level(m, p, r) for p in range(1, r - 1)]
    assert any(levels) and not calls


def test_skein_from_matrix_reuses_per_order_constants(monkeypatch):
    # the level-0 span, with its pivot inverses, is built once per r
    r = 9
    m, _ = rho_word_exact([("T", 1), ("S", 1), ("T", -2), ("S", 1)], r)
    first = skein_from_matrix(m, r)
    calls = []
    real_inverse, real_add = CycScalar.inverse, linalg.RowSpan.add

    def inverse(self):
        calls.append("inverse")
        return real_inverse(self)

    def add(self, vec):
        calls.append("add")
        return real_add(self, vec)

    monkeypatch.setattr(CycScalar, "inverse", inverse)
    monkeypatch.setattr(linalg.RowSpan, "add", add)
    assert skein_from_matrix(m, r) == first
    assert not calls


def test_skein_from_matrix_round_trip_r16():
    r = 16
    m, _ = rho_word_exact([("S", 1), ("T", 2), ("S", -1), ("T", -1), ("S", 1)], r)
    assert linalg.mat_eq(rt_rep_matrix(skein_from_matrix(m, r), r), m)


def test_skein_from_matrix_round_trip_r24():
    r = 24
    m, _ = rho_word_exact([("T", 1), ("S", 1), ("T", -2), ("S", 1)], r)
    skein = skein_from_matrix(m, r)
    assert len(skein.terms) > 10 * r
    assert _parts(rt_rep_matrix(skein, r)) == _parts(m)


def test_skein_from_matrix_rejects_bad_entries():
    r = 4
    good = rt_rep_matrix((1, 1), r)
    with pytest.raises(TypeError, match="CycScalar"):
        skein_from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], r)
    with pytest.raises(TypeError, match="CycScalar"):
        skein_from_matrix([row[:2] + [0.5] for row in good], r)
    with pytest.raises(ValueError, match="order"):
        skein_from_matrix(linalg.mat_identity(r - 1, CycScalar.one(r + 1)), r)
    with pytest.raises(ValueError, match="size"):
        skein_from_matrix(good[:2], r)


def test_skein_from_matrix_leaves_input_unchanged():
    r = 6
    m, _ = rho_word_exact([("S", 1), ("T", 1), ("S", 1)], r)
    before = [list(row) for row in m]
    skein_from_matrix(m, r)
    assert m == before


def test_presentation_check():
    for r in range(2, 8):
        report = presentation_check(r)
        assert all(report.values()), {k: v for k, v in report.items() if not v}


def test_presentation_check_reads_a_leftover_term(monkeypatch):
    # (0,2r)_T - (0,0)_T acts as zero on the solid-torus module but is not
    # the zero skein, so a projection through rt_rep_matrix would pass it
    r = 5
    rels = presentation_relations(r)
    leftover = TorusSkein.curve(0, 2 * r, r) - TorusSkein.curve(0, 0, r)
    assert leftover.terms and linalg.mat_is_zero(rt_rep_matrix(leftover, r))
    (name, diff), rest = rels[0], rels[1:]
    monkeypatch.setattr(
        rt_torus, "presentation_relations", lambda mode: [(name, diff + leftover), *rest]
    )
    report = presentation_check(r)
    assert report[name] is False
    assert all(report[n] for n, _ in rest)


def test_presentation_generic():
    report = presentation_check_generic()
    assert all(report.values()), {k: v for k, v in report.items() if not v}


def test_irreducibility_span_and_commutant():
    for r in (2, 3, 4, 5):
        n = r - 1
        span = linalg.RowSpan()
        for p in range(2 * r):
            for q in range(2 * r):
                span.add(_flatten(rt_rep_matrix((p, q), r)))
        assert span.rank == n * n
