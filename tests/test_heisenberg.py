import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaforge import heisenberg, linalg, rt_torus
from thetaforge.heisenberg import (
    FiniteHeisElt,
    HeisAlgElt,
    HeisElt,
    LagrangianLine,
    algebra_rep,
    extended_compose,
    f_of_t_skein,
    finite_mul,
    fourier_abelian,
    fourier_word_exact,
    heis_mul,
    heis_reduce,
    maslov,
    matrix_to_heisenberg,
    mcg_action_abelian,
    nctorus_convert,
    nctorus_convert_inverse,
    observable_action_matrix,
    schrodinger_matrix,
    t_heis,
    twist_skein_solve,
)
from thetaforge.scalar import CycScalar
from thetaforge.sl2z import IDENTITY, S, SL2Z, T, sl2z_decompose, word_matrix
from words import random_word


def test_heis_mul_cocycle():
    assert heis_mul(HeisElt(1, 0, 0), HeisElt(0, 1, 0)) == HeisElt(1, 1, 1)
    assert heis_mul(HeisElt(3, -2, 5), HeisElt(0, 0, 0)) == HeisElt(3, -2, 5)
    assert heis_mul(HeisElt(0, 1, 0), HeisElt(1, 0, 0)) == HeisElt(1, 1, -1)


def test_heis_mul_associative():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (HeisElt(*(rng.randint(-5, 5) for _ in range(3))) for _ in range(3))
        assert heis_mul(heis_mul(x, y), z) == heis_mul(x, heis_mul(y, z))


def test_heis_reduce_examples():
    for N in (2, 4, 6):
        assert heis_reduce(HeisElt(N, 0, 0), N) == FiniteHeisElt(N, 0, 0, 0)
        assert heis_reduce(HeisElt(0, 0, 2 * N), N) == FiniteHeisElt(N, 0, 0, 0)
    assert heis_reduce(HeisElt(4, 1, 0), 4) == FiniteHeisElt(4, 0, 1, 4)


def test_heis_reduce_rejects_odd():
    with pytest.raises(ValueError):
        heis_reduce(HeisElt(0, 0, 0), 3)


def test_heis_reduce_is_homomorphism():
    rng = random.Random(2)
    for N in (2, 4, 6, 8, 10):
        for _ in range(400):
            x = HeisElt(*(rng.randint(-12, 12) for _ in range(3)))
            y = HeisElt(*(rng.randint(-12, 12) for _ in range(3)))
            assert heis_reduce(heis_mul(x, y), N) == finite_mul(
                heis_reduce(x, N), heis_reduce(y, N)
            )


def _heis_reduce_loops(x, N):
    """Reference reduction one step of N at a time (cost linear in the labels)."""
    p, q, k = x
    while p >= N:
        p, k = p - N, k - N * q
    while p < 0:
        p, k = p + N, k + N * q
    while q >= N:
        q, k = q - N, k + N * p
    while q < 0:
        q, k = q + N, k - N * p
    return FiniteHeisElt(N, p, q, k % (2 * N))


_EVEN_N = st.integers(1, 20).map(lambda h: 2 * h)
_SMALL = st.integers(-300, 300)
_HUGE = st.integers(-(10**30), 10**30)


@settings(max_examples=200, deadline=None)
@given(_EVEN_N, _SMALL, _SMALL, _SMALL)
def test_heis_reduce_matches_step_reduction(N, p, q, k):
    assert heis_reduce(HeisElt(p, q, k), N) == _heis_reduce_loops(HeisElt(p, q, k), N)


@settings(max_examples=200, deadline=None)
@given(_EVEN_N, st.tuples(_HUGE, _HUGE, _HUGE), st.tuples(_HUGE, _HUGE, _HUGE))
def test_heis_reduce_is_homomorphism_on_huge_labels(N, x, y):
    x, y = HeisElt(*x), HeisElt(*y)
    assert heis_reduce(heis_mul(x, y), N) == finite_mul(heis_reduce(x, N), heis_reduce(y, N))


def _mat_complex(mat):
    return [[complex(x.embed().to_mpc()) for x in row] for row in mat]


def test_schrodinger_matrix_n2():
    shift = _mat_complex(schrodinger_matrix(heis_reduce(HeisElt(1, 0, 0), 2)))
    assert shift == [[0, 1], [1, 0]]
    diag = _mat_complex(schrodinger_matrix(heis_reduce(HeisElt(0, 1, 0), 2)))
    assert diag[0][0] == 1 and abs(diag[1][1] + 1) < 1e-15 and diag[0][1] == 0
    both = _mat_complex(schrodinger_matrix(heis_reduce(HeisElt(1, 1, 0), 2)))
    assert abs(both[0][1] - 1j) < 1e-15 and abs(both[1][0] + 1j) < 1e-15
    assert both[0][0] == 0 and both[1][1] == 0


def test_schrodinger_homomorphism_exact():
    rng = random.Random(3)
    for N in (2, 4, 6):
        for _ in range(40):
            x = heis_reduce(HeisElt(*(rng.randint(-9, 9) for _ in range(3))), N)
            y = heis_reduce(HeisElt(*(rng.randint(-9, 9) for _ in range(3))), N)
            lhs = linalg.mat_mul(schrodinger_matrix(x), schrodinger_matrix(y))
            rhs = schrodinger_matrix(finite_mul(x, y))
            assert linalg.mat_eq(lhs, rhs)


def test_schrodinger_matrix_reduces_labels():
    # a hand-built label outside the canonical ranges acts as its H(Z) class
    for N, label in ((4, (5, 1, 0)), (6, (-7, 9, 13)), (2, (3, -3, 5))):
        got = schrodinger_matrix(FiniteHeisElt(N, *label))
        assert linalg.mat_eq(got, schrodinger_matrix(heis_reduce(HeisElt(*label), N)))


def test_heis_alg_elt_keys_are_group_elements():
    # b(p,q) outside [0,N)^2 is (p,q,0) of H(Z): theta_j -> t^{-pq-2jq} theta_{j+p}
    N, p, q = 4, 5, 1
    zero = CycScalar.zero(N // 2)
    want = [[zero] * N for _ in range(N)]
    for j in range(N):
        want[(j + p) % N][j] = t_heis(N, -p * q - 2 * j * q)
    assert linalg.mat_eq(algebra_rep(HeisAlgElt.basis(N, p, q)), want)
    # b(4,1) = t^4 b(0,1) = -b(0,1), so colliding keys cancel
    one = CycScalar.one(N // 2)
    assert HeisAlgElt(N, {(0, 1): one, (4, 1): one}).terms == {}
    assert HeisAlgElt(N, {(0, 1): 1, (4, 1): 1}).terms == {}
    assert HeisAlgElt(N, {(0, 1): one, (4, 1): -one}).terms == {(0, 1): one * 2}


def test_central_character():
    for N in (2, 4, 6):
        for k in range(2 * N):
            mat = schrodinger_matrix(FiniteHeisElt(N, 0, 0, k))
            want = linalg.mat_scale(t_heis(N, k), linalg.mat_identity(N, CycScalar.one(N // 2)))
            assert linalg.mat_eq(mat, want)


def test_algebra_rep_identity_and_sum():
    N = 2
    assert linalg.mat_eq(
        algebra_rep(HeisAlgElt.basis(N, 0, 0)),
        linalg.mat_identity(N, CycScalar.one(1)),
    )
    x = HeisAlgElt.basis(N, 1, 0) + HeisAlgElt.basis(N, 0, 1)
    got = _mat_complex(algebra_rep(x))
    assert abs(got[0][0] - 1) < 1e-15 and abs(got[1][1] + 1) < 1e-15
    assert got[0][1] == 1 and got[1][0] == 1
    # an int coefficient acts as the field element it names
    two = algebra_rep(HeisAlgElt(4, {(1, 1): 2}))
    assert linalg.mat_eq(two, linalg.mat_scale(2, algebra_rep(HeisAlgElt.basis(4, 1, 1))))


def test_algebra_rep_spans_everything():
    for N in (2, 4, 6):
        mats = [
            [x for row in algebra_rep(HeisAlgElt.basis(N, p, q)) for x in row]
            for p in range(N)
            for q in range(N)
        ]
        span = linalg.RowSpan()
        for m in mats:
            span.add(m)
        assert span.rank == N * N


def test_nctorus_convert():
    assert nctorus_convert(HeisElt(1, 1, 1)) == ((1, 1), 0)
    assert nctorus_convert(HeisElt(0, 0, 5)) == ((0, 0), 5)
    assert nctorus_convert(HeisElt(2, 1, 0)) == ((2, 1), -2)
    rng = random.Random(4)
    for _ in range(50):
        e = HeisElt(*(rng.randint(-6, 6) for _ in range(3)))
        assert nctorus_convert_inverse(*nctorus_convert(e)) == e


def test_mcg_action_examples():
    assert mcg_action_abelian(S, HeisElt(1, 0, 0)) == HeisElt(0, -1, 0)
    assert mcg_action_abelian(IDENTITY, HeisElt(3, 4, 5)) == HeisElt(3, 4, 5)
    assert mcg_action_abelian(T, HeisElt(0, 1, 0)) == HeisElt(1, 1, 0)


def test_mcg_action_is_group_action():
    rng = random.Random(5)
    for _ in range(100):
        h1 = word_matrix(random_word(rng, 4))
        h2 = word_matrix(random_word(rng, 4))
        e = HeisElt(*(rng.randint(-5, 5) for _ in range(3)))
        assert mcg_action_abelian(h1 * h2, e) == mcg_action_abelian(
            h1, mcg_action_abelian(h2, e)
        )


def test_mcg_action_rejects_non_unimodular():
    with pytest.raises(ValueError):
        mcg_action_abelian(SL2Z(1, 0, 0, 2), HeisElt(1, 0, 0))


def _exact_egorov_ok(word, N):
    rho = fourier_word_exact(word, N)
    act = observable_action_matrix(word)
    for p in range(N):
        for q in range(N):
            lhs = linalg.mat_mul(rho, algebra_rep(HeisAlgElt.basis(N, p, q)))
            target = heis_reduce(HeisElt(*act.apply(p, q), 0), N)
            rhs_elt = HeisAlgElt.basis(N, target.p, target.q, t_heis(N, target.k))
            rhs = linalg.mat_mul(algebra_rep(rhs_elt), rho)
            if not linalg.mat_eq(lhs, rhs):
                return False
    return True


def test_exact_egorov_generators():
    for N in (2, 4, 6):
        assert _exact_egorov_ok([("S", 1)], N)
        assert _exact_egorov_ok([("T", 1)], N)
        # S^0 is the identity and multiplies nothing in
        word = [("S", -1), ("S", 0), ("T", 2)]
        assert _exact_egorov_ok(word, N)
        assert fourier_word_exact(word, N) == fourier_word_exact([("S", -1), ("T", 2)], N)


_WORD = st.lists(
    st.tuples(st.sampled_from("ST"), st.sampled_from((-2, -1, 1, 2))), min_size=1, max_size=5
)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4).map(lambda h: 2 * h), _WORD)
def test_exact_egorov_words(N, word):
    assert _exact_egorov_ok(word, N)


def test_fourier_abelian_generator_values():
    with mpmath.workprec(140):
        got = fourier_abelian(sl2z_decompose(T), 2)
        assert abs(got[0][0] - 1) < 1e-20 and abs(got[1][1] + 1j) < 1e-20
        got = fourier_abelian(sl2z_decompose(S), 2)
        c = 1 / mpmath.sqrt(2)
        for i in range(2):
            for j in range(2):
                want = c if (i, j) != (1, 1) else -c
                assert abs(got[i][j] - want) < 1e-20
        ident = fourier_abelian(sl2z_decompose(IDENTITY), 4)
        for i in range(4):
            for j in range(4):
                assert abs(ident[i][j] - (1 if i == j else 0)) < 1e-20


def test_fourier_abelian_unitary_and_projective():
    rng = random.Random(7)
    with mpmath.workprec(140):
        for N in (2, 4, 6):
            for _ in range(6):
                w1 = random_word(rng, 3)
                w2 = random_word(rng, 3)
                h1, h2 = word_matrix(w1), word_matrix(w2)
                m12 = fourier_abelian(sl2z_decompose(h1 * h2), N)
                m1 = fourier_abelian(sl2z_decompose(h1), N)
                m2 = fourier_abelian(sl2z_decompose(h2), N)
                prod = [
                    [mpmath.fsum(m1[i][s] * m2[s][j] for s in range(N)) for j in range(N)]
                    for i in range(N)
                ]
                # unitarity of the product
                for i in range(N):
                    for j in range(N):
                        acc = mpmath.fsum(
                            prod[i][s] * mpmath.conj(prod[j][s]) for s in range(N)
                        )
                        assert abs(acc - (1 if i == j else 0)) < 1e-25
                # projective: m12 and prod agree up to a unit scalar
                ratio = None
                for i in range(N):
                    for j in range(N):
                        if abs(prod[i][j]) > 0.1:
                            ratio = m12[i][j] / prod[i][j]
                            break
                    if ratio:
                        break
                assert abs(abs(ratio) - 1) < 1e-25
                for i in range(N):
                    for j in range(N):
                        assert abs(m12[i][j] - ratio * prod[i][j]) < 1e-25


def test_f_of_t_skein_n2():
    f = f_of_t_skein(2)
    i = t_heis(2, 1)
    assert f.terms[(0, 0)] == CycScalar.one(1)
    assert f.terms[(0, 1)] == i


def test_f_of_t_egorov_exact():
    for N in (2, 4, 6, 8):
        f = f_of_t_skein(N)
        lhs = HeisAlgElt.basis(N, 1, 1) * f
        rhs = f * HeisAlgElt.basis(N, 1, 0)
        assert lhs == rhs


def test_f_of_t_rep_unitary_scaled():
    for N in (2, 4, 6):
        rep = algebra_rep(f_of_t_skein(N))
        adj = [[rep[j][i].conjugate() for j in range(N)] for i in range(N)]
        prod = linalg.mat_mul(rep, adj)
        want = linalg.mat_scale(
            CycScalar.from_fraction(N, N // 2), linalg.mat_identity(N, CycScalar.one(N // 2))
        )
        assert linalg.mat_eq(prod, want)


def test_f_of_t_matches_fourier_t():
    for N in (2, 4, 6):
        rep = _mat_complex(algebra_rep(f_of_t_skein(N)))
        ft = [[complex(x) for x in row] for row in fourier_abelian(sl2z_decompose(T), N)]
        ratio = rep[0][0] / ft[0][0]
        assert abs(abs(ratio) - N**0.5) < 1e-12
        for i in range(N):
            for j in range(N):
                assert abs(rep[i][j] - ratio * ft[i][j]) < 1e-12


def test_twist_skein_solve_recovers_phases():
    for N in (2, 4, 6, 8, 10, 12):
        got = twist_skein_solve(N)
        want = f_of_t_skein(N)
        assert got == want


def test_matrix_to_heisenberg_round_trip():
    rng = random.Random(8)
    for N in (2, 4):
        assert matrix_to_heisenberg(
            linalg.mat_identity(N, CycScalar.one(N // 2)), N
        ).terms == {(0, 0): CycScalar.one(N // 2)}
        for _ in range(10):
            p, q = rng.randrange(N), rng.randrange(N)
            back = matrix_to_heisenberg(algebra_rep(HeisAlgElt.basis(N, p, q)), N)
            assert back.terms == {(p, q): CycScalar.one(N // 2)}


def test_matrix_to_heisenberg_of_fourier_t():
    # the exact part of rho(T) decomposes on b(0,q) with t^{q^2} coefficients
    for N in (2, 4, 6):
        exact_t = fourier_word_exact([("T", 1)], N)
        coeffs = matrix_to_heisenberg(exact_t, N)
        scale = coeffs.terms[(0, 0)]
        for (p, q), c in coeffs.terms.items():
            assert p == 0
            assert c == scale * t_heis(N, q * q)


def test_omega_u1():
    # the abelian surgery element N^{-1/2} (1, ..., 1) is column 0 of rho(S)
    with mpmath.workprec(120):
        for N in (2, 4, 6, 8):
            col0 = [row[0] for row in fourier_abelian(sl2z_decompose(S), N)]
            assert all(abs(c - col0[0]) < 1e-30 for c in col0)
            assert abs(abs(col0[0]) - 1 / mpmath.sqrt(N)) < 1e-30


def test_maslov_examples():
    l1 = LagrangianLine.of(1, 0)
    l2 = LagrangianLine.of(1, 1)
    l3 = LagrangianLine.of(0, 1)
    assert maslov(l1, l1, l3) == 0
    assert maslov(l1, l2, l3) == 1
    assert maslov(l3, l2, l1) == -1


def test_maslov_antisymmetry():
    rng = random.Random(9)
    import itertools

    for _ in range(100):
        lines = []
        while len(lines) < 3:
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            if (a, b) != (0, 0):
                lines.append(LagrangianLine.of(a, b))
        base = maslov(*lines)
        for perm in itertools.permutations(range(3)):
            sign = _perm_sign(perm)
            assert maslov(*(lines[i] for i in perm)) == sign * base


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_extended_compose_identity_and_s():
    line = LagrangianLine.of(0, 1)
    h, n = extended_compose((IDENTITY, 0), (T, 5), line)
    assert (h, n) == (T, 5)
    h, n = extended_compose((S, 0), (S, 0), line)
    assert h == S * S and n == 0


def test_extended_compose_associative():
    rng = random.Random(10)
    line = LagrangianLine.of(1, 0)
    for _ in range(200):
        triples = [
            (word_matrix(random_word(rng, 5)), rng.randint(-3, 3)) for _ in range(3)
        ]
        x, y, z = triples
        left = extended_compose(extended_compose(x, y, line), z, line)
        right = extended_compose(x, extended_compose(y, z, line), line)
        assert left == right


def test_sl2z_decompose_round_trip():
    rng = random.Random(11)
    count = 0
    while count < 100:
        h = word_matrix(random_word(rng, 9))
        if max(map(abs, h)) > 50:
            continue
        count += 1
        assert word_matrix(sl2z_decompose(h)) == h
    assert sl2z_decompose(T) == [("T", 1)]
    assert sl2z_decompose(S) == [("S", 1)]


@pytest.mark.parametrize("to_matrix", [word_matrix, observable_action_matrix])
def test_word_rejects_unknown_letter(to_matrix):
    with pytest.raises(ValueError, match="unknown generator 'X'"):
        to_matrix([("S", 1), ("X", 1)])


def _fourier_generator_product(word, N, prec):
    """rho(word) as a product of the numeric generators, in mpmath at prec bits:
    rho(S^{+-1}) = N^{-1/2} [t^{+-2jk}] and rho(T^e) = diag(t^{-e j^2}), t = exp(i pi/N)."""
    with mpmath.workprec(prec):
        t = mpmath.expjpi(mpmath.mpf(1) / N)
        inv_sqrt_n = 1 / mpmath.sqrt(N)
        mat = [[mpmath.mpc(1 if i == j else 0) for j in range(N)] for i in range(N)]
        gens = []
        for letter, exp in word:
            if letter == "T":
                gen = [[mpmath.mpc(0)] * N for _ in range(N)]
                for j in range(N):
                    gen[j][j] = t ** ((-exp * j * j) % (2 * N))
                gens.append(gen)
            else:
                sign = 1 if exp >= 0 else -1
                gen = [
                    [inv_sqrt_n * t ** ((sign * 2 * j * k) % (2 * N)) for k in range(N)]
                    for j in range(N)
                ]
                gens += [gen] * abs(exp)
        for gen in gens:
            mat = [
                [mpmath.fsum(mat[i][s] * gen[s][j] for s in range(N)) for j in range(N)]
                for i in range(N)
            ]
        return mat


@pytest.mark.parametrize("N", [2, 4, 6, 8, 16])
def test_fourier_abelian_matches_generator_product(N):
    # the oracle multiplies out every power of S, so exponents up to 9 check
    # the fold of S^e to S^{e mod 2} and the parity permutation entrywise
    rng = random.Random(100 + N)
    tol = mpmath.mpf(2) ** -100
    for _ in range(4):
        word = [
            (letter, rng.choice((-1, 1)) * rng.randint(1, 9))
            for letter in rng.choice(("ST", "TS")) * rng.randint(1, 2)
        ]
        got = fourier_abelian(word, N)
        want = _fourier_generator_product(word, N, 160)
        with mpmath.workprec(160):
            assert all(abs(got[a][b] - want[a][b]) < tol for a in range(N) for b in range(N))


def test_s_power_costs_one_product(monkeypatch):
    # S^e folds to S^{e mod 2} times the parity permutation (heisenberg) or
    # the identity (rt_torus): one product at most per S letter, whatever e
    e = 10**18 + 1
    for sign in (1, -1):
        big = [("S", sign * e), ("S", sign * (e + 1))]
        small = [("S", sign), ("S", 2 * sign)]
        calls = []
        mat_mul = linalg.mat_mul
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
            heis = fourier_word_exact(big, 8)
            assert len(calls) == 1
            rho = rt_torus.rho_word_exact(big, 8)
            assert len(calls) == 2
        assert heis == fourier_word_exact(small, 8)
        assert rho == rt_torus.rho_word_exact(small, 8)


# -- the kept word product ----------------------------------------------------

def _parts(mat):
    return [[(x.num, x.den) for x in row] for row in mat]


def test_fourier_abelian_then_exact_multiplies_once(monkeypatch):
    rng = random.Random(22)
    for N in (4, 8, 16):
        word = random_word(rng, 6)
        letters = sum(1 for letter, exp in word if letter == "T" or exp % 2)
        calls = []
        mat_mul = linalg.mat_mul
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
            fourier_abelian(word, N)
            assert len(calls) == letters, (word, N)
            fourier_word_exact(word, N)
            assert len(calls) == letters, (word, N)


def test_fourier_word_exact_returns_fresh_rows():
    word = [("S", 1), ("T", 3)]
    first = fourier_word_exact(word, 6)
    kept = first[0][0]
    first[0][0] = kept + 1
    first.pop()
    again = fourier_word_exact(word, 6)
    assert again[0][0] == kept and len(again) == 6


def test_kept_fourier_product_equals_a_cold_one():
    rng = random.Random(23)
    kept = heisenberg._fourier_word_product
    for N in range(2, 17, 2):
        for _ in range(3):
            word = random_word(rng, 6)
            fourier_word_exact(word, N)
            hits = kept.cache_info().hits
            warm = fourier_word_exact(word, N)
            assert kept.cache_info().hits == hits + 1
            kept.cache_clear()
            assert _parts(warm) == _parts(fourier_word_exact(word, N)), (word, N)
    # the product kept for N = 4 does not answer N = 4.0, which is refused
    fourier_word_exact([("S", 1)], 4)
    with pytest.raises(ValueError, match="N must be an even integer >= 2, not 4.0"):
        fourier_word_exact([("S", 1)], 4.0)
