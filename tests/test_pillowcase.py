import random

import pytest

from thetaforge import linalg, pillowcase
from thetaforge.pillowcase import (
    CosObservable,
    _generators,
    _spans_matrix_units,
    equivalence_check,
    svn_irreducibility,
    weyl_cos_matrix,
    wilson_cos_matrix,
    wilson_decompose,
    zeta_fold,
)
from thetaforge.rt_torus import rt_rep_matrix, wilson_matrix
from thetaforge.scalar import CycScalar, t_power


def test_weyl_diagonal_observable():
    for r in (2, 3, 5, 7):
        mat = weyl_cos_matrix(CosObservable(0, 1), r)
        for j in range(1, r):
            assert mat[j - 1][j - 1] == t_power(r, 2 * j) + t_power(r, -2 * j)
        offdiag = [
            mat[i][j] for i in range(r - 1) for j in range(r - 1) if i != j
        ]
        assert all(not x for x in offdiag)


def test_weyl_shift_observable_r3():
    mat = weyl_cos_matrix(CosObservable(1, 0), 3)
    assert [[complex(x.embed().to_mpc()) for x in row] for row in mat] == [[0, 1], [1, 0]]


def test_weyl_even_in_pq():
    rng = random.Random(0)
    for r in (2, 3, 4, 6):
        for _ in range(25):
            p, q = rng.randint(-7, 7), rng.randint(-7, 7)
            a = weyl_cos_matrix(CosObservable(p, q), r)
            b = weyl_cos_matrix(CosObservable(-p, -q), r)
            assert linalg.mat_eq(a, b)


def test_weyl_self_adjoint():
    rng = random.Random(1)
    for r in (3, 5):
        for _ in range(15):
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            m = weyl_cos_matrix(CosObservable(p, q), r)
            n = r - 1
            for i in range(n):
                for j in range(n):
                    assert m[i][j] == m[j][i].conjugate()


def test_zeta_fold_involution():
    for r in (2, 3, 5, 9):
        for j in range(-4 * r, 4 * r):
            sign, idx = zeta_fold(j, r)
            if sign:
                assert zeta_fold(idx, r) == (1, idx)
                assert 1 <= idx <= r - 1
            else:
                assert j % r == 0


def test_wilson_decompose():
    assert wilson_decompose(2, 3, 1) == ((), 1)
    assert wilson_decompose(1, 2, 2) == ((CosObservable(1, 2),), 0)
    assert wilson_decompose(1, 0, 3) == ((CosObservable(2, 0),), 1)

    with pytest.raises(ValueError):
        wilson_decompose(2, 4, 2)
    with pytest.raises(ValueError):
        wilson_decompose(0, 0, 2)


def test_wilson_recomposition_matches_skein_side():
    # n runs past r through the sign-folded range r < n <= 2r+1
    for r in (2, 3, 4, 5, 6, 7):
        for (p, q) in ((1, 0), (0, 1), (1, 1), (2, 1)):
            for n in range(0, 2 * r + 2):
                lhs = wilson_cos_matrix(p, q, n, r)
                rhs = wilson_matrix(p, q, n, r)
                assert linalg.mat_eq(lhs, rhs), (r, p, q, n)


def test_equivalence_check():
    for r in (2, 3, 4):
        report = equivalence_check(r)
        assert report["mismatches"] == []
        assert report["checked"] == (6 * r + 1) ** 2


def test_equivalence_spot_r3():
    lhs = weyl_cos_matrix(CosObservable(1, 1), 3)
    rhs = rt_rep_matrix((1, 1), 3)
    assert linalg.mat_eq(lhs, rhs)


def test_svn_irreducibility():
    for r in (*range(2, 9), 12, 16, 32, 64, 128):
        report = svn_irreducibility(r)
        assert report["all_cyclic"]
        assert report["algebra_dimension"] == (r - 1) ** 2
        assert report["commutant_dimension"] == 1


def test_certificate_holds_for_every_r():
    # Y = diag(2cos(pi j/r)) has distinct entries and X is the path
    # 1 - 2 - ... - (r-1) both ways, so the certificate needs no fallback
    for r in range(2, 97):
        assert _spans_matrix_units(*_generators(r)), r


def _spin(gens, start, dim):
    """RowSpan of the flattened w(start) over the words w in gens; start is a matrix or a column.

    Breadth first, expanding only the elements that enlarged the span; it
    returns once the rank reaches dim, as a full span cannot grow.
    """
    span = linalg.RowSpan()
    span.add(_flatten(start))
    frontier = [start]
    while frontier and span.rank < dim:
        new = []
        for m in frontier:
            for g in gens:
                cand = linalg.mat_mul(g, m)
                if span.add(_flatten(cand)):
                    if span.rank == dim:
                        return span
                    new.append(cand)
        frontier = new
    return span


def _flatten(mat):
    return [x for row in mat for x in row]


def _commutant_dimension(gens, r):
    """Nullity of the commutation equations [G, X] = 0 over Q(zeta_4r)."""
    n = r - 1
    zero = CycScalar.zero(r)
    rows = linalg.RowSpan()
    for g in gens:
        for i in range(n):
            for j in range(n):
                # entry (i,j) of GX - XG as a linear form in X
                row = [zero] * (n * n)
                for s in range(n):
                    if g[i][s]:
                        row[s * n + j] = row[s * n + j] + g[i][s]
                    if g[s][j]:
                        row[i * n + s] = row[i * n + s] - g[s][j]
                rows.add(row)
    return n * n - rows.rank


def _exact_report(r, gens):
    """The svn_irreducibility report from exact ranks over Q(zeta_4r): the test oracle."""
    n = r - 1
    ident = linalg.mat_identity(n, CycScalar.one(r))
    cyclic = [_spin(gens, [[x] for x in e], n).rank == n for e in ident]
    return {
        "r": r,
        "cyclic": cyclic,
        "all_cyclic": all(cyclic),
        "algebra_dimension": _spin(gens, ident, n * n).rank,
        "commutant_dimension": _commutant_dimension(gens, r),
    }


def test_svn_report_equals_exact():
    for r in range(2, 9):
        assert svn_irreducibility(r) == _exact_report(r, _generators(r))


def _cos_pair(a, b):
    return lambda r: [weyl_cos_matrix(a, r), weyl_cos_matrix(b, r)]


def _upper_x(r):
    # X's entries above the diagonal link i to i+1 only
    x, y = _cos_pair(CosObservable(1, 0), CosObservable(0, 1))(r)
    return [[[v if j > i else v * 0 for j, v in enumerate(row)] for i, row in enumerate(x)], y]


def _fixing_ones(r):
    # J - I, and y upper triangular with diagonal 1..n and every row sum n:
    # both fix the all-ones vector
    n, one = r - 1, CycScalar.one(r)
    x = [[one * (i != j) for j in range(n)] for i in range(n)]
    y = [[one * (i + 1 if i == j else n - 1 - i if j == n - 1 else 0) for j in range(n)] for i in range(n)]
    return [x, y]


@pytest.mark.parametrize(
    "generators",
    [
        # Op(2cos 4pi y) repeats a diagonal entry; every vector is still cyclic at r = 5
        _cos_pair(CosObservable(1, 0), CosObservable(0, 2)),
        # Op(2cos 4pi x) links only indices of one parity
        _cos_pair(CosObservable(2, 0), CosObservable(0, 1)),
        _upper_x,
        _fixing_ones,
    ],
    ids=["repeated_diagonal", "one_parity", "one_way_path", "y_not_diagonal"],
)
def test_svn_raises_without_certificate(monkeypatch, generators):
    # each pair fails one hypothesis of the certificate and, by the exact
    # oracle, generates less than all matrices: a certificate lenient
    # enough to pass one of them would report a false irreducibility
    monkeypatch.setattr(pillowcase, "_generators", generators)
    for r in (4, 5, 6):
        assert not _spans_matrix_units(*generators(r))
        with pytest.raises(ArithmeticError, match="matrix-unit certificate"):
            svn_irreducibility(r)
        assert _exact_report(r, generators(r))["algebra_dimension"] < (r - 1) ** 2
