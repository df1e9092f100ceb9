import itertools
from dataclasses import replace

import pytest

from thetaforge import linalg
from thetaforge.quantum_group import (
    FusionElement,
    TrivalentGraph,
    admissible_colorings,
    caterpillar_graph,
    circle_graph,
    clebsch_gordan_range,
    d_iso,
    dual_rep,
    dumbbell_graph,
    fusion_from_chebyshev,
    fusion_matrix,
    irrep,
    theta_graph,
    verlinde_numeric,
)
from thetaforge.rt_torus import hopf_gram
from thetaforge.scalar import CycScalar, eta_inverse_square, qint, t_power


def test_irrep_small():
    rep = irrep(1, 5)
    assert linalg.mat_is_zero(rep.X) and linalg.mat_is_zero(rep.Y)
    assert rep.K[0][0] == CycScalar.one(5)

    rep = irrep(2, 5)
    assert rep.X[1][0] == qint(1, 5) == CycScalar.one(5)
    assert rep.K[0][0] == t_power(5, -1)
    assert rep.K[1][1] == t_power(5, 1)


def test_irrep_commutator_oracle():
    # [X,Y] = (K^2 - K^{-2})/(t^2 - t^{-2}) checked entrywise on V^3 at r=5
    rep = irrep(3, 5)
    comm = linalg.mat_sub(
        linalg.mat_mul(rep.X, rep.Y), linalg.mat_mul(rep.Y, rep.X)
    )
    # weights are -1, 0, 1: the commutator is diag([2j]) = diag([-2],[0],[2])
    assert comm[0][0] == qint(-2, 5)
    assert not comm[1][1]
    assert comm[2][2] == qint(2, 5)


def test_all_relations_hold():
    for r in range(2, 9):
        for k in range(1, r):
            assert irrep(k, r).relations_hold(), (k, r, "irrep")
            assert dual_rep(k, r).relations_hold(), (k, r, "dual")


@pytest.mark.parametrize(
    "broken",
    [
        lambda rep: replace(rep, K=linalg.mat_scale(2, rep.K)),  # K^{4r} != 1
        lambda rep: replace(rep, K=linalg.mat_scale(0, rep.K)),  # K singular
        lambda rep: replace(rep, X=linalg.mat_scale(2, rep.X)),  # [X, Y] off by 2
        lambda rep: replace(rep, X=rep.Y),  # KX != t^2 XK
    ],
    ids=["K_times_2", "K_zero", "X_times_2", "X_is_Y"],
)
def test_relations_fail_on_broken_rep(broken):
    for r in (3, 5):
        for k in range(2, r):
            assert not broken(irrep(k, r)).relations_hold(), (k, r)
            assert not broken(dual_rep(k, r)).relations_hold(), (k, r)


def test_irrep_rejects_out_of_range():
    with pytest.raises(ValueError):
        irrep(5, 5)
    with pytest.raises(ValueError):
        irrep(0, 5)
    with pytest.raises(ValueError):
        dual_rep(4, 4)


def test_dual_rep_k_diagonal():
    rep = dual_rep(2, 6)
    assert rep.K[0][0] == t_power(6, 1)
    assert rep.K[1][1] == t_power(6, -1)


def test_d_iso_trivial():
    iso = d_iso(1, 5)
    assert iso[0][0] == CycScalar.one(5)


def test_d_iso_intertwines_everywhere():
    for r in range(2, 9):
        for k in range(1, r):
            iso = d_iso(k, r)
            dual = dual_rep(k, r)
            std = irrep(k, r)
            for g_dual, g_std in ((dual.X, std.X), (dual.Y, std.Y), (dual.K, std.K)):
                lhs = linalg.mat_mul(iso, g_dual)
                rhs = linalg.mat_mul(g_std, iso)
                assert linalg.mat_eq(lhs, rhs), (k, r)


def test_d_iso_invertible():
    for r in range(2, 9):
        for k in range(1, r):
            mat = d_iso(k, r)
            # antidiagonal with nonzero entries
            for i in range(k):
                assert mat[k - 1 - i][i]


def test_fusion_unit():
    for r in (3, 5, 8):
        one = FusionElement.one(r)
        for n in range(1, r):
            v = FusionElement.basis(n, r)
            assert one * v == v
            assert v * one == v


def test_fusion_examples():
    got = FusionElement.basis(2, 4) * FusionElement.basis(2, 4)
    assert got == FusionElement(4, {1: 1, 3: 1})
    got = FusionElement.basis(3, 4) * FusionElement.basis(3, 4)
    assert got == FusionElement(4, {1: 1})


def test_fusion_commutative_associative():
    for r in (3, 4, 5, 6):
        basis = [FusionElement.basis(n, r) for n in range(1, r)]
        for a, b in itertools.product(basis, repeat=2):
            assert a * b == b * a
        for a, b, c in itertools.product(basis, repeat=3):
            assert (a * b) * c == a * (b * c)


def test_chebyshev_generates_basis():
    for r in (3, 5, 8):
        for n in range(0, 3 * r):
            assert fusion_from_chebyshev(n, r) == FusionElement(r, {n: 1}), (n, r)
        assert not fusion_from_chebyshev(r, r)
        assert fusion_from_chebyshev(r + 1, r) == -FusionElement.basis(r - 1, r)


def test_chebyshev_matches_clebsch_gordan():
    # V^m V^n via the ring of Chebyshev polynomials agrees with the rule
    for r in (3, 4, 5, 6, 7):
        for m in range(1, r):
            for n in range(1, r):
                lhs = FusionElement.basis(m, r) * FusionElement.basis(n, r)
                rhs = FusionElement(r)
                for p in range(abs(m - n) + 1, m + n, 2):
                    rhs = rhs + FusionElement(r, {p: 1})
                assert lhs == rhs, (r, m, n)


def test_quantum_dimension_eigenvector():
    for r in range(2, 9):
        qdim = [qint(n, r) for n in range(1, r)]
        for a in range(1, r):
            mat = fusion_matrix(a, r)
            image = [
                sum((CycScalar.from_int(mat[p][n], r) * qdim[n] for n in range(r - 1)),
                    CycScalar.zero(r))
                for p in range(r - 1)
            ]
            want = [qint(a, r) * qdim[p] for p in range(r - 1)]
            assert image == want, (r, a)


def test_verlinde_diagonalises_fusion():
    # G N_a G = (sum_j [j]^2) diag([aj]/[j]), G the Hopf Gram matrix [jk]:
    # the S-matrix diagonalises every fusion matrix, column by column, and
    # not only on the quantum-dimension vector
    for r in range(3, 11):
        gram = hopf_gram(r)
        norm = eta_inverse_square(r)
        zero = CycScalar.zero(r)
        for a in range(1, r):
            fusion = [[CycScalar.from_int(n, r) for n in row] for row in fusion_matrix(a, r)]
            got = linalg.mat_mul(linalg.mat_mul(gram, fusion), gram)
            want = [
                [norm * qint(a * j, r) / qint(j, r) if i == j else zero for j in range(1, r)]
                for i in range(1, r)
            ]
            assert linalg.mat_eq(got, want), (r, a)


def test_graph_validation():
    with pytest.raises(ValueError):
        TrivalentGraph((0,), ((0, 0),))  # degree 2
    with pytest.raises(ValueError):
        TrivalentGraph((0, 1), ((0, 0), (0, 0), (1, 1), (1, 1)))  # disconnected
    assert circle_graph().genus == 1
    assert theta_graph().genus == 2
    assert dumbbell_graph().genus == 2
    for g in (2, 3, 4):
        assert caterpillar_graph(g).genus == g


def test_vertex_condition_symmetric():
    for r in (3, 5):
        for m, n, p in itertools.product(range(1, r), repeat=3):
            vals = {
                perm[2] in clebsch_gordan_range(perm[0], perm[1], r)
                for perm in itertools.permutations((m, n, p))
            }
            assert len(vals) == 1, (r, m, n, p)


def test_genus_one_counts():
    for r in range(2, 9):
        count, colorings = admissible_colorings(circle_graph(), r)
        assert count == r - 1 == len(colorings)


def test_theta_graph_r3():
    count, colorings = admissible_colorings(theta_graph(), 3)
    assert count == 4
    assert set(colorings) == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)}


_GRAPHS = {
    "circle": circle_graph(),
    "theta": theta_graph(),
    "dumbbell": dumbbell_graph(),
    "caterpillar2": caterpillar_graph(2),
    "caterpillar3": caterpillar_graph(3),
}


@pytest.mark.parametrize("graph", _GRAPHS.values(), ids=_GRAPHS.keys())
def test_colorings_match_brute_force(graph):
    # every color tuple in lexicographic order, kept when the fusion rule
    # holds at every vertex on its three edge ends
    ends = {
        v: [i for i, edge in enumerate(graph.edges) for u in edge if u == v]
        for v in graph.vertices
    }
    for r in range(2, 7):
        want = [
            colors
            for colors in itertools.product(range(1, r), repeat=len(graph.edges))
            if all(
                colors[c] in clebsch_gordan_range(colors[a], colors[b], r)
                for a, b, c in ends.values()
            )
        ]
        assert admissible_colorings(graph, r) == (len(want), want), r


def test_dumbbell_matches_theta():
    for r in range(3, 9):
        c1, _ = admissible_colorings(theta_graph(), r)
        c2, _ = admissible_colorings(dumbbell_graph(), r)
        assert c1 == c2, r


def test_verlinde_numeric_matches_counts():
    assert verlinde_numeric(2, 3) == 4
    for r in range(3, 8):
        for genus in (1, 2, 3):
            graph = caterpillar_graph(genus)
            count, _ = admissible_colorings(graph, r)
            assert verlinde_numeric(genus, r) == count, (genus, r)


def _fusion_trace_count(genus, r):
    """Tr(H^{g-1}) with H = sum_a N_a^2, in integers: the Verlinde count."""
    n = r - 1

    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    h = [[0] * n for _ in range(n)]
    for a in range(1, r):
        sq = product(fusion_matrix(a, r), fusion_matrix(a, r))
        h = [[x + y for x, y in zip(row, sq_row)] for row, sq_row in zip(h, sq)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(genus - 1):
        power = product(power, h)
    return sum(power[i][i] for i in range(n))


@pytest.mark.parametrize("genus, r", [(2, 5), (4, 7), (11, 12), (13, 16), (18, 7), (9, 32)])
def test_verlinde_numeric_is_the_exact_count(genus, r):
    # (11, 12), (13, 16), (18, 7) and (9, 32) are counts of 66-94 bits that a
    # float sum at 80 bits rounds to the wrong integer
    count = verlinde_numeric(genus, r)
    assert type(count) is int
    assert count == _fusion_trace_count(genus, r)


@pytest.mark.parametrize("graph", [circle_graph(), theta_graph(), dumbbell_graph()])
@pytest.mark.parametrize("r", [-1, 0, 1])
def test_admissible_colorings_rejects_small_r(graph, r):
    with pytest.raises(ValueError, match="r must be >= 2"):
        admissible_colorings(graph, r)


@pytest.mark.parametrize("r", [-1, 0, 1])
def test_verlinde_numeric_rejects_small_r(r):
    with pytest.raises(ValueError, match="r must be >= 2"):
        verlinde_numeric(2, r)
