"""Irreducible representations of the quantized sl(2) at t = exp(i*pi/2r),
the duality isomorphism, the fusion ring, and admissible colorings.

The k-dimensional irreducible acts on weight vectors e_j, j = -k0..k0
with k0 = (k-1)/2 (weights are half-integers for even k; everything is
stored through the doubled weight 2j so arithmetic stays integral):

    X e_j = [k0+j+1] e_{j+1},  Y e_j = [k0-j+1] e_{j-1},  K e_j = t^{2j} e_j.

Tensor products decompose by the truncated Clebsch-Gordan rule, which
makes the span of V^1..V^{r-1} a commutative ring isomorphic to
C[V^2]/S_{r-1}(V^2); admissible colorings of trivalent graphs count its
structure constants and give the dimensions that the Verlinde sum,
evaluated exactly in Q(zeta_4r), reproduces.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .scalar import (
    Combination,
    CycScalar,
    chebyshev_s,
    eta_inverse_square,
    index_fold,
    qint,
    qint_factorial,
    t_power,
)


# -- irreducible representations ----------------------------------------------

@dataclass(frozen=True)
class QGroupRep:
    """Matrices of X, Y, K on a weight basis, lowest weight first."""

    k: int
    r: int
    X: tuple
    Y: tuple
    K: tuple

    def relations_hold(self) -> bool:
        """All defining relations, K^{4r} = 1, and nilpotency of X and Y."""
        k, r = self.k, self.r
        X, Y, K = self.X, self.Y, self.K
        ident = linalg.mat_identity(k, CycScalar.one(r))
        kinv = K  # K^{4r-1}: the inverse of K exactly when K^{4r} = 1
        for _ in range(4 * r - 2):
            kinv = linalg.mat_mul(kinv, K)
        if not linalg.mat_eq(linalg.mat_mul(kinv, K), ident):
            return False
        t2 = t_power(r, 2)
        if not linalg.mat_eq(linalg.mat_mul(K, X), linalg.mat_scale(t2, linalg.mat_mul(X, K))):
            return False
        if not linalg.mat_eq(
            linalg.mat_mul(K, Y), linalg.mat_scale(t_power(r, -2), linalg.mat_mul(Y, K))
        ):
            return False
        comm = linalg.mat_sub(linalg.mat_mul(X, Y), linalg.mat_mul(Y, X))
        k2 = linalg.mat_mul(K, K)
        k2inv = linalg.mat_mul(kinv, kinv)
        denom = (t_power(r, 2) - t_power(r, -2)).inverse()
        rhs = linalg.mat_scale(denom, linalg.mat_sub(k2, k2inv))
        if not linalg.mat_eq(comm, rhs):
            return False
        xp, yp = X, Y
        for _ in range(k - 1):
            xp = linalg.mat_mul(xp, X)
            yp = linalg.mat_mul(yp, Y)
        return linalg.mat_is_zero(xp) and linalg.mat_is_zero(yp)


def _empty(k, r):
    zero = CycScalar.zero(r)
    return [[zero] * k for _ in range(k)]


def irrep(k: int, r: int) -> QGroupRep:
    """The k-dimensional irreducible V^k, 1 <= k <= r-1."""
    if not 1 <= k <= r - 1:
        raise ValueError(f"k must lie in [1, {r - 1}]")
    X, Y, K = _empty(k, r), _empty(k, r), _empty(k, r)
    for i in range(k):  # weight 2j = 2i - (k-1)
        if i + 1 < k:
            X[i + 1][i] = qint(i + 1, r)
        if i - 1 >= 0:
            Y[i - 1][i] = qint(k - i, r)
        K[i][i] = t_power(r, 2 * i - (k - 1))
    return QGroupRep(k, r, _freeze(X), _freeze(Y), _freeze(K))


def dual_rep(k: int, r: int) -> QGroupRep:
    """The action on the dual basis e^j of V^{k*}."""
    if not 1 <= k <= r - 1:
        raise ValueError(f"k must lie in [1, {r - 1}]")
    X, Y, K = _empty(k, r), _empty(k, r), _empty(k, r)
    mt2 = -t_power(r, 2)
    mtm2 = -t_power(r, -2)
    for i in range(k):
        if i - 1 >= 0:
            X[i - 1][i] = mt2 * qint(i, r)
        if i + 1 < k:
            Y[i + 1][i] = mtm2 * qint(k - 1 - i, r)
        K[i][i] = t_power(r, (k - 1) - 2 * i)
    return QGroupRep(k, r, _freeze(X), _freeze(Y), _freeze(K))


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


def d_iso(k: int, r: int):
    """Matrix of the isomorphism V^{k*} -> V^k intertwining the two actions.

    e^j maps to a multiple of e_{-j}; the ratio of consecutive scalars is
    forced by intertwining X to c_j / c_{j-1} = -t^2 [k0+j]/[k0-j+1],
    giving c_j = (-t^2)^j [k0+j]! [k0-j]! / [2k0]!.  For even k the
    half-integer power (-t^2)^j is read as nu^{2j} with nu^2 = -t^2;
    nu = i t = t^{r+1} is always the branch taken (the other choice only
    flips the global sign, which intertwines equally well).
    """
    if not 1 <= k <= r - 1:
        raise ValueError(f"k must lie in [1, {r - 1}]")
    denom = qint_factorial(k - 1, r).inverse()
    D = _empty(k, r)
    for i in range(k):  # column e^j with 2j = 2i-(k-1); row e_{-j} = k-1-i
        D[k - 1 - i][i] = (
            t_power(r, (r + 1) * (2 * i - (k - 1)))
            * qint_factorial(i, r)
            * qint_factorial(k - 1 - i, r)
            * denom
        )
    if not _intertwines(D, dual_rep(k, r), irrep(k, r)):
        raise ArithmeticError(f"the nu = i*t matrix does not intertwine V^{k}* with V^{k}")
    return D


def _intertwines(D, dual: QGroupRep, std: QGroupRep) -> bool:
    for g_dual, g_std in ((dual.X, std.X), (dual.Y, std.Y), (dual.K, std.K)):
        if not linalg.mat_eq(linalg.mat_mul(D, g_dual), linalg.mat_mul(g_std, D)):
            return False
    return True


# -- the fusion ring -----------------------------------------------------------

class FusionElement(Combination):
    """Integer combination of V^1, ..., V^{r-1}, keyed by n for V^n; base r.

    Keys fold by scalar.index_fold, V^r = 0, V^{r+j} = -V^{r-j} and
    V^{n+2r} = V^n, the rule that folds the solid-torus basis and the
    quantized integers; products follow the truncated Clebsch-Gordan rule.
    """

    _MIXED = "mixed levels"

    def __init__(self, r, terms=()):
        if r < 2:
            raise ValueError("r must be >= 2")
        super().__init__(r, terms)

    @classmethod
    def basis(cls, n, r):
        if not 1 <= n <= r - 1:
            raise ValueError("basis index out of range")
        return cls(r, {n: 1})

    @classmethod
    def one(cls, r):
        return cls.basis(1, r)

    def _fold(self, n):
        sign, idx = index_fold(n, self.base)
        return idx, sign

    def _basis_mul(self, m, n):
        return [(p, 1) for p in clebsch_gordan_range(m, n, self.base)]


def clebsch_gordan_range(m: int, n: int, r: int):
    """Indices p with V^p appearing in V^m V^n (parity and level cutoff)."""
    return range(abs(m - n) + 1, min(m + n - 1, 2 * r - 1 - m - n) + 1, 2)


def fusion_from_chebyshev(n: int, r: int) -> FusionElement:
    """S_{n-1}(V^2) in the fusion ring: V^n, folded to sign * S_{idx-1}(V^2)
    by (sign, idx) = index_fold(n, r), so the cost does not grow with n."""
    if n < 0:
        raise ValueError("index must be >= 0")
    sign, idx = index_fold(n, r)
    if not sign:
        return FusionElement(r)
    return chebyshev_s(FusionElement(r, {2: 1}), FusionElement.one(r), idx)[-1].scaled(sign)


def fusion_matrix(a: int, r: int):
    """Integer matrix of multiplication by V^a on the basis."""
    va = FusionElement.basis(a, r)
    cols = [(va * FusionElement.basis(n, r)).terms for n in range(1, r)]
    return [[col.get(p, 0) for col in cols] for p in range(1, r)]


# -- trivalent graphs and colorings --------------------------------------------

def _incidence(graph):
    """{vertex: [edge index, ...]}, a loop listed twice; empty for the circle."""
    incident = {v: [] for v in graph.vertices}
    for idx, edge in enumerate(graph.edges if graph.vertices else ()):
        for v in edge:
            if v not in incident:
                raise ValueError("edge endpoint is not a vertex")
            incident[v].append(idx)
    return incident


@dataclass(frozen=True)
class TrivalentGraph:
    """A connected trivalent graph; loops allowed, multi-edges allowed.

    Edges are (u, v) vertex pairs; the vertexless circle (genus one) is
    the single edge (None, None).
    """

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        if not self.vertices:
            if self.edges != ((None, None),):
                raise ValueError("a vertexless graph must be the single circle")
            return
        incident = _incidence(self)
        if any(len(slots) != 3 for slots in incident.values()):
            raise ValueError("every vertex must have degree 3 (loops count twice)")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for idx in incident[stack.pop()]:
                for w in self.edges[idx]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        if len(seen) != len(self.vertices):
            raise ValueError("graph must be connected")

    @property
    def genus(self):
        if not self.vertices:
            return 1
        return len(self.edges) - len(self.vertices) + 1


def circle_graph():
    return TrivalentGraph((), ((None, None),))


def theta_graph():
    return TrivalentGraph((0, 1), ((0, 1), (0, 1), (0, 1)))


def dumbbell_graph():
    return TrivalentGraph((0, 1), ((0, 0), (0, 1), (1, 1)))


def caterpillar_graph(genus: int):
    """A chain of loops joined by bridges; inner circles split into two arcs."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if genus == 1:
        return circle_graph()
    vertices = ["L"]
    for i in range(1, genus - 1):
        vertices += [f"a{i}", f"b{i}"]
    vertices.append("R")
    edges = [("L", "L")]
    prev = "L"
    for i in range(1, genus - 1):
        edges.append((prev, f"a{i}"))
        edges.append((f"a{i}", f"b{i}"))
        edges.append((f"a{i}", f"b{i}"))
        prev = f"b{i}"
    edges.append((prev, "R"))
    edges.append(("R", "R"))
    return TrivalentGraph(tuple(vertices), tuple(edges))


def admissible_colorings(graph: TrivalentGraph, r: int):
    """(count, colorings), each a tuple of edge colors in graph.edges order, by
    exhaustive backtracking that checks a vertex once its last edge is colored.

    An edge that completes a vertex whose two other edges are already
    colored tries only their fusion range, which is exactly the colors that
    pass that vertex's check; any other vertex it completes is checked.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    n_edges = len(graph.edges)
    checks_after = [[] for _ in range(n_edges)]
    for slots in _incidence(graph).values():
        checks_after[slots[-1]].append(slots)
    # per edge: the (a, b) whose fusion range gives its colors, or None for
    # all colors, and the vertex checks left
    plan = []
    for i, checks in enumerate(checks_after):
        source = next((slots for slots in checks if slots[1] < i), None)
        rest = [slots for slots in checks if slots is not source]
        plan.append((None if source is None else tuple(source[:2]), rest))
    # the fusion rule of each color pair, built once: membership in a range
    # is cheaper than a call per vertex check
    allowed = {(m, n): clebsch_gordan_range(m, n, r) for m in range(1, r) for n in range(1, r)}
    every = range(1, r)
    colors = [0] * n_edges
    colorings = []

    def backtrack(i):
        if i == n_edges:
            colorings.append(tuple(colors))
            return
        source, checks = plan[i]
        for color in allowed[colors[source[0]], colors[source[1]]] if source else every:
            colors[i] = color
            for a, b, c in checks:
                if colors[c] not in allowed[colors[a], colors[b]]:
                    break
            else:
                backtrack(i + 1)

    backtrack(0)
    return len(colorings), colorings


def verlinde_numeric(genus: int, r: int) -> int:
    """sum_j (eta [j])^{2-2g}, the count of admissible colorings, exactly.

    With eta^{-2} = sum_k [k]^2 this is (sum_k [k]^2)^{g-1} sum_j [j]^{2-2g},
    summed in Q(zeta_4r) over j <= r/2 since [j] = [r-j]; the result must
    be a rational integer.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if r < 2:
        raise ValueError("r must be >= 2")
    total = CycScalar.zero(r)
    for j in range(1, r // 2 + 1):
        term = qint(j, r) ** (2 - 2 * genus)
        total = total + (term if 2 * j == r else term * 2)
    total = eta_inverse_square(r) ** (genus - 1) * total
    if total.den != 1 or any(total.num[1:]):
        raise ArithmeticError(f"Verlinde sum at genus {genus}, r = {r} is not an integer")
    return total.num[0]


__all__ = [
    "QGroupRep",
    "FusionElement",
    "TrivalentGraph",
    "irrep",
    "dual_rep",
    "d_iso",
    "clebsch_gordan_range",
    "fusion_from_chebyshev",
    "fusion_matrix",
    "admissible_colorings",
    "verlinde_numeric",
    "circle_graph",
    "theta_graph",
    "dumbbell_graph",
    "caterpillar_graph",
]
