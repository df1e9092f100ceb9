"""Weyl quantization of the moduli space of flat SU(2)-connections on the torus.

The moduli space is the pillow case, the torus modulo the antipodal
map; its regular functions are spanned by f(x,y) = 2cos 2pi(px+qy), and
quantization at hbar = 1/2r acts on the odd theta combinations zeta_1,
..., zeta_{r-1} by

    Op(2cos 2pi(px+qy)) zeta_j
        = t^{-pq} (t^{2qj} zeta_{j-p} + t^{-2qj} zeta_{j+p}),

with zeta_0 = 0, zeta_{j+2r} = zeta_j, zeta_{r-j} = -zeta_{r+j}.  This
module is written directly from the cosine side; agreement with the
skein-algebra matrices (rt_torus) is a checked theorem, not shared code.
The action is irreducible (the Stone-von Neumann theorem on the pillow
case): svn_irreducibility proves it from the two generating operators by
a matrix-unit certificate, with no rank computation.
"""
from __future__ import annotations

import functools
from math import gcd
from typing import NamedTuple

from . import linalg
from .scalar import CycScalar, check_order, t_powers


class CosObservable(NamedTuple):
    """The function 2cos 2pi(px+qy); (p,q) and (-p,-q) are the same one."""

    p: int
    q: int


def zeta_fold(j: int, r: int):
    """(sign, index) with zeta_j = sign * zeta_index, index in [1, r-1]."""
    check_order(r)
    m = j % (2 * r)
    if m == 0 or m == r:
        return 0, None
    if m < r:
        return 1, m
    return -1, 2 * r - m


@functools.lru_cache(maxsize=None)
def _zeta_table(r: int):
    """zeta_fold of every j in [0, 3r) as (row, shift): zeta_j = t^shift
    zeta_(row+1), a fold sign -1 being the factor t^{2r}; None where zeta_j = 0.

    zeta_j has period 2r in j, so a residue below 2r plus a column below r
    indexes the table with no further reduction.
    """
    out = []
    for j in range(3 * r):
        sign, idx = zeta_fold(j, r)
        out.append((idx - 1, 0 if sign > 0 else 2 * r) if sign else None)
    return tuple(out)


def weyl_cos_matrix(obs, r: int):
    """Matrix of Op(2cos 2pi(px+qy)) on the zeta basis."""
    check_order(r)
    p, q = obs
    n = r - 1
    zero = CycScalar.zero(r)
    roots, table = t_powers(r), _zeta_table(r)
    period = 4 * r
    mat = [[zero] * n for _ in range(n)]
    pq = p * q
    left, right = (1 - p) % (2 * r), (1 + p) % (2 * r)
    for col in range(n):
        phase = 2 * q * (col + 1)
        hit = table[left + col]  # zeta_{j-p}
        if hit is not None:
            row, shift = hit
            term = roots[(phase - pq + shift) % period]
            entry = mat[row][col]
            mat[row][col] = term if entry is zero else entry + term
        hit = table[right + col]  # zeta_{j+p}
        if hit is not None:
            row, shift = hit
            term = roots[(shift - phase - pq) % period]
            entry = mat[row][col]
            mat[row][col] = term if entry is zero else entry + term
    return mat


def wilson_decompose(p: int, q: int, n: int):
    """Expand the n-dimensional Wilson line of the primitive curve (p,q).

    sin(n u)/sin(u) = sum over m = n-1, n-3, ... of 2cos(m u), the m = 0
    term contributing 1; here u = 2pi(px+qy).  Returns (cosines, constant).
    """
    if (p, q) == (0, 0):
        raise ValueError("need a curve, not the constant map")
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("(p,q) must be primitive")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    cosines = []
    constant = 0
    for m in range(n - 1, -1, -2):
        if m == 0:
            constant = 1
        else:
            cosines.append(CosObservable(m * p, m * q))
    return tuple(cosines), constant


def wilson_cos_matrix(p: int, q: int, n: int, r: int):
    """W_{gamma,n} recomposed through the cosine quantization."""
    cosines, constant = wilson_decompose(p, q, n)
    size = check_order(r) - 1
    acc = [[CycScalar.zero(r)] * size for _ in range(size)]
    for obs in cosines:
        acc = linalg.mat_add(acc, weyl_cos_matrix(obs, r))
    if constant:
        acc = linalg.mat_add(acc, linalg.mat_identity(size, CycScalar.one(r)))
    return acc


def equivalence_check(r: int):
    """Compare the cosine quantization with the skein-algebra matrices.

    The two models share the ordered basis (zeta_j matches V^j), so the
    unitary equivalence is the identity: the matrices must agree exactly
    for every (p,q) with |p|, |q| <= 3r, (6r+1)^2 pairs: wider than 4r,
    the period of both operators in p and in q.  The Weyl side folds its
    indices with its own zeta_fold, not the skein side's index_fold, so
    the two constructions share no code; only the check of r, by
    scalar.check_order, is common to both.
    """
    from .rt_torus import rt_rep_matrix

    check_order(r)
    bound = 3 * r
    checked = 0
    mismatches = []
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            checked += 1
            lhs = weyl_cos_matrix(CosObservable(p, q), r)
            rhs = rt_rep_matrix((p, q), r)
            if not linalg.mat_eq(lhs, rhs):
                mismatches.append(
                    {
                        "p": p,
                        "q": q,
                        "weyl": [[str(x) for x in row] for row in lhs],
                        "skein": [[str(x) for x in row] for row in rhs],
                    }
                )
    return {"r": r, "checked": checked, "mismatches": mismatches}


def _generators(r):
    """Op(2cos 2pi x) and Op(2cos 2pi y), which generate the cosine algebra."""
    return [weyl_cos_matrix(CosObservable(1, 0), r), weyl_cos_matrix(CosObservable(0, 1), r)]


def svn_irreducibility(r: int):
    """Cyclic-vector and commutant report for irreducibility, proven by a certificate.

    The report says that every standard basis vector generates the whole
    space under the algebra spanned by the two generating cosine
    operators, that this algebra is everything, and that its commutant is
    the scalars.

    All three follow from one certificate on the generators X =
    Op(2cos 2pi x) and Y = Op(2cos 2pi y) (the matrix-unit proof of
    Burnside's theorem).  If Y is diagonal with pairwise distinct entries,
    the Lagrange polynomials in Y are the matrix units E_ii.  Then
    E_ii X E_jj = X_ij E_ij, so each nonzero off-diagonal X_ij gives E_ij,
    and E_ij E_jk = E_ik gives every E_ik when the graph of those entries
    (an edge i -> j for each) is strongly connected.  The algebra is then
    all (r-1) x (r-1) matrices: dimension (r-1)**2, commutant the scalars
    by Schur, and every nonzero vector cyclic.  Both tests are exact;
    distinctness is the size of a set, as CycScalar hashes agree with ==.

    The certificate holds for every r >= 2: Y = diag(2cos(pi j/r)),
    j = 1..r-1, has distinct entries since cos decreases on (0, pi), and X
    sends zeta_j to zeta_{j-1} + zeta_{j+1} with zeta_0 = zeta_r = 0, the
    path 1 - 2 - ... - (r-1) in both directions.  So the check raises
    ArithmeticError only if the arithmetic is broken.
    """
    n = r - 1
    if not _spans_matrix_units(*_generators(r)):
        raise ArithmeticError(f"the cosine generators at r = {r} fail the matrix-unit certificate")
    return {
        "r": r,
        "cyclic": [True] * n,
        "all_cyclic": True,
        "algebra_dimension": n * n,
        "commutant_dimension": 1,
    }


def _spans_matrix_units(x, y):
    """True when y is diagonal with distinct entries and x's off-diagonal graph is strongly connected."""
    n = len(y)
    if any(y[i][j] for i in range(n) for j in range(n) if i != j):
        return False
    if len({row[i] for i, row in enumerate(y)}) < n:
        return False
    return _reaches_all(n, lambda i, j: x[i][j]) and _reaches_all(n, lambda i, j: x[j][i])


def _reaches_all(n, edge):
    """True when every node in range(n) is reachable from node 0 along edges i -> j with edge(i, j) true."""
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and edge(i, j):
                seen.add(j)
                stack.append(j)
    return len(seen) == n


__all__ = [
    "CosObservable",
    "zeta_fold",
    "weyl_cos_matrix",
    "wilson_decompose",
    "wilson_cos_matrix",
    "equivalence_check",
    "svn_irreducibility",
]
