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
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from . import linalg
from .scalar import CycScalar, prime_root, t_power


class CosObservable(NamedTuple):
    """The function 2cos 2pi(px+qy); (p,q) and (-p,-q) are the same one."""

    p: int
    q: int


def zeta_fold(j: int, r: int):
    """(sign, index) with zeta_j = sign * zeta_index, index in [1, r-1]."""
    m = j % (2 * r)
    if m == 0 or m == r:
        return 0, None
    if m < r:
        return 1, m
    return -1, 2 * r - m


def weyl_cos_matrix(obs, r: int):
    """Matrix of Op(2cos 2pi(px+qy)) on the zeta basis."""
    if r < 2:
        raise ValueError("r must be >= 2")
    p, q = obs
    n = r - 1
    zero = CycScalar.zero(r)
    mat = [[zero] * n for _ in range(n)]
    for j in range(1, r):
        for target, phase in ((j - p, 2 * q * j), (j + p, -2 * q * j)):
            sign, idx = zeta_fold(target, r)
            if sign:
                # a fold sign of -1 is the factor t^{2r}
                exponent = phase - p * q if sign > 0 else phase - p * q + 2 * r
                mat[idx - 1][j - 1] = mat[idx - 1][j - 1] + t_power(r, exponent)
    return mat


@dataclass(frozen=True)
class WilsonCombination:
    """W_{gamma,n} written in the cosine basis: sum of cosines plus a constant."""

    cosines: tuple
    constant: int


def wilson_decompose(p: int, q: int, n: int) -> WilsonCombination:
    """Expand the n-dimensional Wilson line of the primitive curve (p,q).

    sin(n u)/sin(u) = sum over m = n-1, n-3, ... of 2cos(m u), the m = 0
    term contributing 1; here u = 2pi(px+qy).
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
    return WilsonCombination(tuple(cosines), constant)


def wilson_cos_matrix(p: int, q: int, n: int, r: int):
    """W_{gamma,n} recomposed through the cosine quantization."""
    comb = wilson_decompose(p, q, n)
    size = r - 1
    acc = [[CycScalar.zero(r)] * size for _ in range(size)]
    for obs in comb.cosines:
        acc = linalg.mat_add(acc, weyl_cos_matrix(obs, r))
    if comb.constant:
        acc = linalg.mat_add(
            acc,
            linalg.mat_scale(
                CycScalar.from_int(comb.constant, r),
                linalg.mat_identity(size, CycScalar.one(r)),
            ),
        )
    return acc


def equivalence_check(r: int):
    """Compare the cosine quantization with the skein-algebra matrices.

    The two models share the ordered basis (zeta_j matches V^j), so the
    unitary equivalence is the identity: the matrices must agree exactly
    for every (p,q) with |p|, |q| <= 3r, (6r+1)^2 pairs: wider than 4r,
    the period of both operators in p and in q.  The Weyl side folds its
    indices with its own zeta_fold, not the skein side's index_fold, so
    the two sides share no code.
    """
    from .rt_torus import rt_rep_matrix

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


def _spin(gens, start, act, flat, dim, span):
    """span fed with flat(w(start)) over the words w in gens, g acting by act(g, m).

    Breadth first: each round applies every generator to the elements the
    previous round added, so an element that enlarged nothing is never
    expanded.  It returns as soon as the rank reaches dim: a full span
    cannot grow, so the stop is exact.
    """
    span.add(flat(start))
    frontier = [start]
    while frontier and span.rank < dim:
        new = []
        for m in frontier:
            for g in gens:
                cand = act(g, m)
                if span.add(flat(cand)):
                    if span.rank == dim:
                        return span
                    new.append(cand)
        frontier = new
    return span


def _generators(r):
    """Op(2cos 2pi x) and Op(2cos 2pi y), which generate the cosine algebra."""
    return [weyl_cos_matrix(CosObservable(1, 0), r), weyl_cos_matrix(CosObservable(0, 1), r)]


def generated_algebra_span(r: int):
    """Exact RowSpan of words in the two generating cosine operators."""
    ident = linalg.mat_identity(r - 1, CycScalar.one(r))
    return _spin(_generators(r), ident, linalg.mat_mul, linalg.flatten, (r - 1) ** 2, linalg.RowSpan())


def svn_irreducibility(r: int):
    """Cyclic-vector and commutant evidence for irreducibility.

    Every standard basis vector must generate the whole space under the
    algebra spanned by the two generating cosine operators, the span of
    that algebra must be everything, and its commutant must be scalars.

    The three ranks are first taken over F_p, p the first prime above
    2**20 with p = 1 (mod 4r), through the residue map zeta -> w of
    prime_root.  That map is a ring homomorphism, so images of products
    are products of images and a rank over F_p is at most the exact
    rank.  Hence full rank (r-1)**2 of the algebra words mod p proves the
    algebra dimension, rank r-1 mod p proves a vector cyclic, and nullity
    1 mod p proves the commutant is the scalars, since the identity
    always commutes.  A shortfall proves nothing: the next such prime is
    tried, and then the exact ranks over Q(zeta_4r) decide.  So a false
    report only ever comes from the exact ranks.
    """
    n = r - 1
    gens = _generators(r)
    p = 1 << 20
    for _ in range(2):
        p, w = prime_root(r, p)
        report = _svn_mod_p(r, gens, p, w)
        proved = report["algebra_dimension"] == n * n and report["commutant_dimension"] == 1
        if proved and report["all_cyclic"]:
            return report
    return _svn_report(r, gens, CycScalar.zero(r), linalg.RowSpan, linalg.mat_mul, linalg.mat_vec)


def _svn_mod_p(r, gens, p, w):
    """The svn_irreducibility report with every rank taken over F_p, zeta -> w."""
    return _svn_report(
        r,
        [[[x.residue(p, w) for x in row] for row in g] for g in gens],
        0,
        lambda: linalg.ModSpan(p),
        lambda a, b: linalg.mat_mul_mod(a, b, p),
        lambda a, v: linalg.mat_vec_mod(a, v, p),
    )


def _svn_report(r, gens, zero, new_span, mat_mul, mat_vec):
    """The svn_irreducibility report over the field of the entries of gens.

    zero is that field's zero, new_span() an empty span over it, and
    mat_mul, mat_vec its products.
    """
    n = r - 1
    ident = linalg.mat_identity(n, zero + 1)
    cyclic = [_spin(gens, e, mat_vec, list, n, new_span()).rank == n for e in ident]
    return {
        "r": r,
        "cyclic": cyclic,
        "all_cyclic": all(cyclic),
        "algebra_dimension": _spin(gens, ident, mat_mul, linalg.flatten, n * n, new_span()).rank,
        "commutant_dimension": _commutant_dimension(gens, n, zero, new_span()),
    }


def _commutant_dimension(gens, n, zero, rows):
    """Nullity of the commutation equations [G, X] = 0, fed to the empty span rows."""
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


__all__ = [
    "CosObservable",
    "WilsonCombination",
    "zeta_fold",
    "weyl_cos_matrix",
    "wilson_decompose",
    "wilson_cos_matrix",
    "equivalence_check",
    "svn_irreducibility",
    "generated_algebra_span",
]
