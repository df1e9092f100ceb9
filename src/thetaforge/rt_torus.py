"""The skein algebra of the torus and its mapping-class-group transforms.

Basis curves (p,q)_T (gcd-many parallel copies of a primitive curve,
colored by the Chebyshev T of the core) multiply by the product-to-sum
rule

    (p,q)_T (p',q')_T = t^{pq'-p'q} (p+p',q+q')_T + t^{-(pq'-p'q)} (p-p',q-q')_T,

at generic t or at t = exp(i*pi/2r).  T_0 = 2, so (0,0)_T is two empty
skeins and the empty skein, the unit, is 1/2 (0,0)_T; the rule needs no
separate unit.  At a root of unity the algebra acts on the solid-torus
module with basis V^1(a), ..., V^{r-1}(a):

    (p,q)_T . V^j = t^{-pq} (t^{2qj} V^{j-p} + t^{-2qj} V^{j+p}),

indices folded by V^r = 0, V^{r+j} = -V^{r-j}, V^{j+2r} = V^j.  The
S and T transforms are rho(S) = eta [jk] (the Hopf-pairing Gram matrix,
eta = (sum [j]^2)^{-1/2}) and rho(T) = diag(t^{j^2-1}).  Everything is
computed in the cyclotomic field, with eta^{-2} = eta_inverse_square(r)
exact; the numeric transforms embed the exact products, and
scalar.embed_matrix forms the real factor eta^s from eta^{-2s}.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import linalg
from .scalar import (
    Combination,
    CycScalar,
    LaurentPoly,
    chebyshev_s,
    check_order,
    embed_matrix,
    eta_inverse_square,
    gauss_sum,
    index_fold,
    qint,
    t_power,
    t_powers,
)
from .sl2z import SL2Z, check_word, sl2z_decompose

GENERIC = "generic"


def _canonical_curve(p: int, q: int):
    """(p,q) ~ (-p,-q); canonical has p > 0, or p = 0 and q > 0."""
    if p < 0 or (p == 0 and q < 0):
        return -p, -q
    return p, q


class TorusSkein(Combination):
    """Formal combination of curve classes (p,q)_T, keyed by _canonical_curve.

    The base is the mode: GENERIC (coefficients: Laurent polynomials in t)
    or an integer r >= 2 (coefficients: CycScalar at t = zeta_{4r}).
    Products follow the product-to-sum rule.  (0,0)_T is T_0 = 2 empty
    skeins, so the empty skein, the unit, is 1/2 (0,0)_T.
    """

    _MIXED = "mixed skein modes"

    def __init__(self, mode, terms=()):
        if mode != GENERIC and (not isinstance(mode, int) or mode < 2):
            raise ValueError("mode must be GENERIC or an integer r >= 2")
        super().__init__(mode, terms)

    def _coefficient_order(self):
        return None if self.base == GENERIC else self.base

    def _t(self, e):
        return LaurentPoly.t(e) if self.base == GENERIC else t_power(self.base, e)

    @classmethod
    def zero(cls, mode):
        return cls(mode)

    @classmethod
    def unit(cls, mode):
        """The empty skein, 1/2 (0,0)_T."""
        return cls.curve(0, 0, mode).scaled(Fraction(1, 2))

    @classmethod
    def curve(cls, p, q, mode):
        """The basis skein (p,q)_T."""
        zero = cls(mode)
        return zero._like({(p, q): zero._t(0)})

    def _fold(self, key):
        return _canonical_curve(*key), 1

    def _basis_mul(self, key1, key2):
        (p, q), (a, b) = key1, key2
        det = p * b - a * q
        return ((p + a, q + b), self._t(det)), ((p - a, q - b), self._t(-det))


# -- the solid-torus module ---------------------------------------------------

def project_solid_torus(s: TorusSkein):
    """Image of a skein under gluing the cylinder to the solid torus.

    On basis curves, pi((p,q)_T) = t^{-pq} (t^{-2q} S_p(a) - t^{2q} S_{p-2}(a)),
    the multiplication of (p,q)_T into the empty solid torus V^1: column
    V^1 of rt_rep_matrix, as a tuple over V^1(a), ..., V^{r-1}(a).  The
    order r is s.base.
    """
    if s.base == GENERIC:
        raise ValueError("projection needs a reduced skein")
    return tuple(row[0] for row in rt_rep_matrix(s, s.base))


@functools.lru_cache(maxsize=None)
def _fold_table(r: int):
    """index_fold of every m in [0, 3r) as (row, shift): V^m = t^shift V^(row+1),
    the fold sign -1 being the factor t^{2r}; None where V^m = 0.

    The fold has period 2r, so a residue below 2r plus a column below r
    indexes the table with no further reduction.
    """
    out = []
    for m in range(3 * r):
        sign, idx = index_fold(m, r)
        out.append((idx - 1, 0 if sign > 0 else 2 * r) if sign else None)
    return tuple(out)


def rt_rep_matrix(s, r: int):
    """Matrix of left multiplication on the solid-torus module.

    Accepts a TorusSkein or a bare (p, q) pair, the basis curve (p,q)_T.
    Column j (for V^j) of a basis curve is t^{-pq} (t^{2qj} V^{j-p} +
    t^{-2qj} V^{j+p}), folded by _fold_table.

    A pair writes the shared t_powers instances into the matrix, and adds
    the two when both targets of a column fold to one entry (p = 0 mod r),
    so equivalence_check's mat_eq passes most entries by identity.  A
    skein lists each entry's terms (curve index, exponent mod 4r) and
    evaluates them all against its coefficient vector by
    linalg.shift_sums: one common-denominator pack, then one shifted sum,
    unpack and reduction per entry of two or more terms, in place of one
    times_root and one CycScalar addition per term.  Pairs keep their own
    loop: through shift_sums a cold equivalence_check took twice as long
    (16.8 -> 31.4 ms at r = 6, 60 -> 120 ms at r = 10).
    """
    if isinstance(s, tuple):
        check_order(r)
    elif s.base == GENERIC or s.base != r:
        raise ValueError("representation needs matching reduced mode")
    n, period = r - 1, 4 * r
    fold = _fold_table(r)
    if isinstance(s, tuple):
        p, q = _canonical_curve(*s)
        pq = p * q
        down, up = (1 - p) % (2 * r), (1 + p) % (2 * r)
        zero, roots = CycScalar.zero(r), t_powers(r)
        mat = [[zero] * n for _ in range(n)]
        for col in range(n):
            phase = 2 * q * (col + 1)
            target = fold[down + col]  # V^{j-p}
            if target is not None:
                row, shift = target
                mat[row][col] = roots[(phase - pq + shift) % period]
            target = fold[up + col]  # V^{j+p}
            if target is not None:
                row, shift = target
                term = roots[(shift - phase - pq) % period]
                entry = mat[row][col]
                mat[row][col] = term if entry is zero else entry + term
        return mat
    lines = [[] for _ in range(n * n)]  # the terms of entry (row, col) at row * n + col
    coeffs = []
    for index, ((p, q), c) in enumerate(s.terms.items()):
        coeffs.append(CycScalar.coerce(c, r))
        pq = p * q
        down, up = (1 - p) % (2 * r), (1 + p) % (2 * r)
        for col in range(n):
            phase = 2 * q * (col + 1)
            target = fold[down + col]
            if target is not None:
                row, shift = target
                lines[row * n + col].append((index, (phase - pq + shift) % period))
            target = fold[up + col]
            if target is not None:
                row, shift = target
                lines[row * n + col].append((index, (shift - phase - pq) % period))
    entries = [x for (x,) in linalg.shift_sums(lines, [coeffs], None, r)]
    return [entries[i : i + n] for i in range(0, n * n, n)]


def wilson_matrix(p: int, q: int, n: int, r: int):
    """Operator of the holonomy trace along primitive (p,q) in dimension n.

    The operator of the skein S_{n-1}((p,q)_T).  Its eigenvalues are
    sin(pi nj/r) / sin(pi j/r), so it folds in n like V^n: it is sign times
    the operator at idx < r, (sign, idx) = index_fold(n, r), and its cost
    does not grow with n.  pillowcase.wilson_cos_matrix does not fold.
    """
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("(p,q) must be coprime; parallel copies are the basis curve (p,q)_T")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    sign, idx = index_fold(n, r)
    if not sign:
        return rt_rep_matrix(TorusSkein.zero(r), r)
    skein = chebyshev_s(TorusSkein.curve(p, q, r), TorusSkein.unit(r), idx)[-1]
    return rt_rep_matrix(skein.scaled(sign), r)


# -- modular data -------------------------------------------------------------

def hopf_gram(r: int):
    """Gram matrix [jk] of the Hopf pairing on V^1..V^{r-1}."""
    check_order(r)
    return [[qint(j * k, r) for k in range(1, r)] for j in range(1, r)]


def omega_su2(r: int):
    """The surgery-curve color eta * sum_j [j] V^j, numeric, as a tuple over V^1..V^{r-1}."""
    (coeffs,) = embed_matrix([quantum_dimension_vector(r)], eta_inverse_square(r))
    return tuple(coeffs)


def quantum_dimension_vector(r: int):
    check_order(r)
    return [qint(j, r) for j in range(1, r)]


def _twist_diag(r: int, e: int):
    """diag(t^{e(j^2 - 1)}), j = 1..r-1: rho(T)^e."""
    zero = CycScalar.zero(r)
    return [
        [t_power(r, e * (j * j - 1)) if i == j - 1 else zero for j in range(1, r)]
        for i in range(r - 1)
    ]


def rho_word_exact(word, r: int):
    """(matrix, s_count): exact part of the word product; true value is
    eta^s_count times the matrix.  The Gram matrix squares to
    eta_inverse_square(r) I, so rho(S)^2 = I: S^e is S^{e mod 2}.

    The last product is kept: a second call on the same word and r, as
    rho_kac_peterson makes for its reference after a caller's own product,
    multiplies nothing.  The matrix returned has fresh rows.  ValueError
    for an r that is not an integer >= 2.
    """
    check_order(r)
    mat, s_count = _rho_word_product(check_word(word), r)
    return [list(row) for row in mat], s_count


@functools.lru_cache(maxsize=1, typed=True)
def _rho_word_product(word, r):
    """rho_word_exact of a checked word, its matrix as a tuple of row tuples."""
    out = linalg.mat_identity(r - 1, CycScalar.one(r))
    s_count = 0
    gram = hopf_gram(r)
    for letter, exp in word:
        if letter == "S":
            if exp % 2:
                out = linalg.mat_mul(out, gram)
                s_count += 1
        else:
            out = linalg.mat_mul(out, _twist_diag(r, exp))
    return tuple(map(tuple, out)), s_count


def rho_word(word, r: int):
    """Numeric ordered product of generator transforms: the embedding of
    rho_word_exact times eta^s_count = eta_inverse_square(r)^(-s_count/2)."""
    exact, s_count = rho_word_exact(word, r)
    return embed_matrix(exact, eta_inverse_square(r) ** s_count)


def curve_transform(h: SL2Z, p: int, q: int):
    """Image of the unoriented curve (p,q) under the transform of h.

    Conjugating the curve operator by rho(h) relabels (p,q) by the
    inverse transpose of h (canonicalized up to total sign); on the
    generators: S rotates (p,q) -> (q,-p), T sends (1,0) -> (1,-1) and
    fixes (0,1).
    """
    return _canonical_curve(*h.check().inverse_transpose().apply(p, q))


def f_of_twist_solve(r: int):
    """Solve sum_j [kj] c_j = [k] t^{-k^2} for the twist coefficients.

    The Gram matrix inverts to (sum [j]^2)^{-1} times itself, so
    c_j = gauss_sum(j, r) / sum [j]^2, and c is checked to be exactly
    proportional to ([j] t^{j^2})_j before returning (one division).
    """
    norm = eta_inverse_square(r).inverse()
    c = [gauss_sum(j, r) * norm for j in range(1, r)]
    shape = [qint(j, r) * t_power(r, j * j) for j in range(1, r)]
    if _exact_proportionality([c], [shape], r) is None:
        raise ArithmeticError("twist coefficients do not follow [j] t^{j^2}")
    return c


def twist_skein_matrix(r: int):
    """Representation of sum_j c_j S_{j-1}((0,1)_T) for the solved twist."""
    c = f_of_twist_solve(r)
    cheb = chebyshev_s(TorusSkein.curve(0, 1, r), TorusSkein.unit(r), r - 1)[1:]
    return rt_rep_matrix(sum((s.scaled(cj) for cj, s in zip(c, cheb)), TorusSkein.zero(r)), r)


# -- Kac-Peterson closed form -------------------------------------------------

class KacPeterson(NamedTuple):
    matrix: list  # exact CycScalar matrix, a constant multiple of rho(h)
    scalar: object  # numeric unit-modulus phase of that constant, an mpc
    window: str  # "integer" or "half-integer" summation lattice


def _kp_terms(a, b, c, d, r, start):
    """{(row, col): [e, ...]}: entry (row, col) of _kp_sum is the sum of t^e over its list.

    The terms are t^{cdk^2 + 2bckj + abj^2} zeta_{aj+ck}, j = col + 1,
    folded by _fold_table, over K = 2k in [start, 4r) in steps of 2:
    start 0 for the integer window (k over the residues mod 2r), start 1
    for the half-integer window k in Z + 1/2, which the caller takes only
    for even c.  The exponent is floor(cdK^2/4) + bcKj + abj^2: on the
    half-integer window the floor drops a uniform t^{1/2}, absorbed by the
    overall constant.  For c = 0 every k gives the same term, so one K
    stands for the sum (1/2r of it, the same ray).  Each e is in [0, 4r).
    """
    stop = 4 * r if c else start + 1
    period = 4 * r
    fold = _fold_table(r)
    terms = {}
    for col in range(r - 1):
        j = col + 1
        for K in range(start, stop, 2):
            target = fold[(a * j + c * K // 2) % (2 * r)]
            if target is not None:
                row, shift = target
                e = (c * d * K * K // 4 + b * c * K * j + a * b * j * j + shift) % period
                terms.setdefault((row, col), []).append(e)
    return terms


def _kp_sum(terms, r):
    """The closed-form sum as a dense matrix, from its _kp_terms."""
    n = r - 1
    zero, roots = CycScalar.zero(r), t_powers(r)
    mat = [[zero] * n for _ in range(n)]
    for (row, col), exponents in terms.items():
        entry = roots[exponents[0]]
        for e in exponents[1:]:
            entry = entry + roots[e]
        mat[row][col] = entry
    return mat


def _kp_norm(terms, r):
    """sum of x * conj(x) over the entries x of _kp_sum, from its _kp_terms.

    An entry sum_a t^{e_a} has x * conj(x) = sum_{a,b} t^{e_a - e_b}, so
    the whole sum is one count of exponent differences over 4r, reduced
    once: no coefficient products.
    """
    period = 4 * r
    counts = [0] * period
    for exponents in terms.values():
        for e in exponents:
            for f in exponents:
                counts[(e - f) % period] += 1
    return CycScalar(r, counts)


def rho_kac_peterson(h: SL2Z, r: int) -> KacPeterson:
    """Closed-form rho(h) up to a scalar, from the theta-transform sum.

    The sum is evaluated after swapping the diagonal entries of h: the
    closed form composes mapping classes in the opposite order from the
    generator products, and h -> [[d,b],[c,a]] is the word-reversal
    antiautomorphism reconciling the two.  The sum runs over the integer
    window.  Only if that sum vanishes (for even c, when the summand is
    ill-defined on the classes of ck) does it run over the half-integer
    window.  The result must be exactly proportional to the word product
    ref = eta^{-s} rho(h), mat = ratio * ref, and must have the Frobenius
    norm that unitarity of rho(h) implies, as the exact identity
    sum_ij mat_ij conj(mat_ij) = (r-1) ratio conj(ratio) eta_inverse_square(r)^s.
    Either failure raises ArithmeticError.  The reported phase is
    conj(ratio)/|ratio|: rho(h) = (eta^s / ratio) mat and eta > 0.
    """
    h.check()
    a, b, c, d = h.d, h.b, h.c, h.a  # word-reversal antiautomorphism
    ref, s_count = rho_word_exact(sl2z_decompose(h), r)
    window, terms = "integer", _kp_terms(a, b, c, d, r, 0)
    mat = _kp_sum(terms, r)
    if linalg.mat_is_zero(mat) and not c % 2:
        window, terms = "half-integer", _kp_terms(a, b, c, d, r, 1)
        mat = _kp_sum(terms, r)
    ratio = _exact_proportionality(mat, ref, r)
    if not ratio:
        raise ArithmeticError(
            f"closed form for {tuple(h)} is not proportional to the word product"
        )
    norm = ratio * ratio.conjugate()
    frob = _kp_norm(terms, r)
    if frob != norm * eta_inverse_square(r) ** s_count * (r - 1):
        raise ArithmeticError(f"word product for {tuple(h)} is not unitary up to scale")
    return KacPeterson(mat, embed_matrix([[ratio.conjugate()]], norm)[0][0], window)


def _exact_proportionality(m1, m2, r):
    """m1 = scalar * m2 exactly, for matrices of one shape? Returns the scalar or None."""
    pivot = next(((i, j) for i, row in enumerate(m2) for j, x in enumerate(row) if x), None)
    if pivot is None:
        return CycScalar.one(r) if linalg.mat_is_zero(m1) else None
    i, j = pivot
    scalar = m1[i][j] / m2[i][j]
    return scalar if linalg.mat_eq(m1, linalg.mat_scale(scalar, m2)) else None


# -- reconstruction and presentation ------------------------------------------

@functools.lru_cache(maxsize=None)
def _gap_product_inverses(r: int):
    """(1/prod_{i=1}^{b} (w^i - 1) for b = 0..r-1) with w = t^4, a primitive r-th root.

    The w^i, i = 1..r-1, are the roots of 1 + x + ... + x^{r-1}, whose
    value at x = 1 gives prod_{i=1}^{r-1} (1 - w^i) = r.  So entry b is
    (-1)^{r-1} prod_{i=b+1}^{r-1} (w^i - 1) / r: r - 2 exponent shifts
    and differences from b = r-1 down, and no field inverse.
    """
    sign_r = r if r % 2 else -r  # (-1)^{r-1} r
    tail = CycScalar.one(r)  # prod_{i=b+1}^{r-1} (w^i - 1), from b = r-1 down
    out = [tail / sign_r]
    for b in range(r - 1, 1, -1):
        tail = tail.times_root(4 * b) - tail
        out.append(tail / sign_r)
    return (CycScalar.one(r), *reversed(out))


@functools.lru_cache(maxsize=None)
def _chebyshev_span(r: int):
    """RowSpan of the level-0 rows (t^{2qj} + t^{-2qj})_j, q = 0..r-2.

    The span is shared by every call at this r, so callers only solve()
    against it; add() would change it for all of them.
    """
    span = linalg.RowSpan()
    for q in range(r - 1):
        span.add([t_power(r, 2 * q * j) + t_power(r, -2 * q * j) for j in range(1, r)])
    return span


def _newton_solve(values, p, r):
    """{k: c_k}, c_k nonzero, with sum_k c_k z_a^k = values[a-1] at z_a = t^{2p+4a}, a = 1..h.

    Newton divided differences, then Horner's P <- P (x - z_a) + d_a into
    the monomial basis (Bjorck and Pereyra, Math. Comp. 24, 1970).  The
    gap z_b - z_a is t^{2p+4a} (w^{b-a} - 1) with w = t^4, and column k
    divides every entry by the same w^k - 1 up to that shift, so the
    columns carry D_b = d_b prod_{i<=k} (w^i - 1): one difference and one
    exponent shift per entry.  Each final d_b is D_b times
    _gap_product_inverses(r)[b], h products in all, and multiplying by a
    node z_a is an exponent shift.
    """
    h = len(values)
    d = list(values)
    for k in range(1, h):
        for b in range(h - 1, k - 1, -1):
            d[b] = (d[b] - d[b - 1]).times_root(-2 * p - 4 * (b - k + 1))
    d = [c * s for c, s in zip(d, _gap_product_inverses(r))]
    coeffs = [d[-1]]
    for a in range(h - 1, 0, -1):
        shifted = [c.times_root(2 * p + 4 * a) for c in coeffs]
        coeffs = [
            d[a - 1] - shifted[0],
            *(c - s for c, s in zip(coeffs, shifted[1:])),
            coeffs[-1],
        ]
    return {k: c for k, c in enumerate(coeffs) if c}


def _solve_level(mat, p, r):
    """{q: c_q}, c_q nonzero, over the curves (p, q) of K(r) that give mat's shift-p entries.

    Level 0 solves against _chebyshev_span(r); a level p >= 1 interpolates
    its even and odd parts at the nodes t^{2p+4a}, a = 1..r-1-p, by
    _newton_solve.
    """
    if not p:
        return _chebyshev_span(r).solve([mat[j][j] for j in range(r - 1)])
    pairs = [(mat[a - 1][a + p - 1], mat[r - a - 1][r - p - a - 1]) for a in range(1, r - p)]
    even = _newton_solve([(u + d) / 2 for u, d in pairs], p, r)
    odd = _newton_solve(
        [((u - d) / 2).times_root(-p - 2 * a) for a, (u, d) in enumerate(pairs, 1)], p, r
    )
    return {2 * k: c for k, c in even.items()} | {2 * k + 1: c for k, c in odd.items()}


def skein_from_matrix(mat, r: int) -> TorusSkein:
    """The skein over the curve basis K(r) whose operator is mat.

    K(r) = {(0,q): q <= r-2} U {(p,q): 1 <= p <= r-2, q < 2(r-1-p)}.  Curve
    (p,q) fills the entries of shift |i-j| = p and folds the rest to lower
    shifts, so levels p = r-2, ..., 0 are solved in turn, each after the
    higher levels' operators are subtracted.  With h = r-1-p, y_a = t^{p+2a}
    and C(x) = sum_q c_q x^q, level p >= 1 reads C(y_a) at entry (a, a+p) and
    C(-y_a) at (r-a, r-p-a), a = 1..h (1-based): the even and odd parts of C
    solve one h x h Vandermonde system at z_a = t^{2p+4a}, distinct since t^4
    is a primitive r-th root and a < r.  Newton interpolation solves each
    part in O(h^2) scalar operations: h products by the cached per-r
    inverses 1/prod_{i<=b} (t^{4i} - 1), the rest exponent shifts and sums.
    Level 0 is the Chebyshev system sum_q c_q (t^{2qj} + t^{-2qj}) =
    mat[j][j] at the distinct nodes 2cos(pi j/r), solved against a RowSpan
    built once per r.  Every level is nonsingular, so K(r) is a basis; the
    exact zero residual after level 0 certifies the result.  mat is not
    modified.
    """
    n = r - 1
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError("matrix size must be (r-1) x (r-1)")
    if linalg.matrix_order(mat) != r:
        raise ValueError(f"skein_from_matrix needs entries of order r={r}")
    out, rest = TorusSkein.zero(r), mat
    for p in range(r - 2, -1, -1):
        level = TorusSkein(r, {(p, q): c for q, c in _solve_level(rest, p, r).items()})
        rest = linalg.mat_sub(rest, rt_rep_matrix(level, r))
        out = out + level
    if not linalg.mat_is_zero(rest):
        raise ArithmeticError("matrix escaped the curve-operator span")
    return out


def presentation_relations(mode):
    """The seven relations among X = (1,0)_T, Y = (0,1)_T, Z = (1,1)_T.

    Returns a list of (name, lhs - rhs) pairs, skeins in the given mode;
    each must be zero.  Relations 1-3 are one relation under the rotation
    X -> Y -> Z -> X, and relations 5-6 are one relation under X <-> Y.
    """
    X, Y, Z = (TorusSkein.curve(p, q, mode) for p, q in ((1, 0), (0, 1), (1, 1)))
    gen = {"X": X, "Y": Y, "Z": Z}
    one = TorusSkein.unit(mode)
    t = one._t
    rels = []
    for a, b, c in ("XYZ", "YZX", "ZXY"):
        A, B, C = gen[a], gen[b], gen[c]
        diff = (A * B).scaled(t(1)) - (B * A).scaled(t(-1)) - C.scaled(t(2) - t(-2))
        rels.append((f"t{a}{b} - t^{{-1}}{b}{a} = (t^2 - t^{{-2}}){c}", diff))
    rels.append(
        (
            "t^2X^2 + t^{-2}Y^2 + t^2Z^2 - tXYZ = 2t^2 + 2t^{-2}",
            (X * X).scaled(t(2))
            + (Y * Y).scaled(t(-2))
            + (Z * Z).scaled(t(2))
            - (X * Y * Z).scaled(t(1))
            - one.scaled(t(2) * 2 + t(-2) * 2),
        )
    )
    for a, b in ("XY", "YX"):
        A, B = gen[a], gen[b]
        diff = (B * A * B).scaled(t(2) + t(-2)) - A * B * B - B * B * A
        diff = diff - A.scaled(t(4) + t(-4) - t(0) * 2)
        rels.append((f"(t^2+t^{{-2}}){b}{a}{b} - ({a}{b}^2+{b}^2{a}) = (t^4+t^{{-4}}-2){a}", diff))
    rels.append(
        (
            "cubic relation in X, Y",
            (X * X).scaled(t(6) + t(-2) - t(2) * 2)
            + (Y * Y).scaled(t(-6) + t(2) - t(-2) * 2)
            + (X * Y * X * Y)
            + (Y * X * Y * X)
            - (Y * X * X * Y).scaled(t(2))
            - (X * Y * Y * X).scaled(t(-2))
            - one.scaled((t(6) + t(-6) - t(2) - t(-2)) * 2),
        )
    )
    return rels


def presentation_check(mode):
    """{name: holds} for the seven relations as skein identities in mode.

    mode is an order r >= 2 (t = zeta_{4r}) or GENERIC.  A relation holds
    when its skein lhs - rhs has no terms, which is stronger than a zero
    operator on the solid-torus module.
    """
    return {name: not diff.terms for name, diff in presentation_relations(mode)}


def presentation_check_generic():
    """The same relations as skein identities at generic t."""
    return presentation_check(GENERIC)


__all__ = [
    "GENERIC",
    "TorusSkein",
    "project_solid_torus",
    "rt_rep_matrix",
    "wilson_matrix",
    "hopf_gram",
    "omega_su2",
    "quantum_dimension_vector",
    "rho_word",
    "rho_word_exact",
    "curve_transform",
    "rho_kac_peterson",
    "f_of_twist_solve",
    "twist_skein_matrix",
    "skein_from_matrix",
    "presentation_check",
    "presentation_check_generic",
]
