"""The integer and finite Heisenberg groups and their theta-basis action.

The group H(Z) has elements (p, q, k) with multiplication

    (p,q,k)(p',q',k') = (p+p', q+q', k+k' + (pq'-qp')),

and for even N the finite quotient H(Z_N) acts on the N theta basis
vectors through

    (p,q,k) . theta_j = t^{k - pq - 2jq} theta_{j+p},   t = exp(i*pi/N).

The discrete Fourier transforms rho(h), h in SL(2,Z), intertwine this
action with the mapping-class-group action on exponentials.  rho is
generated by

    rho(S) = N^{-1/2} [t^{2jk}]_{jk},     rho(T) = diag(t^{-j^2}),

whose conjugation actions on the (p,q)-labels are S itself and the
transpose of T.  That pairing is forced: the twist skein that solves the
intertwining equation (1,1) F(T) = F(T) (1,0) has coefficients t^{j^2}
on (0,j) and represents as diag(t^{-j^2}) up to a Gauss-sum scalar, and
no diagonal operator can intertwine the untransposed column action of T.
The transforms take words over {S, T}, as sl2z_decompose writes them.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .scalar import Combination, CycScalar, embed_matrix, t_power
from . import linalg
from .sl2z import S, T, SL2Z, check_word, word_product


class HeisElt(NamedTuple):
    """Element (p, q, k) of the integer Heisenberg group."""

    p: int
    q: int
    k: int


def heis_mul(x: HeisElt, y: HeisElt) -> HeisElt:
    return HeisElt(x.p + y.p, x.q + y.q, x.k + y.k + (x.p * y.q - x.q * y.p))


class FiniteHeisElt(NamedTuple):
    """Canonical representative in H(Z_N): p, q in [0,N), k in [0,2N)."""

    N: int
    p: int
    q: int
    k: int


def heis_reduce(x: HeisElt, N: int) -> FiniteHeisElt:
    """Canonical form in the quotient by {(p,q,k)^N, k even}.

    Reducing p or q by N needs a compensating k shift; plain
    componentwise reduction would break the homomorphism property.
    """
    _field_order(N)
    p, q, k = x
    dp, p = divmod(p, N)
    k -= N * q * dp
    dq, q = divmod(q, N)
    k += N * p * dq
    return FiniteHeisElt(N, p, q, k % (2 * N))


def finite_mul(x: FiniteHeisElt, y: FiniteHeisElt) -> FiniteHeisElt:
    if x.N != y.N:
        raise ValueError("mixed moduli")
    return heis_reduce(heis_mul(HeisElt(x.p, x.q, x.k), HeisElt(y.p, y.q, y.k)), x.N)


def _field_order(N: int) -> int:
    """The order r with CycScalar(r) = Q(zeta_{2N}), t = exp(i*pi/N): N // 2 for an even integer N >= 2."""
    if not isinstance(N, int) or N % 2 or N < 2:
        raise ValueError(f"N must be an even integer >= 2, not {N!r}")
    return N // 2


def t_heis(N: int, e: int) -> CycScalar:
    """t^e with t = exp(i*pi/N), as an exact cyclotomic scalar."""
    return t_power(_field_order(N), e)


def schrodinger_matrix(e: FiniteHeisElt):
    """N x N matrix of (p,q,k): theta_j -> t^{k-pq-2jq} theta_{j+p}.

    That is the group-algebra action of t^k b(p,q).
    """
    return algebra_rep(HeisAlgElt.basis(e.N, e.p, e.q, t_heis(e.N, e.k)))


class HeisAlgElt(Combination):
    """Element of the N-th Heisenberg group algebra on basis b(p,q).

    The base is N.  Coefficients are exact scalars in Q(zeta_{2N}); the
    central generator acts as the scalar t, so the product
    b(p,q) b(p',q') = t^{pq'-qp'} b(p+p',q+q') folds the cocycle into a
    power of t.  A key (p,q) outside [0,N)^2 is the group element
    (p,q,0), reduced by heis_reduce: its k shift becomes a coefficient
    factor t^k, and keys that meet are summed.
    """

    _MIXED = "mixed moduli"

    def __init__(self, N: int, terms=()):
        _field_order(N)
        super().__init__(N, terms)

    @classmethod
    def basis(cls, N, p, q, coeff=None):
        c = coeff if coeff is not None else CycScalar.one(_field_order(N))
        return cls(N, {(p, q): c})

    def _coefficient_order(self):
        return self.base // 2

    def _fold(self, key):
        N = self.base
        if 0 <= key[0] < N and 0 <= key[1] < N:
            return key, 1
        _, p, q, k = heis_reduce(HeisElt(*key, 0), N)
        return (p, q), t_heis(N, k)

    def _basis_mul(self, key1, key2):
        (p, q), (a, b) = key1, key2
        return (((p + a, q + b), t_heis(self.base, p * b - q * a)),)


def algebra_rep(x: HeisAlgElt):
    """Linear extension of the theta-basis action to the group algebra."""
    N = x.base
    r = _field_order(N)
    zero = CycScalar.zero(r)
    mat = [[zero] * N for _ in range(N)]
    for (p, q), c in x.terms.items():
        c = CycScalar.coerce(c, r)
        for j in range(N):
            i = (j + p) % N
            term = c.times_root(-p * q - 2 * j * q)
            entry = mat[i][j]
            mat[i][j] = term if entry is zero else entry + term
    return mat


def nctorus_convert(e: HeisElt):
    """(p,q,k) as the noncommutative-torus monomial t^{k-pq} U^p V^q."""
    return (e.p, e.q), e.k - e.p * e.q


def nctorus_convert_inverse(exponents, laurent_power):
    p, q = exponents
    return HeisElt(p, q, laurent_power + p * q)


def mcg_action_abelian(h: SL2Z, e: HeisElt) -> HeisElt:
    """Column action of SL(2,Z) on homology labels: (p,q,k) -> (ap+bq, cp+dq, k)."""
    h.check()
    p, q = h.apply(e.p, e.q)
    return HeisElt(p, q, e.k)


# The conjugation action of rho on quantized exponentials.  On the
# generators it is S -> S and T -> transpose(T); words multiply through.
_OBS_IMAGE = {"S": S, "T": T.transpose()}


def observable_action_matrix(word) -> SL2Z:
    return word_product(word, _OBS_IMAGE)


# -- discrete Fourier transforms --------------------------------------------

def fourier_word_exact(word, N: int):
    """Exact-part product for a word; overall positive scalars are dropped.

    F = [t^{2jk}] squares to N times the parity permutation P: j -> -j, so
    S^e is F^{e mod 2} P^{|e|//2} (F conjugated for e < 0), P reversing the
    columns; T^e multiplies once by diag(t^{-e j^2}).

    The last product is kept: a second call on the same word and N, as
    after fourier_abelian, multiplies nothing.  The matrix returned has
    fresh rows.
    """
    return [list(row) for row in _fourier_word_product(check_word(word), N)]


@functools.lru_cache(maxsize=1, typed=True)
def _fourier_word_product(word, N):
    """fourier_word_exact of a checked word, as a tuple of row tuples."""
    r = _field_order(N)
    zero = CycScalar.zero(r)
    out = linalg.mat_identity(N, CycScalar.one(r))
    for letter, exp in word:
        if letter == "S":
            if exp % 2:
                sign = 1 if exp > 0 else -1
                out = linalg.mat_mul(out, [[t_heis(N, sign * 2 * j * k) for k in range(N)] for j in range(N)])
            if abs(exp) // 2 % 2:
                out = [[row[-j % N] for j in range(N)] for row in out]
        else:
            diag = [[t_heis(N, -exp * j * j) if i == j else zero for j in range(N)] for i in range(N)]
            out = linalg.mat_mul(out, diag)
    return tuple(map(tuple, out))


def fourier_abelian(word, N: int):
    """Unitary rho(word) as an mpmath matrix (list of rows).

    It conjugates the theta-basis action of b(p,q) to that of
    observable_action_matrix(word) applied to (p,q).  It is N^{-s/2} times
    the embedding of fourier_word_exact, s the number of S letters of odd
    exponent; embed_matrix forms N^{-s/2} from the exact N^s.
    """
    s_count = sum(1 for letter, exp in word if letter == "S" and exp % 2)
    return embed_matrix(fourier_word_exact(word, N), N ** s_count)


def f_of_t_skein(N: int) -> HeisAlgElt:
    """The twist skein sum_j t^{j^2} b(0,j); unit norm needs a 1/sqrt(N) factor.

    Its theta-basis representation is a Gauss-sum multiple of diag(t^{-j^2}),
    i.e. of fourier_abelian([("T", 1)], N).
    """
    return HeisAlgElt(N, {(0, j): t_heis(N, j * j) for j in range(N)})


def twist_skein_solve(N: int) -> HeisAlgElt:
    """Solve (1,1) F = F (1,0) for F supported on b(0,j), normalized c_0 = 1.

    Recovers the t^{j^2} coefficients of f_of_t_skein from the
    intertwining equation alone.
    """
    r = _field_order(N)
    one = CycScalar.one(r)
    left = HeisAlgElt.basis(N, 1, 1)
    right = HeisAlgElt.basis(N, 1, 0)
    # b(1,1) b(0,j) = u_j b(1, j+1) and b(0,j) b(1,0) = v_j b(1, j)
    u, v = {}, {}
    for j in range(N):
        prod = left * HeisAlgElt.basis(N, 0, j)
        ((key, coeff),) = prod.terms.items()
        u[(key[1] - 1) % N] = coeff
        prod = HeisAlgElt.basis(N, 0, j) * right
        ((key, coeff),) = prod.terms.items()
        v[key[1]] = coeff
    c = {0: one}
    for m in range(1, N):
        # coefficient match on b(1, m): c_{m-1} u_{m-1} = c_m v_m
        c[m] = c[m - 1] * u[m - 1] / v[m]
    # closure of the cyclic system
    if c[N - 1] * u[N - 1] != c[0] * v[0]:
        raise ArithmeticError("twist constraint system is inconsistent")
    return HeisAlgElt(N, {(0, j): c[j] for j in range(N)})


def matrix_to_heisenberg(mat, N: int) -> HeisAlgElt:
    """Exact coefficients c(p,q) with sum c(p,q) rep(b(p,q)) = mat.

    Inverts the character sum on each shift diagonal:
    c(p,q) = t^{pq} N^{-1} sum_j t^{2jq} mat[j+p, j].
    """
    r = _field_order(N)
    if len(mat) != N or any(len(row) != N for row in mat):
        raise ValueError("matrix size does not match N")
    if linalg.matrix_order(mat) != r:
        raise ValueError(f"matrix_to_heisenberg needs entries of order r={r}")
    terms = {}
    for p in range(N):
        diag = [mat[(j + p) % N][j] for j in range(N)]
        for q in range(N):
            acc = CycScalar.zero(r)
            for j in range(N):
                if diag[j]:
                    acc = acc + diag[j].times_root(2 * j * q)
            if acc:
                terms[(p, q)] = acc.times_root(p * q) / N
    return HeisAlgElt(N, terms)


# -- Maslov index and the Z-extension ----------------------------------------

class LagrangianLine(NamedTuple):
    """A line in the plane spanned by a primitive integer vector."""

    a: int
    b: int

    @classmethod
    def of(cls, a, b):
        if a == 0 and b == 0:
            raise ValueError("a Lagrangian line needs a nonzero direction")
        g = math.gcd(abs(a), abs(b))
        a, b = a // g, b // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        return cls(a, b)

    def apply(self, h: SL2Z):
        return LagrangianLine.of(*h.apply(self.a, self.b))


def _symp(u, v):
    return u[0] * v[1] - v[0] * u[1]


def maslov(l1: LagrangianLine, l2: LagrangianLine, l3: LagrangianLine) -> int:
    """Signature of Q(x) = w12 x1 x2 + w23 x2 x3 + w31 x3 x1 on l1+l2+l3.

    The doubled symmetric matrix [[0,w12,w31],[w12,0,w23],[w31,w23,0]] has
    characteristic polynomial x^3 - (w12^2+w23^2+w31^2) x - 2 w12 w23 w31,
    all roots real; positive/negative root counts come from Descartes'
    rule applied exactly.
    """
    w12 = _symp(l1, l2)
    w23 = _symp(l2, l3)
    w31 = _symp(l3, l1)
    s = w12 * w12 + w23 * w23 + w31 * w31
    p = 2 * w12 * w23 * w31
    pos = _sign_changes([1, 0, -s, -p])
    neg = _sign_changes([-1, 0, s, -p])
    return pos - neg


def _sign_changes(coeffs):
    signs = [c for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))


def extended_compose(first, second, line: LagrangianLine):
    """((h',n') o (h,n)) in the Z-extension with the Maslov cocycle.

    The cocycle is tau(L, h'(L), h'h(L)); taking h(L) as the middle line
    instead fails the cocycle identity, hence associativity, on words of
    length three.
    """
    h2, n2 = first
    h1, n1 = second
    h2.check()
    h1.check()
    tau = maslov(line, line.apply(h2), line.apply(h2 * h1))
    return (h2 * h1, n1 + n2 - tau)


__all__ = [
    "HeisElt",
    "FiniteHeisElt",
    "HeisAlgElt",
    "LagrangianLine",
    "heis_mul",
    "heis_reduce",
    "finite_mul",
    "schrodinger_matrix",
    "algebra_rep",
    "nctorus_convert",
    "nctorus_convert_inverse",
    "mcg_action_abelian",
    "observable_action_matrix",
    "fourier_abelian",
    "fourier_word_exact",
    "f_of_t_skein",
    "twist_skein_solve",
    "matrix_to_heisenberg",
    "maslov",
    "extended_compose",
]
