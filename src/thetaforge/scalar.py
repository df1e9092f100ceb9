"""Exact arithmetic in the cyclotomic fields Q(zeta_{4r}).

The whole library works over the field generated by t = zeta_{4r} =
exp(i*pi/2r).  Elements are stored as integer coefficient vectors in the
power basis 1, zeta, ..., zeta^{phi(4r)-1} (reduced modulo the 4r-th
cyclotomic polynomial) over a single positive denominator, so equality
testing, inversion and linear algebra are exact.  A quotient by the
cyclotomic polynomial, rather than by x^{4r}-1, is essential: the former
is a field, the latter has zero divisors.  The constructor reduces and
normalizes; the constructors and operations whose result is already in
that form (zero, rationals by from_fraction, negation, shifts by roots
of unity, t_power, sums and differences over denominator 1) store it
directly.  Instances are immutable, so each order r keeps one shared
zero and one shared t^e for each e mod 4r: CycScalar.zero, CycScalar.one,
t_power and the table t_powers hand those out, x * 0 is the shared zero,
a product with a shared t^e (found by its identity) is the other
factor's times_root(e), a shift of a shared t^f is the shared t^{f+e},
and == answers True for one object without comparing coefficients.

Inverses and complex conjugates come from the Galois maps
zeta -> zeta^k.  The complex embedding is fixed point: one exact integer
dot product of the coefficients against a cached table of 2**F cos and
2**F sin of the root angles, then one rounding per part, with the error
bound stated on CycScalar.embed.

Also provided: check_order, the one test that an order r is an integer
>= 2, which the level-r constructions of every module run; quantized
integers [n]; the Gauss sums and eta_inverse_square = sum_j [j]^2, the
inverse square of the S-matrix normalization; Combination, the sparse
sum of basis elements that Laurent polynomials, torus skeins, Heisenberg
group-algebra elements and the fusion ring share; chebyshev_s, the
Chebyshev recurrence S_{n+1} = x S_n - S_{n-1} in any of these rings;
Laurent polynomials over Q for generic-parameter computations; and
ComplexAP, the parts of an embedded value (arithmetic goes through
to_mpc).
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from operator import add, mul, neg, sub
from typing import NamedTuple

import mpmath
from mpmath.libmp import from_rational, round_nearest

DEFAULT_PREC_BITS = 128
_FRAC_BITS = DEFAULT_PREC_BITS + 16


# ---------------------------------------------------------------------------
# integer polynomials (dense tuples, constant term first)
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return tuple(out)


def _divide_monic(n, d):
    """n / d by synthetic division, for a monic d; raises ArithmeticError on a remainder."""
    k = len(d) - 1
    tail = [(j, c) for j, c in enumerate(d[:k]) if c]
    rem = list(n)
    q = [0] * (len(n) - k)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = rem[i + k]
        if c:
            for j, dc in tail:
                rem[i + j] -= c * dc
    if any(rem[:k]):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(q)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(m: int):
    """Phi_m, constant term first: x^m - 1 divided by the monic Phi_d of each proper divisor d."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_monic(poly, cyclotomic_poly(d))
    return poly


@functools.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


@functools.lru_cache(maxsize=None)
def _reduction_data(m: int):
    """(degree, tail) with x^deg = sum(tc x^j for j, tc in tail) modulo Phi_m.

    tail lists only the nonzero terms (j, tc).
    """
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    return deg, tuple((j, -c) for j, c in enumerate(phi[:-1]) if c)


def _reduce_mod_cyclotomic(vec, m):
    """Reduce an integer coefficient list of length >= phi(m) in place modulo Phi_m."""
    deg, tail = _reduction_data(m)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j, tc in tail:
                vec[base + j] += c * tc
    del vec[deg:]
    return vec


@functools.lru_cache(maxsize=None)
def _root_powers(m: int):
    """(powers, exponent): powers[e] is the vector of zeta_m^e reduced modulo
    Phi_m, e < m, and exponent maps each of these vectors back to its e."""
    deg, _ = _reduction_data(m)
    vec = [1] + [0] * (deg - 1)
    powers = []
    for _ in range(m):
        powers.append(tuple(vec))
        vec = _reduce_mod_cyclotomic([0] + vec, m)
    return tuple(powers), {v: e for e, v in enumerate(powers)}


class CycScalar:
    """An exact element of Q(zeta_{4r}), zeta_{4r} = exp(i*pi/2r).

    Stored as an integer vector over a common positive denominator in the
    power basis modulo Phi_{4r}.  All arithmetic is exact; two elements are
    equal iff their normalized vectors agree.  Instances are immutable and
    safe to share between threads.
    """

    __slots__ = ("r", "num", "den")

    def __init__(self, r: int, num, den: int = 1):
        if r < 1:
            raise ValueError("order parameter r must be >= 1")
        self.r = r
        deg = euler_phi(4 * r)
        vec = list(num)
        if len(vec) > deg:
            vec = _reduce_mod_cyclotomic(vec, 4 * r)
        elif len(vec) < deg:
            vec = vec + [0] * (deg - len(vec))
        if den < 0:
            den = -den
            vec = [-c for c in vec]
        elif den == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(den, *vec) if den > 1 else 1
        if g > 1:
            vec = [c // g for c in vec]
            den //= g
        self.num = tuple(vec)
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, r):
        """The zero of order r, one shared instance per r."""
        return _zero(r)

    @classmethod
    def one(cls, r):
        """The one of order r, the shared t^0."""
        return t_powers(r)[0]

    @classmethod
    def from_fraction(cls, q, r):
        q = Fraction(q)
        vec = [0] * euler_phi(4 * r)
        vec[0] = q.numerator
        return _from_normalized(r, tuple(vec), q.denominator)

    @classmethod
    def coerce(cls, c, r):
        """c as an element of order r: an int or Fraction converts, another order raises."""
        if type(c) is not CycScalar:
            return cls.from_fraction(c, r)
        if c.r != r:
            raise ValueError(f"mixed cyclotomic orders r={c.r} and r={r}")
        return c

    # -- ring/field operations ---------------------------------------------

    def _check(self, other):
        if self.r != other.r:
            raise ValueError(f"mixed cyclotomic orders r={self.r} and r={other.r}")

    def __add__(self, other):
        if not isinstance(other, CycScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycScalar.from_fraction(other, self.r)
        self._check(other)
        da, db = self.den, other.den
        if da == db == 1:  # a sum of reduced integer vectors is reduced
            return _from_normalized(self.r, tuple([*map(add, self.num, other.num)]), 1)
        return CycScalar(
            self.r, [a * db + b * da for a, b in zip(self.num, other.num)], da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return _from_normalized(self.r, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, CycScalar):
            self._check(other)
            if self.den == other.den == 1:
                return _from_normalized(self.r, tuple([*map(sub, self.num, other.num)]), 1)
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented for an operand that is not rational

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _zero(self.r)
            n = other.numerator
            return CycScalar(self.r, tuple(c * n for c in self.num), self.den * other.denominator)
        if not isinstance(other, CycScalar):
            return NotImplemented
        self._check(other)
        e = _SHARED_ROOT_EXPONENT.get(id(other))
        if e is not None:
            return self.times_root(e)
        e = _SHARED_ROOT_EXPONENT.get(id(self))
        if e is not None:
            return other.times_root(e)
        prod = list(_poly_mul(self.num, other.num))
        _reduce_mod_cyclotomic(prod, 4 * self.r)
        return CycScalar(self.r, prod, self.den * other.den)

    __rmul__ = __mul__

    def times_root(self, e: int):
        """self * t^e by an exponent shift, with no coefficient products.

        A shared t^f (t_powers) gives the shared t^{f+e}.  Otherwise the
        coefficients rotate by e in Z[x]/(x^{2r} + 1), the wrapped part
        negated since t^{2r} = -1, and the rotation is reduced modulo
        Phi_{4r}, which divides x^{2r} + 1; when phi(4r) = 2r (r a power of
        two) the two are equal and the reduction leaves it.  t^e is a unit
        of Z[t], so the content and the denominator stay.  For e = 0 mod 4r,
        and for a zero self, it is self.
        """
        r = self.r
        f = _SHARED_ROOT_EXPONENT.get(id(self))
        if f is not None:
            return _ROOTS[r][(f + e) % (4 * r)]
        n = 2 * r
        e %= 2 * n
        num = self.num
        if not e or not any(num):
            return self
        cut = n - e % n
        vec = [*num, *[0] * (n - len(num))]
        if e < n:
            vec = [*map(neg, vec[cut:]), *vec[:cut]]
        else:
            vec = [*vec[cut:], *map(neg, vec[:cut])]
        return _from_normalized(r, tuple(_reduce_mod_cyclotomic(vec, 2 * n)), self.den)

    def root_exponent(self):
        """The e in [0, 4r) with self == t^e, or None if self is no power of t.

        A shared t^e is found by its identity, any other element by its
        coefficients.
        """
        e = _SHARED_ROOT_EXPONENT.get(id(self))
        if e is not None or self.den != 1:
            return e
        return _root_powers(4 * self.r)[1].get(self.num)

    def inverse(self):
        """Multiplicative inverse through the field norm.

        With sigma_k: zeta -> zeta^k for the units k of Z/4r, the product
        y = prod_{k != 1} sigma_k(x) makes x*y = N(x), the norm, which is
        rational; so 1/x = y / N(x).  On x = X/den with integer X this is
        den * Y / (X*Y)[0], where Y is the same product over X.
        """
        if not any(self.num):
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        m = 4 * self.r
        cof = [1]
        for k in _galois_units(m):
            cof = _reduce_mod_cyclotomic(list(_poly_mul(cof, _galois(self.num, k, m))), m)
        norm = _reduce_mod_cyclotomic(list(_poly_mul(self.num, cof)), m)
        if any(norm[1:]):
            raise ArithmeticError("norm is not rational; Phi reduction broken")
        return CycScalar(self.r, [c * self.den for c in cof], norm[0])

    def __truediv__(self, other):
        if isinstance(other, int):
            return CycScalar(self.r, self.num, self.den * other)
        if isinstance(other, Fraction):
            return CycScalar(
                self.r,
                tuple(c * other.denominator for c in self.num),
                self.den * other.numerator,
            )
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycScalar.one(self.r)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, CycScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycScalar.from_fraction(other, self.r)
        return self.r == other.r and self.den == other.den and self.num == other.num

    def __hash__(self):
        # rational values hash as the equal int or Fraction does
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.r, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    # -- views ---------------------------------------------------------------

    @property
    def coeffs(self):
        """Coefficients in the power basis as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def conjugate(self):
        """Complex conjugation, i.e. the Galois map zeta -> zeta^{-1}."""
        return CycScalar(self.r, _galois(self.num, -1, 4 * self.r), self.den)

    def embed(self):
        """Numerical value at zeta = exp(i*pi/2r) as a ComplexAP.

        Fixed point, with F = DEFAULT_PREC_BITS + 16 = 144: A = sum_e c_e C_e
        and B = sum_e c_e S_e are exact integer dot products against
        integers C_e, S_e within 1/2 + 2**-60 of 2**F cos(2 pi e/4r) and
        2**F sin(2 pi e/4r), e < phi.  So A / (den 2**F) is within
        W * (1/2 + 2**-60) * 2**-F of the real part, W = sum_e |c_e| / den,
        and B / (den 2**F) likewise of the imaginary part.  Each is rounded
        once, to nearest at F bits, adding at most W * (1 + 2**-F) * 2**-F
        since both parts have modulus at most W.  Each part of the result
        is therefore within W * 2**-143 of the true value.
        """
        cos, sin = _embed_table(4 * self.r)
        den = self.den << _FRAC_BITS
        return ComplexAP(
            _mpf_ratio(sum(map(mul, self.num, cos)), den),
            _mpf_ratio(sum(map(mul, self.num, sin)), den),
        )

    def to_json(self):
        return {"r": self.r, "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs]}

    def __repr__(self):
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"CycScalar(r={self.r}: {body})"


def _from_normalized(r, num, den):
    """A CycScalar from a reduced tuple num of length phi(4r) over a positive
    den coprime to its content, stored as given with no checks."""
    out = object.__new__(CycScalar)
    out.r = r
    out.num = num
    out.den = den
    return out


@functools.lru_cache(maxsize=None)
def _zero(r):
    """The zero of order r that CycScalar.zero shares."""
    return _from_normalized(r, (0,) * euler_phi(4 * r), 1)


# r -> (t^0, ..., t^{4r-1}) of order r, built once and kept for the life of
# the process, so the ids of these shared instances are never reused
_ROOTS = {}
# id(t^e) -> e for every instance in _ROOTS, of every order
_SHARED_ROOT_EXPONENT = {}


def t_powers(r):
    """(t^0, t^1, ..., t^{4r-1}) of order r: the instances that t_power,
    CycScalar.one and CycScalar.times_root share."""
    roots = _ROOTS.get(r)
    if roots is None:
        built = tuple(_from_normalized(r, vec, 1) for vec in _root_powers(4 * r)[0])
        roots = _ROOTS.setdefault(r, built)
        if roots is built:
            _SHARED_ROOT_EXPONENT.update((id(x), e) for e, x in enumerate(roots))
    return roots


@functools.lru_cache(maxsize=None)
def _galois_units(m):
    """The units k != 1 of Z/m: the Galois group of Q(zeta_m) less the identity."""
    return tuple(k for k in range(2, m) if gcd(k, m) == 1)


def _galois(num, k, m):
    """Integer vector of sigma_k(sum num[e] zeta^e), sigma_k: zeta -> zeta^k."""
    vec = [0] * m
    for e, c in enumerate(num):
        if c:
            vec[e * k % m] += c
    return _reduce_mod_cyclotomic(vec, m)


@functools.lru_cache(maxsize=None)
def _embed_table(m):
    """(C, S): integers within 1/2 + 2**-60 of 2**F cos(2 pi e/m), 2**F sin(2 pi e/m), e < phi(m).

    F = _FRAC_BITS.  The angle and each value are rounded at F + 64 bits,
    which puts the value within 2**-60 of the true one (the angle error
    2**-(F+63) is scaled by at most pi), and then to the nearest integer.
    """
    count = euler_phi(m)
    with mpmath.workprec(_FRAC_BITS + 64):
        return tuple(
            tuple(int(mpmath.nint(mpmath.ldexp(f(mpmath.mpf(2 * e) / m), _FRAC_BITS))) for e in range(count))
            for f in (mpmath.cospi, mpmath.sinpi)
        )


def _mpf_ratio(p, q):
    """The mpf nearest to p/q at _FRAC_BITS bits (one rounding)."""
    return mpmath.mp.make_mpf(from_rational(p, q, _FRAC_BITS, round_nearest))


# ---------------------------------------------------------------------------
# quantized integers and Gauss sums
# ---------------------------------------------------------------------------

def t_power(r: int, e: int) -> CycScalar:
    """t^e where t = zeta_{4r} = exp(i*pi/2r), e taken modulo 4r: the
    shared instance, so t_power(r, e) is t_power(r, e + 4r)."""
    return t_powers(r)[e % (4 * r)]


def check_order(r):
    """r, if it is an integer >= 2: the order every level-r object needs."""
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"r must be an integer >= 2, not {r!r}")
    return r


def index_fold(j: int, r: int):
    """(sign, index) with V^j = sign * V^index, index in [1, r-1].

    V^r = 0, V^{j+2r} = V^j, V^{r+j} = -V^{r-j} (hence V^{-j} = -V^j).
    The quantized integers obey the same rule: [j] = sign * [index].
    ValueError, by check_order, for an r that is not an integer >= 2.
    """
    check_order(r)
    m = j % (2 * r)
    if m % r == 0:
        return 0, None
    if m < r:
        return 1, m
    return -1, 2 * r - m


@functools.lru_cache(maxsize=None)
def _qint_table(r: int):
    """([0], [1], ..., [r-1]) by [n+1] = [n-1] + t^{2n} + t^{-2n}."""
    table = [CycScalar.zero(r), CycScalar.one(r)]
    for n in range(1, r - 1):
        table.append(table[n - 1] + t_power(r, 2 * n) + t_power(r, -2 * n))
    return tuple(table)


def qint(n: int, r: int) -> CycScalar:
    """The quantized integer [n] = (t^{2n} - t^{-2n}) / (t^2 - t^{-2}).

    At t = zeta_{4r}, t^{4r} = 1 and t^{2r} = -1 give the fold identities
    [n + 2r] = [n], [r] = 0 and [r + j] = -[r - j] (so [-n] = -[n]);
    index_fold applies them, and the result is looked up in a per-r
    table of [0], ..., [r-1], so the cost does not grow with |n|.
    For 1 <= n < r the table holds t^{2(n-1)} + t^{2(n-3)} + ... +
    t^{-2(n-1)} (no division needed).
    """
    sign, idx = index_fold(n, r)
    if not sign:
        return CycScalar.zero(r)
    value = _qint_table(r)[idx]
    return value if sign > 0 else -value


def qint_factorial(n: int, r: int) -> CycScalar:
    """[n]! = [1][2]...[n], with [0]! = 1; ValueError for n < 0."""
    check_order(r)
    if n < 0:
        raise ValueError("qint_factorial needs n >= 0")
    acc = CycScalar.one(r)
    for i in range(1, n + 1):
        acc = acc * qint(i, r)
    return acc


def gauss_sum(j: int, r: int) -> CycScalar:
    """sum_{k=1}^{r-1} [jk][k] t^{-k^2}, exactly.

    Equals a j-independent constant times [j] t^{j^2}; the constant is
    gauss_sum(1, r) * t^{-1}.
    """
    check_order(r)
    acc = CycScalar.zero(r)
    for k in range(1, r):
        acc = acc + qint(j * k, r) * qint(k, r) * t_power(r, -k * k)
    return acc


@functools.lru_cache(maxsize=None, typed=True)  # typed, so a cached 3 does not answer 3.0
def eta_inverse_square(r: int) -> CycScalar:
    """sum_j [j]^2, the exact inverse square of the S-matrix normalization."""
    check_order(r)
    acc = CycScalar.zero(r)
    for j in range(1, r):
        acc = acc + qint(j, r) * qint(j, r)
    return acc


# ---------------------------------------------------------------------------
# sparse combinations of basis elements
# ---------------------------------------------------------------------------

class Combination:
    """A finite sum of basis elements, stored as terms = {key: coefficient}.

    base names what the sum lives over (an order r, a modulus N, a level
    r or a generic parameter); sums over different bases do not mix.  A subclass
    gives its basis by two methods:

    - _fold(key) -> (key', factor): the basis element of key is factor
      times that of the canonical key' (the default keeps every key; a
      factor of 0 drops the term);
    - _basis_mul(k1, k2) -> [(key, factor), ...]: the product of two basis
      elements.

    Construction folds each key, sums the coefficients of keys that meet
    and drops zeros, so equal sums have equal terms.  A subclass whose
    coefficients live in one cyclotomic field names its order by
    _coefficient_order(); construction rejects a CycScalar coefficient of
    another order.  The product of two elements of one class is the
    bilinear extension of _basis_mul.  Multiplying by a scalar or by a
    coefficient ring (a class with _RING set, such as LaurentPoly), on
    either side, scales every coefficient; any other Combination is no
    coefficient, so that product is left to the other operand or raises
    TypeError.
    """

    _MIXED = "mixed bases"
    _RING = False  # whether other combinations take elements of this class as coefficients

    def __init__(self, base, terms=()):
        self.base = base
        sums = {}
        for key, c in terms.items() if isinstance(terms, dict) else terms:
            key, factor = self._fold(key)
            if factor != 1:
                c = c * factor
            s = sums.get(key)
            sums[key] = c if s is None else s + c
        order = self._coefficient_order()
        if order is not None:
            for c in sums.values():
                if type(c) is CycScalar and c.r != order:
                    raise ValueError(f"mixed cyclotomic orders r={c.r} and r={order}")
        self.terms = {key: c for key, c in sums.items() if c}

    def _coefficient_order(self):
        """The order r of CycScalar coefficients, or None when not fixed."""
        return None

    def _fold(self, key):
        return key, 1

    def _like(self, terms):
        """An element of this class and base; terms as for the constructor."""
        out = object.__new__(type(self))
        Combination.__init__(out, self.base, terms)
        return out

    def _check(self, other):
        if self.base != other.base:
            raise ValueError(self._MIXED)

    def scaled(self, c):
        return self._like((key, v * c) for key, v in self.terms.items())

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._like([*self.terms.items(), *other.terms.items()])

    def __rmul__(self, other):
        # every coefficient ring here is commutative
        if isinstance(other, Combination) and not other._RING:
            return NotImplemented
        return self.scaled(other)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            if isinstance(other, Combination) and not other._RING:
                return NotImplemented
            return self.scaled(other)
        self._check(other)
        return self._like(
            (key, c1 * c2 * factor)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
            for key, factor in self._basis_mul(k1, k2)
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.base == other.base and self.terms == other.terms

    def __hash__(self):
        return hash((self.base, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.base!r}, {self.terms!r})"


def chebyshev_s(x, one, count):
    """[S_{-1}(x), S_0(x), ..., S_{count-1}(x)] by S_{n+1} = x S_n - S_{n-1}.

    S_{-1} = one * 0 and S_0 = one, the unit of x's ring; count - 1
    products by x.  S_{n-1} of a curve colours it by V^n, and S_{n-1}(V^2)
    is V^n in the fusion ring.
    """
    out = [one * 0, one]
    for _ in range(count - 1):
        out.append(x * out[-1] - out[-2])
    return out[: count + 1]


class LaurentPoly(Combination):
    """A Laurent polynomial in t over Q, keyed by the exponent.

    The coefficient ring of the skein algebra at generic t.
    """

    _RING = True

    def __init__(self, terms=()):
        super().__init__(None, terms)

    @classmethod
    def one(cls):
        return cls.t(0)

    @classmethod
    def t(cls, e):
        return cls({e: 1})

    def _basis_mul(self, e1, e2):
        return ((e1 + e2, 1),)

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


# ---------------------------------------------------------------------------
# embedded complex values
# ---------------------------------------------------------------------------

class ComplexAP(NamedTuple):
    """The parts of an embedded value, as CycScalar.embed rounds them."""

    re: object
    im: object

    def to_mpc(self):
        return mpmath.mpc(self.re, self.im)


def embed_matrix(mat, inv_square):
    """inv_square^{-1/2} times the embedding of each entry of a CycScalar matrix.

    Rows of mpc at DEFAULT_PREC_BITS.  inv_square is an exact positive
    real, an int or a CycScalar: the inverse square of the normalisation
    of a transform whose exact part is mat, such as
    eta_inverse_square(r) ** s or N ** s.  This is the one place where a
    numeric normalisation is formed.
    """
    with mpmath.workprec(DEFAULT_PREC_BITS):
        if type(inv_square) is CycScalar:
            inv_square = inv_square.embed().re
        scale = 1 / mpmath.sqrt(inv_square)
        return [[scale * x.embed().to_mpc() for x in row] for row in mat]
