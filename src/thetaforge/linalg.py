"""Small exact linear algebra kernel.

Matrices are lists (or tuples) of rows, a vector an n x 1 column.
``mat_mul`` multiplies CycScalar entries by the first of three rules that
applies: a monomial operand of roots of unity only permutes and
exponent-shifts the other; two operands whose nonzero entries are all
roots of unity count exponents; any other pair goes through
Kronecker-packed exact dot products, packed and unpacked in C by
``struct`` while a slot fits in 64 bits.  ``mat_scale`` by a CycScalar
runs the same kernel on the column of entries times [[c]].  ``RowSpan``
eliminates CycScalar vectors exactly; the other routines need entries that
support +, -, *, == and truth testing.  Nothing ever rounds.
"""
from __future__ import annotations

import struct
from bisect import insort
from math import lcm
from operator import lshift, mul, sub

from .scalar import CycScalar, euler_phi

# slot width in bits -> struct code of a signed integer of that width
_STRUCT_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


def _slot_ones(w, n):
    """sum(2**(w*e) for e < n): a one in each of n slots of w bits."""
    return ((1 << (w * n)) - 1) // ((1 << w) - 1)


def _order(*mats):
    """The one cyclotomic order r of the entries of mats.

    TypeError for an entry that is not a CycScalar, ValueError for mixed
    orders.
    """
    r = None
    for mat in mats:
        for row in mat:
            for x in row:
                if type(x) is not CycScalar:
                    raise TypeError(f"mat_mul needs CycScalar entries, got {type(x).__name__}")
                if x.r != r:
                    if r is not None:
                        raise ValueError(f"mixed cyclotomic orders r={r} and r={x.r}")
                    r = x.r
    return r


def _root_exponents(lines, zero):
    """Each line as the list of its entries' exponents e, entry == t^e, with
    None for a zero entry; None when some entry is neither."""
    out = []
    for line in lines:
        exps = []
        for x in line:
            if x is zero:
                e = None
            else:
                e = x.root_exponent()
                if e is None and x:
                    return None
            exps.append(e)
        out.append(exps)
    return out


def _monomial(exps):
    """[(s, e) | None, ...] when each exponent line has at most one entry,
    t^e at index s (None for a zero line); otherwise None."""
    out = []
    for line in exps:
        hits = [(s, e) for s, e in enumerate(line) if e is not None]
        if len(hits) > 1:
            return None
        out.append(hits[0] if hits else None)
    return out


def _root_product(exps_a, exps_b, r):
    """Rule 2 of mat_mul from the exponents of a's rows and b's columns.

    An entry t^e of a packs as 2**(w*e) and a zero as 0; an entry t^f of
    b shifts it left by w*f bits, and a zero by 8r slots.  So one dot
    product counts its exponent sums e + f <= 8r - 2 in slots below 8r,
    each count at most k < 2**w, and the products with a zero of b land
    in the slots from 8r on, which are dropped.  Adding the slots from 4r
    on to the ones below (t^(4r) = 1) leaves each count at most k; the
    slots 2r .. 4r - 1 then subtract from 0 .. 2r - 1 (t^(2r) = -1), and
    CycScalar reduces modulo Phi_{4r}.
    """
    k = len(exps_b[0])
    w = next(w for w in _STRUCT_CODES if k < 1 << w)
    n = 2 * r
    counts = struct.Struct(f"<{2 * n}{_STRUCT_CODES[w].upper()}").unpack
    size, kept, low = w // 4 * n, (1 << (4 * w * n)) - 1, (1 << (2 * w * n)) - 1
    cols = [[w * (4 * n if e is None else e) for e in col] for col in exps_b]
    zero = CycScalar.zero(r)
    out = []
    for exps in exps_a:
        row = [0 if e is None else 1 << (w * e) for e in exps]
        out_row = []
        for col in cols:
            acc = sum(map(lshift, row, col)) & kept
            if not acc:
                out_row.append(zero)
                continue
            c = counts(((acc & low) + (acc >> (2 * w * n))).to_bytes(size, "little"))
            out_row.append(CycScalar(r, list(map(sub, c[:n], c[n:]))))
        out.append(out_row)
    return out


def _pack_prep(vectors):
    """Common-denominator form of each vector of CycScalar entries.

    Returns ([(den, [(num, scale) | None, ...]), ...], bits): entry x of a
    vector equals num * scale / den, den is the lcm of the vector's
    denominators, None marks a zero entry, and every integer
    coefficient of num * scale is below 2**bits in absolute value.
    """
    out = []
    bits = 0
    for vec in vectors:
        den = lcm(*(x.den for x in vec))
        entries = []
        for x in vec:
            num = x.num
            hi, lo = max(num), min(num)
            if not hi and not lo:
                entries.append(None)
                continue
            scale = den // x.den
            b = (max(hi, -lo) * scale).bit_length()
            if b > bits:
                bits = b
            entries.append((num, scale))
        out.append((den, entries))
    return out, bits


def _codec(w, r):
    """(pack, unpack) for slots of w bits at order r, with phi = euler_phi(4r).

    pack(num, scale) is scale * sum(num[e] * 2**(w*e)) for phi signed
    coefficients below 2**(w-1) in absolute value.  unpack(acc) takes a
    sum acc = sum(c[e] * 2**(w*e)), e < 2*phi - 1, of products of such
    integers and gives the coefficients of sum(c[e] * x**e) modulo
    x**(2r) + 1, which Phi_{4r} divides: n = min(2*phi - 1, 2r) signed
    slots, each below 2**(w-1) in absolute value.
    """
    phi = euler_phi(4 * r)
    slots = 2 * phi - 1
    n = min(slots, 2 * r)
    half = 1 << (w - 1)
    bias, high_bias = half * _slot_ones(w, slots), half * _slot_ones(w, slots - n)
    low = (1 << (w * n)) - 1

    def fold(acc):
        """Slot e < n of the result holds c[e] - c[e + 2r] + 2**(w-1)."""
        u = acc + bias
        return (u & low) - (u >> (w * n)) + high_bias

    code = _STRUCT_CODES.get(w)
    if code is None:
        mask = (1 << w) - 1
        shifts = range(0, w * n, w)

        def pack(num, scale):
            p = 0
            for c in reversed(num):
                p = (p << w) + c
            return p * scale

        def unpack(acc):
            u = fold(acc)
            return [((u >> sh) & mask) - half for sh in shifts]

        return pack, unpack
    to_bytes = struct.Struct(f"<{phi}{code}").pack
    from_bytes = struct.Struct(f"<{n}{code}").unpack
    top, signs = half * _slot_ones(w, phi), half * _slot_ones(w, n)
    size = w // 8 * n

    def pack(num, scale):
        u = int.from_bytes(to_bytes(*num), "little")
        return (u - ((u & top) << 1)) * scale

    def unpack(acc):
        return from_bytes((fold(acc) ^ signs).to_bytes(size, "little"))

    return pack, unpack


def _packed_product(a, columns, r):
    """Rule 3 of mat_mul: Kronecker-packed dot products of a's rows and columns."""
    phi = euler_phi(4 * r)
    rows, bits_a = _pack_prep(a)
    cols, bits_b = _pack_prep(columns)
    w = bits_a + bits_b + (len(columns[0]) * phi).bit_length() + 1
    w = next((s for s in _STRUCT_CODES if s >= w), w)
    pack, unpack = _codec(w, r)
    packed_cols = [
        (den, [0 if x is None else pack(*x) for x in entries]) for den, entries in cols
    ]
    zero = CycScalar.zero(r)
    out = []
    for row_den, entries in rows:
        packed = [0 if x is None else pack(*x) for x in entries]
        row = []
        for col_den, col in packed_cols:
            acc = sum(map(mul, packed, col))
            row.append(CycScalar(r, unpack(acc), row_den * col_den) if acc else zero)
        out.append(row)
    return out


def _product(a, b, r):
    """mat_mul of validated operands of order r."""
    zero = CycScalar.zero(r)
    m = len(b[0])
    exps_a = _root_exponents(a, zero)
    left = None if exps_a is None else _monomial(exps_a)
    if left is not None:
        return [
            [zero] * m if hit is None else [x.times_root(hit[1]) for x in b[hit[0]]] for hit in left
        ]
    columns = list(zip(*b))
    exps_b = _root_exponents(columns, zero)
    right = None if exps_b is None else _monomial(exps_b)
    if right is not None:
        return [
            [zero if hit is None else row[hit[0]].times_root(hit[1]) for hit in right] for row in a
        ]
    if exps_a is not None and exps_b is not None:
        return _root_product(exps_a, exps_b, r)
    return _packed_product(a, columns, r)


def mat_mul(a, b):
    """Exact product of an n x k and a k x m matrix of CycScalar entries.

    The first of three rules that applies forms the product, each giving
    the value of the schoolbook sum of CycScalar products:

    1. Monomial.  When each row of a has at most one nonzero entry and
       each such entry is a root of unity t^e, row i of the product is
       row s of b times t^e, for the nonzero a[i][s], each entry by an
       exponent shift (CycScalar.times_root, which shares the entry when
       e = 0), and a zero row of a gives a zero row.  Otherwise the same
       rule is tried on the columns of b.  This covers the identity,
       diagonal twists and the Heisenberg monomials.
    2. Roots.  When every nonzero entry of a and of b is a root of unity,
       entry (i, j) is sum_s t^(e_is + f_sj): its exponents are counted
       modulo 4r, folded by t^(2r) = -1 and reduced once modulo Phi_{4r}.
       This is the abelian S-step F D F.
    3. Packed.  Each row of a and each column of b is brought to one
       common denominator, and every entry's integer coefficient vector c
       is packed into the single integer sum(c[e] * 2**(w*e)) (Kronecker
       substitution).  One product entry is then k integer multiply-adds,
       a fold of its 2*phi - 1 slots by t^(2r) = -1, one signed unpack of
       the at most 2r slots left, one reduction modulo Phi_{4r} and one
       normalisation, where phi = euler_phi(4r).

    Packing is exact because no slot overflows.  A slot of the packed dot
    product holds sum_s sum_{i+j=e} a_s[i] * b_s[j], at most k * phi
    terms, so its absolute value is below k * phi * 2**bits_a * 2**bits_b
    when every packed coefficient of a (of b) is below 2**bits_a
    (2**bits_b).  The fold keeps that bound: as phi <= 2r, for each s and
    i at most one j < phi has i + j = e mod 2r.  The least width w0 =
    bits_a + bits_b + bit_length(k * phi) + 1 keeps every slot below
    2**(w0-1), which leaves room for the sign.  w0 is rounded up to the
    next of 8, 16, 32 and 64 bits, or kept past 64; a wider slot only adds
    headroom, so every packed coefficient and every slot, before and after
    the fold, is a signed w-bit integer.  Up to 64 bits, struct writes the
    coefficients as w-bit two's complement, read as one unsigned integer
    u: a negative slot reads 2**w too high and has its top bit set, so
    u - ((u & top) << 1), top holding the top bit of each slot, is the
    signed packing.  To unpack, adding bias = 2**(w-1) in every slot makes
    each slot nonnegative and below 2**w, before and after the fold, so no
    carry crosses a slot; XOR with bias then leaves each slot's two's
    complement, which struct reads back signed.  Past 64 bits a shift loop
    packs and unpacks.  Zero entries pack to 0.

    Both operands are validated before any rule: TypeError for an entry
    that is not a CycScalar, ValueError for mixed cyclotomic orders or
    mismatched shapes.
    """
    k = len(b)
    if not a or not k:
        raise ValueError("mat_mul needs non-empty operands")
    m = len(b[0])
    if any(len(row) != k for row in a) or any(len(row) != m for row in b):
        raise ValueError("mat_mul shape mismatch")
    return _product(a, b, _order(a, b))


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    """c * x for each entry x of a.

    For a CycScalar c and CycScalar entries this is mat_mul's kernel on
    the column of entries times [[c]]: exponent shifts when c, or every
    entry, is a root of unity or zero, otherwise c packed once and one
    big-int product per entry; ValueError for mixed orders.  Any other c
    or entry is multiplied as c * x.
    """
    column = [[x] for row in a for x in row]
    if type(c) is not CycScalar or not column or any(type(x) is not CycScalar for (x,) in column):
        return [[c * x for x in row] for row in a]
    products = iter(_product(column, [[c]], _order([[c]], column)))
    return [[next(products)[0] for _ in row] for row in a]


def mat_eq(a, b):
    """Whether a and b have the same shape and equal entries.

    Rows compare as lists, whose == checks lengths and then identity before
    it calls __eq__, so an entry that both sides share costs no comparison.
    """
    return list(map(list, a)) == list(map(list, b))


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def mat_identity(n, one):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _reduce(rows, vec):
    """Eliminate the dense vector vec against rows, in increasing lead order.

    Returns (rest, used): rest maps the index of each nonzero entry left to
    its value, and used holds one (lead, f) pair per row subtracted f times.
    """
    rest = {i: x for i, x in enumerate(vec) if x}
    used = []
    for lead, pairs in rows:
        if not rest:
            break
        f = rest.pop(lead, None)
        if f is None:
            continue
        used.append((lead, f))
        for i, p in pairs:
            x = rest.pop(i, None)
            x = -(f * p) if x is None else x - f * p
            if x:
                rest[i] = x
    return rest, tuple(used)


class RowSpan:
    """Incremental row space of CycScalar vectors with exact sparse elimination.

    Feed vectors with add(); the rank is the number kept.  A pivot row is
    stored as (lead, pairs): its entry at the lead is 1 and left out, and
    pairs lists its other nonzero entries as (index, value) in index
    order.  For each kept vector, add() records (fed index, lead, lead
    inverse, multipliers), the multipliers being the (lead_l, f_l) pairs
    it was reduced with, so pivot = inverse * (vector - sum(f_l * pivot_l)).
    solve() back-substitutes through that record in reverse order.
    """

    def __init__(self):
        self.count, self.rows, self.record = 0, [], []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        rest, used = _reduce(self.rows, vec)
        self.count += 1
        if not rest:
            return False
        lead = min(rest)
        inv = rest.pop(lead).inverse()
        insort(self.rows, (lead, tuple((i, rest[i] * inv) for i in sorted(rest))))
        self.record.append((self.count - 1, lead, inv, used))
        return True

    def solve(self, vec):
        """{fed index: c}, every c nonzero, with sum(c * fed vector) == vec; None if outside."""
        rest, used = _reduce(self.rows, vec)
        if rest:
            return None
        coeffs = dict(used)  # lead -> coefficient of that pivot row
        out = {}
        for index, lead, inv, multipliers in reversed(self.record):
            c = coeffs.pop(lead, None)
            if not c:
                continue
            c = out[index] = c * inv
            for l, f in multipliers:
                d = coeffs.get(l)
                coeffs[l] = -(c * f) if d is None else d - c * f
        return out
