"""Small exact linear algebra kernel.

Matrices are lists (or tuples) of rows, a vector an n x 1 column.
``mat_mul`` multiplies CycScalar entries by the first of two rules that
applies: when the nonzero entries of one operand are all roots of unity
(CycScalar.root_exponent, which knows a shared t^e by its identity),
each t^e of it is an exponent shift of the other operand's entries; any
other pair goes through Kronecker-packed exact dot products.  Both rules
pack into one format, packed and unpacked in C by ``struct`` while a slot
fits in 64 bits.  ``mat_scale`` by a CycScalar runs the same kernel on the
column of entries times [[c]].  The shift rule is one kernel,
``shift_sums``, which also forms rt_torus.rt_rep_matrix's skein operators
as sums of shifted coefficients.  ``RowSpan`` eliminates CycScalar vectors
exactly; the other routines need entries that support +, -, *, == and
truth testing.  Nothing ever rounds.
"""
from __future__ import annotations

import struct
from bisect import insort
from math import lcm
from operator import itemgetter, lshift, mul

from .scalar import CycScalar, euler_phi

# slot width in bits -> struct code of a signed integer of that width
_STRUCT_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


def _slot_ones(w, n):
    """sum(2**(w*e) for e < n): a one in each of n slots of w bits."""
    return ((1 << (w * n)) - 1) // ((1 << w) - 1)


def _slot_width(least):
    """The least slot width rounded up to the next struct width, or kept past 64 bits."""
    return next((w for w in _STRUCT_CODES if w >= least), least)


def matrix_order(*mats):
    """The one cyclotomic order r of the entries of mats, None if they have none.

    TypeError for an entry that is not a CycScalar, ValueError for mixed
    orders.
    """
    r = None
    for mat in mats:
        for row in mat:
            for x in row:
                if type(x) is not CycScalar:
                    raise TypeError(f"needs CycScalar entries, got {type(x).__name__}")
                if x.r != r:
                    if r is not None:
                        raise ValueError(f"mixed cyclotomic orders r={r} and r={x.r}")
                    r = x.r
    return r


def _root_terms(lines, zero):
    """Each line as the list of (s, e) for its nonzero entries, entry s ==
    t^e with 0 <= e < 4r; None when some entry is neither zero nor a power of t.
    """
    out = []
    for line in lines:
        terms = []
        for s, x in enumerate(line):
            if x is zero:
                continue
            e = x.root_exponent()
            if e is None:
                if x:
                    return None
                continue
            terms.append((s, e))
        out.append(terms)
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
    sum acc = sum(c[e] * 2**(w*e)), e < 4r, with every c[e] and every
    c[e] - c[e + 2r] below 2**(w-1) in absolute value, and gives the
    coefficients of sum(c[e] * x**e) modulo x**(2r) + 1, which Phi_{4r}
    divides: 2r signed slots.
    """
    phi = euler_phi(4 * r)
    n = 2 * r
    half = 1 << (w - 1)
    signs = half * _slot_ones(w, n)
    low = (1 << (w * n)) - 1

    def fold(acc):
        """Slot e < 2r of the result holds c[e] - c[e + 2r] + 2**(w-1)."""
        u = acc + signs
        return (u & low) - (u >> (w * n))

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
    top = half * _slot_ones(w, phi)
    size = w // 8 * n

    def pack(num, scale):
        u = int.from_bytes(to_bytes(*num), "little")
        return (u - ((u & top) << 1)) * scale

    def unpack(acc):
        return from_bytes((fold(acc) ^ signs).to_bytes(size, "little"))

    return pack, unpack


def _pack_all(pack, prepped):
    """[(den, packed entries), ...] from the _pack_prep form of vectors."""
    return [(den, [0 if x is None else pack(*x) for x in entries]) for den, entries in prepped]


def shift_sums(lines, vectors, roots, r):
    """Entry (i, j) is sum(t^e * vectors[j][s]) over the terms (s, e) of lines[i].

    vectors are equal-length lists of CycScalar entries of order r, and each
    line lists terms (s, e) with 0 <= e < 4r; a line may repeat an index s.
    roots holds, for each vector, its (s, f) pairs with entry s == t^f, one
    per nonzero entry, when every nonzero entry of every vector is a power
    of t, and is None otherwise.  An empty line gives the shared zero, a
    line of one term t^e the vectors' times_root(e), and a longer line one
    shifted sum of packed entries per vector: mat_mul's rule 1, whose
    docstring gives the slot width.  Returns the rows of entries.
    """
    zero = CycScalar.zero(r)
    n, k = 2 * r, len(vectors[0])
    packed = None
    out = []
    for terms in lines:
        if not terms:
            out.append([zero] * len(vectors))
            continue
        if len(terms) == 1:
            ((s, e),) = terms
            out.append([v[s].times_root(e) for v in vectors])
            continue
        if packed is None:
            count = max(map(len, lines)).bit_length()
            if roots is None:
                prepped, bits = _pack_prep(vectors)
                w = _slot_width(bits + count + 1)
                pack, unpack = _codec(w, r)
                packed = _pack_all(pack, prepped)
            else:  # t^f packs as +-2**(w * (f mod 2r)): bits = 1
                w = _slot_width(count + 2)
                unpack = _codec(w, r)[1]
                packed = [(1, [0] * k) for _ in roots]
                for (_, vec), vec_terms in zip(packed, roots):
                    for s, f in vec_terms:
                        vec[s] = -(1 << w * (f - n)) if f >= n else 1 << w * f
            # entry s + k of a vector is -(entry s), for a term t^e with e >= 2r
            packed = [(den, vec + [-x for x in vec]) for den, vec in packed]
        pick = itemgetter(*[s + k if e >= n else s for s, e in terms])
        shifts = [w * (e % n) for _, e in terms]
        row = []
        for den, vec in packed:
            acc = sum(map(lshift, pick(vec), shifts))
            row.append(CycScalar(r, unpack(acc), den) if acc else zero)
        out.append(row)
    return out


def _packed_product(a, columns, r):
    """Rule 2 of mat_mul: Kronecker-packed dot products of a's rows and columns."""
    phi = euler_phi(4 * r)
    rows, bits_a = _pack_prep(a)
    cols, bits_b = _pack_prep(columns)
    w = _slot_width(bits_a + bits_b + (len(columns[0]) * phi).bit_length() + 1)
    pack, unpack = _codec(w, r)
    cols = _pack_all(pack, cols)
    zero = CycScalar.zero(r)
    out = []
    for row_den, packed in _pack_all(pack, rows):
        row = []
        for col_den, col in cols:
            acc = sum(map(mul, packed, col))
            row.append(CycScalar(r, unpack(acc), row_den * col_den) if acc else zero)
        out.append(row)
    return out


def _product(a, b, r):
    """mat_mul of validated operands of order r."""
    zero = CycScalar.zero(r)
    columns = list(zip(*b))
    roots_a = _root_terms(a, zero)
    roots_b = _root_terms(columns, zero)
    if roots_a is not None and (roots_b is None or sum(map(len, roots_a)) <= sum(map(len, roots_b))):
        return shift_sums(roots_a, columns, roots_b, r)
    if roots_b is not None:
        return [list(row) for row in zip(*shift_sums(roots_b, a, roots_a, r))]
    return _packed_product(a, columns, r)


def mat_mul(a, b):
    """Exact product of an n x k and a k x m matrix of CycScalar entries.

    The first of two rules that applies forms the product, each giving
    the value of the schoolbook sum of CycScalar products:

    1. Shift.  When the nonzero entries of a, or of b, are all roots of
       unity, its rows (or columns) are the lines and the other operand's
       columns (or rows) the vectors; if both qualify, the one with fewer
       nonzero entries gives the lines, a on a tie.  A line with one term
       t^e shifts each vector entry by CycScalar.times_root, so the
       identity, diagonal twists and the Heisenberg monomials cost one
       shift per entry.  A line with more terms sums a vector's packed
       entries, each shifted left by w * (e mod 2r) bits and negated when
       e mod 4r >= 2r, as t^e = -t^(e mod 2r) then.  A vector of roots
       packs t^f as +-2**(w * (f mod 2r)), any other as in rule 2.  An
       entry spans at most 2r slots, so each term adds at most one
       coefficient to a slot, before the fold and after it: w0 = bits +
       bit_length(m) + 1, m the most terms of any line, where bits = 1
       for roots and as in rule 2 otherwise.  A line of mat_mul has m <= k
       terms; a line of shift_sums may repeat an index, so m, not the
       vector length, bounds a slot.  This is the abelian S-step F D F.
    2. Packed.  Each row of a and each column of b is brought to one
       common denominator, and every entry's integer coefficient vector c
       is packed into the single integer sum(c[e] * 2**(w*e)) (Kronecker
       substitution).  One product entry is then k integer multiply-adds.
       A slot holds sum_s sum_{i+j=e} a_s[i] * b_s[j], at most k * phi
       terms with phi = euler_phi(4r), so its absolute value is below
       k * phi * 2**bits_a * 2**bits_b when every packed coefficient of a
       (of b) is below 2**bits_a (2**bits_b).  The fold keeps that bound:
       as phi <= 2r, for each s and i at most one j < phi has i + j = e
       mod 2r.  So w0 = bits_a + bits_b + bit_length(k * phi) + 1.

    Either sum is folded by t^(2r) = -1 to 2r slots, unpacked signed,
    reduced once modulo Phi_{4r} and normalised.  Packing is exact because
    no slot overflows: w0 keeps every slot below 2**(w0-1), before and
    after the fold, which leaves room for the sign.  w0 is rounded up to
    the next of 8, 16, 32 and 64 bits, or kept past 64; a wider slot only
    adds headroom.  Up to 64 bits, struct writes the coefficients as w-bit
    two's complement, read as one unsigned integer u: a negative slot
    reads 2**w too high and has its top bit set, so u - ((u & top) << 1),
    top holding the top bit of each slot, is the signed packing.  To
    unpack, adding bias = 2**(w-1) in each of the low 2r slots makes them
    nonnegative and below 2**w, so they split from the rest, which then
    subtracts with no carry out of a slot; XOR with bias leaves each
    slot's two's complement, which struct reads back signed.  Past 64
    bits a shift loop packs and unpacks.  Zero entries pack to 0.

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
    return _product(a, b, matrix_order(a, b))


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
    products = iter(_product(column, [[c]], matrix_order([[c]], column)))
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
