"""Small exact linear algebra kernel.

Matrices are lists (or tuples) of rows, a vector an n x 1 column.
``mat_mul`` multiplies CycScalar entries.  When one operand is monomial
with root-of-unity entries (at most one nonzero per row of the left
operand, or per column of the right one, each a power of t), as the
identity, the twists diag(t^e) and the Heisenberg shifts are, the
product only permutes and exponent-shifts the other operand; any other
pair goes through packed exact dot products.  ``RowSpan`` eliminates
CycScalar vectors exactly; the other routines need entries that support
+, -, *, == and truth testing.  Nothing ever rounds.
"""
from __future__ import annotations

from bisect import insort
from math import lcm

from .scalar import CycScalar, euler_phi


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


def _pack(entries, w):
    """Each (num, scale) as the integer scale * sum(num[e] * 2**(w*e)); None as 0."""
    out = []
    for entry in entries:
        if entry is None:
            out.append(0)
            continue
        num, scale = entry
        p = 0
        for c in reversed(num):
            p = (p << w) + c
        out.append(p * scale)
    return out


def _monomial(lines):
    """[(s, e) | None, ...] when each line has at most one nonzero entry,
    at index s and equal to t^e (None for a zero line); otherwise None."""
    out = []
    for line in lines:
        hit = None
        for s, x in enumerate(line):
            if x:
                if hit is not None:
                    return None
                hit = s
        if hit is None:
            out.append(None)
            continue
        e = line[hit].root_exponent()
        if e is None:
            return None
        out.append((hit, e))
    return out


def mat_mul(a, b):
    """Exact product of an n x k and a k x m matrix of CycScalar entries.

    Monomial rule: when each row of a has at most one nonzero entry and
    each such entry is a root of unity t^e, row i of the product is row
    s of b times t^e, for the nonzero a[i][s], each entry by an exponent
    shift (CycScalar.times_root, which shares the entry when e = 0), and
    a zero row of a gives a zero row.  Otherwise the same rule is tried on
    the columns of b.  This covers the identity, diagonal twists and the
    Heisenberg monomials.

    Any other pair takes the packed path.  Each row of a and each column
    of b is brought to one common denominator, and every entry's integer
    coefficient vector c is packed into the single integer
    sum(c[e] * 2**(w*e)) (Kronecker substitution).  One product entry is
    then k integer multiply-adds, one signed unpack of its 2*phi - 1
    slots, one reduction modulo Phi_{4r} and one normalisation, where
    phi = euler_phi(4r).

    Packing is exact because no slot overflows: a slot of the packed dot
    product holds sum_s sum_{i+j=e} a_s[i] * b_s[j], at most k * phi
    terms, so its absolute value is below k * phi * 2**bits_a * 2**bits_b
    when every packed coefficient of a (of b) is below 2**bits_a
    (2**bits_b).  The slot width w = bits_a + bits_b +
    bit_length(k * phi) + 1 keeps it below 2**(w-1), which leaves room
    for the sign.  Zero entries pack to 0 and are skipped.

    Both operands are validated before either rule: TypeError for an
    entry that is not a CycScalar, ValueError for mixed cyclotomic orders
    or mismatched shapes.
    """
    k = len(b)
    if not a or not k:
        raise ValueError("mat_mul needs non-empty operands")
    m = len(b[0])
    if any(len(row) != k for row in a) or any(len(row) != m for row in b):
        raise ValueError("mat_mul shape mismatch")
    r = None
    for row in (*a, *b):
        for x in row:
            if type(x) is not CycScalar:
                raise TypeError(f"mat_mul needs CycScalar entries, got {type(x).__name__}")
            if x.r != r:
                if r is not None:
                    raise ValueError(f"mixed cyclotomic orders r={r} and r={x.r}")
                r = x.r
    zero = CycScalar.zero(r)
    left = _monomial(a)
    if left is not None:
        return [
            [zero] * m if hit is None else [x.times_root(hit[1]) for x in b[hit[0]]] for hit in left
        ]
    columns = list(zip(*b))
    right = _monomial(columns)
    if right is not None:
        return [
            [zero if hit is None else row[hit[0]].times_root(hit[1]) for hit in right] for row in a
        ]
    phi = euler_phi(4 * r)
    rows, bits_a = _pack_prep(a)
    cols, bits_b = _pack_prep(columns)
    w = bits_a + bits_b + (k * phi).bit_length() + 1
    slots = 2 * phi - 1
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    bias = 0
    for _ in range(slots):
        bias = (bias << w) + half
    shifts = range(0, w * slots, w)
    packed_cols = [(den, _pack(entries, w)) for den, entries in cols]
    out = []
    for row_den, row_entries in rows:
        row_packed = [(s, p) for s, p in enumerate(_pack(row_entries, w)) if p]
        row = []
        for col_den, col_packed in packed_cols:
            acc = 0
            for s, p in row_packed:
                q = col_packed[s]
                if q:
                    acc += p * q
            if not acc:
                row.append(zero)
                continue
            acc += bias
            row.append(
                CycScalar(r, [((acc >> sh) & mask) - half for sh in shifts], row_den * col_den)
            )
        out.append(row)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


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
