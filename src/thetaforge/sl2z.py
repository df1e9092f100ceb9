"""SL(2,Z) elements, S/T words, and continued-fraction decomposition."""
from __future__ import annotations

import operator
from typing import NamedTuple


class SL2Z(NamedTuple):
    """Integer matrix [[a, b], [c, d]] with ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def check(self):
        if self.det != 1:
            raise ValueError(f"matrix {tuple(self)} is not unimodular")
        return self

    def __mul__(self, other):
        return SL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return SL2Z(self.d, -self.b, -self.c, self.a)

    def transpose(self):
        return SL2Z(self.a, self.c, self.b, self.d)

    def inverse_transpose(self):
        return SL2Z(self.d, -self.c, -self.b, self.a)

    def apply(self, p, q):
        """Column action: (p, q) -> (ap + bq, cp + dq)."""
        return self.a * p + self.b * q, self.c * p + self.d * q

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = IDENTITY
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


IDENTITY = SL2Z(1, 0, 0, 1)
S = SL2Z(0, 1, -1, 0)
T = SL2Z(1, 1, 0, 1)

# A word is a list of (letter, exponent) pairs, letter in {"S", "T"}.
_LETTERS = {"S": S, "T": T}


def check_word(word):
    """The word as a tuple of (letter, int) pairs.

    ValueError for a letter other than S or T, TypeError for an exponent
    that is not an integer (operator.index rejects 1.5 and Fraction(3, 2)).
    """
    out = []
    for letter, exp in word:
        if letter not in _LETTERS:
            raise ValueError(f"unknown generator {letter!r}")
        try:
            out.append((letter, operator.index(exp)))
        except TypeError:
            raise TypeError(f"exponent of {letter!r} must be an integer, got {exp!r}") from None
    return tuple(out)


def word_matrix(word) -> SL2Z:
    return word_product(word, _LETTERS)


def word_product(word, images) -> SL2Z:
    """The product of images[letter] ** exp over the checked word, in order."""
    out = IDENTITY
    for letter, exp in check_word(word):
        out = out * (images[letter] ** exp)
    return out


def sl2z_decompose(h: SL2Z):
    """Factor h exactly into a word over S and T, including the -I = S^2 part.

    Euclidean reduction on the left column: while c != 0 peel off
    h = T^k * S * h' with h' = S^{-1} T^{-k} h and |c'| < |c|.
    """
    h.check()
    a, b, c, d = h
    word = []
    while c != 0:
        k = a // c
        if k:
            word.append(("T", k))
        word.append(("S", 1))
        a, b, c, d = -c, -d, a - k * c, b - k * d
    if a == 1:
        if b:
            word.append(("T", b))
    else:
        word.append(("S", 2))
        if b:
            word.append(("T", -b))
    return word
