"""Random S/T words for the tests."""


def random_word(rng, max_len):
    """A word of 1..max_len letters S^{+-1}, T^{+-1}, drawn from rng."""
    n = rng.randint(1, max_len)
    return [(rng.choice("ST"), rng.choice((-1, 1))) for _ in range(n)]
