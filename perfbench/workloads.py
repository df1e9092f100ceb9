"""Seeded inputs and exact-result checks for the benchmark workloads.

The seed chooses which words and labels are used, never how many or how
long they are, so the cost of a pass does not depend on the seed.  Words
are built here at a fixed length instead of by ``sl2z.random_word``, whose
length varies with the seed.

A check is a function of the generated inputs that returns ``(ok,
payload)``: ``ok`` is the paper identity it evaluates and ``payload`` holds
exact values the paper fixes (matrices of CycScalar, counts, flags), which
the gate hashes.  Payloads never contain basis choices such as which
spanning curves were fed or the pivot order.
"""
from __future__ import annotations

import random
from typing import Callable, NamedTuple

import mpmath

from thetaforge import heisenberg, linalg, pillowcase, quantum_group, rt_torus, scalar
from thetaforge.heisenberg import HeisAlgElt, HeisElt
from thetaforge.sl2z import sl2z_decompose, word_matrix

WORKLOADS = ("modular-products", "span-elimination", "statement-sweep")

MODULAR_RS = (12, 16, 24)
FOURIER_NS = (16, 32)
NUMERIC_R = 12
NUMERIC_N = 16
SKEIN_R = 10
SKEIN_WORDS = 3
SVN_R = 8
EQUIVALENCE_R = 6
PRESENTATION_RS = (8, 12, 16)
TWIST_RS = (6, 8)
TWIST_SOLVE_R = 12
EGOROV_N = 6
EGOROV_WORDS = 4
HEIS_MODULI = (4, 6, 8, 10)
# Label magnitudes up to 10**6: heis_reduce's cost grows with |label| / N.
HEIS_MAGNITUDES = (10, 10**3, 10**5, 10**6)
COLORING_GENUS = 4
COLORING_R = 7

# Shape of the modular words: three T^k S blocks.  A word is kept only when
# it is its own sl2z_decompose normal form, so rho_kac_peterson multiplies
# out a word of exactly this shape as its reference product.
_MODULAR_SHAPE = ("T", "S") * 3


# ---------------------------------------------------------------------------
# seeded input generator
# ---------------------------------------------------------------------------

def _sign(rng):
    return rng.choice((-1, 1))


def modular_word(rng):
    """A word T^a S T^b S T^c S that sl2z_decompose reproduces exactly."""
    while True:
        word = []
        for _ in range(3):
            word.append(("T", _sign(rng) * rng.randint(1, 4)))
            word.append(("S", 1))
        normal = sl2z_decompose(word_matrix(word))
        if tuple(letter for letter, _ in normal) == _MODULAR_SHAPE and all(
            exp == 1 for letter, exp in normal if letter == "S"
        ):
            return normal


def abelian_word(rng, length):
    """Alternating S^{+-1} T^k letters, k in +-[1, 5], of the given length."""
    word = []
    for i in range(length):
        if i % 2 == 0:
            word.append(("S", _sign(rng)))
        else:
            word.append(("T", _sign(rng) * rng.randint(1, 5)))
    return word


def heis_label(rng, magnitude):
    """A label whose entries are +-(magnitude - u), u < magnitude / 100."""
    return HeisElt(
        *(_sign(rng) * (magnitude - rng.randrange(magnitude // 100 + 1)) for _ in range(3))
    )


def make_inputs(workload, seed):
    """All inputs of one workload, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "modular-products":
        return {
            "modular_words": {r: modular_word(rng) for r in MODULAR_RS},
            "fourier_words": {n: abelian_word(rng, 3) for n in FOURIER_NS},
            "numeric_rt_word": modular_word(rng),
            "numeric_abelian_word": abelian_word(rng, 3),
        }
    if workload == "span-elimination":
        return {"skein_words": [modular_word(rng) for _ in range(SKEIN_WORDS)]}
    if workload == "statement-sweep":
        return {
            "egorov_words": [abelian_word(rng, 4) for _ in range(EGOROV_WORDS)],
            "heis_pairs": [
                (n, heis_label(rng, m), heis_label(rng, m))
                for n in HEIS_MODULI
                for m in HEIS_MAGNITUDES
            ],
        }
    raise ValueError(f"unknown workload {workload!r}")


def input_sizes(inputs):
    """The shape of the inputs with every seeded value erased."""
    if isinstance(inputs, dict):
        return {k: input_sizes(v) for k, v in inputs.items()}
    if isinstance(inputs, (list, tuple)):
        return [input_sizes(v) for v in inputs]
    if isinstance(inputs, str):
        return inputs
    return type(inputs).__name__


# ---------------------------------------------------------------------------
# identity helpers (public thetaforge functions only)
# ---------------------------------------------------------------------------

def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _proportional(a, b):
    """a == c * b for one exact scalar c taken at the first nonzero of b."""
    for i, row in enumerate(b):
        for j, x in enumerate(row):
            if x:
                c = a[i][j] / x
                return linalg.mat_eq(a, linalg.mat_scale(c, b))
    return linalg.mat_is_zero(a)


def _abelian_egorov(rho, word, N, labels):
    """rho rep(b(p,q)) == rep(b(h.(p,q))) rho for each label, exactly.

    The left side is formed transposed, rep^T rho^T, so that the sparse
    monomial factor comes first; the identity is unchanged.
    """
    act = heisenberg.observable_action_matrix(word)
    rho_t = _transpose(rho)
    for p, q in labels:
        rep = heisenberg.algebra_rep(HeisAlgElt.basis(N, p, q))
        lhs_t = linalg.mat_mul(_transpose(rep), rho_t)
        target = heisenberg.heis_reduce(HeisElt(*act.apply(p, q), 0), N)
        image = HeisAlgElt.basis(N, target.p, target.q, heisenberg.t_heis(N, target.k))
        rhs = linalg.mat_mul(heisenberg.algebra_rep(image), rho)
        if not linalg.mat_eq(lhs_t, _transpose(rhs)):
            return False
    return True


def _unitary_error(mat):
    """max |(M M^*)_ij - delta_ij|; call under NUMERIC_PREC working precision."""
    n = len(mat)
    err = mpmath.mpf(0)
    for i in range(n):
        for j in range(n):
            s = mpmath.fsum(mat[i][k] * mpmath.conj(mat[j][k]) for k in range(n))
            err = max(err, abs(s - (1 if i == j else 0)))
    return err


# The numeric paths run at DEFAULT_PREC_BITS; checks compare at that precision.
NUMERIC_PREC = scalar.DEFAULT_PREC_BITS
NUMERIC_TOL = mpmath.mpf(2) ** -100


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """A named identity; ``seeded`` says whether its inputs depend on the seed."""

    name: str
    fn: Callable
    seeded: bool


def _kac_peterson(word, r):
    def check():
        rho, s_count = rt_torus.rho_word_exact(word, r)
        kp = rt_torus.rho_kac_peterson(word_matrix(word), r)
        ok = (
            s_count == 3
            and _proportional(kp.matrix, rho)
            and abs(abs(kp.scalar) - 1) < 1e-10
        )
        return ok, {"rho": rho, "s_count": s_count, "kp": kp.matrix, "window": kp.window}
    return check


def _fourier_exact(word, N):
    def check():
        rho = heisenberg.fourier_word_exact(word, N)
        return _abelian_egorov(rho, word, N, [(1, 0), (0, 1)]), {"rho": rho}
    return check


def _rho_word_numeric(word, r):
    def check():
        mat = rt_torus.rho_word(word, r)
        with mpmath.workprec(NUMERIC_PREC):
            return _unitary_error(mat) < NUMERIC_TOL, None
    return check


def _fourier_numeric(word, N):
    def check():
        num = heisenberg.fourier_abelian(word, N)
        exact = heisenberg.fourier_word_exact(word, N)
        with mpmath.workprec(NUMERIC_PREC):
            emb = [[x.embed().to_mpc() for x in row] for row in exact]
            i, j = max(
                ((i, j) for i in range(N) for j in range(N)),
                key=lambda ij: abs(emb[ij[0]][ij[1]]),
            )
            c = num[i][j] / emb[i][j]
            err = max(abs(num[a][b] - c * emb[a][b]) for a in range(N) for b in range(N))
            ok = _unitary_error(num) < NUMERIC_TOL and err < NUMERIC_TOL
        return ok, {"exact": exact}
    return check


def _skein_roundtrip(word, r):
    def check():
        mat, _ = rt_torus.rho_word_exact(word, r)
        back = rt_torus.rt_rep_matrix(rt_torus.skein_from_matrix(mat, r), r)
        return linalg.mat_eq(back, mat), {"roundtrip": back}
    return check


def _svn(r):
    def check():
        rep = pillowcase.svn_irreducibility(r)
        ok = (
            rep["all_cyclic"]
            and rep["algebra_dimension"] == (r - 1) ** 2
            and rep["commutant_dimension"] == 1
        )
        return ok, rep
    return check


def _equivalence(r):
    def check():
        rep = pillowcase.equivalence_check(r)
        ok = not rep["mismatches"] and rep["checked"] == (6 * r + 1) ** 2
        return ok, {"checked": rep["checked"], "mismatches": len(rep["mismatches"])}
    return check


def _presentation(r):
    def check():
        if r is None:
            rep = rt_torus.presentation_check_generic()
        else:
            rep = rt_torus.presentation_check(r)
        return len(rep) == 7 and all(rep.values()), sorted(rep.items())
    return check


def _twist_egorov(r):
    def check():
        m = rt_torus.twist_skein_matrix(r)
        lhs = linalg.mat_mul(m, rt_torus.rt_rep_matrix((1, 0), r))
        rhs = linalg.mat_mul(rt_torus.rt_rep_matrix((1, 1), r), m)
        return linalg.mat_eq(lhs, rhs), {"twist": m}
    return check


def _twist_solve(r):
    def check():
        c = rt_torus.f_of_twist_solve(r)
        ok = True
        for k in range(1, r):
            lhs = scalar.CycScalar.zero(r)
            for j in range(1, r):
                lhs = lhs + scalar.qint(k * j, r) * c[j - 1]
            ok = ok and lhs == scalar.qint(k, r) * scalar.t_power(r, -k * k)
        return ok, {"c": c}
    return check


def _abelian_egorov_full(word, N):
    def check():
        rho = heisenberg.fourier_word_exact(word, N)
        labels = [(p, q) for p in range(N) for q in range(N)]
        return _abelian_egorov(rho, word, N, labels), {"rho": rho}
    return check


def _heis_homomorphism(pairs):
    def check():
        ok = True
        images = []
        for N, x, y in pairs:
            xy = heisenberg.heis_reduce(heisenberg.heis_mul(x, y), N)
            prod = heisenberg.finite_mul(heisenberg.heis_reduce(x, N), heisenberg.heis_reduce(y, N))
            ok = ok and xy == prod
            images.append(tuple(xy))
        return ok, images
    return check


def _colorings(genus, r):
    def check():
        count, _ = quantum_group.admissible_colorings(quantum_group.caterpillar_graph(genus), r)
        return count == round(quantum_group.verlinde_numeric(genus, r)), {"count": count}
    return check


def make_checks(workload, inputs):
    """The ordered checks of one workload over its generated inputs."""
    if workload == "modular-products":
        checks = [
            Check(f"kac_peterson_r{r}", _kac_peterson(w, r), True)
            for r, w in inputs["modular_words"].items()
        ]
        checks += [
            Check(f"fourier_exact_N{n}", _fourier_exact(w, n), True)
            for n, w in inputs["fourier_words"].items()
        ]
        checks.append(
            Check(f"rho_word_numeric_r{NUMERIC_R}",
                  _rho_word_numeric(inputs["numeric_rt_word"], NUMERIC_R), True)
        )
        checks.append(
            Check(f"fourier_numeric_N{NUMERIC_N}",
                  _fourier_numeric(inputs["numeric_abelian_word"], NUMERIC_N), True)
        )
        return checks
    if workload == "span-elimination":
        checks = [
            Check(f"skein_roundtrip_r{SKEIN_R}_{i}", _skein_roundtrip(w, SKEIN_R), True)
            for i, w in enumerate(inputs["skein_words"])
        ]
        checks.append(Check(f"svn_irreducibility_r{SVN_R}", _svn(SVN_R), False))
        return checks
    if workload == "statement-sweep":
        checks = [Check(f"equivalence_r{EQUIVALENCE_R}", _equivalence(EQUIVALENCE_R), False)]
        checks += [Check(f"presentation_r{r}", _presentation(r), False) for r in PRESENTATION_RS]
        checks.append(Check("presentation_generic", _presentation(None), False))
        checks += [Check(f"twist_egorov_r{r}", _twist_egorov(r), False) for r in TWIST_RS]
        checks.append(Check(f"twist_solve_r{TWIST_SOLVE_R}", _twist_solve(TWIST_SOLVE_R), False))
        checks += [
            Check(f"abelian_egorov_N{EGOROV_N}_{i}", _abelian_egorov_full(w, EGOROV_N), True)
            for i, w in enumerate(inputs["egorov_words"])
        ]
        checks.append(Check("heis_homomorphism", _heis_homomorphism(inputs["heis_pairs"]), True))
        checks.append(
            Check(f"colorings_g{COLORING_GENUS}_r{COLORING_R}",
                  _colorings(COLORING_GENUS, COLORING_R), False)
        )
        return checks
    raise ValueError(f"unknown workload {workload!r}")
