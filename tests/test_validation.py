"""Every input check raises its own error on a bad input."""
from fractions import Fraction

import pytest

from thetaforge import heisenberg as hz
from thetaforge import linalg, pillowcase, quantum_group as qg, rt_torus as rt
from thetaforge.scalar import CycScalar, cyclotomic_poly, gauss_sum, index_fold, qint
from thetaforge.sl2z import SL2Z, word_matrix


def _disconnected():
    # two theta graphs: every vertex has degree 3, but no edge joins them
    return qg.TrivalentGraph((0, 1, 2, 3), ((0, 1),) * 3 + ((2, 3),) * 3)


def _finite_mixed():
    return hz.finite_mul(hz.heis_reduce(hz.HeisElt(1, 0, 0), 2), hz.heis_reduce(hz.HeisElt(1, 0, 0), 4))


CASES = [
    # scalar
    ("cycscalar_order", lambda: CycScalar(0, ()), ValueError, "order parameter"),
    ("cycscalar_zero_den", lambda: CycScalar(3, (1,), 0), ZeroDivisionError, "zero denominator"),
    ("cycscalar_mixed_orders", lambda: CycScalar.one(3) + CycScalar.one(4), ValueError, "mixed cyclotomic"),
    ("cyclotomic_index", lambda: cyclotomic_poly(0), ValueError, "positive"),
    ("qint_r1", lambda: qint(1, 1), ValueError, "r >= 2"),
    ("gauss_sum_r1", lambda: gauss_sum(1, 1), ValueError, "r >= 2"),
    ("index_fold_r1", lambda: index_fold(1, 1), ValueError, "r must be >= 2"),
    # linalg
    ("mat_mul_empty", lambda: linalg.mat_mul([], [[CycScalar.one(3)]]), ValueError, "non-empty"),
    # sl2z
    ("word_matrix_exponent", lambda: word_matrix([("S", 1.5)]), TypeError, "exponent of 'S'"),
    # rt_torus
    ("skein_mode", lambda: rt.TorusSkein(1), ValueError, "mode must be"),
    ("skein_mixed_modes", lambda: rt.TorusSkein.curve(1, 0, 3) + rt.TorusSkein.curve(1, 0, 4), ValueError, "mixed skein"),
    ("rt_rep_mode", lambda: rt.rt_rep_matrix(rt.TorusSkein.curve(1, 0, 3), 4), ValueError, "matching reduced"),
    ("rt_rep_pair_r1", lambda: rt.rt_rep_matrix((1, 0), 1), ValueError, "r >= 2"),
    ("rt_rep_coefficient_order", lambda: rt.rt_rep_matrix(rt.TorusSkein(5, {(1, 0): 2 * CycScalar.one(3)}), 5), ValueError, "mixed cyclotomic"),
    ("rt_rep_unit_coefficient_order", lambda: rt.rt_rep_matrix(rt.TorusSkein(5, {(1, 0): CycScalar.one(3)}), 5), ValueError, "mixed cyclotomic"),
    ("curve_transform_det", lambda: rt.curve_transform(SL2Z(2, 0, 0, 1), 1, 0), ValueError, "unimodular"),
    ("project_generic", lambda: rt.project_solid_torus(rt.TorusSkein.curve(1, 0, rt.GENERIC)), ValueError, "reduced skein"),
    ("wilson_dimension", lambda: rt.wilson_matrix(1, 0, -1, 3), ValueError, "dimension"),
    ("skein_coefficient_order", lambda: rt.TorusSkein(5, {(1, 0): CycScalar.one(3)}), ValueError, "mixed cyclotomic"),
    ("skein_scaled_order", lambda: rt.TorusSkein(5, {(1, 0): 2}).scaled(CycScalar.one(3)), ValueError, "mixed cyclotomic"),
    ("rho_word_letter", lambda: rt.rho_word_exact([("X", 1)], 3), ValueError, "unknown generator"),
    ("rho_word_s_exponent", lambda: rt.rho_word_exact([("S", 1.5)], 3), TypeError, "exponent of 'S'"),
    ("rho_word_t_exponent", lambda: rt.rho_word_exact([("T", 1.5)], 3), TypeError, "exponent of 'T'"),
    # pillowcase
    ("weyl_cos_r1", lambda: pillowcase.weyl_cos_matrix((1, 0), 1), ValueError, "r must be >= 2"),
    ("wilson_decompose_dimension", lambda: pillowcase.wilson_decompose(1, 0, -1), ValueError, "dimension"),
    # heisenberg
    ("heis_alg_odd_n", lambda: hz.HeisAlgElt(3), ValueError, "even"),
    ("heis_alg_mixed_add", lambda: hz.HeisAlgElt.basis(2, 1, 0) + hz.HeisAlgElt.basis(4, 1, 0), ValueError, "mixed moduli"),
    ("finite_mul_mixed", _finite_mixed, ValueError, "mixed moduli"),
    ("heis_alg_coefficient_order", lambda: hz.HeisAlgElt(4, {(1, 0): CycScalar.one(5)}), ValueError, "mixed cyclotomic"),
    ("algebra_rep_coefficient_order", lambda: hz.algebra_rep(hz.HeisAlgElt(4, {(1, 0): CycScalar.one(5)})), ValueError, "mixed cyclotomic"),
    ("matrix_to_heisenberg_size", lambda: hz.matrix_to_heisenberg([[CycScalar.one(1)]], 2), ValueError, "size"),
    ("f_of_t_skein_odd_n", lambda: hz.f_of_t_skein(3), ValueError, "even"),
    ("lagrangian_zero", lambda: hz.LagrangianLine.of(0, 0), ValueError, "nonzero direction"),
    ("fourier_letter", lambda: hz.fourier_word_exact([("X", 1)], 4), ValueError, "unknown generator"),
    ("fourier_s_exponent", lambda: hz.fourier_word_exact([("S", 1.5)], 4), TypeError, "exponent of 'S'"),
    ("observable_exponent", lambda: hz.observable_action_matrix([("T", Fraction(1, 2))]), TypeError, "exponent of 'T'"),
    ("fourier_odd_n", lambda: hz.fourier_word_exact([("S", 1)], 3), ValueError, "even"),
    ("fourier_abelian_odd_n", lambda: hz.fourier_abelian([("S", 1)], 5), ValueError, "even"),
    ("t_heis_odd_n", lambda: hz.t_heis(3, 1), ValueError, "even"),
    # quantum_group
    ("d_iso_index", lambda: qg.d_iso(0, 5), ValueError, "k must lie"),
    ("fusion_level", lambda: qg.FusionElement(1), ValueError, "r must be >= 2"),
    ("fusion_basis_index", lambda: qg.FusionElement.basis(0, 5), ValueError, "out of range"),
    ("fusion_mixed_levels", lambda: qg.FusionElement.one(4) + qg.FusionElement.one(5), ValueError, "mixed levels"),
    ("fusion_chebyshev_index", lambda: qg.fusion_from_chebyshev(-1, 5), ValueError, ">= 0"),
    ("graph_vertexless", lambda: qg.TrivalentGraph((), ()), ValueError, "single circle"),
    ("graph_endpoint", lambda: qg.TrivalentGraph((0, 1), ((0, 1), (0, 1), (0, 2))), ValueError, "not a vertex"),
    ("graph_connected", _disconnected, ValueError, "connected"),
    ("caterpillar_genus", lambda: qg.caterpillar_graph(0), ValueError, "genus"),
    ("verlinde_genus", lambda: qg.verlinde_numeric(0, 5), ValueError, "genus"),
]


@pytest.mark.parametrize("call, error, match", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
