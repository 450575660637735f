"""The one gate onto the tower: every entry that takes a context reads its polynomial
through context.restrict_poly, which takes a PermPoly of the context, or a Poly over
its F_q or F_{q^k} with coefficients in F_q, and refuses anything else."""

import re

import numpy as np
import pytest

from permdyn.context import (
    base_field, conjugates, element_degree, embed_poly, frobenius, make_field_ctx,
    minimal_poly, restrict_poly, roots_in_ext,
)
from permdyn.dynamics import (
    FunctionalGraph, diamond, fixed_count_formula, fixed_count_linearized,
    fixed_points_direct, graph_Ck, graph_Ik, invariant_report, moebius_star, period_Ck,
    period_Ik, spectrum_Ck, spectrum_Ik, star,
)
from permdyn.errors import InternalCheckError, PreconditionError
from permdyn.genirr import iterate_generation
from permdyn.orders import fq_order, mult_order, norm_of, trace_of
from permdyn.permgroup import (
    Matrix2, PermPoly, certify_perm, frobenius_stable, gk_compose, gk_inverse,
    lagrange_interpolate_all, moebius_eval, moebius_poly_rep, perm_table,
)
from permdyn.polys import Poly

from oracles import distinguished_root

CTX = make_field_ctx(2, 2, 2)     # F_4 inside F_16
OTHER = make_field_ctx(2, 2, 3)   # the same F_4, inside F_64
X7 = certify_perm(CTX, Poly(CTX.Fq, [0] * 7 + [1]))
F = Poly(CTX.Fq, [2, 1, 1])       # x^2+x+[0,1], irreducible: Tr(z) = 1
H = Poly(CTX.Fq, [2, 1])          # x+[0,1], prime to x^2 - 1
A = Matrix2(CTX.Fq, 1, 1, 1, 0)

# every context-taking entry, once per polynomial argument: (call, an input it accepts)
ENTRIES = {
    "context.restrict_poly": (lambda g: restrict_poly(CTX, g), F),
    "context.embed_poly": (lambda g: embed_poly(CTX, g), F),
    "context.roots_in_ext": (lambda g: roots_in_ext(CTX, g), F),
    "dynamics.star.P": (lambda g: star(CTX, g, F), X7),
    "dynamics.star.f": (lambda g: star(CTX, X7, g), F),
    "dynamics.diamond.P": (lambda g: diamond(CTX, g, F), X7),
    "dynamics.diamond.f": (lambda g: diamond(CTX, X7, g), F),
    "dynamics.fixed_points_direct": (lambda g: fixed_points_direct(CTX, g), X7),
    "dynamics.fixed_count_formula": (lambda g: fixed_count_formula(CTX, g), X7),
    "dynamics.fixed_count_linearized": (lambda g: fixed_count_linearized(CTX, g), H),
    "dynamics.graph_Ck": (lambda g: graph_Ck(CTX, g), X7),
    "dynamics.graph_Ik": (lambda g: graph_Ik(CTX, g), X7),
    "dynamics.period_Ck": (lambda g: period_Ck(CTX, g, distinguished_root(CTX, F)), X7),
    "dynamics.period_Ik.P": (lambda g: period_Ik(CTX, g, F), X7),
    "dynamics.period_Ik.f": (lambda g: period_Ik(CTX, X7, g), F),
    "dynamics.spectrum_Ck": (lambda g: spectrum_Ck(CTX, g), X7),
    "dynamics.spectrum_Ik": (lambda g: spectrum_Ik(CTX, g), X7),
    "dynamics.moebius_star": (lambda g: moebius_star(CTX, A, g), F),
    "dynamics.invariant_report.P": (lambda g: invariant_report(CTX, g, F), X7),
    "dynamics.invariant_report.f": (lambda g: invariant_report(CTX, X7, g), F),
    "permgroup.certify_perm": (lambda g: certify_perm(CTX, g), X7),
    "permgroup.perm_table": (lambda g: perm_table(CTX, g), X7),
    "permgroup.gk_compose.P": (lambda g: gk_compose(CTX, g, X7), X7),
    "permgroup.gk_compose.Q": (lambda g: gk_compose(CTX, X7, g), X7),
    "permgroup.gk_inverse": (lambda g: gk_inverse(CTX, g), X7),
    "permgroup.frobenius_stable": (lambda g: frobenius_stable(CTX, g), X7),
    "orders.mult_order": (lambda g: mult_order(CTX, g), F),
    "orders.fq_order": (lambda g: fq_order(CTX, g), F),
    "orders.norm_of": (lambda g: norm_of(CTX, g), F),
    "orders.trace_of": (lambda g: trace_of(CTX, g), F),
    "genirr.iterate_generation.P": (lambda g: iterate_generation(CTX, g, F), X7),
    "genirr.iterate_generation.f0": (lambda g: iterate_generation(CTX, X7, g), F),
}


def _refusals(good):
    """A Poly over another field, one with a coefficient >= q, and a PermPoly of another
    context, each with the message that the gate gives it."""
    coeffs = (good.poly if isinstance(good, PermPoly) else good).coeffs
    raised = coeffs.copy()
    raised[0] += CTX.q
    return [
        # F_8 has characteristic 2 too, and every coefficient here is an encoding of it
        (Poly(base_field(2, 3), coeffs), "neither F_q nor F_{q^k}"),
        (Poly(CTX.Fq, raised), "%d is not an element encoding of GF(2^2)" % raised[0]),
        # its polynomial lies over this context's F_4 with coefficients in range
        (certify_perm(OTHER, Poly(OTHER.Fq, [0] * 5 + [1])), "belongs to a different context"),
    ]


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_context_taking_entry_refuses_what_is_not_of_its_tower(entry):
    call, good = ENTRIES[entry]
    call(good)
    for bad, message in _refusals(good):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            call(bad)


@pytest.mark.parametrize("entry", [diamond, period_Ik, iterate_generation],
                         ids=["diamond", "period_Ik", "iterate_generation"])
def test_a_seed_with_an_aliasing_encoding_is_refused(entry):
    # x^2+x+6 has the encoding 26 of x^2+[0,1]x+[0,1], which these entries answered for
    with pytest.raises(PreconditionError, match=re.escape("6 is not an element encoding of GF(2^2)")):
        entry(CTX, X7, Poly(CTX.Fq, [6, 1, 1]))


def test_a_P_with_a_coefficient_outside_F_q_is_not_certified():
    # 7x was certified as [1,1]x; graph_Ik then failed its internal check and star indexed
    # past F_4's tables
    P = Poly(CTX.Fq, [0, 7])
    for call in (lambda: certify_perm(CTX, P), lambda: graph_Ik(CTX, P),
                 lambda: star(CTX, P, F), lambda: spectrum_Ik(CTX, P)):
        with pytest.raises(PreconditionError, match=re.escape("7 is not an element encoding of GF(2^2)")):
            call()


@pytest.mark.parametrize("value", [-1, 8, 99])
def test_lagrange_refuses_a_value_outside_F_q_k(value):
    ctx = make_field_ctx(2, 1, 3)
    values = list(range(ctx.Q))
    values[5] = value
    with pytest.raises(PreconditionError, match="%d is not an element encoding" % value):
        lagrange_interpolate_all(ctx, values)


@pytest.mark.parametrize("z", [-1, 16, 99, np.array([0, 3, 99])], ids=str)
def test_moebius_eval_refuses_a_point_outside_F_q_k(z):
    ctx = make_field_ctx(2, 1, 4)
    with pytest.raises(PreconditionError, match="is not an element encoding"):
        moebius_eval(ctx, Matrix2(ctx.Fq, 1, 1, 1, 0), z)


def test_the_moebius_entries_share_one_matrix_check():
    # moebius_eval took a matrix over F_2 in a context over F_4
    foreign = Matrix2(make_field_ctx(2, 1, 4).Fq, 1, 1, 1, 0)
    for entry in (lambda B: moebius_eval(CTX, B, 3), lambda B: moebius_poly_rep(CTX, B),
                  lambda B: moebius_star(CTX, B, F)):
        entry(A)
        with pytest.raises(PreconditionError, match="matrix entries must lie in F_q"):
            entry(foreign)


def test_iterate_generation_refuses_a_negative_step_count():
    assert iterate_generation(CTX, X7, F, max_steps=0).produced == [F]
    with pytest.raises(PreconditionError, match="max_steps must be >= 0"):
        iterate_generation(CTX, X7, F, max_steps=-1)


def test_functional_graph_builds_its_lists_on_each_read():
    g = FunctionalGraph(np.array([1, 0, 2], dtype=np.int32), np.array([2, 1]),
                        lambda idx: ["n%d" % i for i in idx])
    assert g.nodes == ["n0", "n1", "n2"] and g.cycles == [["n1", "n0"], ["n2"]]
    assert g.nodes is not g.nodes and g.cycles is not g.cycles
    g.cycles[0].reverse()
    assert g.cycles[0] == ["n1", "n0"]
    with pytest.raises(InternalCheckError, match="partition"):
        FunctionalGraph(np.arange(2), np.array([1]), np.ndarray.tolist)


# an encoding is an integer: a float was truncated to one, and an integer beyond
# int64 raised OverflowError, which is not a PermdynError
def test_an_extension_modulus_with_a_float_coefficient_is_refused():
    # [1.9, 1, 0, 1] built the tower of x^3+x+1
    with pytest.raises(PreconditionError, match="must be integers"):
        make_field_ctx(2, 1, 3, ext_modulus=[1.9, 1, 0, 1])


def test_lagrange_refuses_a_float_value():
    # [0.0, 1.7, 2.2, 3.9] interpolated to x
    with pytest.raises(PreconditionError, match="must be integers"):
        lagrange_interpolate_all(make_field_ctx(2, 1, 2), [0.0, 1.7, 2.2, 3.9])


@pytest.mark.parametrize("z", [2.5, np.array([2.5])], ids=str)
def test_moebius_eval_refuses_a_float_point(z):
    # 2.5 was answered for as 2
    ctx = make_field_ctx(2, 1, 4)
    with pytest.raises(PreconditionError, match="must be integers"):
        moebius_eval(ctx, Matrix2(ctx.Fq, 1, 1, 1, 0), z)


@pytest.mark.parametrize("entry", [
    lambda big: make_field_ctx(2, 1, 3, ext_modulus=[big, 1, 0, 1]),
    lambda big: lagrange_interpolate_all(make_field_ctx(2, 1, 2), [0, 1, big, 3]),
    lambda big: moebius_eval(make_field_ctx(2, 1, 4), Matrix2(make_field_ctx(2, 1, 4).Fq,
                                                                  1, 1, 1, 0), big),
    lambda big: Matrix2(make_field_ctx(2, 1, 4).Fq, big, 1, 1, 0),
], ids=["ext_modulus", "lagrange", "moebius_eval", "Matrix2"])
def test_an_encoding_beyond_int64_is_refused(entry):
    with pytest.raises(PreconditionError, match=str(2 ** 70)):
        entry(2 ** 70)


@pytest.mark.parametrize("coeffs", [[0, 1.9], [0, 2 ** 70]], ids=["float", "2**70"])
def test_a_polynomial_coefficient_must_be_an_int64_integer(coeffs):
    # [0, 1.9] was truncated to x, which certify_perm accepted
    with pytest.raises(PreconditionError, match="coefficients must be int64 integers"):
        Poly(CTX.Fq, coeffs)


def test_a_matrix_entry_must_be_an_integer():
    with pytest.raises(PreconditionError, match="outside the field"):
        Matrix2(make_field_ctx(2, 1, 4).Fq, 1.0, 1, 1, 0)


# every entry that takes one element of F_{q^k}, at (2,1,4), where 2 has degree 4:
# period_Ck read 2.7 and "2" by int() and answered 4, and the context entries
# indexed the field's tables with 2.7 (IndexError)
CTX24 = make_field_ctx(2, 1, 4)
X7_24 = certify_perm(CTX24, Poly(CTX24.Fq, [0] * 7 + [1]))
ELEMENT_ENTRIES = {
    "context.frobenius": lambda a: frobenius(CTX24, a),
    "context.element_degree": lambda a: element_degree(CTX24, a),
    "context.conjugates": lambda a: conjugates(CTX24, a),
    "context.minimal_poly": lambda a: minimal_poly(CTX24, a),
    "dynamics.period_Ck": lambda a: period_Ck(CTX24, X7_24, a),
}


@pytest.mark.parametrize("a", [2.7, np.float64(2.0), "2", True, [2], 2 ** 70, -1, CTX24.Q],
                         ids=repr)
@pytest.mark.parametrize("entry", sorted(ELEMENT_ENTRIES))
def test_an_element_argument_is_one_integer_encoding(entry, a):
    call = ELEMENT_ENTRIES[entry]
    assert call(2) == call(np.int64(2)) == call(np.array(2, dtype=np.uint8))
    with pytest.raises(PreconditionError, match="encoding"):
        call(a)
