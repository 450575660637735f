import functools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from permdyn.context import conjugates, frobenius_orbits, make_field_ctx, roots_in_ext
from permdyn.errors import PreconditionError
from permdyn.numth import euler_phi
from permdyn.orders import (
    fq_order, mult_order, norm_of, phi_q, poly_order, trace_of,
)
from permdyn.polys import Poly, enumerate_irreducibles, factor, poly_gcd, powmod
from permdyn.textio import parse_poly

from oracles import distinguished_root, linearized_eval

CTX24 = make_field_ctx(2, 1, 4)
CTX33 = make_field_ctx(3, 1, 3)


def P(field, text):
    return parse_poly(field, text)


def test_mult_order_pins():
    Fq = CTX24.Fq
    assert mult_order(CTX24, P(Fq, "x^4+x+1")) == 15
    assert mult_order(CTX24, P(Fq, "x^4+x^3+x^2+x+1")) == 5
    assert mult_order(CTX24, P(Fq, "x+1")) == 1
    assert mult_order(CTX33, P(CTX33.Fq, "x+1")) == 2  # root is -1


def test_mult_order_matches_root_order():
    for f in enumerate_irreducibles(CTX24.Fq, 4):
        e = mult_order(CTX24, f)
        a = distinguished_root(CTX24, f)
        assert CTX24.Fqk.pow(a, e) == 1
        for d in range(1, e):
            if e % d == 0:
                assert CTX24.Fqk.pow(a, d) != 1


def test_mult_order_counts_primitive_polys():
    prim = [f for f in enumerate_irreducibles(CTX24.Fq, 4)
            if mult_order(CTX24, f) == 15]
    assert len(prim) == euler_phi(15) // 4 == 2


def test_mult_order_rejects_x_and_reducible():
    with pytest.raises(PreconditionError):
        mult_order(CTX24, Poly.x(CTX24.Fq))
    with pytest.raises(PreconditionError):
        mult_order(CTX24, P(CTX24.Fq, "x^2+1"))


def test_fq_order_pins():
    Fq = CTX24.Fq
    assert fq_order(CTX24, P(Fq, "x+1")) == P(Fq, "x+1")
    assert fq_order(CTX24, Poly.x(Fq)) == Poly.one(Fq)
    # x^4+x^3+x^2+x+1 has trace 1, so its roots are normal: order x^4 - 1
    assert fq_order(CTX24, P(Fq, "x^4+x^3+x^2+x+1")) == P(Fq, "x^4+1")


def test_fq_order_annihilates_and_is_minimal():
    for ctx in (CTX24, CTX33):
        xk1 = P(ctx.Fq, "x^%d" % ctx.k) - Poly.one(ctx.Fq)
        for f in enumerate_irreducibles(ctx.Fq, ctx.k):
            h = fq_order(ctx, f)
            assert h.leading() == 1
            assert (xk1 % h).is_zero
            a = distinguished_root(ctx, f)
            assert linearized_eval(h, ctx.Fqk, a) == 0
            for enc in range(1, ctx.q ** h.degree):
                g = Poly.from_encoding(ctx.Fq, enc)
                if g.degree < h.degree and g.leading() == 1 and (h % g).is_zero:
                    assert linearized_eval(g, ctx.Fqk, a) != 0


def test_phi_q_pins():
    Fq = CTX24.Fq
    assert phi_q(Poly.x(Fq)) == 1
    assert phi_q(P(Fq, "x^2")) == 2
    assert phi_q(P(Fq, "x^4+1")) == 8  # (x+1)^4 over F_2
    assert phi_q(P(CTX33.Fq, "x^3+2x+1")) == 26
    xk1 = P(CTX33.Fq, "x^3") - Poly.one(CTX33.Fq)
    assert phi_q(xk1) == 18  # (x-1)^3 over F_3


def test_phi_q_counts_units():
    g = P(CTX33.Fq, "x^2+1")
    count = 0
    for enc in range(9):
        f = Poly.from_encoding(CTX33.Fq, enc)
        if not f.is_zero and poly_gcd(f, g).degree == 0:
            count += 1
    assert count == phi_q(g) == 8


def test_poly_order():
    F2 = CTX24.Fq
    F3 = CTX33.Fq
    assert poly_order(Poly.x(F2), P(F2, "x^4+x^3+x^2+x+1")) == 5
    assert poly_order(Poly.x(F3), P(F3, "x^2+1")) == 4
    assert poly_order(P(F3, "x+1"), P(F3, "x^2+1")) == 8
    with pytest.raises(PreconditionError):
        poly_order(P(F3, "x^2+1"), P(F3, "x^2+1"))


def test_poly_order_is_minimal():
    Fq = CTX33.Fq
    g = P(Fq, "x^2+1")
    for enc in (3, 4, 5, 7):
        f = Poly.from_encoding(Fq, enc)
        j = poly_order(f, g)
        assert powmod(f, j, g) == Poly.one(Fq)
        assert all(powmod(f, i, g) != Poly.one(Fq) for i in range(1, j))


def test_norm_trace_pins():
    Fq = CTX24.Fq
    f = P(Fq, "x^4+x+1")
    assert norm_of(CTX24, f) == 1
    assert trace_of(CTX24, f) == 0
    g = P(Fq, "x^4+x^3+x^2+x+1")
    assert trace_of(CTX24, g) == 1
    assert norm_of(CTX24, g) == 1


def test_norm_trace_match_root_product_and_sum():
    # the k roots of f in F_{q^k} are the conjugates of one root
    for ctx in (CTX24, CTX33):
        F = ctx.Fqk
        for f in enumerate_irreducibles(ctx.Fq, ctx.k):
            roots = [int(a) for a in roots_in_ext(ctx, f)]
            assert len(roots) == ctx.k
            assert norm_of(ctx, f) == functools.reduce(F.mul, roots, 1)
            assert trace_of(ctx, f) == functools.reduce(F.add, roots, 0)


def test_norm_trace_reject_wrong_degree():
    with pytest.raises(PreconditionError):
        norm_of(CTX24, P(CTX24.Fq, "x+1"))
    with pytest.raises(PreconditionError):
        trace_of(CTX24, P(CTX24.Fq, "x^2+x+1"))


# -- properties over towers with m = 1, 2, 3, against the orbit-table root ------

ORDER_TOWERS = [(2, 1, 4), (2, 1, 6), (2, 1, 8), (3, 1, 3), (3, 1, 4), (5, 1, 2), (7, 1, 2),
                (2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (5, 2, 2), (2, 3, 2), (2, 3, 3)]

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def member_and_root(draw):
    """A context, a member f of I_k and the root of f that the orbit table lists first."""
    ctx = make_field_ctx(*draw(st.sampled_from(ORDER_TOWERS)))
    orbits = frobenius_orbits(ctx)
    i = draw(st.integers(0, len(orbits.polys) - 1))
    root = int(orbits.roots[i])
    return ctx, orbits.poly(i), root, conjugates(ctx, root)


@PROPERTY
@given(member_and_root())
def test_mult_order_equals_the_order_of_the_table_root(case):
    ctx, f, alpha, _ = case
    if alpha == 0:
        with pytest.raises(PreconditionError):
            mult_order(ctx, f)
        return
    group = ctx.Q - 1
    assert mult_order(ctx, f) == group // math.gcd(int(ctx.Fqk.log[alpha]), group)


@PROPERTY
@given(member_and_root())
def test_fq_order_generates_the_annihilator_of_the_table_root(case):
    # the monic h | x^k - 1 with L_h(alpha) = 0 form the multiples of the F_q-order
    ctx, f, alpha, _ = case
    h = fq_order(ctx, f)
    xk1 = Poly.one(ctx.Fq).shift(ctx.k) - Poly.one(ctx.Fq)
    assert h.leading() == 1 and (xk1 % h).is_zero
    assert linearized_eval(h, ctx.Fqk, alpha) == 0
    for g, _ in factor(h):
        assert linearized_eval(h // g, ctx.Fqk, alpha) != 0


@PROPERTY
@given(member_and_root())
def test_norm_and_trace_equal_the_product_and_sum_of_the_table_orbit(case):
    ctx, f, _, conj = case
    F = ctx.Fqk
    assert norm_of(ctx, f) == functools.reduce(F.mul, conj, 1)
    assert trace_of(ctx, f) == functools.reduce(F.add, conj, 0)


def test_orders_refuse_a_polynomial_over_another_field():
    # x^3+2x+1 is irreducible of degree 3 over F_3; the context's F_q is F_2
    ctx = make_field_ctx(2, 1, 3)
    f = P(CTX33.Fq, "x^3+2x+1")
    for op in (norm_of, trace_of, mult_order, fq_order):
        with pytest.raises(PreconditionError, match="does not lie over F_q"):
            op(ctx, f)
