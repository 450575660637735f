import numpy as np
import pytest

from permdyn import context
from permdyn.context import (
    DEFAULT_GUARD, conjugates, element_degree, embed_poly, enumerate_Ck, frobenius,
    make_field_ctx, minimal_poly, restrict_poly, roots_in_ext,
)
from permdyn.dynamics import period_Ck
from permdyn.errors import GuardExceeded, PreconditionError
from permdyn.numth import divisors, moebius
from permdyn.polys import Poly, compose, enumerate_irreducibles, is_irreducible
from permdyn.textio import parse_poly

from oracles import distinguished_root


def test_default_moduli_are_lex_smallest():
    ctx = make_field_ctx(2, 1, 4)
    assert str(ctx.ext_modulus) == "x^4+x+1"
    ctx = make_field_ctx(3, 1, 3)
    assert str(ctx.ext_modulus) == "x^3+2x+1"
    ctx = make_field_ctx(2, 2, 3)
    assert str(ctx.base_modulus) == "x^2+x+1"


def test_ctx_cache_returns_same_object():
    a = make_field_ctx(2, 1, 4)
    b = make_field_ctx(2, 1, 4)
    assert a is b
    f = parse_poly(a.Fq, "x^4+x^3+1")
    c = make_field_ctx(2, 1, 4, ext_modulus=f)
    d = make_field_ctx(2, 1, 4, ext_modulus=f)
    assert c is d
    assert c is not a


@pytest.mark.parametrize("pmk,other", [
    ((2, 1, 16), "x^16+x^5+x^3+x^2+1"),
    ((3, 2, 3), "x^3+x+[1,1]"),
], ids=["prime", "tower"])
@pytest.mark.parametrize("default_first", [True, False], ids=["default_first", "explicit_first"])
def test_default_modulus_spelled_out_names_the_same_context(monkeypatch, pmk, other,
                                                            default_first):
    monkeypatch.setattr(context, "_CTX_CACHE", {})
    modulus = make_field_ctx(*pmk).ext_modulus
    monkeypatch.setattr(context, "_CTX_CACHE", {})
    spellings = [modulus, modulus.coeffs, [int(c) for c in modulus.coeffs]]
    if default_first:
        a = make_field_ctx(*pmk)
        explicit = [make_field_ctx(*pmk, ext_modulus=s) for s in spellings]
    else:
        explicit = [make_field_ctx(*pmk, ext_modulus=s) for s in spellings]
        a = make_field_ctx(*pmk)
    assert all(b is a for b in explicit)
    assert {id(c) for c in context._CTX_CACHE.values()} == {id(a)}
    # a different modulus is a different context
    c = make_field_ctx(*pmk, ext_modulus=parse_poly(a.Fq, other))
    assert c is not a and c.key != a.key and c.Fqk is not a.Fqk
    assert make_field_ctx(*pmk) is a


def test_guard():
    with pytest.raises(GuardExceeded):
        make_field_ctx(2, 1, 21)
    with pytest.raises(GuardExceeded):
        make_field_ctx(2, 1, 4, guard=8)
    ctx = make_field_ctx(2, 1, 4, guard=16)
    assert ctx.Q == 16
    assert DEFAULT_GUARD == 1 << 20


def test_bad_parameters():
    with pytest.raises(PreconditionError):
        make_field_ctx(2, 0, 3)
    with pytest.raises(PreconditionError):
        make_field_ctx(2, 1, 0)
    with pytest.raises(PreconditionError):
        make_field_ctx(2, 1, 4, ext_modulus=[1, 1, 1, 0, 1])  # reducible
    with pytest.raises(PreconditionError):
        make_field_ctx(2, 1, 4, ext_modulus=[1, 1, 1])  # wrong degree


@pytest.mark.parametrize("p,m,k", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_tower_shape(p, m, k):
    ctx = make_field_ctx(p, m, k)
    assert ctx.q == p ** m
    assert ctx.Q == ctx.q ** k
    assert ctx.Fqk.order == ctx.Q
    assert ctx.ext_modulus.degree == k
    assert is_irreducible(ctx.ext_modulus)


def test_frobenius_fixes_exactly_subfields():
    ctx = make_field_ctx(2, 1, 4)
    for a in range(ctx.Q):
        d = element_degree(ctx, a)
        assert frobenius(ctx, a, d) == a
        assert all(frobenius(ctx, a, s) != a for s in divisors(ctx.k) if s < d)
    fixed = [a for a in range(ctx.Q) if frobenius(ctx, a) == a]
    assert fixed == list(range(ctx.q))


def test_conjugates_partition():
    ctx = make_field_ctx(3, 1, 2)
    seen = []
    for a in range(ctx.Q):
        orbit = conjugates(ctx, a)
        assert len(orbit) == element_degree(ctx, a)
        if a == min(orbit):
            seen.extend(orbit)
    assert sorted(seen) == list(range(ctx.Q))


def test_minimal_poly_props():
    ctx = make_field_ctx(2, 1, 4)
    for a in range(ctx.Q):
        f = minimal_poly(ctx, a)
        assert f.field == ctx.Fq
        assert is_irreducible(f)
        assert f.degree == element_degree(ctx, a)
        assert embed_poly(ctx, f)(a) == 0


def test_enumerate_Ck_counts():
    for p, m, k in ((2, 1, 4), (2, 1, 6), (3, 1, 3), (2, 2, 2)):
        ctx = make_field_ctx(p, m, k)
        els = enumerate_Ck(ctx)
        want = sum(moebius(k // d) * ctx.q ** d for d in divisors(k))
        assert len(els) == want
        assert np.array_equal(np.sort(els), els)
        assert all(element_degree(ctx, int(a)) == k for a in els)


def test_roots_and_distinguished_root():
    ctx = make_field_ctx(2, 1, 4)
    for f in enumerate_irreducibles(ctx.Fq, 4):
        rs = roots_in_ext(ctx, f)
        assert len(rs) == 4
        assert distinguished_root(ctx, f) == min(rs)
        g = embed_poly(ctx, f)
        assert all(g(r) == 0 for r in rs)
        assert minimal_poly(ctx, distinguished_root(ctx, f)) == f
    for f in (parse_poly(ctx.Fq, "x+1"), parse_poly(ctx.Fq, "x^4+1"), Poly.zero(ctx.Fq)):
        with pytest.raises(PreconditionError):
            distinguished_root(ctx, f)
    # a non-monic f is refused, as diamond, period_Ik and iterate_generation refuse it
    ctx = make_field_ctx(3, 1, 2)
    f = parse_poly(ctx.Fq, "x^2+1")
    assert distinguished_root(ctx, f) == min(roots_in_ext(ctx, f))
    with pytest.raises(PreconditionError):
        distinguished_root(ctx, f.scale(2))


@pytest.mark.parametrize("a", [-3, -1, 16, 16 + 83])
@pytest.mark.parametrize("entry", [
    frobenius,
    element_degree,
    conjugates,
    minimal_poly,
    lambda ctx, a: period_Ck(ctx, Poly.x(ctx.Fq).shift(6), a),
], ids=["frobenius", "element_degree", "conjugates", "minimal_poly", "period_Ck"])
def test_element_encoding_outside_the_field_is_refused(entry, a):
    ctx = make_field_ctx(2, 1, 4)
    with pytest.raises(PreconditionError):
        entry(ctx, a)


def test_embed_restrict_roundtrip():
    ctx = make_field_ctx(2, 2, 3)
    f = parse_poly(ctx.Fq, "x^3+[0,1]x+1")
    g = embed_poly(ctx, f)
    assert g.field == ctx.Fqk
    assert restrict_poly(ctx, g) == f
    h = parse_poly(ctx.Fqk, "x+[0,0,1]")  # coefficient outside F_q
    with pytest.raises(PreconditionError):
        restrict_poly(ctx, h)


def test_k1_degenerate_tower():
    ctx = make_field_ctx(3, 1, 1)
    assert ctx.Fqk is ctx.Fq
    assert ctx.Q == 3
    els = enumerate_Ck(ctx)
    assert len(els) == 3
    assert minimal_poly(ctx, 2) == parse_poly(ctx.Fq, "x+1")


def test_frobenius_is_field_automorphism():
    ctx = make_field_ctx(2, 2, 2)
    F = ctx.Fqk
    for a in range(ctx.Q):
        for b in range(ctx.Q):
            assert frobenius(ctx, F.add(a, b)) == F.add(frobenius(ctx, a), frobenius(ctx, b))
            assert frobenius(ctx, F.mul(a, b)) == F.mul(frobenius(ctx, a), frobenius(ctx, b))


def test_compose_with_embed_consistent():
    ctx = make_field_ctx(3, 1, 2)
    f = parse_poly(ctx.Fq, "x^2+x+2")
    P = parse_poly(ctx.Fq, "x^3+2x")
    lhs = embed_poly(ctx, compose(f, P))
    rhs = compose(embed_poly(ctx, f), embed_poly(ctx, P))
    assert lhs == rhs
