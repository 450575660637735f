import numpy as np
import pytest

from permdyn.errors import PreconditionError
from permdyn.fields import GF
from permdyn.polys import (
    Poly, compose, count_irreducibles, enumerate_irreducibles, factor,
    first_irreducible, fold_mod, is_irreducible, poly_divmod, poly_gcd, powmod,
    psi_d, q_associate,
)
from permdyn.textio import parse_poly

from oracles import compose_mod, linearized_eval

F2 = GF.prime(2)
F3 = GF.prime(3)
F4 = GF.extension(F2, [1, 1, 1])


def P(field, text):
    return parse_poly(field, text)


def _random_poly(rng, field, maxdeg):
    coeffs = rng.integers(0, field.order, size=int(rng.integers(1, maxdeg + 2)))
    return Poly(field, coeffs)


def test_constructors_and_accessors():
    f = P(F3, "2x^3+x+1")
    assert f.degree == 3
    assert f.leading() == 2
    assert f.coeff(0) == 1 and f.coeff(1) == 1 and f.coeff(2) == 0
    assert f.coeff(99) == 0
    assert not f.is_zero
    assert Poly.zero(F3).is_zero
    assert Poly.zero(F3).degree == -1
    assert Poly.one(F3) == Poly.const(F3, 1)
    assert Poly.x(F3) == P(F3, "x")


def test_encoding_roundtrip_constant_term_least_significant():
    f = P(F3, "x^2+2x+1")  # encoding 1 + 2*3 + 1*9 = 16
    assert f.encoding() == 16
    assert Poly.from_encoding(F3, 16) == f
    for enc in range(60):
        assert Poly.from_encoding(F3, enc).encoding() == enc


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_ring_axioms_random(field):
    rng = np.random.default_rng(field.order)
    for _ in range(15):
        a = _random_poly(rng, field, 6)
        b = _random_poly(rng, field, 6)
        c = _random_poly(rng, field, 4)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero(field)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_divmod_property(field):
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = _random_poly(rng, field, 9)
        b = _random_poly(rng, field, 4)
        if b.is_zero:
            continue
        q, r = poly_divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree


def test_divmod_by_zero_raises():
    with pytest.raises(PreconditionError):
        poly_divmod(P(F2, "x"), Poly.zero(F2))


def test_gcd_basics():
    a = P(F2, "x^2+1")  # (x+1)^2
    b = P(F2, "x^3+1")  # (x+1)(x^2+x+1)
    assert poly_gcd(a, b) == P(F2, "x+1")
    assert poly_gcd(a, Poly.zero(F2)) == a.monic()
    assert poly_gcd(Poly.zero(F2), b) == b.monic()
    with pytest.raises(PreconditionError):
        poly_gcd(Poly.zero(F2), Poly.zero(F2))


def test_gcd_divides_both():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = _random_poly(rng, F3, 8)
        b = _random_poly(rng, F3, 8)
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert (a % g).is_zero
        assert (b % g).is_zero
        assert g.leading() == 1


def test_powmod_matches_repeated_multiplication():
    mod = P(F3, "x^4+x+2")
    base = P(F3, "x^2+2x")
    acc = Poly.one(F3)
    for e in range(12):
        assert powmod(base, e, mod) == acc % mod
        acc = acc * base
    assert powmod(base, 3 ** 4, mod) == powmod(powmod(base, 9, mod), 9, mod)


def test_compose_and_compose_mod():
    f = P(F2, "x^2+x+1")
    g = P(F2, "x^3+x")
    h = compose(f, g)
    assert h == g * g + g + Poly.one(F2)
    mod = P(F2, "x^4+x+1")
    assert compose_mod(f, g, mod) == h % mod
    assert compose(f, Poly.x(F2)) == f


def test_compose_constant_inputs():
    f = P(F3, "x^2+1")
    assert compose(f, Poly.const(F3, 2)) == Poly.const(F3, f(2))
    assert compose(Poly.const(F3, 2), P(F3, "x^5")) == Poly.const(F3, 2)


def test_fold_mod_preserves_function():
    f = P(F2, "x^33+x^6+1")
    folded = fold_mod(f, 32)
    assert folded.degree < 32
    F32 = GF.extension(F2, [1, 0, 1, 0, 0, 1])
    xs = np.arange(32, dtype=np.int64)
    before = F32.keval(np.asarray(f.coeffs), xs)
    after = F32.keval(np.asarray(folded.coeffs), xs)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("field", [
    F2, GF.prime(7), F4,
    GF.extension(F3, first_irreducible(F3, 2).coeffs),
    GF.extension(GF.prime(5), first_irreducible(GF.prime(5), 2).coeffs),
], ids=["F2", "F7", "F4", "F9", "F25"])
def test_fold_mod_equals_remainder_by_x_Q_minus_x(field):
    rng = np.random.default_rng(11)
    x = Poly.x(field)
    for Q in (field.order, field.order ** 2):
        # 3Q - 2 coefficients fill the rows of Q - 1 exactly; the others leave padding
        for n in (2 * Q + 1, 3 * Q - 2, 2 * Q + Q // 2 + 1):
            coeffs = rng.integers(0, field.order, size=n)
            coeffs[-1] = 1
            f = Poly(field, coeffs)
            assert fold_mod(f, Q) == f % (x.shift(Q - 1) - x)


def test_is_irreducible_degree4_over_f2():
    irr = {"x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"}
    for enc in range(16, 32):
        f = Poly.from_encoding(F2, enc)
        assert is_irreducible(f) == (str(f) in irr)


def test_is_irreducible_edge_degrees():
    assert is_irreducible(P(F3, "x+2"))
    assert not is_irreducible(Poly.const(F3, 2))
    assert not is_irreducible(Poly.zero(F3))
    assert not is_irreducible(P(F2, "x^2+1"))
    assert is_irreducible(P(F4, "x^2+x+[0,1]"))


def test_enumerate_irreducibles_counts_and_order():
    names = [str(f) for f in enumerate_irreducibles(F2, 4)]
    assert names == ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"]
    encs = [f.encoding() for f in enumerate_irreducibles(F3, 3)]
    assert encs == sorted(encs)
    assert len(encs) == count_irreducibles(3, 3) == 8
    assert first_irreducible(F2, 4) == P(F2, "x^4+x+1")


@pytest.mark.parametrize("q,k,want", [
    (2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (2, 6, 9),
    (3, 1, 3), (3, 2, 3), (3, 3, 8), (4, 3, 20),
])
def test_count_irreducibles(q, k, want):
    assert count_irreducibles(q, k) == want


def test_psi_d_is_product_of_irreducibles():
    for d in (1, 2, 3, 4):
        psi = psi_d(F2, d)
        prod = Poly.one(F2)
        for f in enumerate_irreducibles(F2, d):
            prod = prod * f
        assert psi == prod


def test_xq_minus_x_factors_into_low_degrees():
    # x^(q^4) - x over F_2 is the product of psi_d over d | 4
    f = Poly.one(F2).shift(16) - Poly.x(F2)
    prod = psi_d(F2, 1) * psi_d(F2, 2) * psi_d(F2, 4)
    assert f == prod


def test_factor_recovers_multiplicities():
    f = P(F3, "x+1") * P(F3, "x+1") * P(F3, "x^2+1") * Poly.const(F3, 2)
    fac = factor(f)
    assert fac == [(P(F3, "x+1"), 2), (P(F3, "x^2+1"), 1)]
    g = psi_d(F2, 3)
    assert factor(g) == [(P(F2, "x^3+x+1"), 1), (P(F2, "x^3+x^2+1"), 1)]


def test_factor_random_products():
    rng = np.random.default_rng(31)
    pool = enumerate_irreducibles(F3, 1) + enumerate_irreducibles(F3, 2)
    for _ in range(10):
        picks = rng.integers(0, len(pool), size=3)
        f = Poly.const(F3, 2)
        for i in picks:
            f = f * pool[i]
        fac = factor(f)
        rebuilt = Poly.const(F3, f.leading())
        for g, m in fac:
            assert is_irreducible(g)
            for _ in range(m):
                rebuilt = rebuilt * g
        assert rebuilt == f
        degs = [(g.degree, g.encoding()) for g, _ in fac]
        assert degs == sorted(degs)


def test_q_associate():
    assert q_associate(P(F3, "x+1")) == P(F3, "x^3+x")
    assert q_associate(P(F2, "x^2+x+1")) == P(F2, "x^4+x^2+x")
    assert q_associate(Poly.one(F4)) == Poly.x(F4)


def test_linearized_eval_is_additive():
    h = P(F2, "x^2+x+1")
    F16 = GF.extension(F2, [1, 1, 0, 0, 1])
    L = q_associate(h)
    for a in range(16):
        got = linearized_eval(h, F16, a)
        assert got == F16.keval(np.asarray(L.coeffs), np.array([a]))[0]
    for a in range(16):
        for b in range(0, 16, 3):
            lhs = linearized_eval(h, F16, F16.add(a, b))
            rhs = F16.add(linearized_eval(h, F16, a), linearized_eval(h, F16, b))
            assert lhs == rhs


def test_str_matches_format():
    assert str(P(F3, "2x^2+x+1")) == "2x^2+x+1"
    assert str(Poly.zero(F2)) == "0"
