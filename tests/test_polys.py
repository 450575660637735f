import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_irreducible_p, gf_pow_mod, gf_rem

from permdyn import _kernels
from permdyn.errors import PreconditionError
from permdyn.fields import GF
from permdyn.polys import (
    Modulus, Poly, compose, count_irreducibles, enumerate_irreducibles, factor,
    first_irreducible, fold_mod, is_irreducible, poly_divmod, poly_gcd, powmod,
    psi_d, q_associate,
)
from permdyn.textio import parse_poly

from oracles import compose_mod, linearized_eval, loop_is_irreducible, loop_powmod

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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_matches_galoistools(p):
    # the distinct-degree stage keeps one Modulus per cofactor; every degree
    # up to 60, and products g^2 h for the multiplicities
    field = GF.prime(p)
    rng = np.random.default_rng(100 + p)
    cases = []
    for deg in range(1, 61):
        coeffs = rng.integers(0, p, size=deg + 1)
        coeffs[-1] = rng.integers(1, p)
        cases.append(Poly(field, coeffs))
    while len(cases) < 70:
        g = _random_poly(rng, field, 8)
        f = g * g * _random_poly(rng, field, 20)
        if f.degree >= 1:
            cases.append(f)
    for f in cases:
        _, want = gf_factor(_gf(f.coeffs), p, ZZ)
        want = sorted(((Poly(field, g[::-1]), m) for g, m in want),
                      key=lambda t: (t[0].degree, t[0].encoding()))
        assert factor(f) == want, str(f)


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


# -- the kept-modulus reducer, powmod and Rabin's test --------------------------

def _gf(coeffs):
    """sympy's galoistools form: descending ints without leading zeros."""
    return [int(c) for c in np.trim_zeros(np.asarray(coeffs), "b")[::-1]]


REDUCER_PRIMES = [2, 3, 5, 7, 65521]
REDUCER_DEGREES = [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 127, 300]


def _modulus(rng, p, n):
    """Random coefficients of degree n; the leading one is not 1 unless p == 2."""
    b = rng.integers(0, p, size=n + 1)
    b[-1] = rng.integers(2, p) if p > 2 else 1
    return b


@pytest.mark.parametrize("p", REDUCER_PRIMES)
def test_reducer_equals_long_division_at_every_dividend_length(p):
    # one reducer per modulus meets the dividend lengths n .. 2n - 1 in
    # ascending order, so its inverse is lifted in the middle of the chain
    F = GF.prime(p)
    rng = np.random.default_rng(p)
    for n in REDUCER_DEGREES:
        b = _modulus(rng, p, n)
        rem = F.kreducer(b)
        inv_lead = F.inv(int(b[-1]))
        for length in range(n, 2 * n):
            a = rng.integers(0, p, size=length)
            a[-1] = rng.integers(1, p)
            got = rem(a)
            assert np.array_equal(got, _kernels.divmod_p(a, b, p, inv_lead)[1])
            if n <= 31 or length in (n + 1, 2 * n - 1):
                assert _gf(got) == gf_rem(_gf(a), _gf(b), p, ZZ)


@pytest.mark.parametrize("p", REDUCER_PRIMES)
def test_reducer_on_sparse_and_zero_dividends(p):
    F = GF.prime(p)
    rng = np.random.default_rng(100 + p)
    for n in (1, 2, 5, 16, 127):
        b = _modulus(rng, p, n)
        rem = F.kreducer(b)
        inv_lead = F.inv(int(b[-1]))
        for length in sorted({n, min(n + 1, 2 * n - 1), (3 * n) // 2, 2 * n - 1}):
            dividends = [np.zeros(length, dtype=np.int64)]
            for j in sorted({0, n // 2, length - 1}):
                a = np.zeros(length, dtype=np.int64)
                a[j] = rng.integers(1, p)
                a[-1] = 1  # a monomial, or a binomial x^(length-1) + c x^j
                dividends.append(a)
            for a in dividends:
                got = rem(a)
                assert np.array_equal(got, _kernels.divmod_p(a, b, p, inv_lead)[1])
                assert _gf(got) == gf_rem(_gf(a), _gf(b), p, ZZ)
        assert len(rem(np.zeros(0, dtype=np.int64))) == 0


def test_reducer_lifts_the_inverse_only_as_far_as_quotients_need():
    p, n = 7, 64
    F = GF.prime(p)
    b = _modulus(np.random.default_rng(3), p, n)
    rem = _kernels.RemP(b, p, F.inv(int(b[-1])))
    rng = np.random.default_rng(4)

    def lifted_after(length):
        rem(rng.integers(1, p, size=length))
        return len(rem.h)

    assert lifted_after(n + 1) == 1
    assert lifted_after(n + 3) == 4
    assert lifted_after(n + 2) == 4
    assert lifted_after(2 * n - 1) == n - 1
    # h is the inverse of the reversed modulus to that precision
    one = np.zeros(n - 1, dtype=np.int64)
    one[0] = 1
    assert np.array_equal(np.convolve(rem.h, b[::-1])[:n - 1] % p, one)
    with pytest.raises(PreconditionError):
        rem(np.ones(2 * n, dtype=np.int64))


@pytest.mark.parametrize("p", REDUCER_PRIMES)
def test_powmod_equals_sympy(p):
    F = GF.prime(p)
    rng = np.random.default_rng(200 + p)
    for n in (1, 2, 5, 20, 64, 140):
        mod = Poly(F, _modulus(rng, p, n))
        for blen in (0, 1, n + 3, 2 * n + 5):
            base = Poly(F, rng.integers(0, p, size=blen))
            for e in (0, 1, 2, 3, p ** 3 + 1, 1 << 20, int(rng.integers(1, 1 << 40))):
                got = powmod(base, e, mod)
                assert got.degree < n
                assert _gf(got.coeffs) == gf_pow_mod(_gf(base.coeffs), e, _gf(mod.coeffs), p, ZZ)


F9 = GF.extension(F3, first_irreducible(F3, 2).coeffs)


@pytest.mark.parametrize("field", [F4, F9], ids=["F4", "F9"])
def test_table_mode_powmod_equals_long_division_powmod(field):
    rng = np.random.default_rng(field.order)
    for n in (1, 2, 3, 6, 11):
        for _ in range(3):
            mod = _random_poly(rng, field, n)
            if mod.degree < 1:
                continue
            base = _random_poly(rng, field, 2 * n)
            for e in (0, 1, 2, 5, field.order ** n, int(rng.integers(1, 1 << 40))):
                assert powmod(base, e, mod) == loop_powmod(base, e, mod)


def test_modulus_products_and_walk():
    f = P(F3, "2x^5+x^2+1")
    ring = Modulus(f)
    a, b = P(F3, "x^4+2x+1"), P(F3, "2x^3+x^2")
    assert ring.mul(a, b) == (a * b) % f
    assert ring.pow(a, 7) == loop_powmod(a, 7, f)
    walk = ring.frobenius(Poly.x(F3))
    for i in range(8):
        assert next(walk) == loop_powmod(Poly.x(F3), 3 ** i, f)
    with pytest.raises(PreconditionError):
        Modulus(Poly.const(F3, 2))


@pytest.mark.parametrize("p,maxdeg", [(2, 8), (3, 7), (5, 5)])
def test_is_irreducible_equals_sympy_on_every_monic(p, maxdeg):
    F = GF.prime(p)
    for d in range(1, maxdeg + 1):
        found = 0
        for enc in range(p ** d, 2 * p ** d):
            f = Poly.from_encoding(F, enc)
            want = gf_irreducible_p(_gf(f.coeffs), p, ZZ)
            assert is_irreducible(f) == want, str(f)
            found += want
        assert found == count_irreducibles(p, d)


@pytest.mark.parametrize("p,degs", [(3, (8,)), (5, (6, 7, 8))])
def test_is_irreducible_equals_sympy_on_sampled_monics(p, degs):
    F = GF.prime(p)
    rng = np.random.default_rng(p)
    for d in degs:
        for enc in rng.integers(p ** d, 2 * p ** d, size=300):
            f = Poly.from_encoding(F, int(enc))
            assert is_irreducible(f) == gf_irreducible_p(_gf(f.coeffs), p, ZZ), str(f)


@pytest.mark.parametrize("field,maxdeg", [(F4, 5), (F9, 3)], ids=["F4", "F9"])
def test_is_irreducible_counts_over_towers(field, maxdeg):
    for d in range(1, maxdeg + 1):
        assert len(enumerate_irreducibles(field, d)) == count_irreducibles(field.order, d)


def test_is_irreducible_walks_no_further_than_one_powmod_per_prime(monkeypatch):
    # every polynomial product is a kconv; the walk may not take more of them
    # than one powmod from x for each prime of the degree, plus x^(q^n)
    calls = [0]
    kconv = GF.kconv

    def counted(self, a, b):
        calls[0] += 1
        return kconv(self, a, b)

    monkeypatch.setattr(GF, "kconv", counted)

    def products(test, f):
        calls[0] = 0
        verdict = test(f)
        return verdict, calls[0]

    total = 0
    for enc in range(2, 1 << 13):
        f = Poly.from_encoding(F2, enc)
        got, walked = products(is_irreducible, f)
        want, looped = products(loop_is_irreducible, f)
        assert got == want and walked <= looped, str(f)
        total += walked
    assert total > 0
