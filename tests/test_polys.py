import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_factor, gf_gcd, gf_irreducible_p, gf_pow_mod, gf_rem,
                                         gf_sub)

from permdyn import _kernels, numth, polys
from permdyn.context import base_field
from permdyn.errors import PreconditionError
from permdyn.fields import GF
from permdyn.polys import (
    Modulus, Poly, compose, count_irreducibles, enumerate_irreducibles, factor,
    first_irreducible, fold_mod, is_irreducible, poly_divmod, poly_gcd, powmod,
    psi_d, q_associate,
)
from permdyn.textio import parse_poly

from oracles import (compose_mod, linearized_eval, loop_gcd, loop_is_irreducible, loop_powmod,
                     recursive_psi_d)

F2 = GF.prime(2)
F3 = GF.prime(3)
F4 = GF.extension(F2, [1, 1, 1])
F9 = GF.extension(F3, first_irreducible(F3, 2).coeffs)


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


@pytest.mark.parametrize("coeffs,n", [([], 0), ([0], 0), ([0, 0, 0], 0), ([1], 1), ([0, 1], 2),
                                       ([2, 0, 1, 0, 0], 3), ([0, 0, 2], 3)], ids=str)
def test_trailing_zeros_are_trimmed(coeffs, n):
    f = Poly(F3, coeffs)
    assert f.coeffs.tolist() == coeffs[:n] and f.coeffs.dtype == np.int64


def test_trimming_a_long_array_keeps_its_nonzero_prefix():
    # the interpolant and fold_mod hand Poly arrays of Q entries whose top may be zero
    arr = np.zeros(1 << 20, dtype=np.int64)
    arr[[0, 5, (1 << 19) - 1]] = 1
    f = Poly(F2, arr)
    assert f.degree == (1 << 19) - 1 and np.count_nonzero(f.coeffs) == 3
    assert f.coeffs.base is None  # its own array, not a view of the caller's


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


@pytest.mark.parametrize("p,m,d", [(2, 1, 11), (2, 1, 12), (3, 1, 8), (3, 2, 4), (5, 1, 6),
                                   (2, 2, 5), (2, 3, 3), (7, 1, 2)], ids=str)
def test_psi_d_equals_the_recursive_division(p, m, d):
    field = base_field(p, m)
    assert psi_d(field, d) == recursive_psi_d(field, d)


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
    # one reducer per modulus meets the dividend lengths n .. 4n in ascending
    # order, so its inverse is lifted in the middle of the chain, and the
    # lengths from 2n on are reduced in blocks from the top (every 5th length
    # there above degree 64, and the last)
    F = GF.prime(p)
    rng = np.random.default_rng(p)
    for n in REDUCER_DEGREES:
        b = _modulus(rng, p, n)
        rem = F.kreducer(b)
        inv_lead = F.inv(int(b[-1]))
        step = 1 if n <= 64 else 5
        for length in [*range(n, 2 * n), *range(2 * n, 4 * n, step), 4 * n]:
            a = rng.integers(0, p, size=length)
            a[-1] = rng.integers(1, p)
            kept = a.copy()
            got = rem(a)
            assert np.array_equal(a, kept)
            assert np.array_equal(got, _kernels.divmod_p(a, b, p, inv_lead)[1])
            if n <= 31 or length in (n + 1, 2 * n - 1, 2 * n, 4 * n):
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
    # a dividend of any length is reduced in blocks, and h stays within n - 1
    a = rng.integers(0, p, size=5 * n)
    assert np.array_equal(rem(a), _kernels.divmod_p(a, b, p, F.inv(int(b[-1])))[1])
    assert len(rem.h) == n - 1


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_modulus_of_degree_one(p):
    # x - r: the reducer is long division, a remainder is the value at r, and
    # the Frobenius walk of the constant r stays at r
    F = GF.prime(p)
    rng = np.random.default_rng(400 + p)
    for r in sorted({0, 1, p - 1, int(rng.integers(0, p))}):
        b = np.array([F.neg(r), 1], dtype=np.int64)
        rem = F.kreducer(b)
        for length in range(1, 13):
            a = rng.integers(0, p, size=length)
            got = rem(a)
            if length > 1:
                assert np.array_equal(got, _kernels.divmod_p(a, b, p, 1)[1])
            assert _gf(got) == gf_rem(_gf(a), _gf(b), p, ZZ)
        ring = Modulus(Poly(F, b))
        for _ in range(5):
            dense = Poly(F, rng.integers(1, p, size=int(rng.integers(2, 40))))
            sparse = Poly(F, [int(rng.integers(1, p))] + [0] * int(rng.integers(1, 200)) + [1])
            for a in (dense, sparse):
                assert ring.rem(a) == Poly.const(F, a(r))
        walk = ring.frobenius(Poly.x(F) % ring.mod)
        assert [next(walk) for _ in range(6)] == [Poly.const(F, r)] * 6


def _sparse_dividends(rng, field, maxdeg=4096):
    """q-associates of random h, and random polynomials of 1 to 6 terms and degree
    maxdeg/2 to maxdeg."""
    q = field.order
    out = []
    for d in range(1, int(np.log(maxdeg) / np.log(q) + 1e-9) + 1):
        h = rng.integers(0, q, size=d + 1)
        h[-1] = rng.integers(1, q)
        out.append(q_associate(Poly(field, h)))
    for terms in (1, 2, 3, 6):
        a = np.zeros(int(rng.integers(maxdeg // 2, maxdeg + 1)) + 1, dtype=np.int64)
        a[rng.choice(len(a) - 1, terms - 1, replace=False)] = rng.integers(1, q, size=terms - 1)
        a[-1] = rng.integers(1, q)
        out.append(Poly(field, a))
    return out


def _rem_sparsely(mod, a):
    """Modulus(mod).rem(a), and whether every reduction it made was of a product of two
    remainders (the sparse path) rather than of a itself."""
    ring = Modulus(mod)
    lengths, rem = [], ring._rem
    ring._rem = lambda c: lengths.append(len(c)) or rem(c)
    got = ring.rem(a)
    return got, max(lengths, default=0) < 2 * mod.degree


@pytest.mark.parametrize("p", [2, 3, 7])
def test_modulus_rem_of_sparse_dividends_equals_sympy(p):
    # one chain of squarings serves every term; above degree 2048 the cost rule
    # takes the sparse path for these moduli
    F = GF.prime(p)
    rng = np.random.default_rng(500 + p)
    for n in (1, 2, 5, 11, 20):
        mod = Poly(F, _modulus(rng, p, n))
        for a in _sparse_dividends(rng, F):
            got, sparse = _rem_sparsely(mod, a)
            assert got.degree < n
            assert _gf(got.coeffs) == gf_rem(_gf(a.coeffs), _gf(mod.coeffs), p, ZZ)
            assert sparse or a.degree < 2048


@pytest.mark.parametrize("field", [F4, GF.extension(F2, [1, 1, 0, 1]), F9], ids=["F4", "F8", "F9"])
def test_table_mode_modulus_rem_of_sparse_dividends_equals_long_division(field):
    rng = np.random.default_rng(600 + field.order)
    for n in (1, 3, 6):
        mod = _random_poly(rng, field, n)
        while mod.degree != n:
            mod = _random_poly(rng, field, n)
        for a in _sparse_dividends(rng, field):
            got, sparse = _rem_sparsely(mod, a)
            assert got == a % mod
            assert sparse or a.degree < 2048


@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_modulus_rem_modulo_a_period_equals_the_powers_of_x(field):
    # modulo an irreducible g of degree n other than x, x^(Q-1) = 1 with Q = q^n, so rem
    # may read exponents modulo Q - 1, a negative residue as a power of x^-1. Sparse
    # dividends with exponents on both sides of (Q - 1)/2 and at Q - 1, shifted by
    # multiples of Q - 1 to degree 1024 or more (so that the sparse path runs), equal the
    # sum of their terms by loop_powmod; a modulus divisible by x has no x^-1 and ignores
    # the period
    rng = np.random.default_rng(700 + field.order)
    q, x = field.order, Poly.x(field)
    for n in (n for n in (1, 2, 3, 5) if q ** n <= 1024):
        Q = q ** n
        irreducibles = [g for g in enumerate_irreducibles(field, n) if g.coeff(0)]
        moduli = [irreducibles[int(rng.integers(len(irreducibles)))] for _ in range(2)]
        moduli.append(x * irreducibles[0])
        spots = [Q - 2, Q - 1, Q, (Q - 1) // 2, (Q + 1) // 2, 2 * Q - 3]
        shift = -(-1024 // (Q - 1)) * (Q - 1)
        for g in moduli:
            for _ in range(4):
                exps = {int(e) + int(rng.integers(1, 4)) * shift
                        for e in rng.choice(spots, size=int(rng.integers(1, 4)))}
                coeffs = np.zeros(max(exps) + 1, dtype=np.int64)
                coeffs[0] = rng.integers(field.order)
                coeffs[sorted(exps)] = rng.integers(1, field.order, size=len(exps))
                a = Poly(field, coeffs)
                want = Poly.const(field, int(coeffs[0])) % g
                for e in sorted(exps):
                    want = want + loop_powmod(x, e, g).scale(int(coeffs[e]))
                assert Modulus(g).rem(a, period=Q - 1) == want, (g, exps)


def test_x_to_the_Q_minus_2_modulo_a_period_takes_no_product(monkeypatch):
    # x^(Q-2) + 1 is the Moebius representative of M[1,1,1,0]; modulo an irreducible of
    # degree n it is x^-1 + 1, read off the modulus with no product, where the chain of
    # squares of x takes 17: x^1022 is 9 squarings and 8 products of squares
    g = first_irreducible(F2, 10)
    a = Poly.one(F2).shift(2 ** 10 - 2) + Poly.one(F2)
    products = []
    real = Modulus.mul
    monkeypatch.setattr(Modulus, "mul", lambda ring, u, v: products.append(1) or real(ring, u, v))
    assert Modulus(g).rem(a, period=2 ** 10 - 1) == a % g
    assert not products
    assert Modulus(g).rem(a) == a % g
    assert len(products) == 9 + 8


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
    # every polynomial product over F_2 is a conv_p, whether GF.kconv or RemP
    # forms it; the walk may not take more of them than one powmod from x for
    # each prime of the degree, plus x^(q^n)
    calls = [0]
    conv_p = _kernels.conv_p

    def counted(a, b, p):
        calls[0] += 1
        return conv_p(a, b, p)

    monkeypatch.setattr(_kernels, "conv_p", counted)

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


# -- Euclid on arrays, the spread walk and Rabin's test, against sympy ----------

WALK_DEGREES = [1, 2, 3, 5, 8, 20, 64, 140, 300]
F25 = GF.extension(GF.prime(5), first_irreducible(GF.prime(5), 2).coeffs)


def _gcd_pairs(rng, field, n):
    """Operand pairs with a of degree n: random, zero, constant, equal degree,
    one dividing the other, and a common factor of degree about n / 2."""
    def rand(d):
        c = rng.integers(0, field.order, size=d + 1)
        c[-1] = rng.integers(1, field.order)
        return Poly(field, c)

    a, b, c = rand(n), rand(n), rand(max(n // 2, 1))
    zero, const = Poly.zero(field), rand(0)
    return [(a, rand(max(n - 3, 0))), (a, zero), (zero, a), (a, const), (const, zero),
            (a, b), (a, a.scale(field.order - 1)), (a * c, c), (c, a * c),
            (a * c, b * c), (a * c * c, c * c * b)]


@pytest.mark.parametrize("p", REDUCER_PRIMES)
def test_gcd_equals_sympy(p):
    F = GF.prime(p)
    rng = np.random.default_rng(300 + p)
    for n in WALK_DEGREES:
        for a, b in _gcd_pairs(rng, F, n):
            got = poly_gcd(a, b)
            assert _gf(got.coeffs) == gf_gcd(_gf(a.coeffs), _gf(b.coeffs), p, ZZ)
            if n <= 64:
                assert got == loop_gcd(a, b)
    with pytest.raises(PreconditionError):
        F.kgcd(np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("field,maxdeg", [(F4, 40), (F9, 30), (F25, 20)],
                         ids=["F4", "F9", "F25"])
def test_table_mode_gcd_equals_loop_gcd(field, maxdeg):
    rng = np.random.default_rng(field.order)
    for n in (1, 2, 3, 5, 8, maxdeg):
        for a, b in _gcd_pairs(rng, field, n):
            assert poly_gcd(a, b) == loop_gcd(a, b)
    with pytest.raises(PreconditionError):
        poly_gcd(Poly.zero(field), Poly.zero(field))


def test_spread_cost_rule_sides():
    # spreads up to q = 7 in either mode, square and multiply from q = 8 on
    assert all(polys._spread_is_cheaper(q) for q in (2, 3, 4, 5, 7))
    assert not any(polys._spread_is_cheaper(q) for q in (8, 9, 11, 13, 16, 25, 27, 65521))


def _walk(mod, t, steps):
    walk = Modulus(mod).frobenius(t)
    return [next(walk) for _ in range(steps + 1)]


# (p, forced side of the cost rule or None for the rule's own choice); a
# spread over F_65521 has 65520 blocks, so that side is taken at p = 11 and 13
WALK_CASES = [(p, None) for p in REDUCER_PRIMES] + [
    (2, False), (3, False), (5, False), (7, False), (11, True), (13, True), (11, None)]


@pytest.mark.parametrize("p,spread", WALK_CASES)
def test_frobenius_walk_equals_sympy(p, spread, monkeypatch):
    if spread is not None:
        monkeypatch.setattr(polys, "_spread_is_cheaper", lambda q: spread)
    F = GF.prime(p)
    rng = np.random.default_rng(400 + p)
    for n in WALK_DEGREES:
        mod = Poly(F, _modulus(rng, p, n))
        gmod = _gf(mod.coeffs)
        x = Poly.x(F) % mod
        steps = 4 if n <= 20 else 2
        for i, t in enumerate(_walk(mod, x, steps)):
            if p ** i < 1 << 64:
                assert _gf(t.coeffs) == gf_pow_mod([1, 0], p ** i, gmod, p, ZZ)
        start = Poly(F, rng.integers(0, p, size=n))
        walked = _walk(mod, start, steps)
        for t, nxt in zip(walked, walked[1:]):
            assert nxt.degree < n
            assert _gf(nxt.coeffs) == gf_pow_mod(_gf(t.coeffs), p, gmod, p, ZZ)


@pytest.mark.parametrize("spread", [None, True, False], ids=["rule", "spread", "square"])
@pytest.mark.parametrize("field", [F4, F9, F25], ids=["F4", "F9", "F25"])
def test_table_mode_walk_equals_loop_powmod(field, spread, monkeypatch):
    if spread is not None:
        monkeypatch.setattr(polys, "_spread_is_cheaper", lambda q: spread)
    rng = np.random.default_rng(500 + field.order)
    q = field.order
    for n in (1, 2, 3, 7, 16):
        mod = _random_poly(rng, field, n)
        while mod.degree != n:
            mod = _random_poly(rng, field, n)
        for start in (Poly.x(field) % mod, Poly(field, rng.integers(0, q, size=n))):
            walked = _walk(mod, start, 3)
            for t, nxt in zip(walked, walked[1:]):
                assert nxt == loop_powmod(t, q, mod)


# the largest degree checked against sympy's (pure Python) Rabin test, per p
IRREDUCIBLE_MAXDEG = {2: 300, 3: 140, 5: 64, 7: 64, 65521: 20}


@pytest.mark.parametrize("p", REDUCER_PRIMES)
def test_is_irreducible_equals_sympy_up_to_high_degree(p):
    F = GF.prime(p)
    rng = np.random.default_rng(600 + p)
    for n in [d for d in WALK_DEGREES if d <= IRREDUCIBLE_MAXDEG[p]]:
        cases = [Poly(F, np.r_[rng.integers(0, p, size=n), 1]) for _ in range(3)]
        # an irreducible, found by search, and a product of two of them
        found = []
        while len(found) < 2 and n <= 64:
            f = Poly(F, np.r_[rng.integers(0, p, size=n), 1])
            if is_irreducible(f):
                found.append(f)
        cases += found + ([found[0] * found[1]] if found else [])
        for f in cases:
            assert is_irreducible(f) == gf_irreducible_p(_gf(f.coeffs), p, ZZ), str(f)


@pytest.mark.parametrize("field,maxdeg", [(F4, 6), (F9, 4), (F25, 3)], ids=["F4", "F9", "F25"])
def test_table_mode_is_irreducible_equals_loop(field, maxdeg):
    rng = np.random.default_rng(700 + field.order)
    for n in range(1, maxdeg + 1):
        for _ in range(40):
            f = Poly(field, np.r_[rng.integers(0, field.order, size=n), 1])
            assert is_irreducible(f) == loop_is_irreducible(f), str(f)


def test_is_irreducible_stops_at_the_first_failing_gcd(monkeypatch):
    # the gcds come in ascending order of n / l, and the walk goes no
    # further than the first that is not 1; sympy finds which one that is
    counts = {"gcd": 0, "steps": 0}
    gcd, frobenius = polys.poly_gcd, Modulus.frobenius

    def counted_gcd(a, b):
        counts["gcd"] += 1
        return gcd(a, b)

    def counted_walk(self, t):
        for u in frobenius(self, t):
            counts["steps"] += 1
            yield u

    monkeypatch.setattr(polys, "poly_gcd", counted_gcd)
    monkeypatch.setattr(Modulus, "frobenius", counted_walk)
    rng = np.random.default_rng(11)
    stops = set()
    for p, degrees in ((2, (4, 6, 12, 30, 60)), (3, (6, 12, 30)), (5, (6, 10))):
        for n in degrees:
            points = sorted(n // ell for ell in numth.factorint(n))
            F = GF.prime(p)
            # random monics, the square of an irreducible of degree n / 2, and
            # a product of irreducibles of degrees n / 2 - 1 and n / 2 + 1
            cases = [Poly(F, np.r_[rng.integers(0, p, size=n), 1]) for _ in range(30)]
            half = first_irreducible(F, n // 2)
            cases += [half * half,
                      first_irreducible(F, n // 2 - 1) * first_irreducible(F, n // 2 + 1)]
            for f in cases:
                gf = _gf(f.coeffs)
                first = next((i for i in points if len(gf_gcd(
                    gf_sub(gf_pow_mod([1, 0], p ** i, gf, p, ZZ), [1, 0], p, ZZ),
                    gf, p, ZZ)) > 1), None)
                stops.add(None if first is None else points.index(first))
                counts["gcd"] = counts["steps"] = 0
                verdict = is_irreducible(f)
                if first is None:
                    assert counts["gcd"] == len(points) and counts["steps"] == n + 1
                    assert verdict == gf_irreducible_p(gf, p, ZZ)
                else:
                    assert not verdict
                    assert counts["gcd"] == points.index(first) + 1
                    assert counts["steps"] == first + 1
    assert stops == {None, 0, 1, 2}  # every outcome, up to the third gcd for n = 30, 60
