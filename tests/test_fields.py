import hashlib
import tracemalloc

import numpy as np
import pytest

from permdyn import _kernels, numth
from permdyn.context import make_field_ctx
from permdyn.errors import GuardExceeded, PreconditionError
from permdyn.fields import GF
from permdyn.polys import Poly, first_irreducible

from oracles import ext_mul, matrix_doubling_tables

F2 = GF.prime(2)
F3 = GF.prime(3)
F4 = GF.extension(F2, [1, 1, 1])
F8 = GF.extension(F2, [1, 1, 0, 1])
F9 = GF.extension(F3, [1, 0, 1])
F16 = GF.extension(F2, [1, 1, 0, 0, 1])
F64 = GF.extension(F8, [3, 1, 1])  # tower: degree-2 step over F_8


def test_prime_rejects_composite():
    with pytest.raises(PreconditionError):
        GF.prime(9)


def test_extension_rejects_bad_modulus():
    with pytest.raises(PreconditionError):
        GF.extension(F2, [1, 1])  # degree 1
    with pytest.raises(PreconditionError):
        GF.extension(F3, [1, 0, 2])  # not monic
    with pytest.raises(ArithmeticError):
        GF.extension(F2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2 is reducible


# reducible moduli: each passes the generator search with a zero divisor,
# whose powers repeat, so the distinctness check of the exp table refuses it
@pytest.mark.parametrize("base,modulus", [
    (F2, [1, 0, 0, 1]),  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    (F3, [2, 0, 1]),     # x^2 + 2 = (x + 1)(x + 2)
    (F3, [0, 0, 1]),     # x^2
    (F4, [1, 0, 1]),     # (x + 1)^2 over F_4
    (F9, [2, 0, 1]),     # x^2 - 1 over F_9
    (F9, [1, 0, 1]),     # x^2 + 1 = (x - z)(x + z) over F_9 = F_3[z]/(z^2 + 1)
], ids=["F2:x3+1", "F3:x2+2", "F3:x2", "F4:(x+1)2", "F9:x2-1", "F9:x2+1"])
def test_reducible_modulus_raises_arithmetic_error(base, modulus):
    with pytest.raises(ArithmeticError):
        GF.extension(base, modulus)


@pytest.mark.parametrize("build", [
    lambda: make_field_ctx(2, 2, 2, ext_modulus=[2, 5, 1]),
    lambda: make_field_ctx(2, 2, 2, ext_modulus=[6, 1, 1]),
    lambda: make_field_ctx(2, 1, 3, ext_modulus=[1, 1, 2, 1]),
    lambda: GF.extension(GF.prime(2), [3, 1, 1]),
    lambda: GF.extension(GF.prime(2), [-1, 1, 1]),
], ids=["ctx-F4:[2,5,1]", "ctx-F4:[6,1,1]", "ctx-F2:[1,1,2,1]", "F2:[3,1,1]", "F2:[-1,1,1]"])
def test_modulus_coefficient_outside_the_base_field_is_refused(build):
    # unchecked, the first two raised IndexError in the irreducibility test
    # and the others built a field under a key of its own
    with pytest.raises(PreconditionError):
        build()


@pytest.mark.parametrize("field", [F2, F3, GF.prime(7)])
def test_prime_arithmetic_matches_ints(field):
    p = field.p
    for a in range(p):
        for b in range(p):
            assert field.add(a, b) == (a + b) % p
            assert field.sub(a, b) == (a - b) % p
            assert field.mul(a, b) == (a * b) % p
        assert field.neg(a) == (-a) % p
        if a:
            assert field.mul(a, field.inv(a)) == 1
        assert field.pow(a, 5) == pow(a, 5, p)


@pytest.mark.parametrize("field", [F4, F8, F9, F16, F64])
def test_field_axioms(field):
    els = list(field.elements())
    assert len(els) == field.order
    sample = els if field.order <= 16 else els[:8] + els[-8:]
    for a in sample:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
            assert field.pow(a, field.order - 1) == 1
        for b in sample:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in sample[:4]:
                lhs = field.mul(a, field.add(b, c))
                rhs = field.add(field.mul(a, b), field.mul(a, c))
                assert lhs == rhs


@pytest.mark.parametrize("field", [F4, F8, F9, F16])
def test_exp_log_tables(field):
    Q = field.order
    assert field.exp[0] == 1
    assert len(set(field.exp[:Q - 1].tolist())) == Q - 1
    for a in range(1, Q):
        assert field.exp[field.log[a]] == a
    g = field.generator
    acc = 1
    for i in range(Q - 1):
        assert field.exp[i] == acc
        acc = field.mul(acc, g)
    assert acc == 1


# F_{q^k} of make_field_ctx(p, m, k): name -> ((p, m, k), generator, sha256 of
# exp, sha256 of log), the arrays hashed as little-endian int64 bytes
PINNED_TABLES = {
    "F4": ((2, 1, 2), 2,
           "e19a24de5332afda9b9da5ab7a52428046469bc5c511d486b03db52959429b53",
           "bd2fbb4b3dcb9759dc89566c14a28f425b78dffd163b7e15d2301d757879480d"),
    "F8": ((2, 1, 3), 2,
           "e4d359ecb5428d6963c41c532ad9188827251d3ac32962399b440b60fdbd54e3",
           "72506e192248f1e3688781cec579cf156031e957a31ea6ec3545609405737370"),
    "F9": ((3, 1, 2), 4,
           "e0a0272ed039676c8d405a4fe4eea78d610b360f6d21b07715109d7f8aae6363",
           "270ed5f075d56f55fa5bfd4a085bfecb8b5160b62ce9b7e7323455960961d550"),
    "F16": ((2, 1, 4), 2,
            "3d3a720678913817870b099e4317b5d102c51c3efe1867edd1265dab94e36ea5",
            "6f02fb7556d70f5a82699ad0f7f84c391f4557190e64968399273a1fcc7077a1"),
    "F25": ((5, 1, 2), 6,
            "adb0a37381f1fc9f7565dd6abadfb5ab5f00f332eb2cd3b33fa90dac2a66d7d3",
            "eb48ca383d89873ca38cba36e5299e42757fbd6b577f3878febbecbf7bd640bc"),
    "F27": ((3, 1, 3), 3,
            "501a047a2bf1c04e27a6049a5f7de053d5fb57c071f654295a24c32850aba820",
            "22085886c12453b0e9e579ee482577dc54a8fcb20226123da539355283017b3a"),
    "F64/F8": ((2, 3, 2), 10,
               "4c6488d18eb3ddf7790659fd14e6c3a317aab6e1414a673801367ab026cc87d6",
               "6c6a098a86f711540dc63d5f26b78122d052844154516dddab06b1b396c242c8"),
    "F81/F9": ((3, 2, 2), 10,
               "b9e4b33415d21a549b3b9ec623ffd49412ede26b231236ad6076ae1a6276c24e",
               "ce73b98bcd82510e5b8776722feda21f5b1616331ebb5f5187d90f3ddc8042a6"),
    "F2^12": ((2, 1, 12), 3,
              "67ca909ae7888629c72ac0daf44232b596d128c6760a4d68e5c22abcfced8ddf",
              "49ad28db5e931208fa3e24539cc737672f23aaa31f7b17b87701406056e72ba3"),
    "F2^20": ((2, 1, 20), 2,
              "b2cce9e45be3e14117310c6920c06f7f94775485e3c0c74e74c47b79798e6d34",
              "b8ab97f94ba2e52bf4421952df49ebd6cb8dbc6b4e2a28843e9d1d4d4b446af4"),
}


def _sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_tables_match_pinned_digests(name):
    pmk, generator, exp_sha, log_sha = PINNED_TABLES[name]
    field = make_field_ctx(*pmk).Fqk
    assert (field.generator, _sha256(field.exp), _sha256(field.log)) == (
        generator, exp_sha, log_sha)


@pytest.mark.parametrize("name,stride", [
    ("F4", 1), ("F8", 1), ("F9", 1), ("F16", 1), ("F25", 1), ("F27", 1),
    ("F64/F8", 1), ("F81/F9", 1), ("F2^12", 15),
])
def test_exp_table_against_schoolbook_oracle(name, stride):
    # each power of the generator is the schoolbook product of the one before
    # and the generator, reduced mod the modulus without the field's tables
    field = make_field_ctx(*PINNED_TABLES[name][0]).Fqk
    Q, g = field.order, field.generator
    assert field.exp[0] == 1 and len(np.unique(field.exp[:Q - 1])) == Q - 1
    for i in range(0, Q - 1, stride):
        a = int(field.exp[i])
        assert ext_mul(field.base, field.modulus, g, a) == field.exp[(i + 1) % (Q - 1)]
        assert field.log[a] == i


# every tower F_p -> F_q -> F_{q^k} with q = p^m, k >= 2 and q^k <= 4096; the
# fields F_q with m >= 2 are the F_{q^k} of (p, 1, m)
ORACLE_TOWERS = [(p, m, k) for p in range(2, 65) if numth.is_prime(p)
                 for m in range(1, 7) for k in range(2, 13) if p ** (m * k) <= 4096]


@pytest.mark.parametrize("pmk", ORACLE_TOWERS, ids=lambda pmk: "%d-%d-%d" % pmk)
def test_tables_equal_the_matrix_doubling_build(pmk):
    field = make_field_ctx(*pmk).Fqk
    generator, exp, log = matrix_doubling_tables(field.base, field.modulus)
    assert field.generator == generator
    assert np.array_equal(field.exp, exp) and np.array_equal(field.log, log)


def test_table_build_allocates_no_digit_matrix():
    # at 2^20 the tables take 24 MB (exp 2Q-3, log Q int64 entries); a
    # (Q-1) x 20 int64 digit matrix alone would take 160 MB
    modulus = first_irreducible(F2, 20).coeffs
    tracemalloc.start()
    try:
        field = GF.extension(F2, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.order == 2 ** 20
    assert peak < 48 * 2 ** 20


def test_prime_field_above_the_int64_bound_is_refused():
    # p = 4294967311, the least prime above 2^32: (p - 1)^2 + p exceeds 2^63;
    # unchecked, the int64 square of (p - 1) + (p - 1)x read 4294967087x^2+...
    # where (x + 1)^2 = x^2+2x+1 is right
    with pytest.raises(GuardExceeded):
        GF.prime(4294967311)
    # 3037000493 and 3037000507 are the primes on either side of the bound
    with pytest.raises(GuardExceeded):
        GF.prime(3037000507)
    F = GF.prime(3037000493)
    p = F.p
    assert (p - 1) ** 2 + p < _kernels.INT64_BOUND
    assert Poly(F, [p - 1]) * Poly(F, [p - 1, p - 1]) == Poly(F, [1, 1])
    assert Poly(F, [p - 1, 0, 1])(p - 1) == 0
    assert F.mul(p - 1, p - 1) == 1 and F.inv(p - 1) == p - 1
    with pytest.raises(GuardExceeded):
        Poly(F, [p - 1, p - 1]) * Poly(F, [p - 1, p - 1])


def test_product_above_the_int64_bound_is_refused():
    # 2 * (p - 1)^2 < 2^63 <= 3 * (p - 1)^2 for p = 2^31 - 1
    F = GF.prime(2 ** 31 - 1)
    p = F.p
    a = Poly(F, [p - 1, p - 1])
    assert a * a == Poly(F, [1, 2, 1])
    b = Poly(F, [p - 1] * 3)
    with pytest.raises(GuardExceeded):
        b * b
    with pytest.raises(GuardExceeded):
        _kernels.conv_p(b.coeffs, b.coeffs, p)


def test_generator_has_full_order():
    for field in (F4, F8, F9, F16, F64):
        g = field.generator
        seen = set()
        acc = 1
        for _ in range(field.order - 1):
            seen.add(acc)
            acc = field.mul(acc, g)
        assert len(seen) == field.order - 1


def test_subfield_encodings_are_stable():
    # base-field scalars keep their encoding inside the extension
    for a in range(2):
        for b in range(2):
            assert F16.add(a, b) == F2.add(a, b)
            assert F16.mul(a, b) == F2.mul(a, b)
    for a in range(8):
        for b in range(8):
            assert F64.add(a, b) == F8.add(a, b)
            assert F64.mul(a, b) == F8.mul(a, b)


def test_char2_addition_is_xor():
    for a in range(16):
        for b in range(16):
            assert F16.add(a, b) == a ^ b


@pytest.mark.parametrize("field", [F3, F4, F9, F16])
def test_vector_ops_match_scalar(field):
    rng = np.random.default_rng(3)
    xs = rng.integers(0, field.order, size=50)
    ys = rng.integers(0, field.order, size=50)
    va = field.vadd(xs, ys)
    vm = field.vmul(xs, ys)
    vn = field.vneg(xs)
    vs = field.vmul(xs, 2 % field.order)
    vp = field.vpow(xs, 3)
    for i in range(len(xs)):
        a, b = int(xs[i]), int(ys[i])
        assert va[i] == field.add(a, b)
        assert vm[i] == field.mul(a, b)
        assert vn[i] == field.neg(a)
        assert vs[i] == field.mul(a, 2 % field.order)
        assert vp[i] == field.pow(a, 3)
    total = 0
    for a in xs:
        total = field.add(total, int(a))
    assert field.vsum(xs) == total


def test_decompose_compose_roundtrip():
    for a in range(F16.order):
        digits = F16.decompose(a)
        assert F16.compose(digits) == a
    assert list(F9.decompose(5)) == [2, 1]  # 5 = 2 + 1*3


def test_keval_agrees_with_horner():
    coeffs = np.array([3, 0, 1, 2], dtype=np.int64)
    xs = np.arange(9, dtype=np.int64)
    got = F9.keval(coeffs, xs)
    for x, g in zip(xs, got):
        acc = 0
        for c in reversed(coeffs):
            acc = F9.add(F9.mul(acc, int(x)), int(c))
        assert g == acc


def test_field_equality_and_keys():
    assert GF.prime(2) == F2
    assert GF.extension(GF.prime(2), [1, 1, 1]) == F4
    assert F4 != F9
    assert len({F2, GF.prime(2), F4}) == 2
