import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from permdyn.context import distinguished_root, frobenius, make_field_ctx
from permdyn.dynamics import graph_Ck
from permdyn.errors import InternalCheckError, PreconditionError
from permdyn.permgroup import (
    Matrix2, PermPoly, certify_perm, check_degree_preserving, frobenius_stable,
    gk_compose, gk_inverse, is_degree_preserving_form, lagrange_interpolate_all,
    moebius_eval, moebius_poly_rep, perm_table, pgl2_order, realize_permutation,
    _interpolate_perm, _moebius_poly,
)
from permdyn.numth import is_prime
from permdyn.polys import Poly, enumerate_irreducibles, fold_mod
from permdyn.textio import parse_poly

from oracles import loop_interpolate, squaring_moebius_rep
from test_orbits import tower_and_perm

CTX24 = make_field_ctx(2, 1, 4)
CTX25 = make_field_ctx(2, 1, 5)
CTX33 = make_field_ctx(3, 1, 3)


def P(ctx, text):
    return parse_poly(ctx.Fq, text)


def _mono(ctx, n):
    return Poly.one(ctx.Fq).shift(n)


def test_certify_accepts_coprime_monomials():
    pp = certify_perm(CTX24, _mono(CTX24, 7))
    assert isinstance(pp, PermPoly)
    assert str(pp) == "x^7"
    table = perm_table(CTX24, pp)
    assert sorted(table.tolist()) == list(range(16))


def test_certify_rejects_non_permutation():
    with pytest.raises(PreconditionError):
        certify_perm(CTX24, _mono(CTX24, 3))  # gcd(3, 15) = 3
    with pytest.raises(PreconditionError):
        certify_perm(CTX33, P(CTX33, "x^2"))


def test_certify_owns_its_coefficients():
    ctx = make_field_ctx(2, 1, 6)
    raw = P(ctx, "x^8+x^2+x")  # L[x^3+x+1], which needs no folding
    pp = certify_perm(ctx, raw)
    assert pp.poly == raw and pp.poly is not raw
    expected = graph_Ck(ctx, pp).to_json()
    raw.coeffs[1] = 0  # x^8+x^2 vanishes at 1: no permutation
    assert str(pp) == "x^8+x^2+x"
    assert graph_Ck(ctx, pp).to_json() == expected
    with pytest.raises(PreconditionError):
        certify_perm(ctx, raw)


def test_certify_folds_high_degree():
    pp = certify_perm(CTX25, _mono(CTX25, 33))
    assert pp.poly == _mono(CTX25, 2)  # x^33 = x^2 on F_32


def test_certify_rejects_foreign_context():
    pp = certify_perm(CTX24, _mono(CTX24, 7))
    with pytest.raises(PreconditionError):
        certify_perm(CTX25, pp)


def test_permpoly_identity_and_equality():
    a = certify_perm(CTX24, _mono(CTX24, 7))
    b = certify_perm(CTX24, _mono(CTX24, 7))
    c = certify_perm(CTX24, _mono(CTX24, 2))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_gk_compose_monomials():
    a = certify_perm(CTX24, _mono(CTX24, 2))
    b = certify_perm(CTX24, _mono(CTX24, 4))
    assert gk_compose(CTX24, a, b).poly == _mono(CTX24, 8)
    assert gk_compose(CTX24, a, a).poly == _mono(CTX24, 4)
    # composition matches the value tables
    c = certify_perm(CTX24, P(CTX24, "x^4+x^2+x"))
    comp = gk_compose(CTX24, a, c)
    ta, tc = perm_table(CTX24, a), perm_table(CTX24, c)
    assert np.array_equal(perm_table(CTX24, comp), ta[tc])


def test_gk_inverse():
    a = certify_perm(CTX24, _mono(CTX24, 2))
    inv = gk_inverse(CTX24, a)
    assert inv.poly == _mono(CTX24, 8)  # 2 * 8 = 16 = 1 mod 15
    ident = gk_compose(CTX24, a, inv)
    assert ident.poly == Poly.x(CTX24.Fq)
    b = certify_perm(CTX33, P(CTX33, "x^3+x"))
    binv = gk_inverse(CTX33, b)
    assert gk_compose(CTX33, b, binv).poly == Poly.x(CTX33.Fq)
    assert gk_compose(CTX33, binv, b).poly == Poly.x(CTX33.Fq)
    with pytest.raises(PreconditionError):
        gk_inverse(CTX24, _mono(CTX24, 3))  # gcd(3, 15) = 3: not a permutation


def test_frobenius_stable():
    assert frobenius_stable(CTX24, P(CTX24, "x^7+x^2+1"))
    f = Poly(CTX24.Fqk, [2, 1])  # constant outside F_2
    assert not frobenius_stable(CTX24, f)


def test_interpolation_refuses_tables_outside_G_k():
    els = CTX24.Fqk.elements()
    assert _interpolate_perm(CTX24, els).poly == Poly.x(CTX24.Fq)
    swap = els.copy()
    swap[[2, 3]] = [3, 2]  # a bijection, but z^2 -> z^2 while z -> z^4
    for table in (swap, np.zeros_like(els), els // 2):
        with pytest.raises(InternalCheckError):
            _interpolate_perm(CTX24, table)


def test_lagrange_interpolates_tables():
    ident = lagrange_interpolate_all(CTX24, np.arange(16, dtype=np.int64))
    assert ident == Poly.x(CTX24.Fqk)
    sq = CTX24.Fqk.vpow(CTX24.Fqk.elements(), 2)
    assert lagrange_interpolate_all(CTX24, sq) == Poly(CTX24.Fqk, [0, 0, 1])
    rng = np.random.default_rng(2)
    vals = rng.integers(0, 27, size=27)
    g = lagrange_interpolate_all(CTX33, vals)
    assert np.array_equal(g.eval_many(CTX33.Fqk.elements()), vals)
    with pytest.raises(PreconditionError):
        lagrange_interpolate_all(CTX24, np.arange(15, dtype=np.int64))


# every tower with p in {2, 3, 5, 7}, m in {1, 2, 3} and Q <= 1024 (the prime fields
# (p, 1, 1) among them), and (2, 2, 6) of the towers-m2 benchmark
INTERP_TOWERS = [(p, m, k) for p in (2, 3, 5, 7) for m in (1, 2, 3) for k in range(1, 11)
                 if p ** (m * k) <= 1024] + [(2, 2, 6)]


@pytest.mark.parametrize("pmk", INTERP_TOWERS, ids=str)
def test_interpolation_equals_the_loop(pmk):
    ctx = make_field_ctx(*pmk)
    rng = np.random.default_rng(ctx.Q)
    for values in (rng.integers(0, ctx.Q, size=ctx.Q), rng.permutation(ctx.Q)):
        got = lagrange_interpolate_all(ctx, values)
        assert got.field == ctx.Fqk
        assert np.array_equal(got.coeffs, loop_interpolate(ctx, values).coeffs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(tower_and_perm())
def test_interpolating_a_value_table_gives_back_the_folded_polynomial(case):
    ctx, P = case
    back = lagrange_interpolate_all(ctx, perm_table(ctx, P))
    assert np.array_equal(back.coeffs, fold_mod(P.poly, ctx.Q).coeffs)


def test_realize_identity_and_swap():
    ident = realize_permutation(CTX24, [0, 1, 2])
    assert ident.poly == Poly.x(CTX24.Fq)
    swap = realize_permutation(CTX24, {0: 1, 1: 0, 2: 2})
    irr = enumerate_irreducibles(CTX24.Fq, 4)
    table = perm_table(CTX24, swap)
    a = distinguished_root(CTX24, irr[0])
    b = distinguished_root(CTX24, irr[1])
    for _ in range(4):
        assert table[a] == b
        a, b = frobenius(CTX24, a), frobenius(CTX24, b)
    for c in range(CTX24.q):
        assert table[c] == c


def test_realize_pair_form_matches_list_form():
    via_pairs = realize_permutation(CTX33, [[i, (i + 1) % 8] for i in range(8)])
    via_list = realize_permutation(CTX33, [(i + 1) % 8 for i in range(8)])
    assert via_pairs == via_list


def test_realize_rejects_bad_sigma():
    for bad in ([0, 0, 1], [0, 1], {0: 0, 1: 1}, [[0, 1], [0, 2], [1, 0], [2, 2]],
                [0, 1, 3]):
        with pytest.raises(PreconditionError):
            realize_permutation(CTX24, bad)


@pytest.mark.parametrize("bad", [[[0, 1], 1], [(0, 1, 2), (1, 0, 2)], [0.0, 1.0],
                                 {0: 1, 1: "x"}, [0, [1]], ["x", "y"], 5, [(0.0, 1), (1, 0)],
                                 [10 ** 30, 0], {0: 1, 10 ** 30: 0}],
                         ids=repr)
def test_realize_refuses_a_table_of_other_things_than_indices(bad):
    ctx = make_field_ctx(2, 1, 3)
    with pytest.raises(PreconditionError, match="sigma is not a permutation table of I_k"):
        realize_permutation(ctx, bad)


def test_realize_accepts_numpy_integers():
    ctx = make_field_ctx(2, 1, 3)
    want = realize_permutation(ctx, [1, 0])
    assert realize_permutation(ctx, np.array([1, 0])) == want
    assert realize_permutation(ctx, np.array([[0, 1], [1, 0]])) == want
    assert realize_permutation(ctx, {np.int64(0): np.int32(1), np.int64(1): np.int8(0)}) == want


def test_matrix2_basics():
    F3 = CTX33.Fq
    A = Matrix2(F3, 1, 2, 1, 1)
    assert A.det() == F3.sub(1, 2) == 2
    assert not A.is_scalar()
    assert Matrix2.identity(F3).is_scalar()
    I = Matrix2.identity(F3)
    assert A @ I == A and I @ A == A
    with pytest.raises(PreconditionError):
        Matrix2(F3, 1, 1, 1, 1)  # singular
    with pytest.raises(PreconditionError):
        Matrix2(F3, 1, 0, 0, 3)  # entry outside field


def test_pgl2_order_pins():
    F3 = CTX33.Fq
    assert pgl2_order(Matrix2.identity(F3)) == 1
    assert pgl2_order(Matrix2(F3, 2, 0, 0, 2)) == 1  # scalar
    assert pgl2_order(Matrix2(F3, 1, 1, 0, 1)) == 3  # unipotent: order p
    assert pgl2_order(Matrix2(F3, 0, 1, 1, 0)) == 2
    F2 = CTX24.Fq
    assert pgl2_order(Matrix2(F2, 0, 1, 1, 1)) == 3


def test_pgl2_order_divides_group_order():
    F3 = CTX33.Fq
    for a, b, c, d in itertools.product(range(3), repeat=4):
        try:
            A = Matrix2(F3, a, b, c, d)
        except PreconditionError:
            continue
        assert 24 % pgl2_order(A) == 0  # |PGL_2(F_3)| = 24


def test_moebius_eval_pole_convention():
    A = Matrix2(CTX33.Fq, 1, 1, 1, 2)  # tau(z) = (z+1)/(z+2)
    F = CTX33.Fqk
    pole = F.neg(F.mul(A.d, F.inv(A.c)))
    assert moebius_eval(CTX33, A, pole) == F.mul(A.a, F.inv(A.c))
    assert moebius_eval(CTX33, A, 0) == F.inv(2)


def test_moebius_eval_is_bijection():
    for A in (Matrix2(CTX24.Fq, 1, 1, 1, 0), Matrix2(CTX33.Fq, 2, 1, 1, 1)):
        ctx = CTX24 if A.field.order == 2 else CTX33
        imgs = sorted(moebius_eval(ctx, A, z) for z in range(ctx.Q))
        assert imgs == list(range(ctx.Q))


@pytest.mark.parametrize("tower", [(2, 2, 3), (3, 2, 2), (5, 1, 2)], ids=str)
def test_moebius_eval_array_equals_scalar(tower):
    # every matrix of GL_2(F_q) for q = 4 and 5, a seeded sample of 120 for q = 9
    ctx = make_field_ctx(*tower)
    mats = []
    for a, b, c, d in itertools.product(range(ctx.q), repeat=4):
        try:
            mats.append(Matrix2(ctx.Fq, a, b, c, d))
        except PreconditionError:
            pass
    if ctx.q == 9:
        rng = np.random.default_rng(9)
        mats = [mats[i] for i in rng.choice(len(mats), size=120, replace=False)]
    els = ctx.Fqk.elements()
    for A in mats:
        got = moebius_eval(ctx, A, els)
        assert got.tolist() == [moebius_eval(ctx, A, z) for z in range(ctx.Q)], A
        assert moebius_eval(ctx, A, els[::-1]).tolist() == got[::-1].tolist()


def test_moebius_poly_rep_affine_case():
    rep = moebius_poly_rep(CTX24, Matrix2(CTX24.Fq, 1, 1, 0, 1))
    assert rep.poly == P(CTX24, "x+1")


def test_moebius_poly_rep_matches_eval_map():
    for field, ctx in ((CTX24.Fq, CTX24), (CTX33.Fq, CTX33)):
        seen = 0
        for a, b, c, d in itertools.product(range(ctx.q), repeat=4):
            try:
                A = Matrix2(field, a, b, c, d)
            except PreconditionError:
                continue
            seen += 1
            rep = moebius_poly_rep(ctx, A)
            expect = np.array([moebius_eval(ctx, A, z) for z in range(ctx.Q)])
            assert np.array_equal(perm_table(ctx, rep), expect)
            if seen >= 10:
                break
        assert seen


# every tower with k >= 2 and q^k <= 4096
MOEBIUS_TOWERS = [(p, m, k) for p in range(2, 65) if is_prime(p)
                  for m in range(1, 7) for k in range(2, 13) if p ** (m * k) <= 4096]


def _moebius_matrices(ctx):
    """Every invertible matrix when q <= 4, else 20 seeded ones, taking in turn
    c = 0, then d = 0 with c != 0, then c, d != 0."""
    F, q = ctx.Fq, ctx.q
    if q <= 4:
        quads = itertools.product(range(q), repeat=4)
        return [Matrix2(F, *v) for v in quads if F.sub(F.mul(v[0], v[3]), F.mul(v[1], v[2]))]
    rng = np.random.default_rng(1000 * q + ctx.k)
    out = []
    while len(out) < 20:
        a, b, c, d = (int(v) for v in rng.integers(0, q, size=4))
        c, d = [(0, d), (c or 1, 0), (c or 1, d or 1)][len(out) % 3]
        if F.sub(F.mul(a, d), F.mul(b, c)):
            out.append(Matrix2(F, a, b, c, d))
    return out


@pytest.mark.parametrize("pmk", MOEBIUS_TOWERS, ids=lambda pmk: "%d-%d-%d" % pmk)
def test_moebius_closed_form_equals_the_squaring_chain(pmk):
    ctx = make_field_ctx(*pmk)
    matrices = _moebius_matrices(ctx)
    assert {(A.c == 0, A.d == 0) for A in matrices} >= {(True, False), (False, True),
                                                        (False, False)}
    for A in matrices:
        assert _moebius_poly(ctx, A) == squaring_moebius_rep(ctx, A), A


def test_moebius_rep_respects_composition_on_Ck():
    # the pole convention only collapses points of F_q, so the composition
    # law tau_A . tau_B = tau_AB holds verbatim on the degree-k elements
    from permdyn.context import enumerate_Ck
    F2 = CTX24.Fq
    A = Matrix2(F2, 1, 1, 1, 0)
    B = Matrix2(F2, 0, 1, 1, 0)
    tA = perm_table(CTX24, moebius_poly_rep(CTX24, A))
    tB = perm_table(CTX24, moebius_poly_rep(CTX24, B))
    tAB = perm_table(CTX24, moebius_poly_rep(CTX24, A @ B))
    Ck = enumerate_Ck(CTX24)
    assert np.array_equal(tA[tB[Ck]], tAB[Ck])


@pytest.mark.parametrize("text,want", [
    ("x", True), ("x^2", True), ("x^4+1", True), ("x^3", False),
    ("x^2+x", False), ("x^8+1", True), ("x^6", False),
])
def test_is_degree_preserving_form_f2(text, want):
    F = parse_poly(CTX24.Fp, text)
    assert is_degree_preserving_form(F) == want


def test_is_degree_preserving_form_f3():
    F3 = CTX33.Fq
    assert is_degree_preserving_form(parse_poly(F3, "2x^3+2"))
    assert is_degree_preserving_form(parse_poly(F3, "x^9+1"))
    assert not is_degree_preserving_form(parse_poly(F3, "x^6"))
    assert not is_degree_preserving_form(parse_poly(F3, "x^3+x"))
    with pytest.raises(PreconditionError):
        is_degree_preserving_form(Poly.const(F3, 1))


def test_check_degree_preserving():
    F2 = CTX24.Fp
    assert check_degree_preserving(parse_poly(F2, "x^2+1"), 4)
    assert not check_degree_preserving(parse_poly(F2, "x^3"), 4)
    F3 = CTX33.Fq
    assert check_degree_preserving(parse_poly(F3, "2x^3+1"), 3)
    assert not check_degree_preserving(parse_poly(F3, "x^2"), 3)


def test_moebius_poly_rep_at_Q_2():
    # over F_2 the power (cx + d)^(Q-2) = 1 does not vanish at the pole
    ctx = make_field_ctx(2, 1, 1)
    seen = 0
    for a, b, c, d in itertools.product(range(2), repeat=4):
        try:
            A = Matrix2(ctx.Fq, a, b, c, d)
        except PreconditionError:
            continue
        seen += 1
        rep = moebius_poly_rep(ctx, A)
        assert [rep.poly(z) for z in (0, 1)] == [moebius_eval(ctx, A, z) for z in (0, 1)], A
    assert seen == 6  # |GL_2(F_2)|
