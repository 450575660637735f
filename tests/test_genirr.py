import json
import math
from fractions import Fraction

import numpy as np
import pytest

from permdyn.context import frobenius_orbits, make_field_ctx
from permdyn.dynamics import graph_Ik, spectrum_Ik
from permdyn.errors import (
    GuardExceeded, InternalCheckError, PreconditionError,
)
from permdyn.genirr import (
    GenReport, bound_linearized, bound_monomial, choose_LH, iterate_generation,
    tau,
)
from permdyn.orders import poly_order
from permdyn.permgroup import certify_perm
from permdyn.polys import (
    Poly, count_irreducibles, enumerate_irreducibles, poly_gcd, q_associate,
)
from permdyn.textio import parse_poly

CTX24 = make_field_ctx(2, 1, 4)
CTX25 = make_field_ctx(2, 1, 5)
CTX33 = make_field_ctx(3, 1, 3)

I24 = enumerate_irreducibles(CTX24.Fq, 4)


def _mono(ctx, n):
    return certify_perm(ctx, Poly.one(ctx.Fq).shift(n))


def test_iterate_generation_closes():
    x7 = _mono(CTX24, 7)
    rep = iterate_generation(CTX24, x7, I24[0])
    assert rep.period == 2
    assert rep.produced == [I24[0], I24[1]]
    assert rep.seed == I24[0] and rep.P == x7
    rep = iterate_generation(CTX24, x7, I24[2])
    assert rep.period == 1
    assert rep.produced == [I24[2]]


def test_iterate_generation_identity():
    ident = certify_perm(CTX24, Poly.x(CTX24.Fq))
    for f in I24:
        rep = iterate_generation(CTX24, ident, f)
        assert rep.period == 1 and rep.produced == [f]


def test_iterate_generation_respects_max_steps():
    pp = certify_perm(CTX33, parse_poly(CTX33.Fq, "x^3+x"))
    f3 = enumerate_irreducibles(CTX33.Fq, 3)[2]  # on the 6-cycle
    rep = iterate_generation(CTX33, pp, f3, max_steps=3)
    assert rep.period is None
    assert len(rep.produced) == 4
    assert len(set(rep.produced)) == 4
    full = iterate_generation(CTX33, pp, f3)
    assert full.period == 6
    assert len(full.produced) == 6
    assert rep.produced == full.produced[:4]


def test_iterate_generation_default_runs_to_closure():
    pp = _mono(CTX24, 7)
    rep = iterate_generation(CTX24, pp, I24[0])
    assert rep.period is not None  # a star cycle has at most |I_k| elements


def test_iterate_generation_bound_check():
    x7 = _mono(CTX24, 7)
    with pytest.raises(InternalCheckError):
        iterate_generation(CTX24, x7, I24[0], bound_claimed=Fraction(5))
    rep = iterate_generation(CTX24, x7, I24[0], bound_claimed=Fraction(3, 2))
    assert rep.period == 2 and rep.bound_claimed == Fraction(3, 2)


def test_genreport_json():
    x7 = _mono(CTX24, 7)
    rep = iterate_generation(CTX24, x7, I24[0], bound_claimed=Fraction(3, 2))
    data = json.loads(rep.to_json())
    assert set(data) == {"seed", "perm", "produced", "period", "bound"}
    assert data["seed"] == "x^4+x+1"
    assert data["perm"] == "x^7"
    assert data["produced"] == ["x^4+x+1", "x^4+x^3+1"]
    assert data["period"] == 2
    assert data["bound"] == "3/2"
    nobound = iterate_generation(CTX24, x7, I24[2])
    assert json.loads(nobound.to_json())["bound"] is None


def test_bound_monomial_pins():
    assert bound_monomial(2, 5, 3) == Fraction(6)
    assert bound_monomial(2, 5, 2) == Fraction(1)
    with pytest.raises(PreconditionError):
        bound_monomial(2, 4, 7)  # 15 composite
    with pytest.raises(PreconditionError):
        bound_monomial(2, 5, 62)


def test_bound_monomial_primitive_case_and_cap():
    limit = count_irreducibles(2, 5)
    for n in range(1, 31):
        if math.gcd(n, 31) != 1:
            continue
        b = bound_monomial(2, 5, n)
        assert b <= limit
        rep = iterate_generation(CTX25, _mono(CTX25, n),
                                 enumerate_irreducibles(CTX25.Fq, 5)[0],
                                 bound_claimed=b)
        assert rep.period >= math.ceil(b)
    # primitive root mod 31: bound hits (q^k - q)/((q - 1) k)
    assert bound_monomial(2, 5, 3) == Fraction(2 ** 5 - 2, 5)


def test_bound_linearized_pins():
    F3 = make_field_ctx(3, 1, 5).Fq
    assert bound_linearized(3, 5, Poly.x(F3)) == Fraction(1)
    with pytest.raises(PreconditionError):
        bound_linearized(3, 3, Poly.x(CTX33.Fq))  # E_3 reducible over F_3
    F2 = CTX25.Fq
    one = Poly.one(F2)
    with pytest.raises(PreconditionError):
        bound_linearized(2, 5, one.shift(1) + one)  # x + 1 shares a root


def test_bound_linearized_primitive_case():
    # search a class of order 15 = |units mod E_5| over F_2: bound (2^4-1)/5 = 3
    F2 = CTX25.Fq
    one = Poly.one(F2)
    xk1 = one.shift(5) - one
    Ek = xk1 // (Poly.x(F2) - one)
    found = None
    for enc in range(2, 16):
        g = Poly.from_encoding(F2, enc)
        if poly_gcd(g, xk1).degree != 0:
            continue
        if poly_order(g, Ek) == 15:
            found = g
            break
    assert found is not None
    b = bound_linearized(2, 5, found)
    assert b == Fraction(3) == Fraction(2 ** 4 - 1, 5)
    pp = certify_perm(CTX25, q_associate(found))
    seeds = enumerate_irreducibles(CTX25.Fq, 5)
    periods = [iterate_generation(CTX25, pp, f).period for f in seeds]
    assert all(per >= 3 for per in periods)
    # primitive class produces at least |I_5|/q of the elements per seed
    assert all(per >= len(seeds) // 2 for per in periods)


def test_tau_pins():
    assert math.ceil(tau(3, 53) / 53) == 1672
    assert tau(5, 11) == pytest.approx(5.0 ** (math.sqrt(4.5) - 2))
    assert tau(2, 4) < tau(2, 5) < tau(2, 11)
    assert tau(3, 5) == pytest.approx(3.0 ** (math.sqrt(9) - 2))
    with pytest.raises(PreconditionError):
        tau(2, 1)


@pytest.mark.parametrize("p,served", [(2, 526339), (3, 140001), (5, 392522), (7, 392522)])
def test_tau_refuses_a_k_beyond_the_float_range(p, served):
    # the largest k served gives a finite bound; the next one, and any larger k up to
    # one whose float conversion alone overflows, is refused naming it
    assert math.isfinite(tau(p, served)) and math.ceil(tau(p, served) / served) >= 1
    for k in (served + 1, 10 ** 9, 10 ** 11, 10 ** 400):
        with pytest.raises(PreconditionError) as info:
            tau(p, k)
        assert str(info.value) == "tau(%d, k) exceeds the largest float for k > %d" % (
            p, served)


def test_choose_LH_pins():
    assert str(choose_LH(2, 5)) == "x^16+x^8+x^4"
    assert str(choose_LH(3, 5)) == "x^3+x"
    assert str(choose_LH(5, 3)) == "x^5+3x"  # H = x - 2 over F_5


def test_choose_LH_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        choose_LH(2, 4)  # k composite
    with pytest.raises(PreconditionError):
        choose_LH(2, 7)  # ord_7(2) = 3, not primitive
    with pytest.raises(PreconditionError):
        choose_LH(3, 2)  # only candidate a = 2 has a^2 = 1
    with pytest.raises(PreconditionError):
        choose_LH(6, 5)  # q not a prime power
    with pytest.raises(GuardExceeded):
        choose_LH(3, 53)  # iteration space refused; bounds still available


def test_choose_LH_periods_meet_tau_bound():
    # one graph sweep gives every seed's period at once
    for q, k in ((2, 5), (3, 5), (2, 11)):
        pp = choose_LH(q, k)
        ctx = make_field_ctx(q, 1, k)
        floor = math.ceil(tau(q, k) / k)
        g = graph_Ik(ctx, pp)
        lengths = [len(c) for c in g.cycles]
        assert sum(lengths) == count_irreducibles(q, k)
        assert all(n >= floor for n in lengths)


def test_choose_LH_2_11_meets_linearized_bound():
    pp = choose_LH(2, 11)
    ctx = make_field_ctx(2, 1, 11)
    one = Poly.one(ctx.Fq)
    xk1 = one.shift(11) - one
    H = xk1 // (Poly.x(ctx.Fq) - one) + Poly.x(ctx.Fq) + one
    b = bound_linearized(2, 11, H)
    assert b == Fraction(31)
    g = graph_Ik(ctx, pp)
    assert all(len(c) >= 31 for c in g.cycles)


def test_produced_sets_partition_Ik():
    pp = _mono(CTX25, 3)
    seeds = enumerate_irreducibles(CTX25.Fq, 5)
    remaining = set(seeds)
    covered = set()
    while remaining:
        f = min(remaining, key=lambda g: g.encoding())
        rep = iterate_generation(CTX25, pp, f)
        produced = set(rep.produced)
        assert not (produced & covered)
        covered |= produced
        remaining -= produced
    assert covered == set(seeds)


def test_monomial_primitive_ratio():
    # n = 3 is a primitive root mod 31: every seed covers >= |I_5|/(q-1)
    pp = _mono(CTX25, 3)
    seeds = enumerate_irreducibles(CTX25.Fq, 5)
    for f in seeds:
        rep = iterate_generation(CTX25, pp, f)
        assert rep.period == 6
        assert len(rep.produced) == 6 >= len(seeds) // (2 - 1)


@pytest.mark.parametrize("tower", [(2, 2, 2), (2, 3, 3), (2, 4, 2), (3, 3, 3)], ids=str)
def test_bound_monomial_holds_over_towers(tower):
    # (q^k - 1)/(q - 1) is prime on each tower: 5, 73, 17 and 757
    ctx = make_field_ctx(*tower)
    f0 = frobenius_orbits(ctx).poly(0)
    for n in range(1, 60):
        if math.gcd(n, ctx.Q - 1) != 1:
            continue
        b = bound_monomial(ctx.q, ctx.k, n)
        P = _mono(ctx, n)
        assert spectrum_Ik(ctx, P).mu >= math.ceil(b), n
        assert iterate_generation(ctx, P, f0, bound_claimed=b).period >= math.ceil(b)


@pytest.mark.parametrize("tower", [(2, 3, 3), (2, 3, 5), (2, 5, 3)], ids=str)
def test_bound_linearized_holds_over_towers(tower):
    # E_k is irreducible over F_q on each tower: q has order k - 1 modulo k
    ctx = make_field_ctx(*tower)
    f0 = frobenius_orbits(ctx).poly(0)
    rng = np.random.default_rng(sum(tower))
    tried = 0
    while tried < 40:
        h = Poly(ctx.Fq, rng.integers(0, ctx.q, size=ctx.k))
        try:
            b = bound_linearized(ctx.q, ctx.k, h)
        except PreconditionError:  # h shares a root with x^k - 1
            continue
        tried += 1
        P = certify_perm(ctx, q_associate(h))
        assert spectrum_Ik(ctx, P).mu >= math.ceil(b), h
        assert iterate_generation(ctx, P, f0, bound_claimed=b).period >= math.ceil(b)
