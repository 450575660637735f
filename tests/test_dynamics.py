import copy
import itertools
import json
import math
import random
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permdyn import cli, dynamics
from permdyn.context import (
    base_field, embed_poly, enumerate_Ck, frobenius_orbits, make_field_ctx, minimal_poly,
    restrict_poly,
)
from permdyn.dynamics import (
    CycleSpectrum, FunctionalGraph, diamond, fixed_count_formula,
    fixed_count_linearized, fixed_count_monomial, fixed_count_prime_linearized,
    fixed_count_prime_monomial, fixed_points_direct, graph_Ck, graph_Ik,
    invariant_report, linearized_cycle_structure, moebius_cycle_structure,
    moebius_star, monomial_cycle_structure, period_Ck, period_Ik, spectrum_Ck,
    spectrum_Ik, star,
)
from permdyn.errors import InternalCheckError, PreconditionError
from permdyn.genirr import bound_linearized, choose_LH, iterate_generation
from permdyn.numth import is_prime
from permdyn.orders import mult_order, norm_of, trace_of
from permdyn.permgroup import (
    Matrix2, PermPoly, certify_perm, moebius_poly_rep, perm_table, realize_permutation,
)
from permdyn.polys import (
    Modulus, Poly, compose, enumerate_irreducibles, factor, is_irreducible, poly_gcd,
    q_associate,
)
from permdyn.textio import parse_poly

from oracles import (distinguished_root, gcd_star, horner_edge, loop_cycles, loop_dot,
                     psi_fixed_count)

CTX24 = make_field_ctx(2, 1, 4)
CTX33 = make_field_ctx(3, 1, 3)
CTX25 = make_field_ctx(2, 1, 5)

I24 = enumerate_irreducibles(CTX24.Fq, 4)
I33 = enumerate_irreducibles(CTX33.Fq, 3)


def P(ctx, text):
    return parse_poly(ctx.Fq, text)


def _mono(ctx, n):
    return certify_perm(ctx, Poly.one(ctx.Fq).shift(n))


def _perm_battery(ctx):
    """All coprime monomials and all linearized permutations of the context."""
    out = []
    for n in range(1, ctx.Q - 1):
        if math.gcd(n, ctx.Q - 1) == 1:
            out.append(_mono(ctx, n))
    one = Poly.one(ctx.Fq)
    xk1 = one.shift(ctx.k) - one
    for enc in range(1, ctx.q ** ctx.k):
        h = Poly.from_encoding(ctx.Fq, enc)
        if h.degree < ctx.k and poly_gcd(h, xk1).degree == 0:
            out.append(certify_perm(ctx, q_associate(h)))
    return out


def _star_by_root_preimage(ctx, pp, f):
    # independent oracle: P*f is the minimal polynomial of P^(-1)(alpha)
    table = perm_table(ctx, pp)
    inv = np.zeros(ctx.Q, dtype=np.int64)
    inv[table] = np.arange(ctx.Q, dtype=np.int64)
    return minimal_poly(ctx, int(inv[distinguished_root(ctx, f)]))


def test_star_pins_q2():
    x7 = _mono(CTX24, 7)
    f1, f2, f3 = I24
    assert star(CTX24, x7, f1) == f2
    assert star(CTX24, x7, f2) == f1
    assert star(CTX24, x7, f3) == f3


def test_star_pins_q3():
    pp = certify_perm(CTX33, P(CTX33, "x^3+x"))
    assert star(CTX33, pp, P(CTX33, "x^3+2x+1")) == P(CTX33, "x^3+2x+2")
    assert star(CTX33, pp, P(CTX33, "x^3+2x+2")) == P(CTX33, "x^3+2x+1")


def test_star_identity_fixes_everything():
    ident = certify_perm(CTX24, Poly.x(CTX24.Fq))
    for f in I24:
        assert star(CTX24, ident, f) == f


@pytest.mark.parametrize("ctx,irr", [(CTX24, I24), (CTX33, I33)])
def test_star_matches_root_preimage_oracle(ctx, irr):
    for pp in _perm_battery(ctx):
        for f in irr:
            assert star(ctx, pp, f) == _star_by_root_preimage(ctx, pp, f)


def test_star_matches_full_gcd_oracle():
    for pp in (_mono(CTX24, 7), _mono(CTX24, 11),
               certify_perm(CTX24, P(CTX24, "x^4+x^2+x"))):
        for f in I24:
            assert star(CTX24, pp, f) == gcd_star(CTX24, pp, f)


def test_star_rejects_nonmembers():
    x7 = _mono(CTX24, 7)
    with pytest.raises(PreconditionError):
        star(CTX24, x7, P(CTX24, "x^4+x^2+1"))  # reducible
    with pytest.raises(PreconditionError):
        star(CTX24, x7, P(CTX24, "x^3+x+1"))  # wrong degree
    with pytest.raises(PreconditionError):
        star(CTX33, x7, P(CTX33, "x^3+2x+1"))  # foreign context


def test_star_and_ik_errors_name_the_tower_P_and_f(monkeypatch):
    x7 = _mono(CTX24, 7)
    where = "; at (p, m, k) = (2, 1, 4), P = x^7, f = "
    with pytest.raises(PreconditionError, match=re.escape(where + "x^4+x^2+1")):
        star(CTX24, x7, P(CTX24, "x^4+x^2+1"))
    # a forged x^3 passes the gate; it sends the roots of x^4+x+1 (of order 15) to order 5
    with pytest.raises(InternalCheckError, match=re.escape(
            "bijectively on I_k; at (p, m, k) = (2, 1, 4), P = x^3") + "$"):
        graph_Ik(CTX24, PermPoly(Poly.one(CTX24.Fq).shift(3), CTX24.key))
    # a dense P is named by its degree and number of terms
    dense = P(CTX24, "x^13+x^11+x^10+x^8+x^6+x^5+x^4+x^3+x^2+x")
    with pytest.raises(PreconditionError, match=re.escape(
            "P = <degree 13, 10 terms>, f = x^4+1")):
        star(CTX24, dense, P(CTX24, "x^4+1"))
    # a table whose node swaps two images: still a bijection, but edge 0 is wrong; x7 is
    # a fresh certified P, with no star permutation yet, and the copy's node its own array
    orbits = frobenius_orbits(CTX24)
    bad = copy.copy(orbits)
    bad.node = orbits.node.copy()
    imgs = embed_poly(CTX24, x7.poly).eval_many(orbits.roots)
    i0 = int(np.flatnonzero(orbits.node[imgs] == 0)[0])
    a, b = imgs[i0], imgs[(i0 + 1) % len(imgs)]
    bad.node[a], bad.node[b] = orbits.node[b], orbits.node[a]
    monkeypatch.setattr(dynamics, "frobenius_orbits", lambda ctx: bad)
    with pytest.raises(InternalCheckError, match=re.escape(where + "x^4+x+1")):
        graph_Ik(CTX24, x7)


# the single I_k queries and the Moebius star, each given P (or A) and f
READERS = {
    "star": star,
    "diamond": diamond,
    "period_Ik": period_Ik,
    "iterate_generation": iterate_generation,
    "moebius_star": moebius_star,
}
X3 = Poly.one(CTX24.Fq).shift(3)        # does not permute F_16
A_F4 = Matrix2(base_field(2, 2), 2, 1, 1, 0)   # a matrix over F_4, not F_2
EXPECTED = "expected a monic irreducible of degree k"
NO_FIELD = ("polynomial does not lie over F_q of the context: its field is neither F_q "
            "nor F_{q^k}")
# (P or A is outside G_k, f, the start of the refusal); f over F_8 is named by its repr
READINGS = {
    "reducible": (False, P(CTX24, "x^4+x^2+1"), EXPECTED),
    "degree-2": (False, P(CTX24, "x^2+x+1"), EXPECTED),
    "over-F_8": (False, Poly(base_field(2, 3), [1, 1, 0, 0, 1]), NO_FIELD),
    "bad-P-reducible": (True, P(CTX24, "x^4+x^2+1"), EXPECTED),
    "bad-P": (True, P(CTX24, "x^4+x+1"), None),
}


@pytest.mark.parametrize("entry", sorted(READERS))
@pytest.mark.parametrize("f", sorted(READINGS))
def test_orbit_table_entries_name_the_tower_P_and_an_f_outside_Ik(entry, f):
    # one reading rule: f is read first, so an input wrong in both ways names f, and
    # every refusal names the tower, P (or A) and f
    bad_P, poly, start = READINGS[f]
    if entry == "moebius_star":
        P_arg = A_F4 if bad_P else Matrix2(CTX24.Fq, 1, 1, 1, 0)
        named = "A = M[[0,1],1,1,0]" if bad_P else "A = M[1,1,1,0]"
        outside = "matrix entries must lie in F_q of the context"
    else:
        P_arg = X3 if bad_P else _mono(CTX24, 7)
        named = "P = x^3" if bad_P else "P = x^7"
        outside = "polynomial does not permute F_{q^k}"
    f_text = repr(poly) if f == "over-F_8" else str(poly)
    with pytest.raises(PreconditionError) as info:
        READERS[entry](CTX24, P_arg, poly)
    assert str(info.value) == "%s; at (p, m, k) = (2, 1, 4), %s, f = %s" % (
        start or outside, named, f_text)


# the twelve dynamics entries that take P, called with f in I_k and its distinguished root
GATED = {
    "star": lambda ctx, P, f: star(ctx, P, f),
    "diamond": lambda ctx, P, f: diamond(ctx, P, f),
    "fixed_count_formula": lambda ctx, P, f: fixed_count_formula(ctx, P),
    "fixed_points_direct": lambda ctx, P, f: [str(g) for g in fixed_points_direct(ctx, P)],
    "graph_Ck": lambda ctx, P, f: graph_Ck(ctx, P).cycles,
    "graph_Ik": lambda ctx, P, f: graph_Ik(ctx, P).cycles,
    "spectrum_Ck": lambda ctx, P, f: spectrum_Ck(ctx, P).lengths,
    "spectrum_Ik": lambda ctx, P, f: spectrum_Ik(ctx, P).lengths,
    "period_Ck": lambda ctx, P, f: period_Ck(ctx, P, distinguished_root(ctx, f)),
    "period_Ik": lambda ctx, P, f: period_Ik(ctx, P, f),
    "iterate_generation": lambda ctx, P, f: iterate_generation(ctx, P, f).produced,
    "invariant_report": lambda ctx, P, f: invariant_report(ctx, P, f),
}


@pytest.mark.parametrize("entry", sorted(GATED))
def test_every_entry_refuses_a_P_outside_G_k(entry):
    f = P(CTX24, "x^4+x+1")
    with pytest.raises(PreconditionError, match=re.escape(
            "polynomial does not permute F_{q^k}; at (p, m, k) = (2, 1, 4), P = x^3")):
        GATED[entry](CTX24, Poly.one(CTX24.Fq).shift(3), f)
    # x^7 over F_3 permutes F_16 read as over F_2, but it is not a polynomial over F_2
    with pytest.raises(PreconditionError, match="neither F_q nor F_"):
        GATED[entry](CTX24, Poly.one(CTX33.Fq).shift(7), f)


def test_certify_and_restrict_refuse_a_polynomial_over_another_field():
    x7 = Poly.one(CTX33.Fq).shift(7)
    for call in (certify_perm, restrict_poly):
        with pytest.raises(PreconditionError, match="neither F_q nor F_"):
            call(CTX24, x7)


def _outcome(call, *args):
    try:
        return call(*args)
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("pmk", [(2, 1, 4), (3, 1, 3), (2, 2, 3)], ids=str)
def test_raw_and_certified_P_give_equal_answers(pmk):
    # x^n, L[h] and M[1,1,1,0], each raw as it is and raw plus x^Q - x (zero on F_{q^k})
    ctx = make_field_ctx(*pmk)
    f = frobenius_orbits(ctx).poly(0)
    one = Poly.one(ctx.Fq)
    for pp in _edge_battery(ctx):
        for raw in (pp.poly, pp.poly + one.shift(ctx.Q) - one.shift(1)):
            for entry, call in GATED.items():
                assert _outcome(call, ctx, raw, f) == _outcome(call, ctx, pp, f), entry


# every tower with k >= 2 and q^k <= 4096
EDGE_TOWERS = [(p, m, k) for p in range(2, 65) if is_prime(p)
               for m in range(1, 7) for k in range(2, 13) if p ** (m * k) <= 4096]


def _edge_battery(ctx):
    """x^n for the least n >= 2 coprime to Q - 1 and not a power of p, L[h] for the
    least h with two or more terms coprime to x^k - 1, and M[1,1,1,0]."""
    n = next(n for n in itertools.count(2) if math.gcd(n, ctx.Q - 1) == 1
             and n not in (ctx.p ** j for j in range(n.bit_length())))
    one = Poly.one(ctx.Fq)
    xk1 = one.shift(ctx.k) - one
    h = next(h for h in (Poly.from_encoding(ctx.Fq, e) for e in itertools.count(ctx.q + 1))
             if np.count_nonzero(h.coeffs) > 1 and poly_gcd(h, xk1).degree == 0)
    return [_mono(ctx, n), certify_perm(ctx, q_associate(h)),
            moebius_poly_rep(ctx, Matrix2(ctx.Fq, 1, 1, 1, 0))]


def _edge_rejects(ctx, P, f, g):
    with pytest.raises(InternalCheckError, match=re.escape("; at (p, m, k) = (%d, %d, %d)"
                                                           % (ctx.p, ctx.m, ctx.k))):
        dynamics._check_edge(ctx, P, f, g)


@pytest.mark.parametrize("pmk", EDGE_TOWERS, ids=lambda pmk: "%d-%d-%d" % pmk)
def test_edge_check_accepts_only_the_gcd_star(pmk):
    ctx = make_field_ctx(*pmk)
    irr = frobenius_orbits(ctx).polys
    rng = random.Random("edge %d %d %d" % pmk)
    battery = _edge_battery(ctx)
    if pmk == (2, 1, 11):
        battery.append(choose_LH(2, 11))
    x_k = Poly.one(ctx.Fq).shift(ctx.k)
    others = 0
    for i, pp in enumerate(battery):
        for f in dict.fromkeys([irr[0], rng.choice(irr)]):
            img = gcd_star(ctx, pp, f)
            dynamics._check_edge(ctx, pp.poly, f, img)
            # every other member of I_k on small towers, a seeded sample on large ones
            for g in rng.sample(irr, min(len(irr), 12)):
                if g != img:
                    _edge_rejects(ctx, pp.poly, f, g)
            _edge_rejects(ctx, pp.poly, f, x_k)                  # reducible, degree k
            _edge_rejects(ctx, pp.poly, f, img * img)            # degree 2k
            if i == 0:
                # irreducible factors of f(x^n) of another degree divide f(P)
                for g, _ in factor(compose(f, pp.poly)):
                    if g.degree != ctx.k:
                        others += 1
                        _edge_rejects(ctx, pp.poly, f, g)
    if pmk[0] ** (pmk[1] * pmk[2]) >= 64:
        assert others > 0


# towers small enough to try every monic f of degree k against every g in I_k
PROOF_TOWERS = [(2, 1, 4), (3, 1, 3), (2, 2, 3), (2, 1, 6), (5, 1, 3), (3, 2, 2)]


@pytest.mark.parametrize("pmk", PROOF_TOWERS, ids=lambda pmk: "%d-%d-%d" % pmk)
def test_the_image_certificate_refuses_every_reducible_f(pmk):
    # Rabin's test on f runs only when the image certificate fails, since a certified
    # image proves f irreducible: every reducible monic f of degree k is still refused
    ctx = make_field_ctx(*pmk)
    irr = frobenius_orbits(ctx).polys
    lead = ctx.q ** ctx.k
    reducible = [f for f in (Poly.from_encoding(ctx.Fq, lead + e) for e in range(lead))
                 if f not in set(irr)]
    assert len(reducible) == lead - len(irr) > 0
    for pp in _edge_battery(ctx):
        for f in reducible:
            with pytest.raises(PreconditionError) as info:
                star(ctx, pp, f)
            assert str(info.value) == (
                "expected a monic irreducible of degree k; at (p, m, k) = (%d, %d, %d), "
                "P = %s, f = %s" % (pmk + (dynamics._brief(ctx, pp), f)))
            for g in irr:
                with pytest.raises(InternalCheckError, match=re.escape("f = %s" % f) + "$"):
                    dynamics._check_edge(ctx, pp.poly, f, g)
    A = Matrix2(ctx.Fq, 1, 1, 1, 0)
    for f in reducible:
        with pytest.raises(PreconditionError) as info:
            moebius_star(ctx, A, f)
        assert str(info.value) == (
            "expected a monic irreducible of degree k; at (p, m, k) = (%d, %d, %d), "
            "A = M[1,1,1,0], f = %s" % (pmk + (f,)))


@pytest.mark.parametrize("case", PROOF_TOWERS + ["L_H", "realized"], ids=lambda case: (
    case if isinstance(case, str) else "%d-%d-%d" % case))
def test_star_equals_the_gcd_star_on_every_f(case):
    # star reads P's kept permutation; gcd_star composes f(P) and reads no table
    if case == "L_H":
        battery = [choose_LH(2, 11)]
        ctx = make_field_ctx(2, 1, 11)
    elif case == "realized":
        # a seeded shuffle of I_8, realized by a dense P of degree near Q
        ctx = make_field_ctx(2, 1, 8)
        sigma = list(range(len(frobenius_orbits(ctx).codes)))
        random.Random(8).shuffle(sigma)
        battery = [realize_permutation(ctx, sigma)]
    else:
        ctx = make_field_ctx(*case)
        battery = _edge_battery(ctx)
    for pp in battery:
        for f in frobenius_orbits(ctx).polys:
            assert star(ctx, pp, f) == gcd_star(ctx, pp, f), (pp, f)


def _certificate_battery(ctx):
    """_edge_battery, a dense Moebius representative (M[0,1,1,1]) and x^n for the least
    n >= k coprime to Q - 1 and not a power of p, which P mod g reduces."""
    n = next(n for n in itertools.count(max(ctx.k, 2)) if math.gcd(n, ctx.Q - 1) == 1
             and n not in (ctx.p ** j for j in range(n.bit_length())))
    return _edge_battery(ctx) + [moebius_poly_rep(ctx, Matrix2(ctx.Fq, 0, 1, 1, 1)),
                                 _mono(ctx, n)]


# every edge of I_k up to this many polynomials, a seeded sample of this many above it
CERTIFIED_EDGES = 32


@pytest.mark.parametrize("pmk", EDGE_TOWERS, ids=lambda pmk: "%d-%d-%d" % pmk)
def test_the_certificate_equals_the_horner_oracle(pmk):
    # _check_edge composes f with P mod g and reduces once; horner_edge takes one product
    # modulo g per coefficient of f. The certificate reads only k and F_q arithmetic
    # modulo g, so a context that holds nothing but k serves an accepted edge
    ctx = make_field_ctx(*pmk)
    polys = frobenius_orbits(ctx).polys
    bare = types.SimpleNamespace(k=ctx.k)
    rng = random.Random("certificate %d %d %d" % pmk)
    battery = _certificate_battery(ctx)
    assert np.count_nonzero(battery[3].poly.coeffs) > ctx.Q // 4  # the dense one
    edges = range(len(polys))
    if len(polys) > CERTIFIED_EDGES:
        edges = sorted(rng.sample(edges, CERTIFIED_EDGES))
    for pp in battery:
        perm = dynamics._ik_perm(ctx, pp)[1]
        for i in edges:
            dynamics._check_edge(bare, pp.poly, polys[i], polys[perm[i]])
        for i in edges[:4]:
            f, g = polys[i], polys[perm[i]]
            assert dynamics._vanishes(Modulus(g), pp.poly, f) is horner_edge(pp.poly, f, g) is True
            if len(polys) > 1:
                other = polys[perm[(i + 1) % len(polys)]]
                assert (dynamics._vanishes(Modulus(other), pp.poly, f) is
                        horner_edge(pp.poly, f, other) is False)
                _edge_rejects(ctx, pp.poly, f, other)


def _divisor_of_degree(factors, k):
    """A product of some of the (factor, multiplicity) pairs with degree k, or None."""
    best = {0: Poly.one(factors[0][0].field)} if factors else {}
    for g, mult in factors:
        for _ in range(mult):
            for d, h in list(best.items()):
                best.setdefault(d + g.degree, h * g)
    return best.get(k)


@pytest.mark.parametrize("pmk", PROOF_TOWERS, ids=lambda pmk: "%d-%d-%d" % pmk)
def test_the_certificate_refuses_a_reducible_divisor_of_degree_k(pmk):
    # P(b) lies in F_q(b), so for f in I_k every factor of f(P) has degree divisible by k,
    # and P*f is its only divisor of degree k. For a reducible f of degree k, f(P) has
    # divisors g of degree k (polys.factor finds them), and every one is reducible, since
    # P maps C_k onto itself: such a g passes the divisibility check, and only Rabin's
    # test refuses the edge (f, g)
    ctx = make_field_ctx(*pmk)
    irr = set(frobenius_orbits(ctx).polys)
    lead = ctx.q ** ctx.k
    reducible = [f for f in (Poly.from_encoding(ctx.Fq, lead + e) for e in range(lead))
                 if f not in irr]
    rng = random.Random("reducible divisor %d %d %d" % pmk)
    for pp in _edge_battery(ctx)[:2] + _certificate_battery(ctx)[-1:]:
        found = 0
        for f in rng.sample(reducible, min(8, len(reducible))):
            g = _divisor_of_degree(factor(compose(f, pp.poly)), ctx.k)
            if g is None:
                continue
            assert dynamics._vanishes(Modulus(g), pp.poly, f) is True
            assert horner_edge(pp.poly, f, g) is True
            assert not is_irreducible(g)
            with pytest.raises(InternalCheckError) as info:
                dynamics._check_edge(ctx, pp.poly, f, g)
            assert str(info.value).startswith(
                "orbit table holds %s, not a monic irreducible of degree k; " % f)
            found += 1
        assert found > 0, pp


def test_star_refuses_a_planted_permutation(monkeypatch):
    # star certifies every answer: a wrong kept permutation is caught on its first read
    x7 = _mono(CTX24, 7)
    perm = dynamics._ik_perm(CTX24, x7)[1]
    assert perm.tolist() == [1, 0, 2]
    monkeypatch.setattr(x7, "perm", np.arange(3))
    assert star(CTX24, x7, I24[2]) == I24[2]
    with pytest.raises(InternalCheckError) as info:
        star(CTX24, x7, I24[0])
    assert str(info.value) == ("orbit table image x^4+x+1 does not divide f(P); "
                               "at (p, m, k) = (2, 1, 4), P = x^7, f = x^4+x+1")


def _rabin_walks(monkeypatch):
    """A list of the moduli of the Rabin tests (Modulus.is_irreducible) run from here on,
    whether through polys.is_irreducible or on a Modulus kept for other products."""
    walks = []
    real = Modulus.is_irreducible
    monkeypatch.setattr(Modulus, "is_irreducible", lambda ring: walks.append(ring.mod)
                        or real(ring))
    return walks


def test_a_certified_image_costs_one_rabin_test(monkeypatch):
    # the test of the image also proves f irreducible, so f itself is not tested: once
    # P's permutation is kept, a star runs one Rabin test, on its image
    x7 = _mono(CTX24, 7)
    spectrum_Ik(CTX24, x7)
    tested = _rabin_walks(monkeypatch)
    f = P(CTX24, "x^4+x+1")
    g = star(CTX24, x7, f)
    assert tested == [g]
    tested.clear()
    dynamics._check_edge(CTX24, x7.poly, f, g)
    assert tested == [g]
    tested.clear()
    g = moebius_star(CTX24, Matrix2(CTX24.Fq, 1, 1, 1, 0), f)
    assert tested == [g]


@pytest.mark.parametrize("pmk", [(2, 1, 4), (2, 1, 20), (3, 2, 2)],
                         ids=lambda pmk: "%d-%d-%d" % pmk)
def test_every_star_certifies_its_own_answer(pmk, monkeypatch):
    # nothing of a certificate is kept between calls: the same star twice runs two
    # divisibility checks and two Rabin walks, each on the image, and each star's two
    # checks share one kept modulus
    ctx = make_field_ctx(*pmk)
    pp = _mono(ctx, 7)
    f = frobenius_orbits(ctx).poly(1)
    g = star(ctx, pp, f)
    rings = []
    walk, vanishes = Modulus.is_irreducible, dynamics._vanishes
    monkeypatch.setattr(Modulus, "is_irreducible", lambda ring: rings.append(("walk", ring))
                        or walk(ring))
    monkeypatch.setattr(dynamics, "_vanishes", lambda ring, *args: rings.append(
        ("vanishes", ring)) or vanishes(ring, *args))
    assert star(ctx, pp, f) == star(ctx, pp, f) == g
    assert [kind for kind, _ in rings] == ["vanishes", "walk"] * 2
    assert all(ring.mod == g for _, ring in rings)
    assert rings[0][1] is rings[1][1] and rings[2][1] is rings[3][1]
    assert rings[0][1] is not rings[2][1]


def test_star_names_a_reducible_f_before_a_P_outside_G_k():
    # f is read off the orbit table before P is certified, so an input wrong in both
    # ways names f
    x3 = Poly.one(CTX24.Fq).shift(3)
    where = "; at (p, m, k) = (2, 1, 4), P = x^3, f = "
    for f in ("x^4+x^2+1", "x^3+x+1", "x^5+x+1", "x^4+x^3"):
        with pytest.raises(PreconditionError) as info:
            star(CTX24, x3, P(CTX24, f))
        assert str(info.value) == "expected a monic irreducible of degree k" + where + f
    with pytest.raises(PreconditionError) as info:
        star(CTX24, x3, P(CTX24, "x^4+x+1"))
    assert str(info.value) == "polynomial does not permute F_{q^k}" + where + "x^4+x+1"


@pytest.mark.parametrize("pmk", [(2, 1, 8), (3, 1, 5), (2, 2, 4)])
def test_star_permutation_of_a_realized_sigma_is_its_inverse(pmk):
    # the main theorem: a P realizing sigma sends the roots of f_i to those of
    # f_sigma(i), so P*f_sigma(i) = f_i; the realized P is dense, of degree near Q
    ctx = make_field_ctx(*pmk)
    n = len(frobenius_orbits(ctx).polys)
    for seed in (1, 2):
        sigma = list(range(n))
        random.Random(seed).shuffle(sigma)
        _, perm = dynamics._ik_perm(ctx, realize_permutation(ctx, sigma))
        assert perm.tolist() == np.argsort(sigma).tolist()


def test_internal_check_errors_name_the_tower(monkeypatch, capsys):
    x7 = _mono(CTX24, 7)
    f = P(CTX24, "x^4+x+1")
    tower = "; at (p, m, k) = (2, 1, 4), "
    with pytest.raises(InternalCheckError, match=re.escape(tower + "P = x^7, f = x^4+x+1")):
        iterate_generation(CTX24, x7, f, bound_claimed=100)
    # a forged x^3 passes the gate: a root of x^4+x+1 has order 15, its images order 5
    alpha = distinguished_root(CTX24, f)
    with pytest.raises(InternalCheckError, match=re.escape(
            tower + "P = x^3, alpha = %d" % alpha)):
        period_Ck(CTX24, PermPoly(Poly.one(CTX24.Fq).shift(3), CTX24.key), alpha)
    # the image is refused and f accepted: the certificate's test, then the one on f
    answers = iter([False, True])
    with monkeypatch.context() as mp:
        mp.setattr(dynamics, "is_irreducible", lambda h: next(answers))
        with pytest.raises(InternalCheckError, match=re.escape(
                tower + "A = M[1,1,1,0], f = x^4+x+1")):
            moebius_star(CTX24, Matrix2(CTX24.Fq, 1, 1, 1, 0), f)
    with monkeypatch.context() as mp:
        real = dynamics.moebius_sum
        mp.setattr(dynamics, "moebius_sum", lambda k, fn: real(k, fn) + 1)
        with pytest.raises(InternalCheckError, match=re.escape(tower + "P = x^7")):
            fixed_count_formula(CTX24, x7)
    with monkeypatch.context() as mp:
        bad = copy.copy(frobenius_orbits(CTX24))
        bad.node = np.full_like(bad.node, -1)
        mp.setattr(dynamics, "frobenius_orbits", lambda ctx: bad)
        with pytest.raises(InternalCheckError, match=re.escape(
                tower + "P = x^7, f = x^4+x+1")):
            diamond(CTX24, x7, f)
    real = dynamics.moebius_sum
    monkeypatch.setattr(dynamics, "moebius_sum", lambda k, fn: real(k, fn) + 1)
    code = cli.main(["fixed", "--p", "2", "--k", "4", "--perm", "x^7", "--method", "both"])
    assert code == 4
    assert capsys.readouterr().err == (
        "error: fixed-point count evaluations disagree" + tower + "P = x^7\n")


def test_diamond_inverts_star():
    for ctx, irr in ((CTX24, I24), (CTX33, I33)):
        for pp in _perm_battery(ctx)[:6]:
            for f in irr:
                assert diamond(ctx, pp, gcd_star(ctx, pp, f)) == f
                assert gcd_star(ctx, pp, diamond(ctx, pp, f)) == f


def test_diamond_pins():
    x7 = _mono(CTX24, 7)
    f1, f2, f3 = I24
    assert diamond(CTX24, x7, f2) == f1
    assert diamond(CTX24, x7, f1) == f2
    assert diamond(CTX24, x7, f3) == f3


def test_fixed_points_direct_pins():
    f1, f2, f3 = I24
    assert fixed_points_direct(CTX24, _mono(CTX24, 7)) == [f3]
    assert fixed_points_direct(CTX33, certify_perm(CTX33, P(CTX33, "x^3+x"))) == []
    ident = certify_perm(CTX24, Poly.x(CTX24.Fq))
    assert fixed_points_direct(CTX24, ident) == list(I24)


@pytest.mark.parametrize("ctx", [CTX24, CTX33])
def test_fixed_count_formula_matches_direct_and_graph(ctx):
    for pp in _perm_battery(ctx):
        count = fixed_count_formula(ctx, pp)
        assert count == len(fixed_points_direct(ctx, pp))
        ones = sum(cnt for n, cnt in graph_Ik(ctx, pp).summary if n == 1)
        assert count == ones


# every tower with p in {2, 3, 5, 7}, m <= 3 and q^k <= 4096
PSI_TOWERS = [(p, m, k) for p in (2, 3, 5, 7) for m in (1, 2, 3) for k in range(1, 13)
              if p ** (m * k) <= 4096]


@pytest.mark.parametrize("pmk", PSI_TOWERS, ids=lambda pmk: "%d-%d-%d" % pmk)
def test_fixed_count_formula_matches_the_psi_product(pmk):
    # x^n, L[h], the sparse M[1,1,1,0] (x^(Q-2) + 1) and the dense M[1,0,1,1]
    ctx = make_field_ctx(*pmk)
    battery = _edge_battery(ctx) + [moebius_poly_rep(ctx, Matrix2(ctx.Fq, 1, 0, 1, 1))]
    for pp in battery:
        assert fixed_count_formula(ctx, pp) == psi_fixed_count(ctx, pp), pp


@pytest.mark.parametrize("pmk,n,count", [((2, 1, 18), 13, 2), ((2, 1, 20), 13, 3),
                                         ((3, 1, 12), 11, 4)], ids=["2-1-18", "2-1-20", "3-1-12"])
def test_fixed_count_formula_at_the_guard(pmk, n, count):
    ctx = make_field_ctx(*pmk)
    assert fixed_count_formula(ctx, _mono(ctx, n)) == fixed_count_monomial(ctx, n) == count


def test_fixed_count_formula_refuses_a_kept_permutation_with_an_extra_fixed_point(monkeypatch):
    x3 = _mono(CTX25, 3)  # a fresh certified P, which keeps its own star permutation
    perm = dynamics._ik_perm(CTX25, x3)[1]
    assert fixed_count_formula(CTX25, x3) == 0
    # the star of x^3 on I_5 is a 6-cycle; sending the preimage j of 0 to perm[0]
    # and 0 to itself leaves a permutation with one fixed point
    j = int(np.flatnonzero(perm == 0)[0])
    bad = perm.copy()
    bad[0], bad[j] = 0, perm[0]
    monkeypatch.setattr(x3, "perm", bad)
    with pytest.raises(InternalCheckError, match=re.escape(
            "fixed-point count evaluations disagree; at (p, m, k) = (2, 1, 5), P = x^3") + "$"):
        fixed_count_formula(CTX25, x3)


def test_fixed_count_monomial_pins():
    assert fixed_count_monomial(CTX24, 7) == 1
    assert fixed_count_monomial(CTX25, 33) == 6
    assert fixed_count_monomial(make_field_ctx(3, 1, 1), 1) == 3
    with pytest.raises(PreconditionError):
        fixed_count_monomial(CTX24, 3)


@pytest.mark.parametrize("ctx", [CTX24, CTX33, CTX25])
def test_fixed_count_monomial_matches_formula(ctx):
    for n in range(1, ctx.Q - 1):
        if math.gcd(n, ctx.Q - 1) == 1:
            assert fixed_count_monomial(ctx, n) == fixed_count_formula(ctx, _mono(ctx, n))


def test_fixed_count_linearized_pins():
    ctx23 = make_field_ctx(2, 1, 3)
    assert fixed_count_linearized(ctx23, P(ctx23, "x^2")) == 2  # Frobenius^2 fixes I_3
    assert fixed_count_linearized(CTX33, P(CTX33, "x+1")) == 0
    assert fixed_count_linearized(CTX24, Poly.one(CTX24.Fq)) == 3  # identity map
    with pytest.raises(PreconditionError):
        fixed_count_linearized(CTX24, P(CTX24, "x+1"))  # shares x + 1 with x^4 - 1


@pytest.mark.parametrize("ctx", [CTX24, CTX33])
def test_fixed_count_linearized_matches_formula(ctx):
    one = Poly.one(ctx.Fq)
    xk1 = one.shift(ctx.k) - one
    for enc in range(1, ctx.q ** ctx.k):
        h = Poly.from_encoding(ctx.Fq, enc)
        if h.degree < ctx.k and poly_gcd(h, xk1).degree == 0:
            pp = certify_perm(ctx, q_associate(h))
            assert fixed_count_linearized(ctx, h) == fixed_count_formula(ctx, pp)


def test_fixed_count_prime_monomial_pins():
    assert fixed_count_prime_monomial(2, 5, 2) == 6
    assert fixed_count_prime_monomial(2, 5, 3) == 0
    assert fixed_count_prime_monomial(3, 3, 3) == 8
    assert fixed_count_prime_monomial(3, 3, 5) == 0
    with pytest.raises(PreconditionError):
        fixed_count_prime_monomial(2, 4, 7)  # 15 is not prime
    with pytest.raises(PreconditionError):
        fixed_count_prime_monomial(2, 5, 31 * 2)


@pytest.mark.parametrize("q,k,ctx", [(2, 5, CTX25), (3, 3, CTX33)])
def test_fixed_count_prime_monomial_matches_general(q, k, ctx):
    for n in range(1, ctx.Q - 1):
        if math.gcd(n, ctx.Q - 1) == 1:
            assert fixed_count_prime_monomial(q, k, n) == fixed_count_monomial(ctx, n)


def test_fixed_count_prime_linearized_pins():
    ctx35 = make_field_ctx(3, 1, 5)
    assert fixed_count_prime_linearized(3, 5, P(ctx35, "x^2")) == 48
    ctx32 = make_field_ctx(3, 1, 2)
    assert fixed_count_prime_linearized(3, 2, P(ctx32, "2x")) == 1
    ctx22 = make_field_ctx(2, 1, 2)
    assert fixed_count_prime_linearized(2, 2, Poly.x(ctx22.Fq)) == 1
    with pytest.raises(PreconditionError):
        fixed_count_prime_linearized(3, 4, Poly.x(ctx32.Fq))  # k not prime
    with pytest.raises(PreconditionError):
        fixed_count_prime_linearized(3, 3, P(CTX33, "x^2"))  # T reducible over F_3


@pytest.mark.parametrize("q,k", [(2, 3), (2, 5), (3, 2)])
def test_fixed_count_prime_linearized_matches_general(q, k):
    ctx = make_field_ctx(q, 1, k)
    one = Poly.one(ctx.Fq)
    xk1 = one.shift(k) - one
    for enc in range(1, q ** k):
        h = Poly.from_encoding(ctx.Fq, enc)
        if h.degree < k and poly_gcd(h, xk1).degree == 0:
            assert fixed_count_prime_linearized(q, k, h) == fixed_count_linearized(ctx, h)


@pytest.mark.parametrize("op", [
    lambda h: fixed_count_linearized(CTX25, h),
    lambda h: fixed_count_prime_linearized(2, 5, h),
    lambda h: linearized_cycle_structure(2, 5, h),
    lambda h: bound_linearized(2, 5, h),
], ids=["fixed_count", "fixed_count_prime", "cycle_structure", "bound"])
def test_linearized_family_refuses_h_not_coprime_to_x_k_minus_1(op):
    assert op(Poly.x(CTX25.Fq)) is not None  # E_5 is irreducible over F_2
    for h in (Poly.zero(CTX25.Fq), P(CTX25, "x+1"), P(CTX25, "x^4+x^3+x^2+x+1")):
        with pytest.raises(PreconditionError):
            op(h)


def test_graph_Ck_pins():
    g = graph_Ck(CTX24, _mono(CTX24, 7))
    assert g.summary == [(4, 3)]
    assert sorted(g.nodes) == [int(a) for a in enumerate_Ck(CTX24)]
    for cyc in g.cycles:
        assert cyc[0] == min(cyc)
    assert [c[0] for c in g.cycles] == sorted(c[0] for c in g.cycles)


def test_graph_Ck_rejects_non_permutation_of_Ck():
    # gcd(3, 15) = 3, so x^3 collapses C_4 of F_16
    with pytest.raises(PreconditionError):
        graph_Ck(CTX24, Poly.one(CTX24.Fq).shift(3))


def test_graph_Ik_example1():
    g = graph_Ik(CTX24, _mono(CTX24, 7))
    assert g.nodes == ["x^4+x+1", "x^4+x^3+1", "x^4+x^3+x^2+x+1"]
    assert g.cycles == [["x^4+x+1", "x^4+x^3+1"], ["x^4+x^3+x^2+x+1"]]
    assert g.summary == [(2, 1), (1, 1)]


def test_graph_Ik_example2_decomposition():
    pp = certify_perm(CTX33, P(CTX33, "x^3+x"))
    g = graph_Ik(CTX33, pp)
    assert g.summary == [(2, 1), (6, 1)]
    idx = {str(f): i + 1 for i, f in enumerate(I33)}
    parts = []
    for cyc in g.cycles:
        parts.append("(" + " ".join(str(idx[name]) for name in cyc) + ")")
    assert "".join(parts) == "(1 2)(3 8 4 6 5 7)"


def test_graph_emitters():
    g = graph_Ik(CTX24, _mono(CTX24, 7))
    dot = g.to_dot()
    assert dot.startswith("digraph G {")
    assert dot.rstrip().endswith("}")
    assert "subgraph cluster_0 {" in dot and "subgraph cluster_1 {" in dot
    assert '"x^4+x+1" -> "x^4+x^3+1";' in dot
    assert '"x^4+x^3+x^2+x+1" -> "x^4+x^3+x^2+x+1";' in dot
    data = json.loads(g.to_json())
    assert set(data) == {"nodes", "cycles", "summary"}
    assert data["summary"] == [[2, 1], [1, 1]]
    assert data["cycles"][0] == ["x^4+x+1", "x^4+x^3+1"]
    empty = FunctionalGraph(np.array([], dtype=np.int32), np.array([], dtype=np.int64),
                            np.ndarray.tolist)
    assert empty.to_dot() == "digraph G {\n}"


@pytest.mark.parametrize("pmk,perm,on", [
    ((2, 1, 6), "x^5", "ck"), ((2, 1, 8), "L[x^2+x+1]", "ik"), ((3, 2, 2), "x^7", "ik"),
    ((2, 1, 4), "x", "ck"), ((3, 1, 3), "M[0,1,1,0]", "ck"),
], ids=str)
def test_dot_equals_the_line_by_line_text(pmk, perm, on):
    ctx = make_field_ctx(*pmk)
    P = cli.parse_perm_expr(ctx, perm)
    g = graph_Ck(ctx, P) if on == "ck" else graph_Ik(ctx, P)
    assert g.to_dot() == loop_dot(g)


def test_functional_graph_partition_check():
    with pytest.raises(InternalCheckError):
        # one cycle of length 1 on two nodes
        FunctionalGraph(np.arange(2), np.array([1]), np.ndarray.tolist)


def test_a_graph_Ck_answer_keeps_no_python_object_per_node():
    # a kept answer is the int32 walk order and the cycle lengths: under 8 bytes a node,
    # where a Python int per node takes 36 (its 28-byte object and a list slot)
    ctx = make_field_ctx(2, 2, 6)
    P = certify_perm(ctx, Poly.one(ctx.Fq).shift(11))
    graph_Ck(ctx, P)  # builds the orbit table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = graph_Ck(ctx, P)
        grew = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(g.order) == 4020  # |C_6| over F_4
    assert grew < 8 * len(g.order)


def test_period_pins():
    x7 = _mono(CTX24, 7)
    f1, f2, f3 = I24
    assert period_Ik(CTX24, x7, f1) == 2
    assert period_Ik(CTX24, x7, f2) == 2
    assert period_Ik(CTX24, x7, f3) == 1
    alpha = distinguished_root(CTX24, f1)
    assert period_Ck(CTX24, x7, alpha) == 4
    with pytest.raises(PreconditionError):
        period_Ck(CTX24, x7, 1)  # degree-1 element


def test_periods_match_graph_cycles():
    for ctx, irr in ((CTX24, I24), (CTX33, I33)):
        for pp in _perm_battery(ctx)[:5]:
            gk = graph_Ck(ctx, pp)
            for cyc in gk.cycles:
                assert period_Ck(ctx, pp, cyc[0]) == len(cyc)
            gi = graph_Ik(ctx, pp)
            name_to_poly = {str(f): f for f in irr}
            for cyc in gi.cycles:
                assert period_Ik(ctx, pp, name_to_poly[cyc[0]]) == len(cyc)


def test_spectrum():
    x7 = _mono(CTX24, 7)
    sck = spectrum_Ck(CTX24, x7)
    assert sck.lengths == [4, 4, 4] and sck.S == [4] and sck.mu == 4
    sik = spectrum_Ik(CTX24, x7)
    assert sik.lengths == [1, 2] and sik.S == [1, 2] and sik.mu == 1
    with pytest.raises(PreconditionError):
        CycleSpectrum([])


def test_monomial_cycle_structure_pins():
    assert monomial_cycle_structure(2, 4, 7) == [(4, 3)]
    assert monomial_cycle_structure(2, 4, 1) == [(1, 12)]
    assert monomial_cycle_structure(2, 1, 1) == [(1, 1)]  # omits the zero node
    with pytest.raises(PreconditionError):
        monomial_cycle_structure(2, 4, 5)


@pytest.mark.parametrize("q,k,ctx", [(2, 4, CTX24), (3, 3, CTX33)])
def test_monomial_cycle_structure_matches_graph(q, k, ctx):
    for n in range(1, ctx.Q - 1):
        if math.gcd(n, ctx.Q - 1) != 1:
            continue
        got = monomial_cycle_structure(q, k, n)
        brute = sorted(graph_Ck(ctx, _mono(ctx, n)).summary)
        assert got == brute


def test_linearized_cycle_structure_pins():
    assert linearized_cycle_structure(3, 3, P(CTX33, "x+1")) == \
        sorted(graph_Ck(CTX33, certify_perm(CTX33, P(CTX33, "x^3+x"))).summary)
    assert sum(n * c for n, c in linearized_cycle_structure(3, 3, P(CTX33, "x+1"))) == 24
    assert linearized_cycle_structure(3, 3, Poly.one(CTX33.Fq)) == [(1, 24)]
    assert linearized_cycle_structure(3, 3, Poly.x(CTX33.Fq)) == [(3, 8)]
    ctx31 = make_field_ctx(3, 1, 1)
    assert linearized_cycle_structure(3, 1, Poly.const(ctx31.Fq, 2)) == [(1, 1), (2, 1)]


@pytest.mark.parametrize("q,k", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_linearized_cycle_structure_matches_graph(q, k):
    ctx = make_field_ctx(q, 1, k)
    one = Poly.one(ctx.Fq)
    xk1 = one.shift(k) - one
    for enc in range(1, q ** k):
        h = Poly.from_encoding(ctx.Fq, enc)
        if h.degree >= k or poly_gcd(h, xk1).degree != 0:
            continue
        pp = certify_perm(ctx, q_associate(h))
        assert linearized_cycle_structure(q, k, h) == sorted(graph_Ck(ctx, pp).summary)


def test_moebius_cycle_structure_pins():
    F2 = CTX24.Fq
    ident = Matrix2.identity(F2)
    assert moebius_cycle_structure(2, 4, ident) == [(1, 12)]
    A = Matrix2(F2, 1, 1, 0, 1)
    assert moebius_cycle_structure(2, 4, A) == [(2, 6)]
    with pytest.raises(PreconditionError):
        moebius_cycle_structure(2, 2, A)


def test_moebius_cycle_structure_matches_graph():
    F2 = CTX24.Fq
    for a, b, c, d in itertools.product(range(2), repeat=4):
        try:
            A = Matrix2(F2, a, b, c, d)
        except PreconditionError:
            continue
        rep = moebius_poly_rep(CTX24, A)
        assert moebius_cycle_structure(2, 4, A) == sorted(graph_Ck(CTX24, rep).summary)


def test_moebius_star_matches_star_of_representative():
    F2 = CTX24.Fq
    for a, b, c, d in itertools.product(range(2), repeat=4):
        try:
            A = Matrix2(F2, a, b, c, d)
        except PreconditionError:
            continue
        rep = moebius_poly_rep(CTX24, A)
        for f in I24:
            assert moebius_star(CTX24, A, f) == star(CTX24, rep, f)


def test_moebius_star_composition_law():
    F3 = CTX33.Fq
    mats = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        try:
            mats.append(Matrix2(F3, a, b, c, d))
        except PreconditionError:
            continue
    f = I33[0]
    for A in mats[:8]:
        for B in mats[:8]:
            lhs = moebius_star(CTX33, A, moebius_star(CTX33, B, f))
            assert lhs == moebius_star(CTX33, B @ A, f)


def test_moebius_star_translation_pin():
    A = Matrix2(CTX24.Fq, 1, 1, 0, 1)  # z -> z + 1
    f = P(CTX24, "x^4+x+1")
    assert moebius_star(CTX24, A, f) == compose(f, P(CTX24, "x+1")).monic() == f


def test_moebius_star_needs_k_at_least_2():
    ctx21 = make_field_ctx(2, 1, 1)
    with pytest.raises(PreconditionError):
        moebius_star(ctx21, Matrix2.identity(ctx21.Fq), Poly.x(ctx21.Fq))


def test_invariant_report_monomial():
    x7 = _mono(CTX24, 7)
    n0 = pow(7, -1, 15)
    for f in I24:
        rep = invariant_report(CTX24, x7, f)
        assert set(rep) == {"ord_preserved", "fq_order_preserved",
                            "norm_relation", "trace_relation"}
        assert rep["ord_preserved"] is True
        assert rep["norm_relation"] is True
        assert rep["fq_order_preserved"] is None
        assert rep["trace_relation"] is None
        Pf = gcd_star(CTX24, x7, f)
        assert mult_order(CTX24, Pf) == mult_order(CTX24, f)
        assert norm_of(CTX24, Pf) == CTX24.Fq.pow(norm_of(CTX24, f), n0)


def test_invariant_report_linearized():
    pp = certify_perm(CTX33, P(CTX33, "x^3+x"))
    for f in I33:
        rep = invariant_report(CTX33, pp, f)
        assert rep["fq_order_preserved"] is True
        assert rep["trace_relation"] is True
        assert rep["ord_preserved"] is None
        assert rep["norm_relation"] is None
        Pf = gcd_star(CTX33, pp, f)
        c = CTX33.Fq.inv(P(CTX33, "x+1")(1))
        assert trace_of(CTX33, Pf) == CTX33.Fq.mul(c, trace_of(CTX33, f))


@pytest.mark.parametrize("perm", ["x^7", "L[x^2+x+1]"])
def test_invariant_report_runs_one_rabin_test(perm, monkeypatch):
    # star's certificate proves f and P*f irreducible, so no order, norm or trace tests
    # them again
    pp = _mono(CTX24, 7) if perm == "x^7" else certify_perm(
        CTX24, q_associate(P(CTX24, "x^2+x+1")))
    f = P(CTX24, "x^4+x+1")
    expected = invariant_report(CTX24, pp, f)
    g = star(CTX24, pp, f)
    walks = _rabin_walks(monkeypatch)
    assert invariant_report(CTX24, pp, f) == expected
    assert walks == [g]


def test_invariant_report_rejects_other_families():
    swap = realize_permutation(CTX24, {0: 1, 1: 0, 2: 2})
    with pytest.raises(PreconditionError):
        invariant_report(CTX24, swap, I24[0])


@st.composite
def permutation_arrays(draw):
    """The image array of a permutation of range(n), 1 <= n <= 5000: the identity, one
    n-cycle, an involution, or a uniform permutation, drawn from a seeded generator."""
    n = draw(st.integers(1, 5000))
    kind = draw(st.sampled_from(("identity", "n-cycle", "involution", "uniform")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    perm = np.arange(n)
    walk = rng.permutation(n)
    if kind == "n-cycle":
        perm[walk] = np.roll(walk, -1)
    elif kind == "involution":
        half = draw(st.integers(0, n // 2))
        perm[walk[:half]] = walk[half:2 * half]
        perm[walk[half:2 * half]] = walk[:half]
    elif kind == "uniform":
        perm = walk
    return perm


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(permutation_arrays())
@example(np.arange(1))
@example(np.arange(5000))
@example(np.roll(np.arange(5000), 1))
@example(np.arange(5000)[::-1].copy())
def test_cycles_equal_the_loop_walk(perm):
    cycles = loop_cycles(perm)
    order, lengths = dynamics._cycles(perm)
    assert order.tolist() == [i for cyc in cycles for i in cyc]
    assert lengths.tolist() == [len(cyc) for cyc in cycles]
    assert sorted(dynamics._cycle_lengths(perm)) == sorted(map(len, cycles))
