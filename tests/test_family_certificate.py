"""The closed families' certificate: x^n and L[h] are decided by their gcd criteria.

certify_perm accepts c x^n + b iff gcd(n, Q - 1) = 1 and sum a_i x^(q^i) + b iff
gcd(sum a_i x^i, x^k - 1) = 1, with no evaluation; every other P is evaluated at all
Q points (_certified_table, the exhaustive route). The exhaustive route is the oracle
for the criteria: same verdict, same refusal text and same certified PermPoly.
"""

import random

import numpy as np
import pytest

from permdyn import permgroup
from permdyn.context import frobenius_orbits, make_field_ctx
from permdyn.dynamics import _member, star
from permdyn.errors import PreconditionError
from permdyn.fields import GF
from permdyn.numth import is_prime
from permdyn.permgroup import (
    Matrix2, PermPoly, _certified_table, certify_perm, gk_compose, moebius_poly_rep,
)
from permdyn.polys import Poly, poly_gcd, q_associate
from permdyn.textio import parse_poly

# every tower with k >= 2 and q^k <= 4096: 57 towers, m up to 6 and p up to 61
CERT_TOWERS = [(p, m, k) for p in range(2, 65) if is_prime(p)
               for m in range(1, 7) for k in range(2, 13) if p ** (m * k) <= 4096]
IDS = ["%d-%d-%d" % pmk for pmk in CERT_TOWERS]
SAMPLE = 256  # members of each family drawn where Q > 1024
NOT_A_PERMUTATION = "polynomial does not permute F_{q^k}"


def _outcome(certify, ctx, P):
    """The PermPoly that certify makes of P, or its refusal text."""
    try:
        out = certify(ctx, P)
    except PreconditionError as exc:
        return str(exc)
    return out if isinstance(out, PermPoly) else out[0]


class _Evaluated(Exception):
    pass


def _refuse_evaluation(*args):
    raise _Evaluated("a Q-point evaluation ran")


def _linearized(ctx, h):
    """sum h[i] x^(q^i) over F_q, for a coefficient list h of length k."""
    coeffs = np.zeros(ctx.q ** (ctx.k - 1) + 1, dtype=np.int64)
    coeffs[ctx.q ** np.arange(ctx.k)] = h
    return Poly(ctx.Fq, coeffs)


def _family(ctx, rng):
    """Every monomial exponent and every nonzero h of degree < k (a seeded sample of each
    where Q > 1024), as c x^n and L_h, each with no constant term and with a seeded one."""
    Q, q = ctx.Q, ctx.q
    exps = range(1, Q) if Q <= 1024 else rng.sample(range(1, Q), SAMPLE)
    codes = range(1, Q) if Q <= 1024 else rng.sample(range(1, Q), SAMPLE)
    for n in exps:
        coeffs = np.zeros(n + 1, dtype=np.int64)
        coeffs[n] = rng.randrange(1, q)
        yield Poly(ctx.Fq, coeffs)
    for code in codes:
        yield _linearized(ctx, [code // q ** i % q for i in range(ctx.k)])


@pytest.mark.parametrize("pmk", CERT_TOWERS, ids=IDS)
def test_criteria_equal_the_exhaustive_route(pmk, monkeypatch):
    ctx = make_field_ctx(*pmk)
    rng = random.Random("family certificate %d %d %d" % pmk)
    verdicts = {True: 0, False: 0}
    for P in _family(ctx, rng):
        for b in (0, rng.randrange(1, ctx.q)):
            Pb = P + Poly.const(ctx.Fq, b)
            want = _outcome(_certified_table, ctx, Pb)
            with monkeypatch.context() as patch:
                patch.setattr(permgroup, "perm_table", _refuse_evaluation)
                got = _outcome(certify_perm, ctx, Pb)
            assert got == want, (str(Pb), got, want)
            verdicts[isinstance(got, PermPoly)] += 1
            if isinstance(got, PermPoly):
                assert np.array_equal(got.exps, np.flatnonzero(got.poly.coeffs))
                assert not got.exps.flags.writeable
    # both verdicts occur on every tower: x^(Q-1) and L[x-1] never permute
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("pmk", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 2), (2, 3, 2)],
                         ids=lambda pmk: "%d-%d-%d" % pmk)
def test_every_other_P_is_evaluated_once(pmk, monkeypatch):
    # outside the two families the route is the Q-point table, whose verdict the
    # criteria must not preempt: a constant, a p-linearized map over F_q with m > 1,
    # raw dense text, a Moebius representative and a composition of mixed families
    ctx = make_field_ctx(*pmk)
    one, x = Poly.one(ctx.Fq), Poly.x(ctx.Fq)
    rng = random.Random("other %d %d %d" % pmk)
    M = moebius_poly_rep(ctx, Matrix2(ctx.Fq, 0, 1, 1, 1))  # 1/(z + 1): dense
    L = certify_perm(ctx, q_associate(_coprime_h(ctx, rng, one.shift(ctx.k) - one)))
    others = [one, x * x * x + x * x + x, M.poly, gk_compose(ctx, L, M).poly]
    if ctx.m > 1:
        others.append(one.shift(ctx.p) + x)  # x^p + x: additive, but not a q-associate
    table = permgroup.perm_table
    calls = []

    def counted(*args):
        calls.append(args)
        return table(*args)

    for P in others:
        want = _outcome(_certified_table, ctx, P)
        del calls[:]
        with monkeypatch.context() as patch:
            patch.setattr(permgroup, "perm_table", counted)
            assert _outcome(certify_perm, ctx, P) == want
        assert len(calls) == 1, str(P)


def test_guard_certificates_evaluate_nothing(monkeypatch):
    # at (2,1,20) the two queries-k20 maps and the Moebius-shaped x^(Q-2) are decided by
    # their gcd criteria, with no value table and no evaluation
    ctx = make_field_ctx(2, 1, 20)
    one = Poly.one(ctx.Fq)
    monkeypatch.setattr(permgroup, "perm_table", _refuse_evaluation)
    monkeypatch.setattr(GF, "keval", _refuse_evaluation)
    for P, text in ((one.shift(7), "x^7"), (one.shift(ctx.Q - 2), "x^1048574"),
                    (q_associate(Poly(ctx.Fq, [1, 1, 1])), "x^4+x^2+x")):
        out = certify_perm(ctx, P)
        assert str(out) == text
        assert out.exps.tolist() == np.flatnonzero(P.coeffs).tolist()
    with pytest.raises(PreconditionError) as info:
        _member(ctx, one.shift(3))  # gcd(3, 2^20 - 1) = 3
    assert str(info.value) == NOT_A_PERMUTATION + "; at (p, m, k) = (2, 1, 20), P = x^3"


@pytest.mark.parametrize("pmk,text,named", [
    ((2, 1, 4), "x^3", "x^3"),                  # gcd(3, 15) = 3
    ((2, 1, 4), "x^6+1", "x^6+1"),              # with a constant term
    ((2, 1, 4), "x^2+x", "x^2+x"),              # L[x+1]: x + 1 divides x^4 - 1
    ((3, 1, 3), "x^9+x^3+x+2", "x^9+x^3+x+2"),  # L[x^2+x+1] + 2, with h(1) = 0
    ((2, 2, 3), "x^16+x", "x^16+x"),            # L[x^2+1] over F_4
    ((2, 1, 20), "x^3", "x^3"),
], ids=["x^3", "constant", "L[x+1]", "linearized-3-1-3", "linearized-2-2-3", "x^3-2-1-20"])
def test_a_criterion_refuses_in_the_exhaustive_words(pmk, text, named, monkeypatch):
    ctx = make_field_ctx(*pmk)
    P = parse_poly(ctx.Fq, text)
    assert _outcome(_certified_table, ctx, P) == NOT_A_PERMUTATION
    monkeypatch.setattr(permgroup, "perm_table", _refuse_evaluation)
    assert _outcome(certify_perm, ctx, P) == NOT_A_PERMUTATION
    with pytest.raises(PreconditionError) as info:
        _member(ctx, P)
    assert str(info.value) == "%s; at (p, m, k) = (%d, %d, %d), P = %s" % (
        NOT_A_PERMUTATION, *pmk, named)
    f = frobenius_orbits(ctx).poly(0)
    with pytest.raises(PreconditionError) as info:
        star(ctx, P, f)
    assert str(info.value) == "%s; at (p, m, k) = (%d, %d, %d), P = %s, f = %s" % (
        NOT_A_PERMUTATION, *pmk, named, f)


PAIRS = 4  # seeded pairs of each family on each tower


def _coprime(rng, bound, modulus):
    while True:
        n = rng.randrange(1, bound)
        if np.gcd(n, modulus) == 1:
            return n


@pytest.mark.parametrize("pmk", CERT_TOWERS, ids=IDS)
def test_gk_compose_stays_in_the_closed_families(pmk, monkeypatch):
    # x^a after x^b is x^(1 + (ab - 1) mod (Q - 1)), and L_h after L_g is
    # L_(hg mod x^k - 1); the product is certified by the criteria alone
    ctx = make_field_ctx(*pmk)
    Q, q, k = ctx.Q, ctx.q, ctx.k
    rng = random.Random("gk_compose %d %d %d" % pmk)
    one = Poly.one(ctx.Fq)
    xk1 = one.shift(k) - one
    monkeypatch.setattr(permgroup, "perm_table", _refuse_evaluation)
    for _ in range(PAIRS):
        a, b = _coprime(rng, Q, Q - 1), _coprime(rng, Q, Q - 1)
        got = gk_compose(ctx, certify_perm(ctx, one.shift(a)), one.shift(b))
        assert got.poly == one.shift(1 + (a * b - 1) % (Q - 1)), (a, b)
        h, g = (_coprime_h(ctx, rng, xk1) for _ in range(2))
        got = gk_compose(ctx, certify_perm(ctx, q_associate(h)), q_associate(g))
        assert got.poly == q_associate(h * g % xk1), (str(h), str(g))


def _coprime_h(ctx, rng, xk1):
    """A seeded nonzero h of degree < k over F_q with gcd(h, x^k - 1) = 1."""
    while True:
        h = Poly(ctx.Fq, [rng.randrange(ctx.q) for _ in range(ctx.k)])
        if not h.is_zero and poly_gcd(h, xk1).degree == 0:
            return h
