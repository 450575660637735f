"""The guard-size tables at their stored widths, against plain-integer tower arithmetic.

exp, node and the star permutations are int32 and the orbit table's rows the least
unsigned dtype that holds q - 1, while log stays int64. At Q <= 4096 every log product
stays below 2^24, so only towers near the guard can show an int32 overflow: at
Q = 2^20, (e mod (Q - 1)) log x reaches 2^40. Each value here is checked against
oracles.TowerArithmetic, which reads no exp or log table.
"""

import random

import numpy as np
import pytest

from permdyn import certify_perm, make_field_ctx, q_associate
from permdyn.context import embed_poly, frobenius_orbits
from permdyn.dynamics import _ik_perm
from permdyn.polys import Poly

from oracles import TowerArithmetic

# (p, m, k) and an exponent n with x^n in G_k
GUARD_TOWERS = [((2, 1, 20), 7), ((3, 1, 12), 11), ((2, 2, 10), 7)]
IDS = ["%d-%d-%d" % pmk for pmk, _ in GUARD_TOWERS]


def _points(ctx, rng, count):
    """0, 1, Q - 1 and a seeded sample of other encodings of F_{q^k}."""
    return np.array([0, 1, ctx.Q - 1] + [rng.randrange(2, ctx.Q - 1) for _ in range(count - 3)],
                    dtype=np.int64)


@pytest.mark.parametrize("pmk,n", GUARD_TOWERS, ids=IDS)
def test_tables_are_stored_at_their_widths(pmk, n):
    ctx = make_field_ctx(*pmk)
    orbits = frobenius_orbits(ctx)
    P = certify_perm(ctx, Poly.one(ctx.Fq).shift(n))
    F = ctx.Fqk
    assert (F.exp.dtype, F.log.dtype) == (np.int32, np.int64)
    assert (orbits.node.dtype, orbits.codes.dtype, orbits.roots.dtype) == (
        np.int32, np.int64, np.int64)
    assert orbits.coeffs.dtype == (np.uint8 if ctx.q <= 256 else np.uint16)
    assert _ik_perm(ctx, P)[1].dtype == np.int32
    assert P.exps.dtype == np.int32 and P.exps.tolist() == [n]


@pytest.mark.parametrize("pmk,n", GUARD_TOWERS, ids=IDS)
def test_vector_arithmetic_equals_the_tower_oracle(pmk, n):
    ctx = make_field_ctx(*pmk)
    F, T = ctx.Fqk, TowerArithmetic(ctx)
    rng = random.Random("vector %d %d %d" % pmk)
    xs, ys = _points(ctx, rng, 48), _points(ctx, rng, 48)[::-1].copy()
    got = F.vmul(xs, ys)
    assert got.dtype == np.int32
    assert got.tolist() == [T.mul(int(x), int(y)) for x, y in zip(xs, ys)]
    assert [F.mul(int(x), int(y)) for x, y in zip(xs, ys)] == got.tolist()
    few = xs[:12]
    for e in (ctx.q, n, ctx.Q - 2, rng.randrange(ctx.Q, 4 * ctx.Q)):
        want = [T.pow(int(x), e) for x in few]
        assert F.vpow(few, e).tolist() == want, e
        assert [F.pow(int(x), e) for x in few] == want, e


@pytest.mark.parametrize("pmk,n", GUARD_TOWERS, ids=IDS)
def test_evaluation_equals_the_tower_oracle(pmk, n):
    # x^n, x^(Q-2) (whose log products are the largest), L[x^2+x+1] and a small dense P
    ctx = make_field_ctx(*pmk)
    T = TowerArithmetic(ctx)
    rng = random.Random("eval %d %d %d" % pmk)
    xs = _points(ctx, rng, 24)
    one = Poly.one(ctx.Fq)
    dense = Poly(ctx.Fq, [rng.randrange(ctx.q) for _ in range(12)] + [1])
    for P in (one.shift(n), one.shift(ctx.Q - 2), q_associate(Poly(ctx.Fq, [1, 1, 1])), dense):
        got = embed_poly(ctx, P).eval_many(xs)
        assert got.dtype == np.int32
        assert got.tolist() == [T.eval(P.coeffs.tolist(), int(x)) for x in xs], P


@pytest.mark.parametrize("pmk,n", GUARD_TOWERS, ids=IDS)
def test_sampled_orbit_rows_equal_the_tower_oracle(pmk, n):
    # each sampled row is the minimal polynomial of its least root, multiplied out over
    # the root's conjugates, and node sends every conjugate to the row
    ctx = make_field_ctx(*pmk)
    orbits = frobenius_orbits(ctx)
    T = TowerArithmetic(ctx)
    rng = random.Random("rows %d %d %d" % pmk)
    rows = [0, len(orbits.codes) - 1] + rng.sample(range(1, len(orbits.codes) - 1), 6)
    for i in rows:
        root = int(orbits.roots[i])
        conj, coeffs = T.minimal_poly(root)
        assert len(conj) == ctx.k and root == min(conj), i
        assert orbits.coeffs[i].tolist() == coeffs, i
        assert int(orbits.codes[i]) == sum(c * ctx.q ** j for j, c in enumerate(coeffs)), i
        assert orbits.node[conj].tolist() == [i] * ctx.k, i
