"""Property tests of the Frobenius-orbit table against per-polynomial oracles.

Each example draws a small tower F_p <= F_q <= F_{q^k} (m = 1, 2, 3) and a
permutation of F_{q^k} from one of the families x^n, L[h], M[a,b,c,d], then
compares the table-driven operations with routes that never read the table:
Rabin enumeration, the gcd definition of star and generation by repeated gcd
stars, the divisor-sum fixed-point count, and roots found by evaluating at
every element. The table itself, built from the cyclotomic cosets of the
discrete log, is compared with one built on all of F_{q^k} by a gathered
x -> x^q table.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from permdyn.context import (conjugates, embed_poly, enumerate_Ck, frobenius_orbits,
                             make_field_ctx, minimal_poly, roots_in_ext)
from permdyn.dynamics import (_ck_perm, _ik_perm, diamond, fixed_count_formula,
                              fixed_points_direct, graph_Ck, graph_Ik, period_Ik, spectrum_Ck,
                              spectrum_Ik)
from permdyn.errors import PreconditionError
from permdyn.genirr import iterate_generation
from permdyn.permgroup import (Matrix2, certify_perm, moebius_poly_rep, perm_table,
                               realize_permutation)
from permdyn.polys import Poly, enumerate_irreducibles, poly_gcd, q_associate

from permdyn.textio import format_coeffs

from oracles import (distinguished_root, gcd_generation, gcd_star, list_json, loop_cycles,
                     loop_dot, loop_format_poly, vpow_orbit_table)

TOWERS = [(2, 1, k) for k in range(2, 7)] + [
    (3, 1, 3), (2, 2, 3), (3, 2, 2), (5, 2, 2), (2, 3, 2),
]

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@pytest.mark.parametrize("pmk", TOWERS)
def test_orbits_equal_rabin_enumeration(pmk):
    ctx = make_field_ctx(*pmk)
    orbits = frobenius_orbits(ctx)
    assert orbits.polys == enumerate_irreducibles(ctx.Fq, ctx.k)
    assert [f.encoding() for f in orbits.polys] == orbits.codes.tolist()
    for i, f in enumerate(orbits.polys):
        assert orbits.index(f) == i
        assert np.array_equal(np.sort(conjugates(ctx, orbits.roots[i])), roots_in_ext(ctx, f))
        assert orbits.roots[i] == roots_in_ext(ctx, f)[0]
    for a in range(ctx.Q):
        node = orbits.node[a]
        assert node == -1 or minimal_poly(ctx, a) == orbits.polys[node]
    assert np.array_equal(enumerate_Ck(ctx), np.flatnonzero(orbits.node >= 0))
    assert len(enumerate_Ck(ctx)) == ctx.k * len(orbits.polys)


# every tower with p in {2, 3, 5, 7}, m in {1, 2, 3} and Q <= 4096, k = 1 included
SMALL_Q = [(p, m, k) for p in (2, 3, 5, 7) for m in (1, 2, 3) for k in range(1, 13)
           if p ** (m * k) <= 4096]


@pytest.mark.parametrize("pmk", SMALL_Q + [(2, 1, 16), (3, 1, 9)], ids=str)
def test_orbit_table_equals_the_vpow_oracle(pmk):
    ctx = make_field_ctx(*pmk)
    orbits = frobenius_orbits(ctx)
    got = (orbits.codes, orbits.coeffs, orbits.roots, orbits.node)
    # each array at the width its values need: the oracle's are all int64
    widths = (np.int64, np.min_scalar_type(ctx.q - 1), np.int64, np.int32)
    for name, a, b, dtype in zip(("codes", "coeffs", "roots", "node"), got,
                                 vpow_orbit_table(ctx), widths):
        assert a.dtype == dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_orbit_index_rejects_non_members():
    ctx = make_field_ctx(2, 1, 4)
    orbits = frobenius_orbits(ctx)
    for f in (Poly.from_encoding(ctx.Fq, 16 + 5), Poly.x(ctx.Fq), Poly.one(ctx.Fq).shift(5)):
        with pytest.raises(PreconditionError):
            orbits.index(f)


@pytest.mark.parametrize("op", [
    diamond, period_Ik, iterate_generation,
    lambda ctx, P, f: iterate_generation(ctx, P, f, max_steps=0),
], ids=["diamond", "period_Ik", "iterate_generation", "iterate_generation_0_steps"])
def test_table_readers_reject_non_members(op):
    ctx = make_field_ctx(3, 1, 3)
    P = certify_perm(ctx, Poly.one(ctx.Fq).shift(5))
    for f in (Poly(ctx.Fq, [1, 0, 0, 1]),            # x^3 + 1 = (x + 1)^3
              Poly(ctx.Fq, [1, 0, 1]),               # irreducible of degree 2
              Poly(ctx.Fq, [2, 1, 0, 2]),            # 2 (x^3 + 2x + 1)
              Poly(make_field_ctx(3, 2, 3).Fq, [1, 2, 0, 1])):  # a member of I_3 over F_9
        with pytest.raises(PreconditionError):
            op(ctx, P, f)


@st.composite
def tower_and_perm(draw, towers=TOWERS):
    """A context and a certified permutation drawn from x^n, L[h] or M[a,b,c,d]."""
    ctx = make_field_ctx(*draw(st.sampled_from(towers)))
    q, k, Q = ctx.q, ctx.k, ctx.Q
    family = draw(st.sampled_from(("mono", "lin", "moeb")))
    if family == "mono":
        n = draw(st.integers(1, Q - 1).filter(lambda n: math.gcd(n, Q - 1) == 1))
        return ctx, certify_perm(ctx, Poly.one(ctx.Fq).shift(n))
    if family == "lin":
        one = Poly.one(ctx.Fq)
        h = Poly(ctx.Fq, draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k)))
        assume(not h.is_zero and poly_gcd(h, one.shift(k) - one).degree == 0)
        return ctx, certify_perm(ctx, q_associate(h))
    a, b, c, d = draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4))
    Fq = ctx.Fq
    assume(Fq.sub(Fq.mul(a, d), Fq.mul(b, c)) != 0)
    return ctx, moebius_poly_rep(ctx, Matrix2(Fq, a, b, c, d))


# the gcd star composes f with P, whose degree reaches Q - 2 for a Moebius
# map; the towers with Q <= 81 keep one sweep of all edges under a second
SMALL_TOWERS = [pmk for pmk in TOWERS if pmk[0] ** (pmk[1] * pmk[2]) <= 81]


@PROPERTY
@given(tower_and_perm(SMALL_TOWERS))
def test_graph_Ik_edges_equal_gcd_star(case):
    ctx, P = case
    by_name = {str(f): f for f in enumerate_irreducibles(ctx.Fq, ctx.k)}
    g = graph_Ik(ctx, P)
    assert g.nodes == list(by_name)
    for cyc in g.cycles:
        for j, name in enumerate(cyc):
            assert str(gcd_star(ctx, P, by_name[name])) == cyc[(j + 1) % len(cyc)]


@PROPERTY
@given(tower_and_perm(SMALL_TOWERS), st.data())
def test_generation_walk_equals_gcd_iteration(case, data):
    ctx, P = case
    f = data.draw(st.sampled_from(frobenius_orbits(ctx).polys), label="f")
    for max_steps in (0, 1, 3, None):
        rep = iterate_generation(ctx, P, f, max_steps=max_steps)
        assert (rep.produced, rep.period) == gcd_generation(ctx, P, f, max_steps)
    assert period_Ik(ctx, P, f) == rep.period


@PROPERTY
@given(tower_and_perm(), st.data())
def test_root_and_diamond_equal_the_full_scan(case, data):
    ctx, P = case
    f = data.draw(st.sampled_from(frobenius_orbits(ctx).polys), label="f")
    root = int(roots_in_ext(ctx, f)[0])
    assert distinguished_root(ctx, f) == root
    assert diamond(ctx, P, f) == minimal_poly(ctx, embed_poly(ctx, P.poly)(root))


@PROPERTY
@given(tower_and_perm())
def test_fixed_points_direct_count_equals_formula(case):
    ctx, P = case
    fixed = fixed_points_direct(ctx, P)
    assert len(fixed) == fixed_count_formula(ctx, P)
    assert fixed == sorted(fixed, key=lambda f: f.encoding())


@PROPERTY
@given(st.data())
def test_realize_permutation_carries_roots(data):
    ctx = make_field_ctx(*data.draw(st.sampled_from(TOWERS)))
    irr = enumerate_irreducibles(ctx.Fq, ctx.k)
    sigma = data.draw(st.permutations(range(len(irr))))
    table = perm_table(ctx, realize_permutation(ctx, sigma))
    roots = [roots_in_ext(ctx, f) for f in irr]
    for i, j in enumerate(sigma):
        assert np.array_equal(np.sort(table[roots[i]]), roots[j])


def _loop_graph_json(nodes, perm):
    """FunctionalGraph.to_json text of perm on nodes, from loop_cycles and a dict count."""
    cycles = [[nodes[i] for i in cyc] for cyc in loop_cycles(perm)]
    counts = {}
    for cyc in cycles:
        counts[len(cyc)] = counts.get(len(cyc), 0) + 1
    return json.dumps({"nodes": nodes, "cycles": cycles, "summary": list(counts.items())})


@PROPERTY
@given(tower_and_perm())
def test_graphs_and_spectra_equal_the_loop_walk(case):
    ctx, P = case
    els = enumerate_Ck(ctx)
    ck = np.searchsorted(els, perm_table(ctx, P)[els])
    assert np.array_equal(_ck_perm(ctx, P)[1], ck)
    ik = _ik_perm(ctx, P)[1]
    names = [loop_format_poly(f) for f in frobenius_orbits(ctx).polys]
    assert graph_Ck(ctx, P).to_json() == _loop_graph_json(els.tolist(), ck)
    assert graph_Ik(ctx, P).to_json() == _loop_graph_json(names, ik)
    for spectrum, perm in ((spectrum_Ck, ck), (spectrum_Ik, ik)):
        lengths = sorted(len(cyc) for cyc in loop_cycles(perm))
        got = spectrum(ctx, P)
        assert (got.lengths, got.S, got.mu) == (lengths, sorted(set(lengths)), lengths[0])


@pytest.mark.parametrize("pmk", TOWERS, ids=str)
def test_graph_text_equals_the_list_builders(pmk):
    ctx = make_field_ctx(*pmk)
    q, k, Q = ctx.q, ctx.k, ctx.Q
    n = next(n for n in range(2, Q) if math.gcd(n, Q - 1) == 1)
    xk1 = Poly.one(ctx.Fq).shift(k) - Poly.one(ctx.Fq)
    h = next(h for h in (Poly.from_encoding(ctx.Fq, e) for e in range(q + 1, q ** (k + 1)))
             if poly_gcd(h, xk1).degree == 0)
    perms = [certify_perm(ctx, Poly.one(ctx.Fq).shift(n)), certify_perm(ctx, q_associate(h)),
             moebius_poly_rep(ctx, Matrix2(ctx.Fq, 1, 1, 1, 0))]
    for P in perms:
        for g in (graph_Ck(ctx, P), graph_Ik(ctx, P)):
            assert g.to_json() == list_json(g)
            assert g.to_dot() == loop_dot(g)


@pytest.mark.parametrize("pmk", [(2, 1, 8), (3, 1, 5), (2, 2, 4), (2, 3, 3), (3, 2, 3),
                                 (5, 2, 2)], ids=["F2", "F3", "F4", "F8", "F9", "F25"])
def test_ik_names_equal_the_loop_format(pmk):
    orbits = frobenius_orbits(make_field_ctx(*pmk))
    names = [loop_format_poly(f) for f in orbits.polys]
    assert format_coeffs(orbits.field, orbits.coeffs) == names
    assert [str(f) for f in orbits.polys] == names
