"""Each certified P keeps its own star permutation (PermPoly.perm, dynamics._ik_perm).

No answer may show the kept array: a sequence of calls under several P answers
as a fresh context and a freshly certified P would, every spelling of one P
gives the same answers, and nothing a caller does to an answer or to the table
reaches it. One edge check runs per certified P, however the P's alternate; a raw
Poly is certified on each call, and its permutation lasts for that call only.
"""

import copy

import numpy as np
import pytest

from permdyn import dynamics
from permdyn.context import embed_poly, frobenius_orbits, make_field_ctx
from permdyn.dynamics import (
    diamond, fixed_points_direct, graph_Ik, period_Ik, spectrum_Ik, star,
)
from permdyn.errors import InternalCheckError, PreconditionError
from permdyn.genirr import iterate_generation
from permdyn.permgroup import Matrix2, certify_perm, moebius_poly_rep
from permdyn.polys import Poly, linearized_modulus, q_associate

# m = 1, 2, 3, each with Q = 64
TOWERS = [(2, 1, 6), (2, 2, 3), (2, 3, 2)]


def _monomial(ctx):
    n = next(n for n in range(5, ctx.Q) if np.gcd(n, ctx.Q - 1) == 1)
    return certify_perm(ctx, Poly.one(ctx.Fq).shift(n))


def _linearized(ctx):
    """L[h] for the first h of two or more terms that is prime to x^k - 1."""
    for enc in range(ctx.q + 1, ctx.q ** 4):
        h = Poly.from_encoding(ctx.Fq, enc)
        if np.count_nonzero(h.coeffs) < 2:
            continue
        try:
            linearized_modulus(h, ctx.k, ctx.q)
        except PreconditionError:
            continue
        return certify_perm(ctx, q_associate(h))
    raise AssertionError("no h prime to x^k - 1")


def _moebius(ctx):
    return moebius_poly_rep(ctx, Matrix2(ctx.Fq, 1, 1, 1, 0))


def _perms(ctx):
    return {"x^n": _monomial(ctx), "L[h]": _linearized(ctx), "M": _moebius(ctx)}


def _seeds(ctx):
    orbits = frobenius_orbits(ctx)
    return [orbits.poly(0), orbits.poly(len(orbits.coeffs) // 2)]


def _graph(ctx, P, f):
    g = graph_Ik(ctx, P)
    return g.nodes, g.cycles, g.summary


def _generation(ctx, P, f):
    rep = iterate_generation(ctx, P, f, max_steps=3)
    return [str(g) for g in rep.produced], rep.period


# each entry's answer under P, as plain values; f is a seed in I_k
ENTRIES = {
    "graph_Ik": _graph,
    "spectrum_Ik": lambda ctx, P, f: spectrum_Ik(ctx, P).lengths,
    "fixed_points_direct": lambda ctx, P, f: [str(g) for g in fixed_points_direct(ctx, P)],
    "period_Ik": lambda ctx, P, f: period_Ik(ctx, P, f),
    "iterate_generation": _generation,
    "star": lambda ctx, P, f: str(star(ctx, P, f)),
    "diamond": lambda ctx, P, f: str(diamond(ctx, P, f)),
}


def _fresh(ctx, P):
    """The same tower with no orbit table yet, and P certified anew from its coefficients,
    so no star permutation is kept on either."""
    out = copy.copy(ctx)
    out.orbits = None
    return out, certify_perm(out, Poly(out.Fq, P.poly.coeffs))


@pytest.mark.parametrize("tower", TOWERS, ids=str)
def test_switching_P_gives_the_answers_of_a_fresh_context(tower):
    ctx = make_field_ctx(*tower)
    perms = _perms(ctx)
    order = ["x^n", "L[h]", "x^n", "M", "L[h]", "M", "x^n"]
    f = _seeds(ctx)
    # P switches between single calls, then between blocks of every entry
    calls = [(name, entry) for entry in ENTRIES for name in order]
    calls += [(name, entry) for name in order for entry in ENTRIES]
    for i, (name, entry) in enumerate(calls):
        seed = f[i % len(f)]
        got = ENTRIES[entry](ctx, perms[name], seed)
        assert got == ENTRIES[entry](*_fresh(ctx, perms[name]), seed), (name, entry)


@pytest.mark.parametrize("tower", TOWERS, ids=str)
def test_every_spelling_of_one_P_gives_one_answer(tower, monkeypatch):
    ctx = make_field_ctx(*tower)
    perms = _perms(ctx)
    edges = _count_edges(monkeypatch)
    for name in ("x^n", "L[h]"):
        certified = perms[name]
        raw = Poly(ctx.Fq, certified.poly.coeffs)
        # P + x^Q - x induces the same map and certifies to the same reduced P
        folded = raw + Poly.one(ctx.Fq).shift(ctx.Q) - Poly.x(ctx.Fq)
        before = edges[0]
        answers = [(graph_Ik(ctx, P).cycles, spectrum_Ik(ctx, P).lengths,
                    [str(g) for g in fixed_points_direct(ctx, P)])
                   for P in (raw, certified, folded)]
        assert answers[0] == answers[1] == answers[2]
        # the certified P computes its permutation once; a raw spelling, on each call
        assert edges[0] == before + 3 + 1 + 3, name


@pytest.mark.parametrize("tower", TOWERS, ids=str)
def test_certify_perm_returns_a_certified_P_as_it_is(tower):
    ctx = make_field_ctx(*tower)
    for P in _perms(ctx).values():
        assert certify_perm(ctx, P) is P
        graph_Ik(ctx, P)
        assert P.perm is not None and dynamics._ik_perm(ctx, P)[1] is P.perm
    with pytest.raises(PreconditionError, match="belongs to a different context"):
        certify_perm(make_field_ctx(2, 1, 4), P)


@pytest.mark.parametrize("tower", TOWERS, ids=str)
def test_changing_an_answer_does_not_change_later_answers(tower):
    ctx = make_field_ctx(*tower)
    P = _perms(ctx)["L[h]"]
    f = _seeds(ctx)[0]
    expected = {entry: ENTRIES[entry](*_fresh(ctx, P), f) for entry in ENTRIES}

    g = graph_Ik(ctx, P)
    g.nodes[0] = "changed"
    g.cycles[0].reverse()
    g.cycles.append(["extra"])
    g.summary.clear()
    fixed = fixed_points_direct(ctx, P)
    for h in fixed:
        h.coeffs[:] = 0
    fixed.append(None)
    rep = iterate_generation(ctx, P, f, max_steps=3)
    rep.produced[0].coeffs[:] = 0
    rep.produced.reverse()
    rep.period = -1

    assert {entry: ENTRIES[entry](ctx, P, f) for entry in ENTRIES} == expected
    perm = dynamics._ik_perm(ctx, P)[1]
    assert perm is P.perm and not perm.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        perm[0] = perm[1]


@pytest.mark.parametrize("tower", TOWERS + [(2, 1, 1), (3, 2, 1)], ids=str)
def test_the_table_arrays_are_read_only(tower):
    orbits = frobenius_orbits(make_field_ctx(*tower))
    for name in ("codes", "coeffs", "roots", "node"):
        arr = getattr(orbits, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[-1]


def test_a_kept_P_is_a_copy_of_the_callers_coefficients():
    ctx = make_field_ctx(2, 1, 6)
    spectrum_Ik(ctx, _monomial(ctx))  # another P keeps a permutation before the first call
    # L[x^3+x+1] = x^8+x^2+x, a Poly of the caller's, which certifies to itself
    raw = q_associate(Poly(ctx.Fq, [1, 1, 0, 1]))
    frobenius = [1] * len(frobenius_orbits(ctx).coeffs)
    assert spectrum_Ik(ctx, raw).lengths != frobenius
    # changed in place to x^8 = x^(q^3), whose star action fixes every f
    raw.coeffs[[1, 2]] = 0
    assert spectrum_Ik(ctx, raw).lengths == frobenius


def test_a_certified_P_cannot_be_changed_in_place():
    # the kept permutation would go stale: the coefficients of a certified P are read-only
    ctx = make_field_ctx(2, 1, 6)
    x5 = certify_perm(ctx, Poly.one(ctx.Fq).shift(5))
    expected = spectrum_Ik(*_fresh(ctx, x5)).lengths
    assert spectrum_Ik(ctx, x5).lengths == expected
    with pytest.raises(ValueError, match="read-only"):
        x5.poly.coeffs[[1, 5]] = [1, 0]  # to x
    assert str(x5) == "x^5" and spectrum_Ik(ctx, x5).lengths == expected
    f = _seeds(ctx)[0]
    assert star(ctx, x5, f) == star(*_fresh(ctx, x5), f)


def test_a_planted_table_is_caught_under_a_fresh_certified_P(monkeypatch):
    ctx = make_field_ctx(2, 1, 4)
    x7 = certify_perm(ctx, Poly.one(ctx.Fq).shift(7))
    cycles = graph_Ik(ctx, x7).cycles
    orbits = frobenius_orbits(ctx)
    # swap the nodes of two images: still a bijection, but edge 0 is wrong; the copy's
    # node is an array of its own, so the context's table is untouched
    bad = copy.copy(orbits)
    bad.node = orbits.node.copy()
    roots = orbits.roots[x7.perm[:2]]
    a, b = embed_poly(ctx, x7).eval_many(roots)  # in the orbits of index 0 and 1
    bad.node[a], bad.node[b] = orbits.node[b], orbits.node[a]
    monkeypatch.setattr(dynamics, "frobenius_orbits", lambda ctx: bad)
    # x7 holds the permutation it computed on the real table
    assert graph_Ik(ctx, x7).cycles == cycles
    with pytest.raises(InternalCheckError, match="does not divide f"):
        graph_Ik(ctx, certify_perm(ctx, Poly.one(ctx.Fq).shift(7)))


def _count_edges(monkeypatch):
    """A one-element list counting the calls of dynamics._check_edge from here on."""
    count = [0]
    check = dynamics._check_edge

    def counted(*args):
        count[0] += 1
        return check(*args)

    monkeypatch.setattr(dynamics, "_check_edge", counted)
    return count


@pytest.mark.parametrize("tower", TOWERS + [(2, 1, 10)], ids=str)
def test_one_edge_check_per_P(tower, monkeypatch):
    ctx = make_field_ctx(*tower)
    perms = _perms(ctx)
    A, B = perms["x^n"], perms["L[h]"]
    edges = _count_edges(monkeypatch)
    polys = frobenius_orbits(ctx).polys
    # the P's alternate on every call
    periods = [period_Ik(ctx, (A, B)[i % 2], polys[i % len(polys)]) for i in range(100)]
    graph = graph_Ik(ctx, A)
    spectrum_Ik(ctx, A)
    fixed_points_direct(ctx, A)
    iterate_generation(ctx, A, polys[0])
    graph_Ik(ctx, B)
    period_Ik(ctx, A, polys[0])
    assert edges[0] == 2
    lengths = {f: len(c) for c in graph.cycles for f in c}
    assert periods[0::2] == [lengths[str(polys[i % len(polys)])] for i in range(0, 100, 2)]
