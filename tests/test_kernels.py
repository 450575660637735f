import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_eval, gf_mul

import permdyn
from permdyn import _kernels, numth
from permdyn.context import make_field_ctx
from permdyn.fields import GF
from permdyn.permgroup import Matrix2, moebius_poly_rep
from permdyn.polys import Poly, q_associate

from oracles import horner_eval_t, schoolbook_divmod, schoolbook_eval, schoolbook_mul

F4 = GF.extension(GF.prime(2), [1, 1, 1])
F9 = GF.extension(GF.prime(3), [1, 0, 1])
F125 = GF.extension(GF.prime(5), [1, 1, 0, 1])


def test_backend_is_numpy():
    assert permdyn.get_backend() == "numpy"


@pytest.mark.parametrize("p,ndig", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_vadd_is_digitwise(p, ndig):
    rng = np.random.default_rng(7)
    order = p ** ndig
    x = rng.integers(0, order, size=40)
    y = rng.integers(0, order, size=40)
    got = _kernels.vadd(x, y, p, ndig)
    for xi, yi, gi in zip(x, y, got):
        want = 0
        shift = 1
        for _ in range(ndig):
            want += ((xi // shift + yi // shift) % p) * shift
            shift *= p
        assert gi == want


@pytest.mark.parametrize("field", [GF.prime(2), GF.prime(7), F4, F9, F125])
def test_digit_kernels_take_ints_and_arrays(field):
    xs = field.elements()
    ys = xs[::-1].copy()
    sums = field.vadd(xs, ys)
    negs = field.vneg(xs)
    for x, y, s, n in zip(xs.tolist(), ys.tolist(), sums, negs):
        assert type(field.add(x, y)) is int and type(field.neg(x)) is int
        assert field.add(x, y) == s
        assert field.neg(x) == n
        assert field.add(x, n) == 0
        assert field.sub(s, y) == x
    # vsum adds down axis 0: x + y + (x + y) = 2(x + y)
    assert np.array_equal(field.vsum(np.stack([xs, ys, sums])), field.vadd(sums, sums))


def _random_coeffs(rng, order, n):
    c = rng.integers(0, order, size=n).astype(np.int64)
    while c[-1] == 0:
        c[-1] = rng.integers(0, order)
    return c


def _shapes(rng, top):
    # divisors of length 1, equal lengths, then random lengths
    yield int(rng.integers(1, top)), 1
    n = int(rng.integers(1, top))
    yield n, n
    for _ in range(10):
        yield int(rng.integers(1, top)), int(rng.integers(1, top))


def _strip(coeffs):
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _desc(a):
    return [int(c) for c in a[::-1]]


@pytest.mark.parametrize("p", [2, 3, 101])
def test_prime_kernels_match_galoistools(p):
    rng = np.random.default_rng(p)
    for na, nb in _shapes(rng, 30):
        a = _random_coeffs(rng, p, na)
        b = _random_coeffs(rng, p, nb)
        assert _desc(_kernels.conv_p(a, b, p)) == gf_mul(_desc(a), _desc(b), p, ZZ)
        xs = rng.integers(0, p, size=17)
        assert _kernels.eval_p(a, xs, p).tolist() == [
            gf_eval(_desc(a), int(x), p, ZZ) for x in xs]
        if na >= nb:
            q, r = _kernels.divmod_p(a, b, p, pow(int(b[-1]), -1, p))
            assert len(r) == nb - 1
            wq, wr = gf_div(_desc(a), _desc(b), p, ZZ)
            assert _desc(q) == wq
            assert _strip(r) == wr[::-1]


@pytest.mark.parametrize("field", [F4, F9, F125])
def test_table_kernels_match_schoolbook(field):
    rng = np.random.default_rng(field.order)
    args = (field.exp, field.log, field.p, field.deg)
    for na, nb in _shapes(rng, 20):
        a = _random_coeffs(rng, field.order, na)
        b = _random_coeffs(rng, field.order, nb)
        assert _kernels.conv_t(a, b, *args).tolist() == schoolbook_mul(field, a, b)
        xs = rng.integers(0, field.order, size=13)
        assert _kernels.eval_t(a, xs, *args).tolist() == [
            schoolbook_eval(field, a, x) for x in xs]
        if na >= nb:
            q, r = _kernels.divmod_t(a, b, *args, field.inv(int(b[-1])))
            wq, wr = schoolbook_divmod(field, a, b)
            assert q.tolist() == wq
            assert r.tolist() == wr


def test_divmod_reconstructs_dividend():
    p = 5
    a = np.array([3, 1, 4, 1, 2, 4], dtype=np.int64)
    b = np.array([2, 0, 1], dtype=np.int64)
    q, r = _kernels.divmod_p(a, b, p, pow(int(b[-1]), -1, p))
    full = np.convolve(q, b) % p
    full[:len(r)] = (full[:len(r)] + r) % p
    assert np.array_equal(full, a)


# -- eval_t against Horner's rule on every table-mode tower with Q <= 4096 ------

EVAL_TOWERS = [(p, m, k) for p in range(2, 65) if numth.is_prime(p) for m in (1, 2, 3)
               for k in range(1, 13) if m * k >= 2 and p ** (m * k) <= 4096]


def _points(rng, Q):
    """Every element when Q <= 256, else 0, 1 and 30 random elements."""
    if Q <= 256:
        return np.arange(Q, dtype=np.int64)
    return np.concatenate([[0, 1], rng.integers(2, Q, size=30)]).astype(np.int64)


def _sparse(rng, order, degree, terms):
    """Coefficients in [0, order) of exactly `degree`, with at most `terms` more nonzero below."""
    c = np.zeros(degree + 1, dtype=np.int64)
    c[rng.integers(0, degree + 1, size=terms)] = rng.integers(1, order, size=terms)
    c[degree] = rng.integers(1, order)
    return c


@pytest.mark.parametrize("tower", EVAL_TOWERS, ids=str)
def test_eval_t_matches_horner(tower):
    ctx = make_field_ctx(*tower)
    F, q, Q = ctx.Fqk, ctx.q, ctx.Q
    args = (F.exp, F.log, F.p, F.deg)
    rng = np.random.default_rng(Q + tower[1])
    xs = _points(rng, Q)
    # the zero polynomial, stored empty or with zeros, and a constant
    cases = [np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64), np.array([q - 1])]
    for n in (1, 2, q, Q - 2, Q - 1, int(rng.integers(2, Q))):
        cases.append(_sparse(rng, q, n, 0))
    h = Poly(ctx.Fq, rng.integers(0, q, size=ctx.k))
    if not h.is_zero:
        cases.append(q_associate(h).coeffs)
    # tau(z) = 1 + 1/z is x^(Q-2) + 1; tau(z) = 1/(z + 1) is dense, kept to Q <= 1024
    # for time, as its certification evaluates all Q terms at all Q points
    mats = [(1, 1, 1, 0), (0, 1, 1, 1)] if Q <= 1024 else [(1, 1, 1, 0)]
    for A in mats:
        cases.append(moebius_poly_rep(ctx, Matrix2(ctx.Fq, *A)).poly.coeffs)
    cases.append(rng.integers(0, Q, size=min(Q, 256)))
    # unreduced, exact through e mod (Q - 1): x^(Q-1), x^(2Q-2) and x^(3Q-3) are 1 off 0
    top = _sparse(rng, Q, 3 * Q, 8)
    top[[Q - 1, Q, 2 * Q - 2, 2 * Q - 1, 3 * Q - 3]] = rng.integers(1, Q, size=5)
    cases += [top, _sparse(rng, Q, Q, 4)]
    if Q <= 64:
        cases.append(rng.integers(0, Q, size=3 * Q + 1))
    for c in cases:
        got = _kernels.eval_t(c, xs, *args)
        assert np.array_equal(got, horner_eval_t(c, xs, *args)), (tower, c)
        assert got[0] == (c[0] if len(c) else 0)  # xs[0] is the point 0


@pytest.mark.parametrize("field", [F4, F125], ids=["F4", "F125"])
@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_eval_t_in_blocks_equals_one_pass(field, extra, monkeypatch):
    rng = np.random.default_rng(3 + extra)
    n = _kernels.EVAL_BLOCK + extra
    xs = rng.integers(0, field.order, size=n)
    xs[[0, -1]] = 0  # the point 0 in the first block and in the last
    coeffs = _sparse(rng, field.order, 40, 6)
    coeffs[0] = field.order - 1
    args = (field.exp, field.log, field.p, field.deg)
    blocked = _kernels.eval_t(coeffs, xs, *args)
    assert np.array_equal(blocked[-4:], horner_eval_t(coeffs, xs[-4:], *args))
    monkeypatch.setattr(_kernels, "EVAL_BLOCK", n)
    assert np.array_equal(blocked, _kernels.eval_t(coeffs, xs, *args))


@st.composite
def terms_and_points(draw):
    """A table-mode field, a sparse coefficient array of degree up to 3Q, and points."""
    F = make_field_ctx(*draw(st.sampled_from(EVAL_TOWERS))).Fqk
    Q = F.order
    terms = draw(st.dictionaries(st.integers(0, 3 * Q), st.integers(1, Q - 1), max_size=10))
    coeffs = np.zeros(max(terms, default=-1) + 1, dtype=np.int64)
    for e, c in terms.items():
        coeffs[e] = c
    xs = draw(st.lists(st.integers(0, Q - 1), min_size=1, max_size=20))
    return F, coeffs, np.array(xs, dtype=np.int64)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(terms_and_points())
def test_eval_t_property_over_towers(case):
    F, coeffs, xs = case
    args = (F.exp, F.log, F.p, F.deg)
    assert np.array_equal(_kernels.eval_t(coeffs, xs, *args), horner_eval_t(coeffs, xs, *args))
