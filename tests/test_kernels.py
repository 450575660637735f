import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_eval, gf_mul

import permdyn
from permdyn import _kernels
from permdyn.fields import GF

from oracles import schoolbook_divmod, schoolbook_eval, schoolbook_mul

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
