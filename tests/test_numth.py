import math

import pytest
import sympy

from permdyn import numth


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert numth.is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not numth.is_prime(561)
    assert not numth.is_prime(1729)
    assert numth.is_prime(2 ** 31 - 1)
    assert numth.is_prime(2 ** 61 - 1)
    assert not numth.is_prime(2 ** 64 - 1)


@pytest.mark.parametrize("n", [2, 12, 97, 360, 2 ** 20, 3 ** 10 - 1, 6735593])
def test_factorint_reconstructs(n):
    fac = numth.factorint(n)
    prod = 1
    for prime, mult in fac.items():
        assert numth.is_prime(prime)
        prod *= prime ** mult
    assert prod == n


@pytest.mark.parametrize("n", [1000003 * 1000033, 2 ** 82 - 1])
def test_factorint_splits_above_the_trial_bound_like_sympy(n, monkeypatch):
    # each n keeps a composite cofactor above the trial bound, which rho splits
    split = []
    real = numth._pollard_rho
    monkeypatch.setattr(numth, "_pollard_rho", lambda m: split.append(m) or real(m))
    assert numth.factorint.__wrapped__(n) == sympy.factorint(n)
    assert split


def test_divisors_sorted_complete():
    assert numth.divisors(1) == [1]
    assert numth.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert numth.divisors(49) == [1, 7, 49]
    for n in (30, 64, 360):
        ds = numth.divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_moebius_values():
    want = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
            10: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in want.items():
        assert numth.moebius(n) == mu


def test_moebius_sum_identity():
    for n in range(1, 200):
        total = sum(numth.moebius(d) for d in numth.divisors(n))
        assert total == (1 if n == 1 else 0)


def test_euler_phi():
    want = {1: 1, 2: 1, 6: 2, 9: 6, 10: 4, 15: 8, 16: 8, 31: 30, 100: 40}
    for n, phi in want.items():
        assert numth.euler_phi(n) == phi


def test_mult_order_int():
    assert numth.mult_order_int(2, 7) == 3
    assert numth.mult_order_int(3, 31) == 30
    assert numth.mult_order_int(2, 1) == 1
    assert numth.mult_order_int(10, 7) == 6
    for a in (2, 3, 5):
        n = 41
        d = numth.mult_order_int(a, n)
        assert pow(a, d, n) == 1
        assert all(pow(a, e, n) != 1 for e in range(1, d))


def test_mult_order_int_requires_coprime():
    with pytest.raises(ValueError):
        numth.mult_order_int(6, 9)


def test_mult_order_divides_phi():
    n = 3 ** 5 - 1
    for a in range(2, 30):
        if math.gcd(a, n) != 1:
            continue
        assert numth.euler_phi(n) % numth.mult_order_int(a, n) == 0
