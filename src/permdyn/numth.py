"""Integer number theory at desk scale.

Factorization is deterministic trial division up to 10^6 followed by
Pollard's rho with a fixed parameter schedule, so results are reproducible.
Like the (q, k) closed forms built on it, this module takes no tower context
and trusts its inputs beyond the checks each function names.
"""

import math
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import InternalCheckError, PreconditionError

_TRIAL_BOUND = 10 ** 6

# deterministic Miller-Rabin witnesses, valid for n < 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin primality test for desk-scale integers."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    # Brent's cycle variant with a fixed schedule of polynomial offsets
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError("rho failed to split %d" % n)


@lru_cache(maxsize=None)
def factorint(n):
    """Prime factorization of n >= 1 as a dict {prime: exponent}."""
    if n < 1:
        raise ValueError("factorint needs n >= 1")
    out = {}
    d = 2
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                f = _pollard_rho(m)
                stack.append(f)
                stack.append(m // f)
    return dict(sorted(out.items()))


def primitive_root(p):
    """The least generator of the multiplicative group modulo a prime p (1 for p = 2)."""
    cofactors = [(p - 1) // ell for ell in factorint(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in cofactors))


def divisors(n):
    """All positive divisors of n, ascending."""
    divs = [1]
    for prime, e in factorint(n).items():
        divs = [d * prime ** j for d in divs for j in range(e + 1)]
    return sorted(divs)


def moebius(n):
    """Moebius function of n >= 1."""
    mu = 1
    for _, e in factorint(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n):
    """Euler totient of n >= 1."""
    return reduce(lambda acc, pe: acc // pe[0] * (pe[0] - 1),
                  factorint(n).items(), n)


def check_coprime_exponent(q, k, n):
    """Raise PreconditionError unless gcd(n, q^k - 1) = 1, so that x^n permutes F_{q^k}."""
    if math.gcd(n, q ** k - 1) != 1:
        raise PreconditionError("n must be coprime to q^k - 1")


def prime_norm_index(q, k):
    """r = (q^k - 1)/(q - 1), once it is checked to be prime."""
    r = (q ** k - 1) // (q - 1)
    if not is_prime(r):
        raise PreconditionError("(q^k - 1)/(q - 1) must be prime")
    return r


def moebius_sum(k, term):
    """Sum over d | k of moebius(k/d)/d times the sum over i < d of term(d, i).

    Every caller counts something with it, so a result that is not a
    nonnegative integer raises InternalCheckError. term is called only where
    moebius(k/d) != 0.
    """
    total = Fraction(0)
    for d in divisors(k):
        mu = moebius(k // d)
        if mu:
            total += Fraction(mu * sum(term(d, i) for i in range(d)), d)
    if total.denominator != 1 or total < 0:
        raise InternalCheckError("divisor sum is not a nonnegative integer")
    return int(total)


def order_dividing(e, is_one):
    """The least divisor d of e with is_one(d), given that is_one(e) holds.

    In a group where is_one(d) tests whether an element's d-th power is the
    identity, this is the element's order when e is a multiple of it: each
    prime of e is stripped while the power stays the identity.
    """
    for prime in factorint(e):
        while e % prime == 0 and is_one(e // prime):
            e //= prime
    return e


def mult_order_int(a, n):
    """Multiplicative order of a modulo n (requires gcd(a, n) = 1)."""
    if n == 1:
        return 1
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError("order undefined: gcd(%d, %d) != 1" % (a, n))
    return order_dividing(euler_phi(n), lambda d: pow(a, d, n) == 1)
