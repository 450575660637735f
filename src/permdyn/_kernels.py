"""Array kernels for dense polynomial arithmetic over finite fields.

Coefficients are int64 encodings, ascending degree. Two coefficient modes
exist: "prime" (residues mod p, arithmetic done directly) and "table"
(encodings into a field of p^n elements with n >= 2, multiplication via
exp/log tables and addition digitwise in base p).

Each kernel is one numpy implementation; the loops that remain run once per
coefficient and do whole-array work inside. eval_t runs once per nonzero
coefficient: it sums the terms in the log domain, so the paper's sparse
permutations (x^n, L_h, tau_A with a pole at 0) cost their number of terms
in passes over the points, not their degree. Division comes in two forms.
divmod_p/divmod_t are long division, one loop step per quotient coefficient:
the cheapest one-shot division when quotients are short, as in a gcd. RemP
reduces by a modulus that is kept for a chain of products: after a Newton
lift of the reversed modulus's inverse, paid once per chain, each remainder
is two convolutions and no loop. Table mode has no such form, since conv_t
is itself a loop per coefficient. `vadd` and `vneg` are the only
places that add or negate encodings digit by digit, for ints and int64
arrays alike, and `vsum` the only place that sums an array of them.
Prime-mode intermediates stay below INT64_BOUND: GF.prime admits only p
with (p - 1)^2 + p below it, which covers a * b + c, and conv_p checks the
sums of products that a convolution forms.
"""

import numpy as np

from .errors import GuardExceeded, PreconditionError

# int64 holds every integer below this bound exactly
INT64_BOUND = 1 << 63


def check_int64(value, what):
    """Raise GuardExceeded unless an int64 intermediate of size `value` is exact."""
    if value >= INT64_BOUND:
        raise GuardExceeded("%s reaches %d, beyond the int64 bound 2^63" % (what, value))


def get_backend():
    """Name of the kernel implementation."""
    return "numpy"


def vadd(x, y, p, ndig):
    """Digitwise base-p sum of encodings with ndig digits; XOR when p == 2."""
    if p == 2:
        return x ^ y
    if ndig == 1:
        return (x + y) % p
    out, shift = 0, 1
    for _ in range(ndig):
        out = out + ((x // shift + y // shift) % p) * shift
        shift *= p
    return out


def vneg(x, p, ndig):
    """Digitwise base-p negation of encodings with ndig digits."""
    if p == 2:
        return x
    if ndig == 1:
        return -x % p
    out, shift = 0, 1
    for _ in range(ndig):
        out = out + (-(x // shift) % p) * shift
        shift *= p
    return out


def vsum(x, p, ndig):
    """Digitwise base-p sum of an int64 array of encodings along axis 0."""
    if ndig == 1:
        return x.sum(axis=0) % p
    out, shift = 0, 1
    for _ in range(ndig):
        out = out + (x // shift % p).sum(axis=0) % p * shift
        shift *= p
    return out


def conv_p(a, b, p):
    # a coefficient of the product sums min(len) terms below p^2
    check_int64(min(len(a), len(b)) * (p - 1) ** 2, "a product coefficient")
    return np.convolve(a, b) % p


def conv_t(a, b, exp, log, p, ndig):
    if len(a) > len(b):
        a, b = b, a
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    bnz = b != 0
    lb = log[b]
    for i in range(len(a)):
        ai = a[i]
        if ai == 0:
            continue
        prod = np.where(bnz, exp[log[ai] + lb], 0)
        out[i:i + len(b)] = vadd(out[i:i + len(b)], prod, p, ndig)
    return out


def divmod_p(a, b, p, inv_lead):
    nq = len(a) - len(b) + 1
    q = np.zeros(nq, dtype=np.int64)
    r = a.copy()
    for i in range(nq - 1, -1, -1):
        c = (r[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            r[i:i + len(b)] = (r[i:i + len(b)] - c * b) % p
    return q, r[:len(b) - 1]


class RemP:
    """Remainders modulo a fixed b of degree n >= 1 (prime mode), two convolutions each.

    It keeps h = rev(b)^-1 mod x^len(h), rev(b) being b with its coefficients
    reversed, and lifts it by the Newton step h <- h (2 - rev(b) h) mod
    x^(2 len(h)) only as far as the longest quotient so far needs. A dividend
    a of n + nq coefficients with nq <= n - 1, such as a product of two
    remainders, has the quotient q = rev(rev(a)[:nq] h mod x^nq), and its
    remainder is the low n coefficients of a - q b. No convolution here is
    longer in its shorter factor than n - 1, so conv_p's int64 check passes
    whenever it passes for the product being reduced.
    """

    def __init__(self, b, p, inv_lead):
        self.b = b
        self.p = p
        self.h = np.array([inv_lead], dtype=np.int64)

    def __call__(self, a):
        b, p = self.b, self.p
        n = len(b) - 1
        nq = len(a) - n
        if nq <= 0:
            return a
        if nq > n - 1:
            raise PreconditionError("a dividend for a kept modulus of degree %d has at most "
                                    "%d coefficients, not %d" % (n, 2 * n - 1, len(a)))
        L = len(self.h)
        while L < nq:
            L = min(2 * L, n - 1)
            t = -conv_p(b[::-1][:L], self.h, p)[:L] % p
            t[0] = (t[0] + 2) % p
            self.h = conv_p(self.h, t, p)[:L]
        q = conv_p(a[n:][::-1], self.h[:nq], p)[:nq][::-1]
        return (a[:n] - conv_p(q, b, p)[:n]) % p


def divmod_t(a, b, exp, log, p, ndig, inv_lead):
    nq = len(a) - len(b) + 1
    q = np.zeros(nq, dtype=np.int64)
    r = a.copy()
    bnz = b != 0
    lb = log[b]
    linv = log[inv_lead]
    for i in range(nq - 1, -1, -1):
        top = r[i + len(b) - 1]
        if top == 0:
            continue
        c = exp[log[top] + linv]
        q[i] = c
        # subtracting c*b is adding (-c)*b
        prod = np.where(bnz, exp[log[vneg(int(c), p, ndig)] + lb], 0)
        r[i:i + len(b)] = vadd(r[i:i + len(b)], prod, p, ndig)
    return q, r[:len(b) - 1]


def eval_p(coeffs, xs, p):
    acc = np.zeros(len(xs), dtype=np.int64)
    for i in range(len(coeffs) - 1, -1, -1):
        acc = (acc * xs + coeffs[i]) % p
    return acc


def eval_t(coeffs, xs, exp, log, p, ndig):
    """Values at xs of the polynomial with ascending coefficients `coeffs`, one pass per term.

    A nonzero x gets the sum of c_e x^e = exp[log c_e + ((e mod (Q - 1)) log x
    mod (Q - 1))] over the nonzero c_e; x = 0 gets c_0. The cost is one pass
    over xs per nonzero coefficient, whatever the degree, and e mod (Q - 1)
    keeps unreduced polynomials (degree >= Q) exact.
    """
    qm1 = len(log) - 1
    check_int64((qm1 - 1) ** 2, "a log-domain exponent product")
    lx = log[xs]
    idx = np.empty(len(xs), dtype=np.int64)
    acc = None
    for e in np.flatnonzero(coeffs):
        np.multiply(lx, e % qm1, out=idx)
        np.remainder(idx, qm1, out=idx)
        idx += log[coeffs[e]]
        term = exp[idx]
        acc = term if acc is None else vadd(acc, term, p, ndig)
    if acc is None:
        return np.zeros(len(xs), dtype=np.int64)
    acc[xs == 0] = coeffs[0]
    return acc
