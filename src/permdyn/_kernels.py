"""Array kernels for dense polynomial arithmetic over finite fields.

Coefficients are int64 encodings, ascending degree. Two coefficient modes
exist: "prime" (residues mod p, arithmetic done directly) and "table"
(encodings into a field of p^n elements with n >= 2, multiplication via
exp/log tables and addition digitwise in base p). exp is int32 (int_dtype),
and so is what a kernel gathers from it; log is int64, since kernels multiply logs.

Each kernel is one numpy implementation; the loops that remain run once per
coefficient and do whole-array work inside. eval_t runs once per nonzero
coefficient: it sums the terms in the log domain, so the paper's sparse
permutations (x^n, L_h, tau_A with a pole at 0) cost their number of terms
in passes over the points, not their degree. Division comes in two forms.
Long division is one top-down loop per mode (_divide_p, _divide_t): it
reduces a remainder in place by a monic divisor, one slice update per
quotient coefficient (an XOR when p == 2). divmod_p/divmod_t and Euclid
(gcd_p/gcd_t, one loop for both modes) run on it; it is the cheapest
one-shot division when quotients are short, as in a gcd. RemP reduces by a
modulus that is kept for a chain of products: after a Newton lift of the
reversed modulus's inverse, paid once per chain, each block of 2n - 1
coefficients, taken from the top of a dividend of any length, is two
convolutions and no loop. Table mode has no such form, since conv_t is
itself a loop per coefficient. A Frobenius step t -> t^q mod b needs no
product at all: every coefficient lies in F_q, so t^q is the spread t(x^q),
which the kept modulus reduces like any other dividend.
`vadd` and `vneg` are the only
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

# points per block of eval_t
EVAL_BLOCK = 1 << 16


def check_int64(value, what):
    """Raise GuardExceeded unless an int64 intermediate of size `value` is exact."""
    if value >= INT64_BOUND:
        raise GuardExceeded("%s reaches %d, beyond the int64 bound 2^63" % (what, value))


def int_dtype(bound):
    """The dtype of a large table of values in [0, bound): int32 while bound <= 2^31, else
    int64. GF.exp, FrobeniusOrbits.node and the star permutations hold encodings or
    indices below Q; such a value is gathered, compared or added digitwise (vadd), and
    never becomes a factor of a product, where int32 could overflow."""
    return np.int32 if bound <= 1 << 31 else np.int64


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
    q = np.zeros(len(a) - len(b) + 1, dtype=np.int64)
    r = a.copy()
    _divide_p(r, len(r), _monic_p(b, p), p, q)
    return q * inv_lead % p, r[:len(b) - 1]


def divmod_t(a, b, exp, log, p, ndig, inv_lead):
    q = np.zeros(len(a) - len(b) + 1, dtype=np.int64)
    r = a.copy()
    _divide_t(r, len(r), _monic_t(b, exp, log), exp, log, p, ndig, q)
    return np.where(q != 0, exp[log[q] + log[inv_lead]], 0), r[:len(b) - 1]


def _divide_p(u, n, v, p, quot=None):
    """Reduce u[:n] in place modulo a monic v, from the top; store the quotient in quot if given.

    A quotient coefficient is the top of the remainder, read as a Python int,
    and c * v is subtracted by one slice update (an XOR when p == 2, as in vadd).
    """
    nv = len(v)
    for i in range(n - nv, -1, -1):
        c = u.item(i + nv - 1)
        if c:
            if quot is not None:
                quot[i] = c
            seg = u[i:i + nv]
            if p == 2:
                seg ^= v
            else:
                seg -= c * v
                seg %= p


def _divide_t(u, n, v, exp, log, p, ndig, quot=None):
    """_divide_p in table mode: subtracting c * v is adding (-c) * v through exp/log and vadd."""
    nv = len(v)
    vnz = v != 0
    lv = log[v]
    for i in range(n - nv, -1, -1):
        c = u.item(i + nv - 1)
        if c:
            if quot is not None:
                quot[i] = c
            prod = np.where(vnz, exp[log[vneg(c, p, ndig)] + lv], 0)
            u[i:i + nv] = vadd(u[i:i + nv], prod, p, ndig)


class RemP:
    """Remainders modulo a fixed b of degree n >= 2 (prime mode), for a dividend of any length.

    It keeps h = rev(b)^-1 mod x^len(h), rev(b) being b with its coefficients
    reversed, and lifts it by the Newton step h <- h (2 - rev(b) h) mod
    x^(2 len(h)) only as far as the longest quotient so far needs, at most
    n - 1. A dividend is reduced from the top in blocks of at most 2n - 1
    coefficients. A block of n + nq coefficients, 1 <= nq <= n - 1, has the
    quotient q = rev(rev(a)[:nq] h mod x^nq), and its remainder is the low n
    coefficients of a - q b: two convolutions. The product q b is taken by
    conv_p; the products with h are truncated power series, which no convolution here makes longer in its shorter factor than
    n - 1, so one int64 check, made here, covers them. A dividend of at most n
    coefficients is returned as it is.
    """

    def __init__(self, b, p, inv_lead):
        if len(b) < 3:
            raise PreconditionError("a kept modulus for RemP has degree >= 2")
        check_int64((len(b) - 2) * (p - 1) ** 2, "a product coefficient")
        self.b = b
        self.p = p
        self.h = np.array([inv_lead], dtype=np.int64)

    def __call__(self, a):
        n = len(self.b) - 1
        block = 2 * n - 1
        if len(a) > block:
            a = a.copy()
        while len(a) > block:
            lo = len(a) - block
            a[lo:lo + n] = self._block(a[lo:])
            a = a[:lo + n]
        return self._block(a) if len(a) > n else a

    def _block(self, a):
        b, p = self.b, self.p
        n = len(b) - 1
        nq = len(a) - n
        L = len(self.h)
        while L < nq:
            L = min(2 * L, n - 1)
            t = -np.convolve(b[::-1][:L], self.h)[:L] % p
            t[0] = (t[0] + 2) % p
            self.h = np.convolve(self.h, t)[:L] % p
        q = np.convolve(a[n:][::-1], self.h[:nq])[:nq] % p
        r = a[:n] - conv_p(q[::-1], b, p)[:n]
        r %= p
        return r


def gcd_p(a, b, p):
    """Monic gcd over F_p of two ascending coefficient arrays, not both zero."""
    return _euclid(a, b, lambda u, n, v: _divide_p(u, n, v, p), lambda u: _monic_p(u, p))


def gcd_t(a, b, exp, log, p, ndig):
    """gcd_p in table mode."""
    return _euclid(a, b, lambda u, n, v: _divide_t(u, n, v, exp, log, p, ndig),
                   lambda u: _monic_t(u, exp, log))


def _euclid(a, b, divide, monic):
    """Monic gcd of two coefficient arrays, not both zero, by Euclid.

    Each divisor is made monic by `monic`, and each remainder is reduced in
    place by `divide(u, n, v)`, which reduces u[:n] modulo the monic v; the
    quotient is never stored.
    """
    u, v = _euclid_pair(a, b)
    if not len(v):
        return monic(u)
    v = monic(v)
    nu, nv = len(u), len(v)
    while nv > 1:
        divide(u, nu, v)
        nu = _trimmed_len(u, nv - 1)
        if not nu:
            return v
        u, v = v, monic(u[:nu])
        nu, nv = nv, nu
    return v


def _euclid_pair(a, b):
    """Trimmed copies of a and b, the longer first: Euclid's first dividend and divisor."""
    a = a[:_trimmed_len(a, len(a))].copy()
    b = b[:_trimmed_len(b, len(b))].copy()
    if len(a) < len(b):
        a, b = b, a
    if not len(a):
        raise PreconditionError("gcd(0, 0) is undefined")
    return a, b


def _trimmed_len(a, n):
    """The length of a[:n] without its trailing zeros."""
    while n and a.item(n - 1) == 0:
        n -= 1
    return n


def _monic_p(a, p):
    lead = a.item(len(a) - 1)
    return a if lead == 1 else a * pow(lead, p - 2, p) % p


def _monic_t(a, exp, log):
    lead = a.item(len(a) - 1)
    if lead == 1:
        return a
    qm1 = len(log) - 1
    shift = qm1 - log[lead]
    return np.where(a != 0, exp[log[a] + shift], 0)


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
    keeps unreduced polynomials (degree >= Q) exact. The points are taken in
    blocks of at most EVAL_BLOCK, so each temporary holds one block.

    Only log enters a product, (e mod (Q - 1)) log x, which reaches 2^40 at Q = 2^20:
    log is int64, and (Q - 2)^2 < 2^63 is checked here. The terms are gathered from
    exp (int32, int_dtype) and summed by vadd, so the values have exp's dtype.
    """
    qm1 = len(log) - 1
    check_int64((qm1 - 1) ** 2, "a log-domain exponent product")
    nz = np.flatnonzero(coeffs)
    powers, shifts = nz % qm1, log[coeffs[nz]]
    out = np.zeros(len(xs), dtype=exp.dtype)
    if not len(nz):
        return out
    for lo in range(0, len(xs), EVAL_BLOCK):
        block = xs[lo:lo + EVAL_BLOCK]
        lx = log[block]
        idx = np.empty_like(lx)
        acc = None
        for e, shift in zip(powers, shifts):
            np.multiply(lx, e, out=idx)
            np.remainder(idx, qm1, out=idx)
            idx += shift
            term = exp[idx]
            acc = term if acc is None else vadd(acc, term, p, ndig)
        acc[block == 0] = coeffs[0]
        out[lo:lo + len(block)] = acc
    return out
