"""Reference routines that the tests check the package against."""

import numpy as np

from permdyn import _kernels, numth
from permdyn.dynamics import star
from permdyn.errors import PreconditionError
from permdyn.polys import Poly, count_irreducibles, fold_mod, powmod


def compose_mod(f, g, mod):
    """f(g(x)) mod `mod`, by Horner's rule with a reduction after every step."""
    acc = Poly.zero(f.field)
    g = g % mod
    for c in reversed(f.coeffs):
        acc = (acc * g) % mod + Poly.const(f.field, int(c))
    return acc % mod


def loop_powmod(base, e, mod):
    """base^e mod `mod` by square and multiply, each product reduced by long division."""
    acc = Poly.one(base.field)
    sq = base % mod
    while e:
        if e & 1:
            acc = (acc * sq) % mod
        e >>= 1
        if e:
            sq = (sq * sq) % mod
    return acc


def loop_gcd(a, b):
    """Monic gcd by Euclid on Poly objects, one long division (`%`) per step."""
    if a.is_zero and b.is_zero:
        raise PreconditionError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def loop_is_irreducible(f):
    """Rabin's test by one loop_powmod from x for each prime l of the degree n, in
    ascending order of l, and then x^(q^n) = x mod f."""
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    q = f.field.order
    x = Poly.x(f.field)
    for ell in numth.factorint(n):
        if loop_gcd(loop_powmod(x, q ** (n // ell), f) - x, f).degree != 0:
            return False
    return loop_powmod(x, q ** n, f) == x % f


def recursive_psi_d(field, d):
    """Psi_d as (x^(q^d) - x) divided by Psi_e for every proper divisor e of d, each Psi_e
    computed the same way."""
    one = Poly.one(field)
    out = one.shift(field.order ** d) - Poly.x(field)
    for e in numth.divisors(d)[:-1]:
        out, rem = divmod(out, recursive_psi_d(field, e))
        assert rem.is_zero
    return out


def squaring_moebius_rep(ctx, A):
    """The polynomial of degree < Q over F_q whose map is tau_A, by a squaring chain.

    For c != 0 it is (ax + b) ((cx + d)^(Q-2) + (a / det A) pole), with the
    power taken by square and multiply modulo x^Q - x (fold_mod) and `pole`
    the polynomial that is 1 at the pole u = -d/c and 0 elsewhere:
    1 - (x - u)^(Q-1), expanded. Not certified.
    """
    Fq, Q = ctx.Fq, ctx.Q
    if A.c == 0:
        dinv = Fq.inv(A.d)
        return Poly(Fq, [Fq.mul(A.b, dinv), Fq.mul(A.a, dinv)])
    u = Fq.neg(Fq.mul(A.d, Fq.inv(A.c)))
    eps = Fq.mul(A.a, Fq.inv(A.det()))
    inv_part = Poly.one(Fq)
    sq = Poly(Fq, [A.d, A.c])
    e = Q - 2
    while e:
        if e & 1:
            inv_part = fold_mod(inv_part * sq, Q)
        e >>= 1
        if e:
            sq = fold_mod(sq * sq, Q)
    pole = np.zeros(Q, dtype=np.int64)
    if u == 0:
        pole[Q - 1] = 1
        pole[0] = Fq.neg(1)
    else:
        idx = (Q - 1 - np.arange(1, Q, dtype=np.int64)) % (ctx.q - 1)
        pows = np.array([Fq.pow(u, t) for t in range(ctx.q - 1)], dtype=np.int64)
        pole[1:] = pows[idx]
    return fold_mod(Poly(Fq, [A.b, A.a]) * (inv_part + Poly(Fq, pole).scale(eps)), Q)


def gcd_generation(ctx, P, f0, max_steps=None):
    """(produced, period) of f -> P*f from f0, one gcd star per step.

    The run stops when f0 recurs or after max_steps steps; without max_steps
    it stops after |I_k| + 1 steps, past the longest possible cycle.
    """
    if max_steps is None:
        max_steps = count_irreducibles(ctx.q, ctx.k) + 1
    produced = [f0]
    cur = f0
    for step in range(1, max_steps + 1):
        cur = star(ctx, P, cur)
        if cur == f0:
            return produced, step
        produced.append(cur)
    return produced, None


def linearized_eval(h, ext, alpha):
    """Evaluate L_h at alpha, an element of the extension field `ext`.

    Coefficients of h embed into ext as initial-segment encodings.
    """
    q = h.field.order
    acc = 0
    for i in range(h.degree + 1):
        c = h.coeff(i)
        if c:
            acc = ext.add(acc, ext.mul(c, ext.pow(alpha, q ** i)))
    return acc


# Schoolbook polynomial arithmetic over a table-mode field, on ascending
# coefficient lists. Sums and negatives go through the base-p digit vectors
# of GF.decompose/GF.compose, so none of it shares code with the kernels.

def digit_add(field, a, b):
    return field.compose([x + y for x, y in zip(field.decompose(a), field.decompose(b))])


def digit_neg(field, a):
    return field.compose([-x for x in field.decompose(a)])


def schoolbook_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = digit_add(field, out[i + j], field.mul(int(ai), int(bj)))
    return out


def schoolbook_divmod(field, a, b):
    """(quotient, remainder) of long division; the remainder has len(b) - 1 entries."""
    r = [int(c) for c in a]
    q = [0] * (len(a) - len(b) + 1)
    inv_lead = field.inv(int(b[-1]))
    for i in range(len(q) - 1, -1, -1):
        c = field.mul(r[i + len(b) - 1], inv_lead)
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] = digit_add(field, r[i + j], digit_neg(field, field.mul(c, int(bj))))
    return q, r[:len(b) - 1]


def schoolbook_eval(field, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = digit_add(field, field.mul(acc, int(x)), int(c))
    return acc


def horner_eval_t(coeffs, xs, exp, log, p, ndig):
    """Table-mode evaluation by Horner's rule over every degree, on whole arrays."""
    acc = np.zeros(len(xs), dtype=np.int64)
    xnz = xs != 0
    lx = log[xs]
    for i in range(len(coeffs) - 1, -1, -1):
        nz = (acc != 0) & xnz
        acc = np.where(nz, exp[log[np.where(acc != 0, acc, 1)] + lx], 0)
        c = coeffs[i]
        if c:
            acc = _kernels.vadd(acc, c, p, ndig)
    return acc


def ext_mul(base, modulus, a, b):
    """a * b in base[y]/(modulus), by schoolbook product and long division.

    a and b are encodings whose radix-|base| digits are their coefficients
    over base; modulus is the ascending coefficient array of a monic
    polynomial. Only base.mul and digit vectors are used, never the tables
    of the extension itself.
    """
    Q, r = base.order, len(modulus) - 1
    u = [a // Q ** i % Q for i in range(r)]
    v = [b // Q ** i % Q for i in range(r)]
    rem = schoolbook_divmod(base, schoolbook_mul(base, u, v), modulus)[1]
    return sum(c * Q ** i for i, c in enumerate(rem))


def matrix_doubling_tables(base, modulus):
    """(generator, exp, log) of base[y]/(modulus), built on digit matrices.

    The first multiplicative generator by encoding; exp holds its powers
    0 .. 2Q-4 and log[exp[i]] = i for i < Q - 1, with log[0] = 0. The powers
    fill a (Q-1) x n matrix of base-p digit vectors by doubling, each block
    being the one before times the F_p-matrix of multiplication by g^s, which
    is then squared.
    """
    p = base.p
    r = len(modulus) - 1
    Q = base.order ** r
    n = base.deg * r
    mod = Poly(base, modulus)
    one = Poly.one(base)
    cofactors = [(Q - 1) // ell for ell in numth.factorint(Q - 1)]
    for enc in range(2, Q):
        g = Poly.from_encoding(base, enc)
        if all(powmod(g, e, mod) != one for e in cofactors):
            break
    else:
        raise ArithmeticError("no multiplicative generator")
    # column j is the digit vector of g * p^j, p^j encoding basis element j
    M = np.array([[(g * Poly.from_encoding(base, p ** j) % mod).encoding() // p ** i % p
                   for i in range(n)] for j in range(n)], dtype=np.int64).T
    exp_dig = np.zeros((Q - 1, n), dtype=np.int64)
    exp_dig[0, 0] = 1
    filled = 1
    while filled < Q - 1:
        take = min(filled, Q - 1 - filled)
        exp_dig[filled:filled + take] = exp_dig[:take] @ M.T % p
        filled += take
        M = M @ M % p
    exp = exp_dig @ p ** np.arange(n, dtype=np.int64)
    if len(set(exp.tolist()) - {0}) != Q - 1:
        raise ArithmeticError("powers of the generator are not distinct and nonzero")
    log = np.zeros(Q, dtype=np.int64)
    log[exp] = np.arange(Q - 1)
    return enc, np.concatenate([exp, exp[:Q - 2]]), log
