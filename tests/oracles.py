"""Reference routines that the tests check the package against."""

import json

import numpy as np

from permdyn import _kernels, numth
from permdyn.context import embed_poly, frobenius_orbits, restrict_poly
from permdyn.errors import PreconditionError
from permdyn.polys import (Modulus, Poly, compose, count_irreducibles, fold_mod, frobenius_gcd,
                           powmod, psi_d)


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


def distinguished_root(ctx, f):
    """The smallest-encoding root of a monic irreducible f of degree k, read off the orbit table."""
    orbits = frobenius_orbits(ctx)
    return int(orbits.roots[orbits.index(restrict_poly(ctx, f))])


def recursive_psi_d(field, d):
    """Psi_d as (x^(q^d) - x) divided by Psi_e for every proper divisor e of d, each Psi_e
    computed the same way."""
    one = Poly.one(field)
    out = one.shift(field.order ** d) - Poly.x(field)
    for e in numth.divisors(d)[:-1]:
        out, rem = divmod(out, recursive_psi_d(field, e))
        assert rem.is_zero
    return out


def psi_fixed_count(ctx, P):
    """Star-fixed count of I_k as deg gcd(prod_{i<k} (x^(q^i) - P), Psi_k) / k.

    P is a certified permutation (a PermPoly). Psi_k, the product of the monic
    irreducibles of degree k, has the roots of degree k as its roots; such a
    root is a root of some x^(q^i) - P exactly when its minimal polynomial is
    star-fixed. The product is formed modulo Psi_k, x^(q^i) by loop_powmod
    from x^(q^(i-1)), and the gcd is loop_gcd.
    """
    psi = psi_d(ctx.Fq, ctx.k)
    Pm = P.poly % psi
    t = Poly.x(ctx.Fq) % psi
    acc = Poly.one(ctx.Fq)
    for _ in range(ctx.k):
        acc = (acc * (t - Pm)) % psi
        t = loop_powmod(t, ctx.q, psi)
    count, rem = divmod(loop_gcd(acc, psi).degree, ctx.k)
    assert rem == 0
    return count


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


def gcd_star(ctx, P, f):
    """P*f as gcd(f(P), x^(q^k) - x), the one irreducible factor of degree k of f(P).

    f(P) is composed in full, and x^(q^k) mod f(P) is k steps of the Frobenius walk
    (polys.frobenius_gcd); no orbit table is read. P, a PermPoly or a Poly that
    permutes F_{q^k}, and f, a monic irreducible of degree k, are trusted.
    """
    return frobenius_gcd(compose(restrict_poly(ctx, f), restrict_poly(ctx, P)), ctx.k)


def eval_diamond(ctx, P, f):
    """P<>f, the minimal polynomial of P(alpha) for alpha the least root of f: the orbit
    table's row at P(roots[i]), by one evaluation of P over F_{q^k}. P, a PermPoly or a
    Poly that permutes F_{q^k}, and f, a monic irreducible of degree k, are trusted."""
    orbits = frobenius_orbits(ctx)
    alpha = int(orbits.roots[orbits.index(restrict_poly(ctx, f))])
    node = int(orbits.node[embed_poly(ctx, P)(alpha)])
    assert node >= 0, "P(alpha) does not have degree k"
    return orbits.poly(node)


def horner_edge(P, f, g):
    """Whether f(P) = 0 mod g, by Horner's rule on P mod g with one product modulo g per
    coefficient of f, each reduced on its own (Modulus.mul)."""
    ring = Modulus(g)
    Pg, acc = ring.rem(P), Poly.zero(g.field)
    for c in f.coeffs[::-1].tolist():
        acc = ring.mul(acc, Pg) + Poly.const(g.field, c)
    return acc.is_zero


def gcd_generation(ctx, P, f0, max_steps=None):
    """(produced, period) of f -> P*f from f0, one gcd_star per step.

    The run stops when f0 recurs or after max_steps steps; without max_steps
    it stops after |I_k| + 1 steps, past the longest possible cycle.
    """
    if max_steps is None:
        max_steps = count_irreducibles(ctx.q, ctx.k) + 1
    produced = [f0]
    cur = f0
    for step in range(1, max_steps + 1):
        cur = gcd_star(ctx, P, cur)
        if cur == f0:
            return produced, step
        produced.append(cur)
    return produced, None


def loop_cycles(perm):
    """Cycles of a permutation of range(n) given as its image array, each walked from its
    least index, in order of that index: one Python step per element."""
    perm = perm.tolist()
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        if cyc:
            cycles.append(cyc)
    return cycles


def loop_format_poly(f):
    """Human form of a Poly, one loop step per degree from the top."""
    if f.is_zero:
        return "0"
    field = f.field
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if c == 0:
            continue
        xs = "" if i == 0 else "x" if i == 1 else "x^%d" % i
        if c == 1 and i > 0:
            parts.append(xs)
            continue
        if field.deg > 1 and c >= field.p:
            digits = field.decompose(c)
            while len(digits) > 1 and digits[-1] == 0:
                digits.pop()
            cs = "[" + ",".join(str(d) for d in digits) + "]"
        else:
            cs = str(c)
        parts.append(cs + xs)
    return "+".join(parts)


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


def vpow_orbit_table(ctx):
    """(codes, coeffs, roots, node) of the Frobenius-orbit table, built on all of F_{q^k}.

    One table x -> x^q over every element is gathered through k - 1 times: an
    element has degree k iff no power below the k-th fixes it, and it leads its
    orbit iff it is the least of its conjugates, which makes it the orbit's root
    in roots. The minimal polynomials are multiplied out with whole-table vmul calls.
    """
    F, q, k = ctx.Fqk, ctx.q, ctx.k
    els = F.elements()
    frob = F.vpow(els, q)
    full = np.ones(ctx.Q, dtype=bool)
    least = els.copy()
    cur = els
    for _ in range(k - 1):
        cur = frob[cur]
        full &= cur != els
        np.minimum(least, cur, out=least)
    reps = els[full & (least == els)]
    n = len(reps)
    if n != count_irreducibles(q, k):
        raise ArithmeticError("%d Frobenius orbits of degree k, not |I_k|" % n)
    conj = np.empty((n, k), dtype=np.int64)
    conj[:, 0] = reps
    for j in range(1, k):
        conj[:, j] = frob[conj[:, j - 1]]
    coef = np.zeros((n, k + 1), dtype=np.int64)
    coef[:, 0] = 1
    for j in range(k):
        low = F.vmul(F.vneg(conj[:, j:j + 1]), coef[:, :j + 1])
        coef[:, 1:j + 2] = coef[:, :j + 1]
        coef[:, 0] = 0
        coef[:, :j + 1] = F.vadd(coef[:, :j + 1], low)
    if np.any(coef >= q):
        raise ArithmeticError("minimal polynomial has a coefficient outside F_q")
    codes = coef @ q ** np.arange(k + 1, dtype=np.int64)
    order = np.argsort(codes)
    node = np.full(ctx.Q, -1, dtype=np.int64)
    node[conj[order]] = np.arange(n, dtype=np.int64)[:, None]
    return codes[order], coef[order], reps[order], node


def loop_interpolate(ctx, values):
    """The polynomial of degree < Q over F_{q^k} with value values[u] at each encoding u,
    by Q - 1 whole-array steps.

    The nodal polynomial x^Q - x has derivative -1, so the basis polynomial at u
    is the negated synthetic quotient (x^Q - x)/(x - u): 1 - x^(Q-1) at u = 0,
    and at u != 0 the sum of -u^(Q-1-i) x^i over 0 < i < Q. Step t adds
    -sum_(u != 0) values[u] u^t to the coefficient of x^(Q-1-t), keeping the
    powers u^t as one array. Values are trusted.
    """
    field, Q = ctx.Fqk, ctx.Q
    values = np.asarray(values, dtype=np.int64)
    coeffs = np.zeros(Q, dtype=np.int64)
    coeffs[0] = values[0]
    coeffs[Q - 1] = field.neg(int(values[0]))
    us = np.arange(1, Q, dtype=np.int64)
    vs = values[1:]
    pw = np.ones(Q - 1, dtype=np.int64)
    for t in range(Q - 1):
        i = Q - 1 - t
        s = field.vsum(field.vmul(vs, pw))
        coeffs[i] = field.add(int(coeffs[i]), field.neg(s))
        if t < Q - 2:
            pw = field.vmul(pw, us)
    return Poly(field, coeffs)


def list_json(graph):
    """FunctionalGraph.to_json text as json.dumps of the node list, the cycle lists and
    the summary, all held at once."""
    return json.dumps({"nodes": graph.nodes, "cycles": graph.cycles, "summary": graph.summary})


def loop_dot(graph):
    """FunctionalGraph.to_dot text built line by line, one formatted string per edge."""
    lines = ["digraph G {"]
    for idx, cyc in enumerate(graph.cycles):
        lines.append("  subgraph cluster_%d {" % idx)
        for j, a in enumerate(cyc):
            lines.append('    "%s" -> "%s";' % (a, cyc[(j + 1) % len(cyc)]))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


class TowerArithmetic:
    """Arithmetic on the encodings of F_{q^k} in plain Python ints, modulo the tower's moduli.

    F_q is F_p[z] modulo the base modulus (F_p itself when m = 1) and F_{q^k} is
    F_q[y] modulo the extension modulus; an encoding's radix-q digits are its
    coefficients over F_q, and an F_q encoding's radix-p digits its coefficients over
    F_p. Products are schoolbook products reduced by long division, so no exp or log
    table of either field is read, and no numpy integer takes part.
    """

    def __init__(self, ctx):
        self.p, self.m, self.q, self.k = ctx.p, ctx.m, ctx.q, ctx.k
        self.base = [int(c) for c in ctx.Fq.modulus] if ctx.m > 1 else None
        self.ext = [int(c) for c in ctx.ext_modulus.coeffs]

    @staticmethod
    def _digits(a, radix, n):
        return [a // radix ** i % radix for i in range(n)]

    @staticmethod
    def _encode(digits, radix):
        return sum(d * radix ** i for i, d in enumerate(digits))

    def fq_add(self, a, b):
        p, m = self.p, self.m
        return self._encode([(x + y) % p for x, y in zip(self._digits(a, p, m),
                                                         self._digits(b, p, m))], p)

    def fq_neg(self, a):
        p = self.p
        return self._encode([-x % p for x in self._digits(a, p, self.m)], p)

    def fq_mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        u, v = self._digits(a, p, m), self._digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            for j, b_j in enumerate(self.base):
                prod[i - m + j] = (prod[i - m + j] - c * b_j) % p
        return self._encode(prod[:m], p)

    def mul(self, a, b):
        q, k = self.q, self.k
        u, v = self._digits(a, q, k), self._digits(b, q, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    prod[i + j] = self.fq_add(prod[i + j], self.fq_mul(x, y))
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                for j, e_j in enumerate(self.ext):
                    prod[i - k + j] = self.fq_add(prod[i - k + j], self.fq_neg(self.fq_mul(c, e_j)))
        return self._encode(prod[:k], q)

    def add(self, a, b):
        q, k = self.q, self.k
        return self._encode([self.fq_add(x, y) for x, y in zip(self._digits(a, q, k),
                                                               self._digits(b, q, k))], q)

    def neg(self, a):
        return self._encode([self.fq_neg(x) for x in self._digits(a, self.q, self.k)], self.q)

    def pow(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def eval(self, coeffs, x):
        """The value at x of the polynomial with ascending coefficients `coeffs`, term by term."""
        out = 0
        for e, c in enumerate(coeffs):
            if c:
                out = self.add(out, self.mul(int(c), self.pow(x, e)))
        return out

    def minimal_poly(self, a):
        """(conjugates, ascending coefficients) of prod (y - a^(q^j)) over the distinct
        conjugates of a."""
        conj = [a]
        while True:
            nxt = self.pow(conj[-1], self.q)
            if nxt == a:
                break
            conj.append(nxt)
        coeffs = [1]
        for c in conj:
            low = [self.neg(self.mul(c, x)) for x in coeffs] + [0]
            coeffs = [self.add(x, y) for x, y in zip(low, [0] + coeffs)]
        return conj, coeffs
