"""Dense univariate polynomials over a GF, and the classical algorithms
(gcd, modular exponentiation, irreducibility, factorization) that the rest
of the package builds on.

Coefficients are stored ascending as int64 encodings, so coeffs[i] is the
coefficient of x^i. The zero polynomial has an empty coefficient array and
degree -1. These algorithms take no tower context and trust every coefficient
to be an encoding of its field; context.restrict_poly checks it at the tower's entries.
"""

import random
from itertools import islice

import numpy as np

from . import numth
from .errors import PreconditionError


_INT64 = np.dtype(np.int64)


class Poly:
    """Polynomial over a GF with ascending integer-encoded coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        arr = np.asarray(coeffs)
        if arr.dtype is not _INT64:
            if arr.size and arr.dtype.kind not in "iu":
                # a float would be truncated, and an int beyond int64 overflow
                raise PreconditionError("coefficients must be int64 integers, not %s" % arr.dtype)
            arr = arr.astype(np.int64)
        n = len(arr)
        if n and not arr.item(n - 1):
            # one scan for the last nonzero coefficient, not a step per trailing zero
            nz = arr.nonzero()[0]
            n = nz.item(-1) + 1 if len(nz) else 0
        self.field = field
        self.coeffs = arr[:n].copy()

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @classmethod
    def const(cls, field, c):
        return cls(field, [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return len(self.coeffs) == 0

    def leading(self):
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return int(self.coeffs[-1])

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return int(self.coeffs[i])
        return 0

    def encoding(self):
        """Integer encoding with radix |field|, constant term least significant."""
        enc = 0
        for c in reversed(self.coeffs):
            enc = enc * self.field.order + int(c)
        return enc

    @classmethod
    def from_encoding(cls, field, enc):
        coeffs = []
        while enc:
            coeffs.append(enc % field.order)
            enc //= field.order
        return cls(field, coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        if len(b):
            out[:len(b)] = self.field.vadd(a[:len(b)], b)
        return Poly(self.field, out)

    def __neg__(self):
        return Poly(self.field, self.field.vneg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        return Poly(self.field, self.field.kconv(self.coeffs, other.coeffs))

    def scale(self, c):
        if c == 0:
            return Poly.zero(self.field)
        return Poly(self.field, self.field.vmul(self.coeffs, c))

    def shift(self, n):
        """Multiply by x^n."""
        if self.is_zero:
            return self
        return Poly(self.field, np.concatenate([np.zeros(n, dtype=np.int64), self.coeffs]))

    def __divmod__(self, other):
        return poly_divmod(self, other)

    def __floordiv__(self, other):
        return poly_divmod(self, other)[0]

    def __mod__(self, other):
        return poly_divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return self.scale(self.field.inv(lead))

    def derivative(self):
        if self.degree < 1:
            return Poly.zero(self.field)
        ks = np.arange(1, len(self.coeffs), dtype=np.int64) % self.field.p
        return Poly(self.field, self.field.vmul(self.coeffs[1:], ks))

    def __call__(self, x):
        if self.is_zero:
            return 0
        return int(self.field.keval(self.coeffs, np.array([x], dtype=np.int64))[0])

    def eval_many(self, xs):
        xs = np.asarray(xs, dtype=np.int64)
        if self.is_zero:
            return np.zeros_like(xs)
        return self.field.keval(self.coeffs, xs)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field.key == other.field.key
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.all(self.coeffs == other.coeffs)))

    def __hash__(self):
        return hash((self.field.key, tuple(int(c) for c in self.coeffs)))

    def __str__(self):
        from .textio import format_poly
        return format_poly(self)

    def __repr__(self):
        return "Poly(%r, %s)" % (self.field, [int(c) for c in self.coeffs])


def poly_divmod(a, b):
    if b.is_zero:
        raise PreconditionError("polynomial division by zero")
    if a.degree < b.degree:
        return Poly.zero(a.field), a
    if b.degree == 0:
        return a.scale(a.field.inv(b.leading())), Poly.zero(a.field)
    q, r = a.field.kdivmod(a.coeffs, b.coeffs)
    return Poly(a.field, q), Poly(a.field, r)


def poly_gcd(a, b):
    """Monic greatest common divisor, by Euclid on coefficient arrays (GF.kgcd)."""
    return Poly(a.field, a.field.kgcd(a.coeffs, b.coeffs))


class Modulus:
    """Products, powers and Frobenius walks of remainders modulo a polynomial of degree >= 1,
    and Rabin's test of that polynomial.

    Every product and spread is reduced by one remainder function
    (GF.kreducer), so what it derives from the modulus is paid once for a
    whole chain: in prime mode, a Newton inverse of the reversed modulus,
    after which each reduction is two convolutions. A one-shot division is
    cheaper by `%`.
    """

    __slots__ = ("mod", "_rem")

    def __init__(self, mod):
        if mod.degree < 1:
            raise PreconditionError("a kept modulus must have degree >= 1")
        self.mod = mod
        self._rem = mod.field.kreducer(mod.coeffs)

    def mul(self, a, b):
        """a * b mod the modulus, for remainders a and b."""
        out = a * b
        if out.degree < self.mod.degree:
            return out
        return Poly(out.field, self._rem(out.coeffs))

    def pow(self, a, e):
        """a^e mod the modulus, for a remainder a and e >= 1, by square and multiply."""
        acc = None
        while True:
            if e & 1:
                acc = a if acc is None else self.mul(acc, a)
            e >>= 1
            if not e:
                return acc
            a = self.mul(a, a)

    def rem(self, a, exps=None, period=None):
        """a mod the modulus, for a polynomial a of any degree over the modulus's field.

        A sparse a is reduced term by term: one chain of squarings x, x^2, x^4,
        ... modulo the modulus serves every term, and x^e is the product of the
        squares at the set bits of e. A dense a is reduced by the remainder
        function at once. The cost rule weighs about deg(a).bit_length() plus
        the total popcount of the exponents in products against one block
        reduction per n - 1 coefficients above the n-th, n the degree of the
        modulus. exps, when given, are the ascending exponents of a's nonzero
        terms, which a caller that keeps a (PermPoly.exps) finds once, so that
        a is not scanned again.

        period, when given, is an e >= 1 with x^e = 1 modulo the modulus, which the
        caller has proved: Q - 1 modulo an irreducible of degree n over F_q, Q = q^n,
        other than x. A sparse a's exponents are then read modulo it, each as its
        residue of least absolute value, and a negative one as a power of x^-1 with
        a chain of its own: x^(Q-2) is x^-1, no product at all. x^-1 = -(g - g(0)) /
        (x g(0)) needs g(0) != 0, so a modulus divisible by x ignores the period.
        """
        n = self.mod.degree
        if a.degree < n:
            return a
        if exps is None:
            exps = np.flatnonzero(a.coeffs)
        # every exponent but 0 has a set bit, so a dense a is told apart before
        # its bits are counted
        bits = len(exps) - 1
        if a.degree - n >= (n - 1) * (a.degree.bit_length() + bits):
            bits = sum(e.bit_count() for e in exps.tolist())
        if a.degree - n < (n - 1) * (a.degree.bit_length() + bits):
            return Poly(a.field, self._rem(a.coeffs))
        field, g = a.field, self.mod
        # the chains of squares of x and x^-1, each extended as far as a term needs
        chains = {1: [Poly.x(field) % g]}
        if period is not None and g.coeff(0):
            chains[-1] = [Poly(field, g.coeffs[1:]).scale(field.neg(field.inv(g.coeff(0))))]
        else:
            period = None
        out = Poly.const(field, int(a.coeffs[0]))
        for e in exps[exps > 0].tolist():
            c = int(a.coeffs[e])
            if period is not None:
                e %= period
                e -= period if 2 * e > period else 0
            squares = chains[-1 if e < 0 else 1]
            e = abs(e)
            while len(squares) < e.bit_length():
                squares.append(self.mul(squares[-1], squares[-1]))
            term = None
            for j in range(e.bit_length()):
                if e >> j & 1:
                    term = squares[j] if term is None else self.mul(term, squares[j])
            out = out + (Poly.const(field, c) if term is None else term.scale(c))
        return out

    def is_irreducible(self):
        """Rabin's test of the modulus over its coefficient field F_q.

        f of degree n is irreducible iff x^(q^n) = x mod f and gcd(x^(q^(n/l)) - x,
        f) = 1 for every prime l | n. One Frobenius walk x -> x^q mod f serves
        every test: the gcds come in ascending order of n/l and the walk stops at
        the first that fails. It takes at most n steps, and never more than one
        power of x per test, taken from x, would. The walk reduces by this
        Modulus, so a caller that keeps one for other products pays for its
        remainder function once.
        """
        f = self.mod
        n = f.degree
        if n == 1:
            return True
        x = Poly.x(f.field)
        checks = {n // ell for ell in numth.factorint(n)}
        for i, t in enumerate(self.frobenius(x)):
            if i in checks and poly_gcd(t - x, f).degree != 0:
                return False
            if i == n:
                return t == x

    def frobenius(self, t):
        """The walk t, t^q, t^(q^2), ... mod the modulus, for a remainder t, q = |field|.

        Every coefficient c lies in F_q, so c^q = c and t^q is the spread
        t(x^q). Where _spread_is_cheaper says so, a step forms the spread and
        reduces it; otherwise it is square and multiply.
        """
        field = self.mod.field
        q = field.order
        if not _spread_is_cheaper(q):
            while True:
                yield t
                t = self.pow(t, q)
        while True:
            yield t
            c = t.coeffs
            if len(c) > 1:
                spread = np.zeros((len(c) - 1) * q + 1, dtype=np.int64)
                spread[::q] = c
                t = Poly(field, self._rem(spread))


def _spread_is_cheaper(q):
    """Whether t -> t^q modulo a polynomial is cheaper as a spread than by square and multiply.

    The spread of a remainder modulo a polynomial of degree n has
    (n - 1) q + 1 coefficients, so in prime mode it takes q - 1 block
    reductions of two convolutions each (_kernels.RemP). Square and multiply
    takes bit_length(q) + popcount(q) - 2 steps of a product and a
    reduction, three convolutions. Table mode, where both are loops of
    divmod_t or conv_t, meets the same crossover when measured: spreads for
    q <= 7.
    """
    steps = q.bit_length() + bin(q).count("1") - 2
    return 2 * (q - 1) <= 3 * steps


def powmod(base, e, mod):
    """base^e reduced mod `mod`, by square and multiply.

    `base` is reduced once by long division; the squarings and products then
    share one Modulus, so in prime mode each of their reductions is two
    convolutions.
    """
    if mod.degree < 1:
        raise PreconditionError("powmod modulus must have degree >= 1")
    if e < 0:
        raise PreconditionError("powmod exponent must be >= 0")
    if e == 0:
        return Poly.one(base.field)
    return Modulus(mod).pow(base % mod, e)


def frobenius_gcd(a, d):
    """gcd(x^(q^d) - x, a) for a of degree >= 1, q = |field|, by d steps of the Frobenius walk."""
    x = Poly.x(a.field) % a
    return poly_gcd(next(islice(Modulus(a).frobenius(x), d, None)) - x, a)


def compose(f, g):
    """f(g(x)), unreduced, by Horner's rule on coefficient arrays."""
    field = f.field
    if f.degree < 1 or g.degree < 1:
        return Poly.const(field, f(g.coeff(0)))
    acc = f.coeffs[-1:]
    for c in f.coeffs[-2::-1].tolist():
        acc = field.kconv(acc, g.coeffs)
        acc[0] = field.add(acc.item(0), c)
    return Poly(field, acc)


def fold_mod(f, Q):
    """Reduce f modulo x^Q - x by exponent folding.

    Exponent t >= 1 folds to 1 + (t - 1) mod (Q - 1), which preserves the
    induced map on the Q-element field without materializing x^Q - x. Q may
    be the order of an extension of f's field, as for the members of G_k.
    """
    field = f.field
    if f.degree < Q:
        return f
    # row r holds the coefficients of x^(1 + r(Q - 1)) .. x^((r + 1)(Q - 1)), zero-padded
    rows = -(-f.degree // (Q - 1))
    tail = np.zeros(rows * (Q - 1), dtype=np.int64)
    tail[:f.degree] = f.coeffs[1:]
    return Poly(field, np.concatenate([f.coeffs[:1], field.vsum(tail.reshape(rows, Q - 1))]))


def is_irreducible(f):
    """Rabin's irreducibility test over the coefficient field F_q (Modulus.is_irreducible);
    False for a constant."""
    return f.degree >= 1 and Modulus(f).is_irreducible()


def _irreducibles(field, k):
    """The monic irreducibles of degree k, lazily, ascending by coefficient encoding."""
    lead = field.order ** k
    return (f for f in (Poly.from_encoding(field, enc + lead) for enc in range(lead))
            if is_irreducible(f))


def first_irreducible(field, k):
    """Monic irreducible of degree k with the smallest coefficient encoding."""
    for f in _irreducibles(field, k):
        return f
    raise PreconditionError("no irreducible of degree %d found" % k)


def enumerate_irreducibles(field, k):
    """All monic irreducibles of degree k, ascending by coefficient encoding."""
    return list(_irreducibles(field, k))


def count_irreducibles(q, k):
    """Number of monic irreducibles of degree k over a field of q elements."""
    # with term q^d the inner sums are d q^d, leaving Gauss's sum over d | k of
    # moebius(k/d) q^d: the number of elements of degree k, k per irreducible
    return numth.moebius_sum(k, lambda d, i: q ** d) // k


def psi_d(field, d):
    """Product of all monic irreducibles of degree exactly d over the field.

    It is the product over e | d of (x^(q^e) - x)^moebius(d/e): the binomials
    with moebius +1 are multiplied, then divided once by those with -1.
    """
    one, x = Poly.one(field), Poly.x(field)
    parts = {1: one, -1: one}
    for e in numth.divisors(d):
        mu = numth.moebius(d // e)
        if mu:
            parts[mu] = parts[mu] * (one.shift(field.order ** e) - x)
    quo, rem = poly_divmod(parts[1], parts[-1])
    if not rem.is_zero:
        raise ArithmeticError("splitting polynomial division left a remainder")
    return quo


def _squarefree_parts(f):
    """Char-p squarefree decomposition: list of (multiplicity, squarefree factor)."""
    out = []
    c = poly_gcd(f, f.derivative())
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((i, z))
        i += 1
        w = y
        c = c // y
    if c.degree > 0:
        for mult, g in _squarefree_parts(pth_root(c)):
            out.append((mult * f.field.p, g))
    return out


def pth_root(f):
    """The g with g^p = f, for an f in which only powers of x^p occur (p the characteristic)."""
    field = f.field
    return Poly(field, field.vpow(f.coeffs[::field.p], field.order // field.p))


def _distinct_degree(f):
    """(degree, product-of-factors) pairs for a squarefree monic f."""
    x = Poly.x(f.field)
    out = []
    cur = f
    # one Frobenius walk per cofactor, started afresh only when a factor splits off
    walk = Modulus(cur).frobenius(x)
    h = next(walk)
    i = 0
    while cur.degree > 0:
        i += 1
        if 2 * i > cur.degree:
            out.append((cur.degree, cur))
            break
        h = next(walk)
        g = poly_gcd(h - x, cur)
        if g.degree > 0:
            out.append((i, g))
            cur = cur // g
            if cur.degree > 0:
                walk = Modulus(cur).frobenius(h % cur)
                h = next(walk)
    return out


def _equal_degree(f, d, rng):
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
    if f.degree == d:
        return [f]
    field = f.field
    q = field.order
    ring = Modulus(f)
    while True:
        u = Poly(field, [rng.randrange(q) for _ in range(f.degree)])
        if u.degree < 1:
            continue
        if q % 2 == 1:
            v = ring.pow(u, (q ** d - 1) // 2) - Poly.one(field)
        else:
            e = d * field.deg
            v = u
            sq = u
            for _ in range(e - 1):
                sq = ring.mul(sq, sq)
                v = v + sq
        g = poly_gcd(v, f)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor(f):
    """Monic irreducible factorization as a list of (factor, multiplicity).

    The output is sorted by (degree, coefficient encoding), so it does not
    depend on the splitting randomness, which is seeded with 0.
    """
    if f.is_zero:
        raise PreconditionError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    rng = random.Random(0)
    found = []
    for mult, g in _squarefree_parts(f.monic()):
        for d, prod in _distinct_degree(g):
            for irr in _equal_degree(prod, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda t: (t[0].degree, t[0].encoding()))
    return found


def q_associate(h):
    """The linearized q-associate L_h = sum h_i x^(q^i) as a dense Poly.

    q is the order of the coefficient field of h.
    """
    if h.is_zero:
        return Poly.zero(h.field)
    q = h.field.order
    out = np.zeros(q ** h.degree + 1, dtype=np.int64)
    out[q ** np.arange(h.degree + 1)] = h.coeffs
    return Poly(h.field, out)


def linearized_modulus(h, k, q):
    """x^k - 1 over the field of h, once h is checked to lie over a field of order q and
    to be coprime to x^k - 1 (so L_h permutes)."""
    if h.field.order != q:
        raise PreconditionError("the polynomial must lie over F_q")
    one = Poly.one(h.field)
    xk1 = one.shift(k) - one
    if h.is_zero or poly_gcd(h, xk1).degree != 0:
        raise PreconditionError("the polynomial must be coprime to x^k - 1")
    return xk1


def irreducible_Ek(field, k):
    """E_k = (x^k - 1)/(x - 1) over field, once it is checked to be irreducible."""
    one = Poly.one(field)
    Ek = (one.shift(k) - one) // (Poly.x(field) - one)
    if not is_irreducible(Ek):
        raise PreconditionError("(x^k - 1)/(x - 1) must be irreducible over F_q")
    return Ek
