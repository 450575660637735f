"""Finite fields with integer-encoded elements.

A field of p^n elements stores each element as an integer in [0, p^n): the
base-p digits of the encoding are the coordinates with respect to the
F_p-basis (1, z, ..., z^{n-1}), extended blockwise through tower steps.
Under this encoding a scalar c of the base field of a tower embeds as the
same integer c, so subfield membership of a tower scalar is just c < q.

Fields of prime order compute directly mod p. Proper extensions precompute
exp/log tables over the whole multiplicative group (desk-scale guard keeps
these small), built once by locating a generator g and filling its powers by
doubling on encodings: g^s .. g^(2s-1) are g^0 .. g^(s-1) times g^s, an
F_p-linear map applied through two lookup tables over the low and the high
half of the base-p digits, so no array of (order - 1) digit vectors is formed.

The tables are stored at the width their values need (_kernels.int_dtype): exp
holds encodings, below the order, and is int32 while the order is at most 2^31.
log stays int64, because it is multiplied: GF.pow, GF.vpow and _kernels.eval_t
form log(a) * e before reducing mod order - 1, and that product reaches 2^40
at order 2^20. An array gathered from exp, such as the result of vmul or vpow,
has exp's dtype; a Poly takes its coefficients as int64.
"""

import numpy as np

from . import _kernels, numth
from .errors import PreconditionError


class GF:
    """A finite field; elements are plain ints in [0, order)."""

    def __init__(self, *, _token=None):
        if _token is not self._TOKEN:
            raise TypeError("use GF.prime(p) or GF.extension(base, modulus)")

    _TOKEN = object()

    @classmethod
    def prime(cls, p):
        """The prime field of p elements."""
        if not numth.is_prime(p):
            raise PreconditionError("%d is not prime" % p)
        # prime-mode kernels form a * b + c with a, b, c < p in int64
        _kernels.check_int64((p - 1) ** 2 + p, "arithmetic mod %d" % p)
        self = cls(_token=cls._TOKEN)
        self.p = p
        self.deg = 1
        self.order = p
        self.base = None
        self.modulus = None
        self.mode = "prime"
        self.exp = None
        self.log = None
        self.generator = None
        self.key = ("prime", p)
        return self

    @classmethod
    def extension(cls, base, modulus):
        """Extension of `base` by a monic irreducible `modulus` of degree >= 2.

        `modulus` is an ascending coefficient array of base-field encodings,
        each in [0, base.order). Irreducibility is the caller's
        responsibility; a reducible modulus is detected here only through an
        ArithmeticError, raised when the generator search fails or when the
        powers of the element it found are not distinct and nonzero.
        """
        modulus = base.check_encodings(modulus)
        r = len(modulus) - 1
        if r < 2:
            raise PreconditionError("extension degree must be >= 2")
        if modulus[-1] != 1:
            raise PreconditionError("modulus must be monic")
        self = cls(_token=cls._TOKEN)
        self.p = base.p
        self.deg = base.deg * r
        self.order = base.order ** r
        self.base = base
        self.modulus = modulus
        self.mode = "table"
        self.key = ("ext", base.key, tuple(int(c) for c in modulus))
        self._build_tables(base, modulus)
        return self

    # -- table construction -------------------------------------------------

    def _build_tables(self, base, modulus):
        """Find the least generator g by encoding, then fill exp[i] = g^i for i < 2Q - 3
        and the discrete logs (log[0] = 0, masked by every caller). exp is int32 while
        Q <= 2^31 (_kernels.int_dtype); log is int64, since GF.pow, GF.vpow and
        _kernels.eval_t multiply it. No other int64 array of Q entries is formed."""
        from .polys import Modulus, Poly  # polys does not import fields

        Q = self.order
        p = self.p
        n = self.deg
        ring = Modulus(Poly(base, modulus))
        one = Poly.one(base)
        cofactors = [(Q - 1) // ell for ell in numth.factorint(Q - 1)]
        for enc in range(2, Q):
            g = Poly.from_encoding(base, enc)
            if all(ring.pow(g, e) != one for e in cofactors):
                self.generator = enc
                break
        else:
            raise ArithmeticError("no multiplicative generator found; modulus reducible?")

        # Multiplication by g^s is F_p-linear on digit vectors, so the
        # encodings cols[j] of g^s * p^j (p^j encodes the j-th basis element)
        # fix it. It acts on an encoding array through two lookup tables, one
        # over the low `lo` digits and one over the high n - lo, whose
        # entries add digitwise: each table has at most p^ceil(n/2) entries.
        dtype = _kernels.int_dtype(Q)
        lo = n // 2
        split = p ** lo
        pp = p ** np.arange(n, dtype=np.int64)
        low_dig, high_dig = (np.arange(p ** h, dtype=np.int64)[:, None] // pp[:h] % p
                             for h in (lo, n - lo))

        def times(cols, xs):
            col_dig = cols[:, None] // pp % p
            low = (low_dig @ col_dig[:lo] % p @ pp).astype(dtype)
            high = (high_dig @ col_dig[lo:] % p @ pp).astype(dtype)
            return _kernels.vadd(low[xs % split], high[xs // split], p, n)

        cols = np.array([ring.mul(g, Poly.from_encoding(base, p ** j)).encoding()
                         for j in range(n)], dtype=dtype)
        # exp[:Q - 1] holds g^0 .. g^(Q-2); doubling fills g^s .. g^(2s-1)
        # from g^0 .. g^(s-1), then squares the map by applying it to cols
        exp = np.empty(2 * Q - 3, dtype=dtype)
        exp[0] = 1
        filled = 1
        while filled < Q - 1:
            take = min(filled, Q - 1 - filled)
            exp[filled:filled + take] = times(cols, exp[:take])
            filled += take
            if filled < Q - 1:
                cols = times(cols, cols)

        # g generates iff its Q - 1 powers are distinct and nonzero, that is iff
        # they cover 1 .. Q-1: the scatter then leaves no entry of log[1:] at -1
        log = np.full(Q, -1, dtype=np.int64)
        log[exp[:Q - 1]] = np.arange(Q - 1, dtype=dtype)
        if log[1:].min() < 0:
            raise ArithmeticError("exp table degenerate; modulus reducible?")
        log[0] = 0
        exp[Q - 1:] = exp[:Q - 2]
        self.exp = exp
        self.log = log

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a, b):
        return _kernels.vadd(a, b, self.p, self.deg)

    def neg(self, a):
        return _kernels.vneg(a, self.p, self.deg)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.mode == "prime":
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a):
        if a == 0:
            raise PreconditionError("inversion of zero")
        if self.mode == "prime":
            return pow(a, self.p - 2, self.p)
        qm1 = self.order - 1
        return int(self.exp[(qm1 - self.log[a]) % qm1])

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self.mode == "prime":
            return pow(a, e, self.p)
        qm1 = self.order - 1
        return int(self.exp[self.log[a] * (e % qm1) % qm1])

    # -- vectorized arithmetic on encoding arrays ----------------------------

    # the digit kernels take ints and encoding arrays alike
    vadd = add
    vneg = neg

    def vmul(self, xs, ys):
        if self.mode == "prime":
            return xs * ys % self.p
        nz = (xs != 0) & (ys != 0)
        lx = self.log[np.where(xs != 0, xs, 1)]
        ly = self.log[np.where(ys != 0, ys, 1)]
        return np.where(nz, self.exp[lx + ly], 0)

    def vsum(self, xs):
        """Field sum of an array of encodings along axis 0."""
        return _kernels.vsum(xs, self.p, self.deg)

    def vpow(self, xs, e):
        if self.mode == "prime":
            out = np.ones_like(xs)
            base_ = xs % self.p
            ee = e
            while ee:
                if ee & 1:
                    out = out * base_ % self.p
                base_ = base_ * base_ % self.p
                ee >>= 1
            if e > 0:
                out[xs == 0] = 0
            return out
        qm1 = self.order - 1
        nz = xs != 0
        out = self.exp[self.log[np.where(nz, xs, 1)] * (e % qm1) % qm1]
        out = np.where(nz, out, 0)
        if e == 0:
            out = np.ones_like(xs)
        return out

    # -- kernel adapters for dense polynomials over this field ---------------

    def kconv(self, a, b):
        if self.mode == "prime":
            return _kernels.conv_p(a, b, self.p)
        return _kernels.conv_t(a, b, self.exp, self.log, self.p, self.deg)

    def kdivmod(self, a, b):
        inv_lead = self.inv(int(b[-1]))
        if self.mode == "prime":
            return _kernels.divmod_p(a, b, self.p, inv_lead)
        return _kernels.divmod_t(a, b, self.exp, self.log, self.p, self.deg, inv_lead)

    def kgcd(self, a, b):
        """Monic gcd of two coefficient arrays, not both zero, by Euclid on arrays."""
        if self.mode == "prime":
            return _kernels.gcd_p(a, b, self.p)
        return _kernels.gcd_t(a, b, self.exp, self.log, self.p, self.deg)

    def kreducer(self, b):
        """The function a -> a mod b for a fixed b of degree >= 1 and a dividend of any length.

        A prime-mode b of degree >= 2 keeps a Newton inverse of the reversed b
        (_kernels.RemP) and takes the product of quotient and b by conv_p. At
        degree 1, where that inverse is empty, and in table mode, it is long
        division. A dividend shorter than b is returned as it is.
        """
        if self.mode == "prime" and len(b) > 2:
            return _kernels.RemP(b, self.p, self.inv(int(b[-1])))
        return lambda a: a if len(a) < len(b) else self.kdivmod(a, b)[1]

    def keval(self, coeffs, xs):
        if self.mode == "prime":
            return _kernels.eval_p(coeffs, xs, self.p)
        return _kernels.eval_t(coeffs, xs, self.exp, self.log, self.p, self.deg)

    # -- encodings ------------------------------------------------------------

    def check_encodings(self, xs):
        """xs as an int64 array; PreconditionError unless every value is an integer in
        [0, order).

        A float is refused, not truncated, and an integer beyond int64 is refused
        before any conversion could overflow. An empty xs is taken whatever its dtype.
        """
        arr = np.asarray(xs)
        kind = arr.dtype.kind
        if kind == "O":
            vals = arr.ravel().tolist()
            for v in vals:
                if not isinstance(v, (int, np.integer)):
                    raise PreconditionError("%r is not an integer encoding of %r" % (v, self))
            bad = [v for v in vals if not 0 <= v < self.order]
        elif kind in "iu" or not arr.size:
            bad = arr[(arr < 0) | (arr >= self.order)]
        else:
            raise PreconditionError("encodings of %r must be integers, not %s" % (self, arr.dtype))
        if len(bad):
            raise PreconditionError("%d is not an element encoding of %r" % (bad[0], self))
        return arr.astype(np.int64, copy=False)

    def decompose(self, a):
        """Base-p digit vector (length deg) of an encoding."""
        out = []
        for _ in range(self.deg):
            out.append(a % self.p)
            a //= self.p
        return out

    def compose(self, digits):
        """Encoding of a base-p digit vector."""
        enc = 0
        for d in reversed(list(digits)):
            enc = enc * self.p + d % self.p
        return enc

    def elements(self):
        return np.arange(self.order, dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, GF) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.mode == "prime":
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.deg)
