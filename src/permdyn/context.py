"""Field tower contexts F_p <= F_q <= F_{q^k}.

A FieldCtx bundles the three fields of the tower together with the moduli
that define them. Elements of every level are integer encodings; an element
of a subfield keeps the same encoding in the extension, so subfield
membership is an order comparison.
"""

from functools import lru_cache

import numpy as np

from . import numth
from .errors import GuardExceeded, InternalCheckError, PreconditionError
from .fields import GF
from .polys import Poly, count_irreducibles, first_irreducible, is_irreducible

DEFAULT_GUARD = 1 << 20


class FieldCtx:
    """Immutable tower F_p -> F_q = F_p[z]/(base_modulus) -> F_{q^k} = F_q[y]/(ext_modulus).

    `orbits` caches the Frobenius-orbit table (see frobenius_orbits).
    """

    __slots__ = ("p", "m", "k", "q", "Q", "Fp", "Fq", "Fqk",
                 "base_modulus", "ext_modulus", "key", "orbits")

    def __repr__(self):
        return "FieldCtx(p=%d, m=%d, k=%d)" % (self.p, self.m, self.k)


_CTX_CACHE = {}


def base_field(p, m, guard=DEFAULT_GUARD):
    """The canonical F_q, q = p^m: F_p, or F_p[z] modulo the lex-smallest monic irreducible
    of degree m (built once per (p, m)). A proper extension with q above the guard raises
    GuardExceeded before its tables are built."""
    if m > 1 and p ** m > guard:
        raise GuardExceeded("q = %d exceeds the exhaustive-operation guard %d" % (p ** m, guard))
    return _base_field(p, m)


@lru_cache(maxsize=None)
def _base_field(p, m):
    Fp = GF.prime(p)
    return Fp if m == 1 else GF.extension(Fp, first_irreducible(Fp, m).coeffs)


def check_tower(p, m, k, guard=None):
    """Raise unless m, k >= 1, then q^k is within the guard (when one applies), then p is
    prime; this order fixes the exit code of an input that fails several checks."""
    if m < 1 or k < 1:
        raise PreconditionError("m and k must be positive")
    if guard is not None and (p ** m) ** k > guard:
        raise GuardExceeded("q^k = %d exceeds the exhaustive-operation guard %d"
                            % ((p ** m) ** k, guard))
    if not numth.is_prime(p):
        raise PreconditionError("%d is not prime" % p)


def make_field_ctx(p, m, k, ext_modulus=None, guard=DEFAULT_GUARD):
    """Build the tower context for q = p^m and the degree-k extension.

    When ext_modulus is absent the lexicographically smallest monic
    irreducible of degree k over F_q is used (coefficients compared from the
    constant term upward by integer encoding), so construction is
    deterministic. A supplied modulus must be monic, degree k, irreducible.
    """
    check_tower(p, m, k, guard)
    q = p ** m
    Q = q ** k
    cache_key = (p, m, k,
                 None if ext_modulus is None
                 else tuple(int(c) for c in (ext_modulus.coeffs if isinstance(ext_modulus, Poly)
                                             else np.asarray(ext_modulus, dtype=np.int64))))
    if cache_key in _CTX_CACHE:
        return _CTX_CACHE[cache_key]

    Fq = base_field(p, m, guard)
    Fp = Fq.base or Fq
    base_modulus = None if m == 1 else Poly(Fp, Fq.modulus)
    if ext_modulus is None:
        ext_modulus = first_irreducible(Fq, k)
    else:
        ext_modulus = Poly(Fq, ext_modulus.coeffs if isinstance(ext_modulus, Poly)
                           else ext_modulus)
        if ext_modulus.degree != k or ext_modulus.leading() != 1:
            raise PreconditionError("extension modulus must be monic of degree k")
        Fq.check_encodings(ext_modulus.coeffs)
        if not is_irreducible(ext_modulus):
            raise PreconditionError("extension modulus is reducible over F_q")
    key = (p, m, k, tuple(int(c) for c in ext_modulus.coeffs))
    # the default modulus may already have been passed explicitly, or the
    # reverse: both spellings name one context
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx()
        ctx.p, ctx.m, ctx.k, ctx.q, ctx.Q = p, m, k, q, Q
        ctx.Fp, ctx.Fq, ctx.base_modulus = Fp, Fq, base_modulus
        ctx.ext_modulus = ext_modulus
        ctx.Fqk = Fq if k == 1 else GF.extension(Fq, ext_modulus.coeffs)
        ctx.key = key
        ctx.orbits = None
    _CTX_CACHE[cache_key] = _CTX_CACHE[key] = ctx
    return ctx


def frobenius(ctx, a, j=1):
    """a^(q^j) in F_{q^k}."""
    if not 0 <= a < ctx.Q:
        raise PreconditionError("%d is not an element encoding of F_{q^k}" % a)
    return ctx.Fqk.pow(a, ctx.q ** (j % ctx.k if ctx.k > 1 else 0))


def element_degree(ctx, a):
    """The least s dividing k with a^(q^s) = a."""
    for s in numth.divisors(ctx.k):
        if frobenius(ctx, a, s) == a:
            return s
    raise InternalCheckError("element fixed by no divisor-power of Frobenius")


def conjugates(ctx, a):
    """[a, a^q, ..., a^(q^(d-1))] with d the degree of a."""
    out = [a]
    cur = frobenius(ctx, a)
    while cur != a:
        out.append(cur)
        cur = frobenius(ctx, cur)
    return out


def minimal_poly(ctx, a):
    """Minimal polynomial of a over F_q, as a Poly over F_q."""
    return Poly(ctx.Fq, _minimal_polys(ctx, np.array([conjugates(ctx, a)], dtype=np.int64))[0])


def _minimal_polys(ctx, conj):
    """Ascending coefficients of prod_j (x - conj[i, j]), one row per orbit i.

    Each row is the minimal polynomial of a Frobenius orbit, so every
    coefficient must lie in F_q.
    """
    F = ctx.Fqk
    n, k = conj.shape
    coef = np.zeros((n, k + 1), dtype=np.int64)
    coef[:, 0] = 1
    for j in range(k):
        low = F.vmul(F.vneg(conj[:, j:j + 1]), coef[:, :j + 1])
        coef[:, 1:j + 2] = coef[:, :j + 1]
        coef[:, 0] = 0
        coef[:, :j + 1] = F.vadd(coef[:, :j + 1], low)
    if np.any(coef >= ctx.q):
        raise InternalCheckError("minimal polynomial has a coefficient outside F_q")
    return coef


class FrobeniusOrbits:
    """I_k as the Frobenius orbits a -> a^q of C_k, the degree-k elements of F_{q^k}.

    Row i of coeffs holds the ascending coefficients of the i-th monic
    irreducible of degree k by encoding (codes[i]), conj[i] its roots
    [a, a^q, ..., a^(q^(k-1))] from the least root a, and node[b] the index of
    the minimal polynomial of the element b, or -1 when b has degree below k.
    """

    __slots__ = ("field", "coeffs", "codes", "conj", "node")

    def poly(self, i):
        """The i-th element of I_k as a Poly over F_q."""
        return Poly(self.field, self.coeffs[i])

    @property
    def polys(self):
        """I_k as Polys over F_q, ascending by encoding."""
        return [self.poly(i) for i in range(len(self.coeffs))]

    def index(self, f):
        """Position of f in polys."""
        if f.field.key == self.field.key and f.degree == self.conj.shape[1] and f.leading() == 1:
            i = int(np.searchsorted(self.codes, f.encoding()))
            if i < len(self.codes) and self.codes[i] == f.encoding():
                return i
        raise PreconditionError("%s is not a monic irreducible of degree k" % f)


def frobenius_orbits(ctx):
    """The Frobenius-orbit table of the context, built on first use and cached."""
    if ctx.orbits is None:
        ctx.orbits = _build_orbits(ctx)
    return ctx.orbits


def _build_orbits(ctx):
    F, q, k = ctx.Fqk, ctx.q, ctx.k
    els = F.elements()
    frob = F.vpow(els, q)
    # an element has degree k iff no Frobenius power below the k-th fixes it
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
        raise InternalCheckError("%d Frobenius orbits of degree k, not |I_k|" % n)
    conj = np.empty((n, k), dtype=np.int64)
    conj[:, 0] = reps
    for j in range(1, k):
        conj[:, j] = frob[conj[:, j - 1]]
    coef = _minimal_polys(ctx, conj)
    codes = coef @ q ** np.arange(k + 1, dtype=np.int64)
    order = np.argsort(codes)
    out = FrobeniusOrbits()
    out.field = ctx.Fq
    out.coeffs = coef[order]
    out.codes = codes[order]
    out.conj = conj[order]
    out.node = np.full(ctx.Q, -1, dtype=np.int64)
    out.node[out.conj] = np.arange(n, dtype=np.int64)[:, None]
    return out


def enumerate_Ck(ctx):
    """All elements of F_{q^k} of degree exactly k, ascending encodings."""
    return np.flatnonzero(frobenius_orbits(ctx).node >= 0)


def roots_in_ext(ctx, f):
    """Ascending encodings of the roots of f in F_{q^k}, by evaluating f at every element.

    f is a Poly over F_q; its coefficients embed into F_{q^k} unchanged. The
    package reads roots off the orbit table; this scan is the reference for it.
    """
    if f.is_zero:
        raise PreconditionError("zero polynomial has every element as a root")
    vals = ctx.Fqk.keval(f.coeffs, ctx.Fqk.elements())
    return np.nonzero(vals == 0)[0].astype(np.int64)


def distinguished_root(ctx, f):
    """The smallest-encoding root of a monic irreducible f of degree k, read off the orbit table."""
    orbits = frobenius_orbits(ctx)
    return int(orbits.conj[orbits.index(f), 0])


def embed_poly(ctx, f):
    """Reinterpret a Poly over F_q as a Poly over F_{q^k} (same encodings)."""
    if f.field.key == ctx.Fqk.key:
        return f
    return Poly(ctx.Fqk, f.coeffs)


def restrict_poly(ctx, f):
    """Reinterpret a Poly over F_{q^k} with subfield coefficients as over F_q."""
    if f.field.key == ctx.Fq.key:
        return f
    if f.field.key != ctx.Fqk.key:
        raise PreconditionError("polynomial lies over neither F_q nor F_{q^k} of the context")
    if not f.is_zero and np.any(f.coeffs >= ctx.q):
        raise PreconditionError("polynomial has a coefficient outside F_q")
    return Poly(ctx.Fq, f.coeffs)
