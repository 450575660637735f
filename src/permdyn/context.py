"""Field tower contexts F_p <= F_q <= F_{q^k}.

A FieldCtx bundles the three fields of the tower together with the moduli
that define them. Elements of every level are integer encodings; an element
of a subfield keeps the same encoding in the extension, so subfield
membership is an order comparison.
"""

from functools import lru_cache

import numpy as np

from . import _kernels, numth
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


class PermPoly:
    """A certified element of G_k: reduced poly over F_q, its context key, `perm` and `exps`.

    restrict_poly, and with it every context-taking entry, trusts a PermPoly
    of its context. One is made only by certify_perm, gk_compose, gk_inverse,
    realize_permutation or moebius_poly_rep, from a Poly of its own whose coefficients
    it makes read-only. `perm` is P's read-only star permutation on the orbit table,
    which dynamics._ik_perm fills once; None before.
    """

    __slots__ = ("poly", "ctx_key", "perm", "_exps")

    def __init__(self, poly, ctx_key):
        poly.coeffs.flags.writeable = False
        self.poly = poly
        self.ctx_key = ctx_key
        self.perm = None
        self._exps = None

    @property
    def exps(self):
        """The ascending exponents of P's nonzero terms, read-only, found on the first read
        and kept: an edge certificate reduces P modulo its image from them
        (Modulus.rem), with no scan of P's coefficients, of which there may be Q."""
        if self._exps is None:
            exps = np.flatnonzero(self.poly.coeffs)
            exps = exps.astype(_kernels.int_dtype(len(self.poly.coeffs)), copy=False)
            exps.flags.writeable = False
            self._exps = exps
        return self._exps

    def __eq__(self, other):
        return (isinstance(other, PermPoly) and self.ctx_key == other.ctx_key
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.ctx_key, self.poly))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return "PermPoly(%s)" % self.poly


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
    Fq = base_field(p, m, guard)
    if isinstance(ext_modulus, Poly):
        ext_modulus = ext_modulus.coeffs
    if ext_modulus is not None:
        ext_modulus = Fq.check_encodings(ext_modulus)
    cache_key = (p, m, k, None if ext_modulus is None else tuple(ext_modulus.tolist()))
    if cache_key in _CTX_CACHE:
        return _CTX_CACHE[cache_key]

    Fp = Fq.base or Fq
    base_modulus = None if m == 1 else Poly(Fp, Fq.modulus)
    if ext_modulus is None:
        ext_modulus = first_irreducible(Fq, k)
    else:
        ext_modulus = Poly(Fq, ext_modulus)
        if ext_modulus.degree != k or ext_modulus.leading() != 1:
            raise PreconditionError("extension modulus must be monic of degree k")
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


def element(ctx, a):
    """a as an int: PreconditionError unless it is one integer encoding of F_{q^k}.

    a is read through ctx.Fqk.check_encodings, so a float, a bool, a string or a
    value outside [0, Q) is refused; so is any array or list, whatever it holds.
    """
    arr = ctx.Fqk.check_encodings(a)
    if arr.ndim:
        raise PreconditionError("%r is not a single element encoding of F_{q^k}" % (a,))
    return int(arr)


def frobenius(ctx, a, j=1):
    """a^(q^j) in F_{q^k}."""
    return ctx.Fqk.pow(element(ctx, a), ctx.q ** (j % ctx.k if ctx.k > 1 else 0))


def element_degree(ctx, a):
    """The least s dividing k with a^(q^s) = a."""
    a = element(ctx, a)
    for s in numth.divisors(ctx.k):
        if frobenius(ctx, a, s) == a:
            return s
    raise InternalCheckError("element fixed by no divisor-power of Frobenius")


def conjugates(ctx, a):
    """[a, a^q, ..., a^(q^(d-1))] with d the degree of a."""
    a = element(ctx, a)
    out = [a]
    cur = frobenius(ctx, a)
    while cur != a:
        out.append(cur)
        cur = frobenius(ctx, cur)
    return out


def minimal_poly(ctx, a):
    """Minimal polynomial of a over F_q, as a Poly over F_q."""
    a = element(ctx, a)
    conj = np.array(conjugates(ctx, a), dtype=np.int64)
    if a == 0 or ctx.Fqk.mode == "prime":  # x - a, with no log to read
        return Poly(ctx.Fq, [ctx.Fq.neg(a), 1])
    return Poly(ctx.Fq, _minimal_polys(ctx, ctx.Fqk.log[conj][None, :])[::-1, 0])


class FrobeniusOrbits:
    """I_k as the Frobenius orbits a -> a^q of C_k, the degree-k elements of F_{q^k}.

    On logs to the generator g of F_{q^k}^*, the orbits are the q-cyclotomic
    cosets mod Q - 1 of size k; _build_orbits reads the table off them. Row i
    of coeffs holds the ascending coefficients of the i-th monic irreducible
    of degree k by encoding (codes[i]), roots[i] its least root, and node[b]
    the index of the minimal polynomial of the element b, or -1 when b has
    degree below k; the other roots are the Frobenius powers of roots[i]. The
    arrays are read-only, and a star permutation is kept on its P (PermPoly.perm).

    Each array has the width its values need. node, Q entries of row indices, is
    int32 while Q <= 2^31 (_kernels.int_dtype), as is every star permutation.
    coeffs holds F_q encodings in the least unsigned dtype that holds q - 1
    (uint8 for q <= 256); poly() reads a row as int64, format_coeffs as it is. codes
    stays int64, since a code reaches q^(k+1) and index() searches it, and roots
    too, since they are the points at which a P is evaluated.
    """

    __slots__ = ("field", "codes", "coeffs", "roots", "node")

    def __init__(self, field, codes, coeffs, roots, node):
        self.field, self.codes, self.coeffs, self.roots, self.node = (
            field, codes, coeffs, roots, node)
        for arr in (codes, coeffs, roots, node):
            arr.flags.writeable = False

    def poly(self, i):
        """The i-th element of I_k as a Poly over F_q."""
        return Poly(self.field, self.coeffs[i])

    @property
    def polys(self):
        """I_k as Polys over F_q, ascending by encoding."""
        return [self.poly(i) for i in range(len(self.coeffs))]

    def index(self, f):
        """Position of f, a Poly over F_q (read through restrict_poly), in polys."""
        if f.degree == self.coeffs.shape[1] - 1 and f.leading() == 1:
            code = f.encoding()
            i = int(np.searchsorted(self.codes, code))
            if i < len(self.codes) and self.codes[i] == code:
                return i
        raise PreconditionError("%s is not a monic irreducible of degree k" % f)


def frobenius_orbits(ctx):
    """The Frobenius-orbit table of the context, built on first use and cached."""
    if ctx.orbits is None:
        ctx.orbits = _build_orbits(ctx)
    return ctx.orbits


# logs per block of the orbit-table build: each array of a block has about this many entries
_LOG_BLOCK = 1 << 16


def _build_orbits(ctx):
    """The Frobenius-orbit table, from the q-cyclotomic cosets of the discrete log.

    On F_{q^k}^* = <g>, a -> a^q multiplies the log of a by q modulo N = Q - 1,
    so the orbits of C_k are the cosets {j q^i mod N} of size k (Lidl and
    Niederreiter, Finite Fields). A first sweep over the logs, one block at a
    time, keeps the least log j of each such coset, and the encodings of the
    minimal polynomials of the g^j are taken a block of leaders at a time. The
    codes sort the orbits, the coefficients are their digits, and a second sweep,
    over the sorted leaders, reads each block's conjugates through exp: their row
    minima are the least roots, and node is scattered from them. At k = 1 each
    element of F_q is an orbit of its own.
    """
    q, k = ctx.q, ctx.k
    n = count_irreducibles(q, k)
    if k == 1:
        codes = ctx.Fq.vneg(ctx.Fq.elements()) + q  # x - a
        order = np.argsort(codes)
        blocks = [(0, ctx.Fq.elements()[order][:, None])]
    else:
        leaders, codes = _leaders_and_codes(ctx, n)
        order = np.argsort(codes)
        leaders = leaders[order]
        rows = _LOG_BLOCK // k
        blocks = ((lo, ctx.Fqk.exp[_coset_logs(ctx, leaders[lo:lo + rows])])
                  for lo in range(0, n, rows))
    codes = codes[order]
    # the digits of the codes, one column at a time, so no int64 array of n rows is formed
    coeffs = np.empty((n, k + 1), dtype=np.min_scalar_type(q - 1))
    rest = codes.copy()
    for j in range(k + 1):
        coeffs[:, j] = rest % q
        rest //= q
    # node is allocated after the first sweep, so it adds nothing to that sweep's peak
    roots = np.empty(n, dtype=np.int64)
    node = np.full(ctx.Q, -1, dtype=_kernels.int_dtype(ctx.Q))
    for lo, conj in blocks:
        roots[lo:lo + len(conj)] = conj.min(axis=1)
        node[conj] = np.arange(lo, lo + len(conj), dtype=node.dtype)[:, None]
    return FrobeniusOrbits(ctx.Fq, codes, coeffs, roots, node)


def _leaders_and_codes(ctx, n):
    """The least log j of each q-cyclotomic coset of size k mod Q - 1, ascending, and the
    encoding of the minimal polynomial of g^j; k >= 2 and there must be n = |I_k| of them."""
    q, k, N = ctx.q, ctx.k, ctx.Q - 1
    weights = q ** np.arange(k, -1, -1, dtype=np.int64)
    leaders = []
    for lo in range(0, N, _LOG_BLOCK):
        j = np.arange(lo, min(lo + _LOG_BLOCK, N), dtype=np.int64)
        # j leads a coset of size k iff j q^i mod N > j for 0 < i < k
        for i in range(1, k):
            j = j[j * q ** i % N > j]
        leaders.append(j)
    leaders = np.concatenate(leaders)
    if len(leaders) != n:
        raise InternalCheckError("%d Frobenius orbits of degree k, not |I_k|" % len(leaders))
    # most leaders lie in the first block of logs, so the minimal polynomials are
    # taken over blocks of leaders, each with about _LOG_BLOCK conjugates
    rows = _LOG_BLOCK // k
    codes = [weights @ _minimal_polys(ctx, _coset_logs(ctx, leaders[lo:lo + rows]))
             for lo in range(0, n, rows)]
    return leaders, np.concatenate(codes)


def _coset_logs(ctx, j):
    """Rows [j, j q, ..., j q^(k-1)] mod Q - 1, the logs of the conjugates of g^j."""
    logs = j[:, None] * ctx.q ** np.arange(ctx.k, dtype=np.int64)
    logs %= ctx.Q - 1
    return logs


def _minimal_polys(ctx, logs):
    """Coefficients of prod_j (x - g^logs[i, j]), one column per row of logs, from the top.

    Row 0 holds the leading 1. The product by x - r adds -r times each row to the
    row below it, read as exp[log c + log(-r)] with log(-r) = log r + (Q - 1)/2
    for odd p: only a zero coefficient c needs masking. Each row of logs is a
    Frobenius orbit, so every coefficient must lie in F_q.
    """
    F = ctx.Fqk
    N = ctx.Q - 1
    neg = logs.T.copy() if ctx.p == 2 else (logs.T + N // 2) % N
    k, n = neg.shape
    top = np.zeros((k + 1, n), dtype=np.int64)
    top[0] = 1
    for j in range(k):
        c = top[1:j + 1]
        low = F.log[c]
        low += neg[j]
        low = F.exp[low]
        low[c == 0] = 0
        top[2:j + 2] = F.vadd(top[2:j + 2], low)
        top[1] = F.vadd(top[1], F.exp[neg[j]])
    if np.any(top >= ctx.q):
        raise InternalCheckError("minimal polynomial has a coefficient outside F_q")
    return top


def enumerate_Ck(ctx):
    """All elements of F_{q^k} of degree exactly k, ascending encodings."""
    return np.flatnonzero(frobenius_orbits(ctx).node >= 0)


def roots_in_ext(ctx, f):
    """Ascending encodings of the roots of f in F_{q^k}, by evaluating f at every element.

    f is read through restrict_poly; its coefficients embed into F_{q^k} unchanged. The
    package reads roots off the orbit table; this scan is the reference for it.
    """
    f = restrict_poly(ctx, f)
    if f.is_zero:
        raise PreconditionError("zero polynomial has every element as a root")
    vals = ctx.Fqk.keval(f.coeffs, ctx.Fqk.elements())
    return np.nonzero(vals == 0)[0].astype(np.int64)


def embed_poly(ctx, f):
    """f as a Poly over F_{q^k} (same encodings): a Poly over F_{q^k} once its coefficients
    are checked to be encodings of it, anything else read through restrict_poly."""
    if isinstance(f, Poly) and f.field.key == ctx.Fqk.key:
        ctx.Fqk.check_encodings(f.coeffs)
        return f
    return Poly(ctx.Fqk, restrict_poly(ctx, f).coeffs)


def restrict_poly(ctx, f):
    """f as a Poly over F_q: the one gate through which a context-taking entry reads a polynomial.

    f is a PermPoly of this context, taken as it is (one key comparison), or a
    Poly over this context's F_q or F_{q^k} whose every coefficient is an F_q
    encoding (one O(degree) range check). Anything else raises PreconditionError.
    """
    if isinstance(f, PermPoly):
        if f.ctx_key != ctx.key:
            raise PreconditionError("permutation polynomial belongs to a different context")
        return f.poly
    if not isinstance(f, Poly) or f.field.key not in (ctx.Fq.key, ctx.Fqk.key):
        raise PreconditionError("polynomial does not lie over F_q of the context: its field "
                                "is neither F_q nor F_{q^k}")
    ctx.Fq.check_encodings(f.coeffs)
    return f if f.field.key == ctx.Fq.key else Poly(ctx.Fq, f.coeffs)
