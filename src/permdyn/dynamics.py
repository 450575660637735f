"""Star and diamond compositions, fixed points, and cycle structure on C_k and I_k."""

import json
import math
from itertools import islice

import numpy as np

from .context import element_degree, embed_poly, enumerate_Ck, frobenius_orbits
from .errors import InternalCheckError, PreconditionError
from .numth import (check_coprime_exponent, divisors, euler_phi, is_prime, moebius_sum,
                    mult_order_int, prime_norm_index)
from .orders import fq_order, mult_order, norm_of, phi_q, poly_order, trace_of
from .permgroup import Matrix2, PermPoly, _coerce_poly, _distinct, certify_perm, pgl2_order
from .polys import (
    Modulus,
    Poly,
    compose,
    count_irreducibles,
    factor,
    frobenius_gcd,
    irreducible_Ek,
    is_irreducible,
    linearized_modulus,
    poly_gcd,
    psi_d,
)

__all__ = [
    "FunctionalGraph",
    "CycleSpectrum",
    "star",
    "diamond",
    "fixed_points_direct",
    "fixed_count_formula",
    "fixed_count_monomial",
    "fixed_count_linearized",
    "fixed_count_prime_monomial",
    "fixed_count_prime_linearized",
    "graph_Ck",
    "graph_Ik",
    "period_Ck",
    "period_Ik",
    "spectrum_Ck",
    "spectrum_Ik",
    "monomial_cycle_structure",
    "linearized_cycle_structure",
    "moebius_cycle_structure",
    "moebius_star",
    "invariant_report",
]


class FunctionalGraph:
    """Cycle decomposition of a permutation acting on a finite node set."""

    __slots__ = ("nodes", "cycles", "summary")

    def __init__(self, nodes, cycles):
        self.nodes = list(nodes)
        self.cycles = [list(c) for c in cycles]
        counts = {}
        for c in self.cycles:
            counts[len(c)] = counts.get(len(c), 0) + 1
        self.summary = list(counts.items())
        if sum(n * cnt for n, cnt in self.summary) != len(self.nodes):
            raise InternalCheckError("cycles do not partition the node set")

    def to_dot(self):
        """DOT text with one subgraph per cycle and an edge from each node to its image."""
        lines = ["digraph G {"]
        for idx, cyc in enumerate(self.cycles):
            lines.append("  subgraph cluster_%d {" % idx)
            for j, a in enumerate(cyc):
                lines.append('    "%s" -> "%s";' % (a, cyc[(j + 1) % len(cyc)]))
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self):
        """JSON text with the node list, the cycle lists, and the (length, count) summary."""
        return json.dumps({"nodes": self.nodes, "cycles": self.cycles, "summary": self.summary})


class CycleSpectrum:
    """Multiset of cycle lengths with the distinct-length set and its minimum."""

    __slots__ = ("lengths", "S", "mu")

    def __init__(self, lengths):
        if not lengths:
            raise PreconditionError("spectrum of an empty graph is undefined")
        self.lengths = sorted(int(n) for n in lengths)
        self.S = sorted(set(self.lengths))
        self.mu = self.S[0]


def _check_member(ctx, f, P=None):
    """Raise PreconditionError unless f lies in I_k; the message names P when given."""
    if f.field.key != ctx.Fq.key:
        problem = "polynomial does not lie over F_q of the context"
    elif f.degree != ctx.k or f.leading() != 1 or not is_irreducible(f):
        problem = "expected a monic irreducible of degree k"
    else:
        return
    raise PreconditionError(problem + ("" if P is None else _where(ctx, P, f)))


def _member(ctx, P, f=None):
    """P as an element of G_k: a PermPoly of the context as it is, any other P certified.

    A refusal names the tower, P and, when given, f.
    """
    if isinstance(P, PermPoly):
        _coerce_poly(ctx, P)  # refuses a PermPoly of another context
        return P
    try:
        return certify_perm(ctx, P)
    except PreconditionError as exc:
        raise PreconditionError(str(exc) + _where(ctx, P, f)) from None


def _where(ctx, P, f=None):
    """The suffix of an error message that names the tower, P and, when given, f.

    A Moebius map given by its matrix is named as A = M[a,b,c,d].
    """
    if isinstance(P, Matrix2):
        named = "A = M[%d,%d,%d,%d]" % (P.a, P.b, P.c, P.d)
    else:
        named = "P = " + _brief(_coerce_poly(ctx, P))
    return "; at (p, m, k) = (%d, %d, %d), %s%s" % (
        ctx.p, ctx.m, ctx.k, named, "" if f is None else ", f = " + _brief(f))


def _brief(poly):
    """The text of a polynomial with a few terms, else its degree and number of terms."""
    terms = np.count_nonzero(poly.coeffs)
    if terms <= 8:
        return str(poly)
    return "<degree %d, %d terms>" % (poly.degree, terms)


def star(ctx, P, f):
    """P*f = gcd(f(P(x)), x^(q^k) - x), the unique degree-k irreducible factor of f(P).

    x^(q^k) mod f(P) is k steps of the Frobenius walk (polys.frobenius_gcd).
    """
    _check_member(ctx, f, P)
    P = _member(ctx, P, f).poly
    out = frobenius_gcd(compose(f, P), ctx.k)
    if out.degree != ctx.k or not is_irreducible(out):
        raise InternalCheckError("star image is not an irreducible of degree k"
                                 + _where(ctx, P, f))
    return out


def diamond(ctx, P, f):
    """Minimal polynomial of P(alpha) for a root alpha of f, read off the orbit table."""
    P = _member(ctx, P, f).poly
    orbits = frobenius_orbits(ctx)
    node = orbits.node[embed_poly(ctx, P)(int(orbits.conj[orbits.index(f), 0]))]
    if node < 0:
        raise InternalCheckError("diamond image does not have degree k" + _where(ctx, P, f))
    return orbits.poly(node)


def fixed_points_direct(ctx, P):
    """All f in I_k with P*f = f: the Frobenius orbits that P maps onto themselves."""
    orbits, perm = _ik_perm(ctx, P)
    return [orbits.poly(i) for i in np.flatnonzero(perm == np.arange(len(perm)))]


def fixed_count_formula(ctx, P):
    """Number of star-fixed elements of I_k, by the Moebius divisor sum.

    Both the divisor sum and deg gcd(prod_i (x^(q^i) - P), Psi_k) / k are
    evaluated; disagreement is a hard error.
    """
    P = _member(ctx, P).poly
    q, k = ctx.q, ctx.k
    x = Poly.x(ctx.Fq)
    one = Poly.one(ctx.Fq)

    def roots(d, i):
        # number of roots of x^(q^i) - P in F_{q^d}: deg gcd(x^(q^d) - x, A)
        A = one.shift(q ** i) - P
        if A.is_zero:
            return q ** d
        if A.degree == 0:
            return 0
        return frobenius_gcd(A, d).degree

    total = moebius_sum(k, roots)

    psi = psi_d(ctx.Fq, k)
    ring = Modulus(psi)
    Pm = P % psi
    R = one
    for t in islice(ring.frobenius(x % psi), k):
        R = ring.mul(R, t - Pm)
    if poly_gcd(R, psi).degree != total * k:
        raise InternalCheckError("fixed-point count evaluations disagree" + _where(ctx, P))
    return total


def fixed_count_monomial(ctx, n):
    """Fixed-point count of x^n on I_k, by the closed arithmetic form."""
    q, k = ctx.q, ctx.k
    check_coprime_exponent(q, k, n)
    # when k = 1, f = x is fixed too: its root 0 lies outside the multiplicative group
    return int(k == 1) + moebius_sum(k, lambda d, i: math.gcd(q ** i - n, q ** d - 1))


def fixed_count_linearized(ctx, h):
    """Fixed-point count of the q-associate map of h on I_k, by the closed form."""
    q, k = ctx.q, ctx.k
    if h.field.key != ctx.Fq.key:
        raise PreconditionError("h must lie over F_q of the context")
    h = h % linearized_modulus(h, k, q)
    one = Poly.one(ctx.Fq)
    return moebius_sum(k, lambda d, i: q ** poly_gcd(one.shift(i) - h, one.shift(d) - one).degree)


def fixed_count_prime_monomial(q, k, n):
    """Fixed-point count of x^n on I_k in the case (q^k - 1)/(q - 1) prime."""
    r = prime_norm_index(q, k)
    check_coprime_exponent(q, k, n)
    if n % r not in {pow(q, i, r) for i in range(k)}:
        return 0
    quo, rem = divmod(r - 1, k)
    if rem:
        raise InternalCheckError("k does not divide r - 1")
    return quo * math.gcd(n - 1, q - 1)


def fixed_count_prime_linearized(q, k, f):
    """Fixed-point count of the q-associate map of f on I_k in the prime-k case."""
    field = f.field
    f = f % linearized_modulus(f, k, q)
    if not is_prime(k):
        raise PreconditionError("k must be prime")
    T = irreducible_Ek(field, k)
    one = Poly.one(field)
    is_power = np.count_nonzero(f.coeffs) == 1 and f.leading() == 1
    if q % 2 == 0 and k == 2:
        return count_irreducibles(q, k) if is_power else 0
    if is_power:
        return count_irreducibles(q, k)
    for i in range(k):
        g = f - one.shift(i)
        if g.degree == T.degree and g.monic() == T:
            quo, rem = divmod(q ** (k - 1) - 1, k)
            if rem:
                raise InternalCheckError("k does not divide q^(k-1) - 1")
            return quo
    return 0


def _cycles(perm):
    """Cycles of a permutation of range(n) given as its image array, each from its least index."""
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


def _ck_perm(ctx, P):
    """C_k in ascending encodings and the evaluation map of P as an index array on it."""
    P = _member(ctx, P).poly
    els = enumerate_Ck(ctx)
    imgs = embed_poly(ctx, P).eval_many(els)
    if not _distinct(imgs, ctx.Q) or np.any(frobenius_orbits(ctx).node[imgs] < 0):
        raise InternalCheckError("P does not permute C_k" + _where(ctx, P))
    return els, np.searchsorted(els, imgs)


def _ik_perm(ctx, P):
    """The orbit table and the star action of P as an index array on its polys.

    P commutes with Frobenius, so P*f is the orbit of P^(-1)(a) for a root a of f:
    the star map inverts i -> node[P(conj[i, 0])]. One edge, from the first
    f to its image g, is checked modulo g (_check_edge), without forming f(P).
    """
    P = _member(ctx, P).poly
    orbits = frobenius_orbits(ctx)
    n = len(orbits.coeffs)
    image = orbits.node[embed_poly(ctx, P).eval_many(orbits.conj[:, 0])]
    if np.any(image < 0) or not _distinct(image, n):
        raise InternalCheckError("P does not act bijectively on I_k" + _where(ctx, P))
    perm = np.empty(n, dtype=np.int64)
    perm[image] = np.arange(n)
    _check_edge(ctx, P, orbits.poly(0), orbits.poly(perm[0]))
    return orbits, perm


def _check_edge(ctx, P, f, g):
    """Raise InternalCheckError unless g = P*f, for a P that acts bijectively on C_k.

    The checks are that f and g are monic irreducibles of degree k (Rabin's
    test) and that f(P mod g) = 0 mod g, a Horner pass of k products modulo g
    after P is reduced modulo g (Modulus.rem). They pin g: P has coefficients
    in F_q, so it maps F_{q^d} into itself for every d | k, and a root b of
    f(P) in F_{q^k} has P(b) of degree k, so b lies in C_k. P is a bijection
    of C_k, so the roots of f(P) in F_{q^k} are exactly the preimage of the
    roots of f, one Frobenius orbit, and f(P) has exactly one irreducible
    factor of degree k, P*f. An irreducible g of degree k that divides f(P)
    is that factor. The cost is O(k)-degree products: about
    deg(P).bit_length() per term of a sparse P, or one block reduction per
    k - 1 coefficients of a dense one.
    """
    for h in (f, g):
        if h.degree != ctx.k or h.leading() != 1 or not is_irreducible(h):
            raise InternalCheckError("orbit table holds %s, not a monic irreducible of "
                                     "degree k" % h + _where(ctx, P, f))
    ring = Modulus(g)
    Pg = ring.rem(P)
    acc = Poly.zero(g.field)
    for c in f.coeffs[::-1].tolist():
        acc = ring.mul(acc, Pg) + Poly.const(g.field, c)
    if not acc.is_zero:
        raise InternalCheckError("orbit table image %s does not divide f(P)" % g
                                 + _where(ctx, P, f))


def _star_walk(ctx, P, f, max_steps=None):
    """Table indices of f, P*f, P*(P*f), ... and the star period of f.

    The walk stops when f recurs, with the period, or after max_steps steps,
    with None. A star cycle has at most |I_k| elements.
    """
    orbits, perm = _ik_perm(ctx, P)
    path = [orbits.index(f)]
    limit = len(perm) if max_steps is None else max_steps
    while len(path) <= limit:
        nxt = int(perm[path[-1]])
        if nxt == path[0]:
            return path, len(path)
        path.append(nxt)
    return path, None


def graph_Ck(ctx, P):
    """Functional graph of the evaluation map of P on C_k."""
    els, perm = _ck_perm(ctx, P)
    keys = els.tolist()
    return FunctionalGraph(keys, [[keys[i] for i in c] for c in _cycles(perm)])


def graph_Ik(ctx, P):
    """Functional graph of f -> P*f on I_k."""
    orbits, perm = _ik_perm(ctx, P)
    names = [str(f) for f in orbits.polys]
    return FunctionalGraph(names, [[names[i] for i in c] for c in _cycles(perm)])


def period_Ck(ctx, P, alpha):
    """Least n >= 1 whose n-th iterate of P fixes alpha."""
    P = _member(ctx, P).poly
    alpha = int(alpha)
    if element_degree(ctx, alpha) != ctx.k:
        raise PreconditionError("alpha does not have degree k over F_q")
    Pe = embed_poly(ctx, P)
    cur = Pe(alpha)
    n = 1
    while cur != alpha:
        cur = Pe(cur)
        n += 1
        if n > ctx.Q:
            raise InternalCheckError("orbit of alpha did not close" + _where(ctx, P)
                                     + ", alpha = %d" % alpha)
    return n


def period_Ik(ctx, P, f):
    """Least n >= 1 whose n-th star iterate of P fixes f."""
    return _star_walk(ctx, P, f)[1]


def spectrum_Ck(ctx, P):
    """Cycle-length spectrum of the evaluation map of P on C_k."""
    return CycleSpectrum([len(c) for c in _cycles(_ck_perm(ctx, P)[1])])


def spectrum_Ik(ctx, P):
    """Cycle-length spectrum of the star action of P on I_k."""
    return CycleSpectrum([len(c) for c in _cycles(_ik_perm(ctx, P)[1])])


def monomial_cycle_structure(q, k, n):
    """Cycle summary of x^n on C_k from orders of n modulo divisors of q^k - 1."""
    check_coprime_exponent(q, k, n)
    agg = {}
    for e in divisors(q ** k - 1):
        if mult_order_int(q, e) != k:
            continue
        o = mult_order_int(n, e)
        agg[o] = agg.get(o, 0) + euler_phi(e) // o
    return sorted(agg.items())


def linearized_cycle_structure(q, k, f):
    """Cycle summary of the q-associate map of f on C_k from divisors of x^k - 1."""
    x = Poly.x(f.field)
    agg = {}
    for g in _monic_divisors(linearized_modulus(f, k, q)):
        if (1 if g.degree == 0 else poly_order(x, g)) != k:
            continue
        o = 1 if g.degree == 0 else poly_order(f, g)
        phi = 1 if g.degree == 0 else phi_q(g)
        agg[o] = agg.get(o, 0) + phi // o
    return sorted(agg.items())


def _monic_divisors(f):
    divs = [Poly.one(f.field)]
    for p, mult in factor(f):
        powers = [Poly.one(f.field)]
        for _ in range(mult):
            powers.append(powers[-1] * p)
        divs = [d * pw for d in divs for pw in powers]
    return divs


def moebius_cycle_structure(q, k, A):
    """Cycle summary [(D, |C_k|/D)] of the Moebius map of A on C_k, for k >= 3."""
    if A.field.order != q:
        raise PreconditionError("matrix entries must lie over F_q")
    if k < 3:
        raise PreconditionError("the Moebius cycle structure needs k >= 3")
    D = pgl2_order(A)
    quo, rem = divmod(k * count_irreducibles(q, k), D)
    if rem:
        raise InternalCheckError("PGL_2 class order does not divide |C_k|")
    return [(D, quo)]


def moebius_star(ctx, A, f):
    """Star action of the Moebius map of A on f, by clearing denominators."""
    if A.field.key != ctx.Fq.key:
        raise PreconditionError("matrix entries must lie in F_q of the context")
    if ctx.k < 2:
        raise PreconditionError("the Moebius star action needs k >= 2")
    _check_member(ctx, f)
    k = ctx.k
    num = Poly(ctx.Fq, [A.b, A.a])
    den = Poly(ctx.Fq, [A.d, A.c])
    denpow = [Poly.one(ctx.Fq)]
    for _ in range(k):
        denpow.append(denpow[-1] * den)
    acc = Poly.zero(ctx.Fq)
    numpow = Poly.one(ctx.Fq)
    for i in range(k + 1):
        c = f.coeff(i)
        if c:
            acc = acc + (numpow * denpow[k - i]).scale(c)
        if i < k:
            numpow = numpow * num
    out = acc.monic()
    if out.degree != k or not is_irreducible(out):
        raise InternalCheckError("Moebius star image is not an irreducible of degree k"
                                 + _where(ctx, A, f))
    return out


def _monomial_exponent(P):
    nz = np.flatnonzero(P.coeffs)
    if len(nz) == 1 and nz[0] >= 1 and P.coeff(int(nz[0])) == 1:
        return int(nz[0])
    return None


def _linearized_associate(P):
    q = P.field.order
    if P.is_zero:
        return None
    out = {}
    for e in (int(t) for t in np.flatnonzero(P.coeffs)):
        i, r = 0, e
        while r > 1 and r % q == 0:
            r //= q
            i += 1
        if r != 1:
            return None
        out[i] = P.coeff(e)
    h = np.zeros(max(out) + 1, dtype=np.int64)
    for i, c in out.items():
        h[i] = c
    return Poly(P.field, h)


def invariant_report(ctx, P, f):
    """Check the order, norm, and trace relations that apply to P's family.

    Monomials x^n preserve multiplicative order and send the norm a to
    a^(n0) with n*n0 = 1 mod q^k - 1; q-associate maps of h preserve the
    additive order and send the trace a to h(1)^(-1) a.
    """
    P = _member(ctx, P, f)
    Pf = star(ctx, P, f)
    report = {
        "ord_preserved": None,
        "fq_order_preserved": None,
        "norm_relation": None,
        "trace_relation": None,
    }
    n = _monomial_exponent(P.poly)
    if n is not None:
        n0 = pow(n, -1, ctx.Q - 1)
        report["ord_preserved"] = mult_order(ctx, Pf) == mult_order(ctx, f)
        report["norm_relation"] = norm_of(ctx, Pf) == ctx.Fq.pow(norm_of(ctx, f), n0)
        return report
    h = _linearized_associate(P.poly)
    if h is not None:
        c = ctx.Fq.inv(h(1))
        report["fq_order_preserved"] = fq_order(ctx, Pf) == fq_order(ctx, f)
        report["trace_relation"] = trace_of(ctx, Pf) == ctx.Fq.mul(c, trace_of(ctx, f))
        return report
    raise PreconditionError("no invariant proposition applies to this permutation")
