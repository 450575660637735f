"""Star and diamond compositions, fixed points, and cycle structure on C_k and I_k.

Entries that take a context read P, f and h through context.restrict_poly; the
closed forms that take (q, k) trust their arguments, as the algorithms of polys do.
"""

import json
import math

import numpy as np

from ._kernels import int_dtype
from .context import (element, element_degree, embed_poly, enumerate_Ck, frobenius_orbits,
                      restrict_poly)
from .errors import InternalCheckError, PreconditionError
from .numth import (check_coprime_exponent, divisors, euler_phi, is_prime, moebius_sum,
                    mult_order_int, prime_norm_index)
from .orders import _fq_order, _mult_order, _norm, _trace, phi_q, poly_order
from .permgroup import (Matrix2, _check_matrix, _closed_family, _distinct, certify_perm,
                        pgl2_order)
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
)
from .textio import _coeff_text, format_coeffs

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
    """Cycle decomposition of a permutation acting on the nodes 0, ..., n - 1.

    It holds arrays, not lists: `order` lists the node indices cycle by cycle
    and `lengths` the cycle lengths in that order (the graphs of dynamics order
    the cycles by least node index and walk each from it, _cycles). `label`
    maps an index array to the list of the labels of those nodes. `nodes` and
    `cycles` are lists of labels, built anew on each read. `summary` holds
    (length, count) pairs in the order the lengths first occur.
    """

    __slots__ = ("order", "lengths", "label", "summary")

    def __init__(self, order, lengths, label):
        self.order = order
        self.lengths = lengths
        self.label = label
        counts = np.bincount(lengths)
        self.summary = [(n, int(counts[n])) for n in dict.fromkeys(lengths.tolist())]
        if sum(n * cnt for n, cnt in self.summary) != len(order):
            raise InternalCheckError("cycles do not partition the node set")

    @property
    def nodes(self):
        """The labels of the nodes 0, ..., n - 1, as a new list."""
        return self.label(np.arange(len(self.order)))

    @property
    def cycles(self):
        """Each cycle as a new list of node labels, walked from its first node."""
        flat = self.label(self.order)
        return [flat[a:b] for a, b in self._bounds()]

    def _bounds(self):
        """(start, end) of each cycle's slice of the ordered labels."""
        ends = np.cumsum(self.lengths).tolist()
        return zip([0] + ends, ends)

    def to_dot(self):
        """DOT text with one subgraph per cycle and an edge from each node to its image.

        Each cycle's edges are one format string applied to its nodes and their
        images, taken in turn, so no string is made per edge.
        """
        flat = self.label(self.order)
        blocks = ["digraph G {\n"]
        for idx, (a, b) in enumerate(self._bounds()):
            cyc = flat[a:b]
            ends = [None] * (2 * len(cyc))
            ends[0::2] = cyc
            ends[1::2] = cyc[1:] + cyc[:1]
            blocks.append("  subgraph cluster_%d {\n" % idx
                          + '    "%s" -> "%s";\n' * len(cyc) % tuple(ends) + "  }\n")
        blocks.append("}")
        return "".join(blocks)

    def to_json(self):
        """JSON text with the node list, the cycle lists, and the (length, count) summary.

        The text is json.dumps of the dict of the three, written one cycle at a
        time, so the cycle lists are never all held at once. The nodes are
        labelled once, and the cycles take their labels from that list.
        """
        nodes = self.nodes
        flat = _take(nodes, self.order)
        nodes = json.dumps(nodes)
        cycles = ", ".join(json.dumps(flat[a:b]) for a, b in self._bounds())
        return '{"nodes": %s, "cycles": [%s], "summary": %s}' % (
            nodes, cycles, json.dumps(self.summary))


def _take(items, idx):
    """[items[i] for i in idx], for a list of labels and an index array, by one gather."""
    return np.array(items, dtype=object)[idx].tolist()


class CycleSpectrum:
    """Multiset of cycle lengths with the distinct-length set and its minimum."""

    __slots__ = ("lengths", "S", "mu")

    def __init__(self, lengths):
        if not lengths:
            raise PreconditionError("spectrum of an empty graph is undefined")
        self.lengths = sorted(int(n) for n in lengths)
        self.S = sorted(set(self.lengths))
        self.mu = self.S[0]


def _named(ctx, P, f, read):
    """read(), with a PreconditionError it raises suffixed by _where(ctx, P, f)."""
    try:
        return read()
    except PreconditionError as exc:
        raise PreconditionError(str(exc) + _where(ctx, P, f)) from None


def _refuse(ctx, P, f, failure=None):
    """Raise failure when given and Rabin's test accepts f, else refuse f, naming P and f."""
    if failure is not None and is_irreducible(f):
        raise failure
    raise PreconditionError("expected a monic irreducible of degree k" + _where(ctx, P, f))


def _read(ctx, P, f):
    """(orbits, i, P, perm): the orbit table, f's index in it, read first, then P certified
    (_member) and its kept star permutation (_ik_perm); a refusal names the tower, P and f."""
    f = _named(ctx, P, f, lambda: restrict_poly(ctx, f))
    orbits = frobenius_orbits(ctx)
    try:
        i = orbits.index(f)
    except PreconditionError:
        _refuse(ctx, P, f)
    P = _member(ctx, P, f)
    return orbits, i, P, _ik_perm(ctx, P)[1]


def _member(ctx, P, f=None):
    """P as an element of G_k (certify_perm); a refusal names the tower, P and, when given, f."""
    return _named(ctx, P, f, lambda: certify_perm(ctx, P))


def _where(ctx, P, f=None):
    """The suffix of an error message that names the tower, P and, when given, f.

    A Moebius map given by its matrix is named as A = M[a,b,c,d], each entry spelled
    as --perm reads it.
    """
    if isinstance(P, Matrix2):
        named = "A = M[%s]" % ",".join(_coeff_text(P.field, e) for e in (P.a, P.b, P.c, P.d))
    else:
        named = "P = " + _brief(ctx, P)
    return "; at (p, m, k) = (%d, %d, %d), %s%s" % (
        ctx.p, ctx.m, ctx.k, named, "" if f is None else ", f = " + _brief(ctx, f))


def _brief(ctx, poly):
    """The text of a polynomial with a few terms, else its degree and number of terms;
    the repr of what restrict_poly refuses."""
    try:
        poly = restrict_poly(ctx, poly)
    except PreconditionError:
        return repr(poly)
    terms = np.count_nonzero(poly.coeffs)
    if terms <= 8:
        return str(poly)
    return "<degree %d, %d terms>" % (poly.degree, terms)


def star(ctx, P, f):
    """P*f, the minimal polynomial of P^(-1)(a) for a root a of f, read off P's star
    permutation (_ik_perm) and certified by _check_edge: g monic of degree k,
    f(P mod g) = 0 mod g and Rabin's test on g together prove g = P*f."""
    orbits, i, P, perm = _read(ctx, P, f)
    f, g = orbits.poly(i), orbits.poly(perm[i])
    _check_edge(ctx, P, f, g)
    return g


def diamond(ctx, P, f):
    """Minimal polynomial of P(alpha) for a root alpha of f: the orbit j that P's kept star
    permutation (_ik_perm) sends to f's orbit i, so no call evaluates P."""
    orbits, i, _, perm = _read(ctx, P, f)
    return orbits.poly(int(np.argmax(perm == i)))


def fixed_points_direct(ctx, P):
    """All f in I_k with P*f = f: the Frobenius orbits that P maps onto themselves."""
    orbits, perm = _ik_perm(ctx, P)
    return [orbits.poly(i) for i in np.flatnonzero(perm == np.arange(len(perm)))]


def fixed_count_formula(ctx, P):
    """Number of star-fixed elements of I_k, by the Moebius divisor sum.

    The sum counts the roots of x^(q^i) - P in each F_{q^d} as deg
    gcd(x^(q^d) - x, x^(q^i) - P) (polys.frobenius_gcd). It is checked
    against the fixed points of the star permutation on the orbit table
    (_ik_perm), which the exhaustive I_k entries under the same P share;
    disagreement is a hard error.
    """
    P = _member(ctx, P)
    q = ctx.q
    one = Poly.one(ctx.Fq)

    def roots(d, i):
        # number of roots of x^(q^i) - P in F_{q^d}: deg gcd(x^(q^d) - x, A)
        A = one.shift(q ** i) - P.poly
        if A.is_zero:
            return q ** d
        if A.degree == 0:
            return 0
        return frobenius_gcd(A, d).degree

    total = moebius_sum(ctx.k, roots)
    perm = _ik_perm(ctx, P)[1]
    if np.count_nonzero(perm == np.arange(len(perm))) != total:
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
    h = restrict_poly(ctx, h)
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
    if is_power:
        return count_irreducibles(q, k)
    if q % 2 == 0 and k == 2:
        return 0
    for i in range(k):
        g = f - one.shift(i)
        if g.degree == T.degree and g.monic() == T:
            quo, rem = divmod(q ** (k - 1) - 1, k)
            if rem:
                raise InternalCheckError("k does not divide q^(k-1) - 1")
            return quo
    return 0


def _cycle_walk(perm):
    """(least, ahead) for a permutation of range(n) given as its image array: the least
    index of each index's cycle, and the number of steps of perm from the index to it.

    Pointer doubling: after s rounds, jump is perm^(2^s), least[i] is the least
    of the window i, perm[i], ..., perm^(2^s - 1)[i], and ahead[i] the step of
    its first occurrence there; the next window joins the windows at i and at
    jump[i]. The windows cover every cycle exactly when no least[jump[i]] is
    below least[i]. jump permutes each cycle, so the values along i, jump[i],
    jump[jump[i]], ... would then never fall and must all be equal; those
    windows tile the cycle of i, so their shared least index is the cycle's.
    A cycle of length L is done after ceil(log2 L) rounds of three gathers.
    The arrays are int32 while every step count fits (span < 2n,
    _kernels.int_dtype): the gathers are random reads, and halving the bytes
    they touch made a uniform random permutation of 2^20 indices about four
    times faster.
    """
    n = len(perm)
    dtype = int_dtype(2 * n)
    least = np.arange(n, dtype=dtype)
    ahead = np.zeros_like(least)
    jump = perm.astype(dtype)
    buf = np.empty_like(least)
    span = 1
    while True:
        nxt = least.take(jump, out=buf, mode="clip")
        later = nxt < least
        if not later.any():
            return least, ahead
        np.minimum(least, nxt, out=least)
        # ahead = where(later, span + ahead[jump], ahead), without a branch per element
        ahead.take(jump, out=buf, mode="clip")
        buf += span
        buf -= ahead
        buf *= later
        ahead += buf
        jump, buf = jump.take(jump, out=buf, mode="clip"), jump
        span *= 2


def _cycles(perm):
    """The cycles of a permutation of range(n) given as its image array: (order, lengths).

    order lists the indices cycle by cycle, the cycles by least index and each
    walked from it, in _cycle_walk's dtype (int32 below 2^30 indices); lengths
    holds the cycle lengths in that order. An index that is `ahead` steps
    before its cycle's least index sits (length - ahead) mod length places
    after it, and each cycle's block starts after the blocks of the cycles
    with a lesser least index.
    """
    least, ahead = _cycle_walk(perm)
    counts = np.bincount(least, minlength=len(perm))
    length = counts[least]
    place = (np.cumsum(counts) - counts)[least] + np.remainder(-ahead, length)
    order = np.empty_like(least)
    order[place] = np.arange(len(perm), dtype=least.dtype)
    return order, counts[counts > 0]


def _ck_perm(ctx, P):
    """C_k in ascending encodings and the evaluation map of P as an index array on it."""
    P = _member(ctx, P)
    els = enumerate_Ck(ctx)
    imgs = embed_poly(ctx, P).eval_many(els)
    in_ck = frobenius_orbits(ctx).node >= 0
    if not _distinct(imgs, ctx.Q) or not np.all(in_ck[imgs]):
        raise InternalCheckError("P does not permute C_k" + _where(ctx, P))
    # the position of each element of C_k among the ascending encodings
    place = np.cumsum(in_ck, dtype=int_dtype(ctx.Q))
    place -= 1
    return els, place[imgs]


def _ik_perm(ctx, P):
    """The orbit table and the star action of P as a read-only index array on its polys.

    P commutes with Frobenius, so P*f is the orbit of P^(-1)(a) for a root a of f: the
    array inverts the diamond map i -> node[P(roots[i])], which diamond reads back off
    it, and its bijection check proves every diamond image of degree k. One edge, from
    the first f to its image g, is checked modulo g (_check_edge), without forming f(P).
    The array is P's own, computed once per certified P and kept on it (PermPoly.perm)
    for every holder of that P; a raw Poly, certified anew on each call, keeps it for
    that call only. Like the table's node, it is int32 up to 2^31 rows (_kernels.int_dtype).
    """
    P = _member(ctx, P)
    orbits = frobenius_orbits(ctx)
    if P.perm is None:
        n = len(orbits.roots)
        image = orbits.node[embed_poly(ctx, P).eval_many(orbits.roots)]
        if np.any(image < 0) or not _distinct(image, n):
            raise InternalCheckError("P does not act bijectively on I_k" + _where(ctx, P))
        perm = np.empty(n, dtype=int_dtype(n))
        perm[image] = np.arange(n, dtype=perm.dtype)
        _check_edge(ctx, P, orbits.poly(0), orbits.poly(perm[0]))
        perm.flags.writeable = False
        P.perm = perm
    return orbits, P.perm


def _check_edge(ctx, P, f, g):
    """Raise InternalCheckError unless g = P*f, for a certified P (a PermPoly), which acts
    bijectively on C_k.

    f and g must be monic of degree k, f(P mod g) = 0 mod g (_vanishes), and Rabin's
    test must accept g. P has coefficients in F_q, so it maps each F_{q^d}, d | k, into
    itself: a root b of g has P(b) of degree k, so f, its minimal polynomial, is
    irreducible, and the roots of f(P) in F_{q^k} lie in C_k. P is a bijection of C_k,
    so they are the preimage of the roots of f, one Frobenius orbit, and g is the one
    irreducible factor of degree k of f(P): P*f. On a failure f and g are tested in turn.
    Both checks run on one Modulus(g), so the remainder function of g (in prime mode the
    Newton inverse of the reversed g, _kernels.RemP) is derived once per edge.
    _vanishes reads x^(Q-1) as 1 modulo g, which holds when Rabin's test accepts g; the
    edge needs both, so a g that fails Rabin's test is refused whatever _vanishes says,
    and for one that passes, _vanishes is exact.
    """
    if all(h.degree == ctx.k and h.leading() == 1 for h in (f, g)):
        ring = Modulus(g)
        if _vanishes(ring, P, f) and ring.is_irreducible():
            return
    for h in (f, g):
        if h.degree != ctx.k or h.leading() != 1 or not is_irreducible(h):
            raise InternalCheckError("orbit table holds %s, not a monic irreducible of "
                                     "degree k" % h + _where(ctx, P, f))
    raise InternalCheckError("orbit table image %s does not divide f(P)" % g
                             + _where(ctx, P, f))


def _vanishes(ring, P, f):
    """Whether f(P) = 0 modulo the ring's modulus g, of degree n, for a PermPoly P and a g
    that Rabin's test accepts (_check_edge); for another g the answer proves nothing.

    P is reduced modulo g (Modulus.rem) from its kept nonzero exponents (PermPoly.exps),
    read modulo Q - 1, Q = q^n, since F_q[x]/(g) is then the field of Q elements: about
    deg(P).bit_length() products per term of a sparse P, none for the x^(Q-2) of a
    Moebius representative, which is x^-1, or one block reduction per n - 1
    coefficients of a dense P. f is composed with P mod g unreduced (polys.compose), of
    degree at most deg(f) (n - 1), and that is reduced once, about deg(f) block
    reductions, where a pass of Horner's rule modulo g would take deg(f) products, each
    reduced on its own.
    """
    g = ring.mod
    return ring.rem(compose(f, ring.rem(P.poly, P.exps, g.field.order ** g.degree - 1))).is_zero


def _star_walk(ctx, P, f, max_steps=None):
    """(P, path, period): P certified, the indices of f, P*f, P*(P*f), ... and f's period.

    The walk stops when f recurs, with the period, or after max_steps steps,
    with None. A star cycle has at most |I_k| elements.
    """
    if max_steps is not None and max_steps < 0:
        raise PreconditionError("max_steps must be >= 0" + _where(ctx, P, f))
    _, i, P, perm = _read(ctx, P, f)
    path = [i]
    limit = len(perm) if max_steps is None else max_steps
    while len(path) <= limit:
        nxt = int(perm[path[-1]])
        if nxt == path[0]:
            return P, path, len(path)
        path.append(nxt)
    return P, path, None


def graph_Ck(ctx, P):
    """Functional graph of the evaluation map of P on C_k, its nodes labelled by encoding.

    The graph keeps no labels: they are read from enumerate_Ck when asked for.
    """
    return FunctionalGraph(*_cycles(_ck_perm(ctx, P)[1]),
                           lambda idx: enumerate_Ck(ctx)[idx].tolist())


def graph_Ik(ctx, P):
    """Functional graph of f -> P*f on I_k, its nodes labelled by polynomial text.

    The graph keeps no labels: the orbit table's rows are formatted when they are
    asked for, all at once and in table order, which reads the table without a copy.
    """
    orbits, perm = _ik_perm(ctx, P)
    return FunctionalGraph(*_cycles(perm),
                           lambda idx: _take(format_coeffs(orbits.field, orbits.coeffs), idx))


def period_Ck(ctx, P, alpha):
    """Least n >= 1 whose n-th iterate of P fixes alpha; alpha is read before P."""
    try:
        alpha = element(ctx, alpha)
        if element_degree(ctx, alpha) != ctx.k:
            raise PreconditionError("alpha does not have degree k over F_q")
        P = certify_perm(ctx, P)
    except PreconditionError as exc:
        raise PreconditionError(str(exc) + _where(ctx, P) + ", alpha = %r" % (alpha,)) from None
    Pe, cur = embed_poly(ctx, P), alpha
    for n in range(1, ctx.Q + 1):
        cur = Pe(cur)
        if cur == alpha:
            return n
    raise InternalCheckError("orbit of alpha did not close" + _where(ctx, P)
                             + ", alpha = %d" % alpha)


def period_Ik(ctx, P, f):
    """Least n >= 1 whose n-th star iterate of P fixes f."""
    return _star_walk(ctx, P, f)[2]


def spectrum_Ck(ctx, P):
    """Cycle-length spectrum of the evaluation map of P on C_k."""
    return CycleSpectrum(_cycle_lengths(_ck_perm(ctx, P)[1]))


def spectrum_Ik(ctx, P):
    """Cycle-length spectrum of the star action of P on I_k."""
    return CycleSpectrum(_cycle_lengths(_ik_perm(ctx, P)[1]))


def _cycle_lengths(perm):
    """The cycle lengths of a permutation of range(n), as the sizes of its least-index labels."""
    counts = np.bincount(_cycle_walk(perm)[0])
    return counts[counts > 0].tolist()


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
    """Star action of the Moebius map of A on f, by clearing denominators.

    The image g, the cleared f(tau_A) made monic, is monic and divides it by
    construction, so it is certified by its degree and Rabin's test. A root b of
    g has degree k >= 2, so cb + d != 0, and tau_A(b) has degree k (tau_A^-1 is
    Moebius over F_q): f is its minimal polynomial, tested only on a failure,
    and read before A. Every refusal names the tower, A and f.
    """
    if ctx.k < 2:
        raise PreconditionError("the Moebius star action needs k >= 2")
    f = _named(ctx, A, f, lambda: restrict_poly(ctx, f))
    if f.degree != ctx.k or f.leading() != 1:
        _refuse(ctx, A, f)
    try:
        _named(ctx, A, f, lambda: _check_matrix(ctx, A))
    except PreconditionError as exc:
        _refuse(ctx, A, f, exc)
    num, den = Poly(ctx.Fq, [A.b, A.a]), Poly(ctx.Fq, [A.d, A.c])
    # Horner's rule for sum_i f_i num^i den^(k - i), from the top
    acc, denpow = Poly.one(ctx.Fq), Poly.one(ctx.Fq)
    for i in range(ctx.k - 1, -1, -1):
        denpow = denpow * den
        acc = acc * num + denpow.scale(f.coeff(i))
    out = acc.monic()
    if out.degree != ctx.k or not is_irreducible(out):
        _refuse(ctx, A, f, InternalCheckError(
            "Moebius star image is not an irreducible of degree k" + _where(ctx, A, f)))
    return out


def invariant_report(ctx, P, f):
    """Check the order, norm, and trace relations that apply to P's family, read from the
    certified P's kept exponents by certify_perm's classifier (permgroup._closed_family).

    Monomials x^n (coefficient 1, no constant term) preserve multiplicative order and
    send the norm a to a^(n0) with n*n0 = 1 mod q^k - 1; q-associate maps L_h with no
    constant term preserve the additive order and send the trace a to h(1)^(-1) a. Any
    other P is refused, naming the tower, P and f.
    """
    orbits, i, pp, _ = _read(ctx, P, f)
    f = orbits.poly(i)
    # star's certificate proves f and P*f monic irreducibles of degree k
    Pf = star(ctx, pp, f)
    report = dict.fromkeys(("ord_preserved", "fq_order_preserved", "norm_relation",
                            "trace_relation"))
    n, h = (None, None) if pp.exps[0] == 0 else _closed_family(ctx, pp.poly, pp.exps)
    if n is not None and pp.poly.coeff(n) == 1:
        n0 = pow(n, -1, ctx.Q - 1)
        report["ord_preserved"] = _mult_order(Pf) == _mult_order(f)
        report["norm_relation"] = _norm(ctx, Pf) == ctx.Fq.pow(_norm(ctx, f), n0)
        return report
    if h is not None:
        c = ctx.Fq.inv(h(1))
        report["fq_order_preserved"] = _fq_order(ctx, Pf) == _fq_order(ctx, f)
        report["trace_relation"] = _trace(ctx, Pf) == ctx.Fq.mul(c, _trace(ctx, f))
        return report
    raise PreconditionError("no invariant proposition applies to this permutation"
                            + _where(ctx, pp, f))
