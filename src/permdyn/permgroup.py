"""The group G_k of permutation polynomials of F_{q^k} with coefficients
in F_q: certification, composition and inversion modulo x^Q - x (Q = q^k),
Frobenius stability, realization of arbitrary permutations of I_k by
interpolation, Moebius-map representatives, and the degree-preserving form.
"""

import operator

import numpy as np

from . import numth
from .context import (
    PermPoly, _coset_logs, base_field, embed_poly, enumerate_Ck, frobenius_orbits,
    make_field_ctx, restrict_poly,
)
from .errors import InternalCheckError, PreconditionError
from .polys import Poly, fold_mod, poly_gcd, pth_root

__all__ = [
    "PermPoly", "Matrix2", "certify_perm", "perm_table", "gk_compose",
    "gk_inverse", "frobenius_stable", "lagrange_interpolate_all",
    "realize_permutation", "moebius_poly_rep", "moebius_eval", "pgl2_order",
    "is_degree_preserving_form", "check_degree_preserving",
]


class Matrix2:
    """An element of GL_2 over a base field, stored as four scalars."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        for v in (a, b, c, d):
            if not isinstance(v, (int, np.integer)) or not 0 <= v < field.order:
                raise PreconditionError("matrix entry %r outside the field" % v)
        self.field, self.a, self.b, self.c, self.d = field, a, b, c, d
        if self.det() == 0:
            raise PreconditionError("matrix is singular")

    @classmethod
    def identity(cls, field):
        return cls(field, 1, 0, 0, 1)

    def det(self):
        f = self.field
        return f.sub(f.mul(self.a, self.d), f.mul(self.b, self.c))

    def __matmul__(self, other):
        f = self.field
        return Matrix2(
            f,
            f.add(f.mul(self.a, other.a), f.mul(self.b, other.c)),
            f.add(f.mul(self.a, other.b), f.mul(self.b, other.d)),
            f.add(f.mul(self.c, other.a), f.mul(self.d, other.c)),
            f.add(f.mul(self.c, other.b), f.mul(self.d, other.d)),
        )

    def is_scalar(self):
        return self.b == 0 and self.c == 0 and self.a == self.d

    def __eq__(self, other):
        return (isinstance(other, Matrix2) and self.field.key == other.field.key
                and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash((self.field.key, self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "Matrix2[[%d,%d],[%d,%d]]" % (self.a, self.b, self.c, self.d)


def certify_perm(ctx, P):
    """P as an element of G_k: a PermPoly of the context as it is, so its holders share
    its star permutation; any other P reduced mod x^Q - x and accepted iff it permutes F_{q^k}.

    P is read through context.restrict_poly; the induced map is checked exhaustively.
    The PermPoly owns a copy of the coefficients, so changing the caller's Poly in
    place afterwards does not change the certified P.
    """
    if isinstance(P, PermPoly):
        restrict_poly(ctx, P)
        return P
    return _certified_table(ctx, P)[0]


def _certified_table(ctx, P):
    """certify_perm's result together with the value table it checked."""
    P = fold_mod(restrict_poly(ctx, P), ctx.Q)
    vals = perm_table(ctx, P)
    if not _distinct(vals, ctx.Q):
        raise PreconditionError("polynomial does not permute F_{q^k}")
    # restrict_poly and fold_mod may return the caller's own Poly
    return PermPoly(Poly(P.field, P.coeffs), ctx.key), vals


def _distinct(vals, Q):
    """Whether the encodings vals, each in [0, Q), are pairwise distinct.

    One O(Q) scatter into Q flags: vals are distinct when it sets as many flags as vals
    has entries, and a table of Q values is a bijection exactly when that holds.
    """
    seen = np.zeros(Q, dtype=bool)
    seen[vals] = True
    return int(np.count_nonzero(seen)) == len(vals)


def perm_table(ctx, P):
    """Value table of P on all of F_{q^k}, indexed by element encoding."""
    return embed_poly(ctx, P).eval_many(ctx.Fqk.elements())


def gk_compose(ctx, P, Q):
    """P after Q, reduced mod x^Q - x: the group operation of G_k."""
    p1 = restrict_poly(ctx, P)
    p2 = fold_mod(restrict_poly(ctx, Q), ctx.Q)
    acc = Poly.zero(ctx.Fq)
    for c in reversed(p1.coeffs):
        acc = fold_mod(acc * p2, ctx.Q) + Poly.const(ctx.Fq, int(c))
    return certify_perm(ctx, acc)


def gk_inverse(ctx, P):
    """The inverse of P in G_k, by interpolating the inverse value table."""
    # the value table permutes the encodings 0..Q-1, so argsort inverts it
    return _interpolate_perm(ctx, np.argsort(_certified_table(ctx, P)[1]))


def frobenius_stable(ctx, f):
    """Whether f(a^q) = f(a)^q on all of F_{q^k} (the definitional test)."""
    return _commutes_with_frobenius(ctx, perm_table(ctx, f))


def _commutes_with_frobenius(ctx, table):
    """Whether the value table satisfies table[a^q] = table[a]^q for every a."""
    F = ctx.Fqk
    return bool(np.array_equal(table[F.vpow(F.elements(), ctx.q)], F.vpow(table, ctx.q)))


def _interpolate_perm(ctx, table):
    """The element of G_k whose value table is `table`.

    A bijective table that commutes with Frobenius interpolates to a
    permutation polynomial with coefficients in F_q, so the interpolant is
    neither certified nor tested for Frobenius stability again.
    """
    if not _distinct(table, ctx.Q) or not _commutes_with_frobenius(ctx, table):
        raise InternalCheckError("value table is not a Frobenius-stable permutation")
    return PermPoly(restrict_poly(ctx, lagrange_interpolate_all(ctx, table)), ctx.key)


def lagrange_interpolate_all(ctx, values):
    """The unique polynomial of degree < Q interpolating encoding -> values[encoding].

    The basis polynomial at a node u is 1 - (x - u)^(Q-1), so the coefficients
    are c_0 = values[0], c_(Q-1) = -sum_u values[u], and, for 0 < i < Q - 1,
    c_i = -sum_(u != 0) values[u] u^(-i) (von zur Gathen and Gerhard, Modern
    Computer Algebra, 10.1). With g a generator of F_{q^k}^* and
    V(y) = sum_(j < Q-1) values[g^j] y^j, that sum is V(g^(Q-1-i)): one
    evaluation of V at g^(Q-2), ..., g, which costs one pass over the points
    per nonzero coefficient of V. The result is checked to reproduce the table
    at all Q points.
    """
    field = ctx.Fqk
    Q = ctx.Q
    values = field.check_encodings(values)
    if values.shape != (Q,):
        raise PreconditionError("value table must cover all %d elements" % Q)
    powers = _generator_powers(field)
    coeffs = np.empty(Q, dtype=np.int64)
    coeffs[0] = values[0]
    coeffs[1:Q - 1] = field.vneg(field.keval(values[powers], powers[:0:-1]))
    coeffs[Q - 1] = field.neg(field.vsum(values))
    out = Poly(field, coeffs)
    if not np.array_equal(out.eval_many(field.elements()), values):
        raise InternalCheckError("interpolation failed to reproduce its table")
    return out


def _generator_powers(field):
    """g^0, ..., g^(order - 2) for a generator g of the field's multiplicative group.

    A table-mode field reads them from its exp table. A prime field fills them
    by doubling from its least primitive root: g^s .. g^(2s-1) are
    g^0 .. g^(s-1) times g^s.
    """
    if field.mode == "table":
        return field.exp[:field.order - 1]
    p = field.p
    out = np.empty(p - 1, dtype=np.int64)
    out[0] = 1
    step, filled = numth.primitive_root(p), 1
    while filled < p - 1:
        take = min(filled, p - 1 - filled)
        out[filled:filled + take] = out[:take] * step % p
        filled += take
        step = step * step % p
    return out


def _sigma_images(sigma, n):
    """sigma (pairs, dict, or image list of integer indices) as its image list on range(n)."""
    try:
        pairs = list(sigma.items() if isinstance(sigma, dict) else sigma)
        if pairs and not hasattr(pairs[0], "__len__"):
            pairs = list(enumerate(pairs))
        mapping = {operator.index(a): operator.index(b) for a, b in pairs}
    except (TypeError, ValueError):  # an entry that is not an integer, or a pair that is not two
        pairs, mapping = [], {}
    images = [mapping.get(a, -1) for a in range(n)]
    if len(pairs) != n or min(images) < 0 or max(images) >= n or not _distinct(images, n):
        raise PreconditionError("sigma is not a permutation table of I_k")
    return images


def realize_permutation(ctx, sigma):
    """An element P of G_k inducing a given permutation of I_k.

    sigma maps indices into the lex-ordered I_k (pairs, dict, or image list).
    P sends the j-th Frobenius power a^(q^j) of the least root a of f_i to that of
    f_{sigma(i)}, and fixes every element outside C_k.
    """
    roots = frobenius_orbits(ctx).roots
    conj = roots[:, None] if ctx.k == 1 else ctx.Fqk.exp[_coset_logs(ctx, ctx.Fqk.log[roots])]
    table = np.arange(ctx.Q, dtype=np.int64)
    table[conj] = conj[_sigma_images(sigma, len(conj))]
    return _interpolate_perm(ctx, table)


def _check_matrix(ctx, A):
    """The Moebius entries' one matrix check: A is a Matrix2 over F_q of the context."""
    if not isinstance(A, Matrix2) or A.field.key != ctx.Fq.key:
        raise PreconditionError("matrix entries must lie in F_q of the context")


def moebius_eval(ctx, A, z):
    """tau_A(z) on F_{q^k} with the pole convention tau_A(-d/c) = a/c.

    z is an int64 array of encodings, mapped whole, or one encoding, for
    which an int is returned. Off the pole tau_A(z) = (a z + b)(c z + d)^(Q-2).
    """
    _check_matrix(ctx, A)
    F = ctx.Fqk
    zs = np.atleast_1d(F.check_encodings(z))
    den = F.vadd(F.vmul(zs, A.c), A.d)
    out = F.vmul(F.vadd(F.vmul(zs, A.a), A.b), F.vpow(den, ctx.Q - 2))
    if A.c:
        out[den == 0] = F.mul(A.a, F.inv(A.c))
    return out if np.ndim(z) else int(out[0])


def moebius_poly_rep(ctx, A):
    """The element of G_k whose evaluation map is tau_A on F_{q^k}."""
    _check_matrix(ctx, A)
    out, vals = _certified_table(ctx, _moebius_poly(ctx, A))
    if not np.array_equal(vals, moebius_eval(ctx, A, ctx.Fqk.elements())):
        raise InternalCheckError("Moebius representative disagrees with tau_A")
    return out


def _moebius_poly(ctx, A):
    """The polynomial of degree < Q over F_q whose map is tau_A, in closed form; not certified."""
    Fq, Q = ctx.Fq, ctx.Q
    if A.c == 0:
        dinv = Fq.inv(A.d)
        return Poly(Fq, [Fq.mul(A.b, dinv), Fq.mul(A.a, dinv)])
    # tau_A(z) = a/c - (det A / c) (cz + d)^(Q-2): off the pole the power is
    # 1/(cz + d), at the pole 0, which leaves a/c. In characteristic p,
    # (1 + t)^(Q-2) = (1 + t^Q)(1 + t)^(-2), so (cx + d)^(Q-2) is the sum over
    # j <= Q-2 of (j + 1) (-c)^j d^(Q-2-j) x^j, whose scalar powers repeat
    # with period q - 1 in j; d = 0 leaves the single term j = Q-2.
    scale = Fq.neg(Fq.mul(A.det(), Fq.inv(A.c)))
    if Q == 2:
        # (cx + d)^0 = 1 is 1 at the pole too; over F_2, cx + d is 1 off the pole and 0 on it
        coeffs = Fq.vmul(np.array([A.d, A.c], dtype=np.int64), scale)
    elif A.d == 0:
        coeffs = np.zeros(Q - 1, dtype=np.int64)
        coeffs[-1] = Fq.mul(scale, Fq.pow(A.c, Q - 2))
    else:
        r = Fq.neg(Fq.mul(A.c, Fq.inv(A.d)))
        cycle = np.array([Fq.pow(r, t) for t in range(ctx.q - 1)], dtype=np.int64)
        j = np.arange(Q - 1, dtype=np.int64)
        coeffs = Fq.vmul(Fq.vmul(cycle[j % (ctx.q - 1)], Fq.mul(scale, Fq.pow(A.d, Q - 2))),
                         (j + 1) % ctx.p)
    coeffs[0] = Fq.add(int(coeffs[0]), Fq.mul(A.a, Fq.inv(A.c)))
    return Poly(Fq, coeffs)


def pgl2_order(A):
    """Order of the class of A in PGL_2: least D >= 1 with A^D scalar."""
    q = A.field.order
    bound = q * (q - 1) * (q + 1)
    cur = A
    D = 1
    while not cur.is_scalar():
        cur = cur @ A
        D += 1
        if D > bound:
            raise InternalCheckError("PGL_2 order exceeded q(q-1)(q+1)")
    return D


def is_degree_preserving_form(F):
    """Whether F has the shape a x^(p^h) + b with a != 0."""
    if F.degree < 1:
        raise PreconditionError("degree-preserving form needs degree >= 1")
    p = F.field.p
    support = [i for i in range(1, F.degree + 1) if F.coeff(i) != 0]
    if len(support) != 1:
        return False
    i = support[0]
    while i % p == 0:
        i //= p
    return i == 1


def check_degree_preserving(F, bound):
    """Empirically test the degree-preserving consequences of F on C_j, j <= bound.

    A fully degree-preserving F restricts to a bijection of every C_j (so a
    degree drop or a collision within C_j refutes it) and every fiber
    F(x) = c consists of a single closure root of full multiplicity (two
    constant shifts of the p-power-reduced F suffice to refute any other
    coefficient pattern). F must be a polynomial over the canonically
    constructed F_q (lex-smallest modulus), since the check builds the
    degree-j extensions itself.
    """
    if F.degree < 1:
        raise PreconditionError("degree-preserving check needs degree >= 1")
    p, m = F.field.p, F.field.deg
    G = F
    while G.derivative().is_zero:
        G = pth_root(G)
    dG = G.derivative()
    for c in (0, 1):
        H = G - Poly.const(G.field, c)
        if (H // poly_gcd(H, dG)).degree != 1:
            return False
    if base_field(p, m).key != F.field.key:
        raise PreconditionError("F is not over the canonical F_q")
    for j in range(1, bound + 1):
        ctx = make_field_ctx(p, m, j)
        C = enumerate_Ck(ctx)
        vals = ctx.Fqk.keval(F.coeffs, C)
        if not _distinct(vals, ctx.Q) or np.any(frobenius_orbits(ctx).node[vals] < 0):
            return False
    return True
