"""The group G_k of permutation polynomials of F_{q^k} with coefficients
in F_q: certification, composition and inversion modulo x^Q - x (Q = q^k),
Frobenius stability, realization of arbitrary permutations of I_k by
interpolation, Moebius-map representatives, and the degree-preserving form.
"""

import operator

import numpy as np

from .context import (
    base_field, embed_poly, enumerate_Ck, frobenius_orbits, make_field_ctx, restrict_poly,
)
from .errors import InternalCheckError, PreconditionError
from .polys import Poly, fold_mod, poly_gcd, pth_root

__all__ = [
    "PermPoly", "Matrix2", "certify_perm", "perm_table", "gk_compose",
    "gk_inverse", "frobenius_stable", "lagrange_interpolate_all",
    "realize_permutation", "moebius_poly_rep", "moebius_eval", "pgl2_order",
    "is_degree_preserving_form", "check_degree_preserving",
]


class PermPoly:
    """A certified element of G_k: reduced poly over F_q plus its context key.

    Dynamics trusts a PermPoly of its context. One is made only by certify_perm,
    gk_compose, gk_inverse, realize_permutation or moebius_poly_rep.
    """

    __slots__ = ("poly", "ctx_key")

    def __init__(self, poly, ctx_key):
        self.poly = poly
        self.ctx_key = ctx_key

    def __eq__(self, other):
        return (isinstance(other, PermPoly) and self.ctx_key == other.ctx_key
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.ctx_key, self.poly))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return "PermPoly(%s)" % self.poly


class Matrix2:
    """An element of GL_2 over a base field, stored as four scalars."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        for v in (a, b, c, d):
            if not 0 <= v < field.order:
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


def _coerce_poly(ctx, P):
    if isinstance(P, PermPoly):
        if P.ctx_key != ctx.key:
            raise PreconditionError("permutation polynomial belongs to a different context")
        return P.poly
    return P


def certify_perm(ctx, P):
    """Reduce P mod x^Q - x and accept it into G_k iff it permutes F_{q^k}.

    Coefficients must lie in F_q; the induced map is checked exhaustively.
    """
    return _certified_table(ctx, P)[0]


def _certified_table(ctx, P):
    """certify_perm's result together with the value table it checked."""
    P = fold_mod(restrict_poly(ctx, _coerce_poly(ctx, P)), ctx.Q)
    vals = perm_table(ctx, P)
    if not _distinct(vals, ctx.Q):
        raise PreconditionError("polynomial does not permute F_{q^k}")
    return PermPoly(P, ctx.key), vals


def _distinct(vals, Q):
    """Whether the encodings vals, each in [0, Q), are pairwise distinct.

    One O(Q) count; a table of Q values is a bijection exactly when it holds.
    """
    return bool(np.bincount(vals, minlength=Q).max() <= 1)


def perm_table(ctx, P):
    """Value table of P on all of F_{q^k}, indexed by element encoding."""
    P = _coerce_poly(ctx, P)
    return embed_poly(ctx, P).eval_many(ctx.Fqk.elements())


def gk_compose(ctx, P, Q):
    """P after Q, reduced mod x^Q - x: the group operation of G_k."""
    p1 = restrict_poly(ctx, _coerce_poly(ctx, P))
    p2 = fold_mod(restrict_poly(ctx, _coerce_poly(ctx, Q)), ctx.Q)
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

    Uses the nodal polynomial x^Q - x, whose derivative is the constant -1,
    so the basis polynomial at node u is the negated synthetic quotient
    (x^Q - x)/(x - u).
    """
    field = ctx.Fqk
    Q = ctx.Q
    values = np.asarray(values, dtype=np.int64)
    if len(values) != Q:
        raise PreconditionError("value table must cover all %d elements" % Q)
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
    out = Poly(field, coeffs)
    if not np.array_equal(out.eval_many(field.elements()), values):
        raise InternalCheckError("interpolation failed to reproduce its table")
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
    P sends the j-th Frobenius power of the distinguished root of f_i to the
    j-th Frobenius power of the distinguished root of f_{sigma(i)}, and fixes
    every element outside C_k.
    """
    conj = frobenius_orbits(ctx).conj
    table = np.arange(ctx.Q, dtype=np.int64)
    table[conj] = conj[_sigma_images(sigma, len(conj))]
    return _interpolate_perm(ctx, table)


def moebius_eval(ctx, A, z):
    """tau_A(z) on F_{q^k} with the pole convention tau_A(-d/c) = a/c.

    z is an int64 array of encodings, mapped whole, or one encoding, for
    which an int is returned. Off the pole tau_A(z) = (a z + b)(c z + d)^(Q-2).
    """
    F = ctx.Fqk
    zs = np.atleast_1d(np.asarray(z, dtype=np.int64))
    den = F.vadd(F.vmul(zs, A.c), A.d)
    out = F.vmul(F.vadd(F.vmul(zs, A.a), A.b), F.vpow(den, ctx.Q - 2))
    if A.c:
        out[den == 0] = F.mul(A.a, F.inv(A.c))
    return out if np.ndim(z) else int(out[0])


def moebius_poly_rep(ctx, A):
    """The element of G_k whose evaluation map is tau_A on F_{q^k}."""
    if A.field.key != ctx.Fq.key:
        raise PreconditionError("matrix entries must lie in F_q of the context")
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
