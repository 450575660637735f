"""Orders attached to irreducible polynomials and their roots.

Covers the multiplicative order of a root, the F_q-order (the minimal monic
divisor h of x^k - 1 whose linearized associate annihilates a root), the
polynomial Euler function Phi_q, the order O(f, g) of f modulo g, and norm
and trace. Every order computation factors the relevant group order and
strips primes rather than searching incrementally.
"""

from . import numth
from .context import restrict_poly
from .errors import InternalCheckError, PreconditionError
from .polys import Modulus, Poly, factor, is_irreducible, poly_gcd, powmod


def mult_order(ctx, f):
    """Order of the roots of an irreducible f: least e with x^e = 1 mod f."""
    return _mult_order(_irreducible(ctx, f, "mult_order needs"))


def _mult_order(f):
    """mult_order of f, a Poly over F_q known to be irreducible."""
    if f.degree == 1 and f.coeff(0) == 0:
        raise PreconditionError("mult_order is undefined for f = x")
    x = Poly.x(f.field)
    one = Poly.one(f.field)
    return numth.order_dividing(f.field.order ** f.degree - 1,
                                lambda d: powmod(x, d, f) == one)


def _linearized_mod(h, f):
    """L_h mod f, via the Frobenius walk x^(q^i) mod f."""
    acc = Poly.zero(f.field)
    for c, t in zip(h.coeffs, Modulus(f).frobenius(Poly.x(f.field) % f)):
        if c:
            acc = acc + t.scale(int(c))
    return acc


def fq_order(ctx, f):
    """The F_q-order of an irreducible f: the least-degree monic h | x^k - 1
    with L_h vanishing on the roots of f.

    Divisibility f | L_h replaces root evaluation, so no extension-field
    arithmetic is needed. Computed by stripping irreducible factors from
    x^k - 1.
    """
    return _fq_order(ctx, _irreducible(ctx, f, "fq_order needs"))


def _fq_order(ctx, f):
    """fq_order of f, a Poly over F_q known to be irreducible."""
    field = f.field
    k = ctx.k
    xk1 = Poly(field, [field.neg(1)] + [0] * (k - 1) + [1])
    h = xk1
    for g, mult in factor(xk1):
        for _ in range(mult):
            cand = h // g
            if _linearized_mod(cand, f).is_zero:
                h = cand
            else:
                break
    if not _linearized_mod(h, f).is_zero:
        raise InternalCheckError("F_q-order candidate does not annihilate f")
    return h


def phi_q(g):
    """Polynomial Euler function: the number of units mod g."""
    if g.is_zero or g.degree < 1:
        raise PreconditionError("phi_q needs degree >= 1")
    q = g.field.order
    total = 1
    for h, s in factor(g):
        d = h.degree
        total *= q ** ((s - 1) * d) * (q ** d - 1)
    return total


def poly_order(f, g):
    """O(f, g): least j with f^j = 1 mod g (requires gcd(f, g) = 1)."""
    if g.degree < 1:
        raise PreconditionError("poly_order needs deg(g) >= 1")
    if poly_gcd(f, g).degree != 0:
        raise PreconditionError("poly_order needs gcd(f, g) = 1")
    one = Poly.one(f.field)
    return numth.order_dividing(phi_q(g), lambda d: powmod(f, d, g) == one)


def norm_of(ctx, f):
    """Norm of a root of an irreducible f of degree k: (-1)^k f_0 for monic f (Vieta)."""
    return _norm(ctx, _monic_of_degree_k(ctx, f))


def _norm(ctx, f):
    """norm_of f, a monic irreducible of degree k over F_q."""
    Fq = ctx.Fq
    return Fq.mul(Fq.pow(Fq.neg(1), ctx.k), f.coeff(0))


def trace_of(ctx, f):
    """Trace of a root of an irreducible f of degree k: -f_(k-1) for monic f (Vieta)."""
    return _trace(ctx, _monic_of_degree_k(ctx, f))


def _trace(ctx, f):
    """trace_of f, a monic irreducible of degree k over F_q."""
    return ctx.Fq.neg(f.coeff(ctx.k - 1))


def _irreducible(ctx, f, needs):
    """f read through context.restrict_poly, refused unless irreducible."""
    f = restrict_poly(ctx, f)
    if not is_irreducible(f):
        raise PreconditionError(needs + " an irreducible polynomial")
    return f


def _monic_of_degree_k(ctx, f):
    f = _irreducible(ctx, f, "norm/trace need")
    if f.degree != ctx.k:
        raise PreconditionError("polynomial degree %d does not match k = %d"
                                % (f.degree, ctx.k))
    return f.monic()
