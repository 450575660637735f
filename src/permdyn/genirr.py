"""Iterated generation of degree-k irreducibles f_i = P*f_{i-1} with period bounds."""

import json
import math
from fractions import Fraction

from .context import frobenius_orbits, make_field_ctx
from .dynamics import _star_walk, _where
from .errors import InternalCheckError, PreconditionError
from .numth import check_coprime_exponent, factorint, is_prime, mult_order_int, prime_norm_index
from .orders import poly_order
from .permgroup import certify_perm
from .polys import Poly, irreducible_Ek, linearized_modulus, q_associate

__all__ = [
    "GenReport",
    "iterate_generation",
    "bound_monomial",
    "bound_linearized",
    "tau",
    "choose_LH",
]


class GenReport:
    """Record of one run of the star iteration f_i = P*f_{i-1}."""

    __slots__ = ("seed", "P", "produced", "period", "bound_claimed")

    def __init__(self, seed, P, produced, period, bound_claimed=None):
        self.seed = seed
        self.P = P
        self.produced = list(produced)
        self.period = period
        self.bound_claimed = bound_claimed

    def to_json(self):
        """JSON text with the seed, permutation, produced list, period, and bound."""
        return json.dumps({
            "seed": str(self.seed),
            "perm": str(self.P),
            "produced": [str(f) for f in self.produced],
            "period": self.period,
            "bound": None if self.bound_claimed is None else str(self.bound_claimed),
        })


def iterate_generation(ctx, P, f0, max_steps=None, bound_claimed=None):
    """Iterate f -> P*f from f0 until the seed recurs or max_steps star steps.

    On closure the report period equals the I_k-cycle length of f0; otherwise
    the period is None and produced holds the distinct prefix seen so far.
    The steps walk P's star permutation; f0 and then P are read through
    context.restrict_poly, the report holds P certified, and a negative max_steps is refused.
    """
    P, path, period = _star_walk(ctx, P, f0, max_steps)
    produced = [frobenius_orbits(ctx).poly(i) for i in path]
    if period is not None and bound_claimed is not None and period < math.ceil(bound_claimed):
        raise InternalCheckError("period fell below the claimed lower bound"
                                 + _where(ctx, P, f0))
    return GenReport(f0, P, produced, period, bound_claimed)


def bound_monomial(q, k, n):
    """Period lower bound ord_r(n)/k for P = x^n, with r = (q^k - 1)/(q - 1) prime."""
    r = prime_norm_index(q, k)
    check_coprime_exponent(q, k, n)
    return Fraction(mult_order_int(n, r), k)


def bound_linearized(q, k, g):
    """Period lower bound O(g, E_k)/k for the q-associate map of g, E_k irreducible."""
    Ek = irreducible_Ek(g.field, k)
    linearized_modulus(g, k, q)
    return Fraction(poly_order(g, Ek), k)


def tau(p, k):
    """Explicit lower bound on the order of x + a modulo E_k, by characteristic, as a float.

    A k whose bound exceeds the largest float is refused, naming the largest k served.
    """
    if k < 2:
        raise PreconditionError("tau needs k >= 2")
    try:
        return _tau(p, k)
    except OverflowError:
        # the bound grows with k: bisect for the last k whose float is finite
        lo, hi = 2, k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _tau(p, mid)
                lo = mid
            except OverflowError:
                hi = mid
        raise PreconditionError("tau(%d, k) exceeds the largest float for k > %d"
                                % (p, lo)) from None


def _tau(p, k):
    if p == 2:
        return 2.0 ** (math.sqrt(2 * (k - 2)) - 2)
    if p == 3:
        return 3.0 ** (math.sqrt(3 * (k - 2)) - 2)
    return 5.0 ** (math.sqrt((k - 2) / 2) - 2)


def choose_LH(q, k):
    """Certified generator permutation L_H for prime k with q primitive mod k.

    For q = 2 take H = (x^k - 1)/(x - 1) + x + 1; otherwise H = x - a for the
    smallest a with encoding >= 2 and a^k != 1.
    """
    fac = factorint(q)
    if len(fac) != 1:
        raise PreconditionError("q must be a prime power")
    p = next(iter(fac))
    if not is_prime(k):
        raise PreconditionError("k must be prime")
    try:
        primitive = mult_order_int(q, k) == k - 1
    except ValueError:
        primitive = False
    if not primitive:
        raise PreconditionError("q must be a primitive root modulo k")
    ctx = make_field_ctx(p, fac[p], k)
    field = ctx.Fq
    if q == 2:
        # q primitive modulo k makes E_k irreducible
        H = irreducible_Ek(field, k) + Poly.x(field) + Poly.one(field)
        if H(1) == 0:
            raise InternalCheckError("H(1) vanished in the q = 2 construction")
    else:
        a = next((c for c in range(2, q) if field.pow(c, k) != 1), None)
        if a is None:
            raise PreconditionError("no a with encoding >= 2 and a^k != 1 exists in F_q")
        H = Poly.x(field) - Poly.const(field, a)
    try:
        linearized_modulus(H, k, q)
    except PreconditionError:
        raise InternalCheckError("H is not coprime to x^k - 1") from None
    return certify_perm(ctx, q_associate(H))
