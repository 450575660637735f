"""Seeded inputs and oracles that do not use the code under test.

Irreducible polynomials over prime fields come from sympy's galoistools;
polynomial text is formatted here rather than by permdyn.textio.
"""

import random


def is_irreducible_desc(coeffs_desc, p):
    """sympy's irreducibility test on descending coefficients over F_p."""
    # imported here so that importing this module stays cheap before the set-up timer
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p
    return bool(gf_irreducible_p([int(c) % p for c in coeffs_desc], p, ZZ))


def star_edge_holds(f_asc, g_asc, P_asc, p):
    """Whether g divides f(P(x)) over F_p.

    For g monic irreducible of degree k this is exactly star(P, f) = g: the
    star image is the unique degree-k irreducible factor of f(P(x)) with its
    roots in F_{p^k}.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_compose_mod, gf_rem
    g = [int(c) % p for c in g_asc[::-1]]
    Pm = gf_rem([int(c) % p for c in P_asc[::-1]], g, p, ZZ)
    return not gf_compose_mod([int(c) % p for c in f_asc[::-1]], Pm, g, p, ZZ)


def all_irreducibles(p, k):
    """Every monic irreducible of degree k over F_p, in permdyn's enumeration order.

    Each is an ascending coefficient list; the order is by the encoding
    sum c_i p^i of the coefficients below the leading 1.
    """
    out = []
    for enc in range(p ** k):
        asc = []
        e = enc
        for _ in range(k):
            asc.append(e % p)
            e //= p
        asc.append(1)
        if is_irreducible_desc(asc[::-1], p):
            out.append(asc)
    return out


def random_irreducibles(rng, p, k, count):
    """`count` distinct monic irreducibles of degree k over F_p, drawn from rng."""
    seen = []
    while len(seen) < count:
        asc = [rng.randrange(p) for _ in range(k)] + [1]
        if asc not in seen and is_irreducible_desc(asc[::-1], p):
            seen.append(asc)
    return seen


def format_prime_poly(asc):
    """Human text of an ascending coefficient list over a prime field."""
    parts = []
    for i in range(len(asc) - 1, -1, -1):
        c = asc[i]
        if c == 0:
            continue
        xs = "" if i == 0 else ("x" if i == 1 else "x^%d" % i)
        parts.append(xs if c == 1 and i > 0 else "%d%s" % (c, xs))
    return "+".join(parts) if parts else "0"


def seeded_rng(seed, label):
    """An independent random stream per (seed, purpose)."""
    return random.Random("%d/%s" % (seed, label))
