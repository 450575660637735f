"""Reference routines that the tests check the package against."""

from permdyn.polys import Poly


def compose_mod(f, g, mod):
    """f(g(x)) mod `mod`, by Horner's rule with a reduction after every step."""
    acc = Poly.zero(f.field)
    g = g % mod
    for c in reversed(f.coeffs):
        acc = (acc * g) % mod + Poly.const(f.field, int(c))
    return acc % mod


def linearized_eval(h, ext, alpha):
    """Evaluate L_h at alpha, an element of the extension field `ext`.

    Coefficients of h embed into ext as initial-segment encodings.
    """
    q = h.field.order
    acc = 0
    for i in range(h.degree + 1):
        c = h.coeff(i)
        if c:
            acc = ext.add(acc, ext.mul(c, ext.pow(alpha, q ** i)))
    return acc
