"""Polynomial text format shared library-wide.

Two forms are accepted by the parser:
  - human form "x^4+x^3+1", with coefficients reduced mod p and
    extension-field coefficients written as bracketed ascending p-ary digit
    lists, e.g. "[1,2]x^2"; a minus sign (ASCII or unicode) negates a term;
  - CSV ascending-coefficient form "1,0,0,1,1" of integer encodings.
The printer emits human form with canonical coefficients.
"""

import re

import numpy as np

from .errors import GuardExceeded, MalformedInput
from .polys import Poly

# a coefficient, then x with an optional exponent; "*" only between the two
_TERM_RE = re.compile(r"^(?:(?:\[([^\]]*)\]|(\d+))(?:\*(?=x))?)?(?:(x)(?:\^(\d+))?)?$")

# int() refuses decimal text longer than this (Python's default digit limit)
MAX_DIGITS = 4300


def parse_int(text, guard=None):
    """int(text), with the length of the text checked before int() runs.

    Text longer than MAX_DIGITS raises GuardExceeded when it is an exponent
    with a guard (its value is above any guard) and MalformedInput otherwise.
    """
    if len(text) > MAX_DIGITS:
        if guard is not None:
            raise GuardExceeded("exponent of %d digits exceeds the guard %d" % (len(text), guard))
        raise MalformedInput("number of %d digits is too long" % len(text))
    try:
        return int(text)
    except ValueError:
        raise MalformedInput("bad number %r" % text) from None


def split_outside_brackets(text, seps):
    """Cut text at each character of seps outside [...] brackets.

    Returns (separator, piece) pairs, the separator before each piece ("" for
    the first). Unbalanced brackets raise MalformedInput.
    """
    pieces, sep, start, depth = [], "", 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if depth < 0:
            break
        if ch in seps and depth == 0:
            pieces.append((sep, text[start:i]))
            sep, start = ch, i + 1
    if depth != 0:
        raise MalformedInput("unbalanced brackets")
    return pieces + [(sep, text[start:])]


def _split_terms(s):
    """(sign, term) pairs of polynomial text; a run of signs multiplies out."""
    pieces = split_outside_brackets(s, "+-")
    if pieces[-1][0] and not pieces[-1][1]:
        raise MalformedInput("polynomial text ends in a sign")
    terms, sign = [], 1
    for sep, piece in pieces:
        sign = -sign if sep == "-" else sign
        if piece:
            terms.append((sign, piece))
            sign = 1
    return terms


def _parse_csv(field, s):
    vals = []
    for tok in s.split(","):
        v = parse_int(tok.strip())
        if abs(v) >= field.order:
            raise MalformedInput("coefficient encoding %d out of range" % v)
        vals.append(v if v >= 0 else field.neg(-v))
    return Poly(field, vals)


def parse_poly(field, text, max_degree=None):
    """Parse either polynomial text form into a Poly over `field`.

    An exponent above `max_degree` raises GuardExceeded before the dense
    coefficient array is allocated.
    """
    s = text.replace("−", "-").replace("–", "-").replace(" ", "")
    if not s:
        raise MalformedInput("empty polynomial text")
    if "x" not in s and "[" not in s and "," in s:
        return _parse_csv(field, s)
    coeffs = {}
    for sign, term in _split_terms(s):
        m = _TERM_RE.match(term)
        if not m or not any(m.groups()):
            raise MalformedInput("bad polynomial term %r" % term)
        bracket, number, xpart, exp = m.groups()
        if bracket is not None:
            if not bracket.strip():
                raise MalformedInput("empty bracket in %r" % term)
            enc = 0
            digits = bracket.split(",")
            if len(digits) > field.deg:
                raise MalformedInput("too many digits in %r" % term)
            for j, d in enumerate(digits):
                enc += parse_int(d.strip()) % field.p * field.p ** j
        elif number is not None:
            enc = parse_int(number) % field.p
        else:
            enc = 1
        if sign < 0:
            enc = field.neg(enc)
        e = 0
        if xpart is not None:
            e = 1 if exp is None else parse_int(exp, max_degree)
            if max_degree is not None and e > max_degree:
                raise GuardExceeded("exponent %d exceeds the guard %d" % (e, max_degree))
        coeffs[e] = field.add(coeffs.get(e, 0), enc)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(field, out)


def format_poly(f):
    """Human form, terms in descending degree with canonical coefficients."""
    return format_coeffs(f.field, f.coeffs[None, :])[0]


def format_coeffs(field, rows):
    """Human form of each row of a 2-D array of ascending coefficient encodings.

    Terms run in descending degree; zero coefficients are left out, and a
    coefficient 1 is written only in the constant term. A row of zeros is
    "0". Each coefficient value that occurs is given its text once, so no
    Poly is built per row. Each term is written with a trailing "+", and the
    rows are joined into one string, split, and stripped of it. An entry that is
    not an encoding of field raises PreconditionError.
    """
    rows = np.asarray(rows)
    if rows.dtype.kind in "iu":
        field.check_encodings(rows)  # integer rows, such as the orbit table's, keep their dtype
    else:
        rows = field.check_encodings(rows)
    n, D = rows.shape
    if not rows.size:
        return ["0"] * n
    # the values that occur, and the place of each entry's value among them, in the
    # least unsigned dtype that holds their count
    seen = np.zeros(int(rows.max()) + 1, dtype=bool)
    seen[rows] = True
    vals = np.flatnonzero(seen).tolist()
    slot = (np.cumsum(seen, dtype=np.min_scalar_type(len(vals))) - 1)[rows]
    texts = [_coeff_text(field, c) for c in vals]
    const = np.array([t + "+" if c else "" for c, t in zip(vals, texts)], dtype=object)
    scalar = np.array(["" if c == 1 else t for c, t in zip(vals, texts)], dtype=object)
    powers = np.array(["+", "x+"] + ["x^%d+" % i for i in range(2, D)], dtype=object)[:D]
    if len(vals) <= n:
        # the text of every (value, degree) pair takes no more room than the rows
        table = scalar[:, None] + powers
        table[:, 0] = const
        if vals[0] == 0:
            table[0] = ""
        terms = table[slot, np.arange(D)]
    else:
        terms = scalar[slot] + powers
        terms[:, 0] = const[slot[:, 0]]
        terms[rows == 0] = ""
    lines = np.full((n, D + 1), "\n", dtype=object)
    lines[:, 1:] = terms[:, ::-1]
    return [s[:-1] or "0" for s in "".join(lines.ravel().tolist()).split("\n")[1:]]


def _coeff_text(field, c):
    """The text of a coefficient encoding: below p its decimal text, else the bracketed
    list of its ascending base-p digits up to the last nonzero one."""
    if c < field.p:
        return str(c)
    digits = field.decompose(c)
    while digits[-1] == 0:
        digits.pop()
    return "[" + ",".join(map(str, digits)) + "]"


def format_poly_csv(f):
    """CSV ascending-coefficient form of integer encodings."""
    if f.is_zero:
        return "0"
    return ",".join(str(int(c)) for c in f.coeffs)
