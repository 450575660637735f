import pytest

from permdyn.errors import MalformedInput
from permdyn.fields import GF
from permdyn.polys import Poly
from permdyn.textio import format_poly, format_poly_csv, parse_poly

F2 = GF.prime(2)
F3 = GF.prime(3)
F4 = GF.extension(F2, [1, 1, 1])


@pytest.mark.parametrize("text,coeffs", [
    ("x^4+x+1", [1, 1, 0, 0, 1]),
    ("x", [0, 1]),
    ("1", [1]),
    ("0", [0]),
    ("x^2 + x + 1", [1, 1, 1]),
    ("x^3-x+1", [1, 1, 0, 1]),
    ("2*x^2+1", [1, 0, 0]),
])
def test_parse_human_over_f2(text, coeffs):
    assert parse_poly(F2, text) == Poly(F2, coeffs)


def test_parse_signs_and_unicode_minus():
    assert parse_poly(F3, "x^3-x+1") == Poly(F3, [1, 2, 0, 1])
    assert parse_poly(F3, "x^3−x+1") == Poly(F3, [1, 2, 0, 1])
    assert parse_poly(F3, "-x") == Poly(F3, [0, 2])
    assert parse_poly(F3, "x-x") == Poly.zero(F3)
    # a run of signs multiplies out
    assert parse_poly(F3, "x^4--x") == parse_poly(F3, "x^4+x")
    assert parse_poly(F3, "x^4-+x") == parse_poly(F3, "x^4-x")
    assert parse_poly(F3, "--x") == Poly(F3, [0, 1])


def test_parse_coefficient_forms():
    assert parse_poly(F3, "2x^2+2") == Poly(F3, [2, 0, 2])
    assert parse_poly(F3, "2*x^2") == Poly(F3, [0, 0, 2])
    assert parse_poly(F3, "4x") == Poly(F3, [0, 1])  # reduced mod p
    assert parse_poly(F4, "[1,1]x^2+[0,1]x+1") == Poly(F4, [1, 2, 3])
    assert parse_poly(F4, "[1]x+[ 1 , 1 ]") == Poly(F4, [3, 1])


def test_parse_repeated_terms_accumulate():
    assert parse_poly(F3, "x+x+x") == Poly.zero(F3)
    assert parse_poly(F3, "x^2+x^2") == Poly(F3, [0, 0, 2])


def test_parse_csv_forms():
    assert parse_poly(F2, "1,1,0,0,1") == parse_poly(F2, "x^4+x+1")
    assert parse_poly(F4, "3,0,1") == Poly(F4, [3, 0, 1])
    assert parse_poly(F3, "1,-1") == Poly(F3, [1, 2])
    with pytest.raises(MalformedInput):
        parse_poly(F4, "1,4")  # encoding out of range
    with pytest.raises(MalformedInput):
        parse_poly(F2, "1,zz")


@pytest.mark.parametrize("bad", ["", "  ", "x^", "x^^2", "y+1", "x^2+*", "[1,1", "x**2",
                                 "x^4+x+1+", "x+1-", "x]+[1", "+"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedInput):
        parse_poly(F2, bad)


def test_format_poly():
    assert format_poly(parse_poly(F2, "x^4+x+1")) == "x^4+x+1"
    assert format_poly(parse_poly(F3, "2x^3+x^2+2")) == "2x^3+x^2+2"
    assert format_poly(Poly.zero(F3)) == "0"
    assert format_poly(Poly.const(F3, 2)) == "2"
    assert format_poly(parse_poly(F4, "[1,1]x^2+x+[0,1]")) == "[1,1]x^2+x+[0,1]"


def test_format_parse_roundtrip_exhaustive():
    for field in (F2, F3, F4):
        for enc in range(min(field.order ** 3, 80)):
            f = Poly.from_encoding(field, enc)
            assert parse_poly(field, format_poly(f)) == f
            csv = format_poly_csv(f)
            if "," in csv or enc < field.p:
                # a lone extension-field encoding would reparse in human form
                assert parse_poly(field, csv) == f


def test_format_csv():
    assert format_poly_csv(parse_poly(F2, "x^4+x+1")) == "1,1,0,0,1"
    assert format_poly_csv(Poly.zero(F2)) == "0"
