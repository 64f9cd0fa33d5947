"""Grammar surface: precedence, errors with byte offsets, field syntax."""
import pytest

from wavesym.charts import AUG_COORDS, BASE_COORDS, augmented_chart
from wavesym.classif import builtin_catalog
from wavesym.expr import (SingularValue, UnknownIdentifier, add, equal, mul,
                          rat, sym)
from wavesym.parse import ParseError, parse, parse_vector_field
from wavesym.vecfield import VectorField


def test_precedence(ch):
    assert equal(parse("1 + 2*3^2", ch), rat(19))
    # ^ is right-associative
    assert equal(parse("2^3^2", ch), rat(512))
    assert equal(parse("-2^2", ch), rat(-4))
    assert equal(parse("6/4", ch), rat(3) / rat(2))
    assert equal(parse("2*x/x", ch), rat(2))


def test_unary_minus(ch):
    assert equal(parse("-x + x", ch), rat(0))
    assert equal(parse("--x", ch), sym(ch.get("x")))


def test_jet_names(ch):
    assert parse("u_xt", ch) == parse("u_tx", ch)
    assert parse("u_ttx", ch) == sym(ch.jet("u", 2, 1))


def test_ln_abs_spelling(ch):
    assert parse("ln(abs(u_x))", ch) == parse("lnabs(u_x)", ch)
    with pytest.raises(ParseError):
        parse("ln(u_x)", ch)


def test_syntax_error_offset(ch):
    with pytest.raises(ParseError) as err:
        parse("x + $", ch)
    assert "offset 4" in str(err.value)


def test_unknown_identifier(ch):
    with pytest.raises(UnknownIdentifier):
        parse("x + bogus", ch)


def test_idempotent_parameter_in_a_denominator(ch):
    """eps may be 0, so no text that divides by it parses, even where the
    quotient would cancel; eps^2 = eps still folds."""
    for text in ("eps/eps", "eps^(1/2)*eps^(-1/2)", "1/eps", "x*eps^(-2)"):
        with pytest.raises(SingularValue, match="eps may be 0"):
            parse(text, ch)
    assert parse("eps^2/eps^0", ch) == parse("eps", ch)


def test_arity_mismatch(ch):
    with pytest.raises(ParseError):
        parse("f(x)", ch)


def test_explicit_args(ch):
    e = parse("F(x - eps*lnabs(u_x))", ch)
    assert e.fn.name == "F"
    # default-argument application prints bare and round-trips
    assert parse("f", ch) == parse("f(x,u_x)", ch)


def _coefficient_texts(text):
    """(sign, coefficient, coordinate) of each top-level term of a field:
    a reference split of the field syntax by characters."""
    terms, depth, cur, sign = [], 0, "", 1
    for c in text:
        depth += (c == "(") - (c == ")")
        if depth == 0 and c in "+-":
            if cur.strip():
                terms.append((sign, cur))
                cur, sign = "", 1
            sign *= -1 if c == "-" else 1
            continue
        cur += c
    terms.append((sign, cur))
    return [(sign, *(part.strip() for part in term.rsplit("@", 1)))
            for sign, term in terms]


def test_vector_field_syntax(ch):
    V = parse_vector_field("2*t@t + u@u", ch, BASE_COORDS)
    assert equal(V.coeff("t"), mul(rat(2), sym(ch.get("t"))))
    assert equal(V.coeff("u"), sym(ch.get("u")))
    W = parse_vector_field("-p*t@t + eps@x + u@u", ch, BASE_COORDS)
    assert equal(W.coeff("t"), mul(rat(-1), sym(ch.get("p")), sym(ch.get("t"))))
    X = parse_vector_field("t^(-2)@t - (x+1)@x", ch, BASE_COORDS)
    assert equal(X.coeff("x"), mul(rat(-1), parse("x+1", ch)))
    # errors carry the offset of the offending token
    for text, pos in (("2*t", 3), ("1@nope", 2), ("t@q", 2),
                      ("2*t@t + @u", 8), ("t@t + 2*x", 9), ("", 0),
                      ("t@t@t", 3)):
        with pytest.raises(ParseError) as err:
            parse_vector_field(text, ch, BASE_COORDS)
        assert err.value.pos == pos, text
    aug = augmented_chart()
    assert (parse_vector_field("u@u + u_x@ux + g@g", aug, AUG_COORDS)
            == parse_vector_field("u@u + u_x@u_x + g@g", aug, AUG_COORDS))
    # every catalog generator is the field of its coefficient texts, each
    # parsed on its own
    n = 0
    for case in builtin_catalog():
        for text in case.generators:
            coeffs = {}
            for sign, coeff, coord in _coefficient_texts(text):
                e = mul(rat(sign), parse(coeff, ch))
                coeffs[coord] = add(coeffs[coord], e) if coord in coeffs else e
            assert (parse_vector_field(text, ch, BASE_COORDS)
                    == VectorField(ch, BASE_COORDS, coeffs)), (case.id, text)
            n += 1
    assert n >= 32
