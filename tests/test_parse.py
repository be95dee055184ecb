"""Generator list parsing: grammar, variable ordering, error positions."""

import pytest

from monozeta.parse import ParseError, parse_ideal


def test_basic_round_trip():
    ideal, order = parse_ideal("x^2*y, y^3")
    assert order == ("x", "y")
    assert ideal.generators == ((0, 3), (2, 1))
    assert ideal.n == 2


def test_juxtaposition_and_star_agree():
    for text in ["x y", "x*y", "x *y", "x* y"]:
        ideal, order = parse_ideal(text)
        assert order == ("x", "y")
        assert ideal.generators == ((1, 1),)


def test_multicharacter_names_are_atomic():
    ideal, order = parse_ideal("xy")
    assert order == ("xy",)
    assert ideal.generators == ((1,),)


def test_repeated_variable_accumulates():
    ideal, _ = parse_ideal("x*x*x^2")
    assert ideal.generators == ((4,),)


def test_numeric_suffixes_sort_naturally():
    ideal, order = parse_ideal("x2*x10, x10^2")
    assert order == ("x2", "x10")
    assert ideal.generators == ((0, 2), (1, 1))


def test_newlines_separate_generators():
    ideal, order = parse_ideal("x^2\ny")
    assert order == ("x", "y")
    assert ideal.generators == ((0, 1), (2, 0))
    # blank segments between separators are skipped
    same, _ = parse_ideal("x^2,\n\ny\n")
    assert same.generators == ideal.generators


def test_explicit_variable_order():
    ideal, order = parse_ideal("y, x", variables=("y", "x"))
    assert order == ("y", "x")
    assert ideal.generators == ((0, 1), (1, 0))
    # unused declared variables still widen the exponent vectors
    padded, _ = parse_ideal("y", variables=("y", "x"))
    assert padded.n == 2 and padded.generators == ((1, 0),)


def test_explicit_variables_must_be_distinct_identifiers():
    # ("x", "x") used to read "x^2" as the generator x^2 * x^2
    for variables, pattern in [(("x", "x"), "'x' is listed twice"),
                               (("x", "y", "x"), "'x' is listed twice"),
                               (("x", "1y"), "'1y' is not an identifier"),
                               (("x", "y z"), "'y z' is not an identifier"),
                               (("x^2",), "'x\\^2' is not an identifier")]:
        with pytest.raises(ValueError, match=pattern):
            parse_ideal("x^2", variables=variables)


def test_unknown_variable_with_explicit_order():
    with pytest.raises(ParseError, match="unknown variable 'z'") as info:
        parse_ideal("x*z", variables=("x", "y"))
    assert (info.value.line, info.value.column) == (1, 3)


ERROR_CASES = [
    ("x^" + "9" * 4301 + ", y", "exponent of 4301 digits; the limit is 4300", 1, 3),
    ("x^", "expected an integer exponent", 1, 3),
    ("x^y", "expected an integer exponent", 1, 3),
    ("2x", "integers may only appear as exponents", 1, 1),
    ("^2", "'\\^' must follow a variable", 1, 1),
    ("x*", "'\\*' must join two factors", 1, 2),
    ("", "no generators found", 1, 1),
    ("x^-1", "unexpected character '-'", 1, 3),
    ("x$y", "unexpected character", 1, 2),
    ("x,\nx^", "expected an integer exponent", 2, 3),
]


def test_error_positions():
    for text, pattern, line, column in ERROR_CASES:
        with pytest.raises(ParseError, match=pattern) as info:
            parse_ideal(text)
        assert (info.value.line, info.value.column) == (line, column), text
        assert f"line {line}, column {column}" in str(info.value)
    # the longest exponent read, at the interpreter's default digit limit
    assert parse_ideal("x^" + "9" * 4300)[0].generators == ((10**4300 - 1,),)


def test_unit_monomial_is_rejected_as_improper():
    for text in ["1", "x^0", "1, x"]:
        with pytest.raises(ValueError, match="must be proper"):
            parse_ideal(text)


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)
