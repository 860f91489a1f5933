import string

import pytest
from hypothesis import given, strategies as st

from microfold.errors import ParseError
from microfold.sexpr import (Quoted, Sym, parse_all, parse_one, quote_string,
                             unparse)


def test_basic_forms():
    assert parse_one("(a b)") == [Sym("a"), Sym("b")]
    assert parse_one('(f "hello world")') == [Sym("f"), "hello world"]
    assert parse_one("'(\"x\")") == Quoted(["x"])
    assert parse_all("a b (c)") == [Sym("a"), Sym("b"), [Sym("c")]]
    assert parse_one("(a (b (c)))") == [Sym("a"), [Sym("b"), [Sym("c")]]]


def test_quoted_string_is_not_a_symbol():
    """'"nil" is data, never the symbol nil that the readers test for."""
    assert parse_one("'\"nil\"") != Sym("nil")
    assert parse_one("(\"nil\")") != [Sym("nil")]


def test_comments_and_whitespace():
    assert parse_one("; header\n(a ; inline\n b)\n") == [Sym("a"), Sym("b")]
    assert parse_one("(\n  a\tb\n)") == [Sym("a"), Sym("b")]


def test_string_escapes():
    assert parse_one('("a\\"b" "c\\\\d")') == ['a"b', "c\\\\d".replace("\\\\", "\\")]
    with pytest.raises(ParseError):
        parse_one('("bad \\n escape")')
    with pytest.raises(ParseError):
        parse_one('("unterminated')


def test_delimiters_inside_strings_are_data():
    assert parse_one('(")" "(" "\'" ";")') == [")", "(", "'", ";"]
    assert parse_all('")"') == [")"]


def test_parse_errors_with_position():
    with pytest.raises(ParseError):
        parse_one("(a))")
    with pytest.raises(ParseError):
        parse_one("((a)")
    with pytest.raises(ParseError):
        parse_one("a b")  # two forms
    with pytest.raises(ParseError):
        parse_one("'")


def test_unparse_is_canonical():
    form = [Sym("steps"), [Sym("write"), "a.txt", 'say "hi"'],
            Quoted(["x"])]
    assert unparse(form) == '(steps (write "a.txt" "say \\"hi\\"") \'("x"))'


atoms = st.one_of(
    st.text(alphabet=string.printable, max_size=12),
    st.text(alphabet=string.ascii_lowercase + "-+._", min_size=1,
            max_size=8).map(Sym))
forms = st.recursive(atoms,
                     lambda inner: st.one_of(
                         st.lists(inner, max_size=4),
                         inner.map(Quoted)),
                     max_leaves=20)


@given(st.lists(forms, max_size=4))
def test_round_trip_property(top):
    text = " ".join(unparse(f) for f in top)
    assert parse_all(text) == top


def test_quote_string_round_trips():
    for s in ["", "plain", 'has "quotes"', "back\\slash", '\\"mix\\"']:
        assert parse_one("(" + quote_string(s) + ")") == [s]
