import string

import pytest
from hypothesis import given, settings, strategies as st

import sexpr_model
from microfold import derivation as d
from microfold.channel import (ChannelPin, PackageDef, parse_package, parse_pin,
                               parse_revision, render_pin, serialize_package,
                               serialize_revision)
from microfold.derivation import (Derivation, InputRef, SourceRef,
                                  canonical_serialize, parse_derivation)
from microfold.errors import ParseError
from microfold.hashing import ContentHash
from microfold.manifest import Manifest, Spec
from microfold.sexpr import (Quoted, Sym, encode, parse_all, parse_one,
                             quote_string, read_fields, read_items, unparse)


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


def test_unparse_writes_bytes_as_they_are():
    """A bytes string is decoded with surrogateescape, and encode turns the
    text back into the same bytes, so none is lost or re-encoded."""
    data = b'\xff"\\\xc3\xa9'
    assert unparse(data) == quote_string(data.decode("utf-8", "surrogateescape"))
    assert encode([Sym("w"), data]) == b'(w "\xff\\"\\\\\xc3\xa9")'
    assert parse_one(encode([data])) == [data.decode("utf-8", "surrogateescape")]


def test_deep_nesting_parses_without_recursion():
    """Open lists are kept on a stack: depth is not bounded by the
    interpreter's recursion limit."""
    form = parse_one("(" * 5000 + "x" + ")" * 5000)
    depth = 0
    while isinstance(form, list):
        form, depth = form[0], depth + 1
    assert (form, depth) == (Sym("x"), 5000)
    form = parse_one("'" * 5000 + "x")
    for _ in range(5000):
        form = form.value
    assert form == Sym("x")
    with pytest.raises(ParseError, match="unterminated list"):
        parse_one("(" * 5000)


FIELDS = {"name": str, "parent": Sym, "source": (Sym, list), "deps": [str]}
GOOD = '(rec (name "n") (parent nil) (source (inline "x")) (deps "a" "b"))'


def test_read_fields():
    assert read_fields(parse_one(GOOD), "rec", FIELDS) == {
        "name": "n", "parent": Sym("nil"), "source": [Sym("inline"), "x"],
        "deps": ["a", "b"]}
    assert read_fields(parse_one('(rec (deps) (source nil) (parent p) (name "n"))'),
                       "rec", FIELDS)["deps"] == []
    deep = "(" * 2000 + ")" * 2000  # a message never prints the form
    with pytest.raises(ParseError, match="rec field 'name'"):
        read_fields(parse_one(GOOD.replace('"n"', deep)), "rec", FIELDS)


@pytest.mark.parametrize("text, message", [
    (GOOD.replace("(rec", "(other"), "expected a \\(rec"),
    ("rec", "expected a \\(rec"),
    ("()", "expected a \\(rec"),
    (GOOD.replace(')', ') (name "m")', 1), "duplicate rec field 'name'"),
    (GOOD.replace('(parent nil) ', ''), "rec missing field 'parent'"),
    (GOOD.replace(')', ') (extra "e")', 1), "unknown rec field 'extra'"),
    (GOOD.replace('(name "n")', "(name n)"), "rec field 'name'"),
    (GOOD.replace('(name "n")', '(name "n" "m")'), "rec field 'name'"),
    (GOOD.replace('(name "n")', "(name)"), "rec field 'name'"),
    (GOOD.replace("(parent nil)", '(parent "nil")'), "rec field 'parent'"),
    (GOOD.replace('"b"', "b"), "rec field 'deps'"),
    (GOOD.replace('(name "n")', '"name"'), "a rec field must be"),
])
def test_read_fields_rejects(text, message):
    """The head is right, each field appears once, none is missing or
    unknown, and each value has its type."""
    with pytest.raises(ParseError, match=message):
        read_fields(parse_one(text), "rec", FIELDS)


def test_read_items():
    assert read_items(parse_one('(input abc "l")'), Sym("input"), Sym, str) \
        == [Sym("input"), Sym("abc"), "l"]
    for bad in ['(output abc "l")', '(input "abc" "l")', "(input abc)",
                '(input abc "l" x)', "input"]:
        with pytest.raises(ParseError, match="expected a \\(input Sym str\\) form"):
            read_items(parse_one(bad), Sym("input"), Sym, str)


# -- the writers against the reference encoder (tests/sexpr_model.py) ------

def _decoded(data: bytes) -> str:
    return data.decode("utf-8", "surrogateescape")


# Quotes, backslashes, non-ASCII, and text decoded from bytes that are not
# UTF-8, as an argument read from a file with surrogateescape holds it.
texts = st.one_of(st.text(alphabet='ab "\\é中;()\'', max_size=8),
                  st.binary(max_size=8).map(_decoded))
hashes = st.binary(min_size=32, max_size=32).map(lambda b: ContentHash(b.hex()))
labels = st.text(alphabet=string.ascii_letters + string.digits + "._+-",
                 min_size=1, max_size=6)
segments = st.text(alphabet='ab "\\é;', min_size=1, max_size=4).filter(
    lambda s: s not in (".", ".."))
paths = st.lists(segments, min_size=1, max_size=3).map("/".join)
steps = st.one_of(
    st.builds(d.write, paths, st.binary(max_size=12)),
    st.builds(d.mkdir, paths),
    st.builds(d.copy, paths, paths),
    st.builds(lambda dst, srcs: d.concat(dst, *srcs), paths,
              st.lists(paths, min_size=1, max_size=3)),
    st.builds(d.substitute, paths, st.binary(max_size=6), st.binary(max_size=6)),
    st.builds(d.set_exec, paths),
    st.builds(lambda prog, args: d.exec_(prog, *args), paths,
              st.lists(texts, min_size=1, max_size=3)))
sources = st.builds(SourceRef, texts, hashes, texts)
derivations = st.builds(
    Derivation, name=labels, version=labels,  # a source's label names a store path
    sources=st.lists(st.builds(SourceRef, texts, hashes, labels), max_size=3,
                     unique_by=lambda s: s.expected_hash.hex),
    inputs=st.lists(st.builds(InputRef, hashes, texts), max_size=3,
                    unique_by=lambda i: i.derivation_hash.hex),
    steps=st.lists(steps, max_size=4),
    env=st.dictionaries(texts, texts, max_size=3))
packages = st.builds(
    PackageDef, name=texts, version=texts, synopsis=texts,
    source=st.one_of(st.none(), st.binary(max_size=12), sources),
    deps=st.lists(texts, max_size=3), steps=st.lists(steps, max_size=3))
pins = st.lists(st.builds(ChannelPin, texts, texts, hashes.map(lambda h: h.hex)),
                min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(derivations, packages, st.one_of(st.none(), hashes),
       st.dictionaries(texts, hashes, max_size=4), texts, pins,
       st.lists(st.builds(Spec, labels, st.one_of(st.none(), labels)), max_size=3))
def test_writers_match_the_reference_encoder(drv, pkg, parent, tree, message,
                                             pin_list, specs):
    """Each canonical form comes out of sexpr.unparse byte for byte as the
    reference lays it out, and reads back to the same bytes."""
    data = canonical_serialize(drv)
    assert data == sexpr_model.derivation_bytes(drv)
    assert canonical_serialize(parse_derivation(data)) == data
    data = serialize_package(pkg)
    assert data == sexpr_model.package_bytes(pkg)
    assert serialize_package(parse_package(data)) == data
    data = serialize_revision(parent, tree, message)
    assert data == sexpr_model.revision_bytes(parent, tree, message)
    rev = parse_revision(data, ContentHash.of_bytes(data))
    assert (rev.parent, rev.tree, rev.message) == (parent, tree, message)
    text = render_pin(pin_list)
    assert text.encode("utf-8", "surrogateescape") == sexpr_model.pin_bytes(pin_list)
    assert parse_pin(text) == pin_list
    assert Manifest(specs).render().encode() == sexpr_model.manifest_bytes(specs)
