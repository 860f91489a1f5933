"""The one s-expression codec: `unparse` writes every form, `parse_all`
reads them.

This is deliberately not Scheme: just nested lists, bare symbols, quoted
strings (escapes limited to \\" and \\\\), the ' prefix, and ';' line
comments.  It covers manifests, pin files, and the canonical serializations
of derivations, packages, and revisions.  `unparse` puts exactly one space
between tokens and quotes str and bytes (decoded with surrogateescape);
`encode` turns the text back into bytes the same way, so canonical bytes
hold each bytes string as it is.  `parse_all` keeps open lists on a stack,
so no depth of nesting exhausts the interpreter's.  `read_fields` reads a
record, `(head (key value ...) ...)`: the head is right, each field appears
once, none is missing or unknown, and each value has its field's type;
`read_map` reads (key value) pairs, each key once.  No error message
renders a parsed form, which may be too deep to print.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError


class Sym(NamedTuple):
    name: str

    def __repr__(self):
        return self.name


class Quoted:
    """'value.  Not a tuple, so that '"nil" never equals Sym("nil")."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is Quoted and self.value == other.value

    def __repr__(self):
        return f"Quoted(value={self.value!r})"


# Whitespace and comments, then one token: (1) ( ) or ', (2) the body of a
# string, (3) an atom, (4) a '"' that opens a bad string, or the end.  After
# the greedy skip the next character always matches, so there is no
# backtracking.
_TOKEN = re.compile(r"""(?:\s|;[^\n]*)*(?:([()'])"""
                    r'''|"([^"\\]*(?:\\["\\][^"\\]*)*)"|([^\s()'";]+)|(.)|\Z)''')
_ESCAPE = re.compile(r'\\(["\\])')


def parse_all(text) -> list:
    """Parse text, a str or bytes, into a list of top-level forms."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", "surrogateescape")
    forms = top = []
    stack = []  # per open list: the list holding it, its quotes, its position
    quotes = 0  # ' prefixes waiting for the next form
    for m in _TOKEN.finditer(text):
        punct, string, atom, bad = m.groups()
        if punct == "'":
            quotes += 1
            continue
        if punct == "(":
            stack.append((forms, quotes, m.start(1)))
            forms, quotes = [], 0
            continue
        if punct:
            if not stack or quotes:
                raise ParseError("unbalanced ')'", position=m.start(1))
            form = forms
            forms, quotes, _ = stack.pop()
        elif string is not None:
            form = _ESCAPE.sub(r"\1", string) if "\\" in string else string
        elif atom:
            form = Sym(atom)
        elif bad:
            raise ParseError("unterminated string or bad escape "
                             "(only \\\" and \\\\ allowed)", position=m.start(4))
        else:
            break
        for _ in range(quotes):
            form = Quoted(form)
        quotes = 0
        forms.append(form)
    if stack:
        raise ParseError("unterminated list", position=stack[-1][2])
    if quotes:
        raise ParseError("' with nothing to quote", position=len(text))
    return top


def parse_one(text):
    forms = parse_all(text)
    if len(forms) != 1:
        raise ParseError(f"expected exactly one form, got {len(forms)}")
    return forms[0]


def read_fields(form, head: str, fields: dict) -> dict:
    """The values of the record form `(head (key value ...) ...)`, by key.

    fields maps every key to its value's type: a type (or a tuple of
    types) for exactly one value, or `[type]` for any number of values of
    that type, which are returned as a list.
    """
    if not isinstance(form, list) or form[:1] != [Sym(head)]:
        raise ParseError(f"expected a ({head} ...) form")
    values = {}
    for entry in form[1:]:
        if not isinstance(entry, list) or not entry or not isinstance(entry[0], Sym):
            raise ParseError(f"a {head} field must be a (key value ...) list")
        key = entry[0].name
        kind = fields.get(key)
        if kind is None:
            raise ParseError(f"unknown {head} field {key!r}")
        if key in values:
            raise ParseError(f"duplicate {head} field {key!r}")
        if type(kind) is list:
            if not all(isinstance(v, kind[0]) for v in entry[1:]):
                raise ParseError(f"{head} field {key!r} holds a value of the wrong type")
            values[key] = entry[1:]
        elif len(entry) != 2 or not isinstance(entry[1], kind):
            raise ParseError(f"{head} field {key!r} must hold one value of its type")
        else:
            values[key] = entry[1]
    for key in fields:
        if key not in values:
            raise ParseError(f"{head} missing field {key!r}")
    return values


def read_items(form, *kinds) -> list:
    """form, when it is a list with one item per kind, each an instance of
    its kind, or for a Sym kind, that symbol."""
    if (not isinstance(form, list) or len(form) != len(kinds) or not all(
            item == kind if type(kind) is Sym else isinstance(item, kind)
            for item, kind in zip(form, kinds))):
        shape = " ".join(k.name if type(k) is Sym else k.__name__ for k in kinds)
        raise ParseError(f"expected a ({shape}) form")
    return form


def read_map(forms, key_kind, value_kind) -> dict:
    """The (key value) forms, each read by read_items, as a dict; no key
    may appear twice, so that one text names one mapping."""
    pairs = dict(read_items(form, key_kind, value_kind) for form in forms)
    if len(pairs) != len(forms):
        raise ParseError("a key appears twice")
    return pairs


def quote_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unparse(form) -> str:
    """Render a form with exactly one space between tokens."""
    if isinstance(form, str):
        return quote_string(form)
    if isinstance(form, Sym):
        return form.name
    if isinstance(form, (list, tuple)):
        return "(" + " ".join(map(unparse, form)) + ")"
    if isinstance(form, bytes):
        return quote_string(form.decode("utf-8", "surrogateescape"))
    if isinstance(form, Quoted):
        return "'" + unparse(form.value)
    raise TypeError(f"cannot unparse {type(form).__name__}")


def encode(form) -> bytes:
    """unparse(form) as bytes, encoded with surrogateescape."""
    return unparse(form).encode("utf-8", "surrogateescape")
