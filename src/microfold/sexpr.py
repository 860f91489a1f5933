"""Minimal s-expression reader/writer.

This is deliberately not Scheme: just nested lists, bare symbols, quoted
strings (escapes limited to \\" and \\\\), the ' prefix, and ';' line
comments.  It covers manifests, pin files, and the canonical serializations
of derivations, packages, and revisions.
"""

from __future__ import annotations

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


_DELIMS = "()'\";"


def tokenize(text: str):
    """Yield (kind, value, position) triples.

    kind is "punct" (value one of ( ) '), "string" (value is the decoded
    string), or "atom" (value is a Sym).  Strings must be tagged: a string
    literal containing just ")" is otherwise indistinguishable from the
    closing delimiter.
    """
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
        elif c in "()'":
            yield "punct", c, i
            i += 1
        elif c == '"':
            start = i
            i += 1
            out = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", position=start)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in '"\\':
                        raise ParseError("bad escape (only \\\" and \\\\ allowed)",
                                         position=i)
                    out.append(text[i + 1])
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    out.append(c)
                    i += 1
            yield "string", "".join(out), start
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in _DELIMS:
                i += 1
            yield "atom", Sym(text[start:i]), start


def parse_all(text: str) -> list:
    """Parse text into a list of top-level forms."""
    tokens = list(tokenize(text))
    forms, pos = _parse_seq(tokens, 0, top=True)
    return forms


def parse_one(text: str):
    forms = parse_all(text)
    if len(forms) != 1:
        raise ParseError(f"expected exactly one form, got {len(forms)}")
    return forms[0]


def _parse_seq(tokens, i, top=False):
    forms = []
    while i < len(tokens):
        kind, tok, pos = tokens[i]
        if kind == "punct" and tok == ")":
            if top:
                raise ParseError("unbalanced ')'", position=pos)
            return forms, i
        form, i = _parse_form(tokens, i)
        forms.append(form)
    if not top:
        raise ParseError("unterminated list")
    return forms, i


def _parse_form(tokens, i):
    kind, tok, pos = tokens[i]
    if kind == "punct" and tok == "(":
        forms, i = _parse_seq(tokens, i + 1)
        return forms, i + 1
    if kind == "punct" and tok == "'":
        if i + 1 >= len(tokens):
            raise ParseError("' with nothing to quote", position=pos)
        inner, i = _parse_form(tokens, i + 1)
        return Quoted(inner), i
    if kind == "punct":
        raise ParseError("unbalanced ')'", position=pos)
    return tok, i + 1


def quote_string(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unparse(form) -> str:
    """Render a form with exactly one space between tokens."""
    if isinstance(form, Sym):
        return form.name
    if isinstance(form, str):
        return quote_string(form)
    if isinstance(form, Quoted):
        return "'" + unparse(form.value)
    if isinstance(form, (list, tuple)):
        return "(" + " ".join(unparse(f) for f in form) + ")"
    raise TypeError(f"cannot unparse {form!r}")
