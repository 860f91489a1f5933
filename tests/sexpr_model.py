"""The reference encoder of the canonical s-expression forms.

The program writes every canonical form through one writer, sexpr.unparse.
This model joins the bytes of each form by hand, field by field, as the
grammar lays them out, and shares no code with the writer, so the tests can
compare the two: derivations, package objects, revisions, pin files and
manifests must come out byte for byte the same.  Strings are quoted with
only \\" and \\\\ escaped; str values are encoded as UTF-8 with
surrogateescape, and bytes values are written as they are.
"""

_BYTES_ARGS = {"write": {1}, "substitute": {1, 2}}


def qb(data: bytes) -> bytes:
    return b'"' + data.replace(b"\\", b"\\\\").replace(b'"', b'\\"') + b'"'


def qs(text: str) -> bytes:
    return qb(text.encode("utf-8", "surrogateescape"))


def _listing(head: bytes, items: list) -> bytes:
    return b"(" + head + (b" " if items else b"") + b" ".join(items) + b")"


def step_bytes(step) -> bytes:
    parts = [step.op.encode()]
    bytes_args = _BYTES_ARGS.get(step.op, set())
    for i, arg in enumerate(step.args):
        parts.append(qb(arg) if i in bytes_args and isinstance(arg, bytes)
                     else qs(arg))
    return b"(" + b" ".join(parts) + b")"


def derivation_bytes(drv) -> bytes:
    parts = [
        b"(derivation",
        b"(name " + qs(drv.name) + b")",
        b"(version " + qs(drv.version) + b")",
        b"(system " + qs(drv.system) + b")",
        _listing(b"sources", [
            b"(source " + qs(s.url) + b" " + s.expected_hash.hex.encode()
            + b" " + qs(s.label) + b")"
            for s in sorted(drv.sources, key=lambda s: s.expected_hash.hex)]),
        _listing(b"inputs", [
            b"(input " + i.derivation_hash.hex.encode() + b" " + qs(i.label) + b")"
            for i in sorted(drv.inputs, key=lambda i: i.derivation_hash.hex)]),
        _listing(b"steps", [step_bytes(s) for s in drv.steps]),
        _listing(b"env", [b"(" + qs(k) + b" " + qs(v) + b")"
                          for k, v in sorted(drv.env.items())]),
    ]
    return b" ".join(parts) + b")"


def package_bytes(pkg) -> bytes:
    if isinstance(pkg.source, bytes):
        src = b"(inline " + qb(pkg.source) + b")"
    elif pkg.source is None:
        src = b"nil"
    else:
        src = (b"(fetch " + qs(pkg.source.url) + b" "
               + pkg.source.expected_hash.hex.encode() + b" "
               + qs(pkg.source.label) + b")")
    parts = [
        b"(package",
        b"(name " + qs(pkg.name) + b")",
        b"(version " + qs(pkg.version) + b")",
        b"(synopsis " + qs(pkg.synopsis) + b")",
        b"(source " + src + b")",
        _listing(b"deps", [qs(d) for d in pkg.deps]),
        _listing(b"steps", [step_bytes(s) for s in pkg.steps]),
    ]
    return b" ".join(parts) + b")"


def revision_bytes(parent, tree: dict, message: str) -> bytes:
    parts = [
        b"(revision",
        b"(parent " + (parent.hex.encode() if parent else b"nil") + b")",
        b"(message " + qs(message) + b")",
        _listing(b"tree", [b"(" + qs(k) + b" " + tree[k].hex.encode() + b")"
                           for k in sorted(tree)]),
    ]
    return b" ".join(parts) + b")"


def pin_bytes(pins) -> bytes:
    return _listing(b"channels", [
        b"(channel (name " + qs(p.name) + b") (url " + qs(p.url)
        + b") (commit " + qs(p.commit) + b"))" for p in pins]) + b"\n"


def manifest_bytes(specs) -> bytes:
    return (b"(specifications->manifest '("
            + b" ".join(qs(s.render()) for s in specs) + b"))\n")
