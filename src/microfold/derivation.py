"""Derivations: build recipes treated as pure functions.

A derivation's identity is the SHA-256 of its canonical serialization, an
s-expression with exactly one space between tokens and string escaping
limited to \\" and \\\\.  Input references embed the inputs' derivation
hashes, so any change anywhere in the dependency graph changes every
downstream hash.
"""

from __future__ import annotations

from typing import NamedTuple

from . import sexpr
from .errors import (DanglingReference, InvariantViolation, ParseError,
                     StoreCorruption)
from .hashing import ContentHash
from .store import LABEL_RE

SYSTEM = "generic"

# Step operations and their arity (-1 = variadic tail).
_STEP_OPS = {
    "write": 2,
    "mkdir": 1,
    "copy": 2,
    "concat": -1,
    "substitute": 3,
    "set-exec": 1,
    "exec": -1,
}

# Which argument positions carry literal bytes rather than paths/strings.
_BYTES_ARGS = {"write": {1}, "substitute": {1, 2}}


class SourceRef(NamedTuple):
    url: str
    expected_hash: ContentHash
    label: str


class InputRef(NamedTuple):
    derivation_hash: ContentHash
    label: str


class Step(NamedTuple("Step", [("op", str), ("args", tuple)])):
    __slots__ = ()

    def __new__(cls, op: str, args: tuple):
        arity = _STEP_OPS.get(op)
        if arity is None:
            raise InvariantViolation(f"unknown step op {op!r}")
        if arity >= 0 and len(args) != arity:
            raise InvariantViolation(f"{op} takes {arity} args, got {len(args)}")
        if arity < 0 and len(args) < 2:
            raise InvariantViolation(f"{op} needs at least 2 args")
        return super().__new__(cls, op, args)


def write(path: str, data: bytes) -> Step:
    return Step("write", (path, data))


def mkdir(path: str) -> Step:
    return Step("mkdir", (path,))


def copy(src: str, dst: str) -> Step:
    return Step("copy", (src, dst))


def concat(dst: str, *srcs: str) -> Step:
    return Step("concat", (dst, *srcs))


def substitute(path: str, pattern: bytes, replacement: bytes) -> Step:
    return Step("substitute", (path, pattern, replacement))


def set_exec(path: str) -> Step:
    return Step("set-exec", (path,))


def exec_(program: str, *args: str) -> Step:
    return Step("exec", (program, *args))


def _check_rel_path(p: str):
    if not p or p.startswith("/") or "\x00" in p:
        raise InvariantViolation(f"step path must be relative: {p!r}")
    if ".." in p.split("/"):
        raise InvariantViolation(f"step path may not traverse upward: {p!r}")


class Derivation:
    def __init__(self, name: str, version: str, sources: list | None = None,
                 inputs: list | None = None, steps: list | None = None,
                 env: dict | None = None, system: str = SYSTEM):
        self.name, self.version, self.system = name, version, system
        self.sources = [] if sources is None else sources
        self.inputs = [] if inputs is None else inputs
        self.steps = [] if steps is None else steps
        self.env = {} if env is None else env

    def __eq__(self, other):
        return type(other) is Derivation and vars(self) == vars(other)

    @property
    def label(self) -> str:
        return f"{self.name}-{self.version}"

    def validate(self):
        if not LABEL_RE.match(self.label):
            raise InvariantViolation(f"bad name-version label: {self.label!r}")
        if self.system != SYSTEM:
            raise InvariantViolation(f"unsupported system {self.system!r}")
        hashes = [s.expected_hash.hex for s in self.sources]
        if len(set(hashes)) != len(hashes):
            raise InvariantViolation("duplicate source hashes")
        in_hashes = [i.derivation_hash.hex for i in self.inputs]
        if len(set(in_hashes)) != len(in_hashes):
            raise InvariantViolation("duplicate input hashes")
        for step in self.steps:
            for i, arg in enumerate(step.args):
                if i in _BYTES_ARGS.get(step.op, set()):
                    continue
                if step.op == "exec" and i > 0:
                    continue  # exec args are opaque strings
                _check_rel_path(arg)


def _qb(data: bytes) -> bytes:
    return b'"' + data.replace(b"\\", b"\\\\").replace(b'"', b'\\"') + b'"'


def _qs(text: str) -> bytes:
    return _qb(text.encode("utf-8", "surrogateescape"))


def _step_bytes(step: Step) -> bytes:
    parts = [step.op.encode()]
    bytes_args = _BYTES_ARGS.get(step.op, set())
    for i, arg in enumerate(step.args):
        parts.append(_qb(arg) if i in bytes_args and isinstance(arg, bytes)
                     else _qs(arg))
    return b"(" + b" ".join(parts) + b")"


def canonical_serialize(drv: Derivation) -> bytes:
    """Render the derivation's identity bytes.

    Field order is fixed; sources, inputs, and env are sorted so equal
    derivations built in any insertion order serialize identically.
    """
    drv.validate()
    parts = [
        b"(derivation",
        b"(name " + _qs(drv.name) + b")",
        b"(version " + _qs(drv.version) + b")",
        b"(system " + _qs(drv.system) + b")",
    ]
    src = [b"(source " + _qs(s.url) + b" " + s.expected_hash.hex.encode()
           + b" " + _qs(s.label) + b")"
           for s in sorted(drv.sources, key=lambda s: s.expected_hash.hex)]
    parts.append(b"(sources" + (b" " if src else b"") + b" ".join(src) + b")")
    inp = [b"(input " + i.derivation_hash.hex.encode() + b" " + _qs(i.label) + b")"
           for i in sorted(drv.inputs, key=lambda i: i.derivation_hash.hex)]
    parts.append(b"(inputs" + (b" " if inp else b"") + b" ".join(inp) + b")")
    steps = [_step_bytes(s) for s in drv.steps]
    parts.append(b"(steps" + (b" " if steps else b"") + b" ".join(steps) + b")")
    env = [b"(" + _qs(k) + b" " + _qs(v) + b")"
           for k, v in sorted(drv.env.items())]
    parts.append(b"(env" + (b" " if env else b"") + b" ".join(env) + b")")
    return b" ".join(parts) + b")"


def derivation_hash(drv: Derivation) -> ContentHash:
    return ContentHash.of_bytes(canonical_serialize(drv))


# -- parsing (for drv files fed to the CLI and for trust audits) ----------

def _expect_str(form, what):
    if not isinstance(form, str):
        raise ParseError(f"expected string for {what}, got {form!r}")
    return form


def _parse_step(form) -> Step:
    if not isinstance(form, list) or not form or not isinstance(form[0], sexpr.Sym):
        raise ParseError(f"bad step form: {form!r}")
    op = form[0].name
    if op not in _STEP_OPS:
        raise ParseError(f"unknown step op {op!r}")
    args = []
    bytes_args = _BYTES_ARGS.get(op, set())
    for i, arg in enumerate(form[1:]):
        text = _expect_str(arg, f"{op} argument")
        args.append(text.encode("utf-8", "surrogateescape")
                    if i in bytes_args else text)
    return Step(op, tuple(args))


def parse_derivation(text: str) -> Derivation:
    form = sexpr.parse_one(text)
    if (not isinstance(form, list) or not form
            or form[0] != sexpr.Sym("derivation")):
        raise ParseError("not a derivation form")
    fields = {}
    for entry in form[1:]:
        if not isinstance(entry, list) or not entry or not isinstance(entry[0], sexpr.Sym):
            raise ParseError(f"bad derivation field: {entry!r}")
        fields[entry[0].name] = entry[1:]
    for req in ("name", "version", "system", "sources", "inputs", "steps", "env"):
        if req not in fields:
            raise ParseError(f"derivation missing field {req!r}")
    sources = []
    for s in fields["sources"]:
        if not isinstance(s, list) or len(s) != 4 or s[0] != sexpr.Sym("source"):
            raise ParseError(f"bad source form: {s!r}")
        sources.append(SourceRef(url=_expect_str(s[1], "url"),
                                 expected_hash=ContentHash(str(s[2])),
                                 label=_expect_str(s[3], "label")))
    inputs = []
    for i in fields["inputs"]:
        if not isinstance(i, list) or len(i) != 3 or i[0] != sexpr.Sym("input"):
            raise ParseError(f"bad input form: {i!r}")
        inputs.append(InputRef(derivation_hash=ContentHash(str(i[1])),
                               label=_expect_str(i[2], "label")))
    env = {}
    for e in fields["env"]:
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"bad env form: {e!r}")
        env[_expect_str(e[0], "env key")] = _expect_str(e[1], "env value")
    drv = Derivation(
        name=_expect_str(fields["name"][0], "name"),
        version=_expect_str(fields["version"][0], "version"),
        system=_expect_str(fields["system"][0], "system"),
        sources=sources,
        inputs=inputs,
        steps=[_parse_step(s) for s in fields["steps"]],
        env=env,
    )
    drv.validate()
    return drv


def load_derivation(store, drv_hash: ContentHash) -> Derivation:
    """The derivation registered in the store under drv_hash.

    Derivation files are named by their hash and never change, so each is
    checked against its name and parsed once per Store; every caller gets
    the same object.
    """
    drv = store.derivations.get(drv_hash.hex)
    if drv is None:
        data = store.get_derivation_bytes(drv_hash)
        if data is None:
            raise DanglingReference(
                f"derivation {drv_hash} not registered in store")
        actual = ContentHash.of_bytes(data)
        if actual != drv_hash:
            raise StoreCorruption(f"derivation {drv_hash}: bytes hash to {actual}")
        drv = parse_derivation(data.decode("utf-8", "surrogateescape"))
        store.derivations[drv_hash.hex] = drv
    return drv
