"""Derivations: build recipes treated as pure functions.

A derivation's identity is the SHA-256 of its canonical serialization:

    (derivation (name "n") (version "v") (system "generic")
      (sources (source "url" <hex> "label") ...) (inputs (input <hex> "label") ...)
      (steps (op "arg" ...) ...) (env ("key" "value") ...))

on one line, built as a form and written by `sexpr.encode` (byte arguments
of `write` and `substitute` as they are), and read back by `sexpr.parse_one`
and `sexpr.read_fields`.  Input references embed the inputs' derivation
hashes, so any change anywhere in the dependency graph changes every
downstream hash.

A `Derivation` keeps sources and inputs in hash order and env in key order,
so it equals the one its bytes parse to.  It enters the store one way,
`register_derivation`, and then travels as its hash: every layer gets it
back by `load_derivation`.
"""

from __future__ import annotations

from typing import NamedTuple

from . import sexpr
from .errors import (DanglingReference, InvariantViolation, ParseError,
                     StoreCorruption)
from .hashing import ContentHash
from .sexpr import Sym
from .store import LABEL_RE, StorePath

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
        self.sources = sorted(sources or (), key=lambda s: s.expected_hash.hex)
        self.inputs = sorted(inputs or (), key=lambda i: i.derivation_hash.hex)
        self.steps = [] if steps is None else steps
        self.env = dict(sorted((env or {}).items()))

    def __eq__(self, other):
        return type(other) is Derivation and vars(self) == vars(other)

    @property
    def label(self) -> str:
        return f"{self.name}-{self.version}"

    def validate(self):
        if not LABEL_RE.fullmatch(self.label):
            raise InvariantViolation(f"bad name-version label: {self.label!r}")
        if self.system != SYSTEM:
            raise InvariantViolation(f"unsupported system {self.system!r}")
        hashes = [s.expected_hash.hex for s in self.sources]
        if len(set(hashes)) != len(hashes):
            raise InvariantViolation("duplicate source hashes")
        for src in self.sources:
            if not LABEL_RE.fullmatch(src.label):
                raise InvariantViolation(f"bad source label: {src.label!r}")
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


def canonical_serialize(drv: Derivation) -> bytes:
    """Render the derivation's identity bytes: fixed field order, and
    sources, inputs and env in the order the Derivation keeps them."""
    drv.validate()
    return sexpr.encode([
        Sym("derivation"),
        [Sym("name"), drv.name],
        [Sym("version"), drv.version],
        [Sym("system"), drv.system],
        [Sym("sources"), *([Sym("source"), s.url, Sym(s.expected_hash.hex), s.label]
                           for s in drv.sources)],
        [Sym("inputs"), *([Sym("input"), Sym(i.derivation_hash.hex), i.label]
                          for i in drv.inputs)],
        [Sym("steps"), *([Sym(s.op), *s.args] for s in drv.steps)],
        [Sym("env"), *drv.env.items()],
    ])


def derivation_hash(drv: Derivation) -> ContentHash:
    return ContentHash.of_bytes(canonical_serialize(drv))


def register_derivation(store, drv: Derivation) -> ContentHash:
    """Put drv's bytes in the store and drv in its memo, unless one is
    there, so that load_derivation gives it back without a parse (drv must
    not change afterwards); drv's hash."""
    data = canonical_serialize(drv)
    drv_hash = ContentHash.of_bytes(data)
    store.put_derivation(drv_hash, data)
    store.derivations.setdefault(drv_hash.hex, drv)
    return drv_hash


def output_path(store, drv_hash: ContentHash) -> StorePath:
    """The store path of the output of the derivation that drv_hash names."""
    return StorePath(store.root, drv_hash.prefix, load_derivation(store, drv_hash).label)


def source_path(store, src: SourceRef) -> StorePath:
    """A source's store path: a fixed item, named by its declared hash and label."""
    return StorePath.from_component(store.root, f"{src.expected_hash.prefix}-{src.label}")


# -- parsing (load_derivation, and drv files fed to the CLI) ---------------

_FIELDS = {"name": str, "version": str, "system": str, "sources": [list],
           "inputs": [list], "steps": [list], "env": [list]}


def _parse_step(form) -> Step:
    if (not isinstance(form, list) or not form or not isinstance(form[0], Sym)
            or not all(isinstance(arg, str) for arg in form[1:])):
        raise ParseError("a step must be an (op string ...) form")
    op = form[0].name
    if op not in _STEP_OPS:
        raise ParseError(f"unknown step op {op!r}")
    bytes_args = _BYTES_ARGS.get(op, ())
    return Step(op, tuple(arg.encode("utf-8", "surrogateescape") if i in bytes_args
                          else arg for i, arg in enumerate(form[1:])))


def parse_derivation(text) -> Derivation:
    """The derivation of its canonical form, given as str or bytes."""
    fields = sexpr.read_fields(sexpr.parse_one(text), "derivation", _FIELDS)
    sources = []
    for form in fields["sources"]:
        _, url, digest, label = sexpr.read_items(form, Sym("source"), str, Sym, str)
        sources.append(SourceRef(url, ContentHash(digest.name), label))
    inputs = []
    for form in fields["inputs"]:
        _, digest, label = sexpr.read_items(form, Sym("input"), Sym, str)
        inputs.append(InputRef(ContentHash(digest.name), label))
    drv = Derivation(name=fields["name"], version=fields["version"],
                     system=fields["system"], sources=sources, inputs=inputs,
                     steps=[_parse_step(s) for s in fields["steps"]],
                     env=sexpr.read_map(fields["env"], str, str))
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
        drv = parse_derivation(data)
        store.derivations[drv_hash.hex] = drv
    return drv
