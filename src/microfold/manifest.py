"""Manifests: the user-facing environment declaration and its lowering.

A manifest is the closed s-expression form

    (specifications->manifest '("name" "name@version" ...))

with ';' line comments.  Resolution picks package definitions out of a
revision's package set; instantiation lowers them and their dependencies to
derivations whose hashes pin the whole graph, in one walk that keeps its own
stack (store.postorder), so a dependency chain may be of any depth.  Each
derivation enters the store as it is made, and is named by its hash.
"""

from __future__ import annotations

from typing import NamedTuple

from . import sexpr
from .channel import PackageDef
from .derivation import (Derivation, InputRef, SourceRef, Step, output_path,
                         register_derivation)
from .errors import DependencyCycle, InvariantViolation, MicrofoldError, ParseError
from .hashing import ContentHash
from .store import postorder
from . import carc


class Spec(NamedTuple):
    name: str
    version: str | None = None

    def render(self) -> str:
        return self.name if self.version is None else f"{self.name}@{self.version}"


class Manifest(NamedTuple):
    specs: list

    def render(self) -> str:
        return sexpr.unparse([sexpr.Sym("specifications->manifest"),
                              sexpr.Quoted([s.render() for s in self.specs])]) + "\n"


def parse_spec(text: str) -> Spec:
    if "@" in text:
        name, _, version = text.rpartition("@")
        if not name:
            raise ParseError(f"spec {text!r} has an empty name")
        if not version:
            raise ParseError(f"spec {text!r} has an empty version")
        return Spec(name, version)
    if not text:
        raise ParseError("empty spec")
    return Spec(text)


def parse_manifest(text: str) -> Manifest:
    form = sexpr.parse_one(text)
    if not isinstance(form, list) or not form:
        raise ParseError("manifest must be a (specifications->manifest ...) form")
    head = form[0]
    if head != sexpr.Sym("specifications->manifest"):
        shown = head.name if isinstance(head, sexpr.Sym) else type(head).__name__
        raise ParseError(
            f"unsupported form {shown}: only (specifications->manifest '(...)) "
            "is accepted; full Scheme is out of scope")
    if len(form) != 2 or not isinstance(form[1], sexpr.Quoted):
        raise ParseError("expected a single quoted list of specs")
    spec_list = form[1].value
    if not isinstance(spec_list, list):
        raise ParseError("expected a quoted list of spec strings")
    specs, seen = [], set()
    for entry in spec_list:
        if not isinstance(entry, str):
            raise ParseError(f"spec entries must be strings, got {type(entry).__name__}")
        spec = parse_spec(entry)
        if spec.render() in seen:
            raise ParseError(f"duplicate spec {spec.render()}")
        seen.add(spec.render())
        specs.append(spec)
    return Manifest(specs)


# -- version ordering ------------------------------------------------------

def version_key(version: str) -> list:
    """Sort key of a total order: dot-split; all-digit components compare
    numerically and sort before the others, which compare bytewise; a
    shorter prefix loses."""
    return [(0, int(c), c.encode()) if c.isdecimal() else (1, 0, c.encode())
            for c in version.split(".")]


# -- resolution ------------------------------------------------------------

def resolve_spec(spec: Spec, packages: dict) -> PackageDef:
    """Pick the matching definition, highest version wins for bare names."""
    candidates = [p for p in packages.values() if p.name == spec.name]
    if not candidates:
        raise MicrofoldError(f"unknown package {spec.render()}")
    if spec.version is not None:
        exact = [p for p in candidates if p.version == spec.version]
        if not exact:
            raise MicrofoldError(f"unknown version {spec.render()}")
        return exact[0]
    return max(candidates, key=lambda p: version_key(p.version))


# -- instantiation ---------------------------------------------------------

class Instantiator:
    """Lower package definitions to derivations in a store, memoized per
    package set; a derivation is named by its hash from then on.

    Symbolic references in step strings:
      {name}        -> the dependency's output store path component
      {seed:LABEL}  -> the registered seed's store path component
    """

    def __init__(self, packages: dict, *, store, archive=None):
        self.named = {}  # name -> {key: definition}, for resolve
        for pkg in packages.values():
            self.named.setdefault(pkg.name, {})[pkg.key] = pkg
        self.store = store
        self.archive = archive
        self.hashes = {}  # package key -> derivation hash

    def resolve(self, spec: Spec) -> PackageDef:
        """resolve_spec over the definitions of spec's name only."""
        return resolve_spec(spec, self.named.get(spec.name, {}))

    def _seed_component(self, label: str) -> str:
        for rec in self.store.seeds():
            if rec.path.label == label:
                return rec.path.component
        raise MicrofoldError(f"seed {label!r} is not registered")

    def _subst(self, text: str, mapping: dict) -> str:
        out = text
        for name, component in mapping.items():
            out = out.replace("{" + name + "}", component)
        while "{seed:" in out:
            start = out.index("{seed:")
            end = out.find("}", start)
            if end < 0:
                raise InvariantViolation(f"unclosed placeholder {out[start:start + 64]!r}")
            label = out[start + len("{seed:"):end]
            out = out[:start] + self._seed_component(label) + out[end + 1:]
        return out

    def instantiate(self, pkg: PackageDef) -> ContentHash:
        """The hash of pkg's derivation, whose bytes the store holds.  One
        post-order walk (store.postorder) lowers each dependency the package
        set resolves, once, before the packages that depend on it; a cycle
        raises DependencyCycle, naming them."""
        defs, deps = {pkg.key: pkg}, {}  # key -> its dependencies' definitions

        def resolved(key):
            if key in self.hashes:
                return ()
            deps[key] = [self.resolve(parse_spec(spec)) for spec in defs[key].deps]
            defs.update((dep.key, dep) for dep in deps[key])
            return [dep.key for dep in deps[key]]

        try:
            for key in postorder([pkg.key], resolved):
                if key in deps:
                    self._lower(defs[key], deps.pop(key))
        except DependencyCycle as e:
            raise DependencyCycle([defs[key].name for key in e.chain]) from None
        return self.hashes[pkg.key]

    def _lower(self, pkg: PackageDef, deps: list):
        """Register pkg's derivation, whose dependencies deps are lowered."""
        inputs, mapping = [], {}
        for dep in deps:
            dep_hash = self.hashes[dep.key]
            inputs.append(InputRef(derivation_hash=dep_hash, label=dep.name))
            mapping[dep.name] = output_path(self.store, dep_hash).component

        sources = []
        if isinstance(pkg.source, SourceRef):
            sources.append(pkg.source)
            mapping.setdefault("src", pkg.source.label)
        elif isinstance(pkg.source, bytes):
            content_hash = (self.archive.ingest(pkg.source) if self.archive is not None
                            else ContentHash.of_bytes(carc.file_archive(pkg.source)))
            label = f"{pkg.name}-{pkg.version}-source"
            sources.append(SourceRef(url=f"archive://{content_hash.hex}",
                                     expected_hash=content_hash, label=label))
            mapping.setdefault("src", label)

        steps = []
        for step in pkg.steps:
            args = []
            for a in step.args:
                if isinstance(a, bytes):
                    text = self._subst(a.decode("utf-8", "surrogateescape"),
                                       mapping)
                    args.append(text.encode("utf-8", "surrogateescape"))
                else:
                    args.append(self._subst(a, mapping))
            steps.append(Step(step.op, tuple(args)))

        self.hashes[pkg.key] = register_derivation(self.store, Derivation(
            name=pkg.name, version=pkg.version, sources=sources, inputs=inputs,
            steps=steps))


def instantiate(pkg: PackageDef, packages: dict, *, store, archive=None) -> ContentHash:
    return Instantiator(packages, store=store, archive=archive).instantiate(pkg)


# -- graph rewriting -------------------------------------------------------

def rewrite_inputs(root: Spec, replacements: dict, packages: dict) -> dict:
    """Rewrite dependency edges reachable from root.

    replacements maps a dependency name to the Spec that should take its
    place.  Only definitions reachable from root are touched; the input
    package set is left unmodified.
    """
    for spec in replacements.values():
        resolve_spec(spec, packages)  # raises if the target is missing

    rewritten = dict(packages)

    # Walk the rewritten graph from root, applying the replacement map as
    # each definition is entered, so replacements' own subtrees are
    # rewritten too.
    def rewritten_deps(key):
        pkg = rewritten[key]
        deps = [replacements[name].render()
                if (name := parse_spec(spec).name) in replacements else spec
                for spec in pkg.deps]
        if deps != pkg.deps:
            rewritten[key] = PackageDef(
                name=pkg.name, version=pkg.version, synopsis=pkg.synopsis,
                source=pkg.source, deps=deps, steps=list(pkg.steps))
        return [resolve_spec(parse_spec(spec), rewritten).key for spec in deps]

    try:
        for _ in postorder([resolve_spec(root, packages).key], rewritten_deps):
            pass
    except DependencyCycle as e:
        raise MicrofoldError("replacement cycle: " + " -> ".join(e.chain)) from None
    return rewritten
