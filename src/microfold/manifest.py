"""Manifests: the user-facing environment declaration and its lowering.

A manifest is the closed s-expression form

    (specifications->manifest '("name" "name@version" ...))

with ';' line comments.  Resolution picks package definitions out of a
revision's package set; instantiation lowers them (recursively, through
their dependencies) to derivations whose hashes pin the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sexpr
from .channel import PackageDef
from .derivation import (Derivation, InputRef, SourceRef, Step,
                         canonical_serialize)
from .errors import (DependencyCycle, DuplicateSpec, EmptyName, EmptyVersion,
                     ParseError, ReplacementCycle, UnknownPackage,
                     UnknownVersion, UnsupportedForm)
from .hashing import ContentHash
from . import carc


@dataclass(frozen=True)
class Spec:
    name: str
    version: str | None = None

    def render(self) -> str:
        return self.name if self.version is None else f"{self.name}@{self.version}"


@dataclass
class Manifest:
    specs: list = field(default_factory=list)

    def render(self) -> str:
        inner = " ".join(sexpr.quote_string(s.render()) for s in self.specs)
        return f"(specifications->manifest '({inner}))\n"


def parse_spec(text: str) -> Spec:
    if "@" in text:
        name, _, version = text.rpartition("@")
        if not name:
            raise EmptyName(f"spec {text!r} has an empty name")
        if not version:
            raise EmptyVersion(f"spec {text!r} has an empty version")
        return Spec(name, version)
    if not text:
        raise EmptyName("empty spec")
    return Spec(text)


def parse_manifest(text: str) -> Manifest:
    form = sexpr.parse_one(text)
    if not isinstance(form, list) or not form:
        raise UnsupportedForm("manifest must be a (specifications->manifest ...) form")
    head = form[0]
    if head != sexpr.Sym("specifications->manifest"):
        raise UnsupportedForm(
            f"unsupported form {head!r}: only (specifications->manifest '(...)) "
            "is accepted; full Scheme is out of scope")
    if len(form) != 2 or not isinstance(form[1], sexpr.Quoted):
        raise UnsupportedForm("expected a single quoted list of specs")
    spec_list = form[1].value
    if not isinstance(spec_list, list):
        raise UnsupportedForm("expected a quoted list of spec strings")
    specs, seen = [], set()
    for entry in spec_list:
        if not isinstance(entry, str):
            raise UnsupportedForm(f"spec entries must be strings, got {entry!r}")
        spec = parse_spec(entry)
        if spec.render() in seen:
            raise DuplicateSpec(spec.render())
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


def compare_versions(a: str, b: str) -> int:
    ka, kb = version_key(a), version_key(b)
    return (ka > kb) - (ka < kb)


# -- resolution ------------------------------------------------------------

def resolve_spec(spec: Spec, packages: dict) -> PackageDef:
    """Pick the matching definition, highest version wins for bare names."""
    candidates = [p for p in packages.values() if p.name == spec.name]
    if not candidates:
        raise UnknownPackage(spec.render())
    if spec.version is not None:
        exact = [p for p in candidates if p.version == spec.version]
        if not exact:
            raise UnknownVersion(spec.render())
        return exact[0]
    return max(candidates, key=lambda p: version_key(p.version))


def resolve(manifest: Manifest, packages: dict) -> list:
    return [resolve_spec(s, packages) for s in manifest.specs]


# -- instantiation ---------------------------------------------------------

class Instantiator:
    """Lower package definitions to derivations, memoized per package set.

    Symbolic references in step strings:
      {name}        -> the dependency's output store path component
      {seed:LABEL}  -> the registered seed's store path component
    """

    def __init__(self, packages: dict, *, store=None, archive=None):
        self.packages = packages
        self.store = store
        self.archive = archive
        self.by_key = {}
        self.hashes = {}  # package key -> derivation hash

    def _seed_component(self, label: str) -> str:
        if self.store is None:
            raise UnknownPackage(f"seed {label!r} (no store configured)")
        for rec in self.store.seeds():
            if rec.path.label == label:
                return rec.path.component
        raise UnknownPackage(f"seed {label!r} is not registered")

    def _subst(self, text: str, mapping: dict) -> str:
        out = text
        for name, component in mapping.items():
            out = out.replace("{" + name + "}", component)
        while "{seed:" in out:
            start = out.index("{seed:")
            end = out.index("}", start)
            label = out[start + len("{seed:"):end]
            out = out[:start] + self._seed_component(label) + out[end + 1:]
        return out

    def instantiate(self, pkg: PackageDef, _stack=()) -> Derivation:
        if pkg.key in self.by_key:
            return self.by_key[pkg.key]
        if pkg.key in _stack:
            names = [k.split("@")[0] for k in _stack] + [pkg.name]
            raise DependencyCycle(names[names.index(pkg.name):])
        stack = _stack + (pkg.key,)

        inputs = []
        mapping = {}
        for dep_spec in pkg.deps:
            dep = resolve_spec(parse_spec(dep_spec), self.packages)
            dep_drv = self.instantiate(dep, stack)
            dep_hash = self.hashes[dep.key]
            inputs.append(InputRef(derivation_hash=dep_hash, label=dep.name))
            mapping[dep.name] = f"{dep_hash.prefix}-{dep_drv.label}"

        sources = []
        if isinstance(pkg.source, SourceRef):
            sources.append(pkg.source)
            mapping.setdefault("src", pkg.source.label)
        elif isinstance(pkg.source, bytes):
            content_hash = ContentHash.of_bytes(carc.serialize_bytes(pkg.source))
            label = f"{pkg.name}-{pkg.version}-source"
            if self.archive is not None:
                self.archive.ingest(pkg.source)
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

        drv = Derivation(name=pkg.name, version=pkg.version,
                         sources=sources, inputs=inputs, steps=steps)
        data = canonical_serialize(drv)
        self.hashes[pkg.key] = ContentHash.of_bytes(data)
        if self.store is not None:
            self.store.put_derivation(self.hashes[pkg.key], data)
        self.by_key[pkg.key] = drv
        return drv


def instantiate(pkg: PackageDef, packages: dict, *, store=None, archive=None) -> Derivation:
    return Instantiator(packages, store=store, archive=archive).instantiate(pkg)


# -- graph rewriting -------------------------------------------------------

def rewrite_inputs(root: Spec, replacements: dict, packages: dict) -> dict:
    """Rewrite dependency edges reachable from root.

    replacements maps a dependency name to the Spec that should take its
    place.  Only definitions reachable from root are touched; the input
    package set is left unmodified.
    """
    for spec in replacements.values():
        resolve_spec(spec, packages)  # UnknownPackage if target missing

    rewritten = dict(packages)

    def rewrite_def(pkg: PackageDef) -> PackageDef:
        new_deps = []
        changed = False
        for dep_spec in pkg.deps:
            dep_name = parse_spec(dep_spec).name
            if dep_name in replacements:
                new_deps.append(replacements[dep_name].render())
                changed = True
            else:
                new_deps.append(dep_spec)
        if not changed:
            return pkg
        return PackageDef(name=pkg.name, version=pkg.version,
                          synopsis=pkg.synopsis, source=pkg.source,
                          deps=new_deps, steps=list(pkg.steps))

    # Walk the rewritten graph from root, applying the replacement map as
    # we go so replacements' own subtrees are rewritten too.
    visited = set()
    stack = [(resolve_spec(root, packages).key, ())]
    while stack:
        key, chain = stack.pop()
        if key in chain:
            raise ReplacementCycle(" -> ".join(chain + (key,)))
        if key in visited:
            continue
        visited.add(key)
        new_def = rewrite_def(rewritten[key])
        rewritten[key] = new_def
        for dep_spec in new_def.deps:
            dep = resolve_spec(parse_spec(dep_spec), rewritten)
            stack.append((dep.key, chain + (key,)))
    return rewritten
