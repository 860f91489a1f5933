"""Bootstrap trust: declared seed binaries and the opacity audit.

A closure is trusted when every leaf of its provenance graph is either an
explicitly registered seed or a source declared (with its content hash) by
some derivation in the graph.  Anything else -- a binary that appeared in
the store with no recorded origin -- is opaque, and so is everything built
on top of it.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .derivation import Derivation, derivation_hash, load_derivation
from .errors import DanglingReference, InvalidLabel
from .hashing import ContentHash
from .store import Store, StorePath

_COMPONENT_IN_TEXT = re.compile(r"[0-9a-f]{32}-[A-Za-z0-9._+-]+")


class SeedRecord(NamedTuple):
    path: StorePath
    size: int  # CARC byte length
    description: str = ""


def register_seed(store: Store, content, name: str,
                  description: str = "") -> SeedRecord:
    """Declare a trust root.  Seeds are never created implicitly by builds."""
    path = store.add_fixed(content, name, kind="seed", description=description)
    rec = store.get_record(path)
    return SeedRecord(path=path, size=rec.size, description=rec.description)


class AuditReport(NamedTuple):
    verdict: str  # trusted | opaque
    offending: list  # (component, reason)
    seed_list: list  # SeedRecord
    total_seed_bytes: int
    leaf_counts: dict  # kind -> count

    @property
    def trusted(self):
        return self.verdict == "trusted"

    def render(self) -> str:
        lines = [
            f"leaves: " + " ".join(f"{k}={v}" for k, v in sorted(self.leaf_counts.items())),
            f"seeds: " + " ".join(s.path.component for s in self.seed_list),
            f"total_seed_bytes: {self.total_seed_bytes}",
            f"verdict: {self.verdict}",
        ]
        for component, reason in sorted(self.offending):
            lines.append(f"opaque {component} {reason}")
        return "\n".join(lines) + "\n"


class _Audit:
    def __init__(self, store: Store):
        self.store = store
        self.seen_items = set()
        self.seen_drvs = set()
        self.offending = []
        self.seeds = {}
        self.leaf_counts = {}
        self.sourced = set()  # components justified by a source declaration
        self.seed_components = {r.path.component: r for r in store.seeds()}

    def _flag(self, component, reason):
        entry = (component, reason)
        if entry not in self.offending:
            self.offending.append(entry)

    def _leaf(self, kind):
        self.leaf_counts[kind] = self.leaf_counts.get(kind, 0) + 1

    def walk_derivation(self, drv: Derivation, drv_hash: ContentHash):
        if drv_hash.hex in self.seen_drvs:
            return
        self.seen_drvs.add(drv_hash.hex)

        for src in drv.sources:
            component = f"{src.expected_hash.prefix}-{src.label}"
            if component not in self.sourced:
                self.sourced.add(component)
                self._leaf("fixed")
        for inp in drv.inputs:
            input_drv = load_derivation(self.store, inp.derivation_hash)
            self.walk_derivation(input_drv, inp.derivation_hash)
            input_path = StorePath(self.store.root,
                                   inp.derivation_hash.prefix, input_drv.label)
            if self.store.get_record(input_path) is not None:
                self.walk_item(input_path)

        # Every store component a step mentions must be accounted for.
        for step in drv.steps:
            for arg in step.args:
                if not isinstance(arg, str):
                    continue
                for component in _COMPONENT_IN_TEXT.findall(arg):
                    self.check_component(component)

    def check_component(self, component: str):
        if component in self.sourced or component in self.seen_items:
            return
        if component in self.seed_components:
            rec = self.seed_components[component]
            self.seeds[component] = rec
            self.seen_items.add(component)
            self._leaf("seed")
            return
        try:
            path = StorePath.from_component(self.store.root, component)
        except InvalidLabel:
            self._flag(component, "malformed-component")
            return
        if self.store.get_record(path) is None:
            self._flag(component, "unknown-component")
            return
        self.walk_item(path)

    def walk_item(self, path: StorePath):
        if path.component in self.seen_items:
            return
        self.seen_items.add(path.component)
        rec = self.store.get_record(path)
        if rec is None:
            raise DanglingReference(path.component)
        if rec.kind == "seed":
            self.seeds[path.component] = rec
            self._leaf("seed")
            return
        if rec.kind == "derived":
            if rec.deriver is None:
                self._flag(path.component, "derived-without-deriver")
                return
            try:
                deriver = load_derivation(self.store, rec.deriver)
            except DanglingReference:
                self._flag(path.component, "deriver-derivation-missing")
                return
            self.walk_derivation(deriver, rec.deriver)
            return
        # kind == fixed
        if rec.references:
            # Union item (e.g. a profile): not a leaf, audit its members.
            for ref in rec.references:
                self.walk_item(ref)
            return
        if path.component in self.sourced:
            self._leaf("fixed")
            return
        self._flag(path.component, "no-source-provenance")
        self._leaf("fixed")


def audit_trust(root, store: Store) -> AuditReport:
    """Audit a store path, a derivation, or the hash of a derivation in the
    store against the opacity criterion."""
    audit = _Audit(store)
    if isinstance(root, StorePath):
        audit.walk_item(root)
    else:
        drv, drv_hash = ((root, derivation_hash(root)) if isinstance(root, Derivation)
                         else (load_derivation(store, root), root))
        audit.walk_derivation(drv, drv_hash)
        root_path = StorePath(store.root, drv_hash.prefix, drv.label)
        if store.get_record(root_path) is not None:
            audit.walk_item(root_path)
    seeds = [SeedRecord(path=StorePath.from_component(store.root, c),
                        size=r.size, description=getattr(r, "description", ""))
             for c, r in sorted(audit.seeds.items())]
    return AuditReport(
        verdict="opaque" if audit.offending else "trusted",
        offending=sorted(audit.offending),
        seed_list=seeds,
        total_seed_bytes=sum(s.size for s in seeds),
        leaf_counts=audit.leaf_counts,
    )
