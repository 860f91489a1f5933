"""Bootstrap trust: declared seed binaries and the opacity audit.

A closure is trusted when every leaf of its provenance graph is either an
explicitly registered seed or a source declared (with its content hash) by
some derivation in the graph.  Anything else -- a binary that appeared in
the store with no recorded origin -- is opaque, and so is everything built
on top of it.  The audit starts from a store path or from a derivation hash
whose bytes the store holds, and reads every derivation by its hash.  A
seed is reported by its store record.
"""

from __future__ import annotations

from typing import NamedTuple

from .derivation import load_derivation, output_path, source_path
from .errors import DanglingReference
from .store import COMPONENT_RE, Store, StoreItemRecord, StorePath


def register_seed(store: Store, content, name: str,
                  description: str = "") -> StoreItemRecord:
    """Declare a trust root; its record.  Seeds are never created
    implicitly by builds."""
    return store.get_record(store.add_fixed(content, name, kind="seed",
                                            description=description))


class AuditReport(NamedTuple):
    verdict: str  # trusted | opaque
    offending: list  # (component, reason)
    seed_list: list  # the seeds' StoreItemRecords, by component
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


def audit_trust(root, store: Store) -> AuditReport:
    """Audit a store path, or the hash of a derivation in the store, against
    the opacity criterion.

    One pass collects the graph: derivations, through inputs and the
    derivers of derived items, and items: each derivation's output when the
    store has it, the components that steps name (in text or bytes), and
    the members of a union (a fixed item with references).  Then each item
    is judged against the whole graph: a fixed item is explained when any
    derivation in the graph declares it as a source, and a named component
    that the store lacks when it is such a source or the output of a
    derivation in the graph (an input not built yet).  So the verdict does
    not depend on the order in which the graph is met.  A derivation, its
    output and the output's deriver form a cycle: the pass is a plain
    worklist, not store.postorder."""
    seen, todo = set(), [root]  # derivation hashes, StorePaths
    sourced, outputs, fixed, absent = set(), set(), set(), set()
    seeds, offending = {}, set()
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, StorePath):
            rec = store.get_record(node)
            if rec is None:
                raise DanglingReference(f"dangling reference {node.component}: not in the store")
            if rec.kind == "seed":
                seeds[node.component] = rec
            elif rec.kind == "fixed":
                todo.extend(rec.references)
                if not rec.references:
                    fixed.add(node.component)
            elif rec.deriver is None:
                offending.add((node.component, "derived-without-deriver"))
            else:
                try:
                    load_derivation(store, rec.deriver)
                    todo.append(rec.deriver)
                except DanglingReference:
                    offending.add((node.component, "deriver-derivation-missing"))
            continue
        drv = load_derivation(store, node)
        sourced.update(source_path(store, s).component for s in drv.sources)
        todo.extend(i.derivation_hash for i in drv.inputs)
        output = output_path(store, node)
        outputs.add(output.component)
        if store.get_record(output) is not None:
            todo.append(output)
        for step in drv.steps:
            for arg in step.args:
                if isinstance(arg, bytes):
                    arg = arg.decode("utf-8", "surrogateescape")
                for component in COMPONENT_RE.findall(arg):
                    if store.get_record(component) is None:
                        absent.add(component)
                    else:
                        todo.append(StorePath.from_component(store.root, component))
    offending.update((c, "unknown-component") for c in absent - sourced - outputs)
    offending.update((c, "no-source-provenance") for c in fixed - sourced)
    seed_list = [seeds[c] for c in sorted(seeds)]
    leaves = {"fixed": len(fixed | sourced), "seed": len(seeds)}
    return AuditReport(
        verdict="opaque" if offending else "trusted",
        offending=sorted(offending),
        seed_list=seed_list,
        total_seed_bytes=sum(s.size for s in seed_list),
        leaf_counts={kind: n for kind, n in leaves.items() if n},
    )
