"""Content-addressed store: immutable items plus their provenance records.

Layout under the store root (a plain user-writable directory):

    items/<digest_prefix>-<label>/...   the item's file tree (or single file)
    db/items/<component>                one record per item, "key: value" lines
    db/drvs/<64-hex>                    canonical derivation bytes by hash
    locks/<digest_prefix>.lock          per-digest advisory write locks

Records are written once and never edited.  This module also owns the two
helpers other layers share: the `flock` lock and the "key: value" codec.
"""

from __future__ import annotations

import fcntl
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import carc
from .errors import (DanglingReference, InvalidLabel, OutputCollision,
                     StoreCorruption)
from .hashing import ContentHash, PREFIX_LEN

LABEL_RE = re.compile(r"^[A-Za-z0-9._+-]+$")
_COMPONENT_RE = re.compile(r"^[0-9a-f]{32}-[A-Za-z0-9._+-]+$")


def check_label(label: str):
    if not LABEL_RE.match(label):
        raise InvalidLabel(f"invalid store label: {label!r}")


@contextmanager
def locked(lock_path):
    """Hold an exclusive advisory lock on lock_path (created if absent)."""
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def render_fields(fields: dict) -> str:
    """"key: value" lines, keys sorted: store records and cache info files."""
    return "".join(f"{k}: {v}\n" for k, v in sorted(fields.items()))


def parse_fields(text: str) -> dict:
    return dict(line.partition(": ")[::2] for line in text.splitlines())


@dataclass(frozen=True)
class StorePath:
    """A store item's location.  Identity is the final path component."""

    store_root: Path
    digest_prefix: str
    label: str

    @property
    def component(self) -> str:
        return f"{self.digest_prefix}-{self.label}"

    @property
    def path(self) -> Path:
        return Path(self.store_root) / "items" / self.component

    @classmethod
    def from_component(cls, store_root, component: str) -> "StorePath":
        if not _COMPONENT_RE.match(component):
            raise InvalidLabel(f"invalid store path component: {component!r}")
        return cls(Path(store_root), component[:PREFIX_LEN],
                   component[PREFIX_LEN + 1:])

    def __eq__(self, other):
        return isinstance(other, StorePath) and self.component == other.component

    def __hash__(self):
        return hash(self.component)

    def __str__(self):
        return str(self.path)


@dataclass
class StoreItemRecord:
    path: StorePath
    output_hash: ContentHash
    references: list = field(default_factory=list)  # sorted StorePath list
    kind: str = "fixed"  # fixed | derived | seed
    deriver: ContentHash | None = None
    size: int = 0  # CARC byte length
    description: str = ""  # seeds only


@dataclass
class VerifyReport:
    status: str  # ok | mismatch | missing
    expected: ContentHash | None = None
    actual: ContentHash | None = None

    @property
    def ok(self):
        return self.status == "ok"


def _as_node(content):
    """Normalize bytes / path / carc node to an in-memory tree node."""
    if isinstance(content, bytes):
        return carc.File(content)
    if isinstance(content, (str, Path)):
        return carc.load_tree(content)
    return content


class Store:
    def __init__(self, root):
        self.root = Path(root)
        for sub in ("items", "db/items", "db/drvs", "locks"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- locking ----------------------------------------------------------

    def lock(self, digest_prefix: str):
        return locked(self.root / "locks" / f"{digest_prefix}.lock")

    # -- records ----------------------------------------------------------

    def _record_path(self, component: str) -> Path:
        return self.root / "db" / "items" / component

    def _write_record(self, rec: StoreItemRecord):
        lines = {
            "kind": rec.kind,
            "outputhash": rec.output_hash.hex,
            "references": " ".join(p.component for p in rec.references),
            "size": str(rec.size),
        }
        if rec.deriver is not None:
            lines["deriver"] = rec.deriver.hex
        if rec.description:
            lines["description"] = rec.description
        self._record_path(rec.path.component).write_text(render_fields(lines))

    def get_record(self, path) -> StoreItemRecord | None:
        component = path.component if isinstance(path, StorePath) else path
        rec_path = self._record_path(component)
        if not rec_path.exists():
            return None
        fields = parse_fields(rec_path.read_text())
        refs = [StorePath.from_component(self.root, c)
                for c in fields.get("references", "").split() if c]
        return StoreItemRecord(
            path=StorePath.from_component(self.root, component),
            output_hash=ContentHash(fields["outputhash"]),
            references=refs,
            kind=fields["kind"],
            deriver=ContentHash(fields["deriver"]) if "deriver" in fields else None,
            size=int(fields.get("size", "0")),
            description=fields.get("description", ""),
        )

    def list_records(self) -> list:
        out = []
        for entry in sorted((self.root / "db" / "items").iterdir()):
            out.append(self.get_record(entry.name))
        return out

    def seeds(self) -> list:
        return [r for r in self.list_records() if r.kind == "seed"]

    # -- derivations ------------------------------------------------------

    def put_derivation(self, drv_hash: ContentHash, data: bytes):
        path = self.root / "db" / "drvs" / drv_hash.hex
        if not path.exists():
            path.write_bytes(data)

    def get_derivation_bytes(self, drv_hash: ContentHash) -> bytes | None:
        path = self.root / "db" / "drvs" / drv_hash.hex
        return path.read_bytes() if path.exists() else None

    # -- item insertion ---------------------------------------------------

    def _materialize(self, node, store_path: StorePath):
        tmp = store_path.path.with_name(store_path.component + ".tmp")
        if tmp.exists() or tmp.is_symlink():
            shutil.rmtree(tmp, ignore_errors=True)
            if tmp.exists() or tmp.is_symlink():
                tmp.unlink()
        carc.write_tree(node, tmp)
        os.rename(tmp, store_path.path)

    def add_fixed(self, content, label: str, *, kind: str = "fixed",
                  description: str = "", references: list = ()) -> StorePath:
        """Insert content-addressed bytes or a file tree; idempotent."""
        check_label(label)
        node = _as_node(content)
        archive = carc.serialize_tree(node)
        content_hash = ContentHash.of_bytes(archive)
        store_path = StorePath(self.root, content_hash.prefix, label)
        refs = sorted(set(references), key=lambda p: p.component)
        with self.lock(content_hash.prefix):
            existing = self.get_record(store_path)
            if existing is not None:
                if existing.output_hash != content_hash:
                    raise StoreCorruption(
                        f"{store_path.component}: recorded hash "
                        f"{existing.output_hash} != content hash {content_hash}")
                return store_path
            self._materialize(node, store_path)
            self._write_record(StoreItemRecord(
                path=store_path, output_hash=content_hash, references=refs,
                kind=kind, size=len(archive), description=description))
        return store_path

    def register_output(self, tree, store_path: StorePath, *,
                        deriver: ContentHash | None, references: list,
                        kind: str = "derived") -> StoreItemRecord:
        """Register an output tree at a derivation-addressed path.

        An existing record with the same hash is a no-op; one with a
        different hash raises OutputCollision.  Records are never rewritten.
        """
        node = _as_node(tree)
        archive = carc.serialize_tree(node)
        output_hash = ContentHash.of_bytes(archive)
        refs = sorted(set(references), key=lambda p: p.component)
        rec = StoreItemRecord(path=store_path, output_hash=output_hash,
                              references=refs, kind=kind,
                              deriver=deriver, size=len(archive))
        with self.lock(store_path.digest_prefix):
            existing = self.get_record(store_path)
            if existing is not None:
                if existing.output_hash != output_hash:
                    raise OutputCollision(
                        f"{store_path.component}: existing output "
                        f"{existing.output_hash}, rebuilt output {output_hash}")
                return existing
            self._materialize(node, store_path)
            self._write_record(rec)
        return rec

    # -- verification and closure -----------------------------------------

    def verify_item(self, path: StorePath) -> VerifyReport:
        rec = self.get_record(path)
        if rec is None or not (path.path.exists() or path.path.is_symlink()):
            return VerifyReport("missing")
        actual = ContentHash.of_bytes(carc.serialize_path(path.path))
        if actual != rec.output_hash:
            return VerifyReport("mismatch", expected=rec.output_hash, actual=actual)
        return VerifyReport("ok", expected=rec.output_hash, actual=actual)

    def closure(self, path: StorePath) -> list:
        """Transitive references closure, root first, deterministic order."""
        graph = {}
        stack = [path]
        while stack:
            p = stack.pop()
            if p.component in graph:
                continue
            rec = self.get_record(p)
            if rec is None:
                raise DanglingReference(p.component)
            graph[p.component] = rec.references
            stack.extend(rec.references)

        # Topological: referrers before referees, ties by component bytes.
        referrers = {c: set() for c in graph}
        for c, refs in graph.items():
            for r in refs:
                if r.component != c:
                    referrers[r.component].add(c)
        emitted = []
        remaining = set(graph)
        while remaining:
            ready = sorted(c for c in remaining
                           if not (referrers[c] & remaining))
            pick = ready[0] if ready else sorted(remaining)[0]
            emitted.append(StorePath.from_component(self.root, pick))
            remaining.remove(pick)
        return emitted
